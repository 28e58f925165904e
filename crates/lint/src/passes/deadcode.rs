//! Flow-sensitive dead-code lints over a statement program:
//! assignments overwritten before any read (`R0201`) and catalog tables
//! the program never touches (`R0202`).

use std::collections::BTreeSet;

use receivers_obs as obs;
use receivers_sql::footprint::{footprint, Footprint, Write};
use receivers_sql::sat::{Disjointness, GuardRef, Implication, Solver};
use receivers_sql::SpannedStatement;

use crate::diag::{codes, Diagnostic};
use crate::pass::{LintContext, ProgramPass};

obs::counter!(C_DISJOINT_OVERWRITES, "lint.sat.disjoint_overwrites");
obs::counter!(C_IMPLIED_OVERWRITES, "lint.sat.implied_overwrites");

/// Dead-assignment detection.
///
/// Both the set-oriented and the cursor form of an *unguarded* update
/// iterate the whole target table, so statement `j` updating the same
/// column as statement `i` is a **full overwrite**: if no statement
/// between them reads the column, `i`'s values are never observable and
/// `i` is dead. A delete on the target table between the two ends the
/// scan conservatively (the surviving tuples still lose their values,
/// but we only flag the unambiguous case).
///
/// **Guarded overwrites** are refined by the [`receivers_sql::sat`]
/// solver: a later same-column write whose guard is provably *disjoint*
/// from this statement's guard touches none of its rows, so the scan
/// continues past it; one whose guard provably *covers* this
/// statement's guard (`guard_i ⟹ guard_j`) is a full overwrite of every
/// row written, so `R0201` still fires — with the solver's proof
/// attached. When the solver cannot decide, the scan ends silently.
pub struct DeadAssignmentPass;

impl ProgramPass for DeadAssignmentPass {
    fn name(&self) -> &'static str {
        "dead-assignment"
    }

    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let solver = Solver::new(cx.catalog);
        let fps: Vec<Footprint> = program
            .iter()
            .map(|s| footprint(&s.stmt, cx.catalog))
            .collect();
        for i in 0..program.len() {
            let Some(Write::Update {
                table,
                column,
                prop,
            }) = &fps[i].write
            else {
                continue;
            };
            for (j, later) in fps.iter().enumerate().skip(i + 1) {
                if later.reads.contains(prop) {
                    break; // live: a later statement reads the column
                }
                match &later.write {
                    Some(Write::Update {
                        prop: p2,
                        table: t2,
                        ..
                    }) if p2 == prop => {
                        let dead = Diagnostic::new(
                            codes::DEAD_ASSIGNMENT,
                            format!(
                                "assignment to `{table}.{column}` is dead: it is \
                                 overwritten before any statement reads it"
                            ),
                        )
                        .with_span(program[i].span)
                        .note_at(program[j].span, "overwritten here");
                        if later.guard.is_none() {
                            // Unconditional: a full overwrite, as before.
                            out.push(dead);
                            break;
                        }
                        if t2 != table {
                            break; // different view of the class: stay conservative
                        }
                        let gi = GuardRef::of_statement(&program[i].stmt);
                        let gj = GuardRef::of_statement(&program[j].stmt);
                        match solver.disjoint(table, gi, gj) {
                            Disjointness::Disjoint(_) => {
                                // The later write touches none of this
                                // statement's rows; keep scanning.
                                C_DISJOINT_OVERWRITES.incr();
                                continue;
                            }
                            Disjointness::Overlapping | Disjointness::Unknown(_) => {}
                        }
                        match solver.implies(table, gi, gj) {
                            Implication::Implies(proof) => {
                                // Every row this statement writes is
                                // rewritten by `j`: still dead.
                                C_IMPLIED_OVERWRITES.incr();
                                let mut d =
                                    dead.note("the later write's guard provably covers this one");
                                for n in proof.notes {
                                    d = d.note(n);
                                }
                                out.push(d);
                            }
                            Implication::NotImplied | Implication::Unknown(_) => {}
                        }
                        break;
                    }
                    Some(Write::Delete { table: t2 }) if t2 == table => break,
                    _ => {}
                }
            }
        }
    }
}

/// Unused-table detection: catalog tables no statement references.
pub struct UnusedTablePass;

impl ProgramPass for UnusedTablePass {
    fn name(&self) -> &'static str {
        "unused-table"
    }

    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        if program.is_empty() {
            return; // an empty program uses nothing; not worth the noise
        }
        let mut used = BTreeSet::new();
        for s in program {
            used.extend(footprint(&s.stmt, cx.catalog).tables);
        }
        for (name, _) in cx.catalog.tables() {
            if !used.contains(name) {
                out.push(Diagnostic::new(
                    codes::UNUSED_TABLE,
                    format!("table `{name}` is never referenced by the program"),
                ));
            }
        }
    }
}

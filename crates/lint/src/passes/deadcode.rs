//! Flow-sensitive dead-code lints over a statement program:
//! assignments overwritten before any read (`R0201`) and catalog tables
//! the program never touches (`R0202`).

use std::collections::BTreeSet;

use receivers_sql::footprint::{footprint, Footprint, Write};
use receivers_sql::plan::{net_stores, Netting};
use receivers_sql::SpannedStatement;

use crate::diag::{codes, Diagnostic};
use crate::pass::{LintContext, ProgramPass};

/// Dead-assignment detection: the planner's netting rule
/// ([`receivers_sql::plan::net_stores`]), so a store is reported dead
/// exactly when the planner skips it.
///
/// A later statement updating the same column without reading it is a
/// **full overwrite** when it is unguarded (both forms of an update
/// iterate the whole table), or when both are guarded, the
/// satisfiability solver ([`receivers_sql::sat`]) proves the earlier
/// guard implies the later one (identical guards do), and no statement
/// in between writes what the later guard reads. The scan ends at a
/// statement reading the column, at any delete, and at a write that
/// does not resolve. A guarded cover carries its proof as notes.
pub struct DeadAssignmentPass;

impl ProgramPass for DeadAssignmentPass {
    fn name(&self) -> &'static str {
        "dead-assignment"
    }

    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let fps: Vec<Footprint> = program
            .iter()
            .map(|s| footprint(&s.stmt, cx.catalog))
            .collect();
        let stores: Vec<_> = program.iter().map(|s| &s.stmt).zip(&fps).collect();
        for (i, netting) in net_stores(&stores, cx.catalog).into_iter().enumerate() {
            let Some(Netting { by, proof }) = netting else {
                continue;
            };
            let Some(Write::Update { table, column, .. }) = &fps[i].write else {
                continue;
            };
            let mut dead = Diagnostic::new(
                codes::DEAD_ASSIGNMENT,
                format!(
                    "assignment to `{table}.{column}` is dead: it is overwritten before any \
                     statement reads it"
                ),
            )
            .with_span(program[i].span)
            .note_at(program[by].span, "overwritten here");
            // An unguarded overwrite is its own argument; a guarded one
            // carries the covering proof.
            if fps[by].guard.is_some() {
                for n in proof.notes {
                    dead = dead.note(n);
                }
            }
            out.push(dead);
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

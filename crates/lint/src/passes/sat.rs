//! The condition-satisfiability pass (`R0501`/`R0502`): every guarded
//! statement's condition is run through the [`receivers_sql::sat`]
//! decision procedure.
//!
//! * `R0501` — the condition is **unsatisfiable**: no row of any
//!   instance passes it, so the guarded delete/update never affects
//!   anything. The solver's proof is rendered as diagnostic notes.
//! * `R0502` — a conjunct is **subsumed**: the rest of the condition
//!   already implies it, so deleting the conjunct leaves the guarded
//!   row set unchanged.
//!
//! Both verdicts are proofs, not heuristics: the solver only answers
//! `Unsatisfiable`/`Implies` when the canonical-instance argument goes
//! through, and stays silent (`Unknown`) otherwise.

use receivers_obs as obs;
use receivers_sql::ast::{Condition, SqlStatement};
use receivers_sql::sat::{GuardRef, Implication, Satisfiability, Solver};
use receivers_sql::SpannedStatement;

use crate::diag::{codes, Diagnostic};
use crate::pass::{LintContext, ProgramPass};

obs::counter!(C_CONDITIONS_CHECKED, "lint.sat.conditions_checked");
obs::counter!(C_UNSATISFIABLE, "lint.sat.unsatisfiable");
obs::counter!(C_SUBSUMED, "lint.sat.subsumed");

/// Condition satisfiability and conjunct subsumption.
pub struct SatPass;

impl ProgramPass for SatPass {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let solver = Solver::new(cx.catalog);
        for stmt in program {
            let guard = GuardRef::of_statement(&stmt.stmt);
            let Some(cond) = guard.condition else {
                continue; // unguarded: trivially satisfiable
            };
            let (table, ..) = stmt.stmt.parts();
            C_CONDITIONS_CHECKED.incr();
            match solver.satisfiable(table, guard) {
                Satisfiability::Unsatisfiable(proof) => {
                    C_UNSATISFIABLE.incr();
                    let action = match &stmt.stmt {
                        SqlStatement::Delete { .. } => "delete",
                        SqlStatement::Update { .. } => "update",
                        SqlStatement::ForEach { .. } => "cursor body",
                    };
                    let mut d = Diagnostic::new(
                        codes::UNSATISFIABLE_CONDITION,
                        format!(
                            "condition is unsatisfiable: no row of any instance passes it, \
                             so this {action} never affects anything"
                        ),
                    )
                    .with_span(stmt.span);
                    for n in proof.notes {
                        d = d.note(n);
                    }
                    out.push(d);
                    // A contradiction implies every conjunct; reporting
                    // each as subsumed on top would be noise.
                    continue;
                }
                Satisfiability::Unknown(_) => continue,
                Satisfiability::Satisfiable => {}
            }

            // Subsumption among conjuncts: `c_k` is redundant when the
            // remaining conjuncts already imply it. The whole condition
            // is satisfiable here, hence so is every "rest", so the
            // implication is never vacuous.
            let conjuncts = flatten(cond);
            if conjuncts.len() < 2 {
                continue;
            }
            for (k, conjunct) in conjuncts.iter().enumerate() {
                let rest = conjoin_without(&conjuncts, k);
                let guard_as = |c| GuardRef {
                    condition: Some(c),
                    ..guard
                };
                if let Implication::Implies(proof) =
                    solver.implies(table, guard_as(&rest), guard_as(conjunct))
                {
                    C_SUBSUMED.incr();
                    let mut d = Diagnostic::new(
                        codes::SUBSUMED_CONDITION,
                        format!(
                            "conjunct `{conjunct}` is redundant: the rest of the \
                             condition already implies it"
                        ),
                    )
                    .with_span(stmt.span)
                    .note(format!("the remaining condition is `{rest}`"));
                    for n in proof.notes {
                        d = d.note(n);
                    }
                    out.push(d);
                }
            }
        }
    }
}

/// Flatten nested `AND`s into the conjunct list.
fn flatten(cond: &Condition) -> Vec<&Condition> {
    fn walk<'a>(c: &'a Condition, out: &mut Vec<&'a Condition>) {
        match c {
            Condition::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(cond, &mut out);
    out
}

/// The conjunction of every conjunct except index `skip` (callers
/// guarantee at least two conjuncts, so the fold is never empty).
fn conjoin_without(conjuncts: &[&Condition], skip: usize) -> Condition {
    conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != skip)
        .map(|(_, c)| (*c).clone())
        .reduce(|a, b| Condition::And(Box::new(a), Box::new(b)))
        .expect("at least one conjunct remains")
}

#[cfg(test)]
mod tests {
    use crate::pass::PassManager;
    use receivers_sql::catalog::employee_catalog;

    #[test]
    fn contradictory_guard_fires_r0501_with_proof_notes() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let report = pm.lint_source(
            "delete from Employee where Salary in table Fire and Salary not in table Fire",
            &catalog,
        );
        let hits = report.with_code("R0501");
        assert_eq!(hits.len(), 1, "{:#?}", report.diagnostics);
        assert!(
            !hits[0].notes.is_empty(),
            "the solver's proof must surface as notes"
        );
        assert!(report.with_code("R0502").is_empty(), "no subsumption noise");
    }

    #[test]
    fn duplicated_conjunct_fires_r0502() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let report = pm.lint_source(
            "delete from Employee where Salary in table Fire and Salary in table Fire",
            &catalog,
        );
        let hits = report.with_code("R0502");
        assert_eq!(hits.len(), 2, "both copies subsume each other");
        assert!(report.with_code("R0501").is_empty());
    }

    #[test]
    fn satisfiable_irredundant_conditions_stay_silent() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let report = pm.lint_source(
            "delete from Employee where Salary in table Fire and Manager <> EmpId",
            &catalog,
        );
        assert!(report.with_code("R0501").is_empty());
        assert!(report.with_code("R0502").is_empty());
    }

    #[test]
    fn guarded_cursor_bodies_are_checked_too() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        // `Salary <> Salary` alone is satisfiable (a row with no Salary
        // value has disjoint — empty — value sets); conjoining
        // `Salary = Salary` forces a shared value and contradicts it.
        let report = pm.lint_source(
            "for each t in Employee do if t.Salary = Salary and Salary <> Salary \
             delete t from Employee",
            &catalog,
        );
        assert_eq!(
            report.with_code("R0501").len(),
            1,
            "{:#?}",
            report.diagnostics
        );
    }
}

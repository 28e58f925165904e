//! The shardability pass (`R0503`): every cursor update that compiles to
//! an algebraic method is run through [`Solver::certify_sharded`], and
//! the ones whose certificate comes back shard-safe get an advisory note
//! saying the statement would shard cleanly.
//!
//! The certificate is the syntactic read/write-footprint containment
//! argument of `receivers_core::shard`, refined by the satisfiability
//! solver: a read/write conflict is discharged when every read of the
//! conflicting column is provably pinned to the receiving row itself, so
//! the home replica's value is exact even while other shards rewrite
//! their rows in parallel. The discharge proofs are rendered as notes.
//!
//! Advisory only: the diagnostic reports parallel headroom the program
//! already has, never a problem — statements that do not certify stay
//! silent (`core::shard`'s executor refuses them; they apply in order).

use receivers_obs as obs;
use receivers_sql::sat::Solver;
use receivers_sql::SpannedStatement;

use crate::diag::{codes, Diagnostic};
use crate::pass::{LintContext, ProgramPass};

obs::counter!(C_SHARDABLE, "lint.shard.certified");

/// Advisory shard-cleanliness certification.
pub struct ShardabilityPass;

impl ProgramPass for ShardabilityPass {
    fn name(&self) -> &'static str {
        "shard"
    }

    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let solver = Solver::new(cx.catalog);
        for stmt in program {
            let Some(cert) = solver.certify_sharded(&stmt.stmt) else {
                continue; // not a cursor update with an algebraic form
            };
            if !cert.certificate.shard_safe() {
                continue; // undischarged conflicts: coordinator path, no note
            }
            C_SHARDABLE.incr();
            let mut d = Diagnostic::new(
                codes::SHARDABLE_STATEMENT,
                "this statement would shard cleanly: receivers whose objects share a \
                 shard can run on that shard's worker loop, bit-identically to the \
                 sequential order",
            )
            .with_span(stmt.span);
            if cert.certificate.conflicts.is_empty() {
                d = d.note(
                    "the method's read and write footprints are disjoint, so any two \
                     receivers in different shards commute",
                );
            } else {
                for (prop, proof) in &cert.proofs {
                    let column = cx.catalog.schema.prop_name(*prop);
                    d = d.note(format!(
                        "the read/write conflict on `{column}` is discharged: every \
                         read of it is pinned to the receiving row"
                    ));
                    for n in &proof.notes {
                        d = d.note(n.clone());
                    }
                }
            }
            out.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::pass::PassManager;
    use receivers_sql::catalog::employee_catalog;
    use receivers_sql::scenarios::{CURSOR_UPDATE_B, CURSOR_UPDATE_C, UPDATE_A};

    #[test]
    fn scenario_b_is_certified_shardable_with_discharge_notes() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let report = pm.lint_source(CURSOR_UPDATE_B, &catalog);
        let hits = report.with_code("R0503");
        assert_eq!(hits.len(), 1, "{:#?}", report.diagnostics);
        assert!(
            hits[0].notes.iter().any(|n| n.message.contains("`salary`")),
            "the discharged conflict on Salary must surface: {:#?}",
            hits[0].notes
        );
    }

    #[test]
    fn order_dependent_and_set_oriented_statements_stay_silent() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let report = pm.lint_source(CURSOR_UPDATE_C, &catalog);
        assert!(
            report.with_code("R0503").is_empty(),
            "scenario (C) reads other rows' Salary: not shard-safe"
        );
        let report = pm.lint_source(UPDATE_A, &catalog);
        assert!(
            report.with_code("R0503").is_empty(),
            "set-oriented statements have no algebraic cursor form to certify"
        );
    }
}

//! The coloring/effect pass: Section 7's Theorem 4.23 argument, run
//! statement by statement (`R0101`/`R0102`/`R0105`).
//!
//! Each compilable statement gets its tuple-atomicity coloring from
//! [`receivers_sql::analyze_statement`]. A per-tuple statement with a
//! *simple* coloring is certified order independent; a doubly-colored
//! item produces a warning naming it (e.g. `Employee{d,u}` for the
//! manager-based delete). Set-oriented statements are two-phase and get
//! an informational note regardless of their footprint.

use receivers_coloring::Coloring;
use receivers_sql::analyze::EffectVerdict;
use receivers_sql::{analyze_statement, compile, SpannedStatement};

use crate::diag::{codes, Diagnostic};
use crate::pass::{LintContext, ProgramPass};

/// The coloring/effect pass.
pub struct ColoringPass;

impl ProgramPass for ColoringPass {
    fn name(&self) -> &'static str {
        "coloring"
    }

    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for stmt in program {
            let Ok(compiled) = compile(&stmt.stmt, cx.catalog) else {
                continue; // the resolution pass reports the reason
            };
            let Ok(analysis) = analyze_statement(&compiled) else {
                continue;
            };
            match analysis.verdict {
                EffectVerdict::CertifiedSimple => out.push(
                    Diagnostic::new(
                        codes::CERTIFIED_SIMPLE,
                        "certified order independent by Theorem 4.23 (simple coloring)",
                    )
                    .with_span(stmt.span)
                    .note(format!("coloring: {}", summarize(&analysis.coloring))),
                ),
                EffectVerdict::NotGuaranteed => {
                    let offending = analysis.offending();
                    let schema = analysis.coloring.schema();
                    let named = offending
                        .iter()
                        .map(|(item, set)| format!("{}{}", schema.item_name(*item), set))
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.push(
                        Diagnostic::new(
                            codes::POSSIBLY_ORDER_DEPENDENT,
                            format!("possibly order dependent: {named} is not simply colored"),
                        )
                        .with_span(stmt.span)
                        .note(format!("coloring: {}", summarize(&analysis.coloring)))
                        .note(
                            "Theorem 4.23 requires at most one color per schema item; \
                             a doubly-colored item admits order-dependent interleavings",
                        ),
                    );
                }
                EffectVerdict::TwoPhase => out.push(
                    Diagnostic::new(
                        codes::TWO_PHASE,
                        "set-oriented statement is two-phase: order independent by construction",
                    )
                    .with_span(stmt.span),
                ),
            }
        }
    }
}

/// One-line rendering of the nonempty entries of a coloring:
/// `Employee{d}, Salary{u}, …`.
fn summarize(coloring: &Coloring) -> String {
    let schema = coloring.schema();
    let parts: Vec<String> = schema
        .items()
        .filter_map(|item| {
            let set = coloring.get(item);
            (!set.is_empty()).then(|| format!("{}{}", schema.item_name(item), set))
        })
        .collect();
    if parts.is_empty() {
        "(empty)".to_owned()
    } else {
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use receivers_sql::catalog::employee_catalog;
    use receivers_sql::scenarios::CURSOR_DELETE_SIMPLE;

    use crate::PassManager;

    /// Qualifying the guard's column with the cursor variable keeps the
    /// simple delete's Theorem 4.23 certificate, coloring and all.
    #[test]
    fn cursor_qualified_guard_is_certified_like_the_plain_one() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        let certificate = |text: &str| {
            let report = pm.lint_source(text, &catalog);
            let found = report.with_code("R0101");
            assert_eq!(found.len(), 1, "{text}: {:#?}", report.diagnostics);
            (found[0].message.clone(), found[0].notes.clone())
        };
        assert_eq!(
            certificate(
                "for each t in Employee do if t.Salary in table Fire delete t from Employee"
            ),
            certificate(CURSOR_DELETE_SIMPLE)
        );
    }
}

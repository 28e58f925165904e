//! The Theorem 5.12 pass over cursor updates: exact (key-)order
//! independence verdicts and the Section 7 "code improvement tool" as a
//! machine-applicable suggestion (`R0001`/`R0103`/`R0104`/`R0301`).
//!
//! Where the coloring pass abstracts (and therefore over-warns — a cursor
//! update is *never* simply colored when its subquery reads the updated
//! column), this pass decides: it compiles the update to an algebraic
//! method and runs the decision procedure. A certified update also gets
//! the [`receivers_sql::improve_cursor_update`] rewrite attached as a
//! suggestion whose replacement text is the equivalent set-oriented
//! statement — [`strip_cursor_var`]'s rewrite, the statement the planner
//! runs an improved stage as. The pass manager suppresses the coloring
//! pass's `R0102` on any statement this pass certifies.

use receivers_sql::ast::{CursorBody, SqlStatement};
use receivers_sql::improve::{strip_cursor_var, ImproveRefusal};
use receivers_sql::{compile, improve_cursor_update, CompiledStatement, SpannedStatement};

use crate::diag::{codes, Diagnostic};
use crate::pass::{LintContext, ProgramPass};

/// The decision-procedure pass.
pub struct DecidePass;

impl ProgramPass for DecidePass {
    fn name(&self) -> &'static str {
        "decide"
    }

    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for stmt in program {
            let SqlStatement::ForEach {
                var,
                table,
                body:
                    CursorBody::UpdateSet {
                        condition: guard,
                        column,
                        select,
                    },
            } = &stmt.stmt
            else {
                continue;
            };
            if guard.is_some() {
                // Guarded cursor updates have no algebraic form (the guard
                // makes the replacement conditional); Theorem 5.12 does
                // not apply, so stay silent rather than over-warn.
                continue;
            }
            let Ok(CompiledStatement::CursorUpdate(cu)) = compile(&stmt.stmt, cx.catalog) else {
                continue; // the resolution pass reports the reason
            };
            match improve_cursor_update(&cu) {
                Err(_) => continue,
                Ok(Err(refusal @ ImproveRefusal::NotPositive)) => out.push(
                    Diagnostic::new(codes::NON_POSITIVE, refusal.describe(cx.catalog))
                        .with_span(stmt.span),
                ),
                Ok(Err(ImproveRefusal::OrderDependent { property })) => {
                    let mut d = Diagnostic::new(
                        codes::ORDER_DEPENDENT,
                        "order dependent: the Theorem 5.12 procedure refutes key-order \
                         independence of this cursor update",
                    )
                    .with_span(stmt.span);
                    if let Some(prop) = property {
                        let prop = cu.catalog().schema.prop_name(prop);
                        d = d.note(format!(
                            "the before/after update expressions differ on property `{prop}`: \
                             an earlier iteration's write changes a later iteration's read"
                        ));
                    }
                    d = d.note(
                        "no automatic set-oriented rewrite preserves an order-dependent \
                         semantics; restate the intent as a standalone UPDATE",
                    );
                    out.push(d);
                }
                Ok(Ok(_improved)) => {
                    out.push(
                        Diagnostic::new(
                            codes::CERTIFIED_KEY_ORDER,
                            "certified key-order independent by Theorem 5.12",
                        )
                        .with_span(stmt.span),
                    );
                    let rewrite = SqlStatement::Update {
                        table: table.clone(),
                        column: column.clone(),
                        select: strip_cursor_var(select, var),
                        condition: None,
                    }
                    .to_string();
                    out.push(
                        Diagnostic::new(
                            codes::REWRITABLE_UPDATE,
                            "this cursor update can be replaced by an equivalent set-oriented \
                             statement",
                        )
                        .with_span(stmt.span)
                        .with_suggestion(stmt.span, rewrite)
                        .note(
                            "Theorem 6.5: on a key set the sequential and parallel \
                             (set-oriented) applications coincide",
                        ),
                    );
                }
            }
        }
    }
}

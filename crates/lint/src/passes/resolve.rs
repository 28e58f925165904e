//! Name resolution as a lint: every table, column, and alias reference
//! checked against the catalog, with spans pointing at the offending
//! reference (`R0003`/`R0004`/`R0005`), every assignment's value column
//! checked against the class the assigned column holds (`R0002`, by
//! [`check_assignment`], the check `compile` applies), and every `IN
//! TABLE` table checked to be one column wide (`R0002`, as `compile`
//! refuses a wider one).
//!
//! The compiler (`receivers_sql::compile`) stops at the first unresolved
//! name; this pass walks the whole program with `receivers_sql::scope`'s
//! walker — the resolution rule `receivers_sql::eval` evaluates by — and
//! reports *all* of them, which is what makes the downstream passes safe
//! to skip statements that fail to compile. It adds one check the rule
//! does not need: an unqualified column that several `FROM` tables have
//! resolves to the outermost, but is reported (`R0004`) as ambiguous.

use receivers_objectbase::PropId;
use receivers_sql::ast::{FromItem, Projection};
use receivers_sql::catalog::{Catalog, TableInfo};
use receivers_sql::compile::check_assignment;
use receivers_sql::scope::{walk_condition, walk_select, Bound, Reference, Visitor};
use receivers_sql::{ColumnRef, Span, SpannedStatement, SqlError};

use crate::diag::{codes, Diagnostic};
use crate::pass::{LintContext, ProgramPass};

/// The name-resolution pass.
pub struct NameResolutionPass;

impl ProgramPass for NameResolutionPass {
    fn name(&self) -> &'static str {
        "resolve"
    }

    fn run(&self, program: &[SpannedStatement], cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for stmt in program {
            let (table, var, condition, update) = stmt.stmt.parts();
            let outer = cx.catalog.lookup(table).ok().map(|info| Bound {
                alias: Some(var),
                table: info,
            });
            let mut r = Resolver {
                catalog: cx.catalog,
                unbound_var: outer.is_none().then_some(var),
                out,
            };
            if outer.is_none() {
                r.unknown_table(format!("unknown table `{table}`"), stmt.span);
            }
            if let Some((column, select)) = update {
                if outer.is_some_and(|row| row.table.column_prop(column).is_none()) {
                    r.out.push(
                        Diagnostic::new(
                            codes::UNKNOWN_COLUMN,
                            format!("table `{table}` has no updatable column `{column}`"),
                        )
                        .with_span(stmt.span),
                    );
                }
                walk_select(select, outer, cx.catalog, &mut r);
                if let Some(row) = outer {
                    if let Err(e) =
                        check_assignment(cx.catalog, table, row.table, var, column, select)
                    {
                        let span = match &select.projection {
                            Projection::Column(value) => value.span,
                            Projection::Star => stmt.span,
                        };
                        r.out
                            .push(Diagnostic::new(codes::ILL_TYPED, e.to_string()).with_span(span));
                    }
                }
            }
            if let Some(c) = condition {
                walk_condition(c, outer, cx.catalog, &mut r);
            }
        }
    }
}

/// Reports what the [`receivers_sql::scope`] walker fails to resolve.
struct Resolver<'a> {
    catalog: &'a Catalog,
    /// The row's alias when the statement's table did not resolve:
    /// `R0003` already names the table, so qualifiers naming the row are
    /// not reported again.
    unbound_var: Option<&'a str>,
    out: &'a mut Vec<Diagnostic>,
}

impl Resolver<'_> {
    fn unknown_table(&mut self, message: String, span: Span) {
        let names: Vec<String> = self
            .catalog
            .tables()
            .map(|(n, _)| format!("`{n}`"))
            .collect();
        self.out.push(
            Diagnostic::new(codes::UNKNOWN_TABLE, message)
                .with_span(span)
                .note(format!("the catalog defines {}", names.join(", "))),
        );
    }
}

impl Visitor for Resolver<'_> {
    fn scan(&mut self, item: &FromItem, table: Result<&TableInfo, SqlError>) {
        if table.is_err() {
            self.unknown_table(format!("unknown table `{}`", item.table), item.span);
        }
    }

    fn column(&mut self, colref: &ColumnRef, reference: Result<Reference, SqlError>) {
        let message = match reference {
            Ok(r) if r.ambiguous => {
                format!("ambiguous column `{}`: qualify it", colref.column)
            }
            Ok(_) => return,
            Err(SqlError::UnknownAlias(q)) => {
                if Some(q.as_str()) == self.unbound_var {
                    return;
                }
                self.out.push(
                    Diagnostic::new(codes::UNKNOWN_ALIAS, format!("unknown alias `{q}`"))
                        .with_span(colref.span),
                );
                return;
            }
            Err(_) => match &colref.qualifier {
                Some(q) => format!("`{q}` has no column `{}`", colref.column),
                None => format!("no visible table has a column `{}`", colref.column),
            },
        };
        self.out
            .push(Diagnostic::new(codes::UNKNOWN_COLUMN, message).with_span(colref.span));
    }

    fn in_table(
        &mut self,
        colref: &ColumnRef,
        table: &str,
        column: Result<(&TableInfo, PropId), SqlError>,
    ) {
        match column {
            Ok(_) => {}
            Err(SqlError::UnknownTable(_)) => self.unknown_table(
                format!("unknown table `{table}` in `IN TABLE`"),
                colref.span,
            ),
            // A table wider than one column: `compile` refuses it too.
            Err(e) => self
                .out
                .push(Diagnostic::new(codes::ILL_TYPED, e.to_string()).with_span(colref.span)),
        }
    }
}

#[cfg(test)]
mod tests {
    use receivers_sql::catalog::employee_catalog;

    use crate::PassManager;

    /// An `IN TABLE` table wider than one column is an `R0002` at the
    /// reference, as `compile` refuses it.
    #[test]
    fn a_wide_in_table_is_ill_typed_at_the_reference() {
        let (_es, catalog) = employee_catalog();
        let text = "delete from Employee where Salary in table NewSal";
        let report = PassManager::with_default_passes().lint_source(text, &catalog);
        let ill_typed = report.with_code("R0002");
        assert_eq!(ill_typed.len(), 1, "{:#?}", report.diagnostics);
        assert!(ill_typed[0].message.contains("requires a one-column table"));
        let span = ill_typed[0].span.expect("spanned");
        assert_eq!(&text[span.start..span.end], "Salary");
    }

    /// A nested `FROM` that reuses an alias shadows the outer one, as in
    /// `receivers_sql::eval`: `E.Old` is NewSal's `Old`, in the set and
    /// cursor forms alike.
    #[test]
    fn reused_alias_resolves_to_the_inner_binding() {
        let (_es, catalog) = employee_catalog();
        let pm = PassManager::with_default_passes();
        for text in [
            "delete from Employee where exists (select * from Employee E \
             where exists (select * from NewSal E where E.Old = Salary))",
            "for each t in Employee do if exists (select * from Employee E \
             where exists (select * from NewSal E where E.Old = Salary)) \
             delete t from Employee",
        ] {
            let report = pm.lint_source(text, &catalog);
            assert!(
                report.with_code("R0004").is_empty(),
                "{text}: {:#?}",
                report.diagnostics
            );
        }
    }
}

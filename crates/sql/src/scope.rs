//! Name resolution: the one rule that maps a column reference to the
//! binding it reads.
//!
//! Section 7 reads an unqualified `Salary` or `Manager` inside a nested
//! subquery as a column of the cursor tuple. Every consumer of a column
//! reference asks [`resolve`] here — the interpreter
//! ([`mod@crate::eval`]), the relational compiler
//! ([`mod@crate::compile`]), the solver ([`crate::sat`]), the planner's
//! read sets, the coloring analysis ([`crate::analyze`]) and the lint
//! layer's name-resolution pass — over a scope stack laid out the way
//! `eval` binds it: the statement's row first, then the `FROM` bindings
//! of the enclosing subqueries and of the current one, outermost first.
//!
//! * A qualified name `A.c` reads the innermost binding aliased `A`: a
//!   `FROM` alias shadows the cursor variable and any outer alias of the
//!   same name.
//! * An unqualified name `c` reads the outermost binding whose table has
//!   the column: the row when it has `c`, else the outermost `FROM`
//!   table that does.
//!
//! [`walk_condition`] and [`walk_select`] push and pop the `FROM` scopes
//! of a condition or subquery and report each column reference, `FROM`
//! table and `IN TABLE` table to a [`Visitor`].

use receivers_objectbase::PropId;

use crate::ast::{ColumnRef, Condition, FromItem, Projection, Select};
use crate::catalog::{Catalog, TableInfo};
use crate::error::{Result, SqlError};

/// One binding of a scope stack.
pub trait Scope {
    /// The name a qualified reference uses for the binding; `None` for a
    /// row no qualifier can name.
    fn alias(&self) -> Option<&str>;
    /// The binding's table.
    fn table(&self) -> &TableInfo;
}

/// A binding by name alone, for the callers that resolve without
/// binding tuples.
#[derive(Debug, Clone, Copy)]
pub struct Bound<'a> {
    /// See [`Scope::alias`].
    pub alias: Option<&'a str>,
    /// See [`Scope::table`].
    pub table: &'a TableInfo,
}

impl Scope for Bound<'_> {
    fn alias(&self) -> Option<&str> {
        self.alias
    }

    fn table(&self) -> &TableInfo {
        self.table
    }
}

/// Which column of its binding's table a reference reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Column {
    /// The identity column: the tuple itself.
    Id,
    /// A data column: the tuple's successors along the property.
    Prop(PropId),
}

/// Where a column reference resolved: the index of its binding in the
/// scope stack, and the column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// Index into the scope stack (0 is the outermost binding).
    pub scope: usize,
    /// The column of that binding's table.
    pub column: Column,
}

/// Resolve `colref` against `scopes` (outermost first) by the rule in the
/// [module docs](self). Fails with [`SqlError::UnknownAlias`] when no
/// binding carries the qualifier, and with [`SqlError::UnknownColumn`]
/// when the chosen binding's table (or, unqualified, no binding's table)
/// has the column. Allocates only to report a failure.
pub fn resolve<S: Scope>(colref: &ColumnRef, scopes: &[S]) -> Result<Resolved> {
    let name = colref.column.as_str();
    match &colref.qualifier {
        Some(q) => {
            let scope = scopes
                .iter()
                .rposition(|s| s.alias() == Some(q.as_str()))
                .ok_or_else(|| SqlError::UnknownAlias(q.clone()))?;
            let column =
                column_of(scopes[scope].table(), name).ok_or_else(|| SqlError::UnknownColumn {
                    column: colref.column.clone(),
                    scope: q.clone(),
                })?;
            Ok(Resolved { scope, column })
        }
        None => scopes
            .iter()
            .enumerate()
            .find_map(|(scope, s)| {
                column_of(s.table(), name).map(|column| Resolved { scope, column })
            })
            .ok_or_else(|| SqlError::UnknownColumn {
                column: colref.column.clone(),
                scope: "any visible table".to_owned(),
            }),
    }
}

fn column_of(table: &TableInfo, name: &str) -> Option<Column> {
    if table.id_column == name {
        Some(Column::Id)
    } else {
        table.column_prop(name).map(Column::Prop)
    }
}

/// A column reference as [`walk_condition`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// The column read.
    pub column: Column,
    /// Unqualified, not on the row, and some inner `FROM` table has the
    /// column too: the outermost one was taken, but a reader may mean
    /// another.
    pub ambiguous: bool,
}

/// What [`walk_condition`] and [`walk_select`] report, in source order:
/// a subquery's `FROM` entries, then its `WHERE`, then its projection.
pub trait Visitor {
    /// A `FROM` entry and its catalog entry. An unknown table binds
    /// nothing, so references through its alias fail to resolve.
    fn scan(&mut self, item: &FromItem, table: Result<&TableInfo>);
    /// A column reference and what it reads.
    fn column(&mut self, colref: &ColumnRef, reference: Result<Reference>);
    /// The table of `c [NOT] IN TABLE T` (after `c` itself), with its one
    /// column as [`Catalog::single_column`] finds it.
    fn in_table(&mut self, colref: &ColumnRef, table: &str, column: Result<(&TableInfo, PropId)>);
}

/// Walk `cond` with the statement's row bound as `row` (`None` when the
/// row's table did not resolve), reporting to `visitor`.
pub fn walk_condition<'a>(
    cond: &'a Condition,
    row: Option<Bound<'a>>,
    catalog: &'a Catalog,
    visitor: &mut impl Visitor,
) {
    Walker::new(row, catalog, visitor).condition(cond);
}

/// Walk the subquery `select` like [`walk_condition`].
pub fn walk_select<'a>(
    select: &'a Select,
    row: Option<Bound<'a>>,
    catalog: &'a Catalog,
    visitor: &mut impl Visitor,
) {
    Walker::new(row, catalog, visitor).select(select);
}

struct Walker<'a, 'v, V> {
    catalog: &'a Catalog,
    scopes: Vec<Bound<'a>>,
    /// How many leading scopes are the row (0 or 1).
    rows: usize,
    visitor: &'v mut V,
}

impl<'a, 'v, V: Visitor> Walker<'a, 'v, V> {
    fn new(row: Option<Bound<'a>>, catalog: &'a Catalog, visitor: &'v mut V) -> Self {
        let scopes: Vec<Bound<'a>> = row.into_iter().collect();
        Self {
            catalog,
            rows: scopes.len(),
            scopes,
            visitor,
        }
    }

    fn condition(&mut self, cond: &'a Condition) {
        match cond {
            Condition::Eq(a, b) | Condition::NotEq(a, b) => {
                self.column(a);
                self.column(b);
            }
            Condition::InTable(c, table) | Condition::NotInTable(c, table) => {
                self.column(c);
                let column = self.catalog.single_column(table);
                self.visitor.in_table(c, table, column);
            }
            Condition::Exists(select) => self.select(select),
            Condition::And(a, b) => {
                self.condition(a);
                self.condition(b);
            }
        }
    }

    fn select(&mut self, select: &'a Select) {
        let depth = self.scopes.len();
        for item in &select.from {
            let table = self.catalog.lookup(&item.table);
            if let Ok(table) = table {
                self.scopes.push(Bound {
                    alias: Some(item.name()),
                    table,
                });
            }
            self.visitor.scan(item, table);
        }
        if let Some(w) = &select.where_clause {
            self.condition(w);
        }
        if let Projection::Column(c) = &select.projection {
            self.column(c);
        }
        self.scopes.truncate(depth);
    }

    fn column(&mut self, colref: &ColumnRef) {
        let reference = resolve(colref, &self.scopes).map(|r| Reference {
            column: r.column,
            ambiguous: colref.qualifier.is_none()
                && r.scope >= self.rows
                && self.scopes[r.scope + 1..]
                    .iter()
                    .any(|s| column_of(s.table, &colref.column).is_some()),
        });
        self.visitor.column(colref, reference);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::employee_catalog;

    fn col(qualifier: Option<&str>, column: &str) -> ColumnRef {
        ColumnRef {
            qualifier: qualifier.map(str::to_owned),
            ..ColumnRef::bare(column)
        }
    }

    /// Expected bindings written out by hand: each case names the scope
    /// index and column the rule must pick over one fixed stack.
    #[test]
    fn hand_written_resolution_table() {
        let (es, catalog) = employee_catalog();
        let employee = catalog.lookup("Employee").unwrap();
        let newsal = catalog.lookup("NewSal").unwrap();
        let fire = catalog.lookup("Fire").unwrap();
        // for each t in Employee … exists (select * from Employee E, NewSal N
        //   where exists (select * from NewSal E, Fire t, NewSal M where …))
        let scopes = [
            Bound {
                alias: Some("t"),
                table: employee,
            }, // 0: the row
            Bound {
                alias: Some("E"),
                table: employee,
            }, // 1
            Bound {
                alias: Some("N"),
                table: newsal,
            }, // 2
            Bound {
                alias: Some("E"),
                table: newsal,
            }, // 3: reuses `E`
            Bound {
                alias: Some("t"),
                table: fire,
            }, // 4: shadows `t`
            Bound {
                alias: Some("M"),
                table: newsal,
            }, // 5
        ];
        let id = |scope| {
            Ok(Resolved {
                scope,
                column: Column::Id,
            })
        };
        let prop = |scope, p| {
            Ok(Resolved {
                scope,
                column: Column::Prop(p),
            })
        };
        let cases = [
            // The innermost alias wins.
            (col(Some("E"), "Old"), prop(3, es.old)),
            (col(Some("E"), "NewSalId"), id(3)),
            (
                col(Some("E"), "Salary"),
                Err(SqlError::UnknownColumn {
                    column: "Salary".to_owned(),
                    scope: "E".to_owned(),
                }),
            ),
            // A `FROM` alias shadows the cursor variable.
            (col(Some("t"), "Amount"), prop(4, es.fire_amount)),
            (
                col(Some("t"), "Salary"),
                Err(SqlError::UnknownColumn {
                    column: "Salary".to_owned(),
                    scope: "t".to_owned(),
                }),
            ),
            // Unqualified: the row first, then the outermost `FROM`.
            (col(None, "Salary"), prop(0, es.salary)),
            (col(None, "Manager"), prop(0, es.manager)),
            (col(None, "Old"), prop(2, es.old)),
            (col(None, "Amount"), prop(4, es.fire_amount)),
            // Ambiguous among N, E and M: the outermost, N, is taken.
            (col(None, "New"), prop(2, es.new)),
            // The identity column.
            (col(None, "EmpId"), id(0)),
            (col(Some("N"), "NewSalId"), id(2)),
            // Unknown alias and unknown column.
            (
                col(Some("X"), "Salary"),
                Err(SqlError::UnknownAlias("X".to_owned())),
            ),
            (
                col(None, "Bogus"),
                Err(SqlError::UnknownColumn {
                    column: "Bogus".to_owned(),
                    scope: "any visible table".to_owned(),
                }),
            ),
        ];
        for (colref, want) in cases {
            assert_eq!(resolve(&colref, &scopes), want, "{colref}");
        }
        // A row no qualifier can name (the lint layer's set statements).
        let unnamed = [Bound {
            alias: None,
            table: employee,
        }];
        assert_eq!(resolve(&col(None, "Salary"), &unnamed), prop(0, es.salary));
        assert_eq!(
            resolve(&col(Some("t"), "Salary"), &unnamed),
            Err(SqlError::UnknownAlias("t".to_owned()))
        );
    }
}

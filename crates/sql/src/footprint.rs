//! Read/write footprints of statements, for the planner's netting pass
//! and selector cache, the flow-sensitive lints (dead assignments,
//! unused tables) and the commutativity certificates of [`crate::sat`].
//!
//! A footprint is read off the statement itself: its guard and value
//! subquery are walked with [`crate::scope`]'s walker, the row bound as
//! it runs (the cursor variable, `t` for a set statement), so names
//! resolve by the rule [`mod@crate::eval`] evaluates by. The walk is
//! *tolerant*: a reference that does not resolve reads nothing, because
//! the lint layer's name-resolution pass reports it with a span and
//! [`mod@crate::compile`] refuses the statement.

use std::collections::BTreeSet;

use receivers_objectbase::PropId;

use crate::ast::{ColumnRef, Condition, FromItem, SqlStatement};
use crate::catalog::{Catalog, TableInfo};
use crate::error::Result;
use crate::scope::{walk_condition, walk_select, Bound, Column, Reference, Visitor};

/// What a statement writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Write {
    /// Tuples of `table` get their `column` (property `prop`) replaced —
    /// *all* tuples when the statement is unguarded, only the tuples
    /// satisfying [`Footprint::guard`] otherwise.
    Update {
        /// Target table name.
        table: String,
        /// Updated column name.
        column: String,
        /// The property behind the column.
        prop: PropId,
    },
    /// Tuples of `table` are deleted.
    Delete {
        /// Target table name.
        table: String,
    },
}

/// The resolved footprint of one statement.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Properties read (condition, subquery, and projection references).
    pub reads: BTreeSet<PropId>,
    /// Table names referenced anywhere (target, `FROM`, `IN TABLE`).
    pub tables: BTreeSet<String>,
    /// What the statement writes, when its target table resolves.
    pub write: Option<Write>,
    /// The condition restricting which rows the write touches: a delete's
    /// `WHERE`/`IF` condition, or a guarded update's guard. `None` means
    /// the write is unconditional (every row of the target table).
    pub guard: Option<Condition>,
}

/// The properties and table names a condition or subquery reads, as the
/// [`crate::scope`] walker reports them; a reference that does not
/// resolve reads nothing.
#[derive(Default)]
struct Reads {
    props: BTreeSet<PropId>,
    tables: BTreeSet<String>,
}

impl Visitor for Reads {
    fn scan(&mut self, item: &FromItem, _table: Result<&TableInfo>) {
        self.tables.insert(item.table.clone());
    }

    fn column(&mut self, _colref: &ColumnRef, reference: Result<Reference>) {
        if let Ok(Reference {
            column: Column::Prop(prop),
            ..
        }) = reference
        {
            self.props.insert(prop);
        }
    }

    fn in_table(&mut self, _colref: &ColumnRef, table: &str, column: Result<(&TableInfo, PropId)>) {
        self.tables.insert(table.to_owned());
        if let Ok((_, prop)) = column {
            self.props.insert(prop);
        }
    }
}

/// The statement's row as a scope binding, when its table resolves.
fn row_of<'a>(stmt: &'a SqlStatement, catalog: &'a Catalog) -> Option<Bound<'a>> {
    let (table, row, ..) = stmt.parts();
    catalog.lookup(table).ok().map(|table| Bound {
        alias: Some(row),
        table,
    })
}

/// Compute the footprint of a statement against a catalog.
pub fn footprint(stmt: &SqlStatement, catalog: &Catalog) -> Footprint {
    let (table, _, guard, update) = stmt.parts();
    let row = row_of(stmt, catalog);
    let mut reads = Reads::default();
    if let Some(cond) = guard {
        walk_condition(cond, row, catalog, &mut reads);
    }
    let write = match update {
        Some((column, select)) => {
            walk_select(select, row, catalog, &mut reads);
            row.and_then(|row| row.table.column_prop(column))
                .map(|prop| Write::Update {
                    table: table.to_owned(),
                    column: column.to_owned(),
                    prop,
                })
        }
        None => Some(Write::Delete {
            table: table.to_owned(),
        }),
    };
    reads.tables.insert(table.to_owned());
    Footprint {
        reads: reads.props,
        tables: reads.tables,
        write,
        guard: guard.cloned(),
    }
}

/// The properties the statement's guard reads: what decides which rows
/// its write touches. Empty for an unguarded statement.
pub(crate) fn guard_reads(stmt: &SqlStatement, catalog: &Catalog) -> BTreeSet<PropId> {
    let mut reads = Reads::default();
    if let (_, _, Some(cond), _) = stmt.parts() {
        walk_condition(cond, row_of(stmt, catalog), catalog, &mut reads);
    }
    reads.props
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::employee_catalog;
    use crate::parser::parse;
    use crate::scenarios::{CURSOR_DELETE_SIMPLE, CURSOR_UPDATE_B, UPDATE_A};

    #[test]
    fn update_b_reads_and_writes_salary() {
        let (es, catalog) = employee_catalog();
        let fp = footprint(&parse(CURSOR_UPDATE_B).unwrap(), &catalog);
        assert!(fp.reads.contains(&es.salary), "Old = Salary reads Salary");
        assert!(fp.reads.contains(&es.old) && fp.reads.contains(&es.new));
        assert_eq!(
            fp.write,
            Some(Write::Update {
                table: "Employee".to_owned(),
                column: "Salary".to_owned(),
                prop: es.salary,
            })
        );
        assert!(fp.guard.is_none());
        assert!(fp.tables.contains("Employee") && fp.tables.contains("NewSal"));
        assert!(!fp.tables.contains("Fire"));
    }

    #[test]
    fn deletes_record_the_victim_table_and_in_table_reads() {
        let (es, catalog) = employee_catalog();
        let fp = footprint(&parse(CURSOR_DELETE_SIMPLE).unwrap(), &catalog);
        assert_eq!(
            fp.write,
            Some(Write::Delete {
                table: "Employee".to_owned()
            })
        );
        assert!(fp.reads.contains(&es.salary));
        assert!(fp.reads.contains(&es.fire_amount), "IN TABLE Fire reads it");
        assert!(fp.tables.contains("Fire"));
        assert!(fp.guard.is_some());
    }

    #[test]
    fn set_update_matches_cursor_update_footprint() {
        let (_es, catalog) = employee_catalog();
        let a = footprint(&parse(UPDATE_A).unwrap(), &catalog);
        let b = footprint(&parse(CURSOR_UPDATE_B).unwrap(), &catalog);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.write, b.write);
    }

    /// A nested `FROM` that reuses an alias shadows the outer one: the
    /// reads are the row's `Salary` and the inner NewSal's `Old`.
    #[test]
    fn reused_alias_reads_the_inner_binding() {
        let (es, catalog) = employee_catalog();
        for text in [
            "delete from Employee where exists (select * from Employee E \
             where exists (select * from NewSal E where E.Old = Salary))",
            "for each t in Employee do if exists (select * from Employee E \
             where exists (select * from NewSal E where E.Old = Salary)) \
             delete t from Employee",
        ] {
            let fp = footprint(&parse(text).unwrap(), &catalog);
            assert_eq!(fp.reads, BTreeSet::from([es.salary, es.old]), "{text}");
        }
    }

    #[test]
    fn guarded_update_records_its_guard_and_guard_reads() {
        let (es, catalog) = employee_catalog();
        let stmt = parse(
            "update Employee set Salary = (select New from NewSal where Old = Salary) \
             where Manager <> EmpId and Salary not in table Fire",
        )
        .unwrap();
        let fp = footprint(&stmt, &catalog);
        assert!(fp.guard.is_some());
        assert!(fp.reads.contains(&es.manager), "guard reads Manager");
        assert!(
            fp.reads.contains(&es.fire_amount),
            "NOT IN TABLE reads Fire"
        );
        assert!(fp.tables.contains("Fire"));
    }
}

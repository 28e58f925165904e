//! Read/write footprints of statements, for the flow-sensitive lints
//! (dead assignments, unused tables) and the commutativity certificates
//! of [`crate::sat`].
//!
//! Footprints are read off the planner's expression DAG
//! ([`crate::plan::statement_dag`] + [`crate::plan::footprint_of`]): the
//! statement is lowered tolerantly — references that do not resolve are
//! simply skipped, because the lint layer's name-resolution pass already
//! reports them with proper spans — and the reads, table references,
//! write, and guard are collected node-by-node. Name resolution mirrors
//! [`mod@crate::compile`]: unqualified columns prefer the loop/target table,
//! then the visible `FROM` tables.

use std::collections::BTreeSet;

use receivers_objectbase::PropId;

use crate::ast::{Condition, SqlStatement};
use crate::catalog::Catalog;

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

/// Compute the footprint of a statement against a catalog, by lowering
/// it into a standalone expression DAG and reading the footprint off the
/// nodes.
pub fn footprint(stmt: &SqlStatement, catalog: &Catalog) -> Footprint {
    let (graph, root) = crate::plan::statement_dag(stmt, catalog);
    crate::plan::footprint_of(&graph, root, catalog)
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

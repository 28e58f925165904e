//! Coloring/effect analysis of compiled statements (Section 7's use of
//! Theorem 4.23), generalized from cursor deletes to every statement kind.
//!
//! The paper analyses the relational setting with a *tuple-atomicity*
//! convention: a tuple is one object whose attributes travel with it, so
//!
//! * deleting tuples of `R` colors the class `R` with `d` — the cascade
//!   removal of the tuple's own attribute edges is an "automatic
//!   deletion" (remark after Lemma 4.11) and does **not** color the
//!   attribute properties `d`;
//! * replacing a tuple's attribute `A` (a cursor or set update) colors the
//!   property `A` with `c` and `d` — old edges go, new edges come;
//! * reading the *cursor tuple's own* attribute `t.A` colors the
//!   property `A` and its value class `u`, but not the class `R` (one is
//!   inspecting the tuple at hand, not the extent);
//! * reading `R`'s *extent* — via `EXISTS (SELECT … FROM R …)` or any
//!   other-table access — colors that table's class `u`, together with
//!   every property and value class it touches.
//!
//! Under this convention the paper's verdicts fall out: the simple delete
//! gives `Employee{d}, Salary{u}, Fire{u}, Amount{u}` — **simple**, hence
//! order independent by Theorem 4.23 — while the manager-based delete
//! colors `Employee{d,u}`, which is not simple, and indeed that statement
//! is order dependent. Cursor updates color the updated property `{c,d}`
//! (never simple — the coloring abstraction cannot certify them; the
//! finer Theorem 5.12 analysis in [`crate::improve`] can). Set-oriented
//! statements get the same footprint coloring but are **two-phase** —
//! order independent by construction, whatever their coloring.

use receivers_coloring::{Color, ColorSet, Coloring};
use receivers_objectbase::{PropId, SchemaItem};

use crate::ast::{ColumnRef, Condition, FromItem, Select, SET_ROW};
use crate::catalog::{Catalog, TableInfo};
use crate::compile::{CompiledStatement, CursorDelete};
use crate::error::{Result, SqlError};
use crate::scope::{walk_condition, walk_select, Bound, Column, Reference, Visitor};

/// The analysis result for a cursor delete (kept for compatibility; the
/// general entry point is [`analyze_statement`]).
#[derive(Debug)]
pub struct DeleteAnalysis {
    /// The derived coloring (under the tuple-atomicity convention).
    pub coloring: Coloring,
    /// Whether it is simple.
    pub simple: bool,
    /// The verdict implied by Theorem 4.23.
    pub verdict: DeleteVerdict,
}

/// What the coloring analysis concludes for a cursor delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteVerdict {
    /// Simple coloring: order independence is guaranteed (Theorem 4.23).
    OrderIndependent,
    /// Non-simple coloring: no guarantee; some method with this coloring
    /// is order dependent (and for the Section 7 examples, this one is).
    NotGuaranteed,
}

/// What the generalized effect analysis concludes about a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectVerdict {
    /// Per-tuple statement with a simple coloring: order independent by
    /// Theorem 4.23.
    CertifiedSimple,
    /// Per-tuple statement with a doubly-colored item: Theorem 4.23 gives
    /// no guarantee (and some method with this coloring is dependent).
    NotGuaranteed,
    /// Set-oriented statement: two-phase (identify, then apply), order
    /// independent by construction regardless of its coloring.
    TwoPhase,
}

/// The generalized analysis result.
#[derive(Debug)]
pub struct EffectAnalysis {
    /// The derived coloring (under the tuple-atomicity convention).
    pub coloring: Coloring,
    /// Whether the coloring is simple.
    pub simple: bool,
    /// The verdict.
    pub verdict: EffectVerdict,
}

impl EffectAnalysis {
    /// The items carrying more than one color — the witnesses that break
    /// simplicity, e.g. `Employee{d,u}` for the manager-based delete.
    pub fn offending(&self) -> Vec<(SchemaItem, ColorSet)> {
        self.coloring
            .schema()
            .items()
            .map(|item| (item, self.coloring.get(item)))
            .filter(|(_, set)| set.len() >= 2)
            .collect()
    }
}

/// Analyse any compiled statement. A cursor statement's row is named by
/// its cursor variable, a set statement's by [`SET_ROW`].
pub fn analyze_statement(stmt: &CompiledStatement) -> Result<EffectAnalysis> {
    match stmt {
        CompiledStatement::SetDelete(sd) => {
            let mut coloring = delete_coloring(sd.catalog(), sd.table(), SET_ROW, sd.condition())?;
            finish(&mut coloring, EffectVerdict::TwoPhase)
        }
        CompiledStatement::CursorDelete(cd) => {
            let mut coloring =
                delete_coloring(cd.catalog(), cd.table(), &cd.var, cd.condition.as_ref())?;
            finish_per_tuple(&mut coloring)
        }
        CompiledStatement::SetUpdate(su) => {
            let mut coloring = update_coloring(
                su.catalog(),
                su.table(),
                SET_ROW,
                su.property,
                su.select(),
                su.condition.as_ref(),
            )?;
            finish(&mut coloring, EffectVerdict::TwoPhase)
        }
        CompiledStatement::CursorUpdate(cu) => {
            let mut coloring = update_coloring(
                cu.catalog(),
                cu.table(),
                &cu.var,
                cu.property,
                cu.select(),
                cu.condition.as_ref(),
            )?;
            finish_per_tuple(&mut coloring)
        }
    }
}

/// Analyse a compiled cursor delete (compatibility wrapper around
/// [`analyze_statement`]'s cursor-delete case).
pub fn analyze_cursor_delete(delete: &CursorDelete) -> Result<DeleteAnalysis> {
    let mut coloring = delete_coloring(
        delete.catalog(),
        delete.table(),
        &delete.var,
        delete.condition.as_ref(),
    )?;
    let analysis = finish_per_tuple(&mut coloring)?;
    Ok(DeleteAnalysis {
        simple: analysis.simple,
        verdict: if analysis.simple {
            DeleteVerdict::OrderIndependent
        } else {
            DeleteVerdict::NotGuaranteed
        },
        coloring: analysis.coloring,
    })
}

fn finish(coloring: &mut Coloring, verdict: EffectVerdict) -> Result<EffectAnalysis> {
    let simple = coloring.is_simple();
    Ok(EffectAnalysis {
        simple,
        verdict,
        coloring: coloring.clone(),
    })
}

fn finish_per_tuple(coloring: &mut Coloring) -> Result<EffectAnalysis> {
    let simple = coloring.is_simple();
    finish(
        coloring,
        if simple {
            EffectVerdict::CertifiedSimple
        } else {
            EffectVerdict::NotGuaranteed
        },
    )
}

/// Coloring of a delete (cursor or set) with the row named `var`: the
/// target class is `d`, the condition's reads are `u`.
fn delete_coloring(
    catalog: &Catalog,
    table: &TableInfo,
    var: &str,
    condition: Option<&Condition>,
) -> Result<Coloring> {
    let mut uses = Uses::new(catalog);
    uses.coloring.add(SchemaItem::Class(table.class), Color::D);
    if let Some(cond) = condition {
        let row = Bound {
            alias: Some(var),
            table,
        };
        walk_condition(cond, Some(row), catalog, &mut uses);
    }
    uses.finish()
}

/// Coloring of an update (cursor or set) with the row named `var`:
/// replacing the tuple's `property`-edges colors the property `c` and
/// `d`; the value subquery's reads are `u`.
fn update_coloring(
    catalog: &Catalog,
    table: &TableInfo,
    var: &str,
    property: receivers_objectbase::PropId,
    select: &Select,
    condition: Option<&Condition>,
) -> Result<Coloring> {
    let row = Bound {
        alias: Some(var),
        table,
    };
    let mut uses = Uses::new(catalog);
    uses.coloring.add(SchemaItem::Prop(property), Color::C);
    uses.coloring.add(SchemaItem::Prop(property), Color::D);
    walk_select(select, Some(row), catalog, &mut uses);
    if let Some(cond) = condition {
        walk_condition(cond, Some(row), catalog, &mut uses);
    }
    uses.finish()
}

/// Colors everything a condition or subquery reads `u`, as the
/// [`crate::scope`] walker reports it; the first reference that fails to
/// resolve fails the analysis.
struct Uses<'a> {
    catalog: &'a Catalog,
    coloring: Coloring,
    error: Option<SqlError>,
}

impl<'a> Uses<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            coloring: Coloring::empty(std::sync::Arc::clone(&catalog.schema)),
            error: None,
        }
    }

    fn finish(self) -> Result<Coloring> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.coloring),
        }
    }

    fn fail(&mut self, e: SqlError) {
        self.error.get_or_insert(e);
    }

    fn use_class(&mut self, class: receivers_objectbase::ClassId) {
        self.coloring.add(SchemaItem::Class(class), Color::U);
    }

    fn use_prop(&mut self, prop: PropId) {
        self.coloring.add(SchemaItem::Prop(prop), Color::U);
        // The value class is used along with the property.
        let dst = self.catalog.schema.property(prop).dst;
        self.use_class(dst);
    }
}

impl Visitor for Uses<'_> {
    fn scan(&mut self, _item: &FromItem, table: Result<&TableInfo>) {
        // Scanning a table's extent uses its class.
        match table {
            Ok(info) => self.use_class(info.class),
            Err(e) => self.fail(e),
        }
    }

    fn column(&mut self, _colref: &ColumnRef, reference: Result<Reference>) {
        match reference {
            Ok(Reference {
                column: Column::Prop(prop),
                ..
            }) => self.use_prop(prop),
            // Identity columns use nothing beyond the tuple binding itself.
            Ok(_) => {}
            Err(e) => self.fail(e),
        }
    }

    fn in_table(
        &mut self,
        _colref: &ColumnRef,
        _table: &str,
        column: Result<(&TableInfo, PropId)>,
    ) {
        match column {
            Ok((info, prop)) => {
                self.use_class(info.class);
                self.use_prop(prop);
            }
            Err(e) => self.fail(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::employee_catalog;
    use crate::compile::{compile, CompiledStatement};
    use crate::parser::parse;
    use crate::scenarios::{
        CURSOR_DELETE_MANAGER, CURSOR_DELETE_SIMPLE, CURSOR_UPDATE_B, DELETE_MANAGER, UPDATE_A,
    };
    use receivers_coloring::ColorSet;

    fn analyze(
        text: &str,
    ) -> (
        receivers_objectbase::examples::EmployeeSchema,
        DeleteAnalysis,
    ) {
        let (es, catalog) = employee_catalog();
        let stmt = parse(text).unwrap();
        let CompiledStatement::CursorDelete(cd) = compile(&stmt, &catalog).unwrap() else {
            panic!("expected cursor delete")
        };
        (es, analyze_cursor_delete(&cd).unwrap())
    }

    fn analyze_any(
        text: &str,
    ) -> (
        receivers_objectbase::examples::EmployeeSchema,
        EffectAnalysis,
    ) {
        let (es, catalog) = employee_catalog();
        let stmt = parse(text).unwrap();
        let compiled = compile(&stmt, &catalog).unwrap();
        (es, analyze_statement(&compiled).unwrap())
    }

    /// The paper's first delete: Employee{d}, Salary/Fire/Amount{u} —
    /// simple, hence order independent by Theorem 4.23.
    #[test]
    fn simple_delete_has_simple_coloring() {
        let (es, a) = analyze(CURSOR_DELETE_SIMPLE);
        assert!(a.simple);
        assert_eq!(a.verdict, DeleteVerdict::OrderIndependent);
        assert_eq!(
            a.coloring.get(SchemaItem::Class(es.employee)),
            ColorSet::ONLY_D
        );
        assert_eq!(
            a.coloring.get(SchemaItem::Prop(es.salary)),
            ColorSet::ONLY_U
        );
        assert_eq!(a.coloring.get(SchemaItem::Class(es.fire)), ColorSet::ONLY_U);
        assert_eq!(
            a.coloring.get(SchemaItem::Class(es.amount)),
            ColorSet::ONLY_U
        );
    }

    /// The manager-based delete: Employee is both deleted from and used
    /// (the EXISTS scans Employee) — the double color means Theorem 4.23
    /// gives no guarantee, and indeed the statement is order dependent.
    #[test]
    fn manager_delete_has_double_color() {
        let (es, a) = analyze(CURSOR_DELETE_MANAGER);
        assert!(!a.simple);
        assert_eq!(a.verdict, DeleteVerdict::NotGuaranteed);
        let emp = a.coloring.get(SchemaItem::Class(es.employee));
        assert!(emp.contains(Color::D) && emp.contains(Color::U));
    }

    /// Cursor update (B): Salary replaced ({c,d}) and read by the
    /// subquery ({u}) — triply colored, never certifiable by coloring.
    #[test]
    fn cursor_update_is_never_simple() {
        let (es, a) = analyze_any(CURSOR_UPDATE_B);
        assert!(!a.simple);
        assert_eq!(a.verdict, EffectVerdict::NotGuaranteed);
        let sal = a.coloring.get(SchemaItem::Prop(es.salary));
        assert!(sal.contains(Color::C) && sal.contains(Color::D) && sal.contains(Color::U));
        assert!(a
            .offending()
            .iter()
            .any(|(item, _)| *item == SchemaItem::Prop(es.salary)));
    }

    /// Set-oriented statements are two-phase regardless of coloring.
    #[test]
    fn set_statements_are_two_phase() {
        let (_es, a) = analyze_any(UPDATE_A);
        assert_eq!(a.verdict, EffectVerdict::TwoPhase);
        let (es, a) = analyze_any(DELETE_MANAGER);
        assert_eq!(a.verdict, EffectVerdict::TwoPhase);
        // Its footprint still shows the double color that dooms the
        // cursor version.
        let emp = a.coloring.get(SchemaItem::Class(es.employee));
        assert!(emp.contains(Color::D) && emp.contains(Color::U));
    }

    /// Qualifying the guard's column with the cursor variable reads the
    /// same column: the coloring is the unqualified form's.
    #[test]
    fn cursor_qualified_guard_keeps_its_coloring() {
        let (_es, qualified) = analyze_any(
            "for each t in Employee do if t.Salary in table Fire delete t from Employee",
        );
        let (_es, plain) = analyze_any(CURSOR_DELETE_SIMPLE);
        assert_eq!(qualified.verdict, EffectVerdict::CertifiedSimple);
        assert_eq!(qualified.coloring.to_string(), plain.coloring.to_string());
    }

    /// A nested `FROM` that reuses an alias shadows the outer one, as in
    /// `sql::eval`: `E.Old` is NewSal's `Old`, in the set and cursor forms.
    #[test]
    fn reused_alias_reads_the_inner_binding() {
        for text in [
            "delete from Employee where exists (select * from Employee E \
             where exists (select * from NewSal E where E.Old = Salary))",
            "for each t in Employee do if exists (select * from Employee E \
             where exists (select * from NewSal E where E.Old = Salary)) \
             delete t from Employee",
        ] {
            let (es, a) = analyze_any(text);
            assert_eq!(
                a.coloring.get(SchemaItem::Prop(es.old)),
                ColorSet::ONLY_U,
                "{text}"
            );
        }
    }

    /// The generalized analysis agrees with the cursor-delete wrapper.
    #[test]
    fn generalized_analysis_matches_delete_wrapper() {
        let (_es, wrapped) = analyze(CURSOR_DELETE_SIMPLE);
        let (_es2, general) = analyze_any(CURSOR_DELETE_SIMPLE);
        assert_eq!(general.verdict, EffectVerdict::CertifiedSimple);
        assert_eq!(wrapped.coloring.to_string(), general.coloring.to_string());
    }
}

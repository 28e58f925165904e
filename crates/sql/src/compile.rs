//! Compilation of parsed statements onto the paper's framework.
//!
//! * Set-oriented statements become **two-phase** programs: the receiver
//!   set (or victim set) is precomputed on the input instance, then a
//!   trivial, order-independent update is applied — exactly how Section 7
//!   explains the correctness of SQL's standalone statements.
//! * Cursor-based updates compile to [`AlgebraicMethod`]s (one statement
//!   `col := E` with `E` built from the subquery), so Theorem 5.12's
//!   procedure can decide their (key-)order independence mechanically.
//! * Cursor-based deletes fall outside the algebraic model (they remove
//!   objects), so they compile to interpreted methods; their analysis
//!   goes through schema colorings ([`crate::analyze`]).
//!
//! **Name resolution** is [`crate::scope`]'s rule, shared with
//! [`mod@crate::eval`]: following the paper's examples, an *unqualified*
//! column name refers to the cursor tuple when the cursor's table has
//! that column (`Salary`, `Manager` in statements (B)/(C)); otherwise to
//! the outermost visible `FROM` table that has it (`Old`, `New`).

use std::collections::BTreeSet;
use std::sync::Arc;

use receivers_core::algebraic::{AlgebraicMethod, Statement as AlgStatement};
use receivers_objectbase::{
    ClassId, Edge, Instance, MethodOutcome, Oid, PropId, Receiver, ReceiverSet, Signature,
    UpdateMethod,
};
use receivers_relalg::par::par;
use receivers_relalg::typecheck::update_params;
use receivers_relalg::{infer_schema, Attr, Expr};

use receivers_obs as obs;

use crate::ast::{
    ColumnRef, Condition, CursorBody, FromItem, Projection, Select, SqlStatement, SET_ROW,
};
use crate::catalog::{Catalog, TableInfo};
use crate::error::{Result, SqlError};
use crate::eval::{eval_condition, eval_select, Binding, Scopes};
use crate::scope::{resolve, walk_condition, walk_select, Bound, Column, Reference, Visitor};

obs::counter!(C_STATEMENTS_COMPILED, "sql.statements_compiled");

/// A compiled statement.
pub enum CompiledStatement {
    /// Set-oriented delete.
    SetDelete(SetDelete),
    /// Cursor-based delete.
    CursorDelete(CursorDelete),
    /// Set-oriented update.
    SetUpdate(SetUpdate),
    /// Cursor-based update.
    CursorUpdate(CursorUpdate),
}

/// Compile a parsed statement against a catalog.
pub fn compile(stmt: &SqlStatement, catalog: &Catalog) -> Result<CompiledStatement> {
    C_STATEMENTS_COMPILED.incr();
    let _span = obs::span("sql.compile");
    match stmt {
        SqlStatement::Delete { table, condition } => {
            let info = catalog.lookup(table)?.clone();
            check_names(catalog, &info, SET_ROW, Some(condition), None)?;
            Ok(CompiledStatement::SetDelete(SetDelete {
                catalog: catalog.clone(),
                table: info,
                condition: condition.clone(),
            }))
        }
        SqlStatement::Update {
            table,
            column,
            select,
            condition,
        } => {
            let info = catalog.lookup(table)?.clone();
            let prop = info
                .column_prop(column)
                .ok_or_else(|| SqlError::UnknownColumn {
                    column: column.clone(),
                    scope: table.clone(),
                })?;
            check_names(catalog, &info, SET_ROW, condition.as_ref(), Some(select))?;
            check_assignment(catalog, table, &info, SET_ROW, column, select)?;
            Ok(CompiledStatement::SetUpdate(SetUpdate {
                catalog: catalog.clone(),
                table: info,
                property: prop,
                select: select.clone(),
                condition: condition.clone(),
            }))
        }
        SqlStatement::ForEach { var, table, body } => {
            let info = catalog.lookup(table)?.clone();
            match body {
                CursorBody::DeleteIf {
                    condition,
                    table: del_table,
                } => {
                    if del_table != table {
                        return Err(SqlError::Unsupported(format!(
                            "cursor delete targets `{del_table}` but iterates `{table}`"
                        )));
                    }
                    check_names(catalog, &info, var, condition.as_ref(), None)?;
                    Ok(CompiledStatement::CursorDelete(CursorDelete {
                        catalog: catalog.clone(),
                        var: var.clone(),
                        table: info,
                        condition: condition.clone(),
                    }))
                }
                CursorBody::UpdateSet {
                    condition,
                    column,
                    select,
                } => {
                    let prop = info
                        .column_prop(column)
                        .ok_or_else(|| SqlError::UnknownColumn {
                            column: column.clone(),
                            scope: table.clone(),
                        })?;
                    check_names(catalog, &info, var, condition.as_ref(), Some(select))?;
                    check_assignment(catalog, table, &info, var, column, select)?;
                    Ok(CompiledStatement::CursorUpdate(CursorUpdate {
                        catalog: catalog.clone(),
                        var: var.clone(),
                        table: info,
                        property: prop,
                        select: (**select).clone(),
                        condition: condition.clone(),
                    }))
                }
            }
        }
    }
}

/// Check that every name in a statement's `guard` and value subquery
/// `select` resolves, with the row bound as `row` over `info` (the
/// [`crate::scope`] rule [`mod@crate::eval`] evaluates by). Fails with the
/// first reference that does not: [`SqlError::UnknownTable`] for a `FROM`
/// or `IN TABLE` table, [`SqlError::UnknownAlias`] or
/// [`SqlError::UnknownColumn`] for a column reference, and
/// [`SqlError::Unsupported`] for an `IN TABLE` table that is not one
/// column wide ([`Catalog::single_column`]).
fn check_names(
    catalog: &Catalog,
    info: &TableInfo,
    row: &str,
    guard: Option<&Condition>,
    select: Option<&Select>,
) -> Result<()> {
    #[derive(Default)]
    struct FirstError(Option<SqlError>);
    impl Visitor for FirstError {
        fn scan(&mut self, _item: &FromItem, table: Result<&TableInfo>) {
            if let Err(e) = table {
                self.0.get_or_insert(e);
            }
        }
        fn column(&mut self, _colref: &ColumnRef, reference: Result<Reference>) {
            if let Err(e) = reference {
                self.0.get_or_insert(e);
            }
        }
        fn in_table(
            &mut self,
            _colref: &ColumnRef,
            _table: &str,
            column: Result<(&TableInfo, PropId)>,
        ) {
            if let Err(e) = column {
                self.0.get_or_insert(e);
            }
        }
    }
    let row = Some(Bound {
        alias: Some(row),
        table: info,
    });
    let mut first = FirstError::default();
    if let Some(cond) = guard {
        walk_condition(cond, row, catalog, &mut first);
    }
    if let Some(select) = select {
        walk_select(select, row, catalog, &mut first);
    }
    first.0.map_or(Ok(()), Err)
}

/// Check that the value subquery of `table.column := (select …)` yields
/// objects of the class the column holds. `row` names the statement's
/// row: the cursor variable, or [`SET_ROW`] for a set update. Fails with
/// [`SqlError::IllTypedAssignment`] when the projected column holds
/// another class. A name that does not resolve is not checked here:
/// [`compile`] refuses it by name resolution first, and the lint layer
/// reports it with a span.
pub fn check_assignment(
    catalog: &Catalog,
    table: &str,
    info: &TableInfo,
    row: &str,
    column: &str,
    select: &Select,
) -> Result<()> {
    let Some(prop) = info.column_prop(column) else {
        return Ok(());
    };
    let mut scopes = vec![Bound {
        alias: Some(row),
        table: info,
    }];
    for item in &select.from {
        let Ok(table) = catalog.lookup(&item.table) else {
            return Ok(());
        };
        scopes.push(Bound {
            alias: Some(item.name()),
            table,
        });
    }
    let schema = &catalog.schema;
    let (value, found) = match &select.projection {
        // `SELECT *` yields the interpreter's sentinel: the identity of
        // the innermost binding, the last `FROM` table.
        Projection::Star => ("*".to_owned(), scopes[scopes.len() - 1].table.class),
        Projection::Column(value) => {
            let Ok(resolved) = resolve(value, &scopes) else {
                return Ok(());
            };
            let found = match resolved.column {
                Column::Id => scopes[resolved.scope].table.class,
                Column::Prop(p) => schema.property(p).dst,
            };
            (value.to_string(), found)
        }
    };
    let expected = schema.property(prop).dst;
    if found == expected {
        return Ok(());
    }
    Err(SqlError::IllTypedAssignment {
        column: format!("{table}.{column}"),
        expected: schema.class_name(expected).to_owned(),
        value,
        found: schema.class_name(found).to_owned(),
    })
}

// ---------------------------------------------------------------------
// Set-oriented delete.
// ---------------------------------------------------------------------

/// `DELETE FROM t WHERE cond`, two-phase.
pub struct SetDelete {
    catalog: Catalog,
    table: TableInfo,
    /// The `WHERE` condition (crate-visible for [`crate::plan`]).
    pub(crate) condition: Condition,
}

impl SetDelete {
    /// The target table.
    pub fn table(&self) -> &TableInfo {
        &self.table
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The `WHERE` condition.
    pub fn condition(&self) -> Option<&Condition> {
        Some(&self.condition)
    }

    /// Phase 1: the victim set.
    pub fn victims(&self, instance: &Instance) -> Result<Vec<Oid>> {
        let mut out = Vec::new();
        for tuple in instance.class_members(self.table.class) {
            let scopes: Scopes<'_> = vec![Binding {
                alias: SET_ROW.to_owned(),
                table: &self.table,
                tuple,
            }];
            if eval_condition(&self.condition, &scopes, &self.catalog, instance)? {
                out.push(tuple);
            }
        }
        Ok(out)
    }

    /// Phase 1 + phase 2: identify, then remove all together.
    pub fn apply(&self, instance: &Instance) -> Result<Instance> {
        let victims = self.victims(instance)?;
        let mut out = instance.clone();
        for v in victims {
            out.remove_object_cascade(v);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Cursor-based delete.
// ---------------------------------------------------------------------

/// `FOR EACH t IN R DO IF cond DELETE t FROM R`.
pub struct CursorDelete {
    catalog: Catalog,
    /// The cursor variable (crate-visible for [`crate::analyze`]).
    pub(crate) var: String,
    table: TableInfo,
    /// The guarding condition (public for [`crate::analyze`]).
    pub condition: Option<Condition>,
}

impl CursorDelete {
    /// The table iterated over.
    pub fn table(&self) -> &TableInfo {
        &self.table
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The per-tuple update method (type `[R]`).
    pub fn method(&self) -> CursorDeleteMethod {
        CursorDeleteMethod {
            catalog: self.catalog.clone(),
            var: self.var.clone(),
            table: self.table.clone(),
            condition: self.condition.clone(),
            signature: Signature::new(vec![self.table.class]).expect("non-empty"),
        }
    }

    /// The receiver set: one receiver per tuple of `R` in the instance.
    pub fn receivers(&self, instance: &Instance) -> ReceiverSet {
        instance
            .class_members(self.table.class)
            .map(|t| Receiver::new(vec![t]))
            .collect()
    }
}

/// The interpreted method behind a cursor delete.
pub struct CursorDeleteMethod {
    catalog: Catalog,
    var: String,
    table: TableInfo,
    condition: Option<Condition>,
    signature: Signature,
}

impl UpdateMethod for CursorDeleteMethod {
    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn apply(&self, instance: &Instance, receiver: &Receiver) -> MethodOutcome {
        if let Err(e) = receiver.validate(&self.signature, instance) {
            return MethodOutcome::Undefined(e.to_string());
        }
        let tuple = receiver.receiving_object();
        let scopes: Scopes<'_> = vec![Binding {
            alias: self.var.clone(),
            table: &self.table,
            tuple,
        }];
        let fire = match &self.condition {
            Some(c) => match eval_condition(c, &scopes, &self.catalog, instance) {
                Ok(b) => b,
                Err(e) => return MethodOutcome::Undefined(e.to_string()),
            },
            None => true,
        };
        let mut out = instance.clone();
        if fire {
            out.remove_object_cascade(tuple);
        }
        MethodOutcome::Done(out)
    }

    fn name(&self) -> &str {
        "cursor-delete"
    }
}

// ---------------------------------------------------------------------
// Set-oriented update.
// ---------------------------------------------------------------------

/// A value subquery compiled to one relational algebra query
/// ([`crate::plan::Stage::values_query`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValuesQuery {
    /// `par(E)` over `rec`: the subquery reads a column of the row, so
    /// each row gets its own values, all from one evaluation.
    PerRow(Expr),
    /// The closed `E₀`: the subquery reads no column of the row, so one
    /// evaluation gives every row the same values.
    Shared(Expr),
}

/// A value subquery lowered once ([`lower_values`]): `E` over the row
/// `self`, the expression a cursor update's algebraic method assigns and
/// the receiver loop evaluates, and the query a set statement evaluates.
pub(crate) struct LoweredValues {
    pub(crate) expr: Expr,
    pub(crate) query: ValuesQuery,
}

/// Lower the value subquery `select` of a statement whose row is bound
/// as `var` over `table` to relational algebra, well typed over the row
/// ([`well_typed`]). Every subquery [`compile`] accepts lowers: negative
/// atoms become differences, a contradictory equality (two classes) an
/// empty query, and `SELECT *` the interpreter's sentinel, the last
/// `FROM` table's identity. A failure names the shape and the reason.
pub(crate) fn lower_values(
    select: &Select,
    catalog: &Catalog,
    table: &TableInfo,
    var: &str,
) -> Result<LoweredValues> {
    let mut c = SelectCompiler::new(catalog, table, var);
    let projection = c.gather_select(select)?;
    let expr = c.build(Some(&projection.attr), false)?;
    debug_assert!(well_typed(&expr, catalog, table), "ill-typed: {select}");
    // The set statements' query: the closed `E₀` every row shares when
    // the subquery reads no column of the row, or else `par(E)` over
    // `rec` (scheme `self`, the rows to update). By Lemma 6.7 one
    // evaluation of `par(E)` yields exactly the pairs `(row, value)`
    // with `value` in the row's subquery values.
    let query = if c.reads_row() {
        ValuesQuery::PerRow(par(&expr)?)
    } else {
        ValuesQuery::Shared(c.build(Some(&projection.attr), true)?)
    };
    Ok(LoweredValues { expr, query })
}

/// Whether `e` type-checks over a row of `table`. The lowering builds
/// only well-typed queries — joins and equalities on attributes of one
/// class (a column's property starts at its table's class, or
/// [`SelectCompiler::resolve`] refuses it), differences of equal schemes
/// — which debug builds check.
fn well_typed(e: &Expr, catalog: &Catalog, table: &TableInfo) -> bool {
    Signature::new(vec![table.class])
        .is_ok_and(|sig| infer_schema(e, &catalog.schema, &update_params(&sig)).is_ok())
}

/// `UPDATE t SET col = (SELECT …) [WHERE cond]`, two-phase.
pub struct SetUpdate {
    catalog: Catalog,
    table: TableInfo,
    /// The updated property (public for [`crate::analyze`]).
    pub property: receivers_objectbase::PropId,
    select: Select,
    /// The optional guard: rows failing it keep their old value.
    pub condition: Option<Condition>,
}

impl SetUpdate {
    /// The target table.
    pub fn table(&self) -> &TableInfo {
        &self.table
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The value subquery.
    pub fn select(&self) -> &Select {
        &self.select
    }

    /// Phase 1: the precomputed key set of assignments
    /// `(tuple, new values)` — the paper's "key set of receivers computed
    /// by the SQL query". Rows failing the guard are left out entirely
    /// (they keep their old value).
    pub fn assignments(&self, instance: &Instance) -> Result<Vec<(Oid, Vec<Oid>)>> {
        let mut out = Vec::new();
        for tuple in instance.class_members(self.table.class) {
            let scopes: Scopes<'_> = vec![Binding {
                alias: SET_ROW.to_owned(),
                table: &self.table,
                tuple,
            }];
            if let Some(guard) = &self.condition {
                if !eval_condition(guard, &scopes, &self.catalog, instance)? {
                    continue;
                }
            }
            let values = eval_select(&self.select, &scopes, &self.catalog, instance)?;
            out.push((tuple, values));
        }
        Ok(out)
    }

    /// Phase 1 + phase 2.
    pub fn apply(&self, instance: &Instance) -> Result<Instance> {
        let assignments = self.assignments(instance)?;
        let mut out = instance.clone();
        for (tuple, values) in assignments {
            let old: Vec<Oid> = out.successors(tuple, self.property).collect();
            for v in old {
                out.remove_edge(&Edge::new(tuple, self.property, v));
            }
            for v in values {
                out.add_edge(Edge::new(tuple, self.property, v))?;
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Guards, lowered to conjuncts over relational algebra.
// ---------------------------------------------------------------------

/// One conjunct of a guard, in source order ([`lower_guard`]). The
/// multi-valued reading of `sat.rs` holds throughout: `=` means two value
/// sets intersect, `<>` that they are disjoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GuardConjunct {
    /// `a = b` (`a <> b` when `negated`) on two of the row's own value
    /// sets.
    RowEq {
        /// `true` for `<>`.
        negated: bool,
        /// The left value set, on the row.
        a: Column,
        /// The right value set, on the row.
        b: Column,
    },
    /// The row passes iff `row ∩ E₀ ≠ ∅` (`= ∅` when `negated`), where the
    /// closed unary query `E₀` reads no column of the row, so one
    /// evaluation serves every row (Lemma 6.7's corollary). Without a
    /// `row`, the conjunct reads no column of the row at all and passes
    /// every row iff `E₀` is non-empty.
    Probe {
        /// `true` for `NOT IN TABLE`.
        negated: bool,
        /// The row's values tested against `E₀`: `a` of `a IN TABLE T`,
        /// or the row's side of an `EXISTS`'s linking equality.
        row: Option<Column>,
        /// The closed query.
        e0: Expr,
    },
    /// An `EXISTS` correlated with the row beyond one linking equality:
    /// `π_self(par(E))`, whose one evaluation over `rec` (the rows that
    /// reach the conjunct) is the set of rows that pass.
    Rows {
        /// The row-set query.
        query: Expr,
        /// Why the `EXISTS` is not one probe.
        why: String,
    },
}

/// Lower a guard, with the row bound as `var` over `table`, into its
/// `AND` chain's conjuncts, in source order. `a = b` and `a <> b` on the
/// row compare two of its value sets; `a [NOT] IN TABLE T` probes `T`'s
/// column; an `EXISTS` linked to the row by exactly one equality `x =
/// t.c` (or `x = t`), and reading the row nowhere else, probes `E₀`: the
/// subquery without that equality and without the `self` seed, projected
/// on `x`. Every other `EXISTS` is a [`GuardConjunct::Rows`] query. Fails
/// on a column of the row that does not resolve or an `IN TABLE` table
/// that is not one column wide, which [`compile`] has already refused,
/// and on a subquery the lowering cannot express, naming it.
pub(crate) fn lower_guard(
    cond: &Condition,
    catalog: &Catalog,
    table: &TableInfo,
    var: &str,
) -> Result<Vec<GuardConjunct>> {
    fn conjuncts<'c>(cond: &'c Condition, out: &mut Vec<&'c Condition>) {
        match cond {
            Condition::And(a, b) => {
                conjuncts(a, out);
                conjuncts(b, out);
            }
            atom => out.push(atom),
        }
    }
    let mut atoms = Vec::new();
    conjuncts(cond, &mut atoms);
    let row = [Bound {
        alias: Some(var),
        table,
    }];
    let on_row = |c: &ColumnRef| resolve(c, &row).map(|r| r.column);
    atoms
        .into_iter()
        .map(|atom| {
            Ok(match atom {
                Condition::Eq(a, b) | Condition::NotEq(a, b) => GuardConjunct::RowEq {
                    negated: matches!(atom, Condition::NotEq(..)),
                    a: on_row(a)?,
                    b: on_row(b)?,
                },
                Condition::InTable(c, t) | Condition::NotInTable(c, t) => {
                    let row = on_row(c)?;
                    let (_, prop) = in_table_column(catalog, t)?;
                    GuardConjunct::Probe {
                        negated: matches!(atom, Condition::NotInTable(..)),
                        row: Some(row),
                        e0: Expr::prop(prop).project([catalog.schema.prop_name(prop)]),
                    }
                }
                Condition::Exists(select) => lower_exists(select, catalog, table, var)?,
                Condition::And(..) => unreachable!("conjuncts are flattened"),
            })
        })
        .collect()
}

/// The one column of the `IN TABLE` table `t`. Fails on a table that is
/// not one column wide, which [`compile`] has already refused, and on a
/// column that is not a property of the table's class (a hand-built
/// [`Catalog`]; [`Catalog::parse`] refuses one).
fn in_table_column<'c>(catalog: &'c Catalog, t: &str) -> Result<(&'c TableInfo, PropId)> {
    let (info, prop) = catalog.single_column(t)?;
    if catalog.schema.property(prop).src != info.class {
        return Err(SqlError::Unsupported(format!(
            "`IN TABLE {t}`: the column of `{t}` is not a property of its class"
        )));
    }
    Ok((info, prop))
}

/// An `EXISTS` conjunct. `EXISTS` asks for one binding of the `FROM`
/// tables satisfying the `WHERE` chain; when the row is read only in a
/// positive equality `x = t.c`, that is `t.c ∩ E₀ ≠ ∅` with `E₀` the `x`
/// values of the bindings satisfying the rest — a
/// [`GuardConjunct::Probe`]. Otherwise the row set of the correlated
/// `par(E)`.
fn lower_exists(
    select: &Select,
    catalog: &Catalog,
    table: &TableInfo,
    var: &str,
) -> Result<GuardConjunct> {
    let refuse = |e: SqlError| {
        SqlError::Unsupported(format!(
            "the guard's `EXISTS ({select})` does not lower to relational algebra: {e}"
        ))
    };
    let mut c = SelectCompiler::new(catalog, table, var);
    let projection = c.gather_select(select)?;
    let is_row = |a: &str| a == "self" || a.starts_with("self.");
    // The row's one read, when it is in a positive equality.
    let link = match c.row_reads.as_slice() {
        [read] => (c.eqs.iter())
            .position(|(a, b)| is_row(a) || is_row(b))
            .map(|k| (read.clone(), k)),
        _ => None,
    };
    if c.row_reads.is_empty() || link.is_some() {
        let (row, x) = match link {
            Some((read, k)) => {
                let (a, b) = c.eqs.remove(k);
                c.used.remove(&read);
                c.row_reads.clear();
                (Some(read.column), if is_row(&a) { b } else { a })
            }
            None => (None, projection.attr.clone()),
        };
        let e0 = c.build(Some(&x), true).map_err(refuse)?;
        debug_assert!(well_typed(&e0, catalog, table), "ill-typed: {select}");
        return Ok(GuardConjunct::Probe {
            negated: false,
            row,
            e0,
        });
    }
    let why = match c.row_reads.as_slice() {
        [read] if read.attr == projection.attr => {
            format!("the EXISTS projects a column of the row ({})", read.name)
        }
        [read] => format!(
            "the EXISTS reads the row outside one linking equality ({})",
            read.name
        ),
        reads => {
            let names: Vec<&str> = reads.iter().map(|r| r.name.as_str()).collect();
            let times = match reads.len() {
                2 => "twice".to_owned(),
                n => format!("{n} times"),
            };
            format!("the EXISTS reads the row {times} ({})", names.join(", "))
        }
    };
    let e = c.build(None, false).map_err(refuse)?;
    debug_assert!(well_typed(&e, catalog, table), "ill-typed: {select}");
    Ok(GuardConjunct::Rows {
        query: par(&e)?,
        why,
    })
}

// ---------------------------------------------------------------------
// Cursor-based update.
// ---------------------------------------------------------------------

/// `FOR EACH t IN R DO [IF cond] UPDATE t SET col = (SELECT …)`.
pub struct CursorUpdate {
    catalog: Catalog,
    /// The cursor variable (crate-visible for [`crate::analyze`]).
    pub(crate) var: String,
    table: TableInfo,
    /// The updated property (public for [`crate::improve`]).
    pub property: receivers_objectbase::PropId,
    select: Select,
    /// The optional guard: tuples failing it keep their old value.
    pub condition: Option<Condition>,
}

impl CursorUpdate {
    /// The table iterated over.
    pub fn table(&self) -> &TableInfo {
        &self.table
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The value subquery.
    pub fn select(&self) -> &Select {
        &self.select
    }

    /// The receiver set: one receiver per tuple (trivially a key set:
    /// the signature has no argument positions).
    pub fn receivers(&self, instance: &Instance) -> ReceiverSet {
        instance
            .class_members(self.table.class)
            .map(|t| Receiver::new(vec![t]))
            .collect()
    }

    /// Compile to an [`AlgebraicMethod`] of type `[R]` whose single
    /// statement is `col := E` with `E` built from the subquery — the
    /// modelling step of Section 7 that unlocks Theorem 5.12.
    pub fn to_algebraic(&self) -> Result<AlgebraicMethod> {
        self.algebraic_refusal()?;
        let lowered = lower_values(&self.select, &self.catalog, &self.table, &self.var)?;
        self.algebraic(&lowered.expr)
    }

    /// Why the update has no algebraic form, if it has none: a guard, or
    /// a `FROM` alias shadowing the cursor variable.
    fn algebraic_refusal(&self) -> Result<()> {
        if self.condition.is_some() {
            // A guard makes the statement conditional — `col := E` always
            // replaces, so the algebraic model does not apply. Guarded
            // cursor updates run in the receiver loop.
            return Err(SqlError::Unsupported(
                "guarded cursor update has no algebraic form".to_owned(),
            ));
        }
        // The improve pass's set form unqualifies every `var.` reference
        // (`improve::strip_cursor_var`), which a shadowing alias would
        // redirect, so such an update keeps the receiver loop.
        if crate::plan::shadows_select(&self.select, &self.var) {
            return Err(SqlError::Unsupported(format!(
                "a FROM alias shadows the cursor variable `{}`",
                self.var
            )));
        }
        Ok(())
    }

    /// [`CursorUpdate::to_algebraic`] over the subquery already lowered
    /// to `expr` ([`lower_values`]), so the planner lowers it once.
    pub(crate) fn algebraic(&self, expr: &Expr) -> Result<AlgebraicMethod> {
        self.algebraic_refusal()?;
        let sig = Signature::new(vec![self.table.class])?;
        AlgebraicMethod::new(
            format!(
                "cursor-update({})",
                self.catalog.schema.prop_name(self.property)
            ),
            Arc::clone(&self.catalog.schema),
            sig,
            vec![AlgStatement {
                property: self.property,
                expr: expr.clone(),
            }],
        )
        .map_err(SqlError::from)
    }

    /// The set statement (A) an unguarded update (B) rewrites to: the same
    /// table and column, the value subquery with the cursor variable's
    /// references unqualified ([`crate::improve::strip_cursor_var`]), and
    /// no guard. For a key-order-independent update its two-phase
    /// application is the parallel one, which Theorem 6.5 equates with the
    /// loop; the planner runs an improved stage as this statement.
    pub(crate) fn into_set_form(self) -> SetUpdate {
        SetUpdate {
            select: crate::improve::strip_cursor_var(&self.select, &self.var),
            catalog: self.catalog,
            table: self.table,
            property: self.property,
            condition: None,
        }
    }

    /// The interpreted per-tuple method (reference semantics; tests
    /// cross-check it against [`CursorUpdate::to_algebraic`]).
    pub fn interpreted_method(&self) -> CursorUpdateMethod {
        CursorUpdateMethod {
            catalog: self.catalog.clone(),
            var: self.var.clone(),
            table: self.table.clone(),
            property: self.property,
            select: self.select.clone(),
            condition: self.condition.clone(),
            signature: Signature::new(vec![self.table.class]).expect("non-empty"),
        }
    }
}

/// The interpreted method behind a cursor update.
pub struct CursorUpdateMethod {
    catalog: Catalog,
    var: String,
    table: TableInfo,
    property: receivers_objectbase::PropId,
    select: Select,
    condition: Option<Condition>,
    signature: Signature,
}

impl UpdateMethod for CursorUpdateMethod {
    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn apply(&self, instance: &Instance, receiver: &Receiver) -> MethodOutcome {
        if let Err(e) = receiver.validate(&self.signature, instance) {
            return MethodOutcome::Undefined(e.to_string());
        }
        let tuple = receiver.receiving_object();
        let scopes: Scopes<'_> = vec![Binding {
            alias: self.var.clone(),
            table: &self.table,
            tuple,
        }];
        if let Some(guard) = &self.condition {
            match eval_condition(guard, &scopes, &self.catalog, instance) {
                Ok(true) => {}
                Ok(false) => return MethodOutcome::Done(instance.clone()),
                Err(e) => return MethodOutcome::Undefined(e.to_string()),
            }
        }
        let values = match eval_select(&self.select, &scopes, &self.catalog, instance) {
            Ok(v) => v,
            Err(e) => return MethodOutcome::Undefined(e.to_string()),
        };
        let mut out = instance.clone();
        let old: Vec<Oid> = out.successors(tuple, self.property).collect();
        for v in old {
            out.remove_edge(&Edge::new(tuple, self.property, v));
        }
        for v in values {
            out.add_edge(Edge::new(tuple, self.property, v))
                .expect("typed evaluation");
        }
        MethodOutcome::Done(out)
    }

    fn name(&self) -> &str {
        "cursor-update"
    }
}

// ---------------------------------------------------------------------
// SELECT → relational algebra compilation.
// ---------------------------------------------------------------------

/// A fully resolved column reference: the binding's tuple attribute, the
/// column, the attribute the reference is read as, and the class of its
/// values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Resolved {
    /// Tuple attribute of the binding (`"self"` or an alias attribute).
    scope_attr: Attr,
    /// The column as written.
    name: String,
    /// What the column reads.
    column: Column,
    /// The reference's own attribute: `scope_attr` for the identity
    /// column; `scope_attr.column` for the first reference to a data
    /// column and `scope_attr.column#k` for its `k`-th, so that each
    /// reference picks its own value of a multi-valued column, as in
    /// `sql::eval`.
    attr: Attr,
    /// The class of the values the reference reads.
    domain: ClassId,
}

/// A negative atom (`a <> b`, `c NOT IN TABLE T`) of a flattened
/// subquery: a binding passes unless its two value sets share a value.
struct Negation {
    /// The tuple attributes the atom reads: the difference is keyed on
    /// them.
    keys: Vec<Attr>,
    /// The atom's data column references, each joined on its own
    /// attribute.
    refs: Vec<Resolved>,
    /// `NOT IN TABLE T`: `T`'s column, read under a fresh tuple attribute.
    member: Option<Resolved>,
    /// The two value attributes that meet.
    meet: (Attr, Attr),
}

/// The compiler from one (sub)query to relational algebra. It flattens
/// the query and every `EXISTS` nested in it into one binding of their
/// `FROM` tables (and the row, as `self`): positive atoms become joins
/// and equality selections over those bindings, and each negative atom a
/// difference that drops the bindings whose two value sets meet.
struct SelectCompiler<'a> {
    catalog: &'a Catalog,
    outer: &'a TableInfo,
    outer_var: &'a str,
    /// Collected FROM aliases (flattened across EXISTS nesting), by the
    /// tuple attribute each binds.
    aliases: Vec<(Attr, &'a TableInfo)>,
    /// The bindings in scope at the reference being resolved, as
    /// `crate::eval` binds them: the cursor tuple, then the enclosing
    /// selects' and the current one's `FROM` tables, outermost first.
    scopes: Vec<Bound<'a>>,
    /// The tuple attribute each of `scopes` binds: `self` for the cursor
    /// tuple, then each `FROM` table's alias attribute ([`Self::add_alias`]).
    scope_attrs: Vec<Attr>,
    /// Data column references to materialize as property joins, one per
    /// positive reference.
    used: BTreeSet<Resolved>,
    /// Equality constraints between resolved attributes.
    eqs: Vec<(Attr, Attr)>,
    /// The negative atoms.
    negs: Vec<Negation>,
    /// A positive atom compares two classes: no binding satisfies it.
    contradiction: bool,
    /// The data column references of the negative atoms, which `used`
    /// leaves out.
    negated: Vec<Resolved>,
    fresh: usize,
    /// The column references that resolved to the cursor tuple, in
    /// resolution order.
    row_reads: Vec<Resolved>,
}

impl<'a> SelectCompiler<'a> {
    fn new(catalog: &'a Catalog, outer: &'a TableInfo, outer_var: &'a str) -> Self {
        SelectCompiler {
            catalog,
            outer,
            outer_var,
            aliases: Vec::new(),
            scopes: vec![Bound {
                alias: Some(outer_var),
                table: outer,
            }],
            scope_attrs: vec!["self".to_owned()],
            used: BTreeSet::new(),
            eqs: Vec::new(),
            negs: Vec::new(),
            contradiction: false,
            negated: Vec::new(),
            fresh: 0,
            row_reads: Vec::new(),
        }
    }

    /// `true` once some column reference resolved to the cursor tuple.
    fn reads_row(&self) -> bool {
        !self.row_reads.is_empty()
    }

    /// A tuple attribute `name#k` no SQL name spells.
    fn fresh_attr(&mut self, name: &str) -> Attr {
        self.fresh += 1;
        format!("{name}#{}", self.fresh)
    }

    /// Register a `FROM` table (or an `IN TABLE` probe) under `name` and
    /// return the tuple attribute it binds: `name` itself, unless another
    /// binding took it, it names the row ([`crate::scope::resolve`] lets
    /// it shadow the row), or the lowering reserves it (`self`, `rec`, a
    /// property's attribute) — then a fresh attribute `name#k`.
    fn add_alias(&mut self, name: &str, table: &'a TableInfo) -> Attr {
        let taken = name == "self"
            || name == "rec"
            || name == self.outer_var
            || self.catalog.schema.prop(name).is_some()
            || self.aliases.iter().any(|(a, _)| a == name);
        let attr = if taken {
            self.fresh_attr(name)
        } else {
            name.to_owned()
        };
        self.aliases.push((attr.clone(), table));
        attr
    }

    /// Resolve a column reference against the scopes in view
    /// ([`crate::scope::resolve`]) and give it its own attribute; a
    /// positive reference's data column is joined into the bindings.
    fn resolve(&mut self, colref: &ColumnRef, positive: bool) -> Result<Resolved> {
        let r = resolve(colref, &self.scopes)?;
        let scope_attr = self.scope_attrs[r.scope].clone();
        let class = self.scopes[r.scope].table.class;
        let (attr, domain) = match r.column {
            Column::Id => (scope_attr.clone(), class),
            Column::Prop(p) if self.catalog.schema.property(p).src != class => {
                return Err(SqlError::Unsupported(format!(
                    "column `{colref}`: its property does not start at its table's class"
                )))
            }
            Column::Prop(p) => {
                let earlier = (self.used.iter().chain(&self.negated))
                    .filter(|u| u.scope_attr == scope_attr && u.column == r.column)
                    .count();
                let base = format!("{scope_attr}.{}", colref.column);
                let attr = match earlier {
                    0 => base,
                    k => format!("{base}#{}", k + 1),
                };
                (attr, self.catalog.schema.property(p).dst)
            }
        };
        let resolved = Resolved {
            scope_attr,
            name: colref.column.clone(),
            column: r.column,
            attr,
            domain,
        };
        if resolved.scope_attr == "self" {
            self.row_reads.push(resolved.clone());
        }
        if resolved.column != Column::Id {
            match positive {
                true => self.used.insert(resolved.clone()),
                false => {
                    self.negated.push(resolved.clone());
                    true
                }
            };
        }
        Ok(resolved)
    }

    /// `T`'s one column, read under a fresh tuple attribute.
    fn member(&mut self, table: &str) -> Result<(Resolved, &'a TableInfo)> {
        let (info, prop) = in_table_column(self.catalog, table)?;
        let name = self.catalog.schema.prop_name(prop).to_owned();
        let scope_attr = self.fresh_attr(table);
        let member = Resolved {
            attr: format!("{scope_attr}.{name}"),
            scope_attr,
            name,
            column: Column::Prop(prop),
            domain: self.catalog.schema.property(prop).dst,
        };
        Ok((member, info))
    }

    /// The positive atom `a = b`: a selection, or a contradiction when
    /// the two value sets hold different classes.
    fn equate(&mut self, a: &Resolved, b: &Resolved) {
        if a.domain == b.domain {
            self.eqs.push((a.attr.clone(), b.attr.clone()));
        } else {
            self.contradiction = true;
        }
    }

    /// The negative atom whose value sets are read by `a` and `b`; when
    /// they hold different classes they never meet, and it always holds.
    /// `b` is `T`'s column when `member` (`a NOT IN TABLE T`): no binding
    /// key.
    fn negate(&mut self, a: Resolved, b: Resolved, member: bool) {
        if a.domain != b.domain {
            return;
        }
        let mut keys = vec![a.scope_attr.clone()];
        if !member && b.scope_attr != a.scope_attr {
            keys.push(b.scope_attr.clone());
        }
        let meet = (a.attr.clone(), b.attr.clone());
        let (refs, member) = if member {
            (vec![a], Some(b))
        } else {
            (vec![a, b], None)
        };
        self.negs.push(Negation {
            keys,
            refs: refs
                .into_iter()
                .filter(|r| r.column != Column::Id)
                .collect(),
            member,
            meet,
        });
    }

    fn gather_condition(&mut self, cond: &'a Condition) -> Result<()> {
        match cond {
            Condition::Eq(a, b) => {
                let ra = self.resolve(a, true)?;
                let rb = self.resolve(b, true)?;
                self.equate(&ra, &rb);
            }
            Condition::NotEq(a, b) => {
                let ra = self.resolve(a, false)?;
                let rb = self.resolve(b, false)?;
                self.negate(ra, rb, false);
            }
            Condition::InTable(c, table) => {
                let rc = self.resolve(c, true)?;
                let (member, info) = self.member(table)?;
                self.aliases.push((member.scope_attr.clone(), info));
                self.used.insert(member.clone());
                self.equate(&rc, &member);
            }
            Condition::NotInTable(c, table) => {
                let rc = self.resolve(c, false)?;
                let (member, _) = self.member(table)?;
                self.negate(rc, member, true);
            }
            Condition::Exists(select) => {
                self.gather_select(select)?;
            }
            Condition::And(a, b) => {
                self.gather_condition(a)?;
                self.gather_condition(b)?;
            }
        }
        Ok(())
    }

    /// Gather a (sub)select; returns the resolved projection: its column,
    /// or for `SELECT *` the interpreter's sentinel, the identity of the
    /// innermost binding (the last `FROM` table). Its `FROM` tables are
    /// visible only inside it.
    fn gather_select(&mut self, select: &'a Select) -> Result<Resolved> {
        let outer_scopes = self.scopes.len();
        for item in &select.from {
            let info = self.catalog.lookup(&item.table)?;
            let attr = self.add_alias(item.name(), info);
            self.scopes.push(Bound {
                alias: Some(item.name()),
                table: info,
            });
            self.scope_attrs.push(attr);
        }
        if let Some(w) = &select.where_clause {
            self.gather_condition(w)?;
        }
        let projection = match &select.projection {
            Projection::Star => {
                let k = self.scopes.len() - 1;
                let sentinel = Resolved {
                    scope_attr: self.scope_attrs[k].clone(),
                    name: "*".to_owned(),
                    column: Column::Id,
                    attr: self.scope_attrs[k].clone(),
                    domain: self.scopes[k].table.class,
                };
                if k == 0 {
                    self.row_reads.push(sentinel.clone());
                }
                sentinel
            }
            Projection::Column(c) => self.resolve(c, true)?,
        };
        self.scopes.truncate(outer_scopes);
        self.scope_attrs.truncate(outer_scopes);
        Ok(projection)
    }

    /// The property join a data column reference `r` reads, its source
    /// as `r`'s tuple attribute and its values as `r.attr`. The cursor
    /// tuple's joins use a fresh tuple attribute, equated with `self` in
    /// `eqs` (`par(·)` forbids renaming to `self`).
    fn prop_join(&self, r: &Resolved, table: &TableInfo, eqs: &mut Vec<(Attr, Attr)>) -> Expr {
        let Column::Prop(prop) = r.column else {
            unreachable!("only data columns are joined")
        };
        let schema = &self.catalog.schema;
        let tuple_attr = if r.scope_attr == "self" {
            let t = format!("{}__t", r.attr);
            eqs.push(("self".to_owned(), t.clone()));
            t
        } else {
            r.scope_attr.clone()
        };
        Expr::prop(prop)
            .rename(schema.class_name(table.class), tuple_attr)
            .rename(schema.prop_name(prop), r.attr.clone())
    }

    /// The table a reference's binding scans.
    fn table_of(&self, r: &Resolved) -> &'a TableInfo {
        if r.scope_attr == "self" {
            return self.outer;
        }
        self.aliases
            .iter()
            .find(|(a, _)| *a == r.scope_attr)
            .map(|(_, t)| *t)
            .unwrap_or(self.outer)
    }

    /// Assemble the final expression: the `FROM` tables joined onto the
    /// cursor tuple `self`, or, when `closed` (no column reads the cursor
    /// tuple), onto each other alone; then each negative atom's
    /// difference, and the projection (none: the emptiness probe).
    fn build(&self, projection: Option<&str>, closed: bool) -> Result<Expr> {
        let schema = &self.catalog.schema;
        let mut tables = self.aliases.iter().map(|(alias, table)| {
            let class_name = schema.class_name(table.class).to_owned();
            Expr::class(table.class).rename(class_name, alias.clone())
        });
        let mut acc = if closed {
            debug_assert!(!self.reads_row(), "a closed query reads the cursor tuple");
            tables.next().ok_or_else(|| {
                SqlError::Unsupported("a subquery without a FROM table".to_owned())
            })?
        } else {
            Expr::self_rel()
        };
        for table in tables {
            acc = acc.nat_join(table);
        }
        let mut eqs = self.eqs.clone();
        for r in &self.used {
            acc = acc.nat_join(self.prop_join(r, self.table_of(r), &mut eqs));
        }
        for (a, b) in &eqs {
            acc = acc.select_eq(a.clone(), b.clone());
        }
        // Each negative atom keeps the bindings of its keys whose value
        // sets do not meet: `π_keys(B) − π_keys(σ_meet(π_keys(B) ⋈ reads))`.
        let bindings = if self.negs.is_empty() {
            Expr::self_rel()
        } else {
            acc.clone()
        };
        for neg in &self.negs {
            let keyed = || bindings.clone().project(neg.keys.clone());
            let mut meets = vec![neg.meet.clone()];
            let mut bad = keyed();
            for r in &neg.refs {
                bad = bad.nat_join(self.prop_join(r, self.table_of(r), &mut meets));
            }
            if let Some(m) = &neg.member {
                let Column::Prop(prop) = m.column else {
                    unreachable!("a table's column is a property")
                };
                let src = schema.property(prop).src;
                bad = bad.nat_join(
                    Expr::prop(prop)
                        .rename(schema.class_name(src), m.scope_attr.clone())
                        .rename(schema.prop_name(prop), m.attr.clone()),
                );
            }
            for (a, b) in meets {
                bad = bad.select_eq(a, b);
            }
            acc = acc.nat_join(keyed().diff(bad.project(neg.keys.clone())));
        }
        if self.contradiction {
            let any = match (closed, self.aliases.first()) {
                (false, _) | (true, None) => "self".to_owned(),
                (true, Some((a, _))) => a.clone(),
            };
            acc = acc.select_ne(any.clone(), any);
        }
        Ok(match projection {
            Some(p) => acc.project([p]),
            None => acc.probe(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::employee_catalog;
    use crate::parser::parse;
    use crate::scenarios::*;
    use receivers_core::sequential::apply_seq_unchecked;

    fn compile_text(
        text: &str,
    ) -> (
        receivers_objectbase::examples::EmployeeSchema,
        Catalog,
        CompiledStatement,
    ) {
        let (es, catalog) = employee_catalog();
        let stmt = parse(text).unwrap();
        let compiled = compile(&stmt, &catalog).unwrap();
        (es, catalog, compiled)
    }

    /// A name in a guard or a value subquery that resolves nowhere is
    /// refused by `compile` (so by `compile_program`) with the error
    /// naming it, in the set and cursor forms alike; nothing is left to
    /// fail at run time.
    #[test]
    fn unresolved_names_are_refused_at_compile_time() {
        let (_, catalog) = employee_catalog();
        let unknown_column = |column: &str, scope: &str| SqlError::UnknownColumn {
            column: column.to_owned(),
            scope: scope.to_owned(),
        };
        let cases = [
            (
                "update Employee set Salary = (select Nope from Fire)",
                unknown_column("Nope", "any visible table"),
            ),
            (
                "update Employee set Salary = (select Amount from Ghost)",
                SqlError::UnknownTable("Ghost".to_owned()),
            ),
            (
                "for each t in Employee do update t set Salary = (select Q.Amount from Fire)",
                SqlError::UnknownAlias("Q".to_owned()),
            ),
            (
                "delete from Employee where Nope in table Fire",
                unknown_column("Nope", "any visible table"),
            ),
            (
                "delete from Employee where Salary in table Ghost",
                SqlError::UnknownTable("Ghost".to_owned()),
            ),
            (
                "for each t in Employee do if exists (select * from NewSal N \
                 where N.Bogus = Salary) delete t from Employee",
                unknown_column("Bogus", "N"),
            ),
            (
                "update Employee set Salary = (select New from NewSal where Old = Salary) \
                 where x.Salary in table Fire",
                SqlError::UnknownAlias("x".to_owned()),
            ),
        ];
        for (text, want) in &cases {
            let stmt = parse(text).unwrap();
            assert_eq!(
                compile(&stmt, &catalog).err().as_ref(),
                Some(want),
                "{text}"
            );
            let program_err = crate::plan::compile_program(std::slice::from_ref(&stmt), &catalog)
                .err()
                .expect(text);
            assert_eq!(&program_err, want, "compile_program agrees: {text}");
        }
        // The set statements' row binds as `t`, as their evaluation binds it.
        let qualified = "update Employee set Salary = (select New from NewSal \
             where Old = t.Salary) where t.Salary in table Fire";
        assert!(compile(&parse(qualified).unwrap(), &catalog).is_ok());
    }

    /// An assignment whose value column holds another class than the
    /// assigned column is refused at compile time, with one typed error
    /// naming both classes — the same from `compile` and from
    /// `compile_program`, set and cursor forms, guarded or not.
    #[test]
    fn ill_typed_assignments_are_refused_at_compile_time() {
        let (_, catalog) = employee_catalog();
        let ill_typed =
            |column: &str, expected: &str, value: &str, found: &str| SqlError::IllTypedAssignment {
                column: column.to_owned(),
                expected: expected.to_owned(),
                value: value.to_owned(),
                found: found.to_owned(),
            };
        let cases = [
            (
                "update Employee set Salary = (select EmpId from Employee)",
                ill_typed("Employee.Salary", "Amount", "EmpId", "Employee"),
            ),
            (
                "update Employee set Manager = (select Amount from Fire)",
                ill_typed("Employee.Manager", "Employee", "Amount", "Amount"),
            ),
            (
                "for each t in Employee do update t set Manager = (select Amount from Fire)",
                ill_typed("Employee.Manager", "Employee", "Amount", "Amount"),
            ),
            (
                "for each t in Employee do if t.Salary in table Fire \
                 update t set Manager = (select F.Amount from Fire F)",
                ill_typed("Employee.Manager", "Employee", "F.Amount", "Amount"),
            ),
            (
                "update Employee set Manager = (select t.Salary from Employee t)",
                ill_typed("Employee.Manager", "Employee", "t.Salary", "Amount"),
            ),
            // `SELECT *` yields the last `FROM` table's identity.
            (
                "update Employee set Salary = (select * from Fire)",
                ill_typed("Employee.Salary", "Amount", "*", "Fire"),
            ),
            (
                "for each t in Employee do update t set Salary = (select * from Fire)",
                ill_typed("Employee.Salary", "Amount", "*", "Fire"),
            ),
            (
                "update Employee set Manager = (select * from Employee E1, Fire)",
                ill_typed("Employee.Manager", "Employee", "*", "Fire"),
            ),
        ];
        for (text, want) in &cases {
            let stmt = parse(text).unwrap();
            let err = compile(&stmt, &catalog).err().expect(text);
            assert_eq!(&err, want, "{text}");
            let program_err = crate::plan::compile_program(std::slice::from_ref(&stmt), &catalog)
                .err()
                .expect(text);
            assert_eq!(program_err, err, "compile_program agrees: {text}");
        }
        let err = compile(&parse(cases[1].0).unwrap(), &catalog)
            .err()
            .unwrap();
        assert_eq!(
            err.to_string(),
            "ill-typed assignment: `Employee.Manager` holds `Employee` objects, \
             but the value column `Amount` holds `Amount` objects"
        );

        // Well typed: the identity column where the column holds the
        // table's own class, and a data column of the same class.
        for text in [
            "update Employee set Manager = (select EmpId from Employee)",
            "update Employee set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = Manager)",
            "for each t in Employee do update t set Salary = (select Amount from Fire)",
            "for each t in Employee do update t set Manager = (select t.Manager from Fire)",
            "update Employee set Manager = (select * from Fire, Employee E1)",
        ] {
            let stmt = parse(text).unwrap();
            assert!(compile(&stmt, &catalog).is_ok(), "{text}");
        }
    }

    /// The simple delete: both solutions delete exactly e1 (whose salary
    /// is listed in Fire) and agree — the paper's first observation.
    #[test]
    fn simple_delete_set_and_cursor_agree() {
        let (es, _c, set_version) = compile_text(DELETE_SIMPLE);
        let (i, data) = section7_instance(&es);
        let CompiledStatement::SetDelete(sd) = set_version else {
            panic!("expected set delete")
        };
        let set_result = sd.apply(&i).unwrap();
        assert!(!set_result.contains_node(data.employees[0]));
        assert!(set_result.contains_node(data.employees[1]));

        let (_es2, _c2, cursor_version) = compile_text(CURSOR_DELETE_SIMPLE);
        let CompiledStatement::CursorDelete(cd) = cursor_version else {
            panic!("expected cursor delete")
        };
        let m = cd.method();
        let t = cd.receivers(&i);
        let cursor_result = apply_seq_unchecked(&m, &i, &t).expect_done("cursor");
        assert_eq!(set_result, cursor_result);
    }

    /// The manager-based cursor delete is order dependent: processing e1
    /// (the fired manager) before e2 removes the evidence that e2's
    /// manager was fired.
    #[test]
    fn manager_delete_cursor_is_order_dependent() {
        let (es, _c, compiled) = compile_text(CURSOR_DELETE_MANAGER);
        let (i, _data) = section7_instance(&es);
        let CompiledStatement::CursorDelete(cd) = compiled else {
            panic!("expected cursor delete")
        };
        let m = cd.method();
        let t = cd.receivers(&i);
        let verdict = receivers_core::sequential::order_independent_on(&m, &i, &t);
        assert!(!verdict.is_independent());
    }

    /// The manager-based SET delete is fine (two-phase), and differs from
    /// some cursor order.
    #[test]
    fn manager_delete_set_version_is_two_phase() {
        let (es, _c, compiled) = compile_text(DELETE_MANAGER);
        let (i, data) = section7_instance(&es);
        let CompiledStatement::SetDelete(sd) = compiled else {
            panic!("expected set delete")
        };
        // Victims: everyone whose manager's salary is in Fire. e1's
        // manager is e1 (salary a100 ∈ Fire) → victim. e2's manager is e1
        // → victim. e3's manager is e2 (a200 ∉ Fire) → not a victim.
        let victims = sd.victims(&i).unwrap();
        assert_eq!(victims, vec![data.employees[0], data.employees[1]]);
        let out = sd.apply(&i).unwrap();
        assert!(out.contains_node(data.employees[2]));
        assert_eq!(out.class_members(es.employee).count(), 1);
    }

    /// Update (B): the algebraic compilation matches the interpreted
    /// semantics on every tuple, and (A) agrees with cursor (B) — both
    /// correct, as the paper states.
    #[test]
    fn update_b_algebraic_matches_interpreted_and_update_a() {
        let (es, _c, compiled_b) = compile_text(CURSOR_UPDATE_B);
        let (i, data) = section7_instance(&es);
        let CompiledStatement::CursorUpdate(cu) = compiled_b else {
            panic!("expected cursor update")
        };
        let interp = cu.interpreted_method();
        let alg = cu.to_algebraic().unwrap();
        assert!(alg.is_positive());
        let t = cu.receivers(&i);
        let via_interp = apply_seq_unchecked(&interp, &i, &t).expect_done("interp");
        let via_alg = apply_seq_unchecked(&alg, &i, &t).expect_done("alg");
        assert_eq!(via_interp, via_alg);

        let (_es2, _c2, compiled_a) = compile_text(UPDATE_A);
        let CompiledStatement::SetUpdate(su) = compiled_a else {
            panic!("expected set update")
        };
        let via_a = su.apply(&i).unwrap();
        assert_eq!(via_a, via_alg);

        // Salaries moved along NewSal: a100→a150, a200→a250.
        assert_eq!(
            via_a.successors(data.employees[0], es.salary).next(),
            Some(data.amounts[2])
        );
        assert_eq!(
            via_a.successors(data.employees[1], es.salary).next(),
            Some(data.amounts[3])
        );
    }

    /// Update (C) is order dependent: e3's new salary depends on whether
    /// e2 was updated first.
    #[test]
    fn update_c_cursor_is_order_dependent() {
        let (es, _c, compiled) = compile_text(CURSOR_UPDATE_C);
        let (i, _data) = section7_instance(&es);
        let CompiledStatement::CursorUpdate(cu) = compiled else {
            panic!("expected cursor update")
        };
        let m = cu.interpreted_method();
        let t = cu.receivers(&i);
        let verdict = receivers_core::sequential::order_independent_on(&m, &i, &t);
        assert!(!verdict.is_independent());
    }

    /// The set-oriented version of (C) is deterministic and computes the
    /// manager's prospective new salary for everyone.
    #[test]
    fn update_c_set_version_is_correct() {
        let (es, _c, compiled) = compile_text(UPDATE_C_SET);
        let (i, data) = section7_instance(&es);
        let CompiledStatement::SetUpdate(su) = compiled else {
            panic!("expected set update")
        };
        let out = su.apply(&i).unwrap();
        // e3's manager is e2 with salary a200 → new salary a250.
        assert_eq!(
            out.successors(data.employees[2], es.salary).next(),
            Some(data.amounts[3])
        );
        // e1's manager is e1 with salary a100 → a150.
        assert_eq!(
            out.successors(data.employees[0], es.salary).next(),
            Some(data.amounts[2])
        );
    }

    /// Name resolution sees only the `FROM` tables in scope, as
    /// `sql::eval` binds them: neither an `in table` test nor a nested
    /// `exists` makes its table visible outside it.
    #[test]
    fn select_compiler_resolves_only_visible_tables() {
        let (_es, catalog) = employee_catalog();
        let employee = catalog.lookup("Employee").unwrap();
        for text in [
            "update Employee set Salary = (select Amount from NewSal where Old in table Fire)",
            "update Employee set Salary = (select E2.Salary from NewSal \
             where exists (select * from Employee E2 where E2.Salary = Old))",
        ] {
            let SqlStatement::Update { select, .. } = parse(text).unwrap() else {
                panic!("{text} is a set update")
            };
            assert!(
                lower_values(&select, &catalog, employee, "t").is_err(),
                "{text}"
            );
        }
    }

    /// Theorem 5.12 discriminates (B) from (C), exactly as Section 7
    /// promises.
    #[test]
    fn theorem_5_12_discriminates_b_from_c() {
        let (_es, _c, compiled_b) = compile_text(CURSOR_UPDATE_B);
        let CompiledStatement::CursorUpdate(cu_b) = compiled_b else {
            panic!()
        };
        let alg_b = cu_b.to_algebraic().unwrap();
        let decision_b = receivers_core::decide_key_order_independence(&alg_b).unwrap();
        assert!(
            decision_b.independent,
            "update (B) is key-order independent"
        );

        let (_es2, _c2, compiled_c) = compile_text(CURSOR_UPDATE_C);
        let CompiledStatement::CursorUpdate(cu_c) = compiled_c else {
            panic!()
        };
        let alg_c = cu_c.to_algebraic().unwrap();
        let decision_c = receivers_core::decide_key_order_independence(&alg_c).unwrap();
        assert!(
            !decision_c.independent,
            "update (C) is order dependent even on key sets"
        );
    }
}

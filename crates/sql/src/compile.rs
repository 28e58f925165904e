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
    Edge, Instance, MethodOutcome, Oid, PropId, Receiver, ReceiverSet, Signature, UpdateMethod,
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
    let Projection::Column(value) = &select.projection else {
        return Ok(());
    };
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
    let Ok(resolved) = resolve(value, &scopes) else {
        return Ok(());
    };
    let schema = &catalog.schema;
    let found = match resolved.column {
        Column::Id => scopes[resolved.scope].table.class,
        Column::Prop(p) => schema.property(p).dst,
    };
    let expected = schema.property(prop).dst;
    if found == expected {
        return Ok(());
    }
    Err(SqlError::IllTypedAssignment {
        column: format!("{table}.{column}"),
        expected: schema.class_name(expected).to_owned(),
        value: value.to_string(),
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

/// A set update's value subquery compiled to one relational algebra
/// query ([`crate::plan::Stage::values_query`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValuesQuery {
    /// `par(E)` over `rec`: the subquery reads a column of the row, so
    /// each row gets its own values, all from one evaluation.
    PerRow(Expr),
    /// The closed `E₀`: the subquery reads no column of the row, so one
    /// evaluation gives every row the same values.
    Shared(Expr),
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

    /// The value subquery in relational algebra, evaluated once for all
    /// rows — a set update is two-phase, so no order-independence decision
    /// is needed. When the subquery reads a column of the updated row it
    /// is `par(E)` over `rec` (scheme `self`, the rows to update): by
    /// Lemma 6.7 its single evaluation yields exactly the pairs `(row,
    /// value)` with `value` in the row's [`SetUpdate::assignments`]
    /// values. When it reads none, `E(I, t)` is one set `E₀(I)` for every
    /// row `t`, and the query is the closed `E₀`: the same join chain
    /// without the `self` seed. Fails, with the reason, when the subquery
    /// is outside the fragment [`select_to_expr`] compiles.
    pub(crate) fn values_query(&self) -> Result<ValuesQuery> {
        let (c, projection) =
            SelectCompiler::gather(&self.select, &self.catalog, &self.table, SET_ROW)?;
        let reads_row = c.reads_row();
        let expr = c.build(&projection.attr, !reads_row)?;
        // `par(·)` keeps a well-typed expression well-typed over `rec`.
        let sig = Signature::new(vec![self.table.class])?;
        infer_schema(&expr, &self.catalog.schema, &update_params(&sig))?;
        Ok(if reads_row {
            ValuesQuery::PerRow(par(&expr)?)
        } else {
            ValuesQuery::Shared(expr)
        })
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
// Set-statement guards, lowered to anchored conjuncts.
// ---------------------------------------------------------------------

/// One conjunct of a set statement's guard, in source order
/// ([`lower_guard`]). The multi-valued reading of `sat.rs` holds
/// throughout: `=` means two value sets intersect, `<>` that they are
/// disjoint.
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
    /// Outside the anchored shapes: evaluated by [`eval_condition`] for
    /// each row that reaches it.
    Residual {
        /// The conjunct.
        cond: Condition,
        /// Why it stays row by row.
        why: String,
    },
}

/// Lower a set statement's guard, with the row bound as `var` over
/// `table`, into its `AND` chain's conjuncts, in source order. `a = b`
/// and `a <> b` on the row compare two of its value sets; `a [NOT] IN
/// TABLE T` probes `T`'s column; an `EXISTS` linked to the row by exactly
/// one equality `x = t.c` (or `x = t`), and reading the row nowhere else,
/// probes `E₀`: the subquery without that equality and without the
/// `self` seed, projected on `x`. Every other conjunct is a
/// [`GuardConjunct::Residual`]. Fails only on a column of the row that
/// does not resolve or an `IN TABLE` table that is not one column wide,
/// which [`compile`] has already refused.
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
    atoms
        .into_iter()
        .map(|atom| {
            Ok(
                lower_conjunct(atom, catalog, table, var)?.unwrap_or_else(|why| {
                    GuardConjunct::Residual {
                        cond: atom.clone(),
                        why,
                    }
                }),
            )
        })
        .collect()
}

/// One conjunct of [`lower_guard`], or why it stays row by row.
fn lower_conjunct(
    atom: &Condition,
    catalog: &Catalog,
    table: &TableInfo,
    var: &str,
) -> Result<std::result::Result<GuardConjunct, String>> {
    let row = [Bound {
        alias: Some(var),
        table,
    }];
    let on_row = |c: &ColumnRef| resolve(c, &row).map(|r| r.column);
    Ok(match atom {
        Condition::Eq(a, b) | Condition::NotEq(a, b) => Ok(GuardConjunct::RowEq {
            negated: matches!(atom, Condition::NotEq(..)),
            a: on_row(a)?,
            b: on_row(b)?,
        }),
        Condition::InTable(c, t) | Condition::NotInTable(c, t) => {
            let row = on_row(c)?;
            in_table_probe(catalog, t)?.map(|e0| GuardConjunct::Probe {
                negated: matches!(atom, Condition::NotInTable(..)),
                row: Some(row),
                e0,
            })
        }
        Condition::Exists(select) => lower_exists(select, catalog, table, var),
        Condition::And(..) => unreachable!("conjuncts are flattened"),
    })
}

/// The closed query `E₀` of `IN TABLE t`: `t`'s one column, or why the
/// column cannot be probed. Fails on a table that is not one column wide,
/// which [`compile`] has already refused.
fn in_table_probe(catalog: &Catalog, t: &str) -> Result<std::result::Result<Expr, String>> {
    let (info, prop) = catalog.single_column(t)?;
    let schema = &catalog.schema;
    if schema.property(prop).src != info.class {
        return Ok(Err(format!(
            "`{t}`'s column is not a property of its class"
        )));
    }
    Ok(Ok(Expr::prop(prop).project([schema.prop_name(prop)])))
}

/// An `EXISTS` conjunct as a [`GuardConjunct::Probe`] on its linking
/// equality, or why it stays row by row. `EXISTS` asks for one binding
/// of the `FROM` tables satisfying the `WHERE` chain; when the row is
/// read only in `x = t.c`, that is `t.c ∩ E₀ ≠ ∅` with `E₀` the `x`
/// values of the bindings satisfying the rest.
fn lower_exists<'a>(
    select: &'a Select,
    catalog: &'a Catalog,
    table: &'a TableInfo,
    var: &'a str,
) -> std::result::Result<GuardConjunct, String> {
    let mut c = SelectCompiler::new(catalog, table, var);
    c.gather_select(select)
        .map_err(|e| format!("the EXISTS does not compile: {e}"))?;
    match c.row_reads.len() {
        0 | 1 => {}
        n => {
            let names: Vec<&str> = c.row_reads.iter().map(|r| r.name.as_str()).collect();
            let times = if n == 2 {
                "twice".to_owned()
            } else {
                format!("{n} times")
            };
            return Err(format!(
                "the EXISTS reads the row {times} ({})",
                names.join(", ")
            ));
        }
    }
    let is_row = |a: &str| a == "self" || a.starts_with("self.");
    let (row, projection) = match c.row_reads.pop() {
        None => {
            let first = c.aliases.first().map(|(a, _)| a.clone());
            (None, first.ok_or("the EXISTS has no FROM table")?)
        }
        Some(read) => {
            let Some(k) = c.eqs.iter().position(|(a, b)| is_row(a) || is_row(b)) else {
                return Err(format!(
                    "the EXISTS projects a column of the row ({})",
                    read.name
                ));
            };
            let (a, b) = c.eqs.remove(k);
            let x = if is_row(&a) { b } else { a };
            c.used.remove(&read);
            (Some(read.column), x)
        }
    };
    let e0 = c
        .build(&projection, true)
        .map_err(|e| format!("the EXISTS does not compile: {e}"))?;
    let sig = Signature::new(vec![table.class]).map_err(|e| e.to_string())?;
    infer_schema(&e0, &catalog.schema, &update_params(&sig))
        .map_err(|e| format!("E₀ does not typecheck: {e}"))?;
    Ok(GuardConjunct::Probe {
        negated: false,
        row,
        e0,
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
        if self.condition.is_some() {
            // A guard makes the statement conditional — `col := E` always
            // replaces, so the algebraic model does not apply. Guarded
            // cursor updates stay interpreted-only.
            return Err(SqlError::Unsupported(
                "guarded cursor update has no algebraic form".to_owned(),
            ));
        }
        // The improve pass's set form unqualifies every `var.` reference
        // (`improve::strip_cursor_var`), which a shadowing alias would
        // redirect, so such an update keeps the interpreted loop.
        if crate::plan::shadows_select(&self.select, &self.var) {
            return Err(SqlError::Unsupported(format!(
                "a FROM alias shadows the cursor variable `{}`",
                self.var
            )));
        }
        let (expr, _attr) = select_to_expr(&self.select, &self.catalog, &self.table, &self.var)?;
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
                expr,
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
/// column, and the attribute the reference is read as.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Resolved {
    /// Tuple attribute of the binding (`"self"` or an alias name).
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
}

struct SelectCompiler<'a> {
    catalog: &'a Catalog,
    outer: &'a TableInfo,
    outer_var: &'a str,
    /// Collected FROM aliases (flattened across EXISTS nesting).
    aliases: Vec<(String, &'a TableInfo)>,
    /// The bindings in scope at the reference being resolved, as
    /// `crate::eval` binds them: the cursor tuple, then the enclosing
    /// selects' and the current one's `FROM` tables, outermost first.
    scopes: Vec<Bound<'a>>,
    /// The tuple attribute each of `scopes` binds: `self` for the cursor
    /// tuple, then each `FROM` table's alias attribute ([`Self::add_alias`]).
    scope_attrs: Vec<Attr>,
    /// Data column references to materialize as property joins, one per
    /// reference.
    used: BTreeSet<Resolved>,
    /// Equality constraints between resolved attributes.
    eqs: Vec<(Attr, Attr)>,
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
            fresh: 0,
            row_reads: Vec::new(),
        }
    }

    /// `true` once some column reference resolved to the cursor tuple.
    fn reads_row(&self) -> bool {
        !self.row_reads.is_empty()
    }

    /// Resolve every column of `select` (over the cursor tuple `outer_var`
    /// of `outer`); returns the compiler and the resolved projection.
    fn gather(
        select: &'a Select,
        catalog: &'a Catalog,
        outer: &'a TableInfo,
        outer_var: &'a str,
    ) -> Result<(Self, Resolved)> {
        let mut c = SelectCompiler::new(catalog, outer, outer_var);
        let projection = c
            .gather_select(select)?
            .ok_or_else(|| SqlError::Unsupported("SELECT * in a value subquery".to_owned()))?;
        Ok((c, projection))
    }

    /// Register a `FROM` table (or an `IN TABLE` probe) under `name` and
    /// return the tuple attribute it binds. A `FROM` alias named like the
    /// row shadows the row ([`crate::scope::resolve`]), so it binds a
    /// fresh attribute `name#k`, which no SQL name spells.
    fn add_alias(&mut self, name: &str, table: &'a TableInfo) -> Result<Attr> {
        if name == "self" || self.aliases.iter().any(|(a, _)| a == name) {
            return Err(SqlError::Unsupported(format!(
                "duplicate or reserved alias `{name}`"
            )));
        }
        let attr = if name == self.outer_var {
            self.fresh += 1;
            format!("{name}#{}", self.fresh)
        } else {
            name.to_owned()
        };
        self.aliases.push((attr.clone(), table));
        Ok(attr)
    }

    /// Resolve a column reference against the scopes in view
    /// ([`crate::scope::resolve`]) and give it its own attribute.
    fn resolve(&mut self, colref: &ColumnRef) -> Result<Resolved> {
        let r = resolve(colref, &self.scopes)?;
        let scope_attr = self.scope_attrs[r.scope].clone();
        let attr = match r.column {
            Column::Id => scope_attr.clone(),
            Column::Prop(_) => {
                let base = format!("{scope_attr}.{}", colref.column);
                let earlier = self
                    .used
                    .iter()
                    .filter(|u| u.scope_attr == scope_attr && u.column == r.column)
                    .count();
                match earlier {
                    0 => base,
                    k => format!("{base}#{}", k + 1),
                }
            }
        };
        let resolved = Resolved {
            scope_attr,
            name: colref.column.clone(),
            column: r.column,
            attr,
        };
        if resolved.scope_attr == "self" {
            self.row_reads.push(resolved.clone());
        }
        if resolved.column != Column::Id {
            self.used.insert(resolved.clone());
        }
        Ok(resolved)
    }

    fn gather_condition(&mut self, cond: &'a Condition) -> Result<()> {
        match cond {
            Condition::Eq(a, b) => {
                let ra = self.resolve(a)?;
                let rb = self.resolve(b)?;
                self.eqs.push((ra.attr, rb.attr));
                Ok(())
            }
            Condition::InTable(c, table) => {
                let rc = self.resolve(c)?;
                let (info, prop) = self.catalog.single_column(table)?;
                let name = info.columns.keys().next().expect("one column").clone();
                self.fresh += 1;
                let alias = format!("__{table}{}", self.fresh);
                self.add_alias(&alias, info)?;
                let member = Resolved {
                    attr: format!("{alias}.{name}"),
                    scope_attr: alias,
                    name,
                    column: Column::Prop(prop),
                };
                self.used.insert(member.clone());
                self.eqs.push((rc.attr, member.attr));
                Ok(())
            }
            Condition::NotEq(..) | Condition::NotInTable(..) => Err(SqlError::Unsupported(
                "negative atom in a compiled subquery (the positive algebra \
                 fragment cannot express set-level negation)"
                    .to_owned(),
            )),
            Condition::Exists(select) => self.gather_select(select).map(|_| ()),
            Condition::And(a, b) => {
                self.gather_condition(a)?;
                self.gather_condition(b)
            }
        }
    }

    /// Gather a (sub)select; returns the resolved projection (`None` for
    /// `SELECT *`). Its `FROM` tables are visible only inside it.
    fn gather_select(&mut self, select: &'a Select) -> Result<Option<Resolved>> {
        let outer_scopes = self.scopes.len();
        for item in &select.from {
            let info = self.catalog.lookup(&item.table)?;
            let attr = self.add_alias(item.name(), info)?;
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
            Projection::Star => None,
            Projection::Column(c) => Some(self.resolve(c)?),
        };
        self.scopes.truncate(outer_scopes);
        self.scope_attrs.truncate(outer_scopes);
        Ok(projection)
    }

    /// Assemble the final expression: the `FROM` tables joined onto the
    /// cursor tuple `self`, or, when `closed` (no column reads the cursor
    /// tuple), onto each other alone.
    fn build(self, projection: &str, closed: bool) -> Result<Expr> {
        let schema = &self.catalog.schema;
        let mut tables = self.aliases.iter().map(|(alias, table)| {
            let class_name = schema.class_name(table.class).to_owned();
            Expr::class(table.class).rename(class_name, alias.clone())
        });
        let mut acc = if closed {
            debug_assert!(!self.reads_row(), "a closed query reads the cursor tuple");
            tables.next().ok_or_else(|| {
                SqlError::Unsupported("value subquery without a FROM table".to_owned())
            })?
        } else {
            Expr::self_rel()
        };
        for table in tables {
            acc = acc.nat_join(table);
        }
        let mut eqs = self.eqs.clone();
        for r in &self.used {
            let Column::Prop(prop) = r.column else {
                unreachable!("used only holds data columns")
            };
            let (table, tuple_attr): (&TableInfo, String) = if r.scope_attr == "self" {
                // `par(·)` forbids renaming to `self`, so the cursor
                // tuple's property joins use a fresh tuple attribute
                // equated with `self` by a selection instead.
                (self.outer, format!("{}__t", r.attr))
            } else {
                let (a, t) = self
                    .aliases
                    .iter()
                    .find(|(a, _)| *a == r.scope_attr)
                    .expect("resolved against aliases");
                (t, a.clone())
            };
            let class_name = schema.class_name(table.class).to_owned();
            let prop_name = schema.prop_name(prop).to_owned();
            let join = Expr::prop(prop)
                .rename(class_name, tuple_attr.clone())
                .rename(prop_name, r.attr.clone());
            acc = acc.nat_join(join);
            if r.scope_attr == "self" {
                eqs.push(("self".to_owned(), tuple_attr));
            }
        }
        for (a, b) in &eqs {
            acc = acc.select_eq(a.clone(), b.clone());
        }
        Ok(acc.project([projection]))
    }
}

/// Compile a cursor-update subquery into a unary relational algebra
/// expression over `self` (the cursor tuple) and the object base's
/// relations. Returns the expression and its result attribute.
pub fn select_to_expr(
    select: &Select,
    catalog: &Catalog,
    outer: &TableInfo,
    outer_var: &str,
) -> Result<(Expr, Attr)> {
    let (c, projection) = SelectCompiler::gather(select, catalog, outer, outer_var)?;
    let attr = projection.attr;
    let expr = c.build(&attr, false)?;
    Ok((expr, attr))
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
                select_to_expr(&select, &catalog, employee, "t").is_err(),
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

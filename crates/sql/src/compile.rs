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
//! **Name resolution.** Following the paper's examples, an *unqualified*
//! column name refers to the cursor tuple when the cursor's table has
//! that column (`Salary`, `Manager` in statements (B)/(C)); otherwise it
//! resolves against the subquery's `FROM` tables, which must match
//! uniquely (`Old`, `New`).

use std::collections::BTreeSet;
use std::sync::Arc;

use receivers_core::algebraic::{AlgebraicMethod, Statement as AlgStatement};
use receivers_objectbase::{
    Edge, Instance, MethodOutcome, Oid, Receiver, ReceiverSet, Signature, UpdateMethod,
};
use receivers_relalg::par::par;
use receivers_relalg::typecheck::update_params;
use receivers_relalg::{infer_schema, Attr, Expr};

use receivers_obs as obs;

use crate::ast::{ColumnRef, Condition, CursorBody, Projection, Select, SqlStatement};
use crate::catalog::{Catalog, TableInfo};
use crate::error::{Result, SqlError};
use crate::eval::{eval_condition, eval_select, Binding, Scopes};

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

// ---------------------------------------------------------------------
// Set-oriented delete.
// ---------------------------------------------------------------------

/// `DELETE FROM t WHERE cond`, two-phase.
pub struct SetDelete {
    catalog: Catalog,
    table: TableInfo,
    condition: Condition,
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
                alias: "t".to_owned(),
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
    var: String,
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
                alias: "t".to_owned(),
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

    /// The value subquery as one parallel expression `par(E)` over `rec`
    /// (scheme `self`, the rows to update). By Lemma 6.7 its single
    /// evaluation yields exactly the pairs `(row, value)` with `value` in
    /// the row's [`SetUpdate::assignments`] values — a set update is
    /// two-phase, so no order-independence decision is needed. Fails,
    /// with the reason, when the subquery is outside the fragment
    /// [`select_to_expr`] compiles.
    pub(crate) fn values_query(&self) -> Result<Expr> {
        let (expr, _attr) = select_to_expr(&self.select, &self.catalog, &self.table, "t")?;
        // `par(·)` keeps a well-typed expression well-typed over `rec`.
        let sig = Signature::new(vec![self.table.class])?;
        infer_schema(&expr, &self.catalog.schema, &update_params(&sig))?;
        Ok(par(&expr)?)
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
// Cursor-based update.
// ---------------------------------------------------------------------

/// `FOR EACH t IN R DO [IF cond] UPDATE t SET col = (SELECT …)`.
pub struct CursorUpdate {
    catalog: Catalog,
    var: String,
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

/// A fully resolved column reference: the owning scope's tuple attribute
/// plus the column.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Resolved {
    /// Tuple attribute of the scope (`"self"` or an alias name).
    scope_attr: Attr,
    /// Column name (`None` = the identity column: the tuple itself).
    column: Option<String>,
}

impl Resolved {
    fn attr(&self) -> Attr {
        match &self.column {
            None => self.scope_attr.clone(),
            Some(c) => format!("{}.{}", self.scope_attr, c),
        }
    }
}

struct SelectCompiler<'a> {
    catalog: &'a Catalog,
    outer: &'a TableInfo,
    outer_var: &'a str,
    /// Collected FROM aliases (flattened across EXISTS nesting).
    aliases: Vec<(String, &'a TableInfo)>,
    /// Indices into `aliases` of the `FROM` tables in scope at the
    /// reference being resolved: the enclosing selects' and the current
    /// one's, outermost first — the scopes `crate::eval` binds.
    visible: Vec<usize>,
    /// Non-identity column references to materialize as property joins.
    used: BTreeSet<Resolved>,
    /// Equality constraints between resolved attributes.
    eqs: Vec<(Attr, Attr)>,
    fresh: usize,
}

impl<'a> SelectCompiler<'a> {
    fn add_alias(&mut self, name: &str, table: &'a TableInfo) -> Result<()> {
        if name == "self" || name == self.outer_var || self.aliases.iter().any(|(a, _)| a == name) {
            return Err(SqlError::Unsupported(format!(
                "duplicate or reserved alias `{name}`"
            )));
        }
        self.aliases.push((name.to_owned(), table));
        Ok(())
    }

    /// Resolve a column reference against the visible scopes. Unqualified
    /// references prefer the cursor tuple (the paper's convention), then
    /// the visible FROM tables.
    fn resolve(&mut self, colref: &ColumnRef) -> Result<Resolved> {
        let visible = || self.visible.iter().map(|&i| &self.aliases[i]);
        let (scope_attr, table): (Attr, &TableInfo) = match &colref.qualifier {
            Some(q) if q == self.outer_var => ("self".to_owned(), self.outer),
            Some(q) => {
                let (a, t) = visible()
                    .find(|(a, _)| a == q)
                    .ok_or_else(|| SqlError::UnknownAlias(q.clone()))?;
                (a.clone(), t)
            }
            None => {
                if self.outer.has_column(&colref.column) {
                    ("self".to_owned(), self.outer)
                } else {
                    let matches: Vec<&(String, &TableInfo)> = visible()
                        .filter(|(_, t)| t.has_column(&colref.column))
                        .collect();
                    match matches.as_slice() {
                        [(a, t)] => (a.clone(), t),
                        [] => {
                            return Err(SqlError::UnknownColumn {
                                column: colref.column.clone(),
                                scope: "any visible table".to_owned(),
                            })
                        }
                        _ => {
                            return Err(SqlError::Unsupported(format!(
                                "ambiguous column `{}`",
                                colref.column
                            )))
                        }
                    }
                }
            }
        };
        let resolved = if table.id_column == colref.column {
            Resolved {
                scope_attr,
                column: None,
            }
        } else {
            if table.column_prop(&colref.column).is_none() {
                return Err(SqlError::UnknownColumn {
                    column: colref.column.clone(),
                    scope: scope_attr,
                });
            }
            Resolved {
                scope_attr,
                column: Some(colref.column.clone()),
            }
        };
        if resolved.column.is_some() {
            self.used.insert(resolved.clone());
        }
        Ok(resolved)
    }

    fn gather_condition(&mut self, cond: &Condition) -> Result<()> {
        match cond {
            Condition::Eq(a, b) => {
                let ra = self.resolve(a)?;
                let rb = self.resolve(b)?;
                self.eqs.push((ra.attr(), rb.attr()));
                Ok(())
            }
            Condition::InTable(c, table) => {
                let rc = self.resolve(c)?;
                let (info, _prop) = self.catalog.single_column(table)?;
                let col_name = info.columns.keys().next().expect("one column").clone();
                self.fresh += 1;
                let alias = format!("__{table}{}", self.fresh);
                self.add_alias(&alias, info)?;
                let member = Resolved {
                    scope_attr: alias,
                    column: Some(col_name),
                };
                self.used.insert(member.clone());
                self.eqs.push((rc.attr(), member.attr()));
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
    fn gather_select(&mut self, select: &Select) -> Result<Option<Resolved>> {
        let outer_scopes = self.visible.len();
        for item in &select.from {
            let info = self.catalog.lookup(&item.table)?;
            self.add_alias(item.name(), info)?;
            self.visible.push(self.aliases.len() - 1);
        }
        if let Some(w) = &select.where_clause {
            self.gather_condition(w)?;
        }
        let projection = match &select.projection {
            Projection::Star => None,
            Projection::Column(c) => Some(self.resolve(c)?),
        };
        self.visible.truncate(outer_scopes);
        Ok(projection)
    }

    /// Assemble the final expression.
    fn build(self, projection: &Resolved) -> Result<Expr> {
        let schema = &self.catalog.schema;
        let mut acc = Expr::self_rel();
        for (alias, table) in &self.aliases {
            let class_name = schema.class_name(table.class).to_owned();
            acc = acc.nat_join(Expr::class(table.class).rename(class_name, alias.clone()));
        }
        let mut eqs = self.eqs.clone();
        for r in &self.used {
            let col = r.column.as_deref().expect("used only holds data columns");
            let (table, tuple_attr): (&TableInfo, String) = if r.scope_attr == "self" {
                // `par(·)` forbids renaming to `self`, so the cursor
                // tuple's property joins use a fresh tuple attribute
                // equated with `self` by a selection instead.
                (self.outer, format!("{}__t", r.attr()))
            } else {
                let (a, t) = self
                    .aliases
                    .iter()
                    .find(|(a, _)| *a == r.scope_attr)
                    .expect("resolved against aliases");
                (t, a.clone())
            };
            let prop = table.column_prop(col).expect("validated in resolve");
            let class_name = schema.class_name(table.class).to_owned();
            let prop_name = schema.prop_name(prop).to_owned();
            let join = Expr::prop(prop)
                .rename(class_name, tuple_attr.clone())
                .rename(prop_name, r.attr());
            acc = acc.nat_join(join);
            if r.scope_attr == "self" {
                eqs.push(("self".to_owned(), tuple_attr));
            }
        }
        for (a, b) in &eqs {
            acc = acc.select_eq(a.clone(), b.clone());
        }
        Ok(acc.project([projection.attr()]))
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
    let mut c = SelectCompiler {
        catalog,
        outer,
        outer_var,
        aliases: Vec::new(),
        visible: Vec::new(),
        used: BTreeSet::new(),
        eqs: Vec::new(),
        fresh: 0,
    };
    let proj = c
        .gather_select(select)?
        .ok_or_else(|| SqlError::Unsupported("SELECT * in a value subquery".to_owned()))?;
    let attr = proj.attr();
    let expr = c.build(&proj)?;
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

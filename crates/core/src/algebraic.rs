//! Algebraic update methods (Definition 5.4).
//!
//! An algebraic method of type σ is a set of statements `a := E`, at most
//! one per property `a` of the receiving class, where `E` is a unary
//! relational algebra expression over the object base's relations and the
//! special singleton relations `self`, `arg₁`, …, `argₖ`. Applying the
//! method to `(I, t)` replaces, for each statement, all `a`-edges leaving
//! the receiving object by edges to the elements of `E(I, t)`.
//!
//! **Well-definedness.** The requirement `E(I,t) ⊆ B(I)` (where `B` is
//! `a`'s type) holds *by construction* here: the algebra is many-sorted
//! (typed), so every value in `E`'s result is drawn from `I`'s relations
//! or the receiver — precisely the solution the paper attributes to
//! Van den Bussche & Cabibbo \[1998\].

use std::collections::BTreeSet;

use receivers_objectbase::{
    undo_ops, DeltaObserver, DeltaOp, InPlaceOutcome, Instance, InstanceTxn, MethodOutcome, Oid,
    PropId, Receiver, Signature, UpdateMethod,
};
use receivers_obs as obs;
use receivers_relalg::database::Database;
use receivers_relalg::eval::{eval, Bindings};
use receivers_relalg::typecheck::{update_params, ParamSchemas};
use receivers_relalg::view::DatabaseView;
use receivers_relalg::{infer_schema, is_positive, Expr};

use crate::error::{CoreError, Result};

obs::counter!(C_RECEIVERS_APPLIED, "core.seq.receivers_applied");
obs::counter!(C_ROLLBACKS, "core.seq.rollbacks");
obs::counter!(C_BATCH_ROWS, "core.batch.rows_applied");

/// One algebraic update statement `a := E`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Statement {
    /// The updated property `a` (of the receiving class).
    pub property: PropId,
    /// The update expression `E`.
    pub expr: Expr,
}

/// An algebraic update method (Definition 5.4(4)).
#[derive(Debug, Clone)]
pub struct AlgebraicMethod {
    name: String,
    schema: std::sync::Arc<receivers_objectbase::Schema>,
    signature: Signature,
    statements: Vec<Statement>,
    params: ParamSchemas,
}

impl AlgebraicMethod {
    /// Build a method, validating every statement:
    ///
    /// * each updated property leaves the receiving class;
    /// * at most one statement per property;
    /// * each expression is unary with the property's target type.
    pub fn new(
        name: impl Into<String>,
        schema: std::sync::Arc<receivers_objectbase::Schema>,
        signature: Signature,
        statements: Vec<Statement>,
    ) -> Result<Self> {
        let params = update_params(&signature);
        for (i, st) in statements.iter().enumerate() {
            let prop = schema.property(st.property);
            if prop.src != signature.receiving_class() {
                return Err(CoreError::NotReceiverProperty {
                    property: prop.name.clone(),
                    receiving: schema.class_name(signature.receiving_class()).to_owned(),
                });
            }
            if statements[..i].iter().any(|s| s.property == st.property) {
                return Err(CoreError::DuplicateStatement(prop.name.clone()));
            }
            let scheme = infer_schema(&st.expr, &schema, &params)?;
            if scheme.arity() != 1 {
                return Err(CoreError::IllTypedStatement {
                    property: prop.name.clone(),
                    detail: format!("expression has arity {}, expected 1", scheme.arity()),
                });
            }
            let dom = scheme.columns()[0].1;
            if dom != prop.dst {
                return Err(CoreError::IllTypedStatement {
                    property: prop.name.clone(),
                    detail: format!(
                        "expression has domain `{}`, property expects `{}`",
                        schema.class_name(dom),
                        schema.class_name(prop.dst)
                    ),
                });
            }
        }
        Ok(Self {
            name: name.into(),
            schema,
            signature,
            statements,
            params,
        })
    }

    /// The object-base schema.
    pub fn schema(&self) -> &std::sync::Arc<receivers_objectbase::Schema> {
        &self.schema
    }

    /// The statements.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// The declared parameter schemes (`self`, `arg1`, …).
    pub fn params(&self) -> &ParamSchemas {
        &self.params
    }

    /// Whether every update expression is positive (Definition 5.10).
    pub fn is_positive(&self) -> bool {
        self.statements.iter().all(|s| is_positive(&s.expr))
    }

    /// Properties updated by this method (the set `A`).
    pub fn updated_properties(&self) -> Vec<PropId> {
        self.statements.iter().map(|s| s.property).collect()
    }

    /// Evaluate all statement expressions on `(I, t)` without applying
    /// them — the per-statement `E(I, t)` values.
    ///
    /// Builds a fresh relational encoding of `instance` (`O(N + E)`). When
    /// applying to many receivers, build the encoding once and use
    /// [`AlgebraicMethod::evaluate_on`] against a maintained
    /// [`DatabaseView`] instead.
    pub fn evaluate(
        &self,
        instance: &Instance,
        receiver: &Receiver,
    ) -> Result<Vec<(PropId, Vec<receivers_objectbase::Oid>)>> {
        self.evaluate_on(&Database::from_instance(instance), receiver)
    }

    /// Evaluate all statement expressions against an already-built
    /// relational encoding — the view-backed entry point: no per-receiver
    /// rebuild, and with the borrowing evaluator the cost is the probe,
    /// not the database size.
    pub fn evaluate_on(
        &self,
        db: &Database,
        receiver: &Receiver,
    ) -> Result<Vec<(PropId, Vec<receivers_objectbase::Oid>)>> {
        let bindings = Bindings::for_receiver(receiver);
        self.statements
            .iter()
            .map(|st| {
                let rel = eval(&st.expr, db, &bindings)?;
                let col = rel.schema().attrs().next().cloned().ok_or_else(|| {
                    CoreError::IllTypedStatement {
                        property: self.schema.prop_name(st.property).to_owned(),
                        detail: "nullary expression".to_owned(),
                    }
                })?;
                Ok((st.property, rel.column(&col).map_err(CoreError::from)?))
            })
            .collect()
    }

    /// Apply the method to each receiver of `order` in turn, evaluating
    /// every statement against the caller's maintained `view` and editing
    /// the instance through observed transactions, so view and instance
    /// stay bit-identical to a fresh rebuild after every statement.
    ///
    /// On any failure the *entire* sequence is rolled back — the
    /// accumulated delta log is replayed in reverse over both instance and
    /// view — so a non-[`Applied`](InPlaceOutcome::Applied) outcome leaves
    /// both exactly as passed in (the sequence-level rollback contract).
    ///
    /// To make the sequence part of a larger atomic unit — one durable
    /// record, one rollback — use [`Self::apply_sequence_logged`] with the
    /// unit's log.
    ///
    /// Per receiver the cost is `O(probe + changed edges)`; the `O(N + E)`
    /// view construction is paid once by the caller, not once per receiver.
    pub fn apply_sequence_viewed(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        order: &[Receiver],
    ) -> InPlaceOutcome {
        self.apply_sequence_logged(instance, view, order, &mut Vec::new())
    }

    /// [`Self::apply_sequence_viewed`] writing into the caller's delta
    /// log: every receiver's committed ops are appended to `log`, so the
    /// sequence joins an enclosing unit — the `sql::plan` stage loop's
    /// program log — which the caller commits or undoes as a whole.
    ///
    /// Each statement replaces the receiver's row in one
    /// [`InstanceTxn::replace_successors`], so an edge the new value keeps
    /// logs no op.
    ///
    /// On failure the sequence undoes exactly the ops it appended and
    /// truncates `log` back, leaving instance, view and log as passed in;
    /// ops already in the log are the caller's to undo, so nothing is ever
    /// undone twice.
    pub fn apply_sequence_logged(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        order: &[Receiver],
        log: &mut Vec<DeltaOp>,
    ) -> InPlaceOutcome {
        let _seq_span = obs::span("core.sequence");
        let start = log.len();
        for t in order {
            let _apply_span = obs::span("core.apply");
            if let Err(why) = self.apply_receiver(instance, view, t, log) {
                C_ROLLBACKS.incr();
                undo_ops(instance, view, &log[start..]);
                log.truncate(start);
                return InPlaceOutcome::Undefined(why);
            }
            C_RECEIVERS_APPLIED.incr();
        }
        InPlaceOutcome::Applied
    }

    /// One receiver of [`Self::apply_sequence_logged`]: validate, evaluate
    /// against `view`, then replace each updated row in one observed
    /// transaction committed into `log`. On `Err` the transaction has
    /// rolled back, so nothing of this receiver is applied or logged.
    fn apply_receiver(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        t: &Receiver,
        log: &mut Vec<DeltaOp>,
    ) -> std::result::Result<(), String> {
        t.validate(&self.signature, instance)
            .map_err(|e| e.to_string())?;
        let results = self
            .evaluate_on(view.database(), t)
            .map_err(|e| e.to_string())?;
        let recv = t.receiving_object();
        let mut txn = InstanceTxn::begin_observed(instance, view);
        for (prop, values) in results {
            txn.replace_successors(recv, prop, &values)
                .map_err(|e| e.to_string())?;
        }
        txn.commit_into(log);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Vectorized batch appliers.
// ---------------------------------------------------------------------
//
// The phase-2 bodies of precomputed set-oriented updates, applied in one
// observed transaction per batch. Program executors (the `sql::plan`
// stage loop) evaluate a whole stage's rows/values first, then apply the
// batch through one of these, which commits it into the program log the
// caller passes. The three-argument forms keep no log.

/// Remove `victims` (with edge cascade, in the given order) in one
/// observed transaction committed into `log` — the phase-2 body of a
/// set-oriented delete.
pub fn apply_delete_batch_logged(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    victims: &[Oid],
    log: &mut Vec<DeltaOp>,
) {
    let _span = obs::span("core.batch.delete");
    C_BATCH_ROWS.add(victims.len() as u64);
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    for &v in victims {
        txn.remove_object_cascade(v);
    }
    txn.commit_into(log);
}

/// [`apply_delete_batch_logged`] keeping no log.
pub fn apply_delete_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    victims: &[Oid],
) {
    apply_delete_batch_logged(instance, observer, victims, &mut Vec::new());
}

/// Replace each assigned row's `prop` edges by its precomputed values,
/// in one observed transaction committed into `log` — the phase-2 body
/// of a set-oriented update. Rows absent from `assignments` keep their
/// old edges. A row's values may be owned or borrowed (`V` is `Vec<Oid>`
/// or a shared `&[Oid]`).
///
/// The batch is one [`InstanceTxn::replace_rows`]: one index write for
/// all rows, one check per distinct endpoint, and only the effective
/// edits logged, row by row. Rows in any order are written in ascending
/// source order. A value that is not a typed object of the instance, or
/// a row assigned twice, fails the batch with nothing applied: instance,
/// observer and `log` are as passed in.
pub fn try_apply_assignment_batch<V: AsRef<[Oid]>>(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    prop: PropId,
    assignments: &[(Oid, V)],
    log: &mut Vec<DeltaOp>,
) -> Result<()> {
    let _span = obs::span("core.batch.assign");
    C_BATCH_ROWS.add(assignments.len() as u64);
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    txn.replace_rows(prop, assignments)?;
    txn.commit_into(log);
    Ok(())
}

/// [`try_apply_assignment_batch`] for batches known to be well typed,
/// keeping no log.
///
/// # Panics
///
/// When the batch fails (after rolling it back).
pub fn apply_assignment_batch<V: AsRef<[Oid]>>(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    prop: PropId,
    assignments: &[(Oid, V)],
) {
    if let Err(e) =
        try_apply_assignment_batch(instance, observer, prop, assignments, &mut Vec::new())
    {
        panic!("{e}");
    }
}

/// The replacement discipline of [`crate::apply_par`] (Definition 6.2) as
/// one observed transaction committed into `log`: every receiving
/// object's `prop` row becomes the values its `(receiver, value)` pairs
/// give it, all rows in one [`InstanceTxn::replace_rows`] — a receiver
/// without pairs gets the empty list, so it loses the property.
///
/// Fails with nothing applied or logged when a pair's receiver is not in
/// `receiving` ([`CoreError::PairOutsideReceivers`], found before any
/// value is checked) or a value is not a typed object of the instance.
pub fn try_apply_replacement_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    prop: PropId,
    receiving: &BTreeSet<Oid>,
    pairs: &[(Oid, Oid)],
    log: &mut Vec<DeltaOp>,
) -> Result<()> {
    let _span = obs::span("core.batch.replace");
    C_BATCH_ROWS.add(receiving.len() as u64);
    let mut sorted;
    let mut rest = if pairs.is_sorted() {
        pairs
    } else {
        sorted = pairs.to_vec();
        sorted.sort_unstable();
        &sorted[..]
    };
    let values: Vec<Oid> = rest.iter().map(|&(_, v)| v).collect();
    let mut rows: Vec<(Oid, &[Oid])> = Vec::with_capacity(receiving.len());
    let mut at = 0;
    for &o0 in receiving {
        if let Some(&(stray, _)) = rest.first().filter(|&&(o, _)| o < o0) {
            return Err(CoreError::PairOutsideReceivers(stray));
        }
        let n = rest.partition_point(|&(o, _)| o == o0);
        rows.push((o0, &values[at..at + n]));
        rest = &rest[n..];
        at += n;
    }
    if let Some(&(stray, _)) = rest.first() {
        return Err(CoreError::PairOutsideReceivers(stray));
    }
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    txn.replace_rows(prop, &rows)?;
    txn.commit_into(log);
    Ok(())
}

/// [`try_apply_replacement_batch`] for batches known to be consistent,
/// keeping no log.
///
/// # Panics
///
/// When the batch fails (after rolling it back).
pub fn apply_replacement_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    prop: PropId,
    receiving: &BTreeSet<Oid>,
    pairs: &[(Oid, Oid)],
) {
    if let Err(e) =
        try_apply_replacement_batch(instance, observer, prop, receiving, pairs, &mut Vec::new())
    {
        panic!("{e}");
    }
}

impl UpdateMethod for AlgebraicMethod {
    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn apply(&self, instance: &Instance, receiver: &Receiver) -> MethodOutcome {
        let mut out = instance.clone();
        match self.apply_in_place(&mut out, receiver) {
            InPlaceOutcome::Applied => MethodOutcome::Done(out),
            InPlaceOutcome::Diverges => MethodOutcome::Diverges,
            InPlaceOutcome::Undefined(why) => MethodOutcome::Undefined(why),
        }
    }

    /// Native in-place application: all statement expressions are evaluated
    /// *before* any mutation, so the subsequent edit — replacing the
    /// receiving object's updated property edges under an [`InstanceTxn`] —
    /// costs `O(changed edges)` and needs no instance clone. Implemented as
    /// the single-receiver case of the viewed sequence application.
    fn apply_in_place(&self, instance: &mut Instance, receiver: &Receiver) -> InPlaceOutcome {
        self.apply_in_place_sequence(instance, std::slice::from_ref(receiver))
    }

    /// Build-once, maintain-incrementally sequence application: one
    /// relational view construction per *sequence*, maintained edge-by-edge
    /// from the delta log across receivers — `O(E + changed edges)` for the
    /// whole sequence instead of `O(n·E)` per-receiver rebuilds.
    fn apply_in_place_sequence(
        &self,
        instance: &mut Instance,
        order: &[Receiver],
    ) -> InPlaceOutcome {
        if order.is_empty() {
            return InPlaceOutcome::Applied;
        }
        let mut view = DatabaseView::new(instance);
        self.apply_sequence_viewed(instance, &mut view, order)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::examples::{beer_schema, figure2, figure3, figure4};
    use receivers_objectbase::{Edge, ObjectBaseError};
    use std::sync::Arc;

    fn add_bar_method() -> (receivers_objectbase::examples::BeerSchema, AlgebraicMethod) {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let expr = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .project(["frequents"])
            .union(Expr::arg(1));
        let m = AlgebraicMethod::new(
            "add_bar",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.frequents,
                expr,
            }],
        )
        .unwrap();
        (s, m)
    }

    /// Figure 3: add_bar(I, [Drinker₁, Bar₃]).
    #[test]
    fn add_bar_reproduces_figure_3() {
        let (s, m) = add_bar_method();
        let (i, o) = figure2(&s);
        let t = Receiver::new(vec![o.d1, o.bar3]);
        let out = m.apply(&i, &t).expect_done("add_bar");
        assert_eq!(out, figure3(&s));
    }

    /// Figure 4: favorite_bar(I, [Drinker₁, Bar₁]).
    #[test]
    fn favorite_bar_reproduces_figure_4() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let m = AlgebraicMethod::new(
            "favorite_bar",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.frequents,
                expr: Expr::arg(1),
            }],
        )
        .unwrap();
        let (i, o) = figure2(&s);
        let t = Receiver::new(vec![o.d1, o.bar1]);
        let out = m.apply(&i, &t).expect_done("favorite_bar");
        assert_eq!(out, figure4(&s));
    }

    /// delete_bar (Example 5.11) is positive yet deletes information.
    #[test]
    fn delete_bar_is_positive_and_deletes() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let expr = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .join_ne(Expr::arg(1), "frequents", "arg1")
            .project(["frequents"]);
        let m = AlgebraicMethod::new(
            "delete_bar",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.frequents,
                expr,
            }],
        )
        .unwrap();
        assert!(m.is_positive());
        let (i, o) = figure2(&s);
        let t = Receiver::new(vec![o.d1, o.bar1]);
        let out = m.apply(&i, &t).expect_done("delete_bar");
        let remaining: Vec<_> = out.successors(o.d1, s.frequents).collect();
        assert_eq!(remaining, vec![o.bar2]);
    }

    #[test]
    fn statements_must_update_receiving_class_properties() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.beer]).unwrap();
        // serves is a Bar property, not a Drinker property.
        let err = AlgebraicMethod::new(
            "bad",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.serves,
                expr: Expr::arg(1),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NotReceiverProperty { .. }));
    }

    #[test]
    fn duplicate_statements_rejected() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let st = Statement {
            property: s.frequents,
            expr: Expr::arg(1),
        };
        let err = AlgebraicMethod::new("dup", Arc::clone(&s.schema), sig, vec![st.clone(), st])
            .unwrap_err();
        assert!(matches!(err, CoreError::DuplicateStatement(_)));
    }

    #[test]
    fn ill_typed_statement_rejected() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.beer]).unwrap();
        // frequents expects Bar values but arg1 is a Beer.
        let err = AlgebraicMethod::new(
            "bad",
            Arc::clone(&s.schema),
            sig,
            vec![Statement {
                property: s.frequents,
                expr: Expr::arg(1),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::IllTypedStatement { .. }));
    }

    /// Each statement replaces the receiver's row as a whole: a receiver
    /// whose new value equals its old one logs no op, and a changed row
    /// logs only its effective edits — the kept edges are neither removed
    /// nor re-added.
    #[test]
    fn logged_sequence_logs_only_effective_row_edits() {
        let (s, m) = add_bar_method();
        let (mut i, o) = figure2(&s);
        let mut view = DatabaseView::new(&i);
        let mut log = Vec::new();
        let unchanged = [Receiver::new(vec![o.d1, o.bar1])];
        let out = m.apply_sequence_logged(&mut i, &mut view, &unchanged, &mut log);
        assert_eq!(out, InPlaceOutcome::Applied);
        assert!(log.is_empty(), "an unchanged row logs nothing: {log:?}");
        assert_eq!(i, figure2(&s).0);

        let grown = [Receiver::new(vec![o.d1, o.bar3])];
        let out = m.apply_sequence_logged(&mut i, &mut view, &grown, &mut log);
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(
            log,
            vec![DeltaOp::AddedEdge(Edge::new(o.d1, s.frequents, o.bar3))]
        );
        assert_eq!(i, figure3(&s));
        assert!(view.matches_rebuild(&i));
    }

    /// A failing sequence that joins a caller's log undoes exactly its
    /// own ops: the caller's earlier ops stay applied and in the log, so
    /// the caller's own rollback never undoes anything twice.
    #[test]
    fn logged_sequence_failure_undoes_only_its_own_ops() {
        let (s, m) = add_bar_method();
        let (mut i, o) = figure2(&s);
        let mut view = DatabaseView::new(&i);
        let mut log = Vec::new();
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        txn.commit_into(&mut log);
        let (after_first, logged) = (i.clone(), log.clone());

        let ghost = Oid::new(s.bar, 999);
        let order = [
            Receiver::new(vec![o.d1, o.bar3]),
            Receiver::new(vec![o.d1, ghost]),
        ];
        let out = m.apply_sequence_logged(&mut i, &mut view, &order, &mut log);
        assert!(matches!(out, InPlaceOutcome::Undefined(_)), "{out:?}");
        assert_eq!(i, after_first);
        assert_eq!(log, logged);
        assert!(view.matches_rebuild(&i));

        undo_ops(&mut i, &mut view, &log);
        assert_eq!(i, figure2(&s).0);
        assert!(view.matches_rebuild(&i));
    }

    /// Figure 2 plus a second drinker `d2` frequenting `bar3`, after one
    /// committed batch (`d1` now frequents only `bar3`) in the program
    /// log.
    fn logged_figure2() -> (
        receivers_objectbase::examples::BeerSchema,
        receivers_objectbase::examples::Fig2Objects,
        Oid,
        Instance,
        DatabaseView,
        Vec<DeltaOp>,
    ) {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let d2 = Oid::new(s.drinker, 7);
        i.add_object(d2);
        i.link(d2, s.frequents, o.bar3).unwrap();
        let mut view = DatabaseView::new(&i);
        let mut log = Vec::new();
        let row = [(o.d1, vec![o.bar3])];
        try_apply_assignment_batch(&mut i, &mut view, s.frequents, &row, &mut log).unwrap();
        assert!(!log.is_empty());
        (s, o, d2, i, view, log)
    }

    /// An assignment value that is not an object of the instance, or not
    /// of the property's type, fails the batch: `Err`, and instance, view
    /// and program log are as they were — even though the faulty row
    /// comes after rows the batch had already replaced.
    #[test]
    fn assignment_batch_fault_rolls_back() {
        let (s, o, d2, mut i, mut view, mut log) = logged_figure2();
        let (before, logged) = (i.clone(), log.clone());
        let ghost_bar = Oid::new(s.bar, 999);
        // An absent bar, and a present object of the wrong class.
        for bad in [ghost_bar, o.d1] {
            let rows = [(o.d1, vec![o.bar1, o.bar2]), (d2, vec![o.bar1, bad])];
            let err = try_apply_assignment_batch(&mut i, &mut view, s.frequents, &rows, &mut log)
                .expect_err("faulty value");
            assert!(matches!(err, CoreError::ObjectBase(_)), "{err}");
            assert_eq!(i, before);
            assert_eq!(log, logged);
            assert!(view.matches_rebuild(&i));
        }
    }

    /// Rows in any order are written, and logged, in ascending source
    /// order; a row assigned twice fails the batch before anything is
    /// written.
    #[test]
    fn assignment_batch_sorts_rows_and_refuses_a_repeated_row() {
        let (s, o, d2, mut i, mut view, mut log) = logged_figure2();
        let (before, logged) = (i.clone(), log.clone());
        let rows = [(d2, vec![o.bar1]), (o.d1, vec![o.bar1, o.bar1, o.bar2])];
        let err = try_apply_assignment_batch(
            &mut i,
            &mut view,
            s.frequents,
            &[rows[0].clone(), rows[1].clone(), (d2, vec![o.bar2])],
            &mut log,
        )
        .expect_err("repeated row");
        assert!(
            matches!(
                err,
                CoreError::ObjectBase(ObjectBaseError::DuplicateRow { .. })
            ),
            "{err}"
        );
        assert_eq!(i, before);
        assert_eq!(log, logged);
        assert!(view.matches_rebuild(&i));

        let mut log = Vec::new();
        try_apply_assignment_batch(&mut i, &mut view, s.frequents, &rows, &mut log).unwrap();
        let edge = |src, dst| Edge::new(src, s.frequents, dst);
        assert_eq!(
            log,
            vec![
                DeltaOp::RemovedEdge(edge(o.d1, o.bar3)),
                DeltaOp::AddedEdge(edge(o.d1, o.bar1)),
                DeltaOp::AddedEdge(edge(o.d1, o.bar2)),
                DeltaOp::RemovedEdge(edge(d2, o.bar3)),
                DeltaOp::AddedEdge(edge(d2, o.bar1)),
            ]
        );
        assert!(view.matches_rebuild(&i));
    }

    /// A replacement pair whose receiver is outside the receiving set —
    /// below, between or above its members — or whose value is not an
    /// object of the instance fails the batch with nothing applied.
    #[test]
    fn replacement_batch_fault_rolls_back() {
        let (s, o, d2, mut i, mut view, mut log) = logged_figure2();
        let (before, logged) = (i.clone(), log.clone());
        let outsider = |k| Oid::new(s.drinker, k);
        let receiving: BTreeSet<Oid> = [o.d1, d2].into();
        assert!(o.d1 < outsider(5) && outsider(5) < d2 && d2 < outsider(9));
        let cases = [
            vec![(o.d1, o.bar1), (outsider(5), o.bar2), (d2, o.bar1)],
            vec![(d2, o.bar2), (outsider(9), o.bar1)],
            vec![(d2, Oid::new(s.bar, 999))],
        ];
        for pairs in &cases {
            let err = try_apply_replacement_batch(
                &mut i,
                &mut view,
                s.frequents,
                &receiving,
                pairs,
                &mut log,
            )
            .expect_err("faulty pair");
            match (&err, pairs.len()) {
                (CoreError::ObjectBase(_), 1) => {}
                (CoreError::PairOutsideReceivers(r), _) => assert_ne!(receiving.get(r), Some(r)),
                _ => panic!("{err}"),
            }
            assert_eq!(i, before);
            assert_eq!(log, logged);
            assert!(view.matches_rebuild(&i));
        }
        let only_d2: BTreeSet<Oid> = [d2].into();
        let err = try_apply_replacement_batch(
            &mut i,
            &mut view,
            s.frequents,
            &only_d2,
            &[(o.d1, o.bar1)],
            &mut log,
        )
        .expect_err("receiver below the set");
        assert_eq!(err, CoreError::PairOutsideReceivers(o.d1));
        assert_eq!(i, before);
        assert_eq!(log, logged);
    }

    /// Unsorted, duplicated pairs are grouped per receiver; a receiver
    /// without pairs loses the property; retained edges log no op.
    #[test]
    fn replacement_batch_groups_pairs_and_clears_pairless_receivers() {
        let (s, o, d2, mut i, mut view, _) = logged_figure2();
        let mut log = Vec::new();
        let receiving: BTreeSet<Oid> = [o.d1, d2].into();
        let pairs = [(o.d1, o.bar2), (o.d1, o.bar3), (o.d1, o.bar2)];
        try_apply_replacement_batch(&mut i, &mut view, s.frequents, &receiving, &pairs, &mut log)
            .unwrap();
        let succ = |i: &Instance, r| i.successors(r, s.frequents).collect::<Vec<_>>();
        assert_eq!(succ(&i, o.d1), vec![o.bar2, o.bar3]);
        assert!(succ(&i, d2).is_empty());
        assert_eq!(
            log,
            vec![
                DeltaOp::AddedEdge(Edge::new(o.d1, s.frequents, o.bar2)),
                DeltaOp::RemovedEdge(Edge::new(d2, s.frequents, o.bar3)),
            ]
        );
        assert!(view.matches_rebuild(&i));
    }

    /// Methods cannot create or delete objects — only edges of the
    /// receiving object change (Section 5.2).
    #[test]
    fn only_receiver_edges_change() {
        let (s, m) = add_bar_method();
        let (i, o) = figure2(&s);
        let t = Receiver::new(vec![o.d1, o.bar3]);
        let out = m.apply(&i, &t).expect_done("add_bar");
        assert_eq!(
            i.nodes().collect::<Vec<_>>(),
            out.nodes().collect::<Vec<_>>()
        );
        for e in out.edges() {
            if !i.contains_edge(&e) {
                assert_eq!(e.src, o.d1);
            }
        }
    }
}

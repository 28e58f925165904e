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
    undo_ops, DeltaObserver, DeltaOp, Edge, InPlaceOutcome, Instance, InstanceTxn, MethodOutcome,
    Oid, PropId, Receiver, Signature, UpdateMethod,
};
use receivers_obs as obs;
use receivers_relalg::database::Database;
use receivers_relalg::eval::{eval, Bindings};
use receivers_relalg::typecheck::{update_params, ParamSchemas};
use receivers_relalg::view::{DatabaseView, ViewObserver};
use receivers_relalg::{infer_schema, is_positive, Expr};

use crate::error::{CoreError, Result};

obs::counter!(C_RECEIVERS_APPLIED, "core.seq.receivers_applied");
obs::counter!(C_ROLLBACKS, "core.seq.rollbacks");
obs::counter!(C_BATCH_ROWS, "core.batch.rows_applied");

/// One algebraic update statement `a := E`.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// `view` is any [`ViewObserver`]: a bare [`DatabaseView`], or a
    /// `receivers_wal::DurableSink` around one, which logs every
    /// receiver's commit as one WAL record and a rollback as one
    /// compensation record — then check the sink's `take_error` after the
    /// call.
    ///
    /// Per receiver the cost is `O(probe + changed edges)`; the `O(N + E)`
    /// view construction is paid once by the caller, not once per receiver.
    pub fn apply_sequence_viewed(
        &self,
        instance: &mut Instance,
        view: &mut dyn ViewObserver,
        order: &[Receiver],
    ) -> InPlaceOutcome {
        let _seq_span = obs::span("core.sequence");
        let mut seq_log: Vec<DeltaOp> = Vec::new();
        for t in order {
            let _apply_span = obs::span("core.apply");
            if let Err(e) = t.validate(&self.signature, instance) {
                C_ROLLBACKS.incr();
                undo_ops(instance, view, &seq_log);
                return InPlaceOutcome::Undefined(e.to_string());
            }
            let results = match self.evaluate_on(view.database(), t) {
                Ok(r) => r,
                Err(e) => {
                    C_ROLLBACKS.incr();
                    undo_ops(instance, view, &seq_log);
                    return InPlaceOutcome::Undefined(e.to_string());
                }
            };
            let recv = t.receiving_object();
            let mut txn = InstanceTxn::begin_observed(instance, view);
            for (prop, values) in results {
                let old: Vec<Oid> = txn.instance().successors(recv, prop).collect();
                for v in old {
                    txn.remove_edge(&Edge::new(recv, prop, v));
                }
                for v in values {
                    txn.add_edge(Edge::new(recv, prop, v))
                        .expect("typed evaluation only yields objects of I");
                }
            }
            txn.commit_into(&mut seq_log);
            C_RECEIVERS_APPLIED.incr();
        }
        InPlaceOutcome::Applied
    }
}

// ---------------------------------------------------------------------
// Vectorized batch appliers.
// ---------------------------------------------------------------------
//
// The phase-2 bodies of precomputed set-oriented updates, applied in one
// observed transaction per batch. Program executors (the `sql::plan`
// drivers) evaluate a whole stage's rows/values first, then commit the
// batch through one of these — the observer sees one `batch_committed`
// per stage, which is also the WAL-record granularity of the durable
// driver.

/// Remove `victims` (with edge cascade, in the given order) in one
/// observed transaction — the phase-2 body of a set-oriented delete.
pub fn apply_delete_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    victims: &[Oid],
) {
    let _span = obs::span("core.batch.delete");
    C_BATCH_ROWS.add(victims.len() as u64);
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    for &v in victims {
        txn.remove_object_cascade(v);
    }
    txn.commit();
}

/// Replace each assigned row's `prop` edges by its precomputed values,
/// in one observed transaction — the phase-2 body of a set-oriented
/// update. Rows absent from `assignments` keep their old edges.
pub fn apply_assignment_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    prop: PropId,
    assignments: &[(Oid, Vec<Oid>)],
) {
    let _span = obs::span("core.batch.assign");
    C_BATCH_ROWS.add(assignments.len() as u64);
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    for (tuple, values) in assignments {
        let old: Vec<Oid> = txn.instance().successors(*tuple, prop).collect();
        for v in old {
            txn.remove_edge(&Edge::new(*tuple, prop, v));
        }
        for &v in values {
            txn.add_edge(Edge::new(*tuple, prop, v))
                .expect("typed evaluation only yields objects of I");
        }
    }
    txn.commit();
}

/// The replacement discipline of [`crate::apply_par`] (Definition 6.2) as
/// one observed transaction: clear `prop` on *every* receiving object
/// (receivers whose expression came up empty lose the property), then add
/// the `(receiver, value)` pairs of the single parallel evaluation.
pub fn apply_replacement_batch(
    instance: &mut Instance,
    observer: &mut dyn DeltaObserver,
    prop: PropId,
    receiving: &BTreeSet<Oid>,
    pairs: &[(Oid, Oid)],
) {
    let _span = obs::span("core.batch.replace");
    C_BATCH_ROWS.add(receiving.len() as u64);
    let mut txn = InstanceTxn::begin_observed(instance, observer);
    for &o0 in receiving {
        let old: Vec<Oid> = txn.instance().successors(o0, prop).collect();
        for v in old {
            txn.remove_edge(&Edge::new(o0, prop, v));
        }
    }
    for &(o0, v) in pairs {
        debug_assert!(receiving.contains(&o0));
        txn.add_edge(Edge::new(o0, prop, v))
            .expect("typed evaluation only yields objects of I");
    }
    txn.commit();
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

//! Observer protocol for incremental views over an instance.
//!
//! A materialized view of an [`Instance`](crate::Instance) — e.g. the
//! relational encoding of Section 5.1 — costs `O(N + E)` to build from
//! scratch. The delta log of an [`InstanceTxn`](crate::InstanceTxn) already
//! names exactly the items a method application touched, so a view can
//! instead be maintained **edge-by-edge**: every logged [`DeltaOp`] is
//! forwarded to a [`DeltaObserver`] as it happens, and every undone op is
//! forwarded again during rollback, keeping the view bit-identical to a
//! fresh rebuild at all times — including after a mid-sequence failure.
//!
//! An observer mirrors edits; it never collects them. A caller that needs
//! the committed log — a program's stage loop, which undoes it or hands it
//! to a durable store — takes it from
//! [`InstanceTxn::commit_into`](crate::InstanceTxn::commit_into), the one
//! way ops enter a caller-held log.
//!
//! The trait lives here, in the data-model crate, so that downstream crates
//! (the relational layer maintains a `DatabaseView`) can implement it
//! without creating a dependency cycle. The crate itself ships only the
//! protocol and the trivial [`NullObserver`].

use crate::delta::DeltaOp;
use crate::oid::Oid;
use crate::schema::PropId;

/// A consumer of instance deltas, kept in lockstep with the instance by
/// [`InstanceTxn::begin_observed`](crate::InstanceTxn::begin_observed) and
/// [`undo_ops`](crate::delta::undo_ops).
///
/// Contract: `applied` is called exactly once per *effective* edit, after
/// the instance has been mutated; `undone` is called exactly once per
/// reversed edit, after the inverse has been applied to the instance, in
/// reverse application order. A maintained view that mirrors each call is
/// therefore always equal to a from-scratch rebuild of the current
/// instance.
pub trait DeltaObserver {
    /// An edit was applied to the observed instance.
    fn applied(&mut self, op: &DeltaOp);
    /// A previously applied edit was reversed (rollback path).
    fn undone(&mut self, op: &DeltaOp);
    /// The current notification burst — one transaction's commit or
    /// rollback, or one wholesale [`undo_ops`](crate::delta::undo_ops) —
    /// is complete. A batching observer consolidates its buffered
    /// notifications here; observers that mirror each call eagerly keep
    /// the default no-op. The instance is only readable alongside the
    /// observer *between* bursts (the transaction holds the observer
    /// mutably), so a view is allowed to be internally stale until this
    /// fires.
    fn batch_end(&mut self) {}
    /// The `prop`-row of `src` was replaced in one step
    /// ([`InstanceTxn::replace_rows`](crate::InstanceTxn::replace_rows),
    /// one call per row, in ascending source order):
    /// the edges to `removed`, then the edges to `added` (each ascending,
    /// disjoint, all effective) are applied. Stands for one
    /// [`Self::applied`] per edit, in that order, which is the default; a
    /// view that consumes canonical-order row edits in bulk overrides it.
    fn row_replaced(&mut self, src: Oid, prop: PropId, removed: &[Oid], added: &[Oid]) {
        for op in DeltaOp::row_replacement(src, prop, removed, added) {
            self.applied(&op);
        }
    }
}

/// An observer that ignores every delta; useful as a default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl DeltaObserver for NullObserver {
    fn applied(&mut self, _op: &DeltaOp) {}
    fn undone(&mut self, _op: &DeltaOp) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{undo_ops, InstanceTxn};
    use crate::examples::{beer_schema, figure2};
    use crate::item::Edge;

    /// Records the stream of notifications for assertion.
    #[derive(Default)]
    struct Recorder {
        applied: Vec<DeltaOp>,
        undone: Vec<DeltaOp>,
    }

    impl DeltaObserver for Recorder {
        fn applied(&mut self, op: &DeltaOp) {
            self.applied.push(*op);
        }
        fn undone(&mut self, op: &DeltaOp) {
            self.undone.push(*op);
        }
    }

    #[test]
    fn observer_sees_each_effective_edit_once() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut rec = Recorder::default();
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut rec);
        assert!(!txn.add_object(o.d1), "no-op edits are not notified");
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        let fresh = txn.fresh_object(s.bar);
        txn.link(o.d1, s.frequents, fresh).unwrap();
        txn.commit();
        assert_eq!(
            rec.applied,
            vec![
                DeltaOp::RemovedEdge(Edge::new(o.d1, s.frequents, o.bar1)),
                DeltaOp::AddedNode(fresh),
                DeltaOp::AddedEdge(Edge::new(o.d1, s.frequents, fresh)),
            ]
        );
        assert!(rec.undone.is_empty());
    }

    #[test]
    fn rollback_notifies_undone_in_reverse_order() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let snapshot = i.clone();
        let mut rec = Recorder::default();
        {
            let mut txn = InstanceTxn::begin_observed(&mut i, &mut rec);
            txn.remove_object_cascade(o.bar1);
            // Dropped without commit: rollback-on-drop must notify too.
        }
        assert_eq!(i, snapshot);
        let mut reversed: Vec<DeltaOp> = rec.applied.clone();
        reversed.reverse();
        assert_eq!(rec.undone, reversed);
    }

    #[test]
    fn commit_into_then_undo_ops_round_trips() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let snapshot = i.clone();
        let mut rec = Recorder::default();
        let mut seq_log = Vec::new();
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut rec);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        txn.fresh_object(s.bar);
        txn.commit_into(&mut seq_log);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut rec);
        txn.remove_object_cascade(o.bar3);
        txn.commit_into(&mut seq_log);
        assert_ne!(i, snapshot);
        undo_ops(&mut i, &mut rec, &seq_log);
        assert_eq!(i, snapshot);
        assert_eq!(rec.undone.len(), rec.applied.len());
    }
}

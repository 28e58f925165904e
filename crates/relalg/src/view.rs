//! An incrementally maintained relational view of an object-base instance.
//!
//! [`Database::from_instance`] costs `O(N + E)`; re-running it before every
//! receiver of a sequential application is what kept the in-place
//! application path from reaching the paper's `O(changed edges)` bound.
//! [`DatabaseView`] is that same database, built **once** and thereafter
//! kept in lockstep with the instance by implementing
//! [`DeltaObserver`]: every op an observed
//! [`InstanceTxn`](receivers_objectbase::InstanceTxn) logs maps to one
//! touched-tuple update —
//!
//! | delta op         | view update                                  |
//! |------------------|----------------------------------------------|
//! | `AddedNode(o)`   | insert `{o}` into class relation `C(o)`      |
//! | `RemovedNode(o)` | remove `{o}` from class relation `C(o)`      |
//! | `AddedEdge(e)`   | insert `(src, dst)` into property rel. `Ca`  |
//! | `RemovedEdge(e)` | remove `(src, dst)` from property rel. `Ca`  |
//!
//! — and every *undone* op maps to the inverse update, so the view equals a
//! fresh rebuild after every transaction **and** after every rollback. The
//! differential test suites (`tests/view_differential.rs` and
//! `tests/relation_ops.rs` at the workspace root) pin this equality across
//! hundreds of random method sequences.
//!
//! On the flat [`TupleSet`](crate::tuples::TupleSet) storage a point edit
//! costs a memmove of the smaller side of the buffer, so the view does
//! **not** apply ops one at a time. It buffers the burst and consolidates
//! at [`DeltaObserver::batch_end`] (a transaction's commit or rollback):
//! ops that cancel within the burst — the entire log of a rolled-back
//! transaction, an added-then-removed fresh object — vanish without
//! touching a relation, and what remains is applied per relation, as
//! point edits for small nets or one linear merge for large ones. The
//! borrow rules make the staleness unobservable: whoever holds the
//! transaction holds the view mutably, so the view can only be read
//! between bursts, where it is always consolidated.

use std::collections::BTreeMap;

use receivers_objectbase::{ClassId, DeltaObserver, DeltaOp, Instance, Oid, PropId};
use receivers_obs as obs;

use crate::database::Database;

obs::counter!(C_BUILDS, "view.builds");
obs::counter!(C_BATCHES, "view.batches");
obs::counter!(C_RAW_OPS, "view.raw_ops");
obs::counter!(C_NETTED_OPS, "view.netted_ops");
obs::histogram!(H_BATCH_RAW_OPS, "view.batch_raw_ops");

/// A [`Database`] maintained edge-by-edge from an instance's delta log.
///
/// Construct with [`DatabaseView::new`], pass as the observer to
/// [`InstanceTxn::begin_observed`](receivers_objectbase::InstanceTxn::begin_observed)
/// for every transaction on the underlying instance, and read through
/// [`DatabaseView::database`]. As long as every edit to the instance flows
/// through an observed transaction (or [`receivers_objectbase::undo_ops`]),
/// the view is bit-identical to `Database::from_instance` of the current
/// instance at all times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseView {
    db: Database,
    /// Effective edits buffered since the last [`DeltaObserver::batch_end`]
    /// — always empty whenever the view is externally readable.
    pending: Vec<DeltaOp>,
}

impl DatabaseView {
    /// Build the view from scratch: one `O(N + E)` conversion.
    pub fn new(instance: &Instance) -> Self {
        C_BUILDS.incr();
        Self {
            db: Database::from_instance(instance),
            pending: Vec::new(),
        }
    }

    /// Wrap an already-built database — no conversion, no build counted.
    ///
    /// This is how a sharded application equips each worker with a
    /// maintained replica: clone (and prune) the caller's database once,
    /// then keep the copy in lockstep with the worker's own delta stream.
    pub fn from_database(db: Database) -> Self {
        Self {
            db,
            pending: Vec::new(),
        }
    }

    /// The maintained database, for evaluation.
    pub fn database(&self) -> &Database {
        debug_assert!(self.pending.is_empty(), "view read inside a burst");
        &self.db
    }

    /// Consume the view, keeping the maintained database.
    pub fn into_database(self) -> Database {
        debug_assert!(self.pending.is_empty(), "view consumed inside a burst");
        self.db
    }

    /// `true` when the maintained view equals a fresh rebuild from
    /// `instance` — the invariant the differential suite pins.
    pub fn matches_rebuild(&self, instance: &Instance) -> bool {
        debug_assert!(self.pending.is_empty(), "view read inside a burst");
        self.db == Database::from_instance(instance)
    }

    /// Consolidate the buffered burst into the maintained database.
    ///
    /// The first op of a tuple's run fixes its pre-burst presence, the
    /// last its post-burst presence; runs whose endpoints agree (a
    /// rolled-back edit, a fresh object removed again) net to nothing.
    /// What remains is applied per relation through
    /// [`Database::apply_node_edits`]/[`Database::apply_edge_edits`].
    /// Panics when an op does not type-check against the view's schema —
    /// impossible when the ops come from an observed transaction on the
    /// instance this view was built from.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        C_BATCHES.incr();
        C_RAW_OPS.add(self.pending.len() as u64);
        H_BATCH_RAW_OPS.record(self.pending.len() as u64);
        let mut netted: u64 = 0;
        // (first op was an insert, last op was an insert) per tuple; the
        // BTreeMaps keep tuples in canonical row order per relation.
        fn record<K: Ord>(m: &mut BTreeMap<K, (bool, bool)>, key: K, add: bool) {
            m.entry(key).and_modify(|e| e.1 = add).or_insert((add, add));
        }
        let mut nodes: BTreeMap<Oid, (bool, bool)> = BTreeMap::new();
        let mut edges: BTreeMap<(PropId, Oid, Oid), (bool, bool)> = BTreeMap::new();
        for op in std::mem::take(&mut self.pending) {
            match op {
                DeltaOp::AddedNode(o) => record(&mut nodes, o, true),
                DeltaOp::RemovedNode(o) => record(&mut nodes, o, false),
                DeltaOp::AddedEdge(e) => record(&mut edges, (e.prop, e.src, e.dst), true),
                DeltaOp::RemovedEdge(e) => record(&mut edges, (e.prop, e.src, e.dst), false),
            }
        }
        // A run nets to an edit exactly when its endpoints have the same
        // kind: absent→…→present is an insert, present→…→absent a delete.
        let mut adds: Vec<Oid> = Vec::new();
        let mut dels: Vec<Oid> = Vec::new();
        let mut group: Option<ClassId> = None;
        let mut nodes = nodes.into_iter().peekable();
        while let Some((o, (first, last))) = nodes.next() {
            if first == last {
                group = Some(o.class);
                netted += 1;
                if first { &mut adds } else { &mut dels }.push(o);
            }
            let boundary = nodes.peek().is_none_or(|(n, _)| Some(n.class) != group);
            if boundary {
                if let Some(c) = group.take() {
                    self.db
                        .apply_node_edits(c, &adds, &dels)
                        .expect("delta ops typed by the observed instance");
                    adds.clear();
                    dels.clear();
                }
            }
        }
        let mut group: Option<PropId> = None;
        let mut edges = edges.into_iter().peekable();
        while let Some(((p, src, dst), (first, last))) = edges.next() {
            if first == last {
                group = Some(p);
                netted += 1;
                let rows = if first { &mut adds } else { &mut dels };
                rows.push(src);
                rows.push(dst);
            }
            let boundary = edges.peek().is_none_or(|((n, _, _), _)| Some(*n) != group);
            if boundary {
                if let Some(p) = group.take() {
                    self.db
                        .apply_edge_edits(p, &adds, &dels)
                        .expect("delta ops typed by the observed instance");
                    adds.clear();
                    dels.clear();
                }
            }
        }
        C_NETTED_OPS.add(netted);
    }
}

/// A [`DeltaObserver`] that keeps a maintained [`Database`] readable
/// between bursts — a [`DatabaseView`] itself, or an observer wrapping one
/// (the durability layer's WAL sink). Drivers that evaluate against the
/// database they are maintaining take this instead of a bare view, so one
/// driver body serves every observer.
pub trait ViewObserver: DeltaObserver {
    /// The maintained database, consolidated through the last
    /// [`DeltaObserver::batch_end`].
    fn database(&self) -> &Database;
}

impl ViewObserver for DatabaseView {
    fn database(&self) -> &Database {
        DatabaseView::database(self)
    }
}

impl DeltaObserver for DatabaseView {
    fn applied(&mut self, op: &DeltaOp) {
        self.pending.push(*op);
    }

    fn undone(&mut self, op: &DeltaOp) {
        // The effective edit is the inverse of the op being reversed.
        self.pending.push(match *op {
            DeltaOp::AddedNode(o) => DeltaOp::RemovedNode(o),
            DeltaOp::RemovedNode(o) => DeltaOp::AddedNode(o),
            DeltaOp::AddedEdge(e) => DeltaOp::RemovedEdge(e),
            DeltaOp::RemovedEdge(e) => DeltaOp::AddedEdge(e),
        });
    }

    fn batch_end(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::examples::{beer_schema, figure2};
    use receivers_objectbase::{Edge, InstanceTxn};

    #[test]
    fn maintained_view_tracks_edits_and_rollback() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut view = DatabaseView::new(&i);
        let snapshot = view.clone();

        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        txn.remove_edge(&Edge::new(o.d1, s.frequents, o.bar1));
        let fresh = txn.fresh_object(s.bar);
        txn.link(o.d1, s.frequents, fresh).unwrap();
        txn.commit();
        assert!(view.matches_rebuild(&i));
        assert_ne!(view, snapshot);

        let before_rollback = i.clone();
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        txn.remove_object_cascade(o.bar2);
        txn.rollback();
        assert_eq!(i, before_rollback);
        assert!(view.matches_rebuild(&i));
    }

    #[test]
    fn observed_cascade_stays_in_lockstep_mid_transaction() {
        let s = beer_schema();
        let (mut i, o) = figure2(&s);
        let mut view = DatabaseView::new(&i);
        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        txn.remove_object_cascade(o.bar1);
        txn.commit();
        assert!(view.matches_rebuild(&i));
    }
}

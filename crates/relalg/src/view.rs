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
//! at [`DeltaObserver::batch_end`] (a transaction's commit or rollback).
//! The flush stable-sorts the burst on the tuple key, so each tuple's ops
//! form one run in burst order; a run's first and last op decide its net
//! edit. Ops that cancel within the burst — the entire log of a
//! rolled-back transaction, an added-then-removed fresh object — vanish
//! without touching a relation, and what remains is applied per relation
//! in canonical row order, as point edits for small nets or one linear
//! merge for large ones. The borrow rules make the staleness
//! unobservable: whoever holds the transaction holds the view mutably, so
//! the view can only be read between bursts, where it is always
//! consolidated.

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
    pending: Vec<Edit>,
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
    /// The burst is stable-sorted on the tuple key (relation, then row),
    /// so each tuple's ops form one run that keeps their burst order: the
    /// run's first op fixes the tuple's pre-burst presence, its last op
    /// the post-burst presence, and runs whose endpoints agree (a
    /// rolled-back edit, a fresh object removed again) net to nothing.
    /// What remains is applied per relation through
    /// [`Database::apply_node_edits`]/[`Database::apply_edge_edits`], in
    /// the canonical row order the sort produced. Panics when an op does
    /// not type-check against the view's schema — impossible when the ops
    /// come from an observed transaction on the instance this view was
    /// built from.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        C_BATCHES.incr();
        C_RAW_OPS.add(self.pending.len() as u64);
        H_BATCH_RAW_OPS.record(self.pending.len() as u64);
        let mut edits = std::mem::take(&mut self.pending);
        // Stable: a tuple's edits must stay in burst order within its run.
        edits.sort_by_key(Edit::tuple);
        let mut netted: u64 = 0;
        let mut adds: Vec<Oid> = Vec::new();
        let mut dels: Vec<Oid> = Vec::new();
        let mut start = 0;
        while start < edits.len() {
            let first = edits[start];
            let end = edits[start..]
                .iter()
                .position(|e| e.tuple() != first.tuple())
                .map_or(edits.len(), |n| start + n);
            // A run nets to an edit exactly when its endpoints have the
            // same kind: absent→…→present is an insert, present→…→absent
            // a delete.
            if first.insert == edits[end - 1].insert {
                netted += 1;
                let rows = if first.insert { &mut adds } else { &mut dels };
                rows.push(unpack(first.row.0));
                if first.edge {
                    rows.push(unpack(first.row.1));
                }
            }
            let relation_ends = edits
                .get(end)
                .is_none_or(|next| (next.edge, next.relation) != (first.edge, first.relation));
            if relation_ends && !(adds.is_empty() && dels.is_empty()) {
                if first.edge {
                    self.db
                        .apply_edge_edits(PropId(first.relation), &adds, &dels)
                } else {
                    self.db
                        .apply_node_edits(ClassId(first.relation), &adds, &dels)
                }
                .expect("delta ops typed by the observed instance");
                adds.clear();
                dels.clear();
            }
            start = end;
        }
        C_NETTED_OPS.add(netted);
    }
}

/// One buffered tuple edit. Sorting on [`Edit::tuple`] orders class
/// relations before property relations, each relation by id, and rows
/// in canonical order (an oid packs class-major into a `u64`, the order
/// of `Oid` itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edit {
    /// A property-relation edit (else a class-relation one).
    edge: bool,
    /// Inserts the tuple (else removes it).
    insert: bool,
    /// The class or property id.
    relation: u32,
    /// The packed row: `(o, o)` for a class tuple `{o}`, `(src, dst)`
    /// for an edge.
    row: (u64, u64),
}

impl Edit {
    fn of(op: &DeltaOp) -> Self {
        match *op {
            DeltaOp::AddedNode(o) | DeltaOp::RemovedNode(o) => Self {
                edge: false,
                insert: matches!(op, DeltaOp::AddedNode(_)),
                relation: o.class.0,
                row: (pack(o), pack(o)),
            },
            DeltaOp::AddedEdge(e) | DeltaOp::RemovedEdge(e) => Self {
                edge: true,
                insert: matches!(op, DeltaOp::AddedEdge(_)),
                relation: e.prop.0,
                row: (pack(e.src), pack(e.dst)),
            },
        }
    }

    /// The edited tuple, as the sort key.
    fn tuple(&self) -> (bool, u32, (u64, u64)) {
        (self.edge, self.relation, self.row)
    }
}

fn pack(o: Oid) -> u64 {
    (u64::from(o.class.0) << 32) | u64::from(o.index)
}

fn unpack(x: u64) -> Oid {
    Oid::new(ClassId((x >> 32) as u32), x as u32)
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
        self.pending.push(Edit::of(op));
    }

    fn undone(&mut self, op: &DeltaOp) {
        // The effective edit is the inverse of the op being reversed.
        let edit = Edit::of(op);
        self.pending.push(Edit {
            insert: !edit.insert,
            ..edit
        });
    }

    fn batch_end(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::RelName;
    use receivers_objectbase::examples::{beer_schema, figure2};
    use receivers_objectbase::{Edge, InstanceTxn};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// One burst in which every tuple of a relation sees three edits,
    /// interleaved across tuples: absent edges go add→remove→add (a net
    /// insert), present ones remove→add→remove (a net delete), and fresh
    /// objects come, go and come back. Each tuple's net edit is fixed by
    /// the first and last op *in burst order*, so the sort that groups the
    /// burst by tuple must be stable.
    #[test]
    fn flush_nets_interleaved_runs_by_burst_order() {
        const N: u32 = 256;
        let s = beer_schema();
        let mut i = Instance::empty(Arc::clone(&s.schema));
        let drinker = |k: u32| Oid::new(s.drinker, k);
        let bar = |k: u32| Oid::new(s.bar, k);
        for k in 0..N {
            i.add_object(drinker(k));
            i.add_object(bar(k));
        }
        let edges: Vec<Edge> = (0..N)
            .map(|k| Edge::new(drinker(k), s.frequents, bar((k * 5) % N)))
            .collect();
        for e in edges.iter().step_by(2) {
            i.add_edge(*e).unwrap();
        }
        let mut view = DatabaseView::new(&i);
        let fresh: Vec<Oid> = (N..N + N / 4).map(|k| Oid::new(s.beer, k)).collect();

        let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
        for round in 0..3 {
            for e in &edges {
                if txn.instance().contains_edge(e) {
                    txn.remove_edge(e);
                } else {
                    txn.add_edge(*e).unwrap();
                }
            }
            for &o in &fresh {
                if round == 1 {
                    txn.remove_object_cascade(o);
                } else {
                    txn.add_object(o);
                }
            }
        }
        txn.commit();

        // Every edge flipped, and every fresh object is present.
        let frequents: BTreeSet<(Oid, Oid)> = view
            .database()
            .relation(RelName::Prop(s.frequents))
            .unwrap()
            .tuples()
            .map(|t| (t[0], t[1]))
            .collect();
        let flipped: BTreeSet<(Oid, Oid)> = edges
            .iter()
            .skip(1)
            .step_by(2)
            .map(|e| (e.src, e.dst))
            .collect();
        assert_eq!(frequents, flipped);
        let beers: Vec<Oid> = view
            .database()
            .relation(RelName::Class(s.beer))
            .unwrap()
            .tuples()
            .map(|t| t[0])
            .collect();
        assert_eq!(beers, fresh);
        assert!(view.matches_rebuild(&i));
    }

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

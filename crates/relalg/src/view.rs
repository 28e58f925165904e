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
//!
//! The set-oriented batch appliers write whole rows
//! ([`DeltaObserver::row_replaced`]). While a burst is nothing but row
//! replacements of one property in ascending source order, their removed
//! and added tuples are already canonical and pairwise distinct, so the
//! view collects them as they come and hands them to
//! [`Database::apply_edge_edits`] at `batch_end`: no per-op `Edit`, no
//! sort, nothing to net. Any other notification in the burst moves the
//! run into the buffer first, and the burst nets as above.
//!
//! The view is the only observer the drivers have. Those that evaluate
//! against the database they maintain — an algebraic method's viewed
//! sequence, the `sql` planner's stage loop — take a `&mut DatabaseView`
//! and read [`DatabaseView::database`] between bursts. Nothing wraps it:
//! the delta log a driver commits or undoes comes from the transactions
//! themselves, and a durable driver hands that log, with this database,
//! to its write-ahead log once the program has applied.

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
    /// The burst so far, while it is nothing but whole-row replacements
    /// of one property in ascending source order: their removed and added
    /// rows are then already canonical and disjoint, so `batch_end`
    /// applies them as they are. Set only while `pending` is empty; any
    /// other notification spills it into `pending` first.
    rows: Option<RowRun>,
}

/// Whole-row replacements collected for [`Database::apply_edge_edits`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct RowRun {
    prop: PropId,
    /// The last replaced row's source; the next row must be above it.
    last_src: Oid,
    /// `(src, dst)`-chunked rows to insert, canonical order.
    adds: Vec<Oid>,
    /// `(src, dst)`-chunked rows to remove, canonical order.
    dels: Vec<Oid>,
}

impl DatabaseView {
    /// Build the view from scratch: one `O(N + E)` conversion.
    pub fn new(instance: &Instance) -> Self {
        C_BUILDS.incr();
        Self {
            db: Database::from_instance(instance),
            pending: Vec::new(),
            rows: None,
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
            rows: None,
        }
    }

    /// The maintained database, for evaluation.
    pub fn database(&self) -> &Database {
        debug_assert!(self.is_flushed(), "view read inside a burst");
        &self.db
    }

    /// Consume the view, keeping the maintained database.
    pub fn into_database(self) -> Database {
        debug_assert!(self.is_flushed(), "view consumed inside a burst");
        self.db
    }

    /// `true` when the maintained view equals a fresh rebuild from
    /// `instance` — the invariant the differential suite pins.
    pub fn matches_rebuild(&self, instance: &Instance) -> bool {
        debug_assert!(self.is_flushed(), "view read inside a burst");
        self.db == Database::from_instance(instance)
    }

    fn is_flushed(&self) -> bool {
        self.pending.is_empty() && self.rows.is_none()
    }

    /// Move a collected row run into `pending`, ahead of whatever the
    /// burst brings next. Its edits touch distinct tuples, so their order
    /// among themselves does not matter to the netting.
    fn spill(&mut self) {
        let Some(run) = self.rows.take() else {
            return;
        };
        for (rows, insert) in [(&run.dels, false), (&run.adds, true)] {
            self.pending.extend(rows.chunks_exact(2).map(|row| Edit {
                edge: true,
                insert,
                relation: run.prop.0,
                row: (pack(row[0]), pack(row[1])),
            }));
        }
    }

    /// Apply a collected row run: no edit buffer, no sort, no netting —
    /// its rows are canonical and each tuple occurs once.
    fn apply_rows(&mut self, run: RowRun) {
        let n = ((run.adds.len() + run.dels.len()) / 2) as u64;
        C_BATCHES.incr();
        C_RAW_OPS.add(n);
        H_BATCH_RAW_OPS.record(n);
        C_NETTED_OPS.add(n);
        self.db
            .apply_edge_edits(run.prop, &run.adds, &run.dels)
            .expect("delta ops typed by the observed instance");
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

impl DeltaObserver for DatabaseView {
    fn applied(&mut self, op: &DeltaOp) {
        self.spill();
        self.pending.push(Edit::of(op));
    }

    fn undone(&mut self, op: &DeltaOp) {
        self.spill();
        // The effective edit is the inverse of the op being reversed.
        let edit = Edit::of(op);
        self.pending.push(Edit {
            insert: !edit.insert,
            ..edit
        });
    }

    /// Collect the row into the current run when the burst so far is a
    /// run of this property with lower sources; otherwise buffer its
    /// edits like any others.
    fn row_replaced(&mut self, src: Oid, prop: PropId, removed: &[Oid], added: &[Oid]) {
        let extends = self.pending.is_empty()
            && self
                .rows
                .as_ref()
                .is_none_or(|run| run.prop == prop && run.last_src < src);
        if !extends {
            for op in DeltaOp::row_replacement(src, prop, removed, added) {
                self.applied(&op);
            }
            return;
        }
        let run = self.rows.get_or_insert_with(|| RowRun {
            prop,
            last_src: src,
            adds: Vec::new(),
            dels: Vec::new(),
        });
        run.last_src = src;
        for (rows, dsts) in [(&mut run.dels, removed), (&mut run.adds, added)] {
            for &dst in dsts {
                rows.extend([src, dst]);
            }
        }
    }

    fn batch_end(&mut self) {
        match self.rows.take() {
            Some(run) => self.apply_rows(run),
            None => self.flush(),
        }
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

    /// Whole-row replacements reach the view through `row_replaced`:
    /// rows of one property in ascending source order go straight to the
    /// relation at `batch_end`; any other shape — a descending or repeated
    /// source, a second property, a point edit during or after the run, a
    /// rollback — spills the run into the netting buffer. Every burst must
    /// leave the view equal to a rebuild, and a run must not leak into the
    /// next burst.
    #[test]
    fn row_runs_apply_directly_and_spill_on_any_other_edit() {
        const N: u32 = 48;
        let s = beer_schema();
        let mut i = Instance::empty(Arc::clone(&s.schema));
        let drinker = |k: u32| Oid::new(s.drinker, k);
        let bar = |k: u32| Oid::new(s.bar, k);
        let beer = |k: u32| Oid::new(s.beer, k);
        for k in 0..N {
            for o in [drinker(k), bar(k), beer(k)] {
                i.add_object(o);
            }
            i.link(drinker(k), s.frequents, bar(k)).unwrap();
        }
        let mut view = DatabaseView::new(&i);
        let row = |k: u32, shift: u32| vec![bar((k + shift) % N), bar(k), bar((k * 7) % N)];
        let shapes: [(&str, Vec<u32>); 6] = [
            ("ascending", (0..N).collect()),
            ("descending", (0..N).rev().collect()),
            ("repeated source", [3, 3, 9].into()),
            ("point edit mid-run", (0..N).collect()),
            ("point edit after the run", (0..N).collect()),
            ("second property", (0..N).collect()),
        ];
        for (round, (name, order)) in shapes.into_iter().enumerate() {
            let shift = round as u32 + 1;
            let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
            for (n, &k) in order.iter().enumerate() {
                txn.replace_successors(drinker(k), s.frequents, &row(k, shift))
                    .unwrap();
                if name == "point edit mid-run" && n == order.len() / 2 {
                    txn.link(drinker(0), s.likes, beer(1)).unwrap();
                }
                if name == "second property" {
                    txn.replace_successors(drinker(k), s.likes, &[beer(k)])
                        .unwrap();
                }
            }
            if name == "point edit after the run" {
                // Last in the burst, on a tuple the run just added: the
                // netting needs the run's edits ahead of it.
                let added = Edge::new(drinker(0), s.frequents, bar(shift));
                assert!(txn.remove_edge(&added));
            }
            txn.commit();
            assert!(view.matches_rebuild(&i), "{name}");
        }
        let before = i.clone();
        {
            let mut txn = InstanceTxn::begin_observed(&mut i, &mut view);
            for k in 0..N {
                txn.replace_successors(drinker(k), s.frequents, &[])
                    .unwrap();
            }
            // Dropped: the rollback's `undone` ops spill the run first.
        }
        assert_eq!(i, before);
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

//! Experiment P7 — the storage-layer optimizations of this repository
//! (DESIGN.md "Storage layer"):
//!
//! * `lookup/*` — successor lookups through the adjacency index
//!   (`O(log E + k)`) versus the flat-set emulation that scans every edge
//!   (`O(E)`), across growing instance sizes;
//! * `sequence/*` — sequential application of an `n`-receiver sequence
//!   with the clone-free in-place path ([`apply_seq_unchecked`], one
//!   working copy, `O(changed edges)` edits per receiver) versus the
//!   historical per-receiver cloning loop;
//! * `edit/*` — the write path per edge: the 512×64 set-update batch of
//!   the `e2e` `mixed` workload through [`apply_assignment_batch`] into a
//!   maintained [`DatabaseView`], [`redo_ops`] of that batch's log (WAL
//!   replay), and two hub shapes that exercise the adjacency lists past
//!   their small-vector bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use receivers_core::algebraic::apply_assignment_batch;
use receivers_core::methods::add_bar;
use receivers_core::sequential::apply_seq_unchecked;
use receivers_objectbase::examples::{beer_schema, BeerSchema};
use receivers_objectbase::{
    redo_ops, DeltaObserver, DeltaOp, Edge, EdgeIndex, Instance, MethodOutcome, NullObserver, Oid,
    PropId, Receiver, ReceiverSet, Schema, UpdateMethod,
};
use receivers_relalg::DatabaseView;

/// A beer instance with `scale` objects per class and edge counts linear
/// in `scale`: every drinker frequents 8 bars and likes 2 beers, every
/// bar serves 4 beers.
fn dense_instance(scale: u32) -> (BeerSchema, Instance) {
    let s = beer_schema();
    let mut i = Instance::empty(Arc::clone(&s.schema));
    for k in 0..scale {
        i.add_object(Oid::new(s.drinker, k));
        i.add_object(Oid::new(s.bar, k));
        i.add_object(Oid::new(s.beer, k));
    }
    for k in 0..scale {
        let d = Oid::new(s.drinker, k);
        for j in 0..8 {
            i.link(d, s.frequents, Oid::new(s.bar, (k * 7 + j * 13) % scale))
                .expect("typed");
        }
        for j in 0..2 {
            i.link(d, s.likes, Oid::new(s.beer, (k + j * 5) % scale))
                .expect("typed");
        }
        let b = Oid::new(s.bar, k);
        for j in 0..4 {
            i.link(b, s.serves, Oid::new(s.beer, (k * 3 + j) % scale))
                .expect("typed");
        }
    }
    (s, i)
}

/// Emulation of the pre-index storage: answer a successor lookup by
/// scanning the full edge set, as a flat `BTreeSet<Edge>` had to.
fn successors_by_scan(i: &Instance, o: Oid, p: receivers_objectbase::PropId) -> usize {
    i.edges().filter(|e| e.src == o && e.prop == p).count()
}

fn lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("instance_index/lookup");
    group.sample_size(15);
    for &scale in &[64u32, 256, 1024] {
        let (s, i) = dense_instance(scale);
        let probes: Vec<Oid> = (0..64u32.min(scale))
            .map(|k| Oid::new(s.drinker, (k * 17) % scale))
            .collect();
        group.bench_with_input(BenchmarkId::new("indexed", scale), &i, |b, i| {
            b.iter(|| {
                let mut total = 0usize;
                for &o in &probes {
                    total += i.successors(o, s.frequents).count();
                }
                black_box(total)
            })
        });
        group.bench_with_input(BenchmarkId::new("scan", scale), &i, |b, i| {
            b.iter(|| {
                let mut total = 0usize;
                for &o in &probes {
                    total += successors_by_scan(i, o, s.frequents);
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

/// The pre-delta sequential loop: every receiver application clones the
/// whole instance (`O(n·E)` for an `n`-receiver sequence).
fn apply_sequence_cloning(
    method: &dyn UpdateMethod,
    instance: &Instance,
    order: &[Receiver],
) -> MethodOutcome {
    let mut current = instance.clone();
    for t in order {
        match method.apply(&current, t) {
            MethodOutcome::Done(next) => current = next,
            other => return other,
        }
    }
    MethodOutcome::Done(current)
}

fn sequences(c: &mut Criterion) {
    let mut group = c.benchmark_group("instance_index/sequence");
    group.sample_size(10);
    for &scale in &[64u32, 256, 1024] {
        let (s, i) = dense_instance(scale);
        let m = add_bar(&s);
        let n = 64u32.min(scale);
        let set = ReceiverSet::from_iter((0..n).map(|k| {
            Receiver::new(vec![
                Oid::new(s.drinker, (k * 17) % scale),
                Oid::new(s.bar, (k * 29 + 1) % scale),
            ])
        }));
        let order = set.canonical_order();

        // Same receivers, same result, two execution strategies.
        let in_place = apply_seq_unchecked(&m, &i, &set).expect_done("in-place");
        let cloning = apply_sequence_cloning(&m, &i, &order).expect_done("cloning");
        assert_eq!(in_place, cloning);

        group.bench_with_input(BenchmarkId::new("in_place", scale), &set, |b, set| {
            b.iter(|| black_box(apply_seq_unchecked(&m, &i, set)))
        });
        group.bench_with_input(BenchmarkId::new("cloning", scale), &order, |b, order| {
            b.iter(|| black_box(apply_sequence_cloning(&m, &i, order)))
        });
    }
    group.finish();
}

/// The `mixed` workload's stage-4 shape: 512 employees with one salary
/// each, and the batch that overwrites every salary with the 64 amounts
/// of `Fire` (32,768 added edges, 512 removed).
struct SalaryBatch {
    salary: PropId,
    base: Instance,
    assignments: Vec<(Oid, Vec<Oid>)>,
}

fn salary_batch() -> SalaryBatch {
    const EMPLOYEES: u32 = 512;
    const FIRE: u32 = 64;
    let mut b = Schema::builder();
    let employee = b.class("Employee").expect("fresh class");
    let amount = b.class("Amount").expect("fresh class");
    let salary = b
        .property(employee, "Salary", amount)
        .expect("fresh property");
    let mut base = Instance::empty(b.build());
    for k in 0..EMPLOYEES {
        base.add_object(Oid::new(employee, k));
        base.add_object(Oid::new(amount, k));
    }
    for k in 0..EMPLOYEES {
        base.link(
            Oid::new(employee, k),
            salary,
            Oid::new(amount, (k * 7) % EMPLOYEES),
        )
        .expect("typed");
    }
    let fire: Vec<Oid> = (0..FIRE).map(|k| Oid::new(amount, k * 3)).collect();
    let assignments = (0..EMPLOYEES)
        .map(|k| (Oid::new(employee, k), fire.clone()))
        .collect();
    SalaryBatch {
        salary,
        base,
        assignments,
    }
}

/// Keeps the committed log of the transaction it observes.
#[derive(Default)]
struct CommittedLog(Vec<DeltaOp>);

impl DeltaObserver for CommittedLog {
    fn applied(&mut self, _op: &DeltaOp) {}
    fn undone(&mut self, _op: &DeltaOp) {}
    fn batch_committed(&mut self, ops: &[DeltaOp]) {
        self.0.extend_from_slice(ops);
    }
}

/// Hub degree for the `edit/hub_*` cases.
const HUB: u32 = 100_000;

/// `HUB` edges into one node, inserted in descending source order: every
/// insert lands at the front of the hub's reverse list.
fn hub_in_descending(s: &BeerSchema) -> EdgeIndex {
    let bar = Oid::new(s.bar, 0);
    let mut ix = EdgeIndex::new();
    for k in (0..HUB).rev() {
        ix.insert(Edge::new(Oid::new(s.drinker, k), s.frequents, bar));
    }
    ix
}

/// `HUB` edges out of one node, inserted in ascending order and then
/// removed in ascending order: every removal takes the front of the
/// hub's forward list.
fn hub_out_cleared_ascending(s: &BeerSchema) -> EdgeIndex {
    let d = Oid::new(s.drinker, 0);
    let mut ix = EdgeIndex::new();
    for k in 0..HUB {
        ix.insert(Edge::new(d, s.frequents, Oid::new(s.bar, k)));
    }
    for k in 0..HUB {
        ix.remove(&Edge::new(d, s.frequents, Oid::new(s.bar, k)));
    }
    ix
}

fn edits(c: &mut Criterion) {
    let mut group = c.benchmark_group("instance_index/edit");
    group.sample_size(10);
    let batch = salary_batch();
    let view = DatabaseView::new(&batch.base);

    // Every iteration starts from a copy of the base state; `clone`
    // prices that copy so the edit cost is the difference.
    group.bench_function("clone", |b| {
        b.iter(|| black_box((batch.base.clone(), view.clone())))
    });

    let mut expect = batch.base.clone();
    let mut expect_view = view.clone();
    let mut log = CommittedLog::default();
    apply_assignment_batch(&mut expect, &mut log, batch.salary, &batch.assignments);
    apply_assignment_batch(
        &mut batch.base.clone(),
        &mut expect_view,
        batch.salary,
        &batch.assignments,
    );
    assert!(expect_view.matches_rebuild(&expect));
    assert_eq!(log.0.len(), 512 * 64 + 512);
    let mut replayed = batch.base.clone();
    redo_ops(&mut replayed, &mut NullObserver, &log.0);
    assert_eq!(replayed, expect);

    group.bench_function("assignment_batch_viewed", |b| {
        b.iter(|| {
            let (mut i, mut v) = (batch.base.clone(), view.clone());
            apply_assignment_batch(&mut i, &mut v, batch.salary, &batch.assignments);
            black_box((i, v))
        })
    });
    group.bench_function("redo_ops", |b| {
        b.iter(|| {
            let mut i = batch.base.clone();
            redo_ops(&mut i, &mut NullObserver, &log.0);
            black_box(i)
        })
    });

    let s = beer_schema();
    assert_eq!(hub_in_descending(&s).len(), HUB as usize);
    assert!(hub_out_cleared_ascending(&s).is_empty());
    group.bench_function("hub_in_descending", |b| {
        b.iter(|| black_box(hub_in_descending(&s)))
    });
    group.bench_function("hub_out_cleared_ascending", |b| {
        b.iter(|| black_box(hub_out_cleared_ascending(&s)))
    });
    group.finish();
}

criterion_group!(benches, lookups, sequences, edits);
criterion_main!(benches);

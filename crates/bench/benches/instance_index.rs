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
//!   maintained [`DatabaseView`], the same batch as one
//!   [`EdgeIndex::replace_rows`] on the index alone and as 512 one-row
//!   [`InstanceTxn::replace_successors`] calls (the receiver loop's
//!   shape), [`redo_ops`] of that batch's log (WAL replay),
//!   [`decode_snapshot`] of the batch's result (recovery's bulk build of
//!   a `mixed`-sized instance, ~33k edges), and two hub shapes that
//!   exercise the adjacency lists past their small-vector bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use receivers_core::algebraic::{apply_assignment_batch, try_apply_assignment_batch};
use receivers_core::methods::add_bar;
use receivers_core::sequential::apply_seq_unchecked;
use receivers_objectbase::examples::{beer_schema, BeerSchema};
use receivers_objectbase::{
    redo_ops, Edge, EdgeIndex, Instance, InstanceTxn, MethodOutcome, NullObserver, Oid, PropId,
    Receiver, ReceiverSet, Schema, UpdateMethod,
};
use receivers_relalg::{Database, DatabaseView};
use receivers_wal::snapshot::{decode_snapshot, encode_snapshot};

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
/// of `Fire` (32,768 new salary edges; an old salary that is one of them
/// is retained, the rest removed).
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
    let mut log = Vec::new();
    try_apply_assignment_batch(
        &mut expect,
        &mut NullObserver,
        batch.salary,
        &batch.assignments,
        &mut log,
    )
    .expect("a well-typed batch");
    apply_assignment_batch(
        &mut batch.base.clone(),
        &mut expect_view,
        batch.salary,
        &batch.assignments,
    );
    assert!(expect_view.matches_rebuild(&expect));
    // Exactly the effective edits: |old∖new| + |new∖old| over the rows.
    let effective: usize = batch
        .assignments
        .iter()
        .map(|(e, new)| {
            let old: Vec<Oid> = batch.base.successors(*e, batch.salary).collect();
            old.iter().filter(|o| !new.contains(o)).count()
                + new.iter().filter(|n| !old.contains(n)).count()
        })
        .sum();
    assert_eq!(log.len(), effective);
    let mut replayed = batch.base.clone();
    redo_ops(&mut replayed, &mut NullObserver, &log);
    assert_eq!(replayed, expect);

    group.bench_function("assignment_batch_viewed", |b| {
        b.iter(|| {
            let (mut i, mut v) = (batch.base.clone(), view.clone());
            apply_assignment_batch(&mut i, &mut v, batch.salary, &batch.assignments);
            black_box((i, v))
        })
    });
    // The batch on the index alone: one transposition of its reverse
    // edits. Each iteration also clones the ~512-edge base index.
    let index = EdgeIndex::from_edges(batch.base.edges());
    let mut batched = index.clone();
    batched.replace_rows(batch.salary, &batch.assignments);
    assert!(batched.iter().eq(expect.edges()));
    group.bench_function("replace_rows", |b| {
        b.iter(|| {
            let mut ix = index.clone();
            black_box(ix.replace_rows(batch.salary, &batch.assignments));
            black_box(ix)
        })
    });
    // The same rows written one call each, as the receiver loop writes.
    let one_row_writes = |i: &mut Instance| {
        let mut txn = InstanceTxn::begin(i);
        for (e, new) in &batch.assignments {
            txn.replace_successors(*e, batch.salary, new)
                .expect("a well-typed row");
        }
        txn.commit()
    };
    let mut written = batch.base.clone();
    assert_eq!(one_row_writes(&mut written), log.len());
    assert_eq!(written, expect);
    group.bench_function("one_row_writes", |b| {
        b.iter(|| {
            let mut i = batch.base.clone();
            black_box(one_row_writes(&mut i));
            black_box(i)
        })
    });
    group.bench_function("redo_ops", |b| {
        b.iter(|| {
            let mut i = batch.base.clone();
            redo_ops(&mut i, &mut NullObserver, &log);
            black_box(i)
        })
    });

    let snapshot = encode_snapshot(&Database::from_instance(&expect), 1, 1);
    let schema = Arc::clone(expect.schema());
    assert_eq!(
        decode_snapshot(&snapshot, &schema).expect("round trip").0,
        expect
    );
    group.bench_function("snapshot_decode", |b| {
        b.iter(|| black_box(decode_snapshot(&snapshot, &schema).expect("round trip")))
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

//! Experiment P13 — the durability layer (DESIGN.md "Durability layer"):
//!
//! * `commit/*` — applying a 64-receiver algebraic sequence through the
//!   WAL-logged driver over in-memory fault storage versus the plain
//!   view-backed driver: the pure encode-and-append overhead of
//!   durability, no fsync in the picture;
//! * `fsync/*` — the same sequence over real files ([`DirStorage`]) with
//!   `group_commit` 1 versus 64: what the fsync-batching knob buys when
//!   every record otherwise pays a real `fsync(2)`;
//! * `recover/*` — reopening a store whose WAL tail holds the whole
//!   64-record run versus the from-scratch `Database::from_instance`
//!   rebuild a non-durable restart would pay anyway, plus the snapshot
//!   encode cost that a checkpoint adds to a run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use receivers_core::methods::add_bar;
use receivers_core::AlgebraicMethod;
use receivers_objectbase::examples::{beer_schema, BeerSchema};
use receivers_objectbase::{InPlaceOutcome, Instance, Oid, Receiver};
use receivers_relalg::database::Database;
use receivers_relalg::view::DatabaseView;
use receivers_wal::{
    encode_snapshot, DirStorage, DurableSink, DurableStore, FaultStorage, WalConfig, WalStorage,
};

/// A beer instance with `scale` objects per class and edge counts linear
/// in `scale` (the same workload as the `view_maintenance` bench).
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

/// Apply `order` durably, each receiver its own unit: the viewed driver
/// with a [`DurableSink`] around the view, every receiver's ops committed
/// as one WAL record — so a 64-receiver order is 64 records, the
/// workload the fsync-batching and replay arms price.
fn durable_run<S: WalStorage>(
    m: &AlgebraicMethod,
    working: &mut Instance,
    view: &mut DatabaseView,
    order: &[Receiver],
    store: &mut DurableStore<S>,
) -> InPlaceOutcome {
    let mut sink = DurableSink::new(store, view);
    let mut log = Vec::new();
    for t in order {
        log.clear();
        let out = m.apply_sequence_logged(working, &mut sink, std::slice::from_ref(t), &mut log);
        if !out.is_applied() {
            return out;
        }
        if let Err(e) = sink.commit(&log) {
            panic!("durable apply: {e}");
        }
    }
    InPlaceOutcome::Applied
}

/// The standard 64-receiver add_bar order over a `scale` instance.
fn order_of(s: &BeerSchema, scale: u32) -> Vec<Receiver> {
    (0..64u32.min(scale))
        .map(|k| {
            Receiver::new(vec![
                Oid::new(s.drinker, (k * 17) % scale),
                Oid::new(s.bar, (k * 29 + 1) % scale),
            ])
        })
        .collect()
}

fn commits(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_recovery/commit");
    group.sample_size(10);
    for &scale in &[64u32, 256, 1024] {
        let (s, i) = dense_instance(scale);
        let m = add_bar(&s);
        let order = order_of(&s, scale);

        // The durable run reaches the same state as the plain one.
        let mut plain = i.clone();
        let mut plain_view = DatabaseView::new(&plain);
        m.apply_sequence_viewed(&mut plain, &mut plain_view, &order);
        let mut durable = i.clone();
        let mut durable_view = DatabaseView::new(&durable);
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &durable,
        )
        .expect("create");
        durable_run(&m, &mut durable, &mut durable_view, &order, &mut store);
        assert_eq!(plain, durable);

        group.bench_with_input(BenchmarkId::new("viewed", scale), &order, |b, order| {
            b.iter(|| {
                let mut working = i.clone();
                let mut view = DatabaseView::new(&working);
                black_box(m.apply_sequence_viewed(&mut working, &mut view, order))
            })
        });
        group.bench_with_input(BenchmarkId::new("wal_mem", scale), &order, |b, order| {
            b.iter(|| {
                let mut working = i.clone();
                let mut view = DatabaseView::new(&working);
                let mut store = DurableStore::create(
                    FaultStorage::new(),
                    Arc::clone(&s.schema),
                    WalConfig::default(),
                    &working,
                )
                .expect("create");
                black_box(durable_run(&m, &mut working, &mut view, order, &mut store))
            })
        });
    }
    group.finish();
}

fn fsyncs(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_recovery/fsync");
    group.sample_size(10);
    let scale = 256u32;
    let (s, i) = dense_instance(scale);
    let m = add_bar(&s);
    let order = order_of(&s, scale);
    let root = std::env::temp_dir().join(format!("receivers-wal-bench-{}", std::process::id()));
    let mut run = 0u64;
    for &gc in &[1usize, 64] {
        let cfg = WalConfig {
            group_commit: gc,
            snapshot_every: 0,
        };
        group.bench_with_input(BenchmarkId::new("group_commit", gc), &order, |b, order| {
            b.iter(|| {
                run += 1;
                let dir = root.join(format!("run-{run}"));
                let storage = DirStorage::open(&dir).expect("store dir");
                let mut working = i.clone();
                let mut view = DatabaseView::new(&working);
                let mut store = DurableStore::create(storage, Arc::clone(&s.schema), cfg, &working)
                    .expect("create");
                durable_run(&m, &mut working, &mut view, order, &mut store);
                store.sync().expect("final sync");
                let _ = std::fs::remove_dir_all(&dir);
            })
        });
    }
    let _ = std::fs::remove_dir_all(&root);
    group.finish();
}

fn recoveries(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_recovery/recover");
    group.sample_size(10);
    for &scale in &[64u32, 256, 1024] {
        let (s, i) = dense_instance(scale);
        let m = add_bar(&s);
        let order = order_of(&s, scale);

        // Wreckage with the whole run in the WAL tail: no checkpoint, so
        // recovery replays all 64 records on top of the epoch-1 snapshot.
        let mut working = i.clone();
        let mut view = DatabaseView::new(&working);
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&s.schema),
            WalConfig::default(),
            &working,
        )
        .expect("create");
        durable_run(&m, &mut working, &mut view, &order, &mut store);
        let wreckage = store.into_storage().reopen();

        group.bench_with_input(
            BenchmarkId::new("replay_tail", scale),
            &wreckage,
            |b, wreckage| {
                b.iter(|| {
                    let (_, ri, _, report) = DurableStore::open(
                        wreckage.clone(),
                        Arc::clone(&s.schema),
                        WalConfig::default(),
                    )
                    .expect("recovery");
                    black_box((ri, report))
                })
            },
        );
        // What a non-durable restart pays anyway: a from-scratch
        // relational encoding of the final instance.
        group.bench_with_input(
            BenchmarkId::new("rebuild_view", scale),
            &working,
            |b, working| b.iter(|| black_box(Database::from_instance(working))),
        );
        // The marginal cost a checkpoint adds to a run: one snapshot
        // encode of the current database.
        let db = Database::from_instance(&working);
        group.bench_with_input(BenchmarkId::new("snapshot_encode", scale), &db, |b, db| {
            b.iter(|| black_box(encode_snapshot(db, 2, 64)))
        });
    }
    group.finish();
}

criterion_group!(benches, commits, fsyncs, recoveries);
criterion_main!(benches);

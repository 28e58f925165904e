//! Experiment P11 — coloring-certified sharded execution (DESIGN.md
//! "Sharded execution"): `time(strategy, threads)` scaling curves for
//! steady-state *reconciliation waves* — the same idempotent batch of
//! `add_bar` receivers re-applied to a live instance, as a reconciler or
//! retry loop would.
//!
//! Pairing, per `(distribution, scale, threads)` point:
//!
//! * `sequential/…` — a persistent instance with a persistent maintained
//!   [`DatabaseView`], re-applying the wave through
//!   `apply_sequence_viewed`. Each receiver re-emits its full gross
//!   rewrite (remove-all + add-all edges) through the transaction log
//!   every wave, even though the net effect is nil.
//! * `sharded/…` — a persistent [`ShardedExecutor`]: per-shard pruned
//!   replicas stay warm across waves, each receiver runs on its receiving
//!   drinker's home shard and is netted against the home replica, and the
//!   live instance sees only the (empty, in steady state) net diff.
//!
//! Series:
//!
//! * `uniform/{scale}/t{n}` — two receivers per drinker, bars drawn from
//!   the drinker's own shard;
//! * `zipf/{scale}/t{n}` — receiving drinkers Zipf(1.1)-skewed, so one
//!   shard carries a disproportionate share of the wave;
//! * `xs25`/`xs50` — the cross-shard-argument workload: a 25% / 50%
//!   fraction of receivers pick a bar off the drinker's shard. They still
//!   run on the drinker's home shard (the home-replica lemma, DESIGN.md
//!   §10), so these series price arguments that live elsewhere.
//!
//! The win measured here is algorithmic — gross op traffic avoided per
//! wave — so the curves remain meaningful even on a single hardware core;
//! EXPERIMENTS.md P11 records the host's core count next to the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

use receivers_core::methods::add_bar;
use receivers_core::shard::{shard_of, ShardConfig, ShardedExecutor};
use receivers_objectbase::examples::{beer_schema, BeerSchema};
use receivers_objectbase::{InPlaceOutcome, Instance, NullObserver, Oid, Receiver};
use receivers_relalg::view::DatabaseView;

/// The thread axis: `RECEIVERS_BENCH_THREADS="1,2,4,8"` override, else
/// 1/2/4/8.
fn thread_axis() -> Vec<usize> {
    std::env::var("RECEIVERS_BENCH_THREADS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse::<usize>().ok())
                .filter(|&t| t >= 1)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// `scale` objects per class; every drinker frequents 8 bars and likes 2
/// beers, every bar serves 4 beers (the `view_maintenance` workload).
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

/// Bars of each shard under an `n`-way partition, so receiver generators
/// can pick arguments inside (or deliberately outside) the receiving
/// drinker's shard.
fn bars_by_shard(s: &BeerSchema, scale: u32, shards: usize) -> Vec<Vec<Oid>> {
    let mut by = vec![Vec::new(); shards];
    for k in 0..scale {
        let b = Oid::new(s.bar, k);
        by[shard_of(b, shards)].push(b);
    }
    by
}

/// Pick a bar for `drinker`: from its own shard, or (when `cross`) from
/// the next non-empty shard over.
fn pick_bar(by_shard: &[Vec<Oid>], drinker: Oid, cross: bool, rng: &mut StdRng) -> Oid {
    let shards = by_shard.len();
    let home = shard_of(drinker, shards);
    let mut shard = home;
    if cross && shards > 1 {
        shard = (home + 1 + rng.random_range(0..shards - 1)) % shards;
    }
    for probe in 0..shards {
        let cands = &by_shard[(shard + probe) % shards];
        if !cands.is_empty() {
            return cands[rng.random_range(0..cands.len())];
        }
    }
    unreachable!("at least one shard holds a bar");
}

/// Zipf(alpha) sampler over `0..n` via inverse CDF — deterministic, no
/// float surprises across platforms at these sizes.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u32, alpha: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / f64::from(k + 1).powf(alpha);
            cdf.push(acc);
        }
        for w in &mut cdf {
            *w /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// One reconciliation wave: two `add_bar` receivers per slot (the wave is
/// denser than the object population, as a retried batch would be).
/// `dist` controls the receiving-drinker distribution and the cross-shard
/// fraction. `add_bar` is monotone, so re-applying the same wave is
/// idempotent after the first pass — exactly the steady state the timed
/// region measures.
fn wave_for(s: &BeerSchema, scale: u32, shards: usize, dist: &str, seed: u64) -> Vec<Receiver> {
    let by_shard = bars_by_shard(s, scale, shards);
    let mut rng = StdRng::seed_from_u64(seed ^ (shards as u64) << 8 ^ u64::from(scale));
    let zipf = Zipf::new(scale, 1.1);
    (0..2 * scale)
        .map(|slot| {
            let k = slot % scale;
            let (d, cross) = match dist {
                "uniform" => (k, false),
                "zipf" => (zipf.sample(&mut rng), false),
                "xs25" => (k, rng.random_bool(0.25)),
                "xs50" => (k, rng.random_bool(0.50)),
                other => unreachable!("unknown distribution {other}"),
            };
            let drinker = Oid::new(s.drinker, d);
            let bar = pick_bar(&by_shard, drinker, cross, &mut rng);
            Receiver::new(vec![drinker, bar])
        })
        .collect()
}

fn seq_vs_shard(c: &mut Criterion) {
    let threads = thread_axis();
    let mut group = c.benchmark_group("seq_vs_shard");
    group.sample_size(10);
    for &scale in &[256u32, 1024] {
        let (s, i) = dense_instance(scale);
        let m = add_bar(&s);
        for dist in ["uniform", "zipf", "xs25", "xs50"] {
            // The cross-shard series only needs the large scale — the
            // point is the fallback fraction, not the size sweep.
            if dist.starts_with("xs") && scale != 1024 {
                continue;
            }
            for &t in &threads {
                let wave = wave_for(&s, scale, t, dist, 0xB5EE);
                receivers_rt::set_num_threads(Some(t));
                let cfg = ShardConfig {
                    shards: Some(t),
                    ..ShardConfig::default()
                };

                // Same receivers, same result, two execution strategies —
                // checked on the cold path (a fresh executor) before
                // anything is timed.
                let mut oneshot = i.clone();
                let out = ShardedExecutor::new(&m, &cfg)
                    .expect("add_bar certifies")
                    .apply(&mut oneshot, &mut NullObserver, &wave, None);
                assert_eq!(out, InPlaceOutcome::Applied);

                // Persistent sequential arm: live instance + maintained
                // view, converged once so the timed waves are steady-state.
                let mut seq_inst = i.clone();
                let mut seq_view = DatabaseView::new(&seq_inst);
                let out = m.apply_sequence_viewed(&mut seq_inst, &mut seq_view, &wave);
                assert_eq!(out, InPlaceOutcome::Applied);
                assert_eq!(seq_inst, oneshot, "{dist}/{scale}/t{t}");

                // Persistent sharded arm: warm per-shard replicas.
                let mut ex_inst = i.clone();
                let mut exec = ShardedExecutor::new(&m, &cfg).expect("add_bar certifies");
                let out = exec.apply(&mut ex_inst, &mut NullObserver, &wave, None);
                assert_eq!(out, InPlaceOutcome::Applied);
                assert_eq!(ex_inst, seq_inst, "{dist}/{scale}/t{t}");

                let case = format!("{scale}/t{t}");
                group.bench_with_input(
                    BenchmarkId::new(format!("sequential/{dist}"), &case),
                    &wave,
                    |b, wave| {
                        b.iter(|| {
                            black_box(m.apply_sequence_viewed(&mut seq_inst, &mut seq_view, wave))
                        })
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("sharded/{dist}"), &case),
                    &wave,
                    |b, wave| {
                        b.iter(|| {
                            black_box(exec.apply(&mut ex_inst, &mut NullObserver, wave, None))
                        })
                    },
                );

                // Both arms must still agree after every timed wave.
                assert_eq!(ex_inst, seq_inst, "{dist}/{scale}/t{t} post-bench");
            }
        }
    }
    receivers_rt::set_num_threads(None);
    group.finish();
}

criterion_group!(benches, seq_vs_shard);
criterion_main!(benches);

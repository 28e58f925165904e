//! Deterministic fork-join primitives for the decision procedures.
//!
//! The external `rayon` crate is unavailable in this build environment, so
//! this crate provides the combinators the workspace actually needs,
//! built on `std::thread::scope`:
//!
//! * [`par_find_map_first`] — first (lowest-index) `Some`, with
//!   cross-thread early exit;
//! * [`par_join`] — run two closures concurrently;
//! * [`shard_map`] — per-shard worker loops: workers claim whole shards
//!   from one shared cursor (the runtime of `receivers_core::shard`, the
//!   library's sharded engine).
//!
//! **Determinism.** Every combinator returns exactly what its sequential
//! counterpart would: `par_find_map_first` always reports the lowest-index
//! hit regardless of thread timing, `par_join` is pure composition, and
//! `shard_map` returns each shard's result in shard order. Disabling the `parallel` feature (or
//! setting `RECEIVERS_RT_THREADS=1`) degrades to plain loops with
//! bit-identical results, which is what keeps single-threaded builds and
//! CI runs reproducible.
//!
//! **Observability.** With `RECEIVERS_METRICS` set the combinators export
//! `rt.*` counters and histograms through `receivers-obs` — tasks
//! spawned, cursor claims, steals, per-worker item counts, and the
//! witness index of each find-first — and with `RECEIVERS_TRACE` set
//! every worker runs under an `rt.worker` span parented to the span that
//! was open at the spawn site. [`par_find_map_first_stats`] additionally
//! returns the per-call split statistics directly to the caller, so tests
//! can assert on the stealing behaviour without global state.

#![warn(missing_docs)]

pub mod shard;

use receivers_obs as obs;

use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(feature = "parallel")]
use std::sync::Mutex;

pub use shard::shard_map;

obs::counter!(C_TASKS_SPAWNED, "rt.tasks_spawned");
obs::counter!(C_FIND_CALLS, "rt.find_first.calls");
obs::counter!(C_FIND_CLAIMS, "rt.find_first.claims");
obs::counter!(C_STEALS, "rt.steals");
obs::counter!(C_PAR_JOIN_CALLS, "rt.par_join.calls");
obs::histogram!(H_WITNESS_INDEX, "rt.find_first.witness_index");
obs::histogram!(H_ITEMS_PER_WORKER, "rt.find_first.items_per_worker");

/// Process-wide programmatic thread-count override; 0 means unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set (or with `None` clear) the process-wide worker count.
///
/// The builder-style counterpart of the `RECEIVERS_RT_THREADS` variable,
/// for callers — benchmarks sweeping a core-count axis, embedders with
/// their own topology knowledge — that cannot reach the environment before
/// the first combinator runs. Takes precedence over the environment;
/// clamped to at least 1.
pub fn set_num_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Worker count: the [`set_num_threads`] override when set, else
/// `RECEIVERS_RT_THREADS` when set, else the machine's available
/// parallelism. Always at least 1; without the `parallel` feature,
/// exactly 1.
pub fn num_threads() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
        let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
        if over > 0 {
            return over;
        }
        if let Ok(v) = std::env::var("RECEIVERS_RT_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

/// How one worker participated in a [`par_find_map_first_stats`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// The first index this worker claimed (`None`: it never got one).
    pub first_claim: Option<usize>,
    /// How many indices this worker claimed in total.
    pub claims: usize,
}

/// Work-split statistics of one [`par_find_map_first_stats`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FindFirstStats {
    /// Worker threads the call ran with (1 = sequential fallback).
    pub workers: usize,
    /// One entry per worker, in spawn order.
    pub per_worker: Vec<WorkerStats>,
    /// Index of the reported hit, if any.
    pub witness_index: Option<usize>,
}

impl FindFirstStats {
    /// Total indices claimed across all workers.
    pub fn total_claims(&self) -> usize {
        self.per_worker.iter().map(|w| w.claims).sum()
    }

    /// Claims beyond each participating worker's first: with a shared
    /// cursor there is no fixed ownership, so every subsequent claim is
    /// work taken from the common pool ("stolen" from the static split a
    /// strided scheduler would have imposed).
    pub fn steals(&self) -> usize {
        self.total_claims()
            - self
                .per_worker
                .iter()
                .filter(|w| w.first_claim.is_some())
                .count()
    }
}

/// The first (lowest-index) `Some(f(item))`, or `None`.
///
/// Work-stealing split: instead of fixed per-worker strides, all workers
/// claim indices from one shared atomic cursor. A worker stuck on an
/// expensive item simply stops claiming while the others drain the rest of
/// the slice, so skewed per-item costs (one hard containment disjunct
/// among cheap ones) cannot idle `workers − 1` threads the way a fixed
/// stride could.
///
/// **Determinism.** The result is still exactly the sequential one:
///
/// * cursor claims ascend, so every index below a claimed `i` was claimed
///   before `i`;
/// * the shared best-hit index only ever decreases, and a worker abandons
///   its claim only when `best < i` — the final best is then `≤ best < i`,
///   so no abandoned index can beat the reported hit;
/// * competing hits resolve under one mutex, lowest index wins.
pub fn par_find_map_first<T, R, F>(items: &[T], f: F) -> Option<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Option<R> + Sync,
{
    find_first_impl(items, f, false).0
}

/// [`par_find_map_first`], also returning how the work split across
/// workers. The statistics are collected unconditionally (they are a few
/// thread-local integers), so callers — the skew-balance tests, the
/// examples — can assert on stealing behaviour even with metrics off.
pub fn par_find_map_first_stats<T, R, F>(items: &[T], f: F) -> (Option<R>, FindFirstStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Option<R> + Sync,
{
    let (r, stats) = find_first_impl(items, f, true);
    (r, stats.expect("stats requested"))
}

fn find_first_impl<T, R, F>(items: &[T], f: F, collect: bool) -> (Option<R>, Option<FindFirstStats>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Option<R> + Sync,
{
    C_FIND_CALLS.incr();
    let record = obs::metrics_enabled();
    #[cfg(feature = "parallel")]
    {
        let workers = num_threads().min(items.len());
        if workers > 1 {
            let cursor = AtomicUsize::new(0);
            let best_idx = AtomicUsize::new(usize::MAX);
            let best: Mutex<Option<(usize, R)>> = Mutex::new(None);
            // Worker stats land here in spawn order; tracked as two local
            // integers per worker, so the disabled path stays allocation-
            // and atomic-free inside the claim loop.
            let track = collect || record;
            let stats: Mutex<Vec<(usize, WorkerStats)>> = Mutex::new(Vec::new());
            let parent = obs::current_span();
            std::thread::scope(|s| {
                for w in 0..workers {
                    let (f, best, best_idx, cursor, stats) =
                        (&f, &best, &best_idx, &cursor, &stats);
                    C_TASKS_SPAWNED.incr();
                    s.spawn(move || {
                        let _w = obs::span_under("rt.worker", parent);
                        let mut first_claim = None;
                        let mut claims = 0usize;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            claims += 1;
                            if first_claim.is_none() {
                                first_claim = Some(i);
                            }
                            // Claims ascend, so one earlier hit ends this
                            // worker for good.
                            if best_idx.load(Ordering::Acquire) < i {
                                break;
                            }
                            if let Some(r) = f(&items[i]) {
                                let mut slot = best.lock().expect("rt lock poisoned");
                                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                    *slot = Some((i, r));
                                    best_idx.fetch_min(i, Ordering::Release);
                                }
                                break;
                            }
                        }
                        if track {
                            stats.lock().expect("rt lock poisoned").push((
                                w,
                                WorkerStats {
                                    first_claim,
                                    claims,
                                },
                            ));
                        }
                    });
                }
            });
            let hit = best.into_inner().expect("rt lock poisoned");
            let witness_index = hit.as_ref().map(|&(i, _)| i);
            let result = hit.map(|(_, r)| r);
            let stats = track.then(|| {
                let mut per = stats.into_inner().expect("rt lock poisoned");
                per.sort_by_key(|&(w, _)| w);
                FindFirstStats {
                    workers,
                    per_worker: per.into_iter().map(|(_, s)| s).collect(),
                    witness_index,
                }
            });
            if record {
                if let Some(stats) = &stats {
                    record_find_metrics(stats);
                }
            }
            return (result, collect.then(|| stats.expect("tracked")));
        }
    }
    // Sequential fallback: one "worker" claiming every index in order.
    let mut claims = 0usize;
    let mut witness_index = None;
    let mut result = None;
    for (i, item) in items.iter().enumerate() {
        claims += 1;
        if let Some(r) = f(item) {
            witness_index = Some(i);
            result = Some(r);
            break;
        }
    }
    let stats = (collect || record).then(|| FindFirstStats {
        workers: 1,
        per_worker: vec![WorkerStats {
            first_claim: (claims > 0).then_some(0),
            claims,
        }],
        witness_index,
    });
    if record {
        if let Some(stats) = &stats {
            record_find_metrics(stats);
        }
    }
    (result, collect.then(|| stats.expect("tracked")))
}

fn record_find_metrics(stats: &FindFirstStats) {
    C_FIND_CLAIMS.add(stats.total_claims() as u64);
    C_STEALS.add(stats.steals() as u64);
    for w in &stats.per_worker {
        H_ITEMS_PER_WORKER.record(w.claims as u64);
    }
    if let Some(i) = stats.witness_index {
        H_WITNESS_INDEX.record(i as u64);
    }
}

/// Run `a` and `b` concurrently, returning both results.
pub fn par_join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    C_PAR_JOIN_CALLS.incr();
    #[cfg(feature = "parallel")]
    {
        if num_threads() > 1 {
            let parent = obs::current_span();
            return std::thread::scope(|s| {
                C_TASKS_SPAWNED.incr();
                let hb = s.spawn(move || {
                    let _w = obs::span_under("rt.worker", parent);
                    b()
                });
                let ra = a();
                (ra, hb.join().expect("rt worker panicked"))
            });
        }
    }
    (a(), b())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_returns_lowest_index_hit() {
        // Many hits: must always report the first one.
        let items: Vec<u64> = (0..10_000).collect();
        for _ in 0..10 {
            let hit = par_find_map_first(&items, |&x| (x >= 137).then_some(x));
            assert_eq!(hit, Some(137));
        }
        let miss = par_find_map_first(&items, |&x| (x > 1_000_000).then_some(x));
        assert_eq!(miss, None);
    }

    #[test]
    fn find_handles_slow_early_hit() {
        // The earliest hit is artificially the slowest to compute; the
        // result must still be the lowest index.
        let items: Vec<u64> = (0..64).collect();
        let hit = par_find_map_first(&items, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Some(x)
            } else if x > 10 {
                Some(x)
            } else {
                None
            }
        });
        assert_eq!(hit, Some(0));
    }

    /// Skewed per-item costs: the worker that claims the one expensive
    /// item must not also end up owning a fixed 1/workers share of the
    /// slice — the shared cursor lets the other workers drain it while the
    /// expensive item computes. Asserted on the exported split statistics.
    /// (Timing-based; skipped under Miri, where the determinism test below
    /// covers the same code path.)
    #[test]
    #[cfg_attr(miri, ignore)]
    fn work_stealing_balances_skewed_costs() {
        if num_threads() < 2 {
            eprintln!("skipping: single-threaded configuration");
            return;
        }
        let items: Vec<u64> = (0..512).collect();
        let (miss, stats) = par_find_map_first_stats(&items, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            None::<u64>
        });
        assert_eq!(miss, None);
        assert_eq!(stats.witness_index, None);
        assert_eq!(stats.per_worker.len(), stats.workers);
        assert_eq!(
            stats.total_claims(),
            512,
            "every index claimed exactly once"
        );
        // Item 0 is the first claim handed out, so the worker whose first
        // claim is index 0 is the one that slept on the expensive item.
        let slow = stats
            .per_worker
            .iter()
            .find(|w| w.first_claim == Some(0))
            .expect("someone claimed item 0");
        // With fixed strides the slow worker would own 512/workers ≥ 256
        // items; with the cursor the cheap items drain while it sleeps.
        assert!(
            slow.claims <= 16,
            "expensive-item worker claimed {} items; stealing failed",
            slow.claims
        );
        // The other workers drained the rest: those claims are steals.
        assert!(
            stats.steals() >= 512 - 16 - stats.workers,
            "too few steals: {}",
            stats.steals()
        );
    }

    /// Lowest-index-wins determinism of the shared-cursor claim loop,
    /// small enough to run under Miri (which exercises its weak-memory
    /// model against the Relaxed cursor / Acquire-Release best-index
    /// pair).
    #[test]
    fn cursor_claims_keep_lowest_index_determinism() {
        let items: Vec<u64> = (0..48).collect();
        for rep in 0..8 {
            let hit = par_find_map_first(&items, |&x| {
                if x % 7 == 3 {
                    Some(x)
                } else {
                    std::thread::yield_now();
                    None
                }
            });
            assert_eq!(hit, Some(3), "rep {rep}");
        }
        assert_eq!(par_find_map_first(&items, |_| None::<u64>), None);
    }

    #[test]
    fn stats_report_the_witness_and_cover_every_worker() {
        let items: Vec<u64> = (0..256).collect();
        let (hit, stats) = par_find_map_first_stats(&items, |&x| (x >= 100).then_some(x));
        assert_eq!(hit, Some(100));
        assert_eq!(stats.witness_index, Some(100));
        assert_eq!(stats.per_worker.len(), stats.workers);
        assert!(stats.total_claims() >= 101, "indices 0..=100 all claimed");
        assert!(stats.workers >= 1);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = par_join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
    }
}

//! Per-shard worker loops.
//!
//! A chunked parallel map hands each worker one contiguous chunk and
//! joins; the sharded application of an update method needs a different
//! shape. Its work is already partitioned into shards, each shard must be
//! consumed in order by one thread (each receiver sees the effects of the
//! previous ones), and distinct shards proceed independently.
//! [`shard_map`] provides that shape:
//!
//! * the caller hands over one item per shard — typically the shard's
//!   receivers together with the state only that shard touches;
//! * workers claim whole shards from one shared atomic cursor, the claim
//!   loop [`par_find_map_first`](crate::par_find_map_first) uses, so a
//!   worker that finishes its shard claims the next unclaimed one and
//!   `shards > workers` balances skew;
//! * results come back in shard order, so the output — like everything
//!   in this crate — is bit-identical to the inline fallback regardless
//!   of thread timing; a worker panic propagates to the caller.
//!
//! With one worker (or without the `parallel` feature) every shard runs
//! inline on the caller's thread, same results.

use receivers_obs as obs;

#[cfg(feature = "parallel")]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(feature = "parallel")]
use std::sync::Mutex;

obs::counter!(C_SHARD_CALLS, "rt.shard.calls");
obs::counter!(C_SHARD_RUNS, "rt.shard.runs");
obs::counter!(C_SHARD_STEALS, "rt.shard.steals");

/// Run `f(shard_index, shard)` once per shard on up to `workers` threads
/// and return the results in shard order. See the module docs for the
/// claiming contract. `workers` is clamped to `1..=shards.len()`; a panic
/// in `f` propagates once every worker has stopped.
pub fn shard_map<T, R, F>(shards: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    C_SHARD_CALLS.incr();
    #[cfg(feature = "parallel")]
    if workers.min(shards.len()) > 1 {
        return shard_map_parallel(shards, workers, f);
    }
    #[cfg(not(feature = "parallel"))]
    let _ = workers;

    shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            C_SHARD_RUNS.incr();
            f(i, shard)
        })
        .collect()
}

#[cfg(feature = "parallel")]
fn shard_map_parallel<T, R, F>(shards: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let nshards = shards.len();
    // Each slot is taken exactly once, by the worker that claimed its
    // index, so the locks are never contended.
    let slots: Vec<Mutex<Option<T>>> = shards.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let cursor = AtomicUsize::new(0);
    let parent = obs::current_span();
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(nshards))
            .map(|_| {
                let (slots, cursor, f) = (&slots, &cursor, &f);
                s.spawn(move || {
                    let _span = obs::span_under("rt.shard.worker", parent);
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= nshards {
                            return out;
                        }
                        // Every claim past a worker's first is taken from
                        // the common pool.
                        if !out.is_empty() {
                            C_SHARD_STEALS.incr();
                        }
                        C_SHARD_RUNS.incr();
                        let shard = slots[i]
                            .lock()
                            .expect("a slot is locked only to take its shard")
                            .take()
                            .expect("each shard is claimed once");
                        out.push((i, f(i, shard)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    let mut results: Vec<Option<R>> = (0..nshards).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every shard claimed and completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards() -> Vec<Vec<u64>> {
        (0..7).map(|s| (s * 100..s * 100 + 23).collect()).collect()
    }

    /// Each shard reaches `f` whole and in its original item order, and
    /// results come back in shard order — for any worker count, including
    /// more shards than workers.
    #[test]
    fn shards_keep_their_order() {
        for workers in [1, 2, 4, 8] {
            let out = shard_map(shards(), workers, |i, items| (i, items));
            for (i, (shard, got)) in out.into_iter().enumerate() {
                assert_eq!(shard, i);
                assert_eq!(got, shards()[i], "shard {i} with {workers} workers");
            }
        }
    }

    /// The parallel result is bit-identical to the inline one.
    #[test]
    fn parallel_matches_inline() {
        let input: Vec<Vec<u64>> = (0..5).map(|s| (0..50 + s).collect()).collect();
        let sum = |i: usize, items: Vec<u64>| i as u64 + items.iter().sum::<u64>();
        let inline = shard_map(input.clone(), 1, sum);
        let par = shard_map(input, 4, sum);
        assert_eq!(inline, par);
    }

    #[test]
    fn empty_inputs_and_empty_shards() {
        let none: Vec<usize> = shard_map(Vec::<Vec<u64>>::new(), 4, |_, items| items.len());
        assert_eq!(none, Vec::<usize>::new());
        let some = shard_map(vec![vec![], vec![1u64], vec![]], 2, |_, items| items.len());
        assert_eq!(some, vec![0, 1, 0]);
    }

    /// Each worker gets `&mut` access to its shard's own state.
    #[test]
    fn workers_own_their_shard_state() {
        let mut state: Vec<u64> = vec![0; 6];
        let items: Vec<(u64, &mut u64)> = (1..=6).zip(state.iter_mut()).collect();
        let out = shard_map(items, 3, |i, (n, slot)| {
            *slot = n * 10;
            i
        });
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(state, vec![10, 20, 30, 40, 50, 60]);
    }

    /// A panicking worker propagates its panic to the caller.
    #[test]
    fn worker_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            shard_map(shards(), 2, |i, items| {
                assert!(i != 3, "boom");
                items.len()
            })
        });
        let payload = res.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom"), "the worker's own payload: {msg:?}");
    }

    /// With one worker held on its first shard until every other shard
    /// is done, the free worker claims all of them.
    #[test]
    #[cfg(feature = "parallel")]
    fn free_workers_claim_the_remaining_shards() {
        let done = AtomicUsize::new(0);
        let out = shard_map((0..8u64).collect(), 2, |i, item| {
            if i == 0 {
                while done.load(Ordering::Acquire) < 7 {
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::Release);
            }
            (item, std::thread::current().id())
        });
        assert_eq!(
            out.iter().map(|(item, _)| *item).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        let held = out[0].1;
        assert!(
            out[1..].iter().all(|(_, id)| *id != held),
            "the free worker must claim every shard the held one cannot"
        );
    }

    /// Both directions for the `rt.` prefix: every `rt.*` line of the
    /// observability manifest is a metric this crate declares, and every
    /// metric it declares is in the manifest, so `obs_check --metrics`
    /// stays an exhaustive gate.
    #[test]
    fn rt_metrics_match_the_manifest() {
        let manifest: std::collections::BTreeSet<&str> =
            include_str!("../../obs/metrics_manifest.txt")
                .lines()
                .map(str::trim)
                .filter(|l| l.starts_with("rt."))
                .collect();
        let declared: std::collections::BTreeSet<&str> =
            [include_str!("lib.rs"), include_str!("shard.rs")]
                .into_iter()
                .flat_map(str::lines)
                .map(str::trim)
                .filter(|l| l.starts_with("obs::counter!(") || l.starts_with("obs::histogram!("))
                .filter_map(|l| l.split('"').nth(1))
                .collect();
        assert!(declared.contains("rt.shard.calls"), "{declared:?}");
        assert_eq!(manifest, declared);
    }
}

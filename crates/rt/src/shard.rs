//! Per-shard worker loops with a batch scheduler.
//!
//! A chunked parallel map hands each worker one contiguous chunk and
//! joins; that shape cannot express the sharded application of an update
//! method, where work arrives as *per-shard streams* that must be consumed
//! in order (each shard's receivers see the effects of the previous ones)
//! while distinct shards proceed independently. [`shard_map`] provides
//! that shape:
//!
//! * the caller's items are already partitioned into shards; within a
//!   shard, order is preserved end to end;
//! * each shard is claimed by exactly **one** worker, which processes the
//!   shard's batches through a [`ShardTasks`] pull-iterator — a worker
//!   that finishes its shard claims the next unclaimed one (shard-granular
//!   work stealing, so `shards > workers` balances skew);
//! * the caller's thread acts as the **batch scheduler**: it chops every
//!   shard into batches and feeds them into bounded per-shard MPSC run
//!   queues, parking only when every queue with pending work is full, so
//!   a stalled shard cannot wedge the feed of the others;
//! * results come back indexed by shard, so the output — like everything
//!   in this crate — is bit-identical to the sequential fallback
//!   regardless of thread timing.
//!
//! Worker count comes from [`ShardPoolConfig::workers`], defaulting to
//! [`num_threads`](crate::num_threads) (the `RECEIVERS_RT_THREADS` /
//! [`set_num_threads`](crate::set_num_threads) override); batch size and
//! queue capacity come from `RECEIVERS_RT_BATCH` / `RECEIVERS_RT_QUEUE`
//! unless set explicitly. With one worker (or without the `parallel`
//! feature) everything runs inline on the caller's thread, same results.

use receivers_obs as obs;

#[cfg(feature = "parallel")]
use std::collections::VecDeque;
use std::marker::PhantomData;
#[cfg(feature = "parallel")]
use std::sync::{Condvar, Mutex, MutexGuard};

obs::counter!(C_SHARD_CALLS, "rt.shard.calls");
obs::counter!(C_SHARD_RUNS, "rt.shard.runs");
obs::counter!(C_SHARD_BATCHES, "rt.shard.batches");
obs::counter!(C_SHARD_STEALS, "rt.shard.steals");
obs::histogram!(H_QUEUE_DEPTH, "rt.shard.queue_depth");
obs::histogram!(H_BATCH_LEN, "rt.shard.batch_len");
#[cfg(feature = "parallel")]
obs::histogram!(H_QUEUE_WAIT, "rt.shard.queue_wait_ns");

/// Tuning knobs for [`shard_map`]. `Default` reads the environment.
#[derive(Debug, Clone)]
pub struct ShardPoolConfig {
    /// Worker threads; `None` defers to [`num_threads`](crate::num_threads).
    pub workers: Option<usize>,
    /// Items per scheduled batch (`RECEIVERS_RT_BATCH`, default 32).
    pub batch_size: usize,
    /// Bound of each shard's run queue, in batches (`RECEIVERS_RT_QUEUE`,
    /// default 4).
    pub queue_capacity: usize,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(default, |n| n.max(1))
}

impl Default for ShardPoolConfig {
    fn default() -> Self {
        Self {
            workers: None,
            batch_size: env_usize("RECEIVERS_RT_BATCH", 32),
            queue_capacity: env_usize("RECEIVERS_RT_QUEUE", 4),
        }
    }
}

impl ShardPoolConfig {
    /// Builder: pin the worker count for this pool only.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Builder: items per scheduled batch.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Builder: per-shard queue bound, in batches.
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    fn effective_workers(&self, shards: usize) -> usize {
        #[cfg(not(feature = "parallel"))]
        {
            let _ = shards;
            1
        }
        #[cfg(feature = "parallel")]
        {
            self.workers
                .unwrap_or_else(crate::num_threads)
                .min(shards)
                .max(1)
        }
    }
}

#[cfg(feature = "parallel")]
struct State<T> {
    /// One bounded run queue of batches per shard.
    queues: Vec<VecDeque<Vec<T>>>,
    /// Scheduler has no more batches for this shard.
    fed_done: Vec<bool>,
    /// Shard has been claimed by some worker.
    claimed: Vec<bool>,
    /// A worker panicked: unblock everyone and let the scope propagate.
    aborted: bool,
}

#[cfg(feature = "parallel")]
struct Shared<T> {
    state: Mutex<State<T>>,
    /// Workers park here for batches (or a shard to claim).
    work: Condvar,
    /// The scheduler parks here when every pending queue is full.
    space: Condvar,
    capacity: usize,
}

#[cfg(feature = "parallel")]
impl<T> Shared<T> {
    /// Lock, surviving poisoning: the abort protocol must still run after
    /// a worker panicked while holding the lock.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// On unwind, mark the run aborted and wake every parked thread, so a
/// panicking worker cannot leave the scheduler or its peers parked forever
/// (the panic itself still propagates through the scope join).
#[cfg(feature = "parallel")]
struct AbortGuard<'a, T> {
    shared: &'a Shared<T>,
}

#[cfg(feature = "parallel")]
impl<T> Drop for AbortGuard<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.lock().aborted = true;
            self.shared.work.notify_all();
            self.shared.space.notify_all();
        }
    }
}

/// The pull-iterator a [`shard_map`] worker drains its claimed shard
/// through: batches arrive in the shard's original item order.
pub struct ShardTasks<'a, T> {
    inner: TasksInner<'a, T>,
    /// Nanoseconds spent parked on the run queue (see [`Self::wait_ns`]).
    wait_ns: u64,
}

enum TasksInner<'a, T> {
    /// Inline fallback: the pre-chopped batches, owned.
    Seq(std::vec::IntoIter<Vec<T>>, PhantomData<&'a ()>),
    #[cfg(feature = "parallel")]
    Queue { shard: usize, shared: &'a Shared<T> },
}

impl<T> ShardTasks<'_, T> {
    /// The next batch of this shard, in order; `None` once the shard is
    /// exhausted. Blocks while the scheduler is still feeding the shard.
    pub fn next_batch(&mut self) -> Option<Vec<T>> {
        match &mut self.inner {
            TasksInner::Seq(batches, _) => batches.next(),
            #[cfg(feature = "parallel")]
            TasksInner::Queue { shard, shared } => {
                // Time the parked stretch only when someone will read it:
                // the disabled path must stay a branch on two atomic loads.
                let timed = obs::metrics_enabled() || obs::profile_enabled();
                let mut parked_at: Option<std::time::Instant> = None;
                let mut st = shared.lock();
                let out = loop {
                    if st.aborted {
                        break None;
                    }
                    if let Some(b) = st.queues[*shard].pop_front() {
                        shared.space.notify_all();
                        break Some(b);
                    }
                    if st.fed_done[*shard] {
                        break None;
                    }
                    if timed && parked_at.is_none() {
                        parked_at = Some(std::time::Instant::now());
                    }
                    st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
                };
                drop(st);
                if let Some(t0) = parked_at {
                    let ns = t0.elapsed().as_nanos() as u64;
                    H_QUEUE_WAIT.record(ns);
                    self.wait_ns += ns;
                }
                out
            }
        }
    }

    /// Total nanoseconds this worker spent parked waiting for the
    /// scheduler to feed its shard, across all [`Self::next_batch`]
    /// calls so far. Stays 0 on the inline fallback and whenever
    /// neither metrics nor profiling are enabled.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns
    }
}

/// Run `f` once per shard on a pool of persistent worker loops, feeding
/// each shard's items through bounded run queues in batches; returns the
/// per-shard results in shard order. See the module docs for the
/// scheduling contract. `f(shard_index, tasks)` must drain `tasks` (any
/// undrained batches are discarded after it returns, so an early return
/// cannot wedge the scheduler).
pub fn shard_map<T, R, F>(shards: Vec<Vec<T>>, cfg: &ShardPoolConfig, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut ShardTasks<'_, T>) -> R + Sync,
{
    C_SHARD_CALLS.incr();
    let nshards = shards.len();
    if nshards == 0 {
        return Vec::new();
    }
    let workers = cfg.effective_workers(nshards);
    let batch = cfg.batch_size.max(1);

    #[cfg(feature = "parallel")]
    if workers > 1 {
        return shard_map_parallel(shards, cfg, workers, batch, f);
    }

    // Inline fallback: shards in order, one worker loop on this thread.
    shards
        .into_iter()
        .enumerate()
        .map(|(i, items)| {
            C_SHARD_RUNS.incr();
            let batches: Vec<Vec<T>> = chop(items, batch);
            C_SHARD_BATCHES.add(batches.len() as u64);
            let mut tasks = ShardTasks {
                inner: TasksInner::Seq(batches.into_iter(), PhantomData),
                wait_ns: 0,
            };
            f(i, &mut tasks)
        })
        .collect()
}

fn chop<T>(items: Vec<T>, batch: usize) -> Vec<Vec<T>> {
    let mut items = items.into_iter();
    let mut out = Vec::new();
    loop {
        let b: Vec<T> = items.by_ref().take(batch).collect();
        if b.is_empty() {
            return out;
        }
        H_BATCH_LEN.record(b.len() as u64);
        out.push(b);
    }
}

#[cfg(feature = "parallel")]
fn shard_map_parallel<T, R, F>(
    shards: Vec<Vec<T>>,
    cfg: &ShardPoolConfig,
    workers: usize,
    batch: usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut ShardTasks<'_, T>) -> R + Sync,
{
    let nshards = shards.len();
    let shared = Shared {
        state: Mutex::new(State {
            queues: (0..nshards).map(|_| VecDeque::new()).collect(),
            fed_done: vec![false; nshards],
            claimed: vec![false; nshards],
            aborted: false,
        }),
        work: Condvar::new(),
        space: Condvar::new(),
        capacity: cfg.queue_capacity.max(1),
    };
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..nshards).map(|_| None).collect());
    let mut pending: Vec<VecDeque<Vec<T>>> = shards
        .into_iter()
        .map(|items| chop(items, batch).into())
        .collect();

    let parent = obs::current_span();
    std::thread::scope(|s| {
        for w in 0..workers {
            let (shared, results, f) = (&shared, &results, &f);
            s.spawn(move || {
                let _span = obs::span_under("rt.shard.worker", parent);
                let _abort = AbortGuard { shared };
                loop {
                    let shard = {
                        let mut st = shared.lock();
                        if st.aborted {
                            return;
                        }
                        match (0..nshards).find(|&i| !st.claimed[i]) {
                            Some(i) => {
                                st.claimed[i] = true;
                                i
                            }
                            None => return,
                        }
                    };
                    C_SHARD_RUNS.incr();
                    // With shard-granular stealing a worker's "own" shards
                    // are the strided ones; any other claim is a steal.
                    if shard % workers != w {
                        C_SHARD_STEALS.incr();
                    }
                    let mut tasks = ShardTasks {
                        inner: TasksInner::Queue { shard, shared },
                        wait_ns: 0,
                    };
                    let r = f(shard, &mut tasks);
                    // Discard anything f left undrained so the scheduler
                    // cannot stay parked on this shard's full queue.
                    while tasks.next_batch().is_some() {}
                    results.lock().unwrap_or_else(|e| e.into_inner())[shard] = Some(r);
                }
            });
        }

        // The caller's thread is the batch scheduler.
        loop {
            let mut st = shared.lock();
            if st.aborted {
                break;
            }
            let mut pushed = false;
            for (i, shard_pending) in pending.iter_mut().enumerate() {
                while !shard_pending.is_empty() && st.queues[i].len() < shared.capacity {
                    let b = shard_pending.pop_front().expect("non-empty pending");
                    C_SHARD_BATCHES.incr();
                    st.queues[i].push_back(b);
                    H_QUEUE_DEPTH.record(st.queues[i].len() as u64);
                    pushed = true;
                }
                if shard_pending.is_empty() && !st.fed_done[i] {
                    st.fed_done[i] = true;
                    pushed = true;
                }
            }
            if pushed {
                shared.work.notify_all();
            }
            if pending.iter().all(VecDeque::is_empty) {
                break;
            }
            if !pushed {
                // Every queue with pending work is at capacity: park until
                // a worker pops. Checked and parked under one lock, so the
                // wakeup cannot be lost.
                drop(shared.space.wait(st).unwrap_or_else(|e| e.into_inner()));
            }
        }
    });

    results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("every shard claimed and completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize) -> ShardPoolConfig {
        ShardPoolConfig::default()
            .with_workers(workers)
            .with_batch_size(3)
            .with_queue_capacity(2)
    }

    fn drain_concat(tasks: &mut ShardTasks<'_, u64>) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(b) = tasks.next_batch() {
            out.extend(b);
        }
        out
    }

    /// Within a shard, batches reassemble the original item order — for
    /// any worker count, including more shards than workers (stealing).
    #[test]
    fn batches_preserve_per_shard_order() {
        let shards: Vec<Vec<u64>> = (0..7).map(|s| (s * 100..s * 100 + 23).collect()).collect();
        for workers in [1, 2, 4, 8] {
            let out = shard_map(shards.clone(), &cfg(workers), |i, tasks| {
                let got = drain_concat(tasks);
                (i, got)
            });
            for (i, (shard, got)) in out.into_iter().enumerate() {
                assert_eq!(shard, i);
                assert_eq!(got, shards[i], "shard {i} with {workers} workers");
            }
        }
    }

    /// The parallel result is bit-identical to the single-worker one.
    #[test]
    fn parallel_matches_sequential_fallback() {
        let shards: Vec<Vec<u64>> = (0..5).map(|s| (0..50 + s).collect()).collect();
        let seq = shard_map(shards.clone(), &cfg(1), |i, t| {
            (i as u64) + drain_concat(t).iter().sum::<u64>()
        });
        let par = shard_map(shards, &cfg(4), |i, t| {
            (i as u64) + drain_concat(t).iter().sum::<u64>()
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_inputs_and_empty_shards() {
        let none: Vec<u64> = shard_map(Vec::<Vec<u64>>::new(), &cfg(4), |_, t| {
            drain_concat(t).len() as u64
        });
        assert_eq!(none, Vec::<u64>::new());
        let some = shard_map(vec![vec![], vec![1u64], vec![]], &cfg(2), |_, t| {
            drain_concat(t).len() as u64
        });
        assert_eq!(some, vec![0, 1, 0]);
    }

    /// A worker that returns without draining must not wedge the
    /// scheduler, even with a tiny queue bound and many batches.
    #[test]
    fn early_return_does_not_deadlock_the_scheduler() {
        let shards: Vec<Vec<u64>> = (0..4).map(|_| (0..64).collect()).collect();
        let cfg = ShardPoolConfig::default()
            .with_workers(2)
            .with_batch_size(1)
            .with_queue_capacity(1);
        let out = shard_map(shards, &cfg, |i, tasks| {
            // Take a single batch and abandon the rest.
            tasks.next_batch().map(|b| b.len()).unwrap_or(0) + i
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    /// A panicking worker aborts the run and propagates, instead of
    /// leaving the scheduler or its peers parked.
    #[test]
    fn worker_panic_propagates() {
        let shards: Vec<Vec<u64>> = (0..6).map(|_| (0..32).collect()).collect();
        let cfg = ShardPoolConfig::default()
            .with_workers(2)
            .with_batch_size(1)
            .with_queue_capacity(1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard_map(shards, &cfg, |i, tasks| {
                let n = drain_concat(tasks).len();
                assert!(i != 3, "boom");
                n
            })
        }));
        assert!(res.is_err());
    }

    /// Stealing accounting: with one worker pinned by a slow shard, the
    /// other drains the rest. (Timing-based; skipped under Miri — the
    /// order/determinism tests above cover the same code paths there.)
    #[test]
    #[cfg_attr(miri, ignore)]
    fn finished_workers_steal_unclaimed_shards() {
        let shards: Vec<Vec<u64>> = (0..8).map(|s| vec![s]).collect();
        let out = shard_map(shards, &cfg(2), |i, tasks| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            drain_concat(tasks)
        });
        assert_eq!(out.len(), 8);
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got, &vec![i as u64]);
        }
    }
}

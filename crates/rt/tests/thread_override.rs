//! The thread-count knobs, exercised in their own process so the lib
//! tests (which read `num_threads()` concurrently) cannot interfere.
//!
//! One `#[test]` on purpose: the override and the environment variable are
//! process-global, and the harness runs tests of a binary in parallel.

#![cfg(feature = "parallel")]

/// Precedence (programmatic override beats the environment beats
/// detection, everything clamped to at least one worker), then the
/// override steering a real `shard_map`.
#[test]
fn thread_count_knobs() {
    // Own process: nothing else reads the variable concurrently.
    std::env::set_var("RECEIVERS_RT_THREADS", "5");
    assert_eq!(receivers_rt::num_threads(), 5);

    receivers_rt::set_num_threads(Some(3));
    assert_eq!(receivers_rt::num_threads(), 3, "override beats the env");

    receivers_rt::set_num_threads(Some(0));
    assert_eq!(receivers_rt::num_threads(), 1, "clamped to at least 1");

    receivers_rt::set_num_threads(None);
    assert_eq!(receivers_rt::num_threads(), 5, "cleared back to the env");

    std::env::set_var("RECEIVERS_RT_THREADS", "garbage");
    assert!(receivers_rt::num_threads() >= 1, "unparsable env ignored");

    std::env::remove_var("RECEIVERS_RT_THREADS");
    assert!(receivers_rt::num_threads() >= 1, "detection fallback");

    // A forced worker count drives shard_map without losing per-shard
    // order or completeness.
    for workers in [1usize, 2, 4] {
        receivers_rt::set_num_threads(Some(workers));
        let shards: Vec<Vec<u32>> = (0..6u32)
            .map(|s| (0..40).map(|k| s * 100 + k).collect())
            .collect();
        let expect = shards.clone();
        let out = receivers_rt::shard_map(shards, receivers_rt::num_threads(), |_s, items| items);
        assert_eq!(out, expect, "workers={workers}");
    }
    receivers_rt::set_num_threads(None);
}

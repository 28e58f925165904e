//! The benchmark's clock: process CPU time, scaled by a fixed reference
//! computation timed alongside the engine.
//!
//! The host is a shared VM. Wall time counts the time the process waits
//! for a CPU (other processes, other guests); process CPU time does not.
//! CPU time still drifts with the host: when a neighbour loads the shared
//! caches and cores, every instruction gets slower. [`Reference`] times
//! a fixed pure-std computation that no engine change can speed up or
//! slow down, at both ends of every timed span, and turns those timings
//! into a factor that rescales the span's CPU time to what it would have
//! been at the reference's nominal speed.

use std::os::raw::c_int;

/// `CLOCK_PROCESS_CPUTIME_ID` (Linux): CPU time of every thread of the
/// process, user and system.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time this process has used, in milliseconds.
pub fn cpu_ms() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (64-bit Linux
    // layout), and the clock id is one Linux always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 * 1e3 + t.tv_nsec as f64 / 1e6
}

/// CPU milliseconds since `start` (a [`cpu_ms`] reading).
pub fn cpu_since(start: f64) -> f64 {
    cpu_ms() - start
}

/// The reference's nominal CPU time, in milliseconds: its median in a
/// quiet period on the two-vCPU Xeon VM (2 MiB L2 per core) the
/// benchmark was tuned on, rounded. Scaled times read in milliseconds
/// at that speed.
pub const REFERENCE_MS: f64 = 1.2;

/// Words the reference sorts.
const SORT_WORDS: usize = 64 * 1024;

/// A fixed computation whose CPU time tracks the host's speed: sorting
/// the same pseudo-random words every time. Its buffers are allocated
/// once, and an untimed pass loads them into the core's cache before the
/// timed one, so neither the engine's heap nor what it left in the caches
/// changes the cost.
///
/// A sort tracked the engine's drift better than a pointer chase through
/// a 4 MiB ring, alone or mixed in: across runs in a drifting period,
/// timings divided by the sort spread 2–10% where the raw timings spread
/// 8–24%, and dividing by the chase left `adhoc` at 13–19%.
///
/// It is timed at span boundaries: [`Reference::mark`] opens a span,
/// [`Reference::speed`] closes it and opens the next.
pub struct Reference {
    words: Vec<u64>,
    scratch: Vec<u64>,
    /// The timing at the open span's start.
    before: f64,
    /// Every timing taken, in CPU milliseconds.
    timings: Vec<f64>,
}

impl Reference {
    /// Build the reference's inputs (the same on every run) and open the
    /// first span.
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut r = Reference {
            words: (0..SORT_WORDS).map(|_| next()).collect(),
            scratch: Vec::with_capacity(SORT_WORDS),
            before: 0.0,
            timings: Vec::new(),
        };
        r.mark();
        r
    }

    /// Open a new span, dropping the open one (after untimed work).
    pub fn mark(&mut self) {
        self.before = self.time_ms();
        self.timings.push(self.before);
    }

    /// Close the open span and open the next: the factor that rescales
    /// CPU time measured in the closed span to the nominal speed, from
    /// the mean of the timings at its two ends.
    pub fn speed(&mut self) -> f64 {
        let after = self.time_ms();
        self.timings.push(after);
        let factor = Self::factor((self.before + after) / 2.0);
        self.before = after;
        factor
    }

    /// Every timing taken so far, in CPU milliseconds.
    pub fn timings(&self) -> &[f64] {
        &self.timings
    }

    /// One pass of the computation.
    fn sort(&mut self) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.words);
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
    }

    /// CPU milliseconds of one cache-warm pass of the computation.
    pub fn time_ms(&mut self) -> f64 {
        self.sort();
        let start = cpu_ms();
        self.sort();
        cpu_since(start)
    }

    /// The factor that rescales CPU time measured while the reference
    /// took `ref_ms` to its nominal speed.
    pub fn factor(ref_ms: f64) -> f64 {
        REFERENCE_MS / ref_ms.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let start = cpu_ms();
        let mut r = Reference::new();
        let t = r.time_ms();
        assert!(t > 0.0);
        assert!(cpu_since(start) >= t);
    }

    #[test]
    fn factor_is_one_at_the_nominal_time() {
        assert_eq!(Reference::factor(REFERENCE_MS), 1.0);
        assert_eq!(Reference::factor(2.0 * REFERENCE_MS), 0.5);
    }

    #[test]
    fn every_boundary_is_one_timing() {
        let mut r = Reference::new();
        let factor = r.speed();
        r.mark();
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(r.timings().len(), 3);
    }
}

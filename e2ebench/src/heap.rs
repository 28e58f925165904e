//! A counting global allocator: live heap bytes and their high-water
//! mark, for `peak_heap_mb`.
//!
//! The kernel's `VmHWM` moved by ±5% between identical runs, more than a
//! memory regression worth catching. The bytes the process asks the allocator for are exact: the
//! same inputs give the same peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Heap bytes live now.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// The most heap bytes live at once since the last [`reset_peak`] (or
/// since the process started).
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Start a new high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_live_allocation() {
        let v = vec![1u8; 1 << 20];
        assert!(live_bytes() >= v.len());
        assert!(peak_bytes() >= v.len());
        reset_peak();
        assert!(peak_bytes() >= v.len(), "v is still live");
    }
}

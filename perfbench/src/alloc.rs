//! A counting global allocator: live heap bytes, their high-water mark and
//! the number of allocation calls.
//!
//! The benchmark binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`. A [`HeapRegion`] opened at the start of a timed
//! region takes the live level as its baseline, so inputs generated
//! before the region (the benchmark's own feeds) never count towards
//! `peak_heap_mb` or the per-record allocation rows.
//!
//! All counters are statistics that publish no other data, so `Relaxed`
//! ordering suffices.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus live-byte, peak and call counters.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates atomic counters besides, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            let old = layout.size();
            if new_size >= old {
                grew(new_size - old);
            } else {
                LIVE.fetch_sub(old - new_size, Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated through [`CountingAlloc`].
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub fn allocation_calls() -> u64 {
    CALLS.load(Relaxed)
}

/// A measured stretch of execution. Opening one resets the process-wide
/// high-water mark to the current live level, so regions must not nest.
pub struct HeapRegion {
    base_live: usize,
    base_calls: u64,
}

impl HeapRegion {
    /// Opens a region at the current live level.
    pub fn start() -> Self {
        let base_live = live_bytes();
        PEAK.store(base_live, Relaxed);
        HeapRegion {
            base_live,
            base_calls: allocation_calls(),
        }
    }

    /// High-water mark of live bytes since the region opened, above its
    /// baseline.
    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Relaxed).saturating_sub(self.base_live)
    }

    /// Live bytes now, relative to the baseline (negative when the region
    /// freed more than it allocated).
    pub fn live_delta(&self) -> i64 {
        live_bytes() as i64 - self.base_live as i64
    }

    /// Allocation calls since the region opened.
    pub fn allocations(&self) -> u64 {
        allocation_calls() - self.base_calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::{Mutex, MutexGuard};

    // Other tests allocate and free on parallel threads, so these
    // assertions use blocks far larger than that background noise and
    // leave it a margin.
    const MARGIN: usize = 1 << 20;

    /// Opening a region resets the process-wide high-water mark, so tests
    /// that open one take turns.
    fn one_region_at_a_time() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn peak_tracks_a_large_block_above_the_baseline() {
        let _turn = one_region_at_a_time();
        const BLOCK: usize = 64 << 20;
        let region = HeapRegion::start();
        let block = black_box(vec![1u8; BLOCK]);
        let during = region.live_delta();
        drop(block);
        assert!(
            region.peak_bytes() >= BLOCK - MARGIN,
            "peak {}",
            region.peak_bytes()
        );
        assert!(during >= (BLOCK - MARGIN) as i64, "live delta {during}");
        assert!(region.live_delta() < (BLOCK / 2) as i64, "block freed");
    }

    #[test]
    fn every_allocation_call_is_counted() {
        let _turn = one_region_at_a_time();
        let region = HeapRegion::start();
        let boxes: Vec<Box<u64>> = (0..10_000u64).map(|i| black_box(Box::new(i))).collect();
        assert!(region.allocations() >= 10_000, "{}", region.allocations());
        drop(black_box(boxes));
    }

    #[test]
    fn realloc_growth_and_shrink_move_the_live_level() {
        let _turn = one_region_at_a_time();
        const N: usize = 32 << 20;
        let region = HeapRegion::start();
        let mut v: Vec<u8> = Vec::with_capacity(1);
        v.reserve_exact(N);
        assert!(region.live_delta() >= (N - MARGIN) as i64);
        v.shrink_to(1);
        assert!(region.live_delta() < (N / 2) as i64);
        assert!(region.peak_bytes() >= N - MARGIN);
        drop(black_box(v));
    }
}

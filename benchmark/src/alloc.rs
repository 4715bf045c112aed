//! A counting global allocator for the `mem.*` rows of the traced run.
//!
//! Counting is switched on by a static flag, so an untraced run pays one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
// Signed: a region may free memory that was allocated before it began.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

pub struct CountingAlloc;

fn grow(bytes: usize) {
    // relaxed: independent tallies, read only after the measured region.
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call defers to `System`; the counters are bookkeeping on
// the side and never influence the pointers returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        // relaxed: the flag publishes no other data.
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as i64, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Runs `f` with counting on and returns its result with the peak number
/// of bytes it held beyond what was live when it started, in MB.
pub fn peak_mb_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed).max(0);
    (out, peak as f64 / (1024.0 * 1024.0))
}

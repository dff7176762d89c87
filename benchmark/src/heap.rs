//! A counting global allocator: the live and peak heap bytes of this
//! process.
//!
//! The resident set (`VmHWM`) of the same deterministic work moves by
//! several percent with the C allocator's free-list and trimming state and
//! the kernel's page policy, and differently on different hosts. The bytes
//! the program asks the allocator for do not: every guest page, VFS
//! fixture, socket buffer and monitor table is a heap allocation, so the
//! peak of live heap bytes is the memory footprint a change to the program
//! can move, read without the allocator's and the kernel's noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`], counting live bytes and their peak.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Relaxed) + n;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never affect the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts a new peak at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The most bytes live at once since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_bytes_across_a_reset() {
        // The test binary keeps the default global allocator, so only
        // this test moves the counters.
        let three = Layout::from_size_align(3 << 20, 8).unwrap();
        let four = Layout::from_size_align(4 << 20, 8).unwrap();
        reset_peak();
        let before = peak_mib();
        // SAFETY: each pointer is freed once, with the layout it has.
        unsafe {
            let p = Counting.alloc(three);
            assert!(!p.is_null());
            let p = Counting.realloc(p, three, four.size());
            assert!(!p.is_null());
            Counting.dealloc(p, four);
        }
        assert_eq!(peak_mib() - before, 4.0);
        reset_peak();
        assert_eq!(peak_mib(), before);
    }
}

//! A counting global allocator: allocation count, bytes allocated, and
//! the live-heap high-water mark, read by the benchmark around each
//! operation. It wraps the system allocator and changes nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

// Every counter below is a statistic that publishes no other data, so
// relaxed ordering suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are plain atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Allocation totals since process start.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> AllocCount {
        AllocCount {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    pub fn since(&self, earlier: &AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Restart the live-heap high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The live-heap high-water mark since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

extern "C" {
    /// glibc's allocator tuning call (`malloc.h`).
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Keep freed memory in the process: serve blocks up to 32 MiB from the
/// heap rather than fresh mappings, and never trim the heap top. A learn
/// operation allocates and frees about 2 GiB; with the default settings
/// its large blocks come from fresh mappings and cost some 47,000 page
/// faults per operation, whose price swings with host load and would
/// dominate run-to-run spread. Allocation volume is still reported, by
/// the counters above.
pub fn retain_freed_memory() {
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called
    // once, before any other thread exists, with documented parameter
    // codes and in-range values.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    if !ok {
        eprintln!("note: allocator tuning unavailable; timings include page-fault cost");
    }
}

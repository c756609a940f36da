//! Counting global allocator.
//!
//! Every allocation the benchmark process makes bumps two counters, so a
//! caller can take a [`snapshot`] before and after a call and get the
//! number of allocations (and bytes requested) the call made. The counts
//! depend only on the program's code path, so for one seed they repeat
//! exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts allocations and requested bytes.
/// A `realloc` counts as one allocation of the new size.
#[derive(Debug)]
pub struct CountingAlloc;

fn count(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` meets `GlobalAlloc::alloc`'s
        // requirements, and it is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` came from this
        // allocator (hence from `System`) and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant, or the difference of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocations (including reallocations).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Sub for AllocCount {
    type Output = AllocCount;
    fn sub(self, rhs: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - rhs.allocs,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

impl std::ops::AddAssign for AllocCount {
    fn add_assign(&mut self, rhs: AllocCount) {
        self.allocs += rhs.allocs;
        self.bytes += rhs.bytes;
    }
}

/// The process-wide counters now.
pub fn snapshot() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Makes glibc's `malloc` keep freed memory for reuse instead of handing
/// it back to the kernel: blocks up to 32 MiB come from the heap (not
/// fresh `mmap`s) and the heap is never trimmed.
///
/// Without this, every multi-megabyte body (`obr_cascade` builds 5–12 MB
/// per request) is a fresh mapping whose first touch page-faults, so a
/// request's time depends on how fast the kernel serves page faults at
/// that moment — on a shared VM, the largest source of run-to-run spread.
/// The setting is part of the benchmark process, identical for every
/// commit measured, like the choice of allocator. Elsewhere it does
/// nothing.
pub fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only changes malloc's tuning parameters; both
        // values are in the ranges glibc documents, and it is called at
        // start-up before the benchmark spawns anything.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        }
    }
}

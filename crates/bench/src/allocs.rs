//! Counting global allocator for the allocation benchmarks.
//!
//! Timings can hide allocator pressure (a path that allocates per tuple
//! still wins a timing race on a quiet machine), so the hotpath report
//! states **allocations per ingested tuple**, measured by wrapping the
//! system allocator with a per-thread counter. The counter is monotonic;
//! callers snapshot it around a single-threaded workload ([`AllocSpan`])
//! and divide the delta by the tuple count. Counting per thread keeps
//! other threads — test harness siblings, engine workers — out of the
//! count, so it is deterministic for a deterministic workload and
//! assertable in CI even on a noisy single-core runner.
//!
//! Registered as the `#[global_allocator]` of this crate's binaries and
//! tests (see `lib.rs`); the overhead is one thread-local increment per
//! allocation, far below timer noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation-counting wrapper around the system allocator.
pub struct CountingAllocator;

thread_local! {
    // `const`-initialized and drop-free: reading it never allocates and
    // never fails, not even while the thread is being torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

/// Allocations (including reallocations) the calling thread performed
/// since it started.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Snapshot-based measurement span: count allocations across a workload.
#[derive(Debug, Clone, Copy)]
pub struct AllocSpan {
    start: u64,
}

impl AllocSpan {
    /// Starts counting from the current total.
    pub fn start() -> Self {
        AllocSpan {
            start: allocations(),
        }
    }

    /// Allocations the calling thread performed since
    /// [`AllocSpan::start`].
    pub fn elapsed(&self) -> u64 {
        allocations().saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_observes_allocations() {
        let span = AllocSpan::start();
        let mut v: Vec<Box<u64>> = Vec::new();
        for i in 0..64u64 {
            v.push(Box::new(i));
        }
        std::hint::black_box(&v);
        assert!(span.elapsed() >= 64, "boxed values must be counted");
    }
}

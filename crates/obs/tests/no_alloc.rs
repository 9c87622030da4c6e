//! Allocation guard for the observer's hot path: once warm, a traced
//! nested span open and close plus the estimation-path trace helpers
//! make no heap allocation. The counting allocator is this test
//! binary's alone and counts per thread, so nothing else running in the
//! process can move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: both methods forward to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the count
// is a const-initialised thread-local without a destructor, which never
// allocates. The default `realloc` goes through `alloc`, so it counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_traced_spans_and_estimation_events_do_not_allocate() {
    obs::set_enabled(true);
    let recorder = obs::Recorder::new();
    let target: Arc<str> = Arc::from("t.a");
    let round = || {
        let outer = obs::span("no_alloc_outer");
        {
            let _inner = obs::span("no_alloc_inner");
            recorder.cache_probe(true, 3, 7);
            recorder.rung_chosen(&target, "spec");
        }
        drop(outer);
    };
    // Warm-up interns both paths and creates this thread's ring.
    round();
    let before = allocations();
    for _ in 0..64 {
        round();
    }
    assert_eq!(allocations(), before, "a warm traced round allocated");

    obs::set_enabled(false);
    let before = allocations();
    drop(obs::span("no_alloc_disabled"));
    assert_eq!(allocations(), before, "a disabled span allocated");
    obs::set_enabled(true);

    let events = obs::trace::drain_thread();
    assert_eq!(events.len(), 65 * 6, "every round's events were recorded");
    assert!(events.iter().any(|e| e.name() == "rung"));
}

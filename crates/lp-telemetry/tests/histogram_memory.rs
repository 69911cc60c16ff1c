//! The pause histogram's memory bound, measured: it is allocated whole by
//! `new()` and recording never allocates again. The only test in its
//! binary, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use lp_telemetry::PauseHistogram;

/// The system allocator, counting allocations and the bytes they asked for.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn recording_ten_million_samples_allocates_nothing_after_new() {
    // The samples: 10 000 distinct values from 1 µs to 10 ms, a thousand
    // times over. Built before counting starts.
    let batch: Vec<u64> = (1..=10_000).map(|step| step * 1_000).collect();

    let bytes_before = BYTES.load(Ordering::Relaxed);
    let histogram = PauseHistogram::new();
    let footprint = BYTES.load(Ordering::Relaxed) - bytes_before;
    assert!(footprint <= 32 * 1024, "new() took {footprint} bytes");

    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        histogram.record_all(&batch);
    }
    histogram.record_nanos(20_000_000);
    let quantiles = (histogram.p50(), histogram.p999(), histogram.max());
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        allocations,
        "recording or querying allocated"
    );

    assert_eq!(histogram.count(), 10_000_001);
    let p50 = quantiles.0.expect("samples").as_nanos() as f64;
    assert!((5e6..=5e6 * (1.0 + 1.0 / 64.0)).contains(&p50), "{p50}");
    assert_eq!(quantiles.2, Some(Duration::from_millis(20)));
}

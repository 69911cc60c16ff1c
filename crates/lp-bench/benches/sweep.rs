//! Benchmarks for the sweep phase: serial vs parallel chunked sweep across
//! a live-fraction × heap-size × thread-count grid, in nanoseconds per
//! slot.
//!
//! The sweep is the half of the stop-the-world pause that scales with heap
//! *capacity* rather than live data, so this is where the chunked heap and
//! `sweep_parallel` earn their keep. The grid covers the interesting axes:
//!
//! * **live fraction** — a mostly-dead heap (post-leak, post-prune) frees a
//!   lot per chunk; a mostly-live heap exercises the fully-live chunk-skip
//!   path instead;
//! * **heap size** — small heaps fit a few chunks (little parallelism
//!   available), large heaps amortize thread startup;
//! * **threads** — 1 is the serial baseline (`sweep_parallel(1)` *is*
//!   `sweep()`), then 2/4/8.

use lp_bench::micro::measure_with_setup;
use lp_heap::{AllocSpec, ClassRegistry, Heap};
use std::hint::black_box;

/// Builds a heap of `objects` leaf objects and marks a deterministic
/// `live_pct`% of them as reachable, leaving the rest for the sweep.
fn marked_heap(objects: u32, live_pct: u32) -> Heap {
    let mut reg = ClassRegistry::new();
    let cls = reg.register("Node");
    let mut heap = Heap::new(1 << 32);
    for i in 0..objects {
        heap.alloc(cls, &AllocSpec::leaf(16 + (i % 13) * 8))
            .unwrap();
    }
    heap.begin_mark_epoch();
    for slot in 0..objects {
        // Knuth multiplicative hash: spreads the live set across chunks so
        // no chunk is trivially all-dead unless the fraction forces it.
        if (slot.wrapping_mul(2_654_435_761) >> 16) % 100 < live_pct {
            heap.try_mark(slot);
        }
    }
    heap
}

fn main() {
    for objects in [32_768u32, 131_072] {
        for live_pct in [10u32, 50, 90] {
            for threads in [1usize, 2, 4, 8] {
                measure_with_setup(
                    15,
                    u64::from(objects),
                    |_| marked_heap(objects, live_pct),
                    |mut heap| {
                        black_box(heap.sweep_parallel(threads).freed_objects);
                    },
                )
                .print(&format!("sweep/objs{objects}_live{live_pct}/{threads}"));
            }
        }
    }
}

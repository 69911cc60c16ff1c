//! Benchmarks for whole collections and serial vs parallel marking over
//! 64 chains of 1024 objects, in nanoseconds per object.

use lp_bench::micro::measure;
use lp_gc::{par_trace, trace, Collector, TraceAll};
use lp_heap::{AllocSpec, ClassRegistry, Handle, Heap, RootSet, TaggedRef};
use std::hint::black_box;

const TRIALS: usize = 20;
const CHAINS: u32 = 64;
const DEPTH: u32 = 1024;
/// Objects marked per trial.
const OBJECTS: u64 = CHAINS as u64 * DEPTH as u64;

/// Builds a heap of `chains` linked lists of `depth` nodes each.
fn build_heap(chains: u32, depth: u32) -> (Heap, RootSet) {
    let mut reg = ClassRegistry::new();
    let cls = reg.register("Node");
    let mut heap = Heap::new(1 << 30);
    let mut roots = RootSet::new();
    for _ in 0..chains {
        let mut prev: Option<Handle> = None;
        for _ in 0..depth {
            let n = heap.alloc(cls, &AllocSpec::new(1, 0, 48)).unwrap();
            if let Some(p) = prev {
                heap.object(n).store_ref(0, TaggedRef::from_handle(p));
            }
            prev = Some(n);
        }
        let s = roots.add_static();
        roots.set_static(s, prev);
    }
    (heap, roots)
}

fn main() {
    let (mut heap, roots) = build_heap(CHAINS, DEPTH);
    let mut collector = Collector::new();
    measure(TRIALS, OBJECTS, || {
        let outcome = collector.collect(&mut heap, &roots, &TraceAll);
        black_box(outcome.trace.objects_marked);
    })
    .print("collection/mark_sweep_base_64k_objects");

    for threads in [1usize, 2, 4] {
        let (mut heap, roots) = build_heap(CHAINS, DEPTH);
        measure(TRIALS, OBJECTS, || {
            heap.begin_mark_epoch();
            let (stats, _) = par_trace(&heap, roots.iter(), &TraceAll, threads);
            black_box(stats.objects_marked);
        })
        .print(&format!("collection/parallel_mark_64k_objects/{threads}"));
    }

    let (mut heap, roots) = build_heap(CHAINS, DEPTH);
    measure(TRIALS, OBJECTS, || {
        heap.begin_mark_epoch();
        black_box(trace(&heap, roots.iter(), &TraceAll).objects_marked);
    })
    .print("collection/serial_trace_64k_objects");
}

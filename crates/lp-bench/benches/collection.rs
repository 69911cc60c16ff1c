//! Criterion benchmarks for whole collections: Base vs OBSERVE vs SELECT
//! closures (the per-GC costs behind Figure 7) and serial vs parallel
//! marking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lp_gc::{par_trace, trace, Collector, TraceAll};
use lp_heap::{AllocSpec, ClassRegistry, Handle, Heap, RootSet, TaggedRef};
use std::hint::black_box;

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

fn bench_collection(c: &mut Criterion) {
    let mut group = c.benchmark_group("collection");
    group.sample_size(20);

    group.bench_function("mark_sweep_base_64k_objects", |bench| {
        let (mut heap, roots) = build_heap(64, 1024);
        let mut collector = Collector::new();
        bench.iter(|| {
            let outcome = collector.collect(&mut heap, &roots, &TraceAll);
            black_box(outcome.trace.objects_marked)
        });
    });

    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel_mark_64k_objects", threads),
            &threads,
            |bench, &threads| {
                let (mut heap, roots) = build_heap(64, 1024);
                bench.iter(|| {
                    heap.begin_mark_epoch();
                    black_box(
                        par_trace(&heap, roots.iter(), &TraceAll, threads)
                            .0
                            .objects_marked,
                    )
                });
            },
        );
    }

    group.bench_function("serial_trace_64k_objects", |bench| {
        let (mut heap, roots) = build_heap(64, 1024);
        bench.iter(|| {
            heap.begin_mark_epoch();
            black_box(trace(&heap, roots.iter(), &TraceAll).objects_marked)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_collection);
criterion_main!(benches);

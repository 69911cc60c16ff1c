//! Micro-benchmarks for the read barrier (§4.1, §5).
//!
//! Measures the fast path (no tag bits), the cold path (unlogged bit set),
//! and the no-barrier baseline — the per-load costs behind Figure 6's
//! application overhead.

use leak_pruning::{BarrierMode, ForcedState, PruningConfig, Runtime};
use lp_bench::micro::measure;
use lp_heap::AllocSpec;
use std::hint::black_box;

const TRIALS: usize = 40;
/// Field reads per trial.
const READS: u64 = 10_000;

fn runtime(barriers: BarrierMode) -> (Runtime, lp_heap::Handle) {
    let config = PruningConfig::builder(1 << 22)
        .barrier_mode(barriers)
        .force_state(ForcedState::Observe)
        .build();
    let mut rt = Runtime::new(config);
    let cls = rt.register_class("Node");
    let root = rt.add_static();
    let a = rt.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
    let b = rt.alloc(cls, &AllocSpec::default()).unwrap();
    rt.set_static(root, Some(a));
    rt.write_field(a, 0, Some(b));
    (rt, a)
}

fn reads(rt: &mut Runtime, a: lp_heap::Handle) {
    for _ in 0..READS {
        black_box(rt.read_field(black_box(a), 0).unwrap());
    }
}

fn main() {
    let (mut rt, a) = runtime(BarrierMode::None);
    measure(TRIALS, READS, || reads(&mut rt, a)).print("read_barrier/no_barrier");

    let (mut rt, a) = runtime(BarrierMode::Full);
    // One read clears the unlogged bit; every following read is fast.
    rt.force_gc();
    rt.read_field(a, 0).unwrap();
    measure(TRIALS, READS, || reads(&mut rt, a)).print("read_barrier/fast_path");

    let (mut rt, a) = runtime(BarrierMode::Full);
    // One op per trial: re-arm the unlogged bit (a collection does this in
    // production; re-storing the field is the cheap equivalent), then read.
    measure(TRIALS, 1, || {
        let v = rt.read_field(a, 0).unwrap();
        rt.write_field(a, 0, v);
        rt.force_gc();
        black_box(rt.read_field(black_box(a), 0).unwrap());
    })
    .print("read_barrier/cold_path");
}

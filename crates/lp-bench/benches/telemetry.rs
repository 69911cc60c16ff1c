//! Micro-benchmarks for the telemetry bus (the tentpole's
//! "measured, not assumed" requirement).
//!
//! Measures the disabled-bus emission path (one relaxed atomic load and a
//! not-taken branch — the cost every hook point pays in production), ring
//! delivery into the flight recorder, and JSONL serialization into a
//! discarding writer.
//!
//! Also writes `bench_out/telemetry_overhead.csv`: a Figure 6-style
//! estimate of what the no-sink emission path adds to a barrier-heavy
//! workload iteration. The counterfactual (a build with no emission calls
//! at all) no longer exists, so the added cost is computed as
//! `disabled-emit ns × emission attempts per iteration`, both measured,
//! relative to the measured iteration time. Methodology in DESIGN.md.

use std::hint::black_box;
use std::time::Instant;

use leak_pruning::{BarrierMode, ForcedState, PruningConfig, Runtime};
use lp_bench::micro::measure;
use lp_heap::AllocSpec;
use lp_telemetry::{Event, JsonlSink, Telemetry};

/// Emissions per trial.
const OPS: u64 = 10_000;

fn bench_emission() {
    let jsonl = Telemetry::new();
    jsonl.add_sink(Box::new(JsonlSink::new(std::io::sink())));
    for (name, bus) in [
        ("disabled_emit", Telemetry::new()),
        ("ring_emit", Telemetry::with_recorder(1024)),
        ("jsonl_emit", jsonl),
    ] {
        measure(40, OPS, || {
            for i in 0..OPS {
                bus.emit(|| Event::Iteration {
                    index: black_box(i),
                });
            }
        })
        .print(&format!("telemetry/{name}"));
    }
}

/// One barrier-heavy unit of application work: an allocation (the hot
/// emission point) plus eight fast-path reference loads.
fn fig6_iteration(rt: &mut Runtime, a: lp_heap::Handle, scratch: lp_heap::ClassId) {
    rt.alloc(scratch, &AllocSpec::leaf(64))
        .expect("scratch alloc");
    rt.release_registers();
    for _ in 0..8 {
        black_box(rt.read_field(black_box(a), 0).unwrap());
    }
}

fn fig6_runtime() -> (Runtime, lp_heap::Handle, lp_heap::ClassId) {
    let config = PruningConfig::builder(1 << 22)
        .barrier_mode(BarrierMode::Full)
        .force_state(ForcedState::Observe)
        .build();
    let mut rt = Runtime::new(config);
    let node = rt.register_class("Node");
    let scratch = rt.register_class("Scratch");
    let root = rt.add_static();
    let a = rt.alloc(node, &AllocSpec::with_refs(1)).unwrap();
    let b = rt.alloc(node, &AllocSpec::default()).unwrap();
    rt.set_static(root, Some(a));
    rt.write_field(a, 0, Some(b));
    // Settle the unlogged bit so the loop's reads take the fast path.
    rt.force_gc();
    rt.read_field(a, 0).unwrap();
    (rt, a, scratch)
}

fn overhead_csv() {
    const EMITS: u64 = 4_000_000;
    const ITERS: u64 = 200_000;

    // 1. Disabled-emit branch cost.
    let bus = Telemetry::new();
    let start = Instant::now();
    for i in 0..EMITS {
        bus.emit(|| Event::Iteration {
            index: black_box(i),
        });
    }
    let branch_ns = start.elapsed().as_nanos() as f64 / EMITS as f64;

    // 2. Fig. 6-style iteration cost with the production (no-sink) bus.
    let (mut rt, a, scratch) = fig6_runtime();
    let start = Instant::now();
    for _ in 0..ITERS {
        fig6_iteration(&mut rt, a, scratch);
    }
    let iteration_ns = start.elapsed().as_nanos() as f64 / ITERS as f64;

    // 3. Emission attempts per iteration, counted with a recorder attached
    //    (every attempt then delivers).
    let (mut rt, a, scratch) = fig6_runtime();
    rt.telemetry().enable_recorder(64);
    let before = rt.telemetry().events_delivered();
    for _ in 0..ITERS {
        fig6_iteration(&mut rt, a, scratch);
    }
    let emits_per_iteration = (rt.telemetry().events_delivered() - before) as f64 / ITERS as f64;

    let added_ns = branch_ns * emits_per_iteration;
    let added_pct = added_ns / iteration_ns * 100.0;

    let path = lp_bench::output_dir().join("telemetry_overhead.csv");
    let csv = format!(
        "metric,value\nbranch_ns,{branch_ns:.4}\niteration_ns,{iteration_ns:.2}\n\
         emits_per_iteration,{emits_per_iteration:.4}\nadded_ns_per_iteration,{added_ns:.4}\n\
         added_pct,{added_pct:.4}\n"
    );
    std::fs::write(&path, &csv).expect("write overhead csv");
    println!(
        "telemetry/fig6_overhead: branch {branch_ns:.3} ns, iteration {iteration_ns:.1} ns, \
         {emits_per_iteration:.2} emission attempts/iteration -> +{added_pct:.3}% \
         (wrote {})",
        path.display()
    );
}

fn main() {
    bench_emission();
    overhead_csv();
}

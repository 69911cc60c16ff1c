//! **Figure 7 companion**: mutator pause times, stop-the-world vs
//! incremental marking.
//!
//! Runs leak workloads twice under default leak pruning — once with
//! stop-the-world full collections, once with bounded mark quanta — with a
//! [`PauseHistogram`] attached. The histogram samples every mutator pause:
//! for a stop-the-world collection that is mark + sweep in one lump; for an
//! incremental collection it is each short mark quantum plus the terminal
//! flush + sweep. The p95 pause is the headline: most pauses an incremental
//! mutator sees are single quanta, so it must drop by an order of
//! magnitude. Total mark *work* is recorded alongside to show the latency
//! win is not bought with unbounded re-marking: exactly, as the objects
//! marked across all full collections, and as the accumulated mark time
//! inside `collection` events.
//!
//! Usage: `pause_smoke [iterations] [--assert]`. With `--assert`, exits
//! nonzero unless on every workload the incremental p95 pause is at least
//! 10x below stop-the-world and the objects marked grow at most 1.5x (an
//! exact count, so the gate does not move with the machine's speed). Writes
//! `bench_out/fig7_pause_delta.csv`.

use std::io::Write as _;
use std::sync::{Arc, Mutex};

use leak_pruning::PruningConfig;
use lp_bench::output_dir;
use lp_telemetry::{Event, PauseHistogram, Sink, TraceLine};
use lp_workloads::driver::{run_workload_with, Flavor, RunOptions};
use lp_workloads::leaks;

/// Objects per mark quantum in the incremental configuration.
const QUANTUM_BUDGET: usize = 128;

/// Sums the accumulated mark time of every full collection — total mark
/// *work*, as opposed to mutator pause.
#[derive(Clone, Default)]
struct MarkWork(Arc<Mutex<u64>>);

impl MarkWork {
    fn total_ns(&self) -> u64 {
        *self.0.lock().expect("no poisoned lock")
    }
}

impl Sink for MarkWork {
    fn record(&mut self, line: &TraceLine) {
        if let Event::Collection { mark_nanos, .. } = line.event {
            *self.0.lock().expect("no poisoned lock") += mark_nanos;
        }
    }
}

struct ModeStats {
    p95_pause_ns: u64,
    max_pause_ns: u64,
    samples: usize,
    mark_work_ns: u64,
    marked_objects: u64,
    gc_count: u64,
}

fn run_mode(name: &str, iterations: u64, incremental: bool) -> ModeStats {
    let mut leak = leaks::leak_by_name(name).expect("known leak");
    let flavor = if incremental {
        let config = PruningConfig::builder(leak.default_heap())
            .incremental_mark(QUANTUM_BUDGET)
            .build();
        Flavor::Custom(Box::new(config))
    } else {
        Flavor::pruning()
    };
    let pauses = PauseHistogram::new();
    let work = MarkWork::default();
    let opts = RunOptions::new(flavor).iteration_cap(iterations);
    let pause_sink = pauses.clone();
    let work_sink = work.clone();
    let result = run_workload_with(leak.as_mut(), &opts, move |rt| {
        rt.telemetry().add_sink(Box::new(pause_sink));
        rt.telemetry().add_sink(Box::new(work_sink));
    });
    ModeStats {
        p95_pause_ns: pauses.p95().map_or(0, |d| d.as_nanos() as u64),
        max_pause_ns: pauses.max().map_or(0, |d| d.as_nanos() as u64),
        samples: pauses.count(),
        mark_work_ns: work.total_ns(),
        marked_objects: result.marked_objects,
        gc_count: result.gc_count,
    }
}

fn main() {
    let mut iterations: u64 = 4000;
    let mut assert_thresholds = false;
    for arg in std::env::args().skip(1) {
        if arg == "--assert" {
            assert_thresholds = true;
        } else if let Ok(n) = arg.parse() {
            iterations = n;
        }
    }

    let path = output_dir().join("fig7_pause_delta.csv");
    let mut file = std::fs::File::create(&path).expect("create csv");
    writeln!(
        file,
        "workload,mode,samples,p95_pause_ns,max_pause_ns,mark_work_ns,marked_objects,pause_ratio,marked_ratio"
    )
    .expect("write header");

    println!("pause smoke: stop-the-world vs incremental marking ({iterations} iterations)\n");
    let mut failures = Vec::new();
    for name in ["ListLeak", "EclipseDiff"] {
        let stw = run_mode(name, iterations, false);
        let inc = run_mode(name, iterations, true);
        let pause_ratio = stw.p95_pause_ns as f64 / inc.p95_pause_ns.max(1) as f64;
        let marked_ratio = inc.marked_objects as f64 / stw.marked_objects.max(1) as f64;
        writeln!(
            file,
            "{name},stw,{},{},{},{},{},,",
            stw.samples, stw.p95_pause_ns, stw.max_pause_ns, stw.mark_work_ns, stw.marked_objects
        )
        .expect("write row");
        writeln!(
            file,
            "{name},incremental,{},{},{},{},{},{pause_ratio:.1},{marked_ratio:.2}",
            inc.samples, inc.p95_pause_ns, inc.max_pause_ns, inc.mark_work_ns, inc.marked_objects
        )
        .expect("write row");
        println!(
            "{name:>12}: p95 pause {} -> {} ns ({pause_ratio:.1}x better), \
             marked objects {} -> {} ({marked_ratio:.2}x), mark work {} -> {} ns, \
             collections {} -> {}",
            stw.p95_pause_ns,
            inc.p95_pause_ns,
            stw.marked_objects,
            inc.marked_objects,
            stw.mark_work_ns,
            inc.mark_work_ns,
            stw.gc_count,
            inc.gc_count
        );
        if pause_ratio < 10.0 {
            failures.push(format!(
                "{name}: p95 pause improved only {pause_ratio:.1}x (need >= 10x)"
            ));
        }
        if marked_ratio > 1.5 {
            failures.push(format!(
                "{name}: marked objects grew {marked_ratio:.2}x (allowed <= 1.5x)"
            ));
        }
    }
    println!("\nwrote {}", path.display());
    if assert_thresholds && !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
}

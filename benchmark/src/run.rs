//! The measured phase of the three single-runtime workloads, and what is
//! read off the runtime when it ends.

use std::time::Instant;

use leak_pruning::{GcRecord, Runtime, State};

use crate::metrics::Outcome;
use crate::phase::{Phase, SEGMENTS};
use crate::programs::Program;
use crate::stats::{self, Segment};
use crate::trace::{Span, Tracer};

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `ops` ops untimed. Returns how many returned `Err`.
pub fn warm_up(program: &mut Program, rt: &mut Runtime, ops: u64) -> u64 {
    (0..ops).filter(|_| program.op(rt).is_err()).count() as u64
}

/// Runs [`SEGMENTS`] segments of `segment_ops` ops each, timing every op.
/// With a `budget` in seconds the phase may stop early on a slow box (see
/// [`Phase::over_budget`]); without one the schedule is fixed.
///
/// With a tracer, every op also leaves a `lp-workloads.iterate` span, and
/// every collection the op ran is attached to it as derived child spans
/// (`leak-pruning.collection` with `lp-gc.mark` and `lp-heap.sweep` inside),
/// laid against the end of the op because only their lengths are known.
pub fn run_ops(
    program: &mut Program,
    rt: &mut Runtime,
    segment_ops: u64,
    budget: Option<u64>,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase::new();
    let epoch = Instant::now();
    let mut op_index = 0u64;
    for segment in 0..SEGMENTS {
        let segment_start = Instant::now();
        if budget.is_some_and(|s| phase.over_budget(s, nanos(epoch, segment_start))) {
            break;
        }
        let mut last = segment_start;
        for _ in 0..segment_ops {
            let collections = rt.history().len();
            let result = program.op(rt);
            let now = Instant::now();
            phase.attempted += 1;
            match result {
                Ok(()) => phase.latency[segment].record(nanos(last, now)),
                Err(_) => phase.failed += 1,
            }
            if rt.history().len() != collections {
                phase.ops_with_collection += 1;
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                let (start_ns, end_ns) = (nanos(epoch, last), nanos(epoch, now));
                let op_span = tracer.record(Span {
                    name: "lp-workloads.iterate",
                    start_ns,
                    end_ns,
                    parent: None,
                    op: op_index,
                    derived: false,
                });
                let mut cursor = end_ns;
                for record in rt.history()[collections..].iter().rev() {
                    cursor = derived_collection(tracer, record, op_span, op_index, cursor);
                }
            }
            op_index += 1;
            last = now;
        }
        phase.segments.push(Segment {
            ops: segment_ops,
            wall_nanos: nanos(segment_start, last),
        });
    }
    phase
}

/// Records `record` as a span ending at `end_ns`; returns where it starts.
fn derived_collection(
    tracer: &mut Tracer,
    record: &GcRecord,
    parent: usize,
    op: u64,
    end_ns: u64,
) -> u64 {
    let length = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let (mark, sweep) = (length(record.mark_time), length(record.sweep_time));
    let start_ns = end_ns.saturating_sub(mark + sweep);
    let collection = tracer.record(Span {
        name: "leak-pruning.collection",
        start_ns,
        end_ns,
        parent: Some(parent),
        op,
        derived: true,
    });
    let mut child = |name, start_ns, end_ns| {
        tracer.record(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(collection),
            op,
            derived: true,
        });
    };
    child("lp-gc.mark", start_ns, start_ns + mark);
    child("lp-heap.sweep", end_ns.saturating_sub(sweep), end_ns);
    start_ns
}

/// Where a phase starts, for taking differences when it ends.
pub struct Baseline {
    history: usize,
    marked_objects: u64,
    freed_objects: u64,
    ref_reads: u64,
    cold_hits: u64,
}

impl Baseline {
    pub fn take(rt: &Runtime) -> Baseline {
        Baseline {
            history: rt.history().len(),
            marked_objects: rt.gc_stats().total_marked_objects(),
            freed_objects: rt.gc_stats().total_freed_objects(),
            ref_reads: rt.counters().ref_reads,
            cold_hits: rt.counters().barrier_cold_hits,
        }
    }

    /// Counts that must come out the same whenever the same seed runs the
    /// same ops: a difference means the program did different work.
    pub fn counts(&self, rt: &Runtime, out: &mut Outcome) {
        let records = &rt.history()[self.history..];
        let in_state = |state| records.iter().filter(|r| r.state == state).count() as u64;
        out.count("gc.collections", records.len() as u64);
        out.count(
            "gc.marked_objects",
            rt.gc_stats().total_marked_objects() - self.marked_objects,
        );
        out.count(
            "gc.freed_objects",
            rt.gc_stats().total_freed_objects() - self.freed_objects,
        );
        out.count("pruner.collections_inactive", in_state(State::Inactive));
        out.count("pruner.collections_observe", in_state(State::Observe));
        out.count("pruner.collections_select", in_state(State::Select));
        out.count("pruner.collections_prune", in_state(State::Prune));
        out.count(
            "pruner.pruned_refs",
            records.iter().map(|r| r.pruned_refs).sum(),
        );
        out.count(
            "pruner.prune_freed_bytes",
            records
                .iter()
                .filter(|r| r.state == State::Prune)
                .map(|r| r.freed_bytes)
                .sum(),
        );
        out.count("heap.live_objects", rt.live_objects());
        out.count("heap.used_bytes", rt.used_bytes());
    }

    /// The collector's and pruner's timings over the phase, from the
    /// records the runtime keeps of its own collections.
    pub fn layers(&self, rt: &Runtime, phase_wall_nanos: u64, out: &mut Outcome) {
        let records = &rt.history()[self.history..];
        let secs = |d: std::time::Duration| d.as_secs_f64();
        let mark: f64 = records.iter().map(|r| secs(r.mark_time)).sum();
        let sweep: f64 = records.iter().map(|r| secs(r.sweep_time)).sum();
        let wall = phase_wall_nanos as f64 / 1e9;
        let marked = rt.gc_stats().total_marked_objects() - self.marked_objects;
        out.set("gc.time_share", (mark + sweep) / wall);
        out.set("gc.mark_ns_per_object", mark * 1e9 / marked.max(1) as f64);
        out.set(
            "gc.sweep_share",
            sweep / (mark + sweep).max(f64::MIN_POSITIVE),
        );
        let pauses: Vec<f64> = records.iter().map(|r| secs(r.pause_time()) * 1e6).collect();
        out.set("gc.pause_p50_us", stats::median(&pauses));
        // The highest percentile with ten samples beyond it.
        let tail = if pauses.len() >= 1000 { 0.99 } else { 0.9 };
        out.set("gc.pause_tail_us", stats::quantile(&pauses, tail));
        for (name, state) in [
            ("pruner.observe_pause_us", State::Observe),
            ("pruner.select_pause_us", State::Select),
            ("pruner.prune_pause_us", State::Prune),
        ] {
            let of_state: Vec<f64> = records
                .iter()
                .filter(|r| r.state == state)
                .map(|r| secs(r.pause_time()) * 1e6)
                .collect();
            let mean = of_state.iter().sum::<f64>() / of_state.len().max(1) as f64;
            out.set(name, mean);
        }
        let prunes: Vec<&GcRecord> = records.iter().filter(|r| r.state == State::Prune).collect();
        let yielding = prunes.iter().filter(|r| r.freed_bytes > 0).count();
        out.set(
            "pruner.prune_yield",
            yielding as f64 / prunes.len().max(1) as f64,
        );
        out.set(
            "pruner.edge_types",
            rt.prune_report().edge_types_recorded as f64,
        );
        let reads = rt.counters().ref_reads - self.ref_reads;
        let cold = rt.counters().barrier_cold_hits - self.cold_hits;
        out.set("barrier.cold_hit_ratio", cold as f64 / reads.max(1) as f64);
    }
}

/// Output checks on a runtime at the end of a run: none of them compares
/// against a recorded number, so a later change may alter how much work a
/// collection does without touching this file.
pub fn check_runtime(rt: &Runtime, prunes_only: Option<(&str, &str)>, wrong: &mut Vec<String>) {
    let violations = rt.verify_heap();
    if !violations.is_empty() {
        wrong.push(format!(
            "the heap sanitizer found {} violations, first: {:?}",
            violations.len(),
            violations[0]
        ));
    }
    let report = rt.prune_report();
    match prunes_only {
        Some((src, tgt)) => {
            if report.total_pruned_refs == 0 {
                wrong.push("the leak was never pruned".into());
            }
            for edge in &report.pruned_edges {
                if edge.src != src || edge.tgt != tgt {
                    wrong.push(format!(
                        "pruned {} -> {}, which is not the leak",
                        edge.src, edge.tgt
                    ));
                }
            }
        }
        None => {
            if report.total_pruned_refs != 0 {
                wrong.push(format!(
                    "a program without a leak had {} references pruned",
                    report.total_pruned_refs
                ));
            }
        }
    }
}

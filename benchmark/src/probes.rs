//! Layer probes for the traced run: each times calls into one layer's public
//! functions from outside and leaves a span per batch.
//!
//! The fixture probes build their own small structures, shaped like the
//! workloads', so they read the same whichever workload's traced run they
//! ride along with. The runtime probes act on the workload's own final heap.

use std::path::Path;
use std::time::Instant;

use leak_pruning::{EdgeKey, EdgeTable, ForcedState, PruningConfig, Runtime, DEFAULT_SLOTS};
use lp_diagnose::HeapSnapshot;
use lp_heap::{AllocSpec, ClassId, ClassRegistry, Handle, Heap, CHUNK_SLOTS};
use lp_recovery::{Checkpoint, Journal};
use lp_server::{Arbiter, ArbiterPolicy, TenantControl, TenantView};
use lp_telemetry::{Event, PrometheusSink, Telemetry};

use crate::metrics::Outcome;
use crate::programs::Program;
use crate::stats;
use crate::trace::Tracer;
use crate::Kind;

/// Calls per timed batch: long enough that the two clock reads around it
/// cost under a tenth of a nanosecond per call.
const BATCH: usize = 4096;

/// Median nanoseconds per call over `batches` batches of [`BATCH`] calls.
fn per_call(
    tracer: &mut Tracer,
    span: &'static str,
    batches: usize,
    mut batch: impl FnMut(usize),
) -> f64 {
    let costs: Vec<f64> = (0..batches)
        .map(|index| tracer.time(span, index as u64, || batch(index)).1 as f64 / BATCH as f64)
        .collect();
    stats::median(&costs)
}

fn millis(tracer: &mut Tracer, span: &'static str, work: impl FnOnce()) -> f64 {
    tracer.time(span, 0, work).1 as f64 / 1e6
}

/// `lp-heap` on a heap shaped like `alloc_churn`'s: the older half of the
/// objects all survive (whole chunks a sweep may skip), every other object
/// of the younger half dies and its slot is allocated again.
fn heap(tracer: &mut Tracer, out: &mut Outcome) {
    const OBJECTS: usize = 8 * BATCH;
    let mut classes = ClassRegistry::new();
    let class = classes.register("probe.Object");
    let spec = AllocSpec::new(1, 0, 96);
    let mut heap = Heap::new(64 << 20);
    let mut alloc_costs = Vec::new();
    let mut sweep_costs = Vec::new();
    let mut skipped = Vec::new();
    let mut handles: Vec<_> = (0..OBJECTS)
        .map(|_| heap.alloc(class, &spec).expect("the probe heap is large"))
        .collect();
    for _round in 0..8 {
        heap.begin_mark_epoch();
        let mut dead = Vec::with_capacity(OBJECTS / 4);
        for (index, handle) in handles.iter().enumerate() {
            if index < OBJECTS / 2 || index % 2 == 0 {
                heap.try_mark(handle.slot());
            } else {
                dead.push(index);
            }
        }
        skipped.push(heap.skippable_chunks() as f64 / heap.chunk_count() as f64);
        let slots = (heap.chunk_count() * CHUNK_SLOTS) as f64;
        let ((), nanos) = tracer.time("lp-heap.sweep", 0, || {
            std::hint::black_box(heap.sweep());
        });
        sweep_costs.push(nanos as f64 / slots);
        for batch in dead.chunks(BATCH) {
            let ((), nanos) = tracer.time("lp-heap.alloc", 0, || {
                for &index in batch {
                    handles[index] = heap.alloc(class, &spec).expect("a slot was just freed");
                }
            });
            alloc_costs.push(nanos as f64 / batch.len() as f64);
        }
    }
    out.set("heap.alloc_ns", stats::median(&alloc_costs));
    out.set("heap.sweep_ns_per_slot", stats::median(&sweep_costs));
    out.set("heap.sweep_chunks_skipped_ratio", stats::median(&skipped));
}

/// The read and write barrier on `read_steady`'s heap, in the paper's
/// worst-case configuration (forced SELECT), where every collection tags
/// every reference again and the next load of it takes the cold path. A
/// batch is one pass over the program's table of references.
fn barrier(tracer: &mut Tracer, out: &mut Outcome) {
    const ROUNDS: u64 = 12;
    let mut program = Program::new(Kind::ReadSteady, 0);
    let mut config = PruningConfig::builder(program.config().heap_capacity());
    config = config.force_state(ForcedState::Select);
    let mut rt = Runtime::new(config.build());
    program.setup(&mut rt).expect("the fixture fits its heap");
    let table = rt
        .static_id(0)
        .and_then(|id| rt.static_ref(id))
        .expect("Dacapo roots its table in its first static");
    let slots = program.working_set();
    let read_all = |rt: &mut Runtime| -> Vec<Option<Handle>> {
        let targets = (0..slots)
            .map(|i| rt.read_field(table, i).expect("the fixture never prunes"))
            .collect();
        rt.release_registers();
        targets
    };
    let (mut cold, mut warm, mut write) = (Vec::new(), Vec::new(), Vec::new());
    let per_call = |nanos: u64| nanos as f64 / slots as f64;
    for round in 0..ROUNDS {
        rt.force_gc();
        let (targets, nanos) = tracer.time("leak-pruning.read_field", round, || read_all(&mut rt));
        cold.push(per_call(nanos));
        let (again, nanos) = tracer.time("leak-pruning.read_field", round, || read_all(&mut rt));
        warm.push(per_call(nanos));
        std::hint::black_box(again);
        let ((), nanos) = tracer.time("leak-pruning.write_field", round, || {
            for (field, target) in targets.iter().enumerate() {
                rt.write_field(table, field, *target);
            }
        });
        write.push(per_call(nanos));
    }
    out.set("barrier.read_cold_ns", stats::median(&cold));
    out.set("barrier.read_warm_ns", stats::median(&warm));
    out.set("barrier.write_idle_ns", stats::median(&write));
}

/// `EdgeTable::add_bytes` on a table at 75 % load.
fn edge_table(tracer: &mut Tracer, out: &mut Outcome) {
    let table = EdgeTable::new(DEFAULT_SLOTS);
    let keys: Vec<EdgeKey> = (0..table.capacity() * 3 / 4)
        .map(|i| {
            EdgeKey::new(
                ClassId::from_index(1 + (i % 331) as u32),
                ClassId::from_index(1 + (i / 331) as u32),
            )
        })
        .collect();
    for &key in &keys {
        table.add_bytes(key, 1);
    }
    assert_eq!(table.len(), keys.len(), "every probe key is distinct");
    let cost = per_call(tracer, "leak-pruning.edge_table", 16, |batch| {
        for i in 0..BATCH {
            table.add_bytes(keys[(batch * BATCH + i * 7) % keys.len()], 64);
        }
    });
    out.set("pruner.edge_table_probe_ns", cost);
}

/// `Telemetry::emit` and `span` with nothing attached, and with the sinks a
/// served tenant has: a flight recorder and a Prometheus sink.
fn telemetry(tracer: &mut Tracer, out: &mut Outcome) {
    let emit = |bus: &Telemetry, batch: usize| {
        for i in 0..BATCH {
            bus.emit(|| Event::TenantAdmit {
                round: (batch * BATCH + i) as u64,
                tenant: "probe".to_owned(),
                admitted: 1,
            });
        }
    };
    let disabled = Telemetry::new();
    let cost = per_call(tracer, "lp-telemetry.emit", 16, |b| emit(&disabled, b));
    out.set("telemetry.emit_disabled_ns", cost);

    let enabled = Telemetry::with_recorder(BATCH);
    enabled.add_sink(Box::new(PrometheusSink::new()));
    let cost = per_call(tracer, "lp-telemetry.emit", 16, |b| emit(&enabled, b));
    out.set("telemetry.emit_enabled_ns", cost);
    let cost = per_call(tracer, "lp-telemetry.span", 16, |batch| {
        for i in 0..BATCH {
            let _span = enabled.span("request", (batch * BATCH + i) as u64);
        }
    });
    out.set("telemetry.span_enabled_ns", cost);
}

/// `Journal::append` without forcing the file to the disk, as the fleet
/// configures it.
fn journal(tracer: &mut Tracer, dir: &Path, out: &mut Outcome) {
    let path = dir.join("probe.journal");
    let mut journal = Journal::create(&path, "probe").expect("the run directory is writable");
    journal.set_fsync_every(u64::MAX);
    let cost = per_call(tracer, "lp-recovery.journal_append", 8, |_| {
        for _ in 0..BATCH {
            journal.append().expect("the run directory is writable");
        }
    });
    out.set("recovery.journal_append_ns", cost);
    drop(journal);
    let _ = std::fs::remove_file(path);
}

/// Three tenants below the high-water mark: the pass the arbiter makes at
/// the end of almost every round.
struct ModelFleet;

impl TenantControl for ModelFleet {
    fn tenant_count(&self) -> usize {
        3
    }
    fn view(&self, index: usize) -> TenantView {
        TenantView {
            used_bytes: (1 + index as u64) << 20,
            budget_bytes: 4 << 20,
            prune_events: 0,
            quarantined: false,
            finished: false,
        }
    }
    fn force_collect(&mut self, index: usize) -> u64 {
        self.view(index).used_bytes
    }
    fn force_prune(&mut self, index: usize, _target_bytes: u64) -> u64 {
        self.view(index).used_bytes
    }
    fn set_quarantined(&mut self, _index: usize, _quarantined: bool) {}
}

fn arbiter(tracer: &mut Tracer, out: &mut Outcome) {
    let policy = ArbiterPolicy {
        host_limit: 12 << 20,
        high_water: 0.85,
        storm_threshold: 3,
        cooldown_rounds: 8,
    };
    let mut arbiter = Arbiter::new(policy, 3);
    let mut fleet = ModelFleet;
    let cost = per_call(tracer, "lp-server.arbiter_rebalance", 16, |batch| {
        for i in 0..BATCH {
            let actions = arbiter.rebalance((batch * BATCH + i) as u64, &mut fleet);
            std::hint::black_box(actions);
        }
    });
    out.set("server.arbiter_rebalance_us", cost / 1e3);
}

/// A round of the three-tenant fleet with no arrivals: what the lockstep
/// barrier, the arbiter pass and publication cost on their own.
fn idle_round(tracer: &mut Tracer, dir: &Path, out: &mut Outcome) {
    let dir = dir.join("idle");
    std::fs::create_dir_all(&dir).expect("the run directory is writable");
    let mut host = crate::fleet::boot(0, &dir, false, 0, false).expect("the idle fleet boots");
    for _ in 0..200 {
        host.run_round();
    }
    let rounds: Vec<f64> = (0..1000)
        .map(|round| {
            let (_served, nanos) = tracer.time("lp-server.run_round", round, || host.run_round());
            nanos as f64 / 1e3
        })
        .collect();
    out.set("server.idle_round_us", stats::median(&rounds));
    host.shutdown();
}

/// Every probe that does not need a workload's heap.
pub fn fixtures(tracer: &mut Tracer, dir: &Path, out: &mut Outcome) {
    heap(tracer, out);
    barrier(tracer, out);
    edge_table(tracer, out);
    telemetry(tracer, out);
    journal(tracer, dir, out);
    arbiter(tracer, out);
    idle_round(tracer, dir, out);
}

/// One forced collection, a snapshot and a checkpoint of `rt`, each step
/// timed from outside. `config` must be the configuration `rt` runs under.
pub fn runtime(
    rt: &mut Runtime,
    config: &PruningConfig,
    tracer: &mut Tracer,
    dir: &Path,
    out: &mut Outcome,
) {
    let cost = millis(tracer, "leak-pruning.force_gc", || {
        rt.force_gc();
    });
    out.set("gc.force_gc_ms", cost);

    let mut capture = None;
    let cost = millis(tracer, "leak-pruning.capture_snapshot", || {
        capture = Some(rt.capture_snapshot());
    });
    out.set("diagnose.snapshot_capture_ms", cost);
    let snapshot = capture.expect("just captured").snapshot;
    let mut text = String::new();
    let cost = millis(tracer, "lp-diagnose.to_jsonl", || {
        text = snapshot.to_jsonl();
    });
    out.set("diagnose.snapshot_encode_ms", cost);
    out.set("diagnose.snapshot_bytes", text.len() as f64);
    let cost = millis(tracer, "lp-diagnose.parse", || {
        let parsed = HeapSnapshot::parse(&text).expect("a snapshot parses back");
        assert_eq!(parsed.object_count(), snapshot.object_count());
    });
    out.set("diagnose.snapshot_parse_ms", cost);

    let path = dir.join("probe.ckpt");
    let mut checkpoint = None;
    let cost = millis(tracer, "lp-recovery.capture", || {
        checkpoint = Some(Checkpoint::capture(rt, 0));
    });
    out.set("recovery.capture_ms", cost);
    let checkpoint = checkpoint.expect("just captured");
    let cost = millis(tracer, "lp-recovery.write", || {
        checkpoint
            .write(&path)
            .expect("the run directory is writable");
    });
    out.set("recovery.write_ms", cost);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    out.set("recovery.checkpoint_bytes", bytes as f64);
    let mut read = None;
    let cost = millis(tracer, "lp-recovery.read", || {
        read = Some(Checkpoint::read(&path).expect("a checkpoint reads back"));
    });
    out.set("recovery.read_ms", cost);
    let read = read.expect("just read");
    let cost = millis(tracer, "lp-recovery.restore", || {
        let restored = read.restore(config.clone()).expect("a checkpoint restores");
        assert_eq!(restored.live_objects(), rt.live_objects());
    });
    out.set("recovery.restore_ms", cost);
    let _ = std::fs::remove_file(path);
}

/// The box's own speed, so that a run that disagrees with the others can be
/// told from a slow spell: a fixed xorshift loop, and a fixed walk along a
/// random cycle through 32 MB.
pub struct Machine {
    cycle: Vec<u32>,
}

impl Machine {
    pub fn new() -> Machine {
        // Sattolo's algorithm: a permutation that is one single cycle.
        let len = (32 << 20) / std::mem::size_of::<u32>();
        let mut cycle: Vec<u32> = (0..len as u32).collect();
        let mut state = 0x5EED;
        for i in (1..len).rev() {
            let j = (crate::programs::splitmix(&mut state) % i as u64) as usize;
            cycle.swap(i, j);
        }
        Machine { cycle }
    }

    /// (cpu loop, memory walk) in milliseconds.
    pub fn sample(&self) -> (f64, f64) {
        let start = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..40_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let cpu = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..1_000_000 {
            at = self.cycle[at as usize];
        }
        std::hint::black_box(at);
        (cpu, start.elapsed().as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_probes_fill_their_metrics() {
        let dir = crate::out_dir().join(format!("test-probes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut tracer = Tracer::new(1024);
        let mut out = Outcome::default();
        fixtures(&mut tracer, &dir, &mut out);
        for name in [
            "heap.alloc_ns",
            "heap.sweep_ns_per_slot",
            "barrier.read_warm_ns",
            "barrier.read_cold_ns",
            "barrier.write_idle_ns",
            "pruner.edge_table_probe_ns",
            "telemetry.emit_enabled_ns",
            "telemetry.span_enabled_ns",
            "recovery.journal_append_ns",
            "server.arbiter_rebalance_us",
            "server.idle_round_us",
        ] {
            assert!(out.get(name).unwrap() > 0.0, "{name}");
        }
        let skipped = out.get("heap.sweep_chunks_skipped_ratio").unwrap();
        assert!((0.4..=0.6).contains(&skipped), "{skipped}");
        assert!(tracer.len() > 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runtime_probes_round_trip_a_heap() {
        let dir = crate::out_dir().join(format!("test-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut program = Program::new(Kind::AllocChurn, 1);
        let config = program.config();
        let mut rt = Runtime::new(config.clone());
        program.setup(&mut rt).unwrap();
        let mut tracer = Tracer::new(64);
        let mut out = Outcome::default();
        runtime(&mut rt, &config, &mut tracer, &dir, &mut out);
        assert!(out.get("recovery.checkpoint_bytes").unwrap() > 1e5);
        assert!(out.get("diagnose.snapshot_bytes").unwrap() > 1e5);
        assert!(out.get("recovery.restore_ms").unwrap() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

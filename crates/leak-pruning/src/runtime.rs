//! The [`Runtime`] facade: the "virtual machine" mutator programs run on.
//!
//! The runtime ties together the heap, the root set, the collector, and the
//! pruning engine, and implements the two instrumentation points the paper
//! adds to the VM:
//!
//! * **Allocation** ([`Runtime::alloc`]): when an allocation does not fit,
//!   the runtime collects; if memory stays exhausted it escalates through
//!   the state machine (OBSERVE → SELECT → PRUNE), reclaiming predicted-dead
//!   data structures instead of throwing — and only surfaces an
//!   [`OutOfMemoryError`](crate::OutOfMemoryError) once pruning can make no
//!   further progress.
//! * **Reference loads** ([`Runtime::read_field`]): the conditional read
//!   barrier of §4.1/§4.4 — poisoned reference → error carrying the deferred
//!   out-of-memory error; unlogged reference → clear the bit, record
//!   `max_stale_use` if the target was stale, zero the target's stale
//!   counter.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use lp_diagnose::{
    Capture, HeapSnapshot, PostmortemBundle, PostmortemContext, PrunedEdgeMeta, PrunerView,
    SelectedPrune,
};
use lp_gc::{Collector, GcStats};
use lp_heap::{
    AllocSpec, ClassId, ClassRegistry, FrameId, Handle, Heap, RootSet, StaticId, TaggedRef,
};
use lp_telemetry::json::JsonValue;
use lp_telemetry::{CensusEntry, Event, Telemetry};

use crate::config::{BarrierMode, PruningConfig};
use crate::edge_table::{EdgeKey, EdgeTable};
use crate::engine::Pruner;
use crate::error::{OutOfMemoryError, PrunedAccessError, RuntimeError};
use crate::record::{GcRecord, SelectionInfo};
use crate::report::{PruneReport, PrunedEdge};
use crate::state::State;

/// Mutator-side instrumentation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MutatorCounters {
    /// Reference-field loads executed ([`Runtime::read_field`] calls).
    pub ref_reads: u64,
    /// Loads that took the barrier's out-of-line cold path (a tag bit was
    /// set). The paper's barrier design makes this at most once per
    /// reference per collection.
    pub barrier_cold_hits: u64,
    /// Cold-path hits that updated an edge's `max_stale_use` (target was
    /// stale when used).
    pub stale_use_updates: u64,
    /// Loads that threw because the reference (or its whole target object)
    /// had been pruned.
    pub pruned_access_throws: u64,
    /// Finalizers run.
    pub finalizers_run: u64,
    /// Finalizers skipped because pruning had started and
    /// [`run_finalizers_after_prune`](crate::PruningConfig::run_finalizers_after_prune)
    /// is off.
    pub finalizers_skipped: u64,
    /// Minor (nursery) collections performed (generational configuration
    /// only).
    pub minor_collections: u64,
    /// Old-to-young stores recorded by the generational write barrier.
    pub remembered_stores: u64,
}

/// A managed runtime with leak pruning.
///
/// # Example
///
/// ```
/// use leak_pruning::{PruningConfig, Runtime};
/// use lp_heap::AllocSpec;
///
/// let mut rt = Runtime::new(PruningConfig::builder(1 << 20).build());
/// let list = rt.register_class("List");
/// let node = rt.register_class("Node");
///
/// let head = rt.alloc(list, &AllocSpec::with_refs(1))?;
/// let global = rt.add_static();
/// rt.set_static(global, Some(head));
///
/// let n = rt.alloc(node, &AllocSpec::with_refs(1))?;
/// rt.write_field(head, 0, Some(n));
/// assert_eq!(rt.read_field(head, 0)?, Some(n));
/// # Ok::<(), leak_pruning::RuntimeError>(())
/// ```
pub struct Runtime {
    config: PruningConfig,
    classes: ClassRegistry,
    heap: Heap,
    roots: RootSet,
    collector: Collector,
    pruner: Pruner,
    history: Vec<GcRecord>,
    /// Collections in `history` that pruned at least one reference, and the
    /// references they pruned — running totals, so a host reporting them
    /// every round does not walk a history that only grows.
    prune_events: u64,
    pruned_refs: u64,
    counters: MutatorCounters,
    finalizer_hook: Option<Box<dyn FnMut(ClassId) + Send>>,
    /// Bytes allocated since the last collection — one measure of mutator
    /// progress gating the staleness clock.
    bytes_since_gc: u64,
    /// Reference loads since the last collection — the other measure.
    reads_since_gc: u64,
    /// Heap usage at the end of the last full collection, for the
    /// generational full-collection trigger.
    used_at_last_full: u64,
    /// The runtime's event bus. Heap, collector and pruner hold clones, so
    /// one attached sink sees allocation, GC-phase, state-machine and
    /// per-collection events on a single sequenced stream.
    telemetry: Telemetry,
    /// Counter values at the last `CounterDelta` emission, so each event
    /// carries deltas rather than cumulative totals.
    counters_at_last_emit: MutatorCounters,
    /// Whether the one-shot exhaustion snapshot
    /// ([`PruningConfig::snapshot_on_exhaustion`]) has been written.
    exhaustion_snapshot_done: bool,
    /// Collection index at which the last postmortem bundle was written,
    /// per trigger tag — the rate limiter for automatic bundles.
    postmortem_last: HashMap<String, u64>,
    /// Bundles successfully written over the runtime's lifetime.
    postmortem_count: u64,
    /// Path of the most recently written bundle.
    postmortem_latest: Option<PathBuf>,
    /// Edge trigger for allocation-driven incremental cycles: set while
    /// free space sits above the start threshold, cleared when a cycle
    /// starts. Firing only on the armed->low transition means a cycle
    /// whose sweep fails to recover headroom is not immediately followed
    /// by another full mark — the next collection comes from exhaustion,
    /// where the escalation logic lives, exactly as in stop-the-world
    /// mode.
    incremental_armed: bool,
}

/// Fraction of the heap the mutator must allocate between two collections
/// for the second to age objects (1/16 of capacity).
const MUTATOR_PROGRESS_DIVISOR: u64 = 16;

/// Alternatively, reference loads between two collections that count as
/// mutator progress — programs under memory pressure allocate little but
/// still *use* their data.
///
/// Collections separated by neither signal (allocation stalls, or the §6.3
/// grind where every allocation collects) give the program no real chance
/// to use anything, so aging objects across them would turn hot data into
/// pruning candidates.
const MUTATOR_PROGRESS_READS: u64 = 32;

/// Minimum full-heap collections between two automatic postmortem bundles
/// of the same trigger. A prune storm exhausts memory on every allocation
/// for a while; one bundle per storm is evidence, one per allocation is a
/// disk-filling denial of service against ourselves. Manual requests
/// ([`Runtime::write_postmortem`]) bypass the limit.
const POSTMORTEM_MIN_GC_INTERVAL: u64 = 32;

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("state", &self.state())
            .field("used_bytes", &self.heap.used_bytes())
            .field("capacity", &self.heap.capacity())
            .field("collections", &self.collector.collections())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: PruningConfig) -> Self {
        // Every full-heap collection — allocation-triggered, forced, and the
        // pruner's SELECT/PRUNE collections — goes through this one
        // collector, so configuring it here plumbs the mark and sweep
        // parallelism everywhere.
        let mut collector = Collector::new();
        collector.set_threads(config.gc_threads());
        // One bus for the whole runtime: the heap (alloc/free events and the
        // collector's phase spans) and the pruner (state machine, selection)
        // hold clones, so everything lands on a single sequenced stream.
        let telemetry = Telemetry::new();
        if let Some(slots) = config.flight_recorder_slots() {
            telemetry.enable_recorder(slots);
        }
        let mut heap = Heap::new(config.heap_capacity());
        heap.set_telemetry(telemetry.clone());
        Runtime {
            heap,
            pruner: Pruner::new(&config, telemetry.clone()),
            classes: ClassRegistry::new(),
            roots: RootSet::new(),
            collector,
            history: Vec::new(),
            prune_events: 0,
            pruned_refs: 0,
            counters: MutatorCounters::default(),
            finalizer_hook: None,
            bytes_since_gc: 0,
            reads_since_gc: 0,
            used_at_last_full: 0,
            telemetry,
            counters_at_last_emit: MutatorCounters::default(),
            exhaustion_snapshot_done: false,
            postmortem_last: HashMap::new(),
            postmortem_count: 0,
            postmortem_latest: None,
            incremental_armed: true,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PruningConfig {
        &self.config
    }

    /// The runtime's event bus. Attach sinks or a flight recorder here; all
    /// components (heap, collector, pruner, workload drivers) share it.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    // ----- classes --------------------------------------------------------

    /// Interns a class name.
    pub fn register_class(&mut self, name: &str) -> ClassId {
        let id = self.classes.register(name);
        // Traces are self-describing: replay tools resolve the raw class
        // indices later events carry from these registrations.
        self.telemetry.emit(|| Event::ClassReg {
            class: id.index(),
            name: name.to_owned(),
        });
        // Static liveness verdicts are keyed by class name; resolve them to
        // this class index once, here, so the SELECT probe never compares
        // strings.
        self.pruner.note_class(id, name);
        id
    }

    /// Number of (class, field) static liveness verdicts installed for the
    /// classes registered so far (see
    /// [`PruningConfig::liveness_summaries`]). Zero when no summary file
    /// is loaded — the purely dynamic baseline.
    pub fn static_verdicts_installed(&self) -> usize {
        self.pruner.static_verdicts_installed()
    }

    /// The class registry.
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// Name of a registered class.
    pub fn class_name(&self, id: ClassId) -> &str {
        self.classes.name(id)
    }

    // ----- roots -----------------------------------------------------------

    /// Adds a static (global) root slot.
    pub fn add_static(&mut self) -> StaticId {
        self.roots.add_static()
    }

    /// Reads a static slot. Statics hold plain handles ("registers"), so no
    /// read barrier applies.
    pub fn static_ref(&self, id: StaticId) -> Option<Handle> {
        self.roots.static_ref(id)
    }

    /// Re-derives the id of static slot `index` after a restore — slot
    /// numbering survives [`Runtime::restore_from`] exactly, so a program
    /// that added its statics in a known order reattaches them here. `None`
    /// if no such slot exists.
    pub fn static_id(&self, index: u32) -> Option<StaticId> {
        self.roots.static_id(index)
    }

    /// Re-derives the id of live frame `index` after a restore (see
    /// [`Runtime::static_id`]).
    pub fn frame_id(&self, index: u32) -> Option<FrameId> {
        self.roots.frame_id(index)
    }

    /// Writes a static slot.
    pub fn set_static(&mut self, id: StaticId, value: Option<Handle>) {
        self.roots.set_static(id, value);
    }

    /// Pushes a stack frame with `slots` local reference slots (e.g. a
    /// thread the program spawned).
    pub fn push_frame(&mut self, slots: usize) -> FrameId {
        self.roots.push_frame(slots)
    }

    /// Pops a stack frame.
    pub fn pop_frame(&mut self, id: FrameId) {
        self.roots.pop_frame(id);
    }

    /// Reads a frame slot (no barrier; frames are registers).
    pub fn frame_ref(&self, id: FrameId, index: usize) -> Option<Handle> {
        self.roots.frame_ref(id, index)
    }

    /// Writes a frame slot.
    pub fn set_frame_ref(&mut self, id: FrameId, index: usize, value: Option<Handle>) {
        self.roots.set_frame_ref(id, index, value);
    }

    // ----- allocation ------------------------------------------------------

    /// Allocates an object, collecting — and, when enabled, pruning — as
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::OutOfMemory`] when the heap stays exhausted
    /// after collection and pruning cannot reclaim enough memory (or is
    /// disabled).
    pub fn alloc(&mut self, class: ClassId, spec: &AllocSpec) -> Result<Handle, RuntimeError> {
        let bytes = u64::from(spec.footprint());
        // Generational fast path: when the nursery fills, a cheap minor
        // collection reclaims the short-lived majority without a full
        // trace. Leak pruning is untouched by minor collections (§5: the
        // paper's collector is generational; pruning piggybacks on
        // full-heap collections only).
        // Incremental mode: one bounded mark quantum per allocation slice
        // keeps the cycle progressing at mutator speed.
        self.pump_incremental();
        if let Some(fraction) = self.config.nursery_fraction() {
            let nursery_capacity = (self.heap.capacity() as f64 * fraction) as u64;
            // Minor collections are suppressed while an incremental cycle
            // is active: they would open a new mark epoch and destroy the
            // cycle's marks. The cycle's own sweep empties the nursery.
            if self.heap.young_bytes().saturating_add(bytes) > nursery_capacity
                && !self.pruner.incremental_active()
            {
                self.run_minor_collection();
                // Old-generation growth triggers full collections (the
                // standard generational heuristic): without it, minor
                // collections would defer the first full-heap collection —
                // and with it all staleness observation — until the heap
                // is nearly exhausted. In incremental mode the same
                // trigger starts a cycle from `pump_incremental` instead.
                let growth_step = self.heap.capacity() / 8;
                if self.config.incremental_mark_budget().is_none()
                    && self.heap.used_bytes() > self.used_at_last_full.saturating_add(growth_step)
                {
                    self.run_collection(false);
                }
            }
        }
        if !self.heap.fits(bytes) {
            self.collect_until_fits(bytes)?;
        }
        let handle = self
            .heap
            .alloc(class, spec)
            .expect("heap has room after collection");
        self.bytes_since_gc += bytes;
        // The new object lives in a mutator register until the program
        // stores it somewhere; the register file keeps it rooted across
        // collections triggered mid-construction.
        self.roots.note_allocation(handle);
        Ok(handle)
    }

    /// Allocates an object that carries a finalizer.
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::alloc`].
    pub fn alloc_finalizable(
        &mut self,
        class: ClassId,
        spec: &AllocSpec,
    ) -> Result<Handle, RuntimeError> {
        let handle = self.alloc(class, spec)?;
        self.heap.set_finalizable(handle);
        Ok(handle)
    }

    fn collect_until_fits(&mut self, bytes: u64) -> Result<(), RuntimeError> {
        // The span carries the allocation size that forced collection, so
        // a trace ties every pause (and any prune storm) back to the
        // request that could not fit.
        let _span = self.telemetry.span("collect_until_fits", bytes);
        // Closing an in-flight incremental cycle is itself a full
        // collection and may already make room.
        if self.pruner.incremental_active() {
            self.finish_incremental_collection();
            if self.heap.fits(bytes) {
                return Ok(());
            }
        }
        let mut no_progress = 0u32;
        for _ in 0..self.config.max_gc_attempts_per_alloc() {
            // Whether this collection ages objects is decided by how much
            // the mutator allocated since the previous one.
            let record = self.run_collection(false);
            let progress =
                record.freed_bytes > 0 || record.pruned_refs > 0 || record.selected.is_some();
            if self.heap.fits(bytes) {
                return Ok(());
            }
            // The program has genuinely exhausted memory: a full collection
            // did not make room. Record the (deferred) error.
            self.pruner.note_exhausted(
                record.gc_index,
                self.heap.used_bytes(),
                self.heap.capacity(),
            );
            self.maybe_snapshot_exhaustion();
            self.maybe_write_postmortem("exhaustion");
            if !self.config.pruning_enabled() {
                break;
            }
            if progress {
                no_progress = 0;
            } else {
                no_progress += 1;
                if no_progress >= 3 {
                    // A full OBSERVE -> SELECT -> PRUNE cycle achieved
                    // nothing; the remaining memory is live (or at least
                    // unprunable). Give up.
                    break;
                }
            }
        }
        Err(RuntimeError::OutOfMemory(self.current_oom(bytes)))
    }

    /// Writes the one-shot exhaustion snapshot if
    /// [`PruningConfig::snapshot_on_exhaustion`] is set and this is the
    /// first exhaustion. A write failure is reported on stderr, never
    /// surfaced to the allocating program — diagnosis must not change
    /// whether the program survives.
    fn maybe_snapshot_exhaustion(&mut self) {
        if self.exhaustion_snapshot_done {
            return;
        }
        let Some(path) = self.config.snapshot_on_exhaustion().map(Path::to_path_buf) else {
            return;
        };
        self.exhaustion_snapshot_done = true;
        let capture = self.capture_snapshot();
        if let Err(err) = std::fs::write(&path, capture.snapshot.to_jsonl()) {
            eprintln!(
                "leak-pruning: failed to write exhaustion snapshot to {}: {err}",
                path.display()
            );
        }
    }

    fn current_oom(&self, _requested: u64) -> OutOfMemoryError {
        OutOfMemoryError::new(
            self.collector.collections(),
            self.heap.used_bytes(),
            self.heap.capacity(),
        )
    }

    /// Forces a full-heap collection (driver/test hook). Forced collections
    /// always advance the staleness clock. An in-flight incremental cycle
    /// is closed first, so the returned record is always stop-the-world.
    pub fn force_gc(&mut self) -> GcRecord {
        self.run_collection(true)
    }

    /// Whether an incremental mark cycle is currently in flight.
    pub fn incremental_active(&self) -> bool {
        self.pruner.incremental_active()
    }

    /// Starts an incremental full collection now. Returns `false` — and
    /// starts nothing — unless [`PruningConfig::incremental_mark_budget`]
    /// is set, no cycle is already active, and the current state marks
    /// incrementally (INACTIVE and OBSERVE do; SELECT and PRUNE stay
    /// stop-the-world). The runtime normally starts cycles itself from the
    /// allocation path; this is the driver/host hook.
    pub fn start_incremental_cycle(&mut self) -> bool {
        let Some(budget) = self.config.incremental_mark_budget() else {
            return false;
        };
        if self.pruner.incremental_active() {
            return false;
        }
        let byte_threshold = (self.heap.capacity() / MUTATOR_PROGRESS_DIVISOR).max(1);
        let mutator_ran =
            self.bytes_since_gc >= byte_threshold || self.reads_since_gc >= MUTATOR_PROGRESS_READS;
        if !self.pruner.begin_incremental_cycle(
            &mut self.heap,
            &self.roots,
            &mut self.collector,
            budget,
            mutator_ran,
        ) {
            return false;
        }
        self.bytes_since_gc = 0;
        self.reads_since_gc = 0;
        true
    }

    /// Runs up to `max_quanta` bounded mark quanta of the active
    /// incremental cycle, closing the collection (stop-the-world flush +
    /// sweep) when the closure completes. Returns the number of quanta
    /// run (0 with no active cycle). A multi-tenant host calls this
    /// between requests so marking progresses even while a tenant is not
    /// allocating.
    pub fn step_incremental(&mut self, max_quanta: u32) -> u32 {
        let mut ran = 0;
        while ran < max_quanta {
            let Some(report) = self.pruner.cycle_quantum(&mut self.heap) else {
                break;
            };
            ran += 1;
            if report.done {
                self.finish_incremental_collection();
                break;
            }
        }
        ran
    }

    /// Drives the incremental collector between mutator steps: one pending
    /// quantum if a cycle is active, or a new cycle once free space drops
    /// below a capacity-eighth. Starting only on the approach to
    /// exhaustion keeps total mark work at stop-the-world parity: the
    /// cycle that begins here is the same collection exhaustion was about
    /// to force, just spread over the remaining allocation slack
    /// ([`Runtime::collect_until_fits`] closes it and returns without a
    /// second mark when the sweep makes room). No-op unless
    /// [`PruningConfig::incremental_mark_budget`] is set.
    fn pump_incremental(&mut self) {
        if self.config.incremental_mark_budget().is_none() {
            return;
        }
        if self.pruner.incremental_active() {
            self.step_incremental(1);
        } else {
            let capacity = self.heap.capacity();
            let headroom = (capacity / 16).max(1);
            if capacity.saturating_sub(self.heap.used_bytes()) >= headroom {
                self.incremental_armed = true;
            } else if self.incremental_armed && self.start_incremental_cycle() {
                self.incremental_armed = false;
            }
        }
    }

    /// Closes the active incremental cycle: final stop-the-world flush,
    /// sweep, history, telemetry, and (relaxed) verification.
    fn finish_incremental_collection(&mut self) {
        let Some((record, finalized)) =
            self.pruner
                .finish_cycle(&mut self.heap, &self.roots, &mut self.collector)
        else {
            return;
        };
        self.dispatch_finalizers(finalized);
        self.push_history(record.clone());
        self.used_at_last_full = self.heap.used_bytes();
        self.emit_collection_events(&record);
        // The terminal Collection/CounterDelta events above belong to the
        // cycle; only now does its span close.
        self.pruner.close_cycle_span();
        if let Some(period) = self.config.verify_period() {
            if record.gc_index.is_multiple_of(period) {
                self.verify_after_collection(record.gc_index, true);
            }
        }
    }

    /// Forces collections — escalating through the Figure-2 state machine
    /// to pruning when plain collection is not enough — until used bytes
    /// drop to `target_bytes` or no further progress is possible. Returns
    /// the used bytes afterwards.
    ///
    /// This is the hook a multi-tenant host's memory arbiter calls on the
    /// heaviest tenants when *aggregate* pressure crosses the shared limit:
    /// unlike [`Runtime::alloc`]'s internal collect-until-fits path it never
    /// surfaces an error, because failing to reach an externally imposed
    /// target is not an out-of-memory condition for this tenant — the
    /// arbiter simply moves on to the next one. Escalation goes through
    /// `note_exhausted`, so pruned references throw the same deferred OOM
    /// they would after a real exhaustion.
    pub fn reclaim_to(&mut self, target_bytes: u64) -> u64 {
        if self.heap.used_bytes() <= target_bytes {
            return self.heap.used_bytes();
        }
        let mut no_progress = 0u32;
        for _ in 0..self.config.max_gc_attempts_per_alloc() {
            let record = self.run_collection(true);
            let progress =
                record.freed_bytes > 0 || record.pruned_refs > 0 || record.selected.is_some();
            if self.heap.used_bytes() <= target_bytes {
                break;
            }
            self.pruner.note_exhausted(
                record.gc_index,
                self.heap.used_bytes(),
                self.heap.capacity(),
            );
            self.maybe_write_postmortem("exhaustion");
            if !self.config.pruning_enabled() {
                break;
            }
            if progress {
                no_progress = 0;
            } else {
                no_progress += 1;
                if no_progress >= 3 {
                    // A full OBSERVE -> SELECT -> PRUNE cycle achieved
                    // nothing; what remains is live or unprunable.
                    break;
                }
            }
        }
        self.heap.used_bytes()
    }

    /// Captures a heap snapshot for offline diagnosis (`lp-diagnose`).
    ///
    /// The capture piggybacks on a stop-the-world collection: it runs the
    /// mark phase itself (skipping poisoned references, exactly like the
    /// pruning closures) and dumps the live object graph while the world
    /// is stopped, so the snapshot is a consistent cut. The collection
    /// sweeps garbage and advances the collection index like any forced
    /// GC, but stays outside the pruner's bookkeeping: stale counters,
    /// the edge table and the Figure-2 state machine are unaffected.
    ///
    /// Emits [`Event::SnapshotBegin`]/[`Event::SnapshotEnd`] around the
    /// capture; the end event carries the pause cost in nanoseconds.
    pub fn capture_snapshot(&mut self) -> Capture {
        // The capture's collection needs its own mark epoch; close any
        // in-flight incremental cycle first.
        if self.pruner.incremental_active() {
            self.finish_incremental_collection();
        }
        let gc_index = self.collector.next_gc_index();
        let snapshot_span = self.telemetry.span("snapshot", gc_index);
        self.telemetry.emit(|| Event::SnapshotBegin { gc_index });
        let pruner_view = self.pruner_view();
        let roots = &self.roots;
        let classes = &self.classes;
        let mut captured: Option<Capture> = None;
        let outcome = self.collector.collect_with(&mut self.heap, |heap| {
            let (capture, stats) =
                HeapSnapshot::capture(heap, roots, classes, gc_index, Some(pruner_view))
                    .expect("quiescent: incremental cycle closed above");
            captured = Some(capture);
            (stats, Vec::new())
        });
        let capture = captured.expect("mark closure ran");
        // The sweep may reclaim finalizable garbage; honour the hook just
        // like an ordinary collection.
        self.dispatch_finalizers(outcome.swept.finalized);
        self.used_at_last_full = self.heap.used_bytes();
        let snapshot = &capture.snapshot;
        self.telemetry.emit(|| Event::SnapshotEnd {
            gc_index,
            objects: snapshot.object_count(),
            edges: snapshot.edge_count(),
            live_bytes: snapshot.live_bytes(),
            nanos: capture.trace_nanos + capture.record_nanos,
        });
        drop(snapshot_span);
        capture
    }

    /// The pruner's state as snapshot-header metadata: Figure-2 state,
    /// deferred-OOM flag, active selection, and the pruned-edge census
    /// joined with the edge table's `max_stale_use` — everything a
    /// postmortem needs to explain *why* each edge was pruned.
    fn pruner_view(&self) -> PrunerView {
        let table = self.pruner.table();
        let mut pruned_edges: Vec<PrunedEdgeMeta> = self
            .pruner
            .pruned_census()
            .iter()
            .map(|(&edge, &refs)| PrunedEdgeMeta {
                src: edge.src.index(),
                tgt: edge.tgt.index(),
                refs,
                max_stale_use: table.max_stale_use(edge),
            })
            .collect();
        pruned_edges.sort_by(|a, b| {
            b.refs
                .cmp(&a.refs)
                .then(a.src.cmp(&b.src))
                .then(a.tgt.cmp(&b.tgt))
        });
        let selected = self.pruner.selection().map(|info| match *info {
            SelectionInfo::Edge { edge, bytes } => SelectedPrune::Edge {
                src: edge.src.index(),
                tgt: edge.tgt.index(),
                bytes,
            },
            SelectionInfo::StaleLevel(level) => SelectedPrune::StaleLevel(level),
        });
        PrunerView {
            state: self.pruner.state().name().to_owned(),
            averted_oom: self.pruner.averted_oom().is_some(),
            selected,
            pruned_edges,
        }
    }

    /// The configuration knobs a postmortem reader needs to interpret the
    /// bundle, as JSON.
    fn config_json(&self) -> JsonValue {
        let c = &self.config;
        let mut fields = vec![
            (
                "heap_capacity".to_owned(),
                JsonValue::from_u64(c.heap_capacity()),
            ),
            ("pruning".to_owned(), JsonValue::Bool(c.pruning_enabled())),
            (
                "policy".to_owned(),
                JsonValue::Str(format!("{:?}", c.policy())),
            ),
            (
                "barrier_mode".to_owned(),
                JsonValue::Str(format!("{:?}", c.barrier_mode())),
            ),
            (
                "expected_threshold".to_owned(),
                JsonValue::Float(c.expected_threshold()),
            ),
            (
                "nearly_full_threshold".to_owned(),
                JsonValue::Float(c.nearly_full_threshold()),
            ),
            (
                "edge_table_slots".to_owned(),
                JsonValue::from_u64(c.edge_table_slots() as u64),
            ),
        ];
        if let Some(budget) = c.incremental_mark_budget() {
            fields.push((
                "incremental_mark_budget".to_owned(),
                JsonValue::from_u64(budget as u64),
            ));
        }
        JsonValue::Obj(fields)
    }

    /// Captures a postmortem bundle *without* collecting: the mark phase
    /// runs (so reachability is current), but nothing is swept and no
    /// collection index is consumed. That is the point — the
    /// dead-but-reachable objects the bundle exists to show are exactly
    /// what a sweep would erase.
    ///
    /// The embedded snapshot's `gc_index` is the number of collections
    /// performed so far (the capture happens *between* collections).
    pub fn capture_postmortem(&mut self, trigger: &str) -> PostmortemBundle {
        self.capture_postmortem_with(trigger, &PostmortemContext::default())
    }

    /// [`capture_postmortem`](Self::capture_postmortem) with host-supplied
    /// context (timeseries window, arbiter state) stamped into the bundle.
    pub fn capture_postmortem_with(
        &mut self,
        trigger: &str,
        context: &PostmortemContext,
    ) -> PostmortemBundle {
        // A half-marked incremental cycle would make the mark bits lie;
        // close it first (a full collection, as on any stop-the-world
        // entry point).
        if self.pruner.incremental_active() {
            self.finish_incremental_collection();
        }
        let gc_index = self.collector.collections();
        let pruner_view = self.pruner_view();
        // A fresh mark epoch, then the capture's own transitive closure.
        // Leaving the marks set afterwards is safe: every collection path
        // begins its own epoch.
        self.heap.begin_mark_epoch();
        let (capture, _stats) = HeapSnapshot::capture(
            &self.heap,
            &self.roots,
            &self.classes,
            gc_index,
            Some(pruner_view),
        )
        .expect("quiescent: incremental cycle closed above");
        PostmortemBundle {
            trigger: trigger.to_owned(),
            gc_index,
            recorder_dropped: self.telemetry.recorder_dropped(),
            spans: self
                .telemetry
                .active_spans()
                .into_iter()
                .map(|(name, arg)| (name.to_owned(), arg))
                .collect(),
            config: self.config_json(),
            timeseries: context.timeseries.clone(),
            arbiter: context.arbiter.clone(),
            snapshot: capture.snapshot,
            events: self.telemetry.recorder_snapshot(),
        }
    }

    /// Writes a postmortem bundle into
    /// [`PruningConfig::postmortem_dir`] now, bypassing the per-trigger
    /// rate limit (this is the manual/host-requested path). Returns the
    /// bundle's path, or `None` when no directory is configured or the
    /// write failed — a failed write is reported on stderr, never
    /// surfaced: diagnosis must not change whether the program survives.
    pub fn write_postmortem(&mut self, trigger: &str) -> Option<PathBuf> {
        self.write_postmortem_with(trigger, &PostmortemContext::default())
    }

    /// [`write_postmortem`](Self::write_postmortem) with host-supplied
    /// context stamped into the bundle.
    pub fn write_postmortem_with(
        &mut self,
        trigger: &str,
        context: &PostmortemContext,
    ) -> Option<PathBuf> {
        let dir = self.config.postmortem_dir().map(Path::to_path_buf)?;
        let bundle = self.capture_postmortem_with(trigger, context);
        let gc_index = bundle.gc_index;
        let text = bundle.to_jsonl();
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "leak-pruning: failed to create postmortem dir {}: {err}",
                dir.display()
            );
            return None;
        }
        let path = dir.join(format!("postmortem-{trigger}-gc{gc_index}.jsonl"));
        if let Err(err) = std::fs::write(&path, &text) {
            eprintln!(
                "leak-pruning: failed to write postmortem bundle to {}: {err}",
                path.display()
            );
            return None;
        }
        // Stable "most recent bundle" pointer for humans and dashboards.
        let latest = dir.join("postmortem-latest.jsonl");
        if let Err(err) = std::fs::write(&latest, &text) {
            eprintln!("leak-pruning: failed to write {}: {err}", latest.display());
        }
        self.postmortem_last.insert(trigger.to_owned(), gc_index);
        self.postmortem_count += 1;
        self.postmortem_latest = Some(path.clone());
        let path_text = path.display().to_string();
        self.telemetry.emit(|| Event::PostmortemWritten {
            trigger: trigger.to_owned(),
            path: path_text.clone(),
            gc_index,
        });
        Some(path)
    }

    /// Postmortem bundles successfully written so far (automatic and
    /// manual).
    pub fn postmortem_count(&self) -> u64 {
        self.postmortem_count
    }

    /// Path of the most recently written postmortem bundle.
    pub fn postmortem_latest(&self) -> Option<&Path> {
        self.postmortem_latest.as_deref()
    }

    /// Rate-limited automatic bundle write: at most one bundle per
    /// `trigger` every [`POSTMORTEM_MIN_GC_INTERVAL`] collections (the
    /// first for a trigger always writes). No-op without a configured
    /// directory.
    fn maybe_write_postmortem(&mut self, trigger: &str) {
        if self.config.postmortem_dir().is_none() {
            return;
        }
        let gc_index = self.collector.collections();
        if let Some(&last) = self.postmortem_last.get(trigger) {
            if gc_index.saturating_sub(last) < POSTMORTEM_MIN_GC_INTERVAL {
                return;
            }
        }
        self.write_postmortem(trigger);
    }

    fn run_minor_collection(&mut self) {
        let outcome = lp_gc::collect_minor(&mut self.heap, &self.roots);
        self.counters.minor_collections += 1;
        // Minor collections get their own event kind: they carry no
        // `gc_index` because they do not advance the full-heap numbering,
        // and a `collection` event would misattribute them to one.
        self.telemetry.emit(|| Event::MinorCollection {
            freed_objects: outcome.swept.freed_objects,
            freed_bytes: outcome.swept.freed_bytes,
            mark_nanos: outcome.mark_time.as_nanos() as u64,
            sweep_nanos: outcome.sweep_time.as_nanos() as u64,
        });
        self.dispatch_finalizers(outcome.swept.finalized);
    }

    /// Runs or skips the finalizers of reclaimed finalizable objects,
    /// honouring [`PruningConfig::run_finalizers_after_prune`].
    fn dispatch_finalizers(&mut self, mut finalized: lp_heap::FinalizeLog) {
        if finalized.is_empty() {
            return;
        }
        let pruning_started = self.pruner.averted_oom().is_some();
        if pruning_started && !self.config.run_finalizers_after_prune() {
            self.counters.finalizers_skipped += finalized.len() as u64;
        } else {
            self.counters.finalizers_run += finalized.len() as u64;
            if let Some(hook) = self.finalizer_hook.as_mut() {
                for class in finalized.drain() {
                    hook(class);
                }
            }
        }
    }

    fn run_collection(&mut self, force_tick: bool) -> GcRecord {
        // A stop-the-world collection needs its own mark epoch; an
        // in-flight incremental cycle must close first.
        if self.pruner.incremental_active() {
            self.finish_incremental_collection();
        }
        // (used_at_last_full is refreshed after the sweep, below.)
        let had_averted_oom = self.pruner.averted_oom().is_some();
        let byte_threshold = (self.heap.capacity() / MUTATOR_PROGRESS_DIVISOR).max(1);
        let mutator_ran = force_tick
            || self.bytes_since_gc >= byte_threshold
            || self.reads_since_gc >= MUTATOR_PROGRESS_READS;
        self.bytes_since_gc = 0;
        self.reads_since_gc = 0;
        // The span's arg is the index this collection is about to claim;
        // the terminal Collection/CounterDelta events land inside it.
        let _collection_span = self
            .telemetry
            .span("collection", self.collector.next_gc_index());
        let (record, finalized) = self.pruner.collect(
            &mut self.heap,
            &self.roots,
            &mut self.collector,
            mutator_ran,
        );
        self.dispatch_finalizers(finalized);
        self.push_history(record.clone());
        self.used_at_last_full = self.heap.used_bytes();
        self.emit_collection_events(&record);
        if let Some(period) = self.config.verify_period() {
            if record.gc_index.is_multiple_of(period) {
                self.verify_after_collection(record.gc_index, false);
            }
        }
        // Entering PRUNE records the deferred out-of-memory error — the
        // moment the program would have died without pruning, whether or
        // not an allocation literally failed first (under the nearly-full
        // threshold PRUNE usually lands *before* a real exhaustion). That
        // is exactly when a postmortem is owed.
        if !had_averted_oom && self.pruner.averted_oom().is_some() {
            self.maybe_write_postmortem("exhaustion");
        }
        record
    }

    /// The sanitizer hook: full structural + reachability verification,
    /// telemetry, and a panic on any violation. Runs at the one point where
    /// the reachability check is sound — the world is stopped and the sweep
    /// just finished. After an incremental collection the relaxed variant
    /// applies: floating garbage (marked but unreachable by the flush) is
    /// legitimate there.
    fn verify_after_collection(&self, gc_index: u64, incremental: bool) {
        let start = std::time::Instant::now();
        let mut violations = self.verify_heap();
        violations.extend(if incremental {
            lp_gc::verify_post_incremental_collection(&self.heap, &self.roots)
        } else {
            lp_gc::verify_post_collection(&self.heap, &self.roots)
        });
        let nanos = start.elapsed().as_nanos() as u64;
        self.telemetry.emit(|| Event::VerifyHeap {
            gc_index,
            violations: violations.len() as u64,
            nanos,
        });
        if violations.is_empty() {
            return;
        }
        for violation in &violations {
            self.telemetry.emit(|| Event::VerifyViolation {
                gc_index,
                kind: violation.kind.to_owned(),
                detail: violation.detail.clone(),
            });
        }
        let summary: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "heap verification failed after collection {gc_index}: {} violation(s)\n{}",
            violations.len(),
            summary.join("\n")
        );
    }

    /// Per-collection telemetry: a `Collection` snapshot, a `CounterDelta`
    /// against the previous emission, and (every `census_period` collections,
    /// when configured) an edge-table census.
    fn emit_collection_events(&mut self, record: &GcRecord) {
        if !self.telemetry.is_enabled() {
            // Leave `counters_at_last_emit` untouched so the next delta,
            // emitted once a sink attaches, covers the gap.
            return;
        }
        self.telemetry.emit(|| Event::Collection {
            gc_index: record.gc_index,
            state: record.state.name().to_owned(),
            live_bytes_after: record.live_bytes_after,
            live_objects_after: record.live_objects_after,
            freed_bytes: record.freed_bytes,
            freed_objects: record.freed_objects,
            pruned_refs: record.pruned_refs,
            mark_nanos: record.mark_time.as_nanos() as u64,
            sweep_nanos: record.sweep_time.as_nanos() as u64,
            flush_nanos: record.flush_time.map(|d| d.as_nanos() as u64),
        });
        let now = self.counters;
        let last = self.counters_at_last_emit;
        self.counters_at_last_emit = now;
        self.telemetry.emit(|| Event::CounterDelta {
            gc_index: record.gc_index,
            ref_reads: now.ref_reads - last.ref_reads,
            barrier_cold_hits: now.barrier_cold_hits - last.barrier_cold_hits,
            stale_use_updates: now.stale_use_updates - last.stale_use_updates,
            pruned_access_throws: now.pruned_access_throws - last.pruned_access_throws,
            finalizers_run: now.finalizers_run - last.finalizers_run,
            finalizers_skipped: now.finalizers_skipped - last.finalizers_skipped,
            minor_collections: now.minor_collections - last.minor_collections,
            remembered_stores: now.remembered_stores - last.remembered_stores,
        });
        if let Some(period) = self.config.census_period() {
            if record.gc_index.is_multiple_of(period) {
                self.emit_edge_census();
            }
        }
    }

    /// Emits an [`Event::EdgeCensus`] snapshot of the edge table right now.
    ///
    /// Runs automatically every `census_period` collections when the config
    /// sets one; callers can also invoke it directly (e.g. once at the end
    /// of a run) to get a final snapshot into the trace.
    pub fn emit_edge_census(&self) {
        let table = self.pruner.table();
        self.telemetry.emit(|| Event::EdgeCensus {
            gc_index: self.collector.collections(),
            edge_types: table.len() as u64,
            capacity: table.capacity() as u64,
            footprint_bytes: table.footprint_bytes() as u64,
            entries: table
                .iter()
                .map(|entry| CensusEntry {
                    src: entry.key.src.index(),
                    tgt: entry.key.tgt.index(),
                    max_stale_use: entry.max_stale_use,
                    bytes_used: entry.bytes_used,
                })
                .collect(),
        });
    }

    // ----- field access (the read barrier) ---------------------------------

    /// Loads reference field `field` of `src` through the read barrier.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::PrunedAccess`] if the reference was pruned;
    /// the error's cause is the out-of-memory error the pruning deferred.
    ///
    /// # Panics
    ///
    /// Panics if `field` is out of bounds for `src`'s class.
    pub fn read_field(
        &mut self,
        src: Handle,
        field: usize,
    ) -> Result<Option<Handle>, RuntimeError> {
        self.counters.ref_reads += 1;
        self.reads_since_gc += 1;
        let Some(src_obj) = self.heap.object_checked(src) else {
            // The program kept this handle aside (a register alias) while
            // every heap path to the object was pruned and the object
            // reclaimed. Reaching it is an access to pruned memory: the
            // program could only have revalidated the alias by loading one
            // of the poisoned references.
            let cause = self
                .pruner
                .averted_oom()
                .cloned()
                .unwrap_or_else(|| self.current_oom(0));
            self.counters.pruned_access_throws += 1;
            return Err(RuntimeError::PrunedAccess(PrunedAccessError::new(
                cause, None, field,
            )));
        };
        let reference = src_obj.load_ref(field);

        // Fast path: no tag bits, or barriers compiled out entirely.
        if matches!(self.config.barrier_mode(), BarrierMode::None) || !reference.is_tagged() {
            return Ok(self.heap.resolve(reference));
        }

        // Out-of-line cold path.
        self.counters.barrier_cold_hits += 1;
        if reference.is_poisoned() {
            let cause = self
                .pruner
                .averted_oom()
                .cloned()
                .unwrap_or_else(|| self.current_oom(0));
            self.counters.pruned_access_throws += 1;
            return Err(RuntimeError::PrunedAccess(PrunedAccessError::new(
                cause,
                Some(src_obj.class()),
                field,
            )));
        }

        // Clear the unlogged bit; the store is conditional on the field not
        // having been overwritten (the paper's `[iff a.f == t]`).
        src_obj.cas_ref(field, reference, reference.without_unlogged());
        let src_class = src_obj.class();

        let resolved = self.heap.resolve(reference);
        if let Some(target) = resolved {
            let tgt_obj = self.heap.object(target);
            let stale = tgt_obj.stale();
            // §4.1: update maxstaleuse only for staleness >= 2 ("a value of
            // 1 is not very stale").
            if stale > 1 && self.pruner.observing() {
                self.counters.stale_use_updates += 1;
                self.pruner
                    .table()
                    .note_stale_use(EdgeKey::new(src_class, tgt_obj.class()), stale);
            }
            tgt_obj.clear_stale();
        }
        Ok(resolved)
    }

    /// Stores into reference field `field` of `src`. There is no *read*
    /// barrier bookkeeping on stores; newly written references start with
    /// clear tag bits, exactly as newly allocated objects do in the paper.
    /// In the generational configuration this is also the write barrier:
    /// old-to-young stores enter the remembered set.
    ///
    /// # Panics
    ///
    /// Panics if `field` is out of bounds.
    pub fn write_field(&mut self, src: Handle, field: usize, value: Option<Handle>) {
        if self.config.nursery_fraction().is_some() {
            if let Some(target) = value {
                if self.heap.is_young(target.slot()) && !self.heap.is_young(src.slot()) {
                    self.heap.note_old_to_young(src.slot());
                    self.counters.remembered_stores += 1;
                }
            }
        }
        // SATB deleted-reference barrier: while an incremental mark cycle
        // is active, log the reference being overwritten so the closure
        // still covers everything reachable at the cycle's start — without
        // it, the only path to a snapshot-reachable object could be copied
        // into an already-scanned object and then severed here, hiding the
        // object from the marker. Unconditional in every barrier mode: it
        // is a soundness barrier, not bookkeeping. Root writes need no
        // logging (the final flush re-scans the roots), and poisoned
        // references are skipped exactly as the closures skip them.
        if self.heap.satb_active() {
            let old = self.heap.object(src).load_ref(field);
            if !old.is_poisoned() {
                if let Some(slot) = old.slot() {
                    self.heap.satb_push(slot);
                }
            }
        }
        self.heap
            .object(src)
            .store_ref(field, TaggedRef::from_optional(value));
    }

    /// Loads scalar word `index` of `src` (no barrier: scalar accesses do
    /// not participate in staleness, matching the paper's reference-load
    /// barrier placement).
    pub fn read_word(&self, src: Handle, index: usize) -> u64 {
        self.heap.object(src).load_word(index)
    }

    /// Stores scalar word `index` of `src`.
    pub fn write_word(&mut self, src: Handle, index: usize, value: u64) {
        self.heap.object(src).store_word(index, value);
    }

    /// Whether `handle` still designates a live (unreclaimed) object.
    pub fn is_live(&self, handle: Handle) -> bool {
        self.heap.contains(handle)
    }

    /// Drops the register-file roots that keep recent allocations alive —
    /// call when a unit of work (an iteration) finishes and its
    /// temporaries go out of scope. Without this, up to
    /// [`lp_heap::REGISTER_FILE_SIZE`] recent allocations stay rooted.
    pub fn release_registers(&mut self) {
        self.roots.clear_registers();
    }

    /// The class of a live object (diagnostics).
    pub fn class_of(&self, handle: Handle) -> ClassId {
        self.heap.object(handle).class()
    }

    /// The stale counter of a live object (diagnostics).
    pub fn stale_of(&self, handle: Handle) -> u8 {
        self.heap.object(handle).stale()
    }

    // ----- introspection ----------------------------------------------------

    /// Current leak-pruning state.
    pub fn state(&self) -> State {
        self.pruner.state()
    }

    /// Simulated bytes in use.
    pub fn used_bytes(&self) -> u64 {
        self.heap.used_bytes()
    }

    /// Heap capacity in simulated bytes.
    pub fn capacity(&self) -> u64 {
        self.heap.capacity()
    }

    /// Heap occupancy in `0.0..=1.0`.
    pub fn occupancy(&self) -> f64 {
        self.heap.occupancy()
    }

    /// Registers (or clears) an advisory byte budget on the heap — see
    /// [`lp_heap::Heap::set_soft_budget`]. A multi-tenant host registers
    /// each tenant's share of the global limit here.
    pub fn set_byte_budget(&mut self, budget: Option<u64>) {
        self.heap.set_soft_budget(budget);
    }

    /// The registered advisory byte budget, if any.
    pub fn byte_budget(&self) -> Option<u64> {
        self.heap.soft_budget()
    }

    /// Whether current usage exceeds the registered byte budget.
    pub fn over_budget(&self) -> bool {
        self.heap.over_soft_budget()
    }

    /// Live object count.
    pub fn live_objects(&self) -> u64 {
        self.heap.live_objects()
    }

    /// Number of full-heap collections performed.
    pub fn gc_count(&self) -> u64 {
        self.collector.collections()
    }

    /// Per-collection history (the data behind the paper's memory plots).
    pub fn history(&self) -> &[GcRecord] {
        &self.history
    }

    /// `(collections that pruned at least one reference, references
    /// pruned)` over the whole [`history`](Runtime::history), in O(1).
    pub fn prune_totals(&self) -> (u64, u64) {
        (self.prune_events, self.pruned_refs)
    }

    /// Appends `record` to the history and folds it into the prune totals.
    fn push_history(&mut self, record: GcRecord) {
        if record.pruned_refs > 0 {
            self.prune_events += 1;
            self.pruned_refs += record.pruned_refs;
        }
        self.history.push(record);
    }

    /// Collector timing statistics.
    pub fn gc_stats(&self) -> &GcStats {
        self.collector.stats()
    }

    /// The edge table (diagnostics; §6.2's census).
    pub fn edge_table(&self) -> &EdgeTable {
        self.pruner.table()
    }

    /// The deferred out-of-memory error, if pruning has engaged.
    pub fn averted_oom(&self) -> Option<&OutOfMemoryError> {
        self.pruner.averted_oom()
    }

    /// Mutator instrumentation counters.
    pub fn counters(&self) -> &MutatorCounters {
        &self.counters
    }

    /// Registers a callback invoked with the class of each finalizable
    /// object that is reclaimed.
    pub fn set_finalizer_hook(&mut self, hook: Box<dyn FnMut(ClassId) + Send>) {
        self.finalizer_hook = Some(hook);
    }

    /// Per-class census of *stale* bytes: for every class, the total
    /// footprint of its objects whose stale counter is at least
    /// `min_stale`, sorted by bytes descending.
    ///
    /// This is the diagnostic view behind leak pruning's heritage in leak
    /// *detection* (§7): highly stale classes with growing byte counts are
    /// leak suspects whether or not pruning is enabled.
    pub fn stale_census(&self, min_stale: u8) -> Vec<(ClassId, u64)> {
        let mut by_class: std::collections::BTreeMap<ClassId, u64> =
            std::collections::BTreeMap::new();
        for (_, object) in self.heap.iter() {
            if object.stale() >= min_stale {
                *by_class.entry(object.class()).or_insert(0) += u64::from(object.footprint());
            }
        }
        let mut census: Vec<(ClassId, u64)> = by_class.into_iter().collect();
        census.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        census
    }

    /// Runs the heap invariant sanitizer and returns every violation found
    /// (empty means the heap is sound).
    ///
    /// Composes the structural checks of [`lp_heap::Heap::verify`] — tag-bit
    /// legality, slot-index validity, chunk summaries, free-list
    /// disjointness, allocation accounting — with the two invariants only
    /// the pruning runtime can state:
    ///
    /// * **[`edge-bytes`](crate::verify::EDGE_BYTES)** — the edge table's
    ///   `bytes_used` windows are all zero outside a SELECT closure;
    /// * **[`poison-state`](crate::verify::POISON_STATE)** — no stored
    ///   reference is poisoned unless a PRUNE collection has run (the
    ///   deferred out-of-memory error exists).
    ///
    /// Safe to call at any point the mutator could run; unlike the
    /// post-collection hook ([`PruningConfig::verify_period`]) it does not
    /// recompute reachability, which is only meaningful right after a full
    /// collection.
    pub fn verify_heap(&self) -> Vec<lp_heap::Violation> {
        let mut violations = self.heap.verify();
        for entry in self.pruner.table().iter() {
            if entry.bytes_used != 0 {
                violations.push(lp_heap::Violation::new(
                    crate::verify::EDGE_BYTES,
                    format!(
                        "edge {} -> {} carries {} stale bytes outside a SELECT closure",
                        entry.key.src.index(),
                        entry.key.tgt.index(),
                        entry.bytes_used
                    ),
                ));
            }
        }
        if self.pruner.averted_oom().is_none() {
            for (slot, object) in self.heap.iter() {
                for (field, reference) in object.iter_refs() {
                    if reference.is_poisoned() {
                        violations.push(lp_heap::Violation::new(
                            crate::verify::POISON_STATE,
                            format!(
                                "slot {slot} field {field} is poisoned but the \
                                 runtime never entered PRUNE"
                            ),
                        ));
                    }
                }
            }
        }
        violations
    }

    /// Direct heap access for invariant-sanitizer tests that need to plant
    /// corruptions. Never used by the runtime itself.
    #[doc(hidden)]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable variant of [`Runtime::heap`], for corruption hooks that need
    /// `&mut Heap`.
    #[doc(hidden)]
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    // ----- checkpoint / restore --------------------------------------------

    /// Captures a diagnostic heap snapshot *without* collecting — the
    /// checkpoint-side capture. Unlike [`Runtime::capture_snapshot`] this
    /// performs no sweep and consumes no collection index, so a run that
    /// checkpoints is observationally identical to one that never did: only
    /// mark bits move, and those are excluded from images and fingerprints.
    ///
    /// An in-flight incremental cycle is still closed first (the quiescence
    /// rule); with incremental marking disabled this method is entirely
    /// non-perturbing.
    pub fn snapshot_view(&mut self) -> Capture {
        if self.pruner.incremental_active() {
            self.finish_incremental_collection();
        }
        let gc_index = self.collector.collections();
        let pruner_view = self.pruner_view();
        // A fresh mark epoch, then the capture's own transitive closure —
        // the same no-sweep discipline as `capture_postmortem`.
        self.heap.begin_mark_epoch();
        let (capture, _stats) = HeapSnapshot::capture(
            &self.heap,
            &self.roots,
            &self.classes,
            gc_index,
            Some(pruner_view),
        )
        .expect("quiescent: incremental cycle closed above");
        capture
    }

    /// Captures a complete serializable image of the runtime at a quiescent
    /// point — the state side of a checkpoint (see [`crate::recovery`]).
    ///
    /// An in-flight incremental mark cycle is closed first (a full
    /// collection, exactly as on any stop-the-world entry point), so the
    /// image never contains a half-marked cycle and the SATB log is always
    /// drained — the quiescence rule, enforced by construction.
    pub fn image(&mut self) -> crate::recovery::RuntimeImage {
        if self.pruner.incremental_active() {
            self.finish_incremental_collection();
        }
        let state_name = |state: &State| state.name().to_owned();
        crate::recovery::RuntimeImage {
            classes: self
                .classes
                .iter()
                .map(|(_, name)| name.to_owned())
                .collect(),
            heap: self.heap.image(),
            roots: self.roots.image(),
            gc_count: self.collector.collections(),
            counters: self.counters,
            bytes_since_gc: self.bytes_since_gc,
            reads_since_gc: self.reads_since_gc,
            used_at_last_full: self.used_at_last_full,
            incremental_armed: self.incremental_armed,
            pruner: self.pruner.image(),
            history: self
                .history
                .iter()
                .map(|record| crate::recovery::GcRecordImage {
                    gc_index: record.gc_index,
                    state: state_name(&record.state),
                    live_bytes_after: record.live_bytes_after,
                    live_objects_after: record.live_objects_after,
                    freed_bytes: record.freed_bytes,
                    freed_objects: record.freed_objects,
                    pruned_refs: record.pruned_refs,
                    selected: record
                        .selected
                        .as_ref()
                        .map(crate::recovery::SelectionImage::from_info),
                    mark_nanos: record.mark_time.as_nanos() as u64,
                    sweep_nanos: record.sweep_time.as_nanos() as u64,
                    flush_nanos: record.flush_time.map(|d| d.as_nanos() as u64),
                })
                .collect(),
        }
    }

    /// Rebuilds a runtime from an image captured by [`Runtime::image`].
    ///
    /// The configuration is an argument, not part of the image: policy,
    /// thresholds and barrier mode always come from `config`, so a restored
    /// tenant runs under exactly the configuration its host supplies. The
    /// heap is materialized slot by slot (tag bits — poison included — and
    /// generations exact), classes re-registered in order so every raw
    /// class index in the image resolves to the same id, and the pruner's
    /// state machine, edge table and deferred out-of-memory error
    /// reinstated. The restored heap runs the full invariant verifier
    /// before this returns; on success an [`Event::Restore`] goes out on
    /// the new runtime's bus.
    ///
    /// # Errors
    ///
    /// Refuses images with invalid heap state, class indices outside the
    /// image's class list, unknown state names, or verifier violations.
    pub fn restore_from(
        config: PruningConfig,
        image: &crate::recovery::RuntimeImage,
    ) -> Result<Runtime, crate::recovery::RestoreImageError> {
        use crate::recovery::{RestoreImageError, SelectionImage};
        let class_count = u32::try_from(image.classes.len()).unwrap_or(u32::MAX);
        let check_class = |index: u32| {
            if index < class_count {
                Ok(())
            } else {
                Err(RestoreImageError::BadClassIndex(index))
            }
        };
        for slot in &image.heap.slots {
            check_class(slot.class.index())?;
        }
        for &(src, tgt, _) in &image.pruner.edges {
            check_class(src)?;
            check_class(tgt)?;
        }
        for &(src, tgt, _) in &image.pruner.pruned_census {
            check_class(src)?;
            check_class(tgt)?;
        }
        if let Some(SelectionImage::Edge { src, tgt, .. }) = image.pruner.selection {
            check_class(src)?;
            check_class(tgt)?;
        }

        let mut rt = Runtime::new(config);
        // Re-registration in order reproduces every ClassId and reinstalls
        // static liveness verdicts through the normal `note_class` path.
        for name in &image.classes {
            rt.register_class(name);
        }
        let mut heap = Heap::materialize(&image.heap)?;
        heap.set_telemetry(rt.telemetry.clone());
        rt.heap = heap;
        rt.roots = RootSet::from_image(&image.roots);
        rt.collector.restore_collections(image.gc_count);
        rt.pruner
            .restore_image(&image.pruner)
            .map_err(RestoreImageError::BadState)?;
        rt.counters = image.counters;
        // Deltas emitted after restore cover only post-restore activity;
        // the pre-crash trace already carries the rest.
        rt.counters_at_last_emit = image.counters;
        rt.bytes_since_gc = image.bytes_since_gc;
        rt.reads_since_gc = image.reads_since_gc;
        rt.used_at_last_full = image.used_at_last_full;
        rt.incremental_armed = image.incremental_armed;
        // Pushed one by one so the prune totals are rebuilt from the same
        // records the history holds.
        rt.history.reserve(image.history.len());
        for record in &image.history {
            rt.push_history(GcRecord {
                gc_index: record.gc_index,
                state: State::from_name(&record.state)
                    .ok_or_else(|| RestoreImageError::BadState(record.state.clone()))?,
                live_bytes_after: record.live_bytes_after,
                live_objects_after: record.live_objects_after,
                freed_bytes: record.freed_bytes,
                freed_objects: record.freed_objects,
                pruned_refs: record.pruned_refs,
                selected: record.selected.as_ref().map(|s| s.to_info()),
                mark_time: std::time::Duration::from_nanos(record.mark_nanos),
                sweep_time: std::time::Duration::from_nanos(record.sweep_nanos),
                flush_time: record.flush_nanos.map(std::time::Duration::from_nanos),
            });
        }

        // The restore event is a liveness proof: it goes out only once the
        // full invariant sanitizer has passed on the materialized heap.
        let violations = rt.verify_heap();
        if !violations.is_empty() {
            return Err(RestoreImageError::Verify(
                violations.iter().map(|v| v.to_string()).collect(),
            ));
        }
        let (gc_index, objects, bytes) = (image.gc_count, rt.live_objects(), rt.used_bytes());
        rt.telemetry.emit(|| Event::Restore {
            gc_index,
            objects,
            bytes,
        });
        Ok(rt)
    }

    /// A 64-bit fingerprint of the runtime's replay-relevant state: heap
    /// graph with tag bits and generations, free/young/remembered order,
    /// roots, class registry, collection count and pruner state. Wall-clock
    /// timings and telemetry are excluded, so a checkpointed-and-restored
    /// runtime fingerprints identically to one that never stopped (see
    /// [`crate::recovery::fingerprint_image`]).
    ///
    /// Closes any in-flight incremental cycle (the fingerprint is defined
    /// only at quiescent points, like the image it hashes).
    pub fn fingerprint(&mut self) -> u64 {
        crate::recovery::fingerprint_image(&self.image())
    }

    /// Builds the end-of-run report (§3.2's optional diagnostics).
    pub fn prune_report(&self) -> PruneReport {
        let mut pruned_edges: Vec<PrunedEdge> = self
            .pruner
            .pruned_census()
            .iter()
            .map(|(edge, refs)| PrunedEdge {
                src: self.classes.name(edge.src).to_owned(),
                tgt: self.classes.name(edge.tgt).to_owned(),
                refs: *refs,
            })
            .collect();
        // The census accumulates in an unordered hash map; sorting here —
        // refs descending, then class names — keeps the report deterministic.
        pruned_edges.sort_by(|a, b| {
            b.refs
                .cmp(&a.refs)
                .then_with(|| a.src.cmp(&b.src))
                .then_with(|| a.tgt.cmp(&b.tgt))
        });
        PruneReport {
            averted_oom: self.pruner.averted_oom().cloned(),
            pruned_edges,
            total_pruned_refs: self.pruner.total_pruned_refs(),
            edge_types_recorded: self.pruner.table().len(),
            edge_table_footprint: self.pruner.table().footprint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ForcedState, PredictionPolicy};

    const KB: u64 = 1024;

    /// A linked-list leak: every iteration pushes a node (kept forever via
    /// a static) and allocates transient scratch. Returns the runtime and
    /// the number of iterations completed before `limit`.
    fn run_list_leak(config: PruningConfig, limit: u64) -> (Runtime, u64, Option<RuntimeError>) {
        let mut rt = Runtime::new(config);
        let node = rt.register_class("Node");
        let scratch = rt.register_class("Scratch");
        let head = rt.add_static();
        for i in 0..limit {
            let unit = rt.alloc(node, &AllocSpec::new(1, 0, 512)).and_then(|n| {
                rt.write_field(n, 0, rt.static_ref(head));
                rt.set_static(head, Some(n));
                rt.alloc(scratch, &AllocSpec::leaf(2048))
            });
            if let Err(e) = unit {
                return (rt, i, Some(e));
            }
        }
        (rt, limit, None)
    }

    #[test]
    fn base_runs_out_of_memory() {
        let (rt, iters, err) = run_list_leak(PruningConfig::base(256 * KB), 10_000);
        assert!(err.expect("base must die").is_out_of_memory());
        assert!(iters < 1000);
        assert_eq!(rt.state(), State::Inactive);
    }

    #[test]
    fn pruning_runs_list_leak_indefinitely() {
        let (rt, iters, err) = run_list_leak(PruningConfig::builder(256 * KB).build(), 5_000);
        assert!(
            err.is_none(),
            "leak pruning should keep the program alive: {err:?}"
        );
        assert_eq!(iters, 5_000);
        let report = rt.prune_report();
        assert!(report.total_pruned_refs > 0);
        assert!(report.averted_oom.is_some());
        // The pruned reference type is Node -> Node.
        assert_eq!(report.pruned_edges[0].src, "Node");
        assert_eq!(report.pruned_edges[0].tgt, "Node");
    }

    #[test]
    fn reclaim_to_escalates_to_pruning_and_reaches_target() {
        // Build a list leak that plain collection cannot shrink: every node
        // stays reachable from the static head, so only pruning can get
        // used bytes under the target.
        let (mut rt, iters, err) = run_list_leak(PruningConfig::builder(256 * KB).build(), 300);
        assert!(err.is_none());
        assert_eq!(iters, 300);
        // Registers still root the most recent allocations; an idle tenant
        // would have released them at the end of its last request.
        rt.release_registers();
        let target = 64 * KB;
        let after = rt.reclaim_to(target);
        assert!(
            after <= target,
            "reclaim_to left {after} bytes, target {target}"
        );
        assert!(rt.prune_report().total_pruned_refs > 0);
        // Already under target: a no-op that runs no collection.
        let gcs = rt.gc_count();
        assert_eq!(rt.reclaim_to(target), after);
        assert_eq!(rt.gc_count(), gcs);
    }

    #[test]
    fn reclaim_to_without_pruning_stops_at_live_data() {
        let (mut rt, _, err) = run_list_leak(PruningConfig::base(1024 * KB), 500);
        assert!(err.is_none());
        let before = rt.used_bytes();
        // Everything reachable, pruning disabled: the call must terminate
        // and report the (unchanged modulo transients) usage.
        let after = rt.reclaim_to(1);
        assert!(after > 1, "live data cannot be collected away");
        assert!(after <= before);
    }

    #[test]
    fn byte_budget_is_advisory() {
        let mut rt = Runtime::new(PruningConfig::base(256 * KB));
        assert_eq!(rt.byte_budget(), None);
        assert!(!rt.over_budget());
        rt.set_byte_budget(Some(KB));
        let cls = rt.register_class("T");
        let root = rt.add_static();
        let h = rt.alloc(cls, &AllocSpec::leaf(4096)).unwrap();
        rt.set_static(root, Some(h));
        assert!(rt.over_budget(), "4 KiB used against a 1 KiB budget");
        assert_eq!(rt.byte_budget(), Some(KB));
    }

    #[test]
    fn pruning_beats_base_on_iterations() {
        let (_, base_iters, _) = run_list_leak(PruningConfig::base(256 * KB), 10_000);
        let (_, prune_iters, _) = run_list_leak(PruningConfig::builder(256 * KB).build(), 10_000);
        assert!(
            prune_iters > 10 * base_iters,
            "pruning {prune_iters} vs base {base_iters}"
        );
    }

    #[test]
    fn accessing_pruned_reference_raises_internal_error_with_cause() {
        let mut rt = Runtime::new(PruningConfig::builder(128 * KB).build());
        let holder = rt.register_class("Holder");
        let blob = rt.register_class("Blob");
        let scratch = rt.register_class("Scratch");

        // A permanently reachable holder whose blob the program stops
        // using. The blob fills >90% of the heap, so collections leave the
        // heap nearly full and the state machine escalates to PRUNE.
        let root = rt.add_static();
        let h = rt.alloc(holder, &AllocSpec::with_refs(1)).unwrap();
        rt.set_static(root, Some(h));
        let b = rt.alloc(blob, &AllocSpec::leaf(116 * 1024)).unwrap();
        rt.write_field(h, 0, Some(b));

        // Fill the heap with transient garbage until pruning reclaims the
        // blob.
        let mut pruned = false;
        for _ in 0..10_000 {
            rt.alloc(scratch, &AllocSpec::leaf(4096)).expect("scratch");
            rt.release_registers(); // the unit of work returns
            if rt.prune_report().total_pruned_refs > 0 {
                pruned = true;
                break;
            }
        }
        assert!(pruned, "the blob should eventually be pruned");

        let err = rt.read_field(h, 0).expect_err("poisoned access");
        match err {
            RuntimeError::PrunedAccess(e) => {
                let class = e.source_class().expect("holder object still live");
                assert_eq!(rt.class_name(class), "Holder");
                assert_eq!(e.cause().capacity(), 128 * KB);
            }
            other => panic!("expected pruned access, got {other:?}"),
        }
    }

    #[test]
    fn used_references_are_not_pruned() {
        // Same shape as above, but the program reads holder->blob every
        // iteration; the blob must survive.
        let mut rt = Runtime::new(PruningConfig::builder(128 * KB).build());
        let holder = rt.register_class("Holder");
        let blob = rt.register_class("Blob");
        let scratch = rt.register_class("Scratch");

        let root = rt.add_static();
        let h = rt.alloc(holder, &AllocSpec::with_refs(1)).unwrap();
        rt.set_static(root, Some(h));
        // Same pressure as the pruned-blob test: the heap stays nearly
        // full, so SELECT/PRUNE collections run constantly — but the
        // in-use reference must never be chosen.
        let b = rt.alloc(blob, &AllocSpec::leaf(116 * 1024)).unwrap();
        rt.write_field(h, 0, Some(b));

        for _ in 0..2000 {
            rt.alloc(scratch, &AllocSpec::leaf(4096)).expect("scratch");
            rt.release_registers();
            let got = rt.read_field(h, 0).expect("blob is never pruned");
            assert_eq!(got, Some(b));
        }
    }

    #[test]
    fn image_restore_is_exact_after_pruning() {
        // Run the list leak until references are poisoned, then image and
        // restore: the heap graph (poison bits included), pruner state and
        // fingerprint must survive exactly, and the restored runtime must
        // pass the full invariant sanitizer.
        let config = PruningConfig::builder(256 * KB).build();
        let (mut rt, _, err) = run_list_leak(config.clone(), 2000);
        assert!(err.is_none());
        assert!(rt.prune_report().total_pruned_refs > 0);

        let image = rt.image();
        let fingerprint = rt.fingerprint();
        let mut restored = Runtime::restore_from(config, &image).expect("image restores");
        assert!(restored.verify_heap().is_empty());
        assert_eq!(restored.fingerprint(), fingerprint);
        assert_eq!(restored.image(), image, "image round-trips exactly");
        assert_eq!(restored.gc_count(), rt.gc_count());
        assert_eq!(restored.used_bytes(), rt.used_bytes());
        assert_eq!(restored.state(), rt.state());
        assert_eq!(restored.history().len(), rt.history().len());
        // The running totals are the history walk they replaced, on the
        // runtime that collected and on the one rebuilt from its image.
        let walked = rt
            .history()
            .iter()
            .filter(|record| record.pruned_refs > 0)
            .fold((0, 0), |(events, refs), record| {
                (events + 1, refs + record.pruned_refs)
            });
        assert!(walked.0 > 0);
        assert_eq!(rt.prune_totals(), walked);
        assert_eq!(restored.prune_totals(), walked);
        assert_eq!(
            restored.averted_oom().map(|e| e.gc_index()),
            rt.averted_oom().map(|e| e.gc_index())
        );
        assert_eq!(
            restored.prune_report().pruned_edges,
            rt.prune_report().pruned_edges
        );
    }

    #[test]
    fn restored_runtime_replays_identically() {
        // Deterministic replay: continuing the original and the restored
        // runtime through the same request suffix must keep their
        // fingerprints in lock step — allocation order, collection points
        // and pruning decisions all included.
        let config = PruningConfig::builder(256 * KB).build();
        let (mut original, _, err) = run_list_leak(config.clone(), 1500);
        assert!(err.is_none());

        let image = original.image();
        let mut restored = Runtime::restore_from(config, &image).expect("image restores");
        // Class ids were re-registered in order; resolve by name.
        let node = restored.classes().lookup("Node").unwrap();
        let scratch = restored.classes().lookup("Scratch").unwrap();
        // The list head is static slot 0 in `run_list_leak`; slot numbering
        // survives restore, so the reattach hook re-derives it.
        let head = restored.static_id(0).expect("static slot 0 restored");

        for _ in 0..500 {
            for rt in [&mut original, &mut restored] {
                let n = rt.alloc(node, &AllocSpec::new(1, 0, 512)).unwrap();
                rt.write_field(n, 0, rt.static_ref(head));
                rt.set_static(head, Some(n));
                rt.alloc(scratch, &AllocSpec::leaf(2048)).unwrap();
            }
        }
        assert_eq!(original.gc_count(), restored.gc_count());
        assert_eq!(original.fingerprint(), restored.fingerprint());
        assert!(restored.verify_heap().is_empty());
    }

    #[test]
    fn restore_refuses_bad_class_indices_and_states() {
        let config = PruningConfig::builder(256 * KB).build();
        let (mut rt, _, _) = run_list_leak(config.clone(), 200);
        let image = rt.image();

        let mut bad_edge = image.clone();
        bad_edge.pruner.edges.push((99, 0, 3));
        assert_eq!(
            Runtime::restore_from(config.clone(), &bad_edge).err(),
            Some(crate::recovery::RestoreImageError::BadClassIndex(99))
        );

        let mut bad_state = image.clone();
        bad_state.pruner.state = "LIMBO".to_owned();
        assert_eq!(
            Runtime::restore_from(config, &bad_state).err(),
            Some(crate::recovery::RestoreImageError::BadState(
                "LIMBO".to_owned()
            ))
        );
    }

    #[test]
    fn capture_snapshot_survives_poisoned_references() {
        // Run the list leak until pruning has poisoned references, then
        // snapshot: the capture must skip poisoned edges rather than
        // tracing through them, and still record the surviving list.
        let (mut rt, _, err) = run_list_leak(PruningConfig::builder(256 * KB).build(), 3000);
        assert!(err.is_none());
        assert!(rt.prune_report().total_pruned_refs > 0);

        let capture = rt.capture_snapshot();
        let snapshot = &capture.snapshot;
        assert!(snapshot.object_count() > 0);
        assert_eq!(snapshot.live_bytes(), rt.used_bytes());
        assert!(snapshot.classes.iter().any(|c| c == "Node"));
        // The snapshot collection is numbered like any other.
        assert_eq!(snapshot.gc_index, rt.gc_count());
        // And it round-trips through the file format.
        let parsed = lp_diagnose::HeapSnapshot::parse(&snapshot.to_jsonl()).unwrap();
        assert_eq!(parsed.object_count(), snapshot.object_count());
    }

    #[test]
    fn capture_snapshot_emits_paired_events() {
        let mut rt = Runtime::new(PruningConfig::builder(256 * KB).flight_recorder(64).build());
        let node = rt.register_class("Node");
        let root = rt.add_static();
        let n = rt.alloc(node, &AllocSpec::leaf(64)).unwrap();
        rt.set_static(root, Some(n));

        let capture = rt.capture_snapshot();
        assert_eq!(capture.snapshot.object_count(), 1);

        let lines = rt.telemetry().recorder_snapshot();
        let begin = lines
            .iter()
            .find_map(|l| match l.event {
                Event::SnapshotBegin { gc_index } => Some(gc_index),
                _ => None,
            })
            .expect("snapshot_begin emitted");
        let (end_gc, objects, nanos) = lines
            .iter()
            .find_map(|l| match l.event {
                Event::SnapshotEnd {
                    gc_index,
                    objects,
                    nanos,
                    ..
                } => Some((gc_index, objects, nanos)),
                _ => None,
            })
            .expect("snapshot_end emitted");
        assert_eq!(begin, end_gc);
        assert_eq!(objects, 1);
        assert!(nanos > 0);
        assert_eq!(
            nanos,
            capture.trace_nanos + capture.record_nanos,
            "pause cost in the event matches the capture"
        );
    }

    #[test]
    fn exhaustion_writes_snapshot_once() {
        let dir =
            std::env::temp_dir().join(format!("lp-exhaustion-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exhausted.jsonl");
        let _ = std::fs::remove_file(&path);

        // Base config (no pruning) exhausts quickly and deterministically.
        let config = PruningConfig::builder(64 * KB)
            .pruning(false)
            .snapshot_on_exhaustion(&path)
            .build();
        let (_rt, _, err) = run_list_leak(config, 10_000);
        assert!(err.expect("base config must exhaust").is_out_of_memory());

        let text = std::fs::read_to_string(&path).expect("snapshot written");
        let snapshot = lp_diagnose::HeapSnapshot::parse(&text).unwrap();
        assert!(snapshot.object_count() > 0);
        assert!(snapshot.classes.iter().any(|c| c == "Node"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn postmortem_snapshot_records_poisoned_edges_and_every_slot() {
        let (mut rt, _, err) = run_list_leak(PruningConfig::builder(256 * KB).build(), 3000);
        assert!(err.is_none());
        assert!(rt.prune_report().total_pruned_refs > 0);
        rt.release_registers();

        let bundle = rt.capture_postmortem("manual");
        let snapshot = &bundle.snapshot;
        // The delta v1 could not show: poisoned Node -> Node references
        // survive in the capture instead of disappearing behind the
        // tracer's "skip poisoned" rule.
        assert!(snapshot.poisoned_edge_count() > 0);
        // Every occupied slot lands in exactly one reachability bucket
        // and the totals match the heap's own accounting.
        assert_eq!(snapshot.used, Some(rt.used_bytes()));
        assert_eq!(
            snapshot.live_bytes() + snapshot.dead_reachable_bytes() + snapshot.floating_bytes(),
            rt.used_bytes()
        );
        // The pruner header names the pruned edge and the averted OOM.
        let pruner = snapshot.pruner.as_ref().expect("pruner state recorded");
        assert!(pruner.averted_oom);
        assert!(!pruner.pruned_edges.is_empty());
        let top = &pruner.pruned_edges[0];
        assert_eq!(snapshot.class_name(top.src), "Node");
        assert_eq!(snapshot.class_name(top.tgt), "Node");
        // And the whole bundle round-trips through the file format.
        let parsed = PostmortemBundle::parse(&bundle.to_jsonl()).expect("bundle parses");
        parsed.check().expect("bundle is internally consistent");
        assert_eq!(parsed.trigger, "manual");
        assert_eq!(
            parsed.snapshot.poisoned_edge_count(),
            snapshot.poisoned_edge_count()
        );
    }

    #[test]
    fn postmortem_captures_dead_but_reachable_objects() {
        let mut rt = Runtime::new(PruningConfig::builder(128 * KB).build());
        let holder = rt.register_class("Holder");
        let blob = rt.register_class("Blob");
        let scratch = rt.register_class("Scratch");

        // Two holders with stale blobs. The first blob supplies the stale
        // bytes that make SELECT choose Holder -> Blob; the second blob
        // is *also* pinned by a static, so PRUNE poisons its reference
        // (the whole edge type is pruned) while the sweep cannot reclaim
        // the object itself.
        let root1 = rt.add_static();
        let h1 = rt.alloc(holder, &AllocSpec::with_refs(1)).unwrap();
        rt.set_static(root1, Some(h1));
        let b1 = rt.alloc(blob, &AllocSpec::leaf(100 * 1024)).unwrap();
        rt.write_field(h1, 0, Some(b1));

        let root2 = rt.add_static();
        let h2 = rt.alloc(holder, &AllocSpec::with_refs(1)).unwrap();
        rt.set_static(root2, Some(h2));
        let b2 = rt.alloc(blob, &AllocSpec::leaf(16 * 1024)).unwrap();
        rt.write_field(h2, 0, Some(b2));
        let pin = rt.add_static();
        rt.set_static(pin, Some(b2));

        let mut pruned = false;
        for _ in 0..10_000 {
            rt.alloc(scratch, &AllocSpec::leaf(4096)).expect("scratch");
            rt.release_registers();
            if rt.prune_report().total_pruned_refs > 0 {
                pruned = true;
                break;
            }
        }
        assert!(pruned, "the Holder -> Blob edge should be pruned");
        // Both references of the edge type were poisoned in the same
        // PRUNE; the pinned blob survived its sweep.
        assert!(rt.read_field(h2, 0).is_err(), "h2's reference is poisoned");

        // Drop the pin: the blob is now dead but reachable — only the
        // poisoned reference still leads to it, and only until the next
        // sweep erases it. The non-destructive capture makes it visible.
        rt.set_static(pin, None);
        let bundle = rt.capture_postmortem("manual");
        let snapshot = &bundle.snapshot;
        assert!(
            snapshot.dead_reachable_bytes() >= 16 * KB,
            "expected the 16 KiB blob behind the poisoned edge, got {}",
            snapshot.dead_reachable_bytes()
        );
        assert!(snapshot.objects.iter().any(|o| {
            o.reach == lp_diagnose::Reachability::DeadReachable
                && snapshot.class_name(o.class) == "Blob"
                && u64::from(o.bytes) >= 16 * KB
        }));
        assert_eq!(
            snapshot.live_bytes() + snapshot.dead_reachable_bytes() + snapshot.floating_bytes(),
            rt.used_bytes()
        );
    }

    #[test]
    fn exhaustion_writes_rate_limited_postmortem_bundle() {
        let dir = std::env::temp_dir().join(format!("lp-postmortem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Base config (no pruning) exhausts quickly and deterministically.
        let config = PruningConfig::builder(64 * KB)
            .pruning(false)
            .flight_recorder(32)
            .postmortem_on(&dir)
            .build();
        let (mut rt, _, err) = run_list_leak(config, 10_000);
        assert!(err.expect("base config must exhaust").is_out_of_memory());

        let exhaustion_bundles = |dir: &std::path::Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .expect("postmortem dir created")
                .map(|e| {
                    e.expect("dir entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .filter(|n| n.contains("exhaustion"))
                .collect();
            names.sort();
            names
        };
        assert_eq!(
            exhaustion_bundles(&dir).len(),
            1,
            "exactly one automatic exhaustion bundle"
        );
        assert!(dir.join("postmortem-latest.jsonl").exists());

        // A second exhaustion right after the first is inside the
        // rate-limit window: no new bundle.
        let more = rt.register_class("More");
        assert!(rt.alloc(more, &AllocSpec::leaf(4096)).is_err());
        assert_eq!(exhaustion_bundles(&dir).len(), 1);

        // The manual path bypasses the rate limit and stamps its trigger.
        let manual = rt
            .write_postmortem("operator")
            .expect("manual bundle written");
        assert!(manual.exists());
        let text = std::fs::read_to_string(dir.join("postmortem-latest.jsonl")).unwrap();
        let bundle = PostmortemBundle::parse(&text).expect("bundle parses");
        bundle.check().expect("bundle is internally consistent");
        assert_eq!(bundle.trigger, "operator");
        assert!(bundle.snapshot.object_count() > 0);
        // The tiny recorder evicted events during the run; the bundle
        // says so instead of pretending the tail is complete.
        assert!(bundle.recorder_dropped > 0);
        assert!(bundle.recorder_dropped <= rt.telemetry().recorder_dropped());
        assert!(bundle.events.len() <= 32);
        // Each successful write leaves a marker event in the recorder.
        let written = rt
            .telemetry()
            .recorder_snapshot()
            .iter()
            .filter(|l| matches!(l.event, Event::PostmortemWritten { .. }))
            .count();
        assert!(written >= 1, "postmortem_written event recorded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_machine_progresses_through_observe() {
        let (rt, _, _) = run_list_leak(PruningConfig::builder(512 * KB).build(), 2000);
        let states: Vec<State> = rt.history().iter().map(|r| r.state).collect();
        assert!(states.contains(&State::Inactive));
        assert!(states.contains(&State::Observe));
        assert!(states.contains(&State::Select));
        assert!(states.contains(&State::Prune));
        // INACTIVE never recurs after OBSERVE.
        let first_observe = states.iter().position(|s| *s == State::Observe).unwrap();
        assert!(states[first_observe..]
            .iter()
            .all(|s| *s != State::Inactive));
    }

    #[test]
    fn option_one_waits_for_exhaustion() {
        let (rt, iters, err) = run_list_leak(
            PruningConfig::builder(256 * KB)
                .prune_only_when_full(true)
                .build(),
            3000,
        );
        assert!(
            err.is_none(),
            "option (1) still tolerates the leak: {err:?}"
        );
        assert_eq!(iters, 3000);
        // The first PRUNE happened only after a true exhaustion, i.e. some
        // SELECT collection was followed by another SELECT.
        let states: Vec<State> = rt.history().iter().map(|r| r.state).collect();
        let first_prune = states.iter().position(|s| *s == State::Prune).unwrap();
        let selects_before = states[..first_prune]
            .iter()
            .filter(|s| **s == State::Select)
            .count();
        assert!(selects_before >= 1);
    }

    #[test]
    fn finalizers_run_for_dead_objects_and_hook_fires() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let mut rt = Runtime::new(PruningConfig::builder(64 * KB).build());
        let res = rt.register_class("Resource");
        let count = Arc::new(AtomicU64::new(0));
        let hook_count = Arc::clone(&count);
        rt.set_finalizer_hook(Box::new(move |_| {
            hook_count.fetch_add(1, Ordering::Relaxed);
        }));

        for _ in 0..200 {
            rt.alloc_finalizable(res, &AllocSpec::leaf(1024)).unwrap();
            rt.release_registers();
        }
        rt.force_gc();
        assert!(rt.counters().finalizers_run > 0);
        assert_eq!(count.load(Ordering::Relaxed), rt.counters().finalizers_run);
    }

    #[test]
    fn barrier_counters_track_cold_path() {
        let mut rt = Runtime::new(
            PruningConfig::builder(1024 * KB)
                .force_state(ForcedState::Observe)
                .build(),
        );
        let pair = rt.register_class("Pair");
        let root = rt.add_static();
        let a = rt.alloc(pair, &AllocSpec::with_refs(1)).unwrap();
        let b = rt.alloc(pair, &AllocSpec::default()).unwrap();
        rt.set_static(root, Some(a));
        rt.write_field(a, 0, Some(b));

        // Freshly written reference: fast path.
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().barrier_cold_hits, 0);

        // A collection sets the unlogged bit; the next read is cold, the
        // one after that fast again.
        rt.force_gc();
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().barrier_cold_hits, 1);
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().barrier_cold_hits, 1);
        assert_eq!(rt.counters().ref_reads, 3);
    }

    #[test]
    fn barrier_mode_none_skips_all_bookkeeping() {
        let mut rt = Runtime::new(PruningConfig::base(1024 * KB));
        let pair = rt.register_class("Pair");
        let root = rt.add_static();
        let a = rt.alloc(pair, &AllocSpec::with_refs(1)).unwrap();
        rt.set_static(root, Some(a));
        rt.write_field(a, 0, Some(a));
        rt.force_gc();
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().barrier_cold_hits, 0);
    }

    #[test]
    fn most_stale_policy_prunes_live_but_stale_data() {
        // A structure the program uses only rarely: MostStale reclaims it
        // (and the program later dies), the default policy's maxstaleuse
        // protects it.
        fn run(policy: PredictionPolicy) -> Option<RuntimeError> {
            let mut rt = Runtime::new(PruningConfig::builder(128 * KB).policy(policy).build());
            let holder = rt.register_class("Cache");
            let val = rt.register_class("Value");
            let node = rt.register_class("Node");
            let scratch = rt.register_class("Scratch");

            let root = rt.add_static();
            let h = rt.alloc(holder, &AllocSpec::with_refs(1)).unwrap();
            rt.set_static(root, Some(h));
            let v = rt.alloc(val, &AllocSpec::leaf(256)).unwrap();
            rt.write_field(h, 0, Some(v));

            // A genuine leak to exercise pruning, plus a rare (every 64
            // iterations) use of the cache.
            let head = rt.add_static();
            for i in 0..4000u64 {
                let unit = rt.alloc(node, &AllocSpec::new(1, 0, 512)).and_then(|n| {
                    rt.write_field(n, 0, rt.static_ref(head));
                    rt.set_static(head, Some(n));
                    rt.alloc(scratch, &AllocSpec::leaf(2048))
                });
                if let Err(e) = unit {
                    return Some(e);
                }
                if i % 64 == 0 {
                    if let Err(e) = rt.read_field(h, 0) {
                        return Some(e);
                    }
                }
            }
            None
        }

        let default_err = run(PredictionPolicy::LeakPruning);
        assert!(default_err.is_none(), "default survives: {default_err:?}");
        let most_stale_err = run(PredictionPolicy::MostStale);
        assert!(
            matches!(most_stale_err, Some(RuntimeError::PrunedAccess(_))),
            "most-stale should eventually prune the rarely-used cache: {most_stale_err:?}"
        );
    }

    #[test]
    fn debug_format_is_nonempty() {
        let rt = Runtime::new(PruningConfig::builder(KB).build());
        assert!(format!("{rt:?}").contains("Runtime"));
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;
    use crate::config::ForcedState;

    fn observing_runtime() -> (Runtime, Handle, Handle) {
        let mut rt = Runtime::new(
            PruningConfig::builder(1 << 20)
                .force_state(ForcedState::Observe)
                .build(),
        );
        let cls = rt.register_class("T");
        let root = rt.add_static();
        let a = rt.alloc(cls, &AllocSpec::with_refs(2)).unwrap();
        let b = rt.alloc(cls, &AllocSpec::default()).unwrap();
        rt.set_static(root, Some(a));
        rt.write_field(a, 0, Some(b));
        (rt, a, b)
    }

    #[test]
    fn null_reads_stay_on_fast_path() {
        let (mut rt, a, _) = observing_runtime();
        rt.force_gc();
        // Field 1 is null: a null reference never carries tag bits.
        assert_eq!(rt.read_field(a, 1).unwrap(), None);
        assert_eq!(rt.counters().barrier_cold_hits, 0);
    }

    #[test]
    fn barrier_clears_target_staleness() {
        let (mut rt, a, b) = observing_runtime();
        for _ in 0..8 {
            rt.force_gc(); // b ages
        }
        assert!(rt.stale_of(b) >= 2);
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.stale_of(b), 0, "use zeroes the stale counter");
    }

    #[test]
    fn max_stale_use_updated_only_for_stale_targets() {
        let (mut rt, a, _) = observing_runtime();
        // One collection: staleness 1 — "not very stale", no edge update.
        rt.force_gc();
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().stale_use_updates, 0);
        assert_eq!(rt.edge_table().len(), 0);

        // Several collections: staleness >= 2 — update recorded.
        for _ in 0..4 {
            rt.force_gc();
        }
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().stale_use_updates, 1);
        assert_eq!(rt.edge_table().len(), 1);
    }

    /// §4.1 boundary: staleness 0 (the target was just used through another
    /// reference) must not update `max_stale_use`.
    #[test]
    fn stale_zero_never_updates_edge_table() {
        let (mut rt, a, b) = observing_runtime();
        rt.write_field(a, 1, Some(b)); // second path to the same target
        rt.force_gc(); // tags both fields; b's staleness is now 1
        rt.read_field(a, 0).unwrap(); // clears b's staleness to 0
        assert_eq!(rt.stale_of(b), 0);
        // Cold-path read through the still-tagged second field: stale = 0.
        let cold_before = rt.counters().barrier_cold_hits;
        rt.read_field(a, 1).unwrap();
        assert_eq!(rt.counters().barrier_cold_hits, cold_before + 1);
        assert_eq!(rt.counters().stale_use_updates, 0);
        assert_eq!(rt.edge_table().len(), 0);
    }

    /// §4.1 boundary: staleness exactly 1 — "a value of 1 is not very
    /// stale" — must not update the edge table.
    #[test]
    fn stale_one_never_updates_edge_table() {
        let (mut rt, a, b) = observing_runtime();
        rt.force_gc();
        assert_eq!(rt.stale_of(b), 1);
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().stale_use_updates, 0);
        assert_eq!(rt.edge_table().len(), 0);
    }

    /// §4.1 boundary: staleness exactly 2 is the first level that records a
    /// stale use, and the recorded `max_stale_use` is exactly 2.
    #[test]
    fn stale_two_records_exactly_one_update() {
        let (mut rt, a, b) = observing_runtime();
        rt.force_gc();
        rt.force_gc();
        assert_eq!(rt.stale_of(b), 2);
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().stale_use_updates, 1);
        let entries: Vec<_> = rt.edge_table().iter().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].max_stale_use, 2);
    }

    /// In INACTIVE the pruner is not observing: stale uses tick nothing and
    /// the edge table stays empty, no matter how stale the target is.
    #[test]
    fn inactive_state_records_no_stale_uses() {
        // Large heap, no forced state: occupancy stays far below the
        // expected-use threshold, so the machine stays INACTIVE.
        let mut rt = Runtime::new(PruningConfig::builder(1 << 24).build());
        let cls = rt.register_class("T");
        let root = rt.add_static();
        let a = rt.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = rt.alloc(cls, &AllocSpec::default()).unwrap();
        rt.set_static(root, Some(a));
        rt.write_field(a, 0, Some(b));
        for _ in 0..6 {
            rt.force_gc();
        }
        assert_eq!(rt.state(), crate::State::Inactive);
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().stale_use_updates, 0);
        assert_eq!(rt.edge_table().len(), 0);
    }

    #[test]
    fn overwriting_a_field_resets_its_logging_state() {
        let (mut rt, a, b) = observing_runtime();
        rt.force_gc();
        // The program overwrites the field: the new reference starts with
        // clear bits, so the next read is a fast-path read.
        rt.write_field(a, 0, Some(b));
        rt.read_field(a, 0).unwrap();
        assert_eq!(rt.counters().barrier_cold_hits, 0);
    }

    #[test]
    fn stale_census_ranks_classes_by_stale_bytes() {
        let mut rt = Runtime::new(
            PruningConfig::builder(1 << 20)
                .force_state(ForcedState::Observe)
                .build(),
        );
        let big = rt.register_class("BigStale");
        let small = rt.register_class("SmallStale");
        let root = rt.add_static();
        let holder_cls = rt.register_class("Holder");
        let holder = rt.alloc(holder_cls, &AllocSpec::with_refs(2)).unwrap();
        rt.set_static(root, Some(holder));
        let b = rt.alloc(big, &AllocSpec::leaf(10_000)).unwrap();
        let s = rt.alloc(small, &AllocSpec::leaf(100)).unwrap();
        rt.write_field(holder, 0, Some(b));
        rt.write_field(holder, 1, Some(s));
        for _ in 0..8 {
            rt.force_gc();
        }
        let census = rt.stale_census(2);
        assert!(census.len() >= 2);
        assert_eq!(rt.class_name(census[0].0), "BigStale");
        assert!(census[0].1 > census[1].1);
        // A tighter threshold excludes everything fresh.
        assert!(rt.stale_census(u8::MAX).is_empty() || rt.stale_census(7).len() <= census.len());
    }

    #[test]
    fn finalizers_skippable_after_pruning_starts() {
        let mut rt = Runtime::new(
            PruningConfig::builder(128 * 1024)
                .run_finalizers_after_prune(false)
                .build(),
        );
        let node = rt.register_class("Node");
        let res = rt.register_class("Resource");
        let head = rt.add_static();
        // Leak until pruning starts, with finalizable transients.
        for _ in 0..4000 {
            let n = rt.alloc(node, &AllocSpec::new(1, 0, 256)).unwrap();
            rt.write_field(n, 0, rt.static_ref(head));
            rt.set_static(head, Some(n));
            rt.alloc_finalizable(res, &AllocSpec::leaf(1024)).unwrap();
            rt.release_registers();
            if rt.averted_oom().is_some() {
                break;
            }
        }
        assert!(rt.averted_oom().is_some(), "pruning engaged");
        let skipped_at_prune = rt.counters().finalizers_skipped;
        // Keep going: finalizers must now be skipped, not run.
        let ran_before = rt.counters().finalizers_run;
        for _ in 0..500 {
            rt.alloc_finalizable(res, &AllocSpec::leaf(1024)).unwrap();
            rt.release_registers();
        }
        assert!(rt.counters().finalizers_skipped > skipped_at_prune);
        assert_eq!(rt.counters().finalizers_run, ran_before);
    }

    #[test]
    fn frames_participate_in_rooting() {
        let mut rt = Runtime::new(PruningConfig::builder(1 << 20).build());
        let cls = rt.register_class("T");
        let f = rt.push_frame(2);
        let a = rt.alloc(cls, &AllocSpec::leaf(64)).unwrap();
        rt.set_frame_ref(f, 0, Some(a));
        rt.release_registers();
        rt.force_gc();
        assert!(rt.is_live(a), "frame keeps the object alive");
        assert_eq!(rt.frame_ref(f, 0), Some(a));

        rt.pop_frame(f);
        rt.force_gc();
        assert!(!rt.is_live(a), "popping the frame drops the root");
    }

    #[test]
    fn scalar_words_roundtrip_through_runtime() {
        let mut rt = Runtime::new(PruningConfig::builder(1 << 20).build());
        let cls = rt.register_class("T");
        let h = rt.alloc(cls, &AllocSpec::new(0, 2, 0)).unwrap();
        rt.write_word(h, 1, 0xfeed);
        assert_eq!(rt.read_word(h, 1), 0xfeed);
        assert_eq!(rt.read_word(h, 0), 0);
    }
}

#[cfg(test)]
mod generational_tests {
    use super::*;

    /// A transient-heavy program: with a nursery, almost all collection
    /// work happens in cheap minor collections.
    #[test]
    fn nursery_absorbs_transient_garbage() {
        let mut rt = Runtime::new(
            PruningConfig::builder(1 << 20)
                .nursery_fraction(0.25)
                .build(),
        );
        let cls = rt.register_class("Transient");
        for _ in 0..4000 {
            rt.alloc(cls, &AllocSpec::leaf(512)).unwrap();
            rt.release_registers();
        }
        assert!(rt.counters().minor_collections > 0, "minor GCs ran");
        assert_eq!(rt.gc_count(), 0, "no full collection was ever needed");
    }

    /// Long-lived data survives minor collections via the remembered set
    /// and stays readable.
    #[test]
    fn remembered_set_preserves_old_to_young_stores() {
        let mut rt = Runtime::new(
            PruningConfig::builder(1 << 20)
                .nursery_fraction(0.2)
                .build(),
        );
        let cls = rt.register_class("Holder");
        let root = rt.add_static();
        let holder = rt.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        rt.set_static(root, Some(holder));
        rt.force_gc(); // promote the holder

        // Repeatedly store fresh young values into the old holder while
        // churning transients through the nursery.
        for i in 0..2000u64 {
            let value = rt.alloc(cls, &AllocSpec::new(0, 1, 64)).unwrap();
            rt.write_word(value, 0, i);
            rt.write_field(holder, 0, Some(value));
            rt.alloc(cls, &AllocSpec::leaf(512)).unwrap(); // transient
            rt.release_registers();
            let read_back = rt.read_field(holder, 0).unwrap().expect("kept alive");
            assert_eq!(rt.read_word(read_back, 0), i);
        }
        assert!(rt.counters().minor_collections > 0);
        assert!(rt.counters().remembered_stores > 0);
    }

    /// The headline composition: a leak is tolerated identically with the
    /// generational configuration, with pruning still only acting at
    /// full-heap collections.
    #[test]
    fn pruning_tolerates_leaks_with_a_nursery() {
        let mut rt = Runtime::new(
            PruningConfig::builder(256 * 1024)
                .nursery_fraction(0.2)
                .build(),
        );
        let node = rt.register_class("Node");
        let scratch = rt.register_class("Scratch");
        let head = rt.add_static();
        for _ in 0..5000 {
            let n = rt.alloc(node, &AllocSpec::new(1, 0, 512)).unwrap();
            rt.write_field(n, 0, rt.static_ref(head));
            rt.set_static(head, Some(n));
            rt.alloc(scratch, &AllocSpec::leaf(2048)).unwrap();
            rt.release_registers();
        }
        assert!(rt.prune_report().total_pruned_refs > 0, "leak pruned");
        assert!(rt.counters().minor_collections > 0, "nursery active");
        assert!(rt.gc_count() > 0, "full collections drove the pruning");
    }

    /// Minor collections are far cheaper than full ones: they mark only
    /// the nursery.
    #[test]
    fn minor_collections_mark_only_the_nursery() {
        let mut rt = Runtime::new(
            PruningConfig::builder(4 << 20)
                .nursery_fraction(0.05)
                .build(),
        );
        let cls = rt.register_class("T");
        // A large old generation.
        let root = rt.add_static();
        let hub = rt.alloc(cls, &AllocSpec::with_refs(4000)).unwrap();
        rt.set_static(root, Some(hub));
        for i in 0..4000 {
            let o = rt.alloc(cls, &AllocSpec::leaf(64)).unwrap();
            rt.write_field(hub, i, Some(o));
        }
        rt.force_gc(); // promote all of it
        let full_marked = rt.history().last().unwrap().live_objects_after;
        assert!(full_marked > 4000);

        // Churn transients; minor GCs must not grow with the old gen.
        let before = rt.counters().minor_collections;
        for _ in 0..2000 {
            rt.alloc(cls, &AllocSpec::leaf(256)).unwrap();
            rt.release_registers();
        }
        assert!(rt.counters().minor_collections > before);
        assert_eq!(rt.gc_count(), 1, "only the forced full collection");
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;

    const KB: u64 = 1024;

    fn incremental_config(capacity: u64) -> PruningConfig {
        PruningConfig::builder(capacity)
            .incremental_mark(256)
            .build()
    }

    /// The headline behaviour: with bounded mark quanta the list leak is
    /// still tolerated indefinitely, and at least some full collections
    /// complete incrementally, recording a short terminal flush instead of
    /// a full-heap mark pause.
    #[test]
    fn incremental_mode_tolerates_list_leak() {
        let mut rt = Runtime::new(incremental_config(256 * KB));
        let node = rt.register_class("Node");
        let scratch = rt.register_class("Scratch");
        let head = rt.add_static();
        for _ in 0..5000 {
            let n = rt.alloc(node, &AllocSpec::new(1, 0, 512)).unwrap();
            rt.write_field(n, 0, rt.static_ref(head));
            rt.set_static(head, Some(n));
            rt.alloc(scratch, &AllocSpec::leaf(2048)).unwrap();
            rt.release_registers();
        }
        assert!(rt.prune_report().total_pruned_refs > 0, "leak pruned");
        let incremental = rt
            .history()
            .iter()
            .filter(|r| r.flush_time.is_some())
            .count();
        assert!(incremental > 0, "some collections ran incrementally");
        // SELECT and PRUNE stay stop-the-world, so not every record
        // carries a flush.
        assert!(incremental < rt.history().len());
    }

    /// Severing the only reference to an object *during* a cycle must not
    /// hide it from the closure: the deleted-reference barrier logs the
    /// overwritten target, so the snapshot is retained until the next
    /// stop-the-world collection.
    #[test]
    fn satb_barrier_retains_snapshot_reachable_objects() {
        let mut rt = Runtime::new(incremental_config(1 << 20));
        let cls = rt.register_class("T");
        let root = rt.add_static();
        let holder = rt.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        rt.set_static(root, Some(holder));
        let victim = rt.alloc(cls, &AllocSpec::leaf(64)).unwrap();
        rt.write_field(holder, 0, Some(victim));
        rt.release_registers();
        rt.force_gc(); // both objects are old and unmarked

        assert!(rt.start_incremental_cycle());
        // The holder is grey but unscanned; without the barrier this store
        // would make the victim invisible to the rest of the mark.
        rt.write_field(holder, 0, None);
        while rt.incremental_active() {
            rt.step_incremental(8);
        }
        assert!(rt.is_live(victim), "SATB retains the cycle's snapshot");
        assert!(rt.history().last().unwrap().flush_time.is_some());

        // The next stop-the-world collection sees the severed heap and
        // reclaims the floating garbage.
        rt.force_gc();
        assert!(!rt.is_live(victim));
    }

    /// A heap bigger than one quantum's budget is marked across many
    /// bounded steps, each reported as its own telemetry event.
    #[test]
    fn mark_work_is_split_into_bounded_quanta() {
        let mut rt = Runtime::new(
            PruningConfig::builder(1 << 20)
                .incremental_mark(64)
                .flight_recorder(4096)
                .build(),
        );
        let cls = rt.register_class("T");
        let root = rt.add_static();
        let hub = rt.alloc(cls, &AllocSpec::with_refs(1000)).unwrap();
        rt.set_static(root, Some(hub));
        for i in 0..1000 {
            let o = rt.alloc(cls, &AllocSpec::leaf(64)).unwrap();
            rt.write_field(hub, i, Some(o));
        }
        rt.release_registers();

        assert!(rt.start_incremental_cycle());
        let mut quanta = 0u32;
        while rt.incremental_active() {
            quanta += rt.step_incremental(1);
        }
        assert!(quanta >= 10, "1001 objects at 64/quantum, got {quanta}");
        let lines = rt.telemetry().recorder_snapshot();
        let quantum_events = lines
            .iter()
            .filter(|l| matches!(l.event, Event::MarkQuantum { .. }))
            .count();
        assert_eq!(quantum_events as u32, quanta);
        // The closing collection event carries the flush pause.
        assert!(lines.iter().any(|l| matches!(
            l.event,
            Event::Collection {
                flush_nanos: Some(_),
                ..
            }
        )));
        assert!(rt.is_live(hub));
    }

    /// Stop-the-world entry points (forced collections, snapshots) close an
    /// in-flight cycle first instead of corrupting its mark state.
    #[test]
    fn forced_collection_closes_an_active_cycle_first() {
        let mut rt = Runtime::new(incremental_config(1 << 20));
        let cls = rt.register_class("T");
        let root = rt.add_static();
        let mut prev = None;
        for _ in 0..600 {
            let n = rt.alloc(cls, &AllocSpec::new(1, 0, 64)).unwrap();
            rt.write_field(n, 0, prev);
            rt.set_static(root, Some(n));
            prev = Some(n);
        }
        rt.release_registers();

        assert!(rt.start_incremental_cycle());
        assert!(rt.incremental_active());
        let record = rt.force_gc();
        assert!(!rt.incremental_active());
        assert!(record.flush_time.is_none(), "forced record is STW");
        let n = rt.history().len();
        assert!(n >= 2, "closed cycle + forced collection");
        assert!(rt.history()[n - 2].flush_time.is_some());
    }

    /// Without the config knob the public hooks are inert.
    #[test]
    fn incremental_hooks_are_inert_without_the_knob() {
        let mut rt = Runtime::new(PruningConfig::builder(1 << 20).build());
        assert!(!rt.start_incremental_cycle());
        assert!(!rt.incremental_active());
        assert_eq!(rt.step_incremental(4), 0);
        assert_eq!(rt.gc_count(), 0);
    }
}

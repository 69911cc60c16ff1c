//! The pruning engine: drives one collection per call, dispatching on the
//! state machine, and owns the edge table, the current selection, and the
//! deferred out-of-memory error.

use std::collections::HashMap;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use lp_gc::{par_trace, CollectionOutcome, Collector, IncrementalMarker, QuantumReport, TraceAll};
use lp_heap::{Heap, RootSet};
use lp_telemetry::{EdgeShare, Event, SpanGuard, Telemetry};

use crate::closures::{
    select_mark, InUseVisitor, IndividualRefsVisitor, MostStaleVisitor, ObserveVisitor,
    PruneVisitor,
};
use crate::config::{PredictionPolicy, PruningConfig};
use crate::edge_table::{EdgeKey, EdgeTable};
use crate::error::OutOfMemoryError;
use crate::liveness::{LivenessSummaries, Signal, StaticVerdicts, EMPTY_VERDICTS};
use crate::record::{GcRecord, SelectionInfo};
use crate::state::{next_state, State, TransitionContext};

pub(crate) struct Pruner {
    state: State,
    table: EdgeTable,
    policy: PredictionPolicy,
    expected_threshold: f64,
    nearly_full_threshold: f64,
    prune_only_when_full: bool,
    forced: Option<State>,
    pruning_enabled: bool,
    selection: Option<SelectionInfo>,
    averted_oom: Option<OutOfMemoryError>,
    exhausted_once: bool,
    /// The current SELECT (and the PRUNE that follows it) was entered
    /// early, on static verdicts alone, with occupancy still below the
    /// nearly-full threshold. Candidacy is then restricted to
    /// statically-covered edges: dynamic staleness has not yet earned the
    /// right to prune (see [`crate::state`]'s module docs).
    select_static_only: bool,
    /// Per-edge pruned-reference counts. A hash map because PRUNE
    /// collections update it on the hot path; anything user-facing sorts at
    /// report time ([`crate::Runtime::prune_report`]), so iteration order
    /// never leaks out.
    pruned_census: HashMap<EdgeKey, u64>,
    total_pruned_refs: u64,
    /// Collections between which the mutator ran — the clock staleness
    /// counters tick on. Consecutive collections inside one allocation
    /// stall share a clock value (the program could not have used
    /// anything in between).
    stale_clock: u64,
    decay_period: Option<u64>,
    select_collections: u64,
    /// Static liveness summaries loaded from
    /// [`PruningConfig::liveness_summaries`], kept so classes registered
    /// at any point pick up their verdicts.
    summaries: Option<LivenessSummaries>,
    /// The per-class-index verdict table the hybrid SELECT probes, filled
    /// from `summaries` as the runtime registers classes.
    statics: StaticVerdicts,
    /// The in-flight incremental mark cycle, if one is active. Only
    /// INACTIVE and OBSERVE collections run incrementally; SELECT and
    /// PRUNE need an atomic view of staleness and stay stop-the-world.
    cycle: Option<IncrementalCycle>,
    /// Span covering the in-flight incremental cycle, from
    /// [`Pruner::begin_incremental_cycle`] to the terminal events of the
    /// flush. Detached (no stack parent): the cycle outlives the
    /// `collect_until_fits` scope that opened it, so parenting it there
    /// would break well-nesting. Quantum and flush spans parent under it
    /// explicitly. Inert when no cycle is active.
    cycle_span: SpanGuard,
    /// Shared event bus (the runtime's); state transitions, SELECT
    /// decisions and exhaustion events go out on it.
    telemetry: Telemetry,
}

/// State of one in-flight incremental full collection: the marker's
/// worklist plus everything [`Pruner::collect`] would otherwise compute at
/// a single stop-the-world point — the state and staleness clock are
/// snapshotted at cycle start so every quantum observes with the same
/// clock, and the collection is attributed to the state it *began* in.
struct IncrementalCycle {
    marker: IncrementalMarker,
    state: State,
    observing: bool,
    stale_clock: Option<u64>,
    gc_index: u64,
    /// Accumulated marking wall time across the start scan and quanta.
    mark_time: Duration,
}

impl Pruner {
    pub fn new(config: &PruningConfig, telemetry: Telemetry) -> Self {
        let forced = config.forced_state().map(|f| f.as_state());
        let summaries = config.liveness_summaries().and_then(|path| {
            match LivenessSummaries::load(path) {
                Ok(loaded) => Some(loaded),
                Err(err) => {
                    // Degrade, don't crash: a missing or malformed summary
                    // file falls back to the purely dynamic policy, exactly
                    // like an empty verdict table.
                    eprintln!(
                        "leak-pruning: ignoring liveness summaries {}: {err}",
                        path.display()
                    );
                    None
                }
            }
        });
        Pruner {
            state: forced.unwrap_or(State::Inactive),
            table: EdgeTable::new(config.edge_table_slots()),
            policy: config.policy(),
            expected_threshold: config.expected_threshold(),
            nearly_full_threshold: config.nearly_full_threshold(),
            prune_only_when_full: config.prune_only_when_full(),
            forced,
            pruning_enabled: config.pruning_enabled(),
            selection: None,
            averted_oom: None,
            exhausted_once: false,
            select_static_only: false,
            pruned_census: HashMap::new(),
            total_pruned_refs: 0,
            stale_clock: 0,
            decay_period: config.decay_max_stale_use_every(),
            select_collections: 0,
            summaries,
            statics: StaticVerdicts::empty(),
            cycle: None,
            cycle_span: SpanGuard::inert(),
            telemetry,
        }
    }

    pub fn state(&self) -> State {
        self.state
    }

    pub fn table(&self) -> &EdgeTable {
        &self.table
    }

    pub fn averted_oom(&self) -> Option<&OutOfMemoryError> {
        self.averted_oom.as_ref()
    }

    pub fn pruned_census(&self) -> &HashMap<EdgeKey, u64> {
        &self.pruned_census
    }

    /// The selection the last SELECT collection committed, while it is
    /// still the active prune target.
    pub fn selection(&self) -> Option<&SelectionInfo> {
        self.selection.as_ref()
    }

    pub fn total_pruned_refs(&self) -> u64 {
        self.total_pruned_refs
    }

    /// Installs the loaded static liveness verdicts for a newly registered
    /// class (called by [`Runtime::register_class`](crate::Runtime)).
    /// Name-keyed summaries resolve to the class index here, once, so the
    /// mark-path probe is two array indexes.
    pub fn note_class(&mut self, class: lp_heap::ClassId, name: &str) {
        if let Some(summaries) = &self.summaries {
            self.statics.note_class(class, name, summaries);
        }
    }

    /// Number of (class, field) static verdicts installed so far.
    pub fn static_verdicts_installed(&self) -> usize {
        self.statics.installed()
    }

    /// Whether barriers should maintain the edge table (every state but
    /// INACTIVE).
    pub fn observing(&self) -> bool {
        self.state.observes()
    }

    /// Captures the pruner's mutable state for a checkpoint. Config-derived
    /// fields (policy, thresholds, forced state, decay period, summaries)
    /// are deliberately absent: restore rebuilds them from the same
    /// [`PruningConfig`], so an image can never smuggle in a policy the
    /// config did not ask for. Census and edge rows are sorted so the image
    /// — and any fingerprint over it — is independent of hash-map and
    /// hash-table iteration order.
    ///
    /// # Panics
    ///
    /// Panics if an incremental mark cycle is in flight: a half-marked
    /// cycle has no serializable meaning, and every checkpoint entry point
    /// closes the cycle first (the quiescence rule).
    pub fn image(&self) -> crate::recovery::PrunerImage {
        assert!(
            self.cycle.is_none(),
            "cannot capture a pruner image mid-incremental-cycle"
        );
        let mut pruned_census: Vec<(u32, u32, u64)> = self
            .pruned_census
            .iter()
            .map(|(key, &refs)| (key.src.index(), key.tgt.index(), refs))
            .collect();
        pruned_census.sort_unstable();
        let mut edges: Vec<(u32, u32, u8)> = self
            .table
            .iter()
            .map(|entry| {
                (
                    entry.key.src.index(),
                    entry.key.tgt.index(),
                    entry.max_stale_use,
                )
            })
            .collect();
        edges.sort_unstable();
        crate::recovery::PrunerImage {
            state: self.state.name().to_owned(),
            exhausted_once: self.exhausted_once,
            select_static_only: self.select_static_only,
            averted_oom: self
                .averted_oom
                .as_ref()
                .map(|oom| crate::recovery::OomImage {
                    gc_index: oom.gc_index(),
                    used_bytes: oom.used_bytes(),
                    capacity: oom.capacity(),
                }),
            selection: self
                .selection
                .as_ref()
                .map(crate::recovery::SelectionImage::from_info),
            pruned_census,
            total_pruned_refs: self.total_pruned_refs,
            stale_clock: self.stale_clock,
            select_collections: self.select_collections,
            edges,
        }
    }

    /// Reinstates the mutable state captured by [`Pruner::image`] into a
    /// freshly constructed pruner. The edge table is rebuilt entry by entry
    /// through [`EdgeTable::note_stale_use`], which is exact: `bytes_used`
    /// windows are zero at every quiescent point (reset after each SELECT),
    /// so `max_stale_use` is the only per-edge state a checkpoint carries.
    ///
    /// # Errors
    ///
    /// Returns the offending name when `image.state` is not one of the four
    /// Figure-2 names.
    pub fn restore_image(&mut self, image: &crate::recovery::PrunerImage) -> Result<(), String> {
        let state = State::from_name(&image.state).ok_or_else(|| image.state.clone())?;
        self.state = state;
        self.exhausted_once = image.exhausted_once;
        self.select_static_only = image.select_static_only;
        self.averted_oom = image
            .averted_oom
            .as_ref()
            .map(|oom| OutOfMemoryError::new(oom.gc_index, oom.used_bytes, oom.capacity));
        self.selection = image.selection.as_ref().map(|s| s.to_info());
        self.pruned_census = image
            .pruned_census
            .iter()
            .map(|&(src, tgt, refs)| {
                (
                    EdgeKey::new(
                        lp_heap::ClassId::from_index(src),
                        lp_heap::ClassId::from_index(tgt),
                    ),
                    refs,
                )
            })
            .collect();
        self.total_pruned_refs = image.total_pruned_refs;
        self.stale_clock = image.stale_clock;
        self.select_collections = image.select_collections;
        self.table = EdgeTable::new(self.table.capacity());
        for &(src, tgt, max_stale_use) in &image.edges {
            // `note_stale_use` with 0 still claims the slot, so edges the
            // program recorded but never used stale keep their census row.
            self.table.note_stale_use(
                EdgeKey::new(
                    lp_heap::ClassId::from_index(src),
                    lp_heap::ClassId::from_index(tgt),
                ),
                max_stale_use,
            );
        }
        Ok(())
    }

    /// Records that the program truly exhausted memory (an allocation still
    /// failed after a collection).
    ///
    /// Exhaustion is the strongest form of "nearly run out of memory", so
    /// it forces the state machine into SELECT even when occupancy sits
    /// below the nearly-full threshold — the case of a program whose
    /// allocation bursts are larger than the threshold headroom, which §3.1
    /// frames as "the VM is about to throw an out-of-memory error".
    pub fn note_exhausted(&mut self, gc_index: u64, used: u64, capacity: u64) {
        self.exhausted_once = true;
        self.telemetry.emit(|| Event::Exhausted {
            gc_index,
            used_bytes: used,
            capacity,
        });
        if self.averted_oom.is_none() {
            self.averted_oom = Some(OutOfMemoryError::new(gc_index, used, capacity));
        }
        if self.pruning_enabled
            && self.forced.is_none()
            && matches!(self.state, State::Inactive | State::Observe)
        {
            let from = self.state;
            self.state = State::Select;
            // A real exhaustion justifies the full dynamic candidate test,
            // whatever occupancy the sweep reaches afterwards.
            self.select_static_only = false;
            self.telemetry.emit(|| Event::StateTransition {
                gc_index,
                from: from.name(),
                to: State::Select.name(),
                occupancy: if capacity == 0 {
                    1.0
                } else {
                    used as f64 / capacity as f64
                },
                expected_threshold: self.expected_threshold,
                nearly_full_threshold: self.nearly_full_threshold,
                exhausted_once: true,
            });
        }
    }

    /// Performs one full-heap collection appropriate to the current state
    /// and advances the state machine. Returns the collection record and
    /// the classes of finalizable objects the sweep reclaimed. Marking uses
    /// the collector's thread count in every state.
    pub fn collect(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        collector: &mut Collector,
        mutator_ran: bool,
    ) -> (GcRecord, lp_heap::FinalizeLog) {
        let state = self.state;
        let stale_clock = if mutator_ran {
            self.stale_clock += 1;
            Some(self.stale_clock)
        } else {
            None
        };

        let (outcome, pruned_refs, selected) = match state {
            _ if !self.pruning_enabled => (collector.collect(heap, roots, &TraceAll), 0, None),
            State::Inactive => (collector.collect(heap, roots, &TraceAll), 0, None),
            State::Observe => {
                let visitor = ObserveVisitor { stale_clock };
                (collector.collect(heap, roots, &visitor), 0, None)
            }
            State::Select => {
                let (outcome, info) = self.collect_select(heap, roots, collector, stale_clock);
                self.selection = info;
                (outcome, 0, info)
            }
            State::Prune => {
                let (outcome, pruned) = self.collect_prune(heap, roots, collector, stale_clock);
                (outcome, pruned, None)
            }
        };

        // Full collections always carry an index; `None` is the minor
        // collector's marker and never reaches this path.
        let gc_index = outcome.gc_index.unwrap_or_default();
        self.advance_state(state, heap, gc_index);

        let mut outcome = outcome;
        let finalized = std::mem::take(&mut outcome.swept.finalized);
        let record = GcRecord {
            gc_index,
            state,
            live_bytes_after: outcome.live_bytes_after,
            live_objects_after: outcome.live_objects_after,
            freed_bytes: outcome.swept.freed_bytes,
            freed_objects: outcome.swept.freed_objects,
            pruned_refs,
            selected,
            mark_time: outcome.mark_time,
            sweep_time: outcome.sweep_time,
            flush_time: None,
        };
        (record, finalized)
    }

    /// Whether an incremental mark cycle is in flight.
    pub fn incremental_active(&self) -> bool {
        self.cycle.is_some()
    }

    /// Starts an incremental full collection if the current state admits
    /// one: snapshots the state and staleness clock, opens the mark epoch,
    /// activates the SATB log, and marks the roots grey. Returns `false`
    /// (and starts nothing) in SELECT or PRUNE, whose closures need an
    /// atomic view of staleness — the caller falls back to
    /// [`Pruner::collect`].
    pub fn begin_incremental_cycle(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        collector: &mut Collector,
        budget: usize,
        mutator_ran: bool,
    ) -> bool {
        debug_assert!(self.cycle.is_none(), "incremental cycle already active");
        let state = self.state;
        if self.pruning_enabled && matches!(state, State::Select | State::Prune) {
            return false;
        }
        let observing = self.pruning_enabled && state == State::Observe;
        let stale_clock = if mutator_ran {
            self.stale_clock += 1;
            Some(self.stale_clock)
        } else {
            None
        };
        let gc_index = collector.begin_incremental(heap);
        let started = Instant::now();
        let marker = if observing {
            IncrementalMarker::start(heap, roots, budget, &ObserveVisitor { stale_clock })
        } else {
            IncrementalMarker::start(heap, roots, budget, &TraceAll)
        };
        self.cycle = Some(IncrementalCycle {
            marker,
            state,
            observing,
            stale_clock,
            gc_index,
            mark_time: started.elapsed(),
        });
        self.cycle_span = self.telemetry.span_detached("cycle", gc_index);
        true
    }

    /// Runs one bounded mark quantum of the active cycle and emits its
    /// telemetry. `None` with no active cycle; the report's `done` flag
    /// says the worklist is drained and [`Pruner::finish_cycle`] can run.
    pub fn cycle_quantum(&mut self, heap: &mut Heap) -> Option<QuantumReport> {
        let cycle = self.cycle.as_mut()?;
        let _quantum_span = self
            .telemetry
            .span_under(&self.cycle_span, "quantum", cycle.gc_index);
        let started = Instant::now();
        let report = if cycle.observing {
            let visitor = ObserveVisitor {
                stale_clock: cycle.stale_clock,
            };
            cycle.marker.quantum(heap, &visitor)
        } else {
            cycle.marker.quantum(heap, &TraceAll)
        };
        let elapsed = started.elapsed();
        cycle.mark_time += elapsed;
        let gc_index = cycle.gc_index;
        self.telemetry.emit(|| Event::MarkQuantum {
            gc_index,
            objects: report.objects,
            bytes: report.bytes,
            satb_drained: report.satb_drained,
            nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        });
        Some(report)
    }

    /// Closes the active cycle: a short stop-the-world flush (drain the
    /// SATB log, re-scan the roots, finish the closure), then the sweep.
    /// Returns the collection record exactly like [`Pruner::collect`],
    /// with `flush_time` carrying the terminal pause's mark component.
    /// `None` with no active cycle.
    pub fn finish_cycle(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        collector: &mut Collector,
    ) -> Option<(GcRecord, lp_heap::FinalizeLog)> {
        let mut cycle = self.cycle.take()?;
        let flush_span = self
            .telemetry
            .span_under(&self.cycle_span, "flush", cycle.gc_index);
        let flush_started = Instant::now();
        if cycle.observing {
            let visitor = ObserveVisitor {
                stale_clock: cycle.stale_clock,
            };
            cycle.marker.flush(heap, roots, &visitor);
        } else {
            cycle.marker.flush(heap, roots, &TraceAll);
        }
        let flush_time = flush_started.elapsed();
        drop(flush_span);
        let mark_time = cycle.mark_time + flush_time;

        let outcome = collector.finish_incremental(
            heap,
            cycle.gc_index,
            cycle.marker.stats(),
            mark_time,
            cycle.marker.quanta(),
            cycle.marker.budget_overruns(),
        );
        self.advance_state(cycle.state, heap, cycle.gc_index);

        let mut outcome = outcome;
        let finalized = std::mem::take(&mut outcome.swept.finalized);
        let record = GcRecord {
            gc_index: cycle.gc_index,
            state: cycle.state,
            live_bytes_after: outcome.live_bytes_after,
            live_objects_after: outcome.live_objects_after,
            freed_bytes: outcome.swept.freed_bytes,
            freed_objects: outcome.swept.freed_objects,
            pruned_refs: 0,
            selected: None,
            mark_time: outcome.mark_time,
            sweep_time: outcome.sweep_time,
            flush_time: Some(flush_time),
        };
        Some((record, finalized))
    }

    /// Closes the cycle span opened by
    /// [`Pruner::begin_incremental_cycle`]. The runtime calls this after
    /// emitting the cycle's terminal `Collection` events so they land
    /// inside the span; dropping the pruner closes it as a fallback,
    /// keeping traces balanced even on abandoned cycles.
    pub fn close_cycle_span(&mut self) {
        self.cycle_span = SpanGuard::inert();
    }

    fn advance_state(&mut self, performed: State, heap: &Heap, gc_index: u64) {
        if let Some(forced) = self.forced {
            self.state = forced;
            return;
        }
        if !self.pruning_enabled {
            return;
        }
        let ctx = TransitionContext {
            occupancy: heap.occupancy(),
            expected_threshold: self.expected_threshold,
            nearly_full_threshold: self.nearly_full_threshold,
            prune_only_when_full: self.prune_only_when_full,
            exhausted_once: self.exhausted_once,
            // Only the default policy runs the hybrid candidate test, so
            // only it may take the early OBSERVE→SELECT edge.
            static_verdicts: self.policy == PredictionPolicy::LeakPruning
                && self.statics.installed() > 0,
        };
        let next = next_state(performed, &ctx);
        match next {
            // Entering SELECT below the nearly-full threshold can only
            // happen on the static early edge; restrict candidacy
            // accordingly. A genuine exhaustion unlocks the full test.
            State::Select => {
                self.select_static_only = ctx.static_verdicts
                    && ctx.occupancy <= ctx.nearly_full_threshold
                    && !self.exhausted_once;
            }
            // The PRUNE that consumes a SELECT's selection keeps its mode
            // so re-discovery matches what was charged.
            State::Prune => {}
            State::Inactive | State::Observe => self.select_static_only = false,
        }
        if next != performed {
            let _state_span = self.telemetry.span("state", gc_index);
            self.telemetry.emit(|| Event::StateTransition {
                gc_index,
                from: performed.name(),
                to: next.name(),
                occupancy: ctx.occupancy,
                expected_threshold: ctx.expected_threshold,
                nearly_full_threshold: ctx.nearly_full_threshold,
                exhausted_once: ctx.exhausted_once,
            });
        }
        if next == State::Prune && self.averted_oom.is_none() {
            // Under option (2) the first PRUNE is entered before a literal
            // exhaustion; the "nearly full" threshold plays the role of the
            // maximum heap size (§3.1), so the deferred error is recorded
            // here.
            self.averted_oom = Some(OutOfMemoryError::new(
                gc_index,
                heap.used_bytes(),
                heap.capacity(),
            ));
        }
        self.state = next;
    }

    fn collect_select(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        collector: &mut Collector,
        stale_clock: Option<u64>,
    ) -> (CollectionOutcome, Option<SelectionInfo>) {
        let policy = self.policy;
        self.select_collections += 1;
        if let Some(period) = self.decay_period {
            if self.select_collections.is_multiple_of(period) {
                // The phased-behaviour extension: forget one level of
                // recorded use so long-finished phases stop protecting
                // their data structures forever.
                self.table.decay_max_stale_use();
            }
        }
        let table = &self.table;
        // Only the default policy runs the hybrid test; the §6.1
        // comparison policies stay purely dynamic.
        let statics = &self.statics;
        let static_only = self.select_static_only;
        let telemetry = &self.telemetry;
        let threads = collector.threads();
        // The selection events below are emitted from inside the mark
        // closure, where the collector has already claimed this index.
        let gc_index = collector.next_gc_index();
        let _select_span = telemetry.span("select", gc_index);
        let mut info = None;

        let outcome = collector.collect_with(heap, |heap| match policy {
            PredictionPolicy::LeakPruning => {
                let mut in_use = InUseVisitor::new(stale_clock, table, statics);
                in_use.static_only = static_only;
                let (stats, busy, candidates) = select_mark(heap, roots, in_use, threads);
                if let Some((edge, bytes)) = table.select_max_bytes() {
                    let signal = fold_signals(
                        candidates
                            .iter()
                            .filter(|c| c.edge == edge)
                            .map(|c| c.signal),
                    );
                    info = Some(SelectionInfo::Edge { edge, bytes });
                    emit_selection(telemetry, table, gc_index, edge, bytes, signal);
                }
                table.reset_bytes();
                (stats, busy)
            }
            PredictionPolicy::IndividualRefs => {
                let visitor = IndividualRefsVisitor { stale_clock, table };
                let marked = par_trace(heap, roots.iter(), &visitor, threads);
                if let Some((edge, bytes)) = table.select_max_bytes() {
                    info = Some(SelectionInfo::Edge { edge, bytes });
                    emit_selection(telemetry, table, gc_index, edge, bytes, Signal::Stale);
                }
                table.reset_bytes();
                marked
            }
            PredictionPolicy::MostStale => {
                let visitor = MostStaleVisitor::new(stale_clock);
                let marked = par_trace(heap, roots.iter(), &visitor, threads);
                let level = visitor.max_stale.into_inner();
                if level >= 2 {
                    info = Some(SelectionInfo::StaleLevel(level));
                    telemetry.emit(|| Event::SelectionStale { gc_index, level });
                }
                marked
            }
        });

        (outcome, info)
    }

    fn collect_prune(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        collector: &mut Collector,
        stale_clock: Option<u64>,
    ) -> (CollectionOutcome, u64) {
        let Some(selected) = self.selection.take() else {
            // Nothing was selectable; fall back to an observing collection.
            return (
                collector.collect(heap, roots, &ObserveVisitor { stale_clock }),
                0,
            );
        };

        let _prune_span = self.telemetry.span("prune", collector.next_gc_index());
        // PRUNE must re-discover exactly the candidates SELECT charged, so
        // it consults the verdict table only under the default policy.
        let statics = match self.policy {
            PredictionPolicy::LeakPruning => &self.statics,
            _ => &EMPTY_VERDICTS,
        };
        let mut visitor =
            PruneVisitor::new(stale_clock, &self.table, statics, selected.selection());
        visitor.static_only = self.select_static_only;
        let outcome = collector.collect(heap, roots, &visitor);

        let pruned_map = visitor
            .pruned
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let pruned: u64 = pruned_map.values().sum();
        for (edge, count) in &pruned_map {
            *self.pruned_census.entry(*edge).or_insert(0) += count;
        }
        self.total_pruned_refs += pruned;
        (outcome, pruned)
    }
}

/// Folds the per-candidate signals of the selected edge into the edge's
/// winning signal: all-dynamic stays `Stale`, all-static stays `Static`,
/// any mix is `Both`. An edge can only win with charged candidates, so the
/// empty default is unreachable in practice; `Stale` keeps it on the
/// baseline event shape.
fn fold_signals(signals: impl Iterator<Item = Signal>) -> Signal {
    signals.reduce(Signal::merged).unwrap_or(Signal::Stale)
}

/// Emits a SELECT decision with the runner-up edges it beat (read before
/// `reset_bytes` wipes the window), so selection is explainable from the
/// trace alone. Purely dynamic selections keep the paper-era
/// `SelectionEdge` shape; selections the static signal participated in
/// become `SelectionStatic`, recording which signal won.
fn emit_selection(
    telemetry: &Telemetry,
    table: &EdgeTable,
    gc_index: u64,
    edge: EdgeKey,
    bytes: u64,
    signal: Signal,
) {
    let runners_up = || {
        table
            .top_bytes(4)
            .into_iter()
            .filter(|(key, _)| *key != edge)
            .take(3)
            .map(|(key, edge_bytes)| EdgeShare {
                src: key.src.index(),
                tgt: key.tgt.index(),
                bytes: edge_bytes,
            })
            .collect()
    };
    match signal {
        Signal::Stale => telemetry.emit(|| Event::SelectionEdge {
            gc_index,
            src: edge.src.index(),
            tgt: edge.tgt.index(),
            bytes,
            runners_up: runners_up(),
        }),
        participated => telemetry.emit(|| Event::SelectionStatic {
            gc_index,
            src: edge.src.index(),
            tgt: edge.tgt.index(),
            bytes,
            signal: participated.name(),
            runners_up: runners_up(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ForcedState;
    use lp_heap::{AllocSpec, ClassRegistry, Handle, TaggedRef};

    /// Builds the exact heap of Figures 3-5 and checks that SELECT chooses
    /// B -> C with the bytes of the two stale subtrees, and that PRUNE then
    /// poisons b1->c1, b3->c3 and b4->c4 while e1's subtree survives.
    #[test]
    fn paper_figure5_worked_example() {
        let mut classes = ClassRegistry::new();
        let (a, b, c, d, e) = (
            classes.register("A"),
            classes.register("B"),
            classes.register("C"),
            classes.register("D"),
            classes.register("E"),
        );

        let mut heap = Heap::new(1 << 20);
        let mut roots = RootSet::new();

        let alloc =
            |heap: &mut Heap, cls, refs| heap.alloc(cls, &AllocSpec::with_refs(refs)).unwrap();
        let a1 = alloc(&mut heap, a, 4);
        let e1 = alloc(&mut heap, e, 1);
        let bs: Vec<Handle> = (0..4).map(|_| alloc(&mut heap, b, 1)).collect();
        let c1 = alloc(&mut heap, c, 2);
        let c2 = alloc(&mut heap, c, 0);
        let c3 = alloc(&mut heap, c, 2);
        let c4 = alloc(&mut heap, c, 2);
        let ds: Vec<Handle> = (0..6).map(|_| alloc(&mut heap, d, 0)).collect();

        // Roots -> a1, e1 (in-use references: no unlogged bit).
        let ra = roots.add_static();
        let re = roots.add_static();
        roots.set_static(ra, Some(a1));
        roots.set_static(re, Some(e1));

        // a1 -> b1..b4 in use (the program walks them).
        for (i, bi) in bs.iter().enumerate() {
            heap.object(a1).store_ref(i, TaggedRef::from_handle(*bi));
        }
        // b -> c references are stale (unlogged bit set).
        let stale_ref = |h: Handle| TaggedRef::from_handle(h).with_unlogged();
        heap.object(bs[0]).store_ref(0, stale_ref(c1));
        heap.object(bs[1]).store_ref(0, stale_ref(c2));
        heap.object(bs[2]).store_ref(0, stale_ref(c3));
        heap.object(bs[3]).store_ref(0, stale_ref(c4));
        // e1 -> c4 is also stale, but E->C has maxstaleuse 2.
        heap.object(e1).store_ref(0, stale_ref(c4));
        // Subtrees.
        heap.object(c1).store_ref(0, stale_ref(ds[0]));
        heap.object(c1).store_ref(1, stale_ref(ds[1]));
        heap.object(c3).store_ref(0, stale_ref(ds[2]));
        heap.object(c3).store_ref(1, stale_ref(ds[3]));
        heap.object(c4).store_ref(0, stale_ref(ds[4]));
        heap.object(c4).store_ref(1, stale_ref(ds[5]));

        // Stale counters from the figure.
        heap.object(c1).set_stale(4);
        heap.object(c2).set_stale(1);
        heap.object(c3).set_stale(4);
        heap.object(c4).set_stale(3);
        for di in &ds {
            heap.object(*di).set_stale(4);
        }

        let config = PruningConfig::builder(1 << 20).build();
        let mut pruner = Pruner::new(&config, Telemetry::new());
        // The program once used an E->C reference at staleness 2.
        pruner.table.note_stale_use(EdgeKey::new(e, c), 2);
        // Start in SELECT (the heap is "nearly full" by assumption).
        pruner.state = State::Select;

        let mut collector = Collector::new();
        let (record, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        assert_eq!(record.state, State::Select);

        let expected_bytes: u64 = [c1, ds[0], ds[1], c3, ds[2], ds[3]]
            .iter()
            .map(|h| u64::from(heap.object(*h).footprint()))
            .sum();
        match record.selected {
            Some(SelectionInfo::Edge { edge, bytes }) => {
                assert_eq!(edge, EdgeKey::new(b, c), "B->C has the most stale bytes");
                assert_eq!(bytes, expected_bytes, "c4's subtree is in use via e1");
            }
            other => panic!("expected an edge selection, got {other:?}"),
        }
        // SELECT retains everything.
        assert_eq!(record.freed_objects, 0);
        assert_eq!(pruner.state(), State::Prune, "option (2): prune next");

        // PRUNE: b1->c1, b3->c3 and b4->c4 are poisoned; c4's subtree
        // survives through e1 (Figure 4).
        let (record, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        assert_eq!(record.state, State::Prune);
        assert_eq!(record.pruned_refs, 3);
        assert!(heap.object(bs[0]).load_ref(0).is_poisoned());
        assert!(
            !heap.object(bs[1]).load_ref(0).is_poisoned(),
            "c2 not stale enough"
        );
        assert!(heap.object(bs[2]).load_ref(0).is_poisoned());
        assert!(heap.object(bs[3]).load_ref(0).is_poisoned());
        assert!(
            !heap.object(e1).load_ref(0).is_poisoned(),
            "E->C protected by maxstaleuse"
        );

        assert!(
            !heap.contains(c1) && !heap.contains(c3),
            "stale subtrees reclaimed"
        );
        assert!(!heap.contains(ds[0]) && !heap.contains(ds[3]));
        assert!(heap.contains(c4) && heap.contains(ds[4]) && heap.contains(ds[5]));
        assert_eq!(record.freed_objects, 6);
        assert_eq!(pruner.total_pruned_refs(), 3);
        assert!(
            pruner.averted_oom().is_some(),
            "deferred error recorded at first PRUNE"
        );
    }

    /// A certainly-dead verdict lets SELECT choose an edge whose target is
    /// only at staleness 1 — far below the dynamic `max_stale_use + 2`
    /// threshold — and PRUNE poisons it. The decision goes out as a
    /// `SelectionStatic` event with the `static` signal; purely dynamic
    /// runs never emit that kind.
    #[test]
    fn static_verdict_selects_and_prunes_before_dynamic_threshold() {
        let mut classes = ClassRegistry::new();
        let registry = classes.register("session.Registry");
        let record = classes.register("session.Record");

        let mut heap = Heap::new(1 << 20);
        let mut roots = RootSet::new();
        let r1 = heap.alloc(registry, &AllocSpec::with_refs(1)).unwrap();
        let root = roots.add_static();
        roots.set_static(root, Some(r1));
        let rec1 = heap.alloc(record, &AllocSpec::with_refs(0)).unwrap();
        heap.object(r1)
            .store_ref(0, TaggedRef::from_handle(rec1).with_unlogged());
        heap.object(rec1).set_stale(1);

        let config = PruningConfig::builder(1 << 20).build();
        let telemetry = Telemetry::with_recorder(64);
        let mut pruner = Pruner::new(&config, telemetry.clone());
        pruner.statics.install_verdict(registry, 0, 1);
        pruner.state = State::Select;

        let mut collector = Collector::new();
        let (rec, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        match rec.selected {
            Some(SelectionInfo::Edge { edge, bytes }) => {
                assert_eq!(edge, EdgeKey::new(registry, record));
                assert!(bytes > 0);
            }
            other => panic!("expected an edge selection, got {other:?}"),
        }
        let statics: Vec<&'static str> = telemetry
            .recorder_snapshot()
            .iter()
            .filter_map(|l| match l.event {
                Event::SelectionStatic { signal, .. } => Some(signal),
                _ => None,
            })
            .collect();
        assert_eq!(statics, ["static"], "the static signal won alone");

        assert_eq!(pruner.state(), State::Prune);
        let (rec, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        assert_eq!(rec.pruned_refs, 1);
        assert!(heap.object(r1).load_ref(0).is_poisoned());
        assert!(!heap.contains(rec1), "statically dead record reclaimed");
    }

    /// When the selected edge has both a dynamic-threshold candidate and a
    /// static-verdict candidate, the winning signal is `both`.
    #[test]
    fn mixed_candidates_report_both_signal() {
        let mut classes = ClassRegistry::new();
        let registry = classes.register("Registry");
        let record = classes.register("Record");

        let mut heap = Heap::new(1 << 20);
        let mut roots = RootSet::new();
        let r1 = heap.alloc(registry, &AllocSpec::with_refs(2)).unwrap();
        let root = roots.add_static();
        roots.set_static(root, Some(r1));
        // Field 0: static-only candidate (stale 1, verdict installed).
        let young = heap.alloc(record, &AllocSpec::with_refs(0)).unwrap();
        heap.object(r1)
            .store_ref(0, TaggedRef::from_handle(young).with_unlogged());
        heap.object(young).set_stale(1);
        // Field 1: dynamic-only candidate (stale 4, no verdict).
        let old = heap.alloc(record, &AllocSpec::with_refs(0)).unwrap();
        heap.object(r1)
            .store_ref(1, TaggedRef::from_handle(old).with_unlogged());
        heap.object(old).set_stale(4);

        let config = PruningConfig::builder(1 << 20).build();
        let telemetry = Telemetry::with_recorder(64);
        let mut pruner = Pruner::new(&config, telemetry.clone());
        pruner.statics.install_verdict(registry, 0, 1);
        pruner.state = State::Select;

        let mut collector = Collector::new();
        let (rec, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        assert!(matches!(rec.selected, Some(SelectionInfo::Edge { .. })));
        let statics: Vec<&'static str> = telemetry
            .recorder_snapshot()
            .iter()
            .filter_map(|l| match l.event {
                Event::SelectionStatic { signal, .. } => Some(signal),
                _ => None,
            })
            .collect();
        assert_eq!(statics, ["both"]);

        // PRUNE poisons both candidate references of the selected edge.
        let (rec, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        assert_eq!(rec.pruned_refs, 2);
    }

    /// Without any verdict installed, SELECT still emits the paper-era
    /// `SelectionEdge` event — the trace shape of dynamic-only runs is
    /// unchanged by the hybrid machinery.
    #[test]
    fn dynamic_only_selection_keeps_baseline_event_shape() {
        let mut classes = ClassRegistry::new();
        let registry = classes.register("Registry");
        let record = classes.register("Record");

        let mut heap = Heap::new(1 << 20);
        let mut roots = RootSet::new();
        let r1 = heap.alloc(registry, &AllocSpec::with_refs(1)).unwrap();
        let root = roots.add_static();
        roots.set_static(root, Some(r1));
        let old = heap.alloc(record, &AllocSpec::with_refs(0)).unwrap();
        heap.object(r1)
            .store_ref(0, TaggedRef::from_handle(old).with_unlogged());
        heap.object(old).set_stale(4);

        let config = PruningConfig::builder(1 << 20).build();
        let telemetry = Telemetry::with_recorder(64);
        let mut pruner = Pruner::new(&config, telemetry.clone());
        pruner.state = State::Select;

        let mut collector = Collector::new();
        let (rec, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        assert!(matches!(rec.selected, Some(SelectionInfo::Edge { .. })));
        let lines = telemetry.recorder_snapshot();
        assert!(lines
            .iter()
            .any(|l| matches!(l.event, Event::SelectionEdge { .. })));
        assert!(!lines
            .iter()
            .any(|l| matches!(l.event, Event::SelectionStatic { .. })));
    }

    #[test]
    fn forced_state_never_advances() {
        let config = PruningConfig::builder(1024)
            .force_state(ForcedState::Select)
            .build();
        let mut pruner = Pruner::new(&config, Telemetry::new());
        let mut heap = Heap::new(1024);
        let roots = RootSet::new();
        let mut collector = Collector::new();
        for _ in 0..3 {
            let (record, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
            assert_eq!(record.state, State::Select);
        }
        assert_eq!(pruner.state(), State::Select);
        assert!(pruner.averted_oom().is_none(), "forced SELECT never prunes");
    }

    #[test]
    fn disabled_pruning_keeps_state_inactive() {
        let config = PruningConfig::base(1024);
        let mut pruner = Pruner::new(&config, Telemetry::new());
        let mut heap = Heap::new(64); // tiny: always "full"
        let roots = RootSet::new();
        let mut collector = Collector::new();
        let (record, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        assert_eq!(record.state, State::Inactive);
        assert_eq!(pruner.state(), State::Inactive);
    }

    #[test]
    fn prune_without_selection_degrades_to_observe() {
        let config = PruningConfig::builder(1 << 20).build();
        let mut pruner = Pruner::new(&config, Telemetry::new());
        pruner.state = State::Prune;
        let mut heap = Heap::new(1 << 20);
        let roots = RootSet::new();
        let mut collector = Collector::new();
        let (record, _) = pruner.collect(&mut heap, &roots, &mut collector, true);
        assert_eq!(record.pruned_refs, 0);
        assert_eq!(record.state, State::Prune);
        // Empty heap: occupancy 0 -> back to OBSERVE.
        assert_eq!(pruner.state(), State::Observe);
    }
}

//! The mark-sweep collection driver.

use std::time::{Duration, Instant};

use lp_heap::{Heap, RootSet, SweepOutcome};
use lp_telemetry::{Event, GcPhase};

use crate::parallel::par_trace;
use crate::stats::GcStats;
use crate::tracer::{EdgeVisitor, TraceStats};

/// Which flavor of collection produced a [`CollectionOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionKind {
    /// A monolithic stop-the-world full-heap collection.
    Full,
    /// A full-heap collection whose mark phase ran as bounded incremental
    /// quanta, finished by a short stop-the-world flush before the sweep.
    IncrementalFull,
    /// A nursery-only minor collection.
    Minor,
}

/// The result of one collection.
#[derive(Debug, Clone)]
pub struct CollectionOutcome {
    /// 1-based index of this collection — the paper's full-heap collection
    /// number `i` used by the logarithmic stale-counter increment rule.
    /// `None` for minor collections, which do not advance the full-heap
    /// numbering that drives staleness.
    pub gc_index: Option<u64>,
    /// What flavor of collection this was.
    pub kind: CollectionKind,
    /// Marking statistics (reachable objects/bytes).
    pub trace: TraceStats,
    /// What the sweep reclaimed.
    pub swept: SweepOutcome,
    /// Bytes in use after the sweep — the paper's "reachable memory at the
    /// end of each full-heap collection".
    pub live_bytes_after: u64,
    /// Objects in the heap after the sweep.
    pub live_objects_after: u64,
    /// Wall-clock time spent marking.
    pub mark_time: Duration,
    /// Wall-clock time spent sweeping.
    pub sweep_time: Duration,
    /// Per-thread busy time in the mark phase. A single entry equal to
    /// [`CollectionOutcome::mark_time`] when marking ran serially.
    pub mark_thread_times: Vec<Duration>,
    /// Per-thread busy time in the sweep phase. A single entry when the
    /// sweep ran serially.
    pub sweep_thread_times: Vec<Duration>,
}

/// A stop-the-world mark-sweep collector.
///
/// The collector numbers collections (leak pruning's staleness clock),
/// accumulates [`GcStats`], and runs the mark phase through a pluggable
/// visitor — either the trivial [`TraceAll`](crate::TraceAll) (the paper's
/// Base configuration) or leak pruning's state-dependent closures.
///
/// It owns one thread count for both phases: marking runs on
/// [`par_trace`](crate::par_trace) and the sweep on the heap's parallel
/// sweep, each with [`Collector::threads`] threads. One thread (the
/// default) marks and sweeps on the calling thread.
///
/// For custom multi-phase marking (leak pruning's SELECT state runs an
/// in-use closure *and* a stale closure in one collection), use
/// [`Collector::collect_with`].
#[derive(Debug)]
pub struct Collector {
    gc_count: u64,
    stats: GcStats,
    threads: usize,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            gc_count: 0,
            stats: GcStats::default(),
            threads: 1,
        }
    }
}

impl Collector {
    /// Creates a collector that has performed no collections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of threads every mark and sweep phase uses (default 1 —
    /// serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the number of mark and sweep threads. Marking reaches the same
    /// closure and the parallel sweep is deterministically equivalent to
    /// the serial one, so this changes pause times, not what survives.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads > 0, "need at least one collector thread");
        self.threads = threads;
    }

    /// Number of collections completed so far.
    pub fn collections(&self) -> u64 {
        self.gc_count
    }

    /// The index the *next* collection will carry (1-based).
    pub fn next_gc_index(&self) -> u64 {
        self.gc_count + 1
    }

    /// Restores the collection counter from a checkpoint, so gc indices
    /// continue the pre-crash sequence instead of restarting at 1 — the
    /// staleness clock's logarithmic tick rule (`gc_index % 2^k`) and every
    /// recorded history line key on this numbering. Statistics are not
    /// restored; like heap statistics, they are telemetry, not program
    /// state.
    pub fn restore_collections(&mut self, gc_count: u64) {
        self.gc_count = gc_count;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// Performs a full-heap collection, marking with `visitor` on
    /// [`Collector::threads`] marker threads.
    pub fn collect<V: EdgeVisitor + ?Sized>(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        visitor: &V,
    ) -> CollectionOutcome {
        let threads = self.threads;
        self.collect_with(heap, |heap| par_trace(heap, roots.iter(), visitor, threads))
    }

    /// Performs a full-heap collection whose mark phase is supplied by the
    /// caller. `mark` runs after a fresh mark epoch has begun; everything it
    /// leaves unmarked is swept. It returns the closure's counts and each
    /// marker thread's busy time, as [`par_trace`](crate::par_trace) does.
    /// A list of at most one entry means it marked on the calling thread,
    /// and the phase's wall-clock time stands in.
    ///
    /// This is the hook leak pruning uses to run its two-phase SELECT
    /// closure while reusing the collector's numbering, timing, and sweep.
    pub fn collect_with(
        &mut self,
        heap: &mut Heap,
        mark: impl FnOnce(&Heap) -> (TraceStats, Vec<Duration>),
    ) -> CollectionOutcome {
        self.gc_count += 1;
        let gc_index = self.gc_count;
        heap.begin_mark_epoch();

        // Phase spans go out on the heap's bus so they interleave with its
        // alloc/free events (and the runtime's records) on one sequence.
        let mark_span = heap.telemetry().span("mark", gc_index);
        heap.telemetry().emit(|| Event::PhaseBegin {
            gc_index,
            phase: GcPhase::Mark,
        });
        let mark_start = Instant::now();
        let (trace_stats, mut mark_thread_times) = mark(heap);
        let mark_time = mark_start.elapsed();
        if mark_thread_times.len() <= 1 {
            // One thread marked on the calling thread: the whole phase was
            // its busy time.
            mark_thread_times = vec![mark_time];
        }
        heap.telemetry().emit(|| Event::PhaseEnd {
            gc_index,
            phase: GcPhase::Mark,
            nanos: duration_nanos(mark_time),
            threads: mark_thread_times.len() as u64,
            busy_nanos: busy_nanos(&mark_thread_times),
        });
        drop(mark_span);

        let sweep_span = heap.telemetry().span("sweep", gc_index);
        heap.telemetry().emit(|| Event::PhaseBegin {
            gc_index,
            phase: GcPhase::Sweep,
        });
        let sweep_start = Instant::now();
        let (swept, sweep_thread_times) = heap.sweep_parallel_timed(self.threads);
        let sweep_time = sweep_start.elapsed();
        heap.telemetry().emit(|| Event::PhaseEnd {
            gc_index,
            phase: GcPhase::Sweep,
            nanos: duration_nanos(sweep_time),
            threads: sweep_thread_times.len() as u64,
            busy_nanos: busy_nanos(&sweep_thread_times),
        });
        drop(sweep_span);

        self.stats.record(
            mark_time,
            sweep_time,
            &mark_thread_times,
            &sweep_thread_times,
            trace_stats.objects_marked,
            trace_stats.bytes_marked,
            swept.freed_objects,
            swept.freed_bytes,
        );

        CollectionOutcome {
            gc_index: Some(self.gc_count),
            kind: CollectionKind::Full,
            trace: trace_stats,
            swept,
            live_bytes_after: heap.used_bytes(),
            live_objects_after: heap.live_objects(),
            mark_time,
            sweep_time,
            mark_thread_times,
            sweep_thread_times,
        }
    }

    /// Opens an incremental full collection: claims the next collection
    /// index, begins a fresh mark epoch, and emits the `Mark` phase-begin
    /// span. The caller drives an [`IncrementalMarker`] through its quanta
    /// (starting it with [`IncrementalMarker::start`], which opens the SATB
    /// log) and closes the collection with
    /// [`Collector::finish_incremental`].
    ///
    /// Between `begin_incremental` and `finish_incremental` no other
    /// collection — full, minor, or nested incremental — may run on this
    /// heap: any of them would begin a new mark epoch and destroy the
    /// cycle's accumulated marks.
    ///
    /// [`IncrementalMarker`]: crate::IncrementalMarker
    /// [`IncrementalMarker::start`]: crate::IncrementalMarker::start
    pub fn begin_incremental(&mut self, heap: &mut Heap) -> u64 {
        self.gc_count += 1;
        let gc_index = self.gc_count;
        heap.begin_mark_epoch();
        heap.telemetry().emit(|| Event::PhaseBegin {
            gc_index,
            phase: GcPhase::Mark,
        });
        gc_index
    }

    /// Closes an incremental full collection opened by
    /// [`Collector::begin_incremental`], after the marker's final flush:
    /// emits the `Mark` phase-end span (whose `nanos` is the *accumulated
    /// marking time* across all quanta plus the flush, not the span's
    /// wall-clock extent — the mutator ran inside it), sweeps with the
    /// usual `Sweep` spans, and records statistics.
    pub fn finish_incremental(
        &mut self,
        heap: &mut Heap,
        gc_index: u64,
        trace_stats: TraceStats,
        mark_time: Duration,
        quanta: u64,
        budget_overruns: u64,
    ) -> CollectionOutcome {
        let mark_thread_times = vec![mark_time];
        heap.telemetry().emit(|| Event::PhaseEnd {
            gc_index,
            phase: GcPhase::Mark,
            nanos: duration_nanos(mark_time),
            threads: 1,
            busy_nanos: duration_nanos(mark_time),
        });

        let sweep_span = heap.telemetry().span("sweep", gc_index);
        heap.telemetry().emit(|| Event::PhaseBegin {
            gc_index,
            phase: GcPhase::Sweep,
        });
        let sweep_start = Instant::now();
        let (swept, sweep_thread_times) = heap.sweep_parallel_timed(self.threads);
        let sweep_time = sweep_start.elapsed();
        heap.telemetry().emit(|| Event::PhaseEnd {
            gc_index,
            phase: GcPhase::Sweep,
            nanos: duration_nanos(sweep_time),
            threads: sweep_thread_times.len() as u64,
            busy_nanos: busy_nanos(&sweep_thread_times),
        });
        drop(sweep_span);

        self.stats.record(
            mark_time,
            sweep_time,
            &mark_thread_times,
            &sweep_thread_times,
            trace_stats.objects_marked,
            trace_stats.bytes_marked,
            swept.freed_objects,
            swept.freed_bytes,
        );
        self.stats.record_incremental(quanta, budget_overruns);

        CollectionOutcome {
            gc_index: Some(gc_index),
            kind: CollectionKind::IncrementalFull,
            trace: trace_stats,
            swept,
            live_bytes_after: heap.used_bytes(),
            live_objects_after: heap.live_objects(),
            mark_time,
            sweep_time,
            mark_thread_times,
            sweep_thread_times,
        }
    }
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn busy_nanos(thread_times: &[Duration]) -> u64 {
    thread_times
        .iter()
        .fold(0u64, |acc, d| acc.saturating_add(duration_nanos(*d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::TraceAll;
    use lp_heap::{AllocSpec, ClassRegistry, TaggedRef};

    fn setup() -> (Heap, RootSet, lp_heap::ClassId) {
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        (Heap::new(1 << 20), RootSet::new(), cls)
    }

    #[test]
    fn collect_reclaims_garbage_and_numbers_collections() {
        let (mut heap, mut roots, cls) = setup();
        let live = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let child = heap.alloc(cls, &AllocSpec::default()).unwrap();
        heap.object(live)
            .store_ref(0, TaggedRef::from_handle(child));
        heap.alloc(cls, &AllocSpec::leaf(100)).unwrap(); // garbage
        let s = roots.add_static();
        roots.set_static(s, Some(live));

        let mut collector = Collector::new();
        assert_eq!(collector.next_gc_index(), 1);
        let outcome = collector.collect(&mut heap, &roots, &TraceAll);
        assert_eq!(outcome.gc_index, Some(1));
        assert_eq!(outcome.kind, CollectionKind::Full);
        assert_eq!(outcome.swept.freed_objects, 1);
        assert_eq!(outcome.trace.objects_marked, 2);
        assert_eq!(outcome.live_objects_after, 2);
        assert_eq!(collector.collections(), 1);
        assert_eq!(collector.stats().collections(), 1);
    }

    #[test]
    fn parallel_collect_matches_serial_liveness() {
        let (mut heap, mut roots, cls) = setup();
        let mut prev = None;
        for _ in 0..100 {
            let h = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
            if let Some(p) = prev {
                heap.object(h).store_ref(0, TaggedRef::from_handle(p));
            }
            prev = Some(h);
        }
        // 50 garbage objects.
        for _ in 0..50 {
            heap.alloc(cls, &AllocSpec::default()).unwrap();
        }
        let s = roots.add_static();
        roots.set_static(s, prev);

        let mut collector = Collector::new();
        collector.set_threads(4);
        let outcome = collector.collect(&mut heap, &roots, &TraceAll);
        assert_eq!(outcome.swept.freed_objects, 50);
        assert_eq!(outcome.live_objects_after, 100);
    }

    #[test]
    fn collect_with_allows_custom_mark_phases() {
        let (mut heap, _roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::default()).unwrap();
        heap.alloc(cls, &AllocSpec::default()).unwrap(); // garbage

        let mut collector = Collector::new();
        let outcome = collector.collect_with(&mut heap, |heap| {
            (crate::trace(heap, [a], &TraceAll), Vec::new())
        });
        assert_eq!(outcome.swept.freed_objects, 1);
        assert!(heap.contains(a));
    }

    #[test]
    fn parallel_sweep_threads_produce_identical_collections() {
        let build = || {
            let mut reg = ClassRegistry::new();
            let cls = reg.register("T");
            let mut heap = Heap::new(1 << 28);
            let mut roots = RootSet::new();
            let mut keep = None;
            for i in 0..(2 * lp_heap::CHUNK_SLOTS + 77) {
                let h = heap
                    .alloc(cls, &AllocSpec::leaf((i % 11) as u32 * 8))
                    .unwrap();
                if i % 3 == 0 {
                    keep = Some(h);
                }
                if i % 5 == 0 {
                    heap.set_finalizable(h);
                }
            }
            let s = roots.add_static();
            roots.set_static(s, keep);
            (heap, roots)
        };

        let (mut serial_heap, serial_roots) = build();
        let mut serial = Collector::new();
        let a = serial.collect(&mut serial_heap, &serial_roots, &TraceAll);

        let (mut par_heap, par_roots) = build();
        let mut par = Collector::new();
        par.set_threads(4);
        assert_eq!(par.threads(), 4);
        let b = par.collect(&mut par_heap, &par_roots, &TraceAll);

        assert_eq!(a.swept, b.swept);
        assert_eq!(a.live_bytes_after, b.live_bytes_after);
        assert_eq!(serial_heap.free_slots(), par_heap.free_slots());
        // 3 chunks across 4 requested threads: one chunk per spawned thread.
        assert!(b.sweep_thread_times.len() > 1 && b.sweep_thread_times.len() <= 4);
        assert_eq!(a.sweep_thread_times.len(), 1);
        assert_eq!(par.stats().max_sweep_threads(), b.sweep_thread_times.len());
    }

    #[test]
    fn mark_thread_times_reported_per_thread() {
        let (mut heap, mut roots, cls) = setup();
        let mut prev = None;
        for _ in 0..50 {
            let h = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
            if let Some(p) = prev {
                heap.object(h).store_ref(0, TaggedRef::from_handle(p));
            }
            prev = Some(h);
        }
        let s = roots.add_static();
        roots.set_static(s, prev);

        let mut collector = Collector::new();
        collector.set_threads(3);
        let outcome = collector.collect(&mut heap, &roots, &TraceAll);
        assert_eq!(outcome.mark_thread_times.len(), 3);
        collector.set_threads(1);
        let serial = collector.collect(&mut heap, &roots, &TraceAll);
        assert_eq!(serial.mark_thread_times.len(), 1);
        assert_eq!(serial.mark_thread_times[0], serial.mark_time);
        assert_eq!(collector.stats().max_mark_threads(), 3);

        // A custom mark phase that reports no busy times marked serially:
        // its wall-clock time stands in.
        let custom = collector.collect_with(&mut heap, |heap| {
            (crate::trace(heap, roots.iter(), &TraceAll), Vec::new())
        });
        assert_eq!(custom.mark_thread_times, vec![custom.mark_time]);
    }

    #[test]
    fn collections_emit_ordered_phase_spans() {
        let (mut heap, mut roots, cls) = setup();
        let telemetry = lp_telemetry::Telemetry::with_recorder(64);
        heap.set_telemetry(telemetry.clone());
        let live = heap.alloc(cls, &AllocSpec::default()).unwrap();
        heap.alloc(cls, &AllocSpec::default()).unwrap(); // garbage
        let s = roots.add_static();
        roots.set_static(s, Some(live));

        let mut collector = Collector::new();
        collector.collect(&mut heap, &roots, &TraceAll);

        let spans: Vec<_> = telemetry
            .recorder_snapshot()
            .into_iter()
            .filter_map(|line| match line.event {
                Event::PhaseBegin { gc_index, phase } => Some((gc_index, phase, false)),
                Event::PhaseEnd {
                    gc_index,
                    phase,
                    nanos,
                    threads,
                    busy_nanos,
                } => {
                    assert!(threads >= 1);
                    assert!(busy_nanos <= nanos.saturating_mul(threads));
                    Some((gc_index, phase, true))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            vec![
                (1, GcPhase::Mark, false),
                (1, GcPhase::Mark, true),
                (1, GcPhase::Sweep, false),
                (1, GcPhase::Sweep, true),
            ]
        );
    }

    #[test]
    fn incremental_collections_number_and_sweep_like_stw_ones() {
        use crate::IncrementalMarker;

        let (mut heap, mut roots, cls) = setup();
        let telemetry = lp_telemetry::Telemetry::with_recorder(64);
        heap.set_telemetry(telemetry.clone());
        let live = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let child = heap.alloc(cls, &AllocSpec::default()).unwrap();
        heap.object(live)
            .store_ref(0, TaggedRef::from_handle(child));
        heap.alloc(cls, &AllocSpec::leaf(100)).unwrap(); // garbage
        let s = roots.add_static();
        roots.set_static(s, Some(live));

        let mut collector = Collector::new();
        let gc_index = collector.begin_incremental(&mut heap);
        assert_eq!(gc_index, 1);
        let mut marker = IncrementalMarker::start(&mut heap, &roots, 1, &TraceAll);
        while !marker.quantum(&mut heap, &TraceAll).done {}
        marker.flush(&mut heap, &roots, &TraceAll);
        let outcome = collector.finish_incremental(
            &mut heap,
            gc_index,
            marker.stats(),
            Duration::from_micros(7),
            marker.quanta(),
            marker.budget_overruns(),
        );

        assert_eq!(outcome.gc_index, Some(1));
        assert_eq!(outcome.kind, CollectionKind::IncrementalFull);
        assert_eq!(outcome.swept.freed_objects, 1);
        assert_eq!(outcome.trace.objects_marked, 2);
        assert_eq!(collector.collections(), 1);
        assert_eq!(collector.stats().incremental_cycles(), 1);
        assert_eq!(collector.stats().mark_quanta(), marker.quanta());

        let spans: Vec<_> = telemetry
            .recorder_snapshot()
            .into_iter()
            .filter_map(|line| match line.event {
                Event::PhaseBegin { gc_index, phase } => Some((gc_index, phase, false)),
                Event::PhaseEnd {
                    gc_index, phase, ..
                } => Some((gc_index, phase, true)),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            vec![
                (1, GcPhase::Mark, false),
                (1, GcPhase::Mark, true),
                (1, GcPhase::Sweep, false),
                (1, GcPhase::Sweep, true),
            ]
        );

        // The next stop-the-world collection continues the numbering.
        let next = collector.collect(&mut heap, &roots, &TraceAll);
        assert_eq!(next.gc_index, Some(2));
    }

    #[test]
    fn stats_track_multiple_collections() {
        let (mut heap, roots, cls) = setup();
        let mut collector = Collector::new();
        for _ in 0..3 {
            heap.alloc(cls, &AllocSpec::leaf(10)).unwrap();
            collector.collect(&mut heap, &roots, &TraceAll);
        }
        assert_eq!(collector.stats().collections(), 3);
        assert_eq!(collector.stats().total_freed_objects(), 3);
    }
}

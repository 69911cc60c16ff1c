//! Incremental marking: bounded quanta with an SATB final flush.
//!
//! A stop-the-world full collection pauses the mutator for the whole
//! transitive closure, so the pause grows with the live heap. The
//! [`IncrementalMarker`] splits that closure into bounded *quanta*
//! interleaved with mutator work:
//!
//! 1. **snapshot** — [`IncrementalMarker::start`] marks the roots and opens
//!    the heap's SATB cycle ([`Heap::satb_begin`]);
//! 2. **marking** — each [`IncrementalMarker::quantum`] first drains the
//!    SATB log (references the mutator overwrote since the last quantum),
//!    then scans at most `budget` grey objects;
//! 3. **final flush** — [`IncrementalMarker::flush`] is the only remaining
//!    stop-the-world interval: it drains the log once more, re-scans the
//!    roots, marks every object allocated during the cycle (allocate-grey,
//!    via the heap's young watermark), and runs the worklist to exhaustion.
//!
//! # The SATB invariant
//!
//! The marked set must cover every object reachable at the *snapshot*
//! (cycle start) plus everything allocated during the cycle. A mutator
//! store can hide a snapshot-reachable object from the marker in exactly
//! one way: overwrite the last unscanned reference to it after stashing
//! another copy inside an already-scanned object. Logging the overwritten
//! (deleted) reference closes that hole — the flush marks every logged
//! target. New objects cannot be discovered through already-scanned
//! sources either, which is why the young suffix is marked wholesale.
//!
//! If the bounded log ever overflows, dropped entries would break the
//! invariant silently; [`IncrementalMarker::flush`] therefore *degrades*:
//! it abandons the incremental marks, begins a fresh epoch, and re-runs a
//! full stop-the-world trace. Correctness never depends on the log being
//! big enough — only the pause-time win does.
//!
//! [`Heap::satb_begin`]: lp_heap::Heap::satb_begin

use lp_heap::{Heap, RootSet};

use crate::tracer::{grey, scan, trace, EdgeVisitor, TraceStats};

/// What one bounded mark quantum accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantumReport {
    /// Objects newly marked during this quantum.
    pub objects: u64,
    /// Bytes of the objects newly marked during this quantum.
    pub bytes: u64,
    /// SATB log entries drained at the start of this quantum.
    pub satb_drained: u64,
    /// Whether the quantum processed more than its object budget. The SATB
    /// drain is never truncated (deferring it would just re-drain the same
    /// entries), so a drain larger than the budget overruns.
    pub over_budget: bool,
    /// Whether the grey worklist is empty. The caller should schedule the
    /// final flush; until it runs, mutator stores may still refill the log.
    pub done: bool,
}

/// The persistent state of one incremental mark cycle.
///
/// The caller owns scheduling: it decides when to run a quantum and when to
/// stop the world for [`IncrementalMarker::flush`]. The marker owns the
/// grey worklist and the accumulated [`TraceStats`]; marking and scanning
/// are the stop-the-world tracer's own steps — each object's fields are
/// scanned once, [`EdgeVisitor::visit_object`] fires once per mark.
#[derive(Debug)]
pub struct IncrementalMarker {
    /// Grey objects: marked, fields not yet scanned.
    worklist: Vec<u32>,
    /// Work accumulated across the snapshot, every quantum, and the flush.
    stats: TraceStats,
    /// Maximum objects scanned per quantum.
    budget: usize,
    /// Quanta run so far (the flush is not a quantum).
    quanta: u64,
    /// Quanta that processed more than `budget` objects.
    overruns: u64,
    /// Whether the flush had to fall back to a stop-the-world re-mark.
    degraded: bool,
}

impl IncrementalMarker {
    /// Opens a cycle: snapshots the roots into the grey worklist and starts
    /// the heap's SATB log. The caller must already have begun a fresh mark
    /// epoch (see [`Collector::begin_incremental`]) and must not run minor
    /// collections or stop-the-world full collections until [`flush`].
    ///
    /// `budget` is the per-quantum object cap (clamped to at least 1).
    ///
    /// [`Collector::begin_incremental`]: crate::Collector::begin_incremental
    /// [`flush`]: IncrementalMarker::flush
    pub fn start<V: EdgeVisitor + ?Sized>(
        heap: &mut Heap,
        roots: &RootSet,
        budget: usize,
        visitor: &V,
    ) -> IncrementalMarker {
        heap.satb_begin();
        let mut marker = IncrementalMarker {
            worklist: Vec::new(),
            stats: TraceStats::default(),
            budget: budget.max(1),
            quanta: 0,
            overruns: 0,
            degraded: false,
        };
        for root in roots.iter() {
            marker.mark_grey(heap, root.slot(), visitor);
        }
        marker
    }

    /// Runs one bounded quantum: drains the SATB log into the worklist,
    /// then scans up to the budget's worth of grey objects.
    pub fn quantum<V: EdgeVisitor + ?Sized>(
        &mut self,
        heap: &mut Heap,
        visitor: &V,
    ) -> QuantumReport {
        let before = self.stats;
        let drained = self.drain_satb(heap, visitor);
        let mut scanned = 0usize;
        while scanned < self.budget {
            let Some(slot) = self.worklist.pop() else {
                break;
            };
            scan(heap, slot, visitor, &mut self.stats, |t| {
                self.worklist.push(t)
            });
            scanned += 1;
        }
        self.quanta += 1;
        let over_budget = (drained as usize).saturating_add(scanned) > self.budget;
        if over_budget {
            self.overruns += 1;
        }
        QuantumReport {
            objects: self.stats.objects_marked - before.objects_marked,
            bytes: self.stats.bytes_marked - before.bytes_marked,
            satb_drained: drained,
            over_budget,
            done: self.worklist.is_empty(),
        }
    }

    /// The final stop-the-world interval: drains the log, re-scans the
    /// roots, marks every object allocated during the cycle, and runs the
    /// worklist to exhaustion. Closes the SATB cycle; the caller sweeps.
    ///
    /// Returns `true` if the SATB log had overflowed and the flush degraded
    /// to a full stop-the-world re-mark in a fresh epoch (staleness ticks
    /// may then be applied twice for this collection — acceptable for a
    /// path that only exists as an overflow backstop).
    pub fn flush<V: EdgeVisitor + ?Sized>(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        visitor: &V,
    ) -> bool {
        if heap.satb_overflowed() > 0 {
            // Dropped log entries mean the snapshot is incomplete and no
            // amount of re-scanning repairs it. Abandon the incremental
            // marks and re-run the whole closure stop-the-world.
            heap.satb_end();
            heap.begin_mark_epoch();
            self.worklist.clear();
            let stats = trace(heap, roots.iter(), visitor);
            self.stats = self.stats.merged(stats);
            self.degraded = true;
            return true;
        }
        self.drain_satb(heap, visitor);
        for root in roots.iter() {
            self.mark_grey(heap, root.slot(), visitor);
        }
        // Allocate-grey: a new object stored into an already-scanned source
        // is invisible to both the closure and the deleted-reference log.
        let young: Vec<u32> = heap.satb_young_suffix().to_vec();
        for slot in young {
            self.mark_grey(heap, slot, visitor);
        }
        while let Some(slot) = self.worklist.pop() {
            scan(heap, slot, visitor, &mut self.stats, |t| {
                self.worklist.push(t)
            });
        }
        heap.satb_end();
        false
    }

    /// Work accumulated so far (after [`flush`], the cycle's total).
    ///
    /// [`flush`]: IncrementalMarker::flush
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Quanta run so far.
    pub fn quanta(&self) -> u64 {
        self.quanta
    }

    /// Quanta that exceeded the object budget.
    pub fn budget_overruns(&self) -> u64 {
        self.overruns
    }

    /// Whether the flush degraded to a stop-the-world re-mark.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Whether the grey worklist is empty (the SATB log may still refill
    /// until the flush).
    pub fn drained(&self) -> bool {
        self.worklist.is_empty()
    }

    fn drain_satb<V: EdgeVisitor + ?Sized>(&mut self, heap: &mut Heap, visitor: &V) -> u64 {
        let entries = heap.satb_drain();
        let drained = entries.len() as u64;
        for slot in entries {
            self.mark_grey(heap, slot, visitor);
        }
        drained
    }

    /// Marks `slot` and queues it for scanning. No-op if already marked
    /// this epoch.
    fn mark_grey<V: EdgeVisitor + ?Sized>(&mut self, heap: &Heap, slot: u32, visitor: &V) {
        if grey(heap, slot, visitor, &mut self.stats) {
            self.worklist.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::TraceAll;
    use lp_heap::{AllocSpec, ClassRegistry, Handle, TaggedRef};

    fn setup() -> (Heap, RootSet, lp_heap::ClassId) {
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        (Heap::new(1 << 22), RootSet::new(), cls)
    }

    /// Drives a cycle to completion with no interleaved mutation.
    fn run_to_flush(heap: &mut Heap, roots: &RootSet, budget: usize) -> IncrementalMarker {
        heap.begin_mark_epoch();
        let mut marker = IncrementalMarker::start(heap, roots, budget, &TraceAll);
        while !marker.quantum(heap, &TraceAll).done {}
        marker.flush(heap, roots, &TraceAll);
        marker
    }

    #[test]
    fn matches_stw_marked_set_without_mutation() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(2)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let c = heap.alloc(cls, &AllocSpec::default()).unwrap();
        let dead = heap.alloc(cls, &AllocSpec::leaf(64)).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        heap.object(a).store_ref(1, TaggedRef::from_handle(c));
        heap.object(b).store_ref(0, TaggedRef::from_handle(c));
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        let marker = run_to_flush(&mut heap, &roots, 1);
        assert_eq!(marker.stats().objects_marked, 3);
        assert!(marker.quanta() >= 3, "budget 1 needs a quantum per object");
        heap.sweep();
        assert!(heap.contains(a) && heap.contains(b) && heap.contains(c));
        assert!(!heap.contains(dead));
    }

    #[test]
    fn quantum_respects_the_object_budget() {
        let (mut heap, mut roots, cls) = setup();
        let mut prev: Option<Handle> = None;
        for _ in 0..100 {
            let h = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
            if let Some(p) = prev {
                heap.object(h).store_ref(0, TaggedRef::from_handle(p));
            }
            prev = Some(h);
        }
        let s = roots.add_static();
        roots.set_static(s, prev);

        heap.begin_mark_epoch();
        let mut marker = IncrementalMarker::start(&mut heap, &roots, 10, &TraceAll);
        let mut quanta = 0;
        loop {
            let report = marker.quantum(&mut heap, &TraceAll);
            assert!(report.objects <= 10, "a chain marks at most budget/quantum");
            assert!(!report.over_budget);
            quanta += 1;
            if report.done {
                break;
            }
        }
        assert!(quanta >= 10, "100 objects / budget 10");
        assert_eq!(marker.quanta(), quanta);
        assert_eq!(marker.budget_overruns(), 0);
        marker.flush(&mut heap, &roots, &TraceAll);
        assert_eq!(marker.stats().objects_marked, 100);
    }

    #[test]
    fn satb_log_preserves_overwritten_snapshot_reference() {
        // root -> a -> b. Scan a, then overwrite a.0 (the only reference to
        // b) with the barrier's deleted-reference log active. b must still
        // be marked: it was reachable at the snapshot.
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::leaf(8)).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        heap.begin_mark_epoch();
        let mut marker = IncrementalMarker::start(&mut heap, &roots, 1, &TraceAll);
        // Quantum 1 scans a, marking b grey — but model the worst case:
        // the store happens before b is scanned, and b's entry could have
        // been dropped if the log were unsound. Overwrite and log first.
        heap.satb_push(b.slot());
        heap.object(a).store_ref(0, TaggedRef::NULL);
        while !marker.quantum(&mut heap, &TraceAll).done {}
        assert!(!marker.flush(&mut heap, &roots, &TraceAll));
        heap.sweep();
        assert!(heap.contains(b), "snapshot-reachable object swept");
    }

    #[test]
    fn hidden_pointer_store_cannot_escape_the_log() {
        // The canonical SATB race: root -> a (scanned early), root -> c,
        // c.0 -> b. The mutator copies c.0 into a.0 (already scanned, so
        // never rescanned) and then clears c.0, logging the deleted
        // reference. Without the log, b would be unreachable to the marker.
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::leaf(8)).unwrap();
        let c = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        heap.object(c).store_ref(0, TaggedRef::from_handle(b));
        let sa = roots.add_static();
        roots.set_static(sa, Some(a));
        let sc = roots.add_static();
        roots.set_static(sc, Some(c));

        heap.begin_mark_epoch();
        let mut marker = IncrementalMarker::start(&mut heap, &roots, 2, &TraceAll);
        // One quantum scans both roots' objects... except b hides: mutate
        // before the quantum that would have scanned c's field.
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        // a is already grey/scanned in the worst case — simulate it by
        // running the first quantum now (scans a and c in some order).
        let first = marker.quantum(&mut heap, &TraceAll);
        // Whatever was scanned, now clear c.0 with the barrier.
        heap.satb_push(b.slot());
        heap.object(c).store_ref(0, TaggedRef::NULL);
        // And also clear a.0 (logging again): b now has no heap reference.
        heap.satb_push(b.slot());
        heap.object(a).store_ref(0, TaggedRef::NULL);
        let _ = first;
        while !marker.quantum(&mut heap, &TraceAll).done {}
        marker.flush(&mut heap, &roots, &TraceAll);
        heap.sweep();
        assert!(heap.contains(b), "deleted-reference log must preserve b");
    }

    #[test]
    fn objects_allocated_during_the_cycle_survive() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let s = roots.add_static();
        roots.set_static(s, Some(a));
        // Promote `a` out of the nursery so the young watermark is clean.
        heap.begin_mark_epoch();
        heap.try_mark(a.slot());
        heap.sweep();

        heap.begin_mark_epoch();
        let mut marker = IncrementalMarker::start(&mut heap, &roots, 8, &TraceAll);
        let _ = marker.quantum(&mut heap, &TraceAll);
        // Allocated mid-cycle, stored into the already-scanned `a`: only
        // allocate-grey saves it (the log never saw it — nothing was
        // overwritten, a.0 was null).
        let young = heap.alloc(cls, &AllocSpec::leaf(16)).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(young));
        while !marker.quantum(&mut heap, &TraceAll).done {}
        marker.flush(&mut heap, &roots, &TraceAll);
        heap.sweep();
        assert!(heap.contains(young));
    }

    #[test]
    fn log_overflow_degrades_to_a_sound_stw_remark() {
        let (mut heap, mut roots, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::leaf(8)).unwrap();
        let dead = heap.alloc(cls, &AllocSpec::leaf(8)).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        heap.begin_mark_epoch();
        let mut marker = IncrementalMarker::start(&mut heap, &roots, 4, &TraceAll);
        // Blow the log: every push past the cap is dropped and counted.
        for _ in 0..=lp_heap::SATB_LOG_CAP {
            heap.satb_push(b.slot());
        }
        assert!(heap.satb_overflowed() > 0);
        assert!(marker.flush(&mut heap, &roots, &TraceAll));
        assert!(marker.degraded());
        heap.sweep();
        assert!(heap.contains(a) && heap.contains(b));
        assert!(
            !heap.contains(dead),
            "the degraded re-mark is still precise"
        );
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::tracer::TraceAll;
    use lp_heap::{AllocSpec, ClassRegistry, Handle, TaggedRef};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// Run one mark quantum.
        Quantum,
        /// Store `edges[src] -> tgt` (None clears), with the SATB barrier.
        Store { src: usize, tgt: Option<usize> },
        /// Allocate a new object and root it in a fresh static.
        Alloc,
    }

    /// Decodes one `(kind, src, tgt)` seed: kinds 0–1 run a quantum, 2–3
    /// store (tgt == 24 clears the field), 4 allocates.
    fn decode_op((kind, src, tgt): (u8, usize, usize)) -> Op {
        match kind % 5 {
            0 | 1 => Op::Quantum,
            2 | 3 => Op::Store {
                src,
                tgt: if tgt == 24 { None } else { Some(tgt) },
            },
            _ => Op::Alloc,
        }
    }

    /// Host-side reachability over an edge map.
    fn reachable(n: usize, edges: &[Option<usize>], roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = roots.to_vec();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            if let Some(t) = edges[i] {
                if !seen[t] {
                    stack.push(t);
                }
            }
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// On random single-field graphs with random interleaved mutation
        /// (stores during the active cycle, barriered like the runtime's
        /// write path), the incremental closure is
        ///
        /// * **sound**: everything reachable at the flush is marked, and
        /// * **bounded**: everything marked was reachable at the snapshot
        ///   or allocated during the cycle;
        ///
        /// and with no interleaved stores it equals the stop-the-world
        /// closure exactly.
        #[test]
        fn prop_incremental_closure_is_sound_and_bounded(
            n in 2usize..24,
            edge_seeds in proptest::collection::vec(0usize..25, 2..24),
            root_seeds in proptest::collection::vec(0usize..24, 1..4),
            budget in 1usize..8,
            op_seeds in proptest::collection::vec((0u8..5, 0usize..24, 0usize..25), 0..40),
        ) {
            let ops: Vec<Op> = op_seeds.into_iter().map(decode_op).collect();
            let mut reg = ClassRegistry::new();
            let cls = reg.register("T");
            let mut heap = Heap::new(1 << 24);
            let mut roots = RootSet::new();

            let mut handles: Vec<Handle> = (0..n)
                .map(|_| heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap())
                .collect();
            let mut edges: Vec<Option<usize>> = (0..n)
                .map(|i| match edge_seeds.get(i) {
                    Some(&seed) if seed < 24 => Some(seed % n),
                    _ => None,
                })
                .collect();
            for (i, tgt) in edges.iter().enumerate() {
                if let Some(t) = tgt {
                    heap.object(handles[i])
                        .store_ref(0, TaggedRef::from_handle(handles[*t]));
                }
            }
            let mut root_idx: Vec<usize> = root_seeds.iter().map(|r| r % n).collect();
            root_idx.sort_unstable();
            root_idx.dedup();
            for i in &root_idx {
                let s = roots.add_static();
                roots.set_static(s, Some(handles[*i]));
            }

            let snapshot = reachable(n, &edges, &root_idx);
            let mut allocated_during = vec![false; n];
            let mutated = ops.iter().any(|op| matches!(op, Op::Store { .. }));

            heap.begin_mark_epoch();
            let mut marker =
                IncrementalMarker::start(&mut heap, &roots, budget, &TraceAll);
            for op in &ops {
                match op {
                    Op::Quantum => {
                        let _ = marker.quantum(&mut heap, &TraceAll);
                    }
                    Op::Store { src, tgt } => {
                        let src = src % edges.len();
                        let tgt = tgt.map(|t| t % edges.len());
                        // A real mutator can only store references it holds,
                        // i.e. to objects reachable right now — and can only
                        // write into objects it can reach. Skip stores no
                        // legal mutator could perform.
                        let now = reachable(handles.len(), &edges, &root_idx);
                        if !now[src] || tgt.is_some_and(|t| !now[t]) {
                            continue;
                        }
                        // The runtime's barrier: log the deleted reference.
                        if let Some(old) = edges[src] {
                            heap.satb_push(handles[old].slot());
                        }
                        let word = match tgt {
                            Some(t) => TaggedRef::from_handle(handles[t]),
                            None => TaggedRef::NULL,
                        };
                        heap.object(handles[src]).store_ref(0, word);
                        edges[src] = tgt;
                    }
                    Op::Alloc => {
                        let h = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
                        handles.push(h);
                        edges.push(None);
                        allocated_during.push(true);
                        let s = roots.add_static();
                        roots.set_static(s, Some(h));
                        root_idx.push(handles.len() - 1);
                    }
                }
            }
            prop_assert!(!marker.flush(&mut heap, &roots, &TraceAll));

            let total = handles.len();
            let at_flush = reachable(total, &edges, &root_idx);
            for (i, h) in handles.iter().enumerate() {
                let marked = heap.is_marked(h.slot());
                if at_flush[i] {
                    prop_assert!(marked, "reachable-at-flush object {} unmarked", i);
                }
                let in_bound =
                    snapshot.get(i).copied().unwrap_or(false) || allocated_during[i];
                if marked {
                    prop_assert!(in_bound, "marked object {} outside the SATB bound", i);
                }
                if !mutated {
                    // No stores: the closure is exactly the STW closure over
                    // the snapshot plus allocate-grey.
                    prop_assert_eq!(marked, in_bound, "object {}", i);
                }
            }

            // The sweep retains exactly the marked set.
            let marked_set: Vec<bool> =
                handles.iter().map(|h| heap.is_marked(h.slot())).collect();
            heap.sweep();
            for (i, h) in handles.iter().enumerate() {
                prop_assert_eq!(heap.contains(*h), marked_set[i], "post-sweep object {}", i);
            }
        }
    }
}

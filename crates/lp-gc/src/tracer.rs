//! The transitive closure and the mark step every closure shares.

use lp_heap::{Handle, Heap, Object, TaggedRef};

/// What the tracer should do with one object-to-object reference.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EdgeAction {
    /// Mark the target and scan it (if this was the first mark).
    Trace,
    /// Do not trace through this reference. Used for poisoned references
    /// (never dereferenced, §4.3) and for references deferred to leak
    /// pruning's candidate queue during the SELECT state (§4.2).
    Skip,
}

/// Classifies and optionally rewrites each reference the closure scans.
///
/// The visitor sees every non-null reference field of every scanned object
/// exactly once per closure. Because fields are atomic, the visitor can
/// rewrite them in place through the `&Object` it receives — this is how the
/// collector sets the unlogged bit on every reference after a collection and
/// how the PRUNE state poisons selected references.
///
/// One visitor serves every closure: the serial [`trace`], the
/// work-packet [`par_trace`](crate::par_trace) and the
/// [`IncrementalMarker`](crate::IncrementalMarker). It takes `&self` and is
/// `Sync` so several marker threads can share it; state it accumulates
/// lives behind atomics or a lock, the way the paper's edge-table updates
/// tolerate races (§4.5).
pub trait EdgeVisitor: Sync {
    /// Called for each non-null reference `reference` stored in field
    /// `field` of the object in `src_slot`. Returns whether to trace
    /// through it.
    fn visit_edge(
        &self,
        heap: &Heap,
        src_slot: u32,
        src: &Object,
        field: usize,
        reference: TaggedRef,
    ) -> EdgeAction;

    /// Called once per object when it is first marked (roots included).
    fn visit_object(&self, heap: &Heap, slot: u32, object: &Object) {
        let _ = (heap, slot, object);
    }
}

/// The trivial visitor of a plain reachability-based collector: trace every
/// reference, rewrite nothing. This is the paper's unmodified "Base"
/// configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceAll;

impl EdgeVisitor for TraceAll {
    fn visit_edge(
        &self,
        _heap: &Heap,
        _src_slot: u32,
        _src: &Object,
        _field: usize,
        _reference: TaggedRef,
    ) -> EdgeAction {
        EdgeAction::Trace
    }
}

/// Counters produced by one transitive closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Objects marked (each counted once).
    pub objects_marked: u64,
    /// Total simulated bytes of marked objects — the "reachable memory" the
    /// paper plots in Figures 1 and 9.
    pub bytes_marked: u64,
    /// Non-null reference fields inspected.
    pub edges_visited: u64,
}

impl TraceStats {
    /// Sums two stats, e.g. leak pruning's in-use closure plus its stale
    /// closure.
    pub fn merged(self, other: TraceStats) -> TraceStats {
        TraceStats {
            objects_marked: self.objects_marked + other.objects_marked,
            bytes_marked: self.bytes_marked + other.bytes_marked,
            edges_visited: self.edges_visited + other.edges_visited,
        }
    }
}

/// Runs a transitive closure from `roots` on the calling thread, marking
/// objects in the heap's current mark epoch. The caller must have called
/// [`Heap::begin_mark_epoch`] (directly or via [`Collector`]).
///
/// Already-marked roots are skipped, so the closure composes: leak pruning
/// runs its in-use closure from the program roots, then continues with a
/// second closure from the candidate queue using the same epoch.
///
/// [`Collector`]: crate::Collector
pub fn trace<V: EdgeVisitor + ?Sized>(
    heap: &Heap,
    roots: impl IntoIterator<Item = Handle>,
    visitor: &V,
) -> TraceStats {
    let mut stats = TraceStats::default();
    let mut worklist: Vec<u32> = Vec::new();
    for root in roots {
        debug_assert!(heap.contains(root), "root points to reclaimed object");
        if grey(heap, root.slot(), visitor, &mut stats) {
            worklist.push(root.slot());
        }
    }
    while let Some(slot) = worklist.pop() {
        scan(heap, slot, visitor, &mut stats, |target| {
            worklist.push(target)
        });
    }
    stats
}

/// The mark step: marks `slot` if this epoch has not, counts it, and shows
/// it to the visitor. Returns whether the object turned grey (marked, fields
/// not yet scanned); the caller queues it on its own worklist.
#[inline]
pub(crate) fn grey<V: EdgeVisitor + ?Sized>(
    heap: &Heap,
    slot: u32,
    visitor: &V,
    stats: &mut TraceStats,
) -> bool {
    if !heap.try_mark(slot) {
        return false;
    }
    let object = heap
        .object_by_slot(slot)
        .expect("marked slot is live: no sweep runs during a mark");
    stats.objects_marked += 1;
    stats.bytes_marked += u64::from(object.footprint());
    visitor.visit_object(heap, slot, object);
    true
}

/// The scan step: shows each non-null field of the grey object in `slot`
/// to the visitor, greys what it traces, and hands each newly grey slot to
/// `push`.
#[inline]
pub(crate) fn scan<V: EdgeVisitor + ?Sized>(
    heap: &Heap,
    slot: u32,
    visitor: &V,
    stats: &mut TraceStats,
    mut push: impl FnMut(u32),
) {
    let object = heap
        .object_by_slot(slot)
        .expect("grey slot is live: no sweep runs during a mark");
    for (field, reference) in object.iter_refs() {
        if reference.is_null() {
            continue;
        }
        stats.edges_visited += 1;
        if visitor.visit_edge(heap, slot, object, field, reference) == EdgeAction::Trace {
            let target = reference.slot().expect("non-null reference has a slot");
            if grey(heap, target, visitor, stats) {
                push(target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_heap::{AllocSpec, ClassRegistry, Heap};

    fn setup() -> (Heap, lp_heap::ClassId) {
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        (Heap::new(1 << 20), cls)
    }

    #[test]
    fn traces_transitively() {
        let (mut heap, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let c = heap.alloc(cls, &AllocSpec::default()).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        heap.object(b).store_ref(0, TaggedRef::from_handle(c));

        heap.begin_mark_epoch();
        let stats = trace(&heap, [a], &TraceAll);
        assert_eq!(stats.objects_marked, 3);
        assert_eq!(stats.edges_visited, 2);
        assert!(heap.is_marked(c.slot()));
    }

    #[test]
    fn handles_cycles() {
        let (mut heap, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        heap.object(b).store_ref(0, TaggedRef::from_handle(a));

        heap.begin_mark_epoch();
        let stats = trace(&heap, [a], &TraceAll);
        assert_eq!(stats.objects_marked, 2);
    }

    #[test]
    fn skip_prevents_marking() {
        struct SkipAll;
        impl EdgeVisitor for SkipAll {
            fn visit_edge(
                &self,
                _: &Heap,
                _: u32,
                _: &Object,
                _: usize,
                _: TaggedRef,
            ) -> EdgeAction {
                EdgeAction::Skip
            }
        }

        let (mut heap, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::default()).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));

        heap.begin_mark_epoch();
        let stats = trace(&heap, [a], &SkipAll);
        assert_eq!(stats.objects_marked, 1);
        assert!(!heap.is_marked(b.slot()));
    }

    #[test]
    fn composed_closures_share_epoch() {
        let (mut heap, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::default()).unwrap();
        let b = heap.alloc(cls, &AllocSpec::default()).unwrap();

        heap.begin_mark_epoch();
        let s1 = trace(&heap, [a], &TraceAll);
        let s2 = trace(&heap, [a, b], &TraceAll);
        assert_eq!(s1.objects_marked, 1);
        assert_eq!(s2.objects_marked, 1, "a already marked; only b is new");
        let merged = s1.merged(s2);
        assert_eq!(merged.objects_marked, 2);
    }

    #[test]
    fn visitor_sees_every_edge_once() {
        struct Count(std::sync::atomic::AtomicU64);
        impl EdgeVisitor for Count {
            fn visit_edge(
                &self,
                _: &Heap,
                _: u32,
                _: &Object,
                _: usize,
                _: TaggedRef,
            ) -> EdgeAction {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                EdgeAction::Trace
            }
        }
        let (mut heap, cls) = setup();
        let a = heap.alloc(cls, &AllocSpec::with_refs(2)).unwrap();
        let b = heap.alloc(cls, &AllocSpec::default()).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        heap.object(a).store_ref(1, TaggedRef::from_handle(b));

        heap.begin_mark_epoch();
        let v = Count(Default::default());
        trace(&heap, [a], &v);
        assert_eq!(
            v.0.into_inner(),
            2,
            "both fields visited even though target repeats"
        );
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::parallel::par_trace;
    use crate::IncrementalMarker;
    use lp_heap::{AllocSpec, ClassRegistry, Heap, RootSet};
    use proptest::prelude::*;

    /// Builds a heap with `n` objects and the given edge list, returning
    /// the handles.
    fn build_graph(n: usize, edges: &[(usize, usize)]) -> (Heap, Vec<Handle>) {
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        let mut heap = Heap::new(1 << 26);
        let out_degree = |i: usize| edges.iter().filter(|(s, _)| *s == i).count() as u32;
        let handles: Vec<Handle> = (0..n)
            .map(|i| {
                heap.alloc(cls, &AllocSpec::with_refs(out_degree(i).max(1)))
                    .unwrap()
            })
            .collect();
        let mut next_field = vec![0usize; n];
        for (src, tgt) in edges {
            let field = next_field[*src];
            next_field[*src] += 1;
            heap.object(handles[*src])
                .store_ref(field, TaggedRef::from_handle(handles[*tgt]));
        }
        (heap, handles)
    }

    /// Reference reachability on the host.
    fn reachable(n: usize, edges: &[(usize, usize)], roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = roots.to_vec();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            for (s, t) in edges {
                if *s == i && !seen[*t] {
                    stack.push(*t);
                }
            }
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The serial tracer, the work-packet tracer and the incremental
        /// marker share one mark step: on the same graph each marks exactly
        /// the host-computed reachable set with identical counts.
        #[test]
        fn prop_trace_matches_reference_reachability(
            n in 2usize..40,
            edge_seeds in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
            root_seeds in proptest::collection::vec(0usize..40, 1..5),
        ) {
            let edges: Vec<(usize, usize)> =
                edge_seeds.iter().map(|(s, t)| (s % n, t % n)).collect();
            let roots: Vec<usize> = {
                let mut r: Vec<usize> = root_seeds.iter().map(|r| r % n).collect();
                r.sort_unstable();
                r.dedup();
                r
            };
            let (mut heap, handles) = build_graph(n, &edges);
            let expect = reachable(n, &edges, &roots);

            heap.begin_mark_epoch();
            let root_handles: Vec<Handle> = roots.iter().map(|i| handles[*i]).collect();
            let serial = trace(&heap, root_handles.iter().copied(), &TraceAll);
            for (i, h) in handles.iter().enumerate() {
                prop_assert_eq!(heap.is_marked(h.slot()), expect[i], "object {}", i);
            }

            heap.begin_mark_epoch();
            let (parallel, _) = par_trace(&heap, root_handles.iter().copied(), &TraceAll, 3);
            prop_assert_eq!(serial, parallel);
            for (i, h) in handles.iter().enumerate() {
                prop_assert_eq!(heap.is_marked(h.slot()), expect[i], "parallel object {}", i);
            }

            // The sweep retains exactly the reachable set (and promotes it
            // out of the nursery, so the incremental flush below has no
            // allocate-grey suffix to add).
            heap.sweep();
            for (i, h) in handles.iter().enumerate() {
                prop_assert_eq!(heap.contains(*h), expect[i], "post-sweep object {}", i);
            }

            let mut root_set = RootSet::new();
            for h in &root_handles {
                let s = root_set.add_static();
                root_set.set_static(s, Some(*h));
            }
            heap.begin_mark_epoch();
            let mut marker = IncrementalMarker::start(&mut heap, &root_set, 1, &TraceAll);
            while !marker.quantum(&mut heap, &TraceAll).done {}
            prop_assert!(!marker.flush(&mut heap, &root_set, &TraceAll));
            prop_assert_eq!(serial, marker.stats());
            for (i, h) in handles.iter().enumerate().filter(|(i, _)| expect[*i]) {
                prop_assert!(heap.is_marked(h.slot()), "incremental object {}", i);
            }
        }
    }
}

//! Multi-threaded checks of the collector closures (§4.5).
//!
//! The closures in `closures.rs` run unchanged on one marker thread or on
//! N; these tests drive them on a wider heap at one thread and at four and
//! require the same marks, staleness ticks, charges and poisonings.

#[cfg(test)]
mod tests {
    use crate::closures::{select_mark, InUseVisitor, ObserveVisitor, PruneVisitor, Selection};
    use crate::edge_table::{EdgeKey, EdgeTable};
    use crate::liveness::EMPTY_VERDICTS;
    use lp_gc::par_trace;
    use lp_heap::{AllocSpec, ClassRegistry, Handle, Heap, RootSet, TaggedRef};

    /// Builds a heap with `lists` stale chains hanging off one live hub.
    fn leaky_heap(lists: u32, depth: u32) -> (Heap, ClassRegistry, Vec<Handle>) {
        let mut classes = ClassRegistry::new();
        let hub_cls = classes.register("Hub");
        let node_cls = classes.register("Node");
        let mut heap = Heap::new(1 << 26);
        let hub = heap.alloc(hub_cls, &AllocSpec::with_refs(lists)).unwrap();
        for l in 0..lists {
            let mut prev: Option<Handle> = None;
            for _ in 0..depth {
                let n = heap.alloc(node_cls, &AllocSpec::new(1, 0, 64)).unwrap();
                if let Some(p) = prev {
                    heap.object(n)
                        .store_ref(0, TaggedRef::from_handle(p).with_unlogged());
                }
                heap.object(n).set_stale(4);
                prev = Some(n);
            }
            heap.object(hub).store_ref(
                l as usize,
                TaggedRef::from_handle(prev.unwrap()).with_unlogged(),
            );
        }
        (heap, classes, vec![hub])
    }

    #[test]
    fn parallel_select_matches_serial_charges() {
        // The whole SELECT mark: the deferred chains are traced by the
        // stale closure and charged to the hub's edge, identically at one
        // thread and at four (the chains are disjoint).
        let mut runs = Vec::new();
        for threads in [1, 4] {
            let (mut heap, classes, hub) = leaky_heap(8, 50);
            let mut roots = RootSet::new();
            let s = roots.add_static();
            roots.set_static(s, Some(hub[0]));
            let table = EdgeTable::new(256);
            heap.begin_mark_epoch();
            let in_use = InUseVisitor::new(None, &table, &EMPTY_VERDICTS);
            let (stats, busy, candidates) = select_mark(&heap, &roots, in_use, threads);
            assert_eq!(busy.len(), threads);
            assert_eq!(candidates.len(), 8, "one candidate per chain head");
            assert_eq!(stats.objects_marked, 1 + 8 * 50);
            let edge = EdgeKey::new(
                classes.lookup("Hub").unwrap(),
                classes.lookup("Node").unwrap(),
            );
            let charged = table.bytes_used(edge);
            assert!(charged > 0, "the chains charge the hub's edge");
            assert_eq!(table.select_max_bytes(), Some((edge, charged)));
            runs.push((stats, charged));
        }
        assert_eq!(runs[0], runs[1], "one thread and four charge alike");
    }

    #[test]
    fn parallel_prune_poisons_selected_edge() {
        // Every chain head is poisoned exactly once and only the hub
        // survives the sweep, at one thread and at four.
        for threads in [1, 4] {
            let (mut heap, classes, roots) = leaky_heap(4, 20);
            let edge = EdgeKey::new(
                classes.lookup("Hub").unwrap(),
                classes.lookup("Node").unwrap(),
            );
            let table = EdgeTable::new(64);
            heap.begin_mark_epoch();
            let visitor = PruneVisitor::new(None, &table, &EMPTY_VERDICTS, Selection::Edge(edge));
            par_trace(&heap, roots, &visitor, threads);
            let pruned = visitor.pruned.into_inner().unwrap();
            assert_eq!(pruned.get(&edge).copied(), Some(4), "{threads} threads");
            heap.sweep();
            assert_eq!(heap.live_objects(), 1, "only the hub survives");
        }
    }

    #[test]
    fn parallel_observe_sets_bits_and_ticks() {
        // Every object is ticked once and every reference left unlogged,
        // whichever thread reached it.
        let observe = ObserveVisitor {
            stale_clock: Some(1),
        };
        for threads in [1, 4] {
            let (mut heap, _classes, roots) = leaky_heap(2, 5);
            for (_, obj) in heap.iter() {
                obj.clear_stale();
            }
            heap.begin_mark_epoch();
            par_trace(&heap, roots, &observe, threads);
            for (_, obj) in heap.iter() {
                assert_eq!(obj.stale(), 1, "{threads} threads");
                for (_, r) in obj.iter_refs() {
                    if !r.is_null() {
                        assert!(r.is_unlogged(), "{threads} threads");
                    }
                }
            }
        }
    }
}

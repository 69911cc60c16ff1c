//! Parallel marking with work-stealing deques.
//!
//! Mirrors MMTk's parallel trace (§4.5 of the paper): marker threads share a
//! pool of work, steal from each other to balance load, and rely on the
//! heap's atomic mark words so each object is processed exactly once. Each
//! worker runs the same mark and scan steps as the serial [`trace`]; only
//! the worklist differs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use lp_heap::{Handle, Heap};

use crate::tracer::{grey, scan, trace, EdgeVisitor, TraceStats};

/// Runs a transitive closure from `roots` using `threads` marker threads,
/// returning the closure's counts and each marker thread's busy time (root
/// scanning is attributed to the calling thread and not included).
///
/// Every reachable object is marked exactly once and every non-null edge
/// of a scanned object is visited once, as in [`trace`]; with more than one
/// thread the visit order is nondeterministic. One thread runs [`trace`]
/// on the calling thread and spawns nothing.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn par_trace<V: EdgeVisitor + ?Sized>(
    heap: &Heap,
    roots: impl IntoIterator<Item = Handle>,
    visitor: &V,
    threads: usize,
) -> (TraceStats, Vec<Duration>) {
    assert!(threads > 0, "need at least one marker thread");
    if threads == 1 {
        let start = Instant::now();
        let stats = trace(heap, roots, visitor);
        return (stats, vec![start.elapsed()]);
    }

    let injector: Injector<u32> = Injector::new();
    let mut stats = TraceStats::default();
    for root in roots {
        debug_assert!(heap.contains(root), "root points to reclaimed object");
        if grey(heap, root.slot(), visitor, &mut stats) {
            injector.push(root.slot());
        }
    }

    // Termination protocol: a worker that finds no work anywhere declares
    // itself idle; the closure is complete when every worker is idle and
    // every queue is empty (work is only ever produced by non-idle
    // workers). This costs nothing on the per-object hot path — a shared
    // in-flight counter would be the dominant contention point on
    // pointer-chase graphs.
    let idle_workers = AtomicUsize::new(0);
    let workers: Vec<Worker<u32>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<u32>> = workers.iter().map(Worker::stealer).collect();

    let per_thread: Vec<(TraceStats, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|worker| {
                let (injector, stealers, idle_workers) = (&injector, &stealers, &idle_workers);
                scope.spawn(move || {
                    let start = Instant::now();
                    let local =
                        run_worker(heap, visitor, &worker, injector, stealers, idle_workers);
                    (local, start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut busy = Vec::with_capacity(threads);
    for (local, elapsed) in per_thread {
        stats = stats.merged(local);
        busy.push(elapsed);
    }
    (stats, busy)
}

/// One marker thread: scan until every worker is idle and every queue is
/// empty. Counts accumulate thread-locally — per-object shared-counter
/// traffic would dominate pointer-chase graphs.
fn run_worker<V: EdgeVisitor + ?Sized>(
    heap: &Heap,
    visitor: &V,
    worker: &Worker<u32>,
    injector: &Injector<u32>,
    stealers: &[Stealer<u32>],
    idle_workers: &AtomicUsize,
) -> TraceStats {
    let mut local = TraceStats::default();
    'work: loop {
        if let Some(slot) = find_work(worker, injector, stealers) {
            scan(heap, slot, visitor, &mut local, |target| {
                worker.push(target)
            });
            continue;
        }

        // Nothing anywhere: declare idle and wait for either new work to
        // appear or everyone to agree the closure is done.
        idle_workers.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        loop {
            let queues_empty = injector.is_empty() && stealers.iter().all(Stealer::is_empty);
            if !queues_empty {
                idle_workers.fetch_sub(1, Ordering::AcqRel);
                continue 'work;
            }
            if idle_workers.load(Ordering::Acquire) == stealers.len() {
                // Every worker is idle and every queue is empty: since
                // only non-idle workers produce work, none can appear.
                break 'work;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
    local
}

fn find_work(
    worker: &Worker<u32>,
    injector: &Injector<u32>,
    stealers: &[Stealer<u32>],
) -> Option<u32> {
    if let Some(slot) = worker.pop() {
        return Some(slot);
    }
    loop {
        match injector.steal_batch_and_pop(worker) {
            Steal::Success(slot) => return Some(slot),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    for stealer in stealers {
        loop {
            // Steal a batch, not a single item: it halves the victim's
            // deque once instead of contending on it per object.
            match stealer.steal_batch_and_pop(worker) {
                Steal::Success(slot) => return Some(slot),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::TraceAll;
    use lp_heap::{AllocSpec, ClassRegistry, TaggedRef};

    /// Builds a wide tree so multiple threads have real work.
    fn build_tree(heap: &mut Heap, cls: lp_heap::ClassId, depth: u32, fanout: u32) -> Handle {
        let root = heap
            .alloc(cls, &AllocSpec::with_refs(fanout))
            .expect("alloc");
        if depth > 0 {
            for i in 0..fanout {
                let child = build_tree(heap, cls, depth - 1, fanout);
                heap.object(root)
                    .store_ref(i as usize, TaggedRef::from_handle(child));
            }
        }
        root
    }

    #[test]
    fn parallel_matches_serial() {
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        let mut heap = Heap::new(1 << 24);
        let root = build_tree(&mut heap, cls, 6, 4);

        heap.begin_mark_epoch();
        let serial = trace(&heap, [root], &TraceAll);

        heap.begin_mark_epoch();
        let (parallel, busy) = par_trace(&heap, [root], &TraceAll, 4);

        assert_eq!(serial.objects_marked, parallel.objects_marked);
        assert_eq!(serial.bytes_marked, parallel.bytes_marked);
        assert_eq!(serial.edges_visited, parallel.edges_visited);
        assert_eq!(busy.len(), 4, "one busy time per marker thread");
    }

    #[test]
    fn single_thread_parallel_works() {
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        let mut heap = Heap::new(1 << 20);
        let root = build_tree(&mut heap, cls, 3, 3);

        heap.begin_mark_epoch();
        let (stats, busy) = par_trace(&heap, [root], &TraceAll, 1);
        assert!(stats.objects_marked > 1);
        assert_eq!(busy.len(), 1);
    }

    #[test]
    fn empty_roots_mark_nothing() {
        let heap = Heap::new(1024);
        let (stats, _) = par_trace(&heap, std::iter::empty(), &TraceAll, 2);
        assert_eq!(stats.objects_marked, 0);
    }

    #[test]
    fn shared_subtrees_marked_once() {
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        let mut heap = Heap::new(1 << 20);
        let shared = heap.alloc(cls, &AllocSpec::default()).unwrap();
        let mut roots = Vec::new();
        for _ in 0..8 {
            let r = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
            heap.object(r).store_ref(0, TaggedRef::from_handle(shared));
            roots.push(r);
        }
        heap.begin_mark_epoch();
        let (stats, _) = par_trace(&heap, roots, &TraceAll, 4);
        assert_eq!(stats.objects_marked, 9);
        assert_eq!(stats.edges_visited, 8);
    }
}

//! Parallel marking over a shared pool of work packets.
//!
//! Mirrors MMTk's parallel trace (§4.5 of the paper): marker threads share a
//! pool of work and rely on the heap's atomic mark words so each object is
//! processed exactly once. Each worker runs the same mark and scan steps as
//! the serial [`trace`] on its own unlocked stack; only whole packets of
//! slots pass through the pool's one lock — a busy worker gives one away
//! when the pool is empty, and a worker whose stack runs dry takes one.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use lp_heap::{Handle, Heap};

use crate::tracer::{grey, scan, trace, EdgeVisitor, TraceStats};

/// Most slots one work packet carries. A donor gives away the oldest half
/// of its stack up to this size: on a depth-first stack the oldest slots
/// head the largest unscanned subgraphs, so few packets balance the load.
const PACKET: usize = 64;

/// Runs a transitive closure from `roots` using `threads` marker threads,
/// returning the closure's counts and each marker thread's busy time (root
/// scanning is attributed to the calling thread and not included).
///
/// Every reachable object is marked exactly once and every non-null edge
/// of a scanned object is visited once, as in [`trace`]; with more than one
/// thread the visit order is nondeterministic. One thread runs [`trace`]
/// on the calling thread and spawns nothing. A panic on a marker thread
/// is re-raised on the calling thread once every marker thread has stopped.
///
/// # Panics
///
/// Panics if `threads` is zero, or if the visitor panics.
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

    let mut stats = TraceStats::default();
    let greyed: Vec<u32> = roots
        .into_iter()
        .inspect(|&root| debug_assert!(heap.contains(root), "root points to reclaimed object"))
        .map(Handle::slot)
        .filter(|&slot| grey(heap, slot, visitor, &mut stats))
        .collect();
    let pool = Pool::default();
    for packet in greyed.chunks(PACKET) {
        pool.give(packet.to_vec());
    }

    let busy = std::thread::scope(|scope| {
        let pool = &pool;
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(move || run_worker(heap, visitor, pool, threads)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                let (local, busy) = handle.join().unwrap_or_else(|panic| resume_unwind(panic));
                stats = stats.merged(local);
                busy
            })
            .collect()
    });
    (stats, busy)
}

/// Packets of grey slots (`available` counts them without the lock) and
/// the termination count: a worker with no work declares itself idle, and
/// the closure is complete when every worker is idle and the pool is
/// empty, since only non-idle workers produce work. No shared counter is
/// written per object: on pointer-chase graphs it would dominate.
#[derive(Default)]
struct Pool {
    available: AtomicUsize,
    packets: Mutex<Vec<Vec<u32>>>,
    idle_workers: AtomicUsize,
}

impl Pool {
    fn is_empty(&self) -> bool {
        self.available.load(Ordering::Acquire) == 0
    }

    fn give(&self, packet: Vec<u32>) {
        let mut packets = self.packets.lock().unwrap_or_else(PoisonError::into_inner);
        packets.push(packet);
        self.available.store(packets.len(), Ordering::Release);
    }

    fn take(&self) -> Option<Vec<u32>> {
        let mut packets = self.packets.lock().unwrap_or_else(PoisonError::into_inner);
        let packet = packets.pop();
        self.available.store(packets.len(), Ordering::Release);
        packet
    }
}

/// Counts an unwinding worker idle, so a panic on one marker thread lets
/// the others reach termination and the scope join re-raise it.
struct IdleOnUnwind<'a>(&'a AtomicUsize);

impl Drop for IdleOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// One marker thread: scan until every worker is idle and the pool is
/// empty, and return its counts and busy time. Counts accumulate
/// thread-locally — per-object shared-counter traffic would dominate
/// pointer-chase graphs.
fn run_worker<V: EdgeVisitor + ?Sized>(
    heap: &Heap,
    visitor: &V,
    pool: &Pool,
    threads: usize,
) -> (TraceStats, Duration) {
    let start = Instant::now();
    let mut local = TraceStats::default();
    let mut stack: Vec<u32> = Vec::new();
    let _guard = IdleOnUnwind(&pool.idle_workers);
    'work: loop {
        while let Some(slot) = stack.pop() {
            scan(heap, slot, visitor, &mut local, |target| stack.push(target));
            if stack.len() > 1 && pool.is_empty() {
                let give = (stack.len() / 2).min(PACKET);
                pool.give(stack.drain(..give).collect());
            }
        }
        if let Some(packet) = pool.take() {
            stack = packet;
            continue;
        }

        // Nothing anywhere: declare idle and wait for either new work to
        // appear or everyone to agree the closure is done.
        pool.idle_workers.fetch_add(1, Ordering::AcqRel);
        loop {
            if !pool.is_empty() {
                pool.idle_workers.fetch_sub(1, Ordering::AcqRel);
                continue 'work;
            }
            if pool.idle_workers.load(Ordering::Acquire) == threads {
                break 'work;
            }
            std::thread::yield_now();
        }
    }
    (local, start.elapsed())
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

    #[test]
    fn donated_packets_mark_exactly_what_serial_marks() {
        // A hub with refs for more than eight packets, each leading to a
        // short chain whose tail points into one of a few shared subtrees:
        // the first worker must give packets away, and several workers
        // reach each shared subtree. Unreachable objects stay unmarked.
        let mut reg = ClassRegistry::new();
        let cls = reg.register("T");
        let mut heap = Heap::new(1 << 24);
        let shared: Vec<Handle> = (0..5).map(|_| build_tree(&mut heap, cls, 3, 3)).collect();
        let refs = 8 * PACKET as u32 + 5;
        let hub = heap.alloc(cls, &AllocSpec::with_refs(refs)).unwrap();
        for i in 0..refs {
            let mut next = shared[i as usize % shared.len()];
            for _ in 0..4 {
                let node = heap.alloc(cls, &AllocSpec::with_refs(1)).unwrap();
                heap.object(node).store_ref(0, TaggedRef::from_handle(next));
                next = node;
            }
            heap.object(hub)
                .store_ref(i as usize, TaggedRef::from_handle(next));
            build_tree(&mut heap, cls, 1, 2);
        }
        let marks = |heap: &Heap| -> Vec<bool> {
            heap.iter().map(|(slot, _)| heap.is_marked(slot)).collect()
        };

        heap.begin_mark_epoch();
        let serial = trace(&heap, [hub], &TraceAll);
        let reachable = marks(&heap);
        assert!(reachable.iter().any(|&m| !m), "some objects are garbage");
        for threads in [2, 4, 8] {
            for repeat in 0..20 {
                heap.begin_mark_epoch();
                let (parallel, busy) = par_trace(&heap, [hub], &TraceAll, threads);
                assert_eq!(parallel, serial, "{threads} threads, repeat {repeat}");
                assert_eq!(busy.len(), threads);
                assert_eq!(
                    marks(&heap),
                    reachable,
                    "{threads} threads, repeat {repeat}"
                );
            }
        }
    }

    /// Panics on the 500th edge it is shown.
    struct PanicsOnEdge(AtomicUsize);

    impl EdgeVisitor for PanicsOnEdge {
        fn visit_edge(
            &self,
            _heap: &Heap,
            _src_slot: u32,
            _src: &lp_heap::Object,
            _field: usize,
            _reference: TaggedRef,
        ) -> crate::EdgeAction {
            if self.0.fetch_add(1, Ordering::Relaxed) == 499 {
                panic!("visitor failed on its 500th edge");
            }
            crate::EdgeAction::Trace
        }
    }

    #[test]
    fn a_panicking_marker_thread_reaches_the_caller() {
        for threads in [2, 4] {
            let (done, outcome) = std::sync::mpsc::channel();
            let caller = std::thread::spawn(move || {
                let mut reg = ClassRegistry::new();
                let cls = reg.register("T");
                let mut heap = Heap::new(1 << 22);
                let root = build_tree(&mut heap, cls, 6, 4);
                heap.begin_mark_epoch();
                let visitor = PanicsOnEdge(AtomicUsize::new(0));
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    par_trace(&heap, [root], &visitor, threads)
                }));
                let _ = done.send(result.is_err());
            });
            let panicked = outcome
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("par_trace hung on {threads} threads"));
            assert!(panicked, "the visitor's panic reaches the caller");
            caller.join().expect("the calling thread caught the panic");
        }
    }
}

//! Admission control: bounded queues, typed rejection, live counters.
//!
//! Every tenant fronts its worker with a bounded queue. Arrivals that
//! don't fit — or that target a quarantined tenant — are shed
//! immediately with a typed [`RejectReason`] instead of growing an
//! unbounded backlog, so one leaky tenant's latency never propagates to
//! the host. A queued request carries no data, so the queue *is* its
//! [`TenantCounters`]: `admitted − taken` requests are waiting, admission
//! is a compare-and-swap on `admitted` against the capacity, and the
//! worker dequeues by advancing `taken` at the round barrier. The counters
//! are plain atomics shared with the ops plane, so `/tenants` and
//! `/metrics` read live values without stopping the round loop.

use std::sync::atomic::{AtomicU64, Ordering};

/// Why an arrival was shed instead of admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's bounded admission queue was full.
    QueueFull,
    /// The tenant is quarantined by the arbiter and not accepting work.
    Quarantined,
}

impl RejectReason {
    /// Stable label used in metrics and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::Quarantined => "quarantined",
        }
    }
}

/// Live admission counters for one tenant, shared between the round
/// loop, the worker thread, and the ops plane.
///
/// Every counter is `Relaxed`: each is a bare count that publishes no other
/// memory, and the lockstep host orders its own reads behind the worker's
/// report on the command channel.
#[derive(Debug)]
pub struct TenantCounters {
    capacity: u64,
    admitted: AtomicU64,
    taken: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_quarantined: AtomicU64,
    processed: AtomicU64,
}

/// How one batch of arrivals fared at admission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Offered {
    pub admitted: u64,
    pub queue_full: u64,
    pub quarantined: u64,
}

impl TenantCounters {
    /// A zeroed counter block for a queue holding at most `capacity`
    /// waiting requests.
    pub fn new(capacity: usize) -> TenantCounters {
        TenantCounters {
            capacity: capacity as u64,
            admitted: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_quarantined: AtomicU64::new(0),
            processed: AtomicU64::new(0),
        }
    }

    /// Requests accepted into the queue so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed because the queue was full.
    pub fn shed_queue_full(&self) -> u64 {
        self.shed_queue_full.load(Ordering::Relaxed)
    }

    /// Requests shed because the tenant was quarantined.
    pub fn shed_quarantined(&self) -> u64 {
        self.shed_quarantined.load(Ordering::Relaxed)
    }

    /// Total requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full() + self.shed_quarantined()
    }

    /// Requests the worker has finished handling.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Admitted but not yet processed — the live queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.admitted().saturating_sub(self.processed())
    }

    /// Offers `arrivals` requests at once. A quarantined tenant sheds them
    /// all without touching the queue; otherwise as many as fit under the
    /// capacity are admitted in one step and the rest shed as
    /// [`RejectReason::QueueFull`]. Safe against concurrent offers (the
    /// round loop and `POST /inject`): the queue never holds more than its
    /// capacity.
    pub(crate) fn offer(&self, arrivals: u64, quarantined: bool) -> Offered {
        if arrivals == 0 {
            // Most rounds of an idle or finished tenant: nothing to write.
            return Offered::default();
        }
        if quarantined {
            self.shed_quarantined.fetch_add(arrivals, Ordering::Relaxed);
            return Offered {
                quarantined: arrivals,
                ..Offered::default()
            };
        }
        let mut admitted = 0;
        let _ = self
            .admitted
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |so_far| {
                let waiting = so_far.saturating_sub(self.taken.load(Ordering::Relaxed));
                admitted = arrivals.min(self.capacity.saturating_sub(waiting));
                Some(so_far + admitted)
            });
        let queue_full = arrivals - admitted;
        if queue_full > 0 {
            self.shed_queue_full
                .fetch_add(queue_full, Ordering::Relaxed);
        }
        Offered {
            admitted,
            queue_full,
            quarantined: 0,
        }
    }

    /// Requests waiting in the queue: admitted and not yet dequeued.
    pub(crate) fn waiting(&self) -> u64 {
        self.admitted()
            .saturating_sub(self.taken.load(Ordering::Relaxed))
    }

    /// Worker side, at the round barrier: `taken` requests left the queue
    /// this round and `processed` of them completed.
    pub(crate) fn note_round(&self, taken: u64, processed: u64) {
        self.taken.fetch_add(taken, Ordering::Relaxed);
        self.processed.fetch_add(processed, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offers_admit_until_the_queue_fills_then_shed() {
        let counters = TenantCounters::new(2);
        assert_eq!(counters.offer(1, false).admitted, 1);
        assert_eq!(counters.offer(1, false).admitted, 1);
        assert_eq!(
            counters.offer(1, false),
            Offered {
                queue_full: 1,
                ..Offered::default()
            }
        );
        assert_eq!(counters.admitted(), 2);
        assert_eq!(counters.shed_queue_full(), 1);
        assert_eq!(counters.queue_depth(), 2);
    }

    #[test]
    fn a_batch_is_split_at_the_capacity_and_dequeuing_frees_slots() {
        let counters = TenantCounters::new(4);
        let offered = counters.offer(6, false);
        assert_eq!((offered.admitted, offered.queue_full), (4, 2));
        assert_eq!(counters.waiting(), 4);
        // Three dequeued, two of them completed (the third failed): three
        // slots are free again, whatever became of the requests.
        counters.note_round(3, 2);
        assert_eq!(counters.waiting(), 1);
        assert_eq!(counters.processed(), 2);
        let offered = counters.offer(5, false);
        assert_eq!((offered.admitted, offered.queue_full), (3, 2));
        assert_eq!(counters.shed_queue_full(), 4);
    }

    #[test]
    fn quarantine_sheds_without_consuming_queue_space() {
        let counters = TenantCounters::new(1);
        assert_eq!(counters.offer(1, true).quarantined, 1);
        assert_eq!(counters.admitted(), 0);
        assert_eq!(counters.shed_quarantined(), 1);
        // The slot is still free for when quarantine lifts.
        assert_eq!(counters.offer(1, false).admitted, 1);
    }

    #[test]
    fn concurrent_offers_never_overfill_the_queue() {
        const CAPACITY: usize = 1000;
        const THREADS: u64 = 4;
        const OFFERS: u64 = 600;
        let counters = TenantCounters::new(CAPACITY);
        let start = std::sync::Barrier::new(THREADS as usize);
        let admitted: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (counters, start) = (&counters, &start);
                    scope.spawn(move || {
                        start.wait();
                        // Singles and small batches interleaved.
                        (0..OFFERS / (thread + 1))
                            .map(|_| counters.offer(thread + 1, false).admitted)
                            .sum::<u64>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("offer thread"))
                .sum()
        });
        assert_eq!(admitted, CAPACITY as u64, "admitted exactly the capacity");
        assert_eq!(counters.admitted(), CAPACITY as u64);
        let offered: u64 = (0..THREADS).map(|t| OFFERS / (t + 1) * (t + 1)).sum();
        assert_eq!(counters.shed_queue_full(), offered - CAPACITY as u64);
    }

    #[test]
    fn reject_tags_are_stable() {
        assert_eq!(RejectReason::QueueFull.tag(), "queue_full");
        assert_eq!(RejectReason::Quarantined.tag(), "quarantined");
    }
}

//! The journal reader's memory bound, measured: validating a journal costs
//! one line buffer and one read buffer however many entries it holds. The
//! only test in its binary, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, Read};
use std::sync::atomic::{AtomicUsize, Ordering};

use lp_recovery::{read_journal_from, Journal};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How far live heap bytes rose above their starting level during `work`.
fn peak_growth<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = work();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// The bytes of an `entries`-entry journal, rendered a line at a time: the
/// journal never exists as a file or a string.
struct Generated {
    line: Vec<u8>,
    at: usize,
    next_seq: u64,
    entries: u64,
}

impl Read for Generated {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let bytes = available.len().min(out.len());
        out[..bytes].copy_from_slice(&available[..bytes]);
        self.consume(bytes);
        Ok(bytes)
    }
}

impl BufRead for Generated {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.at == self.line.len() && self.next_seq <= self.entries {
            use std::io::Write as _;
            self.line.clear();
            self.at = 0;
            writeln!(self.line, "{{\"k\": \"req\", \"seq\": {}}}", self.next_seq)?;
            self.next_seq += 1;
        }
        Ok(&self.line[self.at..])
    }

    fn consume(&mut self, bytes: usize) {
        self.at += bytes;
    }
}

const BOUND: usize = 256 * 1024;

#[test]
fn validating_a_journal_takes_memory_that_does_not_grow_with_it() {
    // Reopening 200 k entries on file — what a recovering tenant does.
    let dir = std::env::temp_dir().join(format!("lp-recovery-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("long.journal");
    let mut journal = Journal::create(&path, "t").expect("create");
    journal.set_fsync_every(u64::MAX);
    for _ in 0..200_000 {
        journal.append().expect("append");
    }
    drop(journal);
    let (reopened, growth) = peak_growth(|| Journal::reopen(&path));
    assert_eq!(reopened.expect("reopen").last_seq(), 200_000);
    assert!(growth <= BOUND, "reopening took {growth} bytes");
    std::fs::remove_dir_all(&dir).ok();

    // Five million entries that exist only a line at a time.
    let header = b"{\"k\": \"journal\", \"v\": 1, \"tenant\": \"t\"}\n";
    let generated = Generated {
        line: header.to_vec(),
        at: 0,
        next_seq: 1,
        entries: 5_000_000,
    };
    let (read, growth) = peak_growth(|| read_journal_from(generated));
    let read = read.expect("valid");
    assert_eq!((read.entries, read.torn_tail), (5_000_000, false));
    assert!(growth <= BOUND, "validating took {growth} bytes");
}

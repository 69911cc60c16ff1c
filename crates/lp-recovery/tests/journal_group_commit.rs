//! Crash consistency of the group-committed journal: whatever prefix of
//! the bytes a crash leaves on file — between batches, inside a batch,
//! inside a line — reads back as an intact prefix of the entries with at
//! most one torn final line, never as an error; and what is on file at a
//! commit point is exactly what was appended.

use std::fs;
use std::path::PathBuf;

use lp_recovery::{read_journal, read_journal_text, Journal};
use proptest::collection::vec;
use proptest::prelude::*;

fn tempfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lp-recovery-group-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("tempdir");
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_truncation_of_a_batched_journal_is_an_intact_prefix(
        batches in vec(0usize..14, 1..6),
        fsync_every in 1u64..40,
    ) {
        let path = tempfile("truncate.journal");
        let mut journal = Journal::create(&path, "t").expect("create");
        journal.set_fsync_every(fsync_every);
        let mut appended = 0u64;
        for &batch in &batches {
            for _ in 0..batch {
                appended += 1;
                prop_assert_eq!(journal.append().expect("append"), appended);
                // Between commit points the file may lag, never lead.
                let on_file = read_journal(&path).expect("readable mid-batch");
                prop_assert!(on_file.entries <= appended);
                prop_assert!(!on_file.torn_tail);
                if fsync_every == 1 {
                    prop_assert_eq!(on_file.entries, appended);
                }
            }
            journal.flush().expect("flush");
            prop_assert_eq!(read_journal(&path).expect("readable").entries, appended);
        }
        drop(journal);

        let text = fs::read_to_string(&path).expect("read");
        let header_bytes = text.find('\n').expect("header line") + 1;
        for cut in header_bytes..=text.len() {
            let prefix = &text[..cut];
            let read = match read_journal_text(prefix) {
                Ok(read) => read,
                Err(error) => panic!("cut at byte {cut} of {}: {error}", text.len()),
            };
            let intact = prefix.rfind('\n').expect("header newline") + 1;
            let complete_lines = prefix[..intact].lines().count() as u64 - 1;
            prop_assert_eq!(read.entries, complete_lines);
            prop_assert_eq!(read.valid_bytes, intact as u64);
            prop_assert_eq!(read.torn_tail, intact != cut);
            // What the crash left is a file: the streaming file reader must
            // say the same, and a reopen must leave exactly the intact part.
            fs::write(&path, prefix).expect("write prefix");
            prop_assert_eq!(read_journal(&path).as_ref(), Ok(&read));
            let reopened = Journal::reopen(&path).expect("reopen");
            prop_assert_eq!(reopened.last_seq(), complete_lines);
            drop(reopened);
            prop_assert_eq!(fs::metadata(&path).expect("meta").len(), intact as u64);
        }
        fs::remove_file(&path).ok();
    }
}

#[test]
fn dropping_the_journal_commits_what_was_appended() {
    let path = tempfile("drop.journal");
    let mut journal = Journal::create(&path, "t").expect("create");
    journal.set_fsync_every(u64::MAX);
    for _ in 0..7 {
        journal.append().expect("append");
    }
    assert_eq!(
        read_journal(&path).expect("read").entries,
        0,
        "nothing is written before a commit point"
    );
    drop(journal);
    assert_eq!(read_journal(&path).expect("read").entries, 7);
    fs::remove_file(&path).ok();
}

#[test]
fn a_kill_between_commit_points_loses_only_the_uncommitted_tail() {
    let path = tempfile("kill.journal");
    let mut journal = Journal::create(&path, "t").expect("create");
    journal.set_fsync_every(u64::MAX);
    for _ in 0..5 {
        journal.append().expect("append");
    }
    journal.flush().expect("commit");
    for _ in 0..3 {
        journal.append().expect("append");
    }
    // kill -9: the process image goes away, destructors do not run.
    std::mem::forget(journal);

    let read = read_journal(&path).expect("read");
    assert_eq!(read.entries, 5);
    assert!(!read.torn_tail);
    // The recovering writer continues from what is on file.
    let mut journal = Journal::reopen(&path).expect("reopen");
    assert_eq!(journal.append().expect("append"), 6);
    journal.sync().expect("sync");
    assert_eq!(read_journal(&path).expect("read").entries, 6);
    fs::remove_file(&path).ok();
}

#[test]
fn a_full_buffer_is_written_out_without_a_commit_point() {
    let path = tempfile("full.journal");
    let mut journal = Journal::create(&path, "t").expect("create");
    journal.set_fsync_every(u64::MAX);
    // Far more than the buffer holds: most of it must already be on file.
    for _ in 0..10_000 {
        journal.append().expect("append");
    }
    let on_file = read_journal(&path).expect("read").entries;
    assert!(on_file > 5_000, "only {on_file} of 10000 entries written");
    assert!(on_file <= 10_000);
    drop(journal);
    assert_eq!(read_journal(&path).expect("read").entries, 10_000);
    fs::remove_file(&path).ok();
}

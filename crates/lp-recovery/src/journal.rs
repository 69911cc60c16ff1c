//! The per-tenant request journal: an append-only, write-ahead JSONL log.
//!
//! One line per served request, appended *before* the request runs and on
//! file before anything the request did can be seen outside the worker
//! that served it — so after a crash the journal is a superset of the
//! requests whose effects were ever visible, never a subset. Replaying the
//! journal suffix past a checkpoint's watermark therefore reconstructs the
//! pre-crash state exactly; re-serving a request whose effects were lost
//! with the dirty heap is safe because service handlers are deterministic
//! functions of `(state, seq)`.
//!
//! Appends are group-committed: [`Journal::append`] formats the entry into
//! a bounded in-memory buffer, and the buffer reaches the file in one
//! `write` at [`Journal::flush`] (the owner calls it at its commit point —
//! a tenant worker at the round barrier, before its report leaves), at
//! every fsync point, when the buffer fills, and on drop. A `kill -9`
//! between commit points loses only entries whose requests nobody outside
//! the process has seen; what is on file is always an intact prefix plus at
//! most one torn line.
//!
//! The format is two line shapes:
//!
//! ```text
//! {"k": "journal", "v": 1, "tenant": "leaky"}
//! {"k": "req", "seq": 1}
//! {"k": "req", "seq": 2}
//! ```
//!
//! Sequence numbers are 1-based and contiguous. The reader tolerates
//! exactly one *torn final line* — what a `kill -9` mid-append leaves —
//! and reports its byte offset so a recovering writer can truncate it
//! away; any other malformation is an error, not a tolerated tail.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use lp_telemetry::json::{self, JsonValue};

/// Current journal format version.
pub const JOURNAL_VERSION: u64 = 1;

/// Bytes of formatted entries the buffer may hold before it is written out
/// regardless of commit points (a bound on memory, not a tuning knob: a
/// round's worth of entries is a few kilobytes).
const BUFFER_BYTES: usize = 64 * 1024;

/// An entry line up to its sequence number; `}` closes it. The line
/// `JsonValue::Obj` would render, without building one.
const ENTRY_PREFIX: &str = "{\"k\": \"req\", \"seq\": ";

/// Append-side handle to a tenant's journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    next_seq: u64,
    fsync_every: u64,
    unsynced: u64,
    /// Entries appended but not yet handed to the file.
    buffer: Vec<u8>,
}

impl Journal {
    /// Creates (or truncates) a journal at `path`, writing and fsyncing the
    /// header line. The first [`Journal::append`] will return seq 1.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, tenant: &str) -> std::io::Result<Journal> {
        let mut file = File::create(path)?;
        let header = JsonValue::Obj(vec![
            ("k".to_owned(), JsonValue::Str("journal".to_owned())),
            ("v".to_owned(), JsonValue::from_u64(JOURNAL_VERSION)),
            ("tenant".to_owned(), JsonValue::Str(tenant.to_owned())),
        ]);
        file.write_all(format!("{header}\n").as_bytes())?;
        file.sync_all()?;
        Ok(Journal {
            file,
            next_seq: 1,
            fsync_every: 1,
            unsynced: 0,
            buffer: Vec::new(),
        })
    }

    /// Reopens an existing journal for appending after recovery: validates
    /// it with [`read_journal`], truncates a torn tail if the crash left
    /// one, and positions the writer after the last intact entry —
    /// [`Journal::last_seq`] then says how many entries the file holds.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if the existing file is malformed beyond a torn
    /// tail; filesystem errors as [`JournalError::Io`].
    pub fn reopen(path: &Path) -> Result<Journal, JournalError> {
        let read = read_journal(path)?;
        let mut file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
        // Drop the torn tail (if any) so the next append starts on a clean
        // line boundary.
        file.set_len(read.valid_bytes).map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        Ok(Journal {
            file,
            next_seq: read.entries + 1,
            fsync_every: 1,
            unsynced: 0,
            buffer: Vec::new(),
        })
    }

    /// Sets the fsync cadence: the file is written and fsynced after every
    /// `n` appends (and always on [`Journal::sync`]). `n = 1` (the default)
    /// makes every entry durable before its request is served; larger `n`
    /// bounds what a *machine* crash can lose to the last `n - 1` entries
    /// that reached the file plus whatever was appended since the last
    /// [`Journal::flush`]. `n = 0` is treated as 1.
    pub fn set_fsync_every(&mut self, n: u64) {
        self.fsync_every = n.max(1);
    }

    /// Appends the next entry — write-ahead, so call this *before* serving
    /// the request — and returns its sequence number. The entry is on file
    /// once the next [`Journal::flush`] or fsync point returns.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from an fsync point or a full buffer; on
    /// error the entry must be considered not durable and the request must
    /// not be served.
    pub fn append(&mut self) -> std::io::Result<u64> {
        let seq = self.next_seq;
        writeln!(self.buffer, "{ENTRY_PREFIX}{seq}}}")?;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        } else if self.buffer.len() >= BUFFER_BYTES {
            self.flush()?;
        }
        self.next_seq += 1;
        Ok(seq)
    }

    /// Hands every buffered entry to the file in one `write` — the commit
    /// point of a group of appends. Nothing an appended request did may
    /// leave its owner before this returns.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the journal must then be considered
    /// failed (the file may hold part of the buffer).
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.buffer.is_empty() {
            self.file.write_all(&self.buffer)?;
            self.buffer.clear();
        }
        Ok(())
    }

    /// Flushes and forces an fsync of everything appended so far.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.flush()?;
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }

    /// The last sequence number appended (0 if none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // An orderly exit keeps what was appended; errors have nowhere to
        // go here, and callers that need them call `flush` first.
        let _ = self.flush();
    }
}

/// The validated contents of a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRead {
    /// Tenant name from the header.
    pub tenant: String,
    /// Number of intact entries; their sequence numbers are `1..=entries`
    /// (contiguity is validated).
    pub entries: u64,
    /// Whether the file ended in a torn final line (a crash mid-append).
    pub torn_tail: bool,
    /// Byte length of the intact prefix — what a recovering writer
    /// truncates the file to before appending again.
    pub valid_bytes: u64,
}

/// Why a journal file was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file could not be read.
    Io(String),
    /// The file is empty or its first line is not a journal header.
    NotAJournal,
    /// The header's version is unsupported.
    Version(u64),
    /// A non-final line is malformed — torn-tail tolerance covers only the
    /// last line, anything else is corruption.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// Entry sequence numbers are not contiguous from 1.
    Gap {
        /// The sequence number expected at this line.
        expected: u64,
        /// The sequence number found.
        found: u64,
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(reason) => write!(f, "journal io: {reason}"),
            JournalError::NotAJournal => write!(f, "file is not a request journal"),
            JournalError::Version(v) => write!(f, "unsupported journal version {v}"),
            JournalError::Malformed { line, reason } => {
                write!(f, "journal line {line}: {reason}")
            }
            JournalError::Gap {
                expected,
                found,
                line,
            } => write!(
                f,
                "journal line {line}: expected seq {expected}, found {found} — \
                 entries must be contiguous"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Reads and validates a journal file, tolerating exactly one torn final
/// line (the mark of a crash mid-append). The file is streamed: memory
/// stays at one line plus the read buffer however long the journal is.
///
/// # Errors
///
/// See [`JournalError`].
pub fn read_journal(path: &Path) -> Result<JournalRead, JournalError> {
    let file = File::open(path).map_err(io_err)?;
    read_journal_from(BufReader::with_capacity(BUFFER_BYTES, file))
}

fn io_err(error: std::io::Error) -> JournalError {
    JournalError::Io(error.to_string())
}

/// [`read_journal`] over in-memory text.
///
/// # Errors
///
/// See [`JournalError`].
pub fn read_journal_text(text: &str) -> Result<JournalRead, JournalError> {
    read_journal_from(text.as_bytes())
}

/// The journal validator: every reader feeds it, one line at a time through
/// a reused buffer. A line that is not an entry is an error once another
/// line follows it, and the torn tail if none does.
///
/// # Errors
///
/// See [`JournalError`]; a failing `reader` is [`JournalError::Io`].
pub fn read_journal_from(mut reader: impl BufRead) -> Result<JournalRead, JournalError> {
    let mut text = Vec::new();
    let mut next_line = |text: &mut Vec<u8>| {
        text.clear();
        let read = reader.read_until(b'\n', text);
        read.map(|bytes| bytes > 0).map_err(io_err)
    };
    if !next_line(&mut text)? {
        return Err(JournalError::NotAJournal);
    }
    let mut offset = text.len() as u64;
    let mut read = JournalRead {
        tenant: header_tenant(&text)?,
        entries: 0,
        torn_tail: false,
        valid_bytes: offset,
    };
    let mut line = 1;
    // Why line `line` is not an entry, if it is not.
    let mut bad: Option<String> = None;
    while next_line(&mut text)? {
        if let Some(reason) = bad.take() {
            return Err(JournalError::Malformed { line, reason });
        }
        line += 1;
        offset += text.len() as u64;
        let expected = read.entries + 1;
        match entry_seq(&text) {
            Ok(seq) if seq == expected => (read.entries, read.valid_bytes) = (seq, offset),
            Ok(found) => {
                return Err(JournalError::Gap {
                    expected,
                    found,
                    line,
                })
            }
            Err(reason) => bad = Some(reason),
        }
    }
    // A bad last line is the torn tail a kill -9 mid-append leaves behind;
    // the recovering writer truncates to `valid_bytes`.
    read.torn_tail = bad.is_some();
    Ok(read)
}

/// The tenant named by the header line, which must be complete (a header
/// that never finished writing is an empty journal).
fn header_tenant(line: &[u8]) -> Result<String, JournalError> {
    let header = line
        .strip_suffix(b"\n")
        .and_then(|raw| std::str::from_utf8(raw).ok())
        .and_then(|raw| json::parse(raw).ok())
        .ok_or(JournalError::NotAJournal)?;
    if header.get("k").and_then(JsonValue::as_str) != Some("journal") {
        return Err(JournalError::NotAJournal);
    }
    let version = header
        .get("v")
        .and_then(JsonValue::as_u64)
        .ok_or(JournalError::NotAJournal)?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::Version(version));
    }
    let tenant = header.get("tenant").and_then(JsonValue::as_str);
    Ok(tenant.ok_or(JournalError::NotAJournal)?.to_owned())
}

/// The sequence number of one entry line, or why it is not one. The text
/// [`Journal::append`] renders is recognised byte for byte; anything else
/// goes through the JSON parser, so what is accepted does not depend on
/// which path a line took.
fn entry_seq(line: &[u8]) -> Result<u64, String> {
    let Some(raw) = line.strip_suffix(b"\n") else {
        return Err("line has no terminating newline".to_owned());
    };
    if let Some(seq) = rendered_seq(raw) {
        return Ok(seq);
    }
    let raw = std::str::from_utf8(raw).map_err(|_| "line is not valid UTF-8".to_owned())?;
    let value = json::parse(raw).map_err(|e| e.to_string())?;
    if value.get("k").and_then(JsonValue::as_str) != Some("req") {
        return Err("not a \"req\" line".to_owned());
    }
    value
        .get("seq")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| "missing seq".to_owned())
}

/// `seq` if `raw` is `{"k": "req", "seq": <digits>}` byte for byte, read with
/// the integer reader the JSON parser itself uses (`i64::from_str`, leading
/// zeros and all).
fn rendered_seq(raw: &[u8]) -> Option<u64> {
    let digits = raw
        .strip_prefix(ENTRY_PREFIX.as_bytes())?
        .strip_suffix(b"}")?;
    let unsigned = digits.iter().all(u8::is_ascii_digit);
    let seq: i64 = std::str::from_utf8(digits).ok()?.parse().ok()?;
    u64::try_from(seq).ok().filter(|_| unsigned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;

    fn tempfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lp-recovery-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tempdir");
        dir.join(name)
    }

    #[test]
    fn write_then_read_roundtrips() {
        let path = tempfile("clean.journal");
        let mut journal = Journal::create(&path, "leaky").expect("create");
        journal.set_fsync_every(8);
        for expected in 1..=20u64 {
            assert_eq!(journal.append().expect("append"), expected);
        }
        journal.sync().expect("sync");
        assert_eq!(journal.last_seq(), 20);

        let read = read_journal(&path).expect("read");
        assert_eq!(read.tenant, "leaky");
        assert_eq!(read.entries, 20);
        assert!(!read.torn_tail);
        assert_eq!(
            read.valid_bytes,
            fs::metadata(&path).expect("meta").len(),
            "clean file is valid to the last byte"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated_and_truncated_on_reopen() {
        let path = tempfile("torn.journal");
        let mut journal = Journal::create(&path, "t").expect("create");
        for _ in 0..5 {
            journal.append().expect("append");
        }
        drop(journal);
        let intact = fs::metadata(&path).expect("meta").len();
        // Simulate kill -9 mid-append: half an entry, no newline.
        let mut text = fs::read_to_string(&path).expect("read");
        text.push_str("{\"k\": \"req\", \"se");
        fs::write(&path, &text).expect("write torn");

        let read = read_journal(&path).expect("torn tail tolerated");
        assert_eq!(read.entries, 5);
        assert!(read.torn_tail);
        assert_eq!(read.valid_bytes, intact);

        // Reopen truncates the tail and continues the sequence.
        let mut journal = Journal::reopen(&path).expect("reopen");
        assert_eq!(journal.append().expect("append"), 6);
        drop(journal);
        let read = read_journal(&path).expect("clean again");
        assert_eq!(read.entries, 6);
        assert!(!read.torn_tail);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_complete_line_with_newline_is_also_tolerated() {
        // A torn write can still land the newline (e.g. truncated JSON
        // followed by the next buffered byte being '\n').
        let text = "{\"k\": \"journal\", \"v\": 1, \"tenant\": \"t\"}\n\
                    {\"k\": \"req\", \"seq\": 1}\n\
                    {\"k\": \"req\", \"se\n";
        let read = read_journal_text(text).expect("tolerated");
        assert_eq!(read.entries, 1);
        assert!(read.torn_tail);
    }

    #[test]
    fn malformed_middle_lines_are_errors() {
        let text = "{\"k\": \"journal\", \"v\": 1, \"tenant\": \"t\"}\n\
                    {\"k\": \"req\", \"se\n\
                    {\"k\": \"req\", \"seq\": 2}\n";
        assert!(matches!(
            read_journal_text(text).unwrap_err(),
            JournalError::Malformed { line: 2, .. }
        ));
    }

    #[test]
    fn sequence_gaps_are_errors() {
        let text = "{\"k\": \"journal\", \"v\": 1, \"tenant\": \"t\"}\n\
                    {\"k\": \"req\", \"seq\": 1}\n\
                    {\"k\": \"req\", \"seq\": 3}\n";
        assert_eq!(
            read_journal_text(text).unwrap_err(),
            JournalError::Gap {
                expected: 2,
                found: 3,
                line: 3,
            }
        );
    }

    #[test]
    fn non_journals_are_refused() {
        assert_eq!(
            read_journal_text("").unwrap_err(),
            JournalError::NotAJournal
        );
        assert_eq!(
            read_journal_text("{\"k\": \"checkpoint\", \"v\": 1}\n").unwrap_err(),
            JournalError::NotAJournal
        );
        assert_eq!(
            read_journal_text("{\"k\": \"journal\", \"v\": 9, \"tenant\": \"t\"}\n").unwrap_err(),
            JournalError::Version(9)
        );
    }

    /// The whole-text reader the streaming validator replaced, kept as the
    /// reference the property tests compare it against: it splits the text
    /// into a line table first and parses every line as JSON.
    fn reference_read(text: &str) -> Result<JournalRead, JournalError> {
        // Split manually so byte offsets are exact: a final chunk without a
        // trailing '\n' is by definition an unfinished append.
        let mut offset = 0usize;
        let mut lines: Vec<(usize, usize, &str, bool)> = Vec::new(); // (line_no, start, text, complete)
        let mut line_no = 0usize;
        let bytes = text.as_bytes();
        while offset < bytes.len() {
            line_no += 1;
            let rest = &text[offset..];
            match rest.find('\n') {
                Some(nl) => {
                    lines.push((line_no, offset, &rest[..nl], true));
                    offset += nl + 1;
                }
                None => {
                    lines.push((line_no, offset, rest, false));
                    offset = bytes.len();
                }
            }
        }

        let Some(&(_, _, header_raw, header_complete)) = lines.first() else {
            return Err(JournalError::NotAJournal);
        };
        if !header_complete {
            // Even the header never finished writing: an empty journal.
            return Err(JournalError::NotAJournal);
        }
        let header = json::parse(header_raw).map_err(|_| JournalError::NotAJournal)?;
        if header.get("k").and_then(JsonValue::as_str) != Some("journal") {
            return Err(JournalError::NotAJournal);
        }
        let version = header
            .get("v")
            .and_then(JsonValue::as_u64)
            .ok_or(JournalError::NotAJournal)?;
        if version != JOURNAL_VERSION {
            return Err(JournalError::Version(version));
        }
        let tenant = header
            .get("tenant")
            .and_then(JsonValue::as_str)
            .ok_or(JournalError::NotAJournal)?
            .to_owned();

        let mut entries = 0u64;
        let mut torn_tail = false;
        let mut valid_bytes = lines[0].1 as u64 + header_raw.len() as u64 + 1;
        let last_index = lines.len() - 1;
        for (index, &(line_no, start, raw, complete)) in lines.iter().enumerate().skip(1) {
            let is_last = index == last_index;
            let entry = (|| -> Result<u64, String> {
                if !complete {
                    return Err("line has no terminating newline".to_owned());
                }
                let value = json::parse(raw).map_err(|e| e.to_string())?;
                if value.get("k").and_then(JsonValue::as_str) != Some("req") {
                    return Err("not a \"req\" line".to_owned());
                }
                value
                    .get("seq")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| "missing seq".to_owned())
            })();
            match entry {
                Ok(seq) => {
                    if seq != entries + 1 {
                        return Err(JournalError::Gap {
                            expected: entries + 1,
                            found: seq,
                            line: line_no,
                        });
                    }
                    entries = seq;
                    valid_bytes = start as u64 + raw.len() as u64 + 1;
                }
                Err(reason) if is_last => {
                    // The torn tail a kill -9 mid-append leaves behind; the
                    // recovering writer truncates to `valid_bytes`.
                    let _ = reason;
                    torn_tail = true;
                }
                Err(reason) => {
                    return Err(JournalError::Malformed {
                        line: line_no,
                        reason,
                    });
                }
            }
        }
        Ok(JournalRead {
            tenant,
            entries,
            torn_tail,
            valid_bytes,
        })
    }

    /// Reads `bytes` with every reader there is — the streaming validator
    /// fed from memory and from a file, and the reference where the bytes
    /// are text — and insists on one answer.
    fn read_all_ways(bytes: &[u8]) -> Result<JournalRead, JournalError> {
        let streamed = read_journal_from(bytes);
        let path = tempfile(&format!("ways-{:?}.journal", std::thread::current().id()));
        fs::write(&path, bytes).expect("write");
        assert_eq!(read_journal(&path), streamed, "file reader on {bytes:?}");
        if let Ok(text) = std::str::from_utf8(bytes) {
            assert_eq!(read_journal_text(text), streamed, "text reader on {text:?}");
            assert_eq!(reference_read(text), streamed, "reference on {text:?}");
        }
        streamed
    }

    const HEADER: &str = "{\"k\": \"journal\", \"v\": 1, \"tenant\": \"t\"}";

    fn entry(seq: u64) -> String {
        format!("{ENTRY_PREFIX}{seq}}}")
    }

    fn journal_of(lines: &[String]) -> String {
        lines
            .iter()
            .fold(String::new(), |text, line| text + line + "\n")
    }

    /// One way of spoiling line `at` (1-based entry number) of a journal.
    fn spoil(lines: &mut Vec<String>, how: u8, at: usize) {
        let seq = at as u64;
        match how {
            0 => {}
            1 => lines[at] = entry(seq + 1),
            2 => lines[at] = entry(seq.saturating_sub(1)),
            3 => lines[at].truncate(11),
            4 => lines.insert(at, String::new()),
            5 => lines.iter_mut().for_each(|line| line.push('\r')),
            6 => lines[at] = format!("{{\"seq\":{seq},\"k\":\"req\"}}"),
            7 => lines[at] = format!(" {{ \"k\" : \"req\" ,\t\"seq\" : {seq} }} "),
            8 => lines[at] = format!("{{\"k\": \"req\", \"seq\": 0{seq}}}"),
            9 => lines[at] = format!("{{\"k\": \"req\", \"seq\": 1000000000000000000{seq}}}"),
            10 => lines[at] = "{\"k\": \"req\", \"seq\": 9223372036854775808}".to_owned(),
            11 => lines[at] = format!("{{\"k\": \"hist\", \"seq\": {seq}}}"),
            12 => lines[at] = "{\"k\": \"req\"}".to_owned(),
            13 => lines[at] = format!("{{\"k\": \"req\", \"seq\": {seq}.0}}"),
            14 => lines[at] = format!("{{\"k\": \"req\", \"seq\": -{seq}}}"),
            15 => lines[at] = format!("{{\"k\": \"req\", \"seq\": {seq}}} x"),
            16 => lines[0] = "{\"k\": \"journal\", \"v\": 2, \"tenant\": \"t\"}".to_owned(),
            17 => lines[0] = "{\"k\": \"journal\", \"v\": 1}".to_owned(),
            18 => {
                lines[0] =
                    "{\"k\": \"journal\", \"v\": 1, \"tenant\": \"t\u{e9}n\u{e4}nt\"}".to_owned()
            }
            _ => lines[0].truncate(9),
        }
    }
    const SPOILS: u8 = 20;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Memento's discipline: cut the log at every byte and demand the
        /// same answer from the old reader and the new one.
        #[test]
        fn every_reader_agrees_on_every_cut_of_every_journal(
            entries in 1usize..12,
            how in 0u8..SPOILS,
            at in 0usize..12,
            second in 0u8..SPOILS,
        ) {
            let mut lines = vec![HEADER.to_owned()];
            lines.extend((1..=entries as u64).map(entry));
            spoil(&mut lines, how, 1 + at % entries);
            // Half the cases carry a second fault on the last line, where
            // the torn-tail rule decides between "tolerated" and "refused".
            if second < SPOILS / 2 {
                spoil(&mut lines, second, entries);
            }
            let text = journal_of(&lines);
            for cut in (0..=text.len()).filter(|&cut| text.is_char_boundary(cut)) {
                let _ = read_all_ways(&text.as_bytes()[..cut]);
            }
        }
    }

    #[test]
    fn lines_append_never_wrote_are_judged_by_the_json_parser_as_before() {
        let read = |line: &str| {
            read_all_ways(journal_of(&[HEADER.into(), line.into(), entry(2)]).as_bytes())
        };
        for line in [
            "{\"seq\":1,\"k\":\"req\"}",
            " { \"k\" : \"req\", \"seq\" : 1 }\r",
            "{\"k\": \"req\", \"seq\": 1, \"extra\": [null]}",
            // The parser reads integers with `i64::from_str`, which takes
            // leading zeros.
            "{\"k\": \"req\", \"seq\": 01}",
        ] {
            let read = read(line).expect(line);
            assert_eq!((read.entries, read.torn_tail), (2, false), "{line}");
        }
        for (line, reason) in [
            (
                "{\"k\": \"req\", \"seq\": 10000000000000000001}",
                "missing seq",
            ),
            (
                "{\"k\": \"req\", \"seq\": 9223372036854775808}",
                "missing seq",
            ),
            ("{\"k\": \"req\", \"seq\": 1.0}", "missing seq"),
            ("{\"k\": \"req\", \"seq\": -1}", "missing seq"),
            ("{\"k\": \"hist\", \"seq\": 1}", "not a \"req\" line"),
            ("{\"k\": \"req\", \"seq\": }", "expected a value"),
            ("", "expected a value"),
        ] {
            let error = read(line).unwrap_err();
            let JournalError::Malformed {
                line: 2,
                reason: found,
            } = &error
            else {
                panic!("{line}: {error}");
            };
            assert!(found.contains(reason), "{line}: {found}");
        }
        assert_eq!(
            read("{\"k\": \"req\", \"seq\": 0}").unwrap_err(),
            JournalError::Gap {
                expected: 1,
                found: 0,
                line: 2
            }
        );
    }

    #[test]
    fn invalid_utf8_is_a_malformed_line_not_an_unreadable_file() {
        let mut bytes = journal_of(&[HEADER.into(), entry(1)]).into_bytes();
        let intact = bytes.len() as u64;
        bytes.extend_from_slice(b"{\"k\": \"req\", \xff\xfe");
        // As the last line — with or without its newline — it is the torn
        // tail, and reopening cuts it off.
        for tail in ["", "\n"] {
            let mut torn = bytes.clone();
            torn.extend_from_slice(tail.as_bytes());
            let read = read_all_ways(&torn).expect("torn tail tolerated");
            assert_eq!(
                (read.entries, read.torn_tail, read.valid_bytes),
                (1, true, intact)
            );
        }
        let path = tempfile("utf8.journal");
        fs::write(&path, &bytes).expect("write");
        assert_eq!(
            Journal::reopen(&path)
                .expect("reopen")
                .append()
                .expect("append"),
            2
        );
        assert_eq!(
            read_journal(&path).expect("clean").valid_bytes,
            intact + entry(2).len() as u64 + 1
        );
        // Anywhere else it is corruption, named by line.
        bytes.extend_from_slice(format!("\n{}\n", entry(2)).as_bytes());
        assert_eq!(
            read_all_ways(&bytes).unwrap_err(),
            JournalError::Malformed {
                line: 3,
                reason: "line is not valid UTF-8".into()
            }
        );
        // A header that is not text is not a header.
        assert_eq!(
            read_all_ways(b"{\"k\": \"journal\", \xff}\n").unwrap_err(),
            JournalError::NotAJournal
        );
        fs::remove_file(&path).ok();
    }
}

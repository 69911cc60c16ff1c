//! The checkpoint file: capture, JSONL serialization, validation, restore.
//!
//! One checkpoint is one JSONL file with four sections:
//!
//! 1. a header line (`"k":"checkpoint"`) carrying the format version, the
//!    collection index, the journal watermark, the telemetry sequence
//!    watermark, and the image fingerprint (hex — fingerprints use the full
//!    `u64` range);
//! 2. the embedded v2 diagnostic heap snapshot, verbatim, between
//!    `snapshot_begin`/`snapshot_end` marker lines — so every existing
//!    snapshot tool (`lp-diagnose`, `trace_replay`) can read a checkpoint's
//!    heap without knowing the checkpoint format;
//! 3. the authoritative restore lines (`classes`, `heap`, one `slot` line
//!    per occupied slot, `free`/`young`/`remembered`, `roots`, `counters`,
//!    `runtime`, `pruner`, one `gc_record` line per history entry) — the
//!    serialized [`RuntimeImage`], exact to the tag bit;
//! 4. a trailer line recording the total line count, validated on read, so
//!    a truncated file is refused instead of restoring a partial heap.
//!
//! Scalar payload words are hex strings for the same reason as the
//! fingerprint: JSON integers here are `i64`, and payload words are
//! arbitrary `u64` bit patterns.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use leak_pruning::recovery::fingerprint_image;
use leak_pruning::{
    GcRecordImage, OomImage, PrunerImage, PruningConfig, RestoreImageError, Runtime, RuntimeImage,
    SelectionImage,
};
use lp_diagnose::HeapSnapshot;
use lp_heap::{ClassId, HeapImage, RootImage, SlotImage};
use lp_telemetry::json::{self, JsonValue};
use lp_telemetry::Event;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A captured checkpoint: everything needed to rebuild the runtime and to
/// resume replay from the journal watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Collection index at capture time (`Runtime::gc_count`).
    pub gc_index: u64,
    /// Journal entries reflected in the image: entries `1..=watermark`
    /// were served before the capture; replay resumes at `watermark + 1`.
    pub watermark: u64,
    /// Telemetry events delivered before the capture completed — where a
    /// post-restore trace stitches onto the pre-crash one.
    pub telemetry_seq: u64,
    /// FNV-1a fingerprint of `image`, verified before restore.
    pub fingerprint: u64,
    /// The embedded diagnostic heap snapshot (v2 format, tool-readable).
    pub snapshot: HeapSnapshot,
    /// The authoritative runtime image the restore rebuilds from.
    pub image: RuntimeImage,
}

/// Why a checkpoint file was refused by [`Checkpoint::parse`] or
/// [`Checkpoint::read`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file (or text) contained no lines at all.
    Empty,
    /// The first line is not a checkpoint header. If it carries a bare
    /// snapshot version marker (a v1/v2 *snapshot* file, which has `"v"`
    /// but no `"k"`), that version is reported: snapshot files are
    /// diagnostic captures and carry no free-list, root or pruner state, so
    /// they can never feed a restore.
    NotACheckpoint {
        /// The `"v"` field of the offending header, when present.
        snapshot_version: Option<u64>,
    },
    /// The header's version is not supported.
    Version(u64),
    /// The trailer's line count disagrees with the actual line count — the
    /// file was truncated or spliced.
    Truncated {
        /// Line count the trailer promised.
        expected: u64,
        /// Non-empty lines actually present.
        actual: u64,
    },
    /// The file ended without a trailer line.
    MissingTrailer,
    /// A required section never appeared.
    MissingSection(&'static str),
    /// A line failed to parse.
    Line {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The embedded snapshot section failed `HeapSnapshot::parse`.
    Snapshot(String),
    /// Reading the file failed.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Empty => write!(f, "empty checkpoint"),
            CheckpointError::NotACheckpoint {
                snapshot_version: Some(v),
            } => write!(
                f,
                "file is a bare v{v} heap snapshot, not a checkpoint — snapshots are \
                 diagnostic captures without free-list, root or pruner state and cannot \
                 feed a restore"
            ),
            CheckpointError::NotACheckpoint {
                snapshot_version: None,
            } => write!(f, "first line is not a checkpoint header"),
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: trailer promises {expected} lines, found {actual}"
            ),
            CheckpointError::MissingTrailer => write!(f, "checkpoint has no trailer line"),
            CheckpointError::MissingSection(section) => {
                write!(f, "checkpoint is missing its {section:?} section")
            }
            CheckpointError::Line { line, reason } => write!(f, "line {line}: {reason}"),
            CheckpointError::Snapshot(reason) => {
                write!(f, "embedded snapshot refused: {reason}")
            }
            CheckpointError::Io(reason) => write!(f, "checkpoint io: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why [`Checkpoint::restore`] refused to rebuild a runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The image hashes to a different fingerprint than the header recorded
    /// at capture time — the file was corrupted or doctored.
    FingerprintMismatch {
        /// Fingerprint stored in the header.
        stored: u64,
        /// Fingerprint the parsed image actually hashes to.
        computed: u64,
    },
    /// The image itself was refused by `Runtime::restore_from`.
    Image(RestoreImageError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::FingerprintMismatch { stored, computed } => write!(
                f,
                "fingerprint mismatch: header records {stored:#018x}, image hashes to \
                 {computed:#018x}"
            ),
            RestoreError::Image(err) => write!(f, "image refused: {err}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<RestoreImageError> for RestoreError {
    fn from(err: RestoreImageError) -> Self {
        RestoreError::Image(err)
    }
}

impl Checkpoint {
    /// Captures a checkpoint of `rt` at a quiescent point, *without*
    /// collecting: the runtime's observable state — fingerprint included —
    /// is identical before and after, so a run that checkpoints every round
    /// replays byte-identically to one that never checkpoints. Any in-flight
    /// incremental mark cycle is closed first (the quiescence rule).
    ///
    /// `watermark` is the number of journal entries the caller has fully
    /// served; replay after restore resumes at `watermark + 1`.
    ///
    /// Emits [`Event::CheckpointBegin`]/[`Event::CheckpointEnd`] under a
    /// `"checkpoint"` span on the runtime's bus.
    pub fn capture(rt: &mut Runtime, watermark: u64) -> Checkpoint {
        let telemetry = rt.telemetry().clone();
        let gc_index = rt.gc_count();
        let span = telemetry.span("checkpoint", gc_index);
        telemetry.emit(|| Event::CheckpointBegin { gc_index });
        let capture = rt.snapshot_view();
        let image = rt.image();
        let fingerprint = fingerprint_image(&image);
        let telemetry_seq = telemetry.events_delivered();
        let checkpoint = Checkpoint {
            gc_index: image.gc_count,
            watermark,
            telemetry_seq,
            fingerprint,
            snapshot: capture.snapshot,
            image,
        };
        let lines = checkpoint.line_count();
        telemetry.emit(|| Event::CheckpointEnd {
            gc_index,
            lines,
            watermark,
        });
        drop(span);
        checkpoint
    }

    /// Rebuilds a runtime from this checkpoint under `config`.
    ///
    /// The stored fingerprint is verified against the parsed image first;
    /// the restored runtime has already passed the full heap sanitizer when
    /// this returns (see `Runtime::restore_from`).
    ///
    /// # Errors
    ///
    /// [`RestoreError::FingerprintMismatch`] for corrupted or doctored
    /// files, [`RestoreError::Image`] for images `Runtime::restore_from`
    /// refuses.
    pub fn restore(&self, config: PruningConfig) -> Result<Runtime, RestoreError> {
        let computed = fingerprint_image(&self.image);
        if computed != self.fingerprint {
            return Err(RestoreError::FingerprintMismatch {
                stored: self.fingerprint,
                computed,
            });
        }
        Ok(Runtime::restore_from(config, &self.image)?)
    }

    /// Lines [`Checkpoint::to_jsonl`] renders, from the section sizes
    /// alone: rendering the file to count them costs more than the rest of
    /// a capture.
    fn line_count(&self) -> u64 {
        // Header, the two snapshot markers, the snapshot's own header,
        // classes, heap, free, young, remembered, roots, counters, runtime,
        // pruner and trailer: one line each.
        const FIXED_LINES: u64 = 14;
        FIXED_LINES
            + self.snapshot.object_count()
            + (self.image.heap.slots.len() + self.image.history.len()) as u64
    }

    /// Serializes the checkpoint to its JSONL file format (see the
    /// [module docs](self) for the section layout).
    pub fn to_jsonl(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("checkpoint".to_owned())),
                ("v", uint(CHECKPOINT_VERSION)),
                ("gc", uint(self.gc_index)),
                ("watermark", uint(self.watermark)),
                ("telemetry_seq", uint(self.telemetry_seq)),
                ("fingerprint", hex(self.fingerprint)),
            ])
            .to_string(),
        );
        lines.push(marker("snapshot_begin"));
        for line in self.snapshot.to_jsonl().lines() {
            lines.push(line.to_owned());
        }
        lines.push(marker("snapshot_end"));

        let image = &self.image;
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("classes".to_owned())),
                (
                    "names",
                    JsonValue::Arr(
                        image
                            .classes
                            .iter()
                            .map(|name| JsonValue::Str(name.clone()))
                            .collect(),
                    ),
                ),
            ])
            .to_string(),
        );
        let heap = &image.heap;
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("heap".to_owned())),
                ("capacity", uint(heap.capacity)),
                (
                    "soft_budget",
                    heap.soft_budget.map_or(JsonValue::Null, uint),
                ),
                ("slot_count", uint(u64::from(heap.slot_count))),
            ])
            .to_string(),
        );
        for slot in &heap.slots {
            lines.push(
                obj(vec![
                    ("k", JsonValue::Str("slot".to_owned())),
                    ("slot", uint(u64::from(slot.slot))),
                    ("gen", uint(u64::from(slot.generation))),
                    ("class", uint(u64::from(slot.class.index()))),
                    ("fp", uint(u64::from(slot.footprint))),
                    ("fin", JsonValue::Bool(slot.finalizable)),
                    ("stale", uint(u64::from(slot.stale))),
                    (
                        "refs",
                        JsonValue::Arr(slot.refs.iter().map(|&raw| uint(u64::from(raw))).collect()),
                    ),
                    (
                        "data",
                        JsonValue::Arr(slot.data.iter().map(|&word| hex(word)).collect()),
                    ),
                ])
                .to_string(),
            );
        }
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("free".to_owned())),
                (
                    "slots",
                    JsonValue::Arr(heap.free.iter().map(|&(s, g)| pair(s, g)).collect()),
                ),
            ])
            .to_string(),
        );
        lines.push(slot_list("young", &heap.young));
        lines.push(slot_list("remembered", &heap.remembered));

        let roots = &image.roots;
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("roots".to_owned())),
                (
                    "statics",
                    JsonValue::Arr(roots.statics.iter().map(opt_pair).collect()),
                ),
                (
                    "frames",
                    JsonValue::Arr(
                        roots
                            .frames
                            .iter()
                            .map(|frame| match frame {
                                None => JsonValue::Null,
                                Some(slots) => JsonValue::Arr(slots.iter().map(opt_pair).collect()),
                            })
                            .collect(),
                    ),
                ),
                (
                    "free_frames",
                    JsonValue::Arr(
                        roots
                            .free_frames
                            .iter()
                            .map(|&i| uint(u64::from(i)))
                            .collect(),
                    ),
                ),
                (
                    "registers",
                    JsonValue::Arr(roots.registers.iter().map(|&(s, g)| pair(s, g)).collect()),
                ),
            ])
            .to_string(),
        );

        let counters = &image.counters;
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("counters".to_owned())),
                ("ref_reads", uint(counters.ref_reads)),
                ("barrier_cold_hits", uint(counters.barrier_cold_hits)),
                ("stale_use_updates", uint(counters.stale_use_updates)),
                ("pruned_access_throws", uint(counters.pruned_access_throws)),
                ("finalizers_run", uint(counters.finalizers_run)),
                ("finalizers_skipped", uint(counters.finalizers_skipped)),
                ("minor_collections", uint(counters.minor_collections)),
                ("remembered_stores", uint(counters.remembered_stores)),
            ])
            .to_string(),
        );
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("runtime".to_owned())),
                ("gc_count", uint(image.gc_count)),
                ("bytes_since_gc", uint(image.bytes_since_gc)),
                ("reads_since_gc", uint(image.reads_since_gc)),
                ("used_at_last_full", uint(image.used_at_last_full)),
                (
                    "incremental_armed",
                    JsonValue::Bool(image.incremental_armed),
                ),
            ])
            .to_string(),
        );

        let pruner = &image.pruner;
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("pruner".to_owned())),
                ("state", JsonValue::Str(pruner.state.clone())),
                ("exhausted_once", JsonValue::Bool(pruner.exhausted_once)),
                (
                    "select_static_only",
                    JsonValue::Bool(pruner.select_static_only),
                ),
                (
                    "averted_oom",
                    pruner.averted_oom.as_ref().map_or(JsonValue::Null, |oom| {
                        obj(vec![
                            ("gc", uint(oom.gc_index)),
                            ("used", uint(oom.used_bytes)),
                            ("capacity", uint(oom.capacity)),
                        ])
                    }),
                ),
                (
                    "selection",
                    pruner
                        .selection
                        .as_ref()
                        .map_or(JsonValue::Null, selection_json),
                ),
                (
                    "census",
                    JsonValue::Arr(
                        pruner
                            .pruned_census
                            .iter()
                            .map(|&(s, t, n)| triple(u64::from(s), u64::from(t), n))
                            .collect(),
                    ),
                ),
                ("total_pruned_refs", uint(pruner.total_pruned_refs)),
                ("stale_clock", uint(pruner.stale_clock)),
                ("select_collections", uint(pruner.select_collections)),
                (
                    "edges",
                    JsonValue::Arr(
                        pruner
                            .edges
                            .iter()
                            .map(|&(s, t, m)| triple(u64::from(s), u64::from(t), u64::from(m)))
                            .collect(),
                    ),
                ),
            ])
            .to_string(),
        );
        for record in &image.history {
            lines.push(
                obj(vec![
                    ("k", JsonValue::Str("gc_record".to_owned())),
                    ("gc", uint(record.gc_index)),
                    ("state", JsonValue::Str(record.state.clone())),
                    ("live_bytes", uint(record.live_bytes_after)),
                    ("live_objects", uint(record.live_objects_after)),
                    ("freed_bytes", uint(record.freed_bytes)),
                    ("freed_objects", uint(record.freed_objects)),
                    ("pruned_refs", uint(record.pruned_refs)),
                    (
                        "selected",
                        record
                            .selected
                            .as_ref()
                            .map_or(JsonValue::Null, selection_json),
                    ),
                    ("mark_nanos", uint(record.mark_nanos)),
                    ("sweep_nanos", uint(record.sweep_nanos)),
                    (
                        "flush_nanos",
                        record.flush_nanos.map_or(JsonValue::Null, uint),
                    ),
                ])
                .to_string(),
            );
        }

        // The trailer counts every line in the file, itself included.
        lines.push(
            obj(vec![
                ("k", JsonValue::Str("trailer".to_owned())),
                ("lines", uint(lines.len() as u64 + 1)),
            ])
            .to_string(),
        );
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Parses a checkpoint back from its JSONL form, validating the
    /// trailer's line count.
    ///
    /// # Errors
    ///
    /// See [`CheckpointError`]; notably, bare heap-snapshot files (v1 or
    /// v2) are refused with a typed [`CheckpointError::NotACheckpoint`].
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, raw)| (i + 1, raw))
            .filter(|(_, raw)| !raw.trim().is_empty())
            .collect();
        let &(line_no, header_raw) = lines.first().ok_or(CheckpointError::Empty)?;
        let header = json::parse(header_raw).map_err(|e| CheckpointError::Line {
            line: line_no,
            reason: e.to_string(),
        })?;
        if header.get("k").and_then(JsonValue::as_str) != Some("checkpoint") {
            return Err(CheckpointError::NotACheckpoint {
                snapshot_version: header.get("v").and_then(JsonValue::as_u64),
            });
        }
        let at = |line: usize| move |reason: String| CheckpointError::Line { line, reason };
        let version = need_u64(&header, "v").map_err(at(line_no))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(version));
        }
        let gc_index = need_u64(&header, "gc").map_err(at(line_no))?;
        let watermark = need_u64(&header, "watermark").map_err(at(line_no))?;
        let telemetry_seq = need_u64(&header, "telemetry_seq").map_err(at(line_no))?;
        let fingerprint = need_hex(&header, "fingerprint").map_err(at(line_no))?;

        let mut snapshot_text: Option<String> = None;
        let mut classes: Option<Vec<String>> = None;
        let mut heap: Option<HeapImage> = None;
        let mut slots: Vec<SlotImage> = Vec::new();
        let mut free: Option<Vec<(u32, u32)>> = None;
        let mut young: Option<Vec<u32>> = None;
        let mut remembered: Option<Vec<u32>> = None;
        let mut roots: Option<RootImage> = None;
        let mut counters: Option<leak_pruning::MutatorCounters> = None;
        let mut runtime_line: Option<(u64, u64, u64, u64, bool)> = None;
        let mut pruner: Option<PrunerImage> = None;
        let mut history: Vec<GcRecordImage> = Vec::new();
        let mut trailer: Option<u64> = None;

        // The two marker lines are recognised by their text (as `to_jsonl`
        // renders them), so the snapshot lines between them — most of the
        // file — are parsed once, by `HeapSnapshot::parse`, not here too.
        let (snapshot_begin, snapshot_end) = (marker("snapshot_begin"), marker("snapshot_end"));
        let mut in_snapshot = false;
        let mut snapshot_buf = String::new();
        for &(line_no, raw) in &lines[1..] {
            if trailer.is_some() {
                return Err(CheckpointError::Line {
                    line: line_no,
                    reason: "content after the trailer".to_owned(),
                });
            }
            if in_snapshot {
                if raw.trim() == snapshot_end {
                    in_snapshot = false;
                    snapshot_text = Some(std::mem::take(&mut snapshot_buf));
                } else {
                    snapshot_buf.push_str(raw);
                    snapshot_buf.push('\n');
                }
                continue;
            }
            if raw.trim() == snapshot_begin {
                in_snapshot = true;
                continue;
            }
            let value = json::parse(raw).map_err(|e| CheckpointError::Line {
                line: line_no,
                reason: e.to_string(),
            })?;
            let kind = value.get("k").and_then(JsonValue::as_str);
            let at = |reason: String| CheckpointError::Line {
                line: line_no,
                reason,
            };
            match kind {
                Some("classes") => {
                    let names = need_arr(&value, "names").map_err(at)?;
                    classes = Some(
                        names
                            .iter()
                            .map(|v| {
                                v.as_str()
                                    .map(str::to_owned)
                                    .ok_or_else(|| "non-string class name".to_owned())
                            })
                            .collect::<Result<_, String>>()
                            .map_err(at)?,
                    );
                }
                Some("heap") => {
                    heap = Some(HeapImage {
                        capacity: need_u64(&value, "capacity").map_err(at)?,
                        soft_budget: match value.get("soft_budget") {
                            Some(JsonValue::Null) | None => None,
                            Some(v) => {
                                Some(v.as_u64().ok_or_else(|| at("bad soft_budget".to_owned()))?)
                            }
                        },
                        slot_count: need_u32(&value, "slot_count").map_err(at)?,
                        slots: Vec::new(),
                        free: Vec::new(),
                        young: Vec::new(),
                        remembered: Vec::new(),
                    });
                }
                Some("slot") => {
                    slots.push(SlotImage {
                        slot: need_u32(&value, "slot").map_err(at)?,
                        generation: need_u32(&value, "gen").map_err(at)?,
                        class: ClassId::from_index(need_u32(&value, "class").map_err(at)?),
                        footprint: need_u32(&value, "fp").map_err(at)?,
                        finalizable: need_bool(&value, "fin").map_err(at)?,
                        stale: u8::try_from(need_u64(&value, "stale").map_err(at)?)
                            .map_err(|_| at("stale out of range".to_owned()))?,
                        refs: u32_values(need_arr(&value, "refs").map_err(at)?).map_err(at)?,
                        data: need_arr(&value, "data")
                            .map_err(at)?
                            .iter()
                            .map(|v| {
                                v.as_str()
                                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                                    .ok_or_else(|| "bad data word".to_owned())
                            })
                            .collect::<Result<_, String>>()
                            .map_err(at)?,
                    });
                }
                Some("free") => {
                    free = Some(
                        need_arr(&value, "slots")
                            .map_err(at)?
                            .iter()
                            .map(pair_from)
                            .collect::<Result<_, String>>()
                            .map_err(at)?,
                    );
                }
                Some("young") => {
                    young = Some(u32_values(need_arr(&value, "slots").map_err(at)?).map_err(at)?);
                }
                Some("remembered") => {
                    remembered =
                        Some(u32_values(need_arr(&value, "slots").map_err(at)?).map_err(at)?);
                }
                Some("roots") => {
                    roots = Some(RootImage {
                        statics: need_arr(&value, "statics")
                            .map_err(at)?
                            .iter()
                            .map(opt_pair_from)
                            .collect::<Result<_, String>>()
                            .map_err(at)?,
                        frames: need_arr(&value, "frames")
                            .map_err(at)?
                            .iter()
                            .map(|frame| match frame {
                                JsonValue::Null => Ok(None),
                                JsonValue::Arr(slots) => {
                                    Ok(Some(slots.iter().map(opt_pair_from).collect::<Result<
                                        Vec<_>,
                                        String,
                                    >>(
                                    )?))
                                }
                                _ => Err("bad frame entry".to_owned()),
                            })
                            .collect::<Result<_, String>>()
                            .map_err(at)?,
                        free_frames: u32_values(need_arr(&value, "free_frames").map_err(at)?)
                            .map_err(at)?,
                        registers: need_arr(&value, "registers")
                            .map_err(at)?
                            .iter()
                            .map(pair_from)
                            .collect::<Result<_, String>>()
                            .map_err(at)?,
                    });
                }
                Some("counters") => {
                    counters = Some(leak_pruning::MutatorCounters {
                        ref_reads: need_u64(&value, "ref_reads").map_err(at)?,
                        barrier_cold_hits: need_u64(&value, "barrier_cold_hits").map_err(at)?,
                        stale_use_updates: need_u64(&value, "stale_use_updates").map_err(at)?,
                        pruned_access_throws: need_u64(&value, "pruned_access_throws")
                            .map_err(at)?,
                        finalizers_run: need_u64(&value, "finalizers_run").map_err(at)?,
                        finalizers_skipped: need_u64(&value, "finalizers_skipped").map_err(at)?,
                        minor_collections: need_u64(&value, "minor_collections").map_err(at)?,
                        remembered_stores: need_u64(&value, "remembered_stores").map_err(at)?,
                    });
                }
                Some("runtime") => {
                    runtime_line = Some((
                        need_u64(&value, "gc_count").map_err(at)?,
                        need_u64(&value, "bytes_since_gc").map_err(at)?,
                        need_u64(&value, "reads_since_gc").map_err(at)?,
                        need_u64(&value, "used_at_last_full").map_err(at)?,
                        need_bool(&value, "incremental_armed").map_err(at)?,
                    ));
                }
                Some("pruner") => {
                    pruner = Some(PrunerImage {
                        state: need_str(&value, "state").map_err(at)?.to_owned(),
                        exhausted_once: need_bool(&value, "exhausted_once").map_err(at)?,
                        select_static_only: need_bool(&value, "select_static_only").map_err(at)?,
                        averted_oom: match value.get("averted_oom") {
                            Some(JsonValue::Null) | None => None,
                            Some(oom) => Some(OomImage {
                                gc_index: need_u64(oom, "gc").map_err(at)?,
                                used_bytes: need_u64(oom, "used").map_err(at)?,
                                capacity: need_u64(oom, "capacity").map_err(at)?,
                            }),
                        },
                        selection: selection_from(&value, "selection").map_err(at)?,
                        pruned_census: need_arr(&value, "census")
                            .map_err(at)?
                            .iter()
                            .map(census_from)
                            .collect::<Result<_, String>>()
                            .map_err(at)?,
                        total_pruned_refs: need_u64(&value, "total_pruned_refs").map_err(at)?,
                        stale_clock: need_u64(&value, "stale_clock").map_err(at)?,
                        select_collections: need_u64(&value, "select_collections").map_err(at)?,
                        edges: need_arr(&value, "edges")
                            .map_err(at)?
                            .iter()
                            .map(edge_from)
                            .collect::<Result<_, String>>()
                            .map_err(at)?,
                    });
                }
                Some("gc_record") => {
                    history.push(GcRecordImage {
                        gc_index: need_u64(&value, "gc").map_err(at)?,
                        state: need_str(&value, "state").map_err(at)?.to_owned(),
                        live_bytes_after: need_u64(&value, "live_bytes").map_err(at)?,
                        live_objects_after: need_u64(&value, "live_objects").map_err(at)?,
                        freed_bytes: need_u64(&value, "freed_bytes").map_err(at)?,
                        freed_objects: need_u64(&value, "freed_objects").map_err(at)?,
                        pruned_refs: need_u64(&value, "pruned_refs").map_err(at)?,
                        selected: selection_from(&value, "selected").map_err(at)?,
                        mark_nanos: need_u64(&value, "mark_nanos").map_err(at)?,
                        sweep_nanos: need_u64(&value, "sweep_nanos").map_err(at)?,
                        flush_nanos: match value.get("flush_nanos") {
                            Some(JsonValue::Null) | None => None,
                            Some(v) => {
                                Some(v.as_u64().ok_or_else(|| at("bad flush_nanos".to_owned()))?)
                            }
                        },
                    });
                }
                Some("trailer") => {
                    trailer = Some(need_u64(&value, "lines").map_err(at)?);
                }
                Some(other) => {
                    return Err(at(format!("unknown checkpoint line kind {other:?}")));
                }
                None => {
                    return Err(at("restore line without a \"k\" kind".to_owned()));
                }
            }
        }

        let expected = trailer.ok_or(CheckpointError::MissingTrailer)?;
        let actual = lines.len() as u64;
        if expected != actual {
            return Err(CheckpointError::Truncated { expected, actual });
        }
        if in_snapshot {
            return Err(CheckpointError::MissingSection("snapshot_end"));
        }
        let snapshot_text = snapshot_text.ok_or(CheckpointError::MissingSection("snapshot"))?;
        let snapshot = HeapSnapshot::parse(&snapshot_text).map_err(CheckpointError::Snapshot)?;
        let mut heap = heap.ok_or(CheckpointError::MissingSection("heap"))?;
        heap.slots = slots;
        heap.free = free.ok_or(CheckpointError::MissingSection("free"))?;
        heap.young = young.ok_or(CheckpointError::MissingSection("young"))?;
        heap.remembered = remembered.ok_or(CheckpointError::MissingSection("remembered"))?;
        let (gc_count, bytes_since_gc, reads_since_gc, used_at_last_full, incremental_armed) =
            runtime_line.ok_or(CheckpointError::MissingSection("runtime"))?;
        let image = RuntimeImage {
            classes: classes.ok_or(CheckpointError::MissingSection("classes"))?,
            heap,
            roots: roots.ok_or(CheckpointError::MissingSection("roots"))?,
            gc_count,
            counters: counters.ok_or(CheckpointError::MissingSection("counters"))?,
            bytes_since_gc,
            reads_since_gc,
            used_at_last_full,
            incremental_armed,
            pruner: pruner.ok_or(CheckpointError::MissingSection("pruner"))?,
            history,
        };
        Ok(Checkpoint {
            gc_index,
            watermark,
            telemetry_seq,
            fingerprint,
            snapshot,
            image,
        })
    }

    /// Writes the checkpoint atomically: serialize to `<path>.tmp`, fsync,
    /// rename over `path`. A crash mid-write leaves the previous checkpoint
    /// (if any) intact; a crash between fsync and rename leaves a stale
    /// `.tmp` that the next write overwrites.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(self.to_jsonl().as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] for filesystem failures, otherwise the
    /// parse errors of [`Checkpoint::parse`].
    pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Checkpoint::parse(&text)
    }
}

// ----- JSON helpers ---------------------------------------------------------

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn marker(kind: &str) -> String {
    obj(vec![("k", JsonValue::Str(kind.to_owned()))]).to_string()
}

fn uint(value: u64) -> JsonValue {
    JsonValue::from_u64(value)
}

/// Arbitrary `u64` bit patterns (fingerprints, payload words) as hex
/// strings — JSON integers here are `i64` and would overflow.
fn hex(value: u64) -> JsonValue {
    JsonValue::Str(format!("{value:x}"))
}

fn pair(slot: u32, generation: u32) -> JsonValue {
    JsonValue::Arr(vec![uint(u64::from(slot)), uint(u64::from(generation))])
}

fn triple(a: u64, b: u64, c: u64) -> JsonValue {
    JsonValue::Arr(vec![uint(a), uint(b), uint(c)])
}

fn opt_pair(entry: &Option<(u32, u32)>) -> JsonValue {
    match entry {
        None => JsonValue::Null,
        Some((slot, generation)) => pair(*slot, *generation),
    }
}

fn slot_list(kind: &str, slots: &[u32]) -> String {
    obj(vec![
        ("k", JsonValue::Str(kind.to_owned())),
        (
            "slots",
            JsonValue::Arr(slots.iter().map(|&s| uint(u64::from(s))).collect()),
        ),
    ])
    .to_string()
}

fn selection_json(selection: &SelectionImage) -> JsonValue {
    match *selection {
        SelectionImage::Edge { src, tgt, bytes } => obj(vec![
            ("type", JsonValue::Str("edge".to_owned())),
            ("src", uint(u64::from(src))),
            ("tgt", uint(u64::from(tgt))),
            ("bytes", uint(bytes)),
        ]),
        SelectionImage::StaleLevel(level) => obj(vec![
            ("type", JsonValue::Str("stale".to_owned())),
            ("level", uint(u64::from(level))),
        ]),
    }
}

fn need_u64(value: &JsonValue, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-numeric {key:?}"))
}

fn need_u32(value: &JsonValue, key: &str) -> Result<u32, String> {
    u32::try_from(need_u64(value, key)?).map_err(|_| format!("{key:?} out of u32 range"))
}

fn need_str<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or non-string {key:?}"))
}

fn need_bool(value: &JsonValue, key: &str) -> Result<bool, String> {
    value
        .get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("missing or non-boolean {key:?}"))
}

fn need_arr<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    value
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("missing or non-array {key:?}"))
}

fn need_hex(value: &JsonValue, key: &str) -> Result<u64, String> {
    need_str(value, key)
        .and_then(|s| u64::from_str_radix(s, 16).map_err(|_| format!("bad hex in {key:?}")))
}

fn u32_values(values: &[JsonValue]) -> Result<Vec<u32>, String> {
    values
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| "non-u32 array entry".to_owned())
        })
        .collect()
}

fn pair_from(value: &JsonValue) -> Result<(u32, u32), String> {
    match value.as_arr() {
        Some([a, b]) => {
            let pair = u32_values(&[a.clone(), b.clone()])?;
            Ok((pair[0], pair[1]))
        }
        _ => Err("expected a [slot, generation] pair".to_owned()),
    }
}

fn opt_pair_from(value: &JsonValue) -> Result<Option<(u32, u32)>, String> {
    match value {
        JsonValue::Null => Ok(None),
        other => pair_from(other).map(Some),
    }
}

fn census_from(value: &JsonValue) -> Result<(u32, u32, u64), String> {
    let bad = |what: &str| format!("bad census {what}");
    match value.as_arr() {
        Some([s, t, n]) => Ok((
            u32::try_from(s.as_u64().ok_or_else(|| bad("src"))?).map_err(|_| bad("src range"))?,
            u32::try_from(t.as_u64().ok_or_else(|| bad("tgt"))?).map_err(|_| bad("tgt range"))?,
            n.as_u64().ok_or_else(|| bad("count"))?,
        )),
        _ => Err("expected a [src, tgt, refs] triple".to_owned()),
    }
}

fn edge_from(value: &JsonValue) -> Result<(u32, u32, u8), String> {
    let (src, tgt, max) = census_from(value)?;
    Ok((
        src,
        tgt,
        u8::try_from(max).map_err(|_| "max_stale_use out of range".to_owned())?,
    ))
}

fn selection_from(value: &JsonValue, key: &str) -> Result<Option<SelectionImage>, String> {
    match value.get(key) {
        Some(JsonValue::Null) | None => Ok(None),
        Some(sel) => match need_str(sel, "type")? {
            "edge" => Ok(Some(SelectionImage::Edge {
                src: need_u32(sel, "src")?,
                tgt: need_u32(sel, "tgt")?,
                bytes: need_u64(sel, "bytes")?,
            })),
            "stale" => Ok(Some(SelectionImage::StaleLevel(
                u8::try_from(need_u64(sel, "level")?)
                    .map_err(|_| "level out of range".to_owned())?,
            ))),
            other => Err(format!("unknown selection type {other:?}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leak_pruning::RuntimeError;
    use lp_workloads::{LeakyService, Service};

    const KB: u64 = 1024;

    /// A runtime driven far enough through the leaky service to have pruned
    /// (poisoned references, deferred OOM, non-trivial pruner state).
    fn pruned_runtime(requests: u64) -> Runtime {
        let config = PruningConfig::builder(96 * KB).flight_recorder(256).build();
        let mut rt = Runtime::new(config);
        let mut service = LeakyService::default();
        service.setup(&mut rt).expect("setup");
        for seq in 0..requests {
            match service.handle(&mut rt, seq) {
                Ok(()) | Err(RuntimeError::PrunedAccess(_)) => {}
                Err(err) => panic!("request {seq} failed: {err}"),
            }
            rt.release_registers();
        }
        rt
    }

    #[test]
    fn capture_is_non_perturbing() {
        // The headline property: checkpointing must not change the
        // runtime's observable state, or a recovered run's history could
        // never byte-match an uninterrupted one.
        let mut rt = pruned_runtime(1200);
        let before = rt.fingerprint();
        let gc_before = rt.gc_count();
        let checkpoint = Checkpoint::capture(&mut rt, 1200);
        assert_eq!(rt.fingerprint(), before, "fingerprint unchanged");
        assert_eq!(rt.gc_count(), gc_before, "no collection consumed");
        assert_eq!(checkpoint.fingerprint, before);
        assert_eq!(checkpoint.watermark, 1200);
        assert!(checkpoint.telemetry_seq > 0);
    }

    #[test]
    fn reattached_service_replays_in_lock_step() {
        // The recovery path end to end, minus the file system: run a leaky
        // service, checkpoint mid-flight, restore into a fresh runtime,
        // reattach a *new* service instance, and drive both runtimes
        // through the same request suffix. Determinism means they never
        // diverge — this is the property journal replay stands on.
        let mut original = Runtime::new(PruningConfig::builder(96 * KB).build());
        let mut service = LeakyService::default();
        service.setup(&mut original).expect("setup");
        let serve = |rt: &mut Runtime, svc: &mut LeakyService, seq: u64| {
            match svc.handle(rt, seq) {
                Ok(()) | Err(RuntimeError::PrunedAccess(_)) => {}
                Err(err) => panic!("request {seq} failed: {err}"),
            }
            rt.release_registers();
        };
        for seq in 0..900 {
            serve(&mut original, &mut service, seq);
        }

        let checkpoint = Checkpoint::capture(&mut original, 900);
        let mut restored = checkpoint
            .restore(PruningConfig::builder(96 * KB).build())
            .expect("restores");
        let mut recovered = LeakyService::default();
        assert!(recovered.reattach(&restored), "classes and roots survive");

        for seq in 900..1500 {
            serve(&mut original, &mut service, seq);
            serve(&mut restored, &mut recovered, seq);
        }
        assert_eq!(restored.fingerprint(), original.fingerprint());
        assert_eq!(restored.gc_count(), original.gc_count());
        assert!(restored.verify_heap().is_empty());
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let mut rt = pruned_runtime(1500);
        assert!(
            rt.prune_report().total_pruned_refs > 0,
            "exercise poisoned state"
        );
        let checkpoint = Checkpoint::capture(&mut rt, 1500);
        let text = checkpoint.to_jsonl();
        let parsed = Checkpoint::parse(&text).expect("parses");
        assert_eq!(parsed, checkpoint, "lossless round-trip");
    }

    #[test]
    fn restore_passes_verifier_and_matches_fingerprint() {
        let config = PruningConfig::builder(96 * KB).build();
        let mut rt = pruned_runtime(1500);
        let checkpoint = Checkpoint::capture(&mut rt, 1500);
        let reparsed =
            Checkpoint::parse(&checkpoint.to_jsonl()).expect("round-trips through the file");
        let mut restored = reparsed.restore(config).expect("restores");
        assert!(restored.verify_heap().is_empty());
        assert_eq!(restored.fingerprint(), rt.fingerprint());
    }

    #[test]
    fn tampered_image_is_refused_by_fingerprint() {
        let mut rt = pruned_runtime(400);
        let mut checkpoint = Checkpoint::capture(&mut rt, 400);
        checkpoint.image.gc_count += 1;
        let config = PruningConfig::builder(96 * KB).build();
        assert!(matches!(
            checkpoint.restore(config).unwrap_err(),
            RestoreError::FingerprintMismatch { .. }
        ));
    }

    #[test]
    fn bare_snapshot_file_is_refused_with_typed_error() {
        // A diagnostic snapshot (even the v2 one embedded in checkpoints)
        // must never be mistaken for a checkpoint: it has no free-list,
        // root or pruner state to restore from.
        let mut rt = pruned_runtime(300);
        let snapshot_text = rt.capture_snapshot().snapshot.to_jsonl();
        let err = Checkpoint::parse(&snapshot_text).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::NotACheckpoint {
                snapshot_version: Some(lp_diagnose::SNAPSHOT_VERSION),
            }
        );
        assert!(err.to_string().contains("not a checkpoint"));
    }

    #[test]
    fn truncated_files_are_refused() {
        let mut rt = pruned_runtime(300);
        let text = Checkpoint::capture(&mut rt, 300).to_jsonl();

        // Drop the trailer entirely.
        let mut lines: Vec<&str> = text.lines().collect();
        let trailer = lines.pop().expect("has trailer");
        assert!(trailer.contains("trailer"));
        assert_eq!(
            Checkpoint::parse(&lines.join("\n")).unwrap_err(),
            CheckpointError::MissingTrailer
        );

        // Drop a middle line but keep the trailer: count mismatch.
        let mut spliced: Vec<&str> = text.lines().collect();
        spliced.remove(3);
        assert!(matches!(
            Checkpoint::parse(&spliced.join("\n")).unwrap_err(),
            CheckpointError::Truncated { .. }
        ));
    }

    #[test]
    fn garbled_lines_are_refused_by_the_parser_that_owns_them() {
        let mut rt = pruned_runtime(300);
        let text = Checkpoint::capture(&mut rt, 300).to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        let garble = |index: usize| {
            let mut garbled = lines.clone();
            garbled[index] = "{\"id\": 1, \"class\"";
            Checkpoint::parse(&garbled.join("\n")).unwrap_err()
        };
        // Line 4 is the first object of the embedded snapshot: its lines
        // are handed through to the snapshot parser unparsed, and it is the
        // one that refuses them.
        assert!(lines[1].contains("snapshot_begin") && !lines[3].contains("snapshot_end"));
        assert!(matches!(garble(3), CheckpointError::Snapshot(_)));
        // A restore line is still this parser's to refuse, by line number.
        let classes = lines
            .iter()
            .position(|l| l.contains("\"classes\"") && l.contains("\"k\""))
            .expect("classes line");
        assert!(matches!(
            garble(classes),
            CheckpointError::Line { line, .. } if line == classes + 1
        ));
    }

    #[test]
    fn embedded_snapshot_is_tool_readable() {
        // The snapshot section between the markers is a valid v2 snapshot
        // on its own — existing tooling can read a checkpoint's heap.
        let mut rt = pruned_runtime(800);
        let checkpoint = Checkpoint::capture(&mut rt, 800);
        let text = checkpoint.to_jsonl();
        let section: String = text
            .lines()
            .skip_while(|l| !l.contains("snapshot_begin"))
            .skip(1)
            .take_while(|l| !l.contains("snapshot_end"))
            .map(|l| format!("{l}\n"))
            .collect();
        let snapshot = HeapSnapshot::parse(&section).expect("section is a valid snapshot");
        assert_eq!(snapshot.object_count(), checkpoint.snapshot.object_count());
        // The checkpoint capture does not sweep, so floating garbage is
        // still on the heap: the snapshot's *total* matches used bytes.
        assert_eq!(snapshot.total_bytes(), rt.used_bytes());
    }

    #[test]
    fn write_is_atomic_and_read_roundtrips() {
        let dir = std::env::temp_dir().join(format!("lp-recovery-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("tenant.ckpt");

        let mut rt = pruned_runtime(600);
        let checkpoint = Checkpoint::capture(&mut rt, 600);
        checkpoint.write(&path).expect("write");
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp renamed away on success"
        );
        let read = Checkpoint::read(&path).expect("read");
        assert_eq!(read, checkpoint);

        // Overwrite with a later checkpoint; the file is replaced whole.
        let later = Checkpoint::capture(&mut rt, 700);
        later.write(&path).expect("rewrite");
        assert_eq!(Checkpoint::read(&path).expect("reread").watermark, 700);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_events_are_emitted_in_span() {
        let mut rt = pruned_runtime(300);
        let checkpoint = Checkpoint::capture(&mut rt, 300);
        let recorded = rt.telemetry().recorder_snapshot();
        let begin = recorded
            .iter()
            .find_map(|l| match l.event {
                Event::CheckpointBegin { gc_index } => Some(gc_index),
                _ => None,
            })
            .expect("checkpoint_begin emitted");
        let (gc, lines, watermark) = recorded
            .iter()
            .find_map(|l| match l.event {
                Event::CheckpointEnd {
                    gc_index,
                    lines,
                    watermark,
                } => Some((gc_index, lines, watermark)),
                _ => None,
            })
            .expect("checkpoint_end emitted");
        assert_eq!(begin, gc);
        assert_eq!(watermark, 300);
        assert_eq!(lines, checkpoint.to_jsonl().lines().count() as u64);
    }
}

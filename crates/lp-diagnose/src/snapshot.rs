//! Heap snapshots: capturing the full heap image and round-tripping it
//! through a compact JSONL file format.
//!
//! Format v2 records *every occupied slot*, not just the live mark
//! closure: each object carries a reachability class (`live` — in the
//! mark closure; `dead` — unreachable but still pointed at by a poisoned
//! reference from the live graph, the paper's dead-but-reachable
//! boundary; `floating` — plain unswept garbage), its young/stale bits,
//! the number of unlogged reference fields, and the target slots of its
//! poisoned references. The header additionally carries the heap's used
//! bytes at capture time and the pruner's Figure-2 state (state name,
//! deferred-OOM flag, current selection, pruned-edge census with
//! `max_stale_use`). The reader negotiates versions, so v1 files — which
//! recorded only the live closure — still parse with defaulted fields.
//!
//! The file format matches lp-telemetry's trace style: hand-rolled JSON,
//! one object per line, integers kept exact. Line 1 is a header carrying
//! the class-name table and the root slots; every following line is one
//! object:
//!
//! ```text
//! {"v":2,"gc":12,"capacity":2097152,"used":1864,"classes":["Node"],"roots":[0]}
//! {"id":0,"class":0,"bytes":280,"stale":7,"reach":"live","young":false,"unlogged":1,"refs":[1],"poisoned":[9]}
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::time::Instant;

use lp_gc::{trace, EdgeAction, EdgeVisitor, TraceStats};
use lp_heap::{ClassRegistry, Heap, Object, RootSet, TaggedRef};
use lp_telemetry::json::{self, JsonValue};

/// Current snapshot format version, written as the header's `v` field.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Oldest version the reader still parses.
pub const SNAPSHOT_MIN_VERSION: u64 = 1;

/// How an object relates to the live graph at capture time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Reachability {
    /// In the transitive closure from the roots (poisoned references not
    /// followed) — the object survives a collection.
    #[default]
    Live,
    /// Not in the live closure, but still the target of a poisoned
    /// reference path from it: the paper's dead-but-reachable boundary,
    /// visible to the program only as a `PrunedAccess` error.
    DeadReachable,
    /// Unreachable from the live closure entirely — floating garbage the
    /// next sweep reclaims.
    Floating,
}

impl Reachability {
    /// Stable wire label (the object line's `reach` field).
    pub fn tag(self) -> &'static str {
        match self {
            Reachability::Live => "live",
            Reachability::DeadReachable => "dead",
            Reachability::Floating => "floating",
        }
    }

    fn from_tag(tag: &str) -> Option<Reachability> {
        match tag {
            "live" => Some(Reachability::Live),
            "dead" => Some(Reachability::DeadReachable),
            "floating" => Some(Reachability::Floating),
            _ => None,
        }
    }
}

/// One occupied slot in a snapshot: identity (heap slot), class index into
/// the header's class table, footprint, staleness/young bits, and the
/// slots its reference fields point at — split into followable references
/// and poisoned ones.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SnapshotObject {
    /// Heap slot — the object's identity within the snapshot.
    pub id: u32,
    /// Index into [`HeapSnapshot::classes`].
    pub class: u32,
    /// Object footprint in simulated bytes.
    pub bytes: u32,
    /// Stale counter at capture time (0..=7).
    pub stale: u8,
    /// Reachability class (v1 files: always [`Reachability::Live`]).
    pub reach: Reachability,
    /// Whether the object sits in the nursery (v1 files: `false`).
    pub young: bool,
    /// Number of reference fields whose unlogged bit is set (v1 files: 0).
    pub unlogged: u32,
    /// Slots of the objects this object's non-null, non-poisoned
    /// reference fields target (v2: any occupied target; v1 recorded only
    /// marked targets).
    pub refs: Vec<u32>,
    /// Target slots of this object's poisoned references. The slot may no
    /// longer be occupied — a pruned target the sweep already reclaimed —
    /// in which case no object line carries that id (v1 files: empty).
    pub poisoned: Vec<u32>,
}

/// The selection the pruner most recently committed (header metadata).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectedPrune {
    /// The default policy picked one edge type.
    Edge {
        /// Source class index (into [`HeapSnapshot::classes`]).
        src: u32,
        /// Target class index.
        tgt: u32,
        /// Stale bytes the SELECT closure attributed to the edge.
        bytes: u64,
    },
    /// The most-stale policy picked a staleness level.
    StaleLevel(
        /// The staleness level at or above which references prune.
        u8,
    ),
}

/// One pruned edge type: the pruner's census entry plus the edge table's
/// `max_stale_use` at capture time — the inputs a postmortem needs to
/// explain why the edge was (or stayed) a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrunedEdgeMeta {
    /// Source class index (into [`HeapSnapshot::classes`]).
    pub src: u32,
    /// Target class index.
    pub tgt: u32,
    /// References of this edge type pruned so far.
    pub refs: u64,
    /// The edge table's `max_stale_use` for the edge at capture time.
    pub max_stale_use: u8,
}

/// The pruner's state as serialized into a v2 snapshot header.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PrunerView {
    /// Figure-2 state name (`INACTIVE` / `OBSERVE` / `SELECT` / `PRUNE`).
    pub state: String,
    /// Whether a deferred out-of-memory error exists (pruning engaged).
    pub averted_oom: bool,
    /// The current selection, if SELECT has committed one.
    pub selected: Option<SelectedPrune>,
    /// Census of pruned edge types, sorted by refs descending.
    pub pruned_edges: Vec<PrunedEdgeMeta>,
}

/// A captured heap image.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HeapSnapshot {
    /// Index of the collection whose mark phase produced the snapshot.
    pub gc_index: u64,
    /// Heap capacity in simulated bytes.
    pub capacity: u64,
    /// Heap used bytes at capture time (`None` for v1 files, which did
    /// not record it).
    pub used: Option<u64>,
    /// Class names, indexed by the `class` field of every object.
    pub classes: Vec<String>,
    /// Slots of root-referenced objects (statics, frames, registers),
    /// sorted and deduplicated.
    pub roots: Vec<u32>,
    /// The pruner's state at capture time (`None` for v1 files).
    pub pruner: Option<PrunerView>,
    /// Every occupied slot, sorted by slot (v1 files: the live closure
    /// only).
    pub objects: Vec<SnapshotObject>,
}

/// A snapshot plus the pause cost of capturing it, split into the
/// transitive closure (work a plain mark phase does anyway) and the extra
/// graph dump.
#[derive(Clone, Debug)]
pub struct Capture {
    /// The captured graph.
    pub snapshot: HeapSnapshot,
    /// Wall-clock nanoseconds the transitive closure took.
    pub trace_nanos: u64,
    /// Wall-clock nanoseconds the graph dump added on top of the closure —
    /// the marginal pause cost of snapshotting versus plain marking.
    pub record_nanos: u64,
}

/// Why [`HeapSnapshot::capture`] refused to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// An incremental mark cycle is in flight: the SATB log is active, the
    /// nursery watermark is cycle-relative, and mark bits describe a
    /// half-finished closure. A capture now would record stale `young`
    /// flags and misclassify reachability; close the cycle first.
    MidCycle {
        /// References pending in the SATB log at refusal time.
        pending: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::MidCycle { pending } => write!(
                f,
                "snapshot capture refused mid-incremental-cycle \
                 ({pending} SATB entries pending); close the cycle first"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Marks everything reachable without tracing through poisoned
/// references, mirroring how the pruning closures treat them (§4.3:
/// poisoned references are never dereferenced).
struct LiveGraph;

impl EdgeVisitor for LiveGraph {
    fn visit_edge(
        &self,
        _heap: &Heap,
        _src_slot: u32,
        _src: &Object,
        _field: usize,
        reference: TaggedRef,
    ) -> EdgeAction {
        if reference.is_poisoned() {
            EdgeAction::Skip
        } else {
            EdgeAction::Trace
        }
    }
}

impl HeapSnapshot {
    /// Captures the full heap image. Must run inside a mark phase: the
    /// caller has begun a fresh mark epoch (either from
    /// `Collector::collect_with`, whose sweep then reclaims everything
    /// the closure left unmarked, or standalone for a non-destructive
    /// postmortem capture), and this function performs the transitive
    /// closure itself.
    ///
    /// Every occupied slot is recorded and classified: marked objects are
    /// live; unmarked objects reachable from the live graph through
    /// poisoned references are dead-but-reachable; the rest is floating
    /// garbage. When `pruner` carries a pruned-edge census, a poisoned
    /// reference only counts as a dead-but-reachable path if its
    /// source/target class pair appears in the census — poisoned
    /// references into reused slots (the pruned target was reclaimed and
    /// the slot reallocated to an unrelated class) would otherwise
    /// misclassify ordinary garbage.
    ///
    /// Returns the capture and the closure's [`TraceStats`], which an
    /// enclosing `collect_with` mark callback should return (with no
    /// per-thread busy times: the capture marks on the calling thread).
    ///
    /// # Errors
    ///
    /// Refuses with [`SnapshotError::MidCycle`] while an incremental mark
    /// cycle is in flight (the heap's SATB log is active): the nursery
    /// watermark and mark bits are then cycle-relative, so a capture would
    /// record stale `young` flags and misclassify reachability. Callers
    /// must close the cycle (a full collection) first — every runtime
    /// entry point does.
    pub fn capture(
        heap: &Heap,
        roots: &RootSet,
        classes: &ClassRegistry,
        gc_index: u64,
        pruner: Option<PrunerView>,
    ) -> Result<(Capture, TraceStats), SnapshotError> {
        if heap.satb_active() {
            return Err(SnapshotError::MidCycle {
                pending: heap.satb_len(),
            });
        }
        let trace_start = Instant::now();
        let stats = trace(heap, roots.iter(), &LiveGraph);
        let trace_nanos = elapsed_nanos(trace_start);

        let record_start = Instant::now();
        let mut class_names: Vec<String> = Vec::new();
        for (id, name) in classes.iter() {
            let index = id.index() as usize;
            if class_names.len() <= index {
                class_names.resize(index + 1, String::new());
            }
            class_names[index] = name.to_owned();
        }
        let mut root_slots: Vec<u32> = roots.iter().map(|handle| handle.slot()).collect();
        root_slots.sort_unstable();
        root_slots.dedup();

        let occupied: HashMap<u32, &Object> = heap.iter().collect();
        let dead = dead_reachable(heap, &occupied, pruner.as_ref());

        let mut objects: Vec<SnapshotObject> = Vec::new();
        for (slot, object) in heap.iter() {
            let reach = if heap.is_marked(slot) {
                Reachability::Live
            } else if dead.contains(&slot) {
                Reachability::DeadReachable
            } else {
                Reachability::Floating
            };
            let mut refs = Vec::new();
            let mut poisoned = Vec::new();
            let mut unlogged = 0u32;
            for (_, reference) in object.iter_refs() {
                if reference.is_null() {
                    continue;
                }
                if reference.is_unlogged() {
                    unlogged += 1;
                }
                let Some(target) = reference.slot() else {
                    continue;
                };
                if reference.is_poisoned() {
                    poisoned.push(target);
                } else if occupied.contains_key(&target) {
                    refs.push(target);
                }
            }
            objects.push(SnapshotObject {
                id: slot,
                class: object.class().index(),
                bytes: object.footprint(),
                stale: object.stale(),
                reach,
                young: heap.is_young(slot),
                unlogged,
                refs,
                poisoned,
            });
        }
        let snapshot = HeapSnapshot {
            gc_index,
            capacity: heap.capacity(),
            used: Some(heap.used_bytes()),
            classes: class_names,
            roots: root_slots,
            pruner,
            objects,
        };
        let record_nanos = elapsed_nanos(record_start);

        Ok((
            Capture {
                snapshot,
                trace_nanos,
                record_nanos,
            },
            stats,
        ))
    }

    /// Number of objects in the snapshot.
    pub fn object_count(&self) -> u64 {
        self.objects.len() as u64
    }

    /// Number of recorded (followable) reference edges.
    pub fn edge_count(&self) -> u64 {
        self.objects.iter().map(|o| o.refs.len() as u64).sum()
    }

    /// Number of recorded poisoned references.
    pub fn poisoned_edge_count(&self) -> u64 {
        self.objects.iter().map(|o| o.poisoned.len() as u64).sum()
    }

    /// Summed footprint of the objects in `reach` class.
    fn bytes_with(&self, reach: Reachability) -> u64 {
        self.objects
            .iter()
            .filter(|o| o.reach == reach)
            .map(|o| u64::from(o.bytes))
            .sum()
    }

    /// Summed footprint of the live objects (v1 snapshots classify every
    /// object live, so this matches the old all-objects sum there).
    pub fn live_bytes(&self) -> u64 {
        self.bytes_with(Reachability::Live)
    }

    /// Summed footprint of the dead-but-reachable objects.
    pub fn dead_reachable_bytes(&self) -> u64 {
        self.bytes_with(Reachability::DeadReachable)
    }

    /// Summed footprint of the floating garbage.
    pub fn floating_bytes(&self) -> u64 {
        self.bytes_with(Reachability::Floating)
    }

    /// Summed footprint of every recorded object. For a v2 capture this
    /// equals the heap's used bytes at capture time.
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| u64::from(o.bytes)).sum()
    }

    /// Resolves a class index recorded in the snapshot.
    pub fn class_name(&self, class: u32) -> &str {
        self.classes
            .get(class as usize)
            .map_or("<unregistered>", String::as_str)
    }

    /// Serializes the snapshot in the JSONL snapshot format (header line
    /// followed by one line per object). Always writes the current
    /// version; a parsed v1 snapshot re-serializes as v2 with its
    /// defaulted fields made explicit.
    pub fn to_jsonl(&self) -> String {
        let mut header = vec![
            ("v".to_owned(), JsonValue::from_u64(SNAPSHOT_VERSION)),
            ("gc".to_owned(), JsonValue::from_u64(self.gc_index)),
            ("capacity".to_owned(), JsonValue::from_u64(self.capacity)),
        ];
        if let Some(used) = self.used {
            header.push(("used".to_owned(), JsonValue::from_u64(used)));
        }
        header.push((
            "classes".to_owned(),
            JsonValue::Arr(
                self.classes
                    .iter()
                    .map(|name| JsonValue::Str(name.clone()))
                    .collect(),
            ),
        ));
        header.push((
            "roots".to_owned(),
            JsonValue::Arr(
                self.roots
                    .iter()
                    .map(|&slot| JsonValue::from_u64(u64::from(slot)))
                    .collect(),
            ),
        ));
        if let Some(pruner) = &self.pruner {
            header.push(("pruner".to_owned(), pruner_to_json(pruner)));
        }
        let mut out = JsonValue::Obj(header).to_string();
        out.push('\n');
        for object in &self.objects {
            let line = JsonValue::Obj(vec![
                ("id".to_owned(), JsonValue::from_u64(u64::from(object.id))),
                (
                    "class".to_owned(),
                    JsonValue::from_u64(u64::from(object.class)),
                ),
                (
                    "bytes".to_owned(),
                    JsonValue::from_u64(u64::from(object.bytes)),
                ),
                (
                    "stale".to_owned(),
                    JsonValue::from_u64(u64::from(object.stale)),
                ),
                (
                    "reach".to_owned(),
                    JsonValue::Str(object.reach.tag().to_owned()),
                ),
                ("young".to_owned(), JsonValue::Bool(object.young)),
                (
                    "unlogged".to_owned(),
                    JsonValue::from_u64(u64::from(object.unlogged)),
                ),
                (
                    "refs".to_owned(),
                    JsonValue::Arr(
                        object
                            .refs
                            .iter()
                            .map(|&slot| JsonValue::from_u64(u64::from(slot)))
                            .collect(),
                    ),
                ),
                (
                    "poisoned".to_owned(),
                    JsonValue::Arr(
                        object
                            .poisoned
                            .iter()
                            .map(|&slot| JsonValue::from_u64(u64::from(slot)))
                            .collect(),
                    ),
                ),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a snapshot back from its JSONL form, negotiating the format
    /// version: v1 lines parse with defaulted v2 fields (every object
    /// live, no young/unlogged/poisoned data, no pruner state).
    ///
    /// # Errors
    ///
    /// Returns `"line N: <reason>"` for the first malformed line, and
    /// rejects versions outside
    /// [`SNAPSHOT_MIN_VERSION`]`..=`[`SNAPSHOT_VERSION`].
    pub fn parse(text: &str) -> Result<HeapSnapshot, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, raw)| !raw.trim().is_empty());
        let (idx, header_raw) = lines.next().ok_or("empty snapshot")?;
        let header = json::parse(header_raw).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let version = need_u64(&header, "v").map_err(|e| format!("line {}: {e}", idx + 1))?;
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let gc_index = need_u64(&header, "gc").map_err(|e| format!("line {}: {e}", idx + 1))?;
        let capacity =
            need_u64(&header, "capacity").map_err(|e| format!("line {}: {e}", idx + 1))?;
        let used = header.get("used").and_then(JsonValue::as_u64);
        let classes: Vec<String> = header
            .get("classes")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("line {}: missing classes", idx + 1))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("line {}: non-string class name", idx + 1))
            })
            .collect::<Result<_, String>>()?;
        let roots = slot_array(&header, "roots").map_err(|e| format!("line {}: {e}", idx + 1))?;
        let pruner = match header.get("pruner") {
            Some(value) => {
                Some(pruner_from_json(value).map_err(|e| format!("line {}: {e}", idx + 1))?)
            }
            None => None,
        };

        let mut objects = Vec::new();
        for (idx, raw) in lines {
            let value = json::parse(raw).map_err(|e| format!("line {}: {e}", idx + 1))?;
            let object = (|| -> Result<SnapshotObject, String> {
                let reach = match value.get("reach") {
                    Some(v) => {
                        let tag = v.as_str().ok_or("non-string reach")?;
                        Reachability::from_tag(tag)
                            .ok_or_else(|| format!("unknown reach {tag:?}"))?
                    }
                    None => Reachability::Live,
                };
                Ok(SnapshotObject {
                    id: need_u32(&value, "id")?,
                    class: need_u32(&value, "class")?,
                    bytes: u32::try_from(need_u64(&value, "bytes")?)
                        .map_err(|_| "bytes out of u32 range".to_owned())?,
                    stale: u8::try_from(need_u64(&value, "stale")?)
                        .map_err(|_| "stale out of range".to_owned())?,
                    reach,
                    young: value
                        .get("young")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false),
                    unlogged: match value.get("unlogged") {
                        Some(v) => u32::try_from(v.as_u64().ok_or("bad unlogged count")?)
                            .map_err(|_| "unlogged out of u32 range".to_owned())?,
                        None => 0,
                    },
                    refs: slot_array(&value, "refs")?,
                    poisoned: match value.get("poisoned") {
                        Some(_) => slot_array(&value, "poisoned")?,
                        None => Vec::new(),
                    },
                })
            })()
            .map_err(|e| format!("line {}: {e}", idx + 1))?;
            if object.class as usize >= classes.len() {
                return Err(format!("line {}: class index out of range", idx + 1));
            }
            objects.push(object);
        }
        Ok(HeapSnapshot {
            gc_index,
            capacity,
            used,
            classes,
            roots,
            pruner,
            objects,
        })
    }
}

/// Computes the dead-but-reachable slot set: occupied, unmarked objects
/// reachable from the marked graph through poisoned references (and
/// onward through the dead objects' own references). When a pruned-edge
/// census is available, only poisoned references whose class pair the
/// pruner actually pruned seed or extend the walk.
fn dead_reachable(
    heap: &Heap,
    occupied: &HashMap<u32, &Object>,
    pruner: Option<&PrunerView>,
) -> HashSet<u32> {
    let census: Option<HashSet<(u32, u32)>> = pruner.map(|p| {
        p.pruned_edges
            .iter()
            .map(|edge| (edge.src, edge.tgt))
            .collect()
    });
    let allows = |src: u32, tgt: u32| match &census {
        Some(pairs) => pairs.contains(&(src, tgt)),
        None => true,
    };

    let mut dead: HashSet<u32> = HashSet::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    for (&slot, object) in occupied {
        if !heap.is_marked(slot) {
            continue;
        }
        for (_, reference) in object.iter_refs() {
            if !reference.is_poisoned() {
                continue;
            }
            let Some(target) = reference.slot() else {
                continue;
            };
            let Some(tgt_obj) = occupied.get(&target) else {
                continue;
            };
            if heap.is_marked(target) || !allows(object.class().index(), tgt_obj.class().index()) {
                continue;
            }
            if dead.insert(target) {
                queue.push_back(target);
            }
        }
    }
    while let Some(slot) = queue.pop_front() {
        let Some(object) = occupied.get(&slot) else {
            continue;
        };
        for (_, reference) in object.iter_refs() {
            let Some(target) = reference.slot() else {
                continue;
            };
            let Some(tgt_obj) = occupied.get(&target) else {
                continue;
            };
            if heap.is_marked(target) || dead.contains(&target) {
                continue;
            }
            if reference.is_poisoned() && !allows(object.class().index(), tgt_obj.class().index()) {
                continue;
            }
            dead.insert(target);
            queue.push_back(target);
        }
    }
    dead
}

fn pruner_to_json(pruner: &PrunerView) -> JsonValue {
    let mut fields = vec![
        ("state".to_owned(), JsonValue::Str(pruner.state.clone())),
        (
            "averted_oom".to_owned(),
            JsonValue::Bool(pruner.averted_oom),
        ),
    ];
    if let Some(selected) = pruner.selected {
        let value = match selected {
            SelectedPrune::Edge { src, tgt, bytes } => JsonValue::Obj(vec![
                ("kind".to_owned(), JsonValue::Str("edge".to_owned())),
                ("src".to_owned(), JsonValue::from_u64(u64::from(src))),
                ("tgt".to_owned(), JsonValue::from_u64(u64::from(tgt))),
                ("bytes".to_owned(), JsonValue::from_u64(bytes)),
            ]),
            SelectedPrune::StaleLevel(level) => JsonValue::Obj(vec![
                ("kind".to_owned(), JsonValue::Str("stale_level".to_owned())),
                ("level".to_owned(), JsonValue::from_u64(u64::from(level))),
            ]),
        };
        fields.push(("selected".to_owned(), value));
    }
    fields.push((
        "pruned_edges".to_owned(),
        JsonValue::Arr(
            pruner
                .pruned_edges
                .iter()
                .map(|edge| {
                    JsonValue::Obj(vec![
                        ("src".to_owned(), JsonValue::from_u64(u64::from(edge.src))),
                        ("tgt".to_owned(), JsonValue::from_u64(u64::from(edge.tgt))),
                        ("refs".to_owned(), JsonValue::from_u64(edge.refs)),
                        (
                            "max_stale_use".to_owned(),
                            JsonValue::from_u64(u64::from(edge.max_stale_use)),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    JsonValue::Obj(fields)
}

fn pruner_from_json(value: &JsonValue) -> Result<PrunerView, String> {
    let state = value
        .get("state")
        .and_then(JsonValue::as_str)
        .ok_or("pruner missing state")?
        .to_owned();
    let averted_oom = value
        .get("averted_oom")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let selected = match value.get("selected") {
        Some(sel) => {
            let kind = sel
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or("selected missing kind")?;
            Some(match kind {
                "edge" => SelectedPrune::Edge {
                    src: need_u32(sel, "src")?,
                    tgt: need_u32(sel, "tgt")?,
                    bytes: need_u64(sel, "bytes")?,
                },
                "stale_level" => SelectedPrune::StaleLevel(
                    u8::try_from(need_u64(sel, "level")?)
                        .map_err(|_| "stale level out of range".to_owned())?,
                ),
                other => return Err(format!("unknown selection kind {other:?}")),
            })
        }
        None => None,
    };
    let pruned_edges = value
        .get("pruned_edges")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|edge| {
            Ok(PrunedEdgeMeta {
                src: need_u32(edge, "src")?,
                tgt: need_u32(edge, "tgt")?,
                refs: need_u64(edge, "refs")?,
                max_stale_use: u8::try_from(need_u64(edge, "max_stale_use")?)
                    .map_err(|_| "max_stale_use out of range".to_owned())?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(PrunerView {
        state,
        averted_oom,
        selected,
        pruned_edges,
    })
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn need_u64(value: &JsonValue, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or invalid field {key:?}"))
}

fn need_u32(value: &JsonValue, key: &str) -> Result<u32, String> {
    u32::try_from(need_u64(value, key)?).map_err(|_| format!("field {key:?} out of u32 range"))
}

fn slot_array(value: &JsonValue, key: &str) -> Result<Vec<u32>, String> {
    value
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("missing or invalid field {key:?}"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|slot| u32::try_from(slot).ok())
                .ok_or_else(|| format!("bad slot in {key:?}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_heap::AllocSpec;

    fn sample() -> HeapSnapshot {
        HeapSnapshot {
            gc_index: 7,
            capacity: 1 << 20,
            used: Some(408),
            classes: vec!["Node\"odd\\name".to_owned(), "Scratch".to_owned()],
            roots: vec![0],
            pruner: Some(PrunerView {
                state: "PRUNE".to_owned(),
                averted_oom: true,
                selected: Some(SelectedPrune::Edge {
                    src: 0,
                    tgt: 0,
                    bytes: 4096,
                }),
                pruned_edges: vec![PrunedEdgeMeta {
                    src: 0,
                    tgt: 0,
                    refs: 12,
                    max_stale_use: 1,
                }],
            }),
            objects: vec![
                SnapshotObject {
                    id: 0,
                    class: 0,
                    bytes: 280,
                    stale: 6,
                    reach: Reachability::Live,
                    young: false,
                    unlogged: 1,
                    refs: vec![2],
                    poisoned: vec![5],
                },
                SnapshotObject {
                    id: 2,
                    class: 1,
                    bytes: 64,
                    stale: 0,
                    reach: Reachability::Live,
                    young: true,
                    unlogged: 0,
                    refs: vec![],
                    poisoned: vec![],
                },
                SnapshotObject {
                    id: 5,
                    class: 0,
                    bytes: 280,
                    stale: 7,
                    reach: Reachability::DeadReachable,
                    young: false,
                    unlogged: 1,
                    refs: vec![],
                    poisoned: vec![],
                },
                SnapshotObject {
                    id: 9,
                    class: 1,
                    bytes: 96,
                    stale: 0,
                    reach: Reachability::Floating,
                    young: true,
                    unlogged: 0,
                    refs: vec![],
                    poisoned: vec![],
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let snapshot = sample();
        let text = snapshot.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        let parsed = HeapSnapshot::parse(&text).unwrap();
        assert_eq!(parsed, snapshot);
        assert_eq!(parsed.live_bytes(), 344);
        assert_eq!(parsed.dead_reachable_bytes(), 280);
        assert_eq!(parsed.floating_bytes(), 96);
        assert_eq!(parsed.total_bytes(), 720);
        assert_eq!(parsed.edge_count(), 1);
        assert_eq!(parsed.poisoned_edge_count(), 1);
        assert_eq!(parsed.class_name(1), "Scratch");
        assert_eq!(parsed.class_name(9), "<unregistered>");
        let pruner = parsed.pruner.expect("pruner state survives");
        assert_eq!(pruner.state, "PRUNE");
        assert!(pruner.averted_oom);
        assert_eq!(
            pruner.selected,
            Some(SelectedPrune::Edge {
                src: 0,
                tgt: 0,
                bytes: 4096
            })
        );
        assert_eq!(pruner.pruned_edges.len(), 1);
    }

    #[test]
    fn v1_lines_parse_with_defaults() {
        let text = "{\"v\":1,\"gc\":3,\"capacity\":1024,\"classes\":[\"A\"],\"roots\":[1]}\n\
                    {\"id\":1,\"class\":0,\"bytes\":40,\"stale\":2,\"refs\":[]}";
        let parsed = HeapSnapshot::parse(text).unwrap();
        assert_eq!(parsed.gc_index, 3);
        assert_eq!(parsed.used, None);
        assert!(parsed.pruner.is_none());
        assert_eq!(parsed.objects.len(), 1);
        let object = &parsed.objects[0];
        assert_eq!(object.reach, Reachability::Live);
        assert!(!object.young);
        assert_eq!(object.unlogged, 0);
        assert!(object.poisoned.is_empty());
        // A v1 file's live_bytes is the all-objects sum, as before.
        assert_eq!(parsed.live_bytes(), 40);
        assert_eq!(parsed.total_bytes(), 40);
        // And it re-serializes as the current version.
        let reparsed = HeapSnapshot::parse(&parsed.to_jsonl()).unwrap();
        assert_eq!(reparsed, parsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(HeapSnapshot::parse("").is_err());
        assert!(HeapSnapshot::parse("not json").is_err());
        assert!(HeapSnapshot::parse(
            "{\"v\":99,\"gc\":0,\"capacity\":0,\"classes\":[],\"roots\":[]}"
        )
        .is_err());
        // Object referencing a class index the header does not define.
        let text = "{\"v\":1,\"gc\":0,\"capacity\":8,\"classes\":[\"A\"],\"roots\":[]}\n\
                    {\"id\":0,\"class\":3,\"bytes\":8,\"stale\":0,\"refs\":[]}";
        let err = HeapSnapshot::parse(text).unwrap_err();
        assert!(err.contains("class index"), "{err}");
        // An unknown reachability tag is malformed, not defaulted.
        let text = "{\"v\":2,\"gc\":0,\"capacity\":8,\"classes\":[\"A\"],\"roots\":[]}\n\
                    {\"id\":0,\"class\":0,\"bytes\":8,\"stale\":0,\"reach\":\"zombie\",\"refs\":[]}";
        let err = HeapSnapshot::parse(text).unwrap_err();
        assert!(err.contains("reach"), "{err}");
    }

    #[test]
    fn capture_records_every_occupied_slot() {
        let mut classes = ClassRegistry::new();
        let node = classes.register("Node");
        let mut heap = Heap::new(1 << 20);
        let mut roots = RootSet::new();

        let a = heap.alloc(node, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(node, &AllocSpec::with_refs(1)).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        let garbage = heap.alloc(node, &AllocSpec::leaf(128)).unwrap();
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        heap.begin_mark_epoch();
        let (capture, stats) =
            HeapSnapshot::capture(&heap, &roots, &classes, 1, None).expect("quiescent heap");
        assert_eq!(stats.objects_marked, 2);
        let snapshot = capture.snapshot;
        // v2 records the garbage object too, classified floating.
        assert_eq!(snapshot.object_count(), 3);
        assert_eq!(snapshot.edge_count(), 1);
        assert_eq!(snapshot.roots, vec![a.slot()]);
        assert_eq!(snapshot.classes, vec!["Node".to_owned()]);
        assert_eq!(snapshot.used, Some(heap.used_bytes()));
        assert_eq!(snapshot.total_bytes(), heap.used_bytes());
        let first = snapshot
            .objects
            .iter()
            .find(|o| o.id == a.slot())
            .expect("root object recorded");
        assert_eq!(first.refs, vec![b.slot()]);
        assert_eq!(first.reach, Reachability::Live);
        let floater = snapshot
            .objects
            .iter()
            .find(|o| o.id == garbage.slot())
            .expect("garbage recorded");
        assert_eq!(floater.reach, Reachability::Floating);
        assert_eq!(
            snapshot.live_bytes() + snapshot.floating_bytes(),
            heap.used_bytes()
        );
        // The capture itself round-trips through the file format.
        let parsed = HeapSnapshot::parse(&snapshot.to_jsonl()).unwrap();
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn capture_refuses_mid_incremental_cycle() {
        let mut classes = ClassRegistry::new();
        let node = classes.register("Node");
        let mut heap = Heap::new(1 << 20);
        let mut roots = RootSet::new();

        let a = heap.alloc(node, &AllocSpec::with_refs(1)).unwrap();
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        // An incremental cycle is in flight: the SATB log is live, so the
        // young watermark and mark bits are not trustworthy — capture must
        // refuse rather than record a torn heap.
        heap.begin_mark_epoch();
        heap.satb_begin();
        let b = heap.alloc(node, &AllocSpec::leaf(32)).unwrap();
        heap.object(a).store_ref(0, TaggedRef::from_handle(b));
        let err = HeapSnapshot::capture(&heap, &roots, &classes, 1, None)
            .expect_err("capture mid-cycle must refuse");
        assert!(matches!(err, SnapshotError::MidCycle { .. }));
        assert!(err.to_string().contains("incremental"));

        // Once the cycle is closed the same heap captures fine.
        heap.satb_drain();
        heap.satb_end();
        HeapSnapshot::capture(&heap, &roots, &classes, 1, None).expect("quiescent heap");
    }

    #[test]
    fn capture_classifies_dead_but_reachable() {
        let mut classes = ClassRegistry::new();
        let node = classes.register("Node");
        let mut heap = Heap::new(1 << 20);
        let mut roots = RootSet::new();

        // root -> a -[poisoned]-> b -> c: b and c are dead-but-reachable;
        // d is floating.
        let a = heap.alloc(node, &AllocSpec::with_refs(1)).unwrap();
        let b = heap.alloc(node, &AllocSpec::with_refs(1)).unwrap();
        let c = heap.alloc(node, &AllocSpec::leaf(32)).unwrap();
        let d = heap.alloc(node, &AllocSpec::leaf(16)).unwrap();
        heap.object(a)
            .store_ref(0, TaggedRef::from_handle(b).with_poison());
        heap.object(b).store_ref(0, TaggedRef::from_handle(c));
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        heap.begin_mark_epoch();
        let (capture, stats) =
            HeapSnapshot::capture(&heap, &roots, &classes, 1, None).expect("quiescent heap");
        assert_eq!(stats.objects_marked, 1);
        let snapshot = capture.snapshot;
        let reach_of = |slot: u32| {
            snapshot
                .objects
                .iter()
                .find(|o| o.id == slot)
                .map(|o| o.reach)
                .unwrap()
        };
        assert_eq!(reach_of(a.slot()), Reachability::Live);
        assert_eq!(reach_of(b.slot()), Reachability::DeadReachable);
        assert_eq!(reach_of(c.slot()), Reachability::DeadReachable);
        assert_eq!(reach_of(d.slot()), Reachability::Floating);
        assert_eq!(snapshot.poisoned_edge_count(), 1);
        assert_eq!(
            snapshot.live_bytes() + snapshot.dead_reachable_bytes() + snapshot.floating_bytes(),
            heap.used_bytes()
        );
    }

    #[test]
    fn census_filter_rejects_unrelated_poisoned_targets() {
        let mut classes = ClassRegistry::new();
        let node = classes.register("Node");
        let scratch = classes.register("Scratch");
        let mut heap = Heap::new(1 << 20);
        let mut roots = RootSet::new();

        // A poisoned Node -> Scratch reference: with a census that only
        // pruned Node -> Node, the Scratch target must classify floating
        // (the slot was reused, not pruned).
        let a = heap.alloc(node, &AllocSpec::with_refs(1)).unwrap();
        let sc = heap.alloc(scratch, &AllocSpec::leaf(64)).unwrap();
        heap.object(a)
            .store_ref(0, TaggedRef::from_handle(sc).with_poison());
        let s = roots.add_static();
        roots.set_static(s, Some(a));

        let census = PrunerView {
            state: "PRUNE".to_owned(),
            averted_oom: true,
            selected: None,
            pruned_edges: vec![PrunedEdgeMeta {
                src: node.index(),
                tgt: node.index(),
                refs: 1,
                max_stale_use: 0,
            }],
        };
        heap.begin_mark_epoch();
        let (capture, _) = HeapSnapshot::capture(&heap, &roots, &classes, 1, Some(census))
            .expect("quiescent heap");
        let snapshot = capture.snapshot;
        let floater = snapshot.objects.iter().find(|o| o.id == sc.slot()).unwrap();
        assert_eq!(floater.reach, Reachability::Floating);
    }

    mod exactness {
        use super::*;
        use lp_gc::{Collector, TraceAll};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The full-fidelity claim, property-tested: whatever graph
            /// the mutator builds — including garbage, poisoned refs and
            /// slots recycled after a sweep — a v2 capture records
            /// *exactly* the heap's occupied slots, byte for byte, and
            /// the three-way reachability partition tiles used bytes.
            #[test]
            fn v2_capture_matches_heap_occupancy_exactly(
                node_specs in proptest::collection::vec((0u32..4, 16u32..2048), 1..40),
                edge_seeds in proptest::collection::vec((0usize..40, 0usize..40), 0..80),
                root_seeds in proptest::collection::vec(0usize..40, 0..5),
                poison_seeds in proptest::collection::vec(0usize..80, 0..10),
                extra_specs in proptest::collection::vec(16u32..512, 0..8),
            ) {
                let mut classes = ClassRegistry::new();
                let node = classes.register("Node");
                let mut heap = Heap::new(1 << 22);
                let mut roots = RootSet::new();

                let handles: Vec<_> = node_specs
                    .iter()
                    .map(|&(refs, bytes)| {
                        heap.alloc(node, &AllocSpec::new(refs, 0, bytes)).unwrap()
                    })
                    .collect();
                let mut edges = Vec::new();
                for &(from, to) in &edge_seeds {
                    let src = handles[from % handles.len()];
                    let tgt = handles[to % handles.len()];
                    let fields = heap.object(src).ref_count();
                    if fields > 0 {
                        let field = to % fields;
                        heap.object(src).store_ref(field, TaggedRef::from_handle(tgt));
                        edges.push((src, field));
                    }
                }
                for &(src, field) in poison_seeds.iter().filter_map(|&i| edges.get(i % edges.len().max(1))) {
                    let poisoned = heap.object(src).load_ref(field).with_poison();
                    heap.object(src).store_ref(field, poisoned);
                }
                for &seed in &root_seeds {
                    let s = roots.add_static();
                    roots.set_static(s, Some(handles[seed % handles.len()]));
                }

                // A real collection punches holes in the slot space, then
                // fresh allocations recycle some of them.
                let mut collector = Collector::new();
                collector.collect(&mut heap, &roots, &TraceAll);
                for &bytes in &extra_specs {
                    let _ = heap.alloc(node, &AllocSpec::leaf(bytes));
                }

                heap.begin_mark_epoch();
                let (capture, _) = HeapSnapshot::capture(&heap, &roots, &classes, 1, None)
                    .expect("quiescent heap");
                let snapshot = capture.snapshot;

                // Exact occupancy: same count, same slots, same bytes.
                prop_assert_eq!(snapshot.object_count(), heap.live_objects());
                let mut snapshot_slots: Vec<u32> =
                    snapshot.objects.iter().map(|o| o.id).collect();
                snapshot_slots.sort_unstable();
                let mut heap_slots: Vec<u32> = heap.iter().map(|(slot, _)| slot).collect();
                heap_slots.sort_unstable();
                prop_assert_eq!(snapshot_slots, heap_slots);
                prop_assert_eq!(snapshot.total_bytes(), heap.used_bytes());
                prop_assert_eq!(snapshot.used, Some(heap.used_bytes()));
                // Every occupied slot lands in exactly one reachability
                // class; the partition tiles the heap.
                prop_assert_eq!(
                    snapshot.live_bytes()
                        + snapshot.dead_reachable_bytes()
                        + snapshot.floating_bytes(),
                    heap.used_bytes()
                );
                // And the whole thing survives the file format.
                let parsed = HeapSnapshot::parse(&snapshot.to_jsonl()).unwrap();
                prop_assert_eq!(parsed, snapshot);
            }
        }
    }
}

//! In-harness spans for the traced run: recorded in memory around each call
//! into a layer, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `op` is the measured op (or probe batch) the span
/// belongs to, so the spans of one op share an identifier.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub op: u64,
    /// The interval was not observed directly: its length comes from a
    /// `GcRecord` and it is laid against the end of the op that ran it.
    pub derived: bool,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Spans written out in full: the first half of these and the last (the
/// probes come last). The self-time table covers every span.
const MOST_SPANS_WRITTEN: usize = 20_000;

/// Totals for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `work` as a root span; returns its value and its nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, op: u64, work: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now();
        let value = work();
        let end_ns = self.now();
        self.record(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
            derived: false,
        });
        (value, end_ns - start_ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: how many, their summed duration, and their summed
    /// self time — a span's duration minus the part of its interval that
    /// its child spans cover.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let outer = &self.spans[parent];
                let start = span.start_ns.max(outer.start_ns);
                let end = span.end_ns.min(outer.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(&mut children) {
            covered.sort_unstable();
            let mut covered_ns = 0;
            let mut reach = 0;
            for &(start, end) in covered.iter() {
                let start = start.max(reach);
                if end > start {
                    covered_ns += end - start;
                    reach = end;
                }
            }
            let total = span.end_ns.saturating_sub(span.start_ns);
            let entry = by_name.entry(span.name).or_insert(SelfTime {
                name: span.name,
                spans: 0,
                total_ns: 0,
                self_ns: 0,
            });
            entry.spans += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered_ns;
        }
        by_name.into_values().collect()
    }

    /// Writes the self-time table over every span, and up to
    /// [`MOST_SPANS_WRITTEN`] spans themselves, as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"self_time\":[",
            self.spans.len()
        )?;
        for (i, row) in self.self_times().iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(
                out,
                "{comma}\n{{\"name\":\"{}\",\"spans\":{},\"total_ns\":{},\"self_ns\":{}}}",
                row.name, row.spans, row.total_ns, row.self_ns
            )?;
        }
        write!(out, "],\"spans\":[")?;
        let skipped = if self.spans.len() > MOST_SPANS_WRITTEN {
            MOST_SPANS_WRITTEN / 2..self.spans.len() - MOST_SPANS_WRITTEN / 2
        } else {
            0..0
        };
        for (i, span) in self.spans.iter().enumerate() {
            if skipped.contains(&i) {
                continue;
            }
            let comma = if i == 0 { "" } else { "," };
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{comma}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"derived\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op, span.derived
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new(8);
        let op = tracer.record(span("op", 0, 100, None));
        // Two overlapping children cover 20..60, a third covers 80..90; a
        // child that sticks out is clipped to the parent (95..100).
        let gc = tracer.record(span("gc", 20, 50, Some(op)));
        tracer.record(span("gc", 40, 60, Some(op)));
        tracer.record(span("gc", 80, 90, Some(op)));
        tracer.record(span("gc", 95, 130, Some(op)));
        // A grandchild takes from its parent, not from the op.
        tracer.record(span("sweep", 45, 50, Some(gc)));
        let rows = tracer.self_times();
        let row = |name| rows.iter().find(|r| r.name == name).unwrap().clone();
        assert_eq!(row("op").total_ns, 100);
        assert_eq!(row("op").self_ns, 100 - 40 - 10 - 5);
        assert_eq!(row("gc").spans, 4);
        assert_eq!(row("gc").total_ns, 30 + 20 + 10 + 35);
        assert_eq!(row("gc").self_ns, 30 + 20 + 10 + 35 - 5);
        assert_eq!(row("sweep").self_ns, 5);
    }

    #[test]
    fn written_trace_parses_and_keeps_every_span() {
        let mut tracer = Tracer::new(4);
        let (value, _nanos) = tracer.time("probe", 7, || 41 + 1);
        assert_eq!(value, 42);
        let parent = tracer.record(span("op", 10, 20, None));
        tracer.record(Span {
            derived: true,
            ..span("gc", 15, 20, Some(parent))
        });
        std::fs::create_dir_all(crate::out_dir()).unwrap();
        let path = crate::out_dir().join(format!("test-trace-{}.json", std::process::id()));
        tracer.write(&path, "unit", 9).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = lp_telemetry::json::parse(&text).unwrap();
        let spans = doc.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].get("parent").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(
            spans[2].get("derived").and_then(|d| d.as_bool()),
            Some(true)
        );
        assert_eq!(spans[0].get("op").and_then(|p| p.as_u64()), Some(7));
    }
}

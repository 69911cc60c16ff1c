//! The names and units of everything the benchmark reports, and the record
//! a child process hands back to the harness.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two in step.

use lp_telemetry::json::{self, JsonValue};

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("within_limit_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("recover_s", "s"),
];

/// Per-layer metrics, from the traced run: (name, unit). The prefix is the
/// crate the number describes. A layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("heap.alloc_ns", "ns"),
    ("heap.sweep_ns_per_slot", "ns"),
    ("heap.sweep_chunks_skipped_ratio", "ratio"),
    ("heap.rss_bytes_per_object", "B"),
    ("barrier.read_warm_ns", "ns"),
    ("barrier.read_cold_ns", "ns"),
    ("barrier.write_idle_ns", "ns"),
    ("barrier.cold_hit_ratio", "ratio"),
    ("barrier.overhead_ratio", "ratio"),
    ("mutator.base_op_us", "us"),
    ("gc.collections", "count"),
    ("gc.marked_objects", "count"),
    ("gc.freed_objects", "count"),
    ("gc.time_share", "ratio"),
    ("gc.mark_ns_per_object", "ns"),
    ("gc.sweep_share", "ratio"),
    ("gc.pause_p50_us", "us"),
    ("gc.pause_tail_us", "us"),
    ("gc.force_gc_ms", "ms"),
    ("pruner.collections_inactive", "count"),
    ("pruner.collections_observe", "count"),
    ("pruner.collections_select", "count"),
    ("pruner.collections_prune", "count"),
    ("pruner.pruned_refs", "count"),
    ("pruner.prune_freed_bytes", "B"),
    ("pruner.prune_yield", "ratio"),
    ("pruner.edge_types", "count"),
    ("pruner.observe_pause_us", "us"),
    ("pruner.select_pause_us", "us"),
    ("pruner.prune_pause_us", "us"),
    ("pruner.edge_table_probe_ns", "ns"),
    ("telemetry.emit_disabled_ns", "ns"),
    ("telemetry.emit_enabled_ns", "ns"),
    ("telemetry.span_enabled_ns", "ns"),
    ("telemetry.events_delivered", "count"),
    ("telemetry.recorder_dropped", "count"),
    ("diagnose.snapshot_capture_ms", "ms"),
    ("diagnose.snapshot_encode_ms", "ms"),
    ("diagnose.snapshot_parse_ms", "ms"),
    ("diagnose.snapshot_bytes", "B"),
    ("recovery.capture_ms", "ms"),
    ("recovery.write_ms", "ms"),
    ("recovery.read_ms", "ms"),
    ("recovery.restore_ms", "ms"),
    ("recovery.checkpoint_bytes", "B"),
    ("recovery.journal_append_ns", "ns"),
    ("recovery.replay_us_per_request", "us"),
    ("server.round_p50_us", "us"),
    ("server.round_tail_us", "us"),
    ("server.idle_round_us", "us"),
    ("server.arbiter_rebalance_us", "us"),
    ("server.queue_wait_rounds_p50", "count"),
    ("server.queue_wait_rounds_p99", "count"),
    ("server.shed_ratio", "ratio"),
    ("server.quarantines", "count"),
    ("server.prune_events", "count"),
    ("server.tenant_pause_p99_us", "us"),
    ("server.metrics_scrape_ms", "ms"),
    ("machine.ref_cpu_ms", "ms"),
    ("machine.ref_mem_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(known, _)| *known == name)
        .map(|(_, unit)| *unit)
}

/// What one child process reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Measured values by metric name.
    pub metrics: Vec<(String, f64)>,
    /// Counts that must repeat exactly for the same seed and op schedule.
    pub counts: Vec<(String, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-segment rates of the measured phase as shares of `ops_per_s`.
    pub profile: Vec<f64>,
    /// Output checks that did not hold; empty means the outputs are correct.
    pub wrong: Vec<String>,
    /// Self-checks that did not hold: the run measured something that cannot
    /// repeat, and no number from it is published.
    pub unsteady: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {name}");
        // An empty sum of floats is -0.0, which would print as "-0".
        let value = value + 0.0;
        match self.metrics.iter_mut().find(|(known, _)| known == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_owned(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(known, _)| known == name)
            .map(|(_, value)| *value)
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), value));
    }

    pub fn to_json(&self) -> String {
        let strings = |items: &[String]| {
            JsonValue::Arr(items.iter().map(|s| JsonValue::Str(s.clone())).collect())
        };
        JsonValue::Obj(vec![
            (
                "metrics".into(),
                JsonValue::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| (name.clone(), JsonValue::Float(*value)))
                        .collect(),
                ),
            ),
            (
                "counts".into(),
                JsonValue::Obj(
                    self.counts
                        .iter()
                        .map(|(name, value)| (name.clone(), JsonValue::from_u64(*value)))
                        .collect(),
                ),
            ),
            ("attempted".into(), JsonValue::from_u64(self.attempted)),
            ("failed".into(), JsonValue::from_u64(self.failed)),
            (
                "profile".into(),
                JsonValue::Arr(self.profile.iter().map(|v| JsonValue::Float(*v)).collect()),
            ),
            ("wrong".into(), strings(&self.wrong)),
            ("unsteady".into(), strings(&self.unsteady)),
        ])
        .to_string()
    }

    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        let members = |key: &str| match value.get(key) {
            Some(JsonValue::Obj(members)) => Ok(members.as_slice()),
            _ => Err(format!("child result has no object `{key}`")),
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            value
                .get(key)
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("child result has no list `{key}`"))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_owned)
                        .ok_or("not a string".into())
                })
                .collect()
        };
        let whole = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("child result has no count `{key}`"))
        };
        Ok(Outcome {
            metrics: members("metrics")?
                .iter()
                .map(|(name, v)| Ok((name.clone(), v.as_f64().ok_or("metric is not a number")?)))
                .collect::<Result<_, String>>()?,
            counts: members("counts")?
                .iter()
                .map(|(name, v)| Ok((name.clone(), v.as_u64().ok_or("count is not whole")?)))
                .collect::<Result<_, String>>()?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            profile: value
                .get("profile")
                .and_then(JsonValue::as_arr)
                .ok_or("child result has no list `profile`")?
                .iter()
                .map(|v| v.as_f64().ok_or("profile entry is not a number".to_owned()))
                .collect::<Result<_, String>>()?,
            wrong: strings("wrong")?,
            unsteady: strings("unsteady")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_json() {
        let mut outcome = Outcome {
            attempted: 12,
            failed: 1,
            profile: vec![0.98, 1.0, 1.25],
            wrong: vec!["heap \"sanitizer\" found 2 violations".into()],
            ..Outcome::default()
        };
        outcome.set("ops_per_s", 1234.5678);
        outcome.set("setup_s", 2.0);
        outcome.set("ops_per_s", 99.25);
        outcome.count("gc.collections", 7);
        let back = Outcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(back.get("ops_per_s"), Some(99.25));
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same metrics with the same
    /// units.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
        let seconds = spec.get("run_seconds").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
    }
}

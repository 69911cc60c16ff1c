//! `--noise N`: how far end-to-end runs of the same binary disagree.
//!
//! Two groups of `N` runs per workload, every run with another seed, the
//! groups taking turns so that both see the same hours of the box. For every
//! workload and metric it reports each group's spread — the distance between
//! the first and third quartile as a share of the median, the statistic the
//! benchmark contract is written in — and how far the two groups' medians
//! lie apart, checks the warm-up on the runs' averaged profile, and writes
//! every run to `benchmark/NOISE.md`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use lp_telemetry::json::{self, JsonValue};

use crate::metrics::END_TO_END;
use crate::phase::drift;
use crate::stats::{median, quartile_spread};
use crate::{end_to_end, Kind, Plan};

struct Run {
    group: usize,
    seed: u64,
    values: Vec<f64>,
    /// Per-segment rates as shares of the run's `ops_per_s`.
    profile: Vec<f64>,
}

/// The runs' profiles averaged segment by segment: the box's noise cancels,
/// a trend every run shares does not.
fn mean_profile(runs: &[Run]) -> Vec<f64> {
    let segments = runs.iter().map(|run| run.profile.len()).min().unwrap_or(0);
    (0..segments)
        .map(|i| runs.iter().map(|run| run.profile[i]).sum::<f64>() / runs.len() as f64)
        .collect()
}

/// The regression bounds `BENCHMARK.json` records, by metric name.
fn recorded_bounds() -> Vec<(String, f64)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Some(spec) = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
    else {
        return Vec::new();
    };
    spec.get("end_to_end")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|metric| {
            let name = metric.get("name")?.as_str()?.to_owned();
            Some((name, metric.get("bound")?.as_f64()?))
        })
        .collect()
}

pub fn main(runs: usize, seed: u64, seconds: u64) -> ExitCode {
    let bounds = recorded_bounds();
    let mut by_kind: Vec<(Kind, Vec<Run>)> = Kind::ALL.iter().map(|&k| (k, Vec::new())).collect();
    let mut rejected: Vec<String> = Vec::new();
    for turn in 0..runs {
        for group in 0..2 {
            for (kind, collected) in &mut by_kind {
                let plan = Plan {
                    kind: *kind,
                    seed: seed + (2 * turn + group) as u64,
                    seconds,
                    quick: false,
                };
                // A run the harness would not publish is listed, not counted.
                let outcome = match end_to_end(&plan) {
                    Ok(outcome) if outcome.unsteady.is_empty() && outcome.wrong.is_empty() => {
                        outcome
                    }
                    Ok(outcome) => {
                        let reasons = [outcome.unsteady, outcome.wrong].concat().join("; ");
                        println!("{} seed {} rejected: {reasons}", kind.name(), plan.seed);
                        rejected.push(format!("{} seed {}: {reasons}", kind.name(), plan.seed));
                        continue;
                    }
                    Err(message) => {
                        eprintln!("{} seed {}: {message}", kind.name(), plan.seed);
                        return ExitCode::from(4);
                    }
                };
                let values: Vec<f64> = END_TO_END
                    .iter()
                    .map(|(name, _)| outcome.get(name).unwrap_or(0.0))
                    .collect();
                println!(
                    "{} group {} seed {}: {:?}",
                    kind.name(),
                    ["A", "B"][group],
                    plan.seed,
                    values
                );
                collected.push(Run {
                    group,
                    seed: plan.seed,
                    values,
                    profile: outcome.profile,
                });
            }
        }
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# Run-to-run noise of the end-to-end metrics\n\n\
         Written by `lp-benchmark --noise {runs} --seed {seed} --seconds {seconds}`: two groups \
         (A, B) of {runs} runs per workload, taking turns, every run with another seed. \
         *Spread* is the distance between the first and third quartile of a group as a share \
         of its median; *gap* is how far the two groups' medians lie apart, as a share of \
         A's. *Needs* is three times the wider spread or twice the gap, whichever is larger \
         (for `setup_s`, whose spread the driver does not hold to a bound, twice the gap); \
         *bound* is what `BENCHMARK.json` records (at most 25 %), and the benchmark is \
         meant to keep every spread below a third of it.\n"
    );
    if !rejected.is_empty() {
        let _ = writeln!(
            report,
            "Runs the harness refused to publish (they are in no table below):\n"
        );
        for run in &rejected {
            let _ = writeln!(report, "- {run}");
        }
        let _ = writeln!(report);
    }
    for (kind, collected) in &by_kind {
        let _ = writeln!(report, "## {}\n", kind.name());
        let _ = writeln!(
            report,
            "| metric | unit | spread A | spread B | gap | needs | bound | verdict |"
        );
        let _ = writeln!(report, "|---|---|---|---|---|---|---|---|");
        for (column, (name, unit)) in END_TO_END.iter().enumerate() {
            let of_group = |group| -> Vec<f64> {
                collected
                    .iter()
                    .filter(|run| run.group == group)
                    .map(|run| run.values[column])
                    .collect()
            };
            let (a, b) = (of_group(0), of_group(1));
            let (spread_a, spread_b) = (quartile_spread(&a), quartile_spread(&b));
            let gap = (median(&b) - median(&a)).abs() / median(&a).abs().max(f64::MIN_POSITIVE);
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            let worst = spread_a.max(spread_b).max(gap);
            // What the runs ask of a bound: three times the widest spread
            // (the benchmark is meant to stay below a third of its bound)
            // and twice the gap between the groups. Set-up time is one
            // wall-clock reading per child, and the driver holds only its
            // gap to the bound, not its spread.
            let spread = if *name == "setup_s" {
                0.0
            } else {
                spread_a.max(spread_b)
            };
            let (needs, held) = ((3.0 * spread).max(2.0 * gap), spread.max(gap));
            let verdict = match bound {
                Some(bound) if needs <= bound => "well within the bound",
                Some(bound) if held <= bound => "within the bound",
                Some(_) => "**over the bound**",
                None => "no bound recorded",
            };
            let tenth = if worst > 0.10 { " (over a tenth)" } else { "" };
            let _ = writeln!(
                report,
                "| `{name}` | {unit} | {:.1} % | {:.1} % | {:.1} % | {:.1} % | {} | {verdict}{tenth} |",
                spread_a * 100.0,
                spread_b * 100.0,
                gap * 100.0,
                needs * 100.0,
                bound.map_or("—".to_owned(), |b| format!("{:.1} %", b * 100.0)),
            );
            println!(
                "{}/{name}: spread A {:.4} B {:.4} gap {:.4}",
                kind.name(),
                spread_a,
                spread_b,
                gap
            );
        }
        let profile = mean_profile(collected);
        let apart = drift(&profile);
        let _ = writeln!(
            report,
            "\nWarm-up: over the {} runs' averaged per-segment rates, the start and the end \
             of the measured phase lie {:.1} % apart ({}).",
            collected.len(),
            apart * 100.0,
            if apart > 0.10 {
                "**over a tenth: the warm-up is too short**"
            } else {
                "a tenth or more would mean the warm-up is too short"
            }
        );
        let cells: Vec<String> = profile.iter().map(|share| format!("{share:.3}")).collect();
        let _ = writeln!(report, "Averaged profile: {}", cells.join(" "));
        let _ = writeln!(report, "\nEvery run:\n");
        let names: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        let _ = writeln!(report, "| group | seed | {} |", names.join(" | "));
        let _ = writeln!(report, "|---|---|{}", "---|".repeat(names.len()));
        for run in collected {
            let cells: Vec<String> = run.values.iter().map(|v| format!("{v:.4}")).collect();
            let _ = writeln!(
                report,
                "| {} | {} | {} |",
                ["A", "B"][run.group],
                run.seed,
                cells.join(" | ")
            );
        }
        let _ = writeln!(report);
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("NOISE.md");
    // Notes a person added below this marker survive a rewrite.
    const NOTES: &str = "<!-- notes -->";
    let notes = std::fs::read_to_string(&path)
        .ok()
        .and_then(|old| old.split_once(NOTES).map(|(_, notes)| notes.to_owned()))
        .unwrap_or_else(|| "\n".to_owned());
    match std::fs::write(&path, format!("{report}{NOTES}{notes}")) {
        Ok(()) => {
            println!("# wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("cannot write {}: {error}", path.display());
            ExitCode::from(4)
        }
    }
}

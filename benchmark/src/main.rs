//! The repository's benchmark: four workloads, seven end-to-end metrics and a
//! per-layer map. `README.md` in this directory says what each is for.
//!
//! One invocation is a small tree of processes. The harness (this `main`
//! without `--child`) starts one child per set-up and per measured phase, so
//! peak memory and allocator state belong to one workload and one phase, and
//! turns what the children report into the lines and the JSON it prints.

mod child;
mod fleet;
mod metrics;
mod noise;
mod phase;
mod probes;
mod programs;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use lp_telemetry::json::JsonValue;

use metrics::{Outcome, END_TO_END, PER_LAYER};

/// What `--seconds` defaults to, and what `BENCHMARK.json` gives the driver.
pub const DEFAULT_SECONDS: u64 = 16;
/// Set-ups per end-to-end run; `setup_s` and `recover_s` are their medians.
const SETUPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ReadSteady,
    AllocChurn,
    LeakPrune,
    ServeFleet,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ReadSteady,
        Kind::AllocChurn,
        Kind::LeakPrune,
        Kind::ServeFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadSteady => "read_steady",
            Kind::AllocChurn => "alloc_churn",
            Kind::LeakPrune => "leak_prune",
            Kind::ServeFleet => "serve_fleet",
        }
    }

    fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Ops (rounds, for the fleet) that take one second on the box the
    /// benchmark was calibrated on. The measured phase is this many times
    /// `--seconds`: a fixed amount of work, so that counts repeat exactly
    /// and a slower build shows as a longer run, not as fewer ops.
    pub fn units_per_second(self) -> u64 {
        match self {
            Kind::ReadSteady => 15_000,
            Kind::AllocChurn => 24_000,
            Kind::LeakPrune => 15_000,
            Kind::ServeFleet => 2_200,
        }
    }

    /// Ops (rounds) of warm-up, about a second and a half: long enough that
    /// set-up is work and not a timer reading, and — on `leak_prune` — past
    /// the first hundred collections, during which the free list's order
    /// scatters and throughput falls.
    pub fn warm_up_units(self) -> u64 {
        self.units_per_second() * 3 / 2
    }

    /// The latency an op may take and still count in `within_limit_ratio`:
    /// fixed per workload, several times the median (on `read_steady`, the
    /// heavy request's) and below the shortest collection pause, except on
    /// the fleet, whose pauses are the tenants' own affair.
    pub fn limit_nanos(self) -> u64 {
        match self {
            Kind::ReadSteady => 1_000_000,
            Kind::AllocChurn | Kind::LeakPrune => 150_000,
            Kind::ServeFleet => 10_000_000,
        }
    }
}

/// The size of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    /// A two-second run that exercises every path; its numbers are not
    /// comparable with anything and its steadiness is not checked.
    pub quick: bool,
}

impl Plan {
    pub fn warm_up_units(&self) -> u64 {
        let units = self.kind.warm_up_units();
        if self.quick {
            units / 10
        } else {
            units
        }
    }

    /// Ops (rounds) per segment of the measured phase; the traced run and
    /// its untraced twin do a third of them.
    pub fn segment_units(&self, third: bool) -> u64 {
        let per_segment = self.kind.units_per_second() * self.seconds / phase::SEGMENTS as u64;
        if third {
            per_segment / 3
        } else {
            per_segment
        }
    }
}

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    noise: Option<usize>,
    child: Option<String>,
    dir: Option<PathBuf>,
}

const USAGE: &str = "usage: lp-benchmark [--workload NAME] [--seed N] [--seconds N] \
                     [--trace [0|1]] [--quick] [--noise N]
  --workload   read_steady | alloc_churn | leak_prune | serve_fleet (default: all four)
  --trace 1    the traced run: per-layer metrics and benchmark/out/trace_<workload>.json
               (without --workload: after the end-to-end run of each workload)
  --quick      about two seconds per workload; numbers not comparable
  --noise N    two alternating groups of N end-to-end runs; writes benchmark/NOISE.md";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        noise: None,
        child: None,
        dir: None,
    };
    let mut words = std::env::args().skip(1).peekable();
    while let Some(word) = words.next() {
        let mut value = |name: &str| words.next().ok_or(format!("{name} needs a value"));
        match word.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(Kind::parse(&name).ok_or(format!("no workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: not a number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|seconds| (1..=60).contains(seconds))
                    .ok_or("--seconds: a whole number from 1 to 60")?;
            }
            "--trace" => {
                args.trace = match words.peek().map(String::as_str) {
                    Some("0") => {
                        words.next();
                        false
                    }
                    Some("1") => {
                        words.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--noise" => {
                let runs = value("--noise")?
                    .parse()
                    .map_err(|_| "--noise: not a number")?;
                if runs < 5 {
                    return Err("--noise: at least 5 runs a group".into());
                }
                args.noise = Some(runs);
            }
            "--child" => args.child = Some(value("--child")?),
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.quick {
        args.seconds = 2;
    }
    Ok(args)
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Starts this program again as a child and returns what it reported.
fn spawn_child(role: &str, plan: &Plan, dir: &std::path::Path) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--child", role, "--workload", plan.kind.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if plan.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("the {role} child ended with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().ok_or("the child printed nothing")?;
    Outcome::from_json(last)
}

/// A directory for one invocation's files, removed when it is dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> std::io::Result<RunDir> {
        let path = out_dir().join(format!("run_{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The end-to-end run of one workload: [`SETUPS`] set-ups, of which the
/// last goes on into the measured phase.
pub fn end_to_end(plan: &Plan) -> Result<Outcome, String> {
    let dir = RunDir::new().map_err(|e| e.to_string())?;
    let setups = if plan.quick { 2 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut merged = Outcome::default();
    for index in 0..setups {
        let role = if index + 1 == setups {
            "measure"
        } else {
            "setup"
        };
        let outcome = spawn_child(role, plan, &dir.0)?;
        setup_s.extend(outcome.get("setup_s"));
        recover_s.extend(outcome.get("recover_s"));
        merged.wrong.extend(outcome.wrong);
        merged.unsteady.extend(outcome.unsteady);
        if role == "measure" {
            merged.metrics = outcome.metrics;
            merged.attempted = outcome.attempted;
            merged.failed = outcome.failed;
            merged.profile = outcome.profile;
        }
    }
    merged.set("setup_s", stats::median(&setup_s));
    merged.set("recover_s", stats::median(&recover_s));
    Ok(merged)
}

/// The traced run of one workload: an untraced child and a traced child do
/// the same third of the ops; their counts must agree, and the ratio of
/// their rates is the cost of tracing.
pub fn traced(plan: &Plan) -> Result<Outcome, String> {
    let dir = RunDir::new().map_err(|e| e.to_string())?;
    let machine = probes::Machine::new();
    let before = machine.sample();
    let plain = spawn_child("third", plan, &dir.0)?;
    let mut traced = spawn_child("traced", plan, &dir.0)?;
    let after = machine.sample();

    traced.wrong.extend(plain.wrong.iter().cloned());
    traced.unsteady.extend(plain.unsteady.iter().cloned());
    for (name, count) in &plain.counts {
        let twin = traced
            .counts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c);
        if twin != Some(*count) {
            traced.wrong.push(format!(
                "{name} is {count} after the untraced third and {twin:?} after the traced one"
            ));
        }
    }
    let overhead = plain.get("ops_per_s").unwrap_or(0.0) / traced.get("ops_per_s").unwrap_or(1.0);
    traced.set("trace.overhead_ratio", overhead);
    traced.set("machine.ref_cpu_ms", (before.0 + after.0) / 2.0);
    traced.set("machine.ref_mem_ms", (before.1 + after.1) / 2.0);
    println!(
        "# machine reference before/after: cpu {:.1}/{:.1} ms, memory {:.1}/{:.1} ms",
        before.0, after.0, before.1, after.1
    );
    if overhead < 0.9 {
        println!(
            "# warning: tracing cost {:.0} % of throughput",
            (1.0 - overhead) * 100.0
        );
    }
    // A layer the workload never enters reads 0.
    let mut complete = Outcome {
        metrics: Vec::new(),
        ..traced.clone()
    };
    for (name, _) in PER_LAYER {
        complete.set(name, traced.get(name).unwrap_or(0.0));
    }
    Ok(complete)
}

/// Prints `workload/metric value unit` for every metric of `table`, then
/// the contract's one-line result. Returns whether the run may be used.
fn publish(plan: &Plan, outcome: &Outcome, table: &[(&str, &str)]) -> bool {
    let name = plan.kind.name();
    for reason in &outcome.unsteady {
        println!("# {name}: unsteady: {reason}");
    }
    if !outcome.unsteady.is_empty() {
        println!("# {name}: no result — the run measured something that would not repeat");
        return false;
    }
    for reason in &outcome.wrong {
        println!("# {name}: wrong output: {reason}");
    }
    if plan.quick {
        println!("# {name}: --quick run, numbers are not comparable with any other run");
    }
    let mut members = Vec::new();
    for (metric, unit) in table {
        let value = outcome.get(metric).unwrap_or(0.0);
        println!("{name}/{metric} {value} {unit}");
        members.push((
            (*metric).to_owned(),
            JsonValue::Obj(vec![
                ("value".into(), JsonValue::Float(value)),
                ("unit".into(), JsonValue::Str((*unit).to_owned())),
            ]),
        ));
    }
    println!(
        "# {name}: attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!(
        "{}",
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(outcome.wrong.is_empty())),
            ("attempted".into(), JsonValue::from_u64(outcome.attempted)),
            ("failed".into(), JsonValue::from_u64(outcome.failed)),
            ("metrics".into(), JsonValue::Obj(members)),
        ])
    );
    true
}

fn main() -> ExitCode {
    let started = std::time::Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(role) = &args.child {
        return child::main(
            role,
            &args_plan(&args, args.workload),
            args.dir.as_deref(),
            started,
        );
    }
    if let Some(runs) = args.noise {
        return noise::main(runs, args.seed, args.seconds);
    }

    let kinds = args.workload.map_or(Kind::ALL.to_vec(), |kind| vec![kind]);
    let whole_suite = args.workload.is_none();
    let mut results = Vec::new();
    let mut usable = true;
    for kind in kinds {
        let plan = args_plan(&args, Some(kind));
        // With a workload named, --trace chooses which of the two runs to
        // make; without one, it adds the traced run to the end-to-end run.
        for per_layer in [false, true] {
            let wanted = if per_layer {
                args.trace
            } else {
                whole_suite || !args.trace
            };
            if !wanted {
                continue;
            }
            let (label, result, table) = if per_layer {
                ("per_layer", traced(&plan), &PER_LAYER[..])
            } else {
                ("end_to_end", end_to_end(&plan), &END_TO_END[..])
            };
            match result {
                Ok(outcome) => {
                    usable &= publish(&plan, &outcome, table) && outcome.wrong.is_empty();
                    results.push((kind, label, outcome));
                }
                Err(message) => {
                    eprintln!("{}: {message}", kind.name());
                    return ExitCode::from(4);
                }
            }
        }
    }
    if whole_suite {
        if let Err(error) = write_results(&args, &results) {
            eprintln!("cannot write the result file: {error}");
            return ExitCode::from(4);
        }
    }
    if usable {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

fn args_plan(args: &Args, kind: Option<Kind>) -> Plan {
    Plan {
        kind: kind.unwrap_or(Kind::ReadSteady),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    }
}

/// `benchmark/out/result.json`: every workload of a whole-suite run.
fn write_results(args: &Args, results: &[(Kind, &str, Outcome)]) -> std::io::Result<()> {
    let workloads = results
        .iter()
        .map(|(kind, label, outcome)| {
            JsonValue::Obj(vec![
                ("workload".into(), JsonValue::Str(kind.name().into())),
                ("run".into(), JsonValue::Str((*label).into())),
                ("correct".into(), JsonValue::Bool(outcome.wrong.is_empty())),
                ("attempted".into(), JsonValue::from_u64(outcome.attempted)),
                ("failed".into(), JsonValue::from_u64(outcome.failed)),
                (
                    "metrics".into(),
                    JsonValue::Obj(
                        outcome
                            .metrics
                            .iter()
                            .map(|(name, value)| (name.clone(), JsonValue::Float(*value)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let document = JsonValue::Obj(vec![
        ("seed".into(), JsonValue::from_u64(args.seed)),
        ("seconds".into(), JsonValue::from_u64(args.seconds)),
        ("comparable".into(), JsonValue::Bool(!args.quick)),
        ("runs".into(), JsonValue::Arr(workloads)),
    ]);
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join("result.json");
    std::fs::write(&path, format!("{document}\n"))?;
    println!("# wrote {}", path.display());
    Ok(())
}

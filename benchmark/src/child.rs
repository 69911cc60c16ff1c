//! What a child process does: set one workload up, run one phase of it, and
//! print one line of JSON for the harness.
//!
//! Roles: `setup` stops after set-up (and times recovery); `measure` runs
//! the full measured phase untraced; `third` and `traced` run a third of it,
//! without and with spans; `fleet-helper` is the fleet that gets killed.

use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use leak_pruning::{Runtime, State};
use lp_recovery::Checkpoint;

use crate::fleet::{self, Driver};
use crate::metrics::{unit_of, Outcome};
use crate::phase::{Phase, SEGMENTS};
use crate::probes;
use crate::programs::Program;
use crate::run::{self, Baseline};
use crate::stats::{self, Segment};
use crate::trace::Tracer;
use crate::{Kind, Plan};

/// Set-up is meant to be work; below this it is a timer reading.
const MIN_SETUP_SECONDS: f64 = 1.0;
/// Checkpoint restores timed by every end-to-end child of a single-runtime
/// workload. A restore takes milliseconds, short enough for one slow spell
/// of the box to cover it whole, so several are timed and the undisturbed
/// end of them counts.
const RESTORES: usize = 7;
/// Recoveries every end-to-end child of the fleet times after its own, each
/// from a copy of the files the crash left.
const EXTRA_RECOVERIES: usize = 2;

pub fn main(role: &str, plan: &Plan, dir: Option<&Path>, started: Instant) -> ExitCode {
    let Some(dir) = dir else {
        eprintln!("--child needs --dir");
        return ExitCode::from(2);
    };
    let outcome = match (role, plan.kind) {
        ("fleet-helper", _) => fleet::helper(plan.seed, dir, plan.warm_up_units()),
        ("setup" | "measure" | "third" | "traced", Kind::ServeFleet) => {
            fleet_child(role, plan, dir, started)
        }
        ("setup" | "measure" | "third" | "traced", _) => program_child(role, plan, dir, started),
        _ => {
            eprintln!("no child role `{role}`");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// A field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0)
}

/// Records `setup_s`: the time since the child started, less `not_setup`,
/// which the child spent on the benchmark's own book-keeping.
fn note_setup(plan: &Plan, started: Instant, not_setup: Duration, out: &mut Outcome) {
    let seconds = (started.elapsed() - not_setup).as_secs_f64();
    out.set("setup_s", seconds);
    if !plan.quick && seconds < MIN_SETUP_SECONDS {
        out.unsteady.push(format!(
            "set-up took {seconds:.3} s: that is a timer reading, not a measurement"
        ));
    }
}

/// The end-to-end part of a phase, and the steadiness it must show.
fn report_phase(plan: &Plan, phase: &Phase, collects: bool, out: &mut Outcome) {
    phase.report(plan.kind.limit_nanos(), out);
    out.set("peak_rss_mb", status_bytes("VmHWM:") / 1e6);
    out.profile = phase.profile();
    if !plan.quick {
        out.unsteady.extend(phase.unsteady(collects));
    }
    if collects && phase.failed > 0 {
        out.wrong.push(format!("{} ops returned Err", phase.failed));
    }
    eprintln!(
        "# {}: {} ops, p99 per segment has at least {} samples beyond it",
        plan.kind.name(),
        phase.attempted,
        phase.tail_samples()
    );
    let rates: Vec<String> = phase
        .segments
        .iter()
        .map(|segment| format!("{:.0}", segment.rate()))
        .collect();
    eprintln!("# {}: segment ops/s: {}", plan.kind.name(), rates.join(" "));
    for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
        let cells: Vec<String> = phase
            .measured()
            .iter()
            .map(|h| format!("{:.0}", h.quantile(q) / 1e3))
            .collect();
        eprintln!(
            "# {}: segment {label} us: {}",
            plan.kind.name(),
            cells.join(" ")
        );
    }
}

/// Copies the exact counts that are also per-layer metrics.
fn counts_to_metrics(out: &mut Outcome) {
    for (name, count) in out.counts.clone() {
        if unit_of(&name).is_some() {
            out.set(&name, count as f64);
        }
    }
}

/// What the harness needs from either third-length phase: its rate, for the
/// cost of tracing, and its op counts.
fn note_third(phase: &Phase, out: &mut Outcome) {
    out.set("ops_per_s", phase.ops_per_s());
    out.attempted = phase.attempted;
    out.failed = phase.failed;
}

fn phase_wall_nanos(phase: &Phase) -> u64 {
    phase.segments.iter().map(|s| s.wall_nanos).sum()
}

fn program_child(role: &str, plan: &Plan, dir: &Path, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    let rss_before = status_bytes("VmRSS:");
    let mut program = Program::new(plan.kind, plan.seed);
    let config = program.config();
    let mut rt = Runtime::new(config.clone());
    if let Err(error) = program.setup(&mut rt) {
        out.wrong.push(format!("set-up failed: {error}"));
        return out;
    }
    let failed = run::warm_up(&mut program, &mut rt, plan.warm_up_units());
    if failed > 0 {
        out.wrong.push(format!("{failed} warm-up ops returned Err"));
    }
    let rss_per_object = (status_bytes("VmRSS:") - rss_before) / rt.live_objects().max(1) as f64;
    note_setup(plan, started, Duration::ZERO, &mut out);

    let leak = ("java.util.LinkedList$Node", "java.util.LinkedList$Node");
    let prunes_only = (plan.kind == Kind::LeakPrune).then_some(leak);
    let baseline = Baseline::take(&rt);
    match role {
        "setup" => time_restores(plan, &mut program, &mut rt, dir, &mut out),
        "measure" => {
            let phase = run::run_ops(
                &mut program,
                &mut rt,
                plan.segment_units(false),
                Some(plan.seconds),
                None,
            );
            report_phase(plan, &phase, true, &mut out);
            run::check_runtime(&rt, prunes_only, &mut out.wrong);
            // Peak memory is on record; what follows may allocate.
            time_restores(plan, &mut program, &mut rt, dir, &mut out);
        }
        "third" => {
            let phase = run::run_ops(&mut program, &mut rt, plan.segment_units(true), None, None);
            note_third(&phase, &mut out);
            baseline.counts(&rt, &mut out);
        }
        _ => {
            let segment = plan.segment_units(true);
            // Room for every op's span and those of its collections.
            let mut tracer = Tracer::new(2 * SEGMENTS * segment as usize);
            let phase = run::run_ops(&mut program, &mut rt, segment, None, Some(&mut tracer));
            note_third(&phase, &mut out);
            baseline.counts(&rt, &mut out);
            counts_to_metrics(&mut out);
            baseline.layers(&rt, phase_wall_nanos(&phase), &mut out);
            out.set("heap.rss_bytes_per_object", rss_per_object);
            run::check_runtime(&rt, prunes_only, &mut out.wrong);
            if matches!(plan.kind, Kind::ReadSteady | Kind::AllocChurn) {
                base_comparison(plan, &mut tracer, &mut out);
            }
            probes::runtime(&mut rt, &config, &mut tracer, dir, &mut out);
            probes::fixtures(&mut tracer, dir, &mut out);
            write_trace(plan, &tracer, &mut out);
        }
    }
    out
}

/// `recover_s` of a single-runtime workload: what coming back costs an
/// application on the runtime — read its checkpoint and rebuild the heap,
/// sanitizer included — [`RESTORES`] times, near the fastest of them.
///
/// The file is to hold the program's state and not however much garbage
/// happened to be waiting, and the same state whatever the seed and however
/// many ops have run: the heap is collected first — except the leak's, which
/// fills and is pruned every few dozen collections. That one runs on to its
/// next SELECT collection, the one before a PRUNE, where the leak is at its
/// fullest.
fn time_restores(
    plan: &Plan,
    program: &mut Program,
    rt: &mut Runtime,
    dir: &Path,
    out: &mut Outcome,
) {
    if plan.kind == Kind::LeakPrune {
        run_to_select(program, rt, &mut out.wrong);
    } else {
        rt.force_gc();
    }
    let path = dir.join("recover.ckpt");
    Checkpoint::capture(rt, 0)
        .write(&path)
        .expect("the run directory is writable");
    let config = program.config();
    let seconds: Vec<f64> = (0..RESTORES)
        .map(|_| {
            let start = Instant::now();
            let restored = Checkpoint::read(&path)
                .expect("a checkpoint reads back")
                .restore(config.clone())
                .expect("a checkpoint restores");
            let elapsed = start.elapsed().as_secs_f64();
            if restored.live_objects() != rt.live_objects() {
                out.wrong.push("the restored heap lost objects".into());
            }
            elapsed
        })
        .collect();
    out.set("recover_s", stats::segment_latency(&seconds));
    let _ = std::fs::remove_file(path);
}

/// Runs `program` on until its latest collection is a SELECT one.
fn run_to_select(program: &mut Program, rt: &mut Runtime, wrong: &mut Vec<String>) {
    const MOST_OPS: u64 = 1_000_000;
    for _ in 0..MOST_OPS {
        if rt
            .history()
            .last()
            .is_some_and(|r| r.state == State::Select)
        {
            return;
        }
        if let Err(error) = program.op(rt) {
            wrong.push(format!("an op on the way to SELECT returned {error}"));
            return;
        }
    }
    wrong.push(format!("no SELECT collection within {MOST_OPS} ops"));
}

/// The same ops under the paper's "Base" configuration (no barrier, no
/// pruning) and under the default one, in one process, segment by segment
/// in turn, so that a slow spell of the box falls on both alike.
fn base_comparison(plan: &Plan, tracer: &mut Tracer, out: &mut Outcome) {
    const TURNS: usize = 8;
    // Both sides together run half as many ops as the traced phase did.
    let ops = plan.segment_units(true) * SEGMENTS as u64 / (4 * TURNS as u64);
    let mut sides: Vec<(Program, Runtime, Vec<f64>)> = [true, false]
        .into_iter()
        .map(|base| {
            let mut program = Program::new(plan.kind, plan.seed);
            let config = if base {
                program.base_config()
            } else {
                program.config()
            };
            let mut rt = Runtime::new(config);
            program.setup(&mut rt).expect("the program fits its heap");
            run::warm_up(&mut program, &mut rt, plan.warm_up_units() / 4);
            (program, rt, Vec::new())
        })
        .collect();
    for turn in 0..TURNS {
        for (program, rt, rates) in &mut sides {
            let ((), nanos) = tracer.time("lp-workloads.iterate_ab", turn as u64, || {
                run::warm_up(program, rt, ops);
            });
            rates.push(
                Segment {
                    ops,
                    wall_nanos: nanos,
                }
                .rate(),
            );
        }
    }
    let base = stats::median(&sides[0].2);
    let default = stats::median(&sides[1].2);
    out.set("barrier.overhead_ratio", base / default);
    out.set("mutator.base_op_us", 1e6 / base);
}

fn write_trace(plan: &Plan, tracer: &Tracer, out: &mut Outcome) {
    let path = crate::out_dir().join(format!("trace_{}.json", plan.kind.name()));
    match tracer.write(&path, plan.kind.name(), plan.seed) {
        Ok(()) => eprintln!("# wrote {} ({} spans)", path.display(), tracer.len()),
        Err(error) => out
            .wrong
            .push(format!("cannot write {}: {error}", path.display())),
    }
}

/// Starts the helper fleet, waits until it has served its rounds and
/// checkpointed, and kills it: `Child::kill` is SIGKILL, a real crash.
fn crash_a_fleet(plan: &Plan, dir: &Path) -> Result<Vec<(String, u64, u64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--child", "fleet-helper", "--workload", plan.kind.name()])
        .args(["--seed", &plan.seed.to_string()])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if plan.quick {
        command.arg("--quick");
    }
    let mut helper = command.spawn().map_err(|e| e.to_string())?;
    let mut line = String::new();
    let read = BufReader::new(helper.stdout.take().expect("stdout is piped")).read_line(&mut line);
    let killed = helper.kill();
    let _ = helper.wait();
    read.map_err(|e| e.to_string())?;
    killed.map_err(|e| e.to_string())?;
    fleet::parse_ready(line.trim()).ok_or(format!("the helper fleet said `{}`", line.trim()))
}

/// Copies the files (not the directories) of `from` into a new directory
/// `to`, and returns `to`.
fn copy_files(from: &Path, to: &Path) -> PathBuf {
    std::fs::create_dir_all(to).expect("the run directory is writable");
    for entry in std::fs::read_dir(from).expect("the run directory is readable") {
        let path = entry.expect("the run directory is readable").path();
        if path.is_file() {
            let name = path.file_name().expect("a file has a name");
            std::fs::copy(&path, to.join(name)).expect("the run directory is writable");
        }
    }
    to.to_owned()
}

fn fleet_child(role: &str, plan: &Plan, dir: &Path, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    let dir = dir.join(format!("fleet_{role}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the run directory is writable");
    let helper = match crash_a_fleet(plan, &dir) {
        Ok(helper) => helper,
        Err(message) => {
            out.wrong.push(format!("set-up failed: {message}"));
            return out;
        }
    };
    // A recovery appends to the files it recovers from, so the recoveries
    // an end-to-end child times after its own need copies made now. Copying
    // is the benchmark's book-keeping, not set-up.
    let copying = Instant::now();
    let copies: Vec<PathBuf> = if matches!(role, "setup" | "measure") {
        (0..EXTRA_RECOVERIES)
            .map(|index| copy_files(&dir, &dir.join(format!("again_{index}"))))
            .collect()
    } else {
        Vec::new()
    };
    let not_setup = copying.elapsed();
    let (mut host, recover_s, wrong) = match fleet::recover(plan.seed, &dir, &helper) {
        Ok(recovered) => recovered,
        Err(error) => {
            out.wrong
                .push(format!("the fleet did not come back: {error}"));
            return out;
        }
    };
    out.wrong.extend(wrong);
    let mut driver = Driver::new(&host);
    driver.warm_up(&mut host, plan.warm_up_units() / 8);
    note_setup(plan, started, not_setup, &mut out);

    match role {
        "setup" => {}
        "measure" => {
            let phase = driver.run(
                &mut host,
                plan.segment_units(false),
                Some(plan.seconds),
                None,
            );
            report_phase(plan, &phase, false, &mut out);
            fleet::check(&host, &mut out.wrong);
        }
        "third" => {
            let phase = driver.run(&mut host, plan.segment_units(true), None, None);
            note_third(&phase, &mut out);
            fleet::counts(&host, &mut out);
        }
        _ => {
            let segment = plan.segment_units(true);
            let mut tracer = Tracer::new(2 * SEGMENTS * segment as usize);
            let phase = driver.run(&mut host, segment, None, Some(&mut tracer));
            note_third(&phase, &mut out);
            fleet::counts(&host, &mut out);
            fleet::check(&host, &mut out.wrong);

            driver.layers(&host, &phase, &mut out);
            let replayed: u64 = helper.iter().map(|(_, from, to)| to - from).sum();
            out.set(
                "recovery.replay_us_per_request",
                recover_s * 1e6 / replayed.max(1) as f64,
            );
            fleet::scrape(&host, &mut tracer, &mut out);
            // The final heap to snapshot and checkpoint is the leaky
            // tenant's, fetched the way an operator would: by checkpoint.
            match fleet::final_runtime(&mut host, &dir) {
                Ok(mut rt) => {
                    let config = fleet::tenant_config();
                    probes::runtime(&mut rt, &config, &mut tracer, &dir, &mut out);
                }
                Err(message) => out.wrong.push(message),
            }
            probes::fixtures(&mut tracer, &dir, &mut out);
            write_trace(plan, &tracer, &mut out);
        }
    }
    host.shutdown();
    // Peak memory is on record; the fleets that follow allocate their own.
    let mut seconds = vec![recover_s];
    for copy in &copies {
        match fleet::recover(plan.seed, copy, &helper) {
            Ok((mut again, recover_s, wrong)) => {
                again.shutdown();
                seconds.push(recover_s);
                out.wrong.extend(wrong);
            }
            Err(error) => out
                .wrong
                .push(format!("the fleet did not come back again: {error}")),
        }
    }
    out.set("recover_s", stats::segment_latency(&seconds));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

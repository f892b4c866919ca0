//! End-to-end bug-yield benchmark for the PMRace workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <hunt|fleet|replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the `replay` workload reads `repros/`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones. See `e2ebench/README.md`.

mod host;
mod layers;
mod table;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pmrace_pmem::Pool;
use pmrace_telemetry as telemetry;

use layers::{Metric, TracedRun, Tracer};
use workload::{Artifact, Tally, Workload};

/// The checked-in artifact corpus, relative to the repository root.
const REPROS: &str = "repros";

/// Set-ups timed before the first round; one more is timed before each
/// round. `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 15;

/// Passes over the artifacts that rest on luck in a traced `replay` run.
const LUCKY_PASSES: usize = 5;

/// `Checkpoint::create` / `Pool::new` timings per target in a traced run.
const CREATE_REPEATS: usize = 3;

/// The time-to-bug tail the `host:` line prints, per workload: a high
/// percentile that still keeps at least ten samples beyond it in a 35 s
/// run, with room for a slower host (README.md gives the sample counts).
/// It is not a metric: over ten runs of the same code its spread was too
/// wide for a bound (README.md, "Steadiness record").
fn tail_percentile(w: Workload) -> f64 {
    match w {
        Workload::Hunt => 0.94,
        Workload::Fleet => 0.925,
        Workload::Replay => 0.975,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value} (hunt, fleet, replay)")
                    })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Time one set-up of the workload; returns its artifacts.
fn time_setup(w: Workload, setups: &mut Vec<f64>) -> Result<Vec<Artifact>, String> {
    let clock = Instant::now();
    let artifacts = workload::setup(w, Path::new(REPROS))?.0;
    setups.push(clock.elapsed().as_secs_f64());
    Ok(artifacts)
}

/// Whole rounds until `budget` has passed. Returns the tally, the wall
/// time, and the completed campaigns per second of each round. With
/// `setups`, one more set-up is timed before each round (outside the
/// round's clock), so set-up samples span the whole run and not only a
/// moment of it.
fn measure(
    args: &Args,
    budget: Duration,
    artifacts: &[Artifact],
    mut tracer: Option<&mut Tracer>,
    mut setups: Option<&mut Vec<f64>>,
) -> Result<(Tally, f64, Vec<f64>), String> {
    let mut tally = Tally::default();
    let mut per_round = Vec::new();
    let start = Instant::now();
    while per_round.is_empty() || start.elapsed() < budget {
        if let Some(s) = setups.as_deref_mut() {
            time_setup(args.workload, s)?;
        }
        let (clock, done) = (Instant::now(), tally.completed);
        workload::round(
            args.workload,
            args.seed,
            per_round.len() as u64,
            Path::new(REPROS),
            artifacts,
            &mut tally,
            tracer.as_deref_mut(),
        )
        .map_err(|e| format!("round {}: {e}", per_round.len()))?;
        per_round.push((tally.completed - done) as f64 / clock.elapsed().as_secs_f64());
    }
    Ok((tally, start.elapsed().as_secs_f64(), per_round))
}

/// Time `Checkpoint::create` and `Pool::new` for each target the
/// workload runs.
fn time_creation(w: Workload, artifacts: &[Artifact], tr: &mut Tracer) -> Result<(), String> {
    let mut targets: Vec<&str> = match w {
        Workload::Hunt => workload::HUNT_TARGETS.to_vec(),
        Workload::Fleet => workload::FLEET_TARGETS.to_vec(),
        Workload::Replay => artifacts.iter().map(|a| a.repro.target.as_str()).collect(),
    };
    targets.sort_unstable();
    targets.dedup();
    for t in targets {
        let spec = workload::spec(t).map_err(|e| e.to_string())?;
        for _ in 0..CREATE_REPEATS {
            let clock = Instant::now();
            pmrace_core::checkpoint::Checkpoint::create(&spec).map_err(|e| e.to_string())?;
            tr.checkpoint_create_ms
                .push(clock.elapsed().as_secs_f64() * 1e3);
            let clock = Instant::now();
            drop(std::hint::black_box(Pool::new((spec.pool)())));
            tr.pool_new_ms.push(clock.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(())
}

struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    note: String,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let artifacts = time_setup(args.workload, &mut setups)?;
    for _ in 1..SETUP_REPEATS {
        time_setup(args.workload, &mut setups)?;
    }
    let budget = Duration::from_secs(args.seconds);
    if !args.trace {
        let (tally, wall_s, per_round) =
            measure(args, budget, &artifacts, None, Some(&mut setups))?;
        let rounds = per_round.len();
        // p50: the median over the table's rows of each row's median
        // time to first detection, so every bug weighs the same. Tail, printed
        // only: a percentile of all samples pooled.
        let row_medians: Vec<f64> = tally.ttb_ms.values().map(|v| host::median(v)).collect();
        let mut ttb: Vec<f64> = tally.ttb_ms.values().flatten().copied().collect();
        ttb.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(args.workload);
        let note = format!(
            "rounds {rounds} ({:.1}..{:.1} campaigns/s), wall {wall_s:.2} s, time-to-bug samples {} on {} rows, tail p{} {:.1} ms ({} samples beyond it)",
            per_round.iter().copied().fold(f64::INFINITY, f64::min),
            per_round.iter().copied().fold(0.0, f64::max),
            ttb.len(),
            row_medians.len(),
            tail_p * 100.0,
            host::quantile(&ttb, tail_p),
            ((1.0 - tail_p) * ttb.len() as f64).floor(),
        );
        let m = |name, value, unit| Metric { name, value, unit };
        let cps = host::median(&per_round);
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            note: format!(
                "{note}, set-ups {:.4}..{:.4} s, faults {:?}, extra findings {:?}",
                setups.iter().copied().fold(f64::INFINITY, f64::min),
                setups.iter().copied().fold(0.0, f64::max),
                tally.faults,
                tally.extras
            ),
            errors: tally.errors,
            metrics: vec![
                m("setup_s", host::median(&setups), "s"),
                m("campaigns_per_s", cps, "1/s"),
                m("ttb_p50_ms", host::median(&row_medians), "ms"),
            ],
        });
    }

    // Traced: half the time untraced, then the same rounds traced, so the
    // difference between the two is the tracing overhead.
    let half = budget / 2;
    let (untraced, _, untraced_rounds) = measure(args, half, &artifacts, None, None)?;
    let mut tracer = Tracer::default();
    time_creation(args.workload, &artifacts, &mut tracer)?;
    telemetry::set_enabled(true);
    telemetry::reset();
    let cpu0 = host::process_cpu_s();
    let (traced, t_wall, traced_rounds) = measure(args, half, &artifacts, Some(&mut tracer), None)?;
    let cpu_s = host::process_cpu_s() - cpu0;
    let snap = telemetry::Snapshot::capture(&|_| None);
    telemetry::set_enabled(false);
    if args.workload == Workload::Replay {
        workload::lucky_refires(Path::new(REPROS), LUCKY_PASSES, &mut tracer)?;
    }
    for line in tracer.target_lines() {
        eprintln!("  {line}");
    }
    for p in &snap.phases {
        eprintln!(
            "  phase {:18} count {:7}  share of traced wall {:6.3}",
            p.name,
            p.count,
            p.total_us as f64 / 1e6 / t_wall
        );
    }
    let metrics = layers::metrics(&TracedRun {
        snap: &snap,
        tracer: &tracer,
        wall_s: t_wall,
        cpu_s,
        untraced_cps: host::median(&untraced_rounds),
        traced_cps: host::median(&traced_rounds),
    });
    let mut errors = untraced.errors;
    errors.extend(traced.errors);
    let mut extras = untraced.extras;
    extras.extend(traced.extras);
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        errors,
        metrics,
        note: format!(
            "traced rounds {}, traced wall {t_wall:.2} s, extra findings {extras:?}",
            traced_rounds.len()
        ),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <hunt|fleet|replay> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let jiffies0 = host::cpu_jiffies();
    let clock = Instant::now();
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(1);
        }
    };
    for e in &out.errors {
        eprintln!("e2ebench: unexplained failure: {e}");
    }
    let steal = host::steal_share(jiffies0, host::cpu_jiffies())
        .map_or_else(|| "unknown".to_owned(), |s| format!("{s:.4}"));
    println!(
        "host: cpu steal share {steal} over {:.1} s, {} CPUs; {}",
        clock.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, usize::from),
        out.note
    );
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.errors.is_empty() && out.attempted > 0,
        out.attempted,
        out.failed
    );
    ExitCode::SUCCESS
}

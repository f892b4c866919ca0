//! The three workloads, each as rounds of operations driven through the
//! program's public entry points.
//!
//! * `hunt` — one hunt per target of `HUNT_TARGETS` per round:
//!   `Fuzzer::run` with one worker, the Fig. 6 strategy and four driver
//!   threads, for a fixed number of campaigns.
//! * `fleet` — `Fuzzer::run` with one worker per CPU on memcached-pmem and
//!   the three lock-free targets.
//! * `replay` — one strict-mode `pmrace_replay::replay` per round of every
//!   checked-in artifact that does not rest on luck (`rests_on_luck`).
//!
//! Traced rounds time the calls into each layer from here; the crates
//! carry no tracing of the benchmark's own.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pmrace_api::TargetSpec;
use pmrace_core::campaign::CampaignConfig;
use pmrace_core::explore::{ExploreConfig, Explorer};
use pmrace_core::{BugKind, FuzzConfig, FuzzReport, Fuzzer, Ledger, UniqueBug};
use pmrace_replay::{replay, ReplayOptions, Repro, ReproStore, ScheduleSpec};
use pmrace_runtime::RtError;

use crate::host::{mix, process_cpu_s};
use crate::layers::{TargetTrace, Tracer};
use crate::table::{self, Verdict};

/// The registered targets the hunt counts, in registration order. clevel
/// is left out: fault 1 (below) reaches it too, but only now and then,
/// when host load stretches a Fig. 6 stall (one false hang in 150
/// campaigns at 20% CPU steal, none on an idle host), so its hunts pass
/// or fail by host load rather than by the program.
pub const HUNT_TARGETS: &[&str] = &[
    "P-CLHT",
    "CCEH",
    "FAST-FAIR",
    "memcached-pmem",
    "treiber-stack",
    "harris-list",
    "ms-queue",
];

/// Campaigns per hunt of `target`: about twice the campaign of the latest
/// first detection seen on the target over 30 seeds, so a hunt finds its
/// rows on nearly every seed without running long after it has. Over those
/// seeds the rows of memcached-pmem and CCEH came at campaign 1 or 13, the
/// lock-free ones at 1 or 2, P-CLHT's hang (bug 5) at 1–46 and FAST-FAIR's
/// bug 8 at 4–100. CCEH and FAST-FAIR must also show fault 1 on every hunt:
/// 21–38 of 150 CCEH and 8–26 of 150 FAST-FAIR campaigns ended in a false
/// hang, so CCEH keeps 100 campaigns and FAST-FAIR 150.
pub fn hunt_campaigns(target: &str) -> usize {
    match target {
        "FAST-FAIR" => 150,
        "P-CLHT" | "CCEH" => 100,
        "memcached-pmem" => 40,
        _ => 30,
    }
}

/// Targets whose every hunt reports a Hang bug Table 2 does not list
/// (fault 1: the spin-loop livelock latch fires on the Fig. 6 writer
/// stall). Their hunts are counted as failed, and their RNG seeds are
/// derived from the round index alone, not from `--seed`, so the failing
/// inputs are the same in every run.
pub const FAULT1_TARGETS: &[&str] = &["CCEH", "FAST-FAIR"];

/// The fleet's targets: the validator pool's heaviest load
/// (memcached-pmem) and the short CAS-heavy lock-free campaigns.
pub const FLEET_TARGETS: &[&str] = &["memcached-pmem", "treiber-stack", "harris-list", "ms-queue"];

/// Campaigns per fleet run, shared by all workers.
pub const FLEET_CAMPAIGNS: usize = 120;

/// Rows whose first detection `FuzzReport` carries no time for: bug 4 is a
/// candidate (no verdict, no unique bug), and bug 10 shares bug 9's write
/// site, which is the ledger's unique-bug key, so the one unique bug there
/// times bug 9.
const UNTIMED_ROWS: &[u32] = &[4, 10];

/// `true` for an artifact whose re-firing rests on luck: it records a
/// `free` schedule for an inter-thread bug, so whether the bug re-fires
/// depends on how the OS happens to interleave the replay's threads.
/// Bug 19's artifact (fault 2) misses about one replay in three this way;
/// bug 12's about one in twelve; the lock-free and other memcached-pmem
/// ones miss now and then, in bursts, on a loaded host. The `replay`
/// workload leaves them out of its operations, since an outcome that
/// varies from run to run cannot be kept as a counted failure; traced runs
/// still replay them and report how often they re-fire.
pub fn rests_on_luck(repro: &Repro) -> bool {
    matches!(repro.schedule, ScheduleSpec::Free) && repro.signature.kind == "Inter"
}

/// Driver threads per hunt campaign (the paper's setting).
const THREADS: usize = 4;

/// Per-campaign deadline, as `FuzzConfig::new` sets it.
const DEADLINE: Duration = Duration::from_millis(600);

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hunt,
    Fleet,
    Replay,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hunt" => Some(Workload::Hunt),
            "fleet" => Some(Workload::Fleet),
            "replay" => Some(Workload::Replay),
            _ => None,
        }
    }
}

/// Fleet size: one worker per CPU, at least two so the pipeline runs.
pub fn fleet_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, usize::from)
        .clamp(2, 8)
}

/// What the operations of a run added up to.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures a named fault explains.
    pub faults: BTreeMap<String, u64>,
    /// Failures nothing explains: any of these makes the run incorrect.
    pub errors: Vec<String>,
    /// Validated triples outside the corpus (see `Verdict::extra`).
    pub extras: BTreeSet<String>,
    /// Campaigns that ran to completion (no hang latch, no deadline).
    pub completed: u64,
    /// Time-to-bug samples in milliseconds, by table row.
    pub ttb_ms: BTreeMap<u32, Vec<f64>>,
}

impl Tally {
    fn fail(&mut self, fault: Option<&str>, what: String) {
        self.failed += 1;
        match fault {
            Some(f) => *self.faults.entry(f.to_owned()).or_insert(0) += 1,
            None => self.errors.push(what),
        }
    }
}

/// One checked-in artifact and the row it re-triggers.
pub struct Artifact {
    pub path: PathBuf,
    pub repro: Repro,
    pub row: u32,
}

/// The artifacts of `dir`, in file-name order: the ones the replay
/// workload counts, and the ones that rest on luck. Every artifact must
/// belong to a row of the table.
pub fn load_artifacts(
    dir: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<(Vec<Artifact>, Vec<Artifact>), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let start = Instant::now();
    let (mut counted, mut lucky) = (Vec::new(), Vec::new());
    for path in paths {
        let repro = ReproStore::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let row = table::signature_row(&repro.signature, &repro.target)
            .ok_or_else(|| format!("{}: no table row for its signature", path.display()))?;
        let a = Artifact { path, repro, row };
        if rests_on_luck(&a.repro) {
            lucky.push(a);
        } else {
            counted.push(a);
        }
    }
    if let Some(tr) = tracer {
        let ns = start.elapsed().as_nanos();
        tr.loads += (counted.len() + lucky.len()) as u64;
        tr.load_ns += ns;
        tr.timed_ns += ns;
    }
    if counted.is_empty() {
        return Err(format!("{}: no artifacts to replay", dir.display()));
    }
    Ok((counted, lucky))
}

/// Replay each artifact that rests on luck `passes` times and count how
/// often it re-fires. Not an operation of the workload: the count is a
/// per-layer figure of traced runs.
pub fn lucky_refires(repros: &Path, passes: usize, tr: &mut Tracer) -> Result<(), String> {
    let (_, lucky) = load_artifacts(repros, None)?;
    let opts = ReplayOptions::default();
    for _ in 0..passes {
        for a in &lucky {
            let out = replay(&a.repro, &opts).map_err(|e| e.to_string())?;
            tr.lucky_replays += 1;
            tr.lucky_refires += u64::from(out.matched);
        }
    }
    Ok(())
}

/// Register every target and resolve one by name.
pub fn spec(name: &str) -> Result<TargetSpec, RtError> {
    pmrace_targets::register_builtins();
    pmrace_lockfree::register_lockfree();
    pmrace_api::resolve_target_or_err(name)
}

/// The explorer configuration `Fuzzer::run` builds from
/// `FuzzConfig::new` defaults.
pub fn explore_config() -> ExploreConfig {
    ExploreConfig {
        campaign: CampaignConfig {
            threads: THREADS,
            deadline: DEADLINE,
            ..CampaignConfig::default()
        },
        ..ExploreConfig::default()
    }
}

/// One set-up of a workload: everything before its first campaign can
/// start. Returns the artifacts for `replay` (counted, resting on luck).
pub fn setup(w: Workload, repros: &Path) -> Result<(Vec<Artifact>, Vec<Artifact>), String> {
    let explorers = |targets: &[&str], per_target: usize| -> Result<(), String> {
        for t in targets {
            let spec = spec(t).map_err(|e| e.to_string())?;
            for _ in 0..per_target {
                Explorer::new(spec, explore_config(), 0).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    };
    match w {
        Workload::Hunt => explorers(HUNT_TARGETS, 1).map(|()| Default::default()),
        Workload::Fleet => explorers(FLEET_TARGETS, fleet_workers()).map(|()| Default::default()),
        Workload::Replay => {
            let arts = load_artifacts(repros, None)?;
            for a in arts.0.iter().chain(&arts.1) {
                spec(&a.repro.target).map_err(|e| e.to_string())?;
            }
            Ok(arts)
        }
    }
}

/// The RNG seed of one hunt or fleet run.
fn rng_seed(seed: u64, round: u64, target: &str, i: usize) -> u64 {
    let base = if FAULT1_TARGETS.contains(&target) {
        0x5EED_FA17
    } else {
        seed
    };
    mix(mix(base ^ round.wrapping_mul(0x1000_0001)) ^ i as u64)
}

/// Run one round of `w`'s operations.
pub fn round(
    w: Workload,
    seed: u64,
    round: u64,
    repros: &Path,
    artifacts: &[Artifact],
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), RtError> {
    match w {
        Workload::Hunt => {
            for (i, t) in HUNT_TARGETS.iter().enumerate() {
                let s = rng_seed(seed, round, t, i);
                match tracer.as_deref_mut() {
                    Some(tr) => traced_hunt(t, s, tally, tr)?,
                    None => {
                        let report = fuzz(t, s, 1, hunt_campaigns(t))?;
                        record_report(&report, tally);
                    }
                }
            }
        }
        Workload::Fleet => {
            for (i, t) in FLEET_TARGETS.iter().enumerate() {
                let s = rng_seed(seed, round, t, i);
                let start = Instant::now();
                let report = fuzz(t, s, fleet_workers(), FLEET_CAMPAIGNS)?;
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.timed_ns += start.elapsed().as_nanos();
                }
                record_report(&report, tally);
            }
        }
        Workload::Replay => {
            let opts = ReplayOptions::default();
            if let Some(tr) = tracer.as_deref_mut() {
                // Reload the corpus each traced round: ReproStore::load is
                // part of this workload's set-up.
                load_artifacts(repros, Some(tr)).map_err(RtError::Io)?;
            }
            for a in artifacts {
                let start = Instant::now();
                let out = replay(&a.repro, &opts)?;
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.timed_ns += start.elapsed().as_nanos();
                    tr.replays += 1;
                    tr.replay_attempts += out.attempts as u64;
                    tr.replay_divergences += u64::from(out.divergence.is_some());
                }
                tally.attempted += 1;
                // Campaigns run: the recon campaign of a strict replay of a
                // Fig. 6 schedule, then the attempts; a hang campaign did
                // not run to completion.
                let recon = matches!(a.repro.schedule, ScheduleSpec::Pmrace { .. });
                let hung = out.bugs.iter().any(|b| b.kind == BugKind::Hang);
                tally.completed +=
                    (out.attempts + usize::from(recon)).saturating_sub(usize::from(hung)) as u64;
                let v = table::check(&a.repro.target, &out.bugs, &[], &out.candidates);
                tally.extras.extend(v.extra.iter().cloned());
                let confirmed = v
                    .found
                    .iter()
                    .any(|&f| unique_bug_row(f) == unique_bug_row(a.row));
                if out.matched && v.clean() && confirmed {
                    tally
                        .ttb_ms
                        .entry(a.row)
                        .or_default()
                        .push(out.duration.as_secs_f64() * 1e3);
                } else {
                    tally.fail(
                        None,
                        format!(
                            "replay {} (bug {}): matched {}, confirmed {confirmed}, unexpected {:?}, false hang {}",
                            a.path.display(),
                            a.row,
                            out.matched,
                            v.unexpected,
                            v.false_hang
                        ),
                    );
                }
            }
        }
    }
    Ok(())
}

fn fuzz(
    target: &str,
    rng_seed: u64,
    workers: usize,
    campaigns: usize,
) -> Result<FuzzReport, RtError> {
    let mut cfg = FuzzConfig::new(target);
    cfg.threads = THREADS;
    cfg.campaign_deadline = DEADLINE;
    cfg.workers = workers;
    cfg.max_campaigns = campaigns;
    // The campaign count ends every run; the wall budget is only a guard.
    cfg.wall_budget = Duration::from_secs(120);
    cfg.rng_seed = rng_seed;
    Fuzzer::new(cfg)?.run()
}

/// The row a unique bug on row `id` stands for: bugs 9 and 10 are one
/// unique bug in the ledger (see `UNTIMED_ROWS`).
fn unique_bug_row(id: u32) -> u32 {
    if id == 10 {
        9
    } else {
        id
    }
}

/// Check one fuzzing run and add its samples: one time-to-bug sample per
/// timed row of the target, taken from the first unique bug on that row;
/// a row the run never found counts as found at the run's end.
fn record_report(report: &FuzzReport, tally: &mut Tally) {
    let v = table::check(
        report.target,
        &report.bugs,
        &report.bug_triples,
        &report.candidate_only,
    );
    tally.attempted += 1;
    tally.completed += (report.campaigns - report.stats.hangs.min(report.campaigns)) as u64;
    let mut first: BTreeMap<u32, Duration> = BTreeMap::new();
    for b in &report.bugs {
        if let Some(row) = table::bug_row(report.target, b) {
            let at = first.entry(unique_bug_row(row)).or_insert(b.found_after);
            *at = (*at).min(b.found_after);
        }
    }
    for row in table::rows_of(report.target) {
        if !UNTIMED_ROWS.contains(&row.id) {
            let at = first.get(&row.id).copied().unwrap_or(report.elapsed);
            tally
                .ttb_ms
                .entry(row.id)
                .or_default()
                .push(at.as_secs_f64() * 1e3);
        }
    }
    judge(report.target, &v, tally);
}

fn judge(target: &str, v: &Verdict, tally: &mut Tally) {
    tally.extras.extend(v.extra.iter().cloned());
    if v.clean() {
        return;
    }
    let fault1 = v.unexpected.is_empty() && FAULT1_TARGETS.contains(&target);
    tally.fail(
        fault1.then_some("fault 1: false Hang bug on CCEH/FAST-FAIR"),
        format!(
            "{target}: unexpected {:?}, false hang {}",
            v.unexpected, v.false_hang
        ),
    );
}

/// A hunt driven step by step from here, timing each layer's public
/// calls: the same single-worker loop `Fuzzer::run` runs inline.
fn traced_hunt(
    target: &str,
    rng_seed: u64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Result<(), RtError> {
    let spec = spec(target)?;
    let mut t = TargetTrace::default();
    let start = Instant::now();
    let mut explorer = Explorer::new(spec, explore_config(), rng_seed)?;
    t.setup_ns = start.elapsed().as_nanos();
    let mut ledger = Ledger::new(spec);
    let mut found_at: BTreeMap<u32, usize> = BTreeMap::new();
    let mut seen_triples = 0;
    for c in 1..=hunt_campaigns(target) {
        let cpu0 = process_cpu_s();
        let clock = Instant::now();
        let out = explorer.step()?;
        t.step_ns += clock.elapsed().as_nanos();
        t.cpu_s += process_cpu_s() - cpu0;
        t.steps += 1;
        t.novel_steps += u64::from(out.new_alias + out.new_branch > 0);
        t.campaign_wall_ns += out.result.duration.as_nanos();
        t.op_errors += out.result.op_errors as u64;
        t.pm_accesses += out.result.pm_accesses;
        t.hangs += u64::from(out.result.findings.hang);

        let clock = Instant::now();
        let mut plan = ledger.begin_ingest(&out.result, start.elapsed());
        t.ingest_ns += clock.elapsed().as_nanos();
        if plan.needs_validation() {
            let clock = Instant::now();
            plan.validate(&out.result);
            t.validate_ns += clock.elapsed().as_nanos();
            t.validate_calls += 1;
        }
        let clock = Instant::now();
        let delta = ledger.finish_ingest(plan, &out.result, Some(&out.seed));
        t.ingest_ns += clock.elapsed().as_nanos();

        let rows = delta
            .new_bugs
            .iter()
            .filter_map(|b| table::bug_row(target, b))
            .chain(
                ledger.bug_triples()[seen_triples..]
                    .iter()
                    .filter_map(|(w, r, e)| table::triple_row(target, w, r, e)),
            )
            .chain(
                delta
                    .new_candidates
                    .iter()
                    .filter_map(|(w, r)| table::candidate_row(target, w, r)),
            );
        for row in rows.filter(|&id| table::ROWS.iter().any(|r| r.id == id)) {
            found_at.entry(row).or_insert(c);
        }
        seen_triples = ledger.bug_triples().len();
    }
    t.wall_ns = start.elapsed().as_nanos();
    t.hunts = 1;
    t.campaigns_to_bug = found_at.values().map(|&c| c as f64).collect();
    t.rows_found = found_at.len() as u64;
    t.rows_expected = table::rows_of(target).count() as u64;

    // Check exactly as an untraced hunt is checked.
    let bugs: Vec<UniqueBug> = ledger.bugs().into_iter().cloned().collect();
    let v = table::check(
        target,
        &bugs,
        ledger.bug_triples(),
        &ledger.candidate_only_pairs(),
    );
    tally.attempted += 1;
    tally.completed += t.steps - t.hangs;
    judge(target, &v, tally);
    tr.add_hunt(target, t);
    Ok(())
}

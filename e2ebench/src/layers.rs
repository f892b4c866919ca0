//! Per-layer metrics of a traced run: calls into each layer's public
//! functions timed from the benchmark, plus the program's own telemetry
//! counters read through `pmrace_telemetry::Snapshot`.

use std::collections::BTreeMap;

use pmrace_telemetry::Snapshot;

use crate::host::{median, ratio};

/// What the traced hunts of one target added up to.
#[derive(Debug, Default)]
pub struct TargetTrace {
    pub hunts: u64,
    pub steps: u64,
    pub novel_steps: u64,
    pub hangs: u64,
    pub op_errors: u64,
    pub pm_accesses: u64,
    pub validate_calls: u64,
    pub rows_found: u64,
    pub rows_expected: u64,
    pub cpu_s: f64,
    pub setup_ns: u128,
    pub step_ns: u128,
    pub campaign_wall_ns: u128,
    pub ingest_ns: u128,
    pub validate_ns: u128,
    pub wall_ns: u128,
    pub campaigns_to_bug: Vec<f64>,
}

impl TargetTrace {
    fn merge(&mut self, o: &TargetTrace) {
        self.hunts += o.hunts;
        self.steps += o.steps;
        self.novel_steps += o.novel_steps;
        self.hangs += o.hangs;
        self.op_errors += o.op_errors;
        self.pm_accesses += o.pm_accesses;
        self.validate_calls += o.validate_calls;
        self.rows_found += o.rows_found;
        self.rows_expected += o.rows_expected;
        self.cpu_s += o.cpu_s;
        self.setup_ns += o.setup_ns;
        self.step_ns += o.step_ns;
        self.campaign_wall_ns += o.campaign_wall_ns;
        self.ingest_ns += o.ingest_ns;
        self.validate_ns += o.validate_ns;
        self.wall_ns += o.wall_ns;
        self.campaigns_to_bug.extend_from_slice(&o.campaigns_to_bug);
    }

    fn timed_ns(&self) -> u128 {
        self.setup_ns + self.step_ns + self.ingest_ns + self.validate_ns
    }
}

/// Everything the benchmark timed during a traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Traced hunts, by target.
    pub per_target: BTreeMap<String, TargetTrace>,
    /// Wall time covered by a timed call.
    pub timed_ns: u128,
    pub loads: u64,
    pub load_ns: u128,
    pub replays: u64,
    pub replay_attempts: u64,
    pub replay_divergences: u64,
    /// Replays of the artifacts that rest on luck, and how many re-fired.
    pub lucky_replays: u64,
    pub lucky_refires: u64,
    /// `Checkpoint::create` and `Pool::new` of the workload's targets.
    pub checkpoint_create_ms: Vec<f64>,
    pub pool_new_ms: Vec<f64>,
}

impl Tracer {
    pub fn add_hunt(&mut self, target: &str, t: TargetTrace) {
        self.timed_ns += t.timed_ns();
        self.per_target
            .entry(target.to_owned())
            .or_default()
            .merge(&t);
    }

    fn hunt_total(&self) -> TargetTrace {
        let mut all = TargetTrace::default();
        for t in self.per_target.values() {
            all.merge(t);
        }
        all
    }

    /// Per-target reference figures, one line each.
    pub fn target_lines(&self) -> Vec<String> {
        self.per_target
            .iter()
            .map(|(name, t)| {
                let steps = t.steps as f64;
                format!(
                    "{name:15} hunts {:3}  campaigns/s {:7.1}  step {:6.3} ms  cpu {:6.3} ms  \
                     hang share {:5.3}  validate share {:5.3}  rows {}/{}  campaigns-to-bug p50 {:5.1}",
                    t.hunts,
                    ratio((t.steps - t.hangs) as f64, t.wall_ns as f64 / 1e9),
                    ratio(t.step_ns as f64 / 1e6, steps),
                    ratio(t.cpu_s * 1e3, steps),
                    ratio(t.hangs as f64, steps),
                    ratio(t.validate_ns as f64, t.wall_ns as f64),
                    t.rows_found,
                    t.rows_expected,
                    median(&t.campaigns_to_bug),
                )
            })
            .collect()
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run-level inputs of the per-layer metrics.
pub struct TracedRun<'a> {
    pub snap: &'a Snapshot,
    pub tracer: &'a Tracer,
    /// Wall time of the traced rounds.
    pub wall_s: f64,
    /// Process CPU time over the traced rounds.
    pub cpu_s: f64,
    /// `campaigns_per_s` of the untraced and the traced rounds.
    pub untraced_cps: f64,
    pub traced_cps: f64,
}

fn hist(snap: &Snapshot, name: &str) -> (f64, f64, Vec<(u32, u64)>) {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0.0, 0.0, Vec::new()), |h| {
            (h.count as f64, h.sum as f64, h.buckets.clone())
        })
}

fn hist_mean(snap: &Snapshot, name: &str) -> f64 {
    let (count, sum, _) = hist(snap, name);
    ratio(sum, count)
}

/// Median of a log2 histogram, as the geometric middle of the bucket
/// that holds it.
fn hist_p50(snap: &Snapshot, name: &str) -> f64 {
    let (count, _, buckets) = hist(snap, name);
    let mut seen = 0.0;
    for (b, n) in buckets {
        seen += n as f64;
        if seen >= count / 2.0 {
            return 2f64.powf(f64::from(b) + 0.5);
        }
    }
    0.0
}

fn phase_mean_us(snap: &Snapshot, name: &str) -> f64 {
    snap.phase(name)
        .map_or(0.0, |p| ratio(p.total_us as f64, p.count as f64))
}

/// Every per-layer metric. Hunt campaign figures come from the traced
/// hunts' `CampaignResult`s; the other workloads', which run their
/// campaigns inside `Fuzzer::run` or `replay`, from telemetry. Layers a
/// workload does not run read 0.
pub fn metrics(run: &TracedRun<'_>) -> Vec<Metric> {
    let snap = run.snap;
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let hunt = run.tracer.hunt_total();
    let hunted = hunt.steps > 0;
    // Campaigns as the runtime counted them: every workload runs them
    // through `run_campaign`.
    let campaigns = c("exec.campaigns");
    let per_campaign = |name: &str| ratio(c(name), campaigns);
    let steps = hunt.steps as f64;
    let pm_events = [
        "pm.loads",
        "pm.stores",
        "pm.ntstores",
        "pm.cas",
        "pm.flushes",
        "pm.fences",
    ]
    .iter()
    .map(|n| c(n))
    .sum::<f64>();
    let (camp_count, camp_sum_ns, _) = hist(snap, "exec.campaign_ns");
    let workers = &snap.worker_execs;
    let balance = match (
        workers.iter().map(|w| w.1).min(),
        workers.iter().map(|w| w.1).max(),
    ) {
        (Some(lo), Some(hi)) if workers.len() > 1 => ratio(lo as f64, hi as f64),
        _ => 0.0,
    };
    let validate_phase_s = snap
        .phase("validation")
        .map_or(0.0, |p| p.total_us as f64 / 1e6);
    let tr = run.tracer;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "core.explore.step_ms",
            ratio(hunt.step_ns as f64 / 1e6, steps),
            "ms",
        ),
        m(
            "core.explore.campaigns_to_bug_p50",
            median(&hunt.campaigns_to_bug),
            "count",
        ),
        m(
            "core.explore.novel_step_share",
            ratio(hunt.novel_steps as f64, steps),
            "share",
        ),
        m(
            "core.campaign.wall_ms",
            if hunted {
                ratio(hunt.campaign_wall_ns as f64 / 1e6, steps)
            } else {
                ratio(camp_sum_ns / 1e6, camp_count)
            },
            "ms",
        ),
        m(
            "core.campaign.cpu_ms",
            if hunted {
                ratio(hunt.cpu_s * 1e3, steps)
            } else {
                ratio(run.cpu_s * 1e3, campaigns)
            },
            "ms",
        ),
        m(
            "core.campaign.hang_share",
            if hunted {
                ratio(hunt.hangs as f64, steps)
            } else {
                per_campaign("exec.hangs")
            },
            "share",
        ),
        m(
            "core.campaign.op_errors",
            if hunted {
                ratio(hunt.op_errors as f64, steps)
            } else {
                per_campaign("exec.op_errors")
            },
            "1/campaign",
        ),
        m(
            "runtime.pm_accesses_per_campaign",
            if hunted {
                ratio(hunt.pm_accesses as f64, steps)
            } else {
                ratio(pm_events, campaigns)
            },
            "count",
        ),
        m(
            "runtime.pm_accesses_per_s",
            if hunted {
                ratio(hunt.pm_accesses as f64, hunt.campaign_wall_ns as f64 / 1e9)
            } else {
                ratio(pm_events, camp_sum_ns / 1e9)
            },
            "1/s",
        ),
        m("runtime.flush_ns", hist_mean(snap, "pm.flush_ns"), "ns"),
        m("runtime.fence_ns", hist_mean(snap, "pm.fence_ns"), "ns"),
        m(
            "sched.plans_per_campaign",
            per_campaign("plan.planned"),
            "1/campaign",
        ),
        m(
            "sched.waits_per_campaign",
            per_campaign("plan.waits"),
            "1/campaign",
        ),
        m(
            "sched.writer_stalls_per_campaign",
            per_campaign("plan.alternations_fired"),
            "1/campaign",
        ),
        m(
            "sched.alternations_per_plan",
            ratio(c("plan.alternations_fired"), c("plan.planned")),
            "1/plan",
        ),
        m(
            "sched.drafts_per_campaign",
            per_campaign("plan.privileged_drafts"),
            "1/campaign",
        ),
        m(
            "sched.sync_disabled",
            per_campaign("plan.sync_disabled"),
            "1/campaign",
        ),
        m(
            "core.checkpoint.create_ms",
            median(&tr.checkpoint_create_ms),
            "ms",
        ),
        m(
            "core.checkpoint.restore_us",
            phase_mean_us(snap, "checkpoint_restore"),
            "us",
        ),
        m(
            "core.checkpoint.cache_hit_share",
            ratio(c("checkpoint.cache_hits"), c("checkpoint.restores")),
            "share",
        ),
        m("pmem.pool_new_ms", median(&tr.pool_new_ms), "ms"),
        m(
            "pmem.dirty_lines_per_restore",
            hist_mean(snap, "restore.dirty_lines"),
            "count",
        ),
        m(
            "pmem.crash_image_overlay_bytes",
            hist_mean(snap, "crash_image.overlay_bytes"),
            "bytes",
        ),
        m(
            "core.bugs.ingest_us",
            ratio(hunt.ingest_ns as f64 / 1e3, steps),
            "us",
        ),
        m(
            "core.validate.run_ms",
            if hunted {
                ratio(hunt.validate_ns as f64 / 1e6, hunt.validate_calls as f64)
            } else {
                phase_mean_us(snap, "validation") / 1e3
            },
            "ms",
        ),
        m(
            "core.validate.runs",
            per_campaign("validate.runs"),
            "1/campaign",
        ),
        m(
            "core.validate.cache_hit_share",
            ratio(
                c("validate.cache_hit"),
                c("validate.cache_hit") + c("validate.cache_miss"),
            ),
            "share",
        ),
        m(
            "core.validate.fps",
            per_campaign("validate.fps"),
            "1/campaign",
        ),
        m(
            "core.validate.wall_share",
            if hunted {
                ratio(hunt.validate_ns as f64 / 1e9, run.wall_s)
            } else {
                ratio(validate_phase_s, run.wall_s)
            },
            "share",
        ),
        m(
            "core.pipeline.deferred_share",
            ratio(
                c("pipeline.deferred"),
                c("pipeline.deferred") + c("pipeline.inline"),
            ),
            "share",
        ),
        m(
            "core.pipeline.backpressure",
            per_campaign("pipeline.backpressure"),
            "1/campaign",
        ),
        m(
            "core.pipeline.queue_ms_p50",
            hist_p50(snap, "pipeline.queue_ns") / 1e6,
            "ms",
        ),
        m(
            "core.fleet.steals",
            per_campaign("fleet.steals"),
            "1/campaign",
        ),
        m(
            "core.fleet.shared_seeds",
            per_campaign("fleet.shared_seeds"),
            "1/campaign",
        ),
        m(
            "core.fleet.frontier_hits",
            per_campaign("fleet.frontier_hits"),
            "1/campaign",
        ),
        m("core.fleet.worker_balance", balance, "share"),
        m(
            "replay.load_ms",
            ratio(tr.load_ns as f64 / 1e6, tr.loads as f64),
            "ms",
        ),
        m(
            "replay.attempts_per_artifact",
            ratio(tr.replay_attempts as f64, tr.replays as f64),
            "count",
        ),
        m(
            "replay.divergences",
            ratio(tr.replay_divergences as f64, tr.replays as f64),
            "1/artifact",
        ),
        m(
            "replay.recon_ms",
            phase_mean_us(snap, "replay_recon") / 1e3,
            "ms",
        ),
        m(
            "replay.attempt_ms",
            phase_mean_us(snap, "replay_attempt") / 1e3,
            "ms",
        ),
        m(
            "replay.luck_refire_share",
            ratio(tr.lucky_refires as f64, tr.lucky_replays as f64),
            "share",
        ),
        m(
            "trace.overhead_share",
            1.0 - ratio(run.traced_cps, run.untraced_cps),
            "share",
        ),
        m(
            "trace.untimed_share",
            1.0 - ratio(tr.timed_ns as f64 / 1e9, run.wall_s),
            "share",
        ),
    ]
}

//! `quick-campaign`: the 25-job quick paper campaign through
//! `fiveg_campaign::run(paper_registry(), …)` at a fixed worker count —
//! what a user of `repro` waits for. About 99% of its job time is
//! packet DES.
//!
//! Checks, per job: it succeeded; at the blessed seed its artifact
//! matches the golden byte for byte (for the jobs that have one) and its
//! deterministic counters match `jobs.<name>.counters` of the committed
//! bench baseline; at any other seed its artifact parses as JSON and its
//! event queue executed no more events than it scheduled.

use crate::check::{counters_of, Checker, Counters, BLESSED_SEED};
use crate::harness::{self, Ctx, Iter, Mode, Outcome, Setup, Size};
use crate::ledger::TIMED_JOBS;
use fiveg_campaign::{Job, JobCtx, JobOutput, JobResult, Registry, RunConfig, RunReport};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// The cheap jobs of the tiny size: five with goldens, plus `fig17`,
/// whose packet-DES counters only the bench baseline covers.
const TINY_JOBS: [&str; 6] = ["table1", "fig2a", "fig10", "fig13", "fig17", "fig21"];

/// A registry job re-registered into the tiny registry.
struct Picked(Arc<dyn Job>);

impl Job for Picked {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn section(&self) -> &str {
        self.0.section()
    }
    fn reps(&self) -> u32 {
        self.0.reps()
    }
    fn retry_budget(&self) -> u32 {
        self.0.retry_budget()
    }
    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, String> {
        self.0.run(ctx)
    }
}

fn registry(size: Size) -> Registry {
    let full = fiveg_core::jobs::paper_registry();
    match size {
        Size::Full => full,
        Size::Tiny => {
            let mut r = Registry::new();
            for job in full.jobs() {
                if TINY_JOBS.contains(&job.name()) {
                    r.register(Picked(Arc::clone(job)));
                }
            }
            r
        }
    }
}

/// Per-job counters of the committed bench baseline.
fn load_baseline(path: &Path) -> Result<BTreeMap<String, Counters>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = fiveg_obs::parse_json(&src).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let jobs = v
        .get("jobs")
        .and_then(fiveg_obs::JsonValue::as_object)
        .ok_or_else(|| format!("{}: no `jobs` object", path.display()))?;
    jobs.iter()
        .map(|(name, job)| {
            job.get("counters")
                .and_then(counters_of)
                .map(|c| (name.clone(), c))
                .ok_or_else(|| format!("{}: job {name} has no counters", path.display()))
        })
        .collect()
}

struct Inputs {
    registry: Registry,
    baseline: BTreeMap<String, Counters>,
}

fn counter(r: &JobResult, name: &str) -> u64 {
    r.metrics
        .as_ref()
        .and_then(|m| m.counters.get(name).copied())
        .unwrap_or(0)
}

/// Checks one iteration's jobs.
fn check(ctx: &Ctx, inputs: &Inputs, report: &RunReport, checker: &mut Checker) {
    let blessed = ctx.seed == BLESSED_SEED;
    let mut produced = Vec::new();
    for r in &report.results {
        let name = r.artifact_stem();
        let Some(output) = &r.output else {
            checker.op(false, || format!("{name}: job failed: {:?}", r.status));
            continue;
        };
        let counters = r
            .metrics
            .as_ref()
            .map(fiveg_obs::Snapshot::deterministic)
            .unwrap_or_default();
        if blessed {
            let want = inputs.baseline.get(&name);
            checker.op(want == Some(&counters), || match want {
                Some(w) => format!("{name}: {}", crate::check::describe_drift(w, &counters)),
                None => format!("{name}: not in the bench baseline"),
            });
            let file = format!("{name}.json");
            if ctx.golden.join(&file).exists() {
                produced.push((file, output.json.clone()));
            }
        } else {
            let sane = fiveg_obs::parse_json(&output.json).is_ok()
                && counter(r, "sim.events.executed") <= counter(r, "sim.events.scheduled");
            checker.op(sane, || {
                format!("{name}: artifact is not JSON or events were lost")
            });
        }
    }
    if !produced.is_empty() {
        match fiveg_campaign::check_artifacts(&ctx.golden, &produced) {
            Ok(golden) => {
                for c in &golden.checks {
                    checker.op(c.is_ok(), || c.describe());
                }
            }
            Err(e) => checker.op(false, || format!("golden check: {e}")),
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if ctx.seed == BLESSED_SEED && !ctx.golden.is_dir() {
        return Err(format!("{}: no golden directory", ctx.golden.display()));
    }
    let baseline = load_baseline(&ctx.baseline)?;
    let (mut setup, registry) = Setup::first(|_| registry(ctx.size));
    let inputs = Inputs { registry, baseline };
    let workers = ctx.threads.workers;
    let cfg = RunConfig::new(ctx.seed).workers(workers);
    // The ledger reads the executor's own per-job results, so spanned
    // iterations add nothing inside the campaign: their overhead is
    // measured to confirm it is nil.
    let iters = harness::iterate(ctx, &mut setup, |_| {
        fiveg_campaign::run(&inputs.registry, &cfg, &mut |_| {})
    });
    for it in &iters {
        check(ctx, &inputs, &it.out, &mut out.checker);
    }
    setup.record(&mut out.ledger);
    harness::record_loop(&mut out, &iters);
    if ctx.trace {
        record_layers(&mut out, &iters, workers);
    }
    Ok(out)
}

fn record_layers(out: &mut Outcome, iters: &[Iter<RunReport>], workers: usize) {
    let l = &mut out.ledger;
    let job_s = |r: &RunReport, name: &str| {
        r.results
            .iter()
            .filter(|j| j.name == name)
            .map(|j| j.wall.as_secs_f64())
            .sum::<f64>()
    };
    let busy = |i: &Iter<RunReport>| {
        let total: f64 = i.out.results.iter().map(|j| j.wall.as_secs_f64()).sum();
        total / (workers as f64 * i.wall)
    };
    l.set(
        "campaign.critical_path_s",
        harness::median_of(iters, Mode::Spanned, |i| {
            i.out
                .results
                .iter()
                .map(|j| j.wall.as_secs_f64())
                .fold(0.0, f64::max)
        }),
    );
    l.set(
        "campaign.busy_frac",
        harness::median_of(iters, Mode::Spanned, busy),
    );
    l.set(
        "bench.layer_coverage_frac",
        harness::median_of(iters, Mode::Spanned, busy),
    );
    for (job, metric) in TIMED_JOBS {
        l.set(
            metric,
            harness::median_of(iters, Mode::Spanned, |i| job_s(&i.out, job)),
        );
    }
    l.set(
        "campaign.job_s.coverage",
        harness::median_of(iters, Mode::Spanned, |i| {
            i.out
                .results
                .iter()
                .filter(|j| j.section == "sec3-coverage" || j.section == "sec8-discussion")
                .map(|j| j.wall.as_secs_f64())
                .sum::<f64>()
        }),
    );
    let first = &iters[0].out;
    let sum =
        |name: &str| -> f64 { first.results.iter().map(|j| counter(j, name)).sum::<u64>() as f64 };
    for name in [
        "sim.events.executed",
        "sim.events.scheduled",
        "net.packets.forwarded",
        "net.packets.delivered",
        "net.packets.dropped",
        "transport.retransmissions",
        "transport.cwnd_updates",
        "phy.measure.samples",
        "phy.rays.traced",
        "phy.buildings.pruned",
    ] {
        l.set(name, sum(name));
    }
    let events = sum("sim.events.executed");
    l.ratio(
        "net.forwarded_per_delivered",
        sum("net.packets.forwarded"),
        sum("net.packets.delivered"),
    );
    l.ratio(
        "phy.rays_per_sample",
        sum("phy.rays.traced"),
        sum("phy.measure.samples"),
    );
    l.ratio(
        "phy.pruned_per_sample",
        sum("phy.buildings.pruned"),
        sum("phy.measure.samples"),
    );
    l.set(
        "des_events_per_s",
        harness::median_of(iters, Mode::Plain, |i| events / i.wall),
    );
    // Inside the campaign the DES is only visible per job: wall time of
    // the jobs that ran an event loop, per event executed.
    let des_job_s = harness::median_of(iters, Mode::Spanned, |i| {
        i.out
            .results
            .iter()
            .filter(|j| counter(j, "sim.events.executed") > 0)
            .map(|j| j.wall.as_secs_f64())
            .sum::<f64>()
    });
    l.ratio("des.ns_per_event", 1e9 * des_job_s, events);
}

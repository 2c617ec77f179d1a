//! `fleet-city`: a benchmark-owned scenario-DSL fleet on the
//! dense-urban procedural city, run through
//! `scenario_run::run_fleet_sharded` at two shards. Waypoint walkers
//! and parked UEs run bulk, video and web apps through one
//! `cell_outage` fault, so the shard kernel, RAN hand-off, the apps and
//! the incremental re-measure cache all do work.
//!
//! Every run also replays the fleet on one shard: the two reports must
//! serialise to identical bytes with identical counters. Traced runs
//! time that serial leg (`shard.serial_wall_s`) and a leg under a
//! full-recording `fiveg-trace` scope (`trace.*`).

use crate::check::Counters;
use crate::harness::{self, Ctx, Iter, Mode, Outcome, Setup, Size};
use fiveg_core::scenario_run::{run_fleet_sharded, FleetReport};
use fiveg_core::Scenario;
use fiveg_obs::MetricsHandle;
use fiveg_scenario::spec::{FleetSpec, ScenarioSpec, WorkloadSpec};
use fiveg_simcore::SimRng;
use fiveg_trace::{TraceConfig, TraceHandle, TraceMode};

/// The fleet, with `@TILES@`, `@SECONDS@` and `@N@` (UEs per group)
/// filled in per size.
const SCENARIO: &str = r#"{
  "name": "perfbench_fleet_city",
  "city": { "preset": "dense_urban", "tiles_x": @TILES@, "tiles_y": @TILES@ },
  "workload": { "kind": "fleet", "duration_s": @SECONDS@, "tick_ms": 1000, "groups": [
    { "name": "walkers", "count": @N@, "tech": "nr",
      "mobility": { "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 12 },
      "arrival": { "process": "steady" }, "app": { "kind": "bulk" } },
    { "name": "parked", "count": @N@, "tech": "lte",
      "mobility": { "model": "static" },
      "arrival": { "process": "steady" },
      "app": { "kind": "video", "resolution": "1080p", "scene": "static" } },
    { "name": "readers", "count": @N@, "tech": "nr",
      "mobility": { "model": "static" },
      "arrival": { "process": "diurnal", "peak_frac": 0.5 },
      "app": { "kind": "web", "category": "search", "think_s": 2 } } ] },
  "faults": [
    { "kind": "cell_outage", "start_s": 20, "end_s": 40, "pcis": [60, 61, 62, 63] } ]
}"#;

/// (tiles per side, simulated seconds, UEs per group) per size.
fn dims(size: Size) -> (u32, u32, u32) {
    match size {
        Size::Full => (3, 120, 1000),
        Size::Tiny => (1, 30, 8),
    }
}

struct Inputs {
    spec: ScenarioSpec,
    fleet: FleetSpec,
    scenario: Scenario,
}

/// Parses the fleet and builds its city the way
/// `scenario_run::build_scenario` does, timing the two builds apart.
///
/// # Panics
/// When the benchmark's own scenario text is invalid.
fn build(seed: u64, size: Size, spans: &mut harness::Spans) -> Inputs {
    let (tiles, seconds, n) = dims(size);
    let src = SCENARIO
        .replace("@TILES@", &tiles.to_string())
        .replace("@SECONDS@", &seconds.to_string())
        .replace("@N@", &n.to_string());
    let spec = fiveg_scenario::parse_scenario(&src, "perfbench-fleet-city")
        .unwrap_or_else(|e| panic!("benchmark scenario does not parse: {e:?}"));
    let WorkloadSpec::Fleet(fleet) = spec.workload.clone() else {
        panic!("benchmark scenario is not a fleet");
    };
    let city = spec
        .city
        .as_ref()
        .and_then(fiveg_scenario::spec::CityDslSpec::to_city_spec)
        .unwrap_or_else(|| panic!("benchmark scenario has no valid city block"));
    let campus = spans.time("geo.city_gen_s", || {
        fiveg_geo::generate_city(&city, &SimRng::new(seed))
    });
    let (lte_load, nr_load) = spec.loads.resolve();
    let env = spans.time("phy.env_build_s", || {
        fiveg_phy::RadioEnv::from_campus(&campus, seed ^ 0x5eed, lte_load, nr_load)
    });
    Inputs {
        spec,
        fleet,
        scenario: Scenario { campus, env, seed },
    }
}

/// One fleet run: its counters (with a digest of the report bytes), the
/// report bytes themselves, and its wall time.
struct FleetRun {
    counters: Counters,
    json: String,
    wall: f64,
}

impl FleetRun {
    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

fn run_fleet(inputs: &Inputs, seed: u64, shards: usize, trace: Option<&TraceHandle>) -> FleetRun {
    let m = MetricsHandle::new();
    let go = || run_fleet_sharded(&inputs.scenario, &inputs.spec, &inputs.fleet, seed, shards);
    let (report, wall): (FleetReport, f64) = fiveg_obs::scoped(&m, || {
        harness::timed(|| match trace {
            Some(t) => fiveg_trace::scoped(t, go),
            None => go(),
        })
    });
    let json = serde_json::to_string(&report).unwrap_or_default();
    let mut counters = m.snapshot().deterministic();
    counters.insert(
        "report.digest".to_string(),
        fiveg_trace::fnv1a64(json.as_bytes()),
    );
    counters.insert(
        "report.fault_impact".to_string(),
        report.faults.iter().map(|f| f.impact).sum(),
    );
    FleetRun {
        counters,
        json,
        wall,
    }
}

/// A traced run's extra legs of one iteration.
struct Legs {
    serial_wall: f64,
    traced_wall: f64,
    finish_s: f64,
    trace_counters: Counters,
    /// Whether the traced leg's report matched the plain run's bytes.
    traced_same: bool,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut ops = ctx.op_checker()?;
    let (mut setup, inputs) = Setup::first(|spans| build(ctx.seed, ctx.size, spans));
    let run_seed = ctx.seed ^ 0xf1ee7;
    let shards = ctx.threads.shards;

    // Shard invariance, outside the timed loop: one shard must give the
    // same report bytes and counters as `shards`.
    let serial = run_fleet(&inputs, run_seed, 1, None);
    let sharded = run_fleet(&inputs, run_seed, shards, None);
    out.checker.op(
        serial.json == sharded.json && serial.counters == sharded.counters,
        || format!("1-shard and {shards}-shard fleet reports differ"),
    );

    let iters = harness::iterate(ctx, &mut setup, |mode| {
        let run = run_fleet(&inputs, run_seed, shards, None);
        let legs = (mode == Mode::Spanned).then(|| {
            let serial_wall = run_fleet(&inputs, run_seed, 1, None).wall;
            let t = TraceHandle::new(TraceConfig {
                mode: TraceMode::Full,
                ..TraceConfig::default()
            });
            let m = MetricsHandle::new();
            let traced = run_fleet(&inputs, run_seed, shards, Some(&t));
            let (_, finish_s) = fiveg_obs::scoped(&m, || harness::timed(|| t.finish()));
            Legs {
                serial_wall,
                traced_wall: traced.wall,
                finish_s,
                trace_counters: m.snapshot().deterministic(),
                traced_same: traced.json == run.json,
            }
        });
        (run, legs)
    });
    for it in &iters {
        ops.op(&mut out.checker, "fleet", it.out.0.counters.clone());
        if let Some(legs) = &it.out.1 {
            out.checker.op(legs.traced_same, || {
                "recording a trace changed the fleet report".to_string()
            });
        }
    }
    ops.missing(&mut out.checker);
    out.ops = ops.first().clone();
    setup.record(&mut out.ledger);
    harness::record_loop(&mut out, &iters);
    if ctx.trace {
        record_layers(&mut out, &iters);
    }
    Ok(out)
}

fn record_layers(out: &mut Outcome, iters: &[Iter<(FleetRun, Option<Legs>)>]) {
    let l = &mut out.ledger;
    let first = &iters[0].out.0;
    for name in [
        "scenario.kpi.samples",
        "scenario.ticks",
        "scenario.handoffs",
        "city.remeasure.skipped",
        "phy.measure.samples",
        "phy.rays.traced",
        "phy.buildings.pruned",
        "shard.events",
        "shard.msgs",
    ] {
        l.set(name, first.counter(name));
    }
    let samples = first.counter("scenario.kpi.samples");
    l.ratio(
        "city.remeasure.hit_frac",
        first.counter("city.remeasure.skipped"),
        samples,
    );
    l.ratio(
        "phy.rays_per_sample",
        first.counter("phy.rays.traced"),
        first.counter("phy.measure.samples"),
    );
    l.ratio(
        "phy.pruned_per_sample",
        first.counter("phy.buildings.pruned"),
        first.counter("phy.measure.samples"),
    );
    l.ratio(
        "shard.msgs_per_event",
        first.counter("shard.msgs"),
        first.counter("shard.events"),
    );
    let plain = harness::median_of(iters, Mode::Plain, |i| i.wall);
    l.set("fleet_kpi_samples_per_s", samples / plain);
    let leg = |f: fn(&Legs) -> f64| {
        harness::median_of(iters, Mode::Spanned, |i| i.out.1.as_ref().map_or(0.0, f))
    };
    // A spanned iteration also runs the extra legs: its own span cost
    // is its sharded leg against the plain iterations.
    let sharded = harness::median_of(iters, Mode::Spanned, |i| i.out.0.wall);
    l.set("bench.span_overhead_frac", sharded / plain - 1.0);
    let serial = leg(|g| g.serial_wall);
    l.set("shard.serial_wall_s", serial);
    l.ratio("shard.speedup", serial, sharded);
    if let Some(Some(legs)) = iters.iter().map(|i| i.out.1.as_ref()).find(Option::is_some) {
        let c = |name: &str| legs.trace_counters.get(name).copied().unwrap_or(0) as f64;
        l.set("trace.events", c("trace.events"));
        l.set("trace.bytes", c("trace.bytes"));
    }
    l.set("trace.finish_s", leg(|g| g.finish_s));
    l.set(
        "trace.overhead_frac",
        leg(|g| g.traced_wall) / sharded - 1.0,
    );
    // `bench.layer_coverage_frac` stays unset (0): a fleet run is one
    // call into the program, so the benchmark names no layer inside it.
}

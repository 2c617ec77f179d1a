//! `city-coverage`: an outdoor coverage sweep of the 3×3-tile
//! dense-urban procedural city through `RadioEnv::measure_all_into`,
//! LTE and NR at every grid point. Phy and geo do all of the work;
//! there is no DES. Set-up is the city build (`generate_city`) and the
//! radio environment build (`RadioEnv::from_campus`).
//!
//! The grid is cut into fixed chunks, swept by the worker threads in
//! turn; each chunk is one checked operation whose counters are the phy
//! work counters of its sweep plus a digest of every measurement it
//! returned.

use crate::check::Counters;
use crate::harness::{self, Ctx, Iter, Mode, Outcome, Setup, Size};
use fiveg_geo::{generate_city, CitySpec, Point};
use fiveg_obs::MetricsHandle;
use fiveg_phy::{MeasureScratch, RadioEnv, Tech};
use fiveg_simcore::SimRng;

/// Grid points per checked operation.
const CHUNK_POINTS: usize = 2048;

/// (tiles per side, grid step in metres) per size. Full size is the
/// city and grid of the `city.sweep.100k` micro: ~131.5k samples.
fn dims(size: Size) -> (usize, f64) {
    match size {
        Size::Full => (3, 4.0),
        Size::Tiny => (1, 20.0),
    }
}

struct Inputs {
    env: RadioEnv,
    grid: Vec<Point>,
}

fn build(seed: u64, size: Size, spans: &mut harness::Spans) -> Inputs {
    let (tiles, step) = dims(size);
    let mut spec = CitySpec::dense_urban();
    spec.tiles_x = tiles;
    spec.tiles_y = tiles;
    let campus = spans.time("geo.city_gen_s", || {
        generate_city(&spec, &SimRng::new(seed))
    });
    let env = spans.time("phy.env_build_s", || {
        RadioEnv::from_campus(&campus, seed ^ 0x5eed, 0.5, 0.05)
    });
    let grid = campus.map.grid_samples(step, true);
    Inputs { env, grid }
}

/// One chunk's sweep.
struct ChunkRun {
    counters: Counters,
    /// Time inside `measure_all_into` (spanned runs only), seconds.
    phy_s: f64,
}

fn sweep(env: &RadioEnv, points: &[Point], mode: Mode, floor_ns: f64) -> ChunkRun {
    let m = MetricsHandle::new();
    let mut bytes = Vec::with_capacity(points.len() * 2 * 26);
    let mut phy_ns = 0.0;
    fiveg_obs::scoped(&m, || {
        let mut scratch = MeasureScratch::new();
        for &p in points {
            let t = (mode == Mode::Spanned).then(harness::now);
            for tech in [Tech::Lte, Tech::Nr] {
                let cells = env.measure_all_into(p, tech, &mut scratch);
                bytes.extend_from_slice(&(cells.len() as u16).to_le_bytes());
                if let Some(best) = cells.first() {
                    bytes.extend_from_slice(&best.pci.to_le_bytes());
                    bytes.extend_from_slice(&best.rsrp.value().to_bits().to_le_bytes());
                    bytes.extend_from_slice(&best.sinr.value().to_bits().to_le_bytes());
                    bytes.extend_from_slice(&best.rsrq.value().to_bits().to_le_bytes());
                }
            }
            if let Some(t) = t {
                phy_ns += (t.elapsed().as_nanos() as f64 - floor_ns).max(0.0);
            }
        }
        // `scratch` drops here, inside the scope: its counters land in `m`.
    });
    let mut counters = m.snapshot().deterministic();
    counters.insert("out.digest".to_string(), fiveg_trace::fnv1a64(&bytes));
    ChunkRun {
        counters,
        phy_s: phy_ns * 1e-9,
    }
}

fn total(runs: &[ChunkRun], f: impl Fn(&ChunkRun) -> f64) -> f64 {
    runs.iter().map(f).sum()
}

fn counter(r: &ChunkRun, name: &str) -> f64 {
    r.counters.get(name).copied().unwrap_or(0) as f64
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut ops = ctx.op_checker()?;
    let (mut setup, inputs) = Setup::first(|spans| build(ctx.seed, ctx.size, spans));
    let floor_ns = harness::clock_floor_ns();
    let chunks: Vec<&[Point]> = inputs.grid.chunks(CHUNK_POINTS).collect();
    let iters = harness::iterate(ctx, &mut setup, |mode| {
        harness::par_map(
            &chunks,
            ctx.threads.workers,
            |points| sweep(&inputs.env, points, mode, floor_ns),
            |_, run| run,
        )
    });
    for it in &iters {
        for (i, run) in it.out.iter().enumerate() {
            ops.op(
                &mut out.checker,
                &format!("chunk.{i:03}"),
                run.counters.clone(),
            );
        }
    }
    ops.missing(&mut out.checker);
    out.ops = ops.first().clone();
    setup.record(&mut out.ledger);
    harness::record_loop(&mut out, &iters);
    if ctx.trace {
        record_layers(&mut out, &iters, ctx.threads.workers);
    }
    Ok(out)
}

/// Coverage is phy time over `workers` × wall: the thread time the sweep
/// had.
fn record_layers(out: &mut Outcome, iters: &[Iter<Vec<ChunkRun>>], workers: usize) {
    let l = &mut out.ledger;
    let first = &iters[0].out;
    let samples = total(first, |r| counter(r, "phy.measure.samples"));
    let rays = total(first, |r| counter(r, "phy.rays.traced"));
    let pruned = total(first, |r| counter(r, "phy.buildings.pruned"));
    l.set("phy.measure.samples", samples);
    l.set("phy.rays.traced", rays);
    l.set("phy.buildings.pruned", pruned);
    l.ratio("phy.rays_per_sample", rays, samples);
    l.ratio("phy.pruned_per_sample", pruned, samples);
    l.set(
        "phy_samples_per_s",
        harness::median_of(iters, Mode::Plain, |i| samples / i.wall),
    );
    let phy_s = harness::median_of(iters, Mode::Spanned, |i| total(&i.out, |r| r.phy_s));
    let wall = harness::median_of(iters, Mode::Spanned, |i| i.wall);
    l.ratio("phy.ns_per_sample", 1e9 * phy_s, samples);
    l.ratio("bench.layer_coverage_frac", phy_s, workers as f64 * wall);
}

//! `des-flows`: packet-DES flows built from public `fiveg-net` /
//! `fiveg-transport` APIs, each run single-threaded to completion (the
//! worker threads take flows in turn), in the two shapes the paper's DES
//! experiments take:
//!
//! - **bulk**: one TCP flow per [`CcAlgorithm::ALL`] entry on the 4G
//!   and 5G daytime paper paths with `paper_cross_traffic()`, as long as
//!   Fig. 7's (the `tcp_goodput` recipe behind Figs. 7–9).
//!   Cross-traffic heavy: many `CrossEmit` / `CrossToggle` events.
//! - **hand-off**: BBR over a radio hop whose rate drops to zero at the
//!   hand-off and resumes at the target cell's rate, no cross traffic
//!   (the Fig. 12 recipe: a hand-off at 5 s in an 8 s flow). Forwarding
//!   heavy: about four packets forwarded per packet delivered.
//!
//! Traced runs wrap each sender in [`Timed`], which counts and times
//! the transport callbacks, so `run_until` time splits into transport
//! time and DES (event queue + net hops) self time.

use crate::check::Counters;
use crate::harness::{self, Ctx, Iter, Mode, Outcome, Setup, Size};
use fiveg_net::crosstraffic::CrossTraffic;
use fiveg_net::path::{Direction, PaperPathParams};
use fiveg_net::{AckInfo, Endpoint, FlowId, NetSim, PathConfig, RateModel, TimerKind};
use fiveg_obs::MetricsHandle;
use fiveg_ran::{HandoffKind, HandoffProcedure};
use fiveg_simcore::{BitRate, SimRng, SimTime};
use fiveg_transport::{CcAlgorithm, TcpSender};
use std::cell::Cell;
use std::rc::Rc;

/// Flow shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Bulk,
    Handoff,
}

/// One flow's inputs.
struct Flow {
    name: String,
    shape: Shape,
    path: PathConfig,
    cross: Option<CrossTraffic>,
    alg: CcAlgorithm,
    sim_seed: u64,
    until: SimTime,
}

impl Flow {
    /// The flow's TCP sender.
    fn sender(&self) -> TcpSender {
        TcpSender::new(self.alg, None).0
    }

    /// The flow's simulator: its path, its cross traffic and `endpoint`
    /// as the one flow.
    fn sim(&self, endpoint: Box<dyn Endpoint>) -> (NetSim, FlowId) {
        let mut sim = NetSim::new(self.path.clone(), self.sim_seed);
        if let Some(cross) = &self.cross {
            sim.add_cross_traffic(cross.clone());
        }
        let id = sim.add_flow(endpoint, true, false);
        (sim, id)
    }
}

/// Simulated lengths per size: (bulk flow, hand-off instant, hand-off
/// flow end), seconds. At full size both shapes run as long as the
/// figure they follow: a bulk flow as long as Fig. 7's and Fig. 8's
/// (`Fidelity::Quick`), a hand-off at 5 s in an 8 s flow as in Fig. 12.
/// Their start-up overshoot and its recovery then weigh in them as they
/// do in the figures; the README compares the packet and event ratios.
fn lengths(size: Size) -> (f64, f64, f64) {
    match size {
        Size::Full => (fiveg_core::Fidelity::Quick.flow_secs() as f64, 5.0, 8.0),
        Size::Tiny => (0.1, 0.3, 0.4),
    }
}

/// Every flow, longest-running first (as measured at seed 2020), so
/// that the two worker threads, taking flows in turn, finish together.
const LONGEST_FIRST: [&str; 13] = [
    "bulk.5G.BBR",
    "handoff.5G-5G",
    "handoff.5G-4G",
    "bulk.5G.Cubic",
    "bulk.5G.Reno",
    "bulk.5G.Veno",
    "handoff.4G-4G",
    "bulk.4G.BBR",
    "bulk.4G.Cubic",
    "bulk.4G.Reno",
    "bulk.4G.Veno",
    "bulk.5G.Vegas",
    "bulk.4G.Vegas",
];

/// Builds every flow of the workload from `seed`, in [`LONGEST_FIRST`]
/// order.
fn flows(seed: u64, size: Size) -> Vec<Flow> {
    let (bulk_s, ho_s, ho_end_s) = lengths(size);
    let mut out = Vec::new();
    let ho_at = SimTime::from_secs_f64(ho_s);
    for (kind, params, post_mbps, procedure) in [
        (
            HandoffKind::LteToLte,
            PaperPathParams::lte_day(),
            130.0,
            HandoffProcedure::lte_to_lte(),
        ),
        (
            HandoffKind::NrToNr,
            PaperPathParams::nr_day(),
            880.0,
            HandoffProcedure::nr_to_nr(),
        ),
        (
            HandoffKind::NrToLte,
            PaperPathParams::nr_day(),
            130.0,
            HandoffProcedure::nr_to_lte(),
        ),
    ] {
        let name = format!("handoff.{}", kind.label());
        let latency = procedure.sample_latency(&mut SimRng::new(seed).substream(&name));
        let mut path = PathConfig::paper(&params, Direction::Downlink);
        let radio = path.radio_hop_index();
        let pre = path.hops[radio].rate.rate_at(SimTime::ZERO);
        path.hops[radio].rate = RateModel::piecewise(vec![
            (SimTime::ZERO, pre),
            (ho_at, BitRate::ZERO),
            (ho_at + latency, BitRate::from_mbps(post_mbps)),
        ]);
        out.push(Flow {
            sim_seed: fiveg_campaign::derive_seed(seed, &name, 0),
            name,
            shape: Shape::Handoff,
            path,
            cross: None,
            alg: CcAlgorithm::Bbr,
            until: SimTime::from_secs_f64(ho_end_s),
        });
    }
    for (tech, params) in [
        ("5G", PaperPathParams::nr_day()),
        ("4G", PaperPathParams::lte_day()),
    ] {
        for alg in CcAlgorithm::ALL {
            let name = format!("bulk.{tech}.{}", alg.name());
            let path = PathConfig::paper(&params, Direction::Downlink);
            let cross = path.paper_cross_traffic();
            out.push(Flow {
                sim_seed: fiveg_campaign::derive_seed(seed, &name, 0),
                name,
                shape: Shape::Bulk,
                path,
                cross: Some(cross),
                alg,
                until: SimTime::from_secs_f64(bulk_s),
            });
        }
    }
    out.sort_by_key(|f| LONGEST_FIRST.iter().position(|n| *n == f.name));
    out
}

/// One callback in this many is timed; all are counted. Reading the
/// clock on every callback cost over 20% of `run_until` time.
const SAMPLE_EVERY: u64 = 64;

/// Transport callback tally shared with a [`Timed`] endpoint.
#[derive(Debug, Default)]
struct Probe {
    calls: Cell<u64>,
    timed: Cell<u64>,
    nanos: Cell<f64>,
}

impl Probe {
    /// Estimated time in all callbacks, seconds.
    fn callback_s(&self) -> f64 {
        match self.timed.get() {
            0 => 0.0,
            n => self.nanos.get() * 1e-9 * self.calls.get() as f64 / n as f64,
        }
    }
}

/// A sender wrapper that counts every transport callback and times a
/// sample of them.
struct Timed {
    inner: TcpSender,
    probe: Rc<Probe>,
    floor_ns: f64,
}

impl Timed {
    fn span(&mut self, f: impl FnOnce(&mut TcpSender)) {
        let p = &self.probe;
        p.calls.set(p.calls.get() + 1);
        if !p.calls.get().is_multiple_of(SAMPLE_EVERY) {
            f(&mut self.inner);
            return;
        }
        let t = harness::now();
        f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as f64 - self.floor_ns;
        p.timed.set(p.timed.get() + 1);
        p.nanos.set(p.nanos.get() + ns.max(0.0));
    }
}

impl Endpoint for Timed {
    fn on_start(&mut self, ctx: &mut fiveg_net::Ctx) {
        self.span(|s| s.on_start(ctx));
    }
    fn on_ack(&mut self, ack: AckInfo, ctx: &mut fiveg_net::Ctx) {
        self.span(|s| s.on_ack(ack, ctx));
    }
    fn on_timer(&mut self, kind: TimerKind, id: u64, ctx: &mut fiveg_net::Ctx) {
        self.span(|s| s.on_timer(kind, id, ctx));
    }
}

/// One flow's run.
struct FlowRun {
    shape: Shape,
    counters: Counters,
    /// `run_until` wall time, seconds.
    run_s: f64,
    /// Callback count and time (spanned runs only).
    calls: u64,
    callback_s: f64,
}

impl FlowRun {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A finished flow whose simulation is still alive, with the metrics
/// handle its counters flush into when it drops.
struct Finished {
    metrics: MetricsHandle,
    sim: NetSim,
    bytes: u64,
    run_s: f64,
    probe: Rc<Probe>,
}

impl Finished {
    /// Drops the simulation, flushing its counters into its handle, and
    /// reads the flow's results.
    fn finish(self, shape: Shape) -> FlowRun {
        fiveg_obs::scoped(&self.metrics, || drop(self.sim));
        let mut counters = self.metrics.snapshot().deterministic();
        counters.insert("flow.bytes_in_order".to_string(), self.bytes);
        FlowRun {
            shape,
            counters,
            run_s: self.run_s,
            calls: self.probe.calls.get(),
            callback_s: self.probe.callback_s(),
        }
    }
}

fn run_flow(flow: &Flow, mode: Mode, floor_ns: f64) -> Finished {
    let metrics = MetricsHandle::new();
    let probe = Rc::new(Probe::default());
    let (sim, bytes, run_s) = fiveg_obs::scoped(&metrics, || {
        let sender = flow.sender();
        let endpoint: Box<dyn Endpoint> = match mode {
            Mode::Plain => Box::new(sender),
            Mode::Spanned => Box::new(Timed {
                inner: sender,
                probe: Rc::clone(&probe),
                floor_ns,
            }),
        };
        let (mut sim, id) = flow.sim(endpoint);
        let ((), run_s) = harness::timed(|| sim.run_until(flow.until));
        let bytes = sim.flow_stats(id).bytes_in_order;
        (sim, bytes, run_s)
    });
    Finished {
        metrics,
        sim,
        bytes,
        run_s,
        probe,
    }
}

/// Runs every flow on `workers` threads. Every simulation stays alive
/// until all flows have run, as a sweep that compares its flows holds
/// all of them. Peak memory is then the sum of the flows' state rather
/// than the largest single flow, which flips between buffer sizes from
/// seed to seed, or whichever flows one thread happened to hold.
fn sweep(flows: &[Flow], workers: usize, mode: Mode, floor_ns: f64) -> Vec<FlowRun> {
    harness::par_map(
        flows,
        workers,
        |flow| run_flow(flow, mode, floor_ns),
        |flow, finished| finished.finish(flow.shape),
    )
}

/// Sum of `f` over the runs of one iteration.
fn total(runs: &[FlowRun], f: impl Fn(&FlowRun) -> f64) -> f64 {
    runs.iter().map(f).sum()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut ops = ctx.op_checker()?;
    // Set-up is the program's construction work: each flow's path,
    // cross-traffic sources and sender, and its simulator built from
    // them. Iterations build the simulators afresh.
    let (mut setup, flows) = Setup::first(|_| {
        let flows = flows(ctx.seed, ctx.size);
        for flow in &flows {
            std::hint::black_box(flow.sim(Box::new(flow.sender())));
        }
        flows
    });
    let floor_ns = harness::clock_floor_ns();
    let iters = harness::iterate(ctx, &mut setup, |mode| {
        sweep(&flows, ctx.threads.workers, mode, floor_ns)
    });
    for it in &iters {
        for (flow, run) in flows.iter().zip(&it.out) {
            ops.op(&mut out.checker, &flow.name, run.counters.clone());
            let c = &run.counters;
            let sane = c.get("sim.events.executed") <= c.get("sim.events.scheduled")
                && run.counter("flow.bytes_in_order") > 0;
            out.checker.op(sane, || {
                format!("{}: no bytes delivered or events lost", flow.name)
            });
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

/// Per-layer metrics of a traced run.
/// Shares of wall are shares of `workers` × wall: the thread time the
/// sweep had.
fn record_layers(out: &mut Outcome, iters: &[Iter<Vec<FlowRun>>], workers: usize) {
    let l = &mut out.ledger;
    let first = &iters[0].out;
    for name in [
        "sim.events.executed",
        "sim.events.scheduled",
        "net.packets.forwarded",
        "net.packets.delivered",
        "net.packets.dropped",
        "transport.retransmissions",
        "transport.cwnd_updates",
    ] {
        l.set(name, total(first, |r| r.counter(name) as f64));
    }
    let ho = |name: &str| {
        total(first, |r| {
            if r.shape == Shape::Handoff {
                r.counter(name) as f64
            } else {
                0.0
            }
        })
    };
    l.ratio(
        "net.forwarded_per_delivered",
        ho("net.packets.forwarded"),
        ho("net.packets.delivered"),
    );
    let events = |r: &FlowRun| r.counter("sim.events.executed") as f64;
    l.set(
        "des_events_per_s",
        harness::median_of(iters, Mode::Plain, |i| total(&i.out, events) / i.wall),
    );
    for (name, shape) in [
        ("des.bulk.ns_per_event", Shape::Bulk),
        ("des.handoff.ns_per_event", Shape::Handoff),
    ] {
        let per_event = |i: &Iter<Vec<FlowRun>>| {
            let of_shape = |f: &dyn Fn(&FlowRun) -> f64| {
                total(&i.out, |r| if r.shape == shape { f(r) } else { 0.0 })
            };
            let n = of_shape(&events);
            if n > 0.0 {
                1e9 * of_shape(&|r| r.run_s) / n
            } else {
                0.0
            }
        };
        l.set(name, harness::median_of(iters, Mode::Plain, per_event));
    }
    let spanned = |value: fn(&FlowRun) -> f64| {
        harness::median_of(iters, Mode::Spanned, |i| total(&i.out, value))
    };
    let wall = harness::median_of(iters, Mode::Spanned, |i| i.wall);
    let callback_s = spanned(|r| r.callback_s);
    let run_s = spanned(|r| r.run_s);
    let calls = spanned(|r| r.calls as f64);
    let des_self = spanned(|r| r.run_s - r.callback_s);
    l.set("transport.callbacks", calls);
    l.set("transport.self_s", callback_s);
    l.ratio("transport.ns_per_callback", 1e9 * callback_s, calls);
    let thread_s = workers as f64 * wall;
    l.ratio("transport.share", callback_s, thread_s);
    l.set("des.self_s", des_self);
    l.ratio("des.ns_per_event", 1e9 * des_self, total(first, events));
    l.ratio("bench.layer_coverage_frac", run_s, thread_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_come_in_longest_first_order() {
        let built: Vec<String> = flows(1, Size::Tiny).into_iter().map(|f| f.name).collect();
        assert_eq!(built, LONGEST_FIRST.map(str::to_string));
    }
}

//! Quickstart: build the paper's campus, take a KPI sample like the
//! XCAL rig, run a short 5G TCP flow, and print what you saw.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example aborts on a broken invariant; panicking keeps the walkthrough short"
)]

use fiveg_core::net::path::{Direction, PaperPathParams, PathConfig};
use fiveg_core::net::NetSim;
use fiveg_core::phy::Tech;
use fiveg_core::simcore::SimTime;
use fiveg_core::transport::{CcAlgorithm, TcpSender};
use fiveg_core::Scenario;
use fiveg_geo::Point;

fn main() {
    // 1. The measurement scenario: a 0.5 × 0.92 km campus with 13 LTE
    //    eNBs and 6 NSA gNBs, as in the paper.
    let sc = Scenario::paper(2020);
    println!(
        "campus: {:.2} km², {} LTE cells, {} NR cells",
        sc.campus.map.area_km2(),
        sc.env.num_cells(Tech::Lte),
        sc.env.num_cells(Tech::Nr)
    );

    // 2. Stand in the middle of campus and measure both networks.
    let here = Point::new(250.0, 460.0);
    for tech in [Tech::Lte, Tech::Nr] {
        let kpi = sc.env.kpi_sample(here, tech, 1.0).expect("deployed");
        println!(
            "{}: PCI {} RSRP {} RSRQ {} SINR {} → MCS {} / {}",
            tech.name(),
            kpi.serving.pci,
            kpi.serving.rsrp,
            kpi.serving.rsrq,
            kpi.serving.sinr,
            kpi.mcs,
            kpi.bitrate
        );
    }

    // 3. Run 10 seconds of Cubic against the 5G paper path — the famous
    //    under-utilisation shows immediately.
    let path = PathConfig::paper(&PaperPathParams::nr_day(), Direction::Downlink);
    let cross = path.paper_cross_traffic();
    let mut sim = NetSim::new(path, 1);
    sim.add_cross_traffic(cross);
    let (sender, report) = TcpSender::new(CcAlgorithm::Cubic, None);
    let flow = sim.add_flow(Box::new(sender), true, false);
    sim.run_until(SimTime::from_secs(10));
    let goodput = sim
        .flow_stats(flow)
        .mean_goodput_until(SimTime::from_secs(10));
    let rep = report.lock();
    println!(
        "Cubic on 5G: {} ({:.1}% of the 880 Mbps baseline), {} retransmissions — the paper's TCP anomaly",
        goodput,
        goodput.mbps() / 880.0 * 100.0,
        rep.retransmissions
    );
}

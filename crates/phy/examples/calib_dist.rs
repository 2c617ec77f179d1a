//! Scratch: distance-to-nearest-gNB and hole anatomy.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a calibration scratch tool panics on a missing cell rather than carrying Results"
)]

use fiveg_geo::mobility::RoadSurvey;
use fiveg_geo::{Campus, CampusConfig};
use fiveg_phy::{RadioEnv, Tech};
use fiveg_simcore::SimRng;

fn main() {
    let campus = Campus::generate(&CampusConfig::default(), &mut SimRng::new(2020));
    let env = RadioEnv::from_campus(&campus, 77, 0.5, 0.05);
    let trace = RoadSurvey::paper_default().generate(&campus.map);
    let mut dists: Vec<f64> = Vec::new();
    let mut hole_d = Vec::new();
    for p in trace.iter() {
        let d = campus
            .plan
            .gnb_sites
            .iter()
            .map(|s| s.pos.distance(p.pos))
            .fold(f64::INFINITY, f64::min);
        dists.push(d);
        let m = env.serving(p.pos, Tech::Nr).unwrap();
        if m.rsrp.value() < -105.0 {
            hole_d.push((d, m.distance_m));
        }
    }
    dists.sort_by(f64::total_cmp);
    println!(
        "nearest-gNB dist: p50={:.0} p80={:.0} p95={:.0} max={:.0}",
        dists[dists.len() / 2],
        dists[dists.len() * 8 / 10],
        dists[dists.len() * 95 / 100],
        dists.last().unwrap()
    );
    println!("holes: {} of {}", hole_d.len(), dists.len());
    let close_holes = hole_d.iter().filter(|(d, _)| *d < 150.0).count();
    println!("holes with nearest gNB <150m: {close_holes}");
    let serv_far = hole_d.iter().filter(|(_, s)| *s > 200.0).count();
    println!("holes where serving cell >200m: {serv_far}");
    for s in &campus.plan.gnb_sites {
        println!(
            "gnb at ({:.0},{:.0}) az {:?}",
            s.pos.x,
            s.pos.y,
            s.sector_azimuths
                .iter()
                .map(|a| *a as i32)
                .collect::<Vec<_>>()
        );
    }
}

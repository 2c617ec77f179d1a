//! The metric catalogue and the per-run ledger of measured values.
//!
//! [`METRICS`] is the single list of every metric the benchmark can
//! print, with its unit. It mirrors `BENCHMARK.json`: end-to-end
//! metrics are printed by untraced runs, per-layer metrics by traced
//! runs (`--trace 1`). A per-layer metric of a layer a workload never
//! calls reads 0 on that workload.

use std::collections::BTreeMap;

/// Whether a metric is a user-visible end-to-end number or a layer's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Printed by untraced runs; never 0.
    EndToEnd,
    /// Printed by traced runs; 0 where the workload skips the layer.
    PerLayer,
}

/// One catalogue entry.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which runs print it.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        kind: Kind::PerLayer,
    }
}

/// The campaign jobs whose wall time is a per-layer metric of its own,
/// with that metric.
pub const TIMED_JOBS: [(&str, &str); 10] = [
    ("fig12", "campaign.job_s.fig12"),
    ("fig7", "campaign.job_s.fig7"),
    ("fig8", "campaign.job_s.fig8"),
    ("fig9", "campaign.job_s.fig9"),
    ("fig11", "campaign.job_s.fig11"),
    ("table3", "campaign.job_s.table3"),
    ("fig16", "campaign.job_s.fig16"),
    ("fig17", "campaign.job_s.fig17"),
    ("fig18_19_20", "campaign.job_s.fig18_19_20"),
    ("fig5_fig6", "campaign.job_s.fig5_fig6"),
];

/// Every metric, in print order.
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s"),
    e2e("cpu_s", "s"),
    e2e("peak_rss_mb", "MB"),
    layer("wall_s", "s"),
    // campaign executor
    layer("campaign.critical_path_s", "s"),
    layer("campaign.busy_frac", "frac"),
    layer("campaign.job_s.fig12", "s"),
    layer("campaign.job_s.fig7", "s"),
    layer("campaign.job_s.fig8", "s"),
    layer("campaign.job_s.fig9", "s"),
    layer("campaign.job_s.fig11", "s"),
    layer("campaign.job_s.table3", "s"),
    layer("campaign.job_s.fig16", "s"),
    layer("campaign.job_s.fig17", "s"),
    layer("campaign.job_s.fig18_19_20", "s"),
    layer("campaign.job_s.fig5_fig6", "s"),
    layer("campaign.job_s.coverage", "s"),
    // simcore EventQueue + net::sim
    layer("des_events_per_s", "1/s"),
    layer("sim.events.executed", "count"),
    layer("sim.events.scheduled", "count"),
    layer("des.self_s", "s"),
    layer("des.ns_per_event", "ns/event"),
    layer("des.bulk.ns_per_event", "ns/event"),
    layer("des.handoff.ns_per_event", "ns/event"),
    // net hops
    layer("net.packets.forwarded", "count"),
    layer("net.packets.delivered", "count"),
    layer("net.packets.dropped", "count"),
    layer("net.forwarded_per_delivered", "ratio"),
    // transport congestion control
    layer("transport.callbacks", "count"),
    layer("transport.self_s", "s"),
    layer("transport.ns_per_callback", "ns/callback"),
    layer("transport.share", "frac"),
    layer("transport.retransmissions", "count"),
    layer("transport.cwnd_updates", "count"),
    // phy
    layer("phy_samples_per_s", "1/s"),
    layer("phy.measure.samples", "count"),
    layer("phy.rays.traced", "count"),
    layer("phy.buildings.pruned", "count"),
    layer("phy.ns_per_sample", "ns/sample"),
    layer("phy.rays_per_sample", "ratio"),
    layer("phy.pruned_per_sample", "ratio"),
    // geo + phy set-up
    layer("geo.city_gen_s", "s"),
    layer("phy.env_build_s", "s"),
    // scenario_run / ran / apps
    layer("fleet_kpi_samples_per_s", "1/s"),
    layer("scenario.kpi.samples", "count"),
    layer("scenario.ticks", "count"),
    layer("scenario.handoffs", "count"),
    layer("city.remeasure.skipped", "count"),
    layer("city.remeasure.hit_frac", "frac"),
    // simcore::shard
    layer("shard.events", "count"),
    layer("shard.msgs", "count"),
    layer("shard.msgs_per_event", "ratio"),
    layer("shard.serial_wall_s", "s"),
    layer("shard.speedup", "ratio"),
    // trace
    layer("trace.events", "count"),
    layer("trace.bytes", "bytes"),
    layer("trace.finish_s", "s"),
    layer("trace.overhead_frac", "frac"),
    // the benchmark itself
    layer("bench.span_overhead_frac", "frac"),
    layer("bench.layer_coverage_frac", "frac"),
    layer("fail_frac", "frac"),
];

/// Measured values by metric name. Only catalogue names are accepted.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records `value` under catalogue metric `name`.
    ///
    /// # Panics
    /// On a name missing from [`METRICS`] or a non-finite value: a bug
    /// in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|m| m.name == name),
            "metric `{name}` is not in the catalogue"
        );
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values.insert(name, value);
    }

    /// Records `num / den`, or 0 when `den` is 0.
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.set(name, if den > 0.0 { num / den } else { 0.0 });
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `(metric, value)` rows of `kind`, in catalogue order. A
    /// per-layer metric the workload never set reads 0.
    ///
    /// # Panics
    /// When an end-to-end metric was not set: every workload must
    /// measure all of them.
    pub fn rows(&self, kind: Kind) -> Vec<(&'static Metric, f64)> {
        METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                let v = match (self.get(m.name), kind) {
                    (Some(v), _) => v,
                    (None, Kind::PerLayer) => 0.0,
                    (None, Kind::EndToEnd) => {
                        panic!("end-to-end metric `{}` was not measured", m.name)
                    }
                };
                (m, v)
            })
            .collect()
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
    }
}

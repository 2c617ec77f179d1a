//! # fiveg-bench
//!
//! The benchmark harness: one Criterion bench per experiment family and
//! the `repro` binary that regenerates every table and figure of the
//! paper as text + JSON artifacts.

pub mod micro;
pub mod report;

pub use micro::{
    city_attach_micro, city_sweep_micro, fleet_shard_micro, phy_sample_micro, trace_overhead_micro,
};
pub use report::{
    compare_to_baseline, BenchComparison, BenchJob, BenchReport, BenchTotals, MicroBench,
    BENCH_SCHEMA, THROUGHPUT_WARN_FRACTION,
};

use std::fs;
use std::path::Path;

/// Writes an artifact file, creating the output directory.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(name), contents)
}

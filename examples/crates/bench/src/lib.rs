//! # fiveg-bench
//!
//! The benchmark harness: one Criterion bench per experiment family and
//! the `repro` binary that regenerates every table and figure of the
//! paper as text + JSON artifacts.

use std::fs;
use std::path::Path;

/// Writes an artifact file, creating the output directory.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(name), contents)
}

//! `fiveg-lint`: the workspace determinism linter.
//!
//! The campaign goldens prove *that* every artifact is byte-identical
//! for any `--jobs`/thread count; this crate proves *where* a hazard
//! entered. It checks only what rustc and clippy cannot: the
//! workspace's own invariants, as named rules (see [`rules::RULES`]).
//! Everything a compiler lint can do lives in the workspace lint table
//! (`Cargo.toml`) and `clippy.toml` instead; W002 makes sure no crate
//! escapes that policy.
//!
//! One engine runs every rule: each file under `crates/`, `tests/`
//! and `examples/` (never `vendor/`) goes through the [`tokenizer`]
//! and the item [`parser`], and the [`workspace`] pass evaluates the
//! rule families over all parsed files plus the crate manifests:
//! D002 (float comparators), S001–S003 (shard safety), F001 (float
//! determinism), W001–W002 (workspace architecture) and L000
//! (malformed pragmas).
//!
//! Suppression is explicit and local — a
//! `// fiveg-lint: allow(RULE) -- reason` pragma on the line or the
//! line above — and `--check` fails on any finding left.

pub mod parser;
pub mod rules;
pub mod selftest;
pub mod tokenizer;
pub mod workspace;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{FileCtx, FileKind, Finding, RULES};

/// Directories scanned under the workspace root.
pub const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Everything one scan produced.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of findings silenced by pragmas.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

/// Scans the workspace rooted at `root`: every source file plus the
/// crate manifests through the workspace pass. Files are visited in
/// sorted path order so the report is deterministic; `vendor/`,
/// `target/` and lint fixture directories are never scanned.
pub fn scan_workspace(root: &Path) -> std::io::Result<ScanReport> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut sources: Vec<workspace::SourceFile> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(ctx) = FileCtx::classify(&rel) else {
            continue;
        };
        let src = fs::read_to_string(&path)?;
        sources.push(workspace::SourceFile { ctx, src });
    }
    let manifests = workspace::load_manifests(root)?;
    let (findings, suppressed) = workspace::analyze(&sources, &manifests);
    Ok(ScanReport {
        findings,
        suppressed,
        files: sources.len(),
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "vendor" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The rule id with the most entries in `findings`, with its count —
/// named in the CI failure message so the offending invariant is
/// obvious.
pub fn worst_rule(findings: &[Finding]) -> Option<(&'static str, usize)> {
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    // max_by_key returns the *last* max; iterate explicitly so ties
    // break toward the lexically-first rule id, deterministically.
    let mut best: Option<(&'static str, usize)> = None;
    for (rule, count) in counts {
        if best.is_none_or(|(_, c)| count > c) {
            best = Some((rule, count));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_rule_breaks_ties_deterministically() {
        let mk = |rule: &'static str| Finding {
            file: "f.rs".into(),
            line: 1,
            rule,
            excerpt: String::new(),
            hint: "",
        };
        let found = [mk("S002"), mk("D002"), mk("D002")];
        assert_eq!(worst_rule(&found), Some(("D002", 2)));
        assert_eq!(worst_rule(&found[..2]), Some(("D002", 1)));
        assert_eq!(worst_rule(&[]), None);
    }
}

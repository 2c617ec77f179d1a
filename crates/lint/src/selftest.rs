//! The fixture self-test: runs the rule engine over
//! `crates/lint/fixtures/` and compares findings against inline
//! expectation markers.
//!
//! Markers: `//~ RULE [RULE...]` expects those findings on the marker's
//! own line; `//~^ RULE` on the line above. Fixtures declare the
//! workspace path they emulate with a `lint-fixture-path:` header so
//! scoping (sim crate / test file / example) is exercised too. Each
//! fixture runs through the workspace pass as a one-file workspace
//! (manifest-less, so same-file taint only).
//!
//! `fixtures/ws/` holds a miniature workspace (crate directories with
//! `Cargo.toml` + `src/lib.rs`) exercised through the full
//! manifest-aware pass: crate layering (W001) and the lint opt-in
//! (W002), with markers as `# //~ W001` TOML comments, and cross-crate
//! shard taint (S001 across a dependency edge). Both
//! `cargo test -p fiveg-lint` and `fiveg-lint --self-test` run all of
//! this.

use std::path::Path;

use crate::rules::{rule_id, FileCtx};
use crate::workspace::{analyze, load_manifests, Manifest, SourceFile};

/// A fixture finding or expectation: (file, line, rule).
type Site = (String, u32, &'static str);

/// Runs every `.rs` fixture under `fixtures`, then the `ws/` fixture
/// workspace. `Ok(checked_count)` when all match; `Err(messages)`
/// describing each drift otherwise.
pub fn run(fixtures: &Path) -> Result<usize, Vec<String>> {
    let mut failures = Vec::new();
    let mut paths = Vec::new();
    collect_rs(fixtures, fixtures, &mut paths);
    paths.retain(|p| !p.contains('/')); // `ws/` runs as one workspace below
    paths.sort();
    for name in &paths {
        let src = std::fs::read_to_string(fixtures.join(name)).unwrap_or_default();
        let Some(emulated) = fixture_path_header(&src) else {
            failures.push(format!("{name}: missing `lint-fixture-path:` header"));
            continue;
        };
        let Some(ctx) = FileCtx::classify(&emulated) else {
            failures.push(format!("{name}: header path `{emulated}` is not scannable"));
            continue;
        };
        let want = sites(&emulated, &src);
        let file = SourceFile { ctx, src };
        compare(name, &[file], &[], want, &mut failures);
    }
    if paths.is_empty() {
        failures.push(format!("no fixtures found in {}", fixtures.display()));
    }
    let checked = paths.len() + run_ws(&fixtures.join("ws"), &mut failures);
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(failures)
    }
}

/// Runs the full manifest-aware pass over the miniature fixture
/// workspace and compares every finding against the markers in its
/// `.rs` and `Cargo.toml` files. Returns the number of sources.
fn run_ws(ws_root: &Path, failures: &mut Vec<String>) -> usize {
    let manifests = load_manifests(ws_root).unwrap_or_default();
    let mut want = Vec::new();
    for m in &manifests {
        let text = std::fs::read_to_string(ws_root.join(&m.rel_path)).unwrap_or_default();
        want.extend(sites(&m.rel_path, &text));
    }
    let mut rs_files = Vec::new();
    collect_rs(ws_root, ws_root, &mut rs_files);
    rs_files.sort();
    let mut sources = Vec::new();
    for rel in rs_files {
        let src = std::fs::read_to_string(ws_root.join(&rel)).unwrap_or_default();
        want.extend(sites(&rel, &src));
        if let Some(ctx) = FileCtx::classify(&rel) {
            sources.push(SourceFile { ctx, src });
        }
    }
    if sources.is_empty() || manifests.is_empty() {
        failures.push(format!(
            "ws fixture workspace at {} is empty",
            ws_root.display()
        ));
    }
    compare("ws", &sources, &manifests, want, failures);
    sources.len()
}

/// Runs the workspace pass and reports every missing or unexpected
/// finding against `want`.
fn compare(
    name: &str,
    files: &[SourceFile],
    manifests: &[Manifest],
    want: Vec<Site>,
    failures: &mut Vec<String>,
) {
    let (found, _) = analyze(files, manifests);
    let got: Vec<Site> = found
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    for (file, line, rule) in want.iter().filter(|w| !got.contains(w)) {
        failures.push(format!("{name}: missing expected {rule} at {file}:{line}"));
    }
    for f in found
        .iter()
        .filter(|f| !want.contains(&(f.file.clone(), f.line, f.rule)))
    {
        failures.push(format!(
            "{name}: unexpected {} at {}:{} `{}`",
            f.rule, f.file, f.line, f.excerpt
        ));
    }
}

/// The expectation markers of `src` as sites in `file`.
fn sites(file: &str, src: &str) -> Vec<Site> {
    let markers = expected_markers(src).into_iter();
    markers
        .map(|(line, rule)| (file.to_string(), line, rule))
        .collect()
}

/// Collects `.rs` paths under `dir` as `/`-separated paths relative to
/// `root`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

fn fixture_path_header(src: &str) -> Option<String> {
    for line in src.lines().take(5) {
        if let Some(idx) = line.find("lint-fixture-path:") {
            return Some(line[idx + "lint-fixture-path:".len()..].trim().to_string());
        }
    }
    None
}

/// Expected (line, rule) pairs from the markers, sorted like scan
/// output. Unknown rule ids become a guaranteed-mismatch sentinel so a
/// typo in a fixture cannot silently pass.
fn expected_markers(src: &str) -> Vec<(u32, &'static str)> {
    let mut want = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let lineno = i as u32 + 1;
        let Some(idx) = line.find("//~") else {
            continue;
        };
        let rest = &line[idx + 3..];
        let (target, list) = match rest.strip_prefix('^') {
            Some(r) => (lineno - 1, r),
            None => (lineno, rest),
        };
        for word in list.split_whitespace() {
            want.push((target, rule_id(word).unwrap_or("???")));
        }
    }
    want.sort_unstable();
    want
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_parsing() {
        let src = "let a = 1; //~ S002 D002\n//~^ F001\nplain\n//~ U001\n";
        assert_eq!(
            expected_markers(src),
            vec![(1, "D002"), (1, "F001"), (1, "S002"), (4, "???")]
        );
    }
}

//! Runs the fixture self-test under `cargo test`, so the rule engine
//! and the `fiveg-lint --self-test` CI stage can never drift apart.

use std::path::Path;

#[test]
fn fixture_suite_matches_markers() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    match fiveg_lint::selftest::run(&fixtures) {
        Ok(checked) => assert!(checked >= 4, "expected at least 4 fixtures, ran {checked}"),
        Err(failures) => panic!("fixture drift:\n{}", failures.join("\n")),
    }
}

#[test]
fn repo_scan_is_deterministic() {
    // Scan the real workspace twice: identical findings, in the same
    // (file, line, rule) order.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let a = fiveg_lint::scan_workspace(root).expect("scan");
    let b = fiveg_lint::scan_workspace(root).expect("scan");
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.suppressed, b.suppressed);
    assert!(a.files > 100, "scanned only {} files", a.files);
}

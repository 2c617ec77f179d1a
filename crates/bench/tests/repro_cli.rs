//! Flag-validation tests for the `repro` binary: every bad `--trace`
//! invocation must exit 2 with the usage text, before any job runs.

use std::process::Command;

#[expect(
    clippy::expect_used,
    reason = "test helper: a binary that cannot start fails the test"
)]
fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_trace_mode_exits_2_with_usage() {
    let out = repro(&["--trace=firehose", "--only", "scenario"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown mode `firehose`"),
        "stderr names the bad mode: {stderr}"
    );
    assert!(
        stderr.contains("Usage: repro"),
        "stderr shows usage: {stderr}"
    );
}

#[test]
fn trace_without_a_target_exits_2_with_usage() {
    for args in [&["--trace"][..], &["--trace=full"][..]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--trace requires a target"),
            "stderr explains the missing target: {stderr}"
        );
        assert!(
            stderr.contains("Usage: repro"),
            "stderr shows usage: {stderr}"
        );
    }
}

#[test]
fn trace_with_a_target_passes_flag_validation() {
    // A filter that matches nothing still clears flag parsing; the
    // failure is the late "no jobs matched" path, not the usage text.
    let out = repro(&["--trace=ring", "--only", "no-such-job-anywhere"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no jobs matched"), "got: {stderr}");
    assert!(!stderr.contains("Usage: repro"), "got: {stderr}");
}

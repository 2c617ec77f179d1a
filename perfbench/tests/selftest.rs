//! Self-tests of the benchmark binary at the tiny size: every workload
//! prints every metric `BENCHMARK.json` names, with its unit; its
//! counters repeat exactly across invocations; and a tampered expected
//! counter or golden byte fails the run.

use fiveg_obs::{parse_json, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["quick-campaign", "des-flows", "city-coverage", "fleet-city"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository root")
        .to_path_buf()
}

/// The reference files the benchmark reads under its `--root`.
const REFERENCES: [&str; 3] = [
    "golden/quick-s2020",
    "golden/bench-baseline.json",
    "perfbench/expected/seed2020.json",
];

/// A scratch repository root of this test's own, holding copies of the
/// references, so that a test may tamper with them. Run records land
/// under it too.
fn scratch_root(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    for reference in REFERENCES {
        let from = repo_root().join(reference);
        let to = root.join(reference);
        if from.is_dir() {
            std::fs::create_dir_all(&to).expect("reference copy");
            for entry in std::fs::read_dir(&from).expect("reference directory") {
                let path = entry.expect("entry").path();
                std::fs::copy(&path, to.join(path.file_name().expect("name"))).expect("copy");
            }
        } else {
            std::fs::create_dir_all(to.parent().expect("parent")).expect("reference copy");
            std::fs::copy(&from, &to).expect("copy");
        }
    }
    root
}

/// Runs the benchmark at the tiny size against the references under
/// `root`; returns (exit code, result line).
fn bench(workload: &str, trace: u8, extra: &[&str], root: &Path) -> (i32, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_fiveg-perfbench"))
        .args(["--workload", workload, "--size", "tiny", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no result line; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let v =
        parse_json(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e:?}"));
    (out.status.code().unwrap_or(-1), v)
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let src = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = parse_json(&src).expect("BENCHMARK.json parses");
    let JsonValue::Array(list) = v.get(key).expect("metric list") else {
        panic!("{key} is not a list");
    };
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit, value)` of every metric of a result line.
fn metrics(result: &JsonValue) -> Vec<(String, String, f64)> {
    let m = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object");
    m.iter()
        .map(|(name, v)| {
            (
                name.clone(),
                v.get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("unit")
                    .to_string(),
                v.get("value").and_then(JsonValue::as_f64).expect("value"),
            )
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let root = scratch_root("declared");
    for workload in WORKLOADS {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (code, r) = bench(workload, trace, &[], &root);
            assert_eq!(code, 0, "{workload} trace {trace} failed: {r:?}");
            assert_eq!(r.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(r.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(r.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let got = metrics(&r);
            let names: Vec<(String, String)> =
                got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
            assert_eq!(
                sorted(names),
                sorted(declared(key)),
                "{workload} trace {trace}"
            );
            if trace == 0 {
                for (name, _, value) in &got {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
        }
    }
}

#[test]
fn counters_repeat_exactly_across_invocations() {
    let root = scratch_root("repeat");
    for workload in WORKLOADS {
        let counts = |r: &JsonValue| -> Vec<(String, f64)> {
            metrics(r)
                .into_iter()
                .filter(|(_, unit, _)| unit == "count" || unit == "bytes")
                .map(|(n, _, v)| (n, v))
                .collect()
        };
        let (_, a) = bench(workload, 1, &["--seed", "7"], &root);
        let (_, b) = bench(workload, 1, &["--seed", "7"], &root);
        assert_eq!(counts(&a), counts(&b), "{workload} counters moved");
        assert!(
            counts(&a).iter().any(|(_, v)| *v > 0.0),
            "{workload} counted nothing"
        );
    }
}

/// Adds one to the first counter of `section` in an expected-sets file.
fn bump_first_counter(src: &str, section: &str) -> String {
    let start = src
        .find(&format!("\"{section}\": {{"))
        .expect("section present");
    let mut out = src[..start].to_string();
    let mut bumped = false;
    for line in src[start..].split_inclusive('\n') {
        let comma = if line.trim_end().ends_with(',') {
            ","
        } else {
            ""
        };
        let counter = line
            .trim_end()
            .trim_end_matches(',')
            .rsplit_once(": ")
            .and_then(|(key, n)| Some((key, n.parse::<u64>().ok()?)));
        match counter {
            Some((key, n)) if !bumped => {
                out.push_str(&format!("{key}: {}{comma}\n", n.wrapping_add(1)));
                bumped = true;
            }
            _ => out.push_str(line),
        }
    }
    assert!(bumped, "no counter in {section}");
    out
}

/// The run failed its checks: exit 1, `correct` false, `fail_frac` > 0.
fn assert_caught(workload: &str, root: &Path) {
    let (code, r) = bench(workload, 1, &[], root);
    assert_eq!(code, 1, "{workload}: tampering went unnoticed");
    assert_eq!(r.get("correct"), Some(&JsonValue::Bool(false)));
    let fail_frac = metrics(&r)
        .into_iter()
        .find(|(n, _, _)| n == "fail_frac")
        .map(|(_, _, v)| v);
    assert!(fail_frac > Some(0.0), "{workload}: fail_frac {fail_frac:?}");
}

#[test]
fn a_tampered_expected_counter_fails_the_run() {
    for workload in ["des-flows", "city-coverage", "fleet-city"] {
        let root = scratch_root(&format!("tamper-expected-{workload}"));
        let file = root.join("perfbench/expected/seed2020.json");
        let src = std::fs::read_to_string(&file).expect("expected sets");
        let tampered = bump_first_counter(&src, &format!("{workload}/tiny"));
        assert_ne!(tampered, src);
        std::fs::write(&file, tampered).expect("write");
        assert_caught(workload, &root);
    }
}

#[test]
fn a_tampered_golden_byte_fails_the_campaign() {
    let root = scratch_root("tamper-golden");
    let table1 = root.join("golden/quick-s2020/table1.json");
    let original = std::fs::read_to_string(&table1).expect("table1 golden");
    let pos = original
        .find(|c: char| c.is_ascii_digit())
        .expect("a digit");
    let digit = original.as_bytes()[pos];
    let flipped = if digit == b'9' {
        '0'
    } else {
        char::from(digit + 1)
    };
    let mut tampered = original.clone();
    tampered.replace_range(pos..=pos, &flipped.to_string());
    assert_ne!(tampered, original);
    std::fs::write(&table1, tampered).expect("tamper golden");
    assert_caught("quick-campaign", &root);
}

#[test]
fn a_tampered_baseline_counter_fails_the_campaign() {
    let root = scratch_root("tamper-baseline");
    let file = root.join("golden/bench-baseline.json");
    let baseline = std::fs::read_to_string(&file).expect("baseline");
    let fig17 = baseline.find("\"fig17\"").expect("fig17 in the baseline");
    let key = "\"sim.events.executed\": ";
    let at = fig17 + baseline[fig17..].find(key).expect("fig17 event count") + key.len();
    let end = at
        + baseline[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("number end");
    let n: u64 = baseline[at..end].parse().expect("count");
    let tampered = format!("{}{}{}", &baseline[..at], n + 1, &baseline[end..]);
    std::fs::write(&file, tampered).expect("tamper baseline");
    assert_caught("quick-campaign", &root);
}

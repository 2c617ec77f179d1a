//! Output checks behind `fail_frac`: every operation a workload runs is
//! compared with a reference, and a mismatch counts as a failed
//! operation.
//!
//! The reference of an operation is, in order of preference:
//! 1. the expected counter set blessed at [`BLESSED_SEED`] (or the
//!    repository's goldens, for `quick-campaign`), when the run uses
//!    that seed;
//! 2. the same operation's result in the run's first iteration, so that
//!    every later iteration must repeat it exactly.
//!
//! Counter sets hold the program's deterministic `fiveg-obs` counters
//! plus digests of the operation's output, so "same counters" means
//! "same simulation".

use fiveg_obs::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The seed whose results are blessed (the repository's golden seed).
pub const BLESSED_SEED: u64 = 2020;

/// Deterministic counters of one operation, by name.
pub type Counters = BTreeMap<String, u64>;

/// Counter sets of a workload's operations, by operation name.
pub type OpSets = BTreeMap<String, Counters>;

/// Tally of attempted and failed operations.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or drifted from their reference.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checker {
    /// Counts one operation; `ok == false` records it as failed with
    /// the message `what` produces.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Failed share of attempted operations.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Compares each iteration's operation results with their references.
#[derive(Debug)]
pub struct OpChecker {
    blessed: Option<OpSets>,
    first: OpSets,
}

impl OpChecker {
    /// A checker against `blessed` (None: iteration cross-check only).
    pub fn new(blessed: Option<OpSets>) -> OpChecker {
        OpChecker {
            blessed,
            first: OpSets::new(),
        }
    }

    /// Checks one operation's counters.
    pub fn op(&mut self, checker: &mut Checker, name: &str, got: Counters) {
        let reference = match &self.blessed {
            Some(b) => b.get(name),
            None => self.first.get(name),
        };
        match reference {
            Some(want) => {
                let ok = *want == got;
                checker.op(ok, || format!("{name}: {}", describe_drift(want, &got)));
            }
            None if self.blessed.is_some() => {
                checker.op(false, || format!("{name}: no blessed counter set"));
            }
            None => checker.op(true, String::new),
        }
        self.first.entry(name.to_string()).or_insert(got);
    }

    /// The first iteration's counter sets (what `--bless` writes).
    pub fn first(&self) -> &OpSets {
        &self.first
    }

    /// Blessed operations the run never produced.
    pub fn missing(&self, checker: &mut Checker) {
        if let Some(b) = &self.blessed {
            for name in b.keys().filter(|n| !self.first.contains_key(*n)) {
                checker.op(false, || format!("{name}: blessed operation not run"));
            }
        }
    }
}

/// First differing counter between `want` and `got`.
pub fn describe_drift(want: &Counters, got: &Counters) -> String {
    for (k, w) in want {
        match got.get(k) {
            Some(g) if g == w => {}
            Some(g) => return format!("counter {k} drifted {w} -> {g}"),
            None => return format!("counter {k} missing (expected {w})"),
        }
    }
    match got.keys().find(|k| !want.contains_key(*k)) {
        Some(k) => format!("unexpected counter {k}"),
        None => "counters match".to_string(),
    }
}

/// Converts a parsed `{name: u64}` JSON object into counters.
pub fn counters_of(v: &JsonValue) -> Option<Counters> {
    v.as_object()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect()
}

/// Reads the expected sets file: `{"<workload>/<size>": {op: {counter: n}}}`.
/// A missing file reads as empty.
pub fn load_expected(path: &Path) -> Result<BTreeMap<String, OpSets>, String> {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let v = fiveg_obs::parse_json(&src).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let bad = || {
        format!(
            "{}: not a {{key: {{op: {{counter: n}}}}}} object",
            path.display()
        )
    };
    let mut out = BTreeMap::new();
    for (key, ops) in v.as_object().ok_or_else(bad)? {
        let mut sets = OpSets::new();
        for (op, c) in ops.as_object().ok_or_else(bad)? {
            sets.insert(op.clone(), counters_of(c).ok_or_else(bad)?);
        }
        out.insert(key.clone(), sets);
    }
    Ok(out)
}

/// Writes the expected sets file with sorted keys, one counter a line.
pub fn write_expected(path: &Path, all: &BTreeMap<String, OpSets>) -> Result<(), String> {
    let mut s = String::from("{\n");
    for (i, (key, ops)) in all.iter().enumerate() {
        let _ = writeln!(s, "  {key:?}: {{");
        for (j, (op, counters)) in ops.iter().enumerate() {
            let _ = writeln!(s, "    {op:?}: {{");
            for (k, (name, n)) in counters.iter().enumerate() {
                let comma = if k + 1 < counters.len() { "," } else { "" };
                let _ = writeln!(s, "      {name:?}: {n}{comma}");
            }
            let comma = if j + 1 < ops.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        let comma = if i + 1 < all.len() { "," } else { "" };
        let _ = writeln!(s, "  }}{comma}");
    }
    s.push_str("}\n");
    std::fs::write(path, s).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(pairs: &[(&str, u64)]) -> Counters {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn cross_check_uses_the_first_iteration() {
        let mut ch = Checker::default();
        let mut ops = OpChecker::new(None);
        ops.op(&mut ch, "a", c(&[("x", 1)]));
        ops.op(&mut ch, "a", c(&[("x", 1)]));
        ops.op(&mut ch, "a", c(&[("x", 2)]));
        assert_eq!((ch.attempted, ch.failed), (3, 1));
        assert!(
            ch.failures[0].contains("drifted 1 -> 2"),
            "{:?}",
            ch.failures
        );
    }

    #[test]
    fn blessed_sets_win_and_missing_ops_fail() {
        let blessed: OpSets = [("a".to_string(), c(&[("x", 5)])), ("b".to_string(), c(&[]))]
            .into_iter()
            .collect();
        let mut ch = Checker::default();
        let mut ops = OpChecker::new(Some(blessed));
        ops.op(&mut ch, "a", c(&[("x", 5)]));
        ops.op(&mut ch, "z", c(&[]));
        ops.missing(&mut ch);
        assert_eq!((ch.attempted, ch.failed), (3, 2));
    }

    #[test]
    fn expected_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("e.json");
        let mut all = BTreeMap::new();
        let ops: OpSets = [("op.1".to_string(), c(&[("n", u64::MAX), ("m", 0)]))]
            .into_iter()
            .collect();
        all.insert("w/full".to_string(), ops);
        all.insert("w/tiny".to_string(), OpSets::new());
        write_expected(&path, &all).expect("write");
        assert_eq!(load_expected(&path).expect("read"), all);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

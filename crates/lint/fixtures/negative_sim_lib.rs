//! lint-fixture-path: crates/phy/src/fixture.rs
//!
//! Known-negative snippets: nothing here may produce a finding. Each
//! block is a near-miss for one rule.

// D002 near-misses: total_cmp comparators, the names inside strings
// and comments, and a PartialOrd impl whose `partial_cmp` is a
// definition, not a comparator.
fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v.sort_unstable_by(f64::total_cmp);
    // v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let _ = "v.sort_by(|a, b| a.partial_cmp(b))";
    v
}

struct Wrapped(f64);

impl PartialOrd for Wrapped {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

// S002 near-miss: only the FIVEG_* namespace is governed.
fn home() -> bool {
    std::env::var("HOME").is_ok()
}

// Test code may read the environment.
#[cfg(test)]
mod tests {
    #[test]
    fn env_is_fine_in_tests() {
        let _ = std::env::var("FIVEG_SHARDS");
    }
}

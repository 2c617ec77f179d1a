//! lint-fixture-path: crates/net/src/fixture.rs
//!
//! Pragma behaviour: a well-formed pragma suppresses exactly its rules
//! on its own line and the next; malformed pragmas are L000 findings.

fn above(v: &mut [f64]) {
    // fiveg-lint: allow(D002) -- inputs are NaN-free by construction
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

fn trailing() -> bool {
    std::env::var("FIVEG_KNOB").is_ok() // fiveg-lint: allow(S002) -- fixture
}

fn not_covered(v: &mut [f64]) {
    // fiveg-lint: allow(D002) -- only shields the next line
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ D002
}

// fiveg-lint: allow(D002)
//~^ L000
fn missing_reason(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ D002
}

// fiveg-lint: allow(U001) -- a rule now enforced by clippy
//~^ L000
fn retired_rule() {}

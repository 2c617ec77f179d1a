//! lint-fixture-path: crates/phy/src/fixture.rs
//!
//! Known-positive D002 snippets: a comparator built on `partial_cmp`
//! must fire exactly where the expectation markers say. This file is
//! never compiled — the self-test only parses it.

fn hazards(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ D002
    v.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap()); //~ D002
    let lo = v.iter().min_by(|a, b| a.partial_cmp(b).unwrap()); //~ D002
    let best = v
        .iter()
        .max_by(|a, b| {
            a.partial_cmp(b) //~ D002
                .expect("no NaN")
        });
    let _ = v.binary_search_by(|x| x.partial_cmp(&0.5).unwrap()); //~ D002
    *best.unwrap() + *lo.unwrap()
}

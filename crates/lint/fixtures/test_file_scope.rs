//! lint-fixture-path: tests/fixture.rs
//!
//! Rule scoping in `tests/`: the library-only rules (S002 env reads,
//! F001 reductions) are exempt, but a NaN-unsafe float comparator
//! (D002) is a hazard anywhere — goldens are compared by tests too.

#[test]
fn free_to_read_env_and_reduce() {
    let _ = std::env::var("FIVEG_SHARDS");
    let mut total = 0.0f64;
    par_map_with(&[1.0], 1, || (), |_, _, x| total += x);
}

#[test]
fn but_not_to_sort_floats_unsafely() {
    let mut v = vec![2.0_f64, 1.0];
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ D002
    assert_eq!(v[0], 1.0);
}

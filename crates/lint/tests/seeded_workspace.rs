//! End-to-end checks on a seeded throwaway workspace, driven through
//! the real binary: every rule id fires on a planted violation and
//! `--check` exits 2, while the same workspace without the plants
//! exits 0.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds a miniature workspace under `target/tmp`: with `plants`, one
/// violation per rule; without, the same crates written cleanly.
/// Returns its root.
#[expect(
    clippy::expect_used,
    reason = "test helper: an I/O failure fails the test"
)]
fn seed_workspace(name: &str, plants: bool) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear previous seed");
    }
    let write = |rel: &str, body: &str| {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, body).expect("write seed file");
    };
    let lints = "\n[lints]\nworkspace = true\n";
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    // `obs` may depend on nothing: fiveg-core here is a W001 edge, and
    // the missing `[lints]` opt-in is a W002.
    let obs_deps = if plants {
        "fiveg-core = { path = \"../core\" }\n"
    } else {
        lints
    };
    write(
        "crates/obs/Cargo.toml",
        &format!("[package]\nname = \"fiveg-obs\"\n\n[dependencies]\n{obs_deps}"),
    );
    write("crates/obs/src/lib.rs", "//! Seeded obs crate.\n");
    write(
        "crates/simcore/Cargo.toml",
        &format!("[package]\nname = \"fiveg-simcore\"\n\n[dependencies]\n{lints}"),
    );
    // S001 (obs write in a handler), S003 (mutable static from a
    // handler), S002 (env read), F001 (float accumulation in a
    // parallel closure), D002 (partial_cmp comparator) and L000 (a
    // pragma without a reason) — all in one library file.
    let hazards = "\
static HITS: AtomicU64 = AtomicU64::new(0);
impl ShardLogic for Node {
    fn handle(&mut self) {
        fiveg_obs::counter_add(\"seed.hits\", 1);
        HITS.fetch_add(1, Ordering::Relaxed);
    }
}
pub fn knob() -> bool {
    std::env::var(\"FIVEG_SEEDED_KNOB\").is_ok()
}
pub fn reduce(xs: &mut [f64]) -> f64 {
    let mut total = 0.0f64;
    par_map_with(xs, 4, || (), |_, _, x| {
        total += x;
    });
    // fiveg-lint: allow(D002)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    total
}
";
    let clean = "\
pub fn reduce(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.iter().sum()
}
";
    let body = if plants { hazards } else { clean };
    write(
        "crates/simcore/src/lib.rs",
        &format!("//! Seeded simcore crate.\n{body}"),
    );
    root
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a binary that cannot start fails the test"
)]
fn check(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fiveg-lint"))
        .arg("--check")
        .arg("--root")
        .arg(root)
        .output()
        .expect("run fiveg-lint")
}

#[test]
fn seeded_violations_exit_2_and_clean_seed_exits_0() {
    let out = check(&seed_workspace("lint-seeded-ws", true));
    let listing = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--check on seeded violations must exit 2\nstdout: {listing}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr),
    );
    for (rule, _, _) in fiveg_lint::RULES {
        assert!(
            listing.contains(&format!(" {rule} ")),
            "seeded workspace did not produce a {rule} finding:\n{listing}"
        );
    }

    let out = check(&seed_workspace("lint-clean-ws", false));
    assert_eq!(
        out.status.code(),
        Some(0),
        "--check on the clean seed must exit 0\nstdout: {}",
        String::from_utf8_lossy(&out.stdout),
    );
}

#[test]
fn real_tree_shard_handler_is_seen_by_parser() {
    // Taint seeding must not go silently vacuous: the parser has to
    // see the real fleet shard handler in core.
    let src = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../core/src/scenario_run.rs"
    ))
    .expect("read core scenario_run.rs");
    let model = fiveg_lint::parser::parse_file(&src);
    let handlers: Vec<&str> = model
        .fns
        .iter()
        .filter(|f| {
            f.impl_ctx
                .as_ref()
                .is_some_and(|c| c.trait_name.as_deref() == Some("ShardLogic"))
        })
        .map(|f| f.name.as_str())
        .collect();
    assert!(
        !handlers.is_empty(),
        "no fns parsed inside `impl ShardLogic for ..` in core/src/scenario_run.rs — \
         S-rule seeding would be vacuous"
    );
}

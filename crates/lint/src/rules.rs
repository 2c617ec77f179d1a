//! The rule catalogue, file classification and pragma syntax.
//!
//! Each rule is a named, machine-checkable invariant of this
//! workspace's "byte-identical artifacts for any worker/thread count"
//! guarantee that rustc and clippy cannot express. The checks
//! themselves run in one engine: [`crate::tokenizer`], then the item
//! parser ([`crate::parser`]), then the workspace pass
//! ([`crate::workspace`]).

use crate::tokenizer::Tok;

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` minus binaries.
    Lib,
    /// `src/main.rs`, `src/bin/**`.
    Bin,
    /// `examples/**` anywhere.
    Example,
    /// `tests/**` anywhere, and benches.
    Test,
}

/// Per-file context computed from its workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// `<name>` for `crates/<name>/...` files.
    pub crate_name: Option<String>,
    /// Location class.
    pub kind: FileKind,
}

impl FileCtx {
    /// Classifies a workspace-relative path, or `None` for paths the
    /// linter must not scan (vendored code, lint fixtures).
    pub fn classify(rel_path: &str) -> Option<FileCtx> {
        let rel = rel_path.replace('\\', "/");
        if rel.starts_with("vendor/") || rel.contains("/fixtures/") || rel.starts_with("target/") {
            return None;
        }
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .map(str::to_string);
        let tail = match crate_name {
            Some(ref name) => rel
                .strip_prefix("crates/")
                .and_then(|r| r.strip_prefix(name.as_str()))
                .and_then(|r| r.strip_prefix('/'))
                .unwrap_or(&rel),
            None => &rel,
        };
        let kind = if tail.starts_with("tests/") || tail.starts_with("benches/") {
            FileKind::Test
        } else if tail.starts_with("examples/") {
            FileKind::Example
        } else if tail.starts_with("src/bin/") || tail == "src/main.rs" {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        Some(FileCtx {
            rel_path: rel,
            crate_name,
            kind,
        })
    }
}

/// One finding: rule, location, the offending line and a fix hint.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D002`, `S001`, ..., `L000`).
    pub rule: &'static str,
    /// The trimmed source line.
    pub excerpt: String,
    /// One-line fix hint.
    pub hint: &'static str,
}

/// Rule table: id, what it catches, and the fix hint attached to every
/// finding. Kept in one place so `--rules`, the docs and the engine
/// cannot drift apart.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "L000",
        "malformed fiveg-lint pragma",
        "pragma syntax is `// fiveg-lint: allow(RULE[,RULE]) -- reason`",
    ),
    (
        "D002",
        "float sort/min/max comparator built on partial_cmp",
        "partial_cmp panics or mis-orders on NaN; use f64::total_cmp",
    ),
    (
        "S001",
        "obs metric write reachable from a ShardLogic handler outside a Drop flush",
        "ambient writes under the shard engine are worker-ordered; accumulate in per-origin scratch and flush from Drop",
    ),
    (
        "S002",
        "FIVEG_* environment read outside core::par / fiveg-campaign",
        "scattered env reads fork run configuration; read once in core::par or the campaign runner and pass values down",
    ),
    (
        "S003",
        "mutable static/thread_local state reachable from a ShardLogic handler",
        "cross-shard shared state orders by worker schedule; key state by logical origin inside the shard instead",
    ),
    (
        "F001",
        "float accumulation inside a par_map/thread::scope closure",
        "float reduction order varies with the thread count; accumulate per chunk and combine in a fixed order after the join",
    ),
    (
        "W001",
        "crate dependency edge outside the declared layering DAG",
        "add the edge to ALLOWED_DEPS in crates/lint/src/workspace.rs (a reviewed design decision) or drop the dependency",
    ),
    (
        "W002",
        "crate manifest without `[lints] workspace = true`",
        "add `[lints]` / `workspace = true` to the crate's Cargo.toml; it carries forbid(unsafe_code), missing_docs and the clippy bans",
    ),
];

/// The catalogue entry for `id`, as the `&'static str` id.
pub fn rule_id(id: &str) -> Option<&'static str> {
    RULES.iter().find(|(r, _, _)| *r == id).map(|(r, _, _)| *r)
}

/// Fix hint for a rule id (`""` for unknown ids).
pub fn hint_for(id: &str) -> &'static str {
    RULES
        .iter()
        .find(|(r, _, _)| *r == id)
        .map_or("", |(_, _, h)| h)
}

/// Reads a comment token as a pragma: `None` if it is not one,
/// `Some(Err(()))` if it is malformed (an L000 finding), otherwise the
/// rules it allows.
///
/// Suppression: `// fiveg-lint: allow(S002) -- reason` silences the
/// listed rules on the pragma's own line and on the line directly
/// below it, so it works both as a trailing comment and as a
/// stand-alone line above the offending statement. Only a comment that
/// *starts* with `fiveg-lint:` is a pragma; prose that mentions the
/// syntax mid-sentence is not.
pub(crate) fn pragma(comment: &Tok<'_>) -> Option<Result<Vec<&'static str>, ()>> {
    let body = comment
        .text
        .trim_start_matches(['/', '!', '*'])
        .trim_start()
        .strip_prefix("fiveg-lint:")?
        .trim();
    // Block comments carry their closing delimiter in the token text.
    let body = body.strip_suffix("*/").map_or(body, str::trim_end);
    Some(parse_allow(body).ok_or(()))
}

/// Parses `allow(S001,S002) -- reason`; `None` if malformed (unknown
/// rule, missing reason, bad shape).
fn parse_allow(body: &str) -> Option<Vec<&'static str>> {
    let rest = body.strip_prefix("allow(")?;
    let (list, tail) = rest.split_at(rest.find(')')?);
    let reason = tail[1..].trim_start().strip_prefix("--")?;
    if reason.trim().is_empty() {
        return None;
    }
    list.split(',').map(|r| rule_id(r.trim())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{analyze, SourceFile};

    fn ctx(path: &str) -> FileCtx {
        FileCtx::classify(path).expect("classifiable")
    }

    /// Runs the one engine over a single-file workspace: the
    /// `(rule, line)` findings and the pragma-suppressed count.
    fn hits(path: &str, src: &str) -> (Vec<(&'static str, u32)>, usize) {
        let file = SourceFile {
            ctx: ctx(path),
            src: src.to_string(),
        };
        let (f, s) = analyze(&[file], &[]);
        (f.into_iter().map(|f| (f.rule, f.line)).collect(), s)
    }

    #[test]
    fn classify_kinds() {
        assert_eq!(ctx("crates/phy/src/env.rs").kind, FileKind::Lib);
        assert_eq!(ctx("crates/bench/src/bin/repro.rs").kind, FileKind::Bin);
        assert_eq!(ctx("crates/phy/examples/x.rs").kind, FileKind::Example);
        assert_eq!(ctx("tests/integration.rs").kind, FileKind::Test);
        assert_eq!(ctx("examples/quickstart.rs").kind, FileKind::Example);
        assert!(FileCtx::classify("vendor/rand/src/lib.rs").is_none());
        assert!(FileCtx::classify("crates/lint/fixtures/pos.rs").is_none());
    }

    #[test]
    fn d002_flags_sort_comparators_not_trait_impls() {
        let sort = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        assert_eq!(hits("crates/phy/src/x.rs", sort).0, vec![("D002", 2)]);
        // D002 holds in tests too: goldens are compared by tests.
        assert_eq!(hits("tests/x.rs", sort).0, vec![("D002", 2)]);
        let tr = "impl PartialOrd for T {\n  fn partial_cmp(&self, o: &T) -> Option<Ordering> {\n    self.0.partial_cmp(&o.0)\n  }\n}\n";
        assert!(hits("crates/phy/src/x.rs", tr).0.is_empty());
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let trailing = "fn f() {\n    v.max_by(|a, b| a.partial_cmp(b)); // fiveg-lint: allow(D002) -- no NaN here\n}\n";
        assert_eq!(hits("crates/net/src/x.rs", trailing), (vec![], 1));
        let above = "fn f() {\n    // fiveg-lint: allow(D002) -- no NaN here\n    v.max_by(|a, b| a.partial_cmp(b));\n}\n";
        assert_eq!(hits("crates/net/src/x.rs", above), (vec![], 1));
    }

    #[test]
    fn pragma_does_not_blanket_other_rules_or_lines() {
        let src = "fn f() {\n    // fiveg-lint: allow(D002) -- reason\n    v.min_by(|a, b| a.partial_cmp(b));\n    v.min_by(|a, b| a.partial_cmp(b));\n    // fiveg-lint: allow(F001) -- reason\n    let _ = std::env::var(\"FIVEG_X\");\n}\n";
        assert_eq!(
            hits("crates/net/src/x.rs", src),
            (vec![("D002", 4), ("S002", 6)], 1)
        );
    }

    #[test]
    fn malformed_pragmas_are_l000() {
        for bad in [
            "// fiveg-lint: allow(D002)\nlet a = 1;\n", // missing reason
            "// fiveg-lint: allow(X999) -- nope\nlet a = 1;\n", // unknown rule
            "// fiveg-lint: allow(U001) -- retired\nlet a = 1;\n", // retired rule
            "/* fiveg-lint: disallow(D002) -- x */\nlet a = 1;\n", // bad verb
        ] {
            assert_eq!(hits("tests/x.rs", bad).0, vec![("L000", 1)], "{bad:?}");
        }
    }

    #[test]
    fn strings_and_comments_never_match() {
        let src = "fn f() {\n    // v.sort_by(|a, b| a.partial_cmp(b))\n    let s = \"sort_by partial_cmp env::var(\\\"FIVEG_X\\\")\";\n}\n";
        assert!(hits("crates/phy/src/x.rs", src).0.is_empty());
    }
}

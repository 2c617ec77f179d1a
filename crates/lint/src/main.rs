//! `fiveg-lint` CLI.
//!
//! Exit codes: 0 = clean, 1 = usage or I/O error, 2 = findings
//! (`--check`) or fixture mismatch (`--self-test`).

use std::path::PathBuf;
use std::process::ExitCode;

use fiveg_lint::{scan_workspace, selftest, worst_rule, RULES};

const USAGE: &str = "\
fiveg-lint: workspace determinism linter

USAGE: fiveg-lint [MODE] [--root DIR]

MODES (default: --check):
  --check       print every finding; exit 2 if there is any
  --self-test   run the rule engine over crates/lint/fixtures and
                compare against the `//~ RULE` markers; exit 2 on drift
  --rules       print the rule table
  --help        this text

OPTIONS:
  --root DIR    workspace root (default: nearest ancestor with a
                [workspace] Cargo.toml)
";

enum Mode {
    Check,
    SelfTest,
    Rules,
}

fn main() -> ExitCode {
    let mut mode = Mode::Check;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => mode = Mode::Check,
            "--self-test" => mode = Mode::SelfTest,
            "--rules" => mode = Mode::Rules,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if let Mode::Rules = mode {
        for (id, what, hint) in RULES {
            println!("{id}  {what}\n      fix: {hint}");
        }
        return ExitCode::SUCCESS;
    }

    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("fiveg-lint: no [workspace] Cargo.toml above the current directory; pass --root");
        return ExitCode::FAILURE;
    };

    if let Mode::SelfTest = mode {
        return match selftest::run(&root.join("crates/lint/fixtures")) {
            Ok(checked) => {
                println!("fiveg-lint self-test: {checked} fixtures ok");
                ExitCode::SUCCESS
            }
            Err(failures) => {
                for f in &failures {
                    eprintln!("self-test: {f}");
                }
                eprintln!("fiveg-lint self-test: {} fixture(s) FAILED", failures.len());
                ExitCode::from(2)
            }
        };
    }

    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fiveg-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((rule, count)) = worst_rule(&report.findings) else {
        println!(
            "fiveg-lint: clean — {} files, {} suppressed by pragma",
            report.files, report.suppressed
        );
        return ExitCode::SUCCESS;
    };
    for f in &report.findings {
        println!("{}:{} {} `{}`", f.file, f.line, f.rule, f.excerpt);
        println!("        fix: {}", f.hint);
    }
    eprintln!(
        "fiveg-lint: {} finding(s); most from {rule} ({count}) — fix them or add `// fiveg-lint: allow({rule}) -- reason`",
        report.findings.len()
    );
    ExitCode::from(2)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fiveg-lint: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

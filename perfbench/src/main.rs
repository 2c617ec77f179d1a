//! `fiveg-perfbench`: the fiveg simulator's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <quick-campaign|des-flows|city-coverage|fleet-city> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] [--bless]
//! ```
//!
//! One run builds one workload's inputs from `--seed` (timed as
//! set-up), runs the workload repeatedly for `--seconds` (at least
//! once), checks every operation's output against its reference, and
//! prints the metrics: end-to-end ones by default, per-layer ones with
//! `--trace 1`. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a human-readable
//! summary with the host fingerprint goes to standard error, and a
//! record of the run to `perfbench/results/`.
//!
//! Exit status: 0 when every check passed, 1 when a check failed (the
//! result is still printed), 2 on a usage or environment error (nothing
//! printed on standard output).

mod check;
mod city_coverage;
mod des_flows;
mod fleet_city;
mod harness;
mod host;
mod ledger;
mod quick_campaign;

use check::BLESSED_SEED;
use harness::{Ctx, Outcome, Size};
use host::Threads;
use ledger::Kind;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in the order the documentation lists them.
const WORKLOADS: [&str; 4] = ["quick-campaign", "des-flows", "city-coverage", "fleet-city"];

const USAGE: &str = "usage: fiveg-perfbench --workload NAME [options]

  --workload NAME   quick-campaign | des-flows | city-coverage | fleet-city
  --seed N          workload seed (default 2020, the blessed seed)
  --seconds S       length of the timed loop; at least one iteration runs
                    (default 15)
  --trace 0|1       1: alternate plain and spanned iterations and print
                    the per-layer metrics instead of the end-to-end ones
  --size full|tiny  input size (tiny: for self-tests; default full)
  --root DIR        repository root (default .): the references are
                    ROOT/golden/quick-s2020, ROOT/golden/bench-baseline.json
                    and ROOT/perfbench/expected/seed2020.json; the run
                    record goes to ROOT/perfbench/results
  --bless           store this run's counters as the expected set
                    (seed 2020 only; not quick-campaign)";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    root: PathBuf,
    bless: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = BLESSED_SEED;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut root = PathBuf::from(".");
    let mut bless = false;
    while let Some(flag) = argv.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                };
            }
            "--root" => root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless && (seed != BLESSED_SEED || workload == "quick-campaign") {
        return Err(format!(
            "--bless needs seed {BLESSED_SEED} and a workload other than quick-campaign"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
        root,
        bless,
    })
}

/// The result line: the machine-readable JSON object that ends standard
/// output.
fn result_json(out: &Outcome, kind: Kind) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.checker.failed == 0,
        out.checker.attempted,
        out.checker.failed
    );
    for (i, (m, v)) in out.ledger.rows(kind).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<(Outcome, Kind), String> {
    let threads = Threads::pinned();
    threads.export();
    host::settle_allocator();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: args.size,
        threads,
        golden: args.root.join("golden/quick-s2020"),
        baseline: args.root.join("golden/bench-baseline.json"),
        expected: args.root.join("perfbench/expected/seed2020.json"),
        key: format!("{}/{}", args.workload, args.size.name()),
        bless: args.bless,
    };
    let mut out = match args.workload {
        "quick-campaign" => quick_campaign::run(&ctx)?,
        "des-flows" => des_flows::run(&ctx)?,
        "city-coverage" => city_coverage::run(&ctx)?,
        _ => fleet_city::run(&ctx)?,
    };
    if out.ledger.get("peak_rss_mb") == Some(0.0) {
        return Err("cannot read peak memory from /proc/self/status".to_string());
    }
    if host::cpu_s().is_none() {
        return Err("cannot read CPU time from /proc/self/stat".to_string());
    }
    out.ledger.set("fail_frac", out.checker.fail_frac());
    if args.bless {
        let mut expected = check::load_expected(&ctx.expected)?;
        expected.insert(ctx.key.clone(), out.ops.clone());
        check::write_expected(&ctx.expected, &expected)?;
        eprintln!("blessed {} operations as {}", out.ops.len(), ctx.key);
    }
    let kind = if args.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    report(args, &ctx, &out, kind);
    Ok((out, kind))
}

/// Prints the human summary and writes the run record.
fn report(args: &Args, ctx: &Ctx, out: &Outcome, kind: Kind) {
    let host = host::describe(&args.root, ctx.threads);
    eprintln!(
        "{} seed {} size {} trace {}",
        args.workload,
        args.seed,
        args.size.name(),
        u8::from(args.trace)
    );
    eprintln!("host {host}");
    eprintln!(
        "plain iterations: {} taking {:.4?} s wall, {:.2?} s CPU",
        out.walls.len(),
        out.walls,
        out.cpus
    );
    for (m, v) in out.ledger.rows(kind) {
        eprintln!("  {:<30} {v:>16.6} {}", m.name, m.unit);
    }
    eprintln!(
        "{} of {} operations failed (fail_frac {})",
        out.checker.failed,
        out.checker.attempted,
        out.checker.fail_frac()
    );
    for f in out.checker.failures.iter().take(20) {
        eprintln!("FAIL {f}");
    }
    let record = format!(
        "{{\"workload\": {:?}, \"seed\": {}, \"size\": {:?}, \"seconds\": {}, \"host\": {host}, \
         \"failures\": {:?}, \"result\": {}}}\n",
        args.workload,
        args.seed,
        args.size.name(),
        args.seconds,
        out.checker.failures.iter().take(20).collect::<Vec<_>>(),
        result_json(out, kind)
    );
    let results = args.root.join("perfbench/results");
    let file = results.join(format!(
        "{}-{}-s{}-t{}.json",
        args.workload,
        args.size.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&results).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((out, kind)) => {
            println!("{}", result_json(&out, kind));
            if out.checker.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

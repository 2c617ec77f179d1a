//! What every workload shares: the run context, repeated set-up timing
//! and the timed iteration loop.

use crate::check::{self, Checker, OpChecker, OpSets, BLESSED_SEED};
use crate::host::Threads;
use crate::ledger::{median, Ledger};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Reads the host clock: the benchmark's one source of wall time.
pub fn now() -> Instant {
    // fiveg-lint: allow(D003) -- host wall time is what the benchmark measures
    Instant::now()
}

/// Input size of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A seconds-scale size for self-tests.
    Tiny,
}

impl Size {
    /// Name as used on the command line and in expected-set keys.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// Everything a workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: all inputs derive from it.
    pub seed: u64,
    /// Length of the timed loop, seconds (at least one iteration runs).
    pub seconds: f64,
    /// Traced run: alternate plain and spanned iterations and report
    /// per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Forced thread settings.
    pub threads: Threads,
    /// Golden artifact directory (`quick-campaign`).
    pub golden: PathBuf,
    /// Committed bench baseline with per-job counters (`quick-campaign`).
    pub baseline: PathBuf,
    /// Expected counter sets file.
    pub expected: PathBuf,
    /// This run's key in it: `<workload>/<size>`.
    pub key: String,
    /// Whether this run blesses its counters rather than checking them.
    pub bless: bool,
}

impl Ctx {
    /// A checker of this run's operations against their references:
    /// the expected sets under [`Ctx::key`] when the run uses the blessed
    /// seed, else the run's own first iteration. Workloads load it
    /// before set-up: reading reference files is the benchmark's work,
    /// not the program's.
    pub fn op_checker(&self) -> Result<OpChecker, String> {
        if self.seed != BLESSED_SEED || self.bless {
            return Ok(OpChecker::new(None));
        }
        let mut all = check::load_expected(&self.expected)?;
        Ok(OpChecker::new(Some(
            all.remove(&self.key).unwrap_or_default(),
        )))
    }
}

/// What a workload hands back: its measurements and its checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metric values.
    pub ledger: Ledger,
    /// Operation tally.
    pub checker: Checker,
    /// Operation counter sets of the first iteration (for `--bless`).
    pub ops: OpSets,
    /// Wall time of every plain iteration, seconds, in run order.
    pub walls: Vec<f64>,
    /// CPU time of every plain iteration, seconds, in run order.
    pub cpus: Vec<f64>,
}

/// Sub-span timings of the current set-up burst, by metric name.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Runs `f`, recording its wall time under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = now();
        let r = f();
        self.0
            .entry(name)
            .or_default()
            .push(t.elapsed().as_secs_f64());
        r
    }
}

/// Set-up bursts before the first iteration...
const SETUP_FIRST_BURSTS: usize = 10;
/// ...this far apart...
const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(50);
/// ...the first of at least this many builds, so that its median is not
/// the cold first build. Every burst builds at least once...
const SETUP_MIN_REPS: usize = 3;
/// ...and for at least this many seconds...
const SETUP_BURST_S: f64 = 0.01;
/// ...but never more often than this.
const SETUP_MAX_REPS: usize = 2_000;

/// The workload's set-up, timed apart from the iterations.
///
/// It builds the workload's inputs in short bursts: a few spread over
/// the start of the run, the last build of which the workload keeps, and
/// one after every iteration, whose builds are dropped. Each build starts
/// after the previous one was dropped. `setup_s` and every sub-span are
/// the mean over bursts of each burst's median build. On a shared host,
/// a core can run microsecond-scale work at two speeds far apart (70% on
/// the 2-core development host), switching every second or so: the
/// median of a single burst reads one of the two, while bursts spread
/// over the run average them, as an iteration of a second or more does
/// for `wall_s`.
pub struct Setup<F> {
    build: F,
    spans: Spans,
    /// Median of each burst, by metric name.
    bursts: BTreeMap<&'static str, Vec<f64>>,
}

impl<T, F: FnMut(&mut Spans) -> T> Setup<F> {
    /// Runs the bursts before the first iteration and returns the last
    /// build.
    pub fn first(build: F) -> (Setup<F>, T) {
        let mut setup = Setup {
            build,
            spans: Spans::default(),
            bursts: BTreeMap::new(),
        };
        let mut built = setup.burst(SETUP_MIN_REPS);
        for _ in 1..SETUP_FIRST_BURSTS {
            drop(built);
            std::thread::sleep(SETUP_GAP);
            built = setup.burst(1);
        }
        (setup, built)
    }

    /// Runs a burst between iterations.
    pub fn again(&mut self) {
        drop(self.burst(1));
    }

    /// Builds for [`SETUP_BURST_S`] seconds (at least `min_reps`, at most
    /// [`SETUP_MAX_REPS`] builds) and returns the last build.
    fn burst(&mut self, min_reps: usize) -> T {
        let mut walls = Vec::new();
        let mut total = 0.0;
        let mut built = None;
        while walls.len() < SETUP_MAX_REPS && (walls.len() < min_reps || total < SETUP_BURST_S) {
            drop(built.take());
            let t = now();
            built = Some((self.build)(&mut self.spans));
            let wall = t.elapsed().as_secs_f64();
            walls.push(wall);
            total += wall;
        }
        self.bursts
            .entry("setup_s")
            .or_default()
            .push(median(&walls));
        for (name, xs) in std::mem::take(&mut self.spans.0) {
            self.bursts.entry(name).or_default().push(median(&xs));
        }
        // fiveg-lint: allow(U001) -- invariant: min_reps >= 1, so the loop runs
        built.expect("a burst builds at least once")
    }

    /// Records `setup_s` and the sub-spans.
    pub fn record(&self, ledger: &mut Ledger) {
        for (name, medians) in &self.bursts {
            ledger.set(name, medians.iter().sum::<f64>() / medians.len() as f64);
        }
    }
}

/// How an iteration of the timed loop runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// As a user runs it: no benchmark spans inside the timed region.
    Plain,
    /// With the benchmark's layer spans around calls into the program.
    Spanned,
}

/// One timed iteration.
#[derive(Debug)]
pub struct Iter<T> {
    /// How it ran.
    pub mode: Mode,
    /// Its wall time, seconds.
    pub wall: f64,
    /// The process CPU time it used, all threads, seconds.
    pub cpu: f64,
    /// Peak resident memory of the process so far, megabytes.
    pub peak_rss_mb: f64,
    /// What the workload returned.
    pub out: T,
}

/// CPU time the plain iterations of a run use at least: ten of the
/// kernel's 10 ms ticks, so that `cpu_s` of a short input is not 0.
const MIN_PLAIN_CPU_S: f64 = 0.1;

/// Runs `f` repeatedly for `ctx.seconds`, and until the plain iterations
/// have used [`MIN_PLAIN_CPU_S`] of CPU time, with a set-up burst after
/// every iteration. Traced runs alternate plain and spanned iterations
/// and end on a complete pair.
pub fn iterate<T, B, F: FnMut(&mut Spans) -> B>(
    ctx: &Ctx,
    setup: &mut Setup<F>,
    mut f: impl FnMut(Mode) -> T,
) -> Vec<Iter<T>> {
    let start = now();
    let mut iters: Vec<Iter<T>> = Vec::new();
    loop {
        let mode = if ctx.trace && iters.len() % 2 == 1 {
            Mode::Spanned
        } else {
            Mode::Plain
        };
        let cpu0 = crate::host::cpu_s().unwrap_or(0.0);
        let t = now();
        let out = f(mode);
        let wall = t.elapsed().as_secs_f64();
        let cpu = crate::host::cpu_s().unwrap_or(0.0) - cpu0;
        let peak_rss_mb = crate::host::peak_rss_mb().unwrap_or(0.0);
        iters.push(Iter {
            mode,
            wall,
            cpu,
            peak_rss_mb,
            out,
        });
        setup.again();
        let pair_done = !ctx.trace || iters.len().is_multiple_of(2);
        let plain_cpu: f64 = iters
            .iter()
            .filter(|i| i.mode == Mode::Plain)
            .map(|i| i.cpu)
            .sum();
        let long_enough =
            start.elapsed().as_secs_f64() >= ctx.seconds && plain_cpu >= MIN_PLAIN_CPU_S;
        if pair_done && long_enough {
            return iters;
        }
    }
}

/// Maps `f` over `items` on `threads` scoped threads that claim items in
/// order from a shared counter. A thread keeps what `f` returned until
/// every thread has run out of items, then passes each of its results
/// through `finish`. So everything `f` returned is alive at once, however
/// the items fell to the threads. Results come back in input order, so
/// they do not depend on which thread ran which item.
pub fn par_map<T: Sync, M, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> M + Sync,
    finish: impl Fn(&T, M) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1);
    let next = AtomicUsize::new(0);
    let all_claimed = Barrier::new(threads);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    // A panic in `f` still reaches the barrier, so that
                    // the other threads do not wait for this one forever.
                    let claimed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            mine.push((i, f(item)));
                        }
                        mine
                    }));
                    all_claimed.wait();
                    let mine = claimed.unwrap_or_else(|e| std::panic::resume_unwind(e));
                    mine.into_iter()
                        .map(|(i, m)| (i, finish(&items[i], m)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f` once and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// The cost of reading the clock twice, nanoseconds (median of many
/// back-to-back reads): subtracted from each span so that spans around
/// short calls do not count the clock itself.
pub fn clock_floor_ns() -> f64 {
    let reads: Vec<f64> = (0..2001)
        .map(|_| {
            let t = now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&reads)
}

/// Median over the iterations of `mode` of `value(iteration)`.
pub fn median_of<T>(iters: &[Iter<T>], mode: Mode, value: impl Fn(&Iter<T>) -> f64) -> f64 {
    let xs: Vec<f64> = iters.iter().filter(|i| i.mode == mode).map(value).collect();
    median(&xs)
}

/// Records the metrics every workload reports from its timed loop:
/// `cpu_s`, the CPU time of a plain iteration, as the mean over the
/// plain iterations (the kernel counts CPU time in 10 ms ticks, so a
/// median would read the same tick count run after run); `wall_s` as
/// their median; `peak_rss_mb` through set-up and the first iteration
/// (one pass of the workload: later passes only repeat it for timing,
/// while the allocator's heap slowly fragments); and, in traced runs,
/// the spans' own cost as `bench.span_overhead_frac`.
pub fn record_loop<T>(out: &mut Outcome, iters: &[Iter<T>]) {
    let ledger = &mut out.ledger;
    let plain: Vec<&Iter<T>> = iters.iter().filter(|i| i.mode == Mode::Plain).collect();
    out.walls = plain.iter().map(|i| i.wall).collect();
    out.cpus = plain.iter().map(|i| i.cpu).collect();
    let wall = median(&out.walls);
    ledger.set("wall_s", wall);
    ledger.set(
        "cpu_s",
        out.cpus.iter().sum::<f64>() / out.cpus.len() as f64,
    );
    ledger.set("peak_rss_mb", iters[0].peak_rss_mb);
    if iters.iter().any(|i| i.mode == Mode::Spanned) {
        let spanned = median_of(iters, Mode::Spanned, |i| i.wall);
        ledger.set("bench.span_overhead_frac", spanned / wall - 1.0);
    }
}

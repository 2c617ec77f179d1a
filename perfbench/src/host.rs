//! The host fingerprint, the thread settings the benchmark forces, and
//! process-level measurements (peak memory).

use std::fmt::Write as _;
use std::path::Path;

/// Thread settings every workload runs under, forced by the benchmark
/// rather than inherited from the caller's environment.
#[derive(Debug, Clone, Copy)]
pub struct Threads {
    /// Host parallelism.
    pub nproc: usize,
    /// Worker threads: campaign workers of `quick-campaign`, flow
    /// workers of `des-flows` and grid-chunk workers of `city-coverage`.
    pub workers: usize,
    /// `FIVEG_SWEEP_THREADS`: grid-sweep fan-out inside campaign jobs.
    pub sweep_threads: usize,
    /// `FIVEG_SHARDS`, and the shard count of `fleet-city`.
    pub shards: usize,
}

impl Threads {
    /// Two-way parallelism where the host has it; never above `nproc`.
    /// Sweeps inside campaign jobs stay serial so the workers alone use
    /// the cores. Spreading a workload over both cores also averages the
    /// cores' speeds: on a shared host one core can run 30% slower than
    /// the other for a minute at a time.
    pub fn pinned() -> Threads {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let two = nproc.min(2);
        Threads {
            nproc,
            workers: two,
            sweep_threads: 1,
            shards: two,
        }
    }

    /// Exports the settings `fiveg_core::par` reads. Must run before any
    /// program code: `par` resolves each variable once per process.
    pub fn export(self) {
        std::env::set_var("FIVEG_SWEEP_THREADS", self.sweep_threads.to_string());
        std::env::set_var("FIVEG_SHARDS", self.shards.to_string());
    }
}

/// Reads `HEAD` of the git checkout at `root` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// Puts the system allocator into the state a long-running process
/// reaches after it first frees a large block, before any program code
/// runs.
///
/// glibc's malloc serves large blocks with `mmap` and raises that size
/// threshold each time it frees such a block; until the threshold
/// settles, whether a block is mapped or taken from the heap (and so the
/// peak resident size) depends on the exact order of earlier frees.
/// Freeing one block just under the threshold's ceiling (32 MiB) settles
/// it at once, so `peak_rss_mb` measures the workload rather than that
/// history. Elsewhere this is a harmless allocation; the zeroed block is
/// never touched, so it adds nothing to the resident size.
pub fn settle_allocator() {
    const CEILING: usize = 32 << 20;
    drop(std::hint::black_box(vec![0u8; CEILING - (64 << 10)]));
}

/// CPU time this process has used so far, all threads together
/// (ended ones too), user plus system, in seconds.
///
/// The kernel keeps each thread's run time in nanoseconds and prints the
/// process total in clock ticks of 10 ms (`USER_HZ`, 100 on Linux).
/// Time the hypervisor gives to other guests (steal) is not counted.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces:
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size of this process, in megabytes (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// The host fingerprint (nproc, CPU model, rustc version, git commit
/// of the checkout at `root`, build profile, target) and the forced
/// thread settings, as one JSON object.
pub fn describe(root: &Path, threads: Threads) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = git_commit(root).unwrap_or_else(|| "unknown".to_string());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"nproc\": {}, \"cpu\": {cpu:?}, \"rustc\": {:?}, \"commit\": {commit:?}, \
         \"profile\": {:?}, \"target\": \"{}/{}\", \"workers\": {}, \
         \"FIVEG_SWEEP_THREADS\": {}, \"FIVEG_SHARDS\": {}}}",
        threads.nproc,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        std::env::consts::OS,
        std::env::consts::ARCH,
        threads.workers,
        threads.sweep_threads,
        threads.shards
    );
    s
}

//! What every result is stamped with: host, toolchain, source, inputs.

use std::path::{Path, PathBuf};

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Appends every file under `dir`, in path order, to `bytes`. Hashed, it
/// identifies the measured source where the checkout is not a git
/// repository.
fn tree_bytes(dir: &Path, bytes: &mut Vec<u8>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            tree_bytes(&path, bytes);
        } else if let Ok(content) = std::fs::read(&path) {
            bytes.extend_from_slice(path.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&content);
        }
    }
}

/// The stamp line: workload, seed, core count, worker threads, CPU model,
/// rustc version, git commit and a hash of the measured crates' sources.
pub fn line(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git repository names a commit; git
    // would otherwise report whatever repository encloses it.
    let git = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none".into());
    let mut source = Vec::new();
    tree_bytes(Path::new("crates"), &mut source);
    let quote = |s: &str| tevot_obs::json::Json::from(s).to_string();
    format!(
        "stamp {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"nproc\": {nproc}, \"jobs\": {}, \"cpu\": {}, \"rustc\": {}, \"git\": {}, \
         \"source_fnv\": \"{:016x}\"}}",
        quote(workload),
        u8::from(trace),
        tevot_par::jobs(),
        quote(&cpu),
        quote(&rustc),
        quote(&git),
        tevot_resil::codec::fnv1a64(&source),
    )
}

/// CPU time the hypervisor has taken from this machine since boot,
/// seconds summed over CPUs (the `steal` column of `/proc/stat`, in the
/// kernel's 100 Hz ticks); 0 where it is not reported.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// A reading of the hypervisor steal counter and when it was taken.
#[derive(Debug, Clone, Copy)]
pub struct StealMark(std::time::Instant, f64);

impl StealMark {
    pub fn now() -> StealMark {
        StealMark(std::time::Instant::now(), steal_s())
    }

    /// The share of the machine's CPU time stolen between `self` and
    /// `later`.
    pub fn frac_until(self, later: StealMark) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        let wall = (later.0 - self.0).as_secs_f64();
        (later.1 - self.1) / (wall * cpus).max(1e-9)
    }
}

/// Runs `f` and returns its result with the share of the machine's CPU
/// time the hypervisor stole meanwhile.
pub fn with_steal<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = StealMark::now();
    let out = f();
    (out, start.frac_until(StealMark::now()))
}

/// Resets the process's peak resident set to its current one, so the
/// next [`peak_rss_mb`] covers only what runs in between (Linux 4.0+; a
/// no-op elsewhere, where the peak stays cumulative).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

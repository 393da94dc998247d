//! `tevot-par` — a zero-dependency scoped thread-pool for the TEVoT
//! pipeline.
//!
//! The pipeline's hot loops are embarrassingly parallel: the
//! characterization stage simulates the same netlist independently per
//! (V, T) operating condition, per-clock error derivation and per-run
//! featurization are independent, and each tree of a random forest fits
//! on its own bootstrap sample. This crate parallelizes them with `std`
//! alone (the workspace's no-external-deps rule): [`map`] spins up a
//! scoped pool of workers (`std::thread::scope`), workers claim tasks
//! through a shared atomic cursor, and results travel back over an
//! `mpsc` channel into an **ordered reduction** — `map(items, f)` always
//! returns `f(item)` results in `items` order, so parallel output is
//! indistinguishable from serial output.
//!
//! # Determinism contract
//!
//! Every entry point guarantees that the result is **bit-identical**
//! regardless of the worker count, including `jobs = 1` (which runs
//! inline on the calling thread without spawning). Callers that need
//! randomness must derive one independent RNG per task *before* fanning
//! out (see `tevot_ml`'s per-tree splitmix seeds) — sharing one RNG
//! across tasks would reintroduce schedule dependence.
//!
//! # Job-count resolution
//!
//! The worker count comes from, in priority order:
//!
//! 1. an explicit [`set_jobs`] call (the CLI's `--jobs N` flag),
//! 2. the `TEVOT_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! # Observability
//!
//! Each worker thread opens a `par.worker` span, so with `--trace` every
//! worker gets its own lane in the exported Perfetto timeline; every
//! completed task increments the `par.tasks` counter.
//!
//! # Examples
//!
//! ```
//! let squares = tevot_par::map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! let same = tevot_par::map_with(1, &[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, same);
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use tevot_resil::{CancelToken, TevotError};

/// The per-task failpoint (`par.task`): a `panic` action simulates a
/// worker crashing mid-task, an `io` action is promoted to a panic too —
/// task closures are infallible, so any injected fault is a crash.
#[inline]
fn task_failpoint() {
    if let Err(e) = tevot_resil::fail::eval("par.task") {
        panic!("par.task: {e}");
    }
}

/// Explicit worker-count override; 0 means "not set, resolve lazily".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the global worker count (the CLI's `--jobs N`). `0` clears the
/// override, restoring `TEVOT_JOBS` / hardware resolution.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// Parses a `TEVOT_JOBS` value: a positive integer passes through, `0`
/// clamps to one worker (a zero-worker pool could never make progress),
/// and anything unparseable is ignored. Returns `(jobs, clamped)`.
fn parse_env_jobs(raw: &str) -> Option<(usize, bool)> {
    match raw.trim().parse::<usize>().ok()? {
        0 => Some((1, true)),
        n => Some((n, false)),
    }
}

/// The worker count parallel regions use: an explicit [`set_jobs`] value
/// if one was set, else `TEVOT_JOBS` (with `0` clamped to 1 — see
/// [`parse_env_jobs`]), else the hardware parallelism (1 when even that
/// is unknown).
pub fn jobs() -> usize {
    let explicit = JOBS.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Some((n, clamped)) = std::env::var("TEVOT_JOBS").ok().as_deref().and_then(parse_env_jobs)
    {
        if clamped {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                tevot_obs::warn!("TEVOT_JOBS=0 would be a zero-worker pool; clamping to 1 worker");
            });
        }
        return n;
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Runs `body` with the global worker count temporarily forced to
/// `jobs`, restoring the previous override afterwards (also on panic).
/// Meant for tests and benchmarks that compare serial against parallel
/// execution in one process.
pub fn with_jobs<R>(jobs: usize, body: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(JOBS.swap(jobs, Ordering::Relaxed));
    body()
}

/// Parallel ordered map with the global worker count (see [`jobs`]).
///
/// Equivalent to `items.iter().map(f).collect()` — same results, same
/// order — but spread over a scoped worker pool. See [`map_with`].
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_with(jobs(), items, f)
}

/// Parallel ordered map with an explicit worker count.
///
/// Spawns `min(jobs, items.len())` scoped workers; each claims the next
/// unprocessed index from a shared atomic cursor, computes `f(&item)`,
/// and sends `(index, result)` back over a channel. The caller slots
/// results by index, so the output order always matches `items` — the
/// ordered reduction that makes parallel runs bit-identical to serial
/// ones. With one worker (or one item) everything runs inline on the
/// calling thread: no threads, no channel, no overhead.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once all workers have
/// drained (the scope joins before unwinding continues).
pub fn map_with<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return items
            .iter()
            .map(|item| {
                task_failpoint();
                tevot_obs::metrics::PAR_TASKS.incr();
                f(item)
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || {
                // One span per worker: its own lane in the trace timeline
                // (worker threads are fresh, so each gets a fresh tid).
                let _lane = tevot_obs::span!("par.worker");
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    task_failpoint();
                    let result = f(&items[i]);
                    tevot_obs::metrics::PAR_TASKS.incr();
                    // The receiver outlives the scope body; a send can
                    // only fail while unwinding from a caller panic.
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut delivered = 0usize;
        for (i, result) in rx {
            slots[i] = Some(result);
            delivered += 1;
        }
        // A worker that panicked mid-task never delivers its claimed
        // index; surface the panic via the scope join instead of an
        // opaque unwrap below.
        if delivered < n {
            return None;
        }
        Some(slots.into_iter().map(|r| r.expect("every index delivered")).collect())
    })
    .expect("a parallel task panicked")
}

/// Cancellable parallel ordered map with the global worker count.
///
/// See [`map_cancellable_with`].
///
/// # Errors
///
/// [`tevot_resil::ErrorKind::Cancelled`] when `token` is cancelled
/// before every task has completed.
pub fn map_cancellable<T, R, F>(
    token: &CancelToken,
    items: &[T],
    f: F,
) -> Result<Vec<R>, TevotError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_cancellable_with(jobs(), token, items, f)
}

/// Cancellable parallel ordered map with an explicit worker count.
///
/// Identical to [`map_with`] — same ordered reduction, same determinism
/// contract, same panic propagation — except that workers check `token`
/// before claiming each task and stop claiming once it is cancelled.
/// In-flight tasks run to completion (cancellation is cooperative, not
/// preemptive), so a caller checkpointing per-task results keeps
/// everything finished before the abort.
///
/// # Errors
///
/// [`tevot_resil::ErrorKind::Cancelled`] when the token was cancelled
/// before every task completed; already-computed results are dropped
/// (the caller resumes from its checkpoints).
///
/// # Panics
///
/// A panic inside `f` propagates to the caller, as with [`map_with`].
pub fn map_cancellable_with<T, R, F>(
    jobs: usize,
    token: &CancelToken,
    items: &[T],
    f: F,
) -> Result<Vec<R>, TevotError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return items
            .iter()
            .map(|item| {
                token.check("parallel map")?;
                task_failpoint();
                tevot_obs::metrics::PAR_TASKS.incr();
                Ok(f(item))
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || {
                let _lane = tevot_obs::span!("par.worker");
                loop {
                    if token.is_cancelled() {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    task_failpoint();
                    let result = f(&items[i]);
                    tevot_obs::metrics::PAR_TASKS.incr();
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut delivered = 0usize;
        for (i, result) in rx {
            slots[i] = Some(result);
            delivered += 1;
        }
        if delivered < n {
            if token.is_cancelled() {
                return Some(Err(TevotError::cancelled(format!(
                    "parallel map cancelled after {delivered}/{n} tasks"
                ))));
            }
            // A worker panicked: let the scope join re-raise it.
            return None;
        }
        Some(Ok(slots.into_iter().map(|r| r.expect("every index delivered")).collect()))
    })
    .expect("a parallel task panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test that runs `map*` holds a no-op failpoint scope: it takes
    // the same exclusivity lock as the `par.task` fault test, so that
    // test's armed site can never fire inside another test's region.

    #[test]
    fn ordered_results_match_serial() {
        let _scope = tevot_resil::fail::scoped("");
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 16] {
            assert_eq!(map_with(jobs, &items, |&x| x * 3 + 1), serial, "jobs {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _scope = tevot_resil::fail::scoped("");
        let empty: Vec<u32> = Vec::new();
        assert!(map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(map_with(8, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let _scope = tevot_resil::fail::scoped("");
        assert_eq!(map_with(64, &[1u8, 2, 3], |&x| x as u32), vec![1, 2, 3]);
    }

    #[test]
    fn with_jobs_overrides_and_restores() {
        let before = JOBS.load(Ordering::Relaxed);
        let inside = with_jobs(3, jobs);
        assert_eq!(inside, 3);
        assert_eq!(JOBS.load(Ordering::Relaxed), before);
    }

    #[test]
    fn with_jobs_restores_on_panic() {
        let before = JOBS.load(Ordering::Relaxed);
        let caught = std::panic::catch_unwind(|| with_jobs(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(JOBS.load(Ordering::Relaxed), before);
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn env_jobs_zero_clamps_to_one_worker() {
        assert_eq!(parse_env_jobs("0"), Some((1, true)), "0 must clamp, not disable the pool");
        assert_eq!(parse_env_jobs(" 0 "), Some((1, true)));
        assert_eq!(parse_env_jobs("1"), Some((1, false)));
        assert_eq!(parse_env_jobs("8"), Some((8, false)));
        assert_eq!(parse_env_jobs("many"), None);
        assert_eq!(parse_env_jobs(""), None);
        assert_eq!(parse_env_jobs("-2"), None);
    }

    #[test]
    fn task_counter_advances() {
        let _scope = tevot_resil::fail::scoped("");
        let before = tevot_obs::metrics::PAR_TASKS.get();
        let _ = map_with(4, &[1u8, 2, 3, 4, 5], |&x| x);
        assert!(tevot_obs::metrics::PAR_TASKS.get() >= before + 5);
    }

    #[test]
    fn cancellable_map_matches_serial_when_not_cancelled() {
        let _scope = tevot_resil::fail::scoped("");
        let items: Vec<u64> = (0..101).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 7).collect();
        let token = CancelToken::new();
        for jobs in [1, 2, 4] {
            let out = map_cancellable_with(jobs, &token, &items, |&x| x * 7).unwrap();
            assert_eq!(out, serial, "jobs {jobs}");
        }
    }

    #[test]
    fn pre_cancelled_token_short_circuits() {
        let _scope = tevot_resil::fail::scoped("");
        let token = CancelToken::new();
        token.cancel();
        for jobs in [1, 4] {
            let e = map_cancellable_with(jobs, &token, &[1u32, 2, 3], |&x| x).unwrap_err();
            assert_eq!(e.kind(), tevot_resil::ErrorKind::Cancelled);
        }
    }

    #[test]
    fn mid_run_cancellation_stops_claiming() {
        let _scope = tevot_resil::fail::scoped("");
        let items: Vec<u32> = (0..10_000).collect();
        let token = CancelToken::new();
        let observed = AtomicUsize::new(0);
        let out = map_cancellable_with(4, &token, &items, |&x| {
            observed.fetch_add(1, Ordering::Relaxed);
            if x == 50 {
                token.cancel();
            }
            x
        });
        let e = out.unwrap_err();
        assert_eq!(e.kind(), tevot_resil::ErrorKind::Cancelled);
        assert!(
            observed.load(Ordering::Relaxed) < items.len(),
            "cancellation must stop workers before the whole input is processed"
        );
    }

    #[test]
    fn injected_task_fault_panics_like_a_crash() {
        let _scope = tevot_resil::fail::scoped("par.task=io#3");
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| map_with(2, &items, |&x| x));
        assert!(caught.is_err(), "injected par.task fault must crash the region");
    }

    #[test]
    fn worker_panic_propagates() {
        let _scope = tevot_resil::fail::scoped("");
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            map_with(4, &items, |&x| {
                if x == 7 {
                    panic!("task failure");
                }
                x
            })
        });
        assert!(caught.is_err(), "panic in a task must reach the caller");
    }
}

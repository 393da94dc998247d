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
//! indistinguishable from serial output. [`map_journaled`] is the sweep
//! driver on top: the same map, cancellable, with every finished task
//! journaled to a checkpoint shard so a killed sweep resumes where it
//! stopped.
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

use tevot_resil::checkpoint::CheckpointDir;
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
    ordered_map(jobs, None, items, f).expect("a map without a token is never cancelled")
}

/// [`map_cancellable_with`] with the global worker count.
///
/// # Errors
///
/// As for [`map_cancellable_with`].
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
/// [`map_with`], except that workers stop claiming tasks once `token`
/// is cancelled. In-flight tasks run to completion (cancellation is
/// cooperative), so a caller journaling per-task results keeps
/// everything finished before the abort.
///
/// # Errors
///
/// [`tevot_resil::ErrorKind::Cancelled`] when the token was cancelled
/// before every task completed; computed results are dropped.
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
    ordered_map(jobs, Some(token), items, f)
}

/// The one worker-pool body behind every map: without a token it never
/// checks a flag and never returns `Err`.
fn ordered_map<T, R, F>(
    jobs: usize,
    token: Option<&CancelToken>,
    items: &[T],
    f: F,
) -> Result<Vec<R>, TevotError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cancelled = || token.is_some_and(CancelToken::is_cancelled);
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return items
            .iter()
            .map(|item| {
                if let Some(token) = token {
                    token.check("parallel map")?;
                }
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
                // One span per worker: its own lane in the trace timeline
                // (worker threads are fresh, so each gets a fresh tid).
                let _lane = tevot_obs::span!("par.worker");
                loop {
                    if cancelled() {
                        break;
                    }
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
        if delivered < n {
            if cancelled() {
                return Some(Err(TevotError::cancelled(format!(
                    "parallel map cancelled after {delivered}/{n} tasks"
                ))));
            }
            // A worker panicked mid-task and never delivered its claimed
            // index: let the scope join re-raise the panic.
            return None;
        }
        Some(Ok(slots.into_iter().map(|r| r.expect("every index delivered")).collect()))
    })
    .expect("a parallel task panicked")
}

/// Where [`map_journaled`] commits each finished task, and how it codes
/// a task's result.
pub struct Journal<'a, T, R> {
    /// The checkpoint directory, already bound to the run's fingerprint.
    pub dir: &'a CheckpointDir,
    /// Shard-name prefix: task `i` is committed as shard `{prefix}cond-{i}`.
    pub prefix: String,
    /// Bit-exact payload encoder.
    pub to_bytes: fn(&R) -> Vec<u8>,
    /// Decoder for payloads written by `to_bytes`.
    pub from_bytes: fn(&[u8]) -> Result<R, TevotError>,
    /// Whether a restored payload is the result for its item; a shard
    /// that fails this (left by another grid) is recomputed.
    pub is_for: fn(&R, &T) -> bool,
}

impl<T, R> Journal<'_, T, R> {
    fn shard(&self, i: usize) -> String {
        format!("{}cond-{i}", self.prefix)
    }

    /// The journaled result of task `i`, if its shard verifies, decodes
    /// and belongs to `item`.
    fn restore(&self, i: usize, item: &T) -> Option<R> {
        let payload = self.dir.read_valid(&self.shard(i))?;
        let why = match (self.from_bytes)(&payload) {
            Ok(r) if (self.is_for)(&r, item) => return Some(r),
            Ok(_) => "it is for another condition".to_string(),
            Err(e) => e.to_string(),
        };
        tevot_obs::warn!("checkpoint: shard {} unusable ({why}); recomputing", self.shard(i));
        None
    }
}

/// The sweep driver: [`map_cancellable`] with every finished task
/// journaled to a checkpoint shard.
///
/// With a `journal`, a task whose shard restores is not recomputed, and
/// each computed result is committed *before* its progress tick, so a
/// killed or cancelled run resumes from its completed tasks with output
/// bit-identical to an uninterrupted one. Without one, no file is
/// touched. `label` names the progress bar and the resume message.
///
/// # Errors
///
/// [`tevot_resil::ErrorKind::Cancelled`] when `token` fires first
/// (completed shards stay on disk), and [`tevot_resil::ErrorKind::Io`]
/// when a shard cannot be written after retries.
pub fn map_journaled<T, R, F>(
    label: &str,
    journal: Option<&Journal<'_, T, R>>,
    token: &CancelToken,
    items: &[T],
    f: F,
) -> Result<Vec<R>, TevotError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let _span = tevot_obs::span!("sweep", "{label}: {} conditions", items.len());
    let mut results: Vec<Option<R>> = (items.iter().enumerate())
        .map(|(i, item)| journal.and_then(|j| j.restore(i, item)))
        .collect();
    let missing: Vec<usize> = (0..items.len()).filter(|&i| results[i].is_none()).collect();
    let restored = items.len() - missing.len();
    if restored > 0 {
        tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.add(restored as u64);
        tevot_obs::info!(
            "{label}: resuming, {restored} of {} conditions already checkpointed",
            items.len()
        );
    }

    let progress = tevot_obs::progress::Progress::new(label, missing.len() as u64);
    let computed = map_cancellable(token, &missing, |&i| {
        let result = f(&items[i]);
        let write = journal.map_or(Ok(()), |j| j.dir.write(&j.shard(i), &(j.to_bytes)(&result)));
        progress.tick();
        write.map(|()| result)
    })?;
    progress.finish();
    for (i, outcome) in missing.into_iter().zip(computed) {
        results[i] = Some(outcome?);
    }
    Ok(results.into_iter().map(|r| r.expect("every task filled")).collect())
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

    /// A journal of `(item, item² + 7)` payloads under `dir`.
    fn square_journal(dir: &CheckpointDir) -> Journal<'_, u64, (u64, u64)> {
        Journal {
            dir,
            prefix: "t-".into(),
            to_bytes: |&(x, y)| [x.to_le_bytes(), y.to_le_bytes()].concat(),
            from_bytes: |b| match (b.get(..8), b.get(8..)) {
                (Some(x), Some(y)) if y.len() == 8 => Ok((
                    u64::from_le_bytes(x.try_into().unwrap()),
                    u64::from_le_bytes(y.try_into().unwrap()),
                )),
                _ => Err(TevotError::corrupt(format!("{}-byte payload", b.len()))),
            },
            is_for: |r, &x| r.0 == x,
        }
    }

    fn square(&x: &u64) -> (u64, u64) {
        (x, x * x + 7)
    }

    fn journal_dir(tag: &str) -> CheckpointDir {
        let dir = std::env::temp_dir().join(format!("tevot_par_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointDir::open(dir).unwrap()
    }

    #[test]
    fn journaled_map_is_identical_at_any_jobs_and_resumes_without_recomputing() {
        let _scope = tevot_resil::fail::scoped("");
        let items: Vec<u64> = (0..23).collect();
        let serial: Vec<(u64, u64)> = items.iter().map(square).collect();
        let token = CancelToken::new();
        for jobs in [1, 4] {
            let dir = journal_dir(&format!("jobs{jobs}"));
            let journal = square_journal(&dir);
            let calls = AtomicUsize::new(0);
            let counted = |x: &u64| {
                calls.fetch_add(1, Ordering::Relaxed);
                square(x)
            };
            let run =
                || with_jobs(jobs, || map_journaled("t", Some(&journal), &token, &items, counted));
            assert_eq!(run().unwrap(), serial, "jobs {jobs}");
            assert_eq!(calls.swap(0, Ordering::Relaxed), items.len());

            let resumed_before = tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.get();
            assert_eq!(run().unwrap(), serial, "resumed at jobs {jobs}");
            assert_eq!(calls.load(Ordering::Relaxed), 0, "a full journal recomputes nothing");
            assert_eq!(
                tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.get(),
                resumed_before + items.len() as u64
            );
            std::fs::remove_dir_all(dir.path()).unwrap();
        }
    }

    #[test]
    fn truncated_and_foreign_shards_are_recomputed_bit_identically() {
        let _scope = tevot_resil::fail::scoped("");
        let items: Vec<u64> = (0..8).collect();
        let token = CancelToken::new();
        let dir = journal_dir("damaged");
        let journal = square_journal(&dir);
        let plain = map_journaled("t", Some(&journal), &token, &items, square).unwrap();
        let truncated = dir.shard_path("t-cond-2");
        let intact = std::fs::read(&truncated).unwrap();
        std::fs::write(&truncated, &intact[..intact.len() / 2]).unwrap();
        // A verified shard whose payload belongs to another item.
        std::fs::copy(dir.shard_path("t-cond-1"), dir.shard_path("t-cond-5")).unwrap();

        let recomputed = std::sync::Mutex::new(Vec::new());
        let resumed = with_jobs(4, || {
            map_journaled("t", Some(&journal), &token, &items, |x| {
                recomputed.lock().unwrap().push(*x);
                square(x)
            })
        })
        .unwrap();
        assert_eq!(resumed, plain);
        let mut recomputed = recomputed.into_inner().unwrap();
        recomputed.sort_unstable();
        assert_eq!(recomputed, vec![2, 5]);
        assert_eq!(std::fs::read(&truncated).unwrap(), intact, "the shard is rewritten exactly");
        std::fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn cancelled_journaled_map_keeps_earlier_shards_readable() {
        let _scope = tevot_resil::fail::scoped("");
        let items: Vec<u64> = (0..6).collect();
        let dir = journal_dir("cancel");
        let journal = square_journal(&dir);
        let plain =
            map_journaled("t", Some(&journal), &CancelToken::new(), &items, square).unwrap();
        std::fs::remove_file(dir.shard_path("t-cond-4")).unwrap();

        let cancelled = CancelToken::new();
        cancelled.cancel();
        for jobs in [1, 4] {
            let e = with_jobs(jobs, || {
                map_journaled("t", Some(&journal), &cancelled, &items, square).unwrap_err()
            });
            assert_eq!(e.kind(), tevot_resil::ErrorKind::Cancelled, "jobs {jobs}");
        }
        for i in [0, 1, 2, 3, 5] {
            assert!(dir.read_valid(&format!("t-cond-{i}")).is_some(), "shard {i}");
        }
        assert!(dir.read_valid("t-cond-4").is_none());
        let resumed = map_journaled("t", Some(&journal), &CancelToken::new(), &items, square);
        assert_eq!(resumed.unwrap(), plain);
        std::fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn unjournaled_map_writes_no_file() {
        let _scope = tevot_resil::fail::scoped("");
        let items: Vec<u64> = (0..9).collect();
        let written = tevot_obs::metrics::RESIL_CKPT_SHARDS_WRITTEN.get();
        let resumed = tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.get();
        for jobs in [1, 4] {
            let out =
                with_jobs(jobs, || map_journaled("t", None, &CancelToken::new(), &items, square));
            assert_eq!(out.unwrap(), items.iter().map(square).collect::<Vec<_>>());
        }
        assert_eq!(tevot_obs::metrics::RESIL_CKPT_SHARDS_WRITTEN.get(), written);
        assert_eq!(tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.get(), resumed);
    }
}

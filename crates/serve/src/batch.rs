//! Cross-connection request batching with admission control.
//!
//! Every prediction request — whatever connection it arrived on —
//! becomes a [`Job`] on one bounded MPSC queue. A single batcher thread
//! drains the queue into **microbatches**: it waits at most
//! `batch_wait` after the first job arrives (or until `batch` jobs are
//! queued, whichever is first), flattens all the batch's transitions
//! into one task list, and executes them on the `tevot-par` worker pool.
//! Per-request overhead (queue hops, pool wakeups) amortizes across the
//! batch, so throughput scales with cores while the `batch_wait` bound
//! keeps single-request latency predictable.
//!
//! **Determinism:** a prediction is a pure function of (model, condition,
//! transition), and `tevot_par::map_with` is an ordered reduction, so the
//! delays a job gets back are bit-identical regardless of batch
//! composition, batch size, or worker count — the property the serving
//! acceptance test pins against offline `tevot predict`.
//!
//! **Admission control:** the queue is a `sync_channel` with a hard
//! bound. When it is full, [`Batcher::submit`] fails fast with
//! [`Shed`] instead of blocking the connection thread — the HTTP layer
//! turns that into `503` + `Retry-After`. Each job may also carry a
//! deadline ([`tevot_resil::CancelToken`] + wall-clock instant): jobs
//! whose deadline passed while queued are answered with a `Cancelled`
//! error instead of being executed, so a backlog cannot make every
//! waiting client miss its budget for work it no longer wants.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tevot::TevotModel;
use tevot_obs::metrics::{SERVE_BATCH_JOBS, SERVE_QUEUE_DEPTH, SERVE_SHED};
use tevot_resil::{CancelToken, TevotError};
use tevot_timing::OperatingCondition;

/// A `(current, previous)` operand pair — the unit of prediction work.
pub type Transition = ((u32, u32), (u32, u32));

/// One queued prediction request: a model snapshot, a condition, and the
/// operand transitions to price.
struct Job {
    model: Arc<TevotModel>,
    cond: OperatingCondition,
    transitions: Vec<Transition>,
    token: CancelToken,
    deadline: Option<Instant>,
    /// Originating HTTP request id (0 when not from a request), carried
    /// through so batch-side trace events correlate with access logs.
    request_id: u64,
    reply: mpsc::Sender<Result<Vec<f64>, TevotError>>,
}

/// The queue is full (or the server is stopping): the request was shed
/// without being enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed;

impl std::fmt::Display for Shed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request shed: prediction queue is full")
    }
}

impl std::error::Error for Shed {}

/// Handle to the batching executor; dropping it (or calling
/// [`Batcher::shutdown`]) stops the batcher thread after the queue
/// drains.
#[derive(Debug)]
pub struct Batcher {
    tx: mpsc::SyncSender<Job>,
    depth: Arc<AtomicUsize>,
    stop: CancelToken,
    /// Taken by the batcher thread before it executes each batch; see
    /// [`Batcher::hold`].
    gate: Arc<Mutex<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Starts the batcher thread.
    ///
    /// * `jobs` — worker count for the per-batch `tevot-par` pool
    ///   (`0` resolves the global `--jobs`/`TEVOT_JOBS` setting).
    /// * `max_queue` — admission bound: jobs queued beyond this shed.
    /// * `batch` — maximum jobs merged into one microbatch.
    /// * `batch_wait` — how long to hold a microbatch open after its
    ///   first job, waiting for company.
    pub fn start(jobs: usize, max_queue: usize, batch: usize, batch_wait: Duration) -> Batcher {
        let (tx, rx) = mpsc::sync_channel::<Job>(max_queue.max(1));
        let depth = Arc::new(AtomicUsize::new(0));
        let stop = CancelToken::new();
        let thread_depth = Arc::clone(&depth);
        let thread_stop = stop.clone();
        let gate = Arc::new(Mutex::new(()));
        let thread_gate = Arc::clone(&gate);
        let batch = batch.max(1);
        let handle = std::thread::Builder::new()
            .name("tevot-serve-batcher".into())
            .spawn(move || {
                run_batcher(&rx, &thread_depth, &thread_stop, &thread_gate, jobs, batch, batch_wait)
            })
            .expect("spawn batcher thread");
        Batcher { tx, depth, stop, gate, handle: Some(handle) }
    }

    /// Holds the executor until the returned guard drops: the batcher
    /// still claims one batch, but waits for the guard before executing
    /// it and so claims no other. At most one batch plus a full queue
    /// are then accepted, and every later submission sheds — overload
    /// on demand, independent of how fast the host runs the model.
    pub fn hold(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one prediction job; returns the channel its result will
    /// arrive on. The model `Arc` is snapshotted here, so a registry
    /// hot-swap after submission cannot affect this job.
    ///
    /// # Errors
    ///
    /// [`Shed`] when the bounded queue is full or the batcher is
    /// stopping — the caller should answer `503` with `Retry-After`.
    #[allow(clippy::type_complexity)]
    pub fn submit(
        &self,
        model: Arc<TevotModel>,
        cond: OperatingCondition,
        transitions: Vec<Transition>,
        token: CancelToken,
        deadline: Option<Instant>,
        request_id: u64,
    ) -> Result<mpsc::Receiver<Result<Vec<f64>, TevotError>>, Shed> {
        if self.stop.is_cancelled() {
            SERVE_SHED.incr();
            return Err(Shed);
        }
        let (reply, result) = mpsc::channel();
        let job = Job { model, cond, transitions, token, deadline, request_id, reply };
        // Count the job in *before* it becomes visible to the batcher,
        // which decrements on dequeue — the other order can transiently
        // underflow the depth.
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match self.tx.try_send(job) {
            Ok(()) => {
                SERVE_QUEUE_DEPTH.record(depth as u64);
                Ok(result)
            }
            Err(mpsc::TrySendError::Full(_) | mpsc::TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                SERVE_SHED.incr();
                Err(Shed)
            }
        }
    }

    /// Jobs currently queued (submitted, not yet claimed by the batcher).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Stops accepting work, drains the queue (queued jobs are answered
    /// with `Cancelled`), and joins the batcher thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.cancel();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn run_batcher(
    rx: &mpsc::Receiver<Job>,
    depth: &AtomicUsize,
    stop: &CancelToken,
    gate: &Mutex<()>,
    jobs: usize,
    batch: usize,
    batch_wait: Duration,
) {
    let _lane = tevot_obs::span!("serve.batcher");
    loop {
        // Claim the batch's first job, polling for shutdown while idle.
        let first = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if stop.is_cancelled() {
                    break;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        depth.fetch_sub(1, Ordering::Relaxed);
        let mut jobs_in_batch = vec![first];
        let close_at = Instant::now() + batch_wait;
        while jobs_in_batch.len() < batch {
            let now = Instant::now();
            let Some(remaining) = close_at.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                break;
            };
            match rx.recv_timeout(remaining) {
                Ok(job) => {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    jobs_in_batch.push(job);
                }
                Err(_) => break,
            }
        }
        drop(gate.lock().unwrap_or_else(PoisonError::into_inner));
        execute_batch(jobs_in_batch, jobs);
    }
    // Shutdown: answer whatever is still queued instead of dropping it
    // silently (a dropped reply sender reads as an internal error).
    while let Ok(job) = rx.try_recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        let _ = job.reply.send(Err(TevotError::cancelled("server is shutting down")));
    }
}

/// Runs one microbatch: filters out jobs that are cancelled or past
/// their deadline, flattens the survivors' transitions into a single
/// ordered task list for `tevot-par`, and scatters results back per job.
fn execute_batch(batch: Vec<Job>, jobs: usize) {
    SERVE_BATCH_JOBS.record(batch.len() as u64);
    let now = Instant::now();
    let mut runnable = Vec::with_capacity(batch.len());
    for job in batch {
        let expired = job.deadline.is_some_and(|d| now >= d);
        if job.token.is_cancelled() || expired {
            let what = if expired { "deadline exceeded while queued" } else { "request cancelled" };
            let _ = job.reply.send(Err(TevotError::cancelled(what)));
        } else {
            runnable.push(job);
        }
    }
    if runnable.is_empty() {
        return;
    }
    // One task per transition, tagged with its job; `map_with` returns
    // results in task order, so per-job scatter is a linear walk.
    let flat: Vec<(usize, usize)> = runnable
        .iter()
        .enumerate()
        .flat_map(|(j, job)| (0..job.transitions.len()).map(move |t| (j, t)))
        .collect();
    for job in &runnable {
        // One timeline mark per executed job, correlated by request id.
        tevot_obs::trace::instant_id("serve.batch.job", job.request_id);
    }
    let workers = if jobs > 0 { jobs } else { tevot_par::jobs() };
    let delays = {
        let _span = tevot_obs::span!("serve.batch", "{} tasks", flat.len());
        tevot_par::map_with(workers, &flat, |&(j, t)| {
            let job = &runnable[j];
            let (current, previous) = job.transitions[t];
            job.model.predict_delay_ps(job.cond, current, previous)
        })
    };
    let mut cursor = 0usize;
    for job in &runnable {
        let n = job.transitions.len();
        let _ = job.reply.send(Ok(delays[cursor..cursor + n].to_vec()));
        cursor += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tevot::dta::Characterizer;
    use tevot::workload::random_workload;
    use tevot::{build_delay_dataset, FeatureEncoding, TevotParams};
    use tevot_netlist::fu::FunctionalUnit;
    use tevot_timing::ClockSpeedup;

    fn tiny_model() -> Arc<TevotModel> {
        let fu = FunctionalUnit::IntAdd;
        let w = random_workload(fu, 120, 7);
        let c = Characterizer::new(fu).characterize(
            OperatingCondition::new(0.9, 25.0),
            &w,
            &ClockSpeedup::PAPER,
        );
        let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
        let mut params = TevotParams::default();
        params.forest.num_trees = 2;
        let mut rng = SmallRng::seed_from_u64(7);
        Arc::new(TevotModel::train(&data, &params, &mut rng))
    }

    fn transitions(n: usize) -> Vec<Transition> {
        (0..n as u32).map(|i| ((i * 3 + 1, i * 5 + 2), (i * 3, i * 5))).collect()
    }

    #[test]
    fn batched_results_match_direct_prediction_at_any_shape() {
        let model = tiny_model();
        let cond = OperatingCondition::new(0.85, 50.0);
        let work = transitions(64);
        let direct: Vec<u64> = work
            .iter()
            .map(|&(cur, prev)| model.predict_delay_ps(cond, cur, prev).to_bits())
            .collect();
        for (batch, workers) in [(1, 1), (8, 4), (64, 4), (3, 2)] {
            let batcher = Batcher::start(workers, 128, batch, Duration::from_millis(2));
            let receivers: Vec<_> = work
                .chunks(5)
                .map(|chunk| {
                    batcher
                        .submit(
                            Arc::clone(&model),
                            cond,
                            chunk.to_vec(),
                            CancelToken::new(),
                            None,
                            0,
                        )
                        .expect("queue has room")
                })
                .collect();
            let got: Vec<u64> = receivers
                .into_iter()
                .flat_map(|rx| rx.recv().expect("reply").expect("ok"))
                .map(f64::to_bits)
                .collect();
            assert_eq!(got, direct, "batch {batch} workers {workers}");
            batcher.shutdown();
        }
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let model = tiny_model();
        let cond = OperatingCondition::new(0.9, 25.0);
        let batcher = Batcher::start(1, 2, 1, Duration::from_millis(50));
        // Hold the executor so the outcome cannot race on whether the
        // drain loop keeps pace with the submit loop.
        let held = batcher.hold();
        let mut shed = 0;
        let mut receivers = Vec::new();
        for _ in 0..64 {
            match batcher.submit(
                Arc::clone(&model),
                cond,
                transitions(1),
                CancelToken::new(),
                None,
                0,
            ) {
                Ok(rx) => receivers.push(rx),
                Err(Shed) => shed += 1,
            }
        }
        // One claimed batch of one job plus a 2-deep queue.
        assert!(receivers.len() <= 3, "{} accepted", receivers.len());
        assert!(shed > 0, "flooding a 2-deep queue must shed");
        drop(held);
        // Accepted jobs still complete.
        for rx in receivers {
            assert!(rx.recv().expect("reply").is_ok());
        }
        batcher.shutdown();
    }

    #[test]
    fn expired_deadline_jobs_are_cancelled_not_executed() {
        let model = tiny_model();
        let cond = OperatingCondition::new(0.9, 25.0);
        let batcher = Batcher::start(1, 8, 4, Duration::from_millis(1));
        let rx = batcher
            .submit(
                Arc::clone(&model),
                cond,
                transitions(4),
                CancelToken::new(),
                Some(Instant::now() - Duration::from_millis(1)),
                0,
            )
            .unwrap();
        let err = rx.recv().expect("reply").unwrap_err();
        assert_eq!(err.kind(), tevot_resil::ErrorKind::Cancelled);
        batcher.shutdown();
    }

    #[test]
    fn cancelled_token_jobs_are_answered() {
        let model = tiny_model();
        let cond = OperatingCondition::new(0.9, 25.0);
        let batcher = Batcher::start(1, 8, 4, Duration::from_millis(1));
        let token = CancelToken::new();
        token.cancel();
        let rx = batcher.submit(Arc::clone(&model), cond, transitions(2), token, None, 0).unwrap();
        let err = rx.recv().expect("reply").unwrap_err();
        assert_eq!(err.kind(), tevot_resil::ErrorKind::Cancelled);
        batcher.shutdown();
    }

    #[test]
    fn shutdown_answers_queued_jobs_and_rejects_new_ones() {
        let model = tiny_model();
        let cond = OperatingCondition::new(0.9, 25.0);
        let batcher = Batcher::start(1, 8, 1, Duration::from_millis(1));
        batcher.stop.cancel();
        // After the stop token fires, submissions shed.
        let err = batcher
            .submit(Arc::clone(&model), cond, transitions(1), CancelToken::new(), None, 0)
            .unwrap_err();
        assert_eq!(err, Shed);
        batcher.shutdown();
    }

    #[test]
    fn depth_returns_to_zero_after_drain() {
        let model = tiny_model();
        let cond = OperatingCondition::new(0.9, 25.0);
        let batcher = Batcher::start(2, 32, 8, Duration::from_millis(1));
        let receivers: Vec<_> = (0..16)
            .map(|_| {
                batcher
                    .submit(Arc::clone(&model), cond, transitions(2), CancelToken::new(), None, 0)
                    .unwrap()
            })
            .collect();
        for rx in receivers {
            rx.recv().unwrap().unwrap();
        }
        assert_eq!(batcher.depth(), 0);
        batcher.shutdown();
    }
}

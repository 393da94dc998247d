//! The global metrics registry: relaxed-atomic counters and fixed-bucket
//! histograms.
//!
//! The pipeline's counters and histograms are `static`s defined here, so
//! hot paths pay exactly one relaxed `fetch_add` per update and the
//! reporter can enumerate everything without locks. [`Counter`] and
//! [`Histogram`] are also usable stand-alone (tests, future subsystems);
//! only the statics in this module appear in reports.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone event counter. Updates are relaxed atomics: cheap on every
/// architecture and exact under concurrency (ordering of increments is
/// irrelevant for a sum).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A counter named `name` (dotted `subsystem.event` convention).
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (test isolation).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Maximum number of histogram slots (15 finite buckets + overflow).
pub const HISTOGRAM_SLOTS: usize = 16;

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`; one extra overflow bucket catches everything larger.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    counts: [AtomicU64; HISTOGRAM_SLOTS],
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bucket edges, which
    /// must be strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics (at compile time for statics) if more than
    /// `HISTOGRAM_SLOTS - 1` bounds are given.
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Histogram {
        assert!(bounds.len() < HISTOGRAM_SLOTS, "too many histogram bounds");
        Histogram {
            name,
            bounds,
            counts: [const { AtomicU64::new(0) }; HISTOGRAM_SLOTS],
            sum: AtomicU64::new(0),
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        let slot = self.bounds.partition_point(|&b| b < value);
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Per-bucket counts: one per bound, plus the trailing overflow
    /// bucket.
    pub fn counts(&self) -> Vec<u64> {
        self.counts[..=self.bounds.len()].iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of every recorded value (wraps at `u64::MAX`, which at
    /// microsecond resolution is ~585k years of recorded latency).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Zeroes every bucket (test isolation).
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Interpolated quantile estimate (`q` in `[0, 1]`); see
    /// [`quantile_from`]. `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from(self.bounds, &self.counts(), q)
    }
}

/// Interpolated quantile estimation over fixed-bucket histogram data.
///
/// `bounds[i]` is the inclusive upper edge of bucket `i`; `counts` has
/// one entry per bound plus a trailing overflow bucket. The estimate
/// assumes observations are uniformly spread inside their bucket and
/// interpolates linearly between the bucket's edges (bucket 0's lower
/// edge is 0). The overflow bucket has no upper edge, so quantiles that
/// land in it saturate at the last finite bound — a deliberate
/// under-estimate that keeps the result meaningful.
///
/// Returns `None` when `counts` sums to zero, and clamps `q` into
/// `[0, 1]`.
pub fn quantile_from(bounds: &[u64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let last_bound = bounds.last().copied().unwrap_or(0) as f64;
    let mut cum = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        if count > 0 && (cum + count) as f64 >= target {
            let Some(&hi) = bounds.get(i) else {
                return Some(last_bound); // overflow bucket: saturate
            };
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            let fraction = ((target - cum as f64) / count as f64).clamp(0.0, 1.0);
            return Some(lo + fraction * (hi as f64 - lo));
        }
        cum += count;
    }
    // Float round-off pushed the target past the cumulative total.
    Some(last_bound)
}

/// Interpolated quantile of an **ascending-sorted** sample (`q` in
/// `[0, 1]`, clamped).
///
/// Uses the same linear-interpolation convention as [`quantile_from`]
/// applied to exact samples: the rank `q * (n - 1)` is interpolated
/// between its neighbouring order statistics (the "R-7" estimator), so a
/// CLI percentile over raw delays and a `/metrics` histogram percentile
/// agree up to bucket resolution instead of disagreeing by a whole rank
/// the way a truncating index does.
///
/// Returns `None` on an empty sample. Unsorted input yields a
/// meaningless (but memory-safe) result.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let fraction = rank - lo as f64;
    Some(sorted[lo] + fraction * (sorted[hi.min(last)] - sorted[lo]))
}

// ---------------------------------------------------------------------
// The pipeline's registry.
// ---------------------------------------------------------------------

/// Input vectors played through the gate-level simulator.
pub static SIM_CYCLES: Counter = Counter::new("sim.cycles_simulated");
/// Scheduled events popped from the simulator's queue.
pub static SIM_EVENTS: Counter = Counter::new("sim.events_processed");
/// Gate re-evaluations triggered by fan-in changes.
pub static SIM_GATE_EVALS: Counter = Counter::new("sim.gate_evaluations");
/// Primary-output toggles recorded into cycle results.
pub static SIM_OUTPUT_TOGGLES: Counter = Counter::new("sim.output_toggles");
/// 64-vector blocks processed by the levelized engine's bit-parallel pass.
pub static SIM_LEV_BLOCKS: Counter = Counter::new("sim.levelized_blocks");
/// Whole-word (64 cycles at once) gate evaluations in the levelized
/// engine's value-propagation pass.
pub static SIM_LEV_WORD_EVALS: Counter = Counter::new("sim.levelized_word_evals");
/// Fan-in toggles consumed by the levelized engine's arrival-time
/// replay — the merge work it actually did, excluding cycles the
/// non-sensitized skip proved inert (comparable to
/// `sim.gate_evaluations`).
pub static SIM_LEV_REPLAY_EVALS: Counter = Counter::new("sim.levelized_replay_evals");
/// Cycles whose dynamic timing was reconstructed from a VCD dump.
pub static VCD_CYCLES_RECONSTRUCTED: Counter = Counter::new("vcd.cycles_reconstructed");
/// Value-change records parsed from VCD text.
pub static VCD_CHANGES_PARSED: Counter = Counter::new("vcd.changes_parsed");
/// Dataset rows featurized (Eq. 3 feature vectors built).
pub static CORE_ROWS_FEATURIZED: Counter = Counter::new("core.rows_featurized");
/// Model-based per-transition delay/error predictions served.
pub static CORE_PREDICTIONS: Counter = Counter::new("core.predictions");
/// Training iterations: trees fitted, boosting rounds, SVM epochs.
pub static ML_TRAIN_ITERATIONS: Counter = Counter::new("ml.train_iterations");
/// Internal nodes split while growing trees.
pub static ML_NODE_SPLITS: Counter = Counter::new("ml.node_splits");
/// Tasks executed by `tevot-par` parallel regions (any worker count).
pub static PAR_TASKS: Counter = Counter::new("par.tasks");
/// Faults fired by `tevot-resil` failpoints (chaos testing only).
pub static RESIL_FAULTS_INJECTED: Counter = Counter::new("resil.failpoints_fired");
/// I/O operations retried after a transient failure.
pub static RESIL_RETRIES: Counter = Counter::new("resil.retries");
/// Checkpoint shards atomically committed to disk.
pub static RESIL_CKPT_SHARDS_WRITTEN: Counter = Counter::new("resil.ckpt_shards_written");
/// Sweep conditions skipped on resume because a valid shard existed.
pub static RESIL_CKPT_SHARDS_RESUMED: Counter = Counter::new("resil.ckpt_shards_resumed");
/// HTTP requests accepted by `tevot-serve` (all endpoints).
pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
/// Requests shed by admission control (queue full → HTTP 503).
pub static SERVE_SHED: Counter = Counter::new("serve.shed");
/// Model registry hot-swaps completed (`POST /models/<name>`).
pub static SERVE_MODEL_SWAPS: Counter = Counter::new("serve.model_swaps");
/// Requests answered with an HTTP error status (4xx/5xx).
pub static SERVE_HTTP_ERRORS: Counter = Counter::new("serve.http_errors");
/// Clock recommendations issued by `tevot-dfs` controllers.
pub static DFS_DECISIONS: Counter = Counter::new("dfs.decisions");
/// Timing errors fed back into `tevot-dfs` controllers (oracle replays
/// and any other closed-loop observation source).
pub static DFS_ERRORS_OBSERVED: Counter = Counter::new("dfs.errors_observed");
/// Served requests replayed through the simulator oracle for shadow
/// scoring.
pub static WATCH_SHADOW_REPLAYS: Counter = Counter::new("watch.shadow_replays");

/// Dynamic delay of each simulated cycle, in picoseconds.
pub static SIM_CYCLE_DELAY_PS: Histogram = Histogram::new(
    "sim.cycle_delay_ps",
    &[250, 500, 750, 1000, 1500, 2000, 3000, 4000, 6000, 8000, 12000, 16000, 24000, 32000],
);
/// Output toggles per simulated cycle.
pub static SIM_TOGGLES_PER_CYCLE: Histogram =
    Histogram::new("sim.toggles_per_cycle", &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256]);
/// `POST /predict` wall-clock latency, in microseconds.
pub static SERVE_PREDICT_LATENCY_US: Histogram = Histogram::new(
    "serve.predict_latency_us",
    &[50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000],
);
/// `POST /ter` wall-clock latency, in microseconds.
pub static SERVE_TER_LATENCY_US: Histogram = Histogram::new(
    "serve.ter_latency_us",
    &[50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000],
);
/// `POST /dfs` wall-clock latency, in microseconds.
pub static SERVE_DFS_LATENCY_US: Histogram = Histogram::new(
    "serve.dfs_latency_us",
    &[50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000],
);
/// Jobs merged into each executed microbatch.
pub static SERVE_BATCH_JOBS: Histogram =
    Histogram::new("serve.batch_jobs", &[1, 2, 4, 8, 16, 32, 64, 128, 256]);
/// Prediction queue depth observed at each admission.
pub static SERVE_QUEUE_DEPTH: Histogram =
    Histogram::new("serve.queue_depth", &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);

static COUNTERS: [&Counter; 25] = [
    &SIM_CYCLES,
    &SIM_EVENTS,
    &SIM_GATE_EVALS,
    &SIM_OUTPUT_TOGGLES,
    &SIM_LEV_BLOCKS,
    &SIM_LEV_WORD_EVALS,
    &SIM_LEV_REPLAY_EVALS,
    &VCD_CYCLES_RECONSTRUCTED,
    &VCD_CHANGES_PARSED,
    &CORE_ROWS_FEATURIZED,
    &CORE_PREDICTIONS,
    &ML_TRAIN_ITERATIONS,
    &ML_NODE_SPLITS,
    &PAR_TASKS,
    &RESIL_FAULTS_INJECTED,
    &RESIL_RETRIES,
    &RESIL_CKPT_SHARDS_WRITTEN,
    &RESIL_CKPT_SHARDS_RESUMED,
    &SERVE_REQUESTS,
    &SERVE_SHED,
    &SERVE_MODEL_SWAPS,
    &SERVE_HTTP_ERRORS,
    &DFS_DECISIONS,
    &DFS_ERRORS_OBSERVED,
    &WATCH_SHADOW_REPLAYS,
];

static HISTOGRAMS: [&Histogram; 7] = [
    &SIM_CYCLE_DELAY_PS,
    &SIM_TOGGLES_PER_CYCLE,
    &SERVE_PREDICT_LATENCY_US,
    &SERVE_TER_LATENCY_US,
    &SERVE_DFS_LATENCY_US,
    &SERVE_BATCH_JOBS,
    &SERVE_QUEUE_DEPTH,
];

/// Every registered counter, in report order.
pub fn counters() -> &'static [&'static Counter] {
    &COUNTERS
}

/// Every registered histogram, in report order.
pub fn histograms() -> &'static [&'static Histogram] {
    &HISTOGRAMS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        static C: Counter = Counter::new("test.local");
        C.add(3);
        C.incr();
        assert_eq!(C.get(), 4);
        C.reset();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn histogram_bucketing_is_inclusive_on_upper_edges() {
        static H: Histogram = Histogram::new("test.hist", &[10, 20, 30]);
        H.record(0); // bucket 0 (<= 10)
        H.record(10); // bucket 0: edges are inclusive
        H.record(11); // bucket 1
        H.record(30); // bucket 2
        H.record(31); // overflow
        H.record(u64::MAX); // overflow
        assert_eq!(H.counts(), vec![2, 1, 1, 2]);
        assert_eq!(H.total(), 6);
    }

    #[test]
    fn histogram_sum_tracks_recorded_values() {
        static H: Histogram = Histogram::new("test.sum", &[10, 20]);
        H.record(3);
        H.record(15);
        H.record(100);
        assert_eq!(H.sum(), 118);
        H.reset();
        assert_eq!(H.sum(), 0);
    }

    #[test]
    fn quantiles_of_empty_histogram_are_none() {
        static H: Histogram = Histogram::new("test.q_empty", &[10, 20]);
        assert_eq!(H.quantile(0.5), None);
        assert_eq!(quantile_from(&[10, 20], &[0, 0, 0], 0.99), None);
    }

    #[test]
    fn quantiles_interpolate_within_a_single_bucket() {
        // 100 observations, all in the [0, 100] bucket: the estimate
        // spreads them uniformly, so p50 ~ 50, p90 ~ 90.
        let bounds = &[100u64];
        let counts = &[100u64, 0];
        assert_eq!(quantile_from(bounds, counts, 0.5), Some(50.0));
        assert_eq!(quantile_from(bounds, counts, 0.9), Some(90.0));
        assert_eq!(quantile_from(bounds, counts, 0.0), Some(0.0));
        assert_eq!(quantile_from(bounds, counts, 1.0), Some(100.0));
        // Out-of-range q clamps instead of extrapolating.
        assert_eq!(quantile_from(bounds, counts, 7.0), Some(100.0));
    }

    #[test]
    fn quantiles_cross_buckets_and_skip_empty_ones() {
        // Bucket edges 10 / 20 / 40; 10 obs in (20, 40], 10 in overflow.
        let bounds = &[10u64, 20, 40];
        let counts = &[0u64, 0, 10, 10];
        // p25 lands mid-way through the (20, 40] bucket.
        assert_eq!(quantile_from(bounds, counts, 0.25), Some(30.0));
        // p75 lands in the overflow bucket and saturates at the last
        // finite bound.
        assert_eq!(quantile_from(bounds, counts, 0.75), Some(40.0));
    }

    #[test]
    fn quantiles_all_overflow_saturate() {
        static H: Histogram = Histogram::new("test.q_overflow", &[5]);
        H.record(1_000);
        H.record(2_000);
        assert_eq!(H.quantile(0.5), Some(5.0));
        assert_eq!(H.quantile(0.99), Some(5.0));
    }

    #[test]
    fn quantile_sorted_interpolates_between_order_statistics() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), Some(10.0));
        assert_eq!(quantile_sorted(&sorted, 1.0), Some(40.0));
        // Rank 1.5: halfway between the 2nd and 3rd order statistics —
        // a truncating index would floor this to 20.0.
        assert_eq!(quantile_sorted(&sorted, 0.5), Some(25.0));
        // 0.99 * 3 is not exactly representable; compare with tolerance.
        let p99 = quantile_sorted(&sorted, 0.99).unwrap();
        assert!((p99 - 39.7).abs() < 1e-9, "p99 {p99}");
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7.0], 0.5), Some(7.0));
        // Out-of-range q clamps.
        assert_eq!(quantile_sorted(&sorted, 7.0), Some(40.0));
        assert_eq!(quantile_sorted(&sorted, -1.0), Some(10.0));
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = counters().iter().map(|c| c.name()).collect();
        names.extend(histograms().iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
    }
}

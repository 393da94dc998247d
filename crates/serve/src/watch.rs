//! The serve-side watch: what only the server can know about the model
//! it serves.
//!
//! A [`Watch`] holds three signals, all read through `GET /watch`
//! ([`Watch::to_json`]):
//!
//! * per-feature [`DriftWindow`]s (voltage, temperature, predicted
//!   delay) fed by every served `/predict` and `/dfs` request, scored
//!   when `/watch` is asked as PSI against the reference histograms
//!   persisted in the served model at train time;
//! * an optional **shadow sampler**: every `shadow_every`-th served
//!   transition is replayed through the gate-level simulator oracle on
//!   a dedicated thread, yielding a sliding-window live-accuracy signal
//!   (`shadow_accuracy`) that needs no labeled traffic;
//! * the slow-request **exemplars**: the per-stage breakdown of the
//!   [`MAX_EXEMPLARS`] slowest requests seen so far.
//!
//! Time series and alerting belong to the Prometheus scraper reading
//! `GET /metrics?format=prom`; the watch keeps no history of its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

use tevot::reference::ReferenceStats;
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::drift::{DriftWindow, PSI_ALERT_DEFAULT};
use tevot_obs::json::Json;
use tevot_obs::metrics::WATCH_SHADOW_REPLAYS;
use tevot_timing::{DelayModel, OperatingCondition};

use crate::batch::Transition;

/// Live observations per drift window.
const DRIFT_WINDOW: usize = 512;

/// Delay observations taken per request, so one huge batch cannot
/// flush the whole delay window.
const DELAYS_PER_REQUEST: usize = 64;

/// Queue bound between request threads and the shadow replay thread;
/// replays beyond it are dropped, never blocking a request.
const SHADOW_QUEUE: usize = 64;

/// Per-condition delay-annotation cache entries held by the shadow
/// thread (annotation is the expensive part of a replay).
const SHADOW_ANNOTATION_CACHE: usize = 8;

/// Watch tuning knobs; the defaults match the CLI's documented
/// defaults.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Replay every Nth served transition through the simulator oracle
    /// (`0` disables shadow sampling).
    pub shadow_every: u64,
    /// The functional unit the shadow oracle simulates (must match the
    /// unit the served model was trained on for the accuracy signal to
    /// mean anything).
    pub fu: FunctionalUnit,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig { shadow_every: 0, fu: FunctionalUnit::IntAdd }
    }
}

/// One transition queued for oracle replay, with the delay the model
/// served for it.
struct ShadowJob {
    cond: OperatingCondition,
    transition: Transition,
    predicted_ps: f64,
}

/// Number of slow-request exemplars retained (the k slowest requests
/// seen so far, by total latency).
pub const MAX_EXEMPLARS: usize = 8;

/// The per-stage span breakdown of one served request, retained when it
/// ranks among the slowest — the "what was this request doing" answer
/// `/watch` surfaces next to the latency quantiles.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Process-unique request id (matches `X-Request-Id`).
    pub request_id: u64,
    /// Endpoint that served the request (`/predict`, `/ter`).
    pub endpoint: &'static str,
    /// End-to-end handler latency, in microseconds.
    pub total_us: u64,
    /// `(stage, nanoseconds)` pairs in execution order.
    pub stages: Vec<(&'static str, u64)>,
    /// Wall-clock capture time, in ms since the epoch.
    pub at_ms: u64,
}

impl Exemplar {
    fn to_json(&self) -> Json {
        let stages = self
            .stages
            .iter()
            .map(|&(name, ns)| Json::obj(vec![("name", Json::from(name)), ("ns", Json::from(ns))]));
        Json::obj(vec![
            ("request_id", Json::from(self.request_id)),
            ("endpoint", Json::from(self.endpoint)),
            ("total_us", Json::from(self.total_us)),
            ("at_ms", Json::from(self.at_ms)),
            ("stages", Json::Arr(stages.collect())),
        ])
    }
}

/// Live drift windows, one per scored feature.
struct DriftState {
    voltage: DriftWindow,
    temperature: DriftWindow,
    delay_ps: DriftWindow,
}

/// The per-server watch state. Constructed by `Server::start` when
/// watching is configured and shared via `ServeState`.
pub struct Watch {
    config: WatchConfig,
    drift: Mutex<DriftState>,
    /// Live-accuracy samples, shared with the shadow thread (1.0 = the
    /// model's delay matched the oracle exactly).
    accuracy: Arc<Mutex<DriftWindow>>,
    shadow_tx: Option<SyncSender<ShadowJob>>,
    shadow_handle: Option<std::thread::JoinHandle<()>>,
    transition_seq: AtomicU64,
    exemplars: Mutex<Vec<Exemplar>>,
}

impl std::fmt::Debug for Watch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watch").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Watch {
    /// Builds the watch: empty drift windows and exemplar buffer, and —
    /// when `shadow_every > 0` — the shadow replay thread.
    pub fn new(config: WatchConfig) -> Watch {
        let accuracy = Arc::new(Mutex::new(DriftWindow::new(DRIFT_WINDOW)));
        let (shadow_tx, shadow_handle) = if config.shadow_every > 0 {
            let (tx, rx) = mpsc::sync_channel::<ShadowJob>(SHADOW_QUEUE);
            let fu = config.fu;
            let sink = Arc::clone(&accuracy);
            let handle = std::thread::Builder::new()
                .name("tevot-serve-shadow".into())
                .spawn(move || shadow_loop(&rx, fu, &sink))
                .expect("spawn shadow thread");
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        Watch {
            config,
            drift: Mutex::new(DriftState {
                voltage: DriftWindow::new(DRIFT_WINDOW),
                temperature: DriftWindow::new(DRIFT_WINDOW),
                delay_ps: DriftWindow::new(DRIFT_WINDOW),
            }),
            accuracy,
            shadow_tx,
            shadow_handle,
            transition_seq: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    /// Records one served `/predict` outcome into the drift windows:
    /// the request's operating condition and (a bounded prefix of) the
    /// delays the model answered.
    pub fn observe_predict(&self, cond: OperatingCondition, delays_ps: &[f64]) {
        let mut drift = self.drift.lock().unwrap_or_else(|e| e.into_inner());
        drift.voltage.push(cond.voltage());
        drift.temperature.push(cond.temperature());
        for &d in delays_ps.iter().take(DELAYS_PER_REQUEST) {
            drift.delay_ps.push(d);
        }
    }

    /// Picks the indices of `transitions` due for shadow replay (every
    /// `shadow_every`-th across all requests). Cheap when shadowing is
    /// off: one branch, no atomics.
    pub fn sample_for_shadow(&self, transitions: &[Transition]) -> Vec<(usize, Transition)> {
        let every = self.config.shadow_every;
        if every == 0 || self.shadow_tx.is_none() {
            return Vec::new();
        }
        let start = self.transition_seq.fetch_add(transitions.len() as u64, Ordering::Relaxed);
        transitions
            .iter()
            .enumerate()
            .filter(|(i, _)| (start + *i as u64).is_multiple_of(every))
            .map(|(i, &t)| (i, t))
            .collect()
    }

    /// Queues one sampled transition for oracle replay; drops silently
    /// when the shadow queue is full (a monitoring sample is never
    /// worth blocking a request for).
    pub fn shadow_submit(
        &self,
        cond: OperatingCondition,
        transition: Transition,
        predicted_ps: f64,
    ) {
        if let Some(tx) = &self.shadow_tx {
            match tx.try_send(ShadowJob { cond, transition, predicted_ps }) {
                Ok(()) | Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// The current `(voltage, temperature, delay)` PSI scores against
    /// `reference` (`None` per feature while either side lacks data).
    pub fn drift_scores(&self, reference: Option<&ReferenceStats>) -> [Option<f64>; 3] {
        let Some(reference) = reference else { return [None; 3] };
        let drift = self.drift.lock().unwrap_or_else(|e| e.into_inner());
        [
            drift.voltage.psi_against(&reference.voltage),
            drift.temperature.psi_against(&reference.temperature),
            drift.delay_ps.psi_against(&reference.delay_ps),
        ]
    }

    /// Mean of the shadow live-accuracy window (`None` before the first
    /// replay lands).
    pub fn mean_accuracy(&self) -> Option<f64> {
        let window = self.accuracy.lock().unwrap_or_else(|e| e.into_inner());
        let values = window.values();
        (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
    }

    /// Offers one request's breakdown to the slow-exemplar buffer: kept
    /// while there is room, otherwise it must beat the fastest retained
    /// exemplar. O(k) with k = [`MAX_EXEMPLARS`], no allocation on the
    /// reject path.
    pub fn observe_exemplar(&self, exemplar: Exemplar) {
        let mut buffer = self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        if buffer.len() < MAX_EXEMPLARS {
            buffer.push(exemplar);
            return;
        }
        if let Some(slot) = buffer.iter_mut().min_by_key(|e| e.total_us) {
            if exemplar.total_us > slot.total_us {
                *slot = exemplar;
            }
        }
    }

    /// The retained slow-request exemplars, slowest first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let buffer = self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<Exemplar> = buffer.clone();
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.request_id.cmp(&b.request_id)));
        out
    }

    /// The `GET /watch` payload (`tevot-watch/2`): drift scores
    /// against `reference`, shadow accuracy, and the slow-request
    /// exemplars.
    pub fn to_json(&self, reference: Option<&ReferenceStats>) -> Json {
        let [v, t, d] = self.drift_scores(reference);
        let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
        Json::obj(vec![
            ("schema", Json::from("tevot-watch/2")),
            ("reference_loaded", Json::Bool(reference.is_some())),
            (
                "drift",
                Json::obj(vec![
                    ("voltage_psi", opt(v)),
                    ("temperature_psi", opt(t)),
                    ("delay_psi", opt(d)),
                    ("psi_alert", Json::Num(PSI_ALERT_DEFAULT)),
                    ("shadow_accuracy", opt(self.mean_accuracy())),
                ]),
            ),
            // The slow-request exemplars, slowest first.
            ("exemplars", Json::Arr(self.exemplars().iter().map(Exemplar::to_json).collect())),
        ])
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        // Dropping the sender ends the shadow loop; join so no replay
        // outlives the server that sampled it.
        self.shadow_tx = None;
        if let Some(handle) = self.shadow_handle.take() {
            let _ = handle.join();
        }
    }
}

/// The shadow replay loop: re-simulates sampled transitions with the
/// gate-level oracle and scores the served delay against ground truth.
/// Accuracy is `1 - |predicted - truth| / truth`, clamped to `[0, 1]`.
fn shadow_loop(rx: &mpsc::Receiver<ShadowJob>, fu: FunctionalUnit, sink: &Mutex<DriftWindow>) {
    let netlist = fu.build();
    let model = DelayModel::tsmc45_like();
    let mut cache: Vec<(u64, tevot_timing::DelayAnnotation)> = Vec::new();
    while let Ok(job) = rx.recv() {
        let key = job.cond.voltage().to_bits() ^ job.cond.temperature().to_bits().rotate_left(17);
        let index = match cache.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                if cache.len() == SHADOW_ANNOTATION_CACHE {
                    cache.remove(0);
                }
                cache.push((key, model.annotate(&netlist, job.cond)));
                cache.len() - 1
            }
        };
        let ((a, b), (pa, pb)) = job.transition;
        let previous = fu.encode_operands(pa, pb);
        let current = fu.encode_operands(a, b);
        let truth =
            tevot_sim::replay_transition(&netlist, &cache[index].1, &previous, &current) as f64;
        let accuracy = if truth > 0.0 {
            (1.0 - (job.predicted_ps - truth).abs() / truth).clamp(0.0, 1.0)
        } else {
            // A zero-delay cycle (no output toggles): score the
            // prediction's absolute error against a 1 ps scale.
            (1.0 - job.predicted_ps.abs()).clamp(0.0, 1.0)
        };
        WATCH_SHADOW_REPLAYS.incr();
        sink.lock().unwrap_or_else(|e| e.into_inner()).push(accuracy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplar_buffer_keeps_the_k_slowest_and_serializes() {
        let watch = Watch::new(WatchConfig::default());
        for i in 0..(MAX_EXEMPLARS as u64 + 4) {
            watch.observe_exemplar(Exemplar {
                request_id: i + 1,
                endpoint: "/predict",
                total_us: 100 + i * 10,
                stages: vec![("parse", 1_000), ("batch", (100 + i * 10) * 1_000)],
                at_ms: 5_000 + i,
            });
        }
        let kept = watch.exemplars();
        assert_eq!(kept.len(), MAX_EXEMPLARS);
        // Slowest first, and the fastest requests were evicted.
        assert_eq!(kept[0].total_us, 100 + (MAX_EXEMPLARS as u64 + 3) * 10);
        assert!(kept.iter().all(|e| e.total_us >= 140), "{kept:?}");
        assert!(kept.windows(2).all(|w| w[0].total_us >= w[1].total_us));
        let doc = watch.to_json(None);
        let exemplars = doc.get("exemplars").and_then(Json::as_arr).expect("exemplars member");
        assert_eq!(exemplars.len(), MAX_EXEMPLARS);
        assert_eq!(exemplars[0].get("endpoint").and_then(Json::as_str), Some("/predict"));
        let stages = exemplars[0].get("stages").and_then(Json::as_arr).unwrap();
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("parse"));
    }

    #[test]
    fn drift_alert_fires_off_reference_and_stays_quiet_on() {
        let conditions = vec![tevot_timing::OperatingCondition::new(0.9, 25.0)];
        let delays: Vec<f64> = (500..600).map(f64::from).collect();
        let reference = ReferenceStats::collect(&conditions, &delays);
        let watch = Watch::new(WatchConfig::default());
        assert_eq!(watch.drift_scores(Some(&reference)), [None; 3], "no traffic, no score");

        // In-distribution traffic: same condition, delays spanning the
        // training-label range.
        for i in 0..100 {
            watch.observe_predict(OperatingCondition::new(0.9, 25.0), &[500.0 + f64::from(i)]);
        }
        for psi in watch.drift_scores(Some(&reference)) {
            let psi = psi.expect("every feature scored");
            assert!(psi < PSI_ALERT_DEFAULT, "clean traffic must stay below the level: {psi}");
        }

        // Off-reference condition: voltage and temperature far from the
        // training point.
        for _ in 0..200 {
            watch.observe_predict(OperatingCondition::new(0.7, 90.0), &[900.0]);
        }
        let doc = watch.to_json(Some(&reference));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tevot-watch/2"));
        assert_eq!(doc.get("reference_loaded"), Some(&Json::Bool(true)));
        let drift = doc.get("drift").unwrap();
        assert_eq!(drift.get("psi_alert").and_then(Json::as_f64), Some(PSI_ALERT_DEFAULT));
        assert!(drift.get("voltage_psi").and_then(Json::as_f64).unwrap() > PSI_ALERT_DEFAULT);
    }

    #[test]
    fn shadow_replay_scores_live_accuracy() {
        let watch = Watch::new(WatchConfig { shadow_every: 1, ..Default::default() });
        let cond = OperatingCondition::new(0.9, 25.0);
        let transitions: Vec<Transition> = vec![((3, 4), (0, 0)), ((7, 9), (3, 4))];
        let sampled = watch.sample_for_shadow(&transitions);
        assert_eq!(sampled.len(), 2, "shadow_every=1 samples everything");
        // A deliberately wrong prediction (0 ps) scores ~0 accuracy; the
        // oracle truth for these transitions is far from zero.
        for (_, t) in sampled {
            watch.shadow_submit(cond, t, 0.0);
        }
        // Poll until the shadow thread drains the queue.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mean = loop {
            if let Some(mean) = watch.mean_accuracy() {
                break mean;
            }
            assert!(std::time::Instant::now() < deadline, "shadow thread never reported");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert!(mean < 0.5, "a 0 ps prediction cannot score high accuracy: {mean}");
        assert!(WATCH_SHADOW_REPLAYS.get() >= 1);
    }

    #[test]
    fn sampling_every_nth_transition_is_global_across_requests() {
        let watch = Watch::new(WatchConfig { shadow_every: 3, ..Default::default() });
        let batch: Vec<Transition> = (0..4u32).map(|i| ((i, i), (0, 0))).collect();
        let first = watch.sample_for_shadow(&batch);
        let second = watch.sample_for_shadow(&batch);
        // Transitions 0..8 with every=3 → global indices 0, 3, 6.
        assert_eq!(first.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(second.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![2]);
    }
}

//! Endpoint handlers and the error-taxonomy → HTTP status mapping.
//!
//! | endpoint               | method | purpose                                   |
//! |------------------------|--------|-------------------------------------------|
//! | `/predict`             | POST   | delays (+ verdicts) for operand transitions |
//! | `/ter`                 | POST   | TER over a random workload at one condition |
//! | `/dfs`                 | POST   | adaptive-clock recommendations per transition |
//! | `/models`              | GET    | list registered model names               |
//! | `/models/<name>`       | POST   | hot-swap: (re)load a model from disk      |
//! | `/healthz`             | GET    | liveness + registered model count         |
//! | `/metrics`             | GET    | tevot-obs/1 snapshot + live queue depth   |
//! | `/metrics?format=prom` | GET    | Prometheus 0.0.4 text exposition          |
//! | `/watch`               | GET    | tevot-watch/2: drift, shadow accuracy, exemplars |
//!
//! Every request is assigned a process-unique **request id** at entry:
//! it is returned in an `X-Request-Id` header on every response,
//! embedded as `request_id` in every error body (including shed 503s
//! and deadline 504s), logged on the access line, and carried through
//! the batcher onto the trace timeline — one key correlates a client
//! complaint with logs, traces, and metrics.
//!
//! Request and response bodies are JSON via `tevot_obs::json`. Its f64
//! writer prints the shortest round-tripping decimal, so a delay served
//! over the wire parses back to the *bit-identical* f64 the model
//! produced — the parity guarantee the integration tests pin.
//!
//! Failures map the workspace [`ErrorKind`] taxonomy onto HTTP statuses
//! (see [`status_for`]): usage and parse errors are the client's fault
//! (400), an unreadable model path is 404, a corrupt model file is 422,
//! a deadline/cancellation is 504, and anything internal is 500. Load
//! shedding is not an error kind — the admission layer answers 503 with
//! `Retry-After` directly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use tevot::workload::random_workload;
use tevot::TevotModel;
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::json::{self, Json};
use tevot_obs::metrics::{
    DFS_DECISIONS, SERVE_DFS_LATENCY_US, SERVE_HTTP_ERRORS, SERVE_PREDICT_LATENCY_US,
    SERVE_REQUESTS, SERVE_TER_LATENCY_US,
};
use tevot_obs::report::Snapshot;
use tevot_resil::{CancelToken, ErrorKind, TevotError, Watchdog};
use tevot_timing::OperatingCondition;

use crate::batch::{Batcher, Transition};
use crate::http::{Request, Response};
use crate::registry::{valid_name, ModelRegistry};
use crate::watch::Watch;

/// The model name used when a request does not specify one.
pub const DEFAULT_MODEL: &str = "default";

/// Upper bound on transitions evaluated per request (either endpoint) —
/// admission control against a single request monopolizing the batcher.
pub const MAX_TRANSITIONS_PER_REQUEST: usize = 65_536;

/// The HTTP status for a classified [`TevotError`].
///
/// `Usage`/`Parse` are malformed client input (400); `Io` means a named
/// resource could not be read (404); `Corrupt` means the resource exists
/// but fails validation (422); `Cancelled` is a missed deadline (504);
/// `Internal` is ours (500).
pub fn status_for(kind: ErrorKind) -> u16 {
    match kind {
        ErrorKind::Usage | ErrorKind::Parse => 400,
        ErrorKind::Io => 404,
        ErrorKind::Corrupt => 422,
        ErrorKind::Cancelled => 504,
        ErrorKind::Internal => 500,
    }
}

/// Shared per-server state: the model registry and the batching executor.
#[derive(Debug)]
pub struct ServeState {
    /// The hot-swappable model registry.
    pub registry: ModelRegistry,
    batcher: Batcher,
    watch: OnceLock<Arc<Watch>>,
}

impl ServeState {
    /// State with an empty registry and a batcher of the given shape
    /// (see [`Batcher::start`]).
    pub fn new(jobs: usize, max_queue: usize, batch: usize, batch_wait: Duration) -> ServeState {
        ServeState {
            registry: ModelRegistry::new(),
            batcher: Batcher::start(jobs, max_queue, batch, batch_wait),
            watch: OnceLock::new(),
        }
    }

    /// Jobs currently queued for batching.
    pub fn queue_depth(&self) -> usize {
        self.batcher.depth()
    }

    /// Holds the batching executor until the guard drops (see
    /// [`Batcher::hold`]).
    pub fn hold_batcher(&self) -> MutexGuard<'_, ()> {
        self.batcher.hold()
    }

    /// Installs the watch (once; later calls are ignored). Done by
    /// `Server::start` when watching is configured.
    pub fn install_watch(&self, watch: Arc<Watch>) {
        let _ = self.watch.set(watch);
    }

    /// The installed watch, if any.
    pub fn watch(&self) -> Option<&Arc<Watch>> {
        self.watch.get()
    }
}

/// Process-wide request-id source; ids start at 1, so 0 reads as "not
/// from an HTTP request" in trace events.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The id of the request the current thread is serving; 0 outside a
    /// request. Lets deeply nested error paths stamp bodies without
    /// threading the id through every helper.
    static CURRENT_REQUEST_ID: Cell<u64> = const { Cell::new(0) };
}

/// Draws a fresh process-unique request id (also used by the connection
/// loop for protocol-level 400/413 responses that never reach
/// [`handle`]).
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// The id of the request currently being served on this thread (0
/// outside a request).
pub fn current_request_id() -> u64 {
    CURRENT_REQUEST_ID.with(Cell::get)
}

/// Dispatches one request to its handler and accounts the request and
/// error counters. This is the single entry point the connection loop
/// calls; it never panics on client input.
pub fn handle(state: &ServeState, req: &Request) -> Response {
    let id = next_request_id();
    CURRENT_REQUEST_ID.with(|cell| cell.set(id));
    SERVE_REQUESTS.incr();
    tevot_obs::trace::instant_id("serve.request", id);
    let response = route(state, req);
    if response.status >= 400 {
        SERVE_HTTP_ERRORS.incr();
    }
    tevot_obs::debug!("serve: {} {} -> {} id={id}", req.method, req.path, response.status);
    CURRENT_REQUEST_ID.with(|cell| cell.set(0));
    response.with_header("X-Request-Id", id.to_string())
}

fn route(state: &ServeState, req: &Request) -> Response {
    // Split an optional query string off the target; handlers that use
    // queries receive them, the rest match on the bare path.
    let (path, query) = req.path.split_once('?').unwrap_or((req.path.as_str(), ""));
    match (req.method.as_str(), path) {
        ("POST", "/predict") => timed(&SERVE_PREDICT_LATENCY_US, || predict(state, req)),
        ("POST", "/ter") => timed(&SERVE_TER_LATENCY_US, || ter(state, req)),
        ("POST", "/dfs") => timed(&SERVE_DFS_LATENCY_US, || dfs(state, req)),
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(state, query),
        ("GET", "/watch") => watch_endpoint(state),
        ("GET", "/models") => list_models(state),
        ("POST", path) if path.strip_prefix("/models/").is_some_and(|n| !n.is_empty()) => {
            swap_model(state, req)
        }
        (_, "/predict" | "/ter" | "/dfs" | "/healthz" | "/metrics" | "/watch" | "/models") => {
            error_response(405, "usage", &format!("method {} not allowed on {path}", req.method))
        }
        _ => error_response(404, "usage", &format!("no such endpoint {path:?}")),
    }
}

/// The value of `key` in a `k=v&k=v` query string.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn timed(latency: &tevot_obs::metrics::Histogram, f: impl FnOnce() -> Response) -> Response {
    let start = Instant::now();
    let response = f();
    latency.record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    response
}

/// An error body: `{"error": <message>, "kind": <taxonomy label>,
/// "request_id": <id>}` — the id is the correlation key for logs and
/// traces, present on every error path including shed and deadline.
fn error_response(status: u16, kind: &str, message: &str) -> Response {
    let body = Json::obj(vec![
        ("error", Json::from(message)),
        ("kind", Json::from(kind)),
        ("request_id", Json::from(current_request_id())),
    ])
    .to_string();
    Response::json(status, body)
}

fn error_from(e: &TevotError) -> Response {
    error_response(status_for(e.kind()), e.kind().label(), &e.to_string())
}

fn ok(members: Vec<(&str, Json)>) -> Response {
    Response::json(200, Json::obj(members).to_string())
}

// ---------------------------------------------------------------------
// Request-body field extraction (usage errors name the field).
// ---------------------------------------------------------------------

fn parse_body(req: &Request) -> Result<Json, TevotError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| TevotError::parse("request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(TevotError::usage("request body must be a JSON object"));
    }
    let doc = json::parse(text).map_err(|e| TevotError::parse(e.to_string()))?;
    match doc {
        Json::Obj(_) => Ok(doc),
        _ => Err(TevotError::usage("request body must be a JSON object")),
    }
}

fn req_f64(doc: &Json, key: &str) -> Result<f64, TevotError> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| TevotError::usage(format!("missing or non-numeric field {key:?}")))
}

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, TevotError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            TevotError::usage(format!("field {key:?} must be a non-negative integer"))
        }),
    }
}

fn opt_u32(doc: &Json, key: &str) -> Result<Option<u32>, TevotError> {
    match opt_u64(doc, key)? {
        None => Ok(None),
        Some(v) => u32::try_from(v)
            .map(Some)
            .map_err(|_| TevotError::usage(format!("field {key:?} exceeds u32 range"))),
    }
}

fn req_u32(doc: &Json, key: &str) -> Result<u32, TevotError> {
    opt_u32(doc, key)?.ok_or_else(|| TevotError::usage(format!("missing operand field {key:?}")))
}

/// The `(voltage, temperature)` pair, validated before
/// [`OperatingCondition::new`] (which panics on nonsense by contract).
fn condition(doc: &Json) -> Result<OperatingCondition, TevotError> {
    let voltage = req_f64(doc, "voltage")?;
    let temperature = req_f64(doc, "temperature")?;
    if !voltage.is_finite() || voltage <= 0.0 {
        return Err(TevotError::usage(format!("voltage {voltage} is not a positive voltage")));
    }
    if !temperature.is_finite() {
        return Err(TevotError::usage(format!("temperature {temperature} is not finite")));
    }
    Ok(OperatingCondition::new(voltage, temperature))
}

/// Resolves the request's model (default [`DEFAULT_MODEL`]).
fn model_for(state: &ServeState, doc: &Json) -> Result<(String, Arc<TevotModel>), TevotError> {
    let name = match doc.get("model") {
        None | Some(Json::Null) => DEFAULT_MODEL,
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err(TevotError::usage("field \"model\" must be a string")),
    };
    let model = state.registry.get(name).ok_or_else(|| {
        TevotError::new(
            ErrorKind::Io,
            format!("unknown model {name:?} (registered: {:?})", state.registry.names()),
        )
    })?;
    Ok((name.to_string(), model))
}

/// The transitions of a `/predict` body: either a top-level single
/// `a`/`b` (+ optional `prev_a`/`prev_b`) or a `"transitions"` array of
/// such objects.
fn transitions_of(doc: &Json) -> Result<Vec<Transition>, TevotError> {
    let one = |obj: &Json| -> Result<Transition, TevotError> {
        let a = req_u32(obj, "a")?;
        let b = req_u32(obj, "b")?;
        let prev_a = opt_u32(obj, "prev_a")?.unwrap_or(0);
        let prev_b = opt_u32(obj, "prev_b")?.unwrap_or(0);
        Ok(((a, b), (prev_a, prev_b)))
    };
    let transitions = match doc.get("transitions") {
        Some(Json::Arr(items)) => items.iter().map(one).collect::<Result<Vec<_>, TevotError>>()?,
        Some(_) => return Err(TevotError::usage("field \"transitions\" must be an array")),
        None => vec![one(doc)?],
    };
    if transitions.is_empty() {
        return Err(TevotError::usage("\"transitions\" must not be empty"));
    }
    if transitions.len() > MAX_TRANSITIONS_PER_REQUEST {
        return Err(TevotError::usage(format!(
            "{} transitions exceed the per-request limit of {MAX_TRANSITIONS_PER_REQUEST}",
            transitions.len()
        )));
    }
    Ok(transitions)
}

/// Submits work to the batcher and waits for its reply, translating
/// shedding into 503 + `Retry-After`. The optional deadline arms a
/// [`Watchdog`] on the request's own [`CancelToken`].
fn run_batched(
    state: &ServeState,
    model: Arc<TevotModel>,
    cond: OperatingCondition,
    transitions: Vec<Transition>,
    deadline_ms: Option<u64>,
) -> Result<Vec<f64>, Response> {
    let token = CancelToken::new();
    let deadline = deadline_ms.map(Duration::from_millis);
    let _watchdog = deadline.map(|d| Watchdog::deadline(&token, d));
    let rx = state
        .batcher
        .submit(
            model,
            cond,
            transitions,
            token,
            deadline.map(|d| Instant::now() + d),
            current_request_id(),
        )
        .map_err(|_| {
            error_response(503, "shed", "prediction queue is full, try again shortly")
                .with_header("Retry-After", "1")
        })?;
    match rx.recv() {
        Ok(Ok(delays)) => Ok(delays),
        Ok(Err(e)) => Err(error_from(&e)),
        Err(_) => Err(error_response(500, "internal", "batch executor dropped the request")),
    }
}

/// Records one request's stage breakdown into the watch's slow-request
/// exemplar buffer (no-op when watching is off).
fn observe_exemplar(
    state: &ServeState,
    endpoint: &'static str,
    started: Instant,
    stages: Vec<(&'static str, u64)>,
) {
    if let Some(watch) = state.watch() {
        watch.observe_exemplar(crate::watch::Exemplar {
            request_id: current_request_id(),
            endpoint,
            total_us: started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            stages,
            at_ms: SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64),
        });
    }
}

fn stage_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

fn predict(state: &ServeState, req: &Request) -> Response {
    let started = Instant::now();
    let outcome = (|| {
        let doc = parse_body(req)?;
        let cond = condition(&doc)?;
        let clock = opt_u64(&doc, "clock_ps")?;
        let deadline_ms = opt_u64(&doc, "deadline_ms")?;
        let (name, model) = model_for(state, &doc)?;
        let transitions = transitions_of(&doc)?;
        Ok((name, model, cond, clock, deadline_ms, transitions))
    })();
    let parse_ns = stage_ns(started);
    let (name, model, cond, clock, deadline_ms, transitions) = match outcome {
        Ok(parts) => parts,
        Err(e) => return error_from(&e),
    };
    // Pick shadow-replay candidates before the batcher consumes the
    // transitions; usually empty, at most a handful of copies.
    let sampled = state.watch().map(|w| w.sample_for_shadow(&transitions)).unwrap_or_default();
    let batch_started = Instant::now();
    let delays = match run_batched(state, model, cond, transitions, deadline_ms) {
        Ok(delays) => delays,
        Err(response) => return response,
    };
    let batch_ns = stage_ns(batch_started);
    if let Some(watch) = state.watch() {
        watch.observe_predict(cond, &delays);
        for (i, transition) in sampled {
            // `get` rather than indexing: a model erroring mid-batch
            // could in principle answer short, and a sampling slip must
            // not panic the connection thread.
            if let Some(&delay) = delays.get(i) {
                watch.shadow_submit(cond, transition, delay);
            }
        }
    }
    let serialize_started = Instant::now();
    let mut members = vec![
        ("model", Json::from(name.as_str())),
        ("count", Json::from(delays.len() as u64)),
        ("delays_ps", Json::Arr(delays.iter().map(|&d| Json::Num(d)).collect())),
    ];
    if let Some(clock) = clock {
        let verdicts = delays.iter().map(|&d| Json::Bool(d > clock as f64)).collect();
        members.push(("clock_ps", Json::from(clock)));
        members.push(("erroneous", Json::Arr(verdicts)));
    }
    let response = ok(members);
    observe_exemplar(
        state,
        "/predict",
        started,
        vec![("parse", parse_ns), ("batch", batch_ns), ("serialize", stage_ns(serialize_started))],
    );
    response
}

fn ter(state: &ServeState, req: &Request) -> Response {
    let started = Instant::now();
    let outcome = (|| {
        let doc = parse_body(req)?;
        let cond = condition(&doc)?;
        let clock = opt_u64(&doc, "clock_ps")?
            .ok_or_else(|| TevotError::usage("missing or non-numeric field \"clock_ps\""))?;
        let deadline_ms = opt_u64(&doc, "deadline_ms")?;
        let (name, model) = model_for(state, &doc)?;
        let fu = match doc.get("fu") {
            None | Some(Json::Null) => FunctionalUnit::IntAdd,
            Some(Json::Str(s)) => FunctionalUnit::from_name(s).ok_or_else(|| {
                TevotError::usage(format!(
                    "unknown unit {s:?} (expected int-add | int-mul | fp-add | fp-mul)"
                ))
            })?,
            Some(_) => return Err(TevotError::usage("field \"fu\" must be a string")),
        };
        let vectors = opt_u64(&doc, "vectors")?.unwrap_or(400) as usize;
        if vectors < 2 {
            return Err(TevotError::usage("\"vectors\" must be at least 2 (one transition)"));
        }
        if vectors > MAX_TRANSITIONS_PER_REQUEST {
            return Err(TevotError::usage(format!(
                "{vectors} vectors exceed the per-request limit of {MAX_TRANSITIONS_PER_REQUEST}"
            )));
        }
        let seed = opt_u64(&doc, "seed")?.unwrap_or(0);
        Ok((name, model, cond, clock, deadline_ms, fu, vectors, seed))
    })();
    let parse_ns = stage_ns(started);
    let (name, model, cond, clock, deadline_ms, fu, vectors, seed) = match outcome {
        Ok(parts) => parts,
        Err(e) => return error_from(&e),
    };
    let work = random_workload(fu, vectors, seed);
    let ops = work.operands();
    let transitions: Vec<_> = (1..ops.len()).map(|t| (ops[t], ops[t - 1])).collect();
    let total = transitions.len();
    let workload_ns = stage_ns(started).saturating_sub(parse_ns);
    let batch_started = Instant::now();
    let delays = match run_batched(state, model, cond, transitions, deadline_ms) {
        Ok(delays) => delays,
        Err(response) => return response,
    };
    let batch_ns = stage_ns(batch_started);
    let errors = delays.iter().filter(|&&d| d > clock as f64).count();
    let response = ok(vec![
        ("model", Json::from(name.as_str())),
        ("fu", Json::from(fu.slug())),
        ("clock_ps", Json::from(clock)),
        ("transitions", Json::from(total as u64)),
        ("errors", Json::from(errors as u64)),
        ("ter", Json::Num(errors as f64 / total as f64)),
    ]);
    observe_exemplar(
        state,
        "/ter",
        started,
        vec![("parse", parse_ns), ("workload", workload_ns), ("batch", batch_ns)],
    );
    response
}

/// `POST /dfs`: predict-then-recommend-clock. The body is a `/predict`
/// body plus an optional `guardband_ps` margin (default 0); the answer
/// carries the predicted delays *and* the recommended periods
/// `t_clk_ps[i]` = [`tevot_dfs::recommended_t_clk_ps`]`(delays_ps[i],
/// guardband_ps)` — the same pure function the offline `tevot dfs`
/// command uses, so served recommendations are bit-identical to offline
/// ones. A model that carries a train-time reference block refuses
/// conditions outside its characterized (V, T) envelope with 422: a
/// clock recommendation extrapolated off-grid is unsafe to act on.
fn dfs(state: &ServeState, req: &Request) -> Response {
    let started = Instant::now();
    let outcome = (|| {
        let doc = parse_body(req)?;
        let cond = condition(&doc)?;
        let guardband_ps = match doc.get("guardband_ps") {
            None | Some(Json::Null) => 0.0,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| TevotError::usage("field \"guardband_ps\" must be a number"))?,
        };
        if !guardband_ps.is_finite() || guardband_ps < 0.0 {
            return Err(TevotError::usage(format!(
                "guardband_ps {guardband_ps} is not a non-negative margin"
            )));
        }
        let deadline_ms = opt_u64(&doc, "deadline_ms")?;
        let (name, model) = model_for(state, &doc)?;
        if let Some(reference) = model.reference() {
            if !tevot_dfs::condition_in_envelope(reference, cond) {
                return Err(TevotError::new(
                    ErrorKind::Corrupt,
                    format!(
                        "condition {cond} is outside the model's characterized (V, T) \
                         envelope; refusing to extrapolate a clock recommendation"
                    ),
                ));
            }
        }
        let transitions = transitions_of(&doc)?;
        Ok((name, model, cond, guardband_ps, deadline_ms, transitions))
    })();
    let parse_ns = stage_ns(started);
    let (name, model, cond, guardband_ps, deadline_ms, transitions) = match outcome {
        Ok(parts) => parts,
        Err(e) => return error_from(&e),
    };
    let batch_started = Instant::now();
    let delays = match run_batched(state, model, cond, transitions, deadline_ms) {
        Ok(delays) => delays,
        Err(response) => return response,
    };
    let batch_ns = stage_ns(batch_started);
    DFS_DECISIONS.add(delays.len() as u64);
    if let Some(watch) = state.watch() {
        watch.observe_predict(cond, &delays);
    }
    let serialize_started = Instant::now();
    let t_clks: Vec<Json> = delays
        .iter()
        .map(|&d| Json::from(tevot_dfs::recommended_t_clk_ps(d, guardband_ps)))
        .collect();
    let response = ok(vec![
        ("model", Json::from(name.as_str())),
        ("count", Json::from(delays.len() as u64)),
        ("guardband_ps", Json::Num(guardband_ps)),
        ("delays_ps", Json::Arr(delays.iter().map(|&d| Json::Num(d)).collect())),
        ("t_clk_ps", Json::Arr(t_clks)),
    ]);
    observe_exemplar(
        state,
        "/dfs",
        started,
        vec![("parse", parse_ns), ("batch", batch_ns), ("serialize", stage_ns(serialize_started))],
    );
    response
}

fn swap_model(state: &ServeState, req: &Request) -> Response {
    let name = req.path.strip_prefix("/models/").unwrap_or_default();
    if !valid_name(name) {
        return error_response(
            400,
            "usage",
            &format!("invalid model name {name:?} (want [A-Za-z0-9._-], at most 64 bytes)"),
        );
    }
    let path = match parse_body(req).and_then(|doc| match doc.get("path") {
        Some(Json::Str(s)) if !s.is_empty() => Ok(s.clone()),
        _ => Err(TevotError::usage("body must be {\"path\": \"<model file>\"}")),
    }) {
        Ok(path) => path,
        Err(e) => return error_from(&e),
    };
    match state.registry.load_from(name, std::path::Path::new(&path)) {
        Ok(()) => {
            tevot_obs::info!("serve: model {name:?} swapped from {path}");
            ok(vec![
                ("ok", Json::Bool(true)),
                ("model", Json::from(name)),
                ("path", Json::from(path.as_str())),
            ])
        }
        Err(e) => error_from(&TevotError::from(e).context(format!("load model from {path}"))),
    }
}

fn list_models(state: &ServeState) -> Response {
    let names = state.registry.names();
    ok(vec![("models", Json::Arr(names.iter().map(|n| Json::from(n.as_str())).collect()))])
}

fn healthz(state: &ServeState) -> Response {
    ok(vec![
        ("ok", Json::Bool(true)),
        ("models", Json::from(state.registry.len() as u64)),
        ("queue_depth", Json::from(state.queue_depth() as u64)),
    ])
}

/// The tevot-obs/1 snapshot, with the live queue depth appended as an
/// additive member (consumers of the versioned schema ignore it).
/// `?format=prom` switches to the Prometheus 0.0.4 text exposition.
fn metrics(state: &ServeState, query: &str) -> Response {
    match query_param(query, "format") {
        Some("prom") => Response {
            status: 200,
            headers: vec![(
                "Content-Type".into(),
                "text/plain; version=0.0.4; charset=utf-8".into(),
            )],
            body: tevot_obs::prom::render().into_bytes(),
        },
        Some(other) => error_response(400, "usage", &format!("unknown metrics format {other:?}")),
        None => {
            let mut doc = Snapshot::capture().to_json();
            if let Json::Obj(members) = &mut doc {
                members.push(("queue_depth".into(), Json::from(state.queue_depth() as u64)));
            }
            Response::json(200, doc.to_string())
        }
    }
}

/// The tevot-watch/2 payload: drift scores against the default model's
/// reference, shadow accuracy, and slow-request exemplars. 404 when the
/// server was started without watching.
fn watch_endpoint(state: &ServeState) -> Response {
    let Some(watch) = state.watch() else {
        return error_response(404, "usage", "watch is not enabled on this server");
    };
    let model = state.registry.get(DEFAULT_MODEL);
    let reference = model.as_deref().and_then(TevotModel::reference);
    Response::json(200, watch.to_json(reference).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tevot::dta::Characterizer;
    use tevot::{build_delay_dataset, FeatureEncoding, TevotParams};
    use tevot_timing::ClockSpeedup;

    fn tiny_model() -> TevotModel {
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
        TevotModel::train(&data, &params, &mut rng)
    }

    fn state_with_model() -> ServeState {
        let state = ServeState::new(1, 64, 8, Duration::from_millis(1));
        state.registry.insert(DEFAULT_MODEL, tiny_model());
        state
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), headers: vec![], body: vec![] }
    }

    fn body_json(response: &Response) -> Json {
        json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap()
    }

    #[test]
    fn status_mapping_covers_the_taxonomy() {
        assert_eq!(status_for(ErrorKind::Usage), 400);
        assert_eq!(status_for(ErrorKind::Parse), 400);
        assert_eq!(status_for(ErrorKind::Io), 404);
        assert_eq!(status_for(ErrorKind::Corrupt), 422);
        assert_eq!(status_for(ErrorKind::Cancelled), 504);
        assert_eq!(status_for(ErrorKind::Internal), 500);
    }

    #[test]
    fn predict_single_transition_matches_direct_model_call() {
        let state = state_with_model();
        let req =
            post("/predict", r#"{"voltage":0.9,"temperature":25,"clock_ps":1000,"a":3,"b":4}"#);
        let response = handle(&state, &req);
        assert_eq!(response.status, 200, "{:?}", String::from_utf8_lossy(&response.body));
        let doc = body_json(&response);
        let served = doc.get("delays_ps").and_then(Json::as_arr).unwrap()[0].as_f64().unwrap();
        let direct = state.registry.get(DEFAULT_MODEL).unwrap().predict_delay_ps(
            OperatingCondition::new(0.9, 25.0),
            (3, 4),
            (0, 0),
        );
        assert_eq!(served.to_bits(), direct.to_bits());
        let erroneous = doc.get("erroneous").and_then(Json::as_arr).unwrap();
        assert_eq!(erroneous[0], Json::Bool(direct > 1000.0));
    }

    #[test]
    fn predict_batch_body_returns_one_delay_per_transition() {
        let state = state_with_model();
        let req = post(
            "/predict",
            r#"{"voltage":0.85,"temperature":50,
                "transitions":[{"a":1,"b":2},{"a":3,"b":4,"prev_a":1,"prev_b":2}]}"#,
        );
        let response = handle(&state, &req);
        assert_eq!(response.status, 200);
        let doc = body_json(&response);
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("delays_ps").and_then(Json::as_arr).unwrap().len(), 2);
        // No clock_ps: no verdicts.
        assert!(doc.get("erroneous").is_none());
    }

    #[test]
    fn predict_usage_errors_are_400() {
        let state = state_with_model();
        for body in [
            "",
            "not json",
            "[1,2]",
            r#"{"voltage":0.9,"temperature":25}"#,
            r#"{"voltage":-1,"temperature":25,"a":1,"b":2}"#,
            r#"{"voltage":0.9,"temperature":25,"a":1}"#,
            r#"{"voltage":0.9,"temperature":25,"transitions":[]}"#,
            r#"{"voltage":0.9,"temperature":25,"a":99999999999,"b":2}"#,
        ] {
            let response = handle(&state, &post("/predict", body));
            assert_eq!(response.status, 400, "{body:?}");
        }
    }

    #[test]
    fn unknown_model_is_404() {
        let state = state_with_model();
        let req =
            post("/predict", r#"{"model":"nope","voltage":0.9,"temperature":25,"a":1,"b":2}"#);
        let response = handle(&state, &req);
        assert_eq!(response.status, 404);
        let doc = body_json(&response);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("io"));
    }

    #[test]
    fn ter_reports_error_fraction() {
        let state = state_with_model();
        let req = post(
            "/ter",
            r#"{"voltage":0.9,"temperature":25,"clock_ps":1,"fu":"int-add","vectors":50}"#,
        );
        let response = handle(&state, &req);
        assert_eq!(response.status, 200);
        let doc = body_json(&response);
        assert_eq!(doc.get("transitions").and_then(Json::as_u64), Some(49));
        // A 1 ps clock is slower than every possible delay: TER = 100%.
        assert_eq!(doc.get("ter").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn ter_rejects_vectors_below_two_and_unknown_units() {
        let state = state_with_model();
        for body in [
            r#"{"voltage":0.9,"temperature":25,"clock_ps":1000,"vectors":1}"#,
            r#"{"voltage":0.9,"temperature":25,"clock_ps":1000,"fu":"int-div"}"#,
            r#"{"voltage":0.9,"temperature":25}"#,
        ] {
            let response = handle(&state, &post("/ter", body));
            assert_eq!(response.status, 400, "{body:?}");
        }
    }

    #[test]
    fn dfs_recommendations_match_offline_arithmetic() {
        let state = state_with_model();
        let req = post(
            "/dfs",
            r#"{"voltage":0.9,"temperature":25,"guardband_ps":50,
                "transitions":[{"a":3,"b":4},{"a":7,"b":9,"prev_a":3,"prev_b":4}]}"#,
        );
        let response = handle(&state, &req);
        assert_eq!(response.status, 200, "{:?}", String::from_utf8_lossy(&response.body));
        let doc = body_json(&response);
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("guardband_ps").and_then(Json::as_f64), Some(50.0));
        let delays = doc.get("delays_ps").and_then(Json::as_arr).unwrap();
        let t_clks = doc.get("t_clk_ps").and_then(Json::as_arr).unwrap();
        let model = state.registry.get(DEFAULT_MODEL).unwrap();
        let cond = OperatingCondition::new(0.9, 25.0);
        for (i, (current, previous)) in [((3, 4), (0, 0)), ((7, 9), (3, 4))].iter().enumerate() {
            let direct = model.predict_delay_ps(cond, *current, *previous);
            assert_eq!(delays[i].as_f64().unwrap().to_bits(), direct.to_bits());
            assert_eq!(
                t_clks[i].as_u64().unwrap(),
                tevot_dfs::recommended_t_clk_ps(direct, 50.0),
                "served t_clk must be the shared pure function of the served delay"
            );
            assert!(t_clks[i].as_u64().unwrap() as f64 >= direct);
        }
    }

    #[test]
    fn dfs_usage_errors_are_400_with_request_ids() {
        let state = state_with_model();
        for body in [
            "",
            "not json",
            r#"{"voltage":0.9,"temperature":25}"#,
            r#"{"voltage":-1,"temperature":25,"a":1,"b":2}"#,
            r#"{"voltage":0.9,"temperature":25,"a":1,"b":2,"guardband_ps":-5}"#,
            r#"{"voltage":0.9,"temperature":25,"a":1,"b":2,"guardband_ps":"big"}"#,
            r#"{"voltage":0.9,"temperature":25,"transitions":[]}"#,
        ] {
            let response = handle(&state, &post("/dfs", body));
            assert_eq!(response.status, 400, "{body:?}");
            let doc = body_json(&response);
            assert!(
                doc.get("request_id").and_then(Json::as_u64).unwrap() > 0,
                "error body must carry the request id: {body:?}"
            );
        }
        // Unknown model: taxonomy Io → 404, same as /predict.
        let req = post("/dfs", r#"{"model":"nope","voltage":0.9,"temperature":25,"a":1,"b":2}"#);
        let response = handle(&state, &req);
        assert_eq!(response.status, 404);
        assert_eq!(body_json(&response).get("kind").and_then(Json::as_str), Some("io"));
        // And method misuse is 405, like the sibling endpoints.
        assert_eq!(handle(&state, &get("/dfs")).status, 405);
    }

    #[test]
    fn dfs_refuses_conditions_outside_the_model_envelope_with_422() {
        let state = ServeState::new(1, 64, 8, Duration::from_millis(1));
        let mut model = tiny_model();
        let grid = [
            OperatingCondition::new(0.81, 0.0),
            OperatingCondition::new(0.9, 50.0),
            OperatingCondition::new(1.0, 100.0),
        ];
        model.set_reference(tevot::reference::ReferenceStats::collect(
            &grid,
            &(1..=20).map(f64::from).collect::<Vec<_>>(),
        ));
        state.registry.insert(DEFAULT_MODEL, model);

        // In-envelope conditions (on and between grid points) serve.
        for body in [
            r#"{"voltage":0.9,"temperature":25,"a":1,"b":2}"#,
            r#"{"voltage":0.81,"temperature":0,"a":1,"b":2}"#,
        ] {
            assert_eq!(handle(&state, &post("/dfs", body)).status, 200, "{body:?}");
        }
        // Off-envelope conditions are refused as Corrupt → 422.
        let response =
            handle(&state, &post("/dfs", r#"{"voltage":0.6,"temperature":25,"a":1,"b":2}"#));
        assert_eq!(response.status, 422, "{:?}", String::from_utf8_lossy(&response.body));
        let doc = body_json(&response);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("corrupt"));
        assert!(doc.get("request_id").and_then(Json::as_u64).unwrap() > 0);
        // A model without a reference block (the usual tiny test model)
        // cannot judge the envelope and keeps serving everywhere.
        let free = state_with_model();
        let response =
            handle(&free, &post("/dfs", r#"{"voltage":0.6,"temperature":25,"a":1,"b":2}"#));
        assert_eq!(response.status, 200);
    }

    #[test]
    fn swap_model_maps_load_errors_to_4xx() {
        let state = state_with_model();
        // Unreadable path: Io → 404.
        let response =
            handle(&state, &post("/models/default", r#"{"path":"/nonexistent/m.tevot"}"#));
        assert_eq!(response.status, 404);
        assert_eq!(body_json(&response).get("kind").and_then(Json::as_str), Some("io"));
        // Corrupt file: Corrupt → 422.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tevot-serve-corrupt-{}.tevot", std::process::id()));
        std::fs::write(&path, b"not a model").unwrap();
        let body = format!(r#"{{"path":{}}}"#, Json::from(path.to_str().unwrap()));
        let response = handle(&state, &post("/models/default", &body));
        std::fs::remove_file(&path).ok();
        assert_eq!(response.status, 422);
        assert_eq!(body_json(&response).get("kind").and_then(Json::as_str), Some("corrupt"));
        // The original model keeps serving after both failures.
        let req = post("/predict", r#"{"voltage":0.9,"temperature":25,"a":1,"b":2}"#);
        assert_eq!(handle(&state, &req).status, 200);
    }

    #[test]
    fn swap_model_validates_names_and_bodies() {
        let state = state_with_model();
        let response = handle(&state, &post("/models/bad%20name", r#"{"path":"x"}"#));
        assert_eq!(response.status, 400);
        let response = handle(&state, &post("/models/ok", r#"{"nope":1}"#));
        assert_eq!(response.status, 400);
    }

    #[test]
    fn health_models_and_metrics_endpoints() {
        let state = state_with_model();
        let health = handle(&state, &get("/healthz"));
        assert_eq!(health.status, 200);
        assert_eq!(body_json(&health).get("ok"), Some(&Json::Bool(true)));

        let models = handle(&state, &get("/models"));
        let doc = body_json(&models);
        let names = doc.get("models").and_then(Json::as_arr).unwrap();
        assert_eq!(names[0].as_str(), Some(DEFAULT_MODEL));

        let metrics = handle(&state, &get("/metrics"));
        assert_eq!(metrics.status, 200);
        let doc = body_json(&metrics);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tevot-obs/1"));
        assert!(doc.get("queue_depth").is_some());
    }

    #[test]
    fn unknown_routes_and_methods() {
        let state = state_with_model();
        assert_eq!(handle(&state, &get("/nope")).status, 404);
        assert_eq!(handle(&state, &get("/predict")).status, 405);
        assert_eq!(handle(&state, &post("/healthz", "")).status, 405);
        assert_eq!(handle(&state, &post("/models/", "")).status, 404);
    }

    #[test]
    fn immediate_deadline_is_504() {
        let state = state_with_model();
        let req =
            post("/predict", r#"{"voltage":0.9,"temperature":25,"a":1,"b":2,"deadline_ms":0}"#);
        // deadline_ms 0 expires before the batcher can claim the job.
        let response = handle(&state, &req);
        assert_eq!(response.status, 504, "{:?}", String::from_utf8_lossy(&response.body));
        let doc = body_json(&response);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("cancelled"));
        // Even the deadline path names the request that timed out.
        assert!(doc.get("request_id").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn responses_carry_matching_request_ids() {
        let state = state_with_model();
        let ok =
            handle(&state, &post("/predict", r#"{"voltage":0.9,"temperature":25,"a":1,"b":2}"#));
        let header = ok.headers.iter().find(|(n, _)| n == "X-Request-Id").expect("id on 200");
        let ok_id: u64 = header.1.parse().unwrap();
        assert!(ok_id > 0);

        let err = handle(&state, &post("/predict", "not json"));
        assert_eq!(err.status, 400);
        let body_id = body_json(&err).get("request_id").and_then(Json::as_u64).unwrap();
        let header_id: u64 = err
            .headers
            .iter()
            .find(|(n, _)| n == "X-Request-Id")
            .expect("id on 400")
            .1
            .parse()
            .unwrap();
        assert_eq!(body_id, header_id, "body and header must name the same request");
        // IDs are drawn from one monotonic process-wide counter.
        assert!(body_id > ok_id);
    }

    #[test]
    fn metrics_json_pins_field_order_and_histogram_quantiles() {
        let state = state_with_model();
        // At least one served prediction so the latency histogram has data.
        let warm =
            handle(&state, &post("/predict", r#"{"voltage":0.9,"temperature":25,"a":1,"b":2}"#));
        assert_eq!(warm.status, 200);
        let response = handle(&state, &get("/metrics"));
        assert_eq!(response.status, 200);
        let text = std::str::from_utf8(&response.body).unwrap();

        // Golden field order: the versioned document, then each histogram.
        let order = |hay: &str, keys: &[&str]| {
            let at: Vec<usize> = keys
                .iter()
                .map(|k| {
                    hay.find(&format!("\"{k}\"")).unwrap_or_else(|| panic!("missing field {k}"))
                })
                .collect();
            assert!(at.windows(2).all(|w| w[0] < w[1]), "field order changed: {keys:?}");
        };
        order(text, &["schema", "spans", "counters", "histograms", "queue_depth"]);
        let hist_section = &text[text.find("\"histograms\"").unwrap()..];
        order(hist_section, &["name", "bounds", "counts", "total", "p50", "p90", "p99"]);

        // The predict-latency histogram reports numeric, ordered quantiles.
        let doc = body_json(&response);
        let hists = doc.get("histograms").and_then(Json::as_arr).unwrap();
        let latency = hists
            .iter()
            .find(|h| h.get("name").and_then(Json::as_str) == Some("serve.predict_latency_us"))
            .expect("latency histogram is registered");
        let q = |name| latency.get(name).and_then(Json::as_f64).expect("numeric quantile");
        assert!(q("p50") <= q("p90") && q("p90") <= q("p99"));
    }

    #[test]
    fn metrics_prom_format_renders_parseable_exposition() {
        let state = state_with_model();
        let warm =
            handle(&state, &post("/predict", r#"{"voltage":0.9,"temperature":25,"a":1,"b":2}"#));
        assert_eq!(warm.status, 200);
        let response = handle(&state, &get("/metrics?format=prom"));
        assert_eq!(response.status, 200);
        let content_type = response.headers.iter().find(|(n, _)| n == "Content-Type").unwrap();
        assert_eq!(content_type.1, "text/plain; version=0.0.4; charset=utf-8");
        let text = std::str::from_utf8(&response.body).unwrap();
        let samples = tevot_obs::prom::parse(text).expect("server exposition must parse back");
        assert!(
            samples.iter().any(|s| s.name == "tevot_serve_requests_total" && s.value >= 1.0),
            "missing request counter in:\n{text}"
        );
        // Histograms arrive as cumulative buckets with the +Inf closer.
        assert!(samples.iter().any(|s| {
            s.name == "tevot_serve_predict_latency_us_bucket"
                && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
        }));
        // Unknown formats are a usage error, not a silent fallback.
        assert_eq!(handle(&state, &get("/metrics?format=nope")).status, 400);
    }

    #[test]
    fn watch_endpoint_is_404_until_installed_then_reports() {
        let state = state_with_model();
        assert_eq!(handle(&state, &get("/watch")).status, 404);

        state.install_watch(Arc::new(Watch::new(crate::watch::WatchConfig::default())));
        let response = handle(&state, &get("/watch"));
        assert_eq!(response.status, 200, "{:?}", String::from_utf8_lossy(&response.body));
        let doc = body_json(&response);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tevot-watch/2"));
        // The tiny test model carries no reference block.
        assert_eq!(doc.get("reference_loaded"), Some(&Json::Bool(false)));
        assert!(doc.get("drift").is_some());

        assert_eq!(handle(&state, &post("/watch", "")).status, 405);
    }

    #[test]
    fn slow_request_exemplars_surface_in_watch_payload() {
        let state = state_with_model();
        state.install_watch(Arc::new(Watch::new(crate::watch::WatchConfig::default())));
        let ok =
            handle(&state, &post("/predict", r#"{"voltage":0.9,"temperature":25,"a":1,"b":2}"#));
        assert_eq!(ok.status, 200);
        let response = handle(&state, &get("/watch"));
        let doc = body_json(&response);
        let exemplars = doc.get("exemplars").and_then(Json::as_arr).expect("exemplars member");
        assert!(!exemplars.is_empty(), "a served predict must leave an exemplar");
        let first = &exemplars[0];
        assert_eq!(first.get("endpoint").and_then(Json::as_str), Some("/predict"));
        assert!(first.get("request_id").and_then(Json::as_u64).unwrap() > 0);
        let stages = first.get("stages").and_then(Json::as_arr).unwrap();
        let names: Vec<_> =
            stages.iter().map(|s| s.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(names, ["parse", "batch", "serialize"]);
    }
}

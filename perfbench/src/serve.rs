//! Serving phases: a request schedule generated from the seed, driven in
//! open loop at fixed rates and in closed loop, at three entry points.
//!
//! * A — a client over loopback sockets to a running `Server` (what a
//!   user sees);
//! * B — `api::handle` called in-process on the same server state (no
//!   accept, no socket, no HTTP framing);
//! * C — `Batcher::submit` and a wait for the reply (no JSON either).
//!
//! Differencing the same schedule's latencies at A, B and C splits the
//! serve layer without adding tracing to it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tevot::TevotModel;
use tevot_obs::json::{self, Json};
use tevot_resil::CancelToken;
use tevot_serve::batch::Transition;
use tevot_serve::http::Request;
use tevot_serve::{Batcher, ServeConfig, ServeState, Server, WatchConfig, DEFAULT_MODEL};
use tevot_timing::OperatingCondition;

/// The fixed guardband every `/dfs` request carries, ps.
pub const GUARDBAND_PS: f64 = 50.0;

/// Client lanes: connections (A) or in-process callers (B, C). The host
/// has two cores, so two lanes plus the schedule thread.
pub const LANES: usize = 2;

/// Every k-th response of a socket phase is kept and checked bit for bit
/// against offline prediction.
pub const CHECK_EVERY: usize = 8;

/// Latency quantiles are taken per window of this many consecutive
/// requests, so a host stall moves only the windows it lands in. A window
/// of 100 leaves ten samples beyond its p90.
pub const WINDOW: usize = 100;

/// One generated request, in every form the three entry points take.
pub struct Req {
    pub cond: OperatingCondition,
    pub transitions: Vec<Transition>,
    pub clock_ps: Option<u64>,
    pub guardband_ps: Option<f64>,
    /// The full HTTP/1.1 request, for entry A.
    wire: Vec<u8>,
    /// The parsed request, for entry B.
    request: Request,
}

impl Req {
    fn new(
        path: &str,
        cond: OperatingCondition,
        transitions: Vec<Transition>,
        clock_ps: Option<u64>,
        guardband_ps: Option<f64>,
    ) -> Req {
        let items: Vec<String> = transitions
            .iter()
            .map(|&((a, b), (pa, pb))| {
                format!("{{\"a\":{a},\"b\":{b},\"prev_a\":{pa},\"prev_b\":{pb}}}")
            })
            .collect();
        let extra = match (clock_ps, guardband_ps) {
            (Some(clock), _) => format!(",\"clock_ps\":{clock}"),
            (None, Some(g)) => format!(",\"guardband_ps\":{g:?}"),
            (None, None) => String::new(),
        };
        let body = format!(
            "{{\"voltage\":{:?},\"temperature\":{:?}{extra},\"transitions\":[{}]}}",
            cond.voltage(),
            cond.temperature(),
            items.join(",")
        );
        let wire = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        let request = Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![("content-length".into(), body.len().to_string())],
            body: body.into_bytes(),
        };
        Req { cond, transitions, clock_ps, guardband_ps, wire, request }
    }
}

/// The request mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 4 random INT MUL transitions per `POST /predict`.
    Small,
    /// 256 transitions of the Sobel INT MUL operand stream per request,
    /// alternating `POST /predict` and `POST /dfs`.
    Bulk,
}

impl Shape {
    pub fn transitions(self) -> usize {
        match self {
            Shape::Small => 4,
            Shape::Bulk => 256,
        }
    }
}

/// A random operating condition inside the training grid's envelope,
/// on a 10 mV / 5 °C lattice.
fn random_condition(rng: &mut SmallRng) -> OperatingCondition {
    let v = f64::from(rng.gen_range(81u32..=100)) / 100.0;
    let t = 5.0 * f64::from(rng.gen_range(0u32..=20));
    OperatingCondition::new(v, t)
}

/// Generates `count` distinct requests of `shape` from `seed`.
pub fn generate(shape: Shape, count: usize, seed: u64) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E4E_0001);
    let n = shape.transitions();
    let stream: Vec<(u32, u32)> = match shape {
        Shape::Small => {
            tevot::workload::random_workload(crate::pipeline::FU, count * (n + 1), seed ^ 0x5E4E)
                .operands()
                .to_vec()
        }
        Shape::Bulk => {
            let corpus = tevot_imgproc::synth::synthetic_corpus(4, 48, 48, seed);
            let profile = tevot_imgproc::profile::profile_application(
                tevot_imgproc::Application::Sobel,
                &corpus,
                4 * (n + 1),
            );
            profile.workload(crate::pipeline::FU).operands().to_vec()
        }
    };
    assert!(stream.len() > n, "operand stream shorter than one request");
    (0..count)
        .map(|i| {
            let start = match shape {
                Shape::Small => i * (n + 1),
                Shape::Bulk => rng.gen_range(0..stream.len() - n),
            };
            let window = &stream[start..start + n + 1];
            let transitions: Vec<Transition> =
                (1..=n).map(|t| (window[t], window[t - 1])).collect();
            let cond = random_condition(&mut rng);
            let clock = rng.gen_range(1500u64..4500);
            if shape == Shape::Bulk && i % 2 == 1 {
                Req::new("/dfs", cond, transitions, None, Some(GUARDBAND_PS))
            } else {
                Req::new("/predict", cond, transitions, Some(clock), None)
            }
        })
        .collect()
}

/// The CLI-default server: watch on, shadow replay off.
pub fn cli_default_config() -> ServeConfig {
    ServeConfig { watch: Some(WatchConfig::default()), ..ServeConfig::default() }
}

/// `TevotModel::load_path` + `Server::start` until the first 200 from
/// `/healthz`: the serving set-up a user waits for. Returns the running
/// server and the seconds it took.
pub fn start_server(model_path: &Path) -> (Server, f64) {
    let t0 = Instant::now();
    let model = TevotModel::load_path(model_path).expect("load the freshly saved model");
    let server = Server::start(cli_default_config()).expect("bind a loopback port");
    server.state().registry.insert(DEFAULT_MODEL, model);
    let addr = server.local_addr().to_string();
    for _ in 0..1000 {
        if matches!(tevot_serve::http::get(&addr, "/healthz"), Ok((200, _))) {
            return (server, t0.elapsed().as_secs_f64());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("server on {addr} never answered /healthz");
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Shed,
    Error,
}

impl Status {
    fn of_http(code: u16) -> Status {
        match code {
            200 => Status::Ok,
            503 => Status::Shed,
            _ => Status::Error,
        }
    }
}

/// One request's record.
pub struct Record {
    /// Position in the phase's schedule.
    pub seq: usize,
    /// Index into the request pool.
    pub req: usize,
    /// Microseconds from when the request was due (open loop) or sent
    /// (closed loop) until its reply was complete.
    pub latency_us: f64,
    pub status: Status,
    /// The response body, kept for every [`CHECK_EVERY`]-th socket request.
    pub body: Option<Vec<u8>>,
}

/// One entry point's way of performing a request.
pub trait Lane {
    fn exchange(&mut self, req: &Req, keep: bool) -> (Status, Option<Vec<u8>>);
}

/// Entry A: a keep-alive loopback connection.
pub struct SocketLane {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl SocketLane {
    pub fn connect(addr: &str) -> SocketLane {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set a read timeout");
        let writer = stream.try_clone().expect("clone the client socket");
        SocketLane { writer, reader: BufReader::new(stream) }
    }

    fn roundtrip(&mut self, req: &Req) -> std::io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(&req.wire)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&line))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-response"));
            }
            let header = line.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad(header))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

impl Lane for SocketLane {
    fn exchange(&mut self, req: &Req, keep: bool) -> (Status, Option<Vec<u8>>) {
        match self.roundtrip(req) {
            Ok((code, body)) => (Status::of_http(code), keep.then_some(body)),
            Err(_) => (Status::Error, None),
        }
    }
}

/// Entry B: the HTTP handler, called in-process on the server's state.
pub struct ApiLane<'a>(pub &'a ServeState);

impl Lane for ApiLane<'_> {
    fn exchange(&mut self, req: &Req, keep: bool) -> (Status, Option<Vec<u8>>) {
        let response = tevot_serve::api::handle(self.0, &req.request);
        (Status::of_http(response.status), keep.then_some(response.body))
    }
}

/// Entry C: the batcher, submitted to directly and waited on.
pub struct BatchLane<'a> {
    pub batcher: &'a Batcher,
    pub model: &'a Arc<TevotModel>,
}

impl Lane for BatchLane<'_> {
    fn exchange(&mut self, req: &Req, _keep: bool) -> (Status, Option<Vec<u8>>) {
        let submitted = self.batcher.submit(
            Arc::clone(self.model),
            req.cond,
            req.transitions.clone(),
            CancelToken::new(),
            None,
            0,
        );
        match submitted {
            Ok(rx) => match rx.recv() {
                Ok(Ok(_)) => (Status::Ok, None),
                _ => (Status::Error, None),
            },
            Err(_) => (Status::Shed, None),
        }
    }
}

/// What one phase produced.
pub struct Phase {
    pub records: Vec<Record>,
    /// Open loop: how late the schedule thread dispatched each request, µs.
    pub late_us: Vec<f64>,
    /// Open loop: requests dispatched but not yet answered, at each dispatch.
    pub backlog: Vec<usize>,
    pub wall_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal_frac: f64,
    /// Open loop: the same share per window of [`WINDOW`] dispatches.
    pub window_steal: Vec<f64>,
}

impl Phase {
    pub fn ok_latencies_us(&self) -> Vec<f64> {
        self.records.iter().filter(|r| r.status == Status::Ok).map(|r| r.latency_us).collect()
    }

    /// For each window of [`WINDOW`] consecutive scheduled requests (a
    /// short last window joins the one before): the `q` quantile of its
    /// answered requests' latency, µs, and the steal share meanwhile.
    pub fn windows(&self, q: f64) -> Vec<(f64, f64)> {
        let n = (self.records.len() / WINDOW).max(1);
        let mut latencies = vec![Vec::new(); n];
        for r in self.records.iter().filter(|r| r.status == Status::Ok) {
            latencies[(r.seq / WINDOW).min(n - 1)].push(r.latency_us);
        }
        latencies
            .iter()
            .enumerate()
            .filter(|(_, lat)| !lat.is_empty())
            .map(|(k, lat)| {
                let steal = self.window_steal.get(k).copied().unwrap_or(self.steal_frac);
                (crate::stats::quantile(lat, q), steal)
            })
            .collect()
    }

    pub fn count(&self, status: Status) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }

    /// Whether the open-loop schedule held: the generator kept within
    /// 2 ms of it at p99, and the backlog at the end of the schedule is
    /// no more than a few requests above its typical level.
    pub fn schedule_held(&self) -> bool {
        let late_p99_ms = crate::stats::quantile(&self.late_us, 0.99) / 1e3;
        let backlog: Vec<f64> = self.backlog.iter().map(|&b| b as f64).collect();
        let typical = crate::stats::median(&backlog);
        let tail = &backlog[backlog.len() - backlog.len() / 10..];
        late_p99_ms <= 2.0 && crate::stats::mean(tail) <= 2.0 * typical + 4.0
    }
}

/// Drives `count` requests (cycling through `reqs` from `offset`) at a
/// fixed `rate` per second, each timed from when it was due. Any free
/// lane takes the next due request, so a stall on one lane delays the
/// queue behind it exactly as it would delay users.
pub fn open_loop(
    lanes: Vec<Box<dyn Lane + Send + '_>>,
    reqs: &[Req],
    offset: usize,
    count: usize,
    rate: f64,
    keep: bool,
) -> Phase {
    let completed = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let rx = Mutex::new(rx);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|mut lane| {
                let (rx, completed) = (&rx, &completed);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    loop {
                        let next = rx.lock().expect("schedule queue lock").recv();
                        let Ok((seq, due)) = next else { break };
                        let index = (offset + seq) % reqs.len();
                        let keep = keep && seq.is_multiple_of(CHECK_EVERY);
                        let (status, body) = lane.exchange(&reqs[index], keep);
                        let latency_us = due.elapsed().as_secs_f64() * 1e6;
                        completed.fetch_add(1, Ordering::Relaxed);
                        records.push(Record { seq, req: index, latency_us, status, body });
                    }
                    records
                })
            })
            .collect();
        let mut late_us = Vec::with_capacity(count);
        let mut backlog = Vec::with_capacity(count);
        let windows = (count / WINDOW).max(1);
        let mut marks = Vec::with_capacity(windows + 1);
        for seq in 0..count {
            let due = start + Duration::from_secs_f64(seq as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if seq.is_multiple_of(WINDOW) && seq / WINDOW < windows {
                marks.push(crate::stamp::StealMark::now());
            }
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            backlog.push(seq - completed.load(Ordering::Relaxed));
            tx.send((seq, due)).expect("a lane is alive");
        }
        drop(tx);
        marks.push(crate::stamp::StealMark::now());
        let window_steal = marks.windows(2).map(|m| m[0].frac_until(m[1])).collect();
        let records =
            handles.into_iter().flat_map(|h| h.join().expect("client lane panicked")).collect();
        Phase {
            records,
            late_us,
            backlog,
            wall_s: start.elapsed().as_secs_f64(),
            steal_frac: 0.0,
            window_steal,
        }
    })
}

/// Each lane sends its next request as soon as the previous one is
/// answered, until `duration` has passed.
pub fn closed_loop(
    lanes: Vec<Box<dyn Lane + Send + '_>>,
    reqs: &[Req],
    offset: usize,
    duration: Duration,
    keep: bool,
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + duration;
    let records = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|mut lane| {
                let next = &next;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    while Instant::now() < deadline {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        let index = (offset + seq) % reqs.len();
                        let sent = Instant::now();
                        let (status, body) =
                            lane.exchange(&reqs[index], keep && seq.is_multiple_of(CHECK_EVERY));
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        records.push(Record { seq, req: index, latency_us, status, body });
                    }
                    records
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client lane panicked")).collect()
    });
    Phase {
        records,
        late_us: Vec::new(),
        backlog: Vec::new(),
        wall_s: start.elapsed().as_secs_f64(),
        steal_frac: 0.0,
        window_steal: Vec::new(),
    }
}

/// One serving phase: open loop at a fixed rate, or closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub label: &'static str,
    /// `Some(rate)`: open loop, `count` requests at `rate` per second.
    pub rate: Option<f64>,
    pub count: usize,
    /// Closed loop: how long the lanes keep sending.
    pub duration: Duration,
}

impl Plan {
    /// Drives this phase through `lanes`, starting at pool index `offset`.
    pub fn drive(
        &self,
        lanes: Vec<Box<dyn Lane + Send + '_>>,
        reqs: &[Req],
        offset: usize,
        keep: bool,
    ) -> Phase {
        let (mut phase, steal_frac) = crate::stamp::with_steal(|| match self.rate {
            Some(rate) => open_loop(lanes, reqs, offset, self.count, rate, keep),
            None => closed_loop(lanes, reqs, offset, self.duration, keep),
        });
        phase.steal_frac = steal_frac;
        phase
    }
}

/// The serve counters `tevot-obs` keeps, accumulated as deltas over
/// phases.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    batch_jobs: Vec<u64>,
    batch_jobs_sum: u64,
    queue_depth: Vec<u64>,
    shed: u64,
    errors: u64,
}

impl Counters {
    pub fn now() -> Counters {
        use tevot_obs::metrics::{
            SERVE_BATCH_JOBS, SERVE_HTTP_ERRORS, SERVE_QUEUE_DEPTH, SERVE_SHED,
        };
        Counters {
            batch_jobs: SERVE_BATCH_JOBS.counts(),
            batch_jobs_sum: SERVE_BATCH_JOBS.sum(),
            queue_depth: SERVE_QUEUE_DEPTH.counts(),
            shed: SERVE_SHED.get(),
            errors: SERVE_HTTP_ERRORS.get(),
        }
    }

    /// Adds the change from `before` to now.
    pub fn add_since(&mut self, before: &Counters) {
        let now = Counters::now();
        let add = |acc: &mut Vec<u64>, after: &[u64], before: &[u64]| {
            acc.resize(after.len(), 0);
            for ((slot, a), b) in acc.iter_mut().zip(after).zip(before) {
                *slot += a - b;
            }
        };
        add(&mut self.batch_jobs, &now.batch_jobs, &before.batch_jobs);
        add(&mut self.queue_depth, &now.queue_depth, &before.queue_depth);
        self.batch_jobs_sum += now.batch_jobs_sum - before.batch_jobs_sum;
        self.shed += now.shed - before.shed;
        self.errors += now.errors - before.errors;
    }

    /// Mean jobs per executed microbatch.
    pub fn mean_batch_jobs(&self) -> f64 {
        let batches: u64 = self.batch_jobs.iter().sum();
        if batches == 0 {
            0.0
        } else {
            self.batch_jobs_sum as f64 / batches as f64
        }
    }

    /// p99 of the queue depth seen at admission.
    pub fn queue_depth_p99(&self) -> f64 {
        let bounds = tevot_obs::metrics::SERVE_QUEUE_DEPTH.bounds();
        tevot_obs::metrics::quantile_from(bounds, &self.queue_depth, 0.99).unwrap_or(0.0)
    }

    pub fn shed(&self) -> f64 {
        self.shed as f64
    }

    pub fn errors(&self) -> f64 {
        self.errors as f64
    }
}

/// Whether a served response body carries exactly the delays, verdicts
/// and clock recommendations offline prediction gives for `req`.
pub fn response_matches(model: &TevotModel, req: &Req, body: &[u8]) -> bool {
    let Some(doc) = std::str::from_utf8(body).ok().and_then(|text| json::parse(text).ok()) else {
        return false;
    };
    let field = |name: &str| doc.get(name).and_then(Json::as_arr).map(<[Json]>::to_vec);
    let Some(delays) = field("delays_ps") else { return false };
    let verdicts = field("erroneous");
    let t_clks = field("t_clk_ps");
    if delays.len() != req.transitions.len() {
        return false;
    }
    req.transitions.iter().enumerate().all(|(i, &(current, previous))| {
        let want = model.predict_delay_ps(req.cond, current, previous);
        let delay_ok = delays[i].as_f64().map(f64::to_bits) == Some(want.to_bits());
        let verdict_ok = match req.clock_ps {
            Some(clock) => {
                verdicts.as_ref().and_then(|v| v.get(i)) == Some(&Json::Bool(want > clock as f64))
            }
            None => true,
        };
        let t_clk_ok = match req.guardband_ps {
            Some(g) => {
                t_clks.as_ref().and_then(|v| v.get(i)).and_then(Json::as_u64)
                    == Some(tevot_dfs::recommended_t_clk_ps(want, g))
            }
            None => true,
        };
        delay_ok && verdict_ok && t_clk_ok
    })
}

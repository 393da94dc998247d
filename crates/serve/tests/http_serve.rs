//! End-to-end tests of tevot-serve over real loopback TCP: framing,
//! keep-alive, admission control, and — the critical one — hot-swapping
//! a model under concurrent `/predict` traffic without a single torn or
//! dropped request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::Characterizer;
use tevot::reference::ReferenceStats;
use tevot::workload::random_workload;
use tevot::{build_delay_dataset, FeatureEncoding, TevotModel, TevotParams};
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::json::{self, Json};
use tevot_serve::loadgen::{self, LoadConfig};
use tevot_serve::{ServeConfig, Server, WatchConfig, DEFAULT_MODEL};
use tevot_timing::{ClockSpeedup, OperatingCondition};

/// A small but real model; distinct seeds give distinct predictions, so
/// a response can be attributed to the model that produced it.
fn tiny_model(seed: u64) -> TevotModel {
    let fu = FunctionalUnit::IntAdd;
    let w = random_workload(fu, 120, seed);
    let c = Characterizer::new(fu).characterize(
        OperatingCondition::new(0.9, 25.0),
        &w,
        &ClockSpeedup::PAPER,
    );
    let data = build_delay_dataset(FeatureEncoding::with_history(), &[(&w, &c)]);
    let mut params = TevotParams::default();
    params.forest.num_trees = 2;
    TevotModel::train(&data, &params, &mut SmallRng::seed_from_u64(seed))
}

fn start_with_model(config: ServeConfig, seed: u64) -> Server {
    let server = Server::start(config).expect("bind loopback");
    server.state().registry.insert(DEFAULT_MODEL, tiny_model(seed));
    server
}

/// One parsed response: status, headers (lowercased names), body text.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body {:?}: {e}", self.body))
    }
}

fn send(writer: &mut impl Write, method: &str, path: &str, body: &str) -> std::io::Result<()> {
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn read_reply(reader: &mut impl BufRead) -> std::io::Result<Reply> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status: u16 = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap();
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            if name == "content-length" {
                content_length = value.trim().parse().unwrap();
            }
            headers.push((name, value.trim().to_string()));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Reply { status, headers, body: String::from_utf8(body).unwrap() })
}

/// A keep-alive client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone stream");
        Client { writer, reader: BufReader::new(stream) }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Reply {
        send(&mut self.writer, method, path, body).expect("write request");
        read_reply(&mut self.reader).expect("read response")
    }
}

#[test]
fn healthz_predict_and_metrics_share_one_keep_alive_connection() {
    let server = start_with_model(ServeConfig::default(), 7);
    let mut client = Client::connect(server.local_addr());

    let health = client.request("GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.header("content-type"), Some("application/json"));
    assert_eq!(health.json().get("ok"), Some(&Json::Bool(true)));

    // Same socket, next request: keep-alive worked.
    let body = r#"{"voltage":0.9,"temperature":25,"clock_ps":1000,"a":3,"b":4}"#;
    let predict = client.request("POST", "/predict", body);
    assert_eq!(predict.status, 200, "{}", predict.body);
    let served =
        predict.json().get("delays_ps").and_then(Json::as_arr).unwrap()[0].as_f64().unwrap();

    // The served delay round-trips to the bit-identical offline number.
    let direct = server.state().registry.get(DEFAULT_MODEL).unwrap().predict_delay_ps(
        OperatingCondition::new(0.9, 25.0),
        (3, 4),
        (0, 0),
    );
    assert_eq!(served.to_bits(), direct.to_bits());

    let metrics = client.request("GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.json().get("schema").and_then(Json::as_str), Some("tevot-obs/1"));

    server.shutdown();
}

/// `/dfs` over real TCP, alongside the `/predict` coverage: a served
/// recommendation equals the offline arithmetic on the same model, and
/// the malformed-payload / off-envelope error paths answer with the
/// taxonomy-mapped 400/422 bodies carrying a `request_id`.
#[test]
fn dfs_endpoint_serves_recommendations_and_taxonomy_errors() {
    let mut model = tiny_model(7);
    let grid = [OperatingCondition::new(0.81, 0.0), OperatingCondition::new(1.0, 100.0)];
    model.set_reference(ReferenceStats::collect(
        &grid,
        &(1..=20).map(f64::from).collect::<Vec<_>>(),
    ));
    let server = Server::start(ServeConfig::default()).expect("bind loopback");
    server.state().registry.insert(DEFAULT_MODEL, model);
    let mut client = Client::connect(server.local_addr());

    // Happy path: t_clk is the shared pure function of the served delay.
    let body = r#"{"voltage":0.9,"temperature":25,"guardband_ps":75,"a":3,"b":4}"#;
    let reply = client.request("POST", "/dfs", body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let doc = reply.json();
    let served_delay = doc.get("delays_ps").and_then(Json::as_arr).unwrap()[0].as_f64().unwrap();
    let served_t_clk = doc.get("t_clk_ps").and_then(Json::as_arr).unwrap()[0].as_u64().unwrap();
    let direct = server.state().registry.get(DEFAULT_MODEL).unwrap().predict_delay_ps(
        OperatingCondition::new(0.9, 25.0),
        (3, 4),
        (0, 0),
    );
    assert_eq!(served_delay.to_bits(), direct.to_bits());
    assert_eq!(served_t_clk, tevot_dfs::recommended_t_clk_ps(direct, 75.0));

    // Malformed payload: 400 with a request_id that matches the header.
    let reply = client.request("POST", "/dfs", r#"{"voltage":0.9,"temperature":25}"#);
    assert_eq!(reply.status, 400);
    let doc = reply.json();
    let body_id = doc.get("request_id").and_then(Json::as_u64).unwrap();
    assert!(body_id > 0);
    assert_eq!(reply.header("x-request-id"), Some(body_id.to_string().as_str()));

    // Off the model's characterized envelope: Corrupt → 422.
    let reply = client.request("POST", "/dfs", r#"{"voltage":0.6,"temperature":25,"a":1,"b":2}"#);
    assert_eq!(reply.status, 422, "{}", reply.body);
    let doc = reply.json();
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("corrupt"));
    assert!(doc.get("request_id").and_then(Json::as_u64).unwrap() > 0);

    server.shutdown();
}

/// The load generator against a live in-process server, on both data
/// paths: with fewer connections than the admission bound, every request
/// must be answered 200 — nothing shed, nothing failed.
#[test]
fn loadgen_runs_clean_against_a_live_server() {
    let server = start_with_model(ServeConfig::default(), 5);
    for dfs in [false, true] {
        let config = LoadConfig {
            addr: server.local_addr().to_string(),
            requests: 200,
            connections: 4,
            dfs,
            ..LoadConfig::default()
        };
        let outcome = loadgen::run(&config);
        assert_eq!(outcome.ok, outcome.requests, "dfs={dfs}: {outcome:?}");
        assert_eq!((outcome.shed, outcome.errors), (0, 0), "dfs={dfs}: {outcome:?}");
        assert!(outcome.qps > 0.0 && outcome.p50_us > 0.0, "dfs={dfs}: {outcome:?}");
    }
    server.shutdown();
}

#[test]
fn connection_close_is_honored() {
    let server = start_with_model(ServeConfig::default(), 7);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let reply = read_reply(&mut reader).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    // The server closes; the next read hits EOF.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
    server.shutdown();
}

#[test]
fn malformed_request_line_gets_400_and_a_closed_connection() {
    let server = start_with_model(ServeConfig::default(), 7);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"definitely not http\r\n\r\n").unwrap();
    let reply = read_reply(&mut reader).unwrap();
    assert_eq!(reply.status, 400);
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
    server.shutdown();
}

#[test]
fn oversized_body_gets_413() {
    let config = ServeConfig { max_body: 256, ..ServeConfig::default() };
    let server = start_with_model(config, 7);
    let mut client = Client::connect(server.local_addr());
    let reply = client.request("POST", "/predict", &"x".repeat(512));
    assert_eq!(reply.status, 413);
    server.shutdown();
}

/// A body of a million `[` — within the 1 MiB body cap — is a 400 with
/// a request id, not a stack overflow that takes the server down.
#[test]
fn deeply_nested_json_body_gets_400_and_the_server_survives() {
    let server = start_with_model(ServeConfig::default(), 7);
    let mut client = Client::connect(server.local_addr());
    let reply = client.request("POST", "/predict", &"[".repeat(1 << 20));
    assert_eq!(reply.status, 400, "{}", reply.body);
    let doc = reply.json();
    assert!(doc.get("request_id").and_then(Json::as_u64).is_some_and(|id| id > 0), "{doc}");
    let mut fresh = Client::connect(server.local_addr());
    assert_eq!(fresh.request("GET", "/healthz", "").status, 200);
    server.shutdown();
}

/// `accept` blocks; shutdown wakes it with a loopback connection even
/// when the server listens on the wildcard address.
#[test]
fn shutdown_of_a_wildcard_bind_returns_promptly() {
    let config = ServeConfig { addr: "0.0.0.0:0".into(), ..ServeConfig::default() };
    let server = Server::start(config).expect("bind wildcard");
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());
}

/// Admission control over TCP: with a one-slot queue and one-job
/// batches, a held executor accepts at most one claimed batch plus one
/// queued job, so every other concurrent request sheds with 503 +
/// `Retry-After`. Every request is *answered* — shedding is a response,
/// not a dropped connection — and the accepted ones complete once the
/// executor is released.
#[test]
fn overload_sheds_with_retry_after_and_answers_every_request() {
    const CLIENTS: usize = 6;
    let config = ServeConfig {
        jobs: 1,
        max_queue: 1,
        batch: 1,
        batch_wait: Duration::from_millis(0),
        ..ServeConfig::default()
    };
    let server = start_with_model(config, 7);
    let addr = server.local_addr();
    let body = r#"{"voltage":0.9,"temperature":25,"transitions":[{"a":1,"b":2}]}"#;

    let held = server.state().hold_batcher();
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..CLIENTS {
            let tx = tx.clone();
            scope.spawn(move || {
                let reply = Client::connect(addr).request("POST", "/predict", body);
                tx.send(reply).expect("collector outlives the clients");
            });
        }
        drop(tx);
        // Accepted requests wait for the executor, so the first
        // CLIENTS - 2 replies are sheds, answered while it is held.
        let mut replies: Vec<Reply> = (0..CLIENTS - 2)
            .map(|_| rx.recv_timeout(Duration::from_secs(60)).expect("a shed reply"))
            .collect();
        for reply in &replies {
            assert_eq!(reply.status, 503, "{}", reply.body);
        }
        drop(held);
        replies.extend(rx.iter());
        replies
    });

    assert_eq!(replies.len(), CLIENTS, "every request is answered");
    let shed = replies.iter().filter(|r| r.status == 503).count();
    let ok = replies.iter().filter(|r| r.status == 200).count();
    assert_eq!(ok + shed, CLIENTS, "only 200 or 503 under pure overload");
    assert!(ok >= 1, "the first request fits an empty queue");
    for reply in replies.iter().filter(|r| r.status == 503) {
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(reply.json().get("kind").and_then(Json::as_str), Some("shed"));
    }
    server.shutdown();
}

/// End-to-end drift detection: a server watching a model whose file
/// carries reference histograms reports every PSI below the alert level
/// while traffic matches the training distribution, and a voltage PSI
/// above it once the operating condition moves off-reference. This is
/// the acceptance scenario for the watch — no mocks, real HTTP; the
/// scores are computed when `GET /watch` is asked.
#[test]
fn watch_drift_alert_fires_off_reference_and_stays_quiet_on() {
    let train_cond = OperatingCondition::new(0.9, 25.0);
    let mut model = tiny_model(7);

    // Reference distribution = exactly what in-distribution traffic will
    // look like: the model's own predictions at the training condition
    // over the operand stream the clean phase sends.
    let operands: Vec<(u32, u32)> = (0..64u32).map(|i| (i * 3 + 1, i ^ 0x2A)).collect();
    let delays: Vec<f64> =
        operands.iter().map(|&(a, b)| model.predict_delay_ps(train_cond, (a, b), (0, 0))).collect();
    let conditions = vec![train_cond; delays.len()];
    model.set_reference(ReferenceStats::collect(&conditions, &delays));

    let config = ServeConfig { watch: Some(WatchConfig::default()), ..ServeConfig::default() };
    let server = Server::start(config).expect("bind loopback");
    server.state().registry.insert(DEFAULT_MODEL, model);
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    // `[voltage, temperature, delay]` PSI and the alert level, as
    // `GET /watch` reports them.
    let scores = |client: &mut Client| -> ([f64; 3], f64) {
        let reply = client.request("GET", "/watch", "");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = reply.json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tevot-watch/2"));
        assert_eq!(doc.get("reference_loaded"), Some(&Json::Bool(true)));
        let drift = |key: &str| {
            doc.get("drift").and_then(|d| d.get(key)).and_then(Json::as_f64).expect(key)
        };
        (["voltage_psi", "temperature_psi", "delay_psi"].map(drift), drift("psi_alert"))
    };

    // Phase 1: in-distribution traffic; every PSI stays below the level.
    for &(a, b) in &operands {
        let body = format!(r#"{{"voltage":0.9,"temperature":25,"a":{a},"b":{b}}}"#);
        assert_eq!(client.request("POST", "/predict", &body).status, 200);
    }
    let (quiet, level) = scores(&mut client);
    assert!(
        quiet.iter().all(|&psi| psi < level),
        "clean traffic must stay below {level}: {quiet:?}"
    );

    // Phase 2: the operating condition moves far off-reference, for
    // twice as many requests as the clean phase sent.
    for _ in 0..2 {
        for &(a, b) in &operands {
            let body = format!(r#"{{"voltage":0.7,"temperature":90,"a":{a},"b":{b}}}"#);
            assert_eq!(client.request("POST", "/predict", &body).status, 200);
        }
    }
    let (drifted, _) = scores(&mut client);
    assert!(drifted[0] > level, "off-reference voltage must alert: {drifted:?}");
    server.shutdown();
}

/// Satellite (d), and the heart of the hot-swap contract: concurrent
/// `/predict` traffic while the default model is repeatedly re-loaded
/// from disk never observes a torn model and never drops a request.
/// Every response must be 200 and bit-identical to what *one* of the two
/// models predicts offline — an interleaving or partially-swapped state
/// would produce a number matching neither.
#[test]
fn hot_swap_under_concurrent_traffic_is_never_torn_and_never_drops() {
    let model_a = tiny_model(1);
    let model_b = tiny_model(2);
    let cond = OperatingCondition::new(0.9, 25.0);
    let expect_a: Vec<u64> =
        (0..8u32).map(|i| model_a.predict_delay_ps(cond, (i, i + 1), (0, 0)).to_bits()).collect();
    let expect_b: Vec<u64> =
        (0..8u32).map(|i| model_b.predict_delay_ps(cond, (i, i + 1), (0, 0)).to_bits()).collect();
    assert_ne!(expect_a, expect_b, "seeds must give distinguishable models");

    let dir = std::env::temp_dir();
    let path_a = dir.join(format!("tevot_serve_swap_a_{}.tevot", std::process::id()));
    let path_b = dir.join(format!("tevot_serve_swap_b_{}.tevot", std::process::id()));
    model_a.save_path(&path_a).unwrap();
    model_b.save_path(&path_b).unwrap();

    let server = Server::start(ServeConfig::default()).expect("bind loopback");
    server.state().registry.insert(DEFAULT_MODEL, model_a);
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Swapper: alternate the default model between the two files as
        // fast as the HTTP round-trip allows.
        let swapper = scope.spawn(|| {
            let mut client = Client::connect(addr);
            let mut swaps = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let path = if swaps.is_multiple_of(2) { &path_b } else { &path_a };
                let body = format!(r#"{{"path":{}}}"#, Json::from(path.to_str().unwrap()));
                let reply = client.request("POST", "/models/default", &body);
                assert_eq!(reply.status, 200, "swap failed: {}", reply.body);
                swaps += 1;
            }
            swaps
        });

        // Clients: hammer /predict; every reply must match model A or
        // model B exactly, transition for transition.
        let clients: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr);
                    let mut sent = 0usize;
                    let body = concat!(
                        r#"{"voltage":0.9,"temperature":25,"transitions":["#,
                        r#"{"a":0,"b":1},{"a":1,"b":2},{"a":2,"b":3},{"a":3,"b":4},"#,
                        r#"{"a":4,"b":5},{"a":5,"b":6},{"a":6,"b":7},{"a":7,"b":8}]}"#,
                    );
                    while !stop.load(Ordering::Relaxed) {
                        let reply = client.request("POST", "/predict", body);
                        assert_eq!(reply.status, 200, "dropped during swap: {}", reply.body);
                        let served: Vec<u64> = reply
                            .json()
                            .get("delays_ps")
                            .and_then(Json::as_arr)
                            .unwrap()
                            .iter()
                            .map(|d| d.as_f64().unwrap().to_bits())
                            .collect();
                        assert!(
                            served == expect_a || served == expect_b,
                            "torn response: matches neither model A nor B"
                        );
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        let swaps = swapper.join().expect("swapper thread");
        let total: usize = clients.into_iter().map(|c| c.join().expect("client thread")).sum();
        assert!(swaps >= 2, "need at least two swaps to exercise both directions ({swaps})");
        assert!(total >= 10, "clients must have made real progress ({total} requests)");
    });

    server.shutdown();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

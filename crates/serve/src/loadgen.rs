//! A self-contained HTTP load generator for the serve endpoints.
//!
//! Used by the `serve_load` bench binary and the bench suite's serving
//! stage: opens `connections` keep-alive client connections, drives
//! `requests` total `POST /predict` requests through them, and reports
//! throughput and latency percentiles (interpolated with
//! [`tevot_obs::metrics::quantile_sorted`], the same convention the
//! server's `/metrics` histograms use).
//!
//! The generator is deterministic: request bodies derive from the
//! request index, so two runs against the same server are comparable.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use tevot_obs::metrics::quantile_sorted;

/// Load-run shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7450`.
    pub addr: String,
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent keep-alive client connections.
    pub connections: usize,
    /// Operand transitions per request body.
    pub transitions: usize,
    /// Model name to query.
    pub model: String,
    /// Drive `POST /dfs` (clock recommendations with a fixed guardband)
    /// instead of `POST /predict`.
    pub dfs: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: String::new(),
            requests: 1000,
            connections: 4,
            transitions: 4,
            model: "default".into(),
            dfs: false,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests attempted.
    pub requests: usize,
    /// `200 OK` responses.
    pub ok: usize,
    /// `503` shed responses.
    pub shed: usize,
    /// Any other non-200 response or transport failure.
    pub errors: usize,
    /// Connections re-established after a transport failure (a reset or
    /// short read mid-exchange, e.g. a server restarting under load).
    pub reconnects: usize,
    /// Successful requests per second of wall-clock time.
    pub qps: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
}

/// The deterministic `POST /predict` body for request `index`.
fn body_for(config: &LoadConfig, index: usize) -> String {
    let mut transitions = String::new();
    for t in 0..config.transitions {
        // Knuth-style multiplicative scrambles: cheap, deterministic,
        // well-spread operand patterns.
        let x = (index * config.transitions + t) as u32;
        let a = x.wrapping_mul(2_654_435_761);
        let b = x.wrapping_mul(40_503).wrapping_add(17);
        if t > 0 {
            transitions.push(',');
        }
        transitions.push_str(&format!(
            "{{\"a\":{a},\"b\":{b},\"prev_a\":{},\"prev_b\":{}}}",
            b.rotate_left(7),
            a.rotate_left(3),
        ));
    }
    if config.dfs {
        format!(
            "{{\"model\":\"{}\",\"voltage\":0.9,\"temperature\":25,\"guardband_ps\":50,\
             \"transitions\":[{transitions}]}}",
            config.model
        )
    } else {
        format!(
            "{{\"model\":\"{}\",\"voltage\":0.9,\"temperature\":25,\"clock_ps\":1000,\
             \"transitions\":[{transitions}]}}",
            config.model
        )
    }
}

/// Reads one HTTP response (status line + headers + `Content-Length`
/// body) and returns the status code.
fn read_status(reader: &mut impl BufRead) -> std::io::Result<u16> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(status)
}

/// Initial-connect and reconnect retry budget: a server that started
/// moments ago may not be listening yet, and a restarting one may refuse
/// briefly.
const CONNECT_ATTEMPTS: usize = 20;
/// Base reconnect backoff; doubles per attempt up to 16× the base.
const CONNECT_BACKOFF_MS: u64 = 25;
/// Give up after this many transport failures in a row — the server is
/// down for good, not flaky — and charge the remaining share as errors.
const MAX_CONSECUTIVE_FAILURES: usize = 20;

/// One client connection's tally of the run.
#[derive(Debug, Default)]
struct Tally {
    ok: usize,
    shed: usize,
    errors: usize,
    reconnects: usize,
    latencies: Vec<f64>,
}

/// Connects with bounded exponential backoff; `None` means the server
/// never answered within the whole retry budget.
fn connect_with_retry(addr: &str) -> Option<(TcpStream, BufReader<TcpStream>)> {
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            let backoff = CONNECT_BACKOFF_MS << (attempt as u32 - 1).min(4);
            std::thread::sleep(std::time::Duration::from_millis(backoff));
        }
        if let Ok(stream) = TcpStream::connect(addr) {
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).ok();
            if let Ok(writer) = stream.try_clone() {
                return Some((writer, BufReader::new(stream)));
            }
        }
    }
    None
}

/// One request-response exchange; the latency is in microseconds.
fn exchange(
    config: &LoadConfig,
    index: usize,
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
) -> std::io::Result<(u16, f64)> {
    let body = body_for(config, index);
    let path = if config.dfs { "/dfs" } else { "/predict" };
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: tevot\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let start = Instant::now();
    writer.write_all(request.as_bytes())?;
    let status = read_status(reader)?;
    Ok((status, start.elapsed().as_secs_f64() * 1e6))
}

/// One client connection's share of the run.
///
/// Transport failures (resets, short reads) are recorded as errors and
/// answered with a reconnect, so a server dying mid-run costs exactly
/// the requests that were in flight — not the rest of this connection's
/// range.
fn client(config: &LoadConfig, indices: std::ops::Range<usize>) -> Tally {
    let mut tally = Tally::default();
    let total = indices.len();
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    let mut ever_connected = false;
    let mut consecutive_failures = 0usize;
    for (done, index) in indices.enumerate() {
        if conn.is_none() {
            match connect_with_retry(&config.addr) {
                Some(c) => {
                    if ever_connected {
                        tally.reconnects += 1;
                    }
                    ever_connected = true;
                    conn = Some(c);
                }
                None => {
                    tally.errors += total - done;
                    return tally;
                }
            }
        }
        let (writer, reader) = conn.as_mut().expect("connection was just established");
        match exchange(config, index, writer, reader) {
            Ok((200, latency)) => {
                consecutive_failures = 0;
                tally.ok += 1;
                tally.latencies.push(latency);
            }
            Ok((503, _)) => {
                consecutive_failures = 0;
                tally.shed += 1;
            }
            Ok(_) => {
                consecutive_failures = 0;
                tally.errors += 1;
            }
            Err(_) => {
                tally.errors += 1;
                consecutive_failures += 1;
                conn = None;
                if consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                    tally.errors += total - done - 1;
                    return tally;
                }
            }
        }
    }
    tally
}

/// Runs the configured load and aggregates the outcome.
///
/// Connection failures count as errors rather than aborting the run, so
/// the caller always gets a report to assert on.
pub fn run(config: &LoadConfig) -> LoadReport {
    let _span = tevot_obs::span!("serve.loadgen");
    let connections = config.connections.max(1);
    let per = config.requests.div_ceil(connections);
    let start = Instant::now();
    let results: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let lo = (c * per).min(config.requests);
                let hi = ((c + 1) * per).min(config.requests);
                scope.spawn(move || client(config, lo..hi))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen client panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let (mut ok, mut shed, mut errors, mut reconnects) = (0, 0, 0, 0);
    for mut tally in results {
        ok += tally.ok;
        shed += tally.shed;
        errors += tally.errors;
        reconnects += tally.reconnects;
        latencies.append(&mut tally.latencies);
    }
    latencies.sort_by(f64::total_cmp);
    LoadReport {
        requests: config.requests,
        ok,
        shed,
        errors,
        reconnects,
        qps: if elapsed > 0.0 { ok as f64 / elapsed } else { 0.0 },
        p50_us: quantile_sorted(&latencies, 0.5).unwrap_or(0.0),
        p99_us: quantile_sorted(&latencies, 0.99).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_deterministic_and_distinct() {
        let config = LoadConfig { transitions: 2, ..LoadConfig::default() };
        assert_eq!(body_for(&config, 3), body_for(&config, 3));
        assert_ne!(body_for(&config, 3), body_for(&config, 4));
        let parsed = tevot_obs::json::parse(&body_for(&config, 0)).expect("valid JSON");
        assert_eq!(
            parsed.get("transitions").and_then(tevot_obs::json::Json::as_arr).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn dfs_mode_swaps_clock_for_guardband() {
        let config = LoadConfig { transitions: 2, dfs: true, ..LoadConfig::default() };
        let parsed = tevot_obs::json::parse(&body_for(&config, 0)).expect("valid JSON");
        assert!(parsed.get("guardband_ps").is_some());
        assert!(parsed.get("clock_ps").is_none());
        let predict = LoadConfig { transitions: 2, ..LoadConfig::default() };
        let parsed = tevot_obs::json::parse(&body_for(&predict, 0)).expect("valid JSON");
        assert!(parsed.get("clock_ps").is_some());
        assert!(parsed.get("guardband_ps").is_none());
    }

    #[test]
    fn read_status_parses_framed_responses() {
        let text = "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\
                    Content-Length: 5\r\n\r\nhello";
        let mut reader = BufReader::new(text.as_bytes());
        assert_eq!(read_status(&mut reader).unwrap(), 503);
        assert!(
            matches!(read_status(&mut reader), Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof)
        );
    }
}

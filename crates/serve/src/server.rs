//! The TCP server: accept loop, per-connection threads, shutdown.
//!
//! Deliberately boring concurrency: one OS thread per connection (the
//! batcher provides the scalability — prediction work from every
//! connection funnels into one queue, so connection threads spend their
//! lives blocked on I/O, not computing). The accept loop blocks in
//! `accept` and checks a shared [`CancelToken`] after every connection;
//! shutdown cancels the token and wakes it with one connection of its
//! own. Connection loops poll the token on short socket timeouts, so
//! [`Server::shutdown`] converges without killing anything mid-response.

use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tevot_resil::CancelToken;

use crate::api::{self, ServeState};
use crate::http::{read_request, write_response, ReadError, Response};
use crate::watch::{Watch, WatchConfig};

/// Server tuning knobs; the defaults match the CLI's documented
/// defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7450` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads for batch execution (`0`: the global `--jobs` /
    /// `TEVOT_JOBS` setting).
    pub jobs: usize,
    /// Admission bound: queued jobs beyond this are shed with 503.
    pub max_queue: usize,
    /// Maximum jobs merged into one microbatch.
    pub batch: usize,
    /// How long a microbatch waits for company after its first job.
    pub batch_wait: Duration,
    /// Maximum accepted request-body size, in bytes.
    pub max_body: usize,
    /// Telemetry: `Some` installs the watch (drift scores, shadow
    /// accuracy, slow-request exemplars behind `GET /watch`); `None`
    /// serves without it.
    pub watch: Option<WatchConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 0,
            max_queue: 256,
            batch: 32,
            batch_wait: Duration::from_millis(1),
            max_body: 1 << 20,
            watch: None,
        }
    }
}

/// How long an idle keep-alive connection sleeps between shutdown polls.
const READ_POLL: Duration = Duration::from_millis(50);

/// A running server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop; connection threads notice within [`READ_POLL`].
#[derive(Debug)]
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    stop: CancelToken,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts accepting connections. The model
    /// registry starts empty; populate it through
    /// [`state`](Self::state) (the CLI loads `--model` as `default`)
    /// or over HTTP with `POST /models/<name>`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission...).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServeState::new(
            config.jobs,
            config.max_queue,
            config.batch,
            config.batch_wait,
        ));
        if let Some(watch_config) = config.watch {
            state.install_watch(Arc::new(Watch::new(watch_config)));
        }
        let stop = CancelToken::new();
        let accept_state = Arc::clone(&state);
        let accept_stop = stop.clone();
        let max_body = config.max_body;
        let accept_handle = std::thread::Builder::new()
            .name("tevot-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state, &accept_stop, max_body))?;
        tevot_obs::info!("serve: listening on {addr}");
        Ok(Server { state, addr, stop, accept_handle: Some(accept_handle) })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (registry + batcher), for pre-loading models.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops the accept loop and waits for it to exit. In-flight
    /// requests finish; idle keep-alive connections close within
    /// [`READ_POLL`].
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the accept loop exits, i.e. forever. Used by the CLI
    /// foreground mode.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.cancel();
        if let Some(handle) = self.accept_handle.take() {
            // The accept loop blocks in `accept`; one connection of our
            // own wakes it to see the cancelled token. Without that
            // connection it would never return, so it is left detached
            // rather than joined.
            match TcpStream::connect(wake_addr(self.addr)) {
                Ok(_) => {
                    let _ = handle.join();
                }
                Err(e) => tevot_obs::warn!("serve: cannot wake the accept loop: {e}"),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Where a client on this host reaches a listener bound to `addr`:
/// loopback when the bound IP is unspecified (`0.0.0.0` / `::`).
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServeState>,
    stop: &CancelToken,
    max_body: usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if stop.is_cancelled() {
                    return;
                }
                tevot_obs::debug!("serve: connection from {peer}");
                // Responses are small and latency-bound: without this,
                // Nagle + delayed ACK can stall every keep-alive
                // round-trip by ~40 ms.
                stream.set_nodelay(true).ok();
                let state = Arc::clone(state);
                let stop = stop.clone();
                let spawned = std::thread::Builder::new()
                    .name("tevot-serve-conn".into())
                    .spawn(move || connection_loop(stream, &state, &stop, max_body));
                if let Err(e) = spawned {
                    tevot_obs::error!("serve: cannot spawn connection thread: {e}");
                }
            }
            Err(_) if stop.is_cancelled() => return,
            Err(e) => {
                tevot_obs::warn!("serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Serves one keep-alive connection until the peer closes, a protocol
/// error forces a close, or shutdown is requested while idle.
fn connection_loop(stream: TcpStream, state: &ServeState, stop: &CancelToken, max_body: usize) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, max_body) {
            Ok(req) => {
                let response = api::handle(state, &req);
                let close = req.wants_close() || stop.is_cancelled();
                if write_response(&mut writer, &response, close).is_err() || close {
                    return;
                }
            }
            Err(ReadError::Eof) => return,
            Err(ReadError::IdleTimeout) => {
                if stop.is_cancelled() {
                    return;
                }
            }
            Err(ReadError::Malformed(m)) => {
                let id = api::next_request_id();
                let body =
                    format!("{{\"error\":{},\"kind\":\"parse\",\"request_id\":{id}}}", quoted(&m));
                let response =
                    Response::json(400, body).with_header("X-Request-Id", id.to_string());
                let _ = write_response(&mut writer, &response, true);
                return;
            }
            Err(ReadError::BodyTooLarge(n)) => {
                let id = api::next_request_id();
                let body = format!(
                    "{{\"error\":\"request body of {n} bytes too large\",\
                     \"kind\":\"usage\",\"request_id\":{id}}}"
                );
                let response =
                    Response::json(413, body).with_header("X-Request-Id", id.to_string());
                let _ = write_response(&mut writer, &response, true);
                return;
            }
            Err(e @ (ReadError::HeadTooLarge(_) | ReadError::TooManyHeaders(_))) => {
                let id = api::next_request_id();
                let body = format!(
                    "{{\"error\":{},\"kind\":\"usage\",\"request_id\":{id}}}",
                    quoted(&e.to_string())
                );
                let response =
                    Response::json(431, body).with_header("X-Request-Id", id.to_string());
                let _ = write_response(&mut writer, &response, true);
                return;
            }
            Err(ReadError::Io(_)) => return,
        }
        let _ = writer.flush();
    }
}

fn quoted(text: &str) -> String {
    tevot_obs::json::Json::from(text).to_string()
}

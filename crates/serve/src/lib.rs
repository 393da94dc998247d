//! tevot-serve — a zero-dependency online inference server for trained
//! TEVoT models.
//!
//! TEVoT's central claim is that one trained delay model answers
//! timing-error queries for *every* clock period and (V, T) operating
//! condition. That is the shape of an online service, and this crate is
//! that service, built entirely on `std::net::TcpListener` plus the
//! workspace's own crates:
//!
//! * [`http`] — a minimal HTTP/1.1 subset (request-line + headers +
//!   `Content-Length` bodies, keep-alive by default).
//! * [`registry`] — a hot-swappable model registry: `POST
//!   /models/<name>` reloads from disk behind an `Arc` swap; in-flight
//!   requests finish on the model they started with.
//! * [`batch`] — cross-connection microbatching: every request funnels
//!   into one bounded queue that drains onto a `tevot-par` worker pool.
//!   Predictions are pure, and the pool's reduction is ordered, so the
//!   served numbers are **bit-identical** to offline `tevot predict` at
//!   any batch size and worker count.
//! * [`api`] — endpoints (`/predict`, `/ter`, `/models`, `/healthz`,
//!   `/metrics`) and the [`ErrorKind`](tevot_resil::ErrorKind) →
//!   HTTP-status mapping; admission control answers 503 +
//!   `Retry-After` when the queue is full, per-request deadlines answer
//!   504 through `tevot-resil`'s `CancelToken`/`Watchdog`.
//! * [`server`] — the accept loop and per-connection threads.
//! * [`watch`] — what only the server knows about its model: PSI
//!   drift of the served (V, T, delay) against the reference
//!   histograms stored in the model file, a shadow-replay thread
//!   scoring live accuracy against the gate-level simulator, and the
//!   slowest requests' stage breakdowns. Exposed as `GET /watch`
//!   (JSON). Time series and alerting are the scraper's job, over
//!   `GET /metrics?format=prom` (Prometheus text exposition).
//! * [`loadgen`] — a deterministic load generator for benches and CI
//!   smoke tests.
//!
//! The CLI front-end is `tevot serve --model <path> --addr <host:port>`.

pub mod api;
pub mod batch;
pub mod http;
pub mod loadgen;
pub mod registry;
pub mod server;
pub mod watch;

pub use api::{status_for, ServeState, DEFAULT_MODEL};
pub use batch::{Batcher, Shed};
pub use registry::ModelRegistry;
pub use server::{ServeConfig, Server};
pub use watch::{Watch, WatchConfig};

//! `tevot-obs` — zero-dependency observability for the TEVoT pipeline.
//!
//! Three cooperating facilities, all built on `std` alone:
//!
//! * **Leveled logging** — [`error!`], [`warn!`], [`info!`], [`debug!`]
//!   macros writing to stderr, filtered by a global [`Level`] that is
//!   initialized from the `TEVOT_LOG` environment variable
//!   (`off|error|warn|info|debug`) and can be overridden by CLI flags via
//!   [`set_level`] / [`adjust_level`].
//! * **Span timers** — [`span!`] creates an RAII guard that measures the
//!   wall time of a pipeline stage; nested guards aggregate into a global
//!   per-stage tree (see [`span`]). `debug_span!` sites compile away
//!   entirely unless the `debug-spans` feature is on.
//! * **Metrics** — a global registry of relaxed-atomic [`metrics::Counter`]s
//!   and fixed-bucket [`metrics::Histogram`]s (with interpolated
//!   p50/p90/p99 quantiles) for the pipeline's hot paths (gate
//!   evaluations, simulated events, training iterations, ...).
//! * **Timeline traces** — [`trace`] records begin/end/instant events
//!   into a bounded ring buffer (fed by the span guards plus explicit
//!   [`instant!`] hooks) and exports Chrome/Perfetto trace-format JSON —
//!   the substrate behind the `--trace <path>` flag.
//! * **Progress** — [`progress::Progress`] prints rate-limited progress
//!   lines with an ETA for long sweeps.
//!
//! [`report`] renders spans + metrics as a human-readable stderr summary
//! and serializes them to a versioned JSON document (`tevot-obs/1`) — the
//! substrate behind the CLI's and the experiment binaries' `--metrics`
//! flag. [`diff`] compares two such documents and renders the delta.
//!
//! Serving telemetry builds on those primitives: [`prom`] renders and
//! parses the Prometheus text exposition a scraper turns into time
//! series and alerts, and [`drift`] holds the PSI math for online
//! model-drift detection.

#![warn(missing_docs)]

pub mod diff;
pub mod drift;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod prom;
pub mod report;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Logging disabled.
    Off = 0,
    /// Unrecoverable or data-loss conditions.
    Error = 1,
    /// Suspicious conditions the run survives.
    Warn = 2,
    /// Stage-level progress (the default).
    Info = 3,
    /// Per-item detail; hot-path diagnostics.
    Debug = 4,
}

impl Level {
    /// Parses a `TEVOT_LOG`-style name, case-insensitively.
    pub fn parse(name: &str) -> Option<Level> {
        match name.to_ascii_lowercase().as_str() {
            "off" | "quiet" | "none" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            _ => Level::Debug,
        }
    }

    /// The label printed in log lines.
    pub fn label(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// 255 marks "not yet initialized from the environment".
const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);
static LEVEL_INIT: Once = Once::new();

fn init_level_from_env() {
    LEVEL_INIT.call_once(|| {
        let level =
            std::env::var("TEVOT_LOG").ok().and_then(|v| Level::parse(&v)).unwrap_or(Level::Info);
        // Respect an explicit set_level() that ran before the first log.
        let _ =
            LEVEL.compare_exchange(LEVEL_UNSET, level as u8, Ordering::Relaxed, Ordering::Relaxed);
    });
}

/// The current global log level.
pub fn level() -> Level {
    init_level_from_env();
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Sets the global log level, overriding `TEVOT_LOG`.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
    // Make sure a later lazy init cannot overwrite the explicit choice.
    init_level_from_env();
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Shifts the global level by `delta` steps (positive → more verbose), the
/// semantics of repeated `--verbose` / `-q` flags.
pub fn adjust_level(delta: i32) {
    let current = level() as u8 as i32;
    let new = (current + delta).clamp(Level::Off as u8 as i32, Level::Debug as u8 as i32);
    set_level(Level::from_u8(new as u8));
}

/// Whether messages at `level` are currently emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    level != Level::Off && level <= self::level()
}

#[doc(hidden)]
pub fn __log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    // A failed write to stderr leaves nowhere to report; drop it.
    let _ = writeln!(handle, "[{} {target}] {args}", level.label());
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Error) {
            $crate::__log($crate::Level::Error, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Warn) {
            $crate::__log($crate::Level::Warn, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::__log($crate::Level::Info, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::__log($crate::Level::Debug, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Opens a timing span; the returned guard records wall time into the
/// global stage tree when dropped.
///
/// ```
/// {
///     let _outer = tevot_obs::span!("characterize");
///     let _inner = tevot_obs::span!("trace", "{} vectors", 500);
///     // ... work ...
/// } // both recorded; "trace" nests under "characterize"
/// ```
///
/// The optional format arguments are logged at [`Level::Debug`] when the
/// span opens; they do not change the span's aggregation key.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
    ($name:expr, $($arg:tt)*) => {{
        $crate::debug!("{} {}", $name, format_args!($($arg)*));
        $crate::span::SpanGuard::enter($name)
    }};
}

/// Records a point-in-time event on the timeline trace (a no-op unless
/// tracing is enabled — one relaxed load, no allocation).
///
/// The name must be a `'static` string literal so the recording path
/// stays allocation-free:
///
/// ```
/// tevot_obs::instant!("sim.cycle");
/// ```
#[macro_export]
macro_rules! instant {
    ($name:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::instant($name);
        }
    };
}

/// Like [`span!`], but compiled out (a no-op guard) unless the
/// `debug-spans` feature is enabled — for spans inside per-cycle or
/// per-node loops that would otherwise distort the measurement.
#[cfg(feature = "debug-spans")]
#[macro_export]
macro_rules! debug_span {
    ($($arg:tt)*) => { $crate::span!($($arg)*) };
}

/// Like [`span!`], but compiled out (a no-op guard) unless the
/// `debug-spans` feature is enabled — for spans inside per-cycle or
/// per-node loops that would otherwise distort the measurement.
#[cfg(not(feature = "debug-spans"))]
#[macro_export]
macro_rules! debug_span {
    ($($arg:tt)*) => {
        $crate::span::SpanGuard::disabled()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert!(!enabled(Level::Off));
    }
}

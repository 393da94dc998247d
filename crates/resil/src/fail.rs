//! Zero-dependency failpoints: deterministic fault injection for chaos
//! testing.
//!
//! A failpoint *site* is a named hook compiled into fallible code —
//! checkpoint I/O, VCD parsing, model persistence, `tevot-par` workers.
//! With nothing configured, evaluating a site is one relaxed atomic load
//! and a never-taken branch. Configuration comes from the `TEVOT_FAIL`
//! environment variable (parsed once, at the first evaluation) or
//! programmatically from tests via [`scoped`].
//!
//! # Specification grammar
//!
//! ```text
//! TEVOT_FAIL = spec *("," spec)
//! spec       = site "=" action ["@" probability] ["#" skip]
//! action     = "off" | "io" | "panic"
//! ```
//!
//! * `io` — the site returns an injected [`std::io::Error`] (wrapping
//!   [`InjectedFailure`], so retries and tests can recognize it).
//! * `panic` — the site panics, simulating a hard mid-operation crash.
//! * `probability` — chance in `[0, 1]` that an evaluation fires
//!   (default 1). Draws come from a per-site deterministic generator
//!   seeded from the site name and, for `TEVOT_FAIL`, `TEVOT_FAIL_SEED`
//!   (default 0), so a chaos run is exactly reproducible. Programmatic
//!   specs ([`configure`], [`scoped`]) seed from the site name alone, so
//!   a test's draws do not change with the chaos seed.
//! * `skip` — the first `skip` evaluations always pass (default 0);
//!   `ckpt.write=panic#2` crashes on the third checkpoint write.
//!
//! Example: `TEVOT_FAIL=ckpt.write=io@0.3,par.task=panic#5`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The action a configured site performs when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Never fires (useful to mask an env-configured site in a test).
    Off,
    /// Return an injected I/O error.
    Io,
    /// Panic, simulating a crash at the site.
    Panic,
}

#[derive(Debug)]
struct Site {
    action: FailAction,
    probability: f64,
    skip: u64,
    hits: u64,
    rng_state: u64,
}

/// The error payload of injected I/O failures; detectable through
/// [`std::io::Error::get_ref`] so retries and assertions can tell an
/// injected fault from a real one.
#[derive(Debug)]
pub struct InjectedFailure {
    site: String,
}

impl InjectedFailure {
    /// An injected failure attributed to `site`.
    pub fn new(site: impl Into<String>) -> Self {
        InjectedFailure { site: site.into() }
    }

    /// The failpoint site that fired.
    pub fn site(&self) -> &str {
        &self.site
    }
}

impl fmt::Display for InjectedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected failure at failpoint {:?}", self.site)
    }
}

impl Error for InjectedFailure {}

/// Fast-path state: 0 = env not parsed yet, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);
const STATE_UNINIT: u8 = 0;
const STATE_DISABLED: u8 = 1;
const STATE_ENABLED: u8 = 2;

static SITES: Mutex<Option<HashMap<String, Site>>> = Mutex::new(None);

/// Serializes tests that reconfigure failpoints; held by [`scoped`].
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn site_seed(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn parse_spec(spec: &str) -> Result<HashMap<String, Site>, String> {
    let mut sites = HashMap::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (site, rest) =
            part.split_once('=').ok_or_else(|| format!("failpoint spec {part:?}: missing '='"))?;
        let (rest, skip) = match rest.split_once('#') {
            Some((r, s)) => {
                (r, s.parse::<u64>().map_err(|_| format!("{part:?}: bad skip count {s:?}"))?)
            }
            None => (rest, 0),
        };
        let (action, probability) = match rest.split_once('@') {
            Some((a, p)) => {
                let p: f64 = p.parse().map_err(|_| format!("{part:?}: bad probability {p:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{part:?}: probability {p} outside [0, 1]"));
                }
                (a, p)
            }
            None => (rest, 1.0),
        };
        let action = match action {
            "off" => FailAction::Off,
            "io" => FailAction::Io,
            "panic" => FailAction::Panic,
            other => return Err(format!("{part:?}: unknown action {other:?}")),
        };
        sites.insert(
            site.to_string(),
            Site { action, probability, skip, hits: 0, rng_state: site_seed(site) },
        );
    }
    Ok(sites)
}

fn install(sites: HashMap<String, Site>) {
    let enabled = sites.values().any(|s| s.action != FailAction::Off);
    *unpoisoned(&SITES) = Some(sites);
    STATE.store(if enabled { STATE_ENABLED } else { STATE_DISABLED }, Ordering::Release);
}

fn init_from_env() {
    // Racing initializers both parse the same env and install equivalent
    // state; the lock serializes the map swap itself.
    let spec = std::env::var("TEVOT_FAIL").unwrap_or_default();
    let seed =
        std::env::var("TEVOT_FAIL_SEED").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    match parse_spec(&spec) {
        Ok(mut sites) => {
            for site in sites.values_mut() {
                site.rng_state ^= seed;
            }
            if !sites.is_empty() {
                tevot_obs::warn!("fault injection enabled: TEVOT_FAIL={spec}");
            }
            install(sites);
        }
        Err(e) => {
            tevot_obs::error!("ignoring invalid TEVOT_FAIL: {e}");
            install(HashMap::new());
        }
    }
}

/// Replaces the whole failpoint configuration from a spec string (see
/// the module docs for the grammar). An empty spec disables everything.
///
/// # Errors
///
/// Returns a description of the first malformed spec element; the
/// previous configuration stays in place on error.
pub fn configure(spec: &str) -> Result<(), String> {
    parse_spec(spec).map(install)
}

/// Disables all failpoints (including any `TEVOT_FAIL` configuration).
pub fn clear() {
    install(HashMap::new());
}

/// Whether any site is currently armed.
pub fn is_enabled() -> bool {
    STATE.load(Ordering::Relaxed) == STATE_ENABLED
}

/// Evaluates the failpoint `site`.
///
/// With no configuration this is one relaxed atomic load. When the site
/// is armed and fires, an `io` action returns an injected
/// [`io::Error`] (kind [`io::ErrorKind::Other`], payload
/// [`InjectedFailure`]) and a `panic` action panics.
///
/// # Errors
///
/// Returns the injected error for a firing `io` site.
///
/// # Panics
///
/// Panics for a firing `panic` site — deliberately, to simulate a crash.
#[inline]
pub fn eval(site: &str) -> Result<(), io::Error> {
    match STATE.load(Ordering::Relaxed) {
        STATE_DISABLED => Ok(()),
        _ => eval_slow(site),
    }
}

#[cold]
fn eval_slow(site: &str) -> Result<(), io::Error> {
    if STATE.load(Ordering::Acquire) == STATE_UNINIT {
        init_from_env();
    }
    let fired = {
        let mut guard = unpoisoned(&SITES);
        let Some(entry) = guard.as_mut().and_then(|m| m.get_mut(site)) else {
            return Ok(());
        };
        entry.hits += 1;
        if entry.action == FailAction::Off || entry.hits <= entry.skip {
            return Ok(());
        }
        if entry.probability < 1.0 {
            let draw = splitmix64(&mut entry.rng_state) as f64 / u64::MAX as f64;
            if draw >= entry.probability {
                return Ok(());
            }
        }
        entry.action
    };
    tevot_obs::metrics::RESIL_FAULTS_INJECTED.incr();
    match fired {
        FailAction::Off => Ok(()),
        FailAction::Io => {
            tevot_obs::debug!("failpoint {site}: injecting i/o error");
            Err(io::Error::other(InjectedFailure::new(site)))
        }
        FailAction::Panic => {
            tevot_obs::warn!("failpoint {site}: injected panic");
            panic!("failpoint {site}: injected panic");
        }
    }
}

/// A scoped failpoint configuration for tests: takes the global
/// exclusivity lock (serializing every test that injects faults),
/// installs `spec`, and restores the previous configuration on drop.
/// Each scope re-seeds per-site generators from the site names alone, so
/// behavior inside a scope is deterministic regardless of what ran
/// before or of `TEVOT_FAIL_SEED`.
///
/// # Panics
///
/// Panics on a malformed spec — a test bug, not a runtime condition.
pub fn scoped(spec: &str) -> ScopedFail {
    let guard = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    if STATE.load(Ordering::Acquire) == STATE_UNINIT {
        init_from_env();
    }
    let saved = unpoisoned(&SITES).take();
    let saved_state = STATE.load(Ordering::Acquire);
    configure(spec).expect("valid scoped failpoint spec");
    ScopedFail { _guard: guard, saved, saved_state }
}

/// Guard returned by [`scoped`]; restores the previous configuration
/// (and releases the exclusivity lock) when dropped.
pub struct ScopedFail {
    _guard: MutexGuard<'static, ()>,
    saved: Option<HashMap<String, Site>>,
    saved_state: u8,
}

impl Drop for ScopedFail {
    fn drop(&mut self) {
        *unpoisoned(&SITES) = self.saved.take();
        STATE.store(self.saved_state, Ordering::Release);
    }
}

impl fmt::Debug for ScopedFail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScopedFail").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_site_is_a_no_op() {
        let _scope = scoped("");
        assert!(eval("nowhere").is_ok());
        assert!(!is_enabled());
    }

    #[test]
    fn io_action_returns_injected_error() {
        let _scope = scoped("t.io=io");
        let err = eval("t.io").unwrap_err();
        let injected =
            err.get_ref().and_then(|r| r.downcast_ref::<InjectedFailure>()).expect("injected");
        assert_eq!(injected.site(), "t.io");
        assert!(eval("t.other").is_ok(), "other sites unaffected");
    }

    #[test]
    fn skip_count_passes_first_evaluations() {
        let _scope = scoped("t.skip=io#2");
        assert!(eval("t.skip").is_ok());
        assert!(eval("t.skip").is_ok());
        assert!(eval("t.skip").is_err(), "third evaluation fires");
        assert!(eval("t.skip").is_err());
    }

    #[test]
    fn panic_action_panics() {
        let _scope = scoped("t.panic=panic");
        let caught = std::panic::catch_unwind(|| eval("t.panic"));
        assert!(caught.is_err());
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let run = || {
            let _scope = scoped("t.prob=io@0.3");
            (0..1000).map(|_| u32::from(eval("t.prob").is_err())).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same draw sequence");
        let fired: u32 = a.iter().sum();
        assert!((200..400).contains(&fired), "~30% of 1000, got {fired}");
    }

    #[test]
    fn off_masks_a_site() {
        let _scope = scoped("t.masked=off");
        assert!(eval("t.masked").is_ok());
    }

    #[test]
    fn scoped_restores_previous_configuration() {
        {
            let _outer = scoped("t.outer=io");
            assert!(eval("t.outer").is_err());
        }
        // Outside the scope the site is back to whatever the environment
        // says (no env in tests: disabled), and eval is safe to call.
        let _ = eval("t.outer");
    }

    #[test]
    fn spec_errors_are_descriptive() {
        assert!(parse_spec("noequals").unwrap_err().contains("missing '='"));
        assert!(parse_spec("s=explode").unwrap_err().contains("unknown action"));
        assert!(parse_spec("s=io@1.5").unwrap_err().contains("outside"));
        assert!(parse_spec("s=io@x").unwrap_err().contains("bad probability"));
        assert!(parse_spec("s=io#x").unwrap_err().contains("bad skip"));
        assert!(parse_spec("").unwrap().is_empty());
    }
}

//! Hierarchical wall-time spans.
//!
//! A [`SpanGuard`] measures the wall time between its creation and drop.
//! Guards nest per thread: a guard opened while another is live records
//! under the parent's path, so the aggregate is a tree of stage timings
//! ("study/characterize/trace"). Aggregation is global across threads —
//! two threads timing the same path accumulate into one node.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Separator between nested span names in an aggregation path.
pub const PATH_SEPARATOR: char = '/';

/// Accumulated statistics of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Total wall time spent inside the span, in nanoseconds.
    pub total_ns: u128,
    /// Number of times the span closed.
    pub count: u64,
    /// Shortest single closure, in nanoseconds (0 until the first close).
    pub min_ns: u128,
    /// Longest single closure, in nanoseconds.
    pub max_ns: u128,
}

impl SpanStat {
    /// Folds one closed span of `elapsed` nanoseconds into the stat.
    fn record(&mut self, elapsed: u128) {
        self.total_ns += elapsed;
        self.count += 1;
        self.max_ns = self.max_ns.max(elapsed);
        self.min_ns = if self.count == 1 { elapsed } else { self.min_ns.min(elapsed) };
    }
}

static SPANS: Mutex<BTreeMap<String, SpanStat>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII timer for one pipeline stage; create via [`span!`](crate::span!)
/// or [`debug_span!`](crate::debug_span!).
///
/// Besides aggregating into the wall-time tree, a live guard feeds the
/// timeline recorder (see [`trace`](crate::trace)): begin on `enter`, end
/// on drop — so once tracing is enabled, every span becomes a slice in
/// the exported Chrome trace.
#[derive(Debug)]
pub struct SpanGuard {
    /// Full path of this span, or `None` for a disabled guard.
    path: Option<String>,
    /// Leaf name (the trace-slice label).
    name: &'static str,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name`, nested under the thread's innermost
    /// live span.
    pub fn enter(name: &'static str) -> SpanGuard {
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            let mut path = String::with_capacity(stack.iter().map(|s| s.len() + 1).sum());
            for (i, part) in stack.iter().enumerate() {
                if i > 0 {
                    path.push(PATH_SEPARATOR);
                }
                path.push_str(part);
            }
            path
        });
        crate::trace::begin(name);
        SpanGuard { path: Some(path), name, start: Instant::now() }
    }

    /// A no-op guard (what `debug_span!` expands to when the
    /// `debug-spans` feature is off).
    pub fn disabled() -> SpanGuard {
        SpanGuard { path: None, name: "", start: Instant::now() }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        crate::trace::end(self.name);
        let elapsed = self.start.elapsed().as_nanos();
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        spans.entry(path).or_default().record(elapsed);
    }
}

/// A consistent snapshot of every span path recorded so far, sorted by
/// path (so parents precede children).
pub fn snapshot() -> Vec<(String, SpanStat)> {
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    spans.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Clears all recorded spans (test isolation).
pub fn reset() {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_records_nothing() {
        {
            let _g = SpanGuard::disabled();
        }
        // Other tests share the global registry; only assert on our key.
        assert!(snapshot().iter().all(|(p, _)| !p.contains("disabled")));
    }

    #[test]
    fn min_max_track_single_closure_extremes() {
        let mut stat = SpanStat::default();
        for elapsed in [30, 10, 20] {
            stat.record(elapsed);
        }
        assert_eq!(stat.total_ns, 60);
        assert_eq!(stat.count, 3);
        assert_eq!(stat.min_ns, 10);
        assert_eq!(stat.max_ns, 30);
    }

    #[test]
    fn guard_survives_being_moved() {
        reset();
        let g = SpanGuard::enter("moved");
        let boxed = Box::new(g);
        drop(boxed);
        let snap = snapshot();
        assert_eq!(snap.iter().filter(|(p, _)| p == "moved").count(), 1);
    }
}

//! The reporter: renders span timings + metrics as a human-readable
//! stderr summary and serializes them to a versioned JSON document.
//!
//! Schema `tevot-obs/1`:
//!
//! ```json
//! {
//!   "schema": "tevot-obs/1",
//!   "spans": [
//!     {"path": "study/characterize", "total_ns": 123456, "count": 3}
//!   ],
//!   "counters": [
//!     {"name": "sim.events_processed", "value": 42}
//!   ],
//!   "histograms": [
//!     {"name": "sim.cycle_delay_ps",
//!      "bounds": [250, 500],
//!      "counts": [10, 5, 1],
//!      "total": 16,
//!      "p50": 287.5, "p90": 470.0, "p99": 500.0}
//!   ]
//! }
//! ```
//!
//! `spans` is sorted by slash-joined path (parents precede children);
//! `counters`/`histograms` follow registry order. `counts` has one entry
//! per bound plus a trailing overflow bucket; `p50`/`p90`/`p99` are
//! interpolated quantile estimates ([`metrics::quantile_from`]), `null`
//! when the histogram is empty. The quantile members were added after the
//! first `tevot-obs/1` reports shipped; the schema stays `tevot-obs/1`
//! because the addition is purely additive and consumers ignore unknown
//! members. The same precedent covers the later additions: per-span
//! `self_ns`/`min_ns`/`max_ns` members and a top-level `profile` member
//! — an embedded `tevot-prof/1` block listing every path by descending
//! self time (`{"schema": "tevot-prof/1", "hot_paths": [{"path": ...,
//! "self_ns": ..., "total_ns": ..., "count": ...}]}`). The stderr
//! summary and the JSON document are rendered from the same
//! [`Snapshot`], so they always agree.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics;
use crate::span::{self, SpanStat, PATH_SEPARATOR};

/// The schema identifier written into every JSON report.
pub const SCHEMA: &str = "tevot-obs/1";

/// Schema identifier of the embedded self-time profile block (read back
/// by `obs-diff`).
pub const PROF_SCHEMA: &str = "tevot-prof/1";

/// A point-in-time copy of every span, counter, and histogram.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Span paths with accumulated stats, sorted by path.
    pub spans: Vec<(String, SpanStat)>,
    /// `(name, value)` for every registered counter, in registry order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, bounds, counts)` for every registered histogram.
    pub histograms: Vec<(&'static str, &'static [u64], Vec<u64>)>,
}

impl Snapshot {
    /// Captures the current state of the global registries.
    pub fn capture() -> Snapshot {
        Snapshot {
            spans: span::snapshot(),
            counters: metrics::counters().iter().map(|c| (c.name(), c.get())).collect(),
            histograms: metrics::histograms()
                .iter()
                .map(|h| (h.name(), h.bounds(), h.counts()))
                .collect(),
        }
    }

    /// Self time of every span path, aligned with `self.spans`: total
    /// wall time minus the totals of *direct* children, clamped at zero
    /// (a child running on several threads can accumulate more wall
    /// time than its parent).
    pub fn self_times_ns(&self) -> Vec<u128> {
        let mut child_totals: std::collections::BTreeMap<&str, u128> =
            std::collections::BTreeMap::new();
        for (path, stat) in &self.spans {
            if let Some((parent, _)) = path.rsplit_once(PATH_SEPARATOR) {
                *child_totals.entry(parent).or_default() += stat.total_ns;
            }
        }
        self.spans
            .iter()
            .map(|(path, stat)| {
                stat.total_ns.saturating_sub(child_totals.get(path.as_str()).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Span indices sorted by descending self time (ties by path), the
    /// order of the hot-path table.
    fn hot_order(&self, self_ns: &[u128]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| {
            self_ns[b].cmp(&self_ns[a]).then_with(|| self.spans[a].0.cmp(&self.spans[b].0))
        });
        order
    }

    /// Serializes to the versioned `tevot-obs/1` JSON document.
    pub fn to_json(&self) -> Json {
        let self_ns = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|((path, stat), &self_ns)| {
                Json::obj(vec![
                    ("path", Json::Str(path.clone())),
                    ("total_ns", Json::Num(stat.total_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    ("count", Json::from(stat.count)),
                    ("min_ns", Json::Num(stat.min_ns as f64)),
                    ("max_ns", Json::Num(stat.max_ns as f64)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| {
                Json::obj(vec![("name", Json::from(*name)), ("value", Json::from(*value))])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, bounds, counts)| {
                let q = |p: f64| {
                    metrics::quantile_from(bounds, counts, p).map(Json::Num).unwrap_or(Json::Null)
                };
                Json::obj(vec![
                    ("name", Json::from(*name)),
                    ("bounds", Json::Arr(bounds.iter().map(|&b| Json::from(b)).collect())),
                    ("counts", Json::Arr(counts.iter().map(|&c| Json::from(c)).collect())),
                    ("total", Json::from(counts.iter().sum::<u64>())),
                    ("p50", q(0.5)),
                    ("p90", q(0.9)),
                    ("p99", q(0.99)),
                ])
            })
            .collect();
        let hot_paths = self
            .hot_order(&self_ns)
            .into_iter()
            .map(|i| {
                let (path, stat) = &self.spans[i];
                Json::obj(vec![
                    ("path", Json::Str(path.clone())),
                    ("self_ns", Json::Num(self_ns[i] as f64)),
                    ("total_ns", Json::Num(stat.total_ns as f64)),
                    ("count", Json::from(stat.count)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::from(SCHEMA)),
            ("spans", Json::Arr(spans)),
            ("counters", Json::Arr(counters)),
            ("histograms", Json::Arr(histograms)),
            // Additive member (consumers ignore unknown members, same
            // precedent as the quantile fields): the self-time profile,
            // an embedded tevot-prof/1 block sorted hottest-first.
            (
                "profile",
                Json::obj(vec![
                    ("schema", Json::from(PROF_SCHEMA)),
                    ("hot_paths", Json::Arr(hot_paths)),
                ]),
            ),
        ])
    }

    /// Renders the human-readable summary: a stage-time tree followed by
    /// non-zero counters and histograms.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("── tevot-obs summary ──\n");
        if self.spans.is_empty() {
            out.push_str("stages: (none recorded)\n");
        } else {
            let self_ns = self.self_times_ns();
            // Tree walk with siblings ordered hottest-first (by self
            // time), so the expensive stage tops each level instead of
            // whatever sorts first alphabetically.
            let index: std::collections::BTreeMap<&str, usize> =
                self.spans.iter().enumerate().map(|(i, (path, _))| (path.as_str(), i)).collect();
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
            let mut roots: Vec<usize> = Vec::new();
            for (i, (path, _)) in self.spans.iter().enumerate() {
                match path.rsplit_once(PATH_SEPARATOR).and_then(|(parent, _)| index.get(parent)) {
                    Some(&p) => children[p].push(i),
                    None => roots.push(i),
                }
            }
            let by_self_desc = |siblings: &mut Vec<usize>| {
                siblings.sort_by(|&a, &b| {
                    self_ns[b].cmp(&self_ns[a]).then_with(|| self.spans[a].0.cmp(&self.spans[b].0))
                });
            };
            by_self_desc(&mut roots);
            for list in &mut children {
                by_self_desc(list);
            }
            out.push_str("stages:\n");
            let mut stack: Vec<usize> = roots.into_iter().rev().collect();
            while let Some(i) = stack.pop() {
                let (path, stat) = &self.spans[i];
                let depth = path.matches(PATH_SEPARATOR).count();
                let name = path.rsplit(PATH_SEPARATOR).next().unwrap_or(path);
                let ms = stat.total_ns as f64 / 1e6;
                out.push_str(&format!(
                    "  {:indent$}{name:<24} {ms:>10.3} ms  x{}\n",
                    "",
                    stat.count,
                    indent = depth * 2,
                ));
                stack.extend(children[i].iter().rev());
            }
            out.push_str("hot paths (self time):\n");
            for i in self.hot_order(&self_ns).into_iter().take(8) {
                let (path, stat) = &self.spans[i];
                out.push_str(&format!(
                    "  {path:<40} self {:>9.3} ms  total {:>9.3} ms  x{}\n",
                    self_ns[i] as f64 / 1e6,
                    stat.total_ns as f64 / 1e6,
                    stat.count,
                ));
            }
        }
        let live: Vec<_> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        if !live.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in live {
                out.push_str(&format!("  {name:<28} {value:>14}\n"));
            }
        }
        for (name, bounds, counts) in &self.histograms {
            let total: u64 = counts.iter().sum();
            if total == 0 {
                continue;
            }
            out.push_str(&format!("histogram {name} (total {total}):\n"));
            if let (Some(p50), Some(p90), Some(p99)) = (
                metrics::quantile_from(bounds, counts, 0.5),
                metrics::quantile_from(bounds, counts, 0.9),
                metrics::quantile_from(bounds, counts, 0.99),
            ) {
                out.push_str(&format!("  ~quantiles p50={p50:.0} p90={p90:.0} p99={p99:.0}\n"));
            }
            let peak = counts.iter().copied().max().unwrap_or(1).max(1);
            for (i, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let edge = match bounds.get(i) {
                    Some(b) => format!("<= {b}"),
                    None => format!("> {}", bounds.last().unwrap_or(&0)),
                };
                let bar = "#".repeat(((count * 24).div_ceil(peak)) as usize);
                out.push_str(&format!("  {edge:>10} {count:>12} {bar}\n"));
            }
        }
        out
    }
}

/// Writes `snapshot` as JSON to `path`.
///
/// # Errors
///
/// Returns the I/O error with the offending path in the message.
pub fn write_json(snapshot: &Snapshot, path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path).map_err(|e| {
        std::io::Error::new(e.kind(), format!("cannot write metrics to {}: {e}", path.display()))
    })?;
    writeln!(file, "{}", snapshot.to_json())
}

/// RAII reporter: on drop, captures a [`Snapshot`], writes it as JSON if
/// a path was configured, and prints the stderr summary when requested.
///
/// The stderr summary prints when either [`FinishGuard::summary`] was
/// enabled or the `TEVOT_OBS_SUMMARY` environment variable is set (to
/// anything but `0`); a JSON path alone stays quiet so scripted runs can
/// collect metrics without extra output.
#[derive(Debug, Default)]
pub struct FinishGuard {
    metrics_path: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    summary: bool,
}

impl FinishGuard {
    /// A guard that does nothing unless configured.
    pub fn new() -> FinishGuard {
        FinishGuard::default()
    }

    /// Writes the JSON report to `path` on drop (the `--metrics <path>`
    /// flag). `None` leaves the current setting unchanged.
    pub fn metrics_path(mut self, path: Option<PathBuf>) -> FinishGuard {
        if path.is_some() {
            self.metrics_path = path;
        }
        self
    }

    /// Enables timeline-event recording now and writes the Chrome
    /// trace-format JSON to `path` on drop (the `--trace <path>` flag).
    /// `None` leaves the current setting unchanged.
    pub fn trace_path(mut self, path: Option<PathBuf>) -> FinishGuard {
        if path.is_some() {
            crate::trace::enable();
            self.trace_path = path;
        }
        self
    }

    /// Forces the stderr summary on drop.
    pub fn summary(mut self, enabled: bool) -> FinishGuard {
        self.summary = enabled;
        self
    }
}

fn env_summary_requested() -> bool {
    matches!(std::env::var("TEVOT_OBS_SUMMARY"), Ok(v) if !v.is_empty() && v != "0")
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        if let Some(path) = &self.trace_path {
            match crate::trace::write_chrome_trace(path) {
                Ok(()) => crate::info!("trace written to {}", path.display()),
                Err(e) => crate::error!("{e}"),
            }
        }
        let want_summary = self.summary || env_summary_requested();
        if self.metrics_path.is_none() && !want_summary {
            return;
        }
        let snapshot = Snapshot::capture();
        if let Some(path) = &self.metrics_path {
            match write_json(&snapshot, path) {
                Ok(()) => crate::info!("metrics written to {}", path.display()),
                Err(e) => crate::error!("{e}"),
            }
        }
        if want_summary {
            let _ = std::io::stderr().lock().write_all(snapshot.render().as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(total_ns: u128, count: u64) -> SpanStat {
        SpanStat { total_ns, count, min_ns: total_ns / count.max(1) as u128, max_ns: total_ns }
    }

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                ("study".into(), stat(5_000_000, 1)),
                ("study/train".into(), stat(2_000_000, 4)),
            ],
            counters: vec![("sim.events_processed", 42), ("ml.train_iterations", 0)],
            histograms: vec![("sim.toggles_per_cycle", &[1, 2][..], vec![3, 0, 7])],
        }
    }

    #[test]
    fn json_document_has_schema_and_all_sections() {
        let doc = sample().to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("path").and_then(Json::as_str), Some("study/train"));
        assert_eq!(spans[1].get("count").and_then(Json::as_u64), Some(4));
        let counters = doc.get("counters").and_then(Json::as_arr).unwrap();
        assert_eq!(counters[0].get("value").and_then(Json::as_u64), Some(42));
        let hists = doc.get("histograms").and_then(Json::as_arr).unwrap();
        assert_eq!(hists[0].get("total").and_then(Json::as_u64), Some(10));
        assert_eq!(hists[0].get("counts").and_then(Json::as_arr).unwrap().len(), 3);
        // 7 of 10 observations sit in the overflow bucket, so p50 and p99
        // both saturate at the last finite bound.
        assert_eq!(hists[0].get("p50").and_then(Json::as_f64), Some(2.0));
        assert_eq!(hists[0].get("p99").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn empty_histogram_serializes_null_quantiles() {
        let snapshot = Snapshot {
            spans: vec![],
            counters: vec![],
            histograms: vec![("empty.hist", &[1][..], vec![0, 0])],
        };
        let doc = snapshot.to_json();
        let hists = doc.get("histograms").and_then(Json::as_arr).unwrap();
        assert_eq!(hists[0].get("p50"), Some(&Json::Null));
        // The render path skips empty histograms entirely.
        assert!(!snapshot.render().contains("empty.hist"));
    }

    #[test]
    fn json_report_round_trips_through_parser() {
        let doc = sample().to_json();
        let parsed = crate::json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn render_nests_children_and_skips_zero_counters() {
        let text = sample().render();
        assert!(text.contains("study"), "{text}");
        assert!(text.contains("    train"), "child indented: {text}");
        assert!(text.contains("sim.events_processed"), "{text}");
        assert!(!text.contains("ml.train_iterations"), "zero counter hidden: {text}");
        assert!(text.contains("histogram sim.toggles_per_cycle (total 10)"), "{text}");
        assert!(text.contains("~quantiles p50=2 p90=2 p99=2"), "{text}");
        assert!(text.contains("> 2"), "overflow bucket labeled: {text}");
    }

    #[test]
    fn self_time_subtracts_direct_children_and_clamps() {
        let snapshot = Snapshot {
            spans: vec![
                ("study".into(), stat(5_000_000, 1)),
                ("study/train".into(), stat(2_000_000, 4)),
                // Parallel children can out-accumulate the parent; the
                // parent's self time clamps at zero instead of wrapping.
                ("study/train/fit".into(), stat(9_000_000, 8)),
            ],
            counters: vec![],
            histograms: vec![],
        };
        let self_ns = snapshot.self_times_ns();
        assert_eq!(self_ns, vec![3_000_000, 0, 9_000_000]);
    }

    #[test]
    fn render_sorts_siblings_by_self_time_and_lists_hot_paths() {
        let snapshot = Snapshot {
            spans: vec![
                ("study".into(), stat(10_000_000, 1)),
                ("study/aaa_cheap".into(), stat(1_000_000, 1)),
                ("study/zzz_hot".into(), stat(8_000_000, 1)),
            ],
            counters: vec![],
            histograms: vec![],
        };
        let text = snapshot.render();
        let hot = text.find("zzz_hot").expect("hot child rendered");
        let cheap = text.find("aaa_cheap").expect("cheap child rendered");
        assert!(hot < cheap, "hot sibling first despite sorting later by name: {text}");
        assert!(text.contains("hot paths (self time):"), "{text}");
        // Hottest self time leads the table: zzz_hot (8 ms self) beats
        // study (10 total - 9 children = 1 ms self).
        let table = &text[text.find("hot paths").unwrap()..];
        assert!(
            table.find("study/zzz_hot").unwrap() < table.find("study/aaa_cheap").unwrap(),
            "{table}"
        );
    }

    #[test]
    fn json_spans_carry_self_and_extremes_and_profile_block() {
        let doc = sample().to_json();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans[0].get("self_ns").and_then(Json::as_f64), Some(3_000_000.0));
        assert!(spans[0].get("min_ns").is_some() && spans[0].get("max_ns").is_some());
        let profile = doc.get("profile").unwrap();
        assert_eq!(profile.get("schema").and_then(Json::as_str), Some(PROF_SCHEMA));
        let hot = profile.get("hot_paths").and_then(Json::as_arr).unwrap();
        assert_eq!(hot[0].get("path").and_then(Json::as_str), Some("study"));
        assert_eq!(hot[0].get("self_ns").and_then(Json::as_f64), Some(3_000_000.0));
    }
}

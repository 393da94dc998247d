//! Run-to-run diffing of `tevot-obs/1` reports.
//!
//! Two metrics JSON documents (written by `--metrics`) rarely tell a
//! story side by side; this module parses both and renders one delta
//! table over spans, counters and histograms — the engine behind
//! `tevot obs-diff a.json b.json`.
//!
//! Keys are matched by name; a key present in only one report renders
//! with `-` on the other side. Histograms contribute three derived rows
//! each (`total`, `~p50`, `~p99`, the quantiles interpolated via
//! [`metrics::quantile_from`](crate::metrics::quantile_from)). Counters
//! and histograms that read 0 (or are absent) in both reports are
//! skipped: every report lists the whole registry, and a run leaves
//! most of it untouched.
//!
//! Per-path self time diffs through the same machinery: the embedded
//! `tevot-prof/1` `profile` block fills [`Report::profile`], and reports
//! written before that block shipped derive self time from their span
//! totals — either way the diff renders a "self time (ms)" section
//! ordered by delta magnitude.

use crate::json::{parse, Json};
use crate::metrics::quantile_from;

/// One histogram's raw data as read from a report.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramData {
    /// Registry name.
    pub name: String,
    /// Inclusive upper bucket edges.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (one per bound plus overflow).
    pub counts: Vec<u64>,
}

/// A parsed `tevot-obs/1` document, structurally validated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// `(path, total_ns, count)` per span, in document order.
    pub spans: Vec<(String, f64, u64)>,
    /// `(name, value)` per counter, in document order.
    pub counters: Vec<(String, u64)>,
    /// Histogram data, in document order.
    pub histograms: Vec<HistogramData>,
    /// `(path, self_ns)` per span from the embedded `tevot-prof/1`
    /// `profile` block; derived from `spans` when the document predates
    /// the block.
    pub profile: Vec<(String, f64)>,
}

impl Report {
    /// Parses and validates a `tevot-obs/1` metrics document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or structural
    /// problem (bad JSON, wrong/missing schema tag, malformed entries).
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(crate::report::SCHEMA) => {}
            Some(other) => {
                return Err(format!("unsupported schema {other:?} (expected tevot-obs/1)"))
            }
            None => return Err("not a tevot-obs report: missing \"schema\" member".into()),
        }
        let arr = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing or non-array {key:?} member"))
        };
        let mut report = Report::default();
        for span in arr("spans")? {
            report.spans.push((
                span.get("path")
                    .and_then(Json::as_str)
                    .ok_or("span entry without \"path\"")?
                    .to_string(),
                span.get("total_ns").and_then(Json::as_f64).ok_or("span entry without total_ns")?,
                span.get("count").and_then(Json::as_u64).ok_or("span entry without count")?,
            ));
        }
        for counter in arr("counters")? {
            report.counters.push((
                counter
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("counter entry without \"name\"")?
                    .to_string(),
                counter.get("value").and_then(Json::as_u64).ok_or("counter entry without value")?,
            ));
        }
        for hist in arr("histograms")? {
            let ints = |key: &str| -> Result<Vec<u64>, String> {
                hist.get(key)
                    .and_then(Json::as_arr)
                    .map(|items| items.iter().filter_map(Json::as_u64).collect())
                    .ok_or_else(|| format!("histogram entry without {key:?}"))
            };
            report.histograms.push(HistogramData {
                name: hist
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("histogram entry without \"name\"")?
                    .to_string(),
                bounds: ints("bounds")?,
                counts: ints("counts")?,
            });
        }
        if let Some(profile) = doc.get("profile") {
            parse_hot_paths(profile, &mut report.profile)?;
        } else {
            // Reports written before the profile block shipped: derive
            // self time from the span totals (total minus direct
            // children, clamped), same arithmetic as the reporter.
            let mut child_totals: std::collections::BTreeMap<&str, f64> = Default::default();
            for (path, total_ns, _) in &report.spans {
                if let Some((parent, _)) = path.rsplit_once('/') {
                    *child_totals.entry(parent).or_default() += total_ns;
                }
            }
            report.profile = report
                .spans
                .iter()
                .map(|(path, total_ns, _)| {
                    let children = child_totals.get(path.as_str()).copied().unwrap_or(0.0);
                    (path.clone(), (total_ns - children).max(0.0))
                })
                .collect();
        }
        Ok(report)
    }
}

/// Reads an embedded `profile` block's `hot_paths` array into
/// `(path, self_ns)` pairs.
fn parse_hot_paths(block: &Json, out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let entries = block
        .get("hot_paths")
        .and_then(Json::as_arr)
        .ok_or("profile block without \"hot_paths\" array")?;
    for entry in entries {
        out.push((
            entry
                .get("path")
                .and_then(Json::as_str)
                .ok_or("hot_paths entry without \"path\"")?
                .to_string(),
            entry.get("self_ns").and_then(Json::as_f64).ok_or("hot_paths entry without self_ns")?,
        ));
    }
    Ok(())
}

/// One comparable quantity with a display precision.
#[derive(Debug, Clone, Copy)]
struct Cell {
    value: Option<f64>,
    decimals: usize,
}

impl Cell {
    fn text(self) -> String {
        match self.value {
            Some(v) => format!("{v:.prec$}", prec = self.decimals),
            None => "-".into(),
        }
    }
}

fn delta_cells(a: Option<f64>, b: Option<f64>, decimals: usize) -> (String, String) {
    match (a, b) {
        (Some(a), Some(b)) => {
            let delta = format!("{:+.prec$}", b - a, prec = decimals);
            let pct = if a != 0.0 {
                format!("{:+.1}%", (b - a) / a * 100.0)
            } else if b == 0.0 {
                "0.0%".into()
            } else {
                "new".into()
            };
            (delta, pct)
        }
        _ => ("-".into(), "-".into()),
    }
}

/// Merges two keyed sequences: keys of `a` in order, then `b`-only keys.
fn union_keys<'a, T>(
    a: &'a [(String, T)],
    b: &'a [(String, T)],
) -> Vec<(&'a str, Option<&'a T>, Option<&'a T>)> {
    let find =
        |side: &'a [(String, T)], key: &str| side.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let mut keys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in b {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    keys.into_iter().map(|k| (k, find(a, k), find(b, k))).collect()
}

fn section(out: &mut String, title: &str, rows: &[(String, Cell, Cell)]) {
    if rows.is_empty() {
        return;
    }
    out.push_str(&format!("{title}:\n"));
    out.push_str(&format!(
        "  {:<32} {:>12} {:>12} {:>12} {:>8}\n",
        "name", "a", "b", "delta", "delta%"
    ));
    for (name, a, b) in rows {
        let (delta, pct) = delta_cells(a.value, b.value, a.decimals.max(b.decimals));
        out.push_str(&format!(
            "  {:<32} {:>12} {:>12} {:>12} {:>8}\n",
            name,
            a.text(),
            b.text(),
            delta,
            pct
        ));
    }
}

/// Renders one self-time delta table over two reports' profiles:
/// rows are keyed by span path, valued in whatever unit the caller
/// supplies, sorted by absolute delta descending and truncated to
/// `limit`.
fn render_self_time_delta(
    title: &str,
    a: &[(String, f64)],
    b: &[(String, f64)],
    limit: usize,
) -> String {
    let mut rows: Vec<(String, Cell, Cell)> = union_keys(a, b)
        .into_iter()
        .map(|(key, a_v, b_v)| {
            (
                key.to_string(),
                Cell { value: a_v.copied(), decimals: 3 },
                Cell { value: b_v.copied(), decimals: 3 },
            )
        })
        .collect();
    rows.sort_by(|x, y| {
        let magnitude = |row: &(String, Cell, Cell)| {
            (row.2.value.unwrap_or(0.0) - row.1.value.unwrap_or(0.0)).abs()
        };
        magnitude(y).total_cmp(&magnitude(x)).then_with(|| x.0.cmp(&y.0))
    });
    rows.truncate(limit);
    let mut out = String::new();
    section(&mut out, title, &rows);
    out
}

/// Renders the delta table between two parsed reports (`a` = before /
/// baseline, `b` = after / candidate).
pub fn render_diff(a: &Report, b: &Report) -> String {
    let mut out = String::new();
    out.push_str("── tevot-obs diff (a → b) ──\n");

    let a_spans: Vec<(String, (f64, u64))> =
        a.spans.iter().map(|(k, ns, c)| (k.clone(), (*ns, *c))).collect();
    let b_spans: Vec<(String, (f64, u64))> =
        b.spans.iter().map(|(k, ns, c)| (k.clone(), (*ns, *c))).collect();
    let mut rows = Vec::new();
    for (key, a_stat, b_stat) in union_keys(&a_spans, &b_spans) {
        let ms = |stat: Option<&(f64, u64)>| stat.map(|(ns, _)| ns / 1e6);
        rows.push((
            key.to_string(),
            Cell { value: ms(a_stat), decimals: 3 },
            Cell { value: ms(b_stat), decimals: 3 },
        ));
    }
    section(&mut out, "spans (total ms)", &rows);

    let to_ms = |profile: &[(String, f64)]| -> Vec<(String, f64)> {
        profile.iter().map(|(k, ns)| (k.clone(), ns / 1e6)).collect()
    };
    out.push_str(&render_self_time_delta(
        "self time (ms)",
        &to_ms(&a.profile),
        &to_ms(&b.profile),
        usize::MAX,
    ));

    let mut rows = Vec::new();
    for (key, a_v, b_v) in union_keys(&a.counters, &b.counters) {
        if a_v.copied().unwrap_or(0) == 0 && b_v.copied().unwrap_or(0) == 0 {
            continue;
        }
        rows.push((
            key.to_string(),
            Cell { value: a_v.map(|&v| v as f64), decimals: 0 },
            Cell { value: b_v.map(|&v| v as f64), decimals: 0 },
        ));
    }
    section(&mut out, "counters", &rows);

    let a_hists: Vec<(String, &HistogramData)> =
        a.histograms.iter().map(|h| (h.name.clone(), h)).collect();
    let b_hists: Vec<(String, &HistogramData)> =
        b.histograms.iter().map(|h| (h.name.clone(), h)).collect();
    let mut rows = Vec::new();
    for (key, a_h, b_h) in union_keys(&a_hists, &b_hists) {
        let total = |h: Option<&&HistogramData>| h.map(|h| h.counts.iter().sum::<u64>() as f64);
        if total(a_h).unwrap_or(0.0) == 0.0 && total(b_h).unwrap_or(0.0) == 0.0 {
            continue;
        }
        let quant = |h: Option<&&HistogramData>, q: f64| {
            h.and_then(|h| quantile_from(&h.bounds, &h.counts, q))
        };
        rows.push((
            format!("{key}.total"),
            Cell { value: total(a_h), decimals: 0 },
            Cell { value: total(b_h), decimals: 0 },
        ));
        for (label, q) in [("~p50", 0.5), ("~p99", 0.99)] {
            rows.push((
                format!("{key}.{label}"),
                Cell { value: quant(a_h, q), decimals: 1 },
                Cell { value: quant(b_h, q), decimals: 1 },
            ));
        }
    }
    section(&mut out, "histograms", &rows);

    if a_spans.is_empty() && b_spans.is_empty() && a.counters.is_empty() && b.counters.is_empty() {
        out.push_str("(both reports are empty)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = r#"{"schema":"tevot-obs/1",
        "spans":[{"path":"study","total_ns":4000000,"count":1},
                 {"path":"study/train","total_ns":1000000,"count":2}],
        "counters":[{"name":"sim.cycles_simulated","value":100},
                    {"name":"ml.node_splits","value":40}],
        "histograms":[{"name":"sim.cycle_delay_ps","bounds":[100,200],
                       "counts":[10,10,0],"total":20}]}"#;
    const B: &str = r#"{"schema":"tevot-obs/1",
        "spans":[{"path":"study","total_ns":5000000,"count":1},
                 {"path":"study/evaluate","total_ns":500000,"count":1}],
        "counters":[{"name":"sim.cycles_simulated","value":150}],
        "histograms":[{"name":"sim.cycle_delay_ps","bounds":[100,200],
                       "counts":[0,10,10],"total":20}]}"#;

    #[test]
    fn parses_well_formed_reports() {
        let a = Report::parse(A).unwrap();
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.counters[0], ("sim.cycles_simulated".into(), 100));
        assert_eq!(a.histograms[0].counts, vec![10, 10, 0]);
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(Report::parse("not json").unwrap_err().contains("JSON parse error"));
        assert!(Report::parse("{\"schema\":\"bogus/9\",\"spans\":[]}")
            .unwrap_err()
            .contains("unsupported schema"));
        assert!(Report::parse("{\"spans\":[]}").unwrap_err().contains("missing \"schema\""));
        assert!(Report::parse("{\"schema\":\"tevot-obs/1\"}")
            .unwrap_err()
            .contains("missing or non-array"));
    }

    #[test]
    fn diff_covers_union_of_keys_with_deltas() {
        let a = Report::parse(A).unwrap();
        let b = Report::parse(B).unwrap();
        let text = render_diff(&a, &b);
        // Shared span: 4 ms -> 5 ms, +25%.
        assert!(text.contains("study"), "{text}");
        assert!(text.contains("+25.0%"), "{text}");
        // a-only and b-only keys render with '-' on the absent side.
        assert!(text.contains("study/train"), "{text}");
        assert!(text.contains("study/evaluate"), "{text}");
        assert!(text.contains('-'), "{text}");
        // Counters: 100 -> 150 (+50%), and the a-only counter appears.
        assert!(text.contains("+50.0%"), "{text}");
        assert!(text.contains("ml.node_splits"), "{text}");
        // Histogram quantiles shift right: p50 moves from 100 to 200.
        assert!(text.contains("sim.cycle_delay_ps.~p50"), "{text}");
        assert!(text.contains("+100.0%"), "{text}");
    }

    #[test]
    fn old_reports_derive_self_time_from_span_totals() {
        let a = Report::parse(A).unwrap();
        // study: 4 ms total - 1 ms child = 3 ms self; leaf keeps its own.
        assert_eq!(a.profile[0], ("study".into(), 3_000_000.0));
        assert_eq!(a.profile[1], ("study/train".into(), 1_000_000.0));
    }

    #[test]
    fn self_time_delta_sorts_by_magnitude_and_truncates() {
        let a = vec![("tiny".to_string(), 1.0), ("big".to_string(), 10.0)];
        let b = vec![("tiny".to_string(), 1.5), ("big".to_string(), 2.0)];
        let text = render_self_time_delta("self time (ms)", &a, &b, 1);
        assert!(text.contains("big"), "{text}");
        assert!(!text.contains("tiny"), "truncated to top 1: {text}");
    }

    #[test]
    fn rows_zero_or_absent_in_both_reports_are_skipped() {
        let counters = |pairs: &[(&str, u64)]| pairs.iter().map(|&(n, v)| (n.into(), v)).collect();
        let hist = |name: &str, n: u64| HistogramData {
            name: name.into(),
            bounds: vec![100, 200],
            counts: vec![n, 0, 0],
        };
        let a = Report {
            counters: counters(&[("sim.cycles_simulated", 0), ("serve.requests", 0)]),
            histograms: vec![hist("serve.batch_jobs", 0), hist("sim.cycle_delay_ps", 0)],
            ..Report::default()
        };
        let b = Report {
            counters: counters(&[("sim.cycles_simulated", 5), ("dfs.decisions", 0)]),
            histograms: vec![hist("sim.cycle_delay_ps", 1), hist("serve.queue_depth", 0)],
            ..Report::default()
        };
        let text = render_diff(&a, &b);
        // Moved from 0: kept, with all three histogram rows.
        assert!(text.contains("sim.cycles_simulated"), "{text}");
        for row in ["total", "~p50", "~p99"] {
            assert!(text.contains(&format!("sim.cycle_delay_ps.{row}")), "{text}");
        }
        // 0 in both, or 0 on one side and absent on the other: skipped.
        for name in ["serve.requests", "dfs.decisions", "serve.batch_jobs", "serve.queue_depth"] {
            assert!(!text.contains(name), "{name} in {text}");
        }
    }

    #[test]
    fn diff_of_identical_reports_has_zero_deltas() {
        let a = Report::parse(A).unwrap();
        let text = render_diff(&a, &a);
        assert!(text.contains("+0.000"), "{text}");
        assert!(text.contains("+0.0%"), "{text}");
    }
}

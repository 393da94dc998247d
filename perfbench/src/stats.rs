//! Order statistics over measured samples.

use tevot_obs::metrics::quantile_sorted;

/// The interpolated `q` quantile of `values` (R-7, the convention the
/// server's own histograms use); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q).unwrap_or(0.0)
}

/// The median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Above this share of CPU time stolen by the hypervisor, a repetition
/// measured the host more than the program.
pub const STEAL_MAX: f64 = 0.02;

/// The repetitions to report from: those that pass `valid` and ran while
/// the hypervisor stole at most [`STEAL_MAX`] of the CPU; when fewer than
/// half qualify, the half ranked best by (valid, least steal).
pub fn calm<T>(items: &[T], steal: impl Fn(&T) -> f64, valid: impl Fn(&T) -> bool) -> Vec<&T> {
    let good: Vec<&T> = items.iter().filter(|x| valid(x) && steal(x) <= STEAL_MAX).collect();
    let half = items.len().div_ceil(2);
    if good.len() >= half {
        return good;
    }
    let mut ranked: Vec<&T> = items.iter().collect();
    ranked.sort_by(|a, b| valid(b).cmp(&valid(a)).then(steal(a).total_cmp(&steal(b))));
    ranked.truncate(half);
    ranked
}

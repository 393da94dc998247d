//! Online model-drift math: fixed-bin reference histograms and the
//! Population Stability Index.
//!
//! TEVoT models are trained on a characterization sweep over a fixed
//! (V, T) grid; once deployed, nothing guarantees the traffic a server
//! sees still resembles that sweep. This module holds the pure math for
//! detecting the shift: a [`HistSpec`] describes a fixed uniform
//! binning, a [`ReferenceHist`] is a binned snapshot of the training
//! distribution, and [`psi`] compares bin-fraction vectors with the
//! standard Population Stability Index
//!
//! ```text
//! PSI = sum_i (a_i - e_i) * ln(a_i / e_i)
//! ```
//!
//! where `e` is the expected (reference) fraction per bin and `a` the
//! actual (live) one. Fractions are floored at [`PSI_EPSILON`] so empty
//! bins stay finite; the formula is symmetric in `a`/`e`, zero iff the
//! fractions agree, and grows without bound as mass moves into bins the
//! reference never populated. The conventional reading: `< 0.1` stable,
//! `0.1..0.25` drifting, `>= 0.25` shifted (the default alert level).
//!
//! The serving side keeps live observations in a bounded
//! [`DriftWindow`] and re-bins them against the model's persisted
//! reference whenever `GET /watch` is asked.

/// Floor applied to bin fractions before the PSI log-ratio, keeping
/// empty bins finite.
pub const PSI_EPSILON: f64 = 1e-6;

/// The conventional "distribution has shifted" PSI alert level.
pub const PSI_ALERT_DEFAULT: f64 = 0.25;

/// A fixed uniform binning of `[lo, hi]` into `bins` equal-width bins.
/// Values outside the range clamp into the edge bins, so out-of-support
/// mass is visible as edge-bin concentration rather than lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSpec {
    /// Inclusive lower edge of the binned range.
    pub lo: f64,
    /// Inclusive upper edge of the binned range.
    pub hi: f64,
    /// Number of equal-width bins (at least 1).
    pub bins: usize,
}

impl HistSpec {
    /// A spec over `[lo, hi]` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics when `bins == 0`, the edges are not finite, or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> HistSpec {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && hi > lo, "bad histogram range [{lo}, {hi}]");
        HistSpec { lo, hi, bins }
    }

    /// The bin index for `x` (clamped into `0..bins`; NaN lands in bin 0).
    pub fn bin(&self, x: f64) -> usize {
        if x.is_nan() || x <= self.lo {
            return 0;
        }
        let width = (self.hi - self.lo) / self.bins as f64;
        (((x - self.lo) / width) as usize).min(self.bins - 1)
    }
}

/// A binned snapshot of a distribution: a [`HistSpec`] plus one count
/// per bin. This is what gets persisted inside a model file at train
/// time and compared against live traffic at serve time.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceHist {
    /// The binning.
    pub spec: HistSpec,
    /// Observation count per bin (`spec.bins` entries).
    pub counts: Vec<u64>,
}

impl ReferenceHist {
    /// Bins `values` under `spec`.
    pub fn collect(spec: HistSpec, values: impl IntoIterator<Item = f64>) -> ReferenceHist {
        let mut counts = vec![0u64; spec.bins];
        for v in values {
            counts[spec.bin(v)] += 1;
        }
        ReferenceHist { spec, counts }
    }

    /// Total observations binned.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bin fractions (all zero when nothing was binned).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// PSI of `values` (binned under this reference's spec) against this
    /// reference. `None` when either side is empty.
    pub fn psi_of(&self, values: &[f64]) -> Option<f64> {
        if self.total() == 0 || values.is_empty() {
            return None;
        }
        let live = ReferenceHist::collect(self.spec, values.iter().copied());
        Some(psi(&self.fractions(), &live.fractions()))
    }
}

/// The Population Stability Index between two bin-fraction vectors (see
/// the module docs for the formula and reading). Slices must have equal
/// length; fractions are floored at [`PSI_EPSILON`].
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn psi(expected: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(expected.len(), actual.len(), "PSI needs equal-length fraction vectors");
    expected
        .iter()
        .zip(actual)
        .map(|(&e, &a)| {
            let e = e.max(PSI_EPSILON);
            let a = a.max(PSI_EPSILON);
            (a - e) * (a / e).ln()
        })
        .sum()
}

/// A bounded sliding window of live observations (oldest evicted
/// first), the serve-side half of a drift comparison.
#[derive(Debug, Clone)]
pub struct DriftWindow {
    values: std::collections::VecDeque<f64>,
    capacity: usize,
}

impl DriftWindow {
    /// An empty window holding at most `capacity` observations.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> DriftWindow {
        assert!(capacity > 0, "drift window needs a non-zero capacity");
        DriftWindow { values: std::collections::VecDeque::with_capacity(capacity), capacity }
    }

    /// Appends an observation, evicting the oldest once full.
    pub fn push(&mut self, value: f64) {
        if self.values.len() == self.capacity {
            self.values.pop_front();
        }
        self.values.push_back(value);
    }

    /// Observations currently held (oldest first).
    pub fn values(&self) -> Vec<f64> {
        self.values.iter().copied().collect()
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// PSI of the windowed observations against `reference` (`None`
    /// while either side is empty).
    pub fn psi_against(&self, reference: &ReferenceHist) -> Option<f64> {
        let values = self.values();
        reference.psi_of(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_ref() -> ReferenceHist {
        let spec = HistSpec::new(0.0, 10.0, 10);
        ReferenceHist::collect(spec, (0..100).map(|i| f64::from(i) / 10.0))
    }

    #[test]
    fn bins_clamp_out_of_range_values() {
        let spec = HistSpec::new(0.0, 10.0, 10);
        assert_eq!(spec.bin(-5.0), 0);
        assert_eq!(spec.bin(0.0), 0);
        assert_eq!(spec.bin(9.99), 9);
        assert_eq!(spec.bin(10.0), 9);
        assert_eq!(spec.bin(1e9), 9);
        assert_eq!(spec.bin(f64::NAN), 0);
    }

    #[test]
    fn psi_of_identical_distributions_is_zero() {
        let reference = uniform_ref();
        let f = reference.fractions();
        assert_eq!(psi(&f, &f), 0.0);
        // Same data replayed through psi_of: numerically ~0.
        let values: Vec<f64> = (0..100).map(|i| f64::from(i) / 10.0).collect();
        let p = reference.psi_of(&values).unwrap();
        assert!(p.abs() < 1e-12, "self-PSI {p}");
    }

    #[test]
    fn psi_is_symmetric_and_large_on_a_shift() {
        let spec = HistSpec::new(0.0, 10.0, 10);
        let low = ReferenceHist::collect(spec, (0..100).map(|i| f64::from(i % 30) / 10.0));
        let high = ReferenceHist::collect(spec, (0..100).map(|i| 7.0 + f64::from(i % 30) / 10.0));
        let forward = psi(&low.fractions(), &high.fractions());
        let backward = psi(&high.fractions(), &low.fractions());
        assert!((forward - backward).abs() < 1e-12, "PSI asymmetric: {forward} vs {backward}");
        assert!(forward > PSI_ALERT_DEFAULT, "disjoint distributions must alert: PSI {forward}");
        // Bounded: epsilon floors keep even disjoint mass finite.
        assert!(forward.is_finite() && forward < 2.0 * (1.0 / PSI_EPSILON).ln());
    }

    #[test]
    fn empty_sides_yield_none() {
        let reference = uniform_ref();
        assert_eq!(reference.psi_of(&[]), None);
        let empty = ReferenceHist { spec: reference.spec, counts: vec![0; 10] };
        assert_eq!(empty.psi_of(&[1.0]), None);
        assert_eq!(empty.fractions(), vec![0.0; 10]);
    }

    #[test]
    fn drift_window_evicts_oldest() {
        let mut w = DriftWindow::new(3);
        assert!(w.is_empty());
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.values(), vec![2.0, 3.0, 4.0]);
        // A window saturated off-reference alerts against a low reference.
        let spec = HistSpec::new(0.0, 10.0, 10);
        let reference = ReferenceHist::collect(spec, vec![0.5; 50]);
        assert!(w.psi_against(&reference).unwrap() > PSI_ALERT_DEFAULT);
    }
}

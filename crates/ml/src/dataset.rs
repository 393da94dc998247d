//! In-memory datasets for supervised learning.

use rand::seq::SliceRandom;
use rand::Rng;

/// A dense, row-major feature matrix with one numeric label per row.
///
/// Labels are `f64` for both regression (e.g. dynamic delay in ps) and
/// binary classification (0.0 / 1.0); the estimators decide how to
/// interpret them.
///
/// # Examples
///
/// ```
/// use tevot_ml::Dataset;
///
/// let mut data = Dataset::new(2);
/// data.push(&[0.0, 1.0], 10.0);
/// data.push(&[1.0, 0.0], 20.0);
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.row(1), &[1.0, 0.0]);
/// assert_eq!(data.label(1), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    num_features: usize,
    features: Vec<f64>,
    labels: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset whose rows have `num_features` columns.
    ///
    /// # Panics
    ///
    /// Panics if `num_features` is zero.
    pub fn new(num_features: usize) -> Self {
        assert!(num_features > 0, "dataset must have at least one feature");
        Dataset { num_features, features: Vec::new(), labels: Vec::new() }
    }

    /// Creates a dataset with rows preallocated for `capacity` samples.
    pub fn with_capacity(num_features: usize, capacity: usize) -> Self {
        let mut d = Dataset::new(num_features);
        d.features.reserve(capacity * num_features);
        d.labels.reserve(capacity);
        d
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from [`Self::num_features`], or if a
    /// feature value is NaN or infinite: split thresholds are midpoints of
    /// finite values, and a NaN would compare false on both sides of one.
    pub fn push(&mut self, row: &[f64], label: f64) {
        assert_eq!(row.len(), self.num_features, "row width mismatch");
        assert!(row.iter().all(|x| x.is_finite()), "non-finite feature value in {row:?}");
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.num_features..(i + 1) * self.num_features]
    }

    /// Label of row `i`.
    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Iterates `(row, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        (0..self.len()).map(move |i| (self.row(i), self.labels[i]))
    }

    /// Returns a dataset containing the given rows (by index, duplicates
    /// allowed — this is also the bootstrap-sampling primitive).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::with_capacity(self.num_features, indices.len());
        for &i in indices {
            out.push(self.row(i), self.labels[i]);
        }
        out
    }

    /// Appends every row of `other` (same feature width) to `self` — the
    /// ordered-concatenation primitive behind parallel featurization.
    ///
    /// # Panics
    ///
    /// Panics if the feature widths differ.
    pub fn append(&mut self, other: &Dataset) {
        assert_eq!(self.num_features, other.num_features, "dataset width mismatch");
        self.features.extend_from_slice(&other.features);
        self.labels.extend_from_slice(&other.labels);
    }

    /// Splits into `(train, test)` with `train_fraction` of the rows (after
    /// a shuffle driven by `rng`) in the training set.
    ///
    /// With at least two rows, both halves are guaranteed non-empty: the
    /// rounded cut is clamped into `1..=len-1`, so extreme fractions on
    /// tiny datasets (`round(len * fraction)` hitting `0` or `len`) no
    /// longer produce an empty train or test set that the estimators
    /// would panic on.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1`.
    pub fn split(&self, train_fraction: f64, rng: &mut impl Rng) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&train_fraction) && train_fraction > 0.0,
            "train fraction {train_fraction} out of range"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let mut cut = (self.len() as f64 * train_fraction).round() as usize;
        if self.len() >= 2 {
            cut = cut.clamp(1, self.len() - 1);
        }
        (self.select(&idx[..cut]), self.select(&idx[cut..]))
    }

    /// Relabels every row through `f`, e.g. to turn delay labels into
    /// error-class labels for a specific clock period.
    pub fn map_labels(&self, f: impl Fn(f64) -> f64) -> Dataset {
        let mut out = self.clone();
        for l in &mut out.labels {
            *l = f(*l);
        }
        out
    }
}

/// Per-feature standardization (zero mean, unit variance), required by the
/// distance- and margin-based estimators (k-NN, SVM) when features live on
/// very different scales — e.g. voltage in volts next to temperature in
/// degrees.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    means: Vec<f64>,
    inv_stds: Vec<f64>,
}

impl Scaler {
    /// Learns the per-feature mean and standard deviation of `data`.
    /// Constant features get an identity scaling instead of a division by
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset) -> Self {
        assert!(!data.is_empty(), "cannot fit a scaler on an empty dataset");
        let d = data.num_features();
        let n = data.len() as f64;
        let mut means = vec![0.0; d];
        for (row, _) in data.iter() {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for (row, _) in data.iter() {
            for ((v, &m), &x) in vars.iter_mut().zip(&means).zip(row) {
                *v += (x - m) * (x - m);
            }
        }
        let inv_stds = vars
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    1.0 / s
                } else {
                    1.0
                }
            })
            .collect();
        Scaler { means, inv_stds }
    }

    /// Standardizes one row into `out`.
    ///
    /// # Panics
    ///
    /// Panics if widths mismatch.
    pub fn transform_into(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.means.len(), "row width mismatch");
        out.clear();
        out.extend(
            row.iter().zip(&self.means).zip(&self.inv_stds).map(|((&x, &m), &inv)| (x - m) * inv),
        );
    }

    /// Standardizes a whole dataset (labels pass through).
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::with_capacity(data.num_features(), data.len());
        let mut buf = Vec::with_capacity(data.num_features());
        for (row, label) in data.iter() {
            self.transform_into(row, &mut buf);
            out.push(&buf, label);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[i as f64, (i % 2) as f64], i as f64 * 10.0);
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.row(3), &[3.0, 1.0]);
        assert_eq!(d.label(3), 30.0);
    }

    #[test]
    fn split_partitions_rows() {
        let d = toy();
        let mut rng = SmallRng::seed_from_u64(7);
        let (train, test) = d.split(0.7, &mut rng);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        // Every original label appears exactly once across the two halves.
        let mut all: Vec<f64> = train.labels().iter().chain(test.labels()).copied().collect();
        all.sort_by(f64::total_cmp);
        assert_eq!(all, (0..10).map(|i| i as f64 * 10.0).collect::<Vec<_>>());
    }

    #[test]
    fn split_of_tiny_datasets_keeps_both_halves_non_empty() {
        let mut rng = SmallRng::seed_from_u64(3);
        for len in 2..=5usize {
            let mut d = Dataset::new(1);
            for i in 0..len {
                d.push(&[i as f64], i as f64);
            }
            for fraction in [0.01, 0.5, 0.99] {
                let (train, test) = d.split(fraction, &mut rng);
                assert!(!train.is_empty(), "len {len} fraction {fraction}: empty train");
                assert!(!test.is_empty(), "len {len} fraction {fraction}: empty test");
                assert_eq!(train.len() + test.len(), len);
            }
        }
    }

    #[test]
    fn split_of_single_row_dataset_does_not_panic() {
        let mut d = Dataset::new(1);
        d.push(&[1.0], 2.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let (train, test) = d.split(0.9, &mut rng);
        assert_eq!(train.len() + test.len(), 1);
        let (train, test) = Dataset::new(1).split(0.5, &mut rng);
        assert!(train.is_empty() && test.is_empty());
    }

    #[test]
    fn append_concatenates_in_order() {
        let d = toy();
        let mut a = d.select(&[0, 1, 2]);
        let b = d.select(&[3, 4]);
        a.append(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.row(3), d.row(3));
        assert_eq!(a.label(4), d.label(4));
    }

    #[test]
    #[should_panic(expected = "non-finite feature value")]
    fn push_rejects_nan_features() {
        Dataset::new(2).push(&[0.0, f64::NAN], 1.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn append_rejects_width_mismatch() {
        let mut a = Dataset::new(2);
        a.append(&Dataset::new(3));
    }

    #[test]
    fn select_allows_duplicates() {
        let d = toy();
        let boot = d.select(&[0, 0, 5]);
        assert_eq!(boot.len(), 3);
        assert_eq!(boot.label(0), 0.0);
        assert_eq!(boot.label(1), 0.0);
        assert_eq!(boot.label(2), 50.0);
    }

    #[test]
    fn map_labels_transforms() {
        let d = toy().map_labels(|l| (l > 40.0) as u8 as f64);
        assert_eq!(d.label(0), 0.0);
        assert_eq!(d.label(9), 1.0);
    }

    #[test]
    fn scaler_standardizes() {
        let d = toy();
        let scaler = Scaler::fit(&d);
        let t = scaler.transform(&d);
        let n = t.len() as f64;
        for col in 0..2 {
            let mean: f64 = (0..t.len()).map(|i| t.row(i)[col]).sum::<f64>() / n;
            let var: f64 = (0..t.len()).map(|i| t.row(i)[col].powi(2)).sum::<f64>() / n;
            assert!(mean.abs() < 1e-9, "column {col} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "column {col} variance {var}");
        }
        // Labels untouched.
        assert_eq!(t.labels(), d.labels());
    }

    #[test]
    fn scaler_handles_constant_features() {
        let mut d = Dataset::new(1);
        d.push(&[5.0], 0.0);
        d.push(&[5.0], 1.0);
        let t = Scaler::fit(&d).transform(&d);
        assert_eq!(t.row(0), &[0.0]);
    }
}

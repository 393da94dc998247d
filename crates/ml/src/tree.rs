//! CART decision trees (regression and binary classification).
//!
//! The implementation is histogram-based: candidate thresholds for each
//! feature come from its globally observed distinct values (capped at
//! [`MAX_THRESHOLDS`], beyond which quantiles are used). TEVoT's feature
//! space — 128 bit-features plus the small discrete voltage/temperature
//! axes — makes this both exact and fast: a bit feature has one candidate
//! threshold, voltage twenty.
//!
//! **Binning.** [`ThresholdTable::build`] also stores one `u16` bin code
//! per (row, feature): the number of cuts below the value. Cut `j` sends
//! a row left when its code is `<= j`, which for a finite value is the
//! same test as `x <= cuts[j]`, so split search and partitioning never
//! read the `f64` matrix again.
//!
//! **Row-wise histograms.** A node's histogram is built in one pass over
//! its rows in index order, adding each row's label to the bucket of
//! every examined feature. Successive adds go to independent buckets,
//! and each bucket still sums its rows in index order, so every `f64`
//! sum is the one a feature-at-a-time loop would form.
//!
//! **Exact sums and subtraction.** When every label is an integer and
//! `n · max l² < 2⁵³` (TEVoT's picosecond delays, 0/1 class labels), every
//! count, sum and sum of squares a histogram holds, and every partial sum
//! formed on the way, is an integer below 2⁵³, which an `f64` represents
//! exactly. Each such sum is then the exact integer whatever the order of
//! addition, and parent − sibling is exact too, so a child's histogram
//! taken by subtraction is bit-for-bit the one a pass over its rows would
//! build. Only the smaller child is then built from its rows. Subtraction
//! also needs every feature examined at every split (`max_features =
//! None`), so that the parent's histogram covers the child's features.
//! Other labels (gradient-boosting residuals) build both children.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;

/// Maximum number of candidate thresholds kept per feature.
pub const MAX_THRESHOLDS: usize = 256;

/// Hyper-parameters shared by single trees and forests.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child.
    pub min_samples_leaf: usize,
    /// Number of features examined per split; `None` means all (the
    /// paper's scikit-learn default for its random forest).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 24, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

/// What the tree optimizes at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Variance reduction; leaves predict the mean label.
    Regression,
    /// Gini impurity on binary labels (0.0 / 1.0); leaves predict the
    /// class-1 fraction.
    Classification,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Node {
    /// Split feature, or `u32::MAX` for a leaf.
    feature: u32,
    /// Split threshold (`x <= threshold` goes left), or the leaf's
    /// prediction.
    value: f64,
    /// Children (pushed independently, so both are stored).
    left: u32,
    right: u32,
    /// Sample-weighted impurity decrease of this split (0 for leaves) —
    /// the raw material of feature importances.
    gain: f64,
}

const LEAF: u32 = u32::MAX;

/// A fitted CART decision tree.
///
/// # Examples
///
/// ```
/// use tevot_ml::{Dataset, DecisionTree, Task, TreeParams};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut data = Dataset::new(1);
/// for i in 0..100 {
///     let x = i as f64 / 100.0;
///     data.push(&[x], if x < 0.5 { 1.0 } else { 9.0 });
/// }
/// let mut rng = SmallRng::seed_from_u64(0);
/// let tree = DecisionTree::fit(&data, Task::Regression, &TreeParams::default(), &mut rng);
/// assert_eq!(tree.predict(&[0.2]), 1.0);
/// assert_eq!(tree.predict(&[0.9]), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
    task: Task,
}

/// Per-feature candidate thresholds and every row's bin codes, shared
/// across the trees of a forest.
#[derive(Debug, Clone)]
pub struct ThresholdTable {
    /// Sorted candidate thresholds per feature (midpoints between adjacent
    /// observed distinct values).
    cuts: Vec<Vec<f64>>,
    /// First histogram bucket of each feature; feature `f` owns
    /// `cuts[f].len() + 1` buckets, and the last entry is the total.
    offsets: Vec<usize>,
    /// Row-major bin codes: entry `i * d + f` is the number of cuts of
    /// feature `f` below row `i`'s value (`u16`: `MAX_THRESHOLDS + 1`
    /// bins do not fit a byte).
    codes: Vec<u16>,
}

impl ThresholdTable {
    /// Scans `data` once, derives the candidate thresholds of every
    /// feature and bins every value.
    pub fn build(data: &Dataset) -> Self {
        let d = data.num_features();
        let n = data.len();
        let mut cuts = Vec::with_capacity(d);
        let mut values: Vec<f64> = Vec::with_capacity(n);
        for f in 0..d {
            values.clear();
            values.extend((0..n).map(|i| data.row(i)[f]));
            values.sort_by(f64::total_cmp);
            values.dedup();
            let distinct = &values[..];
            let mut c: Vec<f64> = if distinct.len() <= MAX_THRESHOLDS + 1 {
                distinct.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
            } else {
                // Quantile subsample.
                (1..=MAX_THRESHOLDS)
                    .map(|k| {
                        let idx = k * (distinct.len() - 1) / (MAX_THRESHOLDS + 1);
                        0.5 * (distinct[idx] + distinct[idx + 1])
                    })
                    .collect()
            };
            c.dedup();
            cuts.push(c);
        }
        let offsets = std::iter::once(0)
            .chain(cuts.iter().scan(0, |end, c: &Vec<f64>| {
                *end += c.len() + 1;
                Some(*end)
            }))
            .collect();
        let mut codes = Vec::with_capacity(n * d);
        for i in 0..n {
            codes.extend(
                data.row(i).iter().zip(&cuts).map(|(&x, c)| c.partition_point(|&c| c < x) as u16),
            );
        }
        ThresholdTable { cuts, offsets, codes }
    }

    /// Candidate thresholds for feature `f`.
    pub fn cuts(&self, f: usize) -> &[f64] {
        &self.cuts[f]
    }

    /// Number of rows binned.
    pub(crate) fn num_rows(&self) -> usize {
        self.codes.len() / self.num_features()
    }

    /// Number of features.
    pub(crate) fn num_features(&self) -> usize {
        self.cuts.len()
    }

    /// Bin codes of row `i`.
    #[inline]
    fn row_codes(&self, i: u32) -> &[u16] {
        let d = self.num_features();
        &self.codes[i as usize * d..][..d]
    }

    /// Bin code of row `i`, feature `f`.
    #[inline]
    fn code(&self, i: u32, f: usize) -> usize {
        self.row_codes(i)[f] as usize
    }
}

/// Whether every partial count, sum and sum of squares over `indices` is
/// an exact integer below 2⁵³: every label is an integer and
/// `n · max l² < 2⁵³` (an integer's `|l|` is at most `l²`).
fn integer_sums_are_exact(labels: &[f64], indices: &[u32]) -> bool {
    let mut max_abs = 0.0f64;
    for &i in indices {
        let label = labels[i as usize];
        // `fract` of an infinity or NaN is NaN, which fails this test.
        if label.fract() != 0.0 {
            return false;
        }
        max_abs = max_abs.max(label.abs());
    }
    let max_abs = max_abs as u128;
    max_abs
        .checked_mul(max_abs)
        .and_then(|sq| sq.checked_mul(indices.len() as u128))
        .is_some_and(|bound| bound < 1 << 53)
}

/// Running label statistics sufficient for both impurity criteria.
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    n: f64,
    sum: f64,
    sum_sq: f64,
}

impl Stats {
    #[inline]
    fn add(&mut self, label: f64, square: f64) {
        self.n += 1.0;
        self.sum += label;
        self.sum_sq += square;
    }

    #[inline]
    fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    #[inline]
    fn minus(mut self, other: &Self) -> Self {
        self.n -= other.n;
        self.sum -= other.sum;
        self.sum_sq -= other.sum_sq;
        self
    }

    /// Weighted impurity: SSE for regression, `n * gini` for binary
    /// classification (labels in {0, 1} make `sum` the class-1 count).
    #[inline]
    fn impurity(&self, task: Task) -> f64 {
        let (n, sum) = (self.n, self.sum);
        if n == 0.0 {
            return 0.0;
        }
        match task {
            Task::Regression => self.sum_sq - sum * sum / n,
            Task::Classification => {
                let p = sum / n;
                2.0 * n * p * (1.0 - p)
            }
        }
    }

    #[inline]
    fn prediction(&self) -> f64 {
        if self.n == 0.0 {
            0.0
        } else {
            self.sum / self.n
        }
    }
}

impl DecisionTree {
    /// Fits a tree on `data`.
    ///
    /// `rng` is only consulted when `params.max_features` restricts the
    /// per-split feature subset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, task: Task, params: &TreeParams, rng: &mut impl Rng) -> Self {
        let table = ThresholdTable::build(data);
        let indices: Vec<u32> = (0..data.len() as u32).collect();
        Self::fit_with_table(&table, data.labels(), &indices, task, params, rng)
    }

    /// Fits a tree on the rows selected (with multiplicity) by `indices`,
    /// labelled by `labels` and binned by a prebuilt [`ThresholdTable`] —
    /// the forest and boosting training path.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty, if `labels` does not have one entry
    /// per table row, or if an index is not a row of the table.
    pub fn fit_with_table(
        table: &ThresholdTable,
        labels: &[f64],
        indices: &[u32],
        task: Task,
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        assert_eq!(
            labels.len(),
            table.num_rows(),
            "labels do not match the threshold table's rows"
        );
        assert!(
            indices.iter().all(|&i| (i as usize) < table.num_rows()),
            "sample index outside the threshold table"
        );
        let exact = integer_sums_are_exact(labels, indices);
        let nodes = TreeBuilder::new(table, labels, task, params, exact).fit(indices, rng);
        DecisionTree { nodes, num_features: table.num_features(), task }
    }

    /// Predicts the target for one feature row (mean label for regression,
    /// class-1 probability for classification).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training data.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.num_features, "feature width mismatch");
        let mut at = 0u32;
        loop {
            let node = &self.nodes[at as usize];
            if node.feature == LEAF {
                return node.value;
            }
            at = if row[node.feature as usize] <= node.value { node.left } else { node.right };
        }
    }

    /// Number of nodes (internal + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: u32) -> usize {
            let n = &nodes[at as usize];
            if n.feature == LEAF {
                0
            } else {
                1 + walk(nodes, n.left).max(walk(nodes, n.right))
            }
        }
        walk(&self.nodes, 0)
    }

    /// The task this tree was trained for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Accumulates this tree's impurity-decrease feature importances into
    /// `acc` (length = feature count).
    ///
    /// Importance of a feature is the total impurity decrease achieved by
    /// the splits that use it, weighted by the number of training samples
    /// that reached each split. Stored per node at fit time.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from the training feature count.
    pub fn accumulate_importances(&self, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.num_features, "importance buffer width mismatch");
        for node in &self.nodes {
            if node.feature != LEAF {
                acc[node.feature as usize] += node.gain;
            }
        }
    }

    pub(crate) fn num_features_raw(&self) -> usize {
        self.num_features
    }

    pub(crate) fn nodes_raw(&self) -> impl Iterator<Item = (u32, f64, u32, u32, f64)> + '_ {
        self.nodes.iter().map(|n| (n.feature, n.value, n.left, n.right, n.gain))
    }

    pub(crate) fn from_raw(
        nodes: Vec<(u32, f64, u32, u32, f64)>,
        num_features: usize,
        task: Task,
    ) -> Self {
        let nodes = nodes
            .into_iter()
            .map(|(feature, value, left, right, gain)| Node { feature, value, left, right, gain })
            .collect();
        DecisionTree { nodes, num_features, task }
    }
}

/// Label statistics per bucket of every feature, laid out by
/// [`ThresholdTable`]'s offsets.
type Histogram = Vec<Stats>;

/// The chosen split of a node.
struct Split {
    gain: f64,
    feature: u32,
    /// Rows whose code is `<= bin` go left.
    bin: usize,
    left: Stats,
}

struct TreeBuilder<'a, 'p> {
    table: &'a ThresholdTable,
    labels: &'a [f64],
    task: Task,
    params: &'p TreeParams,
    nodes: Vec<Node>,
    all_features: Vec<u32>,
    /// Features examined per split.
    feature_count: usize,
    /// Whether children's histograms come from the parent's (exact sums
    /// and every feature examined at every split).
    subtract: bool,
    /// `(feature, first bucket)` of the features with at least one cut,
    /// for histogram passes over every feature.
    columns: Vec<(usize, usize)>,
}

impl<'a, 'p> TreeBuilder<'a, 'p> {
    /// `exact_sums`: whether [`integer_sums_are_exact`] holds for the rows
    /// the tree is fitted on.
    fn new(
        table: &'a ThresholdTable,
        labels: &'a [f64],
        task: Task,
        params: &'p TreeParams,
        exact_sums: bool,
    ) -> Self {
        let d = table.num_features();
        let feature_count = params.max_features.map_or(d, |m| m.min(d));
        TreeBuilder {
            table,
            labels,
            task,
            params,
            nodes: Vec::new(),
            all_features: (0..d as u32).collect(),
            feature_count,
            subtract: exact_sums && feature_count == d,
            columns: Self::columns_of(table, 0..d),
        }
    }

    fn columns_of(
        table: &ThresholdTable,
        features: impl Iterator<Item = usize>,
    ) -> Vec<(usize, usize)> {
        features.filter(|&f| !table.cuts(f).is_empty()).map(|f| (f, table.offsets[f])).collect()
    }

    fn fit(mut self, indices: &[u32], rng: &mut impl Rng) -> Vec<Node> {
        let mut idx = indices.to_vec();
        let mut root = Stats::default();
        for &i in &idx {
            let label = self.labels[i as usize];
            root.add(label, label * label);
        }
        self.grow(&mut idx, root, None, 0, rng);
        // A fitted tree lives as long as its model: drop the growth slack
        // (up to half the node array).
        self.nodes.shrink_to_fit();
        self.nodes
    }

    fn is_leaf(&self, len: usize, stats: &Stats, depth: usize) -> bool {
        len < self.params.min_samples_split
            || depth >= self.params.max_depth
            || stats.impurity(self.task) <= 1e-12
    }

    /// The histogram of `indices` over `columns`: one pass over the rows
    /// in index order, adding each label to every column's bucket.
    fn histogram(&self, indices: &[u32], columns: &[(usize, usize)]) -> Histogram {
        let mut hist = vec![Stats::default(); self.table.offsets[self.table.num_features()]];
        for &i in indices {
            let label = self.labels[i as usize];
            let square = label * label;
            let codes = self.table.row_codes(i);
            for &(f, first) in columns {
                hist[first + codes[f] as usize].add(label, square);
            }
        }
        hist
    }

    /// Grows a subtree over `indices` (mutated in place by partitioning)
    /// and returns its root node index. `hist` is the node's histogram
    /// when the parent derived it.
    fn grow(
        &mut self,
        indices: &mut [u32],
        stats: Stats,
        hist: Option<Histogram>,
        depth: usize,
        rng: &mut impl Rng,
    ) -> u32 {
        let split = if self.is_leaf(indices.len(), &stats, depth) {
            None
        } else {
            self.best_split(indices, &stats, hist, rng)
        };
        let Some((split, hist)) = split else {
            let id = self.nodes.len() as u32;
            self.nodes.push(Node {
                feature: LEAF,
                value: stats.prediction(),
                left: 0,
                right: 0,
                gain: 0.0,
            });
            return id;
        };

        // Partition in place: `code <= bin` (`x <= threshold`) first.
        let feature = split.feature as usize;
        let mut lo = 0;
        let mut hi = indices.len();
        while lo < hi {
            if self.table.code(indices[lo], feature) <= split.bin {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        debug_assert!(lo > 0 && lo < indices.len(), "degenerate split");

        let left_stats = split.left;
        let right_stats = stats.minus(&left_stats);

        let id = self.nodes.len() as u32;
        let threshold = self.table.cuts(feature)[split.bin];
        self.nodes.push(Node {
            feature: split.feature,
            value: threshold,
            left: 0,
            right: 0,
            gain: split.gain,
        });
        tevot_obs::metrics::ML_NODE_SPLITS.incr();
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        let depth = depth + 1;
        let (left_hist, right_hist) = match hist {
            Some(parent)
                if !self.is_leaf(left_idx.len(), &left_stats, depth)
                    || !self.is_leaf(right_idx.len(), &right_stats, depth) =>
            {
                // Build the smaller child from its rows; the larger is
                // parent − smaller, exact because every sum is an integer
                // below 2⁵³.
                let left_smaller = left_idx.len() <= right_idx.len();
                let smaller = self
                    .histogram(if left_smaller { &*left_idx } else { &*right_idx }, &self.columns);
                let mut larger = parent;
                for (l, s) in larger.iter_mut().zip(&smaller) {
                    *l = l.minus(s);
                }
                if left_smaller {
                    (Some(smaller), Some(larger))
                } else {
                    (Some(larger), Some(smaller))
                }
            }
            _ => (None, None),
        };
        let left = self.grow(left_idx, left_stats, left_hist, depth, rng);
        let right = self.grow(right_idx, right_stats, right_hist, depth, rng);
        self.nodes[id as usize].left = left;
        self.nodes[id as usize].right = right;
        id
    }

    /// Finds the impurity-minimizing split, building the node's histogram
    /// from its rows unless `hist` already holds it. Returns the split and,
    /// when children derive theirs from it, the histogram.
    fn best_split(
        &mut self,
        indices: &[u32],
        stats: &Stats,
        hist: Option<Histogram>,
        rng: &mut impl Rng,
    ) -> Option<(Split, Option<Histogram>)> {
        if self.feature_count < self.all_features.len() {
            self.all_features.partial_shuffle(rng, self.feature_count);
        }
        let examined = &self.all_features[..self.feature_count];
        let hist = hist.unwrap_or_else(|| {
            let columns = Self::columns_of(self.table, examined.iter().map(|&f| f as usize));
            self.histogram(indices, &columns)
        });

        let parent_impurity = stats.impurity(self.task);
        let min_leaf = self.params.min_samples_leaf as f64;
        let total_n = stats.n;
        let mut best: Option<Split> = None;
        for &f in examined {
            let cuts = self.table.cuts(f as usize);
            let buckets = &hist[self.table.offsets[f as usize]..][..cuts.len()];
            // Prefix-scan: left side of cut j = buckets 0..=j.
            let mut left = Stats::default();
            for (j, b) in buckets.iter().enumerate() {
                // An empty bucket leaves `left` as it was, so its cut ties
                // the previous one and cannot win (`gain > g` is strict).
                if b.n == 0.0 {
                    continue;
                }
                left.merge(b);
                let left_n = left.n;
                let right_n = total_n - left_n;
                if left_n < min_leaf || right_n < min_leaf || right_n == 0.0 {
                    continue;
                }
                let right = stats.minus(&left);
                // A zero-gain split is still accepted (mirroring CART as
                // implemented in scikit-learn): concepts like XOR have no
                // first-level gain yet are perfectly separable below.
                let gain = parent_impurity - left.impurity(self.task) - right.impurity(self.task);
                if best.as_ref().map_or(gain > -1e-12, |b| gain > b.gain) {
                    best = Some(Split { gain, feature: f, bin: j, left });
                }
            }
        }
        best.map(|s| (Split { gain: s.gain.max(0.0), ..s }, self.subtract.then_some(hist)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn threshold_table_binary_feature() {
        let mut d = Dataset::new(2);
        d.push(&[0.0, 5.0], 1.0);
        d.push(&[1.0, 7.0], 2.0);
        d.push(&[0.0, 9.0], 3.0);
        let t = ThresholdTable::build(&d);
        assert_eq!(t.cuts(0), &[0.5]);
        assert_eq!(t.cuts(1), &[6.0, 8.0]);
        // Codes count the cuts below each value: `code <= j` is `x <= cuts[j]`.
        let codes: Vec<_> = (0..3).map(|i| (t.code(i, 0), t.code(i, 1))).collect();
        assert_eq!(codes, [(0, 0), (1, 1), (0, 2)]);
        assert_eq!((t.num_rows(), t.num_features()), (3, 2));
    }

    #[test]
    fn integer_sums_are_exact_only_below_two_pow_53() {
        let all = |labels: &[f64]| (0..labels.len() as u32).collect::<Vec<_>>();
        let ok = |labels: &[f64]| integer_sums_are_exact(labels, &all(labels));
        assert!(ok(&[0.0, 1.0, -3.0, 812.0]));
        assert!(!ok(&[0.0, 0.5]));
        assert!(!ok(&[1.0, f64::NAN]));
        assert!(!ok(&[1.0, f64::INFINITY]));
        // n · max l² = 2 · (2²⁶)² = 2⁵³ is one too many.
        let big = (1u64 << 26) as f64;
        assert!(integer_sums_are_exact(&[big, 1.0], &[0]));
        assert!(!ok(&[big, 1.0]));
        // The count is the number of (possibly repeated) indices.
        assert!(!integer_sums_are_exact(&[big], &[0, 0]));
    }

    /// Random integer-labelled bits and levels, drawn with repeats.
    fn bootstrapped(seed: u64) -> (Dataset, Vec<u32>) {
        let mut r = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(6);
        for _ in 0..500 {
            let mut row: Vec<f64> = (0..5).map(|_| r.gen_range(0..2) as f64).collect();
            row.push(r.gen_range(0..20) as f64 * 0.01);
            let label = 300.0 * row[0] + 100.0 * row[1] * row[2] + r.gen_range(0..50) as f64;
            d.push(&row, label.round());
        }
        let indices = (0..d.len()).map(|_| r.gen_range(0..d.len()) as u32).collect();
        (d, indices)
    }

    #[test]
    fn subtraction_grows_the_same_tree_as_direct_building() {
        for (seed, task) in
            [(1, Task::Regression), (2, Task::Regression), (3, Task::Classification)]
        {
            let (mut d, indices) = bootstrapped(seed);
            if task == Task::Classification {
                d = d.map_labels(|l| l % 2.0);
            }
            let table = ThresholdTable::build(&d);
            assert!(integer_sums_are_exact(d.labels(), &indices));
            let params = TreeParams::default();
            let subtracting = TreeBuilder::new(&table, d.labels(), task, &params, true);
            assert!(subtracting.subtract);
            let subtracted = subtracting.fit(&indices, &mut rng());
            let direct = TreeBuilder::new(&table, d.labels(), task, &params, false)
                .fit(&indices, &mut rng());
            assert!(direct.len() > 20, "seed {seed}: tree too small to compare");
            assert_eq!(subtracted, direct, "seed {seed}, {task:?}");
        }
    }

    #[test]
    #[should_panic(expected = "labels do not match the threshold table")]
    fn table_of_another_dataset_is_rejected() {
        let (d, _) = bootstrapped(1);
        let table = ThresholdTable::build(&d.select(&[0, 1, 2]));
        let indices = [0, 1, 2];
        DecisionTree::fit_with_table(
            &table,
            d.labels(),
            &indices,
            Task::Regression,
            &TreeParams::default(),
            &mut rng(),
        );
    }

    #[test]
    #[should_panic(expected = "sample index outside the threshold table")]
    fn index_outside_the_table_is_rejected() {
        let (d, _) = bootstrapped(1);
        let table = ThresholdTable::build(&d);
        let indices = [0, 1, d.len() as u32];
        DecisionTree::fit_with_table(
            &table,
            d.labels(),
            &indices,
            Task::Regression,
            &TreeParams::default(),
            &mut rng(),
        );
    }

    #[test]
    fn fits_xor_exactly() {
        // XOR is the classic interaction no linear model captures.
        let mut d = Dataset::new(2);
        for a in [0.0, 1.0] {
            for b in [0.0, 1.0] {
                for _ in 0..10 {
                    d.push(&[a, b], if a != b { 1.0 } else { 0.0 });
                }
            }
        }
        let tree = DecisionTree::fit(&d, Task::Classification, &TreeParams::default(), &mut rng());
        for a in [0.0, 1.0] {
            for b in [0.0, 1.0] {
                let expect = if a != b { 1.0 } else { 0.0 };
                assert_eq!(tree.predict(&[a, b]), expect, "xor({a},{b})");
            }
        }
    }

    #[test]
    fn regression_piecewise_constant() {
        let mut d = Dataset::new(1);
        for i in 0..300 {
            let x = i as f64 / 300.0;
            let y = if x < 0.3 {
                10.0
            } else if x < 0.7 {
                20.0
            } else {
                5.0
            };
            d.push(&[x], y);
        }
        let tree = DecisionTree::fit(&d, Task::Regression, &TreeParams::default(), &mut rng());
        assert_eq!(tree.predict(&[0.1]), 10.0);
        assert_eq!(tree.predict(&[0.5]), 20.0);
        assert_eq!(tree.predict(&[0.9]), 5.0);
    }

    #[test]
    fn max_depth_limits_tree() {
        let mut d = Dataset::new(1);
        for i in 0..128 {
            d.push(&[i as f64], i as f64);
        }
        let params = TreeParams { max_depth: 2, ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Regression, &params, &mut rng());
        assert!(tree.depth() <= 2);
        assert!(tree.num_nodes() <= 7);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f64], (i % 2) as f64);
        }
        let params = TreeParams { min_samples_leaf: 8, ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Classification, &params, &mut rng());
        // With min leaf 8 on 20 alternating samples the tree stays tiny.
        assert!(tree.num_nodes() <= 5, "got {} nodes", tree.num_nodes());
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(3);
        for i in 0..50 {
            d.push(&[i as f64, (i * 7 % 13) as f64, 0.0], 3.5);
        }
        let tree = DecisionTree::fit(&d, Task::Regression, &TreeParams::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[99.0, 99.0, 99.0]), 3.5);
    }

    #[test]
    fn classification_prediction_is_probability() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            // x = 0 -> 30% positive; x = 1 -> all positive.
            d.push(&[0.0], if i < 3 { 1.0 } else { 0.0 });
            d.push(&[1.0], 1.0);
        }
        let params = TreeParams { max_depth: 1, ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Classification, &params, &mut rng());
        assert!((tree.predict(&[0.0]) - 0.3).abs() < 1e-9);
        assert_eq!(tree.predict(&[1.0]), 1.0);
    }

    #[test]
    fn max_features_subsampling_still_learns() {
        let mut d = Dataset::new(4);
        let mut r = rng();
        for _ in 0..400 {
            let row: Vec<f64> = (0..4).map(|_| r.gen_range(0..2) as f64).collect();
            let label = row[2];
            d.push(&row, label);
        }
        let params = TreeParams { max_features: Some(2), ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Classification, &params, &mut r);
        let mut correct = 0;
        for i in 0..d.len() {
            if (tree.predict(d.row(i)) >= 0.5) as u8 as f64 == d.label(i) {
                correct += 1;
            }
        }
        assert!(correct as f64 / d.len() as f64 > 0.95);
    }
}

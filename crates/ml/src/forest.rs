//! Random forests (bagged CART ensembles).
//!
//! The paper's chosen estimator: "RF is an ensemble learning method that
//! constructs multiple decision trees and uses majority votes to improve
//! accuracy and prevent overfitting" (Sec. IV-B2), trained with the
//! scikit-learn defaults of the time — 10 trees, all features considered
//! at every split.
//!
//! Trees fit in parallel (`tevot-par`, honoring `--jobs`/`TEVOT_JOBS`):
//! the caller's RNG is consumed **serially** to derive one independent
//! splitmix-expanded seed per tree before fanning out, so each tree's
//! bootstrap sample and split randomness come from its own stream and
//! the trained forest is bit-identical at every worker count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, Task, ThresholdTable, TreeParams};

/// Hyper-parameters of a random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees (paper default: 10).
    pub num_trees: usize,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// Whether each tree trains on a bootstrap resample.
    pub bootstrap: bool,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { num_trees: 10, tree: TreeParams::default(), bootstrap: true }
    }
}

fn fit_trees(
    data: &Dataset,
    task: Task,
    params: &ForestParams,
    rng: &mut impl Rng,
) -> Vec<DecisionTree> {
    assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
    assert!(params.num_trees > 0, "forest needs at least one tree");
    let table = ThresholdTable::build(data);
    let n = data.len();
    // One seed per tree, drawn serially from the caller's RNG: each
    // tree's bootstrap sample and split randomness then come from its
    // own splitmix-expanded stream, independent of which worker fits it
    // or in what order — so parallel training is bit-identical to
    // serial.
    let seeds: Vec<u64> = (0..params.num_trees).map(|_| rng.gen()).collect();
    tevot_par::map(&seeds, |&seed| {
        // The span makes per-tree fitting visible to the statistical
        // sampler on whichever worker thread runs it.
        let _span = tevot_obs::span!("tree", "{n} rows");
        let mut tree_rng = SmallRng::seed_from_u64(seed);
        let mut indices: Vec<u32> = (0..n as u32).collect();
        if params.bootstrap {
            for slot in indices.iter_mut() {
                *slot = tree_rng.gen_range(0..n) as u32;
            }
        }
        tevot_obs::metrics::ML_TRAIN_ITERATIONS.incr();
        tevot_obs::instant!("ml.tree_fitted");
        DecisionTree::fit_with_table(
            &table,
            data.labels(),
            &indices,
            task,
            &params.tree,
            &mut tree_rng,
        )
    })
}

/// Random-forest regressor: trees average their leaf means.
///
/// This is the estimator behind TEVoT itself — it regresses the dynamic
/// delay, from which error classes follow for any clock period.
///
/// # Examples
///
/// ```
/// use tevot_ml::{Dataset, ForestParams, RandomForestRegressor};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut data = Dataset::new(1);
/// for i in 0..200 {
///     let x = i as f64;
///     data.push(&[x], if x < 100.0 { 250.0 } else { 700.0 });
/// }
/// let mut rng = SmallRng::seed_from_u64(1);
/// let rf = RandomForestRegressor::fit(&data, &ForestParams::default(), &mut rng);
/// assert!((rf.predict(&[10.0]) - 250.0).abs() < 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestRegressor {
    trees: Vec<DecisionTree>,
}

impl RandomForestRegressor {
    /// Fits the forest.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or zero trees.
    pub fn fit(data: &Dataset, params: &ForestParams, rng: &mut impl Rng) -> Self {
        RandomForestRegressor { trees: fit_trees(data, Task::Regression, params, rng) }
    }

    /// Mean prediction across all trees.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predicts every row of a dataset.
    pub fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// The individual trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Normalized impurity-decrease feature importances (summing to 1
    /// unless no split ever gained anything) — the interpretability the
    /// paper credits the random forest with: "it can interpret the
    /// significance disparity between different features" (Sec. IV-B2).
    pub fn feature_importances(&self) -> Vec<f64> {
        feature_importances(&self.trees)
    }

    pub(crate) fn from_trees(trees: Vec<DecisionTree>) -> Self {
        RandomForestRegressor { trees }
    }
}

fn feature_importances(trees: &[DecisionTree]) -> Vec<f64> {
    let num_features = trees.first().map(DecisionTree::num_features_raw).unwrap_or(0);
    let mut acc = vec![0.0; num_features];
    for tree in trees {
        tree.accumulate_importances(&mut acc);
    }
    let total: f64 = acc.iter().sum();
    if total > 0.0 {
        for v in &mut acc {
            *v /= total;
        }
    }
    acc
}

/// Random-forest classifier: trees vote with their leaf class-1
/// probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTree>,
}

impl RandomForestClassifier {
    /// Fits the forest on binary labels (0.0 / 1.0).
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or zero trees.
    pub fn fit(data: &Dataset, params: &ForestParams, rng: &mut impl Rng) -> Self {
        RandomForestClassifier { trees: fit_trees(data, Task::Classification, params, rng) }
    }

    /// Mean class-1 probability across trees.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Majority-vote class label.
    pub fn predict(&self, row: &[f64]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// Predicts every row of a dataset.
    pub fn predict_batch(&self, data: &Dataset) -> Vec<bool> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// The individual trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Normalized impurity-decrease feature importances; see
    /// [`RandomForestRegressor::feature_importances`].
    pub fn feature_importances(&self) -> Vec<f64> {
        feature_importances(&self.trees)
    }

    pub(crate) fn from_trees(trees: Vec<DecisionTree>) -> Self {
        RandomForestClassifier { trees }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn regressor_beats_single_noisy_tree_on_average() {
        // y = x1 + noise-ish via deterministic hash pattern.
        let mut d = Dataset::new(2);
        for i in 0..500 {
            let x = (i % 50) as f64;
            let noise = ((i * 2654435761u64 as usize) % 100) as f64 / 100.0 - 0.5;
            d.push(&[x, (i % 3) as f64], x * 2.0 + noise);
        }
        let rf = RandomForestRegressor::fit(&d, &ForestParams::default(), &mut rng());
        for x in [5.0, 25.0, 45.0] {
            let p = rf.predict(&[x, 1.0]);
            assert!((p - 2.0 * x).abs() < 1.0, "predict({x}) = {p}");
        }
        assert_eq!(rf.trees().len(), 10);
    }

    #[test]
    fn classifier_learns_interaction() {
        let mut d = Dataset::new(3);
        for a in [0.0, 1.0] {
            for b in [0.0, 1.0] {
                for c in [0.0, 1.0] {
                    for _ in 0..5 {
                        d.push(&[a, b, c], if a != b { 1.0 } else { 0.0 });
                    }
                }
            }
        }
        let rf = RandomForestClassifier::fit(&d, &ForestParams::default(), &mut rng());
        assert!(rf.predict(&[1.0, 0.0, 0.0]));
        assert!(!rf.predict(&[1.0, 1.0, 1.0]));
        let p = rf.predict_proba(&[0.0, 1.0, 0.0]);
        assert!(p > 0.8, "probability {p}");
    }

    #[test]
    fn bootstrap_produces_diverse_trees() {
        let mut d = Dataset::new(1);
        let mut r = rng();
        for _ in 0..200 {
            let x: f64 = r.gen_range(0.0..1.0);
            d.push(&[x], x + r.gen_range(-0.2..0.2));
        }
        let rf = RandomForestRegressor::fit(&d, &ForestParams::default(), &mut r);
        let preds: Vec<f64> = rf.trees().iter().map(|t| t.predict(&[0.5])).collect();
        let distinct = preds.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-12);
        assert!(distinct, "bootstrapped trees should differ");
    }

    #[test]
    fn importances_rank_the_informative_feature_first() {
        // Label depends on feature 1 only; features 0 and 2 are noise.
        let mut d = Dataset::new(3);
        let mut r = rng();
        for _ in 0..500 {
            let signal = r.gen_range(0..2) as f64;
            d.push(&[r.gen_range(0.0..1.0), signal, r.gen_range(0.0..1.0)], signal * 100.0);
        }
        let rf = RandomForestRegressor::fit(&d, &ForestParams::default(), &mut r);
        let imp = rf.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9, "importances sum to 1");
        assert!(imp[1] > 0.9, "signal feature importance {imp:?}");
        assert!(imp[1] > imp[0] && imp[1] > imp[2]);
    }

    #[test]
    fn no_bootstrap_on_deterministic_data_gives_identical_trees() {
        let mut d = Dataset::new(1);
        for i in 0..50 {
            d.push(&[i as f64], (i * 3) as f64);
        }
        let params = ForestParams { bootstrap: false, ..ForestParams::default() };
        let rf = RandomForestRegressor::fit(&d, &params, &mut rng());
        let p0 = rf.trees()[0].predict(&[20.0]);
        assert!(rf.trees().iter().all(|t| t.predict(&[20.0]) == p0));
    }
}

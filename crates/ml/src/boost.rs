//! Gradient-boosted regression trees.
//!
//! The paper's Sec. V-E leaves "applying more advanced learning
//! algorithms" to follow-up work; boosted trees are the natural next step
//! above the random forest — they fit the *residuals* of the ensemble so
//! far, which targets exactly the regression-to-the-mean bias that makes
//! a bagged forest under-predict the extreme tail of a delay
//! distribution.

use rand::Rng;

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, Task, ThresholdTable, TreeParams};

/// Hyper-parameters for [`GradientBoostedRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoostParams {
    /// Number of boosting rounds (trees).
    pub num_rounds: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Per-tree parameters; boosted trees are conventionally shallow.
    pub tree: TreeParams,
    /// Fraction of rows sampled (without replacement) per round —
    /// stochastic gradient boosting; `1.0` uses every row.
    pub subsample: f64,
}

impl Default for BoostParams {
    fn default() -> Self {
        BoostParams {
            num_rounds: 60,
            learning_rate: 0.2,
            tree: TreeParams { max_depth: 6, ..TreeParams::default() },
            subsample: 0.8,
        }
    }
}

/// A gradient-boosted regression tree ensemble (squared loss).
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use tevot_ml::{BoostParams, Dataset, GradientBoostedRegressor};
///
/// let mut data = Dataset::new(1);
/// for i in 0..200 {
///     let x = i as f64 / 200.0;
///     data.push(&[x], (x * 10.0).sin() * 50.0);
/// }
/// let mut rng = SmallRng::seed_from_u64(0);
/// let gbt = GradientBoostedRegressor::fit(&data, &BoostParams::default(), &mut rng);
/// let err = (gbt.predict(&[0.25]) - (2.5f64).sin() * 50.0).abs();
/// assert!(err < 5.0, "error {err}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostedRegressor {
    base: f64,
    learning_rate: f64,
    trees: Vec<DecisionTree>,
}

impl GradientBoostedRegressor {
    /// Fits the ensemble with squared-loss gradient boosting.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset, zero rounds, a non-positive learning
    /// rate or a subsample fraction outside `(0, 1]`.
    pub fn fit(data: &Dataset, params: &BoostParams, rng: &mut impl Rng) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(params.num_rounds > 0, "need at least one boosting round");
        assert!(params.learning_rate > 0.0, "learning rate must be positive");
        assert!(
            params.subsample > 0.0 && params.subsample <= 1.0,
            "subsample fraction out of range"
        );
        let n = data.len();
        let base = data.labels().iter().sum::<f64>() / n as f64;
        let table = ThresholdTable::build(data);

        let mut prediction = vec![base; n];
        let sample_len = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
        let mut indices: Vec<u32> = (0..n as u32).collect();
        let mut residual = vec![0.0; n];
        let mut trees = Vec::with_capacity(params.num_rounds);
        for _ in 0..params.num_rounds {
            tevot_obs::metrics::ML_TRAIN_ITERATIONS.incr();
            // Residuals are the squared-loss negative gradients.
            for ((r, &label), &p) in residual.iter_mut().zip(data.labels()).zip(&prediction) {
                *r = label - p;
            }
            if params.subsample < 1.0 {
                // Partial Fisher-Yates for a fresh subsample each round.
                for i in 0..sample_len {
                    let j = rng.gen_range(i..n);
                    indices.swap(i, j);
                }
            }
            let tree = DecisionTree::fit_with_table(
                &table,
                &residual,
                &indices[..sample_len],
                Task::Regression,
                &params.tree,
                rng,
            );
            for (i, p) in prediction.iter_mut().enumerate() {
                *p += params.learning_rate * tree.predict(data.row(i));
            }
            trees.push(tree);
        }
        GradientBoostedRegressor { base, learning_rate: params.learning_rate, trees }
    }

    /// Predicts one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
    }

    /// Predicts every row of a dataset.
    pub fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// Number of boosting rounds performed.
    pub fn num_rounds(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::root_mean_square_error;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn wiggly() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..400 {
            let x = i as f64 / 400.0;
            let z = (i % 7) as f64;
            d.push(&[x, z], (x * 12.0).sin() * 40.0 + z * 3.0);
        }
        d
    }

    #[test]
    fn boosting_fits_nonlinear_targets() {
        let d = wiggly();
        let mut rng = SmallRng::seed_from_u64(0);
        let gbt = GradientBoostedRegressor::fit(&d, &BoostParams::default(), &mut rng);
        let pred = gbt.predict_batch(&d);
        let rmse = root_mean_square_error(&pred, d.labels());
        assert!(rmse < 5.0, "training RMSE {rmse}");
        assert_eq!(gbt.num_rounds(), 60);
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let d = wiggly();
        let fit = |rounds| {
            let mut rng = SmallRng::seed_from_u64(1);
            let params = BoostParams { num_rounds: rounds, subsample: 1.0, ..Default::default() };
            let gbt = GradientBoostedRegressor::fit(&d, &params, &mut rng);
            root_mean_square_error(&gbt.predict_batch(&d), d.labels())
        };
        let short = fit(5);
        let long = fit(50);
        assert!(long < short, "50 rounds ({long}) should beat 5 ({short})");
    }

    #[test]
    fn single_round_predicts_near_mean_plus_tree() {
        let d = wiggly();
        let mut rng = SmallRng::seed_from_u64(2);
        let params =
            BoostParams { num_rounds: 1, learning_rate: 1.0, subsample: 1.0, ..Default::default() };
        let gbt = GradientBoostedRegressor::fit(&d, &params, &mut rng);
        // One full-rate round on the residuals of the mean: prediction is
        // within the label range.
        let lo = d.labels().iter().copied().fold(f64::INFINITY, f64::min);
        let hi = d.labels().iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..d.len() {
            let p = gbt.predict(d.row(i));
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_learning_rate() {
        let d = wiggly();
        let mut rng = SmallRng::seed_from_u64(0);
        let params = BoostParams { learning_rate: 0.0, ..Default::default() };
        let _ = GradientBoostedRegressor::fit(&d, &params, &mut rng);
    }
}

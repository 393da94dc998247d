//! Property tests over the learning machinery: invariants that must hold
//! for any data, not just the unit-test fixtures.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot_ml::{
    metrics, Dataset, DecisionTree, ForestParams, KnnRegressor, LinearRegression,
    RandomForestClassifier, RandomForestRegressor, Scaler, Task, TreeParams,
};

/// Builds a dataset from generated rows.
fn dataset(rows: &[(Vec<f64>, f64)]) -> Dataset {
    let mut d = Dataset::new(rows[0].0.len());
    for (row, label) in rows {
        d.push(row, *label);
    }
    d
}

fn rows(
    num_features: usize,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(Vec<f64>, f64)>> {
    vec(
        (
            vec(prop_oneof![Just(0.0), Just(1.0), -100.0f64..100.0], num_features),
            -1000.0f64..1000.0,
        ),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A decision tree's prediction on a training row lies within the
    /// label range of the training set (it predicts leaf means).
    #[test]
    fn tree_predictions_stay_in_label_range(data in rows(4, 5..60)) {
        let d = dataset(&data);
        let mut rng = SmallRng::seed_from_u64(0);
        let tree = DecisionTree::fit(&d, Task::Regression, &TreeParams::default(), &mut rng);
        let lo = d.labels().iter().copied().fold(f64::INFINITY, f64::min);
        let hi = d.labels().iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for (row, _) in d.iter() {
            let p = tree.predict(row);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }
    }

    /// With distinct rows and no depth pressure, a tree memorizes its
    /// training data exactly.
    #[test]
    fn tree_memorizes_distinct_rows(seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::Rng;
        let mut d = Dataset::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            let row: Vec<f64> = (0..3).map(|_| rng.gen_range(0..16) as f64).collect();
            let key = row.iter().map(|&x| x as i64).collect::<Vec<_>>();
            if seen.insert(key) {
                let label = rng.gen_range(-10.0..10.0);
                d.push(&row, label);
            }
        }
        let params = TreeParams { max_depth: 64, ..TreeParams::default() };
        let tree = DecisionTree::fit(&d, Task::Regression, &params, &mut rng);
        for (row, label) in d.iter() {
            prop_assert!((tree.predict(row) - label).abs() < 1e-9);
        }
    }

    /// Forest predictions are permutation-invariant in the feature rows
    /// (training on shuffled rows with the same seed differs, but
    /// prediction on any row is always the mean over its trees).
    #[test]
    fn forest_prediction_is_mean_of_trees(data in rows(3, 10..40)) {
        let d = dataset(&data);
        let mut rng = SmallRng::seed_from_u64(1);
        let rf = RandomForestRegressor::fit(&d, &ForestParams::default(), &mut rng);
        let row = d.row(0);
        let mean: f64 =
            rf.trees().iter().map(|t| t.predict(row)).sum::<f64>() / rf.trees().len() as f64;
        prop_assert!((rf.predict(row) - mean).abs() < 1e-12);
    }

    /// The classifier's probability is always in [0, 1] and consistent
    /// with its hard decision.
    #[test]
    fn classifier_probability_is_calibrated(data in rows(3, 10..40)) {
        let d = dataset(&data).map_labels(|l| (l > 0.0) as u8 as f64);
        let mut rng = SmallRng::seed_from_u64(2);
        let rf = RandomForestClassifier::fit(&d, &ForestParams::default(), &mut rng);
        for (row, _) in d.iter() {
            let p = rf.predict_proba(row);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert_eq!(rf.predict(row), p >= 0.5);
        }
    }

    /// Linear regression is exact on exactly-linear data.
    #[test]
    fn linear_regression_recovers_plane(
        w0 in -5.0f64..5.0,
        w1 in -5.0f64..5.0,
        b in -10.0f64..10.0,
    ) {
        let mut d = Dataset::new(2);
        for i in 0..30 {
            let x = [(i % 6) as f64, (i / 6) as f64];
            d.push(&x, w0 * x[0] + w1 * x[1] + b);
        }
        let lr = LinearRegression::fit(&d, 1e-9);
        prop_assert!((lr.predict(&[2.0, 3.0]) - (2.0 * w0 + 3.0 * w1 + b)).abs() < 1e-5);
    }

    /// Standardization is idempotent up to scaling: applying a scaler
    /// fitted on already-standardized data is the identity.
    #[test]
    fn scaler_is_idempotent(data in rows(3, 5..30)) {
        let d = dataset(&data);
        let once = Scaler::fit(&d).transform(&d);
        let twice = Scaler::fit(&once).transform(&once);
        for i in 0..once.len() {
            for (a, b) in once.row(i).iter().zip(twice.row(i)) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// 1-NN prediction on a training row returns that row's label.
    #[test]
    fn one_nn_is_exact_on_training_rows(data in rows(2, 3..25)) {
        let d = dataset(&data);
        // Deduplicate rows (ties would be legitimate mismatches).
        let mut seen = std::collections::HashMap::new();
        let mut unique = Dataset::new(2);
        for (row, label) in d.iter() {
            let key: Vec<i64> = row.iter().map(|&x| (x * 1e6) as i64).collect();
            if seen.insert(key, label).is_none() {
                unique.push(row, label);
            }
        }
        prop_assume!(!unique.is_empty());
        let knn = KnnRegressor::fit(&unique, 1);
        for (row, label) in unique.iter() {
            prop_assert_eq!(knn.predict(row), label);
        }
    }

    /// Accuracy is symmetric and bounded.
    #[test]
    fn accuracy_properties(labels in vec((any::<bool>(), any::<bool>()), 1..100)) {
        let (a, b): (Vec<bool>, Vec<bool>) = labels.into_iter().unzip();
        let acc = metrics::accuracy(&a, &b);
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert_eq!(acc, metrics::accuracy(&b, &a));
        prop_assert_eq!(metrics::accuracy(&a, &a), 1.0);
    }

    /// The confusion matrix partitions the sample count.
    #[test]
    fn confusion_matrix_partitions(labels in vec((any::<bool>(), any::<bool>()), 1..100)) {
        let (p, a): (Vec<bool>, Vec<bool>) = labels.into_iter().unzip();
        let m = metrics::ConfusionMatrix::from_labels(&p, &a);
        prop_assert_eq!(m.total(), p.len());
        prop_assert!((m.accuracy() - metrics::accuracy(&p, &a)).abs() < 1e-12);
    }
}

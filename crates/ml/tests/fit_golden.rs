//! Golden hashes of fitted tree ensembles. Split search may be rewritten
//! for speed, but each chosen split, gain and leaf value must stay the
//! same double, so these bytes must not change:
//!
//! * a random-forest regressor on non-integer labels, which builds both
//!   children's histograms from their rows;
//! * the same forest on integer labels and a classifier on 0/1 labels,
//!   whose exact sums let a child's histogram be parent − sibling;
//! * the predictions of a gradient-boosted ensemble, whose residual
//!   labels are non-integer.
//!
//! The constants were recorded before the binned, row-wise histogram split
//! search replaced the per-feature loop.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tevot_ml::{
    persist, BoostParams, Dataset, ForestParams, GradientBoostedRegressor, RandomForestClassifier,
    RandomForestRegressor,
};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// 600 rows of 8 bit features, a 20-level "voltage" axis and a
/// continuous feature with more distinct values than there are bins,
/// labelled by `label` from a smooth non-integer target.
fn data(label: impl Fn(f64) -> f64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut d = Dataset::new(10);
    let mut row = [0.0; 10];
    for _ in 0..600 {
        for bit in &mut row[..8] {
            *bit = rng.gen_range(0..2) as f64;
        }
        row[8] = 0.8 + 0.01 * rng.gen_range(0..20) as f64;
        row[9] = rng.gen::<f64>();
        let target = 100.0 * row[0] + 37.5 * row[1] * row[2] - 250.0 * row[8]
            + 20.0 * (7.0 * row[9]).sin()
            + 3.0 * rng.gen::<f64>();
        d.push(&row, label(target));
    }
    d
}

fn forest_params() -> ForestParams {
    ForestParams { num_trees: 4, ..ForestParams::default() }
}

fn regressor_hash(d: &Dataset) -> u64 {
    let rf = RandomForestRegressor::fit(d, &forest_params(), &mut SmallRng::seed_from_u64(3));
    let mut bytes = Vec::new();
    persist::save_regressor(&rf, &mut bytes).expect("in-memory save");
    fnv1a64(&bytes)
}

#[test]
fn forest_on_non_integer_labels_is_golden() {
    assert_eq!(regressor_hash(&data(|y| y)), 0xf1e4_6565_ef47_cda0);
}

#[test]
fn forest_on_integer_labels_is_golden() {
    assert_eq!(regressor_hash(&data(f64::round)), 0x8e0c_0f16_2252_40b6);
}

#[test]
fn classifier_is_golden() {
    let d = data(|y| (y > 0.0) as u8 as f64);
    let rf = RandomForestClassifier::fit(&d, &forest_params(), &mut SmallRng::seed_from_u64(4));
    let mut bytes = Vec::new();
    persist::save_classifier(&rf, &mut bytes).expect("in-memory save");
    assert_eq!(fnv1a64(&bytes), 0x0498_2262_b337_fbac);
}

#[test]
fn boosted_predictions_are_golden() {
    // Integer labels, but residuals from their non-integer mean: every
    // tree takes the `f64` path.
    let d = data(f64::round);
    let params = BoostParams { num_rounds: 20, ..BoostParams::default() };
    let gbt = GradientBoostedRegressor::fit(&d, &params, &mut SmallRng::seed_from_u64(5));
    let bits: Vec<u8> =
        gbt.predict_batch(&d).iter().flat_map(|p| p.to_bits().to_le_bytes()).collect();
    assert_eq!(fnv1a64(&bits), 0x87d6_d9af_51fd_5e67);
}

//! Golden hashes of trained TEVoT models: the saved bytes of a small
//! INT ADD and INT MUL model must never change. Split search may be
//! rewritten for speed, but every chosen split, gain and leaf value has
//! to stay the same double, so the serialized forest stays byte-identical.
//!
//! The constants were recorded before the binned, integer-histogram split
//! search replaced the per-feature `f64` loop.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot_repro::core::dta::Characterizer;
use tevot_repro::core::workload::random_workload;
use tevot_repro::core::{build_delay_dataset, FeatureEncoding, TevotModel, TevotParams};
use tevot_repro::ml::ForestParams;
use tevot_repro::netlist::fu::FunctionalUnit;
use tevot_repro::timing::{ClockSpeedup, OperatingCondition};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Trains a 4-tree model on a 2×2 (V, T) grid of 200 random vectors and
/// hashes its saved bytes.
fn model_hash(fu: FunctionalUnit) -> u64 {
    let characterizer = Characterizer::new(fu);
    let workload = random_workload(fu, 200, 18);
    let chars: Vec<_> = [(0.85, 0.0), (0.85, 100.0), (1.0, 0.0), (1.0, 100.0)]
        .iter()
        .map(|&(v, t)| {
            characterizer.characterize(
                OperatingCondition::new(v, t),
                &workload,
                &ClockSpeedup::PAPER,
            )
        })
        .collect();
    let runs: Vec<_> = chars.iter().map(|c| (&workload, c)).collect();
    let data = build_delay_dataset(FeatureEncoding::with_history(), &runs);
    let params = TevotParams {
        forest: ForestParams { num_trees: 4, ..ForestParams::default() },
        ..TevotParams::default()
    };
    let model = TevotModel::train(&data, &params, &mut SmallRng::seed_from_u64(2020));
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("in-memory save");
    fnv1a64(&bytes)
}

#[test]
fn int_add_model_bytes_are_golden() {
    assert_eq!(
        model_hash(FunctionalUnit::IntAdd),
        0x84d7_e1d0_5777_1d36,
        "INT ADD model bytes changed"
    );
}

#[test]
fn int_mul_model_bytes_are_golden() {
    assert_eq!(
        model_hash(FunctionalUnit::IntMul),
        0x245e_9dd5_fa6d_4070,
        "INT MUL model bytes changed"
    );
}

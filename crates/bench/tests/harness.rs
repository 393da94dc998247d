//! Tests over the experiment harness itself, at smoke-test scale: the
//! study runner, model training, Table III evaluation and the Table IV
//! quality pipeline must hold their structural invariants before any
//! binary interprets their numbers.

use tevot_bench::config::StudyConfig;
use tevot_bench::models::{
    cell, evaluate_fu, ground_truth_rates, model_rates, quality_study, FuModels, ModelKind,
};
use tevot_bench::study::{dataset_index, DatasetKind, Study};
use tevot_imgproc::Application;
use tevot_netlist::fu::FunctionalUnit;

fn tiny_config() -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.conditions = tevot_timing::ConditionGrid::new(vec![0.9], vec![25.0]);
    config.train_random = 250;
    config.train_app = 120;
    config.test_len = 80;
    config
}

#[test]
fn study_structure_is_consistent() {
    let study = Study::run_single(tiny_config(), FunctionalUnit::IntAdd);
    assert_eq!(study.fus.len(), 1);
    let fu_study = &study.fus[0];
    assert_eq!(fu_study.conditions.len(), 1);
    let cond = &fu_study.conditions[0];
    // Clock periods are strictly below the fastest error-free base: at
    // 25 C that is the Fmax suite's own maximum dynamic delay.
    let periods = cond.train.clock_periods_ps();
    assert_eq!(periods.len(), 3);
    assert_eq!(cond.fmax.clock_periods_ps(), periods);
    for &p in periods {
        assert!(p < cond.fmax.max_dynamic_delay_ps());
    }
    // Characterizations cover their workloads cycle for cycle.
    assert_eq!(cond.train.num_cycles(), fu_study.train_workload.len());
    for kind in DatasetKind::ALL {
        let idx = dataset_index(kind);
        assert_eq!(cond.tests[idx].num_cycles(), fu_study.test_workloads[idx].len(), "{kind:?}");
        assert_eq!(fu_study.test_workload(kind).name(), kind.name());
    }
    // The corpus was generated at the configured size.
    assert_eq!(study.corpus.len(), 2);
}

#[test]
fn full_model_pipeline_runs_and_orders_models() {
    let study = Study::run_single(tiny_config(), FunctionalUnit::IntAdd);
    let fu_study = &study.fus[0];
    let mut models = FuModels::train(fu_study, 5, 1);
    let cells = evaluate_fu(fu_study, &mut models);
    // 3 datasets x 4 models.
    assert_eq!(cells.len(), 12);
    for dataset in DatasetKind::ALL {
        for model in ModelKind::ALL {
            let c = cell(&cells, dataset, model);
            assert!((0.0..=1.0).contains(&c.mean_accuracy), "{model:?}/{dataset:?}");
            assert_eq!(c.points.len(), 3, "one point per clock speed");
        }
        // TEVoT never loses to the Delay-based baseline.
        let tevot = cell(&cells, dataset, ModelKind::Tevot).mean_accuracy;
        let delay = cell(&cells, dataset, ModelKind::DelayBased).mean_accuracy;
        assert!(tevot >= delay, "{dataset:?}: TEVoT {tevot} < Delay-based {delay}");
    }
}

#[test]
fn quality_pipeline_produces_verdicts_for_all_models() {
    // Needs all four FUs: the applications draw TERs from each.
    let study = Study::run(tiny_config());
    let mut models: Vec<FuModels> = study.fus.iter().map(|f| FuModels::train(f, 3, 2)).collect();

    let truth = ground_truth_rates(&study, Application::Gaussian, 0, 0);
    for fu in FunctionalUnit::ALL {
        assert!((0.0..=1.0).contains(&truth.rate(fu)));
    }
    let predicted = model_rates(&study, &mut models, Application::Gaussian, 0, 0, ModelKind::Tevot);
    for fu in FunctionalUnit::ALL {
        assert!((0.0..=1.0).contains(&predicted.rate(fu)));
    }

    let (accuracies, sim_acceptance) =
        quality_study(&study, &mut models, Application::Gaussian, &study.corpus, 3);
    assert_eq!(accuracies.len(), 4);
    assert!((0.0..=1.0).contains(&sim_acceptance));
    for (model, acc) in accuracies {
        assert!((0.0..=1.0).contains(&acc), "{model:?}");
    }
}

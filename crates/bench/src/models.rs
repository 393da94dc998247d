//! Model training and the Table III / Table IV evaluation pipelines.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::eval::{evaluate_predictor, mean_accuracy, predicted_ter, AccuracyPoint};
use tevot::{
    build_delay_dataset, DelayBased, ErrorPredictor, FeatureEncoding, TerBased, TevotModel,
    TevotParams,
};
use tevot_imgproc::quality::{estimation_accuracy, inject_and_score};
use tevot_imgproc::{Application, FuErrorRates, GrayImage};
use tevot_ml::ForestParams;
use tevot_netlist::fu::FunctionalUnit;

use crate::study::{dataset_index, DatasetKind, FuStudy, Study};

/// The four error models compared throughout the evaluation.
#[derive(Debug)]
pub struct FuModels {
    /// TEVoT (history features included).
    pub tevot: TevotModel,
    /// The TEVoT-NH ablation (no history features).
    pub tevot_nh: TevotModel,
    /// The Delay-based baseline.
    pub delay_based: DelayBased,
    /// The TER-based baseline.
    pub ter_based: TerBased,
}

/// Model identifiers in the paper's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// TEVoT.
    Tevot,
    /// Delay-based baseline.
    DelayBased,
    /// TER-based baseline.
    TerBased,
    /// TEVoT without history.
    TevotNh,
}

impl ModelKind {
    /// All models in Table III column order.
    pub const ALL: [ModelKind; 4] =
        [ModelKind::Tevot, ModelKind::DelayBased, ModelKind::TerBased, ModelKind::TevotNh];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Tevot => "TEVoT",
            ModelKind::DelayBased => "Delay-based",
            ModelKind::TerBased => "TER-based",
            ModelKind::TevotNh => "TEVoT-NH",
        }
    }
}

impl FuModels {
    /// Trains all four models from one FU's study data.
    pub fn train(fu_study: &FuStudy, num_trees: usize, seed: u64) -> FuModels {
        let _span = tevot_obs::span!("train", "{}", fu_study.fu);
        let runs: Vec<_> =
            fu_study.conditions.iter().map(|c| (&fu_study.train_workload, &c.train)).collect();
        let mut params = TevotParams {
            forest: ForestParams { num_trees, ..ForestParams::default() },
            encoding: FeatureEncoding::with_history(),
        };

        let data = build_delay_dataset(params.encoding, &runs);
        let mut rng = SmallRng::seed_from_u64(seed);
        let tevot = TevotModel::train(&data, &params, &mut rng);

        params.encoding = FeatureEncoding::without_history();
        let data_nh = build_delay_dataset(params.encoding, &runs);
        let tevot_nh = TevotModel::train(&data_nh, &params, &mut rng);

        // The Delay-based baseline uses "the maximum delay measured
        // offline at each operating condition" — the offline measurement
        // covers both the Fmax suite and the training workload. TER-based
        // calibrates on the training workload's error rates alone.
        let delay_based =
            DelayBased::calibrate(fu_study.conditions.iter().flat_map(|c| [&c.train, &c.fmax]));
        let ter_based =
            TerBased::calibrate(fu_study.conditions.iter().map(|c| &c.train), seed ^ 0x7E57);

        FuModels { tevot, tevot_nh, delay_based, ter_based }
    }

    /// Mutable access to one model through the common predictor trait.
    pub fn predictor(&mut self, kind: ModelKind) -> &mut dyn ErrorPredictor {
        match kind {
            ModelKind::Tevot => &mut self.tevot,
            ModelKind::DelayBased => &mut self.delay_based,
            ModelKind::TerBased => &mut self.ter_based,
            ModelKind::TevotNh => &mut self.tevot_nh,
        }
    }
}

/// One Table III cell: the mean accuracy of a model on one (FU, dataset)
/// pair across all conditions and clock speeds, plus the per-point detail.
#[derive(Debug, Clone)]
pub struct AccuracyCell {
    /// The model evaluated.
    pub model: ModelKind,
    /// The dataset evaluated on.
    pub dataset: DatasetKind,
    /// Mean accuracy (Eq. 4) across conditions and speeds.
    pub mean_accuracy: f64,
    /// Per-(condition, speed) accuracy points.
    pub points: Vec<AccuracyPoint>,
}

/// Evaluates all four models on all three datasets for one FU — one row
/// group of Table III.
pub fn evaluate_fu(fu_study: &FuStudy, models: &mut FuModels) -> Vec<AccuracyCell> {
    let _span = tevot_obs::span!("evaluate", "{}", fu_study.fu);
    let mut cells = Vec::new();
    for dataset in DatasetKind::ALL {
        let workload = fu_study.test_workload(dataset);
        for model in ModelKind::ALL {
            let mut points = Vec::new();
            for cond_study in &fu_study.conditions {
                let truth = &cond_study.tests[dataset_index(dataset)];
                let _predict = tevot_obs::span!("predict");
                points.extend(evaluate_predictor(models.predictor(model), workload, truth));
            }
            cells.push(AccuracyCell {
                model,
                dataset,
                mean_accuracy: mean_accuracy(&points),
                points,
            });
        }
    }
    cells
}

/// Looks up one cell.
///
/// # Panics
///
/// Panics if the combination was not evaluated.
pub fn cell(cells: &[AccuracyCell], dataset: DatasetKind, model: ModelKind) -> &AccuracyCell {
    cells.iter().find(|c| c.dataset == dataset && c.model == model).expect("cell was evaluated")
}

/// The quality-estimation verdicts of one source (simulation or a model)
/// across all (condition, speed, image) points for one application.
#[derive(Debug, Clone)]
pub struct QualityVerdicts {
    /// Acceptability verdict per estimation point.
    pub verdicts: Vec<bool>,
    /// Mean PSNR per (condition, speed) point, for reporting.
    pub mean_psnr_db: Vec<f64>,
}

fn fu_index(study: &Study, fu: FunctionalUnit) -> usize {
    study
        .fus
        .iter()
        .position(|s| s.fu == fu)
        .unwrap_or_else(|| panic!("quality pipeline needs a full study; {fu} missing"))
}

/// Derives the per-FU TER set one model predicts for an application's
/// operand streams at one (condition index, speed index) point.
///
/// # Panics
///
/// Panics if the study does not cover all four FUs (applications draw
/// TERs from each).
pub fn model_rates(
    study: &Study,
    models: &mut [FuModels],
    app: Application,
    cond_idx: usize,
    speed_idx: usize,
    model: ModelKind,
) -> FuErrorRates {
    let dataset = match app {
        Application::Sobel => DatasetKind::Sobel,
        Application::Gaussian => DatasetKind::Gauss,
    };
    FuErrorRates::from_fn(|fu| {
        let fu_idx = fu_index(study, fu);
        let fu_study = &study.fus[fu_idx];
        let cond_study = &fu_study.conditions[cond_idx];
        let workload = fu_study.test_workload(dataset);
        predicted_ter(
            models[fu_idx].predictor(model),
            workload,
            cond_study.condition,
            cond_study.train.clock_periods_ps()[speed_idx],
        )
    })
}

/// Derives the simulation ground-truth TER set for an application at one
/// (condition index, speed index) point.
///
/// # Panics
///
/// Panics if the study does not cover all four FUs.
pub fn ground_truth_rates(
    study: &Study,
    app: Application,
    cond_idx: usize,
    speed_idx: usize,
) -> FuErrorRates {
    let dataset = match app {
        Application::Sobel => DatasetKind::Sobel,
        Application::Gaussian => DatasetKind::Gauss,
    };
    FuErrorRates::from_fn(|fu| {
        study.fus[fu_index(study, fu)].conditions[cond_idx].tests[dataset_index(dataset)]
            .timing_error_rate(speed_idx)
    })
}

/// Runs the full Table IV pipeline for one application: injects the
/// ground-truth TERs and each model's TERs at every (condition, speed)
/// point, classifies every output image, and scores each model's verdicts
/// against simulation's (Eq. 5).
///
/// Returns `(per-model estimation accuracy, simulation acceptance rate)`.
pub fn quality_study(
    study: &Study,
    models: &mut [FuModels],
    app: Application,
    corpus: &[GrayImage],
    seed: u64,
) -> (Vec<(ModelKind, f64)>, f64) {
    let num_conditions = study.fus[0].conditions.len();
    let num_speeds = study.config.speedups.len();

    let mut sim_verdicts = Vec::new();
    let mut model_verdicts: Vec<(ModelKind, Vec<bool>)> =
        ModelKind::ALL.iter().map(|&m| (m, Vec::new())).collect();

    for cond_idx in 0..num_conditions {
        for speed_idx in 0..num_speeds {
            let point_seed = seed ^ ((cond_idx as u64) << 32 | (speed_idx as u64) << 16);
            let truth_rates = ground_truth_rates(study, app, cond_idx, speed_idx);
            let sim = inject_and_score(app, corpus, truth_rates, point_seed);
            sim_verdicts.extend_from_slice(&sim.acceptable);

            for (model, verdicts) in &mut model_verdicts {
                let rates = model_rates(study, models, app, cond_idx, speed_idx, *model);
                let out = inject_and_score(app, corpus, rates, point_seed ^ 0xABCD);
                verdicts.extend_from_slice(&out.acceptable);
            }
        }
    }

    let sim_acceptance =
        sim_verdicts.iter().filter(|&&v| v).count() as f64 / sim_verdicts.len() as f64;
    let accuracies = model_verdicts
        .into_iter()
        .map(|(model, verdicts)| (model, estimation_accuracy(&verdicts, &sim_verdicts)))
        .collect();
    (accuracies, sim_acceptance)
}

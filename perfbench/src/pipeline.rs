//! The paper pipeline as `tevot train` runs it (Fig. 2): levelized DTA
//! sweep over a (V, T) grid, featurize, fit the forest, reference stats,
//! save, then held-out evaluation at the paper's three clock speedups.
//!
//! Every step is one call into a crate's public API, timed from here.
//! The traced form additionally reads the span totals and counters that
//! `tevot-obs` already keeps, as before/after deltas; it adds no tracing
//! inside the program.

use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::Characterizer;
use tevot::eval::{evaluate_predictor, mean_accuracy};
use tevot::reference::ReferenceStats;
use tevot::workload::random_workload;
use tevot::{build_delay_dataset, FeatureEncoding, TevotModel, TevotParams, Workload};
use tevot_ml::ForestParams;
use tevot_netlist::fu::FunctionalUnit;
use tevot_obs::metrics::{
    CORE_ROWS_FEATURIZED, ML_NODE_SPLITS, SIM_CYCLES, SIM_LEV_REPLAY_EVALS, SIM_LEV_WORD_EVALS,
};
use tevot_timing::{ClockSpeedup, OperatingCondition};

/// The unit every workload characterizes and serves: INT MUL, the deepest
/// netlist, where simulation and forest fitting cost about the same.
pub const FU: FunctionalUnit = FunctionalUnit::IntMul;

/// The size of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Supply voltages of the training grid (V).
    pub voltages: &'static [f64],
    /// Temperatures of the training grid (°C).
    pub temps: &'static [f64],
    /// Training vectors, shared by every grid corner.
    pub vectors: usize,
    /// Held-out vectors per evaluation corner.
    pub test_vectors: usize,
    /// Forest size (`tevot train` default: 10).
    pub trees: usize,
}

/// The held-out evaluation corners: two corners of the grid, one at
/// 0.81 V, where inverse temperature dependence flips the delay order.
pub const EVAL_CORNERS: [(f64, f64); 2] = [(0.81, 0.0), (1.00, 100.0)];

/// Pipeline inputs, generated from the seed before any timing.
pub struct Inputs {
    pub train: Workload,
    pub test: Workload,
    pub conditions: Vec<OperatingCondition>,
    pub eval: Vec<OperatingCondition>,
    pub seed: u64,
    pub trees: usize,
}

impl Inputs {
    pub fn generate(spec: &PipelineSpec, seed: u64) -> Inputs {
        let conditions = spec
            .voltages
            .iter()
            .flat_map(|&v| spec.temps.iter().map(move |&t| OperatingCondition::new(v, t)))
            .collect();
        Inputs {
            train: random_workload(FU, spec.vectors, seed),
            test: random_workload(FU, spec.test_vectors, seed ^ 0x7E57_5EED),
            conditions,
            eval: EVAL_CORNERS.iter().map(|&(v, t)| OperatingCondition::new(v, t)).collect(),
            seed,
            trees: spec.trees,
        }
    }
}

/// Wall time of each pipeline step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Steps {
    pub sweep_s: f64,
    pub featurize_s: f64,
    pub fit_s: f64,
    pub reference_s: f64,
    pub save_s: f64,
    pub eval_s: f64,
}

impl Steps {
    /// The named steps' sum, for the stage-sum check.
    pub fn sum(&self) -> f64 {
        self.sweep_s + self.featurize_s + self.fit_s + self.reference_s + self.save_s + self.eval_s
    }
}

/// Work and busy time read from `tevot-obs` around a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// `DelayModel::annotate` + STA busy time over every corner.
    pub annotate_s: f64,
    /// Levelized simulation busy time over sweep and evaluation.
    pub sim_busy_s: f64,
    /// Levelized simulation busy time inside the sweep alone.
    pub sweep_sim_busy_s: f64,
    pub sim_cycles: f64,
    pub word_evals: f64,
    pub replay_evals: f64,
    pub rows: f64,
    pub node_splits: f64,
}

/// One pipeline run's outcome.
pub struct Run {
    pub total_s: f64,
    pub steps: Steps,
    pub layers: Option<Layers>,
    pub accuracy: f64,
    pub model: TevotModel,
}

/// The obs state a traced run differences.
#[derive(Clone, Copy)]
struct Probe {
    annotate_ns: f64,
    sim_ns: f64,
    cycles: f64,
    word_evals: f64,
    replay_evals: f64,
    rows: f64,
    splits: f64,
}

impl Probe {
    fn take() -> Probe {
        let (mut annotate_ns, mut sim_ns) = (0.0, 0.0);
        for (path, stat) in tevot_obs::span::snapshot() {
            match path.rsplit(tevot_obs::span::PATH_SEPARATOR).next() {
                Some("annotate") => annotate_ns += stat.total_ns as f64,
                Some("sim.lev") => sim_ns += stat.total_ns as f64,
                _ => {}
            }
        }
        Probe {
            annotate_ns,
            sim_ns,
            cycles: SIM_CYCLES.get() as f64,
            word_evals: SIM_LEV_WORD_EVALS.get() as f64,
            replay_evals: SIM_LEV_REPLAY_EVALS.get() as f64,
            rows: CORE_ROWS_FEATURIZED.get() as f64,
            splits: ML_NODE_SPLITS.get() as f64,
        }
    }
}

/// Runs sweep → evaluation once and times every step. With `trace`, also
/// differences the obs spans and counters around it.
pub fn run(ch: &Characterizer, inputs: &Inputs, model_path: &Path, trace: bool) -> Run {
    let before = trace.then(Probe::take);
    let t0 = Instant::now();
    let chars = ch.characterize_sweep(&inputs.conditions, &inputs.train, &ClockSpeedup::PAPER);
    let t1 = Instant::now();
    let after_sweep = trace.then(Probe::take);

    let encoding = FeatureEncoding::with_history();
    let runs: Vec<_> = chars.iter().map(|c| (&inputs.train, c)).collect();
    let t2 = Instant::now();
    let data = build_delay_dataset(encoding, &runs);
    let t3 = Instant::now();

    let params = TevotParams {
        forest: ForestParams { num_trees: inputs.trees, ..ForestParams::default() },
        encoding,
    };
    let mut rng = SmallRng::seed_from_u64(inputs.seed);
    let mut model = TevotModel::train(&data, &params, &mut rng);
    let t4 = Instant::now();

    // The drift reference `tevot train` stores with the model: the
    // model's own predictions over the training transitions.
    let ops = inputs.train.operands();
    let mut ref_conditions = Vec::with_capacity(chars.len() * ops.len());
    let mut ref_delays = Vec::with_capacity(chars.len() * ops.len());
    for c in &chars {
        for t in 1..ops.len() {
            ref_conditions.push(c.condition());
            ref_delays.push(model.predict_delay_ps(c.condition(), ops[t], ops[t - 1]));
        }
    }
    model.set_reference(ReferenceStats::collect(&ref_conditions, &ref_delays));
    let t5 = Instant::now();
    model.save_path(model_path).expect("write the model into the benchmark's work directory");
    let t6 = Instant::now();

    let mut points = Vec::new();
    for &cond in &inputs.eval {
        let truth = ch.characterize(cond, &inputs.test, &ClockSpeedup::PAPER);
        points.extend(evaluate_predictor(&mut model, &inputs.test, &truth));
    }
    let accuracy = mean_accuracy(&points);
    let t7 = Instant::now();

    let layers = before.zip(after_sweep).map(|(b, s)| {
        let a = Probe::take();
        Layers {
            annotate_s: (a.annotate_ns - b.annotate_ns) / 1e9,
            sim_busy_s: (a.sim_ns - b.sim_ns) / 1e9,
            sweep_sim_busy_s: (s.sim_ns - b.sim_ns) / 1e9,
            sim_cycles: a.cycles - b.cycles,
            word_evals: a.word_evals - b.word_evals,
            replay_evals: a.replay_evals - b.replay_evals,
            rows: a.rows - b.rows,
            node_splits: a.splits - b.splits,
        }
    });
    let secs = |from: Instant, to: Instant| (to - from).as_secs_f64();
    Run {
        total_s: secs(t0, t7),
        steps: Steps {
            sweep_s: secs(t0, t1),
            featurize_s: secs(t2, t3),
            fit_s: secs(t3, t4),
            reference_s: secs(t4, t5),
            save_s: secs(t5, t6),
            eval_s: secs(t6, t7),
        },
        layers,
        accuracy,
        model,
    }
}

/// The saved model must reload equal to the trained one and predict
/// bit-identically on the held-out transitions at every evaluation corner.
pub fn reload_matches(model: &TevotModel, inputs: &Inputs, model_path: &Path) -> bool {
    let Ok(loaded) = TevotModel::load_path(model_path) else {
        return false;
    };
    let ops = inputs.test.operands();
    loaded == *model
        && inputs.eval.iter().all(|&cond| {
            (1..ops.len()).all(|t| {
                loaded.predict_delay_ps(cond, ops[t], ops[t - 1]).to_bits()
                    == model.predict_delay_ps(cond, ops[t], ops[t - 1]).to_bits()
            })
        })
}

//! The repository benchmark. One command runs one workload at one seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is one TEVoT session as a user runs it: train an INT MUL
//! model with the `tevot train` pipeline, start the CLI-default server on
//! it, then serve requests in open loop at a low and a high fixed rate and
//! in closed loop on two connections. The workloads differ in the request
//! shape (see README.md). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics. The last stdout line is the
//! result object; the lines before it stamp the host and summarise phases.

mod pipeline;
mod serve;
mod stamp;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tevot::dta::Characterizer;
use tevot::TevotModel;
use tevot_serve::batch::Transition;
use tevot_serve::Batcher;

use pipeline::{Inputs, PipelineSpec, FU};
use serve::{ApiLane, BatchLane, Counters, Lane, Phase, Plan, Req, Shape, SocketLane, Status};
use stats::{mean, median, quantile};

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 15;

/// Counted pipeline repetitions per run, at least.
const MIN_PIPELINE_RUNS: usize = 5;

/// A run interleaves the three serving phases in this many rounds, so a
/// stall on the host lands in one round instead of in one phase.
const ROUNDS: usize = 5;

/// The `tevot train` pipeline every workload runs: INT MUL over 12
/// corners spanning the paper's Table I range (0.81–1.00 V, 0–100 °C),
/// 800 vectors shared by every corner, a 10-tree forest, and held-out
/// evaluation of 1000 vectors at two corners.
const PIPELINE: PipelineSpec = PipelineSpec {
    voltages: &[0.81, 0.87, 0.93, 1.00],
    temps: &[0.0, 50.0, 100.0],
    vectors: 800,
    test_vectors: 1000,
    trees: 10,
};

/// Share of `--seconds` spent repeating the pipeline.
const PIPELINE_SHARE: f64 = 0.45;

/// One workload: the request mix, the two fixed open-loop rates, and how
/// the serving share of `--seconds` divides among the phases.
struct Workload {
    name: &'static str,
    shape: Shape,
    /// Distinct requests generated per run (the schedule cycles them).
    pool: usize,
    lo_rate: f64,
    hi_rate: f64,
    lo_share: f64,
    hi_share: f64,
    sat_share: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve-small",
        shape: Shape::Small,
        pool: 1024,
        lo_rate: 200.0,
        hi_rate: 500.0,
        lo_share: 0.25,
        hi_share: 0.15,
        sat_share: 0.12,
    },
    Workload {
        name: "serve-bulk",
        shape: Shape::Bulk,
        pool: 256,
        lo_rate: 100.0,
        hi_rate: 300.0,
        lo_share: 0.28,
        hi_share: 0.15,
        sat_share: 0.1,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A per-run scratch directory inside the checkout, removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Named metric values in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric that failed to
                // measure reads as 0 and the run is already marked failed.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

/// The rounds of one serving phase at one entry point.
#[derive(Default)]
struct Rounds(Vec<Phase>);

impl Rounds {
    /// The median over windows of each window's `q` latency quantile, µs,
    /// from the calm windows (see [`stats::calm`]): a window the
    /// hypervisor stole from measured the host, and one in a round whose
    /// open-loop schedule did not hold measured the generator.
    fn latency_us(&self, q: f64) -> f64 {
        let windows: Vec<(f64, f64, bool)> = self
            .0
            .iter()
            .flat_map(|p| {
                let held = p.schedule_held();
                p.windows(q).into_iter().map(move |(value, steal)| (value, steal, held))
            })
            .collect();
        let calm = stats::calm(&windows, |w| w.1, |w| w.2);
        median(&calm.iter().map(|w| w.0).collect::<Vec<_>>())
    }

    /// The median over rounds of transitions priced per second.
    fn transitions_per_s(&self, per_request: usize) -> f64 {
        let rates: Vec<f64> = stats::calm(&self.0, |p| p.steal_frac, Phase::schedule_held)
            .iter()
            .map(|p| (p.count(Status::Ok) * per_request) as f64 / p.wall_s)
            .collect();
        median(&rates)
    }

    fn behind(&self) -> usize {
        self.0.iter().filter(|p| !p.schedule_held()).count()
    }

    /// The worst round's p99 generator lateness, ms.
    fn late_p99_ms(&self) -> f64 {
        self.0.iter().map(|p| quantile(&p.late_us, 0.99) / 1e3).fold(0.0, f64::max)
    }

    fn records(&self) -> impl Iterator<Item = &serve::Record> {
        self.0.iter().flat_map(|p| &p.records)
    }

    /// One summary line per phase and entry point.
    fn report(&self, label: &str) {
        let count = |status| self.0.iter().map(|p| p.count(status)).sum::<usize>();
        let p50s: Vec<String> = self
            .0
            .iter()
            .map(|p| format!("{:.3}", quantile(&p.ok_latencies_us(), 0.5) / 1e3))
            .collect();
        let p99s: Vec<String> = self
            .0
            .iter()
            .map(|p| format!("{:.3}", quantile(&p.ok_latencies_us(), 0.99) / 1e3))
            .collect();
        let steal: Vec<String> =
            self.0.iter().map(|p| format!("{:.0}%", p.steal_frac * 100.0)).collect();
        let open = self.0.iter().any(|p| !p.late_us.is_empty());
        let schedule = if open {
            format!(" gen_late_p99_max={:.3}ms rounds_behind={}", self.late_p99_ms(), self.behind())
        } else {
            String::new()
        };
        println!(
            "phase {label}: requests={} ok={} shed={} errors={} round_p50_ms=[{}] \
             round_p99_ms=[{}] round_steal=[{}]{schedule}",
            count(Status::Ok) + count(Status::Shed) + count(Status::Error),
            count(Status::Ok),
            count(Status::Shed),
            count(Status::Error),
            p50s.join(" "),
            p99s.join(" "),
            steal.join(" "),
        );
    }
}

/// Nanoseconds per call of `f` over `items`, repeated until `min_s` has
/// passed.
fn ns_per_call<T>(items: &[T], min_s: f64, mut f: impl FnMut(&T) -> f64) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    let mut sink = 0.0;
    while calls == 0 || start.elapsed().as_secs_f64() < min_s {
        for item in items {
            sink += f(std::hint::black_box(item));
        }
        calls += items.len();
    }
    std::hint::black_box(sink);
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let seconds = args.seconds;
    let work = WorkDir::create();
    let model_path = work.0.join("model.tevot");

    // Inputs come from the seed, before anything is timed.
    let inputs = Inputs::generate(&PIPELINE, args.seed);
    let reqs = serve::generate(w.shape, w.pool, args.seed);
    let per_round =
        |rate: f64, share: f64| ((rate * share * seconds / ROUNDS as f64).round() as usize).max(1);
    let plans = [
        Plan {
            label: "lo",
            rate: Some(w.lo_rate),
            count: per_round(w.lo_rate, w.lo_share),
            duration: Duration::ZERO,
        },
        Plan {
            label: "hi",
            rate: Some(w.hi_rate),
            count: per_round(w.hi_rate, w.hi_share),
            duration: Duration::ZERO,
        },
        Plan {
            label: "sat",
            rate: None,
            count: 0,
            duration: Duration::from_secs_f64(w.sat_share * seconds / ROUNDS as f64),
        },
    ];

    let measured_from = stamp::StealMark::now();

    // Set-up, part 1: netlist build and characterizer construction.
    let mut setup_characterizer = Vec::new();
    let mut characterizer = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = std::hint::black_box(Characterizer::new(FU));
        setup_characterizer.push(t0.elapsed().as_secs_f64());
        characterizer = Some(built);
    }
    let characterizer = characterizer.expect("set-up ran");

    // The pipeline, back to back until its share of the run is spent; the
    // last run's model is the one served. The first run warms caches and
    // the allocator and is not counted. In a traced run every other
    // repetition reads the obs state; the untraced ones give the
    // tracing-overhead baseline.
    let budget = PIPELINE_SHARE * seconds;
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut peak_rss = Vec::new();
    let mut pipeline_steal = Vec::new();
    while runs.len() <= MIN_PIPELINE_RUNS || started.elapsed().as_secs_f64() < budget {
        let traced = args.trace && runs.len() % 2 == 1;
        stamp::reset_peak_rss();
        let (run, steal) =
            stamp::with_steal(|| pipeline::run(&characterizer, &inputs, &model_path, traced));
        runs.push(run);
        pipeline_steal.push(steal);
        peak_rss.push(stamp::peak_rss_mb());
    }
    let pipeline_rss_mb = median(&peak_rss[1..]);
    // Counted repetitions (not the warm-up), calm ones preferred.
    let counted: Vec<usize> = (1..runs.len()).collect();
    let calm_runs: Vec<&pipeline::Run> = stats::calm(&counted, |&i| pipeline_steal[i], |_| true)
        .into_iter()
        .map(|&i| &runs[i])
        .collect();

    // Set-up, part 2: load the saved model and start the server.
    let mut setup_server = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            tevot_serve::Server::shutdown(previous);
        }
        let (started, secs) = serve::start_server(&model_path);
        setup_server.push(secs);
        server = Some(started);
    }
    let server = server.expect("set-up ran");
    let addr = server.local_addr().to_string();
    let offline = TevotModel::load_path(&model_path).expect("reload the served model");

    // Entry A is what a user sees; B and C run only in a traced run.
    let sockets = || -> Vec<Box<dyn Lane + Send>> {
        (0..serve::LANES)
            .map(|_| Box::new(SocketLane::connect(&addr)) as Box<dyn Lane + Send>)
            .collect()
    };
    let state = Arc::clone(server.state());
    let api = || -> Vec<Box<dyn Lane + Send + '_>> {
        (0..serve::LANES).map(|_| Box::new(ApiLane(&state)) as Box<dyn Lane + Send>).collect()
    };
    let batcher = args.trace.then(|| {
        let config = serve::cli_default_config();
        Batcher::start(config.jobs, config.max_queue, config.batch, config.batch_wait)
    });
    let model = Arc::new(offline.clone());
    let batch = || -> Vec<Box<dyn Lane + Send + '_>> {
        let batcher = batcher.as_ref().expect("entry C runs in traced runs only");
        (0..serve::LANES)
            .map(|_| Box::new(BatchLane { batcher, model: &model }) as Box<dyn Lane + Send>)
            .collect()
    };

    let mut at_a: [Rounds; 3] = Default::default();
    let mut at_b: [Rounds; 3] = Default::default();
    let mut at_c: [Rounds; 3] = Default::default();
    let mut counters: [Counters; 3] = Default::default();
    let mut offset = 0;
    let mut serve_rss = Vec::new();
    for _ in 0..ROUNDS {
        stamp::reset_peak_rss();
        for (i, plan) in plans.iter().enumerate() {
            let before = Counters::now();
            let phase = plan.drive(sockets(), &reqs, offset, true);
            counters[i].add_since(&before);
            let sent = phase.records.len();
            at_a[i].0.push(phase);
            if args.trace {
                at_b[i].0.push(plan.drive(api(), &reqs, offset, false));
                at_c[i].0.push(plan.drive(batch(), &reqs, offset, false));
            }
            offset += sent;
        }
        serve_rss.push(stamp::peak_rss_mb());
    }
    if let Some(batcher) = batcher {
        batcher.shutdown();
    }
    drop(state);
    server.shutdown();
    let host_steal = measured_from.frac_until(stamp::StealMark::now());
    println!(
        "host: the hypervisor took {:.1}% of CPU time during the run{}",
        host_steal * 100.0,
        if host_steal > 0.05 { " (figures measure the host as much as the program)" } else { "" }
    );

    // Checks: the pipeline is deterministic and its saved model reloads
    // bit-identically; every kept response equals offline prediction.
    let mut attempted = runs.len();
    let mut failed = 0usize;
    let last = runs.last().expect("pipeline ran");
    let deterministic = runs
        .iter()
        .all(|r| r.model == last.model && r.accuracy.to_bits() == last.accuracy.to_bits());
    let reloads = pipeline::reload_matches(&last.model, &inputs, &model_path);
    if !(deterministic && reloads) {
        failed += runs.len();
    }
    let pipeline_s = median(&calm_runs.iter().map(|r| r.total_s).collect::<Vec<_>>());
    let run_s: Vec<String> = runs
        .iter()
        .zip(&pipeline_steal)
        .map(|(r, steal)| format!("{:.3}@{:.0}%", r.total_s, steal * 100.0))
        .collect();
    println!(
        "pipeline: runs_s@steal=[{}] median={pipeline_s:.3}s accuracy={:.6} corners={} vectors={} \
         peak_rss_mb={pipeline_rss_mb:.1} deterministic={deterministic} \
         reload_bit_identical={reloads}",
        run_s.join(" "),
        last.accuracy,
        inputs.conditions.len(),
        inputs.train.len()
    );
    let (mut compared, mut mismatched) = (0usize, 0usize);
    for (plan, rounds) in plans.iter().zip(&at_a) {
        rounds.report(plan.label);
        for record in rounds.records() {
            attempted += 1;
            if record.status != Status::Ok {
                failed += 1;
            } else if let Some(body) = &record.body {
                compared += 1;
                if !serve::response_matches(&offline, &reqs[record.req], body) {
                    mismatched += 1;
                }
            }
        }
    }
    failed += mismatched;
    println!("check serve: {compared} responses compared bit for bit, {mismatched} mismatched");
    let mut correct = deterministic && reloads && mismatched == 0 && compared > 0;

    let mut metrics = Metrics::default();
    let [lo, hi, sat] = &at_a;
    if !args.trace {
        metrics.put("setup_s", median(&setup_characterizer) + median(&setup_server), "s");
        metrics.put("pipeline_s", pipeline_s, "s");
        metrics.put("accuracy", last.accuracy, "frac");
        metrics.put("peak_rss_mb", pipeline_rss_mb.max(median(&serve_rss)), "MB");
        metrics.put("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64, "frac");
        metrics.put("lo_p50_ms", lo.latency_us(0.5) / 1e3, "ms");
        metrics.put("lo_p90_ms", lo.latency_us(0.9) / 1e3, "ms");
        metrics.put("hi_p50_ms", hi.latency_us(0.5) / 1e3, "ms");
        metrics.put("hi_p90_ms", hi.latency_us(0.9) / 1e3, "ms");
        metrics.put("sat_tps", sat.transitions_per_s(w.shape.transitions()), "1/s");
        return Outcome { correct, attempted, failed, metrics };
    }

    for ((plan, b), c) in plans.iter().zip(&at_b).zip(&at_c) {
        b.report(&format!("{}.api", plan.label));
        c.report(&format!("{}.batcher", plan.label));
        for record in b.records().chain(c.records()) {
            attempted += 1;
            failed += usize::from(record.status != Status::Ok);
        }
    }

    // Model and clock-recommendation cost, measured directly.
    let transitions: Vec<(&Req, Transition)> =
        reqs.iter().flat_map(|r| r.transitions.iter().map(move |&t| (r, t))).collect();
    let predict_ns = ns_per_call(&transitions, 0.2, |&(r, (current, previous))| {
        offline.predict_delay_ps(r.cond, current, previous)
    });
    let delays: Vec<f64> = transitions
        .iter()
        .map(|&(r, (current, previous))| offline.predict_delay_ps(r.cond, current, previous))
        .collect();
    let recommend_ns = ns_per_call(&delays, 0.05, |&d| {
        tevot_dfs::recommended_t_clk_ps(d, serve::GUARDBAND_PS) as f64
    });

    // Pipeline layers, averaged over the traced repetitions; the untraced
    // ones after the warm-up are the overhead baseline.
    let traced: Vec<&pipeline::Run> = runs.iter().filter(|r| r.layers.is_some()).collect();
    let untraced: Vec<f64> =
        runs.iter().skip(1).filter(|r| r.layers.is_none()).map(|r| r.total_s).collect();
    let traced_s: Vec<f64> = traced.iter().map(|r| r.total_s).collect();
    let avg =
        |f: &dyn Fn(&pipeline::Run) -> f64| mean(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let layer = |f: fn(&pipeline::Layers) -> f64| avg(&|r| f(r.layers.as_ref().expect("traced")));
    let sweep_s = avg(&|r| r.steps.sweep_s);
    let pipeline_stage_frac = avg(&|r| r.steps.sum() / r.total_s);
    let jobs = tevot_par::jobs() as f64;

    metrics.put("netlist.build_s", median(&setup_characterizer), "s");
    metrics.put("serve.setup_s", median(&setup_server), "s");
    metrics.put("timing.annotate_s", layer(|l| l.annotate_s), "s");
    metrics.put("sim.busy_s", layer(|l| l.sim_busy_s), "s");
    metrics.put("sim.ns_per_cycle", layer(|l| l.sim_busy_s * 1e9 / l.sim_cycles.max(1.0)), "ns");
    metrics.put("sim.word_evals", layer(|l| l.word_evals), "count");
    metrics.put("sim.replay_evals", layer(|l| l.replay_evals), "count");
    metrics.put("par.sweep_s", sweep_s, "s");
    metrics.put("par.util", layer(|l| l.sweep_sim_busy_s) / (sweep_s * jobs), "frac");
    metrics.put("core.featurize_s", avg(&|r| r.steps.featurize_s), "s");
    metrics.put("core.rows", layer(|l| l.rows), "count");
    metrics.put("ml.fit_s", avg(&|r| r.steps.fit_s), "s");
    metrics.put("ml.node_splits", layer(|l| l.node_splits), "count");
    metrics.put("core.reference_s", avg(&|r| r.steps.reference_s), "s");
    metrics.put("core.save_s", avg(&|r| r.steps.save_s), "s");
    metrics.put("core.eval_s", avg(&|r| r.steps.eval_s), "s");
    metrics.put("ml.predict_ns", predict_ns, "ns");
    metrics.put("dfs.recommend_ns", recommend_ns, "ns");

    // The serve split per phase, from the p50 of the same schedule at the
    // three entry points: A − B is sockets, accept and HTTP framing;
    // B − C is JSON and the handler; C − predict is waiting in the queue
    // and the microbatch hold (idle, not work); predict is the model.
    let predict_us = predict_ns * w.shape.transitions() as f64 / 1e3;
    let mut serve_stage_frac: f64 = 1.0;
    let mut negative_stages = 0usize;
    for (i, plan) in plans.iter().enumerate() {
        let label = plan.label;
        let (a50, b50, c50) =
            (at_a[i].latency_us(0.5), at_b[i].latency_us(0.5), at_c[i].latency_us(0.5));
        let stages = [a50 - b50, b50 - c50, c50 - predict_us, predict_us];
        negative_stages += stages.iter().filter(|&&s| s < 0.0).count();
        let frac = stages.iter().sum::<f64>() / a50;
        if (frac - 1.0).abs() > (serve_stage_frac - 1.0).abs() {
            serve_stage_frac = frac;
        }
        metrics.put(format!("serve.{label}.client_p50_us"), a50, "us");
        metrics.put(format!("serve.{label}.client_p99_us"), at_a[i].latency_us(0.99), "us");
        metrics.put(format!("serve.{label}.net_us"), stages[0], "us");
        metrics.put(format!("serve.{label}.api_us"), stages[1], "us");
        metrics.put(format!("serve.{label}.batch_wait_us"), stages[2], "us");
        metrics.put(format!("serve.{label}.predict_us"), stages[3], "us");
        metrics.put(format!("serve.{label}.batch_jobs"), counters[i].mean_batch_jobs(), "count");
        metrics.put(
            format!("serve.{label}.queue_depth_p99"),
            counters[i].queue_depth_p99(),
            "count",
        );
        metrics.put(format!("serve.{label}.shed"), counters[i].shed(), "count");
        metrics.put(format!("serve.{label}.errors"), counters[i].errors(), "count");
    }
    metrics.put("gen.lo.late_p99_ms", lo.late_p99_ms(), "ms");
    metrics.put("gen.hi.late_p99_ms", hi.late_p99_ms(), "ms");
    metrics.put("gen.rounds_behind", (lo.behind() + hi.behind()) as f64, "count");
    metrics.put("trace.overhead_frac", median(&traced_s) / median(&untraced) - 1.0, "frac");
    metrics.put("check.pipeline_stage_frac", pipeline_stage_frac, "frac");
    metrics.put("check.serve_stage_frac", serve_stage_frac, "frac");
    metrics.put("check.serve_negative_stages", negative_stages as f64, "count");
    metrics.put("host.steal_frac", host_steal, "frac");
    let stage_sum_ok = pipeline_stage_frac >= 0.95 && (serve_stage_frac - 1.0).abs() <= 0.05;
    println!(
        "check stage sum: pipeline {pipeline_stage_frac:.4}, serve {serve_stage_frac:.4} \
         (need >= 0.95, and within 5%)"
    );
    correct &= stage_sum_ok;
    Outcome { correct, attempted, failed, metrics }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The watch's drift alerts fire on the benchmark's uniform (V, T)
    // request mix by design; keep stderr to real errors.
    tevot_obs::set_level(tevot_obs::Level::Error);
    println!("{}", stamp::line(args.workload.name, args.seed, args.seconds, args.trace));
    let outcome = run(&args);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}

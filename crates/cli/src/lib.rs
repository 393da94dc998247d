//! `tevot` — command-line interface to the TEVoT pipeline.
//!
//! The binary in `main.rs` is a thin wrapper over [`run`]; the command
//! implementations live here so integration tests can drive them
//! in-process.
//!
//! ```text
//! tevot stats        --fu <unit>
//! tevot characterize --fu <unit> --voltage <V> --temperature <C>
//!                    [--vectors N] [--seed S] [--sdf out.sdf] [--vcd out.vcd]
//! tevot train        --fu <unit> --out model.tevot
//!                    [--grid fig3|paper | --voltages V,V --temps C,C]
//!                    [--vectors N] [--trees N] [--seed S] [--no-history]
//!                    [--resume <dir>] [--deadline-ms N]
//! tevot predict      --model model.tevot --voltage <V> --temperature <C>
//!                    --clock-ps <N> --a <u32> --b <u32>
//!                    [--prev-a <u32>] [--prev-b <u32>]
//! tevot sweep        --model model.tevot [--grid fig3|paper] [--fu <unit>]
//!                    [--vectors N] [--seed S] [--clock-ps N]
//! tevot serve        --model model.tevot [--addr host:port]
//!                    [--max-queue N] [--batch N] [--batch-wait-ms N]
//!                    [--no-watch] [--shadow-every N] [--fu <unit>]
//! tevot prom-check   [--addr host:port]
//! tevot obs-diff     <a.json> <b.json>
//! ```
//!
//! Units: `int-add`, `int-mul`, `fp-add`, `fp-mul`. Operands accept
//! decimal or `0x` hex. Every command also takes `--jobs <N>` (worker
//! threads for the `tevot-par` pool; results are bit-identical at every
//! value), `--metrics <path>` (tevot-obs/1 JSON report) and
//! `--trace <path>` (Chrome/Perfetto timeline trace); `obs-diff`
//! compares two of the former.

pub mod args;

/// `println!` that exits quietly when stdout is gone (e.g. piped to
/// `head`), instead of panicking on the broken pipe.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use args::{ArgError, Args};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tevot::dta::Characterizer;
use tevot::reference::ReferenceStats;
use tevot::workload::random_workload;
use tevot::{build_delay_dataset, FeatureEncoding, TevotModel, TevotParams};
use tevot_ml::ForestParams;
use tevot_netlist::fu::FunctionalUnit;
use tevot_resil::checkpoint::CheckpointDir;
use tevot_resil::{CancelToken, ErrorKind, TevotError, Watchdog};
use tevot_sim::trace::dump_vcd;
use tevot_timing::{sdf, ClockSpeedup, ConditionGrid, DelayModel, OperatingCondition};

const HELP: &str = "\
tevot — timing-error modeling of functional units (TEVoT, DAC 2020)

  tevot stats        --fu <unit>
  tevot characterize --fu <unit> --voltage <V> --temperature <C>
                     [--vectors N] [--seed S] [--sdf out.sdf] [--vcd out.vcd]
                     [--engine event|levelized]
  tevot train        --fu <unit> --out model.tevot
                     [--grid fig3|paper | --voltages 0.9,1.0 --temps 0,25]
                     [--vectors N] [--trees N] [--seed S] [--no-history]
                     [--resume <dir>] [--deadline-ms N]
                     [--engine event|levelized]
  tevot predict      --model model.tevot --voltage <V> --temperature <C>
                     --clock-ps <N> --a <u32> --b <u32>
                     [--prev-a <u32>] [--prev-b <u32>]
  tevot sweep        --model model.tevot [--grid fig3|paper] [--vectors N]
                     [--voltages V,V --temps C,C] [--seed S] [--clock-ps N]
                     [--fu <unit>]          (workload unit; default int-add)
  tevot ter          --model model.tevot --voltage <V> --temperature <C>
                     --clock-ps <N> [--workload trace.txt | --fu <unit>
                     --vectors N] [--validate] [--seed S]
  tevot dfs          --model model.tevot --voltage <V> --temperature <C>
                     [--guardband-ps <X>] (--a <u32> --b <u32>
                     [--prev-a] [--prev-b] | --workload trace.txt |
                     --fu <unit> [--vectors N] [--seed S]) [--validate]
  tevot serve        --model model.tevot [--addr <host:port>]
                     [--max-queue N] [--batch N] [--batch-wait-ms N]
                     [--no-watch] [--shadow-every N] [--fu <unit>]
  tevot prom-check   [--addr <host:port>]
  tevot obs-diff     <a.json> <b.json>      (two --metrics reports)

units: int-add | int-mul | fp-add | fp-mul; operands take decimal or 0x hex.
workload traces: one `aaaaaaaa bbbbbbbb` hex pair per line, `#` comments.
engines: levelized (default; bit-parallel, 64 cycles per pass) | event
         (event-driven oracle); both produce bit-identical results.

serve (online inference; see DESIGN.md for the batching architecture):
  --addr <host:port>   bind address (default 127.0.0.1:7450; :0 picks a port)
  --max-queue <N>      admission bound; beyond it requests shed with
                       HTTP 503 + Retry-After (default 256)
  --batch <N>          max jobs merged per microbatch (default 32)
  --batch-wait-ms <N>  how long a microbatch waits for company (default 1)
  endpoints: POST /predict | POST /ter | POST /dfs | POST /models/<name> |
             GET /models | GET /healthz | GET /metrics[?format=prom] |
             GET /watch

serve telemetry (DESIGN.md §14; on by default, --no-watch disables):
  GET /watch reports PSI drift of the served (V, T, delay) against the
  model's training reference (alert level 0.25), shadow accuracy and
  the slowest requests; time series and alerting belong to a
  Prometheus scraper of GET /metrics?format=prom.
  --shadow-every <N>   replay every Nth served transition through the
                       gate-level oracle for a live-accuracy signal
                       (default 0 = off); --fu picks the simulated unit
                       (default int-add)
  `tevot prom-check` validates the Prometheus exposition (for CI and
  scrapers)

train resilience:
  --resume <dir>       checkpoint each characterized condition to <dir>
                       (atomic shards) and skip completed ones on restart;
                       the resumed model is bit-identical
  --deadline-ms <N>    cancel the checkpointed sweep gracefully (exit 6)
                       once the wall-clock budget elapses

exit codes: 0 ok | 1 internal | 2 usage | 3 i/o | 4 corrupt data |
            5 parse | 6 cancelled

global flags (any position):
  -v | --verbose       raise the log level (repeatable; default info)
  -q | --quiet         lower the log level (repeatable)
  --jobs <N>           worker threads for parallel stages (default: the
                       TEVOT_JOBS env var, then all available cores);
                       results are bit-identical at every jobs level;
                       0 clamps to 1 worker with a warning
  --metrics <path>     write stage timings + counters as tevot-obs/1 JSON
  --trace <path>       record a timeline and write Chrome/Perfetto trace
                       JSON (open at https://ui.perfetto.dev)
(the TEVOT_LOG env var sets the base level: off|error|warn|info|debug)";

/// Executes one CLI invocation (`argv` without the program name).
///
/// # Errors
///
/// Returns a descriptive error for unknown subcommands, malformed
/// arguments, unreadable files or invalid model data.
pub fn run(argv: Vec<String>) -> Result<(), Box<dyn Error>> {
    let (argv, _obs) = global_flags(argv)?;
    let args = Args::parse(argv)?;
    match args.command() {
        "help" | "--help" | "-h" => {
            outln!("{HELP}");
            Ok(())
        }
        "stats" => cmd_stats(&args),
        "characterize" => cmd_characterize(&args),
        "train" => cmd_train(&args),
        "predict" => cmd_predict(&args),
        "sweep" => cmd_sweep(&args),
        "ter" => cmd_ter(&args),
        "dfs" => cmd_dfs(&args),
        "serve" => cmd_serve(&args),
        "prom-check" => cmd_prom_check(&args),
        "obs-diff" => cmd_obs_diff(&args),
        other => Err(ArgError(format!("unknown subcommand {other:?}")).into()),
    }
}

/// Extracts the global flags (`-v`/`--verbose`, `-q`/`--quiet`,
/// `--jobs <N>`, `--metrics <path>`, `--trace <path>`) from anywhere on
/// the command line, applies the verbosity and the worker-pool size,
/// enables timeline recording when a trace was requested, and returns
/// the remaining tokens plus the RAII metrics/trace writer that reports
/// when [`run`] finishes.
fn global_flags(
    argv: Vec<String>,
) -> Result<(Vec<String>, tevot_obs::report::FinishGuard), ArgError> {
    let mut rest = Vec::with_capacity(argv.len());
    let mut verbosity = 0i32;
    let mut metrics = None;
    let mut trace = None;
    let mut iter = argv.into_iter();
    while let Some(token) = iter.next() {
        match token.as_str() {
            "-v" | "--verbose" => verbosity += 1,
            "-q" | "--quiet" => verbosity -= 1,
            "--jobs" => match iter.next().as_deref().map(str::parse::<usize>) {
                Some(Ok(0)) => {
                    // A zero-worker pool could never drain its queue;
                    // clamp to serial instead of hanging or erroring.
                    tevot_obs::warn!("--jobs 0 would be a zero-worker pool; clamping to 1 worker");
                    tevot_par::set_jobs(1);
                }
                Some(Ok(jobs)) => tevot_par::set_jobs(jobs),
                _ => return Err(ArgError("--jobs needs a worker count".into())),
            },
            "--metrics" | "--trace" => {
                let slot = if token == "--metrics" { &mut metrics } else { &mut trace };
                match iter.next() {
                    Some(path) if !path.starts_with("--") => {
                        *slot = Some(std::path::PathBuf::from(path));
                    }
                    _ => return Err(ArgError(format!("{token} needs a file path"))),
                }
            }
            _ => rest.push(token),
        }
    }
    if verbosity != 0 {
        tevot_obs::adjust_level(verbosity);
    }
    Ok((rest, tevot_obs::report::FinishGuard::new().metrics_path(metrics).trace_path(trace)))
}

/// Reads the `--engine {event,levelized}` flag (default: levelized, the
/// bit-parallel engine; both produce bit-identical characterizations).
fn engine_from_args(args: &Args) -> Result<tevot_sim::Engine, ArgError> {
    match args.get("engine") {
        None => Ok(tevot_sim::Engine::default()),
        Some(name) => tevot_sim::Engine::from_name(name).ok_or_else(|| {
            ArgError(format!("--engine: unknown engine {name:?} (expected event or levelized)"))
        }),
    }
}

/// Wraps a file-level I/O result with the offending path, producing a
/// classified [`TevotError`] so [`exit_code_for`] maps it to the stable
/// I/O exit code.
fn at_path<T>(result: std::io::Result<T>, action: &str, path: &str) -> Result<T, Box<dyn Error>> {
    result.map_err(|e| TevotError::from(e).context(format!("cannot {action} {path}")).into())
}

/// The stable process exit code for a CLI failure, per the workspace
/// error taxonomy (DESIGN.md §12): usage errors exit 2, I/O failures 3,
/// corrupt stored data 4, unparsable text 5, cooperative cancellation 6,
/// anything unclassified 1.
pub fn exit_code_for(e: &(dyn Error + 'static)) -> u8 {
    if e.is::<ArgError>() {
        ErrorKind::Usage.exit_code()
    } else if let Some(te) = e.downcast_ref::<TevotError>() {
        te.exit_code()
    } else if e.is::<std::io::Error>() {
        ErrorKind::Io.exit_code()
    } else {
        ErrorKind::Internal.exit_code()
    }
}

/// `tevot ter`: predicted timing error rate of a workload trace at one
/// condition and clock, optionally validated against gate-level
/// simulation.
fn cmd_ter(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = load_model(args.require("model")?)?;
    let cond = condition(args)?;
    let clock: u64 = args.require_parsed("clock-ps")?;
    let workload_path = args.get("workload").map(str::to_owned);
    let fu = args.get("fu").map(parse_fu).transpose()?;
    let vectors: usize = args.get_or("vectors", 400)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let validate = args.flag("validate");
    let engine = engine_from_args(args)?;
    args.finish()?;

    let work = match workload_path {
        Some(path) => {
            let text = at_path(std::fs::read_to_string(&path), "read workload", &path)?;
            // A malformed trace is a parse failure (exit 5), not usage.
            tevot::Workload::from_text(&text).map_err(TevotError::parse)?
        }
        None => random_workload(fu.unwrap_or(FunctionalUnit::IntAdd), vectors, seed),
    };
    let ops = work.operands();
    let _span = tevot_obs::span!("evaluate");
    let errors =
        (1..ops.len()).filter(|&t| model.predict_error(cond, clock, ops[t], ops[t - 1])).count();
    let predicted = errors as f64 / (ops.len() - 1) as f64;
    outln!(
        "workload {:?} ({} transitions) at {cond}, clock {clock} ps:",
        work.name(),
        ops.len() - 1
    );
    outln!("  predicted TER: {:.2}%", predicted * 100.0);

    if validate {
        let fu = fu.ok_or_else(|| {
            ArgError("--validate needs --fu to pick the gate-level netlist".into())
        })?;
        tevot_obs::info!("validating against gate-level simulation...");
        let characterizer = Characterizer::new(fu).with_engine(engine);
        let truth = characterizer.characterize_with_periods(cond, &work, &[clock]);
        outln!("  simulated TER: {:.2}%", truth.timing_error_rate(0) * 100.0);
    }
    Ok(())
}

/// `tevot dfs`: closed-loop adaptive clocking — recommend `t_clk` =
/// predicted delay + guardband for one transition or a whole trace,
/// optionally validated against the gate-level simulator as the error
/// oracle. Served `/dfs` recommendations are bit-identical: both sides
/// call [`tevot_dfs::recommended_t_clk_ps`] on the same predicted
/// delays.
fn cmd_dfs(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = load_model(args.require("model")?)?;
    let cond = condition(args)?;
    let guardband: f64 = args.get_or("guardband-ps", 0.0)?;
    if !guardband.is_finite() || guardband < 0.0 {
        return Err(ArgError(format!(
            "--guardband-ps must be a non-negative margin (got {guardband})"
        ))
        .into());
    }
    let single = args.get("a").is_some() || args.get("b").is_some();
    if single {
        let a = parse_u32(args.require("a")?)?;
        let b = parse_u32(args.require("b")?)?;
        let prev_a = args.get("prev-a").map(parse_u32).transpose()?.unwrap_or(0);
        let prev_b = args.get("prev-b").map(parse_u32).transpose()?.unwrap_or(0);
        args.finish()?;
        let delay = {
            let _span = tevot_obs::span!("dfs");
            model.predict_delay_ps(cond, (a, b), (prev_a, prev_b))
        };
        let t_clk = tevot_dfs::recommended_t_clk_ps(delay, guardband);
        outln!(
            "({prev_a:#x}, {prev_b:#x}) -> ({a:#x}, {b:#x}) at {cond}, guardband {guardband} ps:"
        );
        outln!("  predicted dynamic delay: {delay:.0} ps");
        outln!("  recommended t_clk: {t_clk} ps");
        return Ok(());
    }

    let workload_path = args.get("workload").map(str::to_owned);
    let fu = args.get("fu").map(parse_fu).transpose()?;
    let vectors: usize = args.get_or("vectors", 400)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let validate = args.flag("validate");
    let engine = engine_from_args(args)?;
    args.finish()?;

    let work = match workload_path {
        Some(path) => {
            let text = at_path(std::fs::read_to_string(&path), "read workload", &path)?;
            tevot::Workload::from_text(&text).map_err(TevotError::parse)?
        }
        None => random_workload(fu.unwrap_or(FunctionalUnit::IntAdd), vectors, seed),
    };
    let ops = work.operands();
    if ops.len() < 2 {
        return Err(
            ArgError("the workload needs at least 2 vectors (one transition)".into()).into()
        );
    }

    let _span = tevot_obs::span!("dfs");
    let mut controller =
        tevot_dfs::ClockController::new(tevot_dfs::GuardbandPolicy::fixed(guardband));
    let mut predicted_sum = 0.0f64;
    let mut total_t_clk = 0u64;
    for t in 1..ops.len() {
        let rec = controller.recommend(&model, cond, ops[t], ops[t - 1]);
        predicted_sum += rec.predicted_delay_ps;
        total_t_clk += rec.t_clk_ps;
    }
    let transitions = ops.len() - 1;
    outln!(
        "adaptive clock over workload {:?} ({transitions} transitions) at {cond}, \
         guardband {guardband} ps:",
        work.name()
    );
    outln!("  mean predicted delay: {:.0} ps", predicted_sum / transitions as f64);
    outln!("  mean t_clk: {:.0} ps", total_t_clk as f64 / transitions as f64);
    outln!("  throughput: {:.3} ops/us", transitions as f64 * 1e6 / total_t_clk as f64);

    if validate {
        let fu = fu.ok_or_else(|| {
            ArgError("--validate needs --fu to pick the gate-level netlist".into())
        })?;
        tevot_obs::info!("validating against gate-level simulation...");
        let trace = Characterizer::new(fu).with_engine(engine).trace(cond, &work);
        let actual: Vec<u64> = trace.cycles().iter().map(|c| c.dynamic_delay_ps()).collect();
        let mut oracle =
            tevot_dfs::ClockController::new(tevot_dfs::GuardbandPolicy::fixed(guardband));
        let outcome = tevot_dfs::replay(&mut oracle, &model, cond, ops, &actual);
        let safest = actual.iter().skip(1).copied().max().unwrap_or(1).max(1);
        let fixed = tevot_dfs::fixed_clock_outcome(safest, &actual);
        outln!(
            "  observed error rate: {:.2}% ({} of {} cycles)",
            outcome.error_rate() * 100.0,
            outcome.errors,
            outcome.cycles
        );
        outln!(
            "  safest fixed clock on this trace: {safest} ps ({:.3} ops/us, {:.2}% errors)",
            fixed.throughput_ops_per_us(),
            fixed.error_rate() * 100.0
        );
    }
    Ok(())
}

/// `tevot obs-diff`: renders the delta between two `tevot-obs/1` metrics
/// reports (as written by `--metrics`) — spans, counters and histogram
/// totals/quantiles side by side with absolute and relative changes.
fn cmd_obs_diff(args: &Args) -> Result<(), Box<dyn Error>> {
    let a_path = args.require_positional(0, "first report path")?.to_owned();
    let b_path = args.require_positional(1, "second report path")?.to_owned();
    args.finish()?;

    let load = |path: &str| -> Result<tevot_obs::diff::Report, Box<dyn Error>> {
        let text = at_path(std::fs::read_to_string(path), "read metrics report", path)?;
        tevot_obs::diff::Report::parse(&text).map_err(|e| format!("{path}: {e}").into())
    };
    let a = load(&a_path)?;
    let b = load(&b_path)?;
    outln!("a: {a_path}");
    outln!("b: {b_path}");
    outln!("{}", tevot_obs::diff::render_diff(&a, &b));
    Ok(())
}

fn parse_fu(name: &str) -> Result<FunctionalUnit, ArgError> {
    FunctionalUnit::from_name(name).ok_or_else(|| {
        ArgError(format!("unknown unit {name:?} (expected int-add | int-mul | fp-add | fp-mul)"))
    })
}

fn parse_grid(name: &str) -> Result<ConditionGrid, ArgError> {
    match name {
        "fig3" => Ok(ConditionGrid::fig3()),
        "paper" => Ok(ConditionGrid::paper()),
        other => Err(ArgError(format!("unknown grid {other:?} (expected fig3 | paper)"))),
    }
}

/// The condition grid for a command: an explicit `--voltages`/`--temps`
/// pair wins over the named `--grid`.
fn grid_from_args(args: &Args) -> Result<ConditionGrid, ArgError> {
    let voltages: Option<Vec<f64>> = args.get_list("voltages")?;
    let temps: Option<Vec<f64>> = args.get_list("temps")?;
    match (voltages, temps) {
        (None, None) => parse_grid(args.get("grid").unwrap_or("fig3")),
        (Some(v), Some(t)) => {
            if let Some(bad) = v.iter().find(|x| !x.is_finite() || **x <= 0.0) {
                return Err(ArgError(format!("--voltages: {bad} is not a positive voltage")));
            }
            if let Some(bad) = t.iter().find(|x| !x.is_finite()) {
                return Err(ArgError(format!("--temps: {bad} is not a finite temperature")));
            }
            Ok(ConditionGrid::new(v, t))
        }
        _ => Err(ArgError("--voltages and --temps must be given together".into())),
    }
}

fn parse_u32(s: &str) -> Result<u32, ArgError> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| ArgError(format!("cannot parse operand {s:?} as u32")))
}

fn condition(args: &Args) -> Result<OperatingCondition, ArgError> {
    let v: f64 = args.require_parsed("voltage")?;
    let t: f64 = args.require_parsed("temperature")?;
    Ok(OperatingCondition::new(v, t))
}

fn cmd_stats(args: &Args) -> Result<(), Box<dyn Error>> {
    let fu = parse_fu(args.require("fu")?)?;
    args.finish()?;
    let nl = fu.build();
    outln!("{}", nl.stats().to_string().trim_end());
    let model = DelayModel::tsmc45_like();
    outln!("\ncritical-path delay across the Fig. 3 condition grid:");
    for cond in ConditionGrid::fig3().iter() {
        let ann = model.annotate(&nl, cond);
        let crit = tevot_timing::sta::run(&nl, &ann).critical_delay_ps();
        outln!("  {cond}: {crit} ps");
    }
    Ok(())
}

fn cmd_characterize(args: &Args) -> Result<(), Box<dyn Error>> {
    let fu = parse_fu(args.require("fu")?)?;
    let cond = condition(args)?;
    let vectors: usize = args.get_or("vectors", 500)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let sdf_path = args.get("sdf").map(str::to_owned);
    let vcd_path = args.get("vcd").map(str::to_owned);
    let engine = engine_from_args(args)?;
    args.finish()?;

    let characterizer = Characterizer::new(fu).with_engine(engine);
    let work = random_workload(fu, vectors, seed);
    tevot_obs::info!("characterizing {fu} at {cond} over {vectors} random vectors...");
    let truth = characterizer.characterize(cond, &work, &ClockSpeedup::PAPER);

    outln!("{fu} at {cond}:");
    outln!("  critical path (STA):        {} ps", truth.critical_delay_ps());
    outln!("  max dynamic delay:          {} ps", truth.max_dynamic_delay_ps());
    outln!("  mean dynamic delay:         {:.0} ps", truth.average_delay_ps());
    for (i, speedup) in ClockSpeedup::PAPER.iter().enumerate() {
        outln!(
            "  TER at {speedup} overclock:       {:.2}% (clock {} ps)",
            truth.timing_error_rate(i) * 100.0,
            truth.clock_periods_ps()[i],
        );
    }

    if let Some(path) = sdf_path {
        let ann = characterizer.delay_model().annotate(characterizer.netlist(), cond);
        let mut file = BufWriter::new(at_path(File::create(&path), "create SDF file", &path)?);
        at_path(file.write_all(sdf::write_sdf(&ann).as_bytes()), "write SDF file", &path)?;
        outln!("wrote SDF annotation to {path}");
    }
    if let Some(path) = vcd_path {
        let ann = characterizer.delay_model().annotate(characterizer.netlist(), cond);
        let period =
            tevot_timing::sta::run(characterizer.netlist(), &ann).characterization_period_ps();
        let inputs: Vec<Vec<bool>> =
            work.operands().iter().map(|&(a, b)| fu.encode_operands(a, b)).collect();
        let text = dump_vcd(characterizer.netlist(), &ann, &inputs, period);
        at_path(std::fs::write(&path, text), "write VCD dump", &path)?;
        outln!("wrote VCD dump to {path} (characterization clock {period} ps)");
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), Box<dyn Error>> {
    let fu = parse_fu(args.require("fu")?)?;
    let out = args.require("out")?.to_owned();
    let grid = grid_from_args(args)?;
    let vectors: usize = args.get_or("vectors", 800)?;
    let trees: usize = args.get_or("trees", 10)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let history = !args.flag("no-history");
    let resume = args.get("resume").map(str::to_owned);
    let deadline_ms: Option<u64> = args.get_parsed("deadline-ms")?;
    let engine = engine_from_args(args)?;
    args.finish()?;

    let encoding =
        if history { FeatureEncoding::with_history() } else { FeatureEncoding::without_history() };
    let characterizer = Characterizer::new(fu).with_engine(engine);
    let work = random_workload(fu, vectors, seed);
    // One tevot-par task per grid point; output order matches the grid,
    // so training data (and the model) are identical at every --jobs.
    let conditions: Vec<OperatingCondition> = grid.iter().collect();
    let token = CancelToken::new();
    let _watchdog =
        deadline_ms.map(|ms| Watchdog::deadline(&token, std::time::Duration::from_millis(ms)));
    let chars = match &resume {
        // Checkpointed sweep: each completed condition is journaled
        // to an atomic shard in <dir> and skipped on the next run.
        // The resumed output is bit-identical to an uninterrupted
        // sweep.
        Some(dir) => {
            let ckpt = CheckpointDir::open(dir.as_str()).map_err(Box::new)?;
            characterizer.characterize_sweep_ckpt(
                &conditions,
                &work,
                &ClockSpeedup::PAPER,
                &ckpt,
                &token,
            )?
        }
        None => characterizer.characterize_sweep(&conditions, &work, &ClockSpeedup::PAPER),
    };
    let runs: Vec<_> = chars.iter().map(|c| (&work, c)).collect();
    let data = build_delay_dataset(encoding, &runs);
    tevot_obs::info!("training on {} rows x {} features...", data.len(), data.num_features());
    let params = TevotParams {
        forest: ForestParams { num_trees: trees, ..ForestParams::default() },
        encoding,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = {
        let _span = tevot_obs::span!("train");
        TevotModel::train(&data, &params, &mut rng)
    };
    // Persist the training distribution alongside the forest: the serve
    // stack's drift monitors compare live traffic against these
    // reference histograms (DESIGN.md §14), and they hot-swap with the
    // model because they live in the same file. The delay reference uses
    // the model's own *predictions* over the training transitions — the
    // serve side observes predicted delays, and forest smoothing shifts
    // their distribution away from the raw characterized delays.
    let ops = work.operands();
    let mut ref_conditions = Vec::new();
    let mut ref_delays = Vec::new();
    for characterization in &chars {
        let cond = characterization.condition();
        for t in 1..ops.len() {
            ref_conditions.push(cond);
            ref_delays.push(model.predict_delay_ps(cond, ops[t], ops[t - 1]));
        }
    }
    model.set_reference(ReferenceStats::collect(&ref_conditions, &ref_delays));
    at_path(model.save_path(Path::new(&out)), "write model to", &out)?;
    outln!(
        "trained {} ({} trees, {} conditions, {} rows) -> {out}",
        if history { "TEVoT" } else { "TEVoT-NH" },
        trees,
        grid.len(),
        data.len(),
    );
    Ok(())
}

fn load_model(path: &str) -> Result<TevotModel, Box<dyn Error>> {
    // `load_path` names the path and byte offset of any truncation or
    // corruption; the conversion classifies it (I/O vs corrupt) for the
    // exit code.
    TevotModel::load_path(Path::new(path)).map_err(|e| TevotError::from(e).into())
}

fn cmd_predict(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = load_model(args.require("model")?)?;
    let cond = condition(args)?;
    let clock: u64 = args.require_parsed("clock-ps")?;
    let a = parse_u32(args.require("a")?)?;
    let b = parse_u32(args.require("b")?)?;
    let prev_a = args.get("prev-a").map(parse_u32).transpose()?.unwrap_or(0);
    let prev_b = args.get("prev-b").map(parse_u32).transpose()?.unwrap_or(0);
    args.finish()?;

    let delay = {
        let _span = tevot_obs::span!("predict");
        model.predict_delay_ps(cond, (a, b), (prev_a, prev_b))
    };
    let erroneous = delay > clock as f64;
    outln!("({prev_a:#x}, {prev_b:#x}) -> ({a:#x}, {b:#x}) at {cond}, clock {clock} ps:");
    outln!("  predicted dynamic delay: {delay:.0} ps");
    outln!("  verdict: timing {}", if erroneous { "ERRONEOUS" } else { "correct" });
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = load_model(args.require("model")?)?;
    let grid = grid_from_args(args)?;
    let fu = args.get("fu").map(parse_fu).transpose()?.unwrap_or(FunctionalUnit::IntAdd);
    let vectors: usize = args.get_or("vectors", 300)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let clock: Option<u64> = args.get("clock-ps").map(str::parse).transpose()?;
    args.finish()?;
    if vectors < 2 {
        return Err(ArgError(format!(
            "--vectors must be at least 2 (got {vectors}); a sweep needs at least one transition"
        ))
        .into());
    }

    // The model carries no FU identity; predicted delays are meaningful
    // for the unit it was trained on, so --fu should match the training
    // unit (default int-add). Random operand pairs probe the
    // distribution.
    let _span = tevot_obs::span!("evaluate");
    let work = random_workload(fu, vectors, seed);
    let ops = work.operands();
    outln!(
        "predicted dynamic-delay distribution over {} random {} transitions{}:",
        vectors - 1,
        fu.slug(),
        clock.map(|c| format!(" (TER at clock {c} ps)")).unwrap_or_default(),
    );
    outln!("{:>14} {:>8} {:>8} {:>8} {:>10}", "condition", "p50", "p99", "max", "TER");
    for cond in grid.iter() {
        let mut delays: Vec<f64> =
            (1..ops.len()).map(|t| model.predict_delay_ps(cond, ops[t], ops[t - 1])).collect();
        delays.sort_by(f64::total_cmp);
        // Interpolated quantiles — the same convention the tevot-obs
        // histograms (and thus the serve /metrics endpoint) report, so
        // CLI and served percentiles agree.
        let q = |p: f64| tevot_obs::metrics::quantile_sorted(&delays, p).unwrap_or(0.0);
        let ter = clock
            .map(|c| {
                let errors = delays.iter().filter(|&&d| d > c as f64).count();
                format!("{:.2}%", errors as f64 / delays.len() as f64 * 100.0)
            })
            .unwrap_or_else(|| "-".into());
        outln!(
            "{:>14} {:>8.0} {:>8.0} {:>8.0} {:>10}",
            cond.to_string(),
            q(0.5),
            q(0.99),
            delays.last().copied().unwrap_or(0.0),
            ter,
        );
    }
    Ok(())
}

/// `tevot serve`: the online inference server (tevot-serve). Loads
/// `--model` as the `default` registry entry, binds `--addr`, and serves
/// until the process is killed. Worker count comes from the global
/// `--jobs` flag / `TEVOT_JOBS`, like every other command.
fn cmd_serve(args: &Args) -> Result<(), Box<dyn Error>> {
    let model_path = args.require("model")?.to_owned();
    let addr = args.get("addr").unwrap_or("127.0.0.1:7450").to_owned();
    let max_queue: usize = args.get_or("max-queue", 256)?;
    let batch: usize = args.get_or("batch", 32)?;
    let batch_wait_ms: u64 = args.get_or("batch-wait-ms", 1)?;
    let no_watch = args.flag("no-watch");
    let shadow_every: u64 = args.get_or("shadow-every", 0)?;
    let shadow_fu = args.get("fu").map(parse_fu).transpose()?.unwrap_or(FunctionalUnit::IntAdd);
    args.finish()?;
    if max_queue == 0 {
        return Err(ArgError("--max-queue must be at least 1".into()).into());
    }
    if batch == 0 {
        return Err(ArgError("--batch must be at least 1".into()).into());
    }

    // Load (and validate) the model before binding the port, so a bad
    // model path fails fast with the taxonomy exit code instead of
    // leaving a listener that 404s everything.
    let model = load_model(&model_path)?;

    let watch = (!no_watch).then_some(tevot_serve::WatchConfig { shadow_every, fu: shadow_fu });
    let config = tevot_serve::ServeConfig {
        addr: addr.clone(),
        jobs: 0, // resolve the global --jobs / TEVOT_JOBS setting
        max_queue,
        batch,
        batch_wait: std::time::Duration::from_millis(batch_wait_ms),
        watch,
        ..tevot_serve::ServeConfig::default()
    };
    let server = tevot_serve::Server::start(config)
        .map_err(|e| TevotError::from(e).context(format!("cannot bind {addr}")))?;
    server.state().registry.insert(tevot_serve::DEFAULT_MODEL, model);
    outln!(
        "serving {model_path} as {:?} on http://{}  (queue {max_queue}, batch {batch}, \
         wait {batch_wait_ms} ms, watch {})",
        tevot_serve::DEFAULT_MODEL,
        server.local_addr(),
        if no_watch { "off" } else { "on" },
    );
    server.join();
    Ok(())
}

/// `tevot prom-check`: fetches `GET /metrics?format=prom` and re-parses
/// the exposition, failing loudly when the server's output is not valid
/// Prometheus 0.0.4 text — the CI guard for the scrape endpoint.
fn cmd_prom_check(args: &Args) -> Result<(), Box<dyn Error>> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7450").to_owned();
    args.finish()?;
    let (status, body) = tevot_serve::http::get(&addr, "/metrics?format=prom")
        .map_err(|e| TevotError::from(e).context(format!("cannot reach {addr}")))?;
    if status != 200 {
        return Err(TevotError::new(
            ErrorKind::Usage,
            format!("GET /metrics?format=prom on {addr} answered {status}"),
        )
        .into());
    }
    let samples = tevot_obs::prom::parse(&body)
        .map_err(|e| TevotError::new(ErrorKind::Parse, format!("invalid exposition: {e}")))?;
    if samples.is_empty() {
        return Err(TevotError::new(ErrorKind::Corrupt, "exposition contains no samples").into());
    }
    let families: std::collections::BTreeSet<&str> =
        samples.iter().map(|s| s.name.as_str()).collect();
    outln!(
        "prom-check ok: {} samples across {} metric names from {addr}",
        samples.len(),
        families.len(),
    );
    Ok(())
}

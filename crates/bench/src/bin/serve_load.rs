//! Load generator for the tevot-serve online inference server.
//!
//! Two modes:
//!
//! * **External** (`--addr host:port`): drives an already-running
//!   server — what the CI smoke job does after launching `tevot serve`
//!   on a loopback port.
//! * **Self-hosted** (`--model-file model.tevot`): loads the model,
//!   starts an in-process server on `127.0.0.1:0`, drives it, and shuts
//!   it down — a one-command serving benchmark.
//!
//! ```text
//! serve_load (--addr host:port | --model-file model.tevot)
//!            [--requests N] [--connections N] [--transitions N]
//!            [--dfs] [--expect-clean]
//! ```
//!
//! `--dfs` drives `POST /dfs` (clock recommendations) instead of
//! `POST /predict`. The run prints one summary: request counts by
//! outcome, throughput, and client-side p50/p99 latency.
//!
//! `--expect-clean` exits 1 if any request was shed or failed — the CI
//! smoke assertion.

use std::path::Path;
use std::process::ExitCode;

use tevot_serve::loadgen::{run, LoadConfig};
use tevot_serve::{ServeConfig, Server, DEFAULT_MODEL};

const USAGE: &str = "usage: serve_load (--addr host:port | --model-file model.tevot) \
                     [--requests N] [--connections N] [--transitions N] \
                     [--dfs] [--expect-clean]";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("serve_load: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut addr = None;
    let mut model_file = None;
    let mut config = LoadConfig::default();
    let mut expect_clean = false;

    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => match value("--addr") {
                Ok(v) => addr = Some(v),
                Err(e) => return usage_error(&e),
            },
            "--model-file" => match value("--model-file") {
                Ok(v) => model_file = Some(v),
                Err(e) => return usage_error(&e),
            },
            "--requests" | "--connections" | "--transitions" => {
                let parsed = match value(&arg).map(|v| v.parse::<usize>()) {
                    Ok(Ok(n)) if n > 0 => n,
                    _ => return usage_error(&format!("{arg} needs a positive integer")),
                };
                match arg.as_str() {
                    "--requests" => config.requests = parsed,
                    "--connections" => config.connections = parsed,
                    _ => config.transitions = parsed,
                }
            }
            "--expect-clean" => expect_clean = true,
            "--dfs" => config.dfs = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }

    // Self-hosted mode keeps the server alive for the duration of the
    // run; external mode leaves lifecycle to the caller.
    let mut server: Option<Server> = None;
    match (&addr, &model_file) {
        (Some(_), Some(_)) => return usage_error("--addr and --model-file are mutually exclusive"),
        (None, None) => return usage_error("need --addr or --model-file"),
        (Some(a), None) => config.addr = a.clone(),
        (None, Some(path)) => {
            let model = match tevot::TevotModel::load_path(Path::new(path)) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("serve_load: cannot load {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match Server::start(ServeConfig::default()) {
                Ok(s) => {
                    s.state().registry.insert(DEFAULT_MODEL, model);
                    config.addr = s.local_addr().to_string();
                    server = Some(s);
                }
                Err(e) => {
                    eprintln!("serve_load: cannot start server: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let outcome = run(&config);
    if let Some(server) = server {
        server.shutdown();
    }

    println!(
        "serve_load: {} {} requests to {} over {} connections ({} transitions each)",
        outcome.requests,
        if config.dfs { "/dfs" } else { "/predict" },
        config.addr,
        config.connections,
        config.transitions
    );
    println!(
        "  ok {}  shed {}  errors {}  reconnects {}  |  {:.0} req/s  p50 {:.0} us  p99 {:.0} us",
        outcome.ok,
        outcome.shed,
        outcome.errors,
        outcome.reconnects,
        outcome.qps,
        outcome.p50_us,
        outcome.p99_us
    );

    if expect_clean && (outcome.shed > 0 || outcome.errors > 0) {
        eprintln!(
            "serve_load: --expect-clean failed: {} shed, {} errors",
            outcome.shed, outcome.errors
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

//! End-to-end tests of the `tevot` CLI commands, driven in-process.

use std::path::PathBuf;

fn run(args: &[&str]) -> Result<(), String> {
    tevot_cli::run(args.iter().map(|s| s.to_string()).collect()).map_err(|e| e.to_string())
}

/// Runs and reduces the outcome to the process exit code the binary
/// would return.
fn run_code(args: &[&str]) -> u8 {
    match tevot_cli::run(args.iter().map(|s| s.to_string()).collect()) {
        Ok(()) => 0,
        Err(e) => tevot_cli::exit_code_for(e.as_ref()),
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tevot_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn help_and_error_paths() {
    run(&["help"]).unwrap();
    assert!(run(&["frobnicate"]).unwrap_err().contains("unknown subcommand"));
    assert!(run(&["stats"]).unwrap_err().contains("--fu"));
    assert!(run(&["stats", "--fu", "int-nope"]).unwrap_err().contains("unknown unit"));
    assert!(run(&["stats", "--fu", "int-add", "--bogus", "1"])
        .unwrap_err()
        .contains("unknown argument"));
    assert!(run(&["stats", "--fu", "int-add", "stray"]).unwrap_err().contains("positional"));
    assert!(run(&["--trace"]).unwrap_err().contains("needs a file path"));
}

#[test]
fn obs_diff_compares_two_reports() {
    let a = temp_path("obs_a.json");
    let b = temp_path("obs_b.json");
    std::fs::write(
        &a,
        r#"{"schema":"tevot-obs/1",
            "spans":[{"path":"train","total_ns":2000000,"count":1}],
            "counters":[{"name":"sim.cycles_simulated","value":10}],
            "histograms":[]}"#,
    )
    .unwrap();
    std::fs::write(
        &b,
        r#"{"schema":"tevot-obs/1",
            "spans":[{"path":"train","total_ns":3000000,"count":1}],
            "counters":[{"name":"sim.cycles_simulated","value":20}],
            "histograms":[]}"#,
    )
    .unwrap();
    run(&["obs-diff", a.to_str().unwrap(), b.to_str().unwrap()]).unwrap();

    // Error paths: missing operands, unreadable file, wrong schema.
    assert!(run(&["obs-diff"]).unwrap_err().contains("positional argument 1"));
    assert!(run(&["obs-diff", a.to_str().unwrap()]).unwrap_err().contains("positional"));
    assert!(run(&["obs-diff", a.to_str().unwrap(), "/nonexistent/x.json"])
        .unwrap_err()
        .contains("read metrics report"));
    std::fs::write(&b, r#"{"schema":"bogus/7"}"#).unwrap();
    assert!(run(&["obs-diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .unwrap_err()
        .contains("unsupported schema"));

    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn trace_flag_writes_valid_chrome_trace_json() {
    let trace = temp_path("timeline.json");
    run(&[
        "characterize",
        "--fu",
        "int-add",
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--vectors",
        "40",
        "--trace",
        trace.to_str().unwrap(),
    ])
    .unwrap();

    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = tevot_obs::json::parse(&text).expect("trace file is valid JSON");
    let events = doc.get("traceEvents").and_then(tevot_obs::json::Json::as_arr).unwrap();
    assert!(!events.is_empty(), "span guards must have produced events");
    for event in events {
        use tevot_obs::json::Json;
        assert!(event.get("name").and_then(Json::as_str).is_some());
        assert!(matches!(event.get("ph").and_then(Json::as_str), Some("B" | "E" | "i")));
        assert!(event.get("ts").and_then(Json::as_f64).is_some());
        assert!(event.get("tid").and_then(Json::as_u64).is_some());
    }

    std::fs::remove_file(trace).ok();
}

#[test]
fn stats_runs_for_every_unit() {
    for fu in ["int-add", "int-mul", "fp-add", "fp-mul"] {
        run(&["stats", "--fu", fu]).unwrap();
    }
}

#[test]
fn characterize_writes_sdf() {
    let sdf = temp_path("char.sdf");
    run(&[
        "characterize",
        "--fu",
        "int-add",
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--vectors",
        "60",
        "--sdf",
        sdf.to_str().unwrap(),
    ])
    .unwrap();
    let text = std::fs::read_to_string(&sdf).unwrap();
    assert!(text.starts_with("(DELAYFILE"));
    assert!(text.contains("int_add32"));
    std::fs::remove_file(sdf).ok();
}

#[test]
fn serve_validates_arguments_before_binding() {
    // Missing --model and nonsense sizing are usage errors (exit 2),
    // reported before anything touches the network.
    assert_eq!(run_code(&["serve"]), 2);
    assert_eq!(run_code(&["serve", "--model", "x.tevot", "--batch", "0"]), 2);
    assert_eq!(run_code(&["serve", "--model", "x.tevot", "--max-queue", "0"]), 2);
    // A missing model file fails fast with the I/O exit code instead of
    // leaving a listener bound with an empty registry.
    assert_eq!(run_code(&["serve", "--model", "/nonexistent/m.tevot"]), 3);
}

#[test]
fn exit_codes_follow_the_taxonomy() {
    // Usage: unknown flags, malformed list values, lonely --voltages.
    assert_eq!(run_code(&["stats", "--fu", "int-add", "--bogus", "1"]), 2);
    assert_eq!(
        run_code(&[
            "train",
            "--fu",
            "int-add",
            "--out",
            "x",
            "--voltages",
            "0.9,hot",
            "--temps",
            "25"
        ]),
        2
    );
    let err = run(&["train", "--fu", "int-add", "--out", "x", "--voltages", "0.9"]).unwrap_err();
    assert!(err.contains("given together"), "{err}");

    // I/O: the model file does not exist.
    let missing = &[
        "predict",
        "--model",
        "/nonexistent/m.tevot",
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--clock-ps",
        "250",
        "--a",
        "1",
        "--b",
        "2",
    ];
    assert_eq!(run_code(missing), 3);

    // Corrupt: the model file exists but is garbage; the error names the
    // path and the byte offset where decoding stopped.
    let model = temp_path("garbage.tevot");
    std::fs::write(&model, b"this is not a model").unwrap();
    let argv = &[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--clock-ps",
        "250",
        "--a",
        "1",
        "--b",
        "2",
    ];
    assert_eq!(run_code(argv), 4);
    let err = run(argv).unwrap_err();
    assert!(err.contains(model.to_str().unwrap()), "{err}");
    assert!(err.contains("byte"), "{err}");
    std::fs::remove_file(model).ok();
}

#[test]
fn train_resume_is_bit_identical_and_deadline_cancels() {
    let ckpt = temp_path("train_ckpt");
    let plain = temp_path("plain.tevot");
    let resumed = temp_path("resumed.tevot");
    let base = |out: &PathBuf, extra: &[&str]| {
        let mut argv = vec![
            "train",
            "--fu",
            "int-add",
            "--out",
            out.to_str().unwrap(),
            "--vectors",
            "120",
            "--trees",
            "2",
            "--voltages",
            "0.9,1.0",
            "--temps",
            "25",
        ];
        argv.extend_from_slice(extra);
        argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };

    // A zero deadline cancels the checkpointed sweep cooperatively
    // (exit 6) before it finishes both conditions...
    let ckpt_flag = ckpt.to_str().unwrap().to_owned();
    let e = tevot_cli::run(base(&resumed, &["--resume", &ckpt_flag, "--deadline-ms", "0"]))
        .unwrap_err();
    assert_eq!(tevot_cli::exit_code_for(e.as_ref()), 6, "{e}");

    // ...and rerunning without the deadline resumes from the shards and
    // produces a model bit-identical to an uninterrupted run.
    tevot_cli::run(base(&resumed, &["--resume", &ckpt_flag])).unwrap();
    tevot_cli::run(base(&plain, &[])).unwrap();
    let a = std::fs::read(&plain).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert!(!a.is_empty() && a == b, "resumed model must match the plain run byte for byte");

    // A shard that lost its tail, as a crash mid-write leaves it, is
    // detected and recomputed, and the model is still bit-identical.
    let victim = ckpt.join("cond-0.ckpt");
    let bytes = std::fs::read(&victim).expect("checkpoint must contain cond-0.ckpt");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    tevot_cli::run(base(&resumed, &["--resume", &ckpt_flag])).unwrap();
    let c = std::fs::read(&resumed).unwrap();
    assert!(a == c, "resume over a truncated shard must match the plain run byte for byte");

    // A checkpoint directory from a different run configuration is
    // refused as corrupt data (exit 4) rather than silently mixed in.
    let e =
        tevot_cli::run(base(&resumed, &["--resume", &ckpt_flag, "--vectors", "121"])).unwrap_err();
    assert!(e.to_string().contains("configuration"), "{e}");
    assert_eq!(tevot_cli::exit_code_for(e.as_ref()), 4, "{e}");

    std::fs::remove_file(plain).ok();
    std::fs::remove_file(resumed).ok();
    std::fs::remove_dir_all(ckpt).ok();
}

#[test]
fn jobs_zero_clamps_to_serial_with_identical_output() {
    let serial = temp_path("jobs1.tevot");
    let clamped = temp_path("jobs0.tevot");
    let base = |out: &PathBuf, jobs: &str| {
        let argv = [
            "train",
            "--fu",
            "int-add",
            "--out",
            out.to_str().unwrap(),
            "--vectors",
            "100",
            "--trees",
            "2",
            "--voltages",
            "0.9,1.0",
            "--temps",
            "25",
            "--jobs",
            jobs,
        ];
        argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };
    // --jobs 0 must clamp to one worker (with a warning), not dead-lock a
    // zero-worker pool or error out...
    tevot_cli::run(base(&clamped, "0")).unwrap();
    // ...and its output must be byte-identical to an explicit --jobs 1.
    tevot_cli::run(base(&serial, "1")).unwrap();
    let a = std::fs::read(&serial).unwrap();
    let b = std::fs::read(&clamped).unwrap();
    assert!(!a.is_empty() && a == b, "--jobs 0 output must match --jobs 1 byte for byte");
    tevot_par::set_jobs(0); // restore default resolution for other tests
    std::fs::remove_file(serial).ok();
    std::fs::remove_file(clamped).ok();
}

#[test]
fn engine_flag_selects_a_simulator_bit_identically() {
    let metrics = temp_path("engine_lev.json");
    let base = |engine: &str, metrics: Option<&str>| {
        let mut argv = vec![
            "characterize",
            "--fu",
            "int-add",
            "--voltage",
            "0.9",
            "--temperature",
            "25",
            "--vectors",
            "50",
            "--engine",
            engine,
        ];
        if let Some(m) = metrics {
            argv.extend_from_slice(&["--metrics", m]);
        }
        argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };
    tevot_cli::run(base("event", None)).unwrap();
    tevot_cli::run(base("levelized", Some(metrics.to_str().unwrap()))).unwrap();
    // The levelized engine advances its block counter in the metrics.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let doc = tevot_obs::json::parse(&text).unwrap();
    let blocks = doc
        .get("counters")
        .and_then(tevot_obs::json::Json::as_arr)
        .unwrap()
        .iter()
        .find(|c| {
            c.get("name").and_then(tevot_obs::json::Json::as_str) == Some("sim.levelized_blocks")
        })
        .and_then(|c| c.get("value").and_then(tevot_obs::json::Json::as_u64))
        .unwrap();
    assert!(blocks >= 1, "levelized run must record at least one block, got {blocks}");
    // Unknown engines are usage errors.
    assert_eq!(run_code(&base("warp", None).iter().map(String::as_str).collect::<Vec<_>>()), 2);
    std::fs::remove_file(metrics).ok();
}

#[test]
fn train_predict_ter_roundtrip() {
    let model = temp_path("model.tevot");
    let trace = temp_path("trace.txt");
    run(&[
        "train",
        "--fu",
        "int-add",
        "--out",
        model.to_str().unwrap(),
        "--vectors",
        "150",
        "--trees",
        "3",
    ])
    .unwrap();
    assert!(model.exists());

    run(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--clock-ps",
        "250",
        "--a",
        "0xFFFFFFFF",
        "--b",
        "1",
    ])
    .unwrap();

    std::fs::write(&trace, "# t\ndeadbeef 00000001\n00000002 00000003\n").unwrap();
    run(&[
        "ter",
        "--model",
        model.to_str().unwrap(),
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--clock-ps",
        "250",
        "--workload",
        trace.to_str().unwrap(),
    ])
    .unwrap();

    run(&["sweep", "--model", model.to_str().unwrap(), "--vectors", "50", "--clock-ps", "250"])
        .unwrap();

    // --fu selects the workload unit; unknown units are usage errors.
    run(&["sweep", "--model", model.to_str().unwrap(), "--vectors", "20", "--fu", "int-mul"])
        .unwrap();
    assert_eq!(
        run_code(&["sweep", "--model", model.to_str().unwrap(), "--fu", "int-div"]),
        2,
        "unknown --fu must be a usage error"
    );

    // A sweep needs at least one transition: --vectors below 2 must be a
    // usage error (exit 2), not an arithmetic underflow panic.
    for vectors in ["0", "1"] {
        assert_eq!(
            run_code(&["sweep", "--model", model.to_str().unwrap(), "--vectors", vectors]),
            2,
            "--vectors {vectors} must exit 2"
        );
        let err =
            run(&["sweep", "--model", model.to_str().unwrap(), "--vectors", vectors]).unwrap_err();
        assert!(err.contains("at least 2"), "{err}");
    }

    // Corrupted model data is rejected cleanly.
    std::fs::write(&model, b"garbage").unwrap();
    assert!(run(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--clock-ps",
        "250",
        "--a",
        "1",
        "--b",
        "2",
    ])
    .is_err());

    std::fs::remove_file(model).ok();
    std::fs::remove_file(trace).ok();
}

#[test]
fn dfs_recommends_clocks_and_validates_against_the_oracle() {
    let model = temp_path("dfs_model.tevot");
    let trace = temp_path("dfs_trace.txt");
    run(&[
        "train",
        "--fu",
        "int-add",
        "--out",
        model.to_str().unwrap(),
        "--vectors",
        "150",
        "--trees",
        "3",
    ])
    .unwrap();
    let model_arg = model.to_str().unwrap();

    // Single transition: predicted delay + guardband -> t_clk.
    run(&[
        "dfs",
        "--model",
        model_arg,
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--guardband-ps",
        "50",
        "--a",
        "0xFFFFFFFF",
        "--b",
        "1",
    ])
    .unwrap();

    // Trace mode over a workload file.
    std::fs::write(&trace, "# t\ndeadbeef 00000001\n00000002 00000003\nffffffff 00000000\n")
        .unwrap();
    run(&[
        "dfs",
        "--model",
        model_arg,
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--workload",
        trace.to_str().unwrap(),
    ])
    .unwrap();

    // Random-workload mode with the simulator as error oracle.
    run(&[
        "dfs",
        "--model",
        model_arg,
        "--voltage",
        "0.9",
        "--temperature",
        "25",
        "--guardband-ps",
        "100",
        "--fu",
        "int-add",
        "--vectors",
        "40",
        "--validate",
    ])
    .unwrap();

    // Usage errors: a negative guardband, --validate without --fu on a
    // workload file, and a missing operand all exit 2.
    assert_eq!(
        run_code(&[
            "dfs",
            "--model",
            model_arg,
            "--voltage",
            "0.9",
            "--temperature",
            "25",
            "--guardband-ps",
            "-5",
            "--a",
            "1",
            "--b",
            "2",
        ]),
        2
    );
    assert_eq!(
        run_code(&[
            "dfs",
            "--model",
            model_arg,
            "--voltage",
            "0.9",
            "--temperature",
            "25",
            "--workload",
            trace.to_str().unwrap(),
            "--validate",
        ]),
        2
    );
    assert_eq!(
        run_code(&[
            "dfs",
            "--model",
            model_arg,
            "--voltage",
            "0.9",
            "--temperature",
            "25",
            "--a",
            "1"
        ]),
        2
    );

    std::fs::remove_file(model).ok();
    std::fs::remove_file(trace).ok();
}

//! Reproduces **Fig. 4**: example Sobel filter outputs under timing
//! errors, as judged by gate-level simulation (ground truth) and by the
//! TEVoT / TEVoT-NH / TER-based models.
//!
//! The binary picks the operating point with the highest simulated TER (an
//! "unacceptable" corner like the paper's 27 dB example), injects each
//! model's predicted TERs, writes the output images as PGM files into
//! `fig4_out/`, and prints their PSNR. The Delay-based model is omitted
//! from the images exactly as in the paper: predicting an error on every
//! cycle, it "always leads to completely corrupted output".
//!
//! Usage: `cargo run --release -p tevot-bench --bin fig4_sobel_outputs
//! [--full] [--tiny]`

use std::fs;
use std::path::Path;

use tevot_bench::config::StudyConfig;
use tevot_bench::models::{ground_truth_rates, model_rates, FuModels, ModelKind};
use tevot_bench::study::Study;
use tevot_imgproc::quality::inject_and_score;
use tevot_imgproc::{Application, ExactArithmetic, FuArithmetic as _};

fn main() -> Result<(), String> {
    let config = StudyConfig::from_env();
    let _obs = config.observability();
    let num_trees = config.num_trees;
    let seed = config.seed;
    let study = Study::run(config);

    tevot_obs::info!("training models...");
    let mut models: Vec<FuModels> =
        study.fus.iter().map(|f| FuModels::train(f, num_trees, seed)).collect();

    // Pick the (condition, speed) with the worst simulated Sobel quality.
    let num_speeds = study.config.speedups.len();
    let mut worst = (0usize, 0usize, -1.0f64);
    for cond_idx in 0..study.fus[0].conditions.len() {
        for speed_idx in 0..num_speeds {
            let rates = ground_truth_rates(&study, Application::Sobel, cond_idx, speed_idx);
            let total = rates.int_add + rates.int_mul + rates.fp_add + rates.fp_mul;
            if total > worst.2 {
                worst = (cond_idx, speed_idx, total);
            }
        }
    }
    let (cond_idx, speed_idx, _) = worst;
    let cond = study.fus[0].conditions[cond_idx].condition;
    let speedup = study.config.speedups[speed_idx];
    println!("Fig. 4 reproduction: Sobel at {cond}, clock speedup {speedup}");

    let image = &study.corpus[0];
    let out_dir = Path::new("fig4_out");
    write_or_err(fs::create_dir_all(out_dir), out_dir)?;

    let mut exact = ExactArithmetic;
    let reference = Application::Sobel.run(image, &mut exact);
    write_or_err(
        fs::write(out_dir.join("reference.pgm"), reference.to_pgm()),
        &out_dir.join("reference.pgm"),
    )?;
    let _ = exact.int_add(0, 0);

    let corpus = std::slice::from_ref(image);
    let truth_rates = ground_truth_rates(&study, Application::Sobel, cond_idx, speed_idx);
    let sim = inject_and_score(Application::Sobel, corpus, truth_rates, seed);
    let res = fs::write(out_dir.join("ground_truth.pgm"), {
        let mut faulty = tevot_imgproc::FaultyArithmetic::new(truth_rates, seed);
        Application::Sobel.run(image, &mut faulty).to_pgm()
    });
    write_or_err(res, &out_dir.join("ground_truth.pgm"))?;
    println!("  ground truth (gate-level sim TERs {truth_rates:?}): {:.1} dB", sim.psnr_db[0]);

    for model in [ModelKind::Tevot, ModelKind::TevotNh, ModelKind::TerBased] {
        let rates =
            model_rates(&study, &mut models, Application::Sobel, cond_idx, speed_idx, model);
        let out = inject_and_score(Application::Sobel, corpus, rates, seed ^ 0xABCD);
        let file = format!("{}.pgm", model.name().to_lowercase().replace('-', "_"));
        write_or_err(
            fs::write(out_dir.join(&file), {
                let mut faulty = tevot_imgproc::FaultyArithmetic::new(rates, seed ^ 0xABCD);
                Application::Sobel.run(image, &mut faulty).to_pgm()
            }),
            &out_dir.join(&file),
        )?;
        println!(
            "  {} (predicted TERs {rates:?}): {:.1} dB -> fig4_out/{file}",
            model.name(),
            out.psnr_db[0]
        );
    }
    println!(
        "\nPaper (Fig. 4): ground truth 27 dB, TEVoT 25 dB, TEVoT-NH 56 dB, \
         TER-based 48 dB — TEVoT is the model whose output quality tracks \
         the simulation."
    );
    Ok(())
}

/// Converts a filesystem error into a message naming the offending path.
fn write_or_err(result: std::io::Result<()>, path: &Path) -> Result<(), String> {
    result.map_err(|e| format!("cannot write {}: {e}", path.display()))
}

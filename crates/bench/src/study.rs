//! The shared DTA study: workload construction and per-condition
//! characterization for all four FUs — the data everything from Fig. 3 to
//! Table IV is computed from.

use tevot::dta::{Characterization, Characterizer};
use tevot::workload::{characterization_workload, random_workload};
use tevot::Workload;
use tevot_imgproc::profile::profile_application;
use tevot_imgproc::synth::synthetic_corpus;
use tevot_imgproc::{Application, GrayImage};
use tevot_netlist::fu::FunctionalUnit;
use tevot_resil::checkpoint::CheckpointDir;
use tevot_resil::codec::{fnv1a64, ByteReader, ByteWriter};
use tevot_resil::{CancelToken, ResultExt, TevotError, Watchdog};
use tevot_timing::OperatingCondition;

use crate::config::StudyConfig;

/// The three evaluation datasets of the paper (Table III columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Uniformly random operands.
    Random,
    /// Operands profiled from the Sobel filter.
    Sobel,
    /// Operands profiled from the Gaussian filter.
    Gauss,
}

impl DatasetKind {
    /// All datasets in the paper's column order.
    pub const ALL: [DatasetKind; 3] = [DatasetKind::Random, DatasetKind::Sobel, DatasetKind::Gauss];

    /// The paper's dataset label.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Random => "random_data",
            DatasetKind::Sobel => "sobel_data",
            DatasetKind::Gauss => "gauss_data",
        }
    }
}

/// Everything characterized at one operating condition for one FU.
#[derive(Debug, Clone)]
pub struct ConditionStudy {
    /// The operating condition.
    pub condition: OperatingCondition,
    /// Characterization of the (mixed) training workload, at the
    /// overclocked periods (one per configured speedup) shared by every
    /// characterization below.
    pub train: Characterization,
    /// Characterization of the Fmax suite that set the base period (the
    /// "maximum delay measured offline", which the Delay-based baseline
    /// calibrates against).
    pub fmax: Characterization,
    /// Characterizations of the test datasets, indexed like
    /// [`DatasetKind::ALL`].
    pub tests: Vec<Characterization>,
}

impl ConditionStudy {
    /// Serializes the condition study to the checkpoint payload format
    /// (bit-exact; see [`Characterization::to_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(2); // payload format version
        w.put_f64(self.condition.voltage());
        w.put_f64(self.condition.temperature());
        w.put_bytes(&self.train.to_bytes());
        w.put_bytes(&self.fmax.to_bytes());
        w.put_u64(self.tests.len() as u64);
        for t in &self.tests {
            w.put_bytes(&t.to_bytes());
        }
        w.into_bytes()
    }

    /// Deserializes a condition study written by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`tevot_resil::ErrorKind::Corrupt`] on truncation, an unknown
    /// version, or an implausible condition.
    pub fn from_bytes(bytes: &[u8]) -> Result<ConditionStudy, TevotError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if version != 2 {
            return Err(r.corrupt(format!("unsupported condition-study version {version}")));
        }
        let voltage = r.f64()?;
        let temperature = r.f64()?;
        if !(voltage.is_finite() && voltage > 0.0 && temperature.is_finite()) {
            return Err(r.corrupt(format!(
                "implausible operating condition ({voltage} V, {temperature} C)"
            )));
        }
        let train = Characterization::from_bytes(r.bytes()?).ctx(|| "train block".into())?;
        let fmax = Characterization::from_bytes(r.bytes()?).ctx(|| "fmax block".into())?;
        let num_tests = r.len_prefix(1)?;
        let tests = (0..num_tests)
            .map(|i| Characterization::from_bytes(r.bytes()?).ctx(|| format!("test block {i}")))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(ConditionStudy {
            condition: OperatingCondition::new(voltage, temperature),
            train,
            fmax,
            tests,
        })
    }
}

/// One FU's workloads plus its characterizations across all conditions.
#[derive(Debug)]
pub struct FuStudy {
    /// The functional unit.
    pub fu: FunctionalUnit,
    /// The mixed training workload (random + application slices, like the
    /// paper's 200 K random + 5 % images).
    pub train_workload: Workload,
    /// Test workloads indexed like [`DatasetKind::ALL`].
    pub test_workloads: Vec<Workload>,
    /// Per-condition characterizations.
    pub conditions: Vec<ConditionStudy>,
}

impl FuStudy {
    /// The test workload for one dataset.
    pub fn test_workload(&self, kind: DatasetKind) -> &Workload {
        &self.test_workloads[dataset_index(kind)]
    }
}

/// Index of a dataset inside the study vectors.
pub fn dataset_index(kind: DatasetKind) -> usize {
    DatasetKind::ALL.iter().position(|&k| k == kind).expect("known dataset")
}

/// Stable shard-name tag of a unit (its index in [`FunctionalUnit::ALL`]).
fn fu_tag(fu: FunctionalUnit) -> usize {
    FunctionalUnit::ALL.iter().position(|&f| f == fu).expect("known unit")
}

/// Prints a study failure and exits with its taxonomy exit code — the
/// shared failure path of the infallible [`Study::run`] wrappers every
/// experiment binary uses.
fn exit_with(e: TevotError) -> ! {
    eprintln!("error ({}): {e}", e.kind().label());
    std::process::exit(e.exit_code() as i32)
}

/// The complete DTA study for all four FUs.
#[derive(Debug)]
pub struct Study {
    /// The configuration it was run with.
    pub config: StudyConfig,
    /// The synthetic image corpus (shared with the quality experiments).
    pub corpus: Vec<GrayImage>,
    /// Per-FU studies, indexed like [`FunctionalUnit::ALL`].
    pub fus: Vec<FuStudy>,
}

impl Study {
    /// Runs the whole study: generates workloads, profiles the
    /// applications, and characterizes every (FU, condition, dataset)
    /// combination. Progress goes to stderr.
    ///
    /// Convenience wrapper over [`Self::try_run`] for experiment
    /// binaries: on failure (a corrupt `--resume` directory, an
    /// exhausted I/O retry budget, a fired `--deadline-ms` watchdog) it
    /// prints the error and exits with the taxonomy's stable exit code.
    pub fn run(config: StudyConfig) -> Study {
        Self::try_run(config).unwrap_or_else(|e| exit_with(e))
    }

    /// Runs the study for a single FU (useful for focused experiments);
    /// exits on failure like [`Self::run`].
    pub fn run_single(config: StudyConfig, fu: FunctionalUnit) -> Study {
        Self::try_run_single(config, fu).unwrap_or_else(|e| exit_with(e))
    }

    /// Fallible form of [`Self::run`].
    ///
    /// # Errors
    ///
    /// [`tevot_resil::ErrorKind::Corrupt`] when the `--resume` directory
    /// belongs to a different configuration,
    /// [`tevot_resil::ErrorKind::Cancelled`] when the `--deadline-ms`
    /// watchdog fires (completed conditions stay checkpointed), and
    /// [`tevot_resil::ErrorKind::Io`] when checkpoint writes fail after
    /// retries.
    pub fn try_run(config: StudyConfig) -> Result<Study, TevotError> {
        Self::try_run_for(config, &FunctionalUnit::ALL)
    }

    /// Fallible form of [`Self::run_single`]; see [`Self::try_run`].
    ///
    /// # Errors
    ///
    /// As for [`Self::try_run`].
    pub fn try_run_single(config: StudyConfig, fu: FunctionalUnit) -> Result<Study, TevotError> {
        Self::try_run_for(config, &[fu])
    }

    /// The fingerprint of everything that shapes a study's output:
    /// condition grid, speedups, workload sizes, seed, and unit list.
    /// Two studies may share a `--resume` directory only when their
    /// fingerprints match. Observability knobs (jobs, verbosity, output
    /// paths) are deliberately excluded — they never change results.
    fn fingerprint(config: &StudyConfig, fus: &[FunctionalUnit]) -> u64 {
        let mut w = ByteWriter::new();
        for &v in config.conditions.voltages() {
            w.put_f64(v);
        }
        w.put_u64(u64::MAX); // axis separator
        for &t in config.conditions.temperatures() {
            w.put_f64(t);
        }
        w.put_u64(config.speedups.len() as u64);
        for s in &config.speedups {
            w.put_f64(s.fraction());
        }
        for n in [
            config.train_random,
            config.train_app,
            config.test_len,
            config.corpus_images,
            config.image_size,
            config.num_trees,
            config.characterization_len,
        ] {
            w.put_u64(n as u64);
        }
        w.put_u64(config.seed);
        for &fu in fus {
            w.put_u8(fu_tag(fu) as u8);
        }
        fnv1a64(&w.into_bytes())
    }

    fn try_run_for(config: StudyConfig, fus: &[FunctionalUnit]) -> Result<Study, TevotError> {
        let _study_span = tevot_obs::span!("study");
        let ckpt = match &config.resume {
            Some(dir) => {
                let ckpt = CheckpointDir::open(dir)?;
                ckpt.bind_manifest(Self::fingerprint(&config, fus))?;
                Some(ckpt)
            }
            None => None,
        };
        let token = CancelToken::new();
        let _watchdog = config
            .deadline_ms
            .map(|ms| Watchdog::deadline(&token, std::time::Duration::from_millis(ms)));

        let corpus = synthetic_corpus(
            config.corpus_images,
            config.image_size,
            config.image_size,
            config.seed,
        );
        tevot_obs::info!("profiling application workloads...");
        let ops_needed = config.train_app + config.test_len;
        let (sobel, gauss) = {
            let _span = tevot_obs::span!("profile");
            (
                profile_application(Application::Sobel, &corpus, ops_needed),
                profile_application(Application::Gaussian, &corpus, ops_needed),
            )
        };
        let fus = fus
            .iter()
            .map(|&fu| Self::run_fu(&config, fu, &sobel, &gauss, ckpt.as_ref(), &token))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Study { config, corpus, fus })
    }

    fn run_fu(
        config: &StudyConfig,
        fu: FunctionalUnit,
        sobel: &tevot_imgproc::profile::ApplicationProfile,
        gauss: &tevot_imgproc::profile::ApplicationProfile,
        ckpt: Option<&CheckpointDir>,
        token: &CancelToken,
    ) -> Result<FuStudy, TevotError> {
        let train_random = random_workload(fu, config.train_random, config.seed);
        let sobel_all = sobel.workload(fu);
        let gauss_all = gauss.workload(fu);
        let train = train_random
            .concat(&sobel_all.truncated(config.train_app), "train")
            .concat(&gauss_all.truncated(config.train_app), "train_mixed");

        let test_random = random_workload(fu, config.test_len, config.seed + 1);
        let tail = |w: &Workload, name: &str| {
            let ops = w.operands();
            let start = ops.len().saturating_sub(config.test_len);
            Workload::new(name, ops[start..].to_vec())
        };
        let test_sobel = tail(sobel_all, "sobel_data");
        let test_gauss = tail(gauss_all, "gauss_data");

        let characterizer = Characterizer::new(fu);
        let fmax_suite = characterization_workload(fu, config.characterization_len, config.seed);
        // The "fastest error-free clock frequency" the speedups are
        // applied to is measured the way a DVFS table is built: per
        // *voltage*, at the characterization temperature (25 C), with a
        // suite of random vectors plus directed corner transitions (full
        // carry-propagate runs, massive cancellations, maximum alignment
        // shifts) so the long sensitizable paths are represented. The die
        // then runs at whatever temperature it runs at — the dynamic
        // variation the paper models — so the effective margin (and the
        // error rate) genuinely varies across the (V, T) grid, including
        // the inverse-temperature-dependence corner where a *cold* die at
        // low voltage is the slow one.
        let voltages = config.conditions.voltages();
        let bases: Vec<u64> = tevot_par::map(voltages, |&v| {
            let char_cond = OperatingCondition::new(v, 25.0);
            characterizer.trace(char_cond, &fmax_suite).fastest_error_free_period_ps()
        });
        let base_at =
            |v: f64| bases[voltages.iter().position(|&bv| bv == v).expect("grid voltage")];
        let _span = tevot_obs::span!("characterize");
        let grid: Vec<OperatingCondition> = config.conditions.iter().collect();
        let journal = ckpt.map(|dir| tevot_par::Journal {
            dir,
            prefix: format!("fu{}-", fu_tag(fu)),
            to_bytes: ConditionStudy::to_bytes,
            from_bytes: ConditionStudy::from_bytes,
            is_for: |cs: &ConditionStudy, &cond| cs.condition == cond,
        });
        let conditions = tevot_par::map_journaled(
            &format!("characterize {fu}"),
            journal.as_ref(),
            token,
            &grid,
            |&cond| {
                tevot_obs::debug!("{fu} @ {cond}");
                // The per-condition Fmax measurement still exists offline
                // — it is what the Delay-based baseline calibrates against.
                let periods: Vec<u64> = config
                    .speedups
                    .iter()
                    .map(|s| s.apply_to_period(base_at(cond.voltage())))
                    .collect();
                let char_at =
                    |w: &Workload| characterizer.characterize_with_periods(cond, w, &periods);
                ConditionStudy {
                    condition: cond,
                    train: char_at(&train),
                    fmax: char_at(&fmax_suite),
                    tests: [&test_random, &test_sobel, &test_gauss].map(char_at).to_vec(),
                }
            },
        )?;
        Ok(FuStudy {
            fu,
            train_workload: train,
            test_workloads: vec![test_random, test_sobel, test_gauss],
            conditions,
        })
    }

    /// The study of one FU.
    ///
    /// # Panics
    ///
    /// Panics if the FU was not part of the study.
    pub fn fu(&self, fu: FunctionalUnit) -> &FuStudy {
        self.fus.iter().find(|s| s.fu == fu).expect("FU not studied")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tevot_timing::ConditionGrid;

    fn micro_config() -> StudyConfig {
        StudyConfig {
            conditions: ConditionGrid::new(vec![0.9, 1.0], vec![25.0]),
            train_random: 60,
            train_app: 30,
            test_len: 30,
            corpus_images: 1,
            image_size: 16,
            characterization_len: 40,
            ..StudyConfig::tiny()
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tevot_study_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same_study(a: &Study, b: &Study) {
        assert_eq!(a.fus.len(), b.fus.len());
        for (fa, fb) in a.fus.iter().zip(&b.fus) {
            assert_eq!(fa.fu, fb.fu);
            assert_eq!(fa.conditions.len(), fb.conditions.len());
            for (ca, cb) in fa.conditions.iter().zip(&fb.conditions) {
                assert_eq!(ca.condition, cb.condition);
                assert_eq!(ca.train, cb.train);
                assert_eq!(ca.fmax, cb.fmax);
                assert_eq!(ca.tests, cb.tests);
            }
        }
    }

    #[test]
    fn condition_study_bytes_round_trip() {
        let study = Study::try_run_single(micro_config(), FunctionalUnit::IntAdd).unwrap();
        let cs = &study.fus[0].conditions[0];
        let restored = ConditionStudy::from_bytes(&cs.to_bytes()).unwrap();
        assert_eq!(restored.condition, cs.condition);
        assert_eq!(restored.train, cs.train);
        assert_eq!(restored.fmax, cs.fmax);
        assert_eq!(restored.tests, cs.tests);

        let bytes = cs.to_bytes();
        for cut in [0, 1, 10, bytes.len() - 1] {
            let e = ConditionStudy::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(e.kind(), tevot_resil::ErrorKind::Corrupt, "cut at {cut}");
        }
    }

    #[test]
    fn resumed_study_is_bit_identical_and_skips_shards() {
        let dir = scratch("resume");
        let plain = Study::try_run_single(micro_config(), FunctionalUnit::IntAdd).unwrap();

        let mut config = micro_config();
        config.resume = Some(dir.clone());
        let first = Study::try_run_single(config.clone(), FunctionalUnit::IntAdd).unwrap();
        assert_same_study(&plain, &first);

        let before = tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.get();
        let second = Study::try_run_single(config, FunctionalUnit::IntAdd).unwrap();
        assert_same_study(&plain, &second);
        assert_eq!(
            tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.get(),
            before + plain.fus[0].conditions.len() as u64
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_is_recomputed_bit_identically() {
        let dir = scratch("truncated");
        // One condition, so no shard is restored: the resumed-shard
        // counter another test asserts on stays untouched.
        let mut config = micro_config();
        config.conditions = ConditionGrid::new(vec![0.9], vec![25.0]);
        config.resume = Some(dir.clone());
        let first = Study::try_run_single(config.clone(), FunctionalUnit::IntAdd).unwrap();
        let shard = dir.join("fu0-cond-0.ckpt");
        let intact = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &intact[..intact.len() / 2]).unwrap();

        let resumed = Study::try_run_single(config, FunctionalUnit::IntAdd).unwrap();
        assert_same_study(&first, &resumed);
        assert_eq!(std::fs::read(&shard).unwrap(), intact, "the shard is rewritten exactly");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_dir_of_other_config_is_refused() {
        let dir = scratch("refuse");
        let mut config = micro_config();
        config.resume = Some(dir.clone());
        Study::try_run_single(config.clone(), FunctionalUnit::IntAdd).unwrap();
        config.seed += 1;
        let e = Study::try_run_single(config, FunctionalUnit::IntAdd).unwrap_err();
        assert_eq!(e.kind(), tevot_resil::ErrorKind::Corrupt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_deadline_cancels_and_leaves_resumable_checkpoints() {
        let dir = scratch("deadline");
        let mut config = micro_config();
        config.resume = Some(dir.clone());
        config.deadline_ms = Some(0);
        let e = Study::try_run_single(config.clone(), FunctionalUnit::IntAdd).unwrap_err();
        assert_eq!(e.kind(), tevot_resil::ErrorKind::Cancelled);
        assert_eq!(e.exit_code(), 6);

        // Disarm the deadline and resume: the run completes and matches
        // an uninterrupted study.
        config.deadline_ms = None;
        let resumed = Study::try_run_single(config, FunctionalUnit::IntAdd).unwrap();
        let plain = Study::try_run_single(micro_config(), FunctionalUnit::IntAdd).unwrap();
        assert_same_study(&plain, &resumed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Dynamic timing analysis: the training/ground-truth data factory.
//!
//! This is the first phase of Fig. 2: for one functional unit, one
//! operating condition and one workload, run the delay-annotated gate-level
//! simulation and record every cycle's dynamic delay plus the timing-error
//! ground truth at each clock period of interest. One characterization
//! serves simultaneously as a row source for the training matrices (Eq. 3)
//! and as the simulation ground truth that Eq. 4 scores models against.

use tevot_netlist::fu::FunctionalUnit;
use tevot_netlist::Netlist;
use tevot_resil::checkpoint::CheckpointDir;
use tevot_resil::codec::{ByteReader, ByteWriter};
use tevot_resil::{CancelToken, ResultExt, TevotError};
use tevot_sim::{CycleResult, Engine, LevelizedSimulator, TimingSimulator};
use tevot_timing::{sta, ClockSpeedup, DelayModel, OperatingCondition};

use crate::workload::Workload;

fn fu_tag(fu: FunctionalUnit) -> u8 {
    match fu {
        FunctionalUnit::IntAdd => 0,
        FunctionalUnit::IntMul => 1,
        FunctionalUnit::FpAdd => 2,
        FunctionalUnit::FpMul => 3,
    }
}

fn fu_from_tag(tag: u8) -> Option<FunctionalUnit> {
    match tag {
        0 => Some(FunctionalUnit::IntAdd),
        1 => Some(FunctionalUnit::IntMul),
        2 => Some(FunctionalUnit::FpAdd),
        3 => Some(FunctionalUnit::FpMul),
        _ => None,
    }
}

/// The raw per-cycle simulation record of one (FU, condition, workload)
/// run: every output toggle of every cycle.
///
/// A trace is clock-agnostic — the ground truth for *any* clock period can
/// be derived from it via [`SimTrace::characterization`] without
/// re-simulating, which is how one characterization run serves all three
/// of the paper's clock speedups.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    fu: FunctionalUnit,
    condition: OperatingCondition,
    critical_delay_ps: u64,
    cycles: Vec<CycleResult>,
}

impl SimTrace {
    /// The functional unit simulated.
    pub fn fu(&self) -> FunctionalUnit {
        self.fu
    }

    /// The operating condition of the run.
    pub fn condition(&self) -> OperatingCondition {
        self.condition
    }

    /// The STA critical-path delay (ps) at this condition.
    pub fn critical_delay_ps(&self) -> u64 {
        self.critical_delay_ps
    }

    /// Per-cycle records.
    pub fn cycles(&self) -> &[CycleResult] {
        &self.cycles
    }

    /// The maximum dynamic delay observed, excluding the cold-start cycle.
    ///
    /// This is the workload's **fastest error-free clock period**: clocking
    /// any faster makes at least one cycle erroneous. The paper's 5/10/15 %
    /// speedups are applied to this frequency "so that the output has
    /// timing errors" (Sec. V-A).
    pub fn fastest_error_free_period_ps(&self) -> u64 {
        self.cycles.iter().skip(1).map(CycleResult::dynamic_delay_ps).max().unwrap_or(0)
    }

    /// Extracts a [`Characterization`] (per-cycle delays + ground-truth
    /// error flags) at the given clock periods.
    ///
    /// Error classes derive independently per clock period, so the
    /// per-period loop runs on the `tevot-par` pool; the ordered
    /// reduction keeps the output identical to a serial derivation.
    pub fn characterization(&self, clock_periods_ps: &[u64]) -> Characterization {
        let delays: Vec<u64> = self.cycles.iter().map(CycleResult::dynamic_delay_ps).collect();
        let erroneous = tevot_par::map(clock_periods_ps, |&p| {
            self.cycles.iter().map(|c| c.is_erroneous_at(p)).collect()
        });
        Characterization {
            fu: self.fu,
            condition: self.condition,
            clock_periods_ps: clock_periods_ps.to_vec(),
            critical_delay_ps: self.critical_delay_ps,
            delays_ps: delays,
            erroneous,
        }
    }
}

/// The per-cycle record of one (FU, condition, workload) characterization
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    fu: FunctionalUnit,
    condition: OperatingCondition,
    clock_periods_ps: Vec<u64>,
    critical_delay_ps: u64,
    delays_ps: Vec<u64>,
    erroneous: Vec<Vec<bool>>,
}

impl Characterization {
    /// The functional unit characterized.
    pub fn fu(&self) -> FunctionalUnit {
        self.fu
    }

    /// The operating condition of the run.
    pub fn condition(&self) -> OperatingCondition {
        self.condition
    }

    /// The clock periods (ps) at which ground truth was extracted.
    pub fn clock_periods_ps(&self) -> &[u64] {
        &self.clock_periods_ps
    }

    /// The STA critical-path delay (ps) at this condition — the "fastest
    /// error-free" period the paper's speedups are relative to.
    pub fn critical_delay_ps(&self) -> u64 {
        self.critical_delay_ps
    }

    /// Per-cycle dynamic delays (ps); index 0 is the cold-start cycle.
    pub fn delays_ps(&self) -> &[u64] {
        &self.delays_ps
    }

    /// Ground-truth error flags for clock period `period_idx`, one per
    /// cycle.
    pub fn erroneous(&self, period_idx: usize) -> &[bool] {
        &self.erroneous[period_idx]
    }

    /// Number of simulated cycles.
    pub fn num_cycles(&self) -> usize {
        self.delays_ps.len()
    }

    /// Mean dynamic delay (ps), excluding the cold-start cycle — the
    /// quantity plotted in the paper's Fig. 3.
    pub fn average_delay_ps(&self) -> f64 {
        if self.delays_ps.len() <= 1 {
            return 0.0;
        }
        let tail = &self.delays_ps[1..];
        tail.iter().map(|&d| d as f64).sum::<f64>() / tail.len() as f64
    }

    /// Maximum dynamic delay observed (excluding the cold start) — the
    /// Delay-based baseline's per-condition calibration value.
    pub fn max_dynamic_delay_ps(&self) -> u64 {
        self.delays_ps.iter().skip(1).copied().max().unwrap_or(0)
    }

    /// The timing error rate at clock period `period_idx`, excluding the
    /// cold-start cycle — the TER-based baseline's calibration value and
    /// the quantity injected into applications.
    pub fn timing_error_rate(&self, period_idx: usize) -> f64 {
        let flags = &self.erroneous[period_idx];
        if flags.len() <= 1 {
            return 0.0;
        }
        flags[1..].iter().filter(|&&e| e).count() as f64 / (flags.len() - 1) as f64
    }

    /// Serializes the characterization to the checkpoint payload format:
    /// a deterministic, bit-exact little-endian encoding (floats travel
    /// as raw IEEE-754 bits), so a characterization restored from a
    /// checkpoint shard compares equal to the original.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(1); // payload format version
        w.put_u8(fu_tag(self.fu));
        w.put_f64(self.condition.voltage());
        w.put_f64(self.condition.temperature());
        w.put_u64(self.critical_delay_ps);
        w.put_u64_slice(&self.clock_periods_ps);
        w.put_u64_slice(&self.delays_ps);
        w.put_u64(self.erroneous.len() as u64);
        for flags in &self.erroneous {
            w.put_bools(flags);
        }
        w.into_bytes()
    }

    /// Deserializes a characterization written by [`Self::to_bytes`],
    /// validating structure (the error-flag matrix must match the period
    /// and cycle counts) as well as encoding.
    ///
    /// # Errors
    ///
    /// [`tevot_resil::ErrorKind::Corrupt`] naming the offending byte
    /// offset on truncation, an unknown version or unit tag, a
    /// non-finite condition, or mismatched matrix dimensions.
    pub fn from_bytes(bytes: &[u8]) -> Result<Characterization, TevotError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if version != 1 {
            return Err(r.corrupt(format!("unsupported characterization version {version}")));
        }
        let tag = r.u8()?;
        let fu = fu_from_tag(tag).ok_or_else(|| r.corrupt(format!("unknown unit tag {tag}")))?;
        let voltage = r.f64()?;
        let temperature = r.f64()?;
        if !(voltage.is_finite() && voltage > 0.0 && temperature.is_finite()) {
            return Err(r.corrupt(format!(
                "implausible operating condition ({voltage} V, {temperature} C)"
            )));
        }
        let critical_delay_ps = r.u64()?;
        let clock_periods_ps = r.u64_slice()?;
        let delays_ps = r.u64_slice()?;
        let num_periods = r.len_prefix(1)?;
        if num_periods != clock_periods_ps.len() {
            return Err(r.corrupt(format!(
                "error matrix has {num_periods} periods, header lists {}",
                clock_periods_ps.len()
            )));
        }
        let erroneous = (0..num_periods)
            .map(|_| {
                let flags = r.bools()?;
                if flags.len() != delays_ps.len() {
                    return Err(r.corrupt(format!(
                        "error flags cover {} cycles, delays cover {}",
                        flags.len(),
                        delays_ps.len()
                    )));
                }
                Ok(flags)
            })
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(Characterization {
            fu,
            condition: OperatingCondition::new(voltage, temperature),
            clock_periods_ps,
            critical_delay_ps,
            delays_ps,
            erroneous,
        })
    }
}

/// Characterizes one functional unit across conditions and workloads.
///
/// Owns the unit's netlist; one instance amortizes netlist construction
/// over a whole condition sweep.
///
/// # Examples
///
/// ```
/// use tevot::dta::Characterizer;
/// use tevot::workload::random_workload;
/// use tevot_netlist::fu::FunctionalUnit;
/// use tevot_timing::{ClockSpeedup, OperatingCondition};
///
/// let fu = FunctionalUnit::IntAdd;
/// let ch = Characterizer::new(fu);
/// let work = random_workload(fu, 50, 0);
/// let result = ch.characterize(
///     OperatingCondition::new(0.85, 25.0),
///     &work,
///     &ClockSpeedup::PAPER,
/// );
/// assert_eq!(result.num_cycles(), 50);
/// assert!(result.average_delay_ps() > 0.0);
/// // Overclocking must produce some errors on random data.
/// assert!(result.timing_error_rate(2) > 0.0);
/// ```
#[derive(Debug)]
pub struct Characterizer {
    fu: FunctionalUnit,
    netlist: Netlist,
    delay_model: DelayModel,
    engine: Engine,
}

impl Characterizer {
    /// Builds the characterizer with the default netlist and delay model.
    pub fn new(fu: FunctionalUnit) -> Self {
        Self::with_delay_model(fu, DelayModel::tsmc45_like())
    }

    /// Builds the characterizer with a custom delay model.
    pub fn with_delay_model(fu: FunctionalUnit, delay_model: DelayModel) -> Self {
        Characterizer { fu, netlist: fu.build(), delay_model, engine: Engine::default() }
    }

    /// Uses a caller-supplied netlist (e.g. the carry-lookahead adder
    /// variant for the micro-architecture ablation).
    ///
    /// # Panics
    ///
    /// Panics if the netlist's port widths do not match the unit's.
    pub fn with_netlist(fu: FunctionalUnit, netlist: Netlist, delay_model: DelayModel) -> Self {
        assert_eq!(netlist.inputs().len(), fu.input_bits(), "input width mismatch");
        assert_eq!(netlist.outputs().len(), fu.output_bits(), "output width mismatch");
        Characterizer { fu, netlist, delay_model, engine: Engine::default() }
    }

    /// Selects the simulation engine for subsequent traces. Both engines
    /// produce bit-identical [`SimTrace`]s (pinned by the differential
    /// oracle suite); [`Engine::Levelized`] is the default because sweeps
    /// re-simulate the same netlist hundreds of times.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine traces run on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The functional unit under characterization.
    pub fn fu(&self) -> FunctionalUnit {
        self.fu
    }

    /// The unit's netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The delay model in use.
    pub fn delay_model(&self) -> &DelayModel {
        &self.delay_model
    }

    /// The STA critical-path delay (ps) at `cond`.
    pub fn critical_delay_ps(&self, cond: OperatingCondition) -> u64 {
        let ann = self.delay_model.annotate(&self.netlist, cond);
        sta::run(&self.netlist, &ann).critical_delay_ps()
    }

    /// Simulates `workload` at `cond` and returns the clock-agnostic
    /// per-cycle trace.
    pub fn trace(&self, cond: OperatingCondition, workload: &Workload) -> SimTrace {
        let _span = tevot_obs::span!(
            "dta",
            "{:?} V={} T={} ({} cycles)",
            self.fu,
            cond.voltage(),
            cond.temperature(),
            workload.operands().len()
        );
        let (ann, crit) = {
            let _span = tevot_obs::span!("annotate");
            let ann = self.delay_model.annotate(&self.netlist, cond);
            let crit = sta::run(&self.netlist, &ann).critical_delay_ps();
            (ann, crit)
        };
        let cycles = match self.engine {
            Engine::Event => {
                let _span = tevot_obs::span!("sim", "{} cycles", workload.operands().len());
                let mut sim = TimingSimulator::new(&self.netlist, &ann);
                let mut input = Vec::with_capacity(self.fu.input_bits());
                workload
                    .operands()
                    .iter()
                    .map(|&(a, b)| {
                        input.clear();
                        input.extend((0..32).map(|i| a >> i & 1 == 1));
                        input.extend((0..32).map(|i| b >> i & 1 == 1));
                        sim.step(&input)
                    })
                    .collect()
            }
            Engine::Levelized => {
                let _span = tevot_obs::span!("sim.lev", "{} cycles", workload.operands().len());
                let vectors: Vec<Vec<bool>> = workload
                    .operands()
                    .iter()
                    .map(|&(a, b)| {
                        let mut input = Vec::with_capacity(self.fu.input_bits());
                        input.extend((0..32).map(|i| a >> i & 1 == 1));
                        input.extend((0..32).map(|i| b >> i & 1 == 1));
                        input
                    })
                    .collect();
                LevelizedSimulator::new(&self.netlist, &ann).run(&vectors)
            }
        };
        SimTrace { fu: self.fu, condition: cond, critical_delay_ps: crit, cycles }
    }

    /// Convenience: traces `workload` at `cond` and extracts ground truth
    /// at the clock periods obtained by applying `speedups` to the
    /// workload's own fastest error-free period.
    ///
    /// Multi-dataset experiments should instead call [`Self::trace`] per
    /// dataset and derive a common period basis from the training
    /// workload's trace.
    pub fn characterize(
        &self,
        cond: OperatingCondition,
        workload: &Workload,
        speedups: &[ClockSpeedup],
    ) -> Characterization {
        let _span = tevot_obs::span!("characterize");
        let trace = self.trace(cond, workload);
        let base = trace.fastest_error_free_period_ps();
        let periods: Vec<u64> = speedups.iter().map(|s| s.apply_to_period(base)).collect();
        trace.characterization(&periods)
    }

    /// Traces `workload` at `cond` and extracts ground truth at explicit
    /// clock periods (ps).
    pub fn characterize_with_periods(
        &self,
        cond: OperatingCondition,
        workload: &Workload,
        clock_periods_ps: &[u64],
    ) -> Characterization {
        self.trace(cond, workload).characterization(clock_periods_ps)
    }

    /// Traces `workload` at every condition of a sweep, one `tevot-par`
    /// task per condition (the paper's per-(V, T) characterization is
    /// embarrassingly parallel: each condition re-annotates and
    /// re-simulates the same netlist independently). Results come back
    /// in `conditions` order and are bit-identical to a serial sweep at
    /// any `--jobs` level.
    pub fn trace_sweep(
        &self,
        conditions: &[OperatingCondition],
        workload: &Workload,
    ) -> Vec<SimTrace> {
        let _span = tevot_obs::span!("sweep", "{} conditions", conditions.len());
        let progress = tevot_obs::progress::Progress::new(
            format!("sweep {}", self.fu),
            conditions.len() as u64,
        );
        let traces = tevot_par::map(conditions, |&cond| {
            let trace = self.trace(cond, workload);
            progress.tick();
            trace
        });
        progress.finish();
        traces
    }

    /// Parallel form of [`Self::characterize`]: characterizes `workload`
    /// at every condition (each at the clock periods obtained from its
    /// own fastest error-free period), in `conditions` order.
    pub fn characterize_sweep(
        &self,
        conditions: &[OperatingCondition],
        workload: &Workload,
        speedups: &[ClockSpeedup],
    ) -> Vec<Characterization> {
        self.trace_sweep(conditions, workload)
            .iter()
            .map(|trace| {
                let base = trace.fastest_error_free_period_ps();
                let periods: Vec<u64> = speedups.iter().map(|s| s.apply_to_period(base)).collect();
                trace.characterization(&periods)
            })
            .collect()
    }

    /// The fingerprint of a sweep configuration: every input that shapes
    /// a sweep's output (unit, conditions, speedups, workload operands).
    /// Two sweeps share a checkpoint directory only when their
    /// fingerprints match.
    fn sweep_fingerprint(
        &self,
        conditions: &[OperatingCondition],
        workload: &Workload,
        speedups: &[ClockSpeedup],
    ) -> u64 {
        let mut w = ByteWriter::new();
        w.put_u8(fu_tag(self.fu));
        w.put_u64(conditions.len() as u64);
        for c in conditions {
            w.put_f64(c.voltage());
            w.put_f64(c.temperature());
        }
        w.put_u64(speedups.len() as u64);
        for s in speedups {
            w.put_f64(s.fraction());
        }
        w.put_u64(workload.operands().len() as u64);
        for &(a, b) in workload.operands() {
            w.put_u32(a);
            w.put_u32(b);
        }
        tevot_resil::codec::fnv1a64(&w.into_bytes())
    }

    /// Checkpointed, cancellable form of [`Self::characterize_sweep`]:
    /// every completed condition is committed to `ckpt` as an atomic
    /// shard (`cond-<index>`), and conditions whose shard already exists
    /// and verifies are loaded instead of re-simulated. A run killed (or
    /// cancelled via `token`) mid-sweep therefore resumes from its last
    /// completed condition, and the resumed output is **bit-identical**
    /// to an uninterrupted sweep at any `--jobs` level.
    ///
    /// The directory is bound to a fingerprint of this sweep's
    /// configuration on first use; resuming with a different unit, grid,
    /// speedup set, or workload is refused.
    ///
    /// # Errors
    ///
    /// [`tevot_resil::ErrorKind::Corrupt`] when `ckpt` belongs to a
    /// different configuration, [`tevot_resil::ErrorKind::Cancelled`]
    /// when `token` fires mid-sweep (completed shards stay on disk), and
    /// [`tevot_resil::ErrorKind::Io`] when a shard cannot be written
    /// after retries.
    pub fn characterize_sweep_ckpt(
        &self,
        conditions: &[OperatingCondition],
        workload: &Workload,
        speedups: &[ClockSpeedup],
        ckpt: &CheckpointDir,
        token: &CancelToken,
    ) -> Result<Vec<Characterization>, TevotError> {
        let _span = tevot_obs::span!("sweep.ckpt", "{} conditions", conditions.len());
        ckpt.bind_manifest(self.sweep_fingerprint(conditions, workload, speedups))
            .ctx(|| format!("bind checkpoint directory {}", ckpt.path().display()))?;

        let mut results: Vec<Option<Characterization>> = Vec::with_capacity(conditions.len());
        let mut missing: Vec<usize> = Vec::new();
        for (i, condition) in conditions.iter().enumerate() {
            let restored = ckpt.read_valid(&format!("cond-{i}")).and_then(|payload| {
                match Characterization::from_bytes(&payload) {
                    Ok(c) if c.condition() == *condition => Some(c),
                    Ok(_) => {
                        tevot_obs::warn!("checkpoint: shard cond-{i} is for another condition");
                        None
                    }
                    Err(e) => {
                        tevot_obs::warn!("checkpoint: shard cond-{i} undecodable ({e})");
                        None
                    }
                }
            });
            if restored.is_none() {
                missing.push(i);
            } else {
                tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.incr();
            }
            results.push(restored);
        }
        if !missing.is_empty() && missing.len() < conditions.len() {
            tevot_obs::info!(
                "sweep: resuming, {} of {} conditions already checkpointed",
                conditions.len() - missing.len(),
                conditions.len()
            );
        }

        let progress =
            tevot_obs::progress::Progress::new(format!("sweep {}", self.fu), missing.len() as u64);
        let computed = tevot_par::map_cancellable(token, &missing, |&i| {
            let trace = self.trace(conditions[i], workload);
            let base = trace.fastest_error_free_period_ps();
            let periods: Vec<u64> = speedups.iter().map(|s| s.apply_to_period(base)).collect();
            let c = trace.characterization(&periods);
            let write = ckpt.write(&format!("cond-{i}"), &c.to_bytes());
            progress.tick();
            write.map(|()| c)
        })?;
        progress.finish();
        for (slot, outcome) in missing.into_iter().zip(computed) {
            results[slot] = Some(outcome.ctx(|| format!("checkpoint condition {slot}"))?);
        }
        Ok(results.into_iter().map(|c| c.expect("every condition filled")).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_workload;

    fn quick_char(fu: FunctionalUnit, v: f64, t: f64, n: usize) -> Characterization {
        let ch = Characterizer::new(fu);
        let w = random_workload(fu, n, 7);
        ch.characterize(OperatingCondition::new(v, t), &w, &ClockSpeedup::PAPER)
    }

    #[test]
    fn ground_truth_matches_delay_comparison_mostly() {
        let c = quick_char(FunctionalUnit::IntAdd, 0.9, 25.0, 150);
        // With three guard periods below the critical path, errors happen
        // exactly when the dynamic delay exceeds the period (glitch-restores
        // are possible but rare).
        let mut agree = 0;
        let mut total = 0;
        for (p_idx, &period) in c.clock_periods_ps().iter().enumerate() {
            for (cycle, &d) in c.delays_ps().iter().enumerate() {
                total += 1;
                if (d > period) == c.erroneous(p_idx)[cycle] {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.95, "agreement {agree}/{total}");
    }

    #[test]
    fn deeper_speedup_means_more_errors() {
        let c = quick_char(FunctionalUnit::IntAdd, 0.85, 50.0, 300);
        let t5 = c.timing_error_rate(0);
        let t15 = c.timing_error_rate(2);
        assert!(t15 >= t5, "15% speedup TER {t15} < 5% TER {t5}");
        assert!(t15 > 0.0, "15% overclock should produce errors on random data");
    }

    #[test]
    fn speedup_periods_are_below_critical_path() {
        let c = quick_char(FunctionalUnit::IntAdd, 0.81, 0.0, 20);
        for &p in c.clock_periods_ps() {
            assert!(p < c.critical_delay_ps());
        }
        assert!(c.max_dynamic_delay_ps() <= c.critical_delay_ps());
    }

    #[test]
    fn average_excludes_cold_start() {
        let ch = Characterizer::new(FunctionalUnit::IntAdd);
        // Two identical vectors: cycle 1 has zero toggles, so the average
        // over non-cold cycles is 0 even though cycle 0 settled from zero.
        let w = Workload::new("w", vec![(5, 5), (5, 5)]);
        let c = ch.characterize(OperatingCondition::nominal(), &w, &ClockSpeedup::PAPER);
        assert!(c.delays_ps()[0] > 0);
        assert_eq!(c.average_delay_ps(), 0.0);
    }

    #[test]
    fn characterization_bytes_round_trip_bit_exactly() {
        let c = quick_char(FunctionalUnit::IntMul, 0.88, 75.0, 40);
        let restored = Characterization::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(restored, c);
    }

    #[test]
    fn truncated_characterization_bytes_are_corrupt_not_panic() {
        let bytes = quick_char(FunctionalUnit::IntAdd, 0.9, 25.0, 10).to_bytes();
        for cut in 0..bytes.len() {
            let e = Characterization::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(e.kind(), tevot_resil::ErrorKind::Corrupt, "cut at {cut}");
        }
    }

    #[test]
    fn garbage_characterization_bytes_are_rejected() {
        // Unknown unit tag.
        let mut bytes = quick_char(FunctionalUnit::IntAdd, 0.9, 25.0, 10).to_bytes();
        bytes[1] = 200;
        assert!(Characterization::from_bytes(&bytes).is_err());
        // Non-finite voltage.
        let mut bytes = quick_char(FunctionalUnit::IntAdd, 0.9, 25.0, 10).to_bytes();
        bytes[2..10].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let e = Characterization::from_bytes(&bytes).unwrap_err();
        assert!(e.to_string().contains("implausible operating condition"), "{e}");
    }

    #[test]
    fn checkpointed_sweep_resumes_bit_identically() {
        use tevot_resil::checkpoint::CheckpointDir;
        use tevot_resil::CancelToken;

        let dir = std::env::temp_dir().join(format!("tevot_dta_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ch = Characterizer::new(FunctionalUnit::IntAdd);
        let w = random_workload(FunctionalUnit::IntAdd, 30, 11);
        let conds: Vec<OperatingCondition> = [(0.85, 0.0), (0.9, 50.0), (1.0, 100.0)]
            .map(|(v, t)| OperatingCondition::new(v, t))
            .into();
        let plain = ch.characterize_sweep(&conds, &w, &ClockSpeedup::PAPER);

        let ckpt = CheckpointDir::open(&dir).unwrap();
        let token = CancelToken::new();
        let first =
            ch.characterize_sweep_ckpt(&conds, &w, &ClockSpeedup::PAPER, &ckpt, &token).unwrap();
        assert_eq!(first, plain);
        // Second run restores every condition from shards.
        let before = tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.get();
        let second =
            ch.characterize_sweep_ckpt(&conds, &w, &ClockSpeedup::PAPER, &ckpt, &token).unwrap();
        assert_eq!(second, plain);
        assert_eq!(tevot_obs::metrics::RESIL_CKPT_SHARDS_RESUMED.get(), before + 3);

        // A different workload must be refused, not silently mixed in.
        let other = random_workload(FunctionalUnit::IntAdd, 30, 12);
        let e = ch
            .characterize_sweep_ckpt(&conds, &other, &ClockSpeedup::PAPER, &ckpt, &token)
            .unwrap_err();
        assert_eq!(e.kind(), tevot_resil::ErrorKind::Corrupt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn both_engines_trace_bit_identically() {
        let fu = FunctionalUnit::IntAdd;
        let w = random_workload(fu, 80, 5);
        let cond = OperatingCondition::new(0.85, 50.0);
        let lev = Characterizer::new(fu).trace(cond, &w);
        let ev = Characterizer::new(fu).with_engine(Engine::Event).trace(cond, &w);
        assert_eq!(lev, ev);
        assert_eq!(Characterizer::new(fu).engine(), Engine::Levelized);
    }

    #[test]
    fn clock_edge_boundary_error_iff_delay_exceeds_period() {
        // Paper semantics (Sec. III): a cycle is erroneous iff its dynamic
        // delay exceeds the clock period — a toggle landing *exactly* on
        // the edge is captured. Pin the boundary through the full
        // trace → characterization path, not just CycleResult.
        let fu = FunctionalUnit::IntAdd;
        let ch = Characterizer::new(fu);
        let trace = ch.trace(OperatingCondition::nominal(), &random_workload(fu, 20, 9));
        let d = trace.cycles()[3].dynamic_delay_ps();
        assert!(d > 0, "random operands must toggle outputs");
        let c = trace.characterization(&[d - 1, d, d + 1]);
        assert!(c.erroneous(0)[3], "period just below the delay must err");
        assert!(!c.erroneous(1)[3], "a toggle exactly at the edge is captured");
        assert!(!c.erroneous(2)[3]);
        assert_eq!(c.erroneous(1)[3], trace.cycles()[3].is_erroneous_at(d));
        assert_eq!(
            trace.cycles()[3].sample_at(d),
            trace.cycles()[3].settled_outputs(),
            "sampling at the edge sees the settled word when delay == period"
        );
    }

    #[test]
    fn custom_netlist_adder_style() {
        use tevot_netlist::fu::AdderStyle;
        let fu = FunctionalUnit::IntAdd;
        let rca = fu.build_with_adder_style(AdderStyle::RippleCarry);
        let ch = Characterizer::with_netlist(fu, rca, DelayModel::tsmc45_like());
        let w = random_workload(fu, 50, 3);
        let c = ch.characterize(OperatingCondition::nominal(), &w, &ClockSpeedup::PAPER);
        assert!(c.average_delay_ps() > 0.0);
        // The default (carry-lookahead) critical path is shorter than the
        // ripple-carry variant's.
        let cla = Characterizer::new(fu);
        assert!(cla.critical_delay_ps(OperatingCondition::nominal()) < c.critical_delay_ps());
    }
}

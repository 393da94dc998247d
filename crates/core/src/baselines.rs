//! The baseline error models of Sec. IV-C / Table III.
//!
//! * [`DelayBased`] — predicts an error whenever the clock period is below
//!   the maximum delay measured offline at that condition ([16], [4],
//!   [17]): workload-oblivious and therefore maximally pessimistic under
//!   overclocking.
//! * [`TerBased`] — predicts errors stochastically at the timing error
//!   rate measured offline ([19], [8]): the model used throughout
//!   approximate computing.
//! * TEVoT-NH — TEVoT trained without the history input: obtained by
//!   training a [`TevotModel`](crate::TevotModel) with
//!   [`FeatureEncoding::without_history`](crate::FeatureEncoding).
//!
//! All predictors (including TEVoT itself) answer through the common
//! [`ErrorPredictor`] trait so the evaluation and error-injection machinery
//! treats them interchangeably.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tevot_timing::OperatingCondition;

use crate::dta::Characterization;
use crate::model::TevotModel;

/// A model that classifies one FU cycle as timing-correct or
/// timing-erroneous.
///
/// `previous`/`current` are the operand pairs of cycles `t-1` and `t`
/// (workload context); baselines that ignore the workload simply don't
/// read them. The receiver is `&mut` because the TER-based baseline draws
/// from an internal RNG.
pub trait ErrorPredictor {
    /// Predicts whether the cycle `previous -> current` at `cond`, clocked
    /// with `clock_ps`, is timing-erroneous.
    fn predict_error(
        &mut self,
        cond: OperatingCondition,
        clock_ps: u64,
        current: (u32, u32),
        previous: (u32, u32),
    ) -> bool;

    /// Display name for result tables.
    fn name(&self) -> &'static str;
}

impl ErrorPredictor for TevotModel {
    fn predict_error(
        &mut self,
        cond: OperatingCondition,
        clock_ps: u64,
        current: (u32, u32),
        previous: (u32, u32),
    ) -> bool {
        TevotModel::predict_error(self, cond, clock_ps, current, previous)
    }

    fn name(&self) -> &'static str {
        if self.encoding().has_history() {
            "TEVoT"
        } else {
            "TEVoT-NH"
        }
    }
}

fn same_condition(a: OperatingCondition, b: OperatingCondition) -> bool {
    (a.voltage() - b.voltage()).abs() < 5e-4 && (a.temperature() - b.temperature()).abs() < 0.5
}

/// The Delay-based baseline: per-condition maximum delay, measured offline.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayBased {
    entries: Vec<(OperatingCondition, u64)>,
}

impl DelayBased {
    /// Calibrates from offline characterization runs (one or more per
    /// condition; the maximum across runs at the same condition wins).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn calibrate<'a>(runs: impl IntoIterator<Item = &'a Characterization>) -> Self {
        let mut entries: Vec<(OperatingCondition, u64)> = Vec::new();
        for ch in runs {
            let max = ch.max_dynamic_delay_ps();
            match entries.iter_mut().find(|(c, _)| same_condition(*c, ch.condition())) {
                Some((_, m)) => *m = (*m).max(max),
                None => entries.push((ch.condition(), max)),
            }
        }
        assert!(!entries.is_empty(), "no characterization runs supplied");
        DelayBased { entries }
    }

    /// The calibrated maximum delay at `cond`.
    ///
    /// # Panics
    ///
    /// Panics if the condition was never characterized — a baseline can
    /// only answer at its calibration points, exactly as in the paper.
    pub fn max_delay_ps(&self, cond: OperatingCondition) -> u64 {
        self.entries
            .iter()
            .find(|(c, _)| same_condition(*c, cond))
            .unwrap_or_else(|| panic!("condition {cond} was not calibrated"))
            .1
    }
}

impl ErrorPredictor for DelayBased {
    fn predict_error(
        &mut self,
        cond: OperatingCondition,
        clock_ps: u64,
        _current: (u32, u32),
        _previous: (u32, u32),
    ) -> bool {
        clock_ps < self.max_delay_ps(cond)
    }

    fn name(&self) -> &'static str {
        "Delay-based"
    }
}

/// The TER-based baseline: per-(condition, clock) timing error rates
/// measured offline, replayed as Bernoulli draws.
#[derive(Debug, Clone, PartialEq)]
pub struct TerBased {
    entries: Vec<(OperatingCondition, Vec<(u64, f64)>)>,
    rng: SmallRng,
}

impl TerBased {
    /// Calibrates from offline characterization runs; `seed` fixes the
    /// Bernoulli stream for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn calibrate<'a>(runs: impl IntoIterator<Item = &'a Characterization>, seed: u64) -> Self {
        let mut entries: Vec<(OperatingCondition, Vec<(u64, f64)>)> = Vec::new();
        for ch in runs {
            let rates: Vec<(u64, f64)> = ch
                .clock_periods_ps()
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, ch.timing_error_rate(i)))
                .collect();
            match entries.iter_mut().find(|(c, _)| same_condition(*c, ch.condition())) {
                Some((_, existing)) => existing.extend(rates),
                None => entries.push((ch.condition(), rates)),
            }
        }
        assert!(!entries.is_empty(), "no characterization runs supplied");
        // Normalize every rate list once: ascending by period, one entry
        // per period (the stable sort keeps run order among equals, so
        // the earliest calibration run wins a duplicate period). The
        // lookups below rely on this ordering to binary-search and to
        // interpolate between *bracketing* periods.
        for (_, rates) in &mut entries {
            rates.sort_by_key(|&(p, _)| p);
            rates.dedup_by_key(|&mut (p, _)| p);
        }
        TerBased { entries, rng: SmallRng::seed_from_u64(seed) }
    }

    /// The calibrated clock/TER curve answering for `cond`.
    ///
    /// An exactly calibrated condition is used when available; otherwise
    /// the **nearest** calibrated condition answers (distance measured
    /// with voltage in ~10 mV units and temperature in ~10 °C units so
    /// the two axes weigh comparably across the paper's 0.8–1.0 V /
    /// 0–80 °C grid; ties resolve to the earliest calibration run).
    /// Earlier revisions panicked on uncalibrated conditions, which took
    /// down whole sweeps over off-grid points.
    fn rates_for(&self, cond: OperatingCondition) -> &[(u64, f64)] {
        let (_, rates) = self
            .entries
            .iter()
            .find(|(c, _)| same_condition(*c, cond))
            .or_else(|| {
                self.entries.iter().min_by(|(a, _), (b, _)| {
                    condition_distance(*a, cond).total_cmp(&condition_distance(*b, cond))
                })
            })
            .expect("calibration has at least one condition");
        rates
    }

    /// The calibrated TER at `(cond, clock_ps)`, interpolated linearly
    /// between the two bracketing calibrated clock periods.
    ///
    /// Exactly calibrated periods return their exact measured rate;
    /// periods outside the calibrated range clamp to the nearest end of
    /// the curve. Guardband sweeps that query between calibration points
    /// therefore see a piecewise-linear TER curve instead of the
    /// staircase artifacts a nearest-point snap would produce. Off-grid
    /// conditions answer from the nearest calibrated condition (see
    /// `rates_for`).
    pub fn ter(&self, cond: OperatingCondition, clock_ps: u64) -> f64 {
        let rates = self.rates_for(cond);
        match rates.binary_search_by_key(&clock_ps, |&(p, _)| p) {
            Ok(i) => rates[i].1,
            Err(0) => rates[0].1,
            Err(i) if i == rates.len() => rates[rates.len() - 1].1,
            Err(i) => {
                let (p0, r0) = rates[i - 1];
                let (p1, r1) = rates[i];
                r0 + (r1 - r0) * (clock_ps - p0) as f64 / (p1 - p0) as f64
            }
        }
    }
}

/// Squared distance between conditions with voltage in 10 mV units and
/// temperature in 10 °C units, so 10 mV and 10 °C are "equally far".
fn condition_distance(a: OperatingCondition, b: OperatingCondition) -> f64 {
    let dv = (a.voltage() - b.voltage()) / 0.01;
    let dt = (a.temperature() - b.temperature()) / 10.0;
    dv * dv + dt * dt
}

impl ErrorPredictor for TerBased {
    fn predict_error(
        &mut self,
        cond: OperatingCondition,
        clock_ps: u64,
        _current: (u32, u32),
        _previous: (u32, u32),
    ) -> bool {
        let ter = self.ter(cond, clock_ps);
        self.rng.gen::<f64>() < ter
    }

    fn name(&self) -> &'static str {
        "TER-based"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dta::Characterizer;
    use crate::workload::random_workload;
    use tevot_netlist::fu::FunctionalUnit;
    use tevot_timing::ClockSpeedup;

    fn chars() -> Vec<Characterization> {
        let fu = FunctionalUnit::IntAdd;
        let ch = Characterizer::new(fu);
        let w = random_workload(fu, 200, 11);
        [(0.85, 0.0), (0.95, 50.0)]
            .iter()
            .map(|&(v, t)| ch.characterize(OperatingCondition::new(v, t), &w, &ClockSpeedup::PAPER))
            .collect()
    }

    #[test]
    fn delay_based_is_pessimistic_under_overclocking() {
        let cs = chars();
        let mut db = DelayBased::calibrate(&cs);
        let cond = cs[0].condition();
        // Any clock below the measured max delay -> always "error".
        for &p in cs[0].clock_periods_ps() {
            if p < db.max_delay_ps(cond) {
                assert!(db.predict_error(cond, p, (1, 1), (0, 0)));
            }
        }
        // A clock above the max delay -> never "error".
        let relaxed = db.max_delay_ps(cond) + 100;
        assert!(!db.predict_error(cond, relaxed, (1, 1), (0, 0)));
        assert_eq!(ErrorPredictor::name(&db), "Delay-based");
    }

    #[test]
    fn ter_based_matches_calibrated_rate() {
        let cs = chars();
        let cond = cs[0].condition();
        let period = cs[0].clock_periods_ps()[2];
        let expect = cs[0].timing_error_rate(2);
        let mut tb = TerBased::calibrate(&cs, 99);
        let n = 4000;
        let hits = (0..n).filter(|_| tb.predict_error(cond, period, (0, 0), (0, 0))).count();
        let freq = hits as f64 / n as f64;
        assert!(
            (freq - expect).abs() < 0.05,
            "Bernoulli frequency {freq} vs calibrated TER {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "was not calibrated")]
    fn unknown_condition_panics() {
        let cs = chars();
        let db = DelayBased::calibrate(&cs);
        let _ = db.max_delay_ps(OperatingCondition::new(0.99, 100.0));
    }

    #[test]
    fn ter_falls_back_to_nearest_calibrated_condition() {
        let cs = chars(); // calibrated at (0.85 V, 0 °C) and (0.95 V, 50 °C)
        let tb = TerBased::calibrate(&cs, 7);
        let period = cs[0].clock_periods_ps()[1];
        // Slightly off the first grid point -> answered by the first run.
        let near_first = OperatingCondition::new(0.86, 5.0);
        assert_eq!(tb.ter(near_first, period), tb.ter(cs[0].condition(), period));
        // Clearly nearer the second grid point -> answered by the second.
        let near_second = OperatingCondition::new(0.97, 60.0);
        let second_period = cs[1].clock_periods_ps()[1];
        assert_eq!(tb.ter(near_second, second_period), cs[1].timing_error_rate(1));
        // And prediction through the trait no longer panics off-grid.
        let mut tb = tb;
        let _ = tb.predict_error(OperatingCondition::new(1.2, 99.0), period, (0, 0), (0, 0));
    }

    #[test]
    fn ter_interpolates_between_calibrated_periods() {
        let cs = chars();
        let cond = cs[0].condition();
        let tb = TerBased::calibrate(&cs, 3);
        // Exact calibrated periods answer with their measured rate.
        for (i, &p) in cs[0].clock_periods_ps().iter().enumerate() {
            assert_eq!(tb.ter(cond, p), cs[0].timing_error_rate(i));
        }
        // Pick two adjacent calibrated periods with distinct rates (the
        // speedup sweep is monotone, so some pair must differ unless the
        // whole curve is flat).
        let mut periods: Vec<u64> = cs[0].clock_periods_ps().to_vec();
        periods.sort_unstable();
        for pair in periods.windows(2) {
            let (p0, p1) = (pair[0], pair[1]);
            let (r0, r1) = (tb.ter(cond, p0), tb.ter(cond, p1));
            if p1 - p0 < 2 {
                continue;
            }
            let mid = p0 + (p1 - p0) / 2;
            let expect = r0 + (r1 - r0) * (mid - p0) as f64 / (p1 - p0) as f64;
            let got = tb.ter(cond, mid);
            assert!(
                (got - expect).abs() < 1e-12,
                "midpoint {mid} between {p0}/{p1}: {got} vs {expect}"
            );
            // Interpolation is bracketed by the endpoint rates.
            let (lo, hi) = (r0.min(r1), r0.max(r1));
            assert!((lo..=hi).contains(&got));
        }
        // Outside the calibrated range the curve clamps to its ends.
        let (min_p, max_p) = (periods[0], periods[periods.len() - 1]);
        assert_eq!(tb.ter(cond, min_p / 2), tb.ter(cond, min_p));
        assert_eq!(tb.ter(cond, max_p + 10_000), tb.ter(cond, max_p));
    }

    #[test]
    fn duplicate_conditions_merge() {
        let cs = chars();
        let doubled: Vec<&Characterization> = cs.iter().chain(cs.iter()).collect();
        let db = DelayBased::calibrate(doubled);
        assert_eq!(db.max_delay_ps(cs[0].condition()), cs[0].max_dynamic_delay_ps());
    }
}

//! Train-time reference statistics, persisted inside the model file for
//! online drift detection.
//!
//! TEVoT's value is predicting timing errors *under shifting (V, T)* —
//! which makes the training sweep's own (V, T) coverage the natural
//! drift reference: if live traffic's operating conditions (or the
//! model's own prediction distribution) stop resembling the sweep, the
//! model is extrapolating and its error bars are off. At train time
//! [`ReferenceStats::collect`] snapshots three fixed-bin histograms —
//! requested voltage, temperature, and the training-label delay
//! distribution — and `TevotModel::save` appends them to the model
//! file as a versioned `TVRS` block. At serve time, `GET /watch` bins
//! live request features against these references and reports the
//! Population Stability Index (see [`tevot_obs::drift`]).
//!
//! Voltage and temperature use fixed global specs (so every model bins
//! identically and the serve side needs no negotiation); the delay spec
//! derives from the observed training labels.

use std::io::{Read, Write};

use tevot_ml::persist::LoadModelError;
use tevot_obs::drift::{HistSpec, ReferenceHist};
use tevot_timing::OperatingCondition;

/// Magic prefix of the serialized reference block.
pub const REFERENCE_MAGIC: &[u8; 4] = b"TVRS";
/// Current reference-block format version.
pub const REFERENCE_VERSION: u32 = 1;
/// Bins per reference histogram.
pub const REFERENCE_BINS: usize = 16;

/// The fixed global voltage binning: 0.5–1.3 V in 50 mV bins, covering
/// every grid the characterizer accepts (out-of-range clamps to edges).
pub fn voltage_spec() -> HistSpec {
    HistSpec::new(0.5, 1.3, REFERENCE_BINS)
}

/// The fixed global temperature binning: −20–140 °C in 10 °C bins.
pub fn temperature_spec() -> HistSpec {
    HistSpec::new(-20.0, 140.0, REFERENCE_BINS)
}

/// Reference histograms snapshotted at train time.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceStats {
    /// Training-sweep voltage distribution (spec: [`voltage_spec`]).
    pub voltage: ReferenceHist,
    /// Training-sweep temperature distribution (spec:
    /// [`temperature_spec`]).
    pub temperature: ReferenceHist,
    /// Training-label dynamic-delay distribution, picoseconds (spec
    /// derived from the observed labels).
    pub delay_ps: ReferenceHist,
}

impl ReferenceStats {
    /// Snapshots the references from the training sweep: `conditions`
    /// weighted by `rows_per_condition` (each grid point contributes one
    /// training row per workload cycle) and the label delays.
    ///
    /// # Panics
    ///
    /// Panics when `delays_ps` is empty or `conditions` is empty.
    pub fn collect(conditions: &[OperatingCondition], delays_ps: &[f64]) -> ReferenceStats {
        assert!(!conditions.is_empty(), "reference needs at least one condition");
        assert!(!delays_ps.is_empty(), "reference needs at least one delay label");
        let voltage =
            ReferenceHist::collect(voltage_spec(), conditions.iter().map(|c| c.voltage()));
        let temperature =
            ReferenceHist::collect(temperature_spec(), conditions.iter().map(|c| c.temperature()));
        let max = delays_ps.iter().copied().fold(f64::MIN, f64::max);
        // Headroom above the largest training delay, so moderately
        // slower live predictions still land in interior bins.
        let hi = (max * 1.25).max(1.0);
        let delay_ps = ReferenceHist::collect(
            HistSpec::new(0.0, hi, REFERENCE_BINS),
            delays_ps.iter().copied(),
        );
        ReferenceStats { voltage, temperature, delay_ps }
    }

    /// Serializes the block: `TVRS`, version, then the three histograms.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, mut writer: impl Write) -> std::io::Result<()> {
        writer.write_all(REFERENCE_MAGIC)?;
        writer.write_all(&REFERENCE_VERSION.to_le_bytes())?;
        for hist in [&self.voltage, &self.temperature, &self.delay_ps] {
            writer.write_all(&hist.spec.lo.to_le_bytes())?;
            writer.write_all(&hist.spec.hi.to_le_bytes())?;
            writer.write_all(&(hist.spec.bins as u32).to_le_bytes())?;
            for &count in &hist.counts {
                writer.write_all(&count.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserializes a block written by [`Self::write_to`].
    ///
    /// # Errors
    ///
    /// [`LoadModelError`] on truncation, a bad magic/version, or an
    /// implausible histogram shape.
    pub fn read_from(mut reader: impl Read) -> Result<ReferenceStats, LoadModelError> {
        let read_exact = |reader: &mut dyn Read, buf: &mut [u8]| -> Result<(), LoadModelError> {
            reader.read_exact(buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    LoadModelError::format(0, "truncated reference block")
                } else {
                    e.into()
                }
            })
        };
        let mut magic = [0u8; 4];
        read_exact(&mut reader, &mut magic)?;
        if &magic != REFERENCE_MAGIC {
            return Err(LoadModelError::format(0, "bad reference-block magic"));
        }
        let mut word = [0u8; 4];
        read_exact(&mut reader, &mut word)?;
        let version = u32::from_le_bytes(word);
        if version != REFERENCE_VERSION {
            return Err(LoadModelError::format(
                4,
                format!("unsupported reference-block version {version}"),
            ));
        }
        let mut hist = |_: usize| -> Result<ReferenceHist, LoadModelError> {
            let mut f = [0u8; 8];
            read_exact(&mut reader, &mut f)?;
            let lo = f64::from_le_bytes(f);
            read_exact(&mut reader, &mut f)?;
            let hi = f64::from_le_bytes(f);
            let mut word = [0u8; 4];
            read_exact(&mut reader, &mut word)?;
            let bins = u32::from_le_bytes(word) as usize;
            if !(lo.is_finite() && hi.is_finite() && hi > lo) || bins == 0 || bins > 4096 {
                return Err(LoadModelError::format(
                    0,
                    format!("implausible reference histogram ([{lo}, {hi}], {bins} bins)"),
                ));
            }
            let mut counts = Vec::with_capacity(bins);
            let mut c = [0u8; 8];
            for _ in 0..bins {
                read_exact(&mut reader, &mut c)?;
                counts.push(u64::from_le_bytes(c));
            }
            Ok(ReferenceHist { spec: HistSpec::new(lo, hi, bins), counts })
        };
        let voltage = hist(0)?;
        let temperature = hist(1)?;
        let delay_ps = hist(2)?;
        Ok(ReferenceStats { voltage, temperature, delay_ps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ReferenceStats {
        let conditions =
            vec![OperatingCondition::new(0.9, 25.0), OperatingCondition::new(1.0, 75.0)];
        let delays: Vec<f64> = (1..=100).map(f64::from).collect();
        ReferenceStats::collect(&conditions, &delays)
    }

    #[test]
    fn collect_bins_conditions_and_delays() {
        let s = stats();
        assert_eq!(s.voltage.total(), 2);
        assert_eq!(s.temperature.total(), 2);
        assert_eq!(s.delay_ps.total(), 100);
        // Delay spec leaves headroom above the max label.
        assert_eq!(s.delay_ps.spec.hi, 125.0);
        // Distinct voltages land in distinct bins.
        assert_ne!(s.voltage.spec.bin(0.9), s.voltage.spec.bin(0.7));
    }

    #[test]
    fn round_trips_through_bytes() {
        let s = stats();
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        let loaded = ReferenceStats::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded, s);
    }

    #[test]
    fn rejects_corrupt_blocks() {
        let s = stats();
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        // Truncation.
        assert!(ReferenceStats::read_from(&buf[..buf.len() - 3]).is_err());
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(ReferenceStats::read_from(bad.as_slice()).is_err());
        // Bad version.
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(ReferenceStats::read_from(bad.as_slice()).is_err());
        // Implausible bin count.
        let mut bad = buf;
        bad[8 + 16] = 0xff;
        bad[8 + 17] = 0xff;
        assert!(ReferenceStats::read_from(bad.as_slice()).is_err());
    }
}

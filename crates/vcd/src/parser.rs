//! VCD parsing.

use std::collections::HashMap;

/// One parsed value change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Change {
    /// Absolute time in the file's timescale units.
    pub time: u64,
    /// Index into [`Vcd::signals`].
    pub signal: usize,
    /// New value.
    pub value: bool,
}

/// A parsed value change dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vcd {
    timescale: String,
    signals: Vec<String>,
    initial: Vec<bool>,
    changes: Vec<Change>,
}

impl Vcd {
    /// The declared timescale string (e.g. `"1ps"`).
    pub fn timescale(&self) -> &str {
        &self.timescale
    }

    /// Declared signal names, in declaration order.
    pub fn signals(&self) -> &[String] {
        &self.signals
    }

    /// Index of the signal called `name`.
    pub fn signal_index(&self, name: &str) -> Option<usize> {
        self.signals.iter().position(|s| s == name)
    }

    /// Initial (`$dumpvars`) value of each signal.
    pub fn initial_values(&self) -> &[bool] {
        &self.initial
    }

    /// All value changes in file order (time-sorted by construction).
    pub fn changes(&self) -> &[Change] {
        &self.changes
    }
}

/// An error produced while parsing a VCD document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVcdError {
    line: usize,
    message: String,
}

impl ParseVcdError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseVcdError { line, message: message.into() }
    }
}

impl std::fmt::Display for ParseVcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid VCD at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseVcdError {}

/// Parses a VCD document (the single-bit scalar subset emitted by
/// [`crate::VcdWriter`] and by typical gate-level simulators).
///
/// # Errors
///
/// Returns [`ParseVcdError`] on malformed declarations, unknown identifier
/// codes, non-numeric timestamps, four-state (`x`/`z`) values, and vector
/// (`b.../r...`) value changes — the last two with dedicated messages
/// instead of the generic "unrecognized line".
pub fn parse_vcd(text: &str) -> Result<Vcd, ParseVcdError> {
    // Failpoint `vcd.parse`: the chaos harness injects a failure here to
    // prove callers survive an unparsable dump.
    if let Err(e) = tevot_resil::fail::eval("vcd.parse") {
        return Err(ParseVcdError::new(0, format!("injected failure: {e}")));
    }
    let mut timescale = String::from("1ps");
    let mut signals: Vec<String> = Vec::new();
    let mut by_code: HashMap<&str, usize> = HashMap::new();
    let mut initial: Vec<bool> = Vec::new();
    let mut changes = Vec::new();
    let mut time: u64 = 0;
    let mut in_dumpvars = false;
    let mut header_done = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let err = |m: String| ParseVcdError::new(lineno + 1, m);
        if let Some(rest) = line.strip_prefix("$timescale") {
            timescale = rest.trim().trim_end_matches("$end").trim().to_string();
        } else if let Some(rest) = line.strip_prefix("$var") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            // wire 1 <code> <name> $end
            if parts.len() < 4 {
                return Err(err(format!("malformed $var: {line}")));
            }
            let code = parts[2];
            let name = parts[3];
            let idx = signals.len();
            signals.push(name.to_string());
            initial.push(false);
            // Codes borrow from `text`, which outlives the loop.
            let code_start = rest.find(code).expect("code is a substring");
            let code = &rest[code_start..code_start + code.len()];
            by_code.insert(code, idx);
        } else if line.starts_with("$dumpvars") {
            in_dumpvars = true;
        } else if line.starts_with("$enddefinitions") {
            header_done = true;
        } else if line.starts_with("$end") {
            in_dumpvars = false;
        } else if line.starts_with("$scope") || line.starts_with("$upscope") {
            // Flat scope handling: names are unique in our dumps.
        } else if let Some(ts) = line.strip_prefix('#') {
            let t: u64 = ts.trim().parse().map_err(|_| err(format!("bad timestamp {ts}")))?;
            time = t;
        } else if let Some(value) = match line.as_bytes().first() {
            Some(b'0') => Some(false),
            Some(b'1') => Some(true),
            Some(b'x' | b'X' | b'z' | b'Z') => {
                return Err(err(format!(
                    "four-state value change {line:?}: only two-state (0/1) dumps are supported"
                )));
            }
            Some(b'b' | b'B' | b'r' | b'R') => {
                return Err(err(format!(
                    "vector value change {line:?}: only scalar (single-bit) dumps are supported"
                )));
            }
            _ => None,
        } {
            if !header_done && !in_dumpvars {
                return Err(err("value change before $enddefinitions".into()));
            }
            let code = line[1..].trim();
            let &idx = by_code
                .get(code)
                .ok_or_else(|| err(format!("unknown identifier code {code:?}")))?;
            if in_dumpvars {
                initial[idx] = value;
            } else {
                changes.push(Change { time, signal: idx, value });
            }
        } else {
            return Err(err(format!("unrecognized line: {line}")));
        }
    }

    tevot_obs::metrics::VCD_CHANGES_PARSED.add(changes.len() as u64);
    Ok(Vcd { timescale, signals, initial, changes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VcdWriter;

    #[test]
    fn writer_parser_roundtrip() {
        let mut w = VcdWriter::new("tb");
        let a = w.declare_wire("a");
        let b = w.declare_wire("sum_0");
        w.begin_dump(&[true, false]);
        w.change(100, a, false);
        w.change(100, b, true);
        w.change(250, b, false);
        let vcd = parse_vcd(&w.finish()).unwrap();
        assert_eq!(vcd.timescale(), "1ps");
        assert_eq!(vcd.signals(), &["a".to_string(), "sum_0".to_string()]);
        assert_eq!(vcd.initial_values(), &[true, false]);
        assert_eq!(
            vcd.changes(),
            &[
                Change { time: 100, signal: 0, value: false },
                Change { time: 100, signal: 1, value: true },
                Change { time: 250, signal: 1, value: false },
            ]
        );
        assert_eq!(vcd.signal_index("sum_0"), Some(1));
        assert_eq!(vcd.signal_index("nope"), None);
    }

    #[test]
    fn many_signals_roundtrip() {
        let mut w = VcdWriter::new("wide");
        let ids: Vec<_> = (0..200).map(|i| w.declare_wire(format!("s{i}"))).collect();
        w.begin_dump(&[false; 200]);
        for (i, &id) in ids.iter().enumerate() {
            w.change(10 + i as u64, id, true);
        }
        let vcd = parse_vcd(&w.finish()).unwrap();
        assert_eq!(vcd.signals().len(), 200);
        assert_eq!(vcd.changes().len(), 200);
        assert!(vcd.changes().iter().all(|c| c.value));
    }

    #[test]
    fn rejects_unknown_code() {
        let text = "$timescale 1ps $end\n$enddefinitions $end\n#5\n1Z\n";
        let err = parse_vcd(text).unwrap_err();
        assert!(err.to_string().contains("unknown identifier"));
    }

    #[test]
    fn rejects_four_state_values_with_a_dedicated_message() {
        for v in ["x!", "X!", "z!", "Z!"] {
            let text = format!("$enddefinitions $end\n#5\n{v}\n");
            let err = parse_vcd(&text).unwrap_err();
            assert!(err.to_string().contains("four-state"), "for {v}: {err}");
        }
    }

    #[test]
    fn rejects_vector_changes_with_a_dedicated_message() {
        let text = "$enddefinitions $end\n#5\nb1010 !\n";
        let err = parse_vcd(text).unwrap_err();
        assert!(err.to_string().contains("vector value change"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn rejects_bad_timestamp() {
        let text = "$enddefinitions $end\n#xyz\n";
        assert!(parse_vcd(text).is_err());
    }

    #[test]
    fn parse_failpoint_injects_an_error() {
        let _guard = tevot_resil::fail::scoped("vcd.parse=io@1");
        let err = parse_vcd("$enddefinitions $end\n").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
    }
}

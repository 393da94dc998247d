//! Experiment harness for the TEVoT (DAC 2020) reproduction.
//!
//! Each table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` (see DESIGN.md §7 for the experiment index); this library
//! hosts the machinery they share:
//!
//! * [`config::StudyConfig`] — quick/full experiment scaling;
//! * [`study::Study`] — workload construction and per-condition DTA for
//!   all four FUs;
//! * [`models`] — model training and the Table III / Table IV pipelines;
//! * [`table`] — plain-text table rendering.
//!
//! Performance is measured by the repository benchmark in `perfbench/`
//! (declared in `BENCHMARK.json`), not by this crate.

#![warn(missing_docs)]

pub mod config;
pub mod models;
pub mod study;
pub mod table;

//! Umbrella crate for the TEVoT (DAC 2020) reproduction.
//!
//! This package re-exports every crate of the workspace under one roof so
//! that examples and integration tests can say `use tevot_repro::...`. The
//! individual crates are:
//!
//! * [`netlist`] — gate-level circuit IR and the four functional-unit
//!   generators (32-bit integer add/multiply, IEEE-754 single-precision
//!   add/multiply).
//! * [`timing`] — operating conditions (the paper's Table I grid), the
//!   voltage/temperature cell delay model, SDF annotation and static timing
//!   analysis.
//! * [`vcd`] — value-change-dump writing/parsing and dynamic-delay
//!   extraction.
//! * [`sim`] — the event-driven gate-level timing simulator.
//! * [`ml`] — from-scratch supervised learning (CART, random forest, k-NN,
//!   linear regression, linear SVM).
//! * [`tevot`] — the paper's contribution: feature extraction, the TEVoT
//!   delay model, baselines and evaluation.
//! * [`imgproc`] — Sobel/Gaussian application workloads, PSNR and
//!   timing-error injection.
//! * [`par`] — the zero-dependency scoped thread pool behind `--jobs` /
//!   `TEVOT_JOBS`; its ordered reduction keeps every parallel stage
//!   bit-identical to a serial run.
//! * [`resil`] — crash-safe resumable checkpoints, failpoint fault
//!   injection (`TEVOT_FAIL`), the workspace error taxonomy, and
//!   cooperative cancellation.
//!
//! # Quick start
//!
//! ```
//! use tevot_repro::netlist::fu::FunctionalUnit;
//! use tevot_repro::timing::{DelayModel, OperatingCondition};
//! use tevot_repro::sim::TimingSimulator;
//!
//! let fu = FunctionalUnit::IntAdd.build();
//! let cond = OperatingCondition::new(0.9, 50.0);
//! let delays = DelayModel::tsmc45_like().annotate(&fu, cond);
//! let mut sim = TimingSimulator::new(&fu, &delays);
//! let cycle = sim.step(&FunctionalUnit::IntAdd.encode_operands(7, 9));
//! assert_eq!(FunctionalUnit::IntAdd.decode_output(cycle.settled_outputs()), 16);
//! ```

pub use tevot as core;
pub use tevot_imgproc as imgproc;
pub use tevot_ml as ml;
pub use tevot_netlist as netlist;
pub use tevot_par as par;
pub use tevot_resil as resil;
pub use tevot_sim as sim;
pub use tevot_timing as timing;
pub use tevot_vcd as vcd;

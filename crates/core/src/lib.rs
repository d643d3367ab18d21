//! # invmeas — Invert-and-Measure measurement-error mitigation
//!
//! A from-scratch reproduction of **"Mitigating Measurement Errors in
//! Quantum Computers by Exploiting State-Dependent Bias"**
//! (Tannu & Qureshi, MICRO-52, 2019).
//!
//! Measurement is the most error-prone operation on NISQ machines, and its
//! errors are biased: a qubit holding 1 is misread far more often than a
//! qubit holding 0, so basis states with high Hamming weight are the most
//! vulnerable. Invert-and-Measure exploits the bias instead of suffering
//! it: flip qubits with X gates right before measurement so the physical
//! readout happens in a *strong* state, then flip the measured classical
//! bits back.
//!
//! The crate provides the paper's two policies plus supporting machinery:
//!
//! * [`InversionString`] — the pre-measurement flip pattern and its
//!   post-measurement XOR correction;
//! * [`Baseline`] / [`MeasurementPolicy`] — the shot-budget abstraction;
//! * [`StaticInvertMeasure`] (SIM, §5) — a static set of inversion strings
//!   sharing the budget, averaging out the state dependence with no
//!   knowledge of machine or application; up to 2× PST in the paper;
//! * [`RbmsTable`] (§6.2.1, Appendix A) — machine profiling by brute
//!   force, equal superposition (ESCT), or sliding windows (AWCT);
//! * [`AdaptiveInvertMeasure`] (AIM, §6) — canary trials predict the likely
//!   outputs, which are steered onto the machine's strongest state; up to
//!   3× PST in the paper;
//! * [`ConfusionMatrix`] — the contemporary matrix-inversion mitigation as
//!   a comparison baseline.
//!
//! ## Quick start
//!
//! ```
//! use invmeas::{AdaptiveInvertMeasure, Baseline, MeasurementPolicy, RbmsTable,
//!               StaticInvertMeasure};
//! use qnoise::{DeviceModel, NoisyExecutor};
//! use qsim::{BitString, Circuit};
//! use rand::SeedableRng;
//!
//! // A biased five-qubit machine and a program whose answer is all-ones —
//! // the most vulnerable state.
//! let device = DeviceModel::ibmqx2();
//! let exec = NoisyExecutor::readout_only(&device);
//! let answer = BitString::ones(5);
//! let program = Circuit::basis_state_preparation(answer);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! let baseline = Baseline.execute(&program, 4000, &exec, &mut rng);
//! let sim = StaticInvertMeasure::four_mode(5).execute(&program, 4000, &exec, &mut rng);
//! let aim = AdaptiveInvertMeasure::new(RbmsTable::exact(&device.readout()))
//!     .execute(&program, 4000, &exec, &mut rng);
//!
//! assert!(sim.frequency(&answer) > baseline.frequency(&answer));
//! assert!(aim.frequency(&answer) > sim.frequency(&answer));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aim;
pub mod checksum;
pub mod inversion;
pub mod journal;
pub mod policy;
pub mod profile_io;
pub mod rbms;
pub mod runner;
pub mod sim;
pub mod unfolding;
pub mod validate;

pub use aim::{AdaptiveInvertMeasure, AimReport};
pub use inversion::InversionString;
pub use journal::{
    characterize, export_journal, inspect_journal, install_journal, CharMethod, CharSpec, Journal,
    JournalError, JournalStats,
};
pub use policy::{Baseline, MeasurementPolicy};
pub use profile_io::{ProfileError, ProfileMeta};
pub use rbms::RbmsTable;
pub use runner::{PolicyChoice, Runner};
pub use sim::StaticInvertMeasure;
pub use unfolding::{ConfusionMatrix, TensorUnfolder};
pub use validate::ValidateError;

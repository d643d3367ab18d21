//! # qnoise — NISQ noise models for the Invert-and-Measure reproduction
//!
//! This crate implements the error physics behind Tannu & Qureshi's
//! MICRO-52 2019 observations:
//!
//! * [`ReadoutModel`] — the classical channel layered over ideal
//!   measurement, with [`TensorReadout`] (independent asymmetric per-qubit
//!   error) and [`CorrelatedReadout`] (plus excited-neighbour crosstalk);
//! * [`FlipPair::with_t1_decay`] — relaxation during the measurement window,
//!   the physical origin of the paper's Hamming-weight bias;
//! * [`GateNoise`] — depolarizing gate errors via Pauli trajectories, each
//!   resolved as a [`PauliFrame`] where the circuit allows;
//! * [`DeviceModel`] — calibrated models of ibmqx2, ibmqx4, and
//!   ibmq-melbourne matching the paper's Table 1 and bias figures;
//! * [`Executor`] / [`NoisyExecutor`] — the repeated-trial NISQ execution
//!   loop;
//! * [`CalibrationDrift`] — day-to-day parameter drift for the
//!   repeatability study (§6.1).
//!
//! ## Example
//!
//! Reproduce the paper's Figure 1 effect in a few lines: the all-ones state
//! is far weaker than the all-zeros state, and inverting before measurement
//! recovers most of the loss.
//!
//! ```
//! use qnoise::{DeviceModel, ReadoutModel};
//! use qsim::BitString;
//!
//! let readout = DeviceModel::ibmqx2().readout();
//! let strong = readout.success_probability(BitString::zeros(5));
//! let weak = readout.success_probability(BitString::ones(5));
//! assert!(weak < 0.6 * strong); // state-dependent bias
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
mod checkpoint;
pub mod correlated;
pub mod device;
pub mod drift;
pub mod executor;
pub mod gate_noise;
pub mod readout;
pub mod tensor;

pub use calibration::{calibrate_readout, ReadoutCalibration};
pub use correlated::{CorrelatedReadout, Crosstalk};
pub use device::{DeviceModel, QubitSpec};
pub use drift::{drift_score, CalibrationDrift};
pub use executor::{Executor, IdealExecutor, NoisyExecutor};
pub use gate_noise::{faulted_circuit, FaultSites, GateNoise, PauliFault, PauliFrame};
pub use readout::{FlipPair, IdealReadout, ReadoutModel};
pub use tensor::TensorReadout;

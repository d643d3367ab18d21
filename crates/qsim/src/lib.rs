//! # qsim — a state-vector quantum circuit simulator
//!
//! The execution substrate for the Invert-and-Measure reproduction
//! (Tannu & Qureshi, MICRO-52 2019). It provides:
//!
//! * [`c64::C64`] — in-crate complex arithmetic,
//! * [`BitString`] — fixed-width classical measurement outcomes,
//! * [`Gate`] and [`Circuit`] — the gate-level program representation,
//!   including the pre-measurement inversion transform at the heart of the
//!   paper ([`Circuit::with_premeasure_inversion`]),
//! * [`StateVector`] — dense `2^n` amplitude simulation with Born-rule
//!   sampling, specialized monomial/dense kernels, gate fusion
//!   ([`fuse::FusedProgram`]) and optional threaded apply on a persistent
//!   worker pool ([`pool`]) with per-thread buffer reuse ([`arena`]),
//! * [`Counts`] / [`Distribution`] — the trial logs and exact distributions
//!   the reliability metrics are computed from.
//!
//! Noise (readout error, gate error, T1 decay) deliberately lives in the
//! sibling `qnoise` crate; this crate simulates ideal quantum mechanics.
//!
//! ## Example
//!
//! Prepare a GHZ state and sample it:
//!
//! ```
//! use qsim::{Circuit, Counts, StateVector};
//! use rand::SeedableRng;
//!
//! let mut ghz = Circuit::new(5);
//! ghz.h(0);
//! for q in 0..4 {
//!     ghz.cx(q, q + 1);
//! }
//! let psi = StateVector::from_circuit(&ghz);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut log = Counts::new(5);
//! for _ in 0..1000 {
//!     log.record(psi.sample(&mut rng));
//! }
//! // Only the all-zeros and all-ones states ever appear.
//! assert_eq!(log.distinct(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod bitstring;
pub mod c64;
pub mod circuit;
pub mod counts;
pub mod density;
pub mod fuse;
pub mod gate;
pub mod pool;
pub mod qasm;
pub mod sampler;
pub mod statevector;

pub use bitstring::{BitString, ParseBitStringError, MAX_WIDTH};
pub use circuit::Circuit;
pub use counts::{Counts, Distribution};
pub use density::{DensityMatrix, KrausChannel};
pub use fuse::FusedProgram;
pub use gate::Gate;
pub use pool::{SpinBarrier, WorkerPool};
pub use sampler::AliasSampler;
pub use statevector::{simulation_count, StateVector};

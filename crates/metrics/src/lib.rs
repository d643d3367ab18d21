//! # qmetrics — reliability metrics for NISQ output logs
//!
//! Implements the paper's three application-level reliability metrics
//! (§4.2) plus the statistics used by its characterization sections:
//!
//! * [`pst`] — Probability of a Successful Trial,
//! * [`ist`] — Inference Strength (correct vs. strongest incorrect output),
//! * [`roca`] — Rank of the Correct Answer,
//! * [`pearson_correlation`], [`hamming_weight_correlation`],
//!   [`average_by_hamming_weight`] — the bias statistics of §3,
//! * [`Table`] — plain-text rendering for the reproduction harness,
//! * [`ServiceCounters`] — lock-free operational counters (requests, cache
//!   effectiveness, queue depth, latency) for long-lived hosts like the
//!   mitigation service.
//!
//! ## Example
//!
//! The paper's Figure 3(d) scenario — the correct answer is *masked* by a
//! stronger incorrect output:
//!
//! ```
//! use qmetrics::{ist, roca, CorrectSet};
//! use qsim::Counts;
//!
//! let mut log = Counts::new(2);
//! log.record_n("11".parse()?, 30); // correct
//! log.record_n("01".parse()?, 35); // strongest incorrect
//! log.record_n("00".parse()?, 20);
//! log.record_n("10".parse()?, 15);
//! let correct = CorrectSet::single("11".parse()?);
//! assert!(ist(&log, &correct) < 1.0);       // masked
//! assert_eq!(roca(&log, &correct), Some(2)); // second in the ranking
//! # Ok::<(), qsim::ParseBitStringError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bootstrap;
pub mod counters;
pub mod reliability;
pub mod stats;
pub mod table;

pub use bootstrap::{bootstrap_pst, bootstrap_statistic, BootstrapEstimate};
pub use counters::{CounterRow, CountersSnapshot, ServiceCounters, WireRule};
pub use reliability::{ist, pst, roca, CorrectSet, ReliabilityReport};
pub use stats::{
    average_by_hamming_weight, hamming_weight_correlation, in_hamming_axis_order,
    mean_squared_error, min_avg_max, normalize_to_max, pearson_correlation, rms_error,
};
pub use table::{fmt_pct, fmt_prob, fmt_ratio, Align, Table};

//! Relative Basis Measurement Strength (RBMS) characterization.
//!
//! AIM needs a per-state measurement-strength profile of the machine
//! (paper §6.2.1 and Appendix A). Three estimators are available:
//!
//! * [`RbmsTable::brute_force`] — prepare and measure every basis state;
//!   exact but costs `O(2^n)` circuits;
//! * [`RbmsTable::esct`] — Equal Superposition Characterization Technique:
//!   measure `H⊗n` repeatedly; one circuit, `O(2^n)` trials. The paper
//!   reports ≤ 5 % MSE versus brute force;
//! * [`RbmsTable::awct`] — Approximate Windowed Characterization Technique:
//!   sliding `m`-qubit windows with 2-qubit overlap, combining per-window
//!   superposition estimates. Trials scale as `O(2^m)` instead of `O(2^n)`,
//!   which is what makes 14-qubit characterization practical.
//!
//! Each is a thin forward to [`crate::journal::characterize`], the one
//! engine that measures a profile: the caller's RNG supplies only the job
//! seed. ESCT/AWCT apply a first-order square-root bias correction there;
//! the uncorrected ESCT estimate is available as [`RbmsTable::esct_raw`]
//! for the Appendix-A validation figure.

use crate::journal::{characterize, CharMethod, CharSpec};
use qnoise::{Executor, ReadoutModel};
use qsim::BitString;
use rand::RngCore;

/// A per-basis-state measurement-strength table.
///
/// Strengths are stored on an arbitrary positive scale; use
/// [`RbmsTable::relative`] for the max-normalized view the paper plots.
///
/// # Examples
///
/// ```
/// use invmeas::RbmsTable;
/// use qnoise::DeviceModel;
/// use qsim::BitString;
///
/// let table = RbmsTable::exact(&DeviceModel::ibmqx2().readout());
/// // On ibmqx2 the strongest state is all-zeros, the weakest all-ones.
/// assert_eq!(table.strongest_state(), BitString::zeros(5));
/// assert_eq!(table.weakest_state(), BitString::ones(5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RbmsTable {
    width: usize,
    strengths: Vec<f64>,
    trials_used: u64,
}

impl RbmsTable {
    /// Builds a table from raw per-state strengths (`strengths[i]` belongs
    /// to the basis state with value `i`).
    ///
    /// # Panics
    ///
    /// Panics if the length is not `2^width`, any strength is negative or
    /// non-finite, or all strengths are zero. Fallible callers (loaders,
    /// resumed characterizations) use [`RbmsTable::try_from_strengths`].
    pub fn from_strengths(width: usize, strengths: Vec<f64>) -> Self {
        match Self::try_from_strengths(width, strengths) {
            Ok(table) => table,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`RbmsTable::from_strengths`]: validates that the
    /// vector has `2^width` entries, every strength is finite and
    /// non-negative, and at least one is positive — the invariants
    /// [`RbmsTable::relative`] and AIM's likelihood rescaling divide by.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; NaN, ±∞, and negative
    /// strengths are rejected here instead of propagating into divisions.
    pub fn try_from_strengths(
        width: usize,
        strengths: Vec<f64>,
    ) -> Result<Self, crate::validate::ValidateError> {
        crate::validate::validate_strengths(width, &strengths)?;
        Ok(RbmsTable {
            width,
            strengths,
            trials_used: 0,
        })
    }

    /// The exact table computed from a readout channel's diagonal — ground
    /// truth for validating the estimators.
    ///
    /// # Panics
    ///
    /// Panics if the channel covers more than 20 qubits.
    pub fn exact(readout: &dyn ReadoutModel) -> Self {
        let n = readout.n_qubits();
        assert!(n <= 20, "exact table limited to 20 qubits");
        let strengths = BitString::all(n)
            .map(|s| readout.success_probability(s))
            .collect();
        RbmsTable::from_strengths(n, strengths)
    }

    /// Brute-force characterization: prepares each of the `2^n` basis
    /// states and measures it `shots_per_state` times (paper §3.1 used 16k
    /// trials per state on the 5-qubit machines).
    ///
    /// Basis-state preparations are X-only circuits, which the execution
    /// engine detects and turns into point-mass distributions without
    /// building any statevector — the sweep costs `O(2^n)` per state
    /// (channel work) instead of `O(n · 4^n)` total simulation work.
    ///
    /// # Panics
    ///
    /// Panics on a job [`CharSpec::validate`] rejects: more than 14 qubits
    /// (the exponential sweep is the very cost AWCT exists to avoid) or
    /// `shots_per_state` of 0.
    pub fn brute_force(
        executor: &dyn Executor,
        shots_per_state: u64,
        rng: &mut dyn RngCore,
    ) -> Self {
        Self::run(
            executor,
            &Self::spec(executor, CharMethod::Brute, shots_per_state, rng),
        )
    }

    /// ESCT: measures the uniform superposition `total_shots` times and
    /// estimates relative strengths from the outcome frequencies with the
    /// first-order square-root bias correction.
    ///
    /// # Panics
    ///
    /// Panics if the executor covers more than 16 qubits or
    /// `total_shots` is 0.
    pub fn esct(executor: &dyn Executor, total_shots: u64, rng: &mut dyn RngCore) -> Self {
        Self::run(
            executor,
            &Self::spec(executor, CharMethod::Esct, total_shots, rng),
        )
    }

    /// ESCT without the bias correction: the raw relative outcome
    /// frequencies of the uniform superposition, as the paper plots them in
    /// Figure 4 and Figure 15. Given an RNG in the same state, it reads the
    /// same units as [`RbmsTable::esct`].
    ///
    /// # Panics
    ///
    /// As [`RbmsTable::esct`].
    pub fn esct_raw(executor: &dyn Executor, total_shots: u64, rng: &mut dyn RngCore) -> Self {
        let spec = Self::spec(executor, CharMethod::Esct, total_shots, rng);
        crate::journal::esct_raw(executor, &spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// AWCT: sliding-window characterization (Appendix A). Characterizes
    /// `window` qubits at a time with uniform superpositions, consecutive
    /// windows overlapping by `overlap` qubits, and combines the window
    /// estimates multiplicatively with the overlap marginals divided out.
    ///
    /// Total trials are `n_windows · shots_per_window = O(2^m)`-ish rather
    /// than `O(2^n)`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0, `window > n`, `overlap >= window`,
    /// `shots_per_window` is 0, or the register exceeds 20 qubits (the
    /// combined table itself is `2^n` entries).
    pub fn awct(
        executor: &dyn Executor,
        window: usize,
        overlap: usize,
        shots_per_window: u64,
        rng: &mut dyn RngCore,
    ) -> Self {
        let spec = CharSpec {
            window,
            overlap,
            ..Self::spec(executor, CharMethod::Awct, shots_per_window, rng)
        };
        Self::run(executor, &spec)
    }

    /// The profile the paper prescribes for `executor`'s register
    /// (§6.2.1): [`CharMethod::for_width`]'s technique at its default
    /// geometry, `shots` per state or per window.
    ///
    /// # Panics
    ///
    /// As [`RbmsTable::brute_force`] and [`RbmsTable::awct`].
    pub fn prescribed(executor: &dyn Executor, shots: u64, rng: &mut dyn RngCore) -> Self {
        let method = CharMethod::for_width(executor.n_qubits());
        Self::run(executor, &Self::spec(executor, method, shots, rng))
    }

    /// The unlabelled job for `method` on `executor`, seeded from `rng`.
    fn spec(
        executor: &dyn Executor,
        method: CharMethod,
        shots: u64,
        rng: &mut dyn RngCore,
    ) -> CharSpec {
        CharSpec::new(method, "", executor.n_qubits(), shots, rng.next_u64())
    }

    fn run(executor: &dyn Executor, spec: &CharSpec) -> Self {
        match characterize(executor, spec, None) {
            Ok((table, _)) => table,
            Err(e) => panic!("{e}"),
        }
    }

    /// The register width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of trials the characterization consumed (0 for exact /
    /// hand-built tables).
    pub fn trials_used(&self) -> u64 {
        self.trials_used
    }

    /// Records the trial count (used when reloading persisted profiles).
    pub fn set_trials_used(&mut self, trials: u64) {
        self.trials_used = trials;
    }

    /// The raw strength of state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s.width() != width`.
    pub fn strength(&self, s: BitString) -> f64 {
        assert_eq!(s.width(), self.width, "bit string width mismatch");
        self.strengths[s.index()]
    }

    /// The raw strengths, indexed by state value.
    pub fn strengths(&self) -> &[f64] {
        &self.strengths
    }

    /// The max-normalized ("relative") strengths — the paper's plotted
    /// quantity.
    pub fn relative(&self) -> Vec<f64> {
        qmetrics::normalize_to_max(&self.strengths)
    }

    /// The state with the highest measurement strength — AIM's inversion
    /// target. Ties break toward the lowest state value.
    pub fn strongest_state(&self) -> BitString {
        let mut best = 0usize;
        for (i, &v) in self.strengths.iter().enumerate() {
            if v > self.strengths[best] {
                best = i;
            }
        }
        BitString::from_value(best as u64, self.width)
    }

    /// The state with the lowest measurement strength.
    pub fn weakest_state(&self) -> BitString {
        let mut worst = 0usize;
        for (i, &v) in self.strengths.iter().enumerate() {
            if v < self.strengths[worst] {
                worst = i;
            }
        }
        BitString::from_value(worst as u64, self.width)
    }

    /// Mean squared error between this table's relative strengths and
    /// another's — the Appendix-A validation statistic.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn mse_vs(&self, other: &RbmsTable) -> f64 {
        assert_eq!(self.width, other.width, "width mismatch");
        qmetrics::mean_squared_error(&self.relative(), &other.relative())
    }

    /// Pearson correlation between relative strength and Hamming weight —
    /// the paper's headline bias statistic (−0.93 on ibmqx2).
    pub fn hamming_correlation(&self) -> f64 {
        qmetrics::hamming_weight_correlation(self.width, &self.relative())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnoise::{DeviceModel, NoisyExecutor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn exact_table_matches_channel_diagonal() {
        let readout = DeviceModel::ibmqx4().readout();
        let table = RbmsTable::exact(&readout);
        for s in BitString::all(5) {
            assert_eq!(table.strength(s), readout.success_probability(s));
        }
    }

    #[test]
    fn brute_force_converges_to_exact() {
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev);
        let readout = dev.readout();
        let exact = RbmsTable::exact(&readout);
        let mut r = rng();
        let est = RbmsTable::brute_force(&exec, 4000, &mut r);
        assert_eq!(est.trials_used(), 4000 * 32);
        let mse = est.mse_vs(&exact);
        assert!(mse < 0.002, "brute force MSE = {mse}");
    }

    #[test]
    fn esct_matches_brute_force_within_paper_bound() {
        // Appendix A: ESCT achieves RBMS within 5% MSE of the direct sweep.
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev);
        let mut r = rng();
        let exact = RbmsTable::exact(&dev.readout());
        let esct = RbmsTable::esct(&exec, 400_000, &mut r);
        let mse = esct.mse_vs(&exact);
        assert!(mse < 0.05, "ESCT MSE = {mse}");
        // The corrected estimator is closer than the raw one.
        let mut r = rng();
        let raw = RbmsTable::esct_raw(&exec, 400_000, &mut r);
        assert!(esct.mse_vs(&exact) < raw.mse_vs(&exact));
    }

    #[test]
    fn esct_preserves_strength_ordering() {
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev);
        let mut r = rng();
        let esct = RbmsTable::esct(&exec, 200_000, &mut r);
        assert_eq!(esct.strongest_state(), BitString::zeros(5));
        assert_eq!(esct.weakest_state(), BitString::ones(5));
    }

    #[test]
    fn awct_approximates_exact_table() {
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev);
        let mut r = rng();
        let exact = RbmsTable::exact(&dev.readout());
        let awct = RbmsTable::awct(&exec, 3, 2, 150_000, &mut r);
        let mse = awct.mse_vs(&exact);
        assert!(mse < 0.05, "AWCT MSE = {mse}");
    }

    #[test]
    fn awct_trial_cost_scales_with_windows_not_states() {
        let dev = DeviceModel::ibmq_melbourne().subdevice(&[0, 1, 2, 3, 4, 5, 7, 8, 9, 10]);
        let exec = NoisyExecutor::readout_only(&dev);
        let mut r = rng();
        let shots_per_window = 16_000;
        let awct = RbmsTable::awct(&exec, 4, 2, shots_per_window, &mut r);
        // 10 qubits, window 4, stride 2: starts 0,2,4,6 -> 4 windows.
        assert_eq!(awct.trials_used(), 4 * shots_per_window);
        // Far fewer trials than a brute-force sweep at comparable accuracy
        // (1024 states x thousands of shots each).
        assert!(awct.trials_used() < 1024 * 1000);
        // Still tracks the exact table's shape.
        let readout = dev.readout();
        let exact = RbmsTable::exact(&readout);
        let corr = qmetrics::pearson_correlation(&awct.relative(), &exact.relative());
        assert!(corr > 0.9, "AWCT/exact correlation = {corr}");
    }

    #[test]
    fn hamming_correlation_is_strongly_negative_on_ibmqx2() {
        let table = RbmsTable::exact(&DeviceModel::ibmqx2().readout());
        let r = table.hamming_correlation();
        assert!(r < -0.9, "correlation = {r} (paper: -0.93)");
    }

    #[test]
    fn ibmqx4_correlation_is_weaker() {
        let qx2 = RbmsTable::exact(&DeviceModel::ibmqx2().readout());
        let qx4 = RbmsTable::exact(&DeviceModel::ibmqx4().readout());
        assert!(
            qx4.hamming_correlation() > qx2.hamming_correlation(),
            "ibmqx4 ({}) should be less weight-correlated than ibmqx2 ({})",
            qx4.hamming_correlation(),
            qx2.hamming_correlation()
        );
    }

    #[test]
    fn relative_peaks_at_one() {
        let table = RbmsTable::exact(&DeviceModel::ibmqx2().readout());
        let rel = table.relative();
        let max = rel.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "all strengths are zero")]
    fn zero_table_rejected() {
        RbmsTable::from_strengths(2, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "overlap must be smaller")]
    fn awct_bad_overlap_panics() {
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev);
        let mut r = rng();
        RbmsTable::awct(&exec, 2, 2, 10, &mut r);
    }
}

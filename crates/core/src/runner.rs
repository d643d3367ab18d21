//! High-level convenience API: device + policy + metrics in one object.
//!
//! The lower-level pieces (executors, policies, profiles, metrics) compose
//! explicitly; [`Runner`] bundles the common path — "run this benchmark on
//! this machine under this policy and tell me how reliable it was" — into
//! a fluent builder, including automatic RBMS profiling for AIM.

use crate::aim::AdaptiveInvertMeasure;
use crate::policy::{Baseline, MeasurementPolicy};
use crate::rbms::RbmsTable;
use crate::sim::StaticInvertMeasure;
use invmeas_faults::FaultInjector;
use qmetrics::{CorrectSet, ReliabilityReport};
use qnoise::{DeviceModel, NoisyExecutor};
use qsim::{Circuit, Counts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which mitigation policy a [`Runner`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Standard measurement for every trial.
    Baseline,
    /// Static Invert-and-Measure with the paper's four strings.
    Sim,
    /// Adaptive Invert-and-Measure (profiles the machine on first use).
    Aim,
}

impl PolicyChoice {
    /// The spelling used on the command line and on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyChoice::Baseline => "baseline",
            PolicyChoice::Sim => "sim",
            PolicyChoice::Aim => "aim",
        }
    }

    /// Parses [`as_str`](PolicyChoice::as_str)'s spelling.
    pub fn parse(s: &str) -> Option<PolicyChoice> {
        match s {
            "baseline" => Some(PolicyChoice::Baseline),
            "sim" => Some(PolicyChoice::Sim),
            "aim" => Some(PolicyChoice::Aim),
            _ => None,
        }
    }
}

/// A configured execution environment for one device.
///
/// # Examples
///
/// ```
/// use invmeas::runner::{PolicyChoice, Runner};
/// use qnoise::DeviceModel;
///
/// let bench = qsim::Circuit::basis_state_preparation("11111".parse()?);
/// let answer: qsim::BitString = "11111".parse()?;
/// let mut runner = Runner::new(DeviceModel::ibmqx4()).with_seed(7);
/// let base = runner.evaluate(PolicyChoice::Baseline, &bench, answer.into(), 4000);
/// let aim = runner.evaluate(PolicyChoice::Aim, &bench, answer.into(), 4000);
/// assert!(aim.pst > base.pst);
/// # Ok::<(), qsim::ParseBitStringError>(())
/// ```
#[derive(Debug)]
pub struct Runner {
    device: DeviceModel,
    executor: NoisyExecutor,
    rng: StdRng,
    profile_shots: u64,
    profile: Option<RbmsTable>,
}

impl Runner {
    /// Default trial budget spent on AIM's machine profile (per basis
    /// state for ≤ 5 qubits, per window beyond).
    pub const DEFAULT_PROFILE_SHOTS: u64 = 8_192;

    /// Creates a runner with the device's full noise model and a fixed
    /// default seed (override with [`Runner::with_seed`]).
    pub fn new(device: DeviceModel) -> Self {
        let executor = NoisyExecutor::from_device(&device);
        Runner {
            device,
            executor,
            rng: StdRng::seed_from_u64(0x1e4d),
            profile_shots: Self::DEFAULT_PROFILE_SHOTS,
            profile: None,
        }
    }

    /// Reseeds the runner's random stream.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Sets the executor's worker-thread count for batched sweeps
    /// (characterization, SIM groups, AIM targeted runs). Results are
    /// bitwise identical for every thread count.
    ///
    /// Worker threads come from the process-global persistent pool
    /// (`qsim::pool`): the first multi-threaded batch parks `threads - 1`
    /// workers and every later batch in the job reuses them, so long
    /// characterization sweeps pay the spawn cost once instead of once
    /// per circuit group.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.executor = self.executor.with_threads(threads);
        self
    }

    /// Installs a fault injector on the executor, which registers one
    /// [`FaultSite::Exec`](invmeas_faults::FaultSite::Exec) arrival per
    /// batch-level run.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.executor = self.executor.with_faults(faults);
        self
    }

    /// Overrides the AIM profiling budget.
    ///
    /// # Panics
    ///
    /// Panics if `shots` is 0.
    #[must_use]
    pub fn with_profile_shots(mut self, shots: u64) -> Self {
        assert!(shots > 0, "profiling needs at least one shot");
        self.profile_shots = shots;
        self.profile = None;
        self
    }

    /// Supplies a pre-measured machine profile (e.g. loaded with
    /// [`RbmsTable::load`]) instead of measuring one. Long-lived hosts
    /// (e.g. the mitigation service) use it to hand one cached
    /// [`RbmsTable`] to many per-request runners.
    ///
    /// # Panics
    ///
    /// Panics if the profile width differs from the device.
    pub fn set_profile(&mut self, profile: RbmsTable) {
        assert_eq!(
            profile.width(),
            self.device.n_qubits(),
            "profile width must match the device"
        );
        self.profile = Some(profile);
    }

    /// The device in use.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The machine profile, measuring it on first use with the paper's
    /// prescription ([`RbmsTable::prescribed`]).
    pub fn profile(&mut self) -> &RbmsTable {
        self.profile.get_or_insert_with(|| {
            RbmsTable::prescribed(&self.executor, self.profile_shots, &mut self.rng)
        })
    }

    /// The policy object `choice` names for this device. AIM measures the
    /// machine profile first if none is held yet.
    pub fn policy(&mut self, choice: PolicyChoice) -> Box<dyn MeasurementPolicy> {
        match choice {
            PolicyChoice::Baseline => Box::new(Baseline),
            PolicyChoice::Sim => Box::new(StaticInvertMeasure::four_mode(self.device.n_qubits())),
            PolicyChoice::Aim => Box::new(AdaptiveInvertMeasure::new(self.profile().clone())),
        }
    }

    /// Executes `circuit` for `shots` trials under the chosen policy and
    /// returns the output log.
    ///
    /// # Panics
    ///
    /// Panics if the circuit width differs from the device.
    pub fn run(&mut self, policy: PolicyChoice, circuit: &Circuit, shots: u64) -> Counts {
        assert_eq!(
            circuit.n_qubits(),
            self.device.n_qubits(),
            "circuit width must match the device (route it first if needed)"
        );
        self.policy(policy)
            .execute(circuit, shots, &self.executor, &mut self.rng)
    }

    /// Runs and scores in one call.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches between circuit, device, and correct set.
    pub fn evaluate(
        &mut self,
        policy: PolicyChoice,
        circuit: &Circuit,
        correct: CorrectSet,
        shots: u64,
    ) -> ReliabilityReport {
        let log = self.run(policy, circuit, shots);
        ReliabilityReport::evaluate(&log, &correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::BitString;

    #[test]
    fn runner_compares_policies_end_to_end() {
        let answer = BitString::ones(5);
        let circuit = Circuit::basis_state_preparation(answer);
        let mut runner = Runner::new(DeviceModel::ibmqx2()).with_seed(3);
        let shots = 6_000;
        let base = runner.evaluate(PolicyChoice::Baseline, &circuit, answer.into(), shots);
        let sim = runner.evaluate(PolicyChoice::Sim, &circuit, answer.into(), shots);
        let aim = runner.evaluate(PolicyChoice::Aim, &circuit, answer.into(), shots);
        assert!(sim.pst > base.pst);
        assert!(aim.pst > sim.pst);
    }

    #[test]
    fn threaded_runner_matches_serial_bitwise() {
        let answer = BitString::ones(5);
        let circuit = Circuit::basis_state_preparation(answer);
        let run = |threads: usize| {
            let mut runner = Runner::new(DeviceModel::ibmqx4())
                .with_seed(9)
                .with_threads(threads)
                .with_profile_shots(256);
            runner.run(PolicyChoice::Aim, &circuit, 2_000)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn profile_is_measured_once_and_cached() {
        let mut runner = Runner::new(DeviceModel::ibmqx4())
            .with_seed(1)
            .with_profile_shots(512);
        let first = runner.profile().clone();
        let second = runner.profile().clone();
        assert_eq!(first, second);
        assert!(first.trials_used() > 0);
    }

    #[test]
    fn injected_profile_replaces_measurement() {
        let table = RbmsTable::exact(&DeviceModel::ibmqx4().readout());
        let mut runner = Runner::new(DeviceModel::ibmqx4()).with_profile_shots(128);
        runner.set_profile(table.clone());
        assert_eq!(runner.profile(), &table); // injected, not measured
    }

    #[test]
    #[should_panic(expected = "profile width must match")]
    fn injected_profile_width_checked() {
        let mut runner = Runner::new(DeviceModel::ibmqx2());
        runner.set_profile(RbmsTable::from_strengths(2, vec![1.0; 4]));
    }

    #[test]
    fn large_device_profiles_with_awct() {
        let dev = DeviceModel::ibmq_melbourne().best_qubits_subdevice(7);
        let mut runner = Runner::new(dev).with_seed(2).with_profile_shots(2_000);
        let profile = runner.profile();
        assert_eq!(profile.width(), 7);
        // AWCT trials: windows * shots, far below brute force's 2^7 states.
        assert!(profile.trials_used() < 2_000 * 16);
    }

    #[test]
    #[should_panic(expected = "circuit width must match")]
    fn width_mismatch_rejected() {
        let mut runner = Runner::new(DeviceModel::ibmqx2());
        let c = Circuit::new(3);
        runner.run(PolicyChoice::Baseline, &c, 10);
    }

    #[test]
    fn faulted_runner_matches_clean_runner_bitwise() {
        use invmeas_faults::{Fault, FaultPlan, FaultSite};

        // A plan with only latency faults must not change any sampled data.
        let plan = Arc::new(FaultPlan::new(6).on_nth(FaultSite::Exec, 1, Fault::Latency(1)));
        let answer = BitString::ones(5);
        let circuit = Circuit::basis_state_preparation(answer);
        let run = |faults: Option<Arc<dyn FaultInjector>>| {
            let mut runner = Runner::new(DeviceModel::ibmqx4())
                .with_seed(11)
                .with_profile_shots(256);
            if let Some(f) = faults {
                runner = runner.with_faults(f);
            }
            runner.run(PolicyChoice::Aim, &circuit, 1_000)
        };
        assert_eq!(run(None), run(Some(plan)));
    }
}

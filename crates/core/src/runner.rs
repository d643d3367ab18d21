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
use invmeas_faults::{Fault, FaultInjector, FaultSite, NoFaults};
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
    faults: Arc<dyn FaultInjector>,
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
            faults: Arc::new(NoFaults),
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

    /// Installs a fault injector on the runner *and* its executor: the
    /// runner registers one [`FaultSite::Characterize`] arrival per profile
    /// measurement (see [`Runner::try_profile`]) and the executor one
    /// [`FaultSite::Exec`] arrival per batch-level run. Production code
    /// never calls this; the default [`NoFaults`] costs nothing.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.executor = self.executor.with_faults(Arc::clone(&faults));
        self.faults = faults;
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

    /// Drops any cached or injected profile so the next AIM run re-measures.
    pub fn clear_profile(&mut self) {
        self.profile = None;
    }

    /// The currently held profile, if one has been measured or injected.
    pub fn cached_profile(&self) -> Option<&RbmsTable> {
        self.profile.as_ref()
    }

    /// The device in use.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The machine profile, measuring it on first use (brute force for ≤ 5
    /// qubits, AWCT windows beyond — the paper's §6.2.1 prescription).
    ///
    /// # Panics
    ///
    /// Panics if an installed fault injector fails the measurement — hosts
    /// that script faults must use [`Runner::try_profile`].
    pub fn profile(&mut self) -> &RbmsTable {
        self.try_profile()
            .expect("characterization failed (injected fault on an infallible path)")
    }

    /// Fallible form of [`Runner::profile`]: measures the machine profile
    /// on first use, registering one [`FaultSite::Characterize`] arrival
    /// per actual measurement (cached and injected profiles register
    /// nothing). An injected `Error` is returned to the caller — this is
    /// the hook the mitigation service's retry/breaker layer exercises;
    /// `Latency` stalls the measurement and `Panic` panics.
    ///
    /// # Errors
    ///
    /// Returns the injected failure message. Without a fault injector this
    /// never errors.
    pub fn try_profile(&mut self) -> Result<&RbmsTable, String> {
        if self.profile.is_none() {
            if let Some(f) = self.faults.check(FaultSite::Characterize) {
                f.apply_latency();
                match f {
                    Fault::Error(m) => return Err(m),
                    Fault::Panic(m) => panic!("{m}"),
                    _ => {}
                }
            }
            let table = if self.device.n_qubits() <= 5 {
                RbmsTable::brute_force(&self.executor, self.profile_shots, &mut self.rng)
            } else {
                RbmsTable::awct(&self.executor, 4, 2, self.profile_shots, &mut self.rng)
            };
            self.profile = Some(table);
        }
        Ok(self.profile.as_ref().expect("just inserted"))
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
        match policy {
            PolicyChoice::Baseline => {
                Baseline.execute(circuit, shots, &self.executor, &mut self.rng)
            }
            PolicyChoice::Sim => StaticInvertMeasure::four_mode(circuit.n_qubits()).execute(
                circuit,
                shots,
                &self.executor,
                &mut self.rng,
            ),
            PolicyChoice::Aim => {
                let profile = self.profile().clone();
                AdaptiveInvertMeasure::new(profile).execute(
                    circuit,
                    shots,
                    &self.executor,
                    &mut self.rng,
                )
            }
        }
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
    fn injected_profile_replaces_and_clears() {
        let table = RbmsTable::exact(&DeviceModel::ibmqx4().readout());
        let mut runner = Runner::new(DeviceModel::ibmqx4()).with_profile_shots(128);
        assert!(runner.cached_profile().is_none());
        runner.set_profile(table.clone());
        assert_eq!(runner.cached_profile(), Some(&table));
        assert_eq!(runner.profile(), &table); // injected, not measured
        runner.clear_profile();
        assert!(runner.cached_profile().is_none());
        // Next access measures afresh.
        assert!(runner.profile().trials_used() > 0);
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
    fn injected_characterization_fault_is_transient() {
        use invmeas_faults::FaultPlan;

        let plan = Arc::new(FaultPlan::new(5).on_nth(
            FaultSite::Characterize,
            1,
            Fault::Error("injected characterization failure".into()),
        ));
        let mut runner = Runner::new(DeviceModel::ibmqx4())
            .with_seed(2)
            .with_profile_shots(256)
            .with_faults(Arc::clone(&plan) as Arc<dyn FaultInjector>);
        // First measurement hits the scripted fault; nothing is cached.
        let err = runner.try_profile().unwrap_err();
        assert!(err.contains("injected"), "{err}");
        assert!(runner.cached_profile().is_none());
        // The retry (arrival 2, nothing scheduled) succeeds and caches.
        assert!(runner.try_profile().is_ok());
        assert!(runner.cached_profile().is_some());
        // Cached access registers no further Characterize arrivals.
        let arrivals = plan.arrivals(FaultSite::Characterize);
        let _ = runner.try_profile().unwrap();
        assert_eq!(plan.arrivals(FaultSite::Characterize), arrivals);
    }

    #[test]
    fn faulted_runner_matches_clean_runner_bitwise() {
        use invmeas_faults::FaultPlan;

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

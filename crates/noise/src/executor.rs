//! Shot-based circuit execution under noise — the NISQ trial loop.
//!
//! The paper's computing model (§2.2, Figure 3a) is: initialize, execute the
//! program, read the qubits, log the output; repeat for thousands of trials.
//! An [`Executor`] is exactly that loop. [`NoisyExecutor`] layers the two
//! error sources the paper distinguishes:
//!
//! * **gate errors** — Monte-Carlo Pauli trajectories sampled per group of
//!   shots ([`GateNoise`]);
//! * **measurement errors** — every sampled outcome is pushed through the
//!   device's readout channel ([`ReadoutModel`]).
//!
//! ## The batched execution engine
//!
//! Characterization and policy evaluation run *sweeps*: `2^n` basis-state
//! preparations for a brute-force RBMS table, `k` inversion modes per SIM
//! group run, one canary plus `k` targeted groups per AIM window. Three
//! mechanisms keep those sweeps cheap:
//!
//! 1. **O(1) sampling** — each statevector builds one
//!    [`qsim::AliasSampler`] over its Born distribution, so a shot costs a
//!    table lookup instead of an `O(2^n)` CDF scan.
//! 2. **Shot synthesis** — when gate noise is off, the Born distribution is
//!    pushed through the readout channel *once*
//!    ([`NoisyExecutor::exact_readout_distribution`]) and the entire trial
//!    log is drawn as one multinomial sample
//!    ([`qsim::Counts::synthesize_from`]); cost is independent of the shot
//!    count. A cost model picks between this and the per-shot path (see
//!    [`NoisyExecutor::with_shot_synthesis`]).
//! 3. **Parallel sweeps** — [`Executor::run_groups`] runs many circuits at
//!    once; [`NoisyExecutor`] distributes them over a thread pool
//!    ([`NoisyExecutor::with_threads`]).
//! 4. **Inversion-variant amortization** — circuits in a sweep that differ
//!    only by a trailing X layer (every Invert-and-Measure group, every
//!    basis-state preparation) share one base simulation: the X layer is a
//!    pure basis permutation, so each variant's Born distribution is an XOR
//!    relabeling of the base's ([`qsim::StateVector::probabilities_xor`]).
//!    [`NoisyExecutor`]'s `run_groups` memoizes bases per sweep; single
//!    `run` calls apply the same trailing-X split, so the memo changes
//!    nothing but the simulation count. Exact only in the readout-only
//!    regime — with gate noise on, trailing X gates are fault sites and
//!    variants are simulated in full.
//!
//! ### Determinism contract
//!
//! For a fixed RNG seed and configuration, every path is reproducible.
//! `run_groups`/`run_batch` draw one sub-seed per circuit *sequentially*
//! from the caller's RNG before any work is dispatched, so their results
//! are bitwise identical **regardless of the thread count** (and identical
//! to the serial default implementation). The synthesis and per-shot paths
//! consume the RNG stream differently, so toggling
//! [`NoisyExecutor::with_shot_synthesis`] changes the sampled log — but
//! both are exact samples of the same law, and each is deterministic per
//! seed.

use crate::correlated::CorrelatedReadout;
use crate::device::DeviceModel;
use crate::gate_noise::GateNoise;
use crate::readout::ReadoutModel;
use invmeas_faults::{Fault, FaultInjector, FaultSite, NoFaults};
use qsim::{BitString, Circuit, Counts, Distribution, Gate, StateVector};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Widest register the dense per-basis-state count accumulator is used for;
/// beyond this the per-shot paths fall back to hash-map logging.
const MAX_DENSE_WIDTH: usize = 26;

/// A shot-based circuit runner.
///
/// The trait is object-safe so measurement policies (in the `invmeas`
/// crate) can be written against `&dyn Executor`.
pub trait Executor {
    /// The register width of circuits this executor accepts.
    fn n_qubits(&self) -> usize;

    /// Runs `circuit` for `shots` trials and returns the output log.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `circuit.n_qubits() != self.n_qubits()`.
    fn run(&self, circuit: &Circuit, shots: u64, rng: &mut dyn RngCore) -> Counts;

    /// Runs each circuit for its own shot budget and returns one log per
    /// circuit — the engine entry point for characterization sweeps and
    /// grouped policy runs.
    ///
    /// One sub-seed per circuit is drawn sequentially from `rng` up front,
    /// and circuit `i` is executed against `StdRng::seed_from_u64(seed_i)`.
    /// Implementations that parallelize (see [`NoisyExecutor`]) MUST keep
    /// this scheme so results are bitwise independent of the worker count.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `circuits.len() != shots.len()` or any
    /// circuit width mismatches.
    fn run_groups(
        &self,
        circuits: &[Circuit],
        shots: &[u64],
        rng: &mut dyn RngCore,
    ) -> Vec<Counts> {
        assert_eq!(
            circuits.len(),
            shots.len(),
            "one shot budget per circuit required"
        );
        circuits
            .iter()
            .zip(shots)
            .map(|(c, &s)| {
                let mut circuit_rng = StdRng::seed_from_u64(rng.next_u64());
                self.run(c, s, &mut circuit_rng)
            })
            .collect()
    }

    /// Runs every circuit for the same number of shots — the uniform-budget
    /// convenience form of [`Executor::run_groups`].
    fn run_batch(
        &self,
        circuits: &[Circuit],
        shots_each: u64,
        rng: &mut dyn RngCore,
    ) -> Vec<Counts> {
        let shots = vec![shots_each; circuits.len()];
        self.run_groups(circuits, &shots, rng)
    }
}

/// Registers at or above this size run their statevector evolution on the
/// executor's worker pool ([`NoisyExecutor::with_threads`]); below it the
/// thread spawn/barrier overhead outweighs the kernel work.
pub const THREADED_SIM_MIN_QUBITS: usize = 15;

/// Draws `shots` outcomes from a Born distribution via a one-time alias
/// table, accumulating densely when the register is small enough.
fn sample_born_counts(n: usize, born: &[f64], shots: u64, rng: &mut dyn RngCore) -> Counts {
    let mut counts = Counts::new(n);
    if shots == 0 {
        return counts;
    }
    let sampler = qsim::AliasSampler::new(born);
    if n <= MAX_DENSE_WIDTH {
        let mut dense = vec![0u64; 1usize << n];
        for _ in 0..shots {
            dense[sampler.sample(rng)] += 1;
        }
        return Counts::from_dense(n, &dense);
    }
    for _ in 0..shots {
        counts.record(BitString::from_value(sampler.sample(rng) as u64, n));
    }
    counts
}

/// A noise-free executor: samples directly from the Born distribution.
///
/// # Examples
///
/// ```
/// use qnoise::{Executor, IdealExecutor};
/// use qsim::{BitString, Circuit};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(3);
/// c.x(0).x(2);
/// let exec = IdealExecutor::new(3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let log = exec.run(&c, 100, &mut rng);
/// assert_eq!(log.get(&"101".parse()?), 100);
/// # Ok::<(), qsim::ParseBitStringError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealExecutor {
    n_qubits: usize,
}

impl IdealExecutor {
    /// Creates an ideal executor over `n_qubits`.
    pub fn new(n_qubits: usize) -> Self {
        IdealExecutor { n_qubits }
    }
}

impl Executor for IdealExecutor {
    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn run(&self, circuit: &Circuit, shots: u64, rng: &mut dyn RngCore) -> Counts {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "circuit width mismatch");
        if shots == 0 {
            return Counts::new(self.n_qubits);
        }
        // `born_probabilities` strips the trailing X layer and permutes,
        // so inversion variants and basis-state preparations skip most (or
        // all) of the statevector work.
        let born = StateVector::born_probabilities(circuit, 1);
        sample_born_counts(self.n_qubits, &born, shots, rng)
    }
}

/// Executes circuits under a device's gate and readout noise.
#[derive(Debug, Clone)]
pub struct NoisyExecutor {
    readout: CorrelatedReadout,
    gate_noise: GateNoise,
    max_trajectories: u64,
    threads: usize,
    shot_synthesis: bool,
    faults: Arc<dyn FaultInjector>,
}

impl NoisyExecutor {
    /// Default cap on distinct gate-fault trajectories per `run` call.
    ///
    /// Shots beyond the cap are distributed across trajectories; this bounds
    /// simulation cost for large registers while keeping per-shot readout
    /// noise independent.
    pub const DEFAULT_MAX_TRAJECTORIES: u64 = 4096;

    /// Creates an executor from explicit noise components.
    ///
    /// # Panics
    ///
    /// Panics if the readout and gate-noise models cover different register
    /// widths.
    pub fn new(readout: CorrelatedReadout, gate_noise: GateNoise) -> Self {
        assert_eq!(
            readout.n_qubits(),
            gate_noise.n_qubits(),
            "readout and gate-noise widths differ"
        );
        NoisyExecutor {
            readout,
            gate_noise,
            max_trajectories: Self::DEFAULT_MAX_TRAJECTORIES,
            threads: 1,
            shot_synthesis: true,
            faults: Arc::new(NoFaults),
        }
    }

    /// Creates an executor with the device's full noise model.
    pub fn from_device(device: &DeviceModel) -> Self {
        NoisyExecutor::new(device.readout(), device.gate_noise())
    }

    /// Creates an executor with the device's readout noise only (gate noise
    /// disabled) — useful for isolating measurement-error effects, as the
    /// paper's characterization experiments do.
    pub fn readout_only(device: &DeviceModel) -> Self {
        NoisyExecutor::new(device.readout(), GateNoise::ideal(device.n_qubits()))
    }

    /// Overrides the trajectory cap.
    ///
    /// # Panics
    ///
    /// Panics if `max` is 0.
    #[must_use]
    pub fn with_max_trajectories(mut self, max: u64) -> Self {
        assert!(max >= 1, "need at least one trajectory");
        self.max_trajectories = max;
        self
    }

    /// Sets the worker-thread count used by [`Executor::run_groups`] /
    /// [`Executor::run_batch`]. The default is 1 (serial). Results are
    /// bitwise identical for every thread count.
    ///
    /// Workers come from the persistent process-global pool
    /// (`qsim::pool`), so a whole characterization job reuses one set of
    /// parked threads across every batch instead of spawning per call —
    /// and large single-circuit evolutions (≥ [`THREADED_SIM_MIN_QUBITS`]
    /// qubits) share the same pool for their kernel sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables or disables the multinomial shot-synthesis fast path
    /// (enabled by default).
    ///
    /// When enabled and gate noise is off, [`Executor::run`] composes the
    /// Born distribution with the readout channel once and synthesizes the
    /// whole log in time independent of the shot count, provided the
    /// composition is cheaper than per-shot sampling (cost model:
    /// `support · 2^n ≤ shots · n`, and `n ≤ 14` for the dense channel).
    /// Disabling forces the per-shot path — useful for statistical
    /// equivalence tests and benchmarking the engine against itself.
    #[must_use]
    pub fn with_shot_synthesis(mut self, enabled: bool) -> Self {
        self.shot_synthesis = enabled;
        self
    }

    /// Installs a fault injector consulted once per batch-level execution
    /// call ([`Executor::run`] and [`Executor::run_groups`] each register
    /// exactly one arrival at [`FaultSite::Exec`], never one per worker
    /// thread, so a scripted plan replays identically under any thread
    /// count). The executor
    /// applies `Latency` (stall) and `Panic` faults; other kinds are
    /// ignored here because shot execution is infallible by design.
    ///
    /// The default is [`NoFaults`], whose check inlines to `None`.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// One arrival at the [`FaultSite::Exec`] site: stalls on `Latency`,
    /// panics on `Panic`, ignores fault kinds execution cannot express.
    fn check_exec_fault(&self) {
        if let Some(f) = self.faults.check(FaultSite::Exec) {
            f.apply_latency();
            if let Fault::Panic(m) = f {
                panic!("{m}");
            }
        }
    }

    /// The readout channel in use.
    pub fn readout(&self) -> &CorrelatedReadout {
        &self.readout
    }

    /// The gate-noise model in use.
    pub fn gate_noise(&self) -> &GateNoise {
        &self.gate_noise
    }

    /// The exact output distribution of `circuit` under readout noise only
    /// (gate noise is ignored). Cost is `O(k · 2^n)` where `k` is the number
    /// of basis states with non-zero Born probability, so this is cheap for
    /// structured outputs and small registers.
    ///
    /// # Panics
    ///
    /// Panics if the circuit width mismatches or `n_qubits > 14`.
    pub fn exact_readout_distribution(&self, circuit: &Circuit) -> Distribution {
        assert_eq!(
            circuit.n_qubits(),
            self.n_qubits(),
            "circuit width mismatch"
        );
        let born = Distribution::from_probabilities(
            circuit.n_qubits(),
            StateVector::born_probabilities(circuit, 1),
        );
        self.readout.apply_to_distribution(&born)
    }

    /// The worker-thread count to use for a single statevector evolution:
    /// the configured pool for large registers, serial otherwise. This is
    /// the one place a requested width is clamped to the host's hardware
    /// threads — the qsim kernels run on exactly the width they are given,
    /// and extra workers beyond the cores only add scheduling overhead.
    /// The clamp cannot change results: every width is bitwise identical.
    fn sim_threads(&self) -> usize {
        if self.n_qubits() >= THREADED_SIM_MIN_QUBITS {
            self.threads.min(qsim::pool::available_threads())
        } else {
            1
        }
    }

    /// Computes the Born distribution of every circuit in a sweep,
    /// simulating each distinct *base* (the circuit prefix left after
    /// [`Circuit::trailing_x_split`]) exactly once and deriving each
    /// trailing-X variant from it with
    /// [`StateVector::probabilities_xor`]; X-only circuits go through
    /// [`StateVector::born_probabilities`], which returns their point mass
    /// without simulating.
    ///
    /// This is exact in the readout-only regime — a noiseless trailing X
    /// layer is a pure basis permutation — and is bitwise identical to
    /// computing [`StateVector::born_probabilities`] per circuit, since
    /// that entry point performs the same split-and-permute. Returns `None`
    /// per circuit when gate noise is on (trailing X gates can then fault,
    /// so variants must be simulated in full).
    fn memoized_borns(&self, circuits: &[Circuit]) -> Vec<Option<Vec<f64>>> {
        if !self.gate_noise.is_ideal() {
            return vec![None; circuits.len()];
        }
        let n = self.n_qubits();
        let threads = self.sim_threads();
        // `Gate` has no `Hash`/`Eq` (float angles), so bases are matched by
        // linear slice scan — sweeps share a handful of bases at most.
        let mut bases: Vec<(&[Gate], StateVector)> = Vec::new();
        let borns = circuits
            .iter()
            .map(|c| {
                let (prefix, mask) = c.trailing_x_split();
                if prefix.is_empty() {
                    return Some(StateVector::born_probabilities(c, threads));
                }
                let k = match bases.iter().position(|(p, _)| *p == prefix) {
                    Some(k) => k,
                    None => {
                        bases.push((prefix, StateVector::from_gates(n, prefix, threads)));
                        bases.len() - 1
                    }
                };
                Some(bases[k].1.probabilities_xor(mask.index(), threads))
            })
            .collect();
        for (_, sv) in bases {
            sv.recycle();
        }
        borns
    }

    /// Whether synthesizing the log beats sampling `shots` outcomes one by
    /// one: composing the channel costs `O(support · 2^n)`, the per-shot
    /// path roughly `O(shots · n)` after its alias table is built.
    fn synthesis_pays_off(&self, born: &[f64], shots: u64) -> bool {
        if !self.shot_synthesis || self.n_qubits() > 14 {
            return false;
        }
        let support = born.iter().filter(|&&p| p > 0.0).count();
        let compose_cost = support as u128 * born.len() as u128;
        compose_cost <= shots as u128 * self.n_qubits().max(1) as u128
    }

    /// Per-shot sampling + readout corruption from a fixed state, densely
    /// accumulated.
    fn corrupt_shots_dense(
        &self,
        sampler: &qsim::AliasSampler,
        shots: u64,
        dense: &mut [u64],
        counts: &mut Counts,
        rng: &mut dyn RngCore,
    ) {
        let n = self.n_qubits();
        for _ in 0..shots {
            let ideal = BitString::from_value(sampler.sample(rng) as u64, n);
            let observed = self.readout.corrupt(ideal, rng);
            if n <= MAX_DENSE_WIDTH {
                dense[observed.index()] += 1;
            } else {
                counts.record(observed);
            }
        }
    }

    /// The shared core of [`Executor::run`] and [`Executor::run_groups`]:
    /// runs one circuit, optionally against a pre-computed Born
    /// distribution (from the variant-amortization memo).
    ///
    /// In the readout-only regime only the Born distribution is needed —
    /// both the synthesis and per-shot paths sample from it — so a memoized
    /// `born` skips circuit evolution entirely and the result is bitwise
    /// identical to the unmemoized path (which derives the same vector via
    /// [`StateVector::born_probabilities`]). With gate noise on, `born` is
    /// ignored and full Monte-Carlo trajectory simulation runs.
    fn run_with_born(
        &self,
        circuit: &Circuit,
        born: Option<&[f64]>,
        shots: u64,
        rng: &mut dyn RngCore,
    ) -> Counts {
        assert_eq!(
            circuit.n_qubits(),
            self.n_qubits(),
            "circuit width mismatch"
        );
        let n = self.n_qubits();
        if shots == 0 {
            return Counts::new(n);
        }
        if self.gate_noise.is_ideal() {
            let born_owned;
            let born = match born {
                Some(b) => b,
                None => {
                    born_owned = StateVector::born_probabilities(circuit, self.sim_threads());
                    &born_owned[..]
                }
            };
            if self.synthesis_pays_off(born, shots) {
                // Exact-channel shot synthesis: one channel composition, one
                // multinomial draw, cost independent of `shots`.
                let observed = self
                    .readout
                    .apply_to_distribution(&Distribution::from_probabilities(n, born.to_vec()));
                return Counts::synthesize_from(&observed, shots, rng);
            }
            let sampler = qsim::AliasSampler::new(born);
            let mut dense = vec![0u64; if n <= MAX_DENSE_WIDTH { 1usize << n } else { 0 }];
            let mut counts = Counts::new(n);
            self.corrupt_shots_dense(&sampler, shots, &mut dense, &mut counts, rng);
            return if n <= MAX_DENSE_WIDTH {
                Counts::from_dense(n, &dense)
            } else {
                counts
            };
        }
        // Gate noise: split shots across Monte-Carlo fault trajectories.
        // Trailing X gates are themselves fault sites here, so no variant
        // shortcut applies; the base state is still evolved fused.
        let ideal_psi = StateVector::from_circuit(circuit);
        let n_traj = shots.min(self.max_trajectories);
        let base = shots / n_traj;
        let extra = shots % n_traj;
        let ideal_sampler = ideal_psi.sampler();
        // The alias table owns its weights; the amplitude buffer can go
        // back to the arena for the trajectory states to reuse.
        ideal_psi.recycle();
        let mut dense = vec![0u64; if n <= MAX_DENSE_WIDTH { 1usize << n } else { 0 }];
        let mut counts = Counts::new(n);
        for t in 0..n_traj {
            let traj_shots = base + u64::from(t < extra);
            let (traj_circuit, faults) = self.gate_noise.sample_trajectory(circuit, rng);
            let sampler;
            let active = if faults == 0 {
                &ideal_sampler
            } else {
                let traj_psi = StateVector::from_circuit(&traj_circuit);
                sampler = traj_psi.sampler();
                traj_psi.recycle();
                &sampler
            };
            self.corrupt_shots_dense(active, traj_shots, &mut dense, &mut counts, rng);
        }
        if n <= MAX_DENSE_WIDTH {
            Counts::from_dense(n, &dense)
        } else {
            counts
        }
    }
}

impl Executor for NoisyExecutor {
    fn n_qubits(&self) -> usize {
        self.readout.n_qubits()
    }

    fn run(&self, circuit: &Circuit, shots: u64, rng: &mut dyn RngCore) -> Counts {
        self.check_exec_fault();
        self.run_with_born(circuit, None, shots, rng)
    }

    fn run_groups(
        &self,
        circuits: &[Circuit],
        shots: &[u64],
        rng: &mut dyn RngCore,
    ) -> Vec<Counts> {
        assert_eq!(
            circuits.len(),
            shots.len(),
            "one shot budget per circuit required"
        );
        // One fault arrival for the whole sweep, not one per circuit or
        // per worker: the scripted sequence must not depend on sweep
        // decomposition or the thread pool.
        self.check_exec_fault();
        // One seed per circuit, drawn sequentially before any dispatch: the
        // output is bitwise independent of the worker count and identical
        // to the serial default implementation.
        let seeds: Vec<u64> = circuits.iter().map(|_| rng.next_u64()).collect();
        // Variant amortization: every distinct base circuit in the sweep is
        // simulated exactly once (on the caller thread, threaded for large
        // registers); trailing-X variants reuse it by XOR permutation.
        let borns = self.memoized_borns(circuits);
        let threads = self.threads.min(circuits.len()).max(1);
        if threads == 1 {
            return circuits
                .iter()
                .zip(shots)
                .zip(&seeds)
                .zip(&borns)
                .map(|(((c, &s), &seed), born)| {
                    let mut circuit_rng = StdRng::seed_from_u64(seed);
                    self.run_with_born(c, born.as_ref().map(|b| &b[..]), s, &mut circuit_rng)
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Counts>>> = circuits.iter().map(|_| Mutex::new(None)).collect();
        // Circuit-granularity parallelism on the persistent pool: workers
        // pull circuit indices from a shared cursor, so a whole
        // characterization sweep reuses one set of parked threads (and
        // each worker's thread-local statevector arena stays warm across
        // the batch). Which worker runs which circuit is irrelevant to the
        // output — every circuit's RNG is seeded from `seeds[i]`.
        qsim::pool::run(threads, &|_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= circuits.len() {
                break;
            }
            let mut circuit_rng = StdRng::seed_from_u64(seeds[i]);
            let log = self.run_with_born(
                &circuits[i],
                borns[i].as_ref().map(|b| &b[..]),
                shots[i],
                &mut circuit_rng,
            );
            *slots[i].lock().expect("result slot poisoned") = Some(log);
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index was claimed by a worker")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::BitString;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bs(s: &str) -> BitString {
        s.parse().unwrap()
    }

    #[test]
    fn ideal_executor_reproduces_circuit_output() {
        let exec = IdealExecutor::new(2);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let log = exec.run(&c, 5000, &mut rng);
        assert_eq!(log.total(), 5000);
        let f00 = log.frequency(&bs("00"));
        assert!((f00 - 0.5).abs() < 0.03, "f00 = {f00}");
        assert_eq!(log.get(&bs("01")), 0);
    }

    #[test]
    fn readout_only_executor_matches_exact_distribution() {
        let dev = DeviceModel::ibmqx4();
        let exec = NoisyExecutor::readout_only(&dev);
        let c = Circuit::basis_state_preparation(bs("11010"));
        let exact = exec.exact_readout_distribution(&c);
        let mut rng = StdRng::seed_from_u64(21);
        let log = exec.run(&c, 60_000, &mut rng);
        for s in BitString::all(5) {
            assert!(
                (log.frequency(&s) - exact.probability_of(s)).abs() < 0.012,
                "{s}: {} vs {}",
                log.frequency(&s),
                exact.probability_of(s)
            );
        }
    }

    #[test]
    fn synthesis_and_per_shot_paths_agree_statistically() {
        let dev = DeviceModel::ibmqx2();
        let synth = NoisyExecutor::readout_only(&dev);
        let per_shot = NoisyExecutor::readout_only(&dev).with_shot_synthesis(false);
        let c = Circuit::basis_state_preparation(bs("10110"));
        let shots = 60_000u64;
        let a = synth.run(&c, shots, &mut StdRng::seed_from_u64(4));
        let b = per_shot.run(&c, shots, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.total(), shots);
        assert_eq!(b.total(), shots);
        for s in BitString::all(5) {
            assert!(
                (a.frequency(&s) - b.frequency(&s)).abs() < 0.012,
                "{s}: synth {} vs per-shot {}",
                a.frequency(&s),
                b.frequency(&s)
            );
        }
    }

    #[test]
    fn gate_noise_reduces_success() {
        let dev = DeviceModel::ibmqx2();
        let mut ghz = Circuit::new(5);
        ghz.h(0);
        for q in 0..4 {
            ghz.cx(q, q + 1);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = NoisyExecutor::from_device(&dev);
        let readout_only = NoisyExecutor::readout_only(&dev);
        let full = noisy.run(&ghz, 8000, &mut rng);
        let ro = readout_only.run(&ghz, 8000, &mut rng);
        let ok =
            |log: &Counts| log.frequency(&BitString::zeros(5)) + log.frequency(&BitString::ones(5));
        assert!(
            ok(&full) < ok(&ro),
            "gate noise should lower success: {} vs {}",
            ok(&full),
            ok(&ro)
        );
        // But not destroy the signal entirely.
        assert!(ok(&full) > 0.3);
    }

    #[test]
    fn trajectory_cap_respected_and_totals_exact() {
        let dev = DeviceModel::ibmqx4();
        let exec = NoisyExecutor::from_device(&dev).with_max_trajectories(7);
        let c = Circuit::uniform_superposition(5);
        let mut rng = StdRng::seed_from_u64(9);
        let log = exec.run(&c, 1000, &mut rng);
        assert_eq!(log.total(), 1000);
        let log = exec.run(&c, 3, &mut rng);
        assert_eq!(log.total(), 3);
        let log = exec.run(&c, 0, &mut rng);
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn ideal_device_full_stack_is_error_free() {
        let dev = DeviceModel::ideal(4);
        let exec = NoisyExecutor::from_device(&dev);
        let c = Circuit::basis_state_preparation(bs("1011"));
        let mut rng = StdRng::seed_from_u64(2);
        let log = exec.run(&c, 500, &mut rng);
        assert_eq!(log.get(&bs("1011")), 500);
    }

    #[test]
    fn invert_and_measure_effect_visible() {
        // The heart of the paper: measuring 11111 through the inverted mode
        // (X on every qubit, then XOR-correct) succeeds more often than
        // measuring it directly on a biased machine.
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev);
        let mut rng = StdRng::seed_from_u64(17);
        let ones = BitString::ones(5);

        let direct = Circuit::basis_state_preparation(ones);
        let direct_log = exec.run(&direct, 16_000, &mut rng);
        let pst_direct = direct_log.frequency(&ones);

        let inverted = direct.with_premeasure_inversion(ones);
        let inv_log = exec.run(&inverted, 16_000, &mut rng).xor_corrected(ones);
        let pst_inverted = inv_log.frequency(&ones);

        assert!(
            pst_inverted > pst_direct + 0.1,
            "inversion should help: direct {pst_direct}, inverted {pst_inverted}"
        );
    }

    #[test]
    fn run_groups_is_independent_of_thread_count() {
        let dev = DeviceModel::ibmqx4();
        let circuits: Vec<Circuit> = BitString::all(5)
            .map(Circuit::basis_state_preparation)
            .collect();
        let shots: Vec<u64> = (0..circuits.len() as u64).map(|i| 50 + 17 * i).collect();
        let sweep = |threads: usize| {
            let exec = NoisyExecutor::from_device(&dev).with_threads(threads);
            let mut rng = StdRng::seed_from_u64(0xAB);
            exec.run_groups(&circuits, &shots, &mut rng)
        };
        let serial = sweep(1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, sweep(threads), "thread count {threads} diverged");
        }
        for (log, &s) in serial.iter().zip(&shots) {
            assert_eq!(log.total(), s);
        }
    }

    #[test]
    fn run_batch_uniform_budget() {
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev).with_threads(4);
        let circuits: Vec<Circuit> = ["00000", "11111", "10101"]
            .iter()
            .map(|s| Circuit::basis_state_preparation(bs(s)))
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let logs = exec.run_batch(&circuits, 300, &mut rng);
        assert_eq!(logs.len(), 3);
        for log in &logs {
            assert_eq!(log.total(), 300);
        }
        // Each log is dominated by its own prepared state.
        assert_eq!(logs[0].mode(), Some(bs("00000")));
        assert_eq!(logs[1].mode(), Some(bs("11111")));
    }

    #[test]
    fn run_groups_empty_and_zero_shot_edges() {
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev).with_threads(2);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(exec.run_groups(&[], &[], &mut rng).is_empty());
        let c = Circuit::new(5);
        let logs = exec.run_groups(std::slice::from_ref(&c), &[0], &mut rng);
        assert_eq!(logs[0].total(), 0);
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_rejected() {
        let _ = NoisyExecutor::readout_only(&DeviceModel::ibmqx2()).with_threads(0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_circuit_panics() {
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::from_device(&dev);
        let c = Circuit::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        exec.run(&c, 1, &mut rng);
    }
}

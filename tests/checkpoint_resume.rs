//! Gate-noise checkpoints change no log: `NoisyExecutor` resumes each
//! unframed trajectory from an ideal-state checkpoint and shares each
//! sweep's trailing-X base, yet logs what re-simulating logs.
//!
//! The reference is the trajectory loop as it was before checkpoints:
//! the ideal alias table comes from simulating the whole circuit, framed
//! trajectories draw from it XOR the frame's mask, and every unframed one
//! simulates its faulted circuit from `|0…0⟩`. A sweep's reference runs
//! each circuit alone with the sub-seed `run_groups` draws for it.

use qnoise::{
    faulted_circuit, DeviceModel, Executor, GateNoise, NoisyExecutor, PauliFrame, ReadoutModel,
};
use qsim::{BitString, Circuit, Counts, StateVector};
use qworkloads::{Graph, Qaoa};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The re-simulating trajectory loop.
fn reference_run(
    exec: &NoisyExecutor,
    circuit: &Circuit,
    shots: u64,
    rng: &mut dyn RngCore,
) -> Counts {
    let n = circuit.n_qubits();
    let mut counts = Counts::new(n);
    if shots == 0 {
        return counts;
    }
    let ideal = StateVector::from_circuit(circuit).sampler();
    let sites = exec.gate_noise().fault_sites(circuit);
    let mut faults = Vec::new();
    let n_traj = shots.min(NoisyExecutor::DEFAULT_MAX_TRAJECTORIES);
    for t in 0..n_traj {
        let traj_shots = shots / n_traj + u64::from(t < shots % n_traj);
        sites.sample_faults(rng, &mut faults);
        let (sampler, flip) = match PauliFrame::propagate(circuit, &faults) {
            Some(frame) => (ideal.clone(), frame.x),
            None => (
                StateVector::from_circuit(&faulted_circuit(circuit, &faults)).sampler(),
                0,
            ),
        };
        for _ in 0..traj_shots {
            let outcome = BitString::from_value((sampler.sample(rng) ^ flip) as u64, n);
            counts.record(exec.readout().corrupt(outcome, rng));
        }
    }
    counts
}

/// `run_groups`' seeding scheme over the reference loop.
fn reference_groups(
    exec: &NoisyExecutor,
    circuits: &[Circuit],
    shots: &[u64],
    rng: &mut dyn RngCore,
) -> Vec<Counts> {
    let seeds: Vec<u64> = circuits.iter().map(|_| rng.next_u64()).collect();
    circuits
        .iter()
        .zip(shots)
        .zip(seeds)
        .map(|((c, &s), seed)| reference_run(exec, c, s, &mut StdRng::seed_from_u64(seed)))
        .collect()
}

fn qaoa_ring(n: usize) -> Circuit {
    Qaoa::new(Graph::ring(n), vec![0.45, 0.8], vec![0.35, 0.2]).circuit()
}

/// A random circuit of Rx, Rz and Rzz rotations: almost no fault on it
/// reaches the readout as a frame.
fn random_rotations(n: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..rng.gen_range(8..30) {
        let q = rng.gen_range(0..n);
        let theta = rng.gen_range(-3.0..3.0);
        match rng.gen_range(0..3) {
            0 => c.rx(q, theta),
            1 => c.rz(q, theta),
            _ => c.rzz(q, (q + rng.gen_range(1..n)) % n, theta),
        };
    }
    c
}

/// A noisy 5-qubit machine whose gates err often enough that most
/// trajectories resume from a checkpoint.
fn harsh_ibmqx2() -> NoisyExecutor {
    NoisyExecutor::new(
        DeviceModel::ibmqx2().readout(),
        GateNoise::uniform(5, 0.02, 0.08),
    )
}

#[test]
fn single_runs_log_what_resimulation_logs() {
    let qx2 = NoisyExecutor::from_device(&DeviceModel::ibmqx2());
    let melbourne = NoisyExecutor::from_device(&DeviceModel::ibmq_melbourne());
    let harsh = harsh_ibmqx2();
    let mut cases: Vec<(&NoisyExecutor, Circuit, u64, String)> = vec![
        (&qx2, qaoa_ring(5), 512, "QAOA-5".into()),
        (&harsh, qaoa_ring(5), 256, "QAOA-5, harsh".into()),
        (&melbourne, qaoa_ring(14), 24, "QAOA-14".into()),
    ];
    let mut rng = StdRng::seed_from_u64(0x5E5);
    for i in 0..12 {
        cases.push((
            &harsh,
            random_rotations(5, &mut rng),
            128,
            format!("random {i}"),
        ));
    }
    for (exec, circuit, shots, what) in &cases {
        for seed in 0..4 {
            let got = exec.run(circuit, *shots, &mut StdRng::seed_from_u64(seed));
            let want = reference_run(exec, circuit, *shots, &mut StdRng::seed_from_u64(seed));
            assert_eq!(got, want, "{what}, seed {seed}");
        }
    }
}

#[test]
fn swept_variants_log_what_resimulation_logs() {
    let harsh = harsh_ibmqx2();
    let melbourne = NoisyExecutor::from_device(&DeviceModel::ibmq_melbourne());
    let mut rng = StdRng::seed_from_u64(0xA1);
    let mut bases = vec![(&harsh, qaoa_ring(5), 64), (&melbourne, qaoa_ring(14), 10)];
    for _ in 0..4 {
        bases.push((&harsh, random_rotations(5, &mut rng), 64));
    }
    for (exec, base, shots) in &bases {
        let n = base.n_qubits();
        // SIM's four modes, then AIM-style targeted masks.
        let masks = [0, (1 << n) - 1, 0b0101, 0b1010, 0b0111, 0b1001];
        let circuits: Vec<Circuit> = masks
            .iter()
            .map(|&m| base.with_premeasure_inversion(BitString::from_value(m, n)))
            .collect();
        let budget = vec![*shots; circuits.len()];
        for seed in 0..3 {
            let got = exec.run_groups(&circuits, &budget, &mut StdRng::seed_from_u64(seed));
            let want = reference_groups(exec, &circuits, &budget, &mut StdRng::seed_from_u64(seed));
            assert_eq!(got, want, "{n}-qubit sweep, seed {seed}");
        }
    }
}

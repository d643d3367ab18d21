//! Bitwise contract of Pauli-frame trajectories: wherever the ideal output
//! is a basis state, `NoisyExecutor::run` under gate noise logs exactly
//! what re-simulating every faulted trajectory logs.
//!
//! The reference below is the trajectory loop as it was before frames:
//! per trajectory it draws the faults gate by gate, builds the faulted
//! circuit, simulates it from `|0…0⟩`, builds that state's alias table and
//! corrupts each shot through the readout channel. It keeps its own copy
//! of the fault draws, so a change to their order shows up here too.

use qnoise::{DeviceModel, Executor, NoisyExecutor, ReadoutModel};
use qsim::{BitString, Circuit, Counts, Gate, StateVector};
use qworkloads::BernsteinVazirani;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SEEDS: u64 = 50;

fn pauli(code: u8, q: usize) -> Option<Gate> {
    match code {
        0 => None,
        1 => Some(Gate::X(q)),
        2 => Some(Gate::Y(q)),
        _ => Some(Gate::Z(q)),
    }
}

/// One trajectory circuit, drawn gate by gate.
fn reference_trajectory(
    exec: &NoisyExecutor,
    circuit: &Circuit,
    rng: &mut dyn RngCore,
) -> (Circuit, usize) {
    let mut out = Circuit::new(circuit.n_qubits());
    let mut faults = 0;
    for g in circuit.gates() {
        out.push(*g);
        let p = exec.gate_noise().gate_error(g);
        if p > 0.0 && rng.gen::<f64>() < p {
            faults += 1;
            let qs = g.qubits();
            if qs.len() == 1 {
                out.push(pauli(rng.gen_range(0..3u8) + 1, qs[0]).unwrap());
            } else {
                let k = rng.gen_range(1..16u8);
                for (code, q) in [(k & 0b11, qs[0]), ((k >> 2) & 0b11, qs[1])] {
                    if let Some(p) = pauli(code, q) {
                        out.push(p);
                    }
                }
            }
        }
    }
    (out, faults)
}

/// The re-simulating trajectory loop, at the executor's default cap.
fn reference_run(
    exec: &NoisyExecutor,
    circuit: &Circuit,
    shots: u64,
    rng: &mut dyn RngCore,
) -> Counts {
    let n = circuit.n_qubits();
    let ideal = StateVector::from_circuit(circuit).sampler();
    let n_traj = shots.min(NoisyExecutor::DEFAULT_MAX_TRAJECTORIES);
    let mut counts = Counts::new(n);
    for t in 0..n_traj {
        let traj_shots = shots / n_traj + u64::from(t < shots % n_traj);
        let (traj, faults) = reference_trajectory(exec, circuit, rng);
        let sampler = if faults == 0 {
            ideal.clone()
        } else {
            StateVector::from_circuit(&traj).sampler()
        };
        for _ in 0..traj_shots {
            let outcome = BitString::from_value(sampler.sample(rng) as u64, n);
            counts.record(exec.readout().corrupt(outcome, rng));
        }
    }
    counts
}

fn assert_matches_reference(device: &DeviceModel, circuit: &Circuit, shots: u64, what: &str) {
    let exec = NoisyExecutor::from_device(device);
    for seed in 0..SEEDS {
        let framed = exec.run(circuit, shots, &mut StdRng::seed_from_u64(seed));
        let resimulated = reference_run(&exec, circuit, shots, &mut StdRng::seed_from_u64(seed));
        assert_eq!(
            framed,
            resimulated,
            "{what} on {}, seed {seed}",
            device.name()
        );
    }
}

#[test]
fn bv4_with_ancilla_matches_resimulation_on_five_qubit_machines() {
    for device in [DeviceModel::ibmqx2(), DeviceModel::ibmqx4()] {
        for key in ["1011", "0110", "1111"] {
            let bv = BernsteinVazirani::with_ancilla(key.parse().unwrap());
            assert_matches_reference(&device, bv.circuit(), 1024, &format!("BV-4 {key}"));
        }
    }
}

/// 64 shots rather than the service's 160: about a quarter of BV-13's
/// trajectories fault, so this still compares ~800 faulted 14-qubit
/// trajectories, and each costs the reference a full simulation.
#[test]
fn bv13_matches_resimulation_on_melbourne() {
    let bv = BernsteinVazirani::with_ancilla("1011001100101".parse().unwrap());
    assert_matches_reference(&DeviceModel::ibmq_melbourne(), bv.circuit(), 64, "BV-13");
}

#[test]
fn basis_state_preparations_match_resimulation() {
    let five = Circuit::basis_state_preparation("10110".parse().unwrap());
    assert_matches_reference(&DeviceModel::ibmqx2(), &five, 1024, "5-qubit preparation");
    let fourteen = Circuit::basis_state_preparation("10110011100101".parse().unwrap());
    assert_matches_reference(
        &DeviceModel::ibmq_melbourne(),
        &fourteen,
        160,
        "14-qubit preparation",
    );
}

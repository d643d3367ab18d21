//! Ideal-state checkpoints for gate-noise trajectories.
//!
//! A trajectory that no Pauli frame covers is re-simulated, yet its gates
//! before the first fault are the ideal circuit's. A [`Base`] evolves a
//! circuit's trailing-X base (its gates before the trailing X layer) once
//! along its fused program and copies the ideal state at one op boundary.
//! Each unframed trajectory whose first fault lies past that boundary then
//! resumes from the copy. It replays only the gates the copy's ops did not
//! cover, with its faults inserted, fused afresh. That is exact because
//! every op prefix covers a dependency-closed set of gates
//! ([`FusedProgram::gate_ops`]). The fused ops the resumed state has been
//! through are the ones a full re-simulation of the faulted circuit would
//! apply, so the amplitudes match it bit for bit whenever the variant has
//! no trailing X layer.
//!
//! Where the copy goes is chosen per base from the gate error rates. The
//! first op covering a fault is at or past op `k` with probability
//! `∏ (1 − p_g)` over the gates the ops before `k` absorb. The boundary
//! minimises the expected cost of the ops a resumed trajectory re-applies.
//! One copy is all the byte budget allows at 14 qubits, the widest
//! register a non-Clifford workload runs; circuits made only of gates a
//! frame always crosses never resume, so they take none.

use crate::gate_noise::{faulted_gates, GateNoise, PauliFault, PauliFrame};
use qsim::fuse::FusedProgram;
use qsim::{Checkpoint, Circuit, Distribution, Gate, StateVector};

/// Bytes of ideal state one base may hold at once: two 14-qubit states
/// (16 bytes per amplitude). The final base state counts against it, so a
/// base takes its checkpoint only up to 14 qubits.
pub(crate) const CHECKPOINT_BUDGET_BYTES: usize = (2 * 16) << 14;

/// One trailing-X base of a gate-noise run: its fused program and the
/// ideal-state checkpoint its trajectories resume from.
#[derive(Debug)]
pub(crate) struct Base {
    prog: FusedProgram,
    checkpoint: Option<Checkpoint>,
}

impl Base {
    /// Evolves `prefix` over an `n_qubits` register on exactly `threads`
    /// pool workers, copying the checkpoint `noise` calls for, and returns
    /// the base with its final ideal state.
    pub(crate) fn evolve(
        n_qubits: usize,
        prefix: &[Gate],
        noise: &GateNoise,
        threads: usize,
    ) -> (Base, StateVector) {
        let prog = FusedProgram::from_gates(n_qubits, prefix);
        let at = place_checkpoint(&prog, prefix, noise);
        let (state, checkpoint) = StateVector::evolve_with_checkpoint(&prog, at, threads);
        (Base { prog, checkpoint }, state)
    }

    /// [`Base::evolve`] for a base several trailing-X variants share:
    /// returns the final state's Born distribution instead of the state,
    /// half its size. A variant whose trailing X layer flips the bits of
    /// `mask` has the ideal distribution `born.permute_xor(mask)`, the
    /// values [`StateVector::probabilities_xor`] gives, bit for bit. The
    /// state's buffer goes back to this thread's arena for the trajectory
    /// states to reuse.
    pub(crate) fn shared(
        n_qubits: usize,
        prefix: &[Gate],
        noise: &GateNoise,
        threads: usize,
    ) -> (Base, Distribution) {
        let (base, state) = Self::evolve(n_qubits, prefix, noise, threads);
        let born = state.probabilities_xor(0, threads);
        state.recycle();
        (base, Distribution::from_probabilities(n_qubits, born))
    }

    /// The state of the trajectory of `circuit` (this base plus a
    /// trailing X layer) with `faults` inserted, resumed on one worker
    /// from the checkpoint when no fault lies before it, else from
    /// `|0…0⟩`. `replay` is scratch for the replayed gates.
    pub(crate) fn trajectory_state(
        &self,
        circuit: &Circuit,
        faults: &[PauliFault],
        replay: &mut Vec<Gate>,
    ) -> StateVector {
        let map = self.prog.gate_ops();
        // Gates past the base are the trailing X layer, after every op.
        let op_of = |gate: usize| map.get(gate).copied().unwrap_or(self.prog.n_ops());
        let first = faults.iter().map(|f| op_of(f.gate)).min().unwrap_or(0);
        let start = self.checkpoint.as_ref().filter(|cp| cp.op() <= first);
        let from = start.map_or(0, Checkpoint::op);
        replay.clear();
        faulted_gates(circuit, faults, |i| op_of(i) >= from, |g| replay.push(g));
        StateVector::resume(start, circuit.n_qubits(), replay, 1)
    }
}

/// The op boundary (in `1..n_ops`) of `prog`, the fused `prefix`, at
/// which to copy the ideal state, or `None` when no copy pays or fits.
/// Only a noisy circuit with a gate a frame can fail to cross ever
/// resumes, and the copy must fit the budget next to the final state.
fn place_checkpoint(prog: &FusedProgram, prefix: &[Gate], noise: &GateNoise) -> Option<usize> {
    let fits = 2 * (16usize << prog.n_qubits()) <= CHECKPOINT_BUDGET_BYTES;
    if !fits || noise.is_ideal() || prefix.iter().all(PauliFrame::always_crosses) {
        return None;
    }
    let rates: Vec<f64> = prefix.iter().map(|g| noise.gate_error(g)).collect();
    best_boundary(prog, &rates)
}

/// The op boundary `c` in `1..n_ops` that minimises the expected cost of
/// the ops a resumed trajectory re-applies, or `None` if none beats
/// resuming every trajectory from `|0…0⟩`. A trajectory whose first
/// covered op is `k` resumes at `c` when `c ≤ k` (else at `|0…0⟩`) and
/// re-applies the ops from there on. `rates` holds each gate's error
/// probability. Ties go to the later boundary, and to no boundary at all.
fn best_boundary(prog: &FusedProgram, rates: &[f64]) -> Option<usize> {
    let n = prog.n_ops();
    // Probability that every gate the op absorbs is fault-free.
    let mut clean = vec![1.0f64; n + 1];
    for (&op, &p) in prog.gate_ops().iter().zip(rates) {
        clean[op] *= 1.0 - p;
    }
    // below[k] = P(first covered op < k) = 1 − ∏_{j<k} clean[j].
    let mut below = vec![0.0f64; n + 1];
    let mut reach = 1.0f64;
    for k in 0..n {
        reach *= clean[k];
        below[k + 1] = 1.0 - reach;
    }
    // suffix[c] = cost of re-applying ops[c..].
    let mut suffix = vec![0.0f64; n + 1];
    for c in (0..n).rev() {
        suffix[c] = suffix[c + 1] + f64::from(prog.ops()[c].cost());
    }
    // Trajectories whose first covered op is before c start over; the
    // rest resume at c.
    let cost = |c: usize| suffix[0] * below[c] + suffix[c] * (below[n] - below[c]);
    let mut best = (suffix[0] * below[n], None);
    for c in (1..n).rev() {
        if cost(c) < best.0 {
            best = (cost(c), Some(c));
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::BitString;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Expected re-applied op cost of a boundary set, straight from the
    /// definition.
    fn expected_cost(prog: &FusedProgram, rates: &[f64], at: &[usize]) -> f64 {
        let n = prog.n_ops();
        let mut reach = 1.0;
        let mut total = 0.0;
        for k in 0..n {
            let clean: f64 = prog
                .gate_ops()
                .iter()
                .zip(rates)
                .filter(|&(&op, _)| op == k)
                .map(|(_, &p)| 1.0 - p)
                .product();
            let c = at.iter().rev().find(|&&c| c <= k).copied().unwrap_or(0);
            let replay: u32 = prog.ops()[c..].iter().map(|op| op.cost()).sum();
            total += reach * (1.0 - clean) * f64::from(replay);
            reach *= clean;
        }
        total
    }

    #[test]
    fn placement_is_the_exact_minimum() {
        let mut rng = StdRng::seed_from_u64(0xC4EC);
        for case in 0..200 {
            let n_qubits = rng.gen_range(2..6usize);
            let mut c = Circuit::new(n_qubits);
            for _ in 0..rng.gen_range(1..16) {
                let q = rng.gen_range(0..n_qubits);
                let r = (q + rng.gen_range(1..n_qubits)) % n_qubits;
                let theta = rng.gen_range(-3.0..3.0);
                match rng.gen_range(0..4) {
                    0 => c.h(q),
                    1 => c.rx(q, theta),
                    2 => c.rzz(q, r, theta),
                    _ => c.cx(q, r),
                };
            }
            let prog = FusedProgram::from_circuit(&c);
            let rates: Vec<f64> = c.gates().iter().map(|_| rng.gen_range(0.0..0.2)).collect();
            let at: Vec<usize> = best_boundary(&prog, &rates).into_iter().collect();
            assert!(at.iter().all(|&k| (1..prog.n_ops()).contains(&k)), "{at:?}");
            let got = expected_cost(&prog, &rates, &at);
            let best = (1..prog.n_ops())
                .map(|k| expected_cost(&prog, &rates, &[k]))
                .fold(expected_cost(&prog, &rates, &[]), f64::min);
            assert!(
                got <= best + 1e-12,
                "case {case}: {at:?} costs {got}, best {best}"
            );
        }
    }

    /// Resumed trajectories of a base's trailing-X variants: bitwise the
    /// re-simulated amplitudes without an X layer, and the re-simulated
    /// Born distribution within 1e-15 with one.
    #[test]
    fn resumed_trajectories_match_resimulation() {
        let n = 5;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for (gamma, beta) in [(0.45, 0.35), (0.8, 0.2)] {
            for q in 0..n {
                c.rzz(q, (q + 1) % n, gamma);
            }
            for q in 0..n {
                c.rx(q, 2.0 * beta);
            }
        }
        let noise = GateNoise::uniform(n, 0.02, 0.08);
        let (base, _) = Base::evolve(n, c.gates(), &noise, 1);
        let checkpoint = base
            .checkpoint
            .as_ref()
            .expect("a noisy QAOA base takes a checkpoint");
        let mut rng = StdRng::seed_from_u64(0x7E5);
        let (mut resumed_late, mut replay, mut faults) = (0, Vec::new(), Vec::new());
        for mask in [0, 0b11111, 0b01010, 0b10011] {
            let variant = c.with_premeasure_inversion(BitString::from_value(mask, n));
            let sites = noise.fault_sites(&variant);
            for _ in 0..400 {
                sites.sample_faults(&mut rng, &mut faults);
                if PauliFrame::propagate(&variant, &faults).is_some() {
                    continue;
                }
                let map = base.prog.gate_ops();
                let first = faults
                    .iter()
                    .map(|f| map.get(f.gate).unwrap_or(&usize::MAX))
                    .min();
                resumed_late += usize::from(first >= Some(&checkpoint.op()));
                let got = base.trajectory_state(&variant, &faults, &mut replay);
                let want = StateVector::from_circuit(&crate::faulted_circuit(&variant, &faults));
                if mask == 0 {
                    assert_eq!(got, want, "faults {faults:?}");
                    continue;
                }
                for (p, q) in got.probabilities().iter().zip(&want.probabilities()) {
                    assert!((p - q).abs() <= 1e-15, "mask {mask:b}, faults {faults:?}");
                }
            }
        }
        assert!(
            resumed_late > 100,
            "{resumed_late} resumed from a checkpoint"
        );
    }

    #[test]
    fn fault_free_and_clifford_bases_take_no_checkpoints() {
        let mut qaoa = Circuit::new(3);
        qaoa.h(0)
            .h(1)
            .h(2)
            .rzz(0, 1, 0.4)
            .rzz(1, 2, 0.4)
            .rx(0, 0.3)
            .rx(1, 0.3);
        let prog = FusedProgram::from_circuit(&qaoa);
        assert_eq!(best_boundary(&prog, &vec![0.0; qaoa.len()]), None);
        assert!(best_boundary(&prog, &vec![0.05; qaoa.len()]).is_some());
        let mut clifford = Circuit::new(3);
        clifford.h(0).cx(0, 1).cx(1, 2).h(2).s(1);
        let noise = GateNoise::uniform(3, 0.01, 0.05);
        let (base, _) = Base::evolve(3, clifford.gates(), &noise, 1);
        assert!(base.checkpoint.is_none());
    }
}

//! Depolarizing gate noise via Monte-Carlo Pauli trajectories.
//!
//! Every gate on NISQ hardware is imperfect: single-qubit gates err at
//! 0.1–0.3 %, two-qubit gates at 2–5 % (paper §2.3). The standard stochastic
//! model inserts a uniformly random non-identity Pauli on the gate's qubits
//! with the gate's error probability. One trajectory is one sampled *fault
//! list* ([`FaultSites::sample_faults`]): which gates erred, and which Pauli
//! each inserted.
//!
//! A fault list is resolved in one of two ways:
//!
//! * **As a Pauli frame** ([`PauliFrame::propagate`]). Each fault is pushed
//!   through the rest of the circuit as a pair of bit masks `(x, z)`.
//!   Clifford gates (X, Y, Z, H, S, S†, CX, CZ, SWAP) map a Pauli to a
//!   Pauli, and a gate the frame commutes with passes it unchanged. If every
//!   gate after the first fault is one of these, the faulted circuit equals
//!   the ideal circuit followed by the frame `X^x Z^z` (up to a global
//!   phase). At measurement the `Z` part only changes phases and the `X`
//!   part permutes basis states, so the faulted Born distribution is the
//!   ideal one relabeled by `i → i ^ x`: the trajectory needs no
//!   simulation, only the ideal outcome XOR `x`.
//! * **By simulation** ([`faulted_circuit`]), when some later gate neither
//!   maps the frame to a Pauli nor commutes with it (an X fault before an
//!   Rz, say).

use qsim::{Circuit, Gate};
use rand::{Rng, RngCore};
use std::collections::HashMap;

/// Per-gate depolarizing error rates for a device.
///
/// # Examples
///
/// ```
/// use qnoise::GateNoise;
/// use qsim::Gate;
///
/// let noise = GateNoise::uniform(5, 0.002, 0.03);
/// assert_eq!(noise.gate_error(&Gate::X(1)), 0.002);
/// assert_eq!(noise.gate_error(&Gate::Cx { control: 0, target: 1 }), 0.03);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GateNoise {
    p1q: Vec<f64>,
    p2q_default: f64,
    p2q_edges: HashMap<(usize, usize), f64>,
}

impl GateNoise {
    /// Creates a noise model with per-qubit single-qubit error rates and a
    /// default two-qubit rate.
    ///
    /// # Panics
    ///
    /// Panics if `p1q` is empty or any rate is outside `[0, 1]`.
    pub fn new(p1q: Vec<f64>, p2q_default: f64) -> Self {
        assert!(!p1q.is_empty(), "need at least one qubit");
        for &p in &p1q {
            assert!((0.0..=1.0).contains(&p), "1q error rate {p} out of range");
        }
        assert!(
            (0.0..=1.0).contains(&p2q_default),
            "2q error rate {p2q_default} out of range"
        );
        GateNoise {
            p1q,
            p2q_default,
            p2q_edges: HashMap::new(),
        }
    }

    /// Uniform rates across all qubits.
    pub fn uniform(n_qubits: usize, p1q: f64, p2q: f64) -> Self {
        GateNoise::new(vec![p1q; n_qubits], p2q)
    }

    /// A noiseless model.
    pub fn ideal(n_qubits: usize) -> Self {
        GateNoise::uniform(n_qubits, 0.0, 0.0)
    }

    /// Overrides the two-qubit error rate on a specific (unordered) edge.
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside `[0, 1]` or the qubits coincide.
    pub fn set_edge_error(&mut self, a: usize, b: usize, p: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&p), "2q error rate {p} out of range");
        assert_ne!(a, b, "edge endpoints must differ");
        self.p2q_edges.insert((a.min(b), a.max(b)), p);
        self
    }

    /// The number of qubits covered.
    pub fn n_qubits(&self) -> usize {
        self.p1q.len()
    }

    /// The error probability of a specific gate instance.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit outside the model.
    pub fn gate_error(&self, gate: &Gate) -> f64 {
        let qs = gate.qubits();
        for &q in &qs {
            assert!(q < self.n_qubits(), "gate {gate} outside noise model");
        }
        if gate.is_two_qubit() {
            let key = (qs[0].min(qs[1]), qs[0].max(qs[1]));
            self.p2q_edges
                .get(&key)
                .copied()
                .unwrap_or(self.p2q_default)
        } else {
            self.p1q[qs[0]]
        }
    }

    /// Whether every error rate is zero.
    pub fn is_ideal(&self) -> bool {
        self.p1q.iter().all(|&p| p == 0.0)
            && self.p2q_default == 0.0
            && self.p2q_edges.values().all(|&p| p == 0.0)
    }

    /// The probability that an execution of `circuit` suffers *no* gate
    /// fault — the fraction of trajectories that follow the ideal circuit.
    pub fn fault_free_probability(&self, circuit: &Circuit) -> f64 {
        circuit
            .gates()
            .iter()
            .map(|g| 1.0 - self.gate_error(g))
            .product()
    }

    /// Resolves `circuit`'s fault sites: one error rate per gate, looked up
    /// once so that per-trajectory sampling does no table lookups.
    ///
    /// # Panics
    ///
    /// Panics if a gate references a qubit outside the model.
    pub fn fault_sites<'c>(&self, circuit: &'c Circuit) -> FaultSites<'c> {
        FaultSites {
            circuit,
            rates: circuit.gates().iter().map(|g| self.gate_error(g)).collect(),
        }
    }

    /// Samples a faulted copy of `circuit`: after each gate, with the gate's
    /// error probability, a uniformly random non-identity Pauli is inserted
    /// on the gate's qubit(s). This is [`FaultSites::sample_faults`]
    /// followed by [`faulted_circuit`], and makes the same draws.
    ///
    /// Returns the trajectory circuit and the number of faults inserted.
    /// With zero faults the returned circuit equals the input.
    pub fn sample_trajectory(&self, circuit: &Circuit, rng: &mut dyn RngCore) -> (Circuit, usize) {
        let mut faults = Vec::new();
        self.fault_sites(circuit).sample_faults(rng, &mut faults);
        (faulted_circuit(circuit, &faults), faults.len())
    }
}

/// One sampled gate fault: the Pauli inserted right after gate `gate`.
///
/// Paulis are coded `0 = I`, `1 = X`, `2 = Y`, `3 = Z`. `a` acts on the
/// gate's first qubit (the control of a CX or CZ) and `b` on its second;
/// `b` is always `I` for a single-qubit gate, and `(a, b)` is never
/// `(I, I)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauliFault {
    /// Index of the erring gate in its circuit.
    pub gate: usize,
    /// The Pauli on the gate's first qubit.
    pub a: u8,
    /// The Pauli on the gate's second qubit.
    pub b: u8,
}

/// A circuit together with the error rate of each of its gates — built
/// once per run by [`GateNoise::fault_sites`], then sampled once per
/// trajectory.
#[derive(Debug, Clone)]
pub struct FaultSites<'c> {
    circuit: &'c Circuit,
    rates: Vec<f64>,
}

impl FaultSites<'_> {
    /// Samples one trajectory's faults into `faults` (cleared first), in
    /// gate order: after each gate, with the gate's error probability, a
    /// uniformly random non-identity Pauli on the gate's qubit(s).
    ///
    /// This is the only routine that draws gate faults. Per gate with a
    /// non-zero rate it draws one uniform `f64`; per fault it draws one
    /// Pauli index (1 of 3 for a single-qubit gate, 1 of 15 for a two-qubit
    /// gate).
    pub fn sample_faults(&self, rng: &mut dyn RngCore, faults: &mut Vec<PauliFault>) {
        faults.clear();
        for (gate, (g, &p)) in self.circuit.gates().iter().zip(&self.rates).enumerate() {
            if p > 0.0 && rng.gen::<f64>() < p {
                let (a, b) = if g.is_two_qubit() {
                    // Uniform over the 15 non-identity two-qubit Paulis:
                    // pick (P_a, P_b) from {I,X,Y,Z}² minus (I,I).
                    let k = rng.gen_range(1..16u8);
                    (k & 0b11, (k >> 2) & 0b11)
                } else {
                    (rng.gen_range(0..3u8) + 1, 0)
                };
                faults.push(PauliFault { gate, a, b });
            }
        }
    }
}

/// Builds the trajectory circuit of a fault list: `circuit` with each
/// fault's Paulis inserted right after its gate.
///
/// # Panics
///
/// Panics if `faults` is not sorted by gate index or names a gate outside
/// `circuit`.
pub fn faulted_circuit(circuit: &Circuit, faults: &[PauliFault]) -> Circuit {
    let mut out = Circuit::new(circuit.n_qubits());
    faulted_gates(
        circuit,
        faults,
        |_| true,
        |g| {
            out.push(g);
        },
    );
    out
}

/// Emits the kept gates of `circuit` in order, each followed by its
/// faults' Paulis: [`faulted_circuit`] restricted to the gates whose
/// index `keep` accepts. A resumed trajectory replays the gates its
/// checkpoint did not cover this way.
///
/// # Panics
///
/// Panics if `faults` is not sorted by gate index, names a gate outside
/// `circuit`, or names a gate `keep` rejects.
pub(crate) fn faulted_gates(
    circuit: &Circuit,
    faults: &[PauliFault],
    keep: impl Fn(usize) -> bool,
    mut emit: impl FnMut(Gate),
) {
    let mut pending = faults.iter().peekable();
    for (i, g) in circuit.gates().iter().enumerate() {
        if !keep(i) {
            assert!(
                pending.peek().is_none_or(|f| f.gate != i),
                "fault on a skipped gate"
            );
            continue;
        }
        emit(*g);
        while let Some(f) = pending.next_if(|f| f.gate == i) {
            for (&code, &q) in [f.a, f.b].iter().zip(&g.qubits()) {
                if let Some(p) = pauli_gate(code, q) {
                    emit(p);
                }
            }
        }
    }
    assert!(pending.next().is_none(), "fault list not in gate order");
}

/// A Pauli operator `X^x Z^z` (up to phase) on a register, as one bit
/// per qubit in each of two masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PauliFrame {
    /// Qubits whose Pauli has an X part (X or Y): the XOR mask the frame
    /// applies to a measured outcome.
    pub x: usize,
    /// Qubits whose Pauli has a Z part (Z or Y).
    pub z: usize,
}

impl PauliFrame {
    /// Pushes every fault of `faults` (sorted by gate index) to the end of
    /// `circuit` and returns the frame they leave before measurement, or
    /// `None` if some gate after the first fault neither maps the frame to
    /// a Pauli nor commutes with it.
    ///
    /// When a frame is returned, the faulted circuit's Born distribution
    /// is exactly the ideal one under the relabeling `i → i ^ x` (see the
    /// module docs). Rules, with `q` the gate's qubit:
    ///
    /// * X, Y, Z leave the frame unchanged (Paulis commute up to phase);
    /// * H swaps `x_q` and `z_q`; S and S† set `z_q ^= x_q`;
    /// * CX sets `x_t ^= x_c` and `z_c ^= z_t`; CZ adds each qubit's `x`
    ///   to the other's `z`; SWAP swaps the two qubits' bits;
    /// * T, T†, Rz and Phase pass when `x_q = 0`, Rx when `z_q = 0`, Ry
    ///   when `x_q = z_q`, and Rzz when `x_a = x_b`; otherwise `None`.
    ///
    /// # Panics
    ///
    /// Panics if `faults` is not sorted by gate index or names a gate
    /// outside `circuit`.
    pub fn propagate(circuit: &Circuit, faults: &[PauliFault]) -> Option<PauliFrame> {
        let mut frame = PauliFrame::default();
        let Some(first) = faults.first() else {
            return Some(frame);
        };
        let gates = circuit.gates();
        let mut pending = faults.iter().peekable();
        for (i, g) in gates.iter().enumerate().skip(first.gate) {
            // Gate `i` acts on the faults of earlier gates, then its own
            // fault joins the frame.
            frame.conjugate(g)?;
            while let Some(f) = pending.next_if(|f| f.gate == i) {
                for (&code, &q) in [f.a, f.b].iter().zip(&g.qubits()) {
                    frame.inject(code, q);
                }
            }
        }
        assert!(pending.next().is_none(), "fault list not in gate order");
        Some(frame)
    }

    /// Whether the frame crosses `gate` whatever it carries, i.e. every
    /// Pauli on the gate's qubits conjugates to a Pauli: true for the
    /// Cliffords (X, Y, Z, H, S, S†, CX, CZ, SWAP). A circuit made only of
    /// these resolves every fault list as a frame.
    pub(crate) fn always_crosses(gate: &Gate) -> bool {
        let qubits = gate.qubits();
        // Every subset of the gate's qubits, as a register mask.
        let masks: Vec<usize> = (0..1usize << qubits.len())
            .map(|bits| {
                let on = qubits
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bits >> i & 1 == 1);
                on.map(|(_, &q)| 1 << q).sum()
            })
            .collect();
        masks.iter().all(|&x| {
            masks
                .iter()
                .all(|&z| PauliFrame { x, z }.conjugate(gate).is_some())
        })
    }

    /// Multiplies the Pauli with `code` on qubit `q` into the frame.
    fn inject(&mut self, code: u8, q: usize) {
        // X = 1, Y = 2 have an X part; Y = 2, Z = 3 have a Z part.
        self.x ^= usize::from(code == 1 || code == 2) << q;
        self.z ^= usize::from(code >= 2) << q;
    }

    /// Moves the frame past `gate`: `G P = P' G`. Returns `None` if `P'`
    /// is not a Pauli.
    fn conjugate(&mut self, gate: &Gate) -> Option<()> {
        let bit = |m: usize, q: usize| (m >> q) & 1;
        match *gate {
            Gate::X(_) | Gate::Y(_) | Gate::Z(_) => {}
            Gate::H(q) => {
                let d = bit(self.x ^ self.z, q) << q;
                self.x ^= d;
                self.z ^= d;
            }
            Gate::S(q) | Gate::Sdg(q) => self.z ^= self.x & (1 << q),
            Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Rz { qubit: q, .. }
            | Gate::Phase { qubit: q, .. } => {
                if bit(self.x, q) != 0 {
                    return None;
                }
            }
            Gate::Rx { qubit: q, .. } => {
                if bit(self.z, q) != 0 {
                    return None;
                }
            }
            Gate::Ry { qubit: q, .. } => {
                if bit(self.x, q) != bit(self.z, q) {
                    return None;
                }
            }
            Gate::Cx { control, target } => {
                self.x ^= bit(self.x, control) << target;
                self.z ^= bit(self.z, target) << control;
            }
            Gate::Cz { control, target } => {
                self.z ^= (bit(self.x, control) << target) | (bit(self.x, target) << control);
            }
            Gate::Rzz { a, b, .. } => {
                if bit(self.x, a) != bit(self.x, b) {
                    return None;
                }
            }
            Gate::Swap { a, b } => {
                for m in [&mut self.x, &mut self.z] {
                    let d = (bit(*m, a) ^ bit(*m, b)) * ((1 << a) | (1 << b));
                    *m ^= d;
                }
            }
        }
        Some(())
    }
}

/// The gate for Pauli `code` on qubit `q`; `None` for the identity.
fn pauli_gate(code: u8, q: usize) -> Option<Gate> {
    match code {
        0 => None,
        1 => Some(Gate::X(q)),
        2 => Some(Gate::Y(q)),
        _ => Some(Gate::Z(q)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::c64::C64;
    use qsim::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rates_lookup() {
        let mut n = GateNoise::new(vec![0.001, 0.002, 0.003], 0.04);
        n.set_edge_error(2, 0, 0.08);
        assert_eq!(n.gate_error(&Gate::H(1)), 0.002);
        assert_eq!(
            n.gate_error(&Gate::Cx {
                control: 0,
                target: 1
            }),
            0.04
        );
        // Edge lookup is unordered.
        assert_eq!(
            n.gate_error(&Gate::Cx {
                control: 0,
                target: 2
            }),
            0.08
        );
        assert_eq!(
            n.gate_error(&Gate::Cx {
                control: 2,
                target: 0
            }),
            0.08
        );
    }

    #[test]
    fn ideal_model_inserts_nothing() {
        let n = GateNoise::ideal(3);
        assert!(n.is_ideal());
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let (traj, faults) = n.sample_trajectory(&c, &mut rng);
            assert_eq!(faults, 0);
            assert_eq!(traj, c);
        }
    }

    #[test]
    fn fault_free_probability_is_product() {
        let n = GateNoise::uniform(2, 0.1, 0.2);
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let expect = 0.9 * 0.9 * 0.8;
        assert!((n.fault_free_probability(&c) - expect).abs() < 1e-12);
    }

    #[test]
    fn fault_rate_matches_probability() {
        let n = GateNoise::uniform(1, 0.3, 0.0);
        let mut c = Circuit::new(1);
        c.x(0);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 20_000;
        let mut faulted = 0;
        for _ in 0..trials {
            let (_, f) = n.sample_trajectory(&c, &mut rng);
            if f > 0 {
                faulted += 1;
            }
        }
        let rate = faulted as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn trajectory_keeps_original_gates_in_order() {
        let n = GateNoise::uniform(2, 0.5, 0.5);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).x(1);
        let mut rng = StdRng::seed_from_u64(1);
        let (traj, _) = n.sample_trajectory(&c, &mut rng);
        // Original gates appear as a subsequence.
        let mut it = traj.gates().iter();
        for g in c.gates() {
            assert!(it.any(|t| t == g), "missing {g}");
        }
    }

    #[test]
    fn two_qubit_fault_never_inserts_double_identity() {
        let n = GateNoise::uniform(2, 0.0, 1.0);
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let (traj, faults) = n.sample_trajectory(&c, &mut rng);
            assert_eq!(faults, 1);
            // With error probability 1 a Pauli must always be appended.
            assert!(traj.len() >= 2, "fault inserted no Pauli");
        }
    }

    /// A uniformly random gate of any of the 16 kinds on a `n`-qubit
    /// register, rotation angles included.
    fn random_gate(n: usize, rng: &mut StdRng) -> Gate {
        let q = rng.gen_range(0..n);
        let mut r = rng.gen_range(0..n - 1);
        if r >= q {
            r += 1;
        }
        let theta = rng.gen_range(-3.0..3.0f64);
        match rng.gen_range(0..16u8) {
            0 => Gate::X(q),
            1 => Gate::Y(q),
            2 => Gate::Z(q),
            3 => Gate::H(q),
            4 => Gate::S(q),
            5 => Gate::Sdg(q),
            6 => Gate::T(q),
            7 => Gate::Tdg(q),
            8 => Gate::Rx { qubit: q, theta },
            9 => Gate::Ry { qubit: q, theta },
            10 => Gate::Rz { qubit: q, theta },
            11 => Gate::Phase {
                qubit: q,
                lambda: theta,
            },
            12 => Gate::Cx {
                control: q,
                target: r,
            },
            13 => Gate::Cz {
                control: q,
                target: r,
            },
            14 => Gate::Rzz { a: q, b: r, theta },
            _ => Gate::Swap { a: q, b: r },
        }
    }

    /// Whenever a frame is returned, simulating the faulted circuit gives
    /// the ideal Born distribution relabeled by the frame's X mask — and,
    /// so that the Z mask is checked too, the faulted state is
    /// `X^x Z^z |ideal⟩` up to one global phase.
    #[test]
    fn frame_law_is_exact_on_random_circuits() {
        let mut rng = StdRng::seed_from_u64(0xF2A3);
        let (mut framed, mut unframed, mut worst) = (0, 0, 0.0f64);
        let mut kinds_seen = std::collections::HashSet::new();
        while framed < 1200 {
            let n = rng.gen_range(2..5usize);
            let mut c = Circuit::new(n);
            for _ in 0..rng.gen_range(1..14) {
                c.push(random_gate(n, &mut rng));
            }
            let mut faults = Vec::new();
            for gate in 0..c.len() {
                if rng.gen_range(0..4) == 0 {
                    let two = c.gates()[gate].is_two_qubit();
                    let (a, b) = if two {
                        let k = rng.gen_range(1..16u8);
                        (k & 0b11, k >> 2)
                    } else {
                        (rng.gen_range(1..4u8), 0)
                    };
                    faults.push(PauliFault { gate, a, b });
                }
            }
            let Some(frame) = PauliFrame::propagate(&c, &faults) else {
                unframed += 1;
                continue;
            };
            framed += 1;
            kinds_seen.extend(c.gates().iter().map(|g| g.name()));
            let ideal = StateVector::from_circuit(&c);
            let faulted = StateVector::from_circuit(&faulted_circuit(&c, &faults));
            let relabeled = ideal.probabilities_xor(frame.x, 1);
            for (i, (p, q)) in relabeled.iter().zip(&faulted.probabilities()).enumerate() {
                worst = worst.max((p - q).abs());
                assert!(
                    (p - q).abs() < 1e-12,
                    "{c:?} faults {faults:?}: P({i}) {q} vs relabeled {p}"
                );
            }
            // (X^x Z^z ψ)[i] = (−1)^{|(i ^ x) & z|} ψ[i ^ x].
            let framed_amps: Vec<C64> = (0..1usize << n)
                .map(|i| {
                    let a = ideal.amplitudes()[i ^ frame.x];
                    if ((i ^ frame.x) & frame.z).count_ones() % 2 == 1 {
                        -a
                    } else {
                        a
                    }
                })
                .collect();
            let k = (0..framed_amps.len())
                .max_by(|&i, &j| {
                    framed_amps[i]
                        .norm_sqr()
                        .total_cmp(&framed_amps[j].norm_sqr())
                })
                .unwrap();
            let phase = faulted.amplitudes()[k] / framed_amps[k];
            for (i, (&f, &e)) in faulted.amplitudes().iter().zip(&framed_amps).enumerate() {
                worst = worst.max((f - phase * e).abs());
                assert!(
                    (f - phase * e).abs() < 1e-12,
                    "{c:?} faults {faults:?} frame {frame:?}: amplitude {i} {f} vs {}",
                    phase * e
                );
            }
        }
        assert!(unframed > 100, "the fallback must be exercised too");
        assert_eq!(kinds_seen.len(), 16, "{kinds_seen:?}");
        assert!(worst < 1e-12, "worst deviation {worst}");
    }

    #[test]
    fn frame_is_refused_where_the_fault_does_not_commute() {
        let mut c = Circuit::new(1);
        c.x(0).rz(0, 0.4);
        let x_fault = [PauliFault {
            gate: 0,
            a: 1,
            b: 0,
        }];
        assert_eq!(PauliFrame::propagate(&c, &x_fault), None);
        let mut c = Circuit::new(1);
        c.h(0).rx(0, 0.4);
        let z_fault = [PauliFault {
            gate: 0,
            a: 3,
            b: 0,
        }];
        assert_eq!(PauliFrame::propagate(&c, &z_fault), None);
        // The same faults after the rotation reach the readout.
        let mut c = Circuit::new(1);
        c.rz(0, 0.4).x(0);
        assert_eq!(
            PauliFrame::propagate(&c, &x_fault),
            Some(PauliFrame { x: 1, z: 0 })
        );
    }

    #[test]
    fn frame_follows_clifford_conjugation() {
        // Z on the control of a CX is untouched by the CX; an X on the
        // control spreads to the target; H then turns that target X into Z.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(1);
        let fault = |a| [PauliFault { gate: 0, a, b: 0 }];
        assert_eq!(
            PauliFrame::propagate(&c, &fault(3)),
            Some(PauliFrame { x: 0, z: 0b01 })
        );
        assert_eq!(
            PauliFrame::propagate(&c, &fault(1)),
            Some(PauliFrame { x: 0b01, z: 0b10 })
        );
        // No faults: the identity frame.
        assert_eq!(PauliFrame::propagate(&c, &[]), Some(PauliFrame::default()));
    }

    #[test]
    fn frames_always_cross_exactly_the_cliffords() {
        let mut c = Circuit::new(3);
        c.x(1)
            .y(1)
            .z(1)
            .h(1)
            .s(1)
            .rx(1, 0.3)
            .ry(1, 0.3)
            .rz(1, 0.3)
            .p(1, 0.3);
        c.cx(2, 1).cz(2, 1).rzz(2, 1, 0.3).swap(2, 1);
        c.push(Gate::Sdg(1)).push(Gate::T(1)).push(Gate::Tdg(1));
        let crossed: Vec<&str> = c
            .gates()
            .iter()
            .filter(|g| PauliFrame::always_crosses(g))
            .map(Gate::name)
            .collect();
        assert_eq!(
            crossed,
            ["x", "y", "z", "h", "s", "cx", "cz", "swap", "sdg"]
        );
    }

    #[test]
    fn sampled_faults_build_the_sampled_trajectory() {
        let n = GateNoise::uniform(3, 0.2, 0.4);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(1, 0.3).swap(1, 2).h(2);
        let sites = n.fault_sites(&c);
        let mut faults = Vec::new();
        for seed in 0..200 {
            let (traj, count) = n.sample_trajectory(&c, &mut StdRng::seed_from_u64(seed));
            sites.sample_faults(&mut StdRng::seed_from_u64(seed), &mut faults);
            assert_eq!(count, faults.len());
            assert_eq!(traj, faulted_circuit(&c, &faults));
            assert!(faults.windows(2).all(|w| w[0].gate < w[1].gate));
            assert!(faults.iter().all(|f| (f.a, f.b) != (0, 0)));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rate_panics() {
        GateNoise::uniform(2, 1.5, 0.0);
    }
}

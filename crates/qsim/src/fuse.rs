//! Gate fusion: compiling a circuit into a short list of specialized kernels.
//!
//! Applying a circuit gate-by-gate streams the full `2^n` amplitude vector
//! through memory once per gate. A layered circuit (H wall, CX chain, Rz
//! layer) therefore pays ~3 memory passes per qubit per layer even though
//! the arithmetic per amplitude is tiny. Fusion shrinks the pass count two
//! ways:
//!
//! 1. **Run merging** — consecutive single-qubit gates on the same qubit are
//!    multiplied into one 2×2 matrix before anything touches the amplitudes.
//! 2. **Absorption** — a pending 2×2 is folded into the next two-qubit gate
//!    on that qubit as part of a fused 4×4 block (`M₄ · (P_hi ⊗ P_lo)`), and
//!    trailing singles are folded back into the *last* two-qubit gate that
//!    touched their qubit. Consecutive two-qubit gates on the same pair
//!    collapse into one 4×4.
//!
//! Absorption is **cost-aware**: every supported two-qubit gate is monomial
//! (a near-free permutation kernel), and folding a dense single into one
//! upgrades it to a dense 4×4 — twice the flops of a standalone dense 2×2.
//! A dense pending is therefore absorbed only when the block is dense
//! anyway or both legs are dense (flop-neutral, one fewer pass); monomial
//! pendings always absorb for free.
//!
//! The result is a [`FusedProgram`]: roughly one kernel per two-qubit gate.
//! Each fused matrix is classified once, so structure that survives fusion
//! is exploited at apply time:
//!
//! * **monomial** matrices (one non-zero entry per row/column — all
//!   diagonal gates, X/Y, CX/CZ/Swap and products thereof) become index
//!   permutations with phase multiplies;
//! * everything else runs the dense 2×2/4×4 kernel.
//!
//! Classification tests entries against *exact* zero: gate constructors emit
//! exact zeros and products of monomial matrices keep them, so X stays a
//! pure swap and Rz stays a pure phase multiply bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use qsim::fuse::FusedProgram;
//! use qsim::{Circuit, StateVector};
//!
//! let mut c = Circuit::new(3);
//! c.h(0).h(1).h(2).cx(0, 1).rz(1, 0.3).cx(1, 2);
//! let prog = FusedProgram::from_circuit(&c);
//! assert!(prog.n_ops() <= 3); // 6 gates collapse into ≤ 3 kernels
//! let mut sv = StateVector::zero(3);
//! sv.apply_fused(&prog, 1);
//! let mut reference = StateVector::zero(3);
//! reference.apply_circuit(&c);
//! assert!((sv.fidelity(&reference) - 1.0).abs() < 1e-12);
//! ```

use crate::c64::C64;
use crate::circuit::Circuit;
use crate::gate::{Gate, Matrix2, Matrix4};

/// One fused kernel invocation over one or two qubits.
///
/// Two-qubit variants are stored in canonical orientation `lo < hi` with
/// matrix basis index `2·bit(hi) + bit(lo)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedOp {
    /// Monomial single-qubit op: `out[perm[c]] = ph[c] · in[c]` over the
    /// two amplitudes of each qubit-`q` pair. Covers diagonal gates
    /// (`perm = [0, 1]`) and X/Y-like antidiagonals (`perm = [1, 0]`).
    Mono1 {
        /// Target qubit.
        q: usize,
        /// Row index each column maps to.
        perm: [u8; 2],
        /// Phase factor applied to each column.
        ph: [C64; 2],
    },
    /// Dense single-qubit 2×2 multiply.
    Dense1 {
        /// Target qubit.
        q: usize,
        /// The fused 2×2 unitary.
        m: Matrix2,
    },
    /// Monomial two-qubit op: `out[perm[c]] = ph[c] · in[c]` over each
    /// 4-amplitude group. Covers CX/CZ/Rzz/Swap and monomial products.
    Mono2 {
        /// Lower-indexed qubit (matrix basis bit 0).
        lo: usize,
        /// Higher-indexed qubit (matrix basis bit 1).
        hi: usize,
        /// Row index each column maps to.
        perm: [u8; 4],
        /// Phase factor applied to each column.
        ph: [C64; 4],
    },
    /// Dense two-qubit 4×4 multiply.
    Dense2 {
        /// Lower-indexed qubit (matrix basis bit 0).
        lo: usize,
        /// Higher-indexed qubit (matrix basis bit 1).
        hi: usize,
        /// The fused 4×4 unitary.
        m: Matrix4,
    },
    /// Factored two-qubit block applied in **one pass**: dense 2×2 legs
    /// followed by a monomial core, `Mono(perm, ph) · (mhi ⊗ mlo)`.
    ///
    /// This is how a dense single-qubit run riding into a monomial
    /// two-qubit gate (e.g. `H` then `CX`) is executed without either a
    /// second memory pass (standalone 2×2) or a dense 4×4 upgrade (2× the
    /// flops): each 4-amplitude group gets the 2×2 legs applied pairwise
    /// (8 multiplies when one leg is identity) and is then permuted/phased
    /// in place of the full 16-multiply dense block.
    Fact2 {
        /// Lower-indexed qubit (matrix basis bit 0).
        lo: usize,
        /// Higher-indexed qubit (matrix basis bit 1).
        hi: usize,
        /// Dense 2×2 applied to the `lo` leg first (identity to skip).
        mlo: Matrix2,
        /// Dense 2×2 applied to the `hi` leg first (identity to skip).
        mhi: Matrix2,
        /// Row index each column maps to in the monomial core.
        perm: [u8; 4],
        /// Phase factor applied to each column by the monomial core.
        ph: [C64; 4],
    },
}

impl FusedOp {
    /// The number of qubits the op acts on (1 or 2).
    #[inline]
    pub fn arity(&self) -> usize {
        match self {
            FusedOp::Mono1 { .. } | FusedOp::Dense1 { .. } => 1,
            FusedOp::Mono2 { .. } | FusedOp::Dense2 { .. } | FusedOp::Fact2 { .. } => 2,
        }
    }

    /// The relative cost of one application over the register, in complex
    /// multiplies per amplitude: a monomial pass counts one, a dense 2×2
    /// two, a dense 4×4 four, and each dense leg of a factored block two
    /// on top of its monomial core.
    pub fn cost(&self) -> u32 {
        match self {
            FusedOp::Mono1 { .. } | FusedOp::Mono2 { .. } => 1,
            FusedOp::Dense1 { .. } => 2,
            FusedOp::Dense2 { .. } => 4,
            FusedOp::Fact2 { mlo, mhi, .. } => {
                1 + 2 * u32::from(!is_identity2(mlo)) + 2 * u32::from(!is_identity2(mhi))
            }
        }
    }

    /// The qubits the op acts on.
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            FusedOp::Mono1 { q, .. } | FusedOp::Dense1 { q, .. } => vec![q],
            FusedOp::Mono2 { lo, hi, .. }
            | FusedOp::Dense2 { lo, hi, .. }
            | FusedOp::Fact2 { lo, hi, .. } => vec![lo, hi],
        }
    }
}

/// A circuit compiled into fused, classified kernels.
///
/// Built with [`FusedProgram::from_circuit`] / [`FusedProgram::from_gates`]
/// and executed by [`StateVector::apply_fused`](crate::StateVector::apply_fused)
/// on any number of pool workers.
///
/// The program also records which op absorbed each gate
/// ([`FusedProgram::gate_ops`]). Every prefix `ops[..k]` covers a set of
/// gates closed under dependency: no uncovered gate precedes a covered one
/// on a shared qubit. So the circuit's state equals the state after
/// `ops[..k]` followed by the uncovered gates in circuit order, fused
/// afresh — even when Paulis are inserted among the uncovered gates. That
/// is what lets a gate-noise trajectory resume from an ideal-state
/// checkpoint ([`StateVector::resume`](crate::StateVector::resume)).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    n_qubits: usize,
    ops: Vec<FusedOp>,
    gate_ops: Vec<usize>,
}

/// Builder-internal op: qubits + unclassified fused matrices.
enum RawOp {
    One {
        q: usize,
        m: Matrix2,
    },
    Two {
        lo: usize,
        hi: usize,
        m: Matrix4,
    },
    Fact {
        lo: usize,
        hi: usize,
        mlo: Matrix2,
        mhi: Matrix2,
        core: Matrix4,
    },
}

impl RawOp {
    /// Multiplies a factored op out into its full 4×4 matrix.
    fn flatten4(&self) -> Matrix4 {
        match self {
            RawOp::Two { m, .. } => *m,
            RawOp::Fact { mlo, mhi, core, .. } => mul4(core, &kron(mhi, mlo)),
            RawOp::One { .. } => unreachable!("flatten4 on a single-qubit op"),
        }
    }
}

impl FusedProgram {
    /// Fuses a whole circuit.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Self::from_gates(circuit.n_qubits(), circuit.gates())
    }

    /// Fuses a gate slice over an `n_qubits` register (useful for circuit
    /// prefixes, e.g. after [`Circuit::trailing_x_split`]).
    ///
    /// # Panics
    ///
    /// Panics if any gate references a qubit `>= n_qubits`.
    pub fn from_gates(n_qubits: usize, gates: &[Gate]) -> Self {
        // One pending 2×2 per qubit, accumulated until a two-qubit gate (or
        // the end of the circuit) absorbs it, and the gates merged into it.
        let mut pending: Vec<Option<Matrix2>> = vec![None; n_qubits];
        let mut pending_gates: Vec<Vec<usize>> = vec![Vec::new(); n_qubits];
        // Index into `raw` of the most recent two-qubit op touching q.
        let mut last_two: Vec<Option<usize>> = vec![None; n_qubits];
        let mut raw: Vec<RawOp> = Vec::new();
        // The raw op each gate ended up in; `DROPPED` until assigned.
        const DROPPED: usize = usize::MAX;
        let mut gate_ops = vec![DROPPED; gates.len()];
        fn absorb(gate_ops: &mut [usize], run: &mut Vec<usize>, op: usize) {
            for g in run.drain(..) {
                gate_ops[g] = op;
            }
        }

        for (gi, gate) in gates.iter().enumerate() {
            let qs = gate.qubits();
            for &q in &qs {
                assert!(
                    q < n_qubits,
                    "gate {gate} out of range for {n_qubits} qubits"
                );
            }
            if !gate.is_two_qubit() {
                let q = qs[0];
                let m = gate.matrix2();
                pending[q] = Some(match pending[q] {
                    Some(p) => mul2(&m, &p),
                    None => m,
                });
                pending_gates[q].push(gi);
                continue;
            }
            let (lo, hi, mut m) = canonical4(gate, qs[0], qs[1]);

            // Cost-aware absorption. Every supported two-qubit gate is
            // monomial (CX/CZ/Rzz/Swap), so its bare kernel is near-free.
            // Monomial pendings fold into the gate matrix for nothing (a
            // monomial product stays monomial), but a *dense* pending would
            // upgrade the block to a dense 4×4 — 2× the flops of a
            // standalone dense 2×2. Dense pendings are instead carried as
            // factored legs ([`FusedOp::Fact2`]): still one memory pass,
            // still dense-2×2 flops. The legs commute past each other, so
            // `M₄ · (P_hi ⊗ P_lo) = (M₄ · mono_part) · (dense legs)`.
            let mut mlo = IDENTITY2;
            let mut mhi = IDENTITY2;
            let mut legs_dense = false;
            let mut mono_legs = None::<(Matrix2, Matrix2)>;
            for (q, leg) in [(lo, &mut mlo), (hi, &mut mhi)] {
                let Some(p) = pending[q].take() else { continue };
                if monomial2(&p).is_some() {
                    let (ml, mh) = mono_legs.get_or_insert((IDENTITY2, IDENTITY2));
                    *(if q == lo { ml } else { mh }) = p;
                } else {
                    *leg = p;
                    legs_dense = true;
                }
            }
            if let Some((ml, mh)) = mono_legs {
                m = mul4(&m, &kron(&mh, &ml));
            }
            // Collapse consecutive two-qubit ops on the same pair: the pass
            // saved always beats the (possibly denser) combined block.
            // Sound because `last_two` guarantees no op between raw[i] and
            // here touched either qubit. A pure monomial arrival folds into
            // a factored predecessor's core; anything else multiplies out.
            let collapse = match (last_two[lo], last_two[hi]) {
                (Some(i), Some(j)) if i == j => Some(i),
                _ => None,
            };
            // This gate and both legs' pending runs land in one op.
            let op = collapse.unwrap_or(raw.len());
            gate_ops[gi] = op;
            absorb(&mut gate_ops, &mut pending_gates[lo], op);
            absorb(&mut gate_ops, &mut pending_gates[hi], op);
            if let Some(i) = collapse {
                match &mut raw[i] {
                    RawOp::Fact { core, .. } if !legs_dense => {
                        *core = mul4(&m, core);
                    }
                    prev => {
                        let mut full = m;
                        if legs_dense {
                            full = mul4(&full, &kron(&mhi, &mlo));
                        }
                        *prev = RawOp::Two {
                            lo,
                            hi,
                            m: mul4(&full, &prev.flatten4()),
                        };
                    }
                }
                continue;
            }
            last_two[lo] = Some(raw.len());
            last_two[hi] = Some(raw.len());
            if legs_dense && monomial4(&m).is_some() {
                raw.push(RawOp::Fact {
                    lo,
                    hi,
                    mlo,
                    mhi,
                    core: m,
                });
            } else {
                if legs_dense {
                    m = mul4(&m, &kron(&mhi, &mlo));
                }
                raw.push(RawOp::Two { lo, hi, m });
            }
        }

        // Flush leftover singles: fold back into the last two-qubit op on
        // that qubit (everything in between is disjoint from q, so the
        // single commutes back) when that keeps the block's kernel cost —
        // monomial singles fold anywhere, dense singles fold into dense
        // blocks and flatten factored ones (flop-neutral, one fewer pass).
        // A dense single over a bare monomial block is emitted standalone.
        for q in 0..n_qubits {
            let Some(p) = pending[q].take() else { continue };
            if is_identity2(&p) {
                // The run reaches no op; its gates stay `DROPPED`.
                continue;
            }
            let p_mono = monomial2(&p).is_some();
            let folded = last_two[q].is_some_and(|i| {
                let (op_lo, op_hi) = match &raw[i] {
                    RawOp::Two { lo, hi, .. } | RawOp::Fact { lo, hi, .. } => (*lo, *hi),
                    RawOp::One { .. } => return false,
                };
                let expanded = if q == op_lo {
                    kron(&IDENTITY2, &p)
                } else {
                    kron(&p, &IDENTITY2)
                };
                match &mut raw[i] {
                    RawOp::Fact { core, .. } if p_mono => {
                        *core = mul4(&expanded, core);
                        true
                    }
                    RawOp::Two { m, .. } if p_mono || monomial4(m).is_none() => {
                        *m = mul4(&expanded, m);
                        true
                    }
                    prev @ RawOp::Fact { .. } => {
                        let m = mul4(&expanded, &prev.flatten4());
                        *prev = RawOp::Two {
                            lo: op_lo,
                            hi: op_hi,
                            m,
                        };
                        true
                    }
                    _ => false,
                }
            });
            if folded {
                absorb(
                    &mut gate_ops,
                    &mut pending_gates[q],
                    last_two[q].expect("folded into an op"),
                );
            } else {
                absorb(&mut gate_ops, &mut pending_gates[q], raw.len());
                raw.push(RawOp::One { q, m: p });
            }
        }

        let n_ops = raw.len();
        for op in &mut gate_ops {
            if *op == DROPPED {
                *op = n_ops;
            }
        }
        let ops = raw.into_iter().map(classify).collect();
        FusedProgram {
            n_qubits,
            ops,
            gate_ops,
        }
    }

    /// The register width the program was compiled for.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The fused kernel ops in execution order.
    #[inline]
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// The number of fused kernel invocations.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// The op that absorbed each gate, indexed like the gate slice the
    /// program was fused from. A trailing run of single-qubit gates that
    /// fused to the exact identity reaches no op and maps to
    /// [`FusedProgram::n_ops`]; nothing follows such a run on its qubit,
    /// so it belongs after every op.
    #[inline]
    pub fn gate_ops(&self) -> &[usize] {
        &self.gate_ops
    }
}

const IDENTITY2: Matrix2 = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];

#[inline]
fn is_zero(z: C64) -> bool {
    z.re == 0.0 && z.im == 0.0
}

pub(crate) fn is_identity2(m: &Matrix2) -> bool {
    m[0][0] == C64::ONE && m[1][1] == C64::ONE && is_zero(m[0][1]) && is_zero(m[1][0])
}

/// `a · b` for 2×2 complex matrices.
pub fn mul2(a: &Matrix2, b: &Matrix2) -> Matrix2 {
    let mut out = [[C64::ZERO; 2]; 2];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, out_rc) in row.iter_mut().enumerate() {
            *out_rc = a[r][0] * b[0][c] + a[r][1] * b[1][c];
        }
    }
    out
}

/// `a · b` for 4×4 complex matrices.
pub fn mul4(a: &Matrix4, b: &Matrix4) -> Matrix4 {
    let mut out = [[C64::ZERO; 4]; 4];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, out_rc) in row.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            for k in 0..4 {
                acc += a[r][k] * b[k][c];
            }
            *out_rc = acc;
        }
    }
    out
}

/// Kronecker product in the simulator's basis convention: index
/// `2·bit(hi) + bit(lo)`, so `kron(hi_m, lo_m)[2r_h + r_l][2c_h + c_l] =
/// hi_m[r_h][c_h] · lo_m[r_l][c_l]`.
pub fn kron(hi_m: &Matrix2, lo_m: &Matrix2) -> Matrix4 {
    let mut out = [[C64::ZERO; 4]; 4];
    for rh in 0..2 {
        for rl in 0..2 {
            for ch in 0..2 {
                for cl in 0..2 {
                    out[2 * rh + rl][2 * ch + cl] = hi_m[rh][ch] * lo_m[rl][cl];
                }
            }
        }
    }
    out
}

/// Reorients a two-qubit gate's matrix into canonical `(lo, hi)` form.
///
/// [`Gate::matrix4`] uses basis index `2·bit(qb) + bit(qa)` where
/// `qa = qubits()[0]`; when `qa > qb` the two basis bits are swapped.
fn canonical4(gate: &Gate, qa: usize, qb: usize) -> (usize, usize, Matrix4) {
    let m = gate.matrix4();
    if qa < qb {
        (qa, qb, m)
    } else {
        // Swap the roles of the two basis bits: index map 1 ↔ 2.
        const S: [usize; 4] = [0, 2, 1, 3];
        let mut out = [[C64::ZERO; 4]; 4];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, out_rc) in row.iter_mut().enumerate() {
                *out_rc = m[S[r]][S[c]];
            }
        }
        (qb, qa, out)
    }
}

/// Detects a monomial (generalized permutation) 2×2 matrix: exactly one
/// non-zero entry per column, all in distinct rows. Returns the row
/// permutation and per-column phases.
fn monomial2(m: &Matrix2) -> Option<([u8; 2], [C64; 2])> {
    let mut perm = [0u8; 2];
    let mut ph = [C64::ZERO; 2];
    let mut rows_used = 0u8;
    for c in 0..2 {
        let mut row = None;
        for (r, mr) in m.iter().enumerate() {
            if !is_zero(mr[c]) {
                if row.is_some() {
                    return None;
                }
                row = Some(r);
            }
        }
        let r = row?;
        if rows_used & (1 << r) != 0 {
            return None;
        }
        rows_used |= 1 << r;
        perm[c] = r as u8;
        ph[c] = m[r][c];
    }
    Some((perm, ph))
}

/// 4×4 analogue of [`monomial2`].
fn monomial4(m: &Matrix4) -> Option<([u8; 4], [C64; 4])> {
    let mut perm = [0u8; 4];
    let mut ph = [C64::ZERO; 4];
    let mut rows_used = 0u8;
    for c in 0..4 {
        let mut row = None;
        for (r, mr) in m.iter().enumerate() {
            if !is_zero(mr[c]) {
                if row.is_some() {
                    return None;
                }
                row = Some(r);
            }
        }
        let r = row?;
        if rows_used & (1 << r) != 0 {
            return None;
        }
        rows_used |= 1 << r;
        perm[c] = r as u8;
        ph[c] = m[r][c];
    }
    Some((perm, ph))
}

fn classify(op: RawOp) -> FusedOp {
    match op {
        RawOp::One { q, m } => match monomial2(&m) {
            Some((perm, ph)) => FusedOp::Mono1 { q, perm, ph },
            None => FusedOp::Dense1 { q, m },
        },
        RawOp::Two { lo, hi, m } => match monomial4(&m) {
            Some((perm, ph)) => FusedOp::Mono2 { lo, hi, perm, ph },
            None => FusedOp::Dense2 { lo, hi, m },
        },
        RawOp::Fact {
            lo,
            hi,
            mlo,
            mhi,
            core,
        } => match monomial4(&core) {
            Some((perm, ph)) => FusedOp::Fact2 {
                lo,
                hi,
                mlo,
                mhi,
                perm,
                ph,
            },
            // Construction keeps cores monomial; fall back defensively.
            None => FusedOp::Dense2 {
                lo,
                hi,
                m: mul4(&core, &kron(&mhi, &mlo)),
            },
        },
    }
}

/// Classifies a single gate into its specialized kernel without fusion —
/// the dispatch path of [`StateVector::apply_gate`](crate::StateVector::apply_gate).
pub fn classify_gate(gate: &Gate) -> FusedOp {
    let qs = gate.qubits();
    if gate.is_two_qubit() {
        let (lo, hi, m) = canonical4(gate, qs[0], qs[1]);
        classify(RawOp::Two { lo, hi, m })
    } else {
        classify(RawOp::One {
            q: qs[0],
            m: gate.matrix2(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx4(a: &Matrix4, b: &Matrix4, tol: f64) -> bool {
        (0..4).all(|r| (0..4).all(|c| a[r][c].approx_eq(b[r][c], tol)))
    }

    #[test]
    fn kron_matches_definition() {
        let x = Gate::X(0).matrix2();
        let z = Gate::Z(0).matrix2();
        // kron(Z_hi, X_lo): |hi lo⟩ basis. X on lo flips bit 0, Z on hi
        // flips the sign of hi = 1 rows.
        let k = kron(&z, &x);
        assert_eq!(k[1][0], C64::ONE); // |00⟩ -> |01⟩
        assert_eq!(k[0][1], C64::ONE);
        assert_eq!(k[3][2], -C64::ONE); // |10⟩ -> |11⟩ with sign
        assert_eq!(k[2][3], -C64::ONE);
    }

    #[test]
    fn canonical_orientation_roundtrip() {
        // CX with control above target must act identically after
        // canonicalization: truth table |hi=ctl, lo=tgt⟩.
        let g = Gate::Cx {
            control: 1,
            target: 0,
        };
        let (lo, hi, m) = canonical4(&g, 1, 0);
        assert_eq!((lo, hi), (0, 1));
        // control = qubit 1 = hi bit. |10⟩ (index 2) -> |11⟩ (index 3).
        assert_eq!(m[3][2], C64::ONE);
        assert_eq!(m[0][0], C64::ONE);
        assert_eq!(m[1][1], C64::ONE);
    }

    #[test]
    fn monomial_classification() {
        assert!(monomial2(&Gate::X(0).matrix2()).is_some());
        assert!(monomial2(&Gate::Y(0).matrix2()).is_some());
        assert!(monomial2(
            &Gate::Rz {
                qubit: 0,
                theta: 0.3
            }
            .matrix2()
        )
        .is_some());
        assert!(monomial2(&Gate::H(0).matrix2()).is_none());
        assert!(monomial4(
            &Gate::Cx {
                control: 0,
                target: 1
            }
            .matrix4()
        )
        .is_some());
        assert!(monomial4(
            &Gate::Rzz {
                a: 0,
                b: 1,
                theta: 0.4
            }
            .matrix4()
        )
        .is_some());
    }

    #[test]
    fn single_qubit_runs_merge() {
        let mut c = Circuit::new(1);
        c.h(0).z(0).h(0); // HZH = X
        let prog = FusedProgram::from_circuit(&c);
        assert_eq!(prog.n_ops(), 1);
    }

    #[test]
    fn exact_self_inverse_pairs_vanish() {
        let mut c = Circuit::new(2);
        c.x(0).x(0).z(1).z(1);
        let prog = FusedProgram::from_circuit(&c);
        assert_eq!(prog.n_ops(), 0, "X·X and Z·Z fuse to exact identity");
    }

    #[test]
    fn singles_absorb_into_two_qubit_blocks() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).rz(1, 0.3).rz(0, -0.2);
        let prog = FusedProgram::from_circuit(&c);
        assert_eq!(prog.n_ops(), 1, "everything folds into one 4×4");
    }

    #[test]
    fn consecutive_pair_gates_collapse() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cz(1, 0).swap(0, 1);
        let prog = FusedProgram::from_circuit(&c);
        assert_eq!(prog.n_ops(), 1);
        assert!(matches!(prog.ops()[0], FusedOp::Mono2 { .. }));
    }

    #[test]
    fn fused_matrix_matches_explicit_product() {
        // H on both legs then CX(0,1): the factored block, multiplied
        // out, must equal CX · (H ⊗ H).
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let prog = FusedProgram::from_circuit(&c);
        assert_eq!(prog.n_ops(), 1);
        let FusedOp::Fact2 {
            lo,
            hi,
            mlo,
            mhi,
            perm,
            ph,
        } = prog.ops()[0]
        else {
            panic!("expected a factored block, got {:?}", prog.ops()[0]);
        };
        assert_eq!((lo, hi), (0, 1));
        let mut mono = [[C64::ZERO; 4]; 4];
        for c in 0..4 {
            mono[perm[c] as usize][c] = ph[c];
        }
        let h = Gate::H(0).matrix2();
        let expect = mul4(
            &Gate::Cx {
                control: 0,
                target: 1,
            }
            .matrix4(),
            &kron(&h, &h),
        );
        let got = mul4(&mono, &kron(&mhi, &mlo));
        assert!(approx4(&got, &expect, 1e-12));
    }

    #[test]
    fn lone_dense_single_factors_into_monomial_blocks() {
        // H then CX: folding H into CX as a dense 4×4 would double the
        // flops of a standalone 2×2, and emitting it standalone would cost
        // a second memory pass. The factored block does both in one pass
        // at dense-2×2 flops.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let prog = FusedProgram::from_circuit(&c);
        assert_eq!(prog.n_ops(), 1);
        let FusedOp::Fact2 { lo, hi, mhi, .. } = prog.ops()[0] else {
            panic!("expected a factored block, got {:?}", prog.ops()[0]);
        };
        assert_eq!((lo, hi), (0, 1));
        assert!(is_identity2(&mhi), "only the lo leg carries the H");
    }

    #[test]
    fn dense_single_flattens_factored_blocks_on_collapse() {
        // A second CX on the same pair with a fresh dense pending cannot
        // stay factored (the dense single sits between the cores), so the
        // whole thing multiplies out into one dense 4×4 — still one pass.
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).h(0).cx(0, 1);
        let prog = FusedProgram::from_circuit(&c);
        assert_eq!(prog.n_ops(), 1);
        assert!(matches!(prog.ops()[0], FusedOp::Dense2 { .. }));
    }

    #[test]
    fn monomial_arrivals_fold_into_factored_cores() {
        // Fact2 block followed by CZ on the same pair and a trailing Rz:
        // both are monomial, so they fold into the factored core and the
        // program stays a single factored pass.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).cz(0, 1).rz(1, 0.4);
        let prog = FusedProgram::from_circuit(&c);
        assert_eq!(prog.n_ops(), 1);
        assert!(matches!(prog.ops()[0], FusedOp::Fact2 { .. }));
    }

    #[test]
    fn same_pair_collapses_across_disjoint_ops() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3).cx(0, 1);
        let prog = FusedProgram::from_circuit(&c);
        // CX(0,1) twice with only the disjoint CX(2,3) in between: pair
        // tracking still sees (0,1) as the latest op on both legs, so the
        // repeats collapse (to a trivial monomial identity).
        assert_eq!(prog.n_ops(), 2);
    }

    #[test]
    fn classify_gate_specializes() {
        assert!(matches!(
            classify_gate(&Gate::X(2)),
            FusedOp::Mono1 { q: 2, .. }
        ));
        assert!(matches!(classify_gate(&Gate::H(0)), FusedOp::Dense1 { .. }));
        assert!(matches!(
            classify_gate(&Gate::Cx {
                control: 3,
                target: 1
            }),
            FusedOp::Mono2 { lo: 1, hi: 3, .. }
        ));
    }

    /// A uniformly random gate of any of the 16 kinds.
    fn random_gate(n: usize, rng: &mut impl rand::Rng) -> Gate {
        let q = rng.gen_range(0..n);
        let r = (q + rng.gen_range(1..n)) % n;
        let theta = rng.gen_range(-3.0..3.0f64);
        [
            Gate::X(q),
            Gate::Y(q),
            Gate::Z(q),
            Gate::H(q),
            Gate::S(q),
            Gate::Sdg(q),
            Gate::T(q),
            Gate::Tdg(q),
            Gate::Rx { qubit: q, theta },
            Gate::Ry { qubit: q, theta },
            Gate::Rz { qubit: q, theta },
            Gate::Phase {
                qubit: q,
                lambda: theta,
            },
            Gate::Cx {
                control: q,
                target: r,
            },
            Gate::Cz {
                control: q,
                target: r,
            },
            Gate::Rzz { a: q, b: r, theta },
            Gate::Swap { a: q, b: r },
        ][rng.gen_range(0..16usize)]
    }

    /// Every gate maps to an op on its qubits (or past the last op, for a
    /// trailing run that fused to the identity), and for every `k` the
    /// state after `ops[..k]` followed by the uncovered gates, fused
    /// afresh, is the whole circuit's state.
    #[test]
    fn every_op_prefix_resumes_to_the_whole_circuit() {
        use crate::StateVector;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0A7E);
        let mut kinds = std::collections::HashSet::new();
        let mut dropped = 0;
        for case in 0..400 {
            let n = rng.gen_range(2..6usize);
            let mut c = Circuit::new(n);
            for _ in 0..rng.gen_range(1..24) {
                c.push(random_gate(n, &mut rng));
            }
            if case % 4 == 0 {
                // A trailing self-inverse pair fuses to the exact identity.
                let q = rng.gen_range(0..n);
                c.s(q).push(Gate::Sdg(q));
            }
            kinds.extend(c.gates().iter().map(|g| g.name()));
            let prog = FusedProgram::from_circuit(&c);
            let map = prog.gate_ops();
            assert_eq!(map.len(), c.len(), "case {case}");
            for (i, (g, &op)) in c.gates().iter().zip(map).enumerate() {
                if op < prog.n_ops() {
                    let qs = prog.ops()[op].qubits();
                    assert!(
                        g.qubits().iter().all(|q| qs.contains(q)),
                        "case {case}: gate {i} ({g}) mapped to op {op} on {qs:?}"
                    );
                    continue;
                }
                assert_eq!(op, prog.n_ops(), "case {case}: gate {i} unmapped");
                dropped += 1;
                let later_on_q = c.gates()[i + 1..].iter().zip(&map[i + 1..]);
                for (h, &h_op) in later_on_q {
                    if h.qubits().iter().any(|q| g.qubits().contains(q)) {
                        assert_eq!(h_op, prog.n_ops(), "case {case}: {g} before {h}");
                    }
                }
            }
            let whole = StateVector::from_circuit(&c);
            for k in 0..=prog.n_ops() {
                let (_, cp) = StateVector::evolve_with_checkpoint(&prog, Some(k), 1);
                let rest: Vec<Gate> = c
                    .gates()
                    .iter()
                    .zip(map)
                    .filter(|&(_, &op)| op >= k)
                    .map(|(g, _)| *g)
                    .collect();
                let resumed = StateVector::resume(cp.as_ref(), n, &rest, 1);
                for (i, (a, b)) in resumed
                    .amplitudes()
                    .iter()
                    .zip(whole.amplitudes())
                    .enumerate()
                {
                    assert!(
                        (*a - *b).abs() < 1e-12,
                        "case {case}, k {k}: amplitude {i} {a} vs {b}"
                    );
                }
            }
        }
        assert_eq!(kinds.len(), 16, "{kinds:?}");
        assert!(dropped > 0, "identity runs must be exercised");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gate_panics() {
        FusedProgram::from_gates(1, &[Gate::X(1)]);
    }
}

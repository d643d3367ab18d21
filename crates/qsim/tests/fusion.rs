//! Property tests for the fused/specialized statevector kernels and the
//! XOR variant-amortization primitives.
//!
//! Fixed-seed [`StdRng`] loops (same convention as `proptests.rs`): every
//! failure reproduces exactly, and assertion messages carry the case index.

use qsim::c64::C64;
use qsim::fuse::FusedProgram;
use qsim::{BitString, Circuit, Distribution, Gate, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-12;

fn distinct_pair(n: usize, rng: &mut StdRng) -> (usize, usize) {
    let a = rng.gen_range(0..n);
    let mut b = rng.gen_range(0..n - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

/// A random gate drawn from the full supported gate set.
fn random_gate(n: usize, rng: &mut StdRng) -> Gate {
    let q = rng.gen_range(0..n);
    let theta = rng.gen_range(-3.0..3.0f64);
    match rng.gen_range(0..16u32) {
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
        12 => {
            let (control, target) = distinct_pair(n, rng);
            Gate::Cx { control, target }
        }
        13 => {
            let (control, target) = distinct_pair(n, rng);
            Gate::Cz { control, target }
        }
        14 => {
            let (a, b) = distinct_pair(n, rng);
            Gate::Rzz { a, b, theta }
        }
        _ => {
            let (a, b) = distinct_pair(n, rng);
            Gate::Swap { a, b }
        }
    }
}

fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        c.push(random_gate(n, rng));
    }
    c
}

/// A random normalized state (exercises kernels on dense inputs).
fn random_state(n: usize, rng: &mut StdRng) -> StateVector {
    let mut amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = *a / norm;
    }
    StateVector::from_amplitudes(amps)
}

/// Reference implementation: apply a gate by its matrix, straight from the
/// documented basis conventions, with no specialization at all.
fn apply_gate_reference(amps: &mut [C64], gate: &Gate) {
    let qs = gate.qubits();
    let dim = amps.len();
    if gate.is_two_qubit() {
        let m = gate.matrix4();
        let ba = 1usize << qs[0];
        let bb = 1usize << qs[1];
        for i00 in 0..dim {
            if i00 & ba != 0 || i00 & bb != 0 {
                continue;
            }
            let idx = [i00, i00 | ba, i00 | bb, i00 | ba | bb];
            let v = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
            for r in 0..4 {
                let mut acc = C64::ZERO;
                for c in 0..4 {
                    acc += m[r][c] * v[c];
                }
                amps[idx[r]] = acc;
            }
        }
    } else {
        let m = gate.matrix2();
        let bit = 1usize << qs[0];
        for i0 in 0..dim {
            if i0 & bit != 0 {
                continue;
            }
            let i1 = i0 | bit;
            let a0 = amps[i0];
            let a1 = amps[i1];
            amps[i0] = m[0][0] * a0 + m[0][1] * a1;
            amps[i1] = m[1][0] * a0 + m[1][1] * a1;
        }
    }
}

fn max_amp_diff(a: &StateVector, b: &[C64]) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b)
        .map(|(x, y)| (x.re - y.re).abs().max((x.im - y.im).abs()))
        .fold(0.0, f64::max)
}

#[test]
fn specialized_kernels_match_reference_per_gate() {
    let mut rng = StdRng::seed_from_u64(0xF0E1);
    for case in 0..200 {
        let n: usize = rng.gen_range(2..6);
        let gate = random_gate(n, &mut rng);
        let mut sv = random_state(n, &mut rng);
        let mut reference = sv.amplitudes().to_vec();
        sv.apply_gate(&gate);
        apply_gate_reference(&mut reference, &gate);
        let diff = max_amp_diff(&sv, &reference);
        assert!(diff < TOL, "case {case}: gate {gate} diverged by {diff}");
    }
}

#[test]
fn fused_and_unfused_agree_amplitudewise() {
    let mut rng = StdRng::seed_from_u64(0xFA5E);
    for case in 0..120 {
        let n = rng.gen_range(2..7);
        let len = rng.gen_range(0..60);
        let c = random_circuit(n, len, &mut rng);
        // Fused path.
        let fused = StateVector::from_circuit(&c);
        // Unfused gate-by-gate reference path.
        let mut unfused = StateVector::zero(n);
        unfused.apply_circuit(&c);
        let diff = max_amp_diff(&fused, unfused.amplitudes());
        assert!(
            diff < TOL,
            "case {case}: fused/unfused diverged by {diff} on {n} qubits, {len} gates"
        );
    }
}

#[test]
fn fusion_shrinks_layered_circuits() {
    // H wall + CX chain + Rz layer, repeated: fusion must collapse every
    // single-qubit run into the neighboring two-qubit block.
    let n = 8;
    let layers = 4;
    let mut c = Circuit::new(n);
    for l in 0..layers {
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..n {
            c.rz(q, 0.1 * (l * n + q) as f64);
        }
    }
    let prog = FusedProgram::from_circuit(&c);
    // Cost-aware fusion keeps the monomial CX kernels cheap and emits the
    // merged single-qubit runs standalone: at most one two-qubit op plus
    // one single per CX, and every H·Rz run collapses into one kernel.
    assert!(
        prog.n_ops() <= layers * 2 * (n - 1),
        "expected ≤ 2 ops per two-qubit gate, got {} for {} gates",
        prog.n_ops(),
        c.len()
    );
}

#[test]
fn threaded_apply_is_bitwise_identical_to_serial() {
    let mut rng = StdRng::seed_from_u64(0x7EAD);
    for case in 0..40 {
        let n = rng.gen_range(2..9);
        let len = rng.gen_range(1..50);
        let c = random_circuit(n, len, &mut rng);
        let prog = FusedProgram::from_circuit(&c);
        let mut serial = StateVector::zero(n);
        serial.apply_fused(&prog, 1);
        for threads in [1, 2, 8] {
            let mut threaded = StateVector::zero(n);
            threaded.apply_fused(&prog, threads);
            for (i, (a, b)) in serial
                .amplitudes()
                .iter()
                .zip(threaded.amplitudes())
                .enumerate()
            {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "case {case}: amplitude {i} differs with {threads} threads: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn probabilities_xor_matches_explicit_inversion_simulation() {
    let mut rng = StdRng::seed_from_u64(0x0A0B);
    for case in 0..60 {
        let n = rng.gen_range(2..7);
        let c = random_circuit(n, rng.gen_range(0..40), &mut rng);
        let mask = BitString::from_value(rng.gen_range(0u64..(1u64 << n)), n);
        let base = StateVector::from_circuit(&c);
        let fast = base.probabilities_xor(mask.index(), 1);
        let explicit =
            StateVector::from_circuit(&c.with_premeasure_inversion(mask)).probabilities();
        for (i, (f, e)) in fast.iter().zip(&explicit).enumerate() {
            assert!(
                (f - e).abs() < TOL,
                "case {case}: p[{i}] fast {f} vs explicit {e} (mask {mask})"
            );
        }
    }
}

#[test]
fn born_probabilities_equals_full_simulation() {
    let mut rng = StdRng::seed_from_u64(0xB0A2);
    for case in 0..60 {
        let n = rng.gen_range(2..7);
        let mut c = random_circuit(n, rng.gen_range(0..30), &mut rng);
        // Often end with a genuine trailing X layer to hit the fast path.
        if rng.gen_bool(0.7) {
            let mask = BitString::from_value(rng.gen_range(0u64..(1u64 << n)), n);
            c = c.with_premeasure_inversion(mask);
        }
        let fast = StateVector::born_probabilities(&c, 1);
        let full = StateVector::from_circuit(&c).probabilities();
        for (i, (f, e)) in fast.iter().zip(&full).enumerate() {
            assert!(
                (f - e).abs() < TOL,
                "case {case}: p[{i}] split-path {f} vs full {e}"
            );
        }
    }
}

#[test]
fn born_probabilities_point_mass_for_x_only_circuits() {
    for s in BitString::all(4) {
        let prep = Circuit::basis_state_preparation(s);
        let p = StateVector::born_probabilities(&prep, 1);
        for (i, &pi) in p.iter().enumerate() {
            let expect = if i == s.index() { 1.0 } else { 0.0 };
            assert_eq!(pi, expect, "state {s}, entry {i}");
        }
    }
}

#[test]
fn distribution_permute_xor_properties() {
    let mut rng = StdRng::seed_from_u64(0xD157);
    for case in 0..40 {
        let n = rng.gen_range(2..6);
        let c = random_circuit(n, rng.gen_range(0..20), &mut rng);
        let d = Distribution::from_probabilities(n, StateVector::from_circuit(&c).probabilities());
        let mask = BitString::from_value(rng.gen_range(0u64..(1u64 << n)), n);
        let permuted = d.permute_xor(mask);
        // Involution, alias agreement, and pointwise definition.
        assert_eq!(
            permuted.permute_xor(mask),
            d,
            "case {case}: not an involution"
        );
        assert_eq!(
            permuted,
            d.xor_relabeled(mask),
            "case {case}: alias diverged"
        );
        for s in BitString::all(n) {
            assert_eq!(
                permuted.probability_of(s),
                d.probability_of(s ^ mask),
                "case {case}: entry {s}"
            );
        }
    }
}

//! Integration tests for the persistent worker pool: bitwise identity of
//! every pooled kernel against its serial counterpart, pool reuse across
//! successive programs, and arena recycling across batched sweeps.
//!
//! Fixed-seed [`StdRng`] loops (same convention as `fusion.rs`): every
//! failure reproduces exactly, and assertion messages carry the case index.

use qsim::c64::C64;
use qsim::fuse::FusedProgram;
use qsim::{Circuit, Gate, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn assert_bitwise_eq(a: &StateVector, b: &StateVector, what: &str) {
    assert_eq!(a.n_qubits(), b.n_qubits(), "{what}: width mismatch");
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: amplitude {i} differs bitwise: {x:?} vs {y:?}"
        );
    }
}

/// The tentpole contract: the pooled tiled schedule produces amplitudes
/// bitwise identical to the serial path for every worker count, including
/// counts above the machine's core count.
#[test]
fn pooled_apply_is_bitwise_identical_for_every_worker_count() {
    let mut rng = StdRng::seed_from_u64(0x600D_F00D);
    for case in 0..24 {
        let n = rng.gen_range(2..=10usize);
        let circuit = random_circuit(n, rng.gen_range(4..40), &mut rng);
        let prog = FusedProgram::from_circuit(&circuit);

        let mut serial = StateVector::zero(n);
        serial.apply_fused(&prog, 1);

        for workers in [2usize, 3, 4, 8] {
            let mut pooled = StateVector::zero(n);
            pooled.apply_fused(&prog, workers);
            assert_bitwise_eq(
                &serial,
                &pooled,
                &format!("case {case} ({n}q), {workers} workers"),
            );
        }
    }
}

/// The same contract *above* the tile width. The 2–10q cases collapse to
/// a single tile (tile_bits clamps to n), so they never exercise the
/// paths that could actually diverge: here 15–17 qubit registers give
/// every worker several tiles per `Tiled` phase, and explicit gates on
/// the top qubits (at or above every tile width the scheduler can pick
/// for these sizes) force `Phase::Global` chunked sweeps and the
/// barrier-ordered phase transitions between the two kinds.
#[test]
fn pooled_apply_is_bitwise_identical_across_tiles_and_global_phases() {
    let mut rng = StdRng::seed_from_u64(0x7117_BEEF);
    for (case, n) in [15usize, 16, 17].into_iter().enumerate() {
        let mut circuit = random_circuit(n, 24, &mut rng);
        // Top-qubit gates guarantee Global phases in every schedule;
        // interleave more random gates so Tiled phases surround them.
        circuit.push(Gate::H(n - 1));
        circuit.push(Gate::Cx {
            control: n - 1,
            target: 0,
        });
        circuit.push(Gate::Rz {
            qubit: n - 2,
            theta: 0.37,
        });
        for _ in 0..8 {
            circuit.push(random_gate(n, &mut rng));
        }
        let prog = FusedProgram::from_circuit(&circuit);

        let mut serial = StateVector::zero(n);
        serial.apply_fused(&prog, 1);

        for workers in [2usize, 3, 4, 8] {
            let mut pooled = StateVector::zero(n);
            pooled.apply_fused(&prog, workers);
            assert_bitwise_eq(
                &serial,
                &pooled,
                &format!("case {case} ({n}q), {workers} workers"),
            );
            pooled.recycle();
        }
        serial.recycle();
    }
}

/// Successive programs reuse the parked pool instead of respawning: the
/// task counter keeps climbing while the thread count stays fixed.
#[test]
fn pool_is_reused_across_successive_programs() {
    let n = 9usize;
    let prog = FusedProgram::from_circuit(&Circuit::uniform_superposition(n));
    let before = qsim::pool::pool_tasks();
    for _ in 0..4 {
        let mut sv = StateVector::zero(n);
        sv.apply_fused(&prog, 4);
        sv.recycle();
    }
    let after = qsim::pool::pool_tasks();
    // Four dispatches of four participants each. Other tests may run
    // concurrently in this harness, so the delta is a floor, not an exact
    // count.
    assert!(
        after >= before + 16,
        "expected >= 16 new pool tasks, got {before} -> {after}"
    );
}

/// The Born scan matches its serial form bitwise at every width: XOR
/// relabeling is elementwise, so chunking cannot change a single entry.
#[test]
fn threaded_scans_match_serial_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xBA55_1234);
    // 16 qubits crosses the `dim >= 1 << 15` gate so the pooled path
    // actually engages rather than falling back to serial.
    let n = 16usize;
    let circuit = random_circuit(n, 24, &mut rng);
    let sv = StateVector::from_circuit(&circuit);

    let probs_serial = sv.probabilities();
    let mask = rng.gen_range(0..1usize << n);
    let xor_serial = sv.probabilities_xor(mask, 1);

    for threads in [2usize, 4, 8] {
        let probs = sv.probabilities_xor(0, threads);
        assert!(
            probs
                .iter()
                .zip(&probs_serial)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "probabilities differ at {threads} threads"
        );
        let xor = sv.probabilities_xor(mask, threads);
        assert!(
            xor.iter()
                .zip(&xor_serial)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "probabilities_xor differs at {threads} threads"
        );
    }
}

/// Runs `call` and asserts it panics with the shared zero-width message.
fn assert_rejects_zero_threads(name: &str, call: impl FnOnce()) {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
        .expect_err(&format!("{name} accepted zero threads"));
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert_eq!(msg, "need at least one thread", "{name}");
}

/// One meaning for a zero thread count: every qsim entry point that takes
/// one panics with the same message as `NoisyExecutor::with_threads`.
#[test]
fn zero_threads_panics_at_every_entry_point() {
    let circuit = Circuit::uniform_superposition(3);
    let prog = FusedProgram::from_circuit(&circuit);
    let sv = StateVector::from_circuit(&circuit);
    assert_rejects_zero_threads("apply_fused", || StateVector::zero(3).apply_fused(&prog, 0));
    assert_rejects_zero_threads("from_gates", || {
        drop(StateVector::from_gates(3, circuit.gates(), 0))
    });
    assert_rejects_zero_threads("born_probabilities", || {
        drop(StateVector::born_probabilities(&circuit, 0))
    });
    assert_rejects_zero_threads("probabilities_xor", || drop(sv.probabilities_xor(0, 0)));
    assert_rejects_zero_threads("pool::run", || qsim::pool::run(0, &|_| {}));
}

/// Recycled statevectors feed later allocations: a batch-style sweep after
/// a warm-up hits the per-thread arena instead of the global allocator, and
/// the reused buffers still come back fully zeroed.
#[test]
fn arena_reuses_buffers_across_batch_runs() {
    let n = 12usize;
    let prog = FusedProgram::from_circuit(&Circuit::uniform_superposition(n));
    // Warm the arena with a first allocation of the right size.
    StateVector::zero(n).recycle();

    let before = qsim::arena::arena_reuse_hits();
    let mut reference: Option<StateVector> = None;
    for run in 0..6 {
        let mut sv = StateVector::zero(n);
        for (i, amp) in sv.amplitudes().iter().enumerate() {
            let (want_re, want_im) = if i == 0 { (1.0f64, 0.0f64) } else { (0.0, 0.0) };
            assert!(
                amp.re.to_bits() == want_re.to_bits() && amp.im.to_bits() == want_im.to_bits(),
                "run {run}: arena handed out a dirty buffer at index {i}: {amp:?}"
            );
        }
        sv.apply_fused(&prog, 1);
        match &reference {
            None => reference = Some(sv),
            Some(r) => {
                assert_bitwise_eq(r, &sv, &format!("run {run} vs first run"));
                sv.recycle();
            }
        }
    }
    let after = qsim::arena::arena_reuse_hits();
    assert!(
        after > before,
        "expected arena reuse hits to grow, got {before} -> {after}"
    );

    // The recycled-capacity path must be exercised at least once more by a
    // fresh same-size request.
    let hits = qsim::arena::arena_reuse_hits();
    StateVector::zero(n).recycle();
    let sv = StateVector::zero(n);
    assert!(
        qsim::arena::arena_reuse_hits() > hits,
        "same-size reallocation should hit the arena"
    );
    assert!(sv.amplitudes()[0].re.to_bits() == C64::ONE.re.to_bits());
}

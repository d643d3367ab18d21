//! Shot-execution engine benchmarks: per-shot reference vs the batched
//! engine (alias-table sampling + exact-channel shot synthesis).
//!
//! The headline comparison is the acceptance target of the batched-engine
//! work: readout-only 5-qubit brute-force characterization at 8192
//! shots/state, per-shot vs synthesized. Set `CRITERION_JSON=<path>` to
//! record the timings (see `BENCH_sampler.json` at the repo root).
//!
//! The `gate_noise` group times one gate-noise run of each job kind the
//! end-to-end workloads send (`cargo bench -p qbenches --bench sampler --
//! gate_noise`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use invmeas::{InversionString, RbmsTable};
use qbenches::bench_rng;
use qnoise::{DeviceModel, Executor, NoisyExecutor};
use qsim::{BitString, Circuit, StateVector};
use qworkloads::{BernsteinVazirani, Graph, Qaoa};

const SHOTS_PER_STATE: u64 = 8_192;

/// Per-shot reference vs batched engine on the acceptance workload:
/// 5-qubit readout-only brute-force characterization, 8192 shots/state.
fn bench_brute_force_paths(c: &mut Criterion) {
    let dev = DeviceModel::ibmqx2();
    let per_shot = NoisyExecutor::readout_only(&dev)
        .with_shot_synthesis(false)
        .with_threads(1);
    let batched = NoisyExecutor::readout_only(&dev).with_threads(1);

    let mut group = c.benchmark_group("brute_force_5q_8192");
    group.sample_size(10);
    group.throughput(Throughput::Elements(32 * SHOTS_PER_STATE));
    group.bench_function("per_shot", |b| {
        let mut rng = bench_rng();
        b.iter(|| RbmsTable::brute_force(&per_shot, SHOTS_PER_STATE, &mut rng))
    });
    group.bench_function("batched", |b| {
        let mut rng = bench_rng();
        b.iter(|| RbmsTable::brute_force(&batched, SHOTS_PER_STATE, &mut rng))
    });
    group.finish();
}

/// Raw sampling throughput: alias table vs linear scan over the state
/// vector, per shot, on a dense superposition.
fn bench_sampling_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("born_sampling");
    for n in [5usize, 10, 14] {
        let psi = StateVector::from_circuit(&Circuit::uniform_superposition(n));
        let sampler = psi.sampler();
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("linear_scan", n), &psi, |b, psi| {
            let mut rng = bench_rng();
            b.iter(|| psi.sample(&mut rng))
        });
        group.bench_with_input(BenchmarkId::new("alias_table", n), &sampler, |b, s| {
            let mut rng = bench_rng();
            b.iter(|| s.sample(&mut rng))
        });
    }
    group.finish();
}

/// Shot-count scaling of one readout-only execution: the synthesized
/// path should be flat in shots, the per-shot path linear.
fn bench_shot_scaling(c: &mut Criterion) {
    let dev = DeviceModel::ibmqx4();
    let circuit = Circuit::basis_state_preparation("10110".parse().unwrap());
    let synth = NoisyExecutor::readout_only(&dev);
    let per_shot = NoisyExecutor::readout_only(&dev).with_shot_synthesis(false);

    let mut group = c.benchmark_group("shot_scaling");
    group.sample_size(10);
    for shots in [1_024u64, 8_192, 65_536] {
        group.throughput(Throughput::Elements(shots));
        group.bench_with_input(BenchmarkId::new("per_shot", shots), &shots, |b, &shots| {
            let mut rng = bench_rng();
            b.iter(|| per_shot.run(&circuit, shots, &mut rng))
        });
        group.bench_with_input(
            BenchmarkId::new("synthesized", shots),
            &shots,
            |b, &shots| {
                let mut rng = bench_rng();
                b.iter(|| synth.run(&circuit, shots, &mut rng))
            },
        );
    }
    group.finish();
}

/// One full-noise run (gate faults plus readout) per job kind:
///
/// * `bv5_1024` — 5-qubit BV (4-bit key plus ancilla), 1024 shots on
///   `ibmqx2`, the warm job of the `drift-churn` workload;
/// * `bv13_160` — BV-13 plus ancilla, weight-7 key, 160 shots on
///   `ibmq-melbourne`;
/// * `qaoa14_40` — QAOA ring-14 p=2 with an inversion layer, 40 shots on
///   `ibmq-melbourne`. Two thirds of its trajectories cannot be pushed to
///   the readout as a Pauli frame, so this case tracks the resumed
///   re-simulation path;
/// * `qaoa14_sim4x10` — the same QAOA circuit as one SIM group run: its
///   four trailing-X inversion variants through `run_groups`, 10 shots
///   each, so the variants share one base and its checkpoints.
fn bench_gate_noise(c: &mut Criterion) {
    let qx2 = NoisyExecutor::from_device(&DeviceModel::ibmqx2());
    let melbourne = NoisyExecutor::from_device(&DeviceModel::ibmq_melbourne());
    let bv5 = BernsteinVazirani::with_ancilla("1011".parse().unwrap());
    let bv13 = BernsteinVazirani::with_ancilla("1011001100101".parse().unwrap());
    // A ring's QAOA angles depend only on the radius-p neighbourhood of an
    // edge, so angles trained on the 6-ring serve the 14-ring.
    let trained = Qaoa::optimized(Graph::ring(6), 2);
    let qaoa14_base = Qaoa::new(
        Graph::ring(14),
        trained.gammas().to_vec(),
        trained.betas().to_vec(),
    )
    .circuit();
    let qaoa14 =
        qaoa14_base.with_premeasure_inversion(BitString::from_value(0b10_1101_0011_0110, 14));
    let sim4: Vec<Circuit> = InversionString::sim_four(14)
        .iter()
        .map(|inv| inv.apply(&qaoa14_base))
        .collect();
    let cases: [(&str, &NoisyExecutor, &Circuit, u64); 3] = [
        ("bv5_1024", &qx2, bv5.circuit(), 1024),
        ("bv13_160", &melbourne, bv13.circuit(), 160),
        ("qaoa14_40", &melbourne, &qaoa14, 40),
    ];

    let mut group = c.benchmark_group("gate_noise");
    group.sample_size(10);
    for (name, exec, circuit, shots) in cases {
        group.throughput(Throughput::Elements(shots));
        group.bench_function(name, |b| {
            let mut rng = bench_rng();
            b.iter(|| exec.run(circuit, shots, &mut rng))
        });
    }
    group.throughput(Throughput::Elements(40));
    group.bench_function("qaoa14_sim4x10", |b| {
        let mut rng = bench_rng();
        b.iter(|| melbourne.run_groups(&sim4, &[10; 4], &mut rng))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_brute_force_paths,
    bench_sampling_paths,
    bench_shot_scaling,
    bench_gate_noise
);
criterion_main!(benches);

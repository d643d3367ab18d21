//! Simulator substrate performance: state-vector gate application,
//! Born-rule sampling, and readout-channel throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qbenches::bench_rng;
use qnoise::{DeviceModel, ReadoutModel};
use qsim::{BitString, Circuit, Distribution, FusedProgram, StateVector};

/// A representative layered circuit: H wall, CX chain, Rz layer, repeated.
fn layered_circuit(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..n {
            c.rz(q, 0.37);
        }
    }
    c
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    for n in [5usize, 8, 11, 14] {
        let circuit = layered_circuit(n, 4);
        group.throughput(Throughput::Elements(circuit.len() as u64));
        group.bench_with_input(BenchmarkId::new("apply_circuit", n), &circuit, |b, circ| {
            b.iter(|| StateVector::from_circuit(circ))
        });
    }
    // Unfused gate-by-gate reference at the largest width: the headline
    // speedup is apply_circuit/14 vs this baseline.
    let circuit = layered_circuit(14, 4);
    group.throughput(Throughput::Elements(circuit.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("apply_unfused", 14),
        &circuit,
        |b, circ| {
            b.iter(|| {
                let mut sv = StateVector::zero(circ.n_qubits());
                sv.apply_circuit(circ);
                sv
            })
        },
    );
    group.finish();
}

fn bench_threaded_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded");
    // `apply_fused` runs on exactly the width it is given, so a row
    // labelled with more threads than this host has would measure
    // oversubscription, not scaling: bench only the widths the host has.
    let cpus = qsim::pool::available_threads();
    let (widths, skipped): (Vec<usize>, Vec<usize>) =
        [1usize, 2, 4, 8].into_iter().partition(|&t| t <= cpus);
    if !skipped.is_empty() {
        eprintln!("threaded: skipping thread counts {skipped:?} (host has {cpus})");
    }
    for n in [14usize, 16, 18, 20] {
        let prog = FusedProgram::from_circuit(&layered_circuit(n, 4));
        group.throughput(Throughput::Elements(prog.n_ops() as u64));
        if n >= 18 {
            group.sample_size(10);
        }
        for &threads in &widths {
            group.bench_with_input(
                BenchmarkId::new(format!("apply_fused_{n}q"), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let mut sv = StateVector::zero(n);
                        sv.apply_fused(&prog, threads);
                        sv.recycle();
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_variant_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("variants");
    let n = 14usize;
    let base = layered_circuit(n, 4);
    let mask = BitString::ones(n);
    // Naive: re-simulate the inverted variant end to end.
    group.bench_function("resimulate_14q", |b| {
        let inverted = base.with_premeasure_inversion(mask);
        b.iter(|| StateVector::from_circuit(&inverted).probabilities())
    });
    // Amortized: one base distribution, XOR-permuted per variant.
    let dist = Distribution::from_probabilities(n, StateVector::born_probabilities(&base, 1));
    group.bench_function("permute_xor_14q", |b| b.iter(|| dist.permute_xor(mask)));
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    for n in [5usize, 10, 14] {
        let psi = StateVector::from_circuit(&Circuit::uniform_superposition(n));
        group.throughput(Throughput::Elements(1024));
        group.bench_with_input(BenchmarkId::new("born_samples", n), &psi, |b, psi| {
            let mut rng = bench_rng();
            b.iter(|| {
                let mut acc = 0u64;
                for _ in 0..1024 {
                    acc ^= psi.sample(&mut rng).value();
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_readout_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("readout");
    let dev = DeviceModel::ibmq_melbourne();
    let readout = dev.readout();
    let ideal = BitString::ones(14);
    group.throughput(Throughput::Elements(1024));
    group.bench_function("corrupt_14q_x1024", |b| {
        let mut rng = bench_rng();
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc ^= readout.corrupt(ideal, &mut rng).value();
            }
            acc
        })
    });
    group.bench_function("exact_confusion_row_14q", |b| {
        b.iter(|| readout.success_probability(ideal))
    });
    let qx2 = DeviceModel::ibmqx2().readout();
    let dist = qsim::Distribution::uniform(5);
    group.bench_function("push_distribution_5q", |b| {
        b.iter(|| qx2.apply_to_distribution(&dist))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_statevector,
    bench_threaded_apply,
    bench_variant_amortization,
    bench_sampling,
    bench_readout_channel
);
criterion_main!(benches);

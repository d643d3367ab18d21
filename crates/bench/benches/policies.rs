//! Measurement-policy execution cost: what running a fixed trial budget
//! costs under baseline, SIM, and AIM. The paper's policies never run extra
//! trials, so their overhead is circuit transformation + bookkeeping only —
//! these benches verify that the overhead stays marginal.

use criterion::{criterion_group, criterion_main, Criterion};
use invmeas::{AdaptiveInvertMeasure, Baseline, MeasurementPolicy, RbmsTable, StaticInvertMeasure};
use qbenches::bench_rng;
use qnoise::{DeviceModel, NoisyExecutor};
use qworkloads::Benchmark;

const SHOTS: u64 = 4_096;

fn bench_policies(c: &mut Criterion) {
    let dev = DeviceModel::ibmqx4();
    let exec = NoisyExecutor::from_device(&dev);
    let bench = Benchmark::bv("bv-4B", "1111".parse().expect("valid"));
    let profile = RbmsTable::exact(&dev.readout());

    let mut group = c.benchmark_group("policy_execution");
    group.sample_size(20);
    let policies: Vec<(&str, Box<dyn MeasurementPolicy>)> = vec![
        ("baseline", Box::new(Baseline)),
        ("sim2", Box::new(StaticInvertMeasure::two_mode(5))),
        ("sim4", Box::new(StaticInvertMeasure::four_mode(5))),
        ("aim", Box::new(AdaptiveInvertMeasure::new(profile.clone()))),
    ];
    for (name, policy) in &policies {
        group.bench_function(*name, |b| {
            let mut rng = bench_rng();
            b.iter(|| policy.execute(bench.circuit(), SHOTS, &exec, &mut rng))
        });
    }
    group.finish();

    // Profiling cost (AIM's offline phase), which the online benches above
    // exclude: brute force vs the executor-cheap exact path.
    let mut offline = c.benchmark_group("aim_offline_profile");
    offline.sample_size(10);
    offline.bench_function("brute_force_5q_512shots", |b| {
        let mut rng = bench_rng();
        b.iter(|| RbmsTable::brute_force(&exec, 512, &mut rng))
    });
    offline.bench_function("exact_channel_5q", |b| {
        let readout = dev.readout();
        b.iter(|| RbmsTable::exact(&readout))
    });
    offline.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);

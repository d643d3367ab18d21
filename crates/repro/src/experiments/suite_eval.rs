//! The shared benchmark-suite evaluation behind Figure 10, Table 5, and
//! Figure 14: every Table 3 benchmark on its machine, under baseline, SIM,
//! and AIM, with identical trial budgets.

use crate::experiments::rng_for;
use crate::{Config, ExperimentOutput};
use invmeas::{AdaptiveInvertMeasure, Baseline, MeasurementPolicy, RbmsTable, StaticInvertMeasure};
use qmetrics::{fmt_prob, fmt_ratio, ist, pst, Table};
use qnoise::{DeviceModel, NoisyExecutor};
use qworkloads::{suite_q14, suite_q5, Benchmark};

/// The policies compared, in order.
pub const POLICIES: [&str; 3] = ["baseline", "SIM", "AIM"];

/// One benchmark × machine evaluation.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// Machine name.
    pub machine: String,
    /// Benchmark name (paper nomenclature).
    pub benchmark: String,
    /// PST under baseline / SIM / AIM.
    pub pst: [f64; 3],
    /// IST under baseline / SIM / AIM.
    pub ist: [f64; 3],
}

fn eval_on(
    cfg: &Config,
    machine: &DeviceModel,
    benchmarks: &[Benchmark],
    rows: &mut Vec<SuiteRow>,
) {
    let shots = cfg.shots(32_000);
    for bench in benchmarks {
        let width = bench.circuit().n_qubits();
        // Variability-aware allocation: the benchmark runs on the machine's
        // best `width` qubits (identical for all three policies).
        let dev = if width == machine.n_qubits() {
            machine.clone()
        } else {
            machine.best_qubits_subdevice(width)
        };
        let exec = NoisyExecutor::from_device(&dev);
        let mut rng = rng_for(cfg, &format!("suite-{}-{}", machine.name(), bench.name()));

        let profile = RbmsTable::prescribed(&exec, cfg.shots(16_000), &mut rng);
        let sim = StaticInvertMeasure::four_mode(width);
        let aim = AdaptiveInvertMeasure::new(profile);
        let policies: [&dyn MeasurementPolicy; 3] = [&Baseline, &sim, &aim];

        let mut row = SuiteRow {
            machine: machine.name().to_string(),
            benchmark: bench.name().to_string(),
            pst: [0.0; 3],
            ist: [0.0; 3],
        };
        for (i, policy) in policies.iter().enumerate() {
            let log = policy.execute(bench.circuit(), shots, &exec, &mut rng);
            row.pst[i] = pst(&log, bench.correct());
            row.ist[i] = ist(&log, bench.correct());
        }
        rows.push(row);
    }
}

/// Evaluates the full paper suite: bv-4A/4B + qaoa-4A/4B on both five-qubit
/// machines, bv-6/7 + qaoa-6/7 on melbourne — 12 rows.
pub fn evaluate(cfg: &Config) -> Vec<SuiteRow> {
    let mut rows = Vec::with_capacity(12);
    let q5 = suite_q5();
    eval_on(cfg, &DeviceModel::ibmqx2(), &q5, &mut rows);
    eval_on(cfg, &DeviceModel::ibmqx4(), &q5, &mut rows);
    eval_on(cfg, &DeviceModel::ibmq_melbourne(), &suite_q14(), &mut rows);
    rows
}

/// Figure 10: PST of SIM normalized to the baseline, per benchmark and
/// machine.
pub fn fig10(rows: &[SuiteRow]) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig10",
        "Impact of SIM on PST, normalized to baseline (paper Figure 10)",
    );
    let mut t = Table::new(&[
        "machine",
        "benchmark",
        "baseline PST",
        "SIM PST",
        "relative",
    ]);
    let mut per_machine: Vec<(String, Vec<f64>)> = Vec::new();
    for r in rows {
        let rel = r.pst[1] / r.pst[0].max(1e-9);
        t.row_owned(vec![
            r.machine.clone(),
            r.benchmark.clone(),
            fmt_prob(r.pst[0]),
            fmt_prob(r.pst[1]),
            fmt_ratio(rel),
        ]);
        match per_machine.iter_mut().find(|(m, _)| *m == r.machine) {
            Some((_, v)) => v.push(rel),
            None => per_machine.push((r.machine.clone(), vec![rel])),
        }
    }
    out.section("SIM PST relative to baseline", t);
    let mut s = Table::new(&["machine", "mean improvement", "max improvement"]);
    for (m, rels) in &per_machine {
        let (_, avg, max) = qmetrics::min_avg_max(rels);
        s.row_owned(vec![m.clone(), fmt_ratio(avg), fmt_ratio(max)]);
    }
    out.section("per-machine summary", s);
    out.section(
        "paper reference",
        "SIM improves PST on all machines, by as much as 2x on ibmqx4",
    );
    out
}

/// Table 5: Inference Strength for baseline, SIM, and AIM. A check mark
/// means the correct answer tops the output log (IST > 1).
pub fn table5(rows: &[SuiteRow]) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "table5",
        "Inference Strength for baseline, SIM, and AIM (paper Table 5)",
    );
    let fmt_ist = |v: f64| {
        if v.is_infinite() {
            "inf ok".to_string()
        } else if v >= 1.0 {
            format!("{v:.2} ok")
        } else {
            format!("{v:.2}")
        }
    };
    let mut t = Table::new(&["benchmark", "machine", "baseline", "SIM", "AIM"]);
    for r in rows {
        t.row_owned(vec![
            r.benchmark.clone(),
            r.machine.clone(),
            fmt_ist(r.ist[0]),
            fmt_ist(r.ist[1]),
            fmt_ist(r.ist[2]),
        ]);
    }
    out.section("IST ('ok' marks IST >= 1: correct answer tops the log)", t);
    out.section(
        "paper reference",
        "on ibmqx4 SIM improves IST by 3.4x and AIM by 7.2x on average; \
         bv-4A goes 0.46 -> 2.85 -> 10.38",
    );
    out
}

/// Figure 14: PST of SIM and AIM normalized to the baseline.
pub fn fig14(rows: &[SuiteRow]) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig14",
        "PST of SIM and AIM normalized to baseline (paper Figure 14)",
    );
    let mut t = Table::new(&["machine", "benchmark", "SIM gain", "AIM gain"]);
    let mut per_machine: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for r in rows {
        let sim_rel = r.pst[1] / r.pst[0].max(1e-9);
        let aim_rel = r.pst[2] / r.pst[0].max(1e-9);
        t.row_owned(vec![
            r.machine.clone(),
            r.benchmark.clone(),
            fmt_ratio(sim_rel),
            fmt_ratio(aim_rel),
        ]);
        match per_machine.iter_mut().find(|(m, _, _)| *m == r.machine) {
            Some((_, s, a)) => {
                s.push(sim_rel);
                a.push(aim_rel);
            }
            None => per_machine.push((r.machine.clone(), vec![sim_rel], vec![aim_rel])),
        }
    }
    out.section("relative PST", t);
    let mut s = Table::new(&["machine", "SIM mean", "SIM max", "AIM mean", "AIM max"]);
    for (m, sims, aims) in &per_machine {
        let (_, s_avg, s_max) = qmetrics::min_avg_max(sims);
        let (_, a_avg, a_max) = qmetrics::min_avg_max(aims);
        s.row_owned(vec![
            m.clone(),
            fmt_ratio(s_avg),
            fmt_ratio(s_max),
            fmt_ratio(a_avg),
            fmt_ratio(a_max),
        ]);
    }
    out.section("per-machine summary", s);
    out.section(
        "paper reference",
        "SIM up to 2x (ibmqx4 +74% mean), AIM up to 3x (ibmqx4 +290% mean); \
         smaller but consistent gains on ibmqx2 and melbourne",
    );
    out
}

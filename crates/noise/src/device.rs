//! Parameterized models of the paper's three evaluation machines.
//!
//! The reproduction has no access to the 2019 IBM cloud devices, so each
//! machine is modeled by the physical parameters that produce its published
//! behaviour (DESIGN.md §2 documents this substitution):
//!
//! * per-qubit discriminator ("assignment") error pairs, calibrated so the
//!   min/avg/max readout error match the paper's **Table 1**;
//! * per-qubit T1 times and a measurement-window duration, whose composed
//!   relaxation produces the Hamming-weight bias of **Figures 4 and 5**;
//! * readout crosstalk terms on ibmqx4 producing the repeatable *arbitrary*
//!   bias of **Figure 11**, including one exceptional qubit (q0) whose
//!   strongest value is 1 rather than 0;
//! * depolarizing gate-error rates in the paper's reported ranges
//!   (0.1–0.3 % single-qubit, 2–5 % two-qubit).
//!
//! Absolute numbers will not match the authors' testbed; the calibration
//! targets the *shapes* the paper reports.

use crate::correlated::{CorrelatedReadout, Crosstalk};
use crate::gate_noise::GateNoise;
use crate::readout::FlipPair;
use crate::tensor::TensorReadout;

/// Calibration data for one physical qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitSpec {
    /// Relaxation time constant in microseconds.
    pub t1_us: f64,
    /// Discriminator-only assignment error (excludes relaxation during the
    /// measurement window). Its [`FlipPair::mean_error`] is the quantity IBM
    /// reports as "readout error" (paper Table 1).
    pub assignment: FlipPair,
    /// Depolarizing error probability of single-qubit gates on this qubit.
    pub gate_error_1q: f64,
}

/// A complete NISQ machine model.
///
/// # Examples
///
/// ```
/// use qnoise::DeviceModel;
///
/// let dev = DeviceModel::ibmqx4();
/// assert_eq!(dev.n_qubits(), 5);
/// let (min, avg, max) = dev.assignment_error_stats();
/// assert!(min < avg && avg < max);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    name: String,
    qubits: Vec<QubitSpec>,
    coupling: Vec<(usize, usize)>,
    gate_error_2q: f64,
    edge_errors: Vec<(usize, usize, f64)>,
    meas_duration_us: f64,
    crosstalk: Vec<Crosstalk>,
}

impl DeviceModel {
    /// Builds a device from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is empty, any coupling/crosstalk index is out of
    /// range, or rates are outside `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        name: impl Into<String>,
        qubits: Vec<QubitSpec>,
        coupling: Vec<(usize, usize)>,
        gate_error_2q: f64,
        edge_errors: Vec<(usize, usize, f64)>,
        meas_duration_us: f64,
        crosstalk: Vec<Crosstalk>,
    ) -> Self {
        assert!(!qubits.is_empty(), "device needs at least one qubit");
        let n = qubits.len();
        assert!(
            (0.0..=1.0).contains(&gate_error_2q),
            "2q error rate out of range"
        );
        assert!(
            meas_duration_us >= 0.0,
            "measurement duration must be non-negative"
        );
        for &(a, b) in &coupling {
            assert!(a < n && b < n && a != b, "bad coupling edge ({a}, {b})");
        }
        for &(a, b, p) in &edge_errors {
            assert!(a < n && b < n && a != b, "bad edge-error edge ({a}, {b})");
            assert!((0.0..=1.0).contains(&p), "edge error rate out of range");
        }
        for c in &crosstalk {
            assert!(c.source < n && c.target < n, "crosstalk out of range");
        }
        DeviceModel {
            name: name.into(),
            qubits,
            coupling,
            gate_error_2q,
            edge_errors,
            meas_duration_us,
            crosstalk,
        }
    }

    /// A noiseless `n`-qubit machine (useful as the "ideal quantum
    /// computer" reference in the figures).
    pub fn ideal(n_qubits: usize) -> Self {
        DeviceModel::from_parts(
            format!("ideal-{n_qubits}"),
            vec![
                QubitSpec {
                    t1_us: 1e12,
                    assignment: FlipPair::IDEAL,
                    gate_error_1q: 0.0,
                };
                n_qubits
            ],
            Vec::new(),
            0.0,
            Vec::new(),
            0.0,
            Vec::new(),
        )
    }

    /// Model of **ibmqx2** (IBM-Q5 "Yorktown"): the most reliable of the
    /// three machines, with readout errors 1.2 % / 3.8 % / 12.8 %
    /// (min/avg/max, Table 1) and a strong Hamming-weight bias
    /// (relative BMS of `11111` ≈ 0.38, Figure 4).
    pub fn ibmqx2() -> Self {
        let t1 = [55.0, 60.0, 48.0, 65.0, 42.0];
        let assign = [
            (0.008, 0.016),
            (0.012, 0.022),
            (0.018, 0.030),
            (0.010, 0.020),
            (0.085, 0.171),
        ];
        let qubits = t1
            .iter()
            .zip(assign)
            .map(|(&t1_us, (p01, p10))| QubitSpec {
                t1_us,
                assignment: FlipPair::new(p01, p10),
                gate_error_1q: 0.0015,
            })
            .collect();
        DeviceModel::from_parts(
            "ibmqx2",
            qubits,
            vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
            0.025,
            vec![(2, 4, 0.035)],
            10.0,
            Vec::new(),
        )
    }

    /// Model of **ibmqx4** (IBM-Q5 "Tenerife"): readout errors
    /// 3.4 % / 8.2 % / 20.7 % (Table 1) and *arbitrary* state-dependent bias
    /// (Figure 11) produced by heterogeneous qubits, readout crosstalk, and
    /// one exceptional qubit (q0: long T1, inverted assignment asymmetry)
    /// whose reliable value is 1.
    pub fn ibmqx4() -> Self {
        let specs = [
            // (t1_us, p01, p10, 1q error)
            (120.0, 0.062, 0.006, 0.0020),
            (55.0, 0.030, 0.100, 0.0025),
            (30.0, 0.060, 0.060, 0.0030),
            (65.0, 0.020, 0.072, 0.0020),
            (50.0, 0.080, 0.334, 0.0030),
        ];
        let qubits = specs
            .iter()
            .map(|&(t1_us, p01, p10, g1)| QubitSpec {
                t1_us,
                assignment: FlipPair::new(p01, p10),
                gate_error_1q: g1,
            })
            .collect();
        DeviceModel::from_parts(
            "ibmqx4",
            qubits,
            vec![(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (2, 4)],
            0.045,
            vec![(2, 4, 0.06), (3, 4, 0.055)],
            6.0,
            vec![
                Crosstalk::new(1, 0, 0.06),
                Crosstalk::new(2, 4, 0.08),
                Crosstalk::new(3, 2, 0.05),
                Crosstalk::new(3, 0, 0.04),
            ],
        )
    }

    /// Model of **ibmq-melbourne** (IBM-Q14): readout errors
    /// 2.2 % / 8.1 % / 31 % (Table 1); the larger register shows the clean
    /// inverse relation between Hamming weight and measurement strength of
    /// Figure 5.
    pub fn ibmq_melbourne() -> Self {
        // Mean assignment errors (%), calibrated to Table 1 (avg 8.12, min
        // 2.2 on q1, max 31 on q6).
        let mean_err = [
            3.0, 2.2, 5.5, 4.0, 8.0, 6.5, 31.0, 5.0, 7.0, 9.5, 4.5, 12.0, 6.0, 9.5,
        ];
        let t1 = [
            58.0, 72.0, 55.0, 64.0, 48.0, 61.0, 38.0, 66.0, 52.0, 44.0, 70.0, 41.0, 63.0, 50.0,
        ];
        let qubits = mean_err
            .iter()
            .zip(t1)
            .map(|(&e_pct, t1_us)| {
                let e = e_pct / 100.0;
                QubitSpec {
                    t1_us,
                    // Asymmetric split: p01 = 0.7 e, p10 = 1.3 e keeps the
                    // mean at e while favouring 1 -> 0 errors.
                    assignment: FlipPair::new(0.7 * e, 1.3 * e),
                    gate_error_1q: 0.002,
                }
            })
            .collect();
        // Ladder topology approximating the melbourne coupling map.
        let mut coupling: Vec<(usize, usize)> = (0..6).map(|i| (i, i + 1)).collect();
        coupling.extend((7..13).map(|i| (i, i + 1)));
        coupling.extend((0..7).map(|i| (i, 13 - i)));
        DeviceModel::from_parts(
            "ibmq-melbourne",
            qubits,
            coupling,
            0.035,
            vec![(5, 6, 0.055), (6, 7, 0.05), (11, 12, 0.045)],
            1.5,
            vec![Crosstalk::new(5, 6, 0.01), Crosstalk::new(11, 10, 0.008)],
        )
    }

    /// Resolves a built-in model by name: `ibmqx2`, `ibmqx4`,
    /// `ibmq-melbourne` (or `ibmq_melbourne`), and `ideal-N` for a
    /// noiseless N-qubit reference (1 ≤ N ≤ 20). Returns `None` for
    /// anything else — callers own the error message.
    pub fn by_name(name: &str) -> Option<DeviceModel> {
        match name {
            "ibmqx2" => Some(DeviceModel::ibmqx2()),
            "ibmqx4" => Some(DeviceModel::ibmqx4()),
            "ibmq-melbourne" | "ibmq_melbourne" => Some(DeviceModel::ibmq_melbourne()),
            other => other
                .strip_prefix("ideal-")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| (1..=20).contains(&n))
                .map(DeviceModel::ideal),
        }
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// The calibration of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn qubit(&self, q: usize) -> &QubitSpec {
        &self.qubits[q]
    }

    /// The two-qubit coupling map.
    pub fn coupling(&self) -> &[(usize, usize)] {
        &self.coupling
    }

    /// The duration of the measurement window in microseconds.
    pub fn meas_duration_us(&self) -> f64 {
        self.meas_duration_us
    }

    /// Min, mean, and max per-qubit assignment error — the numbers the
    /// paper's **Table 1** reports.
    pub fn assignment_error_stats(&self) -> (f64, f64, f64) {
        let errs: Vec<f64> = self
            .qubits
            .iter()
            .map(|q| q.assignment.mean_error())
            .collect();
        let min = errs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = errs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let avg = errs.iter().sum::<f64>() / errs.len() as f64;
        (min, avg, max)
    }

    /// Effective per-qubit readout pairs: assignment error composed with T1
    /// relaxation over the measurement window. This is the total
    /// state-dependent error an experimenter observes.
    pub fn effective_pairs(&self) -> Vec<FlipPair> {
        self.qubits
            .iter()
            .map(|q| q.assignment.with_t1_decay(q.t1_us, self.meas_duration_us))
            .collect()
    }

    /// The full readout channel: effective per-qubit pairs plus crosstalk.
    pub fn readout(&self) -> CorrelatedReadout {
        CorrelatedReadout::new(
            TensorReadout::new(self.effective_pairs()),
            self.crosstalk.clone(),
        )
    }

    /// The depolarizing gate-noise model.
    pub fn gate_noise(&self) -> GateNoise {
        let mut gn = GateNoise::new(
            self.qubits.iter().map(|q| q.gate_error_1q).collect(),
            self.gate_error_2q,
        );
        for &(a, b, p) in &self.edge_errors {
            gn.set_edge_error(a, b, p);
        }
        gn
    }

    /// Restricts the model to a subset of qubits, remapping indices to
    /// `0..qubits.len()` in the order given. Coupling edges, edge-specific
    /// error rates, and crosstalk terms that are not fully contained in the
    /// subset are dropped.
    ///
    /// This models allocating a small benchmark onto specific physical
    /// qubits of a larger machine (the paper's "optimal qubit allocation").
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is empty, contains duplicates, or references a
    /// qubit outside the device.
    pub fn subdevice(&self, qubits: &[usize]) -> DeviceModel {
        assert!(!qubits.is_empty(), "subdevice needs at least one qubit");
        let n = self.n_qubits();
        let mut remap = vec![usize::MAX; n];
        for (new, &old) in qubits.iter().enumerate() {
            assert!(old < n, "qubit {old} outside device");
            assert!(remap[old] == usize::MAX, "duplicate qubit {old}");
            remap[old] = new;
        }
        let specs = qubits.iter().map(|&q| self.qubits[q]).collect();
        let coupling = self
            .coupling
            .iter()
            .filter(|&&(a, b)| remap[a] != usize::MAX && remap[b] != usize::MAX)
            .map(|&(a, b)| (remap[a], remap[b]))
            .collect();
        let edge_errors = self
            .edge_errors
            .iter()
            .filter(|&&(a, b, _)| remap[a] != usize::MAX && remap[b] != usize::MAX)
            .map(|&(a, b, p)| (remap[a], remap[b], p))
            .collect();
        let crosstalk = self
            .crosstalk
            .iter()
            .filter(|c| remap[c.source] != usize::MAX && remap[c.target] != usize::MAX)
            .map(|c| Crosstalk::new(remap[c.source], remap[c.target], c.extra))
            .collect();
        DeviceModel::from_parts(
            format!("{}[{} qubits]", self.name, qubits.len()),
            specs,
            coupling,
            self.gate_error_2q,
            edge_errors,
            self.meas_duration_us,
            crosstalk,
        )
    }

    /// The best `k` qubits by effective mean readout error, as a subdevice —
    /// a simple variability-aware allocation (the paper's baseline compiler
    /// maps benchmarks onto the strongest qubits).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds the device size.
    pub fn best_qubits_subdevice(&self, k: usize) -> DeviceModel {
        assert!(k >= 1 && k <= self.n_qubits(), "bad subdevice size {k}");
        let pairs = self.effective_pairs();
        let mut order: Vec<usize> = (0..self.n_qubits()).collect();
        order.sort_by(|&a, &b| {
            pairs[a]
                .mean_error()
                .partial_cmp(&pairs[b].mean_error())
                .expect("error rates are finite")
        });
        let mut chosen: Vec<usize> = order.into_iter().take(k).collect();
        chosen.sort_unstable();
        self.subdevice(&chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readout::ReadoutModel;
    use qsim::BitString;

    #[test]
    fn resolve_known_devices() {
        let width = |name: &str| DeviceModel::by_name(name).map(|d| d.n_qubits());
        assert_eq!(width("ibmqx2"), Some(5));
        assert_eq!(width("ibmq-melbourne"), Some(14));
        assert_eq!(width("ideal-7"), Some(7));
        assert_eq!(width("ideal-0"), None);
        assert_eq!(width("tokyo"), None);
    }

    #[test]
    fn table1_ibmqx2_stats() {
        let (min, avg, max) = DeviceModel::ibmqx2().assignment_error_stats();
        assert!((min - 0.012).abs() < 1e-9, "min = {min}");
        assert!((avg - 0.038).abs() < 0.004, "avg = {avg}");
        assert!((max - 0.128).abs() < 1e-9, "max = {max}");
    }

    #[test]
    fn table1_ibmqx4_stats() {
        let (min, avg, max) = DeviceModel::ibmqx4().assignment_error_stats();
        assert!((min - 0.034).abs() < 1e-9, "min = {min}");
        assert!((avg - 0.082).abs() < 0.004, "avg = {avg}");
        assert!((max - 0.207).abs() < 1e-9, "max = {max}");
    }

    #[test]
    fn table1_melbourne_stats() {
        let dev = DeviceModel::ibmq_melbourne();
        assert_eq!(dev.n_qubits(), 14);
        let (min, avg, max) = dev.assignment_error_stats();
        assert!((min - 0.022).abs() < 1e-9, "min = {min}");
        assert!((avg - 0.0812).abs() < 0.002, "avg = {avg}");
        assert!((max - 0.31).abs() < 1e-9, "max = {max}");
    }

    #[test]
    fn ibmqx2_all_ones_relative_bms_near_paper() {
        // Figure 4: relative BMS of 11111 on ibmqx2 is ~0.38.
        let r = DeviceModel::ibmqx2().readout();
        let strong = r.success_probability(BitString::zeros(5));
        let weak = r.success_probability(BitString::ones(5));
        let rel = weak / strong;
        assert!(
            (0.25..=0.50).contains(&rel),
            "relative BMS of 11111 = {rel}, expected near 0.38"
        );
    }

    #[test]
    fn ibmqx2_bias_is_monotone_in_weight_on_average() {
        let r = DeviceModel::ibmqx2().readout();
        // Average BMS per Hamming-weight class decreases.
        let mut class_avg = [(0.0, 0u32); 6];
        for s in BitString::all(5) {
            let e = &mut class_avg[s.hamming_weight() as usize];
            e.0 += r.success_probability(s);
            e.1 += 1;
        }
        let avgs: Vec<f64> = class_avg.iter().map(|&(sum, n)| sum / n as f64).collect();
        for w in 1..avgs.len() {
            assert!(
                avgs[w] < avgs[w - 1],
                "BMS class averages not decreasing: {avgs:?}"
            );
        }
    }

    #[test]
    fn ibmqx4_bias_is_arbitrary() {
        // Figure 11: on ibmqx4 the BMS is NOT monotone in Hamming weight —
        // some weight-1 state is weaker than some weight-2 state.
        let r = DeviceModel::ibmqx4().readout();
        let weakest_w1 = BitString::all(5)
            .filter(|s| s.hamming_weight() == 1)
            .map(|s| r.success_probability(s))
            .fold(f64::INFINITY, f64::min);
        let strongest_w2 = BitString::all(5)
            .filter(|s| s.hamming_weight() == 2)
            .map(|s| r.success_probability(s))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            weakest_w1 < strongest_w2,
            "expected arbitrary bias: weakest w1 {weakest_w1} vs strongest w2 {strongest_w2}"
        );
    }

    #[test]
    fn ibmqx4_strongest_state_is_not_all_zeros() {
        let r = DeviceModel::ibmqx4().readout();
        let zeros = r.success_probability(BitString::zeros(5));
        let best = BitString::all(5)
            .map(|s| (r.success_probability(s), s))
            .fold((f64::NEG_INFINITY, BitString::zeros(5)), |acc, x| {
                if x.0 > acc.0 {
                    x
                } else {
                    acc
                }
            });
        assert!(
            best.0 > zeros,
            "expected a state stronger than 00000 on ibmqx4, best = {} ({})",
            best.1,
            best.0
        );
    }

    #[test]
    fn melbourne_ten_qubit_relative_bms_matches_fig5() {
        // Figure 5: on melbourne, relative BMS at weight 10 (of 10 qubits)
        // is ~0.45.
        let dev = DeviceModel::ibmq_melbourne().subdevice(&[0, 1, 2, 3, 4, 5, 7, 8, 9, 10]);
        let r = dev.readout();
        let strong = r.success_probability(BitString::zeros(10));
        let weak = r.success_probability(BitString::ones(10));
        let rel = weak / strong;
        assert!(
            (0.30..=0.60).contains(&rel),
            "relative BMS at weight 10 = {rel}, expected near 0.45"
        );
    }

    #[test]
    fn ideal_device_is_noise_free() {
        let dev = DeviceModel::ideal(4);
        assert!(dev.gate_noise().is_ideal());
        let r = dev.readout();
        for s in BitString::all(4) {
            assert_eq!(r.success_probability(s), 1.0);
        }
    }

    #[test]
    fn subdevice_remaps() {
        let dev = DeviceModel::ibmqx4();
        let sub = dev.subdevice(&[2, 4]);
        assert_eq!(sub.n_qubits(), 2);
        assert_eq!(sub.qubit(0).assignment, dev.qubit(2).assignment);
        assert_eq!(sub.qubit(1).assignment, dev.qubit(4).assignment);
        // The (2,4) coupling edge survives remapped to (0,1).
        assert!(sub.coupling().contains(&(0, 1)));
        // Crosstalk 2 -> 4 survives as 0 -> 1.
        assert_eq!(sub.readout().crosstalk().len(), 1);
    }

    #[test]
    fn best_qubits_picks_lowest_error() {
        let dev = DeviceModel::ibmq_melbourne();
        let sub = dev.best_qubits_subdevice(5);
        assert_eq!(sub.n_qubits(), 5);
        // The worst qubit (q6, 31% assignment) must not be selected.
        let worst = dev.qubit(6).assignment;
        for q in 0..5 {
            assert_ne!(sub.qubit(q).assignment, worst);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn subdevice_rejects_duplicates() {
        DeviceModel::ibmqx2().subdevice(&[0, 0]);
    }
}

//! Seeded workload generation: known-answer programs, warm-up requests and
//! the arrival stream of each workload.
//!
//! Everything here is a pure function of `(workload, seed)`: the same seed
//! gives a byte-identical request stream, and the server only ever sees the
//! generated request lines.

use invmeas_service::{CharacterizeRequest, MethodKind, PolicyKind, Request, SubmitRequest};
use qsim::{qasm, BitString, Circuit};
use qworkloads::{ghz_circuit, BernsteinVazirani, Graph, Qaoa};

/// SplitMix64: a tiny, well-mixed generator whose output depends only on
/// its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// A request seed: kept below 2^53 so it survives any JSON reader.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive5q,
    Wide14q,
    DriftChurn,
}

/// Fixed shape of one workload. Every workload is a closed loop on one
/// connection: the next request leaves when the previous reply arrives.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Latency limit a submit must meet to count toward `slo_met_ratio`.
    pub slo_ms: f64,
    /// Time windows the latency percentiles are taken over (their mean
    /// is reported).
    pub windows: usize,
    /// Devices the workload submits to.
    pub devices: &'static [&'static str],
    /// A `set-window` replaces every `n`-th arrival.
    pub window_every: Option<usize>,
    /// Whether the server persists profiles to a fresh directory.
    pub profile_dir: bool,
}

const FIVE_Q: &[&str] = &["ibmqx2", "ibmqx4"];
const MELBOURNE: &str = "ibmq-melbourne";
/// Arrivals per calibration window on `drift-churn`, the `set-window`
/// included. Each window pays three characterizations (one per device);
/// at 100 arrivals they and the 14-qubit pair stay under 5% of the
/// submits, so `submit_p90_ms` falls inside the warm five-qubit submits
/// rather than on the boundary between them and the slow ones.
const DRIFT_WINDOW_ARRIVALS: usize = 100;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Interactive5q,
        Workload::Wide14q,
        Workload::DriftChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive5q => "interactive-5q",
            Workload::Wide14q => "wide-14q",
            Workload::DriftChurn => "drift-churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::Interactive5q => Spec {
                slo_ms: 20.0,
                windows: 30,
                devices: FIVE_Q,
                window_every: None,
                profile_dir: false,
            },
            Workload::Wide14q => Spec {
                slo_ms: 1000.0,
                windows: 4,
                devices: &[MELBOURNE],
                window_every: None,
                profile_dir: false,
            },
            Workload::DriftChurn => Spec {
                slo_ms: 1000.0,
                windows: 10,
                devices: &["ibmqx2", "ibmqx4", MELBOURNE],
                window_every: Some(DRIFT_WINDOW_ARRIVALS),
                profile_dir: true,
            },
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Interactive5q => 0x5a17_0001,
            Workload::Wide14q => 0x5a17_0002,
            Workload::DriftChurn => 0x5a17_0003,
        }
    }
}

/// Which family a known-answer program belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Bv,
    Basis,
    Ghz,
    QaoaRing,
}

/// A circuit with a known correct output, serialized once to QASM.
#[derive(Debug, Clone)]
pub struct Program {
    pub family: Family,
    pub qasm: String,
    pub expected: BitString,
}

impl Program {
    fn new(family: Family, circuit: &Circuit, expected: BitString) -> Program {
        Program {
            family,
            qasm: qasm::to_qasm(circuit),
            expected,
        }
    }
}

/// The per-seed program pools.
#[derive(Debug, Clone)]
pub struct Programs {
    pub five: Vec<Program>,
    pub fourteen: Vec<Program>,
}

/// Alternating max cut of an even ring.
fn alternating(n: usize) -> BitString {
    (0..n).fold(BitString::zeros(n), |b, q| b.with_bit(q, q % 2 == 1))
}

/// A random bit string of `width` bits with exactly `weight` ones.
fn bits_of_weight(rng: &mut SplitMix64, width: usize, weight: usize) -> BitString {
    let mut positions: Vec<usize> = (0..width).collect();
    for i in 0..weight {
        let j = i + rng.below(width - i);
        positions.swap(i, j);
    }
    positions[..weight]
        .iter()
        .fold(BitString::zeros(width), |b, &q| b.with_bit(q, true))
}

impl Programs {
    /// Builds the 5- and 14-qubit pools. The 5-qubit pool is every
    /// non-trivial Bernstein–Vazirani secret and basis state, plus GHZ.
    /// The 14-qubit pool is four masked QAOA rings and four BV-13 secrets
    /// at spread Hamming weights. The pools are the same for every seed, so
    /// a run's cost and mitigation gain move only with the request
    /// sequence the seed draws, not with which circuits it happened to get.
    pub fn build(with_fourteen: bool) -> Programs {
        let mut rng = SplitMix64::new(0x9a09_7a11);
        let mut five = Vec::new();
        for v in 1..15 {
            let bv = BernsteinVazirani::with_ancilla(BitString::from_value(v, 4));
            five.push(Program::new(Family::Bv, bv.circuit(), bv.expected_output()));
        }
        for v in 1..31 {
            let s = BitString::from_value(v, 5);
            five.push(Program::new(
                Family::Basis,
                &Circuit::basis_state_preparation(s),
                s,
            ));
        }
        five.push(Program::new(
            Family::Ghz,
            &ghz_circuit(5),
            BitString::ones(5),
        ));

        let mut fourteen = Vec::new();
        if with_fourteen {
            // A ring's QAOA angles depend only on the radius-p neighbourhood
            // of an edge, so angles trained on the 6-ring are the 14-ring's.
            let trained = Qaoa::optimized(Graph::ring(6), 2);
            let ring = Qaoa::new(
                Graph::ring(14),
                trained.gammas().to_vec(),
                trained.betas().to_vec(),
            )
            .circuit();
            for weight in [5, 7, 9, 11] {
                // X gates move the alternating cut onto a drawn answer.
                let answer = bits_of_weight(&mut rng, 14, weight);
                fourteen.push(Program::new(
                    Family::QaoaRing,
                    &ring.with_premeasure_inversion(alternating(14) ^ answer),
                    answer,
                ));
            }
            for weight in [4, 6, 8, 10] {
                let secret = bits_of_weight(&mut rng, 13, weight);
                let bv = BernsteinVazirani::with_ancilla(secret);
                fourteen.push(Program::new(Family::Bv, bv.circuit(), bv.expected_output()));
            }
        }
        Programs { five, fourteen }
    }

    fn pool(&self, device: &str) -> &[Program] {
        if device == MELBOURNE {
            &self.fourteen
        } else {
            &self.five
        }
    }
}

/// What one arrival asks for, with what the checker needs to know.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Submit(SubmitRequest),
    Status,
    Characterize(CharacterizeRequest),
    SetWindow(u64),
}

impl Op {
    pub fn request(&self) -> Request {
        match self {
            Op::Submit(s) => Request::Submit(s.clone()),
            Op::Status => Request::Status,
            Op::Characterize(c) => Request::Characterize(c.clone()),
            Op::SetWindow(w) => Request::SetWindow {
                window: *w,
                fwd: false,
            },
        }
    }
}

/// One request of the stream and its wire line.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub op: Op,
    pub line: String,
}

fn submit(device: &str, p: &Program, policy: PolicyKind, shots: u64, seed: u64) -> Op {
    Op::Submit(SubmitRequest {
        device: device.to_string(),
        qasm: p.qasm.clone(),
        policy,
        shots,
        seed,
        expected: Some(p.expected.to_string()),
        deadline_ms: None,
        fwd: false,
    })
}

/// Its baseline twin: same device, program, shots and seed, so the AIM
/// gain is measured on matched inputs.
fn baseline_twin(op: &Op) -> Op {
    match op {
        Op::Submit(s) => Op::Submit(SubmitRequest {
            policy: PolicyKind::Baseline,
            ..s.clone()
        }),
        other => other.clone(),
    }
}

/// Produces a workload's arrivals in order.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    spec: Spec,
    programs: Programs,
    rng: SplitMix64,
    index: usize,
    draws: usize,
    window: u64,
    /// Set by a `set-window`; the next `drift-churn` draw is the window's
    /// 14-qubit submit.
    window_opened: bool,
    twin: Option<Op>,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64, programs: Programs) -> Generator {
        Generator {
            workload,
            spec: workload.spec(),
            programs,
            rng: SplitMix64::new(seed ^ workload.salt()),
            index: 0,
            draws: 0,
            window: 0,
            window_opened: false,
            twin: None,
        }
    }

    /// The next arrival of the stream.
    pub fn next_arrival(&mut self) -> Arrival {
        let index = self.index;
        self.index += 1;
        let op = match self.spec.window_every {
            // The window advances by arrival count, never by wall clock.
            Some(n) if (index + 1).is_multiple_of(n) => {
                self.window += 1;
                self.window_opened = true;
                Op::SetWindow(self.window)
            }
            _ => match self.twin.take() {
                Some(twin) => twin,
                None => self.draw(),
            },
        };
        let line = op.request().to_line();
        Arrival { op, line }
    }

    fn draw(&mut self) -> Op {
        self.draws += 1;
        match self.workload {
            Workload::Interactive5q => {
                let u = self.rng.unit();
                let device = FIVE_Q[self.rng.below(2)];
                if u < 0.1 {
                    return Op::Status;
                }
                if u < 0.2 {
                    // Same method and budget as an AIM submit: a cache hit.
                    return Op::Characterize(CharacterizeRequest {
                        device: device.to_string(),
                        method: MethodKind::Brute,
                        shots: 0,
                        fwd: false,
                    });
                }
                let shots = [32, 64, 128, 256][self.rng.below(4)];
                let policy = if self.rng.unit() < 1.0 / 3.0 {
                    PolicyKind::Sim
                } else {
                    PolicyKind::Aim
                };
                self.pick(device, policy, shots, None)
            }
            Workload::Wide14q => {
                // A fixed cycle, so every run has the same kind proportions.
                const CYCLE: [(Family, PolicyKind); 4] = [
                    (Family::QaoaRing, PolicyKind::Sim),
                    (Family::QaoaRing, PolicyKind::Aim),
                    (Family::Bv, PolicyKind::Sim),
                    (Family::Bv, PolicyKind::Aim),
                ];
                let (family, policy) = CYCLE[self.draws % 4];
                let shots = if family == Family::QaoaRing { 40 } else { 160 };
                self.pick(MELBOURNE, policy, shots, Some(family))
            }
            Workload::DriftChurn => {
                // One 14-qubit AIM submit opens each window and pays its
                // AWCT characterization; the five-qubit ones that follow
                // pay a brute one on the first AIM per device.
                if std::mem::take(&mut self.window_opened) {
                    return self.pick(MELBOURNE, PolicyKind::Aim, 8, Some(Family::Bv));
                }
                let device = FIVE_Q[self.rng.below(2)];
                let policy = if self.rng.unit() < 0.1 {
                    PolicyKind::Sim
                } else {
                    PolicyKind::Aim
                };
                // BV circuits only: a basis-state submit is so cheap that
                // its latency is mostly the request path, which moves with
                // the host far more than kernel work does.
                self.pick(device, policy, 1024, Some(Family::Bv))
            }
        }
    }

    /// A submit of a random program from the device's pool (optionally of
    /// one family); an AIM submit queues its baseline twin.
    fn pick(&mut self, device: &str, policy: PolicyKind, shots: u64, family: Option<Family>) -> Op {
        let pool: Vec<&Program> = self
            .programs
            .pool(device)
            .iter()
            .filter(|p| family.is_none_or(|f| p.family == f))
            .collect();
        // `wide-14q` sends few requests, so it cycles through its pool to
        // keep every program equally represented.
        let program = if self.workload == Workload::Wide14q {
            pool[self.draws / 4 % pool.len()]
        } else {
            pool[self.rng.below(pool.len())]
        };
        let seed = self.rng.seed();
        let op = submit(device, program, policy, shots, seed);
        if policy == PolicyKind::Aim {
            self.twin = Some(baseline_twin(&op));
        }
        op
    }
}

/// The warm-up requests a fresh server gets before it counts as set up:
/// per device an AIM submit first (it pays the characterization), then
/// one submit of every other policy, then the workload's control ops.
pub fn warmup(workload: Workload, programs: &Programs) -> Vec<Op> {
    let spec = workload.spec();
    let mut ops = Vec::new();
    for (i, &device) in spec.devices.iter().enumerate() {
        let shots = if device == MELBOURNE { 4 } else { 16 };
        for family in families(workload) {
            let p = programs
                .pool(device)
                .iter()
                .find(|p| p.family == family)
                .expect("every pool holds each family it is drawn from");
            for policy in [PolicyKind::Aim, PolicyKind::Baseline, PolicyKind::Sim] {
                ops.push(submit(device, p, policy, shots, 1000 + i as u64));
            }
        }
    }
    if workload == Workload::Interactive5q {
        ops.push(Op::Status);
        ops.push(Op::Characterize(CharacterizeRequest {
            device: FIVE_Q[0].to_string(),
            method: MethodKind::Brute,
            shots: 0,
            fwd: false,
        }));
    }
    ops
}

/// Cold-submit probes for a set-up server of a read-side workload, whose
/// measured phase has no cache misses by design: each round advances to
/// the next of `windows`, then sends every device's first warm-up AIM
/// submit, which must pay a characterization.
pub fn cold_probe(
    workload: Workload,
    programs: &Programs,
    windows: std::ops::RangeInclusive<u64>,
) -> Vec<Op> {
    let mut first_aim: Vec<Op> = Vec::new();
    for op in warmup(workload, programs) {
        if let Op::Submit(s) = &op {
            let seen = first_aim
                .iter()
                .any(|o| matches!(o, Op::Submit(f) if f.device == s.device));
            if s.policy == PolicyKind::Aim && !seen {
                first_aim.push(op);
            }
        }
    }
    windows
        .flat_map(|window| std::iter::once(Op::SetWindow(window)).chain(first_aim.clone()))
        .collect()
}

fn families(workload: Workload) -> Vec<Family> {
    if workload == Workload::Wide14q {
        vec![Family::QaoaRing, Family::Bv]
    } else {
        vec![Family::Bv]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, n: usize) -> String {
        let programs = Programs::build(workload != Workload::Interactive5q);
        let mut g = Generator::new(workload, seed, programs);
        (0..n)
            .map(|_| {
                let a = g.next_arrival();
                format!("{}\n", a.line)
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7, 200), stream(w, 7, 200), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in Workload::ALL {
            assert_ne!(stream(w, 7, 200), stream(w, 8, 200), "{}", w.name());
        }
    }

    #[test]
    fn set_window_is_inserted_by_arrival_count() {
        let w = Workload::DriftChurn;
        let every = w.spec().window_every.expect("drift-churn advances windows");
        for seed in [1, 2, 3] {
            let mut g = Generator::new(w, seed, Programs::build(true));
            let mut next_window = 1;
            for i in 0..(every * 5) {
                let a = g.next_arrival();
                if (i + 1) % every == 0 {
                    assert_eq!(a.op, Op::SetWindow(next_window), "arrival {i}");
                    next_window += 1;
                } else {
                    assert!(!matches!(a.op, Op::SetWindow(_)), "arrival {i}");
                }
            }
        }
    }

    #[test]
    fn drift_windows_open_with_one_fourteen_qubit_aim_submit() {
        let w = Workload::DriftChurn;
        let every = w.spec().window_every.expect("drift-churn advances windows");
        let mut g = Generator::new(w, 4, Programs::build(true));
        let arrivals: Vec<Arrival> = (0..every * 5).map(|_| g.next_arrival()).collect();
        let windows: Vec<&[Arrival]> = arrivals
            .split(|a| matches!(a.op, Op::SetWindow(_)))
            .collect();
        // Before the first `set-window` is window 0, set up warm; the
        // stream ends on the fifth `set-window`.
        assert_eq!(windows.len(), 6);
        for window in &windows[1..5] {
            let wide: Vec<&SubmitRequest> = window
                .iter()
                .filter_map(|a| match &a.op {
                    Op::Submit(s) if s.device == MELBOURNE => Some(s),
                    _ => None,
                })
                .collect();
            // The AIM submit and its baseline twin, and nothing else.
            assert_eq!(wide.len(), 2);
            assert_eq!(wide[0].policy, PolicyKind::Aim);
            assert_eq!(wide[1].policy, PolicyKind::Baseline);
        }
    }

    #[test]
    fn aim_submits_are_followed_by_their_baseline_twin() {
        let mut g = Generator::new(Workload::Interactive5q, 5, Programs::build(false));
        let arrivals: Vec<Arrival> = (0..500).map(|_| g.next_arrival()).collect();
        let mut pairs = 0;
        for p in arrivals.windows(2) {
            if let (Op::Submit(a), Op::Submit(b)) = (&p[0].op, &p[1].op) {
                if a.policy == PolicyKind::Aim {
                    assert_eq!(b.policy, PolicyKind::Baseline);
                    assert_eq!((&a.qasm, a.shots, a.seed), (&b.qasm, b.shots, b.seed));
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 100);
    }

    #[test]
    fn cold_probe_advances_the_window_before_each_device_round() {
        let programs = Programs::build(true);
        for w in [Workload::Interactive5q, Workload::Wide14q] {
            let ops = cold_probe(w, &programs, 4..=6);
            let per_round = 1 + w.spec().devices.len();
            assert_eq!(ops.len(), 3 * per_round, "{}", w.name());
            for (round, chunk) in ops.chunks(per_round).enumerate() {
                assert_eq!(chunk[0], Op::SetWindow(round as u64 + 4));
                assert!(chunk[1..]
                    .iter()
                    .all(|op| matches!(op, Op::Submit(s) if s.policy == PolicyKind::Aim)));
            }
        }
    }

    #[test]
    fn fixed_weight_draws_have_that_weight() {
        let mut rng = SplitMix64::new(9);
        for weight in 0..=14 {
            assert_eq!(
                bits_of_weight(&mut rng, 14, weight).hamming_weight() as usize,
                weight
            );
        }
    }

    #[test]
    fn known_answers_match_the_device_width() {
        let p = Programs::build(true);
        assert!(p.five.iter().all(|p| p.expected.width() == 5));
        assert!(p.fourteen.iter().all(|p| p.expected.width() == 14));
        for prog in p.five.iter().chain(&p.fourteen) {
            let c = qsim::qasm::from_qasm(&prog.qasm).expect("generated QASM parses");
            assert_eq!(c.n_qubits(), prog.expected.width());
        }
    }
}

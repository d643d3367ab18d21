//! The answer oracle and the traced replay.
//!
//! Every sampled submit is recomputed in-process through the same public
//! library calls the server makes, from `(device, window, policy, shots,
//! seed)` alone. The rendered reply must equal the server's byte for byte.
//! With spans on, each call into a crate is timed from outside the
//! program, which attributes a request's time to the layers.

use invmeas::{PolicyChoice, Runner};
use invmeas_service::{
    CacheConfig, CacheOutcome, MethodKind, PolicyKind, ProfileCache, Request, Response,
    ServerConfig, SubmitResponse,
};
use qmetrics::{CorrectSet, ReliabilityReport};
use qnoise::{CalibrationDrift, DeviceModel};
use qsim::BitString;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One submit to recompute: the request line the server parsed and the
/// reply line it sent.
#[derive(Debug, Clone)]
pub struct Sample {
    pub request: String,
    pub reply: String,
    /// The calibration window the server ran it in.
    pub window: u64,
}

/// Durations per span name, in microseconds.
#[derive(Debug, Default)]
pub struct Spans {
    pub us: BTreeMap<&'static str, Vec<f64>>,
    /// Simulations (`qsim::simulation_count` delta) per replayed job.
    pub simulations: Vec<f64>,
    /// Span time inside the server's `latency_us` window, per sample.
    pub covered_us: f64,
    /// Sum of the server's `latency_us` over the samples.
    pub server_us: f64,
}

impl Spans {
    fn add(&mut self, name: &'static str, start: Instant) -> f64 {
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.us.entry(name).or_default().push(us);
        us
    }
}

/// The server's settings the replay must share.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub exec_threads: usize,
    /// Directory for the replay cache's journals and profiles, when the
    /// server persists them (the journaled path is part of the result).
    pub profile_dir: Option<PathBuf>,
}

impl Oracle {
    fn cache(&self, pass: &str) -> ProfileCache {
        let server = ServerConfig::default();
        ProfileCache::new(CacheConfig {
            profile_seed: server.profile_seed,
            drift_threshold: server.drift_threshold,
            exec_threads: self.exec_threads,
            profile_dir: self.profile_dir.as_ref().map(|d| d.join(pass)),
        })
    }

    /// Recomputes every sample with a fresh cache; returns the first
    /// mismatch. `spans` receives per-layer timings when given.
    pub fn replay(
        &self,
        samples: &[Sample],
        pass: &str,
        mut spans: Option<&mut Spans>,
    ) -> Result<(), String> {
        let cache = self.cache(pass);
        // In window order, so each profile is measured once per pass.
        let mut samples: Vec<&Sample> = samples.iter().collect();
        samples.sort_by_key(|s| s.window);
        for s in samples {
            self.replay_one(&cache, s, spans.as_deref_mut())?;
        }
        Ok(())
    }

    fn replay_one(
        &self,
        cache: &ProfileCache,
        sample: &Sample,
        mut spans: Option<&mut Spans>,
    ) -> Result<(), String> {
        let server = ServerConfig::default();
        let mut span = |name: &'static str, start: Instant| -> f64 {
            spans.as_deref_mut().map_or(0.0, |s| s.add(name, start))
        };
        let served = match Response::from_line(&sample.reply) {
            Ok(Response::Submit(r)) => r,
            other => return Err(format!("not a submit reply: {other:?}")),
        };

        let t = Instant::now();
        let request = Request::from_line(&sample.request);
        span("service.protocol_parse_us", t);
        let Ok(Request::Submit(r)) = request else {
            return Err(format!("not a submit request: {}", sample.request));
        };
        let window = served.window;

        let t = Instant::now();
        let nominal = DeviceModel::by_name(&r.device).ok_or("unknown device")?;
        let snapshot = CalibrationDrift::new(nominal, server.drift_amplitude)
            .with_seed(server.drift_seed)
            .window(window);
        let mut covered = span("noise.snapshot_us", t);

        let t = Instant::now();
        let circuit = qsim::qasm::from_qasm(&r.qasm).map_err(|e| e.to_string())?;
        covered += span("qsim.qasm_parse_us", t);

        let t = Instant::now();
        let mut runner = Runner::new(snapshot)
            .with_seed(r.seed)
            .with_threads(self.exec_threads);
        covered += span("core.runner_new_us", t);

        let (choice, run_span) = match r.policy {
            PolicyKind::Baseline => (PolicyChoice::Baseline, "core.run_us.baseline"),
            PolicyKind::Sim => (PolicyChoice::Sim, "core.run_us.sim"),
            PolicyKind::Aim => {
                let method = if circuit.n_qubits() <= 5 {
                    MethodKind::Brute
                } else {
                    MethodKind::Awct
                };
                let device = runner.device().clone();
                let t = Instant::now();
                let (table, outcome) = cache
                    .get_or_measure(&r.device, &device, window, method, server.profile_shots)
                    .map_err(|e| e.to_string())?;
                let us = match outcome {
                    CacheOutcome::Hit => span("service.cache_lookup_us", t),
                    _ => span("service.cache_miss_us", t),
                };
                // A fresh replay cache misses where the warm server hit;
                // only a like-for-like lookup counts toward coverage.
                if (outcome == CacheOutcome::Hit) == (served.cache == CacheOutcome::Hit) {
                    covered += us;
                }
                runner.set_profile(table);
                (PolicyChoice::Aim, "core.run_us.aim")
            }
        };

        let sims = qsim::simulation_count();
        let t = Instant::now();
        let log = runner.run(choice, &circuit, r.shots);
        covered += span(run_span, t);
        let simulations = qsim::simulation_count() - sims;

        let t = Instant::now();
        let ranked = log.ranked();
        covered += span("qsim.rank_us", t);
        let distinct = ranked.len() as u64;
        let counts: Vec<(String, u64)> = ranked
            .into_iter()
            .take(SubmitResponse::MAX_COUNTS)
            .map(|(s, c)| (s.to_string(), c))
            .collect();

        let (mut pst, mut ist, mut roca) = (None, None, None);
        if let Some(expected) = &r.expected {
            let expected: BitString = expected.parse().map_err(|e| format!("{e:?}"))?;
            let t = Instant::now();
            let report = ReliabilityReport::evaluate(&log, &CorrectSet::single(expected));
            covered += span("metrics.evaluate_us", t);
            pst = Some(report.pst);
            ist = Some(report.ist).filter(|x| x.is_finite());
            roca = report.roca.map(|x| x as u64);
        }

        // Arrival-dependent fields are taken from the server's reply; all
        // others must come out of the library identically.
        let replayed = Response::Submit(SubmitResponse {
            device: r.device.clone(),
            window,
            policy: r.policy,
            shots: r.shots,
            total: log.total(),
            distinct,
            counts,
            cache: served.cache,
            latency_us: served.latency_us,
            degraded: served.degraded,
            pst,
            ist,
            roca,
        });
        let t = Instant::now();
        let line = replayed.to_line();
        span("service.protocol_render_us", t);

        if let Some(s) = spans {
            s.simulations.push(simulations as f64);
            s.covered_us += covered;
            s.server_us += served.latency_us as f64;
        }
        if log.total() != r.shots || served.total != r.shots {
            return Err(format!(
                "counts sum to {} (server {}) for {} shots",
                log.total(),
                served.total,
                r.shots
            ));
        }
        if line != sample.reply {
            return Err(format!(
                "replayed reply differs\n  server:   {}\n  replayed: {line}",
                sample.reply
            ));
        }
        Ok(())
    }
}

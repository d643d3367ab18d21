//! Service load generation (ISSUE 7): a deterministic multi-connection
//! open-loop generator for the mitigation server, used by the
//! `bench-service` binary and the CI `load-smoke` job.
//!
//! Two workloads:
//!
//! * [`run_load`] — request throughput/latency. Every request has a
//!   **scheduled** arrival instant computed up front from `(rate, seed)`;
//!   connections send on schedule (up to a pipeline cap) and latency is
//!   measured **from the scheduled instant**, not the send instant, so a
//!   server that falls behind accrues the queueing delay it caused
//!   (coordinated-omission-aware).
//! * [`run_storm`] — connection scaling. Connections arrive open-loop at
//!   a fixed rate; each must connect *and* complete one `health` round
//!   trip within an SLO of its scheduled arrival, then is parked open for
//!   the rest of the rung. The sustained-connections figure is the
//!   largest rung where (almost) every connection met the SLO.
//!
//! Determinism: the arrival schedule and the request mix are pure
//! functions of the config (splitmix64 over the request index) — reruns
//! issue byte-identical request streams in the same order per connection.

use invmeas_service::{
    CharacterizeRequest, Client, MethodKind, PolicyKind, Request, Response, SubmitRequest,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Request-mix weights (need not sum to anything in particular).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Weight of `submit` requests (the expensive path).
    pub submit: u32,
    /// Weight of `status` requests (inline, counter snapshot).
    pub status: u32,
    /// Weight of `characterize` requests (cache hits after warm-up).
    pub characterize: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Mix {
            submit: 6,
            status: 2,
            characterize: 2,
        }
    }
}

/// Load-phase configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server to aim at.
    pub addr: SocketAddr,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Aggregate open-loop arrival rate (requests per second).
    pub rate_hz: f64,
    /// Maximum pipelined (sent, unanswered) requests per connection.
    pub pipeline: usize,
    /// Schedule / mix seed.
    pub seed: u64,
    /// Request mix.
    pub mix: Mix,
    /// Shots per submit (small keeps the benchmark about the server, not
    /// the simulator).
    pub shots: u64,
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Percentiles {
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl Percentiles {
    /// Computes percentiles from an unsorted sample set.
    pub fn from_samples(mut samples: Vec<u64>) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_unstable();
        // Nearest-rank percentile: the smallest sample with at least q of
        // the distribution at or below it.
        let at = |q: f64| {
            let rank = (q * samples.len() as f64).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        Percentiles {
            p50_us: at(0.50),
            p99_us: at(0.99),
            p999_us: at(0.999),
            max_us: *samples.last().expect("nonempty"),
        }
    }
}

/// What [`run_load`] measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Non-error responses.
    pub ok: u64,
    /// Server-side error responses (`4xx`/`5xx`), by far most often `503`.
    pub rejected: u64,
    /// Transport/parse failures — must be zero on a healthy run.
    pub protocol_errors: u64,
    /// `submit` responses among `ok`.
    pub submits_ok: u64,
    /// Wall-clock from first scheduled arrival to last response.
    pub elapsed: Duration,
    /// Completed submits per second of wall-clock.
    pub submits_per_sec: f64,
    /// All completed requests per second of wall-clock.
    pub requests_per_sec: f64,
    /// Latency from *scheduled arrival* to response, all requests.
    pub latency: Percentiles,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn qasm_5q() -> String {
    qsim::qasm::to_qasm(&qsim::Circuit::basis_state_preparation(
        "11111".parse().expect("bits"),
    ))
}

/// The deterministic request for global index `g` under `cfg`.
fn request_for(cfg: &LoadConfig, qasm: &str, g: usize) -> Request {
    let total = cfg.mix.submit + cfg.mix.status + cfg.mix.characterize;
    let roll = (splitmix64(cfg.seed ^ g as u64) % u64::from(total.max(1))) as u32;
    if roll < cfg.mix.submit {
        Request::Submit(SubmitRequest {
            device: "ibmqx4".into(),
            qasm: qasm.to_string(),
            policy: PolicyKind::Aim,
            shots: cfg.shots,
            // Masked to 32 bits: protocol numbers are f64-backed, so only
            // integers ≤ 2^53 survive the wire exactly.
            seed: splitmix64(cfg.seed.wrapping_add(g as u64)) & 0xFFFF_FFFF,
            expected: None,
            deadline_ms: None,
            fwd: false,
        })
    } else if roll < cfg.mix.submit + cfg.mix.status {
        Request::Status
    } else {
        Request::Characterize(CharacterizeRequest {
            device: "ibmqx4".into(),
            method: MethodKind::Brute,
            shots: 0, // server default: converges on the shared cache entry
            fwd: false,
        })
    }
}

/// Runs the open-loop load phase: `connections` clients, requests dealt
/// round-robin, each sent at its scheduled instant (modulo the pipeline
/// cap), latencies taken against the schedule.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, String> {
    assert!(cfg.connections > 0 && cfg.rate_hz > 0.0 && cfg.pipeline > 0);
    let qasm = qasm_5q();

    // Warm-up, excluded from measurement: the first characterization of the
    // device is a multi-hundred-millisecond cache miss, and at an arrival
    // rate near capacity a cold-start stall that big never drains — every
    // latency would then measure the stall, not the front end.
    let mut warm = Client::connect(cfg.addr).map_err(|e| format!("warm-up connect: {e}"))?;
    warm.request(&Request::Characterize(CharacterizeRequest {
        device: "ibmqx4".into(),
        method: MethodKind::Brute,
        shots: 0,
        fwd: false,
    }))
    .map_err(|e| format!("warm-up characterize: {e}"))?;
    drop(warm);

    let start = Instant::now() + Duration::from_millis(50); // let threads line up
    let interval = Duration::from_secs_f64(1.0 / cfg.rate_hz);

    struct ConnTally {
        ok: u64,
        rejected: u64,
        protocol_errors: u64,
        submits_ok: u64,
        sent: u64,
        latencies_us: Vec<u64>,
        last_response: Option<Instant>,
    }

    let tallies: Vec<Result<ConnTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|c| {
                let qasm = &qasm;
                scope.spawn(move || -> Result<ConnTally, String> {
                    let client = Client::connect(cfg.addr).map_err(|e| format!("connect: {e}"))?;
                    let (mut sender, mut reader) = client.split();
                    // This connection's slice of the global schedule.
                    let mine: Vec<usize> = (c..cfg.requests).step_by(cfg.connections).collect();
                    let in_flight = AtomicUsize::new(0);
                    let (meta_tx, meta_rx) = std::sync::mpsc::channel::<(Instant, bool)>();

                    // Responses are drained on their own thread the moment
                    // the server writes them. If they were only reaped
                    // between sends, a response could sit unread for up to
                    // `pipeline` send intervals and its measured latency
                    // would be the client's send cadence, not the server.
                    Ok(std::thread::scope(|inner| {
                        let in_flight = &in_flight;
                        let read_half = inner.spawn(move || {
                            let mut tally = ConnTally {
                                ok: 0,
                                rejected: 0,
                                protocol_errors: 0,
                                submits_ok: 0,
                                sent: 0,
                                latencies_us: Vec::new(),
                                last_response: None,
                            };
                            for (sched, was_submit) in meta_rx {
                                match reader.recv() {
                                    Ok(response) => {
                                        let now = Instant::now();
                                        tally.last_response = Some(now);
                                        tally
                                            .latencies_us
                                            .push(now.saturating_duration_since(sched).as_micros()
                                                as u64);
                                        if matches!(response, Response::Error { .. }) {
                                            tally.rejected += 1;
                                        } else {
                                            tally.ok += 1;
                                            if was_submit {
                                                tally.submits_ok += 1;
                                            }
                                        }
                                    }
                                    Err(_) => tally.protocol_errors += 1,
                                }
                                in_flight.fetch_sub(1, Ordering::Release);
                            }
                            tally
                        });

                        let mut sent = 0u64;
                        let mut send_errors = 0u64;
                        for g in mine {
                            let sched = start + interval.mul_f64(g as f64);
                            if let Some(wait) = sched.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            while in_flight.load(Ordering::Acquire) >= cfg.pipeline {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            let request = request_for(cfg, qasm, g);
                            let was_submit = matches!(request, Request::Submit(_));
                            if sender.send(&request).is_err() {
                                send_errors += 1;
                                continue;
                            }
                            sent += 1;
                            in_flight.fetch_add(1, Ordering::Release);
                            let _ = meta_tx.send((sched, was_submit));
                        }
                        drop(meta_tx);
                        let mut tally = read_half.join().expect("reader half panicked");
                        tally.sent = sent;
                        tally.protocol_errors += send_errors;
                        tally
                    }))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });

    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        rejected: 0,
        protocol_errors: 0,
        submits_ok: 0,
        elapsed: Duration::ZERO,
        submits_per_sec: 0.0,
        requests_per_sec: 0.0,
        latency: Percentiles::default(),
    };
    let mut samples: Vec<u64> = Vec::new();
    let mut last: Option<Instant> = None;
    for tally in tallies {
        let t = tally?;
        report.sent += t.sent;
        report.ok += t.ok;
        report.rejected += t.rejected;
        report.protocol_errors += t.protocol_errors;
        report.submits_ok += t.submits_ok;
        samples.extend(t.latencies_us);
        last = match (last, t.last_response) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
    report.elapsed = last.map_or(Duration::ZERO, |l| l.saturating_duration_since(start));
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    report.submits_per_sec = report.submits_ok as f64 / secs;
    report.requests_per_sec = (report.ok + report.rejected) as f64 / secs;
    report.latency = Percentiles::from_samples(samples);
    Ok(report)
}

/// `true` for an error response, `Err` for a transport/protocol failure.
/// Connection-storm configuration for one ladder rung.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Server to aim at.
    pub addr: SocketAddr,
    /// Connections to open this rung.
    pub connections: usize,
    /// Open-loop connection arrival rate (connections per second).
    pub rate_hz: f64,
    /// Budget from scheduled arrival to a completed `health` round trip.
    pub slo: Duration,
    /// Client-side worker threads performing handshakes.
    pub workers: usize,
    /// Closed-loop background connections hammering `submit` for the whole
    /// rung. A storm against an *idle* server flatters any front end;
    /// real storms hit servers that are busy, and it is the accept path
    /// under CPU contention that decides how many connections fit.
    pub background_connections: usize,
    /// Shots per background submit.
    pub background_shots: u64,
}

/// What [`run_storm`] measured for one rung.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Connections attempted (== the rung's target).
    pub attempted: usize,
    /// Connections whose connect + `health` round trip landed inside the
    /// SLO, and which were then held open to the end of the rung.
    pub ok_within_slo: usize,
    /// Connect/read failures or timeouts.
    pub failed: usize,
    /// Fraction of `attempted` inside the SLO.
    pub ok_rate: f64,
    /// Round-trip latency from scheduled arrival, successful conns only.
    pub latency: Percentiles,
}

/// Runs one connection-storm rung: `connections` arrivals at `rate_hz`,
/// each graded against `slo` and parked open until every arrival has been
/// graded (so the server really holds them all concurrently). While the
/// storm runs, `background_connections` closed-loop clients keep the
/// server's workers saturated with submits. `on_held` fires at peak
/// concurrency — after the last arrival is graded, before any parked
/// connection closes — which is where the caller samples the server's RSS.
pub fn run_storm(cfg: &StormConfig, on_held: impl FnOnce()) -> StormReport {
    let start = Instant::now() + Duration::from_millis(50);
    let interval = Duration::from_secs_f64(1.0 / cfg.rate_hz);
    let next = AtomicUsize::new(0);
    let parked: Mutex<Vec<std::net::TcpStream>> = Mutex::new(Vec::new());
    let ok = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let health_line = format!("{}\n", Request::Health.to_line());
    let stop = std::sync::atomic::AtomicBool::new(false);
    let qasm = qasm_5q();
    // ~16k connections per loopback source IP leaves comfortable headroom
    // under the ~28k ephemeral ports each (src, dst) pair offers.
    let src_ips = (cfg.connections / 16_000 + 1).min(250);

    std::thread::scope(|scope| {
        for b in 0..cfg.background_connections {
            let stop = &stop;
            let qasm = &qasm;
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(cfg.addr) else {
                    return;
                };
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let submit = Request::Submit(SubmitRequest {
                        device: "ibmqx4".into(),
                        qasm: qasm.to_string(),
                        policy: PolicyKind::Aim,
                        shots: cfg.background_shots,
                        seed: splitmix64((b as u64) << 32 | n) & 0xFFFF_FFFF,
                        expected: None,
                        deadline_ms: None,
                        fwd: false,
                    });
                    n += 1;
                    if client.request(&submit).is_err() {
                        return; // server gone; the rung is ending anyway
                    }
                }
            });
        }
        for _ in 0..cfg.workers.max(1) {
            scope.spawn(|| {
                use std::io::{BufRead, BufReader, Write};
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cfg.connections {
                        return;
                    }
                    let sched = start + interval.mul_f64(i as f64);
                    if let Some(wait) = sched.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let verdict = (|| -> std::io::Result<std::net::TcpStream> {
                        // Spread the storm across loopback source IPs: one
                        // (src, dst) pair caps at ~28k ephemeral ports, far
                        // below what the event loop can hold.
                        let stream = match cfg.addr {
                            SocketAddr::V4(dst) if dst.ip().is_loopback() => {
                                let src =
                                    std::net::Ipv4Addr::new(127, 0, 0, 2 + (i % src_ips) as u8);
                                invmeas_service::poll::connect_from(src, dst, cfg.slo)?
                            }
                            other => std::net::TcpStream::connect_timeout(&other, cfg.slo)?,
                        };
                        stream.set_nodelay(true).ok();
                        stream.set_read_timeout(Some(cfg.slo + Duration::from_millis(500)))?;
                        stream.set_write_timeout(Some(cfg.slo))?;
                        let mut w = stream.try_clone()?;
                        w.write_all(health_line.as_bytes())?;
                        let mut line = String::new();
                        BufReader::new(&stream).read_line(&mut line)?;
                        if line.is_empty() {
                            return Err(std::io::Error::other("closed before response"));
                        }
                        Ok(stream)
                    })();
                    let elapsed = Instant::now().saturating_duration_since(sched);
                    match verdict {
                        Ok(stream) if elapsed <= cfg.slo => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            samples.lock().unwrap().push(elapsed.as_micros() as u64);
                            // Park it open: the rung's whole point is that
                            // the server holds every one concurrently.
                            parked.lock().unwrap().push(stream);
                        }
                        _ => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // Background clients run until every arrival has been graded.
        while ok.load(Ordering::Relaxed) + failed.load(Ordering::Relaxed) < cfg.connections {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Every arrival has been graded and the survivors are all still open.
    on_held();
    // The parked sockets close when `parked` drops at the end of this
    // function.
    let ok_within_slo = ok.load(Ordering::Relaxed);
    StormReport {
        attempted: cfg.connections,
        ok_within_slo,
        failed: failed.load(Ordering::Relaxed),
        ok_rate: ok_within_slo as f64 / cfg.connections.max(1) as f64,
        latency: Percentiles::from_samples(samples.into_inner().unwrap()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_mix_are_deterministic() {
        let cfg = LoadConfig {
            addr: "127.0.0.1:1".parse().unwrap(),
            connections: 4,
            requests: 64,
            rate_hz: 1000.0,
            pipeline: 4,
            seed: 42,
            mix: Mix::default(),
            shots: 100,
        };
        let qasm = qasm_5q();
        let a: Vec<String> = (0..64)
            .map(|g| request_for(&cfg, &qasm, g).to_line())
            .collect();
        let b: Vec<String> = (0..64)
            .map(|g| request_for(&cfg, &qasm, g).to_line())
            .collect();
        assert_eq!(a, b, "same seed ⇒ same request stream");
        let submits = a.iter().filter(|l| l.contains("\"op\":\"submit\"")).count();
        assert!(submits > 20 && submits < 60, "mix holds roughly: {submits}");
    }

    #[test]
    fn percentiles_rank_correctly() {
        let p = Percentiles::from_samples((1..=1000).rev().collect());
        assert_eq!(p.p50_us, 500);
        assert_eq!(p.p99_us, 990);
        assert_eq!(p.p999_us, 999);
        assert_eq!(p.max_us, 1000);
        assert_eq!(Percentiles::from_samples(vec![]).max_us, 0);
    }
}

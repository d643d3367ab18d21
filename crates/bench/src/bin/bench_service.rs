//! `bench-service` — the service-level load benchmark (ISSUE 7).
//!
//! Measures the mitigation server as a *service*: sustained request
//! throughput with latency percentiles under a deterministic open-loop
//! schedule, a connection-scaling ladder (how many concurrently-open
//! connections the event loop sustains under an arrival-rate SLO), and
//! degraded-mode throughput with a device's circuit breaker forced open.
//! Results land in `BENCH_service.json`.
//!
//! The server under test runs as a **child process** (this binary
//! re-executes itself with the hidden `__serve` mode): the client and
//! server each get their own fd budget, and the child's `/proc/<pid>/status`
//! gives an uncontaminated RSS reading at peak connection count.
//!
//! ```text
//! bench-service [--out FILE] [--connections N] [--requests N]
//!               [--rate HZ] [--pipeline K] [--shots N]
//!               [--ladder-max N] [--storm-rate HZ] [--slo-ms N]
//!               [--degraded-requests N]
//!               [--cluster HOST:PORT,HOST:PORT,...]
//! ```
//!
//! With `--cluster`, the benchmark targets an externally running profile
//! mesh instead of spawning child servers: it resolves the benchmark
//! device's serving node via the `cluster-map` op (client-side routing,
//! DESIGN.md §16), aims the load phase at it, and fails if any request
//! hits a transport error — the mesh must absorb the load without a
//! single dropped response.

use invmeas_service::{Json, Request, Response};
use qbenches::loadgen::{self, LoadConfig, Mix, Percentiles, StormConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Opts {
    out: String,
    connections: usize,
    requests: usize,
    rate_hz: f64,
    pipeline: usize,
    shots: u64,
    ladder_max: usize,
    storm_rate_hz: f64,
    slo_ms: u64,
    degraded_requests: usize,
    cluster: Vec<SocketAddr>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            out: "BENCH_service.json".into(),
            connections: 128,
            requests: 12_000,
            rate_hz: 350.0,
            pipeline: 8,
            shots: 200,
            ladder_max: 131_072,
            storm_rate_hz: 4000.0,
            slo_ms: 1000,
            degraded_requests: 2000,
            cluster: Vec::new(),
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--out" => o.out = val()?.to_string(),
            "--connections" => o.connections = num(flag, val()?)?,
            "--requests" => o.requests = num(flag, val()?)?,
            "--rate" => o.rate_hz = numf(flag, val()?)?,
            "--pipeline" => o.pipeline = num(flag, val()?)?,
            "--shots" => o.shots = num(flag, val()?)? as u64,
            "--ladder-max" => o.ladder_max = num(flag, val()?)?,
            "--storm-rate" => o.storm_rate_hz = numf(flag, val()?)?,
            "--slo-ms" => o.slo_ms = num(flag, val()?)? as u64,
            "--degraded-requests" => o.degraded_requests = num(flag, val()?)?,
            "--cluster" => {
                o.cluster = val()?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse()
                            .map_err(|e| format!("bad --cluster address {s:?}: {e}"))
                    })
                    .collect::<Result<Vec<SocketAddr>, String>>()?;
                if o.cluster.is_empty() {
                    return Err("--cluster needs at least one HOST:PORT seed".into());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(o)
}

fn num(flag: &str, v: &str) -> Result<usize, String> {
    v.parse().map_err(|_| format!("{flag} needs an integer"))
}

fn numf(flag: &str, v: &str) -> Result<f64, String> {
    v.parse().map_err(|_| format!("{flag} needs a number"))
}

// ---------------------------------------------------------------------------
// The hidden server mode (`bench-service __serve ...`)
// ---------------------------------------------------------------------------

fn serve_child(args: &[String]) -> Result<(), String> {
    let mut degraded = false;
    let mut workers = 2usize;
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        match flag {
            "--degraded" => degraded = true,
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--workers needs an integer")?
            }
            other => return Err(format!("unknown __serve flag {other:?}")),
        }
    }

    let mut config = invmeas_service::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: 2048,
        profile_shots: 256,
        idle_timeout_ms: 120_000,
        ..invmeas_service::ServerConfig::default()
    };
    if degraded {
        // Force the ibmqx4 breaker open and keep it open: no retries, two
        // failures trip it, and the cooldown is far beyond the phase
        // length so no half-open probe ever closes it again.
        let mut plan = invmeas_faults::FaultPlan::new(7);
        for arrival in 2..=8 {
            plan = plan.on_nth(
                invmeas_faults::FaultSite::Characterize,
                arrival,
                invmeas_faults::Fault::Error("device offline".into()),
            );
        }
        config.retry_limit = 0;
        config.breaker_failure_threshold = 2;
        config.breaker_cooldown = 1_000_000;
        config.faults = std::sync::Arc::new(plan);
    }

    let server = invmeas_service::Server::bind(config).map_err(|e| e.to_string())?;
    // The parent parses this exact line for the ephemeral port.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    server.serve().map_err(|e| e.to_string())?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Child-server management
// ---------------------------------------------------------------------------

struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

fn spawn_server(degraded: bool) -> Result<ServerChild, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("__serve")
        .arg("--workers")
        .arg("2")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if degraded {
        cmd.arg("--degraded");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn server: {e}"))?;
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .ok_or("server exited before announcing its port")?
        .map_err(|e| e.to_string())?;
    let addr: SocketAddr = first
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected server banner {first:?}"))?
        .parse()
        .map_err(|e| format!("bad server address: {e}"))?;
    // Keep draining the child's stdout so its final prints never block.
    std::thread::spawn(move || for _ in lines {});
    Ok(ServerChild { child, addr })
}

impl ServerChild {
    /// Graceful protocol shutdown; `true` means the child drained and
    /// exited cleanly within the timeout.
    fn shutdown(mut self) -> bool {
        let acked = matches!(
            invmeas_service::call(self.addr, &Request::Shutdown),
            Ok(Response::Shutdown)
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return acked && status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        false
    }

    /// The child's resident set in bytes (`VmRSS` from `/proc`), or 0
    /// where procfs is unavailable.
    fn rss_bytes(&self) -> u64 {
        let path = format!("/proc/{}/status", self.child.id());
        let Ok(text) = std::fs::read_to_string(path) else {
            return 0;
        };
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("VmRSS:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
        0
    }
}

fn status_counters(addr: SocketAddr) -> Result<qmetrics::CountersSnapshot, String> {
    match invmeas_service::call(addr, &Request::Status) {
        Ok(Response::Status(s)) => Ok(s.counters),
        Ok(other) => Err(format!("unexpected status reply {other:?}")),
        Err(e) => Err(format!("status: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct LoadPhase {
    report: loadgen::LoadReport,
    counters: qmetrics::CountersSnapshot,
    clean_drain: bool,
}

fn load_phase(opts: &Opts) -> Result<LoadPhase, String> {
    let server = spawn_server(false)?;
    let report = loadgen::run_load(&LoadConfig {
        addr: server.addr,
        connections: opts.connections,
        requests: opts.requests,
        rate_hz: opts.rate_hz,
        pipeline: opts.pipeline,
        seed: 2019,
        mix: Mix::default(),
        shots: opts.shots,
    })?;
    let counters = status_counters(server.addr)?;
    let clean_drain = server.shutdown();
    Ok(LoadPhase {
        report,
        counters,
        clean_drain,
    })
}

struct Rung {
    target: usize,
    report: loadgen::StormReport,
    rss_bytes: u64,
}

struct Ladder {
    rungs: Vec<Rung>,
    sustained: usize,
}

/// Climbs the connection ladder; a fresh server per
/// rung so thread/connection debris never carries over. Stops early once a
/// rung collapses (under half its connections inside the SLO).
fn ladder_phase(opts: &Opts) -> Result<Ladder, String> {
    let mut rungs = Vec::new();
    let mut sustained = 0usize;
    let mut target = 256usize;
    while target <= opts.ladder_max {
        let server = spawn_server(false)?;
        let rss = std::sync::atomic::AtomicU64::new(0);
        let report = loadgen::run_storm(
            &StormConfig {
                addr: server.addr,
                connections: target,
                rate_hz: opts.storm_rate_hz,
                slo: Duration::from_millis(opts.slo_ms),
                workers: 64,
                background_connections: 8,
                background_shots: 100,
            },
            || rss.store(server.rss_bytes(), std::sync::atomic::Ordering::Relaxed),
        );
        server.shutdown();
        let ok_rate = report.ok_rate;
        eprintln!(
            "  {} conns: {:.1}% in SLO (p99 {:.1} ms)",
            target,
            ok_rate * 100.0,
            report.latency.p99_us as f64 / 1000.0,
        );
        rungs.push(Rung {
            target,
            report,
            rss_bytes: rss.into_inner(),
        });
        if ok_rate >= 0.99 {
            sustained = target;
        }
        if ok_rate < 0.5 {
            break; // collapsed: higher rungs only waste wall-clock
        }
        target *= 2;
    }
    Ok(Ladder { rungs, sustained })
}

struct DegradedPhase {
    requests: usize,
    ok_degraded: u64,
    errors: u64,
    throughput_per_sec: f64,
    latency: Percentiles,
    open_breakers: u64,
    degraded_responses: u64,
    clean_drain: bool,
}

/// Degraded-mode throughput: trip the breaker, then measure how fast the
/// server serves the last good profile while the device stays dark.
fn degraded_phase(opts: &Opts) -> Result<DegradedPhase, String> {
    let server = spawn_server(true)?;
    let mut client =
        invmeas_service::Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let characterize = Request::Characterize(invmeas_service::CharacterizeRequest {
        device: "ibmqx4".into(),
        method: invmeas_service::MethodKind::Brute,
        shots: 0,
        fwd: false,
    });

    // Arrival 1: clean warm-up so there is a last-good profile to serve.
    match client.request(&characterize) {
        Ok(Response::Characterize(_)) => {}
        other => return Err(format!("warm-up failed: {other:?}")),
    }
    // Invalidate it, then let the scripted failures trip the breaker.
    client
        .request(&Request::SetWindow {
            window: 1,
            fwd: false,
        })
        .map_err(|e| format!("set-window: {e}"))?;
    let mut trip_errors = 0;
    loop {
        match client.request(&characterize) {
            Ok(Response::Characterize(r)) if r.degraded => break, // breaker open
            Ok(Response::Error { .. }) => trip_errors += 1,
            Ok(other) => return Err(format!("unexpected trip reply {other:?}")),
            Err(e) => return Err(format!("trip: {e}")),
        }
        if trip_errors > 8 {
            return Err("breaker never opened".into());
        }
    }

    // Measure the open-breaker steady state, pipelined.
    let batch: Vec<Request> = (0..32).map(|_| characterize.clone()).collect();
    let mut ok_degraded = 0u64;
    let mut errors = 0u64;
    let mut samples = Vec::with_capacity(opts.degraded_requests);
    let t0 = Instant::now();
    let mut sent = 0usize;
    while sent < opts.degraded_requests {
        let n = batch.len().min(opts.degraded_requests - sent);
        let t_batch = Instant::now();
        let responses = client
            .pipeline(&batch[..n])
            .map_err(|e| format!("degraded pipeline: {e}"))?;
        let dt = t_batch.elapsed().as_micros() as u64 / n.max(1) as u64;
        for r in responses {
            match r {
                Response::Characterize(c) if c.degraded => {
                    ok_degraded += 1;
                    samples.push(dt);
                }
                _ => errors += 1,
            }
        }
        sent += n;
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);

    let counters = status_counters(server.addr)?;
    let health = match invmeas_service::call(server.addr, &Request::Health) {
        Ok(Response::Health(h)) => h,
        other => return Err(format!("health: {other:?}")),
    };
    let clean_drain = server.shutdown();
    Ok(DegradedPhase {
        requests: opts.degraded_requests,
        ok_degraded,
        errors,
        throughput_per_sec: ok_degraded as f64 / elapsed,
        latency: Percentiles::from_samples(samples),
        open_breakers: health.open_breakers,
        degraded_responses: counters.degraded_responses,
        clean_drain,
    })
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

fn pct_json(p: &Percentiles) -> Json {
    Json::obj(vec![
        ("p50_us", Json::int(p.p50_us)),
        ("p99_us", Json::int(p.p99_us)),
        ("p999_us", Json::int(p.p999_us)),
        ("max_us", Json::int(p.max_us)),
    ])
}

fn load_json(phase: &LoadPhase) -> Json {
    let r = &phase.report;
    let c = &phase.counters;
    Json::obj(vec![
        ("sent", Json::int(r.sent)),
        ("ok", Json::int(r.ok)),
        ("rejected", Json::int(r.rejected)),
        ("protocol_errors", Json::int(r.protocol_errors)),
        ("submits_ok", Json::int(r.submits_ok)),
        ("elapsed_ms", Json::int(r.elapsed.as_millis() as u64)),
        ("submits_per_sec", Json::Num(round2(r.submits_per_sec))),
        ("requests_per_sec", Json::Num(round2(r.requests_per_sec))),
        ("latency", pct_json(&r.latency)),
        ("clean_drain", Json::Bool(phase.clean_drain)),
        (
            "server_counters",
            Json::obj(vec![
                ("requests", Json::int(c.requests)),
                ("jobs_executed", Json::int(c.jobs_executed)),
                ("busy_rejections", Json::int(c.busy_rejections)),
                ("epoll_wakeups", Json::int(c.epoll_wakeups)),
                ("frames_parsed", Json::int(c.frames_parsed)),
                (
                    "write_backpressure_events",
                    Json::int(c.write_backpressure_events),
                ),
                ("queue_depth_peak", Json::int(c.queue_depth_peak)),
                ("connections_reaped", Json::int(c.connections_reaped)),
            ]),
        ),
    ])
}

fn ladder_json(ladder: &Ladder) -> Json {
    let rungs: Vec<Json> = ladder
        .rungs
        .iter()
        .map(|r| {
            let rss_per_conn = if r.report.ok_within_slo > 0 {
                r.rss_bytes / r.report.ok_within_slo as u64
            } else {
                0
            };
            Json::obj(vec![
                ("target", Json::int(r.target as u64)),
                ("ok_within_slo", Json::int(r.report.ok_within_slo as u64)),
                ("failed", Json::int(r.report.failed as u64)),
                ("ok_rate", Json::Num(round4(r.report.ok_rate))),
                ("latency", pct_json(&r.report.latency)),
                ("rss_bytes", Json::int(r.rss_bytes)),
                ("rss_per_conn_bytes", Json::int(rss_per_conn)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("rungs", Json::Arr(rungs)),
        ("sustained_connections", Json::int(ladder.sustained as u64)),
    ])
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__serve") {
        if let Err(e) = serve_child(&args[1..]) {
            eprintln!("bench-service __serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench-service: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("bench-service: {e}");
        std::process::exit(1);
    }
}

/// The `--cluster` mode: aim the load phase at an already-running mesh,
/// routed client-side to the node serving the benchmark device. Fails on
/// any transport error — forwarding and failover must stay invisible to
/// clients.
fn run_cluster(opts: &Opts) -> Result<(), String> {
    let target = loadgen::resolve_cluster_route(&opts.cluster, "ibmqx4")?;
    eprintln!(
        "bench-service: cluster mode, ibmqx4 served by {target} ({} seeds)",
        opts.cluster.len()
    );
    let report = loadgen::run_load(&LoadConfig {
        addr: target,
        connections: opts.connections,
        requests: opts.requests,
        rate_hz: opts.rate_hz,
        pipeline: opts.pipeline,
        seed: 2019,
        mix: Mix::default(),
        shots: opts.shots,
    })?;
    let counters = status_counters(target)?;
    eprintln!(
        "  {:.0} submits/s, p99 {:.1} ms, {} protocol errors, {} forwards, {} failovers",
        report.submits_per_sec,
        report.latency.p99_us as f64 / 1000.0,
        report.protocol_errors,
        counters.forwards,
        counters.failovers,
    );
    let doc = Json::obj(vec![
        ("schema", Json::str("bench-service-cluster v1")),
        (
            "config",
            Json::obj(vec![
                (
                    "seeds",
                    Json::Arr(
                        opts.cluster
                            .iter()
                            .map(|a| Json::str(a.to_string()))
                            .collect(),
                    ),
                ),
                ("target", Json::str(target.to_string())),
                ("connections", Json::int(opts.connections as u64)),
                ("requests", Json::int(opts.requests as u64)),
                ("rate_hz", Json::Num(opts.rate_hz)),
            ]),
        ),
        ("sent", Json::int(report.sent)),
        ("ok", Json::int(report.ok)),
        ("rejected", Json::int(report.rejected)),
        ("protocol_errors", Json::int(report.protocol_errors)),
        ("submits_per_sec", Json::Num(round2(report.submits_per_sec))),
        ("latency", pct_json(&report.latency)),
        (
            "mesh_counters",
            Json::obj(vec![
                ("forwards", Json::int(counters.forwards)),
                ("replication_writes", Json::int(counters.replication_writes)),
                ("failovers", Json::int(counters.failovers)),
                ("heartbeats_missed", Json::int(counters.heartbeats_missed)),
                ("stale_map_retries", Json::int(counters.stale_map_retries)),
            ]),
        ),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    std::fs::write(&opts.out, &text).map_err(|e| format!("write {}: {e}", opts.out))?;
    println!("{text}");
    if report.protocol_errors > 0 {
        return Err(format!(
            "{} protocol errors against the mesh",
            report.protocol_errors
        ));
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<(), String> {
    if !opts.cluster.is_empty() {
        return run_cluster(opts);
    }
    // Raised limits are inherited by the __serve children, so one call
    // covers client and servers alike. The ladder is clamped to what the
    // fd budget can actually park.
    let (nofile_soft, nofile_hard) =
        invmeas_service::poll::raise_nofile_limit(300_000).unwrap_or((1024, 1024));
    let mut opts = Opts {
        out: opts.out.clone(),
        cluster: Vec::new(),
        ..*opts
    };
    let fd_ceiling = (nofile_soft.saturating_sub(2048) as usize).max(256);
    if opts.ladder_max > fd_ceiling {
        eprintln!(
            "bench-service: clamping ladder to {fd_ceiling} connections (nofile soft limit {nofile_soft})"
        );
        opts.ladder_max = fd_ceiling;
    }
    let opts = &opts;
    eprintln!(
        "bench-service: {} conns × {} requests @ {} req/s (pipeline {}), nofile {}/{}",
        opts.connections, opts.requests, opts.rate_hz, opts.pipeline, nofile_soft, nofile_hard
    );

    eprintln!("phase 1/3: load");
    let load = load_phase(opts)?;
    eprintln!(
        "  {:.0} submits/s, p99 {:.1} ms, {} protocol errors",
        load.report.submits_per_sec,
        load.report.latency.p99_us as f64 / 1000.0,
        load.report.protocol_errors
    );

    eprintln!(
        "phase 2/3: connection-scaling ladder (SLO {} ms)",
        opts.slo_ms
    );
    let ladder = ladder_phase(opts)?;
    eprintln!("  sustained: {} connections", ladder.sustained);

    eprintln!("phase 3/3: degraded mode (breaker forced open)");
    let degraded = degraded_phase(opts)?;
    eprintln!(
        "  {:.0} degraded serves/s, open breakers {}",
        degraded.throughput_per_sec, degraded.open_breakers
    );

    // `load` and `connection_scaling` keep the v1 `event_loop` key, so
    // readers of the committed v1 file and of new runs use one path.
    let doc = Json::obj(vec![
        ("schema", Json::str("bench-service v2")),
        (
            "config",
            Json::obj(vec![
                ("connections", Json::int(opts.connections as u64)),
                ("requests", Json::int(opts.requests as u64)),
                ("rate_hz", Json::Num(opts.rate_hz)),
                ("pipeline", Json::int(opts.pipeline as u64)),
                ("shots", Json::int(opts.shots)),
                ("ladder_max", Json::int(opts.ladder_max as u64)),
                ("storm_rate_hz", Json::Num(opts.storm_rate_hz)),
                ("slo_ms", Json::int(opts.slo_ms)),
                ("nofile_soft", Json::int(nofile_soft)),
                ("nofile_hard", Json::int(nofile_hard)),
            ]),
        ),
        ("load", Json::obj(vec![("event_loop", load_json(&load))])),
        (
            "connection_scaling",
            Json::obj(vec![("event_loop", ladder_json(&ladder))]),
        ),
        (
            "degraded_mode",
            Json::obj(vec![
                ("requests", Json::int(degraded.requests as u64)),
                ("ok_degraded", Json::int(degraded.ok_degraded)),
                ("errors", Json::int(degraded.errors)),
                (
                    "throughput_per_sec",
                    Json::Num(round2(degraded.throughput_per_sec)),
                ),
                ("latency", pct_json(&degraded.latency)),
                ("open_breakers", Json::int(degraded.open_breakers)),
                ("degraded_responses", Json::int(degraded.degraded_responses)),
                ("clean_drain", Json::Bool(degraded.clean_drain)),
            ]),
        ),
    ]);

    let mut text = doc.to_string();
    text.push('\n');
    std::fs::write(&opts.out, &text).map_err(|e| format!("write {}: {e}", opts.out))?;
    eprintln!("wrote {}", opts.out);
    // Machine-readable copy on stdout for the CI job.
    println!("{text}");
    Ok(())
}

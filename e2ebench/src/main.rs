//! End-to-end benchmark of the `invmeas` mitigation service.
//!
//! One run: generate a workload's inputs from `--seed`, set a fresh
//! `invmeas serve` process up several times, drive the last one for
//! `--seconds`, check every sampled answer against an in-process replay,
//! and print one JSON result line. `--trace 1` adds a timed replay and
//! prints the per-layer metrics instead of the end-to-end ones.
//!
//! Usage (see `run.sh`, which builds both binaries first):
//!
//! ```text
//! e2ebench --server-bin PATH --workload NAME --seed N
//!          --seconds S --trace 0|1 [--workers N] [--exec-threads N]
//! ```

mod gen;
mod host;
mod load;
mod oracle;
mod report;
mod stats;

use gen::{Generator, Op, Programs, Workload};
use invmeas_service::{CacheOutcome, Json, PolicyKind, Response, SubmitResponse};
use load::{Error, Phase, Record, ServeConfig};
use oracle::{Oracle, Sample, Spans};
use qmetrics::CountersSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

/// Fresh servers set up per run; `setup_s` is their median. The measured
/// server (and the probe server of a read-side workload) is set up before
/// the measured phase, the rest during it, so that they sample the host's
/// slow and fast stretches across the whole run.
const SETUPS: usize = 17;
/// Window advances probed for cold submits on the read-side workloads,
/// spread over the measured phase.
const COLD_ROUNDS: u64 = 50;
/// A run whose p99 gap from a reply to the next send exceeds this had a
/// generator too slow to keep the server busy.
const BEHIND_MS: f64 = 2.0;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: ServeConfig,
}

fn parse_args() -> Result<Args, Error> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut binary = None;
    let (mut workers, mut exec_threads) = (2, 1);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse()?),
            "--seconds" => seconds = Some(value()?.parse::<f64>()?),
            "--trace" => trace = value()? == "1",
            "--server-bin" => binary = Some(PathBuf::from(value()?)),
            "--workers" => workers = value()?.parse()?,
            "--exec-threads" => exec_threads = value()?.parse()?,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve: ServeConfig {
            binary: binary.ok_or("--server-bin is required")?,
            workers,
            exec_threads,
        },
    })
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Also the shared parent, once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A side task of the measured phase.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// Set up (and shut down) fresh server `k`.
    SetUp(usize),
    /// Probe round: advance the probe server to this window and pay a
    /// characterization per device.
    Probe(u64),
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Refused,
    Failed,
    ProtocolError,
}

struct Classified<'a> {
    record: &'a Record,
    outcome: Outcome,
    response: Option<Response>,
}

fn classify(record: &Record) -> Classified<'_> {
    let response = Response::from_line(&record.reply).ok();
    let outcome = match &response {
        None => Outcome::ProtocolError,
        Some(Response::Error { code: 503, .. }) => Outcome::Refused,
        Some(Response::Error { .. }) => Outcome::Failed,
        Some(_) => Outcome::Ok,
    };
    Classified {
        record,
        outcome,
        response,
    }
}

/// Request accounting of one phase.
fn accounting(phase: &str, results: &[Classified]) -> Json {
    let count = |o: Outcome| Json::int(results.iter().filter(|c| c.outcome == o).count() as u64);
    Json::obj(vec![
        ("phase", Json::str(phase)),
        ("sent", Json::int(results.len() as u64)),
        ("ok", count(Outcome::Ok)),
        ("refused", count(Outcome::Refused)),
        ("failed", count(Outcome::Failed)),
        ("protocol_errors", count(Outcome::ProtocolError)),
    ])
}

fn submit_of<'a>(c: &'a Classified<'_>) -> Option<&'a SubmitResponse> {
    match &c.response {
        Some(Response::Submit(r)) => Some(r),
        _ => None,
    }
}

/// Pooled PST of one policy's known-answer submits, weighted by shots.
fn pooled_pst(results: &[Classified], policy: PolicyKind) -> Option<f64> {
    let (mut hits, mut shots) = (0.0, 0.0);
    for r in results.iter().filter_map(submit_of) {
        if let (true, Some(pst)) = (r.policy == policy, r.pst) {
            hits += pst * r.shots as f64;
            shots += r.shots as f64;
        }
    }
    (shots > 0.0).then(|| hits / shots)
}

/// Deterministic sample of OK submits for the oracle: an even stride over
/// each device class, capped, plus the first submit of any policy the
/// stride missed.
fn oracle_samples(results: &[Classified], cap_5q: usize, cap_14q: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    for (wide, cap) in [(false, cap_5q), (true, cap_14q)] {
        let pool: Vec<&Classified> = results
            .iter()
            .filter(|c| submit_of(c).is_some_and(|r| (r.device == "ibmq-melbourne") == wide))
            .collect();
        if pool.is_empty() || cap == 0 {
            continue;
        }
        let stride = pool.len().div_ceil(cap);
        let mut chosen: Vec<usize> = (0..pool.len()).step_by(stride).collect();
        for policy in [PolicyKind::Baseline, PolicyKind::Sim, PolicyKind::Aim] {
            let has = |i: &usize| submit_of(pool[*i]).is_some_and(|r| r.policy == policy);
            if !chosen.iter().any(has) {
                if let Some(i) = (0..pool.len()).find(has) {
                    chosen.push(i);
                }
            }
        }
        chosen.sort_unstable();
        out.extend(chosen.into_iter().map(|i| Sample {
            request: pool[i].record.arrival.line.clone(),
            reply: pool[i].record.reply.clone(),
            window: submit_of(pool[i]).map_or(0, |r| r.window),
        }));
    }
    out
}

/// Counter deltas over the measured phase.
struct Delta<'a> {
    before: &'a CountersSnapshot,
    after: &'a CountersSnapshot,
}

impl Delta<'_> {
    fn of(&self, f: impl Fn(&CountersSnapshot) -> u64) -> f64 {
        f(self.after).saturating_sub(f(self.before)) as f64
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one benchmark; `Ok(false)` when the run is invalid.
fn run() -> Result<bool, Error> {
    let args = parse_args()?;
    let workload = args.workload;
    let spec = workload.spec();
    // Run from the root of a checkout: the server was built from it.
    let root = std::env::current_dir()?;
    if !root.join("crates").is_dir() {
        return Err("not run from the root of a checkout of the repository".into());
    }
    let work = WorkDir(root.join(".bench_work").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0)?;
    let nproc = host::online_cpus();
    let identity = host::code_identity(&root);

    // Inputs are built before any server exists and are not set-up time.
    let programs = Programs::build(workload != Workload::Interactive5q);
    let probe_before = host::probe_ms();
    let wakeup_before = host::wakeup_us();

    let set_up = |k: usize| {
        let profile_dir = spec
            .profile_dir
            .then(|| work.0.join(format!("profiles-{k}")));
        load::set_up(
            &args.serve,
            workload,
            &programs,
            &work.0.join(format!("server-{k}.out")),
            profile_dir.as_deref(),
        )
    };
    let mut setup_s = Vec::new();
    let s = set_up(0)?;
    setup_s.push(s.seconds);
    let server = s.server;
    // The read-side workloads' measured phase has no cache misses by
    // design, so their cold submits go to a second, idle server.
    let probe_server = match spec.window_every {
        None => {
            let s = set_up(1)?;
            setup_s.push(s.seconds);
            Some(s.server)
        }
        Some(_) => None,
    };
    // Side tasks of the measured phase: the remaining set-ups and the
    // probe rounds, each kind spread evenly over it.
    let set_ups: Vec<Side> = (setup_s.len()..SETUPS).map(Side::SetUp).collect();
    let probes: Vec<Side> = match probe_server {
        Some(_) => (1..=COLD_ROUNDS).map(Side::Probe).collect(),
        None => Vec::new(),
    };
    let mut sides: Vec<(f64, Side)> = [set_ups, probes]
        .into_iter()
        .flat_map(|kind| {
            let n = kind.len() as f64;
            kind.into_iter()
                .enumerate()
                .map(move |(i, side)| ((i as f64 + 0.5) / n, side))
        })
        .collect();
    sides.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut probe_cold_ms = Vec::new();
    let mut run_side = |k: usize| -> Result<(), Error> {
        match sides[k].1 {
            Side::SetUp(k) => {
                let s = set_up(k)?;
                setup_s.push(s.seconds);
                s.server.shutdown()
            }
            Side::Probe(window) => {
                let probe = probe_server.as_ref().expect("read-side workloads have one");
                let ops = gen::cold_probe(workload, &programs, window..=window);
                let cold = load::send_all(probe.addr, &ops)?;
                // Each probe round must pay a characterization per device.
                if cold.len() != spec.devices.len() {
                    return Err(format!("cold probe {window} hit the cache").into());
                }
                // Their mean: devices differ in characterization cost.
                probe_cold_ms.push(stats::mean(&cold).expect("one per device"));
                Ok(())
            }
        }
    };

    // A fresh connection each time: the server reaps connections idle for
    // its idle timeout (30 s), which a long measured phase can exceed.
    let status_before = load::Conn::connect(server.addr)?.status()?;
    let cpu_before = host::process_cpu_ms(server.pid).ok_or("cannot read server CPU time")?;
    let jiffies_before = host::cpu_jiffies();
    let mut generator = Generator::new(workload, args.seed, programs.clone());
    let phase: Phase = load::measure(
        &server,
        &mut generator,
        args.seconds,
        sides.len(),
        &mut run_side,
    )?;
    let status_after = load::Conn::connect(server.addr)?.status()?;
    let cpu_after = host::process_cpu_ms(server.pid).ok_or("cannot read server CPU time")?;
    let rss_mb = host::peak_rss_mb(server.pid).ok_or("cannot read server memory")?;
    let steal_pct = host::steal_pct(jiffies_before, host::cpu_jiffies());
    server.shutdown()?;
    if let Some(probe) = probe_server {
        probe.shutdown()?;
    }
    let probe_after = host::probe_ms();
    let wakeup_after = host::wakeup_us();

    let delta = Delta {
        before: &status_before.counters,
        after: &status_after.counters,
    };
    let results: Vec<Classified> = phase.records.iter().map(classify).collect();
    let submits: Vec<&Classified> = results
        .iter()
        .filter(|c| matches!(c.record.arrival.op, Op::Submit(_)))
        .collect();
    let ok_submits: Vec<&Classified> = submits
        .iter()
        .copied()
        .filter(|c| c.outcome == Outcome::Ok)
        .collect();
    let failed = results.iter().filter(|c| c.outcome != Outcome::Ok).count() as u64;
    let latencies: Vec<f64> = ok_submits.iter().map(|c| c.record.latency_ms()).collect();
    let timed: Vec<(f64, f64)> = ok_submits
        .iter()
        .map(|c| {
            let at = c.record.sent.duration_since(phase.start).as_secs_f64();
            (at, c.record.latency_ms())
        })
        .collect();
    let windowed = |q: f64| {
        stats::windowed_percentile(&timed, args.seconds, spec.windows, q).unwrap_or(f64::NAN)
    };
    let within_slo = latencies.iter().filter(|&&ms| ms <= spec.slo_ms).count();
    let jobs = delta.of(|c| c.jobs_executed);
    let mut problems: Vec<String> = Vec::new();

    // Invariants: counts sum to shots (checked in the replay and here for
    // every reply), no misses after warm-up on the read-side workloads,
    // exactly one characterization per device x method x window on the
    // write-side one.
    for r in ok_submits.iter().filter_map(|c| submit_of(c)) {
        let summed: u64 = r.counts.iter().map(|(_, n)| n).sum();
        let complete = r.distinct as usize <= SubmitResponse::MAX_COUNTS;
        if r.total != r.shots || (complete && summed != r.shots) {
            problems.push(format!("counts do not sum to {} shots", r.shots));
        }
    }
    let miss_replies: Vec<&SubmitResponse> = ok_submits
        .iter()
        .filter_map(|c| submit_of(c))
        .filter(|r| r.cache == CacheOutcome::Miss)
        .collect();
    let characterizations = delta.of(|c| c.cache_misses);
    if spec.window_every.is_none() {
        if characterizations != 0.0 || !miss_replies.is_empty() {
            problems.push(format!(
                "{characterizations} characterizations after warm-up"
            ));
        }
    } else {
        let keys: BTreeSet<(String, u64)> = ok_submits
            .iter()
            .filter_map(|c| submit_of(c))
            .filter(|r| r.policy == PolicyKind::Aim && r.window > 0)
            .map(|r| (r.device.clone(), r.window))
            .collect();
        let mut per_key: BTreeMap<(String, u64), usize> = BTreeMap::new();
        for r in &miss_replies {
            *per_key.entry((r.device.clone(), r.window)).or_default() += 1;
        }
        let exact = per_key.len() == keys.len() && per_key.values().all(|&n| n == 1);
        if !exact || characterizations != keys.len() as f64 {
            problems.push(format!(
                "{} characterizations and {} miss replies for {} device-window keys",
                characterizations,
                miss_replies.len(),
                keys.len()
            ));
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} requests did not succeed"));
    }
    let busy = delta.of(|c| c.busy_rejections);
    if busy > 0.0 {
        problems.push(format!("{busy} busy rejections"));
    }

    // The answer oracle.
    let (cap_5q, cap_14q) = match workload {
        Workload::Interactive5q => (400, 0),
        Workload::Wide14q => (0, 12),
        Workload::DriftChurn => (150, 12),
    };
    let samples = oracle_samples(&results, cap_5q, cap_14q);
    let oracle = Oracle {
        exec_threads: args.serve.exec_threads,
        profile_dir: spec.profile_dir.then(|| work.0.join("replay")),
    };
    let t = Instant::now();
    if let Err(e) = oracle.replay(&samples, "plain", None) {
        problems.push(format!("answer oracle: {e}"));
    }
    let plain_s = t.elapsed().as_secs_f64();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let send_lag_p99 = stats::percentile(&phase.send_lag_ms, 0.99).unwrap_or(0.0);
    let behind = send_lag_p99 > BEHIND_MS;

    if args.trace {
        let mut spans = Spans::default();
        let t = Instant::now();
        if let Err(e) = oracle.replay(&samples, "traced", Some(&mut spans)) {
            problems.push(format!("traced replay: {e}"));
        }
        let traced_s = t.elapsed().as_secs_f64();
        // A second untraced pass after the traced one, so pass order (cold
        // caches, first-touch page faults) cancels out of the overhead.
        let t = Instant::now();
        if let Err(e) = oracle.replay(&samples, "plain-again", None) {
            problems.push(format!("answer oracle: {e}"));
        }
        let untraced_s = (plain_s + t.elapsed().as_secs_f64()) / 2.0;
        let med = |name: &str| {
            spans
                .us
                .get(name)
                .and_then(|v| stats::median(v))
                .unwrap_or(0.0)
        };
        let frontend: Vec<f64> = ok_submits
            .iter()
            .filter_map(|c| Some(c.record.latency_ms() - submit_of(c)?.latency_us as f64 / 1e3))
            .collect();
        let server_ms: Vec<f64> = ok_submits
            .iter()
            .filter_map(|c| Some(submit_of(c)?.latency_us as f64 / 1e3))
            .collect();
        let sent = results.len() as f64;
        let per_job = |x: f64| if jobs > 0.0 { x / jobs } else { 0.0 };
        let lookups = delta.of(|c| c.cache_hits) + characterizations;
        values.extend([
            (
                "service.frontend_ms_p50",
                stats::median(&frontend).unwrap_or(0.0),
            ),
            (
                "service.frontend_ms_p99",
                stats::percentile(&frontend, 0.99).unwrap_or(0.0),
            ),
            (
                "service.epoll_wakeups_per_req",
                delta.of(|c| c.epoll_wakeups) / sent,
            ),
            (
                "service.protocol_parse_us",
                med("service.protocol_parse_us"),
            ),
            (
                "service.protocol_render_us",
                med("service.protocol_render_us"),
            ),
            (
                "service.server_ms_p50",
                stats::median(&server_ms).unwrap_or(0.0),
            ),
            (
                "service.queue_depth_peak",
                status_after.counters.queue_depth_peak as f64,
            ),
            (
                "service.queue_steals_per_req",
                delta.of(|c| c.queue_steals) / sent,
            ),
            ("service.busy_rejections", busy),
            ("service.cache_lookup_us", med("service.cache_lookup_us")),
            (
                "service.cache_hit_ratio",
                if lookups > 0.0 {
                    delta.of(|c| c.cache_hits) / lookups
                } else {
                    0.0
                },
            ),
            ("service.characterizations", characterizations),
            ("service.cache_miss_ms", med("service.cache_miss_us") / 1e3),
            (
                "core.journal_checkpoints",
                delta.of(|c| c.journal_checkpoints),
            ),
            ("noise.snapshot_us", med("noise.snapshot_us")),
            ("qsim.qasm_parse_us", med("qsim.qasm_parse_us")),
            ("core.runner_new_us", med("core.runner_new_us")),
            ("core.run_ms.baseline", med("core.run_us.baseline") / 1e3),
            ("core.run_ms.sim", med("core.run_us.sim") / 1e3),
            ("core.run_ms.aim", med("core.run_us.aim") / 1e3),
            (
                "qsim.simulations_per_job",
                stats::mean(&spans.simulations).unwrap_or(0.0),
            ),
            (
                "qsim.pool_tasks_per_job",
                per_job(delta.of(|c| c.pool_tasks)),
            ),
            (
                "qsim.arena_reuse_per_job",
                per_job(delta.of(|c| c.arena_reuse_hits)),
            ),
            ("qsim.rank_us", med("qsim.rank_us")),
            ("metrics.evaluate_us", med("metrics.evaluate_us")),
            ("generator.send_lag_ms_p99", send_lag_p99),
            ("generator.threads", phase.threads as f64),
            ("generator.connections", phase.connections as f64),
            ("machine.steal_pct", steal_pct),
            ("machine.probe_ms", (probe_before + probe_after) / 2.0),
            ("machine.wakeup_us", (wakeup_before + wakeup_after) / 2.0),
            (
                "service.e2e_ms_p99",
                stats::percentile(&latencies, 0.99).unwrap_or(0.0),
            ),
            (
                "trace.span_coverage_pct",
                if spans.server_us > 0.0 {
                    spans.covered_us / spans.server_us * 100.0
                } else {
                    0.0
                },
            ),
            (
                "trace.overhead_pct",
                (traced_s - untraced_s) / untraced_s * 100.0,
            ),
        ]);
    } else {
        // Devices differ in characterization cost, and every window pays
        // one per device, so a pooled median would sit on the boundary
        // between them. Average within each window that paid all of them
        // instead, then take the median window.
        let cold: Vec<f64> = if spec.window_every.is_some() {
            let mut per_window: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for c in &ok_submits {
                if let Some(r) = submit_of(c).filter(|r| r.cache == CacheOutcome::Miss) {
                    per_window
                        .entry(r.window)
                        .or_default()
                        .push(c.record.latency_ms());
                }
            }
            per_window
                .values()
                .filter(|v| v.len() == spec.devices.len())
                .filter_map(|v| stats::mean(v))
                .collect()
        } else {
            probe_cold_ms.clone()
        };
        let gain = match (
            pooled_pst(&results, PolicyKind::Aim),
            pooled_pst(&results, PolicyKind::Baseline),
        ) {
            (Some(aim), Some(base)) if base > 0.0 => aim / base,
            _ => f64::NAN,
        };
        values.extend([
            ("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN)),
            ("submit_p50_ms", windowed(0.5)),
            ("submit_p90_ms", windowed(0.9)),
            (
                "slo_met_ratio",
                within_slo as f64 / submits.len().max(1) as f64,
            ),
            ("server_cpu_ms_per_job", (cpu_after - cpu_before) / jobs),
            ("server_rss_mb", rss_mb),
            ("aim_pst_gain", gain),
            (
                "cold_submit_p50_ms",
                stats::median(&cold).unwrap_or(f64::NAN),
            ),
        ]);
    }

    let windows_json = |q: f64| {
        Json::Arr(
            stats::window_percentiles(&timed, args.seconds, spec.windows, q)
                .into_iter()
                .map(Json::Num)
                .collect(),
        )
    };

    // Diagnostics first; the result object is the last line of stdout.
    let diag = Json::obj(vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::int(args.seed)),
        ("code", Json::str(identity)),
        ("nproc", Json::int(nproc as u64)),
        ("cpus_allowed", Json::str(host::cpus_allowed())),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "cold_probe_ms",
            Json::Arr(probe_cold_ms.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("accounting", accounting("measured", &results)),
        ("wall_s", Json::Num(phase.wall_s)),
        ("jobs", Json::Num(jobs)),
        (
            "submit_p99_ms",
            Json::Num(stats::percentile(&latencies, 0.99).unwrap_or(0.0)),
        ),
        (
            "submit_p999_ms",
            Json::Num(stats::percentile(&latencies, 0.999).unwrap_or(0.0)),
        ),
        ("submits", Json::int(latencies.len() as u64)),
        ("window_p50_ms", windows_json(0.5)),
        (
            "policy_p50_ms",
            Json::obj(
                [PolicyKind::Baseline, PolicyKind::Sim, PolicyKind::Aim]
                    .into_iter()
                    .map(|policy| {
                        let ms: Vec<f64> = ok_submits
                            .iter()
                            .filter(|c| submit_of(c).is_some_and(|r| r.policy == policy))
                            .map(|c| c.record.latency_ms())
                            .collect();
                        (
                            policy.as_str(),
                            Json::Num(stats::median(&ms).unwrap_or(0.0)),
                        )
                    })
                    .collect(),
            ),
        ),
        ("window_p90_ms", windows_json(0.9)),
        ("send_lag_ms_p99", Json::Num(send_lag_p99)),
        ("generator_behind", Json::Bool(behind)),
        ("steal_pct", Json::Num(steal_pct)),
        (
            "probe_ms",
            Json::Arr(vec![Json::Num(probe_before), Json::Num(probe_after)]),
        ),
        (
            "wakeup_us",
            Json::Arr(vec![Json::Num(wakeup_before), Json::Num(wakeup_after)]),
        ),
        ("oracle_samples", Json::int(samples.len() as u64)),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ]);
    println!("diag {diag}");
    if behind {
        eprintln!("e2ebench: warning: the generator was slow to send after replies");
    }
    for p in &problems {
        eprintln!("e2ebench: invalid run: {p}");
    }
    let correct = problems.is_empty();
    let line = report::result_line(correct, results.len() as u64, failed, args.trace, &values)?;
    println!("{line}");
    Ok(correct)
}

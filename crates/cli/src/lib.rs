//! # invmeas-cli — command-line front end for the Invert-and-Measure stack
//!
//! Seven subcommands tie the workspace together for interactive use:
//!
//! * `devices` — the built-in machine models and their Table-1 statistics;
//! * `characterize` — measure a device's RBMS (brute force / ESCT / AWCT)
//!   and optionally persist it as a profile file;
//! * `profile-info` — inspect a saved profile;
//! * `run` — execute an OpenQASM 2.0 program on a device model under
//!   baseline/SIM/AIM, optionally routed through the mapper, with
//!   reliability metrics when the expected output is given;
//! * `serve` — start the long-running mitigation server
//!   ([`invmeas_service`]), which amortizes characterization across
//!   requests through its drift-aware profile cache;
//! * `submit` — send a QASM job to a running server and print the JSON
//!   response line;
//! * `svc` — control-plane calls (`status`, `health`, `shutdown`,
//!   `set-window`, `characterize`, `cluster-map`) against a running
//!   server; `health` maps degradation onto exit codes (0 healthy,
//!   1 degraded, 2 unreachable) for scripts and probes.
//!
//! `serve --cluster` joins the profile mesh (DESIGN.md §16); `submit`
//! and `svc` accept a comma-separated `--addr` seed list and rotate
//! through it when a node refuses the connection.
//!
//! The command implementations live in this library so they are unit- and
//! integration-testable; `main.rs` is a thin shim. Failures carry their
//! intended process exit code via [`CliFailure`]: usage errors exit 2,
//! runtime failures exit 1.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;

use args::{CharacterizeArgs, Command, Policy, RunArgs, ServeArgs, SubmitArgs, SvcArgs};
use invmeas::{
    AdaptiveInvertMeasure, Baseline, CharSpec, Journal, MeasurementPolicy, ProfileMeta, RbmsTable,
    StaticInvertMeasure,
};
use invmeas_service::{
    CharacterizeRequest, Client, ClusterConfig, PolicyKind, Request, Response, Server,
    ServerConfig, SubmitRequest,
};
use qmetrics::{fmt_pct, fmt_prob, fmt_ratio, CorrectSet, ReliabilityReport, Table};
use qnoise::{DeviceModel, NoisyExecutor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Boxed error type for command execution.
pub type CliError = Box<dyn std::error::Error + Send + Sync>;

/// A CLI failure carrying its intended process exit code, so scripts can
/// tell a bad invocation (fix the command line) from a bad run (look at
/// the environment): usage errors exit 2, runtime failures exit 1.
#[derive(Debug)]
pub enum CliFailure {
    /// The argument vector did not parse (exit code 2).
    Usage(args::ArgError),
    /// The command parsed but failed while executing (exit code 1).
    Runtime(CliError),
    /// `svc health` reached a degraded server (exit code 1). Carries the
    /// health response line so monitoring still sees the details.
    Degraded(String),
    /// `svc health` could not reach the server at all (exit code 2).
    Unreachable(String),
}

impl CliFailure {
    /// The process exit code this failure maps to.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CliFailure::Usage(_) | CliFailure::Unreachable(_) => 2,
            CliFailure::Runtime(_) | CliFailure::Degraded(_) => 1,
        }
    }

    /// Whether this is a usage error (and the caller should print usage).
    #[must_use]
    pub fn is_usage(&self) -> bool {
        matches!(self, CliFailure::Usage(_))
    }
}

impl fmt::Display for CliFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliFailure::Usage(e) => write!(f, "{e}"),
            CliFailure::Runtime(e) => write!(f, "{e}"),
            CliFailure::Degraded(line) => write!(f, "server is degraded: {line}"),
            CliFailure::Unreachable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliFailure {}

/// Parses and executes an argument vector (without the program name).
///
/// # Errors
///
/// [`CliFailure::Usage`] when the arguments do not parse,
/// [`CliFailure::Runtime`] when execution fails.
pub fn run_cli(argv: &[String]) -> Result<String, CliFailure> {
    let cmd = args::parse(argv).map_err(CliFailure::Usage)?;
    // `svc health` has its own three-way exit-code contract (0 healthy,
    // 1 degraded, 2 unreachable), so it bypasses the usual error mapping.
    if let Command::Svc(a) = &cmd {
        if a.op == args::SvcOp::Health {
            return health(a);
        }
    }
    execute(&cmd).map_err(CliFailure::Runtime)
}

fn health(a: &SvcArgs) -> Result<String, CliFailure> {
    match invmeas_service::call(&a.addr, &Request::Health) {
        Err(e) => Err(CliFailure::Unreachable(format!(
            "cannot reach server at {}: {e}",
            a.addr
        ))),
        Ok(Response::Health(h)) => {
            let degraded = h.degraded;
            let line = Response::Health(h).to_line();
            if degraded {
                Err(CliFailure::Degraded(line))
            } else {
                Ok(line + "\n")
            }
        }
        Ok(other) => Err(CliFailure::Runtime(
            format!("unexpected response to health: {}", other.to_line()).into(),
        )),
    }
}

/// Resolves a device name (`ibmqx2`, `ibmqx4`, `ibmq-melbourne`, or
/// `ideal-N`).
///
/// # Errors
///
/// Returns an error naming the unknown device.
pub fn resolve_device(name: &str) -> Result<DeviceModel, CliError> {
    match name {
        "ibmqx2" => Ok(DeviceModel::ibmqx2()),
        "ibmqx4" => Ok(DeviceModel::ibmqx4()),
        "ibmq-melbourne" | "ibmq_melbourne" => Ok(DeviceModel::ibmq_melbourne()),
        other => {
            if let Some(n) = other.strip_prefix("ideal-") {
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad ideal device size in {other:?}"))?;
                if n == 0 || n > 20 {
                    return Err(format!("ideal device size {n} out of range").into());
                }
                Ok(DeviceModel::ideal(n))
            } else {
                Err(format!(
                    "unknown device {other:?} (try: ibmqx2, ibmqx4, ibmq-melbourne, ideal-N)"
                )
                .into())
            }
        }
    }
}

/// Executes a parsed command, returning the rendered output.
///
/// # Errors
///
/// Propagates device resolution, I/O, parsing, and routing failures.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(args::USAGE.to_string()),
        Command::Devices => Ok(render_devices()),
        Command::Characterize(a) => characterize(a),
        Command::ProfileInfo { path } => profile_info(path),
        Command::Run(a) => run(a),
        Command::Serve(a) => serve(a),
        Command::Submit(a) => submit(a),
        Command::Svc(a) => svc(a),
    }
}

fn policy_kind(p: Policy) -> PolicyKind {
    match p {
        Policy::Baseline => PolicyKind::Baseline,
        Policy::Sim => PolicyKind::Sim,
        Policy::Aim => PolicyKind::Aim,
    }
}

/// The server configuration `serve` runs with: every field the flags do
/// not name keeps its [`ServerConfig::default`] value.
fn server_config(a: &ServeArgs) -> Result<ServerConfig, CliError> {
    let faults: std::sync::Arc<dyn invmeas_faults::FaultInjector> = match &a.fault_plan {
        Some(path) => std::sync::Arc::new(
            invmeas_faults::FaultPlan::load(path)
                .map_err(|e| format!("cannot load fault plan {path}: {e}"))?,
        ),
        None => std::sync::Arc::new(invmeas_faults::NoFaults),
    };
    let net_faults = match &a.net_faults {
        Some(path) => Some(std::sync::Arc::new(
            invmeas_faults::NetFaultPlan::load(path)
                .map_err(|e| format!("cannot load net faults {path}: {e}"))?,
        )),
        None => None,
    };
    let cluster = if a.cluster.is_empty() {
        None
    } else {
        let mut c = ClusterConfig::new(a.cluster.clone(), &a.addr)?;
        c.replication = a.replication;
        c.heartbeat_ms = a.heartbeat_ms;
        c.heartbeat_miss_limit = a.heartbeat_miss_limit;
        Some(c)
    };
    Ok(ServerConfig {
        addr: a.addr.clone(),
        workers: a.workers,
        queue_capacity: a.queue,
        exec_threads: a.exec_threads,
        profile_shots: a.profile_shots,
        profile_seed: a.profile_seed,
        drift_amplitude: a.drift_amplitude,
        drift_threshold: a.drift_threshold,
        profile_dir: a.profile_dir.clone().map(std::path::PathBuf::from),
        idle_timeout_ms: a.idle_timeout_ms,
        retry_limit: a.retry_limit,
        retry_backoff_ms: a.retry_backoff_ms,
        breaker_failure_threshold: a.breaker_threshold,
        breaker_cooldown: a.breaker_cooldown,
        faults,
        net_faults,
        cluster,
        ..ServerConfig::default()
    })
}

fn serve(a: &ServeArgs) -> Result<String, CliError> {
    let server = Server::bind(server_config(a)?)?;
    // Scripts (and the CI smoke job) parse this line to learn the actual
    // port when binding to port 0, so it must reach stdout before serve()
    // blocks.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let counters = server.serve()?;
    Ok(format!(
        "final counters after drain:\n{}",
        counters.render()
    ))
}

/// Dials `addr`, which may be a single `HOST:PORT` or a comma-separated
/// seed list — the mesh entry points. The client rotates through the
/// seeds on connection failure, so a job survives any one node being
/// down.
fn dial(addr: &str) -> Result<Client, CliError> {
    let seeds: Vec<&str> = addr
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    Client::connect_seeds(&seeds).map_err(|e| format!("cannot reach server at {addr}: {e}").into())
}

/// Sends one request and renders the response as its JSON wire line, so
/// shell pipelines see exactly what the protocol carries.
fn service_call(addr: &str, request: &Request) -> Result<String, CliError> {
    let response = dial(addr)?
        .request(request)
        .map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    if let Response::Error { code, message } = &response {
        return Err(format!("server error {code}: {message}").into());
    }
    Ok(response.to_line() + "\n")
}

fn submit(a: &SubmitArgs) -> Result<String, CliError> {
    let qasm = std::fs::read_to_string(&a.qasm)?;
    let request = Request::Submit(SubmitRequest {
        device: a.device.clone(),
        qasm,
        policy: policy_kind(a.policy),
        shots: a.shots,
        seed: a.seed,
        expected: a.expected.clone(),
        deadline_ms: a.deadline_ms,
        fwd: false,
    });
    service_call(&a.addr, &request)
}

fn svc(a: &SvcArgs) -> Result<String, CliError> {
    if let args::SvcOp::ClusterMap { device } = &a.op {
        return cluster_map(&a.addr, device.as_deref());
    }
    let request = match &a.op {
        args::SvcOp::Status => Request::Status,
        // `svc health` is routed to `health()` by `run_cli` for its exit
        // codes; `execute` callers get the plain response line.
        args::SvcOp::Health => Request::Health,
        args::SvcOp::Shutdown => Request::Shutdown,
        args::SvcOp::SetWindow { window } => Request::SetWindow {
            window: *window,
            fwd: false,
        },
        args::SvcOp::Characterize {
            device,
            method,
            shots,
        } => Request::Characterize(CharacterizeRequest {
            device: device.clone(),
            method: *method,
            shots: *shots,
            fwd: false,
        }),
        args::SvcOp::ClusterMap { .. } => unreachable!("handled above"),
    };
    service_call(&a.addr, &request)
}

/// Renders `svc cluster-map` human-readably: membership with liveness as
/// the answering node sees it, plus a device's route when requested.
fn cluster_map(addr: &str, device: Option<&str>) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let request = Request::ClusterMap {
        device: device.map(str::to_string),
    };
    let response = dial(addr)?
        .request(&request)
        .map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    let m = match response {
        Response::ClusterMap(m) => m,
        Response::Error { code, message } => {
            return Err(format!("server error {code}: {message}").into())
        }
        other => {
            return Err(format!("unexpected response to cluster-map: {}", other.to_line()).into())
        }
    };
    let mut out = format!(
        "cluster of {} members (answering node is #{}):\n",
        m.members.len(),
        m.self_index
    );
    for (i, name) in m.members.iter().enumerate() {
        let alive = m.alive.get(i).copied().unwrap_or(false);
        let _ = writeln!(
            out,
            "  #{i} {name} {}{}",
            if alive { "alive" } else { "dead" },
            if i as u64 == m.self_index {
                " (self)"
            } else {
                ""
            },
        );
    }
    if let Some(r) = &m.route {
        let _ = writeln!(
            out,
            "route for {}: owner #{}, followers {}",
            r.device,
            r.owner,
            if r.followers.is_empty() {
                "none".to_string()
            } else {
                r.followers
                    .iter()
                    .map(|f| format!("#{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        );
    }
    Ok(out)
}

fn render_devices() -> String {
    let mut t = Table::new(&[
        "device",
        "qubits",
        "assign err (min/avg/max)",
        "meas window",
    ]);
    for dev in [
        DeviceModel::ibmqx2(),
        DeviceModel::ibmqx4(),
        DeviceModel::ibmq_melbourne(),
    ] {
        let (min, avg, max) = dev.assignment_error_stats();
        t.row_owned(vec![
            dev.name().to_string(),
            dev.n_qubits().to_string(),
            format!("{} / {} / {}", fmt_pct(min), fmt_pct(avg), fmt_pct(max)),
            format!("{:.1} us", dev.meas_duration_us()),
        ]);
    }
    format!("{t}\nplus ideal-N for a noiseless N-qubit reference\n")
}

/// The worker-thread count to use: the `--threads` value if given,
/// otherwise every available core.
fn resolve_threads(requested: Option<usize>) -> usize {
    requested.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

fn characterize(a: &CharacterizeArgs) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let dev = resolve_device(&a.device)?;
    let spec = CharSpec::new(a.method, dev.name(), dev.n_qubits(), a.shots, a.seed);
    spec.validate()?;
    let exec = NoisyExecutor::from_device(&dev).with_threads(resolve_threads(a.threads));
    let faults: Box<dyn invmeas_faults::FaultInjector> = match &a.fault_plan {
        Some(p) => Box::new(
            invmeas_faults::FaultPlan::load(p)
                .map_err(|e| format!("cannot load fault plan {p}: {e}"))?,
        ),
        None => Box::new(invmeas_faults::NoFaults),
    };
    let journal = a.journal.as_deref().map(std::path::Path::new);
    if let Some(parent) = journal
        .and_then(std::path::Path::parent)
        .filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent)?;
    }
    let (table, stats) = invmeas::characterize(
        &exec,
        &spec,
        journal.map(|path| Journal {
            faults: faults.as_ref(),
            ..Journal::at(path)
        }),
    )
    .map_err(|e| format!("characterization failed: {e}"))?;
    let mut out = String::new();
    if let Some(path) = journal {
        if stats.resumed() {
            let _ = writeln!(
                out,
                "resumed {} of {} units from {}",
                stats.resumed_units,
                stats.total_units,
                path.display()
            );
        }
        let _ = writeln!(
            out,
            "journal: {} checkpoints at {}",
            stats.checkpoints_written,
            path.display()
        );
    }
    out.push_str(&render_profile(&table, dev.name()));
    if let Some(path) = &a.out {
        table.save(path, &ProfileMeta::from(&spec), &invmeas_faults::NoFaults)?;
        out.push_str(&format!("\nprofile written to {path}\n"));
        // The journal exists to reproduce the profile; once the profile
        // is durable the checkpoints have served their purpose.
        if let Some(j) = journal {
            if std::fs::remove_file(j).is_ok() {
                out.push_str(&format!("journal {} removed\n", j.display()));
            }
        }
    }
    Ok(out)
}

fn render_profile(table: &RbmsTable, label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "RBMS profile of {label}: {} states, {} trials",
        table.strengths().len(),
        table.trials_used()
    );
    let _ = writeln!(
        out,
        "strongest {}  weakest {}  weight correlation {:.3}",
        table.strongest_state(),
        table.weakest_state(),
        table.hamming_correlation()
    );
    // Top and bottom five states.
    let rel = table.relative();
    let mut ranked: Vec<(usize, f64)> = rel.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let mut t = Table::new(&["rank", "state", "relative strength"]);
    let width = table.width();
    for (i, &(idx, v)) in ranked.iter().take(5).enumerate() {
        t.row_owned(vec![
            format!("{}", i + 1),
            qsim::BitString::from_value(idx as u64, width).to_string(),
            fmt_prob(v),
        ]);
    }
    for (i, &(idx, v)) in ranked.iter().rev().take(5).rev().enumerate() {
        t.row_owned(vec![
            format!("{}", ranked.len() - 4 + i),
            qsim::BitString::from_value(idx as u64, width).to_string(),
            fmt_prob(v),
        ]);
    }
    let _ = writeln!(out, "{t}");
    out
}

fn profile_info(path: &str) -> Result<String, CliError> {
    let (table, meta) = RbmsTable::load(path, &invmeas_faults::NoFaults)?;
    let mut out = match meta {
        Some(m) => format!(
            "format rbms v2 (checksummed): device {}  method {}  seed {}  window {}\n",
            m.device, m.method, m.seed, m.window
        ),
        None => "format rbms v1 (no checksum; re-save to upgrade)\n".to_string(),
    };
    out.push_str(&render_profile(&table, path));
    Ok(out)
}

fn run(a: &RunArgs) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let dev = resolve_device(&a.device)?;
    let text = std::fs::read_to_string(&a.qasm)?;
    let logical = qsim::qasm::from_qasm(&text)?;
    let mut rng = StdRng::seed_from_u64(a.seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loaded {}: {} qubits, {} gates ({} two-qubit)",
        a.qasm,
        logical.n_qubits(),
        logical.len(),
        logical.two_qubit_gate_count()
    );

    // Optionally route onto the device.
    let (circuit, routed) = if a.route {
        let routed = qmapper::route_auto(&logical, &dev)?;
        let _ = writeln!(
            out,
            "routed onto {} with {} swaps (output layout {:?})",
            dev.name(),
            routed.swap_count(),
            routed.output_layout()
        );
        (routed.circuit().clone(), Some(routed))
    } else {
        if logical.n_qubits() != dev.n_qubits() {
            return Err(format!(
                "program has {} qubits but {} has {}; pass --route",
                logical.n_qubits(),
                dev.name(),
                dev.n_qubits()
            )
            .into());
        }
        (logical.clone(), None)
    };

    let exec = NoisyExecutor::from_device(&dev).with_threads(resolve_threads(a.threads));
    let width = circuit.n_qubits();
    let policy: Box<dyn MeasurementPolicy> = match a.policy {
        Policy::Baseline => Box::new(Baseline),
        Policy::Sim => Box::new(StaticInvertMeasure::four_mode(width)),
        Policy::Aim => {
            let profile = match &a.profile {
                Some(path) => {
                    let (p, _) = RbmsTable::load(path, &invmeas_faults::NoFaults)?;
                    if p.width() != width {
                        return Err(format!(
                            "profile width {} does not match register {}",
                            p.width(),
                            width
                        )
                        .into());
                    }
                    p
                }
                None => {
                    if width <= 5 {
                        RbmsTable::brute_force(&exec, 4096, &mut rng)
                    } else {
                        RbmsTable::awct(&exec, 4, 2, 4096, &mut rng)
                    }
                }
            };
            Box::new(AdaptiveInvertMeasure::new(profile))
        }
    };

    let physical_log = policy.execute(&circuit, a.shots, &exec, &mut rng);
    let log = match &routed {
        Some(r) => r.logical_counts(&physical_log),
        None => physical_log,
    };

    let _ = writeln!(out, "\npolicy {} over {} trials:", policy.name(), a.shots);
    let mut t = Table::new(&["output", "count", "frequency"]);
    for (s, n) in log.ranked().into_iter().take(10) {
        t.row_owned(vec![
            s.to_string(),
            n.to_string(),
            fmt_prob(n as f64 / log.total() as f64),
        ]);
    }
    let _ = writeln!(out, "{t}");

    if let Some(expected) = &a.expected {
        let expected: qsim::BitString = expected.parse()?;
        if expected.width() != log.width() {
            return Err(format!(
                "--expected has {} bits but outputs have {}",
                expected.width(),
                log.width()
            )
            .into());
        }
        let r = ReliabilityReport::evaluate(&log, &CorrectSet::single(expected));
        let _ = writeln!(
            out,
            "PST {}  IST {}  ROCA {}",
            fmt_prob(r.pst),
            fmt_ratio(r.ist),
            r.roca.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use invmeas::CharMethod;

    #[test]
    fn resolve_known_devices() {
        assert_eq!(resolve_device("ibmqx2").unwrap().n_qubits(), 5);
        assert_eq!(resolve_device("ibmq-melbourne").unwrap().n_qubits(), 14);
        assert_eq!(resolve_device("ideal-7").unwrap().n_qubits(), 7);
        assert!(resolve_device("ideal-0").is_err());
        assert!(resolve_device("tokyo").is_err());
    }

    #[test]
    fn devices_listing_renders() {
        let out = execute(&Command::Devices).unwrap();
        assert!(out.contains("ibmqx2"));
        assert!(out.contains("ibmq-melbourne"));
        assert!(out.contains("ideal-N"));
    }

    #[test]
    fn characterize_and_inspect_roundtrip() {
        let dir = std::env::temp_dir().join("invmeas-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("qx4.rbms");
        let out = execute(&Command::Characterize(CharacterizeArgs {
            device: "ibmqx4".into(),
            method: CharMethod::Brute,
            shots: 256,
            out: Some(path.to_string_lossy().into_owned()),
            seed: 1,
            threads: Some(2),
            journal: None,
            fault_plan: None,
        }))
        .unwrap();
        assert!(out.contains("RBMS profile"));
        assert!(out.contains("profile written"));
        let info = execute(&Command::ProfileInfo {
            path: path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(info.contains("strongest"));
        assert!(info.contains("format rbms v2"), "{info}");
        assert!(info.contains("device ibmqx4"), "{info}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journaled_characterize_resumes_after_crash_byte_identically() {
        let dir = std::env::temp_dir().join("invmeas-cli-journal-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let args_for =
            |out: &std::path::Path, fault_plan: Option<&std::path::Path>| CharacterizeArgs {
                device: "ibmqx2".into(),
                method: CharMethod::Brute,
                shots: 400,
                out: Some(out.to_string_lossy().into_owned()),
                seed: 11,
                threads: Some(2),
                journal: Some(format!("{}.journal", out.to_string_lossy())),
                fault_plan: fault_plan.map(|p| p.to_string_lossy().into_owned()),
            };

        // Reference: an uninterrupted journaled run.
        let clean_out = dir.join("clean.rbms");
        let report = execute(&Command::Characterize(args_for(&clean_out, None))).unwrap();
        assert!(report.contains("journal:"), "{report}");
        assert!(
            report.contains("journal") && report.contains("removed"),
            "{report}"
        );
        let clean_bytes = std::fs::read(&clean_out).unwrap();

        // Crash run: a scripted panic at the third journal checkpoint.
        let plan_path = dir.join("kill.plan");
        std::fs::write(
            &plan_path,
            "faultplan v1\nseed 0\njournal-write 3 panic scripted kill\n",
        )
        .unwrap();
        let crash_out = dir.join("crash.rbms");
        let crash_args = args_for(&crash_out, Some(&plan_path));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&Command::Characterize(crash_args.clone()))
        }));
        assert!(panicked.is_err(), "scripted panic must fire");
        let journal_path = dir.join("crash.rbms.journal");
        assert!(journal_path.exists(), "journal must survive the crash");
        assert!(
            !crash_out.exists(),
            "no profile was written before the crash"
        );

        // Resume: picks up the surviving checkpoints and finishes.
        let report = execute(&Command::Characterize(args_for(&crash_out, None))).unwrap();
        assert!(report.contains("resumed 2 of"), "{report}");
        let resumed_bytes = std::fs::read(&crash_out).unwrap();
        assert_eq!(
            resumed_bytes, clean_bytes,
            "resumed profile must be byte-identical to the uninterrupted run"
        );
        assert!(
            !journal_path.exists(),
            "journal is removed after a durable save"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_does_not_change_the_written_profile() {
        let dir = std::env::temp_dir().join("invmeas-cli-journal-parity-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for (device, method) in [
            ("ibmqx2", CharMethod::Brute),
            ("ibmqx2", CharMethod::Esct),
            ("ibmq-melbourne", CharMethod::Awct),
        ] {
            let write = |name: &str, journal: Option<String>| {
                let out = dir.join(name);
                execute(&Command::Characterize(CharacterizeArgs {
                    device: device.into(),
                    method,
                    shots: 300,
                    out: Some(out.to_string_lossy().into_owned()),
                    seed: 7,
                    threads: Some(2),
                    journal,
                    fault_plan: None,
                }))
                .unwrap();
                std::fs::read(out).unwrap()
            };
            let journal = dir.join("j.journal").to_string_lossy().into_owned();
            assert_eq!(
                write("a.rbms", None),
                write("b.rbms", Some(journal)),
                "{device} {method:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_qasm_end_to_end_with_metrics() {
        let dir = std::env::temp_dir().join("invmeas-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let qasm_path = dir.join("prog.qasm");
        // A 5-qubit all-ones preparation.
        let circuit = qsim::Circuit::basis_state_preparation("11111".parse().unwrap());
        std::fs::write(&qasm_path, qsim::qasm::to_qasm(&circuit)).unwrap();

        let base = execute(&Command::Run(RunArgs {
            qasm: qasm_path.to_string_lossy().into_owned(),
            device: "ibmqx4".into(),
            policy: Policy::Baseline,
            shots: 2000,
            expected: Some("11111".into()),
            profile: None,
            route: false,
            seed: 5,
            threads: Some(2),
        }))
        .unwrap();
        assert!(base.contains("PST"), "{base}");
        let aim = execute(&Command::Run(RunArgs {
            qasm: qasm_path.to_string_lossy().into_owned(),
            device: "ibmqx4".into(),
            policy: Policy::Aim,
            shots: 2000,
            expected: Some("11111".into()),
            profile: None,
            route: false,
            seed: 5,
            threads: Some(2),
        }))
        .unwrap();
        assert!(aim.contains("policy aim"), "{aim}");
        std::fs::remove_file(&qasm_path).ok();
    }

    #[test]
    fn run_with_routing_folds_outputs() {
        let dir = std::env::temp_dir().join("invmeas-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let qasm_path = dir.join("route.qasm");
        let circuit = qsim::Circuit::basis_state_preparation("101".parse().unwrap());
        std::fs::write(&qasm_path, qsim::qasm::to_qasm(&circuit)).unwrap();
        let out = execute(&Command::Run(RunArgs {
            qasm: qasm_path.to_string_lossy().into_owned(),
            device: "ibmq-melbourne".into(),
            policy: Policy::Baseline,
            shots: 500,
            expected: Some("101".into()),
            profile: None,
            route: true,
            seed: 3,
            threads: None,
        }))
        .unwrap();
        assert!(out.contains("routed onto"), "{out}");
        assert!(out.contains("PST"), "{out}");
        std::fs::remove_file(&qasm_path).ok();
    }

    #[test]
    fn usage_and_runtime_failures_map_to_distinct_exit_codes() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_string).collect() };
        // Bad command line → usage error, exit 2.
        let usage = run_cli(&argv("characterize")).unwrap_err();
        assert_eq!(usage.exit_code(), 2);
        assert!(usage.is_usage());
        assert!(usage.to_string().contains("requires --device"));
        let usage = run_cli(&argv("svc reboot")).unwrap_err();
        assert_eq!(usage.exit_code(), 2);
        // Well-formed command that fails at runtime → exit 1.
        let runtime = run_cli(&argv("run missing.qasm --device tokyo")).unwrap_err();
        assert_eq!(runtime.exit_code(), 1);
        assert!(!runtime.is_usage());
        let runtime = run_cli(&argv("profile-info no-such-file.rbms")).unwrap_err();
        assert_eq!(runtime.exit_code(), 1);
        // Success path still returns output.
        assert!(run_cli(&argv("devices")).unwrap().contains("ibmqx2"));
    }

    #[test]
    fn health_against_no_server_exits_unreachable() {
        let argv: Vec<String> = ["svc", "health", "--addr", "127.0.0.1:9"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let failure = run_cli(&argv).unwrap_err();
        assert_eq!(failure.exit_code(), 2, "unreachable is exit 2");
        assert!(!failure.is_usage(), "not a usage error despite the code");
        assert!(
            failure.to_string().contains("cannot reach server"),
            "{failure}"
        );
    }

    #[test]
    fn submit_without_a_server_is_a_runtime_failure() {
        let dir = std::env::temp_dir().join("invmeas-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let qasm_path = dir.join("svc.qasm");
        let circuit = qsim::Circuit::basis_state_preparation("11".parse().unwrap());
        std::fs::write(&qasm_path, qsim::qasm::to_qasm(&circuit)).unwrap();
        // Port 9 (discard) is never a live mitigation server.
        let argv: Vec<String> = [
            "submit",
            qasm_path.to_str().unwrap(),
            "--device",
            "ibmqx2",
            "--addr",
            "127.0.0.1:9",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let failure = run_cli(&argv).unwrap_err();
        assert_eq!(
            failure.exit_code(),
            1,
            "connection refusal is a runtime failure"
        );
        assert!(
            failure.to_string().contains("cannot reach server"),
            "{failure}"
        );
        std::fs::remove_file(&qasm_path).ok();
    }

    #[test]
    fn serve_and_submit_roundtrip_through_the_cli_layer() {
        // Bind the server directly (port 0) so the test does not race over
        // a fixed port; the CLI layer is exercised for submit + svc.
        let server = Server::bind(ServerConfig {
            workers: 1,
            profile_shots: 64,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());

        let dir = std::env::temp_dir().join("invmeas-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let qasm_path = dir.join("cli-serve.qasm");
        let circuit = qsim::Circuit::basis_state_preparation("11111".parse().unwrap());
        std::fs::write(&qasm_path, qsim::qasm::to_qasm(&circuit)).unwrap();

        let argv =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(ToString::to_string).collect() };
        let out = run_cli(&argv(&[
            "submit",
            qasm_path.to_str().unwrap(),
            "--device",
            "ibmqx4",
            "--addr",
            &addr,
            "--policy",
            "sim",
            "--shots",
            "500",
            "--expected",
            "11111",
        ]))
        .unwrap();
        assert!(out.contains("\"op\":\"submit\""), "{out}");
        assert!(out.contains("\"pst\":"), "{out}");

        let out = run_cli(&argv(&["svc", "status", "--addr", &addr])).unwrap();
        assert!(out.contains("\"op\":\"status\""), "{out}");

        // A quiet server with no open breakers is healthy: exit 0.
        let out = run_cli(&argv(&["svc", "health", "--addr", &addr])).unwrap();
        assert!(out.contains("\"op\":\"health\""), "{out}");
        assert!(out.contains("\"degraded\":false"), "{out}");

        let out = run_cli(&argv(&["svc", "shutdown", "--addr", &addr])).unwrap();
        assert!(out.contains("\"op\":\"shutdown\""), "{out}");
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&qasm_path).ok();
    }

    #[test]
    fn width_mismatch_without_route_is_reported() {
        let dir = std::env::temp_dir().join("invmeas-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let qasm_path = dir.join("narrow.qasm");
        let circuit = qsim::Circuit::basis_state_preparation("11".parse().unwrap());
        std::fs::write(&qasm_path, qsim::qasm::to_qasm(&circuit)).unwrap();
        let e = execute(&Command::Run(RunArgs {
            qasm: qasm_path.to_string_lossy().into_owned(),
            device: "ibmqx2".into(),
            policy: Policy::Baseline,
            shots: 10,
            expected: None,
            profile: None,
            route: false,
            seed: 0,
            threads: None,
        }))
        .unwrap_err()
        .to_string();
        assert!(e.contains("pass --route"), "{e}");
        std::fs::remove_file(&qasm_path).ok();
    }
}

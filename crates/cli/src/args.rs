//! Hand-rolled argument parsing for the `invmeas` CLI.
//!
//! Kept dependency-free (no clap) per the workspace's offline-dependency
//! policy; the grammar is small enough that explicit parsing is clearer
//! than a derive anyway.

use invmeas::CharMethod;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the built-in device models.
    Devices,
    /// Characterize a device's RBMS.
    Characterize(CharacterizeArgs),
    /// Inspect a saved profile.
    ProfileInfo {
        /// Path to the profile file.
        path: String,
    },
    /// Run a QASM program under a policy.
    Run(RunArgs),
    /// Start the long-running mitigation server.
    Serve(ServeArgs),
    /// Submit a QASM program to a running server.
    Submit(SubmitArgs),
    /// Control-plane calls against a running server.
    Svc(SvcArgs),
    /// Print usage.
    Help,
}

/// Which measurement policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Standard measurement.
    Baseline,
    /// Static Invert-and-Measure (four strings).
    Sim,
    /// Adaptive Invert-and-Measure.
    Aim,
}

/// Arguments to `characterize`.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeArgs {
    /// Device name (`ibmqx2`, `ibmqx4`, `ibmq-melbourne`, `ideal-N`).
    pub device: String,
    /// Technique.
    pub method: CharMethod,
    /// Trial budget (meaning depends on the technique).
    pub shots: u64,
    /// Optional output profile path.
    pub out: Option<String>,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for batched sweeps (`None` = all available cores).
    pub threads: Option<usize>,
    /// Optional checkpoint-journal path; a matching journal already there
    /// is resumed.
    pub journal: Option<String>,
    /// Optional `faultplan v1` script for chaos testing the journal path.
    pub fault_plan: Option<String>,
}

/// Arguments to `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Path to the OpenQASM 2.0 program.
    pub qasm: String,
    /// Device name.
    pub device: String,
    /// Policy.
    pub policy: Policy,
    /// Trial budget.
    pub shots: u64,
    /// Expected correct output (enables metrics).
    pub expected: Option<String>,
    /// Pre-measured profile to load for AIM.
    pub profile: Option<String>,
    /// Route the logical circuit onto the device first.
    pub route: bool,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for batched sweeps (`None` = all available cores).
    pub threads: Option<usize>,
}

/// Arguments to `serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address (`HOST:PORT`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size.
    pub workers: usize,
    /// Bounded job-queue capacity.
    pub queue: usize,
    /// Run-queue shards (0 = auto: `min(workers, 8)`).
    pub shards: usize,
    /// Executor threads per job.
    pub exec_threads: usize,
    /// Default characterization budget.
    pub profile_shots: u64,
    /// Characterization RNG seed.
    pub profile_seed: u64,
    /// Per-window calibration-drift amplitude.
    pub drift_amplitude: f64,
    /// Profile-cache drift-score invalidation threshold.
    pub drift_threshold: f64,
    /// Optional profile persistence directory.
    pub profile_dir: Option<String>,
    /// Idle-connection reap timeout in milliseconds (0 disables).
    pub idle_timeout_ms: u64,
    /// Retries after a transient characterization failure.
    pub retry_limit: u32,
    /// Base retry backoff in milliseconds.
    pub retry_backoff_ms: u64,
    /// Consecutive failures that open a device's circuit breaker.
    pub breaker_threshold: u32,
    /// Degraded serves while open before a half-open probe.
    pub breaker_cooldown: u32,
    /// Optional `faultplan v1` script for chaos testing.
    pub fault_plan: Option<String>,
    /// Optional `netfaults v1` script driving the network fault fabric
    /// (partitions, byte drops, latency, slow writes) for chaos testing.
    pub net_faults: Option<String>,
    /// Profile-mesh membership: every node's listen address, identically
    /// ordered on all nodes (empty = single-node, the default).
    pub cluster: Vec<String>,
    /// Followers per device when clustered.
    pub replication: usize,
    /// Heartbeat probe interval in milliseconds when clustered.
    pub heartbeat_ms: u64,
    /// Consecutive missed heartbeats before a peer is declared dead.
    pub heartbeat_miss_limit: u32,
}

/// Arguments to `submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Path to the OpenQASM 2.0 program.
    pub qasm: String,
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// Device name.
    pub device: String,
    /// Policy.
    pub policy: Policy,
    /// Trial budget.
    pub shots: u64,
    /// RNG seed.
    pub seed: u64,
    /// Expected correct output (enables metrics in the response).
    pub expected: Option<String>,
    /// Queue-time budget in milliseconds (expired jobs answer `504`).
    pub deadline_ms: Option<u64>,
}

/// A control-plane operation for `svc`.
#[derive(Debug, Clone, PartialEq)]
pub enum SvcOp {
    /// Queue/cache/counter snapshot.
    Status,
    /// Liveness/degradation probe (exit 0 healthy, 1 degraded,
    /// 2 unreachable).
    Health,
    /// Graceful drain and stop.
    Shutdown,
    /// Set the calibration-window index.
    SetWindow {
        /// The new window index.
        window: u64,
    },
    /// Warm or refresh the profile cache.
    Characterize {
        /// Device name.
        device: String,
        /// Technique.
        method: CharMethod,
        /// Trial budget (0 = server default).
        shots: u64,
    },
    /// Fetch the cluster membership map (and optionally one device's
    /// route) from a mesh node.
    ClusterMap {
        /// Device to route, if any.
        device: Option<String>,
    },
}

/// Arguments to `svc`.
#[derive(Debug, Clone, PartialEq)]
pub struct SvcArgs {
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// The operation.
    pub op: SvcOp,
}

/// Error produced while parsing arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// The usage text.
pub const USAGE: &str = "\
invmeas — Invert-and-Measure command line

USAGE:
  invmeas devices
  invmeas characterize --device <NAME> [--method brute|esct|awct]
                       [--shots N] [--out FILE] [--seed N] [--threads N]
                       [--journal FILE] [--fault-plan FILE]
  invmeas profile-info <FILE>
  invmeas run <FILE.qasm> --device <NAME> [--policy baseline|sim|aim]
              [--shots N] [--expected BITS] [--profile FILE] [--route]
              [--seed N] [--threads N]
  invmeas serve [--addr HOST:PORT] [--workers N] [--queue N] [--shards N]
                [--exec-threads N] [--profile-shots N] [--profile-seed N]
                [--drift-amplitude X] [--drift-threshold X]
                [--profile-dir DIR] [--idle-timeout-ms N]
                [--retry-limit N] [--retry-backoff-ms N]
                [--breaker-threshold N] [--breaker-cooldown N]
                [--fault-plan FILE] [--net-faults FILE]
                [--cluster ADDR,ADDR,...] [--replication N]
                [--heartbeat-ms N] [--heartbeat-miss-limit N]
  invmeas submit <FILE.qasm> --device <NAME> [--addr HOST:PORT[,HOST:PORT...]]
                 [--policy baseline|sim|aim] [--shots N] [--seed N]
                 [--expected BITS] [--deadline-ms N]
  invmeas svc status|shutdown|health [--addr HOST:PORT]
  invmeas svc set-window <N> [--addr HOST:PORT]
  invmeas svc characterize --device <NAME> [--addr HOST:PORT]
                           [--method brute|esct|awct] [--shots N]
  invmeas svc cluster-map [--device <NAME>] [--addr HOST:PORT]

DEVICES: ibmqx2, ibmqx4, ibmq-melbourne, ideal-N (e.g. ideal-5)

--threads controls the worker pool for batched circuit sweeps
(brute-force state batches, SIM groups, AIM targeted runs); the default
uses every available core. Results are identical for any value.

serve runs the mitigation service (newline-delimited JSON over TCP) and
prints `listening on HOST:PORT` once the socket is bound; submit and svc
talk to it (default --addr 127.0.0.1:7878). Exit codes: 2 for usage
errors, 1 for runtime failures.

--fault-plan loads a `faultplan v1` script that injects deterministic
faults (errors, latency, panics, torn writes) for chaos testing; see
DESIGN.md §12. --net-faults loads a `netfaults v1` script that drives
the network fault fabric (connect refusals, partitions, byte drops,
latency, slow writes, truncated and duplicated frames) deterministically
by arrival count; see DESIGN.md §17. `svc health` exits 0 when healthy,
1 when degraded (open circuit breakers or draining), 2 when the server
is unreachable.

characterize --journal writes a checkpoint after every completed work
unit; rerunning the same command resumes an interrupted run from that
journal. The profile is bit-identical to an uninterrupted run, and to a
run without --journal. See DESIGN.md §13.

serve --cluster joins a profile mesh: pass the *same* comma-separated
member list to every node (this node's --addr must appear in it) and a
--profile-dir. Devices hash to an owning node; finished profiles and
characterization journals replicate to --replication followers, and a
follower promotes when the owner dies. submit/--addr accepts a
comma-separated seed list and rotates through it on connection failure;
`svc cluster-map` shows membership, liveness, and a device's route.
See DESIGN.md §16.
";

/// The default service address shared by `serve`, `submit`, and `svc`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns an [`ArgError`] describing the first problem encountered.
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("-h") | Some("--help") => Ok(Command::Help),
        Some("devices") => {
            if it.next().is_some() {
                return Err(err("devices takes no arguments"));
            }
            Ok(Command::Devices)
        }
        Some("profile-info") => {
            let path = it.next().ok_or_else(|| err("profile-info needs a file"))?;
            if it.next().is_some() {
                return Err(err("profile-info takes one argument"));
            }
            Ok(Command::ProfileInfo {
                path: path.to_string(),
            })
        }
        Some("characterize") => parse_characterize(&args[1..]),
        Some("run") => parse_run(&args[1..]),
        Some("serve") => parse_serve(&args[1..]),
        Some("submit") => parse_submit(&args[1..]),
        Some("svc") => parse_svc(&args[1..]),
        Some(other) => Err(err(format!("unknown command {other:?}"))),
    }
}

fn parse_u64(flag: &str, value: Option<&str>) -> Result<u64, ArgError> {
    value
        .ok_or_else(|| err(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| err(format!("{flag} needs an integer")))
}

fn parse_threads(value: Option<&str>) -> Result<usize, ArgError> {
    let n: usize = value
        .ok_or_else(|| err("--threads needs a value"))?
        .parse()
        .map_err(|_| err("--threads needs an integer"))?;
    if n == 0 {
        return Err(err("--threads must be at least 1"));
    }
    Ok(n)
}

fn parse_method(value: Option<&str>) -> Result<CharMethod, ArgError> {
    value
        .and_then(CharMethod::parse)
        .ok_or_else(|| err(format!("bad --method {value:?}")))
}

fn parse_characterize(args: &[String]) -> Result<Command, ArgError> {
    let mut out = CharacterizeArgs {
        device: String::new(),
        method: CharMethod::Brute,
        shots: 8192,
        out: None,
        seed: 2019,
        threads: None,
        journal: None,
        fault_plan: None,
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        match flag {
            "--device" => {
                out.device = it
                    .next()
                    .ok_or_else(|| err("--device needs a name"))?
                    .to_string()
            }
            "--method" => out.method = parse_method(it.next())?,
            "--shots" => out.shots = parse_u64("--shots", it.next())?,
            "--seed" => out.seed = parse_u64("--seed", it.next())?,
            "--threads" => out.threads = Some(parse_threads(it.next())?),
            "--out" => {
                out.out = Some(
                    it.next()
                        .ok_or_else(|| err("--out needs a path"))?
                        .to_string(),
                )
            }
            "--journal" => {
                out.journal = Some(
                    it.next()
                        .ok_or_else(|| err("--journal needs a path"))?
                        .to_string(),
                )
            }
            "--fault-plan" => {
                out.fault_plan = Some(
                    it.next()
                        .ok_or_else(|| err("--fault-plan needs a path"))?
                        .to_string(),
                )
            }
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    if out.device.is_empty() {
        return Err(err("characterize requires --device"));
    }
    Ok(Command::Characterize(out))
}

fn parse_run(args: &[String]) -> Result<Command, ArgError> {
    let mut qasm: Option<String> = None;
    let mut out = RunArgs {
        qasm: String::new(),
        device: String::new(),
        policy: Policy::Baseline,
        shots: 8192,
        expected: None,
        profile: None,
        route: false,
        seed: 2019,
        threads: None,
    };
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(tok) = it.next() {
        match tok {
            "--device" => {
                out.device = it
                    .next()
                    .ok_or_else(|| err("--device needs a name"))?
                    .to_string()
            }
            "--policy" => {
                out.policy = match it.next() {
                    Some("baseline") => Policy::Baseline,
                    Some("sim") => Policy::Sim,
                    Some("aim") => Policy::Aim,
                    other => return Err(err(format!("bad --policy {other:?}"))),
                }
            }
            "--shots" => out.shots = parse_u64("--shots", it.next())?,
            "--seed" => out.seed = parse_u64("--seed", it.next())?,
            "--threads" => out.threads = Some(parse_threads(it.next())?),
            "--expected" => {
                out.expected = Some(
                    it.next()
                        .ok_or_else(|| err("--expected needs a bit string"))?
                        .to_string(),
                )
            }
            "--profile" => {
                out.profile = Some(
                    it.next()
                        .ok_or_else(|| err("--profile needs a path"))?
                        .to_string(),
                )
            }
            "--route" => out.route = true,
            flag if flag.starts_with("--") => return Err(err(format!("unknown flag {flag:?}"))),
            positional => {
                if qasm.is_some() {
                    return Err(err(format!("unexpected argument {positional:?}")));
                }
                qasm = Some(positional.to_string());
            }
        }
    }
    out.qasm = qasm.ok_or_else(|| err("run requires a QASM file"))?;
    if out.device.is_empty() {
        return Err(err("run requires --device"));
    }
    Ok(Command::Run(out))
}

fn parse_usize(flag: &str, value: Option<&str>) -> Result<usize, ArgError> {
    let n: usize = value
        .ok_or_else(|| err(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| err(format!("{flag} needs an integer")))?;
    if n == 0 {
        return Err(err(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

fn parse_u32(flag: &str, value: Option<&str>) -> Result<u32, ArgError> {
    value
        .ok_or_else(|| err(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| err(format!("{flag} needs an integer")))
}

fn parse_f64(flag: &str, value: Option<&str>) -> Result<f64, ArgError> {
    let x: f64 = value
        .ok_or_else(|| err(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| err(format!("{flag} needs a number")))?;
    if !x.is_finite() || x < 0.0 {
        return Err(err(format!("{flag} must be a non-negative number")));
    }
    Ok(x)
}

fn parse_serve(args: &[String]) -> Result<Command, ArgError> {
    let mut out = ServeArgs {
        addr: DEFAULT_ADDR.to_string(),
        workers: 2,
        queue: 32,
        shards: 0,
        exec_threads: 1,
        profile_shots: 2048,
        profile_seed: 2019,
        drift_amplitude: 0.05,
        drift_threshold: 0.0,
        profile_dir: None,
        idle_timeout_ms: 30_000,
        retry_limit: 2,
        retry_backoff_ms: 25,
        breaker_threshold: 3,
        breaker_cooldown: 4,
        fault_plan: None,
        net_faults: None,
        cluster: Vec::new(),
        replication: 1,
        heartbeat_ms: 1000,
        heartbeat_miss_limit: 3,
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        match flag {
            "--addr" => {
                out.addr = it
                    .next()
                    .ok_or_else(|| err("--addr needs HOST:PORT"))?
                    .to_string()
            }
            "--workers" => out.workers = parse_usize("--workers", it.next())?,
            "--queue" => out.queue = parse_usize("--queue", it.next())?,
            "--shards" => out.shards = parse_usize("--shards", it.next())?,
            "--exec-threads" => out.exec_threads = parse_usize("--exec-threads", it.next())?,
            "--profile-shots" => out.profile_shots = parse_u64("--profile-shots", it.next())?,
            "--profile-seed" => out.profile_seed = parse_u64("--profile-seed", it.next())?,
            "--drift-amplitude" => out.drift_amplitude = parse_f64("--drift-amplitude", it.next())?,
            "--drift-threshold" => out.drift_threshold = parse_f64("--drift-threshold", it.next())?,
            "--profile-dir" => {
                out.profile_dir = Some(
                    it.next()
                        .ok_or_else(|| err("--profile-dir needs a path"))?
                        .to_string(),
                )
            }
            "--idle-timeout-ms" => out.idle_timeout_ms = parse_u64("--idle-timeout-ms", it.next())?,
            "--retry-limit" => out.retry_limit = parse_u32("--retry-limit", it.next())?,
            "--retry-backoff-ms" => {
                out.retry_backoff_ms = parse_u64("--retry-backoff-ms", it.next())?
            }
            "--breaker-threshold" => {
                out.breaker_threshold = parse_u32("--breaker-threshold", it.next())?;
                if out.breaker_threshold == 0 {
                    return Err(err("--breaker-threshold must be at least 1"));
                }
            }
            "--breaker-cooldown" => {
                out.breaker_cooldown = parse_u32("--breaker-cooldown", it.next())?;
                if out.breaker_cooldown == 0 {
                    return Err(err("--breaker-cooldown must be at least 1"));
                }
            }
            "--fault-plan" => {
                out.fault_plan = Some(
                    it.next()
                        .ok_or_else(|| err("--fault-plan needs a path"))?
                        .to_string(),
                )
            }
            "--net-faults" => {
                out.net_faults = Some(
                    it.next()
                        .ok_or_else(|| err("--net-faults needs a path"))?
                        .to_string(),
                )
            }
            "--cluster" => {
                let list = it
                    .next()
                    .ok_or_else(|| err("--cluster needs a comma-separated member list"))?;
                out.cluster = list
                    .split(',')
                    .map(str::trim)
                    .filter(|m| !m.is_empty())
                    .map(str::to_string)
                    .collect();
                if out.cluster.len() < 2 {
                    return Err(err("--cluster needs at least 2 members"));
                }
            }
            "--replication" => out.replication = parse_usize("--replication", it.next())?,
            "--heartbeat-ms" => {
                out.heartbeat_ms = parse_u64("--heartbeat-ms", it.next())?;
                if out.heartbeat_ms == 0 {
                    return Err(err("--heartbeat-ms must be at least 1"));
                }
            }
            "--heartbeat-miss-limit" => {
                out.heartbeat_miss_limit = parse_u32("--heartbeat-miss-limit", it.next())?;
                if out.heartbeat_miss_limit == 0 {
                    return Err(err("--heartbeat-miss-limit must be at least 1"));
                }
            }
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    Ok(Command::Serve(out))
}

fn parse_submit(args: &[String]) -> Result<Command, ArgError> {
    let mut qasm: Option<String> = None;
    let mut out = SubmitArgs {
        qasm: String::new(),
        addr: DEFAULT_ADDR.to_string(),
        device: String::new(),
        policy: Policy::Baseline,
        shots: 4096,
        seed: 2019,
        expected: None,
        deadline_ms: None,
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(tok) = it.next() {
        match tok {
            "--addr" => {
                out.addr = it
                    .next()
                    .ok_or_else(|| err("--addr needs HOST:PORT"))?
                    .to_string()
            }
            "--device" => {
                out.device = it
                    .next()
                    .ok_or_else(|| err("--device needs a name"))?
                    .to_string()
            }
            "--policy" => {
                out.policy = match it.next() {
                    Some("baseline") => Policy::Baseline,
                    Some("sim") => Policy::Sim,
                    Some("aim") => Policy::Aim,
                    other => return Err(err(format!("bad --policy {other:?}"))),
                }
            }
            "--shots" => out.shots = parse_u64("--shots", it.next())?,
            "--seed" => out.seed = parse_u64("--seed", it.next())?,
            "--expected" => {
                out.expected = Some(
                    it.next()
                        .ok_or_else(|| err("--expected needs a bit string"))?
                        .to_string(),
                )
            }
            "--deadline-ms" => out.deadline_ms = Some(parse_u64("--deadline-ms", it.next())?),
            flag if flag.starts_with("--") => return Err(err(format!("unknown flag {flag:?}"))),
            positional => {
                if qasm.is_some() {
                    return Err(err(format!("unexpected argument {positional:?}")));
                }
                qasm = Some(positional.to_string());
            }
        }
    }
    out.qasm = qasm.ok_or_else(|| err("submit requires a QASM file"))?;
    if out.device.is_empty() {
        return Err(err("submit requires --device"));
    }
    Ok(Command::Submit(out))
}

fn parse_svc(args: &[String]) -> Result<Command, ArgError> {
    let mut it = args.iter().map(String::as_str);
    let op_name = it.next().ok_or_else(|| {
        err("svc needs an operation: status, health, shutdown, set-window, characterize, cluster-map")
    })?;
    let mut addr = DEFAULT_ADDR.to_string();
    let op = match op_name {
        "status" | "shutdown" | "health" => {
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| err("--addr needs HOST:PORT"))?
                            .to_string()
                    }
                    other => return Err(err(format!("unknown flag {other:?}"))),
                }
            }
            match op_name {
                "status" => SvcOp::Status,
                "health" => SvcOp::Health,
                _ => SvcOp::Shutdown,
            }
        }
        "set-window" => {
            let window = parse_u64("set-window", it.next())?;
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| err("--addr needs HOST:PORT"))?
                            .to_string()
                    }
                    other => return Err(err(format!("unknown flag {other:?}"))),
                }
            }
            SvcOp::SetWindow { window }
        }
        "characterize" => {
            let mut device = String::new();
            let mut method = CharMethod::Brute;
            let mut shots = 0u64;
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| err("--addr needs HOST:PORT"))?
                            .to_string()
                    }
                    "--device" => {
                        device = it
                            .next()
                            .ok_or_else(|| err("--device needs a name"))?
                            .to_string()
                    }
                    "--method" => method = parse_method(it.next())?,
                    "--shots" => shots = parse_u64("--shots", it.next())?,
                    other => return Err(err(format!("unknown flag {other:?}"))),
                }
            }
            if device.is_empty() {
                return Err(err("svc characterize requires --device"));
            }
            SvcOp::Characterize {
                device,
                method,
                shots,
            }
        }
        "cluster-map" => {
            let mut device = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| err("--addr needs HOST:PORT"))?
                            .to_string()
                    }
                    "--device" => {
                        device = Some(
                            it.next()
                                .ok_or_else(|| err("--device needs a name"))?
                                .to_string(),
                        )
                    }
                    other => return Err(err(format!("unknown flag {other:?}"))),
                }
            }
            SvcOp::ClusterMap { device }
        }
        other => return Err(err(format!("unknown svc operation {other:?}"))),
    };
    Ok(Command::Svc(SvcArgs { addr, op }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_help_and_devices() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("devices")).unwrap(), Command::Devices);
        assert!(parse(&argv("devices extra")).is_err());
    }

    #[test]
    fn parses_characterize() {
        let cmd = parse(&argv(
            "characterize --device ibmqx4 --method awct --shots 1000 --out p.rbms --seed 7 \
             --threads 3 --journal p.journal --fault-plan chaos.plan",
        ))
        .unwrap();
        match cmd {
            Command::Characterize(a) => {
                assert_eq!(a.device, "ibmqx4");
                assert_eq!(a.method, CharMethod::Awct);
                assert_eq!(a.shots, 1000);
                assert_eq!(a.out.as_deref(), Some("p.rbms"));
                assert_eq!(a.seed, 7);
                assert_eq!(a.threads, Some(3));
                assert_eq!(a.journal.as_deref(), Some("p.journal"));
                assert_eq!(a.fault_plan.as_deref(), Some("chaos.plan"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn characterize_defaults() {
        let cmd = parse(&argv("characterize --device ibmqx2")).unwrap();
        match cmd {
            Command::Characterize(a) => {
                assert_eq!(a.method, CharMethod::Brute);
                assert_eq!(a.shots, 8192);
                assert_eq!(a.out, None);
                assert_eq!(a.threads, None);
                assert_eq!(a.journal, None);
                assert_eq!(a.fault_plan, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_run_with_everything() {
        let cmd = parse(&argv(
            "run prog.qasm --device ibmq-melbourne --policy aim --shots 500 \
             --expected 10110 --profile p.rbms --route --threads 8",
        ))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.qasm, "prog.qasm");
                assert_eq!(a.policy, Policy::Aim);
                assert!(a.route);
                assert_eq!(a.expected.as_deref(), Some("10110"));
                assert_eq!(a.threads, Some(8));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn run_threads_default_is_auto() {
        let cmd = parse(&argv("run prog.qasm --device ibmqx2")).unwrap();
        match cmd {
            Command::Run(a) => assert_eq!(a.threads, None),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        match parse(&argv("serve")).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.addr, DEFAULT_ADDR);
                assert_eq!(a.workers, 2);
                assert_eq!(a.queue, 32);
                assert_eq!(a.shards, 0, "shard count defaults to auto");
                assert_eq!(a.profile_shots, 2048);
                assert_eq!(a.profile_dir, None);
                assert_eq!(a.idle_timeout_ms, 30_000);
                assert_eq!(a.retry_limit, 2);
                assert_eq!(a.retry_backoff_ms, 25);
                assert_eq!(a.breaker_threshold, 3);
                assert_eq!(a.breaker_cooldown, 4);
                assert_eq!(a.fault_plan, None);
                assert_eq!(a.net_faults, None);
                assert!(a.cluster.is_empty(), "single-node is the default");
                assert_eq!(a.replication, 1);
                assert_eq!(a.heartbeat_ms, 1000);
                assert_eq!(a.heartbeat_miss_limit, 3);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv(
            "serve --addr 127.0.0.1:0 --workers 4 --queue 8 \
             --shards 3 --exec-threads 2 \
             --profile-shots 512 --profile-seed 9 --drift-amplitude 0.1 \
             --drift-threshold 0.02 --profile-dir cache --idle-timeout-ms 500 \
             --retry-limit 1 --retry-backoff-ms 0 --breaker-threshold 2 \
             --breaker-cooldown 3 --fault-plan chaos.plan --net-faults net.plan",
        ))
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.addr, "127.0.0.1:0");
                assert_eq!(a.workers, 4);
                assert_eq!(a.queue, 8);
                assert_eq!(a.shards, 3);
                assert_eq!(a.exec_threads, 2);
                assert_eq!(a.profile_shots, 512);
                assert_eq!(a.profile_seed, 9);
                assert_eq!(a.drift_amplitude, 0.1);
                assert_eq!(a.drift_threshold, 0.02);
                assert_eq!(a.profile_dir.as_deref(), Some("cache"));
                assert_eq!(a.idle_timeout_ms, 500);
                assert_eq!(a.retry_limit, 1);
                assert_eq!(a.retry_backoff_ms, 0);
                assert_eq!(a.breaker_threshold, 2);
                assert_eq!(a.breaker_cooldown, 3);
                assert_eq!(a.fault_plan.as_deref(), Some("chaos.plan"));
                assert_eq!(a.net_faults.as_deref(), Some("net.plan"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_serve_cluster_flags() {
        match parse(&argv(
            "serve --addr 127.0.0.1:7001 --profile-dir cache \
             --cluster 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
             --replication 2 --heartbeat-ms 100 --heartbeat-miss-limit 2",
        ))
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(
                    a.cluster,
                    vec!["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]
                );
                assert_eq!(a.replication, 2);
                assert_eq!(a.heartbeat_ms, 100);
                assert_eq!(a.heartbeat_miss_limit, 2);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_submit() {
        match parse(&argv(
            "submit prog.qasm --device ibmqx4 --addr 127.0.0.1:9999 --policy aim \
             --shots 1000 --seed 3 --expected 11111 --deadline-ms 250",
        ))
        .unwrap()
        {
            Command::Submit(a) => {
                assert_eq!(a.qasm, "prog.qasm");
                assert_eq!(a.device, "ibmqx4");
                assert_eq!(a.addr, "127.0.0.1:9999");
                assert_eq!(a.policy, Policy::Aim);
                assert_eq!(a.shots, 1000);
                assert_eq!(a.seed, 3);
                assert_eq!(a.expected.as_deref(), Some("11111"));
                assert_eq!(a.deadline_ms, Some(250));
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("submit p.qasm --device ibmqx2")).unwrap() {
            Command::Submit(a) => {
                assert_eq!(a.addr, DEFAULT_ADDR);
                assert_eq!(a.policy, Policy::Baseline);
                assert_eq!(a.shots, 4096);
                assert_eq!(a.deadline_ms, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_svc_operations() {
        match parse(&argv("svc status")).unwrap() {
            Command::Svc(a) => {
                assert_eq!(a.addr, DEFAULT_ADDR);
                assert_eq!(a.op, SvcOp::Status);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("svc shutdown --addr 127.0.0.1:1234")).unwrap() {
            Command::Svc(a) => {
                assert_eq!(a.addr, "127.0.0.1:1234");
                assert_eq!(a.op, SvcOp::Shutdown);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("svc health --addr 127.0.0.1:1234")).unwrap() {
            Command::Svc(a) => {
                assert_eq!(a.addr, "127.0.0.1:1234");
                assert_eq!(a.op, SvcOp::Health);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("svc set-window 3")).unwrap() {
            Command::Svc(a) => assert_eq!(a.op, SvcOp::SetWindow { window: 3 }),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv(
            "svc characterize --device ibmqx4 --method awct --shots 256",
        ))
        .unwrap()
        {
            Command::Svc(a) => assert_eq!(
                a.op,
                SvcOp::Characterize {
                    device: "ibmqx4".into(),
                    method: CharMethod::Awct,
                    shots: 256,
                }
            ),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("svc cluster-map")).unwrap() {
            Command::Svc(a) => {
                assert_eq!(a.addr, DEFAULT_ADDR);
                assert_eq!(a.op, SvcOp::ClusterMap { device: None });
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv(
            "svc cluster-map --device ibmqx4 --addr 127.0.0.1:7002",
        ))
        .unwrap()
        {
            Command::Svc(a) => {
                assert_eq!(a.addr, "127.0.0.1:7002");
                assert_eq!(
                    a.op,
                    SvcOp::ClusterMap {
                        device: Some("ibmqx4".into())
                    }
                );
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn service_error_messages_are_specific() {
        let cases = [
            ("serve --workers 0", "--workers must be at least 1"),
            ("serve --drift-amplitude -1", "non-negative"),
            ("serve --bogus", "unknown flag"),
            (
                "serve --breaker-threshold 0",
                "--breaker-threshold must be at least 1",
            ),
            ("serve --retry-limit no", "--retry-limit needs an integer"),
            ("serve --fault-plan", "--fault-plan needs a path"),
            ("serve --net-faults", "--net-faults needs a path"),
            (
                "submit p.qasm --device x --deadline-ms no",
                "--deadline-ms needs an integer",
            ),
            ("submit --device x", "requires a QASM file"),
            ("submit p.qasm", "requires --device"),
            ("svc", "needs an operation"),
            ("svc reboot", "unknown svc operation"),
            ("svc set-window", "set-window needs a value"),
            ("svc set-window nope", "set-window needs an integer"),
            ("svc characterize", "requires --device"),
            ("svc characterize --device x --method nope", "bad --method"),
            ("svc cluster-map --device", "--device needs a name"),
            ("svc cluster-map --bogus", "unknown flag"),
            (
                "serve --cluster",
                "--cluster needs a comma-separated member list",
            ),
            (
                "serve --cluster 127.0.0.1:7001",
                "--cluster needs at least 2 members",
            ),
            ("serve --replication 0", "--replication must be at least 1"),
            (
                "serve --heartbeat-ms 0",
                "--heartbeat-ms must be at least 1",
            ),
            (
                "serve --heartbeat-miss-limit 0",
                "--heartbeat-miss-limit must be at least 1",
            ),
        ];
        for (input, expect) in cases {
            let e = parse(&argv(input)).unwrap_err().to_string();
            assert!(e.contains(expect), "{input:?}: {e}");
        }
    }

    #[test]
    fn error_messages_are_specific() {
        let cases = [
            ("characterize", "requires --device"),
            ("characterize --device", "--device needs a name"),
            (
                "characterize --device x --shots abc",
                "--shots needs an integer",
            ),
            ("characterize --device x --method nope", "bad --method"),
            (
                "characterize --device x --threads 0",
                "--threads must be at least 1",
            ),
            (
                "characterize --device x --threads no",
                "--threads needs an integer",
            ),
            (
                "characterize --device x --journal",
                "--journal needs a path",
            ),
            ("characterize --device x --resume", "unknown flag"),
            (
                "characterize --device x --fault-plan",
                "--fault-plan needs a path",
            ),
            ("run --device x", "requires a QASM file"),
            ("run a.qasm b.qasm --device x", "unexpected argument"),
            ("run a.qasm --device x --policy nope", "bad --policy"),
            (
                "run a.qasm --device x --threads 0",
                "--threads must be at least 1",
            ),
            ("nonsense", "unknown command"),
        ];
        for (input, expect) in cases {
            let e = parse(&argv(input)).unwrap_err().to_string();
            assert!(e.contains(expect), "{input:?}: {e}");
        }
    }
}

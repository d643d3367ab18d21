//! Hand-rolled argument parsing for the `invmeas` CLI.
//!
//! Kept dependency-free (no clap) per the workspace's offline-dependency
//! policy; the grammar is small enough that explicit parsing is clearer
//! than a derive anyway.

use invmeas::{CharMethod, PolicyChoice};
use invmeas_service::{ClusterConfig, ServerConfig};
use std::fmt;
use std::str::FromStr;

/// A parsed CLI invocation.
#[derive(Debug, Clone)]
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
    Serve {
        /// The server configuration with every flag applied. A
        /// `--cluster` member list is checked against `addr` when the
        /// server starts.
        config: ServerConfig,
        /// Optional `faultplan v1` script for chaos testing.
        fault_plan: Option<String>,
        /// Optional `netfaults v1` script driving the network fault
        /// fabric (partitions, byte drops, latency, slow writes) for chaos
        /// testing.
        net_faults: Option<String>,
    },
    /// Submit a QASM program to a running server.
    Submit(SubmitArgs),
    /// Control-plane calls against a running server.
    Svc(SvcArgs),
    /// Print usage.
    Help,
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
    pub policy: PolicyChoice,
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
    pub policy: PolicyChoice,
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
  invmeas serve [--addr HOST:PORT] [--workers N] [--queue N]
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

/// The argument after `flag`; `what` names the missing value in the error.
fn value<'a>(
    it: &mut dyn Iterator<Item = &'a str>,
    flag: &str,
    what: &str,
) -> Result<&'a str, ArgError> {
    it.next().ok_or_else(|| err(format!("{flag} needs {what}")))
}

fn int<T: FromStr>(it: &mut dyn Iterator<Item = &str>, flag: &str) -> Result<T, ArgError> {
    value(it, flag, "a value")?
        .parse()
        .map_err(|_| err(format!("{flag} needs an integer")))
}

/// An integer of at least 1.
fn positive<T: FromStr + Default + PartialEq>(
    it: &mut dyn Iterator<Item = &str>,
    flag: &str,
) -> Result<T, ArgError> {
    let n = int(it, flag)?;
    if n == T::default() {
        return Err(err(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

fn non_negative(it: &mut dyn Iterator<Item = &str>, flag: &str) -> Result<f64, ArgError> {
    let x: f64 = value(it, flag, "a value")?
        .parse()
        .map_err(|_| err(format!("{flag} needs a number")))?;
    if !x.is_finite() || x < 0.0 {
        return Err(err(format!("{flag} must be a non-negative number")));
    }
    Ok(x)
}

fn method(it: &mut dyn Iterator<Item = &str>) -> Result<CharMethod, ArgError> {
    let v = value(it, "--method", "a value")?;
    CharMethod::parse(v).ok_or_else(|| err(format!("bad --method {v:?}")))
}

fn policy(it: &mut dyn Iterator<Item = &str>) -> Result<PolicyChoice, ArgError> {
    let v = value(it, "--policy", "a value")?;
    PolicyChoice::parse(v).ok_or_else(|| err(format!("bad --policy {v:?}")))
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
            "--device" => out.device = value(&mut it, flag, "a name")?.into(),
            "--method" => out.method = method(&mut it)?,
            "--shots" => out.shots = int(&mut it, flag)?,
            "--seed" => out.seed = int(&mut it, flag)?,
            "--threads" => out.threads = Some(positive(&mut it, flag)?),
            "--out" => out.out = Some(value(&mut it, flag, "a path")?.into()),
            "--journal" => out.journal = Some(value(&mut it, flag, "a path")?.into()),
            "--fault-plan" => out.fault_plan = Some(value(&mut it, flag, "a path")?.into()),
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
        policy: PolicyChoice::Baseline,
        shots: 8192,
        expected: None,
        profile: None,
        route: false,
        seed: 2019,
        threads: None,
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(tok) = it.next() {
        match tok {
            "--device" => out.device = value(&mut it, tok, "a name")?.into(),
            "--policy" => out.policy = policy(&mut it)?,
            "--shots" => out.shots = int(&mut it, tok)?,
            "--seed" => out.seed = int(&mut it, tok)?,
            "--threads" => out.threads = Some(positive(&mut it, tok)?),
            "--expected" => out.expected = Some(value(&mut it, tok, "a bit string")?.into()),
            "--profile" => out.profile = Some(value(&mut it, tok, "a path")?.into()),
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

fn parse_serve(args: &[String]) -> Result<Command, ArgError> {
    // Every flag writes into the server's own configuration, so a flag
    // not given keeps the server's default; only the port differs.
    let mut config = ServerConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..ServerConfig::default()
    };
    let mut cluster = ClusterConfig {
        members: Vec::new(),
        self_index: 0,
        replication: ClusterConfig::DEFAULT_REPLICATION,
        heartbeat_ms: ClusterConfig::DEFAULT_HEARTBEAT_MS,
        heartbeat_miss_limit: ClusterConfig::DEFAULT_HEARTBEAT_MISS_LIMIT,
    };
    let (mut fault_plan, mut net_faults) = (None, None);
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag {
            "--addr" => config.addr = value(it, flag, "HOST:PORT")?.into(),
            "--workers" => config.workers = positive(it, flag)?,
            "--queue" => config.queue_capacity = positive(it, flag)?,
            "--exec-threads" => config.exec_threads = positive(it, flag)?,
            "--profile-shots" => config.profile_shots = int(it, flag)?,
            "--profile-seed" => config.profile_seed = int(it, flag)?,
            "--drift-amplitude" => config.drift_amplitude = non_negative(it, flag)?,
            "--drift-threshold" => config.drift_threshold = non_negative(it, flag)?,
            "--profile-dir" => config.profile_dir = Some(value(it, flag, "a path")?.into()),
            "--idle-timeout-ms" => config.idle_timeout_ms = int(it, flag)?,
            "--retry-limit" => config.retry_limit = int(it, flag)?,
            "--retry-backoff-ms" => config.retry_backoff_ms = int(it, flag)?,
            "--breaker-threshold" => config.breaker_failure_threshold = positive(it, flag)?,
            "--breaker-cooldown" => config.breaker_cooldown = positive(it, flag)?,
            "--fault-plan" => fault_plan = Some(value(it, flag, "a path")?.into()),
            "--net-faults" => net_faults = Some(value(it, flag, "a path")?.into()),
            "--cluster" => {
                cluster.members = value(it, flag, "a comma-separated member list")?
                    .split(',')
                    .map(str::trim)
                    .filter(|m| !m.is_empty())
                    .map(str::to_string)
                    .collect();
                if cluster.members.len() < 2 {
                    return Err(err("--cluster needs at least 2 members"));
                }
            }
            "--replication" => cluster.replication = positive(it, flag)?,
            "--heartbeat-ms" => cluster.heartbeat_ms = positive(it, flag)?,
            "--heartbeat-miss-limit" => cluster.heartbeat_miss_limit = positive(it, flag)?,
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    config.cluster = (!cluster.members.is_empty()).then_some(cluster);
    Ok(Command::Serve {
        config,
        fault_plan,
        net_faults,
    })
}

fn parse_submit(args: &[String]) -> Result<Command, ArgError> {
    let mut qasm: Option<String> = None;
    let mut out = SubmitArgs {
        qasm: String::new(),
        addr: DEFAULT_ADDR.to_string(),
        device: String::new(),
        policy: PolicyChoice::Baseline,
        shots: 4096,
        seed: 2019,
        expected: None,
        deadline_ms: None,
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(tok) = it.next() {
        match tok {
            "--addr" => out.addr = value(&mut it, tok, "HOST:PORT")?.into(),
            "--device" => out.device = value(&mut it, tok, "a name")?.into(),
            "--policy" => out.policy = policy(&mut it)?,
            "--shots" => out.shots = int(&mut it, tok)?,
            "--seed" => out.seed = int(&mut it, tok)?,
            "--expected" => out.expected = Some(value(&mut it, tok, "a bit string")?.into()),
            "--deadline-ms" => out.deadline_ms = Some(int(&mut it, tok)?),
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
    let mut op = match op_name {
        "status" => SvcOp::Status,
        "health" => SvcOp::Health,
        "shutdown" => SvcOp::Shutdown,
        "set-window" => SvcOp::SetWindow {
            window: int(&mut it, "set-window")?,
        },
        "characterize" => SvcOp::Characterize {
            device: String::new(),
            method: CharMethod::Brute,
            shots: 0,
        },
        "cluster-map" => SvcOp::ClusterMap { device: None },
        other => return Err(err(format!("unknown svc operation {other:?}"))),
    };
    let mut addr = DEFAULT_ADDR.to_string();
    while let Some(flag) = it.next() {
        let it = &mut it;
        match (&mut op, flag) {
            (_, "--addr") => addr = value(it, flag, "HOST:PORT")?.into(),
            (SvcOp::Characterize { device, .. }, "--device") => {
                *device = value(it, flag, "a name")?.into();
            }
            (SvcOp::Characterize { method: m, .. }, "--method") => *m = method(it)?,
            (SvcOp::Characterize { shots, .. }, "--shots") => *shots = int(it, flag)?,
            (SvcOp::ClusterMap { device }, "--device") => {
                *device = Some(value(it, flag, "a name")?.into());
            }
            (_, other) => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    if matches!(&op, SvcOp::Characterize { device, .. } if device.is_empty()) {
        return Err(err("svc characterize requires --device"));
    }
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
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("--help")).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("devices")).unwrap(), Command::Devices));
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
                assert_eq!(a.policy, PolicyChoice::Aim);
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

    /// The `config` a `serve` command line parses to.
    fn serve_config(line: &str) -> ServerConfig {
        match parse(&argv(line)).unwrap() {
            Command::Serve { config, .. } => config,
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let Command::Serve {
            config: a,
            fault_plan,
            net_faults,
        } = parse(&argv("serve")).unwrap()
        else {
            panic!("serve must parse");
        };
        assert_eq!(a.addr, DEFAULT_ADDR);
        assert_eq!(a.workers, 2);
        assert_eq!(a.queue_capacity, 32);
        assert_eq!(a.profile_shots, 2048);
        assert_eq!(a.profile_dir, None);
        assert_eq!(a.idle_timeout_ms, 30_000);
        assert_eq!(a.retry_limit, 2);
        assert_eq!(a.retry_backoff_ms, 25);
        assert_eq!(a.breaker_failure_threshold, 3);
        assert_eq!(a.breaker_cooldown, 4);
        assert_eq!(fault_plan, None);
        assert_eq!(net_faults, None);
        assert!(a.cluster.is_none(), "single-node is the default");

        let Command::Serve {
            config: a,
            fault_plan,
            net_faults,
        } = parse(&argv(
            "serve --addr 127.0.0.1:0 --workers 4 --queue 8 \
             --exec-threads 2 \
             --profile-shots 512 --profile-seed 9 --drift-amplitude 0.1 \
             --drift-threshold 0.02 --profile-dir cache --idle-timeout-ms 500 \
             --retry-limit 1 --retry-backoff-ms 0 --breaker-threshold 2 \
             --breaker-cooldown 3 --fault-plan chaos.plan --net-faults net.plan",
        ))
        .unwrap()
        else {
            panic!("serve must parse");
        };
        assert_eq!(a.addr, "127.0.0.1:0");
        assert_eq!(a.workers, 4);
        assert_eq!(a.queue_capacity, 8);
        assert_eq!(a.exec_threads, 2);
        assert_eq!(a.profile_shots, 512);
        assert_eq!(a.profile_seed, 9);
        assert_eq!(a.drift_amplitude, 0.1);
        assert_eq!(a.drift_threshold, 0.02);
        assert_eq!(a.profile_dir, Some("cache".into()));
        assert_eq!(a.idle_timeout_ms, 500);
        assert_eq!(a.retry_limit, 1);
        assert_eq!(a.retry_backoff_ms, 0);
        assert_eq!(a.breaker_failure_threshold, 2);
        assert_eq!(a.breaker_cooldown, 3);
        assert_eq!(fault_plan.as_deref(), Some("chaos.plan"));
        assert_eq!(net_faults.as_deref(), Some("net.plan"));
    }

    #[test]
    fn bare_serve_maps_to_the_default_server_config() {
        let mut got = crate::server_config(&serve_config("serve"), None, None).unwrap();
        assert_eq!(got.addr, DEFAULT_ADDR, "the CLI has its own port");
        let want = ServerConfig::default();
        got.addr.clone_from(&want.addr);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));

        let members = "127.0.0.1:7001,127.0.0.1:7002";
        let config = serve_config(&format!("serve --addr 127.0.0.1:7001 --cluster {members}"));
        let want = ClusterConfig::new(
            members.split(',').map(str::to_string).collect(),
            "127.0.0.1:7001",
        )
        .unwrap();
        assert_eq!(
            crate::server_config(&config, None, None).unwrap().cluster,
            Some(want)
        );
    }

    #[test]
    fn serve_has_no_shards_flag() {
        let e = parse(&argv("serve --shards 2")).unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
    }

    #[test]
    fn parses_serve_cluster_flags() {
        let cluster = serve_config(
            "serve --addr 127.0.0.1:7001 --profile-dir cache \
             --cluster 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
             --replication 2 --heartbeat-ms 100 --heartbeat-miss-limit 2",
        )
        .cluster
        .expect("--cluster configures the mesh");
        assert_eq!(
            cluster.members,
            vec!["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]
        );
        assert_eq!(cluster.replication, 2);
        assert_eq!(cluster.heartbeat_ms, 100);
        assert_eq!(cluster.heartbeat_miss_limit, 2);
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
                assert_eq!(a.policy, PolicyChoice::Aim);
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
                assert_eq!(a.policy, PolicyChoice::Baseline);
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
            (
                "run a.qasm --device x --policy nope",
                "bad --policy \"nope\"",
            ),
            (
                "submit a.qasm --device x --policy magic",
                "bad --policy \"magic\"",
            ),
            ("run a.qasm --device x --policy", "--policy needs a value"),
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
        let bad_policy = crate::run_cli(&argv("submit a.qasm --device x --policy magic"));
        assert_eq!(bad_policy.unwrap_err().exit_code(), 2, "a usage error");
    }
}

//! The mitigation service's wire protocol: one JSON object per line.
//!
//! ## Grammar (v1)
//!
//! Every request and response is a single newline-free JSON object
//! terminated by `\n`. Requests carry an `op` discriminator and an
//! optional `v` protocol version (assumed `1` when absent; any other
//! value is rejected). Responses always carry `v`, `ok`, and — when
//! `ok` is true — echo the `op`.
//!
//! ```text
//! → {"v":1,"op":"submit","device":"ibmqx4","qasm":"...","policy":"sim","shots":4096,"seed":7}
//! ← {"v":1,"ok":true,"op":"submit","device":"ibmqx4","window":0,"policy":"sim",
//!    "shots":4096,"total":4096,"distinct":17,"cache":"none","latency_us":1234,
//!    "counts":{"00000":3901,"00001":88,...}}
//!
//! → {"op":"characterize","device":"ibmqx4","method":"brute","shots":512}
//! ← {"v":1,"ok":true,"op":"characterize","device":"ibmqx4","window":0,"method":"brute",
//!    "width":5,"trials":16384,"strongest":"00000","weakest":"11111","cache":"miss",
//!    "latency_us":5678}
//!
//! → {"op":"status"} / {"op":"set-window","window":3} / {"op":"sleep","ms":50} / {"op":"shutdown"}
//! ← {"v":1,"ok":false,"code":503,"error":"busy: queue is full"}   (backpressure)
//! ```
//!
//! The schema is versioned so a future `rbms v2`-style evolution can keep
//! old clients working: servers reject requests whose `v` they do not
//! speak with a `400` error naming the supported version.

use crate::json::Json;
use qmetrics::WireRule;
use std::fmt;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Mitigation policy names on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Standard measurement.
    Baseline,
    /// Static Invert-and-Measure.
    Sim,
    /// Adaptive Invert-and-Measure (consults the profile cache).
    Aim,
}

impl PolicyKind {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "baseline",
            PolicyKind::Sim => "sim",
            PolicyKind::Aim => "aim",
        }
    }

    fn parse(s: &str) -> Result<Self, ProtocolError> {
        match s {
            "baseline" => Ok(PolicyKind::Baseline),
            "sim" => Ok(PolicyKind::Sim),
            "aim" => Ok(PolicyKind::Aim),
            other => Err(ProtocolError::new(format!("unknown policy {other:?}"))),
        }
    }
}

/// Characterization technique names on the wire: the core's
/// [`CharMethod`](invmeas::CharMethod), spelled by its `as_str`.
pub use invmeas::CharMethod as MethodKind;

fn parse_method(s: &str) -> Result<MethodKind, ProtocolError> {
    MethodKind::parse(s).ok_or_else(|| ProtocolError::new(format!("unknown method {s:?}")))
}

/// How a request's profile need was met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory cache.
    Hit,
    /// Loaded from the persisted profile directory.
    DiskHit,
    /// Measured fresh (a characterization ran).
    Miss,
    /// Served the last known-good profile because fresh characterization
    /// is unavailable (circuit breaker open or retries exhausted). The
    /// response carries `degraded: true`.
    Stale,
    /// The request did not need a profile.
    None,
}

impl CacheOutcome {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::DiskHit => "disk-hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Stale => "stale",
            CacheOutcome::None => "none",
        }
    }

    fn parse(s: &str) -> Result<Self, ProtocolError> {
        match s {
            "hit" => Ok(CacheOutcome::Hit),
            "disk-hit" => Ok(CacheOutcome::DiskHit),
            "miss" => Ok(CacheOutcome::Miss),
            "stale" => Ok(CacheOutcome::Stale),
            "none" => Ok(CacheOutcome::None),
            other => Err(ProtocolError::new(format!(
                "unknown cache outcome {other:?}"
            ))),
        }
    }
}

/// A `submit` request: run one QASM program under a policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Device name (resolved server-side, e.g. `ibmqx4`).
    pub device: String,
    /// OpenQASM 2.0 source.
    pub qasm: String,
    /// Mitigation policy.
    pub policy: PolicyKind,
    /// Trial budget.
    pub shots: u64,
    /// RNG seed — responses are deterministic per seed.
    pub seed: u64,
    /// Expected correct output; enables PST/IST/ROCA in the response.
    pub expected: Option<String>,
    /// Queue-time budget in milliseconds: if the job has not *started* by
    /// this deadline it is answered `504` without consuming a worker slot.
    pub deadline_ms: Option<u64>,
    /// True when a cluster peer already routed this request here: the
    /// receiving node must serve it locally instead of forwarding again
    /// (loop protection). Absent on the wire when false.
    pub fwd: bool,
}

/// A `characterize` request: warm or refresh the profile cache.
///
/// The characterization RNG seed is *server* configuration, not a request
/// field: a burst of concurrent requests must converge on one profile
/// regardless of which request reaches the cache first.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeRequest {
    /// Device name.
    pub device: String,
    /// Technique.
    pub method: MethodKind,
    /// Trial budget (0 = server default).
    pub shots: u64,
    /// True when a cluster peer already routed this request here (see
    /// [`SubmitRequest::fwd`]).
    pub fwd: bool,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a program.
    Submit(SubmitRequest),
    /// Measure (or fetch) a device profile.
    Characterize(CharacterizeRequest),
    /// Report queue, cache, and counter state.
    Status,
    /// Set the current calibration-window index (cache invalidation hook).
    /// On a clustered node the new window is broadcast to every member,
    /// so routed requests execute under the same window everywhere.
    SetWindow {
        /// The new window index.
        window: u64,
        /// True when a cluster peer already broadcast this change here:
        /// apply locally, do not re-broadcast (loop protection, exactly
        /// like [`SubmitRequest::fwd`]). Absent on the wire when false.
        fwd: bool,
    },
    /// Occupy a worker for `ms` milliseconds — a backpressure/testing aid.
    Sleep {
        /// Sleep duration in milliseconds (servers clamp this).
        ms: u64,
    },
    /// Liveness/degradation probe, answered inline (never queued).
    Health,
    /// Cluster routing table: members, liveness, and — when `device` is
    /// given — the owner/follower route for that device. Answered inline.
    ClusterMap {
        /// Device to route, if the caller wants a concrete route.
        device: Option<String>,
    },
    /// A profile and/or characterization-journal replica pushed by the
    /// owning node. Payloads are the exact on-disk text (`rbms v2` /
    /// `charjournal v2`, both checksummed) so the receiver can verify
    /// before trusting and store byte-identical copies.
    Replicate(ReplicateRequest),
    /// Fetch the persisted `rbms v2` profile text for a key — the
    /// re-fetch path a follower uses after rejecting a corrupt replica.
    FetchProfile {
        /// Device name.
        device: String,
        /// Technique.
        method: MethodKind,
        /// Calibration window.
        window: u64,
    },
    /// Drain in-flight jobs and stop the server.
    Shutdown,
}

/// A `replicate` push from the owning node to a follower.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicateRequest {
    /// Device name.
    pub device: String,
    /// Technique.
    pub method: MethodKind,
    /// Calibration window the payloads belong to.
    pub window: u64,
    /// Full `rbms v2` profile text, when a finished profile is shipped.
    pub profile: Option<String>,
    /// Full `charjournal v2` text, when a checkpoint is shipped.
    pub journal: Option<String>,
    /// Member index of the sender, so a follower that rejects a corrupt
    /// payload knows whom to re-fetch a clean copy from.
    pub from: u64,
}

impl Request {
    /// Serializes to a single wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut pairs = vec![("v", Json::int(PROTOCOL_VERSION))];
        match self {
            Request::Submit(r) => {
                pairs.push(("op", Json::str("submit")));
                pairs.push(("device", Json::str(&r.device)));
                pairs.push(("qasm", Json::str(&r.qasm)));
                pairs.push(("policy", Json::str(r.policy.as_str())));
                pairs.push(("shots", Json::int(r.shots)));
                pairs.push(("seed", Json::int(r.seed)));
                if let Some(e) = &r.expected {
                    pairs.push(("expected", Json::str(e)));
                }
                if let Some(d) = r.deadline_ms {
                    pairs.push(("deadline_ms", Json::int(d)));
                }
                if r.fwd {
                    pairs.push(("fwd", Json::Bool(true)));
                }
            }
            Request::Characterize(r) => {
                pairs.push(("op", Json::str("characterize")));
                pairs.push(("device", Json::str(&r.device)));
                pairs.push(("method", Json::str(r.method.as_str())));
                pairs.push(("shots", Json::int(r.shots)));
                if r.fwd {
                    pairs.push(("fwd", Json::Bool(true)));
                }
            }
            Request::ClusterMap { device } => {
                pairs.push(("op", Json::str("cluster-map")));
                if let Some(d) = device {
                    pairs.push(("device", Json::str(d)));
                }
            }
            Request::Replicate(r) => {
                pairs.push(("op", Json::str("replicate")));
                pairs.push(("device", Json::str(&r.device)));
                pairs.push(("method", Json::str(r.method.as_str())));
                pairs.push(("window", Json::int(r.window)));
                if let Some(p) = &r.profile {
                    pairs.push(("profile", Json::str(p)));
                }
                if let Some(j) = &r.journal {
                    pairs.push(("journal", Json::str(j)));
                }
                pairs.push(("from", Json::int(r.from)));
            }
            Request::FetchProfile {
                device,
                method,
                window,
            } => {
                pairs.push(("op", Json::str("fetch-profile")));
                pairs.push(("device", Json::str(device)));
                pairs.push(("method", Json::str(method.as_str())));
                pairs.push(("window", Json::int(*window)));
            }
            Request::Status => pairs.push(("op", Json::str("status"))),
            Request::SetWindow { window, fwd } => {
                pairs.push(("op", Json::str("set-window")));
                pairs.push(("window", Json::int(*window)));
                if *fwd {
                    pairs.push(("fwd", Json::Bool(true)));
                }
            }
            Request::Sleep { ms } => {
                pairs.push(("op", Json::str("sleep")));
                pairs.push(("ms", Json::int(*ms)));
            }
            Request::Health => pairs.push(("op", Json::str("health"))),
            Request::Shutdown => pairs.push(("op", Json::str("shutdown"))),
        }
        Json::obj(pairs).to_string()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on malformed JSON, an unsupported
    /// version, a missing/unknown `op`, or missing required fields.
    pub fn from_line(line: &str) -> Result<Request, ProtocolError> {
        let v = Json::parse(line).map_err(|e| ProtocolError::new(e.to_string()))?;
        check_version(&v)?;
        let op = require_str(&v, "op")?;
        match op {
            "submit" => Ok(Request::Submit(SubmitRequest {
                device: require_str(&v, "device")?.to_string(),
                qasm: require_str(&v, "qasm")?.to_string(),
                policy: PolicyKind::parse(opt_str(&v, "policy").unwrap_or("baseline"))?,
                shots: opt_u64(&v, "shots")?.unwrap_or(4096),
                seed: opt_u64(&v, "seed")?.unwrap_or(2019),
                expected: opt_str(&v, "expected").map(str::to_string),
                deadline_ms: opt_u64(&v, "deadline_ms")?,
                fwd: v.get("fwd").and_then(Json::as_bool).unwrap_or(false),
            })),
            "characterize" => Ok(Request::Characterize(CharacterizeRequest {
                device: require_str(&v, "device")?.to_string(),
                method: parse_method(opt_str(&v, "method").unwrap_or("brute"))?,
                shots: opt_u64(&v, "shots")?.unwrap_or(0),
                fwd: v.get("fwd").and_then(Json::as_bool).unwrap_or(false),
            })),
            "cluster-map" => Ok(Request::ClusterMap {
                device: opt_str(&v, "device").map(str::to_string),
            }),
            "replicate" => Ok(Request::Replicate(ReplicateRequest {
                device: require_str(&v, "device")?.to_string(),
                method: parse_method(opt_str(&v, "method").unwrap_or("brute"))?,
                window: opt_u64(&v, "window")?.unwrap_or(0),
                profile: opt_str(&v, "profile").map(str::to_string),
                journal: opt_str(&v, "journal").map(str::to_string),
                from: opt_u64(&v, "from")?.unwrap_or(0),
            })),
            "fetch-profile" => Ok(Request::FetchProfile {
                device: require_str(&v, "device")?.to_string(),
                method: parse_method(opt_str(&v, "method").unwrap_or("brute"))?,
                window: opt_u64(&v, "window")?
                    .ok_or_else(|| ProtocolError::new("fetch-profile needs a window index"))?,
            }),
            "status" => Ok(Request::Status),
            "set-window" => Ok(Request::SetWindow {
                window: opt_u64(&v, "window")?
                    .ok_or_else(|| ProtocolError::new("set-window needs a window index"))?,
                fwd: v.get("fwd").and_then(Json::as_bool).unwrap_or(false),
            }),
            "sleep" => Ok(Request::Sleep {
                ms: opt_u64(&v, "ms")?.ok_or_else(|| ProtocolError::new("sleep needs ms"))?,
            }),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::new(format!("unknown op {other:?}"))),
        }
    }
}

/// The result of a `submit` job.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitResponse {
    /// Device the job ran on.
    pub device: String,
    /// Calibration window it ran in.
    pub window: u64,
    /// Policy applied.
    pub policy: PolicyKind,
    /// Trial budget.
    pub shots: u64,
    /// Total logged trials (equals `shots`).
    pub total: u64,
    /// Number of distinct outputs observed.
    pub distinct: u64,
    /// Ranked output log, strongest first, truncated to the top
    /// [`SubmitResponse::MAX_COUNTS`] entries.
    pub counts: Vec<(String, u64)>,
    /// How the profile need was met (`none` for baseline/SIM).
    pub cache: CacheOutcome,
    /// End-to-end latency (enqueue to completion), microseconds.
    pub latency_us: u64,
    /// True when the profile came from a stale last-good entry because
    /// fresh characterization was unavailable (`cache` is then `stale`).
    pub degraded: bool,
    /// PST, present when `expected` was given.
    pub pst: Option<f64>,
    /// IST, present when `expected` was given.
    pub ist: Option<f64>,
    /// ROCA, present when `expected` was given and the answer was observed.
    pub roca: Option<u64>,
}

impl SubmitResponse {
    /// Ranked-count entries included in a response.
    pub const MAX_COUNTS: usize = 32;
}

/// The result of a `characterize` job.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeResponse {
    /// Device characterized.
    pub device: String,
    /// Calibration window.
    pub window: u64,
    /// Technique.
    pub method: MethodKind,
    /// Register width.
    pub width: u64,
    /// Trials spent measuring the profile.
    pub trials: u64,
    /// Strongest basis state.
    pub strongest: String,
    /// Weakest basis state.
    pub weakest: String,
    /// Hit/miss/disk-hit/stale.
    pub cache: CacheOutcome,
    /// End-to-end latency, microseconds.
    pub latency_us: u64,
    /// True when a stale last-good profile was served (`cache` is `stale`).
    pub degraded: bool,
}

/// The `status` snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusResponse {
    /// Current calibration window.
    pub window: u64,
    /// Worker-pool size.
    pub workers: u64,
    /// Jobs currently queued (excludes in-flight).
    pub queue_depth: u64,
    /// Queue capacity.
    pub queue_capacity: u64,
    /// Whether a shutdown is draining.
    pub draining: bool,
    /// Operational counters.
    pub counters: qmetrics::CountersSnapshot,
}

/// The `health` probe result, answered inline without queueing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthResponse {
    /// True when any circuit breaker is open (the service is serving
    /// stale profiles for at least one device) or a drain is in progress.
    pub degraded: bool,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Devices whose circuit breaker is currently open.
    pub open_breakers: u64,
    /// Profile-cache entries currently held (fresh or stale).
    pub cache_entries: u64,
    /// Age of the oldest cached profile, in calibration windows behind
    /// the current one (0 when the cache is empty or fully fresh).
    pub cache_age_windows: u64,
}

/// The `cluster-map` routing table: who is in the mesh, who is alive,
/// and — when a device was named — where its profile lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMapResponse {
    /// The full static membership list, in ring order (index = member id).
    pub members: Vec<String>,
    /// Liveness of each member as seen by the answering node.
    pub alive: Vec<bool>,
    /// The answering node's own index in `members`.
    pub self_index: u64,
    /// The route for the requested device, when one was named.
    pub route: Option<RouteInfo>,
}

/// The consistent-hash route for one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteInfo {
    /// The device routed.
    pub device: String,
    /// Member index of the owning node.
    pub owner: u64,
    /// Member indices of the replication followers, in ring order.
    pub followers: Vec<u64>,
}

/// A parsed server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `submit` result.
    Submit(SubmitResponse),
    /// `characterize` result.
    Characterize(CharacterizeResponse),
    /// `status` result.
    Status(StatusResponse),
    /// `set-window` acknowledgement (echoes the window now in force).
    Window {
        /// The window index now in force.
        window: u64,
    },
    /// `sleep` acknowledgement.
    Slept {
        /// Milliseconds actually slept.
        ms: u64,
    },
    /// `health` probe result.
    Health(HealthResponse),
    /// `cluster-map` result.
    ClusterMap(ClusterMapResponse),
    /// `replicate` acknowledgement. `accepted` is false when the payload
    /// failed its checksum on receipt; `refetched` reports whether the
    /// receiver then pulled a clean copy from the sender.
    Replicated {
        /// Whether the pushed payload verified and was installed.
        accepted: bool,
        /// Whether a clean copy was re-fetched after a rejection.
        refetched: bool,
    },
    /// `fetch-profile` result: the exact persisted `rbms v2` text.
    Profile {
        /// Device name.
        device: String,
        /// Technique.
        method: MethodKind,
        /// Calibration window.
        window: u64,
        /// Full profile text (checksummed `rbms v2`).
        profile: String,
    },
    /// `shutdown` acknowledgement.
    Shutdown,
    /// Any failure; `code` follows HTTP conventions (`400` bad request,
    /// `503` busy/draining/unavailable, `500` execution failure, `504`
    /// deadline exceeded).
    Error {
        /// Status code.
        code: u16,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// A `400 bad request` error.
    pub fn bad_request(message: impl Into<String>) -> Response {
        Response::Error {
            code: 400,
            message: message.into(),
        }
    }

    /// A `503 busy` backpressure error.
    pub fn busy(message: impl Into<String>) -> Response {
        Response::Error {
            code: 503,
            message: message.into(),
        }
    }

    /// A `500` execution error.
    pub fn failed(message: impl Into<String>) -> Response {
        Response::Error {
            code: 500,
            message: message.into(),
        }
    }

    /// A `504 deadline exceeded` error: the job expired in queue.
    pub fn deadline_exceeded(message: impl Into<String>) -> Response {
        Response::Error {
            code: 504,
            message: message.into(),
        }
    }

    /// Serializes to a single wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut pairs = vec![("v", Json::int(PROTOCOL_VERSION))];
        match self {
            Response::Error { code, message } => {
                pairs.push(("ok", Json::Bool(false)));
                pairs.push(("code", Json::int(u64::from(*code))));
                pairs.push(("error", Json::str(message)));
            }
            Response::Submit(r) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("submit")));
                pairs.push(("device", Json::str(&r.device)));
                pairs.push(("window", Json::int(r.window)));
                pairs.push(("policy", Json::str(r.policy.as_str())));
                pairs.push(("shots", Json::int(r.shots)));
                pairs.push(("total", Json::int(r.total)));
                pairs.push(("distinct", Json::int(r.distinct)));
                pairs.push(("cache", Json::str(r.cache.as_str())));
                pairs.push(("latency_us", Json::int(r.latency_us)));
                if r.degraded {
                    pairs.push(("degraded", Json::Bool(true)));
                }
                pairs.push((
                    "counts",
                    Json::Obj(
                        r.counts
                            .iter()
                            .map(|(s, n)| (s.clone(), Json::int(*n)))
                            .collect(),
                    ),
                ));
                if let Some(pst) = r.pst {
                    pairs.push(("pst", Json::Num(pst)));
                }
                if let Some(ist) = r.ist {
                    pairs.push(("ist", Json::Num(ist)));
                }
                if let Some(roca) = r.roca {
                    pairs.push(("roca", Json::int(roca)));
                }
            }
            Response::Characterize(r) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("characterize")));
                pairs.push(("device", Json::str(&r.device)));
                pairs.push(("window", Json::int(r.window)));
                pairs.push(("method", Json::str(r.method.as_str())));
                pairs.push(("width", Json::int(r.width)));
                pairs.push(("trials", Json::int(r.trials)));
                pairs.push(("strongest", Json::str(&r.strongest)));
                pairs.push(("weakest", Json::str(&r.weakest)));
                pairs.push(("cache", Json::str(r.cache.as_str())));
                pairs.push(("latency_us", Json::int(r.latency_us)));
                if r.degraded {
                    pairs.push(("degraded", Json::Bool(true)));
                }
            }
            Response::Status(r) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("status")));
                pairs.push(("window", Json::int(r.window)));
                pairs.push(("workers", Json::int(r.workers)));
                pairs.push(("queue_depth", Json::int(r.queue_depth)));
                pairs.push(("queue_capacity", Json::int(r.queue_capacity)));
                pairs.push(("draining", Json::Bool(r.draining)));
                let counter_pairs = r
                    .counters
                    .rows()
                    .into_iter()
                    .filter(|c| c.wire != WireRule::OmitWhenZero || c.value > 0)
                    .map(|c| (c.key, Json::int(c.value)))
                    .collect();
                pairs.push(("counters", Json::obj(counter_pairs)));
            }
            Response::Window { window } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("set-window")));
                pairs.push(("window", Json::int(*window)));
            }
            Response::Slept { ms } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("sleep")));
                pairs.push(("ms", Json::int(*ms)));
            }
            Response::Health(r) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("health")));
                pairs.push(("degraded", Json::Bool(r.degraded)));
                pairs.push(("queue_depth", Json::int(r.queue_depth)));
                pairs.push(("open_breakers", Json::int(r.open_breakers)));
                pairs.push(("cache_entries", Json::int(r.cache_entries)));
                pairs.push(("cache_age_windows", Json::int(r.cache_age_windows)));
            }
            Response::ClusterMap(r) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("cluster-map")));
                pairs.push((
                    "members",
                    Json::Arr(r.members.iter().map(|m| Json::str(m.as_str())).collect()),
                ));
                pairs.push((
                    "alive",
                    Json::Arr(r.alive.iter().map(|a| Json::Bool(*a)).collect()),
                ));
                pairs.push(("self", Json::int(r.self_index)));
                if let Some(route) = &r.route {
                    pairs.push(("device", Json::str(&route.device)));
                    pairs.push(("owner", Json::int(route.owner)));
                    pairs.push((
                        "followers",
                        Json::Arr(route.followers.iter().map(|f| Json::int(*f)).collect()),
                    ));
                }
            }
            Response::Replicated {
                accepted,
                refetched,
            } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("replicate")));
                pairs.push(("accepted", Json::Bool(*accepted)));
                pairs.push(("refetched", Json::Bool(*refetched)));
            }
            Response::Profile {
                device,
                method,
                window,
                profile,
            } => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("fetch-profile")));
                pairs.push(("device", Json::str(device)));
                pairs.push(("method", Json::str(method.as_str())));
                pairs.push(("window", Json::int(*window)));
                pairs.push(("profile", Json::str(profile)));
            }
            Response::Shutdown => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("op", Json::str("shutdown")));
            }
        }
        Json::obj(pairs).to_string()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on malformed JSON or schema violations.
    pub fn from_line(line: &str) -> Result<Response, ProtocolError> {
        let v = Json::parse(line).map_err(|e| ProtocolError::new(e.to_string()))?;
        check_version(&v)?;
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| ProtocolError::new("response missing ok"))?;
        if !ok {
            let code = opt_u64(&v, "code")?.unwrap_or(500) as u16;
            let message = opt_str(&v, "error").unwrap_or("unknown error").to_string();
            return Ok(Response::Error { code, message });
        }
        match require_str(&v, "op")? {
            "submit" => {
                let counts = v
                    .get("counts")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| ProtocolError::new("submit response missing counts"))?
                    .iter()
                    .map(|(k, n)| {
                        n.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| ProtocolError::new(format!("bad count for {k:?}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Submit(SubmitResponse {
                    device: require_str(&v, "device")?.to_string(),
                    window: require_u64(&v, "window")?,
                    policy: PolicyKind::parse(require_str(&v, "policy")?)?,
                    shots: require_u64(&v, "shots")?,
                    total: require_u64(&v, "total")?,
                    distinct: require_u64(&v, "distinct")?,
                    counts,
                    cache: CacheOutcome::parse(require_str(&v, "cache")?)?,
                    latency_us: require_u64(&v, "latency_us")?,
                    degraded: v.get("degraded").and_then(Json::as_bool).unwrap_or(false),
                    pst: v.get("pst").and_then(Json::as_f64),
                    ist: v.get("ist").and_then(Json::as_f64),
                    roca: v.get("roca").and_then(Json::as_u64),
                }))
            }
            "characterize" => Ok(Response::Characterize(CharacterizeResponse {
                device: require_str(&v, "device")?.to_string(),
                window: require_u64(&v, "window")?,
                method: parse_method(require_str(&v, "method")?)?,
                width: require_u64(&v, "width")?,
                trials: require_u64(&v, "trials")?,
                strongest: require_str(&v, "strongest")?.to_string(),
                weakest: require_str(&v, "weakest")?.to_string(),
                cache: CacheOutcome::parse(require_str(&v, "cache")?)?,
                latency_us: require_u64(&v, "latency_us")?,
                degraded: v.get("degraded").and_then(Json::as_bool).unwrap_or(false),
            })),
            "status" => {
                let c = v
                    .get("counters")
                    .ok_or_else(|| ProtocolError::new("status response missing counters"))?;
                let counters = qmetrics::CountersSnapshot::try_build(|key, wire| match wire {
                    WireRule::Required => require_u64(c, key),
                    WireRule::DefaultZero | WireRule::OmitWhenZero => {
                        Ok(opt_u64(c, key)?.unwrap_or(0))
                    }
                })?;
                Ok(Response::Status(StatusResponse {
                    window: require_u64(&v, "window")?,
                    workers: require_u64(&v, "workers")?,
                    queue_depth: require_u64(&v, "queue_depth")?,
                    queue_capacity: require_u64(&v, "queue_capacity")?,
                    draining: v.get("draining").and_then(Json::as_bool).unwrap_or(false),
                    counters,
                }))
            }
            "set-window" => Ok(Response::Window {
                window: require_u64(&v, "window")?,
            }),
            "sleep" => Ok(Response::Slept {
                ms: require_u64(&v, "ms")?,
            }),
            "health" => Ok(Response::Health(HealthResponse {
                degraded: v
                    .get("degraded")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| ProtocolError::new("health response missing degraded"))?,
                queue_depth: require_u64(&v, "queue_depth")?,
                open_breakers: require_u64(&v, "open_breakers")?,
                cache_entries: require_u64(&v, "cache_entries")?,
                cache_age_windows: require_u64(&v, "cache_age_windows")?,
            })),
            "cluster-map" => {
                let members = v
                    .get("members")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtocolError::new("cluster-map response missing members"))?
                    .iter()
                    .map(|m| {
                        m.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ProtocolError::new("bad member name"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let alive = v
                    .get("alive")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtocolError::new("cluster-map response missing alive"))?
                    .iter()
                    .map(|a| {
                        a.as_bool()
                            .ok_or_else(|| ProtocolError::new("bad alive flag"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let route = match opt_str(&v, "device") {
                    None => None,
                    Some(device) => Some(RouteInfo {
                        device: device.to_string(),
                        owner: require_u64(&v, "owner")?,
                        followers: v
                            .get("followers")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| ProtocolError::new("route missing followers"))?
                            .iter()
                            .map(|f| {
                                f.as_u64()
                                    .ok_or_else(|| ProtocolError::new("bad follower index"))
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    }),
                };
                Ok(Response::ClusterMap(ClusterMapResponse {
                    members,
                    alive,
                    self_index: require_u64(&v, "self")?,
                    route,
                }))
            }
            "replicate" => Ok(Response::Replicated {
                accepted: v
                    .get("accepted")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| ProtocolError::new("replicate response missing accepted"))?,
                refetched: v.get("refetched").and_then(Json::as_bool).unwrap_or(false),
            }),
            "fetch-profile" => Ok(Response::Profile {
                device: require_str(&v, "device")?.to_string(),
                method: parse_method(require_str(&v, "method")?)?,
                window: require_u64(&v, "window")?,
                profile: require_str(&v, "profile")?.to_string(),
            }),
            "shutdown" => Ok(Response::Shutdown),
            other => Err(ProtocolError::new(format!("unknown response op {other:?}"))),
        }
    }
}

/// A malformed or unsupported protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        ProtocolError(message.into())
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn check_version(v: &Json) -> Result<(), ProtocolError> {
    match v.get("v") {
        None => Ok(()), // absent ⇒ v1
        Some(field) => match field.as_u64() {
            Some(PROTOCOL_VERSION) => Ok(()),
            _ => Err(ProtocolError::new(format!(
                "unsupported protocol version {field} (this server speaks v{PROTOCOL_VERSION})"
            ))),
        },
    }
}

fn require_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ProtocolError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::new(format!("missing string field {key:?}")))
}

fn opt_str<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

fn require_u64(v: &Json, key: &str) -> Result<u64, ProtocolError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::new(format!("missing integer field {key:?}")))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match v.get(key) {
        None => Ok(None),
        Some(field) => field.as_u64().map(Some).ok_or_else(|| {
            ProtocolError::new(format!("field {key:?} must be a non-negative integer"))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_roundtrips_with_qasm_newlines() {
        let req = Request::Submit(SubmitRequest {
            device: "ibmqx4".into(),
            qasm: "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n".into(),
            policy: PolicyKind::Aim,
            shots: 1000,
            seed: 7,
            expected: Some("11111".into()),
            deadline_ms: Some(250),
            fwd: false,
        });
        let line = req.to_line();
        assert!(!line.contains('\n'), "wire lines must be newline-free");
        assert_eq!(Request::from_line(&line).unwrap(), req);
    }

    #[test]
    fn cluster_requests_roundtrip() {
        let cases = vec![
            Request::ClusterMap { device: None },
            Request::ClusterMap {
                device: Some("ibmqx4".into()),
            },
            Request::Characterize(CharacterizeRequest {
                device: "ibmqx4".into(),
                method: MethodKind::Awct,
                shots: 512,
                fwd: true,
            }),
            Request::Replicate(ReplicateRequest {
                device: "ibmqx4".into(),
                method: MethodKind::Brute,
                window: 3,
                profile: Some("rbms v2\n...\ncrc32 deadbeef\n".into()),
                journal: None,
                from: 1,
            }),
            Request::Replicate(ReplicateRequest {
                device: "ibmqx2".into(),
                method: MethodKind::Esct,
                window: 0,
                profile: None,
                journal: Some("charjournal v2\nunit 00000000 0 00000:12\n".into()),
                from: 2,
            }),
            Request::FetchProfile {
                device: "ibmqx4".into(),
                method: MethodKind::Brute,
                window: 3,
            },
            Request::SetWindow {
                window: 4,
                fwd: true,
            },
        ];
        for req in cases {
            let line = req.to_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::from_line(&line).unwrap(), req, "{line}");
        }
        // The fwd flag is absent from the wire when false, so pre-mesh
        // parsers never see an unexpected field on ordinary traffic.
        let plain = Request::Characterize(CharacterizeRequest {
            device: "x".into(),
            method: MethodKind::Brute,
            shots: 0,
            fwd: false,
        });
        assert!(!plain.to_line().contains("fwd"));
        let plain_window = Request::SetWindow {
            window: 4,
            fwd: false,
        };
        assert!(!plain_window.to_line().contains("fwd"));
    }

    #[test]
    fn request_defaults_apply() {
        let req = Request::from_line(r#"{"op":"submit","device":"ibmqx2","qasm":"x"}"#).unwrap();
        match req {
            Request::Submit(r) => {
                assert_eq!(r.policy, PolicyKind::Baseline);
                assert_eq!(r.shots, 4096);
                assert_eq!(r.seed, 2019);
                assert_eq!(r.expected, None);
                assert_eq!(r.deadline_ms, None);
            }
            other => panic!("wrong request {other:?}"),
        }
        assert_eq!(
            Request::from_line(r#"{"op":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            Request::from_line(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
    }

    #[test]
    fn version_mismatch_rejected() {
        let e = Request::from_line(r#"{"v":2,"op":"status"}"#).unwrap_err();
        assert!(
            e.to_string().contains("unsupported protocol version"),
            "{e}"
        );
        assert!(Request::from_line(r#"{"v":"x","op":"status"}"#).is_err());
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (line, expect) in [
            ("not json", "json error"),
            (r#"{"op":"nope"}"#, "unknown op"),
            (r#"{"device":"x"}"#, "missing string field \"op\""),
            (
                r#"{"op":"submit","device":"x"}"#,
                "missing string field \"qasm\"",
            ),
            (
                r#"{"op":"submit","device":"x","qasm":"q","shots":-1}"#,
                "non-negative",
            ),
            (
                r#"{"op":"submit","device":"x","qasm":"q","policy":"magic"}"#,
                "unknown policy",
            ),
            (r#"{"op":"set-window"}"#, "needs a window"),
        ] {
            let e = Request::from_line(line).unwrap_err().to_string();
            assert!(e.contains(expect), "{line}: {e}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response::Submit(SubmitResponse {
                device: "ibmqx4".into(),
                window: 3,
                policy: PolicyKind::Sim,
                shots: 4096,
                total: 4096,
                distinct: 17,
                counts: vec![("00000".into(), 3901), ("00001".into(), 88)],
                cache: CacheOutcome::None,
                latency_us: 1234,
                degraded: false,
                pst: Some(0.95),
                ist: Some(44.0),
                roca: Some(1),
            }),
            Response::Characterize(CharacterizeResponse {
                device: "ibmqx4".into(),
                window: 0,
                method: MethodKind::Brute,
                width: 5,
                trials: 16384,
                strongest: "00000".into(),
                weakest: "11111".into(),
                cache: CacheOutcome::Miss,
                latency_us: 99,
                degraded: false,
            }),
            Response::Characterize(CharacterizeResponse {
                device: "ibmqx2".into(),
                window: 4,
                method: MethodKind::Awct,
                width: 5,
                trials: 8192,
                strongest: "00000".into(),
                weakest: "10110".into(),
                cache: CacheOutcome::Stale,
                latency_us: 120,
                degraded: true,
            }),
            Response::Status(StatusResponse {
                window: 2,
                workers: 4,
                queue_depth: 1,
                queue_capacity: 32,
                draining: false,
                counters: numbered_counters(),
            }),
            Response::ClusterMap(ClusterMapResponse {
                members: vec![
                    "127.0.0.1:7001".into(),
                    "127.0.0.1:7002".into(),
                    "127.0.0.1:7003".into(),
                ],
                alive: vec![true, false, true],
                self_index: 2,
                route: Some(RouteInfo {
                    device: "ibmqx4".into(),
                    owner: 1,
                    followers: vec![2, 0],
                }),
            }),
            Response::ClusterMap(ClusterMapResponse {
                members: vec!["127.0.0.1:7001".into()],
                alive: vec![true],
                self_index: 0,
                route: None,
            }),
            Response::Replicated {
                accepted: false,
                refetched: true,
            },
            Response::Profile {
                device: "ibmqx4".into(),
                method: MethodKind::Brute,
                window: 3,
                profile: "rbms v2\ndevice ibmqx4\ncrc32 0badf00d\n".into(),
            },
            Response::Health(HealthResponse {
                degraded: true,
                queue_depth: 2,
                open_breakers: 1,
                cache_entries: 3,
                cache_age_windows: 2,
            }),
            Response::Window { window: 9 },
            Response::Slept { ms: 50 },
            Response::Shutdown,
            Response::busy("busy: queue is full"),
            Response::deadline_exceeded("deadline exceeded after 250 ms in queue"),
        ];
        for resp in cases {
            let line = resp.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Response::from_line(&line).unwrap(), resp, "{line}");
        }
    }

    /// The snapshot whose i-th counter (in table order) is i + 1.
    fn numbered_counters() -> qmetrics::CountersSnapshot {
        let mut next = 0u64;
        qmetrics::CountersSnapshot::try_build(|_, _| {
            next += 1;
            Ok::<u64, ProtocolError>(next)
        })
        .expect("infallible")
    }

    /// Exact status-line bytes, pinned from the hand-written encoder the
    /// counter table replaced: every key in its old position (less
    /// `shard_depth_peak`, deleted with the sharded run queue), and the
    /// omit-when-zero keys absent from a quiet node's line.
    #[test]
    fn status_line_bytes_are_pinned() {
        let status = |counters| {
            Response::Status(StatusResponse {
                window: 2,
                workers: 4,
                queue_depth: 1,
                queue_capacity: 32,
                draining: false,
                counters,
            })
            .to_line()
        };
        assert_eq!(
            status(numbered_counters()),
            concat!(
                r#"{"v":1,"ok":true,"op":"status","window":2,"workers":4,"queue_depth":1,"#,
                r#""queue_capacity":32,"draining":false,"counters":{"requests":1,"#,
                r#""jobs_executed":2,"jobs_failed":3,"busy_rejections":4,"cache_hits":5,"#,
                r#""cache_misses":6,"queue_depth_peak":7,"latency_total_us":8,"#,
                r#""latency_max_us":9,"faults_injected":10,"retries":11,"#,
                r#""degraded_responses":12,"deadline_expirations":13,"connections_reaped":14,"#,
                r#""breaker_trips":15,"journal_checkpoints":16,"resumed_jobs":17,"#,
                r#""profiles_quarantined":18,"invariant_clamps":19,"pool_tasks":20,"#,
                r#""barrier_waits":21,"arena_reuse_hits":22,"epoll_wakeups":23,"#,
                r#""frames_parsed":24,"write_backpressure_events":25,"#,
                r#""queue_steals":26,"forwards":27,"replication_writes":28,"failovers":29,"#,
                r#""heartbeats_missed":30,"stale_map_retries":31,"requests_shed":32,"#,
                r#""retry_budget_exhausted":33,"peer_dials_suppressed":34,"#,
                r#""net_faults_injected":35,"partitions_healed":36}}"#,
            )
        );
        assert_eq!(
            status(qmetrics::CountersSnapshot::default()),
            concat!(
                r#"{"v":1,"ok":true,"op":"status","window":2,"workers":4,"queue_depth":1,"#,
                r#""queue_capacity":32,"draining":false,"counters":{"requests":0,"#,
                r#""jobs_executed":0,"jobs_failed":0,"busy_rejections":0,"cache_hits":0,"#,
                r#""cache_misses":0,"queue_depth_peak":0,"latency_total_us":0,"#,
                r#""latency_max_us":0,"faults_injected":0,"retries":0,"degraded_responses":0,"#,
                r#""deadline_expirations":0,"connections_reaped":0,"breaker_trips":0,"#,
                r#""journal_checkpoints":0,"resumed_jobs":0,"profiles_quarantined":0,"#,
                r#""invariant_clamps":0,"pool_tasks":0,"barrier_waits":0,"arena_reuse_hits":0,"#,
                r#""epoll_wakeups":0,"frames_parsed":0,"write_backpressure_events":0,"#,
                r#""queue_steals":0,"forwards":0,"replication_writes":0,"#,
                r#""failovers":0,"heartbeats_missed":0,"stale_map_retries":0}}"#,
            )
        );
    }

    #[test]
    fn error_codes_on_the_wire() {
        let line = Response::busy("busy: queue is full").to_line();
        assert!(line.contains("\"code\":503"), "{line}");
        assert!(line.contains("\"ok\":false"), "{line}");
        match Response::from_line(&line).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, 503);
                assert!(message.contains("busy"));
            }
            other => panic!("wrong response {other:?}"),
        }
    }
}

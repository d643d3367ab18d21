//! The long-running mitigation server.
//!
//! One readiness-driven thread runs every connection: a
//! [`crate::poll::Poller`] multiplexes the nonblocking listener, a
//! worker-completion [`crate::poll::Waker`], and every client socket;
//! [`crate::conn::Conn`] state machines parse newline-delimited frames
//! incrementally and buffer responses through reusable write buffers, so
//! thousands of idle connections cost a few KB each instead of a thread
//! each. Where epoll is unavailable the poller falls back to a portable
//! implementation, so every target runs this same loop.
//!
//! Cheap requests (`status`, `health`, `set-window`, `shutdown`) are
//! answered inline while expensive ones (`submit`, `characterize`,
//! `sleep`, and — on clustered nodes, where it broadcasts to the mesh —
//! `set-window`) become jobs on the run queue
//! ([`crate::queue::BoundedQueue`]), which the event loop fills and the
//! workers drain. The queue is the only buffer: when it is full the
//! request is answered `503 busy` immediately instead of queueing
//! unbounded memory.
//!
//! Resilience (see `DESIGN.md` §12):
//!
//! * **idle reaper** — a client that hangs without completing a request is
//!   closed (counted in `connections_reaped`) without ever consuming a
//!   worker. The event loop folds the deadline into its poll timeout, so a
//!   reap costs a timer wakeup instead of a blocked thread;
//! * **deadlines** — a `submit` carrying `deadline_ms` that is still
//!   queued when the deadline passes is answered `504` at dequeue, again
//!   without consuming worker time;
//! * **panic isolation** — a panicking job answers `500` and the worker
//!   thread survives at full pool strength;
//! * **retry + breaker** — transient characterization failures retry with
//!   deterministic backoff, and a repeatedly failing device's circuit
//!   breaker serves the last good profile with `degraded: true` (see
//!   [`crate::cache::ProfileCache`]);
//! * **fault injection** — every failure path above is rehearsed by
//!   scripting an [`invmeas_faults::FaultPlan`] into
//!   [`ServerConfig::faults`]; production uses the free
//!   [`invmeas_faults::NoFaults`] default.
//!
//! Graceful shutdown: a `shutdown` request is acknowledged, the server
//! stops accepting work (new jobs get `503`), the queue is closed, workers
//! finish every job admitted before the close, and [`Server::serve`]
//! returns after joining them and flushing every buffered response byte.

use crate::breaker::{BreakerConfig, RetryPolicy};
use crate::cache::{CacheConfig, CacheError, ProfileCache};
use crate::client;
use crate::cluster::{ClusterConfig, HashRing};
use crate::conn::{Conn, FlushOutcome, ReadOutcome};
use crate::membership::Membership;
use crate::net::NetFabric;
use crate::overload::{DialGate, RetryBudget};
use crate::poll::{Interest, PollEvent, Poller, Waker};
use crate::protocol::{
    CacheOutcome, CharacterizeRequest, CharacterizeResponse, ClusterMapResponse, HealthResponse,
    MethodKind, PolicyKind, ReplicateRequest, Request, Response, RouteInfo, StatusResponse,
    SubmitRequest, SubmitResponse,
};
use crate::queue::{BoundedQueue, PushError, ShedClass};
use crate::replicate::MeshReplicator;
use invmeas::{PolicyChoice, Runner};
use invmeas_faults::{Fault, FaultInjector, FaultSite, NetFaultPlan, NoFaults};
use qmetrics::{CorrectSet, ReliabilityReport, ServiceCounters};
use qnoise::{CalibrationDrift, DeviceModel};
use qsim::BitString;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration. The defaults favour test determinism over raw
/// throughput; a production deployment raises `workers` and
/// `queue_capacity`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker-pool size.
    pub workers: usize,
    /// Bounded job-queue capacity (jobs beyond this get `503 busy`).
    pub queue_capacity: usize,
    /// Executor threads per job (keep small: jobs already run in parallel).
    pub exec_threads: usize,
    /// Default characterization budget when a request does not name one.
    pub profile_shots: u64,
    /// Characterization RNG seed (request seeds never reach the cache, so
    /// concurrent bursts converge on one profile) — see
    /// [`crate::cache::ProfileCache`].
    pub profile_seed: u64,
    /// Per-window calibration-drift amplitude (0 disables drift).
    pub drift_amplitude: f64,
    /// Drift RNG seed.
    pub drift_seed: u64,
    /// Cache invalidation threshold on [`qnoise::drift_score`].
    pub drift_threshold: f64,
    /// Optional profile persistence directory.
    pub profile_dir: Option<PathBuf>,
    /// Upper bound honoured for `sleep` requests.
    pub max_sleep_ms: u64,
    /// Idle timeout per connection in milliseconds; a client idle (or
    /// hung mid-frame) past this is reaped. 0 disables the reaper.
    pub idle_timeout_ms: u64,
    /// Write timeout per connection in milliseconds (0 disables) — bounds
    /// the damage of a client that stops draining its socket.
    pub write_timeout_ms: u64,
    /// Retries after a transient characterization failure.
    pub retry_limit: u32,
    /// Base backoff between retries in milliseconds (0 = no waiting).
    pub retry_backoff_ms: u64,
    /// Consecutive characterization failures that open a device's breaker.
    pub breaker_failure_threshold: u32,
    /// Consecutive drift-threshold trips that open a device's breaker.
    pub breaker_drift_trips: u32,
    /// Degraded serves while open before a half-open probe.
    pub breaker_cooldown: u32,
    /// Fault injector threaded through workers, characterization, profile
    /// I/O, and execution. Production leaves the [`NoFaults`] default.
    pub faults: Arc<dyn FaultInjector>,
    /// Profile-mesh clustering (see `DESIGN.md` §16). `None` — the
    /// default — keeps this node byte-compatible single-node behaviour:
    /// no heartbeats, no replication, no routing, no new wire traffic.
    pub cluster: Option<ClusterConfig>,
    /// Deterministic network fault script (see `DESIGN.md` §17) applied
    /// to every socket this node dials *and* accepts. `None` — the
    /// default — is a zero-cost pass-through.
    pub net_faults: Option<Arc<NetFaultPlan>>,
    /// Retry-budget bucket capacity, in whole retry tokens. The budget
    /// is shared by every retry path on the node: cache characterization
    /// retries, forward-ladder failovers, and replication redials.
    pub retry_budget_tokens: u64,
    /// Milli-tokens (1/1000ths of a retry) refilled into the budget per
    /// request arrival. The default `100` couples total retries to ~10%
    /// of the request rate.
    pub retry_budget_refill_milli: u64,
    /// Base per-peer dial backoff after a failed peer call, in
    /// milliseconds (clustered nodes only).
    pub dial_backoff_base_ms: u64,
    /// Cap on the per-peer exponential dial backoff, in milliseconds.
    pub dial_backoff_cap_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 32,
            exec_threads: 1,
            profile_shots: 2048,
            profile_seed: 2019,
            drift_amplitude: 0.05,
            drift_seed: 0x1b3_5de7,
            drift_threshold: 0.0,
            profile_dir: None,
            max_sleep_ms: 5_000,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            retry_limit: 2,
            retry_backoff_ms: 25,
            breaker_failure_threshold: 3,
            breaker_drift_trips: 4,
            breaker_cooldown: 4,
            faults: Arc::new(NoFaults),
            cluster: None,
            net_faults: None,
            retry_budget_tokens: 10,
            retry_budget_refill_milli: 100,
            dial_backoff_base_ms: 50,
            dial_backoff_cap_ms: 2_000,
        }
    }
}

/// Where a finished job's response goes: the worker serializes the
/// response (off the loop thread), queues it for `(conn, seq)`, and wakes
/// the loop.
struct Reply {
    conn: u64,
    seq: u64,
    completions: Arc<Completions>,
}

impl Reply {
    fn send(self, response: Response) {
        let line = response.to_line();
        self.completions
            .done
            .lock()
            .unwrap()
            .push((self.conn, self.seq, line));
        self.completions.waker.wake();
    }
}

/// Finished-job mailbox shared by the workers and the event loop.
struct Completions {
    /// `(connection token, response slot, serialized line)`.
    done: Mutex<Vec<(u64, u64, String)>>,
    waker: Waker,
}

struct Job {
    kind: JobKind,
    respond: Reply,
    enqueued: Instant,
    /// Queue-time budget: expired jobs answer `504` at dequeue.
    deadline: Option<Duration>,
}

enum JobKind {
    Submit(SubmitRequest),
    Characterize(CharacterizeRequest),
    Sleep {
        ms: u64,
    },
    /// A replica push from a peer — queued (not inline) because a corrupt
    /// payload triggers a synchronous clean-copy re-fetch over the wire,
    /// which must not stall the event loop.
    Replicate(ReplicateRequest),
    /// A client's window change on a *clustered* node — queued (not
    /// inline) because it broadcasts to every peer before answering,
    /// which must not stall the event loop. Single-node servers (and
    /// peer-broadcast deliveries) still answer inline.
    SetWindow {
        window: u64,
    },
}

/// Shedding class of a queued job (see [`BoundedQueue::try_push`]):
/// mesh control traffic (replica installs, window broadcasts) is never
/// shed — losing it desynchronizes the mesh — while client work
/// (submit, characterize, sleep) competes for capacity and carries its
/// queue-time deadline so the earliest-impossible job is evicted first.
fn job_class(job: &Job) -> ShedClass {
    match &job.kind {
        JobKind::Replicate(_) | JobKind::SetWindow { .. } => ShedClass::Control,
        JobKind::Submit(_) | JobKind::Characterize(_) | JobKind::Sleep { .. } => ShedClass::Work {
            deadline: job.deadline.map(|d| job.enqueued + d),
        },
    }
}

/// Answers a job evicted by priority shedding: a `504`, exactly what the
/// job would have received at dequeue, just earlier — its deadline was
/// already impossible when a new job needed the slot.
fn answer_shed(state: &State, victim: Job) {
    state.counters.inc_requests_shed();
    victim.respond.send(Response::deadline_exceeded(
        "shed while queued: deadline already impossible at admission of newer work",
    ));
}

/// Everything a clustered node knows about the mesh.
struct ClusterState {
    config: ClusterConfig,
    ring: HashRing,
    membership: Arc<Membership>,
}

/// How long a node-to-node *control* call (re-fetch, set-window
/// broadcast) may take — connect included — before the caller gives up.
/// This also bounds the TCP connect of a forwarded work request: a
/// reachable peer accepts in milliseconds, so anything slower is treated
/// as dead rather than left to the OS SYN-retry window (~2 min).
const PEER_CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound on how long a forwarder waits for a *forwarded work
/// request* (characterize, AIM submit) to finish on its owner. Work
/// forwards must not use [`PEER_CALL_TIMEOUT`]: a characterization at
/// production shot counts legitimately runs far longer than any
/// transport timeout, and giving up on a slow-but-healthy owner would
/// duplicate the whole job locally — breaking the cluster-wide
/// single-flight invariant. A dead owner is still detected promptly:
/// its socket answers EOF/RST the moment it dies, and a *partitioned*
/// owner (no RST) is abandoned as soon as this node's membership view
/// declares it dead (the wait polls in heartbeat-interval slices). This
/// bound only backstops a peer that is alive, reachable, and wedged.
const FORWARD_WORK_TIMEOUT: Duration = Duration::from_secs(600);

struct State {
    config: ServerConfig,
    counters: Arc<ServiceCounters>,
    cache: ProfileCache,
    window: AtomicU64,
    draining: AtomicBool,
    queue: BoundedQueue<Job>,
    local_addr: SocketAddr,
    faults: Arc<dyn FaultInjector>,
    cluster: Option<ClusterState>,
    /// The transport every socket goes through — dials (peer calls,
    /// forwards, probes, replication) and accepts alike. Direct in
    /// production; armed with the scripted [`NetFaultPlan`] under chaos.
    net: NetFabric,
    /// The node-wide retry budget (see [`RetryBudget`]): refilled by
    /// request arrivals, spent by every retry path.
    retry_budget: Arc<RetryBudget>,
    /// Per-peer dial backoff, present only on clustered nodes.
    dial_gate: Option<Arc<DialGate>>,
}

/// A bound, not-yet-serving mitigation server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("local_addr", &self.local_addr)
            .field("window", &self.window.load(Ordering::Relaxed))
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener (without serving yet).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.workers > 0, "need at least one worker");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let counters = Arc::new(ServiceCounters::new());
        let faults = Arc::clone(&config.faults);
        let cluster = match config.cluster.as_ref() {
            None => None,
            Some(cl) => {
                if config.profile_dir.is_none() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "clustering requires a profile directory \
                         (replication payloads are the persisted profile text)",
                    ));
                }
                Some(ClusterState {
                    config: cl.clone(),
                    ring: HashRing::new(&cl.members),
                    membership: Arc::new(Membership::new(
                        cl.members.len(),
                        cl.self_index,
                        cl.heartbeat_miss_limit,
                    )),
                })
            }
        };
        // The fault fabric names this node `n<self_index>` and its peers
        // `n0..nK` in cluster-index order (the `netfaults v1` naming
        // convention); a single-node server is `n0`. With no plan the
        // fabric is a pass-through.
        let net = match config.cluster.as_ref() {
            Some(cl) => {
                let names = cl
                    .members
                    .iter()
                    .enumerate()
                    .filter_map(|(i, m)| {
                        let addr = m.to_socket_addrs().ok()?.next()?;
                        Some((addr, format!("n{i}")))
                    })
                    .collect();
                NetFabric::new(
                    format!("n{}", cl.self_index),
                    names,
                    config.net_faults.clone(),
                )
            }
            None => NetFabric::new("n0", Vec::new(), config.net_faults.clone()),
        };
        let retry_budget = Arc::new(RetryBudget::new(
            config.retry_budget_tokens,
            config.retry_budget_refill_milli,
        ));
        let dial_gate = config.cluster.as_ref().map(|cl| {
            Arc::new(DialGate::new(
                cl.members.len(),
                Duration::from_millis(config.dial_backoff_base_ms),
                Duration::from_millis(config.dial_backoff_cap_ms.max(1)),
                config.profile_seed,
            ))
        });
        let mut cache = ProfileCache::new(CacheConfig {
            profile_seed: config.profile_seed,
            drift_threshold: config.drift_threshold,
            exec_threads: config.exec_threads,
            profile_dir: config.profile_dir.clone(),
        })
        .with_counters(Arc::clone(&counters))
        .with_faults(Arc::clone(&faults))
        .with_retry(RetryPolicy {
            max_retries: config.retry_limit,
            base_backoff_ms: config.retry_backoff_ms,
        })
        .with_breaker(BreakerConfig {
            failure_threshold: config.breaker_failure_threshold,
            drift_trip_threshold: config.breaker_drift_trips,
            cooldown: config.breaker_cooldown,
        })
        .with_retry_budget(Arc::clone(&retry_budget));
        if let Some(cl) = cluster.as_ref() {
            cache = cache.with_replicator(Arc::new(
                MeshReplicator::new(
                    cl.config.members.clone(),
                    cl.config.self_index,
                    cl.config.effective_replication(),
                    Arc::clone(&cl.membership),
                    Arc::clone(&faults),
                )
                .with_fabric(net.clone())
                .with_retry_budget(Arc::clone(&retry_budget)),
            ));
        }
        let queue = BoundedQueue::new(config.queue_capacity);
        Ok(Server {
            listener,
            state: Arc::new(State {
                config,
                counters,
                cache,
                window: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                queue,
                local_addr,
                faults,
                cluster,
                net,
                retry_budget,
                dial_gate,
            }),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Serves until a `shutdown` request completes its drain. Blocks the
    /// calling thread and returns the final counter values.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the front end.
    pub fn serve(self) -> std::io::Result<qmetrics::CountersSnapshot> {
        let workers: Vec<_> = (0..self.state.config.workers)
            .map(|i| {
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("invmeas-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker")
            })
            .collect();

        let heartbeat = self.state.cluster.is_some().then(|| {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("invmeas-heartbeat".into())
                .spawn(move || heartbeat_loop(&state))
                .expect("spawn heartbeat")
        });

        let served = serve_event_loop(&self.listener, &self.state);

        // Drain: no new jobs are admitted (the loop saw `draining`), the
        // queue closes, and workers finish everything already accepted.
        self.state.queue.close();
        for w in workers {
            let _ = w.join();
        }
        if let Some(h) = heartbeat {
            let _ = h.join();
        }
        served?;
        mirror_gauges(&self.state);
        Ok(self.state.counters.snapshot())
    }
}

/// Copies the gauges owned elsewhere — fault plans, the core validation
/// ledger, the simulator's pool and arena, the retry budget, the dial
/// gate, and the net-fault plan — into the counter bundle, so every
/// snapshot carries them.
fn mirror_gauges(state: &State) {
    let c = &state.counters;
    c.set_faults_injected(state.faults.injected());
    c.set_invariant_clamps(invmeas::validate::invariant_clamps());
    c.set_pool_tasks(qsim::pool::pool_tasks());
    c.set_barrier_waits(qsim::pool::barrier_waits());
    c.set_arena_reuse_hits(qsim::arena::arena_reuse_hits());
    c.set_retry_budget_exhausted(state.retry_budget.exhausted());
    if let Some(gate) = state.dial_gate.as_ref() {
        c.set_peer_dials_suppressed(gate.suppressed());
    }
    if let Some(plan) = state.net.plan() {
        c.set_net_faults_injected(plan.injected());
        c.set_partitions_healed(plan.partitions_healed());
    }
}

/// Stops admitting jobs; workers drain what was already accepted. The
/// event loop sees `draining` on the iteration that handled the
/// `shutdown` frame, so nothing needs waking.
fn initiate_shutdown(state: &State) {
    if !state.draining.swap(true, Ordering::SeqCst) {
        state.queue.close();
    }
}

// ---------------------------------------------------------------------------
// Cheap requests
// ---------------------------------------------------------------------------

fn status_response(state: &State) -> Response {
    mirror_gauges(state);
    Response::Status(StatusResponse {
        window: state.window.load(Ordering::SeqCst),
        workers: state.config.workers as u64,
        queue_depth: state.queue.depth() as u64,
        queue_capacity: state.queue.capacity() as u64,
        draining: state.draining.load(Ordering::SeqCst),
        counters: state.counters.snapshot(),
    })
}

fn health_response(state: &State) -> Response {
    let window = state.window.load(Ordering::SeqCst);
    let health = state.cache.health(window);
    let draining = state.draining.load(Ordering::SeqCst);
    Response::Health(HealthResponse {
        degraded: health.open_breakers > 0 || draining,
        queue_depth: state.queue.depth() as u64,
        open_breakers: health.open_breakers,
        cache_entries: health.entries,
        cache_age_windows: health.oldest_age_windows,
    })
}

fn set_window_response(state: &State, window: u64) -> Response {
    state.window.store(window, Ordering::SeqCst);
    Response::Window { window }
}

/// Applies a window change on a clustered node: locally first, then
/// broadcast to every *alive* peer (marked `fwd` so nobody re-broadcasts)
/// before the client sees the acknowledgement. Without the broadcast the
/// mesh diverges silently: forwarded submits/characterizes execute under
/// the *owner's* window, so a client that set the window on its seed node
/// and then submitted a routed device would get results for the old
/// window with no error. Best effort per peer — a peer that is dead (or
/// unreachable within [`PEER_CALL_TIMEOUT`]) is skipped and will serve
/// its stale window until the next broadcast reaches it; operators drive
/// `set-window` once per calibration window, so the divergence window is
/// one calibration cycle at worst, and `cluster-map` exposes liveness to
/// make the skip observable.
fn execute_set_window(state: &State, window: u64) -> Response {
    let response = set_window_response(state, window);
    if let Some(cl) = state.cluster.as_ref() {
        for peer in 0..cl.config.members.len() {
            if peer == cl.config.self_index || !cl.membership.is_alive(peer) {
                continue;
            }
            let _ = peer_call(
                &state.net,
                &cl.config.members[peer],
                &Request::SetWindow { window, fwd: true },
            );
        }
    }
    response
}

// ---------------------------------------------------------------------------
// Profile mesh (see DESIGN.md §16)
// ---------------------------------------------------------------------------

fn cluster_map_response(state: &State, device: Option<&str>) -> Response {
    let Some(cl) = state.cluster.as_ref() else {
        return Response::bad_request("this server is not clustered");
    };
    let route = device.map(|d| {
        let r = cl.ring.route(d, cl.config.effective_replication());
        RouteInfo {
            device: d.to_string(),
            owner: r.owner as u64,
            followers: r.followers.iter().map(|f| *f as u64).collect(),
        }
    });
    Response::ClusterMap(ClusterMapResponse {
        members: cl.config.members.clone(),
        alive: cl.membership.snapshot(),
        self_index: cl.config.self_index as u64,
        route,
    })
}

fn fetch_profile_response(
    state: &State,
    device: &str,
    method: MethodKind,
    window: u64,
) -> Response {
    match state.cache.read_profile_text(device, method, window) {
        Some(profile) => Response::Profile {
            device: device.to_string(),
            method,
            window,
            profile,
        },
        None => Response::Error {
            code: 404,
            message: format!(
                "no persisted profile for {device:?} {} w{window}",
                method.as_str()
            ),
        },
    }
}

fn execute_replicate(state: &State, r: &ReplicateRequest) -> Response {
    let Some(cl) = state.cluster.as_ref() else {
        return Response::bad_request("this server is not clustered");
    };
    let from = r.from as usize;
    if from < cl.config.members.len() {
        // A replica is proof of life for its sender.
        cl.membership.mark_seen(from);
    }
    let mut accepted = true;
    let mut refetched = false;
    if let Some(journal) = &r.journal {
        // A journal replica that fails verification is just dropped:
        // the next checkpoint ships the whole file again, so the stream
        // self-heals without a re-fetch.
        if state
            .cache
            .install_replica_journal(&r.device, r.method, r.window, journal)
            .is_err()
        {
            accepted = false;
        }
    }
    if let Some(profile) = &r.profile {
        match state
            .cache
            .install_replica_profile(&r.device, r.method, r.window, profile)
        {
            Ok(()) => {}
            Err(_) => {
                // Checksum (or I/O) rejection. Nothing local is suspect —
                // the wire copy failed — so nothing is quarantined; pull
                // a clean copy from the sender instead.
                accepted = false;
                if from < cl.config.members.len() && from != cl.config.self_index {
                    if let Some(text) =
                        fetch_profile_from(state, cl, from, &r.device, r.method, r.window)
                    {
                        refetched = state
                            .cache
                            .install_replica_profile(&r.device, r.method, r.window, &text)
                            .is_ok();
                    }
                }
            }
        }
    }
    Response::Replicated {
        accepted,
        refetched,
    }
}

/// Pulls the persisted profile text from a peer, best effort.
fn fetch_profile_from(
    state: &State,
    cl: &ClusterState,
    member: usize,
    device: &str,
    method: MethodKind,
    window: u64,
) -> Option<String> {
    let response = peer_call(
        &state.net,
        &cl.config.members[member],
        &Request::FetchProfile {
            device: device.to_string(),
            method,
            window,
        },
    )
    .ok()?;
    match response {
        Response::Profile { profile, .. } => Some(profile),
        _ => None,
    }
}

/// One bounded node-to-node control call: connect, send, and receive all
/// complete within [`PEER_CALL_TIMEOUT`] (a partitioned peer costs one
/// timeout, never a worker pinned for minutes).
fn peer_call(
    net: &NetFabric,
    addr: &str,
    request: &Request,
) -> Result<Response, client::ClientError> {
    let mut c = client::Client::connect_via(net, addr, Some(PEER_CALL_TIMEOUT))?;
    c.request(request)
}

/// One forwarded *work* call: the connect is bounded tightly (a live
/// peer accepts instantly), but the response wait is generous — polled
/// in heartbeat-interval slices so the wait aborts the moment this
/// node's membership view declares the peer dead, and capped by
/// [`FORWARD_WORK_TIMEOUT`] against a wedged-but-alive peer.
fn forward_call(
    state: &State,
    cl: &ClusterState,
    member: usize,
    request: &Request,
) -> Result<Response, client::ClientError> {
    let mut c = client::Client::connect_via(
        &state.net,
        cl.config.members[member].as_str(),
        Some(PEER_CALL_TIMEOUT),
    )?;
    c.send(request)?;
    let slice =
        Duration::from_millis(cl.config.heartbeat_ms.max(10)).max(Duration::from_millis(250));
    c.set_timeout(Some(slice))?;
    let started = Instant::now();
    loop {
        match c.recv_resumable() {
            // A read timeout is spelled `WouldBlock` on unix and
            // `TimedOut` on windows.
            Err(client::ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !cl.membership.is_alive(member) || started.elapsed() >= FORWARD_WORK_TIMEOUT {
                    return Err(client::ClientError::Io(e));
                }
                // Peer still alive by heartbeat: the job is just slow.
                // Keep waiting — failing over now would run it twice.
            }
            other => return other,
        }
    }
}

/// Where a profile-needing request for `device` should run.
enum RouteDecision {
    /// Serve from this node's cache/disk; `failover` marks a serve this
    /// node is only doing because the nodes ahead of it on the ladder
    /// are dead.
    Local { failover: bool },
    /// Forward down this ladder of *alive* candidates (best first, all
    /// ahead of this node); the walker falls down the rungs under dial
    /// gate and retry-budget control.
    Forward(Vec<usize>),
}

/// Routing policy: the hash-owner serves; everyone else forwards to the
/// first *alive* node on the device's ladder (owner, then followers in
/// ring order), keeping the rest of the alive ladder as fallback rungs;
/// a node that finds itself first on that ladder promotes and serves
/// from its replicas. Forwarded requests (`fwd`) always serve locally —
/// one hop maximum, loops impossible.
fn route_request(state: &State, device: &str, fwd: bool) -> RouteDecision {
    let Some(cl) = state.cluster.as_ref() else {
        return RouteDecision::Local { failover: false };
    };
    if fwd {
        return RouteDecision::Local { failover: false };
    }
    let route = cl.ring.route(device, cl.config.effective_replication());
    let me = cl.config.self_index;
    if route.owner == me {
        return RouteDecision::Local { failover: false };
    }
    // Alive ladder nodes ahead of this one, in ladder order. The scan
    // stops at `me`: once every better-placed node is dead, serving our
    // own replica beats forwarding to a worse-placed one.
    let mut candidates = Vec::new();
    for m in route.ladder() {
        if m == me {
            break;
        }
        if cl.membership.is_alive(m) {
            candidates.push(m);
        }
    }
    if candidates.is_empty() {
        // This node is first on the alive ladder (or the entire ladder
        // looks dead, yet the request reached us): serving from
        // whatever we have beats refusing.
        return RouteDecision::Local { failover: true };
    }
    if !route.involves(me) {
        // A client with a current map would have sent this to the
        // ladder directly; its map (or its guess) was stale.
        state.counters.inc_stale_map_retry();
    }
    RouteDecision::Forward(candidates)
}

/// Whether a forwarded request's answer means the target could not serve
/// it (dead worker, open breaker with no last-good, drain) — in which
/// case the forwarder falls back to its own replicas. A `504` is *not*
/// unserved: it is the owner deliberately honouring the client's
/// queue-time deadline, and must reach the client unchanged — serving
/// the job locally after the deadline already passed would hand the
/// client a late success it explicitly asked not to receive.
fn is_unserved(response: &Response) -> bool {
    matches!(
        response,
        Response::Error {
            code: 500 | 503,
            ..
        }
    )
}

/// Walks the forward ladder under overload control; when every rung is
/// suppressed, exhausted, or unserved, promotes locally via `local`
/// (counted as a failover: the mesh served degraded data rather than
/// failing the client).
///
/// Two mechanisms bound what a degraded mesh can cost per request:
///
/// * the **dial gate** skips rungs still inside their per-peer backoff
///   hold-off, so a dead member is not redialed by every request;
/// * the **retry budget** charges every rung *after the first* — the
///   first forward rides on the request itself, each further rung is a
///   retry. A fully partitioned ladder therefore costs at most
///   `1 + available_tokens` dials, not `rungs` dials, per request.
fn forward_or_failover(
    state: &State,
    ladder: &[usize],
    request: Request,
    local: impl FnOnce() -> Response,
) -> Response {
    let cl = state.cluster.as_ref().expect("routed without a cluster");
    let gate = state.dial_gate.as_ref();
    let mut attempted = false;
    for &member in ladder {
        if let Some(g) = gate {
            if !g.allow(member) {
                continue; // held off: the gate counts the suppression
            }
        }
        if attempted && !state.retry_budget.try_spend() {
            break; // budget exhausted: no more rungs this request
        }
        attempted = true;
        match forward_call(state, cl, member, &request) {
            Ok(response) if !is_unserved(&response) => {
                if let Some(g) = gate {
                    g.record_success(member);
                }
                state.counters.inc_forward();
                return response;
            }
            Ok(_) => {
                // The peer answered: transport is healthy, it just could
                // not serve. Reset its backoff and fall down the ladder.
                if let Some(g) = gate {
                    g.record_success(member);
                }
            }
            Err(_) => {
                if let Some(g) = gate {
                    g.record_failure(member);
                }
            }
        }
    }
    state.counters.inc_failover();
    local()
}

/// Peer liveness: probes every peer each interval with an inline
/// `health` request. The `heartbeat` fault site can drop a probe
/// (`Error`) — a deterministic one-sided partition — or delay it.
///
/// The round is structured for determinism *and* boundedness:
///
/// 1. fault-site arrivals are consumed sequentially in peer order
///    before any socket moves, so a scripted plan sees exactly the
///    arrival numbering the old sequential loop produced;
/// 2. the probes themselves run on scoped threads, so one slow or
///    partitioned peer costs the round a single probe budget instead of
///    stretching it by the sum of every peer's timeout — with `k` dead
///    peers the sequential round took `k × budget`, long enough to blow
///    straight through the miss limit for *healthy* peers;
/// 3. membership updates apply in fixed peer order after every probe
///    returned, so the verdict sequence is independent of probe timing.
///
/// A peer transitioning dead → alive triggers a full profile re-ship:
/// it may have missed any number of replicas while unreachable, and the
/// re-ship is what re-converges its disk byte-identically after a
/// healed partition.
fn heartbeat_loop(state: &State) {
    let cl = state.cluster.as_ref().expect("heartbeat without a cluster");
    let interval = Duration::from_millis(cl.config.heartbeat_ms.max(10));
    let peers: Vec<usize> = (0..cl.config.members.len())
        .filter(|&p| p != cl.config.self_index)
        .collect();
    while !state.draining.load(Ordering::SeqCst) {
        let dropped: Vec<bool> = peers
            .iter()
            .map(|_| match state.faults.check(FaultSite::Heartbeat) {
                Some(Fault::Error(_)) => true,
                Some(f) => {
                    f.apply_latency();
                    false
                }
                None => false,
            })
            .collect();
        let answers: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = peers
                .iter()
                .zip(&dropped)
                .map(|(&peer, &dropped)| {
                    s.spawn(move || {
                        !dropped
                            && matches!(
                                probe_health(&state.net, &cl.config.members[peer], interval),
                                Some(Response::Health(_))
                            )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(false))
                .collect()
        });
        for (&peer, answered) in peers.iter().zip(answers) {
            if answered {
                if cl.membership.mark_seen(peer) {
                    state.cache.reship_profiles();
                }
            } else {
                state.counters.inc_heartbeat_missed();
                cl.membership.mark_missed(peer);
            }
        }
        // Sleep in small slices so a drain is noticed promptly.
        let mut slept = Duration::ZERO;
        while slept < interval && !state.draining.load(Ordering::SeqCst) {
            let chunk = (interval - slept).min(Duration::from_millis(50));
            std::thread::sleep(chunk);
            slept += chunk;
        }
    }
}

fn probe_health(net: &NetFabric, addr: &str, interval: Duration) -> Option<Response> {
    // The probe budget bounds the connect too: against a partitioned
    // peer a plain connect blocks for the OS SYN-retry window (~2 min),
    // which would stretch dead-peer detection from `miss_limit ×
    // interval` to `miss_limit × minutes` — the opposite of failover.
    let mut c =
        client::Client::connect_via(net, addr, Some(interval.max(Duration::from_millis(250))))
            .ok()?;
    c.request(&Request::Health).ok()
}

// ---------------------------------------------------------------------------
// Event-loop front end
// ---------------------------------------------------------------------------

/// Poller token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Poller token of the worker-completion waker.
const WAKER_TOKEN: u64 = 1;
/// First connection token (also the first shard-hash key).
const FIRST_CONN_TOKEN: u64 = 2;

/// Everything the event loop owns for its lifetime.
struct EventLoop<'a> {
    state: &'a Arc<State>,
    poller: Poller,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Jobs dispatched whose completions have not been applied yet — the
    /// drain-exit gate.
    outstanding: usize,
    scratch: Vec<u8>,
    /// Granularity of the reap scan, derived from the configured
    /// timeouts; `None` when both timeouts are disabled. Scanning every
    /// connection on every wakeup would be O(n) per event at tens of
    /// thousands of connections, so deadlines are only checked on this
    /// tick (a reap may therefore land up to one tick late).
    scan_tick: Option<Duration>,
    /// When the next reap scan is due.
    next_scan: Instant,
}

fn serve_event_loop(listener: &TcpListener, state: &Arc<State>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let (waker, wake_rx) = Waker::new()?;
    poller.register(listener, LISTENER_TOKEN, Interest::READ)?;
    poller.register(&wake_rx, WAKER_TOKEN, Interest::READ)?;
    let scan_tick = {
        let timeouts = [state.config.idle_timeout_ms, state.config.write_timeout_ms];
        timeouts
            .iter()
            .filter(|&&ms| ms > 0)
            .min()
            .map(|&ms| Duration::from_millis((ms / 8).clamp(5, 250)))
    };
    let mut el = EventLoop {
        state,
        poller,
        completions: Arc::new(Completions {
            done: Mutex::new(Vec::new()),
            waker,
        }),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        outstanding: 0,
        scratch: vec![0u8; 64 * 1024],
        scan_tick,
        next_scan: Instant::now() + scan_tick.unwrap_or(Duration::from_secs(3600)),
    };

    let mut events: Vec<PollEvent> = Vec::new();
    loop {
        let timeout = el.next_timer();
        el.poller.wait(&mut events, timeout)?;
        state.counters.inc_epoll_wakeup();
        let now = Instant::now();
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => el.accept_ready(listener, now),
                WAKER_TOKEN => wake_rx.drain(),
                token => el.conn_ready(token, ev.readable || ev.hangup, ev.writable, now),
            }
        }
        el.apply_completions(now);
        if let Some(tick) = el.scan_tick {
            if now >= el.next_scan {
                el.reap(now);
                el.next_scan = now + tick;
            }
        }
        if state.draining.load(Ordering::SeqCst)
            && el.outstanding == 0
            && el.conns.values().all(|c| !c.wants_write())
        {
            // Every admitted job has answered and every response byte is
            // on the wire: the drain is complete.
            return Ok(());
        }
    }
}

impl EventLoop<'_> {
    /// Accepts until the listener would block. While draining, accepted
    /// connections are dropped immediately (their requests would only be
    /// answered `busy` anyway).
    fn accept_ready(&mut self, listener: &TcpListener, now: Instant) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.state.draining.load(Ordering::SeqCst) {
                        continue;
                    }
                    // Scripted `in → self` refusal: drop the socket.
                    let Some(stream) = self.state.net.wrap_accepted(stream) else {
                        continue;
                    };
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let conn = Conn::from_net(stream, token, now);
                    if self
                        .poller
                        .register(conn.stream(), token, Interest::READ)
                        .is_ok()
                    {
                        self.conns.insert(token, conn);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Per-connection accept failures (reset before accept,
                // out of fds): drop that connection, keep serving.
                Err(_) => break,
            }
        }
    }

    /// Services one connection's readiness: drain reads, parse and answer
    /// frames, flush writes, update interest, or close on error.
    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, now: Instant) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // already closed this iteration
        };
        let mut keep = true;
        if readable {
            match conn.fill(&mut self.scratch, now) {
                Ok(outcome) => {
                    let mut parsed = 0u64;
                    while let Some(frame) = conn.next_frame() {
                        parsed += 1;
                        self.process_frame(&mut conn, &frame, now);
                    }
                    self.state.counters.add_frames_parsed(parsed);
                    if outcome == ReadOutcome::Eof && conn.is_idle() {
                        keep = false; // clean EOF with nothing pending
                    }
                }
                Err(_) => keep = false,
            }
        }
        if keep && (writable || conn.wants_write()) {
            keep = self.flush_conn(&mut conn, now);
        }
        if keep {
            self.conns.insert(token, conn);
        } else {
            let _ = self.poller.deregister(conn.stream(), token);
        }
    }

    /// Parses and answers one frame. Cheap requests complete their
    /// response slot inline; expensive ones dispatch to the run queue and
    /// complete later via [`Completions`].
    fn process_frame(&mut self, conn: &mut Conn, frame: &[u8], now: Instant) {
        let line = String::from_utf8_lossy(frame);
        if line.trim().is_empty() {
            return; // blank keep-alives are not requests
        }
        let state = self.state;
        state.counters.inc_requests();
        state.retry_budget.note_request();
        let seq = conn.alloc_seq();
        let inline = match Request::from_line(&line) {
            Err(e) => Some(Response::bad_request(e.to_string())),
            Ok(Request::Shutdown) => {
                // Ack first so the ack is ordered before the drain.
                conn.complete(seq, Response::Shutdown.to_line(), now);
                initiate_shutdown(state);
                return;
            }
            Ok(Request::Status) => Some(status_response(state)),
            Ok(Request::Health) => Some(health_response(state)),
            Ok(Request::SetWindow { window, fwd }) => {
                if !fwd && state.cluster.is_some() {
                    // Clustered: the broadcast is wire I/O, so it runs on
                    // a worker instead of stalling the loop thread.
                    self.dispatch(conn, seq, JobKind::SetWindow { window }, None)
                } else {
                    Some(set_window_response(state, window))
                }
            }
            Ok(Request::ClusterMap { device }) => {
                Some(cluster_map_response(state, device.as_deref()))
            }
            Ok(Request::FetchProfile {
                device,
                method,
                window,
            }) => Some(fetch_profile_response(state, &device, method, window)),
            Ok(Request::Submit(r)) => {
                let deadline = r.deadline_ms.map(Duration::from_millis);
                self.dispatch(conn, seq, JobKind::Submit(r), deadline)
            }
            Ok(Request::Characterize(r)) => {
                self.dispatch(conn, seq, JobKind::Characterize(r), None)
            }
            Ok(Request::Replicate(r)) => self.dispatch(conn, seq, JobKind::Replicate(r), None),
            Ok(Request::Sleep { ms }) => self.dispatch(conn, seq, JobKind::Sleep { ms }, None),
        };
        if let Some(response) = inline {
            conn.complete(seq, response.to_line(), now);
        }
    }

    /// Hands a job to the run queue; `Some(response)` means it was
    /// rejected and must be answered inline.
    fn dispatch(
        &mut self,
        conn: &mut Conn,
        seq: u64,
        kind: JobKind,
        deadline: Option<Duration>,
    ) -> Option<Response> {
        let state = self.state;
        if state.draining.load(Ordering::SeqCst) {
            return Some(Response::busy("busy: server is shutting down"));
        }
        let job = Job {
            kind,
            respond: Reply {
                conn: conn.token(),
                seq,
                completions: Arc::clone(&self.completions),
            },
            enqueued: Instant::now(),
            deadline,
        };
        match state.queue.try_push(job, Instant::now(), job_class) {
            Ok((depth, victim)) => {
                if let Some(v) = victim {
                    // The victim's 504 flows back through the completion
                    // mailbox like any finished job, so its connection's
                    // inflight/outstanding accounting balances normally.
                    answer_shed(state, v);
                }
                state.counters.observe_queue_depth(depth as u64);
                conn.inflight += 1;
                self.outstanding += 1;
                None
            }
            Err(PushError::Full(_)) => {
                state.counters.inc_busy_rejection();
                Some(Response::busy("busy: queue is full"))
            }
            Err(PushError::Closed(_)) => Some(Response::busy("busy: server is shutting down")),
        }
    }

    /// Flushes a connection's write buffer and keeps its poller interest
    /// in sync with whether bytes remain. Returns `false` to close.
    fn flush_conn(&mut self, conn: &mut Conn, now: Instant) -> bool {
        match conn.flush(now) {
            Ok(FlushOutcome::Flushed) => {
                if conn.watching_write {
                    conn.watching_write = false;
                    if self
                        .poller
                        .modify(conn.stream(), conn.token(), Interest::READ)
                        .is_err()
                    {
                        return false;
                    }
                }
                !(conn.close_after_flush || (conn.peer_closed && conn.is_idle()))
            }
            Ok(FlushOutcome::Pending) => {
                if !conn.watching_write {
                    // Entering backpressure: the socket refused bytes, so
                    // ask for writable-readiness to finish later.
                    self.state.counters.inc_write_backpressure_event();
                    conn.watching_write = true;
                    if self
                        .poller
                        .modify(conn.stream(), conn.token(), Interest::READ_WRITE)
                        .is_err()
                    {
                        return false;
                    }
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Applies worker completions to their connections and flushes the
    /// newly contiguous responses.
    fn apply_completions(&mut self, now: Instant) {
        let done = std::mem::take(&mut *self.completions.done.lock().unwrap());
        for (token, seq, line) in done {
            self.outstanding -= 1;
            let Some(mut conn) = self.conns.remove(&token) else {
                continue; // connection died while its job ran
            };
            conn.inflight -= 1;
            conn.complete(seq, line, now);
            if self.flush_conn(&mut conn, now) {
                self.conns.insert(token, conn);
            } else {
                let _ = self.poller.deregister(conn.stream(), token);
            }
        }
    }

    /// The poll timeout: time until the next reap-scan tick, or `None`
    /// (block until I/O) when timeouts are disabled or no connection is
    /// open. Per-connection deadlines are deliberately NOT scanned here —
    /// that would be O(n) on every wakeup; the coarse tick bounds the
    /// scan rate instead.
    fn next_timer(&self) -> Option<Duration> {
        if self.scan_tick.is_none() || self.conns.is_empty() {
            return None;
        }
        Some(self.next_scan.saturating_duration_since(Instant::now()))
    }

    /// The timer wheel's firing edge: closes idle connections past the
    /// idle timeout (counted in `connections_reaped`) and write-stalled
    /// connections past the write timeout (not counted: the client stopped
    /// reading, it did not idle).
    fn reap(&mut self, now: Instant) {
        let idle = Duration::from_millis(self.state.config.idle_timeout_ms);
        let stall = Duration::from_millis(self.state.config.write_timeout_ms);
        let mut dead: Vec<(u64, bool)> = Vec::new();
        for (token, conn) in &self.conns {
            if self.state.config.idle_timeout_ms > 0
                && conn.is_idle()
                && now.duration_since(conn.last_activity) >= idle
            {
                dead.push((*token, true));
            } else if self.state.config.write_timeout_ms > 0
                && conn.wants_write()
                && now.duration_since(conn.last_activity) >= stall
            {
                dead.push((*token, false));
            }
        }
        for (token, idle_reap) in dead {
            if idle_reap {
                self.state.counters.inc_connection_reaped();
            }
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.poller.deregister(conn.stream(), token);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(state: &State) {
    while let Some(job) = state.queue.pop() {
        // Deadline check at dequeue: an expired job is answered without
        // consuming worker time, so one slow job cannot cascade 504s into
        // wasted execution for everything queued behind it.
        if let Some(deadline) = job.deadline {
            let waited = job.enqueued.elapsed();
            if waited > deadline {
                state.counters.inc_deadline_expiration();
                state.counters.inc_jobs_failed();
                job.respond.send(Response::deadline_exceeded(format!(
                    "deadline exceeded: waited {} ms in queue (budget {} ms)",
                    waited.as_millis(),
                    deadline.as_millis()
                )));
                continue;
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The worker fault site: one arrival per job picked up.
            if let Some(f) = state.faults.check(FaultSite::Worker) {
                f.apply_latency();
                match f {
                    Fault::Error(m) => return Response::failed(m),
                    Fault::Panic(m) => panic!("{m}"),
                    _ => {}
                }
            }
            execute_job(state, &job.kind, job.enqueued)
        }));
        let mut response =
            result.unwrap_or_else(|_| Response::failed("job panicked; see server log"));
        let latency_us = u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.counters.record_latency_us(latency_us);
        match &mut response {
            Response::Submit(r) => r.latency_us = latency_us,
            Response::Characterize(r) => r.latency_us = latency_us,
            _ => {}
        }
        // A 4xx means the job ran and answered a client error; only a
        // server-side failure (500, 503, 504) counts as a failed job.
        if matches!(response, Response::Error { code, .. } if code >= 500) {
            state.counters.inc_jobs_failed();
        } else {
            state.counters.inc_jobs_executed();
        }
        job.respond.send(response);
    }
}

/// The device as calibrated in the current window.
fn snapshot_device(state: &State, name: &str, window: u64) -> Option<DeviceModel> {
    let nominal = DeviceModel::by_name(name)?;
    Some(
        CalibrationDrift::new(nominal, state.config.drift_amplitude)
            .with_seed(state.config.drift_seed)
            .window(window),
    )
}

fn count_cache_outcome(state: &State, outcome: CacheOutcome) {
    match outcome {
        CacheOutcome::Hit | CacheOutcome::DiskHit => state.counters.inc_cache_hit(),
        CacheOutcome::Miss => state.counters.inc_cache_miss(),
        // Stale serves are tracked in `degraded_responses` by the cache;
        // they are neither a hit (the entry was invalid) nor a miss (no
        // characterization ran).
        CacheOutcome::Stale | CacheOutcome::None => {}
    }
}

fn cache_error_response(e: CacheError) -> Response {
    match e {
        CacheError::Invalid(m) => Response::bad_request(m),
        CacheError::Unavailable(m) => Response::busy(m),
    }
}

fn execute_job(state: &State, kind: &JobKind, enqueued: Instant) -> Response {
    match kind {
        JobKind::Sleep { ms } => {
            let ms = (*ms).min(state.config.max_sleep_ms);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Response::Slept { ms }
        }
        JobKind::Characterize(r) => execute_characterize(state, r),
        JobKind::Submit(r) => execute_submit(state, r, enqueued),
        JobKind::Replicate(r) => execute_replicate(state, r),
        JobKind::SetWindow { window } => execute_set_window(state, *window),
    }
}

fn execute_characterize(state: &State, r: &CharacterizeRequest) -> Response {
    match route_request(state, &r.device, r.fwd) {
        RouteDecision::Forward(ladder) => {
            let mut forwarded = r.clone();
            forwarded.fwd = true;
            forward_or_failover(state, &ladder, Request::Characterize(forwarded), || {
                characterize_local(state, r)
            })
        }
        RouteDecision::Local { failover } => {
            if failover {
                state.counters.inc_failover();
            }
            characterize_local(state, r)
        }
    }
}

fn characterize_local(state: &State, r: &CharacterizeRequest) -> Response {
    let window = state.window.load(Ordering::SeqCst);
    let Some(snapshot) = snapshot_device(state, &r.device, window) else {
        return Response::bad_request(format!("unknown device {:?}", r.device));
    };
    let shots = if r.shots == 0 {
        state.config.profile_shots
    } else {
        r.shots
    };
    match state
        .cache
        .get_or_measure(&r.device, &snapshot, window, r.method, shots)
    {
        Ok((table, outcome)) => {
            count_cache_outcome(state, outcome);
            Response::Characterize(CharacterizeResponse {
                device: r.device.clone(),
                window,
                method: r.method,
                width: table.width() as u64,
                trials: table.trials_used(),
                strongest: table.strongest_state().to_string(),
                weakest: table.weakest_state().to_string(),
                cache: outcome,
                latency_us: 0, // patched by the worker loop
                degraded: outcome == CacheOutcome::Stale,
            })
        }
        Err(e) => cache_error_response(e),
    }
}

fn execute_submit(state: &State, r: &SubmitRequest, enqueued: Instant) -> Response {
    // Only AIM consults a profile, so only AIM routes; baseline and SIM
    // jobs run wherever they land, clustered or not.
    if r.policy == PolicyKind::Aim {
        match route_request(state, &r.device, r.fwd) {
            RouteDecision::Forward(ladder) => {
                let mut forwarded = r.clone();
                forwarded.fwd = true;
                // The queue-time budget is end-to-end, not per-hop: spend
                // what this node's queue already consumed before handing
                // the remainder to the owner, so the total wait a client
                // can see never exceeds the deadline it asked for.
                if let Some(budget) = forwarded.deadline_ms {
                    let spent = u64::try_from(enqueued.elapsed().as_millis()).unwrap_or(u64::MAX);
                    forwarded.deadline_ms = Some(budget.saturating_sub(spent));
                }
                return forward_or_failover(state, &ladder, Request::Submit(forwarded), || {
                    submit_local(state, r)
                });
            }
            RouteDecision::Local { failover } => {
                if failover {
                    state.counters.inc_failover();
                }
            }
        }
    }
    submit_local(state, r)
}

fn submit_local(state: &State, r: &SubmitRequest) -> Response {
    if r.shots == 0 {
        return Response::bad_request("shots must be positive");
    }
    let window = state.window.load(Ordering::SeqCst);
    let Some(snapshot) = snapshot_device(state, &r.device, window) else {
        return Response::bad_request(format!("unknown device {:?}", r.device));
    };
    let circuit = match qsim::qasm::from_qasm(&r.qasm) {
        Ok(c) => c,
        Err(e) => return Response::bad_request(format!("bad qasm: {e}")),
    };
    let n = snapshot.n_qubits();
    if circuit.n_qubits() != n {
        return Response::bad_request(format!(
            "program has {} qubits but {} has {n}; route it before submitting",
            circuit.n_qubits(),
            r.device
        ));
    }

    let mut runner = Runner::new(snapshot)
        .with_seed(r.seed)
        .with_threads(state.config.exec_threads)
        .with_faults(Arc::clone(&state.faults));
    let (choice, cache_outcome) = match r.policy {
        PolicyKind::Baseline => (PolicyChoice::Baseline, CacheOutcome::None),
        PolicyKind::Sim => (PolicyChoice::Sim, CacheOutcome::None),
        PolicyKind::Aim => {
            // AIM's profile comes from the shared cache, never measured
            // per-request — the whole point of the service (§6.2.1).
            let method = if n <= 5 {
                MethodKind::Brute
            } else {
                MethodKind::Awct
            };
            let window_snapshot = runner.device().clone();
            match state.cache.get_or_measure(
                &r.device,
                &window_snapshot,
                window,
                method,
                state.config.profile_shots,
            ) {
                Ok((table, outcome)) => {
                    count_cache_outcome(state, outcome);
                    runner.set_profile(table);
                    (PolicyChoice::Aim, outcome)
                }
                Err(e) => return cache_error_response(e),
            }
        }
    };

    let log = runner.run(choice, &circuit, r.shots);
    let ranked = log.ranked();
    let distinct = ranked.len() as u64;
    let counts: Vec<(String, u64)> = ranked
        .into_iter()
        .take(SubmitResponse::MAX_COUNTS)
        .map(|(s, c)| (s.to_string(), c))
        .collect();

    let (mut pst, mut ist, mut roca) = (None, None, None);
    if let Some(expected) = &r.expected {
        let expected: BitString = match expected.parse() {
            Ok(b) => b,
            Err(e) => return Response::bad_request(format!("bad expected bits: {e}")),
        };
        if expected.width() != log.width() {
            return Response::bad_request(format!(
                "expected has {} bits but outputs have {}",
                expected.width(),
                log.width()
            ));
        }
        let report = ReliabilityReport::evaluate(&log, &CorrectSet::single(expected));
        pst = Some(report.pst);
        // IST is ∞ when no incorrect output was ever observed; JSON has no
        // spelling for that, so the field is simply omitted.
        ist = Some(report.ist).filter(|x| x.is_finite());
        roca = report.roca.map(|x| x as u64);
    }

    Response::Submit(SubmitResponse {
        device: r.device.clone(),
        window,
        policy: r.policy,
        shots: r.shots,
        total: log.total(),
        distinct,
        counts,
        cache: cache_outcome,
        latency_us: 0, // patched by the worker loop
        degraded: cache_outcome == CacheOutcome::Stale,
        pst,
        ist,
        roca,
    })
}

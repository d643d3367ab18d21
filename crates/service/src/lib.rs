//! # invmeas-service — the long-running mitigation server
//!
//! PR 1–2 made single runs fast; this crate makes them *servable*. The
//! paper's deployment story (§6.1–§6.2) is that RBMS profiles are
//! expensive to measure but stable across calibration windows, which only
//! pays off in a long-lived process that amortizes characterization across
//! requests. The service is that process:
//!
//! * [`protocol`] — a versioned newline-delimited JSON request/response
//!   schema (`submit`, `characterize`, `status`, `set-window`, `sleep`,
//!   `shutdown`) with a hand-rolled serializer/parser ([`json`]) in the
//!   spirit of `profile_io`'s `rbms v1` format — `std` only, per the
//!   workspace's offline-dependency policy;
//! * [`queue`] — the bounded run queue between the event loop and the
//!   workers; a full queue answers `503 busy` instead of growing without
//!   bound (backpressure), and work whose deadline already passed is shed
//!   first;
//! * [`poll`] — a dependency-free readiness poller (raw `epoll` syscalls
//!   on Linux, a portable fallback elsewhere) plus a cross-thread
//!   [`poll::Waker`], the foundation of the event-loop front end;
//! * [`conn`] — per-connection state machines: incremental newline-frame
//!   parsing over a reusable read buffer, in-order response slots for
//!   pipelined clients, and write buffers that serialize each response
//!   exactly once;
//! * [`cache`] — the drift-aware profile cache keyed by
//!   `(device, method)` and invalidated on calibration-window advance or
//!   a [`qnoise::drift_score`] above threshold, with `profile_io`
//!   write-through persistence — a burst of N AIM requests against one
//!   device performs **one** characterization;
//! * [`breaker`] — per-device circuit breakers and a deterministic
//!   bounded-retry policy around transient characterization failures;
//! * [`server`] — the readiness-driven event-loop front end, the
//!   worker pool, idle-connection reaper, per-job deadlines, panic
//!   isolation, and graceful drain;
//! * [`client`] — the blocking client used by `invmeas submit` and tests,
//!   with default timeouts and reconnect-once retry of idempotent
//!   requests.
//!
//! Failure paths are rehearsed, not hoped for: the whole resilience layer
//! is driven by the deterministic fault-injection scripts in
//! [`invmeas_faults`] (see `DESIGN.md` §12 and `crates/service/tests/chaos.rs`).
//!
//! Everything is deterministic under fixed seeds: request results depend
//! only on `(device, window, policy, shots, seed)` and cached profiles
//! depend only on server configuration — never on request arrival order.
//!
//! ```no_run
//! use invmeas_service::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! server.serve()?; // blocks until a shutdown request drains the queue
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breaker;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod conn;
pub mod json;
pub mod membership;
pub mod net;
pub mod overload;
pub mod poll;
pub mod protocol;
pub mod queue;
pub mod replicate;
pub mod server;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use cache::{CacheConfig, CacheError, CacheHealth, ProfileCache};
pub use client::{call, Client, ClientError, ClientReader, ClientSender, DEFAULT_TIMEOUT};
pub use cluster::{ClusterConfig, ClusterError, HashRing, Route};
pub use conn::{Conn, FrameBuffer};
pub use json::Json;
pub use membership::Membership;
pub use net::{NetFabric, NetStream};
pub use overload::{DialGate, RetryBudget};
pub use poll::{Interest, PollEvent, Poller, Waker};
pub use protocol::{
    CacheOutcome, CharacterizeRequest, CharacterizeResponse, ClusterMapResponse, HealthResponse,
    MethodKind, PolicyKind, ReplicateRequest, Request, Response, RouteInfo, StatusResponse,
    SubmitRequest, SubmitResponse, PROTOCOL_VERSION,
};
pub use queue::{BoundedQueue, PushError, ShedClass};
pub use replicate::{MeshReplicator, ProfileReplicator};
pub use server::{Server, ServerConfig};

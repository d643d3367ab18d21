//! Event-loop front-end tests: run-queue fairness under a
//! multi-connection pipelined load, arrival-order independence of results
//! across worker counts (the determinism contract extended to the run
//! queue), and pipelined response ordering.

use invmeas_service::{
    CacheOutcome, Client, PolicyKind, Request, Response, Server, ServerConfig, SubmitRequest,
};
use std::net::SocketAddr;
use std::thread::JoinHandle;

type ServeHandle = JoinHandle<std::io::Result<qmetrics::CountersSnapshot>>;

fn start(config: ServerConfig) -> (SocketAddr, ServeHandle) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: ServeHandle) -> qmetrics::CountersSnapshot {
    let resp = invmeas_service::call(addr, &Request::Shutdown).expect("shutdown");
    assert_eq!(resp, Response::Shutdown);
    handle.join().expect("serve panicked").expect("serve error")
}

fn qasm_5q() -> String {
    qsim::qasm::to_qasm(&qsim::Circuit::basis_state_preparation(
        "11111".parse().expect("bits"),
    ))
}

fn submit_req(seed: u64, deadline_ms: Option<u64>) -> Request {
    Request::Submit(SubmitRequest {
        device: "ibmqx4".into(),
        qasm: qasm_5q(),
        policy: PolicyKind::Aim,
        shots: 500,
        seed,
        expected: Some("11111".into()),
        deadline_ms,
        fwd: false,
    })
}

/// `conns` pipelined clients, each sending `per_conn` deadline-carrying
/// submits, against a server with the given worker count. Returns every
/// submit response, normalized for scheduling noise (latency zeroed, the
/// single racy Miss/Hit outcome canonicalized), re-serialized and sorted.
fn run_load(
    workers: usize,
    conns: usize,
    per_conn: usize,
) -> (Vec<String>, qmetrics::CountersSnapshot) {
    let (addr, handle) = start(ServerConfig {
        workers,
        queue_capacity: 256,
        profile_shots: 64,
        ..ServerConfig::default()
    });

    let mut all: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Every connection sends its whole batch before reading
                    // anything: the queue absorbs the burst, the workers
                    // drain it, and the generous deadline proves nobody
                    // starved.
                    let requests: Vec<Request> = (0..per_conn)
                        .map(|i| submit_req(1000 + (c * per_conn + i) as u64, Some(60_000)))
                        .collect();
                    client.pipeline(&requests).expect("pipelined batch")
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    let counters = shutdown(addr, handle);
    let normalized: Vec<String> = all
        .iter_mut()
        .map(|r| match r {
            Response::Submit(s) => {
                s.latency_us = 0;
                // Exactly one response carries the burst's Miss; which
                // connection wins that race is scheduling, not results.
                s.cache = CacheOutcome::None;
                r.to_line()
            }
            other => panic!("expected submit response, got {other:?}"),
        })
        .collect();
    let mut sorted = normalized;
    sorted.sort();
    (sorted, counters)
}

#[test]
fn run_queue_starves_no_connection_and_results_are_worker_count_independent() {
    const CONNS: usize = 8;
    const PER_CONN: usize = 6;

    let (four_workers, counters) = run_load(4, CONNS, PER_CONN);
    // Fairness: every pipelined submit on every connection completed
    // inside its (generous) deadline — no 503, no 504, no starved
    // connection.
    assert_eq!(four_workers.len(), CONNS * PER_CONN);
    assert_eq!(counters.deadline_expirations, 0, "a connection starved");
    assert_eq!(counters.busy_rejections, 0);
    assert_eq!(counters.jobs_executed as usize, CONNS * PER_CONN);
    assert_eq!(counters.jobs_failed, 0);
    // The burst still converged on one characterization (PR 3 contract).
    assert_eq!(
        counters.cache_misses, 1,
        "one characterization for the burst"
    );
    assert_eq!(counters.cache_hits as usize, CONNS * PER_CONN - 1);
    assert!(counters.frames_parsed >= (CONNS * PER_CONN) as u64);

    // Arrival-order independence across worker counts: identical
    // workload, 1 worker vs 4 workers, byte-identical normalized
    // responses.
    let (one_worker, counters) = run_load(1, CONNS, PER_CONN);
    assert_eq!(counters.deadline_expirations, 0, "a connection starved");
    assert_eq!(counters.busy_rejections, 0);
    assert_eq!(one_worker, four_workers, "results depend on worker count");
}

#[test]
fn pipelined_responses_come_back_in_request_order() {
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    // A mix whose response *types* encode the order, including jobs
    // that finish at different times (sleeps) between inline replies.
    let batch = vec![
        Request::SetWindow {
            window: 7,
            fwd: false,
        },
        Request::Sleep { ms: 120 },
        Request::Health,
        Request::Sleep { ms: 0 },
        Request::Status,
    ];
    let responses = client.pipeline(&batch).expect("pipeline");
    assert_eq!(responses.len(), batch.len());
    assert!(
        matches!(responses[0], Response::Window { window: 7 }),
        "{:?}",
        responses[0]
    );
    assert!(
        matches!(responses[1], Response::Slept { ms: 120 }),
        "{:?}",
        responses[1]
    );
    assert!(
        matches!(responses[2], Response::Health(_)),
        "{:?}",
        responses[2]
    );
    assert!(
        matches!(responses[3], Response::Slept { ms: 0 }),
        "{:?}",
        responses[3]
    );
    assert!(
        matches!(responses[4], Response::Status(_)),
        "{:?}",
        responses[4]
    );
    drop(client);
    shutdown(addr, handle);
}

#[test]
fn event_loop_counts_frames_and_wakeups() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        let r = client.request(&Request::Health).expect("health");
        assert!(matches!(r, Response::Health(_)));
    }
    drop(client);
    let counters = shutdown(addr, handle);
    assert!(
        counters.frames_parsed >= 4,
        "3 healths + shutdown, got {}",
        counters.frames_parsed
    );
    assert!(counters.epoll_wakeups > 0, "the loop never woke");
}

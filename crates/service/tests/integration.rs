//! End-to-end service tests over real TCP sockets (the ISSUE 3 acceptance
//! scenarios): concurrent submits share one characterization, a full queue
//! answers busy instead of blocking, advancing the calibration window
//! invalidates the cached profile, and shutdown drains in-flight jobs.

use invmeas_service::{
    call, CacheOutcome, CharacterizeRequest, Client, MethodKind, PolicyKind, Request, Response,
    Server, ServerConfig, SubmitRequest,
};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

type ServeHandle = JoinHandle<std::io::Result<qmetrics::CountersSnapshot>>;

fn start(config: ServerConfig) -> (SocketAddr, ServeHandle) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: ServeHandle) -> qmetrics::CountersSnapshot {
    assert_eq!(
        call(addr, &Request::Shutdown).expect("shutdown"),
        Response::Shutdown
    );
    handle
        .join()
        .expect("serve thread panicked")
        .expect("serve returned an error")
}

fn qasm_5q() -> String {
    qsim::qasm::to_qasm(&qsim::Circuit::basis_state_preparation(
        "11111".parse().expect("bits"),
    ))
}

fn submit_req(seed: u64) -> Request {
    Request::Submit(SubmitRequest {
        device: "ibmqx4".into(),
        qasm: qasm_5q(),
        policy: PolicyKind::Aim,
        shots: 2000,
        seed,
        expected: Some("11111".into()),
        deadline_ms: None,
        fwd: false,
    })
}

fn status(addr: SocketAddr) -> invmeas_service::StatusResponse {
    match call(addr, &Request::Status).expect("status") {
        Response::Status(s) => s,
        other => panic!("wrong response {other:?}"),
    }
}

#[test]
fn concurrent_submits_share_one_characterization_and_window_advance_invalidates() {
    let (addr, handle) = start(ServerConfig {
        workers: 4,
        queue_capacity: 16,
        profile_shots: 128,
        ..ServerConfig::default()
    });

    // ── 8 concurrent AIM submits against one device ─────────────────────
    let responses: Vec<_> = std::thread::scope(|scope| {
        let jobs: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || match call(addr, &submit_req(7)).expect("submit") {
                    Response::Submit(r) => r,
                    other => panic!("wrong response {other:?}"),
                })
            })
            .collect();
        jobs.into_iter()
            .map(|j| j.join().expect("client"))
            .collect()
    });

    // Exactly one characterization ran (cache-hit counter is the witness).
    let s = status(addr);
    assert_eq!(
        s.counters.cache_misses, 1,
        "one characterization for the burst"
    );
    assert_eq!(s.counters.cache_hits, 7, "everyone else hit the cache");
    assert_eq!(s.counters.jobs_executed, 8);
    assert_eq!(s.counters.jobs_failed, 0);
    assert_eq!(s.counters.busy_rejections, 0);

    let miss_count = responses
        .iter()
        .filter(|r| r.cache == CacheOutcome::Miss)
        .count();
    assert_eq!(miss_count, 1, "exactly one response reports the miss");

    // Same seed + shared profile ⇒ bitwise identical logs for all eight,
    // regardless of scheduling (exact counts over a real socket).
    for r in &responses {
        assert_eq!(r.total, 2000);
        assert_eq!(r.window, 0);
        assert_eq!(r.counts, responses[0].counts);
        assert_eq!(r.pst, responses[0].pst);
        let summed: u64 = r.counts.iter().map(|(_, n)| n).sum();
        assert!(summed <= 2000 && r.distinct >= r.counts.len() as u64);
        assert!(r.pst.expect("expected given") > 0.0);
    }

    // ── a characterization request is served from the same cache ────────
    let char_req = Request::Characterize(CharacterizeRequest {
        device: "ibmqx4".into(),
        method: MethodKind::Brute,
        shots: 0, // server default = profile_shots, same cache key
        fwd: false,
    });
    match call(addr, &char_req).expect("characterize") {
        Response::Characterize(r) => {
            assert_eq!(
                r.cache,
                CacheOutcome::Hit,
                "profile already measured by the burst"
            );
            assert_eq!(r.width, 5);
            assert!(r.trials > 0);
        }
        other => panic!("wrong response {other:?}"),
    }
    assert_eq!(status(addr).counters.cache_hits, 8);

    // ── advancing the drift window invalidates the cached profile ───────
    match call(
        addr,
        &Request::SetWindow {
            window: 1,
            fwd: false,
        },
    )
    .expect("set-window")
    {
        Response::Window { window } => assert_eq!(window, 1),
        other => panic!("wrong response {other:?}"),
    }
    let after = match call(addr, &submit_req(7)).expect("submit") {
        Response::Submit(r) => r,
        other => panic!("wrong response {other:?}"),
    };
    assert_eq!(after.window, 1);
    assert_eq!(
        after.cache,
        CacheOutcome::Miss,
        "window advance must re-characterize"
    );
    let s = status(addr);
    assert_eq!(
        s.counters.cache_misses, 2,
        "second characterization after invalidation"
    );
    assert_eq!(s.window, 1);

    shutdown(addr, handle);
}

#[test]
fn submits_are_deterministic_per_seed_across_servers() {
    let run_once = || {
        let (addr, handle) = start(ServerConfig {
            workers: 2,
            profile_shots: 64,
            ..ServerConfig::default()
        });
        let r = match call(addr, &submit_req(42)).expect("submit") {
            Response::Submit(r) => r,
            other => panic!("wrong response {other:?}"),
        };
        shutdown(addr, handle);
        r
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.counts, b.counts, "same seed + config ⇒ exact same counts");
    assert_eq!(a.pst, b.pst);
}

#[test]
fn full_queue_answers_busy_instead_of_blocking() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });

    // Occupy the single worker, then fill the single queue slot.
    let sleepers: Vec<_> = (0..2)
        .map(|_| {
            let h = std::thread::spawn(move || call(addr, &Request::Sleep { ms: 1500 }));
            std::thread::sleep(Duration::from_millis(200));
            h
        })
        .collect();

    // Queue is now full: the next job must be rejected immediately.
    let t0 = std::time::Instant::now();
    match call(addr, &Request::Sleep { ms: 10 }).expect("busy call") {
        Response::Error { code, message } => {
            assert_eq!(code, 503);
            assert!(message.contains("busy"), "{message}");
        }
        other => panic!("expected busy, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(1000),
        "busy must not wait for the queue to drain"
    );
    assert!(status(addr).counters.busy_rejections >= 1);

    // The admitted jobs still complete normally.
    for s in sleepers {
        match s.join().expect("sleeper").expect("response") {
            Response::Slept { ms } => assert_eq!(ms, 1500),
            other => panic!("wrong response {other:?}"),
        }
    }
    shutdown(addr, handle);
}

#[test]
fn shutdown_drains_admitted_jobs() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });

    // A job the worker is busy with when shutdown arrives…
    let in_flight = std::thread::spawn(move || call(addr, &Request::Sleep { ms: 800 }));
    std::thread::sleep(Duration::from_millis(150));
    // …and one sitting in the queue behind it.
    let queued = std::thread::spawn(move || call(addr, &Request::Sleep { ms: 10 }));
    std::thread::sleep(Duration::from_millis(50));

    let final_counters = shutdown(addr, handle); // returns only after the drain
    assert_eq!(
        final_counters.jobs_executed, 2,
        "both admitted jobs ran to completion"
    );

    match in_flight.join().expect("join").expect("in-flight response") {
        Response::Slept { ms } => assert_eq!(ms, 800),
        other => panic!("in-flight job lost: {other:?}"),
    }
    match queued.join().expect("join").expect("queued response") {
        Response::Slept { ms } => assert_eq!(ms, 10),
        other => panic!("queued job lost: {other:?}"),
    }

    // And the server is really gone.
    assert!(call(addr, &Request::Status).is_err());
}

#[test]
fn protocol_errors_over_the_wire() {
    use std::io::{BufRead, BufReader, Write};

    let (addr, handle) = start(ServerConfig::default());

    // Raw garbage line → 400 with a parse message, connection stays open.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"this is not json\n").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":false"), "{line}");
    assert!(line.contains("\"code\":400"), "{line}");

    // The same connection still serves valid requests afterwards.
    stream
        .write_all((Request::Status.to_line() + "\n").as_bytes())
        .expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"op\":\"status\""), "{line}");

    // Unknown device and bad QASM surface as 400s, not hangs.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let bad_device = Request::Submit(SubmitRequest {
        device: "tokyo".into(),
        qasm: qasm_5q(),
        policy: PolicyKind::Baseline,
        shots: 10,
        seed: 1,
        expected: None,
        deadline_ms: None,
        fwd: false,
    });
    match client.request(&bad_device).expect("response") {
        Response::Error { code, message } => {
            assert_eq!(code, 400);
            assert!(message.contains("unknown device"), "{message}");
        }
        other => panic!("wrong response {other:?}"),
    }
    let bad_qasm = Request::Submit(SubmitRequest {
        device: "ibmqx4".into(),
        qasm: "definitely not qasm".into(),
        policy: PolicyKind::Baseline,
        shots: 10,
        seed: 1,
        expected: None,
        deadline_ms: None,
        fwd: false,
    });
    match client.request(&bad_qasm).expect("response") {
        Response::Error { code, message } => {
            assert_eq!(code, 400);
            assert!(message.contains("bad qasm"), "{message}");
        }
        other => panic!("wrong response {other:?}"),
    }

    shutdown(addr, handle);
}

/// A characterization beyond its technique's width limit (ESCT beyond
/// 16 qubits) is a client error, answered 400 without panicking a worker.
#[test]
fn over_wide_esct_characterization_is_a_bad_request() {
    let (addr, handle) = start(ServerConfig::default());
    let req = Request::Characterize(CharacterizeRequest {
        device: "ideal-17".into(),
        method: MethodKind::Esct,
        shots: 0,
        fwd: false,
    });
    match call(addr, &req).expect("response") {
        Response::Error { code, message } => {
            assert_eq!(code, 400);
            assert!(message.contains("limited to 16 qubits"), "{message}");
        }
        other => panic!("wrong response {other:?}"),
    }
    // The job ran and answered a client error: executed, not failed.
    let counters = shutdown(addr, handle);
    assert_eq!(counters.jobs_failed, 0);
    assert_eq!(counters.jobs_executed, 1);
}

/// One line of 200 000 `[` used to overflow the event-loop thread's stack
/// and abort the node. It must now be an ordinary `400`, and the node must
/// keep serving.
#[test]
fn deeply_nested_frame_is_rejected_and_the_node_survives() {
    use std::io::{BufRead, BufReader, Write};

    let (addr, handle) = start(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut frame = "[".repeat(200_000);
    frame.push('\n');
    stream.write_all(frame.as_bytes()).expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    match Response::from_line(line.trim_end()).expect("a protocol response") {
        Response::Error { code, message } => {
            assert_eq!(code, 400);
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("wrong response {other:?}"),
    }
    drop(reader);
    drop(stream);

    assert!(!status(addr).draining, "a fresh connection is served");
    shutdown(addr, handle);
}

//! Partial-frame torture tests (ISSUE 7): the event loop's incremental
//! frame parser must produce byte-identical responses no matter how the
//! kernel slices request bytes across reads. Every deterministic request
//! line is replayed split at **each** byte boundary (two writes with a
//! pause in between, so the halves really arrive as separate reads), and
//! two frames are coalesced into a single write to prove the opposite
//! direction.

use invmeas_service::{PolicyKind, Request, Server, ServerConfig, SubmitRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
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
    let resp = invmeas_service::call(addr, &Request::Shutdown).expect("shutdown");
    assert_eq!(resp, invmeas_service::Response::Shutdown);
    handle.join().expect("serve panicked").expect("serve error")
}

/// Request lines whose responses are byte-deterministic (no latency or
/// counter fields), so a straight `assert_eq!` on the raw response line is
/// meaningful. Worker-path 400s are included on purpose: they cross the
/// run queue and come back through the completion path.
fn deterministic_lines() -> Vec<String> {
    vec![
        Request::Health.to_line(),
        Request::SetWindow {
            window: 5,
            fwd: false,
        }
        .to_line(),
        Request::Sleep { ms: 0 }.to_line(),
        "this is not json".to_string(),
        Request::Submit(SubmitRequest {
            device: "not-a-device".into(),
            qasm: "OPENQASM 2.0;".into(),
            policy: PolicyKind::Baseline,
            shots: 10,
            seed: 1,
            expected: None,
            deadline_ms: None,
            fwd: false,
        })
        .to_line(),
        Request::Submit(SubmitRequest {
            device: "ibmqx4".into(),
            qasm: "OPENQASM 2.0;".into(),
            policy: PolicyKind::Baseline,
            shots: 0, // "shots must be positive"
            seed: 1,
            expected: None,
            deadline_ms: None,
            fwd: false,
        })
        .to_line(),
    ]
}

struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Wire { stream, reader }
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed mid-conversation");
        line
    }

    fn roundtrip_whole(&mut self, line: &str) -> String {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.read_line()
    }

    /// Sends `line` in two writes split at `at`, separated long enough
    /// that the server observes two distinct reads.
    fn roundtrip_split(&mut self, line: &str, at: usize) -> String {
        let framed = format!("{line}\n");
        let bytes = framed.as_bytes();
        self.stream.write_all(&bytes[..at]).expect("write head");
        self.stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
        self.stream.write_all(&bytes[at..]).expect("write tail");
        self.read_line()
    }
}

fn torture(config: ServerConfig) {
    let (addr, handle) = start(config);
    let mut wire = Wire::connect(addr);

    for line in deterministic_lines() {
        let reference = wire.roundtrip_whole(&line);
        // Every interior byte boundary, including a 1-byte head and a
        // lone trailing '\n'.
        for at in 1..=line.len() {
            let got = wire.roundtrip_split(&line, at);
            assert_eq!(
                got, reference,
                "response diverged for {line:?} split at byte {at}"
            );
        }
    }

    // Two frames coalesced into one write come back as two in-order
    // responses, identical to their one-frame-per-write replies.
    let lines = deterministic_lines();
    let (a, b) = (&lines[0], &lines[1]);
    let (ref_a, ref_b) = (wire.roundtrip_whole(a), wire.roundtrip_whole(b));
    wire.stream
        .write_all(format!("{a}\n{b}\n").as_bytes())
        .expect("coalesced write");
    assert_eq!(wire.read_line(), ref_a, "first coalesced frame");
    assert_eq!(wire.read_line(), ref_b, "second coalesced frame");

    // And a frame delivered strictly one byte at a time.
    let drip = &lines[4];
    let reference = wire.roundtrip_whole(drip);
    let framed = format!("{drip}\n");
    for chunk in framed.as_bytes().chunks(1) {
        wire.stream.write_all(chunk).expect("drip write");
    }
    assert_eq!(wire.read_line(), reference, "byte-at-a-time frame");

    drop(wire);
    let counters = shutdown(addr, handle);
    assert_eq!(
        counters.connections_reaped, 0,
        "no torture client was reaped"
    );
}

#[test]
fn split_frames_are_byte_identical_on_the_event_loop() {
    torture(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
}

/// The receive half of the torture: [`Client::recv_resumable`] must keep
/// a partially received response banked across read timeouts, for a
/// response split at **every** byte boundary. A scripted server writes
/// the head of the frame, stalls long past the client's read timeout,
/// then writes the tail — the first `recv_resumable` call times out with
/// the head buffered and a later call completes the same line.
#[test]
fn recv_resumable_resumes_partial_lines_at_every_byte_split() {
    use invmeas_service::{Client, ClientError, Response};
    use std::net::TcpListener;

    let canned = Response::Window { window: 9 }.to_line();
    let framed = format!("{canned}\n");
    let reference = Response::from_line(&canned).expect("canned response parses");
    let splits: Vec<usize> = (1..framed.len()).collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let framed = framed.clone();
        let splits = splits.clone();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            for at in splits {
                let mut request = String::new();
                assert!(
                    reader.read_line(&mut request).expect("read request") > 0,
                    "client hung up early"
                );
                let bytes = framed.as_bytes();
                writer.write_all(&bytes[..at]).expect("write head");
                writer.flush().expect("flush head");
                // Long past the client's read timeout: the client *will*
                // observe a timeout with only the head delivered.
                std::thread::sleep(Duration::from_millis(75));
                writer.write_all(&bytes[at..]).expect("write tail");
                writer.flush().expect("flush tail");
            }
        })
    };

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_millis(25)))
        .expect("set timeout");
    for at in splits {
        client.send(&Request::Health).expect("send probe");
        let mut timeouts = 0u32;
        let got = loop {
            match client.recv_resumable() {
                Ok(response) => break response,
                Err(ClientError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    timeouts += 1;
                    assert!(timeouts < 1_000, "response never completed (split {at})");
                }
                Err(e) => panic!("unexpected receive error at split {at}: {e}"),
            }
        };
        assert!(
            timeouts >= 1,
            "split {at}: the head must have arrived alone at least once"
        );
        assert_eq!(got, reference, "response diverged for split at byte {at}");
    }
    drop(client);
    server.join().expect("fake server panicked");
}

/// Pipelined batches through a slow-writing fault fabric: the client's
/// request bytes trickle onto the wire in 3-byte chunks with delays, so
/// the server sees maximally sheared frames — responses must still come
/// back in order and byte-identical to an unimpaired client's.
#[test]
fn pipelined_responses_survive_a_slow_write_fabric() {
    use invmeas_faults::{NetFault, NetFaultPlan};
    use invmeas_service::{Client, NetFabric};
    use std::sync::Arc;

    let (addr, handle) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    // No `health` here: its `queue_depth` legitimately differs between a
    // coalesced batch (later frames already queued) and a trickled one.
    let batch = vec![
        Request::SetWindow {
            window: 5,
            fwd: false,
        },
        Request::Sleep { ms: 0 },
        Request::Submit(SubmitRequest {
            device: "not-a-device".into(),
            qasm: "OPENQASM 2.0;".into(),
            policy: PolicyKind::Baseline,
            shots: 10,
            seed: 1,
            expected: None,
            deadline_ms: None,
            fwd: false,
        }),
        Request::Submit(SubmitRequest {
            device: "ibmqx4".into(),
            qasm: "OPENQASM 2.0;".into(),
            policy: PolicyKind::Baseline,
            shots: 0, // "shots must be positive"
            seed: 1,
            expected: None,
            deadline_ms: None,
            fwd: false,
        }),
        Request::SetWindow {
            window: 5,
            fwd: false,
        },
    ];

    let mut direct = Client::connect(addr).expect("direct client");
    let reference = direct.pipeline(&batch).expect("direct pipeline");

    // Every dial from this fabric slow-writes: 3-byte chunks, 2 ms apart.
    let plan = Arc::new(NetFaultPlan::new(21).on_connect(
        "client",
        "n0",
        1,
        NetFault::SlowWrite {
            chunk: 3,
            delay_ms: 2,
        },
    ));
    let fabric = NetFabric::new("client", vec![(addr, "n0".into())], Some(plan.clone()));
    let mut slow =
        Client::connect_via(&fabric, addr, Some(Duration::from_secs(30))).expect("slow client");
    let got = slow.pipeline(&batch).expect("slow pipeline");

    assert_eq!(got, reference, "slow-written batch must answer identically");
    assert_eq!(plan.injected(), 1, "the slow-write fault must have armed");

    drop(direct);
    drop(slow);
    shutdown(addr, handle);
}

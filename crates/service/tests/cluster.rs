//! Profile-mesh integration tests (ISSUE 8) over real TCP sockets: a
//! replicated profile with a flipped bit is rejected by checksum and
//! re-fetched clean, and a three-node cluster whose owner is killed
//! mid-characterization converges — via journaled handoff — to profiles
//! byte-identical to an uninterrupted single-node run, with the total
//! characterization work adding up to exactly one full run.

use invmeas_faults::{Fault, FaultInjector, FaultPlan, FaultSite};
use invmeas_service::{
    call, Client, ClusterConfig, HashRing, MethodKind, Request, Response, Server, ServerConfig,
};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type ServeHandle = JoinHandle<std::io::Result<qmetrics::CountersSnapshot>>;

/// Reserves `n` distinct loopback ports by holding listeners open while
/// collecting, then releasing them all at once. The servers bind the
/// same ports immediately after, so the reuse window is tiny.
fn pick_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").port())
        .collect()
}

fn mesh_node(
    members: &[String],
    index: usize,
    profile_dir: &Path,
    faults: Arc<dyn FaultInjector>,
) -> ServerConfig {
    let mut cluster = ClusterConfig::new(members.to_vec(), &members[index]).expect("cluster");
    cluster.replication = 2;
    cluster.heartbeat_ms = 50;
    cluster.heartbeat_miss_limit = 2;
    ServerConfig {
        addr: members[index].clone(),
        workers: 2,
        profile_shots: 96,
        profile_seed: 7,
        profile_dir: Some(profile_dir.to_path_buf()),
        faults,
        cluster: Some(cluster),
        ..ServerConfig::default()
    }
}

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

fn status_counters(addr: &str) -> qmetrics::CountersSnapshot {
    match call(addr, &Request::Status).expect("status") {
        Response::Status(s) => s.counters,
        other => panic!("wrong response {other:?}"),
    }
}

fn characterize_req(device: &str) -> Request {
    Request::Characterize(invmeas_service::CharacterizeRequest {
        device: device.into(),
        method: MethodKind::Brute,
        shots: 0, // server default, identical on every node
        fwd: false,
    })
}

fn profile_file(dir: &Path, device: &str) -> PathBuf {
    dir.join(format!("{device}-brute-w0.rbms"))
}

/// No `.quarantined` debris anywhere under `dir`: wire rejections must
/// never condemn local files.
fn assert_no_quarantine(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read profile dir") {
        let name = entry.expect("dir entry").file_name();
        assert!(
            !name.to_string_lossy().contains("quarantined"),
            "unexpected quarantine file {name:?}"
        );
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
fn set_window_broadcasts_across_the_mesh() {
    let root = fresh_dir("invmeas-cluster-window-test");
    let ports = pick_ports(2);
    let members: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let dirs: Vec<PathBuf> = (0..2).map(|i| root.join(format!("node{i}"))).collect();
    let nodes: Vec<(SocketAddr, ServeHandle)> = (0..2)
        .map(|i| {
            start(mesh_node(
                &members,
                i,
                &dirs[i],
                Arc::new(invmeas_faults::NoFaults),
            ))
        })
        .collect();

    let window_of = |addr: &str| -> u64 {
        match call(addr, &Request::Status).expect("status") {
            Response::Status(s) => s.window,
            other => panic!("wrong response {other:?}"),
        }
    };

    // A window set on either node must be in force on *both* before the
    // acknowledgement returns: routed submits and characterizes execute
    // under the owner's window, so a seed node acknowledging a window it
    // did not propagate would silently serve stale results.
    match call(
        members[0].as_str(),
        &Request::SetWindow {
            window: 5,
            fwd: false,
        },
    )
    .expect("set-window on node 0")
    {
        Response::Window { window } => assert_eq!(window, 5),
        other => panic!("wrong response {other:?}"),
    }
    assert_eq!(window_of(&members[0]), 5, "setting node must apply locally");
    assert_eq!(window_of(&members[1]), 5, "peer must receive the broadcast");

    match call(
        members[1].as_str(),
        &Request::SetWindow {
            window: 9,
            fwd: false,
        },
    )
    .expect("set-window on node 1")
    {
        Response::Window { window } => assert_eq!(window, 9),
        other => panic!("wrong response {other:?}"),
    }
    assert_eq!(
        window_of(&members[0]),
        9,
        "broadcast works from either node"
    );
    assert_eq!(window_of(&members[1]), 9);

    // A *broadcast* delivery applies locally but never re-broadcasts —
    // otherwise two nodes would ping-pong forever. Proven indirectly:
    // the fwd-marked request is answered inline and the mesh stays
    // responsive afterwards.
    match call(
        members[0].as_str(),
        &Request::SetWindow {
            window: 2,
            fwd: true,
        },
    )
    .expect("fwd set-window")
    {
        Response::Window { window } => assert_eq!(window, 2),
        other => panic!("wrong response {other:?}"),
    }
    assert_eq!(window_of(&members[0]), 2, "fwd delivery applies locally");
    assert_eq!(
        window_of(&members[1]),
        9,
        "fwd delivery must not re-broadcast"
    );

    for (addr, handle) in nodes {
        shutdown(addr, handle);
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupt_replica_is_rejected_by_checksum_and_refetched_clean() {
    let device = "ibmqx4";
    let root = fresh_dir("invmeas-cluster-crc-test");
    let ports = pick_ports(2);
    let members: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let dirs: Vec<PathBuf> = (0..2).map(|i| root.join(format!("node{i}"))).collect();

    let nodes: Vec<(SocketAddr, ServeHandle)> = (0..2)
        .map(|i| {
            start(mesh_node(
                &members,
                i,
                &dirs[i],
                Arc::new(invmeas_faults::NoFaults),
            ))
        })
        .collect();

    // Characterize on the hash-owner; the finished profile replicates to
    // the follower as the exact persisted bytes.
    let ring = HashRing::new(&members);
    let owner = ring.route(device, 1).owner;
    let follower = 1 - owner;
    match call(members[owner].as_str(), &characterize_req(device)).expect("characterize") {
        Response::Characterize(r) => assert_eq!(r.device, device),
        other => panic!("wrong response {other:?}"),
    }
    let clean = std::fs::read(profile_file(&dirs[owner], device)).expect("owner profile");
    let replica_path = profile_file(&dirs[follower], device);
    assert_eq!(
        std::fs::read(&replica_path).expect("follower replica"),
        clean,
        "replica must be byte-identical to the owner's file"
    );

    // A clean replicate is accepted outright.
    let text = String::from_utf8(clean.clone()).expect("profiles are text");
    let replicate = |payload: String| {
        Request::Replicate(invmeas_service::ReplicateRequest {
            device: device.into(),
            method: MethodKind::Brute,
            window: 0,
            profile: Some(payload),
            journal: None,
            from: owner as u64,
        })
    };
    match call(members[follower].as_str(), &replicate(text.clone())).expect("clean replicate") {
        Response::Replicated {
            accepted,
            refetched,
            ..
        } => {
            assert!(accepted, "clean payload must be accepted");
            assert!(!refetched, "no re-fetch needed for a clean payload");
        }
        other => panic!("wrong response {other:?}"),
    }

    // Flip the low bit of one mid-file byte: still parseable text, but the
    // CRC no longer agrees. The follower must reject it, quarantine
    // nothing (its own disk was never suspect), and pull a clean copy
    // from the sender.
    std::fs::remove_file(&replica_path).expect("drop replica to prove the re-fetch");
    let mut corrupt = text.clone().into_bytes();
    let mid = (corrupt.len() / 2..corrupt.len())
        .find(|&i| corrupt[i].is_ascii_alphanumeric())
        .expect("profiles contain alphanumerics");
    corrupt[mid] ^= 0x01;
    let corrupt = String::from_utf8(corrupt).expect("ascii flip keeps utf-8");
    assert_ne!(corrupt, text);
    match call(members[follower].as_str(), &replicate(corrupt)).expect("corrupt replicate") {
        Response::Replicated {
            accepted,
            refetched,
            ..
        } => {
            assert!(!accepted, "flipped bit must fail checksum verification");
            assert!(
                refetched,
                "follower must recover by re-fetching from the sender"
            );
        }
        other => panic!("wrong response {other:?}"),
    }
    assert_no_quarantine(&dirs[follower]);
    assert_eq!(
        std::fs::read(&replica_path).expect("re-fetched replica"),
        clean,
        "re-fetched copy must be byte-identical to the owner's file"
    );
    let c = status_counters(&members[follower]);
    assert!(
        c.replication_writes >= 2,
        "follower landed at least the original replica and the re-fetch: {}",
        c.replication_writes
    );

    for (addr, handle) in nodes {
        shutdown(addr, handle);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A refused replica says why: the reply to a garbage journal names the
/// line that failed to parse.
#[test]
fn rejected_journal_replica_reply_names_the_failing_line() {
    let root = fresh_dir("invmeas-cluster-reason-test");
    let ports = pick_ports(2);
    let members: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let dir = root.join("node1");
    let (addr, handle) = start(mesh_node(
        &members,
        1,
        &dir,
        Arc::new(invmeas_faults::NoFaults),
    ));
    let garbage = Request::Replicate(invmeas_service::ReplicateRequest {
        device: "ibmqx4".into(),
        method: MethodKind::Brute,
        window: 0,
        profile: None,
        journal: Some("not a journal\n".into()),
        from: 0,
    });
    match call(addr, &garbage).expect("garbage replicate") {
        Response::Replicated {
            accepted, reason, ..
        } => {
            assert!(!accepted, "a garbage journal must be refused");
            assert!(reason.contains("line 1"), "reason {reason:?}");
        }
        other => panic!("wrong response {other:?}"),
    }
    shutdown(addr, handle);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn killed_owner_hands_off_mid_characterization_and_the_mesh_converges() {
    let device = "ibmqx4";
    let root = fresh_dir("invmeas-cluster-failover-test");

    // Reference: one uninterrupted single-node run with the same
    // characterization parameters. Its persisted bytes and checkpoint
    // count are what the mesh must reproduce.
    let ref_dir = root.join("reference");
    let (ref_addr, ref_handle) = start(ServerConfig {
        workers: 2,
        profile_shots: 96,
        profile_seed: 7,
        profile_dir: Some(ref_dir.clone()),
        ..ServerConfig::default()
    });
    match call(ref_addr, &characterize_req(device)).expect("reference characterize") {
        Response::Characterize(_) => {}
        other => panic!("wrong response {other:?}"),
    }
    let reference_counters = shutdown(ref_addr, ref_handle);
    let reference_units = reference_counters.journal_checkpoints;
    assert!(reference_units > 3, "need enough units to kill mid-run");
    let reference_bytes = std::fs::read(profile_file(&ref_dir, device)).expect("reference profile");

    // Three mesh nodes; the device's hash-owner gets a scripted panic at
    // its third journal checkpoint — a crash with a half-finished
    // characterization whose first two units are already replicated.
    let ports = pick_ports(3);
    let members: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let dirs: Vec<PathBuf> = (0..3).map(|i| root.join(format!("node{i}"))).collect();
    let ring = HashRing::new(&members);
    let route = ring.route(device, 2);
    let owner = route.owner;
    let ladder: Vec<usize> = route.ladder().collect();
    let promoted = ladder[1]; // first follower: first alive once the owner dies
    let bystander = ladder[2];

    let nodes: Vec<Option<(SocketAddr, ServeHandle)>> = (0..3)
        .map(|i| {
            let faults: Arc<dyn FaultInjector> = if i == owner {
                Arc::new(FaultPlan::new(1).on_nth(
                    FaultSite::JournalWrite,
                    3,
                    Fault::Panic("owner dies mid-characterization".into()),
                ))
            } else {
                Arc::new(invmeas_faults::NoFaults)
            };
            Some(start(mesh_node(&members, i, &dirs[i], faults)))
        })
        .collect();
    let mut nodes = nodes;

    // The owner's characterization dies at checkpoint 3.
    match call(members[owner].as_str(), &characterize_req(device)).expect("doomed characterize") {
        Response::Error { code, message } => {
            assert_eq!(code, 500, "{message}");
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("wrong response {other:?}"),
    }

    // Both checkpoints the owner completed were shipped to both
    // followers before it died, as the journal's exact bytes.
    let owner_journal = {
        let mut p = profile_file(&dirs[owner], device).into_os_string();
        p.push(".journal");
        std::fs::read_to_string(PathBuf::from(p)).expect("owner journal survives the crash")
    };
    let (_, owner_units) = invmeas::inspect_journal(&owner_journal).expect("valid journal");
    assert_eq!(
        owner_units, 2,
        "the panic fired on the third checkpoint write"
    );
    for i in [promoted, bystander] {
        let mut p = profile_file(&dirs[i], device).into_os_string();
        p.push(".journal");
        let replica = std::fs::read_to_string(PathBuf::from(p)).expect("replicated journal");
        assert_eq!(
            replica, owner_journal,
            "node {i} journal replica must match"
        );
    }

    // Kill the owner for good; the survivors' heartbeats declare it dead.
    let (owner_addr, owner_handle) = nodes[owner].take().expect("owner running");
    let owner_counters = shutdown(owner_addr, owner_handle);
    assert_eq!(
        owner_counters.journal_checkpoints, 0,
        "the owner never finished, so it never banked checkpoint credit"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let map = match call(
            members[promoted].as_str(),
            &Request::ClusterMap { device: None },
        )
        .expect("cluster-map")
        {
            Response::ClusterMap(m) => m,
            other => panic!("wrong response {other:?}"),
        };
        if !map.alive[owner] {
            break;
        }
        assert!(Instant::now() < deadline, "owner never declared dead");
        std::thread::sleep(Duration::from_millis(25));
    }

    // A client seeded with the whole membership list rotates past the
    // dead owner on its own. The promoted follower serves the
    // characterization by resuming the replicated journal — not by
    // starting over.
    let seeds = [members[owner].clone(), members[promoted].clone()];
    let mut client = Client::connect_seeds(&seeds).expect("seed rotation past the dead owner");
    let resumed = match client
        .request(&characterize_req(device))
        .expect("failover characterize")
    {
        Response::Characterize(r) => r,
        other => panic!("wrong response {other:?}"),
    };
    assert_eq!(resumed.device, device);

    let promoted_counters = status_counters(&members[promoted]);
    assert_eq!(
        promoted_counters.resumed_jobs, 1,
        "promotion resumed the journal"
    );
    assert!(
        promoted_counters.failovers >= 1,
        "serving out of ring order is a failover"
    );
    assert_eq!(
        promoted_counters.journal_checkpoints,
        reference_units - owner_units,
        "the promoted node did exactly the work the owner had not finished"
    );
    assert!(promoted_counters.heartbeats_missed >= 1);

    // Routing through the other survivor forwards to the promoted node
    // (one hop, served from its now-warm cache).
    match call(members[bystander].as_str(), &characterize_req(device)).expect("forwarded") {
        Response::Characterize(_) => {}
        other => panic!("wrong response {other:?}"),
    }
    let bystander_counters = status_counters(&members[bystander]);
    assert!(
        bystander_counters.forwards >= 1,
        "bystander must forward, not serve"
    );
    assert_eq!(
        bystander_counters.journal_checkpoints, 0,
        "only owner + promoted ever characterized: total work is one full run"
    );

    // Convergence: every surviving replica is byte-identical to the
    // uninterrupted reference run.
    let promoted_bytes = std::fs::read(profile_file(&dirs[promoted], device)).expect("promoted");
    let bystander_bytes = std::fs::read(profile_file(&dirs[bystander], device)).expect("bystander");
    assert_eq!(
        promoted_bytes, reference_bytes,
        "journaled handoff must land the exact bytes of an uninterrupted run"
    );
    assert_eq!(bystander_bytes, reference_bytes, "replicas must converge");

    for node in nodes.into_iter().flatten() {
        shutdown(node.0, node.1);
    }
    std::fs::remove_dir_all(&root).ok();
}

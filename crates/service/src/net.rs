//! The network fault fabric: every socket the service opens goes
//! through here.
//!
//! [`NetFabric`] is the single dial/accept choke point for the client,
//! peer calls, heartbeat probes, forwarding, replication, profile
//! fetches, and the server's accept path. In production it is
//! [`NetFabric::direct`] — a zero-overhead pass-through whose streams
//! cost one `Option` check per I/O call. Under chaos it carries an
//! [`Arc<NetFaultPlan>`] and returns [`NetStream`]s armed with
//! stream-level faults, so scripted partitions, truncated frames, slow
//! writers, and duplicate deliveries hit *real* sockets on real code
//! paths — deterministically, by arrival count.
//!
//! Naming convention (see [`NetFaultPlan`]): mesh members are `n0..nK`
//! in cluster-index order, plain clients are `client`, and the reserved
//! source name `in` labels inbound connections on the accept path
//! (whose true origin the listener cannot know).
//!
//! Fault semantics on an armed stream:
//!
//! * a **partition** that becomes active after the dial severs the
//!   established stream too: writes check `src → dst`, reads check
//!   `dst → src`, so one-way partitions produce genuinely asymmetric
//!   behavior (a node that can send but never hears back);
//! * **drop-after-N** spends one shared byte budget across both
//!   directions, then fails reads and writes as a reset connection;
//! * **truncate-after-N** delivers exactly N written bytes, shuts the
//!   socket down so the peer sees EOF mid-frame, and reports the
//!   crossing write as fully consumed (the classic "wire ate my tail");
//! * **slow-write** clamps each write to a chunk and stalls after it —
//!   never armed on accepted (event-loop) streams, where a sleep would
//!   stall every connection;
//! * **duplicate** captures the first newline-terminated frame written
//!   and delivers it twice; receivers must be idempotent.

use invmeas_faults::{NetFault, NetFaultPlan};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The member name the accept path uses for the (unknowable) remote end.
pub const INBOUND_NAME: &str = "in";

/// The member name used for dial targets the fabric has no name for.
pub const UNKNOWN_NAME: &str = "?";

struct FabricInner {
    plan: Option<Arc<NetFaultPlan>>,
    self_name: String,
    /// Known peer addresses and their plan names (mesh members).
    names: Vec<(SocketAddr, String)>,
}

/// The dial/accept choke point. Cheap to clone and share.
#[derive(Clone)]
pub struct NetFabric {
    inner: Arc<FabricInner>,
}

impl std::fmt::Debug for NetFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetFabric")
            .field("self_name", &self.inner.self_name)
            .field("members", &self.inner.names.len())
            .field("faulted", &self.inner.plan.is_some())
            .finish()
    }
}

impl NetFabric {
    /// The production fabric: no plan, direct sockets, named `client`.
    pub fn direct() -> NetFabric {
        NetFabric {
            inner: Arc::new(FabricInner {
                plan: None,
                self_name: "client".to_string(),
                names: Vec::new(),
            }),
        }
    }

    /// A fabric for one node (or client) of a fault-scripted topology.
    /// `names` maps peer socket addresses to their plan names; dials to
    /// unlisted addresses use [`UNKNOWN_NAME`] as the destination.
    pub fn new(
        self_name: impl Into<String>,
        names: Vec<(SocketAddr, String)>,
        plan: Option<Arc<NetFaultPlan>>,
    ) -> NetFabric {
        NetFabric {
            inner: Arc::new(FabricInner {
                plan,
                self_name: self_name.into(),
                names,
            }),
        }
    }

    /// This fabric's own plan name.
    pub fn self_name(&self) -> &str {
        &self.inner.self_name
    }

    /// The shared fault plan, when one is installed.
    pub fn plan(&self) -> Option<&Arc<NetFaultPlan>> {
        self.inner.plan.as_ref()
    }

    fn name_of(&self, addr: SocketAddr) -> &str {
        self.inner
            .names
            .iter()
            .find(|(a, _)| *a == addr)
            .map_or(UNKNOWN_NAME, |(_, n)| n.as_str())
    }

    /// Dials `peer`, consulting the fault plan first: scripted refusals
    /// and active partitions fail as [`io::ErrorKind::ConnectionRefused`]
    /// before any packet moves, scripted delays sleep, and stream-level
    /// faults arm the returned stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying connect error, or the injected refusal.
    pub fn dial(&self, peer: SocketAddr, timeout: Option<Duration>) -> io::Result<NetStream> {
        let decision = match &self.inner.plan {
            Some(plan) => plan.connect(&self.inner.self_name, self.name_of(peer)),
            None => {
                let tcp = connect_raw(peer, timeout)?;
                return Ok(NetStream { tcp, faults: None });
            }
        };
        if decision.refuse {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!(
                    "injected refusal: {} -> {}",
                    self.inner.self_name,
                    self.name_of(peer)
                ),
            ));
        }
        if decision.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(decision.delay_ms));
        }
        let tcp = connect_raw(peer, timeout)?;
        Ok(self.wrap(tcp, self.name_of(peer).to_string(), decision.faults))
    }

    /// Wraps a just-accepted connection, consulting the plan on the
    /// `in → self` edge. Returns `None` when the plan refuses it (the
    /// caller drops the socket — the dialer sees a vanished peer).
    /// Delay and slow-write faults are *not* armed here: the accept path
    /// runs on the event loop, where a sleep would stall every
    /// connection; byte-level faults (drop, truncate, duplicate) apply.
    ///
    /// Accepted sockets get `TCP_NODELAY`, as dialed ones do: replies are
    /// small writes, and without it a pipelining client's next reply waits
    /// on the client's delayed ACK.
    pub fn wrap_accepted(&self, tcp: TcpStream) -> Option<NetStream> {
        tcp.set_nodelay(true).ok();
        let plan = match &self.inner.plan {
            Some(plan) => plan,
            None => return Some(NetStream { tcp, faults: None }),
        };
        let decision = plan.connect(INBOUND_NAME, &self.inner.self_name);
        if decision.refuse {
            return None;
        }
        let faults = decision
            .faults
            .into_iter()
            .filter(|f| !matches!(f, NetFault::SlowWrite { .. } | NetFault::Delay(_)))
            .collect();
        Some(self.wrap(tcp, INBOUND_NAME.to_string(), faults))
    }

    fn wrap(&self, tcp: TcpStream, peer_name: String, faults: Vec<NetFault>) -> NetStream {
        let plan = match &self.inner.plan {
            Some(plan) => Arc::clone(plan),
            None => return NetStream { tcp, faults: None },
        };
        let mut sf = StreamFaults {
            plan,
            src: self.inner.self_name.clone(),
            dst: peer_name,
            drop_after: None,
            slow_write: None,
            truncate_after: None,
            transferred: AtomicU64::new(0),
            written: AtomicU64::new(0),
            severed: AtomicBool::new(false),
            partition_noted: AtomicBool::new(false),
            duplicate: Mutex::new(None),
        };
        for fault in faults {
            match fault {
                NetFault::DropAfter(n) => sf.drop_after = Some(n),
                NetFault::SlowWrite { chunk, delay_ms } => {
                    sf.slow_write = Some((chunk.max(1) as usize, delay_ms));
                }
                NetFault::TruncateAfter(n) => sf.truncate_after = Some(n),
                NetFault::Duplicate => {
                    sf.duplicate = Mutex::new(Some(Vec::new()));
                }
                // Connect-time faults are handled before wrapping.
                NetFault::Refuse | NetFault::Delay(_) => {}
            }
        }
        NetStream {
            tcp,
            faults: Some(Arc::new(sf)),
        }
    }
}

fn connect_raw(peer: SocketAddr, timeout: Option<Duration>) -> io::Result<TcpStream> {
    match timeout {
        Some(t) => TcpStream::connect_timeout(&peer, t),
        None => TcpStream::connect(peer),
    }
}

/// Shared (reader/writer halves, via `try_clone`) fault state of one
/// armed stream.
struct StreamFaults {
    plan: Arc<NetFaultPlan>,
    src: String,
    dst: String,
    drop_after: Option<u64>,
    slow_write: Option<(usize, u64)>,
    truncate_after: Option<u64>,
    /// Bytes moved in either direction (drop-after budget).
    transferred: AtomicU64,
    /// Bytes written (truncate-after budget).
    written: AtomicU64,
    /// A terminal byte fault (drop/truncate) has fired.
    severed: AtomicBool,
    /// The active-partition firing has been counted once.
    partition_noted: AtomicBool,
    /// `Some(buf)` while still capturing the first written frame.
    duplicate: Mutex<Option<Vec<u8>>>,
}

impl StreamFaults {
    /// Counts a partition severing this established stream, once.
    fn note_partition(&self) {
        if !self.partition_noted.swap(true, Ordering::Relaxed) {
            self.plan.note_injected();
        }
    }

    fn partition_err(&self, a: &str, b: &str) -> io::Error {
        self.note_partition();
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("injected partition: {a} -> {b}"),
        )
    }
}

/// A stream handed out by the fabric: a raw `TcpStream` in production,
/// optionally armed with deterministic byte-level faults under chaos.
pub struct NetStream {
    tcp: TcpStream,
    faults: Option<Arc<StreamFaults>>,
}

impl std::fmt::Debug for NetStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStream")
            .field("peer", &self.tcp.peer_addr().ok())
            .field("faulted", &self.faults.is_some())
            .finish()
    }
}

impl NetStream {
    /// Wraps a raw stream with no faults (test construction helper).
    pub fn plain(tcp: TcpStream) -> NetStream {
        NetStream { tcp, faults: None }
    }

    /// The underlying socket — for event-loop registration (the poller
    /// watches readiness on the fd; faults act at the byte layer).
    pub fn tcp(&self) -> &TcpStream {
        &self.tcp
    }

    /// Clones the handle; fault state (byte budgets, duplicate capture)
    /// is shared with the clone, as reader/writer halves must agree.
    ///
    /// # Errors
    ///
    /// Propagates the socket duplication failure.
    pub fn try_clone(&self) -> io::Result<NetStream> {
        Ok(NetStream {
            tcp: self.tcp.try_clone()?,
            faults: self.faults.clone(),
        })
    }

    /// See [`TcpStream::set_read_timeout`].
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.tcp.set_read_timeout(dur)
    }

    /// See [`TcpStream::set_write_timeout`].
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.tcp.set_write_timeout(dur)
    }

    /// See [`TcpStream::set_nodelay`].
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.tcp.set_nodelay(on)
    }

    /// See [`TcpStream::set_nonblocking`].
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.tcp.set_nonblocking(on)
    }

    /// See [`TcpStream::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates the shutdown failure.
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.tcp.shutdown(how)
    }

    /// See [`TcpStream::peer_addr`].
    ///
    /// # Errors
    ///
    /// Propagates the lookup failure.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.tcp.peer_addr()
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let f = match &self.faults {
            Some(f) => Arc::clone(f),
            None => return self.tcp.read(buf),
        };
        // Reads carry dst → src bytes: a one-way partition of the
        // *reverse* edge is what starves this direction.
        if f.plan.partitioned(&f.dst, &f.src) {
            return Err(f.partition_err(&f.dst, &f.src));
        }
        let mut limit = buf.len();
        if let Some(budget) = f.drop_after {
            if f.severed.load(Ordering::Relaxed) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected drop",
                ));
            }
            let moved = f.transferred.load(Ordering::Relaxed);
            if moved >= budget {
                if !f.severed.swap(true, Ordering::Relaxed) {
                    f.plan.note_injected();
                    let _ = self.tcp.shutdown(Shutdown::Both);
                }
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected drop",
                ));
            }
            limit = limit.min((budget - moved) as usize);
        }
        let n = self.tcp.read(&mut buf[..limit])?;
        f.transferred.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let f = match &self.faults {
            Some(f) => Arc::clone(f),
            None => return self.tcp.write(buf),
        };
        if f.plan.partitioned(&f.src, &f.dst) {
            return Err(f.partition_err(&f.src, &f.dst));
        }
        if f.severed.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected severed stream",
            ));
        }
        if buf.is_empty() {
            return self.tcp.write(buf);
        }
        // Truncate: deliver exactly N written bytes, then EOF the peer.
        if let Some(limit) = f.truncate_after {
            let written = f.written.load(Ordering::Relaxed);
            if written + buf.len() as u64 > limit {
                let keep = limit.saturating_sub(written) as usize;
                if keep > 0 {
                    self.tcp.write_all(&buf[..keep])?;
                }
                f.severed.store(true, Ordering::Relaxed);
                f.plan.note_injected();
                let _ = self.tcp.shutdown(Shutdown::Both);
                f.written.fetch_add(buf.len() as u64, Ordering::Relaxed);
                // The caller believes the whole buffer went out — that
                // is the point: its frame ends mid-wire.
                return Ok(buf.len());
            }
        }
        // Drop-after: the shared budget also counts written bytes.
        if let Some(budget) = f.drop_after {
            let moved = f.transferred.load(Ordering::Relaxed);
            if moved + buf.len() as u64 > budget {
                let keep = budget.saturating_sub(moved) as usize;
                if keep > 0 {
                    self.tcp.write_all(&buf[..keep])?;
                    f.transferred.fetch_add(keep as u64, Ordering::Relaxed);
                }
                if !f.severed.swap(true, Ordering::Relaxed) {
                    f.plan.note_injected();
                    let _ = self.tcp.shutdown(Shutdown::Both);
                }
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected drop",
                ));
            }
        }
        let mut chunk = buf.len();
        let mut stall = 0u64;
        if let Some((max_chunk, delay_ms)) = f.slow_write {
            chunk = chunk.min(max_chunk);
            stall = delay_ms;
        }
        let n = self.tcp.write(&buf[..chunk])?;
        f.written.fetch_add(n as u64, Ordering::Relaxed);
        f.transferred.fetch_add(n as u64, Ordering::Relaxed);
        // Duplicate delivery: re-send the first complete frame once.
        {
            let mut cap = f.duplicate.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(frame) = cap.as_mut() {
                frame.extend_from_slice(&buf[..n]);
                if let Some(pos) = frame.iter().position(|&b| b == b'\n') {
                    let dup: Vec<u8> = frame[..=pos].to_vec();
                    *cap = None;
                    drop(cap);
                    self.tcp.write_all(&dup)?;
                    f.plan.note_injected();
                }
            }
        }
        if stall > 0 {
            std::thread::sleep(Duration::from_millis(stall));
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.tcp.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dialed = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (dialed, accepted)
    }

    fn armed(plan: Arc<NetFaultPlan>, faults: Vec<NetFault>) -> (NetStream, TcpStream) {
        let (dialed, accepted) = pair();
        let fabric = NetFabric::new("n0", Vec::new(), Some(plan));
        (fabric.wrap(dialed, "n1".to_string(), faults), accepted)
    }

    #[test]
    fn accepted_streams_disable_nagle() {
        let plan = Arc::new(NetFaultPlan::new(1));
        for fabric in [
            NetFabric::new("n0", Vec::new(), None),
            NetFabric::new("n0", Vec::new(), Some(plan)),
        ] {
            let (_dialed, accepted) = pair();
            assert!(!accepted.nodelay().unwrap(), "the OS default is Nagle on");
            let wrapped = fabric.wrap_accepted(accepted).expect("not refused");
            assert!(wrapped.tcp().nodelay().unwrap());
        }
    }

    #[test]
    fn plain_stream_moves_bytes_untouched() {
        let (dialed, accepted) = pair();
        let mut a = NetStream::plain(dialed);
        let mut b = NetStream::plain(accepted);
        a.write_all(b"hello\n").unwrap();
        let mut buf = [0u8; 6];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello\n");
    }

    #[test]
    fn refused_dial_fails_before_connecting() {
        let plan = Arc::new(NetFaultPlan::new(0).on_connect("n0", "n1", 1, NetFault::Refuse));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fabric = NetFabric::new("n0", vec![(addr, "n1".to_string())], Some(plan.clone()));
        let err = fabric.dial(addr, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(plan.injected(), 1);
        // Second dial on the same edge goes through.
        assert!(fabric.dial(addr, None).is_ok());
    }

    #[test]
    fn drop_after_severs_both_directions_at_the_budget() {
        let plan = Arc::new(NetFaultPlan::new(0));
        let (mut s, mut peer) = armed(Arc::clone(&plan), vec![NetFault::DropAfter(4)]);
        s.write_all(b"abcd").unwrap(); // exactly the budget
        let err = s.write(b"e").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap(); // shutdown → EOF
        assert_eq!(got, b"abcd");
        assert_eq!(plan.injected(), 1);
        assert_eq!(
            s.read(&mut [0u8; 8]).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn truncate_after_delivers_partial_frame_then_eof() {
        let plan = Arc::new(NetFaultPlan::new(0));
        let (mut s, mut peer) = armed(Arc::clone(&plan), vec![NetFault::TruncateAfter(10)]);
        // The crossing write "succeeds" (the caller can't tell) but only
        // 10 bytes reach the wire, and the peer then sees EOF.
        s.write_all(b"profile-line-that-gets-cut\n").unwrap();
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"profile-li");
        assert_eq!(
            s.write(b"more").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn slow_write_chunks_and_still_delivers_everything() {
        let plan = Arc::new(NetFaultPlan::new(0));
        let (mut s, mut peer) = armed(
            Arc::clone(&plan),
            vec![NetFault::SlowWrite {
                chunk: 3,
                delay_ms: 1,
            }],
        );
        let payload = b"0123456789\n";
        let start = std::time::Instant::now();
        s.write_all(payload).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(3),
            "stalls accumulated"
        );
        let mut got = vec![0u8; payload.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn duplicate_delivers_first_frame_twice() {
        let plan = Arc::new(NetFaultPlan::new(0));
        let (mut s, peer) = armed(Arc::clone(&plan), vec![NetFault::Duplicate]);
        s.write_all(b"{\"op\":\"replicate\"}\n").unwrap();
        s.write_all(b"{\"op\":\"health\"}\n").unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let reader = BufReader::new(peer);
        let lines: Vec<String> = reader.lines().map(Result::unwrap).collect();
        assert_eq!(
            lines,
            vec![
                "{\"op\":\"replicate\"}",
                "{\"op\":\"replicate\"}",
                "{\"op\":\"health\"}"
            ]
        );
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn late_partition_severs_established_streams_asymmetrically() {
        // Partition activates on the 1st matching dial *attempt* after
        // the stream exists; n0 → n1 writes die, reads (n1 → n0) live.
        let plan = Arc::new(NetFaultPlan::new(0).partition("n0", "n1", 1, 0));
        let (mut s, mut peer) = armed(Arc::clone(&plan), Vec::new());
        s.write_all(b"before\n").unwrap(); // count 0: not active yet
        plan.connect("n0", "n1"); // the activating arrival (refused dial)
        let err = s.write(b"after\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Reverse direction still flows: peer → n0.
        peer.write_all(b"reply\n").unwrap();
        let mut buf = [0u8; 6];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"reply\n");
    }

    #[test]
    fn accept_path_can_refuse_and_arms_byte_faults_only() {
        let plan = Arc::new(
            NetFaultPlan::new(0)
                .on_connect(INBOUND_NAME, "n0", 1, NetFault::Refuse)
                .on_connect(
                    INBOUND_NAME,
                    "n0",
                    2,
                    NetFault::SlowWrite {
                        chunk: 1,
                        delay_ms: 500,
                    },
                )
                .on_connect(INBOUND_NAME, "n0", 2, NetFault::DropAfter(64)),
        );
        let fabric = NetFabric::new("n0", Vec::new(), Some(plan));
        let (_d1, a1) = pair();
        assert!(fabric.wrap_accepted(a1).is_none(), "first accept refused");
        let (_d2, a2) = pair();
        let s = fabric.wrap_accepted(a2).expect("second accept admitted");
        let f = s.faults.as_ref().expect("armed");
        assert!(f.slow_write.is_none(), "no sleeps on the event loop");
        assert_eq!(f.drop_after, Some(64));
    }

    #[test]
    fn clones_share_fault_budgets() {
        let plan = Arc::new(NetFaultPlan::new(0));
        let (s, mut peer) = armed(Arc::clone(&plan), vec![NetFault::DropAfter(6)]);
        let mut w = s.try_clone().unwrap();
        let mut r = s;
        w.write_all(b"abc").unwrap();
        peer.write_all(b"def").unwrap();
        let mut buf = [0u8; 3];
        r.read_exact(&mut buf).unwrap(); // budget now fully spent
        assert_eq!(
            w.write(b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }
}

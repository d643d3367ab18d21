//! Drives a real `invmeas serve` process: spawning and set-up, the
//! closed-loop measured phase, and per-request records.

use crate::gen::{warmup, Arrival, Generator, Op, Programs, Workload};
use invmeas_service::{CacheOutcome, Request, Response, StatusResponse};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to print its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a reply may take before the phase gives up on it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Fixed server settings, passed on the command line to every `serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub binary: PathBuf,
    pub workers: usize,
    pub exec_threads: usize,
}

/// A running server; killed and reaped on drop if not shut down.
#[derive(Debug)]
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl ServerProc {
    /// Spawns `invmeas serve` on an ephemeral port and waits for its
    /// listening line, which it writes to `stdout_file`.
    pub fn spawn(
        config: &ServeConfig,
        stdout_file: &Path,
        profile_dir: Option<&Path>,
    ) -> Result<ServerProc, Error> {
        let out = std::fs::File::create(stdout_file)?;
        let mut cmd = Command::new(&config.binary);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &config.workers.to_string()])
            .args(["--exec-threads", &config.exec_threads.to_string()]);
        if let Some(dir) = profile_dir {
            cmd.arg("--profile-dir").arg(dir);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let mut proc = ServerProc {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        let start = Instant::now();
        loop {
            let text = std::fs::read_to_string(stdout_file).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("listening on "))
                .and_then(|a| a.trim().parse().ok())
            {
                proc.addr = addr;
                return Ok(proc);
            }
            if let Some(child) = proc.child.as_mut() {
                if let Some(status) = child.try_wait()? {
                    return Err(format!("server exited before listening: {status}").into());
                }
            }
            if start.elapsed() > START_TIMEOUT {
                return Err("server did not report a listening address".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), Error> {
        let mut conn = Conn::connect(self.addr)?;
        let reply = conn.call(&Request::Shutdown.to_line())?;
        if !matches!(Response::from_line(&reply)?, Response::Shutdown) {
            return Err(format!("unexpected shutdown reply {reply}").into());
        }
        let mut child = self.child.take().expect("server is running");
        let start = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}").into())
                };
            }
            if start.elapsed() > REPLY_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A blocking line-protocol connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, Error> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), Error> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        Ok(())
    }

    pub fn recv(&mut self) -> Result<String, Error> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err("server closed the connection".into());
        }
        Ok(line.trim_end().to_string())
    }

    pub fn call(&mut self, line: &str) -> Result<String, Error> {
        self.send(line)?;
        self.recv()
    }

    pub fn status(&mut self) -> Result<StatusResponse, Error> {
        match Response::from_line(&self.call(&Request::Status.to_line())?)? {
            Response::Status(s) => Ok(s),
            other => Err(format!("unexpected status reply {other:?}").into()),
        }
    }
}

/// One set-up of a fresh server.
#[derive(Debug)]
pub struct Setup {
    pub server: ServerProc,
    pub seconds: f64,
}

/// Spawns a server and warms it: listening, every profile the workload's
/// AIM submits need characterized, and one request of each kind answered.
pub fn set_up(
    config: &ServeConfig,
    workload: Workload,
    programs: &Programs,
    stdout_file: &Path,
    profile_dir: Option<&Path>,
) -> Result<Setup, Error> {
    let ops = warmup(workload, programs);
    let start = Instant::now();
    let server = ServerProc::spawn(config, stdout_file, profile_dir)?;
    send_all(server.addr, &ops)?;
    Ok(Setup {
        server,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Sends `ops` one at a time on one connection; every reply must be OK.
/// Returns the latencies of the submits that paid a characterization.
pub fn send_all(addr: SocketAddr, ops: &[Op]) -> Result<Vec<f64>, Error> {
    let mut conn = Conn::connect(addr)?;
    let mut cold_ms = Vec::new();
    for op in ops {
        let sent = Instant::now();
        let reply = conn.call(&op.request().to_line())?;
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match Response::from_line(&reply)? {
            Response::Error { code, message } => {
                return Err(format!("request failed: {code} {message}").into())
            }
            Response::Submit(r) if r.cache == CacheOutcome::Miss => cold_ms.push(ms),
            _ => {}
        }
    }
    Ok(cold_ms)
}

/// One request of the measured phase and what became of it.
#[derive(Debug, Clone)]
pub struct Record {
    pub arrival: Arrival,
    pub sent: Instant,
    pub received: Instant,
    pub reply: String,
}

impl Record {
    /// Round trip from the send, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.received.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// Everything the measured phase produced.
#[derive(Debug)]
pub struct Phase {
    pub records: Vec<Record>,
    /// The instant the measured phase began.
    pub start: Instant,
    pub wall_s: f64,
    /// How long after each reply the next request left, in ms.
    pub send_lag_ms: Vec<f64>,
    pub threads: usize,
    pub connections: usize,
}

/// Runs the measured phase against `server` for `seconds`: a closed loop
/// on one connection, each request sent as soon as the previous reply
/// has arrived. Between two requests, at `side_tasks` evenly spaced
/// instants, it pauses to run `side(k)` for the `k`-th side task; one
/// still due when the time is up runs after the last request.
pub fn measure(
    server: &ServerProc,
    generator: &mut Generator,
    seconds: f64,
    side_tasks: usize,
    mut side: impl FnMut(usize) -> Result<(), Error>,
) -> Result<Phase, Error> {
    let due = |k: usize| seconds * (k as f64 + 0.5) / side_tasks as f64;
    let mut next_side = 0;
    let mut conn = Conn::connect(server.addr)?;
    let mut records = Vec::new();
    let mut send_lag_ms = Vec::new();
    let start = Instant::now();
    let mut last_reply = start;
    while start.elapsed().as_secs_f64() < seconds {
        if next_side < side_tasks && start.elapsed().as_secs_f64() >= due(next_side) {
            side(next_side)?;
            next_side += 1;
            last_reply = Instant::now();
        }
        let arrival = generator.next_arrival();
        let sent = Instant::now();
        send_lag_ms.push(sent.duration_since(last_reply).as_secs_f64() * 1e3);
        conn.send(&arrival.line)?;
        let reply = conn.recv()?;
        let received = Instant::now();
        last_reply = received;
        records.push(Record {
            arrival,
            sent,
            received,
            reply,
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    for k in next_side..side_tasks {
        side(k)?;
    }
    Ok(Phase {
        records,
        start,
        wall_s,
        send_lag_ms,
        threads: 1,
        connections: 1,
    })
}

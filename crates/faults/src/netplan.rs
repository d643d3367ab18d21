//! The scripted *network* fault plan: per-edge connect faults, partitions,
//! and the `netfaults v1` text format.
//!
//! Where [`FaultPlan`](crate::FaultPlan) injects faults at operation sites
//! (characterize, worker, journal-write…), `NetFaultPlan` injects faults at
//! the *transport* layer, keyed by the `(src, dst)` member pair of a
//! connection. The service's `net` fabric consults it at two moments:
//!
//! * **connect time** — [`NetFaultPlan::connect`] counts one arrival on the
//!   concrete `(src, dst)` edge and returns a [`ConnectDecision`]: refuse
//!   the dial, delay it, and/or arm stream-level faults (drop-after-N-bytes,
//!   slow-write throttling, truncate-mid-frame, duplicate-delivery) on the
//!   socket that results;
//! * **transfer time** — [`NetFaultPlan::partitioned`] is a pure check an
//!   established stream makes before moving bytes, so a partition that
//!   activates *after* the dial still severs the link deterministically.
//!
//! Everything fires by arrival count, never wall-clock, so a chaos scenario
//! replays bit-identically: the same plan plus the same request order yields
//! the same refusals, the same severed streams, and the same counter values.
//!
//! Member names are plain strings by convention: mesh nodes are `n0..nK`
//! (cluster index order), external clients are `client`, and the reserved
//! source name `in` labels the server's accept path. `*` is a wildcard
//! matching any name.
//!
//! The script is read by the shared [`LineReader`], which checks the
//! `netfaults v1` header, skips blank lines and `#` comments, and numbers
//! the lines for its [`LineError`]s; this module owns only the
//! `seed`/`partition`/`conn` record grammar.

use crate::lines::{LineError, LineReader};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A transport-level fault. [`Refuse`](NetFault::Refuse) and
/// [`Delay`](NetFault::Delay) act at connect time; the rest arm the
/// resulting stream and fire as bytes move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFault {
    /// The connect attempt is refused outright (`ECONNREFUSED`-alike).
    Refuse,
    /// The connect attempt succeeds after a fixed added latency (ms).
    Delay(u64),
    /// The stream delivers this many bytes in each direction, then dies
    /// (reads and writes fail as a reset connection).
    DropAfter(u64),
    /// Writes are throttled: at most `chunk` bytes land per write, each
    /// followed by a `delay_ms` stall. Total throughput ≈ chunk/delay.
    SlowWrite {
        /// Max bytes accepted per write call.
        chunk: u64,
        /// Stall after each chunk, in milliseconds.
        delay_ms: u64,
    },
    /// The stream delivers exactly this many *written* bytes, then shuts
    /// down — the peer sees EOF mid-frame and must discard the partial.
    TruncateAfter(u64),
    /// The first full frame (newline-terminated line) written on the
    /// stream is delivered twice; receivers must be idempotent.
    Duplicate,
}

/// What [`NetFaultPlan::connect`] decided for one dial attempt.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnectDecision {
    /// Refuse the dial (partition active, or a scripted `refuse`).
    pub refuse: bool,
    /// Added latency before the dial proceeds, in milliseconds.
    pub delay_ms: u64,
    /// Stream-level faults to arm on the resulting socket.
    pub faults: Vec<NetFault>,
}

impl ConnectDecision {
    /// A decision that lets the dial through untouched.
    pub fn clean() -> ConnectDecision {
        ConnectDecision::default()
    }
}

/// One scheduled connect fault: fires on the `arrival`-th dial (1-based)
/// on a matching `(src, dst)` edge.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ConnRule {
    src: String,
    dst: String,
    arrival: u64,
    fault: NetFault,
}

/// A scripted partition keyed by `(src, dst)`, with its own arrival
/// counter: the rule counts *matching dial attempts* and is active while
/// that count lies in `[from, until]` (`until == 0` means forever). The
/// first matching attempt past `until` succeeds — that is the heal, and
/// it is counted exactly once.
#[derive(Debug)]
struct PartitionRule {
    src: String,
    dst: String,
    from: u64,
    until: u64,
    symmetric: bool,
    count: AtomicU64,
    healed: AtomicBool,
}

impl PartitionRule {
    fn matches(&self, src: &str, dst: &str) -> bool {
        let fwd = name_match(&self.src, src) && name_match(&self.dst, dst);
        let rev = self.symmetric && name_match(&self.src, dst) && name_match(&self.dst, src);
        fwd || rev
    }

    /// Whether the partition is active at the rule's *current* count,
    /// without registering an arrival.
    fn active_now(&self) -> bool {
        let c = self.count.load(Ordering::Relaxed);
        c >= self.from && (self.until == 0 || c <= self.until)
    }
}

#[inline]
fn name_match(pattern: &str, name: &str) -> bool {
    pattern == "*" || pattern == name
}

/// A seeded, scripted network fault injector. See the module docs for the
/// firing model; see [`NetFaultPlan::from_text`] for the script format.
#[derive(Debug)]
pub struct NetFaultPlan {
    seed: u64,
    conn_rules: Vec<ConnRule>,
    partitions: Vec<PartitionRule>,
    /// Dial arrivals per concrete `(src, dst)` edge.
    edges: Mutex<HashMap<(String, String), u64>>,
    injected: AtomicU64,
    healed: AtomicU64,
}

impl NetFaultPlan {
    /// Creates an empty plan with a scenario seed.
    pub fn new(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            conn_rules: Vec::new(),
            partitions: Vec::new(),
            edges: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
            healed: AtomicU64::new(0),
        }
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedules `fault` to fire on the `arrival`-th dial (1-based) on the
    /// `(src, dst)` edge. `*` wildcards match any member name; arrivals
    /// are still counted per *concrete* edge.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` is 0.
    #[must_use]
    pub fn on_connect(
        mut self,
        src: impl Into<String>,
        dst: impl Into<String>,
        arrival: u64,
        fault: NetFault,
    ) -> NetFaultPlan {
        assert!(arrival >= 1, "arrivals are 1-based");
        self.conn_rules.push(ConnRule {
            src: src.into(),
            dst: dst.into(),
            arrival,
            fault,
        });
        self
    }

    /// Schedules a one-way partition from `src` to `dst`, active from the
    /// `from`-th matching dial attempt through the `until`-th
    /// (`until == 0`: never heals).
    ///
    /// # Panics
    ///
    /// Panics if `from` is 0, or `until` is nonzero and below `from`.
    #[must_use]
    pub fn partition(
        mut self,
        src: impl Into<String>,
        dst: impl Into<String>,
        from: u64,
        until: u64,
    ) -> NetFaultPlan {
        self.add_partition(src.into(), dst.into(), from, until, false);
        self
    }

    /// Like [`NetFaultPlan::partition`], but severing both directions.
    #[must_use]
    pub fn partition_symmetric(
        mut self,
        src: impl Into<String>,
        dst: impl Into<String>,
        from: u64,
        until: u64,
    ) -> NetFaultPlan {
        self.add_partition(src.into(), dst.into(), from, until, true);
        self
    }

    fn add_partition(&mut self, src: String, dst: String, from: u64, until: u64, symmetric: bool) {
        assert!(from >= 1, "partition windows are 1-based");
        assert!(until == 0 || until >= from, "until must be 0 or >= from");
        self.partitions.push(PartitionRule {
            src,
            dst,
            from,
            until,
            symmetric,
            count: AtomicU64::new(0),
            healed: AtomicBool::new(false),
        });
    }

    /// Registers one dial attempt from `src` to `dst` and returns what the
    /// fabric should do with it. This is the only call that advances
    /// arrival counters (edge and partition alike).
    pub fn connect(&self, src: &str, dst: &str) -> ConnectDecision {
        let arrival = {
            let mut edges = self.edges.lock().unwrap_or_else(|p| p.into_inner());
            let n = edges.entry((src.to_string(), dst.to_string())).or_insert(0);
            *n += 1;
            *n
        };
        let mut decision = ConnectDecision::clean();
        for rule in &self.partitions {
            if !rule.matches(src, dst) {
                continue;
            }
            let c = rule.count.fetch_add(1, Ordering::Relaxed) + 1;
            if c >= rule.from && (rule.until == 0 || c <= rule.until) {
                decision.refuse = true;
                self.injected.fetch_add(1, Ordering::Relaxed);
            } else if rule.until != 0
                && c > rule.until
                && !rule.healed.swap(true, Ordering::Relaxed)
            {
                // The first attempt past the window is the heal: the dial
                // goes through and the partition is retired for good.
                self.healed.fetch_add(1, Ordering::Relaxed);
            }
        }
        for rule in &self.conn_rules {
            if rule.arrival != arrival || !name_match(&rule.src, src) || !name_match(&rule.dst, dst)
            {
                continue;
            }
            self.injected.fetch_add(1, Ordering::Relaxed);
            match &rule.fault {
                NetFault::Refuse => decision.refuse = true,
                NetFault::Delay(ms) => decision.delay_ms += ms,
                stream => decision.faults.push(stream.clone()),
            }
        }
        decision
    }

    /// Whether a partition currently severs `src → dst`, *without*
    /// registering an arrival — the check an established stream makes
    /// before moving bytes.
    pub fn partitioned(&self, src: &str, dst: &str) -> bool {
        self.partitions
            .iter()
            .any(|r| r.matches(src, dst) && r.active_now())
    }

    /// How many dial attempts the concrete `(src, dst)` edge has seen.
    pub fn edge_arrivals(&self, src: &str, dst: &str) -> u64 {
        let edges = self.edges.lock().unwrap_or_else(|p| p.into_inner());
        edges
            .get(&(src.to_string(), dst.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Registers one stream-level fault firing (drop, truncate, duplicate
    /// delivery…) — called by the fabric, which owns the streams.
    pub fn note_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Total network faults fired so far (refused dials, partition hits,
    /// and stream-level firings reported via [`NetFaultPlan::note_injected`]).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// How many scripted partitions have healed (reached the end of their
    /// window and let a dial through). Each rule heals at most once.
    pub fn partitions_healed(&self) -> u64 {
        self.healed.load(Ordering::Relaxed)
    }

    /// Total rules scheduled (partitions plus connect faults).
    pub fn scheduled_count(&self) -> usize {
        self.partitions.len() + self.conn_rules.len()
    }

    /// A deterministic pseudo-random value in `[0, bound)` derived from
    /// the plan seed, a key, and an ordinal — [`jitter`] keyed by the plan
    /// seed. Returns 0 when `bound` is 0.
    pub fn jitter(&self, key: &str, ordinal: u64, bound: u64) -> u64 {
        jitter(self.seed, key, ordinal, bound)
    }

    /// Serializes the plan's rules to the `netfaults v1` text format
    /// (arrival counters are runtime state and are not persisted).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "netfaults v1");
        let _ = writeln!(out, "seed {}", self.seed);
        for r in &self.partitions {
            let _ = write!(out, "partition {} {} {} {}", r.src, r.dst, r.from, r.until);
            let _ = if r.symmetric {
                writeln!(out, " sym")
            } else {
                writeln!(out)
            };
        }
        for r in &self.conn_rules {
            let _ = write!(out, "conn {} {} {} ", r.src, r.dst, r.arrival);
            let _ = match &r.fault {
                NetFault::Refuse => writeln!(out, "refuse"),
                NetFault::Delay(ms) => writeln!(out, "latency {ms}"),
                NetFault::DropAfter(n) => writeln!(out, "drop-after {n}"),
                NetFault::SlowWrite { chunk, delay_ms } => {
                    writeln!(out, "slow-write {chunk} {delay_ms}")
                }
                NetFault::TruncateAfter(n) => writeln!(out, "truncate-after {n}"),
                NetFault::Duplicate => writeln!(out, "duplicate"),
            };
        }
        out
    }

    /// Parses a plan from the `netfaults v1` text format:
    ///
    /// ```text
    /// netfaults v1
    /// seed 42
    /// # partition  src dst from until   (until 0 = forever; `sym` = both ways)
    /// partition n0 n1 3 10
    /// partition n1 n2 1 0 sym
    /// # conn  src dst arrival kind [args…]
    /// conn client n0 2 refuse
    /// conn n0 n1 1 latency 50
    /// conn n0 n1 2 drop-after 128
    /// conn n0 n2 1 slow-write 16 20
    /// conn n0 n1 3 truncate-after 100
    /// conn client n0 4 duplicate
    /// ```
    ///
    /// The shared [`LineReader`] checks the header, numbers the lines and
    /// skips blank lines and `#` comments; member names must not contain
    /// spaces; `*` is a wildcard.
    ///
    /// # Errors
    ///
    /// Returns a [`LineError`] naming the offending line on a bad
    /// header, unknown directive or fault kind, or malformed numbers.
    pub fn from_text(text: &str) -> Result<NetFaultPlan, LineError> {
        let (_, lines) = LineReader::open(text, "plan", &["netfaults v1"])?;
        let mut plan = NetFaultPlan::new(0);
        lines.each_record(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            match words[0] {
                "seed" => {
                    plan.seed = words
                        .get(1)
                        .and_then(|w| w.parse().ok())
                        .ok_or("seed needs an integer")?;
                }
                "partition" => {
                    if words.len() < 5 {
                        return Err("partition needs: src dst from until".into());
                    }
                    let from: u64 = words[3]
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("from must be a positive integer")?;
                    let until: u64 = words[4]
                        .parse()
                        .ok()
                        .filter(|&n| n == 0 || n >= from)
                        .ok_or("until must be 0 or >= from")?;
                    let symmetric = match words.get(5) {
                        None => false,
                        Some(&"sym") => true,
                        Some(other) => return Err(format!("unknown partition flag {other:?}")),
                    };
                    let (src, dst) = (words[1].to_string(), words[2].to_string());
                    plan.add_partition(src, dst, from, until, symmetric);
                }
                "conn" => {
                    if words.len() < 5 {
                        return Err("conn needs: src dst arrival kind".into());
                    }
                    let arrival: u64 = words[3]
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("arrival must be a positive integer")?;
                    let need = |i: usize, what: &str| -> Result<u64, String> {
                        words
                            .get(i)
                            .and_then(|w| w.parse().ok())
                            .ok_or_else(|| format!("{} needs {what}", words[4]))
                    };
                    let fault = match words[4] {
                        "refuse" => NetFault::Refuse,
                        "latency" => NetFault::Delay(need(5, "milliseconds")?),
                        "drop-after" => NetFault::DropAfter(need(5, "a byte count")?),
                        "slow-write" => NetFault::SlowWrite {
                            chunk: need(5, "a chunk size and stall ms")?,
                            delay_ms: need(6, "a chunk size and stall ms")?,
                        },
                        "truncate-after" => NetFault::TruncateAfter(need(5, "a byte count")?),
                        "duplicate" => NetFault::Duplicate,
                        other => return Err(format!("unknown fault kind {other:?}")),
                    };
                    plan.conn_rules.push(ConnRule {
                        src: words[1].to_string(),
                        dst: words[2].to_string(),
                        arrival,
                        fault,
                    });
                }
                other => return Err(format!("unknown directive {other:?}")),
            }
            Ok(())
        })?;
        Ok(plan)
    }

    /// Loads a plan from a file.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure as a boxed error.
    pub fn load(
        path: impl AsRef<std::path::Path>,
    ) -> Result<NetFaultPlan, Box<dyn std::error::Error + Send + Sync>> {
        let text = std::fs::read_to_string(path)?;
        Ok(NetFaultPlan::from_text(&text)?)
    }
}

/// A deterministic pseudo-random value in `[0, bound)`: FNV-1a over the
/// seed, a key, and an ordinal, with no RNG state; 0 when `bound` is 0.
/// The one seeded jitter hash in the workspace: [`FaultPlan::jitter`],
/// the service's retry backoff and the dial gate all call it, so their
/// replayed schedules agree.
///
/// [`FaultPlan::jitter`]: crate::FaultPlan::jitter
pub fn jitter(seed: u64, key: &str, ordinal: u64, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for b in key.bytes().chain(ordinal.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h % bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_rules_fire_on_exact_edge_arrival() {
        let plan = NetFaultPlan::new(1)
            .on_connect("n0", "n1", 2, NetFault::Refuse)
            .on_connect("n0", "n1", 3, NetFault::Delay(40));
        assert_eq!(plan.connect("n0", "n1"), ConnectDecision::clean());
        let d = plan.connect("n0", "n1");
        assert!(d.refuse);
        let d = plan.connect("n0", "n1");
        assert!(!d.refuse);
        assert_eq!(d.delay_ms, 40);
        assert_eq!(plan.connect("n0", "n1"), ConnectDecision::clean());
        assert_eq!(plan.edge_arrivals("n0", "n1"), 4);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn edges_count_independently() {
        let plan = NetFaultPlan::new(0).on_connect("n0", "n1", 2, NetFault::Refuse);
        // Arrivals on other edges do not advance (n0, n1).
        assert!(!plan.connect("n1", "n0").refuse);
        assert!(!plan.connect("n0", "n2").refuse);
        assert!(!plan.connect("n0", "n1").refuse);
        assert!(plan.connect("n0", "n1").refuse);
        assert_eq!(plan.edge_arrivals("n1", "n0"), 1);
        assert_eq!(plan.edge_arrivals("n0", "n1"), 2);
    }

    #[test]
    fn wildcards_match_any_name_but_count_per_edge() {
        let plan = NetFaultPlan::new(0).on_connect("*", "n1", 1, NetFault::Duplicate);
        let d = plan.connect("client", "n1");
        assert_eq!(d.faults, vec![NetFault::Duplicate]);
        // First arrival on a *different* concrete edge also fires: the
        // rule is per-edge-ordinal, not a one-shot.
        let d = plan.connect("n2", "n1");
        assert_eq!(d.faults, vec![NetFault::Duplicate]);
        assert!(plan.connect("client", "n1").faults.is_empty());
        assert!(plan.connect("n1", "n0").faults.is_empty());
    }

    #[test]
    fn partition_window_refuses_then_heals_once() {
        let plan = NetFaultPlan::new(0).partition("n0", "n1", 2, 3);
        assert!(!plan.connect("n0", "n1").refuse); // attempt 1: before window
        assert!(plan.connect("n0", "n1").refuse); // 2: active
        assert!(plan.connect("n0", "n1").refuse); // 3: active
        assert_eq!(plan.partitions_healed(), 0);
        assert!(!plan.connect("n0", "n1").refuse); // 4: heal
        assert_eq!(plan.partitions_healed(), 1);
        assert!(!plan.connect("n0", "n1").refuse); // stays healed
        assert_eq!(plan.partitions_healed(), 1, "heal counts exactly once");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn forever_partition_never_heals() {
        let plan = NetFaultPlan::new(0).partition("n0", "n1", 1, 0);
        for _ in 0..10 {
            assert!(plan.connect("n0", "n1").refuse);
        }
        assert_eq!(plan.partitions_healed(), 0);
        assert!(plan.partitioned("n0", "n1"));
        assert!(!plan.partitioned("n1", "n0"), "one-way only");
    }

    #[test]
    fn symmetric_partition_severs_both_directions() {
        let plan = NetFaultPlan::new(0).partition_symmetric("n0", "n1", 1, 2);
        assert!(plan.connect("n0", "n1").refuse); // rule count 1
        assert!(plan.connect("n1", "n0").refuse); // rule count 2 (reverse matches)
        assert!(!plan.connect("n0", "n1").refuse); // count 3: healed
        assert_eq!(plan.partitions_healed(), 1);
        assert_eq!(plan.edge_arrivals("n0", "n1"), 2);
        assert_eq!(plan.edge_arrivals("n1", "n0"), 1);
    }

    #[test]
    fn partitioned_is_a_pure_check() {
        let plan = NetFaultPlan::new(0).partition("n0", "n1", 2, 0);
        assert!(!plan.partitioned("n0", "n1")); // count 0: not yet active
        assert!(!plan.partitioned("n0", "n1")); // still 0 — no arrival registered
        plan.connect("n0", "n1");
        assert!(!plan.partitioned("n0", "n1")); // count 1 < from
        plan.connect("n0", "n1");
        assert!(plan.partitioned("n0", "n1")); // count 2: active, forever
        assert!(plan.partitioned("n0", "n1"));
        assert_eq!(plan.edge_arrivals("n0", "n1"), 2);
    }

    #[test]
    fn stream_faults_arm_together() {
        let plan = NetFaultPlan::new(0)
            .on_connect("n0", "n1", 1, NetFault::DropAfter(100))
            .on_connect(
                "n0",
                "n1",
                1,
                NetFault::SlowWrite {
                    chunk: 8,
                    delay_ms: 5,
                },
            );
        let d = plan.connect("n0", "n1");
        assert!(!d.refuse);
        assert_eq!(
            d.faults,
            vec![
                NetFault::DropAfter(100),
                NetFault::SlowWrite {
                    chunk: 8,
                    delay_ms: 5
                }
            ]
        );
        assert_eq!(plan.injected(), 2);
        plan.note_injected();
        assert_eq!(plan.injected(), 3);
    }

    #[test]
    fn script_roundtrips() {
        const SCRIPT: &str = "\
netfaults v1
seed 42

# sever the owner from its first follower for two dials
partition n0 n1 3 10
partition n1 n2 1 0 sym
conn client n0 2 refuse
conn n0 n1 1 latency 50
conn n0 n1 2 drop-after 128
conn n0 n2 1 slow-write 16 20
conn n0 n1 3 truncate-after 100
conn client n0 4 duplicate
";
        let plan = NetFaultPlan::from_text(SCRIPT).unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.scheduled_count(), 8);
        let text = plan.to_text();
        let back = NetFaultPlan::from_text(&text).unwrap();
        assert_eq!(back.seed(), 42);
        assert_eq!(back.to_text(), text);
        // Spot-check the parsed rules fire as scripted.
        assert_eq!(back.connect("n0", "n1").delay_ms, 50);
        assert_eq!(
            back.connect("n0", "n1").faults,
            vec![NetFault::DropAfter(128)]
        );
        assert!(
            back.connect("n1", "n2").refuse,
            "symmetric forever partition"
        );
        assert!(back.connect("n2", "n1").refuse);
    }

    #[test]
    fn parse_errors_name_lines() {
        let cases = [
            ("", 1, "empty plan"),
            ("nope", 1, "bad header"),
            ("netfaults v1\nseed x", 2, "seed needs an integer"),
            ("netfaults v1\nwarp n0 n1 1 refuse", 2, "unknown directive"),
            ("netfaults v1\npartition n0 n1", 2, "partition needs"),
            (
                "netfaults v1\npartition n0 n1 0 0",
                2,
                "from must be a positive integer",
            ),
            (
                "netfaults v1\npartition n0 n1 3 2",
                2,
                "until must be 0 or >= from",
            ),
            (
                "netfaults v1\npartition n0 n1 1 2 both",
                2,
                "unknown partition flag",
            ),
            ("netfaults v1\nconn n0 n1 1", 2, "conn needs"),
            (
                "netfaults v1\nconn n0 n1 0 refuse",
                2,
                "arrival must be a positive integer",
            ),
            (
                "netfaults v1\nconn n0 n1 1 explode",
                2,
                "unknown fault kind",
            ),
            (
                "netfaults v1\nconn n0 n1 1 latency",
                2,
                "latency needs milliseconds",
            ),
            (
                "netfaults v1\nconn n0 n1 1 slow-write 16",
                2,
                "slow-write needs",
            ),
            (
                "netfaults v1\nconn n0 n1 1 drop-after soon",
                2,
                "drop-after needs a byte count",
            ),
            (
                "netfaults v1\nseed 1\nconn n0 n1 1 explode",
                3,
                "unknown fault kind",
            ),
            // Blank and comment lines still count towards the line number.
            (
                "netfaults v1\n\n# comment\npartition n0 n1 1 0\nconn n0 n1 1",
                5,
                "conn needs",
            ),
        ];
        for (text, line, expect) in cases {
            let err = NetFaultPlan::from_text(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.to_string().contains(expect), "{text:?}: {err}");
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let plan = NetFaultPlan::new(9);
        for ord in 0..10 {
            let x = plan.jitter("dial:n2", ord, 100);
            assert_eq!(x, jitter(9, "dial:n2", ord, 100));
            assert!(x < 100);
        }
        assert_ne!(jitter(1, "k", 0, u64::MAX), jitter(2, "k", 0, u64::MAX));
        assert_eq!(jitter(9, "k", 0, 0), 0);
    }
}

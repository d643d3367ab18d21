//! Lock-free operational counters for long-lived hosts.
//!
//! The mitigation service (and any future daemon built on this workspace)
//! needs cheap always-on observability: request and job totals, cache
//! effectiveness, backpressure rejections, queue depth, and latency. A
//! [`ServiceCounters`] is a bundle of atomics safe to share across worker
//! threads; [`ServiceCounters::snapshot`] captures a consistent-enough view
//! for a status endpoint, and the snapshot renders as a [`Table`] for
//! human consumption.
//!
//! Every counter is declared once, as one row of the table at the bottom
//! of this module. The row generates the atomic, the snapshot field, the
//! update method, the wire rule the status protocol follows, and the
//! label `render` shows. Adding a counter means adding one row and calling
//! its method where the event happens.

use crate::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a counter travels in a status response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRule {
    /// Always sent; a status line without it is malformed.
    Required,
    /// Always sent; read as 0 when absent (the field postdates the first
    /// protocol release, so older peers may not send it).
    DefaultZero,
    /// Sent only when non-zero and read as 0 when absent: additive fields,
    /// so peers that predate them never see an unknown key on a quiet node.
    OmitWhenZero,
}

/// One counter of a [`CountersSnapshot`], as the wire and the status table
/// see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRow {
    /// Wire key, identical to the snapshot field name.
    pub key: &'static str,
    /// Row label in [`CountersSnapshot::render`].
    pub label: &'static str,
    /// The counter's value.
    pub value: u64,
    /// How the status protocol sends and reads it.
    pub wire: WireRule,
}

/// One update method per kind: `inc` counts one event, `add` counts `n`
/// (and skips the atomic when `n` is 0), `observe` keeps the high-water
/// mark, and `set` publishes a gauge owned elsewhere.
macro_rules! counter_method {
    ($(#[$doc:meta])* inc $method:ident $key:ident) => {
        $(#[$doc])*
        pub fn $method(&self) {
            self.$key.fetch_add(1, Ordering::Relaxed);
        }
    };
    ($(#[$doc:meta])* add $method:ident $key:ident) => {
        $(#[$doc])*
        pub fn $method(&self, n: u64) {
            if n > 0 {
                self.$key.fetch_add(n, Ordering::Relaxed);
            }
        }
    };
    ($(#[$doc:meta])* observe $method:ident $key:ident) => {
        $(#[$doc])*
        pub fn $method(&self, value: u64) {
            self.$key.fetch_max(value, Ordering::Relaxed);
        }
    };
    ($(#[$doc:meta])* set $method:ident $key:ident) => {
        $(#[$doc])*
        pub fn $method(&self, total: u64) {
            self.$key.store(total, Ordering::Relaxed);
        }
    };
}

macro_rules! service_counters {
    ($(
        $(#[$doc:meta])*
        $key:ident: $method:ident, $kind:ident, $wire:ident, $label:literal;
    )*) => {
        /// Monotonic counters and gauges for a request-serving process.
        ///
        /// All updates are `Relaxed` atomics: the counters are statistics,
        /// not synchronization, and must never contend on the hot path.
        ///
        /// # Examples
        ///
        /// ```
        /// use qmetrics::ServiceCounters;
        ///
        /// let c = ServiceCounters::new();
        /// c.inc_requests();
        /// c.inc_cache_miss();
        /// c.record_latency_us(1500);
        /// let snap = c.snapshot();
        /// assert_eq!(snap.requests, 1);
        /// assert_eq!(snap.cache_misses, 1);
        /// assert_eq!(snap.latency_max_us, 1500);
        /// ```
        #[derive(Debug, Default)]
        pub struct ServiceCounters {
            $($key: AtomicU64,)*
        }

        /// A point-in-time copy of a [`ServiceCounters`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)] // field names are the documentation
        pub struct CountersSnapshot {
            $(pub $key: u64,)*
        }

        impl ServiceCounters {
            $(counter_method! { $(#[$doc])* $kind $method $key })*

            /// Captures the current values.
            pub fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot {
                    $($key: self.$key.load(Ordering::Relaxed),)*
                }
            }
        }

        impl CountersSnapshot {
            /// Number of counters.
            pub const LEN: usize = [$(stringify!($key)),*].len();

            /// Every counter in table order (the wire order).
            pub fn rows(&self) -> [CounterRow; Self::LEN] {
                [$(CounterRow {
                    key: stringify!($key),
                    label: $label,
                    value: self.$key,
                    wire: WireRule::$wire,
                },)*]
            }

            /// Builds a snapshot by asking `value` for each counter in
            /// table order, given its wire key and rule.
            ///
            /// # Errors
            ///
            /// Returns the first error `value` returns.
            pub fn try_build<E>(
                mut value: impl FnMut(&'static str, WireRule) -> Result<u64, E>,
            ) -> Result<CountersSnapshot, E> {
                Ok(CountersSnapshot {
                    $($key: value(stringify!($key), WireRule::$wire)?,)*
                })
            }
        }
    };
}

// The counter table: wire key (also the snapshot field), update method,
// update kind, wire rule, `render` label. The doc line documents the
// method. Rows are in wire order; `OmitWhenZero` rows come last.
service_counters! {
    /// Counts one received request (of any kind, accepted or rejected).
    requests: inc_requests, inc, Required, "requests";
    /// Counts one job executed to completion by a worker.
    jobs_executed: inc_jobs_executed, inc, Required, "jobs executed";
    /// Counts one job that reached a worker but failed.
    jobs_failed: inc_jobs_failed, inc, Required, "jobs failed";
    /// Counts one request turned away because the queue was full.
    busy_rejections: inc_busy_rejection, inc, Required, "busy rejections";
    /// Counts one profile served from cache.
    cache_hits: inc_cache_hit, inc, Required, "cache hits";
    /// Counts one profile that had to be (re)measured.
    cache_misses: inc_cache_miss, inc, Required, "cache misses";
    /// Records an observed queue depth, keeping the high-water mark.
    queue_depth_peak: observe_queue_depth, observe, Required, "queue depth peak";
    /// Adds to the latency total; see [`ServiceCounters::record_latency_us`].
    latency_total_us: add_latency_total_us, add, Required, "latency total (us)";
    /// Keeps the latency maximum; see [`ServiceCounters::record_latency_us`].
    latency_max_us: observe_latency_max_us, observe, Required, "latency max (us)";
    /// Publishes the fault-injection total (a gauge owned by the fault
    /// plan, mirrored here so one snapshot carries everything).
    faults_injected: set_faults_injected, set, DefaultZero, "faults injected";
    /// Counts one retry of a transient characterization failure.
    retries: inc_retry, inc, DefaultZero, "retries";
    /// Counts one response served degraded (stale last-good profile).
    degraded_responses: inc_degraded_response, inc, DefaultZero, "degraded responses";
    /// Counts one job answered 504 because its deadline expired in queue.
    deadline_expirations: inc_deadline_expiration, inc, DefaultZero, "deadline expirations";
    /// Counts one idle or hung connection closed by the reaper.
    connections_reaped: inc_connection_reaped, inc, DefaultZero, "connections reaped";
    /// Counts one circuit breaker opening (failures or drift trips).
    breaker_trips: inc_breaker_trip, inc, DefaultZero, "breaker trips";
    /// Counts `n` characterization checkpoints appended to a journal.
    journal_checkpoints: add_journal_checkpoints, add, DefaultZero, "journal checkpoints";
    /// Counts one characterization job that resumed an in-flight journal
    /// instead of starting from scratch.
    resumed_jobs: inc_resumed_job, inc, DefaultZero, "resumed jobs";
    /// Counts one damaged profile moved aside to a quarantine path.
    profiles_quarantined: inc_profile_quarantined, inc, DefaultZero, "profiles quarantined";
    /// Publishes the invariant-clamp total (a gauge owned by the core
    /// validation ledger, mirrored here like the fault-injection total).
    invariant_clamps: set_invariant_clamps, set, DefaultZero, "invariant clamps";
    /// Publishes the simulator worker-pool task total (a gauge owned by
    /// `qsim::pool`, mirrored here so one snapshot carries everything).
    pool_tasks: set_pool_tasks, set, DefaultZero, "pool tasks";
    /// Publishes the simulator barrier-episode total (a gauge owned by
    /// `qsim::pool`).
    barrier_waits: set_barrier_waits, set, DefaultZero, "barrier waits";
    /// Publishes the statevector arena reuse total (a gauge owned by
    /// `qsim::arena`).
    arena_reuse_hits: set_arena_reuse_hits, set, DefaultZero, "arena reuse hits";
    /// Counts one return from the event loop's readiness wait (an
    /// `epoll_wait` wakeup, or its portable-fallback equivalent).
    epoll_wakeups: inc_epoll_wakeup, inc, DefaultZero, "epoll wakeups";
    /// Counts `n` newline-delimited frames extracted by the incremental
    /// parser (including blank keep-alive frames).
    frames_parsed: add_frames_parsed, add, DefaultZero, "frames parsed";
    /// Counts one transition of a connection into write backpressure (the
    /// socket refused bytes and the response stayed buffered until the
    /// poller reported writability).
    write_backpressure_events: inc_write_backpressure_event, inc, DefaultZero,
        "write backpressure events";
    /// Records an observed per-shard run-queue depth, keeping the
    /// high-water mark across all shards.
    shard_depth_peak: observe_shard_depth, observe, DefaultZero, "shard depth peak";
    /// Publishes the cross-shard work-steal total (a gauge owned by the
    /// sharded run queue, mirrored here like the fault-injection total).
    queue_steals: set_queue_steals, set, DefaultZero, "queue steals";
    /// Counts one request forwarded to the owning node of its device.
    forwards: inc_forward, inc, DefaultZero, "forwards";
    /// Counts one profile or journal replica installed from a peer node.
    replication_writes: inc_replication_write, inc, DefaultZero, "replication writes";
    /// Counts one ownership takeover: this node served a device whose
    /// owner was dead or unreachable.
    failovers: inc_failover, inc, DefaultZero, "failovers";
    /// Counts one heartbeat probe that went unanswered.
    heartbeats_missed: inc_heartbeat_missed, inc, DefaultZero, "heartbeats missed";
    /// Counts one request that arrived at a node which neither owns nor
    /// follows the device — the sender routed on a stale cluster map.
    stale_map_retries: inc_stale_map_retry, inc, DefaultZero, "stale map retries";
    /// Counts one queued work job evicted by overload shedding to admit
    /// newer work (the victim's deadline was already impossible).
    requests_shed: inc_requests_shed, inc, OmitWhenZero, "requests shed";
    /// Publishes the retry-budget denial total (a gauge owned by the
    /// node's `RetryBudget`, mirrored here like the fault-injection
    /// total).
    retry_budget_exhausted: set_retry_budget_exhausted, set, OmitWhenZero,
        "retry budget exhausted";
    /// Publishes the suppressed-dial total (a gauge owned by the
    /// per-peer `DialGate`).
    peer_dials_suppressed: set_peer_dials_suppressed, set, OmitWhenZero,
        "peer dials suppressed";
    /// Publishes the network fault-injection total (a gauge owned by the
    /// node's `NetFaultPlan`, distinct from the request-level
    /// `faults_injected`).
    net_faults_injected: set_net_faults_injected, set, OmitWhenZero, "net faults injected";
    /// Publishes the healed-partition total (a gauge owned by the node's
    /// `NetFaultPlan`).
    partitions_healed: set_partitions_healed, set, OmitWhenZero, "partitions healed";
}

/// Formats a value `render` computes from the counters.
type DerivedCell = fn(&CountersSnapshot) -> String;

/// Rows [`CountersSnapshot::render`] computes rather than stores: each is
/// shown right after the counter whose key it names.
const DERIVED_ROWS: [(&str, &str, DerivedCell); 2] = [
    ("cache_misses", "cache hit rate", |s| {
        format!("{:.3}", s.cache_hit_rate())
    }),
    ("latency_total_us", "latency mean (us)", |s| {
        s.latency_mean_us().to_string()
    }),
];

impl ServiceCounters {
    /// Creates a zeroed counter bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request's end-to-end latency in microseconds.
    pub fn record_latency_us(&self, us: u64) {
        self.add_latency_total_us(us);
        self.observe_latency_max_us(us);
    }
}

impl CountersSnapshot {
    /// Mean per-job latency in microseconds (0 when nothing ran).
    pub fn latency_mean_us(&self) -> u64 {
        let jobs = self.jobs_executed + self.jobs_failed;
        self.latency_total_us.checked_div(jobs).unwrap_or(0)
    }

    /// Cache hit rate in `[0, 1]` (0 when the cache was never consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let looked = self.cache_hits + self.cache_misses;
        if looked == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked as f64
        }
    }

    /// Renders the snapshot as a two-column table.
    pub fn render(&self) -> Table {
        let mut t = Table::new(&["counter", "value"]);
        for row in self.rows() {
            t.row_owned(vec![row.label.to_string(), row.value.to_string()]);
            for (_, label, derive) in DERIVED_ROWS.iter().filter(|(after, ..)| *after == row.key) {
                t.row_owned(vec![label.to_string(), derive(self)]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One counter of each update kind, plus the latency pair; every
    /// other counter stays zero.
    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ServiceCounters::new();
        for _ in 0..3 {
            c.inc_requests();
        }
        c.add_frames_parsed(6);
        c.add_frames_parsed(0);
        c.add_frames_parsed(2);
        c.observe_queue_depth(2);
        c.observe_queue_depth(7);
        c.observe_queue_depth(4);
        c.set_queue_steals(11);
        c.set_queue_steals(5);
        c.record_latency_us(100);
        c.record_latency_us(500);
        c.record_latency_us(300);

        let s = c.snapshot();
        assert_eq!(s.requests, 3, "inc counts one per call");
        assert_eq!(s.frames_parsed, 8, "add sums");
        assert_eq!(s.queue_depth_peak, 7, "observe keeps the maximum");
        assert_eq!(s.queue_steals, 5, "set keeps the last gauge value");
        assert_eq!(s.latency_total_us, 900);
        assert_eq!(s.latency_max_us, 500);
        let untouched = CountersSnapshot {
            requests: 0,
            frames_parsed: 0,
            queue_depth_peak: 0,
            queue_steals: 0,
            latency_total_us: 0,
            latency_max_us: 0,
            ..s
        };
        assert_eq!(untouched, CountersSnapshot::default());
    }

    #[test]
    fn rows_and_build_follow_the_table() {
        let mut next = 0u64;
        let s = CountersSnapshot::try_build(|_, _| {
            next += 1;
            Ok::<u64, ()>(next)
        })
        .unwrap();
        let rows = s.rows();
        assert_eq!(rows.len(), 37);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.value, i as u64 + 1, "{}", row.key);
        }
        let rebuilt = CountersSnapshot::try_build(|key, _| {
            rows.iter()
                .find(|r| r.key == key)
                .map(|r| r.value)
                .ok_or(())
        })
        .unwrap();
        assert_eq!(rebuilt, s);
        // Omit-when-zero rows trail the table, so dropping them leaves
        // the rest of the wire order intact.
        let first_omit = rows
            .iter()
            .position(|r| r.wire == WireRule::OmitWhenZero)
            .unwrap();
        assert!(rows[first_omit..]
            .iter()
            .all(|r| r.wire == WireRule::OmitWhenZero));
        assert_eq!(rows.len() - first_omit, 5);
    }

    #[test]
    fn zero_division_guards() {
        let s = ServiceCounters::new().snapshot();
        assert_eq!(s.latency_mean_us(), 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let c = Arc::new(ServiceCounters::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc_requests();
                        c.record_latency_us(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.requests, 8000);
        assert_eq!(s.latency_total_us, 8000);
    }

    /// The label → value rows of the status table for the snapshot whose
    /// i-th counter is i + 1, as rendered before the counters were
    /// declared in one table. Row order follows the table, which puts
    /// `latency total (us)` (and the mean derived from it) ahead of
    /// `latency max (us)`; labels and values are unchanged.
    #[test]
    fn render_includes_every_counter() {
        let mut next = 0u64;
        let s = CountersSnapshot::try_build(|_, _| {
            next += 1;
            Ok::<u64, ()>(next)
        })
        .unwrap();
        let text = s.render().to_string();
        let mut rendered: Vec<(String, String)> = text
            .lines()
            .skip(2)
            .map(|line| {
                let (label, value) = line.trim_end().rsplit_once(' ').unwrap();
                (label.trim_end().to_string(), value.to_string())
            })
            .collect();
        let mut pinned: Vec<(String, String)> = [
            ("requests", "1"),
            ("jobs executed", "2"),
            ("jobs failed", "3"),
            ("busy rejections", "4"),
            ("cache hits", "5"),
            ("cache misses", "6"),
            ("cache hit rate", "0.455"),
            ("queue depth peak", "7"),
            ("latency mean (us)", "1"),
            ("latency max (us)", "9"),
            ("latency total (us)", "8"),
            ("faults injected", "10"),
            ("retries", "11"),
            ("degraded responses", "12"),
            ("deadline expirations", "13"),
            ("connections reaped", "14"),
            ("breaker trips", "15"),
            ("journal checkpoints", "16"),
            ("resumed jobs", "17"),
            ("profiles quarantined", "18"),
            ("invariant clamps", "19"),
            ("pool tasks", "20"),
            ("barrier waits", "21"),
            ("arena reuse hits", "22"),
            ("epoll wakeups", "23"),
            ("frames parsed", "24"),
            ("write backpressure events", "25"),
            ("shard depth peak", "26"),
            ("queue steals", "27"),
            ("forwards", "28"),
            ("replication writes", "29"),
            ("failovers", "30"),
            ("heartbeats missed", "31"),
            ("stale map retries", "32"),
            ("requests shed", "33"),
            ("retry budget exhausted", "34"),
            ("peer dials suppressed", "35"),
            ("net faults injected", "36"),
            ("partitions healed", "37"),
        ]
        .iter()
        .map(|(l, v)| (l.to_string(), v.to_string()))
        .collect();
        assert_eq!(rendered.len(), 39, "{text}");
        rendered.sort();
        pinned.sort();
        assert_eq!(rendered, pinned, "{text}");
    }
}

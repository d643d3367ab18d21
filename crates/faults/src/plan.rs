//! The scripted fault plan: sites, fault kinds, and arrival-count firing.

use crate::FaultInjector;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of instrumented sites (array-indexed for lock-free counting).
pub const SITE_COUNT: usize = 8;

/// A place in the stack where faults can be injected.
///
/// Sites are coarse on purpose: each names one *operation class* whose
/// failure mode the resilience layer must handle, and arrival counts at a
/// site are deterministic for a fixed request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A characterization run is about to measure a profile (the cache's
    /// miss path). Supports `Error` (transient failure), `Latency`, and
    /// `Panic`.
    Characterize,
    /// A profile is about to be persisted. Supports `Torn` (partial write
    /// that must never corrupt the final path), `Error`, and `Latency`.
    ProfileWrite,
    /// A persisted profile is about to be read. Supports `Corrupt`
    /// (garbled bytes the parser must reject), `Error`, and `Latency`.
    ProfileRead,
    /// A worker picked up a job. Supports `Panic` (the job must answer
    /// 500 and the pool must survive), `Error`, and `Latency`.
    Worker,
    /// A circuit-execution batch is starting ([`Executor::run`]-level).
    /// Supports `Latency` (slow hardware) and `Panic`.
    ///
    /// [`Executor::run`]: https://docs.rs/ (see `qnoise::Executor`)
    Exec,
    /// A characterization checkpoint is about to be appended to a
    /// `charjournal v2` file. Supports `Panic` (kill mid-checkpoint — the
    /// resumed run must be bit-identical), `Torn` (a partial line lands
    /// and must be discarded on resume), `Error`, and `Latency`.
    JournalWrite,
    /// A profile or journal replica is about to be sent to a follower
    /// node. Supports `Error` (the write is dropped on the wire — the
    /// follower simply never sees it), `Corrupt` (the payload arrives
    /// bit-flipped and must fail its checksum on receipt), and `Latency`.
    ReplicateSend,
    /// A heartbeat probe is about to be sent to a peer node. Supports
    /// `Error` (the probe is dropped — a deterministic one-sided
    /// partition) and `Latency`.
    Heartbeat,
}

impl FaultSite {
    /// Every site, in index order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::Characterize,
        FaultSite::ProfileWrite,
        FaultSite::ProfileRead,
        FaultSite::Worker,
        FaultSite::Exec,
        FaultSite::JournalWrite,
        FaultSite::ReplicateSend,
        FaultSite::Heartbeat,
    ];

    /// The array index of this site.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultSite::Characterize => 0,
            FaultSite::ProfileWrite => 1,
            FaultSite::ProfileRead => 2,
            FaultSite::Worker => 3,
            FaultSite::Exec => 4,
            FaultSite::JournalWrite => 5,
            FaultSite::ReplicateSend => 6,
            FaultSite::Heartbeat => 7,
        }
    }

    /// The script spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::Characterize => "characterize",
            FaultSite::ProfileWrite => "profile-write",
            FaultSite::ProfileRead => "profile-read",
            FaultSite::Worker => "worker",
            FaultSite::Exec => "exec",
            FaultSite::JournalWrite => "journal-write",
            FaultSite::ReplicateSend => "replicate-send",
            FaultSite::Heartbeat => "heartbeat",
        }
    }

    /// Parses the script spelling.
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.as_str() == s)
    }
}

/// What happens when a scripted fault fires. The *caller* applies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with this message (a transient, retryable
    /// failure as far as the resilience layer is concerned).
    Error(String),
    /// The operation stalls for this many milliseconds before proceeding.
    Latency(u64),
    /// The acting thread panics with this message.
    Panic(String),
    /// A write is torn mid-stream: some bytes land, then the write fails.
    /// Crash-safe writers must guarantee the *final* path never sees them.
    Torn,
    /// A read returns garbled bytes; parsers must reject, not mis-load.
    Corrupt,
}

impl Fault {
    /// If this fault is a latency injection, sleep it off and return
    /// `true`; otherwise return `false`. A convenience for sites that
    /// support latency plus other kinds.
    pub fn apply_latency(&self) -> bool {
        if let Fault::Latency(ms) = self {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            true
        } else {
            false
        }
    }
}

/// One scheduled fault: fires on the `arrival`-th arrival (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Scheduled {
    pub(crate) arrival: u64,
    pub(crate) fault: Fault,
}

/// A seeded, scripted fault injector.
///
/// Faults are keyed by `(site, arrival count)`: the plan counts arrivals
/// at each site with an atomic counter and fires the fault scheduled for
/// that ordinal, if any. Because the trigger is the *count* and not the
/// clock or the thread identity, a fixed request order replays the exact
/// same fault sequence on every run. The seed does not drive firing — it
/// labels the scenario and feeds [`FaultPlan::jitter`] so tests can derive
/// deterministic pseudo-random values (e.g. backoff jitter expectations)
/// from the same identity.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Per-site schedules, sorted by arrival.
    pub(crate) scheduled: [Vec<Scheduled>; SITE_COUNT],
    arrivals: [AtomicU64; SITE_COUNT],
    injected: AtomicU64,
}

impl FaultPlan {
    /// Creates an empty plan with a scenario seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            scheduled: Default::default(),
            arrivals: Default::default(),
            injected: AtomicU64::new(0),
        }
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedules `fault` to fire on the `arrival`-th arrival (1-based) at
    /// `site`. Replaces any fault already scheduled for that ordinal.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` is 0.
    #[must_use]
    pub fn on_nth(mut self, site: FaultSite, arrival: u64, fault: Fault) -> FaultPlan {
        assert!(arrival >= 1, "arrivals are 1-based");
        let slot = &mut self.scheduled[site.index()];
        match slot.binary_search_by_key(&arrival, |s| s.arrival) {
            Ok(i) => slot[i].fault = fault,
            Err(i) => slot.insert(i, Scheduled { arrival, fault }),
        }
        self
    }

    /// How many arrivals `site` has seen so far.
    pub fn arrivals(&self, site: FaultSite) -> u64 {
        self.arrivals[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults scheduled (fired or not).
    pub fn scheduled_count(&self) -> usize {
        self.scheduled.iter().map(Vec::len).sum()
    }

    /// A deterministic pseudo-random value in `[0, bound)` derived from
    /// the plan seed, a key, and an ordinal — [`crate::jitter`] keyed by
    /// the plan seed, no RNG state. Returns 0 when `bound` is 0.
    pub fn jitter(&self, key: &str, ordinal: u64, bound: u64) -> u64 {
        crate::jitter(self.seed, key, ordinal, bound)
    }
}

impl FaultInjector for FaultPlan {
    fn check(&self, site: FaultSite) -> Option<Fault> {
        let i = site.index();
        let schedule = &self.scheduled[i];
        // Fast path: a site with nothing scheduled still counts arrivals
        // (so mixed plans stay deterministic) but allocates nothing.
        let arrival = self.arrivals[i].fetch_add(1, Ordering::Relaxed) + 1;
        let hit = schedule
            .binary_search_by_key(&arrival, |s| s.arrival)
            .ok()
            .map(|k| schedule[k].fault.clone());
        if hit.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_exact_arrival_only() {
        let plan = FaultPlan::new(1)
            .on_nth(FaultSite::Characterize, 2, Fault::Error("x".into()))
            .on_nth(FaultSite::Characterize, 4, Fault::Latency(10));
        let fired: Vec<_> = (0..5)
            .map(|_| plan.check(FaultSite::Characterize))
            .collect();
        assert_eq!(
            fired,
            vec![
                None,
                Some(Fault::Error("x".into())),
                None,
                Some(Fault::Latency(10)),
                None
            ]
        );
        assert_eq!(plan.arrivals(FaultSite::Characterize), 5);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::new(0)
            .on_nth(FaultSite::Worker, 1, Fault::Panic("boom".into()))
            .on_nth(FaultSite::ProfileWrite, 1, Fault::Torn);
        assert_eq!(plan.check(FaultSite::Exec), None);
        assert_eq!(
            plan.check(FaultSite::Worker),
            Some(Fault::Panic("boom".into()))
        );
        assert_eq!(plan.check(FaultSite::ProfileWrite), Some(Fault::Torn));
        assert_eq!(plan.check(FaultSite::Worker), None);
    }

    #[test]
    fn on_nth_replaces_same_ordinal() {
        let plan = FaultPlan::new(0)
            .on_nth(FaultSite::Worker, 1, Fault::Torn)
            .on_nth(FaultSite::Worker, 1, Fault::Corrupt);
        assert_eq!(plan.scheduled_count(), 1);
        assert_eq!(plan.check(FaultSite::Worker), Some(Fault::Corrupt));
    }

    #[test]
    fn concurrent_arrivals_fire_each_fault_exactly_once() {
        let plan = std::sync::Arc::new(
            FaultPlan::new(3)
                .on_nth(FaultSite::Worker, 3, Fault::Error("a".into()))
                .on_nth(FaultSite::Worker, 7, Fault::Error("b".into())),
        );
        let fired = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let plan = std::sync::Arc::clone(&plan);
                let fired = std::sync::Arc::clone(&fired);
                s.spawn(move || {
                    for _ in 0..4 {
                        if plan.check(FaultSite::Worker).is_some() {
                            fired.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // 32 arrivals, two scheduled ordinals: exactly two fire, and the
        // plan's own ledger agrees — regardless of interleaving.
        assert_eq!(fired.load(Ordering::Relaxed), 2);
        assert_eq!(plan.injected(), 2);
        assert_eq!(plan.arrivals(FaultSite::Worker), 32);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = FaultPlan::new(9);
        let b = FaultPlan::new(9);
        for ord in 0..10 {
            let x = a.jitter("retry:ibmqx4", ord, 100);
            assert_eq!(x, b.jitter("retry:ibmqx4", ord, 100));
            assert!(x < 100);
        }
        assert_ne!(
            FaultPlan::new(1).jitter("k", 0, u64::MAX),
            FaultPlan::new(2).jitter("k", 0, u64::MAX),
            "different seeds should diverge"
        );
        assert_eq!(a.jitter("k", 0, 0), 0);
    }

    /// Golden jitter values: scripted scenarios derive expectations from
    /// them, so they must stay byte-identical across refactors of the hash.
    #[test]
    fn jitter_values_are_pinned() {
        let cases: [(u64, &str, u64, u64, u64); 4] = [
            (5, "retry:ibmqx4", 0, 100, 41),
            (5, "retry:ibmqx4", 3, 100, 50),
            (42, "k", 7, 1 << 40, 243_399_880_267),
            (1, "dial:n2", 1, u64::MAX, 7_543_651_640_759_500_133),
        ];
        for (seed, key, ordinal, bound, want) in cases {
            assert_eq!(
                FaultPlan::new(seed).jitter(key, ordinal, bound),
                want,
                "seed {seed}, key {key}, ordinal {ordinal}"
            );
        }
    }
}

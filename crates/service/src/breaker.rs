//! Per-device circuit breaker and bounded-retry policy.
//!
//! Characterization is the service's only expensive, failure-prone
//! operation. Two cooperating mechanisms keep a flaky device from taking
//! the service down with it:
//!
//! * [`RetryPolicy`] — transient characterization failures are retried a
//!   bounded number of times with exponential backoff plus *deterministic*
//!   jitter ([`invmeas_faults::jitter`], an FNV hash of seed, key, and
//!   attempt — no RNG state), so a replayed fault plan produces the same
//!   retry schedule every run.
//! * [`CircuitBreaker`] — after enough consecutive failures (or enough
//!   consecutive drift-threshold trips, which mean the profile keeps going
//!   stale faster than we can re-measure), the breaker *opens*: requests
//!   are served the last known-good profile with `degraded: true` instead
//!   of hammering a device that will not characterize. The open state
//!   lasts a fixed number of degraded serves (count-based, not time-based,
//!   so chaos tests replay identically), then a single *half-open* probe
//!   decides whether to close again.
//!
//! Serving a stale profile is a principled fallback, not a hack: RBMS
//! strengths are stable across calibration windows (§6.1), and averaged or
//! slightly out-of-date profiles still rank states usefully — mitigation
//! degrades gracefully rather than failing closed.

use invmeas_faults::jitter;

/// Breaker tuning, shared by every device's breaker.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive characterization failures (after retries) that open
    /// the breaker.
    pub failure_threshold: u32,
    /// Consecutive drift-threshold trips that open the breaker.
    pub drift_trip_threshold: u32,
    /// Degraded serves while open before a half-open probe is allowed.
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            drift_trip_threshold: 4,
            cooldown: 4,
        }
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: characterization attempts proceed normally.
    Closed,
    /// Tripped: requests are served stale profiles until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: exactly one probe attempt is in flight.
    HalfOpen,
}

/// A count-based circuit breaker for one device.
///
/// All transitions are driven by explicit calls (no clocks), so a fixed
/// request order replays the same transition sequence on every run.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    consecutive_drift_trips: u32,
    degraded_serves: u32,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            consecutive_drift_trips: 0,
            degraded_serves: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the breaker currently refuses characterization attempts.
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// Asks permission for a characterization attempt. `true` means go
    /// ahead (closed, or a half-open probe). `false` means serve stale:
    /// the call itself counts as one degraded serve of the cooldown, and
    /// once enough have passed the breaker moves to half-open so the
    /// *next* request probes.
    pub fn allow_attempt(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.degraded_serves += 1;
                if self.degraded_serves >= self.config.cooldown {
                    self.state = BreakerState::HalfOpen;
                }
                false
            }
        }
    }

    /// Records a successful characterization (or an equivalent fresh
    /// profile from disk): closes the breaker and clears both streaks.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.consecutive_drift_trips = 0;
        self.degraded_serves = 0;
    }

    /// Records a characterization failure (retries already exhausted).
    /// Returns `true` when this failure trips the breaker open.
    pub fn record_failure(&mut self) -> bool {
        self.consecutive_failures += 1;
        // A failed half-open probe reopens immediately for a full cooldown.
        if self.state == BreakerState::HalfOpen {
            self.open();
            return true;
        }
        if self.state == BreakerState::Closed
            && self.consecutive_failures >= self.config.failure_threshold
        {
            self.open();
            return true;
        }
        false
    }

    /// Records a drift-threshold trip (a cached profile went stale from
    /// calibration drift within its window). Returns `true` when the
    /// streak trips the breaker open.
    pub fn record_drift_trip(&mut self) -> bool {
        self.consecutive_drift_trips += 1;
        if self.state == BreakerState::Closed
            && self.consecutive_drift_trips >= self.config.drift_trip_threshold
        {
            self.open();
            return true;
        }
        false
    }

    /// Clears the drift streak without touching the failure streak — a
    /// fresh cache hit proves the current profile is tracking calibration.
    pub fn note_fresh_hit(&mut self) {
        self.consecutive_drift_trips = 0;
    }

    fn open(&mut self) {
        self.state = BreakerState::Open;
        self.degraded_serves = 0;
    }
}

/// Bounded retry with exponential backoff and deterministic jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = one attempt, no retry).
    pub max_retries: u32,
    /// Base backoff in milliseconds; attempt `k` waits
    /// `base · 2^k + jitter` where `jitter < base` (all 0 when base is 0).
    pub base_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 25,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (0-based), in milliseconds.
    /// Deterministic: the jitter term is an FNV-1a hash of `(seed, key,
    /// attempt)`, not an RNG draw, so replays schedule identically.
    pub fn backoff_ms(&self, seed: u64, key: &str, attempt: u32) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = self.base_backoff_ms.saturating_mul(1u64 << attempt.min(16));
        exp + jitter(seed, key, u64::from(attempt), self.base_backoff_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            drift_trip_threshold: 3,
            cooldown: 2,
        })
    }

    #[test]
    fn failures_open_then_cooldown_then_half_open_probe() {
        let mut b = breaker();
        assert!(b.allow_attempt());
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record_failure(), "second failure trips");
        assert_eq!(b.state(), BreakerState::Open);

        // Two degraded serves of cooldown…
        assert!(!b.allow_attempt());
        assert!(!b.allow_attempt());
        // …then the next request probes.
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow_attempt());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let mut b = breaker();
        b.record_failure();
        b.record_failure();
        assert!(b.is_open());
        b.allow_attempt();
        b.allow_attempt(); // cooldown elapsed → half-open
        assert!(b.allow_attempt(), "probe allowed");
        assert!(b.record_failure(), "failed probe reopens");
        assert!(b.is_open());
        assert!(!b.allow_attempt(), "cooldown restarts");
    }

    #[test]
    fn drift_trips_open_and_fresh_hits_reset_the_streak() {
        let mut b = breaker();
        assert!(!b.record_drift_trip());
        assert!(!b.record_drift_trip());
        b.note_fresh_hit();
        assert!(!b.record_drift_trip());
        assert!(!b.record_drift_trip());
        assert!(b.record_drift_trip(), "three consecutive trips open");
        assert!(b.is_open());
    }

    #[test]
    fn success_clears_both_streaks() {
        let mut b = breaker();
        b.record_failure();
        b.record_drift_trip();
        b.record_drift_trip();
        b.record_success();
        assert!(!b.record_failure());
        assert!(!b.record_drift_trip());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_bounded() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 10,
        };
        let a: Vec<u64> = (0..3).map(|k| p.backoff_ms(7, "ibmqx4", k)).collect();
        let b: Vec<u64> = (0..3).map(|k| p.backoff_ms(7, "ibmqx4", k)).collect();
        assert_eq!(a, b, "same inputs, same schedule");
        for (k, &ms) in a.iter().enumerate() {
            let exp = 10u64 << k;
            assert!(ms >= exp && ms < exp + 10, "attempt {k}: {ms}");
        }
        assert_ne!(
            p.backoff_ms(7, "ibmqx4", 0),
            p.backoff_ms(8, "ibmqx4", 0),
            "seed feeds the jitter"
        );
        let zero = RetryPolicy {
            max_retries: 1,
            base_backoff_ms: 0,
        };
        assert_eq!(zero.backoff_ms(1, "x", 0), 0);
    }

    /// Golden retry schedules: the backoff (and so every replayed retry
    /// timeline) must stay byte-identical across refactors of the jitter
    /// hash.
    #[test]
    fn backoff_schedule_is_pinned() {
        let cases: [(u64, &str, u32, u64, u64); 4] = [
            (0, "ibmqx4", 0, 45, 1320),
            (0, "ibmqx4", 1, 54, 2729),
            (7, "ibmqx2", 2, 115, 4215),
            (0xdead_beef, "ibmq_melbourne", 5, 817, 32942),
        ];
        for (seed, key, attempt, at_25, at_1000) in cases {
            for (base, want) in [(25, at_25), (1000, at_1000)] {
                let p = RetryPolicy {
                    max_retries: 8,
                    base_backoff_ms: base,
                };
                assert_eq!(
                    p.backoff_ms(seed, key, attempt),
                    want,
                    "seed {seed}, key {key}, attempt {attempt}, base {base}"
                );
            }
        }
    }
}

//! The drift-aware RBMS profile cache, with retry and breaker resilience.
//!
//! Characterization is the expensive part of AIM (§6.2.1) but profiles are
//! stable across calibration windows (§6.1), so the service measures each
//! (device, method) profile once and reuses it until the calibration
//! moves. Cache keying and invalidation:
//!
//! * **key** — `(device, method)`; each entry records the calibration
//!   window and the exact device snapshot it was measured against;
//! * **invalidation** — an entry is stale as soon as the current window
//!   differs from the entry's, or [`qnoise::drift_score`] between the
//!   entry's snapshot and the current one exceeds the configured
//!   threshold, or the requested trial budget changed;
//! * **single-flight** — concurrent requests for the same key serialize on
//!   a per-key slot, so a burst of N requests performs exactly one
//!   characterization and N−1 hits;
//! * **persistence** — with a profile directory configured, measured
//!   tables are written through via `profile_io` (`rbms v2` files named
//!   `<device>-<method>-w<window>.rbms`, crash-safe temp-and-rename
//!   writes) and later instances warm up from disk. The directory changes
//!   where a profile lives, not what it holds: with or without it the
//!   same characterization units run, so the table is the same;
//! * **determinism** — the measurement RNG seed is derived from the
//!   server's profile seed and the key (never from the request), so the
//!   cached table does not depend on which concurrent request got there
//!   first.
//!
//! ## Resilience
//!
//! A transient characterization failure is retried under the cache's
//! [`RetryPolicy`] (bounded, exponential backoff, deterministic jitter).
//! When retries exhaust — or a device's profile keeps tripping the drift
//! threshold — the per-device [`CircuitBreaker`] opens and the cache
//! serves the **last known-good** profile with [`CacheOutcome::Stale`]
//! instead of failing or re-hammering the device. A stale RBMS table
//! still ranks states usefully (strengths are stable across windows,
//! §6.1), so mitigation degrades gracefully; requests only fail with
//! [`CacheError::Unavailable`] when there is no last-good profile at all.

use crate::breaker::{BreakerConfig, CircuitBreaker, RetryPolicy};
use crate::overload::RetryBudget;
use crate::protocol::{CacheOutcome, MethodKind};
use crate::replicate::ProfileReplicator;
use invmeas::journal::{
    characterize, export_journal, install_journal, CharSpec, Journal, JournalError, JournalStats,
};
use invmeas::profile_io::{install_profile_text, quarantine_profile, ProfileError, ProfileMeta};
use invmeas::RbmsTable;
use invmeas_faults::{Fault, FaultInjector, FaultSite, NoFaults};
use qmetrics::ServiceCounters;
use qnoise::{drift_score, DeviceModel, NoisyExecutor};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a cache mutex, tolerating poison: an injected (or real) panic
/// mid-measure must not wedge the slot for every later request for that
/// key. The guarded state stays consistent across a panic because
/// [`ProfileCache::install`] only runs after a measurement fully
/// succeeds — a poisoned slot simply holds whatever was installed last.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Debug, Clone)]
struct Entry {
    window: u64,
    shots: u64,
    snapshot: DeviceModel,
    table: RbmsTable,
}

/// One key's cached state: the entry serving fresh hits plus the last
/// profile that was ever measured (or loaded) successfully, kept for
/// degraded serves while the breaker is open.
#[derive(Debug, Default)]
struct SlotState {
    current: Option<Entry>,
    last_good: Option<Entry>,
}

/// Cache configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Base RNG seed for characterization runs.
    pub profile_seed: u64,
    /// Maximum [`drift_score`] against the profiled snapshot before an
    /// entry is considered stale (0.0 = any parameter change invalidates).
    pub drift_threshold: f64,
    /// Worker threads per characterization sweep.
    pub exec_threads: usize,
    /// Optional write-through persistence directory.
    pub profile_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            profile_seed: 2019,
            drift_threshold: 0.0,
            exec_threads: 1,
            profile_dir: None,
        }
    }
}

/// Why the cache could not produce a profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The request can never succeed (e.g. brute force beyond 14 qubits) —
    /// a client error, not a service degradation.
    Invalid(String),
    /// Characterization failed transiently, retries are exhausted, and no
    /// last-good profile exists to serve degraded.
    Unavailable(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Invalid(m) => write!(f, "{m}"),
            CacheError::Unavailable(m) => write!(f, "unavailable: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// A point-in-time summary of cache and breaker state for `health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHealth {
    /// Keys holding a profile (fresh or last-good).
    pub entries: u64,
    /// Devices whose breaker is currently open.
    pub open_breakers: u64,
    /// Windows behind the current one of the oldest held profile
    /// (0 when empty or fully fresh).
    pub oldest_age_windows: u64,
}

/// Outcome of one measurement attempt, split by retryability.
enum MeasureError {
    /// Client/config error — retrying cannot help.
    Permanent(String),
    /// Worth retrying (injected or environmental).
    Transient(String),
}

/// A per-key slot: the outer `Arc<Mutex>` is what single-flights
/// concurrent misses for one `(device, method)` pair.
type Slot = Arc<Mutex<SlotState>>;

/// A concurrent profile cache. See the module docs for semantics.
#[derive(Debug)]
pub struct ProfileCache {
    config: CacheConfig,
    slots: Mutex<HashMap<(String, MethodKind), Slot>>,
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
    breaker_config: BreakerConfig,
    retry: RetryPolicy,
    counters: Arc<ServiceCounters>,
    faults: Arc<dyn FaultInjector>,
    /// Mesh replication hook: when set, finished profiles and journal
    /// checkpoints are pushed to the device's follower nodes.
    replicator: Option<Arc<dyn ProfileReplicator>>,
    /// Node-wide retry budget: when set, every characterization retry
    /// must spend a token first (a denial serves stale immediately).
    retry_budget: Option<Arc<RetryBudget>>,
}

impl ProfileCache {
    /// Creates an empty cache with default retry/breaker tuning, private
    /// counters, and no fault injection.
    pub fn new(config: CacheConfig) -> Self {
        ProfileCache {
            config,
            slots: Mutex::new(HashMap::new()),
            breakers: Mutex::new(HashMap::new()),
            breaker_config: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            counters: Arc::new(ServiceCounters::new()),
            faults: Arc::new(NoFaults),
            replicator: None,
            retry_budget: None,
        }
    }

    /// Shares the server's counter bundle so retries, degraded serves, and
    /// breaker trips land in the same status snapshot as everything else.
    #[must_use]
    pub fn with_counters(mut self, counters: Arc<ServiceCounters>) -> Self {
        self.counters = counters;
        self
    }

    /// Installs a fault injector consulted at [`FaultSite::Characterize`]
    /// (one arrival per actual measurement attempt) and threaded through
    /// profile I/O ([`FaultSite::ProfileWrite`] / [`FaultSite::ProfileRead`]).
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the breaker tuning used for every device.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker_config = breaker;
        self
    }

    /// Installs a mesh replicator: finished profiles (after persist) and
    /// journal checkpoints (after every append) are pushed to the
    /// device's followers. Requires a profile directory — replication
    /// payloads are the exact on-disk text.
    #[must_use]
    pub fn with_replicator(mut self, replicator: Arc<dyn ProfileReplicator>) -> Self {
        self.replicator = Some(replicator);
        self
    }

    /// Couples characterization retries to the node-wide [`RetryBudget`]:
    /// a retry that cannot spend a token is not attempted and the
    /// failure serves stale (or `Unavailable`) immediately. First
    /// attempts are never charged.
    #[must_use]
    pub fn with_retry_budget(mut self, budget: Arc<RetryBudget>) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// Returns the profile for `(device, method)` in calibration window
    /// `window`, measuring it against `snapshot` only when no valid cached
    /// or persisted copy exists. The outcome reports which path served it;
    /// [`CacheOutcome::Stale`] means the breaker (or exhausted retries)
    /// forced a last-good serve and the response must carry
    /// `degraded: true`.
    ///
    /// # Errors
    ///
    /// [`CacheError::Invalid`] when the method cannot characterize this
    /// device (e.g. brute force beyond 14 qubits); [`CacheError::Unavailable`]
    /// when characterization failed and no last-good profile exists.
    pub fn get_or_measure(
        &self,
        device: &str,
        snapshot: &DeviceModel,
        window: u64,
        method: MethodKind,
        shots: u64,
    ) -> Result<(RbmsTable, CacheOutcome), CacheError> {
        assert!(shots > 0, "characterization needs a trial budget");
        let slot = {
            let mut slots = lock(&self.slots);
            Arc::clone(
                slots
                    .entry((device.to_string(), method))
                    .or_insert_with(|| Arc::new(Mutex::new(SlotState::default()))),
            )
        };
        // Per-key critical section: the winner of a concurrent burst
        // measures while the rest block here, then observe a fresh entry.
        let mut state = lock(&slot);
        if let Some(e) = state.current.as_ref() {
            let fresh = e.window == window
                && e.shots == shots
                && drift_score(&e.snapshot, snapshot) <= self.config.drift_threshold;
            if fresh {
                self.with_breaker_of(device, |b| b.note_fresh_hit());
                return Ok((e.table.clone(), CacheOutcome::Hit));
            }
            // A drift trip is calibration moving *within* a window — the
            // profile went bad faster than window keying predicts. Window
            // advances and budget changes are normal invalidation.
            let drift_trip = e.window == window
                && e.shots == shots
                && self.config.drift_threshold > 0.0
                && drift_score(&e.snapshot, snapshot) > self.config.drift_threshold;
            if drift_trip && self.with_breaker_of(device, |b| b.record_drift_trip()) {
                self.counters.inc_breaker_trip();
            }
        }

        // Open breaker: serve the last good profile degraded instead of
        // attempting characterization (each serve counts toward cooldown).
        if !self.with_breaker_of(device, |b| b.allow_attempt()) {
            return self.serve_stale(&mut state, "circuit breaker open");
        }

        if let Some(table) = self.load_persisted(device, method, window, snapshot) {
            self.install(&mut state, window, shots, snapshot, &table);
            self.with_breaker_of(device, |b| b.record_success());
            return Ok((table, CacheOutcome::DiskHit));
        }

        // Bounded retry around transient characterization failures, with a
        // deterministic backoff schedule (seeded jitter, no RNG state).
        let spec = CharSpec::new(
            method,
            device,
            snapshot.n_qubits(),
            shots,
            self.char_seed(snapshot.name(), method, window),
        );
        let mut attempt = 0u32;
        let failure = loop {
            match self.measure(snapshot, window, &spec) {
                Ok((table, stats)) => {
                    self.counters
                        .add_journal_checkpoints(stats.checkpoints_written);
                    if stats.resumed() {
                        self.counters.inc_resumed_job();
                    }
                    self.persist(window, &spec, &table);
                    self.install(&mut state, window, shots, snapshot, &table);
                    self.with_breaker_of(device, |b| b.record_success());
                    return Ok((table, CacheOutcome::Miss));
                }
                Err(MeasureError::Permanent(m)) => return Err(CacheError::Invalid(m)),
                Err(MeasureError::Transient(m)) => {
                    if attempt >= self.retry.max_retries {
                        break m;
                    }
                    // The node-wide retry budget gates every retry: an
                    // empty bucket means the whole mesh is already
                    // retrying too much, so this failure degrades now
                    // instead of adding to the storm.
                    if let Some(budget) = self.retry_budget.as_ref() {
                        if !budget.try_spend() {
                            break m;
                        }
                    }
                    self.counters.inc_retry();
                    let ms = self
                        .retry
                        .backoff_ms(self.config.profile_seed, device, attempt);
                    if ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    attempt += 1;
                }
            }
        };

        if self.with_breaker_of(device, |b| b.record_failure()) {
            self.counters.inc_breaker_trip();
        }
        self.serve_stale(&mut state, &failure)
    }

    /// Serves the last-good profile degraded, or fails `Unavailable`.
    fn serve_stale(
        &self,
        state: &mut SlotState,
        reason: &str,
    ) -> Result<(RbmsTable, CacheOutcome), CacheError> {
        match state.last_good.as_ref() {
            Some(e) => {
                self.counters.inc_degraded_response();
                Ok((e.table.clone(), CacheOutcome::Stale))
            }
            None => Err(CacheError::Unavailable(format!(
                "{reason} and no last-good profile is cached"
            ))),
        }
    }

    fn install(
        &self,
        state: &mut SlotState,
        window: u64,
        shots: u64,
        snapshot: &DeviceModel,
        table: &RbmsTable,
    ) {
        let entry = Entry {
            window,
            shots,
            snapshot: snapshot.clone(),
            table: table.clone(),
        };
        state.current = Some(entry.clone());
        state.last_good = Some(entry);
    }

    /// Runs `f` against the device's breaker (created closed on first use).
    fn with_breaker_of<T>(&self, device: &str, f: impl FnOnce(&mut CircuitBreaker) -> T) -> T {
        let mut breakers = lock(&self.breakers);
        let b = breakers
            .entry(device.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.breaker_config));
        f(b)
    }

    /// Summarizes cache and breaker state relative to `current_window`.
    pub fn health(&self, current_window: u64) -> CacheHealth {
        let open_breakers = {
            let breakers = lock(&self.breakers);
            breakers.values().filter(|b| b.is_open()).count() as u64
        };
        let slots: Vec<Slot> = {
            let map = lock(&self.slots);
            map.values().map(Arc::clone).collect()
        };
        let mut entries = 0u64;
        let mut oldest = 0u64;
        for slot in slots {
            let state = lock(&slot);
            if let Some(e) = state.current.as_ref().or(state.last_good.as_ref()) {
                entries += 1;
                oldest = oldest.max(current_window.saturating_sub(e.window));
            }
        }
        CacheHealth {
            entries,
            open_breakers,
            oldest_age_windows: oldest,
        }
    }

    /// Measures `spec`, whose seed is a pure function of the configuration
    /// and the (device, method, window) key. Registers one
    /// [`FaultSite::Characterize`] arrival per valid call.
    ///
    /// With a profile directory configured, each completed work unit is
    /// checkpointed to `<profile path>.journal`: a worker that panics (or a
    /// process that dies) mid-characterization leaves the journal behind,
    /// and the retry — or the next process — resumes from it
    /// bit-identically instead of re-measuring from scratch. Without one
    /// the same units run unjournaled, so the table is the same either way.
    fn measure(
        &self,
        snapshot: &DeviceModel,
        window: u64,
        spec: &CharSpec,
    ) -> Result<(RbmsTable, JournalStats), MeasureError> {
        spec.validate().map_err(MeasureError::Permanent)?;
        if let Some(f) = self.faults.check(FaultSite::Characterize) {
            f.apply_latency();
            match f {
                Fault::Error(m) => return Err(MeasureError::Transient(m)),
                Fault::Panic(m) => panic!("{m}"),
                _ => {}
            }
        }
        let exec = NoisyExecutor::from_device(snapshot).with_threads(self.config.exec_threads);
        let path = self.journal_path(&spec.device, spec.method, window);
        if let Some(dir) = path.as_ref().and_then(|p| p.parent()) {
            let _ = std::fs::create_dir_all(dir);
        }
        // With a replicator installed, every checkpoint append ships the
        // whole journal to the followers — so a node that dies
        // mid-characterization leaves its last completed unit on the
        // survivors' disks, and the promoted follower resumes from there
        // bit-identically instead of starting over.
        let hook = path
            .as_ref()
            .zip(self.replicator.as_ref())
            .map(|(path, r)| {
                move |_checkpoints: u64| {
                    if let Ok(Some(text)) = export_journal(path) {
                        r.replicate_journal(&spec.device, spec.method, window, &text);
                    }
                }
            });
        let journal = path.as_deref().map(|path| Journal {
            path,
            faults: self.faults.as_ref(),
            on_checkpoint: hook.as_ref().map(|h| h as &(dyn Fn(u64) + Sync)),
        });
        characterize(&exec, spec, journal).map_err(|e| match e {
            // A journal write failure is transient: the checkpoints
            // already on disk survive, so the retry resumes them.
            JournalError::Io(e) => MeasureError::Transient(format!("journal write failed: {e}")),
            JournalError::Invalid(m) => MeasureError::Permanent(m),
        })
    }

    /// The characterization seed: a pure function of the configuration and
    /// the (device, method, window) key — never of the requesting client.
    fn char_seed(&self, device_name: &str, method: MethodKind, window: u64) -> u64 {
        self.config
            .profile_seed
            .wrapping_mul(0x100000001b3)
            .wrapping_add(fnv(device_name))
            .wrapping_add(fnv(method.as_str()))
            .wrapping_add(window)
    }

    fn profile_path(&self, device: &str, method: MethodKind, window: u64) -> Option<PathBuf> {
        let dir = self.config.profile_dir.as_ref()?;
        let sane: String = device
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        Some(dir.join(format!("{sane}-{}-w{window}.rbms", method.as_str())))
    }

    /// The in-flight journal sibling of this key's profile file.
    fn journal_path(&self, device: &str, method: MethodKind, window: u64) -> Option<PathBuf> {
        let path = self.profile_path(device, method, window)?;
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".journal");
        Some(path.with_file_name(name))
    }

    fn load_persisted(
        &self,
        device: &str,
        method: MethodKind,
        window: u64,
        snapshot: &DeviceModel,
    ) -> Option<RbmsTable> {
        let path = self.profile_path(device, method, window)?;
        if !path.exists() {
            return None;
        }
        // A damaged or unreadable file (injected or real) is not fatal:
        // the caller falls through to a fresh measurement. But damage and
        // unreadability are handled differently — a file that *parses
        // wrong* or fails its checksum is evidence of corruption, so it is
        // quarantined aside (never deleted) where an operator can inspect
        // it; a file that merely cannot be read right now is left alone.
        let table = match RbmsTable::load(&path, self.faults.as_ref()) {
            Ok((table, _)) => table,
            Err(ProfileError::Io(_)) => return None,
            Err(ProfileError::Parse { .. } | ProfileError::Checksum { .. }) => {
                if quarantine_profile(&path).is_ok() {
                    self.counters.inc_profile_quarantined();
                }
                return None;
            }
        };
        (table.width() == snapshot.n_qubits()).then_some(table)
    }

    fn persist(&self, window: u64, spec: &CharSpec, table: &RbmsTable) {
        let (device, method) = (spec.device.as_str(), spec.method);
        if let Some(path) = self.profile_path(device, method, window) {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            // Best effort: a full disk (or an injected torn write) must not
            // fail the request — and the crash-safe writer guarantees the
            // final path never holds a partial profile. The characterization
            // journal outlives a failed save on purpose: until the profile
            // is durably on disk, the checkpoints are the recovery story.
            if table
                .save(&path, &ProfileMeta::from(spec), self.faults.as_ref())
                .is_ok()
            {
                if let Some(journal) = self.journal_path(device, method, window) {
                    let _ = std::fs::remove_file(journal);
                }
                // Ship the finished profile to the followers as the exact
                // bytes just persisted, so every replica is `cmp`-equal
                // to the owner's file.
                if let Some(r) = self.replicator.as_ref() {
                    if let Ok(text) = std::fs::read_to_string(&path) {
                        r.replicate_profile(device, method, window, &text);
                    }
                }
            }
        }
    }

    /// Installs a replicated `rbms v2` profile pushed by the owning node:
    /// verifies the payload checksum *before* any byte reaches the final
    /// path, then writes the raw received text so the replica is
    /// byte-identical to the sender's file. A corrupt payload is rejected
    /// without touching local state (no quarantine — nothing local is
    /// suspect, the wire copy simply failed verification).
    ///
    /// # Errors
    ///
    /// A human-readable reason: no profile directory, a failed checksum,
    /// or an I/O failure.
    pub fn install_replica_profile(
        &self,
        device: &str,
        method: MethodKind,
        window: u64,
        text: &str,
    ) -> Result<(), String> {
        let path = self
            .profile_path(device, method, window)
            .ok_or_else(|| "this node has no profile directory".to_string())?;
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        install_profile_text(&path, text).map_err(|e| e.to_string())?;
        // The profile supersedes any in-flight journal replica for the
        // same key, exactly as a local persist would.
        if let Some(journal) = self.journal_path(device, method, window) {
            let _ = std::fs::remove_file(journal);
        }
        self.counters.inc_replication_write();
        Ok(())
    }

    /// Installs a replicated `charjournal v2` checkpoint file, verifying
    /// its per-line checksums first. The journal lands at exactly the
    /// path a local characterization would use, so a later
    /// characterization of this key on this node resumes it.
    ///
    /// # Errors
    ///
    /// A human-readable reason: no profile directory, an unparseable
    /// payload (naming its line and what is wrong with it), or an I/O
    /// failure.
    pub fn install_replica_journal(
        &self,
        device: &str,
        method: MethodKind,
        window: u64,
        text: &str,
    ) -> Result<u64, String> {
        let path = self
            .journal_path(device, method, window)
            .ok_or_else(|| "this node has no profile directory".to_string())?;
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let units = install_journal(&path, text).map_err(|e| e.to_string())?;
        self.counters.inc_replication_write();
        Ok(units)
    }

    /// The exact persisted profile text for a key, if any — what a
    /// follower re-fetches after rejecting a corrupt replica.
    pub fn read_profile_text(
        &self,
        device: &str,
        method: MethodKind,
        window: u64,
    ) -> Option<String> {
        let path = self.profile_path(device, method, window)?;
        std::fs::read_to_string(path).ok()
    }

    /// Re-ships every persisted profile through the replicator — the
    /// heal-path resync. Called when a peer transitions dead → alive:
    /// the peer may have missed any number of replica pushes while
    /// unreachable, and re-shipping the exact on-disk bytes is what
    /// re-converges its copies `cmp`-equal after the partition heals.
    ///
    /// Keys are recovered from the `{device}-{method}-w{window}.rbms`
    /// filenames, which round-trip for real device names (alphanumerics
    /// and dashes — the sanitizer is the identity on those). Files are
    /// shipped in sorted name order so replays are deterministic.
    pub fn reship_profiles(&self) {
        let (Some(dir), Some(replicator)) =
            (self.config.profile_dir.as_ref(), self.replicator.as_ref())
        else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "rbms"))
            .collect();
        files.sort();
        for path in files {
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some((rest, wtag)) = stem.rsplit_once("-w") else {
                continue;
            };
            let Ok(window) = wtag.parse::<u64>() else {
                continue;
            };
            let Some((device, method)) = rest.rsplit_once('-') else {
                continue;
            };
            let Some(method) = MethodKind::parse(method) else {
                continue;
            };
            if let Ok(text) = std::fs::read_to_string(&path) {
                replicator.replicate_profile(device, method, window, &text);
            }
        }
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use invmeas_faults::FaultPlan;
    use qnoise::CalibrationDrift;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cache() -> ProfileCache {
        ProfileCache::new(CacheConfig::default())
    }

    /// A retry policy with no backoff sleeps, for fast tests.
    fn instant_retry(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff_ms: 0,
        }
    }

    #[test]
    fn second_lookup_hits_and_matches() {
        let dev = DeviceModel::ibmqx2();
        let c = cache();
        let (t1, o1) = c
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();
        let (t2, o2) = c
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(t1, t2);
    }

    #[test]
    fn window_advance_invalidates() {
        let drift = CalibrationDrift::new(DeviceModel::ibmqx2(), 0.05);
        let c = cache();
        let (_, o1) = c
            .get_or_measure("ibmqx2", &drift.window(0), 0, MethodKind::Esct, 256)
            .unwrap();
        let (_, o2) = c
            .get_or_measure("ibmqx2", &drift.window(1), 1, MethodKind::Esct, 256)
            .unwrap();
        let (_, o3) = c
            .get_or_measure("ibmqx2", &drift.window(1), 1, MethodKind::Esct, 256)
            .unwrap();
        assert_eq!(
            (o1, o2, o3),
            (CacheOutcome::Miss, CacheOutcome::Miss, CacheOutcome::Hit)
        );
    }

    #[test]
    fn drift_score_beyond_threshold_invalidates_within_a_window() {
        // Same window index, but the device recalibrated underneath us:
        // the score check catches what window keying cannot.
        let nominal = DeviceModel::ibmqx2();
        let recalibrated = CalibrationDrift::new(nominal.clone(), 0.2).window(17);
        let c = ProfileCache::new(CacheConfig {
            drift_threshold: 0.01,
            ..CacheConfig::default()
        });
        let (_, o1) = c
            .get_or_measure("ibmqx2", &nominal, 4, MethodKind::Esct, 128)
            .unwrap();
        let (_, o2) = c
            .get_or_measure("ibmqx2", &recalibrated, 4, MethodKind::Esct, 128)
            .unwrap();
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::Miss));
        // And a small perturbation under a loose threshold stays a hit.
        let loose = ProfileCache::new(CacheConfig {
            drift_threshold: 0.5,
            ..CacheConfig::default()
        });
        let (_, _) = loose
            .get_or_measure("ibmqx2", &nominal, 4, MethodKind::Esct, 128)
            .unwrap();
        let (_, o) = loose
            .get_or_measure("ibmqx2", &recalibrated, 4, MethodKind::Esct, 128)
            .unwrap();
        assert_eq!(o, CacheOutcome::Hit);
    }

    #[test]
    fn concurrent_burst_measures_once() {
        let dev = DeviceModel::ibmqx4();
        let c = std::sync::Arc::new(cache());
        let misses = std::sync::Arc::new(AtomicUsize::new(0));
        let tables: Vec<RbmsTable> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let c = std::sync::Arc::clone(&c);
                    let misses = std::sync::Arc::clone(&misses);
                    let dev = &dev;
                    scope.spawn(move || {
                        let (t, o) = c
                            .get_or_measure("ibmqx4", dev, 0, MethodKind::Brute, 32)
                            .unwrap();
                        if o == CacheOutcome::Miss {
                            misses.fetch_add(1, Ordering::SeqCst);
                        }
                        t
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            misses.load(Ordering::SeqCst),
            1,
            "exactly one characterization"
        );
        for t in &tables[1..] {
            assert_eq!(t, &tables[0], "every requester sees the same table");
        }
    }

    #[test]
    fn persisted_profiles_warm_new_instances() {
        let dir = std::env::temp_dir().join(format!("invmeas-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig {
            profile_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let dev = DeviceModel::ibmqx2();
        let first = ProfileCache::new(cfg.clone());
        let (t1, o1) = first
            .get_or_measure("ibmqx2", &dev, 2, MethodKind::Brute, 64)
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert!(dir.join("ibmqx2-brute-w2.rbms").exists());

        let second = ProfileCache::new(cfg);
        let (t2, o2) = second
            .get_or_measure("ibmqx2", &dev, 2, MethodKind::Brute, 64)
            .unwrap();
        assert_eq!(o2, CacheOutcome::DiskHit);
        for (a, b) in t1.strengths().iter().zip(t2.strengths()) {
            assert!((a - b).abs() < 1e-12);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn brute_force_width_guard() {
        let wide = DeviceModel::ideal(15);
        let e = cache()
            .get_or_measure("ideal-15", &wide, 0, MethodKind::Brute, 8)
            .unwrap_err();
        assert!(matches!(e, CacheError::Invalid(_)), "{e:?}");
        assert!(e.to_string().contains("limited to 14"), "{e}");
    }

    #[test]
    fn over_wide_esct_is_invalid_not_a_panic() {
        let wide = DeviceModel::ideal(17);
        let e = cache()
            .get_or_measure("ideal-17", &wide, 0, MethodKind::Esct, 8)
            .unwrap_err();
        assert!(matches!(e, CacheError::Invalid(_)), "{e:?}");
        assert!(e.to_string().contains("limited to 16"), "{e}");
    }

    #[test]
    fn profile_dir_does_not_change_the_table() {
        let dir =
            std::env::temp_dir().join(format!("invmeas-cache-dir-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let on_disk = ProfileCache::new(CacheConfig {
            profile_dir: Some(dir.clone()),
            ..CacheConfig::default()
        });
        let in_memory = cache();
        let dev = DeviceModel::ibmq_melbourne().subdevice(&[0, 1, 2, 3, 4, 5, 6]);
        for method in [MethodKind::Brute, MethodKind::Esct, MethodKind::Awct] {
            let (a, _) = in_memory
                .get_or_measure("sub7", &dev, 3, method, 96)
                .unwrap();
            let (b, _) = on_disk.get_or_measure("sub7", &dev, 3, method, 96).unwrap();
            assert_eq!(a, b, "{method:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_journal_replica_names_line_and_reason() {
        let dir =
            std::env::temp_dir().join(format!("invmeas-cache-replica-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ProfileCache::new(CacheConfig {
            profile_dir: Some(dir.clone()),
            ..CacheConfig::default()
        });
        let err = c
            .install_replica_journal("ibmqx4", MethodKind::Brute, 0, "charjournal v1\ndevice x\n")
            .unwrap_err();
        assert!(
            err.ends_with("at line 1: bad header \"charjournal v1\""),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failure_is_retried_then_succeeds() {
        let dev = DeviceModel::ibmqx2();
        let plan = Arc::new(
            FaultPlan::new(1)
                .on_nth(FaultSite::Characterize, 1, Fault::Error("flaky".into()))
                .on_nth(FaultSite::Characterize, 2, Fault::Error("flaky".into())),
        );
        let counters = Arc::new(ServiceCounters::new());
        let c = ProfileCache::new(CacheConfig::default())
            .with_faults(plan)
            .with_retry(instant_retry(2))
            .with_counters(Arc::clone(&counters));
        let (_, o) = c
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 32)
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss, "third attempt lands");
        assert_eq!(counters.snapshot().retries, 2);
        assert_eq!(counters.snapshot().breaker_trips, 0);
    }

    #[test]
    fn exhausted_retries_without_last_good_is_unavailable() {
        let dev = DeviceModel::ibmqx2();
        let plan = Arc::new(
            FaultPlan::new(2)
                .on_nth(FaultSite::Characterize, 1, Fault::Error("down".into()))
                .on_nth(FaultSite::Characterize, 2, Fault::Error("down".into())),
        );
        let c = ProfileCache::new(CacheConfig::default())
            .with_faults(plan)
            .with_retry(instant_retry(1));
        let e = c
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 32)
            .unwrap_err();
        assert!(matches!(e, CacheError::Unavailable(_)), "{e:?}");
        assert!(e.to_string().contains("down"), "{e}");
    }

    #[test]
    fn breaker_opens_and_serves_last_good_degraded() {
        let dev = DeviceModel::ibmqx2();
        // Warm a last-good profile (arrival 1 is clean), then fail every
        // subsequent characterization attempt.
        let mut plan = FaultPlan::new(3);
        for arrival in 2..40 {
            plan = plan.on_nth(
                FaultSite::Characterize,
                arrival,
                Fault::Error("device offline".into()),
            );
        }
        let plan = Arc::new(plan);
        let counters = Arc::new(ServiceCounters::new());
        let c = ProfileCache::new(CacheConfig::default())
            .with_faults(Arc::clone(&plan) as Arc<dyn FaultInjector>)
            .with_retry(instant_retry(0))
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                drift_trip_threshold: 4,
                cooldown: 3,
            })
            .with_counters(Arc::clone(&counters));

        let (warm, o) = c
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 32)
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);

        // Window advances force re-measures that now fail. The first two
        // failures serve stale (breaker trips on the second); after that
        // the open breaker serves stale without attempting at all. Stop
        // one serve short of the cooldown so the breaker is still open.
        let mut stale_serves = 0;
        for w in 1..=4 {
            let (t, o) = c
                .get_or_measure("ibmqx2", &dev, w, MethodKind::Brute, 32)
                .unwrap();
            assert_eq!(o, CacheOutcome::Stale, "window {w}");
            assert_eq!(t, warm, "stale serve returns the last good table");
            stale_serves += 1;
        }
        let s = counters.snapshot();
        assert_eq!(s.degraded_responses, stale_serves);
        assert_eq!(s.breaker_trips, 1);
        // Attempts stop once the breaker opens: 1 warm + 2 failed = 3
        // arrivals, the open-breaker serves add none until the cooldown.
        assert_eq!(plan.arrivals(FaultSite::Characterize), 3);
        let h = c.health(4);
        assert_eq!(h.open_breakers, 1);
        assert_eq!(h.entries, 1);
        assert_eq!(h.oldest_age_windows, 4);
    }

    #[test]
    fn half_open_probe_recovers_after_cooldown() {
        let dev = DeviceModel::ibmqx2();
        // Arrival 1 clean (warm), arrivals 2-3 fail (trip), everything
        // after succeeds — so the half-open probe closes the breaker.
        let plan = FaultPlan::new(4)
            .on_nth(FaultSite::Characterize, 2, Fault::Error("blip".into()))
            .on_nth(FaultSite::Characterize, 3, Fault::Error("blip".into()));
        let c = ProfileCache::new(CacheConfig::default())
            .with_faults(Arc::new(plan))
            .with_retry(instant_retry(0))
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                drift_trip_threshold: 4,
                cooldown: 2,
            });

        assert_eq!(
            c.get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 32)
                .unwrap()
                .1,
            CacheOutcome::Miss
        );
        // Two failing windows trip the breaker (stale serves).
        for w in [1, 2] {
            assert_eq!(
                c.get_or_measure("ibmqx2", &dev, w, MethodKind::Brute, 32)
                    .unwrap()
                    .1,
                CacheOutcome::Stale
            );
        }
        assert_eq!(c.health(2).open_breakers, 1);
        // Cooldown: two more degraded serves…
        for w in [3, 4] {
            assert_eq!(
                c.get_or_measure("ibmqx2", &dev, w, MethodKind::Brute, 32)
                    .unwrap()
                    .1,
                CacheOutcome::Stale
            );
        }
        // …then the probe runs, succeeds, and the breaker closes.
        assert_eq!(
            c.get_or_measure("ibmqx2", &dev, 5, MethodKind::Brute, 32)
                .unwrap()
                .1,
            CacheOutcome::Miss
        );
        assert_eq!(c.health(5).open_breakers, 0);
    }

    #[test]
    fn damaged_persisted_profile_is_quarantined_not_deleted() {
        let dir = std::env::temp_dir().join(format!(
            "invmeas-cache-quarantine-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig {
            profile_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let dev = DeviceModel::ibmqx2();
        ProfileCache::new(cfg.clone())
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();
        // Flip one byte of the persisted profile — on-disk rot.
        let path = dir.join("ibmqx2-brute-w0.rbms");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // A fresh instance detects the checksum failure, quarantines the
        // file aside, and re-measures.
        let counters = Arc::new(ServiceCounters::new());
        let second = ProfileCache::new(cfg).with_counters(Arc::clone(&counters));
        let (_, o) = second
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(counters.snapshot().profiles_quarantined, 1);
        // The damaged bytes survive, byte-for-byte, at the quarantine path…
        let quarantined = dir.join("ibmqx2-brute-w0.rbms.quarantined");
        assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
        // …and the re-measured profile replaced the original.
        assert!(RbmsTable::load(&path, &NoFaults).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_write_resumes_on_retry_bit_identically() {
        let base =
            std::env::temp_dir().join(format!("invmeas-cache-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dev = DeviceModel::ibmqx2();
        let cfg_for = |tag: &str| CacheConfig {
            profile_dir: Some(base.join(tag)),
            ..CacheConfig::default()
        };
        // Uninterrupted journaled run (separate directory, same seed
        // derivation) is the baseline.
        let (baseline, _) = ProfileCache::new(cfg_for("clean"))
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();

        // The faulted instance tears the second journal checkpoint: the
        // measurement fails mid-characterization, and the retry resumes
        // the surviving checkpoints instead of starting over.
        let plan = Arc::new(FaultPlan::new(7).on_nth(FaultSite::JournalWrite, 2, Fault::Torn));
        let counters = Arc::new(ServiceCounters::new());
        let c = ProfileCache::new(cfg_for("torn"))
            .with_faults(plan)
            .with_retry(instant_retry(1))
            .with_counters(Arc::clone(&counters));
        let (table, o) = c
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(
            table, baseline,
            "resumed run must match the uninterrupted one"
        );
        let s = counters.snapshot();
        assert_eq!(s.retries, 1);
        assert_eq!(s.resumed_jobs, 1, "the retry resumed the in-flight journal");
        assert!(s.journal_checkpoints > 0);
        // Once the profile is durably persisted, the journal is gone.
        assert!(base.join("torn").join("ibmqx2-brute-w0.rbms").exists());
        assert!(!base
            .join("torn")
            .join("ibmqx2-brute-w0.rbms.journal")
            .exists());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn panic_mid_journal_neither_wedges_the_slot_nor_loses_checkpoints() {
        let base = std::env::temp_dir().join(format!(
            "invmeas-cache-panic-journal-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let dev = DeviceModel::ibmqx2();
        let cfg_for = |tag: &str| CacheConfig {
            profile_dir: Some(base.join(tag)),
            ..CacheConfig::default()
        };
        let (baseline, _) = ProfileCache::new(cfg_for("clean"))
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();

        // A panic mid-measure (injected at the third checkpoint) unwinds
        // while the slot mutex is held, poisoning it.
        let plan = Arc::new(FaultPlan::new(8).on_nth(
            FaultSite::JournalWrite,
            3,
            Fault::Panic("worker crashed mid-characterization".into()),
        ));
        let counters = Arc::new(ServiceCounters::new());
        let c = ProfileCache::new(cfg_for("panic"))
            .with_faults(plan)
            .with_counters(Arc::clone(&counters));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
        }));
        assert!(died.is_err(), "scripted panic did not fire");

        // The next request tolerates the poisoned slot, resumes the two
        // surviving checkpoints, and lands the same table as a run that
        // never crashed.
        let (table, o) = c
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(table, baseline);
        assert_eq!(counters.snapshot().resumed_jobs, 1);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn corrupt_persisted_profile_falls_through_to_measurement() {
        let dir =
            std::env::temp_dir().join(format!("invmeas-cache-corrupt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig {
            profile_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let dev = DeviceModel::ibmqx2();
        // Instance 1 persists a profile cleanly.
        let first = ProfileCache::new(cfg.clone());
        first
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();
        // Instance 2's first disk read is corrupted: it must re-measure,
        // not mis-load.
        let plan = Arc::new(FaultPlan::new(5).on_nth(FaultSite::ProfileRead, 1, Fault::Corrupt));
        let second = ProfileCache::new(cfg).with_faults(plan);
        let (_, o) = second
            .get_or_measure("ibmqx2", &dev, 0, MethodKind::Brute, 64)
            .unwrap();
        assert_eq!(
            o,
            CacheOutcome::Miss,
            "corrupt read falls back to measuring"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Pushing profile and journal replicas to follower nodes.
//!
//! The owning node replicates two artifacts, both as their exact on-disk
//! text so followers can verify checksums before trusting a byte and the
//! whole mesh converges on *byte-identical* files:
//!
//! * the finished `rbms v2` profile, pushed right after it is persisted
//!   locally, and
//! * the `charjournal v2` characterization journal, pushed after every
//!   checkpoint append — so a follower promoted mid-characterization
//!   resumes from the owner's last completed unit instead of starting
//!   over.
//!
//! Replication is **best effort and asynchronous to correctness**: a
//! dropped replica costs a re-characterization on failover, never wrong
//! data, because every payload is checksummed end-to-end. That is what
//! keeps this path simple — no acks beyond one response line, no
//! retries, no queues. The `replicate-send` fault site can drop
//! (`Error`), bit-flip (`Corrupt`), or delay (`Latency`) any individual
//! send to prove those properties hold.

use crate::client;
use crate::cluster::HashRing;
use crate::membership::Membership;
use crate::net::NetFabric;
use crate::overload::RetryBudget;
use crate::protocol::{MethodKind, ReplicateRequest, Request, Response};
use invmeas_faults::{Fault, FaultInjector, FaultSite};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where the profile cache hands finished artifacts for replication.
///
/// The cache calls these synchronously on its characterization path;
/// implementations must be cheap-ish and must never panic the caller —
/// all failures are swallowed (best effort, see the module docs).
pub trait ProfileReplicator: Send + Sync + std::fmt::Debug {
    /// A profile was just persisted locally as `text` (`rbms v2`).
    fn replicate_profile(&self, device: &str, method: MethodKind, window: u64, text: &str);
    /// A journal checkpoint was just appended; `text` is the full
    /// `charjournal v2` file contents after the append.
    fn replicate_journal(&self, device: &str, method: MethodKind, window: u64, text: &str);
}

/// The real mesh replicator: pushes to the device's followers over the
/// wire protocol.
///
/// Because the journal hook fires on the characterization critical path
/// (per checkpoint, under the per-key slot lock), the per-push cost is
/// kept bounded and small: connections to each follower are opened once
/// and reused across pushes (re-dialled, with a connect timeout, only
/// when the cached one has gone stale — e.g. the follower restarted or
/// idle-reaped it), and followers the membership view already considers
/// dead are skipped outright instead of paying a failed-connect penalty
/// on every checkpoint.
pub struct MeshReplicator {
    members: Vec<String>,
    self_index: usize,
    ring: HashRing,
    replication: usize,
    membership: Arc<Membership>,
    faults: Arc<dyn FaultInjector>,
    timeout: Duration,
    /// The transport every replication dial goes through — direct by
    /// default, the node's fault fabric when installed.
    fabric: NetFabric,
    /// When installed, a *redial* after a stale cached connection must
    /// spend a retry token; the first dial to a member is free.
    retry_budget: Option<Arc<RetryBudget>>,
    /// One cached connection per member, locked independently so pushes
    /// for different devices (different characterizations) never contend
    /// on one global lock.
    conns: Vec<Mutex<Option<client::Client>>>,
}

impl std::fmt::Debug for MeshReplicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshReplicator")
            .field("members", &self.members)
            .field("self_index", &self.self_index)
            .field("replication", &self.replication)
            .finish_non_exhaustive()
    }
}

impl MeshReplicator {
    /// Builds a replicator for one node of the mesh.
    pub fn new(
        members: Vec<String>,
        self_index: usize,
        replication: usize,
        membership: Arc<Membership>,
        faults: Arc<dyn FaultInjector>,
    ) -> MeshReplicator {
        let ring = HashRing::new(&members);
        let conns = members.iter().map(|_| Mutex::new(None)).collect();
        MeshReplicator {
            members,
            self_index,
            ring,
            replication,
            membership,
            faults,
            timeout: Duration::from_secs(5),
            fabric: NetFabric::direct(),
            retry_budget: None,
            conns,
        }
    }

    /// Routes every replication dial through `fabric` (the node's fault
    /// fabric), so scripted partitions and byte faults hit this path too.
    #[must_use]
    pub fn with_fabric(mut self, fabric: NetFabric) -> MeshReplicator {
        self.fabric = fabric;
        self
    }

    /// Charges redials (a fresh dial after the cached connection went
    /// stale) against the node-wide retry budget.
    #[must_use]
    pub fn with_retry_budget(mut self, budget: Arc<RetryBudget>) -> MeshReplicator {
        self.retry_budget = Some(budget);
        self
    }

    /// Every mesh node on the device's ladder except this one. When this
    /// node is the hash-owner that is exactly the follower set; when a
    /// *promoted follower* finishes a resumed characterization it also
    /// covers the remaining ladder nodes, which is what re-converges the
    /// mesh after a failover.
    fn recipients(&self, device: &str) -> Vec<usize> {
        self.ring
            .route(device, self.replication)
            .ladder()
            .filter(|m| *m != self.self_index)
            .collect()
    }

    /// Sends one replicate request to one member, best effort, over the
    /// member's cached connection (dialling a fresh one — connect
    /// bounded by the push timeout — when none is cached or the cached
    /// one has gone stale). Returns whether a response came back at all
    /// (used only by tests).
    fn push(&self, member: usize, req: &ReplicateRequest) -> bool {
        let mut req = req.clone();
        match self.faults.check(FaultSite::ReplicateSend) {
            Some(Fault::Error(_)) => return false, // dropped on the wire
            Some(Fault::Corrupt) => {
                // The payload arrives bit-flipped; the follower's
                // checksum verification must catch it.
                if let Some(p) = req.profile.take() {
                    req.profile = Some(flip_one_ascii_bit(p));
                }
                if let Some(j) = req.journal.take() {
                    req.journal = Some(flip_one_ascii_bit(j));
                }
            }
            Some(f) => {
                f.apply_latency();
            }
            None => {}
        }
        let request = Request::Replicate(req);
        let mut slot = self.conns[member]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Warm path: the cached connection. `replicate` is idempotent, so
        // `Client::request` transparently redials once if the follower
        // dropped the idle connection (restart, idle reap) in between.
        let had_conn = slot.is_some();
        if let Some(c) = slot.as_mut() {
            if let Ok(reply) = c.request(&request) {
                self.acknowledged(member, &reply);
                return true;
            }
            *slot = None; // stale beyond repair: fall through to a fresh dial
        }
        // A redial after a dead cached connection is a retry and must
        // spend a budget token; the very first dial to a member rides on
        // the push itself (the mesh has to connect *some* time).
        if had_conn {
            if let Some(budget) = self.retry_budget.as_ref() {
                if !budget.try_spend() {
                    return false;
                }
            }
        }
        let addr = &self.members[member];
        let dialled = (|| -> Result<(client::Client, Response), client::ClientError> {
            let mut c =
                client::Client::connect_via(&self.fabric, addr.as_str(), Some(self.timeout))?;
            let reply = c.request(&request)?;
            Ok((c, reply))
        })();
        match dialled {
            Ok((c, reply)) => {
                *slot = Some(c);
                self.acknowledged(member, &reply);
                true
            }
            Err(_) => false,
        }
    }

    /// A member answered a push: it is alive, and a refusal names why.
    fn acknowledged(&self, member: usize, reply: &Response) {
        self.membership.mark_seen(member);
        if let Response::Replicated {
            accepted: false,
            reason,
            ..
        } = reply
        {
            eprintln!("replica to {} rejected: {reason}", self.members[member]);
        }
    }

    fn replicate(&self, req: &ReplicateRequest) {
        for member in self.recipients(&req.device) {
            // A member the heartbeat view already declared dead is
            // skipped outright: this path runs per journal checkpoint
            // inside the characterization, and paying a connect timeout
            // per checkpoint for a corpse would stall the owner's own
            // progress. The member self-heals on resurrection — the next
            // checkpoint (or the finished profile) re-ships in full.
            if !self.membership.is_alive(member) {
                continue;
            }
            // Best effort per follower: a failed push is not retried —
            // the receiver counts `replication_writes` when a replica
            // actually lands on its disk.
            self.push(member, req);
        }
    }
}

impl ProfileReplicator for MeshReplicator {
    fn replicate_profile(&self, device: &str, method: MethodKind, window: u64, text: &str) {
        self.replicate(&ReplicateRequest {
            device: device.to_string(),
            method,
            window,
            profile: Some(text.to_string()),
            journal: None,
            from: self.self_index as u64,
        });
    }

    fn replicate_journal(&self, device: &str, method: MethodKind, window: u64, text: &str) {
        self.replicate(&ReplicateRequest {
            device: device.to_string(),
            method,
            window,
            profile: None,
            journal: Some(text.to_string()),
            from: self.self_index as u64,
        });
    }
}

/// Flips the low bit of one payload character, deterministically. The
/// flip lands mid-payload on an ASCII byte, so the result is still a
/// valid wire string — only the checksum disagrees.
fn flip_one_ascii_bit(s: String) -> String {
    let mut bytes = s.into_bytes();
    let mut i = bytes.len() / 2;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphanumeric() {
            bytes[i] ^= 0x01; // ASCII in, ASCII out — still valid UTF-8
            return String::from_utf8(bytes).expect("ascii flip keeps utf-8");
        }
        i += 1;
    }
    let mut s = String::from_utf8(bytes).expect("unchanged bytes");
    s.push('!'); // degenerate payload: corrupt by appending instead
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flip_changes_exactly_one_alphanumeric_byte() {
        let orig = "rbms v2\ndevice ibmqx4\ncrc32 0badf00d\n".to_string();
        let flipped = flip_one_ascii_bit(orig.clone());
        assert_eq!(orig.len(), flipped.len());
        let diffs: Vec<_> = orig
            .bytes()
            .zip(flipped.bytes())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one byte must differ");
        assert!(flipped.is_ascii());
    }

    #[test]
    fn degenerate_payload_still_corrupts() {
        assert_ne!(flip_one_ascii_bit("\n\n".into()), "\n\n");
    }
}

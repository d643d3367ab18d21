//! Consistent-hash ownership of devices across a static membership list.
//!
//! A profile mesh is a set of mitigation servers sharing one membership
//! list (every node is started with the *same* `--cluster a,b,c`
//! argument). Each device name hashes onto a 64-vnode-per-member
//! consistent-hash ring: the member owning the first vnode clockwise of
//! the device's hash is the **owner** — the only node that characterizes
//! the device — and the next `replication` distinct members are its
//! **followers**, receiving profile and journal replicas so one of them
//! can promote if the owner dies.
//!
//! Everything here is a pure function of the membership list: two nodes
//! (or a node and a client) holding the same list compute byte-identical
//! rings and therefore agree on every route without any coordination.

use std::fmt;

/// Virtual nodes per member. 64 spreads ownership to within a few percent
/// of uniform for small clusters while keeping the ring tiny (a 3-node
/// mesh is 192 sorted u64s).
pub const VNODES_PER_MEMBER: usize = 64;

/// Static cluster configuration for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Every member's listen address, identically ordered on all nodes.
    pub members: Vec<String>,
    /// This node's index in `members`.
    pub self_index: usize,
    /// Followers per device (replication factor K). Clamped to
    /// `members.len() - 1` — you cannot replicate to more peers than
    /// exist.
    pub replication: usize,
    /// Interval between heartbeat probes to each peer, in milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive missed heartbeats before a peer is declared dead.
    pub heartbeat_miss_limit: u32,
}

/// A malformed cluster specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterError(pub String);

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster error: {}", self.0)
    }
}

impl std::error::Error for ClusterError {}

impl ClusterConfig {
    /// Followers per device unless configured otherwise.
    pub const DEFAULT_REPLICATION: usize = 1;
    /// Heartbeat probe interval unless configured otherwise, in
    /// milliseconds.
    pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;
    /// Missed heartbeats before a peer is declared dead, unless
    /// configured otherwise.
    pub const DEFAULT_HEARTBEAT_MISS_LIMIT: u32 = 3;

    /// Builds a config from the shared membership list and this node's
    /// own listen address, which must appear verbatim in the list.
    ///
    /// # Errors
    ///
    /// Rejects lists with fewer than two members, duplicate members, or
    /// a `self_addr` that is not in the list.
    pub fn new(members: Vec<String>, self_addr: &str) -> Result<ClusterConfig, ClusterError> {
        if members.len() < 2 {
            return Err(ClusterError(format!(
                "a cluster needs at least 2 members, got {}",
                members.len()
            )));
        }
        for (i, m) in members.iter().enumerate() {
            if members[..i].contains(m) {
                return Err(ClusterError(format!("duplicate cluster member {m:?}")));
            }
        }
        let self_index = members.iter().position(|m| m == self_addr).ok_or_else(|| {
            ClusterError(format!(
                "own address {self_addr:?} is not in the cluster member list \
                     (every node's --addr must appear verbatim in --cluster)"
            ))
        })?;
        Ok(ClusterConfig {
            members,
            self_index,
            replication: Self::DEFAULT_REPLICATION,
            heartbeat_ms: Self::DEFAULT_HEARTBEAT_MS,
            heartbeat_miss_limit: Self::DEFAULT_HEARTBEAT_MISS_LIMIT,
        })
    }

    /// The effective replication factor: `replication` clamped to the
    /// number of available peers.
    pub fn effective_replication(&self) -> usize {
        self.replication.min(self.members.len() - 1)
    }
}

/// The consistent-hash route for one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Member index of the owning node.
    pub owner: usize,
    /// Member indices of the replication followers, in ring order.
    pub followers: Vec<usize>,
}

impl Route {
    /// The failover preference order: owner first, then followers in
    /// ring order. The first *alive* entry is the node that should be
    /// serving this device right now.
    pub fn ladder(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.owner).chain(self.followers.iter().copied())
    }

    /// Whether `member` appears anywhere on the ladder.
    pub fn involves(&self, member: usize) -> bool {
        self.ladder().any(|m| m == member)
    }
}

/// A consistent-hash ring over the membership list.
///
/// Construction sorts `members.len() * VNODES_PER_MEMBER` hashed vnodes;
/// routing is a binary search. The ring depends only on the member
/// *names and order*, so identical `--cluster` lists yield identical
/// routing on every node and client.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(vnode hash, member index)`, sorted by hash then index so ties
    /// (astronomically unlikely but possible) break deterministically.
    vnodes: Vec<(u64, usize)>,
    members: usize,
}

impl HashRing {
    /// Builds the ring for a membership list.
    pub fn new(members: &[String]) -> HashRing {
        let mut vnodes = Vec::with_capacity(members.len() * VNODES_PER_MEMBER);
        for (index, name) in members.iter().enumerate() {
            for v in 0..VNODES_PER_MEMBER {
                vnodes.push((ring_hash(&format!("{name}#{v}")), index));
            }
        }
        vnodes.sort_unstable();
        HashRing {
            vnodes,
            members: members.len(),
        }
    }

    /// Routes a device: the owner is the member holding the first vnode
    /// clockwise from the device's hash; followers are the next
    /// `replication` *distinct* members clockwise.
    pub fn route(&self, device: &str, replication: usize) -> Route {
        let h = ring_hash(device);
        let start = self
            .vnodes
            .partition_point(|(vh, _)| *vh < h)
            // Past the last vnode wraps to the first: it's a ring.
            % self.vnodes.len();
        let owner = self.vnodes[start].1;
        let want = replication.min(self.members - 1);
        let mut followers = Vec::with_capacity(want);
        let mut k = start;
        while followers.len() < want {
            k = (k + 1) % self.vnodes.len();
            let m = self.vnodes[k].1;
            if m != owner && !followers.contains(&m) {
                followers.push(m);
            }
        }
        Route { owner, followers }
    }
}

/// Ring placement hash: FNV-1a (the same hash the rest of the stack uses
/// for deterministic seeds) followed by a murmur3-style avalanche. Raw
/// FNV leaves the high bits of similar-suffix strings (`node#0`,
/// `node#1`, … and `ibmqx2`/`ibmqx4`) correlated, which clumps vnode
/// arcs and makes ownership wildly unbalanced; the finalizer diffuses
/// every input bit across the whole word.
pub(crate) fn ring_hash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7001 + i)).collect()
    }

    #[test]
    fn config_validates_membership() {
        let e = ClusterConfig::new(vec!["a".into()], "a").unwrap_err();
        assert!(e.to_string().contains("at least 2"), "{e}");
        let e = ClusterConfig::new(vec!["a".into(), "a".into()], "a").unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
        let e = ClusterConfig::new(vec!["a".into(), "b".into()], "c").unwrap_err();
        assert!(e.to_string().contains("not in the cluster"), "{e}");
        let c = ClusterConfig::new(vec!["a".into(), "b".into()], "b").unwrap();
        assert_eq!(c.self_index, 1);
        assert_eq!(c.effective_replication(), 1);
    }

    #[test]
    fn routing_is_deterministic_and_identical_across_nodes() {
        let list = members(3);
        let a = HashRing::new(&list);
        let b = HashRing::new(&list);
        for device in ["ibmqx4", "ibmqx2", "melbourne", "tokyo", "dev-7"] {
            assert_eq!(a.route(device, 2), b.route(device, 2), "{device}");
        }
    }

    #[test]
    fn followers_are_distinct_and_exclude_owner() {
        let ring = HashRing::new(&members(5));
        for i in 0..50 {
            let r = ring.route(&format!("device-{i}"), 3);
            assert!(r.owner < 5);
            assert_eq!(r.followers.len(), 3);
            assert!(!r.followers.contains(&r.owner));
            let mut sorted = r.followers.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "followers must be distinct");
        }
    }

    #[test]
    fn replication_clamps_to_peer_count() {
        let ring = HashRing::new(&members(3));
        let r = ring.route("ibmqx4", 10);
        assert_eq!(r.followers.len(), 2, "only 2 peers exist");
    }

    #[test]
    fn ownership_spreads_across_members() {
        let ring = HashRing::new(&members(3));
        let mut owned = [0usize; 3];
        for i in 0..300 {
            owned[ring.route(&format!("device-{i}"), 1).owner] += 1;
        }
        for (m, n) in owned.iter().enumerate() {
            assert!(
                *n > 30,
                "member {m} owns {n}/300 devices — ring is badly unbalanced: {owned:?}"
            );
        }
    }

    #[test]
    fn ladder_starts_at_owner() {
        let ring = HashRing::new(&members(3));
        let r = ring.route("ibmqx4", 2);
        let ladder: Vec<_> = r.ladder().collect();
        assert_eq!(ladder[0], r.owner);
        assert_eq!(ladder.len(), 3);
        assert!(r.involves(r.owner));
    }
}

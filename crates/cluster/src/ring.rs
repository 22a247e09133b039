//! Consistent-hash ring over packed [`ChunkKey`]s.
//!
//! Each node contributes `vnodes` points on a `u64` ring; a key is owned
//! by the first `replication` *distinct live* nodes clockwise from the
//! key's position. Virtual nodes smooth the key-slice distribution, and
//! consistent hashing gives the minimal-movement property: adding or
//! removing one node only reassigns the key slices adjacent to that
//! node's points — everything else keeps its owner set. Both properties
//! are enforced by the ring property tests.

use aggcache_chunks::hash::mix64;
use aggcache_chunks::ChunkKey;

use crate::ClusterError;

/// A consistent-hash ring assigning packed chunk keys to nodes.
///
/// Nodes are dense ids `0..n`. Membership changes are *join*
/// ([`HashRing::add_node`]) and *liveness flips* ([`HashRing::set_alive`]):
/// a dead node keeps its ring points but is skipped during ownership
/// walks, so ownership fails over to the next live node and fails back on
/// revival — both with minimal movement.
///
/// # Examples
///
/// ```
/// use aggcache_cluster::HashRing;
/// use aggcache_chunks::ChunkKey;
/// use aggcache_schema::GroupById;
///
/// let mut ring = HashRing::new(4, 2, 64)?;
/// let key = ChunkKey::new(GroupById(3), 7);
/// let owners = ring.owners(key); // primary first, distinct live nodes
/// assert_eq!(owners.len(), 2);
/// assert_eq!(ring.primary(key), Some(owners[0]));
///
/// // Killing the primary fails the key over to the next live node…
/// ring.set_alive(owners[0], false);
/// assert_ne!(ring.primary(key), Some(owners[0]));
/// // …and revival fails it back — minimal movement, deterministically.
/// ring.set_alive(owners[0], true);
/// assert_eq!(ring.primary(key), Some(owners[0]));
/// # Ok::<(), aggcache_cluster::ClusterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, node)` pairs; ties broken by node id.
    points: Vec<(u64, u32)>,
    alive: Vec<bool>,
    replication: usize,
    vnodes: u32,
}

impl HashRing {
    /// A ring over `nodes` nodes with the given replication factor and
    /// virtual nodes per node.
    pub fn new(nodes: u32, replication: usize, vnodes: u32) -> Result<Self, ClusterError> {
        if nodes == 0 {
            return Err(ClusterError::BadConfig(
                "ring needs at least one node".into(),
            ));
        }
        if replication == 0 {
            return Err(ClusterError::BadConfig(
                "replication must be at least 1".into(),
            ));
        }
        if vnodes == 0 {
            return Err(ClusterError::BadConfig("vnodes must be at least 1".into()));
        }
        let mut ring = Self {
            points: Vec::with_capacity(nodes as usize * vnodes as usize),
            alive: Vec::with_capacity(nodes as usize),
            replication,
            vnodes,
        };
        for _ in 0..nodes {
            ring.add_node();
        }
        Ok(ring)
    }

    /// Adds a node (join), returning its id. Only the key slices adjacent
    /// to the new node's points change owners.
    pub fn add_node(&mut self) -> u32 {
        let node = self.alive.len() as u32;
        self.alive.push(true);
        for v in 0..self.vnodes {
            let point = mix64((u64::from(node) << 32) | u64::from(v));
            self.points.push((point, node));
        }
        self.points.sort_unstable();
        node
    }

    /// Number of nodes (live or dead).
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether the ring has no nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Whether a node is live.
    pub fn is_alive(&self, node: u32) -> bool {
        self.alive.get(node as usize).copied().unwrap_or(false)
    }

    /// Flips a node's liveness (leave / rejoin). Ownership walks skip dead
    /// nodes.
    pub fn set_alive(&mut self, node: u32, alive: bool) {
        if let Some(a) = self.alive.get_mut(node as usize) {
            *a = alive;
        }
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Iterates live node ids in ascending order.
    pub fn live_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(i, _)| i as u32)
    }

    /// The ring position of a key.
    #[inline]
    fn position(key: ChunkKey) -> u64 {
        mix64(key.pack())
    }

    /// Collects the key's owner set into `out`: the first
    /// `min(replication, live_count)` distinct live nodes clockwise from
    /// the key's position. `out[0]` is the primary owner. Empty iff no
    /// node is live.
    pub fn owners_into(&self, key: ChunkKey, out: &mut Vec<u32>) {
        out.clear();
        if self.points.is_empty() {
            return;
        }
        let want = self.replication.min(self.live_count());
        let pos = Self::position(key);
        let start = self.points.partition_point(|&(p, _)| p < pos);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if self.is_alive(node) && !out.contains(&node) {
                out.push(node);
                if out.len() == want {
                    return;
                }
            }
        }
    }

    /// The key's owner set as a fresh vector (see [`HashRing::owners_into`]).
    pub fn owners(&self, key: ChunkKey) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.replication.min(self.len()));
        self.owners_into(key, &mut out);
        out
    }

    /// The key's primary owner, or `None` when no node is live.
    pub fn primary(&self, key: ChunkKey) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let pos = Self::position(key);
        let start = self.points.partition_point(|&(p, _)| p < pos);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if self.is_alive(node) {
                return Some(node);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::GroupById;

    fn key(gb: u32, chunk: u64) -> ChunkKey {
        ChunkKey::new(GroupById(gb), chunk)
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::new(1, 1, 64).unwrap();
        for c in 0..100 {
            assert_eq!(ring.owners(key(3, c)), vec![0]);
            assert_eq!(ring.primary(key(3, c)), Some(0));
        }
    }

    #[test]
    fn ownership_is_deterministic_and_spread() {
        let ring = HashRing::new(4, 2, 64).unwrap();
        let ring2 = HashRing::new(4, 2, 64).unwrap();
        let mut per_node = [0usize; 4];
        for gb in 0..8 {
            for c in 0..64 {
                let owners = ring.owners(key(gb, c));
                assert_eq!(owners, ring2.owners(key(gb, c)));
                assert_eq!(owners.len(), 2);
                assert_ne!(owners[0], owners[1]);
                per_node[owners[0] as usize] += 1;
            }
        }
        // Every node is the primary for a non-trivial share.
        for (node, n) in per_node.iter().enumerate() {
            assert!(*n > 0, "node {node} owns nothing");
        }
    }

    #[test]
    fn dead_node_fails_over_and_back() {
        let mut ring = HashRing::new(3, 1, 64).unwrap();
        let keys: Vec<ChunkKey> = (0..200).map(|c| key(1, c)).collect();
        let before: Vec<u32> = keys.iter().map(|&k| ring.primary(k).unwrap()).collect();
        ring.set_alive(1, false);
        assert_eq!(ring.live_count(), 2);
        for (k, &owner_before) in keys.iter().zip(&before) {
            let now = ring.primary(*k).unwrap();
            assert_ne!(now, 1, "dead node still owning");
            if owner_before != 1 {
                assert_eq!(now, owner_before, "failover moved an unaffected key");
            }
        }
        ring.set_alive(1, true);
        let after: Vec<u32> = keys.iter().map(|&k| ring.primary(k).unwrap()).collect();
        assert_eq!(before, after, "revival must restore the original owners");
    }

    #[test]
    fn replication_capped_by_live_nodes() {
        let mut ring = HashRing::new(2, 3, 16).unwrap();
        assert_eq!(ring.owners(key(0, 0)).len(), 2);
        ring.set_alive(0, false);
        assert_eq!(ring.owners(key(0, 0)), vec![1]);
        ring.set_alive(1, false);
        assert!(ring.owners(key(0, 0)).is_empty());
        assert_eq!(ring.primary(key(0, 0)), None);
    }

    #[test]
    fn replication_far_above_the_node_count_allocates_for_the_nodes() {
        // The owner set is capped by the node count, so the capacity is
        // too: `usize::MAX / 8` used to abort on allocation.
        for replication in [usize::MAX, usize::MAX / 8] {
            let ring = HashRing::new(2, replication, 16).unwrap();
            assert_eq!(ring.owners(key(0, 0)).len(), 2);
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(HashRing::new(0, 1, 64).is_err());
        assert!(HashRing::new(1, 0, 64).is_err());
        assert!(HashRing::new(1, 1, 0).is_err());
    }
}

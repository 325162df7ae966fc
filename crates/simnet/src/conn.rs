//! The connection fabric's storage: one slab per shard.
//!
//! Most simulated nodes hold between zero (the long tail at internet scale)
//! and a few hundred (DHT servers) connections. A `HashMap` per node wastes
//! cache lines and forces a collect-and-sort on every deterministic
//! iteration, and a heap allocation per node is one more thing a fork copies.
//! [`ConnPool`] keeps every owned node's connection half in one contiguous
//! `Vec<ConnEntry>`, each node a sorted power-of-two window of it. Lookup is
//! a binary search; iteration is already in deterministic ascending order
//! and allocation-free.

use crate::state::NodeId;
use std::net::{Ipv4Addr, SocketAddrV4};

/// One connection record. Each endpoint owns *its half* of a connection:
/// the entry also captures the remote socket address observed during the
/// handshake (what a TCP accept/connect would report), so address lookups
/// for connected peers never read another node's slot — the property the
/// sharded executor relies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnEntry {
    /// The remote endpoint.
    pub peer: NodeId,
    /// Whether the connection was established through a circuit relay.
    pub relayed: bool,
    /// Remote address captured at connection time.
    pub addr: SocketAddrV4,
}

impl Default for ConnEntry {
    fn default() -> Self {
        ConnEntry {
            peer: NodeId(0),
            relayed: false,
            addr: SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0),
        }
    }
}

/// Smallest slab range handed to a node on its first connection.
const POOL_BASE_CAP: u32 = 8;
/// Sentinel class for "no range allocated yet" (zero-connection nodes cost
/// only the 12-byte handle).
const NO_RANGE: u8 = u8::MAX;

/// Per-node handle into a [`ConnPool`]: a `[off, off+len)` window of the
/// shared entry slab, with the window's capacity encoded as a power-of-two
/// class (`POOL_BASE_CAP << class`).
#[derive(Clone, Copy, Debug)]
struct ConnRef {
    off: u32,
    len: u32,
    class: u8,
}

impl ConnRef {
    const EMPTY: ConnRef = ConnRef {
        off: 0,
        len: 0,
        class: NO_RANGE,
    };
}

/// Slab-allocated connection fabric: every node's sorted connection half
/// lives in one contiguous per-shard `Vec<ConnEntry>` instead of a
/// per-node heap allocation. Nodes are addressed by their dense *local*
/// index at the owning shard; each holds a power-of-two-capacity window of
/// the slab (grown by range reallocation, freed windows recycled through
/// per-class freelists). Zero-connection nodes — the overwhelming majority
/// at internet scale — cost only the 12-byte handle.
///
/// Entries within a window are kept sorted by peer id, so lookups stay a
/// binary search and iteration stays deterministic ascending order.
#[derive(Clone, Debug, Default)]
pub struct ConnPool {
    refs: Vec<ConnRef>,
    entries: Vec<ConnEntry>,
    /// Freed windows by capacity class (`POOL_BASE_CAP << class`).
    free: Vec<Vec<u32>>,
}

impl ConnPool {
    /// An empty pool.
    pub fn new() -> ConnPool {
        ConnPool::default()
    }

    /// Pre-size the handle column for `n` nodes.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.refs.reserve(n.saturating_sub(self.refs.len()));
    }

    /// Register the next node (dense local indices, append-only).
    pub fn push_node(&mut self) {
        self.refs.push(ConnRef::EMPTY);
    }

    fn range(&self, node: usize) -> &[ConnEntry] {
        let r = &self.refs[node];
        &self.entries[r.off as usize..(r.off + r.len) as usize]
    }

    /// Carve a fresh window of capacity class `class` out of the slab
    /// (recycling a freed window when one fits).
    fn alloc(&mut self, class: u8) -> u32 {
        if let Some(list) = self.free.get_mut(class as usize) {
            if let Some(off) = list.pop() {
                return off;
            }
        }
        let cap = POOL_BASE_CAP << class;
        let off = self.entries.len() as u32;
        self.entries
            .resize(self.entries.len() + cap as usize, ConnEntry::default());
        off
    }

    fn free_range(&mut self, off: u32, class: u8) {
        if self.free.len() <= class as usize {
            self.free.resize(class as usize + 1, Vec::new());
        }
        self.free[class as usize].push(off);
    }

    /// Number of open connections for `node`.
    pub fn len(&self, node: usize) -> usize {
        self.refs[node].len as usize
    }

    /// `node`'s entry for `peer`, if connected (binary search of its window).
    fn get(&self, node: usize, peer: NodeId) -> Option<&ConnEntry> {
        let r = self.range(node);
        r.binary_search_by_key(&peer, |e| e.peer)
            .ok()
            .map(|i| &r[i])
    }

    /// Whether `node` holds a connection to `peer`.
    pub fn contains(&self, node: usize, peer: NodeId) -> bool {
        self.get(node, peer).is_some()
    }

    /// The `relayed` flag for `peer`, if connected.
    pub fn get_relayed(&self, node: usize, peer: NodeId) -> Option<bool> {
        self.get(node, peer).map(|e| e.relayed)
    }

    /// The captured remote address for `peer`, if connected.
    pub fn get_addr(&self, node: usize, peer: NodeId) -> Option<SocketAddrV4> {
        self.get(node, peer).map(|e| e.addr)
    }

    /// Insert or update `node`'s entry for `peer`, keeping the window
    /// sorted. Grows the window by range reallocation when full.
    pub fn insert(&mut self, node: usize, peer: NodeId, relayed: bool, addr: SocketAddrV4) {
        let entry = ConnEntry {
            peer,
            relayed,
            addr,
        };
        let r = self.refs[node];
        if r.class == NO_RANGE {
            let off = self.alloc(0);
            self.refs[node] = ConnRef {
                off,
                len: 0,
                class: 0,
            };
        }
        let r = self.refs[node];
        match self.range(node).binary_search_by_key(&peer, |e| e.peer) {
            Ok(i) => {
                self.entries[r.off as usize + i] = entry;
            }
            Err(i) => {
                let cap = POOL_BASE_CAP << r.class;
                if r.len == cap {
                    // Window full: move to the next capacity class.
                    let new_off = self.alloc(r.class + 1);
                    self.entries
                        .copy_within(r.off as usize..(r.off + r.len) as usize, new_off as usize);
                    self.free_range(r.off, r.class);
                    self.refs[node] = ConnRef {
                        off: new_off,
                        len: r.len,
                        class: r.class + 1,
                    };
                }
                let r = self.refs[node];
                let base = r.off as usize;
                self.entries
                    .copy_within(base + i..base + r.len as usize, base + i + 1);
                self.entries[base + i] = entry;
                self.refs[node].len += 1;
            }
        }
    }

    /// Remove `node`'s entry for `peer`; returns whether it existed.
    pub fn remove(&mut self, node: usize, peer: NodeId) -> bool {
        let r = self.refs[node];
        match self.range(node).binary_search_by_key(&peer, |e| e.peer) {
            Ok(i) => {
                let base = r.off as usize;
                self.entries
                    .copy_within(base + i + 1..base + r.len as usize, base + i);
                self.refs[node].len -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Iterate `node`'s peers in ascending id order, allocation-free.
    pub fn peers(&self, node: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.range(node).iter().map(|e| e.peer)
    }

    /// Iterate `node`'s full entries in ascending peer order.
    pub fn iter(&self, node: usize) -> impl Iterator<Item = ConnEntry> + '_ {
        self.range(node).iter().copied()
    }

    /// Take every entry out of `node`'s window (churn teardown). The
    /// window itself is retained for the likely rejoin.
    pub fn take_all(&mut self, node: usize) -> Vec<ConnEntry> {
        let out = self.range(node).to_vec();
        self.refs[node].len = 0;
        out
    }

    /// Drop every entry of `node` without notifications (process kill).
    pub fn clear(&mut self, node: usize) {
        self.refs[node].len = 0;
    }

    /// Bytes held by the pool (slab + handles + freelists), counted at
    /// capacity — what the allocator actually reserved.
    pub fn bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<ConnEntry>()
            + self.refs.capacity() * std::mem::size_of::<ConnRef>()
            + self
                .free
                .iter()
                .map(|f| f.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn a(i: u32) -> SocketAddrV4 {
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, i as u8), 4001)
    }

    /// A model window in the pool's iteration order.
    fn entries(m: &BTreeMap<NodeId, (bool, SocketAddrV4)>) -> Vec<ConnEntry> {
        m.iter()
            .map(|(&peer, &(relayed, addr))| ConnEntry {
                peer,
                relayed,
                addr,
            })
            .collect()
    }

    #[test]
    fn pool_insert_sorted_and_lookup() {
        let mut p = ConnPool::new();
        p.push_node();
        p.push_node();
        for i in [5u32, 1, 9, 3, 7] {
            p.insert(0, n(i), i % 2 == 0, a(i));
        }
        assert_eq!(p.len(0), 5);
        assert_eq!(p.len(1), 0);
        let order: Vec<u32> = p.peers(0).map(|x| x.0).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
        assert!(p.contains(0, n(5)));
        assert!(!p.contains(0, n(4)));
        assert!(!p.contains(1, n(5)));
        assert_eq!(p.get_relayed(0, n(1)), Some(false));
        assert_eq!(p.get_addr(0, n(3)), Some(a(3)));
        assert_eq!(p.get_relayed(0, n(2)), None);
    }

    #[test]
    fn pool_insert_updates_existing() {
        let mut p = ConnPool::new();
        p.push_node();
        p.insert(0, n(1), false, a(1));
        p.insert(0, n(1), true, a(2));
        assert_eq!(p.len(0), 1);
        assert_eq!(p.get_relayed(0, n(1)), Some(true));
        assert_eq!(p.get_addr(0, n(1)), Some(a(2)));
    }

    #[test]
    fn pool_grows_ranges_and_recycles() {
        let mut p = ConnPool::new();
        p.push_node();
        p.push_node();
        // Descending insert across several capacity-class growths.
        for i in (0..100u32).rev() {
            p.insert(0, n(i), false, a(i));
        }
        assert_eq!(p.len(0), 100);
        let order: Vec<u32> = p.peers(0).map(|x| x.0).collect();
        assert_eq!(order, (0..100).collect::<Vec<u32>>());
        // Node 1 grows through the same classes: its first windows should
        // recycle the ones node 0 outgrew rather than extend the slab.
        let before = p.entries.len();
        for i in 0..8u32 {
            p.insert(1, n(i), false, a(i));
        }
        assert_eq!(p.entries.len(), before, "freed window was recycled");
        assert!(p.remove(0, n(50)));
        assert!(!p.remove(0, n(50)));
        assert_eq!(p.len(0), 99);
        assert!(!p.contains(0, n(50)));
    }

    #[test]
    fn pool_take_all_and_clear() {
        let mut p = ConnPool::new();
        p.push_node();
        for i in 0..20u32 {
            p.insert(0, n(i), i == 3, a(i));
        }
        let all = p.take_all(0);
        assert_eq!(all.len(), 20);
        assert!(all[3].relayed);
        assert_eq!(p.len(0), 0);
        p.insert(0, n(7), false, a(7));
        assert_eq!(p.len(0), 1);
        p.clear(0);
        assert_eq!(p.len(0), 0);
        assert!(p.bytes() > 0);
    }

    /// The pool against one `BTreeMap` per node, operation for operation.
    /// The nodes share the slab: three start together and three join later,
    /// so a late joiner's first window is one an earlier node outgrew (stale
    /// entries still in it), growth recycles across nodes, and `take_all` /
    /// `clear` empty windows that then refill. Every node's `len` and `iter`
    /// order are compared after every step, so an entry leaking between
    /// windows or surviving a teardown shows at the step that caused it.
    #[test]
    fn pool_matches_btreemap_model() {
        let mut p = ConnPool::new();
        let mut model: Vec<BTreeMap<NodeId, (bool, SocketAddrV4)>> = Vec::new();
        let mut x = 123456789u64;
        let mut widest = 0;
        for step in 0..6000 {
            if step % 1500 == 0 || step < 3 {
                p.push_node();
                model.push(BTreeMap::new());
            }
            // Tiny xorshift so the mix of ops is deterministic.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let node = (x >> 8) as usize % model.len();
            let peer = n((x >> 16) as u32 % 60);
            let m = &mut model[node];
            match x % 256 {
                0..=119 => {
                    let (relayed, addr) = (x.is_multiple_of(5), a((x >> 24) as u32 % 250));
                    p.insert(node, peer, relayed, addr);
                    m.insert(peer, (relayed, addr));
                }
                120..=199 => assert_eq!(p.remove(node, peer), m.remove(&peer).is_some()),
                200..=253 => {
                    assert_eq!(p.contains(node, peer), m.contains_key(&peer));
                    assert_eq!(p.get_relayed(node, peer), m.get(&peer).map(|e| e.0));
                    assert_eq!(p.get_addr(node, peer), m.get(&peer).map(|e| e.1));
                }
                254 => {
                    let taken = p.take_all(node);
                    assert_eq!(taken, entries(&std::mem::take(m)), "step {step}");
                }
                _ => {
                    p.clear(node);
                    m.clear();
                }
            }
            for (i, m) in model.iter().enumerate() {
                widest = widest.max(m.len());
                assert_eq!(p.len(i), m.len(), "step {step}, node {i}");
                assert_eq!(
                    p.iter(i).collect::<Vec<_>>(),
                    entries(m),
                    "step {step}, node {i}"
                );
            }
        }
        assert!(
            widest > 32,
            "windows grew through every class up to 64: {widest}"
        );
    }
}

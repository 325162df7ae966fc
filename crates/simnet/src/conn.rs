//! The connection fabric's storage: one slab per shard.
//!
//! Most simulated nodes hold between zero (the long tail at internet scale)
//! and a few hundred (DHT servers) connections. A `HashMap` per node wastes
//! cache lines and forces a collect-and-sort on every deterministic
//! iteration, and a heap allocation per node is one more thing a fork copies.
//! [`ConnPool`] keeps every owned node's connection half in one contiguous
//! slab, each node a sorted power-of-two window of it. The slab is two
//! index-aligned columns: the remote ids (4 bytes a slot), which every
//! lookup binary-searches, and the `(relayed, address)` pairs (8 bytes),
//! read only once a lookup has found its slot. A search's probes read 4
//! bytes each instead of a whole 12-byte [`ConnEntry`], and the two columns
//! together take exactly the bytes of one entry per slot. Iteration is
//! already in deterministic ascending order and allocation-free.

use crate::state::NodeId;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::ops::Range;

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

/// The non-key half of a [`ConnEntry`]: `(relayed, addr)`.
type ConnMeta = (bool, SocketAddrV4);

/// What unused slab slots hold; never observable through the API.
const NO_META: ConnMeta = (false, SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0));

/// Smallest slab range handed to a node on its first connection.
const POOL_BASE_CAP: u32 = 8;
/// Sentinel class for "no range allocated yet" (zero-connection nodes cost
/// only the 12-byte handle).
const NO_RANGE: u8 = u8::MAX;

/// Per-node handle into a [`ConnPool`]: a `[off, off+len)` window of the
/// shared slab, with the window's capacity encoded as a power-of-two
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
/// lives in one contiguous per-shard slab instead of a per-node heap
/// allocation. Nodes are addressed by their dense *local* index at the
/// owning shard; each holds a power-of-two-capacity window of the slab
/// (grown by range reallocation, freed windows recycled through per-class
/// freelists). Zero-connection nodes — the overwhelming majority at
/// internet scale — cost only the 12-byte handle.
///
/// The slab is two index-aligned columns, `peers` and `meta`: slot `i` of
/// both is one [`ConnEntry`]. Every window operation moves both, so the
/// two `Vec`s always have the same length and grow to the same capacity.
/// Ids within a window are kept sorted, so lookups stay a binary search
/// (of the id column alone) and iteration stays deterministic ascending
/// order.
#[derive(Clone, Debug, Default)]
pub struct ConnPool {
    refs: Vec<ConnRef>,
    /// Remote ids, sorted within each window.
    peers: Vec<NodeId>,
    /// `(relayed, addr)` of the id in the same slot of `peers`.
    meta: Vec<ConnMeta>,
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

    /// Slab slots of `node`'s live window.
    #[inline]
    fn span(&self, node: usize) -> Range<usize> {
        let r = &self.refs[node];
        r.off as usize..(r.off + r.len) as usize
    }

    /// Where `peer` sits in `node`'s window (`Ok`), or where it would be
    /// inserted (`Err`): a binary search of the id column.
    #[inline]
    fn search(&self, node: usize, peer: NodeId) -> Result<usize, usize> {
        self.peers[self.span(node)].binary_search(&peer)
    }

    /// `node`'s slab slot for `peer`, if connected.
    #[inline]
    fn slot(&self, node: usize, peer: NodeId) -> Option<usize> {
        self.search(node, peer)
            .ok()
            .map(|i| self.refs[node].off as usize + i)
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
        let off = self.peers.len() as u32;
        let end = self.peers.len() + cap as usize;
        self.peers.resize(end, NodeId(0));
        self.meta.resize(end, NO_META);
        off
    }

    fn free_range(&mut self, off: u32, class: u8) {
        if self.free.len() <= class as usize {
            self.free.resize(class as usize + 1, Vec::new());
        }
        self.free[class as usize].push(off);
    }

    /// Move slab slots `src` to start at `dest` in both columns.
    fn copy_slots(&mut self, src: Range<usize>, dest: usize) {
        self.peers.copy_within(src.clone(), dest);
        self.meta.copy_within(src, dest);
    }

    /// Number of open connections for `node`.
    pub fn len(&self, node: usize) -> usize {
        self.refs[node].len as usize
    }

    /// Whether `node` holds a connection to `peer`.
    #[inline]
    pub fn contains(&self, node: usize, peer: NodeId) -> bool {
        self.search(node, peer).is_ok()
    }

    /// The `relayed` flag for `peer`, if connected.
    pub fn get_relayed(&self, node: usize, peer: NodeId) -> Option<bool> {
        self.slot(node, peer).map(|i| self.meta[i].0)
    }

    /// The captured remote address for `peer`, if connected.
    pub fn get_addr(&self, node: usize, peer: NodeId) -> Option<SocketAddrV4> {
        self.slot(node, peer).map(|i| self.meta[i].1)
    }

    /// Insert or update `node`'s entry for `peer`, keeping the window
    /// sorted. Grows the window by range reallocation when full.
    pub fn insert(&mut self, node: usize, peer: NodeId, relayed: bool, addr: SocketAddrV4) {
        if self.refs[node].class == NO_RANGE {
            let off = self.alloc(0);
            self.refs[node] = ConnRef {
                off,
                len: 0,
                class: 0,
            };
        }
        match self.search(node, peer) {
            Ok(i) => {
                self.meta[self.refs[node].off as usize + i] = (relayed, addr);
            }
            Err(i) => {
                let r = self.refs[node];
                if r.len == POOL_BASE_CAP << r.class {
                    // Window full: move to the next capacity class.
                    let new_off = self.alloc(r.class + 1);
                    self.copy_slots(self.span(node), new_off as usize);
                    self.free_range(r.off, r.class);
                    self.refs[node] = ConnRef {
                        off: new_off,
                        len: r.len,
                        class: r.class + 1,
                    };
                }
                let Range { start, end } = self.span(node);
                self.copy_slots(start + i..end, start + i + 1);
                self.peers[start + i] = peer;
                self.meta[start + i] = (relayed, addr);
                self.refs[node].len += 1;
            }
        }
    }

    /// Remove `node`'s entry for `peer`; returns whether it existed.
    pub fn remove(&mut self, node: usize, peer: NodeId) -> bool {
        match self.search(node, peer) {
            Ok(i) => {
                let Range { start, end } = self.span(node);
                self.copy_slots(start + i + 1..end, start + i);
                self.refs[node].len -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Iterate `node`'s peers in ascending id order, allocation-free.
    pub fn peers(&self, node: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.peers[self.span(node)].iter().copied()
    }

    /// Iterate `node`'s full entries in ascending peer order.
    pub fn iter(&self, node: usize) -> impl Iterator<Item = ConnEntry> + '_ {
        let span = self.span(node);
        self.peers[span.clone()]
            .iter()
            .zip(&self.meta[span])
            .map(|(&peer, &(relayed, addr))| ConnEntry {
                peer,
                relayed,
                addr,
            })
    }

    /// Take every entry out of `node`'s window (churn teardown). The
    /// window itself is retained for the likely rejoin.
    pub fn take_all(&mut self, node: usize) -> Vec<ConnEntry> {
        let out = self.iter(node).collect();
        self.refs[node].len = 0;
        out
    }

    /// Drop every entry of `node` without notifications (process kill).
    pub fn clear(&mut self, node: usize) {
        self.refs[node].len = 0;
    }

    /// Bytes held by the pool (both slab columns + handles + freelists),
    /// counted at capacity — what the allocator actually reserved.
    pub fn bytes(&self) -> u64 {
        (self.peers.capacity() * std::mem::size_of::<NodeId>()
            + self.meta.capacity() * std::mem::size_of::<ConnMeta>()
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
        let before = p.peers.len();
        for i in 0..8u32 {
            p.insert(1, n(i), false, a(i));
        }
        assert_eq!(p.peers.len(), before, "freed window was recycled");
        assert_eq!(p.meta.len(), before);
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

    /// `bytes()` of a scripted pool (growth through four classes, window
    /// recycling, removals, a teardown) equals what the single-column
    /// `Vec<ConnEntry>` slab reported for the same script: the two columns
    /// are exactly one entry wide and grow in lockstep. The state-budget
    /// pin's `owned_bytes` counts this figure.
    #[test]
    fn pool_bytes_match_one_entry_slab() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<NodeId>() + size_of::<ConnMeta>(),
            size_of::<ConnEntry>()
        );
        let mut p = ConnPool::new();
        for _ in 0..3 {
            p.push_node();
        }
        for i in (0..100u32).rev() {
            p.insert(0, n(i), i % 3 == 0, a(i));
        }
        for i in 0..8u32 {
            p.insert(1, n(i), false, a(i));
        }
        for i in 0..20u32 {
            p.insert(2, n(i * 7), false, a(i));
        }
        for i in 0..50u32 {
            p.remove(0, n(2 * i));
        }
        p.take_all(2);
        for i in 0..40u32 {
            p.insert(1, n(i), true, a(i));
        }
        assert_eq!(p.bytes(), 6064);
        // A fork's copy holds both columns at their length.
        assert_eq!(p.clone().bytes(), 3508);
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

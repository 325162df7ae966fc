//! The Kademlia routing table: k-buckets indexed by common prefix length.
//!
//! Follows go-libp2p-kbucket's "unfolding" scheme: the table starts with a
//! single bucket; when the *last* bucket overflows it is split, entries with
//! a strictly larger common prefix length moving into the new bucket. Peers
//! whose cpl exceeds the last bucket index live in the last bucket. This
//! keeps memory proportional to the population while preserving the paper's
//! observation that "the first, furthest buckets are filled completely,
//! whereas buckets closer to the own ID contain fewer and fewer connections".
//!
//! ## Memory layout
//!
//! Entries live in one contiguous arena per table: bucket `i` is the
//! fixed-stride window `arena[i*k .. i*k + lens[i]]`, so a table performs one
//! heap allocation per *unfold* instead of growing 256 independent
//! `Vec<Entry>`s — at million-node populations this removes two pointer
//! indirections from every `FIND_NODE` scan and keeps each node's routing
//! state in a handful of cache-linear blocks. Slots past `lens[i]` hold
//! recycled placeholder entries and are never observable through the API.
//!
//! An [`Entry`] is 72 bytes: the 56-byte [`PeerInfo`] (32-byte id, shared
//! address list, endpoint), `last_seen`, and the one-byte `connected` column
//! in what would otherwise be padding.
//!
//! ## Connection liveness is a column, not a scan
//!
//! A live connection counts as usefulness: a connected peer's entry must
//! survive [`RoutingTable::prune_stale`] however long it stayed silent. The
//! table cannot know who is connected, and asking per tick is the expensive
//! direction — a monitor holds thousands of connections against a few
//! hundred entries, so "refresh every connected peer" is thousands of
//! missed bucket scans per tick. Instead the owner of the connection state
//! (`ipfs-node`'s `IpfsNode`) keeps `Entry::connected` equal to "some
//! identified connection carries this id" by calling
//! [`RoutingTable::set_connected`] where that fact changes: when a
//! connection identifies, when it closes, and once when the table creates
//! an entry ([`Observed::Created`]; new entries start unflagged).
//! `prune_stale` refreshes `last_seen` of flagged entries in the pass it
//! makes over the arena anyway. That is why there is no `touch`: nothing is
//! left that refreshes an entry without either hearing from the peer
//! (`observe`) or pruning.
//!
//! ## `closest` walks buckets in distance order without sorting
//!
//! Let `D = local ⊕ target`. Every entry of bucket `i < last` shares exactly
//! `i` prefix bits with `local`, so its distance to `target` starts with
//! `D`'s first `i` bits followed by `¬D[i]`; the last bucket fixes only the
//! first `last` bits. The smallest distance a bucket can hold
//! ([`RoutingTable::bucket_min_distance`]) is that prefix padded with zeros,
//! and two such bounds first differ at bit `min(i, j)`, where the one from
//! the lower bucket reads `¬D[i]` and the other reads `D[i]`. Hence the
//! bounds are totally ordered by the bits of `D` alone: buckets `i < last`
//! with `D[i] = 1` in ascending index, then the last bucket, then buckets
//! with `D[i] = 0` in descending index ([`RoutingTable::walk_order`]).
//! `closest` visits buckets in that order, keeps the best `count` in a stack
//! array and stops once the next bound cannot beat the current worst.

use crate::messages::PeerInfo;
use ipfs_types::{Distance, Key256, PeerId};
use simnet::{Dur, NodeId, SimTime};

/// One routing-table entry.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The peer's contact info.
    pub info: PeerInfo,
    /// Last time we heard from this peer.
    pub last_seen: SimTime,
    /// Whether the table's owner holds an identified connection to this
    /// peer (see the module doc; written through
    /// [`RoutingTable::set_connected`] only).
    pub connected: bool,
}

/// What [`RoutingTable::observe`] did with the peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observed {
    /// Already present: `last_seen` (and changed contact info) refreshed.
    Refreshed,
    /// A new entry was created, unflagged: the owner decides `connected`.
    Created,
    /// Not in the table: self, or a full bucket of fresh entries.
    Rejected,
}

/// Largest `count` [`RoutingTable::closest`] serves: the running best set
/// lives in a stack array of this size (k + 1 = 21 is the largest request
/// the protocol makes).
pub const MAX_CLOSEST: usize = 32;

/// A borrowed view of one k-bucket: the live window of the table's entry
/// arena. Index = cpl, except the last bucket which also holds higher-cpl
/// entries.
#[derive(Clone, Copy, Debug)]
pub struct Bucket<'a> {
    entries: &'a [Entry],
}

impl<'a> Bucket<'a> {
    /// Entries in the bucket.
    pub fn entries(&self) -> &'a [Entry] {
        self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bucket holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Routing-table configuration.
#[derive(Clone, Copy, Debug)]
pub struct TableConfig {
    /// Bucket capacity (the paper's k = 20).
    pub k: usize,
    /// An entry not heard from for this long may be replaced by a newcomer
    /// (stand-in for the ping-evict liveness check).
    pub stale_after: Dur,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            k: 20,
            stale_after: Dur::from_mins(30),
        }
    }
}

/// The routing table of one DHT node.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    local: Key256,
    cfg: TableConfig,
    /// Contiguous entry arena; bucket `i` occupies `[i*k, i*k + lens[i])`.
    arena: Vec<Entry>,
    /// Live-entry count per bucket (`lens.len()` = unfolded bucket count).
    lens: Vec<u16>,
}

impl RoutingTable {
    /// New table for a node whose ID hashes to `local`.
    pub fn new(local: Key256, cfg: TableConfig) -> RoutingTable {
        let mut t = RoutingTable {
            local,
            cfg,
            arena: Vec::new(),
            lens: Vec::new(),
        };
        t.push_bucket();
        t
    }

    /// Placeholder filling unused arena slots. Never observable: every API
    /// path slices buckets to their live length first. Built once per
    /// process — deriving a `PeerId` hashes, and unfolds happen on the
    /// request-serving path.
    fn filler() -> Entry {
        static FILLER: std::sync::OnceLock<Entry> = std::sync::OnceLock::new();
        FILLER
            .get_or_init(|| Entry {
                info: PeerInfo {
                    id: PeerId::from_seed(0),
                    addrs: crate::messages::no_addrs(),
                    endpoint: NodeId(0),
                },
                last_seen: SimTime::ZERO,
                connected: false,
            })
            .clone()
    }

    /// Append one empty bucket: a k-slot stride of placeholders.
    fn push_bucket(&mut self) {
        self.arena
            .resize_with(self.arena.len() + self.cfg.k, Self::filler);
        self.lens.push(0);
    }

    /// The local key this table is centred on.
    pub fn local_key(&self) -> Key256 {
        self.local
    }

    /// Bucket index a peer with `cpl` lives in right now.
    fn bucket_index(&self, cpl: u32) -> usize {
        (cpl as usize).min(self.lens.len() - 1)
    }

    /// Live window of bucket `i`.
    fn window(&self, i: usize) -> &[Entry] {
        let base = i * self.cfg.k;
        &self.arena[base..base + self.lens[i] as usize]
    }

    fn window_mut(&mut self, i: usize) -> &mut [Entry] {
        let base = i * self.cfg.k;
        &mut self.arena[base..base + self.lens[i] as usize]
    }

    fn position(&self, i: usize, id: &PeerId) -> Option<usize> {
        self.window(i).iter().position(|e| e.info.id == *id)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buckets currently unfolded.
    pub fn bucket_count(&self) -> usize {
        self.lens.len()
    }

    /// Iterate buckets (index = cpl, except the last which also holds
    /// higher-cpl entries).
    pub fn buckets(&self) -> impl Iterator<Item = Bucket<'_>> + '_ {
        (0..self.lens.len()).map(move |i| Bucket {
            entries: self.window(i),
        })
    }

    /// View of bucket `i`.
    pub fn bucket(&self, i: usize) -> Bucket<'_> {
        Bucket {
            entries: self.window(i),
        }
    }

    /// All entries (unordered).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        (0..self.lens.len()).flat_map(move |i| self.window(i).iter())
    }

    /// Arena bytes held by this table (capacity-counted), for state budgets.
    pub fn bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<Entry>()
            + self.lens.capacity() * std::mem::size_of::<u16>()
    }

    /// Look up a peer's entry.
    pub fn get(&self, id: &PeerId) -> Option<&Entry> {
        let cpl = self.local.common_prefix_len(&id.key());
        if cpl == 256 {
            return None;
        }
        let idx = self.bucket_index(cpl);
        self.position(idx, id).map(|i| &self.window(idx)[i])
    }

    /// Set the `connected` column of `id`'s entry, if it has one.
    pub fn set_connected(&mut self, id: &PeerId, connected: bool) {
        let cpl = self.local.common_prefix_len(&id.key());
        if cpl == 256 {
            return;
        }
        let idx = self.bucket_index(cpl);
        if let Some(i) = self.position(idx, id) {
            self.window_mut(idx)[i].connected = connected;
        }
    }

    /// Refresh-or-insert from a borrowed info, cloning only when the table
    /// actually needs a new or changed copy. The hot path for request
    /// serving: the sender is almost always already present, making this a
    /// position scan plus a timestamp store.
    pub fn observe(&mut self, info: &PeerInfo, now: SimTime) -> Observed {
        let cpl = self.local.common_prefix_len(&info.id.key());
        if cpl == 256 {
            return Observed::Rejected;
        }
        let idx = self.bucket_index(cpl);
        if let Some(i) = self.position(idx, &info.id) {
            let e = &mut self.window_mut(idx)[i];
            e.last_seen = now;
            if e.info != *info {
                e.info = info.clone();
            }
            return Observed::Refreshed;
        }
        if self.try_insert(info.clone(), now) {
            Observed::Created
        } else {
            Observed::Rejected
        }
    }

    /// Try to insert (or refresh) a peer. Returns `true` if the peer is in
    /// the table afterwards.
    ///
    /// Insertion policy: refresh existing entries in place; fill free slots;
    /// when the destination bucket is full, unfold the last bucket while that
    /// helps, then evict the stalest entry if it exceeded `stale_after`
    /// (liveness replacement), otherwise reject the newcomer — plain
    /// Kademlia's "old contacts stay" rule, which is what makes stable
    /// cloud nodes accumulate in-degree (paper §4, node degree).
    pub fn try_insert(&mut self, info: PeerInfo, now: SimTime) -> bool {
        let cpl = self.local.common_prefix_len(&info.id.key());
        if cpl == 256 {
            return false; // never insert self
        }
        loop {
            let idx = self.bucket_index(cpl);
            let is_last = idx == self.lens.len() - 1;
            let can_unfold = is_last && self.lens.len() < 256;
            if let Some(i) = self.position(idx, &info.id) {
                let e = &mut self.window_mut(idx)[i];
                e.last_seen = now;
                e.info = info;
                return true;
            }
            let len = self.lens[idx] as usize;
            if len < self.cfg.k {
                self.arena[idx * self.cfg.k + len] = Entry {
                    info,
                    last_seen: now,
                    connected: false,
                };
                self.lens[idx] = (len + 1) as u16;
                return true;
            }
            // Bucket full. If it is the last bucket we can unfold it.
            if can_unfold {
                self.unfold_last();
                continue;
            }
            // Liveness replacement of the stalest entry.
            let (stalest_i, stalest_seen) = self
                .window(idx)
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_seen)
                .map(|(i, e)| (i, e.last_seen))
                .expect("full bucket is non-empty");
            if now.since(stalest_seen) > self.cfg.stale_after {
                self.window_mut(idx)[stalest_i] = Entry {
                    info,
                    last_seen: now,
                    connected: false,
                };
                return true;
            }
            return false;
        }
    }

    /// Split the last bucket: stable in-place partition of its live window —
    /// entries whose cpl equals the bucket index stay (compacted left, order
    /// preserved), strictly-larger-cpl entries move into a freshly appended
    /// bucket in their original relative order.
    fn unfold_last(&mut self) {
        let last_idx = self.lens.len() - 1;
        let base = last_idx * self.cfg.k;
        let len = self.lens[last_idx] as usize;
        let mut stay = 0usize;
        let mut go: Vec<Entry> = Vec::new();
        for j in 0..len {
            let cpl = self
                .local
                .common_prefix_len(&self.arena[base + j].info.id.key())
                as usize;
            if cpl == last_idx {
                if j != stay {
                    self.arena.swap(base + stay, base + j);
                }
                stay += 1;
            } else {
                go.push(std::mem::replace(&mut self.arena[base + j], Self::filler()));
            }
        }
        self.lens[last_idx] = stay as u16;
        self.push_bucket();
        let new_idx = self.lens.len() - 1;
        let new_base = new_idx * self.cfg.k;
        self.lens[new_idx] = go.len() as u16;
        for (j, e) in go.into_iter().enumerate() {
            self.arena[new_base + j] = e;
        }
    }

    /// Remove a peer (e.g. after a failed liveness check).
    pub fn remove(&mut self, id: &PeerId) -> bool {
        let cpl = self.local.common_prefix_len(&id.key());
        if cpl == 256 {
            return false;
        }
        let idx = self.bucket_index(cpl);
        if let Some(i) = self.position(idx, id) {
            // Rotate the removed entry past the live window (order of the
            // rest preserved); it becomes the recycled slot at the end.
            self.window_mut(idx)[i..].rotate_left(1);
            self.lens[idx] -= 1;
            true
        } else {
            false
        }
    }

    /// Lower bound on `d(e, target)` over entries of bucket `i`.
    ///
    /// Let `D = local ⊕ target`. A peer in bucket `i < last` shares exactly
    /// `i` prefix bits with `local`, so its distance to `target` agrees with
    /// `D` on the first `i` bits, has bit `i` flipped, and is free below —
    /// the minimum is that fixed prefix padded with zeros. The last bucket
    /// holds every cpl ≥ `last`, so only the prefix is fixed.
    fn bucket_min_distance(d: &[u8; 32], i: usize, is_last: bool) -> Distance {
        let mut m = [0u8; 32];
        let full = (i / 8).min(32);
        m[..full].copy_from_slice(&d[..full]);
        if i < 256 {
            let rem = i % 8;
            if rem > 0 {
                m[full] = d[full] & (0xFFu8 << (8 - rem));
            }
            if !is_last && d[i / 8] & (1 << (7 - rem)) == 0 {
                m[i / 8] |= 1 << (7 - rem);
            }
        }
        Distance(m)
    }

    /// Bucket indices in ascending order of [`Self::bucket_min_distance`]
    /// for `D = local ⊕ target`, read off the bits of `d` (module doc).
    fn walk_order(d: &[u8; 32], n_buckets: usize) -> impl Iterator<Item = usize> + '_ {
        let last = n_buckets - 1;
        let bit = move |i: usize| d[i / 8] & (0x80 >> (i % 8)) != 0;
        (0..last)
            .filter(move |&i| bit(i))
            .chain(std::iter::once(last))
            .chain((0..last).rev().filter(move |&i| !bit(i)))
    }

    /// The `count` known peers closest to `target` by XOR distance, closest
    /// first — the seed set of a lookup. `count` is at most [`MAX_CLOSEST`].
    pub fn closest(&self, target: &Key256, count: usize) -> Vec<PeerInfo> {
        self.select_closest(target, count, None)
    }

    /// [`Self::closest`] over the table without `exclude` — the response set
    /// for `FIND_NODE`/`GET_PROVIDERS`, which never echoes the requester.
    pub fn closest_excluding(
        &self,
        target: &Key256,
        count: usize,
        exclude: &PeerId,
    ) -> Vec<PeerInfo> {
        self.select_closest(target, count, Some(exclude))
    }

    /// Served on every incoming DHT request, so it must neither scan the
    /// whole table nor allocate beyond the reply: buckets are visited in
    /// ascending order of their minimum possible distance to `target`
    /// ([`Self::walk_order`]), the running best `count` sit in a stack
    /// array, and the walk stops as soon as the current `count`-th best
    /// beats the next bucket's lower bound — in a warm table that prunes
    /// all but a couple of buckets. Distances are unique in a hash
    /// keyspace, so the result is deterministic and identical to a full
    /// sort.
    fn select_closest(
        &self,
        target: &Key256,
        count: usize,
        exclude: Option<&PeerId>,
    ) -> Vec<PeerInfo> {
        assert!(
            count <= MAX_CLOSEST,
            "closest({count}) exceeds MAX_CLOSEST = {MAX_CLOSEST}"
        );
        if count == 0 {
            return Vec::new();
        }
        let d_local = self.local.distance(target).0;
        let nb = self.lens.len();
        // `best[..n]`: (distance, arena index), ascending by distance.
        let mut best = [(Distance::ZERO, 0u32); MAX_CLOSEST];
        let mut n = 0usize;
        for bi in Self::walk_order(&d_local, nb) {
            let len = self.lens[bi] as usize;
            if len == 0 {
                continue;
            }
            if n == count && Self::bucket_min_distance(&d_local, bi, bi == nb - 1) >= best[n - 1].0
            {
                break;
            }
            let base = bi * self.cfg.k;
            for (j, e) in self.arena[base..base + len].iter().enumerate() {
                let d = e.info.id.key().distance(target);
                if (n == count && d >= best[n - 1].0) || exclude == Some(&e.info.id) {
                    continue;
                }
                let pos = best[..n].partition_point(|(bd, _)| *bd < d);
                n = (n + 1).min(count);
                best.copy_within(pos..n - 1, pos + 1);
                best[pos] = (d, (base + j) as u32);
            }
        }
        best[..n]
            .iter()
            .map(|&(_, i)| self.arena[i as usize].info.clone())
            .collect()
    }

    /// Evict entries not heard from within `max_age` (kubo's usefulness
    /// eviction: peers that neither answered nor sent anything recently are
    /// dropped and re-learned through lookups if still alive). A live
    /// connection counts as usefulness (go-ipfs v0.11 kept connected peers
    /// in the table unconditionally): `connected` entries are refreshed to
    /// `now` instead. Returns the number of evicted entries.
    pub fn prune_stale(&mut self, now: SimTime, max_age: Dur) -> usize {
        let mut removed = 0;
        for i in 0..self.lens.len() {
            let base = i * self.cfg.k;
            let len = self.lens[i] as usize;
            let mut w = 0usize;
            for j in 0..len {
                let e = &mut self.arena[base + j];
                if e.connected {
                    e.last_seen = now;
                }
                if now.since(e.last_seen) <= max_age {
                    if j != w {
                        self.arena.swap(base + w, base + j);
                    }
                    w += 1;
                }
            }
            removed += len - w;
            self.lens[i] = w as u16;
        }
        removed
    }

    /// Refresh targets: for every bucket index, a key that lands in that
    /// bucket (local key with bit `cpl` flipped). Used for periodic bucket
    /// refresh and by the crawler's enumeration sweep.
    pub fn refresh_targets(&self) -> Vec<Key256> {
        (0..self.lens.len() as u32)
            .map(|cpl| self.local.with_bit_flipped(cpl.min(255)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(seed: u64) -> PeerInfo {
        PeerInfo {
            id: PeerId::from_seed(seed),
            addrs: crate::messages::no_addrs(),
            endpoint: NodeId(seed as u32),
        }
    }

    fn table() -> RoutingTable {
        RoutingTable::new(PeerId::from_seed(0).key(), TableConfig::default())
    }

    #[test]
    fn insert_and_get() {
        let mut t = table();
        assert!(t.try_insert(info(1), SimTime::ZERO));
        assert!(t.get(&PeerId::from_seed(1)).is_some());
        assert!(t.get(&PeerId::from_seed(2)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn never_inserts_self() {
        let mut t = table();
        assert!(!t.try_insert(info(0), SimTime::ZERO));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn buckets_never_exceed_k() {
        let mut t = table();
        for s in 1..2000u64 {
            t.try_insert(info(s), SimTime::ZERO);
        }
        for b in t.buckets() {
            assert!(b.len() <= 20, "bucket overflow: {}", b.len());
        }
        // Far buckets (low cpl) fill completely; close buckets stay sparse —
        // the shape the paper describes.
        assert_eq!(t.bucket(0).len(), 20);
        assert_eq!(t.bucket(1).len(), 20);
        let last = t.buckets().last().unwrap();
        assert!(last.len() < 20, "closest bucket unexpectedly full");
        // The arena is one contiguous block of bucket_count × k slots.
        assert_eq!(t.arena.len(), t.bucket_count() * 20);
    }

    #[test]
    fn entries_land_in_cpl_bucket() {
        let mut t = table();
        for s in 1..3000u64 {
            t.try_insert(info(s), SimTime::ZERO);
        }
        let local = t.local_key();
        let n_buckets = t.bucket_count();
        for (i, b) in t.buckets().enumerate() {
            for e in b.entries() {
                let cpl = local.common_prefix_len(&e.info.id.key()) as usize;
                if i < n_buckets - 1 {
                    assert_eq!(cpl, i, "entry in wrong bucket");
                } else {
                    assert!(cpl >= i, "last-bucket entry with too-small cpl");
                }
            }
        }
    }

    #[test]
    fn full_bucket_rejects_fresh_newcomer_keeps_old() {
        let mut t = RoutingTable::new(
            PeerId::from_seed(0).key(),
            TableConfig {
                k: 20,
                stale_after: Dur::from_mins(30),
            },
        );
        // Fill bucket 0 (half the keyspace — easy to fill).
        let mut inserted = 0;
        let mut s = 1u64;
        while inserted < 20 {
            let i = info(s);
            if t.local_key().common_prefix_len(&i.id.key()) == 0 && t.try_insert(i, SimTime::ZERO) {
                inserted += 1;
            }
            s += 1;
        }
        // A newcomer with cpl 0 while everyone is fresh: rejected (old
        // contacts preferred) — unless the bucket can still unfold, which
        // bucket 0 cannot once more buckets exist.
        for s2 in s..s + 500 {
            let i = info(s2);
            if t.local_key().common_prefix_len(&i.id.key()) == 0 {
                // May trigger unfolding the (single) last bucket first.
                t.try_insert(i.clone(), SimTime::ZERO + Dur::from_secs(1));
            }
        }
        assert_eq!(t.bucket(0).len(), 20);
    }

    #[test]
    fn stale_entries_are_replaced() {
        let mut t = RoutingTable::new(
            PeerId::from_seed(0).key(),
            TableConfig {
                k: 2,
                stale_after: Dur::from_mins(30),
            },
        );
        // Two cpl-0 peers at t=0.
        let mut zeros = vec![];
        let mut s = 1u64;
        while zeros.len() < 3 {
            let i = info(s);
            if t.local_key().common_prefix_len(&i.id.key()) == 0 {
                zeros.push(i);
            }
            s += 1;
        }
        // Force multiple buckets so bucket 0 is not the last (no unfolding).
        let mut high = vec![];
        while high.len() < 5 {
            let i = info(s);
            if t.local_key().common_prefix_len(&i.id.key()) >= 1 {
                high.push(i);
            }
            s += 1;
        }
        for h in high {
            t.try_insert(h, SimTime::ZERO);
        }
        assert!(t.try_insert(zeros[0].clone(), SimTime::ZERO));
        assert!(t.try_insert(zeros[1].clone(), SimTime::ZERO));
        // Fresh: newcomer rejected.
        assert!(!t.try_insert(zeros[2].clone(), SimTime::ZERO + Dur::from_mins(1)));
        // Stale: newcomer replaces the LRU entry.
        assert!(t.try_insert(zeros[2].clone(), SimTime::ZERO + Dur::from_hours(2)));
        assert!(t.get(&zeros[2].id).is_some());
    }

    #[test]
    fn closest_returns_sorted_k() {
        let mut t = table();
        for s in 1..500u64 {
            t.try_insert(info(s), SimTime::ZERO);
        }
        let target = Key256::from_seed(777);
        let c = t.closest(&target, 20);
        assert_eq!(c.len(), 20);
        for w in c.windows(2) {
            assert!(w[0].id.key().distance(&target) <= w[1].id.key().distance(&target));
        }
        // And they are the global minimum over the table.
        let best = t
            .entries()
            .map(|e| e.info.id.key().distance(&target))
            .min()
            .unwrap();
        assert_eq!(c[0].id.key().distance(&target), best);
    }

    #[test]
    fn remove_works() {
        let mut t = table();
        t.try_insert(info(1), SimTime::ZERO);
        assert!(t.remove(&PeerId::from_seed(1)));
        assert!(!t.remove(&PeerId::from_seed(1)));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn remove_preserves_order_of_rest() {
        let mut t = table();
        // Insert enough to land several entries in bucket 0, then remove a
        // middle one and check the survivors keep their relative order.
        let mut zeros = vec![];
        let mut s = 1u64;
        while zeros.len() < 5 {
            let i = info(s);
            if t.local_key().common_prefix_len(&i.id.key()) == 0 {
                zeros.push(i.clone());
                t.try_insert(i, SimTime::ZERO);
            }
            s += 1;
        }
        assert!(t.remove(&zeros[2].id));
        let got: Vec<PeerId> = t.bucket(0).entries().iter().map(|e| e.info.id).collect();
        let want: Vec<PeerId> = zeros
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, p)| p.id)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn prune_stale_keeps_order_and_counts() {
        let mut t = table();
        let mut s = 1u64;
        let mut kept = vec![];
        for n in 0..6u64 {
            loop {
                let i = info(s);
                s += 1;
                if t.local_key().common_prefix_len(&i.id.key()) == 0 {
                    let when = if n % 2 == 0 {
                        kept.push(i.id);
                        SimTime::ZERO + Dur::from_hours(3)
                    } else {
                        SimTime::ZERO
                    };
                    t.try_insert(i, when);
                    break;
                }
            }
        }
        let removed = t.prune_stale(SimTime::ZERO + Dur::from_hours(3), Dur::from_hours(1));
        assert_eq!(removed, 3);
        let got: Vec<PeerId> = t.bucket(0).entries().iter().map(|e| e.info.id).collect();
        assert_eq!(got, kept);
    }

    #[test]
    fn entry_stays_72_bytes() {
        // `connected` sits where `added_at` used to; tables are most of a
        // node's memory, so the layout is pinned.
        assert_eq!(std::mem::size_of::<Entry>(), 72);
    }

    #[test]
    fn observe_reports_creation_and_new_entries_start_unflagged() {
        let mut t = table();
        let now = SimTime::ZERO;
        assert_eq!(t.observe(&info(1), now), Observed::Created);
        assert!(!t.get(&PeerId::from_seed(1)).unwrap().connected);
        t.set_connected(&PeerId::from_seed(1), true);
        // Refreshes (either entry point) keep the flag.
        assert_eq!(t.observe(&info(1), now), Observed::Refreshed);
        assert!(t.try_insert(info(1), now));
        assert!(t.get(&PeerId::from_seed(1)).unwrap().connected);
        // Self is rejected; flagging an absent peer creates nothing.
        assert_eq!(t.observe(&info(0), now), Observed::Rejected);
        t.set_connected(&PeerId::from_seed(2), true);
        assert_eq!(t.len(), 1);
        // A removed peer comes back unflagged: its old slot is recycled.
        assert!(t.remove(&PeerId::from_seed(1)));
        assert_eq!(t.observe(&info(1), now), Observed::Created);
        assert!(!t.get(&PeerId::from_seed(1)).unwrap().connected);
    }

    #[test]
    fn flag_travels_with_its_entry_through_unfolds() {
        let mut t = table();
        let flagged: Vec<PeerId> = (1..=15u64).map(PeerId::from_seed).collect();
        for s in 1..2000u64 {
            t.try_insert(info(s), SimTime::ZERO);
            if s <= 15 {
                t.set_connected(&PeerId::from_seed(s), true);
            }
        }
        assert!(t.bucket_count() > 5);
        for e in t.entries() {
            assert_eq!(e.connected, flagged.contains(&e.info.id));
        }
    }

    #[test]
    fn prune_stale_refreshes_connected_entries_instead() {
        let mut t = table();
        for s in 1..=4u64 {
            t.try_insert(info(s), SimTime::ZERO);
        }
        t.set_connected(&PeerId::from_seed(2), true);
        let now = SimTime::ZERO + Dur::from_hours(3);
        assert_eq!(t.prune_stale(now, Dur::from_hours(1)), 3);
        let e = t.get(&PeerId::from_seed(2)).expect("connected entry kept");
        assert_eq!(e.last_seen, now);
        assert_eq!(t.len(), 1);
        // Once the connection is gone the entry ages like any other.
        t.set_connected(&PeerId::from_seed(2), false);
        assert_eq!(
            t.prune_stale(now + Dur::from_hours(2), Dur::from_hours(1)),
            1
        );
    }

    #[test]
    fn walk_order_is_the_sorted_lower_bound_order() {
        for seed in 0..200u64 {
            let d = Key256::from_seed(seed).0;
            for nb in [1usize, 2, 3, 9, 17, 64, 255, 256] {
                let mut sorted: Vec<usize> = (0..nb).collect();
                sorted.sort_by_key(|&i| RoutingTable::bucket_min_distance(&d, i, i == nb - 1));
                let walked: Vec<usize> = RoutingTable::walk_order(&d, nb).collect();
                assert_eq!(walked, sorted, "seed {seed}, {nb} buckets");
            }
        }
    }

    #[test]
    fn refresh_targets_hit_their_buckets() {
        let mut t = table();
        for s in 1..200u64 {
            t.try_insert(info(s), SimTime::ZERO);
        }
        let local = t.local_key();
        for (i, target) in t.refresh_targets().iter().enumerate() {
            assert_eq!(local.common_prefix_len(target) as usize, i);
        }
    }
}

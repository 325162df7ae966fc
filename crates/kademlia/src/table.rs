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
//! ## `closest` reads buckets as disjoint distance intervals
//!
//! Let `D = local ⊕ target`. Every entry of bucket `i < last` shares exactly
//! `i` prefix bits with `local`, so its distance to `target` agrees with `D`
//! on bits `0..i` and reads `¬D[i]` at bit `i`; the last bucket fixes only
//! bits `0..last`, which agree with `D`. Take buckets `i < j` (`j` possibly
//! the last): all their distances agree on bits `0..i`, and at bit `i`
//! bucket `i` reads `¬D[i]` while bucket `j` reads `D[i]`. So when
//! `D[i] = 1` *every* entry of bucket `i` is closer than every entry of
//! bucket `j`, and when `D[i] = 0` every entry is farther. The buckets are
//! therefore disjoint distance intervals, totally ordered by the bits of
//! `D` alone: buckets `i < last` with `D[i] = 1` in ascending index, then
//! the last bucket, then buckets with `D[i] = 0` in descending index
//! ([`RoutingTable::walk_order`]). `closest` visits buckets in that order,
//! sorts each one on its own (at most `k` entries, on a stack buffer) and
//! appends them until `count` are out: no entry is compared against
//! another bucket's.

use crate::messages::PeerInfo;
use ipfs_types::{Key256, PeerId};
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

/// Largest bucket capacity a table accepts: [`RoutingTable::closest`] sorts
/// one bucket at a time in a stack buffer of this size.
const MAX_K: usize = 32;

/// The leading 64 bits of a key, as a number. The XOR of two keys' prefixes
/// is the prefix of their distance, which orders two distances unless they
/// agree on it.
fn prefix64(key: &Key256) -> u64 {
    u64::from_be_bytes(key.0[..8].try_into().expect("8 bytes"))
}

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
    /// New table for a node whose ID hashes to `local`. `cfg.k` is at most
    /// 32.
    pub fn new(local: Key256, cfg: TableConfig) -> RoutingTable {
        assert!(cfg.k <= MAX_K, "bucket size k = {} exceeds {MAX_K}", cfg.k);
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

    /// Bucket indices in ascending order of their distance intervals for
    /// `D = local ⊕ target`, read off the bits of `d` (module doc).
    fn walk_order(d: &[u8; 32], n_buckets: usize) -> impl Iterator<Item = usize> + '_ {
        let last = n_buckets - 1;
        let bit = move |i: usize| d[i / 8] & (0x80 >> (i % 8)) != 0;
        (0..last)
            .filter(move |&i| bit(i))
            .chain(std::iter::once(last))
            .chain((0..last).rev().filter(move |&i| !bit(i)))
    }

    /// The `count` known peers closest to `target` by XOR distance, closest
    /// first — the seed set of a lookup.
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
    /// whole table nor allocate beyond the reply. Buckets come in ascending
    /// distance-interval order ([`Self::walk_order`]), so the result is the
    /// buckets in that order, each sorted, cut at `count`. A bucket is
    /// sorted on the leading 64 bits of each distance, the full distance
    /// breaking ties; distances are unique in a hash keyspace, so the
    /// result is deterministic and identical to a full sort.
    fn select_closest(
        &self,
        target: &Key256,
        count: usize,
        exclude: Option<&PeerId>,
    ) -> Vec<PeerInfo> {
        let d_local = self.local.distance(target).0;
        let t64 = prefix64(target);
        let ex64 = exclude.map(|p| prefix64(&p.0));
        let dist = |i: u32| self.arena[i as usize].info.id.key().distance(target);
        let mut out = Vec::with_capacity(count.min(self.len()));
        // One bucket's (leading 64 bits of distance, arena index).
        let mut buf = [(0u64, 0u32); MAX_K];
        for bi in Self::walk_order(&d_local, self.lens.len()) {
            if out.len() == count {
                break;
            }
            let base = bi * self.cfg.k;
            let mut m = 0usize;
            for (j, e) in self.window(bi).iter().enumerate() {
                let id64 = prefix64(&e.info.id.0);
                if ex64 == Some(id64) && exclude == Some(&e.info.id) {
                    continue;
                }
                buf[m] = (id64 ^ t64, (base + j) as u32);
                m += 1;
            }
            let bucket = &mut buf[..m];
            bucket.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| dist(a.1).cmp(&dist(b.1))));
            let take = m.min(count - out.len());
            out.extend(
                bucket[..take]
                    .iter()
                    .map(|&(_, i)| self.arena[i as usize].info.clone()),
            );
        }
        out
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

    /// The fact `closest` rests on: in walk order, every entry of a bucket
    /// is closer to the target than every entry of the next non-empty one.
    #[test]
    fn walk_order_buckets_are_ascending_intervals() {
        for k in [2usize, 20] {
            for seed in 0..30u64 {
                let local = PeerId::from_seed(1_000_000 + seed).key();
                let mut t = RoutingTable::new(
                    local,
                    TableConfig {
                        k,
                        ..TableConfig::default()
                    },
                );
                for s in 0..300u64 {
                    t.try_insert(info(seed * 1000 + s + 1), SimTime::ZERO);
                }
                let nb = t.bucket_count();
                assert!(nb > 3, "k {k}, seed {seed}: only {nb} buckets");
                // A random target, and one a bit flip from `local` (bits up
                // to one past the last bucket, so the walk also starts in
                // the last bucket or right beside it).
                let flip = (seed % (nb as u64 + 1)) as u32;
                for target in [Key256::from_seed(seed), local.with_bit_flipped(flip)] {
                    let d = local.distance(&target).0;
                    let order: Vec<usize> = RoutingTable::walk_order(&d, nb).collect();
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, (0..nb).collect::<Vec<_>>(), "a permutation");
                    let spans: Vec<_> = order
                        .iter()
                        .filter(|&&i| !t.bucket(i).is_empty())
                        .map(|&i| {
                            let ds = t
                                .bucket(i)
                                .entries()
                                .iter()
                                .map(|e| e.info.id.key().distance(&target));
                            (ds.clone().min().unwrap(), ds.max().unwrap())
                        })
                        .collect();
                    for w in spans.windows(2) {
                        assert!(w[0].1 < w[1].0, "k {k}, seed {seed}, target {target:?}");
                    }
                }
            }
        }
    }

    /// Distances that agree on their leading 64 bits: the sort falls back
    /// to the full distance, and an `exclude` id with the same leading 64
    /// bits as kept entries drops only itself.
    #[test]
    fn closest_breaks_prefix_ties_on_the_full_distance() {
        let id = |head: u8, tail: u8| {
            let mut b = [0u8; 32];
            b[0] = head;
            b[8] = tail;
            PeerId(Key256(b))
        };
        let peer = |id: PeerId| PeerInfo {
            id,
            addrs: crate::messages::no_addrs(),
            endpoint: NodeId(id.0 .0[0] as u32 * 256 + id.0 .0[8] as u32),
        };
        // Target zero: a peer's distance is its id. `local` has bit 0 set,
        // so every peer below sits in bucket 0, in insertion order.
        let mut local = [0u8; 32];
        local[0] = 0x80;
        let mut t = RoutingTable::new(Key256(local), TableConfig::default());
        let (a, b, c) = (id(0x01, 0x30), id(0x01, 0x10), id(0x01, 0x20));
        let (e, f) = (id(0x02, 0x00), id(0x00, 0xff));
        for p in [a, e, c, f, b] {
            assert!(t.try_insert(peer(p), SimTime::ZERO));
        }
        let ids = |v: Vec<PeerInfo>| v.into_iter().map(|p| p.id).collect::<Vec<_>>();
        let target = Key256::ZERO;
        assert_eq!(ids(t.closest(&target, 5)), vec![f, b, c, a, e]);
        assert_eq!(ids(t.closest(&target, 3)), vec![f, b, c]);
        let stranger = id(0x01, 0x28);
        assert_eq!(
            ids(t.closest_excluding(&target, 5, &stranger)),
            vec![f, b, c, a, e]
        );
        assert_eq!(ids(t.closest_excluding(&target, 3, &c)), vec![f, b, a]);
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

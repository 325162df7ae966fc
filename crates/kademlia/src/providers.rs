//! The provider-record store kept by every DHT server.
//!
//! Records expire after a TTL (24 h in the go-ipfs versions the paper
//! measured; providers re-publish every 12 h). Expiry is enforced lazily on
//! read plus via an explicit `cleanup` for long-running servers, which
//! scans only once the oldest record can have expired.

use crate::messages::ProviderRecord;
use ipfs_types::FxHashMap as HashMap;
use ipfs_types::{Cid, Multihash, PeerId};
use simnet::{Dur, SimTime};

/// Provider-store configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProviderStoreConfig {
    /// Record lifetime.
    pub ttl: Dur,
    /// Cap on records kept per key (defensive; effectively unbounded in the
    /// real implementation).
    pub max_per_key: usize,
}

impl Default for ProviderStoreConfig {
    fn default() -> Self {
        ProviderStoreConfig {
            ttl: Dur::from_hours(24),
            max_per_key: 1024,
        }
    }
}

/// Provider records indexed by multihash, as go-libp2p's provider store
/// is. The CID's DHT key is a hash of its multihash, so the grouping is the
/// one the key would give, and neither storing nor serving a record hashes.
#[derive(Clone, Debug, Default)]
pub struct ProviderStore {
    cfg: ProviderStoreConfig,
    map: HashMap<Multihash, Vec<ProviderRecord>>,
    /// No stored record has an earlier `stored_at`. A lower bound, not the
    /// minimum: removals and refreshes leave it alone, `cleanup`'s scan
    /// makes it exact again.
    oldest: SimTime,
}

impl ProviderStore {
    /// Empty store with the given config.
    pub fn new(cfg: ProviderStoreConfig) -> ProviderStore {
        ProviderStore {
            cfg,
            map: HashMap::default(),
            oldest: SimTime::ZERO,
        }
    }

    /// Store (or refresh) a record at `now`.
    pub fn add(&mut self, mut record: ProviderRecord, now: SimTime) {
        record.stored_at = now;
        self.oldest = if self.map.is_empty() {
            now
        } else {
            self.oldest.min(now)
        };
        let slot = self.map.entry(record.cid.hash).or_default();
        if let Some(existing) = slot
            .iter_mut()
            .find(|r| r.provider == record.provider && r.cid == record.cid)
        {
            *existing = record;
            return;
        }
        if slot.len() >= self.cfg.max_per_key {
            // Drop the oldest record to make room.
            if let Some(oldest) = slot
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.stored_at)
                .map(|(i, _)| i)
            {
                slot.remove(oldest);
            }
        }
        slot.push(record);
    }

    /// Fetch live records for `cid`, pruning expired ones in passing.
    pub fn get(&mut self, cid: &Cid, now: SimTime) -> Vec<ProviderRecord> {
        let Some(slot) = self.map.get_mut(&cid.hash) else {
            return Vec::new();
        };
        let ttl = self.cfg.ttl;
        slot.retain(|r| now.since(r.stored_at) <= ttl);
        let out: Vec<ProviderRecord> = slot.iter().filter(|r| r.cid == *cid).cloned().collect();
        if slot.is_empty() {
            self.map.remove(&cid.hash);
        }
        out
    }

    /// Drop every expired record (periodic GC). Free while nothing can have
    /// expired, which on a 5-minute tick against a 24 h TTL is nearly always.
    pub fn cleanup(&mut self, now: SimTime) {
        let ttl = self.cfg.ttl;
        if now.since(self.oldest) <= ttl {
            return;
        }
        let mut oldest = now;
        self.map.retain(|_, slot| {
            slot.retain(|r| now.since(r.stored_at) <= ttl);
            oldest = slot.iter().map(|r| r.stored_at).fold(oldest, SimTime::min);
            !slot.is_empty()
        });
        self.oldest = oldest;
    }

    /// Number of keys with at least one (possibly expired) record.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Records still live at `now`. Expiry is lazy, so the map can hold
    /// expired-but-unpruned records between cleanups; counting those
    /// inflated the provider-record budget lines under sustained churn.
    pub fn record_count(&self, now: SimTime) -> usize {
        let ttl = self.cfg.ttl;
        self.map
            .values()
            .map(|v| v.iter().filter(|r| now.since(r.stored_at) <= ttl).count())
            .sum()
    }

    /// Every stored record including expired-but-unpruned ones — the raw
    /// store footprint (what [`ProviderStore::record_count`] used to
    /// return; the budget artefact reports both).
    pub fn raw_record_count(&self) -> usize {
        self.map.values().map(|v| v.len()).sum()
    }

    /// Whether any record for `cid` names `provider` (test helper).
    pub fn has_provider(&self, cid: &Cid, provider: &PeerId) -> bool {
        self.map
            .get(&cid.hash)
            .map(|v| v.iter().any(|r| r.provider == *provider && r.cid == *cid))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_types::Codec;
    use simnet::NodeId;

    fn rec(cid: Cid, seed: u64) -> ProviderRecord {
        ProviderRecord {
            cid,
            provider: PeerId::from_seed(seed),
            addrs: crate::messages::no_addrs(),
            endpoint: NodeId(seed as u32),
            relay_endpoint: None,
            stored_at: SimTime::ZERO,
        }
    }

    fn cid(n: u64) -> Cid {
        Cid::new_v1(Codec::Raw, &n.to_be_bytes())
    }

    #[test]
    fn add_get_roundtrip() {
        let mut s = ProviderStore::new(ProviderStoreConfig::default());
        s.add(rec(cid(1), 10), SimTime::ZERO);
        s.add(rec(cid(1), 11), SimTime::ZERO);
        s.add(rec(cid(2), 12), SimTime::ZERO);
        let got = s.get(&cid(1), SimTime::ZERO + Dur::from_secs(1));
        assert_eq!(got.len(), 2);
        assert!(s.has_provider(&cid(1), &PeerId::from_seed(10)));
        assert!(!s.has_provider(&cid(2), &PeerId::from_seed(10)));
    }

    #[test]
    fn refresh_replaces_not_duplicates() {
        let mut s = ProviderStore::new(ProviderStoreConfig::default());
        s.add(rec(cid(1), 10), SimTime::ZERO);
        s.add(rec(cid(1), 10), SimTime::ZERO + Dur::from_hours(12));
        assert_eq!(s.record_count(SimTime::ZERO + Dur::from_hours(12)), 1);
        // Refreshed at 12h ⇒ still alive at 30h (TTL counts from refresh).
        let got = s.get(&cid(1), SimTime::ZERO + Dur::from_hours(30));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn expiry_after_ttl() {
        let mut s = ProviderStore::new(ProviderStoreConfig::default());
        s.add(rec(cid(1), 10), SimTime::ZERO);
        assert_eq!(s.get(&cid(1), SimTime::ZERO + Dur::from_hours(23)).len(), 1);
        assert_eq!(s.get(&cid(1), SimTime::ZERO + Dur::from_hours(25)).len(), 0);
        assert_eq!(s.key_count(), 0, "expired key must be pruned");
    }

    #[test]
    fn record_count_ignores_expired_unpruned_records() {
        // Regression: the count used to include expired-but-unpruned
        // records, inflating the budget lines under sustained churn.
        let mut s = ProviderStore::new(ProviderStoreConfig::default());
        s.add(rec(cid(1), 10), SimTime::ZERO);
        s.add(rec(cid(2), 11), SimTime::ZERO + Dur::from_hours(20));
        let late = SimTime::ZERO + Dur::from_hours(30);
        // Nothing has been read or cleaned: both records still occupy the
        // store, but only one is live.
        assert_eq!(s.raw_record_count(), 2);
        assert_eq!(s.record_count(late), 1);
        s.cleanup(late);
        assert_eq!(s.raw_record_count(), 1);
        assert_eq!(s.record_count(late), 1);
    }

    #[test]
    fn cleanup_prunes_everything_expired() {
        let mut s = ProviderStore::new(ProviderStoreConfig::default());
        for i in 0..50 {
            s.add(rec(cid(i), i), SimTime::ZERO);
        }
        for i in 50..60 {
            s.add(rec(cid(i), i), SimTime::ZERO + Dur::from_hours(20));
        }
        s.cleanup(SimTime::ZERO + Dur::from_hours(30));
        assert_eq!(s.key_count(), 10);
    }

    #[test]
    fn max_per_key_evicts_oldest() {
        let mut s = ProviderStore::new(ProviderStoreConfig {
            ttl: Dur::from_hours(24),
            max_per_key: 3,
        });
        for i in 0..5u64 {
            s.add(rec(cid(1), i), SimTime::ZERO + Dur::from_secs(i));
        }
        let got = s.get(&cid(1), SimTime::ZERO + Dur::from_mins(1));
        assert_eq!(got.len(), 3);
        // Oldest two (seeds 0, 1) evicted.
        assert!(!s.has_provider(&cid(1), &PeerId::from_seed(0)));
        assert!(!s.has_provider(&cid(1), &PeerId::from_seed(1)));
    }

    #[test]
    fn same_multihash_different_version_are_distinct_records() {
        // v0 and v1 CIDs share the multihash (and so the DHT key) but remain
        // distinct records, as in the real store: the value carries the CID.
        let data = b"same-content";
        let v0 = Cid::new_v0(data);
        let v1 = Cid {
            version: ipfs_types::CidVersion::V1,
            ..v0
        };
        let mut s = ProviderStore::new(ProviderStoreConfig::default());
        s.add(rec(v0, 1), SimTime::ZERO);
        s.add(rec(v1, 2), SimTime::ZERO);
        assert_eq!(s.get(&v0, SimTime::ZERO).len(), 1);
        assert_eq!(s.get(&v1, SimTime::ZERO).len(), 1);
        assert_eq!(s.key_count(), 1);
    }
}

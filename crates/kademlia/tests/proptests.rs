//! Property tests for routing-table invariants, lookup convergence and the
//! provider store's expiry.

use ipfs_types::{Cid, Key256, PeerId};
use kademlia::{
    Lookup, LookupConfig, LookupKind, PeerInfo, ProviderRecord, ProviderStore, ProviderStoreConfig,
    RoutingTable, TableConfig,
};
use proptest::prelude::*;
use simnet::{Dur, NodeId, SimTime};

fn info(seed: u64) -> PeerInfo {
    PeerInfo {
        id: PeerId::from_seed(seed),
        addrs: kademlia::no_addrs(),
        endpoint: NodeId(seed as u32),
    }
}

/// What `ProviderStore` did before `cleanup` learnt to skip the scan: the
/// same slots and the same eviction, every `cleanup` a full walk.
#[derive(Clone)]
struct AlwaysScanStore {
    cfg: ProviderStoreConfig,
    slots: Vec<(Key256, Vec<ProviderRecord>)>,
}

impl AlwaysScanStore {
    fn add(&mut self, mut record: ProviderRecord, now: SimTime) {
        record.stored_at = now;
        let key = record.cid.dht_key();
        let at = self.slots.iter().position(|(k, _)| *k == key);
        let at = at.unwrap_or_else(|| {
            self.slots.push((key, Vec::new()));
            self.slots.len() - 1
        });
        let slot = &mut self.slots[at].1;
        if let Some(existing) = slot
            .iter_mut()
            .find(|r| r.provider == record.provider && r.cid == record.cid)
        {
            *existing = record;
            return;
        }
        if slot.len() >= self.cfg.max_per_key {
            let oldest = (0..slot.len()).min_by_key(|i| slot[*i].stored_at);
            slot.remove(oldest.expect("full slot"));
        }
        slot.push(record);
    }

    fn cleanup(&mut self, now: SimTime) {
        let ttl = self.cfg.ttl;
        for (_, slot) in &mut self.slots {
            slot.retain(|r| now.since(r.stored_at) <= ttl);
        }
        self.slots.retain(|(_, slot)| !slot.is_empty());
    }

    fn get(&mut self, cid: &Cid, now: SimTime) -> Vec<ProviderRecord> {
        let key = cid.dht_key();
        let ttl = self.cfg.ttl;
        for (_, slot) in self.slots.iter_mut().filter(|(k, _)| *k == key) {
            slot.retain(|r| now.since(r.stored_at) <= ttl);
        }
        self.slots.retain(|(_, slot)| !slot.is_empty());
        let live = self.slots.iter().filter(|(k, _)| *k == key);
        live.flat_map(|(_, slot)| slot.iter().filter(|r| r.cid == *cid).cloned())
            .collect()
    }

    fn raw_record_count(&self) -> usize {
        self.slots.iter().map(|(_, slot)| slot.len()).sum()
    }

    fn record_count(&self, now: SimTime) -> usize {
        let live = |r: &&ProviderRecord| now.since(r.stored_at) <= self.cfg.ttl;
        self.slots
            .iter()
            .map(|(_, slot)| slot.iter().filter(live).count())
            .sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn provider_store_cleanup_matches_always_scanning(
        // (operation, content, provider, clock step)
        ops in proptest::collection::vec((0u8..8, 0usize..5, 0u64..6, 0usize..6), 1..300),
    ) {
        // v0/v1 twins share a DHT key, so one slot can hold two CIDs.
        let cids: Vec<Cid> = (0..5)
            .map(|i| {
                let v0 = Cid::new_v0(&[i as u8 / 2]);
                if i % 2 == 0 { v0 } else { Cid { version: ipfs_types::CidVersion::V1, ..v0 } }
            })
            .collect();
        let cfg = ProviderStoreConfig { ttl: Dur::from_hours(24), max_per_key: 3 };
        let mut store = ProviderStore::new(cfg);
        let mut reference = AlwaysScanStore { cfg, slots: Vec::new() };
        let steps = [0, 1, 5 * 60, 3600, 9 * 3600, 25 * 3600].map(Dur::from_secs);
        let mut now = SimTime::ZERO;
        for (op, content, provider, step) in ops {
            now += steps[step];
            let cid = cids[content];
            match op {
                0..=3 => {
                    let record = ProviderRecord {
                        cid,
                        provider: PeerId::from_seed(provider),
                        addrs: kademlia::no_addrs(),
                        endpoint: NodeId(provider as u32),
                        relay_endpoint: None,
                        stored_at: SimTime::ZERO,
                    };
                    store.add(record.clone(), now);
                    reference.add(record, now);
                }
                4 | 5 => {
                    store.cleanup(now);
                    reference.cleanup(now);
                }
                6 => prop_assert_eq!(store.get(&cid, now), reference.get(&cid, now)),
                _ => {} // the clock alone moved
            }
            prop_assert_eq!(store.raw_record_count(), reference.raw_record_count());
            prop_assert_eq!(store.record_count(now), reference.record_count(now));
            // `get` prunes what it reads: look, on copies, without touching.
            for cid in &cids {
                prop_assert_eq!(store.clone().get(cid, now), reference.clone().get(cid, now));
            }
        }
    }

    #[test]
    fn table_invariants_hold_under_any_insert_sequence(
        local in any::<u64>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        let local_key = PeerId::from_seed(local).key();
        let mut t = RoutingTable::new(local_key, TableConfig::default());
        for (i, s) in seeds.iter().enumerate() {
            t.try_insert(info(*s), SimTime::ZERO + Dur::from_secs(i as u64));
        }
        let n_buckets = t.bucket_count();
        let mut total = 0;
        for (i, b) in t.buckets().enumerate() {
            prop_assert!(b.len() <= 20, "bucket {} overflows: {}", i, b.len());
            for e in b.entries() {
                prop_assert_ne!(e.info.id.key(), local_key, "self in table");
                let cpl = local_key.common_prefix_len(&e.info.id.key()) as usize;
                if i < n_buckets - 1 {
                    prop_assert_eq!(cpl, i);
                } else {
                    prop_assert!(cpl >= i);
                }
                total += 1;
            }
        }
        prop_assert_eq!(total, t.len());
        // No duplicate peers.
        let mut ids: Vec<PeerId> = t.entries().map(|e| e.info.id).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(before, ids.len());
    }

    #[test]
    fn closest_is_truly_closest(
        local in any::<u64>(),
        seeds in proptest::collection::vec(any::<u64>(), 30..200),
        target in any::<u64>(),
        // 0..256: the target is `local` with that bit flipped, so the walk
        // starts in the deepest buckets; otherwise a random key.
        near_bit in 0u32..512,
        drop_mask in any::<u64>(),
        sender in any::<usize>(),
    ) {
        let local_key = PeerId::from_seed(local).key();
        // k = 3 unfolds many small buckets, so results span several of them
        // and end mid-bucket.
        for k in [20, 3] {
            let mut t = RoutingTable::new(local_key, TableConfig { k, ..TableConfig::default() });
            // Even seeds go in an hour later than odd ones; flagged entries
            // survive pruning like connected peers do.
            let late = SimTime::ZERO + Dur::from_hours(1);
            for (i, s) in seeds.iter().enumerate() {
                let at = if s % 2 == 0 { late } else { SimTime::ZERO };
                t.try_insert(info(*s), at);
                if i % 7 == 0 {
                    t.set_connected(&PeerId::from_seed(*s), true);
                }
            }
            // Empty out buckets: remove a masked subset, then (half the
            // time) prune everything from the early wave.
            for (i, s) in seeds.iter().enumerate() {
                if (drop_mask >> (i % 64)) & 1 == 1 {
                    t.remove(&PeerId::from_seed(*s));
                }
            }
            if drop_mask & 1 == 0 {
                t.prune_stale(late, Dur::from_mins(30));
            }
            let target = if near_bit < 256 {
                local_key.with_bit_flipped(near_bit)
            } else {
                Key256::from_seed(target)
            };
            // Reference: a full sort of the table contents.
            let mut all: Vec<PeerId> = t.entries().map(|e| e.info.id).collect();
            all.sort_by_key(|p| p.key().distance(&target));
            for count in [1, k, k + 1, 3 * k + 1, 32] {
                let got: Vec<PeerId> = t.closest(&target, count).iter().map(|p| p.id).collect();
                let want: Vec<PeerId> = all.iter().copied().take(count).collect();
                prop_assert_eq!(got, want, "k {}, count {}", k, count);
            }
            // The request-serving variant: full sort, drop the sender, take
            // k. The sender is one of the k + 2 closest, so that dropping it
            // shows.
            if !all.is_empty() {
                let sender = all[sender % all.len().min(k + 2)];
                let got: Vec<PeerId> =
                    t.closest_excluding(&target, k, &sender).iter().map(|p| p.id).collect();
                let want: Vec<PeerId> =
                    all.iter().copied().filter(|p| *p != sender).take(k).collect();
                prop_assert_eq!(got, want, "k {}", k);
            }
            let stranger = PeerId::from_seed(local ^ 1);
            if t.get(&stranger).is_none() {
                prop_assert_eq!(
                    t.closest_excluding(&target, k, &stranger),
                    t.closest(&target, k)
                );
            }
        }
    }

    #[test]
    fn lookup_finds_true_k_closest_on_full_knowledge(
        target in any::<u64>(),
        population in 30usize..120,
    ) {
        // Omniscient responders: every queried peer returns the true k
        // closest peers to the target. The lookup must converge to exactly
        // that set regardless of seeds.
        let target = Key256::from_seed(target);
        let all: Vec<PeerInfo> = (1..=population as u64).map(info).collect();
        let mut truth = all.clone();
        truth.sort_by_key(|p| p.id.key().distance(&target));
        let cfg = LookupConfig { alpha: 3, k: 8, max_providers: 20 };
        let mut l = Lookup::new(target, None, LookupKind::GetClosestPeers, cfg,
                                all[..3.min(all.len())].to_vec());
        let mut guard = 0;
        while !l.is_done() {
            guard += 1;
            prop_assert!(guard < 10_000, "no convergence");
            let qs = l.next_queries();
            prop_assert!(!qs.is_empty() || l.is_done(), "stall");
            for q in qs {
                let mut resp = all.clone();
                resp.sort_by_key(|p| p.id.key().distance(&target));
                resp.truncate(8);
                l.on_response(&q.id, resp, vec![]);
            }
        }
        let res = l.into_result();
        let got: Vec<PeerId> = res.closest.iter().map(|p| p.id).collect();
        let want: Vec<PeerId> = truth.iter().take(8).map(|p| p.id).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn lookup_terminates_under_random_failures(
        target in any::<u64>(),
        fail_mask in any::<u64>(),
    ) {
        let target = Key256::from_seed(target);
        let all: Vec<PeerInfo> = (1..=60).map(info).collect();
        let cfg = LookupConfig { alpha: 4, k: 6, max_providers: 20 };
        let mut l = Lookup::new(target, None, LookupKind::GetClosestPeers, cfg, all[..6].to_vec());
        let mut step = 0u32;
        let mut guard = 0;
        while !l.is_done() {
            guard += 1;
            prop_assert!(guard < 10_000, "no termination");
            let qs = l.next_queries();
            if qs.is_empty() && !l.is_done() {
                // All in-flight; resolve one arbitrarily — but our driver
                // resolves everything each round, so this cannot happen.
                prop_assert!(false, "stall with {} in flight", qs.len());
            }
            for q in qs {
                step = step.wrapping_add(1);
                if (fail_mask >> (step % 64)) & 1 == 1 {
                    l.on_failure(&q.id);
                } else {
                    l.on_response(&q.id, all.clone(), vec![]);
                }
            }
        }
        // Result closest set contains only responded peers and is sorted.
        let res = l.into_result();
        for w in res.closest.windows(2) {
            prop_assert!(
                w[0].id.key().distance(&target) <= w[1].id.key().distance(&target)
            );
        }
    }
}

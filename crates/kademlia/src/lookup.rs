//! The iterative lookup state machine (`GetClosestPeers` / `FindProviders`).
//!
//! Sans-io: the owner feeds in responses/failures and pulls out the next
//! peers to query. Termination follows §2 of the paper:
//!
//! * `GetClosestPeers`: stop when the k closest known peers have all been
//!   queried ("the client does not find any more peers closer to key");
//! * `FindProviders` (default): additionally stop as soon as 20 providers
//!   are known;
//! * `FindProviders` (exhaustive): the paper's modified client — terminate
//!   *only* when all resolvers (k closest) have been queried, collecting
//!   every provider record (§3 "Provider Records", §A ethics discussion).

use crate::messages::{DhtRequest, PeerInfo, ProviderRecord};
use ipfs_types::FxHashMap as HashMap;
use ipfs_types::{Cid, Distance, Key256, PeerId};

/// Lookup tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct LookupConfig {
    /// Concurrency (go-ipfs ≥0.5 uses 10; the paper observes ~50 contacted
    /// nodes per query, consistent with this).
    pub alpha: usize,
    /// Closeness set size (k = 20).
    pub k: usize,
    /// Cap on providers for the default termination rule.
    pub max_providers: usize,
}

impl Default for LookupConfig {
    fn default() -> Self {
        LookupConfig {
            alpha: 10,
            k: 20,
            max_providers: 20,
        }
    }
}

/// What the lookup is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupKind {
    /// Pure routing: find the k closest peers to the target.
    GetClosestPeers,
    /// Resolve providers for a CID.
    FindProviders {
        /// The paper's modified termination rule (query *all* resolvers).
        exhaustive: bool,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CandState {
    NotContacted,
    Waiting,
    Responded,
    Failed,
}

#[derive(Clone, Debug)]
struct Candidate {
    info: PeerInfo,
    state: CandState,
}

/// Outcome of a finished lookup.
#[derive(Clone, Debug)]
pub struct LookupResult {
    /// The k closest *responded* peers, sorted by distance to the target.
    pub closest: Vec<PeerInfo>,
    /// Collected provider records (deduplicated by provider peer ID).
    pub providers: Vec<ProviderRecord>,
    /// Number of peers queried (responded + failed + in flight at the end) —
    /// the paper's "an average DHT query contacts 50 different nodes".
    pub contacted: usize,
    /// Peers that never answered.
    pub failures: usize,
}

/// An in-flight iterative lookup.
#[derive(Clone, Debug)]
pub struct Lookup {
    /// Target key in the DHT keyspace.
    pub target: Key256,
    /// CID for provider lookups (records must match).
    pub cid: Option<Cid>,
    kind: LookupKind,
    cfg: LookupConfig,
    // All candidates keyed by distance (total order, no ties in a hash
    // keyspace) — BTreeMap would also work; we keep a sorted Vec for cheap
    // scans of the head. The side index maps peer → distance (stable across
    // inserts, unlike a position), and positions are recovered by binary
    // search.
    candidates: Vec<(Distance, Candidate)>,
    index: HashMap<PeerId, Distance>,
    in_flight: usize,
    providers: Vec<ProviderRecord>,
    contacted: usize,
    failures: usize,
    done: bool,
}

impl Lookup {
    /// Start a lookup seeded from the local routing table.
    pub fn new(
        target: Key256,
        cid: Option<Cid>,
        kind: LookupKind,
        cfg: LookupConfig,
        seeds: Vec<PeerInfo>,
    ) -> Lookup {
        let mut l = Lookup {
            target,
            cid,
            kind,
            cfg,
            candidates: Vec::new(),
            index: HashMap::default(),
            in_flight: 0,
            providers: Vec::new(),
            contacted: 0,
            failures: 0,
            done: false,
        };
        for s in seeds {
            l.add_candidate(s);
        }
        l
    }

    /// The request this walk sends each peer it queries: `FindNode` for
    /// the target, or `GetProviders` for the CID of a provider walk.
    pub fn request(&self) -> DhtRequest {
        match self.kind {
            LookupKind::GetClosestPeers => DhtRequest::FindNode {
                target: self.target,
            },
            LookupKind::FindProviders { .. } => DhtRequest::GetProviders {
                cid: self.cid.expect("provider lookup carries cid"),
            },
        }
    }

    fn add_candidate(&mut self, info: PeerInfo) {
        if self.index.contains_key(&info.id) {
            return;
        }
        let d = info.id.key().distance(&self.target);
        let pos = self
            .candidates
            .binary_search_by(|(cd, _)| cd.cmp(&d))
            .unwrap_or_else(|p| p);
        self.index.insert(info.id, d);
        self.candidates.insert(
            pos,
            (
                d,
                Candidate {
                    info,
                    state: CandState::NotContacted,
                },
            ),
        );
    }

    fn set_state(&mut self, peer: &PeerId, state: CandState) -> bool {
        let Some(&d) = self.index.get(peer) else {
            return false;
        };
        let i = self
            .candidates
            .binary_search_by(|(cd, _)| cd.cmp(&d))
            .expect("indexed candidate present");
        let c = &mut self.candidates[i].1;
        if c.state == CandState::Waiting {
            self.in_flight -= 1;
        }
        c.state = state;
        true
    }

    /// Peers to query next, respecting the α concurrency limit. Marks them
    /// as in-flight; the caller must eventually report a response or failure
    /// for each.
    pub fn next_queries(&mut self) -> Vec<PeerInfo> {
        if self.done {
            return Vec::new();
        }
        // Query the closest not-contacted candidates, but never beyond the
        // frontier that termination cares about (the k closest alive set
        // plus anything closer than its worst member is implicitly covered
        // by scanning in distance order).
        let budget = self.cfg.alpha.saturating_sub(self.in_flight);
        if budget == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        // `useful` counts non-failed candidates strictly closer than the one
        // under inspection — a running tally instead of a rescan per step.
        let mut useful = 0;
        for (_, c) in self.candidates.iter_mut() {
            if out.len() >= budget {
                break;
            }
            if c.state == CandState::NotContacted {
                c.state = CandState::Waiting;
                if out.is_empty() {
                    // One allocation for the whole batch, none for an
                    // exhausted frontier.
                    out.reserve_exact(budget);
                }
                out.push(c.info.clone());
            }
            // Do not walk past the k-th useful candidate: if we already have
            // k responded/waiting peers closer than this one, querying it
            // cannot improve the result set.
            if useful >= self.cfg.k + self.cfg.alpha {
                break;
            }
            if c.state != CandState::Failed {
                useful += 1;
            }
        }
        self.in_flight += out.len();
        self.contacted += out.len();
        self.update_done();
        out
    }

    /// Feed a `Nodes`/`Providers` response from `from`.
    pub fn on_response(
        &mut self,
        from: &PeerId,
        closer: Vec<PeerInfo>,
        providers: Vec<ProviderRecord>,
    ) {
        if !self.set_state(from, CandState::Responded) {
            return; // unsolicited
        }
        for info in closer {
            self.add_candidate(info);
        }
        for rec in providers {
            if self.cid.map(|c| c == rec.cid).unwrap_or(false)
                && !self.providers.iter().any(|r| r.provider == rec.provider)
            {
                self.providers.push(rec);
            }
        }
        self.update_done();
    }

    /// Feed a query failure (timeout, dial failure, connection refused).
    pub fn on_failure(&mut self, from: &PeerId) {
        if self.set_state(from, CandState::Failed) {
            self.failures += 1;
            self.update_done();
        }
    }

    fn update_done(&mut self) {
        if self.done {
            return;
        }
        if let LookupKind::FindProviders { exhaustive: false } = self.kind {
            if self.providers.len() >= self.cfg.max_providers {
                self.done = true;
                return;
            }
        }
        // Done when the k closest non-failed candidates have all responded
        // and nothing closer is pending.
        let mut alive_seen = 0;
        for (_, c) in &self.candidates {
            match c.state {
                CandState::Failed => continue,
                CandState::Responded => {
                    alive_seen += 1;
                    if alive_seen >= self.cfg.k {
                        self.done = true;
                        return;
                    }
                }
                CandState::Waiting | CandState::NotContacted => return, // closer work pending
            }
        }
        // Ran out of candidates entirely.
        if self.in_flight == 0
            && !self
                .candidates
                .iter()
                .any(|(_, c)| c.state == CandState::NotContacted)
        {
            self.done = true;
        }
    }

    /// Whether the lookup has terminated.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Providers collected so far.
    pub fn providers_so_far(&self) -> usize {
        self.providers.len()
    }

    /// Consume the lookup into its result.
    pub fn into_result(self) -> LookupResult {
        let closest = self
            .candidates
            .iter()
            .filter(|(_, c)| c.state == CandState::Responded)
            .take(self.cfg.k)
            .map(|(_, c)| c.info.clone())
            .collect();
        LookupResult {
            closest,
            providers: self.providers,
            contacted: self.contacted,
            failures: self.failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, SimTime};

    fn info(seed: u64) -> PeerInfo {
        PeerInfo {
            id: PeerId::from_seed(seed),
            addrs: crate::messages::no_addrs(),
            endpoint: NodeId(seed as u32),
        }
    }

    fn cfg() -> LookupConfig {
        LookupConfig {
            alpha: 3,
            k: 4,
            max_providers: 3,
        }
    }

    #[test]
    fn respects_alpha() {
        let seeds: Vec<PeerInfo> = (1..20).map(info).collect();
        let mut l = Lookup::new(
            Key256::from_seed(0),
            None,
            LookupKind::GetClosestPeers,
            cfg(),
            seeds,
        );
        let q1 = l.next_queries();
        assert_eq!(q1.len(), 3);
        assert!(l.next_queries().is_empty(), "alpha saturated");
        l.on_failure(&q1[0].id);
        assert_eq!(l.next_queries().len(), 1, "slot freed");
    }

    #[test]
    fn queries_in_distance_order() {
        let target = Key256::from_seed(0);
        let seeds: Vec<PeerInfo> = (1..30).map(info).collect();
        let mut sorted = seeds.clone();
        sorted.sort_by_key(|p| p.id.key().distance(&target));
        let mut l = Lookup::new(target, None, LookupKind::GetClosestPeers, cfg(), seeds);
        let q = l.next_queries();
        assert_eq!(q[0].id, sorted[0].id);
        assert_eq!(q[1].id, sorted[1].id);
        assert_eq!(q[2].id, sorted[2].id);
    }

    #[test]
    fn converges_on_static_population() {
        // Ground truth: 200 peers; every peer knows every other peer.
        // The lookup must return the true k closest to the target.
        let target = Key256::from_seed(4242);
        let all: Vec<PeerInfo> = (1..=200).map(info).collect();
        let mut truth = all.clone();
        truth.sort_by_key(|p| p.id.key().distance(&target));

        let seeds = vec![all[0].clone(), all[1].clone(), all[2].clone()];
        let mut l = Lookup::new(target, None, LookupKind::GetClosestPeers, cfg(), seeds);
        let mut guard = 0;
        while !l.is_done() {
            guard += 1;
            assert!(guard < 1000, "lookup did not converge");
            let qs = l.next_queries();
            if qs.is_empty() && !l.is_done() {
                panic!("stalled");
            }
            for q in qs {
                // Responder returns its k closest to the target.
                let mut resp = all.clone();
                resp.sort_by_key(|p| p.id.key().distance(&target));
                resp.truncate(4);
                l.on_response(&q.id, resp, vec![]);
            }
        }
        let res = l.into_result();
        let got: Vec<PeerId> = res.closest.iter().map(|p| p.id).collect();
        let want: Vec<PeerId> = truth.iter().take(4).map(|p| p.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn tolerates_failures() {
        let target = Key256::from_seed(1);
        let all: Vec<PeerInfo> = (1..=50).map(info).collect();
        let mut l = Lookup::new(
            target,
            None,
            LookupKind::GetClosestPeers,
            cfg(),
            all[..6].to_vec(),
        );
        let mut guard = 0;
        while !l.is_done() {
            guard += 1;
            assert!(guard < 1000);
            let qs = l.next_queries();
            for (i, q) in qs.iter().enumerate() {
                if i % 2 == 0 {
                    l.on_failure(&q.id);
                } else {
                    l.on_response(&q.id, all.clone(), vec![]);
                }
            }
        }
        let res = l.into_result();
        assert!(res.failures > 0);
        assert_eq!(res.closest.len(), 4);
        // Failed peers never appear in the result.
        for p in &res.closest {
            assert!(all.iter().any(|a| a.id == p.id));
        }
    }

    #[test]
    fn default_providers_terminates_at_cap() {
        let cid = Cid::from_seed(7);
        let target = cid.dht_key();
        let seeds: Vec<PeerInfo> = (1..10).map(info).collect();
        let mut l = Lookup::new(
            target,
            Some(cid),
            LookupKind::FindProviders { exhaustive: false },
            cfg(),
            seeds,
        );
        let qs = l.next_queries();
        let recs: Vec<ProviderRecord> = (100..103)
            .map(|s| ProviderRecord {
                cid,
                provider: PeerId::from_seed(s),
                addrs: crate::messages::no_addrs(),
                endpoint: NodeId(s as u32),
                relay_endpoint: None,
                stored_at: SimTime::ZERO,
            })
            .collect();
        l.on_response(&qs[0].id, vec![], recs);
        assert!(l.is_done(), "3 providers ≥ max_providers=3 terminates");
        assert_eq!(l.into_result().providers.len(), 3);
    }

    #[test]
    fn exhaustive_ignores_provider_cap() {
        let cid = Cid::from_seed(7);
        let target = cid.dht_key();
        let all: Vec<PeerInfo> = (1..=30).map(info).collect();
        let mut l = Lookup::new(
            target,
            Some(cid),
            LookupKind::FindProviders { exhaustive: true },
            cfg(),
            all[..6].to_vec(),
        );
        let mut served = 0u64;
        let mut guard = 0;
        while !l.is_done() {
            guard += 1;
            assert!(guard < 1000);
            for q in l.next_queries() {
                let recs: Vec<ProviderRecord> = (0..2)
                    .map(|j| ProviderRecord {
                        cid,
                        provider: PeerId::from_seed(1000 + served * 10 + j),
                        addrs: crate::messages::no_addrs(),
                        endpoint: NodeId(0),
                        relay_endpoint: None,
                        stored_at: SimTime::ZERO,
                    })
                    .collect();
                served += 1;
                l.on_response(&q.id, all.clone(), recs);
            }
        }
        let res = l.into_result();
        assert!(
            res.providers.len() > 3,
            "collected past the default cap: {}",
            res.providers.len()
        );
    }

    #[test]
    fn provider_records_for_wrong_cid_ignored() {
        let cid = Cid::from_seed(7);
        let other = Cid::from_seed(8);
        let seeds: Vec<PeerInfo> = (1..10).map(info).collect();
        let mut l = Lookup::new(
            cid.dht_key(),
            Some(cid),
            LookupKind::FindProviders { exhaustive: false },
            cfg(),
            seeds,
        );
        let qs = l.next_queries();
        l.on_response(
            &qs[0].id,
            vec![],
            vec![ProviderRecord {
                cid: other,
                provider: PeerId::from_seed(1),
                addrs: crate::messages::no_addrs(),
                endpoint: NodeId(1),
                relay_endpoint: None,
                stored_at: SimTime::ZERO,
            }],
        );
        assert_eq!(l.providers_so_far(), 0);
    }

    #[test]
    fn duplicate_providers_deduped() {
        let cid = Cid::from_seed(7);
        let seeds: Vec<PeerInfo> = (1..10).map(info).collect();
        let mut l = Lookup::new(
            cid.dht_key(),
            Some(cid),
            LookupKind::FindProviders { exhaustive: true },
            cfg(),
            seeds,
        );
        let qs = l.next_queries();
        let rec = ProviderRecord {
            cid,
            provider: PeerId::from_seed(1),
            addrs: crate::messages::no_addrs(),
            endpoint: NodeId(1),
            relay_endpoint: None,
            stored_at: SimTime::ZERO,
        };
        l.on_response(&qs[0].id, vec![], vec![rec.clone(), rec.clone()]);
        l.on_response(&qs[1].id, vec![], vec![rec]);
        assert_eq!(l.providers_so_far(), 1);
    }

    #[test]
    fn empty_seed_lookup_finishes_immediately() {
        let mut l = Lookup::new(
            Key256::from_seed(1),
            None,
            LookupKind::GetClosestPeers,
            cfg(),
            vec![],
        );
        assert!(l.next_queries().is_empty());
        // No candidates, nothing in flight ⇒ done.
        l.on_failure(&PeerId::from_seed(99)); // unsolicited, ignored
        assert!(l.is_done() || l.next_queries().is_empty());
    }
}

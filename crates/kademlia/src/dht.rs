//! Per-node DHT engine: routing table + provider store + active lookups.
//!
//! Still sans-io — the `ipfs-node` crate owns transport, request IDs and
//! timers and drives this state machine. The server/client distinction
//! matches §2 of the paper: clients use the DHT purely as a service and
//! never answer requests, so they are invisible to crawls; servers form the
//! network's core.

use crate::lookup::{Lookup, LookupConfig, LookupKind, LookupResult};
use crate::messages::{DhtRequest, DhtResponse, PeerInfo, ProviderRecord};
use crate::providers::{ProviderStore, ProviderStoreConfig};
use crate::table::{Observed, RoutingTable, TableConfig};
use ipfs_types::FxHashMap as HashMap;
use ipfs_types::{Cid, Key256, PeerId};
use simnet::SimTime;

/// Server or client mode (§2 "DHT").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtMode {
    /// Publicly reachable; serves requests; appears in routing tables.
    Server,
    /// NAT-ed fringe; consumes the DHT as a service only.
    Client,
}

/// DHT engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct DhtConfig {
    /// Operating mode.
    pub mode: DhtMode,
    /// Routing-table parameters.
    pub table: TableConfig,
    /// Lookup parameters.
    pub lookup: LookupConfig,
    /// Provider-store parameters.
    pub providers: ProviderStoreConfig,
}

impl DhtConfig {
    /// Standard server config.
    pub fn server() -> DhtConfig {
        DhtConfig {
            mode: DhtMode::Server,
            table: TableConfig::default(),
            lookup: LookupConfig::default(),
            providers: ProviderStoreConfig::default(),
        }
    }

    /// Standard client config.
    pub fn client() -> DhtConfig {
        DhtConfig {
            mode: DhtMode::Client,
            ..DhtConfig::server()
        }
    }
}

/// The DHT state machine of one node.
#[derive(Clone, Debug)]
pub struct Dht {
    local: PeerId,
    cfg: DhtConfig,
    table: RoutingTable,
    providers: ProviderStore,
    lookups: HashMap<u64, Lookup>,
    next_lookup: u64,
}

impl Dht {
    /// Fresh engine for `local`.
    pub fn new(local: PeerId, cfg: DhtConfig) -> Dht {
        Dht {
            local,
            table: RoutingTable::new(local.key(), cfg.table),
            providers: ProviderStore::new(cfg.providers),
            lookups: HashMap::default(),
            next_lookup: 1,
            cfg,
        }
    }

    /// Whether we serve DHT requests.
    pub fn is_server(&self) -> bool {
        self.cfg.mode == DhtMode::Server
    }

    /// Current mode.
    pub fn mode(&self) -> DhtMode {
        self.cfg.mode
    }

    /// Switch mode (nodes becoming public/NAT-ed across sessions).
    pub fn set_mode(&mut self, mode: DhtMode) {
        self.cfg.mode = mode;
    }

    /// The routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Mutable routing table (the owner's `connected` column, pruning).
    pub fn table_mut(&mut self) -> &mut RoutingTable {
        &mut self.table
    }

    /// The provider store.
    pub fn providers(&self) -> &ProviderStore {
        &self.providers
    }

    /// Mutable provider store.
    pub fn providers_mut(&mut self) -> &mut ProviderStore {
        &mut self.providers
    }

    /// Note that we heard from `info` (connection setup, any RPC). Only DHT
    /// *servers* enter the routing table. Clones only when the table entry
    /// is new or its contact info changed. Returns whether the table
    /// *created* an entry: new entries start with `connected` unset, and
    /// the caller owns that fact (see [`crate::table`]).
    pub fn observe_peer(&mut self, info: &PeerInfo, is_server: bool, now: SimTime) -> bool {
        is_server && info.id != self.local && self.table.observe(info, now) == Observed::Created
    }

    /// Serve an incoming request. The response is `None` when none is due
    /// (client mode, or `AddProvider` which has no reply); the flag is
    /// [`Self::observe_peer`]'s for the sender.
    pub fn handle_request(
        &mut self,
        now: SimTime,
        sender: &PeerInfo,
        sender_is_server: bool,
        req: &DhtRequest,
    ) -> (Option<DhtResponse>, bool) {
        if self.cfg.mode == DhtMode::Client {
            return (None, false);
        }
        let created = self.observe_peer(sender, sender_is_server, now);
        let k = self.cfg.lookup.k;
        let response = match req {
            DhtRequest::Ping => Some(DhtResponse::Pong),
            DhtRequest::FindNode { target } => Some(DhtResponse::Nodes {
                closer: self.table.closest_excluding(target, k, &sender.id),
            }),
            DhtRequest::GetProviders { cid } => {
                let providers = self.providers.get(cid, now);
                let closer = self.table.closest_excluding(&cid.dht_key(), k, &sender.id);
                Some(DhtResponse::Providers { providers, closer })
            }
            DhtRequest::AddProvider { record } => {
                // Only accept records naming the sender (anti-spoofing rule
                // of the real implementation).
                if record.provider == sender.id {
                    self.providers.add(record.clone(), now);
                }
                None
            }
        };
        (response, created)
    }

    /// Begin an iterative lookup seeded from the routing table. Returns the
    /// lookup handle.
    pub fn start_lookup(&mut self, target: Key256, cid: Option<Cid>, kind: LookupKind) -> u64 {
        let id = self.next_lookup;
        self.next_lookup += 1;
        let seeds = self.table.closest(&target, self.cfg.lookup.k);
        let lookup = Lookup::new(target, cid, kind, self.cfg.lookup, seeds);
        self.lookups.insert(id, lookup);
        id
    }

    /// Peers the lookup wants queried now (marks them in-flight).
    pub fn lookup_next_queries(&mut self, id: u64) -> Vec<PeerInfo> {
        self.lookups
            .get_mut(&id)
            .map(|l| l.next_queries())
            .unwrap_or_default()
    }

    /// Feed a response into a lookup; the responder also feeds the routing
    /// table (responders are servers by construction). Returns
    /// [`Self::observe_peer`]'s flag for `from`.
    pub fn lookup_response(
        &mut self,
        id: u64,
        from: &PeerInfo,
        closer: Vec<PeerInfo>,
        providers: Vec<ProviderRecord>,
        now: SimTime,
    ) -> bool {
        let created = self.observe_peer(from, true, now);
        if let Some(l) = self.lookups.get_mut(&id) {
            l.on_response(&from.id, closer, providers);
        }
        created
    }

    /// Feed a failure into a lookup and drop the peer from the table.
    pub fn lookup_failure(&mut self, id: u64, from: &PeerId) {
        self.table.remove(from);
        if let Some(l) = self.lookups.get_mut(&id) {
            l.on_failure(from);
        }
    }

    /// If the lookup is finished, remove and return its result.
    pub fn lookup_take_result(&mut self, id: u64) -> Option<LookupResult> {
        if self.lookups.get(&id)?.is_done() {
            let result = self.lookups.remove(&id).map(|l| l.into_result());
            if let Some(r) = &result {
                telemetry::count(telemetry::Counter::LookupsCompleted, 1);
                telemetry::count(telemetry::Counter::LookupPeerFailures, r.failures as u64);
                telemetry::observe(telemetry::Metric::LookupContacted, r.contacted as u64);
            }
            result
        } else {
            None
        }
    }

    /// Whether a lookup is still registered.
    pub fn lookup_active(&self, id: u64) -> bool {
        self.lookups.contains_key(&id)
    }

    /// Target, CID and kind of an active lookup (for building wire requests).
    pub fn lookup_meta(&self, id: u64) -> Option<(Key256, Option<Cid>, LookupKind)> {
        self.lookups.get(&id).map(|l| (l.target, l.cid, l.kind()))
    }

    /// Keys to look up for periodic bucket refresh.
    pub fn refresh_targets(&self) -> Vec<Key256> {
        self.table.refresh_targets()
    }

    /// Drop the in-memory routing table and all lookups (process restart).
    /// The provider store survives: it is backed by the on-disk datastore in
    /// the real implementation.
    pub fn reset_table(&mut self) {
        self.table = RoutingTable::new(self.local.key(), self.cfg.table);
        self.lookups.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn info(seed: u64) -> PeerInfo {
        PeerInfo {
            id: PeerId::from_seed(seed),
            addrs: crate::messages::no_addrs(),
            endpoint: NodeId(seed as u32),
        }
    }

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

    #[test]
    fn server_answers_client_does_not() {
        let mut server = Dht::new(PeerId::from_seed(0), DhtConfig::server());
        let mut client = Dht::new(PeerId::from_seed(1), DhtConfig::client());
        let req = DhtRequest::Ping;
        assert!(matches!(
            server.handle_request(SimTime::ZERO, &info(2), true, &req),
            (Some(DhtResponse::Pong), true)
        ));
        assert_eq!(
            client.handle_request(SimTime::ZERO, &info(2), true, &req),
            (None, false)
        );
    }

    #[test]
    fn only_server_senders_enter_table() {
        let mut d = Dht::new(PeerId::from_seed(0), DhtConfig::server());
        d.handle_request(SimTime::ZERO, &info(1), true, &DhtRequest::Ping);
        d.handle_request(SimTime::ZERO, &info(2), false, &DhtRequest::Ping);
        assert!(d.table().get(&PeerId::from_seed(1)).is_some());
        assert!(d.table().get(&PeerId::from_seed(2)).is_none());
    }

    #[test]
    fn find_node_returns_closest_without_sender() {
        let mut d = Dht::new(PeerId::from_seed(0), DhtConfig::server());
        for s in 1..100u64 {
            d.observe_peer(&info(s), true, SimTime::ZERO);
        }
        let sender = info(5);
        let target = PeerId::from_seed(5).key();
        let (Some(DhtResponse::Nodes { closer }), false) = d.handle_request(
            SimTime::ZERO,
            &sender,
            true,
            &DhtRequest::FindNode { target },
        ) else {
            panic!("expected Nodes");
        };
        assert!(closer.len() <= 20);
        assert!(
            !closer.iter().any(|p| p.id == sender.id),
            "sender echoed back"
        );
    }

    #[test]
    fn add_provider_spoofing_rejected() {
        let mut d = Dht::new(PeerId::from_seed(0), DhtConfig::server());
        let cid = Cid::from_seed(1);
        // Sender 5 claims a record for provider 9: rejected.
        d.handle_request(
            SimTime::ZERO,
            &info(5),
            true,
            &DhtRequest::AddProvider {
                record: rec(cid, 9),
            },
        );
        assert!(!d.providers().has_provider(&cid, &PeerId::from_seed(9)));
        // Sender 5 advertises itself: accepted.
        d.handle_request(
            SimTime::ZERO,
            &info(5),
            true,
            &DhtRequest::AddProvider {
                record: rec(cid, 5),
            },
        );
        assert!(d.providers().has_provider(&cid, &PeerId::from_seed(5)));
    }

    #[test]
    fn get_providers_returns_records_and_closer() {
        let mut d = Dht::new(PeerId::from_seed(0), DhtConfig::server());
        for s in 1..50u64 {
            d.observe_peer(&info(s), true, SimTime::ZERO);
        }
        let cid = Cid::from_seed(1);
        d.handle_request(
            SimTime::ZERO,
            &info(7),
            true,
            &DhtRequest::AddProvider {
                record: rec(cid, 7),
            },
        );
        let (Some(DhtResponse::Providers { providers, closer }), _) = d.handle_request(
            SimTime::ZERO,
            &info(3),
            true,
            &DhtRequest::GetProviders { cid },
        ) else {
            panic!("expected Providers");
        };
        assert_eq!(providers.len(), 1);
        assert!(!closer.is_empty());
    }

    #[test]
    fn lookup_lifecycle() {
        let mut d = Dht::new(PeerId::from_seed(0), DhtConfig::server());
        for s in 1..30u64 {
            d.observe_peer(&info(s), true, SimTime::ZERO);
        }
        let target = Key256::from_seed(99);
        let id = d.start_lookup(target, None, LookupKind::GetClosestPeers);
        assert!(d.lookup_active(id));
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 100);
            let qs = d.lookup_next_queries(id);
            if qs.is_empty() {
                break;
            }
            for q in qs {
                d.lookup_response(id, &q, vec![], vec![], SimTime::ZERO);
            }
            if d.lookup_take_result(id).is_some() {
                break;
            }
        }
        assert!(!d.lookup_active(id));
    }

    #[test]
    fn failed_peers_leave_table() {
        let mut d = Dht::new(PeerId::from_seed(0), DhtConfig::server());
        d.observe_peer(&info(1), true, SimTime::ZERO);
        let id = d.start_lookup(Key256::from_seed(5), None, LookupKind::GetClosestPeers);
        d.lookup_failure(id, &PeerId::from_seed(1));
        assert!(d.table().get(&PeerId::from_seed(1)).is_none());
    }
}

//! Per-node DHT engine, the serving half: routing table + provider store +
//! mode, and the answer to every incoming request.
//!
//! Still sans-io — the `ipfs-node` crate owns transport, request IDs,
//! timers and its walks: [`Dht::start_lookup`] hands out a [`Lookup`]
//! seeded from the table, and the caller keeps and drives it. The
//! server/client distinction matches §2 of the paper: clients use the
//! DHT purely as a service and never answer requests, so they are invisible
//! to crawls; servers form the network's core.

use crate::lookup::{Lookup, LookupConfig, LookupKind};
use crate::messages::{DhtRequest, DhtResponse, PeerInfo};
use crate::providers::{ProviderStore, ProviderStoreConfig};
use crate::table::{Observed, RoutingTable, TableConfig};
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
}

impl Dht {
    /// Fresh engine for `local`.
    pub fn new(local: PeerId, cfg: DhtConfig) -> Dht {
        Dht {
            local,
            table: RoutingTable::new(local.key(), cfg.table),
            providers: ProviderStore::new(cfg.providers),
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

    /// A new iterative lookup toward `target`, seeded with the table's `k`
    /// closest peers and run with this DHT's [`LookupConfig`]. The caller
    /// owns the walk: it sends the queries, feeds back answers and
    /// failures, and takes the result.
    pub fn start_lookup(&self, target: Key256, cid: Option<Cid>, kind: LookupKind) -> Lookup {
        let seeds = self.table.closest(&target, self.cfg.lookup.k);
        Lookup::new(target, cid, kind, self.cfg.lookup, seeds)
    }

    /// Keys to look up for periodic bucket refresh.
    pub fn refresh_targets(&self) -> Vec<Key256> {
        self.table.refresh_targets()
    }

    /// Drop the in-memory routing table (process restart). The provider
    /// store survives: it is backed by the on-disk datastore in the real
    /// implementation.
    pub fn reset_table(&mut self) {
        self.table = RoutingTable::new(self.local.key(), self.cfg.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ProviderRecord;
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
        let mut lookup = d.start_lookup(target, None, LookupKind::GetClosestPeers);
        let mut guard = 0;
        while !lookup.is_done() {
            guard += 1;
            assert!(guard < 100);
            let qs = lookup.next_queries();
            assert!(!qs.is_empty(), "an unfinished walk with nothing in flight");
            for q in qs {
                lookup.on_response(&q.id, vec![], vec![]);
            }
        }
        // Every seed answered and named nobody new: the result is the
        // table's own k closest.
        let result = lookup.into_result();
        let ids = |peers: &[PeerInfo]| peers.iter().map(|p| p.id).collect::<Vec<_>>();
        assert_eq!(ids(&result.closest), ids(&d.table().closest(&target, 20)));
        assert_eq!((result.contacted, result.failures), (20, 0));
    }
}

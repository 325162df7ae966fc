//! The Hydra-booster actor (§3 "Hydra-booster logs").
//!
//! One host machine runs many virtual peer IDs ("heads") that act as DHT
//! servers sharing a routing table and a provider-record cache: one
//! [`kademlia::Dht`], keyed on the first head, which answers every request
//! the way go-libp2p-kad-dht's own handlers answer for hydra-booster. What
//! makes a Hydra a Hydra sits around it: the paper's modified build logs
//! every incoming request (timestamp, sender peer ID and IP, request class,
//! target key), and cache misses on `GetProviders` trigger a *proactive
//! lookup* for the requested CID — the amplification behaviour the paper
//! identifies as a DoS vector and as the reason Hydras dominate download
//! traffic.

use ipfs_node::WireMsg;
use ipfs_types::FxHashMap as HashMap;
use ipfs_types::{Cid, Key256, PeerId};
use kademlia::{
    Dht, DhtConfig, DhtMessage, DhtRequest, DhtResponse, Lookup, LookupKind, PeerInfo,
    ProviderStoreConfig, TrafficClass, RPC_TIMEOUT,
};
use simnet::{Ctx, Dur, NodeId};
use std::net::SocketAddrV4;
use std::sync::Arc;

/// One Hydra log line.
#[derive(Clone, Debug)]
pub struct HydraLogEntry {
    /// Virtual timestamp (nanoseconds).
    pub ts_ns: u64,
    /// Sender identity.
    pub peer: PeerId,
    /// Sender address observed on the connection.
    pub addr: SocketAddrV4,
    /// Paper's traffic classification.
    pub class: TrafficClass,
    /// Target key of the request (CID key or node key).
    pub target: Option<Key256>,
    /// CID for content requests.
    pub cid: Option<Cid>,
}

/// Cap on concurrently running proactive lookups.
pub const MAX_PROACTIVE: usize = 64;

/// The Hydra-booster actor.
#[derive(Clone)]
pub struct Hydra {
    /// Virtual peer IDs.
    pub heads: Vec<PeerId>,
    /// Agent string every identify shares.
    agent: Arc<str>,
    /// The first head's info, the sender of every query: built on first
    /// use (the endpoint comes from the context) and shared from then on.
    me: Option<Arc<PeerInfo>>,
    /// The heads' shared routing table and provider-record cache, keyed
    /// on the first head.
    dht: Dht,
    lookups: HashMap<u64, Lookup>,
    pending: HashMap<u64, (u64, PeerInfo)>,
    dial_queue: HashMap<NodeId, Vec<(u64, PeerInfo)>>,
    next_id: u64,
    bootstrap: Vec<(PeerId, NodeId)>,
    /// The request log.
    pub log: Vec<HydraLogEntry>,
}

impl Hydra {
    /// Build a hydra host with [`netgen::HYDRA_HEADS`] virtual identities,
    /// seeded `seed_base`, `seed_base + 1`, ….
    pub fn new(seed_base: u64, bootstrap: Vec<(PeerId, NodeId)>) -> Hydra {
        let heads: Vec<PeerId> = (0..netgen::HYDRA_HEADS)
            .map(|i| ipfs_types::Keypair::from_seed(seed_base + i as u64).peer_id())
            .collect();
        let cfg = DhtConfig {
            providers: ProviderStoreConfig {
                ttl: Dur::from_hours(24),
                max_per_key: 64,
            },
            ..DhtConfig::server()
        };
        Hydra {
            dht: Dht::new(heads[0], cfg),
            heads,
            agent: "hydra-booster/0.7".into(),
            me: None,
            lookups: HashMap::default(),
            pending: HashMap::default(),
            dial_queue: HashMap::default(),
            next_id: 1,
            bootstrap,
            log: Vec::new(),
        }
    }

    /// Actor start: dial bootstrap peers so the table fills.
    pub fn handle_start<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        for (peer, ep) in self.bootstrap.clone() {
            self.dht.table_mut().try_insert(
                PeerInfo {
                    id: peer,
                    addrs: kademlia::no_addrs(),
                    endpoint: ep,
                },
                ctx.now(),
            );
            ctx.dial(ep);
        }
    }

    fn my_info<C: std::fmt::Debug>(&mut self, ctx: &Ctx<'_, WireMsg, C>) -> Arc<PeerInfo> {
        let id = self.heads[0];
        self.me
            .get_or_insert_with(|| {
                Arc::new(PeerInfo {
                    id,
                    addrs: kademlia::no_addrs(),
                    endpoint: ctx.me(),
                })
            })
            .clone()
    }

    /// Inbound connection: identify ourselves (first head's identity — the
    /// heads share the host connection, as on the real deployment's VM).
    pub fn handle_inbound<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
    ) {
        ctx.send(
            from,
            WireMsg::Identify {
                id: self.heads[0],
                addrs: kademlia::no_addrs(),
                dht_server: true,
                agent: self.agent.clone(),
            },
        );
    }

    /// Dial results feed outstanding lookups (proactive cache fill).
    pub fn handle_dial_result<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        ok: bool,
    ) {
        if ok {
            self.handle_inbound(ctx, target);
        }
        // Flush lookup queries that were waiting on this dial.
        for (lookup_id, info) in self.dial_queue.remove(&target).unwrap_or_default() {
            if ok {
                self.send_query(ctx, lookup_id, &info);
            } else {
                self.query_failed(ctx, lookup_id, &info.id);
            }
        }
    }

    /// Incoming wire message.
    pub fn handle_message<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        msg: WireMsg,
    ) {
        let WireMsg::Dht(m) = msg else {
            return; // hydra speaks only the DHT
        };
        match m {
            DhtMessage::Request {
                req_id,
                sender,
                sender_is_server,
                req,
            } => self.serve_request(ctx, from, req_id, &sender, sender_is_server, req.into()),
            DhtMessage::Response { req_id, resp } => {
                let Some((lookup_id, peer)) = self.pending.remove(&req_id) else {
                    return;
                };
                let (closer, providers) = resp.into_parts();
                // Responders are servers by construction.
                self.dht.observe_peer(&peer, true, ctx.now());
                if let Some(l) = self.lookups.get_mut(&lookup_id) {
                    l.on_response(&peer.id, closer, providers);
                }
                self.drive_lookup(ctx, lookup_id);
            }
        }
    }

    fn serve_request<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        req_id: u64,
        sender: &PeerInfo,
        sender_is_server: bool,
        req: DhtRequest,
    ) {
        let addr = ctx
            .addr_of(from)
            .unwrap_or_else(|| SocketAddrV4::new([0, 0, 0, 0].into(), 0));
        let (cid, target) = match &req {
            DhtRequest::GetProviders { cid } => (Some(*cid), Some(cid.dht_key())),
            DhtRequest::AddProvider { record } => (Some(record.cid), Some(record.cid.dht_key())),
            DhtRequest::FindNode { target } => (None, Some(*target)),
            DhtRequest::Ping => (None, None),
        };
        self.log.push(HydraLogEntry {
            ts_ns: ctx.now().0,
            peer: sender.id,
            addr,
            class: req.traffic_class(),
            target,
            cid,
        });
        let (resp, _) = self
            .dht
            .handle_request(ctx.now(), sender, sender_is_server, &req);
        // A miss starts a proactive cache fill: the amplification behaviour.
        if let (Some(DhtResponse::Providers { providers, .. }), Some(cid)) = (&resp, cid) {
            if providers.is_empty() && self.lookups.len() < MAX_PROACTIVE {
                self.start_proactive(ctx, cid);
            }
        }
        if let Some(resp) = resp {
            ctx.send(from, WireMsg::Dht(DhtMessage::Response { req_id, resp }));
        }
    }

    fn start_proactive<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, cid: Cid) {
        if self.dht.table().is_empty() {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let kind = LookupKind::FindProviders { exhaustive: false };
        let lookup = self.dht.start_lookup(cid.dht_key(), Some(cid), kind);
        self.lookups.insert(id, lookup);
        self.drive_lookup(ctx, id);
    }

    fn drive_lookup<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, id: u64) {
        let Some(l) = self.lookups.get_mut(&id) else {
            return;
        };
        let queries = l.next_queries();
        for info in queries {
            if ctx.is_connected(info.endpoint) {
                self.send_query(ctx, id, &info);
            } else {
                let q = self.dial_queue.entry(info.endpoint).or_default();
                let first = q.is_empty();
                q.push((id, info.clone()));
                if first {
                    ctx.dial(info.endpoint);
                }
            }
        }
        let done = self.lookups.get(&id).map(|l| l.is_done()).unwrap_or(false);
        if done {
            if let Some(l) = self.lookups.remove(&id) {
                let result = l.into_result();
                let now = ctx.now();
                for rec in result.providers {
                    self.dht.providers_mut().add(rec, now);
                }
            }
        }
    }

    fn send_query<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        lookup_id: u64,
        info: &PeerInfo,
    ) {
        let Some(l) = self.lookups.get(&lookup_id) else {
            return;
        };
        let req = l.request();
        let req_id = self.next_id;
        self.next_id += 1;
        let msg = DhtMessage::request(req_id, self.my_info(ctx), true, req);
        if ctx.send(info.endpoint, WireMsg::Dht(msg)) {
            self.pending.insert(req_id, (lookup_id, info.clone()));
            ctx.set_timer(RPC_TIMEOUT, req_id);
        } else {
            self.query_failed(ctx, lookup_id, &info.id);
        }
    }

    /// `peer` could not be reached or did not answer: it leaves the routing
    /// table, and the walk moves on.
    fn query_failed<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        lookup_id: u64,
        peer: &PeerId,
    ) {
        self.dht.table_mut().remove(peer);
        if let Some(l) = self.lookups.get_mut(&lookup_id) {
            l.on_failure(peer);
        }
        self.drive_lookup(ctx, lookup_id);
    }

    /// Timer: proactive-lookup RPC timeout (token = req_id).
    pub fn handle_timer<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, token: u64) {
        if let Some((lookup_id, peer)) = self.pending.remove(&token) {
            self.query_failed(ctx, lookup_id, &peer.id);
        }
    }
}

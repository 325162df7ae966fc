//! The composed IPFS node: DHT + Bitswap + blockstore + connection manager +
//! circuit relay + gateway behaviour + reprovider.
//!
//! One [`IpfsNode`] is the state of one network participant. Its methods are
//! callback handlers matching `simnet::Actor`, but generic over the harness
//! command type so higher layers can wrap nodes into richer actor enums
//! (monitors, Hydra boosters and crawlers live in `tcsb-core`).
//!
//! This file holds the configuration, the struct with its `Session`, the
//! lifecycle and the three routers (command, message, timer); what they
//! route to is one `impl IpfsNode` block per service in `conn`, `dht` and
//! `fetch`.

use crate::conn::{PeerConns, PostDial};
use crate::dht::{Op, PendingRpc, Walk};
use crate::wire::{BitswapLogEntry, NodeCmd, NodeEvent, WireMsg};
use bitswap::{Bitswap, Block, MemoryBlockstore};
use ipfs_types::{Cid, Keypair, Multiaddr, PeerId};
use ipfs_types::{FxHashMap as HashMap, FxHashSet as HashSet};
use kademlia::{AddrList, Dht, DhtConfig, DhtMode, LookupKind, PeerInfo};
use rand::RngExt;
use simnet::{Ctx, Dur, NodeId};
use std::fmt::Debug;
use std::net::SocketAddrV4;
use std::sync::Arc;

/// Timer token kinds (top 4 bits of the token).
pub(crate) mod tok {
    pub const RPC: u64 = 1;
    pub const FETCH_BS: u64 = 2;
    pub const FETCH_ALL: u64 = 3;
    pub const REPROVIDE: u64 = 4;
    pub const CONNMGR: u64 = 5;
    pub const REFRESH: u64 = 6;
    pub const RELAY: u64 = 7;

    pub fn pack(kind: u64, epoch: u8, low: u64) -> u64 {
        (kind << 60) | ((epoch as u64) << 52) | (low & 0xF_FFFF_FFFF_FFFF)
    }

    pub fn unpack(token: u64) -> (u64, u8, u64) {
        (
            token >> 60,
            ((token >> 52) & 0xFF) as u8,
            token & 0xF_FFFF_FFFF_FFFF,
        )
    }
}

/// Node configuration. Defaults mirror the go-ipfs v0.11-era behaviour the
/// paper measured, scaled knobs are overridden by `netgen`.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Identity seed (keypair derivation).
    pub identity_seed: u64,
    /// Force DHT server (`Some(true)`), client (`Some(false)`), or decide
    /// from reachability like the real software (`None`).
    pub dht_server: Option<bool>,
    /// Agent string reported via identify (shared: every connection's
    /// identify message and the receiver's peer record hold this one copy).
    pub agent: Arc<str>,
    /// Bootstrap peers `(peer, endpoint)` dialled on every start.
    pub bootstrap: Vec<(PeerId, NodeId)>,
    /// Connection-manager low watermark (trim target).
    pub conn_low: usize,
    /// Connection-manager high watermark (trim trigger).
    pub conn_high: usize,
    /// Proactively dial random table peers below this connection count
    /// (drives Bitswap broadcast fan-out).
    pub conn_floor: usize,
    /// Never trim connections (the paper's monitoring nodes).
    pub unbounded_conns: bool,
    /// Cap on proactive dials per connection-manager tick (monitors use a
    /// high value to reach the whole network quickly).
    pub max_dials_per_tick: usize,
    /// Become a provider for every fetched block (IPFS default).
    pub provide_on_fetch: bool,
    /// Reprovide interval (12 h in go-ipfs; `Dur::ZERO` disables).
    pub reprovide_interval: Dur,
    /// CIDs re-advertised per reprovide burst.
    pub reprovide_batch: usize,
    /// Bucket-refresh cadence (`Dur::ZERO` disables).
    pub refresh_interval: Dur,
    /// Routing-table usefulness timeout: entries silent for longer are
    /// evicted on the connection-manager tick (`Dur::ZERO` disables).
    pub table_entry_ttl: Dur,
    /// Connection-manager cadence.
    pub connmgr_interval: Dur,
    /// Gateway overlay node (serves `HttpRequest`).
    pub is_gateway: bool,
    /// Log incoming Bitswap wantlists (monitor behaviour).
    pub log_bitswap: bool,
    /// Record [`NodeEvent`]s (tests/tools; off for bulk population).
    pub record_events: bool,
    /// Extra addresses announced besides the primary (multihoming).
    pub extra_addrs: Vec<SocketAddrV4>,
}

impl NodeConfig {
    /// A regular node with the given identity seed.
    pub fn regular(identity_seed: u64) -> NodeConfig {
        NodeConfig {
            identity_seed,
            dht_server: None,
            agent: "go-ipfs/0.11".into(),
            bootstrap: Vec::new(),
            conn_low: 600,
            conn_high: 900,
            conn_floor: 0,
            unbounded_conns: false,
            max_dials_per_tick: 8,
            provide_on_fetch: true,
            reprovide_interval: Dur::from_hours(12),
            reprovide_batch: 16,
            refresh_interval: Dur::from_hours(2),
            table_entry_ttl: Dur::from_hours(2),
            connmgr_interval: Dur::from_mins(5),
            is_gateway: false,
            log_bitswap: false,
            record_events: false,
            extra_addrs: Vec::new(),
        }
    }
}

/// Connection-bound state: everything that dies with the session.
/// [`IpfsNode::handle_start`] replaces it wholesale, so a field added here
/// is reset on restart without anybody remembering to.
#[derive(Clone, Debug, Default)]
pub(crate) struct Session {
    /// Open connections and who each identified as (`None` until it does).
    pub(crate) peers: HashMap<NodeId, Option<PeerId>>,
    /// The identified neighbours, `peers.values().flatten()` sorted — what
    /// phase 1 of a fetch broadcasts to. Built by the session's first fetch
    /// and kept current from then on by `neighbor_gained` /
    /// `neighbor_lost`; `None` before, so a node that never fetches (the
    /// monitor and its thousands of connections above all) pays nothing
    /// for a list only fetches read.
    pub(crate) neighbors: Option<Vec<PeerId>>,
    /// Where sends to a peer id go, and how many connections are
    /// identified as it. Every identified id has an entry; it is dropped
    /// when the id's last connection closes.
    pub(crate) conn_by_peer: HashMap<PeerId, PeerConns>,
    /// Actions waiting on a dial under way, by endpoint.
    pub(crate) dialing: HashMap<NodeId, Vec<PostDial>>,
    /// Walk queries awaiting an answer, by request id.
    pub(crate) pending: HashMap<u64, PendingRpc>,
    /// Operations awaiting a walk's result (or, for a fetch, its end), by
    /// op id.
    pub(crate) ops: HashMap<u64, Op>,
    /// The node's DHT walks in flight, by walk id: one entry holds the
    /// lookup, the op it serves and its start time.
    pub(crate) walks: HashMap<u64, Walk>,
    /// The next walk id. Walk ids name no event, message or timer token,
    /// so they may start over with each session.
    pub(crate) next_walk: u64,
    pub(crate) fetch_by_cid: HashMap<Cid, u64>,
    pub(crate) relay: Option<(PeerId, NodeId, SocketAddrV4)>,
    pub(crate) relay_clients: HashSet<NodeId>,
    pub(crate) bootstrapped: bool,
    /// Our own info, the sender of every outgoing DHT message; identifies
    /// and provider records carry its addresses. Built once per session
    /// and shared from then on; invalidated on relay changes (dialability
    /// is fixed when the node is added).
    pub(crate) me: Option<Arc<PeerInfo>>,
    pub(crate) bitswap: Bitswap,
}

/// The state of one simulated IPFS node. `Clone` snapshots the full node
/// (DHT, Bitswap, blockstore, sessions, logs) for engine forks.
#[derive(Clone)]
pub struct IpfsNode {
    /// Static configuration.
    pub cfg: NodeConfig,
    keypair: Keypair,
    pub(crate) id: PeerId,
    pub(crate) dht: Dht,
    pub(crate) store: MemoryBlockstore,
    pub(crate) session: Session,
    /// Op ids and request ids, one counter for the node's whole life.
    pub(crate) next_req: u64,
    /// Session number, stamped into timer tokens.
    pub(crate) epoch: u8,

    // --- observability ---
    /// Recorded events (when `record_events`).
    pub events: Vec<NodeEvent>,
    /// Bitswap monitor log (when `log_bitswap`).
    pub bitswap_log: Vec<BitswapLogEntry>,
}

impl IpfsNode {
    /// Build a node from config.
    pub fn new(cfg: NodeConfig) -> IpfsNode {
        let keypair = Keypair::from_seed(cfg.identity_seed);
        let id = keypair.peer_id();
        IpfsNode {
            keypair,
            id,
            dht: Dht::new(id, DhtConfig::server()),
            store: MemoryBlockstore::new(),
            session: Session::default(),
            next_req: 1,
            epoch: 0,
            events: Vec::new(),
            bitswap_log: Vec::new(),
            cfg,
        }
    }

    /// Our peer ID.
    pub fn peer_id(&self) -> PeerId {
        self.id
    }

    /// The keypair (tests).
    pub fn keypair(&self) -> &Keypair {
        &self.keypair
    }

    /// DHT accessor.
    pub fn dht(&self) -> &Dht {
        &self.dht
    }

    /// Blockstore accessor.
    pub fn store(&self) -> &MemoryBlockstore {
        &self.store
    }

    /// Bitswap accessor.
    pub fn bitswap(&self) -> &Bitswap {
        &self.session.bitswap
    }

    /// Our current relay, if NAT-ed and reserved.
    pub fn relay(&self) -> Option<PeerId> {
        self.session.relay.as_ref().map(|(p, _, _)| *p)
    }

    /// Number of DHT walks in flight.
    pub fn walks_in_flight(&self) -> usize {
        self.session.walks.len()
    }

    pub(crate) fn record(&mut self, ev: NodeEvent) {
        if self.cfg.record_events {
            self.events.push(ev);
        }
    }

    /// The addresses we announce: direct when dialable, circuit via relay
    /// when NAT-ed, plus configured extras.
    pub fn advertised_addrs<C: Debug>(&self, ctx: &Ctx<'_, WireMsg, C>) -> Vec<Multiaddr> {
        let mut out = Vec::new();
        let my = ctx.my_addr();
        if ctx.i_am_dialable() {
            out.push(Multiaddr::ip4_tcp_p2p(*my.ip(), my.port(), self.id));
            for extra in &self.cfg.extra_addrs {
                out.push(Multiaddr::ip4_tcp_p2p(*extra.ip(), extra.port(), self.id));
            }
        } else if let Some((relay_id, _, relay_addr)) = &self.session.relay {
            out.push(Multiaddr::circuit(
                *relay_addr.ip(),
                relay_addr.port(),
                *relay_id,
                self.id,
            ));
        }
        out
    }

    /// Shared advertised-address list (built once per session).
    pub(crate) fn adv_addrs<C: Debug>(&mut self, ctx: &Ctx<'_, WireMsg, C>) -> AddrList {
        self.my_info(ctx).addrs.clone()
    }

    /// Our shared info, the sender of every DHT message (built once per
    /// session).
    pub(crate) fn my_info<C: Debug>(&mut self, ctx: &Ctx<'_, WireMsg, C>) -> Arc<PeerInfo> {
        if let Some(me) = &self.session.me {
            return me.clone();
        }
        let me = Arc::new(PeerInfo {
            id: self.id,
            addrs: self.advertised_addrs(ctx).into(),
            endpoint: ctx.me(),
        });
        self.session.me = Some(me.clone());
        me
    }

    pub(crate) fn set_timer<C: Debug>(
        &self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        delay: Dur,
        kind: u64,
        low: u64,
    ) {
        ctx.set_timer(delay, tok::pack(kind, self.epoch, low));
    }

    /// `Actor::on_start`. Connection-bound state dies with the session;
    /// the blockstore, published content included, persists (datastore on
    /// disk).
    pub fn handle_start<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        self.epoch = self.epoch.wrapping_add(1);
        // Reachability decides server/client mode unless forced.
        let server = self.cfg.dht_server.unwrap_or_else(|| ctx.i_am_dialable());
        self.dht.set_mode(if server {
            DhtMode::Server
        } else {
            DhtMode::Client
        });
        // Fresh session: routing table, walks and connection state are
        // in-memory.
        self.dht.reset_table();
        self.session = Session::default();

        if !self.cfg.bootstrap.is_empty() {
            let seeds = self.cfg.bootstrap.clone();
            self.do_bootstrap(ctx, &seeds);
        }
        // Periodic work, each first firing jittered over one interval.
        let cfg = &self.cfg;
        for (interval, base, kind) in [
            (cfg.connmgr_interval, cfg.connmgr_interval, tok::CONNMGR),
            (cfg.refresh_interval, cfg.refresh_interval, tok::REFRESH),
            (cfg.reprovide_interval, Dur::ZERO, tok::REPROVIDE),
        ] {
            if interval > Dur::ZERO {
                let jitter = Dur(ctx.rng().random_range(0..=interval.0));
                self.set_timer(ctx, base + jitter, kind, 0);
            }
        }
    }

    /// Whether the session is exactly what `Session::default` builds —
    /// compared through `Debug`, so a field added later is covered.
    #[cfg(any(test, debug_assertions))]
    pub fn session_is_fresh(&self) -> bool {
        format!("{:?}", self.session) == format!("{:?}", Session::default())
    }

    fn adopt_identity<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, seed: u64) {
        let peers: Vec<NodeId> = ctx.connections().collect();
        for peer in peers {
            ctx.disconnect(peer);
        }
        self.cfg.identity_seed = seed;
        self.keypair = Keypair::from_seed(seed);
        self.id = self.keypair.peer_id();
        self.dht = Dht::new(self.id, DhtConfig::server());
        self.store = MemoryBlockstore::new();
        // Simulate a process restart with the new identity.
        self.handle_start(ctx);
    }

    /// Dispatch a harness command.
    pub fn handle_command<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, cmd: NodeCmd) {
        match cmd {
            NodeCmd::Bootstrap { seeds } => {
                self.cfg.bootstrap = seeds.clone();
                self.do_bootstrap(ctx, &seeds);
            }
            NodeCmd::Publish { cid, size } => {
                self.store.put(Block { cid, size });
                self.start_provide(ctx, cid);
            }
            NodeCmd::Provide { cid } => self.start_provide(ctx, cid),
            NodeCmd::Fetch { cid } => self.start_fetch(ctx, cid, None),
            NodeCmd::HttpGet { frontend, cid } => {
                let req_id = self.next_req;
                self.next_req += 1;
                self.ensure_dial(
                    ctx,
                    frontend,
                    None,
                    Some(PostDial::HttpRequest { req_id, cid }),
                );
            }
            NodeCmd::AdoptIdentity { seed } => self.adopt_identity(ctx, seed),
            NodeCmd::ResolveProviders { cid, exhaustive } => {
                let op_id = self.next_req;
                self.next_req += 1;
                let started = ctx.now();
                self.session.ops.insert(op_id, Op::Resolve { cid, started });
                let kind = LookupKind::FindProviders { exhaustive };
                self.begin_lookup(ctx, cid.dht_key(), Some(cid), kind, Some(op_id));
            }
        }
    }

    /// `Actor::on_message`.
    pub fn handle_message<C: Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        msg: WireMsg,
    ) {
        match msg {
            WireMsg::Identify {
                id,
                addrs,
                dht_server,
                ..
            } => self.handle_identify(ctx.now(), from, id, addrs, dht_server),
            WireMsg::Dht(m) => self.handle_dht(ctx, from, m),
            WireMsg::Bitswap { from: peer, msg } => self.handle_bitswap(ctx, from, peer, msg),
            WireMsg::RelayReserve { .. } => self.handle_relay_reserve(ctx, from),
            WireMsg::RelayReserveOk { accepted } => self.handle_relay_reply(ctx, from, accepted),
            WireMsg::HttpRequest { req_id, cid } => {
                self.handle_http_request(ctx, from, req_id, cid)
            }
            WireMsg::HttpResponse { .. } => {
                // Plain nodes issue HTTP requests only as HTTP clients; the
                // richer client actor in tcsb-core records outcomes.
            }
        }
    }

    /// `Actor::on_timer`.
    pub fn handle_timer<C: Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, token: u64) {
        let (kind, epoch, low) = tok::unpack(token);
        if epoch != self.epoch {
            return; // stale timer from a previous session
        }
        match kind {
            tok::RPC => {
                if let Some(rpc) = self.session.pending.remove(&low) {
                    self.lookup_peer_failed(ctx, rpc.lookup, &rpc.peer.id);
                }
            }
            tok::FETCH_BS => self.bitswap_phase_expired(ctx, low),
            tok::FETCH_ALL => self.fail_fetch(ctx, low),
            tok::REPROVIDE => self.reprovide_tick(ctx, low as usize),
            tok::CONNMGR => {
                self.connmgr_tick(ctx);
                self.set_timer(ctx, self.cfg.connmgr_interval, tok::CONNMGR, 0);
            }
            tok::REFRESH => {
                self.refresh_tick(ctx);
                self.set_timer(ctx, self.cfg.refresh_interval, tok::REFRESH, 0);
            }
            tok::RELAY if !ctx.i_am_dialable() && self.session.relay.is_none() => {
                self.acquire_relay(ctx);
            }
            _ => {}
        }
    }
}

//! The composed IPFS node: DHT + Bitswap + blockstore + connection manager +
//! circuit relay + gateway behaviour + reprovider.
//!
//! One [`IpfsNode`] is the state of one network participant. Its methods are
//! callback handlers matching `simnet::Actor`, but generic over the harness
//! command type so higher layers can wrap nodes into richer actor enums
//! (monitors, Hydra boosters and crawlers live in `tcsb-core`).

use crate::wire::{BitswapLogEntry, NodeCmd, NodeEvent, WireMsg};
use bitswap::{Bitswap, BitswapMessage, Block, BsOutput, MemoryBlockstore};
use ipfs_types::{Cid, Keypair, Multiaddr, PeerId};
use ipfs_types::{FxHashMap as HashMap, FxHashSet as HashSet};
use kademlia::{
    no_addrs, AddrList, Dht, DhtBody, DhtConfig, DhtMessage, DhtMode, DhtRequest, DhtResponse,
    LookupKind, PeerInfo, ProviderRecord,
};
use rand::seq::SliceRandom;
use rand::RngExt;
use simnet::{Ctx, Dur, NodeId, SimTime};
use std::net::SocketAddrV4;
use std::sync::Arc;

/// Timer token kinds (top 4 bits of the token).
mod tok {
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

/// Per-RPC timeout.
const RPC_TIMEOUT: Dur = Dur::from_secs(10);
/// How long to wait on the Bitswap 1-hop broadcast before falling back to
/// the DHT.
const BITSWAP_PHASE_TIMEOUT: Dur = Dur::from_secs(2);
/// Overall fetch deadline.
const FETCH_TIMEOUT: Dur = Dur::from_mins(2);
/// Providers dialled per DHT-resolved fetch.
const MAX_FETCH_PROVIDERS: usize = 3;

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
    /// DHT parameters.
    pub dht: DhtConfig,
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
            dht: DhtConfig::server(),
        }
    }
}

#[derive(Clone, Debug)]
struct RemotePeer {
    id: Option<PeerId>,
}

#[derive(Clone, Debug)]
enum PostDial {
    LookupQuery {
        lookup: u64,
        info: PeerInfo,
    },
    AddProvider {
        record: ProviderRecord,
    },
    RequestBlock {
        cid: Cid,
        peer: PeerId,
    },
    RelayReserve,
    HttpRequest {
        req_id: u64,
        cid: Cid,
    },
    /// Once connected to the relay, launch the circuit dial to `target`.
    CircuitDial {
        target: NodeId,
    },
}

#[derive(Clone, Debug)]
struct PendingRpc {
    peer: PeerInfo,
    lookup: u64,
}

#[derive(Clone, Debug)]
enum Op {
    Provide {
        cid: Cid,
    },
    Fetch {
        cid: Cid,
        /// Every HTTP requester waiting on this fetch. Concurrent requests
        /// for an in-flight CID coalesce onto the existing op instead of
        /// spawning a second pipeline (or, worse, being dropped).
        replies: Vec<(NodeId, u64)>,
        via_dht: bool,
    },
    Resolve {
        cid: Cid,
        started: simnet::SimTime,
    },
}

/// The state of one simulated IPFS node. `Clone` snapshots the full node
/// (DHT, Bitswap, blockstore, sessions, logs) for engine forks.
#[derive(Clone)]
pub struct IpfsNode {
    /// Static configuration.
    pub cfg: NodeConfig,
    keypair: Keypair,
    id: PeerId,
    dht: Dht,
    bitswap: Bitswap,
    store: MemoryBlockstore,
    /// CIDs we published ourselves (always reprovided, survive restarts).
    published: Vec<Cid>,

    // --- connection/session state (reset on stop) ---
    peers: HashMap<NodeId, RemotePeer>,
    /// The identified neighbours, `peers.values().filter_map(|p| p.id)`
    /// sorted — what phase 1 of a fetch broadcasts to. Built by the
    /// session's first fetch and kept current from then on by
    /// [`Self::neighbor_gained`] / [`Self::neighbor_lost`]; `None` before,
    /// so a node that never fetches (the monitor and its thousands of
    /// connections above all) pays nothing for a list only fetches read.
    neighbors: Option<Vec<PeerId>>,
    conn_by_peer: HashMap<PeerId, NodeId>,
    /// Two live endpoints identified as one id at some point this session.
    /// Until that happens `conn_by_peer` leads from an identified id to
    /// its one endpoint; afterwards [`Self::is_identified`] has to scan.
    twin_ids: bool,
    dialing: HashMap<NodeId, Vec<PostDial>>,
    pending: HashMap<u64, PendingRpc>,
    next_req: u64,
    ops: HashMap<u64, Op>,
    lookup_to_op: HashMap<u64, u64>,
    /// Virtual start time per in-flight lookup — telemetry only, populated
    /// solely while telemetry is enabled (empty and free otherwise).
    lookup_started: HashMap<u64, SimTime>,
    /// Virtual start time per in-flight fetch op — same telemetry-only
    /// contract as `lookup_started`; feeds the request-latency histogram.
    fetch_started: HashMap<u64, SimTime>,
    fetch_by_cid: HashMap<Cid, u64>,
    relay: Option<(PeerId, NodeId, SocketAddrV4)>,
    relay_clients: HashSet<NodeId>,
    epoch: u8,
    bootstrapped: bool,
    /// Cached advertised-address list; every outgoing DHT message embeds
    /// it, so it is built once per session (invalidated on start, on relay
    /// changes, and whenever dialability flips — the cached flag) and
    /// shared from then on.
    adv_cache: Option<(bool, AddrList)>,

    // --- observability ---
    /// Recorded events (when `record_events`).
    pub events: Vec<NodeEvent>,
    /// Bitswap monitor log (when `log_bitswap`).
    pub bitswap_log: Vec<BitswapLogEntry>,
    /// Count of DHT requests served, by class.
    pub dht_requests_served: u64,
}

impl IpfsNode {
    /// Build a node from config.
    pub fn new(cfg: NodeConfig) -> IpfsNode {
        let keypair = Keypair::from_seed(cfg.identity_seed);
        let id = keypair.peer_id();
        let dht = Dht::new(id, cfg.dht);
        IpfsNode {
            keypair,
            id,
            dht,
            bitswap: Bitswap::new(),
            store: MemoryBlockstore::new(),
            published: Vec::new(),
            peers: HashMap::default(),
            neighbors: None,
            conn_by_peer: HashMap::default(),
            twin_ids: false,
            dialing: HashMap::default(),
            pending: HashMap::default(),
            next_req: 1,
            ops: HashMap::default(),
            lookup_to_op: HashMap::default(),
            lookup_started: HashMap::default(),
            fetch_started: HashMap::default(),
            fetch_by_cid: HashMap::default(),
            relay: None,
            relay_clients: HashSet::default(),
            epoch: 0,
            bootstrapped: false,
            adv_cache: None,
            events: Vec::new(),
            bitswap_log: Vec::new(),
            dht_requests_served: 0,
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
        &self.bitswap
    }

    /// Our current relay, if NAT-ed and reserved.
    pub fn relay(&self) -> Option<PeerId> {
        self.relay.as_ref().map(|(p, _, _)| *p)
    }

    /// CIDs we have published.
    pub fn published(&self) -> &[Cid] {
        &self.published
    }

    fn record(&mut self, ev: NodeEvent) {
        if self.cfg.record_events {
            self.events.push(ev);
        }
    }

    /// The addresses we announce: direct when dialable, circuit via relay
    /// when NAT-ed, plus configured extras.
    pub fn advertised_addrs<C: std::fmt::Debug>(
        &self,
        ctx: &Ctx<'_, WireMsg, C>,
    ) -> Vec<Multiaddr> {
        let mut out = Vec::new();
        let my = ctx.my_addr();
        if ctx.i_am_dialable() {
            out.push(Multiaddr::ip4_tcp_p2p(*my.ip(), my.port(), self.id));
            for extra in &self.cfg.extra_addrs {
                out.push(Multiaddr::ip4_tcp_p2p(*extra.ip(), extra.port(), self.id));
            }
        } else if let Some((relay_id, _, relay_addr)) = &self.relay {
            out.push(Multiaddr::circuit(
                *relay_addr.ip(),
                relay_addr.port(),
                *relay_id,
                self.id,
            ));
        }
        out
    }

    /// Shared advertised-address list (built once per session; rebuilt if
    /// the engine-side dialability flag changed since, e.g. via
    /// `Sim::set_dialable`).
    fn adv_addrs<C: std::fmt::Debug>(&mut self, ctx: &Ctx<'_, WireMsg, C>) -> AddrList {
        let dialable = ctx.i_am_dialable();
        if let Some((cached_dialable, a)) = &self.adv_cache {
            if *cached_dialable == dialable {
                return a.clone();
            }
        }
        let a: AddrList = self.advertised_addrs(ctx).into();
        self.adv_cache = Some((dialable, a.clone()));
        a
    }

    fn my_info<C: std::fmt::Debug>(&mut self, ctx: &Ctx<'_, WireMsg, C>) -> PeerInfo {
        PeerInfo {
            id: self.id,
            addrs: self.adv_addrs(ctx),
            endpoint: ctx.me(),
        }
    }

    fn provider_record<C: std::fmt::Debug>(
        &mut self,
        ctx: &Ctx<'_, WireMsg, C>,
        cid: Cid,
    ) -> ProviderRecord {
        ProviderRecord {
            cid,
            provider: self.id,
            addrs: self.adv_addrs(ctx),
            endpoint: ctx.me(),
            relay_endpoint: if ctx.i_am_dialable() {
                None
            } else {
                self.relay.as_ref().map(|(_, ep, _)| *ep)
            },
            stored_at: ctx.now(),
        }
    }

    fn set_timer<C: std::fmt::Debug>(
        &self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        delay: Dur,
        kind: u64,
        low: u64,
    ) {
        ctx.set_timer(delay, tok::pack(kind, self.epoch, low));
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// `Actor::on_start`.
    pub fn handle_start<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        self.epoch = self.epoch.wrapping_add(1);
        // Reachability decides server/client mode unless forced.
        let server = self.cfg.dht_server.unwrap_or_else(|| ctx.i_am_dialable());
        self.dht.set_mode(if server {
            DhtMode::Server
        } else {
            DhtMode::Client
        });
        // Fresh session: routing table and connection state are in-memory.
        self.dht.reset_table();
        self.peers.clear();
        self.neighbors = None;
        self.conn_by_peer.clear();
        self.twin_ids = false;
        self.dialing.clear();
        self.pending.clear();
        self.ops.clear();
        self.lookup_to_op.clear();
        self.lookup_started.clear();
        self.fetch_started.clear();
        self.fetch_by_cid.clear();
        self.relay = None;
        self.relay_clients.clear();
        self.bitswap = Bitswap::new();
        self.bootstrapped = false;
        self.adv_cache = None;

        if !self.cfg.bootstrap.is_empty() {
            let seeds = self.cfg.bootstrap.clone();
            self.do_bootstrap(ctx, &seeds);
        }
        if self.cfg.connmgr_interval > Dur::ZERO {
            let jitter = Dur(ctx.rng().random_range(0..=self.cfg.connmgr_interval.0));
            self.set_timer(ctx, self.cfg.connmgr_interval + jitter, tok::CONNMGR, 0);
        }
        if self.cfg.refresh_interval > Dur::ZERO {
            let jitter = Dur(ctx.rng().random_range(0..=self.cfg.refresh_interval.0));
            self.set_timer(ctx, self.cfg.refresh_interval + jitter, tok::REFRESH, 0);
        }
        if self.cfg.reprovide_interval > Dur::ZERO {
            let jitter = Dur(ctx.rng().random_range(0..=self.cfg.reprovide_interval.0));
            self.set_timer(ctx, jitter, tok::REPROVIDE, 0);
        }
    }

    /// `Actor::on_stop`.
    pub fn handle_stop<C: std::fmt::Debug>(&mut self, _ctx: &mut Ctx<'_, WireMsg, C>) {
        // Connection-bound state dies with the session; published content
        // and the blockstore persist (datastore on disk).
    }

    fn do_bootstrap<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        seeds: &[(PeerId, NodeId)],
    ) {
        for (peer, ep) in seeds {
            if *ep == ctx.me() {
                continue;
            }
            let created = self.dht.observe_peer(
                &PeerInfo {
                    id: *peer,
                    addrs: no_addrs(),
                    endpoint: *ep,
                },
                true,
                ctx.now(),
            );
            self.flag_created_entry(created, peer);
            self.ensure_dial(ctx, *ep, None);
        }
        // Self-lookup fills nearby buckets and announces us to the network.
        let lookup = self
            .dht
            .start_lookup(self.id.key(), None, LookupKind::GetClosestPeers);
        self.note_lookup_start(ctx.now(), lookup);
        self.drive_lookup(ctx, lookup);
    }

    // ------------------------------------------------------------------
    // Connections
    // ------------------------------------------------------------------

    /// Whether some connection is identified as `id` — the definition of
    /// the routing table's `connected` column.
    fn is_identified(&self, id: &PeerId) -> bool {
        if self.twin_ids {
            return self.peers.values().any(|p| p.id == Some(*id));
        }
        self.conn_by_peer
            .get(id)
            .and_then(|ep| self.peers.get(ep))
            .is_some_and(|p| p.id == Some(*id))
    }

    /// Endpoint `ep` now identifies as `id` (`peers` already says so, the
    /// caller flags the table entry); `conn_by_peer` led from `id` to
    /// `prev_ep` until just now.
    fn neighbor_gained(&mut self, ep: NodeId, id: PeerId, prev_ep: Option<NodeId>) {
        self.twin_ids |= prev_ep.is_some_and(|prev| {
            prev != ep && self.peers.get(&prev).is_some_and(|p| p.id == Some(id))
        });
        if let Some(list) = &mut self.neighbors {
            let at = list.partition_point(|n| *n < id);
            list.insert(at, id);
        }
    }

    /// An endpoint that identified as `id` closed, restarted its handshake
    /// or identified as someone else (`peers` already says so).
    fn neighbor_lost(&mut self, id: PeerId) {
        if let Some(list) = &mut self.neighbors {
            let at = list.partition_point(|n| *n < id);
            debug_assert_eq!(list.get(at), Some(&id));
            list.remove(at);
        }
        if !self.is_identified(&id) {
            self.dht.table_mut().set_connected(&id, false);
        }
    }

    /// The table just created an entry for `id` (`created`, as reported by
    /// the DHT): flag it if `id` is an identified neighbour already.
    fn flag_created_entry(&mut self, created: bool, id: &PeerId) {
        if created && self.is_identified(id) {
            self.dht.table_mut().set_connected(id, true);
        }
    }

    /// Assert the routing table's `connected` column against its
    /// definition — "some connection is identified as this peer" — for
    /// every entry.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_connected_flags(&self) {
        for e in self.dht.table().entries() {
            let truth = self.peers.values().any(|p| p.id == Some(e.info.id));
            assert_eq!(
                e.connected, truth,
                "connected flag of {:?} out of sync at {:?}",
                e.info.id, self.id
            );
        }
        if let Some(list) = &self.neighbors {
            assert_eq!(*list, self.sorted_neighbors(), "neighbour list out of sync");
        }
    }

    fn sorted_neighbors(&self) -> Vec<PeerId> {
        let mut ids: Vec<PeerId> = self.peers.values().filter_map(|p| p.id).collect();
        ids.sort();
        ids
    }

    fn ensure_dial<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        action: Option<PostDial>,
    ) {
        if target == ctx.me() {
            return;
        }
        if ctx.is_connected(target) {
            if let Some(a) = action {
                self.run_post_dial(ctx, target, a);
            }
            return;
        }
        let in_flight = self.dialing.contains_key(&target);
        let entry = self.dialing.entry(target).or_default();
        if let Some(a) = action {
            entry.push(a);
        }
        if !in_flight {
            ctx.dial(target);
        }
    }

    fn ensure_dial_via<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        relay: NodeId,
        target: NodeId,
        action: PostDial,
    ) {
        if ctx.is_connected(target) {
            self.run_post_dial(ctx, target, action);
            return;
        }
        let in_flight = self.dialing.contains_key(&target);
        self.dialing.entry(target).or_default().push(action);
        if in_flight {
            return;
        }
        if ctx.is_connected(relay) {
            ctx.dial_via(relay, target);
        } else {
            // Dial the relay first; the circuit dial fires once it lands.
            self.ensure_dial(ctx, relay, Some(PostDial::CircuitDial { target }));
        }
    }

    /// `Actor::on_inbound_connection`.
    pub fn handle_inbound<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        _relayed: bool,
    ) {
        let old = self.peers.insert(from, RemotePeer { id: None });
        if let Some(id) = old.and_then(|p| p.id) {
            self.neighbor_lost(id);
        }
        self.send_identify(ctx, from);
    }

    /// `Actor::on_dial_result`.
    pub fn handle_dial_result<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        ok: bool,
        _relayed: bool,
    ) {
        let actions = self.dialing.remove(&target).unwrap_or_default();
        if ok {
            self.peers.entry(target).or_insert(RemotePeer { id: None });
            self.send_identify(ctx, target);
            for a in actions {
                self.run_post_dial(ctx, target, a);
            }
        } else {
            for a in actions {
                self.fail_post_dial(ctx, target, a);
            }
        }
    }

    fn run_post_dial<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        action: PostDial,
    ) {
        match action {
            PostDial::LookupQuery { lookup, info } => self.send_query(ctx, lookup, &info),
            PostDial::AddProvider { record } => {
                let msg = self.dht_request_msg(ctx, DhtRequest::AddProvider { record });
                ctx.send(target, WireMsg::Dht(msg));
            }
            PostDial::RequestBlock { cid, peer } => {
                // Identify may still be in flight; bind the peer to the
                // endpoint we just dialed so the request can go out now.
                self.conn_by_peer.entry(peer).or_insert(target);
                let out = self.bitswap.request_block_from(cid, peer, ctx.now());
                self.flush_bitswap(ctx, out);
            }
            PostDial::RelayReserve => {
                ctx.send(target, WireMsg::RelayReserve { from: self.id });
            }
            PostDial::HttpRequest { req_id, cid } => {
                ctx.send(target, WireMsg::HttpRequest { req_id, cid });
            }
            PostDial::CircuitDial {
                target: circuit_target,
            } => {
                // `target` here is the relay that just connected.
                if !ctx.is_connected(circuit_target) {
                    ctx.dial_via(target, circuit_target);
                }
            }
        }
    }

    fn fail_post_dial<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        action: PostDial,
    ) {
        match action {
            PostDial::LookupQuery { lookup, info } => {
                self.dht.lookup_failure(lookup, &info.id);
                self.drive_lookup(ctx, lookup);
            }
            PostDial::AddProvider { .. } => {}
            PostDial::RequestBlock { .. } => {
                // Overall fetch timeout will clean up.
            }
            PostDial::RelayReserve => {
                let _ = target;
                self.set_timer(ctx, Dur::from_secs(30), tok::RELAY, 0);
            }
            PostDial::HttpRequest { .. } => {}
            PostDial::CircuitDial {
                target: circuit_target,
            } => {
                // Relay unreachable: fail everything queued on the target.
                for a in self.dialing.remove(&circuit_target).unwrap_or_default() {
                    self.fail_post_dial(ctx, circuit_target, a);
                }
            }
        }
    }

    fn send_identify<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, to: NodeId) {
        let msg = WireMsg::Identify {
            id: self.id,
            addrs: self.adv_addrs(ctx),
            dht_server: self.dht.is_server(),
            agent: self.cfg.agent.clone(),
        };
        ctx.send(to, msg);
    }

    /// `Actor::on_connection_closed`.
    pub fn handle_connection_closed<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        peer: NodeId,
    ) {
        if let Some(p) = self.peers.remove(&peer) {
            if let Some(id) = p.id {
                self.neighbor_lost(id);
                self.conn_by_peer.remove(&id);
                self.bitswap.peer_disconnected(&id);
            }
        }
        self.relay_clients.remove(&peer);
        if let Some((_, ep, _)) = &self.relay {
            if *ep == peer {
                self.relay = None;
                self.adv_cache = None;
                self.set_timer(ctx, Dur::from_secs(10), tok::RELAY, 0);
            }
        }
    }

    // ------------------------------------------------------------------
    // Commands
    // ------------------------------------------------------------------

    /// Dispatch a harness command.
    pub fn handle_command<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        cmd: NodeCmd,
    ) {
        match cmd {
            NodeCmd::Bootstrap { seeds } => {
                self.cfg.bootstrap = seeds.clone();
                self.do_bootstrap(ctx, &seeds);
            }
            NodeCmd::Publish { cid, size } => {
                self.store.put(Block { cid, size });
                if !self.published.contains(&cid) {
                    self.published.push(cid);
                }
                self.start_provide(ctx, cid);
            }
            NodeCmd::Provide { cid } => {
                self.start_provide(ctx, cid);
            }
            NodeCmd::Fetch { cid } => {
                self.start_fetch(ctx, cid, None);
            }
            NodeCmd::HttpGet { frontend, cid } => {
                let req_id = self.next_req;
                self.next_req += 1;
                self.ensure_dial(ctx, frontend, Some(PostDial::HttpRequest { req_id, cid }));
            }
            NodeCmd::AdoptIdentity { seed } => {
                self.adopt_identity(ctx, seed);
            }
            NodeCmd::ResolveProviders { cid, exhaustive } => {
                let op_id = self.next_req;
                self.next_req += 1;
                let lookup = self.dht.start_lookup(
                    cid.dht_key(),
                    Some(cid),
                    LookupKind::FindProviders { exhaustive },
                );
                self.ops.insert(
                    op_id,
                    Op::Resolve {
                        cid,
                        started: ctx.now(),
                    },
                );
                self.lookup_to_op.insert(lookup, op_id);
                self.note_lookup_start(ctx.now(), lookup);
                self.drive_lookup(ctx, lookup);
            }
        }
    }

    fn adopt_identity<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, seed: u64) {
        let peers: Vec<NodeId> = ctx.connections().collect();
        for peer in peers {
            ctx.disconnect(peer);
        }
        self.cfg.identity_seed = seed;
        self.keypair = Keypair::from_seed(seed);
        self.id = self.keypair.peer_id();
        self.dht = Dht::new(self.id, self.cfg.dht);
        self.store = MemoryBlockstore::new();
        self.published.clear();
        // Simulate a process restart with the new identity.
        self.handle_start(ctx);
    }

    // ------------------------------------------------------------------
    // DHT request plumbing
    // ------------------------------------------------------------------

    fn dht_request_msg<C: std::fmt::Debug>(
        &mut self,
        ctx: &Ctx<'_, WireMsg, C>,
        req: DhtRequest,
    ) -> DhtMessage {
        let req_id = self.next_req;
        self.next_req += 1;
        DhtMessage {
            req_id,
            sender: self.my_info(ctx),
            sender_is_server: self.dht.is_server(),
            body: DhtBody::Request(req),
        }
    }

    fn send_query<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        lookup: u64,
        info: &PeerInfo,
    ) {
        let Some((target, cid, kind)) = self.dht.lookup_meta(lookup) else {
            return;
        };
        let req = match kind {
            LookupKind::GetClosestPeers => DhtRequest::FindNode { target },
            LookupKind::FindProviders { .. } => DhtRequest::GetProviders {
                cid: cid.expect("provider lookup carries cid"),
            },
        };
        let msg = self.dht_request_msg(ctx, req);
        let req_id = msg.req_id;
        if ctx.send(info.endpoint, WireMsg::Dht(msg)) {
            self.pending.insert(
                req_id,
                PendingRpc {
                    peer: info.clone(),
                    lookup,
                },
            );
            self.set_timer(ctx, RPC_TIMEOUT, tok::RPC, req_id);
        } else {
            self.dht.lookup_failure(lookup, &info.id);
            self.drive_lookup(ctx, lookup);
        }
    }

    /// Remember a lookup's virtual start time for the latency histogram.
    /// Only populated while telemetry is on, so the map stays empty (and
    /// the hot path free) in normal runs.
    fn note_lookup_start(&mut self, now: SimTime, lookup: u64) {
        if telemetry::enabled() {
            self.lookup_started.insert(lookup, now);
        }
    }

    fn drive_lookup<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, lookup: u64) {
        let queries = self.dht.lookup_next_queries(lookup);
        for info in queries {
            self.ensure_dial(
                ctx,
                info.endpoint,
                Some(PostDial::LookupQuery { lookup, info }),
            );
        }
        if let Some(result) = self.dht.lookup_take_result(lookup) {
            self.finish_lookup(ctx, lookup, result);
        }
    }

    fn finish_lookup<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        lookup: u64,
        result: kademlia::LookupResult,
    ) {
        if let Some(started) = self.lookup_started.remove(&lookup) {
            let elapsed = ctx.now().0.saturating_sub(started.0);
            telemetry::observe(telemetry::Metric::LookupLatencyNs, elapsed);
            telemetry::flight::span(started.0, elapsed, "lookup", "dht", result.contacted as u64);
        }
        let Some(op_id) = self.lookup_to_op.remove(&lookup) else {
            // Maintenance lookup (bootstrap/refresh) — table already updated.
            if !self.bootstrapped {
                self.bootstrapped = true;
                self.record(NodeEvent::Bootstrapped);
                self.after_bootstrap(ctx);
            }
            return;
        };
        let Some(op) = self.ops.get(&op_id) else {
            return;
        };
        match *op {
            Op::Provide { cid } => {
                self.ops.remove(&op_id);
                let record = self.provider_record(ctx, cid);
                let resolvers = result.closest.len();
                for peer in result.closest {
                    self.ensure_dial(
                        ctx,
                        peer.endpoint,
                        Some(PostDial::AddProvider {
                            record: record.clone(),
                        }),
                    );
                }
                self.record(NodeEvent::Provided { cid, resolvers });
            }
            Op::Fetch { cid, .. } => {
                // DHT resolution finished: dial providers, request the
                // block. The op stays registered until the fetch ends.
                let mut dialled = 0;
                for rec in &result.providers {
                    if rec.provider == self.id || dialled >= MAX_FETCH_PROVIDERS {
                        continue;
                    }
                    dialled += 1;
                    let action = PostDial::RequestBlock {
                        cid,
                        peer: rec.provider,
                    };
                    match rec.relay_endpoint {
                        Some(relay_ep) if rec.endpoint != ctx.me() => {
                            self.ensure_dial_via(ctx, relay_ep, rec.endpoint, action);
                        }
                        _ => self.ensure_dial(ctx, rec.endpoint, Some(action)),
                    }
                }
                if dialled == 0 {
                    self.fail_fetch(ctx, op_id);
                }
            }
            Op::Resolve { cid, started } => {
                self.ops.remove(&op_id);
                self.record(NodeEvent::ProvidersResolved {
                    cid,
                    records: result.providers.clone(),
                    contacted: result.contacted,
                    elapsed: ctx.now().since(started),
                });
            }
        }
    }

    fn after_bootstrap<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        // NAT-ed nodes acquire a relay once they know some servers.
        if !ctx.i_am_dialable() && self.relay.is_none() {
            self.acquire_relay(ctx);
        }
    }

    fn acquire_relay<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        // Pick a random DHT server from the routing table (§2: "a random DHT
        // server supporting the relay protocol").
        let candidates: Vec<PeerInfo> =
            self.dht.table().entries().map(|e| e.info.clone()).collect();
        if candidates.is_empty() {
            self.set_timer(ctx, Dur::from_secs(30), tok::RELAY, 0);
            return;
        }
        let pick = candidates[ctx.rng().random_range(0..candidates.len())].clone();
        self.ensure_dial(ctx, pick.endpoint, Some(PostDial::RelayReserve));
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    fn start_provide<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, cid: Cid) {
        let op_id = self.next_req;
        self.next_req += 1;
        let lookup = self
            .dht
            .start_lookup(cid.dht_key(), None, LookupKind::GetClosestPeers);
        self.ops.insert(op_id, Op::Provide { cid });
        self.lookup_to_op.insert(lookup, op_id);
        self.note_lookup_start(ctx.now(), lookup);
        self.drive_lookup(ctx, lookup);
    }

    /// Begin the two-phase retrieval pipeline. `reply` routes gateway
    /// responses back to the HTTP side.
    pub fn start_fetch<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        cid: Cid,
        reply: Option<(NodeId, u64)>,
    ) {
        if self.store.has(&cid) {
            telemetry::count(telemetry::Counter::RequestsServedCache, 1);
            telemetry::observe(telemetry::Metric::RequestLatencyNs, 0);
            self.record(NodeEvent::FetchCompleted {
                cid,
                from: self.id,
                via_dht: false,
            });
            if let Some((to, req_id)) = reply {
                ctx.send(
                    to,
                    WireMsg::HttpResponse {
                        req_id,
                        found: true,
                    },
                );
                self.record(NodeEvent::HttpServed {
                    req_id,
                    found: true,
                    cache_hit: true,
                });
            }
            return;
        }
        if let Some(&op_id) = self.fetch_by_cid.get(&cid) {
            // Already fetching: coalesce onto the in-flight op. The old
            // early-return silently dropped `reply` here, so a gateway
            // request racing an in-flight fetch of the same CID hung until
            // the client timed out instead of sharing the answer.
            telemetry::count(telemetry::Counter::WantCoalesceHits, 1);
            if let (Some(r), Some(Op::Fetch { replies, .. })) = (reply, self.ops.get_mut(&op_id)) {
                replies.push(r);
            }
            return;
        }
        let op_id = self.next_req;
        self.next_req += 1;
        telemetry::count(telemetry::Counter::FetchesStarted, 1);
        if telemetry::enabled() {
            self.fetch_started.insert(op_id, ctx.now());
        }
        self.ops.insert(
            op_id,
            Op::Fetch {
                cid,
                replies: reply.into_iter().collect(),
                via_dht: false,
            },
        );
        self.fetch_by_cid.insert(cid, op_id);
        // Phase 1: 1-hop Bitswap broadcast to identified neighbours.
        if self.neighbors.is_none() {
            self.neighbors = Some(self.sorted_neighbors());
        }
        let neighbors = self.neighbors.as_deref().expect("built above");
        let out = self.bitswap.start_fetch(cid, neighbors, ctx.now());
        self.flush_bitswap(ctx, out);
        self.set_timer(ctx, BITSWAP_PHASE_TIMEOUT, tok::FETCH_BS, op_id);
        self.set_timer(ctx, FETCH_TIMEOUT, tok::FETCH_ALL, op_id);
    }

    fn fail_fetch<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, op_id: u64) {
        let Some(Op::Fetch { cid, replies, .. }) = self.ops.remove(&op_id) else {
            return;
        };
        self.fetch_by_cid.remove(&cid);
        if let Some(started) = self.fetch_started.remove(&op_id) {
            let elapsed = ctx.now().0.saturating_sub(started.0);
            telemetry::observe(telemetry::Metric::RequestLatencyNs, elapsed);
        }
        let out = self.bitswap.cancel_fetch(&cid);
        self.flush_bitswap(ctx, out);
        self.record(NodeEvent::FetchFailed { cid });
        for (to, req_id) in replies {
            ctx.send(
                to,
                WireMsg::HttpResponse {
                    req_id,
                    found: false,
                },
            );
            self.record(NodeEvent::HttpServed {
                req_id,
                found: false,
                cache_hit: false,
            });
        }
    }

    fn complete_fetch<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        cid: Cid,
        from: PeerId,
    ) {
        let Some(op_id) = self.fetch_by_cid.remove(&cid) else {
            return;
        };
        let Some(Op::Fetch {
            replies, via_dht, ..
        }) = self.ops.remove(&op_id)
        else {
            return;
        };
        // One op may satisfy several coalesced requests; each counts.
        let served = replies.len().max(1) as u64;
        telemetry::count(
            if via_dht {
                telemetry::Counter::RequestsServedDht
            } else {
                telemetry::Counter::RequestsServedBitswap
            },
            served,
        );
        if let Some(started) = self.fetch_started.remove(&op_id) {
            let elapsed = ctx.now().0.saturating_sub(started.0);
            telemetry::observe(telemetry::Metric::RequestLatencyNs, elapsed);
        }
        self.record(NodeEvent::FetchCompleted { cid, from, via_dht });
        for (to, req_id) in replies {
            ctx.send(
                to,
                WireMsg::HttpResponse {
                    req_id,
                    found: true,
                },
            );
            self.record(NodeEvent::HttpServed {
                req_id,
                found: true,
                cache_hit: false,
            });
        }
        if self.cfg.provide_on_fetch {
            self.start_provide(ctx, cid);
        }
    }

    // ------------------------------------------------------------------
    // Messages
    // ------------------------------------------------------------------

    /// `Actor::on_message`.
    pub fn handle_message<C: std::fmt::Debug>(
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
            } => {
                let old = self.peers.insert(from, RemotePeer { id: Some(id) });
                let prev_ep = self.conn_by_peer.insert(id, from);
                self.dht.observe_peer(
                    &PeerInfo {
                        id,
                        addrs,
                        endpoint: from,
                    },
                    dht_server,
                    ctx.now(),
                );
                let old_id = old.and_then(|p| p.id);
                if old_id != Some(id) {
                    if let Some(old_id) = old_id {
                        self.neighbor_lost(old_id);
                    }
                    self.neighbor_gained(from, id, prev_ep);
                }
                // After the table saw the peer: a fresh entry starts unflagged.
                self.dht.table_mut().set_connected(&id, true);
            }
            WireMsg::Dht(m) => self.handle_dht(ctx, from, m),
            WireMsg::Bitswap { from: peer, msg } => {
                if self.cfg.log_bitswap {
                    if let BitswapMessage::Wantlist { entries, .. } = &msg {
                        let addr = ctx
                            .addr_of(from)
                            .unwrap_or_else(|| SocketAddrV4::new([0, 0, 0, 0].into(), 0));
                        let want_block = entries
                            .iter()
                            .any(|e| !e.cancel && e.ty == bitswap::WantType::Block);
                        let cids: Vec<Cid> = entries
                            .iter()
                            .filter(|e| !e.cancel)
                            .map(|e| e.cid)
                            .collect();
                        if !cids.is_empty() {
                            self.bitswap_log.push(BitswapLogEntry {
                                ts: ctx.now(),
                                peer,
                                addr,
                                cids,
                                want_block,
                            });
                        }
                    }
                }
                let out = self
                    .bitswap
                    .handle_message(ctx.now(), peer, msg, &mut self.store);
                self.flush_bitswap(ctx, out);
            }
            WireMsg::RelayReserve { from: peer } => {
                // Every DHT server serves circuit-relay reservations.
                let accepted = self.dht.is_server();
                if accepted {
                    self.relay_clients.insert(from);
                }
                let _ = peer;
                ctx.send(from, WireMsg::RelayReserveOk { accepted });
            }
            WireMsg::RelayReserveOk { accepted } => {
                if accepted && !ctx.i_am_dialable() {
                    if let Some(p) = self.peers.get(&from) {
                        if let (Some(id), Some(addr)) = (p.id, ctx.addr_of(from)) {
                            self.relay = Some((id, from, addr));
                            self.adv_cache = None;
                            self.record(NodeEvent::RelayAcquired { relay: id });
                        }
                    }
                } else if !accepted {
                    self.set_timer(ctx, Dur::from_secs(10), tok::RELAY, 0);
                }
            }
            WireMsg::HttpRequest { req_id, cid } => {
                if self.cfg.is_gateway {
                    self.start_fetch(ctx, cid, Some((from, req_id)));
                } else {
                    ctx.send(
                        from,
                        WireMsg::HttpResponse {
                            req_id,
                            found: false,
                        },
                    );
                }
            }
            WireMsg::HttpResponse { .. } => {
                // Plain nodes issue HTTP requests only as HTTP clients; the
                // richer client actor in tcsb-core records outcomes.
            }
        }
    }

    fn handle_dht<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        msg: DhtMessage,
    ) {
        match msg.body {
            DhtBody::Request(req) => {
                self.dht_requests_served += 1;
                let (resp, created) =
                    self.dht
                        .handle_request(ctx.now(), &msg.sender, msg.sender_is_server, &req);
                self.flag_created_entry(created, &msg.sender.id);
                if let Some(body) = resp {
                    let reply = DhtMessage {
                        req_id: msg.req_id,
                        sender: self.my_info(ctx),
                        sender_is_server: self.dht.is_server(),
                        body: DhtBody::Response(body),
                    };
                    ctx.send(from, WireMsg::Dht(reply));
                }
            }
            DhtBody::Response(resp) => {
                let Some(rpc) = self.pending.remove(&msg.req_id) else {
                    return; // late or unsolicited
                };
                let lookup = rpc.lookup;
                let (closer, providers) = match resp {
                    DhtResponse::Nodes { closer } => (closer, vec![]),
                    DhtResponse::Providers { providers, closer } => (closer, providers),
                    DhtResponse::Pong => return self.drive_lookup(ctx, lookup),
                };
                let created =
                    self.dht
                        .lookup_response(lookup, &rpc.peer, closer, providers, ctx.now());
                self.flag_created_entry(created, &rpc.peer.id);
                self.drive_lookup(ctx, lookup);
            }
        }
    }

    fn flush_bitswap<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, out: BsOutput) {
        for (peer, msg) in out.sends {
            if let Some(&ep) = self.conn_by_peer.get(&peer) {
                ctx.send(ep, WireMsg::Bitswap { from: self.id, msg });
            }
        }
        for (cid, from) in out.received {
            self.complete_fetch(ctx, cid, from);
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// `Actor::on_timer`.
    pub fn handle_timer<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, token: u64) {
        let (kind, epoch, low) = tok::unpack(token);
        if epoch != self.epoch {
            return; // stale timer from a previous session
        }
        match kind {
            tok::RPC => {
                if let Some(rpc) = self.pending.remove(&low) {
                    self.dht.lookup_failure(rpc.lookup, &rpc.peer.id);
                    self.drive_lookup(ctx, rpc.lookup);
                }
            }
            tok::FETCH_BS => {
                // Bitswap phase expired without the block: fall back to DHT.
                if let Some(Op::Fetch { cid, via_dht, .. }) = self.ops.get_mut(&low) {
                    let cid = *cid;
                    if self.store.has(&cid) {
                        return;
                    }
                    *via_dht = true;
                    let lookup = self.dht.start_lookup(
                        cid.dht_key(),
                        Some(cid),
                        LookupKind::FindProviders { exhaustive: false },
                    );
                    self.lookup_to_op.insert(lookup, low);
                    self.note_lookup_start(ctx.now(), lookup);
                    self.drive_lookup(ctx, lookup);
                }
            }
            tok::FETCH_ALL => {
                if matches!(self.ops.get(&low), Some(Op::Fetch { .. })) {
                    self.fail_fetch(ctx, low);
                }
            }
            tok::REPROVIDE => {
                self.reprovide_tick(ctx, low as usize);
            }
            tok::CONNMGR => {
                self.connmgr_tick(ctx);
                self.set_timer(ctx, self.cfg.connmgr_interval, tok::CONNMGR, 0);
            }
            tok::REFRESH => {
                self.refresh_tick(ctx);
                self.set_timer(ctx, self.cfg.refresh_interval, tok::REFRESH, 0);
            }
            tok::RELAY if !ctx.i_am_dialable() && self.relay.is_none() => {
                self.acquire_relay(ctx);
            }
            _ => {}
        }
    }

    fn reprovide_tick<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, cursor: usize) {
        let mut cids: Vec<Cid> = self.store.cids().copied().collect();
        cids.sort();
        if cids.is_empty() {
            self.set_timer(ctx, self.cfg.reprovide_interval, tok::REPROVIDE, 0);
            return;
        }
        let end = (cursor + self.cfg.reprovide_batch).min(cids.len());
        for cid in &cids[cursor.min(cids.len())..end] {
            self.start_provide(ctx, *cid);
        }
        if end < cids.len() {
            self.set_timer(ctx, Dur::from_secs(30), tok::REPROVIDE, end as u64);
        } else {
            self.set_timer(ctx, self.cfg.reprovide_interval, tok::REPROVIDE, 0);
        }
    }

    fn connmgr_tick<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        self.dht.providers_mut().cleanup(ctx.now());
        // Drop Bitswap ledgers of peers we are no longer connected to.
        // Their wants were purged on disconnect; the block counters alone
        // are pure memory growth under sustained churn. Emits no events,
        // so this is digest-neutral.
        let stale = self
            .bitswap
            .prunable_peers(|p| self.conn_by_peer.contains_key(p));
        for p in &stale {
            self.bitswap.forget_peer(p);
        }
        #[cfg(debug_assertions)]
        self.assert_connected_flags();
        if self.cfg.table_entry_ttl > Dur::ZERO {
            // Entries of identified neighbours carry the `connected` flag
            // and are refreshed, not pruned.
            let ttl = self.cfg.table_entry_ttl;
            self.dht.table_mut().prune_stale(ctx.now(), ttl);
        }
        // Common case: the connection count sits between floor and high
        // watermark and the tick touches nothing — keep that path
        // allocation-free (`connections()` is now a non-allocating iterator).
        let n_conns = ctx.connection_count();
        if !self.cfg.unbounded_conns && n_conns > self.cfg.conn_high {
            let mut protected: HashSet<NodeId> = self.relay_clients.clone();
            if let Some((_, ep, _)) = &self.relay {
                protected.insert(*ep);
            }
            for rpc in self.pending.values() {
                protected.insert(rpc.peer.endpoint);
            }
            let mut victims: Vec<NodeId> = ctx
                .connections()
                .filter(|c| !protected.contains(c))
                .collect();
            victims.shuffle(ctx.rng());
            let excess = n_conns - self.cfg.conn_low;
            for v in victims.into_iter().take(excess) {
                ctx.disconnect(v);
                self.handle_connection_closed(ctx, v);
            }
        } else if n_conns < self.cfg.conn_floor {
            let mut candidates: Vec<NodeId> = self
                .dht
                .table()
                .entries()
                .map(|e| e.info.endpoint)
                .filter(|ep| !ctx.is_connected(*ep) && *ep != ctx.me())
                .collect();
            candidates.sort();
            candidates.dedup();
            candidates.shuffle(ctx.rng());
            let need = (self.cfg.conn_floor - n_conns).min(self.cfg.max_dials_per_tick);
            for ep in candidates.into_iter().take(need) {
                self.ensure_dial(ctx, ep, None);
            }
        }
    }

    fn refresh_tick<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>) {
        // Refresh one random bucket per tick (cheap approximation of the
        // go-ipfs refresh cycle; tables stay warm through traffic anyway).
        let targets = self.dht.refresh_targets();
        if targets.is_empty() {
            return;
        }
        let t = targets[ctx.rng().random_range(0..targets.len())];
        let lookup = self.dht.start_lookup(t, None, LookupKind::GetClosestPeers);
        self.note_lookup_start(ctx.now(), lookup);
        self.drive_lookup(ctx, lookup);
    }
}

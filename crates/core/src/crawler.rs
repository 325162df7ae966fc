//! The DHT crawler (§3 "Topology graph").
//!
//! Reimplementation of the Henningsen-style crawler the paper used: for
//! every reachable DHT server, enumerate its k-buckets by sending crafted
//! `FindNode` requests whose targets share an increasing common prefix with
//! the server's own ID (`own key with bit cpl flipped`), until several
//! consecutive sweeps stop yielding new peers. Newly learned peers join the
//! frontier; the crawl ends when the frontier drains. Unresponsive peers
//! (dial failure / RPC timeout) are recorded as un-crawlable leaves, exactly
//! like the ~30% the paper reports.

use ipfs_node::WireMsg;
use ipfs_types::{FxHashMap as HashMap, FxHashSet as HashSet, PeerId};
use kademlia::{DhtMessage, DhtRequest, PeerInfo, RPC_TIMEOUT};
use simnet::{Ctx, Dur, NodeId, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;
/// Bucket sweeps stop after this many consecutive queries with no new
/// peers for the target.
const EMPTY_STREAK: u32 = 3;
/// Hard cap on sweep depth per peer.
const MAX_CPL: u32 = 24;
/// Identity seed for the crawler's own keypair.
const IDENTITY_SEED: u64 = 0xC4A817;

/// One peer observed in a crawl.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrawledPeer {
    /// The peer's identity.
    pub peer: PeerId,
    /// IPv4 addresses the peer advertised (multiaddrs) plus the observed
    /// connection address.
    pub ips: Vec<Ipv4Addr>,
    /// Agent string from identify (empty if never connected).
    pub agent: String,
    /// Whether the peer answered our queries.
    pub crawlable: bool,
}

/// A finished crawl: the paper's `G_DHT` snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrawlSnapshot {
    /// Sequence number of the crawl.
    pub crawl_id: u64,
    /// Virtual start time (nanoseconds).
    pub started_ns: u64,
    /// Virtual end time (nanoseconds).
    pub finished_ns: u64,
    /// Every discovered peer.
    pub peers: Vec<CrawledPeer>,
    /// Directed edges `(from, to)`: `to` appeared in `from`'s buckets.
    pub edges: Vec<(PeerId, PeerId)>,
}

impl CrawlSnapshot {
    /// Number of discovered peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Number of crawlable peers.
    pub fn crawlable_count(&self) -> usize {
        self.peers.iter().filter(|p| p.crawlable).count()
    }

    /// Crawl duration.
    pub fn duration(&self) -> Dur {
        Dur(self.finished_ns.saturating_sub(self.started_ns))
    }
}

#[derive(Clone, Debug)]
struct TargetState {
    info: PeerInfo,
    next_cpl: u32,
    empty_streak: u32,
    /// A query to this peer is in flight.
    outstanding: bool,
    crawlable: bool,
    done: bool,
    edges: Vec<PeerId>,
    /// Agent from identify, shared with the message (`None` until then).
    agent: Option<std::sync::Arc<str>>,
    observed_ip: Option<Ipv4Addr>,
    /// IPv4 addresses the peer was advertised with, by itself or others.
    seen_ips: HashSet<Ipv4Addr>,
}

impl TargetState {
    fn record_addrs(&mut self, info: &PeerInfo) {
        for a in info.addrs.iter() {
            if let Some(ip) = a.ip4() {
                // A circuit address names its relay's IP, not the peer's:
                // it is skipped, so only direct addresses count.
                if !a.is_circuit() {
                    self.seen_ips.insert(ip);
                }
            }
        }
    }
}

/// Crawler commands (scheduled by the experiment driver).
#[derive(Clone, Debug)]
pub enum CrawlerCmd {
    /// Begin a crawl seeded with bootstrap peers.
    Start {
        /// Crawl sequence number.
        id: u64,
        /// Entry points.
        seeds: Vec<(PeerId, NodeId)>,
    },
}

/// The crawler actor.
#[derive(Clone)]
pub struct Crawler {
    my_id: PeerId,
    crawl_id: u64,
    started: SimTime,
    active: bool,
    targets: HashMap<PeerId, TargetState>,
    // Several peer IDs may share one endpoint (hydra heads, re-identified
    // nodes); dials are deduplicated per endpoint.
    by_endpoint: HashMap<NodeId, Vec<PeerId>>,
    dialing: HashSet<NodeId>,
    pending: HashMap<u64, PeerId>,
    next_req: u64,
    /// Our info, the sender of every query: built on first use (the
    /// endpoint comes from the context) and shared from then on.
    me: Option<Arc<PeerInfo>>,
    /// Finished snapshots, in order.
    pub snapshots: Vec<CrawlSnapshot>,
}

impl Default for Crawler {
    fn default() -> Self {
        Crawler::new()
    }
}

impl Crawler {
    /// Fresh crawler.
    pub fn new() -> Crawler {
        let my_id = ipfs_types::Keypair::from_seed(IDENTITY_SEED).peer_id();
        Crawler {
            my_id,
            crawl_id: 0,
            started: SimTime::ZERO,
            active: false,
            targets: HashMap::default(),
            by_endpoint: HashMap::default(),
            dialing: HashSet::default(),
            pending: HashMap::default(),
            next_req: 1,
            me: None,
            snapshots: Vec::new(),
        }
    }

    /// Whether a crawl is currently running.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn my_info<C: std::fmt::Debug>(&mut self, ctx: &Ctx<'_, WireMsg, C>) -> Arc<PeerInfo> {
        let my_id = self.my_id;
        self.me
            .get_or_insert_with(|| {
                Arc::new(PeerInfo {
                    id: my_id,
                    addrs: kademlia::no_addrs(),
                    endpoint: ctx.me(),
                })
            })
            .clone()
    }

    /// Handle a crawler command.
    pub fn handle_command<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        cmd: CrawlerCmd,
    ) {
        match cmd {
            CrawlerCmd::Start { id, seeds } => {
                // Abort any previous crawl silently (schedule drivers space
                // crawls far enough apart that this is exceptional).
                if self.active {
                    self.finish(ctx.now());
                }
                self.crawl_id = id;
                self.started = ctx.now();
                self.active = true;
                self.targets.clear();
                self.by_endpoint.clear();
                self.dialing.clear();
                self.pending.clear();
                for (peer, ep) in seeds {
                    self.add_target(
                        ctx,
                        PeerInfo {
                            id: peer,
                            addrs: kademlia::no_addrs(),
                            endpoint: ep,
                        },
                    );
                }
            }
        }
    }

    fn add_target<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, info: PeerInfo) {
        if info.id == self.my_id || self.targets.contains_key(&info.id) {
            return;
        }
        self.by_endpoint
            .entry(info.endpoint)
            .or_default()
            .push(info.id);
        let mut t = TargetState {
            info: info.clone(),
            next_cpl: 0,
            empty_streak: 0,
            outstanding: false,
            crawlable: false,
            done: false,
            edges: Vec::new(),
            agent: None,
            observed_ip: None,
            seen_ips: HashSet::default(),
        };
        t.record_addrs(&info);
        self.targets.insert(info.id, t);
        if ctx.is_connected(info.endpoint) {
            self.sweep_next(ctx, info.id);
        } else if self.dialing.insert(info.endpoint) {
            ctx.dial(info.endpoint);
        }
    }

    fn sweep_next<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, peer: PeerId) {
        let Some(t) = self.targets.get_mut(&peer) else {
            return;
        };
        if t.done || t.outstanding {
            return;
        }
        if t.next_cpl > MAX_CPL || t.empty_streak >= EMPTY_STREAK {
            t.done = true;
            self.check_done(ctx.now());
            return;
        }
        let target_key = peer.key().with_bit_flipped(t.next_cpl.min(255));
        t.next_cpl += 1;
        let req_id = self.next_req;
        self.next_req += 1;
        t.outstanding = true;
        let endpoint = t.info.endpoint;
        let req = DhtRequest::FindNode { target: target_key };
        let msg = DhtMessage::request(req_id, self.my_info(ctx), false, req);
        if ctx.send(endpoint, WireMsg::Dht(msg)) {
            self.pending.insert(req_id, peer);
            ctx.set_timer(RPC_TIMEOUT, req_id);
        } else {
            // Connection raced shut; retry via dial.
            if let Some(t) = self.targets.get_mut(&peer) {
                t.outstanding = false;
            }
            if self.dialing.insert(endpoint) {
                ctx.dial(endpoint);
            }
        }
    }

    /// Dial outcome for a target endpoint.
    pub fn handle_dial_result<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        ok: bool,
    ) {
        self.dialing.remove(&target);
        if !self.active {
            return;
        }
        let peers = self.by_endpoint.get(&target).cloned().unwrap_or_default();
        for peer in peers {
            if ok {
                if let Some(t) = self.targets.get_mut(&peer) {
                    t.observed_ip = ctx.addr_of(target).map(|a| *a.ip());
                }
                self.sweep_next(ctx, peer);
            } else if let Some(t) = self.targets.get_mut(&peer) {
                if !t.done {
                    t.done = true;
                    t.crawlable = false;
                }
            }
        }
        if !ok {
            self.check_done(ctx.now());
        }
    }

    /// Incoming message.
    pub fn handle_message<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        msg: WireMsg,
    ) {
        match msg {
            WireMsg::Identify { id, agent, .. } => {
                if let Some(peers) = self.by_endpoint.get(&from) {
                    if peers.contains(&id) {
                        if let Some(t) = self.targets.get_mut(&id) {
                            t.agent = Some(agent);
                        }
                    }
                }
            }
            WireMsg::Dht(DhtMessage::Response { req_id, resp }) => {
                let Some(peer) = self.pending.remove(&req_id) else {
                    return;
                };
                let (closer, _) = resp.into_parts();
                let mut found_new = false;
                if let Some(t) = self.targets.get_mut(&peer) {
                    t.outstanding = false;
                    t.crawlable = true;
                    for info in &closer {
                        t.edges.push(info.id);
                    }
                }
                for info in closer {
                    if let Some(t) = self.targets.get_mut(&info.id) {
                        t.record_addrs(&info);
                    } else {
                        found_new = true;
                        self.add_target(ctx, info);
                    }
                }
                if let Some(t) = self.targets.get_mut(&peer) {
                    if found_new {
                        t.empty_streak = 0;
                    } else {
                        t.empty_streak += 1;
                    }
                }
                self.sweep_next(ctx, peer);
            }
            _ => {}
        }
    }

    /// RPC timeout timer (token = req_id).
    pub fn handle_timer<C: std::fmt::Debug>(&mut self, ctx: &mut Ctx<'_, WireMsg, C>, token: u64) {
        if let Some(peer) = self.pending.remove(&token) {
            if let Some(t) = self.targets.get_mut(&peer) {
                t.outstanding = false;
                // One timeout ends this peer's sweep: the paper treats
                // unresponsive peers as un-crawlable leaves.
                t.done = true;
                self.check_done(ctx.now());
            }
        }
    }

    fn check_done(&mut self, now: SimTime) {
        if self.active && self.targets.values().all(|t| t.done) {
            self.finish(now);
        }
    }

    /// Close the running crawl at `now` with what it has seen so far and
    /// push its snapshot. Also the harness's way out when its wait runs
    /// out ([`crate::Campaign::crawl`]).
    pub fn finish(&mut self, now: SimTime) {
        self.active = false;
        let mut peers: Vec<CrawledPeer> = Vec::with_capacity(self.targets.len());
        let mut edges = Vec::new();
        let mut ordered: Vec<(&PeerId, &TargetState)> = self.targets.iter().collect();
        ordered.sort_by_key(|(p, _)| **p);
        for (peer, t) in ordered {
            let mut ips: Vec<Ipv4Addr> = t.seen_ips.iter().copied().chain(t.observed_ip).collect();
            ips.sort();
            ips.dedup();
            peers.push(CrawledPeer {
                peer: *peer,
                ips,
                agent: t.agent.as_deref().unwrap_or_default().to_string(),
                crawlable: t.crawlable,
            });
            let mut seen_edge = HashSet::default();
            for to in &t.edges {
                if seen_edge.insert(*to) {
                    edges.push((*peer, *to));
                }
            }
        }
        self.snapshots.push(CrawlSnapshot {
            crawl_id: self.crawl_id,
            started_ns: self.started.0,
            finished_ns: now.0,
            peers,
            edges,
        });
    }
}

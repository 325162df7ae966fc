//! The ecosystem actor: every participant type behind one `simnet::Actor`.

use crate::crawler::{Crawler, CrawlerCmd};
use crate::hydra::Hydra;
use ipfs_node::{IpfsNode, NodeCmd, WireMsg};
use ipfs_types::Cid;
use netgen::{RateStream, WorkloadSpec, ZipfSampler, N_REGIONS};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use simnet::{Actor, Ctx, Dur, NodeId, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Commands addressed to any ecosystem actor.
#[derive(Clone, Debug)]
pub enum EcoCmd {
    /// For IPFS nodes.
    Node(NodeCmd),
    /// For the crawler.
    Crawler(CrawlerCmd),
    /// For web users: GET `cid` via the frontend at `frontend`.
    WebGet {
        /// Frontend endpoint.
        frontend: NodeId,
        /// Content to request.
        cid: Cid,
    },
    /// Advance the web-user population's live replay stream by one tick
    /// (self-scheduled; the campaign fires the first one at window start).
    ReplayTick,
}

/// An HTTP reverse-proxy frontend fanning out to gateway overlay nodes.
#[derive(Clone, Debug, Default)]
pub struct Frontend {
    /// Overlay backends (empty = dead endpoint, always 404).
    pub backends: Vec<NodeId>,
    rr: usize,
    next_req: u64,
    pending: HashMap<u64, (NodeId, u64)>,
    queued: HashMap<NodeId, Vec<(u64, Cid)>>,
}

impl Frontend {
    /// Frontend over the given backends.
    pub fn new(backends: Vec<NodeId>) -> Frontend {
        Frontend {
            backends,
            ..Default::default()
        }
    }

    fn forward<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        client: NodeId,
        client_req: u64,
        cid: Cid,
    ) {
        if self.backends.is_empty() {
            ctx.send(
                client,
                WireMsg::HttpResponse {
                    req_id: client_req,
                    found: false,
                },
            );
            return;
        }
        let backend = self.backends[self.rr % self.backends.len()];
        self.rr += 1;
        let req_id = self.next_req;
        self.next_req += 1;
        self.pending.insert(req_id, (client, client_req));
        if ctx.is_connected(backend) {
            ctx.send(backend, WireMsg::HttpRequest { req_id, cid });
        } else {
            // One dial per endpoint: later requests wait behind it.
            let q = self.queued.entry(backend).or_default();
            if q.is_empty() {
                ctx.dial(backend);
            }
            q.push((req_id, cid));
        }
    }

    fn on_message<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        from: NodeId,
        msg: WireMsg,
    ) {
        match msg {
            WireMsg::HttpRequest { req_id, cid } => self.forward(ctx, from, req_id, cid),
            WireMsg::HttpResponse { req_id, found } => {
                if let Some((client, client_req)) = self.pending.remove(&req_id) {
                    ctx.send(
                        client,
                        WireMsg::HttpResponse {
                            req_id: client_req,
                            found,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    fn on_dial_result<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        ok: bool,
    ) {
        for (req_id, cid) in self.queued.remove(&target).unwrap_or_default() {
            if ok {
                ctx.send(target, WireMsg::HttpRequest { req_id, cid });
            } else if let Some((client, client_req)) = self.pending.remove(&req_id) {
                ctx.send(
                    client,
                    WireMsg::HttpResponse {
                        req_id: client_req,
                        found: false,
                    },
                );
            }
        }
    }
}

/// Direct fetches sampled in a tick are delivered to their fetcher nodes
/// as one [`simnet::Ev::CommandBatch`] per target, this far after the tick
/// boundary. Must stay comfortably above every cross-shard lookahead floor
/// (tens of milliseconds under the campaign latency model) so batches to
/// remote shards never violate the conservative-sync contract.
const REPLAY_FETCH_DELAY: Dur = Dur::from_secs(1);

/// Generative request driver carried by the [`WebUser`] actor in live
/// replay mode. Wiring tables (frontends, fetcher pools, CID catalog) are
/// resolved once at campaign build time; the rate stream and per-region
/// RNG streams advance tick by tick as the campaign runs, so no request
/// vector is ever materialised.
#[derive(Clone, Debug)]
pub struct ReplayDriver {
    /// The workload description (totals, curves, shares, flash crowd).
    pub spec: WorkloadSpec,
    stream: RateStream,
    sampler: ZipfSampler,
    /// Content index → CID (full catalog; the sampler ranks only the
    /// items published before the replay window opens).
    cids: Vec<Cid>,
    /// Functional gateway frontends with cumulative traffic weights.
    frontends: Vec<NodeId>,
    gw_cum: Vec<u64>,
    /// Per-region direct-fetch pools: segment-weighted copies of node
    /// ids, mirroring the static generator's fetcher mix.
    pools: [Vec<NodeId>; N_REGIONS],
    /// Per-region request streams (seed ⊕ region) plus a dedicated
    /// flash-crowd stream — each region's draw sequence is independent of
    /// how the others interleave, which keeps samples stable under any
    /// region-share reconfiguration.
    rngs: [StdRng; N_REGIONS],
    flash_rng: StdRng,
    /// Requests issued so far: `(http, direct fetch)`.
    pub issued: (u64, u64),
}

impl ReplayDriver {
    /// Build a driver from the spec and campaign wiring tables.
    /// `items` are `(content index, popularity weight)` pairs for the
    /// sampler; `gw_cum` must be the cumulative traffic weights aligned
    /// with `frontends` (strictly increasing, last = total).
    pub fn new(
        spec: WorkloadSpec,
        items: &[(u32, f64)],
        cids: Vec<Cid>,
        frontends: Vec<NodeId>,
        gw_cum: Vec<u64>,
        pools: [Vec<NodeId>; N_REGIONS],
    ) -> ReplayDriver {
        let stream = RateStream::new(&spec);
        let sampler = ZipfSampler::new(items);
        let rngs = std::array::from_fn(|r| StdRng::seed_from_u64(spec.seed ^ r as u64));
        let flash_rng = StdRng::seed_from_u64(spec.seed ^ 0xF1A5);
        ReplayDriver {
            spec,
            stream,
            sampler,
            cids,
            frontends,
            gw_cum,
            pools,
            rngs,
            flash_rng,
            issued: (0, 0),
        }
    }

    /// The CID a configured flash crowd hammers, if any.
    pub fn flash_cid(&self) -> Option<Cid> {
        let f = self.spec.flash?;
        if f.rank < self.sampler.len() {
            Some(self.cids[self.sampler.item_at_rank(f.rank) as usize])
        } else {
            None
        }
    }
}

/// An HTTP user population: fires GETs at gateway frontends.
#[derive(Clone, Debug, Default)]
pub struct WebUser {
    next_req: u64,
    queued: HashMap<NodeId, Vec<(u64, Cid)>>,
    /// Outcomes: `(ts, found)`.
    pub outcomes: Vec<(SimTime, bool)>,
    /// Live replay state (`None` in static-trace campaigns). Boxed so the
    /// idle-population variant of [`EcoActor`] stays small — the driver
    /// carries the spec, sampler table, and per-region RNG streams.
    pub replay: Option<Box<ReplayDriver>>,
}

impl WebUser {
    /// Fresh user population actor.
    pub fn new() -> WebUser {
        WebUser::default()
    }

    /// User population in live replay mode.
    pub fn with_replay(driver: ReplayDriver) -> WebUser {
        WebUser {
            replay: Some(Box::new(driver)),
            ..Default::default()
        }
    }

    /// One replay tick: emit this tick's request counts, sample CIDs and
    /// routes, fire HTTP gets, batch direct fetches per fetcher node, and
    /// self-schedule the next tick while the stream has more to give.
    fn replay_tick(&mut self, ctx: &mut Ctx<'_, WireMsg, EcoCmd>) {
        // Take/put-back so the driver and `self.get` can be borrowed
        // side by side; nothing below touches `self.replay`.
        let Some(mut rep) = self.replay.take() else {
            return;
        };
        let more = self.drive_replay_tick(ctx, &mut rep);
        let tick = rep.spec.tick;
        self.replay = Some(rep);
        if more {
            ctx.schedule_self(tick, EcoCmd::ReplayTick);
        }
    }

    fn drive_replay_tick(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, EcoCmd>,
        rep: &mut ReplayDriver,
    ) -> bool {
        let Some((at, em)) = rep.stream.emit(&rep.spec) else {
            return false;
        };
        if rep.sampler.is_empty() {
            return false; // nothing fetchable: stop ticking
        }
        let flash = rep
            .spec
            .flash
            .filter(|f| f.active_at(at))
            .map(|f| (f.rank, f.boost));
        let range = rep.sampler.range(flash);
        let http_share = rep.spec.http_share_permille as u64;
        let mut direct: BTreeMap<NodeId, Vec<EcoCmd>> = BTreeMap::new();
        for r in 0..N_REGIONS {
            for _ in 0..em.per_region[r] {
                let x = rep.rngs[r].random_range(0..range);
                let cid = rep.cids[rep.sampler.sample(x, flash) as usize];
                let roll: u64 = rep.rngs[r].random_range(0..1000);
                let via_http =
                    (roll < http_share || rep.pools[r].is_empty()) && !rep.frontends.is_empty();
                if via_http {
                    let total = *rep.gw_cum.last().unwrap();
                    let g = rep.rngs[r].random_range(0..total);
                    let fe = rep.frontends[rep.gw_cum.partition_point(|c| *c <= g)];
                    rep.issued.0 += 1;
                    self.get(ctx, fe, cid);
                } else if !rep.pools[r].is_empty() {
                    let pool = &rep.pools[r];
                    let node = pool[rep.rngs[r].random_range(0..pool.len())];
                    rep.issued.1 += 1;
                    direct
                        .entry(node)
                        .or_default()
                        .push(EcoCmd::Node(NodeCmd::Fetch { cid }));
                }
            }
        }
        // Flash-crowd extras: the crowd arrives over HTTP (sudden external
        // demand hits the gateways first), all for the flash CID.
        if em.flash_extra > 0 && !rep.frontends.is_empty() {
            if let Some(cid) = rep.flash_cid() {
                for _ in 0..em.flash_extra {
                    let total = *rep.gw_cum.last().unwrap();
                    let g = rep.flash_rng.random_range(0..total);
                    let fe = rep.frontends[rep.gw_cum.partition_point(|c| *c <= g)];
                    rep.issued.0 += 1;
                    self.get(ctx, fe, cid);
                }
            }
        }
        // Direct fetches leave as one command batch per fetcher node —
        // one timer-wheel entry each instead of one per request.
        for (node, cmds) in direct {
            ctx.schedule_batch(node, REPLAY_FETCH_DELAY, cmds);
        }
        true
    }

    fn get<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        frontend: NodeId,
        cid: Cid,
    ) {
        let req_id = self.next_req;
        self.next_req += 1;
        if ctx.is_connected(frontend) {
            ctx.send(frontend, WireMsg::HttpRequest { req_id, cid });
        } else {
            // One dial per endpoint: later requests wait behind it.
            let q = self.queued.entry(frontend).or_default();
            if q.is_empty() {
                ctx.dial(frontend);
            }
            q.push((req_id, cid));
        }
    }

    fn on_dial_result<C: std::fmt::Debug>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, C>,
        target: NodeId,
        ok: bool,
    ) {
        for (req_id, cid) in self.queued.remove(&target).unwrap_or_default() {
            if ok {
                ctx.send(target, WireMsg::HttpRequest { req_id, cid });
            } else {
                self.outcomes.push((ctx.now(), false));
            }
        }
    }
}

/// Every participant of the simulated ecosystem. `Clone` snapshots the
/// participant wholesale — the campaign-fork machinery clones every actor
/// together with the engine state.
#[derive(Clone)]
pub enum EcoActor {
    /// A full IPFS node (regular, platform, monitor, gateway overlay…).
    Node(Box<IpfsNode>),
    /// The DHT crawler.
    Crawler(Box<Crawler>),
    /// A Hydra-booster host.
    Hydra(Box<Hydra>),
    /// A gateway HTTP frontend.
    Frontend(Frontend),
    /// The web-user population.
    WebUser(WebUser),
}

impl EcoActor {
    /// Borrow the inner node (panics on other variants).
    pub fn node(&self) -> &IpfsNode {
        match self {
            EcoActor::Node(n) => n,
            _ => panic!("not a node actor"),
        }
    }

    /// Mutable inner node.
    pub fn node_mut(&mut self) -> &mut IpfsNode {
        match self {
            EcoActor::Node(n) => n,
            _ => panic!("not a node actor"),
        }
    }

    /// Borrow the crawler (panics on other variants).
    pub fn crawler(&self) -> &Crawler {
        match self {
            EcoActor::Crawler(c) => c,
            _ => panic!("not a crawler actor"),
        }
    }

    /// Mutable crawler.
    pub fn crawler_mut(&mut self) -> &mut Crawler {
        match self {
            EcoActor::Crawler(c) => c,
            _ => panic!("not a crawler actor"),
        }
    }

    /// Borrow the web-user population (panics on other variants).
    pub fn webuser(&self) -> &WebUser {
        match self {
            EcoActor::WebUser(w) => w,
            _ => panic!("not a webuser actor"),
        }
    }

    /// Borrow the hydra (panics on other variants).
    pub fn hydra(&self) -> &Hydra {
        match self {
            EcoActor::Hydra(h) => h,
            _ => panic!("not a hydra actor"),
        }
    }
}

impl Actor for EcoActor {
    type Msg = WireMsg;
    type Cmd = EcoCmd;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg, EcoCmd>) {
        match self {
            EcoActor::Node(n) => n.handle_start(ctx),
            EcoActor::Hydra(h) => h.handle_start(ctx),
            EcoActor::Frontend(f) => {
                // Pre-dial backends so forwarding has warm connections.
                let backends = f.backends.clone();
                for b in backends {
                    ctx.dial(b);
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg, EcoCmd>, from: NodeId, msg: WireMsg) {
        match self {
            EcoActor::Node(n) => n.handle_message(ctx, from, msg),
            EcoActor::Crawler(c) => c.handle_message(ctx, from, msg),
            EcoActor::Hydra(h) => h.handle_message(ctx, from, msg),
            EcoActor::Frontend(f) => f.on_message(ctx, from, msg),
            EcoActor::WebUser(w) => {
                if let WireMsg::HttpResponse { found, .. } = msg {
                    w.outcomes.push((ctx.now(), found));
                }
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, WireMsg, EcoCmd>, cmd: EcoCmd) {
        match (self, cmd) {
            (EcoActor::Node(n), EcoCmd::Node(c)) => n.handle_command(ctx, c),
            (EcoActor::Crawler(cr), EcoCmd::Crawler(c)) => cr.handle_command(ctx, c),
            (EcoActor::WebUser(w), EcoCmd::WebGet { frontend, cid }) => w.get(ctx, frontend, cid),
            (EcoActor::WebUser(w), EcoCmd::ReplayTick) => w.replay_tick(ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg, EcoCmd>, token: u64) {
        match self {
            EcoActor::Node(n) => n.handle_timer(ctx, token),
            EcoActor::Crawler(c) => c.handle_timer(ctx, token),
            EcoActor::Hydra(h) => h.handle_timer(ctx, token),
            _ => {}
        }
    }

    fn on_inbound_connection(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, EcoCmd>,
        from: NodeId,
        relayed: bool,
    ) {
        match self {
            EcoActor::Node(n) => n.handle_inbound(ctx, from, relayed),
            EcoActor::Hydra(h) => h.handle_inbound(ctx, from),
            _ => {}
        }
    }

    fn on_dial_result(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg, EcoCmd>,
        target: NodeId,
        ok: bool,
        relayed: bool,
    ) {
        match self {
            EcoActor::Node(n) => n.handle_dial_result(ctx, target, ok, relayed),
            EcoActor::Crawler(c) => c.handle_dial_result(ctx, target, ok),
            EcoActor::Hydra(h) => h.handle_dial_result(ctx, target, ok),
            EcoActor::Frontend(f) => f.on_dial_result(ctx, target, ok),
            EcoActor::WebUser(w) => w.on_dial_result(ctx, target, ok),
        }
    }

    fn on_connection_closed(&mut self, ctx: &mut Ctx<'_, WireMsg, EcoCmd>, peer: NodeId) {
        if let EcoActor::Node(n) = self {
            n.handle_connection_closed(ctx, peer);
        }
    }
}

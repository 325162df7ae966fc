//! The RPC paths of the Hydra and the crawler, driven by scripted puppets:
//! the Hydra's proactive walks (cache fill, cap, timeouts, which peers
//! enter and leave its table), what its answers name, and a crawl target
//! that never answers.

use ipfs_node::WireMsg;
use ipfs_types::{Cid, PeerId};
use kademlia::{
    DhtMessage, DhtRequest, DhtResponse, PeerInfo, ProviderRecord, WireRequest, RPC_TIMEOUT,
};
use simnet::{Ctx, Dur, LatencyModel, NodeId, NodeSetup, Sim, SimConfig, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tcsb_core::hydra::MAX_PROACTIVE;
use tcsb_core::{CrawledPeer, Crawler, CrawlerCmd, Hydra};

/// The actor under test (endpoint 0) among scripted endpoints that dial
/// and say exactly what a test tells them to.
enum Scripted {
    Hydra(Box<Hydra>),
    Crawler(Box<Crawler>),
    /// A puppet that keeps every DHT message it is sent.
    Puppet(Vec<DhtMessage>),
}

#[derive(Debug)]
enum Script {
    Crawl(CrawlerCmd),
    Dial(NodeId),
    Say(NodeId, WireMsg),
}

type Cx<'a> = Ctx<'a, WireMsg, Script>;

impl simnet::Actor for Scripted {
    type Msg = WireMsg;
    type Cmd = Script;

    fn on_start(&mut self, ctx: &mut Cx<'_>) {
        if let Scripted::Hydra(h) = self {
            h.handle_start(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Cx<'_>, from: NodeId, msg: WireMsg) {
        match self {
            Scripted::Hydra(h) => h.handle_message(ctx, from, msg),
            Scripted::Crawler(c) => c.handle_message(ctx, from, msg),
            Scripted::Puppet(got) => {
                if let WireMsg::Dht(m) = msg {
                    got.push(m);
                }
            }
        }
    }
    fn on_command(&mut self, ctx: &mut Cx<'_>, cmd: Script) {
        match (self, cmd) {
            (Scripted::Crawler(c), Script::Crawl(cmd)) => c.handle_command(ctx, cmd),
            (_, Script::Dial(to)) => ctx.dial(to),
            (_, Script::Say(to, msg)) => assert!(ctx.send(to, msg), "not connected to {to:?}"),
            (_, cmd) => panic!("misaddressed {cmd:?}"),
        }
    }
    fn on_timer(&mut self, ctx: &mut Cx<'_>, token: u64) {
        match self {
            Scripted::Hydra(h) => h.handle_timer(ctx, token),
            Scripted::Crawler(c) => c.handle_timer(ctx, token),
            Scripted::Puppet(_) => {}
        }
    }
    fn on_inbound_connection(&mut self, ctx: &mut Cx<'_>, from: NodeId, _relayed: bool) {
        if let Scripted::Hydra(h) = self {
            h.handle_inbound(ctx, from);
        }
    }
    fn on_dial_result(&mut self, ctx: &mut Cx<'_>, target: NodeId, ok: bool, _relayed: bool) {
        match self {
            Scripted::Hydra(h) => h.handle_dial_result(ctx, target, ok),
            Scripted::Crawler(c) => c.handle_dial_result(ctx, target, ok),
            Scripted::Puppet(_) => {}
        }
    }
}

const UNDER_TEST: NodeId = NodeId(0);

fn ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000u32 + i + 1) // 10.x.y.z
}

fn peer_at(id: PeerId, endpoint: NodeId) -> PeerInfo {
    PeerInfo {
        id,
        addrs: kademlia::no_addrs(),
        endpoint,
    }
}

/// The identity puppet `p` speaks as.
fn puppet_id(p: NodeId) -> PeerId {
    PeerId::from_seed(100 + p.0 as u64)
}

struct Stage {
    sim: Sim<Scripted>,
}

impl Stage {
    /// `actor` at endpoint 0, then `puppets` silent puppets at 1, 2, ….
    fn new(actor: Scripted, puppets: u32) -> Stage {
        let mut sim: Sim<Scripted> = Sim::new(
            SimConfig::default(),
            LatencyModel::uniform(Dur::from_millis(20), 0.0),
            5,
        );
        sim.add_node(actor, NodeSetup::public(ip(0)));
        for i in 1..=puppets {
            sim.add_node(Scripted::Puppet(Vec::new()), NodeSetup::public(ip(i)));
        }
        let mut stage = Stage { sim };
        stage.settle();
        stage
    }

    /// A Hydra whose table holds `servers` (puppets 1..=servers, by
    /// bootstrap), and one more puppet after them, connected to the Hydra
    /// and speaking as a DHT client. Returns the stage and that client.
    /// The puppet after the client is a newcomer: unknown to the Hydra
    /// and not connected to it.
    fn hydra(servers: u32) -> (Stage, NodeId) {
        let bootstrap = (1..=servers)
            .map(|i| (puppet_id(NodeId(i)), NodeId(i)))
            .collect();
        let hydra = Scripted::Hydra(Box::new(Hydra::new(1_000, bootstrap)));
        let mut st = Stage::new(hydra, servers + 2);
        let client = NodeId(servers + 1);
        st.tell(client, Script::Dial(UNDER_TEST));
        (st, client)
    }

    fn settle(&mut self) {
        self.sim.run_for(Dur::from_secs(1));
    }

    /// Run one command and let its consequences settle.
    fn tell(&mut self, who: NodeId, cmd: Script) {
        self.sim.schedule_command(self.sim.now(), who, cmd);
        self.settle();
    }

    /// `puppet` sends each request to the actor under test at once, as a
    /// DHT server or client; the answers settle afterwards.
    fn ask(&mut self, puppet: NodeId, server: bool, reqs: impl IntoIterator<Item = DhtRequest>) {
        let sender = Arc::new(peer_at(puppet_id(puppet), puppet));
        for (req_id, req) in (1..).zip(reqs) {
            let msg = DhtMessage::request(req_id, sender.clone(), server, req);
            let say = Script::Say(UNDER_TEST, WireMsg::Dht(msg));
            self.sim.schedule_command(self.sim.now(), puppet, say);
        }
        self.settle();
    }

    /// `puppet` answers the request `req_id` it was sent.
    fn answer(&mut self, puppet: NodeId, req_id: u64, resp: DhtResponse) {
        let msg = DhtMessage::Response { req_id, resp };
        self.tell(puppet, Script::Say(UNDER_TEST, WireMsg::Dht(msg)));
    }

    fn got(&self, puppet: NodeId) -> &[DhtMessage] {
        match self.sim.actor(puppet) {
            Scripted::Puppet(got) => got,
            _ => unreachable!("endpoint {puppet:?} is not a puppet"),
        }
    }

    /// The requests `puppet` was sent, as `(req_id, request)`.
    fn requests(&self, puppet: NodeId) -> Vec<(u64, WireRequest)> {
        let got = self.got(puppet).iter();
        got.filter_map(|m| match m {
            DhtMessage::Request { req_id, req, .. } => Some((*req_id, req.clone())),
            DhtMessage::Response { .. } => None,
        })
        .collect()
    }

    /// The peers the Hydra's answer to a `FindNode` from `client` names,
    /// sorted: what its routing table holds, apart from the client.
    fn table_seen_by(&mut self, client: NodeId) -> Vec<PeerId> {
        let target = puppet_id(client).key();
        self.ask(client, false, [DhtRequest::FindNode { target }]);
        let Some(DhtResponse::Nodes { closer }) = self.answers(client).pop() else {
            panic!("expected Nodes");
        };
        let mut named: Vec<PeerId> = closer.iter().map(|p| p.id).collect();
        named.sort();
        named
    }

    /// The answers `puppet` was sent, in order.
    fn answers(&self, puppet: NodeId) -> Vec<DhtResponse> {
        let got = self.got(puppet).iter();
        got.filter_map(|m| match m {
            DhtMessage::Response { resp, .. } => Some(resp.clone()),
            DhtMessage::Request { .. } => None,
        })
        .collect()
    }

    fn crawler(&self) -> &Crawler {
        match self.sim.actor(UNDER_TEST) {
            Scripted::Crawler(c) => c,
            _ => unreachable!("endpoint 0 is not the crawler"),
        }
    }
}

fn get_providers(seed: u64) -> DhtRequest {
    DhtRequest::GetProviders {
        cid: Cid::from_seed(seed),
    }
}

fn record(cid: Cid, provider: PeerId) -> ProviderRecord {
    ProviderRecord {
        cid,
        provider,
        addrs: kademlia::no_addrs(),
        endpoint: NodeId(99),
        relay_endpoint: None,
        stored_at: SimTime::ZERO,
    }
}

// ----------------------------------------------------------------------
// Hydra: proactive walks
// ----------------------------------------------------------------------

#[test]
fn hydra_miss_fills_the_cache_for_the_next_request() {
    let (mut st, client) = Stage::hydra(1);
    let server = NodeId(1);
    let cid = Cid::from_seed(1);
    st.ask(client, false, [get_providers(1)]);
    let walk = st.requests(server);
    assert_eq!(walk.len(), 1, "one proactive walk, one query");
    assert_eq!(walk[0].1, WireRequest::GetProviders { cid });
    let provider = PeerId::from_seed(500);
    let body = DhtResponse::Providers {
        providers: vec![record(cid, provider)],
        closer: Vec::new(),
    };
    st.answer(server, walk[0].0, body);
    // The second request is answered from the cache, and starts no walk.
    st.ask(client, false, [get_providers(1)]);
    assert_eq!(st.requests(server).len(), 1, "a second walk started");
    let answers = st.answers(client);
    assert_eq!(answers.len(), 2);
    let providers = |a: &DhtResponse| match a {
        DhtResponse::Providers { providers, .. } => {
            providers.iter().map(|r| r.provider).collect::<Vec<_>>()
        }
        other => panic!("expected Providers, got {other:?}"),
    };
    assert_eq!(providers(&answers[0]), Vec::new());
    assert_eq!(providers(&answers[1]), vec![provider]);
}

#[test]
fn hydra_at_the_walk_cap_starts_no_walk_on_a_miss() {
    let (mut st, client) = Stage::hydra(1);
    let server = NodeId(1);
    st.ask(client, false, (0..MAX_PROACTIVE as u64).map(get_providers));
    assert_eq!(st.requests(server).len(), MAX_PROACTIVE);
    // The server answers none of them: every walk is still running.
    st.ask(client, false, [get_providers(1_000)]);
    assert_eq!(st.requests(server).len(), MAX_PROACTIVE);
    assert_eq!(
        st.answers(client).len(),
        MAX_PROACTIVE + 1,
        "a miss is still answered"
    );
}

#[test]
fn hydra_unanswered_query_expires_and_frees_its_walk_slot() {
    let (mut st, client) = Stage::hydra(1);
    let (server, newcomer) = (NodeId(1), NodeId(3));
    let asked = st.sim.now();
    st.ask(client, false, (0..MAX_PROACTIVE as u64).map(get_providers));
    let first = st.requests(server)[0].0;
    // Before the queries time out, every slot is still taken.
    st.sim.run_until(asked + RPC_TIMEOUT * 0.5);
    st.ask(client, false, [get_providers(1_000)]);
    assert_eq!(st.requests(server).len(), MAX_PROACTIVE);
    // After it, each query has failed: the silent server left the table,
    // and each walk, left with no peer to ask, finished and freed its
    // slot. Once a second server joins, a miss walks again, to it.
    st.sim.run_until(asked + RPC_TIMEOUT * 1.5);
    st.tell(newcomer, Script::Dial(UNDER_TEST));
    st.ask(newcomer, true, [DhtRequest::Ping]);
    st.ask(client, false, [get_providers(1_001)]);
    assert_eq!(st.requests(server).len(), MAX_PROACTIVE);
    let walk = st.requests(newcomer);
    assert_eq!(walk.len(), 1);
    assert_eq!(
        walk[0].1,
        WireRequest::GetProviders {
            cid: Cid::from_seed(1_001),
        }
    );
    // A failed query stays failed: its late answer fills no cache, and the
    // next request for that CID misses and walks again.
    let cid = Cid::from_seed(0);
    let body = DhtResponse::Providers {
        providers: vec![record(cid, PeerId::from_seed(500))],
        closer: Vec::new(),
    };
    st.answer(server, first, body);
    st.ask(client, false, [get_providers(0)]);
    assert_eq!(st.requests(newcomer).len(), 2);
    let Some(DhtResponse::Providers { providers, .. }) = st.answers(client).pop() else {
        panic!("expected Providers");
    };
    assert!(providers.is_empty(), "a late answer entered the cache");
}

#[test]
fn hydra_drops_servers_that_leave_its_walk_queries_unanswered() {
    let (mut st, client) = Stage::hydra(2);
    let (a, b) = (NodeId(1), NodeId(2));
    let mut both = vec![puppet_id(a), puppet_id(b)];
    both.sort();
    assert_eq!(st.table_seen_by(client), both);
    // A miss walks to both servers; neither answers before the timeout.
    let asked = st.sim.now();
    st.ask(client, false, [get_providers(1)]);
    assert_eq!((st.requests(a).len(), st.requests(b).len()), (1, 1));
    st.sim.run_until(asked + RPC_TIMEOUT * 1.5);
    assert_eq!(st.table_seen_by(client), Vec::<PeerId>::new());
}

#[test]
fn hydra_walk_admits_the_responder_not_the_peers_it_names() {
    let (mut st, client) = Stage::hydra(1);
    let (server, newcomer) = (NodeId(1), NodeId(3));
    let named_only = PeerId::from_seed(500);
    st.ask(client, false, [get_providers(1)]);
    let walk = st.requests(server);
    assert_eq!(walk.len(), 1);
    // The server names the newcomer, and the newcomer names a peer at the
    // client's endpoint, which never answers.
    let closer = vec![peer_at(puppet_id(newcomer), newcomer)];
    let body = DhtResponse::Providers {
        providers: Vec::new(),
        closer,
    };
    st.answer(server, walk[0].0, body);
    assert_eq!(st.table_seen_by(client), vec![puppet_id(server)]);
    let walk = st.requests(newcomer);
    assert_eq!(walk.len(), 1, "the walk goes on to the named peer");
    let body = DhtResponse::Providers {
        providers: Vec::new(),
        closer: vec![peer_at(named_only, client)],
    };
    st.answer(newcomer, walk[0].0, body);
    let mut want = vec![puppet_id(server), puppet_id(newcomer)];
    want.sort();
    assert_eq!(st.table_seen_by(client), want);
}

// ----------------------------------------------------------------------
// Hydra: answers never name the requester
// ----------------------------------------------------------------------

#[test]
fn hydra_never_names_the_requester() {
    let (mut st, _) = Stage::hydra(2);
    let (asker, other) = (NodeId(1), NodeId(2));
    let target = puppet_id(asker).key();
    st.ask(
        asker,
        true,
        [DhtRequest::FindNode { target }, get_providers(1)],
    );
    let answers = st.answers(asker);
    assert_eq!(answers.len(), 2);
    for answer in answers {
        let (closer, _) = answer.into_parts();
        let named: Vec<PeerId> = closer.iter().map(|p| p.id).collect();
        assert_eq!(
            named,
            vec![puppet_id(other)],
            "the answer names the requester"
        );
    }
}

// ----------------------------------------------------------------------
// Crawler: a target that never answers
// ----------------------------------------------------------------------

#[test]
fn crawl_target_that_never_answers_times_out_uncrawlable() {
    let mut st = Stage::new(Scripted::Crawler(Box::default()), 1);
    let silent = NodeId(1);
    let seeds = vec![(puppet_id(silent), silent)];
    let started = st.sim.now();
    st.tell(
        UNDER_TEST,
        Script::Crawl(CrawlerCmd::Start { id: 1, seeds }),
    );
    let sweep = st.requests(silent);
    assert_eq!(sweep.len(), 1, "one FindNode in flight");
    // Still waiting just before the query times out...
    st.sim.run_until(started + RPC_TIMEOUT);
    assert!(st.crawler().is_active());
    // ... and done just after: the target is an un-crawlable leaf.
    st.settle();
    assert!(!st.crawler().is_active());
    let snapshots = st.crawler().snapshots.clone();
    assert_eq!(snapshots.len(), 1);
    let want = CrawledPeer {
        peer: puppet_id(silent),
        ips: vec![ip(1)],
        agent: String::new(),
        crawlable: false,
    };
    assert_eq!(snapshots[0].peers, vec![want]);
    assert!(snapshots[0].edges.is_empty());
    // A late answer naming a new peer changes nothing.
    let closer = vec![peer_at(PeerId::from_seed(500), NodeId(7))];
    st.answer(silent, sweep[0].0, DhtResponse::Nodes { closer });
    assert!(!st.crawler().is_active());
    assert_eq!(st.crawler().snapshots, snapshots);
}

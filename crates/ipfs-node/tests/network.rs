//! End-to-end protocol tests on small simulated networks.

use bitswap::{Bitswap, BitswapMessage, MemoryBlockstore, WantEntry, WantType};
use ipfs_node::{IpfsNode, NodeActor, NodeCmd, NodeConfig, NodeEvent, WireMsg};
use ipfs_types::{Cid, PeerId};
use kademlia::DhtResponse;
use simnet::{Dur, LatencyModel, NodeId, NodeSetup, Sim, SimConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000u32 + i + 1) // 10.x.y.z
}

/// Build a network of `n` public nodes (node 0 is the bootstrap), all
/// started and bootstrapped, with events recorded.
fn build_network(n: u32, seed: u64) -> (Sim<NodeActor>, Vec<NodeId>) {
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(30), 0.3), seed);
    let mut ids = Vec::new();
    let boot_identity = 1_000_000u64;
    let boot_peer = ipfs_types::Keypair::from_seed(boot_identity).peer_id();
    for i in 0..n {
        let mut nc = NodeConfig::regular(if i == 0 { boot_identity } else { i as u64 });
        nc.record_events = true;
        nc.refresh_interval = Dur::from_mins(30);
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        let node = IpfsNode::new(nc);
        let id = sim.add_node(NodeActor(node), NodeSetup::public(ip(i)));
        ids.push(id);
    }
    (sim, ids)
}

#[test]
fn nodes_bootstrap_and_fill_tables() {
    let (mut sim, ids) = build_network(30, 1);
    sim.run_for(Dur::from_mins(10));
    let mut sizes = Vec::new();
    for &id in &ids[1..] {
        let table = sim.actor(id).0.dht().table();
        sizes.push(table.len());
    }
    let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    assert!(avg > 15.0, "tables too sparse after bootstrap: avg {avg}");
    // Everyone bootstrapped.
    for &id in &ids[1..] {
        assert!(
            sim.actor(id).0.events.contains(&NodeEvent::Bootstrapped),
            "node {id:?} failed to bootstrap"
        );
    }
}

#[test]
fn publish_then_fetch_via_dht() {
    let (mut sim, ids) = build_network(25, 2);
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(777);
    // Node 5 publishes; node 17 fetches (no prior Bitswap relationship —
    // must go through DHT provider records).
    sim.schedule_command(sim.now(), ids[5], NodeCmd::Publish { cid, size: 4096 });
    sim.run_for(Dur::from_mins(2));
    // The publisher registered records at resolvers.
    let provided = sim.actor(ids[5]).0.events.iter().any(
        |e| matches!(e, NodeEvent::Provided { cid: c, resolvers } if *c == cid && *resolvers > 0),
    );
    assert!(
        provided,
        "publish did not complete: {:?}",
        sim.actor(ids[5]).0.events
    );

    sim.schedule_command(sim.now(), ids[17], NodeCmd::Fetch { cid });
    sim.run_for(Dur::from_mins(3));
    let fetched = sim
        .actor(ids[17])
        .0
        .events
        .iter()
        .find(|e| matches!(e, NodeEvent::FetchCompleted { cid: c, .. } if *c == cid));
    assert!(
        fetched.is_some(),
        "fetch failed: {:?}",
        sim.actor(ids[17]).0.events
    );
    assert!(sim.actor(ids[17]).0.store().has(&cid));
}

#[test]
fn fetch_via_bitswap_neighbors_skips_dht() {
    let (mut sim, ids) = build_network(10, 3);
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(42);
    sim.schedule_command(sim.now(), ids[3], NodeCmd::Publish { cid, size: 100 });
    sim.run_for(Dur::from_mins(1));
    // In a 10-node network everyone is connected to everyone after
    // bootstrap, so the 1-hop broadcast finds the block.
    sim.schedule_command(sim.now(), ids[7], NodeCmd::Fetch { cid });
    sim.run_for(Dur::from_mins(1));
    let ev = sim.actor(ids[7]).0.events.iter().find_map(|e| match e {
        NodeEvent::FetchCompleted {
            cid: c, via_dht, ..
        } if *c == cid => Some(*via_dht),
        _ => None,
    });
    assert_eq!(
        ev,
        Some(false),
        "expected bitswap-only fetch: {:?}",
        sim.actor(ids[7]).0.events
    );
}

#[test]
fn fetch_missing_content_fails_cleanly() {
    let (mut sim, ids) = build_network(15, 4);
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(31337); // never published
    sim.schedule_command(sim.now(), ids[2], NodeCmd::Fetch { cid });
    sim.run_for(Dur::from_mins(5));
    let failed = sim
        .actor(ids[2])
        .0
        .events
        .iter()
        .any(|e| matches!(e, NodeEvent::FetchFailed { cid: c } if *c == cid));
    assert!(
        failed,
        "expected clean failure: {:?}",
        sim.actor(ids[2]).0.events
    );
}

#[test]
fn nat_node_acquires_relay_and_serves_content() {
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(20), 0.2), 5);
    let boot_peer = ipfs_types::Keypair::from_seed(1_000_000).peer_id();
    let mut ids = Vec::new();
    for i in 0..20u32 {
        let mut nc = NodeConfig::regular(if i == 0 { 1_000_000 } else { i as u64 });
        nc.record_events = true;
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        let setup = if i == 19 {
            NodeSetup::nat(ip(i)) // the last node is NAT-ed
        } else {
            NodeSetup::public(ip(i))
        };
        ids.push(sim.add_node(NodeActor(IpfsNode::new(nc)), setup));
    }
    sim.run_for(Dur::from_mins(10));
    let nat = &sim.actor(ids[19]).0;
    assert!(!nat.dht().is_server(), "NAT-ed node must be a DHT client");
    assert!(
        nat.relay().is_some(),
        "NAT-ed node failed to acquire a relay: {:?}",
        nat.events
    );
    // NAT-ed node publishes; a public node fetches through the relay.
    let cid = Cid::from_seed(2024);
    sim.schedule_command(sim.now(), ids[19], NodeCmd::Publish { cid, size: 512 });
    sim.run_for(Dur::from_mins(2));
    sim.schedule_command(sim.now(), ids[4], NodeCmd::Fetch { cid });
    sim.run_for(Dur::from_mins(3));
    let got = sim
        .actor(ids[4])
        .0
        .events
        .iter()
        .any(|e| matches!(e, NodeEvent::FetchCompleted { cid: c, .. } if *c == cid));
    assert!(
        got,
        "fetch through relay failed: {:?}",
        sim.actor(ids[4]).0.events
    );
}

#[test]
fn provider_records_carry_relay_circuit_addrs() {
    // Direct inspection: a NAT-ed provider's records must embed the relay.
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(20), 0.2), 6);
    let boot_peer = ipfs_types::Keypair::from_seed(1_000_000).peer_id();
    let mut ids = Vec::new();
    for i in 0..15u32 {
        let mut nc = NodeConfig::regular(if i == 0 { 1_000_000 } else { i as u64 });
        nc.record_events = true;
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        let setup = if i == 14 {
            NodeSetup::nat(ip(i))
        } else {
            NodeSetup::public(ip(i))
        };
        ids.push(sim.add_node(NodeActor(IpfsNode::new(nc)), setup));
    }
    sim.run_for(Dur::from_mins(10));
    let cid = Cid::from_seed(99);
    sim.schedule_command(sim.now(), ids[14], NodeCmd::Publish { cid, size: 64 });
    sim.run_for(Dur::from_mins(2));
    // Find the record on some resolver.
    let mut found_circuit = false;
    for &id in &ids[..14] {
        let node = &sim.actor(id).0;
        if node
            .dht()
            .providers()
            .has_provider(&cid, &sim.actor(ids[14]).0.peer_id())
        {
            found_circuit = true;
        }
    }
    assert!(
        found_circuit,
        "no resolver holds the NAT-ed provider's record"
    );
    // And the NAT-ed node's own advertised record is a circuit address.
    let nat = &sim.actor(ids[14]).0;
    assert!(nat.relay().is_some());
}

#[test]
fn gateway_serves_http_and_caches() {
    let (mut sim, ids) = build_network(20, 7);
    // Make node 1 a gateway.
    sim.actor_mut(ids[1]).0.cfg.is_gateway = true;
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(555);
    sim.schedule_command(sim.now(), ids[9], NodeCmd::Publish { cid, size: 2048 });
    sim.run_for(Dur::from_mins(2));
    // Node 15 acts as HTTP client hitting the gateway.
    sim.schedule_command(
        sim.now(),
        ids[15],
        NodeCmd::HttpGet {
            frontend: ids[1],
            cid,
        },
    );
    sim.run_for(Dur::from_mins(3));
    let gw = &sim.actor(ids[1]).0;
    let served: Vec<&NodeEvent> = gw
        .events
        .iter()
        .filter(|e| matches!(e, NodeEvent::HttpServed { .. }))
        .collect();
    assert!(
        !served.is_empty(),
        "gateway served nothing: {:?}",
        gw.events
    );
    assert!(
        matches!(served[0], NodeEvent::HttpServed { found: true, .. }),
        "gateway 404: {served:?}"
    );
    // Gateway now caches the content (it fetched it).
    assert!(gw.store().has(&cid));
    // Second request: cache hit.
    sim.schedule_command(
        sim.now(),
        ids[16],
        NodeCmd::HttpGet {
            frontend: ids[1],
            cid,
        },
    );
    sim.run_for(Dur::from_mins(1));
    let gw = &sim.actor(ids[1]).0;
    let cache_hits = gw
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                NodeEvent::HttpServed {
                    cache_hit: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(cache_hits, 1, "expected a cache hit: {:?}", gw.events);
}

#[test]
fn concurrent_gateway_requests_for_same_cid_coalesce() {
    // Regression: a second HTTP request arriving while the gateway was
    // already fetching the same CID used to be dropped on the floor —
    // the client hung until its own timeout and the gateway never
    // answered. Both requests must now share the in-flight fetch.
    let (mut sim, ids) = build_network(20, 9);
    sim.actor_mut(ids[1]).0.cfg.is_gateway = true;
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(808);
    sim.schedule_command(sim.now(), ids[9], NodeCmd::Publish { cid, size: 2048 });
    sim.run_for(Dur::from_mins(2));
    // Two clients race for the same CID; the gateway sees the second
    // request while the first fetch is still in flight.
    for &client in &[ids[15], ids[16]] {
        sim.schedule_command(
            sim.now(),
            client,
            NodeCmd::HttpGet {
                frontend: ids[1],
                cid,
            },
        );
    }
    sim.run_for(Dur::from_mins(3));
    let gw = &sim.actor(ids[1]).0;
    let served_ok = gw
        .events
        .iter()
        .filter(|e| matches!(e, NodeEvent::HttpServed { found: true, .. }))
        .count();
    assert_eq!(
        served_ok, 2,
        "both coalesced requests must be answered: {:?}",
        gw.events
    );
    // Only one fetch pipeline ran for the pair.
    let fetches = gw
        .events
        .iter()
        .filter(|e| matches!(e, NodeEvent::FetchCompleted { cid: c, .. } if *c == cid))
        .count();
    assert_eq!(fetches, 1, "requests must share one fetch: {:?}", gw.events);
}

#[test]
fn resolve_providers_exhaustive_collects_records() {
    let (mut sim, ids) = build_network(25, 8);
    sim.run_for(Dur::from_mins(5));
    let cid = Cid::from_seed(1234);
    // Multiple providers.
    for &p in &[3usize, 6, 9] {
        sim.schedule_command(sim.now(), ids[p], NodeCmd::Publish { cid, size: 128 });
    }
    sim.run_for(Dur::from_mins(3));
    sim.schedule_command(
        sim.now(),
        ids[20],
        NodeCmd::ResolveProviders {
            cid,
            exhaustive: true,
        },
    );
    sim.run_for(Dur::from_mins(2));
    let resolved = sim.actor(ids[20]).0.events.iter().find_map(|e| match e {
        NodeEvent::ProvidersResolved {
            cid: c,
            records,
            contacted,
            ..
        } if *c == cid => Some((records.len(), *contacted)),
        _ => None,
    });
    let (n_records, contacted) = resolved.expect("resolution never finished");
    assert!(
        n_records >= 3,
        "expected ≥3 provider records, got {n_records}"
    );
    assert!(contacted > 0);
}

#[test]
fn churn_and_rejoin_with_new_ip() {
    let (mut sim, ids) = build_network(20, 9);
    sim.run_for(Dur::from_mins(5));
    let victim = ids[10];
    sim.schedule_down(sim.now() + Dur::from_secs(1), victim);
    sim.run_for(Dur::from_mins(1));
    assert!(!sim.core().is_online(victim));
    // Rejoin with a rotated IP.
    let new_addr = std::net::SocketAddrV4::new(ip(10_000), 4001);
    sim.schedule_up(sim.now() + Dur::from_secs(5), victim, Some(new_addr));
    sim.run_for(Dur::from_mins(5));
    assert!(sim.core().is_online(victim));
    assert_eq!(sim.core().addr(victim), new_addr);
    // It re-bootstrapped into the network.
    let table_len = sim.actor(victim).0.dht().table().len();
    assert!(table_len > 5, "rejoined node has empty table: {table_len}");
}

#[test]
fn deterministic_runs_same_seed() {
    let run = |seed: u64| {
        let (mut sim, ids) = build_network(15, seed);
        sim.run_for(Dur::from_mins(3));
        let cid = Cid::from_seed(1);
        sim.schedule_command(sim.now(), ids[2], NodeCmd::Publish { cid, size: 10 });
        sim.run_for(Dur::from_mins(2));
        sim.schedule_command(sim.now(), ids[7], NodeCmd::Fetch { cid });
        sim.run_for(Dur::from_mins(2));
        (
            sim.stats().events,
            sim.stats().msgs_delivered,
            sim.actor(ids[7]).0.events.clone(),
        )
    };
    assert_eq!(run(42), run(42), "same seed must give identical traces");
}

#[test]
fn identity_adoption_resets_peer_id() {
    let (mut sim, ids) = build_network(10, 11);
    sim.run_for(Dur::from_mins(3));
    let old = sim.actor(ids[4]).0.peer_id();
    sim.schedule_command(sim.now(), ids[4], NodeCmd::AdoptIdentity { seed: 999_999 });
    sim.run_for(Dur::from_mins(3));
    let new = sim.actor(ids[4]).0.peer_id();
    assert_ne!(old, new);
    assert_eq!(new, ipfs_types::Keypair::from_seed(999_999).peer_id());
    // Re-bootstrapped under the new identity.
    assert!(sim.actor(ids[4]).0.dht().table().len() > 3);
}

#[test]
fn connection_manager_trims_to_watermarks() {
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(10), 0.1), 12);
    let boot_peer = ipfs_types::Keypair::from_seed(1_000_000).peer_id();
    let mut ids = Vec::new();
    for i in 0..40u32 {
        let mut nc = NodeConfig::regular(if i == 0 { 1_000_000 } else { i as u64 });
        // Tiny watermarks to force trimming.
        nc.conn_low = 5;
        nc.conn_high = 10;
        nc.connmgr_interval = Dur::from_mins(1);
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        ids.push(sim.add_node(NodeActor(IpfsNode::new(nc)), NodeSetup::public(ip(i))));
    }
    sim.run_for(Dur::from_mins(20));
    // After the dust settles, no node should sit far above its high mark.
    let max_conns = ids
        .iter()
        .map(|&id| sim.core().connection_count(id))
        .max()
        .unwrap();
    assert!(
        max_conns <= 14,
        "connection manager not trimming: {max_conns}"
    );
}

// ----------------------------------------------------------------------
// The routing table's `connected` column: equal to "some connection is
// identified as this peer" for every entry, wherever that fact or the
// entry set changes.
// ----------------------------------------------------------------------

/// `IpfsNode::assert_connected_flags` (compiled with debug assertions
/// only; release test runs keep the explicit flag assertions below).
fn check_flags(node: &IpfsNode) {
    #[cfg(debug_assertions)]
    node.assert_connected_flags();
    #[cfg(not(debug_assertions))]
    let _ = node;
}

fn flagged_entries(node: &IpfsNode) -> usize {
    node.dht().table().entries().filter(|e| e.connected).count()
}

#[test]
fn connected_flags_follow_churn_and_session_restart() {
    let cfg = SimConfig {
        dial_timeout: Dur::from_secs(5),
        ..Default::default()
    };
    let mut sim: Sim<NodeActor> =
        Sim::new(cfg, LatencyModel::uniform(Dur::from_millis(30), 0.3), 21);
    let boot_peer = ipfs_types::Keypair::from_seed(1_000_000).peer_id();
    let mut ids = Vec::new();
    for i in 0..20u32 {
        let mut nc = NodeConfig::regular(if i == 0 { 1_000_000 } else { i as u64 });
        // Prune often and early, so that only the flag keeps entries alive.
        nc.connmgr_interval = Dur::from_mins(1);
        nc.table_entry_ttl = Dur::from_mins(3);
        nc.refresh_interval = Dur::ZERO;
        if i > 0 {
            nc.bootstrap = vec![(boot_peer, NodeId(0))];
        }
        ids.push(sim.add_node(NodeActor(IpfsNode::new(nc)), NodeSetup::public(ip(i))));
    }
    let victim = ids[10];
    let victim_id = sim.actor(victim).0.peer_id();
    let check_all = |sim: &Sim<NodeActor>| {
        for &id in &ids {
            if sim.core().is_online(id) {
                check_flags(&sim.actor(id).0);
            }
        }
    };
    // Step in half-minute slices so the checker also runs between ticks.
    let run = |sim: &mut Sim<NodeActor>, mins: u64| {
        for _ in 0..mins * 2 {
            sim.run_for(Dur::from_secs(30));
            check_all(sim);
        }
    };
    run(&mut sim, 12);
    // Nobody has spoken for many TTLs; the entries of connected peers are
    // all that is left, and they are still there.
    let boot = &sim.actor(ids[0]).0;
    assert!(flagged_entries(boot) >= 10, "{}", flagged_entries(boot));
    assert_eq!(flagged_entries(boot), boot.dht().table().len());
    assert!(boot.dht().table().get(&victim_id).unwrap().connected);

    sim.schedule_down(sim.now() + Dur::from_secs(1), victim);
    run(&mut sim, 1);
    let entry = sim.actor(ids[0]).0.dht().table().get(&victim_id).cloned();
    assert!(
        !entry.is_some_and(|e| e.connected),
        "flag outlived the peer"
    );
    run(&mut sim, 4);
    assert!(
        sim.actor(ids[0]).0.dht().table().get(&victim_id).is_none(),
        "unflagged silent entry was not pruned"
    );

    // Session restart: fresh table and connection state on the victim,
    // a fresh connection (same id, new address) everywhere else.
    let new_addr = std::net::SocketAddrV4::new(ip(10_000), 4001);
    sim.schedule_up(sim.now() + Dur::from_secs(5), victim, Some(new_addr));
    run(&mut sim, 8);
    assert!(
        sim.actor(ids[0])
            .0
            .dht()
            .table()
            .get(&victim_id)
            .unwrap()
            .connected
    );
    assert!(flagged_entries(&sim.actor(victim).0) > 5);
}

#[test]
fn connected_flags_follow_identity_adoption_of_a_live_neighbour() {
    let (mut sim, ids) = build_network(10, 22);
    sim.run_for(Dur::from_mins(3));
    let old = sim.actor(ids[4]).0.peer_id();
    assert!(
        sim.actor(ids[0])
            .0
            .dht()
            .table()
            .get(&old)
            .unwrap()
            .connected
    );
    sim.schedule_command(sim.now(), ids[4], NodeCmd::AdoptIdentity { seed: 999_999 });
    for _ in 0..12 {
        sim.run_for(Dur::from_secs(15));
        for &id in &ids {
            check_flags(&sim.actor(id).0);
        }
    }
    let new = sim.actor(ids[4]).0.peer_id();
    let table = sim.actor(ids[0]).0.dht().table();
    // The old identity's entry lingers until pruned, but is not connected;
    // the same endpoint's new identity is.
    assert!(!table.get(&old).is_some_and(|e| e.connected));
    assert!(table.get(&new).unwrap().connected);
}

/// One real node under test (endpoint 0) among scripted endpoints that
/// dial, say and hang up exactly what a test tells them to.
enum Scripted {
    Node(Box<IpfsNode>),
    Puppet,
    /// A puppet that also answers Bitswap, as a peer holding no blocks.
    Lacking(Box<Lacking>),
    /// A puppet that keeps the sender of every DHT request it is sent.
    Listener(Vec<Arc<kademlia::PeerInfo>>),
}

/// A Bitswap engine over an empty store, speaking as `id`, with a record
/// of every wantlist entry it was sent and every message it answered.
struct Lacking {
    id: PeerId,
    engine: Bitswap,
    store: MemoryBlockstore,
    got: Vec<WantEntry>,
    answered: Vec<BitswapMessage>,
}

impl Lacking {
    fn on_bitswap(&mut self, ctx: &mut simnet::Ctx<'_, WireMsg, Script>, from: NodeId, m: WireMsg) {
        let WireMsg::Bitswap { from: peer, msg } = m else {
            return;
        };
        self.got.extend(msg.want_entries());
        let out = self
            .engine
            .handle_message(ctx.now(), peer, msg, &mut self.store);
        for (_, msg) in out.sends {
            self.answered.push(msg.clone());
            ctx.send(from, WireMsg::Bitswap { from: self.id, msg });
        }
    }
}

#[derive(Debug)]
enum Script {
    Node(NodeCmd),
    Dial(NodeId),
    Say(NodeId, WireMsg),
    HangUp(NodeId),
}

impl simnet::Actor for Scripted {
    type Msg = WireMsg;
    type Cmd = Script;

    fn on_start(&mut self, ctx: &mut simnet::Ctx<'_, WireMsg, Script>) {
        if let Scripted::Node(n) = self {
            n.handle_start(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut simnet::Ctx<'_, WireMsg, Script>, from: NodeId, m: WireMsg) {
        match self {
            Scripted::Node(n) => n.handle_message(ctx, from, m),
            Scripted::Puppet => {}
            Scripted::Lacking(l) => l.on_bitswap(ctx, from, m),
            Scripted::Listener(got) => {
                if let WireMsg::Dht(kademlia::DhtMessage::Request { sender, .. }) = m {
                    got.push(sender);
                }
            }
        }
    }
    fn on_command(&mut self, ctx: &mut simnet::Ctx<'_, WireMsg, Script>, cmd: Script) {
        match (self, cmd) {
            (Scripted::Node(n), Script::Node(cmd)) => n.handle_command(ctx, cmd),
            (Scripted::Node(_), cmd) | (_, cmd @ Script::Node(_)) => panic!("misaddressed {cmd:?}"),
            (_, Script::Dial(to)) => ctx.dial(to),
            (_, Script::Say(to, msg)) => {
                assert!(ctx.send(to, msg), "puppet not connected to {to:?}");
            }
            (_, Script::HangUp(peer)) => ctx.disconnect(peer),
        }
    }
    fn on_timer(&mut self, ctx: &mut simnet::Ctx<'_, WireMsg, Script>, token: u64) {
        if let Scripted::Node(n) = self {
            n.handle_timer(ctx, token);
        }
    }
    fn on_inbound_connection(
        &mut self,
        ctx: &mut simnet::Ctx<'_, WireMsg, Script>,
        from: NodeId,
        relayed: bool,
    ) {
        if let Scripted::Node(n) = self {
            n.handle_inbound(ctx, from, relayed);
        }
    }
    fn on_dial_result(
        &mut self,
        ctx: &mut simnet::Ctx<'_, WireMsg, Script>,
        target: NodeId,
        ok: bool,
        relayed: bool,
    ) {
        if let Scripted::Node(n) = self {
            n.handle_dial_result(ctx, target, ok, relayed);
        }
    }
    fn on_connection_closed(&mut self, ctx: &mut simnet::Ctx<'_, WireMsg, Script>, peer: NodeId) {
        if let Scripted::Node(n) = self {
            n.handle_connection_closed(ctx, peer);
        }
    }
}

/// The scripted harness: node 0 is the real node, 1..=puppets are puppets
/// already connected to it (not yet identified).
struct Stage {
    sim: Sim<Scripted>,
}

const NODE: NodeId = NodeId(0);

impl Stage {
    fn new(puppets: u32, tune: impl FnOnce(&mut NodeConfig)) -> Stage {
        let mut sim: Sim<Scripted> = Sim::new(
            SimConfig::default(),
            LatencyModel::uniform(Dur::from_millis(20), 0.0),
            5,
        );
        let mut nc = NodeConfig::regular(0);
        nc.connmgr_interval = Dur::from_mins(1);
        nc.refresh_interval = Dur::ZERO;
        nc.reprovide_interval = Dur::ZERO;
        tune(&mut nc);
        sim.add_node(
            Scripted::Node(Box::new(IpfsNode::new(nc))),
            NodeSetup::public(ip(0)),
        );
        let mut stage = Stage { sim };
        for i in 1..=puppets {
            let p = stage
                .sim
                .add_node(Scripted::Puppet, NodeSetup::public(ip(i)));
            stage.tell(p, Script::Dial(NODE));
        }
        stage
    }

    /// Run one command and let its consequences settle.
    fn tell(&mut self, who: NodeId, cmd: Script) {
        self.sim.schedule_command(self.sim.now(), who, cmd);
        self.sim.run_for(Dur::from_secs(1));
        check_flags(self.node());
    }

    fn node(&self) -> &IpfsNode {
        match self.sim.actor(NODE) {
            Scripted::Node(n) => n,
            _ => unreachable!("endpoint 0 is the node"),
        }
    }

    fn identify(&mut self, puppet: NodeId, id: PeerId) {
        let msg = WireMsg::Identify {
            id,
            addrs: kademlia::no_addrs(),
            dht_server: true,
            agent: "puppet/1.0".into(),
        };
        self.tell(puppet, Script::Say(NODE, msg));
    }

    /// A DHT ping from `puppet` speaking as server `id`.
    fn ping_as(&mut self, puppet: NodeId, id: PeerId) {
        let sender = Arc::new(peer_at(id, puppet));
        let ping = kademlia::DhtMessage::request(1, sender, true, kademlia::DhtRequest::Ping);
        let msg = WireMsg::Dht(ping);
        self.tell(puppet, Script::Say(NODE, msg));
    }

    /// `Some(flag)` of `id`'s table entry, `None` without one.
    fn flag(&self, id: PeerId) -> Option<bool> {
        self.node().dht().table().get(&id).map(|e| e.connected)
    }
}

#[test]
fn hydra_endpoint_speaking_as_several_heads_flags_only_the_identified_one() {
    let mut st = Stage::new(1, |_| {});
    let p = NodeId(1);
    let heads: Vec<PeerId> = (100..103).map(PeerId::from_seed).collect();
    st.identify(p, heads[0]);
    // The other heads answer DHT traffic over the same connection: they
    // enter the table, but no connection is identified as them.
    st.ping_as(p, heads[1]);
    st.ping_as(p, heads[2]);
    assert_eq!(st.flag(heads[0]), Some(true));
    assert_eq!(st.flag(heads[1]), Some(false));
    assert_eq!(st.flag(heads[2]), Some(false));
    // The endpoint identifies again, as another head.
    st.identify(p, heads[1]);
    assert_eq!(st.flag(heads[0]), Some(false));
    assert_eq!(st.flag(heads[1]), Some(true));
    // ... and once more as the same one (nothing changes).
    st.identify(p, heads[1]);
    assert_eq!(st.flag(heads[1]), Some(true));
    st.tell(p, Script::HangUp(NODE));
    assert_eq!(st.flag(heads[1]), Some(false));
    assert_eq!(flagged_entries(st.node()), 0);
}

#[test]
fn one_id_on_several_endpoints_stays_flagged_until_the_last_one_closes() {
    let mut st = Stage::new(0, |_| {});
    let id = PeerId::from_seed(100);
    let eps: Vec<NodeId> = (0..3)
        .map(|_| {
            let ep = st.add_lacking(id);
            assert_eq!(st.flag(id), Some(true));
            ep
        })
        .collect();
    // Closing the last-identified endpoint closes the one `conn_by_peer`
    // leads to.
    st.tell(eps[2], Script::HangUp(NODE));
    assert_eq!(st.flag(id), Some(true));
    st.tell(eps[0], Script::HangUp(NODE));
    assert_eq!(st.flag(id), Some(true));
    // A fetch builds the neighbour list mid-session (one twin left), and
    // its `WantHave` reaches that twin.
    let cid = Cid::from_seed(1);
    st.tell(NODE, Script::Node(NodeCmd::Fetch { cid }));
    assert_eq!(st.bitswap_tally(&eps[1..2]), (1, 0, 0));
    let me = st.node().peer_id();
    let wants: Vec<_> = st.lacking(eps[1]).engine.wants_of(&me).collect();
    assert_eq!(wants, vec![(cid, WantType::Have)]);
    st.tell(eps[1], Script::HangUp(NODE));
    assert_eq!(st.flag(id), Some(false));
}

#[test]
fn twin_that_reidentifies_hands_the_old_id_to_the_surviving_twin() {
    let mut st = Stage::new(0, |_| {});
    let (x, y) = (PeerId::from_seed(100), PeerId::from_seed(101));
    let e1 = st.add_lacking(x);
    let e2 = st.add_lacking(x);
    // `e2`, the endpoint `x`'s sends lead to, now speaks as `y`: sends to
    // `x` must go to `e1`, the one still identified as it.
    st.identify(e2, y);
    assert_eq!(st.flag(x), Some(true));
    assert_eq!(st.flag(y), Some(true));
    st.tell(
        NODE,
        Script::Node(NodeCmd::Fetch {
            cid: Cid::from_seed(1),
        }),
    );
    assert_eq!(st.bitswap_tally(&[e1]), (1, 0, 0), "x's want");
    assert_eq!(st.bitswap_tally(&[e2]), (1, 0, 0), "y's want");
}

/// `n` peer ids whose first key bit differs from node 0's: they all
/// compete for bucket 0.
fn far_seeds(n: usize) -> Vec<PeerId> {
    let local = ipfs_types::Keypair::from_seed(0).peer_id().key();
    (100u64..)
        .map(PeerId::from_seed)
        .filter(|id| local.common_prefix_len(&id.key()) == 0)
        .take(n)
        .collect()
}

#[test]
fn peer_rejected_by_a_full_bucket_is_flagged_when_it_gets_in_later() {
    // k + 1 peers compete for bucket 0's k slots; pruning disabled until
    // the test wants it.
    let k = kademlia::TableConfig::default().k;
    let last = NodeId(k as u32 + 1);
    let mut st = Stage::new(last.0, |nc| nc.table_entry_ttl = Dur::from_mins(10));
    let ids = far_seeds(k + 1);
    for (i, id) in ids.iter().enumerate() {
        st.identify(NodeId(i as u32 + 1), *id);
    }
    assert!(ids[..k].iter().all(|id| st.flag(*id) == Some(true)));
    assert_eq!(st.flag(ids[k]), None, "bucket 0 holds k fresh entries");
    // The first peer leaves; its entry ages out at a connection-manager
    // tick. The second stays silent just as long and is kept by its flag.
    st.tell(NodeId(1), Script::HangUp(NODE));
    assert_eq!(st.flag(ids[0]), Some(false));
    st.sim.run_for(Dur::from_mins(12));
    check_flags(st.node());
    assert_eq!(st.flag(ids[0]), None);
    assert_eq!(st.flag(ids[1]), Some(true));
    // The last peer, connected and identified all along, speaks: the
    // table creates its entry now, and it must come out flagged.
    st.ping_as(last, ids[k]);
    assert_eq!(st.flag(ids[k]), Some(true));
    st.sim.run_for(Dur::from_mins(12));
    assert_eq!(st.flag(ids[k]), Some(true), "pruned despite its connection");
}

#[test]
fn peer_dropped_by_a_failed_query_is_flagged_when_it_comes_back() {
    let mut st = Stage::new(1, |_| {});
    let p = NodeId(1);
    let id = PeerId::from_seed(100);
    st.identify(p, id);
    assert_eq!(st.flag(id), Some(true));
    // The node walks the DHT; its only peer never answers, the RPC times
    // out, and the failed query drops the entry — the connection stays.
    st.tell(
        NODE,
        Script::Node(NodeCmd::Provide {
            cid: Cid::from_seed(1),
        }),
    );
    st.sim.run_for(Dur::from_secs(15));
    check_flags(st.node());
    assert_eq!(st.flag(id), None, "unanswered query should evict");
    assert!(st.sim.core().connected(NODE, p));
    st.ping_as(p, id);
    assert_eq!(st.flag(id), Some(true));
}

/// `IpfsNode::session_is_fresh` exists in builds with debug assertions only.
#[cfg(debug_assertions)]
#[test]
fn session_restart_leaves_nothing_behind() {
    let mut st = Stage::new(2, |_| {});
    let server = PeerId::from_seed(100);
    st.identify(NodeId(1), server);
    // A relay reservation served, a fetch in its Bitswap phase, a walk
    // waiting on an RPC the puppet never answers, and a dial still under
    // way to an endpoint that went away.
    st.tell(
        NodeId(2),
        Script::Say(NODE, WireMsg::RelayReserve { from: server }),
    );
    let gone = st.sim.add_node(Scripted::Puppet, NodeSetup::public(ip(9)));
    st.sim.schedule_down(st.sim.now(), gone);
    let cid = Cid::from_seed(1);
    for cmd in [
        NodeCmd::Fetch { cid },
        NodeCmd::Provide { cid },
        NodeCmd::HttpGet {
            frontend: gone,
            cid,
        },
    ] {
        st.sim
            .schedule_command(st.sim.now(), NODE, Script::Node(cmd));
    }
    st.sim.run_for(Dur::from_secs(1));
    assert!(st.node().bitswap().is_fetching(&cid));
    assert_eq!(st.node().walks_in_flight(), 1, "the provide walk");
    assert!(!st.node().session_is_fresh());
    // Down and up again: `handle_start` arms timers only (no bootstrap
    // peers configured), so the session must be `Session::default()`.
    st.sim.schedule_down(st.sim.now(), NODE);
    st.sim
        .schedule_up(st.sim.now() + Dur::from_secs(1), NODE, None);
    st.sim.run_for(Dur::from_secs(2));
    assert!(st.sim.core().is_online(NODE));
    assert!(st.node().session_is_fresh());
}

// ----------------------------------------------------------------------
// Answers that name the node's own endpoint: nobody dials themselves, so
// such a candidate has to count as failed — left `Waiting`, it pins the
// walk (and whatever operation started it) until the node restarts.
// ----------------------------------------------------------------------

impl Stage {
    /// `puppet` answers the node's request `req_id` with `closer`, at the
    /// node's own endpoint.
    fn answer_nodes(&mut self, puppet: NodeId, req_id: u64, closer: PeerId) {
        let closer = vec![peer_at(closer, NODE)];
        self.answer(puppet, req_id, DhtResponse::Nodes { closer });
    }

    /// `puppet` answers the node's request `req_id` with `resp`.
    fn answer(&mut self, puppet: NodeId, req_id: u64, resp: DhtResponse) {
        let msg = WireMsg::Dht(kademlia::DhtMessage::Response { req_id, resp });
        self.tell(puppet, Script::Say(NODE, msg));
    }

    fn count_events(&self, wanted: impl Fn(&NodeEvent) -> bool) -> usize {
        self.node().events.iter().filter(|e| wanted(e)).count()
    }
}

fn peer_at(id: PeerId, endpoint: NodeId) -> kademlia::PeerInfo {
    kademlia::PeerInfo {
        id,
        addrs: kademlia::no_addrs(),
        endpoint,
    }
}

#[test]
fn responder_echoing_the_requester_does_not_stall_the_walk() {
    let mut st = Stage::new(1, |nc| nc.record_events = true);
    let (p, id) = (NodeId(1), PeerId::from_seed(100));
    st.identify(p, id);
    let cid = Cid::from_seed(1);
    // Ids come off one counter: the provide op takes 1, its first
    // (only) `FindNode` 2.
    st.tell(NODE, Script::Node(NodeCmd::Publish { cid, size: 64 }));
    let me = st.node().peer_id();
    st.answer_nodes(p, 2, me);
    st.sim.run_for(Dur::from_secs(20));
    assert_eq!(
        st.count_events(|e| matches!(e, NodeEvent::Provided { cid: c, .. } if *c == cid)),
        1,
        "walk still waiting on the node's own endpoint: {:?}",
        st.node().events
    );
}

#[test]
fn previous_identity_at_the_own_endpoint_does_not_stall_bootstrap() {
    let mut st = Stage::new(1, |nc| nc.record_events = true);
    let (p, id) = (NodeId(1), PeerId::from_seed(100));
    let old = st.node().peer_id();
    let seeds = vec![(id, p)];
    st.tell(NODE, Script::Node(NodeCmd::Bootstrap { seeds }));
    // The self-lookup's `FindNode` is request 1; an answer that names
    // nobody new ends it.
    st.answer_nodes(p, 1, id);
    assert_eq!(st.count_events(|e| *e == NodeEvent::Bootstrapped), 1);
    // New identity, same endpoint: the restart re-dials the seed and
    // walks again (request 2). The seed's table still holds the old
    // identity at this endpoint and hands it back.
    st.tell(NODE, Script::Node(NodeCmd::AdoptIdentity { seed: 77 }));
    assert_ne!(st.node().peer_id(), old);
    st.answer_nodes(p, 2, old);
    st.sim.run_for(Dur::from_secs(20));
    assert_eq!(
        st.count_events(|e| *e == NodeEvent::Bootstrapped),
        2,
        "self-lookup still waiting on the node's own endpoint: {:?}",
        st.node().events
    );
}

#[test]
fn walk_query_answered_with_pong_counts_as_an_empty_answer() {
    let mut st = Stage::new(1, |nc| nc.record_events = true);
    let (p, id) = (NodeId(1), PeerId::from_seed(100));
    st.identify(p, id);
    let cid = Cid::from_seed(1);
    // The provide op takes id 1, its only `FindNode` request 2; a hostile
    // peer answers it with the reply to a `Ping`.
    st.tell(NODE, Script::Node(NodeCmd::Provide { cid }));
    st.answer(p, 2, DhtResponse::Pong);
    // Past the RPC timeout, which finds nothing pending any more.
    st.sim.run_for(Dur::from_secs(20));
    let provided =
        |e: &NodeEvent| matches!(e, NodeEvent::Provided { cid: c, resolvers: 1 } if *c == cid);
    assert_eq!(
        st.count_events(provided),
        1,
        "walk still waiting on a peer that answered: {:?}",
        st.node().events
    );
    assert_eq!(st.node().walks_in_flight(), 0);
}

#[test]
fn finished_walk_records_its_telemetry() {
    telemetry::reset();
    telemetry::set_enabled(true);
    let mut st = Stage::new(1, |_| {});
    let (p, id) = (NodeId(1), PeerId::from_seed(100));
    st.identify(p, id);
    // One provide walk, one query (request 2), answered with nobody new.
    st.tell(
        NODE,
        Script::Node(NodeCmd::Provide {
            cid: Cid::from_seed(1),
        }),
    );
    st.answer_nodes(p, 2, id);
    assert_eq!(st.node().walks_in_flight(), 0);
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    telemetry::reset();
    let counter = |name| snap.counters.iter().find(|(n, _)| *n == name).unwrap().1;
    let hist = |name| &snap.hists.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(counter("lookups_completed"), 1);
    assert_eq!(counter("lookup_peer_failures"), 0);
    let contacted = hist("lookup_contacted");
    assert_eq!((contacted.count, contacted.sum), (1, 1));
    let latency = hist("lookup_latency_ns");
    assert_eq!(latency.count, 1);
    assert!(latency.sum > 0, "the answer took virtual time");
}

// ----------------------------------------------------------------------
// The discovery broadcast asks for no `DontHave`: a neighbour lacking the
// block registers the want and stays silent until the `Cancel`.
// ----------------------------------------------------------------------

impl Stage {
    /// Add a Bitswap-answering puppet speaking as `id`, connected to and
    /// identified at the node.
    fn add_lacking(&mut self, id: PeerId) -> NodeId {
        let lacking = Lacking {
            id,
            engine: Bitswap::new(),
            store: MemoryBlockstore::new(),
            got: Vec::new(),
            answered: Vec::new(),
        };
        let ip = ip(self.sim.core().node_count() as u32);
        let ep = self
            .sim
            .add_node(Scripted::Lacking(Box::new(lacking)), NodeSetup::public(ip));
        self.tell(ep, Script::Dial(NODE));
        self.identify(ep, id);
        ep
    }

    fn lacking(&self, ep: NodeId) -> &Lacking {
        match self.sim.actor(ep) {
            Scripted::Lacking(l) => l,
            _ => unreachable!("{ep:?} is not a Bitswap puppet"),
        }
    }

    /// Over all Bitswap puppets: (`WantHave`s received, `Cancel`s
    /// received, messages answered). Holding no blocks, a puppet can only
    /// answer `Presence`.
    fn bitswap_tally(&self, eps: &[NodeId]) -> (usize, usize, usize) {
        let mut tally = (0, 0, 0);
        for &ep in eps {
            let l = self.lacking(ep);
            tally.0 += l
                .got
                .iter()
                .filter(|e| !e.cancel && e.ty == WantType::Have)
                .count();
            tally.1 += l.got.iter().filter(|e| e.cancel).count();
            tally.2 += l.answered.len();
        }
        tally
    }
}

#[test]
fn broadcast_to_neighbours_lacking_the_block_draws_no_reply() {
    const N: usize = 5;
    let mut st = Stage::new(0, |nc| nc.record_events = true);
    let eps: Vec<NodeId> = (0..N as u64)
        .map(|i| st.add_lacking(PeerId::from_seed(100 + i)))
        .collect();
    let me = st.node().peer_id();
    let cid = Cid::from_seed(1);
    // One second into the two-second Bitswap phase.
    st.tell(NODE, Script::Node(NodeCmd::Fetch { cid }));
    assert_eq!(st.bitswap_tally(&eps), (N, 0, 0));
    for &ep in &eps {
        let wants: Vec<_> = st.lacking(ep).engine.wants_of(&me).collect();
        assert_eq!(wants, vec![(cid, WantType::Have)], "want registered");
    }
    // No neighbour answers, no provider is found: the fetch gives up and
    // retracts the want everywhere.
    st.sim.run_for(Dur::from_mins(3));
    let failed = |e: &NodeEvent| matches!(e, NodeEvent::FetchFailed { cid: c } if *c == cid);
    assert_eq!(st.count_events(failed), 1);
    assert_eq!(st.bitswap_tally(&eps), (N, N, 0));
    for &ep in &eps {
        assert!(st.lacking(ep).engine.wants_of(&me).next().is_none());
    }
}

impl Stage {
    /// A NAT-ed node (a DHT client) bootstrapped to `n` listening puppets,
    /// which identify as DHT servers `PeerId::from_seed(1..=n)`.
    fn nat_with_listeners(n: u32) -> Stage {
        let mut sim: Sim<Scripted> = Sim::new(
            SimConfig::default(),
            LatencyModel::uniform(Dur::from_millis(20), 0.0),
            5,
        );
        let mut nc = NodeConfig::regular(0);
        nc.record_events = true;
        nc.refresh_interval = Dur::ZERO;
        nc.reprovide_interval = Dur::ZERO;
        sim.add_node(
            Scripted::Node(Box::new(IpfsNode::new(nc))),
            NodeSetup::nat(ip(0)),
        );
        let mut seeds = Vec::new();
        for i in 1..=n {
            let ep = sim.add_node(Scripted::Listener(Vec::new()), NodeSetup::public(ip(i)));
            seeds.push((PeerId::from_seed(i as u64), ep));
        }
        let mut stage = Stage { sim };
        stage.tell(
            NODE,
            Script::Node(NodeCmd::Bootstrap {
                seeds: seeds.clone(),
            }),
        );
        for (id, ep) in seeds {
            stage.identify(ep, id);
        }
        stage
    }

    /// The sender of every DHT request each listening puppet was sent, by
    /// puppet.
    fn heard(&self) -> Vec<Vec<Arc<kademlia::PeerInfo>>> {
        (1..self.sim.core().node_count() as u32)
            .map(|i| match self.sim.actor(NodeId(i)) {
                Scripted::Listener(got) => got.clone(),
                _ => unreachable!("n{i} is not a listener"),
            })
            .collect()
    }

    /// The node resolves a fresh CID: the senders of the requests it sends
    /// for it.
    fn requests_for(&mut self, cid: Cid) -> Vec<Arc<kademlia::PeerInfo>> {
        let before: Vec<usize> = self.heard().iter().map(Vec::len).collect();
        self.tell(
            NODE,
            Script::Node(NodeCmd::ResolveProviders {
                cid,
                exhaustive: false,
            }),
        );
        let new: Vec<_> = self
            .heard()
            .into_iter()
            .zip(before)
            .flat_map(|(mut got, n)| got.split_off(n))
            .collect();
        assert!(!new.is_empty(), "the node sent no request for {cid:?}");
        new
    }
}

#[test]
fn nat_node_requests_carry_its_circuit_address_while_it_has_a_relay() {
    let mut st = Stage::nat_with_listeners(2);
    let me = st.node().peer_id();
    let (relay_ep, relay_id) = (NodeId(1), PeerId::from_seed(1));
    assert!(!st.node().dht().is_server());
    // No relay yet: nothing to advertise.
    let early = st.heard().concat();
    assert!(!early.is_empty(), "the bootstrap walk queried the puppets");
    assert!(early.iter().all(|m| m.addrs.is_empty()));
    assert!(st
        .requests_for(Cid::from_seed(1))
        .iter()
        .all(|m| m.addrs.is_empty()));

    // The relay grants a reservation: every request now carries the
    // circuit address, and all of them share one sender allocation.
    st.tell(
        relay_ep,
        Script::Say(NODE, WireMsg::RelayReserveOk { accepted: true }),
    );
    assert_eq!(st.node().relay(), Some(relay_id));
    let circuit = vec![ipfs_types::Multiaddr::circuit(ip(1), 4001, relay_id, me)];
    let relayed = st.requests_for(Cid::from_seed(2));
    for m in &relayed {
        assert_eq!(m.addrs.to_vec(), circuit);
        assert!(Arc::ptr_eq(m, &relayed[0]));
    }

    // The relay hangs up: the node advertises nothing again.
    st.tell(relay_ep, Script::HangUp(NODE));
    assert_eq!(st.node().relay(), None);
    let after = st.requests_for(Cid::from_seed(3));
    assert!(after.iter().all(|m| m.addrs.is_empty()), "{after:?}");
}

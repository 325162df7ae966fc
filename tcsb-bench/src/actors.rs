//! Protocol-free actors for the engine kernels: the scheduler and the
//! connection fabric under load, with no kademlia/bitswap/node logic.
//!
//! `Pong`/`Storm` and their builders restate the ones in
//! `crates/bench/benches/engine.rs` (same latency model, addresses and
//! seeds, so `pingpong_sim(512)` is the `pingpong_512pairs_60s` row of
//! `BENCH_engine.json`). The change that defined the benchmark was allowed
//! to add files in its own directory only, so that bench keeps its copy;
//! `tests/harness.rs` holds this one to the event counts committed in
//! `BENCH_engine.json`. The first change that may touch `crates/bench`
//! should make the bench import these and delete its own.

use simnet::{Actor, Ctx, Dur, LatencyModel, NodeId, NodeSetup, Sim, SimConfig, SimTime};
use std::net::Ipv4Addr;

/// Hop budget of one ping-pong pair in `BENCH_engine.json`'s rows.
pub const PONG_HOPS: u32 = 400;

/// Ping-pong actor: every received message is answered until the hop
/// budget runs out — a pure scheduler/connection-fabric load.
#[derive(Clone)]
pub struct Pong {
    hops: u32,
}

impl Actor for Pong {
    type Msg = u32;
    type Cmd = u32;

    fn on_command(&mut self, ctx: &mut Ctx<'_, u32, u32>, peer: u32) {
        ctx.dial(NodeId(peer));
    }

    fn on_dial_result(&mut self, ctx: &mut Ctx<'_, u32, u32>, target: NodeId, ok: bool, _: bool) {
        if ok {
            ctx.send(target, 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, from: NodeId, msg: u32) {
        if msg < self.hops {
            ctx.send(from, msg + 1);
        }
    }
}

/// Timer-storm actor: every fired timer re-arms across three horizons
/// (near wheel, coarse wheel, far heap).
#[derive(Clone)]
pub struct Storm;

impl Actor for Storm {
    type Msg = ();
    type Cmd = ();

    fn on_command(&mut self, ctx: &mut Ctx<'_, (), ()>, _cmd: ()) {
        for t in 0..8u64 {
            ctx.set_timer(Dur::from_millis(3 + t), t);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, (), ()>, token: u64) {
        let delay = match token % 3 {
            0 => Dur::from_millis(5), // near band
            1 => Dur::from_secs(40),  // coarse band
            _ => Dur::from_hours(11), // far band
        };
        ctx.set_timer(delay, token + 1);
    }
}

/// `pairs` ping-pong pairs on `shards` engine shards, each pair exchanging
/// `hops` messages. Both ends of a pair live on the same shard (pairs
/// alternate between shards), so a multi-shard run does the same work
/// with no mailbox traffic: what it adds is the epoch synchronisation.
pub fn pingpong_sharded(pairs: u32, hops: u32, shards: usize) -> Sim<Pong> {
    let mut s: Sim<Pong> = Sim::new_sharded(
        SimConfig::default(),
        LatencyModel::uniform(Dur::from_millis(25), 0.2),
        1,
        shards,
    );
    for i in 0..pairs * 2 {
        let ip = Ipv4Addr::new(10, 2, (i / 256) as u8, (i % 256) as u8);
        let shard = ((i / 2) as usize % shards) as u16;
        s.add_node_in(Pong { hops }, NodeSetup::public(ip), shard);
    }
    for p in 0..pairs {
        s.schedule_command(SimTime::ZERO, NodeId(2 * p), 2 * p + 1);
    }
    s
}

/// The single-shard ping-pong load of `BENCH_engine.json`.
pub fn pingpong_sim(pairs: u32) -> Sim<Pong> {
    pingpong_sharded(pairs, PONG_HOPS, 1)
}

/// `nodes` timer-storm actors on one shard.
pub fn storm_sim(nodes: u32) -> Sim<Storm> {
    let mut s: Sim<Storm> = Sim::new(
        SimConfig::default(),
        LatencyModel::uniform(Dur::from_millis(10), 0.0),
        2,
    );
    for i in 0..nodes {
        let ip = Ipv4Addr::new(10, 3, (i / 256) as u8, (i % 256) as u8);
        s.add_node(Storm, NodeSetup::public(ip));
    }
    for i in 0..nodes {
        s.schedule_command(SimTime::ZERO, NodeId(i), ());
    }
    s
}

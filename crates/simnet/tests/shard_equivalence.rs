//! Shard-invariance regression tests: the same scenario must produce
//! byte-identical results — merged trace digest, every shard-invariant
//! counter, per-actor state — for every shard count. This is the engine's
//! v2 determinism contract (see the `sim` module docs) and the oracle the
//! multi-core campaign runner relies on.

use proptest::prelude::*;
use simnet::{
    Actor, Ctx, Dur, Fault, LatencyModel, NodeId, NodeSetup, RegionId, Sim, SimConfig, SimTime,
};
use std::net::{Ipv4Addr, SocketAddrV4};

/// A chatty actor exercising every event kind: dials, relayed dials,
/// messages, timers, loopback commands, disconnects.
#[derive(Default)]
struct Chatter {
    hops: u32,
    closed: u32,
    dials_ok: u32,
    dials_failed: u32,
}

#[derive(Clone, Debug)]
enum Cmd {
    DialRing,
    Ping(NodeId),
}

impl Actor for Chatter {
    type Msg = u32;
    type Cmd = Cmd;

    fn on_command(&mut self, ctx: &mut Ctx<'_, u32, Cmd>, cmd: Cmd) {
        match cmd {
            Cmd::DialRing => {
                let n = ctx.connection_count() as u32; // deterministic noise
                let me = ctx.me().0;
                for d in 1..=3 {
                    ctx.dial(NodeId((me + d + n) % POP));
                }
                ctx.set_timer(Dur::from_secs(30), u64::from(me));
            }
            Cmd::Ping(peer) => {
                ctx.send(peer, 0);
            }
        }
    }

    fn on_dial_result(&mut self, ctx: &mut Ctx<'_, u32, Cmd>, target: NodeId, ok: bool, _: bool) {
        if ok {
            self.dials_ok += 1;
            ctx.send(target, 1);
            ctx.schedule_self(Dur::from_mins(7), Cmd::Ping(target));
        } else {
            self.dials_failed += 1;
            // Retry through a relay if we have any connection to lean on.
            let relay = ctx.connections().next();
            if let Some(relay) = relay {
                if relay != target {
                    ctx.dial_via(relay, target);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, Cmd>, from: NodeId, msg: u32) {
        self.hops += 1;
        if msg < 6 {
            ctx.send(from, msg + 1);
        } else if msg == 6 {
            ctx.disconnect(from);
        }
    }

    fn on_connection_closed(&mut self, _ctx: &mut Ctx<'_, u32, Cmd>, _peer: NodeId) {
        self.closed += 1;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, Cmd>, token: u64) {
        ctx.set_timer(Dur::from_mins(11), token);
        ctx.dial(NodeId(((token as u32) + 7) % POP));
    }
}

const POP: u32 = 48;

/// Fingerprint of one run: merged digest plus every shard-invariant
/// counter, a fold over per-actor state, and a fold over the harness read
/// surface taken at every quiesce point.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    digest: u64,
    events: u64,
    delivered: u64,
    dropped: u64,
    lost: u64,
    dials_ok: u64,
    dials_failed: u64,
    timers: u64,
    commands: u64,
    actor_fold: u64,
    view_fold: u64,
}

fn mix(h: &mut u64, v: u64) {
    *h = h.wrapping_mul(0x100000001B3).wrapping_add(v);
}

/// Fold what [`simnet::CoreView`] answers for every node — liveness,
/// dialability, retirement, partition class, address, region, connection
/// list — plus the partition flag into `h`. Each answer comes from the shard
/// owning the node asked about, so a fold that agrees across shard counts
/// holds that routing equal to the one-shard truth.
fn fold_view(s: &Sim<Chatter>, h: &mut u64) {
    let v = s.core();
    assert_eq!(v.node_count(), POP as usize);
    mix(h, v.partition_active() as u64);
    for i in 0..POP {
        let n = NodeId(i);
        let bits =
            v.is_online(n) as u64 | (v.is_dialable(n) as u64) << 1 | (v.is_retired(n) as u64) << 2;
        mix(h, bits);
        mix(h, v.net_class(n) as u64);
        mix(h, u32::from(*v.addr(n).ip()) as u64);
        mix(h, v.region(n).0 as u64);
        mix(h, v.connection_count(n) as u64);
        for p in v.connections(n) {
            assert!(v.connected(n, p));
            mix(h, p.0 as u64);
        }
    }
}

/// Advance `s` in five uneven chunks (epoch boundaries must not depend on
/// how the harness slices time), reading the view at each stop, and
/// fingerprint the result.
fn finish(mut s: Sim<Chatter>) -> Fingerprint {
    let mut view_fold = 0u64;
    for k in 1..=5u64 {
        s.run_for(Dur::from_mins(36 * k));
        fold_view(&s, &mut view_fold);
    }
    let stats = s.stats();
    let mut actor_fold = 0u64;
    for i in 0..POP {
        let a = s.actor(NodeId(i));
        for v in [a.hops, a.closed, a.dials_ok, a.dials_failed] {
            mix(&mut actor_fold, v as u64);
        }
    }
    Fingerprint {
        digest: s.trace_digest(),
        events: stats.events,
        delivered: stats.msgs_delivered,
        dropped: stats.msgs_dropped,
        lost: stats.msgs_lost,
        dials_ok: stats.dials_ok,
        dials_failed: stats.dials_failed,
        timers: stats.timers_fired,
        commands: stats.commands,
        actor_fold,
        view_fold,
    }
}

/// The population every run starts from: `POP` chatterers over four
/// regions, a third of them churning. `shard_of[i]` places node `i`
/// explicitly (the engine API the balanced partitioner drives); `None` takes
/// the region-major default.
fn populate(shards: usize, seed: u64, nat_stride: u32, shard_of: Option<&[u16]>) -> Sim<Chatter> {
    let mut s: Sim<Chatter> = Sim::new_sharded(
        SimConfig {
            loss: 0.01,
            dial_timeout: Dur::from_secs(9),
            max_events: u64::MAX,
        },
        LatencyModel::continents(4, Dur::from_millis(11), Dur::from_millis(87), 0.3),
        seed,
        shards,
    );
    for i in 0..POP {
        let mut setup = NodeSetup::public(Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8))
            .in_region(RegionId((i % 4) as u16));
        if nat_stride > 0 && i % nat_stride == 0 {
            setup.dialable = false;
        }
        let id = match shard_of {
            Some(shard_of) => s.add_node_in(Chatter::default(), setup, shard_of[i as usize]),
            None => s.add_node(Chatter::default(), setup),
        };
        s.schedule_command(
            SimTime::ZERO + Dur::from_millis(17 * (i as u64 + 1)),
            id,
            Cmd::DialRing,
        );
        // Churn: a third of the nodes bounce, hitting the far band of the
        // wheel (hours out), and rejoin at a rotated address.
        if i % 3 == 0 {
            s.schedule_down(SimTime::ZERO + Dur::from_mins(40 + i as u64), id);
            s.schedule_up(
                SimTime::ZERO + Dur::from_hours(2) + Dur::from_mins(i as u64),
                id,
                Some(SocketAddrV4::new(Ipv4Addr::new(10, 2, 0, i as u8), 4001)),
            );
        }
    }
    s
}

fn run(shards: usize, seed: u64, with_faults: bool, nat_stride: u32) -> Fingerprint {
    let mut s = populate(shards, seed, nat_stride, None);
    if with_faults {
        let t = |m| SimTime::ZERO + Dur::from_mins(m);
        // Kill a couple of nodes abruptly, retire one, and split region 2
        // off for an hour — faults crossing every shard boundary at 2/4
        // shards (assignment is region % shards).
        s.schedule_fault(t(50), Fault::Kill { node: NodeId(5) });
        s.schedule_fault(t(50), Fault::Retire { node: NodeId(5) });
        s.schedule_fault(t(55), Fault::Kill { node: NodeId(11) });
        for i in 0..POP {
            if i % 4 == 2 {
                s.schedule_fault(
                    t(70),
                    Fault::SetNetClass {
                        node: NodeId(i),
                        class: 1,
                    },
                );
            }
        }
        s.schedule_fault(t(70), Fault::Partition { active: true });
        s.schedule_fault(t(130), Fault::Partition { active: false });
        for i in 0..POP {
            if i % 4 == 2 {
                s.schedule_fault(
                    t(130),
                    Fault::SetNetClass {
                        node: NodeId(i),
                        class: 0,
                    },
                );
            }
        }
    }
    finish(s)
}

#[test]
fn shard_counts_agree_plain() {
    let one = run(1, 0xD15EA5E, false, 0);
    assert!(
        one.events > 10_000,
        "workload exercised the engine: {one:?}"
    );
    assert_eq!(one, run(2, 0xD15EA5E, false, 0), "2 shards ≠ 1 shard");
    assert_eq!(one, run(4, 0xD15EA5E, false, 0), "4 shards ≠ 1 shard");
}

#[test]
fn shard_counts_agree_with_faults_and_relays() {
    let one = run(1, 0xBEEF, true, 5);
    assert_eq!(one, run(2, 0xBEEF, true, 5), "2 shards ≠ 1 shard");
    assert_eq!(one, run(4, 0xBEEF, true, 5), "4 shards ≠ 1 shard");
    assert_eq!(one, run(7, 0xBEEF, true, 5), "7 shards ≠ 1 shard");
}

/// The executor's sync accounting: each `run_until` is some epochs of two
/// barriers each plus one terminating barrier, on every shard.
#[test]
fn every_epoch_costs_two_barriers_and_every_run_one_more() {
    const RUNS: u64 = 4;
    let mut s = populate(3, 0xD15EA5E, 5, None);
    for k in 1..=RUNS {
        s.run_for(Dur::from_mins(20 * k));
    }
    for l in s.shard_loads() {
        assert!(l.sync.epochs > 100, "shard {} ran {:?}", l.shard, l.sync);
        assert_eq!(
            l.sync.barrier_waits,
            2 * l.sync.epochs + RUNS,
            "shard {}: {:?}",
            l.shard,
            l.sync
        );
    }
}

/// Endless ping-pong between two nodes: one event per link latency.
struct Pong;

impl Actor for Pong {
    type Msg = ();
    type Cmd = NodeId;

    fn on_command(&mut self, ctx: &mut Ctx<'_, (), NodeId>, peer: NodeId) {
        ctx.dial(peer);
    }

    fn on_dial_result(&mut self, ctx: &mut Ctx<'_, (), NodeId>, target: NodeId, ok: bool, _: bool) {
        if ok {
            ctx.send(target, ());
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, (), NodeId>, from: NodeId, _: ()) {
        ctx.send(from, ());
    }
}

/// `SimConfig::max_events` caps the engine's *cumulative* event count, the
/// same on every shard count: two `run_until` calls that each process
/// fewer events than the cap but together exceed it panic in the second
/// call, with one message, on 1 and on 2 shards.
#[test]
fn max_events_caps_cumulative_events_on_any_shard_count() {
    const CAP: u64 = 80;
    let messages: Vec<String> = [1usize, 2]
        .into_iter()
        .map(|shards| {
            let mut s: Sim<Pong> = Sim::new_sharded(
                SimConfig {
                    max_events: CAP,
                    ..SimConfig::default()
                },
                LatencyModel::uniform(Dur::from_millis(10), 0.0),
                1,
                shards,
            );
            // Regions 0 and 1: one node per shard at 2 shards.
            let a = s.add_node(Pong, NodeSetup::public(Ipv4Addr::new(10, 0, 0, 1)));
            let b = s.add_node(
                Pong,
                NodeSetup::public(Ipv4Addr::new(10, 0, 0, 2)).in_region(RegionId(1)),
            );
            s.schedule_command(SimTime::ZERO, a, b);
            s.run_until(SimTime::ZERO + Dur::from_millis(500));
            let first = s.stats().events;
            assert!(
                CAP / 2 < first && first < CAP,
                "{shards} shards: first call ran {first} events"
            );
            let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.run_until(SimTime::ZERO + Dur::from_millis(1000));
            }));
            let payload = second.expect_err("second call must exceed the cap");
            payload
                .downcast_ref::<String>()
                .expect("panic message")
                .clone()
        })
        .collect();
    assert_eq!(
        messages[0],
        format!("simulation exceeded max_events = {CAP}")
    );
    assert_eq!(messages[0], messages[1], "1 and 2 shards disagree");
}

/// The struct-of-arrays memory contract: non-owner shards replicate only
/// the compact columns (owner handle u32 + net-class u16 + region u16 =
/// 8 bytes/node), so adding shards costs O(nodes), not O(nodes × 300B).
/// With an exact reservation the bound is tight: replica capacity == len.
#[test]
fn replica_bytes_stay_o_nodes() {
    let mut single_total = 0u64;
    for shards in [1usize, 2, 4] {
        let mut s: Sim<Chatter> = Sim::new_sharded(
            SimConfig::default(),
            LatencyModel::continents(4, Dur::from_millis(11), Dur::from_millis(87), 0.3),
            7,
            shards,
        );
        s.reserve_nodes(POP as usize);
        for i in 0..POP {
            let setup = NodeSetup::public(Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8))
                .in_region(RegionId((i % 4) as u16));
            let id = s.add_node(Chatter::default(), setup);
            s.schedule_command(
                SimTime::ZERO + Dur::from_millis(i as u64),
                id,
                Cmd::DialRing,
            );
        }
        s.run_for(Dur::from_mins(30));
        let loads = s.shard_loads();
        assert_eq!(loads.len(), shards);
        let owned: u64 = loads.iter().map(|l| l.state.owned_nodes).sum();
        assert_eq!(owned, POP as u64, "every node owned exactly once");
        let dispatched: u64 = loads.iter().map(|l| l.dispatched).sum();
        assert!(dispatched >= s.stats().events, "dispatched covers events");
        for l in &loads {
            // ≤ 8 bytes × nodes per shard replica — the O(nodes) claim.
            assert!(
                l.state.replica_bytes <= 8 * POP as u64,
                "shard {} replica {}B > 8B × {POP} nodes",
                l.shard,
                l.state.replica_bytes
            );
        }
        let total: u64 = loads.iter().map(|l| l.state.replica_bytes).sum();
        if shards == 1 {
            single_total = total;
        } else {
            // Each extra shard adds at most 8 bytes × nodes of replicas.
            assert!(
                total - single_total <= 8 * POP as u64 * (shards as u64 - 1),
                "extra-shard replica cost too high: {total} vs {single_total}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds and NAT densities: every shard count replays the same
    /// history.
    #[test]
    fn shard_equivalence_randomized(seed in 1u64..1_000_000, nat_stride in 0u32..7, faults in any::<bool>()) {
        let one = run(1, seed, faults, nat_stride);
        prop_assert_eq!(&one, &run(2, seed, faults, nat_stride));
        prop_assert_eq!(&one, &run(4, seed, faults, nat_stride));
    }

    /// Placement invariance: an *arbitrary* node→shard assignment — the
    /// general case of which the balanced partitioner is one instance —
    /// replays the 1-shard history byte-for-byte, including assignments
    /// that split every region across many shards (the per-pair lookahead
    /// matrix then carries intra-region floors on the split pairs).
    #[test]
    fn placement_equivalence_randomized(
        seed in 1u64..1_000_000,
        shards_pick in 0usize..3,
        assign in proptest::collection::vec(0u16..7, POP as usize),
    ) {
        let shards = [2usize, 4, 7][shards_pick];
        let shard_of: Vec<u16> = assign.iter().map(|&a| a % shards as u16).collect();
        let one = run(1, seed, false, 0);
        let placed = finish(populate(shards, seed, 0, Some(&shard_of)));
        prop_assert_eq!(&one, &placed);
    }
}

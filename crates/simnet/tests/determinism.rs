//! Determinism regression tests for the timer-wheel scheduler.
//!
//! The engine's contract: same seed + same call sequence ⇒ byte-identical
//! event traces. `Sim::trace_digest` folds every processed event
//! (time, kind, operands) into a running FNV hash, so two runs can be
//! compared without recording full traces.

use simnet::{Actor, Ctx, Dur, LatencyModel, NodeId, NodeSetup, Sim, SimConfig, SimTime};
use std::net::Ipv4Addr;

/// A chatty actor exercising every event kind: dials, messages, timers,
/// loopback commands, disconnects.
#[derive(Default)]
struct Chatter {
    hops: u32,
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
                // Dial the next three nodes round-robin.
                let n = 64u32;
                let me = ctx.me().0;
                for d in 1..=3 {
                    ctx.dial(NodeId((me + d) % n));
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
            ctx.send(target, 1);
            // Schedule a later loopback ping through the command path.
            ctx.schedule_self(Dur::from_mins(7), Cmd::Ping(target));
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, Cmd>, token: u64) {
        // Periodic re-dial keeps churn-dropped connections coming back (the
        // run is bounded by `run_for`, so the re-arm chain is finite).
        ctx.set_timer(Dur::from_mins(11), token);
        let n = 64u32;
        ctx.dial(NodeId(((token as u32) + 7) % n));
    }
}

/// A mixed workload over 64 nodes with churn, loss and multi-band timers;
/// returns the trace digest plus headline counters.
fn run_mixed(seed: u64, chunked: bool) -> (u64, u64, u64) {
    let mut s: Sim<Chatter> = Sim::new(
        SimConfig {
            loss: 0.01,
            dial_timeout: Dur::from_secs(9),
            max_events: u64::MAX,
        },
        LatencyModel::continents(4, Dur::from_millis(11), Dur::from_millis(87), 0.3),
        seed,
    );
    let n = 64u32;
    for i in 0..n {
        let id = s.add_node(
            Chatter::default(),
            NodeSetup::public(Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8))
                .in_region(simnet::RegionId((i % 4) as u16)),
        );
        s.schedule_command(
            SimTime::ZERO + Dur::from_millis(17 * (i as u64 + 1)),
            id,
            Cmd::DialRing,
        );
        // Churn: a third of the nodes bounce, hitting the far band of the
        // wheel (hours out).
        if i % 3 == 0 {
            s.schedule_down(SimTime::ZERO + Dur::from_mins(40 + i as u64), id);
            s.schedule_up(
                SimTime::ZERO + Dur::from_hours(2) + Dur::from_mins(i as u64),
                id,
                None,
            );
        }
    }
    if chunked {
        // Same virtual horizon, sliced into uneven run_until calls — the
        // scheduler must produce the identical trace regardless of how the
        // driver advances time.
        for k in 1..=9u64 {
            s.run_for(Dur::from_mins(20 * k));
        }
    } else {
        s.run_for(Dur::from_hours(30));
    }
    (s.trace_digest(), s.stats().events, s.stats().msgs_delivered)
}

#[test]
fn golden_trace_same_seed_identical_digest() {
    let a = run_mixed(0xD15EA5E, false);
    let b = run_mixed(0xD15EA5E, false);
    assert_eq!(a, b, "same seed must reproduce the exact event trace");
    assert!(
        a.1 > 10_000,
        "workload actually exercised the engine: {a:?}"
    );
}

#[test]
fn golden_trace_differs_across_seeds() {
    let a = run_mixed(1, false);
    let b = run_mixed(2, false);
    assert_ne!(
        a.0, b.0,
        "different seeds should shift latencies and traces"
    );
}

#[test]
fn golden_trace_invariant_under_run_until_chunking() {
    // 9 chunks of 20·k minutes = 900 min total vs — run the unchunked
    // variant for the same total and compare.
    let total: u64 = (1..=9u64).map(|k| 20 * k).sum();
    let run_whole = |seed: u64| {
        let mut s = run_mixed_sim(seed);
        s.run_for(Dur::from_mins(total));
        (s.trace_digest(), s.stats().events)
    };
    let run_chunks = |seed: u64| {
        let mut s = run_mixed_sim(seed);
        for k in 1..=9u64 {
            s.run_for(Dur::from_mins(20 * k));
        }
        (s.trace_digest(), s.stats().events)
    };
    assert_eq!(run_whole(77), run_chunks(77));
}

/// The `run_mixed` setup without driving time (chunking test helper).
fn run_mixed_sim(seed: u64) -> Sim<Chatter> {
    let mut s: Sim<Chatter> = Sim::new(
        SimConfig {
            loss: 0.01,
            dial_timeout: Dur::from_secs(9),
            max_events: u64::MAX,
        },
        LatencyModel::continents(4, Dur::from_millis(11), Dur::from_millis(87), 0.3),
        seed,
    );
    let n = 64u32;
    for i in 0..n {
        let id = s.add_node(
            Chatter::default(),
            NodeSetup::public(Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8))
                .in_region(simnet::RegionId((i % 4) as u16)),
        );
        s.schedule_command(
            SimTime::ZERO + Dur::from_millis(17 * (i as u64 + 1)),
            id,
            Cmd::DialRing,
        );
        if i % 3 == 0 {
            s.schedule_down(SimTime::ZERO + Dur::from_mins(40 + i as u64), id);
            s.schedule_up(
                SimTime::ZERO + Dur::from_hours(2) + Dur::from_mins(i as u64),
                id,
                None,
            );
        }
    }
    s
}

//! The harness side of the engine: [`Sim`] owns the shards, registers
//! nodes, schedules harness events and faults, runs the clock, and answers
//! reads about engine state through one read-only view ([`CoreView`]).
//!
//! Every participant of the simulated IPFS ecosystem — regular nodes,
//! platform fleets, monitors, Hydra boosters, crawlers, gateways — is an
//! [`Actor`] registered with a [`Sim`]. The engine owns virtual time, a
//! deterministic event queue, the connection fabric (including NAT dialing
//! rules and circuit-relay dials), per-node liveness, and per-node seeded
//! RNGs. Actors are sans-io state machines: they react to callbacks and emit
//! effects through [`crate::Ctx`]; they never see wall-clock time or OS
//! sockets.
//!
//! # Sharded execution
//!
//! Nodes are partitioned into N *shards*. Each shard owns its slice of the
//! node population — per-node state, connection halves, RNGs — plus its own
//! timer wheel. Cross-shard events travel through per-pair mailboxes drained
//! under conservative epoch synchronization (see `crate::shard`): shard `i`
//! never executes past `min_j(t_j + L[j][i])`, where `L` is the shard×shard
//! *lookahead matrix* — `L[j][i]` is the minimum possible latency of a link
//! from a region hosted on shard `j` to one hosted on shard `i`
//! ([`Sim::lookahead_matrix`]) — so no shard can receive an event "from the
//! past". `Sim::new` builds a single-shard engine (the plain sequential
//! path); [`Sim::new_sharded`] enables multi-core campaigns.
//!
//! # Determinism contract (v2, shard-invariant)
//!
//! With the same seed and the same harness call sequence, the engine
//! produces identical results **for every shard count**: per-node event
//! histories, all [`SimStats`] counters except `peak_queue_len` (a
//! per-queue pressure gauge), and the merged trace digest are byte-identical
//! whether the run used 1 shard or 8. Three mechanisms deliver this:
//!
//! * **content-addressed ordering** — every event carries a `(time, origin,
//!   origin-seq)` key, where `origin` is the node (or the harness) that
//!   scheduled it and `origin-seq` is that origin's private counter. Each
//!   shard pops in ascending `(time, key)` order, so a node's inbound event
//!   sequence never depends on how nodes are distributed over shards;
//! * **per-node RNGs** — every node draws from its own seeded generator
//!   (latency jitter from the scheduling node's, loss from the receiver's),
//!   so draw order is a function of per-node history only;
//! * **endpoint-owned connection halves** — each node's window of the
//!   owning shard's [`crate::ConnPool`] slab holds *its* half of every
//!   connection, including the peer address captured at handshake time, so
//!   event dispatch never reads another shard's state. Cross-node effects
//!   (dial handshakes, FINs, relay hops) travel as events with link latency,
//!   exactly like real sockets.
//!
//! The state columns behind this and the digest fold are described in
//! `crate::state`.

use crate::ctx::{Actor, NodeSetup};
use crate::dispatch::Shard;
use crate::latency::{LatencyModel, RegionId};
use crate::lookahead::LookaheadInfo;
use crate::state::{
    ev_key, Ev, Fault, NodeId, SimConfig, SimCore, F_DIALABLE, F_ONLINE, F_RETIRED, HARNESS_ORIGIN,
    MAX_SHARDS,
};
use crate::stats::{ShardLoad, SimStats, StateBytes};
use crate::time::{Dur, SimTime};
use crate::wheel::TimerWheel;
use std::net::SocketAddrV4;
use std::sync::Arc;

/// The simulator: one or more shards, each holding an engine core and the
/// actors it owns.
pub struct Sim<A: Actor> {
    pub(crate) shards: Vec<Shard<A>>,
    /// Sequence counter for harness-scheduled events.
    harness_seq: u32,
    /// Engine seed (derives per-node RNG seeds).
    seed: u64,
    /// Cached conservative lookahead matrix; invalidated by `add_node`.
    lookahead_cache: Option<LookaheadInfo>,
}

/// Engine forking: cloning a quiesced `Sim` (between `run_*` calls —
/// worker threads are scoped per run, outboxes are drained at epoch
/// barriers) snapshots the entire deterministic state: queues, per-node
/// RNGs, connection halves, actors, digests and counters. The clone
/// replays the identical future for the same harness calls, and whatever
/// is done to it leaves the original untouched — the primitive behind
/// mid-campaign observatory samples (crawls, probes) that must not
/// perturb the main trace. A fork is a plain deep copy — queue slab,
/// state columns, actors — and shares nothing with the original.
impl<A: Actor + Clone> Clone for Sim<A>
where
    A::Msg: Clone,
    A::Cmd: Clone,
{
    fn clone(&self) -> Self {
        Sim {
            shards: self.shards.clone(),
            harness_seq: self.harness_seq,
            seed: self.seed,
            lookahead_cache: self.lookahead_cache.clone(),
        }
    }
}

/// Read-only view of engine state for harness-side oracles, each question
/// answered by the shard that owns the node asked about. All methods assume
/// the engine is quiesced (between `run_*` calls).
pub struct CoreView<'a, A: Actor> {
    sim: &'a Sim<A>,
}

impl<'a, A: Actor> CoreView<'a, A> {
    /// Number of registered nodes (online or not).
    pub fn node_count(&self) -> usize {
        self.sim.shards[0].core.owner.len()
    }

    /// Whether a node is currently online.
    pub fn is_online(&self, node: NodeId) -> bool {
        self.sim.owner(node).core.flags(node) & F_ONLINE != 0
    }

    /// Whether a node accepts direct inbound dials.
    pub fn is_dialable(&self, node: NodeId) -> bool {
        self.sim.owner(node).core.flags(node) & F_DIALABLE != 0
    }

    /// Whether a node has been retired by a [`Fault::Retire`].
    pub fn is_retired(&self, node: NodeId) -> bool {
        self.sim.owner(node).core.flags(node) & F_RETIRED != 0
    }

    /// A node's partition class (0 unless re-classed by a fault).
    pub fn net_class(&self, node: NodeId) -> u16 {
        self.sim.owner(node).core.net_class[node.idx()]
    }

    /// Whether any partition is currently active.
    pub fn partition_active(&self) -> bool {
        self.sim.shards[0].core.partition_depth > 0
    }

    /// A node's current socket address.
    pub fn addr(&self, node: NodeId) -> SocketAddrV4 {
        self.sim.owner(node).core.addr(node)
    }

    /// A node's region.
    pub fn region(&self, node: NodeId) -> RegionId {
        let core = &self.sim.owner(node).core;
        core.owned.region[core.local(node)]
    }

    /// Whether `a` holds its half of a connection to `b` (symmetric at
    /// quiesce points).
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.sim.owner(a).core.connected(a, b)
    }

    /// A node's open connections in ascending peer order.
    pub fn connections(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.sim.owner(node).core.connections(node)
    }

    /// Number of open connections.
    pub fn connection_count(&self, node: NodeId) -> usize {
        self.sim.owner(node).core.connection_count(node)
    }
}

impl<A: Actor> Sim<A> {
    /// Create a single-shard engine with the given config, latency model
    /// and RNG seed — the plain sequential scheduler.
    pub fn new(cfg: SimConfig, latency: LatencyModel, seed: u64) -> Sim<A> {
        Sim::new_sharded(cfg, latency, seed, 1)
    }

    /// Create an engine partitioned into `n_shards` shards. Node→shard
    /// assignment defaults to `region % n_shards` ([`Sim::add_node`]);
    /// override per node with [`Sim::add_node_in`]. Results are identical
    /// for every shard count (see the module docs for the contract).
    pub fn new_sharded(
        cfg: SimConfig,
        latency: LatencyModel,
        seed: u64,
        n_shards: usize,
    ) -> Sim<A> {
        let n_shards = n_shards.clamp(1, MAX_SHARDS);
        let shards = (0..n_shards)
            .map(|s| Shard {
                core: SimCore::new(cfg.clone(), s as u16, n_shards, &latency),
                actors: Vec::new(),
            })
            .collect();
        Sim {
            shards,
            harness_seq: 0,
            seed,
            lookahead_cache: None,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `node` (every shard knows every node's owner).
    fn owner(&self, node: NodeId) -> &Shard<A> {
        &self.shards[self.shards[0].core.shard_of(node) as usize]
    }

    fn owner_mut(&mut self, node: NodeId) -> &mut Shard<A> {
        let s = self.shards[0].core.shard_of(node) as usize;
        &mut self.shards[s]
    }

    fn next_harness_key(&mut self) -> u64 {
        debug_assert!(self.harness_seq < u32::MAX, "harness sequence overflow");
        let k = ev_key(HARNESS_ORIGIN, self.harness_seq);
        self.harness_seq += 1;
        k
    }

    /// Register a node in the shard chosen by the default assignment:
    /// regions map whole onto shards (`region % n_shards`), so every
    /// cross-shard latency sits at the inter-region floor of the latency
    /// matrix. Results are byte-identical under any assignment; campaigns
    /// place nodes explicitly through [`Sim::add_node_in`].
    /// If `setup.online`, an up-event is queued at the current time so
    /// `on_start` runs through the normal event path.
    pub fn add_node(&mut self, actor: A, setup: NodeSetup) -> NodeId {
        let shard = setup.region.0 % self.shards.len() as u16;
        self.add_node_in(actor, setup, shard)
    }

    /// Register a node in an explicit shard.
    pub fn add_node_in(&mut self, actor: A, setup: NodeSetup, shard: u16) -> NodeId {
        assert!((shard as usize) < self.shards.len(), "shard out of range");
        let id = NodeId(self.shards[0].core.owner.len() as u32);
        let local = self.shards[shard as usize].actors.len();
        for sh in self.shards.iter_mut() {
            sh.core.push_node(id, shard, local, self.seed, &setup);
        }
        self.shards[shard as usize].actors.push(actor);
        self.lookahead_cache = None;
        if setup.online {
            let k = self.next_harness_key();
            let sh = &mut self.shards[shard as usize];
            let now = sh.core.now;
            sh.core.enqueue_local(
                now,
                k,
                Ev::NodeUp {
                    node: id,
                    addr: None,
                },
            );
        }
        id
    }

    /// Pre-size the per-node columns for a population of `total` nodes
    /// (exact-fit for the replicated columns, so the measured
    /// per-extra-shard replica cost is exactly 8 bytes × nodes; the
    /// owner-only columns are sized for an even split and grow
    /// geometrically past it).
    pub fn reserve_nodes(&mut self, total: usize) {
        let per_shard = total / self.shards.len() + 1;
        for sh in self.shards.iter_mut() {
            sh.core.reserve_nodes(total, per_shard);
            sh.actors.reserve(per_shard.saturating_sub(sh.actors.len()));
        }
    }

    /// Per-shard load and memory accounting: owned nodes, dispatched
    /// events (including broadcast fault replicas), and the measured
    /// replica/owner byte split. Index = shard id.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|sh| ShardLoad {
                shard: sh.core.shard,
                dispatched: sh.core.stats.dispatched,
                state: sh.core.state_bytes(),
                sync: sh.core.sync,
            })
            .collect()
    }

    /// Bytes one queued event occupies in a shard's timer wheel, for this
    /// actor type's messages and commands.
    pub fn queued_event_bytes() -> usize {
        TimerWheel::<Ev<A::Msg, A::Cmd>>::NODE_BYTES
    }

    /// Whole-engine state accounting (per-shard splits folded together).
    pub fn state_bytes(&self) -> StateBytes {
        let mut agg = StateBytes::default();
        for sh in &self.shards {
            agg.add(&sh.core.state_bytes());
        }
        agg
    }

    /// Read-only view of engine state (harness-side oracle: addresses,
    /// liveness, connections). Valid between `run_*` calls.
    pub fn core(&self) -> CoreView<'_, A> {
        CoreView { sim: self }
    }

    /// Aggregated counters across every shard.
    pub fn stats(&self) -> SimStats {
        let mut agg = SimStats::default();
        for sh in &self.shards {
            agg.add(&sh.core.stats);
        }
        agg
    }

    /// Merged run digest: per-shard digest accumulators folded in shard
    /// order (`wrapping_add`, so the result is invariant under
    /// re-sharding of the same event multiset).
    pub fn trace_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, sh| acc.wrapping_add(sh.core.trace))
    }

    /// Current virtual time (shards agree at quiesce points).
    pub fn now(&self) -> SimTime {
        self.shards[0].core.now
    }

    /// Immutable actor accessor (e.g. to read a monitor's log after a run).
    pub fn actor(&self, node: NodeId) -> &A {
        let sh = self.owner(node);
        &sh.actors[sh.core.local(node)]
    }

    /// Mutable actor accessor (harness-side configuration between runs).
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        let sh = self.owner_mut(node);
        &mut sh.actors[sh.core.local(node)]
    }

    /// Open a connection between `a` and `b` directly (both halves, with
    /// captured addresses) — harness/test fabric bootstrap that skips the
    /// dial handshake.
    pub fn connect_pair(&mut self, a: NodeId, b: NodeId, relayed: bool) {
        for (me, peer) in [(a, b), (b, a)] {
            let peer_addr = self.owner(peer).core.addr(peer);
            let core = &mut self.owner_mut(me).core;
            let l = core.local(me);
            core.owned.conns.insert(l, peer, relayed, peer_addr);
        }
    }

    fn push_harness(&mut self, target: NodeId, at: SimTime, ev: Ev<A::Msg, A::Cmd>) {
        let k = self.next_harness_key();
        let sh = self.owner_mut(target);
        let at = at.max(sh.core.now);
        // Harness pushes happen at quiesce points where every shard agrees
        // on `now`, so this sample is shard-invariant too.
        telemetry::observe(telemetry::Metric::SchedDelayNs, at.0 - sh.core.now.0);
        sh.core.enqueue_local(at, k, ev);
    }

    /// Schedule a node to come online at `at`, optionally with a new address
    /// (IP rotation on re-join).
    pub fn schedule_up(&mut self, at: SimTime, node: NodeId, addr: Option<SocketAddrV4>) {
        self.push_harness(node, at, Ev::NodeUp { node, addr });
    }

    /// Schedule a node to go offline at `at`.
    pub fn schedule_down(&mut self, at: SimTime, node: NodeId) {
        self.push_harness(node, at, Ev::NodeDown { node });
    }

    /// Schedule a harness command for a node at `at`.
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: A::Cmd) {
        self.push_harness(node, at, Ev::Command { node, cmd });
    }

    /// Schedule a fault-injection event (the `whatif` engine's entry
    /// point). Faults queued at the same instant execute in scheduling
    /// order. Faults touching replicated or cross-shard state (kills,
    /// class changes, partitions) are broadcast to every shard under one
    /// harness key; the owning shard's copy is the counted one.
    pub fn schedule_fault(&mut self, at: SimTime, fault: Fault) {
        let k = self.next_harness_key();
        // Once per call (not per broadcast replica): shards agree on `now`
        // at the quiesce points where faults are scheduled, so recording
        // against shard 0 keeps the sample multiset shard-invariant.
        telemetry::observe(
            telemetry::Metric::SchedDelayNs,
            at.max(self.shards[0].core.now).0 - self.shards[0].core.now.0,
        );
        let owner = |sim: &Sim<A>, node: NodeId| sim.shards[0].core.shard_of(node);
        let (broadcast, primary_shard) = match fault {
            Fault::Retire { node } => (false, owner(self, node)),
            Fault::Kill { node } | Fault::SetNetClass { node, .. } => (true, owner(self, node)),
            Fault::Partition { .. } => (true, 0),
        };
        for (s, sh) in self.shards.iter_mut().enumerate() {
            let primary = s as u16 == primary_shard;
            if broadcast || primary {
                let at = at.max(sh.core.now);
                sh.core.enqueue_local(at, k, Ev::Fault { fault, primary });
            }
        }
    }

    /// The per-shard-pair lookahead bounds, computed from the latency model
    /// and each shard's region occupancy on first use after an `add_node`.
    fn lookahead_info(&mut self) -> &LookaheadInfo {
        let n = self.shards.len();
        self.lookahead_cache
            .get_or_insert_with(|| LookaheadInfo::compute(&self.shards[0].core, n))
    }

    /// The effective shard×shard conservative lookahead matrix (row-major,
    /// `matrix[src * n + dst]`): the earliest a node on shard `src` can
    /// influence a node on shard `dst` — the metric closure of the per-pair
    /// channel floors, i.e. the shortest path over direct link floors
    /// (influence can relay through intermediate shards). Under epoch sync,
    /// shard `i` safely advances to `min_j(t_j + matrix[j * n + i])` —
    /// pairs that only talk over wide-area links no longer throttle each
    /// other down to the global minimum. Diagonal and impossible pairs hold
    /// a large sentinel (`u64::MAX / 4`).
    pub fn lookahead_matrix(&mut self) -> Arc<[Dur]> {
        self.lookahead_info().closure.clone()
    }

    /// Run until virtual time `t` (inclusive of events at `t`); afterwards
    /// `now() == t` even if the queue drained early. One shard steps its
    /// queue in place; several run the two-barrier epoch loop of
    /// `crate::shard`, one scoped worker per shard, and leave every
    /// cross-shard mailbox drained.
    pub fn run_until(&mut self, t: SimTime) {
        let max_events = self.shards[0].core.cfg.max_events;
        if self.shards.len() == 1 {
            let sh = &mut self.shards[0];
            while sh.step_bounded(None, t) {
                if sh.core.stats.events > max_events {
                    panic!("simulation exceeded max_events = {max_events}");
                }
            }
            sh.core.now = sh.core.now.max(t);
        } else {
            let info = self.lookahead_info().clone();
            assert!(
                info.min > Dur::ZERO,
                "sharded execution requires a strictly positive minimum \
                 cross-shard link latency (got a zero-latency cross-shard pair)"
            );
            // Failed dials report at `started + dial_timeout`, pushed from
            // the far end after up to two link latencies — conservative
            // sync needs that report to still clear the *widest* channel
            // lookahead in the pushing shard's future. An assert in
            // `route` guards each push; this guards the configuration itself
            // so release builds cannot silently break the shard-invariance
            // contract.
            let core0 = &self.shards[0].core;
            let max_base = core0.lat_base.iter().copied().max().unwrap_or(Dur::ZERO);
            let max_lat = Dur((max_base.0 as f64 * (1.0 + core0.lat_jitter)).ceil() as u64);
            if info.max_finite > Dur::ZERO {
                assert!(
                    core0.cfg.dial_timeout >= max_lat * 2 + info.max_finite,
                    "sharded execution requires dial_timeout ({:?}) >= twice the \
                     maximum link latency plus the widest channel lookahead ({:?})",
                    core0.cfg.dial_timeout,
                    max_lat * 2 + info.max_finite
                );
            }
            crate::shard::run_epochs(&mut self.shards, &info.direct, &info.closure, max_events, t);
        }
    }

    /// Run for `d` of virtual time.
    pub fn run_for(&mut self, d: Dur) {
        let t = self.now() + d;
        self.run_until(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::{ip, sim, Echo};

    #[test]
    fn rejoin_with_new_addr() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        s.schedule_down(SimTime::ZERO + Dur::from_secs(1), a);
        let new_addr = SocketAddrV4::new(ip(99), 4001);
        s.schedule_up(SimTime::ZERO + Dur::from_secs(2), a, Some(new_addr));
        s.run_for(Dur::from_secs(3));
        assert_eq!(s.core().addr(a), new_addr);
        assert_eq!(s.actor(a).started, 2);
        assert_eq!(s.actor(a).stopped, 1);
    }

    #[test]
    fn deterministic_event_trace() {
        let run = |seed: u64| -> (u64, u64, Vec<(NodeId, u32)>) {
            let mut s: Sim<Echo> = Sim::new(
                SimConfig::default(),
                LatencyModel::uniform(Dur::from_millis(20), 0.5),
                seed,
            );
            let mut last = None;
            for i in 0..20u8 {
                let n = s.add_node(
                    Echo {
                        echo: true,
                        ..Default::default()
                    },
                    NodeSetup::public(ip(i + 1)),
                );
                last = Some(n);
            }
            for i in 1..20u32 {
                s.schedule_command(
                    SimTime::ZERO + Dur::from_millis(i as u64 * 37),
                    NodeId(i),
                    "dial0",
                );
            }
            s.run_for(Dur::from_secs(60));
            let l = last.unwrap();
            (
                s.stats().events,
                s.stats().msgs_delivered,
                s.actor(l).got.clone(),
            )
        };
        assert_eq!(run(11), run(11));
        // Different seed shifts latencies ⇒ different interleavings are
        // allowed (no assertion), but same seed must match exactly.
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut s = sim();
        s.run_until(SimTime::ZERO + Dur::from_secs(100));
        assert_eq!(s.now().as_secs(), 100);
    }
}

//! The discrete-event simulation engine.
//!
//! Every participant of the simulated IPFS ecosystem — regular nodes,
//! platform fleets, monitors, Hydra boosters, crawlers, gateways — is an
//! [`Actor`] registered with a [`Sim`]. The engine owns virtual time, a
//! deterministic event queue, the connection fabric (including NAT dialing
//! rules and circuit-relay dials), per-node liveness, and per-node seeded
//! RNGs. Actors are sans-io state machines: they react to callbacks and emit
//! effects through [`Ctx`]; they never see wall-clock time or OS sockets.
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
//!   owning shard's [`ConnPool`] slab holds *its* half of every connection,
//!   including the peer address captured at handshake time, so event
//!   dispatch never reads another shard's state. Cross-node effects (dial
//!   handshakes, FINs, relay hops) travel as events with link latency,
//!   exactly like real sockets.
//!
//! # Memory layout (struct-of-arrays)
//!
//! Per-node state is split by access pattern into parallel columns rather
//! than an array-of-structs. The only fields a non-owner shard ever reads —
//! the packed owner handle, the partition class, and the latency-region
//! index — are *replicated* on every shard as three compact vectors
//! (8 bytes per node per shard). Everything else (liveness flags, address,
//! RNG, sequence counter, pending accepts, connection halves) lives in
//! dense *owner-only* columns indexed by a per-shard local index, so total
//! state is O(nodes × 8B × shards + nodes × owner-state) instead of
//! O(nodes × ~300B × shards). The owner columns sit behind an [`Arc`] with
//! copy-on-write semantics: cloning an engine for a fork (the observatory
//! primitive) shares them and copies only on first write, which makes
//! [`Sim::clone`] O(queued events), not O(nodes). [`SimCore::state_bytes`]
//! reports the measured split.
//!
//! [`Sim::trace_digest`] folds every processed event into a commutative
//! per-shard accumulator (FNV-1a per event, `wrapping_add` across events);
//! the merged digest folds the per-shard digests in shard order. Addition is
//! commutative, so the merged digest is invariant under re-sharding — the
//! cheap oracle that a 4-shard run replayed the 1-shard history exactly.

use crate::conn::ConnPool;
use crate::latency::{LatencyModel, RegionId};
use crate::time::{Dur, SimTime};
use crate::wheel::TimerWheel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;

/// Dense node handle.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl NodeId {
    /// Index into dense per-node vectors.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Behaviour of a simulated network participant.
///
/// All methods have no-op defaults so small test actors stay small. Actors
/// (and their message/command types) must be `Send`: the sharded executor
/// moves each shard's actors to a worker thread for the duration of a run.
pub trait Actor: Sized + Send {
    /// Wire message type exchanged between actors.
    type Msg: Clone + std::fmt::Debug + Send;
    /// Harness command type (workload injection).
    type Cmd: std::fmt::Debug + Send;

    /// Node came online (initial start or churn re-join).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>) {}
    /// Node is going offline; connections are still registered during this
    /// call but nothing sent will be delivered.
    fn on_stop(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>) {}
    /// A message arrived on an open connection.
    fn on_message(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>,
        _from: NodeId,
        _msg: Self::Msg,
    ) {
    }
    /// A harness command fired.
    fn on_command(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>, _cmd: Self::Cmd) {}
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>, _token: u64) {}
    /// A remote peer successfully dialed us.
    fn on_inbound_connection(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>,
        _from: NodeId,
        _relayed: bool,
    ) {
    }
    /// Outcome of our own dial.
    fn on_dial_result(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>,
        _target: NodeId,
        _ok: bool,
        _relayed: bool,
    ) {
    }
    /// An open connection was closed (remote disconnect or churn).
    fn on_connection_closed(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Cmd>, _peer: NodeId) {}
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Probability that a delivered message is lost in flight.
    pub loss: f64,
    /// How long an unanswered dial takes to fail (the paper's crawler used a
    /// 3-minute connection timeout; protocol code usually uses seconds).
    pub dial_timeout: Dur,
    /// Safety valve: `run_until` panics once the engine has processed more
    /// than this many events in total (`SimStats::events`, cumulative over
    /// every run call, the same count on any number of shards).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            loss: 0.0,
            dial_timeout: Dur::from_secs(10),
            max_events: u64::MAX,
        }
    }
}

/// Engine-level fault/intervention primitives — the levers the `whatif`
/// counterfactual engine pulls. Scheduled through the ordinary event queue
/// (same `(time, key)` ordering, same trace digest) so an intervention plan
/// is as deterministic as the workload it perturbs. Faults that touch
/// replicated state (partition classes, kills) are broadcast to every shard
/// under one harness key; only the *primary* copy (the target's owner, or
/// shard 0 for global faults) is counted in the digest and kind counters, so
/// the counted event multiset is shard-invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Abrupt process kill: the node goes offline *without* `on_stop`, and
    /// its connections vanish from both endpoints without any FIN — peers
    /// get no [`Actor::on_connection_closed`] callback and discover the
    /// death only through their own failed sends and RPC timeouts.
    Kill {
        /// The node to kill.
        node: NodeId,
    },
    /// Decommission a node: any future `NodeUp` (e.g. a churn schedule
    /// queued before the intervention) is ignored. Does not by itself take
    /// the node down — pair with `Kill` or a scheduled down.
    Retire {
        /// The node to retire.
        node: NodeId,
    },
    /// Assign a partition class (effective while a [`Fault::Partition`] is
    /// active; all nodes start in class 0).
    SetNetClass {
        /// The node to re-class.
        node: NodeId,
        /// Its new class.
        class: u16,
    },
    /// Activate or heal a network partition. Activations nest (a depth
    /// counter, so overlapping partitions compose: healing one leaves the
    /// others enforced — reset the healed set's classes to rejoin it to
    /// the main island). While any partition is active, dials between
    /// nodes of different classes fail (after the dial timeout, like any
    /// unreachable target); on activation every open connection crossing a
    /// class boundary is severed with `ConnClosed` notifications to both
    /// sides.
    Partition {
        /// `true` = split, `false` = heal.
        active: bool,
    },
}

/// Events processed, broken out by kind (scheduler observability: a
/// regression in e.g. dial handling shows up here before it shows up in the
/// experiment tables).
#[derive(Clone, Debug, Default)]
pub struct EventKindCounts {
    /// Message deliveries (including ones subsequently dropped or lost).
    pub deliver: u64,
    /// Dial arrivals at the target.
    pub dial_arrive: u64,
    /// Handshake completions at the accepting side.
    pub handshake: u64,
    /// Circuit-relay hops processed at the relay.
    pub relay_hop: u64,
    /// Dial outcomes reported back to the dialer.
    pub dial_outcome: u64,
    /// Timer expirations (including stale ones for offline nodes).
    pub timer: u64,
    /// Harness/loopback commands.
    pub command: u64,
    /// Batched command deliveries (one per batch, not per inner command).
    pub command_batch: u64,
    /// Node up transitions.
    pub node_up: u64,
    /// Node down transitions.
    pub node_down: u64,
    /// Connection-closed notifications.
    pub conn_closed: u64,
    /// Fault-injection events (kills, retirements, partitions; broadcast
    /// replicas are not counted).
    pub fault: u64,
}

impl EventKindCounts {
    fn add(&mut self, o: &EventKindCounts) {
        self.deliver += o.deliver;
        self.dial_arrive += o.dial_arrive;
        self.handshake += o.handshake;
        self.relay_hop += o.relay_hop;
        self.dial_outcome += o.dial_outcome;
        self.timer += o.timer;
        self.command += o.command;
        self.command_batch += o.command_batch;
        self.node_up += o.node_up;
        self.node_down += o.node_down;
        self.conn_closed += o.conn_closed;
        self.fault += o.fault;
    }
}

/// Aggregate engine counters (cheap sanity instrumentation; the paper's
/// measurements come from actor logs, not from these). All counters are
/// shard-invariant event-multiset sums except [`SimStats::peak_queue_len`],
/// which gauges per-queue pressure (aggregated as the max across shards).
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Messages submitted via [`Ctx::send`].
    pub msgs_sent: u64,
    /// Messages delivered to an actor.
    pub msgs_delivered: u64,
    /// Messages dropped by random loss.
    pub msgs_lost: u64,
    /// Messages dropped because the target was offline / disconnected.
    pub msgs_dropped: u64,
    /// Successful dials.
    pub dials_ok: u64,
    /// Failed dials.
    pub dials_failed: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Commands delivered.
    pub commands: u64,
    /// Commands dropped because the node was offline.
    pub commands_dropped: u64,
    /// Total events processed (broadcast fault replicas excluded).
    pub events: u64,
    /// Events this shard's dispatch loop executed, *including* broadcast
    /// fault replicas (per-shard load gauge; the aggregate view sums the
    /// shards, so unlike `events` it is engine-configuration-dependent and
    /// not part of the deterministic output contract).
    pub dispatched: u64,
    /// Largest event-queue population ever observed on any single shard
    /// (scheduler pressure; engine-configuration-dependent, *not* part of
    /// the deterministic output contract).
    pub peak_queue_len: u64,
    /// Processed events by kind.
    pub kinds: EventKindCounts,
}

impl SimStats {
    /// Fold another shard's counters into an aggregate view.
    fn add(&mut self, o: &SimStats) {
        self.msgs_sent += o.msgs_sent;
        self.msgs_delivered += o.msgs_delivered;
        self.msgs_lost += o.msgs_lost;
        self.msgs_dropped += o.msgs_dropped;
        self.dials_ok += o.dials_ok;
        self.dials_failed += o.dials_failed;
        self.timers_fired += o.timers_fired;
        self.commands += o.commands;
        self.commands_dropped += o.commands_dropped;
        self.events += o.events;
        self.dispatched += o.dispatched;
        self.peak_queue_len = self.peak_queue_len.max(o.peak_queue_len);
        self.kinds.add(&o.kinds);
    }
}

/// Node is currently online.
const F_ONLINE: u8 = 1;
/// Direct inbound dials succeed (false = behind NAT).
const F_DIALABLE: u8 = 2;
/// Decommissioned by a [`Fault::Retire`]: future `NodeUp`s are ignored.
const F_RETIRED: u8 = 4;

/// Bits of the packed owner handle carrying the dense local index; the
/// remaining high bits carry the owning shard.
const LOCAL_BITS: u32 = 24;
/// Mask for the local-index half of an owner handle.
const LOCAL_MASK: u32 = (1 << LOCAL_BITS) - 1;
/// Maximum shard count representable in the packed owner handle.
pub const MAX_SHARDS: usize = 1 << (32 - LOCAL_BITS);

/// The per-node fields touched by virtually every dispatched event: the
/// liveness/dialability bits, the origin-sequence counter consumed on each
/// scheduled event, and the node's RNG (jitter + loss draws).
#[derive(Clone, Debug)]
struct HotNode {
    /// Per-node deterministic RNG.
    rng: StdRng,
    /// Per-origin event sequence counter: the tie-break half of this
    /// node's event keys.
    oseq: u32,
    /// `F_ONLINE | F_DIALABLE | F_RETIRED` bit set.
    flags: u8,
}

/// Owner-only per-node state, stored *densely* (indexed by local index) at
/// the owning shard and nowhere else. Kept behind an [`Arc`] in
/// [`SimCore`]: forks share the columns and copy on first write.
#[derive(Clone, Default)]
struct OwnedColumns {
    /// local index → global node id (append-only, ascending).
    ids: Vec<NodeId>,
    /// The fields nearly every dispatched event touches together — kept in
    /// one 40-byte record so dispatch costs one cache line per node, not
    /// three.
    hot: Vec<HotNode>,
    addr: Vec<SocketAddrV4>,
    region: Vec<RegionId>,
    /// Inbound handshakes accepted at DialArrive but not yet completed
    /// (`(dialer, outcome_at)`): a graceful shutdown in that window FINs
    /// the dialer *after* its DialOutcome lands, so a dial that reported
    /// success against a dying target still gets its close notification.
    /// Cleared silently on [`Fault::Kill`], like the open halves.
    pending_accepts: Vec<Vec<(NodeId, SimTime)>>,
    /// Every owned node's half of every open connection, slab-allocated
    /// in one contiguous per-shard pool.
    conns: ConnPool,
}

impl OwnedColumns {
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Bytes reserved by the owner-only columns (counted at capacity).
    fn bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.ids.capacity() * size_of::<NodeId>()
            + self.hot.capacity() * size_of::<HotNode>()
            + self.addr.capacity() * size_of::<SocketAddrV4>()
            + self.region.capacity() * size_of::<RegionId>()
            + self.pending_accepts.capacity() * size_of::<Vec<(NodeId, SimTime)>>()
            + self
                .pending_accepts
                .iter()
                .map(|p| p.capacity() * size_of::<(NodeId, SimTime)>())
                .sum::<usize>()) as u64
            + self.conns.bytes()
    }
}

/// Measured engine state split for one shard — the observable form of the
/// O(nodes) replica claim (surfaced in the `repro engine` budget section
/// and `tcsb-bench`'s `simnet.engine.*_bytes_per_node` rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct StateBytes {
    /// Registered nodes (same on every shard).
    pub nodes: u64,
    /// Nodes owned by this shard.
    pub owned_nodes: u64,
    /// Bytes of the replicated columns (owner handle + partition class +
    /// region index): the per-extra-shard cost of sharding.
    pub replica_bytes: u64,
    /// Bytes of the owner-only columns this core holds *exclusively*.
    pub owned_bytes: u64,
    /// Bytes of owner-only columns currently *shared* with a fork via
    /// copy-on-write (zero unless a fork of this engine is alive).
    pub shared_bytes: u64,
}

impl StateBytes {
    /// Fold another shard's accounting into a whole-engine view
    /// (`nodes` is replicated, the byte counts add).
    pub fn add(&mut self, o: &StateBytes) {
        self.nodes = self.nodes.max(o.nodes);
        self.owned_nodes += o.owned_nodes;
        self.replica_bytes += o.replica_bytes;
        self.owned_bytes += o.owned_bytes;
        self.shared_bytes += o.shared_bytes;
    }
}

/// Deterministic conservative-sync accounting for one shard: epoch and
/// barrier counts plus outbound mailbox volume. All pure event-multiset
/// functions of `(scenario, seed, shard count)` — no wall time — so they
/// ship in the committed `repro budget` expectations. Zero on the
/// single-shard sequential path.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncCounters {
    /// Epochs this shard processed (phase-2 entries).
    pub epochs: u64,
    /// Barrier rendezvous this shard entered (3 per full epoch, 2 on the
    /// terminating iteration).
    pub barrier_waits: u64,
    /// Cross-shard events this shard flushed into mailboxes.
    pub mailbox_events_out: u64,
    /// Bytes of those events (count × in-flight event size).
    pub mailbox_bytes_out: u64,
}

impl SyncCounters {
    /// Fold another shard's counters into a whole-engine view.
    pub fn add(&mut self, o: &SyncCounters) {
        self.epochs = self.epochs.max(o.epochs);
        self.barrier_waits += o.barrier_waits;
        self.mailbox_events_out += o.mailbox_events_out;
        self.mailbox_bytes_out += o.mailbox_bytes_out;
    }
}

/// One shard's load gauge: how many nodes it owns, how many events its
/// dispatch loop executed, and its measured state split — the measured
/// objective a node→shard assignment is judged against.
#[derive(Clone, Copy, Debug)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: u16,
    /// Events executed by this shard, including broadcast fault replicas.
    pub dispatched: u64,
    /// Memory accounting for this shard.
    pub state: StateBytes,
    /// Conservative-sync accounting for this shard.
    pub sync: SyncCounters,
}

/// Origin id used for events scheduled by the harness rather than a node.
const HARNESS_ORIGIN: u32 = u32::MAX;

/// Compose a wheel tie-break key from an origin and its private counter.
/// `(origin, oseq)` pairs are unique, so `(time, key)` is a total order
/// that does not depend on execution interleaving.
fn ev_key(origin: u32, oseq: u32) -> u64 {
    ((origin as u64) << 32) | oseq as u64
}

/// Default node→shard assignment of [`Sim::add_node`]: regions map whole
/// onto shards (`region % shards`), so every cross-shard latency sits at
/// the inter-region floor of the latency matrix. Results are
/// byte-identical under any assignment; campaigns place nodes explicitly
/// through [`Sim::add_node_in`].
fn shard_for(region: u16, shards: usize) -> u16 {
    if shards <= 1 {
        0
    } else {
        region % shards as u16
    }
}

/// Derive a node's private RNG seed from the engine seed (SplitMix-style
/// mix so adjacent node ids land far apart).
fn node_seed(engine_seed: u64, node: u32) -> u64 {
    engine_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 0x51))
}

/// Everything one shard owns apart from the actors themselves; split out so
/// a [`Ctx`] can borrow it while one actor is checked out. With
/// `shards = 1` this is the whole engine state; with more, each shard holds
/// the authoritative state for its owned nodes plus replicas of the
/// broadcast-maintained fields (partition classes, partition depth).
#[derive(Clone)]
pub struct SimCore<M, C> {
    cfg: SimConfig,
    /// This shard's index.
    shard: u16,
    pub(crate) now: SimTime,
    pub(crate) queue: TimerWheel<Ev<M, C>>,
    /// Packed owner handle per node (full length, identical on every
    /// shard): owning shard in the high bits, dense local index at that
    /// shard in the low [`LOCAL_BITS`].
    owner: Vec<u32>,
    /// Partition class per node (full length; replicated by fault
    /// broadcast so partition checks never cross a shard boundary).
    net_class: Vec<u16>,
    /// Region clamped against the latency matrix, cached for the send
    /// path (full length, immutable after registration).
    region_idx: Vec<u16>,
    /// Owner-only columns for the nodes this shard owns (dense,
    /// copy-on-write shared with forks).
    owned: Arc<OwnedColumns>,
    /// Row-major base latency matrix (flattened from the [`LatencyModel`]).
    lat_base: Vec<Dur>,
    lat_dim: usize,
    lat_jitter: f64,
    /// Number of currently active [`Fault::Partition`]s (replicated).
    partition_depth: u32,
    /// Commutative digest accumulator: `wrapping_add` of per-event FNV-1a
    /// hashes over every event this shard processed.
    trace: u64,
    /// This shard's row of the conservative lookahead matrix
    /// (`lookahead_to[dst]` = channel floor toward shard `dst`), set by the
    /// executor for the duration of a multi-shard run and debug-asserted on
    /// cross-shard pushes. Empty on the sequential path.
    pub(crate) lookahead_to: Vec<Dur>,
    /// Column of the lookahead *closure* pointing back at this shard
    /// (`closure_from[src]` = earliest an event on shard `src` can
    /// influence this shard). Empty on the sequential path.
    pub(crate) closure_from: Vec<Dur>,
    /// Dynamic epoch horizon (exclusive), maintained during a sharded
    /// epoch: starts at the awake-peer bound `min_j(t_j + closure[j][i])`
    /// and shrinks on every cross-shard push to `at + closure[dst][i]` —
    /// the earliest instant the woken shard's reaction can reach back.
    /// A shard that pushes nothing keeps its initial horizon and can
    /// drain its entire backlog in one epoch even while its peers idle.
    pub(crate) epoch_horizon: u64,
    /// Events bound for other shards, flushed to mailboxes at epoch
    /// boundaries (`outbox[dst]`; own index unused).
    pub(crate) outbox: Vec<Vec<OutEv<M, C>>>,
    /// Engine counters.
    pub stats: SimStats,
    /// Conservative-sync counters (maintained by the epoch executor).
    pub sync: SyncCounters,
}

/// A queued cross-shard event in flight between epoch barriers.
#[derive(Clone)]
pub(crate) struct OutEv<M, C> {
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) ev: Ev<M, C>,
}

#[derive(Clone)]
pub(crate) enum Ev<M, C> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    DialArrive {
        dialer: NodeId,
        /// Dialer address as presented in the handshake (captured by the
        /// target's connection half).
        dialer_addr: SocketAddrV4,
        target: NodeId,
        relayed: bool,
        started: SimTime,
    },
    /// Circuit-relay hop: the dial request arriving at the relay, which
    /// forwards it to the target (or reports failure) based on *its own*
    /// state only.
    RelayHop {
        dialer: NodeId,
        dialer_addr: SocketAddrV4,
        relay: NodeId,
        target: NodeId,
        started: SimTime,
    },
    DialOutcome {
        dialer: NodeId,
        target: NodeId,
        /// Target address for the dialer's connection half (meaningful on
        /// success).
        target_addr: SocketAddrV4,
        ok: bool,
        relayed: bool,
        /// When the dial left the dialer — carried so the outcome can
        /// record the dial's virtual latency. Telemetry-only: not hashed
        /// into the trace digest.
        started: SimTime,
    },
    /// Handshake completion at the *accepting* side: opens the target's
    /// half and fires `on_inbound_connection`, at the same virtual instant
    /// the dialer processes its `DialOutcome`. Deferring the accept to
    /// here means nothing the acceptor sends can arrive before the dialer
    /// considers the connection open — the TCP property the old
    /// both-sides-at-arrival model got for free.
    HandshakeDone {
        dialer: NodeId,
        dialer_addr: SocketAddrV4,
        target: NodeId,
        relayed: bool,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Command {
        node: NodeId,
        cmd: C,
    },
    /// A batch of commands delivered to one node at one instant. Bulk
    /// request sources (the live workload replay) emit hundreds of
    /// commands per virtual tick; carrying them in one event keeps the
    /// timer wheel's population proportional to ticks, not requests.
    CommandBatch {
        node: NodeId,
        cmds: Vec<C>,
    },
    NodeUp {
        node: NodeId,
        addr: Option<SocketAddrV4>,
    },
    NodeDown {
        node: NodeId,
    },
    ConnClosed {
        node: NodeId,
        peer: NodeId,
    },
    Fault {
        fault: Fault,
        /// Whether this copy is the counted one (digest + kind counters).
        /// Broadcast replicas on non-owning shards carry `false`.
        primary: bool,
    },
}

/// FNV-1a prime (the per-event hash in the trace digest).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

impl<M, C> SimCore<M, C> {
    /// Enqueue locally with peak tracking.
    fn enqueue_local(&mut self, at: SimTime, key: u64, ev: Ev<M, C>) {
        self.queue.push(at, key, ev);
        let len = self.queue.len() as u64;
        if len > self.stats.peak_queue_len {
            self.stats.peak_queue_len = len;
        }
    }

    /// Enqueue an event drained from another shard's mailbox.
    pub(crate) fn enqueue_external(&mut self, at: SimTime, key: u64, ev: Ev<M, C>) {
        self.enqueue_local(at, key, ev);
    }

    /// The shard owning `node` (replicated knowledge).
    pub(crate) fn shard_of(&self, node: NodeId) -> u16 {
        (self.owner[node.idx()] >> LOCAL_BITS) as u16
    }

    /// `node`'s dense index into this shard's owner-only columns. Must
    /// only be called for nodes this shard owns.
    fn local(&self, node: NodeId) -> usize {
        let p = self.owner[node.idx()];
        debug_assert_eq!(
            (p >> LOCAL_BITS) as u16,
            self.shard,
            "owner-only access to a node owned elsewhere ({node:?})"
        );
        (p & LOCAL_MASK) as usize
    }

    /// Mutable owner columns (copy-on-write: the first write after a fork
    /// clone copies them; unique cores pay only an atomic check).
    ///
    /// The unique case is the dispatch hot path (several calls per event),
    /// so it must cost only plain atomic loads; both `make_mut` and
    /// `get_mut` start with a locked compare-exchange even when no fork is
    /// alive.
    fn o(&mut self) -> &mut OwnedColumns {
        if Arc::strong_count(&self.owned) == 1 && Arc::weak_count(&self.owned) == 0 {
            // SAFETY: `&mut self` makes this `Arc` handle unreachable to
            // anyone else, and the acquire loads above prove it is the only
            // handle (strong = 1, weak = 0) — any concurrent dropper of a
            // second handle finished before we observed 1. With no other
            // handle and no `Weak`, no alias to the inner value can exist
            // or be created while the returned borrow lives.
            return unsafe { &mut *(Arc::as_ptr(&self.owned) as *mut OwnedColumns) };
        }
        Arc::make_mut(&mut self.owned)
    }

    /// Route an event to the shard owning `target` under an existing key.
    fn route(&mut self, key: u64, target: NodeId, at: SimTime, ev: Ev<M, C>) {
        let at = at.max(self.now);
        // Scheduling delay ≙ timer-wheel band residency. Recorded at the
        // origin shard, whose `now` is the dispatch time of the triggering
        // event — the same multiset of (delay) samples for every shard
        // count.
        telemetry::observe(telemetry::Metric::SchedDelayNs, at.0 - self.now.0);
        let dst = self.shard_of(target);
        if dst == self.shard {
            self.enqueue_local(at, key, ev);
        } else {
            debug_assert!(
                self.lookahead_to.is_empty() || at >= self.now + self.lookahead_to[dst as usize],
                "cross-shard event violates the channel lookahead bound \
                 (at {at:?}, now {:?}, lookahead[->{dst}] {:?})",
                self.now,
                self.lookahead_to.get(dst as usize)
            );
            // Waking `dst` can draw a reaction back no earlier than the
            // closure distance — tighten this epoch's horizon. Always at
            // least `direct + closure > 0` ahead of `now`, so the bound
            // never retreats behind the event being processed.
            if let Some(c) = self.closure_from.get(dst as usize) {
                self.epoch_horizon = self.epoch_horizon.min(at.0.saturating_add(c.0));
            }
            self.outbox[dst as usize].push(OutEv { at, key, ev });
        }
    }

    /// Route an event scheduled by node `origin` (consumes one of its
    /// sequence numbers — the deterministic tie-break).
    fn push_from(&mut self, origin: NodeId, target: NodeId, at: SimTime, ev: Ev<M, C>) {
        let l = self.local(origin);
        let oseq = {
            let h = &mut self.o().hot[l];
            debug_assert!(h.oseq < u32::MAX, "per-origin sequence overflow");
            let q = h.oseq;
            h.oseq += 1;
            q
        };
        self.route(ev_key(origin.0, oseq), target, at, ev);
    }

    /// Sample the one-way latency from `a` to `b`, drawing jitter from
    /// `origin`'s RNG (`origin` must be owned by this shard).
    fn lat(&mut self, origin: NodeId, a: NodeId, b: NodeId) -> Dur {
        let ia = self.region_idx[a.idx()] as usize;
        let ib = self.region_idx[b.idx()] as usize;
        let base = self.lat_base[ia * self.lat_dim + ib];
        let l = self.local(origin);
        let jitter = self.lat_jitter;
        crate::latency::apply_jitter(base, jitter, &mut self.o().hot[l].rng)
    }

    /// Whether `a`'s half of a connection to `b` exists (`a` must be owned
    /// by this shard). At quiesce points the fabric is symmetric;
    /// mid-handshake and mid-FIN it is intentionally half-open, like real
    /// sockets.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.owned.conns.contains(self.local(a), b)
    }

    /// Whether the fabric lets `a` and `b` talk (partition check). Free
    /// when no partition is active — the common case is one branch.
    /// `net_class` is replicated to every shard, so this never needs a
    /// cross-shard read.
    fn link_allowed(&self, a: NodeId, b: NodeId) -> bool {
        self.partition_depth == 0 || self.net_class[a.idx()] == self.net_class[b.idx()]
    }

    /// Fold one processed event into the trace digest and bump its kind
    /// counter. Returns whether the event counts toward `stats.events`
    /// (broadcast fault replicas do not).
    fn note_event(&mut self, at: SimTime, ev: &Ev<M, C>) -> bool {
        let (tag, a, b) = match ev {
            Ev::Deliver { from, to, .. } => {
                self.stats.kinds.deliver += 1;
                (1u64, from.0 as u64, to.0 as u64)
            }
            Ev::DialArrive { dialer, target, .. } => {
                self.stats.kinds.dial_arrive += 1;
                (2, dialer.0 as u64, target.0 as u64)
            }
            Ev::DialOutcome {
                dialer, target, ok, ..
            } => {
                self.stats.kinds.dial_outcome += 1;
                (3, dialer.0 as u64, ((target.0 as u64) << 1) | *ok as u64)
            }
            Ev::Timer { node, token } => {
                self.stats.kinds.timer += 1;
                (4, node.0 as u64, *token)
            }
            Ev::Command { node, .. } => {
                self.stats.kinds.command += 1;
                (5, node.0 as u64, 0)
            }
            Ev::CommandBatch { node, cmds } => {
                self.stats.kinds.command_batch += 1;
                (12, node.0 as u64, cmds.len() as u64)
            }
            Ev::NodeUp { node, .. } => {
                self.stats.kinds.node_up += 1;
                (6, node.0 as u64, 0)
            }
            Ev::NodeDown { node } => {
                self.stats.kinds.node_down += 1;
                (7, node.0 as u64, 0)
            }
            Ev::ConnClosed { node, peer } => {
                self.stats.kinds.conn_closed += 1;
                (8, node.0 as u64, peer.0 as u64)
            }
            Ev::Fault { fault, primary } => {
                if !*primary {
                    return false;
                }
                self.stats.kinds.fault += 1;
                let (a, b) = match fault {
                    Fault::Kill { node } => (node.0 as u64, 0),
                    Fault::Retire { node } => (node.0 as u64, 1),
                    Fault::SetNetClass { node, class } => {
                        (node.0 as u64, 2 | ((*class as u64) << 8))
                    }
                    Fault::Partition { active } => (u64::MAX, 3 | ((*active as u64) << 8)),
                };
                (9, a, b)
            }
            Ev::RelayHop {
                dialer,
                relay,
                target,
                ..
            } => {
                self.stats.kinds.relay_hop += 1;
                (
                    10,
                    dialer.0 as u64,
                    ((relay.0 as u64) << 32) | target.0 as u64,
                )
            }
            Ev::HandshakeDone { dialer, target, .. } => {
                self.stats.kinds.handshake += 1;
                (11, dialer.0 as u64, target.0 as u64)
            }
        };
        let mut h = FNV_OFFSET;
        for v in [at.0, tag, a, b] {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        }
        // Commutative fold: the shard digest is order-independent, so the
        // merged digest is invariant under re-sharding of the same event
        // multiset.
        self.trace = self.trace.wrapping_add(h);
        true
    }

    /// This shard's digest accumulator (fold across shards with
    /// `wrapping_add` for the merged run digest — [`Sim::trace_digest`]).
    pub fn trace_digest(&self) -> u64 {
        self.trace
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of registered nodes (online or not).
    pub fn node_count(&self) -> usize {
        self.owner.len()
    }

    /// Whether a node is currently online (authoritative at its owner).
    pub fn is_online(&self, node: NodeId) -> bool {
        self.owned.hot[self.local(node)].flags & F_ONLINE != 0
    }

    /// Whether a node accepts direct inbound dials.
    pub fn is_dialable(&self, node: NodeId) -> bool {
        self.owned.hot[self.local(node)].flags & F_DIALABLE != 0
    }

    /// Whether a node has been retired by a [`Fault::Retire`].
    pub fn is_retired(&self, node: NodeId) -> bool {
        self.owned.hot[self.local(node)].flags & F_RETIRED != 0
    }

    /// A node's partition class (0 unless re-classed by a fault).
    pub fn net_class(&self, node: NodeId) -> u16 {
        self.net_class[node.idx()]
    }

    /// Whether any partition is currently active.
    pub fn partition_active(&self) -> bool {
        self.partition_depth > 0
    }

    /// A node's current socket address (authoritative at its owner).
    pub fn addr(&self, node: NodeId) -> SocketAddrV4 {
        self.owned.addr[self.local(node)]
    }

    /// A node's region.
    pub fn region(&self, node: NodeId) -> RegionId {
        self.owned.region[self.local(node)]
    }

    /// A node's open connections in ascending peer order, without
    /// allocating (the pool windows are kept sorted).
    pub fn connections(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.owned.conns.peers(self.local(node))
    }

    /// Number of open connections.
    pub fn connection_count(&self, node: NodeId) -> usize {
        self.owned.conns.len(self.local(node))
    }

    /// Measured state split for this shard: replicated bytes vs owner-only
    /// bytes, the latter classified as exclusive or fork-shared. Counted
    /// from vector capacities — what the allocator actually reserved.
    pub fn state_bytes(&self) -> StateBytes {
        use std::mem::size_of;
        let replica_bytes = (self.owner.capacity() * size_of::<u32>()
            + self.net_class.capacity() * size_of::<u16>()
            + self.region_idx.capacity() * size_of::<u16>()) as u64;
        let owner_bytes = self.owned.bytes();
        let shared = Arc::strong_count(&self.owned) > 1;
        StateBytes {
            nodes: self.owner.len() as u64,
            owned_nodes: self.owned.len() as u64,
            replica_bytes,
            owned_bytes: if shared { 0 } else { owner_bytes },
            shared_bytes: if shared { owner_bytes } else { 0 },
        }
    }
}

/// Effect handle passed to actor callbacks.
pub struct Ctx<'a, M, C> {
    core: &'a mut SimCore<M, C>,
    me: NodeId,
}

impl<'a, M: Clone + std::fmt::Debug, C: std::fmt::Debug> Ctx<'a, M, C> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The node this callback runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// This node's socket address.
    pub fn my_addr(&self) -> SocketAddrV4 {
        self.core.addr(self.me)
    }

    /// Whether this node accepts direct inbound dials (i.e. is publicly
    /// reachable rather than NAT-ed). Real nodes learn this via AutoNAT; we
    /// expose the engine's ground truth, which AutoNAT converges to anyway.
    pub fn i_am_dialable(&self) -> bool {
        self.core.is_dialable(self.me)
    }

    /// This node's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        let l = self.core.local(self.me);
        &mut self.core.o().hot[l].rng
    }

    /// Remote address of a *connected* peer, as captured from the
    /// handshake (what a TCP accept would show).
    pub fn addr_of(&self, peer: NodeId) -> Option<SocketAddrV4> {
        self.core
            .owned
            .conns
            .get_addr(self.core.local(self.me), peer)
    }

    /// Whether we currently hold a connection to `peer`.
    pub fn is_connected(&self, peer: NodeId) -> bool {
        self.core.connected(self.me, peer)
    }

    /// Whether the connection to `peer` was established through a relay.
    pub fn is_relayed(&self, peer: NodeId) -> bool {
        self.core
            .owned
            .conns
            .get_relayed(self.core.local(self.me), peer)
            .unwrap_or(false)
    }

    /// Connected peers in ascending id order (deterministic), without
    /// allocating. Collect into a `Vec` first if you need to mutate
    /// connections while walking them.
    pub fn connections(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.core.connections(self.me)
    }

    /// Number of open connections.
    pub fn connection_count(&self) -> usize {
        self.core.connection_count(self.me)
    }

    /// Send a message over an open connection. Returns `false` (and sends
    /// nothing) if no connection to `to` exists.
    pub fn send(&mut self, to: NodeId, msg: M) -> bool {
        if !self.core.connected(self.me, to) {
            return false;
        }
        self.core.stats.msgs_sent += 1;
        let lat = self.core.lat(self.me, self.me, to);
        let at = self.core.now + lat;
        self.core.push_from(
            self.me,
            to,
            at,
            Ev::Deliver {
                from: self.me,
                to,
                msg,
            },
        );
        true
    }

    /// Dial a peer directly. The outcome arrives via
    /// [`Actor::on_dial_result`]; failures take `dial_timeout`.
    pub fn dial(&mut self, target: NodeId) {
        let lat = self.core.lat(self.me, self.me, target);
        let at = self.core.now + lat;
        let dialer_addr = self.core.addr(self.me);
        self.core.push_from(
            self.me,
            target,
            at,
            Ev::DialArrive {
                dialer: self.me,
                dialer_addr,
                target,
                relayed: false,
                started: self.core.now,
            },
        );
    }

    /// Dial a NAT-ed peer through a relay we are connected to (circuit
    /// relay). The request is routed *through* the relay: the relay
    /// forwards it to the target if it is still up and still holds the
    /// target connection. On success the connection is immediately
    /// hole-punched to a direct one (DCUtR), so it does not depend on the
    /// relay staying up.
    pub fn dial_via(&mut self, relay: NodeId, target: NodeId) {
        let l1 = self.core.lat(self.me, self.me, relay);
        let at = self.core.now + l1;
        let dialer_addr = self.core.addr(self.me);
        self.core.push_from(
            self.me,
            relay,
            at,
            Ev::RelayHop {
                dialer: self.me,
                dialer_addr,
                relay,
                target,
                started: self.core.now,
            },
        );
    }

    /// Close the connection to `peer` (no-op when not connected). Our half
    /// closes immediately; the remote side learns of it when the FIN
    /// arrives, one link latency later.
    pub fn disconnect(&mut self, peer: NodeId) {
        let l = self.core.local(self.me);
        if self.core.o().conns.remove(l, peer) {
            let lat = self.core.lat(self.me, self.me, peer);
            let at = self.core.now + lat;
            self.core.push_from(
                self.me,
                peer,
                at,
                Ev::ConnClosed {
                    node: peer,
                    peer: self.me,
                },
            );
        }
    }

    /// Arm a one-shot timer firing after `delay` with an opaque token.
    pub fn set_timer(&mut self, delay: Dur, token: u64) {
        let at = self.core.now + delay;
        self.core.push_from(
            self.me,
            self.me,
            at,
            Ev::Timer {
                node: self.me,
                token,
            },
        );
    }

    /// Loopback command scheduling: deliver `cmd` to *this* node later.
    /// Lets actors drive their own periodic workloads through the same
    /// command path the harness uses.
    pub fn schedule_self(&mut self, delay: Dur, cmd: C) {
        let at = self.core.now + delay;
        self.core
            .push_from(self.me, self.me, at, Ev::Command { node: self.me, cmd });
    }

    /// Deliver a whole batch of commands to `target` after `delay` as ONE
    /// engine event (the batched request-event source: per-request
    /// scheduling must not dominate the timer wheel). The batch executes
    /// in order at a single virtual instant. For a cross-shard target,
    /// `delay` must be at least the conservative lookahead to that shard —
    /// same contract as every other cross-shard push; bulk drivers use
    /// tick-scale delays (seconds), far above the lookahead floor
    /// (milliseconds), and `route` debug-asserts the invariant.
    pub fn schedule_batch(&mut self, target: NodeId, delay: Dur, cmds: Vec<C>) {
        if cmds.is_empty() {
            return;
        }
        let at = self.core.now + delay;
        self.core
            .push_from(self.me, target, at, Ev::CommandBatch { node: target, cmds });
    }
}

/// Initial placement of a node.
#[derive(Clone, Debug)]
pub struct NodeSetup {
    /// Socket address (IP matters for the measurement pipeline; port is
    /// cosmetic).
    pub addr: SocketAddrV4,
    /// Latency region.
    pub region: RegionId,
    /// Publicly dialable (false = NAT-ed).
    pub dialable: bool,
    /// Start online immediately.
    pub online: bool,
}

impl NodeSetup {
    /// A publicly dialable node at `ip`, online, region 0.
    pub fn public(ip: Ipv4Addr) -> NodeSetup {
        NodeSetup {
            addr: SocketAddrV4::new(ip, 4001),
            region: RegionId(0),
            dialable: true,
            online: true,
        }
    }

    /// A NAT-ed node at `ip`, online, region 0.
    pub fn nat(ip: Ipv4Addr) -> NodeSetup {
        NodeSetup {
            addr: SocketAddrV4::new(ip, 4001),
            region: RegionId(0),
            dialable: false,
            online: true,
        }
    }

    /// Override the region.
    pub fn in_region(mut self, region: RegionId) -> NodeSetup {
        self.region = region;
        self
    }

    /// Start offline (brought up later via [`Sim::schedule_up`]).
    pub fn offline(mut self) -> NodeSetup {
        self.online = false;
        self
    }
}

/// One shard: its engine core plus the actors it owns.
pub(crate) struct Shard<A: Actor> {
    pub(crate) core: SimCore<A::Msg, A::Cmd>,
    /// Dense, indexed by *local* index (owned nodes only); `None` only
    /// while an actor is checked out for a callback.
    actors: Vec<Option<A>>,
}

impl<A: Actor + Clone> Clone for Shard<A>
where
    A::Msg: Clone,
    A::Cmd: Clone,
{
    fn clone(&self) -> Self {
        Shard {
            core: self.core.clone(),
            actors: self.actors.clone(),
        }
    }
}

impl<A: Actor> Shard<A> {
    fn with_actor<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg, A::Cmd>) -> R,
    ) -> R {
        let l = self.core.local(node);
        let mut actor = self.actors[l].take().expect("actor re-entrancy");
        let mut ctx = Ctx {
            core: &mut self.core,
            me: node,
        };
        let r = f(&mut actor, &mut ctx);
        self.actors[l] = Some(actor);
        r
    }

    /// Process the next event if it falls before `horizon_excl` (exclusive,
    /// when given) and at or before `until_incl`. Returns whether an event
    /// was processed.
    pub(crate) fn step_bounded(&mut self, horizon_excl: Option<u64>, until_incl: SimTime) -> bool {
        let Some(at) = self.core.queue.peek_at() else {
            return false;
        };
        if at > until_incl {
            return false;
        }
        if let Some(h) = horizon_excl {
            if at.0 >= h {
                return false;
            }
        }
        let (at, _key, ev) = self.core.queue.pop().expect("peeked");
        debug_assert!(at >= self.core.now, "time went backwards");
        self.core.now = at;
        self.core.stats.dispatched += 1;
        if self.core.note_event(at, &ev) {
            self.core.stats.events += 1;
        }
        self.dispatch(ev);
        true
    }

    fn dispatch(&mut self, ev: Ev<A::Msg, A::Cmd>) {
        match ev {
            Ev::Deliver { from, to, msg } => {
                // Receiver-side checks only: the receiver must be up and
                // must still hold its half of the connection.
                let tl = self.core.local(to);
                let o = &self.core.owned;
                if o.hot[tl].flags & F_ONLINE == 0 || !o.conns.contains(tl, from) {
                    self.core.stats.msgs_dropped += 1;
                    return;
                }
                if self.core.cfg.loss > 0.0 {
                    let loss = self.core.cfg.loss;
                    if self.core.o().hot[tl].rng.random_bool(loss) {
                        self.core.stats.msgs_lost += 1;
                        return;
                    }
                }
                self.core.stats.msgs_delivered += 1;
                self.with_actor(to, |a, ctx| a.on_message(ctx, from, msg));
            }
            Ev::DialArrive {
                dialer,
                dialer_addr,
                target,
                relayed,
                started,
            } => {
                let tl = self.core.local(target);
                let ok = {
                    let f = self.core.owned.hot[tl].flags;
                    f & F_ONLINE != 0
                        && (relayed || f & F_DIALABLE != 0)
                        && dialer != target
                        && self.core.link_allowed(dialer, target)
                };
                if ok {
                    let target_addr = self.core.owned.addr[tl];
                    let back = self.core.lat(target, target, dialer);
                    let at = self.core.now + back;
                    self.core.push_from(
                        target,
                        dialer,
                        at,
                        Ev::DialOutcome {
                            dialer,
                            target,
                            target_addr,
                            ok: true,
                            relayed,
                            started,
                        },
                    );
                    // Our own half opens when the handshake completes — the
                    // same virtual instant the dialer's outcome lands.
                    self.core.push_from(
                        target,
                        target,
                        at,
                        Ev::HandshakeDone {
                            dialer,
                            dialer_addr,
                            target,
                            relayed,
                        },
                    );
                    self.core.o().pending_accepts[tl].push((dialer, at));
                } else {
                    // Unreachable targets look like silence: the dialer's
                    // timeout fires relative to when the dial started.
                    let at = started + self.core.cfg.dial_timeout;
                    self.core.push_from(
                        target,
                        dialer,
                        at,
                        Ev::DialOutcome {
                            dialer,
                            target,
                            target_addr: SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0),
                            ok: false,
                            relayed,
                            started,
                        },
                    );
                }
            }
            Ev::RelayHop {
                dialer,
                dialer_addr,
                relay,
                target,
                started,
            } => {
                // The relay forwards the circuit request based on its own
                // state: it must be up, still hold the target connection,
                // and be reachable from the dialer across any partition.
                let rl = self.core.local(relay);
                let o = &self.core.owned;
                let ok = o.hot[rl].flags & F_ONLINE != 0
                    && o.conns.contains(rl, target)
                    && self.core.link_allowed(dialer, relay);
                if ok {
                    let l2 = self.core.lat(relay, relay, target);
                    let at = self.core.now + l2;
                    self.core.push_from(
                        relay,
                        target,
                        at,
                        Ev::DialArrive {
                            dialer,
                            dialer_addr,
                            target,
                            relayed: true,
                            started,
                        },
                    );
                } else {
                    let at = started + self.core.cfg.dial_timeout;
                    self.core.push_from(
                        relay,
                        dialer,
                        at,
                        Ev::DialOutcome {
                            dialer,
                            target,
                            target_addr: SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0),
                            ok: false,
                            relayed: true,
                            started,
                        },
                    );
                }
            }
            Ev::DialOutcome {
                dialer,
                target,
                target_addr,
                ok,
                relayed,
                started,
            } => {
                let dl = self.core.local(dialer);
                if self.core.owned.hot[dl].flags & F_ONLINE == 0 {
                    return;
                }
                // A partition activated mid-handshake blocks the final ACK:
                // the dial fails and no half opens. `link_allowed` reads
                // replicated state updated at the same virtual instant on
                // every shard, and the paired HandshakeDone runs the same
                // check at the same time, so both ends agree — for every
                // shard count.
                let ok = ok && self.core.link_allowed(dialer, target);
                if ok {
                    // The dialer's half opens when the handshake completes
                    // (the target's half opens at the same instant).
                    self.core.o().conns.insert(dl, target, relayed, target_addr);
                    self.core.stats.dials_ok += 1;
                } else {
                    self.core.stats.dials_failed += 1;
                }
                if telemetry::enabled() {
                    use telemetry::{Counter, Gauge, Metric};
                    let c = if ok {
                        Counter::DialsOk
                    } else {
                        Counter::DialsFailed
                    };
                    telemetry::count(c, 1);
                    telemetry::observe(
                        Metric::DialLatencyNs,
                        self.core.now.0.saturating_sub(started.0),
                    );
                    if ok {
                        let occ = self.core.owned.conns.len(dl) as u64;
                        telemetry::observe(Metric::ConnOccupancy, occ);
                        telemetry::gauge_max(Gauge::ConnOccupancyPeak, occ);
                    }
                }
                self.with_actor(dialer, |a, ctx| a.on_dial_result(ctx, target, ok, relayed));
            }
            Ev::HandshakeDone {
                dialer,
                dialer_addr,
                target,
                relayed,
            } => {
                // Consume the matching pending accept. A shutdown or kill
                // in the handshake window cleared it (and, for a graceful
                // shutdown, FIN-ed the dialer), so its absence means this
                // accept belongs to a session that no longer exists — e.g.
                // the target bounced and rejoined within the window.
                let tl = self.core.local(target);
                let pending = &mut self.core.o().pending_accepts[tl];
                let Some(pos) = pending.iter().position(|&(d, _)| d == dialer) else {
                    return;
                };
                pending.remove(pos);
                if self.core.owned.hot[tl].flags & F_ONLINE == 0 {
                    return;
                }
                // Mirror of the DialOutcome partition check: a split that
                // activated mid-handshake blocks the accept too, so neither
                // half opens across the boundary.
                if !self.core.link_allowed(dialer, target) {
                    return;
                }
                if !self.core.owned.conns.contains(tl, dialer) {
                    self.core.o().conns.insert(tl, dialer, relayed, dialer_addr);
                    if telemetry::enabled() {
                        let occ = self.core.owned.conns.len(tl) as u64;
                        telemetry::observe(telemetry::Metric::ConnOccupancy, occ);
                        telemetry::gauge_max(telemetry::Gauge::ConnOccupancyPeak, occ);
                    }
                    self.with_actor(target, |a, ctx| {
                        a.on_inbound_connection(ctx, dialer, relayed)
                    });
                }
            }
            Ev::Timer { node, token } => {
                if !self.core.is_online(node) {
                    return;
                }
                self.core.stats.timers_fired += 1;
                self.with_actor(node, |a, ctx| a.on_timer(ctx, token));
            }
            Ev::Command { node, cmd } => {
                if !self.core.is_online(node) {
                    self.core.stats.commands_dropped += 1;
                    return;
                }
                self.core.stats.commands += 1;
                self.with_actor(node, |a, ctx| a.on_command(ctx, cmd));
            }
            Ev::CommandBatch { node, cmds } => {
                // One online check per batch: a node that went down between
                // scheduling and delivery drops the whole batch, exactly as
                // the per-command path would have dropped each one.
                if !self.core.is_online(node) {
                    self.core.stats.commands_dropped += cmds.len() as u64;
                    return;
                }
                self.core.stats.commands += cmds.len() as u64;
                for cmd in cmds {
                    self.with_actor(node, |a, ctx| a.on_command(ctx, cmd));
                }
            }
            Ev::NodeUp { node, addr } => {
                let l = self.core.local(node);
                if self.core.owned.hot[l].flags & (F_ONLINE | F_RETIRED) != 0 {
                    return;
                }
                let o = self.core.o();
                if let Some(addr) = addr {
                    o.addr[l] = addr;
                }
                o.hot[l].flags |= F_ONLINE;
                self.with_actor(node, |a, ctx| a.on_start(ctx));
            }
            Ev::NodeDown { node } => {
                let l = self.core.local(node);
                if self.core.owned.hot[l].flags & F_ONLINE == 0 {
                    return;
                }
                self.with_actor(node, |a, ctx| a.on_stop(ctx));
                self.core.o().hot[l].flags &= !F_ONLINE;
                // Our halves close now; each peer gets a FIN one link
                // latency later (ascending peer order — the pool window is
                // sorted, so the latency draw sequence is deterministic).
                for entry in self.core.o().conns.take_all(l) {
                    let p = entry.peer;
                    let lat = self.core.lat(node, node, p);
                    let at = self.core.now + lat;
                    self.core.push_from(
                        node,
                        p,
                        at,
                        Ev::ConnClosed {
                            node: p,
                            peer: node,
                        },
                    );
                }
                // Half-open inbound handshakes get a FIN too — scheduled no
                // earlier than the dialer's DialOutcome, so a dial that
                // reported success against a dying target is closed right
                // after it opens instead of leaking a stale half.
                let pending = std::mem::take(&mut self.core.o().pending_accepts[l]);
                for (dialer, outcome_at) in pending {
                    let lat = self.core.lat(node, node, dialer);
                    let at = (self.core.now + lat).max(outcome_at);
                    self.core.push_from(
                        node,
                        dialer,
                        at,
                        Ev::ConnClosed {
                            node: dialer,
                            peer: node,
                        },
                    );
                }
            }
            Ev::ConnClosed { node, peer } => {
                let l = self.core.local(node);
                if self.core.owned.hot[l].flags & F_ONLINE == 0 {
                    return;
                }
                // FIN arrival: close our half if it is still open. A half
                // already gone (we disconnected concurrently, or a kill
                // swept it) is swallowed — both ends already knew.
                if self.core.o().conns.remove(l, peer) {
                    self.with_actor(node, |a, ctx| a.on_connection_closed(ctx, peer));
                }
            }
            Ev::Fault { fault, primary } => self.dispatch_fault(fault, primary),
        }
    }

    fn dispatch_fault(&mut self, f: Fault, primary: bool) {
        match f {
            Fault::Kill { node } => {
                // No `on_stop`, no FIN: the process is simply gone. The
                // fault is broadcast, so every shard sweeps its own nodes'
                // halves toward the victim at the same virtual instant —
                // the fabric stays symmetric but peers receive no
                // ConnClosed; their node-level session state goes stale
                // until their own operations fail, exactly like writes on
                // a dead TCP socket. The sweep is unconditional on the
                // victim's liveness (non-owner shards cannot read it), so
                // a kill landing while a graceful shutdown's FINs are
                // still in flight sweeps the peer half early and the FIN
                // is swallowed without an `on_connection_closed` — peers
                // then clean up through RPC timeouts, the same path any
                // kill relies on. Bounded, deterministic, and identical
                // for every shard count.
                if primary {
                    let l = self.core.local(node);
                    let o = self.core.o();
                    o.hot[l].flags &= !F_ONLINE;
                    o.conns.clear(l);
                    o.pending_accepts[l].clear();
                }
                let o = self.core.o();
                for l in 0..o.ids.len() {
                    if o.ids[l] != node {
                        o.conns.remove(l, node);
                    }
                }
            }
            Fault::Retire { node } => {
                let l = self.core.local(node);
                self.core.o().hot[l].flags |= F_RETIRED;
            }
            Fault::SetNetClass { node, class } => {
                // Replicated on every shard: partition checks must never
                // read across a shard boundary.
                self.core.net_class[node.idx()] = class;
            }
            Fault::Partition { active } => {
                if !active {
                    self.core.partition_depth = self.core.partition_depth.saturating_sub(1);
                    return;
                }
                self.core.partition_depth += 1;
                // Sever every crossing connection held by an owned node, in
                // ascending (node, peer) order — local indices are appended
                // in ascending global-id order, so walking them is the same
                // sweep the array-of-structs layout did. The closure itself
                // happens through zero-delay local ConnClosed events, so
                // the actor callback ordering is deterministic and
                // shard-invariant; the peer's side runs the same sweep on
                // its own shard at the same virtual instant.
                for l in 0..self.core.owned.len() {
                    let a = self.core.owned.ids[l];
                    let crossing: Vec<NodeId> = self
                        .core
                        .owned
                        .conns
                        .peers(l)
                        .filter(|&b| !self.core.link_allowed(a, b))
                        .collect();
                    for b in crossing {
                        let now = self.core.now;
                        self.core
                            .push_from(a, a, now, Ev::ConnClosed { node: a, peer: b });
                    }
                }
            }
        }
    }
}

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

/// Cached conservative lookahead bounds, derived from the latency model and
/// the region-occupancy of every shard (see [`Sim::lookahead_matrix`]).
#[derive(Clone)]
pub(crate) struct LookaheadInfo {
    /// Minimum over all occupied cross-shard directed pairs (the classic
    /// global lookahead; `NO_LINK` when no such pair exists).
    min: Dur,
    /// Maximum over all occupied *finite* cross-shard directed pairs
    /// (`Dur::ZERO` when none exist) — bounds how far beyond its horizon a
    /// shard may be asked to schedule a cross-shard event.
    max_finite: Dur,
    /// Row-major shard×shard matrix: `direct[src * n + dst]` is the floor
    /// latency of any single event pushed from `src` to `dst` — the bound
    /// `route` asserts per push. Diagonal and unoccupied pairs hold
    /// `NO_LINK`.
    direct: std::sync::Arc<[Dur]>,
    /// Metric closure (all-pairs shortest path) of `direct`: the earliest a
    /// shard can *influence* another through any chain of cross-shard
    /// events, possibly relayed via intermediate shards. This is the matrix
    /// the executor's horizons must use — with split regions the direct
    /// floor of a wide-area pair can exceed the two-hop path through a
    /// nearby shard, and horizons computed from `direct` alone would admit
    /// causality violations (events arriving below an already-processed
    /// horizon).
    closure: std::sync::Arc<[Dur]>,
}

/// Sentinel lookahead for shard pairs with no possible link (diagonal, or
/// one side hosts no regions): far enough to never bind an epoch, small
/// enough that `t + NO_LINK` cannot overflow under `saturating_add`.
pub(crate) const NO_LINK: Dur = Dur(u64::MAX / 4);

/// Engine forking: cloning a quiesced `Sim` (between `run_*` calls —
/// worker threads are scoped per run, outboxes are drained at epoch
/// barriers) snapshots the entire deterministic state: queues, per-node
/// RNGs, connection halves, actors, digests and counters. The clone
/// replays the identical future for the same harness calls, and whatever
/// is done to it leaves the original untouched — the primitive behind
/// mid-campaign observatory samples (crawls, probes) that must not
/// perturb the main trace. The owner-only engine columns (RNGs,
/// connection slabs, flags, addresses) are *shared* copy-on-write: the
/// clone itself is O(queued events + replica columns), and a shard's
/// owner state is deep-copied only when the fork (or, while the fork is
/// alive, the original) first writes it.
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

/// Read-only merged view over every shard, for harness-side oracles. All
/// methods assume the engine is quiesced (between `run_*` calls).
pub struct CoreView<'a, A: Actor> {
    sim: &'a Sim<A>,
    /// Aggregated counters across shards (kind counts and totals are
    /// shard-invariant sums; `peak_queue_len` is the max across shards).
    pub stats: SimStats,
}

impl<'a, A: Actor> CoreView<'a, A> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of registered nodes (online or not).
    pub fn node_count(&self) -> usize {
        self.sim.shards[0].core.node_count()
    }

    /// Merged run digest (per-shard digests folded in shard order).
    pub fn trace_digest(&self) -> u64 {
        self.sim.trace_digest()
    }

    /// Whether a node is currently online.
    pub fn is_online(&self, node: NodeId) -> bool {
        self.sim.owner_core(node).is_online(node)
    }

    /// Whether a node accepts direct inbound dials.
    pub fn is_dialable(&self, node: NodeId) -> bool {
        self.sim.owner_core(node).is_dialable(node)
    }

    /// Whether a node has been retired by a [`Fault::Retire`].
    pub fn is_retired(&self, node: NodeId) -> bool {
        self.sim.owner_core(node).is_retired(node)
    }

    /// A node's partition class.
    pub fn net_class(&self, node: NodeId) -> u16 {
        self.sim.owner_core(node).net_class(node)
    }

    /// Whether any partition is currently active.
    pub fn partition_active(&self) -> bool {
        self.sim.shards[0].core.partition_active()
    }

    /// A node's current socket address.
    pub fn addr(&self, node: NodeId) -> SocketAddrV4 {
        self.sim.owner_core(node).addr(node)
    }

    /// A node's region.
    pub fn region(&self, node: NodeId) -> RegionId {
        self.sim.owner_core(node).region(node)
    }

    /// Whether `a` holds its half of a connection to `b` (symmetric at
    /// quiesce points).
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.sim.owner_core(a).connected(a, b)
    }

    /// A node's open connections in ascending peer order.
    pub fn connections(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.sim.owner_core(node).connections(node)
    }

    /// Number of open connections.
    pub fn connection_count(&self, node: NodeId) -> usize {
        self.sim.owner_core(node).connection_count(node)
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
        let (lat_base, lat_dim) = latency.to_flat();
        let shards = (0..n_shards)
            .map(|s| Shard {
                core: SimCore {
                    cfg: cfg.clone(),
                    shard: s as u16,
                    now: SimTime::ZERO,
                    queue: TimerWheel::new(),
                    owner: Vec::new(),
                    net_class: Vec::new(),
                    region_idx: Vec::new(),
                    owned: Arc::new(OwnedColumns::default()),
                    lat_base: lat_base.clone(),
                    lat_dim,
                    lat_jitter: latency.jitter(),
                    partition_depth: 0,
                    trace: 0,
                    lookahead_to: Vec::new(),
                    closure_from: Vec::new(),
                    epoch_horizon: u64::MAX,
                    outbox: (0..n_shards).map(|_| Vec::new()).collect(),
                    stats: SimStats::default(),
                    sync: SyncCounters::default(),
                },
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

    fn owner_core(&self, node: NodeId) -> &SimCore<A::Msg, A::Cmd> {
        let s = self.shards[0].core.shard_of(node);
        &self.shards[s as usize].core
    }

    fn next_harness_key(&mut self) -> u64 {
        debug_assert!(self.harness_seq < u32::MAX, "harness sequence overflow");
        let k = ev_key(HARNESS_ORIGIN, self.harness_seq);
        self.harness_seq += 1;
        k
    }

    /// Register a node in the shard chosen by the default assignment
    /// (`region % n_shards`).
    /// If `setup.online`, an up-event is queued at the current time so
    /// `on_start` runs through the normal event path.
    pub fn add_node(&mut self, actor: A, setup: NodeSetup) -> NodeId {
        let shard = shard_for(setup.region.0, self.shards.len());
        self.add_node_in(actor, setup, shard)
    }

    /// Register a node in an explicit shard.
    pub fn add_node_in(&mut self, actor: A, setup: NodeSetup, shard: u16) -> NodeId {
        assert!((shard as usize) < self.shards.len(), "shard out of range");
        let id = NodeId(self.shards[0].core.node_count() as u32);
        let lat_dim = self.shards[0].core.lat_dim;
        let region_idx = (setup.region.0 as usize).min(lat_dim - 1) as u16;
        let local = self.shards[shard as usize].core.owned.len();
        assert!(
            local < LOCAL_MASK as usize,
            "per-shard node capacity exceeded ({} nodes)",
            LOCAL_MASK
        );
        let packed = ((shard as u32) << LOCAL_BITS) | local as u32;
        for sh in self.shards.iter_mut() {
            sh.core.owner.push(packed);
            sh.core.net_class.push(0);
            sh.core.region_idx.push(region_idx);
        }
        {
            let sh = &mut self.shards[shard as usize];
            let o = sh.core.o();
            o.ids.push(id);
            o.hot.push(HotNode {
                rng: StdRng::seed_from_u64(node_seed(self.seed, id.0)),
                oseq: 0,
                flags: if setup.dialable { F_DIALABLE } else { 0 },
            });
            o.addr.push(setup.addr);
            o.region.push(setup.region);
            o.pending_accepts.push(Vec::new());
            o.conns.push_node();
            sh.actors.push(Some(actor));
        }
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
            let add = total.saturating_sub(sh.core.owner.len());
            sh.core.owner.reserve_exact(add);
            sh.core.net_class.reserve_exact(add);
            sh.core.region_idx.reserve_exact(add);
            let have = sh.core.owned.len();
            let oadd = per_shard.saturating_sub(have);
            let o = sh.core.o();
            o.ids.reserve(oadd);
            o.hot.reserve(oadd);
            o.addr.reserve(oadd);
            o.region.reserve(oadd);
            o.pending_accepts.reserve(oadd);
            o.conns.reserve_nodes(per_shard);
            sh.actors.reserve(oadd);
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

    /// Whole-engine state accounting (per-shard [`SimCore::state_bytes`]
    /// folded together).
    pub fn state_bytes(&self) -> StateBytes {
        let mut agg = StateBytes::default();
        for sh in &self.shards {
            agg.add(&sh.core.state_bytes());
        }
        agg
    }

    /// Merged engine view (harness-side oracle: addresses, liveness,
    /// connections, aggregated stats). Valid between `run_*` calls.
    pub fn core(&self) -> CoreView<'_, A> {
        CoreView {
            sim: self,
            stats: self.stats(),
        }
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
        let s = self.shards[0].core.shard_of(node) as usize;
        let l = self.shards[s].core.local(node);
        self.shards[s].actors[l]
            .as_ref()
            .expect("actor checked out")
    }

    /// Mutable actor accessor (harness-side configuration between runs).
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        let s = self.shards[0].core.shard_of(node) as usize;
        let l = self.shards[s].core.local(node);
        self.shards[s].actors[l]
            .as_mut()
            .expect("actor checked out")
    }

    /// Change a node's dialability (e.g. it acquired a public IP).
    pub fn set_dialable(&mut self, node: NodeId, dialable: bool) {
        let s = self.shards[0].core.shard_of(node) as usize;
        let core = &mut self.shards[s].core;
        let l = core.local(node);
        if dialable {
            core.o().hot[l].flags |= F_DIALABLE;
        } else {
            core.o().hot[l].flags &= !F_DIALABLE;
        }
    }

    /// Open a connection between `a` and `b` directly (both halves, with
    /// captured addresses) — harness/test fabric bootstrap that skips the
    /// dial handshake.
    pub fn connect_pair(&mut self, a: NodeId, b: NodeId, relayed: bool) {
        let addr_a = self.owner_core(a).addr(a);
        let addr_b = self.owner_core(b).addr(b);
        let sa = self.shards[0].core.shard_of(a) as usize;
        let sb = self.shards[0].core.shard_of(b) as usize;
        let ca = &mut self.shards[sa].core;
        let la = ca.local(a);
        ca.o().conns.insert(la, b, relayed, addr_b);
        let cb = &mut self.shards[sb].core;
        let lb = cb.local(b);
        cb.o().conns.insert(lb, a, relayed, addr_a);
    }

    fn push_harness(&mut self, target: NodeId, at: SimTime, ev: Ev<A::Msg, A::Cmd>) {
        let k = self.next_harness_key();
        let s = self.shards[0].core.shard_of(target) as usize;
        let sh = &mut self.shards[s];
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
        if broadcast {
            for s in 0..self.shards.len() {
                let sh = &mut self.shards[s];
                let at = at.max(sh.core.now);
                sh.core.enqueue_local(
                    at,
                    k,
                    Ev::Fault {
                        fault,
                        primary: s as u16 == primary_shard,
                    },
                );
            }
        } else {
            let sh = &mut self.shards[primary_shard as usize];
            let at = at.max(sh.core.now);
            sh.core.enqueue_local(
                at,
                k,
                Ev::Fault {
                    fault,
                    primary: true,
                },
            );
        }
    }

    /// Compute (and cache) the per-shard-pair lookahead bounds from the
    /// latency model and each shard's region occupancy.
    fn lookahead_info(&mut self) -> &LookaheadInfo {
        if self.lookahead_cache.is_none() {
            let core0 = &self.shards[0].core;
            let n = self.shards.len();
            let dim = core0.lat_dim;
            // Region occupancy per shard.
            let mut occupied = vec![vec![false; dim]; n];
            for (i, &packed) in core0.owner.iter().enumerate() {
                occupied[(packed >> LOCAL_BITS) as usize][core0.region_idx[i] as usize] = true;
            }
            // Multiplicative jitter draws from (1-j, 1+j) exclusive;
            // flooring at (1-j) is a safe conservative bound.
            let jitter_floor = (1.0 - core0.lat_jitter).max(0.0);
            let mut matrix = vec![NO_LINK; n * n];
            let mut min = NO_LINK;
            let mut max_finite = Dur::ZERO;
            for s1 in 0..n {
                for s2 in 0..n {
                    if s1 == s2 {
                        continue;
                    }
                    // Latency is sampled from base[region(src)][region(dst)],
                    // so the channel floor is directed.
                    let mut best: Option<Dur> = None;
                    for r1 in 0..dim {
                        if !occupied[s1][r1] {
                            continue;
                        }
                        for r2 in 0..dim {
                            if !occupied[s2][r2] {
                                continue;
                            }
                            let d = core0.lat_base[r1 * dim + r2];
                            best = Some(best.map_or(d, |m| m.min(d)));
                        }
                    }
                    if let Some(base) = best {
                        let floor = Dur((base.0 as f64 * jitter_floor).floor() as u64);
                        matrix[s1 * n + s2] = floor;
                        min = min.min(floor);
                        max_finite = max_finite.max(floor);
                    }
                }
            }
            // Metric closure (Floyd–Warshall): influence can hop through an
            // intermediate shard, so the safe per-pair horizon bound is the
            // shortest path over direct channel floors.
            let mut closure = matrix.clone();
            for k in 0..n {
                for a in 0..n {
                    if a == k {
                        continue;
                    }
                    let lak = closure[a * n + k];
                    if lak >= NO_LINK {
                        continue;
                    }
                    for b in 0..n {
                        if b == k || b == a {
                            continue;
                        }
                        let cand = lak.0.saturating_add(closure[k * n + b].0);
                        if cand < closure[a * n + b].0 {
                            closure[a * n + b] = Dur(cand);
                        }
                    }
                }
            }
            self.lookahead_cache = Some(LookaheadInfo {
                min,
                max_finite,
                direct: matrix.into(),
                closure: closure.into(),
            });
        }
        self.lookahead_cache.as_ref().expect("just populated")
    }

    /// Conservative global lookahead: the minimum possible latency of a link
    /// whose endpoints live on different shards (jitter floor applied).
    /// Cross-shard events always arrive at least this far in the future.
    /// The executor itself uses the finer per-pair bounds of
    /// [`Sim::lookahead_matrix`]; this global minimum remains the safety
    /// precondition (it must be strictly positive).
    pub fn lookahead(&mut self) -> Dur {
        self.lookahead_info().min
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
    pub fn lookahead_matrix(&mut self) -> std::sync::Arc<[Dur]> {
        self.lookahead_info().closure.clone()
    }

    /// Run until virtual time `t` (inclusive of events at `t`); afterwards
    /// `now() == t` even if the queue drained early.
    pub fn run_until(&mut self, t: SimTime) {
        if self.shards.len() == 1 {
            let max_events = self.shards[0].core.cfg.max_events;
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
            // lookahead in the pushing shard's future. A debug_assert in
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
            let max_events = self.shards[0].core.cfg.max_events;
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

    /// Minimal test actor: counts callbacks, optionally echoes messages.
    #[derive(Default)]
    struct Echo {
        started: u32,
        stopped: u32,
        got: Vec<(NodeId, u32)>,
        inbound: Vec<NodeId>,
        dial_ok: Vec<(NodeId, bool, bool)>,
        closed: Vec<NodeId>,
        timers: Vec<u64>,
        echo: bool,
    }

    impl Actor for Echo {
        type Msg = u32;
        type Cmd = &'static str;

        fn on_start(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>) {
            self.started += 1;
        }
        fn on_stop(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>) {
            self.stopped += 1;
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, &'static str>, from: NodeId, msg: u32) {
            self.got.push((from, msg));
            if self.echo && msg < 100 {
                ctx.send(from, msg + 1);
            }
        }
        fn on_inbound_connection(
            &mut self,
            _ctx: &mut Ctx<'_, u32, &'static str>,
            from: NodeId,
            _relayed: bool,
        ) {
            self.inbound.push(from);
        }
        fn on_dial_result(
            &mut self,
            ctx: &mut Ctx<'_, u32, &'static str>,
            target: NodeId,
            ok: bool,
            relayed: bool,
        ) {
            self.dial_ok.push((target, ok, relayed));
            if ok {
                ctx.send(target, 1);
            }
        }
        fn on_connection_closed(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>, peer: NodeId) {
            self.closed.push(peer);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, &'static str>, token: u64) {
            self.timers.push(token);
        }
        fn on_command(&mut self, ctx: &mut Ctx<'_, u32, &'static str>, cmd: &'static str) {
            if cmd == "dial0" {
                ctx.dial(NodeId(0));
            }
        }
    }

    fn sim() -> Sim<Echo> {
        Sim::new(
            SimConfig::default(),
            LatencyModel::uniform(Dur::from_millis(10), 0.0),
            7,
        )
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// Run `f` inside a [`Ctx`] for `node` (test-only direct effect
    /// injection, bypassing the event queue).
    fn with_ctx<R>(
        s: &mut Sim<Echo>,
        node: NodeId,
        f: impl FnOnce(&mut Ctx<'_, u32, &'static str>) -> R,
    ) -> R {
        let shard = s.shards[0].core.shard_of(node) as usize;
        let mut ctx = Ctx {
            core: &mut s.shards[shard].core,
            me: node,
        };
        f(&mut ctx)
    }

    #[test]
    fn dial_send_echo_roundtrip() {
        let mut s = sim();
        let a = s.add_node(
            Echo {
                echo: false,
                ..Default::default()
            },
            NodeSetup::public(ip(1)),
        );
        let b = s.add_node(
            Echo {
                echo: true,
                ..Default::default()
            },
            NodeSetup::public(ip(2)),
        );
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        // b dials a? No: command "dial0" dials NodeId(0) == a.
        s.run_for(Dur::from_secs(5));
        assert_eq!(s.actor(b).dial_ok, vec![(a, true, false)]);
        assert_eq!(s.actor(a).inbound, vec![b]);
        // b sent 1 on dial success; a does not echo, b echoes — a.got = [(b,1)]
        assert_eq!(s.actor(a).got, vec![(b, 1)]);
        assert!(s.core().connected(a, b) && s.core().connected(b, a));
        assert_eq!(s.core().stats.dials_ok, 1);
    }

    #[test]
    fn dial_to_nat_fails_with_timeout() {
        let mut s = sim();
        let _a = s.add_node(Echo::default(), NodeSetup::nat(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(b).dial_ok, vec![(NodeId(0), false, false)]);
        // Failure is reported only after the dial timeout.
        assert_eq!(s.core().stats.dials_failed, 1);
    }

    #[test]
    fn dial_to_offline_fails() {
        let mut s = sim();
        let _a = s.add_node(Echo::default(), NodeSetup::public(ip(1)).offline());
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(b).dial_ok, vec![(NodeId(0), false, false)]);
    }

    #[test]
    fn relayed_dial_reaches_nat_node() {
        let mut s = sim();
        let target = s.add_node(Echo::default(), NodeSetup::nat(ip(1)));
        let relay = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        let dialer = s.add_node(Echo::default(), NodeSetup::public(ip(3)));
        s.run_for(Dur::from_millis(1)); // process the initial NodeUps
                                        // Pre-establish target↔relay (the NAT-ed node keeps a relay slot)
                                        // and dialer↔relay (the dialer reaches the relay's circuit).
        s.connect_pair(target, relay, false);
        s.connect_pair(dialer, relay, false);
        with_ctx(&mut s, dialer, |ctx| ctx.dial_via(relay, target));
        s.run_for(Dur::from_secs(5));
        assert_eq!(s.actor(dialer).dial_ok, vec![(target, true, true)]);
        assert!(s.core().connected(dialer, target));
        // DCUtR: the punched connection is direct — dropping the relay must
        // not kill it.
        s.schedule_down(s.core().now(), relay);
        s.run_for(Dur::from_secs(1));
        assert!(s.core().connected(dialer, target));
    }

    #[test]
    fn relayed_dial_fails_when_relay_lacks_target() {
        let mut s = sim();
        let target = s.add_node(Echo::default(), NodeSetup::nat(ip(1)));
        let relay = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        let dialer = s.add_node(Echo::default(), NodeSetup::public(ip(3)));
        s.run_for(Dur::from_millis(1));
        // Dialer can reach the relay, but the relay holds no circuit to the
        // target: the hop fails at the relay, silence until the timeout.
        s.connect_pair(dialer, relay, false);
        with_ctx(&mut s, dialer, |ctx| ctx.dial_via(relay, target));
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(dialer).dial_ok, vec![(target, false, true)]);
    }

    #[test]
    fn churn_drops_connections_and_notifies() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(
            Echo {
                echo: false,
                ..Default::default()
            },
            NodeSetup::public(ip(2)),
        );
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(2));
        assert!(s.core().connected(a, b));
        s.schedule_down(SimTime::ZERO + Dur::from_secs(3), a);
        s.run_for(Dur::from_secs(3));
        assert!(!s.core().connected(a, b));
        // The FIN takes one link latency; by now it has landed.
        assert!(!s.core().connected(b, a));
        assert_eq!(s.actor(b).closed, vec![a]);
        assert_eq!(s.actor(a).stopped, 1);
        // Messages to the downed node are dropped.
        let dropped_before = s.core().stats.msgs_dropped;
        s.schedule_command(s.core().now(), b, "dial0"); // re-dial fails (offline)
        s.run_for(Dur::from_secs(30));
        assert!(!s.actor(b).dial_ok.last().unwrap().1);
        let _ = dropped_before;
    }

    #[test]
    fn command_batch_executes_in_order_as_one_event() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(
            Echo {
                echo: true,
                ..Default::default()
            },
            NodeSetup::public(ip(2)),
        );
        with_ctx(&mut s, a, |ctx| {
            ctx.schedule_batch(b, Dur::from_secs(1), vec!["dial0", "dial0", "dial0"]);
        });
        s.run_for(Dur::from_secs(10));
        // All three commands ran (three dial attempts from b to a, the
        // later two while already connected), but the wheel saw one event.
        assert_eq!(s.core().stats.commands, 3);
        assert_eq!(s.core().stats.kinds.command_batch, 1);
        assert_eq!(s.actor(b).dial_ok.len(), 3);
    }

    #[test]
    fn command_batch_to_offline_node_drops_whole_batch() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)).offline());
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        with_ctx(&mut s, b, |ctx| {
            ctx.schedule_batch(a, Dur::from_secs(1), vec!["dial0", "dial0"]);
        });
        s.run_for(Dur::from_secs(2));
        assert_eq!(s.core().stats.commands, 0);
        assert_eq!(s.core().stats.commands_dropped, 2);
    }

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
    fn timers_fire_in_order_and_not_offline() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        with_ctx(&mut s, a, |ctx| {
            ctx.set_timer(Dur::from_secs(2), 2);
            ctx.set_timer(Dur::from_secs(1), 1);
            ctx.set_timer(Dur::from_secs(10), 3);
        });
        s.schedule_down(SimTime::ZERO + Dur::from_secs(5), a);
        s.run_for(Dur::from_secs(20));
        assert_eq!(s.actor(a).timers, vec![1, 2]);
    }

    #[test]
    fn command_to_offline_node_dropped() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)).offline());
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), a, "dial0");
        s.run_for(Dur::from_secs(2));
        assert_eq!(s.core().stats.commands_dropped, 1);
        assert_eq!(s.core().stats.commands, 0);
    }

    #[test]
    fn message_loss_is_applied() {
        let mut s: Sim<Echo> = Sim::new(
            SimConfig {
                loss: 1.0,
                ..Default::default()
            },
            LatencyModel::uniform(Dur::from_millis(10), 0.0),
            7,
        );
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.run_for(Dur::from_millis(1));
        s.connect_pair(a, b, false);
        assert!(with_ctx(&mut s, a, |ctx| ctx.send(b, 42)));
        s.run_for(Dur::from_secs(1));
        assert!(s.actor(b).got.is_empty());
        assert_eq!(s.core().stats.msgs_lost, 1);
    }

    #[test]
    fn send_without_connection_refused() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        assert!(!with_ctx(&mut s, a, |ctx| ctx.send(b, 1)));
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
                s.core().stats.events,
                s.core().stats.msgs_delivered,
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
        assert_eq!(s.core().now().as_secs(), 100);
    }

    #[test]
    fn kill_is_silent_and_symmetric() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(2));
        assert!(s.core().connected(a, b));
        s.schedule_fault(s.core().now(), Fault::Kill { node: a });
        s.run_for(Dur::from_secs(5));
        // No FIN: b never hears the connection close, and a's actor never
        // ran on_stop.
        assert!(s.actor(b).closed.is_empty(), "kill must not notify peers");
        assert_eq!(s.actor(a).stopped, 0, "kill must skip on_stop");
        assert!(!s.core().is_online(a));
        assert!(!s.core().connected(a, b) && !s.core().connected(b, a));
        // A non-retired killed node can still be revived.
        s.schedule_up(s.core().now(), a, None);
        s.run_for(Dur::from_secs(1));
        assert!(s.core().is_online(a));
        assert_eq!(s.actor(a).started, 2);
    }

    #[test]
    fn retire_blocks_future_node_up() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        s.schedule_down(SimTime::ZERO + Dur::from_secs(1), a);
        s.schedule_fault(SimTime::ZERO + Dur::from_secs(1), Fault::Retire { node: a });
        // A churn re-join queued for later must be swallowed.
        s.schedule_up(SimTime::ZERO + Dur::from_secs(10), a, None);
        s.run_for(Dur::from_secs(20));
        assert!(!s.core().is_online(a));
        assert!(s.core().is_retired(a));
        assert_eq!(s.actor(a).started, 1, "retired node must not restart");
    }

    #[test]
    fn partition_severs_and_blocks_cross_class_dials() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        let c = s.add_node(Echo::default(), NodeSetup::public(ip(3)));
        s.run_for(Dur::from_millis(1));
        s.connect_pair(a, b, false);
        s.connect_pair(a, c, false);
        let t = SimTime::ZERO + Dur::from_secs(1);
        s.schedule_fault(t, Fault::SetNetClass { node: b, class: 1 });
        s.schedule_fault(t, Fault::Partition { active: true });
        s.run_for(Dur::from_secs(2));
        // a–b crossed the boundary and was severed with notifications …
        assert!(!s.core().connected(a, b));
        assert_eq!(s.actor(a).closed, vec![b]);
        assert_eq!(s.actor(b).closed, vec![a]);
        // … while same-class a–c survived.
        assert!(s.core().connected(a, c));
        // Cross-class dials fail (after the dial timeout), same-class work.
        s.schedule_command(s.core().now(), b, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(b).dial_ok.last(), Some(&(a, false, false)));
        // Heal: dialing works again.
        s.schedule_fault(s.core().now(), Fault::Partition { active: false });
        s.schedule_command(s.core().now() + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(s.actor(b).dial_ok.last(), Some(&(a, true, false)));
    }

    #[test]
    fn overlapping_partitions_nest() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        let c = s.add_node(Echo::default(), NodeSetup::public(ip(3)));
        let t = |secs| SimTime::ZERO + Dur::from_secs(secs);
        // Partition 1 isolates b (class 1), partition 2 isolates c (class 2).
        s.schedule_fault(t(1), Fault::SetNetClass { node: b, class: 1 });
        s.schedule_fault(t(1), Fault::Partition { active: true });
        s.schedule_fault(t(2), Fault::SetNetClass { node: c, class: 2 });
        s.schedule_fault(t(2), Fault::Partition { active: true });
        // Heal partition 1 only: b rejoins the main island, c stays cut.
        s.schedule_fault(t(3), Fault::Partition { active: false });
        s.schedule_fault(t(3), Fault::SetNetClass { node: b, class: 0 });
        s.schedule_command(t(4), b, "dial0");
        s.run_for(Dur::from_secs(10));
        assert!(s.core().partition_active(), "second split still enforced");
        assert_eq!(
            s.actor(b).dial_ok.last(),
            Some(&(a, true, false)),
            "healed island dials again"
        );
        s.schedule_command(s.core().now(), c, "dial0");
        s.run_for(Dur::from_secs(30));
        assert_eq!(
            s.actor(c).dial_ok.last(),
            Some(&(a, false, false)),
            "unhealed island stays cut"
        );
    }

    #[test]
    fn disconnect_notifies_peer() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.run_for(Dur::from_millis(1));
        s.connect_pair(a, b, false);
        with_ctx(&mut s, a, |ctx| ctx.disconnect(b));
        s.run_for(Dur::from_secs(1));
        assert_eq!(s.actor(b).closed, vec![a]);
        assert!(!s.core().connected(a, b));
        assert!(!s.core().connected(b, a));
    }

    #[test]
    fn target_death_mid_handshake_fins_the_dialer() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        // b dials a at t=1s; with 10ms links the handshake completes at
        // t=1.02s. a shuts down at t=1.015s — inside the window.
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.schedule_down(SimTime::ZERO + Dur::from_millis(1015), a);
        s.run_for(Dur::from_secs(5));
        // The handshake ACK was already in flight: b sees a successful
        // dial, immediately followed by the FIN — no stale half remains.
        assert_eq!(s.actor(b).dial_ok, vec![(a, true, false)]);
        assert_eq!(s.actor(b).closed, vec![a]);
        assert!(!s.core().connected(b, a));
        // a never opened its half (it was down at handshake completion).
        assert!(!s.core().connected(a, b));
        assert!(s.actor(a).inbound.is_empty());
    }

    #[test]
    fn captured_peer_addr_is_visible() {
        let mut s = sim();
        let a = s.add_node(Echo::default(), NodeSetup::public(ip(1)));
        let b = s.add_node(Echo::default(), NodeSetup::public(ip(2)));
        s.schedule_command(SimTime::ZERO + Dur::from_secs(1), b, "dial0");
        s.run_for(Dur::from_secs(5));
        let a_addr = s.core().addr(a);
        let b_addr = s.core().addr(b);
        assert_eq!(with_ctx(&mut s, b, |ctx| ctx.addr_of(a)), Some(a_addr));
        assert_eq!(with_ctx(&mut s, a, |ctx| ctx.addr_of(b)), Some(b_addr));
    }
}

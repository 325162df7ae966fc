//! Engine state columns, the event vocabulary and event routing — what one
//! shard owns apart from its actors ([`SimCore`]). The routing functions and
//! column accessors are `#[inline]`: `ctx` and `dispatch` call them per
//! event from other modules, i.e. other codegen units of whichever crate
//! instantiates the engine, and `replay_tiny` ran a fifth slower without.
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
//! O(nodes × ~300B × shards). [`SimCore::state_bytes`] reports the measured
//! split. Cloning an engine for a fork (the observatory primitive) copies
//! the columns along with the queue and the actors; nothing is shared.
//!
//! # Trace digest
//!
//! [`SimCore::note_event`] folds every processed event into a commutative
//! per-shard accumulator (FNV-1a per event, `wrapping_add` across events);
//! `Sim::trace_digest` folds the per-shard digests in shard order. Addition
//! is commutative, so the merged digest is invariant under re-sharding — the
//! cheap oracle that a 4-shard run replayed the 1-shard history exactly.

use crate::conn::ConnPool;
use crate::ctx::NodeSetup;
use crate::latency::{LatencyModel, RegionId};
use crate::stats::{StateBytes, SyncCounters};
use crate::time::{Dur, SimTime};
use crate::wheel::TimerWheel;
use crate::SimStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddrV4;

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
    /// get no [`crate::Actor::on_connection_closed`] callback and discover the
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

/// Node is currently online.
pub(crate) const F_ONLINE: u8 = 1;
/// Direct inbound dials succeed (false = behind NAT).
pub(crate) const F_DIALABLE: u8 = 2;
/// Decommissioned by a [`Fault::Retire`]: future `NodeUp`s are ignored.
pub(crate) const F_RETIRED: u8 = 4;

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
pub(crate) struct HotNode {
    /// Per-node deterministic RNG.
    pub(crate) rng: StdRng,
    /// Per-origin event sequence counter: the tie-break half of this
    /// node's event keys.
    oseq: u32,
    /// `F_ONLINE | F_DIALABLE | F_RETIRED` bit set.
    pub(crate) flags: u8,
}

/// Owner-only per-node state, stored *densely* (indexed by local index) at
/// the owning shard and nowhere else.
#[derive(Clone, Default)]
pub(crate) struct OwnedColumns {
    /// local index → global node id (append-only, ascending).
    pub(crate) ids: Vec<NodeId>,
    /// The fields nearly every dispatched event touches together — kept in
    /// one 40-byte record so dispatch costs one cache line per node, not
    /// three.
    pub(crate) hot: Vec<HotNode>,
    pub(crate) addr: Vec<SocketAddrV4>,
    pub(crate) region: Vec<RegionId>,
    /// Inbound handshakes accepted at DialArrive but not yet completed
    /// (`(dialer, outcome_at)`): a graceful shutdown in that window FINs
    /// the dialer *after* its DialOutcome lands, so a dial that reported
    /// success against a dying target still gets its close notification.
    /// Cleared silently on [`Fault::Kill`], like the open halves.
    pub(crate) pending_accepts: Vec<Vec<(NodeId, SimTime)>>,
    /// Every owned node's half of every open connection, slab-allocated
    /// in one contiguous per-shard pool.
    pub(crate) conns: ConnPool,
}

impl OwnedColumns {
    pub(crate) fn len(&self) -> usize {
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

/// Origin id used for events scheduled by the harness rather than a node.
pub(crate) const HARNESS_ORIGIN: u32 = u32::MAX;

/// Compose a wheel tie-break key from an origin and its private counter.
/// `(origin, oseq)` pairs are unique, so `(time, key)` is a total order
/// that does not depend on execution interleaving.
pub(crate) fn ev_key(origin: u32, oseq: u32) -> u64 {
    ((origin as u64) << 32) | oseq as u64
}

/// Derive a node's private RNG seed from the engine seed (SplitMix-style
/// mix so adjacent node ids land far apart).
fn node_seed(engine_seed: u64, node: u32) -> u64 {
    engine_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 0x51))
}

/// Everything one shard owns apart from the actors themselves; split out so
/// a `Ctx` can borrow it next to the actor a callback runs on. With
/// `shards = 1` this is the whole engine state; with more, each shard holds
/// the authoritative state for its owned nodes plus replicas of the
/// broadcast-maintained fields (partition classes, partition depth).
#[derive(Clone)]
pub(crate) struct SimCore<M, C> {
    pub(crate) cfg: SimConfig,
    /// This shard's index.
    pub(crate) shard: u16,
    pub(crate) now: SimTime,
    pub(crate) queue: TimerWheel<Ev<M, C>>,
    /// Packed owner handle per node (full length, identical on every
    /// shard): owning shard in the high bits, dense local index at that
    /// shard in the low [`LOCAL_BITS`].
    pub(crate) owner: Vec<u32>,
    /// Partition class per node (full length; replicated by fault
    /// broadcast so partition checks never cross a shard boundary).
    pub(crate) net_class: Vec<u16>,
    /// Region clamped against the latency matrix, cached for the send
    /// path (full length, immutable after registration).
    pub(crate) region_idx: Vec<u16>,
    /// Owner-only columns for the nodes this shard owns (dense).
    pub(crate) owned: OwnedColumns,
    /// Row-major base latency matrix (flattened from the [`LatencyModel`]).
    pub(crate) lat_base: Vec<Dur>,
    pub(crate) lat_dim: usize,
    pub(crate) lat_jitter: f64,
    /// Number of currently active [`Fault::Partition`]s (replicated).
    pub(crate) partition_depth: u32,
    /// Commutative digest accumulator: `wrapping_add` of per-event FNV-1a
    /// hashes over every event this shard processed.
    pub(crate) trace: u64,
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
    pub(crate) stats: SimStats,
    /// Conservative-sync counters (maintained by the epoch executor).
    pub(crate) sync: SyncCounters,
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
    /// An empty core for shard `shard` of `n_shards`.
    pub(crate) fn new(cfg: SimConfig, shard: u16, n_shards: usize, latency: &LatencyModel) -> Self {
        let (lat_base, lat_dim) = latency.to_flat();
        SimCore {
            cfg,
            shard,
            now: SimTime::ZERO,
            queue: TimerWheel::new(),
            owner: Vec::new(),
            net_class: Vec::new(),
            region_idx: Vec::new(),
            owned: OwnedColumns::default(),
            lat_base,
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
        }
    }

    /// Register node `id`, owned by `owner_shard` at dense index `local`
    /// (called on every shard, in registration order): replicated columns
    /// everywhere, owner-only columns — offline, RNG from `engine_seed` —
    /// at the owner.
    pub(crate) fn push_node(
        &mut self,
        id: NodeId,
        owner_shard: u16,
        local: usize,
        engine_seed: u64,
        setup: &NodeSetup,
    ) {
        assert!(
            local < LOCAL_MASK as usize,
            "per-shard node capacity exceeded ({LOCAL_MASK} nodes)"
        );
        self.owner
            .push(((owner_shard as u32) << LOCAL_BITS) | local as u32);
        self.net_class.push(0);
        self.region_idx
            .push((setup.region.0 as usize).min(self.lat_dim - 1) as u16);
        if owner_shard != self.shard {
            return;
        }
        let o = &mut self.owned;
        o.ids.push(id);
        o.hot.push(HotNode {
            rng: StdRng::seed_from_u64(node_seed(engine_seed, id.0)),
            oseq: 0,
            flags: if setup.dialable { F_DIALABLE } else { 0 },
        });
        o.addr.push(setup.addr);
        o.region.push(setup.region);
        o.pending_accepts.push(Vec::new());
        o.conns.push_node();
    }

    /// Pre-size the columns for `total` nodes overall, `per_shard` of them
    /// owned here (see `Sim::reserve_nodes`).
    pub(crate) fn reserve_nodes(&mut self, total: usize, per_shard: usize) {
        let add = total.saturating_sub(self.owner.len());
        self.owner.reserve_exact(add);
        self.net_class.reserve_exact(add);
        self.region_idx.reserve_exact(add);
        let oadd = per_shard.saturating_sub(self.owned.len());
        let o = &mut self.owned;
        o.ids.reserve(oadd);
        o.hot.reserve(oadd);
        o.addr.reserve(oadd);
        o.region.reserve(oadd);
        o.pending_accepts.reserve(oadd);
        o.conns.reserve_nodes(per_shard);
    }

    /// Enqueue on this shard's wheel with peak tracking.
    #[inline]
    pub(crate) fn enqueue_local(&mut self, at: SimTime, key: u64, ev: Ev<M, C>) {
        self.queue.push(at, key, ev);
        let len = self.queue.len() as u64;
        if len > self.stats.peak_queue_len {
            self.stats.peak_queue_len = len;
        }
    }

    /// The shard owning `node` (replicated knowledge).
    #[inline]
    pub(crate) fn shard_of(&self, node: NodeId) -> u16 {
        (self.owner[node.idx()] >> LOCAL_BITS) as u16
    }

    /// `node`'s dense index into this shard's owner-only columns. Must
    /// only be called for nodes this shard owns.
    #[inline]
    pub(crate) fn local(&self, node: NodeId) -> usize {
        let p = self.owner[node.idx()];
        debug_assert_eq!(
            (p >> LOCAL_BITS) as u16,
            self.shard,
            "owner-only access to a node owned elsewhere ({node:?})"
        );
        (p & LOCAL_MASK) as usize
    }

    /// Route an event to the shard owning `target` under an existing key.
    #[inline]
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
            assert!(
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
    #[inline]
    pub(crate) fn push_from(&mut self, origin: NodeId, target: NodeId, at: SimTime, ev: Ev<M, C>) {
        let l = self.local(origin);
        let oseq = {
            let h = &mut self.owned.hot[l];
            debug_assert!(h.oseq < u32::MAX, "per-origin sequence overflow");
            let q = h.oseq;
            h.oseq += 1;
            q
        };
        self.route(ev_key(origin.0, oseq), target, at, ev);
    }

    /// When something `from` puts on the wire now reaches `to`: one sampled
    /// link latency ahead, jitter drawn from `from`'s RNG (`from` must be
    /// owned by this shard).
    #[inline]
    pub(crate) fn link_arrival(&mut self, from: NodeId, to: NodeId) -> SimTime {
        let ia = self.region_idx[from.idx()] as usize;
        let ib = self.region_idx[to.idx()] as usize;
        let base = self.lat_base[ia * self.lat_dim + ib];
        let l = self.local(from);
        let jitter = self.lat_jitter;
        self.now + crate::latency::apply_jitter(base, jitter, &mut self.owned.hot[l].rng)
    }

    /// Schedule `ev` at `to` one link latency from now, keyed by `from`.
    /// Returns the arrival time.
    #[inline]
    pub(crate) fn push_link(&mut self, from: NodeId, to: NodeId, ev: Ev<M, C>) -> SimTime {
        let at = self.link_arrival(from, to);
        self.push_from(from, to, at, ev);
        at
    }

    /// Whether `a`'s half of a connection to `b` exists (`a` must be owned
    /// by this shard). At quiesce points the fabric is symmetric;
    /// mid-handshake and mid-FIN it is intentionally half-open, like real
    /// sockets.
    #[inline]
    pub(crate) fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.owned.conns.contains(self.local(a), b)
    }

    /// Whether the fabric lets `a` and `b` talk (partition check). Free
    /// when no partition is active — the common case is one branch.
    /// `net_class` is replicated to every shard, so this never needs a
    /// cross-shard read.
    #[inline]
    pub(crate) fn link_allowed(&self, a: NodeId, b: NodeId) -> bool {
        self.partition_depth == 0 || self.net_class[a.idx()] == self.net_class[b.idx()]
    }

    /// Fold one processed event into the trace digest and bump its kind
    /// counter. Returns whether the event counts toward `stats.events`
    /// (broadcast fault replicas do not).
    #[inline]
    pub(crate) fn note_event(&mut self, at: SimTime, ev: &Ev<M, C>) -> bool {
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

    /// `node`'s `F_ONLINE | F_DIALABLE | F_RETIRED` bits (authoritative at
    /// its owner).
    #[inline]
    pub(crate) fn flags(&self, node: NodeId) -> u8 {
        self.owned.hot[self.local(node)].flags
    }

    /// A node's current socket address (authoritative at its owner).
    #[inline]
    pub(crate) fn addr(&self, node: NodeId) -> SocketAddrV4 {
        self.owned.addr[self.local(node)]
    }

    /// A node's open connections in ascending peer order, without
    /// allocating (the pool windows are kept sorted).
    #[inline]
    pub(crate) fn connections(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.owned.conns.peers(self.local(node))
    }

    /// Number of open connections.
    #[inline]
    pub(crate) fn connection_count(&self, node: NodeId) -> usize {
        self.owned.conns.len(self.local(node))
    }

    /// Measured state split for this shard: replicated bytes vs owner-only
    /// bytes. Counted from vector capacities — what the allocator actually
    /// reserved.
    pub(crate) fn state_bytes(&self) -> StateBytes {
        use std::mem::size_of;
        let replica_bytes = (self.owner.capacity() * size_of::<u32>()
            + self.net_class.capacity() * size_of::<u16>()
            + self.region_idx.capacity() * size_of::<u16>()) as u64;
        StateBytes {
            nodes: self.owner.len() as u64,
            owned_nodes: self.owned.len() as u64,
            replica_bytes,
            owned_bytes: self.owned.bytes(),
            queue_bytes: self.queue.queue_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn a_mailbox_event_adds_16_bytes_to_the_event() {
        // Every cross-shard event is counted at `size_of::<OutEv>()`
        // mailbox bytes: the event plus its time and ordering key.
        fn extra<M, C>() -> usize {
            size_of::<OutEv<M, C>>() - size_of::<Ev<M, C>>()
        }
        assert_eq!(extra::<u32, u32>(), 16);
        assert_eq!(extra::<[u64; 10], u64>(), 16);
        assert_eq!(extra::<Box<[u8]>, Vec<u8>>(), 16);
    }
}

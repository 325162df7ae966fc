//! Counters and accounting types the engine reports: events by kind, the
//! aggregate [`SimStats`], the measured state split ([`StateBytes`]), sync
//! counters, the per-shard load gauge. Plain data with `add` folds.

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
    /// Messages submitted via [`crate::Ctx::send`].
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
    pub(crate) fn add(&mut self, o: &SimStats) {
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

/// Measured engine state split for one shard — the observable form of the
/// O(nodes) replica claim (surfaced in the state-bytes notes of the
/// `engine-crawl` / `engine-workload` sections, in `repro budget`, and in
/// `tcsb-bench`'s `simnet.engine.*_bytes_per_node` rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct StateBytes {
    /// Registered nodes (same on every shard).
    pub nodes: u64,
    /// Nodes owned by this shard.
    pub owned_nodes: u64,
    /// Bytes of the replicated columns (owner handle + partition class +
    /// region index): the per-extra-shard cost of sharding.
    pub replica_bytes: u64,
    /// Bytes of the owner-only columns.
    pub owned_bytes: u64,
    /// Bytes of this shard's event queue (the timer wheel's slab, list
    /// heads, staging and far heap), at capacity: follows the peak queue
    /// population. A fork copies it.
    pub queue_bytes: u64,
}

impl StateBytes {
    /// Fold another shard's accounting into a whole-engine view
    /// (`nodes` is replicated, the byte counts add).
    pub fn add(&mut self, o: &StateBytes) {
        self.nodes = self.nodes.max(o.nodes);
        self.owned_nodes += o.owned_nodes;
        self.replica_bytes += o.replica_bytes;
        self.owned_bytes += o.owned_bytes;
        self.queue_bytes += o.queue_bytes;
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
    /// Barrier rendezvous this shard entered (2 per full epoch, 1 on the
    /// terminating iteration of each `run_until`).
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

//! # simnet — deterministic discrete-event network simulator
//!
//! The substitution substrate for the live IPFS network (see DESIGN.md §2):
//! virtual time, a seeded event queue, a connection fabric with NAT and
//! circuit-relay dialing rules, node lifecycle (churn), and a latency model.
//! Protocol logic lives in `kademlia`/`bitswap`/`ipfs-node`, which implement
//! the [`Actor`] trait; measurement tools are actors too, exactly as the
//! paper's tools were ordinary participants of the real network.
//!
//! Built for scale: nodes partition into shards, each with its own
//! hierarchical timer wheel ([`wheel`]) and slab-allocated connection pool
//! slice, run by one worker thread per shard under conservative epoch
//! synchronization (`shard` — cross-shard events ride per-pair mailboxes,
//! bounded by the minimum cross-shard link latency). Per-node state is
//! struct-of-arrays: non-owner shards replicate only 8 bytes per node
//! (owner handle, partition class, region index), while owner-only columns
//! — RNGs, liveness, sorted connection windows of the per-shard
//! [`conn::ConnPool`] slab — live densely at the owning shard behind a
//! copy-on-write [`std::sync::Arc`] that makes engine forks O(queue), not
//! O(nodes) ([`engine::StateBytes`] reports the measured split). Latency
//! sampling reads a flattened region matrix. See [`engine`] for the
//! scheduler layout and the shard-invariant determinism contract
//! ([`Sim::trace_digest`] folds every processed event into a commutative
//! digest that is byte-identical for every shard count).
//!
//! Design follows the sans-io idiom of the session guides (smoltcp, Tokio
//! tutorial): no I/O and no wall clock inside protocol state machines,
//! `Dur`-based timeouts, cancellation-safe callback boundaries.

pub mod churn;
pub mod conn;
pub mod engine;
pub mod latency;
pub(crate) mod shard;
pub mod time;
pub mod wheel;

pub use churn::{ChurnModel, LogNormal};
pub use conn::{ConnEntry, ConnPool, ConnTable};
pub use engine::{
    Actor, CoreView, Ctx, EventKindCounts, Fault, NodeId, NodeSetup, ShardLoad, Sim, SimConfig,
    SimCore, SimStats, StateBytes, SyncCounters, MAX_SHARDS,
};
pub use latency::{LatencyModel, RegionId};
pub use time::{Dur, SimTime};
pub use wheel::TimerWheel;

//! # simnet — deterministic discrete-event network simulator
//!
//! The substitution substrate for the live IPFS network (see DESIGN.md §2):
//! virtual time, a seeded event queue, a connection fabric with NAT and
//! circuit-relay dialing rules, node lifecycle (churn), and a latency model.
//! Protocol logic lives in `kademlia`/`bitswap`/`ipfs-node`, which implement
//! the [`Actor`] trait; measurement tools are actors too, exactly as the
//! paper's tools were ordinary participants of the real network.
//!
//! Built for scale: nodes partition into shards, each with its own timer
//! wheel and connection slab, one worker thread per shard under conservative
//! epoch synchronization; per-node state is struct-of-arrays, and an engine
//! fork is a plain clone. [`Sim::trace_digest`] is byte-identical for every
//! shard count.
//!
//! Everything a caller needs is in the `pub use` list below. Behind it, one
//! module per responsibility:
//!
//! | module      | owns                                                          |
//! |-------------|---------------------------------------------------------------|
//! | `sim`       | the [`Sim`] harness and [`CoreView`], the one read-only view; the **determinism contract** and sharded-execution text |
//! | `state`     | per-shard state columns, the event enum, routing, the digest fold; the **memory-layout** text |
//! | `ctx`       | [`Actor`], [`Ctx`], [`NodeSetup`] — what protocol code sees   |
//! | `dispatch`  | one shard's event loop: fabric, dial protocol, lifecycle, faults |
//! | `lookahead` | conservative per-shard-pair bounds from the latency matrix    |
//! | `shard`     | the epoch executor (barriers, mailboxes, horizons)            |
//! | `stats`     | counters and accounting types                                 |
//! | `conn`, `wheel`, `latency`, `churn`, `time` | the connection slab, the slab-backed timer wheel, the latency and churn models, virtual time |
//!
//! Design follows the sans-io idiom of the session guides (smoltcp, Tokio
//! tutorial): no I/O and no wall clock inside protocol state machines,
//! `Dur`-based timeouts, cancellation-safe callback boundaries.

#![forbid(unsafe_code)]

pub mod churn;
pub mod conn;
mod ctx;
mod dispatch;
pub mod latency;
mod lookahead;
mod shard;
mod sim;
mod state;
mod stats;
pub mod time;
pub mod wheel;

pub use churn::{ChurnModel, LogNormal};
pub use conn::{ConnEntry, ConnPool};
pub use ctx::{Actor, Ctx, NodeSetup};
pub use latency::{LatencyModel, RegionId};
pub use sim::{CoreView, Sim};
pub use state::{Fault, NodeId, SimConfig, MAX_SHARDS};
pub use stats::{EventKindCounts, ShardLoad, SimStats, StateBytes, SyncCounters};
pub use time::{Dur, SimTime};
pub use wheel::TimerWheel;

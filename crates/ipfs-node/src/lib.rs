//! # ipfs-node — the composed IPFS node actor
//!
//! Glues the sans-io `kademlia` and `bitswap` engines to the `simnet`
//! event loop: connection management with watermarks, identify exchange,
//! circuit-relay reservations for NAT-ed nodes (with DCUtR-style hole
//! punching on circuit dials), the two-phase retrieval pipeline (1-hop
//! Bitswap broadcast, then DHT provider resolution), content advertisement
//! with reproviding, and HTTP-gateway behaviour.
//!
//! Everything a caller needs is in the `pub use` list below. [`IpfsNode`]
//! is one struct with one `impl` block per service:
//!
//! | module  | owns                                                              |
//! |---------|-------------------------------------------------------------------|
//! | `node`  | [`NodeConfig`], the struct and its per-session state, accessors, lifecycle (`handle_start`, identity adoption), the command / message / timer routers |
//! | `conn`  | identify, the post-dial action queue, neighbour bookkeeping behind the routing table's `connected` column, relay reservations, the connection manager |
//! | `dht`   | RPC plumbing, the node's walks (one map in the session) and their driver (`begin_lookup` → `drive_lookup` → `finish_lookup`, walk telemetry included), bootstrap, provide / reprovide / refresh |
//! | `fetch` | the retrieval pipeline (`start_fetch` → Bitswap phase → DHT phase → complete / fail), the Bitswap message path and monitor log, gateway replies |
//! | `actor` | [`NodeActor`], the `simnet::Actor` adapter for a plain node         |
//! | `wire`  | the ecosystem's message, command and event types                  |

#![forbid(unsafe_code)]

pub mod actor;
mod conn;
mod dht;
mod fetch;
pub mod node;
pub mod wire;

pub use actor::NodeActor;
pub use node::{IpfsNode, NodeConfig};
pub use wire::{BitswapLogEntry, NodeCmd, NodeEvent, WireMsg};

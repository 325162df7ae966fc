//! # kademlia — sans-io Kademlia DHT
//!
//! A from-scratch implementation of the IPFS DHT as described in §2 of the
//! paper: k-buckets with the go-libp2p unfolding scheme, provider records
//! with TTL, iterative lookups (`GetClosestPeers` / `FindProviders`,
//! including the paper's exhaustive termination variant), and the DHT
//! server/client split that makes NAT-ed nodes invisible to crawls.
//!
//! The crate is transport-free. [`Dht`] is the serving half of one node:
//! routing table, provider store, mode and the answer to each request. A
//! [`Lookup`] is one walk, seeded by [`Dht::start_lookup`] and owned and
//! driven by whoever started it. Both kinds of DHT server in the simulation
//! keep a `Dht` and walk the same way: the `ipfs-node` session, and
//! `tcsb-core`'s Hydra for all its heads. A peer that fails a walk's query
//! leaves the table, and an answer admits its responder only. The crawler
//! keeps no table. A request carries its sender; an answer carries none.

#![forbid(unsafe_code)]

pub mod dht;
pub mod lookup;
pub mod messages;
pub mod providers;
pub mod table;

pub use dht::{Dht, DhtConfig, DhtMode};
pub use lookup::{Lookup, LookupConfig, LookupKind, LookupResult};
pub use messages::{
    no_addrs, AddrList, DhtMessage, DhtRequest, DhtResponse, PeerInfo, ProviderRecord,
    TrafficClass, WireRequest, RPC_TIMEOUT,
};
pub use providers::{ProviderStore, ProviderStoreConfig};
pub use table::{Bucket, Entry, Observed, RoutingTable, TableConfig};

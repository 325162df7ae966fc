//! # kademlia — sans-io Kademlia DHT
//!
//! A from-scratch implementation of the IPFS DHT as described in §2 of the
//! paper: k-buckets with the go-libp2p unfolding scheme, provider records
//! with TTL, iterative lookups (`GetClosestPeers` / `FindProviders`,
//! including the paper's exhaustive termination variant), and the DHT
//! server/client split that makes NAT-ed nodes invisible to crawls.
//!
//! The crate is transport-free: `ipfs-node` drives these state machines
//! inside the simulator, and `tcsb-core`'s measurement tools speak the same
//! message types.

#![forbid(unsafe_code)]

pub mod dht;
pub mod lookup;
pub mod messages;
pub mod providers;
pub mod table;

pub use dht::{Dht, DhtConfig, DhtMode};
pub use lookup::{Lookup, LookupConfig, LookupKind, LookupResult};
pub use messages::{
    no_addrs, AddrList, DhtBody, DhtMessage, DhtRequest, DhtResponse, PeerInfo, ProviderRecord,
    TrafficClass,
};
pub use providers::{ProviderStore, ProviderStoreConfig};
pub use table::{Bucket, Entry, Observed, RoutingTable, TableConfig};

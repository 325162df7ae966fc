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
//! [`Lookup`] is one walk, owned and driven by whoever started it: the
//! `ipfs-node` session keeps its node's walks, and `tcsb-core`'s Hydra and
//! crawler keep their own while speaking the same message types.

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

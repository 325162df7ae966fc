//! # clouddb — IP metadata databases
//!
//! The measurement side of the paper attributes IP addresses to cloud
//! providers (Udger), countries (MaxMind GeoLite2), autonomous systems, and
//! platforms (reverse DNS). This crate provides those databases as
//! longest-prefix-match tries plus a PTR map, with the same semantics as the
//! commercial originals — including the crucial "absent ⇒ non-cloud" rule.
//!
//! The databases are *populated* by `netgen` (which owns the synthetic
//! address plan) and *queried* by `tcsb-core` (the analysis pipeline); this
//! crate is pure mechanism.

#![forbid(unsafe_code)]

pub mod dbs;
pub mod trie;

pub use dbs::{Asn, AsnDb, CloudDb, CountryCode, GeoDb, IpDatabases, ProviderId, ReverseDnsDb};
pub use trie::{Cidr, PrefixTrie};

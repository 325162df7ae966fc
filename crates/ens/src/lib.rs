//! # ens — Ethereum Name Service substrate
//!
//! The ENS pieces the paper touches (§2, §3, §7): registry and resolver
//! contracts modelled as event-log state machines, EIP-137 namehash
//! (SHA-256 substituted for keccak — documented in DESIGN.md), EIP-1577
//! contenthash encoding, and the Etherscan-style paged log extraction that
//! yields the 20.6k `ipfs_ns` records the paper analyzes.

#![forbid(unsafe_code)]

pub mod contenthash;
pub mod contracts;
pub mod extract;

pub use contenthash::{decode, encode_ipfs, encode_other, ContentHash, Namespace};
pub use contracts::{
    namehash, Address, LogEntry, Node, Registry, RegistryRecord, ResolverContract, ResolverEvent,
};
pub use extract::{extract_ipfs_records, EnsIpfsRecord, ExtractStats};

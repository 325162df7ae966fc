//! # ipfs-types — content-addressing primitives
//!
//! Foundational identifier types shared by every crate in the workspace:
//! SHA-256 (implemented from scratch, FIPS 180-4), base58btc/base32 codecs,
//! the 256-bit Kademlia keyspace with its XOR metric, peer identities,
//! content identifiers and multiaddresses.
//!
//! Everything here is deterministic and allocation-light; no I/O, no global
//! state, in the spirit of a sans-io protocol core.

#![forbid(unsafe_code)]

pub mod base;
pub mod cid;
pub mod fxhash;
pub mod key;
pub mod multiaddr;
pub mod peer;
pub mod sha256;

pub use base::DecodeError;
pub use cid::{Cid, CidVersion, Codec, Multihash};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use key::{Distance, Key256};
pub use multiaddr::{Multiaddr, Proto};
pub use peer::{Keypair, PeerId};
pub use sha256::{sha256, Sha256};

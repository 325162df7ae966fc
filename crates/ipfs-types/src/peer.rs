//! Peer identities.
//!
//! In libp2p a peer ID is the multihash of the node's public key. We keep the
//! same structure with a synthetic key scheme: a 32-byte secret seed whose
//! "public key" is `SHA-256("pub" || seed)`. This preserves everything the
//! paper's measurements rely on — IDs are uniformly distributed hashes bound
//! to a keypair, nodes can regenerate identities at will — without pulling in
//! real signature crypto (documented substitution, see DESIGN.md §2).

use crate::base::base58btc_encode;
use crate::key::Key256;
use crate::sha256::sha256;

/// A synthetic keypair: 32-byte seed, derived public key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Keypair {
    secret: [u8; 32],
    public: [u8; 32],
}

impl Keypair {
    /// Derive a keypair deterministically from a seed value.
    pub fn from_seed(seed: u64) -> Keypair {
        let mut material = *b"tcsb-keypair-seed...............";
        material[24..32].copy_from_slice(&seed.to_be_bytes());
        Keypair::from_secret(sha256(&material))
    }

    /// Build from explicit secret bytes.
    pub fn from_secret(secret: [u8; 32]) -> Keypair {
        let mut buf = Vec::with_capacity(35);
        buf.extend_from_slice(b"pub");
        buf.extend_from_slice(&secret);
        Keypair {
            secret,
            public: sha256(&buf),
        }
    }

    /// The public key bytes.
    pub fn public(&self) -> &[u8; 32] {
        &self.public
    }

    /// The peer ID derived from this keypair.
    pub fn peer_id(&self) -> PeerId {
        PeerId(Key256(sha256(&self.public)))
    }

    /// The secret bytes (used by tests to assert determinism).
    pub fn secret(&self) -> &[u8; 32] {
        &self.secret
    }
}

/// A peer identifier: hash of the node's public key, living in the Kademlia
/// keyspace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub Key256);

impl PeerId {
    /// The keyspace point of this peer.
    pub fn key(&self) -> Key256 {
        self.0
    }

    /// Deterministic test/bench constructor.
    pub fn from_seed(seed: u64) -> PeerId {
        Keypair::from_seed(seed).peer_id()
    }

    /// Canonical text form: base58btc of the multihash (0x12 = sha2-256,
    /// 0x20 = 32 bytes, then the digest), like the familiar `Qm…`-less
    /// raw-hash IDs.
    pub fn to_base58(&self) -> String {
        let mut bytes = Vec::with_capacity(34);
        bytes.push(0x12);
        bytes.push(0x20);
        bytes.extend_from_slice(&self.0 .0);
        base58btc_encode(&bytes)
    }
}

impl std::fmt::Debug for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.to_base58();
        write!(f, "PeerId({}…)", &s[..8.min(s.len())])
    }
}

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_base58())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keypair_deterministic() {
        let a = Keypair::from_seed(99);
        let b = Keypair::from_seed(99);
        assert_eq!(a, b);
        assert_eq!(a.peer_id(), b.peer_id());
        assert_ne!(Keypair::from_seed(100).peer_id(), a.peer_id());
    }

    #[test]
    fn peer_id_is_hash_of_public_key() {
        let kp = Keypair::from_seed(5);
        assert_eq!(kp.peer_id().0 .0, crate::sha256::sha256(kp.public()));
    }

    #[test]
    fn base58_form_starts_with_qm() {
        // multihash 0x12 0x20 … always encodes to a "Qm" prefix in base58btc.
        let id = PeerId::from_seed(1);
        assert!(id.to_base58().starts_with("Qm"), "{}", id.to_base58());
    }

    #[test]
    fn ids_are_spread_across_keyspace() {
        // First-byte distribution over 512 ids should cover many values.
        let mut seen = std::collections::HashSet::new();
        for s in 0..512u64 {
            seen.insert(PeerId::from_seed(s).0 .0[0]);
        }
        assert!(
            seen.len() > 200,
            "only {} distinct leading bytes",
            seen.len()
        );
    }
}

//! Content identifiers (CIDs) and multihashes.
//!
//! A CID binds a content codec to a multihash of the content bytes. We
//! implement the two wire versions the network actually uses:
//!
//! * **CIDv0** — bare sha2-256 multihash, base58btc text form (`Qm…`);
//! * **CIDv1** — `<version><codec><multihash>`, base32 text form with the
//!   multibase prefix `b` (`bafy…`).

use crate::base::{
    base32_decode, base32_encode, base58btc_decode, base58btc_encode, varint_decode, varint_encode,
    DecodeError,
};
use crate::key::Key256;
use crate::sha256::sha256;

/// Multicodec content type codes (the subset IPFS uses in practice).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Codec {
    /// Raw bytes (0x55).
    Raw,
    /// MerkleDAG protobuf (0x70), the default for files.
    DagPb,
    /// CBOR DAG (0x71).
    DagCbor,
}

impl Codec {
    /// Multicodec numeric code.
    pub fn code(self) -> u64 {
        match self {
            Codec::Raw => 0x55,
            Codec::DagPb => 0x70,
            Codec::DagCbor => 0x71,
        }
    }

    /// Reverse of [`Codec::code`].
    pub fn from_code(code: u64) -> Option<Codec> {
        match code {
            0x55 => Some(Codec::Raw),
            0x70 => Some(Codec::DagPb),
            0x71 => Some(Codec::DagCbor),
            _ => None,
        }
    }
}

/// A sha2-256 multihash (function code 0x12, length 32).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Multihash(pub [u8; 32]);

impl Multihash {
    /// Hash content bytes.
    pub fn digest(data: &[u8]) -> Multihash {
        Multihash(sha256(data))
    }

    /// Binary form: `0x12 0x20 <32 bytes>`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(34);
        v.push(0x12);
        v.push(0x20);
        v.extend_from_slice(&self.0);
        v
    }

    /// Parse the binary form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Multihash, DecodeError> {
        if bytes.len() != 34 || bytes[0] != 0x12 || bytes[1] != 0x20 {
            return Err(DecodeError::InvalidLength);
        }
        let mut d = [0u8; 32];
        d.copy_from_slice(&bytes[2..]);
        Ok(Multihash(d))
    }
}

impl std::fmt::Debug for Multihash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Multihash(")?;
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// CID version.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CidVersion {
    /// Legacy, dag-pb + base58btc only.
    V0,
    /// Self-describing.
    V1,
}

/// A content identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cid {
    /// Which wire format this CID uses.
    pub version: CidVersion,
    /// Content codec (always [`Codec::DagPb`] for v0).
    pub codec: Codec,
    /// The content multihash.
    pub hash: Multihash,
}

impl Cid {
    /// Hash `data` into a CIDv1 with the given codec.
    pub fn new_v1(codec: Codec, data: &[u8]) -> Cid {
        Cid {
            version: CidVersion::V1,
            codec,
            hash: Multihash::digest(data),
        }
    }

    /// Hash `data` into a legacy CIDv0 (dag-pb).
    pub fn new_v0(data: &[u8]) -> Cid {
        Cid {
            version: CidVersion::V0,
            codec: Codec::DagPb,
            hash: Multihash::digest(data),
        }
    }

    /// Deterministic test/bench constructor (raw codec, v1).
    pub fn from_seed(seed: u64) -> Cid {
        Cid::new_v1(Codec::Raw, &seed.to_be_bytes())
    }

    /// The DHT keyspace point for this CID: the SHA-256 of the multihash
    /// bytes, matching go-libp2p's second hashing step for record placement.
    pub fn dht_key(&self) -> Key256 {
        // Inline the 34-byte multihash encoding to keep this allocation-free
        // (computed on every GET_PROVIDERS / ADD_PROVIDER served).
        let mut buf = [0u8; 34];
        buf[0] = 0x12;
        buf[1] = 0x20;
        buf[2..].copy_from_slice(&self.hash.0);
        Key256::hash_of(&buf)
    }

    /// Binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self.version {
            CidVersion::V0 => self.hash.to_bytes(),
            CidVersion::V1 => {
                let mut v = Vec::with_capacity(36);
                varint_encode(1, &mut v);
                varint_encode(self.codec.code(), &mut v);
                v.extend_from_slice(&self.hash.to_bytes());
                v
            }
        }
    }

    /// Parse the binary form (v0 is recognized by the bare-multihash shape).
    pub fn from_bytes(bytes: &[u8]) -> Result<Cid, DecodeError> {
        if bytes.len() == 34 && bytes[0] == 0x12 && bytes[1] == 0x20 {
            return Ok(Cid {
                version: CidVersion::V0,
                codec: Codec::DagPb,
                hash: Multihash::from_bytes(bytes)?,
            });
        }
        let (ver, n1) = varint_decode(bytes)?;
        if ver != 1 {
            return Err(DecodeError::InvalidLength);
        }
        let (code, n2) = varint_decode(&bytes[n1..])?;
        let codec = Codec::from_code(code).ok_or(DecodeError::InvalidLength)?;
        let hash = Multihash::from_bytes(&bytes[n1 + n2..])?;
        Ok(Cid {
            version: CidVersion::V1,
            codec,
            hash,
        })
    }

    /// Canonical text form: base58btc for v0, multibase-`b` base32 for v1.
    pub fn to_string_canonical(&self) -> String {
        match self.version {
            CidVersion::V0 => base58btc_encode(&self.to_bytes()),
            CidVersion::V1 => format!("b{}", base32_encode(&self.to_bytes())),
        }
    }

    /// Parse either text form.
    pub fn parse(s: &str) -> Result<Cid, DecodeError> {
        if let Some(rest) = s.strip_prefix('b') {
            // multibase base32 (v1)
            return Cid::from_bytes(&base32_decode(rest)?);
        }
        if s.starts_with("Qm") {
            return Cid::from_bytes(&base58btc_decode(s)?);
        }
        Err(DecodeError::InvalidLength)
    }
}

impl std::fmt::Debug for Cid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.to_string_canonical();
        write!(f, "Cid({}…)", &s[..10.min(s.len())])
    }
}

impl std::fmt::Display for Cid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_string_canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v0_text_form_is_qm() {
        let cid = Cid::new_v0(b"hello");
        let s = cid.to_string_canonical();
        assert!(s.starts_with("Qm"), "{s}");
        assert_eq!(Cid::parse(&s).unwrap(), cid);
    }

    #[test]
    fn v1_text_form_is_bafy_like() {
        let cid = Cid::new_v1(Codec::DagPb, b"hello");
        let s = cid.to_string_canonical();
        assert!(s.starts_with('b'), "{s}");
        assert_eq!(Cid::parse(&s).unwrap(), cid);
    }

    #[test]
    fn binary_roundtrip_all_codecs() {
        for codec in [Codec::Raw, Codec::DagPb, Codec::DagCbor] {
            let cid = Cid::new_v1(codec, b"data");
            assert_eq!(Cid::from_bytes(&cid.to_bytes()).unwrap(), cid);
        }
        let v0 = Cid::new_v0(b"data");
        assert_eq!(Cid::from_bytes(&v0.to_bytes()).unwrap(), v0);
    }

    #[test]
    fn same_content_same_hash_different_version() {
        let v0 = Cid::new_v0(b"x");
        let v1 = Cid::new_v1(Codec::DagPb, b"x");
        assert_eq!(v0.hash, v1.hash);
        assert_ne!(v0, v1);
        // The DHT key only depends on the multihash.
        assert_eq!(v0.dht_key(), v1.dht_key());
    }

    #[test]
    fn dht_key_is_second_hash() {
        let cid = Cid::new_v0(b"y");
        assert_eq!(cid.dht_key(), Key256::hash_of(&cid.hash.to_bytes()));
        assert_ne!(cid.dht_key().0, cid.hash.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cid::parse("").is_err());
        assert!(Cid::parse("zzz").is_err());
        assert!(Cid::parse("b####").is_err());
    }
}

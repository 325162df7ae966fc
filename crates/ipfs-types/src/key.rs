//! The 256-bit Kademlia keyspace and its XOR metric.
//!
//! Peer IDs and content identifiers are both mapped into this keyspace by
//! hashing; routing distance between two keys is their bitwise XOR interpreted
//! as an unsigned 256-bit integer (Maymounkov & Mazières 2002).

use crate::sha256::sha256;

/// A point in the 256-bit keyspace (big-endian byte order: byte 0 carries the
/// most significant bits, which determine bucket placement).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key256(pub [u8; 32]);

impl Key256 {
    /// The all-zero key.
    pub const ZERO: Key256 = Key256([0u8; 32]);

    /// Hash arbitrary bytes into the keyspace.
    pub fn hash_of(data: &[u8]) -> Key256 {
        Key256(sha256(data))
    }

    /// XOR distance to `other`.
    pub fn distance(&self, other: &Key256) -> Distance {
        let mut d = [0u8; 32];
        for i in 0..32 {
            d[i] = self.0[i] ^ other.0[i];
        }
        Distance(d)
    }

    /// Common prefix length in bits with `other` (0..=256); 256 iff equal.
    pub fn common_prefix_len(&self, other: &Key256) -> u32 {
        self.distance(other).leading_zeros()
    }

    /// Bit `i` (0 = most significant).
    pub fn bit(&self, i: u32) -> bool {
        debug_assert!(i < 256);
        let byte = self.0[(i / 8) as usize];
        (byte >> (7 - (i % 8))) & 1 == 1
    }

    /// Return a copy with bit `i` flipped; used by the crawler to craft
    /// `FindNode` targets landing in specific buckets of a remote peer.
    pub fn with_bit_flipped(&self, i: u32) -> Key256 {
        debug_assert!(i < 256);
        let mut k = *self;
        k.0[(i / 8) as usize] ^= 1 << (7 - (i % 8));
        k
    }

    /// Construct a key from a `u64` seed by hashing (test/bench helper).
    pub fn from_seed(seed: u64) -> Key256 {
        Key256::hash_of(&seed.to_be_bytes())
    }
}

impl std::fmt::Debug for Key256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Key256(")?;
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// An XOR distance in the keyspace. Orderable as a 256-bit unsigned integer.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Distance(pub [u8; 32]);

impl PartialOrd for Distance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Distance {
    /// Big-endian numeric order, compared as four u64 limbs. Equivalent to
    /// the derived lexicographic byte order but resolves in one limb compare
    /// for random keyspace distances — this runs on every routing-table
    /// `closest` scan and lookup-candidate insertion, where the derived
    /// `memcmp` path showed up as a top profile entry.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for i in 0..4 {
            let a = u64::from_be_bytes(self.0[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            let b = u64::from_be_bytes(other.0[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            if a != b {
                return a.cmp(&b);
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl Distance {
    /// The zero distance (a key to itself).
    pub const ZERO: Distance = Distance([0u8; 32]);

    /// Number of leading zero bits (0..=256).
    pub fn leading_zeros(&self) -> u32 {
        let mut n = 0;
        for &b in &self.0 {
            if b == 0 {
                n += 8;
            } else {
                n += b.leading_zeros();
                break;
            }
        }
        n
    }

    /// Kademlia bucket index for this distance: 255 - leading_zeros, i.e. the
    /// position of the highest set bit. `None` for the zero distance.
    pub fn bucket_index(&self) -> Option<u32> {
        let lz = self.leading_zeros();
        if lz == 256 {
            None
        } else {
            Some(255 - lz)
        }
    }
}

impl std::fmt::Debug for Distance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Distance(lz={})", self.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Key256::from_seed(1);
        let b = Key256::from_seed(2);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), Distance::ZERO);
        assert_eq!(a.distance(&a).leading_zeros(), 256);
    }

    #[test]
    fn cpl_and_bit_flip() {
        let a = Key256::from_seed(42);
        for i in [0u32, 1, 7, 8, 100, 255] {
            let flipped = a.with_bit_flipped(i);
            assert_eq!(a.common_prefix_len(&flipped), i);
            assert_eq!(flipped.with_bit_flipped(i), a);
            assert_ne!(a.bit(i), flipped.bit(i));
        }
    }

    #[test]
    fn bucket_index_matches_cpl() {
        let a = Key256::from_seed(7);
        let f = a.with_bit_flipped(10);
        // cpl 10 => highest differing bit is bit 10 => bucket 255-10 = 245.
        assert_eq!(a.distance(&f).bucket_index(), Some(245));
        assert_eq!(a.distance(&a).bucket_index(), None);
    }

    #[test]
    fn ordering_matches_big_endian_integer() {
        let mut small = [0u8; 32];
        small[31] = 1;
        let mut big = [0u8; 32];
        big[0] = 1;
        assert!(Distance(small) < Distance(big));
    }

    #[test]
    fn triangle_inequality_xor() {
        // XOR metric satisfies d(a,c) <= d(a,b) XOR-combined; spot-check the
        // weaker standard triangle inequality numerically on u64 projections.
        let a = Key256::from_seed(1);
        let b = Key256::from_seed(2);
        let c = Key256::from_seed(3);
        let take = |d: Distance| u64::from_be_bytes(d.0[..8].try_into().unwrap());
        assert!(take(a.distance(&c)) <= take(a.distance(&b)).saturating_add(take(b.distance(&c))));
        // The strict XOR relation: d(a,c) = d(a,b) ^ d(b,c) elementwise.
        let mut x = [0u8; 32];
        for i in 0..32 {
            x[i] = a.distance(&b).0[i] ^ b.distance(&c).0[i];
        }
        assert_eq!(Distance(x), a.distance(&c));
    }
}

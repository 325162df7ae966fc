//! Block storage.

use crate::messages::Block;
use ipfs_types::{Cid, FxHashMap as HashMap};

/// In-memory blockstore used by every simulated node. Gateways additionally
/// use it as their HTTP cache (§2 "HTTP Gateways": step 1 is a cache check).
#[derive(Clone, Debug, Default)]
pub struct MemoryBlockstore {
    blocks: HashMap<Cid, Block>,
    bytes: u64,
}

impl MemoryBlockstore {
    /// Empty store.
    pub fn new() -> MemoryBlockstore {
        MemoryBlockstore::default()
    }

    /// Insert a block (idempotent).
    pub fn put(&mut self, block: Block) {
        if self.blocks.insert(block.cid, block).is_none() {
            self.bytes += block.size as u64;
        }
    }

    /// Fetch a block.
    pub fn get(&self, cid: &Cid) -> Option<Block> {
        self.blocks.get(cid).copied()
    }

    /// Whether the block is present.
    pub fn has(&self, cid: &Cid) -> bool {
        self.blocks.contains_key(cid)
    }

    /// Remove a block (cache eviction).
    pub fn remove(&mut self, cid: &Cid) -> Option<Block> {
        let removed = self.blocks.remove(cid);
        if let Some(b) = removed {
            self.bytes -= b.size as u64;
        }
        removed
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total stored payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Iterate stored CIDs, in no particular order: the one caller
    /// (reproviding) sorts what it collects, so nothing observable depends
    /// on the map's hasher.
    pub fn cids(&self) -> impl Iterator<Item = &Cid> {
        self.blocks.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let mut s = MemoryBlockstore::new();
        let b = Block {
            cid: Cid::from_seed(1),
            size: 256,
        };
        s.put(b);
        assert!(s.has(&b.cid));
        assert_eq!(s.get(&b.cid), Some(b));
        assert_eq!(s.total_bytes(), 256);
        // Idempotent put.
        s.put(b);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_bytes(), 256);
        assert_eq!(s.remove(&b.cid), Some(b));
        assert_eq!(s.total_bytes(), 0);
        assert!(s.is_empty());
    }
}

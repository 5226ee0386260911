//! Chunk residency: one byte-budgeted LRU in front of the disk.
//!
//! The cache never owns correctness — the disk tier plus per-read hash
//! verification in [`crate::Store`] does. Its job is to keep hot
//! chunks a memcpy away under a hard byte budget. A chunk evicted from
//! it is simply dropped: the segment files always hold the
//! authoritative, CRC- and hash-checked copy, so the next read of that
//! chunk is a verified disk read.

use std::collections::{BTreeMap, HashMap};

use crate::hash::ChunkId;

struct Entry {
    bytes: Vec<u8>,
    seq: u64,
}

/// Uncompressed chunk bytes, evicted least-recently-used first once
/// their total exceeds the budget.
pub struct ChunkCache {
    cap: usize,
    bytes: usize,
    clock: u64,
    entries: HashMap<ChunkId, Entry>,
    /// seq → id index for O(log n) LRU eviction.
    order: BTreeMap<u64, ChunkId>,
    /// Reads answered from memory.
    pub resident_hits: u64,
}

impl ChunkCache {
    pub fn new(cap: usize) -> ChunkCache {
        ChunkCache {
            cap,
            bytes: 0,
            clock: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            resident_hits: 0,
        }
    }

    /// The chunk's bytes if they are resident, marking it most recent.
    pub fn get(&mut self, id: ChunkId) -> Option<Vec<u8>> {
        let e = self.entries.get_mut(&id)?;
        self.order.remove(&e.seq);
        self.clock += 1;
        e.seq = self.clock;
        self.order.insert(e.seq, id);
        self.resident_hits += 1;
        Some(e.bytes.clone())
    }

    /// Make `bytes` resident under `id`, dropping least-recently-used
    /// chunks until the budget holds. A chunk larger than the whole
    /// budget is never cached.
    pub fn insert(&mut self, id: ChunkId, bytes: Vec<u8>) {
        self.remove(&id);
        if bytes.len() > self.cap {
            return;
        }
        self.clock += 1;
        self.bytes += bytes.len();
        self.order.insert(self.clock, id);
        self.entries.insert(
            id,
            Entry {
                bytes,
                seq: self.clock,
            },
        );
        while self.bytes > self.cap {
            let Some((_, oldest)) = self.order.pop_first() else {
                break;
            };
            if let Some(e) = self.entries.remove(&oldest) {
                self.bytes -= e.bytes.len();
            }
        }
    }

    fn remove(&mut self, id: &ChunkId) {
        if let Some(e) = self.entries.remove(id) {
            self.order.remove(&e.seq);
            self.bytes -= e.bytes.len();
        }
    }

    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::content_hash;

    fn chunk(fill: u8, len: usize) -> (ChunkId, Vec<u8>) {
        let bytes = vec![fill; len];
        (content_hash(&bytes), bytes)
    }

    #[test]
    fn resident_hit_returns_exact_bytes() {
        let mut c = ChunkCache::new(1024);
        let (id, bytes) = chunk(7, 100);
        c.insert(id, bytes.clone());
        assert_eq!(c.get(id), Some(bytes));
        assert_eq!(c.resident_hits, 1);
    }

    #[test]
    fn eviction_drops_least_recent_first_and_holds_the_budget() {
        // Budget fits two 500-byte chunks; a third evicts the oldest.
        let mut c = ChunkCache::new(1100);
        let (id_a, a) = chunk(1, 500);
        let (id_b, b) = chunk(2, 500);
        let (id_c, cc) = chunk(3, 500);
        c.insert(id_a, a.clone());
        c.insert(id_b, b.clone());
        c.insert(id_c, cc.clone());
        assert!(c.resident_bytes() <= 1100);
        assert_eq!(c.get(id_a), None, "evicted chunk is dropped");
        assert_eq!(c.get(id_b), Some(b));
        assert_eq!(c.get(id_c), Some(cc));
        // Reinserting a evicts b, the least recent after the two reads.
        c.insert(id_a, a.clone());
        assert_eq!(c.resident_bytes(), 1000);
        assert_eq!(c.get(id_b), None);
        assert_eq!(c.get(id_a), Some(a));
        assert_eq!(c.resident_hits, 3, "misses are not hits");
        // Under churn the budget is never exceeded.
        for i in 0..200u32 {
            let bytes: Vec<u8> = (0..700).map(|j| (i.wrapping_add(j) % 251) as u8).collect();
            c.insert(content_hash(&bytes), bytes);
            assert!(c.resident_bytes() <= 1100);
        }
    }

    #[test]
    fn lru_order_follows_access_not_insertion() {
        let mut c = ChunkCache::new(1100);
        let (id_a, a) = chunk(1, 500);
        let (id_b, b) = chunk(2, 500);
        c.insert(id_a, a.clone());
        c.insert(id_b, b);
        assert!(c.get(id_a).is_some()); // a is now most recent
        let (id_c, cc) = chunk(3, 500);
        c.insert(id_c, cc);
        // b was least recent: it is gone.
        assert_eq!(c.get(id_b), None);
        assert_eq!(c.get(id_a), Some(a));
    }

    #[test]
    fn chunk_over_the_budget_is_a_clean_miss() {
        let mut c = ChunkCache::new(100);
        let (id, bytes) = chunk(9, 400);
        c.insert(id, bytes);
        assert_eq!(c.get(id), None, "chunk over the budget is a miss");
        assert_eq!(c.resident_bytes(), 0);
    }
}

//! The crash-consistent shard manifest.
//!
//! A manifest *record* is an immutable, checksummed snapshot of the shard
//! map: which pool slot and superblock each shard lives at, how keys are
//! partitioned, and an epoch number. `ShardedStore::create` writes epoch
//! 0; records from versions of this crate that rebalanced shards carry
//! higher epochs, and `ShardedStore::open` accepts any. The
//! record is written to freshly allocated pool space and fully persisted
//! *before* it becomes reachable; the only commit point is the
//! [`pmem::CommitCell::MANIFEST`] publish that flips the pool's manifest
//! pointer onto it. A crash at any instant therefore
//! exposes the previous record or the new one — never a mixture — which is
//! exactly the property *Persistent Memory Transactions* (Marathe et al.)
//! obtains with a log, re-derived here FAST+FAIR-style without one.
//!
//! Record layout (all fields 8-byte words, little-endian):
//!
//! ```text
//! +0   magic   "SHARDMAP"
//! +8   epoch
//! +16  partitioning kind (0 = hash, 1 = range)
//! +24  number of shards N
//! +32  FNV-1a checksum over epoch, kind, N and all entries
//! +40  N entries of 3 words each: pool slot, superblock offset,
//!      exclusive upper key bound (u64::MAX for the last range shard,
//!      0 / unused under hash partitioning)
//! ```

use pmem::{CommitCell, PmOffset, Pool, NULL_OFFSET};
use pmindex::IndexError;

pub(crate) const KIND_HASH: u64 = 0;
pub(crate) const KIND_RANGE: u64 = 1;

const MAGIC: u64 = u64::from_le_bytes(*b"SHARDMAP");
const HEADER_WORDS: u64 = 5;
const ENTRY_WORDS: u64 = 3;

/// One shard's row in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// Caller-assigned pool slot the shard's index lives in.
    pub slot: u64,
    /// Superblock offset of the shard's index inside that pool.
    pub meta: PmOffset,
    /// Exclusive upper key bound (range partitioning only).
    pub bound: u64,
}

/// A decoded manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Record {
    pub epoch: u64,
    pub kind: u64,
    pub entries: Vec<Entry>,
}

impl Record {
    fn checksum(&self) -> u64 {
        let mut words = vec![self.epoch, self.kind, self.entries.len() as u64];
        words.extend(self.entries.iter().flat_map(|e| [e.slot, e.meta, e.bound]));
        pmem::fnv1a(&words)
    }

    /// Saturates, so a corrupt count word yields a length no pool holds.
    fn byte_len(n_entries: u64) -> u64 {
        n_entries
            .saturating_mul(ENTRY_WORDS * 8)
            .saturating_add(HEADER_WORDS * 8)
    }
}

/// Writes `rec` to fresh pool space, persists it, and flips the pool's
/// manifest pointer onto it — the single failure-atomic commit point. The
/// previous record, now unreachable, is returned to the free list.
pub(crate) fn commit(pool: &Pool, rec: &Record) -> Result<(), IndexError> {
    let n = rec.entries.len() as u64;
    let len = Record::byte_len(n);
    let off = pool.alloc(len, 8)?;
    pool.store_u64(off, MAGIC);
    pool.store_u64(off + 8, rec.epoch);
    pool.store_u64(off + 16, rec.kind);
    pool.store_u64(off + 24, n);
    pool.store_u64(off + 32, rec.checksum());
    for (i, e) in rec.entries.iter().enumerate() {
        let base = off + (HEADER_WORDS + ENTRY_WORDS * i as u64) * 8;
        pool.store_u64(base, e.slot);
        pool.store_u64(base + 8, e.meta);
        pool.store_u64(base + 16, e.bound);
    }
    // Make the whole record durable before anything can point at it.
    pool.persist(off, len);
    let old = CommitCell::MANIFEST.load(pool);
    // THE commit point: one failure-atomic 8-byte store + persist.
    CommitCell::MANIFEST.publish(pool, off);
    if old != NULL_OFFSET {
        let old_n = pool.load_u64(old + 24);
        pool.free(old, Record::byte_len(old_n));
    }
    Ok(())
}

/// Reads and validates the record the pool's manifest pointer names.
pub(crate) fn read(pool: &Pool) -> Result<Record, IndexError> {
    let off = CommitCell::MANIFEST
        .target(pool, Record::byte_len(0))?
        .ok_or_else(|| IndexError::Unsupported("pool holds no shard manifest".into()))?;
    if pool.load_u64(off) != MAGIC {
        return Err(IndexError::Unsupported(format!(
            "no manifest record at offset {off:#x}"
        )));
    }
    let epoch = pool.load_u64(off + 8);
    let kind = pool.load_u64(off + 16);
    let n = pool.load_u64(off + 24);
    // The count sizes the read below: the pool must hold that many entries.
    CommitCell::MANIFEST.target(pool, Record::byte_len(n))?;
    let stored_sum = pool.load_u64(off + 32);
    let entries = (0..n)
        .map(|i| {
            let base = off + (HEADER_WORDS + ENTRY_WORDS * i) * 8;
            Entry {
                slot: pool.load_u64(base),
                meta: pool.load_u64(base + 8),
                bound: pool.load_u64(base + 16),
            }
        })
        .collect();
    let rec = Record {
        epoch,
        kind,
        entries,
    };
    if rec.checksum() != stored_sum {
        return Err(IndexError::Unsupported(format!(
            "manifest record at {off:#x} fails its checksum"
        )));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;

    fn rec(epoch: u64) -> Record {
        Record {
            epoch,
            kind: KIND_RANGE,
            entries: vec![
                Entry {
                    slot: 0,
                    meta: 64,
                    bound: 1000,
                },
                Entry {
                    slot: 1,
                    meta: 128,
                    bound: u64::MAX,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let pool = Pool::new(PoolConfig::new().size(1 << 16)).unwrap();
        commit(&pool, &rec(7)).unwrap();
        assert_eq!(read(&pool).unwrap(), rec(7));
    }

    #[test]
    fn recommit_replaces_and_recycles() {
        let pool = Pool::new(PoolConfig::new().size(1 << 16)).unwrap();
        commit(&pool, &rec(1)).unwrap();
        let first = CommitCell::MANIFEST.load(&pool);
        commit(&pool, &rec(2)).unwrap();
        assert_eq!(read(&pool).unwrap().epoch, 2);
        // The old record's block went back to the free list and is reused
        // by the next same-size allocation.
        let reused = pool.alloc(Record::byte_len(2), 8).unwrap();
        assert_eq!(reused, first);
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let pool = Pool::new(PoolConfig::new().size(1 << 16)).unwrap();
        assert!(matches!(read(&pool), Err(IndexError::Unsupported(_))));
    }

    #[test]
    fn corrupt_checksum_detected() {
        let pool = Pool::new(PoolConfig::new().size(1 << 16)).unwrap();
        commit(&pool, &rec(3)).unwrap();
        let off = CommitCell::MANIFEST.load(&pool);
        pool.store_u64(off + 8, 99); // tamper with the epoch
        assert!(matches!(read(&pool), Err(IndexError::Unsupported(_))));
    }
}

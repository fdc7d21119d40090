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
//! The record is a [`CommitCell::MANIFEST`] record (`[magic, len,
//! checksum, payload…]`, see [`CommitCell::publish_record`]) whose
//! payload is, in 8-byte words:
//!
//! ```text
//! 0    epoch
//! 1    partitioning kind (0 = hash, 1 = range)
//! 2..  one entry of 3 words per shard: pool slot, superblock offset,
//!      exclusive upper key bound (u64::MAX for the last range shard,
//!      0 / unused under hash partitioning)
//! ```

use pmem::{CommitCell, PmOffset, Pool};
use pmindex::IndexError;

pub(crate) const KIND_HASH: u64 = 0;
pub(crate) const KIND_RANGE: u64 = 1;

/// `"SHARDREC"`; records of the hand-written layout before the codec
/// began `"SHARDMAP"` and are refused.
const MAGIC: u64 = u64::from_le_bytes(*b"SHARDREC");

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

/// Writes `rec` to fresh pool space, persists it, and flips the pool's
/// manifest pointer onto it — the single failure-atomic commit point. The
/// previous record, now unreachable, is returned to the free list.
pub(crate) fn commit(pool: &Pool, rec: &Record) -> Result<(), IndexError> {
    let mut words = vec![rec.epoch, rec.kind];
    words.extend(rec.entries.iter().flat_map(|e| [e.slot, e.meta, e.bound]));
    Ok(CommitCell::MANIFEST.publish_record(pool, MAGIC, &words)?)
}

/// Reads and validates the record the pool's manifest pointer names.
pub(crate) fn read(pool: &Pool) -> Result<Record, IndexError> {
    let words = CommitCell::MANIFEST
        .record(pool, MAGIC)?
        .ok_or_else(|| IndexError::Unsupported("pool holds no shard manifest".into()))?;
    let (epoch, kind, rows) = match words.as_slice() {
        [epoch, kind, rows @ ..] if rows.len().is_multiple_of(3) => (*epoch, *kind, rows),
        _ => {
            return Err(IndexError::Unsupported(
                "manifest record is truncated".into(),
            ))
        }
    };
    let entries: Vec<Entry> = rows
        .chunks_exact(3)
        .map(|e| Entry {
            slot: e[0],
            meta: e[1],
            bound: e[2],
        })
        .collect();
    // What `ShardedStore::open` builds from the record must be a map
    // `ShardedStore::create` could have written: at least one shard, a
    // known kind, and ascending split points (every bound but the last).
    let Some((_, splits)) = entries.split_last() else {
        return Err(IndexError::Unsupported(
            "manifest record names no shard".into(),
        ));
    };
    match kind {
        KIND_HASH => {}
        KIND_RANGE if splits.windows(2).all(|w| w[0].bound <= w[1].bound) => {}
        KIND_RANGE => {
            return Err(IndexError::Unsupported(
                "manifest record has descending range bounds".into(),
            ))
        }
        _ => {
            return Err(IndexError::Unsupported(format!(
                "manifest record has unknown partitioning kind {kind}"
            )))
        }
    }
    Ok(Record {
        epoch,
        kind,
        entries,
    })
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
        let reused = pool.alloc(8 * 11, 8).unwrap();
        assert_eq!(reused, first);
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let pool = Pool::new(PoolConfig::new().size(1 << 16)).unwrap();
        assert!(matches!(read(&pool), Err(IndexError::Unsupported(_))));

        // The hand-written layout before the codec: magic, epoch, kind,
        // count, checksum.
        let off = pool.alloc(40, 8).unwrap();
        pool.store_u64(off, u64::from_le_bytes(*b"SHARDMAP"));
        pool.persist(off, 40);
        CommitCell::MANIFEST.publish(&pool, off);
        assert!(matches!(read(&pool), Err(IndexError::Unsupported(_))));
    }

    #[test]
    fn corrupt_checksum_detected() {
        let pool = Pool::new(PoolConfig::new().size(1 << 16)).unwrap();
        commit(&pool, &rec(3)).unwrap();
        let off = CommitCell::MANIFEST.load(&pool);
        pool.store_u64(off + 24, 99); // tamper with the epoch
        assert!(matches!(read(&pool), Err(IndexError::Unsupported(_))));
    }
}

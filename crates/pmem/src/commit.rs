//! [`CommitCell`], the one commit primitive, and [`fnv1a`], the checksum
//! of the records cells publish.

use crate::pool::{PmError, PmOffset, Pool, NULL_OFFSET};

/// A named, persisted 8-byte commit word.
///
/// Every multi-word update commits the way FAIR commits a split (§4):
/// persist the payload where nothing points at it yet, then
/// [`publish`](CommitCell::publish) it with one failure-atomic 8-byte
/// store, flushed and fenced. A crash exposes the old value or the new
/// one, never a mixture. The pool header holds three cells; tree roots,
/// the journal's sequence words, the catalog's rename-intent slot and the
/// replica watermark are cells at other offsets.
///
/// ```
/// use pmem::{CommitCell, Pool, PoolConfig};
///
/// let pool = Pool::new(PoolConfig::default().size(1 << 20))?;
/// let rec = pool.alloc(64, 64)?;
/// pool.store_u64(rec, 42);
/// pool.persist(rec, 8); // the payload is durable first …
/// CommitCell::MANIFEST.publish(&pool, rec); // … then one store publishes it
/// assert_eq!(CommitCell::MANIFEST.target(&pool, 64), Ok(Some(rec)));
/// assert_eq!(CommitCell::CATALOG.target(&pool, 64), Ok(None)); // never published
/// # Ok::<(), pmem::PmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitCell(PmOffset);

impl CommitCell {
    /// Pool-header word 24: the shard manifest record.
    pub const MANIFEST: CommitCell = CommitCell(24);
    /// Pool-header word 32: the transaction journal region.
    pub const JOURNAL: CommitCell = CommitCell(32);
    /// Pool-header word 40: the catalog superblock.
    pub const CATALOG: CommitCell = CommitCell(40);

    /// The cell at pool offset `off` (8-byte aligned).
    #[inline]
    pub const fn at(off: PmOffset) -> CommitCell {
        CommitCell(off)
    }

    /// The word's pool offset.
    #[inline]
    pub fn offset(self) -> PmOffset {
        self.0
    }

    /// The word's current value.
    #[inline]
    pub fn load(self, pool: &Pool) -> u64 {
        pool.load_u64(self.0)
    }

    /// One failure-atomic store of `v`, then one flush and one fence.
    #[inline]
    pub fn publish(self, pool: &Pool, v: u64) {
        pool.store_u64(self.0, v);
        pool.persist(self.0, 8);
    }

    /// The offset the cell names: `Ok(None)` when null, `Ok(Some(off))`
    /// when `off` is 8-byte aligned and `[off, off + len)` fits `pool`, else
    /// [`PmError::BadTarget`]. A length word read from the record is
    /// checked by asking again with the length it implies.
    pub fn target(self, pool: &Pool, len: u64) -> Result<Option<PmOffset>, PmError> {
        let off = self.load(pool);
        if off == NULL_OFFSET {
            Ok(None)
        } else if off.is_multiple_of(8) && off.checked_add(len).is_some_and(|e| e <= pool.size()) {
            Ok(Some(off))
        } else {
            Err(PmError::BadTarget {
                cell: self.0,
                target: off,
                len,
            })
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`.
///
/// ```
/// assert_ne!(pmem::fnv1a(&[1, 2]), pmem::fnv1a(&[2, 1]));
/// ```
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

//! [`CommitCell`], the one commit primitive, its record codec, and
//! [`fnv1a`], the codec's checksum.

use crate::pool::{PmError, PmOffset, Pool, CACHE_LINE, NULL_OFFSET};

/// Longest record payload, in words: a corrupt length word cannot size a
/// larger read.
const MAX_RECORD_WORDS: u64 = 1 << 16;

/// A named, persisted 8-byte commit word.
///
/// Every multi-word update commits the way FAIR commits a split (§4):
/// persist the payload where nothing points at it yet, then
/// [`publish`](CommitCell::publish) it with one failure-atomic 8-byte
/// store, flushed and fenced. A crash exposes the old value or the new
/// one, never a mixture. The pool header holds three cells; tree roots
/// and the journal's sequence words are cells at other offsets.
///
/// A cell can also own a whole **record**:
/// [`publish_record`](CommitCell::publish_record) persists
/// `[magic, len, fnv1a(payload), payload…]` in fresh space, publishes it
/// and frees the record it replaces; [`record`](CommitCell::record) reads
/// it back checked. The shard manifest and the catalog are such records.
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
///
/// CommitCell::CATALOG.publish_record(&pool, 7, &[1, 2, 3])?; // the codec does the same
/// assert_eq!(CommitCell::CATALOG.record(&pool, 7)?, Some(vec![1, 2, 3]));
/// assert!(CommitCell::CATALOG.record(&pool, 8).is_err()); // wrong magic
/// # Ok::<(), pmem::PmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitCell(PmOffset);

impl CommitCell {
    /// Pool-header word 24: the shard manifest record.
    pub const MANIFEST: CommitCell = CommitCell(24);
    /// Pool-header word 32: the transaction journal region.
    pub const JOURNAL: CommitCell = CommitCell(32);
    /// Pool-header word 40: the catalog record.
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

    /// Writes `[magic, words.len(), fnv1a(words), words…]` to fresh pool
    /// space, persists it, publishes it with one store, then frees the
    /// record the cell named before (one that fails its checks leaks).
    ///
    /// # Errors
    ///
    /// [`PmError::BadRecord`] for a payload over the reader's length cap;
    /// pool exhaustion. The cell is unchanged on error.
    pub fn publish_record(self, pool: &Pool, magic: u64, words: &[u64]) -> Result<(), PmError> {
        let len = words.len() as u64;
        if len > MAX_RECORD_WORDS {
            return Err(self.bad("payload is over the length cap"));
        }
        let off = pool.alloc(record_bytes(len), 8)?;
        for (i, w) in [magic, len, fnv1a(words)].iter().chain(words).enumerate() {
            pool.store_u64(off + 8 * i as u64, *w);
        }
        // The whole record is durable before anything points at it.
        pool.persist(off, record_bytes(len));
        let old = self.span(pool, magic).ok().flatten();
        self.publish(pool, off);
        if let Some((old, old_len)) = old {
            pool.free(old, record_bytes(old_len));
        }
        Ok(())
    }

    /// The payload of the record the cell names, `Ok(None)` when the cell
    /// is null. Charges one serial miss for the record's first line and
    /// parallel lines for the rest.
    ///
    /// # Errors
    ///
    /// [`PmError::BadTarget`] when the record does not fit the pool,
    /// [`PmError::BadRecord`] when its magic is not `magic`, its length is
    /// over the cap or its checksum fails.
    pub fn record(self, pool: &Pool, magic: u64) -> Result<Option<Vec<u64>>, PmError> {
        let Some((off, len)) = self.span(pool, magic)? else {
            return Ok(None);
        };
        let line = CACHE_LINE as u64;
        pool.charge_serial_reads(1);
        pool.charge_parallel_lines(((off + record_bytes(len) - 1) / line - off / line) as u32);
        let words: Vec<u64> = (3..3 + len).map(|i| pool.load_u64(off + 8 * i)).collect();
        if pool.load_u64(off + 16) != fnv1a(&words) {
            return Err(self.bad("record fails its checksum"));
        }
        Ok(Some(words))
    }

    /// The named record's offset and payload length, once its header
    /// fits, its magic matches and its length fits the cap and the pool.
    fn span(self, pool: &Pool, magic: u64) -> Result<Option<(PmOffset, u64)>, PmError> {
        let Some(off) = self.target(pool, record_bytes(0))? else {
            return Ok(None);
        };
        let len = pool.load_u64(off + 8);
        if pool.load_u64(off) != magic {
            return Err(self.bad("record magic mismatch"));
        } else if len > MAX_RECORD_WORDS {
            return Err(self.bad("record length is over the cap"));
        }
        self.target(pool, record_bytes(len))?;
        Ok(Some((off, len)))
    }

    fn bad(self, why: &'static str) -> PmError {
        PmError::BadRecord { cell: self.0, why }
    }
}

/// Bytes of a record with `len` payload words behind its three header
/// words: magic, payload length, checksum.
fn record_bytes(len: u64) -> u64 {
    8 * (3 + len)
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

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
/// one, never a mixture. The pool header holds two cells; tree roots
/// and the journal's sequence words are cells at other offsets.
///
/// A cell can also own a whole **record**:
/// [`publish_record`](CommitCell::publish_record) persists
/// `[magic, len, fnv1a(payload), payload…]` in fresh space, publishes it
/// and frees the record it replaces; [`record`](CommitCell::record) reads
/// it back checked. The catalog is such a record.
///
/// ```
/// use pmem::{CommitCell, Pool, PoolConfig};
///
/// let pool = Pool::new(PoolConfig::default().size(1 << 20))?;
/// let rec = pool.alloc(64, 64)?;
/// pool.store_u64(rec, 42);
/// pool.persist(rec, 8); // the payload is durable first …
/// CommitCell::JOURNAL.publish(&pool, rec); // … then one store publishes it
/// assert_eq!(CommitCell::JOURNAL.target(&pool, 64), Ok(Some(rec)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::stats;

    const MAGIC: u64 = u64::from_le_bytes(*b"TESTREC\0");

    fn pool() -> Pool {
        Pool::new(PoolConfig::default().size(1 << 20)).unwrap()
    }

    fn is_bad_record(r: Result<Option<Vec<u64>>, PmError>, why: &str) -> bool {
        matches!(r, Err(PmError::BadRecord { why: w, .. }) if w.contains(why))
    }

    #[test]
    fn an_empty_payload_roundtrips_and_a_null_cell_reads_none() {
        let pool = pool();
        assert_eq!(CommitCell::JOURNAL.record(&pool, MAGIC), Ok(None));
        CommitCell::JOURNAL
            .publish_record(&pool, MAGIC, &[])
            .unwrap();
        assert_eq!(CommitCell::JOURNAL.record(&pool, MAGIC), Ok(Some(vec![])));
        // Another cell of the same pool is untouched.
        assert_eq!(CommitCell::CATALOG.record(&pool, MAGIC), Ok(None));
    }

    #[test]
    fn a_payload_over_the_cap_is_refused_and_the_cell_kept() {
        let pool = pool();
        CommitCell::CATALOG
            .publish_record(&pool, MAGIC, &[7])
            .unwrap();
        let before = CommitCell::CATALOG.load(&pool);
        let high = pool.high_water();
        let big = vec![1u64; MAX_RECORD_WORDS as usize + 1];
        let err = CommitCell::CATALOG.publish_record(&pool, MAGIC, &big);
        assert!(matches!(err, Err(PmError::BadRecord { .. })), "{err:?}");
        assert_eq!(CommitCell::CATALOG.load(&pool), before);
        assert_eq!(pool.high_water(), high, "a refused payload allocated");
        assert_eq!(CommitCell::CATALOG.record(&pool, MAGIC), Ok(Some(vec![7])));
    }

    #[test]
    fn republishing_recycles_the_superseded_record() {
        let pool = pool();
        let cell = CommitCell::CATALOG;
        cell.publish_record(&pool, MAGIC, &[1, 2]).unwrap();
        let first = cell.load(&pool);
        cell.publish_record(&pool, MAGIC, &[3, 4]).unwrap();
        let second = cell.load(&pool);
        assert_ne!(first, second, "a record is never rewritten in place");
        cell.publish_record(&pool, MAGIC, &[5, 6]).unwrap();
        assert_eq!(cell.load(&pool), first, "the freed record is reused");
        let high = pool.high_water();
        for i in 0..1000 {
            cell.publish_record(&pool, MAGIC, &[i + 1, i + 2]).unwrap();
        }
        assert_eq!(pool.high_water(), high);
        assert_eq!(cell.record(&pool, MAGIC), Ok(Some(vec![1000, 1001])));
    }

    #[test]
    fn a_corrupt_predecessor_leaks_instead_of_blocking_a_publish() {
        let pool = pool();
        let cell = CommitCell::JOURNAL;
        cell.publish_record(&pool, MAGIC, &[1]).unwrap();
        let old = cell.load(&pool);
        pool.store_u64(old, MAGIC ^ 1);
        assert!(is_bad_record(cell.record(&pool, MAGIC), "magic"));
        let _ = stats::take();
        cell.publish_record(&pool, MAGIC, &[2]).unwrap();
        assert_eq!(stats::take().nodes_recycled, 0, "freed an unchecked block");
        assert_eq!(cell.record(&pool, MAGIC), Ok(Some(vec![2])));
    }

    #[test]
    fn a_corrupt_length_word_is_refused() {
        // Small enough that a length past its end is under the cap.
        let pool = Pool::new(PoolConfig::default().size(256 << 10)).unwrap();
        let cell = CommitCell::CATALOG;
        cell.publish_record(&pool, MAGIC, &[1, 2, 3]).unwrap();
        let off = cell.load(&pool);
        // Over the cap.
        pool.store_u64(off + 8, MAX_RECORD_WORDS + 1);
        assert!(is_bad_record(cell.record(&pool, MAGIC), "over the cap"));
        // Under the cap, but past the end of the pool.
        let past = (pool.size() - off) / 8;
        pool.store_u64(off + 8, past);
        let err = cell.record(&pool, MAGIC);
        assert!(matches!(err, Err(PmError::BadTarget { .. })), "{err:?}");
        // Shorter than written: the checksum no longer matches.
        pool.store_u64(off + 8, 2);
        assert!(is_bad_record(cell.record(&pool, MAGIC), "checksum"));
    }

    #[test]
    fn every_flipped_payload_bit_fails_the_checksum() {
        let pool = pool();
        let cell = CommitCell::JOURNAL;
        let words = [0, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        cell.publish_record(&pool, MAGIC, &words).unwrap();
        let off = cell.load(&pool);
        for (i, &w) in words.iter().enumerate() {
            let at = off + 8 * (3 + i as u64);
            for bit in 0..64 {
                pool.store_u64(at, w ^ (1 << bit));
                assert!(
                    is_bad_record(cell.record(&pool, MAGIC), "checksum"),
                    "word {i} bit {bit}"
                );
            }
            pool.store_u64(at, w);
        }
        assert_eq!(cell.record(&pool, MAGIC), Ok(Some(words.to_vec())));
    }

    #[test]
    fn target_refuses_unaligned_and_wrapping_offsets() {
        let pool = pool();
        let cell = CommitCell::JOURNAL;
        for bad in [12, pool.size() - 8, u64::MAX - 7] {
            cell.publish(&pool, bad);
            let err = cell.target(&pool, 16);
            assert_eq!(
                err,
                Err(PmError::BadTarget {
                    cell: cell.offset(),
                    target: bad,
                    len: 16,
                })
            );
        }
        // The last 16 bytes of the pool are a valid target.
        cell.publish(&pool, pool.size() - 16);
        assert_eq!(cell.target(&pool, 16), Ok(Some(pool.size() - 16)));
    }

    #[test]
    fn fnv1a_is_the_offset_basis_on_nothing_and_sees_length() {
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        // Zero words still change the hash, so a payload cut short by a
        // zero word does not keep its checksum.
        assert_ne!(fnv1a(&[0]), fnv1a(&[]));
        assert_ne!(fnv1a(&[0, 0]), fnv1a(&[0]));
        assert_ne!(fnv1a(&[1 << 8]), fnv1a(&[1]));
    }

    #[test]
    fn record_charges_one_serial_miss_and_a_parallel_line_per_further_line() {
        let pool = pool();
        let cell = CommitCell::CATALOG;
        for len in [0u64, 5, 20, 100] {
            let words: Vec<u64> = (1..=len).collect();
            cell.publish_record(&pool, MAGIC, &words).unwrap();
            let off = cell.load(&pool);
            let line = CACHE_LINE as u64;
            let lines = (off + record_bytes(len) - 1) / line - off / line + 1;
            let _ = stats::take();
            cell.record(&pool, MAGIC).unwrap();
            let s = stats::take();
            assert_eq!(
                (s.serial_misses, s.parallel_lines),
                (1, lines - 1),
                "len {len}"
            );
        }
    }
}

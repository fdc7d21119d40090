//! # Variable-length byte-slice keys over any `u64`-keyed index
//!
//! The paper fixes keys at 8 bytes so every FAST shift stays one
//! failure-atomic store; a production index must also serve string keys
//! (TPC-C keys customers by last name). This crate closes that gap
//! *without touching any of the six index implementations*: a
//! [`VarKeyStore`] adapts arbitrary `&[u8]` keys onto an inner
//! [`PmIndex`] through the order-preserving [`codec`] — big-endian 7-byte
//! chunks with a continuation/length discriminant, so encoded `u64` order
//! equals lexicographic byte order.
//!
//! * Keys of at most [`codec::MAX_INLINE`] bytes live *inline*: the whole
//!   key is the `u64` index key and the caller's value is the index
//!   value. Every operation is exactly one operation on the inner index.
//! * Longer keys share their first chunk as the index key and move their
//!   bytes to **overflow records** allocated from a [`pmem::Pool`].
//!   Records with the same first chunk form a linked chain sorted by key;
//!   every chain mutation is committed by a *single failure-atomic 8-byte
//!   store* (a `next`-pointer or value-slot flip, or an inner-index
//!   update), so a crash exposes the old chain or the new one — never a
//!   torn mixture. `crates/varkey/tests/crash_overflow.rs` sweeps every
//!   crash point to prove it.
//!
//! Because the adapter implements [`VarKeyIndex`] — a byte-keyed mirror
//! of `PmIndex` with upsert returns, a streaming [`ByteCursor`] and
//! sorted [`VarKeyIndex::bulk_load`] — and because the inner index is
//! *any* `PmIndex`, it composes transparently with `shard::ShardedStore`:
//! range-partition the inner router by [`codec::prefix_bound`] split
//! points and the byte keyspace is partitioned at those prefixes.
//!
//! ```
//! use std::sync::Arc;
//! use varkey::{VarKeyIndex, VarKeyStore};
//!
//! let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
//! let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
//! let store = VarKeyStore::new(tree, pool);
//!
//! store.insert(b"customer:0001:BARBARBAR", 41)?; // overflow chain
//! store.insert(b"kv", 42)?;                      // inline
//! assert_eq!(store.get(b"customer:0001:BARBARBAR"), Some(41));
//!
//! let mut cur = store.cursor();
//! cur.seek(b"customer:");
//! assert_eq!(cur.next(), Some((b"customer:0001:BARBARBAR".to_vec(), 41)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod codec;

use std::sync::Arc;

use parking_lot::RwLock;
use pmem::{PmOffset, Pool, NULL_OFFSET};
use pmindex::{check_value, Cursor, IndexError, PmIndex, Value};

/// Overflow record layout (8-byte aligned, sizes in bytes):
/// `[0..8)` next-record offset (0 = end of chain), `[8..16)` value,
/// `[16..24)` key length in the low 56 bits with a 1-byte **suffix
/// fingerprint** in the top byte, `[24..)` key bytes zero-padded to 8.
const REC_NEXT: u64 = 0;
const REC_VALUE: u64 = 8;
const REC_LEN: u64 = 16;
const REC_KEY: u64 = 24;

/// Low 56 bits of the `REC_LEN` word hold the key length; the top byte
/// holds the suffix fingerprint (chain members share their first chunk,
/// so only the suffix can distinguish them).
const LEN_MASK: u64 = (1 << 56) - 1;
const FP_SHIFT: u32 = 56;

fn record_size(key_len: usize) -> u64 {
    REC_KEY + (key_len as u64).div_ceil(8) * 8
}

/// 1-byte hash of the key bytes *after* the shared first chunk. All
/// records in one chain agree on their first [`codec::MAX_INLINE`]
/// bytes, so an exact-match chain walk can reject a record with one
/// header byte — a mismatching fingerprint proves inequality without
/// touching any key word.
fn suffix_fp(key: &[u8]) -> u8 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
    for &b in &key[key.len().min(codec::MAX_INLINE)..] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h >> 56) as u8 ^ (h >> 32) as u8
}

/// A streaming, resettable scan over a byte-keyed index — the
/// [`pmindex::Cursor`] contract transplanted to `&[u8]` keys.
///
/// Created by [`VarKeyIndex::cursor`] positioned before the smallest key;
/// [`ByteCursor::next`] yields `(key, value)` pairs in strictly ascending
/// lexicographic order, and [`ByteCursor::seek`] repositions so the next
/// entry is the first with `key >= target`. The concurrency guarantee is
/// inherited from the inner index's cursor: committed-before keys are
/// observed exactly once, in-flight writes may or may not be.
pub trait ByteCursor {
    /// Repositions the cursor: the next call to [`ByteCursor::next`]
    /// returns the first entry with `key >= target` (lexicographically).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"ant", 1)?;
    /// store.insert(b"bee", 2)?;
    /// let mut cur = store.cursor();
    /// cur.seek(b"b");
    /// assert_eq!(cur.next(), Some((b"bee".to_vec(), 2)));
    /// cur.seek(b""); // seeking backwards reuses the cursor
    /// assert_eq!(cur.next(), Some((b"ant".to_vec(), 1)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn seek(&mut self, target: &[u8]);

    /// Returns the next entry in ascending key order, or `None` when the
    /// index is exhausted.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"longer-than-seven-bytes", 7)?;
    /// let mut cur = store.cursor();
    /// assert_eq!(cur.next(), Some((b"longer-than-seven-bytes".to_vec(), 7)));
    /// assert_eq!(cur.next(), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn next(&mut self) -> Option<(Vec<u8>, Value)>;

    /// Repositions the cursor for **descending** iteration: the next call
    /// to [`ByteCursor::prev`] returns the last entry with
    /// `key <= target` (lexicographically) — the byte-keyed mirror of
    /// `pmindex::Cursor::seek_for_prev`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"ant", 1)?;
    /// store.insert(b"bee", 2)?;
    /// let mut cur = store.cursor();
    /// cur.seek_for_prev(b"b"); // between keys: lands on the previous one
    /// assert_eq!(cur.prev(), Some((b"ant".to_vec(), 1)));
    /// cur.seek_for_prev(b"bee"); // exact hit is included
    /// assert_eq!(cur.prev(), Some((b"bee".to_vec(), 2)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn seek_for_prev(&mut self, target: &[u8]);

    /// Returns the next entry in **descending** key order, or `None` when
    /// the scan has moved below the smallest key.
    ///
    /// Must be preceded by [`ByteCursor::seek_for_prev`] — except that a
    /// bare `prev()` on a fresh cursor starts from the largest key
    /// (byte strings have no maximum, so there is no seek target for
    /// "the end"). Interleaving with [`ByteCursor::next`] is not
    /// supported; switch direction by re-seeking.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"short", 1)?;
    /// store.insert(b"longer-than-seven-bytes", 7)?;
    /// let mut cur = store.cursor();
    /// assert_eq!(cur.prev(), Some((b"short".to_vec(), 1)));
    /// assert_eq!(cur.prev(), Some((b"longer-than-seven-bytes".to_vec(), 7)));
    /// assert_eq!(cur.prev(), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn prev(&mut self) -> Option<(Vec<u8>, Value)>;
}

impl ByteCursor for Box<dyn ByteCursor + '_> {
    fn seek(&mut self, target: &[u8]) {
        (**self).seek(target)
    }
    fn next(&mut self) -> Option<(Vec<u8>, Value)> {
        (**self).next()
    }
    fn seek_for_prev(&mut self, target: &[u8]) {
        (**self).seek_for_prev(target)
    }
    fn prev(&mut self) -> Option<(Vec<u8>, Value)> {
        (**self).prev()
    }
}

/// One operation of a byte-keyed write batch — the var-key analogue of
/// `pmindex::BatchOp`, consumed by [`VarKeyIndex::apply_batch`]. Both
/// variants are *idempotent redo*: a `Put` upserts, a `Delete` of an
/// absent key is a no-op, so replaying an already-applied batch lands in
/// the same state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByteBatchOp {
    /// Upsert `key → value`.
    Put(Vec<u8>, Value),
    /// Remove `key` if present.
    Delete(Vec<u8>),
}

/// A byte-keyed ordered index — [`PmIndex`] with `&[u8]` keys.
///
/// The method-by-method contract mirrors `PmIndex` exactly: upserting
/// [`VarKeyIndex::insert`] reports the replaced value, in-place
/// [`VarKeyIndex::update`] never inserts and commits with one
/// failure-atomic 8-byte store, scans stream through [`ByteCursor`]s, and
/// [`VarKeyIndex::bulk_load`] takes a bottom-up path on sorted input.
pub trait VarKeyIndex: Send + Sync {
    /// Inserts `key → value`, replacing (and returning) the previous
    /// value if the key already exists.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// assert_eq!(store.insert(b"alpha-centauri", 1)?, None);
    /// assert_eq!(store.insert(b"alpha-centauri", 2)?, Some(1));
    /// assert!(store.insert(b"x", 0).is_err()); // 0 stays reserved
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::ReservedValue`] for values 0 / `u64::MAX`;
    /// [`IndexError::PoolExhausted`] when the overflow pool or the inner
    /// index runs out of memory.
    fn insert(&self, key: &[u8], value: Value) -> Result<Option<Value>, IndexError>;

    /// Updates an *existing* key in place, returning the replaced value;
    /// returns `Ok(None)` without inserting when the key is absent. The
    /// commit is a single failure-atomic 8-byte store (the inner index's
    /// for inline keys, the record's value slot for overflow keys).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"order-line:0007", 70)?;
    /// assert_eq!(store.update(b"order-line:0007", 71)?, Some(70));
    /// assert_eq!(store.update(b"order-line:0008", 80)?, None); // absent
    /// assert_eq!(store.get(b"order-line:0008"), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::ReservedValue`] for values 0 / `u64::MAX`.
    fn update(&self, key: &[u8], value: Value) -> Result<Option<Value>, IndexError>;

    /// Exact-match lookup.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"needle-in-a-haystack", 3)?;
    /// assert_eq!(store.get(b"needle-in-a-haystack"), Some(3));
    /// assert_eq!(store.get(b"needle"), None); // prefixes are distinct keys
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn get(&self, key: &[u8]) -> Option<Value>;

    /// Removes a key; returns `true` if it was present. Overflow records
    /// are *retired* through the store's epoch domain and return to the
    /// pool's free list online, once every in-flight latch-free lookup
    /// has moved on (counted in `pmem::stats::Snapshot::nodes_limbo` /
    /// `nodes_recycled_online`, and in `nodes_recycled` when the free
    /// lands).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"ephemeral-session-key", 9)?;
    /// assert!(store.remove(b"ephemeral-session-key"));
    /// assert!(!store.remove(b"ephemeral-session-key")); // already gone
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn remove(&self, key: &[u8]) -> bool;

    /// Applies a batch of ops in order, as idempotent redo — the
    /// byte-keyed apply seam a transaction journal replays through (the
    /// `u64` side is `pmindex::PmIndex::apply_batch`). The default
    /// simply loops; an implementation may regroup non-conflicting ops
    /// (disjoint keys commute) to amortize its internal latching.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{ByteBatchOp, VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.apply_batch(&[
    ///     ByteBatchOp::Put(b"customer:0042:name".to_vec(), 7),
    ///     ByteBatchOp::Delete(b"stale-entry".to_vec()), // absent: no-op
    /// ])?;
    /// assert_eq!(store.get(b"customer:0042:name"), Some(7));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first failing op's error; earlier ops stay
    /// applied (each is individually failure-atomic, and redo replay
    /// re-applies them harmlessly).
    fn apply_batch(&self, ops: &[ByteBatchOp]) -> Result<(), IndexError> {
        for op in ops {
            match op {
                ByteBatchOp::Put(k, v) => {
                    self.insert(k, *v)?;
                }
                ByteBatchOp::Delete(k) => {
                    self.remove(k);
                }
            }
        }
        Ok(())
    }

    /// Opens a streaming cursor positioned before the smallest key.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"bb", 2)?;
    /// store.insert(b"aa", 1)?;
    /// let mut cur = store.cursor();
    /// assert_eq!(cur.next(), Some((b"aa".to_vec(), 1)));
    /// assert_eq!(cur.next(), Some((b"bb".to_vec(), 2)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn cursor(&self) -> Box<dyn ByteCursor + '_>;

    /// Number of live keys; O(n) via the cursor unless overridden.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"one-of-two-entries", 1)?;
    /// store.insert(b"two", 2)?;
    /// assert_eq!(store.len(), 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn len(&self) -> usize {
        let mut c = self.cursor();
        let mut n = 0;
        while c.next().is_some() {
            n += 1;
        }
        n
    }

    /// True if the index holds no keys.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// assert!(store.is_empty());
    /// store.insert(b"now-populated", 1)?;
    /// assert!(!store.is_empty());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn is_empty(&self) -> bool {
        self.cursor().next().is_none()
    }

    /// Appends every entry with `lo <= key < hi` (lexicographically), in
    /// ascending order, to `out` — the materialized convenience wrapper
    /// over [`VarKeyIndex::cursor`].
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// for (k, v) in [(&b"ant"[..], 1u64), (b"bee-keeper", 2), (b"cat", 3)] {
    ///     store.insert(k, v)?;
    /// }
    /// let mut out = Vec::new();
    /// store.range(b"b", b"c", &mut out);
    /// assert_eq!(out, vec![(b"bee-keeper".to_vec(), 2)]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn range(&self, lo: &[u8], hi: &[u8], out: &mut Vec<(Vec<u8>, Value)>) {
        if lo >= hi {
            return;
        }
        let mut c = self.cursor();
        c.seek(lo);
        while let Some((k, v)) = c.next() {
            if k.as_slice() >= hi {
                break;
            }
            out.push((k, v));
        }
    }

    /// Loads `items` in bulk, returning the number of *new* keys
    /// (duplicates upsert and are not counted). Implementations may sort
    /// internally; input order does not affect the result.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// let items = vec![(b"a".to_vec(), 1u64), (b"b".to_vec(), 2), (b"a".to_vec(), 3)];
    /// assert_eq!(store.bulk_load(&mut items.into_iter())?, 2);
    /// assert_eq!(store.get(b"a"), Some(3)); // the duplicate upserted
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first insertion failure.
    fn bulk_load(
        &self,
        items: &mut dyn Iterator<Item = (Vec<u8>, Value)>,
    ) -> Result<usize, IndexError> {
        let mut fresh = 0;
        for (k, v) in items {
            if self.insert(&k, v)?.is_none() {
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// Human-readable name for benchmark tables.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// assert_eq!(store.name(), "VarKey(FAST+FAIR)");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn name(&self) -> String;
}

/// Number of chain-latch stripes. Chains are keyed by their first chunk,
/// so with 128 stripes four concurrent writers on distinct chains
/// collide with probability under 5% — and a collision only costs
/// serialization, never correctness.
const CHAIN_STRIPES: usize = 128;

/// Striped per-chain readers-writer latches, keyed by a chain's first
/// chunk. Replaces the original store-wide `RwLock<()>` that serialized
/// ALL long-key mutations: writers on different chains now proceed in
/// parallel, and a cursor drain only shares the stripe of the chain it
/// is walking.
struct ChainLatches {
    stripes: Vec<RwLock<()>>,
}

impl ChainLatches {
    fn new() -> Self {
        ChainLatches {
            stripes: (0..CHAIN_STRIPES).map(|_| RwLock::new(())).collect(),
        }
    }

    /// The latch guarding `chunk`'s chain. First chunks of nearby keys
    /// differ only in low bytes (the codec is order-preserving), so a
    /// Fibonacci multiplicative hash spreads them across stripes.
    fn stripe(&self, chunk: u64) -> &RwLock<()> {
        let h = chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.stripes[(h >> 32) as usize % CHAIN_STRIPES]
    }

    /// Write-locks every stripe (in index order, so two all-stripe
    /// lockers cannot deadlock) — for `bulk_load`, which builds chains
    /// across the whole chunk space at once.
    fn lock_all(&self) -> Vec<parking_lot::RwLockWriteGuard<'_, ()>> {
        self.stripes.iter().map(|s| s.write()).collect()
    }
}

/// Adapts arbitrary byte-slice keys onto a `u64`-keyed [`PmIndex`].
///
/// Short keys (≤ [`codec::MAX_INLINE`] bytes) are stored inline; longer
/// keys go through overflow-record chains in `pool` (see the [crate
/// docs](crate) for the commit discipline). The inner index may be a
/// single tree, a `shard::ShardedStore`, or anything else implementing
/// `PmIndex` — the adapter never looks inside it.
///
/// Chain walks are internally synchronized with striped readers-writer
/// latches keyed by the chain's first chunk (readers share a stripe,
/// chain mutations exclude each other per stripe); inline operations go
/// straight to the inner index's own synchronization.
pub struct VarKeyStore<I> {
    index: I,
    pool: Arc<Pool>,
    /// Guards overflow-chain *cursor drains* (shared) against chain
    /// mutations (exclusive), one latch per stripe of first-chunk values
    /// — writers on different chains proceed in parallel instead of
    /// serializing on one store-wide latch. Point lookups don't take any
    /// stripe: they pin the epoch domain instead (every chain mutation
    /// is a single atomic link flip, so a latch-free walk sees the old
    /// chain or the new one).
    chains: ChainLatches,
    /// Reclamation domain for removed overflow records: a record
    /// unlinked by [`VarKeyIndex::remove`] is retired here and returns
    /// to [`Pool::free`] online, once every pinned lookup has moved on.
    epoch: Arc<epoch::EpochDomain>,
}

impl<I> std::fmt::Debug for VarKeyStore<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VarKeyStore").finish_non_exhaustive()
    }
}

impl<I: PmIndex> VarKeyStore<I> {
    /// Wraps `index`, allocating overflow records for long keys from
    /// `pool` (which may be the pool the index itself lives in, or a
    /// dedicated one).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::VarKeyStore;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool); // same pool for both
    /// # let _ = store;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn new(index: I, pool: Arc<Pool>) -> Self {
        VarKeyStore {
            index,
            pool,
            chains: ChainLatches::new(),
            epoch: epoch::EpochDomain::new(),
        }
    }

    /// The wrapped `u64`-keyed index — e.g. to re-open a persistent inner
    /// index and re-wrap it after a crash, or to read router statistics
    /// off a sharded inner store.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"kv", 1)?; // one inline key ...
    /// assert_eq!(store.inner().len(), 1); // ... is one inner entry
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn inner(&self) -> &I {
        &self.index
    }

    /// The pool overflow records are allocated from.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::VarKeyStore;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, Arc::clone(&pool));
    /// assert!(Arc::ptr_eq(store.pool(), &pool));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// The store's epoch-based reclamation domain — exposed so tests,
    /// tooling and reclamation policies can observe or drive the clock
    /// (e.g. force a deterministic advance/collect between phases).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let store = VarKeyStore::new(tree, pool);
    /// store.insert(b"soon-to-be-removed-key", 1)?;
    /// store.remove(b"soon-to-be-removed-key");
    /// assert_eq!(store.epoch().limbo_len(), 1); // retired, not yet freed
    /// store.epoch().try_advance();
    /// store.epoch().try_advance();
    /// assert_eq!(store.epoch().collect(), 1); // recycled online
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn epoch(&self) -> &Arc<epoch::EpochDomain> {
        &self.epoch
    }

    // ---- overflow records ------------------------------------------------

    fn rec_next(&self, rec: PmOffset) -> PmOffset {
        self.pool.load_u64(rec + REC_NEXT)
    }

    fn rec_value(&self, rec: PmOffset) -> Value {
        self.pool.load_u64(rec + REC_VALUE)
    }

    fn rec_len(&self, rec: PmOffset) -> usize {
        (self.pool.load_u64(rec + REC_LEN) & LEN_MASK) as usize
    }

    /// The record's stored suffix fingerprint (top byte of the length
    /// word) — read together with the length in one 8-byte load.
    fn rec_fp(&self, rec: PmOffset) -> u8 {
        (self.pool.load_u64(rec + REC_LEN) >> FP_SHIFT) as u8
    }

    fn rec_key(&self, rec: PmOffset) -> Vec<u8> {
        let len = self.rec_len(rec);
        let mut out = Vec::with_capacity(len);
        let mut off = rec + REC_KEY;
        while out.len() < len {
            let word = self.pool.load_u64(off).to_le_bytes();
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&word[..take]);
            off += 8;
        }
        out
    }

    /// Allocates and fully persists a record; the caller then publishes
    /// it with a single 8-byte link store. Fresh records may come from
    /// the free list, so every word is written (no stale bytes).
    fn alloc_record(
        &self,
        key: &[u8],
        value: Value,
        next: PmOffset,
    ) -> Result<PmOffset, IndexError> {
        let size = record_size(key.len());
        let rec = self.pool.alloc(size, 8).map_err(IndexError::from)?;
        self.pool.store_u64(rec + REC_NEXT, next);
        self.pool.store_u64(rec + REC_VALUE, value);
        self.pool.store_u64(
            rec + REC_LEN,
            key.len() as u64 | (u64::from(suffix_fp(key)) << FP_SHIFT),
        );
        let mut off = rec + REC_KEY;
        for chunk in key.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.pool.store_u64(off, u64::from_le_bytes(word));
            off += 8;
        }
        self.pool.persist(rec, size);
        Ok(rec)
    }

    /// Immediate free — only for records that were never published (the
    /// bulk-load error path). Published records go through
    /// [`VarKeyStore::retire_record`].
    fn free_record(&self, rec: PmOffset) {
        self.pool.free(rec, record_size(self.rec_len(rec)));
    }

    /// Retires an unlinked record into the epoch domain: latch-free
    /// lookups may still be walking it, so the block returns to the free
    /// list only once two epochs have passed — online, while traffic is
    /// live.
    fn retire_record(&self, rec: PmOffset) {
        self.epoch
            .retire_pm(&self.pool, rec, record_size(self.rec_len(rec)));
    }

    /// Lexicographic comparison of a record's key against `key`, word at
    /// a time against the pooled bytes — no materialization, and usually
    /// decided by the first word.
    fn rec_key_cmp(&self, rec: PmOffset, key: &[u8]) -> std::cmp::Ordering {
        let len = self.rec_len(rec);
        let shared = len.min(key.len());
        let mut i = 0;
        let mut off = rec + REC_KEY;
        while i < shared {
            let word = self.pool.load_u64(off).to_le_bytes();
            let take = (shared - i).min(8);
            match word[..take].cmp(&key[i..i + take]) {
                std::cmp::Ordering::Equal => {}
                other => return other,
            }
            i += take;
            off += 8;
        }
        len.cmp(&key.len())
    }

    /// Walks the chain headed at `head` looking for `key`. Returns
    /// `(prev, at, found)`: `at` is the first record whose key is
    /// `>= key` (or `NULL_OFFSET` past the tail), `prev` its predecessor
    /// (or `NULL_OFFSET` at the head), and `found` whether `at` holds
    /// exactly `key`.
    fn chain_seek(&self, head: PmOffset, key: &[u8]) -> (PmOffset, PmOffset, bool) {
        let mut prev = NULL_OFFSET;
        let mut cur = head;
        while cur != NULL_OFFSET {
            self.pool.charge_serial_reads(1);
            match self.rec_key_cmp(cur, key) {
                std::cmp::Ordering::Less => {
                    prev = cur;
                    cur = self.rec_next(cur);
                }
                std::cmp::Ordering::Equal => return (prev, cur, true),
                std::cmp::Ordering::Greater => return (prev, cur, false),
            }
        }
        (prev, NULL_OFFSET, false)
    }

    /// One-word prefix probe for sorted-chain early termination: compares
    /// only the record's first key word against `key`. `Greater` is
    /// definitive (the sorted chain has passed the key's position);
    /// `Less`/`Equal` mean "keep walking" — the first word holds the
    /// chain's shared 7-byte chunk plus the first differing byte, so this
    /// is decisive for every chain whose keys diverge within 8 bytes.
    fn rec_prefix_cmp(&self, rec: PmOffset, key: &[u8]) -> std::cmp::Ordering {
        let shared = self.rec_len(rec).min(key.len()).min(8);
        let word = self.pool.load_u64(rec + REC_KEY).to_le_bytes();
        word[..shared].cmp(&key[..shared])
    }

    /// Exact-match chain walk guided by the suffix fingerprint: a record
    /// whose stored fingerprint differs from `fp` cannot hold `key`, so
    /// the full word-by-word compare is skipped — the win the fingerprint
    /// buys on chains of long shared-prefix keys (TPC-C customer names).
    /// A fingerprint *match* still verifies the key and uses its ordering
    /// to stop early; mismatching records get the cheap one-word
    /// [`rec_prefix_cmp`](Self::rec_prefix_cmp) probe so an absent-key
    /// lookup still terminates at its sort position instead of walking
    /// the whole chain.
    fn chain_find(&self, head: PmOffset, key: &[u8], fp: u8) -> Option<PmOffset> {
        let mut cur = head;
        while cur != NULL_OFFSET {
            self.pool.charge_serial_reads(1);
            if self.rec_fp(cur) == fp {
                match self.rec_key_cmp(cur, key) {
                    std::cmp::Ordering::Equal => return Some(cur),
                    std::cmp::Ordering::Greater => return None,
                    std::cmp::Ordering::Less => {}
                }
            } else if self.rec_prefix_cmp(cur, key) == std::cmp::Ordering::Greater {
                return None; // sorted chain already past the key
            }
            cur = self.rec_next(cur);
        }
        None
    }

    fn insert_overflow(&self, key: &[u8], value: Value) -> Result<Option<Value>, IndexError> {
        let chunk = codec::first_chunk(key);
        let _g = self.chains.stripe(chunk).write();
        let Some(head) = self.index.get(chunk) else {
            // First key of this chunk: record first, then the inner
            // insert (itself failure-atomic) publishes the chain.
            let rec = self.alloc_record(key, value, NULL_OFFSET)?;
            return match self.index.insert(chunk, rec) {
                Ok(_) => Ok(None),
                Err(e) => {
                    self.free_record(rec);
                    Err(e)
                }
            };
        };
        let (prev, at, found) = self.chain_seek(head, key);
        if found {
            // In-place value overwrite: one failure-atomic store.
            let old = self.rec_value(at);
            self.pool.store_u64(at + REC_VALUE, value);
            self.pool.persist(at + REC_VALUE, 8);
            return Ok(Some(old));
        }
        // Splice a fully persisted record in with one 8-byte link flip.
        let rec = self.alloc_record(key, value, at)?;
        if prev == NULL_OFFSET {
            if let Err(e) = self.index.update(chunk, rec) {
                self.free_record(rec);
                return Err(e);
            }
        } else {
            self.pool.store_u64(prev + REC_NEXT, rec);
            self.pool.persist(prev + REC_NEXT, 8);
        }
        Ok(None)
    }

    fn update_overflow(&self, key: &[u8], value: Value) -> Result<Option<Value>, IndexError> {
        let chunk = codec::first_chunk(key);
        let _g = self.chains.stripe(chunk).write();
        let Some(head) = self.index.get(chunk) else {
            return Ok(None);
        };
        let Some(at) = self.chain_find(head, key, suffix_fp(key)) else {
            return Ok(None);
        };
        let old = self.rec_value(at);
        self.pool.store_u64(at + REC_VALUE, value);
        self.pool.persist(at + REC_VALUE, 8);
        Ok(Some(old))
    }

    fn remove_overflow(&self, key: &[u8]) -> bool {
        let chunk = codec::first_chunk(key);
        let _g = self.chains.stripe(chunk).write();
        let Some(head) = self.index.get(chunk) else {
            return false;
        };
        let (prev, at, found) = self.chain_seek(head, key);
        if !found {
            return false;
        }
        let next = self.rec_next(at);
        if prev == NULL_OFFSET {
            // Unlink at the head: drop the chunk entirely or flip the
            // inner value to the successor — either way one atomic store.
            if next == NULL_OFFSET {
                self.index.remove(chunk);
            } else if self.index.update(chunk, next).is_err() {
                return false; // next is a nonzero offset; unreachable
            }
        } else {
            self.pool.store_u64(prev + REC_NEXT, next);
            self.pool.persist(prev + REC_NEXT, 8);
        }
        // The record is unlinked (one atomic flip); recycle it once every
        // pinned latch-free lookup has moved on.
        self.retire_record(at);
        true
    }

    /// Reads `chunk`'s live chain (ascending by key) into `out`, skipping
    /// keys below `bound`.
    ///
    /// The head is re-read from the inner index *under the chain's
    /// stripe latch*, never taken from the caller: a cursor hands in a
    /// chunk it buffered earlier, and by now a concurrent remove may
    /// have unlinked — and the free list recycled — the records the
    /// buffered head pointed at. The stripe excludes this chain's
    /// writers for the duration of the walk, so the re-read head and
    /// everything reachable from it stay valid.
    fn drain_chain(&self, chunk: u64, bound: &[u8], out: &mut Vec<(Vec<u8>, Value)>) {
        let _g = self.chains.stripe(chunk).read();
        let Some(head) = self.index.get(chunk) else {
            return; // chain removed since the cursor buffered the chunk
        };
        let mut cur = head;
        while cur != NULL_OFFSET {
            self.pool.charge_serial_reads(1);
            let k = self.rec_key(cur);
            let v = self.rec_value(cur);
            let next = self.rec_next(cur);
            if k.as_slice() >= bound {
                out.push((k, v));
            }
            cur = next;
        }
    }
}

impl<I: PmIndex> VarKeyIndex for VarKeyStore<I> {
    fn insert(&self, key: &[u8], value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        if key.len() <= codec::MAX_INLINE {
            self.index.insert(codec::first_chunk(key), value)
        } else {
            self.insert_overflow(key, value)
        }
    }

    fn update(&self, key: &[u8], value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        if key.len() <= codec::MAX_INLINE {
            self.index.update(codec::first_chunk(key), value)
        } else {
            self.update_overflow(key, value)
        }
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        let chunk = codec::first_chunk(key);
        if key.len() <= codec::MAX_INLINE {
            return self.index.get(chunk);
        }
        // Latch-free: every chain mutation is a single atomic link flip,
        // so the walk sees the old chain or the new one; the epoch pin
        // keeps concurrently removed records from being recycled — and
        // their memory reused — under the walk.
        let _pin = self.epoch.pin();
        let head = self.index.get(chunk)?;
        self.chain_find(head, key, suffix_fp(key))
            .map(|at| self.rec_value(at))
    }

    fn remove(&self, key: &[u8]) -> bool {
        if key.len() <= codec::MAX_INLINE {
            self.index.remove(codec::first_chunk(key))
        } else {
            self.remove_overflow(key)
        }
    }

    fn cursor(&self) -> Box<dyn ByteCursor + '_> {
        Box::new(StoreCursor {
            store: self,
            inner: self.index.cursor(),
            buf: Vec::new(),
            pos: 0,
            bound: Vec::new(),
            reverse: false,
            unbounded: false,
        })
    }

    fn bulk_load(
        &self,
        items: &mut dyn Iterator<Item = (Vec<u8>, Value)>,
    ) -> Result<usize, IndexError> {
        if !self.index.is_empty() {
            // Chains may already exist; merge through the ordinary
            // insert path (the inner index loop-inserts anyway once
            // non-empty).
            let mut fresh = 0;
            for (k, v) in items {
                if self.insert(&k, v)?.is_none() {
                    fresh += 1;
                }
            }
            return Ok(fresh);
        }
        // Empty store: sort, dedupe (last write wins, matching upsert
        // semantics), pre-build whole chains, and hand the inner index an
        // ascending chunk stream so it can build bottom-up. Like
        // `ShardedStore::bulk_load`, this transiently buffers the input.
        let mut all: Vec<(Vec<u8>, Value)> = items.collect();
        for (_, v) in &all {
            check_value(*v)?;
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        // Keep the *last* occurrence of each key.
        let mut deduped: Vec<(Vec<u8>, Value)> = Vec::with_capacity(all.len());
        for (k, v) in all {
            match deduped.last_mut() {
                Some(last) if last.0 == k => last.1 = v,
                _ => deduped.push((k, v)),
            }
        }
        let fresh = deduped.len();
        // A bulk load touches chains across the whole chunk space: take
        // every stripe rather than guessing which chunks it will build.
        let _g = self.chains.lock_all();
        let mut pairs: Vec<(u64, Value)> = Vec::with_capacity(fresh);
        let mut i = 0;
        while i < deduped.len() {
            let chunk = codec::first_chunk(&deduped[i].0);
            if deduped[i].0.len() <= codec::MAX_INLINE {
                pairs.push((chunk, deduped[i].1));
                i += 1;
                continue;
            }
            // Group every long key sharing this chunk into one chain,
            // built back to front so each record persists with its final
            // next pointer.
            let mut j = i;
            while j < deduped.len() && codec::first_chunk(&deduped[j].0) == chunk {
                j += 1;
            }
            let mut next = NULL_OFFSET;
            for (k, v) in deduped[i..j].iter().rev() {
                match self.alloc_record(k, *v, next) {
                    Ok(rec) => next = rec,
                    Err(e) => {
                        // Nothing references the records built so far
                        // (pairs is still private to this call): return
                        // every one — this partial chain and the chains
                        // of earlier groups — to the free list.
                        let mut r = next;
                        while r != NULL_OFFSET {
                            let n = self.rec_next(r);
                            self.free_record(r);
                            r = n;
                        }
                        for &(c, head) in &pairs {
                            if codec::is_inline(c) {
                                continue;
                            }
                            let mut r = head;
                            while r != NULL_OFFSET {
                                let n = self.rec_next(r);
                                self.free_record(r);
                                r = n;
                            }
                        }
                        return Err(e);
                    }
                }
            }
            pairs.push((chunk, next));
            i = j;
        }
        // On an inner-index failure the records cannot be reclaimed: the
        // inner contract loads items preceding the failure, so an unknown
        // prefix of the chains is already referenced. They leak — the
        // PM-allocator trade-off documented on `pmem::Pool::free`.
        self.index.bulk_load(&mut pairs.into_iter())?;
        Ok(fresh)
    }

    fn name(&self) -> String {
        format!("VarKey({})", self.index.name())
    }
}

/// Streaming cursor over a [`VarKeyStore`]: drives the inner index's
/// cursor chunk by chunk, decoding inline chunks directly and draining
/// overflow chains (already sorted) through a small buffer.
struct StoreCursor<'a, I: PmIndex> {
    store: &'a VarKeyStore<I>,
    inner: Box<dyn Cursor + 'a>,
    /// One drained chain, consumed through `pos` (same pattern as
    /// `pmindex::chain::LeafChainCursor`) — the buffer is reused across
    /// chains, so a scan allocates nothing per chain but the keys.
    /// Ascending scans consume it front-to-back, descending scans
    /// back-to-front.
    buf: Vec<(Vec<u8>, Value)>,
    pos: usize,
    /// Lower bound from the last seek (upper bound, inclusive, after a
    /// `seek_for_prev`); entries outside it are dropped.
    bound: Vec<u8>,
    /// Scan direction, set by the last seek.
    reverse: bool,
    /// Reverse scan with no upper bound (a bare `prev()` from the end —
    /// byte strings have no maximum key to seek to).
    unbounded: bool,
}

impl<I: PmIndex> ByteCursor for StoreCursor<'_, I> {
    fn seek(&mut self, target: &[u8]) {
        self.inner.seek(codec::first_chunk(target));
        self.bound = target.to_vec();
        self.buf.clear();
        self.pos = 0;
        self.reverse = false;
        self.unbounded = false;
    }

    fn next(&mut self) -> Option<(Vec<u8>, Value)> {
        if self.reverse {
            return None; // direction switches go through a re-seek
        }
        loop {
            if self.pos < self.buf.len() {
                let entry = std::mem::take(&mut self.buf[self.pos]);
                self.pos += 1;
                return Some(entry);
            }
            let (chunk, value) = self.inner.next()?;
            match codec::decode_inline(chunk) {
                Some(key) => {
                    if key.as_slice() >= self.bound.as_slice() {
                        return Some((key, value));
                    }
                }
                None => {
                    // Overflow chain. `value` is the head the inner
                    // cursor buffered, but it may be stale by now —
                    // drain_chain re-resolves the live head under the
                    // chain latch instead of trusting it.
                    let _ = value;
                    self.buf.clear();
                    self.pos = 0;
                    self.store.drain_chain(chunk, &self.bound, &mut self.buf);
                }
            }
        }
    }

    fn seek_for_prev(&mut self, target: &[u8]) {
        // The chunk codec is order-preserving, so every key `<= target`
        // encodes a first chunk `<= first_chunk(target)` — the inner
        // reverse cursor starting there covers all candidates.
        self.inner.seek_for_prev(codec::first_chunk(target));
        self.bound = target.to_vec();
        self.buf.clear();
        self.pos = 0;
        self.reverse = true;
        self.unbounded = false;
    }

    fn prev(&mut self) -> Option<(Vec<u8>, Value)> {
        if !self.reverse {
            if !self.buf.is_empty() || !self.bound.is_empty() {
                return None; // direction switches go through a re-seek
            }
            // Bare prev() on a fresh cursor: chunks never reach u64::MAX
            // (their low byte is a small discriminant), so seeking the
            // inner cursor there lands past the largest chunk.
            self.inner.seek_for_prev(u64::MAX);
            self.reverse = true;
            self.unbounded = true;
        }
        loop {
            if self.pos > 0 {
                self.pos -= 1;
                return Some(std::mem::take(&mut self.buf[self.pos]));
            }
            let (chunk, value) = self.inner.prev()?;
            match codec::decode_inline(chunk) {
                Some(key) => {
                    if self.unbounded || key.as_slice() <= self.bound.as_slice() {
                        return Some((key, value));
                    }
                }
                None => {
                    // Overflow chain: drain it whole (ascending), drop
                    // what exceeds the upper bound — only the chain at
                    // the seek target can overshoot, since later chunks
                    // are strictly below it — and consume back-to-front.
                    let _ = value;
                    self.buf.clear();
                    self.store.drain_chain(chunk, &[], &mut self.buf);
                    if !self.unbounded {
                        let ub = &self.bound;
                        self.buf.retain(|(k, _)| k.as_slice() <= ub.as_slice());
                    }
                    self.pos = self.buf.len();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;

    fn store() -> VarKeyStore<fastfair::FastFairTree> {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(8 << 20)).unwrap());
        let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
            .unwrap();
        VarKeyStore::new(tree, pool)
    }

    #[test]
    fn inline_and_overflow_roundtrip() {
        let s = store();
        assert_eq!(s.insert(b"short", 1).unwrap(), None);
        assert_eq!(s.insert(b"a-much-longer-key", 2).unwrap(), None);
        assert_eq!(s.insert(b"", 3).unwrap(), None);
        assert_eq!(s.get(b"short"), Some(1));
        assert_eq!(s.get(b"a-much-longer-key"), Some(2));
        assert_eq!(s.get(b""), Some(3));
        assert_eq!(s.get(b"a-much-longer-ke"), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn shared_prefix_chains() {
        let s = store();
        // All of these share the first 7 bytes -> one chain.
        let keys: Vec<Vec<u8>> = (0..20)
            .map(|i| format!("prefix:{:04}", i * 7 % 20).into_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(s.insert(k, (i + 1) as u64 * 2).unwrap(), None);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(s.get(k), Some((i + 1) as u64 * 2), "{k:?}");
        }
        // The whole chain hangs off a single inner entry.
        assert_eq!(s.inner().len(), 1);
        assert_eq!(s.len(), 20);
        // Upsert into the middle of the chain.
        assert_eq!(s.insert(&keys[7], 999).unwrap(), Some(16));
        assert_eq!(s.get(&keys[7]), Some(999));
    }

    #[test]
    fn update_never_inserts() {
        let s = store();
        assert_eq!(s.update(b"missing-long-key-here", 5).unwrap(), None);
        assert_eq!(s.update(b"mi", 5).unwrap(), None);
        assert!(s.is_empty());
        s.insert(b"missing-long-key-here", 6).unwrap();
        assert_eq!(s.update(b"missing-long-key-here", 7).unwrap(), Some(6));
        assert_eq!(s.get(b"missing-long-key-here"), Some(7));
    }

    #[test]
    fn remove_from_head_middle_tail() {
        let s = store();
        let keys = [&b"chain-key:a"[..], b"chain-key:m", b"chain-key:z"];
        for (i, k) in keys.iter().enumerate() {
            s.insert(k, (i + 1) as u64).unwrap();
        }
        assert!(s.remove(b"chain-key:m")); // middle
        assert_eq!(s.get(b"chain-key:m"), None);
        assert!(s.remove(b"chain-key:a")); // head (chain shrinks)
        assert!(s.remove(b"chain-key:z")); // last: chunk disappears
        assert!(!s.remove(b"chain-key:z"));
        assert!(s.is_empty());
        assert!(s.inner().is_empty());
    }

    #[test]
    fn cursor_is_lexicographic_across_inline_and_chains() {
        let s = store();
        let mut keys: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"abcdefg".to_vec(),  // exactly 7 bytes: inline
            b"abcdefgh".to_vec(), // 8 bytes: chain, same 7-byte prefix
            b"abcdefgz".to_vec(),
            b"zz".to_vec(),
        ];
        for (i, k) in keys.iter().enumerate() {
            s.insert(k, (i + 1) as u64).unwrap();
        }
        keys.sort();
        let mut got = Vec::new();
        let mut c = s.cursor();
        while let Some((k, _)) = c.next() {
            got.push(k);
        }
        assert_eq!(got, keys);
        // Seek between the two chain members.
        c.seek(b"abcdefgi");
        assert_eq!(c.next().unwrap().0, b"abcdefgz".to_vec());
    }

    #[test]
    fn cursor_tolerates_chains_removed_and_recycled_mid_scan() {
        // The inner cursor buffers a whole leaf of (chunk, head) entries;
        // if a chain is removed — and its records recycled into a NEW
        // chain — after that buffering but before the drain, the cursor
        // must re-resolve the live head, not walk the recycled records.
        let s = store();
        for p in ["chain-a", "chain-b", "chain-c"] {
            for i in 0..3u64 {
                s.insert(format!("{p}:member{i}").as_bytes(), i + 1)
                    .unwrap();
            }
        }
        let mut cur = s.cursor();
        // Consuming chain-a buffers the (single) inner leaf, including
        // the soon-to-be-stale heads of chain-b and chain-c.
        for i in 0..3u64 {
            let (k, v) = cur.next().unwrap();
            assert_eq!(k, format!("chain-a:member{i}").into_bytes());
            assert_eq!(v, i + 1);
        }
        // Remove chain-b entirely and recycle its records into a new
        // chain with identical record sizes but different keys.
        for i in 0..3u64 {
            assert!(s.remove(format!("chain-b:member{i}").as_bytes()));
        }
        for i in 0..3u64 {
            s.insert(format!("chain-z:member{i}").as_bytes(), 100 + i)
                .unwrap();
        }
        // The continued scan must never emit a chain-b key (the chain is
        // gone) nor any key out of order (which walking the recycled
        // records through the stale head would produce).
        let mut last = b"chain-a:member2".to_vec();
        let mut saw_c = 0;
        while let Some((k, _)) = cur.next() {
            assert!(
                k > last,
                "out-of-order key {:?}",
                String::from_utf8_lossy(&k)
            );
            assert!(!k.starts_with(b"chain-b"), "phantom key from removed chain");
            if k.starts_with(b"chain-c") {
                saw_c += 1;
            }
            last = k;
        }
        assert_eq!(saw_c, 3, "untouched chain must stream in full");
    }

    #[test]
    fn failed_bulk_load_frees_prebuilt_chains() {
        // An overflow pool too small for the load: the chain pre-build
        // fails partway, and every record allocated so far must go back
        // to the free list (observable via nodes_recycled).
        let pool = Arc::new(Pool::new(PoolConfig::new().size(8 << 20)).unwrap());
        let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
            .unwrap();
        let tiny = Arc::new(
            Pool::new(PoolConfig::new().size(pmem::POOL_HEADER_SIZE as usize + 256)).unwrap(),
        );
        let s = VarKeyStore::new(tree, tiny);
        let items: Vec<(Vec<u8>, Value)> = (0..50u64)
            .map(|i| (format!("will-not-fit:{i:04}").into_bytes(), i + 1))
            .collect();
        pmem::stats::reset();
        assert!(s.bulk_load(&mut items.into_iter()).is_err());
        let snap = pmem::stats::take();
        assert!(
            snap.nodes_recycled > 0,
            "partial chain build must recycle its records"
        );
        assert!(s.is_empty());
    }

    #[test]
    fn range_window() {
        let s = store();
        for i in 0..30u64 {
            s.insert(format!("user:{i:04}").as_bytes(), i + 1).unwrap();
        }
        let mut out = Vec::new();
        s.range(b"user:0010", b"user:0013", &mut out);
        let got: Vec<Vec<u8>> = out.into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            got,
            vec![
                b"user:0010".to_vec(),
                b"user:0011".to_vec(),
                b"user:0012".to_vec()
            ]
        );
    }

    #[test]
    fn bulk_load_fast_path_and_fallback() {
        let s = store();
        let mut items: Vec<(Vec<u8>, Value)> = (0..200u64)
            .map(|i| (format!("bulk-key:{:05}", i * 13 % 200).into_bytes(), i + 1))
            .collect();
        items.push((b"dup".to_vec(), 1));
        items.push((b"dup".to_vec(), 2)); // later duplicate wins
        let fresh = s.bulk_load(&mut items.clone().into_iter()).unwrap();
        assert_eq!(fresh, 201);
        assert_eq!(s.len(), 201);
        assert_eq!(s.get(b"dup"), Some(2));
        assert_eq!(
            s.get(b"bulk-key:00042"),
            Some(
                items
                    .iter()
                    .find(|(k, _)| k == b"bulk-key:00042")
                    .map(|&(_, v)| v)
                    .unwrap()
            )
        );
        // Second load hits the merge path (non-empty store).
        let fresh = s
            .bulk_load(&mut vec![(b"dup".to_vec(), 9), (b"fresh".to_vec(), 10)].into_iter())
            .unwrap();
        assert_eq!(fresh, 1);
        assert_eq!(s.get(b"dup"), Some(9));
        // Sorted cursor order survives the bulk path.
        let mut last: Option<Vec<u8>> = None;
        let mut c = s.cursor();
        while let Some((k, _)) = c.next() {
            if let Some(l) = &last {
                assert!(l < &k);
            }
            last = Some(k);
        }
    }

    #[test]
    fn reserved_values_rejected_everywhere() {
        let s = store();
        assert!(s.insert(b"looooooooong", 0).is_err());
        assert!(s.insert(b"s", u64::MAX).is_err());
        assert!(s.update(b"looooooooong", 0).is_err());
        assert!(s
            .bulk_load(&mut vec![(b"x".to_vec(), u64::MAX)].into_iter())
            .is_err());
    }

    #[test]
    fn removed_records_are_recycled_online() {
        let s = store();
        let keys: Vec<Vec<u8>> = (0..10)
            .map(|i| format!("recycle-me:{i:02}").into_bytes())
            .collect();
        for k in &keys {
            s.insert(k, 7).unwrap();
        }
        pmem::stats::reset();
        for k in &keys {
            assert!(s.remove(k));
        }
        // Removal retires into limbo; two epoch advances later the
        // records are back on the free list — no recover, no drop.
        assert_eq!(pmem::stats::snapshot().nodes_limbo, keys.len() as u64);
        s.epoch.try_advance();
        s.epoch.try_advance();
        s.epoch.collect();
        let snap = pmem::stats::take();
        assert_eq!(snap.nodes_limbo, 0); // gauge drained by the collect
        assert_eq!(snap.nodes_recycled_online, keys.len() as u64);
        assert_eq!(snap.nodes_recycled, keys.len() as u64);
        // Re-inserting identical keys reuses the freed records: the
        // allocator high-water mark must not move.
        let hw = s.pool().high_water();
        for k in &keys {
            s.insert(k, 8).unwrap();
        }
        assert_eq!(s.pool().high_water(), hw);
    }

    #[test]
    fn fingerprint_packs_beside_length() {
        let s = store();
        let key = b"fingerprint-bearing-key-of-31-b".to_vec();
        assert_eq!(key.len(), 31);
        s.insert(&key, 9).unwrap();
        let head = s.inner().get(codec::first_chunk(&key)).unwrap();
        assert_eq!(s.rec_len(head), 31);
        assert_eq!(s.rec_fp(head), suffix_fp(&key));
        assert_eq!(s.rec_key(head), key);
        assert_eq!(s.get(&key), Some(9));
    }

    #[test]
    fn fingerprint_collisions_still_resolve_exactly() {
        let s = store();
        // Same first chunk, many suffixes: some fingerprints will agree,
        // and equality must still be decided by the full key compare.
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| format!("collide:{i:03}").into_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            s.insert(k, (i + 1) as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(s.get(k), Some((i + 1) as u64), "{k:?}");
        }
        // Probing absent keys that share the chunk never false-positives.
        for i in 64..128u32 {
            assert_eq!(s.get(format!("collide:{i:03}").as_bytes()), None);
        }
        // update goes through the fingerprint walk too.
        assert_eq!(s.update(&keys[40], 999).unwrap(), Some(41));
        assert_eq!(s.get(&keys[40]), Some(999));
    }

    #[test]
    fn latch_free_get_survives_concurrent_removes() {
        let s = Arc::new(store());
        let keep: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("stable-key:{i:04}").into_bytes())
            .collect();
        let churn: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("churned-key:{i:04}").into_bytes())
            .collect();
        for k in keep.iter().chain(churn.iter()) {
            s.insert(k, 5).unwrap();
        }
        std::thread::scope(|t| {
            {
                let s = Arc::clone(&s);
                let churn = &churn;
                t.spawn(move || {
                    for k in churn {
                        assert!(s.remove(k));
                    }
                });
            }
            for _ in 0..2 {
                let s = Arc::clone(&s);
                let keep = &keep;
                t.spawn(move || {
                    for _ in 0..20 {
                        for k in keep {
                            assert_eq!(s.get(k), Some(5), "stable key vanished");
                        }
                    }
                });
            }
        });
        for k in &churn {
            assert_eq!(s.get(k), None);
        }
    }

    /// Picks `n` 7-byte chain prefixes whose first chunks land on
    /// pairwise-distinct latch stripes, so each writer in the tests below
    /// owns a private chain AND a private latch.
    fn distinct_stripe_prefixes<I>(s: &VarKeyStore<I>, n: usize) -> Vec<String> {
        let mut prefixes: Vec<String> = Vec::new();
        let mut stripes: Vec<*const RwLock<()>> = Vec::new();
        for i in 0..10_000u32 {
            let p = format!("wch{i:04}");
            let stripe: *const _ = s.chains.stripe(codec::first_chunk(p.as_bytes()));
            if !stripes.contains(&stripe) {
                stripes.push(stripe);
                prefixes.push(p);
                if prefixes.len() == n {
                    return prefixes;
                }
            }
        }
        panic!("could not find {n} distinct stripes");
    }

    fn chain_key(prefix: &str, i: u32) -> Vec<u8> {
        // Longer than MAX_INLINE and sharing the 7-byte prefix: every
        // writer's keys go to one overflow chain.
        format!("{prefix}:{i:04}:padding-far-past-inline").into_bytes()
    }

    #[test]
    fn writers_on_distinct_chains_do_not_serialize() {
        // Regression for the coarse store-wide chain latch: holding ONE
        // chain's latch used to block every long-key writer. Now it may
        // only block the chain (stripe) it guards.
        use std::sync::atomic::{AtomicBool, Ordering};
        const PER_WRITER: u32 = 100;
        let s = Arc::new(store());
        let prefixes = distinct_stripe_prefixes(&s, 4);
        let blocked_chunk = codec::first_chunk(chain_key(&prefixes[3], 0).as_slice());
        let held = s.chains.stripe(blocked_chunk).write();
        let victim_started = Arc::new(AtomicBool::new(false));
        let victim_done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|t| {
            let mut free = Vec::new();
            for p in &prefixes[..3] {
                let s = Arc::clone(&s);
                free.push(t.spawn(move || {
                    for i in 0..PER_WRITER {
                        s.insert(&chain_key(p, i), u64::from(i) + 1).unwrap();
                    }
                }));
            }
            {
                let s = Arc::clone(&s);
                let p = &prefixes[3];
                let started = Arc::clone(&victim_started);
                let done = Arc::clone(&victim_done);
                t.spawn(move || {
                    started.store(true, Ordering::SeqCst);
                    for i in 0..PER_WRITER {
                        s.insert(&chain_key(p, i), u64::from(i) + 1).unwrap();
                    }
                    done.store(true, Ordering::SeqCst);
                });
            }
            // The three writers on unheld stripes must run to completion
            // while stripe 3 stays write-locked — under the old coarse
            // latch these joins would deadlock against `held`.
            for h in free {
                h.join().unwrap();
            }
            while !victim_started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !victim_done.load(Ordering::SeqCst),
                "writer on the held stripe slipped past its latch"
            );
            drop(held);
        });
        assert!(victim_done.load(Ordering::SeqCst));
        for p in &prefixes {
            for i in 0..PER_WRITER {
                assert_eq!(s.get(&chain_key(p, i)), Some(u64::from(i) + 1));
            }
        }
        assert_eq!(s.len(), 4 * PER_WRITER as usize);
    }

    #[test]
    fn four_writer_disjoint_chain_storm_is_exact() {
        const PER_WRITER: u32 = 250;
        let s = Arc::new(store());
        let prefixes = distinct_stripe_prefixes(&s, 4);
        std::thread::scope(|t| {
            for (w, p) in prefixes.iter().enumerate() {
                let s = Arc::clone(&s);
                t.spawn(move || {
                    for i in 0..PER_WRITER {
                        let v = (w as u64) * 10_000 + u64::from(i) + 1;
                        s.insert(&chain_key(p, i), v).unwrap();
                    }
                    // Mixed mutations on the same private chain: updates
                    // and removes also ride the per-stripe latch.
                    for i in (0..PER_WRITER).step_by(5) {
                        assert!(s.remove(&chain_key(p, i)));
                    }
                });
            }
        });
        let mut live = 0;
        for (w, p) in prefixes.iter().enumerate() {
            for i in 0..PER_WRITER {
                let want = if i % 5 == 0 {
                    None
                } else {
                    Some((w as u64) * 10_000 + u64::from(i) + 1)
                };
                assert_eq!(s.get(&chain_key(p, i)), want);
                live += usize::from(want.is_some());
            }
        }
        assert_eq!(s.len(), live);
    }
}

//! Common index abstractions and the tests' key generators.
//!
//! Every index structure in this reproduction — FAST+FAIR, wB+-tree,
//! FP-tree, WORT and the persistent skip list — implements [`PmIndex`] so
//! the shard router, the transaction engine, the TPC-C substrate and the
//! differential tests can treat them uniformly.
//!
//! The [`workload`] module generates the keys and operation mixes the tests
//! and examples use: uniform random 8-byte keys (the paper's §5 setting)
//! and the mixed workload of Fig. 7(c) (sixteen searches : four inserts :
//! one delete).
//!
//! Beyond the core trait, this crate carries the *router-facing* seam that
//! `crates/shard` builds on: [`PersistentIndex`] (create/open an index
//! inside a [`pmem::Pool`] and name its persistent superblock) and
//! [`CursorIter`] (drive a [`Cursor`] as an [`Iterator`], e.g. to stream
//! one index into another through [`PmIndex::bulk_load`]) — plus the
//! [`chain`] module, the shared leaf-chain cursor adapter that the three
//! sibling-linked indexes (FAST+FAIR, wB+-tree, FP-tree) build their
//! cursors from. [`HeldApply`] wraps any index so that a test can hold
//! its batch applies, parking a commit between its sequence store and
//! its apply.

#![deny(missing_docs)]

pub mod chain;
pub mod workload;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pmem::{PmOffset, Pool};

/// Key type: the paper indexes 8-byte integer keys.
pub type Key = u64;

/// Value type: an 8-byte "record pointer".
///
/// The FAST algorithm requires all pointers within one node to be unique and
/// reserves two bit patterns: `0` (NULL, the array terminator) and
/// `u64::MAX` (the leaf anchor). Values must therefore be neither `0` nor
/// `u64::MAX`, and should be unique per key — which they naturally are when
/// they hold record addresses, as in the paper.
pub type Value = u64;

/// Errors returned by index operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The underlying pool ran out of memory.
    PoolExhausted(String),
    /// The value is one of the reserved bit patterns (0 or `u64::MAX`).
    ReservedValue(Value),
    /// The operation is not supported by this store configuration, or
    /// persistent metadata it needs is missing or corrupt (e.g. a pool
    /// without a valid shard manifest).
    Unsupported(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::PoolExhausted(e) => write!(f, "persistent pool exhausted: {e}"),
            IndexError::ReservedValue(v) => {
                write!(f, "value {v:#x} is a reserved bit pattern (0 or u64::MAX)")
            }
            IndexError::Unsupported(e) => write!(f, "unsupported by this store: {e}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<pmem::PmError> for IndexError {
    fn from(e: pmem::PmError) -> Self {
        match e {
            // Corrupt metadata, like a failed magic or checksum check.
            pmem::PmError::BadTarget { .. } | pmem::PmError::BadRecord { .. } => {
                IndexError::Unsupported(e.to_string())
            }
            _ => IndexError::PoolExhausted(e.to_string()),
        }
    }
}

/// A streaming, resettable scan over an index.
///
/// A cursor is created by [`PmIndex::cursor`] positioned *before the
/// smallest key*; [`Cursor::next`] then yields live `(key, value)` pairs in
/// strictly ascending key order without materializing the result set.
/// [`Cursor::seek`] repositions the cursor so the next call to `next`
/// returns the first entry with `key >= target` — the sibling-linked leaf
/// walk of the paper's §5.3 range-query evaluation.
///
/// ## Consistency under concurrency
///
/// Cursors over the lock-free indexes are *non-blocking snapshots of the
/// leaf chain*: every key committed before the cursor passed over its
/// position is observed exactly once, and no key is ever yielded twice or
/// out of order (in-flight FAST shifts and half-finished FAIR splits are
/// detected and filtered). Keys inserted or removed *while* the cursor is
/// mid-flight may or may not be observed — the same guarantee the paper
/// gives its lock-free range scans.
pub trait Cursor {
    /// Repositions the cursor: the next call to [`Cursor::next`] returns
    /// the first entry with `key >= target`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{Cursor, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.bulk_load(&mut [(10u64, 1u64), (20, 2), (30, 3)].into_iter())?;
    /// let mut cur = tree.cursor();
    /// cur.seek(15); // between keys: lands on the next one
    /// assert_eq!(cur.next(), Some((20, 2)));
    /// cur.seek(10); // seeking backwards reuses the same cursor
    /// assert_eq!(cur.next(), Some((10, 1)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn seek(&mut self, target: Key);

    /// Returns the next entry in ascending key order, or `None` when the
    /// index is exhausted.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{Cursor, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(2, 20)?;
    /// tree.insert(1, 10)?;
    /// let mut cur = tree.cursor(); // starts before the smallest key
    /// assert_eq!(cur.next(), Some((1, 10)));
    /// assert_eq!(cur.next(), Some((2, 20)));
    /// assert_eq!(cur.next(), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn next(&mut self) -> Option<(Key, Value)>;

    /// Repositions the cursor for **descending** iteration: the next call
    /// to [`Cursor::prev`] returns the last entry with `key <= target`.
    ///
    /// The mirror image of [`Cursor::seek`] — where `seek` opens an
    /// ascending scan from a lower bound, `seek_for_prev` opens a
    /// descending scan from an upper bound (the `ORDER BY ... DESC` entry
    /// point, and how TPC-C Order-Status lands directly on a customer's
    /// newest order instead of streaming every order forward).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{Cursor, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.bulk_load(&mut [(10u64, 1u64), (20, 2), (30, 3)].into_iter())?;
    /// let mut cur = tree.cursor();
    /// cur.seek_for_prev(25); // between keys: lands on the previous one
    /// assert_eq!(cur.prev(), Some((20, 2)));
    /// cur.seek_for_prev(30); // exact hit is included
    /// assert_eq!(cur.prev(), Some((30, 3)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn seek_for_prev(&mut self, target: Key);

    /// Returns the next entry in **descending** key order, or `None` when
    /// the scan has moved below the smallest key.
    ///
    /// Must be preceded by [`Cursor::seek_for_prev`]; interleaving with
    /// [`Cursor::next`] is not supported — switch direction by re-seeking.
    /// Reverse scans carry the same concurrency guarantee as forward
    /// scans: entries committed before the cursor passed their position
    /// are observed exactly once, in strictly descending order.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{Cursor, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(2, 20)?;
    /// tree.insert(1, 10)?;
    /// let mut cur = tree.cursor();
    /// cur.seek_for_prev(u64::MAX); // from the top
    /// assert_eq!(cur.prev(), Some((2, 20)));
    /// assert_eq!(cur.prev(), Some((1, 10)));
    /// assert_eq!(cur.prev(), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn prev(&mut self) -> Option<(Key, Value)>;
}

impl Cursor for Box<dyn Cursor + '_> {
    fn seek(&mut self, target: Key) {
        (**self).seek(target)
    }
    fn next(&mut self) -> Option<(Key, Value)> {
        (**self).next()
    }
    fn seek_for_prev(&mut self, target: Key) {
        (**self).seek_for_prev(target)
    }
    fn prev(&mut self) -> Option<(Key, Value)> {
        (**self).prev()
    }
}

/// One staged operation of a multi-key write batch — the unit the `txn`
/// crate's redo journal records and [`PmIndex::apply_batch`] applies.
///
/// Both variants are **idempotent redo** operations: applying one twice
/// leaves the index exactly as applying it once, which is what lets a
/// committed journal be replayed from the top after a crash cut the
/// first apply short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Upsert `key → value` (replaying over an already-applied put
    /// rewrites the same value).
    Put(Key, Value),
    /// Remove `key` (replaying over an already-applied delete is a
    /// no-op on the absent key).
    Delete(Key),
}

impl BatchOp {
    /// The key this op writes — what routers shard on.
    ///
    /// ```
    /// use pmindex::BatchOp;
    ///
    /// assert_eq!(BatchOp::Put(7, 70).key(), 7);
    /// assert_eq!(BatchOp::Delete(9).key(), 9);
    /// ```
    pub fn key(&self) -> Key {
        match *self {
            BatchOp::Put(k, _) | BatchOp::Delete(k) => k,
        }
    }
}

/// A persistent ordered key-value index.
///
/// All methods take `&self`: implementations are internally synchronized,
/// so the same trait serves the single-threaded latency experiments
/// (Figures 3–6) and the multi-threaded scalability experiment (Figure 7).
///
/// The required surface is deliberately transaction-grade: upserts report
/// the value they replaced, scans stream through [`Cursor`]s instead of
/// materializing `Vec`s, and bulk construction goes through
/// [`PmIndex::bulk_load`] so implementations can build their structure
/// bottom-up.
pub trait PmIndex: Send + Sync {
    /// Inserts `key → value`, replacing the previous value if the key
    /// already exists (B+-tree upsert semantics, as in the paper's TPC-C
    /// usage). Returns the replaced value, or `None` if the key was new.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// assert_eq!(tree.insert(7, 70)?, None);       // fresh key
    /// assert_eq!(tree.insert(7, 71)?, Some(70));   // upsert reports old value
    /// assert!(tree.insert(8, 0).is_err());         // 0 is reserved
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::ReservedValue`] if `value` is 0 or `u64::MAX`;
    /// [`IndexError::PoolExhausted`] if the pool cannot fit more nodes.
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError>;

    /// Updates an *existing* key in place, returning the replaced value;
    /// does **not** insert when the key is absent (returns `Ok(None)` and
    /// leaves the index unchanged).
    ///
    /// Every implementation commits the new value with a single
    /// failure-atomic 8-byte store, so a crash can expose the old value or
    /// the new one, never a torn mixture.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(5, 50)?;
    /// assert_eq!(tree.update(5, 51)?, Some(50)); // in-place
    /// assert_eq!(tree.update(6, 60)?, None);     // absent: NOT inserted
    /// assert_eq!(tree.get(6), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::ReservedValue`] if `value` is 0 or `u64::MAX`.
    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError>;

    /// Exact-match lookup.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(3, 30)?;
    /// assert_eq!(tree.get(3), Some(30));
    /// assert_eq!(tree.get(4), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn get(&self, key: Key) -> Option<Value>;

    /// Removes a key; returns `true` if it was present.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(9, 90)?;
    /// assert!(tree.remove(9));
    /// assert!(!tree.remove(9)); // already gone
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn remove(&self, key: Key) -> bool;

    /// Opens a streaming cursor positioned before the smallest key.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{Cursor, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.bulk_load(&mut (1..=100u64).map(|k| (k, k + 1)))?;
    /// let mut cur = tree.cursor();
    /// assert_eq!(cur.next(), Some((1, 2))); // streams in ascending order
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn cursor(&self) -> Box<dyn Cursor + '_>;

    /// Number of live keys. O(n) unless an implementation overrides it;
    /// intended for tests, tooling and capacity planning, not hot paths.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(1, 10)?;
    /// tree.insert(2, 20)?;
    /// assert_eq!(tree.len(), 2);
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
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// assert!(tree.is_empty());
    /// tree.insert(1, 10)?;
    /// assert!(!tree.is_empty());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn is_empty(&self) -> bool {
        self.cursor().next().is_none()
    }

    /// Appends every `(key, value)` with `lo <= key < hi`, in ascending key
    /// order, to `out`.
    ///
    /// Convenience wrapper over [`PmIndex::cursor`] for callers that want a
    /// materialized result; streaming consumers should drive a cursor
    /// directly.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.bulk_load(&mut (1..=10u64).map(|k| (k, k * 10)))?;
    /// let mut out = Vec::new();
    /// tree.range(3, 6, &mut out); // half-open window [3, 6)
    /// assert_eq!(out, vec![(3, 30), (4, 40), (5, 50)]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) {
        if lo >= hi {
            return;
        }
        let mut c = self.cursor();
        c.seek(lo);
        while let Some((k, v)) = c.next() {
            if k >= hi {
                break;
            }
            out.push((k, v));
        }
    }

    /// Loads `items` in bulk, returning the number of *new* keys inserted
    /// (duplicates upsert and are not counted).
    ///
    /// The default implementation loop-inserts, which is correct for any
    /// input order. Implementations with a sorted layout (FAST+FAIR)
    /// override it with a bottom-up builder that packs leaves directly and
    /// expects ascending keys for the fast path.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(2, 99)?; // pre-existing key
    /// let fresh = tree.bulk_load(&mut [(1u64, 10u64), (2, 20), (3, 30)].into_iter())?;
    /// assert_eq!(fresh, 2); // the duplicate upserted, not counted
    /// assert_eq!(tree.get(2), Some(20));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first insertion failure; items before it are loaded.
    fn bulk_load(
        &self,
        items: &mut dyn Iterator<Item = (Key, Value)>,
    ) -> Result<usize, IndexError> {
        let mut fresh = 0;
        for (k, v) in items {
            if self.insert(k, v)?.is_none() {
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// Applies a batch of staged operations in order.
    ///
    /// This is the *redo-apply* seam the `txn` crate's `WriteBatch`
    /// drives: each op is individually failure-atomic (the same
    /// old-or-new guarantee as [`insert`](PmIndex::insert) /
    /// [`remove`](PmIndex::remove)), and each op is **idempotent** —
    /// re-upserting an already-applied value or re-removing an absent
    /// key changes nothing — so a committed journal can be replayed from
    /// the top after a crash at any point. Atomicity *across* the ops is
    /// the journal's job, not this method's.
    ///
    /// The default loop-applies. Routers override it to group ops per
    /// backing store (e.g. `shard::ShardedStore` applies each shard's
    /// group under a single write-gate acquisition).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{BatchOp, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(2, 20)?;
    /// tree.apply_batch(&[
    ///     BatchOp::Put(1, 10),
    ///     BatchOp::Put(2, 21), // upsert
    ///     BatchOp::Delete(3), // absent: no-op
    /// ])?;
    /// assert_eq!(tree.get(1), Some(10));
    /// assert_eq!(tree.get(2), Some(21));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first op failure; ops before it are applied.
    fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
        for op in ops {
            match *op {
                BatchOp::Put(k, v) => {
                    self.insert(k, v)?;
                }
                BatchOp::Delete(k) => {
                    self.remove(k);
                }
            }
        }
        Ok(())
    }

    /// Applies `ops` exactly as [`apply_batch`](PmIndex::apply_batch)
    /// does and pushes one entry per op onto `prev`, in op order: the
    /// value a `Put` replaced or a `Delete` removed, `None` if the key
    /// was absent. A later op on the same key sees the earlier one (a
    /// `Put` after a `Delete` of the same key reports `None`).
    ///
    /// This is how a group commit answers "what did my upsert replace?"
    /// without a read of its own: FAST's in-place write already stands on
    /// the record it overwrites. The default is built from what every
    /// implementor has — one [`get`](PmIndex::get) per op (same-key ops
    /// tracked inside the batch), then `apply_batch(ops)` — so an index
    /// or wrapper that only overrides `apply_batch` stays correct and
    /// batched. Single-writer-per-key callers (the `service` lanes, the
    /// `txn` journal lock) get exact answers from it; an index that can
    /// report the old value from the write itself (`FastFairTree`,
    /// `shard::ShardedStore`) overrides it with a single descent per op.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{BatchOp, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// tree.insert(2, 20)?;
    /// let mut prev = Vec::new();
    /// tree.apply_batch_prev(
    ///     &[
    ///         BatchOp::Put(1, 10),  // fresh key
    ///         BatchOp::Put(2, 21),  // replaces 20
    ///         BatchOp::Delete(2),   // removes the 21 staged one op earlier
    ///         BatchOp::Delete(3),   // absent
    ///         BatchOp::Put(2, 22),  // after the delete: nothing to replace
    ///     ],
    ///     &mut prev,
    /// )?;
    /// assert_eq!(prev, vec![None, Some(20), Some(21), None, None]);
    /// assert_eq!(tree.get(2), Some(22));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`apply_batch`](PmIndex::apply_batch); after an error the
    /// entries pushed onto `prev` are unspecified.
    fn apply_batch_prev(
        &self,
        ops: &[BatchOp],
        prev: &mut Vec<Option<Value>>,
    ) -> Result<(), IndexError> {
        let mut staged: HashMap<Key, Option<Value>> = HashMap::new();
        for op in ops {
            let after = match *op {
                BatchOp::Put(_, v) => Some(v),
                BatchOp::Delete(_) => None,
            };
            prev.push(match staged.insert(op.key(), after) {
                Some(before) => before,
                None => self.get(op.key()),
            });
        }
        self.apply_batch(ops)
    }

    /// Short human-readable name used in test failures and reports
    /// (e.g. `"FAST+FAIR"`, `"wB+-tree"`).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
    /// assert_eq!(tree.name(), "FAST+FAIR");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn name(&self) -> &'static str;
}

macro_rules! forward_pmindex {
    () => {
        forward_pmindex!(all_but_apply);
        fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
            (**self).apply_batch(ops)
        }
        fn apply_batch_prev(
            &self,
            ops: &[BatchOp],
            prev: &mut Vec<Option<Value>>,
        ) -> Result<(), IndexError> {
            (**self).apply_batch_prev(ops, prev)
        }
    };
    (all_but_apply) => {
        fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
            (**self).insert(key, value)
        }
        fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
            (**self).update(key, value)
        }
        fn get(&self, key: Key) -> Option<Value> {
            (**self).get(key)
        }
        fn remove(&self, key: Key) -> bool {
            (**self).remove(key)
        }
        fn cursor(&self) -> Box<dyn Cursor + '_> {
            (**self).cursor()
        }
        fn len(&self) -> usize {
            (**self).len()
        }
        fn is_empty(&self) -> bool {
            (**self).is_empty()
        }
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) {
            (**self).range(lo, hi, out)
        }
        fn bulk_load(
            &self,
            items: &mut dyn Iterator<Item = (Key, Value)>,
        ) -> Result<usize, IndexError> {
            (**self).bulk_load(items)
        }
        fn name(&self) -> &'static str {
            (**self).name()
        }
    };
}

impl<T: PmIndex + ?Sized> PmIndex for &T {
    forward_pmindex!();
}

impl<T: PmIndex + ?Sized> PmIndex for Box<T> {
    forward_pmindex!();
}

impl<T: PmIndex + ?Sized> PmIndex for std::sync::Arc<T> {
    forward_pmindex!();
}

/// A [`PmIndex`] whose batch applies can be held: while an [`ApplyHold`]
/// from [`HeldApply::hold`] lives, [`PmIndex::apply_batch`] and
/// [`PmIndex::apply_batch_prev`] wait before they touch the index. Every
/// other method, reads included, forwards at once, and the wrapper
/// dereferences to the index it wraps.
///
/// Tests use it to park a commit: take a hold, then submit a write, and
/// the committer stops between `txn`'s sequence store and its apply, so
/// the write is provably in flight until the hold drops.
///
/// ```
/// use std::sync::Arc;
/// use pmindex::{BatchOp, HeldApply, PmIndex};
///
/// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
/// let tree = HeldApply::new(fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?);
/// let hold = tree.hold();
/// std::thread::scope(|s| {
///     let apply = s.spawn(|| tree.apply_batch(&[BatchOp::Put(1, 10), BatchOp::Put(2, 20)]));
///     std::thread::sleep(std::time::Duration::from_millis(10));
///     assert!(!apply.is_finished()); // held: the batch waits...
///     assert_eq!((tree.get(1), tree.get(2)), (None, None)); // ...and shows none of it
///     drop(hold);
///     apply.join().expect("apply thread")
/// })?;
/// assert_eq!((tree.get(1), tree.get(2)), (Some(10), Some(20))); // released: all of it
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct HeldApply<I> {
    inner: I,
    holds: AtomicUsize,
}

impl<I> HeldApply<I> {
    /// Wraps `inner` with no hold taken.
    pub fn new(inner: I) -> Self {
        HeldApply {
            inner,
            holds: AtomicUsize::new(0),
        }
    }

    /// Holds every batch apply until the returned guard (and any other
    /// live one) drops.
    pub fn hold(&self) -> ApplyHold<'_> {
        self.holds.fetch_add(1, Ordering::SeqCst);
        ApplyHold(&self.holds)
    }

    fn wait_for_release(&self) {
        while self.holds.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
    }
}

impl<I> std::ops::Deref for HeldApply<I> {
    type Target = I;
    fn deref(&self) -> &I {
        &self.inner
    }
}

impl<I: PmIndex> PmIndex for HeldApply<I> {
    forward_pmindex!(all_but_apply);
    fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
        self.wait_for_release();
        self.inner.apply_batch(ops)
    }
    fn apply_batch_prev(
        &self,
        ops: &[BatchOp],
        prev: &mut Vec<Option<Value>>,
    ) -> Result<(), IndexError> {
        self.wait_for_release();
        self.inner.apply_batch_prev(ops, prev)
    }
}

/// A hold on a [`HeldApply`]'s batch applies; dropping it releases them.
#[must_use = "the hold is released as soon as the guard drops"]
pub struct ApplyHold<'a>(&'a AtomicUsize);

impl Drop for ApplyHold<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A [`PmIndex`] that lives inside a [`pmem::Pool`] and can be re-opened
/// from its persistent superblock — the contract a *router* (such as
/// `crates/shard`'s `ShardedStore`) needs to create per-shard indexes,
/// record them in a crash-consistent manifest, and reconstruct the whole
/// deployment after a restart.
///
/// Every index in this repository (FAST+FAIR, wB+-tree, FP-tree, WORT,
/// the persistent skip list) implements it.
pub trait PersistentIndex: PmIndex + Sized {
    /// Creates a fresh, empty index inside `pool` with the
    /// implementation's default configuration.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{PersistentIndex, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create_in(pool)?;
    /// assert!(tree.is_empty());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::PoolExhausted`] if the pool cannot hold the
    /// superblock and initial node(s).
    fn create_in(pool: Arc<Pool>) -> Result<Self, IndexError>;

    /// Re-opens the index whose superblock is at `meta` (the paper's
    /// "instantaneous recovery" entry point).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::{PersistentIndex, PmIndex};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create_in(Arc::clone(&pool))?;
    /// tree.insert(1, 10)?;
    /// let meta = tree.superblock();
    /// drop(tree);
    /// let again = fastfair::FastFairTree::open_in(pool, meta)?;
    /// assert_eq!(again.get(1), Some(10));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails if no valid superblock lives at `meta`.
    fn open_in(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError>;

    /// Offset of the persistent superblock identifying this index inside
    /// its pool — what a directory object (or shard manifest) stores so
    /// [`PersistentIndex::open_in`] can find the index again.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PersistentIndex;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create_in(pool)?;
    /// assert_ne!(tree.superblock(), 0); // offset 0 is the NULL pointer
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    fn superblock(&self) -> PmOffset;
}

/// Iterator adapter draining a [`Cursor`] — bridges the streaming-scan
/// world into APIs that want an `Iterator`, most importantly
/// [`PmIndex::bulk_load`]: `bulk_load(&mut CursorIter(src.cursor()))`
/// streams one index into another without materializing it.
///
/// ```
/// use std::sync::Arc;
/// use pmindex::{CursorIter, PersistentIndex, PmIndex};
///
/// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
/// let src = fastfair::FastFairTree::create_in(Arc::clone(&pool))?;
/// src.bulk_load(&mut (1..=500u64).map(|k| (k, k + 1)))?;
/// let dst = fastfair::FastFairTree::create_in(pool)?;
/// // Stream src -> dst through a cursor; ascending order hits the
/// // bottom-up fast path on the destination.
/// let moved = dst.bulk_load(&mut CursorIter(src.cursor()))?;
/// assert_eq!(moved, 500);
/// assert_eq!(dst.get(250), Some(251));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CursorIter<C>(
    /// The cursor to drain.
    pub C,
);

impl<C: Cursor> Iterator for CursorIter<C> {
    type Item = (Key, Value);
    fn next(&mut self) -> Option<(Key, Value)> {
        self.0.next()
    }
}

/// The routing half of [`PmIndex::apply_batch_prev`] for anything that
/// fans a batch out over several backing stores one after another
/// (`txn::apply_grouped_prev` over its tables): splits
/// `ops` — each tagged with its bucket — into one group per bucket in
/// batch order, hands every non-empty group to `apply(bucket, group,
/// group_prev)` once, and scatters the group's answers back so `prev`
/// gains one entry per op **in input order**. Buckets hold disjoint
/// keyspaces, so regrouping cannot reorder two ops on the same key.
///
/// ```
/// use pmindex::{apply_bucketed_prev, BatchOp};
///
/// // Two "stores": even keys hold 2, odd keys hold 1.
/// let ops = [BatchOp::Delete(1), BatchOp::Delete(2), BatchOp::Delete(3)];
/// let mut prev = Vec::new();
/// apply_bucketed_prev(
///     2,
///     ops.iter().map(|&op| ((op.key() % 2) as usize, op)),
///     &mut prev,
///     |bucket, group, out| {
///         out.extend(group.iter().map(|_| Some(if bucket == 0 { 2 } else { 1 })));
///         Ok(())
///     },
/// )?;
/// assert_eq!(prev, vec![Some(1), Some(2), Some(1)]);
/// # Ok::<(), pmindex::IndexError>(())
/// ```
///
/// # Errors
///
/// Propagates the first `apply` failure (later buckets are not applied);
/// the entries pushed onto `prev` are then unspecified.
///
/// # Panics
///
/// Panics if an op names a bucket `>= buckets`, or if `apply` pushes a
/// different number of entries than it was handed ops.
pub fn apply_bucketed_prev(
    buckets: usize,
    ops: impl Iterator<Item = (usize, BatchOp)>,
    prev: &mut Vec<Option<Value>>,
    mut apply: impl FnMut(usize, &[BatchOp], &mut Vec<Option<Value>>) -> Result<(), IndexError>,
) -> Result<(), IndexError> {
    // Per bucket: its ops, and where each one sat in the input.
    let mut groups: Vec<(Vec<BatchOp>, Vec<usize>)> = vec![Default::default(); buckets];
    let base = prev.len();
    let mut total = 0;
    for (bucket, op) in ops {
        groups[bucket].0.push(op);
        groups[bucket].1.push(total);
        total += 1;
    }
    prev.resize(base + total, None);
    let mut group_prev = Vec::new();
    for (bucket, (group, at)) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        group_prev.clear();
        apply(bucket, group, &mut group_prev)?;
        assert_eq!(group_prev.len(), group.len(), "one prev entry per op");
        for (&at, &p) in at.iter().zip(&group_prev) {
            prev[base + at] = p;
        }
    }
    Ok(())
}

/// Checks that a value is not one of the reserved bit patterns.
///
/// ```
/// assert!(pmindex::check_value(1).is_ok());
/// assert!(pmindex::check_value(0).is_err());
/// assert!(pmindex::check_value(u64::MAX).is_err());
/// ```
///
/// # Errors
///
/// Returns [`IndexError::ReservedValue`] for 0 and `u64::MAX`.
#[inline]
pub fn check_value(value: Value) -> Result<(), IndexError> {
    if value == 0 || value == u64::MAX {
        Err(IndexError::ReservedValue(value))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_values_rejected() {
        assert!(check_value(0).is_err());
        assert!(check_value(u64::MAX).is_err());
        assert!(check_value(1).is_ok());
        assert!(check_value(u64::MAX - 1).is_ok());
    }

    #[test]
    fn index_error_display() {
        let e = IndexError::ReservedValue(0);
        assert!(e.to_string().contains("reserved"));
        let e: IndexError = pmem::PmError::PoolTooSmall.into();
        assert!(e.to_string().contains("exhausted"));
        let bad = pmem::PmError::BadTarget {
            cell: 24,
            target: 1 << 40,
            len: 40,
        };
        assert!(matches!(IndexError::from(bad), IndexError::Unsupported(_)));
    }

    /// Minimal reference implementation used to pin down the default-method
    /// contracts (`range`, `len`, `is_empty`, `bulk_load`).
    struct ModelIndex(std::sync::Mutex<std::collections::BTreeMap<Key, Value>>);

    struct ModelCursor<'a> {
        idx: &'a ModelIndex,
        from: Key,
        done: bool,
    }

    impl Cursor for ModelCursor<'_> {
        fn seek(&mut self, target: Key) {
            self.from = target;
            self.done = false;
        }
        fn next(&mut self) -> Option<(Key, Value)> {
            if self.done {
                return None;
            }
            let map = self.idx.0.lock().unwrap();
            match map.range(self.from..).next() {
                Some((&k, &v)) => {
                    match k.checked_add(1) {
                        Some(n) => self.from = n,
                        None => self.done = true,
                    }
                    Some((k, v))
                }
                None => {
                    self.done = true;
                    None
                }
            }
        }
        fn seek_for_prev(&mut self, target: Key) {
            self.from = target;
            self.done = false;
        }
        fn prev(&mut self) -> Option<(Key, Value)> {
            if self.done {
                return None;
            }
            let map = self.idx.0.lock().unwrap();
            match map.range(..=self.from).next_back() {
                Some((&k, &v)) => {
                    match k.checked_sub(1) {
                        Some(n) => self.from = n,
                        None => self.done = true,
                    }
                    Some((k, v))
                }
                None => {
                    self.done = true;
                    None
                }
            }
        }
    }

    impl PmIndex for ModelIndex {
        fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
            check_value(value)?;
            Ok(self.0.lock().unwrap().insert(key, value))
        }
        fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
            check_value(value)?;
            let mut map = self.0.lock().unwrap();
            match map.get_mut(&key) {
                Some(slot) => Ok(Some(std::mem::replace(slot, value))),
                None => Ok(None),
            }
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn remove(&self, key: Key) -> bool {
            self.0.lock().unwrap().remove(&key).is_some()
        }
        fn cursor(&self) -> Box<dyn Cursor + '_> {
            Box::new(ModelCursor {
                idx: self,
                from: 0,
                done: false,
            })
        }
        fn name(&self) -> &'static str {
            "model"
        }
    }

    #[test]
    fn default_methods_follow_the_contract() {
        let idx = ModelIndex(std::sync::Mutex::new(Default::default()));
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        // bulk_load counts only fresh keys.
        let items = [(5u64, 50u64), (1, 10), (5, 51), (9, 90)];
        let fresh = idx.bulk_load(&mut items.iter().copied()).unwrap();
        assert_eq!(fresh, 3);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.get(5), Some(51));
        // insert reports the replaced value.
        assert_eq!(idx.insert(9, 91).unwrap(), Some(90));
        assert_eq!(idx.insert(2, 20).unwrap(), None);
        // update never inserts.
        assert_eq!(idx.update(3, 30).unwrap(), None);
        assert_eq!(idx.get(3), None);
        assert_eq!(idx.update(1, 11).unwrap(), Some(10));
        // range is the cursor-derived window.
        let mut out = Vec::new();
        idx.range(2, 9, &mut out);
        assert_eq!(out, vec![(2, 20), (5, 51)]);
        out.clear();
        idx.range(9, 2, &mut out);
        assert!(out.is_empty());
        // A cursor can be reused via seek.
        {
            let mut c = idx.cursor();
            assert_eq!(c.next(), Some((1, 11)));
            c.seek(5);
            assert_eq!(c.next(), Some((5, 51)));
            assert_eq!(c.next(), Some((9, 91)));
            assert_eq!(c.next(), None);
            // ...and flipped into a descending scan by seek_for_prev.
            c.seek_for_prev(5);
            assert_eq!(c.prev(), Some((5, 51)));
            assert_eq!(c.prev(), Some((2, 20)));
            assert_eq!(c.prev(), Some((1, 11)));
            assert_eq!(c.prev(), None);
        }
        // Forwarding impls preserve the whole surface.
        let boxed: Box<dyn PmIndex> = Box::new(idx);
        assert_eq!(boxed.len(), 4);
        assert_eq!(boxed.update(2, 21).unwrap(), Some(20));
        let mut c = boxed.cursor();
        c.seek(u64::MAX);
        assert_eq!(c.next(), None);
    }
}

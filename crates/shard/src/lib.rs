//! # Sharded `PmIndex` router
//!
//! The paper removes logging from *one* B+-tree; this crate scales the
//! result *out*. A [`ShardedStore`] routes every operation of the
//! [`PmIndex`] trait across `N` per-shard indexes — each typically in its
//! own [`pmem::Pool`] — by a multiplicative hash of the key
//! ([`Partitioning`]). Because `ShardedStore` itself implements
//! [`PmIndex`], every harness in this repository (differential tests,
//! TPC-C, the figure benches) runs against it unchanged.
//!
//! Three design points carry the paper's spirit upward a layer:
//!
//! * **Scans stay streaming.** [`PmIndex::cursor`] returns a K-way
//!   binary-heap merge over per-shard [`Cursor`]s. Per-shard entries are
//!   pulled in small refill batches, so a cross-shard scan never
//!   materializes a result set.
//! * **The shard map commits like a FAST store.** A persistent deployment
//!   is one `catalog` entry (each shard's pool and superblock), committed
//!   by the catalog record's one failure-atomic publish and reopened by
//!   `Catalog::open_sharded`. The map never changes after that: the
//!   shards stay compact the paper's way, by FAIR splits and merges
//!   inside each tree.
//! * **A batch applies its shards in parallel.** Shards hold disjoint
//!   keys, so only ops within one shard must keep their order.
//!   [`PmIndex::apply_batch`] and [`PmIndex::apply_batch_prev`] route a
//!   batch once; when two shards each get at least [`MIN_SPLIT`] ops, the
//!   smaller such group goes to a helper thread the store owns while the
//!   calling thread applies the rest, and the call returns once both are
//!   done — FAST+FAIR's concurrent writers on different nodes (§5.6), used
//!   for a redo journal's apply phase. The helper hands its `pmem::stats`
//!   counters back at the join, so the caller's counters cover the whole
//!   batch.
//!
//! ```
//! use std::sync::Arc;
//! use fastfair::FastFairTree;
//! use pmem::{Pool, PoolConfig};
//! use pmindex::{PersistentIndex, PmIndex};
//! use shard::{Partitioning, ShardedStore};
//!
//! // Four FAST+FAIR shards, each in its own pool, hash partitioned.
//! let trees = (0..4)
//!     .map(|_| FastFairTree::create_in(Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?)))
//!     .collect::<Result<Vec<_>, _>>()?;
//! let store = ShardedStore::from_indexes(trees, Partitioning::Hash { shards: 4 });
//! for k in 1..=1000u64 {
//!     store.insert(k, k + 7)?;
//! }
//! assert_eq!(store.len(), 1000);
//! let mut out = Vec::new();
//! store.range(100, 110, &mut out); // merged across all four shards
//! assert_eq!(out.len(), 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

#[cfg(test)]
mod apply_tests;
mod helper;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pmindex::{BatchOp, Cursor, IndexError, Key, PmIndex, Value};

/// How keys are distributed across shards: a multiplicative hash of the
/// key, so load is uniform and key order is destroyed across shards
/// (scans use a heap merge).
///
/// ```
/// use shard::Partitioning;
///
/// let hash = Partitioning::Hash { shards: 4 };
/// assert_eq!(hash.shards(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// Multiplicative hashing of the key.
    Hash {
        /// Number of shards.
        shards: usize,
    },
}

impl Partitioning {
    /// Number of shards this partitioning describes.
    ///
    /// ```
    /// assert_eq!(shard::Partitioning::Hash { shards: 8 }.shards(), 8);
    /// ```
    pub fn shards(&self) -> usize {
        let Partitioning::Hash { shards } = self;
        *shards
    }

    /// The shard a key routes to. A persistent deployment's keys sit where
    /// this put them, so the function never changes.
    ///
    /// ```
    /// use shard::Partitioning;
    ///
    /// let h = Partitioning::Hash { shards: 3 };
    /// assert!(h.shard_of(42) < 3);
    /// ```
    pub fn shard_of(&self, key: Key) -> usize {
        // Murmur-style finalizer: spread adjacent keys uniformly.
        let mut h = key;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % self.shards() as u64) as usize
    }
}

/// A router over `N` per-shard [`PmIndex`] instances that is itself a
/// [`PmIndex`].
///
/// Construct it with [`ShardedStore::from_indexes`] over any indexes. A
/// persistent deployment registers its shard map in a `catalog`, which
/// reopens it the same way after a restart. The shard map is fixed for
/// the store's lifetime.
pub struct ShardedStore<I> {
    shards: Vec<I>,
    partitioning: Partitioning,
    /// See [`ShardedStore::reclaim_domain`]: nothing retires into it.
    reclaim: Arc<epoch::EpochDomain>,
    /// The thread that applies one shard's group of a split batch:
    /// started by the first split, joined when the store drops. `None`
    /// inside means it could not be started, and batches apply serially.
    helper: OnceLock<Option<helper::Helper>>,
    /// Batch applies that split (see [`ShardedStore::split_applies`]).
    split_applies: AtomicU64,
}

/// Fewest ops that each of two shards must receive before a batch apply
/// splits across the calling thread and the store's helper thread, so a
/// group of one op is not worth a hand-over. On the standing benchmark's
/// write workload (`perf`'s `svc_write`) 1, 2 and 4 measure within
/// run-to-run noise of each other, and 96–97 % of its groups split at 2.
pub const MIN_SPLIT: usize = 2;

impl<I> std::fmt::Debug for ShardedStore<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("partitioning", &self.partitioning)
            .finish()
    }
}

impl<I: PmIndex> ShardedStore<I> {
    /// Builds a router over caller-constructed indexes. It persists
    /// nothing itself: the shard map lives only as long as the store
    /// unless the caller registers it in a `catalog`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use fastfair::{FastFairTree, TreeOptions};
    /// use pmem::{Pool, PoolConfig};
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// // Two trees in one DRAM-latency pool.
    /// let pool = Arc::new(Pool::new(PoolConfig::new())?);
    /// let tree = || FastFairTree::create(Arc::clone(&pool), TreeOptions::new());
    /// let store = ShardedStore::from_indexes(
    ///     vec![tree()?, tree()?],
    ///     Partitioning::Hash { shards: 2 },
    /// );
    /// store.insert(1, 10)?;
    /// assert_eq!(store.get(1), Some(10));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `indexes` is empty or its length disagrees with the
    /// partitioning's shard count.
    pub fn from_indexes(indexes: Vec<I>, partitioning: Partitioning) -> Self {
        assert!(
            partitioning.shards() >= 1,
            "a sharded store needs at least 1 shard"
        );
        assert_eq!(
            indexes.len(),
            partitioning.shards(),
            "index count must match the partitioning's shard count"
        );
        ShardedStore {
            shards: indexes,
            partitioning,
            reclaim: epoch::EpochDomain::new(),
            helper: OnceLock::new(),
            split_applies: AtomicU64::new(0),
        }
    }

    /// The partitioning in force.
    ///
    /// ```
    /// use shard::{Partitioning, ShardedStore};
    /// # use std::sync::Arc;
    /// # use fastfair::{FastFairTree, TreeOptions};
    /// # use pmem::{Pool, PoolConfig};
    /// # let pool = Arc::new(Pool::new(PoolConfig::new())?);
    /// # let tree = || FastFairTree::create(Arc::clone(&pool), TreeOptions::new());
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![tree()?],
    ///     Partitioning::Hash { shards: 1 },
    /// );
    /// assert_eq!(store.partitioning().shards(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Number of shards (fixed for the lifetime of the store).
    ///
    /// ```
    /// use shard::{Partitioning, ShardedStore};
    /// # use std::sync::Arc;
    /// # use fastfair::{FastFairTree, TreeOptions};
    /// # use pmem::{Pool, PoolConfig};
    /// # let pool = Arc::new(Pool::new(PoolConfig::new())?);
    /// # let tree = || FastFairTree::create(Arc::clone(&pool), TreeOptions::new());
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![tree()?, tree()?],
    ///     Partitioning::Hash { shards: 2 },
    /// );
    /// assert_eq!(store.shard_count(), 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live keys in one shard — the load-balance observability
    /// hook.
    ///
    /// ```
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    /// # use std::sync::Arc;
    /// # use fastfair::{FastFairTree, TreeOptions};
    /// # use pmem::{Pool, PoolConfig};
    /// # let pool = Arc::new(Pool::new(PoolConfig::new())?);
    /// # let tree = || FastFairTree::create(Arc::clone(&pool), TreeOptions::new());
    ///
    /// let part = Partitioning::Hash { shards: 2 };
    /// let store = ShardedStore::from_indexes(vec![tree()?, tree()?], part.clone());
    /// for k in 1..=100 {
    ///     store.insert(k, k)?;
    /// }
    /// let low = (1..=100).filter(|&k| part.shard_of(k) == 0).count();
    /// assert_eq!((store.shard_len(0), store.shard_len(1)), (low, 100 - low));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    /// The store's reclamation epoch domain. Nothing retires into it any
    /// more — each shard's index reclaims through its own domain — so
    /// pinning it protects nothing; it stays only for callers that still
    /// pass it to `service::ServiceConfig::pin_domains`.
    ///
    /// ```
    /// use shard::{Partitioning, ShardedStore};
    /// # use std::sync::Arc;
    /// # use fastfair::{FastFairTree, TreeOptions};
    /// # use pmem::{Pool, PoolConfig};
    /// # let pool = Arc::new(Pool::new(PoolConfig::new())?);
    /// # let tree = || FastFairTree::create(Arc::clone(&pool), TreeOptions::new());
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![tree()?],
    ///     Partitioning::Hash { shards: 1 },
    /// );
    /// assert_eq!(store.reclaim_domain().limbo_len(), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn reclaim_domain(&self) -> &Arc<epoch::EpochDomain> {
        &self.reclaim
    }

    fn route(&self, key: Key) -> &I {
        &self.shards[self.partitioning.shard_of(key)]
    }

    /// Batch applies ([`PmIndex::apply_batch`] /
    /// [`PmIndex::apply_batch_prev`]) that split their shards' groups
    /// across the calling thread and the store's helper thread. A split
    /// group may still run on the calling thread, when the helper has not
    /// picked it up by the time the caller's own groups are done.
    ///
    /// ```
    /// use pmindex::{BatchOp, PmIndex};
    /// use shard::{Partitioning, ShardedStore, MIN_SPLIT};
    /// # use std::sync::Arc;
    /// # use fastfair::{FastFairTree, TreeOptions};
    /// # use pmem::{Pool, PoolConfig};
    /// # let pool = Arc::new(Pool::new(PoolConfig::new())?);
    /// # let tree = || FastFairTree::create(Arc::clone(&pool), TreeOptions::new());
    ///
    /// let part = &Partitioning::Hash { shards: 2 };
    /// let store = ShardedStore::from_indexes(vec![tree()?, tree()?], part.clone());
    /// // The first `n` keys of each shard.
    /// let ops = |n| -> Vec<BatchOp> {
    ///     let keys = |shard| (1..).filter(move |&k| part.shard_of(k) == shard).take(n);
    ///     keys(0).chain(keys(1)).map(|k| BatchOp::Put(k, k)).collect()
    /// };
    /// store.apply_batch(&ops(1))?;
    /// assert_eq!(store.split_applies(), 0); // one op per shard: serial
    /// store.apply_batch(&ops(MIN_SPLIT))?;
    /// assert_eq!(store.split_applies(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn split_applies(&self) -> u64 {
        self.split_applies.load(Ordering::Relaxed)
    }

    /// `ops` routed to their shards, in batch order within each shard.
    fn route_batch(&self, ops: &[BatchOp]) -> Vec<Vec<BatchOp>> {
        let mut groups = vec![Vec::new(); self.shards.len()];
        for &op in ops {
            groups[self.partitioning.shard_of(op.key())].push(op);
        }
        groups
    }

    /// Runs `apply` on every non-empty group against its shard, and
    /// returns the results by shard (`None` for an empty
    /// group). When [`ShardedStore::split_target`] names a group, it goes
    /// to the helper while this thread applies the others. On failure,
    /// which other groups applied is unspecified — each op is idempotent
    /// redo — and if both threads fail, this thread's error is returned.
    fn apply_groups<T: Send>(
        &self,
        groups: &[Vec<BatchOp>],
        apply: impl Fn(&I, &[BatchOp]) -> Result<T, IndexError> + Sync,
    ) -> Result<Vec<Option<T>>, IndexError> {
        let run = |shard: usize| {
            let group = &groups[shard];
            if group.is_empty() {
                return Ok(None);
            }
            apply(&self.shards[shard], group).map(Some)
        };
        let all_but = |skip: Option<usize>| {
            (0..groups.len())
                .filter(|&s| Some(s) != skip)
                .map(run)
                .collect::<Result<Vec<_>, _>>()
        };
        let Some((posted, helper)) = self.split_target(groups) else {
            return all_but(None);
        };
        self.split_applies.fetch_add(1, Ordering::Relaxed);
        let (mine, theirs) = helper.join(|| run(posted), || all_but(Some(posted)));
        let mut results = mine?;
        results.insert(posted, theirs?);
        Ok(results)
    }

    /// The group a batch apply hands to the helper, and the helper
    /// (started here on the store's first split): the smallest group of
    /// at least [`MIN_SPLIT`] ops, if another group is at least as large,
    /// so the calling thread keeps the larger half. `None`: apply
    /// serially.
    fn split_target(&self, groups: &[Vec<BatchOp>]) -> Option<(usize, &helper::Helper)> {
        let big = || {
            groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.len() >= MIN_SPLIT)
        };
        big().nth(1)?;
        let (posted, _) = big().min_by_key(|(_, g)| g.len())?;
        let helper = self
            .helper
            .get_or_init(|| helper::Helper::spawn().ok())
            .as_ref()?;
        Some((posted, helper))
    }
}

impl<I: PmIndex> PmIndex for ShardedStore<I> {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        self.route(key).insert(key, value)
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        self.route(key).update(key, value)
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.route(key).get(key)
    }

    fn remove(&self, key: Key) -> bool {
        self.route(key).remove(key)
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        Box::new(HashMergeCursor {
            feeds: self.shards.iter().map(Feed::new).collect(),
            heap: BinaryHeap::new(),
            heap_rev: BinaryHeap::new(),
            primed: false,
            reverse: false,
        })
    }

    fn len(&self) -> usize {
        self.shards.iter().map(I::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(I::is_empty)
    }

    fn bulk_load(
        &self,
        items: &mut dyn Iterator<Item = (Key, Value)>,
    ) -> Result<usize, IndexError> {
        // Split the stream by shard, preserving arrival order, so an
        // ascending input stays ascending per shard and hits each index's
        // bottom-up fast path. Deliberate trade-off: this transiently
        // buffers the whole input (O(n) memory) — the underlying
        // bulk loaders take their bottom-up path only on the FIRST load
        // into an empty index, so flushing in bounded chunks would demote
        // every chunk after the first to loop-inserts.
        let mut per_shard: Vec<Vec<(Key, Value)>> = vec![Vec::new(); self.shards.len()];
        for (k, v) in items {
            per_shard[self.partitioning.shard_of(k)].push((k, v));
        }
        let mut fresh = 0;
        for (shard, chunk) in self.shards.iter().zip(per_shard) {
            if !chunk.is_empty() {
                fresh += shard.bulk_load(&mut chunk.into_iter())?;
            }
        }
        Ok(fresh)
    }

    fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
        // Route once, then apply each shard's group with one call — two
        // shards in parallel when the batch is big enough. Within a
        // shard the ops keep batch order, so a Put/Delete pair on the same
        // key lands in the right final state; across shards the keyspaces
        // are disjoint, so regrouping cannot reorder conflicting ops.
        self.apply_groups(&self.route_batch(ops), |index, group| {
            index.apply_batch(group)
        })?;
        Ok(())
    }

    fn apply_batch_prev(
        &self,
        ops: &[BatchOp],
        prev: &mut Vec<Option<Value>>,
    ) -> Result<(), IndexError> {
        // The same grouping as `apply_batch`, each shard's answers
        // scattered back to where its ops sat in the input.
        let answers = self.apply_groups(&self.route_batch(ops), |index, group| {
            let mut out = Vec::with_capacity(group.len());
            index.apply_batch_prev(group, &mut out)?;
            assert_eq!(out.len(), group.len(), "one prev entry per op");
            Ok(out)
        })?;
        let mut answers: Vec<_> = answers
            .into_iter()
            .map(|a| a.unwrap_or_default().into_iter())
            .collect();
        prev.extend(ops.iter().map(|op| {
            answers[self.partitioning.shard_of(op.key())]
                .next()
                .expect("one answer per op")
        }));
        Ok(())
    }

    fn name(&self) -> &'static str {
        "Sharded(hash)"
    }
}

/// Entries pulled per shard per refill. Each refill opens a fresh
/// per-shard cursor and seeks — amortizing one tree descent over the
/// whole batch.
const FEED_BATCH: usize = 64;

/// Buffered stream of one shard's entries: re-opens a short-lived cursor
/// per refill batch, so a merged cursor holds no per-shard cursor (or its
/// epoch pin) between calls.
struct Feed<'a, I> {
    index: &'a I,
    buf: VecDeque<(Key, Value)>,
    next_seek: Key,
    exhausted: bool,
}

impl<'a, I: PmIndex> Feed<'a, I> {
    fn new(index: &'a I) -> Self {
        Feed {
            index,
            buf: VecDeque::new(),
            next_seek: 0,
            exhausted: false,
        }
    }

    fn reset(&mut self, target: Key) {
        self.buf.clear();
        self.next_seek = target;
        self.exhausted = false;
    }

    fn pop(&mut self) -> Option<(Key, Value)> {
        if self.buf.is_empty() && !self.exhausted {
            let mut cur = self.index.cursor();
            cur.seek(self.next_seek);
            for _ in 0..FEED_BATCH {
                match cur.next() {
                    Some(entry) => self.buf.push_back(entry),
                    None => {
                        self.exhausted = true;
                        break;
                    }
                }
            }
            match self.buf.back() {
                Some(&(last, _)) => match last.checked_add(1) {
                    Some(next) => self.next_seek = next,
                    None => self.exhausted = true, // u64::MAX was yielded
                },
                None => self.exhausted = true,
            }
        }
        self.buf.pop_front()
    }

    /// Descending twin of [`Feed::pop`]: `next_seek` carries the
    /// *upper* bound (inclusive) and each refill opens a short-lived
    /// per-shard cursor at `seek_for_prev` — one descent amortized over
    /// the whole batch, exactly like the forward path.
    fn pop_rev(&mut self) -> Option<(Key, Value)> {
        if self.buf.is_empty() && !self.exhausted {
            let mut cur = self.index.cursor();
            cur.seek_for_prev(self.next_seek);
            for _ in 0..FEED_BATCH {
                match cur.prev() {
                    Some(entry) => self.buf.push_back(entry),
                    None => {
                        self.exhausted = true;
                        break;
                    }
                }
            }
            match self.buf.back() {
                Some(&(last, _)) => match last.checked_sub(1) {
                    Some(next) => self.next_seek = next,
                    None => self.exhausted = true, // key 0 was yielded
                },
                None => self.exhausted = true,
            }
        }
        self.buf.pop_front()
    }
}

/// K-way heap merge over per-shard feeds: under hash partitioning every
/// shard may hold keys from anywhere in the keyspace.
struct HashMergeCursor<'a, I> {
    feeds: Vec<Feed<'a, I>>,
    /// Min-heap of the current head entry of each non-exhausted feed
    /// (ascending merge).
    heap: BinaryHeap<Reverse<(Key, Value, usize)>>,
    /// Max-heap twin driving the descending merge after a
    /// `seek_for_prev`.
    heap_rev: BinaryHeap<(Key, Value, usize)>,
    primed: bool,
    reverse: bool,
}

impl<I: PmIndex> Cursor for HashMergeCursor<'_, I> {
    fn seek(&mut self, target: Key) {
        for feed in &mut self.feeds {
            feed.reset(target);
        }
        self.heap.clear();
        self.heap_rev.clear();
        self.primed = false;
        self.reverse = false;
    }

    fn next(&mut self) -> Option<(Key, Value)> {
        if self.reverse {
            return None; // direction switches go through a re-seek
        }
        if !self.primed {
            self.primed = true;
            for (i, feed) in self.feeds.iter_mut().enumerate() {
                if let Some((k, v)) = feed.pop() {
                    self.heap.push(Reverse((k, v, i)));
                }
            }
        }
        let Reverse((key, value, i)) = self.heap.pop()?;
        if let Some((k, v)) = self.feeds[i].pop() {
            self.heap.push(Reverse((k, v, i)));
        }
        Some((key, value))
    }

    fn seek_for_prev(&mut self, target: Key) {
        for feed in &mut self.feeds {
            feed.reset(target);
        }
        self.heap.clear();
        self.heap_rev.clear();
        self.primed = false;
        self.reverse = true;
    }

    fn prev(&mut self) -> Option<(Key, Value)> {
        if !self.reverse {
            if self.primed {
                return None; // direction switches go through a re-seek
            }
            // Bare prev() on a fresh cursor: start from the top.
            self.seek_for_prev(Key::MAX);
        }
        if !self.primed {
            self.primed = true;
            for (i, feed) in self.feeds.iter_mut().enumerate() {
                if let Some((k, v)) = feed.pop_rev() {
                    self.heap_rev.push((k, v, i));
                }
            }
        }
        let (key, value, i) = self.heap_rev.pop()?;
        if let Some((k, v)) = self.feeds[i].pop_rev() {
            self.heap_rev.push((k, v, i));
        }
        Some((key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfair::FastFairTree;
    use pmem::{Pool, PoolConfig};
    use pmindex::PersistentIndex;

    fn pool(bytes: usize) -> Arc<Pool> {
        Arc::new(Pool::new(PoolConfig::new().size(bytes)).unwrap())
    }

    /// A hash-partitioned store whose shards are trees in one shared pool.
    fn hash_store(shards: usize) -> ShardedStore<FastFairTree> {
        let p = pool(32 << 20);
        let trees = (0..shards)
            .map(|_| FastFairTree::create_in(Arc::clone(&p)).unwrap())
            .collect();
        ShardedStore::from_indexes(trees, Partitioning::Hash { shards })
    }

    #[test]
    fn hash_routing_covers_all_shards() {
        let part = Partitioning::Hash { shards: 8 };
        let mut hit = [false; 8];
        for k in 1..1000u64 {
            hit[part.shard_of(k)] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    /// A persistent deployment's keys stay in the shards this routing put
    /// them in, so it may never change.
    #[test]
    fn hash_routing_is_pinned() {
        let keys: Vec<Key> = (1..=12).chain([1000, 1 << 32, u64::MAX]).collect();
        for (shards, want) in [
            (2, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0]),
            (3, [0, 2, 2, 0, 0, 0, 2, 1, 2, 1, 1, 1, 0, 1, 0]),
            (4, [2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 3, 2, 0]),
        ] {
            let part = Partitioning::Hash { shards };
            let got: Vec<usize> = keys.iter().map(|&k| part.shard_of(k)).collect();
            assert_eq!(got, want, "{shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_shard_count_panics() {
        let _ =
            ShardedStore::from_indexes(vec![tree_in_own_pool()], Partitioning::Hash { shards: 2 });
    }

    fn tree_in_own_pool() -> FastFairTree {
        FastFairTree::create(pool(1 << 20), fastfair::TreeOptions::new()).unwrap()
    }

    #[test]
    fn merged_cursor_is_globally_sorted_hash() {
        let store = hash_store(4);
        let keys: Vec<u64> = (1..2000).step_by(3).collect();
        for &k in &keys {
            store.insert(k, k + 1).unwrap();
        }
        let mut cur = store.cursor();
        let mut seen = Vec::new();
        while let Some((k, v)) = cur.next() {
            assert_eq!(v, k + 1);
            seen.push(k);
        }
        assert_eq!(seen, keys);
        // Seek into the middle.
        cur.seek(1000);
        let (k, _) = cur.next().unwrap();
        assert_eq!(k, keys.iter().copied().find(|&k| k >= 1000).unwrap());
    }

    #[test]
    fn bulk_load_splits_and_counts() {
        let store = hash_store(3);
        let fresh = store
            .bulk_load(&mut (1..=999u64).map(|k| (k, k + 5)))
            .unwrap();
        assert_eq!(fresh, 999);
        assert_eq!(store.len(), 999);
        let dup = store
            .bulk_load(&mut (500..=999u64).map(|k| (k, k)))
            .unwrap();
        assert_eq!(dup, 0);
        assert_eq!(store.get(700), Some(700)); // upserted
    }

    #[test]
    fn hash_cursor_scans_descending_and_reseeks() {
        let store = hash_store(4);
        let keys: Vec<u64> = (1..600).step_by(5).collect();
        for &k in &keys {
            store.insert(k, k + 1).unwrap();
        }
        let mut cur = store.cursor();
        cur.seek_for_prev(u64::MAX);
        let mut down = Vec::new();
        while let Some((k, v)) = cur.prev() {
            assert_eq!(v, k + 1);
            down.push(k);
        }
        assert_eq!(down, keys.iter().rev().copied().collect::<Vec<_>>());
        // Re-seek between keys, then turn back to ascending.
        cur.seek_for_prev(300);
        assert_eq!(cur.prev().map(|e| e.0), Some(296));
        cur.seek(300);
        assert_eq!(cur.next().map(|e| e.0), Some(301));
    }

    #[test]
    fn apply_batch_routes_and_groups_per_shard() {
        let store = hash_store(4);
        store.insert(10, 1).unwrap();
        store.insert(20, 2).unwrap();
        let ops = vec![
            BatchOp::Put(10, 100), // upsert
            BatchOp::Delete(20),   // remove
            BatchOp::Put(30, 300), // fresh insert
            BatchOp::Put(40, 400), // fresh insert, likely another shard
            BatchOp::Delete(99),   // absent: no-op
            BatchOp::Put(50, 500),
            BatchOp::Delete(50), // same-key pair must keep batch order
        ];
        store.apply_batch(&ops).unwrap();
        assert_eq!(store.get(10), Some(100));
        assert_eq!(store.get(20), None);
        assert_eq!(store.get(30), Some(300));
        assert_eq!(store.get(40), Some(400));
        assert_eq!(store.get(50), None, "Put then Delete must end deleted");
        assert_eq!(store.len(), 3);
    }
}

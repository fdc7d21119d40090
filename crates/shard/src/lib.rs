//! # Sharded `PmIndex` router with crash-atomic rebalancing
//!
//! The paper removes logging from *one* B+-tree; this crate scales the
//! result *out*. A [`ShardedStore`] routes every operation of the
//! [`PmIndex`] trait across `N` per-shard indexes — each typically in its
//! own [`pmem::Pool`] — under a pluggable [`Partitioning`] (multiplicative
//! hash or contiguous key ranges). Because `ShardedStore` itself
//! implements [`PmIndex`], every harness in this repository (differential
//! tests, TPC-C, the figure benches) runs against it unchanged.
//!
//! Four design points carry the paper's spirit upward a layer:
//!
//! * **Scans stay streaming.** [`PmIndex::cursor`] returns a K-way merged
//!   cursor over per-shard [`Cursor`]s: a binary-heap merge under hash
//!   partitioning, plain shard-order chaining under range partitioning.
//!   Per-shard entries are pulled in small refill batches, so a cross-shard
//!   scan never materializes a result set.
//! * **The shard map commits like a FAST store.** A persistent deployment
//!   records its shard map in an epoch-numbered, checksummed
//!   [manifest](self) record; the only commit point is the single
//!   failure-atomic 8-byte pointer flip of [`pmem::Pool::set_manifest`] —
//!   multi-structure metadata updates without reintroducing a log.
//! * **Rebalancing is cursor + bulk load + pointer flip.**
//!   [`ShardedStore::rebalance_into`] streams one shard out through its
//!   cursor, [`PmIndex::bulk_load`]s it bottom-up into a fresh pool
//!   (packed leaves, one flush per cache line), and publishes the move by
//!   committing the next manifest epoch. A crash at *any* intermediate
//!   step recovers to the old shard map with the old shard intact — the
//!   half-built replacement merely leaks, the standard PM-allocator
//!   trade-off this repository documents on [`pmem::Pool::free`].
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
//! use pmem::{Pool, PoolConfig};
//! use pmindex::{PersistentIndex, PmIndex};
//! use shard::{Partitioning, ShardedStore};
//!
//! // Four FAST+FAIR shards, each in its own pool, hash partitioned.
//! let pools: Vec<_> = (0..4)
//!     .map(|_| Arc::new(Pool::new(PoolConfig::default().size(1 << 20)).unwrap()))
//!     .collect();
//! let manifest = Arc::clone(&pools[0]);
//! let store: ShardedStore<fastfair::FastFairTree> =
//!     ShardedStore::create(manifest, pools, Partitioning::Hash { shards: 4 })?;
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
mod manifest;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use pmem::{PmOffset, Pool};
use pmindex::{BatchOp, Cursor, CursorIter, IndexError, Key, PersistentIndex, PmIndex, Value};

/// How keys are distributed across shards.
///
/// ```
/// use shard::Partitioning;
///
/// let hash = Partitioning::Hash { shards: 4 };
/// assert_eq!(hash.shards(), 4);
///
/// // Three contiguous ranges: [0, 100), [100, 200), [200, MAX].
/// let range = Partitioning::Range { bounds: vec![100, 200] };
/// assert_eq!(range.shards(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// Multiplicative hashing of the key: uniform load, order destroyed
    /// across shards (scans use a heap merge).
    Hash {
        /// Number of shards.
        shards: usize,
    },
    /// Contiguous key ranges: shard `i` owns `[bounds[i-1], bounds[i])`
    /// (with implicit 0 and `u64::MAX` ends), preserving global key order
    /// shard-to-shard (scans chain shards sequentially). `bounds` holds
    /// the `N - 1` ascending split points of an `N`-shard deployment.
    Range {
        /// Exclusive upper bounds between adjacent shards, ascending.
        bounds: Vec<Key>,
    },
}

impl Partitioning {
    /// Number of shards this partitioning describes.
    ///
    /// ```
    /// assert_eq!(shard::Partitioning::Hash { shards: 8 }.shards(), 8);
    /// assert_eq!(shard::Partitioning::Range { bounds: vec![] }.shards(), 1);
    /// ```
    pub fn shards(&self) -> usize {
        match self {
            Partitioning::Hash { shards } => *shards,
            Partitioning::Range { bounds } => bounds.len() + 1,
        }
    }

    /// The shard a key routes to.
    ///
    /// ```
    /// use shard::Partitioning;
    ///
    /// let p = Partitioning::Range { bounds: vec![100, 200] };
    /// assert_eq!(p.shard_of(5), 0);
    /// assert_eq!(p.shard_of(100), 1); // bounds are exclusive above
    /// assert_eq!(p.shard_of(u64::MAX), 2);
    ///
    /// let h = Partitioning::Hash { shards: 3 };
    /// assert!(h.shard_of(42) < 3);
    /// ```
    pub fn shard_of(&self, key: Key) -> usize {
        match self {
            Partitioning::Hash { shards } => {
                // Murmur-style finalizer: spread adjacent keys uniformly.
                let mut h = key;
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h ^= h >> 33;
                (h % *shards as u64) as usize
            }
            Partitioning::Range { bounds } => bounds.partition_point(|&b| b <= key),
        }
    }

    /// Exclusive upper key bound of shard `i` (`u64::MAX` for the last
    /// range shard; unused — 0 — under hash partitioning).
    fn upper_bound(&self, i: usize) -> u64 {
        match self {
            Partitioning::Hash { .. } => 0,
            Partitioning::Range { bounds } => bounds.get(i).copied().unwrap_or(u64::MAX),
        }
    }

    fn kind(&self) -> u64 {
        match self {
            Partitioning::Hash { .. } => manifest::KIND_HASH,
            Partitioning::Range { .. } => manifest::KIND_RANGE,
        }
    }

    fn assert_valid(&self) {
        assert!(self.shards() >= 1, "a sharded store needs at least 1 shard");
        if let Partitioning::Range { bounds } = self {
            assert!(
                bounds.windows(2).all(|w| w[0] <= w[1]),
                "range partition bounds must be ascending"
            );
        }
    }
}

/// One shard: the current index plus a write gate.
///
/// Point/bulk writers hold the gate *shared* (they stay concurrent with
/// each other — the underlying index is internally synchronized); a
/// rebalance holds it *exclusively* for the duration of the copy so the
/// streamed-out snapshot cannot miss a racing write. Readers never touch
/// the gate: gets and cursors stay wait-free against a running rebalance.
struct ShardSlot<I> {
    index: RwLock<Arc<I>>,
    write_gate: RwLock<()>,
}

impl<I> ShardSlot<I> {
    fn new(index: Arc<I>) -> Self {
        ShardSlot {
            index: RwLock::new(index),
            write_gate: RwLock::new(()),
        }
    }
    fn current(&self) -> Arc<I> {
        Arc::clone(&self.index.read())
    }
}

/// Persistence side of a manifest-backed store.
struct PersistState {
    manifest_pool: Arc<Pool>,
    /// Pool for each slot id; indexed by slot.
    pools: Mutex<Vec<Arc<Pool>>>,
    /// Slot id currently backing each shard.
    slots: Mutex<Vec<u64>>,
    epoch: AtomicU64,
    /// Serializes rebalances (each bumps the manifest epoch).
    rebalance: Mutex<()>,
}

/// A router over `N` per-shard [`PmIndex`] instances that is itself a
/// [`PmIndex`].
///
/// Construct it volatile with [`ShardedStore::from_indexes`] (any index,
/// no manifest), or persistent with [`ShardedStore::create`] /
/// [`ShardedStore::open`] (indexes implementing [`PersistentIndex`],
/// crash-consistent manifest, online [`ShardedStore::rebalance_into`]).
pub struct ShardedStore<I> {
    shards: Vec<ShardSlot<I>>,
    partitioning: Partitioning,
    persist: Option<PersistState>,
    /// Store-level *reclamation* epoch domain (`crates/epoch`) — not to
    /// be confused with the manifest epoch of [`ShardedStore::epoch`].
    /// Readers — gets, merged cursors, `len`/`shard_len` — pin it around
    /// every access to a shard's current index;
    /// [`ShardedStore::rebalance_into`] retires the *evacuated* index
    /// into it, so the old structure's storage is walked and returned to
    /// its pool online, two epochs after the last pre-flip reader let go
    /// — instead of gating on `Drop`.
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
            .field("manifest", &self.persist.is_some())
            .finish()
    }
}

impl<I: PmIndex> ShardedStore<I> {
    /// Builds a *volatile* router over caller-constructed indexes: no
    /// manifest is written, and [`ShardedStore::rebalance_into`] is
    /// unavailable. This is the construction the benches use (the shard
    /// map is rebuilt from scratch on every run) and the only one the
    /// volatile B-link baseline supports.
    ///
    /// ```
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![blink::BlinkTree::new(), blink::BlinkTree::new()],
    ///     Partitioning::Hash { shards: 2 },
    /// );
    /// store.insert(1, 10)?;
    /// assert_eq!(store.get(1), Some(10));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `indexes.len()` disagrees with the partitioning's shard
    /// count, or if range bounds are not ascending.
    pub fn from_indexes(indexes: Vec<I>, partitioning: Partitioning) -> Self {
        partitioning.assert_valid();
        assert_eq!(
            indexes.len(),
            partitioning.shards(),
            "index count must match the partitioning's shard count"
        );
        Self::assemble(
            indexes.into_iter().map(Arc::new).collect(),
            partitioning,
            None,
        )
    }

    fn assemble(
        indexes: Vec<Arc<I>>,
        partitioning: Partitioning,
        persist: Option<PersistState>,
    ) -> Self {
        ShardedStore {
            shards: indexes.into_iter().map(ShardSlot::new).collect(),
            partitioning,
            persist,
            reclaim: epoch::EpochDomain::new(),
            helper: OnceLock::new(),
            split_applies: AtomicU64::new(0),
        }
    }

    /// The partitioning in force.
    ///
    /// ```
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![blink::BlinkTree::new()],
    ///     Partitioning::Hash { shards: 1 },
    /// );
    /// assert_eq!(store.partitioning().shards(), 1);
    /// ```
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Number of shards (fixed for the lifetime of the store; rebalancing
    /// moves a shard's *contents*, not the shard count).
    ///
    /// ```
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![blink::BlinkTree::new(), blink::BlinkTree::new()],
    ///     Partitioning::Range { bounds: vec![500] },
    /// );
    /// assert_eq!(store.shard_count(), 2);
    /// ```
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live keys in one shard — the load-balance observability
    /// hook (a rebalancing policy watches these; the mechanism is
    /// [`ShardedStore::rebalance_into`]).
    ///
    /// ```
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![blink::BlinkTree::new(), blink::BlinkTree::new()],
    ///     Partitioning::Range { bounds: vec![100] },
    /// );
    /// store.insert(5, 50)?;   // -> shard 0
    /// store.insert(150, 51)?; // -> shard 1
    /// assert_eq!((store.shard_len(0), store.shard_len(1)), (1, 1));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn shard_len(&self, shard: usize) -> usize {
        self.epoch_stable(|| {
            let _pin = self.reclaim.pin();
            self.shards[shard].current().len()
        })
    }

    /// Runs `f` and retries it until no rebalance committed while it ran.
    ///
    /// During a rebalance there is a window — evacuation done, manifest
    /// flipped, old `Arc` not yet swapped out — where a counting walk
    /// that grabbed the *old* shard index sees every evacuated key
    /// there, while a later grab inside the same walk already sees them
    /// in the *destination* shard: the sum double-counts. The epoch
    /// counter is bumped inside the slots lock right after the swap, so
    /// `f` observing the same epoch before and after means no flip
    /// overlapped it and the aggregate is consistent. Volatile stores
    /// (no manifest, no rebalancing) never retry.
    fn epoch_stable<T>(&self, f: impl Fn() -> T) -> T {
        let epoch_of = |p: &PersistState| p.epoch.load(Ordering::SeqCst);
        loop {
            let before = self.persist.as_ref().map(epoch_of);
            let out = f();
            if self.persist.as_ref().map(epoch_of) == before {
                return out;
            }
        }
    }

    /// The store's reclamation epoch domain — where evacuated indexes
    /// retire after a rebalance. Exposed so an external maintenance
    /// daemon (`crates/service`) can watch its limbo depth and run
    /// `try_advance`/`collect` off the client path, and so snapshot
    /// readers can pin it alongside a `txn::Snapshot`.
    ///
    /// ```
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![blink::BlinkTree::new()],
    ///     Partitioning::Hash { shards: 1 },
    /// );
    /// assert_eq!(store.reclaim_domain().limbo_len(), 0);
    /// ```
    pub fn reclaim_domain(&self) -> &Arc<epoch::EpochDomain> {
        &self.reclaim
    }

    /// The most loaded shard as `(shard id, live keys)` — the
    /// rebalance-*policy* helper built on [`ShardedStore::shard_len`]: a
    /// daemon (or an operator) watches this and feeds the winner to
    /// [`ShardedStore::rebalance_into`] when the imbalance crosses its
    /// threshold. Ties resolve to the lowest shard id. O(total keys) via
    /// the per-shard cursors, like `shard_len` itself — poll it, don't
    /// put it on a hot path.
    ///
    /// ```
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![blink::BlinkTree::new(), blink::BlinkTree::new()],
    ///     Partitioning::Range { bounds: vec![100] },
    /// );
    /// store.insert(5, 50)?;
    /// store.insert(150, 51)?;
    /// store.insert(160, 52)?;
    /// assert_eq!(store.hottest_shard(), (1, 2));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn hottest_shard(&self) -> (usize, usize) {
        self.epoch_stable(|| {
            let _pin = self.reclaim.pin();
            (0..self.shards.len())
                .map(|i| (i, self.shards[i].current().len()))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("a sharded store always has at least one shard")
        })
    }

    fn route(&self, key: Key) -> &ShardSlot<I> {
        &self.shards[self.partitioning.shard_of(key)]
    }

    fn feeds(&self) -> Vec<Feed<I>> {
        self.shards.iter().map(|s| Feed::new(s.current())).collect()
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
    ///
    /// let store = ShardedStore::from_indexes(
    ///     vec![blink::BlinkTree::new(), blink::BlinkTree::new()],
    ///     Partitioning::Range { bounds: vec![100] },
    /// );
    /// store.apply_batch(&[BatchOp::Put(1, 10), BatchOp::Put(200, 20)])?;
    /// assert_eq!(store.split_applies(), 0); // one op per shard: serial
    /// let ops: Vec<_> = (0..MIN_SPLIT as u64)
    ///     .flat_map(|i| [BatchOp::Put(1 + i, 10), BatchOp::Put(200 + i, 20)])
    ///     .collect();
    /// store.apply_batch(&ops)?;
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

    /// Runs `apply` on every non-empty group, each under its shard's
    /// write gate, and returns the results by shard (`None` for an empty
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
            let slot = &self.shards[shard];
            let _gate = slot.write_gate.read();
            apply(&slot.current(), group).map(Some)
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

impl<I: PersistentIndex> ShardedStore<I> {
    /// Creates a fresh persistent deployment: one empty index per pool in
    /// `shard_pools` (pool *slot* `i` backs shard `i` initially), and an
    /// epoch-0 manifest committed into `manifest_pool` with a single
    /// failure-atomic pointer flip.
    ///
    /// `manifest_pool` may be one of the shard pools (small deployments,
    /// crash tests) or a dedicated pool (a real fleet).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
    /// let store: ShardedStore<fastfair::FastFairTree> = ShardedStore::create(
    ///     Arc::clone(&pool),
    ///     vec![Arc::clone(&pool), Arc::clone(&pool)], // both shards share one pool
    ///     Partitioning::Range { bounds: vec![1000] },
    /// )?;
    /// assert_eq!(store.epoch(), Some(0));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion from index creation or the manifest
    /// write.
    ///
    /// # Panics
    ///
    /// Panics if `shard_pools.len()` disagrees with the partitioning's
    /// shard count, or if range bounds are not ascending.
    pub fn create(
        manifest_pool: Arc<Pool>,
        shard_pools: Vec<Arc<Pool>>,
        partitioning: Partitioning,
    ) -> Result<Self, IndexError> {
        partitioning.assert_valid();
        assert_eq!(
            shard_pools.len(),
            partitioning.shards(),
            "pool count must match the partitioning's shard count"
        );
        let indexes = shard_pools
            .iter()
            .map(|p| I::create_in(Arc::clone(p)).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let store = Self::assemble(
            indexes,
            partitioning,
            Some(PersistState {
                manifest_pool,
                slots: Mutex::new((0..shard_pools.len() as u64).collect()),
                pools: Mutex::new(shard_pools),
                epoch: AtomicU64::new(0),
                rebalance: Mutex::new(()),
            }),
        );
        store.commit_manifest(0)?;
        Ok(store)
    }

    /// Re-opens a deployment from its manifest: reads the record
    /// `manifest_pool` points at, validates its checksum, reconstructs the
    /// partitioning, and re-opens every shard's index from the pool its
    /// manifest entry names (`pools[slot]`) — the sharded analogue of the
    /// paper's instantaneous recovery.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
    /// let store: ShardedStore<fastfair::FastFairTree> = ShardedStore::create(
    ///     Arc::clone(&pool),
    ///     vec![Arc::clone(&pool), Arc::clone(&pool)],
    ///     Partitioning::Hash { shards: 2 },
    /// )?;
    /// store.insert(17, 170)?;
    /// drop(store);
    ///
    /// let again: ShardedStore<fastfair::FastFairTree> =
    ///     ShardedStore::open(Arc::clone(&pool), vec![Arc::clone(&pool), pool])?;
    /// assert_eq!(again.get(17), Some(170));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the pool holds no manifest, the
    /// record fails its checksum, or an entry names a slot outside
    /// `pools`; index-open failures propagate.
    pub fn open(manifest_pool: Arc<Pool>, pools: Vec<Arc<Pool>>) -> Result<Self, IndexError> {
        let rec = manifest::read(&manifest_pool)?;
        let n = rec.entries.len();
        let partitioning = if rec.kind == manifest::KIND_RANGE {
            Partitioning::Range {
                bounds: rec.entries[..n.saturating_sub(1)]
                    .iter()
                    .map(|e| e.bound)
                    .collect(),
            }
        } else {
            Partitioning::Hash { shards: n }
        };
        let mut indexes = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        for e in &rec.entries {
            let pool = pools.get(e.slot as usize).ok_or_else(|| {
                IndexError::Unsupported(format!(
                    "manifest names pool slot {} but only {} pools were supplied",
                    e.slot,
                    pools.len()
                ))
            })?;
            indexes.push(Arc::new(I::open_in(Arc::clone(pool), e.meta)?));
            slots.push(e.slot);
        }
        Ok(Self::assemble(
            indexes,
            partitioning,
            Some(PersistState {
                manifest_pool,
                pools: Mutex::new(pools),
                slots: Mutex::new(slots),
                epoch: AtomicU64::new(rec.epoch),
                rebalance: Mutex::new(()),
            }),
        ))
    }

    /// Current manifest epoch, or `None` for a volatile router. Every
    /// committed rebalance increments it by exactly one.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
    /// let store: ShardedStore<fastfair::FastFairTree> = ShardedStore::create(
    ///     Arc::clone(&pool),
    ///     vec![pool],
    ///     Partitioning::Hash { shards: 1 },
    /// )?;
    /// assert_eq!(store.epoch(), Some(0));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn epoch(&self) -> Option<u64> {
        self.persist
            .as_ref()
            .map(|p| p.epoch.load(Ordering::Acquire))
    }

    /// The live shard map as `(pool slot, superblock offset)` per shard,
    /// or `None` for a volatile router — what the manifest records; used
    /// by the crash tests to assert old-or-new, never a mixture.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
    /// let store: ShardedStore<fastfair::FastFairTree> = ShardedStore::create(
    ///     Arc::clone(&pool),
    ///     vec![Arc::clone(&pool), pool],
    ///     Partitioning::Hash { shards: 2 },
    /// )?;
    /// let map = store.shard_map().unwrap();
    /// assert_eq!(map.len(), 2);
    /// assert_eq!((map[0].0, map[1].0), (0, 1)); // initial slots
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn shard_map(&self) -> Option<Vec<(u64, PmOffset)>> {
        let _pin = self.reclaim.pin();
        let persist = self.persist.as_ref()?;
        let slots = persist.slots.lock();
        Some(
            self.shards
                .iter()
                .zip(slots.iter())
                .map(|(s, &slot)| (slot, s.current().superblock()))
                .collect(),
        )
    }

    /// Migrates one shard into a fresh index in `pool` (registered as pool
    /// slot `slot`), returning the number of keys moved.
    ///
    /// The move is **online** for readers (gets and cursors on every shard,
    /// including the one moving, proceed against the old index throughout)
    /// and blocks writers *of that shard only*. Mechanically it is the
    /// ROADMAP's cursor-compaction applied to a shard: stream the old index
    /// through its cursor, [`PmIndex::bulk_load`] the stream bottom-up into
    /// the fresh index (packed leaves — this doubles as defragmentation),
    /// persist everything, then commit a manifest record with the next
    /// epoch. The manifest pointer flip is the *only* commit point: a crash
    /// any earlier recovers the old map with the old shard intact (the
    /// half-built copy leaks); a crash any later recovers the new map. No
    /// intermediate state is ever visible.
    ///
    /// `slot` may reuse the shard's current slot id (same-pool compaction),
    /// name any existing slot, or extend the fleet by one
    /// (`slot == pools.len()` at call time).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(4 << 20))?);
    /// let store: ShardedStore<fastfair::FastFairTree> = ShardedStore::create(
    ///     Arc::clone(&pool),
    ///     vec![Arc::clone(&pool), Arc::clone(&pool)],
    ///     Partitioning::Range { bounds: vec![500] },
    /// )?;
    /// for k in 1..=800u64 {
    ///     store.insert(k, k)?;
    /// }
    /// // Move shard 0 ([1, 500)) onto a brand-new pool as slot 2.
    /// let fresh = Arc::new(Pool::new(PoolConfig::default().size(4 << 20))?);
    /// let moved = store.rebalance_into(0, 2, fresh)?;
    /// assert_eq!(moved, 499);
    /// assert_eq!(store.epoch(), Some(1));
    /// assert_eq!(store.get(250), Some(250)); // data follows the shard
    /// assert_eq!(store.len(), 800);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] on a volatile router, for a shard id
    /// out of range, or for a slot id beyond one past the current fleet;
    /// pool exhaustion propagates (and leaves the old map committed).
    pub fn rebalance_into(
        &self,
        shard: usize,
        slot: u64,
        pool: Arc<Pool>,
    ) -> Result<usize, IndexError>
    where
        I: 'static,
    {
        let persist = self.persist.as_ref().ok_or_else(|| {
            IndexError::Unsupported("rebalance requires a manifest-backed store".into())
        })?;
        if shard >= self.shards.len() {
            return Err(IndexError::Unsupported(format!(
                "shard {shard} out of range (have {})",
                self.shards.len()
            )));
        }
        // One rebalance at a time: each commits its own manifest epoch.
        let _serial = persist.rebalance.lock();
        // Validate the slot id up front but register the pool only after
        // the copy succeeds: a failed rebalance must leave the fleet
        // bookkeeping exactly as it found it. The length cannot change
        // underneath us — rebalances are serialized and nothing else grows
        // the fleet.
        let fleet = persist.pools.lock().len();
        if slot as usize > fleet {
            return Err(IndexError::Unsupported(format!(
                "slot {slot} would leave a gap (fleet has {fleet} pools)"
            )));
        }
        let target = &self.shards[shard];
        // Exclude writers of this shard for the copy; readers continue.
        let _quiesce = target.write_gate.write();
        let old = target.current();
        let fresh = I::create_in(Arc::clone(&pool))?;
        let moved = fresh.bulk_load(&mut CursorIter(old.cursor()))?;
        // Build the next-epoch record: identical map except this shard.
        let epoch = persist.epoch.load(Ordering::Acquire) + 1;
        let rec = {
            let slots = persist.slots.lock();
            manifest::Record {
                epoch,
                kind: self.partitioning.kind(),
                entries: self
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| manifest::Entry {
                        slot: if i == shard { slot } else { slots[i] },
                        meta: if i == shard {
                            fresh.superblock()
                        } else {
                            s.current().superblock()
                        },
                        bound: self.partitioning.upper_bound(i),
                    })
                    .collect(),
            }
        };
        // THE commit point. Everything the record names is already durable
        // (bulk_load persists as it packs; create_in persisted the
        // superblock); a crash before this flip recovers the old map.
        manifest::commit(&persist.manifest_pool, &rec)?;
        // Publish to the volatile side only after the durable commit —
        // nothing below can fail. The index swap and the slot update
        // happen under the slots lock so `shard_map` (which reads both
        // under that lock) sees the old pair or the new pair, never a
        // (new slot, old superblock) mixture.
        {
            let mut pools = persist.pools.lock();
            if slot as usize == pools.len() {
                pools.push(pool);
            } else {
                pools[slot as usize] = pool;
            }
        }
        {
            let mut slots = persist.slots.lock();
            *target.index.write() = Arc::new(fresh);
            slots[shard] = slot;
            persist.epoch.store(epoch, Ordering::Release);
        }
        // The evacuated index is garbage the moment the manifest names
        // its replacement — but pre-flip readers (gets that grabbed the
        // old `Arc`, cursors whose feeds stream the old snapshot) may
        // still be on it. Retire it through the reclamation domain: two
        // epochs after the last such reader unpins, the old structure's
        // storage is walked back onto its pool's free list
        // (`PersistentIndex::reclaim_storage`) — online, instead of
        // gating on the last `Arc` drop. Post-flip readers only ever see
        // the fresh index, so they cannot extend the old one's life.
        self.reclaim.defer_units(move || old.reclaim_storage());
        // Opportunistic prompt path: with no pinned reader this reclaims
        // the old structure before we return; otherwise the next
        // amortized maintenance step (any reader's unpin) finishes it.
        self.reclaim.try_advance();
        self.reclaim.try_advance();
        self.reclaim.collect();
        Ok(moved)
    }

    /// Compacts one shard in place: a [`ShardedStore::rebalance_into`]
    /// whose destination is the shard's *current* pool and slot. The
    /// cursor-stream + `bulk_load` copy packs the shard's leaves tight
    /// (defragmentation) and the evacuated structure is walked back onto
    /// the same pool's free list through the reclamation domain — this
    /// is the maintenance daemon's response to a hot shard, run entirely
    /// off the client path (readers never block; writers of this shard
    /// only, for the duration of the copy).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(8 << 20))?);
    /// let store: ShardedStore<fastfair::FastFairTree> = ShardedStore::create(
    ///     Arc::clone(&pool),
    ///     vec![Arc::clone(&pool), Arc::clone(&pool)],
    ///     Partitioning::Hash { shards: 2 },
    /// )?;
    /// for k in 1..=500u64 {
    ///     store.insert(k, k)?;
    /// }
    /// let n = store.shard_len(0);
    /// assert_eq!(store.compact_shard(0)?, n); // every key copied
    /// assert_eq!(store.epoch(), Some(1));     // one manifest commit
    /// assert_eq!(store.len(), 500);           // nothing lost
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`ShardedStore::rebalance_into`]: volatile routers and
    /// out-of-range shard ids are [`IndexError::Unsupported`]; pool
    /// exhaustion propagates and leaves the old map committed.
    pub fn compact_shard(&self, shard: usize) -> Result<usize, IndexError>
    where
        I: 'static,
    {
        let persist = self.persist.as_ref().ok_or_else(|| {
            IndexError::Unsupported("compaction requires a manifest-backed store".into())
        })?;
        if shard >= self.shards.len() {
            return Err(IndexError::Unsupported(format!(
                "shard {shard} out of range (have {})",
                self.shards.len()
            )));
        }
        let (slot, pool) = {
            let slots = persist.slots.lock();
            let slot = slots[shard];
            let pools = persist.pools.lock();
            (slot, Arc::clone(&pools[slot as usize]))
        };
        self.rebalance_into(shard, slot, pool)
    }

    fn commit_manifest(&self, epoch: u64) -> Result<(), IndexError> {
        let persist = self.persist.as_ref().expect("manifest-backed store");
        let slots = persist.slots.lock();
        let rec = manifest::Record {
            epoch,
            kind: self.partitioning.kind(),
            entries: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| manifest::Entry {
                    slot: slots[i],
                    meta: s.current().superblock(),
                    bound: self.partitioning.upper_bound(i),
                })
                .collect(),
        };
        manifest::commit(&persist.manifest_pool, &rec)
    }
}

impl<I: PmIndex> PmIndex for ShardedStore<I> {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        let slot = self.route(key);
        let _gate = slot.write_gate.read();
        slot.current().insert(key, value)
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        let slot = self.route(key);
        let _gate = slot.write_gate.read();
        slot.current().update(key, value)
    }

    fn get(&self, key: Key) -> Option<Value> {
        // The pin keeps an evacuated index alive between grabbing its
        // `Arc` and finishing the read (see `reclaim`).
        let _pin = self.reclaim.pin();
        self.route(key).current().get(key)
    }

    fn remove(&self, key: Key) -> bool {
        let slot = self.route(key);
        let _gate = slot.write_gate.read();
        slot.current().remove(key)
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        // Pin before cloning the per-shard Arcs: the guard travels inside
        // the cursor, so a rebalance cannot reclaim a snapshot this scan
        // is still streaming.
        let pin = self.reclaim.pin();
        match &self.partitioning {
            Partitioning::Hash { .. } => Box::new(HashMergeCursor {
                feeds: self.feeds(),
                heap: BinaryHeap::new(),
                heap_rev: BinaryHeap::new(),
                primed: false,
                reverse: false,
                _pin: pin,
            }),
            Partitioning::Range { .. } => Box::new(RangeChainCursor {
                feeds: self.feeds(),
                partitioning: self.partitioning.clone(),
                active: 0,
                reverse: false,
                _pin: pin,
            }),
        }
    }

    fn len(&self) -> usize {
        // `epoch_stable` keeps a concurrent rebalance from double-counting
        // keys visible in both the evacuated and the destination shard.
        self.epoch_stable(|| {
            let _pin = self.reclaim.pin();
            self.shards.iter().map(|s| s.current().len()).sum()
        })
    }

    fn is_empty(&self) -> bool {
        self.epoch_stable(|| {
            let _pin = self.reclaim.pin();
            self.shards.iter().all(|s| s.current().is_empty())
        })
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
        for (i, chunk) in per_shard.into_iter().enumerate() {
            if chunk.is_empty() {
                continue;
            }
            let slot = &self.shards[i];
            let _gate = slot.write_gate.read();
            fresh += slot.current().bulk_load(&mut chunk.into_iter())?;
        }
        Ok(fresh)
    }

    fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
        // Route once, then apply per shard under a single write-gate
        // acquisition per shard — instead of the default's gate-per-op —
        // two shards in parallel when the batch is big enough. Within a
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
        match self.partitioning {
            Partitioning::Hash { .. } => "Sharded(hash)",
            Partitioning::Range { .. } => "Sharded(range)",
        }
    }
}

/// Entries pulled per shard per refill. Each refill opens a fresh
/// per-shard cursor and seeks — amortizing one tree descent over the
/// whole batch.
const FEED_BATCH: usize = 64;

/// Buffered stream of one shard's entries.
///
/// Owns an `Arc` of the shard index (so a concurrent rebalance swapping
/// the shard leaves an in-flight scan on its consistent snapshot) and
/// re-opens a short-lived cursor per refill batch, sidestepping the
/// self-referential borrow a long-lived `Box<dyn Cursor>` over the `Arc`
/// would need.
struct Feed<I> {
    index: Arc<I>,
    buf: VecDeque<(Key, Value)>,
    next_seek: Key,
    exhausted: bool,
}

impl<I: PmIndex> Feed<I> {
    fn new(index: Arc<I>) -> Self {
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

/// K-way heap merge over per-shard feeds (hash partitioning: every shard
/// may hold keys from anywhere in the keyspace).
struct HashMergeCursor<I> {
    feeds: Vec<Feed<I>>,
    /// Min-heap of the current head entry of each non-exhausted feed
    /// (ascending merge).
    heap: BinaryHeap<Reverse<(Key, Value, usize)>>,
    /// Max-heap twin driving the descending merge after a
    /// `seek_for_prev`.
    heap_rev: BinaryHeap<(Key, Value, usize)>,
    primed: bool,
    reverse: bool,
    /// Declared after `feeds` so the Arcs release before the unpin can
    /// trigger reclamation of an evacuated snapshot.
    _pin: epoch::Guard,
}

impl<I: PmIndex> Cursor for HashMergeCursor<I> {
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

/// Sequential shard chaining (range partitioning: shard order *is* key
/// order, so no merge is needed — and only one shard is touched until it
/// is exhausted).
struct RangeChainCursor<I> {
    feeds: Vec<Feed<I>>,
    partitioning: Partitioning,
    active: usize,
    reverse: bool,
    /// Declared after `feeds` so the Arcs release before the unpin can
    /// trigger reclamation of an evacuated snapshot.
    _pin: epoch::Guard,
}

impl<I: PmIndex> Cursor for RangeChainCursor<I> {
    fn seek(&mut self, target: Key) {
        self.active = self.partitioning.shard_of(target);
        self.reverse = false;
        for feed in &mut self.feeds[self.active..] {
            feed.reset(target);
        }
    }

    fn next(&mut self) -> Option<(Key, Value)> {
        if self.reverse {
            return None; // direction switches go through a re-seek
        }
        while self.active < self.feeds.len() {
            if let Some(entry) = self.feeds[self.active].pop() {
                return Some(entry);
            }
            self.active += 1;
        }
        None
    }

    fn seek_for_prev(&mut self, target: Key) {
        self.active = self.partitioning.shard_of(target);
        self.reverse = true;
        for feed in &mut self.feeds[..=self.active] {
            feed.reset(target);
        }
    }

    fn prev(&mut self) -> Option<(Key, Value)> {
        if !self.reverse {
            // Bare prev() (or a direction switch): restart from the top —
            // range shards chain right-to-left from the highest shard.
            self.seek_for_prev(Key::MAX);
        }
        loop {
            if let Some(entry) = self.feeds[self.active].pop_rev() {
                return Some(entry);
            }
            if self.active == 0 {
                return None;
            }
            self.active -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfair::FastFairTree;
    use pmem::PoolConfig;

    fn pool(bytes: usize) -> Arc<Pool> {
        Arc::new(Pool::new(PoolConfig::new().size(bytes)).unwrap())
    }

    fn hash_store(shards: usize) -> ShardedStore<FastFairTree> {
        let p = pool(32 << 20);
        ShardedStore::create(
            Arc::clone(&p),
            vec![p; shards],
            Partitioning::Hash { shards },
        )
        .unwrap()
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

    #[test]
    fn range_routing_respects_bounds() {
        let part = Partitioning::Range {
            bounds: vec![10, 10, 20],
        };
        // Equal bounds leave shard 1 empty; routing still works.
        assert_eq!(part.shard_of(9), 0);
        assert_eq!(part.shard_of(10), 2);
        assert_eq!(part.shard_of(19), 2);
        assert_eq!(part.shard_of(20), 3);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_shard_count_panics() {
        let p = pool(1 << 20);
        let _ = ShardedStore::<FastFairTree>::create(
            Arc::clone(&p),
            vec![p],
            Partitioning::Hash { shards: 2 },
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn descending_bounds_panic() {
        let _ = ShardedStore::from_indexes(
            vec![tree_in_own_pool(), tree_in_own_pool(), tree_in_own_pool()],
            Partitioning::Range {
                bounds: vec![20, 10],
            },
        );
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
    fn merged_cursor_is_globally_sorted_range() {
        let p = pool(32 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p), Arc::clone(&p), p],
            Partitioning::Range {
                bounds: vec![700, 1400],
            },
        )
        .unwrap();
        let keys: Vec<u64> = (1..2100).step_by(7).collect();
        for &k in &keys {
            store.insert(k, k + 1).unwrap();
        }
        let collected: Vec<u64> = pmindex::CursorIter(store.cursor())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(collected, keys);
        // A window straddling both split points.
        let mut out = Vec::new();
        store.range(650, 1450, &mut out);
        let want: Vec<(u64, u64)> = keys
            .iter()
            .filter(|&&k| (650..1450).contains(&k))
            .map(|&k| (k, k + 1))
            .collect();
        assert_eq!(out, want);
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
    fn rebalance_on_volatile_store_is_unsupported() {
        let store = ShardedStore::from_indexes(
            vec![tree_in_own_pool(), tree_in_own_pool()],
            Partitioning::Hash { shards: 2 },
        );
        assert!(matches!(
            store.rebalance_into(0, 0, pool(1 << 20)),
            Err(IndexError::Unsupported(_))
        ));
        assert_eq!(store.epoch(), None);
        assert!(store.shard_map().is_none());
    }

    #[test]
    fn hottest_shard_tracks_load() {
        let p = pool(32 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p), Arc::clone(&p), p],
            Partitioning::Range {
                bounds: vec![100, 200],
            },
        )
        .unwrap();
        // Empty store: every shard ties at 0, lowest id wins.
        assert_eq!(store.hottest_shard(), (0, 0));
        for k in 1..=10u64 {
            store.insert(k, k + 1).unwrap(); // shard 0
        }
        for k in 100..=129u64 {
            store.insert(k, k + 1).unwrap(); // shard 1
        }
        for k in 200..=204u64 {
            store.insert(k, k + 1).unwrap(); // shard 2
        }
        assert_eq!(store.hottest_shard(), (1, 30));
        // The policy drives the mechanism: rebalance the winner, load
        // stays identical, the helper keeps answering.
        let target = pool(32 << 20);
        store.rebalance_into(1, 3, target).unwrap();
        assert_eq!(store.hottest_shard(), (1, 30));
        assert_eq!(store.len(), 45);
    }

    #[test]
    fn evacuated_shard_storage_reclaims_online() {
        // Same-pool compaction: the evacuated tree's nodes must return
        // to the pool's free list under live traffic — no recover, no
        // handle drop — so the next rebalance can reuse the space.
        let p = pool(32 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p)],
            Partitioning::Hash { shards: 1 },
        )
        .unwrap();
        for k in 1..=5000u64 {
            store.insert(k, k + 1).unwrap();
        }
        pmem::stats::reset();
        store.rebalance_into(0, 0, Arc::clone(&p)).unwrap();
        // No reader was pinned across the flip, so the prompt path in
        // rebalance_into already walked the old structure back.
        let s = pmem::stats::take();
        assert!(
            s.nodes_recycled_online > 0,
            "evacuated tree was not reclaimed online"
        );
        assert_eq!(store.len(), 5000);
        assert_eq!(store.get(2500), Some(2501));
        // The reclaimed space is really reusable: a second same-pool
        // compaction fits into the holes the first one freed.
        let hw = p.high_water();
        store.rebalance_into(0, 0, Arc::clone(&p)).unwrap();
        assert_eq!(store.len(), 5000);
        assert!(
            p.high_water() == hw,
            "second compaction should reuse freed nodes ({} -> {})",
            hw,
            p.high_water()
        );
    }

    #[test]
    fn pinned_cursor_defers_evacuated_reclaim() {
        let p = pool(32 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p)],
            Partitioning::Hash { shards: 1 },
        )
        .unwrap();
        for k in 1..=2000u64 {
            store.insert(k, k + 1).unwrap();
        }
        let mut cur = store.cursor();
        for want in 1..=100u64 {
            assert_eq!(cur.next(), Some((want, want + 1)));
        }
        pmem::stats::reset();
        store.rebalance_into(0, 0, Arc::clone(&p)).unwrap();
        // The cursor pins the reclamation domain: the old snapshot must
        // survive the rebalance and keep streaming to the end.
        assert_eq!(pmem::stats::take().nodes_recycled_online, 0);
        for want in 101..=2000u64 {
            assert_eq!(cur.next(), Some((want, want + 1)));
        }
        assert_eq!(cur.next(), None);
        // The cursor's own drop may run the amortized maintenance
        // (always under FF_EPOCH_STRESS=1): assert on the domain's
        // cumulative counter.
        let recycled_before = store.reclaim.recycled();
        drop(cur);
        // With the reader gone, driving the clock reclaims the snapshot.
        store.reclaim.try_advance();
        store.reclaim.try_advance();
        store.reclaim.collect();
        assert!(store.reclaim.recycled() > recycled_before);
        assert_eq!(store.len(), 2000);
    }

    #[test]
    fn rebalance_moves_data_and_bumps_epoch() {
        let p = pool(32 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p), Arc::clone(&p)],
            Partitioning::Range { bounds: vec![500] },
        )
        .unwrap();
        for k in 1..=1000u64 {
            store.insert(k, k + 1).unwrap();
        }
        let before = store.shard_map().unwrap();
        let target = pool(32 << 20);
        let moved = store.rebalance_into(1, 2, Arc::clone(&target)).unwrap();
        assert_eq!(moved, 501); // keys 500..=1000
        assert_eq!(store.epoch(), Some(1));
        let after = store.shard_map().unwrap();
        assert_eq!(after[0], before[0]); // untouched shard unchanged
        assert_eq!(after[1].0, 2); // moved shard now on slot 2
        assert_ne!(after[1].1, before[1].1);
        // All data still present, reads route to the new pool.
        assert_eq!(store.len(), 1000);
        assert_eq!(store.get(750), Some(751));
        // Writes continue to the new shard.
        store.insert(600, 7).unwrap();
        assert_eq!(store.get(600), Some(7));
    }

    #[test]
    fn rebalance_bad_slot_or_shard_rejected() {
        let p = pool(4 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p)],
            Partitioning::Hash { shards: 1 },
        )
        .unwrap();
        assert!(matches!(
            store.rebalance_into(5, 0, Arc::clone(&p)),
            Err(IndexError::Unsupported(_))
        ));
        assert!(matches!(
            store.rebalance_into(0, 9, p),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn failed_rebalance_leaves_fleet_bookkeeping_intact() {
        let p = pool(32 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p), Arc::clone(&p)],
            Partitioning::Hash { shards: 2 },
        )
        .unwrap();
        for k in 1..=2000u64 {
            store.insert(k, k + 1).unwrap();
        }
        // A target pool too small for the shard: the copy fails mid-way.
        let tiny = pool(pmem::POOL_HEADER_SIZE as usize + 128);
        let before = store.shard_map().unwrap();
        assert!(matches!(
            store.rebalance_into(0, 2, tiny),
            Err(IndexError::PoolExhausted(_))
        ));
        // Nothing changed: epoch, map, data — and the aborted slot was
        // never registered, so the next extend-the-fleet rebalance still
        // gets slot 2 (no phantom slot, no gap).
        assert_eq!(store.epoch(), Some(0));
        assert_eq!(store.shard_map().unwrap(), before);
        assert_eq!(store.len(), 2000);
        let big = pool(32 << 20);
        store.rebalance_into(0, 2, big).unwrap();
        assert_eq!(store.epoch(), Some(1));
        assert_eq!(store.shard_map().unwrap()[0].0, 2);
        assert_eq!(store.len(), 2000);
    }

    #[test]
    fn reopen_after_rebalance_uses_new_map() {
        let p = pool(32 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p), Arc::clone(&p)],
            Partitioning::Hash { shards: 2 },
        )
        .unwrap();
        for k in 1..=400u64 {
            store.insert(k, k + 3).unwrap();
        }
        store.rebalance_into(0, 0, Arc::clone(&p)).unwrap();
        let map = store.shard_map().unwrap();
        drop(store);
        let again: ShardedStore<FastFairTree> =
            ShardedStore::open(Arc::clone(&p), vec![Arc::clone(&p), p]).unwrap();
        assert_eq!(again.epoch(), Some(1));
        assert_eq!(again.shard_map().unwrap(), map);
        assert_eq!(again.len(), 400);
        for k in 1..=400u64 {
            assert_eq!(again.get(k), Some(k + 3));
        }
    }

    #[test]
    fn readers_stay_live_during_rebalance() {
        // A cursor opened before a rebalance keeps streaming its snapshot.
        let p = pool(32 << 20);
        let store: ShardedStore<FastFairTree> = ShardedStore::create(
            Arc::clone(&p),
            vec![Arc::clone(&p), Arc::clone(&p)],
            Partitioning::Range { bounds: vec![500] },
        )
        .unwrap();
        for k in 1..=1000u64 {
            store.insert(k, k + 1).unwrap();
        }
        let mut cur = store.cursor();
        for want in 1..=100u64 {
            assert_eq!(cur.next(), Some((want, want + 1)));
        }
        store.rebalance_into(0, 0, Arc::clone(&p)).unwrap();
        for want in 101..=1000u64 {
            assert_eq!(cur.next(), Some((want, want + 1)));
        }
        assert_eq!(cur.next(), None);
    }

    #[test]
    fn len_never_overcounts_across_live_rebalances() {
        // Regression: during the evacuate -> swap window a counting walk
        // could observe an evacuated key in BOTH the old shard snapshot
        // and the rebalance destination, reporting len() > true count.
        // `epoch_stable` retries the sum whenever a flip overlapped it.
        use std::sync::atomic::AtomicBool;
        const KEYS: u64 = 3000;
        let p = pool(64 << 20);
        let store: Arc<ShardedStore<FastFairTree>> = Arc::new(
            ShardedStore::create(
                Arc::clone(&p),
                vec![Arc::clone(&p), Arc::clone(&p)],
                Partitioning::Hash { shards: 2 },
            )
            .unwrap(),
        );
        for k in 1..=KEYS {
            store.insert(k, k + 1).unwrap();
        }
        // `removed` counts deletions that have fully completed (used for
        // the exact final check); `attempted` is bumped BEFORE each remove
        // so it upper-bounds the deletes a concurrent len() may have
        // missed — a remove can mutate the tree before the completed
        // counter ticks, so `removed` alone would lag the tree state.
        let removed = Arc::new(AtomicU64::new(0));
        let attempted = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let st = Arc::clone(&store);
            let stop2 = Arc::clone(&stop);
            let rebalancer = s.spawn(move || {
                // Same-pool compactions keep flipping the manifest while
                // the observers count.
                for round in 0..6u64 {
                    st.rebalance_into(round as usize % 2, round % 2, Arc::clone(&p))
                        .unwrap();
                }
                stop2.store(true, Ordering::SeqCst);
            });
            let st = Arc::clone(&store);
            let removed2 = Arc::clone(&removed);
            let attempted2 = Arc::clone(&attempted);
            let stop3 = Arc::clone(&stop);
            let deleter = s.spawn(move || {
                for k in 1..=KEYS / 2 {
                    if stop3.load(Ordering::SeqCst) {
                        break;
                    }
                    attempted2.fetch_add(1, Ordering::SeqCst);
                    if st.remove(k * 2) {
                        removed2.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
            while !stop.load(Ordering::SeqCst) {
                let n = store.len() as u64;
                assert!(
                    n <= KEYS,
                    "len() overcounted: {n} > {KEYS} live keys ever inserted"
                );
                // Deletes *started* before len() returned are an upper
                // bound on what the count may have missed.
                let attempted_after = attempted.load(Ordering::SeqCst);
                assert!(
                    n >= KEYS - attempted_after,
                    "len() undercounted: {n} with at most {attempted_after} removes started"
                );
            }
            rebalancer.join().unwrap();
            deleter.join().unwrap();
        });
        let final_removed = removed.load(Ordering::SeqCst);
        assert_eq!(store.len() as u64, KEYS - final_removed);
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

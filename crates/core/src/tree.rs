//! The FAST+FAIR B+-tree: structure, configuration and traversal.
//!
//! The tree is a B-link tree (every node, internal and leaf, carries a right
//! sibling pointer — §3.2) whose node mutations are performed with the FAST
//! and FAIR algorithms so that *every 8-byte store* leaves the tree either
//! consistent or transiently inconsistent in a way readers tolerate.
//!
//! Persistent superblock layout (64 bytes, one cache line):
//!
//! ```text
//!  0  magic                      ("FAIRTREE"; "UNDOTREE" on the logging
//!                                 variant, whose strategy bit 0 it must
//!                                 agree with)
//!  8  root node offset           (updated by a single persisted store —
//!                                 the commit point of a root split)
//! 16  node size in bytes
//! 24  strategy tag               (bit 0: logging split — 0 = plain FAIR;
//!                                 bits 1 and 2: retired, rejected on
//!                                 open — they marked the removed leaf
//!                                 fingerprints and circular record
//!                                 frame; bit 3: every node keeps its
//!                                 high key in header word 56 — a tree
//!                                 without it is rejected on open)
//! 32  log head                   (logging variant: node being split, 0 = idle)
//! 40  reserved                   (never written, ignored on open: a
//!                                 pool written by an earlier version may
//!                                 hold a latch bit here; the root-growth
//!                                 latch is handle state)
//! 48  retired                    (held the logging variant's undo-area
//!                                 offset; must read 0)
//! 56  reserved
//! ```
//!
//! The logging variant's undo area — an 8-byte target tag and one node
//! image — follows its superblock in the same allocation, at byte 64, so
//! no stored word can point it elsewhere.

use std::sync::atomic::AtomicU32;
use std::sync::Arc;

use epoch::EpochDomain;
use pmem::{stats, CommitCell, PmOffset, Pool, NULL_OFFSET};
use pmindex::{BatchOp, Cursor, IndexError, Key, PmIndex, Value};

use crate::hint::LeafDirectory;
use crate::layout::{capacity, is_cold, node_size_fits, NodeRef};
use crate::lock::{latch_table, ReadGuard};
use crate::scan::TreeCursor;
use crate::search::{binary_rank, leaf_search_linear, read_node};

pub(crate) const META_MAGIC: u64 = 0x4641_4952_5452_4545; // "FAIRTREE"
const LOGGING_MAGIC: u64 = 0x554e_444f_5452_4545; // "UNDOTREE"
pub(crate) const META_ROOT: u64 = 8;
pub(crate) const META_NODE_SIZE: u64 = 16;
pub(crate) const META_STRATEGY: u64 = 24;
pub(crate) const META_LOG_HEAD: u64 = 32;
const META_RETIRED: u64 = 48;
/// A logging tree's undo area, relative to its superblock.
pub(crate) const LOG_AREA: u64 = 64;

/// Strategy bits of node layouts this crate no longer reads: bit 1 marked
/// leaf fingerprints (records start one or more lines later), bit 2 the
/// circular record frame (records start at a persistent head).
const RETIRED_STRATEGY_BITS: u64 = 2 | 4;

/// Strategy bit every tree this crate creates sets: its nodes carry a high
/// key. Trees from before it bound a node by its sibling's first key and
/// are not read.
const HIGH_KEY_BIT: u64 = 8;

/// How node splits are made failure-atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// FAIR: in-place rebalance through endurable transient inconsistency
    /// (the paper's contribution, Algorithm 2).
    #[default]
    Fair,
    /// Legacy undo-logging rebalance — the `FAST+Logging` baseline of
    /// Fig. 5(a)/(c), 7–18 % slower due to log flushes.
    Logging,
}

/// In-node search algorithm (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InNodeSearch {
    /// Linear scan — required for lock-free reads, faster below 4 KB nodes.
    #[default]
    Linear,
    /// Binary search — incompatible with lock-free reads (§4); available
    /// for the single-threaded Fig. 3 comparison only.
    Binary,
}

/// Construction options for a [`FastFairTree`].
#[derive(Debug, Clone, Copy)]
pub struct TreeOptions {
    /// Node size in bytes (power of two, 256–4096 in the paper's sweep).
    pub node_size: u32,
    /// Split strategy (FAIR vs. logging).
    pub split: SplitStrategy,
    /// In-node search algorithm.
    pub search: InNodeSearch,
    /// `FAST+FAIR+LeafLock` (§4.1): readers take leaf read locks, trading a
    /// little concurrency for serializable reads.
    pub leaf_locks: bool,
}

impl TreeOptions {
    /// The paper's default configuration: 512-byte nodes, FAIR splits,
    /// linear search, lock-free reads.
    pub fn new() -> Self {
        TreeOptions {
            node_size: 512,
            split: SplitStrategy::Fair,
            search: InNodeSearch::Linear,
            leaf_locks: false,
        }
    }

    /// Sets the node size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the size is not a multiple of 64, holds fewer than four
    /// records or is over 1 MiB.
    pub fn node_size(mut self, bytes: u32) -> Self {
        assert!(
            node_size_fits(u64::from(bytes)),
            "node size {bytes} is not a multiple of 64 between 128 and 1 MiB"
        );
        self.node_size = bytes;
        self
    }

    /// Selects the split strategy.
    pub fn split(mut self, s: SplitStrategy) -> Self {
        self.split = s;
        self
    }

    /// Selects the in-node search algorithm.
    pub fn search(mut self, s: InNodeSearch) -> Self {
        self.search = s;
        self
    }

    /// Enables leaf read locks (serializable reads).
    pub fn leaf_locks(mut self, on: bool) -> Self {
        self.leaf_locks = on;
        self
    }
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions::new()
    }
}

/// A failure-atomic persistent B+-tree using FAST in-node shifts and FAIR
/// in-place rebalancing.
///
/// Writers take one node latch at a time; readers are non-blocking (or take
/// leaf read locks when [`TreeOptions::leaf_locks`] is set). All data lives
/// in a [`pmem::Pool`]; reopening the pool and calling
/// [`FastFairTree::open`] recovers the tree instantly, and
/// [`FastFairTree::recover`] eagerly repairs any transient inconsistency a
/// crash left behind.
///
/// The latches, like the epoch domain and the leaf directory, belong to
/// the handle, not to the pool: a tree's concurrent writers must share one
/// handle. Two handles open on one tree at once do not exclude each
/// other's writers.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pmem::{Pool, PoolConfig};
/// use fastfair::{FastFairTree, TreeOptions};
/// use pmindex::PmIndex;
///
/// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
/// let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new())?;
/// tree.insert(42, 4242)?;
/// assert_eq!(tree.get(42), Some(4242));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FastFairTree {
    pub(crate) pool: Arc<Pool>,
    pub(crate) meta: PmOffset,
    pub(crate) node_size: u32,
    pub(crate) cap: u16,
    pub(crate) opts: TreeOptions,
    /// Epoch-based reclamation domain. Lock-free readers may still be
    /// traversing a node a FAIR merge just unlinked, so the merge path
    /// *retires* the block into this domain's limbo lists; once two
    /// epochs have passed — every reader pinned at retirement time has
    /// left its critical section — the block returns to [`Pool::free`]
    /// **while traffic is live**. [`FastFairTree::recover`] and `Drop`
    /// (both quiescent by contract) flush whatever is still in limbo.
    /// Limbo is volatile by design: a crash empties it and the blocks
    /// leak, matching PM allocators without offline GC.
    pub(crate) epoch: Arc<EpochDomain>,
    /// Volatile `key range → leaf` directory consulted before a descent
    /// (see [`crate::hint`]). Empty on every `create` / `open`.
    pub(crate) directory: LeafDirectory,
    /// One node latch per `node_size` slot of the pool (see
    /// [`crate::lock`]); [`latch`](Self::latch) maps a node to its own.
    latches: Box<[AtomicU32]>,
    /// The superblock's latch: serializes root growth, and a logging
    /// tree's splits over its one undo area.
    pub(crate) meta_latch: AtomicU32,
    name: &'static str,
}

impl std::fmt::Debug for FastFairTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastFairTree")
            .field("meta", &self.meta)
            .field("node_size", &self.node_size)
            .field("height", &self.height())
            .field("opts", &self.opts)
            .finish()
    }
}

impl FastFairTree {
    /// Creates a new empty tree in `pool` and returns its handle.
    ///
    /// The tree's superblock offset ([`meta_offset`](Self::meta_offset))
    /// identifies it inside the pool; applications managing several trees
    /// (e.g. the TPC-C tables) store those offsets in their own directory
    /// object.
    ///
    /// # Errors
    ///
    /// Returns an error if the pool cannot fit the superblock and root node.
    pub fn create(pool: Arc<Pool>, opts: TreeOptions) -> Result<Self, IndexError> {
        let node_size = opts.node_size;
        let logging = opts.split == SplitStrategy::Logging;
        // A logging tree's undo area (target tag + a full node image)
        // follows its superblock in the same allocation.
        let undo = if logging { 8 + u64::from(node_size) } else { 0 };
        let meta = pool.alloc(LOG_AREA + undo, 64)?;
        pool.zero_region(meta, 64);
        let root = pool.alloc(u64::from(node_size), 64)?;
        NodeRef::new(&pool, root, node_size).init(0);
        pool.persist(root, u64::from(node_size));
        pool.store_u64(meta, if logging { LOGGING_MAGIC } else { META_MAGIC });
        pool.store_u64(meta + META_NODE_SIZE, u64::from(node_size));
        pool.store_u64(meta + META_STRATEGY, HIGH_KEY_BIT | u64::from(logging));
        pool.store_u64(meta + META_ROOT, root);
        pool.persist(meta, 64);
        Ok(Self::with_meta(pool, meta, node_size, opts))
    }

    /// Opens the tree whose superblock is at `meta` (instant recovery).
    ///
    /// If the tree uses the logging split strategy and a crash interrupted a
    /// split, the undo log is rolled back here. FAIR trees need no undo:
    /// readers tolerate the crash state, and [`recover`](Self::recover) (or
    /// ordinary writer traffic) repairs it lazily.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Unsupported`] if `meta` is not a 64-aligned
    /// offset inside the pool, the superblock magic does not match, its
    /// node size is one [`TreeOptions::node_size`] would refuse, or its
    /// root is not a 64-aligned node inside the pool, or its retired word
    /// 48 is not zero; if its magic and its strategy disagree on whether
    /// it is a logging tree (a logging tree from before the undo area
    /// followed the superblock has the FAIR magic); if it is a logging
    /// tree whose undo area is not inside the pool, or whose pending
    /// undo image does not match the log head; and if the tree was
    /// created with a removed node layout (leaf fingerprints or the
    /// circular record frame) — its records are not where this crate looks
    /// for them — or before nodes kept a high key.
    pub fn open(pool: Arc<Pool>, meta: PmOffset, opts: TreeOptions) -> Result<Self, IndexError> {
        let refuse = |what: &str| {
            Err(IndexError::Unsupported(format!(
                "tree superblock at offset {meta:#x}: {what}"
            )))
        };
        let magic = pmindex::check_superblock(&pool, meta, &[META_MAGIC, LOGGING_MAGIC], "tree")?;
        let strategy = pool.load_u64(meta + META_STRATEGY);
        if strategy & RETIRED_STRATEGY_BITS != 0 {
            return refuse(if strategy & 2 != 0 {
                "created with leaf fingerprints; that node layout was removed"
            } else {
                "created with the circular record frame; that node layout was removed"
            });
        }
        if strategy & HIGH_KEY_BIT == 0 {
            return refuse("created before nodes kept a high key; its node bounds cannot be read");
        }
        let logging = strategy & 1 == 1;
        if logging != (magic == LOGGING_MAGIC) {
            return refuse(if logging {
                "a logging tree with the FAIR magic: from before its undo area followed the superblock"
            } else {
                "a FAIR tree with the logging magic"
            });
        }
        if pool.load_u64(meta + META_RETIRED) != 0 {
            return refuse("retired word 48 is not zero");
        }
        let node_size = pool.load_u64(meta + META_NODE_SIZE);
        if !node_size_fits(node_size) {
            return refuse("node size out of range");
        }
        let node_size = node_size as u32; // at most 1 MiB
        pmindex::check_link(&pool, meta + META_ROOT, u64::from(node_size), "tree root")?;
        let mut opts = opts;
        opts.node_size = node_size;
        opts.split = if logging {
            if meta + LOG_AREA + 8 + u64::from(node_size) > pool.size() {
                return refuse("a logging tree whose undo area is not inside the pool");
            }
            SplitStrategy::Logging
        } else {
            SplitStrategy::Fair
        };
        let tree = Self::with_meta(pool, meta, node_size, opts);
        tree.undo_log_rollback()?;
        Ok(tree)
    }

    fn with_meta(pool: Arc<Pool>, meta: PmOffset, node_size: u32, opts: TreeOptions) -> Self {
        let name = match (opts.split, opts.leaf_locks, opts.search) {
            (SplitStrategy::Logging, _, _) => "FAST+Logging",
            (SplitStrategy::Fair, true, _) => "FAST+FAIR+LeafLock",
            (SplitStrategy::Fair, false, InNodeSearch::Binary) => "FAST+FAIR(binary)",
            (SplitStrategy::Fair, false, InNodeSearch::Linear) => "FAST+FAIR",
        };
        let epoch = EpochDomain::new();
        FastFairTree {
            latches: latch_table(pool.size(), node_size),
            pool,
            meta,
            node_size,
            cap: capacity(node_size),
            opts,
            directory: LeafDirectory::new(Arc::clone(&epoch)),
            epoch,
            meta_latch: AtomicU32::new(0),
            name,
        }
    }

    /// The tree's epoch-based reclamation domain — exposed so tests,
    /// tooling and reclamation policies can observe or drive the clock
    /// (e.g. force a deterministic advance/collect between phases).
    pub fn epoch(&self) -> &Arc<EpochDomain> {
        &self.epoch
    }

    /// The pool this tree lives in.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Offset of the persistent superblock identifying this tree.
    pub fn meta_offset(&self) -> PmOffset {
        self.meta
    }

    /// Node size in bytes.
    pub fn node_size(&self) -> u32 {
        self.node_size
    }

    /// Records per node.
    pub fn node_capacity(&self) -> u16 {
        self.cap
    }

    /// The configuration this handle was opened with.
    pub fn options(&self) -> &TreeOptions {
        &self.opts
    }

    /// The superblock's root pointer, the commit word of a new root.
    pub(crate) fn root_cell(&self) -> CommitCell {
        CommitCell::at(self.meta + META_ROOT)
    }

    /// Current root node offset.
    pub(crate) fn root(&self) -> PmOffset {
        self.root_cell().load(&self.pool)
    }

    /// Tree height: the root's level (0 = the tree is a single leaf).
    pub fn height(&self) -> u32 {
        self.node(self.root()).level()
    }

    /// The latch of the node at `off`.
    #[inline]
    pub(crate) fn latch(&self, off: PmOffset) -> &AtomicU32 {
        &self.latches[(off / u64::from(self.node_size)) as usize]
    }

    /// Borrowed view of the node at `off`.
    #[inline]
    pub(crate) fn node(&self, off: PmOffset) -> NodeRef<'_> {
        NodeRef::new(&self.pool, off, self.node_size)
    }

    /// Lands on the node at `off`, which the walk expects at `level`: the
    /// one place a walk of this tree pays for a hop, and the crate's one
    /// read-charging rule.
    ///
    /// The level is always known before the node is read: a directory
    /// entry and a leaf's sibling are leaves, a sibling sits at its left
    /// neighbour's level, and a routed child one level below its parent.
    /// Only the root is read first, to learn it. So the node's lines are
    /// fetched before anything waits on them: `visit` prefetches all
    /// `node_size` bytes (the pB+-tree's node prefetch, Chen, Gibbons &
    /// Mowry, SIGMOD 2001) and the node's latch word, then charges one
    /// serial miss if the level [`is_cold`], and only then is the header
    /// read. The host's misses on the node and on the latch table, which a
    /// writer latches next, overlap each other and the modelled stall
    /// instead of adding to it; what the model charges does not depend on
    /// the prefetch.
    ///
    /// The rule: landing on one of the two lowest levels costs a PM miss,
    /// anything above is free. That models the paper's testbed (§5.1):
    /// Quartz stalls only real last-level-cache misses, and a B+-tree's few
    /// upper levels — at 4 M keys and 512-byte nodes the leaves are
    /// ≈ 80 MB, level 1 ≈ 3 MB, level 2 ≈ 0.1 MB — stay LLC-resident.
    /// Readers, writers, parent updates, merges and the leaf-directory
    /// build all land here (as `wbtree`'s descent asks the same question
    /// for its reads and writes): an access the leaf directory settles
    /// costs one miss, a full descent two.
    #[inline]
    pub(crate) fn visit(&self, off: PmOffset, level: u32) -> NodeRef<'_> {
        self.pool.prefetch(off, u64::from(self.node_size));
        crate::lock::prefetch(self.latch(off));
        if is_cold(level) {
            self.pool.charge_serial_reads(1);
        }
        let node = self.node(off);
        debug_assert_eq!(
            node.level(),
            level,
            "node {off:#x} is not at the level its walk expected"
        );
        node
    }

    /// Lock-free descent from the root to the node at `level` whose key
    /// range contains `key`; `None` if the root is below that level.
    pub(crate) fn descend_to_level(&self, level: u32, key: Key) -> Option<PmOffset> {
        let root = self.root();
        let mut at = self.node(root).level();
        let mut node = self.visit(root, at);
        if at < level {
            return None;
        }
        while at > level {
            // Move right first: the node may have split under us (B-link).
            let next = match node.right_of(key) {
                Some(sib) => sib,
                None => {
                    at -= 1;
                    self.route(node, key)
                }
            };
            node = self.visit(next, at);
        }
        Some(node.offset())
    }

    /// Descends from the root to the leaf whose key range contains `key`.
    pub(crate) fn find_leaf(&self, key: Key) -> PmOffset {
        self.descend_to_level(0, key)
            .expect("every tree has a leaf level")
    }

    /// Chooses the child of internal node `node` whose key range holds
    /// `key`; the caller has already checked that `node` covers it.
    fn route(&self, node: NodeRef<'_>, key: Key) -> PmOffset {
        match self.opts.search {
            InNodeSearch::Linear => self.route_linear(node, key),
            // The child left of the first key above `key`.
            InNodeSearch::Binary => match binary_rank(node, |k| k <= key) {
                None | Some(0) => node.leftmost(),
                Some(at) => node.ptr(at - 1),
            },
        }
    }

    /// Direction-aware lock-free child routing: a fold over the one
    /// reader, [`crate::search::read_node`].
    pub(crate) fn route_linear(&self, node: NodeRef<'_>, key: Key) -> PmOffset {
        loop {
            // Internal-node lines are LLC-resident on the modelled testbed;
            // no scan charge here (the leaf scan is charged in `search`).
            let mut routed = (true, NULL_OFFSET);
            read_node(
                node,
                false,
                &mut routed,
                |routed, forward| *routed = (forward, node.leftmost()),
                |_| true,
                |(forward, child), k, p| {
                    // The last entry at or below `key` routes: left to
                    // right, the scan ends past it; right to left, at it.
                    if k <= key {
                        *child = p;
                    }
                    (k <= key) != *forward
                },
            );
            let (_, child) = routed;
            if child != NULL_OFFSET {
                return child;
            }
            // Transient empty view; retry.
            std::hint::spin_loop();
        }
    }

    /// Offset of the leftmost leaf.
    pub(crate) fn leftmost_leaf(&self) -> PmOffset {
        let mut node = self.node(self.root());
        while !node.is_leaf() {
            node = self.node(node.leftmost());
        }
        node.offset()
    }

    /// Visits every live `(key, value)` pair in ascending key order.
    ///
    /// Duplicates from an in-flight or crashed split (the "virtual single
    /// node" state of Fig. 2) are suppressed by the cursor's monotonicity
    /// filter.
    pub fn for_each(&self, mut f: impl FnMut(Key, Value)) {
        let mut c = TreeCursor::new(self);
        while let Some((k, v)) = Cursor::next(&mut c) {
            f(k, v);
        }
    }

    /// Retires an unlinked node into the epoch domain: the block returns
    /// to [`Pool::free`] once two epochs have passed, while traffic is
    /// live (see the `epoch` field docs). The leaf directory, which may
    /// name the node, is invalidated first, so only operations already
    /// pinned can still follow it — and those the epoch rule waits for.
    pub(crate) fn retire_node(&self, off: PmOffset) {
        self.directory.invalidate();
        self.epoch
            .retire_pm(&self.pool, off, u64::from(self.node_size));
    }

    /// Returns every limbo-held node to the pool's free list immediately;
    /// the caller must guarantee no concurrent reader can still hold a
    /// reference (recovery and drop both do).
    pub(crate) fn reclaim_retired(&self) -> usize {
        self.epoch.flush()
    }

    /// Exact-match search within one leaf, by the tree's reader protocol.
    fn search_leaf(&self, leaf: NodeRef<'_>, key: Key) -> Option<Value> {
        let _guard = self
            .opts
            .leaf_locks
            .then(|| ReadGuard::lock(self.latch(leaf.offset())));
        match self.opts.search {
            InNodeSearch::Linear => leaf_search_linear(leaf, key),
            // The first record not below `key`; the slot after the last
            // record is the terminator, which no entry matches.
            InNodeSearch::Binary => binary_rank(leaf, |k| k < key)
                .filter(|&at| leaf.entry_valid(at) && leaf.key(at) == key)
                .map(|at| leaf.ptr(at)),
        }
    }

    fn get_impl(&self, key: Key, pin: &epoch::Guard) -> Option<Value> {
        let (mut off, directed) = self.locate_leaf(key, pin);
        let mut hops = 0;
        let found = loop {
            let leaf = self.node(off);
            if let Some(v) = self.search_leaf(leaf, key) {
                break Some(v);
            }
            match leaf.right_of(key) {
                Some(sib) => off = self.visit(sib, 0).offset(),
                None => break None,
            }
            hops += 1;
        };
        self.settle(directed, hops);
        found
    }
}

/// Router-facing persistence contract: `create_in`/`open_in` use the
/// default [`TreeOptions`] (`open` re-reads node size and split strategy
/// from the superblock regardless, so a tree created with custom options
/// re-opens faithfully).
impl pmindex::PersistentIndex for FastFairTree {
    fn create_in(pool: Arc<Pool>) -> Result<Self, IndexError> {
        FastFairTree::create(pool, TreeOptions::new())
    }
    fn open_in(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        FastFairTree::open(pool, meta, TreeOptions::new())
    }
    fn superblock(&self) -> PmOffset {
        self.meta_offset()
    }
}

impl Drop for FastFairTree {
    fn drop(&mut self) {
        // The handle is going away, so no reader of *this* handle can still
        // hold references into limbo-held nodes; give any blocks online
        // reclamation has not yet collected back to the pool for the next
        // tree (or table) sharing it.
        self.reclaim_retired();
    }
}

impl PmIndex for FastFairTree {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        pmindex::check_value(value)?;
        let pin = self.epoch.pin();
        crate::insert::tree_insert(self, key, value, &pin)
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        pmindex::check_value(value)?;
        let pin = self.epoch.pin();
        crate::insert::tree_update(self, key, value, &pin)
    }

    fn get(&self, key: Key) -> Option<Value> {
        let pin = self.epoch.pin();
        stats::timed(stats::Phase::Search, || self.get_impl(key, &pin))
    }

    fn remove(&self, key: Key) -> bool {
        let pin = self.epoch.pin();
        crate::delete::tree_remove(self, key, &pin).is_some()
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        Box::new(TreeCursor::new(self))
    }

    fn bulk_load(
        &self,
        items: &mut dyn Iterator<Item = (Key, Value)>,
    ) -> Result<usize, IndexError> {
        self.bulk_load_sorted(items)
    }

    /// One descent per op: `insert` already stands on the record it
    /// overwrites and `remove` on the one it poisons, so the previous
    /// value costs no read of its own. One epoch pin covers the batch.
    fn apply_batch_prev(
        &self,
        ops: &[BatchOp],
        prev: &mut Vec<Option<Value>>,
    ) -> Result<(), IndexError> {
        let pin = self.epoch.pin();
        for op in ops {
            prev.push(match *op {
                BatchOp::Put(k, v) => {
                    pmindex::check_value(v)?;
                    crate::insert::tree_insert(self, k, v, &pin)?
                }
                BatchOp::Delete(k) => crate::delete::tree_remove(self, k, &pin),
            });
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

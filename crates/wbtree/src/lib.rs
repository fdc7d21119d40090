//! wB+-tree with slot-array + bitmap nodes (Chen & Jin, VLDB 2015).
//!
//! The append-only baseline of the FAST+FAIR paper. Every node keeps its
//! records **unsorted**; ordering lives in a small *slot array* (one byte
//! per record, listing record indices in key order), and an 8-byte
//! *bitmap* whose bit 0 says "the slot array is valid" and whose bits
//! `1..` say which record slots are in use.
//!
//! An insert therefore never shifts records. It:
//!
//! 1. writes the new record into a free slot and flushes it;
//! 2. clears the slot-array-valid bit (one persisted 8-byte store);
//! 3. rewrites the slot array in place and flushes it;
//! 4. sets the bitmap with the new record bit and the valid bit — a single
//!    failure-atomic 8-byte store — and flushes.
//!
//! That is the "at least four cache line flushes" per insert the paper
//! counts (§5, ~1.7× FAST+FAIR), and the indirect slot access is the extra
//! cache-line traffic that hurts its searches. Structure modifications
//! (splits) use undo logging, the other overhead the paper attributes to
//! wB+-tree.
//!
//! Concurrency: like the original, this index is not designed for
//! concurrent access (§5.7); a single tree-level mutex serializes all
//! operations. Streaming cursors, however, hold the lock only per leaf
//! read and keep a raw next-leaf offset between calls — so when a delete
//! empties a leaf, the unlinked block is *retired* through the tree's
//! epoch domain (`crates/epoch`) and recycled online once every cursor
//! pinned at retirement time has moved on, instead of waiting for drop.

#![warn(missing_docs)]

use std::sync::Arc;

use epoch::EpochDomain;
use parking_lot::Mutex;
use pmem::{stats, PmOffset, Pool, NULL_OFFSET};
use pmindex::{check_value, Cursor, IndexError, Key, PmIndex, Value};

/// Node byte size (fixed at 1 KB as in the paper's evaluation).
pub const NODE_SIZE: u64 = 1024;
/// Records per node: (1024 - 128-byte header) / 16.
pub const CAPACITY: usize = 56;

const OFF_BITMAP: u64 = 0;
const OFF_SLOTS: u64 = 8; // 64 bytes: [count, idx0, idx1, ...]
const OFF_LEFTMOST: u64 = 72;
const OFF_SIBLING: u64 = 80;
const OFF_LEVEL: u64 = 88;
const OFF_RECORDS: u64 = 128;

const SLOT_VALID_BIT: u64 = 1;

const META_MAGIC: u64 = 0x7742_5452_4545_0001;
const META_ROOT: u64 = 8;
const META_LOG_HEAD: u64 = 16;
const META_LOG_AREA: u64 = 24;

/// Deepest structure modification the undo log can hold (tree height 8 is
/// ~56^8 keys, far beyond any workload here).
const MAX_LOGGED_NODES: u64 = 8;
/// The undo log: the root before the modification, the entry count, then
/// one (target, image) entry per logged node.
const LOG_AREA_SIZE: u64 = 16 + MAX_LOGGED_NODES * (8 + NODE_SIZE);

/// A persistent wB+-tree with slot+bitmap nodes.
pub struct WbTree {
    pool: Arc<Pool>,
    meta: PmOffset,
    op_lock: Mutex<()>,
    /// Reclamation domain for leaves unlinked by the empty-leaf merge;
    /// see the module docs.
    epoch: Arc<EpochDomain>,
}

impl std::fmt::Debug for WbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WbTree").field("meta", &self.meta).finish()
    }
}

struct Node<'a> {
    pool: &'a Pool,
    off: PmOffset,
}

impl<'a> Node<'a> {
    fn bitmap(&self) -> u64 {
        self.pool.load_u64(self.off + OFF_BITMAP)
    }
    fn set_bitmap(&self, v: u64) {
        self.pool.store_u64(self.off + OFF_BITMAP, v);
    }
    fn slot_count(&self) -> usize {
        self.pool.load_u8(self.off + OFF_SLOTS) as usize
    }
    fn slot(&self, i: usize) -> usize {
        self.pool.load_u8(self.off + OFF_SLOTS + 1 + i as u64) as usize
    }
    fn set_slots(&self, slots: &[u8]) {
        debug_assert!(slots.len() <= CAPACITY);
        self.pool.store_u8(self.off + OFF_SLOTS, slots.len() as u8);
        for (i, &s) in slots.iter().enumerate() {
            self.pool.store_u8(self.off + OFF_SLOTS + 1 + i as u64, s);
        }
    }
    fn leftmost(&self) -> PmOffset {
        self.pool.load_u64(self.off + OFF_LEFTMOST)
    }
    fn set_leftmost(&self, v: PmOffset) {
        self.pool.store_u64(self.off + OFF_LEFTMOST, v);
    }
    fn sibling(&self) -> PmOffset {
        self.pool.load_u64(self.off + OFF_SIBLING)
    }
    fn set_sibling(&self, v: PmOffset) {
        self.pool.store_u64(self.off + OFF_SIBLING, v);
    }
    fn level(&self) -> u64 {
        self.pool.load_u64(self.off + OFF_LEVEL)
    }
    fn set_level(&self, v: u64) {
        self.pool.store_u64(self.off + OFF_LEVEL, v);
    }
    fn key_at(&self, slot: usize) -> Key {
        self.pool
            .load_u64(self.off + OFF_RECORDS + slot as u64 * 16)
    }
    fn val_at(&self, slot: usize) -> Value {
        self.pool
            .load_u64(self.off + OFF_RECORDS + slot as u64 * 16 + 8)
    }
    fn write_record(&self, slot: usize, key: Key, val: Value) {
        let base = self.off + OFF_RECORDS + slot as u64 * 16;
        self.pool.store_u64(base, key);
        self.pool.store_u64(base + 8, val);
        self.pool.persist(base, 16);
    }

    /// Index of a free record slot, if any.
    fn free_slot(&self) -> Option<usize> {
        let bm = self.bitmap();
        (0..CAPACITY).find(|&i| bm & (1u64 << (i + 1)) == 0)
    }

    /// Sorted slot view. Uses the slot array when valid, otherwise falls
    /// back to scanning the bitmap (the recovery path of the original
    /// design).
    fn sorted_slots(&self) -> Vec<usize> {
        let bm = self.bitmap();
        if bm & SLOT_VALID_BIT != 0 {
            (0..self.slot_count()).map(|i| self.slot(i)).collect()
        } else {
            let mut v: Vec<usize> = (0..CAPACITY)
                .filter(|&i| bm & (1u64 << (i + 1)) != 0)
                .collect();
            v.sort_by_key(|&s| self.key_at(s));
            v
        }
    }

    fn count(&self) -> usize {
        let bm = self.bitmap();
        (0..CAPACITY)
            .filter(|&i| bm & (1u64 << (i + 1)) != 0)
            .count()
    }

    /// Binary search over the slot array; returns `Ok(pos)` if the key is
    /// at sorted position `pos`, else `Err(insert_pos)`. Dependent probes
    /// are charged as PM misses only on cold (leaf-level) nodes; upper
    /// levels are LLC-resident on the modelled testbed.
    fn search_sorted(&self, slots: &[usize], key: Key) -> Result<usize, usize> {
        if self.level() == 0 {
            // Slot-array indirection: each probe may touch a distinct line.
            let probes = (slots.len().max(1) as u32).ilog2() + 1;
            self.pool.charge_serial_reads(probes);
        }
        slots.binary_search_by_key(&key, |&s| self.key_at(s))
    }

    /// The slot+bitmap commit protocol after a record write.
    fn commit_slots(&self, new_slots: &[u8], new_bitmap_bits: u64) {
        let pool = self.pool;
        // Invalidate the slot array.
        self.set_bitmap(self.bitmap() & !SLOT_VALID_BIT);
        pool.persist(self.off + OFF_BITMAP, 8);
        // Rewrite the slot array.
        self.set_slots(new_slots);
        pool.persist(self.off + OFF_SLOTS, 64);
        // Atomic bitmap commit (valid bit + record bits).
        self.set_bitmap(new_bitmap_bits | SLOT_VALID_BIT);
        pool.persist(self.off + OFF_BITMAP, 8);
    }
}

impl WbTree {
    /// Creates an empty wB+-tree in `pool`.
    ///
    /// # Errors
    ///
    /// Fails if the pool cannot hold the superblock, log area and root.
    pub fn create(pool: Arc<Pool>) -> Result<Self, IndexError> {
        let meta = pool.alloc(64, 64)?;
        pool.zero_region(meta, 64);
        let root = Self::alloc_node(&pool, 0)?;
        let log = pool.alloc(LOG_AREA_SIZE, 64)?;
        pool.store_u64(meta, META_MAGIC);
        pool.store_u64(meta + META_ROOT, root);
        pool.store_u64(meta + META_LOG_AREA, log);
        pool.persist(meta, 64);
        Ok(WbTree {
            pool,
            meta,
            op_lock: Mutex::new(()),
            epoch: EpochDomain::new(),
        })
    }

    /// Opens an existing tree, rolling back a half-finished split.
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `meta` is not a 64-aligned line inside
    /// the pool holding a wB+-tree superblock magic, or if its root or
    /// undo-log area word is not a 64-aligned block inside the pool.
    pub fn open(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        pmindex::check_superblock(&pool, meta, &[META_MAGIC], "wB+-tree")?;
        pmindex::check_link(&pool, meta + META_ROOT, NODE_SIZE, "wB+-tree root")?;
        pmindex::check_link(
            &pool,
            meta + META_LOG_AREA,
            LOG_AREA_SIZE,
            "wB+-tree undo log",
        )?;
        // The log head is a flag: 1 while an undo image is pending. Any
        // other value is a corrupt word, and rolling back on it would copy
        // stale images over live nodes.
        let head = pool.load_u64(meta + META_LOG_HEAD);
        if head > 1 {
            return Err(IndexError::Unsupported(format!(
                "wB+-tree undo-log head (the word at {:#x}) is {head:#x}, neither 0 nor 1",
                meta + META_LOG_HEAD
            )));
        }
        let t = WbTree {
            pool,
            meta,
            op_lock: Mutex::new(()),
            epoch: EpochDomain::new(),
        };
        t.rollback_log();
        Ok(t)
    }

    /// Superblock offset of this tree.
    pub fn meta_offset(&self) -> PmOffset {
        self.meta
    }

    fn alloc_node(pool: &Pool, level: u64) -> Result<PmOffset, IndexError> {
        let off = pool.alloc(NODE_SIZE, 64)?;
        pool.zero_region(off, NODE_SIZE);
        let n = Node { pool, off };
        n.set_level(level);
        n.set_bitmap(SLOT_VALID_BIT);
        pool.persist(off, NODE_SIZE);
        Ok(off)
    }

    fn node(&self, off: PmOffset) -> Node<'_> {
        Node {
            pool: &self.pool,
            off,
        }
    }

    fn root(&self) -> PmOffset {
        self.pool.load_u64(self.meta + META_ROOT)
    }

    /// Descends to the leaf covering `key`, recording the path of internal
    /// nodes (needed for splits, since there are no parent pointers).
    fn find_leaf(&self, key: Key) -> (PmOffset, Vec<PmOffset>) {
        let mut path = Vec::new();
        let mut off = self.root();
        loop {
            let n = self.node(off);
            if n.level() <= 1 {
                self.pool.charge_serial_reads(1);
            }
            if n.level() == 0 {
                return (off, path);
            }
            path.push(off);
            let slots = n.sorted_slots();
            let child = match n.search_sorted(&slots, key) {
                Ok(pos) => n.val_at(slots[pos]),
                Err(0) => n.leftmost(),
                Err(pos) => n.val_at(slots[pos - 1]),
            };
            off = child;
        }
    }

    /// Undo-log rollback for crashed structure modifications: restores the
    /// root pointer and every logged node image.
    fn rollback_log(&self) {
        let head = self.pool.load_u64(self.meta + META_LOG_HEAD);
        if head == NULL_OFFSET {
            return;
        }
        let area = self.pool.load_u64(self.meta + META_LOG_AREA);
        let root_val = self.pool.load_u64(area);
        let count = self.pool.load_u64(area + 8);
        for e in 0..count {
            let base = area + 16 + e * (8 + NODE_SIZE);
            let target = self.pool.load_u64(base);
            for w in 0..NODE_SIZE / 8 {
                self.pool
                    .store_u64(target + w * 8, self.pool.load_u64(base + 8 + w * 8));
            }
            self.pool.persist(target, NODE_SIZE);
        }
        self.pool.store_u64(self.meta + META_ROOT, root_val);
        self.pool.persist(self.meta + META_ROOT, 8);
        self.pool.store_u64(self.meta + META_LOG_HEAD, 0);
        self.pool.persist(self.meta + META_LOG_HEAD, 8);
    }

    /// Logs the before-images of every node a structure modification will
    /// touch (the leaf, each full ancestor, and the first non-full
    /// ancestor), plus the root pointer. This whole-SMO undo log is the
    /// "expensive logging" overhead the paper attributes to wB+-tree
    /// rebalancing.
    fn log_smo(&self, nodes: &[PmOffset]) {
        debug_assert!(nodes.len() as u64 <= MAX_LOGGED_NODES);
        let area = self.pool.load_u64(self.meta + META_LOG_AREA);
        self.pool.store_u64(area, self.root());
        self.pool.store_u64(area + 8, nodes.len() as u64);
        for (e, &off) in nodes.iter().enumerate() {
            let base = area + 16 + e as u64 * (8 + NODE_SIZE);
            self.pool.store_u64(base, off);
            for w in 0..NODE_SIZE / 8 {
                self.pool
                    .store_u64(base + 8 + w * 8, self.pool.load_u64(off + w * 8));
            }
        }
        self.pool
            .persist(area, 16 + nodes.len() as u64 * (8 + NODE_SIZE));
        self.pool.store_u64(self.meta + META_LOG_HEAD, 1);
        self.pool.persist(self.meta + META_LOG_HEAD, 8);
    }

    fn clear_log(&self) {
        self.pool.store_u64(self.meta + META_LOG_HEAD, 0);
        self.pool.persist(self.meta + META_LOG_HEAD, 8);
    }

    /// Inserts `(key, value)` into a node with free space using the
    /// slot+bitmap protocol; returns the replaced value when the key
    /// already existed (upsert).
    fn insert_into_node(
        &self,
        off: PmOffset,
        key: Key,
        value: Value,
    ) -> Result<Option<Value>, IndexError> {
        let n = self.node(off);
        let sorted = n.sorted_slots();
        let pos = match n.search_sorted(&sorted, key) {
            Ok(p) => {
                // Upsert: overwrite the value in place and persist it — one
                // failure-atomic 8-byte store.
                let s = sorted[p];
                let old = n.val_at(s);
                self.pool
                    .store_u64(n.off + OFF_RECORDS + s as u64 * 16 + 8, value);
                self.pool
                    .persist(n.off + OFF_RECORDS + s as u64 * 16 + 8, 8);
                return Ok(Some(old));
            }
            Err(p) => p,
        };
        let slot = n.free_slot().expect("caller checked space");
        n.write_record(slot, key, value);
        let mut new_slots: Vec<u8> = sorted.iter().map(|&s| s as u8).collect();
        new_slots.insert(pos, slot as u8);
        let new_bitmap = n.bitmap() | (1u64 << (slot + 1));
        n.commit_slots(&new_slots, new_bitmap);
        Ok(None)
    }

    /// Splits the full node at `off`, returning (split key, new sibling).
    /// Crash safety comes from the surrounding whole-SMO undo log.
    fn split_node(&self, off: PmOffset) -> Result<(Key, PmOffset), IndexError> {
        let n = self.node(off);
        let level = n.level();
        let sorted = n.sorted_slots();
        let mid = sorted.len() / 2;
        let split_key = n.key_at(sorted[mid]);

        let sib_off = Self::alloc_node(&self.pool, level)?;
        let sib = self.node(sib_off);
        // Copy the upper half into the unreachable sibling.
        let upper: Vec<usize> = if level == 0 {
            sorted[mid..].to_vec()
        } else {
            sib.set_leftmost(n.val_at(sorted[mid]));
            sorted[mid + 1..].to_vec()
        };
        let mut sib_slots = Vec::new();
        let mut sib_bitmap = 0u64;
        for (j, &s) in upper.iter().enumerate() {
            let base = sib_off + OFF_RECORDS + j as u64 * 16;
            self.pool.store_u64(base, n.key_at(s));
            self.pool.store_u64(base + 8, n.val_at(s));
            sib_slots.push(j as u8);
            sib_bitmap |= 1u64 << (j + 1);
        }
        sib.set_slots(&sib_slots);
        sib.set_bitmap(sib_bitmap | SLOT_VALID_BIT);
        sib.set_sibling(n.sibling());
        self.pool.persist(sib_off, NODE_SIZE);

        // Shrink the original to the lower half (logged).
        let keep = &sorted[..mid];
        let keep_slots: Vec<u8> = keep.iter().map(|&s| s as u8).collect();
        let mut keep_bitmap = 0u64;
        for &s in keep {
            keep_bitmap |= 1u64 << (s + 1);
        }
        n.set_sibling(sib_off);
        self.pool.persist(n.off + OFF_SIBLING, 8);
        n.commit_slots(&keep_slots, keep_bitmap);

        Ok((split_key, sib_off))
    }

    fn insert_recursive(
        &self,
        key: Key,
        value: Value,
        leaf: PmOffset,
        path: &[PmOffset],
    ) -> Result<Option<Value>, IndexError> {
        // Fast path: no structure modification needed.
        if self.node(leaf).count() < CAPACITY {
            return self.insert_into_node(leaf, key, value);
        }

        // Slow path: log the before-image of every node this SMO can touch
        // (the leaf and each consecutively full ancestor plus the first
        // non-full one), then perform the splits; recovery rolls the whole
        // modification back if a crash intervenes.
        let mut smo = vec![leaf];
        for &anc in path.iter().rev() {
            smo.push(anc);
            if self.node(anc).count() < CAPACITY {
                break;
            }
        }
        self.log_smo(&smo);

        let mut target = leaf;
        let mut k = key;
        let mut v = value;
        let mut depth = path.len();
        // Only the first (leaf-level) insertion can replace the caller's
        // key; the propagated separators are always fresh.
        let mut at_leaf = true;
        let mut replaced = None;
        loop {
            let n = self.node(target);
            if n.count() < CAPACITY {
                let r = self.insert_into_node(target, k, v)?;
                if at_leaf {
                    replaced = r;
                }
                break;
            }
            let (split_key, sib) = self.split_node(target)?;
            let dest = if k < split_key { target } else { sib };
            let r = self.insert_into_node(dest, k, v)?;
            if at_leaf {
                replaced = r;
                at_leaf = false;
            }
            // Propagate the separator upward.
            if depth == 0 {
                let new_root = Self::alloc_node(&self.pool, n.level() + 1)?;
                let nr = self.node(new_root);
                nr.set_leftmost(target);
                nr.write_record(0, split_key, sib);
                nr.set_slots(&[0]);
                nr.set_bitmap(SLOT_VALID_BIT | 0b10);
                self.pool.persist(new_root, NODE_SIZE);
                self.pool.store_u64(self.meta + META_ROOT, new_root);
                self.pool.persist(self.meta + META_ROOT, 8);
                break;
            }
            depth -= 1;
            target = path[depth];
            k = split_key;
            v = sib;
        }
        self.clear_log();
        Ok(replaced)
    }

    /// Unlinks the empty leaf at `leaf` (§4.2-style merge, adapted to the
    /// slot+bitmap commit discipline). Caller holds the operation lock.
    /// Best effort — any bail-out leaves a harmless empty pass-through
    /// leaf in the chain.
    ///
    /// Two independently tolerable commit points:
    ///
    /// 1. drop the parent's routing entry (one atomic slot+bitmap
    ///    commit): keys that routed here now route to the left sibling;
    /// 2. bypass the leaf in the chain (`left.sibling = leaf.sibling`,
    ///    one persisted 8-byte store).
    ///
    /// A crash between the two leaves an empty, unrouted leaf that scans
    /// pass through; it leaks, matching PM allocators without offline GC.
    /// The unlinked block is retired through the epoch domain — a cursor
    /// that buffered this leaf's offset before the unlink pins the domain
    /// and keeps the block alive until it moves on.
    fn try_unlink_empty_leaf(&self, leaf: PmOffset, path: &[PmOffset]) {
        let Some(&parent_off) = path.last() else {
            return; // the root leaf is never unlinked
        };
        let parent = self.node(parent_off);
        let n = self.node(leaf);
        if parent.level() != 1 || n.count() != 0 {
            return;
        }
        let slots = parent.sorted_slots();
        let Some(pos) = slots.iter().position(|&s| parent.val_at(s) == leaf) else {
            return; // the parent's leftmost child: bail (no left sibling here)
        };
        let left_off = if pos == 0 {
            parent.leftmost()
        } else {
            parent.val_at(slots[pos - 1])
        };
        if left_off == NULL_OFFSET || self.node(left_off).sibling() != leaf {
            return;
        }
        // Step 1: atomic routing-entry removal.
        let slot = slots[pos];
        let mut new_slots: Vec<u8> = slots.iter().map(|&s| s as u8).collect();
        new_slots.remove(pos);
        parent.commit_slots(&new_slots, parent.bitmap() & !(1u64 << (slot + 1)));
        // Step 2: chain bypass — the visibility commit.
        let left = self.node(left_off);
        left.set_sibling(n.sibling());
        self.pool.persist(left_off + OFF_SIBLING, 8);
        // Unreachable for new traversals; recycle once cursors moved on.
        self.epoch.retire_pm(&self.pool, leaf, NODE_SIZE);
    }
}

/// The per-leaf read hook behind [`WbCursor`]: each call takes the
/// tree's operation lock for its own duration only.
///
/// The epoch guard pins the cursor's whole lifetime: the saved next-leaf
/// offset stays valid even if a delete merges that leaf away mid-scan —
/// the retired block cannot be recycled until this cursor drops.
struct WbChain<'a> {
    tree: &'a WbTree,
    _pin: epoch::Guard<'a>,
}

impl pmindex::chain::LeafChain for WbChain<'_> {
    type Leaf = PmOffset;

    fn locate(&self, target: Key) -> PmOffset {
        let _g = self.tree.op_lock.lock();
        self.tree.find_leaf(target).0
    }

    fn first(&self) -> PmOffset {
        let _g = self.tree.op_lock.lock();
        let mut off = self.tree.root();
        loop {
            let n = self.tree.node(off);
            if n.level() == 0 {
                break off;
            }
            off = n.leftmost();
        }
    }

    /// Charges the sibling hop to a hopped-to leaf when it reads it
    /// (`find_leaf` charged the located ones).
    fn read(&self, off: PmOffset, hop: bool, buf: &mut Vec<(Key, Value)>) -> Option<PmOffset> {
        if hop {
            self.tree.pool.charge_serial_reads(1);
        }
        let _g = self.tree.op_lock.lock();
        let n = self.tree.node(off);
        // Slot indirection: records are visited out of physical order,
        // costing more lines than the sorted layout of FAST+FAIR.
        let slots = n.sorted_slots();
        self.tree
            .pool
            .charge_parallel_lines((slots.len() as u32).div_ceil(2).max(1));
        buf.extend(slots.into_iter().map(|s| (n.key_at(s), n.val_at(s))));
        let sib = n.sibling();
        (sib != NULL_OFFSET).then_some(sib)
    }

    /// Leaves keep no high key, so the bound is the first key of `next`,
    /// the sibling `read` returned under the same lock as the entries: a
    /// leaf read after a split comes with the sibling that took its upper
    /// half.
    fn covers(&self, _off: PmOffset, next: Option<PmOffset>, key: Key) -> bool {
        let Some(sib) = next else { return true };
        let _g = self.tree.op_lock.lock();
        let n = self.tree.node(sib);
        n.sorted_slots().first().is_none_or(|&s| n.key_at(s) > key)
    }
}

/// Streaming cursor over the wB+-tree's sibling-linked leaves.
///
/// The [`pmindex::chain::LeafChainCursor`] instantiation for this index:
/// buffers one leaf at a time, resolving the slot-array indirection per
/// leaf under the tree's operation lock; the lock is *not* held between
/// [`Cursor::next`] calls.
pub struct WbCursor<'a>(pmindex::chain::LeafChainCursor<WbChain<'a>>);

impl<'a> WbCursor<'a> {
    fn new(tree: &'a WbTree) -> Self {
        WbCursor(pmindex::chain::LeafChainCursor::new(WbChain {
            tree,
            _pin: tree.epoch.pin(),
        }))
    }
}

impl Cursor for WbCursor<'_> {
    fn seek(&mut self, target: Key) {
        self.0.seek(target)
    }

    fn next(&mut self) -> Option<(Key, Value)> {
        self.0.next()
    }

    fn seek_for_prev(&mut self, target: Key) {
        self.0.seek_for_prev(target)
    }

    fn prev(&mut self) -> Option<(Key, Value)> {
        self.0.prev()
    }
}

impl pmindex::PersistentIndex for WbTree {
    fn create_in(pool: Arc<Pool>) -> Result<Self, IndexError> {
        WbTree::create(pool)
    }
    fn open_in(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        WbTree::open(pool, meta)
    }
    fn superblock(&self) -> PmOffset {
        self.meta_offset()
    }
}

impl PmIndex for WbTree {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        let _g = self.op_lock.lock();
        let _pin = self.epoch.pin();
        let (leaf, path) = stats::timed(stats::Phase::Search, || self.find_leaf(key));
        stats::timed(stats::Phase::Update, || {
            self.insert_recursive(key, value, leaf, &path)
        })
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        let _g = self.op_lock.lock();
        let _pin = self.epoch.pin();
        let (leaf, _) = stats::timed(stats::Phase::Search, || self.find_leaf(key));
        let n = self.node(leaf);
        let sorted = n.sorted_slots();
        match n.search_sorted(&sorted, key) {
            Ok(p) => stats::timed(stats::Phase::Update, || {
                // One failure-atomic 8-byte value store.
                let s = sorted[p];
                let old = n.val_at(s);
                self.pool
                    .store_u64(n.off + OFF_RECORDS + s as u64 * 16 + 8, value);
                self.pool
                    .persist(n.off + OFF_RECORDS + s as u64 * 16 + 8, 8);
                Ok(Some(old))
            }),
            Err(_) => Ok(None),
        }
    }

    fn get(&self, key: Key) -> Option<Value> {
        let _g = self.op_lock.lock();
        let _pin = self.epoch.pin();
        stats::timed(stats::Phase::Search, || {
            let (leaf, _) = self.find_leaf(key);
            let n = self.node(leaf);
            let slots = n.sorted_slots();
            match n.search_sorted(&slots, key) {
                Ok(pos) => Some(n.val_at(slots[pos])),
                Err(_) => None,
            }
        })
    }

    fn remove(&self, key: Key) -> bool {
        let _g = self.op_lock.lock();
        let _pin = self.epoch.pin();
        let (leaf, path) = self.find_leaf(key);
        let n = self.node(leaf);
        let slots = n.sorted_slots();
        match n.search_sorted(&slots, key) {
            Ok(pos) => {
                let slot = slots[pos];
                let mut new_slots: Vec<u8> = slots.iter().map(|&s| s as u8).collect();
                new_slots.remove(pos);
                let new_bitmap = n.bitmap() & !(1u64 << (slot + 1));
                n.commit_slots(&new_slots, new_bitmap);
                if slots.len() == 1 {
                    // The leaf is now empty: merge it away (best effort).
                    self.try_unlink_empty_leaf(leaf, &path);
                }
                true
            }
            Err(_) => false,
        }
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        Box::new(WbCursor::new(self))
    }

    fn name(&self) -> &'static str {
        "wB+-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use pmindex::workload::{generate_keys, value_for, KeyDist};
    use std::collections::BTreeMap;

    fn mk() -> (Arc<Pool>, WbTree) {
        let p = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
        let t = WbTree::create(Arc::clone(&p)).unwrap();
        (p, t)
    }

    #[test]
    fn insert_get_roundtrip() {
        let (_p, t) = mk();
        let keys = generate_keys(10_000, KeyDist::Uniform, 1);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        for &k in &keys {
            assert_eq!(t.get(k), Some(value_for(k)));
        }
        assert_eq!(t.get(0x1234_5678_dead_beef), None);
    }

    #[test]
    fn upsert_and_remove() {
        let (_p, t) = mk();
        assert_eq!(t.insert(5, 50).unwrap(), None);
        assert_eq!(t.insert(5, 51).unwrap(), Some(50));
        assert_eq!(t.get(5), Some(51));
        assert_eq!(t.update(5, 52).unwrap(), Some(51));
        assert_eq!(t.update(6, 60).unwrap(), None);
        assert_eq!(t.get(6), None);
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn cursor_streams_sorted_and_reseeks() {
        let (_p, t) = mk();
        let keys = generate_keys(4000, KeyDist::Uniform, 21);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut c = t.cursor();
        let mut seen = Vec::new();
        while let Some((k, v)) = c.next() {
            assert_eq!(v, value_for(k));
            seen.push(k);
        }
        assert_eq!(seen, sorted);
        c.seek(sorted[2000]);
        assert_eq!(c.next(), Some((sorted[2000], value_for(sorted[2000]))));
        assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn ordered_and_reverse_inserts() {
        let (_p, t) = mk();
        for k in 1..=3000u64 {
            t.insert(k, k + 7).unwrap();
        }
        for k in (3001..=6000u64).rev() {
            t.insert(k, k + 7).unwrap();
        }
        for k in 1..=6000 {
            assert_eq!(t.get(k), Some(k + 7), "key {k}");
        }
    }

    #[test]
    fn range_matches_model() {
        let (_p, t) = mk();
        let keys = generate_keys(5000, KeyDist::Uniform, 2);
        let mut model = BTreeMap::new();
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
            model.insert(k, value_for(k));
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let (lo, hi) = (sorted[100], sorted[2600]);
        let mut got = Vec::new();
        t.range(lo, hi, &mut got);
        let want: Vec<_> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn insert_costs_at_least_four_flushes() {
        // The paper's flush argument: slot+bitmap commits take >= 4 flushes.
        let (_p, t) = mk();
        for k in 1..=40u64 {
            t.insert(k * 3, k).unwrap();
        }
        stats::reset();
        t.insert(2, 99).unwrap();
        let s = stats::take();
        assert!(s.flushes >= 4, "flushes = {}", s.flushes);
    }

    #[test]
    fn reopen_after_clean_shutdown() {
        let (p, t) = mk();
        let keys = generate_keys(3000, KeyDist::Uniform, 3);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let meta = t.meta_offset();
        drop(t);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(64 << 20)).unwrap());
        let t2 = WbTree::open(Arc::clone(&p2), meta).unwrap();
        for &k in &keys {
            assert_eq!(t2.get(k), Some(value_for(k)));
        }
    }

    #[test]
    fn crash_mid_insert_preserves_committed_keys() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20).crash_log(true)).unwrap());
        let t = WbTree::create(Arc::clone(&p)).unwrap();
        let preload: Vec<u64> = (1..=30).map(|k| k * 5).collect();
        for &k in &preload {
            t.insert(k, value_for(k)).unwrap();
        }
        let log = p.crash_log().unwrap();
        log.set_baseline(p.volatile_image());
        t.insert(7, value_for(7)).unwrap();
        t.insert(8, value_for(8)).unwrap();
        let total = log.len();
        let meta = t.meta_offset();
        for cut in 0..=total {
            let img = p.crash_image(cut, pmem::crash::Eviction::None);
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(4 << 20)).unwrap());
            let t2 = WbTree::open(Arc::clone(&p2), meta).unwrap();
            for &k in &preload {
                assert_eq!(t2.get(k), Some(value_for(k)), "cut {cut} key {k}");
            }
        }
    }

    #[test]
    fn crash_mid_split_rolls_back() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20).crash_log(true)).unwrap());
        let t = WbTree::create(Arc::clone(&p)).unwrap();
        // Fill one leaf to capacity.
        for k in 1..=CAPACITY as u64 {
            t.insert(k * 2, value_for(k * 2)).unwrap();
        }
        let log = p.crash_log().unwrap();
        log.set_baseline(p.volatile_image());
        t.insert(3, value_for(3)).unwrap(); // forces the split
        let total = log.len();
        let meta = t.meta_offset();
        for cut in (0..=total).step_by(11) {
            let img = p.crash_image(cut, pmem::crash::Eviction::Random(cut as u64));
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(4 << 20)).unwrap());
            let t2 = WbTree::open(Arc::clone(&p2), meta).unwrap();
            for k in 1..=CAPACITY as u64 {
                assert_eq!(
                    t2.get(k * 2),
                    Some(value_for(k * 2)),
                    "cut {cut} key {}",
                    k * 2
                );
            }
        }
    }

    #[test]
    fn emptied_leaves_are_merged_and_recycled_online() {
        let (p, t) = mk();
        // Multi-leaf tree, then delete everything but the first leaf's
        // worth: the emptied leaves must be unlinked and their blocks
        // recycled while the tree keeps serving.
        let n = (CAPACITY * 6) as u64;
        for k in 1..=n {
            t.insert(k, k + 1).unwrap();
        }
        pmem::stats::reset();
        for k in (CAPACITY as u64 + 1)..=n {
            assert!(t.remove(k));
        }
        // Drive the clock to a deterministic collection point.
        t.epoch.try_advance();
        t.epoch.try_advance();
        t.epoch.collect();
        let s = pmem::stats::take();
        assert!(
            s.nodes_recycled_online > 0,
            "no leaf was retired by the merge path and recycled online"
        );
        assert_eq!(s.nodes_limbo, 0, "limbo gauge did not drain");
        // Tree still exact.
        for k in 1..=CAPACITY as u64 {
            assert_eq!(t.get(k), Some(k + 1));
        }
        assert_eq!(t.get(CAPACITY as u64 + 1), None);
        assert_eq!(t.len(), CAPACITY);
        // Recycled blocks are genuinely reusable: refilling does not move
        // the allocator high-water mark by more than one fresh leaf.
        let hw = p.high_water();
        for k in (CAPACITY as u64 + 1)..=(CAPACITY as u64 * 3) {
            t.insert(k, k + 1).unwrap();
        }
        assert!(
            p.high_water() <= hw + NODE_SIZE,
            "recycled leaves were not reused: high water grew {} -> {}",
            hw,
            p.high_water()
        );
        assert_eq!(t.len(), CAPACITY * 3);
    }

    #[test]
    fn cursor_survives_merge_of_buffered_next_leaf() {
        let (_p, t) = mk();
        let n = (CAPACITY * 4) as u64;
        for k in 1..=n {
            t.insert(k, k + 1).unwrap();
        }
        // Position a cursor inside the first leaf; it has buffered the
        // offset of the next leaf.
        let mut c = t.cursor();
        for want in 1..=3u64 {
            assert_eq!(c.next(), Some((want, want + 1)));
        }
        // Empty the second leaf so the merge unlinks it, then force the
        // clock forward: the cursor's pin must keep the block alive.
        let second_leaf_start = CAPACITY as u64 / 2; // split point region
        for k in second_leaf_start..=n {
            t.remove(k);
        }
        for _ in 0..4 {
            t.epoch.try_advance();
        }
        t.epoch.collect();
        // The cursor keeps streaming, in order, no panic. It may emit its
        // already-buffered snapshot of the first leaf (removed keys
        // included — the documented mid-flight semantics) but nothing
        // beyond it: every later leaf is empty.
        let mut last = 3u64;
        while let Some((k, v)) = c.next() {
            assert!(k > last, "out-of-order key {k} after merge");
            assert_eq!(v, k + 1);
            last = k;
        }
        assert!(last <= second_leaf_start);
    }

    #[test]
    fn many_keys_multi_level() {
        let (_p, t) = mk();
        let keys = generate_keys(30_000, KeyDist::Uniform, 9);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let mut out = Vec::new();
        t.range(0, u64::MAX, &mut out);
        assert_eq!(out.len(), keys.len());
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.first().unwrap().0, sorted[0]);
        assert_eq!(out.last().unwrap().0, *sorted.last().unwrap());
    }
}

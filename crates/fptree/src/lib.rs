//! FP-tree: selective-persistence B+-tree with fingerprints (Oukid et al.,
//! SIGMOD 2016).
//!
//! The hybrid baseline of the FAST+FAIR paper: **leaf nodes live in PM,
//! inner nodes live in DRAM** and are rebuilt on restart. Leaves keep
//! records unsorted behind a validity bitmap, plus one byte of key *hash
//! fingerprint* per slot so a lookup usually probes a single record.
//!
//! Following the original paper's insertion protocol, a leaf insert
//! persists the record, the fingerprint and the bitmap separately (three
//! persist points — the reason the paper measures slightly more flushes
//! than FAST+FAIR: 4.8 vs 4.2 per insert). Leaf splits are guarded by a
//! micro-log that is rolled back or forward on open.
//!
//! Concurrency: the original uses Intel TSX for inner nodes. This crate
//! substitutes an `RwLock`-protected volatile inner map (readers share,
//! splits exclude) plus per-leaf sequence locks, giving the same
//! non-blocking read behaviour the paper measures in Fig. 7. The sequence
//! locks are DRAM state of the handle, one per leaf-sized slot of the pool,
//! so no crash image holds one (ARCHITECTURE.md, "Volatile state: what
//! lives only in DRAM"). Leaf word 16 is reserved: never written, and
//! ignored on open, since a pool written by an earlier version may hold a
//! seqlock count there.
//!
//! Because the inner structure is volatile, *instant recovery is
//! impossible*: [`FpTree::open`] must scan the whole leaf chain — exactly
//! the critique in §1 and §5 of the FAST+FAIR paper.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use epoch::EpochDomain;
use parking_lot::RwLock;
use pmem::{stats, PmOffset, Pool, NULL_OFFSET};
use pmindex::{check_value, Cursor, IndexError, Key, PmIndex, Value};

/// Leaf byte size (1 KB, the paper's fastest FP-tree configuration).
pub const LEAF_SIZE: u64 = 1024;
/// Records per leaf.
pub const LEAF_CAPACITY: usize = 56;

const OFF_BITMAP: u64 = 0;
const OFF_SIBLING: u64 = 8;
// Leaf word 16 is reserved (see the module docs).
const OFF_FINGERPRINTS: u64 = 24; // 56 bytes
const OFF_RECORDS: u64 = 80;

const META_MAGIC: u64 = 0x4650_5452_4545_0001;
const META_HEAD_LEAF: u64 = 8;
const META_ULOG: u64 = 16; // micro-log area offset
const ULOG_VALID: u64 = 0; // within area: valid flag
const ULOG_OLD: u64 = 8;
const ULOG_OLD_SIBLING: u64 = 16;
const ULOG_MOVED_MASK: u64 = 24;
const ULOG_SIZE: u64 = 64;

/// One-byte hash fingerprint of a key.
#[inline]
fn fingerprint(key: Key) -> u8 {
    let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 56) as u8
}

/// A hybrid PM/DRAM FP-tree.
pub struct FpTree {
    pool: Arc<Pool>,
    meta: PmOffset,
    /// Volatile inner "nodes": first key of each leaf except the head.
    inner: RwLock<BTreeMap<Key, PmOffset>>,
    /// Leaf seqlocks, one per `LEAF_SIZE` slot of the pool: a leaf at
    /// `off` uses slot `off / LEAF_SIZE`, which no other live leaf shares.
    /// Odd = a writer holds the leaf.
    versions: Box<[AtomicU64]>,
    /// Reclamation domain for leaves unlinked by the empty-leaf merge:
    /// `get` probes leaves after dropping the inner lock, and cursors
    /// keep a raw next-leaf offset between calls, so an unlinked leaf is
    /// retired here and recycled online only once every pinned reader has
    /// moved on.
    epoch: Arc<EpochDomain>,
}

impl std::fmt::Debug for FpTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpTree")
            .field("meta", &self.meta)
            .field("leaves", &(self.inner.read().len() + 1))
            .finish()
    }
}

struct Leaf<'a> {
    pool: &'a Pool,
    off: PmOffset,
    version: &'a AtomicU64,
}

impl<'a> Leaf<'a> {
    fn bitmap(&self) -> u64 {
        self.pool.load_u64(self.off + OFF_BITMAP)
    }
    fn set_bitmap(&self, v: u64) {
        self.pool.store_u64(self.off + OFF_BITMAP, v);
    }
    fn sibling(&self) -> PmOffset {
        self.pool.load_u64(self.off + OFF_SIBLING)
    }
    fn set_sibling(&self, v: PmOffset) {
        self.pool.store_u64(self.off + OFF_SIBLING, v);
    }
    fn fp(&self, slot: usize) -> u8 {
        self.pool.load_u8(self.off + OFF_FINGERPRINTS + slot as u64)
    }
    fn set_fp(&self, slot: usize, v: u8) {
        self.pool
            .store_u8(self.off + OFF_FINGERPRINTS + slot as u64, v);
    }
    fn key_at(&self, slot: usize) -> Key {
        self.pool
            .load_u64(self.off + OFF_RECORDS + slot as u64 * 16)
    }
    fn val_at(&self, slot: usize) -> Value {
        self.pool
            .load_u64(self.off + OFF_RECORDS + slot as u64 * 16 + 8)
    }

    // ---- seqlock (DRAM) ---------------------------------------------------

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn lock(&self) {
        loop {
            let v = self.version.load(Ordering::Relaxed);
            if v.is_multiple_of(2)
                && self
                    .version
                    .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
    }

    fn unlock(&self) {
        let v = self.version.load(Ordering::Relaxed);
        debug_assert!(v % 2 == 1);
        self.version.store(v + 1, Ordering::Release);
    }

    /// Runs `f` under the seqlock read protocol (retrying on concurrent
    /// writes) — the stand-in for a TSX read transaction.
    fn seq_read<T>(&self, mut f: impl FnMut() -> T) -> T {
        loop {
            let v0 = self.version();
            if v0 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let out = f();
            if self.version() == v0 {
                return out;
            }
        }
    }

    fn used_slots(&self) -> Vec<usize> {
        let bm = self.bitmap();
        (0..LEAF_CAPACITY).filter(|&i| bm & (1 << i) != 0).collect()
    }

    fn free_slot(&self) -> Option<usize> {
        let bm = self.bitmap();
        (0..LEAF_CAPACITY).find(|&i| bm & (1 << i) == 0)
    }

    fn count(&self) -> usize {
        self.bitmap().count_ones() as usize
    }

    /// Smallest key in the leaf (None when empty).
    fn min_key(&self) -> Option<Key> {
        self.used_slots().iter().map(|&s| self.key_at(s)).min()
    }

    /// Fingerprint-guided point lookup; charges one parallel line for the
    /// fingerprint array and one serial miss per matching probe.
    fn find(&self, key: Key) -> Option<Value> {
        let f = fingerprint(key);
        let bm = self.bitmap();
        self.pool.charge_parallel_lines(1);
        for slot in 0..LEAF_CAPACITY {
            if bm & (1 << slot) != 0 && self.fp(slot) == f {
                self.pool.charge_serial_reads(1);
                if self.key_at(slot) == key {
                    return Some(self.val_at(slot));
                }
            }
        }
        None
    }

    fn find_slot_of(&self, key: Key) -> Option<usize> {
        let f = fingerprint(key);
        let bm = self.bitmap();
        (0..LEAF_CAPACITY)
            .find(|&slot| bm & (1 << slot) != 0 && self.fp(slot) == f && self.key_at(slot) == key)
    }

    /// The FP-tree insert protocol: record, fingerprint, bitmap — three
    /// persist points.
    fn write_entry(&self, slot: usize, key: Key, val: Value) {
        let base = self.off + OFF_RECORDS + slot as u64 * 16;
        self.pool.store_u64(base, key);
        self.pool.store_u64(base + 8, val);
        self.pool.persist(base, 16);
        self.set_fp(slot, fingerprint(key));
        self.pool
            .persist(self.off + OFF_FINGERPRINTS + slot as u64, 1);
        self.set_bitmap(self.bitmap() | (1 << slot));
        self.pool.persist(self.off + OFF_BITMAP, 8);
    }
}

impl FpTree {
    /// Creates an empty FP-tree in `pool`.
    ///
    /// # Errors
    ///
    /// Fails when the pool cannot hold the superblock, log and head leaf.
    pub fn create(pool: Arc<Pool>) -> Result<Self, IndexError> {
        let meta = pool.alloc(64, 64)?;
        pool.zero_region(meta, 64);
        let head = Self::alloc_leaf(&pool)?;
        let ulog = pool.alloc(ULOG_SIZE, 64)?;
        pool.zero_region(ulog, ULOG_SIZE);
        pool.store_u64(meta, META_MAGIC);
        pool.store_u64(meta + META_HEAD_LEAF, head);
        pool.store_u64(meta + META_ULOG, ulog);
        pool.persist(meta, 64);
        Ok(Self::with_meta(pool, meta))
    }

    /// Opens an FP-tree, replaying the micro-log and **rebuilding the
    /// volatile inner structure from the leaf chain** — the full-scan
    /// restart cost the FAST+FAIR paper criticizes.
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `meta` is not a 64-aligned line inside
    /// the pool holding an FP-tree superblock magic; if a link it follows
    /// (the head leaf, the micro-log, a logged leaf, a sibling) is not a
    /// 64-aligned block inside the pool; or if the leaf chain cycles.
    pub fn open(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        pmindex::check_superblock(&pool, meta, &[META_MAGIC], "FP-tree")?;
        pmindex::check_link(&pool, meta + META_HEAD_LEAF, LEAF_SIZE, "FP-tree head leaf")?;
        pmindex::check_link(&pool, meta + META_ULOG, ULOG_SIZE, "FP-tree micro-log")?;
        let t = Self::with_meta(pool, meta);
        t.replay_ulog()?;
        t.rebuild_inner()?;
        Ok(t)
    }

    fn with_meta(pool: Arc<Pool>, meta: PmOffset) -> Self {
        let slots = (pool.size() / LEAF_SIZE) as usize;
        FpTree {
            // SAFETY: an all-zero `AtomicU64` is a valid unlocked seqlock.
            versions: unsafe { Box::new_zeroed_slice(slots).assume_init() },
            pool,
            meta,
            inner: RwLock::new(BTreeMap::new()),
            epoch: EpochDomain::new(),
        }
    }

    /// Superblock offset.
    pub fn meta_offset(&self) -> PmOffset {
        self.meta
    }

    fn alloc_leaf(pool: &Pool) -> Result<PmOffset, IndexError> {
        let off = pool.alloc(LEAF_SIZE, 64)?;
        pool.zero_region(off, LEAF_SIZE);
        pool.persist(off, LEAF_SIZE);
        Ok(off)
    }

    fn leaf(&self, off: PmOffset) -> Leaf<'_> {
        Leaf {
            pool: &self.pool,
            off,
            version: &self.versions[(off / LEAF_SIZE) as usize],
        }
    }

    fn head_leaf(&self) -> PmOffset {
        self.pool.load_u64(self.meta + META_HEAD_LEAF)
    }

    /// Micro-log recovery: roll a crashed split back (old bitmap still has
    /// the moved slots) or forward (truncation already persisted).
    fn replay_ulog(&self) -> Result<(), IndexError> {
        let area = self.pool.load_u64(self.meta + META_ULOG);
        if self.pool.load_u64(area + ULOG_VALID) == 0 {
            return Ok(());
        }
        let old = pmindex::check_link(
            &self.pool,
            area + ULOG_OLD,
            LEAF_SIZE,
            "FP-tree logged leaf",
        )?;
        let old_sibling = self.pool.load_u64(area + ULOG_OLD_SIBLING);
        let moved = self.pool.load_u64(area + ULOG_MOVED_MASK);
        let leaf = self.leaf(old);
        if leaf.bitmap() & moved != 0 {
            // Truncation not persisted: roll back by unlinking the new leaf.
            leaf.set_sibling(old_sibling);
            self.pool.persist(old + OFF_SIBLING, 8);
        }
        // Else: split completed; the new leaf stays linked.
        self.pool.store_u64(area + ULOG_VALID, 0);
        self.pool.persist(area + ULOG_VALID, 8);
        Ok(())
    }

    /// Rebuilds the DRAM inner map by scanning every leaf. Refuses a
    /// sibling link that does not name a leaf inside the pool, and a chain
    /// longer than the pool has room for leaves (a cycle).
    fn rebuild_inner(&self) -> Result<(), IndexError> {
        let mut map = BTreeMap::new();
        let mut off = self.head_leaf();
        let mut first = true;
        for _ in 0..self.pool.size() / LEAF_SIZE {
            let leaf = self.leaf(off);
            if !first {
                if let Some(min) = leaf.min_key() {
                    map.insert(min, off);
                }
            }
            first = false;
            if leaf.sibling() == NULL_OFFSET {
                *self.inner.write() = map;
                return Ok(());
            }
            off = pmindex::check_link(&self.pool, off + OFF_SIBLING, LEAF_SIZE, "FP-tree sibling")?;
        }
        Err(IndexError::Unsupported(
            "FP-tree leaf chain is longer than the pool holds leaves: a cycle".into(),
        ))
    }

    /// Finds the leaf covering `key` (inner lookup is DRAM: no PM charge).
    fn lookup_leaf(map: &BTreeMap<Key, PmOffset>, head: PmOffset, key: Key) -> PmOffset {
        map.range(..=key).next_back().map_or(head, |(_, &l)| l)
    }

    /// Splits the full leaf at `off`; caller holds the inner write lock.
    fn split_leaf(
        &self,
        off: PmOffset,
        map: &mut BTreeMap<Key, PmOffset>,
    ) -> Result<(), IndexError> {
        let leaf = self.leaf(off);
        leaf.lock();
        if leaf.count() < LEAF_CAPACITY {
            leaf.unlock();
            return Ok(()); // raced: someone else split it
        }
        // Choose the median by sorting the (unsorted) keys.
        let mut entries: Vec<(Key, usize)> = leaf
            .used_slots()
            .into_iter()
            .map(|s| (leaf.key_at(s), s))
            .collect();
        entries.sort_unstable();
        let mid = entries.len() / 2;
        let split_key = entries[mid].0;
        let mut moved = 0u64;
        for &(_, s) in &entries[mid..] {
            moved |= 1 << s;
        }

        // Micro-log so a crash rolls back or forward cleanly.
        let area = self.pool.load_u64(self.meta + META_ULOG);
        self.pool.store_u64(area + ULOG_OLD, off);
        self.pool.store_u64(area + ULOG_OLD_SIBLING, leaf.sibling());
        self.pool.store_u64(area + ULOG_MOVED_MASK, moved);
        self.pool.persist(area, 32);
        self.pool.store_u64(area + ULOG_VALID, 1);
        self.pool.persist(area + ULOG_VALID, 8);

        // Build the new leaf off-line.
        let new_off = Self::alloc_leaf(&self.pool)?;
        let new = self.leaf(new_off);
        let mut new_bm = 0u64;
        for (j, &(k, s)) in entries[mid..].iter().enumerate() {
            let base = new_off + OFF_RECORDS + j as u64 * 16;
            self.pool.store_u64(base, k);
            self.pool.store_u64(base + 8, leaf.val_at(s));
            new.set_fp(j, fingerprint(k));
            new_bm |= 1 << j;
        }
        new.set_bitmap(new_bm);
        new.set_sibling(leaf.sibling());
        self.pool.persist(new_off, LEAF_SIZE);

        // Link, then truncate with one atomic bitmap store.
        leaf.set_sibling(new_off);
        self.pool.persist(off + OFF_SIBLING, 8);
        leaf.set_bitmap(leaf.bitmap() & !moved);
        self.pool.persist(off + OFF_BITMAP, 8);

        // Clear the log and publish the new leaf in DRAM.
        self.pool.store_u64(area + ULOG_VALID, 0);
        self.pool.persist(area + ULOG_VALID, 8);
        map.insert(split_key, new_off);
        leaf.unlock();
        Ok(())
    }

    /// Unlinks the empty leaf at `off` from the chain and the DRAM inner
    /// map, retiring its block through the epoch domain; `key` is the
    /// key whose removal emptied the leaf (it routes there, so the map
    /// entry is an O(log n) range lookup, not a scan). Best effort — any
    /// bail-out leaves a harmless empty leaf that `rebuild_inner` skips
    /// anyway (an empty leaf has no `min_key`).
    ///
    /// The chain bypass is one persisted 8-byte store; a crash before it
    /// leaves the empty leaf chained (scans pass through), a crash after
    /// it leaks the block — never a double-free, because the volatile
    /// limbo list is gone and `open` rebuilds only from the chain.
    fn try_unlink_empty_leaf(&self, off: PmOffset, key: Key) {
        // The inner write lock excludes splits, inserts and other
        // unlinkers for the whole operation.
        let mut map = self.inner.write();
        let Some((&min, &routed)) = map.range(..=key).next_back() else {
            return; // `key` routes to the head leaf, which is never unlinked
        };
        if routed != off {
            return; // the map re-routed `key` under us (split/unlink raced)
        }
        let leaf = self.leaf(off);
        leaf.lock();
        if leaf.count() != 0 {
            leaf.unlock();
            return; // refilled while we waited for the inner lock
        }
        let prev_off = map
            .range(..min)
            .next_back()
            .map_or(self.head_leaf(), |(_, &l)| l);
        let prev = self.leaf(prev_off);
        prev.lock();
        if prev.sibling() != off {
            prev.unlock();
            leaf.unlock();
            return;
        }
        // The visibility commit: bypass the leaf in the persistent chain.
        prev.set_sibling(leaf.sibling());
        self.pool.persist(prev_off + OFF_SIBLING, 8);
        map.remove(&min);
        prev.unlock();
        leaf.unlock();
        // Unreachable for new lookups; recycle once pinned readers leave.
        self.epoch.retire_pm(&self.pool, off, LEAF_SIZE);
    }
}

impl pmindex::PersistentIndex for FpTree {
    fn create_in(pool: Arc<Pool>) -> Result<Self, IndexError> {
        FpTree::create(pool)
    }
    fn open_in(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        FpTree::open(pool, meta)
    }
    fn superblock(&self) -> PmOffset {
        self.meta_offset()
    }
}

impl PmIndex for FpTree {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        let _pin = self.epoch.pin();
        loop {
            {
                let map = self.inner.read();
                let off = stats::timed(stats::Phase::Search, || {
                    let off = Self::lookup_leaf(&map, self.head_leaf(), key);
                    self.pool.charge_serial_reads(1); // the leaf hop
                    off
                });
                let leaf = self.leaf(off);
                leaf.lock();
                let done = stats::timed(stats::Phase::Update, || {
                    if let Some(slot) = leaf.find_slot_of(key) {
                        // Upsert in place: persist just the value — one
                        // failure-atomic 8-byte store.
                        let old = leaf.val_at(slot);
                        let base = off + OFF_RECORDS + slot as u64 * 16 + 8;
                        self.pool.store_u64(base, value);
                        self.pool.persist(base, 8);
                        Some(Some(old))
                    } else if let Some(slot) = leaf.free_slot() {
                        leaf.write_entry(slot, key, value);
                        Some(None)
                    } else {
                        None
                    }
                });
                leaf.unlock();
                if let Some(replaced) = done {
                    return Ok(replaced);
                }
            }
            // Leaf full: take the inner write lock and split (TSX fallback
            // path in the original).
            let mut map = self.inner.write();
            let off = Self::lookup_leaf(&map, self.head_leaf(), key);
            stats::timed(stats::Phase::Update, || self.split_leaf(off, &mut map))?;
        }
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        let _pin = self.epoch.pin();
        // The inner read lock excludes splits, so the leaf cannot lose the
        // key to a sibling between lookup and the in-place store.
        let map = self.inner.read();
        let off = Self::lookup_leaf(&map, self.head_leaf(), key);
        let leaf = self.leaf(off);
        leaf.lock();
        let replaced = match leaf.find_slot_of(key) {
            Some(slot) => {
                let old = leaf.val_at(slot);
                let base = off + OFF_RECORDS + slot as u64 * 16 + 8;
                self.pool.store_u64(base, value);
                self.pool.persist(base, 8);
                Some(old)
            }
            None => None,
        };
        leaf.unlock();
        Ok(replaced)
    }

    fn get(&self, key: Key) -> Option<Value> {
        // The pin is what keeps the leaf alive between dropping the inner
        // lock and probing it: a concurrent empty-leaf merge can retire
        // the leaf, but not recycle it until this guard drops.
        let _pin = self.epoch.pin();
        stats::timed(stats::Phase::Search, || loop {
            let map = self.inner.read();
            let off = Self::lookup_leaf(&map, self.head_leaf(), key);
            drop(map);
            self.pool.charge_serial_reads(1);
            let leaf = self.leaf(off);
            if let Some(v) = leaf.seq_read(|| leaf.find(key)) {
                return Some(v);
            }
            // Miss. A split between the inner lookup and the leaf probe may
            // have migrated the record to a new sibling (splits run under
            // the inner write lock, so re-reading the map observes them).
            // The miss is only trustworthy if the map still routes `key` to
            // the leaf we probed.
            let map = self.inner.read();
            if Self::lookup_leaf(&map, self.head_leaf(), key) == off {
                return None;
            }
        })
    }

    fn remove(&self, key: Key) -> bool {
        let _pin = self.epoch.pin();
        let map = self.inner.read();
        let off = Self::lookup_leaf(&map, self.head_leaf(), key);
        let leaf = self.leaf(off);
        leaf.lock();
        let mut emptied = false;
        let removed = match leaf.find_slot_of(key) {
            Some(slot) => {
                // One atomic bitmap store invalidates the record.
                leaf.set_bitmap(leaf.bitmap() & !(1 << slot));
                self.pool.persist(off + OFF_BITMAP, 8);
                emptied = leaf.count() == 0;
                true
            }
            None => false,
        };
        leaf.unlock();
        drop(map);
        if emptied {
            // Merge the emptied leaf away (best effort; re-checks
            // everything under the inner write lock).
            self.try_unlink_empty_leaf(off, key);
        }
        removed
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        Box::new(FpCursor::new(self))
    }

    fn name(&self) -> &'static str {
        "FP-tree"
    }
}

/// The per-leaf read hook behind [`FpCursor`]: seqlock leaf snapshots,
/// sorted per leaf (FP-tree leaves are unsorted behind the bitmap).
///
/// The epoch guard pins the cursor's whole lifetime so the saved
/// next-leaf offset stays valid across an empty-leaf merge.
struct FpChain<'a> {
    tree: &'a FpTree,
    _pin: epoch::Guard<'a>,
}

impl pmindex::chain::LeafChain for FpChain<'_> {
    type Leaf = PmOffset;

    fn locate(&self, target: Key) -> PmOffset {
        let map = self.tree.inner.read();
        FpTree::lookup_leaf(&map, self.tree.head_leaf(), target)
    }

    fn first(&self) -> PmOffset {
        self.tree.head_leaf()
    }

    /// `locate` and `first` read only the DRAM inner map and land on no
    /// leaf, so every read lands on its leaf: one miss, hop or not.
    fn read(&self, off: PmOffset, _hop: bool, buf: &mut Vec<(Key, Value)>) -> Option<PmOffset> {
        let leaf = self.tree.leaf(off);
        self.tree.pool.charge_serial_reads(1);
        let mut batch = leaf.seq_read(|| {
            let slots = leaf.used_slots();
            self.tree
                .pool
                .charge_parallel_lines((slots.len() as u32).div_ceil(4).max(1));
            slots
                .into_iter()
                .map(|s| (leaf.key_at(s), leaf.val_at(s)))
                .collect::<Vec<_>>()
        });
        batch.sort_unstable();
        buf.extend(batch);
        let sib = leaf.sibling();
        (sib != NULL_OFFSET).then_some(sib)
    }

    /// Leaves keep no high key, so the bound is the smallest key of
    /// `next`, the sibling `read` returned after the entries: a split
    /// links the new sibling before it truncates the leaf.
    fn covers(&self, _off: PmOffset, next: Option<PmOffset>, key: Key) -> bool {
        let Some(sib) = next else { return true };
        let sib = self.tree.leaf(sib);
        sib.seq_read(|| sib.min_key())
            .is_none_or(|first| first > key)
    }
}

/// Streaming cursor over the FP-tree's sibling-linked leaves.
///
/// The [`pmindex::chain::LeafChainCursor`] instantiation for this index:
/// each leaf is snapshotted with the seqlock read protocol and sorted
/// (leaves are unsorted behind the bitmap — the range-scan overhead the
/// paper measures vs. sorted leaves); no lock is held between
/// [`Cursor::next`] calls. A leaf that splits after being buffered leaves
/// its moved upper half duplicated on the next sibling, which the shared
/// monotonicity filter drops.
pub struct FpCursor<'a>(pmindex::chain::LeafChainCursor<FpChain<'a>>);

impl<'a> FpCursor<'a> {
    fn new(tree: &'a FpTree) -> Self {
        FpCursor(pmindex::chain::LeafChainCursor::new(FpChain {
            tree,
            _pin: tree.epoch.pin(),
        }))
    }
}

impl Cursor for FpCursor<'_> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use pmindex::workload::{generate_keys, value_for, within, KeyDist};

    fn mk() -> (Arc<Pool>, FpTree) {
        let p = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
        let t = FpTree::create(Arc::clone(&p)).unwrap();
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
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn fingerprint_collisions_are_resolved() {
        let (_p, t) = mk();
        // Find two keys with equal fingerprints.
        let base = 12345u64;
        let f = fingerprint(base);
        let other = (base + 1..).find(|&k| fingerprint(k) == f).unwrap();
        t.insert(base, 1111).unwrap();
        t.insert(other, 2222).unwrap();
        assert_eq!(t.get(base), Some(1111));
        assert_eq!(t.get(other), Some(2222));
    }

    #[test]
    fn upsert_remove() {
        let (_p, t) = mk();
        assert_eq!(t.insert(9, 90).unwrap(), None);
        assert_eq!(t.insert(9, 91).unwrap(), Some(90));
        assert_eq!(t.get(9), Some(91));
        assert_eq!(t.update(9, 92).unwrap(), Some(91));
        assert_eq!(t.update(10, 100).unwrap(), None);
        assert_eq!(t.get(10), None);
        assert!(t.remove(9));
        assert!(!t.remove(9));
        assert_eq!(t.get(9), None);
    }

    #[test]
    fn cursor_streams_sorted_despite_unsorted_leaves() {
        let (_p, t) = mk();
        let keys = generate_keys(5000, KeyDist::Uniform, 23);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut c = t.cursor();
        let mut seen = Vec::new();
        while let Some((k, _)) = c.next() {
            seen.push(k);
        }
        assert_eq!(seen, sorted);
        c.seek(sorted[100]);
        assert_eq!(c.next(), Some((sorted[100], value_for(sorted[100]))));
        assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn range_is_sorted_despite_unsorted_leaves() {
        let (_p, t) = mk();
        let keys = generate_keys(5000, KeyDist::Uniform, 2);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let mut out = Vec::new();
        t.range(0, u64::MAX, &mut out);
        assert_eq!(out.len(), keys.len());
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn rebuild_inner_after_reopen() {
        let (p, t) = mk();
        let keys = generate_keys(8000, KeyDist::Uniform, 3);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let meta = t.meta_offset();
        drop(t);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(64 << 20)).unwrap());
        let t2 = FpTree::open(Arc::clone(&p2), meta).unwrap();
        for &k in &keys {
            assert_eq!(t2.get(k), Some(value_for(k)));
        }
        // Still writable after rebuild.
        t2.insert(keys[0] ^ 0x55aa, 777).unwrap();
        assert_eq!(t2.get(keys[0] ^ 0x55aa), Some(777));
    }

    /// A crash image taken while a writer holds a leaf's seqlock reopens
    /// readable and writable: the seqlock is handle state, so the image
    /// cannot hold it, and an odd leaf word 16 (where a pool written with
    /// seqlocks in PM kept them) is ignored.
    #[test]
    fn an_image_taken_while_a_leaf_seqlock_is_odd_reopens_writable() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20)).unwrap());
        let t = FpTree::create(Arc::clone(&p)).unwrap();
        for k in 1..=20u64 {
            t.insert(k * 3, value_for(k * 3)).unwrap();
        }
        let head = t.leaf(t.head_leaf());
        head.lock();
        let mut img = p.volatile_image();
        head.unlock();
        let at = (head.off + 16) as usize;
        img[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(4 << 20)).unwrap());
        let t2 = Arc::new(FpTree::open(p2, t.meta_offset()).unwrap());
        let writer = Arc::clone(&t2);
        within(move || {
            writer.insert(1, value_for(1)).unwrap();
            assert_eq!(writer.get(1), Some(value_for(1)));
            assert_eq!(writer.get(3), Some(value_for(3)));
        })
        .expect("insert into the head leaf after reopen: did not finish");
        assert_eq!(t2.len(), 21);
    }

    #[test]
    fn crash_mid_split_recovers() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20).crash_log(true)).unwrap());
        let t = FpTree::create(Arc::clone(&p)).unwrap();
        for k in 1..=LEAF_CAPACITY as u64 {
            t.insert(k * 2, value_for(k * 2)).unwrap();
        }
        let log = p.crash_log().unwrap();
        log.set_baseline(p.volatile_image());
        t.insert(5, value_for(5)).unwrap(); // forces a split
        let total = log.len();
        let meta = t.meta_offset();
        for cut in 0..=total {
            let img = p.crash_image(cut, pmem::crash::Eviction::Random(cut as u64 + 7));
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(4 << 20)).unwrap());
            let t2 = FpTree::open(Arc::clone(&p2), meta).unwrap();
            for k in 1..=LEAF_CAPACITY as u64 {
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
    fn crash_mid_insert_is_atomic() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20).crash_log(true)).unwrap());
        let t = FpTree::create(Arc::clone(&p)).unwrap();
        for k in 1..=20u64 {
            t.insert(k * 3, value_for(k * 3)).unwrap();
        }
        let log = p.crash_log().unwrap();
        log.set_baseline(p.volatile_image());
        t.insert(7, value_for(7)).unwrap();
        let total = log.len();
        let meta = t.meta_offset();
        for cut in 0..=total {
            let img = p.crash_image(cut, pmem::crash::Eviction::None);
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(4 << 20)).unwrap());
            let t2 = FpTree::open(Arc::clone(&p2), meta).unwrap();
            for k in 1..=20u64 {
                assert_eq!(t2.get(k * 3), Some(value_for(k * 3)), "cut {cut}");
            }
            match t2.get(7) {
                None => {}
                Some(v) => assert_eq!(v, value_for(7)),
            }
        }
    }

    #[test]
    fn emptied_leaves_are_merged_and_recycled_online() {
        let (p, t) = mk();
        let n = (LEAF_CAPACITY * 6) as u64;
        for k in 1..=n {
            t.insert(k, value_for(k)).unwrap();
        }
        let leaves_before = t.inner.read().len() + 1;
        assert!(leaves_before > 3);
        pmem::stats::reset();
        // Delete everything: every non-head leaf must be merged away.
        for k in 1..=n {
            assert!(t.remove(k));
        }
        assert_eq!(t.inner.read().len(), 0, "all map entries unlinked");
        t.epoch.try_advance();
        t.epoch.try_advance();
        t.epoch.collect();
        let s = pmem::stats::take();
        // Every non-head leaf was retired and — since all retirements
        // preceded the advances — drained back to the free list online,
        // leaving the limbo gauge empty.
        assert!(s.nodes_recycled_online as usize >= leaves_before - 1);
        assert_eq!(s.nodes_limbo, 0, "limbo gauge did not drain");
        assert!(t.is_empty());
        // Refill: recycled leaves are reused, correctness preserved.
        let hw = p.high_water();
        for k in 1..=n {
            t.insert(k, value_for(k)).unwrap();
        }
        for k in 1..=n {
            assert_eq!(t.get(k), Some(value_for(k)));
        }
        assert!(
            p.high_water() <= hw + LEAF_SIZE,
            "recycled leaves not reused: {} -> {}",
            hw,
            p.high_water()
        );
    }

    #[test]
    fn reader_pin_blocks_recycling_of_merged_leaf() {
        let (_p, t) = mk();
        let n = (LEAF_CAPACITY * 3) as u64;
        for k in 1..=n {
            t.insert(k, value_for(k)).unwrap();
        }
        // A cursor mid-scan pins the domain.
        let mut c = t.cursor();
        assert!(c.next().is_some());
        for k in 1..=n {
            t.remove(k);
        }
        // The clock cannot pass the cursor: nothing may be recycled.
        t.epoch.try_advance();
        assert!(!t.epoch.try_advance());
        assert_eq!(t.epoch.collect(), 0);
        assert_eq!(t.epoch.recycled(), 0);
        // Dropping the cursor may itself run the amortized maintenance
        // (always under FF_EPOCH_STRESS=1): assert on the cumulative
        // counter, not one collect's return value.
        drop(c);
        t.epoch.try_advance();
        t.epoch.try_advance();
        t.epoch.collect();
        assert!(t.epoch.recycled() > 0);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(256 << 20)).unwrap());
        let t = Arc::new(FpTree::create(Arc::clone(&p)).unwrap());
        let preload = generate_keys(10_000, KeyDist::Uniform, 5);
        for &k in &preload {
            t.insert(k, value_for(k)).unwrap();
        }
        let fresh = generate_keys(10_000, KeyDist::Uniform, 6);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                let fresh = &fresh;
                s.spawn(move || {
                    for &k in fresh {
                        t.insert(k, value_for(k)).unwrap();
                    }
                    stop.store(true, std::sync::atomic::Ordering::Release);
                });
            }
            for _ in 0..2 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                let preload = &preload;
                s.spawn(move || {
                    let mut i = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let k = preload[i % preload.len()];
                        assert_eq!(t.get(k), Some(value_for(k)));
                        i += 1;
                    }
                });
            }
        });
        for &k in &fresh {
            assert_eq!(t.get(k), Some(value_for(k)));
        }
    }

    #[test]
    fn flush_counts_exceed_fastfair_slightly() {
        // Paper: 4.8 flushes/insert for FP-tree vs 4.2 for FAST+FAIR.
        let (_p, t) = mk();
        let keys = generate_keys(5000, KeyDist::Uniform, 8);
        pmem::stats::reset();
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let per = pmem::stats::take().flushes as f64 / keys.len() as f64;
        assert!((3.0..8.0).contains(&per), "flushes/insert = {per}");
    }
}

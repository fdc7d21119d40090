//! Persistent skip list (Hu et al., ATC 2017 — the LSNVMM address-mapping
//! structure, used as a baseline throughout the FAST+FAIR paper).
//!
//! Only the **bottom-level linked list is persistent**: an insert persists
//! the new node, then publishes it with one CAS on the predecessor's
//! level-0 pointer followed by one flush — two flushes per insert, no
//! logging. The upper express levels are volatile acceleration state,
//! rebuilt on open (exactly how LSNVMM treats its mapping tree).
//!
//! Searches are lock-free and writers coordinate with CAS retry loops, so
//! the skip list scales with readers (Fig. 7(a)) — but every hop is a
//! dependent cache miss on a 40-plus-byte node, so its absolute
//! performance and range-scan behaviour are the worst of the fields
//! (Figs. 4, 5): no key clustering, no prefetching, no memory-level
//! parallelism. That contrast is the paper's argument for keeping
//! block-like B+-tree layouts on PM.
//!
//! Deletes are committed by a persisted tombstone (value = 0) — one atomic
//! 8-byte store, like every other commit point in this repository. After
//! the tombstone commits, the node is physically unlinked from the bottom
//! list (one more persisted 8-byte store) and retired through an
//! [`epoch::EpochDomain`], so its block recycles online once concurrent
//! lock-free readers drain — instead of accumulating forever. Structural
//! link changes (publish and unlink) serialize on a small mutex; value
//! reads, updates and searches stay lock-free.

#![warn(missing_docs)]

use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{stats, PmOffset, Pool, NULL_OFFSET};
use pmindex::{check_value, Cursor, IndexError, Key, PmIndex, Value};

/// Maximum tower height.
pub const MAX_LEVEL: usize = 20;

const META_MAGIC: u64 = 0x534b_4950_0000_0001;
const META_HEAD: u64 = 8;

const NODE_KEY: u64 = 0;
const NODE_VAL: u64 = 8;
const NODE_LEVEL: u64 = 16;
const NODE_NEXT: u64 = 24; // next[0..level]

/// Deletion mark on a dying node's level-0 pointer (node offsets are
/// 64-aligned, so bit 0 is free). Set right before the node is unlinked:
/// a racing insert whose predecessor snapshot is the dying node sees its
/// publish CAS fail against the marked value and retries from a fresh
/// search. The mark is an ordinary logged store that nothing flushes, so
/// a crash image may hold it without the cut that followed it; `open`
/// clears such a mark (see `rebuild_towers`), or the first insert behind
/// the still-linked node would retry forever.
const MARK: u64 = 1;

/// Deterministic tower height for a key: geometric(1/2), capped.
fn height_for(key: Key) -> usize {
    let h = key
        .wrapping_mul(0xff51_afd7_ed55_8ccd)
        .rotate_right(33)
        .wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    ((h.trailing_zeros() as usize) + 1).min(MAX_LEVEL)
}

/// A persistent, lock-free skip list.
pub struct PSkipList {
    pool: Arc<Pool>,
    meta: PmOffset,
    /// Serializes structural link changes: publishing a new node,
    /// reviving a tombstone in place, and unlinking a tombstoned node.
    /// Searches, value updates and cursors never take it.
    link_lock: Mutex<()>,
    /// Reclamation domain for unlinked nodes: readers and cursors pin it,
    /// so a retired block recycles only after they drain.
    epoch: Arc<epoch::EpochDomain>,
}

impl std::fmt::Debug for PSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PSkipList")
            .field("meta", &self.meta)
            .finish()
    }
}

impl PSkipList {
    /// Creates an empty skip list in `pool`.
    ///
    /// # Errors
    ///
    /// Fails when the pool cannot hold the head node.
    pub fn create(pool: Arc<Pool>) -> Result<Self, IndexError> {
        let meta = pool.alloc(64, 64)?;
        pool.zero_region(meta, 64);
        let head = Self::alloc_node(&pool, 0, 0, MAX_LEVEL)?;
        pool.store_u64(meta, META_MAGIC);
        pool.store_u64(meta + META_HEAD, head);
        pool.persist(meta, 64);
        Ok(PSkipList {
            pool,
            meta,
            link_lock: Mutex::new(()),
            epoch: epoch::EpochDomain::new(),
        })
    }

    /// Opens a skip list and rebuilds the volatile express levels from the
    /// persistent bottom list.
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `meta` is not a 64-aligned line inside
    /// the pool holding a skip-list superblock magic, or if its head word is
    /// not a 64-aligned block inside the pool.
    pub fn open(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        pmindex::check_superblock(&pool, meta, &[META_MAGIC], "skip-list")?;
        let head_size = NODE_NEXT + MAX_LEVEL as u64 * 8;
        pmindex::check_link(&pool, meta + META_HEAD, head_size, "skip-list head")?;
        let s = PSkipList {
            pool,
            meta,
            link_lock: Mutex::new(()),
            epoch: epoch::EpochDomain::new(),
        };
        s.rebuild_towers();
        Ok(s)
    }

    /// Superblock offset.
    pub fn meta_offset(&self) -> PmOffset {
        self.meta
    }

    /// The reclamation domain unlinked nodes retire through.
    pub fn epoch(&self) -> &Arc<epoch::EpochDomain> {
        &self.epoch
    }

    fn alloc_node(pool: &Pool, key: Key, val: Value, level: usize) -> Result<PmOffset, IndexError> {
        let size = NODE_NEXT + level as u64 * 8;
        let off = pool.alloc(size, 64)?;
        pool.zero_region(off, size);
        pool.store_u64(off + NODE_KEY, key);
        pool.store_u64(off + NODE_VAL, val);
        pool.store_u64(off + NODE_LEVEL, level as u64);
        Ok(off)
    }

    fn head(&self) -> PmOffset {
        self.pool.load_u64(self.meta + META_HEAD)
    }

    fn key_of(&self, node: PmOffset) -> Key {
        self.pool.load_u64(node + NODE_KEY)
    }

    fn val_of(&self, node: PmOffset) -> Value {
        self.pool.load_u64(node + NODE_VAL)
    }

    fn level_of(&self, node: PmOffset) -> usize {
        self.pool.load_u64(node + NODE_LEVEL) as usize
    }

    fn next_off(node: PmOffset, l: usize) -> PmOffset {
        node + NODE_NEXT + l as u64 * 8
    }

    /// Successor at level `l`, with any deletion mark stripped so a
    /// traversal parked on a dying node still follows a valid offset.
    fn next(&self, node: PmOffset, l: usize) -> PmOffset {
        self.pool.load_u64(Self::next_off(node, l)) & !MARK
    }

    /// Physically unlinks a tombstoned `node` and retires its block.
    ///
    /// Serialized with publishes and revivals by `link_lock`; bails if a
    /// racing insert revived the key or another remove already unlinked
    /// it. The bottom-list cut is one persisted 8-byte store (the same
    /// failure-atomic commit shape as the publish); the express-lane
    /// unhooks and the mark are unflushed, and `open` rebuilds the lanes
    /// and clears the mark. A crash before the cut leaves a tombstoned
    /// node (absent either way); after it, an unreachable block that leaks
    /// like any pre-crash free.
    fn unlink_tombstone(&self, key: Key, node: PmOffset) {
        let _lk = self.link_lock.lock();
        if self.val_of(node) != 0 {
            return; // revived under the lock by a racing insert
        }
        let (preds, succs) = self.find_preds(key);
        if succs[0] != node {
            return; // already unlinked
        }
        let level = self.level_of(node).min(MAX_LEVEL);
        for (l, &pred) in preds.iter().enumerate().take(level).skip(1) {
            // Unhook where `pred` still links `node` (an insert may have
            // stopped the tower short). Links are written with `cas_u64`
            // even under the link lock: a value update, which takes no
            // lock, may flush the same line (see `Pool::mark_dirty`).
            let _ = self
                .pool
                .cas_u64(Self::next_off(pred, l), node, self.next(node, l));
        }
        let succ = self.next(node, 0);
        // Mark, then cut: after the mark, a lock-free insert that
        // snapshotted `node` as its predecessor can no longer publish
        // behind it (its CAS sees the marked value and retries).
        let _ = self
            .pool
            .cas_u64(Self::next_off(node, 0), succ, succ | MARK);
        if self
            .pool
            .cas_u64(Self::next_off(preds[0], 0), node, succ)
            .is_ok()
        {
            self.pool.persist(Self::next_off(preds[0], 0), 8);
            self.epoch
                .retire_pm(&self.pool, node, NODE_NEXT + level as u64 * 8);
        } else {
            // Unreachable under the lock; restore the unmarked pointer so
            // a still-linked node never wedges publishes behind it.
            let _ = self
                .pool
                .cas_u64(Self::next_off(node, 0), succ | MARK, succ);
        }
    }

    /// Finds, for every level, the rightmost node with key < `key`.
    /// Each hop is charged as one dependent cache miss.
    fn find_preds(&self, key: Key) -> ([PmOffset; MAX_LEVEL], [PmOffset; MAX_LEVEL]) {
        let mut preds = [NULL_OFFSET; MAX_LEVEL];
        let mut succs = [NULL_OFFSET; MAX_LEVEL];
        let mut cur = self.head();
        for l in (0..MAX_LEVEL).rev() {
            loop {
                let nxt = self.next(cur, l);
                if nxt != NULL_OFFSET && self.key_of(nxt) < key {
                    // Nodes tall enough to appear on the top levels are few
                    // and LLC-resident; the cold majority is charged.
                    if l < 10 {
                        self.pool.charge_serial_reads(1);
                    }
                    cur = nxt;
                } else {
                    preds[l] = cur;
                    succs[l] = nxt;
                    break;
                }
            }
        }
        (preds, succs)
    }

    /// Rebuilds the volatile upper levels by walking the persistent bottom
    /// list (open-time cost, like LSNVMM's volatile mapping tree), and
    /// clears any deletion mark a crash kept without its cut: that node
    /// is still linked, tombstoned, and the next insert behind it must be
    /// able to publish.
    fn rebuild_towers(&self) {
        let head = self.head();
        let mut last = [head; MAX_LEVEL];
        // Clear the head's upper levels.
        for l in 1..MAX_LEVEL {
            self.pool.store_u64(Self::next_off(head, l), 0);
        }
        let mut cur = self.next(head, 0);
        while cur != NULL_OFFSET {
            let link = self.pool.load_u64(Self::next_off(cur, 0));
            if link & MARK != 0 {
                self.pool.store_u64(Self::next_off(cur, 0), link & !MARK);
            }
            let lvl = self.level_of(cur).min(MAX_LEVEL);
            for (l, slot) in last.iter_mut().enumerate().take(lvl).skip(1) {
                self.pool.store_u64(Self::next_off(cur, l), 0);
                self.pool.store_u64(Self::next_off(*slot, l), cur);
                *slot = cur;
            }
            cur = self.next(cur, 0);
        }
    }
}

/// Streaming cursor over the persistent bottom list.
///
/// Holds the offset of the node *before* the next entry. The cursor pins
/// the list's epoch domain for its whole lifetime, so a parked position
/// stays valid across concurrent inserts and deletes: a concurrently
/// unlinked node is only *retired*, never recycled while the pin is held,
/// and its (marked) forward pointer still leads back into the live list.
/// Every hop is one dependent cache miss — the pointer-chasing cost that
/// makes skip-list range scans up to 20× slower than FAST+FAIR (Fig. 4).
pub struct SkipCursor<'a> {
    list: &'a PSkipList,
    /// Node whose level-0 successor is the next candidate.
    cur: pmem::PmOffset,
    /// Lower bound from the last seek (upper bound, inclusive, after a
    /// `seek_for_prev`): an insert racing between the predecessor lookup
    /// and `next` can link a key below the target right after `cur`, so
    /// the bound — not the start position — enforces the `key >= target`
    /// contract.
    bound: Key,
    /// Scan direction, set by the last seek.
    reverse: bool,
    /// A reverse scan has moved below the smallest key.
    done: bool,
    /// Keeps retired nodes out of the free list while this cursor lives.
    _pin: epoch::Guard<'a>,
}

impl Cursor for SkipCursor<'_> {
    fn seek(&mut self, target: Key) {
        let (preds, _) = self.list.find_preds(target);
        self.cur = preds[0];
        self.bound = target;
        self.reverse = false;
        self.done = false;
    }

    fn next(&mut self) -> Option<(Key, Value)> {
        if self.reverse {
            return None; // direction switches go through a re-seek
        }
        loop {
            let nxt = self.list.next(self.cur, 0);
            if nxt == NULL_OFFSET {
                return None;
            }
            self.list.pool.charge_serial_reads(1);
            self.cur = nxt;
            let k = self.list.key_of(nxt);
            if k < self.bound {
                continue; // linked below the seek target by a racing insert
            }
            let v = self.list.val_of(nxt);
            if v != 0 {
                return Some((k, v));
            }
            // Tombstone: skip.
        }
    }

    fn seek_for_prev(&mut self, target: Key) {
        self.bound = target;
        self.reverse = true;
        self.done = false;
    }

    fn prev(&mut self) -> Option<(Key, Value)> {
        if !self.reverse {
            if self.bound == 0 {
                // Bare prev() on a fresh cursor: start from the top.
                self.seek_for_prev(Key::MAX);
            } else {
                return None; // direction switches go through a re-seek
            }
        }
        // The bottom list is singly linked, so every step left is a fresh
        // tower descent for the rightmost node with `key <= bound` — one
        // O(log n) predecessor search per entry, the skip list's honest
        // reverse-scan cost.
        while !self.done {
            let (preds, succs) = self.list.find_preds(self.bound);
            let node = if succs[0] != NULL_OFFSET && self.list.key_of(succs[0]) == self.bound {
                succs[0]
            } else {
                preds[0]
            };
            if node == self.list.head() {
                self.done = true;
                break;
            }
            self.list.pool.charge_serial_reads(1);
            let k = self.list.key_of(node);
            match k.checked_sub(1) {
                Some(n) => self.bound = n,
                None => self.done = true,
            }
            let v = self.list.val_of(node);
            if v != 0 {
                return Some((k, v));
            }
            // Tombstone: lower the bound past it and retry.
        }
        None
    }
}

impl pmindex::PersistentIndex for PSkipList {
    fn create_in(pool: Arc<Pool>) -> Result<Self, IndexError> {
        PSkipList::create(pool)
    }
    fn open_in(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        PSkipList::open(pool, meta)
    }
    fn superblock(&self) -> PmOffset {
        self.meta_offset()
    }
}

impl PmIndex for PSkipList {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        let _pin = self.epoch.pin();
        loop {
            let (preds, succs) = stats::timed(stats::Phase::Search, || self.find_preds(key));
            // Existing key (possibly tombstoned): update the value in place
            // with one persisted store.
            if succs[0] != NULL_OFFSET && self.key_of(succs[0]) == key {
                let done = stats::timed(stats::Phase::Update, || {
                    let cur = self.val_of(succs[0]);
                    if cur == 0 {
                        // Reviving a tombstone races with its physical
                        // unlink; serialize with it and re-check that the
                        // node is still reachable before writing through.
                        let _lk = self.link_lock.lock();
                        let (_, s2) = self.find_preds(key);
                        if s2[0] != succs[0] {
                            return None; // unlinked meanwhile: reinsert
                        }
                        if self.pool.cas_u64(succs[0] + NODE_VAL, 0, value).is_ok() {
                            self.pool.persist(succs[0] + NODE_VAL, 8);
                            return Some(None);
                        }
                        return None;
                    }
                    if self.pool.cas_u64(succs[0] + NODE_VAL, cur, value).is_ok() {
                        self.pool.persist(succs[0] + NODE_VAL, 8);
                        Some(Some(cur))
                    } else {
                        None
                    }
                });
                if let Some(replaced) = done {
                    return Ok(replaced);
                }
                continue;
            }
            let level = height_for(key);
            let node = stats::timed(stats::Phase::Update, || {
                Self::alloc_node(&self.pool, key, value, level)
            })?;
            let committed = stats::timed(stats::Phase::Update, || {
                // Persist the node with its bottom link before publishing.
                self.pool.store_u64(Self::next_off(node, 0), succs[0]);
                for (l, &succ) in succs.iter().enumerate().take(level).skip(1) {
                    self.pool.store_u64(Self::next_off(node, l), succ);
                }
                self.pool.persist(node, NODE_NEXT + level as u64 * 8);
                // Publish: one CAS + one flush — the only failure-atomic
                // commit the bottom list needs. Serialized with unlinks;
                // a predecessor unlinked since the search carries a marked
                // pointer, so the CAS fails and the outer loop re-searches.
                let _lk = self.link_lock.lock();
                if self
                    .pool
                    .cas_u64(Self::next_off(preds[0], 0), succs[0], node)
                    .is_err()
                {
                    self.pool.free(node, NODE_NEXT + level as u64 * 8);
                    return false;
                }
                self.pool.persist(Self::next_off(preds[0], 0), 8);
                // Volatile express lanes, bottom-up, no flushes. Stop at the
                // first level whose predecessor is dead (marked) or has
                // moved on: a node is then in level l whenever it is in
                // level l + 1, so a descent that drops from l + 1 at it
                // never follows a stale `next[l]` into a recycled block.
                for l in 1..level {
                    if self.pool.load_u64(Self::next_off(preds[l], 0)) & MARK != 0
                        || self
                            .pool
                            .cas_u64(Self::next_off(preds[l], l), succs[l], node)
                            .is_err()
                    {
                        break;
                    }
                }
                true
            });
            if committed {
                return Ok(None);
            }
        }
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        let _pin = self.epoch.pin();
        loop {
            let (_, succs) = self.find_preds(key);
            let node = succs[0];
            if node == NULL_OFFSET || self.key_of(node) != key {
                return Ok(None);
            }
            let cur = self.val_of(node);
            if cur == 0 {
                return Ok(None); // tombstoned: absent
            }
            // Commit: one CAS + one flush, like every other skip-list
            // commit point.
            if self.pool.cas_u64(node + NODE_VAL, cur, value).is_ok() {
                self.pool.persist(node + NODE_VAL, 8);
                return Ok(Some(cur));
            }
        }
    }

    fn get(&self, key: Key) -> Option<Value> {
        let _pin = self.epoch.pin();
        stats::timed(stats::Phase::Search, || {
            let mut cur = self.head();
            let mut nxt = NULL_OFFSET;
            for l in (0..MAX_LEVEL).rev() {
                loop {
                    nxt = self.next(cur, l);
                    if nxt != NULL_OFFSET && self.key_of(nxt) < key {
                        if l < 10 {
                            self.pool.charge_serial_reads(1);
                        }
                        cur = nxt;
                    } else {
                        break;
                    }
                }
            }
            // `nxt` is the level-0 successor the descent stopped at. Reading
            // `cur`'s pointer again could return a node inserted since, below
            // `key`, and miss a key that is present.
            if nxt != NULL_OFFSET && self.key_of(nxt) == key {
                self.pool.charge_serial_reads(1);
                let v = self.val_of(nxt);
                if v != 0 {
                    return Some(v);
                }
            }
            None
        })
    }

    fn remove(&self, key: Key) -> bool {
        let _pin = self.epoch.pin();
        loop {
            let (_, succs) = self.find_preds(key);
            let node = succs[0];
            if node == NULL_OFFSET || self.key_of(node) != key {
                return false;
            }
            let v = self.val_of(node);
            if v == 0 {
                return false; // already tombstoned
            }
            // Tombstone commit: one persisted 8-byte store. The physical
            // unlink afterwards is cleanup, not part of the commit.
            if self.pool.cas_u64(node + NODE_VAL, v, 0).is_ok() {
                self.pool.persist(node + NODE_VAL, 8);
                self.unlink_tombstone(key, node);
                return true;
            }
        }
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        Box::new(SkipCursor {
            list: self,
            cur: self.head(),
            bound: 0,
            reverse: false,
            done: false,
            _pin: self.epoch.pin(),
        })
    }

    fn name(&self) -> &'static str {
        "SkipList"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use pmindex::workload::{generate_keys, value_for, within, KeyDist};
    use std::collections::BTreeMap;

    fn mk() -> (Arc<Pool>, PSkipList) {
        let p = Arc::new(Pool::new(PoolConfig::new().size(128 << 20)).unwrap());
        let t = PSkipList::create(Arc::clone(&p)).unwrap();
        (p, t)
    }

    /// The tower invariant, checked on a quiescent list: every level-l
    /// list is a strictly ascending sublist of level l - 1, and no
    /// reachable node carries the deletion mark. A node in level l + 1
    /// but not in level l would hand a descent its stale `next[l]`.
    fn assert_towers(t: &PSkipList) {
        let head = t.head();
        let mut below: Option<std::collections::HashSet<PmOffset>> = None;
        for l in 0..MAX_LEVEL {
            let mut level = std::collections::HashSet::new();
            let mut last = None;
            let mut cur = t.next(head, l);
            while cur != NULL_OFFSET {
                let k = t.key_of(cur);
                assert!(last < Some(k), "level {l}: key {k} out of order");
                assert_eq!(
                    t.pool.load_u64(PSkipList::next_off(cur, 0)) & MARK,
                    0,
                    "level {l}: reachable node {k} is marked"
                );
                if let Some(below) = &below {
                    assert!(below.contains(&cur), "key {k} in level {l}, not {}", l - 1);
                }
                level.insert(cur);
                last = Some(k);
                cur = t.next(cur, l);
            }
            below = Some(level);
        }
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
        assert_eq!(t.get(424242), None);
    }

    #[test]
    fn upsert_tombstone_reinsert() {
        let (_p, t) = mk();
        assert_eq!(t.insert(10, 100).unwrap(), None);
        assert_eq!(t.insert(10, 101).unwrap(), Some(100));
        assert_eq!(t.get(10), Some(101));
        assert_eq!(t.update(10, 150).unwrap(), Some(101));
        assert_eq!(t.update(11, 110).unwrap(), None);
        assert_eq!(t.get(11), None);
        assert!(t.remove(10));
        assert!(!t.remove(10));
        assert_eq!(t.get(10), None);
        // Updating a tombstoned key is a no-op; re-inserting revives it
        // and reports no replaced value.
        assert_eq!(t.update(10, 103).unwrap(), None);
        assert_eq!(t.get(10), None);
        assert_eq!(t.insert(10, 102).unwrap(), None);
        assert_eq!(t.get(10), Some(102));
    }

    #[test]
    fn cursor_skips_tombstones_and_reseeks() {
        let (_p, t) = mk();
        for k in 1..=200u64 {
            t.insert(k, k + 5).unwrap();
        }
        for k in (1..=200u64).step_by(2) {
            t.remove(k);
        }
        let mut c = t.cursor();
        let mut seen = Vec::new();
        while let Some((k, v)) = c.next() {
            assert_eq!(v, k + 5);
            seen.push(k);
        }
        let want: Vec<u64> = (1..=200).filter(|k| k % 2 == 0).collect();
        assert_eq!(seen, want);
        c.seek(101);
        assert_eq!(c.next(), Some((102, 107)));
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn cursor_seek_bound_excludes_racing_inserts_below_target() {
        // A key inserted after seek() but below the target must not leak
        // out of the window (the seek contract is key >= target).
        let (_p, t) = mk();
        t.insert(40, 45).unwrap();
        t.insert(200, 205).unwrap();
        let mut c = t.cursor();
        c.seek(100);
        // Simulates an insert racing between the predecessor lookup and
        // the first next(): key 50 links directly after the 40-node.
        t.insert(50, 55).unwrap();
        assert_eq!(c.next(), Some((200, 205)));
        assert_eq!(c.next(), None);
    }

    #[test]
    fn removed_nodes_unlink_and_recycle_through_epoch() {
        let (_p, t) = mk();
        for k in 1..=500u64 {
            t.insert(k, k).unwrap();
        }
        for k in 1..=500u64 {
            if k % 5 != 0 {
                assert!(t.remove(k));
            }
        }
        // The bottom list holds only the survivors — tombstoned nodes are
        // physically gone, not skipped.
        let mut hops = 0u64;
        let mut cur = t.next(t.head(), 0);
        while cur != NULL_OFFSET {
            hops += 1;
            cur = t.next(cur, 0);
        }
        assert_eq!(hops, 100, "unlinked nodes still on the bottom list");
        let d = Arc::clone(t.epoch());
        assert!(d.limbo_len() > 0 || d.recycled() > 0);
        d.try_advance();
        d.try_advance();
        d.collect();
        assert!(d.recycled() > 0, "unlinked nodes never recycled");
        for k in 1..=500u64 {
            let want = if k % 5 == 0 { Some(k) } else { None };
            assert_eq!(t.get(k), want, "key {k}");
        }
        // Reinserts land on recycled blocks and revive the live keys.
        for k in 1..=500u64 {
            t.insert(k, k + 1).unwrap();
        }
        for k in 1..=500u64 {
            assert_eq!(t.get(k), Some(k + 1));
        }
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn concurrent_remove_insert_cursor_storm() {
        // Exercises the unlink/publish/revive races: writers churn
        // disjoint ranges (insert, delete, reinsert) while cursors stream
        // the bottom list pinned against reclamation.
        let (_p, t) = mk();
        let t = Arc::new(t);
        const WRITERS: u64 = 4;
        const PER: u64 = 400;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let base = w * PER;
                    for round in 0..3u64 {
                        for k in base..base + PER {
                            t.insert(k * 2 + 1, k + round + 1).unwrap();
                        }
                        for k in base..base + PER {
                            if round < 2 || k % 3 != 0 {
                                assert!(t.remove(k * 2 + 1), "key {} vanished", k * 2 + 1);
                            }
                        }
                    }
                });
            }
            for _ in 0..2 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..6 {
                        let mut c = t.cursor();
                        let mut last = 0u64;
                        while let Some((k, v)) = c.next() {
                            assert!(k > last, "cursor disorder at {k}");
                            assert!(v > 0, "torn value at {k}");
                            last = k;
                        }
                    }
                });
            }
        });
        // Residue: every third key of each writer's final round survives.
        let mut want = 0u64;
        for w in 0..WRITERS {
            for k in w * PER..(w + 1) * PER {
                let alive = k % 3 == 0;
                if alive {
                    want += 1;
                }
                assert_eq!(t.get(k * 2 + 1).is_some(), alive, "key {}", k * 2 + 1);
            }
        }
        assert_eq!(t.len() as u64, want);
        assert_towers(&t);
    }

    #[test]
    fn towers_stay_sublists_under_interleaved_churn() {
        // Writers own interleaved keys, so neighbouring towers belong to
        // different threads and express-lane links race on shared
        // predecessors, some of them dying under a concurrent unlink.
        let (_p, t) = mk();
        const WRITERS: u64 = 4;
        const KEYS: u64 = 2000;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let t = &t;
                s.spawn(move || {
                    for round in 0..4u64 {
                        for k in (w..KEYS).step_by(WRITERS as usize) {
                            t.insert(k + 1, k + round + 1).unwrap();
                        }
                        for k in (w..KEYS).step_by(WRITERS as usize) {
                            if round < 3 || k % 2 == 0 {
                                assert!(t.remove(k + 1), "key {} vanished", k + 1);
                            }
                        }
                    }
                });
            }
        });
        assert_towers(&t);
        for k in 0..KEYS {
            let want = (k % 2 == 1).then_some(k + 4);
            assert_eq!(t.get(k + 1), want, "key {}", k + 1);
        }
    }

    #[test]
    fn range_skips_tombstones() {
        let (_p, t) = mk();
        for k in 1..=100u64 {
            t.insert(k, k + 5).unwrap();
        }
        for k in (1..=100u64).step_by(2) {
            t.remove(k);
        }
        let mut out = Vec::new();
        t.range(1, 101, &mut out);
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|&(k, _)| k % 2 == 0));
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
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
        let mut sorted = keys;
        sorted.sort_unstable();
        let (lo, hi) = (sorted[500], sorted[3500]);
        let mut got = Vec::new();
        t.range(lo, hi, &mut got);
        let want: Vec<_> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn two_flushes_per_plain_insert() {
        let (_p, t) = mk();
        for k in 1..=50u64 {
            t.insert(k * 7, k).unwrap();
        }
        stats::reset();
        t.insert(3, 33).unwrap();
        let s = stats::take();
        assert!(s.flushes <= 3, "flushes = {}", s.flushes);
    }

    #[test]
    fn reopen_rebuilds_towers() {
        let (p, t) = mk();
        let keys = generate_keys(5000, KeyDist::Uniform, 3);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let meta = t.meta_offset();
        drop(t);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(128 << 20)).unwrap());
        let t2 = PSkipList::open(Arc::clone(&p2), meta).unwrap();
        for &k in &keys {
            assert_eq!(t2.get(k), Some(value_for(k)));
        }
        t2.insert(keys[0] ^ 0xf0f0, 99).unwrap();
        assert_eq!(t2.get(keys[0] ^ 0xf0f0), Some(99));
    }

    /// A persisted mark whose cut was lost — the node still linked and
    /// tombstoned, its level-0 pointer marked — is cleared on open, so an
    /// insert behind the node publishes instead of retrying forever.
    #[test]
    fn a_persisted_mark_without_its_cut_is_cleared_on_open() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20)).unwrap());
        let t = PSkipList::create(Arc::clone(&p)).unwrap();
        for k in 1..=20u64 {
            t.insert(k * 10, value_for(k * 10)).unwrap();
        }
        let node = t.find_preds(100).1[0];
        let mut img = p.volatile_image();
        let mut set = |off: PmOffset, val: u64| {
            img[off as usize..off as usize + 8].copy_from_slice(&val.to_le_bytes());
        };
        set(node + NODE_VAL, 0);
        set(PSkipList::next_off(node, 0), t.next(node, 0) | MARK);
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(4 << 20)).unwrap());
        let t2 = Arc::new(PSkipList::open(p2, t.meta_offset()).unwrap());
        assert_eq!(t2.get(100), None, "tombstoned");
        let writer = Arc::clone(&t2);
        within(move || writer.insert(105, value_for(105)).unwrap())
            .expect("insert behind a marked node after reopen: did not finish");
        assert_eq!(t2.get(105), Some(value_for(105)));
        assert_towers(&t2);
    }

    /// Every image of an insert, a delete and an insert reopens with the
    /// committed keys, atomic in-flight ops and sound towers, and takes an
    /// insert of 105, whose predecessor is the delete's target 100. The
    /// delete's mark is a logged store that nothing flushes, so some
    /// images keep it without the cut; `open` must clear it, or the insert
    /// of 105 behind the still-linked node retries forever.
    #[test]
    fn crash_sweep_bottom_level_is_consistent() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20).crash_log(true)).unwrap());
        let t = PSkipList::create(Arc::clone(&p)).unwrap();
        let preload: Vec<u64> = (1..=20).map(|k| k * 10).collect();
        for &k in &preload {
            t.insert(k, value_for(k)).unwrap();
        }
        let log = p.crash_log().unwrap();
        log.set_baseline(p.volatile_image());
        let (preds, succs) = t.find_preds(100);
        let (pred, node) = (preds[0], succs[0]);
        t.insert(55, value_for(55)).unwrap();
        t.remove(100);
        t.insert(155, value_for(155)).unwrap();
        // The swept ops' stores and flushes. Pinned: a change here changes
        // the images swept below. It was 20 while the mark and the
        // express-lane unhooks went unlogged; 100's tower is three levels
        // tall, so they add three stores (the mark, two unhooks).
        assert_eq!(height_for(100), 3);
        assert_eq!(log.len(), 23, "crash-log events of the swept ops");
        let meta = t.meta_offset();
        let word = |img: &[u8], off: PmOffset| {
            u64::from_le_bytes(img[off as usize..off as usize + 8].try_into().unwrap())
        };
        let mut marked_without_cut = 0;
        for cut in 0..=log.len() {
            for policy in [
                pmem::crash::Eviction::None,
                pmem::crash::Eviction::All,
                pmem::crash::Eviction::Random(cut as u64),
            ] {
                let img = p.crash_image(cut, policy);
                if word(&img, PSkipList::next_off(node, 0)) & MARK != 0
                    && word(&img, PSkipList::next_off(pred, 0)) == node
                {
                    marked_without_cut += 1;
                }
                let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(4 << 20)).unwrap());
                let t2 = Arc::new(PSkipList::open(Arc::clone(&p2), meta).unwrap());
                assert_towers(&t2);
                for &k in &preload {
                    if k == 100 {
                        continue; // the in-flight delete target
                    }
                    assert_eq!(t2.get(k), Some(value_for(k)), "cut {cut} key {k}");
                }
                // In-flight ops are atomic.
                for k in [55u64, 155] {
                    match t2.get(k) {
                        None => {}
                        Some(v) => assert_eq!(v, value_for(k)),
                    }
                }
                let writer = Arc::clone(&t2);
                within(move || writer.insert(105, value_for(105)).unwrap()).unwrap_or_else(|| {
                    panic!("cut {cut}: insert behind the delete target did not finish")
                });
                assert_eq!(t2.get(105), Some(value_for(105)), "cut {cut}");
                assert_towers(&t2);
            }
        }
        assert!(
            marked_without_cut > 0,
            "no image kept the mark without the cut"
        );
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(256 << 20)).unwrap());
        let t = Arc::new(PSkipList::create(Arc::clone(&p)).unwrap());
        let keys = generate_keys(20_000, KeyDist::Uniform, 5);
        let chunks = pmindex::workload::partition(&keys, 4);
        std::thread::scope(|s| {
            for chunk in &chunks {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for &k in chunk {
                        t.insert(k, value_for(k)).unwrap();
                    }
                });
            }
        });
        for &k in &keys {
            assert_eq!(t.get(k), Some(value_for(k)));
        }
        let mut out = Vec::new();
        t.range(0, u64::MAX, &mut out);
        assert_eq!(out.len(), keys.len());
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_towers(&t);
    }

    #[test]
    fn height_distribution_is_geometric() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        for k in 1..=100_000u64 {
            counts[height_for(k)] += 1;
        }
        // Roughly half the keys at height 1, a quarter at 2, ...
        assert!(counts[1] > 40_000 && counts[1] < 60_000, "{counts:?}");
        assert!(counts[2] > 20_000 && counts[2] < 30_000, "{counts:?}");
    }
}

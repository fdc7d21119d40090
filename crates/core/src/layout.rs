//! Persistent node layout and the entry-validity rules of FAST.
//!
//! A node is a `node_size`-byte, cache-line-aligned region in the pool:
//!
//! ```text
//! offset  field
//! ------  -----------------------------------------------------------
//!   0     leftmost_child  (internal: child for keys < key(0);
//!                          leaf: the constant LEAF_ANCHOR)
//!   8     sibling_ptr     (B-link right sibling, 0 = none)
//!  16     switch_counter  (even: last writer inserted → readers scan L→R;
//!                          odd:  last writer deleted  → readers scan R→L)
//!  24     level_flags     (low 32 bits: level, 0 = leaf; bit 32: deleted)
//!  32     reserved        (never written, ignored on open: a pool written
//!                          by an earlier version may hold a stale count
//!                          hint here; the count is the NULL terminator)
//!  40     reserved        (never written, ignored on open: a pool written
//!                          by an earlier version may hold a latch bit
//!                          here; latches are handle state, see `lock`)
//!  48     reserved        (always 0; once the seal of removed leaf
//!                          fingerprints)
//!  56     high_key        (exclusive upper bound of the node's key range;
//!                          `Key::MAX` on the rightmost node of a level,
//!                          whose NULL sibling makes it unbounded)
//!  64     records[0].key
//!  72     records[0].ptr
//!  80     records[1].key ...
//! ```
//!
//! There is one layout: the records start right after the header line.
//! Trees created with a removed layout, or before nodes had a high key, are
//! rejected on open (see `tree.rs`).
//!
//! ## The high key (Lehman–Yao)
//!
//! A node covers `[low, high_key)`, `low` being its left neighbour's high
//! key; a walk moves right iff `sibling != NULL && key >= high_key`
//! ([`NodeRef::right_of`]), one compare against the node's own header line.
//! Splits lower it and merges raise it in the header line (`split.rs`,
//! `merge.rs`).
//!
//! Entry `i` is **valid** iff `ptr(i) != NULL && ptr(i) != INVALID_PTR`.
//! A NULL pointer terminates the array; [`INVALID_PTR`] (`u64::MAX`, one of
//! the two reserved values of the `pmindex` contract) marks the poisoned
//! slot a shift is currently rewriting or a crashed shift left behind.
//! A single 8-byte pointer store atomically invalidates (poison) or
//! validates (final pointer store) an entry, so readers never observe a
//! torn record.
//!
//! ## Deviation from the original C++ implementation (documented)
//!
//! The original detects in-flight and crashed shifts by *pointer
//! duplication*: entry `i` is garbage iff `ptr(i) == ptr(i-1)` (or the
//! leftmost child for `i == 0`). That rule is exact only because the
//! original stores unique record *pointers* as values. This reproduction
//! stores arbitrary `u64` values, where two adjacent keys may legitimately
//! carry the same value — under the duplication rule such entries read as
//! garbage and silently disappear (and a left-shift's transient states can
//! expose torn `(key, ptr)` pairs to equal-value neighbours). We therefore
//! poison a slot explicitly with the reserved [`INVALID_PTR`] sentinel
//! before rewriting it, at the cost of one extra 8-byte store per shifted
//! record. The crash story is unchanged: every intermediate state is a
//! complete record, a poisoned slot, or an exact duplicate of its left
//! neighbour (same key *and* value, left by a finished copy whose source
//! was not yet poisoned) — readers skip the first two and dedup the third,
//! and lazy recovery compacts all of them. The leaf anchor [`LEAF_ANCHOR`]
//! shares the sentinel's bit pattern, so invalidating entry 0 of a leaf is
//! the same store it always was. This is why values may not be 0 or
//! `u64::MAX`.
//!
//! The original also keeps a record count (`last_index`) in the header and
//! trusts it. This reproduction keeps none: a node's count is the slot of
//! its first NULL pointer ([`NodeRef::count_records`]), the terminator
//! every reader stops at, which no crash can set apart from the records.

use pmem::{PmOffset, Pool, CACHE_LINE, NULL_OFFSET};
use pmindex::Key;

/// Size of the per-node header in bytes (one cache line).
pub const HEADER_SIZE: u64 = 64;

/// Size of one `(key, ptr)` record in bytes.
pub const RECORD_SIZE: u64 = 16;

/// Reserved non-NULL pointer that anchors the left edge of a leaf node.
pub const LEAF_ANCHOR: u64 = u64::MAX;

/// Reserved pointer that poisons a slot for the duration of a FAST shift
/// rewrite (and marks the garbage a crashed shift leaves behind). Shares
/// the bit pattern of [`LEAF_ANCHOR`] — both are the reserved `u64::MAX`
/// of the `pmindex` value contract, and both mean "skip this entry".
pub const INVALID_PTR: u64 = u64::MAX;

const LEFTMOST_OFF: u64 = 0;
const SIBLING_OFF: u64 = 8;
const SWITCH_OFF: u64 = 16;
const LEVEL_OFF: u64 = 24;
const HIGH_KEY_OFF: u64 = 56;

const DELETED_BIT: u64 = 1 << 32;

/// Whether `bytes` is a node size a tree may use: a multiple of 64 that
/// holds at least four record slots and at most 1 MiB, so that its
/// capacity fits a `u16`.
pub fn node_size_fits(bytes: u64) -> bool {
    bytes.is_multiple_of(64) && (HEADER_SIZE + 4 * RECORD_SIZE..=1 << 20).contains(&bytes)
}

/// Number of record slots in a node of `node_size` bytes.
///
/// The last two slots are never counted as capacity: one is the permanent
/// NULL terminator and one is slack for the terminator pre-extension done by
/// the FAST shift (Algorithm 1 writes `records[cnt+1]` before shifting).
pub fn capacity(node_size: u32) -> u16 {
    let slots = (u64::from(node_size) - HEADER_SIZE) / RECORD_SIZE;
    assert!(slots >= 4, "node size {node_size} too small");
    (slots - 2) as u16
}

/// Whether landing on a node at `level` costs a PM miss: the two lowest
/// levels do, anything above is LLC-resident and free. The rule and its
/// reason are documented on `FastFairTree::visit`, which applies it to the
/// level a walk expects before it reads the node.
#[inline]
pub(crate) fn is_cold(level: u32) -> bool {
    level <= 1
}

/// One slot of a node's [`records`](NodeRef::records).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    pub(crate) slot: u16,
    pub(crate) key: Key,
    pub(crate) ptr: u64,
    /// The residue of an interrupted shift, which readers skip and repair
    /// compacts: a poisoned slot, or an exact duplicate (same key, same
    /// pointer) of its left neighbour — keys are unique within a node, so
    /// an adjacent repeat is always a finished copy whose source was not
    /// yet poisoned.
    pub(crate) residue: bool,
}

/// A borrowed view of one persistent node.
///
/// All accessors go through the pool's atomic load/store primitives; the
/// view itself holds no mutable state, so it is freely copyable and safe to
/// use from concurrent readers.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    pool: &'a Pool,
    off: PmOffset,
    node_size: u32,
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef")
            .field("off", &self.off)
            .field("level", &self.level())
            .field("sibling", &self.sibling())
            .finish()
    }
}

impl<'a> NodeRef<'a> {
    /// Creates a view of the node at `off`.
    pub fn new(pool: &'a Pool, off: PmOffset, node_size: u32) -> Self {
        debug_assert!(off != NULL_OFFSET && off.is_multiple_of(CACHE_LINE as u64));
        NodeRef {
            pool,
            off,
            node_size,
        }
    }

    /// The pool this node lives in.
    pub fn pool(&self) -> &'a Pool {
        self.pool
    }

    /// Pool offset of the node.
    pub fn offset(&self) -> PmOffset {
        self.off
    }

    /// Usable record capacity.
    pub fn capacity(&self) -> u16 {
        capacity(self.node_size)
    }

    // ---- header ----------------------------------------------------------

    /// Leftmost child pointer (internal) / leaf anchor (leaf).
    pub fn leftmost(&self) -> PmOffset {
        self.pool.load_u64(self.off + LEFTMOST_OFF)
    }

    /// Stores the leftmost child pointer.
    pub fn set_leftmost(&self, v: PmOffset) {
        self.pool.store_u64(self.off + LEFTMOST_OFF, v);
    }

    /// Right sibling pointer (0 = none).
    pub fn sibling(&self) -> PmOffset {
        self.pool.load_u64(self.off + SIBLING_OFF)
    }

    /// Stores the sibling pointer (does not flush).
    pub fn set_sibling(&self, v: PmOffset) {
        self.pool.store_u64(self.off + SIBLING_OFF, v);
    }

    /// Exclusive upper bound of the node's key range; meaningful only while
    /// the node has a sibling (the rightmost node of a level is unbounded).
    pub fn high_key(&self) -> Key {
        self.pool.load_u64(self.off + HIGH_KEY_OFF)
    }

    /// Stores the high key (does not flush).
    pub fn set_high_key(&self, k: Key) {
        self.pool.store_u64(self.off + HIGH_KEY_OFF, k);
    }

    /// The right sibling a walk for `key` moves to (B-link move-right), or
    /// `None` if this node covers `key`.
    ///
    /// The high key is read before the sibling pointer. A split stores the
    /// pointer first and lowers the high key after it, and a merge raises
    /// the high key before it bypasses, so a lock-free reader never pairs a
    /// lowered bound with a sibling that does not cover the keys above it.
    #[inline]
    pub fn right_of(&self, key: Key) -> Option<PmOffset> {
        let high = self.high_key();
        let sib = self.sibling();
        (sib != NULL_OFFSET && key >= high).then_some(sib)
    }

    /// Persists the header line: one flush and one fence carry the sibling
    /// pointer, switch counter and high key stored since the last persist.
    pub fn persist_header(&self) {
        self.pool.persist(self.off, HEADER_SIZE);
    }

    /// Current switch counter (even = insert direction, odd = delete).
    pub fn switch_counter(&self) -> u64 {
        self.pool.load_u64(self.off + SWITCH_OFF)
    }

    /// Stores the switch counter.
    pub fn set_switch_counter(&self, v: u64) {
        self.pool.store_u64(self.off + SWITCH_OFF, v);
    }

    /// Tree level: 0 for leaves.
    pub fn level(&self) -> u32 {
        (self.pool.load_u64(self.off + LEVEL_OFF) & 0xffff_ffff) as u32
    }

    /// True if this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level() == 0
    }

    /// True if the node has been logically deleted (unlinked).
    pub fn is_deleted(&self) -> bool {
        self.pool.load_u64(self.off + LEVEL_OFF) & DELETED_BIT != 0
    }

    /// Sets the level field, clearing flags.
    pub fn set_level(&self, level: u32) {
        self.pool.store_u64(self.off + LEVEL_OFF, u64::from(level));
    }

    /// Marks the node logically deleted.
    pub fn mark_deleted(&self) {
        let v = self.pool.load_u64(self.off + LEVEL_OFF);
        self.pool.store_u64(self.off + LEVEL_OFF, v | DELETED_BIT);
    }

    // ---- records ---------------------------------------------------------

    /// Pool offset of record `i`'s key field.
    #[inline]
    pub fn key_off(&self, i: u16) -> PmOffset {
        self.off + HEADER_SIZE + u64::from(i) * RECORD_SIZE
    }

    /// Cache-line index of record `i` — shift loops flush when consecutive
    /// slots land on different lines.
    #[inline]
    pub fn rec_line(&self, i: u16) -> u64 {
        self.key_off(i) / CACHE_LINE as u64
    }

    /// Pool offset of record `i`'s pointer field.
    #[inline]
    pub fn ptr_off(&self, i: u16) -> PmOffset {
        self.key_off(i) + 8
    }

    /// Loads record `i`'s key.
    #[inline]
    pub fn key(&self, i: u16) -> u64 {
        self.pool.load_u64(self.key_off(i))
    }

    /// Loads record `i`'s pointer.
    #[inline]
    pub fn ptr(&self, i: u16) -> u64 {
        self.pool.load_u64(self.ptr_off(i))
    }

    /// Stores record `i`'s key.
    #[inline]
    pub fn set_key(&self, i: u16, k: u64) {
        self.pool.store_u64(self.key_off(i), k);
    }

    /// Stores record `i`'s pointer.
    #[inline]
    pub fn set_ptr(&self, i: u16, p: u64) {
        self.pool.store_u64(self.ptr_off(i), p);
    }

    /// The pointer to the *left* of entry `i`: `ptr(i-1)`, or the leftmost
    /// child for `i == 0`. Used for routing (e.g. finding the left sibling
    /// of a merged-away child), not for validity.
    #[inline]
    pub fn left_ptr(&self, i: u16) -> u64 {
        if i == 0 {
            self.leftmost()
        } else {
            self.ptr(i - 1)
        }
    }

    /// FAST entry validity: a pointer that is neither the NULL terminator
    /// nor the [`INVALID_PTR`] poison sentinel.
    #[inline]
    pub fn entry_valid(&self, i: u16) -> bool {
        let p = self.ptr(i);
        p != NULL_OFFSET && p != INVALID_PTR
    }

    /// Number of records before the NULL terminator (poisoned slots count:
    /// they occupy slots), the node's only count; a split's moved-out half,
    /// above its truncation's NULL, is not counted. Writers count under the
    /// node lock; a right-to-left reader starts its scan here.
    pub fn count_records(&self) -> u16 {
        (0..=self.capacity())
            .take_while(|&i| self.ptr(i) != NULL_OFFSET)
            .count() as u16
    }

    /// The records before the terminator, in slot order, poisoned slots
    /// included: the one latched walk of a node's slots. Not for lock-free
    /// readers (those use `search::read_node`): every caller holds the
    /// node's latch, or is the only one that can reach it, or runs
    /// quiescent.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record> + 'a {
        let node = *self;
        let mut left = None;
        (0..=self.capacity()).map_while(move |slot| {
            let ptr = node.ptr(slot);
            (ptr != NULL_OFFSET).then(|| {
                let key = node.key(slot);
                let residue = ptr == INVALID_PTR || left == Some((key, ptr));
                left = Some((key, ptr));
                Record {
                    slot,
                    key,
                    ptr,
                    residue,
                }
            })
        })
    }

    /// Collects the valid `(key, ptr)` entries in slot order: the records
    /// that are not shift residue.
    pub fn valid_entries(&self) -> Vec<(u64, u64)> {
        self.records()
            .filter(|r| !r.residue)
            .map(|r| (r.key, r.ptr))
            .collect()
    }

    /// Key of the first *valid* entry, if any (latched or quiescent, as
    /// [`records`](Self::records)).
    pub fn first_key(&self) -> Option<u64> {
        self.records().find(|r| !r.residue).map(|r| r.key)
    }

    /// Initializes a freshly allocated node (zeroing all record slots).
    ///
    /// Writes are plain stores; the caller persists the node when the
    /// algorithm requires it (e.g. FAIR flushes the whole sibling before
    /// linking it).
    pub fn init(&self, level: u32) {
        self.pool.zero_region(self.off, u64::from(self.node_size));
        self.set_level(level);
        self.set_high_key(Key::MAX);
        if level == 0 {
            self.set_leftmost(LEAF_ANCHOR);
        }
    }

    /// Charges a linear scan that touched records `[0, n)` of this node as
    /// prefetch-friendly adjacent lines.
    #[inline]
    pub fn charge_linear_scan(&self, n: u16) {
        if n == 0 {
            return;
        }
        let lines = (u64::from(n) * RECORD_SIZE).div_ceil(CACHE_LINE as u64) as u32;
        self.pool.charge_parallel_lines(lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;

    fn pool() -> Pool {
        Pool::new(PoolConfig::new().size(1 << 20)).unwrap()
    }

    fn fresh_node(pool: &Pool, size: u32, level: u32) -> NodeRef<'_> {
        let off = pool.alloc(u64::from(size), 64).unwrap();
        let n = NodeRef::new(pool, off, size);
        n.init(level);
        n
    }

    /// Total record slots of `n`: capacity, terminator and shift slack.
    fn slots(n: &NodeRef<'_>) -> u16 {
        n.capacity() + 2
    }

    #[test]
    fn capacity_matches_paper_geometry() {
        // 512-byte node: (512-64)/16 = 28 slots, 26 usable.
        assert_eq!(capacity(512), 26);
        assert_eq!(capacity(256), 10);
        assert_eq!(capacity(1024), 58);
        assert_eq!(capacity(4096), 250);
    }

    #[test]
    fn slot_mapping_is_the_identity() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        let base = n.offset() + HEADER_SIZE;
        for i in 0..slots(&n) {
            assert_eq!(n.key_off(i), base + u64::from(i) * RECORD_SIZE);
            assert_eq!(n.ptr_off(i), n.key_off(i) + 8);
            // Four records to a line: the line changes every fourth slot.
            assert_eq!(
                n.rec_line(i) != n.rec_line(i.saturating_sub(1)),
                i > 0 && i % 4 == 0,
                "slot {i}"
            );
        }
    }

    #[test]
    fn records_roundtrip_in_every_slot() {
        let p = pool();
        for ns in [256u32, 512, 1024] {
            let n = fresh_node(&p, ns, 0);
            // The slots, terminator and slack included, tile the node up
            // to its last byte.
            assert_eq!(
                n.key_off(slots(&n) - 1) + RECORD_SIZE,
                n.offset() + u64::from(ns)
            );
            let cap = n.capacity();
            for i in 0..cap {
                n.set_key(i, u64::from(i) * 10 + 10);
                n.set_ptr(i, u64::from(i) + 100);
            }
            let want: Vec<(u64, u64)> = (0..u64::from(cap))
                .map(|i| (i * 10 + 10, i + 100))
                .collect();
            assert_eq!(n.valid_entries(), want, "{ns}");
            assert_eq!(n.count_records(), cap);
            assert_eq!(n.first_key(), Some(10));
        }
    }

    #[test]
    fn header_roundtrip() {
        let p = pool();
        let n = fresh_node(&p, 512, 3);
        assert_eq!(n.level(), 3);
        assert!(!n.is_leaf());
        assert!(!n.is_deleted());
        n.set_sibling(4096);
        assert_eq!(n.sibling(), 4096);
        n.set_switch_counter(5);
        assert_eq!(n.switch_counter(), 5);
        n.mark_deleted();
        assert!(n.is_deleted());
        assert_eq!(n.level(), 3);
    }

    #[test]
    fn leaf_gets_anchor() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        assert!(n.is_leaf());
        assert_eq!(n.leftmost(), LEAF_ANCHOR);
        assert_eq!(n.left_ptr(0), LEAF_ANCHOR);
    }

    #[test]
    fn validity_rules() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        // Empty: entry 0 has NULL ptr -> invalid.
        assert!(!n.entry_valid(0));
        n.set_key(0, 10);
        n.set_ptr(0, 100);
        assert!(n.entry_valid(0));
        // A duplicate *value* on a different key is perfectly valid: values
        // are arbitrary u64s, not unique pointers (see the module docs).
        n.set_key(1, 20);
        n.set_ptr(1, 100);
        assert!(n.entry_valid(1));
        n.set_ptr(1, 200);
        assert!(n.entry_valid(1));
        // The poison sentinel marks an entry invalid at any slot.
        n.set_ptr(1, INVALID_PTR);
        assert!(!n.entry_valid(1));
        n.set_ptr(1, 200);
        // Anchor in entry 0 marks it invalid (leaf pos-0 shift state): the
        // anchor shares the sentinel's bit pattern.
        n.set_ptr(0, LEAF_ANCHOR);
        assert!(!n.entry_valid(0));
        assert!(n.entry_valid(1));
    }

    /// Header word 32 held a count hint in earlier versions, which a crash
    /// could leave stale either way; the count ignores whatever it holds.
    #[test]
    fn count_records_self_heals_stale_hint() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        for i in 0..5u16 {
            n.set_key(i, u64::from(i) * 10 + 10);
            n.set_ptr(i, u64::from(i) + 100);
        }
        let past_cap = u64::from(n.capacity()) + 1;
        for word in [0, 2, 20, past_cap, u64::MAX] {
            p.store_u64(n.offset() + 32, word);
            assert_eq!(n.count_records(), 5, "word 32 = {word}");
        }
    }

    #[test]
    fn valid_entries_skips_poison_and_shift_residue() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        n.set_key(0, 10);
        n.set_ptr(0, 100);
        n.set_key(1, 15);
        n.set_ptr(1, INVALID_PTR); // poisoned mid-shift slot -> garbage
        n.set_key(2, 20);
        n.set_ptr(2, 200);
        n.set_key(3, 20);
        n.set_ptr(3, 200); // exact adjacent duplicate -> shift residue
        n.set_key(4, 30);
        n.set_ptr(4, 200); // same value, different key -> valid
        assert_eq!(n.valid_entries(), vec![(10, 100), (20, 200), (30, 200)]);
        assert_eq!(n.first_key(), Some(10));
    }

    #[test]
    fn first_key_none_for_empty() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        assert_eq!(n.first_key(), None);
    }

    #[test]
    fn init_clears_stale_records() {
        let p = pool();
        let off = p.alloc(512, 64).unwrap();
        let n = NodeRef::new(&p, off, 512);
        n.set_key(3, 333);
        n.set_ptr(3, 334);
        n.init(0);
        assert_eq!(n.key(3), 0);
        assert_eq!(n.ptr(3), 0);
        assert_eq!(n.count_records(), 0);
    }

    /// A block recycled with stale bytes in its header reads 0 in the
    /// reserved word 48 and the unbounded high key `Key::MAX` in word 56
    /// once `init` frames it as a node, at every level and node size.
    #[test]
    fn init_zeroes_word_48_and_sets_an_unbounded_high_key() {
        let p = pool();
        for ns in [256u32, 512, 1024] {
            for level in [0u32, 1, 2] {
                let off = p.alloc(u64::from(ns), 64).unwrap();
                for word in [48u64, 56] {
                    p.store_u64(off + word, 0xdead_beef);
                }
                let n = NodeRef::new(&p, off, ns);
                n.init(level);
                assert_eq!(p.load_u64(off + 48), 0, "{ns}/{level}");
                assert_eq!(n.high_key(), Key::MAX, "{ns}/{level}");
                assert_eq!(p.load_u64(off + 56), Key::MAX, "{ns}/{level}");
            }
        }
    }

    /// A node moves a walk right only for keys at or above its high key,
    /// and never without a sibling, whatever the high key says.
    #[test]
    fn right_of_compares_with_the_high_key_only_when_linked() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        for key in [0, 10, Key::MAX] {
            assert_eq!(n.right_of(key), None, "rightmost, key {key}");
        }
        n.set_sibling(4096);
        n.set_high_key(10);
        assert_eq!(n.right_of(9), None);
        assert_eq!(n.right_of(10), Some(4096));
        assert_eq!(n.right_of(Key::MAX), Some(4096));
    }

    /// A linear scan of `n` records streams the record lines they span, four
    /// 16-byte records to a 64-byte line, and scanning nothing charges
    /// nothing.
    #[test]
    fn charge_linear_scan_counts_whole_record_lines() {
        let p = pool();
        let n = fresh_node(&p, 4096, 0);
        for (scanned, lines) in [
            (0u16, 0u64),
            (1, 1),
            (4, 1),
            (5, 2),
            (8, 2),
            (9, 3),
            (250, 63),
        ] {
            pmem::stats::reset();
            n.charge_linear_scan(scanned);
            let s = pmem::stats::take();
            assert_eq!(s.parallel_lines, lines, "{scanned} records");
            assert_eq!(s.serial_misses, 0, "{scanned} records");
        }
    }
}

//! WORT: Write-Optimal Radix Tree for persistent memory (Lee et al.,
//! FAST 2017).
//!
//! The radix baseline of the FAST+FAIR paper. A 4-bit-per-level radix tree
//! over 64-bit keys (16 nibbles, most-significant first, so in-order
//! traversal is numeric order) with **path compression**: each node packs
//! `{depth, prefix_len, up-to-12-nibble prefix}` into a single 8-byte
//! header, so every structural change commits with one failure-atomic
//! 8-byte store:
//!
//! * a plain insert stores the value into an empty child slot — one store,
//!   one flush (why WORT wins on pure write latency, Fig. 5(c));
//! * a prefix split builds the new parent off-line, swaps one child
//!   pointer atomically, and fixes the demoted node's header afterwards.
//!   A crash between the swap and the fix leaves a *stale depth* that
//!   readers detect (`node.depth != traversal depth`) and adapt to, and
//!   that the next writer repairs — WORT's own brand of endurable
//!   transient inconsistency.
//!
//! The trade-offs the paper measures are structural: lookups make one
//! dependent cache miss per radix level (no prefetching across levels), so
//! search degrades steeply with PM read latency (Fig. 5(b)), and range
//! queries must walk the trie in-order, which is why WORT loses the range
//! and TPC-C comparisons (Figs. 4, 6).
//!
//! Concurrency: like the original, not designed for concurrent access; a
//! tree-level mutex serializes operations (§5.7).

#![warn(missing_docs)]

use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{stats, PmOffset, Pool, NULL_OFFSET};
use pmindex::{check_value, Cursor, IndexError, Key, PmIndex, Value};

/// Node size: 8-byte header + 16 child slots.
pub const NODE_SIZE: u64 = 8 + 16 * 8;

const MAX_PREFIX: u8 = 12; // nibbles that fit the 48-bit header field

const META_MAGIC: u64 = 0x574f_5254_0000_0001;
const META_ROOT: u64 = 8;

/// Nibble `i` (0 = most significant) of a key.
#[inline]
fn nibble(key: Key, i: u8) -> u8 {
    debug_assert!(i < 16);
    ((key >> ((15 - i) * 4)) & 0xf) as u8
}

/// Packed node header: `[depth:8][prefix_len:8][prefix:48]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    depth: u8,
    plen: u8,
    prefix: u64, // nibbles packed MSB-first in the low 4*plen bits
}

impl Header {
    fn pack(self) -> u64 {
        debug_assert!(self.plen <= MAX_PREFIX);
        (u64::from(self.depth) << 56)
            | (u64::from(self.plen) << 48)
            | (self.prefix & ((1 << 48) - 1))
    }

    fn unpack(v: u64) -> Header {
        Header {
            depth: (v >> 56) as u8,
            plen: ((v >> 48) & 0xff) as u8,
            prefix: v & ((1 << 48) - 1),
        }
    }

    fn prefix_nibble(&self, i: u8) -> u8 {
        debug_assert!(i < self.plen);
        ((self.prefix >> ((self.plen - 1 - i) * 4)) & 0xf) as u8
    }
}

fn pack_prefix(nibbles: &[u8]) -> u64 {
    let mut v = 0u64;
    for &n in nibbles {
        v = (v << 4) | u64::from(n);
    }
    v
}

/// A persistent write-optimal radix tree.
pub struct Wort {
    pool: Arc<Pool>,
    meta: PmOffset,
    op_lock: Mutex<()>,
    /// Reclamation domain for pruned subtrie nodes: a delete that empties
    /// a node unlinks it with one persisted store and retires it here, so
    /// the block recycles only after concurrent readers drain.
    epoch: Arc<epoch::EpochDomain>,
}

impl std::fmt::Debug for Wort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wort").field("meta", &self.meta).finish()
    }
}

impl Wort {
    /// Creates an empty WORT in `pool`.
    ///
    /// # Errors
    ///
    /// Fails if the pool cannot hold the superblock and root node.
    pub fn create(pool: Arc<Pool>) -> Result<Self, IndexError> {
        let meta = pool.alloc(64, 64)?;
        pool.zero_region(meta, 64);
        let root = Self::alloc_node(
            &pool,
            Header {
                depth: 0,
                plen: 0,
                prefix: 0,
            },
        )?;
        pool.store_u64(meta, META_MAGIC);
        pool.store_u64(meta + META_ROOT, root);
        pool.persist(meta, 64);
        Ok(Wort {
            pool,
            meta,
            op_lock: Mutex::new(()),
            epoch: epoch::EpochDomain::new(),
        })
    }

    /// Opens a WORT at `meta` (instant: the radix structure needs no
    /// rebuild or log replay).
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `meta` is not a 64-aligned line inside
    /// the pool holding a WORT superblock magic, or if its root word is not a
    /// 64-aligned block inside the pool.
    pub fn open(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        pmindex::check_superblock(&pool, meta, &[META_MAGIC], "WORT")?;
        pmindex::check_link(&pool, meta + META_ROOT, NODE_SIZE, "WORT root")?;
        Ok(Wort {
            pool,
            meta,
            op_lock: Mutex::new(()),
            epoch: epoch::EpochDomain::new(),
        })
    }

    /// Superblock offset.
    pub fn meta_offset(&self) -> PmOffset {
        self.meta
    }

    /// The reclamation domain pruned subtrie nodes retire through.
    pub fn epoch(&self) -> &Arc<epoch::EpochDomain> {
        &self.epoch
    }

    /// Whether every child slot of `node` is empty (0 is both the absent
    /// pointer and the absent value).
    fn node_is_empty(&self, node: PmOffset) -> bool {
        (0u8..16).all(|i| self.child(node, i) == 0)
    }

    /// Prunes emptied nodes bottom-up after a delete. Each unlink is one
    /// persisted 8-byte store of the parent slot — failure-atomic, and
    /// crash-tolerant at every cut: a crash before the unlink leaves an
    /// empty node (readers find nothing there), after it an unreachable
    /// one (leaked, like any pre-crash free). The unlinked node is retired
    /// through the epoch domain rather than freed directly: today the
    /// tree-level mutex already excludes readers, but retirement keeps the
    /// unlink path safe if ops stop serializing, and routes the block
    /// through the same limbo/recycle accounting as the B+-tree's merges.
    fn prune_path(&self, path: &[(PmOffset, PmOffset)]) {
        // path[last] is the leaf-parent whose value slot was just cleared;
        // path[0] is the root, which always stays.
        for i in (1..path.len()).rev() {
            let (node, _) = path[i];
            if !self.node_is_empty(node) {
                return;
            }
            let (_, parent_slot) = path[i - 1];
            self.pool.store_u64(parent_slot, 0);
            self.pool.persist(parent_slot, 8);
            self.epoch.retire_pm(&self.pool, node, NODE_SIZE);
        }
    }

    fn alloc_node(pool: &Pool, h: Header) -> Result<PmOffset, IndexError> {
        let off = pool.alloc(NODE_SIZE, 64)?;
        pool.zero_region(off, NODE_SIZE);
        pool.store_u64(off, h.pack());
        Ok(off)
    }

    fn header(&self, node: PmOffset) -> Header {
        Header::unpack(self.pool.load_u64(node))
    }

    fn child(&self, node: PmOffset, i: u8) -> u64 {
        self.pool.load_u64(node + 8 + u64::from(i) * 8)
    }

    fn child_off(node: PmOffset, i: u8) -> PmOffset {
        node + 8 + u64::from(i) * 8
    }

    fn root(&self) -> PmOffset {
        self.pool.load_u64(self.meta + META_ROOT)
    }

    /// Effective prefix of a node reached at traversal depth `d`,
    /// tolerating a stale header from a crashed prefix split: if the stored
    /// depth is behind, the first `d - stored_depth` prefix nibbles have
    /// already been consumed by the new parent above.
    fn effective_prefix(h: Header, d: u8) -> Vec<u8> {
        let skip = d.saturating_sub(h.depth);
        (skip..h.plen).map(|i| h.prefix_nibble(i)).collect()
    }

    /// Builds the (at most two-node) chain holding the suffix of `key`
    /// starting at nibble `d`, returning the slot content for the parent.
    fn build_suffix(&self, key: Key, d: u8, value: Value) -> Result<u64, IndexError> {
        if d == 16 {
            return Ok(value);
        }
        let remaining = 15 - d; // nibbles available for the prefix
        let plen = remaining.min(MAX_PREFIX);
        let nibbles: Vec<u8> = (d..d + plen).map(|i| nibble(key, i)).collect();
        let h = Header {
            depth: d,
            plen,
            prefix: pack_prefix(&nibbles),
        };
        let off = Self::alloc_node(&self.pool, h)?;
        let idx = nibble(key, d + plen);
        let below = self.build_suffix(key, d + plen + 1, value)?;
        self.pool.store_u64(Self::child_off(off, idx), below);
        self.pool.persist(off, NODE_SIZE);
        Ok(off)
    }

    fn insert_locked(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        let mut parent_slot = self.meta + META_ROOT;
        let mut node = self.root();
        let mut d: u8 = 0;
        loop {
            let h = self.header(node);
            let prefix = Self::effective_prefix(h, d);
            // Writers repair stale headers from crashed splits (lazy fix).
            if h.depth != d || prefix.len() != h.plen as usize {
                let fixed = Header {
                    depth: d,
                    plen: prefix.len() as u8,
                    prefix: pack_prefix(&prefix),
                };
                self.pool.store_u64(node, fixed.pack());
                self.pool.persist(node, 8);
            }
            // Compare the key against the compressed prefix.
            let mut j = 0u8;
            while (j as usize) < prefix.len() && nibble(key, d + j) == prefix[j as usize] {
                j += 1;
            }
            if (j as usize) < prefix.len() {
                // Prefix mismatch: split at j.
                let np_h = Header {
                    depth: d,
                    plen: j,
                    prefix: pack_prefix(&prefix[..j as usize]),
                };
                let np = Self::alloc_node(&self.pool, np_h)?;
                // Old node demotes below the split point.
                self.pool
                    .store_u64(Self::child_off(np, prefix[j as usize]), node);
                let suffix = self.build_suffix(key, d + j + 1, value)?;
                self.pool
                    .store_u64(Self::child_off(np, nibble(key, d + j)), suffix);
                self.pool.persist(np, NODE_SIZE);
                // Commit: one atomic 8-byte pointer swap.
                self.pool.store_u64(parent_slot, np);
                self.pool.persist(parent_slot, 8);
                // Fix the demoted node's header (crash-tolerable: readers
                // adapt via the depth check, the next writer repairs).
                let fixed = Header {
                    depth: d + j + 1,
                    plen: prefix.len() as u8 - j - 1,
                    prefix: pack_prefix(&prefix[j as usize + 1..]),
                };
                self.pool.store_u64(node, fixed.pack());
                self.pool.persist(node, 8);
                return Ok(None);
            }
            d += prefix.len() as u8;
            let idx = nibble(key, d);
            let slot = Self::child_off(node, idx);
            d += 1;
            if d == 16 {
                // Value position: a single persisted store (insert or
                // update) — WORT's write-optimality.
                let old = self.pool.load_u64(slot);
                self.pool.store_u64(slot, value);
                self.pool.persist(slot, 8);
                return Ok(if old == 0 { None } else { Some(old) });
            }
            let next = self.pool.load_u64(slot);
            if next == NULL_OFFSET {
                let suffix = self.build_suffix(key, d, value)?;
                self.pool.store_u64(slot, suffix);
                self.pool.persist(slot, 8);
                return Ok(None);
            }
            parent_slot = slot;
            node = next;
        }
    }

    fn get_locked(&self, key: Key) -> Option<Value> {
        let mut node = self.root();
        let mut d: u8 = 0;
        let mut visited = 0u32;
        loop {
            // Every level below the LLC-resident top of the trie is a
            // dependent cache miss — the serial pointer chasing that hurts
            // WORT as PM read latency grows (§5.4).
            visited += 1;
            if visited > 2 {
                self.pool.charge_serial_reads(1);
            }
            let h = self.header(node);
            let prefix = Self::effective_prefix(h, d);
            for (j, &p) in prefix.iter().enumerate() {
                if nibble(key, d + j as u8) != p {
                    return None;
                }
            }
            d += prefix.len() as u8;
            let idx = nibble(key, d);
            let slot = self.child(node, idx);
            d += 1;
            if d == 16 {
                return if slot == 0 { None } else { Some(slot) };
            }
            if slot == NULL_OFFSET {
                return None;
            }
            node = slot;
        }
    }

    /// In-order DFS collecting keys in `[lo, hi)`. `acc` holds the key bits
    /// fixed so far (aligned to the high bits).
    fn scan_node(
        &self,
        node: PmOffset,
        d: u8,
        acc: u64,
        lo: Key,
        hi: Key,
        out: &mut Vec<(Key, Value)>,
    ) {
        if d > 2 {
            self.pool.charge_serial_reads(1);
        }
        let h = self.header(node);
        let prefix = Self::effective_prefix(h, d);
        // Extend the fixed key bits with this node's compressed prefix.
        let mut acc2 = acc & Self::high_mask(d);
        for (j, &p) in prefix.iter().enumerate() {
            acc2 |= u64::from(p) << ((15 - (d + j as u8)) * 4);
        }
        let d = d + prefix.len() as u8;
        for i in 0u8..16 {
            let slot = self.child(node, i);
            if slot == 0 {
                continue;
            }
            let a = acc2 | (u64::from(i) << ((15 - d) * 4));
            if d + 1 == 16 {
                if a >= lo && a < hi {
                    out.push((a, slot));
                }
            } else {
                // Prune subtrees wholly outside the range.
                let lo_bound = a;
                let hi_bound = a | Self::low_mask(d + 1);
                if hi_bound < lo || lo_bound >= hi {
                    continue;
                }
                self.scan_node(slot, d + 1, a, lo, hi, out);
            }
        }
    }

    /// Updates an existing key's value slot with one persisted store;
    /// returns the replaced value, or `None` (tree untouched) when absent.
    fn update_locked(&self, key: Key, value: Value) -> Option<Value> {
        let mut node = self.root();
        let mut d: u8 = 0;
        let mut visited = 0u32;
        loop {
            visited += 1;
            if visited > 2 {
                self.pool.charge_serial_reads(1);
            }
            let h = self.header(node);
            let prefix = Self::effective_prefix(h, d);
            for (j, &p) in prefix.iter().enumerate() {
                if nibble(key, d + j as u8) != p {
                    return None;
                }
            }
            d += prefix.len() as u8;
            let idx = nibble(key, d);
            let slot_off = Self::child_off(node, idx);
            let slot = self.pool.load_u64(slot_off);
            d += 1;
            if d == 16 {
                if slot == 0 {
                    return None;
                }
                // Commit: a single failure-atomic 8-byte store.
                self.pool.store_u64(slot_off, value);
                self.pool.persist(slot_off, 8);
                return Some(slot);
            }
            if slot == NULL_OFFSET {
                return None;
            }
            node = slot;
        }
    }

    /// Smallest `(key, value)` with `key >= bound` in the subtree at
    /// `node`, or `None`. The in-order successor search that drives the
    /// cursor: one dependent miss per trie level, WORT's structural
    /// range-scan handicap (Fig. 4).
    fn min_ge(&self, node: PmOffset, d: u8, acc: u64, bound: Key) -> Option<(Key, Value)> {
        if d > 2 {
            self.pool.charge_serial_reads(1);
        }
        let h = self.header(node);
        let prefix = Self::effective_prefix(h, d);
        let mut acc2 = acc & Self::high_mask(d);
        for (j, &p) in prefix.iter().enumerate() {
            acc2 |= u64::from(p) << ((15 - (d + j as u8)) * 4);
        }
        let d = d + prefix.len() as u8;
        for i in 0u8..16 {
            let slot = self.child(node, i);
            if slot == 0 {
                continue;
            }
            let a = acc2 | (u64::from(i) << ((15 - d) * 4));
            if d + 1 == 16 {
                if a >= bound {
                    return Some((a, slot));
                }
            } else {
                // Skip subtrees wholly below the bound.
                if (a | Self::low_mask(d + 1)) < bound {
                    continue;
                }
                if let Some(found) = self.min_ge(slot, d + 1, a, bound) {
                    return Some(found);
                }
            }
        }
        None
    }

    /// Largest `(key, value)` with `key <= bound` in the subtree at
    /// `node`, or `None`. The in-order predecessor search behind
    /// [`Cursor::prev`]: children are probed high-to-low and any subtree
    /// whose smallest reachable key already exceeds the bound is skipped.
    fn max_le(&self, node: PmOffset, d: u8, acc: u64, bound: Key) -> Option<(Key, Value)> {
        if d > 2 {
            self.pool.charge_serial_reads(1);
        }
        let h = self.header(node);
        let prefix = Self::effective_prefix(h, d);
        let mut acc2 = acc & Self::high_mask(d);
        for (j, &p) in prefix.iter().enumerate() {
            acc2 |= u64::from(p) << ((15 - (d + j as u8)) * 4);
        }
        let d = d + prefix.len() as u8;
        for i in (0u8..16).rev() {
            let slot = self.child(node, i);
            if slot == 0 {
                continue;
            }
            let a = acc2 | (u64::from(i) << ((15 - d) * 4));
            if d + 1 == 16 {
                if a <= bound {
                    return Some((a, slot));
                }
            } else {
                // Skip subtrees wholly above the bound (`a` is the
                // subtree's smallest reachable key).
                if a > bound {
                    continue;
                }
                if let Some(found) = self.max_le(slot, d + 1, a, bound) {
                    return Some(found);
                }
            }
        }
        None
    }

    /// Mask of the key bits fixed by the first `d` nibbles.
    fn high_mask(d: u8) -> u64 {
        if d == 0 {
            0
        } else {
            !0u64 << ((16 - d) * 4)
        }
    }

    /// Mask of the key bits still free below nibble `d`.
    fn low_mask(d: u8) -> u64 {
        if d >= 16 {
            0
        } else {
            (1u64 << ((16 - d) * 4)) - 1
        }
    }
}

/// Streaming cursor over a WORT.
///
/// The trie has no sibling-linked leaves, so the cursor re-descends for
/// each entry: `next` finds the smallest key `>=` the running bound (one
/// dependent cache miss per level). This per-key pointer chase is the
/// structural reason WORT loses the paper's range-query comparison; the
/// cursor surfaces it honestly instead of hiding it behind a batch DFS.
pub struct WortCursor<'a> {
    tree: &'a Wort,
    bound: Key,
    done: bool,
    reverse: bool,
}

impl Cursor for WortCursor<'_> {
    fn seek(&mut self, target: Key) {
        self.bound = target;
        self.done = false;
        self.reverse = false;
    }

    fn next(&mut self) -> Option<(Key, Value)> {
        if self.done || self.reverse {
            return None;
        }
        let _g = self.tree.op_lock.lock();
        match self.tree.min_ge(self.tree.root(), 0, 0, self.bound) {
            Some((k, v)) => {
                match k.checked_add(1) {
                    Some(n) => self.bound = n,
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
        self.bound = target;
        self.done = false;
        self.reverse = true;
    }

    fn prev(&mut self) -> Option<(Key, Value)> {
        if !self.reverse {
            if self.bound == 0 && !self.done {
                // Bare prev() on a fresh cursor: start from the top.
                self.seek_for_prev(Key::MAX);
            } else {
                return None; // direction switches go through a re-seek
            }
        }
        if self.done {
            return None;
        }
        let _g = self.tree.op_lock.lock();
        match self.tree.max_le(self.tree.root(), 0, 0, self.bound) {
            Some((k, v)) => {
                match k.checked_sub(1) {
                    Some(n) => self.bound = n,
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

impl pmindex::PersistentIndex for Wort {
    fn create_in(pool: Arc<Pool>) -> Result<Self, IndexError> {
        Wort::create(pool)
    }
    fn open_in(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        Wort::open(pool, meta)
    }
    fn superblock(&self) -> PmOffset {
        self.meta_offset()
    }
}

impl PmIndex for Wort {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        let _g = self.op_lock.lock();
        stats::timed(stats::Phase::Update, || self.insert_locked(key, value))
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        check_value(value)?;
        let _g = self.op_lock.lock();
        Ok(stats::timed(stats::Phase::Update, || {
            self.update_locked(key, value)
        }))
    }

    fn get(&self, key: Key) -> Option<Value> {
        let _g = self.op_lock.lock();
        stats::timed(stats::Phase::Search, || self.get_locked(key))
    }

    fn remove(&self, key: Key) -> bool {
        let _g = self.op_lock.lock();
        // Descend to the value slot, recording the path for pruning.
        let mut node = self.root();
        let mut d: u8 = 0;
        // (node, slot within node the descent took)
        let mut path: Vec<(PmOffset, PmOffset)> = Vec::with_capacity(4);
        loop {
            let h = self.header(node);
            let prefix = Self::effective_prefix(h, d);
            for (j, &p) in prefix.iter().enumerate() {
                if nibble(key, d + j as u8) != p {
                    return false;
                }
            }
            d += prefix.len() as u8;
            let idx = nibble(key, d);
            let slot_off = Self::child_off(node, idx);
            let slot = self.pool.load_u64(slot_off);
            d += 1;
            if d == 16 {
                if slot == 0 {
                    return false;
                }
                // Commit: one persisted store clears the value slot.
                self.pool.store_u64(slot_off, 0);
                self.pool.persist(slot_off, 8);
                path.push((node, slot_off));
                self.prune_path(&path);
                return true;
            }
            if slot == NULL_OFFSET {
                return false;
            }
            path.push((node, slot_off));
            node = slot;
        }
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        Box::new(WortCursor {
            tree: self,
            bound: 0,
            done: false,
            reverse: false,
        })
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) {
        if lo >= hi {
            return;
        }
        // Materialized scans keep the batch DFS (shared prefix walk); the
        // streaming cursor pays a descent per key instead.
        let _g = self.op_lock.lock();
        self.scan_node(self.root(), 0, 0, lo, hi, out);
    }

    fn name(&self) -> &'static str {
        "WORT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use pmindex::workload::{generate_keys, value_for, KeyDist};
    use std::collections::BTreeMap;

    fn mk() -> (Arc<Pool>, Wort) {
        let p = Arc::new(Pool::new(PoolConfig::new().size(256 << 20)).unwrap());
        let t = Wort::create(Arc::clone(&p)).unwrap();
        (p, t)
    }

    #[test]
    fn upsert_update_and_cursor() {
        let (_p, t) = mk();
        let keys = generate_keys(3000, KeyDist::Uniform, 31);
        for &k in &keys {
            assert_eq!(t.insert(k, value_for(k)).unwrap(), None);
        }
        let probe = keys[7];
        assert_eq!(t.insert(probe, 4242).unwrap(), Some(value_for(probe)));
        assert_eq!(t.update(probe, 4243).unwrap(), Some(4242));
        assert_eq!(t.update(probe ^ 0x5a5a_5a5a, 9).unwrap(), None);
        t.insert(probe, value_for(probe)).unwrap();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut c = t.cursor();
        let mut seen = Vec::new();
        while let Some((k, v)) = c.next() {
            assert_eq!(v, value_for(k));
            seen.push(k);
        }
        assert_eq!(seen, sorted);
        c.seek(sorted[1500]);
        assert_eq!(c.next(), Some((sorted[1500], value_for(sorted[1500]))));
    }

    #[test]
    fn header_pack_roundtrip() {
        let h = Header {
            depth: 7,
            plen: 5,
            prefix: pack_prefix(&[1, 2, 3, 4, 5]),
        };
        let u = Header::unpack(h.pack());
        assert_eq!(u, h);
        assert_eq!(u.prefix_nibble(0), 1);
        assert_eq!(u.prefix_nibble(4), 5);
    }

    #[test]
    fn nibble_order_is_big_endian() {
        let k = 0x0123_4567_89ab_cdefu64;
        assert_eq!(nibble(k, 0), 0x0);
        assert_eq!(nibble(k, 1), 0x1);
        assert_eq!(nibble(k, 15), 0xf);
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
        assert_eq!(t.get(12345), None);
    }

    #[test]
    fn dense_keys_share_prefixes() {
        let (_p, t) = mk();
        for k in 1..=5000u64 {
            t.insert(k, k + 9).unwrap();
        }
        for k in 1..=5000u64 {
            assert_eq!(t.get(k), Some(k + 9), "key {k}");
        }
    }

    #[test]
    fn upsert_and_remove() {
        let (_p, t) = mk();
        t.insert(0xdeadbeef, 1).unwrap();
        t.insert(0xdeadbeef, 2).unwrap();
        assert_eq!(t.get(0xdeadbeef), Some(2));
        assert!(t.remove(0xdeadbeef));
        assert!(!t.remove(0xdeadbeef));
        assert_eq!(t.get(0xdeadbeef), None);
    }

    #[test]
    fn remove_prunes_empty_subtries_through_epoch() {
        let (_p, t) = mk();
        // Keys sharing a 48-bit prefix: each builds a compressed suffix
        // chain below one slot of a shared parent.
        let keys: Vec<u64> = (0..32u64)
            .map(|i| 0xabcd_0000_0000_0000 | (i << 20))
            .collect();
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        for &k in &keys {
            assert!(t.remove(k), "remove {k:#x}");
        }
        for &k in &keys {
            assert_eq!(t.get(k), None);
        }
        // The emptied suffix chains were unlinked and retired, not leaked.
        let d = t.epoch();
        assert!(
            d.limbo_len() > 0 || d.recycled() > 0,
            "no pruned nodes reached the epoch domain"
        );
        d.try_advance();
        d.try_advance();
        d.collect();
        assert!(d.recycled() > 0, "pruned nodes never recycled");
        // The trie stays fully usable after a complete drain and prune.
        for &k in &keys {
            t.insert(k, value_for(k) ^ 1).unwrap();
        }
        for &k in &keys {
            assert_eq!(t.get(k), Some(value_for(k) ^ 1));
        }
        let mut out = Vec::new();
        t.range(0, u64::MAX, &mut out);
        assert_eq!(out.len(), keys.len());
    }

    #[test]
    fn plain_insert_is_one_or_two_flushes() {
        // WORT's write-optimality: an insert into an existing node is a
        // single persisted 8-byte store (prefix splits and suffix chains
        // cost a couple more).
        let (_p, t) = mk();
        t.insert(0xaaaa_0001, 1).unwrap();
        t.insert(0xaaaa_0002, 2).unwrap();
        // Same parent node now exists; sibling nibble insert is minimal.
        stats::reset();
        t.insert(0xaaaa_0003, 3).unwrap();
        let s = stats::take();
        assert!(s.flushes <= 3, "flushes = {}", s.flushes);
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
        for (a, b) in [(0usize, 4999usize), (10, 300), (2000, 4000)] {
            let (lo, hi) = (sorted[a], sorted[b]);
            let mut got = Vec::new();
            t.range(lo, hi, &mut got);
            let want: Vec<_> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "range [{lo}, {hi})");
        }
    }

    #[test]
    fn full_range_sorted() {
        let (_p, t) = mk();
        let keys = generate_keys(3000, KeyDist::Uniform, 3);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let mut out = Vec::new();
        t.range(0, u64::MAX, &mut out);
        // u64::MAX itself can never be a key (reserved), so [0, MAX) is all.
        assert_eq!(out.len(), keys.len());
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn reopen_is_instant_and_complete() {
        let (p, t) = mk();
        let keys = generate_keys(5000, KeyDist::Uniform, 4);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let meta = t.meta_offset();
        drop(t);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(256 << 20)).unwrap());
        let t2 = Wort::open(Arc::clone(&p2), meta).unwrap();
        for &k in &keys {
            assert_eq!(t2.get(k), Some(value_for(k)));
        }
    }

    #[test]
    fn crash_sweep_during_inserts() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20).crash_log(true)).unwrap());
        let t = Wort::create(Arc::clone(&p)).unwrap();
        // Keys chosen to force prefix splits (shared then diverging paths).
        let preload = [0x1111_0000u64, 0x1111_00ff, 0x2222_0000];
        for &k in &preload {
            t.insert(k, value_for(k)).unwrap();
        }
        let log = p.crash_log().unwrap();
        log.set_baseline(p.volatile_image());
        let ops = [0x1111_0f00u64, 0x1111_0001, 0x3333_3333, 0x1111_00fe];
        let mut bounds = vec![0usize];
        for &k in &ops {
            t.insert(k, value_for(k)).unwrap();
            bounds.push(log.len());
        }
        let meta = t.meta_offset();
        for cut in 0..=log.len() {
            for policy in [
                pmem::crash::Eviction::None,
                pmem::crash::Eviction::All,
                pmem::crash::Eviction::Random(cut as u64),
            ] {
                let img = p.crash_image(cut, policy.clone());
                let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(4 << 20)).unwrap());
                let t2 = Wort::open(Arc::clone(&p2), meta).unwrap();
                // Committed keys always visible.
                for &k in &preload {
                    assert_eq!(
                        t2.get(k),
                        Some(value_for(k)),
                        "cut {cut} {policy:?}: preload key {k:#x} lost"
                    );
                }
                let done = bounds.partition_point(|&b| b <= cut) - 1;
                for &k in &ops[..done] {
                    assert_eq!(
                        t2.get(k),
                        Some(value_for(k)),
                        "cut {cut} {policy:?}: committed key {k:#x} lost"
                    );
                }
                // In-flight op is atomic.
                if done < ops.len() {
                    match t2.get(ops[done]) {
                        None => {}
                        Some(v) => assert_eq!(v, value_for(ops[done])),
                    }
                }
                // Writers repair stale headers: post-crash inserts work.
                t2.insert(0x4444_4444, 42).unwrap();
                assert_eq!(t2.get(0x4444_4444), Some(42));
                for &k in &preload {
                    assert_eq!(t2.get(k), Some(value_for(k)));
                }
            }
        }
    }

    #[test]
    fn adjacent_keys_and_extremes() {
        let (_p, t) = mk();
        for k in [
            1u64,
            2,
            3,
            u64::MAX - 2,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) + 1,
        ] {
            t.insert(k, value_for(k)).unwrap();
        }
        for k in [
            1u64,
            2,
            3,
            u64::MAX - 2,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) + 1,
        ] {
            assert_eq!(t.get(k), Some(value_for(k)), "key {k:#x}");
        }
    }
}

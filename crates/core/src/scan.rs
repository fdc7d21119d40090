//! Streaming range scans over the leaf chain: the lock-free [`TreeCursor`].
//!
//! The cursor is the FAST+FAIR instantiation of the shared
//! [`pmindex::chain::LeafChainCursor`]: the drain loop, lower-bound
//! filter and split-duplicate monotonicity filter live in `pmindex`; this
//! module supplies only the per-leaf hook. Three tolerance rules come
//! from the paper:
//!
//! * an in-flight FAST shift is detected by the leaf's switch counter: the
//!   per-leaf read retries until it observes a quiescent direction, so a
//!   torn view of a shifting node is never emitted;
//! * a key may appear twice when the scan crosses a half-finished FAIR
//!   split — the node and its fresh sibling form a "virtual single node"
//!   with a duplicated upper half (Fig. 2). The shared monotonicity filter
//!   drops the duplicates, exactly as the paper describes ("the order of
//!   keys is incorrect when reaching node B");
//! * a leaf may be revisited via an old sibling pointer after a concurrent
//!   split; the same filter handles it.
//!
//! The sibling pointer is read *after* the leaf's entries so that a split
//! racing with the read cannot hide the moved upper half: either the
//! entries still contain it, or the freshly linked sibling does.

use pmem::{PmOffset, NULL_OFFSET};
use pmindex::chain::{LeafChain, LeafChainCursor};
use pmindex::{Cursor, Key, Value};

use crate::lock::ReadGuard;
use crate::search::read_entries;
use crate::tree::FastFairTree;

/// The per-leaf read hook: lock-free leaf snapshot (taking the leaf read
/// latch only in the `FAST+FAIR+LeafLock` variant), sibling read after
/// the entries, pointer-chase latency charged per hop.
///
/// The epoch guard pins the cursor's whole lifetime: the cursor saves the
/// next leaf's offset between [`Cursor::next`] calls, and the pin is what
/// keeps a concurrently merged-away (retired) leaf from being recycled —
/// and its block reused — under the cursor's feet. The cost is that a
/// long-lived cursor stalls reclamation, never correctness.
struct TreeChain<'a> {
    tree: &'a FastFairTree,
    pin: epoch::Guard<'a>,
}

impl LeafChain for TreeChain<'_> {
    type Leaf = PmOffset;

    fn locate(&self, target: Key) -> PmOffset {
        let (mut off, directed) = self.tree.locate_leaf(target, &self.pin);
        // To the covering leaf before anything is read: a reverse scan
        // reads this one leaf and has no later chance to move right.
        let mut hops = 0;
        while let Some(sib) = self.tree.node(off).right_of(target) {
            off = self.tree.visit(sib, 0).offset();
            hops += 1;
        }
        self.tree.settle(directed, hops);
        off
    }

    fn first(&self) -> PmOffset {
        self.tree.leftmost_leaf()
    }

    fn read(&self, off: PmOffset, buf: &mut Vec<(Key, Value)>) -> Option<PmOffset> {
        let leaf = self.tree.node(off);
        let entries = if self.tree.options().leaf_locks {
            let _g = ReadGuard::lock(self.tree.latch(off));
            read_entries(self.tree, leaf)
        } else {
            read_entries(self.tree, leaf)
        };
        buf.extend(entries);
        // Read the sibling only after the entries (see module docs).
        let sib = leaf.sibling();
        if sib == NULL_OFFSET {
            None
        } else {
            Some(self.tree.visit(sib, 0).offset())
        }
    }

    /// The leaf's high key and sibling, read after its entries (Algorithm
    /// 3's sibling rule): a split links the sibling and lowers the high key
    /// before it truncates, so entries that miss the moved-out half come
    /// with a bound that sends the scan right. An unlinked leaf covers
    /// nothing: its range went to its left neighbour.
    fn covers(&self, off: PmOffset, _next: Option<PmOffset>, key: Key) -> bool {
        let leaf = self.tree.node(off);
        !leaf.is_deleted() && leaf.right_of(key).is_none()
    }
}

/// A streaming, lock-free cursor over a [`FastFairTree`].
///
/// Created by [`pmindex::PmIndex::cursor`] (or [`TreeCursor::new`])
/// positioned before the smallest key; [`Cursor::seek`] repositions it in
/// O(height), or in one hop through the leaf directory.
/// Holds no locks between calls (unless the tree runs in the
/// `FAST+FAIR+LeafLock` variant, where each per-leaf read takes the leaf's
/// read latch for its duration only).
pub struct TreeCursor<'a>(LeafChainCursor<TreeChain<'a>>);

impl<'a> TreeCursor<'a> {
    /// Opens a cursor positioned before the smallest key.
    pub fn new(tree: &'a FastFairTree) -> Self {
        TreeCursor(LeafChainCursor::new(TreeChain {
            tree,
            pin: tree.epoch().pin(),
        }))
    }
}

impl Cursor for TreeCursor<'_> {
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

/// Appends all `(key, value)` with `lo <= key < hi` to `out`, ascending —
/// the materialized convenience path, driven by a [`TreeCursor`].
pub(crate) fn tree_range(tree: &FastFairTree, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) {
    if lo >= hi {
        return;
    }
    let mut c = TreeCursor::new(tree);
    c.seek(lo);
    while let Some((k, v)) = c.next() {
        if k >= hi {
            return;
        }
        out.push((k, v));
    }
}

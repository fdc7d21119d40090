//! FAIR-style node merging: reclaiming empty leaves.
//!
//! §4.2 of the paper sketches the merge half of lazy recovery: "we check
//! if the sibling node can be merged with its left node". Like every FAIR
//! step, unlinking an empty leaf is a sequence of independently tolerable
//! 8-byte commits:
//!
//! 1. delete the parent's routing entry (a FAST delete in the parent —
//!    itself a single-pointer commit; repeated if the node has more than
//!    one). Keys that routed to the empty node
//!    now route to its left neighbour and, if needed, pass *through* the
//!    empty node via the sibling chain, so every intermediate state is
//!    readable;
//! 2. raise the left neighbour's high key to the node's, then bypass the
//!    node in the leaf chain: `left.sibling = node.sibling` — two stores
//!    in `left`'s header line, one persist, the bypass the commit;
//! 3. mark the node logically deleted so writers blocked on its latch
//!    retraverse.
//!
//! A crash between any two steps leaves an empty node that readers pass
//! through naturally. Before the raise it still bounds its own range, so
//! a writer may put a key back into it and re-attach it to the parent;
//! after the raise its left neighbour covers that range, and `recover`
//! completes the bypass. The unlinked node is *retired* rather than freed
//! on the spot: lock-free readers may still be traversing it, so its block
//! goes onto the tree's epoch-domain limbo list (`crates/epoch`) and
//! returns to [`pmem::Pool::free`] once two epochs have passed —
//! **online**, while traffic is live, counted in `pmem::stats` (`nodes_limbo`,
//! `nodes_recycled_online`). [`FastFairTree::recover`] and `Drop` (both
//! quiescent) flush whatever is still in limbo. Limbo does not survive a
//! crash — pre-crash retirees leak, matching PM allocators without
//! offline GC — and a node is either on a chain or in limbo, never both,
//! so the crash-recovery sweep can never double-free.

use pmem::{PmOffset, NULL_OFFSET};
use pmindex::Key;

use crate::layout::NodeRef;
use crate::lock::WriteGuard;
use crate::tree::FastFairTree;

impl FastFairTree {
    /// Attempts to unlink the empty leaf at `node_off`; `probe_key` is any
    /// key that routed to it (the key the caller just deleted). Bails out
    /// silently whenever the precise preconditions no longer hold — the
    /// next delete (or `recover`) will try again.
    pub(crate) fn try_unlink_empty_leaf(&self, node_off: PmOffset, probe_key: Key) {
        if self.height() == 0 {
            return; // the root leaf is never unlinked
        }
        // Find the parent the same way a writer would.
        let Some(parent_off) = self.descend_to_parent(probe_key) else {
            return;
        };
        let mut parent_guard = WriteGuard::lock(self.latch(parent_off));
        let parent = self.node(parent_off);
        if parent.is_deleted() || parent.level() != 1 {
            return; // tree changed shape under us; give up quietly
        }
        crate::delete::repair_once(self, parent, &mut parent_guard);
        // Locate the routing entries for the node and its left neighbour.
        let routes: Vec<u16> = parent
            .records()
            .filter(|r| !r.residue && r.ptr == node_off)
            .map(|r| r.slot)
            .collect();
        let Some(&s) = routes.first() else {
            return; // not routed from this parent (moved right, or leftmost child)
        };
        let left_off = parent.left_ptr(s);
        if left_off == NULL_OFFSET || left_off == crate::layout::LEAF_ANCHOR {
            return;
        }
        // A second route to the node, left of `s`, would latch it twice.
        debug_assert_ne!(left_off, node_off, "node routed twice");

        // Lock left-to-right, as all writers do.
        let left_guard = WriteGuard::lock(self.latch(left_off));
        let node_guard = WriteGuard::lock(self.latch(node_off));
        let left = self.node(left_off);
        let node = self.node(node_off);
        // Re-verify every precondition under the locks.
        if node.is_deleted()
            || left.is_deleted()
            || left.sibling() != node_off
            || node.first_key().is_some()
        {
            return;
        }

        // Step 1: remove the parent's routing entries for the node (FAST
        // deletes in place — we already hold the parent lock). A parent
        // update never adds a second (it stops at the child's separator or
        // at the child as leftmost); should one exist, none may outlive the
        // unlink and route into a retired block.
        // Right to left, so a delete shifts no route still to go.
        for &i in routes.iter().rev() {
            let pcnt = parent.count_records();
            crate::delete::enter_delete_direction(self, parent, pcnt);
            parent.set_ptr(i, crate::layout::INVALID_PTR);
            self.pool.fence_if_not_tso();
            crate::delete::shift_left_from(parent, i, pcnt);
        }

        // Steps 2 and 3.
        self.bypass(left, node);

        node_guard.unlock();
        left_guard.unlock();
        parent_guard.unlock();

        // The node is unreachable for new traversals; queue its block for
        // recycling once the tree is quiescent.
        self.retire_node(node_off);
    }

    /// Takes the empty `node` out of the chain after `left` (both latched,
    /// or the tree quiescent) and marks it deleted. `left`'s high key rises
    /// to `node`'s before the bypass hands it that range; both stores share
    /// `left`'s header line and its one persist.
    pub(crate) fn bypass(&self, left: NodeRef<'_>, node: NodeRef<'_>) {
        left.set_high_key(node.high_key());
        self.pool.fence_if_not_tso();
        left.set_sibling(node.sibling());
        left.persist_header();
        node.mark_deleted();
    }

    /// Lock-free descent to the level-1 node covering `key` (the parent
    /// level of the leaves). Returns `None` on a single-leaf tree.
    fn descend_to_parent(&self, key: Key) -> Option<PmOffset> {
        let mut off = self.descend_to_level(1, key)?;
        // Move right at level 1 if the key now belongs to a sibling.
        while let Some(sib) = self.node(off).right_of(key) {
            off = self.visit(sib, 1).offset();
        }
        Some(off)
    }

    /// Collapses trivial roots (an internal root with no records routes
    /// everything through its leftmost child). Called from `recover`.
    pub(crate) fn shrink_root(&self) -> usize {
        let mut shrunk = 0;
        loop {
            let root = self.node(self.root());
            if root.is_leaf() || root.count_records() != 0 || root.sibling() != NULL_OFFSET {
                return shrunk;
            }
            let child = root.leftmost();
            self.root_cell().publish(&self.pool, child);
            shrunk += 1;
        }
    }
}

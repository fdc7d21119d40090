//! Bottom-up sorted bulk loading.
//!
//! [`FastFairTree::bulk_load_sorted`] builds a tree from an ascending key
//! stream at layout level: leaves are packed record-by-record with plain
//! stores and persisted **once** (one `clflush` per cache line — the
//! minimum the hardware allows), siblings are linked as they are built —
//! each node's high key is the next node's fence key — and each upper
//! level is assembled from the fence keys (first key) of the level below,
//! exactly like an offline B+-tree build. Each level's nodes are
//! persisted together once the level is linked, by
//! [`pmem::Pool::persist_blocks`], which splits a large level across the
//! calling thread and one helper (a crash-logged pool persists them in
//! order on the caller). Nothing is reachable until the very end, so the
//! only commit point is the single persisted 8-byte store of the root
//! pointer into the superblock — a crash at any earlier instant leaves the
//! old (empty) tree intact and merely leaks the half-built nodes, the
//! standard PM-allocator trade-off this repository documents on
//! [`pmem::Pool::free`].
//!
//! Robustness over raw speed at the edges: items that arrive out of order
//! or duplicate an already-packed key are set aside and inserted through
//! the ordinary FAST write path after the build, so the builder never
//! produces an unsorted node.

use pmem::{PmOffset, NULL_OFFSET};
use pmindex::{IndexError, Key, Value};

use crate::tree::FastFairTree;

/// One finished node of the level currently being built: its fence key
/// (smallest key of its subtree) and its offset.
type Fence = (Key, PmOffset);

/// Incremental builder for one sibling-linked level.
///
/// Nodes are persisted once the whole level is linked, with one
/// [`pmem::Pool::persist_blocks`] call: every node costs exactly one
/// persist (one flush per cache line plus one fence), and no node is
/// written after it.
struct LevelBuilder<'a> {
    tree: &'a FastFairTree,
    level: u32,
    /// Node being filled (offset, fence key, records so far).
    open: Option<(PmOffset, Key, u16)>,
    /// The level's closed nodes, in sibling order; the last one awaits
    /// its sibling link.
    fences: Vec<Fence>,
}

impl<'a> LevelBuilder<'a> {
    fn new(tree: &'a FastFairTree, level: u32) -> Self {
        LevelBuilder {
            tree,
            level,
            open: None,
            fences: Vec::new(),
        }
    }

    /// Appends one record; internal levels receive the level below's fences
    /// (the first of each node batch becomes the `leftmost` child).
    fn push(&mut self, key: Key, ptr: u64) -> Result<(), IndexError> {
        let cap = self.tree.node_capacity();
        let (off, slot) = match self.open {
            Some((off, _, ref mut n)) if *n < cap => {
                let s = *n;
                *n += 1;
                (off, s)
            }
            _ => {
                self.finish_open();
                let off = self
                    .tree
                    .pool()
                    .alloc(u64::from(self.tree.node_size()), 64)?;
                let node = self.tree.node(off);
                node.init(self.level);
                if self.level > 0 {
                    // The batch's first child routes everything below the
                    // first separator key.
                    node.set_leftmost(ptr);
                    self.open = Some((off, key, 0));
                    return Ok(());
                }
                self.open = Some((off, key, 1));
                (off, 0)
            }
        };
        let node = self.tree.node(off);
        node.set_key(slot, key);
        node.set_ptr(slot, ptr);
        Ok(())
    }

    /// Closes the node being filled and links the previous node to it:
    /// its fence key is the previous node's high key.
    fn finish_open(&mut self) {
        if let Some((off, fence, _)) = self.open.take() {
            if let Some(&(_, prev)) = self.fences.last() {
                let p = self.tree.node(prev);
                p.set_sibling(off);
                p.set_high_key(fence);
            }
            self.fences.push((fence, off));
        }
    }

    /// Persists the whole finished chain and returns this level's fences.
    fn finish(mut self) -> Vec<Fence> {
        self.finish_open();
        let nodes: Vec<PmOffset> = self.fences.iter().map(|&(_, off)| off).collect();
        self.tree
            .pool()
            .persist_blocks(&nodes, u64::from(self.tree.node_size()));
        self.fences
    }
}

impl FastFairTree {
    /// Bottom-up bulk load from an ascending `(key, value)` stream.
    ///
    /// Packs full leaves directly in the persistent layout (one flush per
    /// cache line), builds the internal levels from the leaf fences, and
    /// publishes the finished tree with a single persisted 8-byte root
    /// store — the only commit point, so a crash mid-load recovers to the
    /// previous (empty) tree. Returns the number of new keys.
    ///
    /// Falls back to the ordinary insert path when the tree already holds
    /// data; out-of-order or duplicate items are likewise routed through
    /// normal inserts after the build. Requires exclusive access — the
    /// handle takes `&self` for [`pmindex::PmIndex`] uniformity, but no
    /// concurrent reader or writer may observe the root swap.
    ///
    /// # Errors
    ///
    /// [`IndexError::ReservedValue`] for values 0 / `u64::MAX` (the tree is
    /// left unchanged when the offending item precedes the publish point);
    /// [`IndexError::PoolExhausted`] when the pool cannot hold the nodes.
    pub fn bulk_load_sorted(
        &self,
        items: &mut dyn Iterator<Item = (Key, Value)>,
    ) -> Result<usize, IndexError> {
        let pin = self.epoch.pin();
        if self.height() != 0 || !leaf_chain_is_empty(self) {
            // Non-empty tree: bulk-loading bottom-up would have to merge
            // with existing leaves; route through the normal write path.
            let mut fresh = 0;
            for (k, v) in items {
                pmindex::check_value(v)?;
                if crate::insert::tree_insert(self, k, v, &pin)?.is_none() {
                    fresh += 1;
                }
            }
            return Ok(fresh);
        }

        let mut leaves = LevelBuilder::new(self, 0);
        let mut stragglers: Vec<(Key, Value)> = Vec::new();
        let mut last: Option<Key> = None;
        let mut packed = 0usize;
        for (k, v) in items {
            pmindex::check_value(v)?;
            if last.is_some_and(|l| k <= l) {
                stragglers.push((k, v));
                continue;
            }
            last = Some(k);
            leaves.push(k, v)?;
            packed += 1;
        }
        let mut fences = leaves.finish();

        if !fences.is_empty() {
            // Build internal levels until one node spans everything.
            let mut level = 1u32;
            while fences.len() > 1 {
                let mut upper = LevelBuilder::new(self, level);
                for (k, child) in fences {
                    upper.push(k, child)?;
                }
                fences = upper.finish();
                level += 1;
            }
            // Commit: publish the new root. The old root leaf becomes
            // garbage; a concurrent lock-free reader could still be
            // standing on it, so it is retired through the epoch domain
            // rather than freed on the spot.
            let old_root = self.root();
            self.root_cell().publish(&self.pool, fences[0].1);
            self.retire_node(old_root);
        }

        let mut fresh = packed;
        for (k, v) in stragglers {
            if crate::insert::tree_insert(self, k, v, &pin)?.is_none() {
                fresh += 1;
            }
        }
        Ok(fresh)
    }
}

/// True when no leaf on the chain holds a live key (cheaper than boxing a
/// cursor through the trait method).
fn leaf_chain_is_empty(tree: &FastFairTree) -> bool {
    let mut off = tree.leftmost_leaf();
    while off != NULL_OFFSET {
        let leaf = tree.node(off);
        if leaf.first_key().is_some() {
            return false;
        }
        off = leaf.sibling();
    }
    true
}

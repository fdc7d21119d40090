//! FAIR — Failure-Atomic In-place Rebalance (Algorithm 2) — plus the legacy
//! logging split used by the `FAST+Logging` baseline, root growth and the
//! lazy parent-update repair.
//!
//! A FAIR split never logs and never copies-on-write. Its persist points
//! are ordered so every crash state is readable:
//!
//! 1. build the sibling off-line, with the node's high key, and flush it
//!    (invisible until linked);
//! 2. link it: `node.sibling_ptr = sibling`, then lower `node.high_key` to
//!    the separator — two stores in the header line, one persist. Node and
//!    sibling now form a "virtual single node" whose upper half appears
//!    twice; readers tolerate the duplication (Fig. 2 state (2)). A crash
//!    between the two stores leaves the high key unlowered, which the next
//!    writer's repair completes;
//! 3. truncate: `node.records[median].ptr = NULL` — one persisted 8-byte
//!    store moves the upper half to the sibling atomically;
//! 4. insert the separator into the parent with FAST, re-traversing from
//!    the root. A crash before step 4 leaves a *dangling sibling* that any
//!    later descending writer repairs (§4.2).

use pmem::{CommitCell, PmOffset, NULL_OFFSET};
use pmindex::{IndexError, Key, Value};

use crate::insert::{fast_insert_locked, insert_entry};
use crate::layout::NodeRef;
use crate::lock::WriteGuard;
use crate::tree::{FastFairTree, SplitStrategy, LOG_AREA, META_LOG_HEAD};

/// A freshly linked right sibling: its offset, the separator key, and its
/// latch — taken before the link made it reachable.
struct Sibling<'a> {
    off: PmOffset,
    split_key: Key,
    guard: WriteGuard<'a>,
}

/// Builds and links the right sibling of a full, locked, repaired `node`.
///
/// Shared by the FAIR and logging strategies — they differ only in how the
/// steps are made failure-atomic (`ordered_persists` toggles the per-step
/// flushes).
fn build_and_link_sibling<'a>(
    tree: &'a FastFairTree,
    node: NodeRef<'_>,
    ordered_persists: bool,
) -> Result<Sibling<'a>, IndexError> {
    let pool = &tree.pool;
    let cnt = node.count_records();
    debug_assert_eq!(cnt, tree.cap);
    let median = cnt / 2;
    let level = node.level();
    let split_key = node.key(median);

    let sib_off = pool.alloc(u64::from(tree.node_size), 64)?;
    let sib = tree.node(sib_off);
    sib.init(level);
    // Descending writers reach the sibling only through `node`'s latch,
    // but a lock-free reader can find a key in it the moment it is linked
    // and leave a leaf hint, and a hinted writer latches that leaf
    // directly: hold the sibling's latch until the pending insert is in.
    let guard = WriteGuard::lock(tree.latch(sib_off));
    if level == 0 {
        let mut j = 0u16;
        for i in median..cnt {
            sib.set_key(j, node.key(i));
            sib.set_ptr(j, node.ptr(i));
            j += 1;
        }
        sib.set_count_hint(j);
    } else {
        // The median key is pushed up; its child becomes the sibling's
        // leftmost child.
        sib.set_leftmost(node.ptr(median));
        let mut j = 0u16;
        for i in median + 1..cnt {
            sib.set_key(j, node.key(i));
            sib.set_ptr(j, node.ptr(i));
            j += 1;
        }
        sib.set_count_hint(j);
    }
    sib.set_sibling(node.sibling());
    sib.set_high_key(node.high_key());
    if ordered_persists {
        // Sibling must be durable before it becomes reachable.
        pool.persist(sib_off, u64::from(tree.node_size));
    }

    // The truncation strands the moved-out upper half above the new
    // terminator, which is where a right-to-left reader starts: a node left
    // in delete direction would show a reader that arrives late — every
    // directed one — stale copies of keys that now live, and change, in the
    // sibling. Left-to-right readers stop at the terminator. A full node is
    // odd after a crash that cut a delete between its counter bump (header
    // line, persisted) and its poison store (record line, lost): repair
    // finds no residue and the next insert splits it here. The counter
    // shares the header line with the sibling pointer, so Step 2's persist
    // carries it.
    let sc = node.switch_counter();
    if sc % 2 == 1 {
        node.set_switch_counter(sc + 1);
    }

    // Step 2: visibility point, then the node's new bound. The pointer
    // goes first: a reader that sees the lowered high key must also see
    // the sibling that covers the keys above it.
    node.set_sibling(sib_off);
    pool.fence_if_not_tso();
    node.set_high_key(split_key);
    if ordered_persists {
        node.persist_header();
    }

    // Step 3: truncation — one atomic store moves the upper half out.
    node.set_ptr(median, NULL_OFFSET);
    if ordered_persists {
        pool.persist(node.ptr_off(median), 8);
    }
    node.set_count_hint(median);
    Ok(Sibling {
        off: sib_off,
        split_key,
        guard,
    })
}

/// Inserts the pending record into the correct half and releases both
/// halves, left to right like every other writer.
fn insert_pending_and_unlock(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    guard: WriteGuard<'_>,
    sibling: Sibling<'_>,
    key: Key,
    value: Value,
) {
    if key < sibling.split_key {
        fast_insert_locked(tree, node, key, value, node.count_records());
    } else {
        let sib = tree.node(sibling.off);
        fast_insert_locked(tree, sib, key, value, sib.count_records());
    }
    guard.unlock();
    sibling.guard.unlock();
}

/// FAIR split (Algorithm 2): splits the locked full `node` and inserts
/// `(key, value)`, then updates the parent by re-traversing from the root.
pub(crate) fn fair_split_insert(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    guard: WriteGuard<'_>,
    key: Key,
    value: Value,
) -> Result<(), IndexError> {
    let level = node.level();
    let sibling = build_and_link_sibling(tree, node, true)?;
    let (sib_off, split_key) = (sibling.off, sibling.split_key);
    insert_pending_and_unlock(tree, node, guard, sibling, key, value);
    insert_entry(tree, level + 1, split_key, sib_off)
}

/// Legacy logging split — the `FAST+Logging` baseline of Fig. 5(a)/(c).
///
/// Before modifying the node it writes an undo image (node-size bytes plus
/// a target tag) to the tree's undo area, which follows its superblock,
/// and persists a log-valid marker;
/// the split itself then needs no careful store ordering. The extra
/// `node_size/64 + 2` flushes are the 7–18 % overhead the paper measures.
pub(crate) fn logging_split_insert(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    guard: WriteGuard<'_>,
    key: Key,
    value: Value,
) -> Result<(), IndexError> {
    let pool = &tree.pool;
    let level = node.level();
    let node_off = node.offset();

    // One log buffer per tree, serialized by the superblock latch.
    let meta_guard = WriteGuard::lock(&tree.meta_latch);
    let area = tree.meta + LOG_AREA;
    pool.store_u64(area, node_off);
    let words = u64::from(tree.node_size) / 8;
    for w in 0..words {
        pool.store_u64(area + 8 + w * 8, pool.load_u64(node_off + w * 8));
    }
    pool.persist(area, 8 + u64::from(tree.node_size));
    CommitCell::at(tree.meta + META_LOG_HEAD).publish(pool, node_off);

    // Guarded by the undo log, the split needs no ordered persists.
    // (On allocation failure the log head must be rolled back before the
    // error propagates.)
    let sibling = match build_and_link_sibling(tree, node, false) {
        Ok(sibling) => sibling,
        Err(e) => {
            CommitCell::at(tree.meta + META_LOG_HEAD).publish(pool, 0);
            return Err(e);
        }
    };
    let (sib_off, split_key) = (sibling.off, sibling.split_key);
    pool.persist(sib_off, u64::from(tree.node_size));
    pool.persist(node_off, u64::from(tree.node_size));

    CommitCell::at(tree.meta + META_LOG_HEAD).publish(pool, 0);
    meta_guard.unlock();

    insert_pending_and_unlock(tree, node, guard, sibling, key, value);
    insert_entry(tree, level + 1, split_key, sib_off)
}

/// Creates a new root at `new_level` with the current root as leftmost
/// child and `(key, right)` as its single record. Racing growers are
/// serialized by the superblock latch; the loser re-routes through the
/// normal insert path.
pub(crate) fn grow_root(
    tree: &FastFairTree,
    new_level: u32,
    key: Key,
    right: PmOffset,
) -> Result<(), IndexError> {
    let pool = &tree.pool;
    let meta_guard = WriteGuard::lock(&tree.meta_latch);
    let root_off = tree.root();
    let root = tree.node(root_off);
    if root.level() >= new_level {
        // Another thread grew the tree first; take the ordinary path.
        meta_guard.unlock();
        return insert_entry(tree, new_level, key, right);
    }
    debug_assert_eq!(root.level() + 1, new_level);
    let nr_off = pool.alloc(u64::from(tree.node_size), 64)?;
    let nr = tree.node(nr_off);
    nr.init(new_level);
    nr.set_leftmost(root_off);
    nr.set_key(0, key);
    nr.set_ptr(0, right);
    nr.set_count_hint(1);
    pool.persist(nr_off, u64::from(tree.node_size));
    tree.root_cell().publish(pool, nr_off);
    Ok(())
}

/// Lazy dangling-sibling repair (§4.2): called when a descending writer,
/// or `recover`, reached `node_off` through a sibling pointer whose node
/// has high key `low` — the lower bound of `node_off`, and so its
/// separator. Ensures the parent level routes `low` to this node; no-op
/// when it already does (only one of the racing writers succeeds, "the
/// rest find that the parent has already been updated"). Only a crash
/// between a split's truncation and its parent update leaves a sibling
/// that needs it: every parent update lands in the node whose range holds
/// its separator.
pub(crate) fn ensure_parent_entry(
    tree: &FastFairTree,
    node_off: PmOffset,
    low: Key,
    parent_level: u32,
) -> Result<(), IndexError> {
    if tree.height() < parent_level {
        return grow_root(tree, parent_level, low, node_off);
    }
    insert_entry(tree, parent_level, low, node_off)
}

impl FastFairTree {
    /// Rolls back a half-finished logging split on open. FAIR trees keep
    /// the log head at zero, so this is a no-op for them.
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the head names no node inside the
    /// pool, the tree is not a logging tree, or its undo area holds the
    /// image of another node than the head names — a corrupt word the
    /// rollback would otherwise follow.
    pub(crate) fn undo_log_rollback(&self) -> Result<(), IndexError> {
        let pool = &self.pool;
        let len = u64::from(self.node_size);
        let Some(head) = CommitCell::at(self.meta + META_LOG_HEAD).target(pool, len)? else {
            return Ok(());
        };
        // `open` checked that a logging tree's area is inside the pool.
        let area = self.meta + LOG_AREA;
        if self.opts.split != SplitStrategy::Logging
            || pool.load_u64(area) != head
            || !head.is_multiple_of(64)
        {
            return Err(IndexError::Unsupported(format!(
                "tree superblock at offset {:#x}: undo-log head {head:#x} has no undo image",
                self.meta
            )));
        }
        for w in 0..len / 8 {
            pool.store_u64(head + w * 8, pool.load_u64(area + 8 + w * 8));
        }
        pool.persist(head, len);
        CommitCell::at(self.meta + META_LOG_HEAD).publish(pool, 0);
        Ok(())
    }
}

//! FAST insertion (Algorithm 1) and the shared write-path entry point.
//!
//! The FAST shift inserts a `(key, ptr)` record into the middle of a sorted
//! node by moving records one slot to the right in dependent 8-byte stores,
//! **poisoning each destination slot before rewriting it**:
//!
//! * storing [`INVALID_PTR`] into the destination slot makes it invalid to
//!   readers with one atomic write, while the original record stays valid
//!   in its old slot;
//! * the key is then written into the poisoned slot, and the final store
//!   of the pointer is the commit: one atomic 8-byte write that validates
//!   the complete record without ever exposing a torn one (the paper's
//!   pointer-duplication variant of this protocol is exact only for unique
//!   pointer values — see the deviation note in `layout`);
//! * cache lines are flushed in shift order whenever the shift crosses a
//!   line boundary, so the persist order matches the store order.
//!
//! Under TSO the `fence_if_not_tso` calls compile to nothing; on non-TSO
//! hardware they become `dmb` barriers (Fig. 5(d)).

use epoch::Guard;
use pmem::{stats, NULL_OFFSET};
use pmindex::{IndexError, Key, Value};

use crate::layout::{NodeRef, INVALID_PTR};
use crate::lock::WriteGuard;
use crate::tree::{FastFairTree, SplitStrategy};

/// Public write path: upserts `key → value` at the leaf level, returning
/// the replaced value for the [`pmindex::PmIndex::insert`] contract. `pin`
/// is the operation's pin of the tree's epoch domain.
pub(crate) fn tree_insert(
    tree: &FastFairTree,
    key: Key,
    value: Value,
    pin: &Guard,
) -> Result<Option<Value>, IndexError> {
    write_entry(tree, 0, key, value, WriteMode::Upsert, Some(pin))
}

/// Public update path: replaces the value of an *existing* key with one
/// failure-atomic 8-byte store; leaves the tree untouched when the key is
/// absent.
pub(crate) fn tree_update(
    tree: &FastFairTree,
    key: Key,
    value: Value,
    pin: &Guard,
) -> Result<Option<Value>, IndexError> {
    write_entry(tree, 0, key, value, WriteMode::UpdateOnly, Some(pin))
}

/// Inserts an entry at an arbitrary tree level (FAIR parent updates).
pub(crate) fn insert_entry(
    tree: &FastFairTree,
    level: u32,
    key: Key,
    value: Value,
) -> Result<(), IndexError> {
    write_entry(tree, level, key, value, WriteMode::Upsert, None).map(|_| ())
}

/// How [`write_entry`] treats a missing key.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WriteMode {
    /// Insert when absent, overwrite in place when present.
    Upsert,
    /// Overwrite in place when present; no-op when absent.
    UpdateOnly,
}

/// The shared write path at an arbitrary tree level; returns the replaced
/// value when the key already existed.
///
/// Level 0 means the leaf level; higher levels are used by FAIR parent
/// updates, where an existing separator or leftmost child means another
/// thread (or a pre-crash writer) finished the update first — the
/// idempotence §4.2 relies on: a child's separator is its lower bound.
/// A leaf-level write passes its `pin` and makes its first attempt from
/// the leaf [`FastFairTree::locate_leaf`] names; every retry, and every
/// write above the leaves, descends.
fn write_entry(
    tree: &FastFairTree,
    level: u32,
    key: Key,
    value: Value,
    mode: WriteMode,
    mut pin: Option<&Guard>,
) -> Result<Option<Value>, IndexError> {
    'retry: loop {
        // Phase 1: lock-free arrival at the target level. `directed` says
        // the leaf directory, not a descent, chose the node.
        let (found, directed) = stats::timed(stats::Phase::Search, || match pin.take() {
            Some(pin) => {
                let (off, directed) = tree.locate_leaf(key, pin);
                (Some(off), directed)
            }
            None => (tree.descend_to_level(level, key), false),
        });
        let Some(off) = found else {
            // The tree is shorter than `level`: the split node was the
            // root, so grow the tree (Algorithm 2's implicit case).
            // Unreachable at level 0 (a leaf always exists), so the
            // update-only mode never grows the tree.
            debug_assert!(level > 0);
            crate::split::grow_root(tree, level, key, value)?;
            return Ok(None);
        };

        // Phase 2: lock, repair leftovers, move right as needed.
        let mut guard = WriteGuard::lock(tree.latch(off));
        let mut node = tree.node(off);
        // The last node reached through a sibling pointer, with its lower
        // bound: the high key of the node the writer moved right from.
        let mut redirected = None;
        let mut hops = 0;
        loop {
            if node.is_deleted() {
                guard.unlock();
                if directed {
                    tree.regret_directory(1);
                }
                continue 'retry;
            }
            // Lazy recovery (§4.2): only writers repair tolerable
            // inconsistency, and the node's first writer since `open`
            // does it before using the node.
            crate::delete::repair_once(tree, node, &mut guard);
            match node.right_of(key) {
                Some(sib) => {
                    // Hand-over-hand to the right (B-link).
                    let right = tree.visit(sib, level);
                    let next = WriteGuard::lock(tree.latch(right.offset()));
                    redirected = Some((sib, node.high_key()));
                    guard.unlock();
                    guard = next;
                    node = right;
                    hops += 1;
                }
                None => break,
            }
        }

        // Phase 3: the actual modification.
        let replaced = if let Some(slot) = find_valid_slot(node, key) {
            let old = if level == 0 {
                overwrite_in_place(tree, node, slot, value)
            } else {
                // At internal levels an existing key means the parent
                // update already happened; nothing to do.
                node.ptr(slot)
            };
            guard.unlock();
            Some(old)
        } else if mode == WriteMode::UpdateOnly {
            // Update-only contract: absent key, leave the node untouched.
            guard.unlock();
            None
        } else if level > 0 && (node.leftmost() == value || tree.node(value).is_deleted()) {
            // The child is already routed, as this node's leftmost, which no
            // key here names (its separator went a level up when it became
            // leftmost): a dangling-sibling repair that reached it through
            // the chain offers that separator again. Or the child was
            // emptied, unlinked and retired while this parent update was on
            // its way (a writer redirected through a sibling pointer reads
            // the separator long before it gets here): the merge marks it
            // deleted under this same parent latch, so the check cannot race
            // it, and inserting would leave the tree routing into a block
            // the allocator is about to hand to someone else.
            guard.unlock();
            None
        } else {
            let cnt = node.count_records();
            if cnt < tree.cap {
                stats::timed(stats::Phase::Update, || {
                    fast_insert_locked(tree, node, key, value, cnt)
                });
                guard.unlock();
            } else {
                match tree.opts.split {
                    SplitStrategy::Fair => stats::timed(stats::Phase::Update, || {
                        crate::split::fair_split_insert(tree, node, guard, key, value)
                    })?,
                    SplitStrategy::Logging => stats::timed(stats::Phase::Update, || {
                        crate::split::logging_split_insert(tree, node, guard, key, value)
                    })?,
                }
            }
            None
        };
        tree.settle(directed, hops);

        // A descending writer that reached a node through its sibling
        // pointer runs the parent update of a dangling sibling (§4.2);
        // idempotent if already done. A directed writer's hop says only
        // that the directory is older than a split.
        if let (Some((sib, low)), false) = (redirected, directed) {
            crate::split::ensure_parent_entry(tree, sib, low, level + 1)?;
        }
        return Ok(replaced);
    }
}

/// Overwrites the value at `slot` of a latched leaf in place, returning the
/// value it replaced: a single failure-atomic 8-byte pointer store — a
/// crash exposes the old value or the new one, never a torn mixture.
fn overwrite_in_place(tree: &FastFairTree, node: NodeRef<'_>, slot: u16, value: Value) -> Value {
    let old = node.ptr(slot);
    if old != value {
        stats::timed(stats::Phase::Update, || {
            node.set_ptr(slot, value);
            tree.pool.persist(node.ptr_off(slot), 8);
        });
    }
    old
}

/// Finds the slot of a *valid* entry with exactly `key`, scanning under the
/// node lock.
pub(crate) fn find_valid_slot(node: NodeRef<'_>, key: Key) -> Option<u16> {
    node.records()
        .find(|r| !r.residue && r.key == key)
        .map(|r| r.slot)
}

/// The FAST shift insert (Algorithm 1), on a node that is locked, repaired
/// and known to have room (`cnt < capacity`).
///
/// `cnt` is the exact record count; the terminator sits at slot `cnt`.
pub(crate) fn fast_insert_locked(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    key: Key,
    value: Value,
    cnt: u16,
) {
    debug_assert!(cnt < tree.cap);
    let pool = node.pool();

    // Make the switch counter even so lock-free readers scan left-to-right,
    // the direction of this right shift — and bump it on *every* shift, not
    // only on direction changes: readers re-check the counter after their
    // scan, and a second same-direction shift would otherwise be invisible
    // to that check, letting a scan chase the shift and miss records.
    let sc = node.switch_counter();
    node.set_switch_counter(if sc % 2 == 1 { sc + 1 } else { sc + 2 });

    // Pre-extend the NULL terminator (Algorithm 1 writes records[cnt+1]
    // before the shift): slot cnt+1 may hold a stale record from an earlier
    // delete or FAIR truncation, and the shift is about to overwrite the
    // terminator at slot cnt. If slot cnt+1 lands on a different cache line
    // than slot cnt, it can persist independently, so it must be flushed
    // before the shift; otherwise TSO's per-line store order covers it.
    node.set_ptr(cnt + 1, NULL_OFFSET);
    pool.fence_if_not_tso();
    if node.rec_line(cnt + 1) != node.rec_line(cnt) {
        pool.persist(node.key_off(cnt + 1), 8);
    }

    let mut inserted = false;
    let mut moved = 0u64;
    let mut i = i32::from(cnt) - 1;
    while i >= 0 {
        let iu = i as u16;
        if node.key(iu) > key {
            // Shift record i → i+1: poison the destination slot, then write
            // the key, then commit the pointer. The poison keeps exactly
            // one of the two copies valid at every instant (Fig. 1), and
            // the original at slot i stays readable throughout.
            node.set_ptr(iu + 1, INVALID_PTR);
            pool.fence_if_not_tso();
            node.set_key(iu + 1, node.key(iu));
            pool.fence_if_not_tso();
            node.set_ptr(iu + 1, node.ptr(iu));
            pool.fence_if_not_tso();
            moved += 1;
            if node.rec_line(iu + 1) != node.rec_line(iu) {
                // The line above this record is complete: flush it before
                // dirtying the next line down (§3.1).
                pool.persist(node.key_off(iu + 1), 8);
            }
        } else {
            // Insert at slot i+1, whose old occupant now lives in its
            // shifted copy at i+2: poison, write the new key, and commit
            // with the final store of `value`.
            node.set_ptr(iu + 1, INVALID_PTR);
            pool.fence_if_not_tso();
            node.set_key(iu + 1, key);
            pool.fence_if_not_tso();
            node.set_ptr(iu + 1, value);
            pool.persist(node.key_off(iu + 1), 16);
            inserted = true;
            break;
        }
        i -= 1;
    }

    if !inserted {
        // Smallest key in the node: slot 0. The poison store invalidates
        // slot 0 while its shifted copy at slot 1 stays valid; the final
        // pointer store commits. (For leaves this is the same store as the
        // historical anchor trick — LEAF_ANCHOR shares the sentinel's bit
        // pattern.)
        node.set_ptr(0, INVALID_PTR);
        pool.fence_if_not_tso();
        node.set_key(0, key);
        pool.fence_if_not_tso();
        node.set_ptr(0, value);
        pool.persist(node.key_off(0), 16);
    }

    stats::count(|s| {
        s.shift_ops += 1;
        s.shift_steps += moved;
    });
}

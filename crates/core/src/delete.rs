//! FAST deletion (left shift) and the lazy in-node repair used by all
//! writers.
//!
//! Deleting entry `d` is committed by a *single* 8-byte store: overwriting
//! `ptr(d)` with the [`INVALID_PTR`] poison makes the entry invalid to
//! every reader. The subsequent left-shift compaction only reclaims the
//! slot; if it is lost in a crash, the node merely contains one garbage
//! entry that the next writer removes (§4.2 "lazy recovery").
//!
//! Because a left shift moves entries toward lower slots, concurrent
//! lock-free readers must scan **right to left** while a delete is in
//! flight; the writer flips the node's switch counter to odd before
//! shifting (§4).

use epoch::Guard;
use pmem::{stats, NULL_OFFSET};
use pmindex::{Key, Value};

use crate::layout::{NodeRef, INVALID_PTR};
use crate::lock::WriteGuard;
use crate::tree::FastFairTree;

/// Flips a node into delete (right-to-left) scan direction.
///
/// A FAIR truncation leaves stale record copies *above* the NULL
/// terminator (the moved-out upper half). Left-to-right readers stop at
/// the terminator and never see them, but a right-to-left reader starts
/// above them — so before the switch counter goes odd, any stale pointers
/// above the terminator are nulled and **persisted**; only then is the
/// direction flipped. The flush ordering guarantees that a crash can
/// never persist an odd switch counter without the nulled slots.
///
/// (The original implementation trusts its `last_index` count here and can
/// read a truncated node's stale slots after a delete. This reproduction
/// keeps no count and nulls them instead; the deviation note of `layout`
/// records both differences from it: no count, and the poison store.)
pub(crate) fn enter_delete_direction(tree: &FastFairTree, node: NodeRef<'_>, cnt: u16) {
    let sc = node.switch_counter();
    if sc % 2 == 1 {
        // Already in delete direction: still bump the counter so readers
        // that overlap this shift see a changed value at their re-check —
        // consecutive same-direction shifts must not be invisible to the
        // retry protocol.
        node.set_switch_counter(sc + 2);
        return;
    }
    let pool = node.pool();
    let last_slot = tree.cap + 1; // slots are 0..=cap+1
    let mut dirty = false;
    let mut i = cnt + 1;
    while i <= last_slot {
        if node.ptr(i) != NULL_OFFSET {
            node.set_ptr(i, NULL_OFFSET);
            dirty = true;
        }
        i += 1;
    }
    if dirty {
        let from = node.key_off(cnt + 1);
        pool.persist(from, node.key_off(last_slot + 1) - from);
    }
    node.set_switch_counter(sc + 1);
}

/// Public delete path: removes `key` from its leaf. Returns the value it
/// held, or `None` if the key was absent. `pin` is the operation's pin of
/// the tree's epoch domain; the first attempt starts from the leaf
/// [`FastFairTree::locate_leaf`] names, a retry descends.
pub(crate) fn tree_remove(tree: &FastFairTree, key: Key, pin: &Guard) -> Option<Value> {
    let mut pin = Some(pin);
    'retry: loop {
        let (off, directed) = stats::timed(stats::Phase::Search, || match pin.take() {
            Some(pin) => tree.locate_leaf(key, pin),
            None => (tree.find_leaf(key), false),
        });
        let mut guard = WriteGuard::lock(tree.latch(off));
        let mut node = tree.node(off);
        let mut hops = 0;
        loop {
            if node.is_deleted() {
                guard.unlock();
                if directed {
                    tree.regret_directory(1);
                }
                continue 'retry;
            }
            repair_once(tree, node, &mut guard);
            match node.right_of(key) {
                Some(sib) => {
                    let right = tree.visit(sib, 0);
                    let next = WriteGuard::lock(tree.latch(right.offset()));
                    guard.unlock();
                    guard = next;
                    node = right;
                    hops += 1;
                }
                None => break,
            }
        }
        let mut emptied = false;
        let removed = crate::insert::find_valid_slot(node, key).map(|d| {
            // Read the value before the poison store below overwrites it.
            let old = node.ptr(d);
            stats::timed(stats::Phase::Update, || {
                let cnt = node.count_records();
                // Readers must scan right-to-left from now on.
                enter_delete_direction(tree, node, cnt);
                // Commit: one atomic poison store invalidates the entry.
                node.set_ptr(d, INVALID_PTR);
                tree.pool.fence_if_not_tso();
                // Reclaim the slot; a crash here leaves one garbage entry
                // for lazy recovery.
                shift_left_from(node, d, cnt);
                emptied = cnt == 1;
            });
            old
        });
        let node_off = node.offset();
        guard.unlock();
        tree.settle(directed, hops);
        if emptied {
            // FAIR merge (§4.2): try to unlink the now-empty leaf. Best
            // effort — any bail-out leaves a harmless pass-through node.
            tree.try_unlink_empty_leaf(node_off, key);
        }
        return removed;
    }
}

/// Left-shift compaction: removes the record at slot `d` by copying each
/// higher record one slot down — poisoning the destination, then key, then
/// pointer — flushing lines in shift order. `cnt` is the index of the
/// terminator. Works whether slot `d` was already poisoned (the delete
/// commit) or still holds a complete record (repair compacting an exact
/// shift-residue duplicate): the poison store invalidates it either way.
pub(crate) fn shift_left_from(node: NodeRef<'_>, d: u16, cnt: u16) {
    debug_assert!(d < cnt);
    let pool = node.pool();
    for j in d..cnt {
        node.set_ptr(j, INVALID_PTR);
        pool.fence_if_not_tso();
        node.set_key(j, node.key(j + 1));
        pool.fence_if_not_tso();
        node.set_ptr(j, node.ptr(j + 1));
        pool.fence_if_not_tso();
        if node.rec_line(j + 1) != node.rec_line(j) {
            // Record j completed its cache line: flush before moving on.
            pool.persist(node.key_off(j), 8);
        }
    }
    // Flush the line holding the last copied record (which now carries the
    // new NULL terminator).
    pool.persist(node.key_off(cnt.saturating_sub(1).max(d)), 16);
    stats::count(|s| {
        s.shift_ops += 1;
        s.shift_steps += u64::from(cnt - d).saturating_sub(1);
    });
}

/// Lazy recovery (§4.2), run by a writer right after it locks a node:
/// [`repair_node_locked`], once per node per open. Only a crash leaves the
/// states the repair mends — a FAIR split cut between its sibling-pointer
/// store and its truncation, a half-finished shift — and a live handle
/// finishes every split and shift under the node's latch, so the
/// "repaired" bit `guard` keeps in the handle's latch word (zeroed by
/// every `open`) skips the repair from the node's second writer on.
pub(crate) fn repair_once(tree: &FastFairTree, node: NodeRef<'_>, guard: &mut WriteGuard<'_>) {
    if !guard.repaired() {
        repair_node_locked(tree, node);
        guard.set_repaired();
    }
}

/// Lazy recovery of the locked `node` (§4.2); writers reach it through
/// [`repair_once`], [`FastFairTree::recover`] on every node:
///
/// 1. completes a FAIR split a crash cut short (Fig. 2 state (2)): lowers
///    a high key the split never lowered, then re-issues the truncation
///    of the records at or above the high key;
/// 2. removes garbage entries — poisoned slots ([`INVALID_PTR`]) and exact
///    duplicates of their left neighbour (same key and pointer) — the
///    residue of a crashed FAST shift or delete compaction.
///
/// Returns true if it completed a split. Idempotent; on a clean node it
/// still reads the sibling's header and walks the node's slots twice.
pub(crate) fn repair_node_locked(tree: &FastFairTree, node: NodeRef<'_>) -> bool {
    #[cfg(test)]
    crate::tests::on_repair(node.offset());
    let pool = node.pool();
    let mut completed = false;

    // Step 1: complete a crashed split. Only a crash leaves a sibling with
    // this node's own high key: a split that never lowered it, or (the
    // sibling empty) a merge that raised it before its bypass. The lost
    // separator is a leaf sibling's first key — nothing reaches it but
    // through this repair — or the key routing to its leftmost child.
    let sib_off = node.sibling();
    if sib_off != NULL_OFFSET {
        let sib = tree.node(sib_off);
        if sib.high_key() == node.high_key() {
            let sep = if node.is_leaf() {
                sib.first_key()
            } else {
                let child = sib.leftmost();
                node.records().find(|r| r.ptr == child).map(|r| r.key)
            };
            if let Some(sep) = sep {
                node.set_high_key(sep);
                node.persist_header();
                completed = true;
            }
        }
        // Redo a truncation the crash lost; one that persisted left the
        // moved-out half above the terminator, out of this walk.
        let high = node.high_key();
        if let Some(cut) = node.records().find(|r| !r.residue && r.key >= high) {
            // Insert direction first, as the split itself does: readers
            // must not start above the terminator this is about to set.
            let sc = node.switch_counter();
            if sc % 2 == 1 {
                node.set_switch_counter(sc + 1);
                node.persist_header();
            }
            node.set_ptr(cut.slot, NULL_OFFSET);
            pool.persist(node.ptr_off(cut.slot), 8);
            completed = true;
        }
    }

    // Step 2: compact away shift garbage — poisoned slots and exact
    // adjacent duplicates (keys are unique within a node, so an adjacent
    // repeat is always the residue of an interrupted shift copy).
    while let Some(r) = node.records().find(|r| r.residue) {
        let cnt = node.count_records();
        enter_delete_direction(tree, node, cnt);
        shift_left_from(node, r.slot, cnt);
    }
    completed
}

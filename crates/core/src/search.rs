//! Lock-free leaf search (Algorithm 3) and leaf-entry reads.
//!
//! Readers never latch a node. Instead they:
//!
//! 1. read the node's `switch_counter` and scan **left to right** if it is
//!    even (the last writer was inserting, shifting entries right) or
//!    **right to left** if odd (the last writer was deleting, shifting
//!    left) — scanning in the same direction as the writer guarantees no
//!    entry is missed, though one may be seen twice;
//! 2. skip *invalid* entries — those whose pointer is the
//!    [`INVALID_PTR`] poison a shift stores before rewriting a slot
//!    (§3.1; see the deviation note in `layout` for why poison replaces
//!    the paper's pointer-duplication test);
//! 3. re-read the switch counter, retrying if a writer shifted this node
//!    during the scan (every shift bumps the counter).
//!
//! A reader that falls off the right edge of a node consults the sibling
//! pointer (B-link), which also covers the "virtual single node" state of a
//! half-finished FAIR split.

use pmem::NULL_OFFSET;
use pmindex::{Key, Value};

use crate::layout::{NodeRef, INVALID_PTR};
use crate::tree::FastFairTree;

/// Lock-free exact-match search within one leaf (Algorithm 3).
///
/// Returns the value for `key` or `None` if it is not in this node (the
/// caller then consults the sibling pointer).
pub(crate) fn leaf_search_linear(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    key: Key,
) -> Option<Value> {
    let cap = tree.cap;
    loop {
        let sc = node.switch_counter();
        let mut ret: Option<Value> = None;
        let mut scanned: u16 = 0;
        if sc.is_multiple_of(2) {
            // Scan left to right, following the insert shift direction.
            let mut i: u16 = 0;
            while i <= cap {
                let p = node.ptr(i);
                if p == NULL_OFFSET {
                    break;
                }
                scanned = i + 1;
                if p != INVALID_PTR && node.key(i) == key {
                    // Re-read the pointer: the slot may have been poisoned
                    // and rewritten for a different key since `p` was read,
                    // in which case the key match above was against the new
                    // occupant and `p` is stale.
                    if node.ptr(i) == p {
                        ret = Some(p);
                        break;
                    }
                    // Or the same key was overwritten in place (one pointer
                    // store, no shift, no counter bump): look at the slot
                    // again rather than stepping past a key that is there.
                    continue;
                }
                i += 1;
            }
        } else {
            // Scan right to left, following the delete shift direction.
            let mut i = cap.min(node.count_hint().saturating_add(2)).min(cap);
            scanned = i + 1;
            loop {
                let p = node.ptr(i);
                if p != NULL_OFFSET && p != INVALID_PTR && node.key(i) == key {
                    // Re-read the pointer (same staleness guard as the
                    // forward scan above, same second look on a change).
                    if node.ptr(i) == p {
                        ret = Some(p);
                        break;
                    }
                    continue;
                }
                if i == 0 {
                    break;
                }
                i -= 1;
            }
        }
        node.charge_linear_scan(scanned);
        if node.switch_counter() == sc {
            return ret;
        }
        // A writer shifted this node mid-scan: retry (Algorithm 3, the
        // `until prev_switch = node.switch` loop).
        std::hint::spin_loop();
    }
}

/// Binary exact-match search within one leaf.
///
/// Only sound when no writer is concurrently shifting this node — the
/// reason the paper's lock-free design is restricted to linear search (§4).
/// Exposed for the single-threaded Fig. 3 comparison.
pub(crate) fn leaf_search_binary(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    key: Key,
) -> Option<Value> {
    let cnt = node.count_records();
    if cnt == 0 {
        return None;
    }
    // Each probe is a dependent (serial) cache miss: binary search defeats
    // the prefetcher, which is why it loses below 4 KB nodes (§5.2).
    let probes = (u32::from(cnt) * 16 / 64).max(1).ilog2() + 1;
    tree.pool.charge_serial_reads(probes);
    let (mut lo, mut hi) = (0u16, cnt);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if node.key(mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < cnt && node.key(lo) == key && node.entry_valid(lo) {
        Some(node.ptr(lo))
    } else {
        None
    }
}

/// Reads the valid `(key, pointer)` entries of a node with the lock-free
/// retry protocol; used by range scans and the full-tree iterator on
/// leaves, and by the leaf-directory build on the levels above them.
///
/// Entries are returned in slot order, read in the direction the switch
/// counter names (Algorithm 3, as [`leaf_search_linear`]): a delete bumps
/// the counter odd *before* it shifts left, so a scan that read the odd
/// counter sees the same value at its re-check — only scanning against the
/// shift (right to left) keeps a survivor from moving into a slot the scan
/// has already passed. During a shift the same key can transiently occupy
/// two adjacent slots as an exact duplicate (same value); the key dedup
/// below keeps one of them, and the switch-counter re-check discards any
/// scan that overlapped a later shift.
pub(crate) fn read_entries(tree: &FastFairTree, node: NodeRef<'_>) -> Vec<(Key, Value)> {
    let cap = tree.cap;
    loop {
        let sc = node.switch_counter();
        let mut out = Vec::new();
        // Slot `i`, whose pointer read `p`: `None` when empty or poisoned,
        // `Err(())` when the pointer was rewritten before the key read was
        // confirmed — possibly the same key overwritten in place, which
        // bumps no counter: look again rather than skip a key that is there.
        let entry = |i: u16, p: Value| -> Result<Option<(Key, Value)>, ()> {
            if p == NULL_OFFSET || p == INVALID_PTR {
                return Ok(None);
            }
            let k = node.key(i);
            if node.ptr(i) != p {
                return Err(());
            }
            Ok(Some((k, p)))
        };
        let scanned = if sc.is_multiple_of(2) {
            // Left to right, following the insert shift direction.
            let mut i: u16 = 0;
            while i <= cap {
                let p = node.ptr(i);
                if p == NULL_OFFSET {
                    break;
                }
                match entry(i, p) {
                    Err(()) => continue,
                    Ok(found) => out.extend(found),
                }
                i += 1;
            }
            i
        } else {
            // Right to left, following the delete shift direction; slots
            // above the terminator were nulled before the counter went odd
            // (`enter_delete_direction`).
            let top = cap.min(node.count_hint().saturating_add(2));
            let mut i = top;
            loop {
                match entry(i, node.ptr(i)) {
                    Err(()) => continue,
                    Ok(found) => out.extend(found),
                }
                if i == 0 {
                    break;
                }
                i -= 1;
            }
            out.reverse();
            top + 1
        };
        if node.is_cold() {
            node.charge_linear_scan(scanned);
        }
        if node.switch_counter() == sc {
            // A crashed shift can leave an entry twice at adjacent slots
            // (an exact duplicate — same key, same value); keep one
            // occurrence of each key.
            out.dedup_by(|b, a| a.0 == b.0);
            return out;
        }
        std::hint::spin_loop();
    }
}

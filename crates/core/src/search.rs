//! The lock-free node reader (Algorithm 3) and its clients: leaf search,
//! leaf-entry reads and, in `tree.rs`, child routing.
//!
//! Readers never latch a node. [`read_node`], the crate's one reader:
//!
//! 1. reads the node's `switch_counter` and scans **left to right** if it is
//!    even (the last writer was inserting, shifting entries right) or
//!    **right to left** if odd (the last writer was deleting, shifting
//!    left) — scanning in the same direction as the writer guarantees no
//!    entry is missed, though one may be seen twice;
//! 2. skips *invalid* entries — those whose pointer is the
//!    [`INVALID_PTR`] poison a shift stores before rewriting a slot
//!    (§3.1; see the deviation note in `layout` for why poison replaces
//!    the paper's pointer-duplication test);
//! 3. re-reads the switch counter, retrying if a writer shifted this node
//!    during the scan (every shift bumps the counter).
//!
//! [`leaf_search_linear`], [`read_entries`] and `FastFairTree::route_linear`
//! are folds over it, each charging by its own rule. A reader that falls
//! off the right edge of a node consults the sibling pointer (B-link),
//! which also covers the "virtual single node" state of a half-finished
//! FAIR split.

use pmem::NULL_OFFSET;
use pmindex::{Key, Value};

use crate::layout::{is_cold, NodeRef, INVALID_PTR};

/// Reads `node` by the protocol above, folding its valid `(key, pointer)`
/// entries in scan order into `state`, which the caller owns: each attempt
/// starts with `reset(state, forward)`, and `step` folds in one entry whose
/// key `wants` takes, returning true to end the scan there; the scan passes
/// the others by without reading their pointer again. It returns once an
/// attempt's re-check finds the counter unchanged, with that attempt's
/// direction (`true`: left to right). With `charge`, each attempt charges
/// the slots it scanned: left to right, up to the terminator or the entry
/// that ended the scan; right to left, all from its start down.
///
/// A right-to-left scan starts two slots above the terminator
/// `count_records()` finds; the slots above the terminator were nulled
/// before the counter went odd (`enter_delete_direction`).
///
/// The pointer is read again after the key: the slot may have been
/// poisoned and rewritten for another key since the first read. A slot
/// whose pointer changed is read again, not stepped past — it may hold the
/// same key overwritten in place, one store that bumps no counter. Every
/// shift starts with a counter bump, so the retry covers any pointer change
/// a shift makes. The one other store below an internal node's terminator
/// is a split's or a repair's truncation (`split.rs`, `delete.rs`): reading
/// its NULL again ends the scan there, and the B-link move-right one level
/// down reaches the child the moved-out half routes to.
pub(crate) fn read_node<S>(
    node: NodeRef<'_>,
    charge: bool,
    state: &mut S,
    mut reset: impl FnMut(&mut S, bool),
    wants: impl Fn(Key) -> bool,
    mut step: impl FnMut(&mut S, Key, Value) -> bool,
) -> bool {
    let cap = node.capacity();
    loop {
        let sc = node.switch_counter();
        let forward = sc.is_multiple_of(2);
        reset(state, forward);
        // Slot `i`, whose pointer read `p`: `None` to read it again,
        // `Some(true)` when the fold ends the scan.
        let mut visit = |i: u16, p: Value| {
            if p == NULL_OFFSET || p == INVALID_PTR {
                return Some(false);
            }
            let k = node.key(i);
            if !wants(k) {
                return Some(false);
            }
            (node.ptr(i) == p).then(|| step(state, k, p))
        };
        let scanned = if forward {
            // Left to right, following the insert shift direction.
            let mut i: u16 = 0;
            while i <= cap {
                let p = node.ptr(i);
                if p == NULL_OFFSET {
                    break;
                }
                let Some(stop) = visit(i, p) else { continue };
                i += 1;
                if stop {
                    break;
                }
            }
            i
        } else {
            // Right to left, following the delete shift direction.
            let top = cap.min(node.count_records().saturating_add(2));
            let mut i = top;
            loop {
                match visit(i, node.ptr(i)) {
                    None => continue,
                    Some(false) if i > 0 => i -= 1,
                    Some(_) => break,
                }
            }
            top + 1
        };
        if charge {
            node.charge_linear_scan(scanned);
        }
        #[cfg(test)]
        crate::tests::before_recheck(node);
        if node.switch_counter() == sc {
            return forward;
        }
        std::hint::spin_loop();
    }
}

/// Lock-free exact-match search within one leaf (Algorithm 3).
///
/// Returns the value for `key` or `None` if it is not in this node (the
/// caller then consults the sibling pointer). Always charges its scan.
pub(crate) fn leaf_search_linear(node: NodeRef<'_>, key: Key) -> Option<Value> {
    let mut found = None;
    read_node(
        node,
        true,
        &mut found,
        |found, _| *found = None,
        |k| k == key,
        |found, _, p| {
            *found = Some(p);
            true
        },
    );
    found
}

/// Appends the valid `(key, pointer)` entries of a node to `out`, in slot
/// order, with the lock-free retry protocol; used by range scans and the
/// full-tree iterator on leaves (appending straight into the cursor's
/// buffer), and by the leaf-directory build on the levels above them.
/// Charges its scan iff the node's level [`is_cold`].
///
/// The entries are read in the direction the switch counter names: a
/// delete bumps the counter odd *before* it shifts left, so a scan that
/// read the odd counter sees the same value at its re-check — only
/// scanning against the shift (right to left) keeps a survivor from moving
/// into a slot the scan has already passed. A right-to-left segment is
/// reversed in place once its attempt is accepted. During a shift the same
/// key can transiently occupy two adjacent slots as an exact duplicate
/// (same value), and a crashed shift can leave one so: an entry whose key
/// equals the one this node last appended is dropped. Each attempt starts
/// by truncating `out` back to its length at the call, so a switch-counter
/// retry leaves exactly one copy of the node after what `out` held before.
/// The first call reserves room for a full node; a buffer cleared between
/// calls (the cursor's) never grows again.
pub(crate) fn read_entries(node: NodeRef<'_>, out: &mut Vec<(Key, Value)>) {
    let start = out.len();
    out.reserve(usize::from(node.capacity()));
    let forward = read_node(
        node,
        is_cold(node.level()),
        out,
        |out, _| out.truncate(start),
        |_| true,
        |out, k, p| {
            if out[start..].last().is_none_or(|e| e.0 != k) {
                out.push((k, p));
            }
            false
        },
    );
    if !forward {
        out[start..].reverse();
    }
}

/// The rank search of the binary ablation ([`crate::InNodeSearch::Binary`]):
/// the first of the node's records whose key fails `before`, or `None` if
/// the node is empty.
///
/// Only sound when no writer is concurrently shifting this node — the
/// reason the paper's lock-free design is restricted to linear search (§4).
/// Each probe is a dependent (serial) cache miss, charged iff the node's
/// level [`is_cold`]: binary search defeats the prefetcher, which is why it
/// loses below 4 KB nodes (§5.2).
pub(crate) fn binary_rank(node: NodeRef<'_>, before: impl Fn(Key) -> bool) -> Option<u16> {
    let cnt = node.count_records();
    if cnt == 0 {
        return None;
    }
    if is_cold(node.level()) {
        let probes = (u32::from(cnt) * 16 / 64).max(1).ilog2() + 1;
        node.pool().charge_serial_reads(probes);
    }
    let (mut lo, mut hi) = (0u16, cnt);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if before(node.key(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

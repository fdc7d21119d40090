//! Shared leaf-chain cursor machinery.
//!
//! Every sibling-linked index in this repository (FAST+FAIR, wB+-tree,
//! FP-tree) streams range scans the same way:
//! descend to the leaf covering the seek target, buffer one leaf's
//! entries, drain them through a lower-bound filter plus a strict-
//! monotonicity filter (which drops the duplicated upper half of an
//! in-flight split and any leaf revisited through a stale sibling
//! pointer), then hop to the next leaf. Only the *per-leaf read* differs
//! per index — how a leaf is located, snapshotted and chained.
//!
//! [`LeafChainCursor`] keeps that drain loop in exactly one place,
//! parameterized over a [`LeafChain`] hook supplying the three
//! index-specific pieces.

use crate::{Cursor, Key, Value};

/// The per-index hook behind a [`LeafChainCursor`]: how to find a leaf,
/// where the chain starts, and how to read one leaf.
///
/// Implementations decide their own consistency protocol inside
/// [`LeafChain::read`] — a lock-free switch-counter retry (FAST+FAIR), a
/// seqlock snapshot (FP-tree), or a short-lived latch (wB+-tree).
/// Entries must come back in ascending key order; cross-leaf
/// duplicates are the adapter's problem, not the hook's.
///
/// ```
/// use pmindex::chain::{LeafChain, LeafChainCursor};
/// use pmindex::{Cursor, Key, Value};
///
/// /// A toy "index": fixed leaves of sorted entries, chained by index.
/// struct Toy(Vec<Vec<(Key, Value)>>);
///
/// impl LeafChain for &Toy {
///     type Leaf = usize;
///     fn locate(&self, target: Key) -> usize {
///         // Last leaf whose first key is <= target (or the first leaf).
///         self.0.iter().rposition(|l| l.first().is_some_and(|&(k, _)| k <= target)).unwrap_or(0)
///     }
///     fn first(&self) -> usize {
///         0
///     }
///     fn read(&self, leaf: usize, buf: &mut Vec<(Key, Value)>) -> Option<usize> {
///         buf.extend_from_slice(&self.0[leaf]);
///         (leaf + 1 < self.0.len()).then_some(leaf + 1)
///     }
///     fn covers(&self, _leaf: usize, _next: Option<usize>, _key: Key) -> bool {
///         true // the toy never splits
///     }
/// }
///
/// let toy = Toy(vec![vec![(1, 10), (2, 20)], vec![(5, 50)]]);
/// let mut cur = LeafChainCursor::new(&toy);
/// cur.seek(2);
/// assert_eq!(cur.next(), Some((2, 20)));
/// assert_eq!(cur.next(), Some((5, 50)));
/// assert_eq!(cur.next(), None);
/// // The same hook drives descending scans: each left step is a fresh
/// // locate() descent (leaves have no back pointers).
/// cur.seek_for_prev(4);
/// assert_eq!(cur.prev(), Some((2, 20)));
/// assert_eq!(cur.prev(), Some((1, 10)));
/// assert_eq!(cur.prev(), None);
/// ```
pub trait LeafChain {
    /// Handle naming one leaf, such as its pool offset.
    type Leaf: Copy;

    /// Descends to the leaf whose key range contains `target` (the seek
    /// entry point).
    fn locate(&self, target: Key) -> Self::Leaf;

    /// The leftmost leaf — where a cursor that was never sought starts.
    fn first(&self) -> Self::Leaf;

    /// Reads one leaf's live entries (ascending) into `buf` and returns
    /// the next leaf in the chain, or `None` at the end. Any sibling
    /// pointer must be read *after* the entries, so a split racing the
    /// read cannot hide the moved upper half: either the entries still
    /// contain it, or the freshly linked sibling does.
    fn read(&self, leaf: Self::Leaf, buf: &mut Vec<(Key, Value)>) -> Option<Self::Leaf>;

    /// Whether `leaf`, whose entries [`read`](Self::read) has just
    /// returned along with `next`, still covers `key`. A reverse scan asks
    /// this after each read, with its running upper bound, and locates
    /// again when the answer is no: the leaf it stands on may have split
    /// since it was located, moving the keys at and below the bound to a
    /// new right sibling. Like the sibling pointer, the bound must be read
    /// *after* the entries: a high key, or the first key of `next`.
    fn covers(&self, leaf: Self::Leaf, next: Option<Self::Leaf>, key: Key) -> bool;
}

/// Where a [`LeafChainCursor`] currently stands in the chain.
enum Pos<L> {
    /// Never positioned: the descent happens lazily on the first `next`,
    /// so the common `cursor()`-then-`seek` shape pays only one descent.
    /// In a reverse scan this doubles as "no pending leaf: re-descend
    /// from the running upper bound at the next refill".
    Unpositioned,
    /// The next leaf to read.
    At(L),
    /// Chain exhausted.
    End,
}

/// The shared streaming cursor over a sibling-linked leaf chain: one
/// buffered leaf, a lower-bound filter, and the strict-monotonicity
/// filter that makes half-finished splits and revisited leaves invisible
/// (the paper's "virtual single node" tolerance, §4.1).
///
/// Forward scans ([`Cursor::seek`]/[`Cursor::next`]) hop right along the
/// sibling chain. Reverse scans ([`Cursor::seek_for_prev`]/
/// [`Cursor::prev`]) have no left-sibling pointers to follow, so each
/// left step is a fresh [`LeafChain::locate`] descent to the leaf
/// covering the running upper bound — every read re-validates through
/// the hook's own protocol (switch-counter retry, seqlock, latch), and
/// the strict-*descending* filter drops anything a racing split or merge
/// duplicated or moved.
///
/// All four chain-walking indexes build their [`Cursor`] from this; see
/// [`LeafChain`] for a runnable example and the per-leaf contract.
pub struct LeafChainCursor<H: LeafChain> {
    hook: H,
    pos: Pos<H::Leaf>,
    buf: Vec<(Key, Value)>,
    idx: usize,
    /// Lower bound (forward) or inclusive upper bound (reverse) set by
    /// the last seek.
    bound: Key,
    /// Last key emitted — the monotonicity filter.
    last: Option<Key>,
    /// Direction of the current scan, set by the last seek.
    reverse: bool,
}

impl<H: LeafChain> LeafChainCursor<H> {
    /// Opens a cursor positioned before the smallest key.
    ///
    /// ```
    /// use pmindex::chain::{LeafChain, LeafChainCursor};
    /// use pmindex::{Cursor, Key, Value};
    ///
    /// struct One;
    /// impl LeafChain for One {
    ///     type Leaf = ();
    ///     fn locate(&self, _t: Key) {}
    ///     fn first(&self) {}
    ///     fn read(&self, _l: (), buf: &mut Vec<(Key, Value)>) -> Option<()> {
    ///         buf.push((7, 70));
    ///         None
    ///     }
    ///     fn covers(&self, _l: (), _next: Option<()>, _key: Key) -> bool {
    ///         true
    ///     }
    /// }
    ///
    /// let mut cur = LeafChainCursor::new(One);
    /// assert_eq!(cur.next(), Some((7, 70)));
    /// ```
    pub fn new(hook: H) -> Self {
        LeafChainCursor {
            hook,
            pos: Pos::Unpositioned,
            buf: Vec::new(),
            idx: 0,
            bound: 0,
            last: None,
            reverse: false,
        }
    }

    /// Refills `buf` for a descending drain: positions on the rightmost
    /// leaf holding a key `<= ub`. Returns `false` when no such leaf
    /// exists (the scan is exhausted).
    fn refill_rev(&mut self, ub: Key) -> bool {
        // Primary path: one descent to the leaf covering `ub` (the seek
        // seeded it; later refills re-locate). The hook's `read` applies
        // its own re-validation protocol, so a leaf observed mid-split is
        // retried or snapshotted consistently — same as forward scans —
        // and `covers`, read after the entries, says whether the leaf
        // still holds `ub`'s range or has split it away since it was
        // located.
        let mut leaf = match std::mem::replace(&mut self.pos, Pos::Unpositioned) {
            Pos::End => return false,
            Pos::At(leaf) => leaf,
            Pos::Unpositioned => self.hook.locate(ub),
        };
        loop {
            self.buf.clear();
            let next = self.hook.read(leaf, &mut self.buf);
            if self.hook.covers(leaf, next, ub) {
                break;
            }
            leaf = self.hook.locate(ub);
        }
        if self.buf.iter().any(|&(k, _)| k <= ub) {
            self.idx = self.buf.len();
            return true;
        }
        // The located leaf holds nothing at or below `ub`: deletes carved
        // out the low end of its range (its fence key sits below its
        // smallest live key), so the predecessor — if one exists — lives
        // in a leaf further left that no descent target reaches. Rare
        // fallback: walk the chain forward from the head, keeping the
        // last leaf that still holds a qualifying key, and stop as soon
        // as a leaf's entries are wholly above `ub` (the chain ascends).
        let mut probe = Some(self.hook.first());
        let mut found: Option<Vec<(Key, Value)>> = None;
        let mut scratch = Vec::new();
        while let Some(at) = probe {
            scratch.clear();
            let next = self.hook.read(at, &mut scratch);
            if scratch.iter().any(|&(k, _)| k <= ub) {
                found = Some(scratch.clone());
            }
            if scratch.iter().any(|&(k, _)| k > ub) {
                break;
            }
            probe = next;
        }
        match found {
            Some(entries) => {
                self.buf = entries;
                self.idx = self.buf.len();
                true
            }
            None => {
                self.pos = Pos::End;
                false
            }
        }
    }
}

impl<H: LeafChain> Cursor for LeafChainCursor<H> {
    fn seek(&mut self, target: Key) {
        self.bound = target;
        self.last = None;
        self.buf.clear();
        self.idx = 0;
        self.reverse = false;
        self.pos = Pos::At(self.hook.locate(target));
    }

    fn next(&mut self) -> Option<(Key, Value)> {
        if self.reverse {
            return None; // direction switches go through a re-seek
        }
        loop {
            while self.idx < self.buf.len() {
                let (k, v) = self.buf[self.idx];
                self.idx += 1;
                if k < self.bound || self.last.is_some_and(|l| k <= l) {
                    // Below the seek bound, or a duplicate from a
                    // half-finished split / revisited leaf: skip.
                    continue;
                }
                self.last = Some(k);
                return Some((k, v));
            }
            let leaf = match self.pos {
                Pos::End => return None,
                Pos::At(leaf) => leaf,
                Pos::Unpositioned => self.hook.first(),
            };
            self.buf.clear();
            self.idx = 0;
            self.pos = match self.hook.read(leaf, &mut self.buf) {
                Some(next) => Pos::At(next),
                None => Pos::End,
            };
        }
    }

    fn seek_for_prev(&mut self, target: Key) {
        self.bound = target;
        self.last = None;
        self.buf.clear();
        self.idx = 0;
        self.reverse = true;
        self.pos = Pos::At(self.hook.locate(target));
    }

    fn prev(&mut self) -> Option<(Key, Value)> {
        if !self.reverse {
            if matches!(self.pos, Pos::Unpositioned) {
                // Never positioned: a bare prev() starts from the top of
                // the keyspace, mirroring how a bare next() starts from
                // the head of the chain.
                self.seek_for_prev(Key::MAX);
            } else {
                return None; // direction switches go through a re-seek
            }
        }
        loop {
            // Drain the buffered leaf back-to-front through the upper
            // bound and the strict-descending filter (the reverse image
            // of the split-duplicate filter).
            while self.idx > 0 {
                self.idx -= 1;
                let (k, v) = self.buf[self.idx];
                if k > self.bound || self.last.is_some_and(|l| k >= l) {
                    continue;
                }
                self.last = Some(k);
                return Some((k, v));
            }
            let ub = match self.last {
                None => self.bound,
                Some(0) => {
                    self.pos = Pos::End;
                    return None;
                }
                Some(l) => l - 1,
            };
            if !self.refill_rev(ub) {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leaves with deliberately overlapping content, as left behind by an
    /// in-flight split: the adapter must emit each key exactly once.
    struct Split;

    impl LeafChain for Split {
        type Leaf = u8;
        fn locate(&self, target: Key) -> u8 {
            if target >= 30 {
                1
            } else {
                0
            }
        }
        fn first(&self) -> u8 {
            0
        }
        fn read(&self, leaf: u8, buf: &mut Vec<(Key, Value)>) -> Option<u8> {
            match leaf {
                // Node A still holds its upper half...
                0 => {
                    buf.extend_from_slice(&[(10, 1), (20, 2), (30, 3), (40, 4)]);
                    Some(1)
                }
                // ... which its fresh sibling B duplicates.
                _ => {
                    buf.extend_from_slice(&[(30, 3), (40, 4), (50, 5)]);
                    None
                }
            }
        }
        fn covers(&self, _leaf: u8, _next: Option<u8>, _key: Key) -> bool {
            true
        }
    }

    #[test]
    fn monotonicity_filter_drops_split_duplicates() {
        let mut cur = LeafChainCursor::new(Split);
        let mut got = Vec::new();
        while let Some(e) = cur.next() {
            got.push(e);
        }
        assert_eq!(got, vec![(10, 1), (20, 2), (30, 3), (40, 4), (50, 5)]);
    }

    #[test]
    fn seek_applies_lower_bound_and_resets_filter() {
        let mut cur = LeafChainCursor::new(Split);
        cur.seek(35);
        assert_eq!(cur.next(), Some((40, 4)));
        assert_eq!(cur.next(), Some((50, 5)));
        assert_eq!(cur.next(), None);
        // Seeking backwards reuses the cursor.
        cur.seek(0);
        assert_eq!(cur.next(), Some((10, 1)));
    }

    #[test]
    fn reverse_drops_split_duplicates_descending() {
        let mut cur = LeafChainCursor::new(Split);
        cur.seek_for_prev(Key::MAX);
        let mut got = Vec::new();
        while let Some(e) = cur.prev() {
            got.push(e);
        }
        assert_eq!(got, vec![(50, 5), (40, 4), (30, 3), (20, 2), (10, 1)]);
    }

    #[test]
    fn seek_for_prev_applies_upper_bound_inclusively() {
        let mut cur = LeafChainCursor::new(Split);
        cur.seek_for_prev(35);
        assert_eq!(cur.prev(), Some((30, 3)));
        assert_eq!(cur.prev(), Some((20, 2)));
        cur.seek_for_prev(40); // exact hit included; cursor is reusable
        assert_eq!(cur.prev(), Some((40, 4)));
        // Direction switches require a re-seek.
        assert_eq!(cur.next(), None);
        cur.seek(45);
        assert_eq!(cur.next(), Some((50, 5)));
        assert_eq!(cur.prev(), None);
    }

    #[test]
    fn bare_prev_starts_from_the_top() {
        let mut cur = LeafChainCursor::new(Split);
        assert_eq!(cur.prev(), Some((50, 5)));
        assert_eq!(cur.prev(), Some((40, 4)));
    }

    /// A chain whose second leaf lost the low end of its key range to
    /// deletes: the leaf covering the descent target holds no qualifying
    /// key, so the reverse cursor must fall back to the forward walk to
    /// find the true predecessor in an earlier leaf.
    struct Carved;

    impl LeafChain for Carved {
        type Leaf = u8;
        fn locate(&self, target: Key) -> u8 {
            // Leaf 0 covers [0, 15), leaf 1 covers [15, ∞) — but leaf 1's
            // keys below 20 were deleted.
            if target >= 15 {
                1
            } else {
                0
            }
        }
        fn first(&self) -> u8 {
            0
        }
        fn read(&self, leaf: u8, buf: &mut Vec<(Key, Value)>) -> Option<u8> {
            match leaf {
                0 => {
                    buf.push((5, 55));
                    Some(1)
                }
                _ => {
                    buf.extend_from_slice(&[(20, 2), (30, 3)]);
                    None
                }
            }
        }
        fn covers(&self, _leaf: u8, _next: Option<u8>, _key: Key) -> bool {
            true
        }
    }

    #[test]
    fn reverse_crosses_delete_carved_leaf_boundaries() {
        let mut cur = LeafChainCursor::new(Carved);
        // locate(19) lands on leaf 1, whose smallest live key is 20: the
        // predecessor 5 lives in leaf 0, reachable only via the fallback.
        cur.seek_for_prev(19);
        assert_eq!(cur.prev(), Some((5, 55)));
        assert_eq!(cur.prev(), None);
        // Full descending pass crosses the same carved boundary.
        cur.seek_for_prev(Key::MAX);
        let mut got = Vec::new();
        while let Some((k, _)) = cur.prev() {
            got.push(k);
        }
        assert_eq!(got, vec![30, 20, 5]);
    }
}

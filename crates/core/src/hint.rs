//! The volatile leaf directory: skip the root-to-leaf descent for every
//! key, not only for a key seen before.
//!
//! Under a 300 ns persistent-memory read, most of a point operation is the
//! chain of dependent node reads on the way down. A B-link tree already
//! tolerates an entry point that is *at or left of* the key's leaf — the
//! sibling chain and lazy repair (§4.2) take it the rest of the way — so a
//! handle keeps, in DRAM, one immutable sorted array `separator → leaf`
//! copied from the routing entries above the leaves, and starts at the leaf
//! it names. It is laid out for DRAM as §5.2 lays a node out for PM: a
//! binary search of a cache-resident top level picks one block of adjacent
//! lines, and a linear scan of that block names the leaf. The directory is
//! a cache of *where to start*, never of *what is there*: nothing in it is
//! persistent, nothing in it is needed for recovery, it is built on
//! demand, and a crash or a reopen simply starts cold (`open` stays
//! instant — what the FP-tree baseline gives up for the same read cost).

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use epoch::{EpochDomain, Guard};
use pmem::{stats, PmOffset};
use pmindex::Key;

use crate::search::read_entries;
use crate::tree::FastFairTree;

/// Regret a handle accumulates before it builds a directory, however
/// small the tree: `create` / `open` / `bulk_load` build nothing, and a
/// short-lived handle (a restart probe, a test fixture) never allocates.
const MIN_REGRET: u64 = 4096;

/// Entries per block: four adjacent cache lines, scanned linearly.
const B: usize = 16;

/// `B` entries, line-aligned: the scan that finds a separator has fetched
/// its leaf too.
#[repr(C, align(64))]
struct Block([(Key, PmOffset); B]);

/// One build: `(separator, leaf)` ascending by separator, the first
/// separator 0, stamped with the generation read before the first node.
/// `top` holds each block's first separator; the last block is padded with
/// copies of its last entry (every `u64` is a key, so no sentinel).
struct Directory {
    gen: u64,
    top: Box<[Key]>,
    blocks: Box<[Block]>,
}

impl Directory {
    fn new(gen: u64, entries: &[(Key, PmOffset)]) -> Directory {
        let pad = |c: &[(Key, PmOffset)]| {
            let mut block = Block([c[c.len() - 1]; B]);
            block.0[..c.len()].copy_from_slice(c);
            block
        };
        let blocks: Box<[Block]> = entries.chunks(B).map(pad).collect();
        let top = blocks.iter().map(|b| b.0[0].0).collect();
        Directory { gen, top, blocks }
    }

    /// The leaf of entry `partition_point(|(sep, _)| sep <= key) - 1`;
    /// `top[0]` is 0, so both counts are ≥ 1.
    fn leaf(&self, key: Key) -> PmOffset {
        let block = &self.blocks[self.top.partition_point(|&sep| sep <= key) - 1].0;
        block[block.iter().filter(|&&(sep, _)| sep <= key).count() - 1].1
    }
}

/// A tree handle's leaf directory and the rule that (re)builds it.
///
/// # Invariants
///
/// 1. **Anchor.** Every entry `(s, L)` of a directory stamped `g` was read,
///    while the generation was `g`, as a routing entry one level above the
///    leaves (or as the leftmost pointer beside the separator that routes
///    to its parent; or `L` was the root): `L` was then a leaf of this
///    tree with lower bound ≤ `s`.
/// 2. **No recycle.** A directory is used only if its stamp still equals
///    the generation read *after* the operation's epoch pin. Every path
///    that takes a node off the tree (`retire_node` from merge, `bulk_load`
///    and `recover`) bumps the generation *before* the
///    block reaches the epoch domain, so an operation that still reads `g`
///    pinned before any leaf of the directory was retired, and the epoch
///    rule keeps those blocks out of the allocator until it unpins: a
///    directed operation only ever lands on a block that is still this
///    tree's leaf (possibly unlinked and marked deleted, never recycled).
/// 3. **Left-of.** A linked leaf's lower bound never moves. A FAIR split
///    (`split::build_and_link_sibling`, steps 2–3) gives the *new* right
///    sibling the upper half and leaves the lower bound of the node it
///    splits alone; a merge (`merge::try_unlink_empty_leaf`, steps 1–2)
///    hands an emptied leaf's range to its left neighbour, and bumps the
///    generation. So for as long as invariant 2 admits it, the leaf an
///    entry with `s ≤ key` names is at or left of `key`'s leaf, which is
///    all a B-link traversal needs: splits since the build cost sibling
///    hops, never answers.
/// 4. **Protocol.** A directed operation is a descending operation that
///    arrived late. From the leaf [`FastFairTree::locate_leaf`] returns,
///    readers run the lock-free scan with its switch-counter recheck and
///    the high-key move-right, writers latch → `is_deleted` →
///    `repair_node_locked` → move right → `find_valid_slot`, and a cursor
///    moves right to the covering leaf before it reads — exactly as after
///    a descent — and a writer that has to retry retries by descent. A
///    leaf's high key bounds it whenever the writer arrives, so a late
///    arrival makes every decision a descending one makes. Only the
///    dangling-sibling repair (`split::ensure_parent_entry`) is left to
///    descending writers: a directed writer's hop says only that the
///    directory is older than a split.
///
/// # Rebuild rule
///
/// *Regret* counts what the directory failed to settle in one hop:
/// fallback descents and extra sibling hops. The operation that takes it
/// to `max(entries, 4096)` rebuilds, inline and single-flight, reading
/// every node above the leaves once and paying the model for it like any
/// reader (one hop and one linear scan per level-1 node). A level-1 node
/// routes to ≥ `capacity / 2` leaves (13 at 512-byte nodes, ≈ 24 at the
/// bulk loader's fill), so a rebuild reads at most one level-1 node per
/// 13 regretted operations, one per ≈ 24 on a bulk-loaded tree.
pub(crate) struct LeafDirectory {
    /// The owning tree's reclamation domain: retired directories go
    /// through it, and lookups must be pinned in it.
    epoch: Arc<EpochDomain>,
    /// Bumped by every path that takes a node off the tree.
    gen: AtomicU64,
    /// The directory in use; null until the first build.
    current: AtomicPtr<Directory>,
    regret: AtomicU64,
    /// Regret at which the next build is due.
    due: AtomicU64,
    /// Single-flight latch of the build.
    building: AtomicBool,
}

impl LeafDirectory {
    pub(crate) fn new(epoch: Arc<EpochDomain>) -> LeafDirectory {
        LeafDirectory {
            epoch,
            gen: AtomicU64::new(0),
            current: AtomicPtr::new(std::ptr::null_mut()),
            regret: AtomicU64::new(0),
            due: AtomicU64::new(MIN_REGRET),
            building: AtomicBool::new(false),
        }
    }

    /// The directory in use, borrowed for as long as `pin` is held.
    fn current<'a>(&self, pin: &'a Guard) -> Option<&'a Directory> {
        assert!(
            pin.pins(&self.epoch),
            "leaf directory read under a foreign pin"
        );
        // SAFETY: `current` is null or a `Box::into_raw` pointer stored by
        // `publish`. A published directory is freed only by a closure
        // `publish` defers through `self.epoch` *after* swapping the pointer
        // out, which runs once every guard of that domain pinned at the
        // swap is gone. `pin` is such a guard (asserted above) and outlives
        // the reference, so a pointer loaded under it is not freed while
        // the reference lives. A directory is never mutated.
        unsafe { self.current.load(Ordering::SeqCst).as_ref() }
    }

    /// The leaf the directory names for `key`, if there is a directory and
    /// no node has left the tree since it was built (invariant 2).
    fn lookup(&self, key: Key, pin: &Guard) -> Option<PmOffset> {
        let dir = self.current(pin)?;
        // SeqCst against `invalidate`: reading `g` here, after the caller's
        // pin, orders that pin before every later bump.
        if dir.gen != self.gen.load(Ordering::SeqCst) {
            return None;
        }
        Some(dir.leaf(key))
    }

    /// Adds `n` to the regret. True if a build is now due and the caller
    /// has won the right to run it; it must then call [`publish`].
    ///
    /// [`publish`]: Self::publish
    fn regret(&self, n: u64) -> bool {
        // Statistics: Relaxed. The latch's Acquire pairs with `publish`'s
        // Release, so a builder sees its predecessor's reset.
        self.regret.fetch_add(n, Ordering::Relaxed) + n >= self.due.load(Ordering::Relaxed)
            && !self.building.swap(true, Ordering::Acquire)
    }

    /// Ends a build: swaps `entries` in — unless a node left the tree since
    /// `gen` was read, which would leave them dead on arrival — retires the
    /// directory they replace, and re-arms the rebuild rule either way.
    fn publish(&self, gen: u64, entries: Vec<(Key, PmOffset)>) {
        if gen == self.gen.load(Ordering::SeqCst) {
            assert_eq!(entries.first().map(|e| e.0), Some(Key::MIN));
            self.due
                .store((entries.len() as u64).max(MIN_REGRET), Ordering::Relaxed);
            let new = Box::into_raw(Box::new(Directory::new(gen, &entries)));
            let old = self.current.swap(new, Ordering::SeqCst);
            if !old.is_null() {
                // An `AtomicPtr` only to carry the pointer into a `Send`
                // closure.
                let old = AtomicPtr::new(old);
                // SAFETY: see `free`; the closure runs after every pin that
                // could have loaded `old` is gone, and nothing can load it
                // again.
                self.epoch
                    .defer(move || unsafe { Self::free(old.into_inner()) });
            }
            stats::count(|s| s.leaf_hint_rebuilds += 1);
        }
        self.regret.store(0, Ordering::Relaxed);
        self.building.store(false, Ordering::Release);
    }

    /// Makes the directory unusable; called after a node left the tree and
    /// before its block is handed to the epoch domain (invariant 2).
    pub(crate) fn invalidate(&self) {
        self.gen.fetch_add(1, Ordering::SeqCst);
    }

    /// Frees a directory.
    ///
    /// # Safety
    ///
    /// `dir` is null or came from `Box::into_raw` in [`publish`], is no
    /// longer in `current`, and no reference into it remains.
    ///
    /// [`publish`]: Self::publish
    unsafe fn free(dir: *mut Directory) {
        if !dir.is_null() {
            // SAFETY: the caller's contract.
            drop(unsafe { Box::from_raw(dir) });
        }
    }

    /// Test hook: the generation counter.
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u64 {
        self.gen.load(Ordering::SeqCst)
    }

    /// Test hook: regret since the last build.
    #[cfg(test)]
    pub(crate) fn regret_count(&self) -> u64 {
        self.regret.load(Ordering::Relaxed)
    }

    /// Test hook: the entries of the directory in use, stale or not.
    #[cfg(test)]
    pub(crate) fn entries(&self, pin: &Guard) -> Option<Vec<(Key, PmOffset)>> {
        let blocks = self.current(pin)?.blocks.iter();
        let mut entries: Vec<_> = blocks.flat_map(|b| b.0).collect();
        // Separators ascend strictly, so only the padding repeats.
        entries.dedup();
        Some(entries)
    }
}

impl Drop for LeafDirectory {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no lookup is running or can start, and the
        // pointer dies with `current` here.
        unsafe { Self::free(*self.current.get_mut()) };
    }
}

impl FastFairTree {
    /// The leaf a leaf-level operation on `key` starts at, and whether the
    /// directory chose it (`true`) or a root-to-leaf descent did (`false`).
    ///
    /// `get`, leaf-level `insert` / `update`, `remove` and both cursor
    /// seeks enter through here: a lookup in the directory and one
    /// charged hop to the leaf it names — believed only if invariant 2
    /// holds and the block is a live leaf — otherwise [`find_leaf`]. Either
    /// way the caller moves right from there while the leaf's high key says
    /// so, under its own protocol, and reports how it went to [`settle`].
    /// `pin` is the operation's pin of this tree's epoch domain.
    ///
    /// [`find_leaf`]: Self::find_leaf
    /// [`settle`]: Self::settle
    pub(crate) fn locate_leaf(&self, key: Key, pin: &Guard) -> (PmOffset, bool) {
        stats::count(|s| s.leaf_hint_lookups += 1);
        let named = self.directory.lookup(key, pin).filter(|&off| {
            let leaf = self.visit(off, 0);
            leaf.is_leaf() && !leaf.is_deleted()
        });
        let located = match named {
            Some(off) => (off, true),
            None => {
                self.regret_directory(1);
                (self.find_leaf(key), false)
            }
        };
        #[cfg(test)]
        crate::tests::after_locate(located.0);
        located
    }

    /// Books a leaf-level operation that finished where [`locate_leaf`]
    /// started it plus `hops` sibling hops: a hit if the directory chose
    /// the start, and the hops — splits the directory has not seen — as
    /// regret.
    ///
    /// [`locate_leaf`]: Self::locate_leaf
    pub(crate) fn settle(&self, directed: bool, hops: u64) {
        if directed {
            stats::count(|s| s.leaf_hint_hits += 1);
            if hops > 0 {
                self.regret_directory(hops);
            }
        }
    }

    /// Counts `n` operations (or hops) the directory did not settle, and
    /// rebuilds it if that trips the rule.
    pub(crate) fn regret_directory(&self, n: u64) {
        if !self.directory.regret(n) {
            return;
        }
        let gen = self.directory.gen.load(Ordering::SeqCst);
        // Level by level from the root, carrying each node's lower bound
        // down to its leftmost child. A node that splits under the walk
        // hides its new sibling's children (a short directory: sibling
        // hops) or shows them twice (dropped: separators must ascend).
        let root = self.root();
        let mut nodes = vec![(Key::MIN, root)];
        let mut children = Vec::new();
        for level in (1..=self.node(root).level()).rev() {
            let mut below: Vec<(Key, PmOffset)> = Vec::new();
            for &(lower, off) in &nodes {
                let node = self.visit(off, level);
                children.clear();
                children.push((lower, node.leftmost()));
                read_entries(node, &mut children);
                for &(sep, child) in &children {
                    if below.last().is_none_or(|&(last, _)| last < sep) {
                        below.push((sep, child));
                    }
                }
            }
            nodes = below;
        }
        self.directory.publish(gen, nodes);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The blocked lookup names exactly the leaf the binary search of
        /// the flat array named, for 1, B − 1, B, B + 1 and ≈ 10 B entries
        /// (some ending in a partial block), at every separator, one either
        /// side of it, 0 and `u64::MAX`.
        #[test]
        fn a_blocked_lookup_names_the_leaf_the_flat_search_named(
            size in 0usize..5,
            draws in prop::collection::vec(1..u64::MAX, 10 * B + 3..10 * B + 4),
            dense in 0u8..3,
        ) {
            let len = [1, B - 1, B, B + 1, 10 * B + 3][size];
            // Dense separators make `sep ± 1` land on a neighbour; one run
            // in three ends on `u64::MAX` itself.
            let drawn: BTreeSet<Key> = draws
                .iter()
                .map(|&d| if dense == 0 { d % (4 * len as u64) + 1 } else { d })
                .collect();
            let mut seps: Vec<Key> = std::iter::once(0).chain(drawn).take(len).collect();
            if dense == 2 && len > 1 {
                seps[len - 1] = u64::MAX;
            }
            let entries: Vec<(Key, PmOffset)> =
                seps.iter().enumerate().map(|(i, &s)| (s, 4096 + 512 * i as u64)).collect();
            let dir = Directory::new(0, &entries);
            let flat = |key: Key| entries[entries.partition_point(|&(sep, _)| sep <= key) - 1].1;
            let probes = seps
                .iter()
                .flat_map(|&s| [s, s.wrapping_sub(1), s.wrapping_add(1)])
                .chain([0, u64::MAX]);
            for key in probes {
                prop_assert_eq!(dir.leaf(key), flat(key), "key {} of {:?}", key, seps);
            }
        }
    }
}

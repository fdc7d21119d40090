//! Volatile leaf hints: skip the root-to-leaf descent for a key this handle
//! has stood on before.
//!
//! Under a 300 ns persistent-memory read, most of a point operation is the
//! chain of dependent node reads on the way down. Skewed traffic names the
//! same keys again and again, and a B-link tree already tolerates a
//! slightly stale entry point (sibling chain, lazy repair — §4.2), so a
//! handle remembers `key → leaf` in DRAM and tries that leaf first. The
//! table is a cache of *where to look*, never of *what is there*: nothing
//! in it is persistent, nothing in it is needed for recovery, and a crash
//! or a reopen simply starts cold.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use epoch::EpochDomain;
use pmem::{stats, PmOffset, CACHE_LINE, NULL_OFFSET};
use pmindex::Key;

/// log2 of the slot count: 16 384 slots × 16 bytes = 256 KB per handle.
const SLOT_BITS: u32 = 14;

/// Point operations a handle serves before it allocates its table, so that
/// `create` / `open` stay allocation-free and short-lived handles (a
/// restart probe, a test fixture) never pay for one.
const WARMUP_OPS: u32 = 4096;

/// Bits of a packed slot word that hold the leaf offset in cache lines
/// (pools up to 64 TB); the rest hold the generation.
const OFF_BITS: u32 = 40;

/// Generations a table hands out before it closes to be wiped (see
/// [`HintTable::invalidate`]).
pub(crate) const GEN_LIMIT: u64 = 1 << (64 - OFF_BITS);

/// One direct-mapped entry: the key, and `generation << OFF_BITS | offset
/// / 64` in one word so that an offset is never read apart from the
/// generation it was stored under. 0 is "empty" (generation 0 is never
/// handed out). The two words may come from different installs; the worst
/// that does is send a lookup to some other key's leaf, where the key is
/// not found.
#[derive(Default)]
struct Slot {
    key: AtomicU64,
    loc: AtomicU64,
}

/// The leaf offset packed in a slot word.
fn leaf_of(loc: u64) -> PmOffset {
    (loc & ((1 << OFF_BITS) - 1)) * CACHE_LINE as u64
}

/// A fixed-size, DRAM-only, direct-mapped table `key → (leaf offset,
/// generation)`.
///
/// # Invariants
///
/// 1. **A hint is acted on only after the key is found valid in the hinted
///    leaf under that leaf's normal protocol** — the lock-free reader's
///    scan with its switch-counter / head / seal recheck, the writer's
///    latch → deleted check → repair → `covering_sibling` →
///    `find_valid_slot`. Anything else falls back to the full descent. A
///    hinted operation is therefore indistinguishable from a descending
///    one that was slow to arrive at the leaf: a wrong hint costs a wasted
///    hop, never an answer or a store.
/// 2. **The generation is read after the epoch pin and bumped before any
///    unlinked block can reach [`pmem::Pool::free`]**, and a hint stored
///    under another generation is ignored. The installer read generation
///    `g`, then saw the key valid in leaf `L`; `L` is unlinked only once
///    empty, so any retirement of `L` bumps the generation past `g` after
///    that. A reader that still reads `g` after pinning was therefore
///    pinned before `L` was retired, and the epoch rule keeps `L`'s block
///    out of the allocator until it unpins: a hinted block is always still
///    this tree's node (possibly unlinked and empty), never a recycled one.
/// 3. **Only `get` and the leaf-level overwrite of `insert` / `update`
///    consult the table.** Scans, `remove`, inserts of a new key, answers
///    for an absent key and inserts above the leaf level always descend.
pub(crate) struct HintTable {
    /// Every path that takes a node off the tree adds one. At
    /// [`limit`](Self::limit) and above the table is closed.
    gen: AtomicU64,
    /// Where the generation stops fitting a slot word ([`GEN_LIMIT`];
    /// tests narrow it).
    limit: u64,
    slots: Box<[Slot]>,
}

impl HintTable {
    fn new(limit: u64) -> HintTable {
        debug_assert!((2..=GEN_LIMIT).contains(&limit));
        HintTable {
            gen: AtomicU64::new(1),
            limit,
            slots: (0..1usize << SLOT_BITS).map(|_| Slot::default()).collect(),
        }
    }

    fn slot(&self, key: Key) -> &Slot {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOT_BITS);
        &self.slots[h as usize]
    }

    fn probe(&self, key: Key) -> Probe<'_> {
        // SeqCst against `invalidate`'s increment: reading `g` here, after
        // the caller's pin, orders that pin before every later bump.
        let gen = self.gen.load(Ordering::SeqCst);
        if gen >= self.limit {
            return Probe::NONE;
        }
        // The slot words publish nothing but themselves (invariant 1 checks
        // whatever they say), so they need no ordering.
        let slot = self.slot(key);
        let loc = slot.loc.load(Ordering::Relaxed);
        let leaf = if loc >> OFF_BITS == gen && slot.key.load(Ordering::Relaxed) == key {
            leaf_of(loc)
        } else {
            NULL_OFFSET
        };
        Probe {
            table: Some(self),
            gen,
            leaf,
        }
    }

    /// Makes every hint stored so far unusable; called after a node left
    /// the tree and before its block is handed to the epoch domain.
    ///
    /// The generation that no longer fits a slot word closes the table
    /// instead of wrapping: lookups miss and installs are dropped until a
    /// deferred [`reopen`](Self::reopen) has run. The epoch domain runs it
    /// only once every operation pinned at this moment has unpinned, so
    /// nobody who read a generation of the old numbering is still about to
    /// store a slot, and the wipe leaves nothing that a reused number
    /// could make valid again.
    fn invalidate(self: &Arc<Self>, epoch: &EpochDomain) {
        if self.gen.fetch_add(1, Ordering::SeqCst) + 1 == self.limit {
            let table = Arc::clone(self);
            epoch.defer(move || table.reopen());
        }
    }

    /// Wipes the closed table and restarts the numbering. A bump that
    /// races the final store may be overwritten by it: the table was
    /// closed and empty when that bump's node left the tree, so there was
    /// nothing for it to invalidate.
    fn reopen(&self) {
        for slot in self.slots.iter() {
            slot.loc.store(0, Ordering::Relaxed);
        }
        self.gen.store(1, Ordering::SeqCst);
    }
}

/// One operation's view of the table: the generation it read on entry,
/// the leaf hinted for its key (if any), and the right to install a hint
/// under that generation once a full descent has found the key.
pub(crate) struct Probe<'a> {
    table: Option<&'a HintTable>,
    gen: u64,
    leaf: PmOffset,
}

impl Probe<'_> {
    /// No table yet, or a closed one: nothing hinted, nothing installed.
    const NONE: Probe<'static> = Probe {
        table: None,
        gen: 0,
        leaf: NULL_OFFSET,
    };

    /// The leaf to try before descending.
    pub(crate) fn leaf(&self) -> Option<PmOffset> {
        (self.leaf != NULL_OFFSET).then_some(self.leaf)
    }

    /// Records that a full descent found `key` valid in the leaf at `off`.
    /// Stored under the generation read *before* that descent (invariant
    /// 2): if a node left the tree meanwhile the hint is born stale.
    pub(crate) fn install(&self, key: Key, off: PmOffset) {
        let Some(table) = self.table else { return };
        let line = off / CACHE_LINE as u64;
        if line >> OFF_BITS != 0 {
            return;
        }
        let loc = self.gen << OFF_BITS | line;
        let slot = table.slot(key);
        slot.key.store(key, Ordering::Relaxed);
        slot.loc.store(loc, Ordering::Relaxed);
    }
}

/// A tree handle's leaf hints: nothing until the handle has served
/// [`WARMUP_OPS`] point operations, a [`HintTable`] from then on.
pub(crate) struct LeafHints {
    warmup: AtomicU32,
    table: OnceLock<Arc<HintTable>>,
}

impl LeafHints {
    pub(crate) const fn new() -> LeafHints {
        LeafHints {
            warmup: AtomicU32::new(0),
            table: OnceLock::new(),
        }
    }

    /// Looks `key` up for one point operation. Must be called inside the
    /// operation's epoch pin (invariant 2).
    pub(crate) fn probe(&self, key: Key) -> Probe<'_> {
        stats::count_leaf_hint_lookup();
        match self.table.get() {
            Some(table) => table.probe(key),
            None => {
                // A statistic, not a publication: Relaxed.
                if self.warmup.fetch_add(1, Ordering::Relaxed) >= WARMUP_OPS {
                    self.table
                        .get_or_init(|| Arc::new(HintTable::new(GEN_LIMIT)));
                }
                Probe::NONE
            }
        }
    }

    /// See [`HintTable::invalidate`]. Without a table there are no hints
    /// to invalidate: whoever publishes one after this check can only hint
    /// leaves it reaches from the root after this node was unlinked.
    pub(crate) fn invalidate(&self, epoch: &EpochDomain) {
        if let Some(table) = self.table.get() {
            table.invalidate(epoch);
        }
    }

    /// Test hook: allocates the table now, closing after `limit`
    /// generations.
    #[cfg(test)]
    pub(crate) fn warm_with_limit(&self, limit: u64) {
        assert!(self.table.set(Arc::new(HintTable::new(limit))).is_ok());
    }

    /// Test hook: the table's generation counter.
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u64 {
        self.table.get().expect("warm").gen.load(Ordering::SeqCst)
    }

    /// Test hook: the leaf `key`'s slot names, whatever its generation.
    #[cfg(test)]
    pub(crate) fn stored_leaf(&self, key: Key) -> Option<PmOffset> {
        let slot = self.table.get().expect("warm").slot(key);
        let loc = slot.loc.load(Ordering::Relaxed);
        (loc != 0 && slot.key.load(Ordering::Relaxed) == key).then(|| leaf_of(loc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hinted(t: &HintTable, key: Key) -> Option<PmOffset> {
        t.probe(key).leaf()
    }

    #[test]
    fn install_then_probe_roundtrip_and_generation_gate() {
        let t = Arc::new(HintTable::new(GEN_LIMIT));
        let e = EpochDomain::new();
        assert_eq!(hinted(&t, 7), None);
        let p = t.probe(7);
        p.install(7, 4096);
        assert_eq!(hinted(&t, 7), Some(4096));
        // Another key mapping elsewhere (or to the same slot) never reads 7's.
        assert_eq!(hinted(&t, 8), None);
        // A bump hides it; an install under the old generation stays hidden.
        t.invalidate(&e);
        assert_eq!(hinted(&t, 7), None);
        p.install(7, 4096);
        assert_eq!(hinted(&t, 7), None);
        t.probe(7).install(7, 8192);
        assert_eq!(hinted(&t, 7), Some(8192));
        // Offsets too large for the packed word are not stored.
        t.probe(9).install(9, 1 << 46);
        assert_eq!(hinted(&t, 9), None);
    }

    #[test]
    fn colliding_keys_share_a_slot_without_aliasing() {
        let t = HintTable::new(GEN_LIMIT);
        let a = 1u64;
        let b = (2..).find(|&k| std::ptr::eq(t.slot(k), t.slot(a))).unwrap();
        t.probe(a).install(a, 64);
        t.probe(b).install(b, 128);
        assert_eq!(hinted(&t, a), None);
        assert_eq!(hinted(&t, b), Some(128));
    }

    /// The numbering never wraps onto a live hint: the table closes at the
    /// limit, stays closed while any operation from before is pinned, and
    /// reopens empty.
    #[test]
    fn generation_limit_closes_wipes_and_reopens() {
        let t = Arc::new(HintTable::new(4));
        let e = EpochDomain::new();
        let old = t.probe(1); // generation 1
        old.install(1, 64);
        let straggler = e.pin();
        t.invalidate(&e); // 2
        t.invalidate(&e); // 3
        t.probe(2).install(2, 128);
        assert_eq!(hinted(&t, 2), Some(128));
        t.invalidate(&e); // 4 = limit: closed
        assert_eq!(hinted(&t, 2), None);
        t.probe(2).install(2, 128);
        // Closed for as long as the straggler may still store a slot…
        for _ in 0..4 {
            e.try_advance();
            e.collect();
            t.invalidate(&e);
        }
        assert!(t.gen.load(Ordering::SeqCst) > t.limit);
        // …which it does, under the old numbering's generation 1.
        old.install(1, 64);
        drop(straggler);
        while t.gen.load(Ordering::SeqCst) >= t.limit {
            e.try_advance();
            e.collect();
        }
        // Reopened at generation 1 again, and the old generation-1 hint is gone.
        assert_eq!(t.gen.load(Ordering::SeqCst), 1);
        assert_eq!(hinted(&t, 1), None);
        assert_eq!(hinted(&t, 2), None);
        t.probe(1).install(1, 192);
        assert_eq!(hinted(&t, 1), Some(192));
    }

    #[test]
    fn handle_allocates_only_after_warmup() {
        let h = LeafHints::new();
        let e = EpochDomain::new();
        for _ in 0..WARMUP_OPS {
            h.probe(1).install(1, 64);
            h.invalidate(&e);
        }
        assert!(h.table.get().is_none());
        h.probe(1);
        assert!(h.table.get().is_some());
        h.probe(1).install(1, 64);
        assert_eq!(h.probe(1).leaf(), Some(64));
    }
}

//! Per-node reader-writer spin latches, held in DRAM by the tree handle.
//!
//! The paper's implementation guards each node with a `std::mutex` for
//! writers; readers are lock-free by default, or take *leaf read locks* in
//! the serializable `FAST+FAIR+LeafLock` variant (§4.1, Fig. 7). A latch
//! here is one `AtomicU32` of the handle's latch table
//! ([`FastFairTree`](crate::FastFairTree) owns it, one word per
//! `node_size` slot of the pool), and the superblock's latch is a handle
//! field. A latch is DRAM state, as the paper's mutex is: no store to it
//! reaches the pool, so no crash image can hold one, and a reopened tree
//! starts with every latch free. Header word 40 is reserved: never
//! written, and ignored on open, since a pool written by an earlier
//! version may hold a latch bit there.
//!
//! Layout of a latch: bit 31 = writer held; bit 30 = repaired, the node's
//! lazy repair has run since this handle opened the tree (see
//! [`WriteGuard::repaired`]); bits 0..29 = reader count. Lock and unlock
//! keep bit 30: a writer swaps `keep` for `keep | WRITER` and its release
//! stores `keep`.

use std::sync::atomic::{AtomicU32, Ordering};

const WRITER: u32 = 1 << 31;
const REPAIRED: u32 = 1 << 30;
const READERS: u32 = REPAIRED - 1;

/// A zeroed latch for every `node_size`-byte slot of a pool of
/// `pool_size` bytes. A node at offset `off` takes slot
/// `off / node_size`: two live nodes of one tree never overlap, so they
/// never share a slot.
pub(crate) fn latch_table(pool_size: u64, node_size: u32) -> Box<[AtomicU32]> {
    let slots = (pool_size / u64::from(node_size)) as usize;
    // SAFETY: an all-zero `AtomicU32` is a valid free latch. A zeroed
    // allocation costs no per-slot work, which every `open` would pay.
    unsafe { Box::new_zeroed_slice(slots).assume_init() }
}

/// Starts fetching `latch`'s line, so that the writer which latches the
/// node next does not miss on the table. A hint: it orders and changes
/// nothing, and is a no-op on targets other than `x86_64`.
#[inline]
pub(crate) fn prefetch(latch: &AtomicU32) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: the address is a live reference's; a prefetch neither
        // reads nor writes it.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(latch.as_ptr().cast_const().cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = latch;
}

/// Takes the write latch if no writer or reader holds it; returns the bits
/// the latch keeps while held.
fn try_lock_write(latch: &AtomicU32) -> Option<u32> {
    let keep = latch.load(Ordering::Relaxed);
    (keep & !REPAIRED == 0
        && latch
            .compare_exchange_weak(keep, keep | WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok())
    .then_some(keep)
}

/// RAII guard for a node write latch.
pub(crate) struct WriteGuard<'a> {
    latch: &'a AtomicU32,
    /// The latch word without the writer bit; the release stores it. No
    /// reader or writer changes the word while this guard holds it.
    keep: u32,
    armed: bool,
}

impl<'a> WriteGuard<'a> {
    /// Acquires the write latch, spinning until it is free.
    pub(crate) fn lock(latch: &'a AtomicU32) -> Self {
        loop {
            if let Some(keep) = try_lock_write(latch) {
                return WriteGuard {
                    latch,
                    keep,
                    armed: true,
                };
            }
            while latch.load(Ordering::Relaxed) & !REPAIRED != 0 {
                std::hint::spin_loop();
            }
        }
    }

    /// Whether the node's lazy repair has run since this handle opened the
    /// tree ([`repair_once`](crate::delete::repair_once) says why once is
    /// enough).
    pub(crate) fn repaired(&self) -> bool {
        self.keep & REPAIRED != 0
    }

    /// Records that the node's repair has run; the release publishes it.
    pub(crate) fn set_repaired(&mut self) {
        self.keep |= REPAIRED;
    }

    /// Releases the latch early (before drop).
    pub(crate) fn unlock(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if self.armed {
            debug_assert_eq!(
                self.latch.load(Ordering::Relaxed) & !REPAIRED,
                WRITER,
                "write-unlock of a latch this guard does not hold"
            );
            self.latch.store(self.keep, Ordering::Release);
            self.armed = false;
        }
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// RAII guard for a shared leaf read latch (the LeafLock variant only).
pub(crate) struct ReadGuard<'a> {
    latch: &'a AtomicU32,
}

impl<'a> ReadGuard<'a> {
    /// Acquires a read latch, spinning while a writer holds it.
    pub(crate) fn lock(latch: &'a AtomicU32) -> Self {
        loop {
            let w = latch.load(Ordering::Relaxed);
            debug_assert!(w & READERS < READERS, "reader count overflow");
            if w & WRITER == 0
                && latch
                    .compare_exchange_weak(w, w + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return ReadGuard { latch };
            }
            std::hint::spin_loop();
        }
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        let prev = self.latch.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & READERS > 0, "read-unlock without lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FastFairTree, TreeOptions};
    use pmem::{Pool, PoolConfig};
    use pmindex::PmIndex;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// `try_lock_write`, retried past a weak CAS's spurious failures: false
    /// only if the latch is held.
    fn lockable(latch: &AtomicU32) -> bool {
        match (0..64).find_map(|_| try_lock_write(latch)) {
            Some(keep) => {
                latch.store(keep, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// A latch whose node has been repaired: the bit that a writer keeps.
    fn repaired_latch() -> AtomicU32 {
        let latch = AtomicU32::new(0);
        let mut g = WriteGuard::lock(&latch);
        assert!(!g.repaired());
        g.set_repaired();
        g.unlock();
        assert_eq!(latch.load(Ordering::Relaxed), REPAIRED);
        latch
    }

    #[test]
    fn write_lock_excludes_writers() {
        let latch = AtomicU32::new(0);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let _g = WriteGuard::lock(&latch);
                        // Non-atomic-looking RMW protected by the latch.
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
        assert_eq!(latch.load(Ordering::Relaxed), 0, "latch released");
    }

    #[test]
    fn a_repaired_latch_still_excludes_writers() {
        let latch = repaired_latch();
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let g = WriteGuard::lock(&latch);
                        assert!(g.repaired());
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
        assert_eq!(latch.load(Ordering::Relaxed), REPAIRED, "bit kept");
    }

    /// Readers under the latch never see a writer's two stores apart, and
    /// the reader count sits below the bit.
    #[test]
    fn a_repaired_latch_still_excludes_readers() {
        let latch = repaired_latch();
        let r1 = ReadGuard::lock(&latch);
        let r2 = ReadGuard::lock(&latch);
        assert_eq!(latch.load(Ordering::Relaxed), REPAIRED | 2);
        assert!(!lockable(&latch));
        drop(r1);
        assert!(!lockable(&latch));
        drop(r2);
        let (a, b) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let _g = WriteGuard::lock(&latch);
                        let v = a.load(Ordering::Relaxed) + 1;
                        a.store(v, Ordering::Relaxed);
                        std::hint::spin_loop();
                        b.store(v, Ordering::Relaxed);
                    }
                });
                s.spawn(|| {
                    for _ in 0..1000 {
                        let _r = ReadGuard::lock(&latch);
                        assert_eq!(a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
                    }
                });
            }
        });
        assert_eq!(b.load(Ordering::Relaxed), 2000);
        assert_eq!(latch.load(Ordering::Relaxed), REPAIRED);
    }

    /// Lock and unlock, early or on drop, keep the bit; only a new latch
    /// table (a new handle) clears it.
    #[test]
    fn unlock_keeps_the_repaired_bit() {
        let latch = repaired_latch();
        WriteGuard::lock(&latch).unlock();
        assert_eq!(latch.load(Ordering::Relaxed), REPAIRED);
        drop(WriteGuard::lock(&latch));
        assert_eq!(latch.load(Ordering::Relaxed), REPAIRED);
        drop(ReadGuard::lock(&latch));
        assert_eq!(latch.load(Ordering::Relaxed), REPAIRED);
        assert!(WriteGuard::lock(&latch).repaired());
        assert!(latch_table(1 << 16, 256)
            .iter()
            .all(|l| l.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn readers_share_writers_exclude() {
        let latch = AtomicU32::new(0);
        let r1 = ReadGuard::lock(&latch);
        let r2 = ReadGuard::lock(&latch);
        assert!(!lockable(&latch));
        drop(r1);
        assert!(!lockable(&latch));
        drop(r2);
        assert!(lockable(&latch));
    }

    #[test]
    fn guard_releases_on_drop() {
        let latch = AtomicU32::new(0);
        {
            let _g = WriteGuard::lock(&latch);
            assert!(!lockable(&latch));
        }
        assert!(lockable(&latch));
    }

    #[test]
    fn explicit_unlock_consumes_guard() {
        let latch = AtomicU32::new(0);
        let g = WriteGuard::lock(&latch);
        g.unlock();
        assert!(lockable(&latch));
    }

    /// A latch round trip writes nothing to the pool, whether the latch
    /// holds the repaired bit (the leaf's) or not (the superblock's): the
    /// crash log, the image and the header line's dirty bit are what they
    /// were, so a flush of the clean header line right after it is
    /// coalesced.
    #[test]
    fn a_latch_round_trip_leaves_the_pool_untouched() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(1 << 16).crash_log(true)).unwrap());
        let t = FastFairTree::create(Arc::clone(&p), TreeOptions::new().node_size(256)).unwrap();
        t.insert(7, 70).unwrap();
        let leaf = t.find_leaf(7);
        // The insert repaired the leaf: its latch holds the bit.
        assert_eq!(t.latch(leaf).load(Ordering::Relaxed), REPAIRED);
        p.flush_line(leaf);
        p.sfence();
        let (events, image) = (p.crash_log().unwrap().len(), p.volatile_image());
        drop(WriteGuard::lock(t.latch(leaf)));
        drop(ReadGuard::lock(t.latch(leaf)));
        drop(WriteGuard::lock(&t.meta_latch));
        assert_eq!(t.latch(leaf).load(Ordering::Relaxed), REPAIRED);
        assert_eq!(p.crash_log().unwrap().len(), events);
        assert!(p.volatile_image() == image, "a latch wrote to the pool");
        let coalesced = pmem::stats::snapshot().flushes_coalesced;
        p.flush_line(leaf);
        assert_eq!(
            pmem::stats::snapshot().flushes_coalesced,
            coalesced + 1,
            "the header line was dirtied"
        );
    }
}

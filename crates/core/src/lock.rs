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
//! Layout of a latch: bit 31 = writer held; bits 0..30 = reader count.

use std::sync::atomic::{AtomicU32, Ordering};

const WRITER: u32 = 1 << 31;

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

fn try_lock_write(latch: &AtomicU32) -> bool {
    latch
        .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
}

/// RAII guard for a node write latch.
pub(crate) struct WriteGuard<'a> {
    latch: &'a AtomicU32,
    armed: bool,
}

impl<'a> WriteGuard<'a> {
    /// Acquires the write latch, spinning until it is free.
    pub(crate) fn lock(latch: &'a AtomicU32) -> Self {
        while !try_lock_write(latch) {
            while latch.load(Ordering::Relaxed) != 0 {
                std::hint::spin_loop();
            }
        }
        WriteGuard { latch, armed: true }
    }

    /// Releases the latch early (before drop).
    pub(crate) fn unlock(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if self.armed {
            debug_assert_eq!(self.latch.load(Ordering::Relaxed), WRITER);
            self.latch.store(0, Ordering::Release);
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
        debug_assert!(prev & !WRITER > 0, "read-unlock without lock");
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
        let free = (0..64).any(|_| try_lock_write(latch));
        if free {
            latch.store(0, Ordering::Release);
        }
        free
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

    /// A latch round trip writes nothing to the pool: the crash log, the
    /// image and the header line's dirty bit are what they were, so a flush
    /// of the clean header line right after it is coalesced.
    #[test]
    fn a_latch_round_trip_leaves_the_pool_untouched() {
        let p = Arc::new(Pool::new(PoolConfig::new().size(1 << 16).crash_log(true)).unwrap());
        let t = FastFairTree::create(Arc::clone(&p), TreeOptions::new().node_size(256)).unwrap();
        t.insert(7, 70).unwrap();
        let leaf = t.find_leaf(7);
        p.flush_line(leaf);
        p.sfence();
        let (events, image) = (p.crash_log().unwrap().len(), p.volatile_image());
        drop(WriteGuard::lock(t.latch(leaf)));
        drop(ReadGuard::lock(t.latch(leaf)));
        drop(WriteGuard::lock(&t.meta_latch));
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

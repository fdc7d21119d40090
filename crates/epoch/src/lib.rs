//! # Online epoch-based reclamation for persistent-memory nodes
//!
//! FAST+FAIR readers are lock-free: a merge that unlinks an empty leaf
//! cannot return its block to [`pmem::Pool::free`] on the spot, because a
//! concurrent reader may still be walking the node through a sibling
//! pointer it loaded a moment earlier. Before this crate existed, every
//! index in this repository *deferred* recycling to a quiescent point
//! (`recover` or `Drop`) — which, for a long-running process, means
//! unlinked nodes accumulate for the lifetime of the handle.
//!
//! This crate closes that gap with classic three-epoch reclamation
//! (Fraser-style, the scheme behind `crossbeam-epoch`), adapted to pool
//! offsets instead of heap pointers:
//!
//! * an [`EpochDomain`] owns a **global epoch clock** and a registry of
//!   per-thread participants; it holds each participant strongly, beside
//!   the thread-local that names it;
//! * every reader/writer critical section is wrapped in a [`Guard`]
//!   obtained from [`EpochDomain::pin`] — pinning announces the epoch the
//!   thread observed, and nested pins are free. A guard borrows its domain,
//!   points at its participant and stays on the thread that pinned it, so
//!   a pin plus its unpin costs one atomic read-modify-write (the `SeqCst`
//!   announcement) and one releasing store outside maintenance;
//! * an unlinked node is [*retired*](EpochDomain::retire_pm) onto the
//!   **limbo list** of the current epoch rather than freed;
//! * [`EpochDomain::try_advance`] moves the clock forward once every
//!   pinned participant has caught up, and [`EpochDomain::collect`]
//!   returns limbo blocks to [`pmem::Pool::free`] once **two** epochs have
//!   passed since their retirement — at that point no pinned reader can
//!   still hold a reference. Both run automatically, amortized over
//!   unpins, so reclamation happens *while traffic is live*.
//!
//! ## Crash story
//!
//! Limbo lists are volatile by design. A crash empties them and the
//! retired blocks leak until the index's recover-time sweep (or, for fully
//! unlinked nodes, forever — the standard PM-allocator trade-off this
//! repository documents on [`pmem::Pool::free`]). Nothing is ever freed
//! before it is durably unreachable, so a crash at any point between
//! retirement and collection can never manufacture a double-free: the
//! post-crash image simply still contains the node, unlinked and inert.
//!
//! ## Observability
//!
//! Every advance, retirement and online free is counted in
//! [`pmem::stats`] (`epoch_advances`, `nodes_limbo`,
//! `nodes_recycled_online`) on the thread that performed it, and mirrored
//! in cross-thread [`EpochDomain`] totals for tests and tooling.
//!
//! Setting `FF_EPOCH_STRESS=1` in the environment makes every unpin run
//! the advance/collect maintenance step (instead of every
//! [`MAINTENANCE_INTERVAL`]th), maximizing reclamation churn — the CI
//! service-soak job runs with it on.
//!
//! ```
//! use std::sync::Arc;
//! use pmem::{Pool, PoolConfig};
//!
//! let domain = epoch::EpochDomain::new();
//! let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
//! let block = pool.alloc(512, 64)?;
//!
//! // A reader pins; a writer retires the (already unlinked) block.
//! let guard = domain.pin();
//! domain.retire_pm(&pool, block, 512);
//! domain.try_advance();
//! domain.try_advance(); // blocked: the reader is still pinned
//! assert_eq!(domain.collect(), 0);
//!
//! drop(guard); // reader leaves its critical section
//! while domain.recycled() == 0 {
//!     domain.try_advance();
//!     domain.collect();
//! }
//! assert_eq!(pool.alloc(512, 64)?, block); // the block was recycled
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;
use pmem::{PmOffset, Pool};

/// Default number of unpins between automatic advance/collect maintenance
/// steps (per participant). `FF_EPOCH_STRESS=1` lowers it to 1.
pub const MAINTENANCE_INTERVAL: u64 = 32;

/// Retirements that trigger an eager maintenance attempt from
/// [`EpochDomain::retire_pm`] even before the unpin cadence fires.
const LIMBO_PRESSURE: u64 = 128;

fn maintenance_interval() -> u64 {
    static IV: OnceLock<u64> = OnceLock::new();
    *IV.get_or_init(|| {
        if std::env::var("FF_EPOCH_STRESS").as_deref() == Ok("1") {
            1
        } else {
            MAINTENANCE_INTERVAL
        }
    })
}

/// A deferred reclamation unit. Runs exactly once and reports how many
/// pool blocks it returned (so the online-recycling counters stay in
/// node units even for batched deferrals).
type Deferred = Box<dyn FnOnce() -> usize + Send>;

/// One epoch's worth of retired items.
struct Bucket {
    epoch: u64,
    items: Vec<Deferred>,
}

/// Participant state word layout: `[epoch:48][depth:15][pinned:1]`.
///
/// The thread that registered a participant is the word's only writer:
/// [`Guard`] is neither `Send` nor `Sync`, so every pin and unpin of a
/// participant runs on its own thread. Advancers only read the word.
const PINNED: u64 = 1;
const DEPTH_UNIT: u64 = 2;
const DEPTH_MASK: u64 = 0xFFFE;
const EPOCH_SHIFT: u32 = 16;

/// Per-thread (per domain) epoch announcement slot.
///
/// A participant lives as long as its domain holds it. The domain drops
/// it in [`EpochDomain::try_advance`] only once no thread-local names it
/// and it is unpinned. Without the thread-local nothing can pin it again.
/// A guard lives on the thread that pinned, so it normally drops before
/// that thread's thread-local does; one that outlives it (a guard held by
/// another thread-local, destroyed later at thread exit) keeps the
/// participant pinned, and so registered, until it drops. A guard's
/// pointer to its participant therefore never dangles.
struct Participant {
    state: AtomicU64,
    /// Outermost unpins since registration; drives the amortized
    /// maintenance. A relaxed load and store, not an RMW: the owner thread
    /// is its only writer.
    ops: AtomicU64,
}

impl Participant {
    fn new() -> Self {
        Participant {
            state: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        }
    }

    /// Decrements the pin depth; an outermost unpin also counts one op and
    /// returns `true` when that count makes the amortized maintenance due.
    ///
    /// The owner reads its own word relaxed: no other thread writes it. The
    /// outermost unpin is one `Release` store, which pairs with the
    /// advancer's load of the word: an advancer that sees the participant
    /// unpinned also sees every access of the critical section it closed,
    /// so nothing the section read is freed under it. Nothing after the
    /// unpin needs ordering against it, so it needs no RMW or fence. The op
    /// count is updated *before* that store, because once the participant
    /// is unpinned an orphaned one may be pruned and freed.
    fn unpin(&self) -> bool {
        let s = self.state.load(Ordering::Relaxed);
        debug_assert!(s & DEPTH_MASK != 0, "unpin without a matching pin");
        if s & DEPTH_MASK != DEPTH_UNIT {
            self.state.store(s - DEPTH_UNIT, Ordering::Relaxed);
            return false;
        }
        let n = self.ops.load(Ordering::Relaxed) + 1;
        self.ops.store(n, Ordering::Relaxed);
        // Keep the epoch bits, clear depth + pinned.
        self.state
            .store(s & !(DEPTH_MASK | PINNED), Ordering::Release);
        n.is_multiple_of(maintenance_interval())
    }
}

/// One thread-local registration: (domain id, domain liveness probe,
/// this thread's participant in it).
type TlsEntry = (u64, Weak<EpochDomain>, Arc<Participant>);

thread_local! {
    /// This thread's participant per domain it has pinned, keyed by the
    /// domain's unique id. Entries for dropped domains are pruned
    /// opportunistically once the list grows.
    static PARTICIPANTS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

/// A global epoch clock with per-thread participants, per-epoch limbo
/// lists for retired pmem blocks, and an advance/collect path that
/// returns blocks to [`Pool::free`] once two epochs have passed — all
/// while traffic is live.
///
/// Each index owns one domain (see e.g. `fastfair::FastFairTree::epoch`);
/// sharing a domain across structures is possible but couples their
/// reclamation cadence.
pub struct EpochDomain {
    id: u64,
    global: AtomicU64,
    participants: Mutex<Vec<Arc<Participant>>>,
    limbo: Mutex<Vec<Bucket>>,
    /// Retired items not yet collected (cross-thread gauge).
    limbo_len: AtomicU64,
    /// Successful epoch advances (cross-thread total).
    advances: AtomicU64,
    /// Pool blocks returned online by [`EpochDomain::collect`]
    /// (cross-thread total; quiescent [`EpochDomain::flush`] frees are
    /// *not* counted here).
    recycled: AtomicU64,
}

impl std::fmt::Debug for EpochDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochDomain")
            .field("epoch", &self.global_epoch())
            .field("limbo", &self.limbo_len())
            .field("recycled", &self.recycled())
            .finish()
    }
}

impl EpochDomain {
    /// Creates a fresh domain at epoch 0.
    ///
    /// ```
    /// let d = epoch::EpochDomain::new();
    /// assert_eq!(d.global_epoch(), 0);
    /// assert_eq!(d.limbo_len(), 0);
    /// ```
    pub fn new() -> Arc<EpochDomain> {
        static IDS: AtomicU64 = AtomicU64::new(1);
        Arc::new(EpochDomain {
            id: IDS.fetch_add(1, Ordering::Relaxed),
            global: AtomicU64::new(0),
            participants: Mutex::new(Vec::new()),
            limbo: Mutex::new(Vec::new()),
            limbo_len: AtomicU64::new(0),
            advances: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
        })
    }

    /// Current value of the global epoch clock.
    ///
    /// ```
    /// let d = epoch::EpochDomain::new();
    /// d.try_advance();
    /// assert_eq!(d.global_epoch(), 1);
    /// ```
    pub fn global_epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Retired items awaiting collection.
    ///
    /// ```
    /// let d = epoch::EpochDomain::new();
    /// d.defer(|| ());
    /// assert_eq!(d.limbo_len(), 1);
    /// ```
    pub fn limbo_len(&self) -> u64 {
        self.limbo_len.load(Ordering::SeqCst)
    }

    /// Successful epoch advances since creation.
    ///
    /// ```
    /// let d = epoch::EpochDomain::new();
    /// d.try_advance();
    /// d.try_advance();
    /// assert_eq!(d.advances(), 2);
    /// ```
    pub fn advances(&self) -> u64 {
        self.advances.load(Ordering::SeqCst)
    }

    /// Pool blocks returned to their pools *online* by
    /// [`EpochDomain::collect`] (quiescent [`EpochDomain::flush`] frees
    /// are excluded).
    ///
    /// ```
    /// let d = epoch::EpochDomain::new();
    /// assert_eq!(d.recycled(), 0);
    /// ```
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::SeqCst)
    }

    /// This thread's participant, registered on first use. A pointer, not
    /// a clone: the domain holds the participant for as long as a pin of
    /// it can live (see [`Participant`]), so taking it costs no RMW.
    fn participant(self: &Arc<Self>) -> NonNull<Participant> {
        PARTICIPANTS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if let Some((_, _, p)) = tls.iter().find(|(id, _, _)| *id == self.id) {
                return NonNull::from(&**p);
            }
            // Registering with a fresh domain: prune entries whose domain
            // died so a thread touching many short-lived trees stays O(1).
            if tls.len() >= 64 {
                tls.retain(|(_, w, _)| w.strong_count() > 0);
            }
            let p = Arc::new(Participant::new());
            let ptr = NonNull::from(&*p);
            self.participants.lock().push(Arc::clone(&p));
            tls.push((self.id, Arc::downgrade(self), p));
            ptr
        })
    }

    /// Pins the calling thread into the current epoch, marking the start
    /// of a reader/writer critical section. Blocks nothing and takes no
    /// lock on the hot path (first pin of a thread registers a
    /// participant). Nested pins are cheap — only the outermost guard
    /// announces and retracts the epoch.
    ///
    /// While any guard pinned at epoch `e` is live, no block retired at
    /// `e` or later can be freed.
    ///
    /// Outside maintenance a pin plus its unpin does one atomic
    /// read-modify-write, the `SeqCst` swap that announces the epoch, and
    /// one `Release` store that retracts it. The guard borrows the domain
    /// and points at the participant, so neither is reference-counted per
    /// pin.
    ///
    /// ```
    /// let d = epoch::EpochDomain::new();
    /// let outer = d.pin(); // pinned at epoch 0
    /// let inner = d.pin(); // nested: free
    /// assert!(d.try_advance());  // 0 -> 1: the guard is at epoch 0
    /// assert!(!d.try_advance()); // 1 -> 2 blocked while pinned at 0
    /// drop(inner);
    /// assert!(!d.try_advance()); // the outermost guard still pins
    /// drop(outer);
    /// assert!(d.try_advance());
    /// ```
    pub fn pin(self: &Arc<Self>) -> Guard<'_> {
        let ptr = self.participant();
        // SAFETY: the domain holds the participant, and cannot prune it
        // while this thread's thread-local names it (see `Participant`).
        let part = unsafe { ptr.as_ref() };
        // This thread is the word's only writer (see `Participant`).
        let s = part.state.load(Ordering::Relaxed);
        if s & DEPTH_MASK != 0 {
            // Nested: the epoch and the pinned bit stay, only the depth
            // moves, and no advancer reads the depth.
            debug_assert!((s & DEPTH_MASK) < DEPTH_MASK, "pin depth overflow");
            part.state.store(s + DEPTH_UNIT, Ordering::Relaxed);
        } else {
            // The announcement must be `SeqCst`: it is a store followed by
            // a load of another word (the clock), and the advancer does the
            // mirror image (a load of this word, then its clock CAS). Only a
            // single total order over the four makes either this thread see
            // the advance, or the advancer see the pin; release/acquire
            // would let both miss. The swap's acquire half keeps the
            // section's own reads after the announcement. If the clock
            // moved before the announcement landed, announce again, so a
            // pin never lags the clock.
            let mut g = self.global_epoch();
            loop {
                part.state
                    .swap((g << EPOCH_SHIFT) | DEPTH_UNIT | PINNED, Ordering::SeqCst);
                let now = self.global_epoch();
                if now == g {
                    break;
                }
                g = now;
            }
        }
        Guard {
            domain: self,
            participant: ptr,
        }
    }

    /// Retires a pool block for deferred recycling: once two epochs have
    /// passed, [`EpochDomain::collect`] returns it to [`Pool::free`]. The
    /// caller must have made the block unreachable for *new* traversals
    /// first (e.g. by unlinking it with a persisted store); only already
    /// pinned readers may still hold a reference, and the epoch rule
    /// waits for exactly those.
    ///
    /// Counted in `pmem::stats` as `nodes_limbo`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    ///
    /// let d = epoch::EpochDomain::new();
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
    /// let block = pool.alloc(256, 64)?;
    /// d.retire_pm(&pool, block, 256);
    /// assert_eq!(d.limbo_len(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn retire_pm(&self, pool: &Arc<Pool>, off: PmOffset, size: u64) {
        let pool = Arc::clone(pool);
        self.defer_units(move || {
            pool.free(off, size);
            1
        });
        if self.limbo_len() >= LIMBO_PRESSURE {
            self.try_advance();
            self.collect();
        }
    }

    /// Defers an arbitrary reclamation action (e.g. dropping a retired
    /// volatile node) until two epochs have passed. Counts as zero
    /// recycled blocks; [`EpochDomain::retire_pm`] frees a pool block.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use std::sync::atomic::{AtomicBool, Ordering};
    ///
    /// let d = epoch::EpochDomain::new();
    /// let ran = Arc::new(AtomicBool::new(false));
    /// let flag = Arc::clone(&ran);
    /// d.defer(move || flag.store(true, Ordering::SeqCst));
    /// d.try_advance();
    /// d.try_advance();
    /// d.collect();
    /// assert!(ran.load(Ordering::SeqCst));
    /// ```
    pub fn defer(&self, f: impl FnOnce() + Send + 'static) {
        self.defer_units(move || {
            f();
            0
        });
    }

    /// Like [`EpochDomain::defer`], but the action reports how many pool
    /// blocks it freed, which [`EpochDomain::collect`] adds to the
    /// online-recycling counters.
    fn defer_units(&self, f: impl FnOnce() -> usize + Send + 'static) {
        let g = self.global.load(Ordering::SeqCst);
        {
            let mut limbo = self.limbo.lock();
            match limbo.iter_mut().find(|b| b.epoch == g) {
                Some(b) => b.items.push(Box::new(f)),
                None => limbo.push(Bucket {
                    epoch: g,
                    items: vec![Box::new(f)],
                }),
            }
        }
        self.limbo_len.fetch_add(1, Ordering::SeqCst);
        pmem::stats::count(|s| s.nodes_limbo += 1);
    }

    /// Attempts to advance the global epoch by one. Succeeds — and counts
    /// an `epoch_advance` in `pmem::stats` — only when every pinned
    /// participant has announced the current epoch; a single stalled
    /// reader holds the clock (and therefore all reclamation) back, which
    /// is the safety property.
    ///
    /// Participants of exited threads are pruned here once unpinned.
    ///
    /// ```
    /// let d = epoch::EpochDomain::new();
    /// assert!(d.try_advance());
    /// let _g = d.pin(); // pinned at epoch 1
    /// assert!(d.try_advance()); // 1 -> 2: the guard *is* at epoch 1
    /// assert!(!d.try_advance()); // 2 -> 3 blocked: guard still at 1
    /// ```
    pub fn try_advance(&self) -> bool {
        let g = self.global.load(Ordering::SeqCst);
        {
            let mut parts = self.participants.lock();
            let mut all_caught_up = true;
            parts.retain(|p| {
                // Count first: once it reads 1 no thread-local names `p`
                // and nothing can pin it again. The fence pairs with the
                // thread-local's releasing drop, so the state read next
                // sees every pin and unpin its thread made; a guard that
                // outlived the thread-local still reads pinned, and keeps
                // `p` until its releasing unpin.
                let orphan = Arc::strong_count(p) == 1;
                fence(Ordering::Acquire);
                let s = p.state.load(Ordering::SeqCst);
                let pinned = s & PINNED == PINNED;
                if pinned && (s >> EPOCH_SHIFT) != g {
                    all_caught_up = false;
                }
                pinned || !orphan
            });
            if !all_caught_up {
                return false;
            }
        }
        if self
            .global
            .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.advances.fetch_add(1, Ordering::SeqCst);
            pmem::stats::count(|s| s.epoch_advances += 1);
            true
        } else {
            // Another thread advanced first; that is progress too.
            false
        }
    }

    /// Frees every limbo bucket whose epoch is at least two behind the
    /// clock, returning the number of pool blocks recycled. Counted in
    /// `pmem::stats` as `nodes_recycled_online` on the calling thread.
    ///
    /// Runs automatically (amortized) from [`Guard`] drops; explicit
    /// calls are for tests and tooling.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    ///
    /// let d = epoch::EpochDomain::new();
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
    /// let block = pool.alloc(256, 64)?;
    /// d.retire_pm(&pool, block, 256);
    /// assert_eq!(d.collect(), 0); // too fresh
    /// d.try_advance();
    /// d.try_advance();
    /// assert_eq!(d.collect(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn collect(&self) -> usize {
        let g = self.global.load(Ordering::SeqCst);
        let ready: Vec<Bucket> = {
            let mut limbo = self.limbo.lock();
            let mut ready = Vec::new();
            let mut i = 0;
            while i < limbo.len() {
                if limbo[i].epoch + 2 <= g {
                    ready.push(limbo.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            ready
        };
        let units = self.drain(ready);
        if units > 0 {
            self.recycled.fetch_add(units as u64, Ordering::SeqCst);
            pmem::stats::count(|s| s.nodes_recycled_online += units as u64);
        }
        units
    }

    /// Frees *everything* in limbo regardless of epochs and returns the
    /// number of pool blocks freed. The caller must guarantee quiescence
    /// — no pinned guard may exist — which is exactly the contract of the
    /// index `recover`/`Drop` paths that call it. This is the degradation
    /// path the crash story relies on: after a crash the limbo lists are
    /// empty anyway, and `recover` re-discovers unlinked-but-chained
    /// nodes through its own sweep.
    ///
    /// These frees are **not** counted as `nodes_recycled_online` (they
    /// happen at a quiescent point, not under live traffic), but they
    /// *do* drain the `nodes_limbo` stats gauge — after a recover or a
    /// drop nothing is awaiting reclamation, and the gauge says so.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmem::{Pool, PoolConfig};
    ///
    /// let d = epoch::EpochDomain::new();
    /// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
    /// for _ in 0..3 {
    ///     d.retire_pm(&pool, pool.alloc(256, 64)?, 256);
    /// }
    /// assert_eq!(d.flush(), 3);
    /// assert_eq!(d.limbo_len(), 0);
    /// assert_eq!(d.recycled(), 0); // not an online free
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn flush(&self) -> usize {
        let all = std::mem::take(&mut *self.limbo.lock());
        self.drain(all)
    }

    /// Runs every item of `buckets`, takes them off the limbo gauges and
    /// returns the pool blocks they freed.
    fn drain(&self, buckets: Vec<Bucket>) -> usize {
        let mut items = 0u64;
        let mut units = 0usize;
        for f in buckets.into_iter().flat_map(|b| b.items) {
            units += f();
            items += 1;
        }
        if items > 0 {
            self.limbo_len.fetch_sub(items, Ordering::SeqCst);
            pmem::stats::count(|s| s.nodes_limbo = s.nodes_limbo.saturating_sub(items));
        }
        units
    }
}

impl Drop for EpochDomain {
    fn drop(&mut self) {
        // No Guard can outlive the domain (each borrows it), so this is
        // quiescent by construction: run whatever is still in limbo so
        // pool blocks return to their free lists for whoever shares the
        // pool.
        self.flush();
    }
}

/// An active pin on an [`EpochDomain`]: the calling thread is inside a
/// reader/writer critical section, and no block retired at or after the
/// pinned epoch will be freed until this guard (and every other guard at
/// that epoch) drops.
///
/// Dropping the outermost guard runs the amortized advance/collect
/// maintenance step every [`MAINTENANCE_INTERVAL`] unpins (every unpin
/// with `FF_EPOCH_STRESS=1`), which is what makes reclamation *online*:
/// ordinary traffic ticks the clock and drains limbo as a side effect.
///
/// A guard borrows its domain and points at its participant, which the
/// domain owns; it clones no `Arc`. It stays on the thread that pinned it
/// (the pointer makes it neither `Send` nor `Sync`), which is what lets a
/// participant's pins and unpins be plain stores by one writer:
///
/// ```compile_fail,E0277
/// let d = epoch::EpochDomain::new();
/// let g = d.pin();
/// std::thread::scope(|s| {
///     s.spawn(move || drop(g)); // `Guard` cannot be sent between threads
/// });
/// ```
pub struct Guard<'a> {
    domain: &'a EpochDomain,
    participant: NonNull<Participant>,
}

impl Guard<'_> {
    /// True if this guard pins `domain` — lets a structure that hands out
    /// epoch-protected references check that its caller holds the right
    /// pin.
    ///
    /// ```
    /// let (a, b) = (epoch::EpochDomain::new(), epoch::EpochDomain::new());
    /// let g = a.pin();
    /// assert!(g.pins(&a) && !g.pins(&b));
    /// ```
    pub fn pins(&self, domain: &Arc<EpochDomain>) -> bool {
        std::ptr::eq(self.domain, Arc::as_ptr(domain))
    }
}

impl std::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        // SAFETY: this guard's pin keeps the participant alive; `unpin`
        // touches it only up to the store that drops that pin.
        let due = unsafe { self.participant.as_ref() }.unpin();
        if due {
            self.domain.try_advance();
            self.domain.collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use std::sync::atomic::AtomicUsize;

    fn pool() -> Arc<Pool> {
        Arc::new(Pool::new(PoolConfig::new().size(1 << 20)).unwrap())
    }

    #[test]
    fn unpinned_domain_advances_freely() {
        let d = EpochDomain::new();
        for want in 1..=10 {
            assert!(d.try_advance());
            assert_eq!(d.global_epoch(), want);
        }
        assert_eq!(d.advances(), 10);
    }

    #[test]
    fn retire_collect_roundtrip_recycles_block() {
        let d = EpochDomain::new();
        let p = pool();
        let block = p.alloc(512, 64).unwrap();
        d.retire_pm(&p, block, 512);
        assert_eq!(d.limbo_len(), 1);
        assert_eq!(d.collect(), 0); // epoch 0, retired at 0: too fresh
        d.try_advance();
        assert_eq!(d.collect(), 0); // one epoch is not enough
        d.try_advance();
        assert_eq!(d.collect(), 1);
        assert_eq!(d.limbo_len(), 0);
        assert_eq!(d.recycled(), 1);
        // The block is genuinely back on the pool's free list.
        assert_eq!(p.alloc(512, 64).unwrap(), block);
    }

    #[test]
    fn pinned_reader_blocks_collection() {
        let d = EpochDomain::new();
        let p = pool();
        let block = p.alloc(256, 64).unwrap();
        let guard = d.pin();
        d.retire_pm(&p, block, 256);
        // The pinned reader is at the current epoch, so ONE advance is
        // allowed; the second is not — and that is what keeps the block
        // alive.
        assert!(d.try_advance());
        assert!(!d.try_advance());
        assert_eq!(d.collect(), 0);
        // The guard's drop may itself run the amortized maintenance
        // (always under FF_EPOCH_STRESS=1), so drive to completion and
        // assert on the cumulative counter.
        drop(guard);
        while d.recycled() == 0 {
            d.try_advance();
            d.collect();
        }
        assert_eq!(d.recycled(), 1);
    }

    #[test]
    fn nested_pins_block_until_outermost_drops() {
        let d = EpochDomain::new();
        let a = d.pin();
        let b = d.pin();
        assert!(d.try_advance()); // pinned at 0, clock 0 -> 1: allowed
        assert!(!d.try_advance());
        drop(b);
        assert!(!d.try_advance()); // outer guard still pinned at 0
        drop(a);
        assert!(d.try_advance());
    }

    #[test]
    fn repin_catches_up_with_the_clock() {
        let d = EpochDomain::new();
        {
            let _g = d.pin();
        }
        d.try_advance();
        d.try_advance();
        let _g = d.pin(); // must announce epoch 2, not a stale 0
        assert!(d.try_advance());
        assert!(!d.try_advance());
    }

    #[test]
    fn flush_frees_everything_without_counting_online() {
        let d = EpochDomain::new();
        let p = pool();
        let a = p.alloc(128, 64).unwrap();
        let b = p.alloc(128, 64).unwrap();
        d.retire_pm(&p, a, 128);
        d.try_advance();
        d.retire_pm(&p, b, 128);
        assert_eq!(d.flush(), 2);
        assert_eq!(d.limbo_len(), 0);
        assert_eq!(d.recycled(), 0);
    }

    #[test]
    fn drop_runs_pending_deferrals() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let d = EpochDomain::new();
            let r = Arc::clone(&ran);
            d.defer(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_counters_flow() {
        pmem::stats::reset();
        let d = EpochDomain::new();
        let p = pool();
        let block = p.alloc(64, 64).unwrap();
        d.retire_pm(&p, block, 64);
        assert_eq!(pmem::stats::snapshot().nodes_limbo, 1); // in limbo
        d.try_advance();
        d.try_advance();
        d.collect();
        let s = pmem::stats::take();
        assert_eq!(s.nodes_limbo, 0); // gauge: drained by the collect
        assert_eq!(s.epoch_advances, 2);
        assert_eq!(s.nodes_recycled_online, 1);
        assert_eq!(s.nodes_recycled, 1); // Pool::free counted too
    }

    #[test]
    fn flush_drains_the_limbo_gauge() {
        pmem::stats::reset();
        let d = EpochDomain::new();
        let p = pool();
        let block = p.alloc(64, 64).unwrap();
        d.retire_pm(&p, block, 64);
        assert_eq!(pmem::stats::snapshot().nodes_limbo, 1);
        // The quiescent path (recover/Drop) must drain the gauge too —
        // a crash-recover cycle cannot leave nodes_limbo pinned nonzero.
        assert_eq!(d.flush(), 1);
        let s = pmem::stats::take();
        assert_eq!(s.nodes_limbo, 0);
        assert_eq!(s.nodes_recycled_online, 0); // not an online free
        assert_eq!(s.nodes_recycled, 1);
    }

    #[test]
    fn draining_another_threads_items_saturates_the_gauge_at_zero() {
        let d = EpochDomain::new();
        pmem::stats::reset();
        d.defer_units(|| 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                d.defer_units(|| 0);
                d.defer_units(|| 0);
            });
        });
        assert_eq!(pmem::stats::snapshot().nodes_limbo, 1);
        // Three drained here, one of them retired here: the gauge stops
        // at zero instead of wrapping.
        d.flush();
        assert_eq!(pmem::stats::take().nodes_limbo, 0);
    }

    #[test]
    fn amortized_maintenance_runs_from_guard_drops() {
        let d = EpochDomain::new();
        let p = pool();
        let block = p.alloc(64, 64).unwrap();
        {
            let _g = d.pin();
            d.retire_pm(&p, block, 64);
        }
        // Plain pin/unpin traffic must eventually advance + collect
        // without anyone calling try_advance/collect explicitly.
        for _ in 0..(3 * MAINTENANCE_INTERVAL) {
            let _g = d.pin();
        }
        assert_eq!(d.recycled(), 1);
    }

    #[test]
    fn concurrent_pin_retire_storm_is_exact() {
        let d = EpochDomain::new();
        let p = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
        let freed = Arc::new(AtomicUsize::new(0));
        const PER_THREAD: usize = 300;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = Arc::clone(&d);
                let p = Arc::clone(&p);
                let freed = Arc::clone(&freed);
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        let _g = d.pin();
                        let block = p.alloc(64, 64).unwrap();
                        let f = Arc::clone(&freed);
                        let pp = Arc::clone(&p);
                        d.defer_units(move || {
                            pp.free(block, 64);
                            f.fetch_add(1, Ordering::SeqCst);
                            1
                        });
                    }
                });
            }
        });
        let units = d.flush();
        assert_eq!(freed.load(Ordering::SeqCst), 4 * PER_THREAD);
        assert_eq!(d.recycled() as usize + units, 4 * PER_THREAD);
        assert_eq!(d.limbo_len(), 0);
    }

    #[test]
    fn a_pin_in_one_domain_does_not_hold_another() {
        let (a, b) = (EpochDomain::new(), EpochDomain::new());
        let _g = a.pin();
        assert!(a.try_advance());
        assert!(!a.try_advance());
        for want in 1..=5 {
            assert!(b.try_advance());
            assert_eq!(b.global_epoch(), want);
        }
    }

    #[test]
    fn collect_frees_each_bucket_two_epochs_after_its_own() {
        let d = EpochDomain::new();
        d.defer_units(|| 1); // retired at epoch 0
        d.try_advance();
        d.defer_units(|| 10); // retired at epoch 1
        d.defer_units(|| 100);
        d.try_advance();
        assert_eq!(d.collect(), 1);
        assert_eq!(d.limbo_len(), 2);
        d.try_advance();
        assert_eq!(d.collect(), 110);
        assert_eq!((d.limbo_len(), d.recycled()), (0, 111));
    }

    #[test]
    fn retire_pressure_recycles_without_pins_or_explicit_collects() {
        let d = EpochDomain::new();
        let p = Arc::new(Pool::new(PoolConfig::new().size(4 << 20)).unwrap());
        for _ in 0..3 * LIMBO_PRESSURE {
            let block = p.alloc(64, 64).unwrap();
            d.retire_pm(&p, block, 64);
            assert!(d.limbo_len() <= LIMBO_PRESSURE + 1, "limbo kept growing");
        }
        assert!(d.recycled() >= LIMBO_PRESSURE, "recycled {}", d.recycled());
        assert_eq!(d.recycled() + d.limbo_len(), 3 * LIMBO_PRESSURE);
    }

    #[test]
    fn a_reader_on_another_thread_holds_the_clock_until_it_unpins() {
        let d = EpochDomain::new();
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let reader = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let g = d.pin();
                pinned_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                drop(g);
            })
        };
        pinned_rx.recv().unwrap();
        assert!(d.try_advance()); // the reader is at the current epoch
        assert!(!d.try_advance());
        assert!(!d.try_advance());
        release_tx.send(()).unwrap();
        reader.join().unwrap();
        assert!(d.try_advance());
    }

    #[test]
    fn participants_of_exited_threads_are_pruned() {
        let d = EpochDomain::new();
        for _ in 0..4 {
            let d = Arc::clone(&d);
            std::thread::spawn(move || drop(d.pin())).join().unwrap();
        }
        assert!(d.try_advance());
        assert_eq!(d.participants.lock().len(), 0);
        // A live thread's participant stays registered.
        drop(d.pin());
        assert!(d.try_advance());
        assert_eq!(d.participants.lock().len(), 1);
    }

    /// Pins racing an advancer that runs as fast as it can: an
    /// announcement that lands after the clock moved is made again, so the
    /// clock never runs two epochs past a live guard.
    #[test]
    fn a_pin_racing_an_advancer_never_lets_the_clock_run_two_past_it() {
        let d = EpochDomain::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut ran_past = false;
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    d.try_advance();
                }
            });
            // No assert in here: a panic would wait forever on the advancer.
            'pins: for _ in 0..10_000 {
                let g = d.pin();
                // The epoch read after the pin is at least the guard's.
                let seen = d.global_epoch();
                for _ in 0..100 {
                    if d.global_epoch() > seen + 1 {
                        ran_past = true;
                        break 'pins;
                    }
                }
                drop(g);
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert!(!ran_past, "the clock ran two epochs past a live guard");
    }
}

//! Thread-local instrumentation counters and phase timers.
//!
//! The paper's evaluation reports, besides elapsed time, the *number* of
//! cache-line flushes (§5.4: wB+-tree calls 1.7× the flushes of FAST+FAIR;
//! FP-tree 4.8 vs 4.2 per insert), the number of memory barriers on ARM
//! (§5.5: 16.2 vs 6.6 per insert), and a breakdown of insertion time into
//! `clflush`, `Search` and `Node Update` components (Fig. 5(a)).
//!
//! Each thread's counters are one [`Snapshot`] in a thread-local [`Cell`],
//! and every count is one field update through [`count`], so the hot path
//! costs a couple of arithmetic instructions and a new counter is one new
//! field. A benchmark harness calls [`reset`] at the start of a measured
//! region on each worker thread and [`take`] (or [`snapshot`]) at the end,
//! then sums the per-thread snapshots.

use std::cell::Cell;
use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Global switch for the per-phase wall-clock timers.
///
/// Phase timing costs two `Instant::now()` calls per operation, which is
/// noise at emulated-PM latencies but measurable at DRAM latency; benches
/// that do not print a breakdown leave it off.
static PHASE_TIMING: AtomicBool = AtomicBool::new(false);

/// Enables or disables the per-phase timers used by the Fig. 5(a)
/// breakdown. Counters are always on.
pub fn set_phase_timing(on: bool) {
    PHASE_TIMING.store(on, Ordering::Relaxed);
}

/// Phases of an index operation for the Fig. 5(a) time breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tree traversal / position lookup.
    Search,
    /// In-node modification (shifts, appends, metadata updates).
    Update,
}

/// Declares [`Snapshot`] from its field list, with the all-zero constant
/// the thread-local starts from and the field-wise sum, so that the list
/// is written once.
macro_rules! counters {
    ($($(#[$doc:meta])* pub $name:ident: u64,)*) => {
        /// The instrumentation counters: each thread's live record, and a
        /// point-in-time copy of it.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Snapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Snapshot {
            const ZERO: Snapshot = Snapshot { $($name: 0,)* };
        }

        impl AddAssign for Snapshot {
            fn add_assign(&mut self, rhs: Snapshot) {
                $(self.$name += rhs.$name;)*
            }
        }
    };
}

counters! {
    /// Number of cache-line flush (`clflush`/`clwb`) operations.
    pub flushes: u64,
    /// Number of flush requests *coalesced away*: elided because the line
    /// was already clean (no store since its last flush). Issued +
    /// coalesced = flushes the algorithms *requested*.
    pub flushes_coalesced: u64,
    /// Number of persist fences (`sfence`/`mfence` guarding flushes).
    pub fences: u64,
    /// Number of `dmb`-class barriers issued in non-TSO mode.
    pub dmb_barriers: u64,
    /// Number of serial (dependent) cache misses charged.
    pub serial_misses: u64,
    /// Number of cache lines charged as parallel (prefetched) reads.
    pub parallel_lines: u64,
    /// Number of blocks returned to the pool's free list for recycling
    /// (e.g. leaves reclaimed by a FAIR merge).
    pub nodes_recycled: u64,
    /// Number of successful global epoch advances performed by the
    /// `epoch` crate's reclamation clock.
    pub epoch_advances: u64,
    /// Number of retired items *currently* sitting on an epoch limbo
    /// list — a gauge, not a monotone counter: retiring increments it and
    /// every drain (an online `collect`, a quiescent `flush` on
    /// recover/drop) decrements it, so a crash-recover cycle ends with
    /// the gauge back at zero.
    pub nodes_limbo: u64,
    /// Number of pool blocks returned to a free list *online* — by an
    /// epoch `collect` under live traffic, as opposed to a quiescent
    /// `recover`/drop sweep. Every such block is also counted in
    /// [`nodes_recycled`](Snapshot::nodes_recycled) when `Pool::free`
    /// runs.
    pub nodes_recycled_online: u64,
    /// Number of write batches committed by the `txn` crate's journal —
    /// one per failure-atomic sequence-number store.
    pub txn_commits: u64,
    /// Number of journal entries replayed by `txn` recovery (committed
    /// batches re-applied after a crash cut the apply phase short).
    pub txn_replays: u64,
    /// Number of in-node shift operations (FAST insert/delete compactions
    /// that moved at least zero records; every call site counts one op).
    pub shift_ops: u64,
    /// Total records moved by in-node shifts. `shift_steps / shift_ops` is
    /// the mean shift distance: about N/2 records for uniform keys in a
    /// node holding N, the cost FAST's in-place shift pays per write.
    pub shift_steps: u64,
    /// Point operations (`get`, leaf-level `insert` / `update`, `remove`,
    /// cursor seeks) that consulted a tree's volatile leaf directory.
    pub leaf_hint_lookups: u64,
    /// Those of them settled without a root-to-leaf descent: the
    /// directory named a live leaf at or left of the key's and the
    /// operation ran its normal per-leaf protocol from there.
    /// `leaf_hint_hits / leaf_hint_lookups` is the share of point
    /// operations that skipped the descent.
    pub leaf_hint_hits: u64,
    /// Leaf directories built and swapped in — rebuild churn.
    pub leaf_hint_rebuilds: u64,
    /// Nanoseconds the latency model charged, at the profile's nominal
    /// values rather than as spun: `read_ns` per serial miss,
    /// `ceil(lines / mlp) * read_ns` per parallel scan, `write_ns` per
    /// issued (not coalesced) flush and `dmb_ns` per non-TSO barrier.
    /// Deterministic for a deterministic run, unlike the wall clock.
    pub model_ns: u64,
    /// Nanoseconds spent in flush operations (including injected latency).
    pub flush_ns: u64,
    /// Nanoseconds attributed to the search phase.
    pub search_ns: u64,
    /// Nanoseconds attributed to the node-update phase.
    pub update_ns: u64,
}

impl Snapshot {
    /// Sum of the phase timers (search + update + flush).
    pub fn total_ns(&self) -> u64 {
        self.flush_ns + self.search_ns + self.update_ns
    }
}

impl Add for Snapshot {
    type Output = Snapshot;
    fn add(mut self, rhs: Snapshot) -> Snapshot {
        self += rhs;
        self
    }
}

thread_local! {
    // `Snapshot` is `Copy`, so the record has no destructor: a count made
    // from another thread-local's destructor still finds it.
    static COUNTERS: Cell<Snapshot> = const { Cell::new(Snapshot::ZERO) };
}

/// Updates this thread's counters: every count is one call, naming the
/// field it means — `count(|s| s.fences += 1)`. Public so the index,
/// epoch and journal crates report into the shared record. `f` updates a
/// copy that is stored back when it returns, so it must not count itself.
#[inline]
pub fn count(f: impl FnOnce(&mut Snapshot)) {
    COUNTERS.with(|c| {
        let mut s = c.get();
        f(&mut s);
        c.set(s);
    });
}

/// Resets this thread's counters to zero.
pub fn reset() {
    COUNTERS.with(|c| c.set(Snapshot::ZERO));
}

/// Returns a copy of this thread's counters without resetting them.
pub fn snapshot() -> Snapshot {
    COUNTERS.with(Cell::get)
}

/// Returns and resets this thread's counters.
pub fn take() -> Snapshot {
    COUNTERS.with(Cell::take)
}

/// Adds `s` to this thread's counters — how work done on a helper thread
/// on this thread's behalf is counted here: the helper [`take`]s its
/// counters when it finishes, and the thread that handed it the work
/// absorbs them. A harvester that later `take`s this thread's counters
/// then sees both threads' work.
pub fn absorb(s: Snapshot) {
    count(|c| *c += s);
}

/// Runs `f`, attributing its wall-clock time to `phase`.
///
/// Time spent inside nested flush operations is *also* accumulated into the
/// flush counter; the harness subtracts `flush_ns` from the enclosing phase
/// when printing the Fig. 5(a) breakdown so the three components are
/// disjoint.
#[inline]
pub fn timed<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    if !PHASE_TIMING.load(Ordering::Relaxed) {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    count(|s| match phase {
        Phase::Search => s.search_ns += ns,
        Phase::Update => s.update_ns += ns,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot whose every field is distinct, so a counter summed into
    /// the wrong field or not at all shows.
    fn distinct() -> Snapshot {
        Snapshot {
            flushes: 1,
            flushes_coalesced: 2,
            fences: 3,
            dmb_barriers: 4,
            serial_misses: 5,
            parallel_lines: 6,
            nodes_recycled: 7,
            epoch_advances: 9,
            nodes_limbo: 10,
            nodes_recycled_online: 11,
            txn_commits: 12,
            txn_replays: 13,
            shift_ops: 14,
            shift_steps: 15,
            leaf_hint_lookups: 16,
            leaf_hint_hits: 17,
            leaf_hint_rebuilds: 18,
            model_ns: 22,
            flush_ns: 19,
            search_ns: 20,
            update_ns: 21,
        }
    }

    #[test]
    fn counters_accumulate_and_take_resets() {
        reset();
        count(|s| s.flushes += 1);
        count(|s| {
            s.flushes += 1;
            s.model_ns += 300;
        });
        count(|s| s.fences += 1);
        let s = take();
        assert_eq!(s.flushes, 2);
        assert_eq!(s.model_ns, 300);
        assert_eq!(s.fences, 1);
        assert_eq!(s.serial_misses, 0);
        assert_eq!(snapshot(), Snapshot::default());
        count(|s| s.serial_misses += 3);
        reset();
        assert_eq!(take(), Snapshot::default());
    }

    #[test]
    fn timed_attributes_phase() {
        reset();
        set_phase_timing(true);
        let v = timed(Phase::Search, || {
            crate::spin_ns(100_000);
            42
        });
        set_phase_timing(false);
        assert_eq!(v, 42);
        let s = take();
        assert!(s.search_ns >= 100_000);
        assert_eq!(s.update_ns, 0);
    }

    #[test]
    fn timed_counts_inside_its_closure() {
        // `timed` holds no borrow of the record while `f` runs, so `f`'s
        // own counts land.
        reset();
        set_phase_timing(true);
        timed(Phase::Update, || count(|s| s.shift_ops += 1));
        set_phase_timing(false);
        let s = take();
        assert_eq!(s.shift_ops, 1);
        assert!(s.update_ns > 0);
    }

    #[test]
    fn timed_disabled_skips_timers() {
        reset();
        set_phase_timing(false);
        timed(Phase::Update, || crate::spin_ns(50_000));
        assert_eq!(take().update_ns, 0);
    }

    #[test]
    fn snapshot_add() {
        let a = distinct();
        let sum = a + a;
        assert_eq!(sum.flushes, 2);
        assert_eq!(sum.model_ns, 44);
        assert_eq!(sum.update_ns, 42);
        assert_eq!(sum.total_ns(), 2 * (19 + 20 + 21));
        let mut acc = Snapshot::default();
        acc += a;
        acc += a;
        assert_eq!(acc, sum);
    }

    #[test]
    fn absorb_adds_every_counter() {
        let a = distinct();
        reset();
        count(|s| {
            s.flushes += 1;
            s.flush_ns += 100;
        });
        absorb(a);
        let mut want = a;
        want.flushes += 1;
        want.flush_ns += 100;
        assert_eq!(take(), want);
    }

    #[test]
    fn a_count_from_a_thread_local_destructor_does_not_panic() {
        struct CountsOnDrop;
        impl Drop for CountsOnDrop {
            fn drop(&mut self) {
                count(|s| s.fences += 1);
            }
        }
        thread_local! {
            static LATE: CountsOnDrop = const { CountsOnDrop };
        }
        std::thread::spawn(|| LATE.with(|_| ())).join().unwrap();
    }
}

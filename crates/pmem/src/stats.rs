//! Thread-local instrumentation counters and phase timers.
//!
//! The paper's evaluation reports, besides elapsed time, the *number* of
//! cache-line flushes (§5.4: wB+-tree calls 1.7× the flushes of FAST+FAIR;
//! FP-tree 4.8 vs 4.2 per insert), the number of memory barriers on ARM
//! (§5.5: 16.2 vs 6.6 per insert), and a breakdown of insertion time into
//! `clflush`, `Search` and `Node Update` components (Fig. 5(a)).
//!
//! All counters are thread-local [`Cell`]s so the hot path costs a couple of
//! arithmetic instructions. A benchmark harness calls [`reset`] at the start
//! of a measured region on each worker thread and [`take`] (or [`snapshot`])
//! at the end, then sums the per-thread snapshots.

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

/// A point-in-time copy of the instrumentation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
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
    fn add(self, rhs: Snapshot) -> Snapshot {
        Snapshot {
            flushes: self.flushes + rhs.flushes,
            flushes_coalesced: self.flushes_coalesced + rhs.flushes_coalesced,
            fences: self.fences + rhs.fences,
            dmb_barriers: self.dmb_barriers + rhs.dmb_barriers,
            serial_misses: self.serial_misses + rhs.serial_misses,
            parallel_lines: self.parallel_lines + rhs.parallel_lines,
            nodes_recycled: self.nodes_recycled + rhs.nodes_recycled,
            epoch_advances: self.epoch_advances + rhs.epoch_advances,
            nodes_limbo: self.nodes_limbo + rhs.nodes_limbo,
            nodes_recycled_online: self.nodes_recycled_online + rhs.nodes_recycled_online,
            txn_commits: self.txn_commits + rhs.txn_commits,
            txn_replays: self.txn_replays + rhs.txn_replays,
            shift_ops: self.shift_ops + rhs.shift_ops,
            shift_steps: self.shift_steps + rhs.shift_steps,
            leaf_hint_lookups: self.leaf_hint_lookups + rhs.leaf_hint_lookups,
            leaf_hint_hits: self.leaf_hint_hits + rhs.leaf_hint_hits,
            leaf_hint_rebuilds: self.leaf_hint_rebuilds + rhs.leaf_hint_rebuilds,
            model_ns: self.model_ns + rhs.model_ns,
            flush_ns: self.flush_ns + rhs.flush_ns,
            search_ns: self.search_ns + rhs.search_ns,
            update_ns: self.update_ns + rhs.update_ns,
        }
    }
}

impl AddAssign for Snapshot {
    fn add_assign(&mut self, rhs: Snapshot) {
        *self = *self + rhs;
    }
}

thread_local! {
    static FLUSHES: Cell<u64> = const { Cell::new(0) };
    static FLUSHES_COALESCED: Cell<u64> = const { Cell::new(0) };
    static SHIFT_OPS: Cell<u64> = const { Cell::new(0) };
    static SHIFT_STEPS: Cell<u64> = const { Cell::new(0) };
    static HINT_LOOKUPS: Cell<u64> = const { Cell::new(0) };
    static HINT_HITS: Cell<u64> = const { Cell::new(0) };
    static HINT_REBUILDS: Cell<u64> = const { Cell::new(0) };
    static MODEL_NS: Cell<u64> = const { Cell::new(0) };
    static FENCES: Cell<u64> = const { Cell::new(0) };
    static DMB: Cell<u64> = const { Cell::new(0) };
    static SERIAL: Cell<u64> = const { Cell::new(0) };
    static PARALLEL: Cell<u64> = const { Cell::new(0) };
    static RECYCLED: Cell<u64> = const { Cell::new(0) };
    static EPOCH_ADV: Cell<u64> = const { Cell::new(0) };
    static LIMBO: Cell<u64> = const { Cell::new(0) };
    static RECYCLED_ONLINE: Cell<u64> = const { Cell::new(0) };
    static TXN_COMMITS: Cell<u64> = const { Cell::new(0) };
    static TXN_REPLAYS: Cell<u64> = const { Cell::new(0) };
    static FLUSH_NS: Cell<u64> = const { Cell::new(0) };
    static SEARCH_NS: Cell<u64> = const { Cell::new(0) };
    static UPDATE_NS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
pub(crate) fn count_flush(ns: u64) {
    FLUSHES.with(|c| c.set(c.get() + 1));
    FLUSH_NS.with(|c| c.set(c.get() + ns));
}

#[inline]
pub(crate) fn count_flush_coalesced(n: u64) {
    FLUSHES_COALESCED.with(|c| c.set(c.get() + n));
}

/// Counts one in-node shift that moved `steps` records. Public so the
/// index crates can report shift distances into the shared counters.
#[inline]
pub fn count_shift(steps: u64) {
    SHIFT_OPS.with(|c| c.set(c.get() + 1));
    SHIFT_STEPS.with(|c| c.set(c.get() + steps));
}

/// Counts one point operation that consulted a leaf directory. Public
/// for the `fastfair` crate.
#[inline]
pub fn count_leaf_hint_lookup() {
    HINT_LOOKUPS.with(|c| c.set(c.get() + 1));
}

/// Counts one point operation settled without a descent. Public for the
/// `fastfair` crate.
#[inline]
pub fn count_leaf_hint_hit() {
    HINT_HITS.with(|c| c.set(c.get() + 1));
}

/// Counts one leaf directory built and swapped in. Public for the
/// `fastfair` crate.
#[inline]
pub fn count_leaf_hint_rebuild() {
    HINT_REBUILDS.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_model_ns(ns: u64) {
    MODEL_NS.with(|c| c.set(c.get() + ns));
}

#[inline]
pub(crate) fn count_fence() {
    FENCES.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_dmb() {
    DMB.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_serial(n: u64) {
    SERIAL.with(|c| c.set(c.get() + n));
}

#[inline]
pub(crate) fn count_parallel(n: u64) {
    PARALLEL.with(|c| c.set(c.get() + n));
}

#[inline]
pub(crate) fn count_recycled(n: u64) {
    RECYCLED.with(|c| c.set(c.get() + n));
}

/// Counts one successful global epoch advance. Public so the `epoch`
/// crate's reclamation clock can report into the shared counters.
#[inline]
pub fn count_epoch_advance() {
    EPOCH_ADV.with(|c| c.set(c.get() + 1));
}

/// Counts `n` retired items entering an epoch limbo list. Public for the
/// `epoch` crate.
#[inline]
pub fn count_nodes_limbo(n: u64) {
    LIMBO.with(|c| c.set(c.get() + n));
}

/// Counts `n` items *leaving* a limbo list — by an online `collect` or a
/// quiescent `flush` — keeping [`Snapshot::nodes_limbo`] a gauge of what
/// is still awaiting reclamation. Saturating: a thread may drain items
/// another thread retired (its own cell never goes negative). Public for
/// the `epoch` crate.
#[inline]
pub fn count_limbo_drained(n: u64) {
    LIMBO.with(|c| c.set(c.get().saturating_sub(n)));
}

/// Counts one committed write batch. Public for the `txn` crate.
#[inline]
pub fn count_txn_commit() {
    TXN_COMMITS.with(|c| c.set(c.get() + 1));
}

/// Counts `n` journal entries replayed during recovery. Public for the
/// `txn` crate.
#[inline]
pub fn count_txn_replays(n: u64) {
    TXN_REPLAYS.with(|c| c.set(c.get() + n));
}

/// Counts `n` pool blocks recycled *online* by an epoch collection (as
/// opposed to a quiescent recover/drop sweep). Public for the `epoch`
/// crate.
#[inline]
pub fn count_recycled_online(n: u64) {
    RECYCLED_ONLINE.with(|c| c.set(c.get() + n));
}

/// Resets this thread's counters to zero.
pub fn reset() {
    FLUSHES.with(|c| c.set(0));
    FLUSHES_COALESCED.with(|c| c.set(0));
    SHIFT_OPS.with(|c| c.set(0));
    SHIFT_STEPS.with(|c| c.set(0));
    HINT_LOOKUPS.with(|c| c.set(0));
    HINT_HITS.with(|c| c.set(0));
    HINT_REBUILDS.with(|c| c.set(0));
    MODEL_NS.with(|c| c.set(0));
    FENCES.with(|c| c.set(0));
    DMB.with(|c| c.set(0));
    SERIAL.with(|c| c.set(0));
    PARALLEL.with(|c| c.set(0));
    RECYCLED.with(|c| c.set(0));
    EPOCH_ADV.with(|c| c.set(0));
    LIMBO.with(|c| c.set(0));
    RECYCLED_ONLINE.with(|c| c.set(0));
    TXN_COMMITS.with(|c| c.set(0));
    TXN_REPLAYS.with(|c| c.set(0));
    FLUSH_NS.with(|c| c.set(0));
    SEARCH_NS.with(|c| c.set(0));
    UPDATE_NS.with(|c| c.set(0));
}

/// Returns a copy of this thread's counters without resetting them.
pub fn snapshot() -> Snapshot {
    Snapshot {
        flushes: FLUSHES.with(Cell::get),
        flushes_coalesced: FLUSHES_COALESCED.with(Cell::get),
        fences: FENCES.with(Cell::get),
        dmb_barriers: DMB.with(Cell::get),
        serial_misses: SERIAL.with(Cell::get),
        parallel_lines: PARALLEL.with(Cell::get),
        nodes_recycled: RECYCLED.with(Cell::get),
        epoch_advances: EPOCH_ADV.with(Cell::get),
        nodes_limbo: LIMBO.with(Cell::get),
        nodes_recycled_online: RECYCLED_ONLINE.with(Cell::get),
        txn_commits: TXN_COMMITS.with(Cell::get),
        txn_replays: TXN_REPLAYS.with(Cell::get),
        shift_ops: SHIFT_OPS.with(Cell::get),
        shift_steps: SHIFT_STEPS.with(Cell::get),
        leaf_hint_lookups: HINT_LOOKUPS.with(Cell::get),
        leaf_hint_hits: HINT_HITS.with(Cell::get),
        leaf_hint_rebuilds: HINT_REBUILDS.with(Cell::get),
        model_ns: MODEL_NS.with(Cell::get),
        flush_ns: FLUSH_NS.with(Cell::get),
        search_ns: SEARCH_NS.with(Cell::get),
        update_ns: UPDATE_NS.with(Cell::get),
    }
}

/// Returns and resets this thread's counters.
pub fn take() -> Snapshot {
    let s = snapshot();
    reset();
    s
}

/// Adds `s` to this thread's counters — how work done on a helper thread
/// on this thread's behalf is counted here: the helper [`take`]s its
/// counters when it finishes, and the thread that handed it the work
/// absorbs them. A harvester that later `take`s this thread's counters
/// then sees both threads' work.
pub fn absorb(s: Snapshot) {
    let add = |c: &'static std::thread::LocalKey<Cell<u64>>, n: u64| c.with(|c| c.set(c.get() + n));
    add(&FLUSHES, s.flushes);
    add(&FLUSHES_COALESCED, s.flushes_coalesced);
    add(&SHIFT_OPS, s.shift_ops);
    add(&SHIFT_STEPS, s.shift_steps);
    add(&HINT_LOOKUPS, s.leaf_hint_lookups);
    add(&HINT_HITS, s.leaf_hint_hits);
    add(&HINT_REBUILDS, s.leaf_hint_rebuilds);
    add(&MODEL_NS, s.model_ns);
    add(&FENCES, s.fences);
    add(&DMB, s.dmb_barriers);
    add(&SERIAL, s.serial_misses);
    add(&PARALLEL, s.parallel_lines);
    add(&RECYCLED, s.nodes_recycled);
    add(&EPOCH_ADV, s.epoch_advances);
    add(&LIMBO, s.nodes_limbo);
    add(&RECYCLED_ONLINE, s.nodes_recycled_online);
    add(&TXN_COMMITS, s.txn_commits);
    add(&TXN_REPLAYS, s.txn_replays);
    add(&FLUSH_NS, s.flush_ns);
    add(&SEARCH_NS, s.search_ns);
    add(&UPDATE_NS, s.update_ns);
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
    match phase {
        Phase::Search => SEARCH_NS.with(|c| c.set(c.get() + ns)),
        Phase::Update => UPDATE_NS.with(|c| c.set(c.get() + ns)),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_take_resets() {
        reset();
        count_flush(10);
        count_flush(5);
        count_fence();
        count_serial(3);
        count_parallel(7);
        count_recycled(2);
        count_dmb();
        count_epoch_advance();
        count_nodes_limbo(4);
        count_recycled_online(3);
        count_txn_commit();
        count_txn_replays(5);
        count_flush_coalesced(2);
        count_shift(6);
        count_shift(0);
        count_leaf_hint_lookup();
        count_leaf_hint_lookup();
        count_leaf_hint_hit();
        count_leaf_hint_rebuild();
        count_model_ns(300);
        count_model_ns(45);
        let s = take();
        assert_eq!(s.flushes, 2);
        assert_eq!(s.flushes_coalesced, 2);
        assert_eq!(s.shift_ops, 2);
        assert_eq!(s.shift_steps, 6);
        assert_eq!(s.leaf_hint_lookups, 2);
        assert_eq!(s.leaf_hint_hits, 1);
        assert_eq!(s.leaf_hint_rebuilds, 1);
        assert_eq!(s.model_ns, 345);
        assert_eq!(s.flush_ns, 15);
        assert_eq!(s.fences, 1);
        assert_eq!(s.serial_misses, 3);
        assert_eq!(s.parallel_lines, 7);
        assert_eq!(s.nodes_recycled, 2);
        assert_eq!(s.dmb_barriers, 1);
        assert_eq!(s.epoch_advances, 1);
        assert_eq!(s.nodes_limbo, 4);
        assert_eq!(s.nodes_recycled_online, 3);
        assert_eq!(s.txn_commits, 1);
        assert_eq!(s.txn_replays, 5);
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn limbo_is_a_gauge() {
        reset();
        count_nodes_limbo(4);
        count_limbo_drained(3);
        assert_eq!(snapshot().nodes_limbo, 1);
        // Draining items another thread retired saturates at zero.
        count_limbo_drained(10);
        assert_eq!(take().nodes_limbo, 0);
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
    fn timed_disabled_skips_timers() {
        reset();
        set_phase_timing(false);
        timed(Phase::Update, || crate::spin_ns(50_000));
        assert_eq!(take().update_ns, 0);
    }

    #[test]
    fn snapshot_add() {
        let a = Snapshot {
            flushes: 1,
            flushes_coalesced: 16,
            fences: 2,
            dmb_barriers: 3,
            serial_misses: 4,
            parallel_lines: 5,
            nodes_recycled: 9,
            epoch_advances: 11,
            nodes_limbo: 12,
            nodes_recycled_online: 13,
            txn_commits: 14,
            txn_replays: 15,
            shift_ops: 17,
            shift_steps: 18,
            leaf_hint_lookups: 19,
            leaf_hint_hits: 20,
            leaf_hint_rebuilds: 21,
            model_ns: 22,
            flush_ns: 6,
            search_ns: 7,
            update_ns: 8,
        };
        let sum = a + a;
        assert_eq!(sum.flushes, 2);
        assert_eq!(sum.flushes_coalesced, 32);
        assert_eq!(sum.shift_ops, 34);
        assert_eq!(sum.shift_steps, 36);
        assert_eq!(sum.leaf_hint_lookups, 38);
        assert_eq!(sum.leaf_hint_hits, 40);
        assert_eq!(sum.leaf_hint_rebuilds, 42);
        assert_eq!(sum.model_ns, 44);
        assert_eq!(sum.epoch_advances, 22);
        assert_eq!(sum.nodes_recycled_online, 26);
        assert_eq!(sum.txn_commits, 28);
        assert_eq!(sum.txn_replays, 30);
        assert_eq!(sum.total_ns(), 2 * (6 + 7 + 8));
        let mut acc = Snapshot::default();
        acc += a;
        assert_eq!(acc, a);
    }

    #[test]
    fn absorb_adds_every_counter() {
        // Every field distinct, so a counter absorbed into the wrong cell
        // or not at all shows.
        let a = Snapshot {
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
        };
        reset();
        count_flush(100);
        absorb(a);
        let mut want = a;
        want.flushes += 1;
        want.flush_ns += 100;
        assert_eq!(take(), want);
    }
}

//! Lock-free service observability: per-op-class latency histograms
//! (p50/p99/p999), throughput and error counters, group-commit batch
//! size, queue-depth high-water and harvested persistence-cost counters.
//!
//! Everything here is plain relaxed atomics — recording a sample is a
//! handful of `fetch_add`s, cheap enough to sit on the completion path
//! of every request. Percentile queries walk the histogram without
//! stopping writers; a racing reader sees some slightly-stale bucket
//! counts, never a torn one.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: 4 sub-buckets per power of two of
/// nanoseconds — ~25 % relative resolution across the full `u64` range.
const BUCKETS: usize = 256;

/// The six request classes a [`crate::ClientHandle`] can submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Point lookup.
    Get,
    /// Upsert.
    Insert,
    /// In-place update of an existing key.
    Update,
    /// Point removal.
    Delete,
    /// Multi-key, multi-table atomic batch.
    Batch,
    /// Range scan.
    Scan,
}

impl OpClass {
    /// All classes, in display order.
    pub const ALL: [OpClass; 6] = [
        OpClass::Get,
        OpClass::Insert,
        OpClass::Update,
        OpClass::Delete,
        OpClass::Batch,
        OpClass::Scan,
    ];

    /// Short lowercase label (`"get"`, `"scan"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Insert => "insert",
            OpClass::Update => "update",
            OpClass::Delete => "delete",
            OpClass::Batch => "batch",
            OpClass::Scan => "scan",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Get => 0,
            OpClass::Insert => 1,
            OpClass::Update => 2,
            OpClass::Delete => 3,
            OpClass::Batch => 4,
            OpClass::Scan => 5,
        }
    }
}

/// A lock-free log-bucketed latency histogram (nanosecond samples).
///
/// Buckets are powers of two split four ways, so any percentile query
/// answers with at most ~25 % overestimation — and because percentiles
/// are cumulative walks over the same bucket array, `p50 ≤ p99 ≤ p999`
/// holds *by construction*, racing writers or not.
///
/// ```
/// let h = service::LatencyHistogram::new();
/// for ns in [100, 200, 300, 10_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.50) <= h.percentile(0.99));
/// assert!(h.percentile(0.99) <= h.percentile(0.999));
/// ```
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(nanos: u64) -> usize {
    let n = nanos.max(1);
    if n < 4 {
        return n as usize;
    }
    let log2 = 63 - n.leading_zeros() as usize; // >= 2 here
    let sub = ((n >> (log2 - 2)) & 3) as usize;
    (log2 - 2) * 4 + sub + 4
}

fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let log2 = (idx - 4) / 4 + 2;
    let sub = ((idx - 4) % 4) as u64;
    ((4 + sub + 1) << (log2 - 2)).saturating_sub(1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one latency sample, in nanoseconds.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The latency (ns, bucket upper bound) below which fraction `p` of
    /// samples fall — `percentile(0.99)` is the p99. Returns 0 for an
    /// empty histogram. Monotone in `p` by construction.
    pub fn percentile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper_bound(idx);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }
}

/// Counters plus latency histogram for one [`OpClass`].
#[derive(Default)]
pub struct OpStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    hist: LatencyHistogram,
}

impl OpStats {
    /// Requests accepted into a queue.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests answered successfully.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests rejected at admission ([`crate::ServiceError::Overloaded`]).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests answered with an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The completion-latency histogram (queue wait + service time).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.hist
    }
}

/// Shared, lock-free counters for one [`crate::Service`]; cloneable by
/// `Arc` via [`crate::Service::stats`].
///
/// ```
/// use service::{OpClass, ServiceStats};
///
/// let stats = ServiceStats::new();
/// assert_eq!(stats.op(OpClass::Get).completed(), 0);
/// assert_eq!(stats.groups(), 0);
/// ```
#[derive(Default)]
pub struct ServiceStats {
    ops: [OpStats; 6],
    groups: AtomicU64,
    grouped_writes: AtomicU64,
    largest_group: AtomicU64,
    queue_high_water: AtomicU64,
    inline_gets: AtomicU64,
    conflict_gets: AtomicU64,
    fences: AtomicU64,
    flushes: AtomicU64,
    leaf_hint_lookups: AtomicU64,
    leaf_hint_hits: AtomicU64,
    leaf_hint_rebuilds: AtomicU64,
    stale_reads: AtomicU64,
    stale_fallbacks: AtomicU64,
}

impl ServiceStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        ServiceStats::default()
    }

    /// The per-class counters for `class`.
    pub fn op(&self, class: OpClass) -> &OpStats {
        &self.ops[class.index()]
    }

    /// Completed requests summed over every class.
    pub fn completed(&self) -> u64 {
        self.ops.iter().map(|o| o.completed()).sum()
    }

    /// Shed requests summed over every class.
    pub fn shed(&self) -> u64 {
        self.ops.iter().map(|o| o.shed()).sum()
    }

    /// Commit groups the workers have driven.
    pub fn groups(&self) -> u64 {
        self.groups.load(Ordering::Relaxed)
    }

    /// Write requests that rode those groups — `grouped_writes() /
    /// groups()` is the mean batch size the group-commit lever achieved.
    pub fn grouped_writes(&self) -> u64 {
        self.grouped_writes.load(Ordering::Relaxed)
    }

    /// Largest single commit group observed.
    pub fn largest_group(&self) -> u64 {
        self.largest_group.load(Ordering::Relaxed)
    }

    /// Mean write-requests per commit group (0.0 before the first group).
    pub fn mean_group_size(&self) -> f64 {
        let g = self.groups();
        if g == 0 {
            0.0
        } else {
            self.grouped_writes() as f64 / g as f64
        }
    }

    /// Deepest queue observed at group formation (backlog high-water).
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water.load(Ordering::Relaxed)
    }

    /// `get`s answered on the submitting thread, without a queue or a
    /// worker (the crate docs' "Reads"). Each is also counted in
    /// `op(OpClass::Get)` — submitted, completed, latency — so the `Get`
    /// histogram covers every read, however it was served.
    pub fn inline_gets(&self) -> u64 {
        self.inline_gets.load(Ordering::Relaxed)
    }

    /// `get`s a worker answered: `op(OpClass::Get).completed()` less
    /// [`ServiceStats::inline_gets`].
    pub fn queued_gets(&self) -> u64 {
        // Two loads, not one snapshot. `inline_gets` first: it is raised
        // after `completed`, so read in this order it can only lag it.
        let inline = self.inline_gets();
        self.op(OpClass::Get).completed().saturating_sub(inline)
    }

    /// `get`s queued on a backlogged lane only because a write to their
    /// key (or to a key sharing its in-flight slot) was in flight. High
    /// beside [`ServiceStats::queued_gets`]: reads chase hot written keys;
    /// low: the lane was idle enough that handing reads over was free.
    pub fn conflict_gets(&self) -> u64 {
        self.conflict_gets.load(Ordering::Relaxed)
    }

    /// Store fences issued by the **worker threads** — harvested from
    /// `pmem::stats` after every group, so `fences() / completed()` is
    /// the amortized persistence cost per request. This gauge and the
    /// four below it cover workers only: a `get` answered on its
    /// client's thread leaves its `pmem::stats` (no fences or flushes —
    /// a search stores nothing — but its leaf-directory lookups) on that
    /// thread.
    pub fn fences(&self) -> u64 {
        self.fences.load(Ordering::Relaxed)
    }

    /// Cache-line flushes issued by the worker threads (see
    /// [`ServiceStats::fences`]).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Point operations for which the workers' trees consulted their
    /// leaf directory (`pmem::stats`' `leaf_hint_lookups`, harvested like
    /// [`ServiceStats::fences`] — worker threads only, so inline `get`s'
    /// lookups are not in it).
    pub fn leaf_hint_lookups(&self) -> u64 {
        self.leaf_hint_lookups.load(Ordering::Relaxed)
    }

    /// Those of them settled without a root-to-leaf descent.
    pub fn leaf_hint_hits(&self) -> u64 {
        self.leaf_hint_hits.load(Ordering::Relaxed)
    }

    /// Leaf directories the workers built and swapped in — rebuild churn.
    pub fn leaf_hint_rebuilds(&self) -> u64 {
        self.leaf_hint_rebuilds.load(Ordering::Relaxed)
    }

    /// Stale reads ([`crate::ClientHandle::get_stale`]) answered by a
    /// read replica.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads.load(Ordering::Relaxed)
    }

    /// Stale reads that fell back to the primary's tables (no rotation
    /// configured, or every replica paused out of it).
    pub fn stale_fallbacks(&self) -> u64 {
        self.stale_fallbacks.load(Ordering::Relaxed)
    }

    pub(crate) fn note_submitted(&self, class: OpClass) {
        self.ops[class.index()]
            .submitted
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shed(&self, class: OpClass) {
        self.ops[class.index()].shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_done(&self, class: OpClass, ok: bool, nanos: u64) {
        let op = &self.ops[class.index()];
        if ok {
            op.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            op.errors.fetch_add(1, Ordering::Relaxed);
        }
        op.hist.record(nanos);
    }

    /// One `get` served start to finish on its submitter's thread.
    pub(crate) fn note_inline_get(&self, nanos: u64) {
        self.note_submitted(OpClass::Get);
        self.note_done(OpClass::Get, true, nanos);
        // After `completed`: `queued_gets` reads this one first.
        self.inline_gets.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_conflict_get(&self) {
        self.conflict_gets.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_group(&self, writes: u64, backlog: u64) {
        self.groups.fetch_add(1, Ordering::Relaxed);
        self.grouped_writes.fetch_add(writes, Ordering::Relaxed);
        self.largest_group.fetch_max(writes, Ordering::Relaxed);
        self.queue_high_water.fetch_max(backlog, Ordering::Relaxed);
    }

    pub(crate) fn note_backlog(&self, backlog: u64) {
        self.queue_high_water.fetch_max(backlog, Ordering::Relaxed);
    }

    /// Adds one worker group's thread-local `pmem::stats` to the gauges —
    /// called by workers only; client threads' counters are never
    /// harvested.
    pub(crate) fn harvest_pmem(&self, s: &pmem::stats::Snapshot) {
        self.fences.fetch_add(s.fences, Ordering::Relaxed);
        self.flushes.fetch_add(s.flushes, Ordering::Relaxed);
        self.leaf_hint_lookups
            .fetch_add(s.leaf_hint_lookups, Ordering::Relaxed);
        self.leaf_hint_hits
            .fetch_add(s.leaf_hint_hits, Ordering::Relaxed);
        self.leaf_hint_rebuilds
            .fetch_add(s.leaf_hint_rebuilds, Ordering::Relaxed);
    }

    pub(crate) fn note_stale_read(&self, from_replica: bool) {
        if from_replica {
            self.stale_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stale_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_axis() {
        // Every bucket's upper bound lands back in that bucket, and
        // bucket indexes are monotone in the sample value.
        let mut prev = 0;
        for n in [1u64, 3, 4, 5, 7, 8, 100, 1_000, 1 << 20, u64::MAX / 2] {
            let b = bucket_of(n);
            assert!(b >= prev, "bucket_of not monotone at {n}");
            prev = b;
            assert!(bucket_upper_bound(b) >= n);
            assert_eq!(bucket_of(bucket_upper_bound(b)), b);
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bracketing() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100); // 100ns .. 100us
        }
        let (p50, p99, p999) = (h.percentile(0.5), h.percentile(0.99), h.percentile(0.999));
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        // ~25% bucket resolution around the true p50 of 50_000ns.
        assert!((40_000..=70_000).contains(&p50), "{p50}");
        assert!(p999 >= 90_000, "{p999}");
    }

    #[test]
    fn group_counters_track_means() {
        let s = ServiceStats::new();
        s.note_group(4, 10);
        s.note_group(8, 3);
        assert_eq!(s.groups(), 2);
        assert_eq!(s.grouped_writes(), 12);
        assert_eq!(s.largest_group(), 8);
        assert_eq!(s.queue_high_water(), 10);
        assert!((s.mean_group_size() - 6.0).abs() < f64::EPSILON);
    }
}

//! The emulated persistent-memory pool.
//!
//! A [`Pool`] is one contiguous, cache-line-aligned memory region standing in
//! for a PM device. Indexes address it with [`PmOffset`] byte offsets
//! (offset 0 is NULL, like a null pointer), store through 8-byte atomic
//! views, and call the flush/fence primitives that the FAST and FAIR
//! algorithms order their stores with. All primitives feed the
//! [`crate::stats`] counters and, when enabled, the [`crate::crash`] event
//! log.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{compiler_fence, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::crash::{CrashLog, Event};
use crate::latency::{spin_ns, FenceMode, LatencyProfile};
use crate::stats;

/// Size of a CPU cache line in bytes; the unit of transfer to PM.
pub const CACHE_LINE: usize = 64;

/// The NULL persistent pointer. No object is ever allocated at offset 0.
pub const NULL_OFFSET: PmOffset = 0;

/// Bytes reserved at the start of the pool for pool metadata.
///
/// Layout: `[0..8)` magic, `[8..16)` root object offset, `[16..24)`
/// allocation cursor (high-water mark), `[24..32)` manifest offset,
/// `[32..40)` transaction-journal offset, `[40..48)` catalog offset, rest
/// reserved. The allocation cursor is treated as failure-atomic allocator
/// metadata (PM allocator recovery is outside the paper's scope); the
/// *root offset*, the *manifest offset*, the *journal offset* and the
/// *catalog offset* participate in normal crash semantics because index
/// structures update them with an explicit store + persist.
pub const POOL_HEADER_SIZE: u64 = CACHE_LINE as u64;

const MAGIC: u64 = 0x46_41_53_54_46_41_49_52; // "FASTFAIR"
const ROOT_SLOT: u64 = 8;
const CURSOR_SLOT: u64 = 16;
const MANIFEST_SLOT: u64 = 24;
const JOURNAL_SLOT: u64 = 32;
const CATALOG_SLOT: u64 = 40;

/// A byte offset into a [`Pool`]; the persistent analogue of a pointer.
pub type PmOffset = u64;

/// Errors returned by pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmError {
    /// The pool has no room for the requested allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining.
        available: u64,
    },
    /// The requested pool size is too small to hold the pool header.
    PoolTooSmall,
    /// An alignment that is zero or not a power of two was requested.
    BadAlignment(u64),
}

impl std::fmt::Display for PmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "pool out of memory: requested {requested} bytes, {available} available"
            ),
            PmError::PoolTooSmall => write!(f, "pool size is smaller than the pool header"),
            PmError::BadAlignment(a) => write!(f, "alignment {a} is not a nonzero power of two"),
        }
    }
}

impl std::error::Error for PmError {}

/// Configuration for creating a [`Pool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    size: usize,
    latency: LatencyProfile,
    crash_log: bool,
}

impl PoolConfig {
    /// Starts from the defaults: 64 MiB, DRAM latency, no crash log.
    pub fn new() -> Self {
        PoolConfig {
            size: 64 << 20,
            latency: LatencyProfile::dram(),
            crash_log: false,
        }
    }

    /// Sets the pool size in bytes.
    pub fn size(mut self, bytes: usize) -> Self {
        self.size = bytes;
        self
    }

    /// Sets the emulated latency profile.
    pub fn latency(mut self, latency: LatencyProfile) -> Self {
        self.latency = latency;
        self
    }

    /// Enables the crash-simulation event log (see [`crate::crash`]).
    pub fn crash_log(mut self, enabled: bool) -> Self {
        self.crash_log = enabled;
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::new()
    }
}

struct Buf {
    ptr: *mut u8,
    layout: Layout,
}

impl Buf {
    fn new_zeroed(size: usize) -> Buf {
        let layout = Layout::from_size_align(size, CACHE_LINE).expect("valid layout");
        // SAFETY: layout has nonzero size (checked by caller) and valid alignment.
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "pool allocation failed");
        Buf { ptr, layout }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        // SAFETY: ptr was allocated with this exact layout and not freed.
        unsafe { dealloc(self.ptr, self.layout) };
    }
}

// SAFETY: the buffer is only accessed through atomic operations (or with
// exclusive access during construction), so sharing the raw pointer across
// threads is sound.
unsafe impl Send for Buf {}
unsafe impl Sync for Buf {}

/// An emulated persistent-memory pool.
///
/// All persistent structures in this repository live inside a pool and refer
/// to each other by [`PmOffset`]. The pool provides:
///
/// * failure-atomic 8-byte stores and loads ([`store_u64`](Pool::store_u64),
///   [`load_u64`](Pool::load_u64));
/// * the ordering primitives of the paper's algorithms
///   ([`flush_line`](Pool::flush_line), [`persist`](Pool::persist),
///   [`sfence`](Pool::sfence), [`fence_if_not_tso`](Pool::fence_if_not_tso));
/// * Quartz-style read-latency charging
///   ([`charge_serial_reads`](Pool::charge_serial_reads),
///   [`charge_parallel_lines`](Pool::charge_parallel_lines));
/// * a bump + free-list allocator ([`alloc`](Pool::alloc),
///   [`free`](Pool::free));
/// * crash-state materialization when created with
///   [`PoolConfig::crash_log`].
pub struct Pool {
    buf: Buf,
    size: u64,
    latency: LatencyProfile,
    cursor: AtomicU64,
    freelists: Mutex<BTreeMap<u64, Vec<PmOffset>>>,
    crash: Option<CrashLog>,
    /// Count of allocations served, for diagnostics.
    allocations: AtomicUsize,
    /// One bit per cache line: set = dirty (stored to since its last
    /// flush). Initialized all-clean: a fresh pool's baseline contents
    /// (zeros, or the durable image in [`Pool::from_image`]) are durable
    /// by construction, so a line's first flush has nothing to write back
    /// until a store touches it — exactly like `clflush` of an uncached
    /// line on real hardware.
    dirty: Vec<AtomicU64>,
    /// Identity for the thread-local deferred-flush scope (multi-pool safe).
    pool_id: u64,
}

static POOL_IDS: AtomicU64 = AtomicU64::new(1);

fn dirty_words(size: usize) -> Vec<AtomicU64> {
    let lines = size.div_ceil(CACHE_LINE);
    (0..lines.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
}

thread_local! {
    /// Active deferred-flush scope: `(pool_id, requested-line list)`.
    static DEFERRED: RefCell<Option<(u64, Vec<u64>)>> = const { RefCell::new(None) };
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("size", &self.size)
            .field("used", &self.cursor.load(Ordering::Relaxed))
            .field("latency", &self.latency)
            .field("crash_log", &self.crash.is_some())
            .finish()
    }
}

impl Pool {
    /// Creates a fresh, zeroed pool.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::PoolTooSmall`] if the configured size cannot hold
    /// the pool header.
    pub fn new(config: PoolConfig) -> Result<Pool, PmError> {
        if (config.size as u64) < POOL_HEADER_SIZE + CACHE_LINE as u64 {
            return Err(PmError::PoolTooSmall);
        }
        let pool = Pool {
            buf: Buf::new_zeroed(config.size),
            size: config.size as u64,
            latency: config.latency,
            cursor: AtomicU64::new(POOL_HEADER_SIZE),
            freelists: Mutex::new(BTreeMap::new()),
            crash: config.crash_log.then(CrashLog::new),
            allocations: AtomicUsize::new(0),
            dirty: dirty_words(config.size),
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
        };
        pool.raw_store(0, MAGIC);
        pool.raw_store(CURSOR_SLOT, POOL_HEADER_SIZE);
        Ok(pool)
    }

    /// Reconstructs a pool from a post-crash persistent image, as produced by
    /// [`Pool::crash_image`]. The allocation cursor is recovered from the
    /// pool header; the free list starts empty (blocks freed before the crash
    /// leak, which matches PM allocators without offline garbage collection).
    pub fn from_image(image: &[u8], config: PoolConfig) -> Result<Pool, PmError> {
        let size = image.len().max(config.size);
        if (size as u64) < POOL_HEADER_SIZE + CACHE_LINE as u64 {
            return Err(PmError::PoolTooSmall);
        }
        let buf = Buf::new_zeroed(size);
        // SAFETY: freshly allocated buffer of at least image.len() bytes;
        // no other references exist yet.
        unsafe {
            std::ptr::copy_nonoverlapping(image.as_ptr(), buf.ptr, image.len());
        }
        let pool = Pool {
            buf,
            size: size as u64,
            latency: config.latency,
            cursor: AtomicU64::new(0),
            freelists: Mutex::new(BTreeMap::new()),
            crash: config.crash_log.then(CrashLog::new),
            allocations: AtomicUsize::new(0),
            dirty: dirty_words(size),
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
        };
        let cursor = pool.raw_load(CURSOR_SLOT).max(POOL_HEADER_SIZE);
        pool.cursor.store(cursor, Ordering::SeqCst);
        pool.raw_store(0, MAGIC);
        Ok(pool)
    }

    /// Total pool capacity in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Current allocation high-water mark in bytes.
    pub fn high_water(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// The latency profile this pool injects.
    pub fn latency(&self) -> &LatencyProfile {
        &self.latency
    }

    /// The crash-simulation log, if enabled.
    pub fn crash_log(&self) -> Option<&CrashLog> {
        self.crash.as_ref()
    }

    #[inline]
    fn atom(&self, off: PmOffset) -> &AtomicU64 {
        assert!(
            off.is_multiple_of(8) && off + 8 <= self.size,
            "unaligned or out-of-bounds pm access at offset {off:#x}"
        );
        // SAFETY: bounds and 8-byte alignment checked above; the buffer is
        // only ever accessed through atomics so constructing a shared
        // AtomicU64 view is sound.
        unsafe { &*(self.buf.ptr.add(off as usize) as *const AtomicU64) }
    }

    #[inline]
    fn raw_store(&self, off: PmOffset, val: u64) {
        self.atom(off).store(val, Ordering::Release);
        self.mark_dirty(off);
    }

    /// Sets the dirty bit of the line containing `off`.
    #[inline]
    fn mark_dirty(&self, off: PmOffset) {
        let line = (off as usize) / CACHE_LINE;
        self.dirty[line / 64].fetch_or(1 << (line % 64), Ordering::AcqRel);
    }

    /// Clears the dirty bit of `line` (a line-aligned offset); returns
    /// whether it was set.
    #[inline]
    fn test_and_clear_dirty(&self, line: u64) -> bool {
        let idx = (line as usize) / CACHE_LINE;
        let mask = 1u64 << (idx % 64);
        self.dirty[idx / 64].fetch_and(!mask, Ordering::AcqRel) & mask != 0
    }

    #[inline]
    fn raw_load(&self, off: PmOffset) -> u64 {
        self.atom(off).load(Ordering::Acquire)
    }

    /// Failure-atomic 8-byte store (release ordering).
    ///
    /// This is *the* primitive of the paper: every FAST/FAIR mutation is a
    /// sequence of these, ordered by TSO (or explicit fences) and made
    /// durable by [`flush_line`](Pool::flush_line).
    #[inline]
    pub fn store_u64(&self, off: PmOffset, val: u64) {
        match &self.crash {
            // The store, its dirty bit and its log event commit under the
            // event lock, so a concurrent flush of the same line either
            // sees the bit (and issues, covering this store) or logs its
            // flush before this store (and this line's bit stays set for
            // the next flush). Without the lock, an elided flush could be
            // ordered after the store in the log while the bit it cleared
            // hid the store from every later flush.
            Some(log) => log.with_events(|events| {
                self.raw_store(off, val);
                events.push(Event::Store { off, val });
            }),
            None => self.raw_store(off, val),
        }
    }

    /// Atomic 8-byte load (acquire ordering).
    #[inline]
    pub fn load_u64(&self, off: PmOffset) -> u64 {
        self.raw_load(off)
    }

    /// 8-byte compare-and-swap; returns the previous value on failure.
    ///
    /// Used by the lock-free persistent skip list baseline. The store is
    /// recorded in the crash log on success.
    #[inline]
    pub fn cas_u64(&self, off: PmOffset, current: u64, new: u64) -> Result<u64, u64> {
        let cas = || {
            let r =
                self.atom(off)
                    .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire);
            if r.is_ok() {
                self.mark_dirty(off);
            }
            r
        };
        match &self.crash {
            // Same store/dirty-bit/event atomicity as store_u64.
            Some(log) => log.with_events(|events| {
                let r = cas();
                if r.is_ok() {
                    events.push(Event::Store { off, val: new });
                }
                r
            }),
            None => cas(),
        }
    }

    /// Volatile (unlogged) 8-byte compare-and-swap.
    ///
    /// For *volatile* node state embedded in PM — lock words and other
    /// fields whose post-crash contents are reset on recovery. These stores
    /// never enter the crash log, matching the paper's treatment of
    /// `std::mutex` state as non-persistent.
    #[inline]
    pub fn cas_u64_volatile(&self, off: PmOffset, current: u64, new: u64) -> Result<u64, u64> {
        self.atom(off)
            .compare_exchange_weak(current, new, Ordering::Acquire, Ordering::Relaxed)
    }

    /// Volatile (unlogged) 8-byte store with release ordering.
    #[inline]
    pub fn store_u64_volatile(&self, off: PmOffset, val: u64) {
        // Marks the line dirty too: volatile state is never flushed on its
        // own, but it shares header lines with persistent fields, and a
        // conservative dirty bit only costs an already-justified flush.
        self.raw_store(off, val);
    }

    /// Volatile (unlogged) fetch-sub, used to release read locks.
    #[inline]
    pub fn fetch_sub_u64_volatile(&self, off: PmOffset, delta: u64) -> u64 {
        self.atom(off).fetch_sub(delta, Ordering::Release)
    }

    /// Stores one byte by read-modify-write of the containing 8-byte word.
    ///
    /// Byte stores are used by FP-tree fingerprints. The caller must ensure
    /// no concurrent writer touches the same word (FP-tree holds the leaf
    /// lock); the paper's hardware would give the same result because a byte
    /// store is atomic but the crash granularity is the word.
    #[inline]
    pub fn store_u8(&self, off: PmOffset, val: u8) {
        let word_off = off & !7;
        let shift = (off - word_off) * 8;
        let old = self.raw_load(word_off);
        let new = (old & !(0xffu64 << shift)) | (u64::from(val) << shift);
        self.store_u64(word_off, new);
    }

    /// Loads one byte.
    #[inline]
    pub fn load_u8(&self, off: PmOffset) -> u8 {
        let word_off = off & !7;
        let shift = (off - word_off) * 8;
        (self.raw_load(word_off) >> shift) as u8
    }

    /// Emulated `clflush` of the cache line containing `off`.
    ///
    /// Injects the configured PM write latency and bumps the flush counter.
    /// Does **not** fence; pair with [`sfence`](Pool::sfence) or use
    /// [`persist`](Pool::persist).
    ///
    /// A flush of a *clean* line — no store since its previous flush — is
    /// elided and counted in [`stats::Snapshot::flushes_coalesced`]: a
    /// clean line has no pending stores to write back, so skipping the
    /// `clflush` leaves the set of reachable post-crash images unchanged.
    /// Inside a [`deferred flush scope`](Pool::deferred_flush_scope) the
    /// request is instead queued and issued (deduplicated) when the scope
    /// closes.
    #[inline]
    pub fn flush_line(&self, off: PmOffset) {
        let line = off & !(CACHE_LINE as u64 - 1);
        let deferred = DEFERRED.with(|d| {
            let mut d = d.borrow_mut();
            match d.as_mut() {
                Some((id, lines)) if *id == self.pool_id => {
                    lines.push(line);
                    true
                }
                _ => false,
            }
        });
        if deferred {
            return;
        }
        self.flush_line_now(line);
    }

    /// Issues (or elides) a flush of `line` immediately, bypassing any
    /// deferred scope.
    fn flush_line_now(&self, line: u64) {
        match &self.crash {
            Some(log) => {
                // The elision decision and the log event must be one
                // atomic step (see store_u64): otherwise a concurrent
                // store could slip between them, be ordered before this
                // flush in the log, yet have its dirty bit swallowed.
                let issued = log.with_events(|events| {
                    if !self.test_and_clear_dirty(line) {
                        return false;
                    }
                    events.push(Event::FlushLine { line });
                    true
                });
                if !issued {
                    stats::count_flush_coalesced(1);
                    return;
                }
            }
            None => {
                if !self.test_and_clear_dirty(line) {
                    stats::count_flush_coalesced(1);
                    return;
                }
            }
        }
        let ns = self.latency.write_ns;
        spin_ns(ns);
        stats::count_flush(u64::from(ns));
    }

    /// Opens a *deferred flush scope* on this thread: until the returned
    /// guard drops, every [`flush_line`](Pool::flush_line) on this pool
    /// from this thread is queued instead of issued; the guard's drop
    /// issues the queued lines once each (duplicates counted in
    /// [`stats::Snapshot::flushes_coalesced`]) followed by one fence.
    ///
    /// # Crash-ordering warning
    ///
    /// Deferral *removes* the intermediate flush/fence barriers the scoped
    /// code asked for: a crash inside the scope can reorder persistence
    /// across those barriers arbitrarily. It is only sound around code
    /// whose recovery does not depend on intra-scope flush ordering —
    /// e.g. staging writes into a region that a *later* (outside-scope)
    /// failure-atomic commit publishes, such as the `txn` journal's
    /// staging phase: until the commit store, recovery ignores the whole
    /// region. Never wrap in-place index mutations (FAST shifts, FAIR
    /// links) whose lazy recovery relies on their internal flush order.
    ///
    /// Scopes do not nest: an inner scope on the same thread is inert and
    /// the outer one drains everything.
    pub fn deferred_flush_scope(&self) -> FlushScope<'_> {
        let armed = DEFERRED.with(|d| {
            let mut d = d.borrow_mut();
            if d.is_some() {
                return false;
            }
            *d = Some((self.pool_id, Vec::new()));
            true
        });
        FlushScope { pool: self, armed }
    }

    /// Store fence ordering prior flushes (emulated `sfence`/`mfence`).
    ///
    /// Free on the emulated hardware apart from the counter, exactly as the
    /// paper treats fence cost as negligible next to `clflush` on x86.
    #[inline]
    pub fn sfence(&self) {
        compiler_fence(Ordering::SeqCst);
        stats::count_fence();
    }

    /// Flushes every cache line covering `[off, off + len)` and fences.
    ///
    /// The `clflush_with_mfence` of the paper's pseudo code.
    #[inline]
    pub fn persist(&self, off: PmOffset, len: u64) {
        debug_assert!(len > 0);
        let first = off & !(CACHE_LINE as u64 - 1);
        let last = (off + len - 1) & !(CACHE_LINE as u64 - 1);
        let mut line = first;
        loop {
            self.flush_line(line);
            if line == last {
                break;
            }
            line += CACHE_LINE as u64;
        }
        self.sfence();
    }

    /// Store-store barrier needed only on non-TSO architectures.
    ///
    /// FAST's shift loop calls this between every dependent pair of 8-byte
    /// stores (`mfence_IF_NOT_TSO` in Algorithm 1). Under
    /// [`FenceMode::Tso`] it compiles to a compiler fence; under
    /// [`FenceMode::NonTso`] it counts and costs one `dmb`.
    #[inline]
    pub fn fence_if_not_tso(&self) {
        match self.latency.fence {
            FenceMode::Tso => compiler_fence(Ordering::Release),
            FenceMode::NonTso { dmb_ns } => {
                std::sync::atomic::fence(Ordering::SeqCst);
                spin_ns(dmb_ns);
                stats::count_dmb();
            }
        }
    }

    /// Charges `n` *serial* (dependent) cache misses of read latency.
    ///
    /// Call once per pointer-chasing hop — following a child or sibling
    /// pointer to a node whose cache lines cannot be prefetched.
    #[inline]
    pub fn charge_serial_reads(&self, n: u32) {
        if n == 0 {
            return;
        }
        stats::count_serial(u64::from(n));
        let ns = self.latency.read_ns;
        if ns != 0 {
            spin_ns(ns.saturating_mul(n));
        }
    }

    /// Charges a linear scan over `lines` adjacent cache lines.
    ///
    /// Adjacent lines are overlapped by the prefetcher / memory-level
    /// parallelism, so the injected stall is `ceil(lines / mlp)` serial
    /// latencies — the effect that makes linear search win in §5.2.
    #[inline]
    pub fn charge_parallel_lines(&self, lines: u32) {
        if lines == 0 {
            return;
        }
        stats::count_parallel(u64::from(lines));
        let ns = self.latency.read_ns;
        if ns != 0 {
            let serial = lines.div_ceil(self.latency.mlp.max(1));
            spin_ns(ns.saturating_mul(serial));
        }
    }

    /// Allocates `size` bytes with the given power-of-two alignment.
    ///
    /// Checks the size-class free list first, then bumps the cursor. The
    /// returned region's *contents are unspecified* if recycled from the
    /// free list; fresh regions are zeroed.
    ///
    /// # Errors
    ///
    /// [`PmError::OutOfMemory`] when the pool is exhausted,
    /// [`PmError::BadAlignment`] for a zero or non-power-of-two alignment.
    pub fn alloc(&self, size: u64, align: u64) -> Result<PmOffset, PmError> {
        if align == 0 || !align.is_power_of_two() {
            return Err(PmError::BadAlignment(align));
        }
        let size = size.max(8);
        {
            let mut lists = self.freelists.lock();
            if let Some(list) = lists.get_mut(&size) {
                if let Some(off) = list.pop() {
                    if off.is_multiple_of(align) {
                        self.allocations.fetch_add(1, Ordering::Relaxed);
                        return Ok(off);
                    }
                    // Wrong alignment for this request; such blocks are rare
                    // (all nodes of one size share an alignment) — drop it
                    // back and fall through to the bump path.
                    list.push(off);
                }
            }
        }
        loop {
            let cur = self.cursor.load(Ordering::Relaxed);
            let start = (cur + align - 1) & !(align - 1);
            let end = start + size;
            if end > self.size {
                return Err(PmError::OutOfMemory {
                    requested: size,
                    available: self.size.saturating_sub(cur),
                });
            }
            if self
                .cursor
                .compare_exchange(cur, end, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                // Allocator metadata is treated as failure-atomic (outside
                // the paper's scope), so the header cursor is updated with a
                // raw (unlogged) store.
                self.raw_store(CURSOR_SLOT, end);
                self.allocations.fetch_add(1, Ordering::Relaxed);
                return Ok(start);
            }
        }
    }

    /// Returns a block to the (volatile) size-class free list and counts it
    /// in [`stats::Snapshot::nodes_recycled`].
    ///
    /// The free list does not survive a crash; blocks freed before a crash
    /// leak, as in PM allocators without offline GC.
    pub fn free(&self, off: PmOffset, size: u64) {
        let size = size.max(8);
        stats::count_recycled(1);
        self.freelists.lock().entry(size).or_default().push(off);
    }

    /// Zeroes `len` bytes starting at `off` (8-byte aligned, logged stores).
    ///
    /// Words that already read zero are skipped: rewriting them would
    /// re-dirty clean lines and force the caller's covering persist to
    /// write back cache lines whose durable contents cannot change. Fresh
    /// bump allocations (and the untouched tail of recycled nodes) thus
    /// keep their lines clean, and the node-sized persists after splits
    /// and root growth elide them — counted in
    /// [`stats::Snapshot::flushes_coalesced`].
    ///
    /// Skipping is sound: a word that reads zero is either durably zero or
    /// carries a pending zero store on a still-dirty line, so the set of
    /// reachable post-crash images is unchanged either way.
    pub fn zero_region(&self, off: PmOffset, len: u64) {
        debug_assert!(off.is_multiple_of(8) && len.is_multiple_of(8));
        let mut o = off;
        while o < off + len {
            if self.raw_load(o) != 0 {
                self.store_u64(o, 0);
            }
            o += 8;
        }
    }

    /// Number of allocations served (diagnostics only).
    pub fn allocation_count(&self) -> usize {
        self.allocations.load(Ordering::Relaxed)
    }

    /// The pool's root object offset (0 when unset).
    ///
    /// Index structures store the offset of their superblock/root here so a
    /// reopened pool can find them — the paper's "instantaneous recovery"
    /// entry point.
    pub fn root(&self) -> PmOffset {
        self.load_u64(ROOT_SLOT)
    }

    /// Sets and persists the root object offset.
    pub fn set_root(&self, off: PmOffset) {
        self.store_u64(ROOT_SLOT, off);
        self.persist(ROOT_SLOT, 8);
    }

    /// The pool's manifest offset (0 when unset).
    ///
    /// A second well-known header slot, reserved for *multi-structure*
    /// metadata: the shard router stores the offset of its current
    /// epoch-numbered shard-map record here. Distinct from
    /// [`root`](Pool::root) so a pool can simultaneously host an index
    /// (whose superblock the root slot names) and act as the manifest home
    /// of a sharded deployment.
    pub fn manifest(&self) -> PmOffset {
        self.load_u64(MANIFEST_SLOT)
    }

    /// Sets and persists the manifest offset — one failure-atomic 8-byte
    /// store followed by a flush + fence.
    ///
    /// This is the commit primitive for multi-structure updates (the
    /// paper-faithful alternative to a redo/undo log): prepare an
    /// arbitrarily large record elsewhere, persist it, then publish it with
    /// this single atomic pointer flip. A crash exposes either the old
    /// manifest or the new one, never a mixture. Each call is counted in
    /// [`crate::stats::Snapshot::manifest_commits`].
    pub fn set_manifest(&self, off: PmOffset) {
        self.store_u64(MANIFEST_SLOT, off);
        self.persist(MANIFEST_SLOT, 8);
        stats::count_manifest_commit();
    }

    /// The pool's transaction-journal offset (0 when unset).
    ///
    /// A third well-known header slot, naming the `txn` crate's redo
    /// journal region in this pool so a reopened pool can find — and
    /// replay — committed-but-unapplied write batches. Distinct from
    /// [`root`](Pool::root) and [`manifest`](Pool::manifest) so one pool
    /// can host an index, a shard manifest and a journal simultaneously.
    pub fn txn_journal(&self) -> PmOffset {
        self.load_u64(JOURNAL_SLOT)
    }

    /// Sets and persists the transaction-journal offset — one
    /// failure-atomic 8-byte store followed by a flush + fence, the same
    /// publish discipline as [`set_manifest`](Pool::set_manifest):
    /// prepare and persist the journal region first, then name it here
    /// with a single atomic pointer flip.
    pub fn set_txn_journal(&self, off: PmOffset) {
        self.store_u64(JOURNAL_SLOT, off);
        self.persist(JOURNAL_SLOT, 8);
    }

    /// The pool's store-catalog offset (0 when unset).
    ///
    /// A fourth well-known header slot, naming the `catalog` crate's
    /// superblock in this pool: the persistent name→store registry a
    /// reopening process bootstraps from. Only the *root pool* of a
    /// deployment uses this slot; it is distinct from
    /// [`root`](Pool::root), [`manifest`](Pool::manifest) and
    /// [`txn_journal`](Pool::txn_journal) so the root pool can host an
    /// index, a shard manifest, a journal and the catalog simultaneously.
    pub fn catalog(&self) -> PmOffset {
        self.load_u64(CATALOG_SLOT)
    }

    /// Sets and persists the store-catalog offset — one failure-atomic
    /// 8-byte store followed by a flush + fence, the same publish
    /// discipline as [`set_manifest`](Pool::set_manifest): prepare and
    /// persist the catalog superblock first, then name it here with a
    /// single atomic pointer flip. A crash exposes either the old catalog
    /// or the new one, never a mixture.
    pub fn set_catalog(&self, off: PmOffset) {
        self.store_u64(CATALOG_SLOT, off);
        self.persist(CATALOG_SLOT, 8);
    }

    /// Copies the current *volatile* contents of the pool.
    ///
    /// This is what the memory would look like if every cache line were
    /// written back — the "clean shutdown" image.
    pub fn volatile_image(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.size as usize];
        // Word-wise atomic copy so we never create a plain & reference.
        for w in 0..(self.size / 8) {
            let v = self.raw_load(w * 8);
            out[(w * 8) as usize..(w * 8 + 8) as usize].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Materializes the persistent image at crash point `cut`, with per-line
    /// eviction prefixes chosen by `choose` (see [`crate::crash`]).
    ///
    /// # Panics
    ///
    /// Panics if the pool was created without [`PoolConfig::crash_log`].
    pub fn crash_image_with(&self, cut: usize, choose: impl FnMut(u64, usize) -> usize) -> Vec<u8> {
        let log = self
            .crash
            .as_ref()
            .expect("crash_image requires PoolConfig::crash_log(true)");
        let mut image = log.replay(self.size as usize, cut, choose);
        // Allocator metadata (magic + cursor) is assumed failure-atomic.
        image[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        let cursor = self.raw_load(CURSOR_SLOT);
        image[CURSOR_SLOT as usize..CURSOR_SLOT as usize + 8]
            .copy_from_slice(&cursor.to_le_bytes());
        image
    }

    /// Like [`crash_image_with`](Pool::crash_image_with) using a fixed
    /// [`crate::crash::Eviction`] policy.
    pub fn crash_image(&self, cut: usize, policy: crate::crash::Eviction) -> Vec<u8> {
        let mut policy = policy;
        self.crash_image_with(cut, move |line, n| policy.choose(line, n))
    }
}

/// RAII guard of a [`Pool::deferred_flush_scope`]. Dropping it issues every
/// queued line once (in ascending line order) and fences.
pub struct FlushScope<'a> {
    pool: &'a Pool,
    armed: bool,
}

impl FlushScope<'_> {
    /// Closes the scope early (before drop), issuing the queued flushes.
    pub fn flush(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let Some((_, mut lines)) = DEFERRED.with(|d| d.borrow_mut().take()) else {
            return;
        };
        let requested = lines.len();
        lines.sort_unstable();
        lines.dedup();
        stats::count_flush_coalesced((requested - lines.len()) as u64);
        if lines.is_empty() {
            return;
        }
        for line in lines {
            self.pool.flush_line_now(line);
        }
        self.pool.sfence();
    }
}

impl Drop for FlushScope<'_> {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool() -> Pool {
        Pool::new(PoolConfig::new().size(1 << 16)).unwrap()
    }

    #[test]
    fn store_load_roundtrip() {
        let p = small_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 0xdead_beef);
        assert_eq!(p.load_u64(off), 0xdead_beef);
    }

    #[test]
    fn byte_store_within_word() {
        let p = small_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, u64::MAX);
        p.store_u8(off + 3, 0);
        assert_eq!(p.load_u8(off + 3), 0);
        assert_eq!(p.load_u8(off + 2), 0xff);
        assert_eq!(p.load_u64(off), 0xffff_ffff_00ff_ffff);
    }

    #[test]
    fn cas_success_and_failure() {
        let p = small_pool();
        let off = p.alloc(8, 8).unwrap();
        p.store_u64(off, 1);
        assert_eq!(p.cas_u64(off, 1, 2), Ok(1));
        assert_eq!(p.cas_u64(off, 1, 3), Err(2));
        assert_eq!(p.load_u64(off), 2);
    }

    #[test]
    fn alloc_respects_alignment_and_bounds() {
        let p = Pool::new(PoolConfig::new().size(4096)).unwrap();
        let a = p.alloc(100, 64).unwrap();
        assert_eq!(a % 64, 0);
        let b = p.alloc(100, 64).unwrap();
        assert!(b >= a + 100);
        assert!(matches!(
            p.alloc(1 << 20, 64),
            Err(PmError::OutOfMemory { .. })
        ));
        assert!(matches!(p.alloc(8, 3), Err(PmError::BadAlignment(3))));
    }

    #[test]
    fn alloc_never_returns_null() {
        let p = small_pool();
        for _ in 0..16 {
            assert_ne!(p.alloc(32, 8).unwrap(), NULL_OFFSET);
        }
    }

    #[test]
    fn free_list_recycles() {
        let p = small_pool();
        let a = p.alloc(256, 64).unwrap();
        p.free(a, 256);
        let b = p.alloc(256, 64).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn root_roundtrip() {
        let p = small_pool();
        assert_eq!(p.root(), NULL_OFFSET);
        p.set_root(4096);
        assert_eq!(p.root(), 4096);
    }

    #[test]
    fn manifest_roundtrip_and_commit_count() {
        let p = small_pool();
        assert_eq!(p.manifest(), NULL_OFFSET);
        stats::reset();
        p.set_manifest(8192);
        assert_eq!(p.manifest(), 8192);
        let s = stats::take();
        assert_eq!(s.manifest_commits, 1);
        assert_eq!(s.flushes, 1); // one 8-byte slot: one line
                                  // Root and manifest slots are independent.
        p.set_root(4096);
        assert_eq!(p.manifest(), 8192);
        assert_eq!(p.root(), 4096);
    }

    #[test]
    fn txn_journal_roundtrip_and_independence() {
        let p = small_pool();
        assert_eq!(p.txn_journal(), NULL_OFFSET);
        p.set_txn_journal(16384);
        assert_eq!(p.txn_journal(), 16384);
        // The journal slot is independent of root and manifest.
        p.set_root(4096);
        p.set_manifest(8192);
        assert_eq!(p.txn_journal(), 16384);
        assert_eq!(p.root(), 4096);
        assert_eq!(p.manifest(), 8192);
    }

    #[test]
    fn catalog_roundtrip_and_independence() {
        let p = small_pool();
        assert_eq!(p.catalog(), NULL_OFFSET);
        p.set_catalog(24576);
        assert_eq!(p.catalog(), 24576);
        // The catalog slot is independent of the other header slots, and
        // survives a clean-image reopen like any persisted store.
        p.set_root(4096);
        p.set_manifest(8192);
        p.set_txn_journal(16384);
        assert_eq!(p.catalog(), 24576);
        let img = p.volatile_image();
        let p2 = Pool::from_image(&img, PoolConfig::new().size(1 << 20)).unwrap();
        assert_eq!(p2.catalog(), 24576);
        assert_eq!(p2.root(), 4096);
    }

    #[test]
    fn persist_flushes_every_covered_line() {
        let p = small_pool();
        let off = p.alloc(512, 64).unwrap();
        stats::reset();
        for line in 0..8 {
            p.store_u64(off + line * 64, line + 1);
        }
        p.persist(off, 512);
        let s = stats::take();
        assert_eq!(s.flushes, 8); // 512-byte node = 8 cache lines (paper §5.2)
        assert_eq!(s.fences, 1);
    }

    #[test]
    fn persist_single_word_is_one_flush() {
        let p = small_pool();
        let off = p.alloc(64, 64).unwrap();
        stats::reset();
        p.store_u64(off, 1);
        p.persist(off, 8);
        assert_eq!(stats::take().flushes, 1);
    }

    #[test]
    fn pristine_line_flush_is_elided() {
        // A never-stored line has nothing to write back: its baseline
        // contents (pool zeros, or the durable image on reopen) are
        // durable by construction. Node-sized persists after a split thus
        // only pay for the lines the record copy actually touched.
        let p = small_pool();
        let off = p.alloc(512, 64).unwrap();
        stats::reset();
        p.store_u64(off, 1); // dirty line 0 only
        p.persist(off, 512);
        let s = stats::take();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.flushes_coalesced, 7);
    }

    #[test]
    fn zero_region_keeps_pristine_lines_clean() {
        let p = small_pool();
        let off = p.alloc(256, 64).unwrap();
        p.store_u64(off + 8, 77); // one stale word on line 0
        p.persist(off, 256);
        stats::reset();
        p.zero_region(off, 256); // only the stale word is rewritten
        p.persist(off, 256);
        let s = stats::take();
        assert_eq!(s.flushes, 1); // line 0 (stale word) re-flushed
        assert_eq!(s.flushes_coalesced, 3);
        for w in 0..32 {
            assert_eq!(p.load_u64(off + w * 8), 0);
        }
    }

    #[test]
    fn clean_line_flush_is_elided() {
        let p = small_pool();
        let off = p.alloc(64, 64).unwrap();
        stats::reset();
        p.store_u64(off, 1);
        p.persist(off, 8); // dirty: issued
        p.persist(off, 8); // clean: elided
        let s = stats::take();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.flushes_coalesced, 1);
        assert_eq!(s.fences, 2); // fences are never elided
                                 // A new store re-dirties the line.
        p.store_u64(off + 8, 2);
        stats::reset();
        p.persist(off, 8);
        assert_eq!(stats::take().flushes, 1);
    }

    #[test]
    fn deferred_scope_dedups_and_flushes_on_close() {
        let p = small_pool();
        let off = p.alloc(128, 64).unwrap();
        stats::reset();
        {
            let _scope = p.deferred_flush_scope();
            p.store_u64(off, 1);
            p.persist(off, 8);
            p.store_u64(off, 2);
            p.persist(off, 8); // same line again: deduplicated
            p.store_u64(off + 64, 3);
            p.persist(off + 64, 8);
            // Nothing issued yet.
            assert_eq!(stats::snapshot().flushes, 0);
        }
        let s = stats::take();
        assert_eq!(s.flushes, 2); // two distinct lines
        assert_eq!(s.flushes_coalesced, 1); // the duplicate request
        assert_eq!(p.load_u64(off), 2);
    }

    #[test]
    fn deferred_scope_logs_events_at_close() {
        let p = Pool::new(PoolConfig::new().size(1 << 16).crash_log(true)).unwrap();
        let off = p.alloc(64, 64).unwrap();
        let scope = p.deferred_flush_scope();
        p.store_u64(off, 9);
        p.persist(off, 8);
        // The flush is queued, not logged: a crash here loses the store.
        let cut = p.crash_log().unwrap().len();
        let img = p.crash_image(cut, crate::crash::Eviction::None);
        assert_eq!(
            u64::from_le_bytes(img[off as usize..][..8].try_into().unwrap()),
            0
        );
        scope.flush();
        // After the scope closes the flush is in the log and durable.
        let cut = p.crash_log().unwrap().len();
        let img = p.crash_image(cut, crate::crash::Eviction::None);
        assert_eq!(
            u64::from_le_bytes(img[off as usize..][..8].try_into().unwrap()),
            9
        );
    }

    #[test]
    fn nested_deferred_scope_is_inert() {
        let p = small_pool();
        let off = p.alloc(64, 64).unwrap();
        stats::reset();
        {
            let _outer = p.deferred_flush_scope();
            {
                let _inner = p.deferred_flush_scope();
                p.store_u64(off, 1);
                p.persist(off, 8);
            }
            // The inner scope must not have drained the outer's queue.
            assert_eq!(stats::snapshot().flushes, 0);
        }
        assert_eq!(stats::take().flushes, 1);
    }

    #[test]
    fn non_tso_counts_dmb() {
        let p = Pool::new(
            PoolConfig::new()
                .size(1 << 16)
                .latency(LatencyProfile::dram().with_fence(FenceMode::NonTso { dmb_ns: 0 })),
        )
        .unwrap();
        stats::reset();
        p.fence_if_not_tso();
        p.fence_if_not_tso();
        assert_eq!(stats::take().dmb_barriers, 2);
    }

    #[test]
    fn tso_fence_is_not_counted() {
        let p = small_pool();
        stats::reset();
        p.fence_if_not_tso();
        assert_eq!(stats::take().dmb_barriers, 0);
    }

    #[test]
    fn read_charging_counts() {
        let p = small_pool();
        stats::reset();
        p.charge_serial_reads(3);
        p.charge_parallel_lines(8);
        let s = stats::take();
        assert_eq!(s.serial_misses, 3);
        assert_eq!(s.parallel_lines, 8);
    }

    #[test]
    fn volatile_image_roundtrip() {
        let p = small_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 7777);
        let img = p.volatile_image();
        let p2 = Pool::from_image(&img, PoolConfig::new().size(1 << 16)).unwrap();
        assert_eq!(p2.load_u64(off), 7777);
        // Cursor recovered: next alloc does not overlap.
        let next = p2.alloc(64, 64).unwrap();
        assert!(next >= off + 64);
    }

    #[test]
    fn zero_region_zeroes() {
        let p = small_pool();
        let off = p.alloc(64, 8).unwrap();
        p.store_u64(off, 1);
        p.store_u64(off + 56, 2);
        p.zero_region(off, 64);
        assert_eq!(p.load_u64(off), 0);
        assert_eq!(p.load_u64(off + 56), 0);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn out_of_bounds_store_panics() {
        let p = small_pool();
        p.store_u64(1 << 20, 1);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_store_panics() {
        let p = small_pool();
        p.store_u64(12345, 1);
    }
}

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
/// Layout: `[0..8)` magic, `[8..16)` reserved (zero), `[16..24)`
/// allocation cursor, `[24..48)` the [`CommitCell`](crate::CommitCell)s
/// `MANIFEST`, `JOURNAL` and `CATALOG`; the rest is reserved. The cursor
/// is failure-atomic allocator metadata (PM allocator recovery is
/// outside the paper's scope); the cells follow normal crash semantics.
pub const POOL_HEADER_SIZE: u64 = CACHE_LINE as u64;

const MAGIC: u64 = 0x46_41_53_54_46_41_49_52; // "FASTFAIR"
const CURSOR_SLOT: u64 = 16;

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
    /// A [`CommitCell`](crate::CommitCell) names an unaligned offset, or
    /// one whose record does not fit the pool: a corrupt commit word.
    BadTarget {
        /// Offset of the commit word.
        cell: PmOffset,
        /// The offset it names.
        target: u64,
        /// Bytes the reader needed there.
        len: u64,
    },
    /// A record a [`CommitCell`](crate::CommitCell) names, or one offered
    /// to it, fails the record codec: magic, length cap or checksum.
    BadRecord {
        /// Offset of the commit word.
        cell: PmOffset,
        /// Which check failed.
        why: &'static str,
    },
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
            PmError::BadTarget { cell, target, len } => write!(
                f,
                "commit word at {cell:#x} names {len} bytes at {target:#x}, unaligned or outside the pool"
            ),
            PmError::BadRecord { cell, why } => write!(f, "record of commit word {cell:#x}: {why}"),
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
}

fn dirty_words(size: usize) -> Vec<AtomicU64> {
    let lines = size.div_ceil(CACHE_LINE);
    (0..lines.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
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

    /// Sets the dirty bit of the line containing `off`, after a store to
    /// it. It loads the bitmap word first and pays the atomic `fetch_or`
    /// only when the line's bit is clear, so a store to an already-dirty
    /// line — every store to a line after its first since a flush — does
    /// no atomic read-modify-write. The load looks at this line's bit
    /// only; the `fetch_or` and the flush's `fetch_and` stay RMWs, so
    /// lines that share a bitmap word never lose each other's bits.
    ///
    /// *In crash mode* every logged store and every flush runs under the
    /// crash log's event lock, so the load reads the bit exactly as the
    /// `fetch_or` would have, and the log, the bits and every crash image
    /// are what they were with an unconditional `fetch_or`.
    ///
    /// *Outside crash mode* the bitmap decides only whether a later flush
    /// of the line is issued or coalesced. Suppose every store to the line
    /// and every flush of it are ordered by happens-before: through the
    /// node latch, a lock's release/acquire, or a single writer per
    /// lane. Then each flush's clear either happens before this load, which
    /// therefore reads that clear or a later value (coherence), or happens
    /// after this store. So a set bit seen here was set by a store since
    /// the last clear, and the next flush, which follows this store,
    /// finds it still set: the decision the `fetch_or` would have made.
    /// A successful [`cas_u64`](Pool::cas_u64) is covered without that
    /// premise: its RMW and this load are both `SeqCst`, so the load
    /// cannot pass the CAS, and a flush whose clear it did not yet see
    /// comes after the CAS in the single `SeqCst` order, as a `clflush`
    /// issued after the store would on hardware.
    ///
    /// The one pattern the argument does not cover is an unlatched plain
    /// store racing a flush of the same line on another thread: the load
    /// may read a bit that the flush is about to clear, and that flush
    /// is not ordered after the store as an acquire of our `fetch_or`
    /// would have ordered it. No persistent store does this. FAST+FAIR,
    /// wB+-tree and FP-tree store to a node under its latch or lock, or
    /// before the node is published, and keep their latches in DRAM; the
    /// transaction journal, the shard manifest and the catalog have one
    /// writer at a time; the skip list links, unlinks and marks with
    /// `cas_u64` under its link lock and writes values with `cas_u64`.
    /// The one unlatched plain store that remains is the allocator
    /// cursor, which recovery treats as failure-atomic, so no flush has
    /// to cover it.
    #[inline]
    fn mark_dirty(&self, off: PmOffset) {
        let line = (off as usize) / CACHE_LINE;
        let word = &self.dirty[line / 64];
        let bit = 1 << (line % 64);
        if word.load(Ordering::SeqCst) & bit == 0 {
            word.fetch_or(bit, Ordering::SeqCst);
        }
    }

    /// Clears the dirty bit of `line` (a line-aligned offset); returns
    /// whether it was set.
    #[inline]
    fn test_and_clear_dirty(&self, line: u64) -> bool {
        let idx = (line as usize) / CACHE_LINE;
        let mask = 1u64 << (idx % 64);
        self.dirty[idx / 64].fetch_and(!mask, Ordering::SeqCst) & mask != 0
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
    ///
    /// A store to a line that is already dirty does no atomic
    /// read-modify-write on the dirty bitmap: its bit is set only when it
    /// is clear (`mark_dirty` holds the argument for why that is safe).
    /// In crash mode the store still takes the crash log's event lock.
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
    /// recorded in the crash log on success. The CAS is `SeqCst`, which is
    /// what lets its dirty bit skip the RMW when already set (see
    /// `mark_dirty`).
    #[inline]
    pub fn cas_u64(&self, off: PmOffset, current: u64, new: u64) -> Result<u64, u64> {
        let cas = || {
            let r =
                self.atom(off)
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
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
    #[inline]
    pub fn flush_line(&self, off: PmOffset) {
        let line = off & !(CACHE_LINE as u64 - 1);
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
                    stats::count(|s| s.flushes_coalesced += 1);
                    return;
                }
            }
            None => {
                if !self.test_and_clear_dirty(line) {
                    stats::count(|s| s.flushes_coalesced += 1);
                    return;
                }
            }
        }
        let ns = self.latency.write_ns;
        spin_ns(ns);
        stats::count(|s| {
            s.flushes += 1;
            s.flush_ns += u64::from(ns);
            s.model_ns += u64::from(ns);
        });
    }

    /// Store fence ordering prior flushes (emulated `sfence`/`mfence`).
    ///
    /// Free on the emulated hardware apart from the counter, exactly as the
    /// paper treats fence cost as negligible next to `clflush` on x86.
    #[inline]
    pub fn sfence(&self) {
        compiler_fence(Ordering::SeqCst);
        stats::count(|s| s.fences += 1);
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
                stats::count(|s| {
                    s.dmb_barriers += 1;
                    s.model_ns += u64::from(dmb_ns);
                });
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
        let ns = self.latency.read_ns;
        stats::count(|s| {
            s.serial_misses += u64::from(n);
            s.model_ns += u64::from(ns) * u64::from(n);
        });
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
        stats::count(|s| s.parallel_lines += u64::from(lines));
        let ns = self.latency.read_ns;
        if ns != 0 {
            let serial = lines.div_ceil(self.latency.mlp.max(1));
            stats::count(|s| s.model_ns += u64::from(ns) * u64::from(serial));
            spin_ns(ns.saturating_mul(serial));
        }
    }

    /// Issues a software prefetch for every cache line of the
    /// line-aligned range `[off, off + len)`, so that the host fetches the
    /// lines together while the caller does other work — a modelled stall,
    /// the read of another line — instead of missing on them one at a time
    /// (the pB+-tree's node prefetch, Chen, Gibbons & Mowry, SIGMOD 2001).
    ///
    /// A hint, not an access: it charges and counts nothing, logs no crash
    /// event and orders nothing. A range that is empty, does not start on
    /// a line, or does not lie wholly inside the pool is ignored, and so is
    /// every range on targets other than `x86_64`.
    #[inline]
    pub fn prefetch(&self, off: PmOffset, len: u64) {
        let line = CACHE_LINE as u64;
        if len == 0
            || !off.is_multiple_of(line)
            || off.checked_add(len).is_none_or(|end| end > self.size)
        {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let base = self.buf.ptr.cast_const().cast::<i8>();
            for at in (off..off + len).step_by(CACHE_LINE) {
                // SAFETY: `at < off + len <= self.size`, so the address lies
                // inside the buffer; a prefetch neither reads nor writes it.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(at as usize)) };
            }
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
        stats::count(|s| s.nodes_recycled += 1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommitCell;

    fn small_pool() -> Pool {
        Pool::new(PoolConfig::new().size(1 << 16)).unwrap()
    }

    /// A prefetch is a hint: over a whole node, past the pool's end, from
    /// an unaligned offset or of nothing, it moves no counter, logs no
    /// crash event, changes no byte and does not panic.
    #[test]
    fn prefetch_counts_logs_and_changes_nothing() {
        let p = Pool::new(
            PoolConfig::new()
                .size(1 << 16)
                .latency(crate::LatencyProfile::symmetric(300))
                .crash_log(true),
        )
        .unwrap();
        let off = p.alloc(512, 64).unwrap();
        p.store_u64(off + 8, 7);
        p.persist(off, 512);
        let size = p.size();
        let image = p.volatile_image();
        let events = p.crash_log().unwrap().len();
        stats::reset();
        for (at, len) in [
            (off, 512),
            (0, size),
            (size - 64, 64),
            (size - 64, 128),
            (size, 64),
            (u64::MAX - 63, 128),
            (off + 8, 512),
            (off + 1, 1),
            (off, 0),
            (size, 0),
        ] {
            p.prefetch(at, len);
        }
        assert_eq!(stats::take(), stats::Snapshot::default());
        assert_eq!(p.crash_log().unwrap().len(), events);
        assert_eq!(p.volatile_image(), image);
    }

    /// A store to a dirty line skips the `fetch_or`; the flush decisions
    /// must be exactly those of an unconditional one.
    #[test]
    fn stores_to_a_dirty_line_keep_exactly_one_flush() {
        let p = small_pool();
        // Two adjacent lines at the start of a bitmap word (64 lines).
        let a = p.alloc(4096, 4096).unwrap();
        let b = a + CACHE_LINE as u64;
        let counts = || {
            let s = stats::snapshot();
            (s.flushes, s.flushes_coalesced)
        };
        stats::reset();
        p.store_u64(a, 1);
        p.store_u64(a + 8, 2);
        p.persist(a, 8);
        assert_eq!(counts(), (1, 0));
        p.persist(a, 8);
        assert_eq!(counts(), (1, 1));
        p.store_u64(a + 16, 3);
        p.persist(a, 8);
        assert_eq!(counts(), (2, 1));
        // Lines sharing one bitmap word keep separate bits.
        p.store_u64(a, 4);
        p.store_u64(b, 5);
        p.store_u64(b + 8, 6);
        p.persist(a, 8);
        assert_eq!(counts(), (3, 1));
        p.persist(b, 8);
        assert_eq!(counts(), (4, 1));
        p.persist(a, 8);
        p.persist(b, 8);
        assert_eq!(counts(), (4, 3));
    }

    /// Stores and flushes of one line ordered by a latch: every round's
    /// flush finds the bit its own store set, whichever thread flushed
    /// last.
    #[test]
    fn latched_same_line_stores_and_flushes_count_exactly() {
        const ROUNDS: u64 = 100_000;
        let p = small_pool();
        let off = p.alloc(64, 64).unwrap();
        let latch = Mutex::new(());
        let start = std::sync::Barrier::new(2);
        let per_thread: Vec<stats::Snapshot> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    let (p, latch, start) = (&p, &latch, &start);
                    s.spawn(move || {
                        stats::reset();
                        start.wait();
                        for i in 0..ROUNDS {
                            let _held = latch.lock();
                            p.store_u64(off + 8 * t, i);
                            p.persist(off, 8);
                        }
                        stats::take()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let issued: u64 = per_thread.iter().map(|s| s.flushes).sum();
        let coalesced: u64 = per_thread.iter().map(|s| s.flushes_coalesced).sum();
        assert_eq!((issued, coalesced), (2 * ROUNDS, 0));
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
    fn manifest_roundtrip_and_commit_count() {
        let p = small_pool();
        assert_eq!(CommitCell::MANIFEST.target(&p, 8), Ok(None));
        stats::reset();
        CommitCell::MANIFEST.publish(&p, 8192);
        let s = stats::take();
        assert_eq!((s.flushes, s.fences), (1, 1)); // one 8-byte word: one line
        assert_eq!(CommitCell::MANIFEST.target(&p, 8), Ok(Some(8192)));
        // The manifest cell is independent of the other header cells.
        CommitCell::JOURNAL.publish(&p, 16384);
        CommitCell::CATALOG.publish(&p, 24576);
        assert_eq!(CommitCell::MANIFEST.target(&p, 8), Ok(Some(8192)));
    }

    #[test]
    fn txn_journal_roundtrip_and_independence() {
        let p = small_pool();
        assert_eq!(CommitCell::JOURNAL.target(&p, 8), Ok(None));
        stats::reset();
        CommitCell::JOURNAL.publish(&p, 16384);
        let s = stats::take();
        assert_eq!((s.flushes, s.fences), (1, 1));
        assert_eq!(CommitCell::JOURNAL.target(&p, 8), Ok(Some(16384)));
        // The journal cell is independent of the manifest and catalog cells.
        CommitCell::MANIFEST.publish(&p, 8192);
        CommitCell::CATALOG.publish(&p, 24576);
        assert_eq!(CommitCell::JOURNAL.target(&p, 8), Ok(Some(16384)));
        assert_eq!(CommitCell::MANIFEST.target(&p, 8), Ok(Some(8192)));
    }

    #[test]
    fn catalog_roundtrip_and_independence() {
        let p = small_pool();
        assert_eq!(CommitCell::CATALOG.target(&p, 8), Ok(None));
        stats::reset();
        CommitCell::CATALOG.publish(&p, 24576);
        let s = stats::take();
        assert_eq!((s.flushes, s.fences), (1, 1));
        assert_eq!(CommitCell::CATALOG.target(&p, 8), Ok(Some(24576)));
        // The catalog cell is independent of the other header cells, and
        // all three survive a clean-image reopen like any persisted store.
        CommitCell::MANIFEST.publish(&p, 8192);
        CommitCell::JOURNAL.publish(&p, 16384);
        assert_eq!(CommitCell::CATALOG.target(&p, 8), Ok(Some(24576)));
        let img = p.volatile_image();
        let p2 = Pool::from_image(&img, PoolConfig::new().size(1 << 20)).unwrap();
        assert_eq!(CommitCell::CATALOG.target(&p2, 8), Ok(Some(24576)));
        assert_eq!(CommitCell::MANIFEST.target(&p2, 8), Ok(Some(8192)));
        assert_eq!(CommitCell::JOURNAL.target(&p2, 8), Ok(Some(16384)));
        // Word 8 (the retired root slot) stays zero.
        assert_eq!(p2.load_u64(8), 0);
    }

    #[test]
    fn cell_target_refuses_what_the_pool_cannot_hold() {
        let p = small_pool();
        let cell = CommitCell::MANIFEST;
        let size = p.size();
        cell.publish(&p, size - 64);
        assert_eq!(cell.target(&p, 64), Ok(Some(size - 64)));
        assert!(cell.target(&p, 72).is_err()); // runs past the end
        assert!(cell.target(&p, u64::MAX).is_err()); // end overflows
        cell.publish(&p, 4097);
        assert!(cell.target(&p, 8).is_err()); // unaligned
        cell.publish(&p, u64::MAX - 7);
        assert!(cell.target(&p, 8).is_err());
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
    fn model_ns_sums_the_nominal_charges() {
        let latency = LatencyProfile::new(3, 5)
            .with_mlp(4)
            .with_fence(FenceMode::NonTso { dmb_ns: 7 });
        let p = Pool::new(PoolConfig::new().size(1 << 16).latency(latency)).unwrap();
        let off = p.alloc(64, 64).unwrap();
        stats::reset();
        p.charge_serial_reads(2); // 2 × 3
        p.charge_parallel_lines(9); // ceil(9 / 4) × 3
        p.charge_parallel_lines(0);
        p.store_u64(off, 1);
        p.flush_line(off); // issued: 5
        p.flush_line(off); // coalesced: free
        p.sfence(); // fences are free
        p.fence_if_not_tso(); // 7
        let s = stats::take();
        assert_eq!(s.model_ns, 6 + 9 + 5 + 7, "{s:?}");
        assert_eq!((s.flushes, s.flushes_coalesced, s.dmb_barriers), (1, 1, 1));
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

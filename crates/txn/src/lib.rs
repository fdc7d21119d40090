//! # Atomic multi-key write batches and snapshot reads
//!
//! The paper's discipline commits every index mutation with a single
//! failure-atomic 8-byte store — but each mutation commits *alone*. A
//! database transaction (TPC-C Payment touches a customer, a district
//! and a history record) needs N mutations, possibly across tables and
//! across shards, to become durable **together or not at all**. This
//! crate closes that gap the way *Persistent Memory Transactions*
//! (Marathe et al.) does, re-derived FAST+FAIR-style:
//!
//! 1. **Stage** — [`WriteBatch`] ops are written to a pmem-resident
//!    *redo journal* and fully persisted. Nothing references them yet;
//!    a crash here leaves the previous state untouched.
//! 2. **Commit** — one failure-atomic 8-byte store of the batch
//!    sequence number (plus flush + fence) makes the whole batch
//!    durable. This is the *only* commit point.
//! 3. **Apply** — the ops are applied to the live tables through
//!    [`pmindex::PmIndex::apply_batch`]; each op is individually
//!    failure-atomic and idempotent redo.
//! 4. **Retire** — a second 8-byte store marks the journal applied.
//!
//! A crash before step 2 recovers to **zero** of the batch's writes (the
//! journal is uncommitted, the apply never started); a crash after step
//! 2 recovers to **all** of them ([`TxnEngine::recover`] replays the
//! journal from the top — idempotence makes re-replay after a second
//! crash safe). `crates/txn/tests/crash_txn.rs` sweeps every crash cut,
//! including the cross-shard case, to prove it.
//!
//! [`Snapshot`] is the read half: it pins the engine's epoch domain
//! (keeping reclaimed nodes out from under in-flight scans) and excludes
//! the apply phase, so reads taken under a snapshot observe every batch
//! entirely or not at all — never a half-applied one.
//!
//! ```
//! use std::sync::Arc;
//! use pmindex::PmIndex;
//! use txn::{TxnEngine, WriteBatch};
//!
//! let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
//! let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
//! let engine = TxnEngine::create(Arc::clone(&pool))?;
//!
//! let mut batch = WriteBatch::new();
//! batch.put(0, 1, 10); // (table, key, value)
//! batch.put(0, 2, 20);
//! batch.delete(0, 99); // absent: idempotent no-op
//! let seq = engine.commit(batch, &[&tree])?;
//! assert_eq!(seq, 1);
//! assert_eq!(tree.get(1), Some(10));
//! assert_eq!(tree.get(2), Some(20));
//!
//! // After a restart: open the journal and replay anything committed
//! // but not yet applied (here: nothing).
//! let reopened = TxnEngine::open(Arc::clone(&pool))?;
//! assert_eq!(reopened.recover(&[&tree])?, 0);
//! assert_eq!(reopened.last_committed(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use pmem::{CommitCell, PmOffset, Pool, NULL_OFFSET};
use pmindex::{check_value, BatchOp, IndexError, PmIndex, Value};

/// Journal region layout (8-byte words, little-endian):
///
/// ```text
/// +0   magic    "TXNJRNL\0"
/// +8   committed sequence number — THE commit word (0 = no batch ever)
/// +16  applied sequence number (== committed once the apply retired)
/// +24  entry count N of the staged batch
/// +32  entry capacity of this region
/// +40  N entries of 4 words each: table id, op kind (0 = put,
///      1 = delete), key, value (0 for deletes)
/// ```
const J_MAGIC: u64 = u64::from_le_bytes(*b"TXNJRNL\0");
const J_COMMITTED: u64 = 8;
const J_APPLIED: u64 = 16;
const J_COUNT: u64 = 24;
const J_CAP: u64 = 32;
const J_ENTRIES: u64 = 40;
const ENTRY_WORDS: u64 = 4;
const OP_PUT: u64 = 0;
const OP_DELETE: u64 = 1;

/// Entries a freshly created journal can stage before growing.
const INITIAL_CAPACITY: u64 = 16;

/// Saturates, so a corrupt capacity word yields a length no pool holds.
fn region_bytes(cap: u64) -> u64 {
    cap.saturating_mul(ENTRY_WORDS * 8)
        .saturating_add(J_ENTRIES)
}

/// The current journal region; the offset moves when the journal grows
/// (a bigger region is prepared, persisted, and published through
/// [`CommitCell::JOURNAL`]).
#[derive(Clone, Copy)]
struct Journal {
    off: PmOffset,
    cap: u64,
}

impl Journal {
    /// THE commit word.
    fn committed(self) -> CommitCell {
        CommitCell::at(self.off + J_COMMITTED)
    }

    /// The retire word.
    fn applied(self) -> CommitCell {
        CommitCell::at(self.off + J_APPLIED)
    }

    /// Writes and persists an empty region for `cap` entries with both
    /// sequence words at `seq`, then publishes it.
    fn publish(pool: &Pool, seq: u64, cap: u64) -> Result<Journal, IndexError> {
        let off = pool.alloc(region_bytes(cap), 8)?;
        pool.store_u64(off, J_MAGIC);
        pool.store_u64(off + J_COMMITTED, seq);
        pool.store_u64(off + J_APPLIED, seq);
        pool.store_u64(off + J_COUNT, 0);
        pool.store_u64(off + J_CAP, cap);
        pool.persist(off, J_ENTRIES);
        CommitCell::JOURNAL.publish(pool, off);
        Ok(Journal { off, cap })
    }
}

/// A staged multi-key, multi-table write batch: the ops accumulate in
/// DRAM and hit persistent memory only inside [`TxnEngine::commit`].
///
/// Table ids are indexes into the `tables` slice handed to `commit` —
/// the caller fixes the table order once and uses it consistently for
/// commit and recovery (`crates/tpcc` derives it from its `Table` enum).
///
/// ```
/// use txn::WriteBatch;
///
/// let mut b = WriteBatch::new();
/// assert!(b.is_empty());
/// b.put(0, 7, 70);
/// b.delete(1, 9);
/// assert_eq!(b.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    ops: Vec<(u64, BatchOp)>,
}

impl WriteBatch {
    /// Creates an empty batch.
    ///
    /// ```
    /// assert!(txn::WriteBatch::new().is_empty());
    /// ```
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Stages an upsert of `key → value` into table `table`.
    ///
    /// ```
    /// let mut b = txn::WriteBatch::new();
    /// b.put(2, 11, 110);
    /// assert_eq!(b.len(), 1);
    /// ```
    pub fn put(&mut self, table: usize, key: u64, value: u64) {
        self.ops.push((table as u64, BatchOp::Put(key, value)));
    }

    /// Stages a removal of `key` from table `table` (a no-op at apply
    /// time if the key is absent — idempotent redo).
    ///
    /// ```
    /// let mut b = txn::WriteBatch::new();
    /// b.delete(0, 11);
    /// assert_eq!(b.len(), 1);
    /// ```
    pub fn delete(&mut self, table: usize, key: u64) {
        self.ops.push((table as u64, BatchOp::Delete(key)));
    }

    /// Number of staged ops.
    ///
    /// ```
    /// let mut b = txn::WriteBatch::new();
    /// b.put(0, 1, 2);
    /// assert_eq!(b.len(), 1);
    /// ```
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops are staged.
    ///
    /// ```
    /// assert!(txn::WriteBatch::new().is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The staged ops as `(table id, op)` pairs, in staging order — what
    /// `crates/service` walks to validate, route and simulate a client
    /// batch before handing it to [`TxnEngine::commit_grouped`].
    ///
    /// ```
    /// use pmindex::BatchOp;
    ///
    /// let mut b = txn::WriteBatch::new();
    /// b.put(1, 7, 70);
    /// b.delete(0, 9);
    /// let ops: Vec<_> = b.ops().collect();
    /// assert_eq!(ops, vec![(1, BatchOp::Put(7, 70)), (0, BatchOp::Delete(9))]);
    /// ```
    pub fn ops(&self) -> impl Iterator<Item = (usize, BatchOp)> + '_ {
        self.ops.iter().map(|&(t, op)| (t as usize, op))
    }
}

/// Applies `ops` grouped per table: each table receives its ops in batch
/// order through one [`PmIndex::apply_batch`] call, so a router override
/// (e.g. `shard::ShardedStore`'s per-shard grouping) amortizes its gate
/// acquisitions. Tables hold disjoint keyspaces, so regrouping across
/// tables cannot reorder conflicting ops.
///
/// Public because it is the redo half every journal consumer shares:
/// `crates/repl` replays shipped groups onto replica tables through the
/// exact same grouping the primary's apply phase used.
///
/// ```
/// use pmindex::{BatchOp, PmIndex};
/// use std::sync::Arc;
///
/// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
/// let tree = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
/// txn::apply_grouped(&[(0, BatchOp::Put(1, 10))], &[&tree])?;
/// assert_eq!(tree.get(1), Some(10));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Propagates [`PmIndex::apply_batch`] failures; a table id outside
/// `tables` panics (callers validate ids first, as the engine does).
pub fn apply_grouped<T: PmIndex + ?Sized>(
    ops: &[(u64, BatchOp)],
    tables: &[&T],
) -> Result<(), IndexError> {
    let mut groups: Vec<Vec<BatchOp>> = vec![Vec::new(); tables.len()];
    for &(t, op) in ops {
        groups[t as usize].push(op);
    }
    for (t, group) in groups.iter().enumerate() {
        if !group.is_empty() {
            tables[t].apply_batch(group)?;
        }
    }
    Ok(())
}

/// [`apply_grouped`] that also reports what each op replaced: the same
/// per-table regrouping, through [`PmIndex::apply_batch_prev`], with one
/// entry pushed onto `prev` per op **in `ops` order** — the value a put
/// replaced or a delete removed, `None` if the key was absent, later ops
/// on a key seeing earlier ones.
///
/// ```
/// use pmindex::{BatchOp, PmIndex};
/// use std::sync::Arc;
///
/// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
/// let a = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
/// let b = fastfair::FastFairTree::create(pool, fastfair::TreeOptions::new())?;
/// b.insert(1, 11)?;
/// let mut prev = Vec::new();
/// txn::apply_grouped_prev(
///     &[(1, BatchOp::Put(1, 12)), (0, BatchOp::Put(1, 10)), (1, BatchOp::Delete(1))],
///     &[&a, &b],
///     &mut prev,
/// )?;
/// assert_eq!(prev, vec![Some(11), None, Some(12)]); // input order, not table order
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// As [`apply_grouped`]; after an error the entries pushed onto `prev`
/// are unspecified.
pub fn apply_grouped_prev<T: PmIndex + ?Sized>(
    ops: &[(u64, BatchOp)],
    tables: &[&T],
    prev: &mut Vec<Option<Value>>,
) -> Result<(), IndexError> {
    pmindex::apply_bucketed_prev(
        tables.len(),
        ops.iter().map(|&(t, op)| (t as usize, op)),
        prev,
        |t, group, group_prev| tables[t].apply_batch_prev(group, group_prev),
    )
}

/// Observer of committed groups — the change-data-capture seam.
///
/// A tap registered with [`TxnEngine::add_tap`] is called once per
/// committed group, **in sequence order** (the call happens under the
/// engine's journal lock, immediately after the group's failure-atomic
/// commit store and *before* its apply phase), with the group's sequence
/// number and its flattened `(table id, op)` list. `crates/repl`'s
/// `LogShipper` is the canonical implementation; tests use closures via
/// the blanket impl below.
///
/// Taps must not call back into the engine (the journal lock is held)
/// and should return quickly — they run on the committing thread.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use txn::{TxnEngine, WriteBatch};
///
/// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
/// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
/// let engine = TxnEngine::create(pool)?;
/// let seen = Arc::new(AtomicU64::new(0));
/// let seen2 = Arc::clone(&seen);
/// engine.add_tap(Arc::new(move |seq: u64, _ops: &[(u64, pmindex::BatchOp)]| {
///     seen2.store(seq, Ordering::SeqCst);
/// }));
/// let mut batch = WriteBatch::new();
/// batch.put(0, 1, 10);
/// engine.commit(batch, &[&tree])?;
/// assert_eq!(seen.load(Ordering::SeqCst), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait CommitTap: Send + Sync {
    /// Called once per committed group with its sequence number and
    /// flattened ops, in strictly increasing `seq` order.
    fn on_commit(&self, seq: u64, ops: &[(u64, BatchOp)]);
}

impl<F: Fn(u64, &[(u64, BatchOp)]) + Send + Sync> CommitTap for F {
    fn on_commit(&self, seq: u64, ops: &[(u64, BatchOp)]) {
        self(seq, ops);
    }
}

/// The transaction engine: owns a pmem-resident redo journal inside one
/// [`Pool`] and drives the stage → commit → apply → retire protocol for
/// [`WriteBatch`]es over any set of [`PmIndex`] tables.
///
/// The engine does **not** own the tables: `commit` and `recover` take
/// them per call, so one journal can coordinate writes across plain
/// trees, `shard::ShardedStore` routers and anything else implementing
/// the trait — the table *order* in the slice is the only contract that
/// must stay stable across commit and recovery.
pub struct TxnEngine {
    pool: Arc<Pool>,
    journal: Mutex<Journal>,
    /// Last committed sequence number (volatile mirror of the journal's
    /// committed word; re-derived by `open`/`recover`).
    seq: AtomicU64,
    /// Last *applied* sequence number — trails `seq` during the window
    /// between the commit store and the end of the apply phase. This is
    /// what [`Snapshot::seq`] reports: a snapshot taken mid-commit must
    /// not claim visibility for a batch whose apply has not run.
    applied: AtomicU64,
    /// Excludes the apply phase (exclusive) against open snapshots
    /// (shared): a batch becomes visible to snapshot readers entirely or
    /// not at all.
    apply_gate: RwLock<()>,
    /// Pin point for snapshot reads; drained quiescently by `recover`.
    epoch: Arc<epoch::EpochDomain>,
    /// Change-data-capture observers, invoked per committed group under
    /// the journal lock (so they see groups in sequence order).
    taps: RwLock<Vec<Arc<dyn CommitTap>>>,
}

impl std::fmt::Debug for TxnEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnEngine")
            .field("last_committed", &self.seq.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl TxnEngine {
    /// Creates a fresh journal in `pool` and publishes it in the pool's
    /// journal header slot.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use txn::TxnEngine;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let engine = TxnEngine::create(Arc::clone(&pool))?;
    /// assert_eq!(engine.last_committed(), 0);
    /// assert!(TxnEngine::create(pool).is_err()); // already has one
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the pool already holds a journal
    /// (open it instead); [`IndexError::PoolExhausted`] if the region
    /// does not fit.
    pub fn create(pool: Arc<Pool>) -> Result<Self, IndexError> {
        if CommitCell::JOURNAL.load(&pool) != NULL_OFFSET {
            return Err(IndexError::Unsupported(
                "pool already holds a transaction journal; use TxnEngine::open".into(),
            ));
        }
        Journal::publish(&pool, 0, INITIAL_CAPACITY)?;
        TxnEngine::open(pool)
    }

    /// Re-opens the journal a pool's header slot names — the first step
    /// of post-crash recovery (follow with [`TxnEngine::recover`]).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use txn::TxnEngine;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// assert!(TxnEngine::open(Arc::clone(&pool)).is_err()); // none yet
    /// TxnEngine::create(Arc::clone(&pool))?;
    /// let engine = TxnEngine::open(pool)?;
    /// assert_eq!(engine.last_committed(), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the pool names no journal or the
    /// region fails validation.
    pub fn open(pool: Arc<Pool>) -> Result<Self, IndexError> {
        let off = CommitCell::JOURNAL
            .target(&pool, J_ENTRIES)?
            .ok_or_else(|| IndexError::Unsupported("pool holds no transaction journal".into()))?;
        if pool.load_u64(off) != J_MAGIC {
            return Err(IndexError::Unsupported(format!(
                "no transaction journal at offset {off:#x}"
            )));
        }
        let j = Journal {
            off,
            cap: pool.load_u64(off + J_CAP),
        };
        // The capacity sizes every later access to the region.
        CommitCell::JOURNAL.target(&pool, region_bytes(j.cap))?;
        let committed = j.committed().load(&pool);
        let applied = j.applied().load(&pool);
        if applied > committed {
            return Err(IndexError::Unsupported(format!(
                "journal at {off:#x} is corrupt: applied {applied} > committed {committed}"
            )));
        }
        Ok(TxnEngine {
            pool,
            journal: Mutex::new(j),
            seq: AtomicU64::new(committed),
            applied: AtomicU64::new(applied),
            apply_gate: RwLock::new(()),
            epoch: epoch::EpochDomain::new(),
            taps: RwLock::new(Vec::new()),
        })
    }

    /// Registers a change-data-capture observer: from now on every
    /// committed group is handed to `tap` in sequence order. Attach taps
    /// *before* serving writes (and after [`TxnEngine::recover`], which
    /// also emits any group it replays) so no group slips past unseen.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use txn::TxnEngine;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let engine = TxnEngine::create(pool)?;
    /// engine.add_tap(Arc::new(|_seq: u64, _ops: &[(u64, pmindex::BatchOp)]| {}));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn add_tap(&self, tap: Arc<dyn CommitTap>) {
        self.taps.write().push(tap);
    }

    /// Sequence number of the most recently committed batch (0 before
    /// the first commit). Monotone; survives crashes — it is re-read
    /// from the journal's committed word on `open`.
    pub fn last_committed(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// True if the journal holds a committed batch whose apply has not
    /// retired — i.e. [`TxnEngine::recover`] has work to do.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use txn::TxnEngine;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let engine = TxnEngine::create(pool)?;
    /// assert!(!engine.pending());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn pending(&self) -> bool {
        let j = self.journal.lock();
        j.committed().load(&self.pool) != j.applied().load(&self.pool)
    }

    /// The engine's epoch domain — the pin point [`Snapshot`]s use, and
    /// a shared reclamation home for callers that want batch-applied
    /// unlinks to wait out snapshot readers.
    pub fn epoch(&self) -> &Arc<epoch::EpochDomain> {
        &self.epoch
    }

    /// Grows the journal region to hold at least `need` entries. Only
    /// called with the journal quiescent (committed == applied), so the
    /// staged entries need not move: the fresh region carries the
    /// committed/applied words forward and is published through
    /// [`CommitCell::JOURNAL`], as a shard manifest is. A crash
    /// between flip and free leaks the old region — the documented PM
    /// allocator trade-off.
    fn ensure_capacity(&self, j: &mut Journal, need: u64) -> Result<(), IndexError> {
        if need <= j.cap {
            return Ok(());
        }
        let committed = j.committed().load(&self.pool);
        let cap = need.next_power_of_two().max(j.cap * 2);
        let old = *j;
        *j = Journal::publish(&self.pool, committed, cap)?;
        self.pool.free(old.off, region_bytes(old.cap));
        Ok(())
    }

    /// Commits `batch` against `tables` atomically and returns its
    /// sequence number: stages the ops in the journal, commits them with
    /// a single failure-atomic 8-byte sequence store, applies them to
    /// the tables (excluded against open [`Snapshot`]s), and retires the
    /// journal. Concurrent commits serialize on the journal.
    ///
    /// An empty batch is a no-op and returns the current sequence.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    /// use txn::{TxnEngine, WriteBatch};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let a = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let b = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let engine = TxnEngine::create(Arc::clone(&pool))?;
    /// let mut batch = WriteBatch::new();
    /// batch.put(0, 1, 10); // table 0 = a
    /// batch.put(1, 1, 11); // table 1 = b
    /// engine.commit(batch, &[&a, &b])?;
    /// assert_eq!((a.get(1), b.get(1)), (Some(10), Some(11)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Before anything is staged: [`IndexError::ReservedValue`] for
    /// reserved values, [`IndexError::Unsupported`] for a table id
    /// outside `tables` or a journal still holding an unapplied batch
    /// (run [`TxnEngine::recover`] first). After the commit store, an
    /// apply failure (pool exhaustion) leaves the batch committed but
    /// unapplied: the error is returned and the next `recover` replays
    /// it — the batch is never half-lost.
    pub fn commit<T: PmIndex + ?Sized>(
        &self,
        batch: WriteBatch,
        tables: &[&T],
    ) -> Result<u64, IndexError> {
        self.commit_grouped(std::slice::from_ref(&batch), tables)
    }

    /// Group commit: stages *many* clients' [`WriteBatch`]es into the
    /// journal contiguously and commits them all with **one** sequence
    /// store + fence — the amortization lever `crates/service` pulls.
    /// Per group, not per client batch: one staging persist (the entry
    /// lines coalesce into a single flush+fence round), one commit
    /// fence, one apply-gate acquisition, one retire fence.
    ///
    /// The group is all-or-nothing as a unit: a crash before the commit
    /// store recovers *none* of the member batches, after it *all* of
    /// them (each member batch is therefore also individually
    /// all-or-nothing). Validation failures reject the whole group
    /// before anything is staged. Empty groups (and groups of empty
    /// batches) are no-ops returning the current sequence.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    /// use txn::{TxnEngine, WriteBatch};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let engine = TxnEngine::create(Arc::clone(&pool))?;
    /// let mut a = WriteBatch::new();
    /// a.put(0, 1, 10);
    /// let mut b = WriteBatch::new();
    /// b.put(0, 2, 20);
    /// b.delete(0, 1); // later batches see earlier ones: apply order is group order
    /// let seq = engine.commit_grouped(&[a, b], &[&tree])?;
    /// assert_eq!(seq, 1); // ONE sequence number for the whole group
    /// assert_eq!((tree.get(1), tree.get(2)), (None, Some(20)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Exactly as [`TxnEngine::commit`], checked across every member
    /// batch before staging begins.
    pub fn commit_grouped<T: PmIndex + ?Sized>(
        &self,
        batches: &[WriteBatch],
        tables: &[&T],
    ) -> Result<u64, IndexError> {
        self.commit_group(batches, tables, None)
    }

    /// [`TxnEngine::commit_grouped`] that also reports what every write
    /// replaced: the same stage → one sequence store → taps → apply →
    /// retire protocol, the same validation, the same fences and
    /// flushes — only the apply phase goes through
    /// [`apply_grouped_prev`], pushing one entry per op onto `prev` in
    /// flat group order (batch 0's ops, then batch 1's, …): the value a
    /// put replaced or a delete removed *as the group applied*, `None`
    /// if the key was absent. On an index that reports the old value
    /// from the write itself (`FastFairTree`, `shard::ShardedStore`)
    /// this costs no descent beyond the apply's own — which is how
    /// `crates/service` answers upserts without reading first.
    ///
    /// A no-op group (empty, or rejected by validation) pushes nothing.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    /// use txn::{TxnEngine, WriteBatch};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// tree.insert(1, 9)?;
    /// let engine = TxnEngine::create(Arc::clone(&pool))?;
    /// let mut a = WriteBatch::new();
    /// a.put(0, 1, 10);
    /// let mut b = WriteBatch::new();
    /// b.put(0, 2, 20);
    /// b.delete(0, 1);
    /// let mut prev = Vec::new();
    /// engine.commit_grouped_prev(&[a, b], &[&tree], &mut prev)?;
    /// assert_eq!(prev, vec![Some(9), None, Some(10)]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Exactly as [`TxnEngine::commit_grouped`]; after an apply failure
    /// the entries pushed onto `prev` are unspecified.
    pub fn commit_grouped_prev<T: PmIndex + ?Sized>(
        &self,
        batches: &[WriteBatch],
        tables: &[&T],
        prev: &mut Vec<Option<Value>>,
    ) -> Result<u64, IndexError> {
        self.commit_group(batches, tables, Some(prev))
    }

    /// The one commit protocol behind [`TxnEngine::commit_grouped`]
    /// (`prev` = `None`) and [`TxnEngine::commit_grouped_prev`].
    fn commit_group<T: PmIndex + ?Sized>(
        &self,
        batches: &[WriteBatch],
        tables: &[&T],
        prev: Option<&mut Vec<Option<Value>>>,
    ) -> Result<u64, IndexError> {
        for batch in batches {
            for &(t, op) in &batch.ops {
                if t as usize >= tables.len() {
                    return Err(IndexError::Unsupported(format!(
                        "batch names table {t} but only {} tables were passed",
                        tables.len()
                    )));
                }
                if let BatchOp::Put(_, v) = op {
                    check_value(v)?;
                }
            }
        }
        let mut j = self.journal.lock();
        let committed = j.committed().load(&self.pool);
        if committed != j.applied().load(&self.pool) {
            return Err(IndexError::Unsupported(
                "journal holds a committed batch not yet applied; run recover() first".into(),
            ));
        }
        let total: usize = batches.iter().map(|b| b.ops.len()).sum();
        if total == 0 {
            return Ok(committed);
        }
        self.ensure_capacity(&mut j, total as u64)?;
        let ops: Vec<(u64, BatchOp)> = batches.iter().flat_map(|b| b.ops.iter().copied()).collect();
        // 1. STAGE: every member batch's entries back to back, plus the
        // count word, persisted with ONE flush+fence round before the
        // commit word can name them. Nothing is reachable yet.
        for (i, &(t, op)) in ops.iter().enumerate() {
            let base = j.off + J_ENTRIES + (i as u64) * ENTRY_WORDS * 8;
            let (kind, k, v) = match op {
                BatchOp::Put(k, v) => (OP_PUT, k, v),
                BatchOp::Delete(k) => (OP_DELETE, k, 0),
            };
            self.pool.store_u64(base, t);
            self.pool.store_u64(base + 8, kind);
            self.pool.store_u64(base + 16, k);
            self.pool.store_u64(base + 24, v);
        }
        self.pool.store_u64(j.off + J_COUNT, total as u64);
        self.pool.persist(
            j.off + J_COUNT,
            (J_ENTRIES - J_COUNT) + total as u64 * ENTRY_WORDS * 8,
        );
        // 2. COMMIT: THE single failure-atomic 8-byte store — one per
        // *group*. A crash before this flush exposes the old sequence
        // (no member batch ever happened); after it, recovery replays
        // them all.
        let seq = committed + 1;
        j.committed().publish(&self.pool, seq);
        pmem::stats::count_txn_commit();
        self.seq.store(seq, Ordering::SeqCst);
        // 2b. SHIP: the group is durably committed, so hand it to the
        // CDC taps *before* the apply — a replica may therefore apply a
        // group its primary has not finished applying (or, if the apply
        // below fails, one the primary will only apply on recover());
        // both sides converge because apply is idempotent redo. Emitting
        // under the journal lock keeps the stream in sequence order.
        for tap in self.taps.read().iter() {
            tap.on_commit(seq, &ops);
        }
        // 3. APPLY: idempotent redo onto the live tables, atomically
        // with respect to snapshot readers. The applied counter advances
        // inside the gate so a snapshot's seq always matches what its
        // reads can observe.
        {
            let _excl = self.apply_gate.write();
            match prev {
                Some(prev) => apply_grouped_prev(&ops, tables, prev)?,
                None => apply_grouped(&ops, tables)?,
            }
            self.applied.store(seq, Ordering::SeqCst);
        }
        // 4. RETIRE: mark applied so the next commit can reuse the
        // region. Crashing before this store merely makes recovery
        // replay an already-applied batch — idempotence absorbs it.
        j.applied().publish(&self.pool, seq);
        Ok(seq)
    }

    /// Replays a committed-but-unapplied batch after a crash (or after
    /// an apply that failed mid-flight) and returns the number of
    /// entries replayed — 0 when the journal is clean. `tables` must be
    /// the same slice, in the same order, as the commits used.
    ///
    /// Replay is idempotent redo from the top: a crash *during* recovery
    /// is absorbed by simply recovering again. The engine's epoch domain
    /// is quiescently flushed on every call, mirroring the index
    /// `recover()` contract (nothing stays in limbo across a recovery).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use txn::TxnEngine;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let engine = TxnEngine::create(Arc::clone(&pool))?;
    /// assert_eq!(engine.recover(&[&tree])?, 0); // clean journal
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if a journal entry names a table
    /// outside `tables`; apply failures propagate (the journal stays
    /// committed-but-unapplied, so recovery can be retried).
    pub fn recover<T: PmIndex + ?Sized>(&self, tables: &[&T]) -> Result<usize, IndexError> {
        let j = self.journal.lock();
        let committed = j.committed().load(&self.pool);
        let applied = j.applied().load(&self.pool);
        self.seq.store(committed, Ordering::SeqCst);
        if committed == applied {
            self.applied.store(committed, Ordering::SeqCst);
            self.epoch.flush();
            return Ok(0);
        }
        let n = self.pool.load_u64(j.off + J_COUNT);
        if n > j.cap {
            return Err(IndexError::Unsupported(format!(
                "journal at {:#x} is corrupt: {n} entries in a region for {}",
                j.off, j.cap
            )));
        }
        let mut ops = Vec::with_capacity(n as usize);
        for i in 0..n {
            let base = j.off + J_ENTRIES + i * ENTRY_WORDS * 8;
            let t = self.pool.load_u64(base);
            if t as usize >= tables.len() {
                return Err(IndexError::Unsupported(format!(
                    "journal entry {i} names table {t} but only {} tables were passed",
                    tables.len()
                )));
            }
            let kind = self.pool.load_u64(base + 8);
            let key = self.pool.load_u64(base + 16);
            let value = self.pool.load_u64(base + 24);
            ops.push((
                t,
                if kind == OP_PUT {
                    BatchOp::Put(key, value)
                } else {
                    BatchOp::Delete(key)
                },
            ));
        }
        // A replayed group was committed, so CDC taps attached before
        // recovery hear it too (replicas dedup by sequence, so hearing a
        // group twice across a primary restart is harmless).
        for tap in self.taps.read().iter() {
            tap.on_commit(committed, &ops);
        }
        {
            let _excl = self.apply_gate.write();
            apply_grouped(&ops, tables)?;
            self.applied.store(committed, Ordering::SeqCst);
        }
        pmem::stats::count_txn_replays(n);
        j.applied().publish(&self.pool, committed);
        self.epoch.flush();
        Ok(n as usize)
    }

    /// Opens a consistent read view: the returned [`Snapshot`] pins the
    /// engine's epoch domain and shares the apply gate, so every batch
    /// is observed fully applied or not at all for as long as the
    /// snapshot lives. Taking a snapshot waits out an in-flight apply;
    /// it never blocks stage/commit themselves.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    /// use txn::{TxnEngine, WriteBatch};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let engine = TxnEngine::create(Arc::clone(&pool))?;
    /// let mut batch = WriteBatch::new();
    /// batch.put(0, 1, 10);
    /// engine.commit(batch, &[&tree])?;
    /// let snap = engine.snapshot();
    /// assert_eq!(snap.seq(), 1); // the batch is fully visible
    /// assert_eq!(tree.get(1), Some(10));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn snapshot(&self) -> Snapshot<'_> {
        let gate = self.apply_gate.read();
        // Report the *applied* sequence, not the committed one: between
        // a group's commit store and the end of its apply, `seq` already
        // names a batch whose writes no read can observe. The applied
        // counter only advances inside the (write-held) gate, so under
        // our read guard it exactly matches table state.
        Snapshot {
            seq: self.applied.load(Ordering::SeqCst),
            _gate: gate,
            guards: vec![self.epoch.pin()],
        }
    }
}

/// A consistent read view over the tables a [`TxnEngine`] coordinates.
///
/// While a snapshot lives, no batch apply can run (the apply phase takes
/// the gate exclusively), and nodes retired into the pinned epoch
/// domain(s) cannot be recycled — so scans performed under the snapshot
/// see every committed batch entirely or not at all, on stable memory.
///
/// The snapshot does not copy anything; it is a pair of guards plus the
/// sequence number of the last batch guaranteed visible.
pub struct Snapshot<'a> {
    seq: u64,
    _gate: RwLockReadGuard<'a, ()>,
    guards: Vec<epoch::Guard>,
}

impl std::fmt::Debug for Snapshot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot").field("seq", &self.seq).finish()
    }
}

impl Snapshot<'_> {
    /// Sequence number of the last batch fully applied before this
    /// snapshot was taken: every batch with `seq <= snapshot.seq()` is
    /// entirely visible, every later one entirely invisible or entirely
    /// visible (if it applied after the snapshot dropped and a new one
    /// observed it).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Additionally pins `domain` for the life of the snapshot — for
    /// reads over tables that reclaim through their *own* epoch domains
    /// (each tree and each `VarKeyStore` owns one), so their unlinked
    /// nodes also wait out this snapshot.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pmindex::PmIndex;
    /// use txn::TxnEngine;
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let tree = fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())?;
    /// let engine = TxnEngine::create(pool)?;
    /// let mut snap = engine.snapshot();
    /// snap.also_pin(tree.epoch()); // tree unlinks now wait for us too
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn also_pin(&mut self, domain: &Arc<epoch::EpochDomain>) {
        self.guards.push(domain.pin());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfair::{FastFairTree, TreeOptions};
    use pmem::PoolConfig;

    fn mk() -> (Arc<Pool>, FastFairTree, TxnEngine) {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(8 << 20)).unwrap());
        let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).unwrap();
        let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
        (pool, tree, engine)
    }

    #[test]
    fn commit_applies_all_ops_and_counts() {
        let (_pool, tree, engine) = mk();
        tree.insert(5, 50).unwrap();
        pmem::stats::reset();
        let mut b = WriteBatch::new();
        b.put(0, 1, 10);
        b.put(0, 5, 51); // upsert
        b.delete(0, 99); // absent
        assert_eq!(engine.commit(b, &[&tree]).unwrap(), 1);
        assert_eq!(tree.get(1), Some(10));
        assert_eq!(tree.get(5), Some(51));
        assert_eq!(engine.last_committed(), 1);
        assert!(!engine.pending());
        let s = pmem::stats::take();
        assert_eq!(s.txn_commits, 1);
        assert_eq!(s.txn_replays, 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (_pool, tree, engine) = mk();
        assert_eq!(engine.commit(WriteBatch::new(), &[&tree]).unwrap(), 0);
        assert_eq!(engine.last_committed(), 0);
    }

    #[test]
    fn invalid_batches_rejected_before_staging() {
        let (_pool, tree, engine) = mk();
        let mut b = WriteBatch::new();
        b.put(0, 1, 0); // reserved value
        assert!(matches!(
            engine.commit(b, &[&tree]),
            Err(IndexError::ReservedValue(0))
        ));
        let mut b = WriteBatch::new();
        b.put(7, 1, 10); // table out of range
        assert!(matches!(
            engine.commit(b, &[&tree]),
            Err(IndexError::Unsupported(_))
        ));
        // Nothing was committed by either attempt.
        assert_eq!(engine.last_committed(), 0);
        assert!(tree.is_empty());
    }

    #[test]
    fn journal_grows_past_initial_capacity() {
        let (pool, tree, engine) = mk();
        let before = CommitCell::JOURNAL.load(&pool);
        let mut b = WriteBatch::new();
        for k in 1..=(3 * INITIAL_CAPACITY) {
            b.put(0, k, k + 1);
        }
        engine.commit(b, &[&tree]).unwrap();
        assert_ne!(
            CommitCell::JOURNAL.load(&pool),
            before,
            "journal region did not move"
        );
        for k in 1..=(3 * INITIAL_CAPACITY) {
            assert_eq!(tree.get(k), Some(k + 1));
        }
        // The grown journal keeps committing.
        let mut b = WriteBatch::new();
        b.put(0, 1000, 1);
        assert_eq!(engine.commit(b, &[&tree]).unwrap(), 2);
    }

    #[test]
    fn sequence_numbers_are_monotone_across_reopen() {
        let (pool, tree, engine) = mk();
        for i in 0..3u64 {
            let mut b = WriteBatch::new();
            b.put(0, 100 + i, 1 + i);
            engine.commit(b, &[&tree]).unwrap();
        }
        drop(engine);
        let engine = TxnEngine::open(Arc::clone(&pool)).unwrap();
        assert_eq!(engine.last_committed(), 3);
        assert_eq!(engine.recover(&[&tree]).unwrap(), 0);
        let mut b = WriteBatch::new();
        b.put(0, 200, 9);
        assert_eq!(engine.commit(b, &[&tree]).unwrap(), 4);
    }

    #[test]
    fn snapshot_excludes_apply() {
        use std::sync::atomic::AtomicBool;
        let (_pool, tree, engine) = mk();
        let engine = Arc::new(engine);
        let tree = Arc::new(tree);
        let committed = Arc::new(AtomicBool::new(false));
        let snap = engine.snapshot();
        assert_eq!(snap.seq(), 0);
        std::thread::scope(|s| {
            let engine2 = Arc::clone(&engine);
            let tree2 = Arc::clone(&tree);
            let committed2 = Arc::clone(&committed);
            let h = s.spawn(move || {
                let mut b = WriteBatch::new();
                b.put(0, 1, 10);
                b.put(0, 2, 20);
                engine2.commit(b, &[tree2.as_ref()]).unwrap();
                committed2.store(true, Ordering::SeqCst);
            });
            // Give the committer time to reach the apply gate; the batch
            // must not become visible while our snapshot is open.
            for _ in 0..50 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                let a = tree.get(1).is_some();
                let b = tree.get(2).is_some();
                assert_eq!(a, b, "snapshot observed a half-applied batch");
                if committed.load(Ordering::SeqCst) {
                    break;
                }
            }
            drop(snap); // release the gate: the apply proceeds
            h.join().unwrap();
        });
        assert_eq!(tree.get(1), Some(10));
        assert_eq!(tree.get(2), Some(20));
    }

    /// Wrapper whose `apply_batch` fails once on demand — freezing the
    /// engine in the committed-but-unapplied window a snapshot could
    /// previously misreport.
    struct FailingApply {
        inner: FastFairTree,
        fail_next: std::sync::atomic::AtomicBool,
    }

    impl PmIndex for FailingApply {
        fn insert(&self, key: u64, value: u64) -> Result<Option<u64>, IndexError> {
            self.inner.insert(key, value)
        }
        fn update(&self, key: u64, value: u64) -> Result<Option<u64>, IndexError> {
            self.inner.update(key, value)
        }
        fn get(&self, key: u64) -> Option<u64> {
            self.inner.get(key)
        }
        fn remove(&self, key: u64) -> bool {
            self.inner.remove(key)
        }
        fn cursor(&self) -> Box<dyn pmindex::Cursor + '_> {
            self.inner.cursor()
        }
        fn name(&self) -> &'static str {
            "failing-apply"
        }
        fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
            if self.fail_next.swap(false, Ordering::SeqCst) {
                return Err(IndexError::PoolExhausted("injected apply failure".into()));
            }
            self.inner.apply_batch(ops)
        }
    }

    /// Regression (PR 8): `Snapshot::seq` must report the last *applied*
    /// group, not the last *committed* one. With the apply frozen after
    /// the commit store (injected failure here; the mid-group window in
    /// live service traffic), a snapshot used to claim seq 1 while the
    /// tables still showed nothing of the batch.
    #[test]
    fn snapshot_mid_group_sees_none_of_it() {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(8 << 20)).unwrap());
        let table = FailingApply {
            inner: FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).unwrap(),
            fail_next: std::sync::atomic::AtomicBool::new(true),
        };
        let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
        let mut a = WriteBatch::new();
        a.put(0, 1, 10);
        let mut b = WriteBatch::new();
        b.put(0, 2, 20);
        // The group commits (journal word flips) but the apply dies.
        assert!(engine.commit_grouped(&[a, b], &[&table]).is_err());
        assert_eq!(engine.last_committed(), 1);
        assert!(engine.pending());
        {
            let snap = engine.snapshot();
            // Committed-but-unapplied: the snapshot must not claim the
            // group is visible — and indeed no read can see it.
            assert_eq!(snap.seq(), 0, "snapshot leaked an unapplied group");
            assert_eq!((table.get(1), table.get(2)), (None, None));
        }
        // Recovery replays the group; snapshots then see all of it.
        assert_eq!(engine.recover(&[&table]).unwrap(), 2);
        let snap = engine.snapshot();
        assert_eq!(snap.seq(), 1);
        assert_eq!((table.get(1), table.get(2)), (Some(10), Some(20)));
    }

    #[test]
    fn grouped_commit_is_one_sequence_and_one_commit_fence_set() {
        let (_pool, tree, engine) = mk();
        let batches: Vec<WriteBatch> = (0..4u64)
            .map(|c| {
                let mut b = WriteBatch::new();
                b.put(0, 10 + c, 100 + c);
                b.put(0, 20 + c, 200 + c);
                b
            })
            .collect();
        pmem::stats::reset();
        assert_eq!(engine.commit_grouped(&batches, &[&tree]).unwrap(), 1);
        let s = pmem::stats::take();
        assert_eq!(s.txn_commits, 1, "one journal commit for the group");
        for c in 0..4u64 {
            assert_eq!(tree.get(10 + c), Some(100 + c));
            assert_eq!(tree.get(20 + c), Some(200 + c));
        }
        // A second group continues the sequence by one, not by four.
        let mut b = WriteBatch::new();
        b.put(0, 99, 999);
        assert_eq!(engine.commit_grouped(&[b], &[&tree]).unwrap(), 2);
        assert!(!engine.pending());
    }

    #[test]
    fn snapshot_seq_tracks_commits() {
        let (_pool, tree, engine) = mk();
        assert_eq!(engine.snapshot().seq(), 0);
        let mut b = WriteBatch::new();
        b.put(0, 1, 10);
        engine.commit(b, &[&tree]).unwrap();
        let mut snap = engine.snapshot();
        snap.also_pin(tree.epoch());
        assert_eq!(snap.seq(), 1);
    }
}

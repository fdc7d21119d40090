//! # Atomic multi-key write batches
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
//! Readers take no part in the protocol: they read the tables directly,
//! as every FAST+FAIR reader does, and may observe a group's apply half
//! done. All-or-nothing is a durability guarantee, not an isolation one.
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

use parking_lot::Mutex;
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
/// # Errors
///
/// Propagates [`PmIndex::apply_batch`] failures; a table id outside
/// `tables` panics (callers validate ids first, as the engine does).
fn apply_grouped<T: PmIndex + ?Sized>(
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
/// # Errors
///
/// As [`apply_grouped`]; after an error the entries pushed onto `prev`
/// are unspecified.
fn apply_grouped_prev<T: PmIndex + ?Sized>(
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
        })
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
    /// the tables, and retires the journal. Concurrent commits serialize on the journal.
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
    /// fence, one `apply_batch` call per table, one retire fence.
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
    /// replaced: the same stage → one sequence store → apply →
    /// retire protocol, the same validation, the same fences and
    /// flushes — only the apply phase goes through
    /// [`PmIndex::apply_batch_prev`], pushing one entry per op onto `prev` in
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
        pmem::stats::count(|s| s.txn_commits += 1);
        self.seq.store(seq, Ordering::SeqCst);
        // 3. APPLY: idempotent redo onto the live tables.
        match prev {
            Some(prev) => apply_grouped_prev(&ops, tables, prev)?,
            None => apply_grouped(&ops, tables)?,
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
    /// is absorbed by simply recovering again.
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
    /// outside `tables`, or holds an op kind other than put or delete, a
    /// reserved put value or a delete with a nonzero value — checked for
    /// every entry before any applies; apply failures propagate (the
    /// journal stays committed-but-unapplied, so recovery can be
    /// retried).
    pub fn recover<T: PmIndex + ?Sized>(&self, tables: &[&T]) -> Result<usize, IndexError> {
        let j = self.journal.lock();
        let committed = j.committed().load(&self.pool);
        let applied = j.applied().load(&self.pool);
        self.seq.store(committed, Ordering::SeqCst);
        if committed == applied {
            return Ok(0);
        }
        let n = self.pool.load_u64(j.off + J_COUNT);
        if n > j.cap {
            return Err(IndexError::Unsupported(format!(
                "journal at {:#x} is corrupt: {n} entries in a region for {}",
                j.off, j.cap
            )));
        }
        // Every entry is checked before any applies: a corrupt one
        // refuses the replay instead of applying as something else.
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
            let op = match kind {
                OP_PUT if check_value(value).is_ok() => BatchOp::Put(key, value),
                OP_DELETE if value == 0 => BatchOp::Delete(key),
                _ => {
                    return Err(IndexError::Unsupported(format!(
                        "journal entry {i} is corrupt: kind {kind:#x}, value {value:#x}"
                    )))
                }
            };
            ops.push((t, op));
        }
        apply_grouped(&ops, tables)?;
        pmem::stats::count(|s| s.txn_replays += n);
        j.applied().publish(&self.pool, committed);
        Ok(n as usize)
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
    fn apply_grouped_applies_each_tables_ops() {
        let (_pool, tree, _engine) = mk();
        apply_grouped(&[(0, BatchOp::Put(1, 10))], &[&tree]).unwrap();
        assert_eq!(tree.get(1), Some(10));
    }

    #[test]
    fn apply_grouped_prev_reports_in_input_order() {
        let (pool, a, _engine) = mk();
        let b = FastFairTree::create(pool, TreeOptions::new()).unwrap();
        b.insert(1, 11).unwrap();
        let mut prev = Vec::new();
        apply_grouped_prev(
            &[
                (1, BatchOp::Put(1, 12)),
                (0, BatchOp::Put(1, 10)),
                (1, BatchOp::Delete(1)),
            ],
            &[&a, &b],
            &mut prev,
        )
        .unwrap();
        // Input order, not table order.
        assert_eq!(prev, vec![Some(11), None, Some(12)]);
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

    /// Wrapper whose `apply_batch` fails once on demand — freezing the
    /// engine in the committed-but-unapplied window.
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

    /// A group whose apply fails after the commit store stays committed:
    /// the journal reports it pending, the tables hold none of it, and
    /// `recover` replays all of it.
    #[test]
    fn a_failed_apply_leaves_the_group_committed_for_recover() {
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
        assert_eq!((table.get(1), table.get(2)), (None, None));
        assert_eq!(engine.recover(&[&table]).unwrap(), 2);
        assert!(!engine.pending());
        assert_eq!((table.get(1), table.get(2)), (Some(10), Some(20)));
    }

    fn failing_table(pool: &Arc<Pool>) -> FailingApply {
        FailingApply {
            inner: FastFairTree::create(Arc::clone(pool), TreeOptions::new()).unwrap(),
            fail_next: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Commits `batch` against a table whose apply fails once, leaving
    /// the journal committed but unapplied.
    fn stranded(batch: WriteBatch) -> (Arc<Pool>, FailingApply, TxnEngine) {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(8 << 20)).unwrap());
        let table = failing_table(&pool);
        let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
        assert!(engine.commit(batch, &[&table]).is_err());
        assert!(engine.pending());
        (pool, table, engine)
    }

    fn one_put(key: u64, value: u64) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(0, key, value);
        b
    }

    #[test]
    fn commits_are_refused_while_a_committed_group_is_unapplied() {
        let (_pool, table, engine) = stranded(one_put(1, 10));
        let err = engine.commit(one_put(2, 20), &[&table]);
        assert!(matches!(err, Err(IndexError::Unsupported(_))), "{err:?}");
        assert_eq!(engine.last_committed(), 1);
        assert_eq!(table.get(2), None);
        assert_eq!(engine.recover(&[&table]).unwrap(), 1);
        assert_eq!(engine.commit(one_put(2, 20), &[&table]).unwrap(), 2);
        assert_eq!((table.get(1), table.get(2)), (Some(10), Some(20)));
    }

    #[test]
    fn recover_replays_puts_and_deletes_once_and_then_is_clean() {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(8 << 20)).unwrap());
        let table = failing_table(&pool);
        table.inner.insert(5, 50).unwrap();
        table.inner.insert(6, 60).unwrap();
        let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
        let mut b = WriteBatch::new();
        b.put(0, 5, 51);
        b.delete(0, 6);
        b.delete(0, 7); // absent
        b.put(0, 8, 80);
        assert!(engine.commit(b, &[&table]).is_err());
        pmem::stats::reset();
        assert_eq!(engine.recover(&[&table]).unwrap(), 4);
        assert_eq!(engine.recover(&[&table]).unwrap(), 0);
        assert_eq!(pmem::stats::take().txn_replays, 4);
        let mut got = Vec::new();
        table.range(0, u64::MAX, &mut got);
        assert_eq!(got, vec![(5, 51), (8, 80)]);
    }

    #[test]
    fn recover_refuses_an_entry_count_past_the_region() {
        let (pool, table, engine) = stranded(one_put(1, 10));
        let off = CommitCell::JOURNAL.load(&pool);
        pool.store_u64(off + J_COUNT, INITIAL_CAPACITY + 1);
        let err = engine.recover(&[&table]);
        assert!(matches!(err, Err(IndexError::Unsupported(_))), "{err:?}");
        assert!(engine.pending());
        assert_eq!(table.get(1), None);
    }

    #[test]
    fn recover_refuses_a_delete_entry_that_carries_a_value() {
        let mut b = WriteBatch::new();
        b.put(0, 1, 10);
        b.delete(0, 2);
        let (pool, table, engine) = stranded(b);
        let off = CommitCell::JOURNAL.load(&pool);
        // Entry 1's value word: a delete stages 0 there.
        pool.store_u64(off + J_ENTRIES + ENTRY_WORDS * 8 + 24, 7);
        let err = engine.recover(&[&table]);
        assert!(matches!(err, Err(IndexError::Unsupported(_))), "{err:?}");
        // Entry 0 was checked clean, but nothing applies before every
        // entry is.
        assert_eq!(table.get(1), None);
    }

    #[test]
    fn open_refuses_a_journal_applied_past_committed() {
        let (pool, tree, engine) = mk();
        engine.commit(one_put(1, 10), &[&tree]).unwrap();
        drop(engine);
        let off = CommitCell::JOURNAL.load(&pool);
        pool.store_u64(off + J_APPLIED, 2);
        let err = TxnEngine::open(Arc::clone(&pool));
        assert!(matches!(err, Err(IndexError::Unsupported(_))), "{err:?}");
    }

    #[test]
    fn open_refuses_a_region_without_the_journal_magic() {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(1 << 20)).unwrap());
        let region = pool.alloc(region_bytes(INITIAL_CAPACITY), 64).unwrap();
        CommitCell::JOURNAL.publish(&pool, region);
        let err = TxnEngine::open(Arc::clone(&pool));
        assert!(matches!(err, Err(IndexError::Unsupported(_))), "{err:?}");
        // The slot is taken, so create refuses too rather than
        // overwriting it.
        assert!(TxnEngine::create(pool).is_err());
    }

    #[test]
    fn a_grown_journal_reopens_and_keeps_committing() {
        let (pool, tree, engine) = mk();
        let mut b = WriteBatch::new();
        for k in 1..=(2 * INITIAL_CAPACITY + 1) {
            b.put(0, k, k + 1);
        }
        engine.commit(b, &[&tree]).unwrap();
        drop(engine);
        let engine = TxnEngine::open(Arc::clone(&pool)).unwrap();
        assert_eq!(engine.last_committed(), 1);
        assert!(!engine.pending());
        assert_eq!(engine.commit(one_put(500, 5), &[&tree]).unwrap(), 2);
        assert_eq!(tree.len() as u64, 2 * INITIAL_CAPACITY + 2);
    }

    #[test]
    fn groups_of_empty_or_invalid_batches_push_no_prev_entries() {
        let (_pool, tree, engine) = mk();
        let mut prev = vec![Some(99)];
        let empty = [WriteBatch::new(), WriteBatch::new()];
        pmem::stats::reset();
        assert_eq!(
            engine
                .commit_grouped_prev(&empty, &[&tree], &mut prev)
                .unwrap(),
            0
        );
        let mut bad = WriteBatch::new();
        bad.put(0, 1, 10);
        bad.put(3, 2, 20); // one table passed
        assert!(engine
            .commit_grouped_prev(&[bad], &[&tree], &mut prev)
            .is_err());
        assert_eq!(prev, vec![Some(99)]);
        assert_eq!(pmem::stats::take().txn_commits, 0);
        assert!(tree.is_empty());
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
}

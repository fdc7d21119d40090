//! The replica: own fleet, strict in-order apply, persisted watermark.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use catalog::{Catalog, PoolProvisioner, StoreKind};
use parking_lot::Mutex;
use pmem::{CommitCell, Pool, NULL_OFFSET};
use pmindex::{IndexError, PersistentIndex, PmIndex};
use txn::TxnEngine;

use crate::{LogRecord, LogShipper, Transport};

/// Catalog name under which a replica registers its watermark cell
/// (the `__` prefix marks infrastructure records; they show up in
/// [`Catalog::names`] like any other store).
pub const WATERMARK_NAME: &str = "__repl_watermark";

/// Catalog name under which [`Replica::promote`] registers the
/// promoted engine's journal.
pub const PROMOTED_ENGINE_NAME: &str = "__repl_engine";

/// First word of the 16-byte watermark record `[magic, sequence]`.
const WM_MAGIC: u64 = u64::from_le_bytes(*b"REPLWTRM");

/// Rounds of drain-then-retransmit [`Replica::catch_up`] attempts
/// before giving up (each round re-rolls the transport's fault dice, so
/// any loss probability < 1 converges long before this).
const CATCH_UP_ROUNDS: usize = 4096;

/// Outcome of offering one [`LogRecord`] to [`Replica::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The record advanced the watermark (possibly releasing parked
    /// successors too).
    Advanced,
    /// `seq <= watermark`: already applied, no-op — how duplicated and
    /// retransmitted records are absorbed.
    Duplicate,
    /// The record arrived ahead of a hole: it was parked, and the
    /// missing sequence is `expected` — ask the shipper to retransmit
    /// from there.
    Gap {
        /// The first missing sequence number (`watermark + 1`).
        expected: u64,
    },
}

/// A read replica: its **own** pool fleet and [`Catalog`], a set of
/// tables mirroring the primary's (same order — table ids in shipped
/// ops index this list), and a persisted watermark: the last applied
/// sequence.
///
/// Records apply strictly in sequence order through
/// [`txn::apply_grouped`] — the same idempotent redo path the primary's
/// apply phase uses. See the crate docs for the full protocol and the
/// consistency model.
pub struct Replica<I: PmIndex> {
    catalog: Catalog,
    tables: Vec<Arc<I>>,
    /// The watermark's pool and its sequence word, published after each
    /// group's apply. A crash between the apply and the publish
    /// re-applies that group on resume; idempotent redo absorbs it.
    wm_pool: Arc<Pool>,
    wm: CommitCell,
    /// Serializes appliers and parks out-of-order records by sequence.
    state: Mutex<BTreeMap<u64, LogRecord>>,
    /// Volatile count of groups applied this process lifetime — the
    /// numerator of the service's apply-rate gauge.
    applied_groups: AtomicU64,
}

impl<I: PmIndex> std::fmt::Debug for Replica<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("tables", &self.tables.len())
            .field("watermark", &self.watermark())
            .field("parked", &self.state.lock().len())
            .finish()
    }
}

impl<I: PersistentIndex + 'static> Replica<I> {
    /// Creates a fresh replica deployment: provisions a fleet of
    /// `slots` pools through `prov` (see [`Catalog::provision`]),
    /// creates one empty table per name (spread round-robin across the
    /// fleet) and the watermark cell, and registers everything in the
    /// replica's own catalog.
    ///
    /// `tables` must match the primary's table order — shipped ops
    /// carry table *ids*, not names.
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the fleet already holds a replica
    /// (use [`Replica::open`]); provisioning and allocation failures
    /// propagate.
    pub fn create<P: PoolProvisioner>(
        prov: &mut P,
        slots: usize,
        tables: &[&str],
    ) -> Result<Replica<I>, IndexError> {
        let catalog = Catalog::provision(prov, slots)?;
        if catalog.lookup(WATERMARK_NAME).is_some() {
            return Err(IndexError::Unsupported(
                "fleet already holds a replica watermark; use Replica::open".into(),
            ));
        }
        let mut tbls = Vec::with_capacity(tables.len());
        for (i, name) in tables.iter().enumerate() {
            let slot = i % slots.max(1);
            let table = I::create_in(Arc::clone(&catalog.pools()[slot]))?;
            catalog.register(
                name,
                &StoreKind::Index {
                    pool: slot,
                    superblock: table.superblock(),
                },
            )?;
            tbls.push(Arc::new(table));
        }
        let root = Arc::clone(catalog.root());
        let off = root.alloc(16, 64)?;
        root.store_u64(off, WM_MAGIC);
        root.store_u64(off + 8, 0);
        root.persist(off, 16);
        catalog.register(
            WATERMARK_NAME,
            &StoreKind::Index {
                pool: 0,
                superblock: off,
            },
        )?;
        Ok(Replica {
            catalog,
            tables: tbls,
            wm_pool: root,
            wm: CommitCell::at(off + 8),
            state: Mutex::new(BTreeMap::new()),
            applied_groups: AtomicU64::new(0),
        })
    }

    /// Re-opens a replica from its provisioned fleet — the crash-resume
    /// path: the watermark cell names the last applied sequence, and
    /// the replica simply tails from there (duplicates below it no-op,
    /// the first gap above it triggers a retransmit).
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the fleet holds no replica
    /// watermark or any record fails validation.
    pub fn open<P: PoolProvisioner>(
        prov: &mut P,
        slots: usize,
        tables: &[&str],
    ) -> Result<Replica<I>, IndexError> {
        let catalog = Catalog::provision(prov, slots)?;
        let Some(StoreKind::Index { pool, superblock }) = catalog.lookup(WATERMARK_NAME) else {
            return Err(IndexError::Unsupported(
                "fleet holds no replica watermark; use Replica::create".into(),
            ));
        };
        let wm_pool = Arc::clone(&catalog.pools()[pool]);
        if wm_pool.load_u64(superblock) != WM_MAGIC {
            return Err(IndexError::Unsupported(format!(
                "no replica watermark at offset {superblock:#x}"
            )));
        }
        let tbls = tables
            .iter()
            .map(|name| catalog.open_store::<I>(name).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Replica {
            catalog,
            tables: tbls,
            wm_pool,
            wm: CommitCell::at(superblock + 8),
            state: Mutex::new(BTreeMap::new()),
            applied_groups: AtomicU64::new(0),
        })
    }

    /// Turns this replica into a standalone primary: opens (and
    /// replays) the root pool's journal if one exists, otherwise
    /// creates one and registers it as [`PROMOTED_ENGINE_NAME`] — the
    /// catalog, tables and their pools carry over intact. Parked
    /// out-of-order records are discarded: promotion cuts the stream at
    /// the watermark, which is always a consistent group boundary.
    ///
    /// # Errors
    ///
    /// Journal create/open/recover failures propagate.
    pub fn promote(self) -> Result<Promoted<I>, IndexError> {
        let root = Arc::clone(self.catalog.root());
        let engine = if CommitCell::JOURNAL.load(&root) == NULL_OFFSET {
            let engine = TxnEngine::create(root)?;
            self.catalog
                .register(PROMOTED_ENGINE_NAME, &StoreKind::Txn { pool: 0 })?;
            engine
        } else {
            TxnEngine::open(root)?
        };
        let refs: Vec<&I> = self.tables.iter().map(|t| t.as_ref()).collect();
        engine.recover(&refs)?;
        Ok(Promoted {
            catalog: self.catalog,
            tables: self.tables,
            engine: Arc::new(engine),
        })
    }
}

impl<I: PmIndex> Replica<I> {
    /// The replica's own catalog (fleet slot 0 holds it).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The replica's tables, in primary table-id order.
    pub fn tables(&self) -> &[Arc<I>] {
        &self.tables
    }

    /// The persisted applied sequence: every group `<=` this value is
    /// fully applied, every group `>` it not at all.
    pub fn watermark(&self) -> u64 {
        self.wm.load(&self.wm_pool)
    }

    /// Groups applied this process lifetime (volatile; feeds the
    /// service's apply-rate gauge).
    pub fn applied_groups(&self) -> u64 {
        self.applied_groups.load(Ordering::Relaxed)
    }

    /// Records parked above a sequence hole, awaiting retransmission.
    pub fn parked(&self) -> usize {
        self.state.lock().len()
    }

    /// A stale-tolerant point read at the replica's watermark: lock-free
    /// (FAST+FAIR reads need no latches) and linearized only against
    /// the replica's apply stream, not the primary's commit order.
    pub fn read_stale(&self, table: usize, key: u64) -> Option<u64> {
        self.tables.get(table).and_then(|t| t.get(key))
    }

    /// Applies the ops of an in-sequence record and advances the
    /// watermark — apply first, then the one-store watermark commit, so
    /// a crash between them re-applies (never skips) the group.
    fn redo(&self, rec: &LogRecord) -> Result<(), IndexError> {
        for &(t, _) in &rec.ops {
            if t as usize >= self.tables.len() {
                return Err(IndexError::Unsupported(format!(
                    "shipped group {} names table {t} but the replica has {} tables",
                    rec.seq,
                    self.tables.len()
                )));
            }
        }
        let refs: Vec<&I> = self.tables.iter().map(|t| t.as_ref()).collect();
        txn::apply_grouped(&rec.ops, &refs)?;
        self.wm.publish(&self.wm_pool, rec.seq);
        self.applied_groups.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Offers one record to the replica. Strictly-in-order semantics:
    /// `seq <= watermark` is a [`Applied::Duplicate`] no-op, `seq ==
    /// watermark + 1` applies (and then drains any parked successors
    /// that became contiguous), `seq > watermark + 1` parks the record
    /// and reports the [`Applied::Gap`].
    ///
    /// ```
    /// use pmindex::BatchOp;
    /// use repl::{Applied, LogRecord, Replica};
    ///
    /// let replica: Replica<fastfair::FastFairTree> = Replica::create(
    ///     &mut |_: usize| {
    ///         Ok(std::sync::Arc::new(pmem::Pool::new(
    ///             pmem::PoolConfig::default().size(1 << 20),
    ///         )?))
    ///     },
    ///     1,
    ///     &["kv"],
    /// )?;
    /// let one = LogRecord { seq: 1, ops: vec![(0, BatchOp::Put(1, 10))] };
    /// let two = LogRecord { seq: 2, ops: vec![(0, BatchOp::Put(2, 20))] };
    /// // Out of order: 2 parks, then 1 applies and releases it.
    /// assert_eq!(replica.apply(&two)?, Applied::Gap { expected: 1 });
    /// assert_eq!(replica.apply(&one)?, Applied::Advanced);
    /// assert_eq!(replica.apply(&one)?, Applied::Duplicate);
    /// assert_eq!(replica.watermark(), 2);
    /// assert_eq!(replica.read_stale(0, 2), Some(20));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] for a table id outside the replica's
    /// tables; apply failures propagate (the watermark does not move,
    /// so the stream can be retried).
    pub fn apply(&self, rec: &LogRecord) -> Result<Applied, IndexError> {
        let mut parked = self.state.lock();
        let wm = self.watermark();
        if rec.seq <= wm {
            return Ok(Applied::Duplicate);
        }
        if rec.seq > wm + 1 {
            parked.insert(rec.seq, rec.clone());
            return Ok(Applied::Gap { expected: wm + 1 });
        }
        self.redo(rec)?;
        // Contiguous parked successors are now applicable.
        let mut next = rec.seq + 1;
        while let Some(parked_rec) = parked.remove(&next) {
            self.redo(&parked_rec)?;
            next += 1;
        }
        // Anything parked at or below the watermark is a stale duplicate.
        let wm = self.watermark();
        parked.retain(|&seq, _| seq > wm);
        Ok(Applied::Advanced)
    }

    /// Non-blocking drain: polls `transport` until empty, applying
    /// every record, and returns how far the watermark advanced.
    ///
    /// # Errors
    ///
    /// As [`Replica::apply`].
    pub fn apply_available(&self, transport: &dyn Transport) -> Result<u64, IndexError> {
        let before = self.watermark();
        while let Some(rec) = transport.poll(Duration::ZERO) {
            self.apply(&rec)?;
        }
        Ok(self.watermark() - before)
    }

    /// Drains and repairs until the watermark reaches the shipper's
    /// last shipped sequence: each round applies everything available
    /// and, if still behind, requests a retransmit of the hole
    /// (`watermark + 1` onward) from subscriber slot `sub`.
    ///
    /// # Errors
    ///
    /// Apply and retransmit errors propagate — in particular the
    /// window-expired error that means "re-bootstrap". If the transport
    /// keeps eating retransmissions round after round (only plausible
    /// with a drop probability of 1), gives up with
    /// [`IndexError::Unsupported`].
    pub fn catch_up(
        &self,
        transport: &dyn Transport,
        shipper: &LogShipper,
        sub: u64,
    ) -> Result<(), IndexError> {
        for _ in 0..CATCH_UP_ROUNDS {
            self.apply_available(transport)?;
            let wm = self.watermark();
            if wm >= shipper.last_shipped() {
                return Ok(());
            }
            shipper.retransmit(sub, wm + 1)?;
        }
        Err(IndexError::Unsupported(
            "replica failed to catch up: transport delivered nothing across every retry".into(),
        ))
    }

    /// Catch-up bootstrap: streams every primary table through a cursor
    /// under one [`txn::Snapshot`] (pinning the apply gate, so the
    /// stream is exactly the state at the snapshot's applied sequence),
    /// bulk-loads the pairs into the replica's empty tables, then sets
    /// the watermark to the pinned sequence. Subscribe the replica's
    /// transport **before** calling this: groups committed during the
    /// stream queue up and apply afterwards as the live tail (those at
    /// or below the pinned sequence dedup away).
    ///
    /// Returns the pinned sequence.
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] unless the replica is fresh
    /// (watermark 0, all tables empty) — a half-bootstrapped fleet
    /// after a mid-bootstrap crash cannot be resumed (its watermark
    /// never moved off 0) and must be provisioned anew; this is the
    /// same contract as reseeding a physical standby.
    pub fn bootstrap<S: PmIndex + ?Sized>(
        &self,
        primary: &[&S],
        engine: &TxnEngine,
    ) -> Result<u64, IndexError> {
        let mut parked = self.state.lock();
        if self.watermark() != 0 {
            return Err(IndexError::Unsupported(
                "bootstrap requires a fresh replica (watermark 0)".into(),
            ));
        }
        if self.tables.iter().any(|t| t.len() != 0) {
            return Err(IndexError::Unsupported(
                "bootstrap requires empty replica tables (a half-bootstrapped fleet must be reprovisioned)"
                    .into(),
            ));
        }
        if primary.len() != self.tables.len() {
            return Err(IndexError::Unsupported(format!(
                "primary has {} tables but the replica has {}",
                primary.len(),
                self.tables.len()
            )));
        }
        let snap = engine.snapshot();
        let seq = snap.seq();
        for (src, dst) in primary.iter().zip(&self.tables) {
            let mut cur = src.cursor();
            dst.bulk_load(&mut std::iter::from_fn(|| cur.next()))?;
        }
        drop(snap);
        // One 8-byte store publishes the whole bootstrap: before it the
        // replica is "fresh, restart bootstrap", after it "caught up to
        // seq, start tailing".
        self.wm.publish(&self.wm_pool, seq);
        parked.retain(|&s, _| s > seq);
        Ok(seq)
    }
}

/// What [`Replica::promote`] yields: the same catalog and tables, now
/// fronted by a standalone [`TxnEngine`] — wire it into a
/// `service::Service` or commit to it directly.
pub struct Promoted<I: PmIndex> {
    /// The replica's catalog, carried over intact (tables keep their
    /// names; the engine is registered as [`PROMOTED_ENGINE_NAME`]).
    pub catalog: Catalog,
    /// The tables, in the same order the replication stream used.
    pub tables: Vec<Arc<I>>,
    /// The new primary's engine (journal replayed if one existed).
    pub engine: Arc<TxnEngine>,
}

impl<I: PmIndex> std::fmt::Debug for Promoted<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promoted")
            .field("tables", &self.tables.len())
            .field("engine", &self.engine)
            .finish()
    }
}

/// The read-serving face of a replica — what `service::Service` holds
/// so its read rotation does not care which index type backs each
/// replica.
pub trait ReadReplica: Send + Sync {
    /// A stale-tolerant point read against `table` at the replica's
    /// current watermark.
    fn read_stale(&self, table: usize, key: u64) -> Option<u64>;

    /// The replica's applied sequence (compare with the primary's
    /// [`TxnEngine::last_committed`] for lag).
    fn watermark(&self) -> u64;

    /// Groups applied this process lifetime (rate numerator).
    fn applied_groups(&self) -> u64;
}

impl<I: PmIndex + Send + Sync> ReadReplica for Replica<I> {
    fn read_stale(&self, table: usize, key: u64) -> Option<u64> {
        Replica::read_stale(self, table, key)
    }

    fn watermark(&self) -> u64 {
        Replica::watermark(self)
    }

    fn applied_groups(&self) -> u64 {
        Replica::applied_groups(self)
    }
}

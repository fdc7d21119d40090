//! # Request-serving frontend: batched workers, group commit, backpressure
//!
//! The paper's FAST+FAIR tree is a function call; the ROADMAP's north
//! star is a *service* draining request queues from many concurrent
//! clients. This crate closes that gap:
//!
//! * N cloneable [`ClientHandle`]s feed bounded per-lane MPSC queues
//!   (get / insert / update / delete / batch / scan).
//! * One worker thread per lane drains its queue in **adaptive
//!   batches**: take the first request (blocking), then opportunistically
//!   drain whatever else has queued, up to
//!   [`ServiceConfig::max_group`] — under load groups grow, idle they
//!   shrink to 1 and latency stays flat.
//! * Writes commit through **group commit**: every drained client
//!   write is staged into one [`txn::TxnEngine::commit_grouped_prev`] call —
//!   one staging persist, ONE sequence-number store + fence, one
//!   apply-gate acquisition and one retire fence for the whole group —
//!   the amortization lever Marathe et al. (*Persistent Memory
//!   Transactions*) show dominates pmem transaction cost. An upsert's
//!   reply (the replaced value) and a delete's (was it there) come from
//!   that apply, not a pre-read; only `update` still reads first.
//!   Completions fan back through per-request `oneshot` reply slots.
//! * **Admission control**: a full queue either rejects the submitter
//!   with [`ServiceError::Overloaded`] ([`Admission::Shed`]) or parks it
//!   until the worker catches up ([`Admission::Park`]).
//! * **Observability**: lock-free p50/p99/p999 latency histograms and
//!   throughput / queue-depth / batch-size gauges per op class, via
//!   [`ServiceStats`].
//!
//! # Reads
//!
//! FAST+FAIR's search takes no lock and tolerates every transient state
//! a writer leaves (§3, Algorithm 3), so a `get` does not need the lane's
//! one worker — it needs only to respect what the lane has promised. A
//! [`ClientHandle::submit_get`] therefore runs `tables[0].get(key)` on
//! the calling thread, and returns an already-completed [`Ticket`], when
//! **both** hold: (1) no write to the key is *in flight* — submitted and
//! not yet through its group's commit + apply — read from a small table
//! of counters indexed by a hash of the key, which every write raises
//! before it is enqueued and its worker lowers after the apply and
//! before any reply of that group; (2) the key's lane already holds a
//! backlog, i.e. the read would wait behind work the worker has not
//! done. Otherwise the read is queued like any other request. Both
//! routes stay because each has a case only it serves: a read that
//! conflicts with an in-flight write must take the queue to keep its
//! place behind that write, and on an idle lane handing the read over
//! lets a pipelining client overlap its next submission with the search
//! (always-inline was measured: + 13 % where this rule gives + 52 %).
//!
//! What a `get` promises, whichever route served it:
//!
//! * **Own writes.** It sees every write its client submitted before it.
//! * **Acknowledged writes.** It sees every write, by anyone, whose
//!   ticket had completed before it was invoked.
//! * **Never uncommitted.** What it returns is committed and durable.
//! * **No more than that.** Two reads outstanding at once, racing another
//!   client's write, may complete in either order and the later-submitted
//!   one may return the older value: submission order between a client's
//!   concurrent reads was never promised (lanes already reordered reads
//!   of different keys), and is not.
//!
//! [`ClientHandle::get_stale`] is the other thing: it also runs on the
//! calling thread, but checks nothing — it may miss the caller's own
//! pipelined writes and acknowledged ones a replica has not applied.
//!
//! ```
//! use std::sync::Arc;
//! use service::{Service, ServiceConfig};
//! use shard::{Partitioning, ShardedStore};
//!
//! let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(4 << 20))?);
//! let store: Arc<ShardedStore<fastfair::FastFairTree>> = Arc::new(ShardedStore::create(
//!     Arc::clone(&pool),
//!     vec![Arc::clone(&pool), Arc::clone(&pool)],
//!     Partitioning::Hash { shards: 2 },
//! )?);
//! let engine = Arc::new(txn::TxnEngine::create(Arc::clone(&pool))?);
//!
//! let service = Service::with_engine(vec![store], engine, ServiceConfig::default());
//! let client = service.handle();
//! assert_eq!(client.insert(1, 10)?, None);
//! assert_eq!(client.get(1)?, Some(10));
//! assert_eq!(client.update(1, 11)?, Some(10));
//! assert_eq!(client.scan(0, 100)?, vec![(1, 11)]);
//! assert!(client.delete(1)?);
//! assert_eq!(service.stats().completed(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod inflight;
#[cfg(test)]
mod inline_tests;
mod stats;

pub use stats::{LatencyHistogram, OpClass, OpStats, ServiceStats};

pub use repl::ReadReplica;

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, SendError, Sender, TrySendError};
use inflight::InFlight;
use pmindex::{check_value, BatchOp, IndexError, Key, PmIndex, Value};
use txn::{TxnEngine, WriteBatch};

/// Errors a service request can come back with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control rejected the request: the lane's queue is at
    /// its high-water mark and the service runs [`Admission::Shed`].
    Overloaded,
    /// The service has shut down (or is shutting down) — the request
    /// was not executed.
    ShuttingDown,
    /// The storage layer failed the request.
    Index(IndexError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "service overloaded: request shed at admission"),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::Index(e) => write!(f, "index error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<IndexError> for ServiceError {
    fn from(e: IndexError) -> Self {
        ServiceError::Index(e)
    }
}

/// What happens to a submitter when its lane's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Reject immediately with [`ServiceError::Overloaded`] — load
    /// shedding; the client decides whether to retry.
    Shed,
    /// Block the submitting thread until the worker drains room —
    /// classic backpressure.
    Park,
}

/// Construction-time knobs for a [`Service`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads (and request queues). Single-key traffic for one
    /// key always lands on the same lane, so per-key operations
    /// serialize per lane without any cross-lane locking.
    pub lanes: usize,
    /// Queued requests per lane before admission control engages.
    pub queue_capacity: usize,
    /// Most requests a worker folds into one commit group.
    pub max_group: usize,
    /// Full-queue policy.
    pub admission: Admission,
    /// How long an idle worker sleeps between queue checks (also the
    /// shutdown-latency bound).
    pub idle_timeout: Duration,
    /// Route single-key requests with this partitioning (lane =
    /// `shard_of(key) % lanes`) so lanes align with the backing
    /// `shard::ShardedStore`'s shards; `None` hashes keys over lanes.
    pub affinity: Option<shard::Partitioning>,
    /// Epoch domains the worker pins **once per group** (instead of
    /// once per request) around request execution — e.g. the backing
    /// store's `reclaim_domain()`.
    pub pin_domains: Vec<Arc<epoch::EpochDomain>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            lanes: 2,
            queue_capacity: 64,
            max_group: 32,
            admission: Admission::Park,
            idle_timeout: Duration::from_millis(20),
            affinity: None,
            pin_domains: Vec::new(),
        }
    }
}

type ReplySlot<T> = oneshot::Sender<Result<T, ServiceError>>;

/// A pipelined submission's completion: hold several, then
/// [`Ticket::wait`] them — this is how a single client keeps a worker's
/// group full (see the `perf` package's `svc_*` workloads).
pub struct Ticket<T>(Reply<T>);

/// Where a ticket's answer is: still with a worker, or — a `get` the
/// submitting thread ran itself — already here, with no reply slot
/// allocated for it.
enum Reply<T> {
    Pending(oneshot::Receiver<Result<T, ServiceError>>),
    Ready(Result<T, ServiceError>),
}

impl<T> Ticket<T> {
    /// Waits until the request completes: a bounded spin on the reply
    /// slot (`oneshot::SPIN_BOUND` — the worker is usually mid-group,
    /// and its reply wakes no one who is not asleep), then parked. Any
    /// thread may wait a ticket, not only the one that submitted it.
    ///
    /// # Errors
    ///
    /// Whatever the request failed with; [`ServiceError::ShuttingDown`]
    /// if the service dropped the request during shutdown.
    pub fn wait(self) -> Result<T, ServiceError> {
        match self.0 {
            Reply::Ready(out) => out,
            Reply::Pending(rx) => rx.recv().unwrap_or(Err(ServiceError::ShuttingDown)),
        }
    }
}

enum Request {
    Get {
        key: Key,
        reply: ReplySlot<Option<Value>>,
        start: Instant,
    },
    Insert {
        key: Key,
        value: Value,
        reply: ReplySlot<Option<Value>>,
        start: Instant,
    },
    Update {
        key: Key,
        value: Value,
        reply: ReplySlot<Option<Value>>,
        start: Instant,
    },
    Delete {
        key: Key,
        reply: ReplySlot<bool>,
        start: Instant,
    },
    Batch {
        batch: WriteBatch,
        reply: ReplySlot<()>,
        start: Instant,
    },
    Scan {
        lo: Key,
        hi: Key,
        reply: ReplySlot<Vec<(Key, Value)>>,
        start: Instant,
    },
}

impl Request {
    fn class(&self) -> OpClass {
        match self {
            Request::Get { .. } => OpClass::Get,
            Request::Insert { .. } => OpClass::Insert,
            Request::Update { .. } => OpClass::Update,
            Request::Delete { .. } => OpClass::Delete,
            Request::Batch { .. } => OpClass::Batch,
            Request::Scan { .. } => OpClass::Scan,
        }
    }

    /// Every key the request writes, in any table (none for a read).
    fn write_keys(&self) -> impl Iterator<Item = Key> + '_ {
        let (one, many) = match self {
            Request::Insert { key, .. }
            | Request::Update { key, .. }
            | Request::Delete { key, .. } => (Some(*key), None),
            Request::Batch { batch, .. } => (None, Some(batch.ops().map(|(_, op)| op.key()))),
            Request::Get { .. } | Request::Scan { .. } => (None, None),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// A computed reply waiting for the group's commit before fan-out.
enum Done {
    Val {
        reply: ReplySlot<Option<Value>>,
        out: Result<Option<Value>, ServiceError>,
        class: OpClass,
        start: Instant,
    },
    Flag {
        reply: ReplySlot<bool>,
        out: Result<bool, ServiceError>,
        start: Instant,
    },
    Unit {
        reply: ReplySlot<()>,
        out: Result<(), ServiceError>,
        start: Instant,
    },
    Rows {
        reply: ReplySlot<Vec<(Key, Value)>>,
        out: Result<Vec<(Key, Value)>, ServiceError>,
        start: Instant,
    },
}

/// The read-replica rotation a [`Service`] serves
/// [`ClientHandle::get_stale`] from: a fixed set of
/// [`repl::ReadReplica`]s, each pausable out of the rotation by an
/// operator, picked round-robin per read.
///
/// ```
/// use std::sync::Arc;
/// use service::{ReadReplica, ReadRotation};
///
/// struct Fixed(u64);
/// impl ReadReplica for Fixed {
///     fn read_stale(&self, _table: usize, _key: u64) -> Option<u64> { Some(self.0) }
///     fn watermark(&self) -> u64 { self.0 }
///     fn applied_groups(&self) -> u64 { 0 }
/// }
///
/// let rot = ReadRotation::new(vec![Arc::new(Fixed(1)) as _, Arc::new(Fixed(2)) as _]);
/// assert_eq!(rot.len(), 2);
/// let (slot, _) = rot.pick().expect("someone serves");
/// rot.pause(slot);
/// let (other, _) = rot.pick().expect("the other still serves");
/// assert_ne!(slot, other);
/// rot.resume(slot);
/// assert_eq!(rot.watermarks(), vec![1, 2]);
/// ```
pub struct ReadRotation {
    replicas: Vec<Arc<dyn ReadReplica>>,
    paused: Vec<AtomicBool>,
    cursor: AtomicUsize,
}

impl fmt::Debug for ReadRotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadRotation")
            .field("replicas", &self.replicas.len())
            .field(
                "paused",
                &self
                    .paused
                    .iter()
                    .filter(|p| p.load(Ordering::Relaxed))
                    .count(),
            )
            .finish()
    }
}

impl ReadRotation {
    /// A rotation over `replicas`, all initially serving.
    pub fn new(replicas: Vec<Arc<dyn ReadReplica>>) -> ReadRotation {
        let paused = replicas.iter().map(|_| AtomicBool::new(false)).collect();
        ReadRotation {
            replicas,
            paused,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Number of replicas in the rotation (paused ones included).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// `true` when the rotation holds no replicas at all.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica in `slot` (paused or not).
    pub fn replica(&self, slot: usize) -> &Arc<dyn ReadReplica> {
        &self.replicas[slot]
    }

    /// Picks the next serving replica round-robin, skipping paused
    /// slots. `None` when every slot is paused (callers fall back to
    /// the primary).
    pub fn pick(&self) -> Option<(usize, &Arc<dyn ReadReplica>)> {
        let n = self.replicas.len();
        if n == 0 {
            return None;
        }
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            let slot = (start + i) % n;
            if !self.paused[slot].load(Ordering::Relaxed) {
                return Some((slot, &self.replicas[slot]));
            }
        }
        None
    }

    /// Takes `slot` out of the read rotation (idempotent).
    pub fn pause(&self, slot: usize) {
        self.paused[slot].store(true, Ordering::Relaxed);
    }

    /// Puts `slot` back into the read rotation (idempotent).
    pub fn resume(&self, slot: usize) {
        self.paused[slot].store(false, Ordering::Relaxed);
    }

    /// Whether `slot` is currently paused out of the rotation.
    pub fn is_paused(&self, slot: usize) -> bool {
        self.paused[slot].load(Ordering::Relaxed)
    }

    /// Every replica's watermark, in slot order — subtract from the
    /// primary's `last_committed` for per-replica lag.
    pub fn watermarks(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.watermark()).collect()
    }
}

struct Shared<I> {
    tables: Vec<Arc<I>>,
    engine: Arc<TxnEngine>,
    rotation: Option<Arc<ReadRotation>>,
    stats: Arc<ServiceStats>,
    inflight: InFlight,
    stop: AtomicBool,
    max_group: usize,
    admission: Admission,
    idle_timeout: Duration,
    lanes: usize,
    affinity: Option<shard::Partitioning>,
    pin_domains: Vec<Arc<epoch::EpochDomain>>,
}

impl<I> Shared<I> {
    fn lane_of(&self, key: Key) -> usize {
        match &self.affinity {
            Some(p) => p.shard_of(key) % self.lanes,
            // Fibonacci hashing: spread adjacent keys across lanes.
            None => (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.lanes,
        }
    }
}

/// The request-serving frontend over a set of [`PmIndex`] tables.
///
/// Every write group-commits through a [`TxnEngine`]: client batches are
/// atomic and a crash is recovered from the journal. Construct with
/// [`Service::with_engine`], with [`Service::with_replicas`] (the same,
/// plus a read-replica rotation) or, on a warm restart, with
/// [`Service::from_catalog`]. Clone handles off it with
/// [`Service::handle`]; drop (or [`Service::shutdown`]) to stop the
/// workers after they drain their queues.
///
/// See the crate docs for a full walkthrough.
pub struct Service<I: PmIndex + Send + Sync + 'static> {
    shared: Arc<Shared<I>>,
    senders: Vec<Sender<Request>>,
    workers: Vec<JoinHandle<()>>,
}

impl<I: PmIndex + Send + Sync + 'static> fmt::Debug for Service<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("lanes", &self.shared.lanes)
            .field("tables", &self.shared.tables.len())
            .finish()
    }
}

impl<I: PmIndex + Send + Sync + 'static> Service<I> {
    /// Starts a service whose writes group-commit through `engine`:
    /// every drained write in a group stages into one
    /// [`TxnEngine::commit_grouped_prev`] call. Single-key ops target
    /// `tables[0]`; [`ClientHandle::batch`] ops name any table by its
    /// index in `tables` (the same order every commit and
    /// [`TxnEngine::recover`] must use).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or the config names zero lanes.
    pub fn with_engine(tables: Vec<Arc<I>>, engine: Arc<TxnEngine>, config: ServiceConfig) -> Self {
        Service::start(tables, engine, None, config)
    }

    /// Starts an engine-backed service (as [`Service::with_engine`])
    /// that additionally serves [`ClientHandle::get_stale`] from a
    /// rotation of read replicas. The caller keeps the replication
    /// plumbing (shipper, transports, apply loops) — the service only
    /// *reads* from the replicas, round-robin, skipping paused slots.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or the config names zero lanes.
    pub fn with_replicas(
        tables: Vec<Arc<I>>,
        engine: Arc<TxnEngine>,
        replicas: Vec<Arc<dyn ReadReplica>>,
        config: ServiceConfig,
    ) -> Self {
        Service::start(
            tables,
            engine,
            Some(Arc::new(ReadRotation::new(replicas))),
            config,
        )
    }

    /// Boots a service from a [`catalog::Catalog`]: every name in
    /// `tables` is re-opened by [`catalog::Catalog::open_store`] (in
    /// order — the resulting positions are the table ids client batches
    /// use), and the engine named `engine` is re-opened with
    /// [`catalog::Catalog::open_txn`] and **recovered** against the
    /// tables before any request is served, so committed-but-unapplied
    /// batches from a crash are replayed first. This is the
    /// warm-restart path: cold starts create stores and an engine,
    /// register them, and call [`Service::with_engine`] directly; every
    /// later boot goes through here with nothing but names.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    /// use pmindex::PersistentIndex;
    /// use service::{Service, ServiceConfig};
    ///
    /// let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(4 << 20))?);
    /// let cat = Catalog::create(vec![Arc::clone(&pool)])?;
    /// let tree = fastfair::FastFairTree::create_in(Arc::clone(&pool))?;
    /// cat.register("kv", &StoreKind::Index { pool: 0, superblock: tree.superblock() })?;
    /// let engine = txn::TxnEngine::create(Arc::clone(&pool))?;
    /// cat.register("txn", &StoreKind::Txn { pool: 0 })?;
    /// drop((tree, engine));
    ///
    /// let service: Service<fastfair::FastFairTree> =
    ///     Service::from_catalog(&cat, &["kv"], Some("txn"), ServiceConfig::default())?;
    /// let client = service.handle();
    /// client.insert(1, 10)?;
    /// assert_eq!(client.get(1)?, Some(10));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] when `engine` is `None` — a service
    /// commits through a txn engine, so one must be named — before any
    /// store is opened or any worker starts. Otherwise propagates
    /// catalog lookup, store-open, and journal-recovery failures.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or the config names zero lanes.
    pub fn from_catalog(
        catalog: &catalog::Catalog,
        tables: &[&str],
        engine: Option<&str>,
        config: ServiceConfig,
    ) -> Result<Self, IndexError>
    where
        I: pmindex::PersistentIndex,
    {
        let Some(engine) = engine else {
            return Err(IndexError::Unsupported(
                "a service commits through a txn engine: name one".into(),
            ));
        };
        let tables = tables
            .iter()
            .map(|name| catalog.open_store::<I>(name).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = catalog.open_txn(engine)?;
        let refs: Vec<&I> = tables.iter().map(|t| t.as_ref()).collect();
        engine.recover(&refs)?;
        Ok(Service::start(tables, Arc::new(engine), None, config))
    }

    fn start(
        tables: Vec<Arc<I>>,
        engine: Arc<TxnEngine>,
        rotation: Option<Arc<ReadRotation>>,
        config: ServiceConfig,
    ) -> Self {
        assert!(!tables.is_empty(), "a service needs at least one table");
        assert!(config.lanes > 0, "a service needs at least one lane");
        assert!(config.max_group > 0, "max_group must be at least 1");
        let shared = Arc::new(Shared {
            tables,
            engine,
            rotation,
            stats: Arc::new(ServiceStats::new()),
            inflight: InFlight::new(config.lanes),
            stop: AtomicBool::new(false),
            max_group: config.max_group,
            admission: config.admission,
            idle_timeout: config.idle_timeout,
            lanes: config.lanes,
            affinity: config.affinity,
            pin_domains: config.pin_domains,
        });
        let mut senders = Vec::with_capacity(config.lanes);
        let mut workers = Vec::with_capacity(config.lanes);
        for lane in 0..config.lanes {
            let (tx, rx) = crossbeam_channel::bounded(config.queue_capacity);
            senders.push(tx);
            let shared2 = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("service-worker-{lane}"))
                    .spawn(move || worker_loop(&shared2, lane, &rx))
                    .expect("spawn service worker"),
            );
        }
        Service {
            shared,
            senders,
            workers,
        }
    }

    /// A new client handle; clone it (or call again) for more clients.
    pub fn handle(&self) -> ClientHandle<I> {
        ClientHandle {
            shared: Arc::clone(&self.shared),
            senders: self.senders.clone(),
        }
    }

    /// The service's live counters and histograms.
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.shared.stats
    }

    /// Number of worker lanes.
    pub fn lanes(&self) -> usize {
        self.shared.lanes
    }

    /// The read-replica rotation, when the service was built with
    /// [`Service::with_replicas`] — pause slots through it around
    /// replica maintenance.
    pub fn rotation(&self) -> Option<&Arc<ReadRotation>> {
        self.shared.rotation.as_ref()
    }

    /// Requests currently queued on `lane`: exact when read, stale as
    /// soon as a client or the worker moves.
    pub fn queue_depth(&self, lane: usize) -> usize {
        self.senders[lane].len()
    }

    /// Nothing admitted is still counted in flight: every key slot and
    /// every lane count is zero. Holds whenever every ticket has been
    /// waited, whatever its request came to.
    #[cfg(test)]
    fn inflight_is_zero(&self) -> bool {
        self.shared.inflight.is_zero()
    }

    /// Stops accepting work, drains every queue, and joins the workers.
    /// Requests already queued are served; requests submitted after the
    /// drain fail with [`ServiceError::ShuttingDown`]. Also invoked by
    /// `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<I: PmIndex + Send + Sync + 'static> Drop for Service<I> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A cloneable client of a [`Service`]: submits requests into the
/// service's lanes and waits on per-request reply slots.
///
/// Every synchronous method is submit + [`Ticket::wait`]; the
/// `submit_*` variants return the [`Ticket`] instead, letting one
/// client pipeline many requests into the same commit group.
pub struct ClientHandle<I: PmIndex + Send + Sync + 'static> {
    shared: Arc<Shared<I>>,
    senders: Vec<Sender<Request>>,
}

impl<I: PmIndex + Send + Sync + 'static> Clone for ClientHandle<I> {
    fn clone(&self) -> Self {
        ClientHandle {
            shared: Arc::clone(&self.shared),
            senders: self.senders.clone(),
        }
    }
}

impl<I: PmIndex + Send + Sync + 'static> fmt::Debug for ClientHandle<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientHandle")
            .field("lanes", &self.senders.len())
            .finish()
    }
}

impl<I: PmIndex + Send + Sync + 'static> ClientHandle<I> {
    /// Offers `req` to `lane`'s queue and hands back the ticket for `rx`.
    fn submit<T>(
        &self,
        lane: usize,
        req: Request,
        rx: oneshot::Receiver<Result<T, ServiceError>>,
    ) -> Result<Ticket<T>, ServiceError> {
        let shared = &*self.shared;
        let class = req.class();
        if shared.stop.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        // Counted in flight before a worker can see it, so the counts
        // never run behind the queue; taken back if admission refuses.
        shared.inflight.admit(lane, req.write_keys());
        let refused = match shared.admission {
            Admission::Shed => self.senders[lane].try_send(req).map_err(|e| match e {
                TrySendError::Full(req) => {
                    shared.stats.note_shed(class);
                    (req, ServiceError::Overloaded)
                }
                TrySendError::Disconnected(req) => (req, ServiceError::ShuttingDown),
            }),
            Admission::Park => self.senders[lane]
                .send(req)
                .map_err(|SendError(req)| (req, ServiceError::ShuttingDown)),
        };
        if let Err((req, e)) = refused {
            shared.inflight.retire(lane, 1, req.write_keys());
            return Err(e);
        }
        // Counted once a queue holds it: sheds and refusals are not.
        shared.stats.note_submitted(class);
        Ok(Ticket(Reply::Pending(rx)))
    }

    /// Pipelined [`ClientHandle::get`]: answered before it returns, on
    /// the calling thread, when the key's lane is backlogged and no write
    /// to the key is in flight (see the crate docs, "Reads"); queued
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] / [`ServiceError::ShuttingDown`] at
    /// admission.
    pub fn submit_get(&self, key: Key) -> Result<Ticket<Option<Value>>, ServiceError> {
        let shared = &*self.shared;
        let lane = shared.lane_of(key);
        let start = Instant::now();
        if shared.inflight.backlogged(lane) && !shared.stop.load(Ordering::SeqCst) {
            if shared.inflight.no_write_to(key) {
                // One look at the slot is enough. A write that lands while
                // the search runs is applied only after its group's
                // sequence store is persisted and fenced (the engine's
                // commit before its apply), and an apply that fails past
                // that point is replayed by `recover`: whatever the search
                // finds in `tables[0]` is already committed and durable.
                let out = shared.tables[0].get(key);
                shared
                    .stats
                    .note_inline_get(start.elapsed().as_nanos() as u64);
                return Ok(Ticket(Reply::Ready(Ok(out))));
            }
            shared.stats.note_conflict_get();
        }
        let (reply, rx) = oneshot::channel();
        self.submit(lane, Request::Get { key, reply, start }, rx)
    }

    /// Pipelined [`ClientHandle::insert`].
    ///
    /// # Errors
    ///
    /// As [`ClientHandle::submit_get`].
    pub fn submit_insert(
        &self,
        key: Key,
        value: Value,
    ) -> Result<Ticket<Option<Value>>, ServiceError> {
        let (tx, rx) = oneshot::channel();
        self.submit(
            self.shared.lane_of(key),
            Request::Insert {
                key,
                value,
                reply: tx,
                start: Instant::now(),
            },
            rx,
        )
    }

    /// Pipelined [`ClientHandle::update`].
    ///
    /// # Errors
    ///
    /// As [`ClientHandle::submit_get`].
    pub fn submit_update(
        &self,
        key: Key,
        value: Value,
    ) -> Result<Ticket<Option<Value>>, ServiceError> {
        let (tx, rx) = oneshot::channel();
        self.submit(
            self.shared.lane_of(key),
            Request::Update {
                key,
                value,
                reply: tx,
                start: Instant::now(),
            },
            rx,
        )
    }

    /// Pipelined [`ClientHandle::delete`].
    ///
    /// # Errors
    ///
    /// As [`ClientHandle::submit_get`].
    pub fn submit_delete(&self, key: Key) -> Result<Ticket<bool>, ServiceError> {
        let (tx, rx) = oneshot::channel();
        self.submit(
            self.shared.lane_of(key),
            Request::Delete {
                key,
                reply: tx,
                start: Instant::now(),
            },
            rx,
        )
    }

    /// Pipelined [`ClientHandle::batch`]. Routed by the batch's first
    /// key (any lane's worker can commit a cross-table batch).
    ///
    /// # Errors
    ///
    /// As [`ClientHandle::submit_get`].
    pub fn submit_batch(&self, batch: WriteBatch) -> Result<Ticket<()>, ServiceError> {
        let lane = batch
            .ops()
            .next()
            .map(|(_, op)| self.shared.lane_of(op.key()))
            .unwrap_or(0);
        let (tx, rx) = oneshot::channel();
        self.submit(
            lane,
            Request::Batch {
                batch,
                reply: tx,
                start: Instant::now(),
            },
            rx,
        )
    }

    /// Pipelined [`ClientHandle::scan`]. Routed by `lo`'s lane.
    ///
    /// # Errors
    ///
    /// As [`ClientHandle::submit_get`].
    pub fn submit_scan(&self, lo: Key, hi: Key) -> Result<Ticket<Vec<(Key, Value)>>, ServiceError> {
        let (tx, rx) = oneshot::channel();
        self.submit(
            self.shared.lane_of(lo),
            Request::Scan {
                lo,
                hi,
                reply: tx,
                start: Instant::now(),
            },
            rx,
        )
    }

    /// Point lookup on table 0: linearized at its group's commit point
    /// when a worker serves it, at the search itself when the calling
    /// thread does — the crate docs' "Reads" has the rule and the
    /// contract both keep.
    ///
    /// # Errors
    ///
    /// Admission errors, or the group's commit failure.
    pub fn get(&self, key: Key) -> Result<Option<Value>, ServiceError> {
        self.submit_get(key)?.wait()
    }

    /// Stale-tolerant point lookup on table 0 that **skips group
    /// linearization**: the read never enters a lane queue, never joins
    /// a commit group, and pays no admission control — it is answered
    /// immediately, by a read replica when the service has one serving
    /// ([`Service::with_replicas`]), else directly from the primary's
    /// table.
    ///
    /// # Consistency contract
    ///
    /// The answer is a **consistent prefix, not the latest state**:
    ///
    /// * Served by a replica, it reflects exactly the primary's
    ///   committed history up to that replica's watermark — a
    ///   group-atomic prefix (never a torn group), but missing every
    ///   commit after the watermark. Successive calls may rotate to a
    ///   different replica at a different watermark, so stale reads are
    ///   *not* monotonic across calls.
    /// * Served by the primary fallback (no rotation, or every replica
    ///   paused), it reads the table as-is: commits the workers have
    ///   not yet applied, and writes pipelined in the caller's own lane,
    ///   are invisible.
    ///
    /// Use [`ClientHandle::get`] when read-your-writes or linearizable
    /// freshness matters; use this when throughput does. Nothing bounds
    /// the lag a replica's answer trails by: a caller that needs a
    /// bound compares the replica's watermark with the engine's
    /// `last_committed` and pauses the slot through
    /// [`Service::rotation`].
    pub fn get_stale(&self, key: Key) -> Option<Value> {
        if let Some(rotation) = &self.shared.rotation {
            if let Some((_, replica)) = rotation.pick() {
                self.shared.stats.note_stale_read(true);
                return replica.read_stale(0, key);
            }
        }
        self.shared.stats.note_stale_read(false);
        self.shared.tables[0].get(key)
    }

    /// Upsert into table 0; returns the replaced value as observed when
    /// the group committed. Durable before the call returns.
    ///
    /// # Errors
    ///
    /// Admission errors, [`pmindex::IndexError::ReservedValue`] for
    /// reserved values, or the group's commit failure.
    pub fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, ServiceError> {
        self.submit_insert(key, value)?.wait()
    }

    /// In-place update of an existing key in table 0; `Ok(None)` (and
    /// no write) if the key is absent at group-commit time.
    ///
    /// # Errors
    ///
    /// As [`ClientHandle::insert`].
    pub fn update(&self, key: Key, value: Value) -> Result<Option<Value>, ServiceError> {
        self.submit_update(key, value)?.wait()
    }

    /// Point removal from table 0; `true` if the key was present at
    /// group-commit time.
    ///
    /// # Errors
    ///
    /// Admission errors, or the group's commit failure.
    pub fn delete(&self, key: Key) -> Result<bool, ServiceError> {
        self.submit_delete(key)?.wait()
    }

    /// Commits a multi-key, multi-table [`WriteBatch`], all-or-nothing.
    ///
    /// # Errors
    ///
    /// Admission errors, validation failures (reserved value, table id
    /// out of range), or the group's commit failure.
    pub fn batch(&self, batch: WriteBatch) -> Result<(), ServiceError> {
        self.submit_batch(batch)?.wait()
    }

    /// Range scan of table 0 over `lo <= key < hi`, ascending,
    /// linearized at its group's commit point.
    ///
    /// # Errors
    ///
    /// Admission errors, or the group's commit failure.
    pub fn scan(&self, lo: Key, hi: Key) -> Result<Vec<(Key, Value)>, ServiceError> {
        self.submit_scan(lo, hi)?.wait()
    }
}

fn worker_loop<I: PmIndex>(shared: &Shared<I>, lane: usize, rx: &Receiver<Request>) {
    // The current group's write keys, from its arrival to its retire: one
    // buffer for the worker's life, so a write allocates nothing for it.
    let mut write_keys = Vec::new();
    loop {
        // Spins (`crossbeam_channel::SPIN_BOUND`) while the clients keep
        // pace, sleeps at once while they do not.
        let first = match rx.recv_timeout(shared.idle_timeout) {
            Ok(req) => req,
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    // Drain-and-exit: serve everything already queued.
                    while let Ok(req) = rx.try_recv() {
                        process_group(shared, lane, vec![req], 0, &mut write_keys);
                    }
                    return;
                }
                continue;
            }
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => return,
        };
        let backlog = rx.len();
        let rest = backlog.min(shared.max_group - 1);
        let mut group = Vec::with_capacity(1 + rest);
        group.push(first);
        if rest > 0 {
            // The rest of the group under one acquisition of the queue.
            group.extend(rx.try_iter().take(rest));
        }
        process_group(shared, lane, group, backlog as u64, &mut write_keys);
        // Self-harvest this thread's persistence counters into the
        // service-level gauges (thread-local stats never leave the
        // worker otherwise).
        shared.stats.harvest_pmem(&pmem::stats::take());
    }
}

/// Overlay of the group's staged-but-uncommitted writes, keyed by
/// `(table, key)`: `Some(v)` staged put, `None` staged delete. Reads in
/// the group consult it first so a client that pipelines a write then a
/// read observes its own write (session order), even though nothing has
/// applied yet.
type Overlay = HashMap<(usize, Key), Option<Value>>;

fn peek<I: PmIndex>(tables: &[Arc<I>], overlay: &Overlay, table: usize, key: Key) -> Option<Value> {
    match overlay.get(&(table, key)) {
        Some(&staged) => staged,
        None => tables[table].get(key),
    }
}

/// Stages every write of `group` into ONE commit through the engine,
/// answers its reads against the group's overlay, and fans the replies
/// out once the commit and apply have returned.
fn process_group<I: PmIndex>(
    shared: &Shared<I>,
    lane: usize,
    group: Vec<Request>,
    backlog: u64,
    write_keys: &mut Vec<Key>,
) {
    write_keys.extend(group.iter().flat_map(Request::write_keys));
    let _pins: Vec<epoch::Guard> = shared.pin_domains.iter().map(|d| d.pin()).collect();
    let tables = &shared.tables;
    let mut overlay: Overlay = HashMap::new();
    let mut staged: Vec<WriteBatch> = Vec::new();
    // Ops staged so far, i.e. the next op's index in the commit's `prev`.
    let mut staged_ops = 0;
    // Upserts and deletes whose previous value only the apply knows, as
    // (index into `dones`, index into `prev`); filled in after the commit.
    let mut deferred: Vec<(usize, usize)> = Vec::new();
    let mut dones: Vec<Done> = Vec::with_capacity(group.len());
    for req in group {
        match req {
            Request::Get { key, reply, start } => dones.push(Done::Val {
                reply,
                out: Ok(peek(tables, &overlay, 0, key)),
                class: OpClass::Get,
                start,
            }),
            Request::Insert {
                key,
                value,
                reply,
                start,
            } => {
                let out = match check_value(value) {
                    Err(e) => Err(e.into()),
                    Ok(()) => {
                        // No read: the overlay or the apply knows the old value.
                        let known = overlay.insert((0, key), Some(value));
                        if known.is_none() {
                            deferred.push((dones.len(), staged_ops));
                        }
                        let mut b = WriteBatch::new();
                        b.put(0, key, value);
                        staged.push(b);
                        staged_ops += 1;
                        Ok(known.flatten())
                    }
                };
                dones.push(Done::Val {
                    reply,
                    out,
                    class: OpClass::Insert,
                    start,
                });
            }
            Request::Update {
                key,
                value,
                reply,
                start,
            } => {
                let out = match check_value(value) {
                    Err(e) => Err(e.into()),
                    Ok(()) => match peek(tables, &overlay, 0, key) {
                        // Update never inserts: absent key is a no-op.
                        None => Ok(None),
                        Some(prev) => {
                            let mut b = WriteBatch::new();
                            b.put(0, key, value);
                            staged.push(b);
                            staged_ops += 1;
                            overlay.insert((0, key), Some(value));
                            Ok(Some(prev))
                        }
                    },
                };
                dones.push(Done::Val {
                    reply,
                    out,
                    class: OpClass::Update,
                    start,
                });
            }
            Request::Delete { key, reply, start } => {
                // No read either: a key this group has not written is
                // deleted unconditionally — removing an absent key is a
                // no-op in the apply, in journal replay and on replicas —
                // and the apply reports whether it was there.
                let known = overlay.insert((0, key), None);
                if known.is_none() {
                    deferred.push((dones.len(), staged_ops));
                }
                let present = known.flatten().is_some();
                if known.is_none() || present {
                    let mut b = WriteBatch::new();
                    b.delete(0, key);
                    staged.push(b);
                    staged_ops += 1;
                }
                dones.push(Done::Flag {
                    reply,
                    out: Ok(present),
                    start,
                });
            }
            Request::Batch {
                batch,
                reply,
                start,
            } => {
                let mut valid = Ok(());
                for (t, op) in batch.ops() {
                    if t >= tables.len() {
                        valid = Err(ServiceError::Index(IndexError::Unsupported(format!(
                            "batch names table {t} but the service holds {}",
                            tables.len()
                        ))));
                        break;
                    }
                    if let BatchOp::Put(_, v) = op {
                        if let Err(e) = check_value(v) {
                            valid = Err(e.into());
                            break;
                        }
                    }
                }
                if valid.is_ok() && !batch.is_empty() {
                    for (t, op) in batch.ops() {
                        match op {
                            BatchOp::Put(k, v) => overlay.insert((t, k), Some(v)),
                            BatchOp::Delete(k) => overlay.insert((t, k), None),
                        };
                    }
                    staged_ops += batch.len();
                    staged.push(batch);
                }
                dones.push(Done::Unit {
                    reply,
                    out: valid,
                    start,
                });
            }
            Request::Scan {
                lo,
                hi,
                reply,
                start,
            } => {
                let mut rows = Vec::new();
                tables[0].range(lo, hi, &mut rows);
                if overlay.keys().any(|&(t, k)| t == 0 && k >= lo && k < hi) {
                    let mut merged: BTreeMap<Key, Value> = rows.drain(..).collect();
                    for (&(t, k), &staged_v) in &overlay {
                        if t == 0 && k >= lo && k < hi {
                            match staged_v {
                                Some(v) => merged.insert(k, v),
                                None => merged.remove(&k),
                            };
                        }
                    }
                    rows = merged.into_iter().collect();
                }
                dones.push(Done::Rows {
                    reply,
                    out: Ok(rows),
                    start,
                });
            }
        }
    }
    // ONE commit for every write the group staged.
    let mut commit_failure: Option<ServiceError> = None;
    if !staged.is_empty() {
        let refs: Vec<&I> = tables.iter().map(|t| t.as_ref()).collect();
        let mut prev = Vec::with_capacity(staged_ops);
        if let Err(e) = shared.engine.commit_grouped_prev(&staged, &refs, &mut prev) {
            commit_failure = Some(ServiceError::Index(e));
        } else {
            shared.stats.note_group(staged.len() as u64, backlog);
            for (done, op) in deferred {
                match &mut dones[done] {
                    Done::Val { out, .. } => *out = Ok(prev[op]),
                    Done::Flag { out, .. } => *out = Ok(prev[op].is_some()),
                    Done::Unit { .. } | Done::Rows { .. } => {}
                }
            }
        }
    } else {
        shared.stats.note_backlog(backlog);
    }
    fan_out(shared, lane, write_keys, dones, commit_failure);
}

/// The one way out of a group, whose commit + apply has returned or
/// failed: takes its requests and write keys out of the in-flight counts,
/// and only then sends every computed reply, recording per-class latency
/// and outcome — so once a write's ack is out, or its key's slot reads
/// quiet, the tables hold it. `group_failure` (a commit that failed)
/// overrides every member's result: the group is all-or-nothing, so no
/// reply may claim success — including reads, whose answers were computed
/// against the group's overlay.
///
/// Called with the group's staging state still alive: freeing it is work
/// for after the replies, while the clients are already resubmitting.
fn fan_out<I>(
    shared: &Shared<I>,
    lane: usize,
    write_keys: &mut Vec<Key>,
    dones: Vec<Done>,
    group_failure: Option<ServiceError>,
) {
    shared
        .inflight
        .retire(lane, dones.len(), write_keys.drain(..));
    let failure = &group_failure;
    for done in dones {
        match done {
            Done::Val {
                reply,
                out,
                class,
                start,
            } => finish(shared, reply, out, class, start, failure),
            Done::Flag { reply, out, start } => {
                finish(shared, reply, out, OpClass::Delete, start, failure)
            }
            Done::Unit { reply, out, start } => {
                finish(shared, reply, out, OpClass::Batch, start, failure)
            }
            Done::Rows { reply, out, start } => {
                finish(shared, reply, out, OpClass::Scan, start, failure)
            }
        }
    }
}

fn finish<I, T>(
    shared: &Shared<I>,
    reply: ReplySlot<T>,
    out: Result<T, ServiceError>,
    class: OpClass,
    start: Instant,
    group_failure: &Option<ServiceError>,
) {
    let out = match group_failure {
        Some(e) => Err(e.clone()),
        None => out,
    };
    shared
        .stats
        .note_done(class, out.is_ok(), start.elapsed().as_nanos() as u64);
    let _ = reply.send(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfair::FastFairTree;
    use shard::{Partitioning, ShardedStore};

    fn engine_service(
        lanes: usize,
    ) -> (
        Arc<ShardedStore<FastFairTree>>,
        Service<ShardedStore<FastFairTree>>,
    ) {
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(16 << 20)).unwrap());
        let store = Arc::new(
            ShardedStore::create(
                Arc::clone(&pool),
                vec![Arc::clone(&pool), Arc::clone(&pool)],
                Partitioning::Hash { shards: 2 },
            )
            .unwrap(),
        );
        let engine = Arc::new(TxnEngine::create(pool).unwrap());
        let config = ServiceConfig {
            lanes,
            affinity: Some(store.partitioning().clone()),
            pin_domains: vec![Arc::clone(store.reclaim_domain())],
            ..ServiceConfig::default()
        };
        let service = Service::with_engine(vec![Arc::clone(&store)], engine, config);
        (store, service)
    }

    #[test]
    fn basic_ops_round_trip() {
        let (store, service) = engine_service(2);
        let c = service.handle();
        assert_eq!(c.insert(1, 10).unwrap(), None);
        assert_eq!(c.insert(1, 11).unwrap(), Some(10));
        assert_eq!(c.get(1).unwrap(), Some(11));
        assert_eq!(c.update(2, 20).unwrap(), None); // absent: no insert
        assert_eq!(c.get(2).unwrap(), None);
        assert_eq!(c.update(1, 12).unwrap(), Some(11));
        assert!(c.delete(1).unwrap());
        assert!(!c.delete(1).unwrap());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn pipelined_requests_preserve_session_order() {
        let (_store, service) = engine_service(1);
        let c = service.handle();
        // Submit write-then-read without waiting: the group overlay must
        // make the read see the write even when both land in one group.
        let t1 = c.submit_insert(7, 70).unwrap();
        let t2 = c.submit_get(7).unwrap();
        let t3 = c.submit_delete(7).unwrap();
        let t4 = c.submit_get(7).unwrap();
        assert_eq!(t1.wait().unwrap(), None);
        assert_eq!(t2.wait().unwrap(), Some(70));
        assert!(t3.wait().unwrap());
        assert_eq!(t4.wait().unwrap(), None);
    }

    #[test]
    fn batches_and_scans_cross_shards() {
        let (_store, service) = engine_service(2);
        let c = service.handle();
        let mut b = WriteBatch::new();
        for k in 1..=20u64 {
            b.put(0, k, k * 10);
        }
        c.batch(b).unwrap();
        let rows = c.scan(5, 9).unwrap();
        assert_eq!(rows, vec![(5, 50), (6, 60), (7, 70), (8, 80)]);
        let stats = service.stats();
        assert_eq!(stats.op(OpClass::Batch).completed(), 1);
        assert!(stats.groups() >= 1);
    }

    #[test]
    fn reserved_values_rejected_per_request_not_per_group() {
        let (_store, service) = engine_service(1);
        let c = service.handle();
        assert!(matches!(
            c.insert(1, 0),
            Err(ServiceError::Index(IndexError::ReservedValue(0)))
        ));
        // The rejection did not poison the lane: later writes commit.
        assert_eq!(c.insert(1, 10).unwrap(), None);
        assert_eq!(service.stats().op(OpClass::Insert).errors(), 1);
    }

    #[test]
    fn shutdown_drains_then_rejects() {
        let (store, mut service) = engine_service(2);
        let c = service.handle();
        let tickets: Vec<_> = (1..=50u64)
            .map(|k| c.submit_insert(k, k + 1).unwrap())
            .collect();
        service.shutdown();
        let mut done = 0;
        for t in tickets {
            if t.wait().is_ok() {
                done += 1;
            }
        }
        assert_eq!(done, 50, "queued requests must drain on shutdown");
        assert_eq!(store.len(), 50);
        assert!(matches!(c.get(1), Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn from_catalog_without_an_engine_is_a_typed_error() {
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20)).unwrap());
        let cat = catalog::Catalog::create(vec![pool]).unwrap();
        // Refused before any name is looked up: "kv" is not even there.
        let refused =
            Service::<FastFairTree>::from_catalog(&cat, &["kv"], None, ServiceConfig::default());
        assert!(matches!(
            refused,
            Err(IndexError::Unsupported(why)) if why.contains("txn engine")
        ));
    }

    #[test]
    fn stale_reads_serve_from_replica_and_fall_back_when_paused() {
        use repl::{ChannelTransport, LogShipper, Replica};

        // An engine service with one subscribed read replica, which the
        // test catches up by hand.
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(16 << 20)).unwrap());
        let store: Arc<ShardedStore<FastFairTree>> = Arc::new(
            ShardedStore::create(
                Arc::clone(&pool),
                vec![Arc::clone(&pool), Arc::clone(&pool)],
                Partitioning::Hash { shards: 2 },
            )
            .unwrap(),
        );
        let engine = Arc::new(TxnEngine::create(pool).unwrap());
        let shipper = LogShipper::new(1024);
        engine.add_tap(Arc::clone(&shipper) as _);
        let transport = ChannelTransport::new();
        let sub = shipper.subscribe(Arc::clone(&transport) as _);
        let replica: Arc<Replica<FastFairTree>> = Arc::new(
            Replica::create(
                &mut |_slot: usize| {
                    Ok(Arc::new(pmem::Pool::new(
                        pmem::PoolConfig::default().size(4 << 20),
                    )?))
                },
                1,
                &["kv"],
            )
            .unwrap(),
        );
        let service = Service::with_replicas(
            vec![store],
            Arc::clone(&engine),
            vec![Arc::clone(&replica) as Arc<dyn ReadReplica>],
            ServiceConfig {
                lanes: 1,
                ..ServiceConfig::default()
            },
        );
        let c = service.handle();
        assert_eq!(c.insert(7, 70).unwrap(), None);
        replica.catch_up(transport.as_ref(), &shipper, sub).unwrap();
        assert_eq!(replica.watermark(), engine.last_committed());

        assert_eq!(c.get_stale(7), Some(70));
        assert_eq!(service.stats().stale_reads(), 1);
        assert_eq!(service.stats().stale_fallbacks(), 0);

        // Every replica paused: the stale read falls back to the
        // primary's tables (still no lane, no linearization).
        let rotation = Arc::clone(service.rotation().unwrap());
        rotation.pause(0);
        assert_eq!(c.get_stale(7), Some(70));
        assert_eq!(service.stats().stale_fallbacks(), 1);
        rotation.resume(0);
        assert!(!rotation.is_paused(0));
    }
}

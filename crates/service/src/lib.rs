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
//!   shrink to 1 and latency stays flat. Booting a service starts no
//!   thread: a lane's worker starts on the lane's first queued request,
//!   so a restart answers reads that skip the queue
//!   ([`ClientHandle::get_stale`]) as soon as its tables are open and its
//!   journal replayed.
//! * Writes commit through **group commit**: every drained client
//!   write is staged into one [`txn::TxnEngine::commit_grouped_prev`] call —
//!   one staging persist, ONE sequence-number store + fence, one
//!   apply per table and one retire fence for the whole group —
//!   the amortization lever Marathe et al. (*Persistent Memory
//!   Transactions*) show dominates pmem transaction cost. An upsert's
//!   reply (the replaced value) and a delete's (was it there) come from
//!   that apply, not a pre-read; only `update` still reads first.
//!   Completions fan back through per-request reply slots
//!   ([`pmem::handoff::slot`]).
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
//! pipelined writes and committed ones the worker has not applied yet.
//!
//! ```
//! use std::sync::Arc;
//! use fastfair::FastFairTree;
//! use pmindex::PersistentIndex;
//! use service::{Service, ServiceConfig};
//! use shard::{Partitioning, ShardedStore};
//!
//! let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(4 << 20))?);
//! let trees = vec![
//!     FastFairTree::create_in(Arc::clone(&pool))?,
//!     FastFairTree::create_in(Arc::clone(&pool))?,
//! ];
//! let store = Arc::new(ShardedStore::from_indexes(trees, Partitioning::Hash { shards: 2 }));
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
#[cfg(test)]
mod lifecycle_tests;
mod stats;

pub use stats::{LatencyHistogram, OpClass, OpStats, ServiceStats};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
#[cfg(test)]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inflight::InFlight;
use pmem::handoff::queue::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use pmem::handoff::{slot, SendError};
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
    /// The lane's worker thread could not be started (the operating
    /// system refused the spawn, for the reason given): the request was
    /// not executed, and the lane's next request tries again.
    WorkerUnavailable(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "service overloaded: request shed at admission"),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::Index(e) => write!(f, "index error: {e}"),
            ServiceError::WorkerUnavailable(why) => {
                write!(f, "service worker did not start: {why}")
            }
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
    /// Request queues, each with its own worker thread. Single-key
    /// traffic for one key always lands on the same lane, so per-key
    /// operations serialize per lane without any cross-lane locking. A
    /// lane's worker starts on the first request queued to it — boot
    /// starts no thread, and a lane that never queues a request never
    /// gets one.
    pub lanes: usize,
    /// Queued requests per lane before admission control engages.
    pub queue_capacity: usize,
    /// Most requests a worker folds into one commit group.
    pub max_group: usize,
    /// Full-queue policy.
    pub admission: Admission,
    /// How long an idle worker waits for a request before it looks at
    /// the stop flag again. [`Service::shutdown`] wakes a waiting worker
    /// itself, so this bounds neither shutdown nor any request.
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

type ReplySlot<T> = slot::Sender<Result<T, ServiceError>>;

/// A pipelined submission's completion: hold several, then
/// [`Ticket::wait`] them — this is how a single client keeps a worker's
/// group full (see the `perf` package's `svc_*` workloads).
pub struct Ticket<T>(Reply<T>);

/// Where a ticket's answer is: still with a worker, or — a `get` the
/// submitting thread ran itself — already here, with no reply slot
/// allocated for it.
enum Reply<T> {
    Pending(slot::Receiver<Result<T, ServiceError>>),
    Ready(Result<T, ServiceError>),
}

impl<T> Ticket<T> {
    /// Waits until the request completes: a bounded spin on the reply
    /// slot ([`pmem::handoff::SPIN_BOUND`] — the worker is usually mid-group,
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

/// What a lane's queue carries: a request, or — `None` — the wake-up
/// [`Service::shutdown`] sends a worker that may be asleep.
type Msg = Option<Request>;

/// One lane's worker, which the lane's first queued request starts.
struct LaneWorker {
    state: parking_lot::Mutex<WorkerState>,
    /// Set once the worker runs: all a submit reads after that.
    started: AtomicBool,
}

enum WorkerState {
    /// No thread yet: the queue's consumer end waits here.
    Unstarted(Receiver<Msg>),
    Started(JoinHandle<()>),
    /// Shut down (and joined, if it had started).
    Closed,
}

struct Shared<I> {
    tables: Vec<Arc<I>>,
    engine: Arc<TxnEngine>,
    stats: Arc<ServiceStats>,
    inflight: InFlight,
    stop: AtomicBool,
    max_group: usize,
    admission: Admission,
    idle_timeout: Duration,
    workers: Box<[LaneWorker]>,
    affinity: Option<shard::Partitioning>,
    pin_domains: Vec<Arc<epoch::EpochDomain>>,
    /// Worker threads between their start and their return.
    #[cfg(test)]
    running: AtomicUsize,
    /// Spawns still to refuse, as if the operating system had.
    #[cfg(test)]
    refuse_spawns: AtomicUsize,
}

impl<I> Shared<I> {
    fn lanes(&self) -> usize {
        self.workers.len()
    }

    fn lane_of(&self, key: Key) -> usize {
        match &self.affinity {
            Some(p) => p.shard_of(key) % self.lanes(),
            // Fibonacci hashing: spread adjacent keys across lanes.
            None => (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.lanes(),
        }
    }
}

impl<I: PmIndex + Send + Sync + 'static> Shared<I> {
    /// Makes sure `lane` has a worker before a request is offered to its
    /// queue: after the first start, one flag read.
    fn start_worker(self: &Arc<Self>, lane: usize) -> Result<(), ServiceError> {
        let worker = &self.workers[lane];
        if worker.started.load(Ordering::Acquire) {
            return Ok(());
        }
        // Shutdown closes the lane under this lock, so a submit racing it
        // either starts a worker shutdown then finds and joins, or finds
        // the lane closed: never a thread nobody joins. And once the stop
        // flag is up, nothing new starts.
        let mut state = worker.state.lock();
        if self.stop.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        match std::mem::replace(&mut *state, WorkerState::Closed) {
            WorkerState::Unstarted(rx) => match self.spawn_worker(lane, rx) {
                Ok(handle) => {
                    *state = WorkerState::Started(handle);
                    worker.started.store(true, Ordering::Release);
                    Ok(())
                }
                Err((rx, e)) => {
                    *state = WorkerState::Unstarted(rx);
                    Err(ServiceError::WorkerUnavailable(e.to_string()))
                }
            },
            started @ WorkerState::Started(_) => {
                *state = started;
                Ok(())
            }
            WorkerState::Closed => Err(ServiceError::ShuttingDown),
        }
    }

    /// Spawns `lane`'s worker, then hands it the queue: a spawn that
    /// fails has taken nothing, and gives `rx` back.
    fn spawn_worker(
        self: &Arc<Self>,
        lane: usize,
        rx: Receiver<Msg>,
    ) -> Result<JoinHandle<()>, (Receiver<Msg>, std::io::Error)> {
        #[cfg(test)]
        if self
            .refuse_spawns
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err((rx, std::io::Error::other("spawn refused by the test")));
        }
        let (give, take) = slot::channel::<Receiver<Msg>>();
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("service-worker-{lane}"))
            .spawn(move || {
                #[cfg(test)]
                shared.running.fetch_add(1, Ordering::SeqCst);
                if let Some(rx) = take.recv() {
                    worker_loop(&shared, lane, &rx);
                }
                #[cfg(test)]
                shared.running.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => {
                // The thread is alive and waits for exactly this.
                let _ = give.send(rx);
                Ok(handle)
            }
            Err(e) => Err((rx, e)),
        }
    }
}

/// The request-serving frontend over a set of [`PmIndex`] tables.
///
/// Every write group-commits through a [`TxnEngine`]: client batches are
/// atomic and a crash is recovered from the journal. Construct with
/// [`Service::with_engine`] or, on a warm restart, with
/// [`Service::from_catalog`]. Clone handles off it with
/// [`Service::handle`]; drop (or [`Service::shutdown`]) to stop the
/// workers after they drain their queues. Construction starts no thread:
/// each lane's worker starts on the first request queued to that lane.
///
/// See the crate docs for a full walkthrough.
pub struct Service<I: PmIndex + Send + Sync + 'static> {
    shared: Arc<Shared<I>>,
    senders: Vec<Sender<Msg>>,
}

impl<I: PmIndex + Send + Sync + 'static> fmt::Debug for Service<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("lanes", &self.shared.lanes())
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
        Service::start(tables, engine, config)
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
    /// store is opened. Otherwise propagates
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
        Ok(Service::start(tables, Arc::new(engine), config))
    }

    fn start(tables: Vec<Arc<I>>, engine: Arc<TxnEngine>, config: ServiceConfig) -> Self {
        assert!(!tables.is_empty(), "a service needs at least one table");
        assert!(config.lanes > 0, "a service needs at least one lane");
        assert!(config.max_group > 0, "max_group must be at least 1");
        let (senders, workers): (_, Vec<_>) = (0..config.lanes)
            .map(|_| {
                let (tx, rx) = queue::bounded(config.queue_capacity);
                let worker = LaneWorker {
                    state: parking_lot::Mutex::new(WorkerState::Unstarted(rx)),
                    started: AtomicBool::new(false),
                };
                (tx, worker)
            })
            .unzip();
        let shared = Arc::new(Shared {
            tables,
            engine,
            stats: Arc::new(ServiceStats::new()),
            inflight: InFlight::new(config.lanes),
            stop: AtomicBool::new(false),
            max_group: config.max_group,
            admission: config.admission,
            idle_timeout: config.idle_timeout,
            workers: workers.into(),
            affinity: config.affinity,
            pin_domains: config.pin_domains,
            #[cfg(test)]
            running: AtomicUsize::new(0),
            #[cfg(test)]
            refuse_spawns: AtomicUsize::new(0),
        });
        Service { shared, senders }
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
        self.shared.lanes()
    }

    /// Requests currently queued on `lane`: exact when read, stale as
    /// soon as a client or the worker moves.
    pub fn queue_depth(&self, lane: usize) -> usize {
        self.senders[lane].depth()
    }

    /// Nothing admitted is still counted in flight: every key slot and
    /// every lane count is zero. Holds whenever every ticket has been
    /// waited, whatever its request came to.
    #[cfg(test)]
    fn inflight_is_zero(&self) -> bool {
        self.shared.inflight.is_zero()
    }

    /// Lanes whose worker has started.
    #[cfg(test)]
    fn started_workers(&self) -> usize {
        let started = |w: &&LaneWorker| w.started.load(Ordering::Acquire);
        self.shared.workers.iter().filter(started).count()
    }

    /// Stops accepting work, drains every queue, and joins the workers
    /// that started — woken at once, not after an idle wait. Requests
    /// already queued are served; requests submitted after the drain fail
    /// with [`ServiceError::ShuttingDown`], and a lane whose worker never
    /// started is closed without one. Also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let mut started = Vec::new();
        for (worker, tx) in self.shared.workers.iter().zip(&self.senders) {
            // An unstarted lane's queue closes here, and is empty: a
            // request is offered only once its lane's worker runs.
            if let WorkerState::Started(handle) =
                std::mem::replace(&mut *worker.state.lock(), WorkerState::Closed)
            {
                // A worker asleep on its queue wakes to this. On a full
                // queue the worker has work, and looks at the stop flag
                // after it.
                let _ = tx.try_send(None);
                started.push(handle);
            }
        }
        for handle in started {
            let _ = handle.join();
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
    senders: Vec<Sender<Msg>>,
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
    /// Offers `req` to `lane`'s queue — starting the lane's worker first,
    /// if this is the lane's first request — and hands back the ticket
    /// for `rx`.
    fn submit<T>(
        &self,
        lane: usize,
        req: Request,
        rx: slot::Receiver<Result<T, ServiceError>>,
    ) -> Result<Ticket<T>, ServiceError> {
        let shared = &*self.shared;
        let class = req.class();
        if shared.stop.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        self.shared.start_worker(lane)?;
        // Counted in flight before a worker can see it, so the counts
        // never run behind the queue; taken back if admission refuses.
        shared.inflight.admit(lane, req.write_keys());
        let refused = match shared.admission {
            Admission::Shed => self.senders[lane].try_send(Some(req)).map_err(|e| match e {
                TrySendError::Full(req) => {
                    shared.stats.note_shed(class);
                    (req, ServiceError::Overloaded)
                }
                TrySendError::Disconnected(req) => (req, ServiceError::ShuttingDown),
            }),
            Admission::Park => self.senders[lane]
                .send(Some(req))
                .map_err(|SendError(req)| (req, ServiceError::ShuttingDown)),
        };
        if let Err((req, e)) = refused {
            let write_keys = req.iter().flat_map(Request::write_keys);
            shared.inflight.retire(lane, 1, write_keys);
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
        let (reply, rx) = slot::channel();
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
        let (tx, rx) = slot::channel();
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
        let (tx, rx) = slot::channel();
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
        let (tx, rx) = slot::channel();
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
        let (tx, rx) = slot::channel();
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
        let (tx, rx) = slot::channel();
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
    /// a commit group, pays no admission control and checks no in-flight
    /// write — it reads the table as-is, on the calling thread.
    ///
    /// # Consistency contract
    ///
    /// Every value it returns is committed (a group applies only after
    /// its commit store), but it is **not the latest state**: commits
    /// the workers have not yet applied, and writes pipelined in the
    /// caller's own lane, are invisible, and a group being applied may
    /// show some of its writes and not others. Use
    /// [`ClientHandle::get`] when read-your-writes or linearizable
    /// freshness matters; use this when throughput does.
    pub fn get_stale(&self, key: Key) -> Option<Value> {
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

fn worker_loop<I: PmIndex>(shared: &Shared<I>, lane: usize, rx: &Receiver<Msg>) {
    // The current group's write keys, from its arrival to its retire: one
    // buffer for the worker's life, so a write allocates nothing for it.
    let mut write_keys = Vec::new();
    loop {
        let first = if shared.stop.load(Ordering::SeqCst) {
            // Shutting down: serve everything already queued, then leave.
            match rx.try_recv() {
                Some(msg) => msg,
                None => return,
            }
        } else {
            // Spins (`pmem::handoff::SPIN_BOUND`) while the clients
            // keep pace, sleeps at once while they do not.
            match rx.recv_timeout(shared.idle_timeout) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        // `None` is shutdown's wake-up: the stop flag is already set.
        let Some(first) = first else { continue };
        let backlog = rx.depth();
        let rest = backlog.min(shared.max_group - 1);
        let mut group = Vec::with_capacity(1 + rest);
        group.push(first);
        if rest > 0 {
            // The rest of the group under one acquisition of the queue; a
            // wake-up taken here is answered by the stop check above.
            group.extend(rx.drain(rest).flatten());
        }
        process_group(shared, lane, group, backlog as u64, &mut write_keys);
        // Self-harvest this thread's `pmem::stats` into the service's
        // summed record (thread-local stats never leave the worker
        // otherwise) — after every group, those served once
        // shutdown began included, so no way out leaves any behind.
        shared.stats.harvest_pmem(pmem::stats::take());
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
                // no-op in the apply and in journal replay —
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
    use pmindex::PersistentIndex;
    use shard::{Partitioning, ShardedStore};

    fn engine_service(
        lanes: usize,
    ) -> (
        Arc<ShardedStore<FastFairTree>>,
        Service<ShardedStore<FastFairTree>>,
    ) {
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(16 << 20)).unwrap());
        let trees = (0..2)
            .map(|_| FastFairTree::create_in(Arc::clone(&pool)).unwrap())
            .collect();
        let store = Arc::new(ShardedStore::from_indexes(
            trees,
            Partitioning::Hash { shards: 2 },
        ));
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
}

//! The inline `get` (crate docs, "Reads") with its interleavings forced,
//! not hoped for: a hold on the store's batch applies
//! (`pmindex::HeldApply`) parks the worker between a commit's sequence
//! store and its apply — a write provably *in flight*.
//! Here, not under `tests/`, because the proofs need `inflight_is_zero()`
//! and a pair of keys that share a slot. The statistical half is
//! `tests/inline_reads.rs`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use catalog::{Catalog, StoreKind};
use fastfair::FastFairTree;
use pmem::crash::Eviction;
use pmem::{Pool, PoolConfig};
use pmindex::{HeldApply, IndexError, Key, PersistentIndex, PmIndex, Value};
use shard::{Partitioning, ShardedStore};
use txn::{TxnEngine, WriteBatch};

use super::{
    Admission, ClientHandle, OpClass, Service, ServiceConfig, ServiceError, ServiceStats, Ticket,
};

type Store = HeldApply<ShardedStore<FastFairTree>>;

const POOL: usize = 16 << 20;

/// Two fresh trees in `pool`, the shards of every store here.
fn trees_in(pool: &Arc<Pool>) -> Vec<FastFairTree> {
    (0..2)
        .map(|_| FastFairTree::create_in(Arc::clone(pool)).unwrap())
        .collect()
}

fn store_in(pool: &Arc<Pool>) -> Arc<Store> {
    Arc::new(HeldApply::new(ShardedStore::from_indexes(
        trees_in(pool),
        Partitioning::Hash { shards: 2 },
    )))
}

/// A one-lane engine service over a fresh store.
fn rig(config: ServiceConfig) -> (Arc<Store>, Arc<TxnEngine>, Service<Store>) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(POOL)).unwrap());
    let store = store_in(&pool);
    let engine = Arc::new(TxnEngine::create(pool).unwrap());
    let config = ServiceConfig { lanes: 1, ..config };
    let service = Service::with_engine(vec![Arc::clone(&store)], Arc::clone(&engine), config);
    (store, engine, service)
}

fn spin_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

/// Submits `insert(key, value)` and returns once the worker is inside its
/// commit, stopped at the store's held apply: the write is staged,
/// sequenced and not applied until the hold drops.
fn park_worker_on<I: PmIndex + 'static>(
    engine: &TxnEngine,
    c: &ClientHandle<I>,
    key: Key,
    value: Value,
) -> Ticket<Option<Value>> {
    let before = engine.last_committed();
    let t = c.submit_insert(key, value).unwrap();
    spin_until("worker inside its commit", || {
        engine.last_committed() == before + 1
    });
    t
}

/// Queues `get`s of `filler` until lane 0 counts as backlogged.
fn backlog<I: PmIndex + 'static>(
    service: &Service<I>,
    c: &ClientHandle<I>,
    filler: Key,
) -> Vec<Ticket<Option<Value>>> {
    let mut queued = Vec::new();
    while !service.shared.inflight.backlogged(0) {
        queued.push(c.submit_get(filler).unwrap());
    }
    queued
}

fn gets(stats: &ServiceStats) -> (u64, u64, u64) {
    (
        stats.inline_gets(),
        stats.queued_gets(),
        stats.conflict_gets(),
    )
}

#[test]
fn own_writes_a_pipelined_read_queues_behind_its_write() {
    let (store, engine, service) = rig(ServiceConfig::default());
    let c = service.handle();
    store.insert(7, 70).unwrap();
    store.insert(9, 90).unwrap();

    let hold = store.hold();
    let write = park_worker_on(&engine, &c, 7, 71);
    let fill = backlog(&service, &c, 9);
    // The lane is backlogged and key 9 is quiet: answered here and now,
    // with the worker still stopped inside its commit.
    assert_eq!(c.submit_get(9).unwrap().wait().unwrap(), Some(90));
    assert_eq!(gets(service.stats()), (1, 0, 0));
    // Key 7's write is in flight: the tree still says 70, and a read by
    // the client that wrote 71 must not see that.
    assert_eq!(store.get(7), Some(70));
    let read = c.submit_get(7).unwrap();
    assert_eq!(gets(service.stats()), (1, 0, 1));
    drop(hold);

    assert_eq!(write.wait().unwrap(), Some(70));
    assert_eq!(read.wait().unwrap(), Some(71));
    let reads = fill.len() as u64 + 2;
    for t in fill {
        assert_eq!(t.wait().unwrap(), Some(90));
    }
    // One inline, the rest queued, and every one of them in `Get`'s books.
    let stats = service.stats();
    assert_eq!(gets(stats), (1, reads - 1, 1));
    assert_eq!(stats.op(OpClass::Get).submitted(), reads);
    assert_eq!(stats.op(OpClass::Get).completed(), reads);
    assert_eq!(stats.op(OpClass::Get).latency().count(), reads);
    assert!(service.inflight_is_zero());
}

#[test]
fn collisions_only_queue_a_slot_mates_read_waits_and_is_right() {
    let (store, engine, service) = rig(ServiceConfig::default());
    let c = service.handle();
    let mate = service.shared.inflight.slot_mate(7);
    for (k, v) in [(7, 70), (mate, 80), (9, 90)] {
        store.insert(k, v).unwrap();
    }

    let hold = store.hold();
    let write = park_worker_on(&engine, &c, 7, 71);
    let fill = backlog(&service, &c, 9);
    // Nothing writes `mate`, but it shares 7's slot: its read cannot tell,
    // so it queues — the safe direction — and still answers correctly.
    let read = c.submit_get(mate).unwrap();
    assert_eq!(gets(service.stats()), (0, 0, 1));
    drop(hold);

    assert_eq!(read.wait().unwrap(), Some(80));
    assert_eq!(write.wait().unwrap(), Some(70));
    drop(fill);
    // Quiet again, and idle: reads queue for the plain reason.
    assert_eq!(c.get(mate).unwrap(), Some(80));
    assert_eq!(service.stats().conflict_gets(), 1);
}

#[test]
fn refused_requests_leave_nothing_in_flight() {
    // Shed: park the worker, fill the queue, and the next write bounces.
    let config = ServiceConfig {
        admission: Admission::Shed,
        queue_capacity: 4,
        ..ServiceConfig::default()
    };
    let (store, engine, mut service) = rig(config);
    let c = service.handle();
    store.insert(9, 90).unwrap();
    let hold = store.hold();
    let parked = park_worker_on(&engine, &c, 1, 10);
    let queued: Vec<_> = (2..6).map(|k| c.submit_insert(k, k).unwrap()).collect();
    assert!(matches!(c.submit_delete(2), Err(ServiceError::Overloaded)));
    let mut batch = WriteBatch::new();
    batch.put(0, 2, 20);
    batch.delete(0, 3);
    assert!(matches!(
        c.submit_batch(batch),
        Err(ServiceError::Overloaded)
    ));
    assert!(matches!(c.submit_scan(0, 9), Err(ServiceError::Overloaded)));
    assert_eq!(service.stats().shed(), 3);
    // A read of a quiet key does not need the full queue: served, not shed.
    assert_eq!(c.get(9).unwrap(), Some(90));
    assert_eq!(service.stats().inline_gets(), 1);
    // One of a key with a write queued does, and is shed like the rest.
    assert!(matches!(c.get(2), Err(ServiceError::Overloaded)));
    assert_eq!(service.stats().conflict_gets(), 1);
    drop(hold);
    parked.wait().unwrap();
    for t in queued {
        t.wait().unwrap();
    }
    assert!(service.inflight_is_zero(), "a shed request stayed counted");

    // Shutting down: refused before any queue, counted nowhere.
    service.shutdown();
    assert!(matches!(
        c.submit_insert(1, 11),
        Err(ServiceError::ShuttingDown)
    ));
    assert!(matches!(c.get(9), Err(ServiceError::ShuttingDown)));
    assert!(
        service.inflight_is_zero(),
        "a refused request stayed counted"
    );
}

#[test]
fn writes_that_change_nothing_leave_nothing_in_flight() {
    let (store, engine, service) = rig(ServiceConfig::default());
    let c = service.handle();
    store.insert(5, 50).unwrap();

    // All in ONE group, behind a parked commit: a reserved value, an
    // update of an absent key, a delete the overlay already deleted, an
    // empty batch, a batch naming a table that is not there.
    let hold = store.hold();
    let parked = park_worker_on(&engine, &c, 1, 10);
    let reserved = c.submit_insert(2, 0).unwrap();
    let absent = c.submit_update(3, 30).unwrap();
    let gone = c.submit_delete(5).unwrap();
    let gone_again = c.submit_delete(5).unwrap();
    let empty = c.submit_batch(WriteBatch::new()).unwrap();
    let mut stray = WriteBatch::new();
    stray.put(4, 6, 60);
    let stray = c.submit_batch(stray).unwrap();
    drop(hold);

    assert_eq!(parked.wait().unwrap(), None);
    assert!(matches!(
        reserved.wait(),
        Err(ServiceError::Index(IndexError::ReservedValue(0)))
    ));
    assert_eq!(absent.wait().unwrap(), None);
    assert!(gone.wait().unwrap());
    assert!(!gone_again.wait().unwrap());
    empty.wait().unwrap();
    assert!(matches!(
        stray.wait(),
        Err(ServiceError::Index(IndexError::Unsupported(_)))
    ));
    assert_eq!(service.stats().groups(), 2, "the six rode one group");
    assert!(service.inflight_is_zero());
}

/// A journal that holds a committed, unapplied batch refuses every later
/// commit until someone runs `recover()`: each write group fails whole.
#[test]
fn a_failed_commit_leaves_nothing_in_flight() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap());
    // Registered in a catalog the pool roots, so a crash image reopens it.
    let trees = trees_in(&pool);
    let partitioning = Partitioning::Hash { shards: 2 };
    let kind = StoreKind::Sharded {
        shards: trees.iter().map(|t| (0, t.superblock())).collect(),
    };
    Catalog::create(vec![Arc::clone(&pool)])
        .and_then(|cat| cat.register("store", &kind))
        .unwrap();
    let store = Arc::new(HeldApply::new(ShardedStore::from_indexes(
        trees,
        partitioning,
    )));
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());
    let mut b = WriteBatch::new();
    b.put(0, 1, 10);
    engine.commit(b, &[&*store]).unwrap();
    // The latest power cut that leaves the commit sequenced and unretired.
    let (pool, engine) = (0..=log.len())
        .rev()
        .find_map(|cut| {
            let image = pool.crash_image(cut, Eviction::None);
            let pool = Arc::new(Pool::from_image(&image, PoolConfig::new().size(POOL)).unwrap());
            let engine = TxnEngine::open(Arc::clone(&pool)).ok()?;
            engine.pending().then_some((pool, engine))
        })
        .expect("some cut falls between the sequence store and the retire");
    let store: Arc<Store> = Arc::new(HeldApply::new(
        Catalog::open(vec![Arc::clone(&pool)])
            .and_then(|cat| cat.open_sharded("store"))
            .unwrap(),
    ));
    let config = ServiceConfig {
        lanes: 1,
        ..ServiceConfig::default()
    };
    let service = Service::with_engine(vec![store], Arc::new(engine), config);
    let c = service.handle();

    let tickets = [
        c.submit_insert(2, 20).unwrap(),
        c.submit_update(1, 11).unwrap(),
    ];
    let deleted = c.submit_delete(1).unwrap();
    let failed = |e: &ServiceError| e.to_string().contains("run recover() first");
    for t in tickets {
        assert!(matches!(t.wait(), Err(e) if failed(&e)));
    }
    assert!(matches!(deleted.wait(), Err(e) if failed(&e)));
    assert!(service.inflight_is_zero());
    // Reads were never the journal's business.
    assert_eq!(c.get(2).unwrap(), None);
}

/// Shutdown with a lane full of work: the worker serves the rest of its
/// queue after the stop flag is up, through the same `process_group`.
#[test]
fn a_shutdown_over_queued_work_leaves_nothing_in_flight() {
    let (store, engine, mut service) = rig(ServiceConfig::default());
    let c = service.handle();
    let shared = Arc::clone(&service.shared);
    let hold = store.hold();
    let parked = park_worker_on(&engine, &c, 1, 10);
    let tickets: Vec<_> = (2..=40u64)
        .map(|k| c.submit_insert(k, k * 10).unwrap())
        .collect();
    std::thread::scope(|s| {
        s.spawn(|| service.shutdown());
        spin_until("shutdown asked for", || shared.stop.load(Ordering::SeqCst));
        // Backlogged and quiet, so this would be served inline — but a
        // service that is stopping answers nothing new, on either route.
        assert!(shared.inflight.backlogged(0) && shared.inflight.no_write_to(1 << 40));
        assert!(matches!(c.get(1 << 40), Err(ServiceError::ShuttingDown)));
        drop(hold);
    });
    parked.wait().unwrap();
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(store.len(), 40);
    assert_eq!(service.stats().inline_gets(), 0);
    assert!(service.inflight_is_zero());
}

//! A lane's worker from its start to its join: boot starts no thread, the
//! first queued request starts its own lane's worker and no other, a
//! spawn the operating system refuses refuses one request, shutdown wakes
//! the workers that started and closes the lanes that did not. Here, not
//! under `tests/`, because the counts come from `Service::started_workers`
//! and the workers' own running count — tests share a process, so
//! `/proc` would count every test's threads.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use catalog::{Catalog, StoreKind};
use fastfair::FastFairTree;
use pmem::{Pool, PoolConfig};
use pmindex::{HeldApply, Key, PersistentIndex, PmIndex};
use txn::TxnEngine;

use super::{Service, ServiceConfig, ServiceError};

fn pool() -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(4 << 20)).unwrap())
}

/// An engine service over one fresh tree.
fn service(config: ServiceConfig) -> Service<FastFairTree> {
    let pool = pool();
    let tree = Arc::new(FastFairTree::create_in(Arc::clone(&pool)).unwrap());
    let engine = Arc::new(TxnEngine::create(pool).unwrap());
    Service::with_engine(vec![tree], engine, config)
}

fn lanes(lanes: usize) -> ServiceConfig {
    ServiceConfig {
        lanes,
        ..ServiceConfig::default()
    }
}

/// The first key, counting up from `from`, that routes to `lane`.
fn key_on<I: PmIndex + Send + Sync + 'static>(service: &Service<I>, lane: usize, from: Key) -> Key {
    (from..)
        .find(|&k| service.shared.lane_of(k) == lane)
        .unwrap()
}

fn running<I: PmIndex + Send + Sync + 'static>(service: &Service<I>) -> usize {
    service.shared.running.load(Ordering::SeqCst)
}

#[test]
fn a_restart_that_only_reads_stale_starts_no_worker() {
    let pool = pool();
    let cat = Catalog::create(vec![Arc::clone(&pool)]).unwrap();
    let tree = FastFairTree::create_in(Arc::clone(&pool)).unwrap();
    for k in 1..=100u64 {
        tree.insert(k, k * 10).unwrap();
    }
    let superblock = tree.superblock();
    cat.register(
        "kv",
        &StoreKind::Index {
            pool: 0,
            superblock,
        },
    )
    .unwrap();
    TxnEngine::create(Arc::clone(&pool)).unwrap();
    cat.register("txn", &StoreKind::Txn { pool: 0 }).unwrap();
    drop(tree);

    let service: Service<FastFairTree> =
        Service::from_catalog(&cat, &["kv"], Some("txn"), lanes(2)).unwrap();
    let c = service.handle();
    for k in 1..=100u64 {
        assert_eq!(c.get_stale(k), Some(k * 10));
    }
    assert_eq!((service.queue_depth(0), service.queue_depth(1)), (0, 0));
    assert_eq!(service.started_workers(), 0);
    assert_eq!(running(&service), 0);

    // The first queued request is the one that starts a worker.
    assert_eq!(c.get(7).unwrap(), Some(70));
    assert_eq!(service.started_workers(), 1);
}

#[test]
fn the_first_write_starts_its_own_lane_and_no_other() {
    let service = service(lanes(4));
    let c = service.handle();
    assert_eq!(service.started_workers(), 0);
    let key = key_on(&service, 2, 1);
    assert_eq!(c.insert(key, 1).unwrap(), None);
    assert_eq!(service.started_workers(), 1);
    assert!(service.shared.workers[2].started.load(Ordering::Acquire));
    // More on the same lane starts nothing more.
    for k in (key..).filter(|&k| service.shared.lane_of(k) == 2).take(20) {
        c.insert(k, 2).unwrap();
    }
    assert_eq!(service.started_workers(), 1);
    // A different lane's first request starts that lane.
    c.delete(key_on(&service, 0, 1)).unwrap();
    assert_eq!(service.started_workers(), 2);
    assert_eq!(running(&service), 2);
}

#[test]
fn submits_racing_shutdown_resolve_and_leave_no_worker_behind() {
    for round in 0..20u64 {
        let service = service(lanes(4));
        let keys: Vec<Key> = (0..4).map(|lane| key_on(&service, lane, 1)).collect();
        let handle = service.handle();
        let start = Arc::new(Barrier::new(5));
        let (done, finished) = mpsc::channel();
        for &key in &keys {
            let (c, start, done) = (handle.clone(), Arc::clone(&start), done.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut outcomes = Vec::new();
                for i in 0..8 {
                    // Some submits are refused at once; the rest resolve.
                    let outcome = c.submit_insert(key, key + i).and_then(|t| t.wait());
                    assert!(
                        matches!(outcome, Ok(_) | Err(ServiceError::ShuttingDown)),
                        "round {round}, key {key}: {outcome:?}"
                    );
                    outcomes.push(outcome.is_ok());
                }
                done.send(outcomes).unwrap();
            });
        }
        drop(done);
        start.wait();
        drop(service);
        for _ in 0..keys.len() {
            let outcomes = finished
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("round {round}: a ticket hangs"));
            // Refused once refused: the service never comes back.
            assert!(outcomes.windows(2).all(|w| w[0] || !w[1]), "round {round}");
        }
        assert_eq!(
            handle.shared.running.load(Ordering::SeqCst),
            0,
            "round {round}: a worker outlived the drop"
        );
        assert!(matches!(
            handle.insert(1, 1),
            Err(ServiceError::ShuttingDown)
        ));
    }
}

#[test]
fn a_refused_spawn_refuses_one_request_and_the_next_one_starts_the_lane() {
    let service = service(lanes(1));
    let c = service.handle();
    service.shared.refuse_spawns.store(1, Ordering::SeqCst);
    let refused = c.insert(1, 10);
    assert!(
        matches!(&refused, Err(ServiceError::WorkerUnavailable(why)) if why.contains("refused")),
        "{refused:?}"
    );
    assert_eq!(service.started_workers(), 0);
    assert!(service.inflight_is_zero());
    assert_eq!(service.stats().op(super::OpClass::Insert).submitted(), 0);

    assert_eq!(c.insert(1, 10).unwrap(), None);
    assert_eq!(c.get(1).unwrap(), Some(10));
    assert_eq!(service.started_workers(), 1);
}

#[test]
fn shutdown_wakes_a_sleeping_worker() {
    let service = service(ServiceConfig {
        lanes: 1,
        idle_timeout: Duration::from_secs(10),
        ..ServiceConfig::default()
    });
    let c = service.handle();
    c.insert(1, 10).unwrap();
    // 25 × the worker's 200 µs spin: it is asleep in its 10 s wait. (A
    // worker still spinning would see the wake-up sooner, not later.)
    std::thread::sleep(Duration::from_millis(5));
    let t = Instant::now();
    drop(service);
    let took = t.elapsed();
    assert!(took < Duration::from_millis(100), "drop took {took:?}");
    assert_eq!(c.shared.running.load(Ordering::SeqCst), 0);
}

/// The `pmem::stats` counters of a group served after shutdown began
/// reach `ServiceStats` like any other group's: compared, every counter,
/// with a twin service that ran the same two single-write groups before
/// its shutdown.
#[test]
fn groups_drained_at_shutdown_are_harvested() {
    let twin = {
        let mut service = service(lanes(1));
        let c = service.handle();
        c.insert(1, 10).unwrap();
        c.insert(2, 20).unwrap();
        service.shutdown();
        service.stats().pmem()
    };
    assert!(twin.flushes > 0 && twin.fences > 0);
    assert_eq!(twin.txn_commits, 2);

    let pool = pool();
    let tree = Arc::new(HeldApply::new(
        FastFairTree::create_in(Arc::clone(&pool)).unwrap(),
    ));
    let engine = Arc::new(TxnEngine::create(pool).unwrap());
    let mut service = Service::with_engine(vec![Arc::clone(&tree)], Arc::clone(&engine), lanes(1));
    let c = service.handle();
    let shared = Arc::clone(&service.shared);
    // Key 1's group waits at the held apply; key 2 queues behind it.
    let hold = tree.hold();
    let first = c.submit_insert(1, 10).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.last_committed() == 0 {
        assert!(Instant::now() < deadline, "worker never reached its commit");
        std::thread::yield_now();
    }
    let second = c.submit_insert(2, 20).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| service.shutdown());
        while !shared.stop.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        drop(hold);
    });
    assert_eq!(first.wait().unwrap(), None);
    assert_eq!(second.wait().unwrap(), None);
    assert_eq!(service.stats().groups(), 2);
    assert_eq!(service.stats().pmem(), twin);
}

//! The request and reply hand-offs from the outside: who gets woken,
//! what an oversubscribed lane does to session order and what admission
//! counts. (The primitives' own interleavings — spin, park, wake-up
//! counts — are tested in `pmem::handoff`'s `queue` and `slot` modules.)

use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fastfair::FastFairTree;
use pmem::{Pool, PoolConfig};
use pmindex::{HeldApply, PersistentIndex, PmIndex};
use service::{Admission, OpClass, Service, ServiceConfig, ServiceError, Ticket};
use shard::{Partitioning, ShardedStore};
use txn::TxnEngine;

type Store = HeldApply<ShardedStore<FastFairTree>>;

fn rig(config: ServiceConfig) -> (Arc<Store>, Arc<TxnEngine>, Service<Store>) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(32 << 20)).unwrap());
    let store: Arc<Store> = Arc::new(HeldApply::new(ShardedStore::from_indexes(
        (0..2)
            .map(|_| FastFairTree::create_in(Arc::clone(&pool)).unwrap())
            .collect(),
        Partitioning::Hash { shards: 2 },
    )));
    let engine = Arc::new(TxnEngine::create(pool).unwrap());
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

/// `submitted()` is "accepted into a queue": a shed request and one
/// refused by a stopped service never were.
#[test]
fn only_accepted_requests_count_as_submitted() {
    let (store, engine, mut service) = rig(ServiceConfig {
        lanes: 1,
        queue_capacity: 2,
        max_group: 1,
        admission: Admission::Shed,
        ..ServiceConfig::default()
    });
    let client = service.handle();
    // Hold the worker inside its first commit so the lane fills.
    let hold = store.hold();
    let wedged = client.submit_insert(1_000, 1).unwrap();
    spin_until("worker inside its commit", || engine.last_committed() == 1);

    let attempts = 8;
    let tickets: Vec<_> = (1..=attempts)
        .filter_map(|k| match client.submit_insert(k, k * 10) {
            Ok(t) => Some(t),
            Err(ServiceError::Overloaded) => None,
            Err(e) => panic!("unexpected admission error: {e}"),
        })
        .collect();
    let stats = Arc::clone(service.stats());
    let inserts = stats.op(OpClass::Insert);
    assert_eq!(tickets.len(), 2, "a full lane of 2 accepts 2");
    assert_eq!(inserts.shed(), attempts - 2);
    assert_eq!(inserts.submitted() + inserts.shed(), attempts + 1);

    drop(hold);
    wedged.wait().unwrap();
    for t in tickets {
        t.wait().unwrap();
    }
    service.shutdown();
    assert!(matches!(
        client.submit_insert(9, 9),
        Err(ServiceError::ShuttingDown)
    ));
    assert_eq!(inserts.submitted(), 3);
    assert_eq!(inserts.completed(), 3);
}

/// A ticket is waited on a thread that did not submit it: the reply has
/// to wake whoever holds the ticket. The worker is held long enough for
/// the waiter to give up spinning (200 µs) and park.
#[test]
fn a_ticket_can_be_waited_on_another_thread() {
    let (store, engine, service) = rig(ServiceConfig {
        lanes: 1,
        ..ServiceConfig::default()
    });
    let client = service.handle();
    let hold = store.hold();
    let ticket = client.submit_insert(5, 50).unwrap();
    spin_until("worker inside its commit", || engine.last_committed() == 1);
    let waiting = Arc::new(Barrier::new(2));
    let waiter = {
        let waiting = Arc::clone(&waiting);
        std::thread::spawn(move || {
            waiting.wait();
            ticket.wait()
        })
    };
    waiting.wait();
    std::thread::sleep(Duration::from_millis(2));
    drop(hold);
    assert_eq!(waiter.join().unwrap(), Ok(None));
    assert_eq!(client.get(5), Ok(Some(50)));
}

/// More spinners than cores: 8 clients keep 16 tickets each outstanding
/// on one lane (128 > the queue's 64, so submitters also wait for room).
/// Every client's requests must still take effect in the order it
/// submitted them.
#[test]
fn oversubscribed_lane_keeps_every_clients_session_order() {
    const CLIENTS: u64 = 8;
    const WINDOW: usize = 16;
    const ROUNDS: u64 = 400;
    let (store, _engine, service) = rig(ServiceConfig {
        lanes: 1,
        ..ServiceConfig::default()
    });
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = service.handle();
            std::thread::spawn(move || {
                // Two keys of its own per client; values count up, so each
                // reply names the request that must have preceded it.
                let key = |round: u64| 1 + c * 2 + round % 2;
                let mut window = VecDeque::with_capacity(WINDOW);
                type Reply = Ticket<Option<u64>>;
                let check = |(round, put, got): (u64, Reply, Reply)| {
                    let before = (round >= 2).then(|| round - 1);
                    assert_eq!(put.wait(), Ok(before), "client {c} round {round}");
                    assert_eq!(got.wait(), Ok(Some(round + 1)));
                };
                for round in 0..ROUNDS {
                    if window.len() == WINDOW / 2 {
                        check(window.pop_front().unwrap());
                    }
                    let put = client.submit_insert(key(round), round + 1).unwrap();
                    let got = client.submit_get(key(round)).unwrap();
                    window.push_back((round, put, got));
                }
                window.into_iter().for_each(check);
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(store.len() as u64, CLIENTS * 2);
    let stats = service.stats();
    assert_eq!(stats.completed(), CLIENTS * ROUNDS * 2);
    assert_eq!(stats.op(OpClass::Insert).submitted(), CLIENTS * ROUNDS);
}

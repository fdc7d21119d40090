//! Backpressure soak.
//!
//! * **Shedding**: a 2-capacity lane whose worker is wedged (a hold on
//!   the store's batch applies, `pmindex::HeldApply`) must reject overflow with
//!   `ServiceError::Overloaded` — and once the wedge lifts, every
//!   ticket the service *accepted* resolves: zero lost acks.
//! * **Parking**: the same wedge under `Admission::Park` blocks
//!   submitters instead; nothing is shed, everything completes.
//! * **Histograms**: after real traffic, every op class satisfies
//!   p50 ≤ p99 ≤ p999.

use std::sync::Arc;
use std::time::Duration;

use fastfair::FastFairTree;
use pmem::{Pool, PoolConfig};
use pmindex::{HeldApply, PmIndex};
use service::{Admission, OpClass, Service, ServiceConfig, ServiceError};
use shard::{Partitioning, ShardedStore};
use txn::TxnEngine;

type Store = HeldApply<ShardedStore<FastFairTree>>;

fn tiny_service(admission: Admission) -> (Arc<Store>, Service<Store>) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
    let store: Arc<Store> = Arc::new(HeldApply::new(
        ShardedStore::create(
            Arc::clone(&pool),
            vec![Arc::clone(&pool)],
            Partitioning::Hash { shards: 1 },
        )
        .unwrap(),
    ));
    let engine = Arc::new(TxnEngine::create(pool).unwrap());
    let service = Service::with_engine(
        vec![Arc::clone(&store)],
        engine,
        ServiceConfig {
            lanes: 1,
            queue_capacity: 2,
            max_group: 1,
            admission,
            idle_timeout: Duration::from_millis(2),
            ..ServiceConfig::default()
        },
    );
    (store, service)
}

#[test]
fn saturated_queue_sheds_then_drains_with_zero_lost_acks() {
    let (store, service) = tiny_service(Admission::Shed);
    let client = service.handle();

    // Wedge the lane: the store holds its applies, so the worker
    // stalls inside its first group commit; capacity-2 queue backs up.
    let hold = store.hold();
    std::thread::sleep(Duration::from_millis(20)); // let the worker wedge
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for k in 1..=8u64 {
        match client.submit_insert(k, k * 10) {
            Ok(t) => accepted.push((k, t)),
            Err(ServiceError::Overloaded) => shed += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    // One request may be in flight (wedged) plus two queued: the service
    // can accept at most 3 of the 8, and must have shed the rest.
    assert!(
        accepted.len() <= 3,
        "accepted {} > capacity+1",
        accepted.len()
    );
    assert!(shed >= 5, "only {shed} shed");
    assert_eq!(service.stats().shed(), shed);

    // Lift the wedge: every accepted ticket must resolve successfully.
    drop(hold);
    for (k, t) in accepted {
        assert_eq!(t.wait().unwrap(), None, "accepted insert {k} lost");
        assert_eq!(
            store.get(k),
            Some(k * 10),
            "accepted insert {k} not applied"
        );
    }
    assert_eq!(
        service.stats().op(OpClass::Insert).completed() + service.stats().shed(),
        8,
        "acks + sheds must account for every submission"
    );
}

#[test]
fn park_admission_blocks_instead_of_shedding() {
    let (store, service) = tiny_service(Admission::Park);
    let hold = store.hold();
    std::thread::sleep(Duration::from_millis(20));

    let submitters: Vec<_> = (1..=6u64)
        .map(|k| {
            let client = service.handle();
            std::thread::spawn(move || client.insert(k, k * 10).unwrap())
        })
        .collect();
    // Submitters beyond the queue capacity are parked inside send();
    // give them time to pile up, then release the wedge.
    std::thread::sleep(Duration::from_millis(50));
    drop(hold);
    for s in submitters {
        assert_eq!(s.join().unwrap(), None);
    }
    assert_eq!(service.stats().shed(), 0, "Park must never shed");
    assert_eq!(service.stats().op(OpClass::Insert).completed(), 6);
    assert_eq!(store.len(), 6);
}

#[test]
fn histograms_are_monotone_after_traffic() {
    let (_store, service) = tiny_service(Admission::Park);
    let client = service.handle();
    for k in 1..=300u64 {
        client.insert(k, k + 1).unwrap();
        client.get(k).unwrap();
        client.update(k, k + 2).unwrap();
        if k % 3 == 0 {
            client.delete(k).unwrap();
        }
        if k % 50 == 0 {
            client.scan(1, k).unwrap();
        }
    }
    let stats = service.stats();
    for class in OpClass::ALL {
        let hist = stats.op(class).latency();
        if hist.count() == 0 {
            continue;
        }
        let (p50, p99, p999) = (
            hist.percentile(0.50),
            hist.percentile(0.99),
            hist.percentile(0.999),
        );
        assert!(
            p50 <= p99 && p99 <= p999,
            "{}: p50 {p50} p99 {p99} p999 {p999} not monotone",
            class.name()
        );
        assert!(p999 > 0, "{}: recorded samples but zero p999", class.name());
    }
    assert!(stats.groups() > 0);
    assert!(stats.fences() > 0, "group commits must harvest fences");
}

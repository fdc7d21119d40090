//! Where an upsert's and a delete's reply come from: the engine-backed
//! worker does not read a key before writing it — an `insert`'s "replaced
//! value" (a `delete`'s "was it there") is either what the same group
//! already staged for the key, or what the group's apply found in the
//! tree. Both cases, with the group boundary
//! and the cross-lane interleaving forced rather than hoped for: a hold
//! on the store's batch applies (`pmindex::HeldApply`) stops a commit
//! between its sequence store and its apply, and `last_committed()` says
//! when a worker has got there.

use std::sync::Arc;

use fastfair::FastFairTree;
use pmem::{Pool, PoolConfig};
use pmindex::{HeldApply, PmIndex};
use service::{Service, ServiceConfig};
use shard::{Partitioning, ShardedStore};
use txn::{TxnEngine, WriteBatch};

type Store = HeldApply<ShardedStore<FastFairTree>>;

fn rig(lanes: usize) -> (Arc<Store>, Arc<TxnEngine>, Service<Store>) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
    let store: Arc<Store> = Arc::new(HeldApply::new(
        ShardedStore::create(
            Arc::clone(&pool),
            vec![Arc::clone(&pool); 2],
            Partitioning::Hash { shards: 2 },
        )
        .unwrap(),
    ));
    let engine = Arc::new(TxnEngine::create(pool).unwrap());
    let service = Service::with_engine(
        vec![Arc::clone(&store)],
        Arc::clone(&engine),
        ServiceConfig {
            lanes,
            affinity: Some(store.partitioning().clone()),
            ..ServiceConfig::default()
        },
    );
    (store, engine, service)
}

fn spin_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn one_group_answers_from_the_tree_then_from_itself() {
    let (store, engine, service) = rig(1);
    let c = service.handle();
    store.insert(7, 70).unwrap();

    // Park the worker inside a commit so the five requests below queue
    // up behind it and are drained as ONE group.
    let hold = store.hold();
    let parked = c.submit_insert(1_000, 1).unwrap();
    spin_until("worker inside its commit", || engine.last_committed() == 1);
    let t1 = c.submit_insert(7, 71).unwrap();
    let t2 = c.submit_insert(7, 72).unwrap();
    let t3 = c.submit_delete(7).unwrap();
    let t4 = c.submit_insert(7, 73).unwrap();
    let t5 = c.submit_get(7).unwrap();
    drop(hold);

    assert_eq!(parked.wait().unwrap(), None);
    assert_eq!(
        t1.wait().unwrap(),
        Some(70),
        "first touch: the tree's value"
    );
    assert_eq!(
        t2.wait().unwrap(),
        Some(71),
        "second: what the group staged"
    );
    assert!(t3.wait().unwrap());
    assert_eq!(
        t4.wait().unwrap(),
        None,
        "insert after the group's own delete"
    );
    assert_eq!(t5.wait().unwrap(), Some(73));
    assert_eq!(store.get(7), Some(73));
    let stats = service.stats();
    assert_eq!((stats.groups(), stats.largest_group()), (2, 4));
}

/// A delete reads nothing either: the first touch of a key in a group is
/// staged unconditionally and answered by the apply (present or absent),
/// later touches by what the group itself staged.
#[test]
fn a_delete_is_answered_by_the_apply_not_by_a_pre_read() {
    let (store, engine, service) = rig(1);
    let c = service.handle();
    store.insert(7, 70).unwrap();

    let hold = store.hold();
    let parked = c.submit_insert(1_000, 1).unwrap();
    spin_until("worker inside its commit", || engine.last_committed() == 1);
    let present = c.submit_delete(7).unwrap();
    let again = c.submit_delete(7).unwrap();
    let absent = c.submit_delete(8).unwrap();
    let read = c.submit_get(7).unwrap();
    let reinsert = c.submit_insert(8, 80).unwrap();
    let own = c.submit_delete(8).unwrap();
    drop(hold);

    assert_eq!(parked.wait().unwrap(), None);
    assert!(present.wait().unwrap(), "first touch: the apply found it");
    assert!(
        !again.wait().unwrap(),
        "second: the group already deleted it"
    );
    assert!(!absent.wait().unwrap(), "first touch of an absent key");
    assert_eq!(read.wait().unwrap(), None);
    assert_eq!(
        reinsert.wait().unwrap(),
        None,
        "insert after the group's delete"
    );
    assert!(own.wait().unwrap(), "delete of the group's own insert");
    assert_eq!((store.get(7), store.get(8)), (None, None));

    // One commit carried the group's four staged ops, and the trees were
    // reached by the applies only — the parked insert's and those four:
    // every leaf-level op consults its tree's leaf directory once, so a
    // pre-read `get` would have added a lookup.
    let stats = Arc::clone(service.stats());
    drop(service); // joins the worker, whose counters are harvested per group
    assert_eq!((stats.groups(), stats.largest_group()), (2, 4));
    assert_eq!(engine.last_committed(), 2);
    assert_eq!(stats.leaf_hint_lookups(), 5);
}

/// The replaced value is the one observed when the group *commits*: a
/// client batch from the other lane that reaches the journal first has
/// rewritten the key by then, and the reply must say so.
#[test]
fn reply_sees_a_cross_lane_batch_that_committed_first() {
    let (store, engine, service) = rig(2);
    let c = service.handle();
    let part = store.partitioning().clone();
    let k = (1..).find(|&k| part.shard_of(k) == 0).unwrap();
    let other = (1..).find(|&k| part.shard_of(k) == 1).unwrap();
    store.insert(k, 10).unwrap();

    let hold = store.hold();
    // Lane 1 (routed by the batch's first key) commits a rewrite of `k`
    // and stops before applying it, holding the journal.
    let mut batch = WriteBatch::new();
    batch.put(0, other, 5);
    batch.put(0, k, 20);
    let rewrite = c.submit_batch(batch).unwrap();
    spin_until("lane 1 inside its commit", || engine.last_committed() == 1);
    // Lane 0 takes an upsert of `k` and queues for the journal behind it.
    let upsert = c.submit_insert(k, 30).unwrap();
    spin_until("lane 0 dequeued the upsert", || service.queue_depth(0) == 0);
    drop(hold);

    rewrite.wait().unwrap();
    assert_eq!(
        upsert.wait().unwrap(),
        Some(20),
        "replaced the batch's value"
    );
    assert_eq!(store.get(k), Some(30));
}

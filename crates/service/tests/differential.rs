//! Differential storm: mixed-op traffic through 8 concurrent
//! `ClientHandle`s versus a serial `BTreeMap` oracle.
//!
//! Each client thread owns a DISJOINT key range and drives a seeded
//! deterministic op stream (insert / pipelined inserts / update /
//! delete / batch / get / scan) through the service, checking every
//! reply against a private model as it goes — per-key traffic from one
//! client serializes through its lane, so each reply must equal the
//! model's answer exactly, concurrency or not. After the storm the
//! service's table must equal the union of all models, key for key.
//!
//! Runs against a four-shard hash-routed store, every write
//! group-committed through the engine. `FF_EPOCH_STRESS=1`
//! coverage comes from the `service-soak` CI job, which re-runs this
//! binary with the flag set.

use std::collections::BTreeMap;
use std::sync::Arc;

use fastfair::FastFairTree;
use pmem::{Pool, PoolConfig};
use pmindex::{PersistentIndex, PmIndex};
use service::{ClientHandle, Service, ServiceConfig};
use shard::{Partitioning, ShardedStore};
use txn::{TxnEngine, WriteBatch};

const THREADS: u64 = 8;
const SPAN: u64 = 10_000;
const OPS: usize = 600;

fn build_store(pool: &Arc<Pool>, shards: usize) -> Arc<ShardedStore<FastFairTree>> {
    Arc::new(ShardedStore::from_indexes(
        (0..shards)
            .map(|_| FastFairTree::create_in(Arc::clone(pool)).unwrap())
            .collect(),
        Partitioning::Hash { shards },
    ))
}

/// xorshift64* — deterministic per-thread op stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn storm_one_client(
    client: &ClientHandle<ShardedStore<FastFairTree>>,
    thread: u64,
    model: &mut BTreeMap<u64, u64>,
) {
    let base = thread * SPAN;
    let mut rng = Rng(0x9E37 + thread * 0x1_0001);
    for step in 0..OPS {
        let key = base + rng.next() % SPAN;
        let val = (rng.next() % 1_000_000) + 1; // avoid reserved 0
        match rng.next() % 10 {
            // 30% insert
            0..=2 => {
                let got = client.insert(key, val).unwrap();
                assert_eq!(got, model.insert(key, val), "t{thread} step {step} insert");
            }
            // 10% pipelined upserts (a repeated key among them), waited in
            // submission order: whether one group or several carried
            // them, each ack reports what it replaced.
            3 => {
                let burst = [
                    (key, val),
                    (base + (key + 37) % SPAN, val + 1),
                    (key, val + 2),
                ];
                let tickets = burst.map(|(k, v)| client.submit_insert(k, v).unwrap());
                for ((k, v), t) in burst.into_iter().zip(tickets) {
                    assert_eq!(
                        t.wait().unwrap(),
                        model.insert(k, v),
                        "t{thread} step {step}"
                    );
                }
            }
            // 20% update (never inserts)
            4..=5 => {
                let got = client.update(key, val).unwrap();
                let expect = match model.get_mut(&key) {
                    Some(slot) => Some(std::mem::replace(slot, val)),
                    None => None,
                };
                assert_eq!(got, expect, "t{thread} step {step} update");
            }
            // 20% delete
            6..=7 => {
                let got = client.delete(key).unwrap();
                assert_eq!(got, model.remove(&key).is_some(), "t{thread} step {step}");
            }
            // 10% multi-key batch inside the thread's range
            8 => {
                let mut b = WriteBatch::new();
                for i in 0..3u64 {
                    let k = base + (key + i * 37) % SPAN;
                    b.put(0, k, val + i);
                    model.insert(k, val + i);
                }
                client.batch(b).unwrap();
            }
            // 10% read-your-range: point get + short scan vs the model
            _ => {
                assert_eq!(client.get(key).unwrap(), model.get(&key).copied());
                let lo = base + key % SPAN;
                let hi = (lo + 64).min(base + SPAN);
                let got = client.scan(lo, hi).unwrap();
                let expect: Vec<(u64, u64)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, expect, "t{thread} step {step} scan [{lo},{hi})");
            }
        }
    }
}

fn run_storm(store: Arc<ShardedStore<FastFairTree>>, engine: Arc<TxnEngine>) {
    let config = ServiceConfig {
        lanes: 4,
        affinity: Some(store.partitioning().clone()),
        pin_domains: vec![Arc::clone(store.reclaim_domain())],
        ..ServiceConfig::default()
    };
    let service = Service::with_engine(vec![Arc::clone(&store)], engine, config);
    let models: Vec<BTreeMap<u64, u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = service.handle();
                s.spawn(move || {
                    let mut model = BTreeMap::new();
                    storm_one_client(&client, t, &mut model);
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Final state: the table equals the union of every thread's model.
    let mut union = BTreeMap::new();
    for m in models {
        union.extend(m);
    }
    assert_eq!(store.len(), union.len(), "population diverged from oracle");
    for (&k, &v) in &union {
        assert_eq!(store.get(k), Some(v), "key {k} diverged from oracle");
    }
    let stats = service.stats();
    assert_eq!(stats.shed(), 0, "Park admission must never shed");
    assert!(stats.completed() >= THREADS * OPS as u64 * 9 / 10);
}

#[test]
fn storm_hash_backend_group_commit() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
    let store = build_store(&pool, 4);
    let engine = Arc::new(TxnEngine::create(pool).unwrap());
    run_storm(store, engine);
}

//! Differential test: a `ShardedStore<FastFairTree>` must be
//! operation-for-operation indistinguishable from a single `FastFairTree`
//! over randomized mixed workloads — inserts, in-place updates, deletes,
//! point gets, materialized ranges and streaming cursor scans. A last
//! test checks the parallel batch apply against a
//! serial model while readers run beside it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fastfair::{FastFairTree, TreeOptions};
use pmem::{Pool, PoolConfig};
use pmindex::{BatchOp, Cursor, PersistentIndex, PmIndex};
use rand::prelude::*;
use rand::rngs::StdRng;
use shard::{Partitioning, ShardedStore};

fn pool(bytes: usize) -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(bytes)).unwrap())
}

/// A store over one tree per shard, all in one 128 MiB pool.
fn sharded(shards: usize) -> ShardedStore<FastFairTree> {
    let p = pool(128 << 20);
    let trees = (0..shards)
        .map(|_| FastFairTree::create_in(Arc::clone(&p)).unwrap())
        .collect();
    ShardedStore::from_indexes(trees, Partitioning::Hash { shards })
}

fn scan(idx: &dyn PmIndex, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut c = idx.cursor();
    c.seek(lo);
    while let Some((k, v)) = c.next() {
        if k >= hi {
            break;
        }
        out.push((k, v));
    }
    out
}

fn run_against(sharded: &ShardedStore<FastFairTree>, key_space: u64, seed: u64) {
    let single = FastFairTree::create(pool(64 << 20), TreeOptions::new()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_value = 0x4000u64;
    for step in 0..6000 {
        let k = rng.gen_range(1..key_space);
        match rng.gen_range(0..12) {
            0..=4 => {
                next_value += 8;
                assert_eq!(
                    sharded.insert(k, next_value).unwrap(),
                    single.insert(k, next_value).unwrap(),
                    "step {step}: insert {k}"
                );
            }
            5 => {
                next_value += 8;
                assert_eq!(
                    sharded.update(k, next_value).unwrap(),
                    single.update(k, next_value).unwrap(),
                    "step {step}: update {k}"
                );
            }
            6..=7 => {
                assert_eq!(
                    sharded.remove(k),
                    single.remove(k),
                    "step {step}: remove {k}"
                );
            }
            8..=9 => {
                assert_eq!(sharded.get(k), single.get(k), "step {step}: get {k}");
            }
            10 => {
                let hi = k.saturating_add(rng.gen_range(1..key_space / 4));
                let (mut a, mut b) = (Vec::new(), Vec::new());
                sharded.range(k, hi, &mut a);
                single.range(k, hi, &mut b);
                assert_eq!(a, b, "step {step}: range [{k}, {hi})");
            }
            _ => {
                let hi = k.saturating_add(rng.gen_range(1..key_space / 4));
                assert_eq!(
                    scan(sharded, k, hi),
                    scan(&single, k, hi),
                    "step {step}: cursor scan [{k}, {hi})"
                );
            }
        }
    }
    assert_eq!(sharded.len(), single.len());
    assert_eq!(
        scan(sharded, 0, u64::MAX),
        scan(&single, 0, u64::MAX),
        "final contents diverge"
    );
}

#[test]
fn hash_sharded_matches_single_tree() {
    let sharded = sharded(4);
    run_against(&sharded, 3_000, 0xcafe);
}

#[test]
fn sparse_keyspace_matches_single_tree() {
    // Inserts over the full u64 keyspace, checked by a full scan every
    // 500: the router must stay indistinguishable from the single tree.
    let sharded = sharded(3);
    let single = FastFairTree::create(pool(64 << 20), TreeOptions::new()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut value = 0x8000u64;
    for _ in 0..6 {
        for _ in 0..500 {
            let k = rng.gen_range(1..u64::MAX - 1);
            value += 8;
            assert_eq!(
                sharded.insert(k, value).unwrap(),
                single.insert(k, value).unwrap()
            );
        }
        assert_eq!(scan(&sharded, 0, u64::MAX), scan(&single, 0, u64::MAX));
    }
}

/// Values carry their key in the low bits, so a reader can tell a torn or
/// misrouted value from a merely old one.
const KEY_BITS: u32 = 20;

fn tagged(key: u64, version: u64) -> u64 {
    (version << KEY_BITS) | key
}

fn check_tagged(key: u64, value: u64, ctx: &str) {
    assert_eq!(
        value & ((1 << KEY_BITS) - 1),
        key,
        "{ctx}: key {key} reads {value:#x}"
    );
}

/// One random group: puts and deletes over a small hot range (so keys
/// repeat within and across groups), some keys twice in a row as a put
/// then a delete or a delete then a put.
fn random_group(rng: &mut StdRng, version: &mut u64) -> Vec<BatchOp> {
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..=20) {
        let k = rng.gen_range(1..3_000u64);
        *version += 1;
        match rng.gen_range(0..10) {
            0..=5 => ops.push(BatchOp::Put(k, tagged(k, *version))),
            6..=7 => ops.push(BatchOp::Delete(k)),
            8 => ops.extend([BatchOp::Put(k, tagged(k, *version)), BatchOp::Delete(k)]),
            _ => ops.extend([BatchOp::Delete(k), BatchOp::Put(k, tagged(k, *version))]),
        }
    }
    ops
}

/// Random groups through `apply_batch_prev`, split across the store's
/// helper thread, while two readers run gets and cursor scans: every
/// `prev` entry and the final contents must equal a `BTreeMap` applying
/// the same groups serially, and every read must see a value its key was
/// given.
#[test]
fn parallel_apply_matches_a_serial_model_under_readers() {
    const GROUPS: usize = 5_000;
    let store = sharded(2);
    let mut model = BTreeMap::new();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for seed in 0..2u64 {
            let (store, done) = (&store, &done);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5eed + seed);
                let mut reads = 0u64;
                while !done.load(Ordering::SeqCst) || reads < 1_000 {
                    let k = rng.gen_range(1..3_000u64);
                    if rng.gen_range(0..4) == 0 {
                        let mut c = store.cursor();
                        c.seek(k);
                        let mut last = None;
                        for _ in 0..32 {
                            let Some((key, value)) = c.next() else { break };
                            assert!(
                                key >= k && last < Some(key),
                                "scan from {k}: {key} after {last:?}"
                            );
                            check_tagged(key, value, "scan");
                            last = Some(key);
                        }
                    } else if let Some(value) = store.get(k) {
                        check_tagged(k, value, "get");
                    }
                    reads += 1;
                }
            });
        }
        let mut rng = StdRng::seed_from_u64(0xa991);
        let mut version = 0;
        for group in 0..GROUPS {
            let ops = random_group(&mut rng, &mut version);
            let want: Vec<Option<u64>> = ops
                .iter()
                .map(|&op| match op {
                    BatchOp::Put(k, v) => model.insert(k, v),
                    BatchOp::Delete(k) => model.remove(&k),
                })
                .collect();
            let mut prev = vec![Some(0)]; // answers are appended
            store.apply_batch_prev(&ops, &mut prev).unwrap();
            assert_eq!(prev[1..], want[..], "group {group}: {ops:?}");
        }
        done.store(true, Ordering::SeqCst);
    });
    assert!(
        store.split_applies() > GROUPS as u64 / 4,
        "{} splits",
        store.split_applies()
    );
    let got: Vec<(u64, u64)> = pmindex::CursorIter(store.cursor()).collect();
    let want: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(got, want, "final contents diverge from the serial model");
}

//! Differential testing: every index in the repository must agree with
//! `BTreeMap` (and therefore with each other) on identical operation
//! sequences — inserts, upserts, deletes, point gets and range scans.

use std::collections::BTreeMap;
use std::sync::Arc;

use fastfair_repro::pmem::{Pool, PoolConfig};
use fastfair_repro::pmindex::workload::{generate_keys, value_for, KeyDist};
use fastfair_repro::pmindex::{BatchOp, Cursor, IndexError, PmIndex};
use rand::prelude::*;
use rand::rngs::StdRng;

fn all_indexes(pool: &Arc<Pool>) -> Vec<Box<dyn PmIndex>> {
    vec![
        Box::new(
            fastfair_repro::fastfair::FastFairTree::create(
                Arc::clone(pool),
                fastfair_repro::fastfair::TreeOptions::new(),
            )
            .unwrap(),
        ),
        Box::new(
            fastfair_repro::fastfair::FastFairTree::create(
                Arc::clone(pool),
                fastfair_repro::fastfair::TreeOptions::new()
                    .split(fastfair_repro::fastfair::SplitStrategy::Logging),
            )
            .unwrap(),
        ),
        Box::new(
            fastfair_repro::fastfair::FastFairTree::create(
                Arc::clone(pool),
                fastfair_repro::fastfair::TreeOptions::new().leaf_locks(true),
            )
            .unwrap(),
        ),
        Box::new(fastfair_repro::fptree::FpTree::create(Arc::clone(pool)).unwrap()),
        Box::new(fastfair_repro::wbtree::WbTree::create(Arc::clone(pool)).unwrap()),
        Box::new(fastfair_repro::wort::Wort::create(Arc::clone(pool)).unwrap()),
        Box::new(fastfair_repro::pskiplist::PSkipList::create(Arc::clone(pool)).unwrap()),
        Box::new(fastfair_repro::blink::BlinkTree::new()),
        // The shard router is itself a PmIndex: it must agree with the
        // model (and hence with every single-tree index) verbatim.
        Box::new(
            fastfair_repro::shard::ShardedStore::<fastfair_repro::fastfair::FastFairTree>::create(
                Arc::clone(pool),
                vec![Arc::clone(pool); 4],
                fastfair_repro::shard::Partitioning::Hash { shards: 4 },
            )
            .unwrap(),
        ),
        Box::new(
            fastfair_repro::shard::ShardedStore::<fastfair_repro::fastfair::FastFairTree>::create(
                Arc::clone(pool),
                vec![Arc::clone(pool); 3],
                fastfair_repro::shard::Partitioning::Range {
                    // Splits chosen so the dense workload (keys < 2000)
                    // exercises all three shards and the sparse workload
                    // lands mostly in the last — both are valid maps.
                    bounds: vec![700, 1400],
                },
            )
            .unwrap(),
        ),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert with a fresh, globally unique value (like a freshly
    /// allocated record pointer — the uniqueness FAST relies on, §3.1).
    Insert(u64),
    /// Update-only write: must not insert when the key is absent.
    Update(u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
    /// The same window as Range, but driven through a streaming cursor.
    CursorScan(u64, u64),
}

fn random_ops(n: usize, key_space: u64, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(1..key_space);
            match rng.gen_range(0..12) {
                0..=4 => Op::Insert(k),
                5 => Op::Update(k),
                6..=7 => Op::Remove(k),
                8..=9 => Op::Get(k),
                10 => {
                    let span = rng.gen_range(1..key_space / 4);
                    Op::Range(k, k.saturating_add(span))
                }
                _ => {
                    let span = rng.gen_range(1..key_space / 4);
                    Op::CursorScan(k, k.saturating_add(span))
                }
            }
        })
        .collect()
}

fn apply(idx: &dyn PmIndex, model: &mut BTreeMap<u64, u64>, ops: &[Op]) -> Result<(), IndexError> {
    let mut next_value = 0x1000u64; // emulated record-pointer allocator
    for &op in ops {
        match op {
            Op::Insert(k) => {
                next_value += 8;
                let v = next_value;
                assert_eq!(
                    idx.insert(k, v)?,
                    model.insert(k, v),
                    "{}: insert {k} replaced value",
                    idx.name()
                );
            }
            Op::Update(k) => {
                next_value += 8;
                let v = next_value;
                let want = match model.get_mut(&k) {
                    Some(slot) => Some(std::mem::replace(slot, v)),
                    None => None,
                };
                assert_eq!(idx.update(k, v)?, want, "{}: update {k}", idx.name());
            }
            Op::Remove(k) => {
                assert_eq!(
                    idx.remove(k),
                    model.remove(&k).is_some(),
                    "{}: remove {k}",
                    idx.name()
                );
            }
            Op::Get(k) => {
                assert_eq!(
                    idx.get(k),
                    model.get(&k).copied(),
                    "{}: get {k}",
                    idx.name()
                );
            }
            Op::Range(lo, hi) => {
                let mut got = Vec::new();
                idx.range(lo, hi, &mut got);
                let want: Vec<(u64, u64)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want, "{}: range [{lo}, {hi})", idx.name());
            }
            Op::CursorScan(lo, hi) => {
                let mut got = Vec::new();
                let mut c = idx.cursor();
                c.seek(lo);
                while let Some((k, v)) = c.next() {
                    if k >= hi {
                        break;
                    }
                    got.push((k, v));
                }
                let want: Vec<(u64, u64)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want, "{}: cursor scan [{lo}, {hi})", idx.name());
            }
        }
    }
    Ok(())
}

#[test]
fn all_indexes_agree_with_model_dense_keys() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).unwrap());
    let ops = random_ops(4000, 2_000, 0xfeed);
    for idx in all_indexes(&pool) {
        let mut model = BTreeMap::new();
        apply(idx.as_ref(), &mut model, &ops).unwrap();
        // Final full-content comparison.
        let mut got = Vec::new();
        idx.range(0, u64::MAX, &mut got);
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "{}: final content", idx.name());
    }
}

#[test]
fn all_indexes_agree_with_model_sparse_keys() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).unwrap());
    let ops = random_ops(3000, u64::MAX - 2, 0xbeef);
    for idx in all_indexes(&pool) {
        let mut model = BTreeMap::new();
        apply(idx.as_ref(), &mut model, &ops).unwrap();
    }
}

#[test]
fn bulk_load_then_full_scan_identical_across_indexes() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).unwrap());
    let keys = generate_keys(30_000, KeyDist::Uniform, 5);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for idx in all_indexes(&pool) {
        // Every index accepts the bulk path (packed bottom-up for
        // FAST+FAIR, loop-insert fallback elsewhere) and agrees on the
        // fresh-key count.
        let fresh = idx
            .bulk_load(&mut sorted.iter().map(|&k| (k, value_for(k))))
            .unwrap();
        assert_eq!(fresh, keys.len(), "{}: bulk load count", idx.name());
        assert_eq!(idx.len(), keys.len(), "{}: len after bulk load", idx.name());
        let mut got = Vec::new();
        idx.range(0, u64::MAX, &mut got);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{} diverges", idx.name()),
        }
    }
}

/// Written the way `txn`'s fail-once test double and `perf`'s `Traced`
/// are: the required methods plus `apply_batch`, nothing else — so its
/// `apply_batch_prev` is the trait default, which must stay correct and
/// must still hand the whole batch to the override in one call.
struct OnlyApplyBatch {
    inner: fastfair_repro::fastfair::FastFairTree,
    batches: std::sync::atomic::AtomicUsize,
}

impl PmIndex for OnlyApplyBatch {
    fn insert(&self, key: u64, value: u64) -> Result<Option<u64>, IndexError> {
        self.inner.insert(key, value)
    }
    fn update(&self, key: u64, value: u64) -> Result<Option<u64>, IndexError> {
        self.inner.update(key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        self.inner.get(key)
    }
    fn remove(&self, key: u64) -> bool {
        self.inner.remove(key)
    }
    fn cursor(&self) -> Box<dyn Cursor + '_> {
        self.inner.cursor()
    }
    fn name(&self) -> &'static str {
        "only-apply_batch wrapper"
    }
    fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
        self.batches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.apply_batch(ops)
    }
}

/// What `apply_batch_prev` must push for `ops`, replayed on the model.
fn model_prev(model: &mut BTreeMap<u64, u64>, ops: &[BatchOp]) -> Vec<Option<u64>> {
    ops.iter()
        .map(|&op| match op {
            BatchOp::Put(k, v) => model.insert(k, v),
            BatchOp::Delete(k) => model.remove(&k),
        })
        .collect()
}

#[test]
fn apply_batch_prev_agrees_with_model_on_every_backend() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).unwrap());
    let wrapper = OnlyApplyBatch {
        inner: fastfair_repro::fastfair::FastFairTree::create(
            Arc::clone(&pool),
            fastfair_repro::fastfair::TreeOptions::new(),
        )
        .unwrap(),
        batches: Default::default(),
    };
    let mut indexes = all_indexes(&pool);
    indexes.push(Box::new(&wrapper));

    // 47 keys spread over every shard of both routers (the range router
    // splits at 700 and 1400), so a 24-op batch repeats keys and
    // interleaves shards; values are unique, as FAST requires.
    let mut rng = StdRng::seed_from_u64(0x9e37);
    let mut next_value = 0x1000u64;
    let mut batches: Vec<Vec<BatchOp>> = vec![vec![
        BatchOp::Delete(45),    // absent key
        BatchOp::Put(45, 8),    // fresh
        BatchOp::Put(1800, 16), // another shard in between
        BatchOp::Put(45, 24),   // repeated key: sees the put above
        BatchOp::Delete(45),    // removes the second put
        BatchOp::Put(900, 32),
        BatchOp::Put(45, 40), // put after delete: nothing to replace
        BatchOp::Delete(1800),
    ]];
    for _ in 0..120 {
        let n = rng.gen_range(1..25);
        batches.push(
            (0..n)
                .map(|_| {
                    let k = rng.gen_range(1..48u64) * 45;
                    if rng.gen_range(0..10) < 6 {
                        next_value += 8;
                        BatchOp::Put(k, next_value)
                    } else {
                        BatchOp::Delete(k)
                    }
                })
                .collect(),
        );
    }

    for idx in &indexes {
        let mut model = BTreeMap::new();
        for (i, ops) in batches.iter().enumerate() {
            // `prev` is appended to, never cleared.
            let mut got = vec![Some(7)];
            idx.apply_batch_prev(ops, &mut got).unwrap();
            let mut want = vec![Some(7)];
            want.extend(model_prev(&mut model, ops));
            assert_eq!(got, want, "{}: batch {i} {ops:?}", idx.name());
        }
        let mut got = Vec::new();
        idx.range(0, u64::MAX, &mut got);
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "{}: final content", idx.name());
        // A reserved value fails the batch, as `apply_batch` does.
        assert!(
            idx.apply_batch_prev(&[BatchOp::Put(45, 0)], &mut Vec::new())
                .is_err(),
            "{}: reserved value accepted",
            idx.name()
        );
    }
    // The default path stayed batched: one `apply_batch` per call (the
    // failing one included), never a loop of single-op applies.
    assert_eq!(
        wrapper.batches.load(std::sync::atomic::Ordering::Relaxed),
        batches.len() + 1
    );
}

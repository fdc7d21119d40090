//! Differential testing: every index in the repository must agree with
//! `BTreeMap` (and therefore with each other) on identical operation
//! sequences — inserts, upserts, deletes, point gets and range scans —
//! and must survive four concurrency storms: one test per (index,
//! storm), named `storms::<index>::<storm>`. Two single-threaded edge
//! cases of the trait's contract run per index as
//! `contract::<index>::<case>`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fastfair_repro::pmem::{Pool, PoolConfig};
use fastfair_repro::pmindex::workload::{generate_keys, partition, value_for, KeyDist};
use fastfair_repro::pmindex::{BatchOp, Cursor, IndexError, PersistentIndex, PmIndex};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Declares the index list once: `all_indexes` builds one of each, and
/// each entry gets a `storms::<name>` module with one test per storm and
/// a `contract::<name>` module with one test per edge case.
macro_rules! indexes {
    ($($name:ident => $make:expr,)*) => {
        fn all_indexes(pool: &Arc<Pool>) -> Vec<Box<dyn PmIndex>> {
            vec![$(storms::$name::make(pool)),*]
        }

        mod storms {
            $(
                pub mod $name {
                    use super::super::*;

                    pub fn make(pool: &Arc<Pool>) -> Box<dyn PmIndex> {
                        Box::new(($make)(Arc::clone(pool)))
                    }

                    #[test]
                    fn concurrent_inserts() {
                        storm_concurrent_inserts(make);
                    }

                    #[test]
                    fn concurrent_reads_during_writes() {
                        storm_reads_during_writes(make);
                    }

                    #[test]
                    fn inserts_racing_merges() {
                        storm_inserts_racing_merges(make);
                    }

                    #[test]
                    fn removes_and_reads_with_merges() {
                        storm_removes_and_reads_with_merges(make);
                    }
                }
            )*
        }

        mod contract {
            $(
                pub mod $name {
                    use super::super::*;

                    #[test]
                    fn reserved_values_are_refused_by_every_write() {
                        reserved_values_are_refused(storms::$name::make);
                    }

                    #[test]
                    fn extreme_keys_roundtrip_both_ways() {
                        extreme_keys_roundtrip(storms::$name::make);
                    }
                }
            )*
        }
    };
}

indexes! {
    fastfair => |pool| {
        fastfair_repro::fastfair::FastFairTree::create(
            pool,
            fastfair_repro::fastfair::TreeOptions::new(),
        )
        .unwrap()
    },
    fastfair_logging => |pool| {
        fastfair_repro::fastfair::FastFairTree::create(
            pool,
            fastfair_repro::fastfair::TreeOptions::new()
                .split(fastfair_repro::fastfair::SplitStrategy::Logging),
        )
        .unwrap()
    },
    fastfair_leaf_locks => |pool| {
        fastfair_repro::fastfair::FastFairTree::create(
            pool,
            fastfair_repro::fastfair::TreeOptions::new().leaf_locks(true),
        )
        .unwrap()
    },
    fptree => |pool| fastfair_repro::fptree::FpTree::create(pool).unwrap(),
    wbtree => |pool| fastfair_repro::wbtree::WbTree::create(pool).unwrap(),
    wort => |pool| fastfair_repro::wort::Wort::create(pool).unwrap(),
    pskiplist => |pool| fastfair_repro::pskiplist::PSkipList::create(pool).unwrap(),
    // The shard router is itself a PmIndex: it must agree with the model
    // (and hence with every single-tree index) verbatim.
    sharded_hash => |pool: Arc<Pool>| {
        fastfair_repro::shard::ShardedStore::from_indexes(
            shard_trees(&pool, 4),
            fastfair_repro::shard::Partitioning::Hash { shards: 4 },
        )
    },
    // Named for the range map it held until range partitioning was
    // retired; an odd shard count beside `sharded_hash`'s four.
    sharded_range => |pool: Arc<Pool>| {
        fastfair_repro::shard::ShardedStore::from_indexes(
            shard_trees(&pool, 3),
            fastfair_repro::shard::Partitioning::Hash { shards: 3 },
        )
    },
}

/// `n` fresh FAST+FAIR trees in `pool`: the shards of a sharded store.
fn shard_trees(pool: &Arc<Pool>, n: usize) -> Vec<fastfair_repro::fastfair::FastFairTree> {
    (0..n)
        .map(|_| fastfair_repro::fastfair::FastFairTree::create_in(Arc::clone(pool)).unwrap())
        .collect()
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

/// The storms: each builds its index in a fresh pool through `make`, so
/// every entry of `indexes!` runs the same schedule.
type Make = fn(&Arc<Pool>) -> Box<dyn PmIndex>;

fn storm_pool() -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap())
}

fn contents(idx: &dyn PmIndex) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    idx.range(0, u64::MAX, &mut out);
    out
}

/// 0 and `u64::MAX` are refused as values by insert (fresh key or
/// upsert), update, `apply_batch` and `bulk_load`, and no refusal leaves
/// a trace.
fn reserved_values_are_refused(make: Make) {
    let idx = make(&storm_pool());
    idx.insert(5, 50).unwrap();
    for bad in [0, u64::MAX] {
        let refused = |r: Result<(), IndexError>| {
            assert!(
                matches!(r, Err(IndexError::ReservedValue(v)) if v == bad),
                "{}: value {bad:#x}: {r:?}",
                idx.name()
            )
        };
        refused(idx.insert(6, bad).map(drop));
        refused(idx.insert(5, bad).map(drop));
        refused(idx.update(5, bad).map(drop));
        refused(idx.apply_batch(&[BatchOp::Put(7, bad)]));
        refused(idx.bulk_load(&mut [(8, bad)].into_iter()).map(drop));
    }
    assert_eq!(contents(idx.as_ref()), vec![(5, 50)], "{}", idx.name());
}

/// The smallest and largest keys are ordinary keys: stored, found,
/// scanned in both directions, sought exactly, and removed.
fn extreme_keys_roundtrip(make: Make) {
    let idx = make(&storm_pool());
    let keys = [0, 1, 2, u64::MAX - 1, u64::MAX];
    for &k in &keys {
        assert_eq!(idx.insert(k, k / 2 + 1).unwrap(), None, "{}", idx.name());
    }
    for &k in &keys {
        assert_eq!(idx.get(k), Some(k / 2 + 1), "{}: key {k:#x}", idx.name());
    }
    let name = idx.name();
    let mut cur = idx.cursor();
    let mut up = Vec::new();
    while let Some((k, _)) = cur.next() {
        up.push(k);
    }
    assert_eq!(up, keys, "{name}: ascending");
    cur.seek(u64::MAX);
    assert_eq!(cur.next().map(|e| e.0), Some(u64::MAX), "{name}: seek(MAX)");
    assert_eq!(cur.next(), None, "{name}: past MAX");
    cur.seek_for_prev(0);
    assert_eq!(cur.prev().map(|e| e.0), Some(0), "{name}: seek_for_prev(0)");
    assert_eq!(cur.prev(), None, "{name}: below 0");
    cur.seek_for_prev(u64::MAX);
    let mut down = Vec::new();
    while let Some((k, _)) = cur.prev() {
        down.push(k);
    }
    drop(cur);
    assert_eq!(
        down,
        [u64::MAX, u64::MAX - 1, 2, 1, 0],
        "{name}: descending"
    );
    assert!(idx.remove(0) && idx.remove(u64::MAX), "{name}: remove");
    assert_eq!((idx.get(0), idx.get(u64::MAX)), (None, None), "{name}");
    let left: Vec<u64> = contents(idx.as_ref()).iter().map(|e| e.0).collect();
    assert_eq!(left, [1, 2, u64::MAX - 1], "{name}: after removes");
}

/// Raises `stop` when dropped, so a panicking thread still releases the
/// threads that spin on it instead of hanging the scope.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Four writers insert disjoint quarters of 40 000 uniform keys; every
/// key is then found.
fn storm_concurrent_inserts(make: Make) {
    let t = make(&storm_pool());
    let keys = generate_keys(40_000, KeyDist::Uniform, 3);
    std::thread::scope(|s| {
        for chunk in partition(&keys, 4) {
            let t = &t;
            s.spawn(move || {
                for k in chunk {
                    t.insert(k, value_for(k)).unwrap();
                }
            });
        }
    });
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)), "{}: key {k}", t.name());
    }
    assert_eq!(t.len(), keys.len(), "{}", t.name());
}

/// One writer inserts 10 000 fresh keys while two readers keep finding
/// every preloaded key.
fn storm_reads_during_writes(make: Make) {
    let t = make(&storm_pool());
    let preload = generate_keys(10_000, KeyDist::Uniform, 4);
    for &k in &preload {
        t.insert(k, value_for(k)).unwrap();
    }
    let fresh = generate_keys(10_000, KeyDist::Uniform, 5);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _stop = StopOnDrop(&stop);
            for &k in &fresh {
                t.insert(k, value_for(k)).unwrap();
            }
        });
        for _ in 0..2 {
            s.spawn(|| {
                for &k in preload.iter().cycle() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    assert_eq!(t.get(k), Some(value_for(k)), "{}: key {k}", t.name());
                }
            });
        }
    });
    for &k in &fresh {
        assert_eq!(t.get(k), Some(value_for(k)), "{}: fresh key {k}", t.name());
    }
}

/// One remover empties whole leaves of even keys front to back while two
/// inserters add fresh odd keys into the very ranges being merged away:
/// an insert that lands in a node its parent no longer routes is lost.
fn storm_inserts_racing_merges(make: Make) {
    const N: u64 = 640;
    for round in 0..8u64 {
        let t = make(&storm_pool());
        for k in 1..=N {
            t.insert(k * 2, value_for(k * 2)).unwrap();
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 1..=N {
                    assert!(t.remove(k * 2), "{}: even key {}", t.name(), k * 2);
                }
            });
            for w in 0..2u64 {
                let t = &t;
                s.spawn(move || {
                    for k in (w..N).step_by(2) {
                        t.insert(k * 2 + 1, value_for(k * 2 + 1)).unwrap();
                    }
                });
            }
        });
        for k in 0..N {
            assert_eq!(
                t.get(k * 2 + 1),
                Some(value_for(k * 2 + 1)),
                "{}: round {round}: inserted key {} lost to a racing merge",
                t.name(),
                k * 2 + 1
            );
        }
        assert_eq!(t.len(), N as usize, "{}: round {round}", t.name());
    }
}

/// Two removers empty disjoint halves (forcing merges) while two readers
/// check that the kept keys stay and a scanner streams ordered cursors.
fn storm_removes_and_reads_with_merges(make: Make) {
    const N: u64 = 1280;
    let t = make(&storm_pool());
    for k in 1..=N {
        t.insert(k, value_for(k)).unwrap();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for half in 0..2u64 {
            let t = &t;
            s.spawn(move || {
                for k in 1 + half * (N / 2)..=(half + 1) * (N / 2) {
                    if !k.is_multiple_of(8) {
                        assert!(t.remove(k), "{}: key {k}", t.name());
                    }
                }
            });
        }
        for _ in 0..2 {
            s.spawn(|| {
                for k in (8..=N).step_by(8).cycle() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    assert_eq!(t.get(k), Some(value_for(k)), "{}: kept key {k}", t.name());
                }
            });
        }
        s.spawn(|| {
            let _stop = StopOnDrop(&stop);
            for _ in 0..20 {
                let mut c = t.cursor();
                let mut last = 0u64;
                while let Some((k, _)) = c.next() {
                    assert!(k > last, "{}: cursor out of order at {k}", t.name());
                    last = k;
                }
            }
        });
    });
    assert_eq!(t.len(), (N / 8) as usize, "{}", t.name());
    for k in (8..=N).step_by(8) {
        assert_eq!(t.get(k), Some(value_for(k)), "{}: key {k}", t.name());
    }
}

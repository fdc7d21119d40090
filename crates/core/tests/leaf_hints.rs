//! The leaf directory under concurrency and live reclamation.
//!
//! A tree handle keeps a volatile sorted array `key range → leaf` and
//! starts every leaf-level operation at the leaf it names instead of
//! descending (`FastFairTree`'s leaf directory). These tests drive the
//! public API only, with the directory warm (a handle builds it once
//! 4 096 operations have descended), with 256-byte nodes:
//!
//! * a differential — two readers, two writers and a deleter against
//!   `BTreeMap` models — in which every directed answer must be the answer
//!   a descent would have given;
//! * two trees sharing one pool, so that a leaf one tree retires comes
//!   back from the allocator as the other's leaf or internal node while
//!   the first tree's directory still names it: no read may return, and
//!   no update may touch, the other tree's data;
//! * a warm tree and a cold twin (its handle reopened before it can build
//!   a directory) fed the same absent-key reads, fresh inserts, removes
//!   and both cursor seeks while a churn thread splits and unlinks leaves
//!   between the warm tree's keys: they must agree op for op.
//!
//! Two single-threaded checks ride along because they need nothing but the
//! public API either: the rebuild rule left to itself under a `BTreeMap`
//! differential, and a key deleted and inserted again through a warm
//! directory.
//!
//! CI's `service-soak` job runs this file with `FF_EPOCH_STRESS=1`, which
//! makes every unpin advance the epoch and collect, so blocks are recycled
//! as early as the epoch rule allows, and once more as two concurrent
//! copies with `--test-threads 4`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fastfair::{FastFairTree, TreeOptions};
use pmem::{stats, Pool, PoolConfig};
use pmindex::workload::value_for;
use pmindex::PmIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 256-byte nodes: leaves split and empty every few keys.
fn tiny() -> TreeOptions {
    TreeOptions::new().node_size(256)
}

/// Reads `keys` until reads of them are being directed.
fn warm(tree: &FastFairTree, keys: &[u64]) {
    let before = stats::snapshot().leaf_hint_hits;
    for _ in 0..=5_000 / keys.len() + 2 {
        for &k in keys {
            tree.get(k);
        }
    }
    let hits = stats::snapshot().leaf_hint_hits - before;
    assert!(
        hits >= keys.len() as u64,
        "directory still cold: {hits} hits"
    );
}

/// `(lookups, hits)` of the operations `f` made on this thread.
fn directed(f: impl FnOnce()) -> (u64, u64) {
    let before = stats::snapshot();
    f();
    let after = stats::snapshot();
    (
        after.leaf_hint_lookups - before.leaf_hint_lookups,
        after.leaf_hint_hits - before.leaf_hint_hits,
    )
}

/// Sets the flag when dropped — also by a panicking thread, so the threads
/// that loop until it is set end and the panic is reported, not hung on.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn hinted_differential_two_readers_two_writers_one_deleter() {
    const STABLE: u64 = 1_500; // keys 4i: never written after the preload
    const BAND: u64 = 400; // the deleter's contiguous range, far to the right
    const BAND_BASE: u64 = 1_000_000;
    const ROUNDS: u64 = 12;

    let pool = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
    let tree = Arc::new(FastFairTree::create(Arc::clone(&pool), tiny()).unwrap());
    // Keys 4i are stable, 4i+1 / 4i+2 belong to one writer each.
    let mut models: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); 3];
    for i in 0..STABLE {
        for class in 0..3u64 {
            let k = 4 * i + class;
            tree.insert(k, value_for(k)).unwrap();
            models[class as usize].insert(k, value_for(k));
        }
    }
    let stable: Vec<u64> = models[0].keys().copied().collect();
    warm(&tree, &stable);

    let done = AtomicBool::new(false);
    let hinted = AtomicU64::new(0);
    let (stable_model, writer_models) = models.split_first_mut().unwrap();
    let stable_model: &BTreeMap<u64, u64> = stable_model;
    std::thread::scope(|s| {
        // The deleter fills its band, reads it and removes it again:
        // every round splits ~80 leaves off, then unlinks and retires
        // them, bumping the generation under everyone else's feet.
        s.spawn(|| {
            let _done = SetOnDrop(&done);
            for round in 0..ROUNDS {
                for k in BAND_BASE..BAND_BASE + BAND {
                    assert_eq!(tree.insert(k, value_for(k + round)).unwrap(), None);
                }
                for k in BAND_BASE..BAND_BASE + BAND {
                    assert_eq!(tree.get(k), Some(value_for(k + round)));
                }
                for k in BAND_BASE..BAND_BASE + BAND {
                    assert!(tree.remove(k), "band key {k} missing");
                }
            }
        });
        for (w, model) in writer_models.iter_mut().enumerate() {
            let (tree, done, hinted) = (&tree, &done, &hinted);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w as u64 + 1);
                let before = stats::snapshot().leaf_hint_hits;
                while !done.load(Ordering::SeqCst) {
                    let k = 4 * rng.gen_range(0..STABLE + 200) + 1 + w as u64;
                    let v = value_for(k ^ rng.gen_range(0..1u64 << 20));
                    match rng.gen_range(0..4u32) {
                        0 => assert_eq!(tree.insert(k, v).unwrap(), model.insert(k, v)),
                        1 => {
                            let old = model.get(&k).copied();
                            assert_eq!(tree.update(k, v).unwrap(), old, "update {k}");
                            if old.is_some() {
                                model.insert(k, v);
                            }
                        }
                        2 => assert_eq!(tree.remove(k), model.remove(&k).is_some()),
                        _ => assert_eq!(tree.get(k), model.get(&k).copied(), "{k}"),
                    }
                }
                hinted.fetch_add(stats::snapshot().leaf_hint_hits - before, Ordering::Relaxed);
            });
        }
        for r in 0..2u64 {
            let (tree, done, hinted) = (&tree, &done, &hinted);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + r);
                let before = stats::snapshot().leaf_hint_hits;
                while !done.load(Ordering::SeqCst) {
                    let k = 4 * rng.gen_range(0..STABLE);
                    assert_eq!(tree.get(k), stable_model.get(&k).copied(), "{k}");
                    // A band key is absent or carries one of its
                    // round's values.
                    let b = BAND_BASE + rng.gen_range(0..BAND);
                    if let Some(v) = tree.get(b) {
                        assert!(
                            (0..ROUNDS).any(|round| v == value_for(b + round)),
                            "band key {b} read {v}"
                        );
                    }
                }
                hinted.fetch_add(stats::snapshot().leaf_hint_hits - before, Ordering::Relaxed);
            });
        }
    });
    assert!(hinted.load(Ordering::Relaxed) > 0, "no directed access");

    let mut want: Vec<(u64, u64)> = models.into_iter().flatten().collect();
    want.sort_unstable();
    let mut got = Vec::new();
    tree.range(0, u64::MAX, &mut got);
    assert_eq!(got, want, "final contents differ from the models");
    tree.check_consistency(true)
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn two_trees_one_pool_never_read_each_other_through_a_stale_hint() {
    const STABLE: u64 = 1_200;
    const BAND: u64 = 300;
    const BAND_BASE: u64 = 1_000_000;
    const ROUNDS: u64 = 15;
    // Tree `t`'s values have parity `t`, so a value says whose it is.
    let val = |t: u64, k: u64, round: u64| 2 * (k + round) + 2 + t;

    let pool = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
    let trees: Vec<FastFairTree> = (0..2)
        .map(|_| FastFairTree::create(Arc::clone(&pool), tiny()).unwrap())
        .collect();
    let stable: Vec<u64> = (0..STABLE).collect();
    for (t, tree) in trees.iter().enumerate() {
        for &k in &stable {
            tree.insert(k, val(t as u64, k, 0)).unwrap();
        }
        warm(tree, &stable);
    }

    let done = [AtomicBool::new(false), AtomicBool::new(false)];
    let all_done = || done.iter().all(|d| d.load(Ordering::SeqCst));
    std::thread::scope(|s| {
        for (t, tree) in trees.iter().enumerate() {
            let t = t as u64;
            // Churn: fill the band, read it, empty it. The leaves this
            // tree retires are the other tree's next allocations.
            let mine = &done[t as usize];
            s.spawn(move || {
                let _done = SetOnDrop(mine);
                for round in 0..ROUNDS {
                    for k in BAND_BASE..BAND_BASE + BAND {
                        assert_eq!(tree.insert(k, val(t, k, round)).unwrap(), None);
                    }
                    for k in BAND_BASE..BAND_BASE + BAND {
                        // This round's value, or the updater's.
                        let v = tree.get(k);
                        assert!(
                            v == Some(val(t, k, round)) || v == Some(val(t, k, 0)),
                            "tree {t} read {v:?} for {k}"
                        );
                    }
                    for k in BAND_BASE..BAND_BASE + BAND {
                        assert!(tree.remove(k));
                    }
                }
            });
            // Directed reads and directed in-place updates of band keys
            // whose leaves keep leaving the tree.
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7 + t);
                while !all_done() {
                    let k = BAND_BASE + rng.gen_range(0..BAND);
                    if let Some(v) = tree.get(k) {
                        assert_eq!(v % 2, t, "tree {t} read {v} for {k}");
                    }
                    let s = rng.gen_range(0..STABLE);
                    assert_eq!(tree.get(s), Some(val(t, s, 0)), "tree {t}");
                }
            });
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(70 + t);
                while !all_done() {
                    let k = BAND_BASE + rng.gen_range(0..BAND);
                    // Overwrites with a value the churn thread's own
                    // reads accept: same parity, some round's number.
                    if let Some(old) = tree.update(k, val(t, k, 0)).unwrap() {
                        assert_eq!(old % 2, t, "tree {t} replaced {old} at {k}");
                    }
                }
            });
        }
    });
    for (t, tree) in trees.iter().enumerate() {
        let mut rows = Vec::new();
        tree.range(0, u64::MAX, &mut rows);
        assert!(
            rows.iter().all(|&(_, v)| v % 2 == t as u64),
            "tree {t} holds the other tree's value"
        );
        assert_eq!(
            rows.iter().filter(|&&(k, _)| k < STABLE).count() as u64,
            STABLE
        );
        tree.check_consistency(true)
            .unwrap_or_else(|e| panic!("tree {t}: {e}"));
    }
}

#[test]
fn warm_directory_agrees_with_a_cold_twin_op_for_op_under_split_and_unlink() {
    // The compared tree's keys live in [0, GAP) and [2 * GAP, 3 * GAP); the
    // churn thread fills and empties the gap between them. The compared
    // ops stay GUARD away from the gap, behind preloaded keys they never
    // touch: the leaves next to the gap split under the churn, and a
    // reverse seek that reads one leaf between its locate and a split of
    // that very leaf is stale with or without a directory.
    const GAP: u64 = 4_000;
    const GUARD: u64 = 256;
    const OPS: u64 = 30_000;
    let mine = |k: u64| !(GAP..2 * GAP).contains(&k);

    let pool = || Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
    let (warm_pool, cold_pool) = (pool(), pool());
    let warm_tree = FastFairTree::create(Arc::clone(&warm_pool), tiny()).unwrap();
    let mut cold_tree = FastFairTree::create(Arc::clone(&cold_pool), tiny()).unwrap();
    let preload: Vec<u64> = (0..3 * GAP).step_by(8).filter(|&k| mine(k)).collect();
    for &k in &preload {
        warm_tree.insert(k, value_for(k)).unwrap();
        cold_tree.insert(k, value_for(k)).unwrap();
    }
    warm(&warm_tree, &preload);

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Split + empty-leaf unlink right between the compared keys.
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                for k in GAP..2 * GAP {
                    warm_tree.insert(k, value_for(k)).unwrap();
                }
                for k in GAP..2 * GAP {
                    assert!(warm_tree.remove(k), "churn key {k}");
                }
            }
        });
        let _done = SetOnDrop(&done);
        let before = stats::snapshot();
        let mut cold_hits = 0;
        let mut rng = StdRng::seed_from_u64(42);
        for op in 0..OPS {
            if op % 1_000 == 0 {
                // A handle that has served fewer than 4 096 ops has no
                // directory: the twin never gets to build one.
                let meta = cold_tree.meta_offset();
                cold_tree = FastFairTree::open(Arc::clone(&cold_pool), meta, tiny()).unwrap();
            }
            let side = GAP - GUARD;
            let k = match rng.gen_range(0..2 * side) {
                k if k < side => k,
                k => k - side + 2 * GAP + GUARD,
            };
            let what = rng.gen_range(0..6u32);
            let outcome = |tree: &FastFairTree| -> Option<u64> {
                match what {
                    0 => tree.get(k),
                    1 => tree.insert(k, value_for(k + op)).unwrap(),
                    2 => tree.update(k, value_for(k + op)).unwrap(),
                    3 => tree.remove(k).then_some(1),
                    4 => {
                        let mut c = tree.cursor();
                        c.seek(k);
                        std::iter::from_fn(|| c.next())
                            .find(|&(k, _)| mine(k))
                            .map(|r| r.0)
                    }
                    _ => {
                        let mut c = tree.cursor();
                        c.seek_for_prev(k);
                        std::iter::from_fn(|| c.prev())
                            .find(|&(k, _)| mine(k))
                            .map(|r| r.0)
                    }
                }
            };
            let from_warm = outcome(&warm_tree);
            let hits = stats::snapshot().leaf_hint_hits;
            let from_cold = outcome(&cold_tree);
            cold_hits += stats::snapshot().leaf_hint_hits - hits;
            assert_eq!(from_warm, from_cold, "op {op} kind {what} key {k}");
        }
        // The warm side of the comparison was directed, the cold never.
        let hits = stats::snapshot().leaf_hint_hits - before.leaf_hint_hits;
        assert!(hits > OPS / 10, "{hits} directed ops");
        assert_eq!(cold_hits, 0, "the twin built a directory");
    });
    let rows = |tree: &FastFairTree| {
        let mut rows = Vec::new();
        tree.range(0, u64::MAX, &mut rows);
        rows.retain(|&(k, _)| mine(k));
        rows
    };
    assert_eq!(rows(&warm_tree), rows(&cold_tree));
    warm_tree
        .check_consistency(true)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// The rebuild rule left to itself: every unlinked leaf drops the
/// directory, the regret of the operations that follow rebuilds it, and
/// every answer along the way matches the model.
#[test]
fn directory_is_dropped_and_rebuilt_under_a_differential() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
    let t = FastFairTree::create(pool, tiny()).unwrap();
    let mut model = BTreeMap::new();
    let before = stats::snapshot();
    // Bands of inserts, reads and removes: every round empties and
    // unlinks leaves, so the generation moves all the time.
    for round in 0..60u64 {
        let base = (round % 4) * 150;
        for k in base + 1..=base + 120 {
            assert_eq!(
                t.insert(k, value_for(k + round)).unwrap(),
                model.insert(k, value_for(k + round))
            );
        }
        for k in 1..=600u64 {
            assert_eq!(t.get(k), model.get(&k).copied(), "{round} {k}");
        }
        for k in base + 1..=base + 120 {
            if k % 7 != 0 || round % 3 == 0 {
                assert_eq!(t.remove(k), model.remove(&k).is_some());
            }
        }
        for k in 1..=600u64 {
            assert_eq!(t.update(k, value_for(k)).unwrap(), model.get(&k).copied());
            if let Some(v) = model.get_mut(&k) {
                *v = value_for(k);
            }
        }
    }
    let after = stats::snapshot();
    let rebuilds = after.leaf_hint_rebuilds - before.leaf_hint_rebuilds;
    let hits = after.leaf_hint_hits - before.leaf_hint_hits;
    assert!(
        rebuilds >= 5 && hits >= 2_000,
        "{rebuilds} rebuilds, {hits} directed ops"
    );
    let mut got = Vec::new();
    t.range(0, u64::MAX, &mut got);
    assert_eq!(got, model.into_iter().collect::<Vec<_>>());
    t.check_consistency(true).unwrap();
}

/// Keys that are deleted and inserted again through a warm directory:
/// every step is directed — the absent answers and the fresh inserts too,
/// a key that was its leaf's largest included: the leaf's high key bounds
/// it.
#[test]
fn directed_get_of_a_deleted_then_reinserted_key() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
    let t = FastFairTree::create(pool, tiny()).unwrap();
    let keys: Vec<u64> = (1..=100).collect();
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    warm(&t, &keys);
    let mut directed_inserts = 0;
    for k in 40..50u64 {
        let settled = (1, 1);
        assert_eq!(
            directed(|| assert_eq!(t.get(k), Some(value_for(k)))),
            settled
        );
        assert_eq!(directed(|| assert!(t.remove(k))), settled);
        assert_eq!(directed(|| assert_eq!(t.get(k), None)), settled);
        assert_eq!(
            directed(|| assert_eq!(t.update(k, 5).unwrap(), None)),
            settled
        );
        directed_inserts += directed(|| assert_eq!(t.insert(k, 4242).unwrap(), None)).1;
        assert_eq!(directed(|| assert_eq!(t.get(k), Some(4242))), settled);
    }
    assert_eq!(directed_inserts, 10);
    t.check_consistency(true).unwrap();
}

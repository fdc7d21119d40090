//! Leaf hints under concurrency and live reclamation.
//!
//! A tree handle remembers `key → leaf` in DRAM and tries that leaf before
//! descending (`FastFairTree`'s leaf-hint table). These tests drive the
//! public API only, with the table warm (a handle allocates it after a few
//! thousand point operations), on every layout variant with 256-byte nodes:
//!
//! * a differential — two readers, two writers and a deleter against
//!   `BTreeMap` models — in which every hinted answer must be the answer a
//!   descent would have given;
//! * two trees sharing one pool, so that a leaf one tree retires comes
//!   back from the allocator as the other's leaf or internal node while
//!   hints naming it are still in the first tree's table: no read may
//!   return, and no update may touch, the other tree's data.
//!
//! CI's `service-soak` job runs this file with `FF_EPOCH_STRESS=1`, which
//! makes every unpin advance the epoch and collect, so blocks are recycled
//! as early as the epoch rule allows.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fastfair::{FastFairTree, TreeOptions};
use pmem::{stats, Pool, PoolConfig};
use pmindex::workload::value_for;
use pmindex::PmIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn variants() -> [(&'static str, TreeOptions); 4] {
    let tiny = TreeOptions::new().node_size(256);
    [
        ("base", tiny),
        ("fp", tiny.fingerprints(true)),
        ("circ", tiny.circular(true)),
        ("fp+circ", tiny.fingerprints(true).circular(true)),
    ]
}

/// Reads `keys` until reads of them are being answered through hints.
fn warm(tree: &FastFairTree, keys: &[u64]) {
    let before = stats::snapshot().leaf_hint_hits;
    for _ in 0..=5_000 / keys.len() + 2 {
        for &k in keys {
            tree.get(k);
        }
    }
    let hits = stats::snapshot().leaf_hint_hits - before;
    assert!(hits >= keys.len() as u64, "table still cold: {hits} hits");
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

    for (name, opts) in variants() {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
        let tree = Arc::new(FastFairTree::create(Arc::clone(&pool), opts).unwrap());
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
            // The deleter fills its band, reads it (hinting every key) and
            // removes it again: every round unlinks and retires ~80 leaves,
            // bumping the generation under everyone else's feet.
            s.spawn(|| {
                let _done = SetOnDrop(&done);
                for round in 0..ROUNDS {
                    for k in BAND_BASE..BAND_BASE + BAND {
                        assert_eq!(tree.insert(k, value_for(k + round)).unwrap(), None);
                    }
                    for k in BAND_BASE..BAND_BASE + BAND {
                        assert_eq!(tree.get(k), Some(value_for(k + round)), "{name}");
                    }
                    for k in BAND_BASE..BAND_BASE + BAND {
                        assert!(tree.remove(k), "{name}: band key {k} missing");
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
                                assert_eq!(tree.update(k, v).unwrap(), old, "{name}: update {k}");
                                if old.is_some() {
                                    model.insert(k, v);
                                }
                            }
                            2 => assert_eq!(tree.remove(k), model.remove(&k).is_some()),
                            _ => assert_eq!(tree.get(k), model.get(&k).copied(), "{name}: {k}"),
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
                        assert_eq!(tree.get(k), stable_model.get(&k).copied(), "{name}: {k}");
                        // A band key is absent or carries one of its
                        // round's values; an absent key never hits a hint.
                        let b = BAND_BASE + rng.gen_range(0..BAND);
                        if let Some(v) = tree.get(b) {
                            assert!(
                                (0..ROUNDS).any(|round| v == value_for(b + round)),
                                "{name}: band key {b} read {v}"
                            );
                        }
                    }
                    hinted.fetch_add(stats::snapshot().leaf_hint_hits - before, Ordering::Relaxed);
                });
            }
        });
        assert!(
            hinted.load(Ordering::Relaxed) > 0,
            "{name}: no hinted access"
        );

        let mut want: Vec<(u64, u64)> = models.into_iter().flatten().collect();
        want.sort_unstable();
        let mut got = Vec::new();
        tree.range(0, u64::MAX, &mut got);
        assert_eq!(got, want, "{name}: final contents differ from the models");
        tree.check_consistency(true)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn two_trees_one_pool_never_read_each_other_through_a_stale_hint() {
    const STABLE: u64 = 1_200;
    const BAND: u64 = 300;
    const BAND_BASE: u64 = 1_000_000;
    const ROUNDS: u64 = 15;
    // Tree `t`'s values have parity `t`, so a value says whose it is.
    let val = |t: u64, k: u64, round: u64| 2 * (k + round) + 2 + t;

    for (name, opts) in variants() {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
        let trees: Vec<FastFairTree> = (0..2)
            .map(|_| FastFairTree::create(Arc::clone(&pool), opts).unwrap())
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
                // Churn: fill the band, hint it, empty it. The leaves this
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
                                "{name}: tree {t} read {v:?} for {k}"
                            );
                        }
                        for k in BAND_BASE..BAND_BASE + BAND {
                            assert!(tree.remove(k));
                        }
                    }
                });
                // Hinted reads and hinted in-place updates of band keys
                // whose leaves keep leaving the tree.
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(7 + t);
                    while !all_done() {
                        let k = BAND_BASE + rng.gen_range(0..BAND);
                        if let Some(v) = tree.get(k) {
                            assert_eq!(v % 2, t, "{name}: tree {t} read {v} for {k}");
                        }
                        let s = rng.gen_range(0..STABLE);
                        assert_eq!(tree.get(s), Some(val(t, s, 0)), "{name}: tree {t}");
                    }
                });
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(70 + t);
                    while !all_done() {
                        let k = BAND_BASE + rng.gen_range(0..BAND);
                        // Overwrites with a value the churn thread's own
                        // reads accept: same parity, some round's number.
                        if let Some(old) = tree.update(k, val(t, k, 0)).unwrap() {
                            assert_eq!(old % 2, t, "{name}: tree {t} replaced {old} at {k}");
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
                "{name}: tree {t} holds the other tree's value"
            );
            assert_eq!(
                rows.iter().filter(|&&(k, _)| k < STABLE).count() as u64,
                STABLE
            );
            tree.check_consistency(true)
                .unwrap_or_else(|e| panic!("{name}: tree {t}: {e}"));
        }
    }
}

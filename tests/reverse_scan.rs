//! Differential testing for reverse cursors: every backend's
//! `seek_for_prev`/`prev` must agree with `BTreeMap::range(..=t).rev()`
//! on identical contents — and stay correct while concurrent writers
//! split and merge the very leaves being walked.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fastfair_repro::pmem::{Pool, PoolConfig};
use fastfair_repro::pmindex::{Cursor, PmIndex};
use fastfair_repro::varkey::{ByteCursor, VarKeyIndex, VarKeyStore};
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
                fastfair_repro::fastfair::TreeOptions::new().leaf_locks(true),
            )
            .unwrap(),
        ),
        Box::new(fastfair_repro::fptree::FpTree::create(Arc::clone(pool)).unwrap()),
        Box::new(fastfair_repro::wbtree::WbTree::create(Arc::clone(pool)).unwrap()),
        Box::new(fastfair_repro::wort::Wort::create(Arc::clone(pool)).unwrap()),
        Box::new(fastfair_repro::pskiplist::PSkipList::create(Arc::clone(pool)).unwrap()),
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
                    bounds: vec![700, 1400],
                },
            )
            .unwrap(),
        ),
    ]
}

/// Drains a reverse cursor after `seek_for_prev(target)`.
fn reverse_from(idx: &dyn PmIndex, target: u64) -> Vec<(u64, u64)> {
    let mut cur = idx.cursor();
    cur.seek_for_prev(target);
    let mut got = Vec::new();
    while let Some(kv) = cur.prev() {
        got.push(kv);
    }
    // Exhaustion is stable: further prevs stay None.
    assert_eq!(cur.prev(), None, "{}: prev after exhaustion", idx.name());
    got
}

fn model_reverse_from(model: &BTreeMap<u64, u64>, target: u64) -> Vec<(u64, u64)> {
    model
        .range(..=target)
        .rev()
        .map(|(&k, &v)| (k, v))
        .collect()
}

#[test]
fn reverse_scans_agree_with_model_across_backends() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).unwrap());
    let mut rng = StdRng::seed_from_u64(0xd00d);
    // A churned keyspace: inserts then a third removed, so deleted-key
    // gaps (including carved leaf fronts) sit in every tree.
    let mut model = BTreeMap::new();
    let mut keys: Vec<u64> = (0..3000u64).map(|_| rng.gen_range(1..100_000)).collect();
    keys.sort_unstable();
    keys.dedup();
    for idx in all_indexes(&pool) {
        model.clear();
        for &k in &keys {
            idx.insert(k, k + 7).unwrap();
            model.insert(k, k + 7);
        }
        for &k in keys.iter().step_by(3) {
            assert!(idx.remove(k), "{}: remove {k}", idx.name());
            model.remove(&k);
        }

        // Bare prev: a fresh cursor walks the whole keyspace descending.
        let all_rev: Vec<(u64, u64)> = model.iter().rev().map(|(&k, &v)| (k, v)).collect();
        let mut cur = idx.cursor();
        let mut got = Vec::new();
        while let Some(kv) = cur.prev() {
            got.push(kv);
        }
        assert_eq!(got, all_rev, "{}: bare reverse walk", idx.name());

        // Forward and reverse are mirror images.
        let mut fwd = Vec::new();
        let mut cur = idx.cursor();
        cur.seek(0);
        while let Some(kv) = cur.next() {
            fwd.push(kv);
        }
        fwd.reverse();
        assert_eq!(fwd, all_rev, "{}: forward/reverse mirror", idx.name());

        // Bounded reverse scans from present keys, absent keys, gaps
        // left by removals, below-min and above-max targets.
        let mut targets: Vec<u64> = (0..40).map(|_| rng.gen_range(0..110_000)).collect();
        targets.extend([0, 1, u64::MAX, u64::MAX - 1]);
        targets.extend(model.keys().take(5).copied()); // exact hits
        for &t in &targets {
            assert_eq!(
                reverse_from(idx.as_ref(), t),
                model_reverse_from(&model, t),
                "{}: reverse from {t}",
                idx.name()
            );
        }

        // Direction changes go through a re-seek: a reverse cursor
        // yields nothing forward, and re-seeking revives it.
        let mut cur = idx.cursor();
        cur.seek_for_prev(u64::MAX);
        let first_back = cur.prev();
        assert_eq!(first_back, all_rev.first().copied(), "{}", idx.name());
        assert_eq!(cur.next(), None, "{}: next on a reverse cursor", idx.name());
        cur.seek(0);
        assert_eq!(
            cur.next(),
            model.iter().next().map(|(&k, &v)| (k, v)),
            "{}: re-seek forward after reverse",
            idx.name()
        );
    }
}

/// The leaf `seek_for_prev` located splits before the first `prev`: the
/// keys at and below the bound moved to a new right sibling, and the
/// cursor must follow them rather than read what stayed behind.
#[test]
fn a_reverse_cursor_follows_keys_its_located_leaf_split_away() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
    for idx in all_indexes(&pool) {
        for k in (10..=20_000u64).step_by(10) {
            idx.insert(k, k + 7).unwrap();
        }
        let mut cur = idx.cursor();
        cur.seek_for_prev(20_000);
        for k in 19_951..=19_999u64 {
            idx.insert(k, k + 7).unwrap();
        }
        let got: Vec<u64> = (0..3).filter_map(|_| cur.prev()).map(|(k, _)| k).collect();
        assert_eq!(got, [20_000, 19_999, 19_998], "{}", idx.name());
    }
}

#[test]
fn varkey_reverse_scans_agree_with_model() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(64 << 20)).unwrap());
    let tree = fastfair_repro::fastfair::FastFairTree::create(
        Arc::clone(&pool),
        fastfair_repro::fastfair::TreeOptions::new(),
    )
    .unwrap();
    let store = VarKeyStore::new(tree, Arc::clone(&pool));
    let mut rng = StdRng::seed_from_u64(0xcafe);

    // Inline (short) and overflow-chain (long, shared-prefix) keys mixed.
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for i in 0..600u64 {
        let key = match i % 3 {
            0 => format!("s{:03}", rng.gen_range(0..400)).into_bytes(),
            1 => format!("chain:shared-prefix-{:04}", rng.gen_range(0..200)).into_bytes(),
            _ => format!("mix{:02}:tail-{:05}", i % 7, rng.gen_range(0..9000)).into_bytes(),
        };
        let v = i + 1;
        store.insert(&key, v).unwrap();
        model.insert(key, v);
    }
    let removed: Vec<Vec<u8>> = model.keys().step_by(4).cloned().collect();
    for k in &removed {
        assert!(store.remove(k));
        model.remove(k);
    }

    // Bare prev: whole store descending.
    let all_rev: Vec<(Vec<u8>, u64)> = model.iter().rev().map(|(k, &v)| (k.clone(), v)).collect();
    let mut cur = store.cursor();
    let mut got = Vec::new();
    while let Some(kv) = cur.prev() {
        got.push(kv);
    }
    assert_eq!(got, all_rev, "bare reverse walk");

    // Bounded: present keys, removed keys, prefixes, and out-of-range
    // targets on both ends.
    let mut targets: Vec<Vec<u8>> = model.keys().step_by(37).cloned().collect();
    targets.extend(removed.iter().take(10).cloned());
    targets.extend([
        b"".to_vec(),
        b"chain:".to_vec(),
        b"chain:shared-prefix-0100".to_vec(),
        b"zzzz-above-everything".to_vec(),
        b"a".to_vec(),
    ]);
    for t in &targets {
        let mut cur = store.cursor();
        cur.seek_for_prev(t);
        let mut got = Vec::new();
        while let Some(kv) = cur.prev() {
            got.push(kv);
        }
        let want: Vec<(Vec<u8>, u64)> = model
            .iter()
            .rev()
            .filter(|(k, _)| k.as_slice() <= t.as_slice())
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        assert_eq!(got, want, "reverse from {:?}", String::from_utf8_lossy(t));
    }
}

#[test]
fn reverse_scan_survives_concurrent_splits_and_merges() {
    // A frozen lattice of even keys shares its leaves with churning odd
    // keys. Writers hammer inserts/removes (forcing FAIR splits and
    // merges in exactly the leaves being walked) while readers run full
    // reverse scans: every frozen key must appear, descending, with its
    // exact value; churn keys may come and go but may never tear the
    // scan (duplicates, ascents, or missing frozen keys).
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).unwrap());
    let contended: Vec<Arc<dyn PmIndex>> = vec![
        Arc::new(
            fastfair_repro::fastfair::FastFairTree::create(
                Arc::clone(&pool),
                fastfair_repro::fastfair::TreeOptions::new().node_size(256),
            )
            .unwrap(),
        ),
        Arc::new(
            fastfair_repro::shard::ShardedStore::<fastfair_repro::fastfair::FastFairTree>::create(
                Arc::clone(&pool),
                vec![Arc::clone(&pool); 2],
                fastfair_repro::shard::Partitioning::Range {
                    bounds: vec![1_000_000],
                },
            )
            .unwrap(),
        ),
        Arc::new(fastfair_repro::fptree::FpTree::create(Arc::clone(&pool)).unwrap()),
        Arc::new(fastfair_repro::wbtree::WbTree::create(Arc::clone(&pool)).unwrap()),
    ];
    const FROZEN: u64 = 500;
    for idx in &contended {
        for i in 0..FROZEN {
            idx.insert(i * 2 + 2, i + 1).unwrap();
        }

        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let idx = Arc::clone(idx);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(w);
                    while !stop.load(Ordering::Relaxed) {
                        let k = rng.gen_range(0..FROZEN) * 2 + 1; // odd: churn only
                        if rng.gen_bool(0.5) {
                            let _ = idx.insert(k, k + 1);
                        } else {
                            let _ = idx.remove(k);
                        }
                    }
                })
            })
            .collect();

        for _ in 0..40 {
            let mut cur = idx.cursor();
            cur.seek_for_prev(FROZEN * 2 + 1);
            let mut seen = Vec::new();
            let mut last = u64::MAX;
            while let Some((k, v)) = cur.prev() {
                assert!(k < last, "{}: reverse scan ascended at {k}", idx.name());
                last = k;
                if k % 2 == 0 {
                    assert_eq!(v, k / 2, "{}: frozen key {k} torn", idx.name());
                    seen.push(k);
                }
            }
            let want: Vec<u64> = (0..FROZEN).rev().map(|i| i * 2 + 2).collect();
            assert_eq!(seen, want, "{}: frozen keys under churn", idx.name());
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}

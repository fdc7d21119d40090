//! Unit and property tests for the FAST+FAIR tree.

use std::collections::BTreeMap;
use std::sync::Arc;

use pmem::{stats, Pool, PoolConfig};
use pmindex::workload::{generate_keys, value_for, KeyDist};
use pmindex::{Cursor, PmIndex};
use proptest::prelude::*;

use crate::{FastFairTree, InNodeSearch, SplitStrategy, TreeOptions};

fn pool(mb: usize) -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(mb << 20)).unwrap())
}

fn tree_with(pool: &Arc<Pool>, opts: TreeOptions) -> FastFairTree {
    FastFairTree::create(Arc::clone(pool), opts).unwrap()
}

fn small_tree() -> (Arc<Pool>, FastFairTree) {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new());
    (p, t)
}

#[test]
fn empty_tree_behaviour() {
    let (_p, t) = small_tree();
    assert_eq!(t.get(1), None);
    assert!(!t.remove(1));
    assert!(t.is_empty());
    assert_eq!(t.len(), 0);
    assert_eq!(t.height(), 0);
    let mut out = Vec::new();
    t.range(0, u64::MAX, &mut out);
    assert!(out.is_empty());
}

#[test]
fn single_insert_get_remove() {
    let (_p, t) = small_tree();
    t.insert(42, 4242).unwrap();
    assert_eq!(t.get(42), Some(4242));
    assert_eq!(t.get(41), None);
    assert_eq!(t.get(43), None);
    assert!(!t.is_empty());
    assert_eq!(t.len(), 1);
    assert!(t.remove(42));
    assert_eq!(t.get(42), None);
    assert!(t.is_empty());
}

#[test]
fn reserved_values_rejected() {
    let (_p, t) = small_tree();
    assert!(t.insert(1, 0).is_err());
    assert!(t.insert(1, u64::MAX).is_err());
}

#[test]
fn upsert_replaces_value() {
    let (_p, t) = small_tree();
    assert_eq!(t.insert(7, 100).unwrap(), None);
    assert_eq!(t.insert(7, 200).unwrap(), Some(100));
    assert_eq!(t.get(7), Some(200));
    assert_eq!(t.len(), 1);
    // Upserting the same value is a no-op that still reports the old one.
    assert_eq!(t.insert(7, 200).unwrap(), Some(200));
}

#[test]
fn update_only_touches_existing_keys() {
    let (_p, t) = small_tree();
    let keys = generate_keys(5000, KeyDist::Uniform, 71);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    let probe = keys[123];
    assert_eq!(t.update(probe, 999_999).unwrap(), Some(value_for(probe)));
    assert_eq!(t.get(probe), Some(999_999));
    // Absent key: no insert, tree size unchanged.
    let absent = keys.iter().fold(1u64, |a, &k| a.wrapping_add(k)) | 1;
    if !keys.contains(&absent) {
        assert_eq!(t.update(absent, 7).unwrap(), None);
        assert_eq!(t.get(absent), None);
    }
    assert_eq!(t.len(), keys.len());
    assert!(t.update(probe, 0).is_err());
    t.check_consistency(true).unwrap();
}

#[test]
fn cursor_streams_and_reseeks() {
    let (_p, t) = small_tree();
    let keys = generate_keys(10_000, KeyDist::Uniform, 73);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut c = t.cursor();
    let mut seen = Vec::new();
    while let Some((k, v)) = c.next() {
        assert_eq!(v, value_for(k));
        seen.push(k);
    }
    assert_eq!(seen, sorted);
    // Reuse via seek, including a seek backwards.
    c.seek(sorted[5000]);
    assert_eq!(c.next(), Some((sorted[5000], value_for(sorted[5000]))));
    c.seek(sorted[10]);
    assert_eq!(c.next(), Some((sorted[10], value_for(sorted[10]))));
    // Seek between two keys lands on the successor.
    if sorted[20] + 1 < sorted[21] {
        c.seek(sorted[20] + 1);
        assert_eq!(c.next(), Some((sorted[21], value_for(sorted[21]))));
    }
    c.seek(u64::MAX);
    assert!(sorted.binary_search(&u64::MAX).is_err());
    assert_eq!(c.next(), None);
}

/// A reverse cursor whose located leaf splits before its first `prev`
/// still returns the keys at and below its bound, not the ones that stayed
/// in the leaf: the read confirms, after the entries, that the leaf still
/// covers the running upper bound, and re-locates when it does not.
#[test]
fn a_reverse_cursor_follows_the_upper_half_its_leaf_split_away() {
    let p = pool(16);
    let t = tiny_tree(&p);
    for k in (10..=100).step_by(10) {
        t.insert(k, value_for(k)).unwrap();
    }
    assert_eq!(t.height(), 0, "set-up: one leaf");
    let mut c = t.cursor();
    c.seek_for_prev(100);
    for k in 11..=50 {
        t.insert(k, value_for(k)).unwrap();
    }
    assert!(t.height() > 0, "set-up: the leaf split");
    let got: Vec<u64> = std::iter::from_fn(|| c.prev()).map(|(k, _)| k).collect();
    let want: Vec<u64> = (10..=100)
        .rev()
        .filter(|&k| k <= 50 || k % 10 == 0)
        .collect();
    assert_eq!(got, want);
}

#[test]
fn bulk_load_builds_packed_tree() {
    let (_p, t) = small_tree();
    let n = 20_000u64;
    let loaded = t
        .bulk_load(&mut (1..=n).map(|k| (k, value_for(k))))
        .unwrap();
    assert_eq!(loaded, n as usize);
    assert_eq!(t.len(), n as usize);
    t.check_consistency(true).unwrap();
    for k in (1..=n).step_by(97) {
        assert_eq!(t.get(k), Some(value_for(k)), "key {k}");
    }
    // Leaves are fully packed: node count is near the theoretical minimum.
    let report = t.check_consistency(true).unwrap();
    let cap = t.node_capacity() as usize;
    let min_leaves = (n as usize).div_ceil(cap);
    assert!(
        report.nodes < 2 * min_leaves + 8,
        "bulk load under-packed: {} nodes for {} keys (min leaves {})",
        report.nodes,
        n,
        min_leaves
    );
    // The loaded tree accepts the full write path afterwards.
    assert_eq!(t.insert(0x5555_5555, 42).unwrap(), None);
    assert!(t.remove(7));
    t.check_consistency(true).unwrap();
}

#[test]
fn bulk_load_flushes_once_per_line() {
    let (_p, t) = small_tree();
    let n = 10_000u64;
    stats::reset();
    t.bulk_load(&mut (1..=n).map(|k| (k, value_for(k))))
        .unwrap();
    let s = stats::take();
    // Every node is persisted exactly once: node_size/64 flushes per node
    // plus the root-pointer commit. With 512-byte nodes and 26-record
    // leaves that is well under one flush per record; loop-insertion costs
    // several per record.
    let per_key = s.flushes as f64 / n as f64;
    assert!(per_key < 1.0, "bulk load flushed {per_key} lines per key");
}

#[test]
fn bulk_load_tolerates_stragglers_and_falls_back_when_nonempty() {
    let (_p, t) = small_tree();
    // Out-of-order and duplicate items are routed through normal inserts.
    let items = [(10u64, 1u64), (20, 2), (15, 3), (20, 4), (30, 5)];
    let loaded = t.bulk_load(&mut items.iter().copied()).unwrap();
    assert_eq!(loaded, 4); // 10, 20, 15, 30 — the second 20 upserts
    assert_eq!(t.get(15), Some(3));
    assert_eq!(t.get(20), Some(4));
    t.check_consistency(true).unwrap();
    // Non-empty tree: bulk_load degrades to loop-insert and still counts
    // only fresh keys.
    let more = [(5u64, 6u64), (20, 7), (40, 8)];
    assert_eq!(t.bulk_load(&mut more.iter().copied()).unwrap(), 2);
    assert_eq!(t.get(20), Some(7));
    assert_eq!(t.len(), 6);
    t.check_consistency(true).unwrap();
    // Reserved values are rejected on the packed path…
    let (_p2, t2) = small_tree();
    assert!(t2.bulk_load(&mut [(1u64, 0u64)].iter().copied()).is_err());
    // …and on the non-empty fallback path.
    assert!(t.bulk_load(&mut [(90u64, 0u64)].iter().copied()).is_err());
    assert!(t
        .bulk_load(&mut [(91u64, u64::MAX)].iter().copied())
        .is_err());
    assert_eq!(t.get(90), None);
    assert_eq!(t.get(91), None);
}

#[test]
fn bulk_loaded_tree_survives_reopen() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new());
    t.bulk_load(&mut (1..=5000u64).map(|k| (k * 3, k))).unwrap();
    let meta = t.meta_offset();
    drop(t);
    let img = p.volatile_image();
    let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(64 << 20)).unwrap());
    let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new()).unwrap();
    for k in (1..=5000u64).step_by(61) {
        assert_eq!(t2.get(k * 3), Some(k));
    }
    t2.check_consistency(true).unwrap();
}

#[test]
fn merged_leaves_are_recycled_for_reuse() {
    let (_p, t) = small_tree();
    for k in 1..=2000u64 {
        t.insert(k, k + 1).unwrap();
    }
    // Wipe a wide middle band so whole leaves empty and get unlinked.
    stats::reset();
    for k in 200..=1800u64 {
        assert!(t.remove(k));
    }
    let report = t.recover().unwrap();
    let snap = stats::take();
    // Every unlinked leaf was freed exactly once: either online by the
    // epoch collector riding the delete traffic, or by recover's flush
    // of whatever was still in limbo — the two paths partition the total.
    assert!(
        snap.nodes_recycled > 0,
        "no unlinked leaves were recycled: {report:?}"
    );
    assert_eq!(
        snap.nodes_recycled,
        snap.nodes_recycled_online + report.nodes_recycled as u64
    );
    // The free list serves the next allocations: inserting the band back
    // reuses recycled nodes instead of growing the pool.
    let high_water = t.pool().high_water();
    for k in 200..=400u64 {
        t.insert(k, k + 1).unwrap();
    }
    assert_eq!(
        t.pool().high_water(),
        high_water,
        "recycled nodes not reused"
    );
    t.check_consistency(true).unwrap();
}

/// The tentpole concurrency guarantee: a lock-free cursor running during
/// concurrent inserts (with splits) observes every key committed before its
/// seek, nothing duplicated, in strictly ascending order.
#[test]
fn cursor_during_concurrent_inserts_sees_committed_keys_once() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new().node_size(256)));
    let committed = generate_keys(8_000, KeyDist::Uniform, 79);
    for &k in &committed {
        t.insert(k, value_for(k)).unwrap();
    }
    let mut committed_sorted = committed.clone();
    committed_sorted.sort_unstable();
    let fresh = generate_keys(8_000, KeyDist::Uniform, 83);
    let committed_set: std::collections::HashSet<u64> = committed.iter().copied().collect();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let fresh = &fresh;
            s.spawn(move || {
                for &k in fresh {
                    t.insert(k, value_for(k)).unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
        }
        for reader in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let committed_sorted = &committed_sorted;
            let committed_set = &committed_set;
            s.spawn(move || {
                let mut rounds = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) || rounds == 0 {
                    let mut c = t.cursor();
                    // Alternate full scans with mid-key seeks.
                    let start_rank = if rounds.is_multiple_of(2) {
                        0
                    } else {
                        (rounds * 997 + reader) % committed_sorted.len()
                    };
                    c.seek(committed_sorted[start_rank]);
                    let mut expected = committed_sorted[start_rank..].iter().copied();
                    let mut prev: Option<u64> = None;
                    while let Some((k, v)) = c.next() {
                        // Strictly ascending, never duplicated.
                        assert!(prev.is_none_or(|p| k > p), "cursor regressed at {k}");
                        prev = Some(k);
                        if committed_set.contains(&k) {
                            // Every pre-seek key must appear, in order.
                            assert_eq!(
                                expected.next(),
                                Some(k),
                                "cursor skipped a committed key before {k}"
                            );
                            assert_eq!(v, value_for(k));
                        }
                    }
                    assert_eq!(
                        expected.next(),
                        None,
                        "cursor missed committed keys at the tail"
                    );
                    rounds += 1;
                }
            });
        }
    });
    t.check_consistency(true).unwrap();
}

/// Regression: adjacent keys carrying the *same value* must all stay
/// visible. The paper's pointer-duplication validity test silently dropped
/// every entry whose value equalled its left neighbour's — the poison
/// sentinel protocol (see `layout`) detects shifts exactly instead.
#[test]
fn duplicate_values_across_keys_are_preserved() {
    let (_p, t) = small_tree();
    // Enough keys to force splits, all with one shared value, interleaved
    // so shifts land new entries between equal-valued neighbours.
    for k in (1..=600u64).step_by(2) {
        t.insert(k, 7).unwrap();
    }
    for k in (2..=600u64).step_by(2) {
        t.insert(k, 7).unwrap();
    }
    for k in 1..=600 {
        assert_eq!(t.get(k), Some(7), "key {k} lost its duplicated value");
    }
    assert_eq!(t.len(), 600);
    let mut out = Vec::new();
    t.range(0, u64::MAX, &mut out);
    assert_eq!(out.len(), 600);
    assert!(out.iter().all(|&(_, v)| v == 7));
    // Deletes around equal-valued neighbours must not take bystanders.
    for k in (3..=600u64).step_by(3) {
        assert!(t.remove(k), "key {k} missing before remove");
    }
    for k in 1..=600 {
        let expect = if k % 3 == 0 { None } else { Some(7) };
        assert_eq!(t.get(k), expect, "key {k} wrong after dup-value deletes");
    }
    t.check_consistency(true).unwrap();
}

/// Same regression for the bulk-load path: packed leaves with repeated
/// values must read back completely.
#[test]
fn bulk_load_preserves_duplicate_values() {
    let (_p, t) = small_tree();
    assert_eq!(t.bulk_load(&mut (1..=500).map(|k| (k, 9))).unwrap(), 500);
    for k in 1..=500 {
        assert_eq!(t.get(k), Some(9), "bulk-loaded key {k} lost its value");
    }
    assert_eq!(t.len(), 500);
    t.check_consistency(true).unwrap();
}

#[test]
fn ascending_inserts_split_correctly() {
    let (_p, t) = small_tree();
    let n = 5000u64;
    for k in 1..=n {
        t.insert(k, k + 1).unwrap();
    }
    assert!(t.height() >= 1);
    for k in 1..=n {
        assert_eq!(t.get(k), Some(k + 1), "key {k}");
    }
    t.check_consistency(true).unwrap();
}

#[test]
fn descending_inserts_exercise_slot_zero() {
    let (_p, t) = small_tree();
    let n = 3000u64;
    for k in (1..=n).rev() {
        t.insert(k, k + 1).unwrap();
    }
    for k in 1..=n {
        assert_eq!(t.get(k), Some(k + 1), "key {k}");
    }
    t.check_consistency(true).unwrap();
}

#[test]
fn random_inserts_and_lookups() {
    let (_p, t) = small_tree();
    let keys = generate_keys(20_000, KeyDist::Uniform, 7);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)));
    }
    assert_eq!(t.len(), keys.len());
    t.check_consistency(true).unwrap();
}

#[test]
fn deletes_interleaved_with_inserts() {
    let (_p, t) = small_tree();
    let keys = generate_keys(8000, KeyDist::Uniform, 13);
    let mut model = BTreeMap::new();
    for (i, &k) in keys.iter().enumerate() {
        t.insert(k, value_for(k)).unwrap();
        model.insert(k, value_for(k));
        if i % 3 == 0 {
            let victim = keys[i / 2];
            assert_eq!(t.remove(victim), model.remove(&victim).is_some());
        }
    }
    for (&k, &v) in &model {
        assert_eq!(t.get(k), Some(v), "key {k}");
    }
    assert_eq!(t.len(), model.len());
    t.check_consistency(true).unwrap();
}

#[test]
fn delete_all_keys_leaves_empty_tree() {
    let (_p, t) = small_tree();
    let keys = generate_keys(2000, KeyDist::DenseShuffled, 3);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in &keys {
        assert!(t.remove(k), "key {k}");
    }
    assert!(t.is_empty());
    for &k in &keys {
        assert_eq!(t.get(k), None);
    }
    t.check_consistency(true).unwrap();
}

#[test]
fn range_scan_matches_model() {
    let (_p, t) = small_tree();
    let keys = generate_keys(10_000, KeyDist::Uniform, 17);
    let mut model = BTreeMap::new();
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
        model.insert(k, value_for(k));
    }
    let mut sorted: Vec<u64> = keys.clone();
    sorted.sort_unstable();
    for (lo_i, span) in [(0usize, 50usize), (100, 1000), (5000, 3000), (9990, 100)] {
        let lo = sorted[lo_i];
        let hi = sorted.get(lo_i + span).copied().unwrap_or(u64::MAX);
        let mut got = Vec::new();
        t.range(lo, hi, &mut got);
        let want: Vec<(u64, u64)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "range [{lo}, {hi})");
    }
}

#[test]
fn full_iteration_is_sorted_and_complete() {
    let (_p, t) = small_tree();
    let keys = generate_keys(5000, KeyDist::Uniform, 23);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    let mut seen = Vec::new();
    t.for_each(|k, v| {
        assert_eq!(v, value_for(k));
        seen.push(k);
    });
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(seen, sorted);
}

#[test]
fn all_node_sizes_work() {
    for size in [256u32, 512, 1024, 2048, 4096] {
        let p = pool(64);
        let t = tree_with(&p, TreeOptions::new().node_size(size));
        let keys = generate_keys(3000, KeyDist::Uniform, u64::from(size));
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        for &k in &keys {
            assert_eq!(t.get(k), Some(value_for(k)), "size {size} key {k}");
        }
        t.check_consistency(true).unwrap();
    }
}

#[test]
fn binary_search_variant_matches_linear() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new().search(InNodeSearch::Binary));
    let keys = generate_keys(5000, KeyDist::Uniform, 29);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)));
    }
    assert_eq!(
        t.get(keys[0].wrapping_add(1)).is_some(),
        keys.contains(&(keys[0].wrapping_add(1)))
    );
}

#[test]
fn leaflock_variant_works() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new().leaf_locks(true));
    assert_eq!(t.name(), "FAST+FAIR+LeafLock");
    let keys = generate_keys(3000, KeyDist::Uniform, 31);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)));
    }
    let mut out = Vec::new();
    t.range(0, u64::MAX, &mut out);
    assert_eq!(out.len(), keys.len());
}

#[test]
fn logging_variant_works_and_is_flush_heavier() {
    let p1 = pool(64);
    let fair = tree_with(&p1, TreeOptions::new());
    let p2 = pool(64);
    let logging = tree_with(&p2, TreeOptions::new().split(SplitStrategy::Logging));
    assert_eq!(logging.name(), "FAST+Logging");
    let keys = generate_keys(5000, KeyDist::Uniform, 37);

    stats::reset();
    for &k in &keys {
        fair.insert(k, value_for(k)).unwrap();
    }
    let fair_flushes = stats::take().flushes;

    stats::reset();
    for &k in &keys {
        logging.insert(k, value_for(k)).unwrap();
    }
    let logging_flushes = stats::take().flushes;

    for &k in &keys {
        assert_eq!(logging.get(k), Some(value_for(k)));
    }
    logging.check_consistency(true).unwrap();
    assert!(
        logging_flushes > fair_flushes,
        "logging {logging_flushes} vs fair {fair_flushes}"
    );
}

#[test]
fn flush_count_matches_paper_ballpark() {
    // §5.2: a 512-byte node spans 8 cache lines, so FAST needs at most 8
    // flushes and ~4 on average per insert (plus amortized split cost).
    let (_p, t) = small_tree();
    let keys = generate_keys(20_000, KeyDist::Uniform, 41);
    for &k in &keys[..10_000] {
        t.insert(k, value_for(k)).unwrap();
    }
    stats::reset();
    for &k in &keys[10_000..] {
        t.insert(k, value_for(k)).unwrap();
    }
    let s = stats::take();
    let per_insert = s.flushes as f64 / 10_000.0;
    assert!(
        (1.0..=8.0).contains(&per_insert),
        "avg flushes per insert = {per_insert}"
    );
}

#[test]
fn reopen_after_clean_shutdown() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new());
    let keys = generate_keys(4000, KeyDist::Uniform, 43);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    let meta = t.meta_offset();
    drop(t);
    let img = p.volatile_image();
    let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(64 << 20)).unwrap());
    let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new()).unwrap();
    for &k in &keys {
        assert_eq!(t2.get(k), Some(value_for(k)));
    }
    t2.check_consistency(true).unwrap();
    // The reopened tree accepts writes.
    t2.insert(keys[0].wrapping_add(2), 777).unwrap();
}

#[test]
fn open_rejects_bad_magic() {
    let p = pool(1);
    let off = p.alloc(64, 64).unwrap();
    assert!(FastFairTree::open(Arc::clone(&p), off, TreeOptions::new()).is_err());
}

#[test]
fn recover_on_healthy_tree_is_noop() {
    let (_p, t) = small_tree();
    for k in 1..2000u64 {
        t.insert(k, k + 1).unwrap();
    }
    let r = t.recover().unwrap();
    assert_eq!(r.garbage_removed, 0);
    assert_eq!(r.splits_completed, 0);
    assert_eq!(r.siblings_attached, 0);
    t.check_consistency(true).unwrap();
    for k in 1..2000u64 {
        assert_eq!(t.get(k), Some(k + 1));
    }
}

#[test]
fn concurrent_inserts_are_linearizable() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new()));
    let keys = generate_keys(40_000, KeyDist::Uniform, 47);
    let chunks = pmindex::workload::partition(&keys, 4);
    std::thread::scope(|s| {
        for chunk in &chunks {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for &k in chunk {
                    t.insert(k, value_for(k)).unwrap();
                }
            });
        }
    });
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)));
    }
    t.check_consistency(true).unwrap();
}

#[test]
fn concurrent_readers_during_writes_see_committed_keys() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new()));
    let preload = generate_keys(20_000, KeyDist::Uniform, 53);
    for &k in &preload {
        t.insert(k, value_for(k)).unwrap();
    }
    let fresh = generate_keys(20_000, KeyDist::Uniform, 59);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for &k in &fresh {
                    t.insert(k, value_for(k)).unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
        }
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let preload = &preload;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let k = preload[i % preload.len()];
                    // Preloaded keys must always be visible to lock-free
                    // readers, whatever the concurrent writer is doing.
                    assert_eq!(t.get(k), Some(value_for(k)), "lost key {k}");
                    i += 1;
                }
            });
        }
    });
    t.check_consistency(true).unwrap();
}

#[test]
fn concurrent_mixed_workload() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new()));
    let preload = generate_keys(10_000, KeyDist::Uniform, 61);
    for &k in &preload {
        t.insert(k, value_for(k)).unwrap();
    }
    let fresh = generate_keys(8_000, KeyDist::Uniform, 67);
    let chunks = pmindex::workload::partition(&fresh, 4);
    std::thread::scope(|s| {
        for (id, chunk) in chunks.iter().enumerate() {
            let t = Arc::clone(&t);
            let preload = &preload;
            s.spawn(move || {
                let ops = pmindex::workload::mixed_ops(preload, chunk, chunk.len() / 4, id as u64);
                for op in ops {
                    match op {
                        pmindex::workload::Op::Insert(k) => {
                            assert_eq!(t.insert(k, value_for(k)).unwrap(), None);
                        }
                        pmindex::workload::Op::Search(k) => {
                            assert_eq!(t.get(k), Some(value_for(k)));
                        }
                        pmindex::workload::Op::Delete(k) => {
                            assert!(t.remove(k));
                        }
                    }
                }
            });
        }
    });
    t.check_consistency(true).unwrap();
}

/// The tree matches a model under the shapes that stress the FAST shift:
/// random churn, descending inserts (every insert lands in slot 0),
/// low-slot deletes, and equal adjacent values.
#[test]
fn match_model() {
    for node_size in [256u32, 512, 1024] {
        let p = pool(128);
        let t = tree_with(&p, TreeOptions::new().node_size(node_size));
        let mut model = BTreeMap::new();
        // Descending inserts drive every insert through the lowest
        // slot — the longest FAST shift.
        for k in (1..=2000u64).rev() {
            t.insert(k, value_for(k)).unwrap();
            model.insert(k, value_for(k));
        }
        // Random churn with equal adjacent values (equal *values* stress
        // the validity test).
        let keys = generate_keys(4000, KeyDist::Uniform, u64::from(node_size) + 7);
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, 7).unwrap();
            model.insert(k, 7);
            if i % 3 == 0 {
                let victim = keys[i / 2];
                assert_eq!(
                    t.remove(victim),
                    model.remove(&victim).is_some(),
                    "{node_size}: remove {victim}"
                );
            }
        }
        // Low-slot deletes: removing ascending prefixes shifts whole
        // nodes left.
        let low: Vec<u64> = model.keys().copied().take(500).collect();
        for k in low {
            assert!(t.remove(k), "{node_size}: low delete {k}");
            model.remove(&k);
        }
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(v), "{node_size}: key {k}");
        }
        assert_eq!(t.len(), model.len(), "{node_size}");
        let mut got = Vec::new();
        t.range(0, u64::MAX, &mut got);
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "{node_size}: range mismatch");
        t.check_consistency(true)
            .unwrap_or_else(|e| panic!("{node_size}: {e}"));
    }
}

/// The strategy bit in the superblock reconstructs the split strategy on
/// open: a tree reopened from its image with default options keeps its
/// name and every key, before and after an eager recover.
#[test]
fn survive_reopen() {
    for (split, expect_name) in [
        (SplitStrategy::Fair, "FAST+FAIR"),
        (SplitStrategy::Logging, "FAST+Logging"),
    ] {
        let p = pool(64);
        let t = tree_with(&p, TreeOptions::new().split(split));
        assert_eq!(t.name(), expect_name);
        let keys = generate_keys(3000, KeyDist::Uniform, 89);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let meta = t.meta_offset();
        drop(t);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(64 << 20)).unwrap());
        let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new()).unwrap();
        assert_eq!(t2.name(), expect_name, "{split:?}: strategy lost on reopen");
        for &k in &keys {
            assert_eq!(t2.get(k), Some(value_for(k)), "{split:?}: key {k}");
        }
        t2.recover().unwrap();
        for &k in &keys {
            assert_eq!(t2.get(k), Some(value_for(k)), "{split:?}: post-recover {k}");
        }
        t2.check_consistency(true).unwrap();
    }
}

/// A superblock whose strategy tag carries bit 1 or bit 2 — set by trees
/// of the removed leaf fingerprints and circular record frame — reopens as
/// an error naming that layout, never as a tree that would read its
/// records from the wrong slots.
#[test]
fn open_rejects_the_retired_circular_frame() {
    for (bit, layout) in [(2u64, "leaf fingerprints"), (4, "circular record frame")] {
        let p = pool(16);
        let t = tree_with(&p, TreeOptions::new());
        t.insert(1, value_for(1)).unwrap();
        let meta = t.meta_offset();
        drop(t);
        let strategy = meta + crate::tree::META_STRATEGY;
        p.store_u64(strategy, p.load_u64(strategy) | bit);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(16 << 20)).unwrap());
        match FastFairTree::open(p2, meta, TreeOptions::new()) {
            Err(pmindex::IndexError::Unsupported(msg)) => {
                assert!(msg.contains(layout), "{msg}");
                assert!(msg.contains("node layout was removed"), "{msg}");
            }
            other => panic!("reopened a tree with strategy bit {bit}: {other:?}"),
        }
    }
}

/// The retired bits are refused whatever the live bit 0 says: a logging
/// tree created with either removed layout, or with both bits set, is not
/// reopened either, and the error names the layout.
#[test]
fn open_rejects_a_logging_tree_with_a_retired_layout() {
    for (bits, layout) in [
        (2u64, "leaf fingerprints"),
        (4, "circular record frame"),
        (2 | 4, "leaf fingerprints"),
    ] {
        let p = pool(16);
        let t = tree_with(&p, TreeOptions::new().split(SplitStrategy::Logging));
        t.insert(1, value_for(1)).unwrap();
        let meta = t.meta_offset();
        drop(t);
        let strategy = meta + crate::tree::META_STRATEGY;
        assert_eq!(
            p.load_u64(strategy),
            1 | 8,
            "a logging tree sets bit 0 and the high-key bit"
        );
        p.store_u64(strategy, 1 | 8 | bits);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(16 << 20)).unwrap());
        match FastFairTree::open(p2, meta, TreeOptions::new()) {
            Err(pmindex::IndexError::Unsupported(msg)) => {
                assert!(msg.contains(layout), "{msg}");
            }
            other => panic!("reopened a logging tree with strategy bits {bits}: {other:?}"),
        }
    }
}

/// A superblock without strategy bit 3 belongs to a tree from before
/// nodes kept a high key: it reopens as an error, never as a tree whose
/// nodes would be bounded by whatever header word 56 holds.
#[test]
fn open_rejects_a_tree_without_high_keys() {
    for split in [SplitStrategy::Fair, SplitStrategy::Logging] {
        let p = pool(16);
        let t = tree_with(&p, TreeOptions::new().split(split));
        t.insert(1, value_for(1)).unwrap();
        let meta = t.meta_offset();
        drop(t);
        let strategy = meta + crate::tree::META_STRATEGY;
        assert_ne!(p.load_u64(strategy) & 8, 0, "{split:?}: bit 3 not set");
        p.store_u64(strategy, p.load_u64(strategy) & !8);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(16 << 20)).unwrap());
        match FastFairTree::open(p2, meta, TreeOptions::new()) {
            Err(pmindex::IndexError::Unsupported(msg)) => {
                assert!(msg.contains("high key"), "{msg}");
            }
            other => panic!("{split:?}: reopened a tree without high keys: {other:?}"),
        }
    }
}

/// The default tree is the paper's FAST+FAIR on 512-byte nodes whose
/// records start right after the 64-byte header line: 26 usable slots, and
/// a bulk load fills every leaf but the last to all 26.
#[test]
fn default_tree_is_fast_fair_at_full_capacity() {
    let (_p, t) = small_tree();
    assert_eq!(t.name(), "FAST+FAIR");
    assert_eq!(t.node_size(), 512);
    assert_eq!(t.node_capacity(), 26);
    assert_eq!(t.node_capacity(), crate::layout::capacity(512));
    let n = 26 * 40 + 5;
    t.bulk_load(&mut (1..=n).map(|k| (k, value_for(k))))
        .unwrap();
    let mut leaf = t.root();
    while !t.node(leaf).is_leaf() {
        leaf = t.node(leaf).leftmost();
    }
    let mut counts = Vec::new();
    while leaf != 0 {
        counts.push(t.node(leaf).count_records());
        leaf = t.node(leaf).sibling();
    }
    let (last, full) = counts.split_last().unwrap();
    assert_eq!(full, vec![26; 40].as_slice());
    assert_eq!(*last, 5);
    for k in (1..=n).step_by(7) {
        assert_eq!(t.get(k), Some(value_for(k)), "key {k}");
    }
}

/// A bulk-loaded tree serves reads and accepts the full write path
/// afterwards.
#[test]
fn bulk_load() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new());
    let n = 8000u64;
    t.bulk_load(&mut (1..=n).map(|k| (k, value_for(k))))
        .unwrap();
    for k in (1..=n).step_by(13) {
        assert_eq!(t.get(k), Some(value_for(k)), "bulk key {k}");
    }
    // The packed tree accepts the full write path afterwards.
    assert_eq!(t.insert(n + 1, 42).unwrap(), None);
    assert!(t.remove(7));
    t.check_consistency(true).unwrap();
}

/// Lock-free readers stay correct under concurrent writers: probes
/// revalidate the switch counter and retry.
#[test]
fn concurrent_readers() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new()));
    let preload = generate_keys(8_000, KeyDist::Uniform, 101);
    for &k in &preload {
        t.insert(k, value_for(k)).unwrap();
    }
    let fresh = generate_keys(8_000, KeyDist::Uniform, 103);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let fresh = &fresh;
            s.spawn(move || {
                for (i, &k) in fresh.iter().enumerate() {
                    t.insert(k, value_for(k)).unwrap();
                    if i % 4 == 0 {
                        t.remove(fresh[i / 2]);
                    }
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
        }
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let preload = &preload;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let k = preload[i % preload.len()];
                    assert_eq!(t.get(k), Some(value_for(k)), "lost key {k}");
                    i += 1;
                }
            });
        }
    });
    t.check_consistency(true).unwrap();
}

/// Delete-while-scanning: cursors running concurrently with deletes never
/// report a key twice or out of order (the shape that stresses left shifts
/// against right-to-left readers).
#[test]
fn delete_while_scanning() {
    let p = pool(128);
    let t = Arc::new(tree_with(&p, TreeOptions::new().node_size(256)));
    let keep: Vec<u64> = (1..=4000u64).filter(|k| k % 2 == 1).collect();
    for k in 1..=4000u64 {
        t.insert(k, value_for(k)).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for k in (2..=4000u64).step_by(2) {
                    assert!(t.remove(k), "delete {k}");
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
        }
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let keep = &keep;
            s.spawn(move || {
                let mut rounds = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) || rounds == 0 {
                    let mut c = t.cursor();
                    c.seek(0);
                    let mut expected = keep.iter().copied();
                    let mut prev: Option<u64> = None;
                    while let Some((k, v)) = c.next() {
                        assert!(prev.is_none_or(|p| k > p), "cursor regressed at {k}");
                        prev = Some(k);
                        if k % 2 == 1 {
                            // Odd keys are never deleted: all present,
                            // in order.
                            assert_eq!(
                                expected.next(),
                                Some(k),
                                "scan skipped surviving key before {k}"
                            );
                            assert_eq!(v, value_for(k));
                        }
                    }
                    assert_eq!(expected.next(), None, "scan missed tail keys");
                    rounds += 1;
                }
            });
        }
    });
    t.check_consistency(true).unwrap();
}

/// Algorithm 3's direction rule on the entry read behind every cursor: in
/// one leaf, a delete of the first key shifts every survivor one slot left
/// while scans run. Its switch counter went odd *before* the shift, so a
/// scan that read the odd counter sees the same value at its re-check; a
/// left-to-right scan of that window steps past a survivor the shift moves
/// into a slot it has already read, and nothing retries it. Scanning right
/// to left on an odd counter, as point search and routing do, cannot.
#[test]
fn scans_see_every_survivor_of_a_left_shift_in_one_leaf() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let p = pool(16);
    let t = tree_with(&p, TreeOptions::new().node_size(256));
    for k in (10..=100u64).step_by(10) {
        t.insert(k, k + 1).unwrap();
    }
    assert_eq!(t.height(), 0, "the probe needs one leaf");
    let survivors: Vec<(u64, u64)> = (20..=100u64).step_by(10).map(|k| (k, k + 1)).collect();
    let stop = AtomicBool::new(false);
    let bad = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..200_000 {
                assert!(t.remove(10));
                t.insert(10, 11).unwrap();
            }
            stop.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let mut c = t.cursor();
                    c.seek(0);
                    let mut seen = Vec::with_capacity(10);
                    while let Some(kv) = c.next() {
                        if kv.0 != 10 {
                            seen.push(kv);
                        }
                    }
                    if seen != survivors {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        bad.load(Ordering::Relaxed),
        0,
        "scans that missed a survivor"
    );
    t.check_consistency(true).unwrap();
}

/// An in-place overwrite is one pointer store — no shift, no switch-counter
/// bump — so a lock-free reader whose key match straddles it sees the
/// pointer change under it. It must look again, not step past the key: a
/// point read or a scan racing an update of a present key never misses it.
#[test]
fn readers_never_miss_a_key_being_overwritten_in_place() {
    let p = pool(16);
    let t = tree_with(&p, TreeOptions::new().node_size(256));
    for k in 1..=8u64 {
        t.insert(k, k + 100).unwrap();
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut v = 1_000u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                for k in 1..=8u64 {
                    v += 1;
                    assert!(t.update(k, v).unwrap().is_some());
                }
            }
        });
        // Stop the updater however the checks below end.
        struct Stop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::Release);
            }
        }
        let _stop = Stop(&stop);
        let mut rows = Vec::new();
        for round in 0..20_000u64 {
            let k = round % 8 + 1;
            assert!(t.get(k).is_some(), "get missed key {k}");
            rows.clear();
            t.range(0, u64::MAX, &mut rows);
            assert_eq!(rows.len(), 8, "scan missed a key: {rows:?}");
        }
    });
}

/// §5.6's scaling rests on one mechanism: a search takes no latch. With
/// the leaf that holds `k` write-latched by this very thread, a `get` and
/// a cursor still return `k`, by descent and through the leaf directory;
/// a search that took the latch would spin here forever.
#[test]
fn search_reads_through_a_write_latched_leaf() {
    let (_p, t) = small_tree();
    for k in 1..=2_000u64 {
        t.insert(k, value_for(k)).unwrap();
    }
    let k = 1_000;
    let latch = t.latch(t.find_leaf(k));
    let latched_read = || {
        let _held = crate::lock::WriteGuard::lock(latch);
        directed(|| {
            assert_eq!(t.get(k), Some(value_for(k)));
            let mut c = t.cursor();
            c.seek(k);
            assert_eq!(c.next(), Some((k, value_for(k))));
        })
    };
    assert_eq!(latched_read(), (2, 0), "by descent");
    rebuild(&t);
    assert_eq!(latched_read(), (2, 2), "through the directory");
    t.check_consistency(true).unwrap();
}

// ---- latches are handle state -----------------------------------------------
//
// The product reopens a tree with `open` alone; nothing resets a latch on
// that path, so a latch a crash image could hold would wedge the first
// writer that needs it. Each test takes an image while a latch is held,
// also sets header word 40 (where a pool written with latches in PM kept
// them) to a held writer latch, reopens without `recover`, and writes.

/// Sets word 40 of the header at `off` in `img` to a held writer latch of
/// the layout that kept latches in PM.
fn set_word_40(img: &mut [u8], off: u64) {
    let at = (off + 40) as usize;
    img[at..at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
}

/// Opens `img` as the product does, without `recover`, inserts `keys`
/// and reads them back, failing if that hangs.
fn reopen_and_insert(img: &[u8], meta: u64, keys: Vec<u64>) -> Arc<FastFairTree> {
    let p = Arc::new(Pool::from_image(img, PoolConfig::new().size(img.len())).unwrap());
    let t = Arc::new(FastFairTree::open(p, meta, TreeOptions::new()).unwrap());
    let writer = Arc::clone(&t);
    pmindex::workload::within(move || {
        for k in keys {
            writer.insert(k, value_for(k)).unwrap();
            assert_eq!(writer.get(k), Some(value_for(k)));
        }
    })
    .expect("insert after reopen: did not finish");
    t.check_consistency(false).unwrap();
    t
}

#[test]
fn an_image_taken_while_a_leaf_latch_is_held_reopens_writable() {
    let (p, t) = small_tree();
    for k in 1..=2_000u64 {
        t.insert(k * 2, value_for(k * 2)).unwrap();
    }
    let leaf = t.find_leaf(2_001);
    let held = crate::lock::WriteGuard::lock(t.latch(leaf));
    let mut img = p.volatile_image();
    drop(held);
    set_word_40(&mut img, leaf);
    let t2 = reopen_and_insert(&img, t.meta_offset(), vec![2_001, 1_999]);
    assert_eq!(t2.len(), 2_002);
}

#[test]
fn an_image_taken_while_the_root_growth_latch_is_held_reopens_writable() {
    let p = pool(1);
    let t = tree_with(&p, TreeOptions::new().node_size(256));
    for k in 1..=9u64 {
        t.insert(k * 10, value_for(k * 10)).unwrap();
    }
    assert_eq!(t.height(), 0);
    let held = crate::lock::WriteGuard::lock(&t.meta_latch);
    let mut img = p.volatile_image();
    drop(held);
    set_word_40(&mut img, t.meta_offset());
    let t2 = reopen_and_insert(&img, t.meta_offset(), (1..=9).map(|k| k * 10 + 5).collect());
    assert_eq!(t2.height(), 1, "the inserts grew the root");
}

// ---- leaf directory ---------------------------------------------------------
//
// The volatile `key range → leaf` directory in front of the descent
// (`crate::hint`). The tests build it on demand instead of serving the
// 4 096 regretted ops first, run with 256-byte nodes, and read the `leaf_hint_*` counters to tell a directed operation
// from a descent.

type LocateHook = Option<Box<dyn FnOnce(u64)>>;
thread_local! {
    /// One-shot callback `locate_leaf` runs on this thread right before it
    /// returns: the window between choosing a leaf and latching it.
    static AFTER_LOCATE: std::cell::RefCell<LocateHook> = const { std::cell::RefCell::new(None) };
}

pub(crate) fn after_locate(leaf: u64) {
    if let Some(f) = AFTER_LOCATE.with(|h| h.borrow_mut().take()) {
        f(leaf);
    }
}

fn tiny_tree(pool: &Arc<Pool>) -> FastFairTree {
    tree_with(pool, TreeOptions::new().node_size(256))
}

/// Builds the directory now, as the op that trips the rebuild rule would.
fn rebuild(t: &FastFairTree) {
    let before = stats::snapshot().leaf_hint_rebuilds;
    t.regret_directory(u64::from(u32::MAX));
    assert_eq!(stats::snapshot().leaf_hint_rebuilds, before + 1);
}

fn directory_entries(t: &FastFairTree) -> Vec<(u64, u64)> {
    t.directory.entries(&t.epoch().pin()).expect("no directory")
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

/// PM misses the model charged `f` on this thread.
fn misses(f: impl FnOnce()) -> u64 {
    let before = stats::snapshot().serial_misses;
    f();
    stats::snapshot().serial_misses - before
}

/// The keys of `keys` grouped by the leaf a descent finds them in.
fn keys_by_leaf(t: &FastFairTree, keys: impl Iterator<Item = u64>) -> BTreeMap<u64, Vec<u64>> {
    let mut by_leaf: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for k in keys {
        by_leaf.entry(t.find_leaf(k)).or_default().push(k);
    }
    by_leaf
}

/// Removes whole leaves' worth of keys, left to right, until `n` leaves
/// have been emptied, unlinked and retired; returns each with its keys.
fn retire_leaves(
    t: &FastFairTree,
    keys: std::ops::RangeInclusive<u64>,
    n: usize,
) -> Vec<(u64, Vec<u64>)> {
    let mut retired = Vec::new();
    for (leaf, ks) in keys_by_leaf(t, keys) {
        if retired.len() == n {
            break;
        }
        for &k in &ks {
            assert!(t.remove(k));
        }
        // The leftmost child of a parent is emptied but never unlinked.
        if t.node(leaf).is_deleted() {
            retired.push((leaf, ks));
        }
    }
    assert_eq!(retired.len(), n, "not enough leaves could be unlinked");
    retired
}

/// Routing entries above the leaves that name `child`.
fn routing_entries_for(t: &FastFairTree, child: u64) -> usize {
    t.level_chain(1)
        .into_iter()
        .flat_map(|p| t.node(p).valid_entries())
        .filter(|&(_, c)| c == child)
        .count()
}

/// Invariant 3: a key a FAIR split moved to the right sibling is found one
/// extra charged hop from the leaf the directory names, the hop is counted
/// as regret, and a rebuild clears it.
#[test]
fn hint_survives_a_split_that_moves_the_key_right() {
    let p = pool(16);
    let t = tiny_tree(&p);
    for k in 1..=60u64 {
        t.insert(k * 100, value_for(k)).unwrap();
    }
    assert!(t.height() >= 1);
    rebuild(&t);
    let (leaf, keys) = keys_by_leaf(&t, (1..=60).map(|k| k * 100))
        .into_iter()
        .nth(3)
        .unwrap();
    let (low, moved) = (keys[0], *keys.last().unwrap());
    assert_eq!(misses(|| assert!(t.get(moved).is_some())), 1);

    // Fill the leaf from below — directed fresh inserts — until it
    // splits and its upper half, `moved` included, goes right.
    let mut fresh = low;
    while t.find_leaf(moved) == leaf {
        fresh += 1;
        assert_eq!(
            directed(|| assert_eq!(t.insert(fresh, 5).unwrap(), None)),
            (1, 1)
        );
    }
    let regret = t.directory.regret_count();
    let mut hits = 0;
    assert_eq!(
        misses(|| hits = directed(|| assert!(t.get(moved).is_some())).1),
        2,
        "the named leaf, then its new sibling"
    );
    assert_eq!(hits, 1, "settled without a descent");
    assert_eq!(t.directory.regret_count(), regret + 1);
    // So does a directed writer: a hop is no sign of a dangling sibling, so
    // it does not look its new leaf up in the parent.
    assert_eq!(misses(|| assert!(t.update(moved, 7).unwrap().is_some())), 2);
    assert_eq!(misses(|| assert!(t.get(low).is_some())), 1);

    rebuild(&t);
    assert_eq!(t.directory.regret_count(), 0);
    assert_eq!(misses(|| assert_eq!(t.get(moved), Some(7))), 1);
    assert_eq!(t.directory.regret_count(), 0);
    t.check_consistency(true).unwrap();
}

/// Invariant 2, first half: taking a leaf off the tree bumps the
/// generation before the block is retired, and the directory built before
/// — which still names it — is not consulted again.
#[test]
fn unlinked_leaf_bumps_generation_and_hints_are_ignored() {
    let p = pool(16);
    let t = tiny_tree(&p);
    for k in 1..=200u64 {
        t.insert(k, value_for(k)).unwrap();
    }
    rebuild(&t);
    assert_eq!(
        directed(|| (1..=200).for_each(|k| assert!(t.get(k).is_some()))),
        (200, 200)
    );
    let before = t.directory.generation();
    let (gone_leaf, gone_keys) = retire_leaves(&t, 40..=200, 1).remove(0);
    assert_eq!(
        t.directory.generation(),
        before + 1,
        "one retirement, one bump"
    );
    assert_eq!(
        t.epoch().limbo_len(),
        1,
        "bumped before the block can be freed"
    );

    // The array still names the leaf; the generation gate hides it.
    assert!(directory_entries(&t).iter().any(|&(_, l)| l == gone_leaf));
    let survivor = 10;
    assert_eq!(
        directed(|| assert_eq!(t.get(survivor), Some(value_for(survivor)))),
        (1, 0)
    );
    for &k in &gone_keys {
        assert_eq!(directed(|| assert_eq!(t.get(k), None)), (1, 0));
        assert_eq!(t.update(k, 7).unwrap(), None, "key {k}");
    }
    rebuild(&t);
    assert!(directory_entries(&t).iter().all(|&(_, l)| l != gone_leaf));
    assert_eq!(
        directed(|| assert_eq!(t.get(survivor), Some(value_for(survivor)))),
        (1, 1)
    );
    assert_eq!(directed(|| assert_eq!(t.get(gone_keys[0]), None)), (1, 1));
    t.check_consistency(true).unwrap();
}

/// Invariant 2, second half: once the retired blocks have been through the
/// allocator again — as the root leaf of a second tree in the same pool
/// holding the same keys, as that tree's next leaf and as its new internal
/// root — the first tree's directory still names them, and no directed
/// access reads the other tree's value, stores into it or latches its root.
#[test]
fn recycled_blocks_are_never_reached_through_a_hint() {
    let p = pool(16);
    let a = tiny_tree(&p);
    let (a_val, b_val) = (|k: u64| 2 * k + 2, |k: u64| 2 * k + 3);
    for k in 1..=200u64 {
        a.insert(k, a_val(k)).unwrap();
    }
    rebuild(&a);
    let retired = retire_leaves(&a, 40..=200, 3);
    while a.epoch().limbo_len() > 0 {
        a.epoch().try_advance();
        a.epoch().collect();
    }

    // The free list is LIFO: B's root leaf is the block retired last.
    let b = tiny_tree(&p);
    let (b_root_leaf, shared_keys) = retired.last().unwrap();
    assert_eq!(b.find_leaf(1), *b_root_leaf, "root leaf not recycled");
    for &k in shared_keys {
        b.insert(k, b_val(k)).unwrap();
    }
    // Grow B until it has split and grown a root out of the other two.
    let mut fresh = 1_000u64;
    while b.height() == 0 {
        b.insert(fresh, b_val(fresh)).unwrap();
        fresh += 1;
    }
    let levels: Vec<u32> = retired
        .iter()
        .map(|&(off, _)| b.node(off).level())
        .collect();
    assert!(
        levels.contains(&1),
        "no block came back as an internal node: {levels:?}"
    );
    assert!(!b.node(*b_root_leaf).is_deleted());

    // B's root leaf first: the block where a believed entry would read
    // B's value for the same key.
    let entries = directory_entries(&a);
    for (off, keys) in retired.iter().rev() {
        assert!(
            entries.iter().any(|&(_, l)| l == *off),
            "A's array no longer names the recycled block"
        );
        for &k in keys {
            assert_eq!(directed(|| assert_eq!(a.get(k), None, "key {k}")), (1, 0));
            assert_eq!(a.update(k, a_val(k)).unwrap(), None, "key {k}");
        }
    }
    for &k in shared_keys {
        assert_eq!(b.get(k), Some(b_val(k)), "B's key {k} overwritten");
    }
    a.check_consistency(true).unwrap();
    b.check_consistency(true).unwrap();
}

/// One entry point: every leaf-level operation consults the directory
/// once, a directed one charges one hop and issues the stores, flushes and
/// fences of a descended one, and a fresh key above everything its leaf
/// holds is inserted there directed too: the leaf's high key bounds it
/// (invariant 4).
#[test]
fn every_leaf_level_op_enters_through_the_directory() {
    let p = pool(16);
    let t = tree_with(&p, TreeOptions::new());
    for k in 1..=250u64 {
        t.insert(k * 8, value_for(k)).unwrap();
    }
    assert_eq!(t.height(), 1);
    rebuild(&t);

    // Directed against descended, op by op, on a twin without a directory.
    let twin_pool = pool(16);
    let twin = tree_with(&twin_pool, TreeOptions::new());
    for k in 1..=250u64 {
        twin.insert(k * 8, value_for(k)).unwrap();
    }
    type Op<'a> = &'a dyn Fn(&FastFairTree);
    let ops: [Op; 4] = [
        &|t| assert!(t.update(800, 77).unwrap().is_some()),
        &|t| assert!(t.remove(800)),
        &|t| assert_eq!(t.insert(800, 5).unwrap(), None),
        &|t| assert_eq!(t.get(800), Some(5)),
    ];
    for op in ops {
        let cost = |t: &FastFairTree| {
            stats::reset();
            op(t);
            let s = stats::take();
            (s.flushes, s.fences, s.serial_misses)
        };
        let (warm, cold) = (cost(&t), cost(&twin));
        assert_eq!((warm.0, warm.1), (cold.0, cold.1));
        assert_eq!(warm.2, 1, "a directed access charges exactly one hop");
        assert_eq!(cold.2, 2, "a descent charges the two lowest levels");
    }

    assert_eq!(directed(|| assert!(t.get(400).is_some())), (1, 1));
    assert_eq!(directed(|| assert_eq!(t.get(401), None)), (1, 1));
    assert_eq!(
        directed(|| assert!(t.update(400, 9).unwrap().is_some())),
        (1, 1)
    );
    assert_eq!(
        directed(|| assert_eq!(t.insert(401, 9).unwrap(), None)),
        (1, 1)
    );
    assert_eq!(directed(|| assert!(t.remove(401))), (1, 1));
    assert_eq!(directed(|| assert!(!t.remove(401))), (1, 1));
    let mut c = t.cursor();
    assert_eq!(
        directed(|| {
            c.seek(401);
            assert_eq!(c.next().map(|(k, _)| k), Some(408));
        }),
        (1, 1)
    );
    assert_eq!(
        directed(|| {
            c.seek_for_prev(401);
            assert_eq!(c.prev().map(|(k, _)| k), Some(400));
        }),
        (1, 1)
    );
    drop(c);
    // A cursor that was never sought starts at the head of the chain.
    assert_eq!(directed(|| assert_eq!(t.len(), 250)), (0, 0));

    // The largest key of a leaf that is not the last: a fresh key right
    // above it is below the leaf's high key, the next leaf's first key.
    let leaf = t.find_leaf(400);
    let top = (50..)
        .map(|k| k * 8)
        .find(|&k| t.find_leaf(k + 8) != leaf)
        .unwrap();
    assert_eq!(t.node(leaf).high_key(), top + 8);
    let regret = t.directory.regret_count();
    assert_eq!(
        directed(|| assert_eq!(t.insert(top + 1, 9).unwrap(), None)),
        (1, 1)
    );
    assert_eq!(t.directory.regret_count(), regret);
    assert_eq!(t.find_leaf(top + 1), leaf);
    // …and the last leaf of the chain takes appended keys directed.
    assert_eq!(
        directed(|| assert_eq!(t.insert(9_000, 9).unwrap(), None)),
        (1, 1)
    );

    t.check_consistency(true).unwrap();
}

/// A fresh handle allocates nothing: the first directory appears only
/// after 4 096 operations have descended.
#[test]
fn handle_has_no_table_until_it_has_served_point_ops() {
    let (_p, t) = small_tree();
    for k in 1..=100u64 {
        t.insert(k, value_for(k)).unwrap();
    }
    let before = stats::snapshot().leaf_hint_rebuilds;
    let read_all = || (1..=100u64).for_each(|k| assert_eq!(t.get(k), Some(value_for(k))));
    assert_eq!(directed(|| (0..30).for_each(|_| read_all())), (3000, 0));
    assert!(t.directory.entries(&t.epoch().pin()).is_none());
    assert_eq!(stats::snapshot().leaf_hint_rebuilds, before);
    // The 4 096th descent builds it; everything after is directed.
    assert_eq!(
        directed(|| (0..20).for_each(|_| read_all())),
        (2000, 2000 - (4096 - 3100))
    );
    assert_eq!(stats::snapshot().leaf_hint_rebuilds, before + 1);
}

/// Invariant 4: a directed writer that finds its leaf unlinked under the
/// latch retries by descent and never consults the directory again. The
/// unlink runs in the window between `locate_leaf` and the latch.
#[test]
fn directed_writer_that_finds_the_leaf_deleted_retries_by_descent() {
    let p = pool(16);
    let t = Arc::new(tiny_tree(&p));
    for k in 1..=300u64 {
        t.insert(k, value_for(k)).unwrap();
    }
    type Write<'a> = &'a dyn Fn(&FastFairTree, u64);
    let writes: [Write; 3] = [
        &|t, k| assert_eq!(t.update(k, 7).unwrap(), None),
        &|t, k| assert!(!t.remove(k)),
        &|t, k| assert_eq!(t.insert(k, 7).unwrap(), None),
    ];
    let mut leaves = keys_by_leaf(&t, 40..=300).into_iter().skip(1);
    for write in writes {
        // Not every leaf can be unlinked (a parent's leftmost child).
        loop {
            let (leaf, keys) = leaves.next().expect("ran out of leaves");
            rebuild(&t);
            let (tree, victims) = (Arc::clone(&t), keys.clone());
            AFTER_LOCATE.with(|h| {
                *h.borrow_mut() = Some(Box::new(move |located| {
                    assert_eq!(located, leaf);
                    victims.iter().for_each(|&k| assert!(tree.remove(k)));
                }))
            });
            let counts = directed(|| write(&t, keys[0]));
            let n = keys.len() as u64;
            if t.node(leaf).is_deleted() {
                // One lookup for the write, which did not settle there.
                assert_eq!(counts, (1 + n, n));
                break;
            }
        }
    }
    assert_eq!(t.get(300), Some(value_for(300)));
    t.check_consistency(true).unwrap();
}

/// A build that races level-1 splits yields a usable, possibly short,
/// directory: separators ascend from 0, every entry names a leaf, and
/// every key is found through it.
#[test]
fn build_racing_level_one_splits_is_usable() {
    let p = pool(64);
    let t = tiny_tree(&p);
    const KEYS: u64 = 20_000;
    let inserted = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        // Ascending inserts split the last leaf every 5 keys and the
        // last level-1 node every 25.
        s.spawn(|| {
            for k in 1..=KEYS {
                t.insert(k, value_for(k)).unwrap();
                inserted.store(k, std::sync::atomic::Ordering::Release);
            }
        });
        // (The inserter's own regret builds too; single-flight, so
        // either thread's build may be the one that runs.)
        let before = stats::snapshot().leaf_hint_rebuilds;
        while inserted.load(std::sync::atomic::Ordering::Acquire) < KEYS {
            let upto = inserted.load(std::sync::atomic::Ordering::Acquire);
            t.regret_directory(u64::from(u32::MAX));
            let Some(entries) = t.directory.entries(&t.epoch().pin()) else {
                continue;
            };
            assert_eq!(entries[0].0, 0);
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(entries.iter().all(|&(_, l)| t.node(l).is_leaf()));
            for k in (1..=upto).step_by(97) {
                assert_eq!(t.get(k), Some(value_for(k)), "key {k}");
            }
        }
        let builds = stats::snapshot().leaf_hint_rebuilds - before;
        assert!(builds > 3, "only {builds} builds raced the inserts");
    });
    t.check_consistency(true).unwrap();
}

/// A FAIR split leaves the node it truncates in insert direction: the
/// moved-out upper half stays above the new terminator, where a
/// right-to-left reader starts, and a reader that arrives late — every
/// directed one — must not find a key there that lives on, and changes,
/// in the sibling. The full node starts in delete direction, as a crash
/// image leaves it when a delete's counter bump reached PM and its poison
/// store did not.
#[test]
fn split_hides_the_moved_out_half_from_late_readers() {
    let p = pool(16);
    let t = tiny_tree(&p);
    let cap = u64::from(t.node_capacity());
    for k in 1..=cap {
        t.insert(k * 10, value_for(k)).unwrap();
    }
    let left = t.find_leaf(10);
    let node = t.node(left);
    assert_eq!(node.count_records(), t.cap, "set-up");
    node.set_switch_counter(node.switch_counter() + 1);
    // Split it, the pending key going to the new sibling. The reader
    // starts two slots above the count hint: look for a key that close
    // to the new terminator.
    let moved = (cap / 2 + 2) * 10;
    t.insert(moved + 5, 7).unwrap();
    assert_ne!(t.find_leaf(moved), left, "key did not move");
    assert_eq!(t.update(moved, 9).unwrap(), Some(value_for(cap / 2 + 2)));
    let late = crate::search::leaf_search_linear(&t, t.node(left), moved);
    assert_eq!(late, None, "stale copy left of the split");
    t.check_consistency(true).unwrap();
}

/// Entering delete direction nulls everything above the new terminator —
/// here the upper half a split moved out — and makes it durable with one
/// persist over the contiguous tail: every line it spans is flushed (or
/// found clean) once, under a single fence. A node already in delete
/// direction, or one with nothing above its terminator, flushes nothing.
#[test]
fn delete_direction_persists_the_nulled_tail_once() {
    let p = pool(16);
    let t = tiny_tree(&p);
    let cap = u64::from(t.node_capacity());
    for k in 1..=cap + 1 {
        t.insert(k * 10, value_for(k)).unwrap();
    }
    let node = t.node(t.find_leaf(10));
    let cnt = node.count_records();
    assert_ne!(node.ptr(cnt + 1), 0, "no moved-out half");
    assert_eq!(node.switch_counter() % 2, 0, "set-up");
    let sc = node.switch_counter();
    let (from, to) = (node.key_off(cnt + 1), node.key_off(t.cap + 2));
    let lines = (to - 1) / 64 - from / 64 + 1;

    stats::reset();
    crate::delete::enter_delete_direction(&t, node, cnt);
    let s = stats::take();
    assert!((cnt + 1..t.cap + 2).all(|i| node.ptr(i) == 0));
    assert_eq!(node.switch_counter(), sc + 1);
    assert!(s.flushes >= 1, "the nulled tail was not flushed");
    assert_eq!(s.flushes + s.flushes_coalesced, lines);
    assert_eq!(s.fences, 1);

    // Already odd: only the counter moves.
    stats::reset();
    crate::delete::enter_delete_direction(&t, node, cnt);
    let s = stats::take();
    assert_eq!((s.flushes, s.fences), (0, 0));
    assert_eq!(node.switch_counter(), sc + 3);

    // Even again, but the tail is already NULL: nothing to persist.
    node.set_switch_counter(sc + 4);
    stats::reset();
    crate::delete::enter_delete_direction(&t, node, cnt);
    let s = stats::take();
    assert_eq!((s.flushes, s.fences), (0, 0));
    assert_eq!(node.switch_counter(), sc + 5);
}

/// Header word 48 is reserved and word 56 holds the high key (see the
/// format table in `layout.rs`): every node of a churned tree reads 0 in
/// the first and its exact bound in the second.
#[test]
fn leave_word_48_zero_and_bound_every_node_by_its_high_key() {
    let p = pool(16);
    let t = tiny_tree(&p);
    let keys = generate_keys(3_000, KeyDist::Uniform, 61);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in keys.iter().step_by(3) {
        assert!(t.remove(k));
    }
    for &k in keys.iter().skip(1).step_by(3) {
        assert!(t.update(k, value_for(k ^ 1)).unwrap().is_some());
    }
    let nodes = assert_word_48_zero_and_high_keys_exact(&t);
    assert!(nodes > 100, "walked only {nodes} nodes");
    t.check_consistency(true).unwrap();
}

/// Recovery keeps both words so: `recover` on crash images cut all through
/// a churn of splits, deletes and updates, each repairing what the cut left
/// half-done — a high key never lowered among them — leaves word 48 at 0
/// and every high key exact.
#[test]
fn recovery_leaves_word_48_zero_and_every_high_key_exact() {
    const BYTES: usize = 4 << 20;
    let p = Arc::new(Pool::new(PoolConfig::new().size(BYTES).crash_log(true)).unwrap());
    let t = tiny_tree(&p);
    let keys = generate_keys(160, KeyDist::Uniform, 67);
    for &k in &keys[..80] {
        t.insert(k, value_for(k)).unwrap();
    }
    let log = p.crash_log().unwrap();
    log.set_baseline(p.volatile_image());
    for &k in &keys[80..] {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in keys.iter().step_by(3) {
        assert!(t.remove(k));
    }
    for &k in keys.iter().skip(1).step_by(3) {
        assert!(t.update(k, value_for(k ^ 1)).unwrap().is_some());
    }
    let meta = t.meta_offset();
    let total = log.len();
    let mut repairs = 0;
    for cut in (0..=total).step_by(total / 60 + 1) {
        for policy in [
            pmem::crash::Eviction::None,
            pmem::crash::Eviction::All,
            pmem::crash::Eviction::Random(cut as u64),
        ] {
            let img = p.crash_image(cut, policy);
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(BYTES)).unwrap());
            let t2 = FastFairTree::open(p2, meta, TreeOptions::new()).unwrap();
            let r = t2.recover().unwrap();
            repairs += r.garbage_removed + r.splits_completed + r.siblings_attached;
            assert_word_48_zero_and_high_keys_exact(&t2);
            t2.check_consistency(true)
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        }
    }
    assert!(repairs > 0, "no image needed a repair");
}

/// Walks every node of `t`, level by level along the sibling chains, and
/// asserts that header word 48 reads 0 and word 56 the node's exact upper
/// bound: `Key::MAX` on the last node of a level, otherwise above each of
/// its keys, at or below each of its sibling's, and equal to the separator
/// that routes to the sibling from the level above, if one does. Returns
/// the number of nodes walked.
fn assert_word_48_zero_and_high_keys_exact(t: &FastFairTree) -> usize {
    let mut first = t.root();
    let mut nodes = 0;
    loop {
        let head = t.node(first);
        let level = head.level();
        let separators: BTreeMap<u64, u64> = t
            .level_chain(level + 1)
            .into_iter()
            .flat_map(|p| t.node(p).valid_entries())
            .map(|(k, child)| (child, k))
            .collect();
        let mut off = first;
        while off != 0 {
            let node = t.node(off);
            assert_eq!(t.pool.load_u64(off + 48), 0, "node {off:#x}, word 48");
            let high = t.pool.load_u64(off + 56);
            assert_eq!(high, node.high_key());
            let sib = node.sibling();
            if sib == 0 {
                assert_eq!(high, u64::MAX, "last node {off:#x} is bounded");
            } else {
                let keys = |n: u64| t.node(n).valid_entries().into_iter().map(|e| e.0);
                assert!(keys(off).all(|k| k < high), "node {off:#x}");
                assert!(keys(sib).all(|k| k >= high), "node {off:#x}");
                if let Some(&sep) = separators.get(&sib) {
                    assert_eq!(sep, high, "node {off:#x}: separator of its sibling");
                }
            }
            nodes += 1;
            off = sib;
        }
        if head.is_leaf() {
            break;
        }
        first = head.leftmost();
    }
    nodes
}

/// The base read charge at the largest node size, where a leaf holds 250
/// records: a lookup pays one miss for the leaf's header line and streams
/// the record lines its scan crosses, four records to a line — up to the
/// key's slot on a hit, every record on a miss.
#[test]
fn lookup_streams_one_record_line_per_four_scanned_slots() {
    let p = pool(16);
    let t = tree_with(&p, TreeOptions::new().node_size(4096));
    let n = 200u64;
    for k in 1..=n {
        t.insert(k * 2, value_for(k)).unwrap();
    }
    assert_eq!(t.height(), 0, "one leaf");
    let charge = |key: u64, want: Option<u64>| {
        stats::reset();
        assert_eq!(t.get(key), want, "key {key}");
        let s = stats::take();
        (s.serial_misses, s.parallel_lines)
    };
    for k in 1..=n {
        // Key `2k` sits in slot `k - 1`: the scan reads `k` records.
        assert_eq!(
            charge(k * 2, Some(value_for(k))),
            (1, k.div_ceil(4)),
            "slot {}",
            k - 1
        );
    }
    for absent in [1, 3, 2 * n + 1] {
        assert_eq!(charge(absent, None), (1, n / 4), "absent key {absent}");
    }
}

/// `ensure_parent_entry` routes a leaf by its lower bound, the left
/// neighbour's high key, which deletes do not move: a leaf whose first keys
/// were deleted — its separator is no longer its first key — does not get a
/// second routing entry. Nor does a leftmost child, whose separator sits a
/// level up: a second route would make the merge latch it twice.
#[test]
fn dangling_sibling_repair_adds_no_second_routing_entry() {
    let p = pool(16);
    let t = tiny_tree(&p);
    for k in 1..=200u64 {
        t.insert(k, value_for(k)).unwrap();
    }
    let chain = t.level_chain(0);
    let (mut routed, mut leftmost) = (0, 0);
    for (leaf, keys) in keys_by_leaf(&t, 1..=200) {
        let at = chain.iter().position(|&l| l == leaf).unwrap();
        if at == 0 || keys.len() < 2 {
            continue; // no left neighbour to bound it
        }
        let entries = routing_entries_for(&t, leaf);
        assert!(t.remove(keys[0]));
        let low = t.node(chain[at - 1]).high_key();
        assert_eq!(low, keys[0], "leaf {leaf:#x}");
        crate::split::ensure_parent_entry(&t, leaf, low, 1).unwrap();
        assert_eq!(routing_entries_for(&t, leaf), entries, "leaf {leaf:#x}");
        if entries == 0 {
            leftmost += 1;
        } else {
            routed += 1;
        }
    }
    assert!(
        routed > 10 && leftmost > 0,
        "{routed} routed, {leftmost} leftmost"
    );
    t.check_consistency(true).unwrap();
    // Every routed leaf empties and unlinks through its one route; the
    // leftmost children, and the first leaf, stay.
    let leaves = chain.len();
    for k in 1..=200u64 {
        t.remove(k);
    }
    assert_eq!(t.level_chain(0).len(), leaves - routed);
    t.check_consistency(true).unwrap();
}

/// `try_unlink_empty_leaf` removes every routing entry that names the
/// leaf, not only the first: none may outlive the unlink and route into
/// the retired block.
#[test]
fn unlink_removes_every_routing_entry_of_the_leaf() {
    let p = pool(16);
    let t = tiny_tree(&p);
    for k in 1..=200u64 {
        t.insert(k, value_for(k)).unwrap();
    }
    // A leaf with a routing entry, in a parent with room for a second.
    let (leaf, keys, parent) = keys_by_leaf(&t, 1..=200)
        .into_iter()
        .find_map(|(leaf, keys)| {
            let parent = t.level_chain(1).into_iter().find(|&p| {
                let p = t.node(p);
                p.count_records() < t.cap && p.valid_entries().iter().any(|e| e.1 == leaf)
            })?;
            (keys.len() >= 2).then_some((leaf, keys, parent))
        })
        .expect("no such leaf");
    // What a repair that raced the parent update used to leave behind.
    let parent = t.node(parent);
    crate::insert::fast_insert_locked(&t, parent, keys[1], leaf, parent.count_records());
    assert_eq!(routing_entries_for(&t, leaf), 2);
    for &k in &keys {
        assert!(t.remove(k));
    }
    assert!(t.node(leaf).is_deleted(), "leaf not unlinked");
    assert_eq!(routing_entries_for(&t, leaf), 0);
    for k in 1..=200u64 {
        let want = (!keys.contains(&k)).then(|| value_for(k));
        assert_eq!(t.get(k), want, "key {k}");
    }
    t.check_consistency(true).unwrap();
}

/// The count hint is never flushed on its own, so a crash can keep a
/// delete's odd switch counter and an old hint from the header line while
/// the records that later inserts wrote and flushed survive above it. A
/// right-to-left reader must still see every record: it starts from the
/// terminator, not from the hint.
#[test]
fn a_stale_count_hint_hides_no_record_from_a_right_to_left_reader() {
    let p = pool(16);
    let t = tiny_tree(&p);
    let cap = u64::from(t.node_capacity());
    for k in 1..=cap {
        t.insert(k * 10, value_for(k)).unwrap();
    }
    assert_eq!(t.height(), 0, "set-up");
    let leaf = t.node(t.find_leaf(10));
    leaf.set_switch_counter(leaf.switch_counter() | 1);
    leaf.set_count_hint(t.node_capacity() - 4);
    for k in 1..=cap {
        assert_eq!(t.get(k * 10), Some(value_for(k)), "key {}", k * 10);
    }
    assert_eq!(t.len() as u64, cap);
}

// ---- node bounds (ROADMAP item 5) -----------------------------------------
//
// A crash between a split's truncation and its parent update leaves the
// new right sibling linked but unrouted. The tests below hand-build that
// state by taking the sibling's routing entry out with a FAST delete, then
// play the late parent update through `insert_entry` as the split would.

/// Takes `child`'s routing entry out of its parent at `level`, leaving
/// `child` linked in its level's chain but dangling; returns the separator
/// the entry carried.
fn unroute(t: &FastFairTree, level: u32, child: u64) -> u64 {
    for p in t.level_chain(level) {
        let parent = t.node(p);
        let cnt = parent.count_records();
        if let Some(i) = (0..cnt).find(|&i| parent.entry_valid(i) && parent.ptr(i) == child) {
            let sep = parent.key(i);
            crate::delete::enter_delete_direction(t, parent, cnt);
            parent.set_ptr(i, crate::layout::INVALID_PTR);
            crate::delete::shift_left_from(t, parent, i, cnt);
            parent.set_count_hint(cnt - 1);
            return sep;
        }
    }
    panic!("no routing entry for {child:#x}");
}

/// Hole 2, at the leaves: leaf `S` dangles right of `L` with separator
/// `sep`, and its smallest keys are deleted. A key `k` with
/// `sep <= k < S.first` belongs to `S`; once the late parent update routes
/// `[sep, …)` to `S`, `get(k)` must find it there.
#[test]
fn a_key_below_a_dangling_siblings_first_key_lands_in_the_sibling() {
    let p = pool(16);
    let t = tiny_tree(&p);
    for k in 1..=40u64 {
        t.insert(k * 10, value_for(k)).unwrap();
    }
    assert_eq!(t.height(), 1, "set-up");
    let s = t.level_chain(0)[3];
    let sep = unroute(&t, 1, s);
    let s_keys: Vec<u64> = t.node(s).valid_entries().iter().map(|e| e.0).collect();
    assert_eq!(s_keys[0], sep, "set-up");
    assert!(t.remove(s_keys[0]) && t.remove(s_keys[1]));
    let k = sep + 1;
    assert!(k < s_keys[2]);
    t.insert(k, value_for(k)).unwrap();
    crate::insert::insert_entry(&t, 1, sep, s).unwrap();
    assert_eq!(
        t.get(k),
        Some(value_for(k)),
        "key {k} lost left of its leaf"
    );
    t.check_consistency(true).unwrap();
}

/// Hole 1, above the leaves: an internal split pushes its median `m` up, so
/// its new sibling `J`'s first key sits above `m`. With `J`'s own parent
/// update late, a leaf split under `J` whose separator lies between the two
/// must update `J`, not the node left of it — where a later writer would
/// take the entry for split residue and truncate it.
#[test]
fn a_parent_update_between_a_median_and_the_siblings_first_key_lands_right() {
    let p = pool(16);
    let t = tiny_tree(&p);
    let mut n = 0u64;
    while t.height() < 2 {
        n += 1;
        t.insert(n * 1000, value_for(n)).unwrap();
    }
    let j = *t.level_chain(1).last().unwrap();
    let m = unroute(&t, 2, j);
    let c = t.node(j).leftmost();
    let mut keys: Vec<u64> = (1..=n).map(|k| k * 1000).collect();
    // Split `J`'s leftmost leaf above `m + 500`, while `J` is unrouted…
    let mut split_leaf = |from: u64| {
        let sib = t.node(c).sibling();
        let mut k = from;
        while t.node(c).sibling() == sib {
            t.insert(k, value_for(k)).unwrap();
            keys.push(k);
            k += 1;
        }
    };
    split_leaf(m + 500);
    // …then play `J`'s late parent update, and split the leaf again below
    // the first split's separator, which gives `J` a smaller first key.
    crate::insert::insert_entry(&t, 2, m, j).unwrap();
    split_leaf(m + 1);
    // A split of the first leaf makes a writer repair the level-1 node
    // left of `J`.
    for k in 1..=u64::from(t.node_capacity()) {
        t.insert(k, value_for(k)).unwrap();
        keys.push(k);
    }
    for &k in &keys {
        assert!(t.get(k).is_some(), "key {k}");
    }
    t.check_consistency(true).unwrap();
}

/// Hole 3's hazard, a leaf routed from two level-1 nodes: with `J`'s
/// parent update late, the leaf `C` that starts `J`'s range must be routed
/// from `J` alone. Emptying `C` then cannot unlink it through a second
/// routing entry in the node left of `J` while `J` still names it — after
/// which the late update routes `C`'s range into a recycled block.
#[test]
fn a_leaf_starting_a_dangling_internal_siblings_range_is_routed_once() {
    let p = pool(16);
    let t = tiny_tree(&p);
    let mut n = 0u64;
    while t.height() < 2 {
        n += 1;
        t.insert(n * 1000, value_for(n)).unwrap();
    }
    let mut keys: BTreeMap<u64, u64> = (1..=n).map(|k| (k * 1000, value_for(k))).collect();
    let j = *t.level_chain(1).last().unwrap();
    let m = unroute(&t, 2, j);
    let c = t.node(j).leftmost();
    let sib = t.node(c).sibling();
    let mut k = m + 500;
    while t.node(c).sibling() == sib {
        t.insert(k, value_for(k)).unwrap();
        keys.insert(k, value_for(k));
        k += 1;
    }
    for (k, _) in t.node(c).valid_entries() {
        assert!(t.remove(k));
        keys.remove(&k);
    }
    crate::insert::insert_entry(&t, 2, m, j).unwrap();
    // Recycle what was retired, and split the last leaf into it: a block
    // right of every key `J` routes.
    t.reclaim_retired();
    let top = *keys.keys().last().unwrap();
    for k in top + 1..=top + 2 * u64::from(t.node_capacity()) {
        t.insert(k, value_for(k)).unwrap();
        keys.insert(k, value_for(k));
    }
    for (&k, &v) in &keys {
        assert_eq!(t.get(k), Some(v), "key {k}");
    }
    t.check_consistency(true).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_tree_matches_btreemap(ops in prop::collection::vec(
        (0u8..3, 1u64..500), 1..400)) {
        let p = pool(16);
        let t = tree_with(&p, TreeOptions::new().node_size(256));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, key) in ops {
            match op {
                0 => {
                    t.insert(key, value_for(key)).unwrap();
                    model.insert(key, value_for(key));
                }
                1 => {
                    prop_assert_eq!(t.remove(key), model.remove(&key).is_some());
                }
                _ => {
                    prop_assert_eq!(t.get(key), model.get(&key).copied());
                }
            }
        }
        // Full-content comparison at the end.
        let mut got = Vec::new();
        t.range(0, u64::MAX, &mut got);
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
        prop_assert!(t.check_consistency(true).is_ok());
    }

    #[test]
    fn prop_range_bounds(keys in prop::collection::btree_set(1u64..10_000, 1..300),
                         lo in 0u64..10_000, span in 0u64..2_000) {
        let p = pool(16);
        let t = tree_with(&p, TreeOptions::new().node_size(256));
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let hi = lo.saturating_add(span);
        let mut got = Vec::new();
        t.range(lo, hi, &mut got);
        let want: Vec<(u64, u64)> = keys.iter()
            .filter(|&&k| k >= lo && k < hi)
            .map(|&k| (k, value_for(k)))
            .collect();
        prop_assert_eq!(got, want);
    }
}

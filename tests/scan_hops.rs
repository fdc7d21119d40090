//! The chain cursors' hop rule (`pmindex::chain`), pinned as exact serial
//! misses: a scan pays for reaching the leaf it starts on and one miss per
//! further leaf it reads — never for the sibling after the last leaf it
//! reads. FAST+FAIR, wB+-tree and FP-tree share the cursor, so each runs
//! the same two scans over keys `1..=2 600`:
//!
//! * forward: `seek(40)` and 60 `next`s (keys 40–99) read k = 3 leaves and
//!   end inside the third, which has a right sibling;
//! * reverse: `seek_for_prev(99)` and 30 `prev`s (keys 99 down to 70) read
//!   j = 2 leaves. Leaves have no left links, so each left step locates
//!   the next leaf afresh.
//!
//! FAST+FAIR is bulk-loaded (26 keys a 512-byte leaf: keys 27–52, 53–78,
//! 79–104, …); the two baselines take ascending inserts, which leave
//! their 56-slot leaves half full (28 keys each). Either way keys 40–99
//! span three leaves and keys 70–99 two. A locate of FAST+FAIR (no leaf
//! directory yet) or wB+-tree descends through a level-1 node to the leaf:
//! two misses, the leaf landed on. FP-tree's locate reads its DRAM inner
//! map and lands on nothing, so each of its leaf reads pays the leaf's
//! miss.
//!
//! Before the rule, FAST+FAIR and wB+-tree charged the hop to the next
//! leaf when a read returned it: one more miss for the forward scan (the
//! leaf after the last one read) and one more per leaf the reverse scan
//! read.

use std::sync::Arc;

use fastfair_repro::fastfair::{FastFairTree, TreeOptions};
use fastfair_repro::pmem::{stats, LatencyProfile, Pool, PoolConfig};
use fastfair_repro::pmindex::workload::value_for;
use fastfair_repro::pmindex::{Cursor, PmIndex};
use fastfair_repro::{fptree, wbtree};

const KEYS: u64 = 2_600;

/// This thread's serial misses over `f` alone.
fn misses(f: impl FnOnce()) -> u64 {
    stats::reset();
    f();
    stats::take().serial_misses
}

/// (a seek alone, the forward scan, the reverse scan), in serial misses.
fn scans(index: &dyn PmIndex) -> (u64, u64, u64) {
    let seek = misses(|| index.cursor().seek(40));
    let forward = misses(|| {
        let mut c = index.cursor();
        c.seek(40);
        for want in 40..100 {
            assert_eq!(c.next().map(|e| e.0), Some(want), "{}", index.name());
        }
    });
    let reverse = misses(|| {
        let mut c = index.cursor();
        c.seek_for_prev(99);
        for want in (70..100).rev() {
            assert_eq!(c.prev().map(|e| e.0), Some(want), "{}", index.name());
        }
    });
    (seek, forward, reverse)
}

fn pool() -> Arc<Pool> {
    let config = PoolConfig::new()
        .size(16 << 20)
        .latency(LatencyProfile::dram());
    Arc::new(Pool::new(config).unwrap())
}

fn ascending(index: &dyn PmIndex) {
    for k in 1..=KEYS {
        index.insert(k, value_for(k)).unwrap();
    }
}

#[test]
fn fast_fair_scans_pay_one_miss_per_leaf_they_read() {
    let tree = FastFairTree::create(pool(), TreeOptions::new()).unwrap();
    let loaded = tree
        .bulk_load(&mut (1..=KEYS).map(|k| (k, value_for(k))))
        .unwrap();
    assert_eq!(loaded, KEYS as usize);
    // Locate: 2. Forward: 2 + (3 − 1). Reverse: 2 locates of 2.
    assert_eq!(scans(&tree), (2, 4, 4));
}

#[test]
fn wb_tree_scans_pay_one_miss_per_leaf_they_read() {
    let tree = wbtree::WbTree::create(pool()).unwrap();
    ascending(&tree);
    // Locate: 2. Forward: 2 + (3 − 1). Reverse: 2 locates of 2.
    assert_eq!(scans(&tree), (2, 4, 4));
}

#[test]
fn fp_tree_scans_pay_one_miss_per_leaf_they_read() {
    let tree = fptree::FpTree::create(pool()).unwrap();
    ascending(&tree);
    // Locate: 0. Forward: 3 leaf reads of 1. Reverse: 2 of 1.
    assert_eq!(scans(&tree), (0, 3, 2));
}

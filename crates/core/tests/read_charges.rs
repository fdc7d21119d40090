//! The modelled PM charges of one fixed operation mix, pinned as exact
//! counts.
//!
//! A change to how a walk lands on a node (what it prefetches, when it
//! stalls) must not change what the model charges: the same serial misses,
//! parallel lines, flushes and fences, op for op. This file runs one
//! fixed-seed mix over a bulk-loaded 100 k-key tree with 512-byte nodes and
//! compares the four counters with the values the mix produced before
//! `FastFairTree::visit` learned the expected level and started to
//! prefetch. CI runs it by name ("Read charges are pinned").
//!
//! The mix covers every charged read path: directed and descending `get`
//! (hit and miss), `seek` followed by 100 `next`, `seek_for_prev` followed
//! by 10 `prev`, `insert`, `update` and `remove`, the leaf directory's
//! first build and one forced rebuild (a run of removes empties leaves, the
//! merge that unlinks them drops the directory, and the regret of the
//! operations that follow rebuilds it).

use std::sync::Arc;

use fastfair::{FastFairTree, TreeOptions};
use pmem::{stats, Pool, PoolConfig};
use pmindex::workload::value_for;
use pmindex::{Cursor, PmIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keys `2, 4, …, 2 * KEYS`: an odd key is always a miss.
const KEYS: u64 = 100_000;

/// Operations before and after the forced rebuild's removes.
const OPS: u32 = 6_000;

fn one_op(tree: &FastFairTree, rng: &mut StdRng) {
    let key = 2 * rng.gen_range(1..=KEYS);
    match rng.gen_range(0..100u32) {
        0..=49 => {
            tree.get(key);
        }
        50..=59 => {
            tree.get(key + 1);
        }
        60..=64 => {
            let mut c = tree.cursor();
            c.seek(key);
            for _ in 0..100 {
                if c.next().is_none() {
                    break;
                }
            }
        }
        65..=69 => {
            let mut c = tree.cursor();
            c.seek_for_prev(key);
            for _ in 0..10 {
                if c.prev().is_none() {
                    break;
                }
            }
        }
        70..=79 => {
            tree.insert(key + 1, value_for(key + 1)).unwrap();
        }
        80..=89 => {
            tree.update(key, value_for(key) ^ 2).unwrap();
        }
        _ => {
            tree.remove(key);
        }
    }
}

#[test]
fn a_fixed_mix_charges_exactly_what_it_charged_before_prefetching() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(32 << 20)).unwrap());
    let tree = FastFairTree::create(pool, TreeOptions::new()).unwrap();
    let loaded = tree
        .bulk_load(&mut (1..=KEYS).map(|i| (2 * i, value_for(2 * i))))
        .unwrap();
    assert_eq!(loaded, KEYS as usize);

    stats::reset();
    let mut rng = StdRng::seed_from_u64(3_939);
    for _ in 0..OPS {
        one_op(&tree, &mut rng);
    }
    let built = stats::snapshot().leaf_hint_rebuilds;
    assert!(built >= 1, "the mix never built the directory");
    // Empty a run of leaves: their unlink drops the directory.
    let from = 2 * rng.gen_range(1..=KEYS - 400);
    for key in (from..from + 800).step_by(2) {
        tree.remove(key);
    }
    for _ in 0..OPS {
        one_op(&tree, &mut rng);
    }
    let s = stats::take();
    assert!(
        s.leaf_hint_rebuilds > built,
        "no rebuild after the unlink: {} builds",
        s.leaf_hint_rebuilds
    );
    // (serial misses, parallel lines, flushes, fences), recorded before
    // the hop began to prefetch.
    assert_eq!(
        (s.serial_misses, s.parallel_lines, s.flushes, s.fences),
        (46_394, 181_723, 20_930, 16_758),
        "{s:?}"
    );
}

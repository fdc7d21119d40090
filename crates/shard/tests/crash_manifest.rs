//! Crash-atomicity sweep for the shard manifest.
//!
//! A persistent deployment commits its shard map exactly once: the single
//! 8-byte manifest pointer flip at the end of `ShardedStore::create`.
//! Everything — three shards and the manifest — lives in ONE crash-logged
//! pool, so the event log totally orders every store of the creation and
//! of the population that follows it. We materialize the post-crash image
//! at **every** cut point, under the minimal (nothing evicted), maximal
//! (everything evicted) and pseudo-random eviction policies, and require
//! that each image either
//!
//! * fails `ShardedStore::open` with `IndexError::Unsupported` — the crash
//!   came before the flip, so the pool holds no manifest — or
//! * opens to the full shard map, holding exactly the keys whose inserts
//!   returned before the cut, plus at most the one insert in flight.

use std::collections::BTreeMap;
use std::sync::Arc;

use fastfair::FastFairTree;
use pmem::crash::Eviction;
use pmem::{Pool, PoolConfig};
use pmindex::{CursorIter, IndexError, PmIndex};
use shard::{Partitioning, ShardedStore};

const POOL: usize = 1 << 20;
const SHARDS: usize = 3;
/// About 50 keys a shard: more than one 512-byte leaf holds, so every
/// shard's population includes a FAIR split.
const KEYS: u64 = 150;

fn key(i: u64) -> u64 {
    i * 49_999
}

/// Runs the sweep for one partitioning; returns the number of cuts tested.
fn sweep(partitioning: Partitioning) -> usize {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap());
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    let store: ShardedStore<FastFairTree> = ShardedStore::create(
        Arc::clone(&pool),
        vec![Arc::clone(&pool); SHARDS],
        partitioning.clone(),
    )
    .unwrap();
    let created = log.len();
    // `done[i]`: the log length once insert `i` had returned — the cut
    // from which that key is committed.
    let mut done = Vec::new();
    for i in 1..=KEYS {
        store.insert(key(i), key(i) + 1).unwrap();
        done.push(log.len());
    }
    let shards_hit = (0..SHARDS).filter(|&s| store.shard_len(s) > 0).count();
    assert_eq!(shards_hit, SHARDS, "every shard should hold a piece");

    let total = log.len();
    let mut refused = 0;
    for cut in 0..=total {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(cut as u64),
        ] {
            let img = pool.crash_image(cut, policy.clone());
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
            let reopened: ShardedStore<FastFairTree> =
                match ShardedStore::open(Arc::clone(&p2), vec![Arc::clone(&p2); SHARDS]) {
                    Ok(store) => store,
                    Err(IndexError::Unsupported(_)) if cut < created => {
                        refused += 1;
                        continue;
                    }
                    Err(e) => panic!("cut {cut} {policy:?}: open failed: {e}"),
                };
            assert_eq!(reopened.partitioning(), &partitioning, "cut {cut}");
            // Keys committed at this cut, and the one insert in flight.
            let committed = done.iter().take_while(|&&d| d <= cut).count() as u64;
            let want: BTreeMap<u64, u64> = (1..=committed).map(|i| (key(i), key(i) + 1)).collect();
            let mut got: BTreeMap<u64, u64> = CursorIter(reopened.cursor()).collect();
            if committed < KEYS {
                let pending = key(committed + 1);
                if let Some(v) = got.remove(&pending) {
                    assert_eq!(v, pending + 1, "cut {cut} {policy:?}: torn in-flight value");
                }
            }
            assert_eq!(got, want, "cut {cut} {policy:?}");
        }
    }
    assert!(refused > 0, "no cut fell before the manifest commit");
    total + 1
}

#[test]
fn manifest_crash_sweep_hash() {
    let cuts = sweep(Partitioning::Hash { shards: SHARDS });
    assert!(cuts > 100);
}

#[test]
fn manifest_crash_sweep_range() {
    let cuts = sweep(Partitioning::Range {
        bounds: vec![KEYS / 3 * 49_999, 2 * KEYS / 3 * 49_999],
    });
    assert!(cuts > 100);
}

//! Sharded key-value store tour: hash-partitioned inserts across
//! per-shard pools, a cross-shard streaming range scan, and a crash injected partway
//! through populating a store, re-opened by name from a catalog with every
//! acknowledged insert intact.
//!
//! Run with: `cargo run --release --example sharded_kv`

use std::sync::Arc;

use fastfair_repro::catalog::{Catalog, StoreKind};
use fastfair_repro::fastfair::FastFairTree;
use fastfair_repro::pmem::crash::Eviction;
use fastfair_repro::pmem::{Pool, PoolConfig};
use fastfair_repro::pmindex::{Cursor, PersistentIndex, PmIndex};
use fastfair_repro::shard::{Partitioning, ShardedStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A hash-partitioned deployment: one pool per shard -----------
    let trees = (0..3)
        .map(|_| {
            let pool = Pool::new(PoolConfig::default().size(16 << 20))?;
            Ok(FastFairTree::create_in(Arc::new(pool))?)
        })
        .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;
    let store = ShardedStore::from_indexes(trees, Partitioning::Hash { shards: 3 });

    for k in (1..=120_000u64).step_by(2) {
        store.insert(k, k + 1)?;
    }
    println!(
        "inserted {} keys across {} shards: {:?} per shard",
        store.len(),
        store.shard_count(),
        (0..store.shard_count())
            .map(|s| store.shard_len(s))
            .collect::<Vec<_>>()
    );

    // A streaming scan of a short window: adjacent keys hash to different
    // shards, so the router heap-merges the three per-shard cursors — no
    // materialization, globally sorted.
    let mut cur = store.cursor();
    cur.seek(39_995);
    let mut window = Vec::new();
    while let Some((k, _)) = cur.next() {
        if k > 40_005 {
            break;
        }
        window.push((k, store.partitioning().shard_of(k)));
    }
    assert!(window.windows(2).all(|w| w[0].0 < w[1].0));
    println!("merged scan of [39995, 40005] as (key, shard): {window:?}");

    // --- 2. A crash partway through population ----------------------------
    // Everything in ONE crash-logged pool so the event log totally orders
    // the inserts. The deployment is registered by name in a catalog the
    // pool roots; then materialize the persistent image as if the machine
    // had died halfway through and re-open it by that name.
    let pool = Arc::new(Pool::new(
        PoolConfig::default().size(8 << 20).crash_log(true),
    )?);
    let trees = vec![
        FastFairTree::create_in(Arc::clone(&pool))?,
        FastFairTree::create_in(Arc::clone(&pool))?,
    ];
    let kind = StoreKind::Sharded {
        shards: trees.iter().map(|t| (0, t.superblock())).collect(),
    };
    Catalog::create(vec![Arc::clone(&pool)])?.register("small", &kind)?;
    let small = ShardedStore::from_indexes(trees, Partitioning::Hash { shards: 2 });
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image()); // the committed map is durable context
    let mut acked = Vec::new(); // log length once each insert returned
    for k in 1..=5_000u64 {
        small.insert(k, k + 7)?;
        acked.push(log.len());
    }

    // Crash halfway through the event stream: every insert acknowledged
    // before the cut must be there, the one in flight may or may not be,
    // and nothing else.
    let cut = log.len() / 2;
    let durable = acked.iter().take_while(|&&at| at <= cut).count() as u64;
    let img = pool.crash_image(cut, Eviction::Random(42));
    let half = Arc::new(Pool::from_image(&img, PoolConfig::default().size(8 << 20))?);
    let recovered: ShardedStore<FastFairTree> = Catalog::open(vec![half])?.open_sharded("small")?;
    assert_eq!(recovered.partitioning(), small.partitioning());
    for k in 1..=durable {
        assert_eq!(recovered.get(k), Some(k + 7), "acknowledged key {k} lost");
    }
    assert!((durable..=durable + 1).contains(&(recovered.len() as u64)));
    println!(
        "crash partway through population: reopened {} shards from the catalog, \
         all {} acknowledged inserts intact",
        recovered.shard_count(),
        durable
    );

    println!("sharded_kv example finished OK");
    Ok(())
}

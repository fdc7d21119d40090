//! Reopen smoke: create a multi-store deployment, kill the process
//! (image the pools), reopen everything by name, and diff the contents —
//! twice, because recovery must also recover the recovered state.
//!
//! CI runs this as its `reopen-smoke` step; it is the executable form of
//! the acceptance bar "a store created under a name, crashed, and
//! reopened in a new process yields exactly the pre-crash committed
//! contents".

use std::sync::Arc;

use fastfair_repro::catalog::{Catalog, StoreKind};
use fastfair_repro::fastfair::FastFairTree;
use fastfair_repro::pmem::{Pool, PoolConfig};
use fastfair_repro::pmindex::{PersistentIndex, PmIndex};
use fastfair_repro::shard::{Partitioning, ShardedStore};

const POOL: usize = 64 << 20;

fn mkpool() -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(POOL)).unwrap())
}

/// "kill -9": the next process sees the pools' memory as the dying one
/// left it, and nothing else — no in-process state survives.
fn kill_and_remap(pools: &[Arc<Pool>]) -> Vec<Arc<Pool>> {
    pools
        .iter()
        .map(|p| {
            Arc::new(Pool::from_image(&p.volatile_image(), PoolConfig::new().size(POOL)).unwrap())
        })
        .collect()
}

fn tree_contents(idx: &dyn PmIndex) -> Vec<(u64, u64)> {
    let mut v = Vec::new();
    idx.range(0, u64::MAX, &mut v);
    v
}

#[test]
fn whole_deployment_reopens_by_name_twice() {
    // ---- create: one fleet, three stores, all registered by name ------
    let fleet = vec![mkpool(), mkpool(), mkpool()];
    let cat = Catalog::create(fleet.clone()).unwrap();

    let kv = FastFairTree::create_in(Arc::clone(&fleet[1])).unwrap();
    for k in 1..=1000u64 {
        kv.insert(k, k * 3).unwrap();
    }
    cat.register(
        "kv",
        &StoreKind::Index {
            pool: 1,
            superblock: kv.superblock(),
        },
    )
    .unwrap();

    let partitioning = Partitioning::Hash { shards: 2 };
    let trees = vec![
        FastFairTree::create_in(Arc::clone(&fleet[1])).unwrap(),
        FastFairTree::create_in(Arc::clone(&fleet[2])).unwrap(),
    ];
    let shards = vec![(1, trees[0].superblock()), (2, trees[1].superblock())];
    let wide = ShardedStore::from_indexes(trees, partitioning);
    for k in (0..1000u64).map(|i| i * 997) {
        wide.insert(k + 1, k + 2).unwrap();
    }
    cat.register("wide", &StoreKind::Sharded { shards })
        .unwrap();

    let engine = fastfair_repro::txn::TxnEngine::create(Arc::clone(&fleet[0])).unwrap();
    drop(engine);
    cat.register("journal", &StoreKind::Txn { pool: 0 })
        .unwrap();

    let want_kv = tree_contents(&kv);
    let want_wide = tree_contents(&wide);

    // ---- kill, reopen #1, diff ---------------------------------------
    let fleet2 = kill_and_remap(&fleet);
    let cat2 = Catalog::open(fleet2.clone()).unwrap();
    assert_eq!(cat2.names(), vec!["journal", "kv", "wide"]);

    let kv2: FastFairTree = cat2.open_store("kv").unwrap();
    assert_eq!(tree_contents(&kv2), want_kv, "kv diverged across reopen");

    let wide2: ShardedStore<FastFairTree> = cat2.open_sharded("wide").unwrap();
    assert_eq!(
        tree_contents(&wide2),
        want_wide,
        "wide diverged across reopen"
    );
    let _engine2 = cat2.open_txn("journal").unwrap();

    // The newest entry is one reverse seek away on the reopened store.
    let mut cur = kv2.cursor();
    cur.seek_for_prev(u64::MAX);
    assert_eq!(cur.prev(), Some((1000, 3000)));

    // ---- mutate, kill again, reopen #2, diff -------------------------
    for k in 1001..=1200u64 {
        kv2.insert(k, k * 3).unwrap();
    }
    assert!(kv2.remove(1));
    let want_kv2 = tree_contents(&kv2);

    let fleet3 = kill_and_remap(&fleet2);
    let cat3 = Catalog::open(fleet3).unwrap();
    let kv3: FastFairTree = cat3.open_store("kv").unwrap();
    assert_eq!(tree_contents(&kv3), want_kv2, "kv diverged on 2nd reopen");
    let wide3: ShardedStore<FastFairTree> = cat3.open_sharded("wide").unwrap();
    assert_eq!(
        tree_contents(&wide3),
        want_wide,
        "wide diverged on 2nd reopen"
    );
}

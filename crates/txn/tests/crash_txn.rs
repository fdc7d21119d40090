//! Crash-atomicity sweep for atomic multi-key write batches.
//!
//! Tree, journal (and for the cross-shard case the whole sharded
//! deployment) live in ONE crash-logged pool, so the event log totally
//! orders every store of a batch commit: the staged entries, the single
//! 8-byte commit-word flush, each apply step and the retire store. We
//! materialize the post-crash image at **every** cut under the minimal
//! (nothing evicted), maximal (everything evicted) and env-seeded
//! pseudo-random eviction policies, re-open everything, run
//! `TxnEngine::recover`, and require the all-or-nothing contract on a
//! 3-key TPC-C Payment batch ([`tpcc::payment_history_writes`]):
//!
//! * crash before the commit word is durable → **zero** of the three
//!   writes survive recovery;
//! * crash after → **all three** survive, with exact values — even when
//!   the crash interrupted the apply or the retire;
//! * recovery itself is crash-safe: a second sweep cuts the *replay* at
//!   every step, crashes again, recovers again, and still lands on all
//!   three writes (idempotent redo);
//! * the journal is clean after recovery (`pending()` false, a second
//!   `recover` replays nothing).
//!
//! A group big enough for `ShardedStore` to apply its two shards on two
//! threads gets the same zero-or-all sweep over the interleaved stores of
//! both. A sharded deployment is registered in a catalog in the same pool
//! before the baseline, and each image reopens it by name.

use std::collections::BTreeSet;
use std::sync::Arc;

use catalog::{Catalog, StoreKind};
use fastfair::{FastFairTree, TreeOptions};
use pmem::crash::Eviction;
use pmem::{Pool, PoolConfig};
use pmindex::{BatchOp, IndexError, PersistentIndex, PmIndex};
use shard::{Partitioning, ShardedStore, MIN_SPLIT};
use txn::{TxnEngine, WriteBatch};

const POOL: usize = 4 << 20;

fn crash_pool() -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap())
}

/// One tree per shard of `partitioning` in `pool`, registered as
/// `"store"` in a catalog the pool roots.
fn deployment(pool: &Arc<Pool>, partitioning: Partitioning) -> ShardedStore<FastFairTree> {
    let trees: Vec<FastFairTree> = (0..partitioning.shards())
        .map(|_| FastFairTree::create_in(Arc::clone(pool)).unwrap())
        .collect();
    let kind = StoreKind::Sharded {
        shards: trees.iter().map(|t| (0, t.superblock())).collect(),
    };
    Catalog::create(vec![Arc::clone(pool)])
        .and_then(|cat| cat.register("store", &kind))
        .unwrap();
    ShardedStore::from_indexes(trees, partitioning)
}

/// The deployment [`deployment`] registered, reopened from `pool`.
fn reopen_deployment(pool: &Arc<Pool>) -> Result<ShardedStore<FastFairTree>, IndexError> {
    Catalog::open(vec![Arc::clone(pool)])?.open_sharded("store")
}

/// The swept batch: the three History rows of TPC-C Payment #9
/// (customer 42, district YTD 1000 after, balance -2500 after).
fn payment_writes() -> [(u64, u64); 3] {
    tpcc::payment_history_writes(9, 42, 1000, -2500)
}

/// Classifies the post-recovery image: how many of the batch's three
/// keys are present, insisting every present one has its exact value.
fn survivors(get: impl Fn(u64) -> Option<u64>, ctx: &str) -> usize {
    let mut n = 0;
    for (k, v) in payment_writes() {
        if let Some(got) = get(k) {
            assert_eq!(got, v, "{ctx}: key {k} has torn value");
            n += 1;
        }
    }
    n
}

#[test]
fn payment_batch_crash_sweep_on_a_tree() {
    let pool = crash_pool();
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).unwrap();
    let meta = tree.superblock();
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();

    // Durable context: unrelated committed keys that must survive every
    // crash untouched, plus one already-committed batch so the swept
    // commit is not the journal's first.
    for k in [100_000u64, 200_000, 300_000] {
        tree.insert(k, k + 1).unwrap();
    }
    let mut warmup = WriteBatch::new();
    warmup.put(0, 400_000, 400_001);
    engine.commit(warmup, &[&tree]).unwrap();

    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    // The swept operation: one 3-key Payment batch.
    let mut batch = WriteBatch::new();
    for (k, v) in payment_writes() {
        batch.put(0, k, v);
    }
    assert_eq!(engine.commit(batch, &[&tree]).unwrap(), 2);

    let total = log.len();
    assert!(total > 10, "batch commit should emit a rich event stream");
    let mut outcomes = BTreeSet::new();
    for cut in 0..=total {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(cut as u64),
        ] {
            let ctx = format!("cut {cut}/{total} {policy:?}");
            let img = pool.crash_image(cut, policy.clone());
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
            let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new())
                .unwrap_or_else(|e| panic!("{ctx}: tree open failed: {e}"));
            let e2 = TxnEngine::open(Arc::clone(&p2))
                .unwrap_or_else(|e| panic!("{ctx}: journal open failed: {e}"));
            let replayed = e2.recover(&[&t2]).unwrap();
            // All-or-nothing: zero or all three, never a partial set.
            let n = survivors(|k| t2.get(k), &ctx);
            assert!(n == 0 || n == 3, "{ctx}: torn batch — {n}/3 keys");
            // The commit word decides which side we are on.
            match e2.last_committed() {
                1 => assert_eq!(n, 0, "{ctx}: uncommitted batch leaked writes"),
                2 => assert_eq!(n, 3, "{ctx}: committed batch lost writes"),
                s => panic!("{ctx}: impossible sequence {s}"),
            }
            outcomes.insert(n);
            // Context committed before the baseline is never disturbed.
            for k in [100_000u64, 200_000, 300_000, 400_000] {
                assert_eq!(t2.get(k), Some(k + 1), "{ctx}: context key {k}");
            }
            // Recovery retired whatever it found: the journal is clean.
            assert!(!e2.pending(), "{ctx}: journal still pending");
            assert_eq!(
                e2.recover(&[&t2]).unwrap(),
                0,
                "{ctx}: recover not idempotent"
            );
            let _ = replayed;
        }
    }
    // The sweep must actually exercise both sides of the commit point.
    assert_eq!(
        outcomes,
        BTreeSet::from([0, 3]),
        "sweep should observe both the zero-write and the all-writes outcome"
    );
}

/// Commits a batch that *overwrites* the three Payment rows (so its apply
/// is three in-place stores) on a crash-logged pool and returns the pool,
/// the tree's superblock and the commit's event log. With `warm_hints` the
/// tree's leaf directory is built first, so all three applies are directed.
fn record_payment_rewrite(warm_hints: bool) -> (Arc<Pool>, u64, Vec<pmem::crash::Event>) {
    let pool = crash_pool();
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).unwrap();
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
    for k in [100_000u64, 200_000, 300_000] {
        tree.insert(k, k + 1).unwrap();
    }
    let mut old = WriteBatch::new();
    for (k, v) in payment_writes() {
        old.put(0, k, v + 2);
    }
    engine.commit(old, &[&tree]).unwrap();
    if warm_hints {
        // A handle builds its directory after a few thousand point ops;
        // reads store nothing, so both runs share one baseline.
        for _ in 0..2_000 {
            for (k, _) in payment_writes() {
                assert!(tree.get(k).is_some());
            }
        }
    }
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());
    let hits = pmem::stats::snapshot().leaf_hint_hits;
    let mut batch = WriteBatch::new();
    for (k, v) in payment_writes() {
        batch.put(0, k, v);
    }
    assert_eq!(engine.commit(batch, &[&tree]).unwrap(), 2);
    let hinted = pmem::stats::snapshot().leaf_hint_hits - hits;
    assert_eq!(hinted, if warm_hints { 3 } else { 0 }, "directed applies");
    (Arc::clone(&pool), tree.superblock(), log.events())
}

/// The apply's directed overwrite is the descent's own store and flush: a
/// warm directory changes nothing in the event log, so the sweep enumerates
/// the same images — each of which recovers to all three old rows or all
/// three new ones.
#[test]
fn payment_rewrite_with_warm_hints_enumerates_the_same_images() {
    let (_, _, cold) = record_payment_rewrite(false);
    let (pool, meta, warm) = record_payment_rewrite(true);
    assert_eq!(warm, cold, "directed applies logged different stores");
    let mut outcomes = BTreeSet::new();
    for cut in 0..=warm.len() {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(3000 + cut as u64),
        ] {
            let ctx = format!("cut {cut}/{} {policy:?}", warm.len());
            let img = pool.crash_image(cut, policy);
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
            let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new()).unwrap();
            let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
            e2.recover(&[&t2]).unwrap();
            let new_rows = payment_writes()
                .iter()
                .filter(|&&(k, v)| match t2.get(k) {
                    Some(got) if got == v => true,
                    Some(got) if got == v + 2 => false,
                    got => panic!("{ctx}: key {k} reads {got:?}"),
                })
                .count();
            assert!(new_rows == 0 || new_rows == 3, "{ctx}: torn — {new_rows}/3");
            assert_eq!(new_rows == 3, e2.last_committed() == 2, "{ctx}");
            outcomes.insert(new_rows);
            assert!(!e2.pending(), "{ctx}: journal still pending");
        }
    }
    assert_eq!(outcomes, BTreeSet::from([0, 3]));
}

/// Crash DURING recovery: take the committed-but-unapplied image, replay
/// under a fresh crash log, cut the replay at every step, crash again,
/// recover again — the batch must still land in full (idempotent redo).
#[test]
fn recovery_replay_is_itself_crash_safe() {
    let pool = crash_pool();
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).unwrap();
    let meta = tree.superblock();
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());
    let mut batch = WriteBatch::new();
    for (k, v) in payment_writes() {
        batch.put(0, k, v);
    }
    engine.commit(batch, &[&tree]).unwrap();

    // Find a committed-but-unapplied image: earliest cut (under maximal
    // eviction) where the commit word is durable.
    let total = log.len();
    let mut committed_img = None;
    for cut in 0..=total {
        let img = pool.crash_image(cut, Eviction::All);
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
        let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
        if e2.pending() {
            committed_img = Some(img);
            break;
        }
    }
    let img = committed_img.expect("some cut must land between commit and retire");

    // Re-run recovery under its own crash log and sweep every cut of it.
    let p2 =
        Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL).crash_log(true)).unwrap());
    let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new()).unwrap();
    let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
    let log2 = p2.crash_log().unwrap();
    log2.set_baseline(p2.volatile_image());
    assert_eq!(e2.recover(&[&t2]).unwrap(), 3);
    let replay_total = log2.len();
    assert!(replay_total > 0, "replay should emit stores");
    for cut in 0..=replay_total {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(1000 + cut as u64),
        ] {
            let ctx = format!("replay cut {cut}/{replay_total} {policy:?}");
            let img2 = p2.crash_image(cut, policy);
            let p3 = Arc::new(Pool::from_image(&img2, PoolConfig::new().size(POOL)).unwrap());
            let t3 = FastFairTree::open(Arc::clone(&p3), meta, TreeOptions::new()).unwrap();
            let e3 = TxnEngine::open(Arc::clone(&p3)).unwrap();
            e3.recover(&[&t3]).unwrap();
            // The batch was committed, so every double-crash recovery
            // must finish it — all three writes, exact values.
            assert_eq!(survivors(|k| t3.get(k), &ctx), 3, "{ctx}: lost writes");
            assert!(!e3.pending(), "{ctx}");
        }
    }
}

#[test]
fn cross_shard_payment_batch_crash_sweep() {
    const SHARDS: usize = 2;
    let pool = crash_pool();
    let store = deployment(&pool, Partitioning::Hash { shards: SHARDS });
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();

    // The Payment trio must genuinely span shards for this sweep to
    // prove anything — assert it rather than hope.
    let part = Partitioning::Hash { shards: SHARDS };
    let hit: BTreeSet<usize> = payment_writes()
        .iter()
        .map(|&(k, _)| part.shard_of(k))
        .collect();
    assert!(hit.len() > 1, "payment keys all hashed to one shard");

    for k in [500_000u64, 600_000] {
        store.insert(k, k + 1).unwrap();
    }
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    let mut batch = WriteBatch::new();
    for (k, v) in payment_writes() {
        batch.put(0, k, v);
    }
    assert_eq!(engine.commit(batch, &[&store]).unwrap(), 1);

    let total = log.len();
    let mut outcomes = BTreeSet::new();
    for cut in 0..=total {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(2000 + cut as u64),
        ] {
            let ctx = format!("cut {cut}/{total} {policy:?}");
            let img = pool.crash_image(cut, policy);
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
            let s2 =
                reopen_deployment(&p2).unwrap_or_else(|e| panic!("{ctx}: store open failed: {e}"));
            let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
            e2.recover(&[&s2]).unwrap();
            let n = survivors(|k| s2.get(k), &ctx);
            assert!(
                n == 0 || n == 3,
                "{ctx}: torn CROSS-SHARD batch — {n}/3 keys"
            );
            outcomes.insert(n);
            for k in [500_000u64, 600_000] {
                assert_eq!(s2.get(k), Some(k + 1), "{ctx}: context key {k}");
            }
            assert!(!e2.pending(), "{ctx}");
        }
    }
    assert_eq!(outcomes, BTreeSet::from([0, 3]));
}

/// Events one commit of [`split_group`] logs: its apply runs on two
/// threads, whose events interleave differently from run to run, but
/// each thread's own stores and flushes do not change, so their number
/// is fixed.
const SPLIT_GROUP_EVENTS: usize = 337;

/// A group whose apply splits across the store's two shards: per shard,
/// `MIN_SPLIT` + 1 fresh puts, `MIN_SPLIT` deletes of preloaded keys and
/// a put then a delete of one more fresh key, all keys from `from` on.
/// Returns the preloaded keys (with their values) and the group's ops.
fn split_group(part: &Partitioning, from: u64) -> (Vec<(u64, u64)>, Vec<BatchOp>) {
    let mut preload = Vec::new();
    let mut ops = Vec::new();
    for shard in 0..part.shards() {
        let mut keys = (from..).step_by(13).filter(|&k| part.shard_of(k) == shard);
        for _ in 0..=MIN_SPLIT {
            let k = keys.next().unwrap();
            ops.push(BatchOp::Put(k, k + 7));
        }
        for _ in 0..MIN_SPLIT {
            let k = keys.next().unwrap();
            preload.push((k, k + 1));
            ops.push(BatchOp::Delete(k));
        }
        let k = keys.next().unwrap();
        ops.extend([BatchOp::Put(k, k + 9), BatchOp::Delete(k)]);
    }
    (preload, ops)
}

/// How much of [`split_group`] a recovered image holds: the number of its
/// puts and deletes whose effect is visible, insisting every key is in
/// exactly its before or after state and the put-then-delete key never
/// shows.
fn split_group_applied(
    get: impl Fn(u64) -> Option<u64>,
    preload: &[(u64, u64)],
    ops: &[BatchOp],
    ctx: &str,
) -> usize {
    let mut applied = 0;
    for (i, op) in ops.iter().enumerate() {
        let paired = ops.iter().filter(|o| o.key() == op.key()).count() > 1;
        let before = preload.iter().find(|p| p.0 == op.key()).map(|p| p.1);
        let got = get(op.key());
        if paired {
            assert_eq!(got, None, "{ctx}: put-then-delete key {} shows", op.key());
            continue;
        }
        let after = match *op {
            BatchOp::Put(_, v) => Some(v),
            BatchOp::Delete(_) => None,
        };
        match got {
            g if g == after => applied += 1,
            g if g == before => {}
            g => panic!("{ctx}: op {i} key {} reads {g:?}", op.key()),
        }
    }
    applied
}

#[test]
fn split_apply_batch_crash_sweep() {
    const SHARDS: usize = 2;
    let part = Partitioning::Hash { shards: SHARDS };
    let pool = crash_pool();
    let store = deployment(&pool, part.clone());
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
    let (preload, ops) = split_group(&part, 700_000);
    for &(k, v) in &preload {
        store.insert(k, v).unwrap();
    }
    // A first split starts the helper thread, so the swept apply finds it
    // waiting for work rather than still starting up.
    store.apply_batch(&split_group(&part, 900_000).1).unwrap();
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    let mut batch = WriteBatch::new();
    for &op in &ops {
        match op {
            BatchOp::Put(k, v) => batch.put(0, k, v),
            BatchOp::Delete(k) => batch.delete(0, k),
        }
    }
    assert_eq!(engine.commit(batch, &[&store]).unwrap(), 1);
    assert_eq!(store.split_applies(), 2, "the group's apply did not split");
    let total = log.len();
    assert_eq!(total, SPLIT_GROUP_EVENTS, "events of one split commit");

    let effects = ops.len() - 2 * SHARDS; // the pairs leave no trace
    let mut outcomes = BTreeSet::new();
    for cut in 0..=total {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(4000 + cut as u64),
        ] {
            let ctx = format!("cut {cut}/{total} {policy:?}");
            let img = pool.crash_image(cut, policy);
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
            let s2 =
                reopen_deployment(&p2).unwrap_or_else(|e| panic!("{ctx}: store open failed: {e}"));
            let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
            e2.recover(&[&s2]).unwrap();
            let n = split_group_applied(|k| s2.get(k), &preload, &ops, &ctx);
            assert!(n == 0 || n == effects, "{ctx}: torn group — {n}/{effects}");
            assert_eq!(n == effects, e2.last_committed() == 1, "{ctx}");
            outcomes.insert(n);
            assert!(!e2.pending(), "{ctx}");
        }
    }
    assert_eq!(outcomes, BTreeSet::from([0, effects]));
}

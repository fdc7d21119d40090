//! Mechanism gate for `commit_grouped_prev`: asking a group commit what
//! each put replaced costs **no tree descent** beyond the apply's own,
//! and no fence or flush beyond `commit_grouped`'s.
//!
//! `pmem::stats` counts a serial miss per node a descent lands on and per
//! record line a leaf probe inspects, whatever the latency profile — so on
//! a DRAM-latency pool the counts are exact and repeatable: four rigs,
//! built identically, each run one way of writing the same N puts.

use std::sync::Arc;

use fastfair::FastFairTree;
use pmem::stats;
use pmem::{Pool, PoolConfig};
use pmindex::{PersistentIndex, PmIndex};
use shard::{Partitioning, ShardedStore};
use txn::{TxnEngine, WriteBatch};

const PRELOADED: u64 = 20_000;
const N: u64 = 64;

/// Half overwrite a preloaded key, half insert a fresh one.
fn puts() -> Vec<(u64, u64)> {
    (0..N)
        .map(|i| {
            let k = if i.is_multiple_of(2) {
                i * 300 + 2
            } else {
                i * 300 + 1
            };
            (k, 1_000_000 + i)
        })
        .collect()
}

fn preloaded(k: u64) -> Option<u64> {
    (k.is_multiple_of(2) && k <= 2 * PRELOADED).then_some(k + 1)
}

fn one_op_batches() -> Vec<WriteBatch> {
    puts()
        .into_iter()
        .map(|(k, v)| {
            let mut b = WriteBatch::new();
            b.put(0, k, v);
            b
        })
        .collect()
}

/// A fresh pool holding `make`'s table with the even keys preloaded, and
/// a journal; counters zeroed.
fn rig<I: PmIndex>(make: &impl Fn(Arc<Pool>) -> I) -> (I, TxnEngine) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(32 << 20)).unwrap());
    let table = make(Arc::clone(&pool));
    table
        .bulk_load(&mut (1..=PRELOADED).map(|i| (2 * i, 2 * i + 1)))
        .unwrap();
    let engine = TxnEngine::create(pool).unwrap();
    stats::reset();
    (table, engine)
}

fn gate<I: PmIndex>(make: impl Fn(Arc<Pool>) -> I) {
    // N direct inserts: one descent each, by construction.
    let (table, _engine) = rig(&make);
    for (k, v) in puts() {
        assert_eq!(table.insert(k, v).unwrap(), preloaded(k));
    }
    let direct: stats::Snapshot = stats::take();

    // The old service path: a previous-value get per put, then the commit.
    let (table, engine) = rig(&make);
    for (k, _) in puts() {
        assert_eq!(table.get(k), preloaded(k));
    }
    engine.commit_grouped(&one_op_batches(), &[&table]).unwrap();
    let get_then_commit = stats::take();

    let (table, engine) = rig(&make);
    engine.commit_grouped(&one_op_batches(), &[&table]).unwrap();
    let commit = stats::take();

    let (table, engine) = rig(&make);
    let mut prev = Vec::new();
    engine
        .commit_grouped_prev(&one_op_batches(), &[&table], &mut prev)
        .unwrap();
    let commit_prev = stats::take();
    let want: Vec<_> = puts().into_iter().map(|(k, _)| preloaded(k)).collect();
    assert_eq!(prev, want);
    for (k, v) in puts() {
        assert_eq!(table.get(k), Some(v));
    }

    let name = table.name();
    assert_eq!(
        commit_prev.serial_misses, direct.serial_misses,
        "{name}: commit_grouped_prev descends more than N direct inserts"
    );
    assert!(
        commit_prev.serial_misses < get_then_commit.serial_misses,
        "{name}: no descent saved over N gets + commit_grouped ({} vs {})",
        commit_prev.serial_misses,
        get_then_commit.serial_misses
    );
    assert_eq!(
        (commit_prev.fences, commit_prev.flushes),
        (commit.fences, commit.flushes),
        "{name}: commit_grouped_prev persists differently from commit_grouped"
    );
}

#[test]
fn prev_costs_no_descent_fence_or_flush_on_a_tree() {
    gate(|pool| FastFairTree::create_in(pool).unwrap());
}

#[test]
fn prev_costs_no_descent_fence_or_flush_on_a_sharded_store() {
    gate(|pool| {
        ShardedStore::<FastFairTree>::create(
            Arc::clone(&pool),
            vec![Arc::clone(&pool); 2],
            Partitioning::Hash { shards: 2 },
        )
        .unwrap()
    });
}

//! Delete-while-scanning: removing keys out from under a live cursor must
//! never panic, tear a value, or corrupt the remainder of the scan — for
//! every index in the repository.
//!
//! The contract checked here is the one every lock-free scan relies on: a
//! key deleted *after* the cursor was positioned but *before* it is
//! yielded may still appear once with its old value, or be skipped — both
//! are linearizable outcomes. Every other live key must
//! appear exactly once, in ascending order, with exactly the value that
//! was written for it. The sweep includes a block of keys sharing one
//! value, the equal-adjacent-values shape that used to defeat the FAST
//! pointer-duplication validity test.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fastfair_repro::pmem::{Pool, PoolConfig};
use fastfair_repro::pmindex::workload::value_for;
use fastfair_repro::pmindex::{Cursor, PmIndex};

const POOL_BYTES: usize = 48 << 20;

/// Keys `1..=DENSE` carry unique values; keys in `DUP_LO..=DUP_HI` all
/// carry [`DUP_VAL`], so in-node neighbours are equal-valued.
const DENSE: u64 = 400;
const DUP_LO: u64 = 1_001;
const DUP_HI: u64 = 1_120;
const DUP_VAL: u64 = 7;

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
    ]
}

fn expected_value(k: u64) -> u64 {
    if (DUP_LO..=DUP_HI).contains(&k) {
        DUP_VAL
    } else {
        value_for(k)
    }
}

fn preload(idx: &dyn PmIndex) -> BTreeMap<u64, u64> {
    let mut model = BTreeMap::new();
    // Interleave so equal-valued duplicate-block neighbours are created by
    // shifts, not appends: odd keys first, then evens squeeze between them.
    for k in (1..=DENSE).chain(DUP_LO..=DUP_HI).filter(|k| k % 2 == 1) {
        idx.insert(k, expected_value(k)).unwrap();
        model.insert(k, expected_value(k));
    }
    for k in (1..=DENSE).chain(DUP_LO..=DUP_HI).filter(|k| k % 2 == 0) {
        idx.insert(k, expected_value(k)).unwrap();
        model.insert(k, expected_value(k));
    }
    model
}

/// Serial sweep: park the cursor just before a key, delete that key (and
/// for the duplicate block, a key adjacent to an equal-valued survivor),
/// then drain the cursor and check the outcome against the model.
#[test]
fn cursor_survives_deletes_under_its_feet() {
    let pool = Arc::new(Pool::new(PoolConfig::default().size(POOL_BYTES)).unwrap());
    for idx in all_indexes(&pool) {
        let mut model = preload(idx.as_ref());

        // Delete every 7th dense key and every 5th duplicate-block key
        // while a cursor is parked immediately before it.
        let victims: Vec<u64> = (1..=DENSE)
            .step_by(7)
            .chain((DUP_LO..=DUP_HI).step_by(5))
            .collect();
        for &victim in &victims {
            let mut cur = idx.cursor();
            cur.seek(victim);
            // The cursor is now positioned so its next yield would be
            // `victim`. Pull the rug out.
            assert!(
                idx.remove(victim),
                "{}: victim {victim} missing",
                idx.name()
            );
            let old = model.remove(&victim).unwrap();
            match cur.next() {
                // Pre-delete snapshot of the slot: old value only — a torn
                // or recycled value here is the bug this test exists for.
                Some((k, v)) if k == victim => assert_eq!(
                    v,
                    old,
                    "{}: deleted key {victim} yielded a torn value",
                    idx.name()
                ),
                // Skipped straight to the live successor.
                Some((k, v)) => {
                    let succ = model.range(victim..).next();
                    assert_eq!(
                        succ,
                        Some((&k, &v)),
                        "{}: cursor after deleting {victim} skipped to wrong entry",
                        idx.name()
                    );
                }
                None => assert!(
                    model.range(victim..).next().is_none(),
                    "{}: cursor ended early after deleting {victim}",
                    idx.name()
                ),
            }
        }

        // Full drain: survivors exactly match the model, in order, with
        // exact values (duplicate-block survivors still carry DUP_VAL).
        let mut cur = idx.cursor();
        cur.seek(0);
        let mut seen = Vec::new();
        while let Some((k, v)) = cur.next() {
            seen.push((k, v));
        }
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(
            seen,
            want,
            "{}: post-delete scan diverged from model",
            idx.name()
        );
        assert_eq!(idx.len(), model.len(), "{}: len drifted", idx.name());
    }
}

/// Concurrent sweep: scanners stream full scans while a deleter removes
/// the odd keys. Every yielded entry must be a key that was loaded, with
/// its exact value; scans must stay strictly ascending; and the final
/// drain must contain exactly the even keys.
#[test]
fn concurrent_scans_tolerate_deletes() {
    let pool = Arc::new(Pool::new(PoolConfig::default().size(POOL_BYTES)).unwrap());
    for idx in all_indexes(&pool) {
        preload(idx.as_ref());
        let done = AtomicBool::new(false);
        let idx = &*idx;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        let mut cur = idx.cursor();
                        cur.seek(0);
                        let mut prev = 0u64;
                        while let Some((k, v)) = cur.next() {
                            assert!(prev < k, "{}: scan not ascending", idx.name());
                            prev = k;
                            assert!(
                                (1..=DENSE).contains(&k) || (DUP_LO..=DUP_HI).contains(&k),
                                "{}: scan yielded unknown key {k}",
                                idx.name()
                            );
                            assert_eq!(
                                v,
                                expected_value(k),
                                "{}: scan yielded torn value for {k}",
                                idx.name()
                            );
                        }
                    }
                });
            }
            for k in (1..=DENSE).chain(DUP_LO..=DUP_HI).filter(|k| k % 2 == 1) {
                assert!(idx.remove(k), "{}: delete {k} failed", idx.name());
            }
            done.store(true, Ordering::Release);
        });

        let mut cur = idx.cursor();
        cur.seek(0);
        let mut seen = Vec::new();
        while let Some((k, v)) = cur.next() {
            assert_eq!(v, expected_value(k));
            seen.push(k);
        }
        let want: Vec<u64> = (1..=DENSE)
            .chain(DUP_LO..=DUP_HI)
            .filter(|k| k % 2 == 0)
            .collect();
        assert_eq!(seen, want, "{}: survivors diverged", idx.name());
    }
}

/// Scans *through the service* while deletes stream through the same
/// single lane: because every request on a lane serializes into group
/// order and scans are answered at their group's commit point, each scan
/// must observe exactly a PREFIX of the delete sequence — never a torn
/// middle state, never a deleted key resurfacing. This is the
/// client-visible face of the snapshot/group-commit seam: a scan grouped
/// mid-way through the deletes sees all earlier deletes and none of the
/// later ones.
#[test]
fn service_scans_observe_delete_prefixes() {
    use fastfair_repro::fastfair::FastFairTree;
    use fastfair_repro::pmindex::PersistentIndex;
    use fastfair_repro::service::{Service, ServiceConfig};
    use fastfair_repro::shard::{Partitioning, ShardedStore};
    use fastfair_repro::txn::TxnEngine;

    let pool = Arc::new(Pool::new(PoolConfig::default().size(POOL_BYTES)).unwrap());
    let store = Arc::new(ShardedStore::from_indexes(
        vec![FastFairTree::create_in(Arc::clone(&pool)).unwrap()],
        Partitioning::Hash { shards: 1 },
    ));
    let engine = Arc::new(TxnEngine::create(Arc::clone(&pool)).unwrap());
    let service = Service::with_engine(
        vec![Arc::clone(&store)],
        engine,
        ServiceConfig {
            lanes: 1,
            ..ServiceConfig::default()
        },
    );

    let loader = service.handle();
    for k in 1..=DENSE {
        loader.insert(k, expected_value(k)).unwrap();
    }
    let victims: Vec<u64> = (1..=DENSE).filter(|k| k % 2 == 1).collect();

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scanner = service.handle();
        let victims_ref = &victims;
        let done = &done;
        s.spawn(move || {
            let mut max_prefix = 0usize;
            while !done.load(Ordering::Acquire) {
                let rows = scanner.scan(1, DENSE + 1).unwrap();
                // Values exact, order ascending.
                for w in rows.windows(2) {
                    assert!(w[0].0 < w[1].0, "service scan not ascending");
                }
                for &(k, v) in &rows {
                    assert_eq!(v, expected_value(k), "service scan yielded torn value");
                }
                // The missing odd keys must be exactly the first `d`
                // victims of the delete sequence — a prefix, not a subset.
                let present: std::collections::BTreeSet<u64> =
                    rows.iter().map(|&(k, _)| k).collect();
                let d = victims_ref.iter().filter(|k| !present.contains(k)).count();
                for (i, k) in victims_ref.iter().enumerate() {
                    assert_eq!(
                        present.contains(k),
                        i >= d,
                        "scan observed a torn delete sequence: {d} gone but key {k} wrong"
                    );
                }
                // Prefixes only grow: commits are ordered on the lane.
                assert!(d >= max_prefix, "a deleted key resurfaced");
                max_prefix = d;
            }
        });
        let deleter = service.handle();
        for &k in &victims {
            assert!(deleter.delete(k).unwrap(), "victim {k} missing");
        }
        done.store(true, Ordering::Release);
    });

    let survivors = service.handle().scan(1, DENSE + 1).unwrap();
    let want: Vec<(u64, u64)> = (1..=DENSE)
        .filter(|k| k % 2 == 0)
        .map(|k| (k, expected_value(k)))
        .collect();
    assert_eq!(survivors, want, "post-delete service scan diverged");
}

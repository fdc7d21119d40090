//! Crash sweep for catalog mutations.
//!
//! The catalog is one record in one crash-logged root pool, so the event
//! log totally orders each mutation's stores: the new record's fill and
//! flush, then the single 8-byte publish of `CommitCell::CATALOG`. We
//! materialize the post-crash image at every cut under the minimal,
//! maximal and env-seeded pseudo-random eviction policies
//! (`FF_CRASH_SEED` varies the latter across CI's crash matrix), re-open
//! the catalog, and require:
//!
//! * `Catalog::open` succeeds at EVERY cut — open checks the record's
//!   checksum and fleet-slot bounds, so this alone pins "no torn record
//!   is ever published, no dangling pool reference ever stored";
//! * the full name→kind mapping equals the committed state at the
//!   enclosing op boundary, or — mid-op — exactly the old or the new
//!   state, never a blend (a rename never shows both names or neither);
//! * the reopen wrote nothing: the reopened root pool's image is the
//!   crash image, byte for byte.
//!
//! The same sweep covers a sharded deployment's creation and population,
//! whose map is one catalog entry committed by that same publish.

use std::collections::BTreeMap;
use std::sync::Arc;

use catalog::{Catalog, StoreKind};
use fastfair::FastFairTree;
use pmem::crash::Eviction;
use pmem::{Pool, PoolConfig};
use pmindex::{CursorIter, PersistentIndex, PmIndex};
use shard::{Partitioning, ShardedStore};

const POOL: usize = 1 << 20;

#[derive(Debug, Clone)]
enum Op {
    Register(&'static str, StoreKind),
    Update(&'static str, StoreKind),
    Rename(&'static str, &'static str),
    Remove(&'static str),
}

type Model = BTreeMap<String, StoreKind>;

fn apply(model: &mut Model, op: &Op) {
    match op {
        Op::Register(name, kind) | Op::Update(name, kind) => {
            model.insert((*name).into(), kind.clone());
        }
        Op::Rename(old, new) => {
            let kind = model.remove(*old).expect("rename source in model");
            model.insert((*new).into(), kind);
        }
        Op::Remove(name) => {
            model.remove(*name);
        }
    }
}

fn run(cat: &Catalog, op: &Op) {
    match op {
        Op::Register(name, kind) => cat.register(name, kind).unwrap(),
        Op::Update(name, kind) => cat.update(name, kind).unwrap(),
        Op::Rename(old, new) => cat.rename(old, new).unwrap(),
        Op::Remove(name) => assert!(cat.remove(name)),
    }
}

fn contents(cat: &Catalog) -> Model {
    cat.names()
        .into_iter()
        .map(|n| {
            let kind = cat.lookup(&n).expect("listed name resolves");
            (n, kind)
        })
        .collect()
}

fn reopen(root_img: &[u8]) -> Catalog {
    let root = Arc::new(Pool::from_image(root_img, PoolConfig::new().size(POOL)).unwrap());
    // The sweep's records reference fleet slots 0 and 1; the data pool's
    // contents are irrelevant to catalog recovery, so a fresh pool
    // stands in for "the operator re-mapped the same file".
    let data = Arc::new(Pool::new(PoolConfig::new().size(1 << 20)).unwrap());
    Catalog::open(vec![root, data]).expect("catalog must reopen at every cut")
}

#[test]
fn crash_sweep_catalog_mutations_old_or_new() {
    let root = Arc::new(Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap());
    let data = Arc::new(Pool::new(PoolConfig::new().size(1 << 20)).unwrap());
    let cat = Catalog::create(vec![Arc::clone(&root), data]).unwrap();

    // Durable preload: short and long names, all kinds.
    let mut committed: Model = BTreeMap::new();
    for (name, kind) in [
        (
            "alpha",
            StoreKind::Index {
                pool: 0,
                superblock: 64,
            },
        ),
        (
            "beta-long-name-beyond-inline",
            StoreKind::Index {
                pool: 1,
                superblock: 128,
            },
        ),
        (
            "gamma",
            StoreKind::Sharded {
                shards: vec![(0, 192), (1, 64)],
            },
        ),
        ("delta", StoreKind::Txn { pool: 1 }),
    ] {
        cat.register(name, &kind).unwrap();
        committed.insert(name.into(), kind);
    }
    let log = root.crash_log().unwrap();
    log.set_baseline(root.volatile_image());

    // The op stream under test: registers into fresh and recycled
    // names, an update, removals, and renames in both name-length
    // directions.
    let ops = [
        Op::Register(
            "epsilon",
            StoreKind::Index {
                pool: 1,
                superblock: 256,
            },
        ),
        Op::Register("zeta-another-overflow-name", StoreKind::Txn { pool: 0 }),
        Op::Update(
            "alpha",
            StoreKind::Index {
                pool: 0,
                superblock: 512,
            },
        ),
        Op::Rename("gamma", "gamma-renamed-well-past-inline"),
        Op::Remove("delta"),
        Op::Register(
            "delta",
            StoreKind::Index {
                pool: 0,
                superblock: 320,
            },
        ),
        Op::Rename("beta-long-name-beyond-inline", "beta"),
    ];

    // Committed model at each op boundary.
    let mut boundaries: Vec<(usize, Model)> = Vec::new();
    for op in &ops {
        boundaries.push((log.len(), committed.clone()));
        run(&cat, op);
        apply(&mut committed, op);
    }
    let total = log.len();
    boundaries.push((total, committed.clone()));

    for cut in 0..=total {
        let idx = boundaries.partition_point(|(b, _)| *b <= cut) - 1;
        let at_boundary = boundaries[idx].0 == cut;
        let before = &boundaries[idx].1;
        let after = boundaries.get(idx + 1).map(|(_, m)| m);
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(cut as u64),
        ] {
            let img = root.crash_image(cut, policy.clone());
            let reopened = reopen(&img);
            let got = contents(&reopened);
            match after {
                Some(after) if !at_boundary => {
                    // Mid-op: the whole mapping is the old state or the
                    // new state — there is no third possibility.
                    assert!(
                        &got == before || got == *after,
                        "cut {cut} {policy:?}: blended state\n got: {got:?}\n old: {before:?}\n new: {after:?}"
                    );
                }
                _ => assert_eq!(&got, before, "cut {cut} {policy:?}: boundary state"),
            }
            assert!(
                reopened.root().volatile_image() == img,
                "cut {cut} {policy:?}: the reopen wrote to the root pool"
            );
        }
    }
}

#[test]
fn reopen_with_a_smaller_fleet_is_rejected() {
    // A record referencing fleet slot 1 is a dangling pool reference if
    // the operator reopens with only the root pool — open must say so
    // rather than hand out a store that will index out of bounds later.
    let root = Arc::new(Pool::new(PoolConfig::new().size(POOL)).unwrap());
    let data = Arc::new(Pool::new(PoolConfig::new().size(1 << 20)).unwrap());
    let cat = Catalog::create(vec![Arc::clone(&root), data]).unwrap();
    cat.register(
        "needs-two-pools",
        &StoreKind::Index {
            pool: 1,
            superblock: 64,
        },
    )
    .unwrap();

    let img = root.volatile_image();
    let root2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
    let err = Catalog::open(vec![root2]).unwrap_err();
    assert!(
        err.to_string().contains("fleet slot"),
        "expected a dangling-slot error, got: {err}"
    );
}

const SHARDS: usize = 3;
/// About 50 keys a shard: more than one 512-byte leaf holds, so every
/// shard's population includes a FAIR split.
const KEYS: u64 = 150;

fn key(i: u64) -> u64 {
    i * 49_999
}

/// Sweeps a sharded deployment's creation and population. Everything —
/// the catalog, three shards and the entry naming them — lives in ONE
/// crash-logged pool, so the event log totally orders every store of the
/// creation (the trees, then the register) and of the inserts that
/// follow it. Each image either has no such name (the crash came before
/// the publish) or opens to the full shard map, holding exactly the keys
/// whose inserts returned before the cut, plus at most the one in
/// flight.
#[test]
fn sharded_deployment_crash_sweep_hash() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap());
    let cat = Catalog::create(vec![Arc::clone(&pool)]).unwrap();
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    let trees: Vec<FastFairTree> = (0..SHARDS)
        .map(|_| FastFairTree::create_in(Arc::clone(&pool)).unwrap())
        .collect();
    let kind = StoreKind::Sharded {
        shards: trees.iter().map(|t| (0, t.superblock())).collect(),
    };
    let partitioning = Partitioning::Hash { shards: SHARDS };
    let store = ShardedStore::from_indexes(trees, partitioning.clone());
    cat.register("wide", &kind).unwrap();
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
    let mut absent = 0;
    for cut in 0..=total {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(cut as u64),
        ] {
            let img = pool.crash_image(cut, policy.clone());
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
            let cat2 = Catalog::open(vec![p2]).expect("catalog must reopen at every cut");
            if cat2.lookup("wide").is_none() {
                assert!(cut < created, "cut {cut} {policy:?}: registered name lost");
                absent += 1;
                continue;
            }
            let reopened: ShardedStore<FastFairTree> = cat2
                .open_sharded("wide")
                .unwrap_or_else(|e| panic!("cut {cut} {policy:?}: open failed: {e}"));
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
    assert!(absent > 0, "no cut fell before the register's publish");
    assert!(total >= 100, "{total} events");
}

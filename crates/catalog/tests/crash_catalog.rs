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

use std::collections::BTreeMap;
use std::sync::Arc;

use catalog::{Catalog, StoreKind};
use pmem::crash::Eviction;
use pmem::{Pool, PoolConfig};

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
                manifest_pool: 0,
                shard_pools: vec![0, 1],
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

//! Reopen-by-name demo: create a catalog, a store and a txn engine, kill
//! the process between a journal commit and its apply, crash in the
//! middle of a catalog mutation, and reopen everything from nothing but
//! pool images and names — twice, because a recovery path that only works
//! once is not a recovery path. The service that boots last replays the
//! journal before it serves.
//!
//! ```sh
//! cargo run --release --example reopen_kv
//! ```

use std::sync::Arc;

use fastfair_repro::catalog::{Catalog, StoreKind};
use fastfair_repro::fastfair::FastFairTree;
use fastfair_repro::pmem::crash::Eviction;
use fastfair_repro::pmem::{Pool, PoolConfig};
use fastfair_repro::pmindex::{HeldApply, PersistentIndex, PmIndex};
use fastfair_repro::service::{Service, ServiceConfig};
use fastfair_repro::txn::{TxnEngine, WriteBatch};

const ORDERS: u64 = 10_000;
/// Orders committed to the journal whose apply the kill interrupts.
const LATE: u64 = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- process 1: cold start ---------------------------------------
    // The root pool (fleet slot 0) holds the catalog; the data pool
    // holds the store and the txn journal. Crash-logging the root pool
    // lets us cut power at an arbitrary store below.
    let root = Arc::new(Pool::new(
        PoolConfig::default().size(8 << 20).crash_log(true),
    )?);
    let data = Arc::new(Pool::new(PoolConfig::default().size(64 << 20))?);

    let cat = Catalog::create(vec![Arc::clone(&root), Arc::clone(&data)])?;
    let tree = FastFairTree::create_in(Arc::clone(&data))?;
    for k in 1..=ORDERS {
        tree.insert(k, k * 2)?;
    }
    cat.register(
        "orders",
        &StoreKind::Index {
            pool: 1,
            superblock: tree.superblock(),
        },
    )?;
    let engine = TxnEngine::create(Arc::clone(&data))?;
    cat.register("txn", &StoreKind::Txn { pool: 1 })?;
    println!(
        "registered {} store(s) in the catalog: {:?}",
        cat.len(),
        cat.names()
    );

    // The newest order costs one reverse seek, not a forward stream.
    let mut cur = tree.cursor();
    cur.seek_for_prev(u64::MAX);
    let newest = cur.prev().expect("tree is non-empty");
    println!("newest order via reverse seek: {newest:?}");
    assert_eq!(newest, (ORDERS, ORDERS * 2));

    // ---- kill between a journal commit and its apply -----------------
    // A hold on the tree's batch applies stops the committer between its
    // sequence store and its apply: the batch is durable, its orders are
    // in no tree yet. The data pool is imaged right there — the process
    // dies with the batch committed and unapplied.
    let before = engine.last_committed();
    let held = HeldApply::new(&tree);
    let hold = held.hold();
    let data_image = std::thread::scope(|s| {
        let committer = s.spawn(|| {
            let mut late = WriteBatch::new();
            for k in ORDERS + 1..=ORDERS + LATE {
                late.put(0, k, k * 2);
            }
            engine.commit(late, &[&held])
        });
        while engine.last_committed() == before {
            std::thread::yield_now();
        }
        let image = data.volatile_image();
        drop(hold);
        committer.join().expect("committer panicked").map(|_| image)
    })?;
    println!("killed with {LATE} orders committed to the journal, unapplied");

    // ---- power loss mid-mutation -------------------------------------
    // Cut power halfway through registering a second store. The record
    // is published by a single 8-byte store, so the reopened catalog
    // must see "history" either fully mapped or not at all — and
    // "orders" untouched either way.
    let log = root.crash_log().expect("crash log enabled");
    log.set_baseline(root.volatile_image());
    let history = FastFairTree::create_in(Arc::clone(&root))?;
    cat.register(
        "history",
        &StoreKind::Index {
            pool: 0,
            superblock: history.superblock(),
        },
    )?;
    let cut = log.len() / 2;
    let root_image = root.crash_image(cut, Eviction::None);

    // ---- process 2: reopen from the images ---------------------------
    let root2 = Arc::new(Pool::from_image(&root_image, PoolConfig::default())?);
    let data2 = Arc::new(Pool::from_image(&data_image, PoolConfig::default())?);
    let cat2 = Catalog::open(vec![Arc::clone(&root2), Arc::clone(&data2)])?;
    let orders2: FastFairTree = cat2.open_store("orders")?;
    for k in 1..=ORDERS {
        assert_eq!(orders2.get(k), Some(k * 2), "lost order {k}");
    }
    println!(
        "crash mid-register at cut {cut}: reopened catalog, orders intact ({} names: {:?})",
        cat2.len(),
        cat2.names()
    );

    // ---- process 3: reopen the reopened state ------------------------
    // A second restart exercises the idempotence of open-time replay.
    let root3 = Arc::new(Pool::from_image(
        &root2.volatile_image(),
        PoolConfig::default(),
    )?);
    let data3 = Arc::new(Pool::from_image(
        &data2.volatile_image(),
        PoolConfig::default(),
    )?);
    let cat3 = Catalog::open(vec![root3, data3])?;
    let orders3: FastFairTree = cat3.open_store("orders")?;
    assert_eq!(orders3.len(), ORDERS as usize);
    println!("second reopen: {ORDERS} orders still intact");
    drop(orders3);

    // ---- serve it ----------------------------------------------------
    // The request-serving layer boots from the same catalog, by name,
    // and recovers the journal against its tables before it serves: the
    // killed batch is replayed.
    let mut service: Service<FastFairTree> =
        Service::from_catalog(&cat3, &["orders"], Some("txn"), ServiceConfig::default())?;
    let client = service.handle();
    for k in ORDERS + 1..=ORDERS + LATE {
        assert_eq!(client.get(k)?, Some(k * 2), "journal lost order {k}");
    }
    println!("journal recovery replayed the {LATE} committed orders");
    drop(client);
    service.shutdown();
    println!("service booted from catalog and served the newest order");

    println!("reopen_kv example finished OK");
    Ok(())
}

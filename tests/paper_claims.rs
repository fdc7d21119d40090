//! The paper's §5 claims as exact counter checks.
//!
//! Every index runs on a DRAM-latency pool, so nothing here times
//! anything: each check asserts `pmem::stats` counters — flushes, fences,
//! `dmb` barriers, serial misses, parallel lines, FAST shift steps — which
//! are thread-local and deterministic per seed. A claim that breaks fails
//! here, on every change, instead of drifting in a printed table.
//!
//! Each index is preloaded with 10 k keys by random insertion (the
//! paper's methodology, ≈ 70 % leaf fill), 512-byte FAST+FAIR nodes
//! unless a check says otherwise. Each check's doc comment gives the
//! paper's figure and the one measured here; every threshold also held
//! at 5 k, 20 k and 50 k keys.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastfair_repro::fastfair::{FastFairTree, InNodeSearch, SplitStrategy, TreeOptions};
use fastfair_repro::pmem::stats;
use fastfair_repro::pmem::{FenceMode, LatencyProfile, Pool, PoolConfig};
use fastfair_repro::pmindex::workload::{generate_keys, value_for, KeyDist};
use fastfair_repro::pmindex::{HeldApply, PmIndex};
use fastfair_repro::service::{Service, ServiceConfig};
use fastfair_repro::txn::TxnEngine;
use fastfair_repro::{fptree, pskiplist, wbtree, wort};

/// Keys preloaded into every index.
const N: usize = 10_000;
/// Fresh keys inserted (and measured) after the preload.
const EXTRA: usize = N / 5;

const NODE_SIZES: [u32; 5] = [256, 512, 1024, 2048, 4096];

fn pool(latency: LatencyProfile) -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(32 << 20).latency(latency)).unwrap())
}

fn fast_fair(pool: &Arc<Pool>, opts: TreeOptions) -> Box<dyn PmIndex> {
    Box::new(FastFairTree::create(Arc::clone(pool), opts).unwrap())
}

/// FAST+FAIR at `node_size`, then the paper's four persistent baselines
/// (fixed node layouts), in Fig. 5(b)'s order.
fn field(pool: &Arc<Pool>, node_size: u32) -> Vec<Box<dyn PmIndex>> {
    vec![
        fast_fair(pool, TreeOptions::new().node_size(node_size)),
        Box::new(fptree::FpTree::create(Arc::clone(pool)).unwrap()),
        Box::new(wort::Wort::create(Arc::clone(pool)).unwrap()),
        Box::new(wbtree::WbTree::create(Arc::clone(pool)).unwrap()),
        Box::new(pskiplist::PSkipList::create(Arc::clone(pool)).unwrap()),
    ]
}

fn preload(index: &dyn PmIndex) -> Vec<u64> {
    let keys = generate_keys(N, KeyDist::Uniform, 3);
    for &k in &keys {
        index.insert(k, value_for(k)).unwrap();
    }
    keys
}

/// This thread's counters over `f` alone.
fn measure(f: impl FnOnce()) -> stats::Snapshot {
    stats::reset();
    f();
    stats::take()
}

/// Counters over inserting `EXTRA` fresh keys into a preloaded `index`.
fn inserts(index: &dyn PmIndex) -> stats::Snapshot {
    preload(index);
    let fresh = generate_keys(EXTRA, KeyDist::Uniform, 4);
    measure(|| {
        for &k in &fresh {
            index.insert(k, value_for(k)).unwrap();
        }
    })
}

/// Counters over one `get` of every preloaded key.
fn gets(index: &dyn PmIndex) -> stats::Snapshot {
    let keys = preload(index);
    measure(|| {
        for &k in &keys {
            assert_eq!(index.get(k), Some(value_for(k)), "{}", index.name());
        }
    })
}

fn per(count: u64, ops: usize) -> f64 {
    count as f64 / ops as f64
}

/// Fig. 3(a): larger nodes shift more records per FAST insert and flush
/// more lines for it. Measured 3.3 → 9.3 → 21 → 45 → 88 shift steps and
/// 3.0 → 4.1 → 6.9 → 12.7 → 23.4 flushes per insert from 256 B to 4 KiB;
/// the paper shows the insert time this drives rising the same way.
#[test]
fn fig3a_shifts_and_flushes_per_insert_rise_with_node_size() {
    let mut last = (0.0, 0.0);
    for size in NODE_SIZES {
        let p = pool(LatencyProfile::dram());
        let s = inserts(fast_fair(&p, TreeOptions::new().node_size(size)).as_ref());
        let now = (per(s.shift_steps, EXTRA), per(s.flushes, EXTRA));
        assert!(
            now.0 > last.0 && now.1 > last.1,
            "{size} B: (shift steps, flushes) per insert {now:?} do not rise over {last:?}"
        );
        last = now;
    }
}

/// §5.2 / Fig. 3(b): a linear in-node scan costs fewer dependent misses
/// than binary search at every node size up to 4 KiB — its adjacent lines
/// are charged as parallel, a binary probe's as serial. Measured 1.12–1.19
/// serial misses per `get` for linear against 2.7–8.1 for binary. (The
/// paper's crossover at 4 KiB is a wall-clock effect the counters do not
/// carry.)
#[test]
fn sec5_2_linear_search_takes_fewer_serial_misses_than_binary() {
    for size in NODE_SIZES {
        let serial = |search| {
            let p = pool(LatencyProfile::dram());
            let opts = TreeOptions::new().node_size(size).search(search);
            per(gets(fast_fair(&p, opts).as_ref()).serial_misses, N)
        };
        let (linear, binary) = (serial(InNodeSearch::Linear), serial(InNodeSearch::Binary));
        assert!(
            linear < binary,
            "{size} B: linear {linear:.2} !< binary {binary:.2} serial misses per get"
        );
    }
}

/// Fig. 5(b): serial misses per `get` order FAST+FAIR < FP-tree < WORT <
/// wB+-tree < SkipList, with WORT at ≥ 2 × FAST+FAIR (the paper: WORT
/// doubles FAST+FAIR's search time at 900 ns, SkipList is off the chart).
/// Measured 1.16 / 2.07 / 3.06 / 7.84 / 9.98.
#[test]
fn fig5b_serial_misses_per_get_order_the_field() {
    let p = pool(LatencyProfile::dram());
    let field: Vec<(&str, f64)> = field(&p, 512)
        .iter()
        .map(|index| (index.name(), per(gets(index.as_ref()).serial_misses, N)))
        .collect();
    for pair in field.windows(2) {
        assert!(pair[0].1 < pair[1].1, "{field:?}");
    }
    assert!(
        field[2].1 >= 2.0 * field[0].1,
        "WORT !>= 2 x FAST+FAIR: {field:?}"
    );
}

/// §5.4 / Fig. 5(a): FAIR splits flush less than FAST with a logged
/// split, which flushes less than wB+-tree's slot-array and bitmap
/// updates. Measured 4.05 / 4.72 / 5.26 flushes per insert: wB+-tree at
/// 1.30 × FAST+FAIR (1.27–1.35 × from 5 k to 50 k keys). **The paper's
/// 1.7 × does not reproduce here**; the check holds the ≥ 1.25 × that
/// does.
#[test]
fn sec5_4_fair_flushes_least_per_insert() {
    let p = pool(LatencyProfile::dram());
    let flushes = |index: Box<dyn PmIndex>| per(inserts(index.as_ref()).flushes, EXTRA);
    let fair = flushes(fast_fair(&p, TreeOptions::new()));
    let logging = flushes(fast_fair(
        &p,
        TreeOptions::new().split(SplitStrategy::Logging),
    ));
    let wb = flushes(Box::new(wbtree::WbTree::create(Arc::clone(&p)).unwrap()));
    assert!(
        fair < logging && logging < wb,
        "flushes per insert: FAST+FAIR {fair:.2}, FAST+Logging {logging:.2}, wB+-tree {wb:.2}"
    );
    assert!(wb >= 1.25 * fair, "wB+-tree {wb:.2} !>= 1.25 x {fair:.2}");
}

/// Fig. 5(d): on a non-TSO machine FAST orders its dependent stores with
/// `dmb` barriers. Measured 31.1 per insert (the paper: 16.2). **A
/// deviation:** every baseline here issues 0, because none models the
/// barrier — the paper's FP-tree issues 6.6.
#[test]
fn fig5d_only_fast_fair_issues_dmb_barriers_under_non_tso() {
    let p = pool(LatencyProfile::dram().with_fence(FenceMode::NonTso { dmb_ns: 0 }));
    for (i, index) in field(&p, 512).into_iter().enumerate() {
        let dmb = per(inserts(index.as_ref()).dmb_barriers, EXTRA);
        if i == 0 {
            assert!(dmb >= 1.0, "FAST+FAIR: {dmb:.2} dmb per insert");
        } else {
            assert_eq!(dmb, 0.0, "{}", index.name());
        }
    }
}

/// §5.3 / Fig. 4: with 1 KiB nodes and scans of 5 % of the keys (the
/// paper's widest selection), a cursor over FAST+FAIR's sorted,
/// sibling-linked leaves reads no more lines per record than wB+-tree
/// (measured 0.31 against 0.57) and ≥ 10 × fewer dependent misses per
/// record than WORT's trie walk or SkipList's pointer chase (0.030
/// against 3.43 and 1.02). It is within ± 10 % of FP-tree (0.31 against
/// 0.30 lines): **the paper's 6–27 % lead over FP-tree does not show in
/// counters.**
#[test]
fn fig4_scans_read_sorted_leaves_line_by_line() {
    const SCANS: usize = 50;
    const ROWS: usize = N / 20;
    let p = pool(LatencyProfile::dram());
    let cost: Vec<(&str, f64, f64)> = field(&p, 1024)
        .iter()
        .map(|index| {
            let keys = preload(index.as_ref());
            let mut rows = 0;
            let s = measure(|| {
                let mut cursor = index.cursor();
                for &start in keys.iter().take(SCANS) {
                    cursor.seek(start);
                    for _ in 0..ROWS {
                        if cursor.next().is_none() {
                            break;
                        }
                        rows += 1;
                    }
                }
            });
            let serial = per(s.serial_misses, rows);
            (index.name(), serial, serial + per(s.parallel_lines, rows))
        })
        .collect();
    let [ff, fp, wort, wb, skip] = [0, 1, 2, 3, 4].map(|i| cost[i]);
    assert!(ff.2 <= wb.2, "lines per record: {cost:?}");
    assert!(
        10.0 * ff.1 <= wort.1 && 10.0 * ff.1 <= skip.1,
        "serial misses per record: {cost:?}"
    );
    assert!((ff.2 / fp.2 - 1.0).abs() <= 0.10, "FP-tree: {cost:?}");
}

/// §5.4's memory-level-parallelism argument, which the latency model
/// encodes as the `mlp` divisor: a FAST+FAIR `get` reads adjacent lines
/// the model overlaps (≥ 2 parallel lines per `get`), while WORT's radix
/// walk is all dependent misses (0 parallel lines) and gains nothing
/// from the overlap. Measured 3.69 parallel lines per FAST+FAIR `get`.
#[test]
fn mlp_discounts_fast_fair_gets_and_not_wort() {
    let p = pool(LatencyProfile::dram());
    let ff = per(
        gets(fast_fair(&p, TreeOptions::new()).as_ref()).parallel_lines,
        N,
    );
    let wort = gets(&wort::Wort::create(Arc::clone(&p)).unwrap()).parallel_lines;
    assert!(ff >= 2.0, "FAST+FAIR: {ff:.2} parallel lines per get");
    assert_eq!(wort, 0, "WORT charged parallel lines");
}

fn spin_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

/// The service's group-commit lever, a repo extension beyond the paper:
/// sixteen updates that drain as one group share one commit's fixed
/// fences, so the group pays < 0.5 × a lone update's fences per op
/// (measured 1.19 against 4: 0.30 ×). A hold on the tree's batch applies
/// (`HeldApply`) parks the worker inside a commit so the sixteen queue
/// behind it deterministically. One unsharded tree keeps every fence on the lane
/// worker.
#[test]
fn group_commit_shares_fences_across_sixteen_updates() {
    let p = pool(LatencyProfile::dram());
    let tree = Arc::new(HeldApply::new(
        FastFairTree::create(Arc::clone(&p), TreeOptions::new()).unwrap(),
    ));
    for k in 1..=32 {
        tree.insert(k, value_for(k)).unwrap();
    }
    let engine = Arc::new(TxnEngine::create(p).unwrap());
    let config = ServiceConfig {
        lanes: 1,
        ..ServiceConfig::default()
    };
    let mut service = Service::with_engine(vec![Arc::clone(&tree)], Arc::clone(&engine), config);
    let stats = Arc::clone(service.stats());
    let c = service.handle();

    // Two lone updates, each a group of one. A worker harvests its
    // counters right after a group, so wait for each harvest.
    c.update(1, 10).unwrap();
    spin_until("first harvest", || stats.fences() > 0);
    let lone = stats.fences();
    c.update(2, 20).unwrap();
    spin_until("second harvest", || stats.fences() > lone);
    assert_eq!(stats.fences(), 2 * lone, "lone updates differ in fences");

    // A third lone update parks inside its commit; sixteen more queue.
    let hold = tree.hold();
    let parked = c.submit_update(3, 30).unwrap();
    spin_until("worker inside its commit", || engine.last_committed() == 3);
    let group: Vec<_> = (4..20)
        .map(|k| c.submit_update(k, k * 10).unwrap())
        .collect();
    drop(hold);
    assert_eq!(parked.wait().unwrap(), Some(value_for(3)));
    for (k, reply) in (4..).zip(group) {
        assert_eq!(reply.wait().unwrap(), Some(value_for(k)));
    }
    service.shutdown();

    assert_eq!((stats.groups(), stats.largest_group()), (4, 16));
    let grouped = per(stats.fences() - 3 * lone, 16);
    assert!(
        grouped < 0.5 * lone as f64,
        "{grouped:.2} fences per grouped update against {lone} alone"
    );
}

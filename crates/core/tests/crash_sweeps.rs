//! Exhaustive crash-point testing of FAST and FAIR.
//!
//! This is the simulation analogue of the paper's power-off experiment
//! (§5.7), made exhaustive: every 8-byte store and cache-line flush during
//! a batch of operations is a potential crash point, and at each point we
//! materialize several reachable persistent images (no eviction of dirty
//! lines, full eviction, and randomized per-line store prefixes). For every
//! image we assert the paper's guarantees:
//!
//! 1. **Readers tolerate the crash state**: every key committed before the
//!    in-flight operation is found with the correct value, without running
//!    any recovery; the in-flight operation is atomic (its key is either
//!    fully present or fully absent).
//! 2. **The structure is tolerably consistent**: `check_consistency` in
//!    tolerant mode passes (sorted nodes, sane links; transient artifacts
//!    allowed).
//! 3. **Writers repair lazily / recovery is idempotent**: after
//!    `recover()`, strict consistency holds and the data is unchanged.
//! 4. **The product path keeps working**: a second copy of the image,
//!    opened as a service reopens a tree — `open` alone, no `recover` —
//!    re-runs the in-flight op, updates every key, inserts a neighbour of
//!    each and deletes two of every three, and then agrees with the model
//!    on tolerant consistency, every `get` and a full scan. Every image
//!    runs it, under a timeout.
//!
//! The randomized parts of each sweep (pseudo-random eviction prefixes,
//! generated key streams) are salted with `pmem::crash::env_seed()`
//! (`FF_CRASH_SEED`), so CI's crash-matrix job explores a different slice
//! of the reachable crash states on every seed leg.

use std::collections::BTreeMap;
use std::sync::Arc;

use fastfair::{FastFairTree, SplitStrategy, TreeOptions};
use pmem::crash::Eviction;
use pmem::{Pool, PoolConfig};
use pmindex::workload::{generate_keys, value_for, KeyDist};
use pmindex::PmIndex;

/// Room for every sweep's tree many times over. Each image is copied into
/// two pools of this size, so it sets most of a sweep's cost.
const POOL_BYTES: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Insert(u64),
    Delete(u64),
    /// In-place 8-byte value overwrite of an existing key.
    Update(u64),
}

/// The value an in-place update writes: distinct from `value_for(k)` but
/// equally legal (odd, never 0 / `u64::MAX`).
fn updated_value_for(k: u64) -> u64 {
    value_for(k ^ 0x00ff_00ff_00ff_00ff)
}

/// Applies `op` to `tree` and to `model`.
fn apply(tree: &FastFairTree, model: &mut BTreeMap<u64, u64>, op: Op) {
    match op {
        Op::Insert(k) => {
            tree.insert(k, value_for(k)).unwrap();
            model.insert(k, value_for(k));
        }
        Op::Delete(k) => {
            tree.remove(k);
            model.remove(&k);
        }
        Op::Update(k) => {
            assert!(tree.update(k, updated_value_for(k)).unwrap().is_some());
            model.insert(k, updated_value_for(k));
        }
    }
}

/// Check 4: opens a copy of `img` without recovering it, lets `rerun`
/// re-run the in-flight op on it (and on `model`, the committed state
/// before that op), then writes to every key and checks the result.
fn continue_unrecovered(
    img: &[u8],
    meta: u64,
    opts: TreeOptions,
    mut model: BTreeMap<u64, u64>,
    rerun: impl FnOnce(&FastFairTree, &mut BTreeMap<u64, u64>) + Send + 'static,
    what: String,
) {
    let p = Arc::new(Pool::from_image(img, PoolConfig::new().size(POOL_BYTES)).unwrap());
    let t = FastFairTree::open(p, meta, opts).unwrap();
    let hung = format!("{what}: did not finish");
    pmindex::workload::within(move || {
        rerun(&t, &mut model);
        let keys: Vec<u64> = model.keys().copied().collect();
        for &k in &keys {
            let v = value_for(k.rotate_left(17));
            assert_eq!(
                t.update(k, v).unwrap(),
                model.insert(k, v),
                "{what}: update {k}"
            );
            let n = k + 1;
            assert_eq!(
                t.insert(n, value_for(n)).unwrap(),
                model.insert(n, value_for(n))
            );
        }
        let keys: Vec<u64> = model.keys().copied().collect();
        for (i, &k) in keys.iter().enumerate().filter(|(i, _)| i % 3 != 0) {
            assert!(t.remove(k), "{what}: remove {k} ({i})");
            model.remove(&k);
        }
        t.check_consistency(false)
            .unwrap_or_else(|e| panic!("{what}: tolerant consistency after writes: {e}"));
        for &k in &keys {
            assert_eq!(t.get(k), model.get(&k).copied(), "{what}: get {k}");
        }
        let mut scan = Vec::new();
        t.for_each(|k, v| scan.push((k, v)));
        assert!(
            scan.iter().copied().eq(model.into_iter()),
            "{what}: scan disagrees with the model"
        );
    })
    .expect(&hung);
}

/// Applies `ops` on a crash-logged tree, recording the event-log boundary
/// after each op; then sweeps crash points and eviction policies.
fn crash_sweep(opts: TreeOptions, preload: &[u64], ops: &[Op], cut_stride: usize) {
    crash_sweep_logged(opts, preload, ops, cut_stride, false);
}

/// [`crash_sweep`], optionally with the tree's leaf directory built before
/// the swept ops run, so that they are directed; returns the swept ops'
/// event log — with the shared baseline, it determines every image.
fn crash_sweep_logged(
    opts: TreeOptions,
    preload: &[u64],
    ops: &[Op],
    cut_stride: usize,
    warm_hints: bool,
) -> Vec<pmem::crash::Event> {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(POOL_BYTES).crash_log(true)).unwrap());
    let tree = FastFairTree::create(Arc::clone(&pool), opts).unwrap();
    let mut committed: BTreeMap<u64, u64> = BTreeMap::new();
    for &k in preload {
        tree.insert(k, value_for(k)).unwrap();
        committed.insert(k, value_for(k));
    }
    if warm_hints {
        // A handle builds its directory after a few thousand point ops;
        // reads store nothing, so the baseline below is the cold run's.
        let before = pmem::stats::snapshot().leaf_hint_hits;
        for _ in 0..=5_000 / preload.len() + 2 {
            for &k in preload {
                assert!(tree.get(k).is_some());
            }
        }
        let hits = pmem::stats::snapshot().leaf_hint_hits - before;
        assert!(hits >= preload.len() as u64, "directory still cold: {hits}");
    }
    // Preload becomes the durable baseline; crash points cover only `ops`.
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    // State of `committed` *before* each op, plus the op itself.
    let mut boundaries: Vec<(usize, Op, BTreeMap<u64, u64>)> = Vec::new();
    let hits_before_ops = pmem::stats::snapshot().leaf_hint_hits;
    for &op in ops {
        boundaries.push((log.len(), op, committed.clone()));
        apply(&tree, &mut committed, op);
    }
    if warm_hints {
        // Updates never leave the leaf they are directed to; inserts and
        // deletes may (a directory dropped by an unlinked leaf), but not
        // all of them.
        let updates = ops.iter().filter(|op| matches!(op, Op::Update(_))).count();
        let hits = pmem::stats::snapshot().leaf_hint_hits - hits_before_ops;
        assert!(
            hits >= updates.max(ops.len() / 4) as u64,
            "{hits} of {} ops were directed",
            ops.len()
        );
    }
    let total = log.len();
    let events = log.events();
    boundaries.push((total, Op::Insert(0), committed.clone())); // sentinel

    let meta = tree.meta_offset();
    let policies = [
        Eviction::None,
        Eviction::All,
        Eviction::random_with_env(1),
        Eviction::random_with_env(0xdead_beef),
    ];

    let mut cut = 0usize;
    while cut <= total {
        // Which op is in flight at this cut?
        let idx = boundaries.partition_point(|(b, _, _)| *b <= cut) - 1;
        let (_, inflight, state) = &boundaries[idx];
        let at_boundary = boundaries[idx].0 == cut;

        for policy in &policies {
            let img = pool.crash_image(cut, policy.clone());
            // The sentinel after the last op has nothing in flight.
            let rerun = (idx < ops.len()).then_some(*inflight);
            continue_unrecovered(
                &img,
                meta,
                opts,
                state.clone(),
                move |t, model| {
                    if let Some(op) = rerun {
                        apply(t, model, op);
                    }
                },
                format!("cut {cut} policy {policy:?}: continuation"),
            );
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL_BYTES)).unwrap());
            let t2 = FastFairTree::open(Arc::clone(&p2), meta, opts).unwrap();

            // (2) tolerable structural consistency, before any repair.
            t2.check_consistency(false).unwrap_or_else(|e| {
                panic!("cut {cut} policy {policy:?}: tolerant consistency failed: {e}")
            });

            // (1) readers tolerate the crash state.
            for (&k, &v) in state {
                if !at_boundary {
                    if let Op::Delete(dk) = inflight {
                        if *dk == k {
                            continue; // in-flight delete: either outcome is fine
                        }
                    }
                    if let Op::Update(uk) = inflight {
                        if *uk == k {
                            // In-flight in-place update: the single 8-byte
                            // commit means old value or new value — never a
                            // torn mixture, never absent.
                            let got = t2.get(k);
                            assert!(
                                got == Some(v) || got == Some(updated_value_for(k)),
                                "cut {cut} policy {policy:?}: torn in-place update \
                                 of key {k}: {got:?}"
                            );
                            continue;
                        }
                    }
                }
                assert_eq!(
                    t2.get(k),
                    Some(v),
                    "cut {cut} policy {policy:?}: committed key {k} lost before recovery"
                );
            }
            if !at_boundary {
                if let Op::Insert(ik) = inflight {
                    // Atomicity: present with the right value, or absent.
                    match t2.get(*ik) {
                        None => {}
                        Some(v) => assert_eq!(
                            v,
                            value_for(*ik),
                            "cut {cut} policy {policy:?}: torn in-flight insert"
                        ),
                    }
                }
            }

            // (3) eager recovery restores strict consistency, content intact.
            t2.recover().unwrap();
            t2.check_consistency(true).unwrap_or_else(|e| {
                panic!("cut {cut} policy {policy:?}: strict consistency after recover: {e}")
            });
            for (&k, &v) in state {
                if !at_boundary {
                    if let Op::Delete(dk) = inflight {
                        if *dk == k {
                            continue;
                        }
                    }
                    if let Op::Update(uk) = inflight {
                        if *uk == k {
                            let got = t2.get(k);
                            assert!(
                                got == Some(v) || got == Some(updated_value_for(k)),
                                "cut {cut}: update of key {k} torn by recover(): {got:?}"
                            );
                            continue;
                        }
                    }
                }
                assert_eq!(t2.get(k), Some(v), "cut {cut}: key {k} lost by recover()");
            }
            // Recovery is idempotent.
            let second = t2.recover().unwrap();
            assert_eq!(second.garbage_removed, 0, "recover not idempotent");
            assert_eq!(second.splits_completed, 0);
            assert_eq!(second.siblings_attached, 0);
        }
        if cut == total {
            break;
        }
        cut = (cut + cut_stride).min(total);
    }
    events
}

#[test]
fn crash_during_fast_inserts_within_one_leaf() {
    // Small batch, no splits: exercises pure FAST shifts including slot 0.
    let preload: Vec<u64> = vec![100, 200, 300, 400, 500];
    let ops: Vec<Op> = [250u64, 50, 450, 150, 350]
        .iter()
        .map(|&k| Op::Insert(k))
        .collect();
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 1);
}

#[test]
fn crash_during_fast_deletes() {
    let preload: Vec<u64> = (1..=9).map(|k| k * 100).collect();
    let ops: Vec<Op> = [300u64, 100, 900, 500]
        .iter()
        .map(|&k| Op::Delete(k))
        .collect();
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 1);
}

#[test]
fn crash_during_deletes_and_updates_within_one_leaf() {
    // Deletes (a left shift each, the first flipping the scan direction)
    // interleaved with in-place updates of the keys they shift past.
    let preload: Vec<u64> = (1..=6).map(|k| k * 100).collect();
    let ops = vec![
        Op::Delete(100),
        Op::Update(400),
        Op::Delete(600),
        Op::Update(200),
        Op::Delete(300),
    ];
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 1);
}

#[test]
fn crash_during_fair_leaf_split() {
    // 256-byte nodes hold 10 records; preload 9 then insert to force the
    // first split, sweeping every store/flush of Algorithm 2.
    let preload: Vec<u64> = (1..=9).map(|k| k * 10).collect();
    let ops: Vec<Op> = [55u64, 65, 75, 85, 95]
        .iter()
        .map(|&k| Op::Insert(k))
        .collect();
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 1);
}

#[test]
fn crash_during_cascading_splits() {
    // Enough inserts to split internal nodes and grow the root twice.
    // The key stream varies with the CI seed matrix.
    let es = pmem::crash::env_seed();
    let preload = generate_keys(60, KeyDist::DenseShuffled, 5 ^ es)
        .into_iter()
        .map(|k| k * 7)
        .collect::<Vec<_>>();
    let fresh = generate_keys(120, KeyDist::Uniform, 11 ^ es);
    let ops: Vec<Op> = fresh.iter().map(|&k| Op::Insert(k)).collect();
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 7);
}

#[test]
fn crash_during_mixed_inserts_and_deletes() {
    let preload = generate_keys(40, KeyDist::DenseShuffled, 13)
        .into_iter()
        .map(|k| k * 3)
        .collect::<Vec<_>>();
    let mut ops = Vec::new();
    for i in 0..30u64 {
        if i % 3 == 2 {
            ops.push(Op::Delete((i % 40 + 1) * 3));
        } else {
            ops.push(Op::Insert(i * 91 + 2));
        }
    }
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 5);
}

#[test]
fn crash_during_logging_split_rolls_back() {
    // The FAST+Logging baseline must also recover (via undo log) at every
    // crash point.
    let preload: Vec<u64> = (1..=9).map(|k| k * 10).collect();
    let ops: Vec<Op> = [55u64, 65, 75].iter().map(|&k| Op::Insert(k)).collect();
    crash_sweep(
        TreeOptions::new()
            .node_size(256)
            .split(SplitStrategy::Logging),
        &preload,
        &ops,
        1,
    );
}

#[test]
fn crash_during_inplace_updates() {
    // The acceptance guarantee of the in-place upsert: every post-crash
    // image recovers to the old value or the new one, never a torn word.
    let preload: Vec<u64> = (1..=30).map(|k| k * 10).collect();
    let ops: Vec<Op> = [100u64, 250, 10, 300, 100, 170]
        .iter()
        .map(|&k| Op::Update(k))
        .collect();
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 1);
}

/// A directed overwrite is the descent's own store and flush: with the
/// directory warm, the same updates write the same event log — hence the
/// same crash images at every cut — and each image passes the same sweep.
#[test]
fn crash_during_inplace_updates_with_warm_hints_enumerates_the_same_images() {
    let preload: Vec<u64> = (1..=30).map(|k| k * 10).collect();
    let ops: Vec<Op> = [100u64, 250, 10, 300, 100, 170]
        .iter()
        .map(|&k| Op::Update(k))
        .collect();
    let opts = TreeOptions::new().node_size(256);
    let cold = crash_sweep_logged(opts, &preload, &ops, 1, false);
    let warm = crash_sweep_logged(opts, &preload, &ops, 1, true);
    assert_eq!(warm, cold, "directed updates logged different stores");
    assert!(!cold.is_empty());
}

/// The same for every kind of leaf-level write: directed fresh inserts
/// (splits included), removes (an emptied leaf's unlink included, which
/// drops the directory mid-run) and updates log what their descents log.
#[test]
fn crash_during_mixed_ops_with_warm_directory_enumerates_the_same_images() {
    let (preload, ops) = mixed_ops();
    let opts = TreeOptions::new().node_size(256);
    let cold = crash_sweep_logged(opts, &preload, &ops, 7, false);
    let warm = crash_sweep_logged(opts, &preload, &ops, 7, true);
    assert_eq!(warm, cold, "directed ops logged different stores");
    assert!(!cold.is_empty());
}

/// A preload and a mix of inserts (enough to split), in-place updates and
/// deletes (the last eleven in a row, so that a leaf empties and is
/// unlinked).
fn mixed_ops() -> (Vec<u64>, Vec<Op>) {
    let preload: Vec<u64> = (1..=25).map(|k| k * 8).collect();
    let mut ops = Vec::new();
    for i in 0..24u64 {
        ops.push(match i % 3 {
            0 => Op::Insert(i * 13 + 3),
            1 => Op::Update(((i % 25) + 1) * 8),
            _ => Op::Delete(((i * 7) % 25 + 1) * 8),
        });
    }
    ops.extend((10..=20).map(|k| Op::Delete(k * 8)));
    // Deletes may hit already-deleted keys; filter those out so Update
    // targets stay live.
    let mut live: std::collections::BTreeSet<u64> = preload.iter().copied().collect();
    let ops = ops
        .into_iter()
        .filter(|op| match op {
            Op::Insert(k) => live.insert(*k),
            Op::Update(k) => live.contains(k),
            Op::Delete(k) => live.remove(k),
        })
        .collect();
    (preload, ops)
}

#[test]
fn crash_during_mixed_updates_inserts_deletes() {
    let (preload, ops) = mixed_ops();
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 3);
}

#[test]
fn crash_during_bulk_load_recovers_old_or_new() {
    // bulk_load's only commit point is the persisted root-pointer store:
    // every crash image must recover to the previous (empty) tree or the
    // fully loaded one — never a partial or torn state.
    let pool = Arc::new(Pool::new(PoolConfig::new().size(POOL_BYTES).crash_log(true)).unwrap());
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new().node_size(256)).unwrap();
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());
    let n = 200u64;
    tree.bulk_load(&mut (1..=n).map(|k| (k * 5, value_for(k * 5))))
        .unwrap();
    let meta = tree.meta_offset();
    let total = log.len();
    let opts = TreeOptions::new();
    for cut in (0..=total).step_by(5) {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(cut as u64 + 1),
        ] {
            let img = pool.crash_image(cut, policy.clone());
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL_BYTES)).unwrap());
            let t2 = FastFairTree::open(Arc::clone(&p2), meta, opts).unwrap();
            t2.check_consistency(false)
                .unwrap_or_else(|e| panic!("cut {cut} {policy:?}: {e}"));
            let len = t2.len();
            // The in-flight op is the load: re-run it if the image lost it.
            let loaded = move || (1..=n).map(|k| (k * 5, value_for(k * 5)));
            let model = if len > 0 {
                loaded().collect()
            } else {
                BTreeMap::new()
            };
            continue_unrecovered(
                &img,
                meta,
                opts,
                model,
                move |t, model| {
                    if len == 0 {
                        assert_eq!(t.bulk_load(&mut loaded()).unwrap(), n as usize);
                        model.extend(loaded());
                    }
                },
                format!("cut {cut} policy {policy:?}: continuation"),
            );
            assert!(
                len == 0 || len == n as usize,
                "cut {cut} {policy:?}: bulk load half-visible ({len} of {n} keys)"
            );
            if len > 0 {
                for k in (1..=n).step_by(13) {
                    assert_eq!(t2.get(k * 5), Some(value_for(k * 5)), "cut {cut}");
                }
            }
            t2.recover().unwrap();
            t2.check_consistency(true)
                .unwrap_or_else(|e| panic!("cut {cut} {policy:?} post-recover: {e}"));
            assert_eq!(t2.len(), len, "recover() changed bulk-load visibility");
        }
    }
}

/// Tree heights before and after `inserts` on a tree holding `preload` —
/// for sweeps whose batch must cross a split.
fn heights(opts: TreeOptions, preload: &[u64], inserts: &[u64]) -> (u32, u32) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(POOL_BYTES)).unwrap());
    let tree = FastFairTree::create(pool, opts).unwrap();
    for &k in preload {
        tree.insert(k, value_for(k)).unwrap();
    }
    let before = tree.height();
    for &k in inserts {
        tree.insert(k, value_for(k)).unwrap();
    }
    (before, tree.height())
}

#[test]
fn crash_during_front_inserts() {
    // Every op lands in slot 0 of a filling leaf — the longest FAST shift,
    // each copy crossing every record line. The 256-byte leaf holds 10
    // records: the eleventh key splits it mid-sweep, and the last ones land
    // in slot 0 of the split's left half.
    let preload: Vec<u64> = (5..=9).map(|k| k * 100).collect();
    let inserts = [450u64, 350, 250, 150, 50, 40, 30, 20];
    let ops: Vec<Op> = inserts.iter().map(|&k| Op::Insert(k)).collect();
    let opts = TreeOptions::new().node_size(256);
    assert_eq!(
        heights(opts, &preload, &inserts),
        (0, 1),
        "the batch must split"
    );
    crash_sweep(opts, &preload, &ops, 1);
}

#[test]
fn crash_during_deletes_after_a_split() {
    // The split strands the moved-out half above the left leaf's new
    // terminator; the first delete there enters delete direction, nulling
    // that tail with one persist before its left shift. Deleting ascending
    // minima makes every shift the longest one.
    let preload: Vec<u64> = (1..=14).map(|k| k * 100).collect();
    let ops: Vec<Op> = [100u64, 200, 300, 400]
        .iter()
        .map(|&k| Op::Delete(k))
        .collect();
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 1);
}

#[test]
fn crash_during_seeded_inserts_and_deletes() {
    // The CI seed matrix walks a different random slice of crash states
    // on every leg.
    let es = pmem::crash::env_seed();
    let preload = generate_keys(30, KeyDist::DenseShuffled, 23 ^ es)
        .into_iter()
        .map(|k| k * 11)
        .collect::<Vec<_>>();
    let fresh = generate_keys(30, KeyDist::Uniform, 29 ^ es);
    let mut ops: Vec<Op> = fresh.iter().map(|&k| Op::Insert(k)).collect();
    for (i, &k) in preload.iter().enumerate().take(8) {
        ops.insert(i * 3 + 2, Op::Delete(k));
    }
    crash_sweep(TreeOptions::new().node_size(256), &preload, &ops, 11);
}

#[test]
fn crash_with_larger_nodes() {
    let es = pmem::crash::env_seed();
    let preload = generate_keys(30, KeyDist::DenseShuffled, 17 ^ es)
        .into_iter()
        .map(|k| k * 11)
        .collect::<Vec<_>>();
    let ops: Vec<Op> = generate_keys(40, KeyDist::Uniform, 19 ^ es)
        .into_iter()
        .map(Op::Insert)
        .collect();
    crash_sweep(TreeOptions::new().node_size(512), &preload, &ops, 9);
}

/// The crash log of one fixed single-thread mix, pinned kind by kind, so a
/// store, flush or fence added to or removed from the write paths names
/// itself here: ascending inserts through two leaf splits, the deletes that
/// empty the middle leaf (a merge), and an update of every survivor. The
/// log holds stores and line flushes; fences are not log events, so they
/// come from this thread's `pmem::stats`.
#[test]
fn crash_log_of_a_fixed_mix_is_pinned() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(POOL_BYTES).crash_log(true)).unwrap());
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new().node_size(256)).unwrap();
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());
    pmem::stats::reset();
    // 256-byte nodes hold 10 records: leaves [1, 5], [6, 10], [11, 16].
    for k in 1..=16u64 {
        tree.insert(k, value_for(k)).unwrap();
    }
    assert_eq!(tree.check_consistency(true).unwrap().nodes, 4, "two splits");
    for k in 6..=10u64 {
        assert!(tree.remove(k));
    }
    assert_eq!(tree.check_consistency(true).unwrap().nodes, 3, "one merge");
    for k in (1..=5).chain(11..=16u64) {
        assert!(tree.update(k, updated_value_for(k)).unwrap().is_some());
    }
    let fences = pmem::stats::take().fences;
    let (mut stores, mut flushes) = (0, 0);
    for e in log.events() {
        match e {
            pmem::crash::Event::Store { .. } => stores += 1,
            pmem::crash::Event::FlushLine { .. } => flushes += 1,
        }
    }
    assert_eq!((stores, flushes, fences), (208, 54, 49));
}

/// Keys of the pinned bulk loads below: 1 000 leaves of 256-byte nodes
/// (10 records each), then 91, 9 and 1 internal nodes.
const BULK_KEYS: u64 = 10_000;

/// Bulk-loads `BULK_KEYS` ascending keys into a fresh tree of 256-byte
/// nodes in a pool under `LatencyProfile::symmetric(300)`, with or without
/// a crash log; returns the pool and the load's `pmem::stats`.
fn pinned_bulk_load(crash_log: bool) -> (Arc<Pool>, FastFairTree, pmem::stats::Snapshot) {
    let config = PoolConfig::new()
        .size(POOL_BYTES)
        .latency(pmem::LatencyProfile::symmetric(300))
        .crash_log(crash_log);
    let pool = Arc::new(Pool::new(config).unwrap());
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new().node_size(256)).unwrap();
    if let Some(log) = pool.crash_log() {
        log.set_baseline(pool.volatile_image());
    }
    pmem::stats::reset();
    let loaded = tree
        .bulk_load(&mut (1..=BULK_KEYS).map(|k| (k * 3, value_for(k * 3))))
        .unwrap();
    let counts = pmem::stats::take();
    assert_eq!(loaded, BULK_KEYS as usize);
    (pool, tree, counts)
}

/// A bulk load persists its levels on two threads in a plain pool and in
/// order on one under a crash log. Both give the same flushes, fences and
/// model time, all counted on the loading thread and pinned (one persist
/// per node plus the root publish), and the same bytes.
#[test]
fn bulk_load_counts_the_same_on_both_persist_paths() {
    let (plain, plain_tree, two_threads) = pinned_bulk_load(false);
    let (logged, logged_tree, in_order) = pinned_bulk_load(true);
    let leaves = BULK_KEYS.div_ceil(u64::from(plain_tree.node_capacity()));
    assert!(
        leaves >= pmem::PERSIST_SPLIT_MIN_BLOCKS as u64,
        "the leaf level takes the two-thread path"
    );
    for (counts, path) in [(two_threads, "two threads"), (in_order, "crash log")] {
        assert_eq!(
            (counts.flushes, counts.fences, counts.model_ns),
            (4_402, 1_102, 1_320_600),
            "{path}"
        );
    }
    assert!(
        plain.volatile_image() == logged.volatile_image(),
        "both paths leave the same bytes"
    );
    for tree in [&plain_tree, &logged_tree] {
        assert_eq!(tree.check_consistency(true).unwrap().nodes, 1_101);
    }
}

/// Two crash-logged bulk loads of one input log the same events, so a
/// crash sweep of a load cuts the same images every run; the length is
/// pinned.
#[test]
fn crash_log_of_a_bulk_load_is_deterministic_and_pinned() {
    let events = || {
        let (pool, _tree, _) = pinned_bulk_load(true);
        pool.crash_log().unwrap().events()
    };
    let first = events();
    assert!(first == events(), "two loads of one input log alike");
    assert_eq!(first.len(), 31_898);
}

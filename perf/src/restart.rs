//! The `restart` workload: reopen a crashed deployment, over and over.
//!
//! Setup runs a small deployment — a catalog, a tree registered as `kv`,
//! a transaction engine registered as `txn`, all in one crash-logged
//! pool — through a preload and a series of acknowledged two-put commits,
//! then materialises the pool at evenly spaced crash points with
//! `Eviction::None`: only bytes that were flushed survive, which is the
//! harshest image the crash model allows. One op rebuilds a pool from an
//! image (untimed) and then, timed, opens the catalog, boots a service
//! from it (which replays the journal) and answers a first read.
//!
//! It is also the durability check: the first cycle on each image sweeps
//! the whole tree and requires every commit acknowledged before the cut
//! to be fully there, the one in flight to be all there or all absent,
//! and nothing else to have changed.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use catalog::{Catalog, StoreKind};
use fastfair::FastFairTree;
use pmem::crash::Eviction;
use pmem::Pool;
use pmindex::{PersistentIndex, PmIndex};
use service::Service;
use txn::{TxnEngine, WriteBatch};

use crate::gen::{self, Commit, RestartPlan};
use crate::report::{Run, PER_LAYER};
use crate::stack::{pool_config, restart_service_config};
use crate::stats::timing;
use crate::trace::{Counts, Layer, Span, SpanFile, Tracer};
use crate::workload::{timed_setup, Request, PARTS};

const COMMITS: usize = 1000;
const CUTS: usize = 32;

/// A crash point: the durable bytes, and how far the history had got.
struct Image {
    bytes: Vec<u8>,
    /// Commits acknowledged before the cut.
    acked: usize,
}

struct History {
    plan: RestartPlan,
    images: Vec<Image>,
}

fn history(req: &Request) -> History {
    let commits = (COMMITS / req.scale).max(2 * CUTS);
    let plan = gen::restart(req.seed, req.preload(), commits);
    let config = pool_config(req.preload() * 32 + (1 << 20)).crash_log(true);
    let pool = Arc::new(Pool::new(config).expect("pool"));
    let catalog = Catalog::create(vec![Arc::clone(&pool)]).expect("catalog");
    let tree = FastFairTree::create_in(Arc::clone(&pool)).expect("tree");
    let kv = StoreKind::Index {
        pool: 0,
        superblock: tree.superblock(),
    };
    catalog.register("kv", &kv).expect("register kv");
    let engine = TxnEngine::create(Arc::clone(&pool)).expect("engine");
    catalog
        .register("txn", &StoreKind::Txn { pool: 0 })
        .expect("register txn");
    tree.bulk_load(&mut plan.preload.iter().copied())
        .expect("preload");
    let log = pool.crash_log().expect("crash-logged pool");
    // Everything so far counts as durable; crash points cover the commits.
    log.set_baseline(pool.volatile_image());

    let service = Service::with_engine(
        vec![Arc::new(tree)],
        Arc::new(engine),
        restart_service_config(),
    );
    let client = service.handle();
    // Log length at which each commit was acknowledged.
    let acked_at: Vec<usize> = plan
        .commits
        .iter()
        .enumerate()
        .map(|(i, c)| {
            // The injected fault: commit 0 is acknowledged but never made.
            if !(req.lose_a_commit && i == 0) {
                let mut batch = WriteBatch::new();
                batch.put(0, c.fresh.0, c.fresh.1);
                batch.put(0, c.existing.0, c.existing.1);
                client.batch(batch).expect("commit");
            }
            log.len()
        })
        .collect();
    drop(service);

    let total = log.len();
    let images = (1..=CUTS)
        .map(|j| {
            let cut = total * j / CUTS;
            Image {
                bytes: pool.crash_image(cut, Eviction::None),
                acked: acked_at.partition_point(|&at| at <= cut),
            }
        })
        .collect();
    History { plan, images }
}

/// The whole-tree check of one reopened image: returns `(checks, bad)`.
fn sweep(tree: &FastFairTree, plan: &RestartPlan, image: &Image) -> (u64, u64) {
    let mut found: HashMap<u64, u64> = HashMap::with_capacity(plan.preload.len() + COMMITS);
    tree.for_each(|k, v| {
        found.insert(k, v);
    });
    let happened = |c: &Commit| -> Option<bool> {
        let fresh = found.get(&c.fresh.0).copied();
        let existing = found.get(&c.existing.0).copied();
        match (fresh, existing) {
            (Some(f), Some(e)) if f == c.fresh.1 && e == c.existing.1 => Some(true),
            (None, Some(e)) if e == c.existing_before => Some(false),
            _ => None, // torn, or a value nobody wrote
        }
    };
    let mut bad = 0;
    let mut present = 0;
    for (i, c) in plan.commits.iter().enumerate() {
        let ok = match happened(c) {
            Some(true) => {
                present += 1;
                // Nothing past the commit in flight can have happened.
                i <= image.acked
            }
            Some(false) => i >= image.acked, // acknowledged commits must be there
            None => false,
        };
        bad += u64::from(!ok);
    }
    // Untouched preloaded keys keep their value; nothing else exists.
    let touched: HashSet<u64> = plan.commits.iter().map(|c| c.existing.0).collect();
    for &(k, v) in &plan.preload {
        if !touched.contains(&k) {
            bad += u64::from(found.get(&k) != Some(&v));
        }
    }
    bad += u64::from(found.len() != plan.preload.len() + present);
    ((plan.commits.len() + plan.preload.len() + 1) as u64, bad)
}

/// The key a cycle's first read asks for, and the answer it must get:
/// the rewritten key of the last commit acknowledged before the cut.
fn probe(plan: &RestartPlan, image: &Image) -> (u64, u64) {
    match image.acked.checked_sub(1) {
        Some(last) => plan.commits[last].existing,
        None => plan.preload[0],
    }
}

/// The timed path — what a restarted process does before it can answer:
/// open the catalog, boot a service from it (reopening the tree and the
/// engine and replaying the journal), answer one read.
fn boot(
    pool: Arc<Pool>,
    key: u64,
    tracer: Option<&Arc<Tracer>>,
) -> (Catalog, Service<FastFairTree>, Option<u64>) {
    let span = |layer, kind| tracer.map(|t| t.span(layer, kind, None, 1));
    let s = span(Layer::Catalog, "open");
    let catalog = Catalog::open(vec![pool]).expect("catalog reopens");
    drop(s);
    let s = span(Layer::Service, "boot");
    let service: Service<FastFairTree> =
        Service::from_catalog(&catalog, &["kv"], Some("txn"), restart_service_config())
            .expect("service boots");
    // `get_stale` reads the recovered table from the calling thread. A
    // queued `get` would add one synchronous round trip through the lane —
    // with one request in flight that times the scheduler, not recovery.
    let got = service.handle().get_stale(key);
    drop(s);
    (catalog, service, got)
}

/// Traced runs only, untimed, on a second copy of the image: the steps
/// `Service::from_catalog` folds together, each under its own span.
fn dissect(pool: Arc<Pool>, tracer: &Arc<Tracer>) {
    let catalog = Catalog::open(vec![pool]).expect("catalog reopens");
    let s = tracer.span(Layer::Catalog, "verify", None, 1);
    catalog.verify().expect("catalog verifies");
    drop(s);
    let s = tracer.span(Layer::Core, "open", None, 1);
    let tree: FastFairTree = catalog.open_store("kv").expect("tree reopens");
    drop(s);
    let _s = tracer.span(Layer::Txn, "recover", None, 1);
    let engine = catalog.open_txn("txn").expect("engine reopens");
    engine.recover(&[&tree]).expect("journal replays");
}

pub fn run(req: &Request, out: &mut Run) {
    let (setup_s, history) = timed_setup(|| history(req));
    let History { plan, images } = &history;
    // A traced run does a fifth of the cycles (it boots three times per
    // cycle); either way every cut gets the same number of them.
    let cycles = req.n_ops() / if req.trace { 5 } else { 1 };
    let cycles = (cycles / CUTS).max(1) * CUTS;
    let tracer = req.trace.then(Tracer::new);
    let config = pool_config(images[0].bytes.len());
    let reopen =
        |image: &Image| Arc::new(Pool::from_image(&image.bytes, config).expect("image reopens"));
    let mut samples: Vec<u32> = Vec::with_capacity(cycles);
    let mut counts = Counts::default();
    let (mut checks, mut bad) = (0u64, 0u64);
    let mut high_water = 0;
    let mut live_keys = 0;
    let mut untraced_ns = 0;
    for cycle in 0..cycles {
        let image = &images[cycle % CUTS];
        let (key, want) = probe(plan, image);
        if let Some(tracer) = &tracer {
            // The same boot without spans, for `trace.overhead_frac`; then
            // the steps taken apart; each on its own copy of the image.
            let pool = reopen(image);
            let t = Instant::now();
            let booted = boot(pool, key, None);
            untraced_ns += t.elapsed().as_nanos() as u64;
            drop(booted);
            tracer.set_op(cycle as u32);
            dissect(reopen(image), tracer);
        }
        let pool = reopen(image);
        let start = Counts::now();
        let t = Instant::now();
        let (catalog, service, got) = boot(Arc::clone(&pool), key, tracer.as_ref());
        samples.push(t.elapsed().as_nanos() as u32);
        counts = counts.plus(Counts::now().since(start));
        // Untimed: the lane answers too, and agrees.
        let queued = service.handle().get(key);
        checks += 2;
        bad += u64::from(got != Some(want)) + u64::from(queued != Ok(Some(want)));
        if cycle < CUTS {
            let tree: FastFairTree = catalog.open_store("kv").expect("tree reopens");
            let (n, wrong) = sweep(&tree, plan, image);
            checks += n;
            bad += wrong;
            live_keys = tree.len();
        }
        high_water = pool.high_water();
        drop(service);
    }

    out.attempted = checks;
    out.failed = bad;
    out.samples = samples.len();
    let timed_s: f64 = samples.iter().map(|&ns| f64::from(ns) / 1e9).sum();
    let part = samples.len().div_ceil(PARTS);
    let timing = timing(samples.chunks(part).map(|c| {
        let wall_s = c.iter().map(|&ns| f64::from(ns) / 1e9).sum();
        (c.len() as f64, wall_s, c.to_vec())
    }));
    let ops = cycles as f64;
    if let Some(tracer) = &tracer {
        let spans = tracer.take();
        out.metrics
            .extend(PER_LAYER.iter().map(|def| (def.name, 0.0)));
        let mean_us = |layer: Layer, kind: &str| {
            let ns: Vec<f64> = spans
                .iter()
                .filter(|s| s.layer == layer && s.kind == kind)
                .map(|s| s.ns() as f64)
                .collect();
            ns.iter().sum::<f64>() / (ns.len() as f64).max(1.0) / 1e3
        };
        let timed = |s: &&Span| {
            matches!(
                (s.layer, s.kind),
                (Layer::Catalog, "open") | (Layer::Service, "boot")
            )
        };
        let top_ns: u64 = spans.iter().filter(timed).map(Span::ns).sum();
        out.metrics.extend([
            ("catalog.open_us", mean_us(Layer::Catalog, "open")),
            ("catalog.verify_us", mean_us(Layer::Catalog, "verify")),
            ("core.open_us", mean_us(Layer::Core, "open")),
            ("txn.recover_us", mean_us(Layer::Txn, "recover")),
            ("service.boot_us", mean_us(Layer::Service, "boot")),
            ("ladder.closure", top_ns as f64 / (timed_s * 1e9)),
            (
                "trace.overhead_frac",
                1.0 - untraced_ns as f64 / (timed_s * 1e9),
            ),
            ("pmem.serial_misses_per_op", counts.serial as f64 / ops),
            ("pmem.parallel_lines_per_op", counts.parallel as f64 / ops),
            (
                "pmem.flushes_coalesced_per_op",
                counts.coalesced as f64 / ops,
            ),
            ("pmem.flush_ns_per_op", counts.flush_ns as f64 / ops),
            ("pmem.high_water_bytes", high_water as f64),
        ]);
        let mut file = SpanFile::create(out.workload, req.seed);
        file.append("restart", &spans);
        file.finish();
    } else {
        out.metrics.insert("setup_s", setup_s);
    }
    out.metrics.extend([
        ("ops_per_s", timing.ops_per_s),
        ("p50_us", timing.p50_us),
        ("p99_us", timing.p99_us),
        ("failed_frac", bad as f64 / checks as f64),
        ("flushes_per_op", counts.flushes as f64 / ops),
        ("fences_per_op", counts.fences as f64 / ops),
        ("pm_bytes_per_key", high_water as f64 / live_keys as f64),
        ("txn.replays_per_restart", counts.txn_replays as f64 / ops),
    ]);
}

//! The five workloads: what each builds, runs, checks and reports —
//! untraced for the end-to-end numbers, traced for the layer ladder.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmindex::{Cursor, PmIndex};
use service::{OpClass, Service, ServiceStats};
use txn::TxnEngine;

use crate::gen::{self, Plan};
use crate::report::{Metrics, Run, PER_LAYER};
use crate::run::{self, Measured};
use crate::stack::{self, store_rig, tree_rig, Bare, Rig};
use crate::stats::{median, timing};
use crate::trace::{self_times, Counts, Layer, Span, SpanFile, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TreeRead,
    TreeWrite,
    SvcWrite,
    SvcReadMostly,
    Restart,
}

/// How often a run sets up, to report a steady `setup_s` (the median).
const SETUP_REPS: usize = 3;

/// The time cap, as a multiple of `--seconds`: op counts are fixed so that
/// counters repeat, and sized to fill `--seconds` on the host the
/// benchmark was sized on; a slower host or program stops here instead of
/// overrunning the driver's budget.
const CAP: f64 = 1.5;

/// PM write latency the pools inject, ns (`stack::pool_config`).
const WRITE_NS: f64 = 300.0;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TreeRead,
        Workload::TreeWrite,
        Workload::SvcWrite,
        Workload::SvcReadMostly,
        Workload::Restart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeRead => "tree_read",
            Workload::TreeWrite => "tree_write",
            Workload::SvcWrite => "svc_write",
            Workload::SvcReadMostly => "svc_read_mostly",
            Workload::Restart => "restart",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (`--list`, `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TreeRead => {
                "FastFairTree called directly, 90% get hit / 5% miss / 5% 100-row scan over 4M \
                 keys: descent, node probe and leaf walk do all the work and nothing flushes"
            }
            Workload::TreeWrite => {
                "same tree, 50% insert / 25% update / 25% remove: FAST shift, FAIR split and \
                 merge, allocator, epoch retire, flush and fence"
            }
            Workload::SvcWrite => {
                "1-lane Service over 2 shards + TxnEngine, 16 requests outstanding, Zipfian \
                 writes: groups stay full, so journal, commit, apply and retire are the bulk"
            }
            Workload::SvcReadMostly => {
                "same stack, 95% get / 5% update (YCSB-B): reads carry no commit and write groups \
                 are near-singletons, so handoff and the un-amortised commit are what is left"
            }
            Workload::Restart => {
                "Catalog::open + Service::from_catalog + first get over 32 crash images holding \
                 only flushed bytes: the recovery path, and the durability check"
            }
        }
    }

    /// `(preloaded keys, ops per second of --seconds)`: sized on a 2-core
    /// 2.1 GHz host so that the measured phase fills `--seconds`.
    fn sizing(self) -> (usize, usize) {
        match self {
            Workload::TreeRead => (4_000_000, 360_000),
            Workload::TreeWrite => (2_000_000, 220_000),
            Workload::SvcWrite => (1_000_000, 110_000),
            Workload::SvcReadMostly => (1_000_000, 240_000),
            Workload::Restart => (100_000, 500),
        }
    }

    fn is_tree(self) -> bool {
        matches!(self, Workload::TreeRead | Workload::TreeWrite)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Divides key and op counts (tests run at reduced scale; the CLI
    /// always passes 1).
    pub scale: usize,
    /// `restart` only: acknowledge one commit that was never made, to show
    /// that the durability check notices (`--inject-lost-commit`).
    pub lose_a_commit: bool,
}

impl Request {
    pub fn preload(&self) -> usize {
        self.workload.sizing().0 / self.scale
    }

    pub fn n_ops(&self) -> usize {
        self.workload.sizing().1 * self.seconds as usize / self.scale
    }

    pub fn cap(&self) -> Duration {
        Duration::from_secs_f64(self.seconds as f64 * CAP)
    }

    fn plan(&self) -> Plan {
        let generate = match self.workload {
            Workload::TreeRead => gen::tree_read,
            Workload::TreeWrite => gen::tree_write,
            Workload::SvcWrite => gen::svc_write,
            Workload::SvcReadMostly => gen::svc_read_mostly,
            Workload::Restart => unreachable!("restart has its own plan"),
        };
        generate(self.seed, self.preload(), self.n_ops())
    }
}

pub fn run(req: &Request) -> Run {
    let mut out = Run {
        workload: req.workload.name(),
        seed: req.seed,
        seconds: req.seconds,
        trace: req.trace,
        attempted: 0,
        failed: 0,
        digest: 0,
        samples: 0,
        metrics: Metrics::new(),
    };
    match (req.workload, req.trace) {
        (Workload::Restart, _) => crate::restart::run(req, &mut out),
        (_, false) => untraced(req, &mut out),
        (_, true) => {
            // Phase timers cost two clock reads per tree op: traced runs only.
            pmem::stats::set_phase_timing(true);
            traced(req, &mut out);
            pmem::stats::set_phase_timing(false);
        }
    }
    out
}

/// Runs `setup` [`SETUP_REPS`] times; returns the median time and the
/// last result (each earlier one is dropped before the next is built).
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("SETUP_REPS > 0"))
}

/// Allocator and epoch totals — gauges any thread can read.
#[derive(Clone, Copy)]
struct Gauges {
    allocs: u64,
    advances: u64,
    recycled_online: u64,
}

fn gauges<I>(rig: &Rig<I>) -> Gauges {
    Gauges {
        allocs: rig.pool.allocation_count() as u64,
        advances: rig.domains.iter().map(|d| d.advances()).sum(),
        recycled_online: rig.domains.iter().map(|d| d.recycled()).sum(),
    }
}

/// ns that threads of this process other than the caller have spent on a
/// CPU (`/proc/self/task/*/schedstat`); 0 where that cannot be read.
fn others_cpu_ns() -> u64 {
    let me = std::fs::read_link("/proc/thread-self").unwrap_or_default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| Some(task.file_name().as_os_str()) != me.file_name())
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Consecutive parts a measured phase is run in; the timing metrics are
/// the median part's (`stats::timing`).
pub const PARTS: usize = 5;

/// What one measured phase leaves behind for the metrics.
struct Pass {
    /// One per part, in order; a part the deadline cut is short or empty.
    parts: Vec<Measured>,
    /// Bench-thread `pmem::stats` over the phase.
    counts: Counts,
    before: Gauges,
    /// `(flushes, fences)` the service workers harvested.
    worker_persist: (u64, u64),
    /// CPU ns of the threads other than the bench thread.
    others_cpu_ns: u64,
}

impl Pass {
    fn done(&self) -> usize {
        self.parts.iter().map(|m| m.done).sum()
    }

    fn failed(&self) -> u64 {
        self.parts.iter().map(|m| m.failed).sum()
    }

    fn wall_ns(&self) -> f64 {
        self.parts.iter().map(|m| m.wall.as_nanos() as f64).sum()
    }

    fn ns_per_op(&self) -> f64 {
        self.wall_ns() / self.done() as f64
    }
}

/// Drives the first `n` ops as [`PARTS`] consecutive parts.
fn in_parts(n: usize, mut drive: impl FnMut(Range<usize>) -> Measured) -> Vec<Measured> {
    (0..PARTS)
        .map(|p| drive(n * p / PARTS..n * (p + 1) / PARTS))
        .collect()
}

/// `core` and `shard` heights: the bench thread calls the rig's index.
fn index_pass<I: PmIndex>(
    rig: &Rig<I>,
    plan: &Plan,
    n: usize,
    cap: Duration,
    tracer: Option<&Arc<Tracer>>,
) -> Pass {
    let before = gauges(rig);
    let start = Counts::now();
    let deadline = Instant::now() + cap;
    let parts = in_parts(n, |ops| {
        run::drive_index(rig.index.as_ref(), plan, ops, deadline, tracer)
    });
    Pass {
        parts,
        counts: Counts::now().since(start),
        before,
        worker_persist: (0, 0),
        others_cpu_ns: 0,
    }
}

/// `service` height: the rig behind a live `Service`; `then` sees the
/// service before it shuts down.
fn service_pass<I: PmIndex + 'static>(
    rig: &Rig<I>,
    plan: &Plan,
    n: usize,
    cap: Duration,
    tracer: Option<&Arc<Tracer>>,
    then: impl FnOnce(&Service<I>),
) -> Pass {
    let service = stack::service(rig);
    let client = service.handle();
    let before = gauges(rig);
    let start = Counts::now();
    let cpu = others_cpu_ns();
    let deadline = Instant::now() + cap;
    let parts = in_parts(n, |ops| {
        run::drive_service(&client, plan, ops, deadline, tracer)
    });
    let pass = Pass {
        parts,
        counts: Counts::now().since(start),
        before,
        worker_persist: (service.stats().flushes(), service.stats().fences()),
        others_cpu_ns: others_cpu_ns().saturating_sub(cpu),
    };
    then(&service);
    pass
}

/// After a measured phase, untimed: the store must hold exactly what the
/// model holds after the ops that ran. Returns the mismatches and the
/// model's rows.
fn sweep<I: PmIndex + ?Sized>(index: &I, plan: &Plan, done: usize) -> (u64, Vec<(u64, u64)>) {
    let want = plan.state_after(done);
    let mut cursor = index.cursor();
    let mut bad = 0;
    for row in &want {
        bad += u64::from(cursor.next() != Some(*row));
    }
    bad += u64::from(cursor.next().is_some());
    (bad, want)
}

/// Everything a finished top-height pass reports that does not need
/// spans: the end-to-end metrics (`setup_s` when this run measured it)
/// and the layer metrics whose sources are cross-thread gauges.
fn finish<I: PmIndex>(
    out: &mut Run,
    rig: &Rig<I>,
    plan: &Plan,
    pass: Pass,
    setup_s: Option<f64>,
    failed_elsewhere: u64,
) {
    let done = pass.done();
    let (swept_bad, rows) = sweep(rig.index.as_ref(), plan, done);
    out.attempted = done as u64;
    out.failed = pass.failed() + swept_bad + failed_elsewhere;
    out.samples = pass.parts.iter().map(|m| m.samples.len()).sum();
    let ops = done as f64;
    let (flushes, fences) = match rig.routing {
        Some(_) => pass.worker_persist,
        None => (pass.counts.flushes, pass.counts.fences),
    };
    let after = gauges(rig);
    let kops = ops / 1e3;
    let timing = timing(pass.parts.into_iter().map(|m| {
        (
            (m.done as u64 - m.failed) as f64,
            m.wall.as_secs_f64(),
            m.samples,
        )
    }));
    out.metrics.extend(setup_s.map(|s| ("setup_s", s)));
    out.metrics.extend([
        ("ops_per_s", timing.ops_per_s),
        ("p50_us", timing.p50_us),
        ("p99_us", timing.p99_us),
        ("failed_frac", out.failed as f64 / ops),
        ("flushes_per_op", flushes as f64 / ops),
        ("fences_per_op", fences as f64 / ops),
        (
            "pm_bytes_per_key",
            rig.pool.high_water() as f64 / rows.len() as f64,
        ),
        ("core.height", f64::from(rig.height())),
        (
            "pmem.allocs_per_kop",
            (after.allocs - pass.before.allocs) as f64 / kops,
        ),
        ("pmem.high_water_bytes", rig.pool.high_water() as f64),
        (
            "epoch.advances_per_kop",
            (after.advances - pass.before.advances) as f64 / kops,
        ),
        (
            "epoch.recycled_online_per_kop",
            (after.recycled_online - pass.before.recycled_online) as f64 / kops,
        ),
        (
            "epoch.limbo_end",
            rig.domains.iter().map(|d| d.limbo_len()).sum::<u64>() as f64,
        ),
    ]);
    if let Some((partitioning, _)) = &rig.routing {
        // The sweep just showed the store holds exactly `rows`, so how the
        // router spread them can be read off the keys.
        let mut lens = vec![0usize; partitioning.shards()];
        rows.iter()
            .for_each(|&(k, _)| lens[partitioning.shard_of(k)] += 1);
        let mean = rows.len() as f64 / lens.len() as f64;
        let max = *lens.iter().max().expect("shards") as f64;
        out.metrics.insert("shard.imbalance", max / mean);
    }
}

/// Layer metrics counted in thread-local `pmem::stats`: read off the
/// bench thread on the tree workloads, summed over the worker's spans on
/// the service ones.
fn count_metrics(out: &mut Metrics, c: &Counts, ops: f64) {
    out.extend([
        ("pmem.serial_misses_per_op", c.serial as f64 / ops),
        ("pmem.parallel_lines_per_op", c.parallel as f64 / ops),
        ("core.shifts_per_op", c.shift_ops as f64 / ops),
        (
            "core.shift_steps_per_shift",
            c.shift_steps as f64 / (c.shift_ops as f64).max(1.0),
        ),
        ("pmem.flushes_coalesced_per_op", c.coalesced as f64 / ops),
        ("pmem.recycled_per_kop", c.recycled as f64 / (ops / 1e3)),
    ]);
}

fn service_metrics(out: &mut Metrics, stats: &ServiceStats) {
    let writes = [
        OpClass::Insert,
        OpClass::Update,
        OpClass::Delete,
        OpClass::Batch,
    ];
    let busiest = writes
        .into_iter()
        .max_by_key(|&c| stats.op(c).completed())
        .expect("four classes");
    let p50_us = |c: OpClass| stats.op(c).latency().percentile(0.5) as f64 / 1e3;
    out.extend([
        ("service.mean_group", stats.mean_group_size()),
        ("service.largest_group", stats.largest_group() as f64),
        ("service.queue_high_water", stats.queue_high_water() as f64),
        ("service.get_hist_p50_us", p50_us(OpClass::Get)),
        ("service.write_hist_p50_us", p50_us(busiest)),
        ("service.shed", stats.shed() as f64),
        (
            "service.errors",
            OpClass::ALL
                .iter()
                .map(|&c| stats.op(c).errors())
                .sum::<u64>() as f64,
        ),
    ]);
}

fn untraced(req: &Request, out: &mut Run) {
    let (n, cap) = (req.n_ops(), req.cap());
    if req.workload.is_tree() {
        let (setup_s, (plan, rig)) = timed_setup(|| {
            let plan = req.plan();
            let rig = tree_rig(&Bare, &plan);
            (plan, rig)
        });
        out.digest = plan.digest();
        let pass = index_pass(&rig, &plan, n, cap, None);
        count_metrics(&mut out.metrics, &pass.counts, pass.done() as f64);
        finish(out, &rig, &plan, pass, Some(setup_s), 0);
    } else {
        let (setup_s, (plan, rig)) = timed_setup(|| {
            let plan = req.plan();
            let rig = store_rig(&Bare, &plan);
            (plan, rig)
        });
        out.digest = plan.digest();
        let pass = service_pass(&rig, &plan, n, cap, None, |service| {
            service_metrics(&mut out.metrics, service.stats());
        });
        finish(out, &rig, &plan, pass, Some(setup_s), 0);
    }
}

/// Mean duration of `layer`'s spans of `kind`, ns.
fn mean_ns(spans: &[Span], layer: Layer, kind: &str) -> f64 {
    let (n, ns) = spans
        .iter()
        .filter(|s| s.layer == layer && s.kind == kind)
        .fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.ns()));
    ns as f64 / (n as f64).max(1.0)
}

/// Metrics read off the spans of the workload's own height: per-kind
/// costs of `core`, call counts, and the self times of `core`, `shard`
/// and `pmem`. Returns the `pmem::stats` the `core` spans covered.
fn span_metrics(out: &mut Metrics, spans: &[Span], ops: f64) -> Counts {
    let core = |kind| mean_ns(spans, Layer::Core, kind);
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
    let scan_ns: u64 = of(Layer::Core)
        .filter(|s| matches!(s.kind, "cursor" | "seek" | "next"))
        .map(Span::ns)
        .sum();
    let rows: u64 = of(Layer::Core)
        .filter(|s| s.kind == "next")
        .map(|s| u64::from(s.items))
        .sum();
    let (batch_ns, batch_items) = of(Layer::Core)
        .filter(|s| s.kind == "apply_batch")
        .fold((0, 0), |(ns, items), s| {
            (ns + s.ns(), items + u64::from(s.items))
        });
    // Core spans never nest in one another, so their stats sum cleanly.
    let counts = of(Layer::Core).fold(Counts::default(), |acc, s| acc.plus(s.stats));
    let selfs = self_times(spans);
    out.extend([
        ("core.get_ns", core("get")),
        ("core.insert_ns", core("insert")),
        ("core.update_ns", core("update")),
        ("core.remove_ns", core("remove")),
        ("core.scan_row_ns", scan_ns as f64 / (rows as f64).max(1.0)),
        (
            "core.apply_batch_op_ns",
            batch_ns as f64 / (batch_items as f64).max(1.0),
        ),
        ("core.phase_search_ns_per_op", counts.search_ns as f64 / ops),
        ("core.phase_update_ns_per_op", counts.update_ns as f64 / ops),
        ("core.self_ns_per_op", selfs.of(Layer::Core) as f64 / ops),
        ("core.calls_per_op", of(Layer::Core).count() as f64 / ops),
        ("pmem.flush_ns_per_op", selfs.of(Layer::Pmem) as f64 / ops),
        (
            "shard.ns_per_op",
            of(Layer::Shard).map(Span::ns).sum::<u64>() as f64 / ops,
        ),
        ("shard.self_ns_per_op", selfs.of(Layer::Shard) as f64 / ops),
        ("shard.calls_per_op", of(Layer::Shard).count() as f64 / ops),
    ]);
    counts
}

/// The `txn` layer as the bench thread sees it when it calls
/// `commit_grouped` itself: cost and counts per commit, with the child
/// `shard` applies taken out.
fn txn_metrics(out: &mut Metrics, spans: &[Span], ops: f64) {
    let sum = |layer: Layer, kind: &str| {
        spans
            .iter()
            .filter(|s| s.layer == layer && s.kind == kind)
            .fold((0u64, 0u64, Counts::default()), |(n, ns, c), s| {
                (n + 1, ns + s.ns(), c.plus(s.stats))
            })
    };
    let (commits, commit_ns, total) = sum(Layer::Txn, "commit_grouped");
    let (_, _, applies) = sum(Layer::Shard, "apply_batch");
    out.extend([
        ("txn.commit_ns_per_op", commit_ns as f64 / ops),
        (
            "txn.commits_per_kop",
            total.txn_commits as f64 / (ops / 1e3),
        ),
        (
            "txn.fences_per_commit",
            (total.fences - applies.fences) as f64 / (commits as f64).max(1.0),
        ),
        (
            "txn.journal_flushes_per_op",
            (total.flushes - applies.flushes) as f64 / ops,
        ),
    ]);
}

/// The worker's timeline at the `service` height, tiled by its top-level
/// (`shard`) spans and the gaps between them. The gap before an
/// `apply_batch` is where `commit_grouped` stages and commits — `txn`'s;
/// every other gap is the service's own: overlay, queue, reply, waiting
/// for the client. Returns `(txn, service)` self ns, flush stalls taken
/// out (they are `pmem`'s).
fn worker_timeline(spans: &[Span], worker_flushes: u64) -> (f64, f64) {
    let client = spans
        .iter()
        .find(|s| s.layer == Layer::Service)
        .map(|s| s.thread);
    let mut tops: Vec<&Span> = spans
        .iter()
        .filter(|s| s.layer == Layer::Shard && Some(s.thread) != client)
        .collect();
    tops.sort_unstable_by_key(|s| (s.thread, s.start_ns));
    let (mut txn, mut service) = (0u64, 0u64);
    let mut seen_flush_ns: u64 = tops.iter().map(|s| s.stats.flush_ns).sum();
    for pair in tops.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.thread != b.thread {
            continue;
        }
        let gap = b.start_ns.saturating_sub(a.end_ns);
        // The worker zeroes its counters after each group; across that
        // reset a gap holds what has accrued since.
        let a_end = a.flush_ns_at + a.stats.flush_ns;
        let flush_ns = match b.flush_ns_at >= a_end {
            true => b.flush_ns_at - a_end,
            false => b.flush_ns_at,
        };
        seen_flush_ns += flush_ns;
        match b.kind {
            "apply_batch" => txn += gap.saturating_sub(flush_ns),
            _ => service += gap.saturating_sub(flush_ns),
        }
    }
    // Flushes no span or gap saw are the retire stores: issued after the
    // apply and zeroed with the group. They sit in a service-side gap.
    let retire_ns = (worker_flushes as f64 * WRITE_NS - seen_flush_ns as f64).max(0.0);
    (txn as f64, (service as f64 - retire_ns).max(0.0))
}

/// Round trip of one synchronous `get` with nothing else in flight, µs —
/// never gated: with one request outstanding it measures where the
/// scheduler put the two threads.
fn sync_rtt_us<I: PmIndex + 'static>(service: &Service<I>, plan: &Plan) -> f64 {
    let client = service.handle();
    let rtts: Vec<f64> = plan.keys[..plan.preload.min(1000)]
        .iter()
        .map(|&k| {
            let t = Instant::now();
            let _ = client.get(k);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&rtts)
}

/// The layer ladder: the same prefix of the op stream replayed at every
/// height at or below the workload's own, each on a freshly built store.
fn traced(req: &Request, out: &mut Run) {
    let plan = req.plan();
    out.digest = plan.digest();
    let is_tree = req.workload.is_tree();
    // Sized so the whole ladder takes about what one untraced run takes.
    let n = plan.ops.len() / if is_tree { 3 } else { 5 };
    let cap = req.cap() / 3;
    let mut file = SpanFile::create(req.workload.name(), req.seed);
    let mut m: Metrics = PER_LAYER.iter().map(|def| (def.name, 0.0)).collect();

    let floor = run::drive_pmem(&stack::pool_for(0), &plan, n);
    let writes = plan.ops[..n].iter().map(|op| match op.kind {
        gen::Kind::Batch => gen::BATCH_PUTS,
        _ => usize::from(op.is_write()),
    });
    let writes = writes.sum::<usize>() as f64;
    if writes > 0.0 {
        m.insert("pmem.floor_ns", floor.wall.as_nanos() as f64 / writes);
        m.insert("ladder.pmem_ns_per_op", floor.ns_per_op());
    }

    // core: one tree, called directly.
    let tracer = Tracer::new();
    let rig = tree_rig(&tracer, &plan);
    let pass = index_pass(&rig, &plan, n, cap, Some(&tracer));
    let spans = tracer.take();
    m.insert("ladder.core_ns_per_op", pass.ns_per_op());
    file.append("core", &spans);

    if is_tree {
        let bare = tree_rig(&Bare, &plan);
        let baseline = index_pass(&bare, &plan, n, cap, None);
        let ops = pass.done() as f64;
        span_metrics(&mut m, &spans, ops);
        count_metrics(&mut m, &pass.counts, ops);
        let selfs = self_times(&spans);
        let covered = (selfs.of(Layer::Core) + selfs.of(Layer::Pmem)) as f64;
        m.insert("ladder.closure", covered / pass.wall_ns());
        m.insert(
            "trace.overhead_frac",
            1.0 - baseline.ns_per_op() / pass.ns_per_op(),
        );
        out.metrics = m;
        let bad = baseline.failed() + sweep(bare.index.as_ref(), &plan, baseline.done()).0;
        finish(out, &rig, &plan, pass, None, bad);
        return file.finish();
    }
    let mut bad = pass.failed() + sweep(rig.index.as_ref(), &plan, pass.done()).0;
    drop(rig);

    // shard: the router over two trees, called directly.
    let tracer = Tracer::new();
    let rig = store_rig(&tracer, &plan);
    tracer.take();
    let pass = index_pass(&rig, &plan, n, cap, Some(&tracer));
    m.insert("ladder.shard_ns_per_op", pass.ns_per_op());
    file.append("shard", &tracer.take());
    bad += pass.failed() + sweep(rig.index.as_ref(), &plan, pass.done()).0;
    drop(rig);

    // txn: the bench thread forms the groups and commits them itself.
    let tracer = Tracer::new();
    let rig = store_rig(&tracer, &plan);
    tracer.take();
    let engine = TxnEngine::create(Arc::clone(&rig.pool)).expect("engine");
    let deadline = Instant::now() + cap;
    let pass = run::drive_txn(
        rig.index.as_ref(),
        &engine,
        &plan,
        n,
        deadline,
        Some(&tracer),
    );
    let spans = tracer.take();
    m.insert("ladder.txn_ns_per_op", pass.ns_per_op());
    txn_metrics(&mut m, &spans, pass.done as f64);
    file.append("txn", &spans);
    bad += pass.failed + sweep(rig.index.as_ref(), &plan, pass.done).0;
    drop((engine, rig));

    // service, bare, over the same prefix: the overhead baseline.
    let rig = store_rig(&Bare, &plan);
    let mut rtt = 0.0;
    let baseline = service_pass(&rig, &plan, n, cap, None, |service| {
        rtt = sync_rtt_us(service, &plan);
    });
    bad += baseline.failed() + sweep(rig.index.as_ref(), &plan, baseline.done()).0;
    drop(rig);

    // service: the workload itself, with the seams in.
    let tracer = Tracer::new();
    let rig = store_rig(&tracer, &plan);
    tracer.take();
    let pass = service_pass(&rig, &plan, n, cap, Some(&tracer), |service| {
        service_metrics(&mut m, service.stats());
    });
    let spans = tracer.take();
    let ops = pass.done() as f64;
    let wall_ns = pass.wall_ns();
    let worker_counts = span_metrics(&mut m, &spans, ops);
    count_metrics(&mut m, &worker_counts, ops);
    let (txn_self, service_self) = worker_timeline(&spans, pass.worker_persist.0);
    let selfs = self_times(&spans);
    let below = (selfs.of(Layer::Core) + selfs.of(Layer::Shard)) as f64;
    let pmem_self = pass.worker_persist.0 as f64 * WRITE_NS;
    m.extend([
        ("ladder.service_ns_per_op", wall_ns / ops),
        ("pmem.flush_ns_per_op", pmem_self / ops),
        ("txn.self_ns_per_op", txn_self / ops),
        ("service.self_us_per_op", service_self / ops / 1e3),
        (
            "service.worker_busy_frac",
            pass.others_cpu_ns as f64 / wall_ns,
        ),
        ("service.sync_rtt_us", rtt),
        (
            "ladder.closure",
            (pmem_self + below + txn_self + service_self) / wall_ns,
        ),
        (
            "trace.overhead_frac",
            1.0 - baseline.ns_per_op() / pass.ns_per_op(),
        ),
    ]);
    file.append("service", &spans);
    out.metrics = m;
    finish(out, &rig, &plan, pass, None, bad);
    file.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report::{is_exact, metric};

    fn request(workload: Workload, seed: u64, trace: bool) -> Request {
        Request {
            workload,
            seed,
            seconds: 1,
            trace,
            scale: 50,
            lose_a_commit: false,
        }
    }

    /// Reduced scale, every workload, both modes: nothing fails and every
    /// metric the mode owes is produced.
    #[test]
    fn every_workload_runs_clean_in_both_modes() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let run = run(&request(workload, 3, trace));
                assert_eq!(run.failed, 0, "{} trace={trace}", run.workload);
                assert!(run.attempted > 0 && run.samples >= 32, "{}", run.workload);
                assert_eq!(
                    run.missing(),
                    Vec::<&str>::new(),
                    "{} trace={trace}",
                    run.workload
                );
                assert!(
                    run.metrics.values().all(|v| v.is_finite()),
                    "{}",
                    run.workload
                );
                assert!(run.metrics["ops_per_s"] > 0.0 && run.metrics["pm_bytes_per_key"] > 0.0);
            }
        }
    }

    /// The metrics marked exact are bit-identical between two same-seed
    /// runs, and move with the seed.
    #[test]
    fn exact_metrics_repeat_bit_for_bit() {
        for workload in [Workload::TreeRead, Workload::TreeWrite, Workload::Restart] {
            for trace in [false, true] {
                let (a, b) = (
                    run(&request(workload, 5, trace)),
                    run(&request(workload, 5, trace)),
                );
                assert_eq!(a.digest, b.digest);
                let mut exact = 0;
                for (name, value) in &a.metrics {
                    if is_exact(a.workload, metric(name).unwrap()) {
                        assert_eq!(
                            value.to_bits(),
                            b.metrics[name].to_bits(),
                            "{} {name}",
                            a.workload
                        );
                        exact += 1;
                    }
                }
                assert!(exact >= 4, "{}: {exact} exact metrics", a.workload);
            }
        }
        let (a, b) = (
            run(&request(Workload::TreeWrite, 5, false)),
            run(&request(Workload::TreeWrite, 6, false)),
        );
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.metrics["flushes_per_op"], b.metrics["flushes_per_op"]);
    }

    /// The write-cost counts land where the issue says they should.
    #[test]
    fn counts_are_where_they_should_be() {
        let read = run(&request(Workload::TreeRead, 7, false));
        assert_eq!(read.metrics["flushes_per_op"], 0.0);
        assert_eq!(read.metrics["fences_per_op"], 0.0);
        assert!(read.metrics["pmem.serial_misses_per_op"] >= 1.0);
        let write = run(&request(Workload::TreeWrite, 7, false));
        assert!(write.metrics["flushes_per_op"] > 1.0 && write.metrics["fences_per_op"] > 1.0);
        let svc = run(&request(Workload::SvcWrite, 7, false));
        assert!(svc.metrics["service.mean_group"] > 4.0, "groups stay full");
        assert!(svc.metrics["fences_per_op"] > 0.0);
        let mostly = run(&request(Workload::SvcReadMostly, 7, false));
        assert!(
            mostly.metrics["service.mean_group"] < 4.0,
            "write groups are near-singletons"
        );
        assert!(mostly.metrics["fences_per_op"] < svc.metrics["fences_per_op"]);
    }

    /// The traced service run: the ladder closes, the heights order as
    /// they should, and the span file links worker spans to client ops.
    #[test]
    fn the_ladder_closes_and_the_span_file_links_up() {
        let run = run(&request(Workload::SvcWrite, 9, true));
        let m = &run.metrics;
        assert!(
            (0.9..=1.1).contains(&m["ladder.closure"]),
            "{}",
            m["ladder.closure"]
        );
        assert!(m["ladder.pmem_ns_per_op"] < m["ladder.core_ns_per_op"]);
        assert!(m["ladder.core_ns_per_op"] < m["ladder.service_ns_per_op"]);
        assert!(m["txn.fences_per_commit"] >= 3.0 && m["txn.commits_per_kop"] > 0.0);
        assert!(m["core.apply_batch_op_ns"] > 0.0 && m["shard.calls_per_op"] > 0.0);
        assert!(m["trace.overhead_frac"] < 0.9);

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-svc_write-9.jsonl");
        let text = std::fs::read_to_string(path).unwrap();
        let spans: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        let field = |s: &Json, k: &str| s.get(k).and_then(Json::num).unwrap() as u64;
        let text_of = |s: &Json, k: &str| s.get(k).and_then(Json::str).unwrap().to_string();
        for height in ["core", "shard", "txn", "service"] {
            assert!(
                spans.iter().any(|s| text_of(s, "height") == height),
                "{height}"
            );
        }
        let service: Vec<&Json> = spans
            .iter()
            .filter(|s| text_of(s, "height") == "service")
            .collect();
        let by_id: std::collections::HashMap<u64, &Json> =
            service.iter().map(|s| (field(s, "id"), *s)).collect();
        let mut linked = 0;
        for s in &service {
            assert!(field(s, "end_ns") >= field(s, "start_ns"));
            let parent = field(s, "parent");
            if parent == 0 {
                continue;
            }
            let p = by_id[&parent];
            assert_eq!(field(p, "op_id"), field(s, "op_id"));
            match text_of(s, "layer").as_str() {
                "core" => assert_eq!(text_of(p, "layer"), "shard"),
                "shard" => {
                    assert_eq!(text_of(p, "layer"), "service");
                    linked += 1;
                }
                other => panic!("{other} span with a parent"),
            }
        }
        assert!(linked > 100, "{linked} worker spans found their client op");
    }

    #[test]
    fn a_lost_commit_fails_the_run() {
        let mut req = request(Workload::Restart, 11, false);
        req.lose_a_commit = true;
        let run = run(&req);
        assert!(run.failed > 0 && !run.correct());
        assert!(run.metrics["failed_frac"] > 0.0);
    }
}

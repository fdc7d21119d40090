//! The measured loops: one op stream, driven at each height of the stack
//! through that height's public functions, every result compared with the
//! expectation the generator precomputed.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::Pool;
use pmindex::{BatchOp, PmIndex};
use service::{ClientHandle, ServiceError, Ticket};
use txn::{TxnEngine, WriteBatch};

use crate::gen::{value_of, Kind, Op, Plan};
use crate::trace::{Counts, Layer, Span, Tracer, ROOT};

/// Requests the closed-loop service client keeps outstanding; also the
/// commit group the `txn` height forms, since that is the group the
/// window lets the worker form.
pub const WINDOW: usize = 16;

pub struct Measured {
    /// Ops run (less than asked for only if the deadline cut the run).
    pub done: usize,
    pub failed: u64,
    pub wall: Duration,
    /// One latency per op, ns, in op order (empty at heights that only
    /// feed the ladder).
    pub samples: Vec<u32>,
}

impl Measured {
    pub fn ns_per_op(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.done as f64
    }
}

/// Runs `op` against an index and checks what came back.
pub fn apply<I: PmIndex + ?Sized>(idx: &I, plan: &Plan, op: &Op) -> bool {
    match op.kind {
        Kind::Get => idx.get(op.key).unwrap_or(0) == op.expect,
        Kind::Insert => idx.insert(op.key, op.value).map(|old| old.unwrap_or(0)) == Ok(op.expect),
        Kind::Update => idx.update(op.key, op.value).map(|old| old.unwrap_or(0)) == Ok(op.expect),
        Kind::Remove => u64::from(idx.remove(op.key)) == op.expect,
        Kind::Batch => {
            let puts = plan.batches[op.key as usize].map(|(k, v)| BatchOp::Put(k, v));
            idx.apply_batch(&puts).is_ok()
        }
        Kind::Scan => {
            let mut cursor = idx.cursor();
            cursor.seek(op.key);
            let start = op.expect as usize;
            (start..start + op.value as usize).all(|slot| match cursor.next() {
                Some(row) => slot < plan.preload && row == (plan.keys[slot], value_of(slot, 0)),
                None => slot >= plan.preload,
            })
        }
    }
}

/// `core` and `shard` heights: the bench thread calls the index directly,
/// running `ops` of the plan (stopping early past `deadline`). A latency
/// sample is the time between consecutive returns.
pub fn drive_index<I: PmIndex + ?Sized>(
    idx: &I,
    plan: &Plan,
    ops: Range<usize>,
    deadline: Instant,
    tracer: Option<&Arc<Tracer>>,
) -> Measured {
    let mut samples = Vec::with_capacity(ops.len());
    let mut failed = 0;
    let start = Instant::now();
    let mut last = start;
    for at in ops {
        if let Some(t) = tracer {
            t.set_op(at as u32);
        }
        failed += u64::from(!apply(idx, plan, &plan.ops[at]));
        let now = Instant::now();
        samples.push((now - last).as_nanos() as u32);
        last = now;
        if at % 1024 == 0 && now > deadline {
            break;
        }
    }
    Measured {
        done: samples.len(),
        failed,
        wall: last - start,
        samples,
    }
}

/// `pmem` height — the floor: every write the stream carries becomes one
/// 8-byte store plus `persist` on its own cache line; reads cost nothing.
pub fn drive_pmem(pool: &Pool, plan: &Plan, n: usize) -> Measured {
    let lines = 1u64 << 16;
    let base = pool.alloc(lines * 64, 64).expect("floor region");
    let put = |key: u64, value: u64| {
        let off = base + (crate::gen::mix64(key) % lines) * 64;
        pool.store_u64(off, value);
        pool.persist(off, 8);
    };
    let start = Instant::now();
    for op in &plan.ops[..n] {
        match op.kind {
            Kind::Insert | Kind::Update | Kind::Remove => put(op.key, op.value | 1),
            Kind::Batch => plan.batches[op.key as usize]
                .iter()
                .for_each(|&(k, v)| put(k, v)),
            Kind::Get | Kind::Scan => {}
        }
    }
    Measured {
        done: n,
        failed: 0,
        wall: start.elapsed(),
        samples: Vec::new(),
    }
}

/// `txn` height: what the service worker does with a window of requests,
/// minus the queues, the threads and the replies — reads and the
/// previous-value peeks go to `store.get` (through an overlay of the
/// group's staged writes), writes are staged, and each window commits
/// through one `commit_grouped`.
pub fn drive_txn<I: PmIndex>(
    store: &I,
    engine: &TxnEngine,
    plan: &Plan,
    n: usize,
    deadline: Instant,
    tracer: Option<&Arc<Tracer>>,
) -> Measured {
    let mut failed = 0;
    let mut done = 0;
    let start = Instant::now();
    let mut overlay: HashMap<u64, u64> = HashMap::new();
    let mut staged: Vec<WriteBatch> = Vec::new();
    for (w, window) in plan.ops[..n].chunks(WINDOW).enumerate() {
        for (j, op) in window.iter().enumerate() {
            if let Some(t) = tracer {
                t.set_op((w * WINDOW + j) as u32);
            }
            let seen = match op.kind {
                Kind::Batch | Kind::Scan => 0,
                _ => match overlay.get(&op.key) {
                    Some(&v) => v,
                    None => store.get(op.key).unwrap_or(0),
                },
            };
            let mut batch = WriteBatch::new();
            let ok = match op.kind {
                Kind::Get => seen == op.expect,
                // As in the service: an update or delete of an absent key
                // stages nothing.
                Kind::Update | Kind::Remove if seen == 0 => op.expect == 0,
                Kind::Insert | Kind::Update => {
                    batch.put(0, op.key, op.value);
                    overlay.insert(op.key, op.value);
                    seen == op.expect
                }
                Kind::Remove => {
                    batch.delete(0, op.key);
                    overlay.insert(op.key, 0);
                    op.expect == 1
                }
                Kind::Batch => {
                    for &(k, v) in &plan.batches[op.key as usize] {
                        batch.put(0, k, v);
                        overlay.insert(k, v);
                    }
                    true
                }
                Kind::Scan => unreachable!("scans run on the tree workloads only"),
            };
            failed += u64::from(!ok);
            if !batch.is_empty() {
                staged.push(batch);
            }
        }
        if !staged.is_empty() {
            let span = tracer.map(|t| {
                t.set_op((w * WINDOW) as u32);
                t.span(Layer::Txn, "commit_grouped", None, staged.len() as u32)
            });
            failed += u64::from(engine.commit_grouped(&staged, &[store]).is_err());
            drop(span);
            staged.clear();
            overlay.clear();
        }
        done += window.len();
        if Instant::now() > deadline {
            break;
        }
    }
    Measured {
        done,
        failed,
        wall: start.elapsed(),
        samples: Vec::new(),
    }
}

enum Pending {
    Value(Ticket<Option<u64>>),
    Flag(Ticket<bool>),
    Unit(Ticket<()>),
}

fn submit<I: PmIndex + Send + Sync + 'static>(
    client: &ClientHandle<I>,
    plan: &Plan,
    op: &Op,
) -> Result<Pending, ServiceError> {
    Ok(match op.kind {
        Kind::Get => Pending::Value(client.submit_get(op.key)?),
        Kind::Insert => Pending::Value(client.submit_insert(op.key, op.value)?),
        Kind::Update => Pending::Value(client.submit_update(op.key, op.value)?),
        Kind::Remove => Pending::Flag(client.submit_delete(op.key)?),
        Kind::Batch => {
            let mut batch = WriteBatch::new();
            for &(k, v) in &plan.batches[op.key as usize] {
                batch.put(0, k, v);
            }
            Pending::Unit(client.submit_batch(batch)?)
        }
        Kind::Scan => unreachable!("scans run on the tree workloads only"),
    })
}

fn wait(pending: Pending, op: &Op) -> bool {
    match pending {
        Pending::Value(t) => t.wait().map(|v| v.unwrap_or(0)) == Ok(op.expect),
        Pending::Flag(t) => t.wait().map(u64::from) == Ok(op.expect),
        Pending::Unit(t) => t.wait().is_ok(),
    }
}

fn op_keys<'a>(plan: &'a Plan, op: &'a Op) -> impl Iterator<Item = u64> + 'a {
    let batch = match op.kind {
        Kind::Batch => &plan.batches[op.key as usize][..],
        _ => &[],
    };
    let single = (op.kind != Kind::Batch).then_some(op.key);
    single.into_iter().chain(batch.iter().map(|&(k, _)| k))
}

/// `service` height: one client thread, closed loop, [`WINDOW`] tickets
/// outstanding, waited in submission order; runs `ops` of the plan
/// (stopping early past `deadline`) and drains the window. Sheds and errors count as
/// failures. A latency sample runs from `submit_*` to `Ticket::wait`
/// returning.
pub fn drive_service<I: PmIndex + Send + Sync + 'static>(
    client: &ClientHandle<I>,
    plan: &Plan,
    ops: Range<usize>,
    deadline: Instant,
    tracer: Option<&Arc<Tracer>>,
) -> Measured {
    struct InFlight {
        at: usize,
        span: u32,
        submitted: Instant,
        submitted_ns: u64,
        pending: Pending,
    }
    let mut samples = Vec::with_capacity(ops.len());
    let mut failed = 0;
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
    let complete = |f: InFlight, samples: &mut Vec<u32>| {
        let op = &plan.ops[f.at];
        let ok = wait(f.pending, op);
        samples.push(f.submitted.elapsed().as_nanos() as u32);
        if let Some(t) = tracer {
            op_keys(plan, op).for_each(|k| t.op_completed(k, f.at as u32));
            t.record(Span {
                id: f.span,
                parent: ROOT,
                op: f.at as u32,
                thread: 0,
                layer: Layer::Service,
                kind: "request",
                items: 1,
                start_ns: f.submitted_ns,
                end_ns: t.now_ns(),
                stats: Counts::default(),
                flush_ns_at: 0,
            });
        }
        ok
    };
    let start = Instant::now();
    for at in ops {
        let op = &plan.ops[at];
        if window.len() == WINDOW {
            let oldest = window.pop_front().expect("full window");
            failed += u64::from(!complete(oldest, &mut samples));
            if at % 1024 == 0 && Instant::now() > deadline {
                break;
            }
        }
        let (span, submitted_ns) = match tracer {
            Some(t) => {
                let span = t.new_id();
                op_keys(plan, op).for_each(|k| t.op_submitted(k, at as u32, span));
                (span, t.now_ns())
            }
            None => (ROOT, 0),
        };
        let submitted = Instant::now();
        match submit(client, plan, op) {
            Ok(pending) => window.push_back(InFlight {
                at,
                span,
                submitted,
                submitted_ns,
                pending,
            }),
            Err(_) => {
                failed += 1;
                samples.push(submitted.elapsed().as_nanos() as u32);
            }
        }
    }
    for f in window.drain(..) {
        failed += u64::from(!complete(f, &mut samples));
    }
    Measured {
        done: samples.len(),
        failed,
        wall: start.elapsed(),
        samples,
    }
}

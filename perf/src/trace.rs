//! Spans at the layer seams, recorded from outside the program.
//!
//! [`Traced`] is a pass-through [`PmIndex`]: it sits between `Service` /
//! `TxnEngine` and `ShardedStore`, and between `ShardedStore` and each
//! `FastFairTree` (all three are generic over the index they drive), so a
//! span — and the thread-local `pmem::stats` delta it covers — is recorded
//! on the thread where the work happens, worker threads included. Spans
//! nest through a thread-local "current span"; the first span a thread
//! opens with no parent looks its key up in the tracer's in-flight table,
//! which is how worker-side spans find the client op that caused them.
//!
//! Spans stay in per-thread buffers and reach the tracer when the thread
//! ends or [`Tracer::take`] runs on it.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pmindex::{BatchOp, Cursor, IndexError, Key, PmIndex, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    Pmem,
    Core,
    Shard,
    Txn,
    Service,
    Catalog,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pmem => "pmem",
            Layer::Core => "core",
            Layer::Shard => "shard",
            Layer::Txn => "txn",
            Layer::Service => "service",
            Layer::Catalog => "catalog",
        }
    }
}

/// Span id 0: no parent.
pub const ROOT: u32 = 0;
/// Op id of a span no client op could be found for.
pub const NO_OP: u32 = u32::MAX;

/// One call into a layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    /// Index of the recording thread's buffer (0 = first thread seen).
    pub thread: u32,
    pub layer: Layer,
    pub kind: &'static str,
    /// Client ops this call carried (batch entries for `apply_batch`).
    pub items: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `pmem::stats` on the recording thread, end minus start.
    pub stats: Counts,
    /// The thread's running `flush_ns` when the span opened — lets a
    /// reader price the flushes issued *between* two spans of a thread.
    pub flush_ns_at: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    sink: Mutex<Vec<Span>>,
    /// Key → client ops in flight on it, oldest first: `(op, span)`.
    inflight: Mutex<HashMap<Key, VecDeque<(u32, u32)>>>,
}

struct Local {
    tracer: Arc<Tracer>,
    thread: u32,
    op: u32,
    parent: u32,
    buf: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        self.tracer.sink.lock().expect("sink").append(&mut self.buf);
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// The `pmem::stats` counters the benchmark reads, copied out so nothing
/// else here depends on the shape of `pmem::stats::Snapshot`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub flushes: u64,
    pub coalesced: u64,
    pub fences: u64,
    pub serial: u64,
    pub parallel: u64,
    pub recycled: u64,
    pub txn_commits: u64,
    pub txn_replays: u64,
    pub shift_ops: u64,
    pub shift_steps: u64,
    pub flush_ns: u64,
    pub search_ns: u64,
    pub update_ns: u64,
}

impl Counts {
    /// The calling thread's counters.
    pub fn now() -> Counts {
        let s = pmem::stats::snapshot();
        Counts {
            flushes: s.flushes,
            coalesced: s.flushes_coalesced,
            fences: s.fences,
            serial: s.serial_misses,
            parallel: s.parallel_lines,
            recycled: s.nodes_recycled,
            txn_commits: s.txn_commits,
            txn_replays: s.txn_replays,
            shift_ops: s.shift_ops,
            shift_steps: s.shift_steps,
            flush_ns: s.flush_ns,
            search_ns: s.search_ns,
            update_ns: s.update_ns,
        }
    }

    fn zip(self, o: Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            flushes: f(self.flushes, o.flushes),
            coalesced: f(self.coalesced, o.coalesced),
            fences: f(self.fences, o.fences),
            serial: f(self.serial, o.serial),
            parallel: f(self.parallel, o.parallel),
            recycled: f(self.recycled, o.recycled),
            txn_commits: f(self.txn_commits, o.txn_commits),
            txn_replays: f(self.txn_replays, o.txn_replays),
            shift_ops: f(self.shift_ops, o.shift_ops),
            shift_steps: f(self.shift_steps, o.shift_steps),
            flush_ns: f(self.flush_ns, o.flush_ns),
            search_ns: f(self.search_ns, o.search_ns),
            update_ns: f(self.update_ns, o.update_ns),
        }
    }

    /// `self - start`; a counter its owner reset in between (the service
    /// worker harvests with `take()` after every group) counts from zero.
    pub fn since(self, start: Counts) -> Counts {
        self.zip(
            start,
            |end, start| if end >= start { end - start } else { end },
        )
    }

    pub fn plus(self, o: Counts) -> Counts {
        self.zip(o, |a, b| a + b)
    }
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            t0: Instant::now(),
            next_id: AtomicU32::new(ROOT + 1),
            next_thread: AtomicU32::new(0),
            sink: Mutex::new(Vec::new()),
            inflight: Mutex::new(HashMap::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` on this thread's buffer for this tracer, binding the
    /// thread to it first (a thread bound to an older tracer hands that
    /// tracer its spans).
    fn with_local<R>(self: &Arc<Self>, f: impl FnOnce(&mut Local) -> R) -> R {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if !l.as_ref().is_some_and(|l| Arc::ptr_eq(&l.tracer, self)) {
                *l = Some(Local {
                    tracer: Arc::clone(self),
                    thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
                    op: NO_OP,
                    parent: ROOT,
                    buf: Vec::new(),
                });
            }
            f(l.as_mut().expect("bound above"))
        })
    }

    /// Names the client op the calling thread is about to run: spans it
    /// opens next are top-level spans of `op`.
    pub fn set_op(self: &Arc<Self>, op: u32) {
        self.with_local(|l| {
            l.op = op;
            l.parent = ROOT;
        });
    }

    /// Announces that client op `op` (whose own span is `span`) is in
    /// flight on `key`, for threads that only see the key.
    pub fn op_submitted(&self, key: Key, op: u32, span: u32) {
        let mut inflight = self.inflight.lock().expect("inflight");
        inflight.entry(key).or_default().push_back((op, span));
    }

    pub fn op_completed(&self, key: Key, op: u32) {
        let mut inflight = self.inflight.lock().expect("inflight");
        if let Some(q) = inflight.get_mut(&key) {
            q.retain(|&(o, _)| o != op);
            if q.is_empty() {
                inflight.remove(&key);
            }
        }
    }

    /// Opens a span; it closes when the guard drops. `key` is what the
    /// call is about, used only when the thread has no op of its own.
    pub fn span(
        self: &Arc<Self>,
        layer: Layer,
        kind: &'static str,
        key: Option<Key>,
        items: u32,
    ) -> SpanGuard {
        let id = self.new_id();
        let (op, parent, adopted) = self.with_local(|l| {
            let mut adopted = false;
            if l.parent == ROOT && l.op == NO_OP {
                let inflight = self.inflight.lock().expect("inflight");
                if let Some(&(op, span)) = key.and_then(|k| inflight.get(&k)?.front()) {
                    (l.op, l.parent, adopted) = (op, span, true);
                }
            }
            let ctx = (l.op, l.parent, adopted);
            l.parent = id;
            ctx
        });
        SpanGuard {
            tracer: Arc::clone(self),
            id,
            parent,
            op,
            adopted,
            layer,
            kind,
            items,
            stats: Counts::now(),
            start_ns: self.now_ns(),
            end_ns: None,
        }
    }

    /// Records a span measured by the caller (client-side service spans
    /// overlap one another, so they cannot be guards).
    pub fn record(self: &Arc<Self>, mut span: Span) {
        self.with_local(|l| {
            span.thread = l.thread;
            l.buf.push(span);
        });
    }

    /// Every span recorded so far, by id. Call once the threads that
    /// traced have ended; the calling thread's buffer is drained here.
    pub fn take(self: &Arc<Self>) -> Vec<Span> {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.as_ref().is_some_and(|l| Arc::ptr_eq(&l.tracer, self)) {
                *l = None;
            }
        });
        let mut spans = std::mem::take(&mut *self.sink.lock().expect("sink"));
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

pub struct SpanGuard {
    tracer: Arc<Tracer>,
    id: u32,
    parent: u32,
    op: u32,
    adopted: bool,
    layer: Layer,
    kind: &'static str,
    items: u32,
    stats: Counts,
    start_ns: u64,
    /// Set by [`SpanGuard::extend`]; a plain span ends when it drops.
    end_ns: Option<u64>,
}

impl SpanGuard {
    /// Folds one more call into the span: it now carries one more item
    /// and ends here, whenever the guard itself is dropped.
    fn extend(&mut self) {
        self.items += 1;
        self.end_ns = Some(self.tracer.now_ns());
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.end_ns.unwrap_or_else(|| self.tracer.now_ns());
        let stats = Counts::now().since(self.stats);
        self.tracer.with_local(|l| {
            // Spans close innermost first, except a cursor's folded run,
            // which may outlive spans opened after it; only the innermost
            // span hands the thread back to its parent.
            if l.parent == self.id {
                l.parent = if self.adopted { ROOT } else { self.parent };
            }
            if self.adopted {
                l.op = NO_OP;
            }
            l.buf.push(Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                thread: l.thread,
                layer: self.layer,
                kind: self.kind,
                items: self.items,
                start_ns: self.start_ns,
                end_ns,
                stats,
                flush_ns_at: self.stats.flush_ns,
            });
        });
    }
}

/// Pass-through index recording one span per trait call.
pub struct Traced<I> {
    inner: I,
    layer: Layer,
    tracer: Arc<Tracer>,
}

impl<I> Traced<I> {
    pub fn new(inner: I, layer: Layer, tracer: &Arc<Tracer>) -> Traced<I> {
        Traced {
            inner,
            layer,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<I: PmIndex> PmIndex for Traced<I> {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        let _s = self.tracer.span(self.layer, "insert", Some(key), 1);
        self.inner.insert(key, value)
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        let _s = self.tracer.span(self.layer, "update", Some(key), 1);
        self.inner.update(key, value)
    }

    fn get(&self, key: Key) -> Option<Value> {
        let _s = self.tracer.span(self.layer, "get", Some(key), 1);
        self.inner.get(key)
    }

    fn remove(&self, key: Key) -> bool {
        let _s = self.tracer.span(self.layer, "remove", Some(key), 1);
        self.inner.remove(key)
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        let _s = self.tracer.span(self.layer, "cursor", None, 0);
        Box::new(TracedCursor {
            inner: self.inner.cursor(),
            layer: self.layer,
            tracer: &self.tracer,
            run: None,
        })
    }

    fn len(&self) -> usize {
        let _s = self.tracer.span(self.layer, "len", None, 0);
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        let _s = self.tracer.span(self.layer, "is_empty", None, 0);
        self.inner.is_empty()
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) {
        let _s = self.tracer.span(self.layer, "range", Some(lo), 1);
        self.inner.range(lo, hi, out)
    }

    fn bulk_load(
        &self,
        items: &mut dyn Iterator<Item = (Key, Value)>,
    ) -> Result<usize, IndexError> {
        let _s = self.tracer.span(self.layer, "bulk_load", None, 0);
        self.inner.bulk_load(items)
    }

    fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
        let key = ops.first().map(|op| match *op {
            BatchOp::Put(k, _) | BatchOp::Delete(k) => k,
        });
        let _s = self
            .tracer
            .span(self.layer, "apply_batch", key, ops.len() as u32);
        self.inner.apply_batch(ops)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A cursor's consecutive `next` (or `prev`) calls fold into one span —
/// from the first call's start to the last call's end, `items` = rows —
/// so that a 100-row scan costs one span, not a hundred.
struct TracedCursor<'a> {
    inner: Box<dyn Cursor + 'a>,
    layer: Layer,
    tracer: &'a Arc<Tracer>,
    run: Option<SpanGuard>,
}

impl TracedCursor<'_> {
    fn step(
        &mut self,
        kind: &'static str,
        step: impl FnOnce(&mut dyn Cursor) -> Option<(Key, Value)>,
    ) -> Option<(Key, Value)> {
        if self.run.as_ref().is_none_or(|run| run.kind != kind) {
            self.run = None;
            self.run = Some(self.tracer.span(self.layer, kind, None, 0));
        }
        let row = step(self.inner.as_mut());
        self.run.as_mut().expect("opened above").extend();
        row
    }
}

impl Cursor for TracedCursor<'_> {
    fn seek(&mut self, target: Key) {
        self.run = None;
        let _s = self.tracer.span(self.layer, "seek", Some(target), 1);
        self.inner.seek(target)
    }

    fn next(&mut self) -> Option<(Key, Value)> {
        self.step("next", |c| c.next())
    }

    fn seek_for_prev(&mut self, target: Key) {
        self.run = None;
        let _s = self
            .tracer
            .span(self.layer, "seek_for_prev", Some(target), 1);
        self.inner.seek_for_prev(target)
    }

    fn prev(&mut self) -> Option<(Key, Value)> {
        self.step("prev", |c| c.prev())
    }
}

/// Ops per height whose spans go to the span file; the metrics read every
/// span, the file is for reading by eye.
const SPAN_FILE_OPS: u32 = 10_000;

/// `perf/out/trace-<workload>-<seed>.jsonl`: one span per line, written
/// when the run ends.
pub struct SpanFile {
    path: PathBuf,
    text: String,
}

impl SpanFile {
    pub fn create(workload: &str, seed: u64) -> SpanFile {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        SpanFile {
            path: dir.join(format!("trace-{workload}-{seed}.jsonl")),
            text: String::new(),
        }
    }

    /// Adds the spans of the first [`SPAN_FILE_OPS`] ops of one height.
    pub fn append(&mut self, height: &str, spans: &[Span]) {
        for s in spans.iter().filter(|s| s.op < SPAN_FILE_OPS) {
            writeln!(
                self.text,
                "{{\"height\": \"{height}\", \"layer\": \"{}\", \"kind\": \"{}\", \"op_id\": {}, \
                 \"id\": {}, \"parent\": {}, \"thread\": {}, \"items\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"flushes\": {}, \"fences\": {}, \"flush_ns\": {}, \
                 \"search_ns\": {}, \"update_ns\": {}}}",
                s.layer.name(),
                s.kind,
                s.op,
                s.id,
                s.parent,
                s.thread,
                s.items,
                s.start_ns,
                s.end_ns,
                s.stats.flushes,
                s.stats.fences,
                s.stats.flush_ns,
                s.stats.search_ns,
                s.stats.update_ns,
            )
            .expect("write to string");
        }
    }

    pub fn finish(self) {
        let dir = self.path.parent().expect("file in a directory");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&self.path, self.text))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.path.display()));
    }
}

/// Per-layer self times: a span's duration minus what its child spans
/// cover, with the flush stall (`flush_ns`, the emulated write-back
/// latency) moved out of whichever layer issued it and into `pmem`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfTimes {
    pub by_layer: HashMap<Layer, u64>,
}

impl SelfTimes {
    pub fn of(&self, layer: Layer) -> u64 {
        self.by_layer.get(&layer).copied().unwrap_or(0)
    }
}

pub fn self_times(spans: &[Span]) -> SelfTimes {
    let by_id: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_flush_ns = vec![0u64; spans.len()];
    for s in spans {
        // A child on another thread (worker under a client span) does not
        // run inside its parent's interval on one timeline; only same-
        // thread nesting is subtracted.
        if let Some(&p) = by_id.get(&s.parent) {
            if spans[p].thread == s.thread {
                child_ns[p] += s.ns();
                child_flush_ns[p] += s.stats.flush_ns;
            }
        }
    }
    let mut out = SelfTimes::default();
    for (i, s) in spans.iter().enumerate() {
        let own_flush = s.stats.flush_ns.saturating_sub(child_flush_ns[i]);
        let own = s.ns().saturating_sub(child_ns[i]);
        *out.by_layer.entry(s.layer).or_default() += own.saturating_sub(own_flush);
        *out.by_layer.entry(Layer::Pmem).or_default() += own_flush;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Kind, Rng};
    use fastfair::{FastFairTree, TreeOptions};
    use pmem::{Pool, PoolConfig};
    use shard::{Partitioning, ShardedStore};

    fn tree() -> FastFairTree {
        let pool = Arc::new(Pool::new(PoolConfig::new().size(16 << 20)).unwrap());
        FastFairTree::create(pool, TreeOptions::new()).unwrap()
    }

    /// Every `PmIndex` method, through the wrapper and bare, over a 10 k-op
    /// random stream: identical results, identical final contents.
    #[test]
    fn traced_tree_is_a_pass_through() {
        let tracer = Tracer::new();
        let (bare, traced) = (tree(), Traced::new(tree(), Layer::Core, &tracer));
        let preload: Vec<(u64, u64)> = (1..=500u64).map(|k| (k * 7, k + 1)).collect();
        assert_eq!(
            bare.bulk_load(&mut preload.iter().copied()).unwrap(),
            traced.bulk_load(&mut preload.iter().copied()).unwrap()
        );
        let mut rng = Rng::new(42);
        for i in 0..10_000u64 {
            let (k, v) = (rng.below(5000) as u64, i + 2);
            match rng.below(8) {
                0 | 1 => assert_eq!(bare.insert(k, v).unwrap(), traced.insert(k, v).unwrap()),
                2 => assert_eq!(bare.update(k, v).unwrap(), traced.update(k, v).unwrap()),
                3 => assert_eq!(bare.remove(k), traced.remove(k)),
                4 => {
                    let ops = [
                        BatchOp::Put(k, v),
                        BatchOp::Delete(k + 1),
                        BatchOp::Put(k + 2, v),
                    ];
                    bare.apply_batch(&ops).unwrap();
                    traced.apply_batch(&ops).unwrap();
                }
                5 => {
                    let (mut a, mut b) = (bare.cursor(), traced.cursor());
                    a.seek(k);
                    b.seek(k);
                    for _ in 0..5 {
                        assert_eq!(a.next(), b.next());
                    }
                    a.seek_for_prev(k);
                    b.seek_for_prev(k);
                    assert_eq!(a.prev(), b.prev());
                }
                6 => {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    bare.range(k, k + 50, &mut a);
                    traced.range(k, k + 50, &mut b);
                    assert_eq!(a, b);
                }
                _ => assert_eq!(bare.get(k), traced.get(k)),
            }
        }
        assert_eq!(bare.len(), traced.len());
        assert_eq!(bare.is_empty(), traced.is_empty());
        assert_eq!(bare.name(), traced.name());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bare.range(0, u64::MAX, &mut a);
        traced.range(0, u64::MAX, &mut b);
        assert_eq!(a, b);
        assert!(!tracer.take().is_empty());
    }

    /// shard → core nesting on one thread: every parent exists, encloses
    /// its child in time, sits one layer up; self times are non-negative
    /// and add up to the top-level spans.
    #[test]
    fn spans_nest_and_self_times_add_up() {
        let tracer = Tracer::new();
        let trees = vec![
            Traced::new(tree(), Layer::Core, &tracer),
            Traced::new(tree(), Layer::Core, &tracer),
        ];
        let store = Traced::new(
            ShardedStore::from_indexes(trees, Partitioning::Hash { shards: 2 }),
            Layer::Shard,
            &tracer,
        );
        let plan = gen::svc_write(5, 2000, 3000);
        store.bulk_load(&mut plan.preload_items()).unwrap();
        for (i, op) in plan.ops.iter().enumerate() {
            tracer.set_op(i as u32);
            match op.kind {
                Kind::Insert => drop(store.insert(op.key, op.value).unwrap()),
                Kind::Remove => drop(store.remove(op.key)),
                Kind::Batch => {
                    let puts = plan.batches[op.key as usize].map(|(k, v)| BatchOp::Put(k, v));
                    store.apply_batch(&puts).unwrap();
                }
                _ => unreachable!(),
            }
        }
        let spans = tracer.take();
        let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        assert_eq!(by_id.len(), spans.len(), "span ids are unique");
        let mut top_ns = 0;
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
            match s.layer {
                Layer::Shard => {
                    assert_eq!(s.parent, ROOT);
                    top_ns += s.ns();
                }
                Layer::Core => {
                    let p = by_id[&s.parent];
                    assert_eq!(p.layer, Layer::Shard);
                    assert_eq!((p.op, p.thread), (s.op, s.thread));
                    assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
                }
                other => panic!("unexpected layer {other:?}"),
            }
        }
        // One shard span per op after the bulk load, op ids in order.
        let ops: Vec<u32> = spans
            .iter()
            .filter(|s| s.layer == Layer::Shard && s.kind != "bulk_load")
            .map(|s| s.op)
            .collect();
        assert_eq!(ops, (0..plan.ops.len() as u32).collect::<Vec<_>>());
        let selfs = self_times(&spans);
        let sum: u64 = selfs.by_layer.values().sum();
        assert_eq!(sum, top_ns, "self times partition the top-level spans");
        assert!(selfs.of(Layer::Core) > 0 && selfs.of(Layer::Shard) > 0);
    }

    /// A worker thread with no op of its own adopts the in-flight op of
    /// the key it is handed, and lets go of it when the span closes.
    #[test]
    fn worker_spans_find_their_client_op_by_key() {
        let tracer = Tracer::new();
        let t = Arc::new(Traced::new(tree(), Layer::Shard, &tracer));
        tracer.op_submitted(77, 5, 900);
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            t2.insert(77, 1).unwrap();
            t2.insert(78, 1).unwrap();
        })
        .join()
        .unwrap();
        tracer.op_completed(77, 5);
        t.get(77);
        let spans = tracer.take();
        let of = |kind: &str, n: usize| {
            let s = spans.iter().filter(|s| s.kind == kind).nth(n).unwrap();
            (s.op, s.parent)
        };
        assert_eq!(of("insert", 0), (5, 900));
        assert_eq!(of("insert", 1), (NO_OP, ROOT));
        assert_eq!(of("get", 0), (NO_OP, ROOT));
        assert_ne!(spans[0].thread, spans[2].thread);
    }

    #[test]
    fn counts_survive_a_counter_reset() {
        let a = Counts {
            flushes: 10,
            fences: 4,
            ..Counts::default()
        };
        let b = Counts {
            flushes: 13,
            fences: 1,
            ..Counts::default()
        };
        let d = b.since(a);
        assert_eq!((d.flushes, d.fences), (3, 1));
        assert_eq!(a.plus(b).flushes, 23);
    }
}

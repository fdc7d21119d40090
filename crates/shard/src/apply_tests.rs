//! The parallel batch apply's unhappy paths and its counter hand-back,
//! driven through [`Probe`]: a shard wrapper that can fail or panic its
//! next batch apply, and can hold a batch apply until another shard's has
//! begun — which pins the posted group onto the helper thread, since the
//! calling thread is busy with its own group until then.

use std::sync::atomic::AtomicBool;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use fastfair::{FastFairTree, TreeOptions};
use pmem::{Pool, PoolConfig};
use pmindex::workload::within;
use pmindex::CursorIter;

use super::*;

/// Every two-shard store here.
const PAIR: Partitioning = Partitioning::Hash { shards: 2 };

/// The keys from `from` up that route to `shard` of [`PAIR`], ascending.
fn keys_of(shard: usize, from: Key) -> impl Iterator<Item = Key> {
    (from..).filter(move |&k| PAIR.shard_of(k) == shard)
}

enum Fault {
    Fail,
    Panic,
}

struct Probe<I> {
    inner: I,
    /// What the next batch apply does instead of applying, once.
    fault: std::sync::Mutex<Option<Fault>>,
    /// Raised when a batch apply on this shard begins.
    began: Arc<AtomicBool>,
    /// A batch apply here first waits for this flag.
    after: Option<Arc<AtomicBool>>,
    /// Threads that ran this shard's batch applies, in order.
    threads: std::sync::Mutex<Vec<ThreadId>>,
}

impl<I> Probe<I> {
    fn new(inner: I, after: Option<Arc<AtomicBool>>) -> Self {
        Probe {
            inner,
            fault: std::sync::Mutex::new(None),
            began: Arc::new(AtomicBool::new(false)),
            after,
            threads: std::sync::Mutex::new(Vec::new()),
        }
    }

    fn enter(&self) -> Result<(), IndexError> {
        self.threads.lock().unwrap().push(thread::current().id());
        self.began.store(true, Ordering::SeqCst);
        if let Some(after) = &self.after {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !after.swap(false, Ordering::SeqCst) {
                assert!(
                    Instant::now() < deadline,
                    "the helper never claimed its group"
                );
                thread::yield_now();
            }
        }
        let fault = self.fault.lock().unwrap().take();
        match fault {
            Some(Fault::Fail) => Err(IndexError::PoolExhausted("injected".into())),
            Some(Fault::Panic) => panic!("injected shard panic"),
            None => Ok(()),
        }
    }

    fn last_thread(&self) -> ThreadId {
        *self
            .threads
            .lock()
            .unwrap()
            .last()
            .expect("a batch applied")
    }
}

impl<I: PmIndex> PmIndex for Probe<I> {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        self.inner.insert(key, value)
    }
    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        self.inner.update(key, value)
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.inner.get(key)
    }
    fn remove(&self, key: Key) -> bool {
        self.inner.remove(key)
    }
    fn cursor(&self) -> Box<dyn Cursor + '_> {
        self.inner.cursor()
    }
    fn apply_batch(&self, ops: &[BatchOp]) -> Result<(), IndexError> {
        self.enter()?;
        self.inner.apply_batch(ops)
    }
    fn apply_batch_prev(
        &self,
        ops: &[BatchOp],
        prev: &mut Vec<Option<Value>>,
    ) -> Result<(), IndexError> {
        self.enter()?;
        self.inner.apply_batch_prev(ops, prev)
    }
    fn name(&self) -> &'static str {
        "probe"
    }
}

fn tree() -> FastFairTree {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(8 << 20)).unwrap());
    FastFairTree::create(pool, TreeOptions::new()).unwrap()
}

/// Two shards whose shard-1 batch applies wait for shard 0's to begin:
/// every batch here must split with shard 0 posted.
fn latched_store() -> ShardedStore<Probe<FastFairTree>> {
    let first = Probe::new(tree(), None);
    let second = Probe::new(tree(), Some(Arc::clone(&first.began)));
    ShardedStore::from_indexes(vec![first, second], PAIR)
}

fn probe<I>(store: &ShardedStore<Probe<I>>, shard: usize) -> &Probe<I> {
    &store.shards[shard]
}

/// `MIN_SPLIT` ops for shard 0 and one more for shard 1, so shard 0 is
/// the smaller group and the one posted. `salt` varies keys and values.
fn split_batch(salt: u64) -> Vec<BatchOp> {
    let low = keys_of(0, 10 + salt)
        .take(MIN_SPLIT)
        .map(|k| BatchOp::Put(k, 7 + salt));
    let high = keys_of(1, 10 + salt)
        .take(MIN_SPLIT + 1)
        .map(|k| BatchOp::Put(k, 9 + salt));
    low.chain(high).collect()
}

/// The first key of `shard`'s group in `split_batch(salt)`.
fn first_of(shard: usize, salt: u64) -> Key {
    keys_of(shard, 10 + salt).next().unwrap()
}

/// A split batch's `pmem::stats` — every counter, the helper's absorbed
/// into the caller's — equal those of the same groups applied one shard
/// after the other on one thread.
#[test]
fn split_counters_match_the_groups_applied_shard_by_shard() {
    let store = latched_store();
    let twin = ShardedStore::from_indexes(vec![tree(), tree()], PAIR);
    for k in (1..400u64).map(|i| i * 5) {
        store.insert(k, k + 1).unwrap();
        twin.insert(k, k + 1).unwrap();
    }
    let fresh = keys_of(0, 1).filter(|k| k % 5 != 0);
    let present = |from| keys_of(1, from).filter(|k| k % 5 == 0);
    let deleted: Vec<Key> = present(1_500).take(12).collect();
    let mut ops = Vec::new();
    for ((i, put), (over, del)) in fresh.enumerate().zip(present(1_000).zip(&deleted)) {
        let i = i as u64;
        ops.push(BatchOp::Put(put, 50 + i)); // shard 0: fresh keys
        ops.push(BatchOp::Put(over, 60 + i)); // shard 1: overwrites
        ops.push(BatchOp::Delete(*del)); // shard 1: deletes
    }
    ops.push(BatchOp::Put(deleted[0], 2)); // a put then a delete of one key
    ops.push(BatchOp::Delete(deleted[0]));

    pmem::stats::reset();
    store.apply_batch(&ops).unwrap();
    let split = pmem::stats::take();
    assert_eq!(store.split_applies(), 1);
    assert_ne!(probe(&store, 0).last_thread(), thread::current().id());

    let groups = twin.route_batch(&ops);
    for (shard, group) in groups.iter().enumerate() {
        twin.shards[shard].apply_batch(group).unwrap();
    }
    let serial = pmem::stats::take();
    // Every counter but the wall-clock ones, which no two runs share.
    let counted = |s: pmem::stats::Snapshot| pmem::stats::Snapshot {
        flush_ns: 0,
        search_ns: 0,
        update_ns: 0,
        ..s
    };
    assert!(serial.flushes > 0 && serial.shift_ops > 0);
    assert_eq!(counted(split), counted(serial));
    let contents = |s: &dyn PmIndex| CursorIter(s.cursor()).collect::<Vec<_>>();
    assert_eq!(contents(&store), contents(&twin));
}

#[test]
fn an_error_in_the_helpers_group_reaches_the_caller() {
    let store = latched_store();
    *probe(&store, 0).fault.lock().unwrap() = Some(Fault::Fail);
    let err = store.apply_batch(&split_batch(0)).unwrap_err();
    assert!(matches!(err, IndexError::PoolExhausted(_)), "{err:?}");
    let me = thread::current().id();
    assert_ne!(probe(&store, 0).last_thread(), me);
    // The caller's own group applied; the failed one did not.
    assert_eq!(store.get(first_of(1, 0)), Some(9));
    assert_eq!(store.get(first_of(0, 0)), None);

    // The next batch splits normally, through `apply_batch_prev` too.
    let mut prev = Vec::new();
    store.apply_batch_prev(&split_batch(0), &mut prev).unwrap();
    assert_eq!(store.split_applies(), 2);
    assert_ne!(probe(&store, 0).last_thread(), me);
    let mut want = vec![None; MIN_SPLIT];
    want.extend(vec![Some(9); MIN_SPLIT + 1]);
    assert_eq!(prev, want);
    assert_eq!(store.get(first_of(0, 0)), Some(7));
}

#[test]
fn a_panic_in_the_helpers_group_reraises_on_the_caller() {
    within(|| {
        let store = latched_store();
        *probe(&store, 0).fault.lock().unwrap() = Some(Fault::Panic);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.apply_batch(&split_batch(0))
        }))
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"injected shard panic"));
        assert_ne!(probe(&store, 0).last_thread(), thread::current().id());
        // The helper survived its job's panic and takes the next group.
        store.apply_batch(&split_batch(1)).unwrap();
        assert_eq!(store.split_applies(), 2);
        assert_ne!(probe(&store, 0).last_thread(), thread::current().id());
        assert_eq!(store.get(first_of(0, 1)), Some(8));
    })
    .expect("apply after a helper panic: did not finish");
}

#[test]
fn dropping_the_store_joins_a_spinning_helper() {
    within(|| {
        let store = latched_store();
        store.apply_batch(&split_batch(0)).unwrap();
        let watch = store.helper.get().unwrap().as_ref().unwrap().watch();
        drop(store);
        assert!(watch.upgrade().is_none(), "helper outlived its store");
    })
    .expect("drop with a spinning helper: did not finish");
}

#[test]
fn dropping_the_store_joins_a_parked_helper() {
    within(|| {
        let store = latched_store();
        store.apply_batch(&split_batch(0)).unwrap();
        let helper = store.helper.get().unwrap().as_ref().unwrap();
        while !helper.parked() {
            thread::sleep(Duration::from_millis(1));
        }
        let watch = helper.watch();
        drop(store);
        assert!(watch.upgrade().is_none(), "helper outlived its store");
    })
    .expect("drop with a parked helper: did not finish");
}

#[test]
fn a_store_that_never_splits_never_spawns_a_helper() {
    let many: Vec<BatchOp> = keys_of(0, 1).take(64).map(|k| BatchOp::Put(k, k)).collect();
    let single = ShardedStore::from_indexes(vec![tree()], Partitioning::Hash { shards: 1 });
    single.apply_batch(&many).unwrap();

    let pair = ShardedStore::from_indexes(vec![tree(), tree()], PAIR);
    pair.apply_batch(&many).unwrap(); // all in shard 0
    let mut lopsided = many.clone();
    lopsided.extend(
        keys_of(1, 1)
            .take(MIN_SPLIT - 1)
            .map(|k| BatchOp::Put(k, 1)),
    );
    pair.apply_batch_prev(&lopsided, &mut Vec::new()).unwrap();

    for store in [&single, &pair] {
        assert_eq!(store.split_applies(), 0);
        assert!(store.helper.get().is_none(), "a helper was started");
    }
    assert_eq!(pair.len(), 64 + MIN_SPLIT - 1);
}

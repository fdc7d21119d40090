//! Crash-atomicity sweep for **group commit**: many clients' write
//! batches staged into ONE `TxnEngine::commit_grouped` call, crashed at
//! every store of the commit, recovered, and held to two contracts:
//!
//! * **per-client all-or-nothing** — each client's batch lands with all
//!   of its keys (exact values) or none of them, at every cut under
//!   every eviction policy;
//! * **group atomicity** — the group shares one commit word, so the
//!   sweep must observe exactly two states: no client's writes, or
//!   every client's writes. A cut may never split the group.
//!
//! The group is replayed **exactly once**: recovery retires the journal
//! (`pending()` false) and a second `recover` replays zero entries.
//!
//! The sweep drives `commit_grouped` directly (single-threaded, so the
//! crash log totally orders the stores) against the same
//! `ShardedStore` + engine layout the service's workers use; a separate
//! live test crashes *under* a running `Service` and recovers what the
//! workers actually committed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastfair::FastFairTree;
use pmem::crash::{Event, Eviction};
use pmem::{Pool, PoolConfig};
use pmindex::PmIndex;
use service::{Service, ServiceConfig};
use shard::{Partitioning, ShardedStore};
use txn::{TxnEngine, WriteBatch};

const POOL: usize = 8 << 20;
const SHARDS: usize = 2;

fn crash_pool() -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap())
}

fn crash_store(pool: &Arc<Pool>) -> ShardedStore<FastFairTree> {
    ShardedStore::create(
        Arc::clone(pool),
        vec![Arc::clone(pool); SHARDS],
        Partitioning::Hash { shards: SHARDS },
    )
    .unwrap()
}

/// Three clients' worth of writes for one group: a TPC-C Payment
/// history trio, a 2-key transfer, and a single put — keys disjoint.
fn client_batches() -> Vec<Vec<(u64, u64)>> {
    vec![
        tpcc::payment_history_writes(9, 42, 1000, -2500).to_vec(),
        vec![(7_001, 71), (7_002, 72)],
        vec![(9_001, 91)],
    ]
}

fn as_write_batches(clients: &[Vec<(u64, u64)>]) -> Vec<WriteBatch> {
    clients
        .iter()
        .map(|writes| {
            let mut b = WriteBatch::new();
            for &(k, v) in writes {
                b.put(0, k, v);
            }
            b
        })
        .collect()
}

/// How many of `writes` survived, insisting present keys are exact.
fn survivors(get: impl Fn(u64) -> Option<u64>, writes: &[(u64, u64)], ctx: &str) -> usize {
    let mut n = 0;
    for &(k, v) in writes {
        if let Some(got) = get(k) {
            assert_eq!(got, v, "{ctx}: key {k} has torn value");
            n += 1;
        }
    }
    n
}

#[test]
fn grouped_commit_crash_sweep_is_atomic_per_client_and_per_group() {
    let pool = crash_pool();
    let store = crash_store(&pool);
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();

    // Durable context outside the sweep: pre-group keys that must
    // survive every cut, plus one committed group so the swept commit
    // is not the journal's first.
    for k in [500_000u64, 600_000] {
        store.insert(k, k + 1).unwrap();
    }
    let mut warmup = WriteBatch::new();
    warmup.put(0, 700_000, 700_001);
    engine
        .commit_grouped(std::slice::from_ref(&warmup), &[&store])
        .unwrap();

    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    // The swept operation: THREE clients' batches, one commit.
    let clients = client_batches();
    let batches = as_write_batches(&clients);
    assert_eq!(engine.commit_grouped(&batches, &[&store]).unwrap(), 2);

    let total = log.len();
    assert!(total > 10, "group commit should emit a rich event stream");
    let mut group_outcomes = BTreeSet::new();
    for cut in 0..=total {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(cut as u64),
        ] {
            let ctx = format!("cut {cut}/{total} {policy:?}");
            let img = pool.crash_image(cut, policy);
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
            let s2: ShardedStore<FastFairTree> =
                ShardedStore::open(Arc::clone(&p2), vec![Arc::clone(&p2); SHARDS])
                    .unwrap_or_else(|e| panic!("{ctx}: store open failed: {e}"));
            let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
            e2.recover(&[&s2]).unwrap();

            // Per-client all-or-nothing, and all clients agree.
            let mut per_client = BTreeSet::new();
            for (i, writes) in clients.iter().enumerate() {
                let n = survivors(|k| s2.get(k), writes, &ctx);
                assert!(
                    n == 0 || n == writes.len(),
                    "{ctx}: client {i} torn — {n}/{} keys",
                    writes.len()
                );
                per_client.insert(n != 0);
            }
            assert_eq!(
                per_client.len(),
                1,
                "{ctx}: group split across clients — some landed, some did not"
            );
            let landed = per_client.contains(&true);
            // The single commit word decides the whole group.
            match e2.last_committed() {
                1 => assert!(!landed, "{ctx}: uncommitted group leaked writes"),
                2 => assert!(landed, "{ctx}: committed group lost writes"),
                s => panic!("{ctx}: impossible sequence {s}"),
            }
            group_outcomes.insert(landed);

            // Context committed before the baseline is never disturbed.
            for k in [500_000u64, 600_000, 700_000] {
                assert_eq!(s2.get(k), Some(k + 1), "{ctx}: context key {k}");
            }
            // Replayed exactly once: journal clean, second recover idle.
            assert!(!e2.pending(), "{ctx}: journal still pending");
            assert_eq!(
                e2.recover(&[&s2]).unwrap(),
                0,
                "{ctx}: recover not idempotent"
            );
        }
    }
    assert_eq!(
        group_outcomes,
        BTreeSet::from([false, true]),
        "sweep should observe both the no-client and the every-client outcome"
    );
}

/// Commits one group that *overwrites* every client's keys (its apply is
/// all in-place stores) and returns the pool and the commit's event log.
/// With `warm_hints` both shards' leaf directories are built first, so every
/// apply is directed.
fn record_group_rewrite(warm_hints: bool) -> (Arc<Pool>, Vec<Event>) {
    let pool = crash_pool();
    let store = crash_store(&pool);
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
    let clients = client_batches();
    for &(k, v) in clients.iter().flatten() {
        store.insert(k, v + 2).unwrap();
    }
    let mut warmup = WriteBatch::new();
    warmup.put(0, 700_000, 700_001);
    engine
        .commit_grouped(std::slice::from_ref(&warmup), &[&store])
        .unwrap();
    if warm_hints {
        // Each shard's tree builds its directory after a few thousand point
        // ops; reads store nothing, so both runs share one baseline.
        for _ in 0..5_000 {
            for &(k, _) in clients.iter().flatten() {
                assert!(store.get(k).is_some());
            }
        }
    }
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());
    let hits = pmem::stats::snapshot().leaf_hint_hits;
    let batches = as_write_batches(&clients);
    assert_eq!(engine.commit_grouped(&batches, &[&store]).unwrap(), 2);
    let hinted = pmem::stats::snapshot().leaf_hint_hits - hits;
    assert_eq!(hinted, if warm_hints { 6 } else { 0 }, "directed applies");
    (Arc::clone(&pool), log.events())
}

/// Splits a group rewrite's event log into the journal's events and each
/// shard tree's, each in log order. A split group apply runs the two shards
/// on two threads, so only the order *within* each of these is fixed. An
/// event is the journal's when it falls in the journal region's staged
/// lines, and a shard's when it touches a line on which the apply stored
/// one of that shard's new values; any other event fails the test.
fn per_owner(pool: &Pool, events: &[Event]) -> Vec<Vec<Event>> {
    const LINE: u64 = 64;
    let clients = client_batches();
    let journal = pmem::CommitCell::JOURNAL.load(pool);
    // Header words, then four words per staged entry.
    let staged = journal..journal + 40 + 32 * clients.iter().flatten().count() as u64;
    let in_journal = |line: u64| line < staged.end && line + LINE > staged.start;
    let routing = Partitioning::Hash { shards: SHARDS };
    let mut shard_of_line = BTreeMap::new();
    for event in events {
        if let Event::Store { off, val } = *event {
            if let Some(&(k, _)) = clients.iter().flatten().find(|&&(_, v)| v == val) {
                if !staged.contains(&off) {
                    shard_of_line.insert(off - off % LINE, routing.shard_of(k));
                }
            }
        }
    }
    let mut owners = vec![Vec::new(); 1 + SHARDS];
    for event in events {
        let line = match *event {
            Event::Store { off, .. } => off - off % LINE,
            Event::FlushLine { line } => line,
        };
        let owner = if in_journal(line) {
            0
        } else {
            match shard_of_line.get(&line) {
                Some(shard) => 1 + shard,
                None => panic!("{event:?} touches neither the journal nor a rewritten leaf"),
            }
        };
        owners[owner].push(*event);
    }
    owners
}

/// The group apply's directed overwrites are the descent's own stores and
/// flushes: warm directories change nothing in the journal's events or in
/// either shard tree's, so the sweep enumerates the same images — and every
/// one of them recovers to the whole group's old rows or the whole group's
/// new ones. (The whole log is not compared: the two shards' applies run
/// on two threads and interleave by timing.)
#[test]
fn grouped_rewrite_with_warm_hints_enumerates_the_same_images() {
    let (cold_pool, cold) = record_group_rewrite(false);
    let (pool, warm) = record_group_rewrite(true);
    let cold_owners = per_owner(&cold_pool, &cold);
    assert!(cold_owners.iter().all(|e| !e.is_empty()), "{cold_owners:?}");
    for (owner, (w, c)) in per_owner(&pool, &warm).iter().zip(&cold_owners).enumerate() {
        let who = match owner {
            0 => "journal".to_string(),
            shard => format!("shard {}", shard - 1),
        };
        assert_eq!(w, c, "directed applies logged different {who} events");
    }
    let clients = client_batches();
    let mut outcomes = BTreeSet::new();
    for cut in 0..=warm.len() {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(5000 + cut as u64),
        ] {
            let ctx = format!("cut {cut}/{} {policy:?}", warm.len());
            let img = pool.crash_image(cut, policy);
            let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
            let s2: ShardedStore<FastFairTree> =
                ShardedStore::open(Arc::clone(&p2), vec![Arc::clone(&p2); SHARDS]).unwrap();
            let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
            e2.recover(&[&s2]).unwrap();
            let new_rows = clients
                .iter()
                .flatten()
                .filter(|&&(k, v)| match s2.get(k) {
                    Some(got) if got == v => true,
                    Some(got) if got == v + 2 => false,
                    got => panic!("{ctx}: key {k} reads {got:?}"),
                })
                .count();
            assert!(
                new_rows == 0 || new_rows == 6,
                "{ctx}: group split — {new_rows}/6"
            );
            assert_eq!(new_rows == 6, e2.last_committed() == 2, "{ctx}");
            outcomes.insert(new_rows);
            assert!(!e2.pending(), "{ctx}: journal still pending");
        }
    }
    assert_eq!(outcomes, BTreeSet::from([0, 6]));
}

/// Crash under a live `Service`: acknowledged writes must survive the
/// crash image taken after shutdown (acks imply durability), and
/// recovery finds a clean journal.
#[test]
fn acknowledged_service_writes_survive_a_crash() {
    let pool = crash_pool();
    let store = Arc::new(crash_store(&pool));
    let engine = Arc::new(TxnEngine::create(Arc::clone(&pool)).unwrap());
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    let acked: Vec<(u64, u64)> = {
        let service = Service::with_engine(
            vec![Arc::clone(&store)],
            Arc::clone(&engine),
            ServiceConfig {
                lanes: 2,
                affinity: Some(store.partitioning().clone()),
                ..ServiceConfig::default()
            },
        );
        let client = service.handle();
        // Forty fresh inserts, then an upsert of every other key, all
        // pipelined: each ack must also carry the value it replaced.
        let writes = (1..=40u64)
            .map(|k| (k, k * 10))
            .chain((2..=40u64).step_by(2).map(|k| (k, k * 10 + 1)));
        let tickets: Vec<_> = writes
            .map(|(k, v)| (k, v, client.submit_insert(k, v).unwrap()))
            .collect();
        let mut model = BTreeMap::new();
        for (k, v, t) in tickets {
            assert_eq!(t.wait().unwrap(), model.insert(k, v), "ack of {k} → {v}");
        }
        model.into_iter().collect()
        // Service drops here: queues drain, workers join.
    };
    assert_eq!(acked.len(), 40);

    // Crash at the END of the log (power loss after the last ack) under
    // every eviction policy: acknowledged writes are durable by then.
    let total = log.len();
    for policy in [Eviction::None, Eviction::All, Eviction::random_with_env(7)] {
        let ctx = format!("post-ack crash {policy:?}");
        let img = pool.crash_image(total, policy);
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
        let s2: ShardedStore<FastFairTree> =
            ShardedStore::open(Arc::clone(&p2), vec![Arc::clone(&p2); SHARDS]).unwrap();
        let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
        e2.recover(&[&s2]).unwrap();
        for &(k, v) in &acked {
            assert_eq!(s2.get(k), Some(v), "{ctx}: acknowledged key {k} lost");
        }
        assert!(!e2.pending(), "{ctx}: journal not clean");
    }
}

/// A fixed history of synchronous writes — every one a commit group of
/// its own, so the crash log is the same from run to run — through a live
/// one-lane service over warm trees. With `readers`, two more clients
/// pipeline `get`s throughout: the lane is backlogged, and the reads of
/// quiet keys run on the clients' own threads, beside the worker's stores.
/// Returns the pool, the history's event log and how many reads ran inline.
fn record_service_history(readers: bool) -> (Arc<Pool>, Vec<pmem::crash::Event>, u64) {
    let pool = crash_pool();
    let store = Arc::new(crash_store(&pool));
    let engine = Arc::new(TxnEngine::create(Arc::clone(&pool)).unwrap());
    for k in 1..=400u64 {
        store.insert(k * 10, k).unwrap();
    }
    for _ in 0..30 {
        for k in 1..=400u64 {
            assert_eq!(store.get(k * 10), Some(k));
        }
    }
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    let service = Service::with_engine(
        vec![Arc::clone(&store)],
        engine,
        ServiceConfig {
            lanes: 1,
            ..ServiceConfig::default()
        },
    );
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for r in 0..2 * usize::from(readers) {
            let (client, done) = (service.handle(), &done);
            s.spawn(move || {
                // Keys the history never writes (it stays at or below 2 005).
                let mut window = VecDeque::new();
                for k in (201 + r as u64..=400).cycle() {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    if window.len() == 8 {
                        let (k, t): (u64, service::Ticket<_>) = window.pop_front().unwrap();
                        assert_eq!(t.wait().unwrap(), Some(k));
                    }
                    window.push_back((k, client.submit_get(k * 10).unwrap()));
                }
            });
        }
        let client = service.handle();
        // With readers, each step first waits (until a deadline) for one
        // more inline read, so that the reads interleave with the whole
        // history however quickly the trees serve it.
        let deadline = Instant::now() + Duration::from_secs(30);
        for k in 1..=200u64 {
            while readers && service.stats().inline_gets() < k && Instant::now() < deadline {
                std::thread::yield_now();
            }
            // A fresh key beside an old one (splits included), an in-place
            // overwrite, and a delete that empties no leaf.
            assert_eq!(client.insert(k * 10 + 5, k).unwrap(), None);
            assert_eq!(client.update(k * 10, k + 1).unwrap(), Some(k));
            if k % 4 == 0 {
                assert!(client.delete(k * 10 + 5).unwrap());
            }
            assert_eq!(client.get(k * 10).unwrap(), Some(k + 1));
        }
        done.store(true, Ordering::Relaxed);
    });
    let inline = service.stats().inline_gets();
    drop(service);
    (Arc::clone(&pool), log.events(), inline)
}

/// A read stores and flushes nothing, wherever it runs: the history's
/// event log with hundreds of inline reads beside it EQUALS the log
/// without them, so every crash sweep over the one enumerates the images
/// of the other — and the last image recovers to the history's end state.
#[test]
fn inline_reads_leave_the_event_log_as_it_was() {
    let (_, quiet, none) = record_service_history(false);
    let (pool, busy, inline) = record_service_history(true);
    assert_eq!(none, 0, "one synchronous client never backlogs its lane");
    assert!(inline > 100, "only {inline} reads ran inline");
    assert!(
        quiet.len() > 2_000,
        "the history should log a rich event stream"
    );
    assert!(busy == quiet, "inline reads changed what was stored");

    let img = pool.crash_image(busy.len(), Eviction::None);
    let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(POOL)).unwrap());
    let s2: ShardedStore<FastFairTree> =
        ShardedStore::open(Arc::clone(&p2), vec![Arc::clone(&p2); SHARDS]).unwrap();
    let e2 = TxnEngine::open(Arc::clone(&p2)).unwrap();
    assert_eq!(e2.recover(&[&s2]).unwrap(), 0);
    for k in 1..=200u64 {
        assert_eq!(s2.get(k * 10), Some(k + 1));
        assert_eq!(s2.get(k * 10 + 5), (k % 4 != 0).then_some(k));
    }
}

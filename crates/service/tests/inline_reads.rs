//! The inline `get` under load: several clients on few cores, reads taking
//! whichever route the rule picks for them, every answer held to what the
//! crate docs' "Reads" promise. The interleavings these tests hope for are
//! forced one at a time in `src/inline_tests.rs`; here the point is that
//! nothing else turns up when they all happen at once. CI runs this file
//! as two concurrent copies under `FF_EPOCH_STRESS=1`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fastfair::FastFairTree;
use pmem::{Pool, PoolConfig};
use pmindex::{PersistentIndex, PmIndex};
use service::{ClientHandle, Service, ServiceConfig, Ticket};
use shard::{Partitioning, ShardedStore};
use txn::TxnEngine;

type Store = ShardedStore<FastFairTree>;

fn rig(lanes: usize) -> (Arc<Store>, Service<Store>) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(32 << 20)).unwrap());
    let store: Arc<Store> = Arc::new(ShardedStore::from_indexes(
        (0..2)
            .map(|_| FastFairTree::create_in(Arc::clone(&pool)).unwrap())
            .collect(),
        Partitioning::Hash { shards: 2 },
    ));
    let engine = Arc::new(TxnEngine::create(pool).unwrap());
    let config = ServiceConfig {
        lanes,
        affinity: Some(store.partitioning().clone()),
        pin_domains: vec![Arc::clone(store.reclaim_domain())],
        ..ServiceConfig::default()
    };
    let service = Service::with_engine(vec![Arc::clone(&store)], engine, config);
    (store, service)
}

/// Pipelines `get`s of the keys in `keys` (never written while it runs,
/// each holding `key + 1`), `window` outstanding, until `stop`: keeps a
/// lane's worker in arrears, so other clients' reads find it backlogged.
fn keep_backlogged(c: &ClientHandle<Store>, keys: std::ops::Range<u64>, stop: &AtomicBool) {
    let mut window = VecDeque::new();
    for k in keys.cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if window.len() == 8 {
            let (k, t): (u64, Ticket<Option<u64>>) = window.pop_front().unwrap();
            assert_eq!(t.wait().unwrap(), Some(k + 1), "filler key {k}");
        }
        window.push_back((k, c.submit_get(k).unwrap()));
    }
    // Waits out its last requests too, so no filler `get` completes after
    // the caller has joined it and reads the service's counters.
    for (k, t) in window {
        assert_eq!(t.wait().unwrap(), Some(k + 1), "filler key {k}");
    }
}

enum Pending {
    Val(Ticket<Option<u64>>, Option<u64>),
    Flag(Ticket<bool>, bool),
}

impl Pending {
    fn matches(self) -> bool {
        match self {
            Pending::Val(t, want) => t.wait().unwrap() == want,
            Pending::Flag(t, want) => t.wait().unwrap() == want,
        }
    }
}

/// One client, sixteen requests outstanding, eight hot keys nobody else
/// writes: `insert → get → update → get → delete → get` per key, with a
/// read of a key written long ago mixed in, each reply checked against
/// the model computed at submission. A read submitted right behind its
/// key's write conflicts and queues; one of a key that has been quiet for
/// a window's length runs inline; both must see the client's own writes.
#[test]
fn own_writes_hot_key_streams_match_their_expectation() {
    const HOT: u64 = 8;
    const ROUNDS: u64 = 4_000;
    let (store, service) = rig(1);
    for k in 1_000..1_256u64 {
        store.insert(k, k + 1).unwrap();
    }
    let stop = AtomicBool::new(false);
    let mut failed = 0u64;
    std::thread::scope(|s| {
        for half in [1_000..1_128u64, 1_128..1_256] {
            let c = service.handle();
            let stop = &stop;
            s.spawn(move || keep_backlogged(&c, half, stop));
        }
        let c = service.handle();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut window: VecDeque<Pending> = VecDeque::new();
        for round in 0..ROUNDS {
            let (k, old, v) = (1 + round % HOT, 1 + (round + HOT / 2) % HOT, round * 2 + 1);
            for step in 0..8 {
                if window.len() == 16 {
                    failed += u64::from(!window.pop_front().unwrap().matches());
                }
                window.push_back(match step {
                    0 => Pending::Val(c.submit_insert(k, v).unwrap(), model.insert(k, v)),
                    2 => Pending::Val(c.submit_update(k, v + 1).unwrap(), model.insert(k, v + 1)),
                    5 => Pending::Flag(c.submit_delete(k).unwrap(), model.remove(&k).is_some()),
                    // A key written four rounds ago: long applied.
                    4 | 7 => Pending::Val(c.submit_get(old).unwrap(), model.get(&old).copied()),
                    // The key written one request ago.
                    _ => Pending::Val(c.submit_get(k).unwrap(), model.get(&k).copied()),
                });
            }
        }
        failed += window
            .into_iter()
            .map(|p| u64::from(!p.matches()))
            .sum::<u64>();
        stop.store(true, Ordering::Relaxed);
    });
    let stats = service.stats();
    assert_eq!(failed, 0, "replies that differ from the session's model");
    assert!(
        stats.inline_gets() > 0 && stats.conflict_gets() > 0,
        "both routes must have been taken: {} inline, {} conflicts, {} queued",
        stats.inline_gets(),
        stats.conflict_gets(),
        stats.queued_gets()
    );
    assert_eq!(
        stats.inline_gets() + stats.queued_gets(),
        stats.op(service::OpClass::Get).completed()
    );
    for k in 1..=HOT {
        assert_eq!(store.get(k), None, "every round ends with its key deleted");
    }
}

/// Counts a writer out when it ends — or fails: the readers run until the
/// writers are gone, and a failed assertion must end the test, not hang it.
struct Leaving<'a>(&'a AtomicU64);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// No stale read after an ack. Two writers each raise the values of their
/// own sixteen keys, four writes pipelined — the backlog — and publish
/// every value the service has acknowledged; two readers issue synchronous
/// `get`s behind it, most of them of keys that are quiet at that moment
/// (eight keys, as first planned, are never quiet under two pipelines: no
/// read ran inline). A reader must never be handed less than a value that
/// was acknowledged before it asked, nor less than it was handed before.
/// Each writer also reads its previous write back, pipelined behind the
/// next one — an ack always follows the apply, so only a session can catch
/// a slot released too early, and that is the half that fails when the
/// worker's `retire` is moved ahead of the commit.
#[test]
fn acked_writes_no_stale_read_after_an_ack() {
    const KEYS: usize = 32;
    const TOP: u64 = 800;
    let (store, service) = rig(2);
    for k in 0..KEYS as u64 {
        store.insert(k, 1).unwrap();
    }
    let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(1)).collect();
    let writers_left = AtomicU64::new(2);
    std::thread::scope(|s| {
        for w in 0..2usize {
            let c = service.handle();
            let (acked, writers_left) = (&acked, &writers_left);
            s.spawn(move || {
                let _leaving = Leaving(writers_left);
                let mut window = VecDeque::new();
                let settle = |(k, v, write, back, read): (usize, _, Ticket<_>, _, Ticket<_>)| {
                    assert_eq!(write.wait().unwrap(), Some(v - 1), "key {k}: replaced");
                    acked[k].fetch_max(v, Ordering::SeqCst);
                    assert_eq!(
                        read.wait().unwrap(),
                        Some(back),
                        "own write before key {k}'s"
                    );
                };
                let mine = w * KEYS / 2..(w + 1) * KEYS / 2;
                for v in 2..=TOP {
                    for k in mine.clone() {
                        if window.len() == 4 {
                            settle(window.pop_front().unwrap());
                        }
                        let write = c.submit_insert(k as u64, v).unwrap();
                        // Read back the write before this one: submitted a
                        // moment ago, probably in a worker's hands by now.
                        let (prev, back) = match k == mine.start {
                            true => (mine.end - 1, v - 1),
                            false => (k - 1, v),
                        };
                        let read = c.submit_get(prev as u64).unwrap();
                        window.push_back((k, v, write, back, read));
                    }
                }
                window.into_iter().for_each(settle);
            });
        }
        for r in 0..2usize {
            let c = service.handle();
            let (acked, writers_left) = (&acked, &writers_left);
            s.spawn(move || {
                let mut seen = [1u64; KEYS];
                let mut k = r;
                while writers_left.load(Ordering::SeqCst) > 0 {
                    k = (k + 7) % KEYS;
                    let floor = acked[k].load(Ordering::SeqCst).max(seen[k]);
                    let got = c.get(k as u64).unwrap().expect("never deleted");
                    assert!(
                        got >= floor,
                        "reader {r}, key {k}: read {got} after {} was acknowledged and {} was read",
                        acked[k].load(Ordering::SeqCst),
                        seen[k]
                    );
                    seen[k] = got;
                }
            });
        }
    });
    let stats = service.stats();
    assert!(
        stats.inline_gets() > 0,
        "no read ran inline ({} conflicts, {} queued): the test proved nothing",
        stats.conflict_gets(),
        stats.queued_gets()
    );
    for k in 0..KEYS as u64 {
        assert_eq!(store.get(k), Some(TOP));
    }
}

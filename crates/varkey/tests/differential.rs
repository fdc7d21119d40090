//! Differential testing of `VarKeyStore` against `BTreeMap<Vec<u8>, u64>`
//! over all five index backends (FAST+FAIR, wB+-tree, FP-tree, WORT and
//! the persistent skip list) plus sharded routers — hash partitioned and
//! range partitioned at byte-prefix split points. Every
//! backend must agree with the model (and therefore with every other
//! backend) on identical byte-key operation sequences.

use std::collections::BTreeMap;
use std::sync::Arc;

use pmem::{Pool, PoolConfig};
use pmindex::PmIndex;
use rand::prelude::*;
use rand::rngs::StdRng;
use varkey::codec::prefix_bound;
use varkey::{ByteCursor, VarKeyIndex, VarKeyStore};

fn all_stores(pool: &Arc<Pool>) -> Vec<Box<dyn VarKeyIndex>> {
    fn store<I: PmIndex + 'static>(idx: I, pool: &Arc<Pool>) -> Box<dyn VarKeyIndex> {
        Box::new(VarKeyStore::new(idx, Arc::clone(pool)))
    }
    vec![
        store(
            fastfair::FastFairTree::create(Arc::clone(pool), fastfair::TreeOptions::new()).unwrap(),
            pool,
        ),
        store(wbtree::WbTree::create(Arc::clone(pool)).unwrap(), pool),
        store(fptree::FpTree::create(Arc::clone(pool)).unwrap(), pool),
        store(wort::Wort::create(Arc::clone(pool)).unwrap(), pool),
        store(
            pskiplist::PSkipList::create(Arc::clone(pool)).unwrap(),
            pool,
        ),
        // Sharded routers compose transparently under the adapter.
        store(
            shard::ShardedStore::<fastfair::FastFairTree>::create(
                Arc::clone(pool),
                vec![Arc::clone(pool); 4],
                shard::Partitioning::Hash { shards: 4 },
            )
            .unwrap(),
            pool,
        ),
        store(
            shard::ShardedStore::<fastfair::FastFairTree>::create(
                Arc::clone(pool),
                vec![Arc::clone(pool); 3],
                shard::Partitioning::Range {
                    // Byte-prefix split points: keys < "g" / ["g", "p") /
                    // >= "p", at chunk granularity.
                    bounds: vec![prefix_bound(b"g"), prefix_bound(b"p")],
                },
            )
            .unwrap(),
            pool,
        ),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Update(Vec<u8>),
    Remove(Vec<u8>),
    Get(Vec<u8>),
    Range(Vec<u8>, Vec<u8>),
    CursorScan(Vec<u8>, Vec<u8>),
}

/// Random byte keys, 0–20 bytes over a 6-letter alphabet: short enough
/// for inline keys, collision-heavy enough that overflow chains grow
/// long shared prefixes.
fn random_key(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..21usize);
    (0..len)
        .map(|_| b"acgptz"[rng.gen_range(0..6usize)])
        .collect()
}

fn random_ops(n: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = random_key(&mut rng);
            match rng.gen_range(0..12) {
                0..=4 => Op::Insert(k),
                5 => Op::Update(k),
                6..=7 => Op::Remove(k),
                8..=9 => Op::Get(k),
                10 => {
                    let mut hi = k.clone();
                    hi.extend_from_slice(b"zzz");
                    Op::Range(k, hi)
                }
                _ => {
                    let mut hi = k.clone();
                    hi.extend_from_slice(b"ttt");
                    Op::CursorScan(k, hi)
                }
            }
        })
        .collect()
}

fn apply(store: &dyn VarKeyIndex, model: &mut BTreeMap<Vec<u8>, u64>, ops: &[Op]) {
    let mut next_value = 0x1000u64;
    for op in ops {
        match op {
            Op::Insert(k) => {
                next_value += 8;
                assert_eq!(
                    store.insert(k, next_value).unwrap(),
                    model.insert(k.clone(), next_value),
                    "{}: insert {k:?}",
                    store.name()
                );
            }
            Op::Update(k) => {
                next_value += 8;
                let want = model
                    .get_mut(k)
                    .map(|slot| std::mem::replace(slot, next_value));
                assert_eq!(
                    store.update(k, next_value).unwrap(),
                    want,
                    "{}: update {k:?}",
                    store.name()
                );
            }
            Op::Remove(k) => {
                assert_eq!(
                    store.remove(k),
                    model.remove(k).is_some(),
                    "{}: remove {k:?}",
                    store.name()
                );
            }
            Op::Get(k) => {
                assert_eq!(
                    store.get(k),
                    model.get(k).copied(),
                    "{}: get {k:?}",
                    store.name()
                );
            }
            Op::Range(lo, hi) => {
                let mut got = Vec::new();
                store.range(lo, hi, &mut got);
                let want: Vec<(Vec<u8>, u64)> = model
                    .range(lo.clone()..hi.clone())
                    .map(|(k, &v)| (k.clone(), v))
                    .collect();
                assert_eq!(got, want, "{}: range [{lo:?}, {hi:?})", store.name());
            }
            Op::CursorScan(lo, hi) => {
                let mut got = Vec::new();
                let mut c = store.cursor();
                c.seek(lo);
                while let Some((k, v)) = c.next() {
                    if k.as_slice() >= hi.as_slice() {
                        break;
                    }
                    got.push((k, v));
                }
                let want: Vec<(Vec<u8>, u64)> = model
                    .range(lo.clone()..hi.clone())
                    .map(|(k, &v)| (k.clone(), v))
                    .collect();
                assert_eq!(got, want, "{}: cursor [{lo:?}, {hi:?})", store.name());
            }
        }
    }
}

#[test]
fn all_backends_agree_with_byte_key_model() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).unwrap());
    let ops = random_ops(3000, 0xfeed_beef);
    for store in all_stores(&pool) {
        let mut model = BTreeMap::new();
        apply(store.as_ref(), &mut model, &ops);
        // Final full-content comparison through an unbounded cursor.
        let mut got = Vec::new();
        let mut c = store.cursor();
        while let Some(e) = c.next() {
            got.push(e);
        }
        let want: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, &v)| (k.clone(), v)).collect();
        assert_eq!(got, want, "{}: final content", store.name());
        assert_eq!(store.len(), model.len(), "{}: len", store.name());
    }
}

#[test]
fn bulk_load_then_scan_identical_across_backends() {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).unwrap());
    let mut rng = StdRng::seed_from_u64(42);
    let mut items: Vec<(Vec<u8>, u64)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while items.len() < 4000 {
        let k = random_key(&mut rng);
        if seen.insert(k.clone()) {
            let v = items.len() as u64 * 8 + 0x2000;
            items.push((k, v));
        }
    }
    let mut reference: Option<Vec<(Vec<u8>, u64)>> = None;
    for store in all_stores(&pool) {
        let fresh = store.bulk_load(&mut items.clone().into_iter()).unwrap();
        assert_eq!(fresh, items.len(), "{}: bulk count", store.name());
        let mut got = Vec::new();
        let mut c = store.cursor();
        while let Some(e) = c.next() {
            got.push(e);
        }
        assert_eq!(got.len(), items.len(), "{}: bulk len", store.name());
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{} diverges", store.name()),
        }
    }
}

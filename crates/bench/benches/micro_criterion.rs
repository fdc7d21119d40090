//! Criterion micro-benchmarks of the core FAST+FAIR operations at DRAM
//! latency: per-op cost of insert, point lookup, delete and a 100-key
//! range scan. Complements the figure benches with statistically sampled
//! numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use fastfair::{FastFairTree, TreeOptions};
use pmem::{Pool, PoolConfig};
use pmindex::workload::{generate_keys, value_for, KeyDist};
use pmindex::PmIndex;
use std::sync::Arc;

fn setup(n: usize) -> (Arc<Pool>, FastFairTree, Vec<u64>) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).expect("pool"));
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).expect("tree");
    let keys = generate_keys(n, KeyDist::Uniform, 77);
    for &k in &keys {
        tree.insert(k, value_for(k)).expect("insert");
    }
    (pool, tree, keys)
}

fn bench_ops(c: &mut Criterion) {
    let (_pool, tree, keys) = setup(200_000);
    let mut i = 0usize;

    c.bench_function("fastfair/get", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            std::hint::black_box(tree.get(keys[i]))
        })
    });

    let fresh = generate_keys(2_000_000, KeyDist::Uniform, 78);
    let mut j = 0usize;
    c.bench_function("fastfair/insert", |b| {
        b.iter(|| {
            j += 1;
            tree.insert(fresh[j % fresh.len()], 12345).expect("insert");
        })
    });

    c.bench_function("fastfair/range100", |b| {
        let mut out = Vec::with_capacity(128);
        b.iter(|| {
            i = (i + 1) % keys.len();
            out.clear();
            tree.range(keys[i], keys[i].saturating_add(1 << 48), &mut out);
            std::hint::black_box(out.len())
        })
    });

    c.bench_function("fastfair/remove+reinsert", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            let k = keys[i];
            tree.remove(k);
            tree.insert(k, value_for(k)).expect("insert");
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ops
}
criterion_main!(benches);

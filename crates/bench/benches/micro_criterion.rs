//! Criterion micro-benchmarks of the core FAST+FAIR operations at DRAM
//! latency: per-op cost of insert, point lookup, delete and a 100-key
//! range scan, plus per-layout-variant groups isolating the fingerprint
//! lever — probe latency (fingerprints skip key lines on misses) and the
//! write cost of keeping the fingerprint array in step with every shift.
//! Complements the figure benches with statistically sampled numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use fastfair::{FastFairTree, TreeOptions};
use pmem::{Pool, PoolConfig};
use pmindex::workload::{generate_keys, value_for, KeyDist};
use pmindex::PmIndex;
use std::sync::Arc;

fn setup_with(n: usize, opts: TreeOptions) -> (Arc<Pool>, FastFairTree, Vec<u64>) {
    let pool = Arc::new(Pool::new(PoolConfig::new().size(512 << 20)).expect("pool"));
    let tree = FastFairTree::create(Arc::clone(&pool), opts).expect("tree");
    let keys = generate_keys(n, KeyDist::Uniform, 77);
    for &k in &keys {
        tree.insert(k, value_for(k)).expect("insert");
    }
    (pool, tree, keys)
}

fn setup(n: usize) -> (Arc<Pool>, FastFairTree, Vec<u64>) {
    setup_with(n, TreeOptions::new())
}

/// The Fig. 8 ablation axis: the baseline and fingerprinted leaves, at a
/// node size large enough (1 KiB) for the probe cut to dominate the
/// fingerprint line it pays for.
fn variants() -> [(&'static str, TreeOptions); 2] {
    let ns = |o: TreeOptions| o.node_size(1024);
    [
        ("base", ns(TreeOptions::new())),
        ("fp", ns(TreeOptions::new().fingerprints(true))),
    ]
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

/// Probe latency per variant: uniform point lookups in a preloaded tree.
/// Fingerprinted leaves touch the fp line plus only fp-matching key
/// lines; the baseline linearly scans half the leaf on average.
fn bench_variant_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe");
    for (name, opts) in variants() {
        let (_pool, tree, keys) = setup_with(100_000, opts);
        let mut i = 0usize;
        g.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % keys.len();
                std::hint::black_box(tree.get(keys[i]))
            })
        });
    }
    g.finish();
}

/// Shift cost per variant: delete + reinsert of uniform keys, so every op
/// lands at a uniformly distributed slot and pays a mean shift of N/2
/// records; fingerprinted leaves also move one fingerprint byte per
/// record and break and re-arm their seal around each shift.
fn bench_variant_shift(c: &mut Criterion) {
    let mut g = c.benchmark_group("shift");
    for (name, opts) in variants() {
        let (_pool, tree, keys) = setup_with(100_000, opts);
        let mut i = 0usize;
        g.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % keys.len();
                let k = keys[i];
                tree.remove(k);
                tree.insert(k, value_for(k)).expect("insert");
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ops, bench_variant_probe, bench_variant_shift
}
criterion_main!(benches);

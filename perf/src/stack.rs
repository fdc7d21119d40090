//! Builds the program's layers the way every workload uses them. This is
//! the benchmark's fixed configuration: 300 ns symmetric PM latency (the
//! paper's Fig. 4/6 baseline), TSO fences, 512-byte nodes, default
//! `TreeOptions`, flush coalescing at its default.

use std::sync::Arc;
use std::time::Duration;

use fastfair::{FastFairTree, TreeOptions};
use pmem::{LatencyProfile, PmOffset, Pool, PoolConfig};
use pmindex::PmIndex;
use service::{Admission, Service, ServiceConfig};
use shard::{Partitioning, ShardedStore};
use txn::TxnEngine;

use crate::gen::Plan;
use crate::trace::{Layer, Traced, Tracer};

pub const SHARDS: usize = 2;

pub fn pool_config(bytes: usize) -> PoolConfig {
    PoolConfig::new()
        .size(bytes)
        .latency(LatencyProfile::symmetric(300))
}

/// Room for `keys` keys however the inserts split their leaves, plus the
/// journal and slack.
pub fn pool_for(keys: usize) -> Arc<Pool> {
    Arc::new(Pool::new(pool_config(keys * 64 + (8 << 20))).expect("pool"))
}

/// How a run sees each layer: bare (untraced runs — nothing of the
/// benchmark's sits between the layers) or behind a [`Traced`] seam.
pub trait Seam {
    type Out<I: PmIndex + 'static>: PmIndex + 'static;
    fn wrap<I: PmIndex + 'static>(&self, inner: I, layer: Layer) -> Self::Out<I>;
}

pub struct Bare;

impl Seam for Bare {
    type Out<I: PmIndex + 'static> = I;
    fn wrap<I: PmIndex + 'static>(&self, inner: I, _: Layer) -> I {
        inner
    }
}

impl Seam for Arc<Tracer> {
    type Out<I: PmIndex + 'static> = Traced<I>;
    fn wrap<I: PmIndex + 'static>(&self, inner: I, layer: Layer) -> Traced<I> {
        Traced::new(inner, layer, self)
    }
}

pub type Tree<S> = <S as Seam>::Out<FastFairTree>;
pub type Store<S> = <S as Seam>::Out<ShardedStore<Tree<S>>>;

/// A built, preloaded store and what the benchmark keeps to observe it
/// from outside once the layers own it.
pub struct Rig<I> {
    pub pool: Arc<Pool>,
    pub index: Arc<I>,
    /// Reclamation domain of each tree.
    pub domains: Vec<Arc<epoch::EpochDomain>>,
    /// Superblock of each tree.
    metas: Vec<PmOffset>,
    /// The router's partitioning and reclamation domain (sharded rigs).
    pub routing: Option<(Partitioning, Arc<epoch::EpochDomain>)>,
}

impl<I> Rig<I> {
    /// Height of the tallest tree, read through a second handle.
    pub fn height(&self) -> u32 {
        let open = |&meta| FastFairTree::open(Arc::clone(&self.pool), meta, TreeOptions::new());
        let heights = self.metas.iter().map(|m| open(m).expect("reopen").height());
        heights.max().expect("a rig has a tree")
    }
}

fn empty_tree(pool: &Arc<Pool>) -> FastFairTree {
    FastFairTree::create(Arc::clone(pool), TreeOptions::new()).expect("tree")
}

/// One preloaded tree — the `core` height.
pub fn tree_rig<S: Seam>(seam: &S, plan: &Plan) -> Rig<Tree<S>> {
    let pool = pool_for(plan.keys.len());
    let tree = empty_tree(&pool);
    tree.bulk_load(&mut plan.preload_items()).expect("preload");
    Rig {
        domains: vec![Arc::clone(tree.epoch())],
        metas: vec![tree.meta_offset()],
        index: Arc::new(seam.wrap(tree, Layer::Core)),
        routing: None,
        pool,
    }
}

/// Two hash shards of `FastFairTree` in one pool, preloaded — the `shard`
/// height, and the table under the `txn` and `service` heights.
pub fn store_rig<S: Seam>(seam: &S, plan: &Plan) -> Rig<Store<S>> {
    let pool = pool_for(plan.keys.len());
    let trees: Vec<FastFairTree> = (0..SHARDS).map(|_| empty_tree(&pool)).collect();
    let domains = trees.iter().map(|t| Arc::clone(t.epoch())).collect();
    let metas = trees.iter().map(FastFairTree::meta_offset).collect();
    let partitioning = Partitioning::Hash { shards: SHARDS };
    let store = ShardedStore::from_indexes(
        trees
            .into_iter()
            .map(|t| seam.wrap(t, Layer::Core))
            .collect(),
        partitioning.clone(),
    );
    store.bulk_load(&mut plan.preload_items()).expect("preload");
    Rig {
        routing: Some((partitioning, Arc::clone(store.reclaim_domain()))),
        index: Arc::new(seam.wrap(store, Layer::Shard)),
        domains,
        metas,
        pool,
    }
}

/// The service the `svc_*` workloads run: one lane, default group and
/// queue sizes, parked admission, lanes aligned with shards and the
/// store's reclamation domain pinned once per group — fig9's
/// configuration — committing through a fresh `TxnEngine` in the rig's
/// pool.
pub fn service<I: PmIndex + 'static>(rig: &Rig<I>) -> Service<I> {
    let (partitioning, reclaim) = rig.routing.clone().expect("a sharded rig");
    let engine = Arc::new(TxnEngine::create(Arc::clone(&rig.pool)).expect("engine"));
    let config = ServiceConfig {
        lanes: 1,
        admission: Admission::Park,
        affinity: Some(partitioning),
        pin_domains: vec![reclaim],
        ..ServiceConfig::default()
    };
    Service::with_engine(vec![Arc::clone(&rig.index)], engine, config)
}

/// The `restart` workload reboots a service a thousand times, and a
/// worker only notices shutdown when its idle wait times out: keep that
/// short. One lane, everything else default.
pub fn restart_service_config() -> ServiceConfig {
    ServiceConfig {
        lanes: 1,
        idle_timeout: Duration::from_millis(1),
        ..ServiceConfig::default()
    }
}

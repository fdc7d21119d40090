//! Persistent name→store registry: the piece that makes a multi-store
//! deployment *reopenable*.
//!
//! Every store in this workspace already knows how to recover itself —
//! [`pmindex::PersistentIndex::open_in`] re-opens a tree from its
//! superblock, [`txn::TxnEngine::open`] replays its journal — but each of
//! those entry points needs *coordinates* (a pool and an offset) that,
//! before this crate, lived only in the process that created the store. A
//! [`Catalog`] persists those coordinates under human-readable names in
//! a **root pool**, so a restarted process can ask for `"orders"` and
//! get its tree back. A sharded deployment is nothing but coordinates —
//! each shard's pool and superblock — so it is one entry too, and
//! [`Catalog::open_sharded`] rebuilds it:
//!
//! ```text
//! root pool header ──CommitCell::CATALOG──▶ catalog record
//!                                             "history" → StoreKind B
//!                                             "orders"  → StoreKind A
//! ```
//!
//! The whole registry is **one** immutable, checksummed
//! [`CommitCell::CATALOG`] record ([`CommitCell::publish_record`]).
//! [`Catalog::open`] decodes it once into a DRAM map that serves every
//! later read, and every mutation — [`Catalog::register`],
//! [`Catalog::update`], [`Catalog::remove`], [`Catalog::rename`] — writes
//! the whole new record to fresh space, persists it, and publishes it with
//! one failure-atomic 8-byte store, freeing the record it replaces. A
//! crash exposes the old registry or the new one, never a mixture, so
//! `open` replays nothing and writes nothing.
//!
//! The trade-off: each mutation rewrites O(names) words. That fits a
//! registry of tens of names, which is what a deployment holds.
//!
//! Record payload, in 8-byte words, one group per name in name order:
//!
//! ```text
//! name length in bytes, name bytes packed little-endian 8 per word,
//! kind tag (1 index, 4 txn, 5 sharded; 2 and 3 are retired and refused),
//! anchor (index: superblock offset; txn: 0, a pool header anchors it;
//!         sharded: 0, hash partitioning; 1 named a range-partitioned
//!         deployment and is retired and refused),
//! word count n, n words (index, txn: the fleet slot; sharded: each
//! shard's fleet slot and superblock in shard order)
//! ```
//!
//! Pools are identified by **fleet slot**: the position of the pool in
//! the `Vec<Arc<Pool>>` handed to [`Catalog::create`] /
//! [`Catalog::open`], with slot 0 always the root pool. A slot index is
//! the pool-emulation analogue of a pmem file path — the caller re-maps
//! the same files in the same order after a restart.
//!
//! See `ARCHITECTURE.md` ("Store lifecycle") for the full
//! create → serve → crash → reopen walkthrough.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{CommitCell, PmOffset, Pool, NULL_OFFSET};
use pmindex::{IndexError, PersistentIndex};
use shard::{Partitioning, ShardedStore};
use txn::TxnEngine;

/// `"FFCATREC"` — the magic of the catalog record.
const MAGIC: u64 = u64::from_le_bytes(*b"FFCATREC");

/// Kind tags: the first of a name's kind words.
const TAG_INDEX: u64 = 1;
/// Retired kinds, never reused, so a record that still holds one is
/// refused rather than misread: 2 named a byte-key store, 3 a sharded
/// store whose map was a separate shard-manifest record.
const TAG_VARKEY: u64 = 2;
const TAG_MANIFEST: u64 = 3;
const TAG_TXN: u64 = 4;
const TAG_SHARDED: u64 = 5;

/// A sharded entry's anchor word: its partitioning. Hash is the only one;
/// 1 named a range-partitioned deployment, retired and refused.
const PART_HASH: u64 = 0;
const PART_RETIRED_RANGE: u64 = 1;

type Names = BTreeMap<String, StoreKind>;

fn corrupt(what: &str) -> IndexError {
    IndexError::Unsupported(format!("catalog: {what}"))
}

/// The typed coordinates a catalog stores for one named store — enough
/// for the matching `open_*` entry point to recover it after a restart.
///
/// Pool references are **fleet slots**: indexes into the pool vector
/// handed to [`Catalog::open`] (slot 0 is the root pool). Offsets are
/// the stores' own recovery anchors ([`PersistentIndex::superblock`]; a
/// transaction engine's is an implicit pool-header slot).
///
/// ```
/// use catalog::StoreKind;
///
/// let kind = StoreKind::Index { pool: 1, superblock: 64 };
/// assert_eq!(kind, kind.clone());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreKind {
    /// A single fixed-key index (any [`PersistentIndex`] backend):
    /// reopened via [`Catalog::open_store`] from `superblock`.
    Index {
        /// Fleet slot of the pool holding the index.
        pool: usize,
        /// The index's [`PersistentIndex::superblock`] offset.
        superblock: PmOffset,
    },
    /// A sharded deployment: reopened via [`Catalog::open_sharded`],
    /// each shard from its superblock, with keys routed by
    /// [`Partitioning::Hash`] over `shards.len()` shards.
    Sharded {
        /// Each shard's fleet slot and [`PersistentIndex::superblock`],
        /// in shard order.
        shards: Vec<(usize, PmOffset)>,
    },
    /// A transaction engine: reopened via [`Catalog::open_txn`] from
    /// the journal in `pool`'s header slot.
    Txn {
        /// Fleet slot of the pool whose header slot holds the journal.
        pool: usize,
    },
}

impl StoreKind {
    /// The kind's tag, its anchor word and its counted words.
    fn parts(&self) -> (u64, u64, Vec<u64>) {
        match self {
            StoreKind::Index { pool, superblock } => (TAG_INDEX, *superblock, vec![*pool as u64]),
            StoreKind::Sharded { shards } => (
                TAG_SHARDED,
                PART_HASH,
                shards
                    .iter()
                    .flat_map(|&(slot, sb)| [slot as u64, sb])
                    .collect(),
            ),
            StoreKind::Txn { pool } => (TAG_TXN, 0, vec![*pool as u64]),
        }
    }

    /// Decodes one name's kind words; the refusal names what is wrong.
    fn from_parts(tag: u64, anchor: u64, words: &[u64]) -> Result<StoreKind, String> {
        match (tag, words) {
            (TAG_INDEX, &[pool]) => Ok(StoreKind::Index {
                pool: pool as usize,
                superblock: anchor,
            }),
            (TAG_TXN, &[pool]) => Ok(StoreKind::Txn {
                pool: pool as usize,
            }),
            (TAG_VARKEY, _) => Err(format!("retired kind {tag} (varkey byte-key store)")),
            (TAG_MANIFEST, _) => Err(format!(
                "retired kind {tag} (sharded store over a shard manifest)"
            )),
            // N shards take 2N words; no word at all is a map of no
            // shard, which `check` refuses by name.
            (TAG_SHARDED, _) => match anchor {
                PART_HASH if words.len().is_multiple_of(2) => Ok(StoreKind::Sharded {
                    shards: words
                        .chunks_exact(2)
                        .map(|w| (w[0] as usize, w[1]))
                        .collect(),
                }),
                PART_HASH => Err("a malformed kind".into()),
                PART_RETIRED_RANGE => Err(format!(
                    "retired partitioning kind {anchor} (range-partitioned deployment)"
                )),
                _ => Err(format!("unknown partitioning kind {anchor}")),
            },
            _ => Err("a malformed kind".into()),
        }
    }

    /// Refuses a kind that names a fleet slot outside a fleet of `fleet`
    /// pools, or a sharded map of no shard, which
    /// [`ShardedStore::from_indexes`] would reject.
    fn check(&self, fleet: usize) -> Result<(), IndexError> {
        let slots = match self {
            StoreKind::Index { pool, .. } | StoreKind::Txn { pool } => vec![*pool],
            StoreKind::Sharded { shards } if shards.is_empty() => {
                return Err(corrupt("sharded store names no shard"));
            }
            StoreKind::Sharded { shards } => shards.iter().map(|&(slot, _)| slot).collect(),
        };
        match slots.into_iter().find(|&slot| slot >= fleet) {
            Some(slot) => Err(corrupt(&format!(
                "record references fleet slot {slot} but the fleet has {fleet} pools"
            ))),
            None => Ok(()),
        }
    }
}

/// Splits `n` words off the front of a record payload.
fn take<'a>(words: &mut &'a [u64], n: u64) -> Result<&'a [u64], IndexError> {
    let (head, rest) = usize::try_from(n)
        .ok()
        .and_then(|n| words.split_at_checked(n))
        .ok_or_else(|| corrupt("record is truncated"))?;
    *words = rest;
    Ok(head)
}

/// A persistent name→store registry rooted in a pool fleet.
///
/// One catalog owns the [`CommitCell::CATALOG`] cell of its **root pool**
/// (fleet slot 0) and maps UTF-8 names to [`StoreKind`]s. Every mutation
/// commits the whole registry through one failure-atomic 8-byte store —
/// see the crate docs for the record.
///
/// ```
/// use std::sync::Arc;
/// use catalog::{Catalog, StoreKind};
/// use pmindex::{PersistentIndex, PmIndex};
///
/// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
/// let cat = Catalog::create(vec![Arc::clone(&root)])?;
/// let tree = fastfair::FastFairTree::create_in(Arc::clone(&root))?;
/// tree.insert(7, 70)?;
/// cat.register("orders", &StoreKind::Index { pool: 0, superblock: tree.superblock() })?;
///
/// let again: fastfair::FastFairTree = cat.open_store("orders")?;
/// assert_eq!(again.get(7), Some(70));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Catalog {
    pools: Vec<Arc<Pool>>,
    /// The registry as last committed. Its lock also serializes
    /// mutations, so the record a mutation builds is never stale.
    names: Mutex<Names>,
}

impl Catalog {
    /// Creates a fresh, empty catalog in `pools[0]` (the root pool) and
    /// publishes it in the pool header's catalog slot.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::Catalog;
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// assert_eq!(cat.len(), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `pools` is empty or the root pool
    /// already holds a catalog (use [`Catalog::open`]); pool exhaustion
    /// propagates.
    pub fn create(pools: Vec<Arc<Pool>>) -> Result<Catalog, IndexError> {
        let root = pools
            .first()
            .ok_or_else(|| corrupt("a catalog needs at least a root pool"))?;
        if CommitCell::CATALOG.load(root) != NULL_OFFSET {
            return Err(corrupt(
                "root pool already holds a catalog; use Catalog::open",
            ));
        }
        let cat = Catalog {
            pools,
            names: Mutex::new(Names::new()),
        };
        // Publishing the empty record is the commit: before it the pool
        // has no catalog, after it an empty one.
        cat.commit(&Names::new())?;
        Ok(cat)
    }

    /// Re-opens the catalog published in `pools[0]`'s header: reads and
    /// checks its one record (checksum and fleet-slot bounds) and decodes
    /// it into memory. Nothing is replayed and nothing is written — the
    /// registry analogue of the paper's instantaneous recovery.
    ///
    /// The caller must present the same pools in the same slot order as
    /// the fleet the catalog was created over (slot indexes are the
    /// emulation's stand-in for pmem file paths).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    /// use pmindex::{PersistentIndex, PmIndex};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![Arc::clone(&root)])?;
    /// let tree = fastfair::FastFairTree::create_in(Arc::clone(&root))?;
    /// tree.insert(1, 10)?;
    /// cat.register("kv", &StoreKind::Index { pool: 0, superblock: tree.superblock() })?;
    ///
    /// // "Restart": rebuild the pool from an image, then reopen by name.
    /// let image = root.volatile_image();
    /// let root2 = Arc::new(pmem::Pool::from_image(&image, pmem::PoolConfig::default())?);
    /// let cat2 = Catalog::open(vec![root2])?;
    /// let tree2: fastfair::FastFairTree = cat2.open_store("kv")?;
    /// assert_eq!(tree2.get(1), Some(10));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the root pool holds no catalog, the
    /// record fails validation (including a record in an older catalog
    /// format), or it references a fleet slot outside `pools`.
    pub fn open(pools: Vec<Arc<Pool>>) -> Result<Catalog, IndexError> {
        let root = pools
            .first()
            .ok_or_else(|| corrupt("a catalog needs at least a root pool"))?;
        let names = read(root, pools.len())?
            .ok_or_else(|| corrupt("root pool holds no catalog; use Catalog::create"))?;
        Ok(Catalog {
            pools,
            names: Mutex::new(names),
        })
    }

    /// The pool fleet this catalog resolves slot references against
    /// (slot 0 is the root pool).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::Catalog;
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// assert_eq!(cat.pools().len(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn pools(&self) -> &[Arc<Pool>] {
        &self.pools
    }

    /// The root pool (fleet slot 0) holding the catalog itself.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::Catalog;
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![Arc::clone(&root)])?;
    /// assert!(Arc::ptr_eq(cat.root(), &root));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn root(&self) -> &Arc<Pool> {
        &self.pools[0]
    }

    /// Number of named stores in the catalog.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// cat.register("a", &StoreKind::Txn { pool: 0 })?;
    /// assert_eq!(cat.len(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn len(&self) -> usize {
        self.names.lock().len()
    }

    /// `true` if no stores are registered.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::Catalog;
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// assert!(Catalog::create(vec![root])?.is_empty());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers `name → kind`: writes and persists the new registry
    /// record, then publishes it with one failure-atomic store. A crash
    /// leaves the name either absent or fully mapped — never in between.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// cat.register("journal", &StoreKind::Txn { pool: 0 })?;
    /// assert_eq!(cat.lookup("journal"), Some(StoreKind::Txn { pool: 0 }));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `name` is empty or already
    /// registered (use [`Catalog::update`] to repoint a live name), if
    /// `kind` references a fleet slot outside the pool fleet, or if it is
    /// a sharded map with no shard.
    pub fn register(&self, name: &str, kind: &StoreKind) -> Result<(), IndexError> {
        self.check(name, kind)?;
        // A failed mutation discards the copy it changed.
        self.mutate(|names| match names.insert(name.into(), kind.clone()) {
            Some(_) => Err(corrupt("name already registered; use Catalog::update")),
            None => Ok(()),
        })
    }

    /// Repoints an existing name at new coordinates — e.g. after an
    /// operator moved a store's pools to new slots. Commits exactly like
    /// [`Catalog::register`]: readers see the old or the new coordinates,
    /// never a mix.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// cat.register("t", &StoreKind::Txn { pool: 0 })?;
    /// cat.update("t", &StoreKind::Index { pool: 0, superblock: 64 })?;
    /// assert_eq!(cat.lookup("t"), Some(StoreKind::Index { pool: 0, superblock: 64 }));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the name is not registered, or
    /// `kind` is refused as [`Catalog::register`] refuses it.
    pub fn update(&self, name: &str, kind: &StoreKind) -> Result<(), IndexError> {
        self.check(name, kind)?;
        self.mutate(|names| match names.insert(name.into(), kind.clone()) {
            Some(_) => Ok(()),
            None => Err(corrupt("name not registered; use Catalog::register")),
        })
    }

    /// Unregisters `name`, returning whether it was removed: `false` if it
    /// was absent, or if the root pool had no room for the new record (the
    /// name then stays). Commits like [`Catalog::register`]; the store's
    /// data itself is untouched (drop its pools to reclaim it).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// cat.register("gone", &StoreKind::Txn { pool: 0 })?;
    /// assert!(cat.remove("gone"));
    /// assert!(!cat.remove("gone"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn remove(&self, name: &str) -> bool {
        self.mutate(|names| match names.remove(name) {
            Some(_) => Ok(()),
            None => Err(corrupt("name not registered")),
        })
        .is_ok()
    }

    /// Atomically renames a store: one record holds both names' states,
    /// so its one publish moves the mapping, and a crash anywhere inside
    /// `rename` resolves to the old mapping or the new one, never to both
    /// names or neither.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// cat.register("old", &StoreKind::Txn { pool: 0 })?;
    /// cat.rename("old", "new")?;
    /// assert_eq!(cat.lookup("old"), None);
    /// assert_eq!(cat.lookup("new"), Some(StoreKind::Txn { pool: 0 }));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `old` is unmapped, `new` is
    /// already mapped, or `new` is empty.
    pub fn rename(&self, old: &str, new: &str) -> Result<(), IndexError> {
        if new.is_empty() {
            return Err(corrupt("store names must be non-empty"));
        }
        self.mutate(|names| {
            if old != new && names.contains_key(new) {
                return Err(corrupt("rename target is already registered"));
            }
            let kind = names
                .remove(old)
                .ok_or_else(|| corrupt("rename source is not registered"))?;
            names.insert(new.into(), kind);
            Ok(())
        })
    }

    /// The registered coordinates of `name`, or `None` if the name is
    /// unmapped.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// assert_eq!(cat.lookup("nope"), None);
    /// cat.register("yes", &StoreKind::Txn { pool: 0 })?;
    /// assert!(cat.lookup("yes").is_some());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn lookup(&self, name: &str) -> Option<StoreKind> {
        self.names.lock().get(name).cloned()
    }

    /// Every registered name, in lexicographic order.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// cat.register("b", &StoreKind::Txn { pool: 0 })?;
    /// cat.register("a", &StoreKind::Txn { pool: 0 })?;
    /// assert_eq!(cat.names(), vec!["a".to_string(), "b".to_string()]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn names(&self) -> Vec<String> {
        self.names.lock().keys().cloned().collect()
    }

    /// Re-opens the single fixed-key index registered as `name`.
    ///
    /// The type parameter picks the backend and must match what the
    /// record was created from — the catalog stores coordinates, not
    /// Rust types.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    /// use pmindex::{PersistentIndex, PmIndex};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![Arc::clone(&root)])?;
    /// let tree = wort::Wort::create_in(Arc::clone(&root))?;
    /// tree.insert(3, 30)?;
    /// cat.register("b", &StoreKind::Index { pool: 0, superblock: tree.superblock() })?;
    ///
    /// let again: wort::Wort = cat.open_store("b")?;
    /// assert_eq!(again.get(3), Some(30));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `name` is unmapped or not an
    /// [`StoreKind::Index`] record; index-open failures propagate.
    pub fn open_store<T: PersistentIndex>(&self, name: &str) -> Result<T, IndexError> {
        match self.kind_of(name)? {
            StoreKind::Index { pool, superblock } => {
                T::open_in(Arc::clone(&self.pools[pool]), superblock)
            }
            other => Err(wrong_kind(name, "a single index", &other)),
        }
    }

    /// Re-opens the sharded deployment registered as `name`: each shard's
    /// index from its recorded pool and superblock, hash-routed over the
    /// recorded shards.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    /// use fastfair::FastFairTree;
    /// use pmindex::{PersistentIndex, PmIndex};
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![Arc::clone(&root)])?;
    /// let trees = vec![
    ///     FastFairTree::create_in(Arc::clone(&root))?,
    ///     FastFairTree::create_in(Arc::clone(&root))?,
    /// ];
    /// let shards = trees.iter().map(|t| (0, t.superblock())).collect();
    /// let store = ShardedStore::from_indexes(trees, Partitioning::Hash { shards: 2 });
    /// store.insert(11, 110)?;
    /// cat.register("wide", &StoreKind::Sharded { shards })?;
    ///
    /// let again: ShardedStore<FastFairTree> = cat.open_sharded("wide")?;
    /// assert_eq!(again.get(11), Some(110));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `name` is unmapped or not a
    /// [`StoreKind::Sharded`] record; index-open failures propagate.
    pub fn open_sharded<T: PersistentIndex>(
        &self,
        name: &str,
    ) -> Result<ShardedStore<T>, IndexError> {
        match self.kind_of(name)? {
            StoreKind::Sharded { shards } => {
                let indexes = shards
                    .iter()
                    .map(|&(pool, superblock)| {
                        T::open_in(Arc::clone(&self.pools[pool]), superblock)
                    })
                    .collect::<Result<_, _>>()?;
                let partitioning = Partitioning::Hash {
                    shards: shards.len(),
                };
                Ok(ShardedStore::from_indexes(indexes, partitioning))
            }
            other => Err(wrong_kind(name, "a sharded store", &other)),
        }
    }

    /// Re-opens the transaction engine registered as `name`, replaying
    /// its journal header from the recorded pool.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![Arc::clone(&root)])?;
    /// let engine = txn::TxnEngine::create(Arc::clone(&root))?;
    /// drop(engine);
    /// cat.register("engine", &StoreKind::Txn { pool: 0 })?;
    ///
    /// let again = cat.open_txn("engine")?;
    /// # let _ = again;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `name` is unmapped, not a
    /// [`StoreKind::Txn`] record, or its pool holds no journal.
    pub fn open_txn(&self, name: &str) -> Result<TxnEngine, IndexError> {
        match self.kind_of(name)? {
            StoreKind::Txn { pool } => TxnEngine::open(Arc::clone(&self.pools[pool])),
            other => Err(wrong_kind(name, "a transaction engine", &other)),
        }
    }

    /// Re-reads the registry record from the root pool and validates it
    /// (checksum and fleet-slot bounds), returning how many names it
    /// holds. [`Catalog::open`] makes the same checks, so a reopened
    /// catalog is known to hold zero dangling pool references.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![root])?;
    /// cat.register("a", &StoreKind::Txn { pool: 0 })?;
    /// assert_eq!(cat.verify()?, 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if the record fails its checksum or
    /// references a fleet slot outside the pool vector.
    pub fn verify(&self) -> Result<usize, IndexError> {
        let names = read(self.root(), self.pools.len())?
            .ok_or_else(|| corrupt("root pool holds no catalog"))?;
        Ok(names.len())
    }

    // ---- internals -----------------------------------------------------

    fn check(&self, name: &str, kind: &StoreKind) -> Result<(), IndexError> {
        if name.is_empty() {
            return Err(corrupt("store names must be non-empty"));
        }
        kind.check(self.pools.len())
    }

    fn kind_of(&self, name: &str) -> Result<StoreKind, IndexError> {
        self.lookup(name)
            .ok_or_else(|| corrupt(&format!("no store named {name:?}")))
    }

    /// Applies `change` to a copy of the registry, commits the copy, and
    /// only then makes it the registry readers see.
    fn mutate(
        &self,
        change: impl FnOnce(&mut Names) -> Result<(), IndexError>,
    ) -> Result<(), IndexError> {
        let mut names = self.names.lock();
        let mut next = names.clone();
        change(&mut next)?;
        self.commit(&next)?;
        *names = next;
        Ok(())
    }

    /// Writes `names` as the new registry record and publishes it.
    fn commit(&self, names: &Names) -> Result<(), IndexError> {
        let mut words = Vec::new();
        for (name, kind) in names {
            let (tag, anchor, counted) = kind.parts();
            words.push(name.len() as u64);
            words.extend(name.as_bytes().chunks(8).map(|c| {
                let mut b = [0u8; 8];
                b[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(b)
            }));
            words.extend([tag, anchor, counted.len() as u64]);
            words.extend(counted);
        }
        Ok(CommitCell::CATALOG.publish_record(self.root(), MAGIC, &words)?)
    }
}

/// Decodes the registry record `root` publishes, `Ok(None)` if none, and
/// checks every fleet slot it names against a fleet of `fleet` pools.
fn read(root: &Pool, fleet: usize) -> Result<Option<Names>, IndexError> {
    let Some(record) = CommitCell::CATALOG.record(root, MAGIC)? else {
        return Ok(None);
    };
    let mut words = record.as_slice();
    let mut names = Names::new();
    while !words.is_empty() {
        let len = take(&mut words, 1)?[0];
        let mut bytes: Vec<u8> = take(&mut words, len.div_ceil(8))?
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        bytes.truncate(len as usize);
        let name = String::from_utf8(bytes).map_err(|_| corrupt("a name is not UTF-8"))?;
        let &[tag, anchor, n] = take(&mut words, 3)? else {
            return Err(corrupt("record is truncated"));
        };
        let kind = StoreKind::from_parts(tag, anchor, take(&mut words, n)?)
            .map_err(|why| corrupt(&format!("store {name:?} has {why}")))?;
        kind.check(fleet)
            .map_err(|e| corrupt(&format!("store {name:?}: {e}")))?;
        if name.is_empty() || names.insert(name, kind).is_some() {
            return Err(corrupt("record holds an empty or repeated name"));
        }
    }
    Ok(Some(names))
}

fn wrong_kind(name: &str, wanted: &str, got: &StoreKind) -> IndexError {
    corrupt(&format!("store {name:?} is not {wanted} (found {got:?})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastfair::FastFairTree;
    use pmem::PoolConfig;
    use pmindex::PmIndex;

    fn name(s: &str) -> u64 {
        let mut b = [0u8; 8];
        b[..s.len()].copy_from_slice(s.as_bytes());
        u64::from_le_bytes(b)
    }

    fn pool() -> Arc<Pool> {
        Arc::new(Pool::new(PoolConfig::default().size(4 << 20)).unwrap())
    }

    fn reopen(pools: &[Arc<Pool>]) -> Vec<Arc<Pool>> {
        pools
            .iter()
            .map(|p| {
                Arc::new(Pool::from_image(&p.volatile_image(), PoolConfig::default()).unwrap())
            })
            .collect()
    }

    #[test]
    fn register_lookup_survives_reopen() {
        let pools = vec![pool(), pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        let tree = FastFairTree::create_in(Arc::clone(&pools[1])).unwrap();
        tree.insert(42, 420).unwrap();
        cat.register(
            "kv",
            &StoreKind::Index {
                pool: 1,
                superblock: tree.superblock(),
            },
        )
        .unwrap();

        let cat2 = Catalog::open(reopen(&pools)).unwrap();
        assert_eq!(cat2.names(), vec!["kv"]);
        let tree2: FastFairTree = cat2.open_store("kv").unwrap();
        assert_eq!(tree2.get(42), Some(420));
    }

    #[test]
    fn duplicate_register_and_missing_update_are_rejected() {
        let cat = Catalog::create(vec![pool()]).unwrap();
        cat.register("x", &StoreKind::Txn { pool: 0 }).unwrap();
        assert!(cat.register("x", &StoreKind::Txn { pool: 0 }).is_err());
        assert!(cat.update("y", &StoreKind::Txn { pool: 0 }).is_err());
        assert!(cat.register("", &StoreKind::Txn { pool: 0 }).is_err());
    }

    #[test]
    fn out_of_fleet_slots_are_rejected_at_register_time() {
        let cat = Catalog::create(vec![pool()]).unwrap();
        assert!(cat.register("bad", &StoreKind::Txn { pool: 3 }).is_err());
        assert!(cat
            .register(
                "bad",
                &StoreKind::Sharded {
                    shards: vec![(0, 64), (7, 64)],
                },
            )
            .is_err());
    }

    #[test]
    fn rename_moves_the_mapping_and_long_names_roundtrip() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        let long_old = "a-name-well-past-the-inline-codec-limit";
        let long_new = "another-name-also-well-past-the-limit";
        cat.register(long_old, &StoreKind::Txn { pool: 0 }).unwrap();
        cat.rename(long_old, long_new).unwrap();
        assert_eq!(cat.lookup(long_old), None);
        assert_eq!(cat.lookup(long_new), Some(StoreKind::Txn { pool: 0 }));

        let cat2 = Catalog::open(reopen(&pools)).unwrap();
        assert_eq!(cat2.lookup(long_new), Some(StoreKind::Txn { pool: 0 }));
    }

    #[test]
    fn open_requires_a_catalog_and_create_refuses_a_second() {
        let p = pool();
        assert!(Catalog::open(vec![Arc::clone(&p)]).is_err());
        let _cat = Catalog::create(vec![Arc::clone(&p)]).unwrap();
        assert!(Catalog::create(vec![Arc::clone(&p)]).is_err());
        assert!(Catalog::open(vec![p]).is_ok());

        // The superblock a catalog kept before it was one record: magic,
        // name tree superblock, rename-intent slot.
        let old = pool();
        let sb = old.alloc(24, 64).unwrap();
        old.store_u64(sb, u64::from_le_bytes(*b"FFCATLOG"));
        old.persist(sb, 24);
        CommitCell::CATALOG.publish(&old, sb);
        let err = Catalog::open(vec![old]).unwrap_err();
        assert!(matches!(err, IndexError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn a_flipped_record_offset_is_refused_not_a_panic() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        cat.register("kv", &StoreKind::Txn { pool: 0 }).unwrap();
        let image = cat.root().volatile_image();
        // The one word of the root pool that holds the record offset: the
        // CATALOG commit cell.
        let at = CommitCell::CATALOG.offset() as usize;
        let rec = CommitCell::CATALOG.load(cat.root());
        let mut panicked = Vec::new();
        for bit in 0..64 {
            let mut img = image.clone();
            let v = rec ^ (1 << bit);
            img[at..at + 8].copy_from_slice(&v.to_le_bytes());
            let root = Arc::new(Pool::from_image(&img, PoolConfig::default()).unwrap());
            match std::panic::catch_unwind(|| Catalog::open(vec![root])) {
                Ok(Err(IndexError::Unsupported(_))) => {}
                Ok(Ok(_)) => panic!("bit {bit}: flipped record offset opened"),
                Ok(Err(e)) => panic!("bit {bit}: untyped refusal {e:?}"),
                Err(_) => panicked.push(bit),
            }
        }
        assert!(
            panicked.is_empty(),
            "Catalog::open panicked with bit(s) {panicked:?} flipped"
        );
    }

    #[test]
    fn a_record_holding_the_retired_kind_3_is_refused() {
        // A well-checksummed record as a catalog that registered a sharded
        // store over a shard manifest wrote it: name "wide", kind 3, no
        // anchor, the manifest's fleet slot, then two shards'.
        let root = pool();
        let words = [4, name("wide"), 3, 0, 3, 0, 0, 0];
        CommitCell::CATALOG
            .publish_record(&root, MAGIC, &words)
            .unwrap();
        match Catalog::open(vec![root]) {
            Err(IndexError::Unsupported(msg)) => assert!(msg.contains("retired kind 3"), "{msg}"),
            other => panic!("a kind-3 record must be refused, got {other:?}"),
        }
    }

    #[test]
    fn a_record_holding_the_retired_kind_2_is_refused() {
        // A well-checksummed record as a catalog that registered a byte-key
        // store wrote it: name "names", kind 2, the inner index's
        // superblock, one fleet slot.
        let root = pool();
        let words = [5, u64::from_le_bytes(*b"names\0\0\0"), 2, 64, 1, 0];
        CommitCell::CATALOG
            .publish_record(&root, MAGIC, &words)
            .unwrap();
        match Catalog::open(vec![root]) {
            Err(IndexError::Unsupported(msg)) => assert!(msg.contains("retired kind 2"), "{msg}"),
            other => panic!("a kind-2 record must be refused, got {other:?}"),
        }
    }

    /// Publishes a well-checksummed catalog record holding `words` and
    /// returns what [`Catalog::open`] makes of it over a fleet of one.
    fn open_record(words: &[u64]) -> Result<Catalog, IndexError> {
        let root = pool();
        CommitCell::CATALOG
            .publish_record(&root, MAGIC, words)
            .unwrap();
        Catalog::open(vec![root])
    }

    fn refused<T: std::fmt::Debug>(res: Result<T, IndexError>) -> String {
        match res {
            Err(IndexError::Unsupported(msg)) => msg,
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn a_record_holding_an_unknown_kind_tag_is_refused() {
        let name = u64::from_le_bytes(*b"t\0\0\0\0\0\0\0");
        for tag in [0, TAG_SHARDED + 1, u64::MAX] {
            let msg = refused(open_record(&[1, name, tag, 0, 1, 0]));
            assert!(msg.contains("malformed kind"), "tag {tag}: {msg}");
        }
        // A known tag with a word count that fits none of its shapes is
        // malformed too: a txn names one slot, a sharded map two words a
        // shard.
        for kind in [
            vec![TAG_TXN, 0, 2, 0, 0],
            vec![TAG_SHARDED, PART_HASH, 3, 0, 64, 0],
        ] {
            let msg = refused(open_record(&[&[1, name], &kind[..]].concat()));
            assert!(msg.contains("malformed kind"), "{kind:?}: {msg}");
        }
    }

    #[test]
    fn a_record_whose_lengths_overrun_it_is_refused_not_a_panic() {
        let name = u64::from_le_bytes(*b"t\0\0\0\0\0\0\0");
        for words in [
            // The name claims two words; the record ends after one.
            vec![9, name],
            // The kind words are cut short.
            vec![1, name, TAG_TXN],
            // The slot count runs past the end, and past usize.
            vec![1, name, TAG_TXN, 0, 3, 0],
            vec![1, name, TAG_TXN, 0, u64::MAX],
            // The name length is so large its word count overflows.
            vec![u64::MAX, name],
        ] {
            let msg = refused(open_record(&words));
            assert!(msg.contains("truncated"), "{words:?}: {msg}");
        }
    }

    #[test]
    fn a_record_with_a_non_utf8_empty_or_repeated_name_is_refused() {
        let t = u64::from_le_bytes(*b"t\0\0\0\0\0\0\0");
        let txn = [TAG_TXN, 0, 1, 0];
        let entry = |len: u64, name: &[u64]| [&[len], name, &txn[..]].concat();
        let msg = refused(open_record(&entry(1, &[0xff])));
        assert!(msg.contains("UTF-8"), "{msg}");
        let msg = refused(open_record(&entry(0, &[])));
        assert!(msg.contains("empty or repeated"), "{msg}");
        let msg = refused(open_record(&[entry(1, &[t]), entry(1, &[t])].concat()));
        assert!(msg.contains("empty or repeated"), "{msg}");
        // The same two entries under distinct names open.
        let u = u64::from_le_bytes(*b"u\0\0\0\0\0\0\0");
        let cat = open_record(&[entry(1, &[t]), entry(1, &[u])].concat()).unwrap();
        assert_eq!(cat.names(), vec!["t", "u"]);
    }

    #[test]
    fn names_of_every_length_around_a_word_and_multibyte_names_roundtrip() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        let mut names: Vec<String> = (1..=17).map(|n| "x".repeat(n)).collect();
        names.extend(["ключ", "名前", "naïve ☃"].map(String::from));
        for (i, name) in names.iter().enumerate() {
            cat.register(name, &StoreKind::Txn { pool: 0 }).unwrap();
            assert_eq!(cat.len(), i + 1);
        }
        let cat2 = Catalog::open(reopen(&pools)).unwrap();
        names.sort();
        assert_eq!(cat2.names(), names);
    }

    #[test]
    fn opening_a_store_as_the_wrong_kind_is_refused() {
        let cat = Catalog::create(vec![pool()]).unwrap();
        cat.register("journal", &StoreKind::Txn { pool: 0 })
            .unwrap();
        cat.register(
            "tree",
            &StoreKind::Index {
                pool: 0,
                superblock: 64,
            },
        )
        .unwrap();
        let msg = |e: IndexError| match e {
            IndexError::Unsupported(msg) => msg,
            other => panic!("expected Unsupported, got {other:?}"),
        };
        let e = cat.open_store::<FastFairTree>("journal").unwrap_err();
        assert!(msg(e).contains("is not a single index"));
        let e = cat.open_sharded::<FastFairTree>("journal").unwrap_err();
        assert!(msg(e).contains("is not a sharded store"));
        let e = cat.open_txn("tree").unwrap_err();
        assert!(msg(e).contains("is not a transaction engine"));
        let e = cat.open_txn("absent").unwrap_err();
        assert!(msg(e).contains("no store named"));
    }

    #[test]
    fn refused_renames_leave_both_mappings_in_place() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        let a = StoreKind::Txn { pool: 0 };
        let b = StoreKind::Index {
            pool: 0,
            superblock: 64,
        };
        cat.register("a", &a).unwrap();
        cat.register("b", &b).unwrap();
        let published = CommitCell::CATALOG.load(cat.root());
        assert!(cat.rename("a", "b").is_err()); // target taken
        assert!(cat.rename("missing", "c").is_err()); // no source
        assert!(cat.rename("a", "").is_err()); // empty target

        // No refused rename published a record.
        assert_eq!(CommitCell::CATALOG.load(cat.root()), published);
        assert_eq!(
            (cat.lookup("a"), cat.lookup("b")),
            (Some(a.clone()), Some(b))
        );
        // Renaming a name onto itself keeps it.
        cat.rename("a", "a").unwrap();
        let cat2 = Catalog::open(reopen(&pools)).unwrap();
        assert_eq!(cat2.lookup("a"), Some(a));
        assert_eq!(cat2.len(), 2);
    }

    #[test]
    fn a_remove_is_durable_and_a_missing_remove_publishes_nothing() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        cat.register("keep", &StoreKind::Txn { pool: 0 }).unwrap();
        cat.register("drop", &StoreKind::Txn { pool: 0 }).unwrap();
        assert!(cat.remove("drop"));
        let published = CommitCell::CATALOG.load(cat.root());
        assert!(!cat.remove("drop"));
        assert_eq!(CommitCell::CATALOG.load(cat.root()), published);
        let cat2 = Catalog::open(reopen(&pools)).unwrap();
        assert_eq!(cat2.names(), vec!["keep"]);
    }

    #[test]
    fn a_catalog_needs_a_root_pool() {
        for res in [Catalog::create(vec![]), Catalog::open(vec![])] {
            let msg = refused(res);
            assert!(msg.contains("at least a root pool"), "{msg}");
        }
    }

    #[test]
    fn an_update_to_an_out_of_fleet_slot_keeps_the_old_coordinates() {
        let pools = vec![pool(), pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        cat.register("t", &StoreKind::Txn { pool: 1 }).unwrap();
        assert!(cat.update("t", &StoreKind::Txn { pool: 2 }).is_err());
        assert!(cat
            .update(
                "t",
                &StoreKind::Sharded {
                    shards: vec![(0, 64), (5, 64)],
                },
            )
            .is_err());
        assert_eq!(cat.lookup("t"), Some(StoreKind::Txn { pool: 1 }));
        let cat2 = Catalog::open(reopen(&pools)).unwrap();
        assert_eq!(cat2.lookup("t"), Some(StoreKind::Txn { pool: 1 }));
    }

    #[test]
    fn superseded_records_are_freed() {
        // A leaked record a mutation would fill this pool long before the
        // loop ends.
        let root = Arc::new(Pool::new(PoolConfig::default().size(256 << 10)).unwrap());
        let cat = Catalog::create(vec![root]).unwrap();
        cat.register("t", &StoreKind::Txn { pool: 0 }).unwrap();
        for i in 0..10_000 {
            let kind = StoreKind::Index {
                pool: 0,
                superblock: 64 * (i % 7),
            };
            cat.update("t", &kind).unwrap();
        }
        assert_eq!(cat.verify().unwrap(), 1);
    }

    #[test]
    fn verify_catches_a_corrupted_record() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        cat.register("ok", &StoreKind::Txn { pool: 0 }).unwrap();
        let rec = CommitCell::CATALOG.load(cat.root());
        // Overwrite the kind tag (payload word 2) without updating the
        // checksum.
        cat.root().store_u64(rec + 8 * (3 + 2), 99);
        assert!(cat.verify().is_err());
        assert!(Catalog::open(reopen(&pools)).is_err());
    }

    #[test]
    fn all_three_kinds_roundtrip_through_records() {
        let pools = vec![pool(), pool(), pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        let kinds = [
            StoreKind::Index {
                pool: 1,
                superblock: 128,
            },
            StoreKind::Index {
                pool: 2,
                superblock: 256,
            },
            StoreKind::Sharded {
                shards: vec![(1, 128), (2, 256)],
            },
            StoreKind::Sharded {
                shards: vec![(2, 64), (0, 64), (1, 512)],
            },
            StoreKind::Txn { pool: 1 },
        ];
        for (i, k) in kinds.iter().enumerate() {
            cat.register(&format!("s{i}"), k).unwrap();
        }
        let cat2 = Catalog::open(reopen(&pools)).unwrap();
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(cat2.lookup(&format!("s{i}")).as_ref(), Some(k));
        }
        assert_eq!(cat2.verify().unwrap(), kinds.len());
    }

    #[test]
    fn index_txn_and_sharded_entries_keep_their_payload_words() {
        let cat = Catalog::create(vec![pool(), pool()]).unwrap();
        cat.register(
            "kv",
            &StoreKind::Index {
                pool: 1,
                superblock: 4160,
            },
        )
        .unwrap();
        cat.register("txn", &StoreKind::Txn { pool: 0 }).unwrap();
        cat.register(
            "wide",
            &StoreKind::Sharded {
                shards: vec![(1, 64), (0, 128)],
            },
        )
        .unwrap();
        let words = CommitCell::CATALOG.record(cat.root(), MAGIC).unwrap();
        #[rustfmt::skip]
        let want = vec![
            2, name("kv"), TAG_INDEX, 4160, 1, 1,
            3, name("txn"), TAG_TXN, 0, 1, 0,
            4, name("wide"), TAG_SHARDED, PART_HASH, 4, 1, 64, 0, 128,
        ];
        assert_eq!(words, Some(want));
        assert_eq!((TAG_INDEX, TAG_TXN, TAG_SHARDED), (1, 4, 5));
    }

    #[test]
    fn a_sharded_kind_whose_partitioning_disagrees_with_its_map_is_refused() {
        // A sharded kind's partitioning is its shard count, so a map of no
        // shard is the one disagreement it can hold.
        let cat = Catalog::create(vec![pool()]).unwrap();
        cat.register(
            "s",
            &StoreKind::Sharded {
                shards: vec![(0, 64)],
            },
        )
        .unwrap();
        let published = CommitCell::CATALOG.load(cat.root());
        let none = StoreKind::Sharded { shards: vec![] };
        let msg = refused(cat.register("t", &none));
        assert!(msg.contains("no shard"), "register: {msg}");
        let msg = refused(cat.update("s", &none));
        assert!(msg.contains("no shard"), "update: {msg}");
        assert_eq!(CommitCell::CATALOG.load(cat.root()), published);
        assert_eq!(cat.names(), vec!["s"]);
    }

    #[test]
    fn a_range_partitioned_deployment_is_refused_as_retired() {
        // A well-checksummed record as a catalog that registered a
        // two-shard range deployment wrote it: name "wide", kind 5,
        // partitioning word 1, both shards' slot and superblock, then the
        // one bound.
        #[rustfmt::skip]
        let words = [4, name("wide"), TAG_SHARDED, PART_RETIRED_RANGE, 5, 1, 64, 0, 128, 500];
        let msg = refused(open_record(&words));
        assert!(
            msg.contains("retired partitioning kind 1 (range-partitioned"),
            "{msg}"
        );
    }

    /// Publishes a record naming one sharded store, `"s"`, of partitioning
    /// word `kind` — one fresh tree in the root pool per entry of `slots`,
    /// recorded at that fleet slot — and opens the store over a fleet of
    /// one.
    fn open_sharded_record(
        kind: u64,
        slots: &[u64],
    ) -> Result<ShardedStore<FastFairTree>, IndexError> {
        let root = pool();
        let mut counted = Vec::new();
        for &slot in slots {
            let tree = FastFairTree::create_in(Arc::clone(&root)).unwrap();
            counted.extend([slot, tree.superblock()]);
        }
        let words = [
            &[1, name("s"), TAG_SHARDED, kind, counted.len() as u64],
            &counted[..],
        ]
        .concat();
        CommitCell::CATALOG
            .publish_record(&root, MAGIC, &words)
            .unwrap();
        Catalog::open(vec![root])?.open_sharded("s")
    }

    // The next three keep the names they had when a sharded store's map was
    // its own shard-manifest record; the checks now run on the catalog's
    // sharded entry.

    #[test]
    fn a_manifest_naming_no_shard_is_refused() {
        let msg = refused(open_sharded_record(PART_HASH, &[]));
        assert!(msg.contains("no shard"), "{msg}");
    }

    #[test]
    fn a_manifest_of_an_unknown_kind_is_refused() {
        for kind in [2, u64::MAX] {
            let msg = refused(open_sharded_record(kind, &[0, 0]));
            assert!(msg.contains("unknown partitioning kind"), "{msg}");
        }
    }

    #[test]
    fn a_manifest_slot_past_the_supplied_pools_is_refused() {
        // Shard 1 at slot 5 of a one-pool fleet.
        let msg = refused(open_sharded_record(PART_HASH, &[0, 5]));
        assert!(msg.contains("slot 5"), "{msg}");
        // The same map at slot 0 opens.
        assert_eq!(
            open_sharded_record(PART_HASH, &[0, 0])
                .unwrap()
                .shard_count(),
            2
        );
    }
}

//! Persistent name→store registry: the piece that makes a multi-store
//! deployment *reopenable*.
//!
//! Every store in this workspace already knows how to recover itself —
//! [`pmindex::PersistentIndex::open_in`] re-opens a tree from its
//! superblock, [`shard::ShardedStore::open`] replays a manifest,
//! [`txn::TxnEngine::open`] replays its journal — but each of those
//! entry points needs *coordinates* (a pool and an offset) that, before
//! this crate, lived only in the process that created the store. A
//! [`Catalog`] persists those coordinates under human-readable names in
//! a **root pool**, so a restarted process can ask for `"orders"` and
//! get its tree back:
//!
//! ```text
//! root pool header ──CommitCell::CATALOG──▶ catalog superblock
//!                                      ├── inner name index (varkey tree)
//!                                      │     "orders"  → store record A
//!                                      │     "history" → store record B
//!                                      └── rename intent slot (normally 0)
//! ```
//!
//! Store records are immutable and checksummed, committed exactly like a
//! shard manifest: the record is written and persisted in full first,
//! then *published* with a single failure-atomic 8-byte store (the
//! varkey insert of `name → record offset`). A crash before the publish
//! leaves the name unmapped (the old state); a crash after leaves it
//! fully mapped (the new state) — there is no in-between to repair,
//! which is why [`Catalog::open`] is instantaneous. The one two-step
//! mutation, [`Catalog::rename`], stages an *intent record* behind its
//! own single pointer flip and is replayed idempotently on open.
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

use std::sync::Arc;

use fastfair::FastFairTree;
use parking_lot::Mutex;
use pmem::{fnv1a, CommitCell, PmOffset, Pool, NULL_OFFSET};
use pmindex::{IndexError, PersistentIndex};
use shard::ShardedStore;
use txn::TxnEngine;
use varkey::{VarKeyIndex, VarKeyStore};

/// `"FFCATLOG"` — first word of the catalog superblock.
const CAT_MAGIC: u64 = u64::from_le_bytes(*b"FFCATLOG");
/// `"FFSTOREC"` — first word of every store record.
const REC_MAGIC: u64 = u64::from_le_bytes(*b"FFSTOREC");
/// `"FFRENAME"` — first word of a rename intent record.
const INTENT_MAGIC: u64 = u64::from_le_bytes(*b"FFRENAME");

/// Superblock layout (words): `[magic, inner index superblock, intent]`.
const SB_WORDS: u64 = 3;
/// Byte offset of the mutable rename-intent slot inside the superblock.
const SB_INTENT: u64 = 16;

/// Store-record kind tags (word 1 of a record).
const TAG_INDEX: u64 = 1;
const TAG_VARKEY: u64 = 2;
const TAG_SHARDED: u64 = 3;
const TAG_TXN: u64 = 4;

/// Sanity cap on decoded record payloads, shard counts and intent name
/// lengths, so a corrupt length word cannot drive an unbounded read.
const MAX_WORDS: u64 = 1 << 16;

fn corrupt(what: &str) -> IndexError {
    IndexError::Unsupported(format!("catalog: {what}"))
}

/// The typed coordinates a catalog stores for one named store — enough
/// for the matching `open_*` entry point to recover it after a restart.
///
/// Pool references are **fleet slots**: indexes into the pool vector
/// handed to [`Catalog::open`] (slot 0 is the root pool). Offsets are
/// the store's own recovery anchors ([`PersistentIndex::superblock`],
/// or implicit header slots for sharded/transactional stores).
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
    /// A variable-length-key store: the *inner* index's coordinates;
    /// reopened via [`Catalog::open_varkey`] (chains are reachable from
    /// the inner index's values, so no extra anchor is needed).
    VarKey {
        /// Fleet slot of the pool holding the inner index and chains.
        pool: usize,
        /// The inner index's superblock offset.
        superblock: PmOffset,
    },
    /// A sharded deployment: reopened via [`Catalog::open_sharded`]
    /// from the manifest in `manifest_pool`'s header.
    Sharded {
        /// Fleet slot of the pool whose header slot holds the manifest.
        manifest_pool: usize,
        /// Fleet slot per manifest *pool slot id*: the manifest's
        /// entries index this list, so it must stay in slot-id order.
        shard_pools: Vec<usize>,
    },
    /// A transaction engine: reopened via [`Catalog::open_txn`] from
    /// the journal in `pool`'s header slot.
    Txn {
        /// Fleet slot of the pool whose header slot holds the journal.
        pool: usize,
    },
}

impl StoreKind {
    fn encode(&self) -> (u64, Vec<u64>) {
        match self {
            StoreKind::Index { pool, superblock } => (TAG_INDEX, vec![*pool as u64, *superblock]),
            StoreKind::VarKey { pool, superblock } => (TAG_VARKEY, vec![*pool as u64, *superblock]),
            StoreKind::Sharded {
                manifest_pool,
                shard_pools,
            } => {
                let mut p = vec![*manifest_pool as u64, shard_pools.len() as u64];
                p.extend(shard_pools.iter().map(|&s| s as u64));
                (TAG_SHARDED, p)
            }
            StoreKind::Txn { pool } => (TAG_TXN, vec![*pool as u64]),
        }
    }

    fn decode(tag: u64, payload: &[u64]) -> Result<StoreKind, IndexError> {
        let word = |i: usize| -> Result<u64, IndexError> {
            payload
                .get(i)
                .copied()
                .ok_or_else(|| corrupt("store record payload truncated"))
        };
        match tag {
            TAG_INDEX => Ok(StoreKind::Index {
                pool: word(0)? as usize,
                superblock: word(1)?,
            }),
            TAG_VARKEY => Ok(StoreKind::VarKey {
                pool: word(0)? as usize,
                superblock: word(1)?,
            }),
            TAG_SHARDED => {
                let n = word(1)?;
                if n == 0 || n > MAX_WORDS {
                    return Err(corrupt("store record names an absurd shard count"));
                }
                let mut shard_pools = Vec::with_capacity(n as usize);
                for i in 0..n as usize {
                    shard_pools.push(word(2 + i)? as usize);
                }
                Ok(StoreKind::Sharded {
                    manifest_pool: word(0)? as usize,
                    shard_pools,
                })
            }
            TAG_TXN => Ok(StoreKind::Txn {
                pool: word(0)? as usize,
            }),
            _ => Err(corrupt("store record carries an unknown kind tag")),
        }
    }

    /// Every fleet slot this record references, for bounds validation.
    fn slots(&self) -> Vec<usize> {
        match self {
            StoreKind::Index { pool, .. }
            | StoreKind::VarKey { pool, .. }
            | StoreKind::Txn { pool } => vec![*pool],
            StoreKind::Sharded {
                manifest_pool,
                shard_pools,
            } => {
                let mut v = vec![*manifest_pool];
                v.extend_from_slice(shard_pools);
                v
            }
        }
    }
}

/// A persistent name→store registry rooted in a pool fleet.
///
/// One catalog owns the header `CATALOG_SLOT` of its **root pool**
/// (fleet slot 0) and maps UTF-8 names to [`StoreKind`] records. All
/// mutations commit through a single failure-atomic 8-byte store and
/// replay idempotently on [`Catalog::open`] — see the crate docs for
/// the commit protocol.
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
pub struct Catalog {
    pools: Vec<Arc<Pool>>,
    index: VarKeyStore<FastFairTree>,
    superblock: PmOffset,
    /// Serializes mutations (register/update/rename/remove); lookups
    /// and opens stay latch-free through the inner index.
    mutate: Mutex<()>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("pools", &self.pools.len())
            .field("stores", &self.index.len())
            .field("superblock", &self.superblock)
            .finish()
    }
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
        let tree = FastFairTree::create_in(Arc::clone(root))?;
        let inner_sb = tree.superblock();
        let off = root.alloc(SB_WORDS * 8, 64)?;
        root.store_u64(off, CAT_MAGIC);
        root.store_u64(off + 8, inner_sb);
        root.store_u64(off + SB_INTENT, 0);
        root.persist(off, SB_WORDS * 8);
        // Single failure-atomic publish: before this store the pool has
        // no catalog, after it the catalog is complete.
        CommitCell::CATALOG.publish(root, off);
        let index = VarKeyStore::new(tree, Arc::clone(root));
        Ok(Catalog {
            pools,
            index,
            superblock: off,
            mutate: Mutex::new(()),
        })
    }

    /// Re-opens the catalog published in `pools[0]`'s header, replays
    /// any interrupted [`Catalog::rename`], and validates every store
    /// record (checksum and fleet-slot bounds) — the registry analogue
    /// of the paper's instantaneous recovery.
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
    /// [`IndexError::Unsupported`] if the root pool holds no catalog,
    /// the superblock or any record fails validation, or a record
    /// references a fleet slot outside `pools`.
    pub fn open(pools: Vec<Arc<Pool>>) -> Result<Catalog, IndexError> {
        let root = pools
            .first()
            .ok_or_else(|| corrupt("a catalog needs at least a root pool"))?;
        let off = CommitCell::CATALOG
            .target(root, SB_WORDS * 8)?
            .ok_or_else(|| corrupt("root pool holds no catalog; use Catalog::create"))?;
        if root.load_u64(off) != CAT_MAGIC {
            return Err(corrupt("catalog superblock magic mismatch"));
        }
        let inner_sb = root.load_u64(off + 8);
        let tree = FastFairTree::open_in(Arc::clone(root), inner_sb)?;
        let index = VarKeyStore::new(tree, Arc::clone(root));
        let cat = Catalog {
            pools,
            index,
            superblock: off,
            mutate: Mutex::new(()),
        };
        cat.replay_intent()?;
        cat.verify()?;
        Ok(cat)
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
        self.index.len()
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

    /// Registers `name → kind`: writes and persists an immutable
    /// checksummed record, then publishes it with one failure-atomic
    /// insert into the name index. A crash leaves the name either
    /// absent or fully mapped — never in between.
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
    /// registered (use [`Catalog::update`] to repoint a live name), or
    /// if `kind` references a fleet slot outside the pool fleet.
    pub fn register(&self, name: &str, kind: &StoreKind) -> Result<(), IndexError> {
        self.check(name, kind)?;
        let _m = self.mutate.lock();
        if self.index.get(name.as_bytes()).is_some() {
            return Err(corrupt("name already registered; use Catalog::update"));
        }
        let off = self.write_record(kind)?;
        self.index.insert(name.as_bytes(), off)?;
        Ok(())
    }

    /// Repoints an existing name at a new record — e.g. after an operator
    /// moved a store's pools to new slots. Commits exactly
    /// like [`Catalog::register`]: new record first, then one
    /// failure-atomic value store; readers see the old or the new
    /// coordinates, never a mix.
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
    /// [`IndexError::Unsupported`] if the name is not registered or
    /// `kind` references a slot outside the fleet.
    pub fn update(&self, name: &str, kind: &StoreKind) -> Result<(), IndexError> {
        self.check(name, kind)?;
        let _m = self.mutate.lock();
        if self.index.get(name.as_bytes()).is_none() {
            return Err(corrupt("name not registered; use Catalog::register"));
        }
        let off = self.write_record(kind)?;
        self.index.update(name.as_bytes(), off)?;
        Ok(())
    }

    /// Unregisters `name`, returning whether it was present. Removal is
    /// one failure-atomic delete from the name index; the store's data
    /// itself is untouched (drop its pools to reclaim it).
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
        let _m = self.mutate.lock();
        self.index.remove(name.as_bytes())
    }

    /// Atomically renames a store. The only two-step catalog mutation:
    /// an *intent record* (old name, new name, record offset) is
    /// persisted and published in the superblock's intent slot before
    /// either index mutation runs, and [`Catalog::open`] replays the
    /// intent idempotently — so a crash anywhere inside `rename`
    /// resolves to the old mapping (intent not yet published) or the
    /// new one (intent published), never to both names or neither.
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
        let _m = self.mutate.lock();
        let rec = self
            .index
            .get(old.as_bytes())
            .ok_or_else(|| corrupt("rename source is not registered"))?;
        if old == new {
            return Ok(());
        }
        if self.index.get(new.as_bytes()).is_some() {
            return Err(corrupt("rename target is already registered"));
        }
        let intent = self.write_intent(rec, old.as_bytes(), new.as_bytes())?;
        let root = self.root();
        // Publish the intent: from here the rename is decided and will
        // complete even if we crash before touching the name index.
        self.intent().publish(root, intent);
        self.complete_rename(rec, old.as_bytes(), new.as_bytes())?;
        // Retire the intent; the rename is fully applied.
        self.intent().publish(root, 0);
        Ok(())
    }

    /// The registered coordinates of `name`, or `None` if the name is
    /// unmapped (or its record fails validation — [`Catalog::open`]
    /// rejects corrupt records up front, so that arm is unreachable on
    /// a catalog that opened cleanly).
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
        let off = self.index.get(name.as_bytes())?;
        self.read_record(off).ok()
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
        let mut cur = self.index.cursor();
        cur.seek(b"");
        let mut out = Vec::new();
        while let Some((k, _)) = cur.next() {
            out.push(String::from_utf8_lossy(&k).into_owned());
        }
        out
    }

    /// Re-opens the single fixed-key index registered as `name`.
    ///
    /// The type parameter picks the backend and must match what the
    /// record was created from — the catalog stores coordinates, not
    /// Rust types, exactly as a shard manifest does.
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

    /// Re-opens the variable-length-key store registered as `name`:
    /// recovers the inner index from its superblock and rewraps it —
    /// overflow chains are already reachable from the inner values.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    /// use pmindex::PersistentIndex;
    /// use varkey::{VarKeyIndex, VarKeyStore};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![Arc::clone(&root)])?;
    /// let tree = fastfair::FastFairTree::create_in(Arc::clone(&root))?;
    /// let store = VarKeyStore::new(tree, Arc::clone(&root));
    /// store.insert(b"a-rather-long-key", 9)?;
    /// cat.register("names", &StoreKind::VarKey {
    ///     pool: 0,
    ///     superblock: store.inner().superblock(),
    /// })?;
    ///
    /// let again: VarKeyStore<fastfair::FastFairTree> = cat.open_varkey("names")?;
    /// assert_eq!(again.get(b"a-rather-long-key"), Some(9));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `name` is unmapped or not a
    /// [`StoreKind::VarKey`] record; inner-open failures propagate.
    pub fn open_varkey<T: PersistentIndex>(
        &self,
        name: &str,
    ) -> Result<VarKeyStore<T>, IndexError> {
        match self.kind_of(name)? {
            StoreKind::VarKey { pool, superblock } => {
                let p = Arc::clone(&self.pools[pool]);
                let inner = T::open_in(Arc::clone(&p), superblock)?;
                Ok(VarKeyStore::new(inner, p))
            }
            other => Err(wrong_kind(name, "a varkey store", &other)),
        }
    }

    /// Re-opens the sharded deployment registered as `name` by
    /// replaying the manifest in its manifest pool, with the record's
    /// slot list translating manifest pool-slot ids to fleet pools.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use catalog::{Catalog, StoreKind};
    /// use pmindex::PmIndex;
    /// use shard::{Partitioning, ShardedStore};
    ///
    /// let root = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
    /// let cat = Catalog::create(vec![Arc::clone(&root)])?;
    /// let store: ShardedStore<fastfair::FastFairTree> = ShardedStore::create(
    ///     Arc::clone(&root),
    ///     vec![Arc::clone(&root), Arc::clone(&root)],
    ///     Partitioning::Hash { shards: 2 },
    /// )?;
    /// store.insert(11, 110)?;
    /// cat.register("wide", &StoreKind::Sharded {
    ///     manifest_pool: 0,
    ///     shard_pools: vec![0, 0],
    /// })?;
    ///
    /// let again: ShardedStore<fastfair::FastFairTree> = cat.open_sharded("wide")?;
    /// assert_eq!(again.get(11), Some(110));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `name` is unmapped or not a
    /// [`StoreKind::Sharded`] record; manifest and index-open failures
    /// propagate.
    pub fn open_sharded<T: PersistentIndex>(
        &self,
        name: &str,
    ) -> Result<ShardedStore<T>, IndexError> {
        match self.kind_of(name)? {
            StoreKind::Sharded {
                manifest_pool,
                shard_pools,
            } => ShardedStore::open(
                Arc::clone(&self.pools[manifest_pool]),
                shard_pools
                    .iter()
                    .map(|&s| Arc::clone(&self.pools[s]))
                    .collect(),
            ),
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

    /// Decodes and validates every registered record, returning how
    /// many were checked. [`Catalog::open`] runs this so a reopened
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
    /// [`IndexError::Unsupported`] naming the first record that fails
    /// its checksum or references a fleet slot outside the pool vector.
    pub fn verify(&self) -> Result<usize, IndexError> {
        let mut cur = self.index.cursor();
        cur.seek(b"");
        let mut n = 0;
        while let Some((name, off)) = cur.next() {
            self.read_record(off).map_err(|e| {
                corrupt(&format!("store {:?}: {e}", String::from_utf8_lossy(&name)))
            })?;
            n += 1;
        }
        Ok(n)
    }

    // ---- internals -----------------------------------------------------

    fn check(&self, name: &str, kind: &StoreKind) -> Result<(), IndexError> {
        if name.is_empty() {
            return Err(corrupt("store names must be non-empty"));
        }
        for slot in kind.slots() {
            if slot >= self.pools.len() {
                return Err(corrupt(&format!(
                    "record references fleet slot {slot} but the fleet has {} pools",
                    self.pools.len()
                )));
            }
        }
        Ok(())
    }

    fn kind_of(&self, name: &str) -> Result<StoreKind, IndexError> {
        let off = self
            .index
            .get(name.as_bytes())
            .ok_or_else(|| corrupt(&format!("no store named {name:?}")))?;
        self.read_record(off)
    }

    /// Writes an immutable store record and persists it in full. The
    /// record is unreachable until the caller publishes its offset.
    fn write_record(&self, kind: &StoreKind) -> Result<PmOffset, IndexError> {
        let (tag, payload) = kind.encode();
        let words = 3 + payload.len() as u64 + 1;
        let root = self.root();
        let off = root.alloc(words * 8, 8)?;
        root.store_u64(off, REC_MAGIC);
        root.store_u64(off + 8, tag);
        root.store_u64(off + 16, payload.len() as u64);
        for (i, w) in payload.iter().enumerate() {
            root.store_u64(off + 24 + 8 * i as u64, *w);
        }
        let mut sum = vec![REC_MAGIC, tag, payload.len() as u64];
        sum.extend_from_slice(&payload);
        root.store_u64(off + 24 + 8 * payload.len() as u64, fnv1a(&sum));
        root.persist(off, words * 8);
        Ok(off)
    }

    fn read_record(&self, off: PmOffset) -> Result<StoreKind, IndexError> {
        let root = self.root();
        // The name index hands over a bare offset: check it before the
        // first load, and again once the payload length sizes the record.
        let fits = |len: u64| {
            off.is_multiple_of(8) && off.checked_add(len).is_some_and(|end| end <= root.size())
        };
        if off == NULL_OFFSET || !fits(24) {
            return Err(corrupt(&format!(
                "store record offset {off:#x} is outside the root pool"
            )));
        }
        if root.load_u64(off) != REC_MAGIC {
            return Err(corrupt("store record magic mismatch"));
        }
        let tag = root.load_u64(off + 8);
        let n = root.load_u64(off + 16);
        if n > MAX_WORDS {
            return Err(corrupt("store record payload length is absurd"));
        }
        if !fits(8 * (n + 4)) {
            return Err(corrupt("store record runs past the end of the root pool"));
        }
        let mut words = vec![REC_MAGIC, tag, n];
        for i in 0..n {
            words.push(root.load_u64(off + 24 + 8 * i));
        }
        if root.load_u64(off + 24 + 8 * n) != fnv1a(&words) {
            return Err(corrupt("store record failed its checksum"));
        }
        let kind = StoreKind::decode(tag, &words[3..])?;
        for slot in kind.slots() {
            if slot >= self.pools.len() {
                return Err(corrupt(&format!(
                    "record references fleet slot {slot} but the fleet has {} pools",
                    self.pools.len()
                )));
            }
        }
        Ok(kind)
    }

    /// Writes and persists a rename intent record; the caller publishes
    /// it with a single store into the superblock's intent slot.
    fn write_intent(&self, rec: u64, old: &[u8], new: &[u8]) -> Result<PmOffset, IndexError> {
        let mut bytes = Vec::with_capacity(old.len() + new.len());
        bytes.extend_from_slice(old);
        bytes.extend_from_slice(new);
        let packed: Vec<u64> = bytes
            .chunks(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(b)
            })
            .collect();
        let words = 4 + packed.len() as u64 + 1;
        let root = self.root();
        let off = root.alloc(words * 8, 8)?;
        let mut all = vec![INTENT_MAGIC, rec, old.len() as u64, new.len() as u64];
        all.extend_from_slice(&packed);
        for (i, w) in all.iter().enumerate() {
            root.store_u64(off + 8 * i as u64, *w);
        }
        root.store_u64(off + 8 * all.len() as u64, fnv1a(&all));
        root.persist(off, words * 8);
        Ok(off)
    }

    /// Applies a rename's two index mutations so that re-running after
    /// any prefix of them is a no-op: insert the new mapping unless it
    /// already exists, then drop the old one if it still does.
    fn complete_rename(&self, rec: u64, old: &[u8], new: &[u8]) -> Result<(), IndexError> {
        if self.index.get(new).is_none() {
            self.index.insert(new, rec)?;
        }
        self.index.remove(old);
        Ok(())
    }

    /// The superblock's rename-intent slot.
    fn intent(&self) -> CommitCell {
        CommitCell::at(self.superblock + SB_INTENT)
    }

    /// Replays a published-but-unretired rename intent on open.
    fn replay_intent(&self) -> Result<(), IndexError> {
        let root = self.root();
        let Some(off) = self.intent().target(root, 32)? else {
            return Ok(());
        };
        if root.load_u64(off) != INTENT_MAGIC {
            return Err(corrupt("rename intent magic mismatch"));
        }
        let rec = root.load_u64(off + 8);
        let old_len = root.load_u64(off + 16);
        let new_len = root.load_u64(off + 24);
        if old_len > MAX_WORDS || new_len > MAX_WORDS {
            return Err(corrupt("rename intent name length is absurd"));
        }
        let packed_words = (old_len + new_len).div_ceil(8);
        // The lengths size the read below: the whole record, checksum
        // included, must lie inside the pool.
        self.intent().target(root, 8 * (4 + packed_words + 1))?;
        let mut all = vec![INTENT_MAGIC, rec, old_len, new_len];
        for i in 0..packed_words {
            all.push(root.load_u64(off + 32 + 8 * i));
        }
        if root.load_u64(off + 8 * all.len() as u64) != fnv1a(&all) {
            return Err(corrupt("rename intent failed its checksum"));
        }
        let mut bytes = Vec::with_capacity((packed_words * 8) as usize);
        for w in &all[4..] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let old = bytes[..old_len as usize].to_vec();
        let new = bytes[old_len as usize..(old_len + new_len) as usize].to_vec();
        self.complete_rename(rec, &old, &new)?;
        self.intent().publish(root, 0);
        Ok(())
    }
}

fn wrong_kind(name: &str, wanted: &str, got: &StoreKind) -> IndexError {
    corrupt(&format!("store {name:?} is not {wanted} (found {got:?})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use pmindex::PmIndex;

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
                    manifest_pool: 0,
                    shard_pools: vec![0, 7],
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
    fn rename_intent_replays_idempotently() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        cat.register("src", &StoreKind::Txn { pool: 0 }).unwrap();
        let rec = cat.index.get(b"src").unwrap();
        // Simulate a crash after the intent published but before either
        // index mutation: write + publish the intent by hand.
        let intent = cat.write_intent(rec, b"src", b"dst").unwrap();
        let root = cat.root();
        cat.intent().publish(root, intent);

        let cat2 = Catalog::open(reopen(&pools)).unwrap();
        assert_eq!(cat2.lookup("src"), None);
        assert_eq!(cat2.lookup("dst"), Some(StoreKind::Txn { pool: 0 }));
        // Replaying again (intent already retired) changes nothing.
        let cat3 = Catalog::open(reopen(&cat2.pools)).unwrap();
        assert_eq!(cat3.lookup("dst"), Some(StoreKind::Txn { pool: 0 }));
    }

    #[test]
    fn open_requires_a_catalog_and_create_refuses_a_second() {
        let p = pool();
        assert!(Catalog::open(vec![Arc::clone(&p)]).is_err());
        let _cat = Catalog::create(vec![Arc::clone(&p)]).unwrap();
        assert!(Catalog::create(vec![Arc::clone(&p)]).is_err());
        assert!(Catalog::open(vec![p]).is_ok());
    }

    #[test]
    fn a_flipped_record_offset_is_refused_not_a_panic() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        cat.register("kv", &StoreKind::Txn { pool: 0 }).unwrap();
        let rec = cat.index.get(b"kv").unwrap();
        let image = cat.root().volatile_image();
        // The one word of the root pool that holds the record offset: the
        // name index's value slot for "kv".
        let at: Vec<usize> = (0..image.len())
            .step_by(8)
            .filter(|&i| u64::from_le_bytes(image[i..i + 8].try_into().unwrap()) == rec)
            .collect();
        assert_eq!(at.len(), 1, "record offset {rec:#x} stored at {at:?}");
        let at = at[0];
        let mut panicked = Vec::new();
        for bit in 0..64 {
            let mut img = image.clone();
            let v = rec ^ (1 << bit);
            img[at..at + 8].copy_from_slice(&v.to_le_bytes());
            let root = Arc::new(Pool::from_image(&img, PoolConfig::default()).unwrap());
            match std::panic::catch_unwind(|| Catalog::open(vec![root])) {
                Ok(Ok(_) | Err(IndexError::Unsupported(_))) => {}
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
    fn verify_catches_a_corrupted_record() {
        let pools = vec![pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        cat.register("ok", &StoreKind::Txn { pool: 0 }).unwrap();
        let rec = cat.index.get(b"ok").unwrap();
        // Flip a payload bit without updating the checksum.
        cat.root().store_u64(rec + 24, 99);
        assert!(cat.verify().is_err());
        assert!(Catalog::open(reopen(&pools)).is_err());
    }

    #[test]
    fn all_four_kinds_roundtrip_through_records() {
        let pools = vec![pool(), pool(), pool()];
        let cat = Catalog::create(pools.clone()).unwrap();
        let kinds = [
            StoreKind::Index {
                pool: 1,
                superblock: 128,
            },
            StoreKind::VarKey {
                pool: 2,
                superblock: 256,
            },
            StoreKind::Sharded {
                manifest_pool: 0,
                shard_pools: vec![1, 2],
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
}

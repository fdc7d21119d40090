//! Bit flips in the commit words a reopen trusts: every flip must come
//! back from `open` / `recover` as `Ok` or a typed `IndexError`, never as
//! a panic or an abort.
//!
//! Each case builds a small deployment, images its pool, and then, for
//! each of the 64 bits of one word, remaps a copy of the image with that
//! bit flipped and reopens it under `catch_unwind`. An abort (an
//! allocation sized by a corrupt length word) takes the whole binary
//! down, so it fails the test too. The words:
//!
//! * the pool header's three commit cells (manifest, journal, catalog);
//! * the shard manifest record's entry count;
//! * the journal's entry count and capacity, with a committed batch left
//!   unapplied so that `recover` replays it, and one of its entries' op
//!   kind, which must not replay as the other op;
//! * the catalog superblock's rename-intent slot.
//!
//! The word offsets inside each record are the layouts documented in
//! `crates/shard/src/manifest.rs`, `crates/txn/src/lib.rs` and
//! `crates/catalog/src/lib.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use fastfair_repro::catalog::{Catalog, StoreKind};
use fastfair_repro::fastfair::FastFairTree;
use fastfair_repro::pmem::{CommitCell, Pool, PoolConfig};
use fastfair_repro::pmindex::{IndexError, PersistentIndex, PmIndex};
use fastfair_repro::shard::{Partitioning, ShardedStore};
use fastfair_repro::txn::{TxnEngine, WriteBatch};

const POOL: usize = 1 << 20;
/// Manifest record word 3: the number of shard entries.
const MANIFEST_COUNT: u64 = 24;
/// Journal region words 2–4: the applied sequence, the staged entry
/// count and the capacity; entries of four words (table, kind, key,
/// value) start at word 5.
const J_APPLIED: u64 = 16;
const J_COUNT: u64 = 24;
const J_CAP: u64 = 32;
const J_ENTRIES: u64 = 40;
const ENTRY_BYTES: u64 = 32;
/// Catalog superblock word 2: the rename-intent slot.
const SB_INTENT: u64 = 16;

fn mkpool() -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(POOL)).unwrap())
}

fn remap(image: &[u8]) -> Arc<Pool> {
    Arc::new(Pool::from_image(image, PoolConfig::new().size(POOL)).unwrap())
}

/// How the 64 reopens of one word went.
#[derive(Debug, Default)]
struct Outcome {
    ok: usize,
    refused: usize,
}

/// Flips each bit of the word at `word` in `image` in turn and runs
/// `reopen` on the remapped copy. Panics, naming the bits, if any reopen
/// panicked.
fn flip_each_bit<T>(
    what: &str,
    image: &[u8],
    word: u64,
    reopen: impl Fn(Arc<Pool>) -> Result<T, IndexError>,
) -> Outcome {
    let at = word as usize;
    let mut outcome = Outcome::default();
    let mut panicked = Vec::new();
    for bit in 0..64 {
        let mut img = image.to_vec();
        let v = u64::from_le_bytes(img[at..at + 8].try_into().unwrap()) ^ (1 << bit);
        img[at..at + 8].copy_from_slice(&v.to_le_bytes());
        let pool = remap(&img);
        match catch_unwind(AssertUnwindSafe(|| reopen(pool))) {
            Ok(Ok(_)) => outcome.ok += 1,
            Ok(Err(_)) => outcome.refused += 1,
            Err(_) => panicked.push(bit),
        }
    }
    assert!(
        panicked.is_empty(),
        "{what}: reopening panicked with bit(s) {panicked:?} flipped"
    );
    outcome
}

/// A two-shard hash store whose manifest lives in its own pool.
fn sharded() -> (Vec<u8>, Vec<Vec<u8>>) {
    let manifest = mkpool();
    let shards = vec![mkpool(), mkpool()];
    let store = ShardedStore::<FastFairTree>::create(
        Arc::clone(&manifest),
        shards.clone(),
        Partitioning::Hash { shards: 2 },
    )
    .unwrap();
    for k in 1..=100 {
        store.insert(k, k * 10).unwrap();
    }
    let images = shards.iter().map(|p| p.volatile_image()).collect();
    (manifest.volatile_image(), images)
}

fn open_sharded(manifest: Arc<Pool>, shards: &[Vec<u8>]) -> Result<usize, IndexError> {
    let pools = shards.iter().map(|i| remap(i)).collect();
    ShardedStore::<FastFairTree>::open(manifest, pools).map(|s| s.len())
}

#[test]
fn a_flipped_manifest_slot_or_count_is_refused() {
    let (image, shards) = sharded();
    let pool = remap(&image);
    assert_eq!(open_sharded(Arc::clone(&pool), &shards).unwrap(), 100);

    let slot = flip_each_bit(
        "manifest slot",
        &image,
        CommitCell::MANIFEST.offset(),
        |p| open_sharded(p, &shards),
    );
    assert_eq!(slot.refused, 64, "{slot:?}");

    let count = CommitCell::MANIFEST.load(&pool) + MANIFEST_COUNT;
    let count = flip_each_bit("manifest count", &image, count, |p| {
        open_sharded(p, &shards)
    });
    assert_eq!(count.refused, 64, "{count:?}");
}

/// A pool holding one tree and a journal whose last batch is committed
/// but, as after a crash mid-apply, not retired: `recover` replays it.
/// Returns the image and the tree's superblock.
fn pending_journal() -> (Vec<u8>, u64) {
    let pool = mkpool();
    let tree = FastFairTree::create_in(Arc::clone(&pool)).unwrap();
    let engine = TxnEngine::create(Arc::clone(&pool)).unwrap();
    let mut batch = WriteBatch::new();
    for k in 1..=5 {
        batch.put(0, k, k * 10);
    }
    engine.commit(batch, &[&tree]).unwrap();
    let journal = CommitCell::JOURNAL.load(&pool);
    pool.store_u64(journal + J_APPLIED, 0);
    (pool.volatile_image(), tree.superblock())
}

fn recover_journal(pool: Arc<Pool>, tree: u64) -> Result<usize, IndexError> {
    let tree = FastFairTree::open_in(Arc::clone(&pool), tree)?;
    TxnEngine::open(pool)?.recover(&[&tree])
}

#[test]
fn a_flipped_journal_slot_count_or_capacity_is_survived() {
    let (image, tree) = pending_journal();
    let pool = remap(&image);
    assert_eq!(recover_journal(Arc::clone(&pool), tree).unwrap(), 5);
    let recover = |p| recover_journal(p, tree);

    let slot = flip_each_bit(
        "journal slot",
        &image,
        CommitCell::JOURNAL.offset(),
        recover,
    );
    assert_eq!(slot.refused, 64, "{slot:?}");

    let journal = CommitCell::JOURNAL.load(&pool);
    let count = flip_each_bit("journal count", &image, journal + J_COUNT, recover);
    assert!(count.refused > 0, "{count:?}");
    let cap = flip_each_bit("journal capacity", &image, journal + J_CAP, recover);
    assert!(cap.refused > 0, "{cap:?}");
}

/// A flipped op kind must not turn the pending batch's third put into a
/// delete (or anything else): replay refuses the batch before applying
/// any entry, so the table keeps every row. The same goes for a put whose
/// value word became reserved.
#[test]
fn a_flipped_journal_entry_kind_is_refused() {
    let (image, tree) = pending_journal();
    let entry = CommitCell::JOURNAL.load(&remap(&image)) + J_ENTRIES + 2 * ENTRY_BYTES;
    let rows: Vec<(u64, u64)> = (1..=5).map(|k| (k, k * 10)).collect();
    let replay = |img: &[u8]| {
        let pool = remap(img);
        let table = FastFairTree::open_in(Arc::clone(&pool), tree).unwrap();
        let replayed = TxnEngine::open(pool).unwrap().recover(&[&table]);
        let mut got = Vec::new();
        table.range(0, u64::MAX, &mut got);
        (replayed, got)
    };
    let mut damaged = Vec::new();
    for bit in 0..64 {
        let mut img = image.clone();
        let at = (entry + 8) as usize;
        let kind = u64::from_le_bytes(img[at..at + 8].try_into().unwrap()) ^ (1 << bit);
        img[at..at + 8].copy_from_slice(&kind.to_le_bytes());
        let (replayed, got) = replay(&img);
        if !matches!(replayed, Ok(_) | Err(IndexError::Unsupported(_))) || got != rows {
            damaged.push((bit, replayed));
        }
    }
    assert!(
        damaged.is_empty(),
        "flipped kind bits replayed wrongly: {damaged:?}"
    );

    let mut img = image.clone();
    let at = (entry + 24) as usize;
    img[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let (replayed, got) = replay(&img);
    assert!(
        matches!(replayed, Err(IndexError::Unsupported(_))),
        "{replayed:?}"
    );
    assert_eq!(got, rows);
}

fn catalog() -> Vec<u8> {
    let root = mkpool();
    let cat = Catalog::create(vec![Arc::clone(&root)]).unwrap();
    cat.register("journal", &StoreKind::Txn { pool: 0 })
        .unwrap();
    cat.rename("journal", "log").unwrap();
    root.volatile_image()
}

fn open_catalog(pool: Arc<Pool>) -> Result<Vec<String>, IndexError> {
    Catalog::open(vec![pool]).map(|c| c.names())
}

#[test]
fn a_flipped_catalog_slot_or_intent_slot_is_refused() {
    let image = catalog();
    let pool = remap(&image);
    assert_eq!(open_catalog(Arc::clone(&pool)).unwrap(), vec!["log"]);

    let slot = flip_each_bit(
        "catalog slot",
        &image,
        CommitCell::CATALOG.offset(),
        open_catalog,
    );
    assert_eq!(slot.refused, 64, "{slot:?}");

    let intent = CommitCell::CATALOG.load(&pool) + SB_INTENT;
    let intent = flip_each_bit("catalog intent slot", &image, intent, open_catalog);
    assert_eq!(intent.refused, 64, "{intent:?}");
}

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
//! * the pool header's two commit cells (journal, catalog);
//! * the journal's entry count and capacity, with a committed batch left
//!   unapplied so that `recover` replays it, and one of its entries' table
//!   id and op kind, which must not replay into another table or as the
//!   other op;
//! * every word of the catalog record, which names a sharded store among
//!   others;
//! * a FAST+FAIR superblock's magic, node-size and root words, and its
//!   strategy, undo-log head and retired word 48 (which held the undo
//!   area's offset) on a FAIR tree and on a logging tree with a pending
//!   undo image, and word 48 again on a logging tree at rest, which then
//!   takes inserts.
//!
//! The last three cases are the baseline indexes (wB+-tree, FP-tree, WORT,
//! skip list): each opened at offsets that cannot hold its superblock, as
//! a corrupt or mistaken catalog entry would name them, each with a bit of
//! its root or head word (and FP-tree's micro-log word) flipped, then read
//! key by key, and wB+-tree's undo-log head flipped bit by bit.
//!
//! The word offsets inside each record are the layouts documented in
//! `pmem::CommitCell::publish_record`, `crates/txn/src/lib.rs` and
//! `crates/core/src/tree.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use fastfair_repro::catalog::{Catalog, StoreKind};
use fastfair_repro::fastfair::{FastFairTree, SplitStrategy, TreeOptions};
use fastfair_repro::fptree::FpTree;
use fastfair_repro::pmem::{CommitCell, Pool, PoolConfig};
use fastfair_repro::pmindex::{IndexError, PersistentIndex, PmIndex};
use fastfair_repro::pskiplist::PSkipList;
use fastfair_repro::shard::{Partitioning, ShardedStore};
use fastfair_repro::txn::{TxnEngine, WriteBatch};
use fastfair_repro::wbtree::WbTree;
use fastfair_repro::wort::Wort;

const POOL: usize = 1 << 20;
/// Journal region words 2–4: the applied sequence, the staged entry
/// count and the capacity; entries of four words (table, kind, key,
/// value) start at word 5.
const J_APPLIED: u64 = 16;
const J_COUNT: u64 = 24;
const J_CAP: u64 = 32;
const J_ENTRIES: u64 = 40;
const ENTRY_BYTES: u64 = 32;
/// Tree superblock words: magic, root, node size, strategy bits, undo-log
/// head (the node a logging split is rewriting) and word 48, retired: it
/// held the undo area's offset. A logging tree's undo area (a target tag,
/// then the node's image) follows its superblock at byte 64.
const TREE_MAGIC: u64 = 0;
const TREE_ROOT: u64 = 8;
const TREE_NODE_SIZE: u64 = 16;
const TREE_STRATEGY: u64 = 24;
const TREE_LOG_HEAD: u64 = 32;
const TREE_LOG_AREA: u64 = 48;
const TREE_UNDO_AREA: u64 = 64;

fn mkpool() -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(POOL)).unwrap())
}

fn remap(image: &[u8]) -> Arc<Pool> {
    Arc::new(Pool::from_image(image, PoolConfig::new().size(POOL)).unwrap())
}

/// `image` with bit `bit` of the word at byte `at` flipped.
fn flipped(image: &[u8], at: u64, bit: u32) -> Vec<u8> {
    let mut img = image.to_vec();
    let at = at as usize;
    let v = u64::from_le_bytes(img[at..at + 8].try_into().unwrap()) ^ (1 << bit);
    img[at..at + 8].copy_from_slice(&v.to_le_bytes());
    img
}

/// How the 64 reopens of one word went.
#[derive(Debug, Default)]
struct Outcome {
    ok: usize,
    refused: usize,
    /// Bit `b` is set if flipping bit `b` was refused as `Unsupported`.
    unsupported: u64,
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
    let mut outcome = Outcome::default();
    let mut panicked = Vec::new();
    for bit in 0..64 {
        let pool = remap(&flipped(image, word, bit));
        match catch_unwind(AssertUnwindSafe(|| reopen(pool))) {
            Ok(Ok(_)) => outcome.ok += 1,
            Ok(Err(e)) => {
                outcome.refused += 1;
                if matches!(e, IndexError::Unsupported(_)) {
                    outcome.unsupported |= 1 << bit;
                }
            }
            Err(_) => panicked.push(bit),
        }
    }
    assert!(
        panicked.is_empty(),
        "{what}: reopening panicked with bit(s) {panicked:?} flipped"
    );
    outcome
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

/// Replays the journal in `img` against its one table and returns what
/// `recover` said and every row the table then holds.
fn replay(img: &[u8], tree: u64) -> (Result<usize, IndexError>, Vec<(u64, u64)>) {
    let pool = remap(img);
    let table = FastFairTree::open_in(Arc::clone(&pool), tree).unwrap();
    let replayed = TxnEngine::open(pool).unwrap().recover(&[&table]);
    let mut got = Vec::new();
    table.range(0, u64::MAX, &mut got);
    (replayed, got)
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
    let mut damaged = Vec::new();
    for bit in 0..64 {
        let (replayed, got) = replay(&flipped(&image, entry + 8, bit), tree);
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
    let (replayed, got) = replay(&img, tree);
    assert!(
        matches!(replayed, Err(IndexError::Unsupported(_))),
        "{replayed:?}"
    );
    assert_eq!(got, rows);
}

/// A flipped table id names a table `recover` was not passed (it was
/// passed one): replay refuses the batch before applying any entry.
#[test]
fn a_flipped_journal_table_id_is_refused() {
    let (image, tree) = pending_journal();
    let entry = CommitCell::JOURNAL.load(&remap(&image)) + J_ENTRIES + 2 * ENTRY_BYTES;
    let rows: Vec<(u64, u64)> = (1..=5).map(|k| (k, k * 10)).collect();
    let mut damaged = Vec::new();
    for bit in 0..64 {
        let (replayed, got) = replay(&flipped(&image, entry, bit), tree);
        if !matches!(replayed, Err(IndexError::Unsupported(_))) || got != rows {
            damaged.push((bit, replayed));
        }
    }
    assert!(
        damaged.is_empty(),
        "flipped table-id bits replayed wrongly: {damaged:?}"
    );
}

/// A catalog naming a journal and a two-shard store whose trees share
/// its pool.
fn catalog() -> Vec<u8> {
    let root = mkpool();
    let cat = Catalog::create(vec![Arc::clone(&root)]).unwrap();
    cat.register("journal", &StoreKind::Txn { pool: 0 })
        .unwrap();
    cat.rename("journal", "log").unwrap();
    let trees: Vec<FastFairTree> = (0..2)
        .map(|_| FastFairTree::create_in(Arc::clone(&root)).unwrap())
        .collect();
    let kind = StoreKind::Sharded {
        shards: trees.iter().map(|t| (0, t.superblock())).collect(),
    };
    let store = ShardedStore::from_indexes(trees, Partitioning::Hash { shards: 2 });
    for k in 1..=100 {
        store.insert(k, k * 10).unwrap();
    }
    cat.register("wide", &kind).unwrap();
    root.volatile_image()
}

/// The catalog's names and the sharded store's length.
fn open_catalog(pool: Arc<Pool>) -> Result<(Vec<String>, usize), IndexError> {
    let cat = Catalog::open(vec![pool])?;
    let wide = cat.open_sharded::<FastFairTree>("wide")?;
    Ok((cat.names(), wide.len()))
}

#[test]
fn a_flipped_catalog_slot_or_record_word_is_refused() {
    let image = catalog();
    let pool = remap(&image);
    assert_eq!(
        open_catalog(Arc::clone(&pool)).unwrap(),
        (vec!["log".to_string(), "wide".to_string()], 100)
    );

    let slot = flip_each_bit(
        "catalog slot",
        &image,
        CommitCell::CATALOG.offset(),
        open_catalog,
    );
    assert_eq!(slot.refused, 64, "{slot:?}");

    // The record: magic, payload length, checksum, then the payload.
    let record = CommitCell::CATALOG.load(&pool);
    let words = 3 + pool.load_u64(record + 8);
    for w in 0..words {
        let what = format!("catalog record word {w}");
        let word = flip_each_bit(&what, &image, record + 8 * w, open_catalog);
        assert_eq!(word.unsupported, u64::MAX, "{what}: {word:?}");
    }
}

/// A 199-key tree: its image and superblock offset.
fn tree() -> (Vec<u8>, u64) {
    let pool = mkpool();
    let tree = FastFairTree::create_in(Arc::clone(&pool)).unwrap();
    for k in 1..=199 {
        tree.insert(k, k * 10).unwrap();
    }
    (pool.volatile_image(), tree.superblock())
}

/// Every flip of a tree superblock's magic, node-size or root word opens
/// to `Ok` or `Unsupported`; a root flipped off 64-byte alignment or out
/// of the pool is refused. A root flipped onto another aligned in-pool
/// offset opens, and reads through whatever lies there: telling it from
/// the real root would take a superblock checksum, which the tree does
/// not keep.
#[test]
fn a_flipped_tree_superblock_is_refused_not_a_panic() {
    let (image, meta) = tree();
    let open = |p| FastFairTree::open_in(p, meta);
    assert_eq!(open(remap(&image)).unwrap().get(5), Some(50));
    for (what, word) in [
        ("tree magic", TREE_MAGIC),
        ("tree node size", TREE_NODE_SIZE),
        ("tree root", TREE_ROOT),
    ] {
        let out = flip_each_bit(what, &image, meta + word, open);
        assert_eq!(
            out.ok + out.unsupported.count_ones() as usize,
            64,
            "{what}: {out:?}"
        );
        if word == TREE_ROOT {
            let misaligned = (1 << 6) - 1;
            let outside = !((POOL as u64) - 1);
            let must = misaligned | outside;
            assert_eq!(out.unsupported & must, must, "{what}: {out:?}");
        }
    }
}

/// A 199-key logging tree caught mid-split: the root's undo image is in
/// the undo area, tagged with the root, and the log head names the root.
/// Its image and superblock offset.
fn logging_tree_mid_split() -> (Vec<u8>, u64) {
    let pool = mkpool();
    let opts = TreeOptions::new().split(SplitStrategy::Logging);
    let tree = FastFairTree::create(Arc::clone(&pool), opts).unwrap();
    for k in 1..=199 {
        tree.insert(k, k * 10).unwrap();
    }
    let meta = tree.meta_offset();
    let node = pool.load_u64(meta + TREE_ROOT);
    let area = meta + TREE_UNDO_AREA;
    pool.store_u64(area, node);
    for w in 0..512 / 8 {
        pool.store_u64(area + 8 + w * 8, pool.load_u64(node + w * 8));
    }
    CommitCell::at(meta + TREE_LOG_HEAD).publish(&pool, node);
    (pool.volatile_image(), meta)
}

/// Every flip of a tree's strategy, undo-log head or undo-log area word
/// opens to `Ok` or `Unsupported`, on a FAIR tree and on a logging tree
/// with a pending undo image. The rollback follows the head and the area
/// only once the area's target tag names the head's node: a FAIR tree has
/// no area, so any head is refused, and so is any flipped head of the
/// logging tree; a strategy that turns a FAIR tree into a logging one
/// names no area and is refused too.
#[test]
fn a_flipped_tree_log_word_is_refused_not_a_panic() {
    let open = |meta| move |p| FastFairTree::open(p, meta, TreeOptions::new());
    let (fair, fair_meta) = tree();
    let (logging, logging_meta) = logging_tree_mid_split();
    let reopened = open(logging_meta)(remap(&logging)).unwrap();
    assert_eq!(reopened.name(), "FAST+Logging");
    assert_eq!(reopened.pool().load_u64(logging_meta + TREE_LOG_HEAD), 0);
    assert!((1..=199).all(|k| reopened.get(k) == Some(k * 10)));
    for (tree, image, meta) in [
        ("FAIR", &fair, fair_meta),
        ("logging", &logging, logging_meta),
    ] {
        for (what, word) in [
            ("strategy", TREE_STRATEGY),
            ("undo-log head", TREE_LOG_HEAD),
            ("undo-log area", TREE_LOG_AREA),
        ] {
            let what = format!("{tree} tree {what}");
            let out = flip_each_bit(&what, image, meta + word, open(meta));
            assert_eq!(
                out.ok + out.unsupported.count_ones() as usize,
                64,
                "{what}: {out:?}"
            );
            let must = match (tree, word) {
                ("FAIR", TREE_STRATEGY) => 1,
                ("FAIR", TREE_LOG_HEAD) => u64::MAX,
                ("logging", TREE_LOG_HEAD | TREE_LOG_AREA) => u64::MAX,
                _ => 0,
            };
            assert_eq!(out.unsupported & must, must, "{what}: {out:?}");
        }
    }
}

/// Every flip of word 48 of a logging tree with no split pending opens to
/// `Ok` or `Unsupported`, and a tree that opens takes 1 800 inserts — each
/// leaf split writing its undo image — and stays whole. Word 48 once held
/// the undo area's offset, and a flip that kept it inside the pool sent
/// the next split's undo image over live nodes.
#[test]
fn a_flipped_undo_area_word_cannot_redirect_a_split() {
    let pool = mkpool();
    let opts = TreeOptions::new().split(SplitStrategy::Logging);
    let tree = FastFairTree::create(Arc::clone(&pool), opts).unwrap();
    for k in 1..=199 {
        tree.insert(k, k * 10).unwrap();
    }
    let (image, meta) = (pool.volatile_image(), tree.meta_offset());
    let reopen = |p| {
        let tree = FastFairTree::open(p, meta, TreeOptions::new())?;
        for k in 200..2_000 {
            tree.insert(k, k * 10).unwrap();
        }
        assert!((1..2_000).all(|k| tree.get(k) == Some(k * 10)));
        tree.check_consistency(true).unwrap();
        Ok::<_, IndexError>(())
    };
    reopen(remap(&image)).unwrap();
    let what = "logging tree at rest, word 48";
    let out = flip_each_bit(what, &image, meta + TREE_LOG_AREA, reopen);
    assert_eq!(
        out.ok + out.unsupported.count_ones() as usize,
        64,
        "{what}: {out:?}"
    );
}

/// Opens a baseline at an offset past the pool's end, at one off 8-byte
/// (and so 64-byte) alignment, and at a zeroed block, both with its own
/// `open` and through a catalog entry naming that offset: each must be
/// `Unsupported`, never a panic in the pool's bounds check.
fn refuses_bad_superblocks<T: PersistentIndex>(open: fn(Arc<Pool>, u64) -> Result<T, IndexError>) {
    let pool = mkpool();
    let cat = Catalog::create(vec![Arc::clone(&pool)]).unwrap();
    let zeroed = pool.alloc(64, 64).unwrap();
    pool.zero_region(zeroed, 64);
    for (what, meta) in [
        ("past_end", POOL as u64 + 64),
        ("unaligned", zeroed + 4),
        ("zeroed", zeroed),
    ] {
        cat.register(
            what,
            &StoreKind::Index {
                pool: 0,
                superblock: meta,
            },
        )
        .unwrap();
        let direct = catch_unwind(AssertUnwindSafe(|| open(Arc::clone(&pool), meta).err()));
        let listed = catch_unwind(AssertUnwindSafe(|| cat.open_store::<T>(what).err()));
        for (how, got) in [("open", direct), ("open_store", listed)] {
            assert!(
                matches!(got, Ok(Some(IndexError::Unsupported(_)))),
                "{} {how} at {what} ({meta:#x}): {got:?}",
                std::any::type_name::<T>()
            );
        }
    }
}

#[test]
fn a_baseline_opened_at_a_bad_superblock_offset_is_refused_not_a_panic() {
    refuses_bad_superblocks(WbTree::open);
    refuses_bad_superblocks(FpTree::open);
    refuses_bad_superblocks(Wort::open);
    refuses_bad_superblocks(PSkipList::open);
}

/// Baseline superblock words past the magic that `open` follows: the
/// root (wB+-tree, WORT) or head (FP-tree, skip list) at word 1, and
/// FP-tree's micro-log area at word 2.
const BASELINE_ROOT: u64 = 8;
const FPTREE_ULOG: u64 = 16;

/// Flips each bit of each of `words` in the superblock of a 2 000-key `T`,
/// then opens it and gets every key, all under `catch_unwind`: no flip may
/// panic, and one that moves the word off 64-byte alignment or out of the
/// pool must be refused as `Unsupported`. A flip onto another aligned
/// in-pool offset may open and read wrong values: telling it from the real
/// one would take a superblock checksum, which no baseline keeps.
fn flipped_pointer_words_are_refused_not_a_panic<T: PersistentIndex>(words: &[u64]) {
    const KEYS: u64 = 2_000;
    let pool = mkpool();
    let store = T::create_in(Arc::clone(&pool)).unwrap();
    for k in 1..=KEYS {
        store.insert(k, k * 10).unwrap();
    }
    let (image, meta) = (pool.volatile_image(), store.superblock());
    drop(store);
    let open_and_read = |pool| {
        T::open_in(pool, meta).map(|t| (1..=KEYS).filter(|&k| t.get(k) == Some(k * 10)).count())
    };
    assert_eq!(open_and_read(remap(&image)).unwrap(), KEYS as usize);
    let name = std::any::type_name::<T>();
    for &word in words {
        let what = format!("{name} superblock word {}", word / 8);
        let out = flip_each_bit(&what, &image, meta + word, open_and_read);
        let misaligned = (1 << 6) - 1;
        let outside = !((POOL as u64) - 1);
        let must = misaligned | outside;
        assert_eq!(out.unsupported & must, must, "{what}: {out:?}");
    }
}

#[test]
fn a_flipped_baseline_root_or_head_word_is_refused_not_a_panic() {
    flipped_pointer_words_are_refused_not_a_panic::<WbTree>(&[BASELINE_ROOT]);
    flipped_pointer_words_are_refused_not_a_panic::<FpTree>(&[BASELINE_ROOT, FPTREE_ULOG]);
    flipped_pointer_words_are_refused_not_a_panic::<Wort>(&[BASELINE_ROOT]);
    flipped_pointer_words_are_refused_not_a_panic::<PSkipList>(&[BASELINE_ROOT]);
}

/// wB+-tree superblock word 2: the undo-log head, a flag that is 1 while a
/// structure modification's undo images are pending.
const WBTREE_LOG_HEAD: u64 = 16;

/// Flips each bit of a resting 2 000-key wB+-tree's undo-log head (0).
/// Bits 1–63 make a value no writer stores, which `open` must refuse as
/// `Unsupported` instead of rolling the log area's stale images over live
/// nodes. Bit 0 makes the head 1, a pending log: it still opens and rolls
/// back, and only a log that carries its own validity can tell it from a
/// real one (ROADMAP item 24).
#[test]
fn a_flipped_wb_tree_log_head_is_refused_unless_it_reads_pending() {
    const KEYS: u64 = 2_000;
    let pool = mkpool();
    let tree = WbTree::create(Arc::clone(&pool)).unwrap();
    for k in 1..=KEYS {
        tree.insert(k, k * 10).unwrap();
    }
    let (image, meta) = (pool.volatile_image(), tree.meta_offset());
    drop(tree);
    let out = flip_each_bit(
        "wB+-tree log head",
        &image,
        meta + WBTREE_LOG_HEAD,
        |pool| WbTree::open(pool, meta),
    );
    assert_eq!((out.ok, out.unsupported), (1, !1), "{out:?}");
}

//! Crash sweep of the commit primitive itself: a payload is persisted and
//! then published through a [`CommitCell`] over an older one, and every
//! crash cut of that sequence, under no eviction, full eviction and a
//! seeded random eviction, must read back through the cell's checked
//! read as the old payload or the new one, whole. Once the publish's
//! flush is in the log, the new payload is the only answer.
//!
//! Eviction seeds are salted with `FF_CRASH_SEED` (`pmem::crash::env_seed`)
//! so the CI crash matrix varies the explored prefixes per leg.

use pmem::crash::{Event, Eviction};
use pmem::{stats, CommitCell, PmOffset, Pool, PoolConfig};

const POOL: usize = 1 << 16;
/// Payload words: three cache lines, so eviction can tear it.
const WORDS: u64 = 24;

fn write_payload(pool: &Pool, off: PmOffset, tag: u64) {
    for i in 0..WORDS {
        pool.store_u64(off + 8 * i, tag * 1000 + i);
    }
}

/// The payload the cell names in `pool`, as its tag; panics on a torn or
/// unpersisted payload.
fn read_payload(pool: &Pool, cell: CommitCell) -> u64 {
    let off = cell
        .target(pool, WORDS * 8)
        .expect("a published cell names a payload inside the pool")
        .expect("a published cell is never null");
    let tag = pool.load_u64(off) / 1000;
    for i in 0..WORDS {
        assert_eq!(
            pool.load_u64(off + 8 * i),
            tag * 1000 + i,
            "payload at {off:#x} is torn at word {i}"
        );
    }
    tag
}

#[test]
fn every_cut_reads_the_old_payload_or_the_new_one() {
    let pool = Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap();
    let cell = CommitCell::JOURNAL;
    let old = pool.alloc(WORDS * 8, 64).unwrap();
    write_payload(&pool, old, 1);
    pool.persist(old, WORDS * 8);
    cell.publish(&pool, old);
    let log = pool.crash_log().unwrap();
    log.set_baseline(pool.volatile_image());

    let new = pool.alloc(WORDS * 8, 64).unwrap();
    write_payload(&pool, new, 2);
    pool.persist(new, WORDS * 8);
    cell.publish(&pool, new);
    let events = log.events();
    // The publish is the log's last two events: its store, its flush.
    let published = events.len() - 1;
    assert_eq!(
        events[published - 1],
        Event::Store {
            off: cell.offset(),
            val: new
        }
    );

    for cut in 0..=events.len() {
        for policy in [
            Eviction::None,
            Eviction::All,
            Eviction::random_with_env(cut as u64),
        ] {
            let image = pool.crash_image(cut, policy.clone());
            let reopened = Pool::from_image(&image, PoolConfig::new().size(POOL)).unwrap();
            let tag = read_payload(&reopened, cell);
            if cut > published {
                assert_eq!(
                    tag, 2,
                    "cut {cut} under {policy:?} lost a published payload"
                );
            } else if cut < published - 1 {
                assert_eq!(
                    tag, 1,
                    "cut {cut} under {policy:?} read an unpublished payload"
                );
            } else {
                assert!(tag == 1 || tag == 2, "cut {cut} under {policy:?}");
            }
        }
    }
}

#[test]
fn one_publish_is_one_store_one_flush_one_fence() {
    let pool = Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap();
    let cell = CommitCell::at(pool.alloc(64, 64).unwrap());
    let log = pool.crash_log().unwrap();
    for v in [7, 8] {
        let before = log.len();
        stats::reset();
        cell.publish(&pool, v);
        let s = stats::take();
        assert_eq!((s.flushes, s.fences), (1, 1));
        assert_eq!(
            log.events()[before..],
            [
                Event::Store {
                    off: cell.offset(),
                    val: v
                },
                Event::FlushLine {
                    line: cell.offset()
                },
            ]
        );
        assert_eq!(cell.load(&pool), v);
    }
}

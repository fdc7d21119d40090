//! Crash simulation: enumerate every post-crash persistent-memory image.
//!
//! The paper argues (§3, §5.7) that a crash at *any* point during a FAST or
//! FAIR modification leaves the tree in a state that readers tolerate and a
//! later writer repairs. Their evidence is a concurrency experiment standing
//! in for a physical power-off test. We can do better in simulation: record
//! every 8-byte store and every cache-line flush, then *replay* the log up to
//! an arbitrary crash point.
//!
//! # The crash model
//!
//! Under TSO, stores reach the cache in program order, and a dirty cache line
//! can be written back (evicted) at any moment, independently of other lines.
//! Therefore, for each line, the set of persisted states reachable at a crash
//! is exactly: *the last explicitly flushed content, plus some prefix of the
//! unflushed stores to that line*. Cross-line ordering is only guaranteed by
//! explicit flush + fence, which the log captures as [`Event::FlushLine`].
//!
//! [`CrashLog::replay`] materializes the persistent image for a crash at
//! event index `cut`, calling a chooser for every still-dirty line to pick
//! how many of its pending stores were evicted. Exhaustive tests sweep both
//! `cut` and the per-line choices; see `tests/crash_recovery.rs` at the
//! workspace root.

use parking_lot::Mutex;

use crate::pool::{PmOffset, CACHE_LINE};

/// One entry in the crash log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An 8-byte store of `val` at pool offset `off`.
    Store {
        /// Pool offset (8-byte aligned).
        off: PmOffset,
        /// Value stored.
        val: u64,
    },
    /// A cache-line flush of the line starting at `line`.
    FlushLine {
        /// Line-aligned pool offset.
        line: u64,
    },
}

/// Recorded sequence of stores and flushes for crash replay.
#[derive(Debug, Default)]
pub struct CrashLog {
    events: Mutex<Vec<Event>>,
    /// Baseline persistent image; `None` means all-zeros.
    baseline: Mutex<Option<Vec<u8>>>,
}

impl CrashLog {
    /// Creates an empty log with an all-zero baseline.
    pub fn new() -> CrashLog {
        CrashLog::default()
    }

    /// Appends an event.
    pub fn record(&self, ev: Event) {
        self.events.lock().push(ev);
    }

    /// Runs `f` with the event list locked — lets the pool make a
    /// store-plus-dirty-bit (or flush-elision-plus-event) decision atomic
    /// with respect to concurrent loggers, so the replayed event order can
    /// never claim durability the dirty-line tracking denied.
    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&mut Vec<Event>) -> R) -> R {
        f(&mut self.events.lock())
    }

    /// Number of events recorded so far. Crash points range over
    /// `0..=len()`.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Clears the log and makes `image` the new baseline: everything up to
    /// this moment is considered durable.
    ///
    /// Use after pre-loading a structure, so crash points enumerate only the
    /// operations under test.
    pub fn set_baseline(&self, image: Vec<u8>) {
        *self.baseline.lock() = Some(image);
        self.events.lock().clear();
    }

    /// Returns a copy of the events (for diagnostics / shrinking).
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Replays events `[0, cut)` and materializes a persistent image of
    /// `pool_size` bytes.
    ///
    /// For every cache line left dirty at the crash point, `choose(line, n)`
    /// picks how many of its `n` pending stores were evicted before the
    /// crash (`0..=n`); returns are clamped to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `cut` exceeds the number of recorded events.
    pub fn replay(
        &self,
        pool_size: usize,
        cut: usize,
        mut choose: impl FnMut(u64, usize) -> usize,
    ) -> Vec<u8> {
        let events = self.events.lock();
        assert!(
            cut <= events.len(),
            "crash point {cut} beyond log length {}",
            events.len()
        );
        let baseline = self.baseline.lock();
        let mut persistent = match &*baseline {
            Some(img) => {
                let mut v = img.clone();
                v.resize(pool_size, 0);
                v
            }
            None => vec![0u8; pool_size],
        };
        let mut volatile = persistent.clone();
        // line offset -> indices of pending (unflushed) stores, in order.
        let mut pending: std::collections::BTreeMap<u64, Vec<(PmOffset, u64)>> =
            std::collections::BTreeMap::new();

        let line_of = |off: PmOffset| off & !(CACHE_LINE as u64 - 1);
        let apply = |img: &mut [u8], off: PmOffset, val: u64| {
            img[off as usize..off as usize + 8].copy_from_slice(&val.to_le_bytes());
        };

        for ev in events.iter().take(cut) {
            match *ev {
                Event::Store { off, val } => {
                    apply(&mut volatile, off, val);
                    pending.entry(line_of(off)).or_default().push((off, val));
                }
                Event::FlushLine { line } => {
                    if pending.remove(&line).is_some() {
                        let s = line as usize;
                        let e = (s + CACHE_LINE).min(pool_size);
                        persistent[s..e].copy_from_slice(&volatile[s..e]);
                    }
                    // Flushing a clean line is a no-op.
                }
            }
        }

        // Crash: each dirty line independently persisted some prefix of its
        // pending stores.
        for (line, stores) in pending {
            let k = choose(line, stores.len()).min(stores.len());
            for &(off, val) in stores.iter().take(k) {
                apply(&mut persistent, off, val);
            }
        }
        persistent
    }
}

/// The crash-sweep seed injected through the environment: `FF_CRASH_SEED`
/// parsed as a `u64`, or 0 when unset or unparsable.
///
/// CI's crash-matrix job runs every `crash_*` test target once per seed,
/// so the pseudo-random eviction choices (and anything else a sweep
/// derives from this) cover a different slice of the reachable crash
/// states on each matrix leg instead of re-testing one fixed slice.
/// Sweeps stay fully deterministic *per seed*.
pub fn env_seed() -> u64 {
    std::env::var("FF_CRASH_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Ready-made eviction policies for [`crate::Pool::crash_image`].
#[derive(Debug, Clone)]
pub enum Eviction {
    /// No dirty line was evicted: only explicitly flushed data survives.
    /// The *minimal* persisted state.
    None,
    /// Every dirty line was fully evicted just before the crash: the crash
    /// image equals the volatile image. The *maximal* persisted state.
    All,
    /// Each dirty line independently persists a pseudo-random prefix of its
    /// pending stores, derived from the seed and the line address.
    Random(
        /// Seed for the per-line prefix choice.
        u64,
    ),
}

impl Eviction {
    /// Pseudo-random eviction whose seed mixes `salt` (typically the cut
    /// index, so adjacent crash points draw different prefixes) with the
    /// environment-injected sweep seed ([`env_seed`]) — what every crash
    /// sweep in this repository uses so the CI seed matrix actually
    /// varies the explored evictions.
    pub fn random_with_env(salt: u64) -> Eviction {
        // SplitMix64 the env seed so seed 0 and seed 1 diverge everywhere,
        // not just in the low bits.
        let mut z = env_seed().wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Eviction::Random((z ^ (z >> 31)).wrapping_add(salt))
    }

    /// Chooses the evicted-store prefix length for a dirty line with `n`
    /// pending stores.
    pub fn choose(&mut self, line: u64, n: usize) -> usize {
        match self {
            Eviction::None => 0,
            Eviction::All => n,
            Eviction::Random(seed) => {
                // SplitMix64 over (seed, line): deterministic per line.
                let mut z = seed.wrapping_add(line).wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                (z as usize) % (n + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Pool, PoolConfig};
    use crate::CommitCell;

    fn crash_pool() -> Pool {
        Pool::new(PoolConfig::new().size(1 << 16).crash_log(true)).unwrap()
    }

    fn read_u64(img: &[u8], off: u64) -> u64 {
        u64::from_le_bytes(img[off as usize..off as usize + 8].try_into().unwrap())
    }

    #[test]
    fn unflushed_store_lost_without_eviction() {
        let p = crash_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 99);
        let cut = p.crash_log().unwrap().len();
        let img = p.crash_image(cut, Eviction::None);
        assert_eq!(read_u64(&img, off), 0);
        let img = p.crash_image(cut, Eviction::All);
        assert_eq!(read_u64(&img, off), 99);
    }

    #[test]
    fn flushed_store_survives() {
        let p = crash_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 1234);
        p.persist(off, 8);
        let cut = p.crash_log().unwrap().len();
        let img = p.crash_image(cut, Eviction::None);
        assert_eq!(read_u64(&img, off), 1234);
    }

    #[test]
    fn prefix_order_respected_within_line() {
        let p = crash_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 1); // store A
        p.store_u64(off + 8, 2); // store B
        let cut = p.crash_log().unwrap().len();
        // Evict exactly one store: must be A (prefix), never B alone.
        let img = p.crash_image_with(cut, |_line, _n| 1);
        assert_eq!(read_u64(&img, off), 1);
        assert_eq!(read_u64(&img, off + 8), 0);
    }

    #[test]
    fn lines_evict_independently() {
        let p = crash_pool();
        let a = p.alloc(64, 64).unwrap();
        let b = p.alloc(64, 64).unwrap();
        assert_ne!(a & !63, b & !63);
        p.store_u64(a, 11);
        p.store_u64(b, 22);
        let cut = p.crash_log().unwrap().len();
        let img = p.crash_image_with(cut, |line, n| if line == (b & !63) { n } else { 0 });
        assert_eq!(read_u64(&img, a), 0);
        assert_eq!(read_u64(&img, b), 22);
    }

    #[test]
    fn crash_at_intermediate_cut() {
        let p = crash_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 1);
        p.persist(off, 8); // events: store, flush, (fence not logged)
        p.store_u64(off, 2);
        // Crash after the first persist but before the second store.
        let img = p.crash_image(2, Eviction::All);
        assert_eq!(read_u64(&img, off), 1);
    }

    #[test]
    fn rewritten_line_after_flush_keeps_flushed_content() {
        let p = crash_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 1);
        p.persist(off, 8);
        p.store_u64(off, 2); // dirty again, never flushed
        let cut = p.crash_log().unwrap().len();
        let img = p.crash_image(cut, Eviction::None);
        assert_eq!(read_u64(&img, off), 1);
        let img = p.crash_image(cut, Eviction::All);
        assert_eq!(read_u64(&img, off), 2);
    }

    #[test]
    fn baseline_becomes_durable() {
        let p = crash_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 42); // never flushed
        let img = p.volatile_image();
        p.crash_log().unwrap().set_baseline(img);
        // New op on a clean slate.
        p.store_u64(off + 8, 43);
        let img = p.crash_image(0, Eviction::None);
        assert_eq!(read_u64(&img, off), 42); // baseline survives
        assert_eq!(read_u64(&img, off + 8), 0); // new store does not
    }

    #[test]
    fn reopen_from_crash_image() {
        let p = crash_pool();
        let off = p.alloc(64, 64).unwrap();
        p.store_u64(off, 5);
        p.persist(off, 8);
        CommitCell::JOURNAL.publish(&p, off);
        let cut = p.crash_log().unwrap().len();
        let img = p.crash_image(cut, Eviction::None);
        let p2 = Pool::from_image(&img, PoolConfig::new().size(1 << 16)).unwrap();
        assert_eq!(CommitCell::JOURNAL.target(&p2, 8), Ok(Some(off)));
        assert_eq!(p2.load_u64(off), 5);
    }

    #[test]
    fn eviction_random_is_deterministic() {
        let mut a = Eviction::Random(7);
        let mut b = Eviction::Random(7);
        for line in [0u64, 64, 128, 4096] {
            assert_eq!(a.choose(line, 5), b.choose(line, 5));
        }
    }

    #[test]
    fn env_seeded_eviction_is_deterministic_per_seed() {
        // Whatever FF_CRASH_SEED is (set or not), the derived policy is a
        // pure function of (env seed, salt).
        let mut a = Eviction::random_with_env(3);
        let mut b = Eviction::random_with_env(3);
        for line in [0u64, 64, 192] {
            assert_eq!(a.choose(line, 4), b.choose(line, 4));
        }
        // Different salts give different policies.
        let (Eviction::Random(x), Eviction::Random(y)) =
            (Eviction::random_with_env(1), Eviction::random_with_env(2))
        else {
            panic!("random_with_env must yield Eviction::Random");
        };
        assert_ne!(x, y);
    }

    #[test]
    #[should_panic(expected = "beyond log length")]
    fn cut_beyond_log_panics() {
        let p = crash_pool();
        p.crash_image(10, Eviction::None);
    }
}

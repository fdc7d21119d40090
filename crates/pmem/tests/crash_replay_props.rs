//! Property-based tests of the crash-replay model itself — the foundation
//! every crash test in this repository stands on.
//!
//! Properties verified over random store/flush traces:
//!
//! 1. **No-eviction lower bound**: with `Eviction::None`, the image equals
//!    a replay where only explicitly flushed lines carry data.
//! 2. **Full-eviction upper bound**: with `Eviction::All` at the final
//!    event, the image equals the volatile image.
//! 3. **Per-line prefix soundness**: any image the replay produces agrees,
//!    on every 8-byte word, with either the last flushed value or one of
//!    the values a store prefix could leave — never a value that was
//!    never current on that word.
//! 4. **Monotonicity in the cut**: extending the trace cannot change what
//!    an earlier cut replays.
//!
//! Eviction seeds are salted with `FF_CRASH_SEED` (`pmem::crash::env_seed`)
//! so the CI crash matrix varies the explored prefixes per leg.

use std::collections::HashMap;

use pmem::crash::Eviction;
use pmem::{Pool, PoolConfig, CACHE_LINE};
use proptest::prelude::*;

const POOL: usize = 1 << 16;
const SLOTS: u64 = 64; // 8-byte slots we touch, spread over several lines

#[derive(Debug, Clone)]
enum TraceOp {
    Store { slot: u64, val: u64 },
    Persist { slot: u64 },
}

fn trace_strategy() -> impl Strategy<Value = Vec<TraceOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..SLOTS, 1u64..u64::MAX).prop_map(|(slot, val)| TraceOp::Store { slot, val }),
            1 => (0..SLOTS).prop_map(|slot| TraceOp::Persist { slot }),
        ],
        1..120,
    )
}

fn run_trace(ops: &[TraceOp]) -> (Pool, u64) {
    let pool = Pool::new(PoolConfig::new().size(POOL).crash_log(true)).unwrap();
    let base = pool.alloc(SLOTS * 8, CACHE_LINE as u64).unwrap();
    for op in ops {
        match *op {
            TraceOp::Store { slot, val } => pool.store_u64(base + slot * 8, val),
            TraceOp::Persist { slot } => pool.persist(base + slot * 8, 8),
        }
    }
    (pool, base)
}

fn word(img: &[u8], off: u64) -> u64 {
    u64::from_le_bytes(img[off as usize..off as usize + 8].try_into().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn none_eviction_keeps_exactly_flushed_state(ops in trace_strategy()) {
        let (pool, base) = run_trace(&ops);
        let cut = pool.crash_log().unwrap().len();
        let img = pool.crash_image(cut, Eviction::None);
        // Model: value persisted at a slot == value current at the most
        // recent flush covering its line (0 if never flushed).
        let mut volatile: HashMap<u64, u64> = HashMap::new();
        let mut persistent: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                TraceOp::Store { slot, val } => {
                    volatile.insert(slot, val);
                }
                TraceOp::Persist { slot } => {
                    let line = (base + slot * 8) & !(CACHE_LINE as u64 - 1);
                    for s in 0..SLOTS {
                        if (base + s * 8) & !(CACHE_LINE as u64 - 1) == line {
                            if let Some(&v) = volatile.get(&s) {
                                persistent.insert(s, v);
                            }
                        }
                    }
                }
            }
        }
        for s in 0..SLOTS {
            prop_assert_eq!(
                word(&img, base + s * 8),
                persistent.get(&s).copied().unwrap_or(0),
                "slot {}", s
            );
        }
    }

    #[test]
    fn all_eviction_at_end_equals_volatile(ops in trace_strategy()) {
        let (pool, base) = run_trace(&ops);
        let cut = pool.crash_log().unwrap().len();
        let img = pool.crash_image(cut, Eviction::All);
        let vol = pool.volatile_image();
        for s in 0..SLOTS {
            let off = base + s * 8;
            prop_assert_eq!(word(&img, off), word(&vol, off), "slot {}", s);
        }
    }

    #[test]
    fn replayed_words_were_once_current(ops in trace_strategy(), seed in 0u64..1000) {
        let (pool, base) = run_trace(&ops);
        let cut = pool.crash_log().unwrap().len();
        let img = pool.crash_image(cut, Eviction::random_with_env(seed));
        // Every slot's persisted value must be one of the values that slot
        // actually held at some point (including its initial 0).
        for s in 0..SLOTS {
            let mut legal = vec![0u64];
            for op in &ops {
                if let TraceOp::Store { slot, val } = *op {
                    if slot == s {
                        legal.push(val);
                    }
                }
            }
            let got = word(&img, base + s * 8);
            prop_assert!(legal.contains(&got), "slot {} held torn value {:#x}", s, got);
        }
    }

    #[test]
    fn earlier_cuts_are_stable_under_trace_extension(ops in trace_strategy()) {
        // Replay at cut k, then append more events; replaying at k again
        // must give the identical image — except the pool header, whose
        // allocator cursor is deliberately taken from the live pool
        // (allocator metadata is treated as failure-atomic; see the doc of
        // `pmem::POOL_HEADER_SIZE`).
        let (pool, _base) = run_trace(&ops);
        let k = pool.crash_log().unwrap().len() / 2;
        let img1 = pool.crash_image(k, Eviction::random_with_env(7));
        pool.store_u64(pool.alloc(8, 8).unwrap(), 999);
        let img2 = pool.crash_image(k, Eviction::random_with_env(7));
        prop_assert_eq!(&img1[64..], &img2[64..]);
    }
}

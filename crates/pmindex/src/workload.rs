//! Key and operation generators shared by the tests and examples.
//!
//! * Uniform random 8-byte keys (§5.2–§5.4: "we index 1/10/50 million
//!   random key-value pairs of 8 bytes each, in uniform distribution"),
//!   and dense shuffled keys for exhaustive checks.
//! * The mixed workload of Fig. 7(c): each thread alternates four inserts,
//!   sixteen searches and one delete.
//! * [`partition`], which splits a key set across threads.
//! * [`within`], which bounds a test step that could hang, so that it
//!   fails instead of stalling the suite.

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::{Key, Value};

/// Derives the unique, non-reserved value the harness stores for a key.
///
/// Values double as "record pointers", so they must be unique and must avoid
/// the reserved patterns 0 and `u64::MAX` (see [`crate::Value`]).
#[inline]
pub fn value_for(key: Key) -> Value {
    // A fixed odd multiplier makes values unique per key and spreads them;
    // the +1 / clamp keeps them clear of the reserved patterns.
    let v = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    if v == u64::MAX {
        v - 2
    } else {
        v
    }
}

/// Key distribution for generated workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform random keys over the full `u64` range (the paper's setting).
    Uniform,
    /// Dense keys `1..=n` shuffled; useful for exhaustive checks.
    DenseShuffled,
}

/// Generates `n` distinct keys with the given distribution and seed.
///
/// Keys never take the values 0 or `u64::MAX` so they can also be used
/// directly as values in differential tests.
pub fn generate_keys(n: usize, dist: KeyDist, seed: u64) -> Vec<Key> {
    let mut rng = StdRng::seed_from_u64(seed);
    match dist {
        KeyDist::Uniform => {
            let mut set = std::collections::HashSet::with_capacity(n * 2);
            let mut keys = Vec::with_capacity(n);
            while keys.len() < n {
                let k = rng.gen_range(1..u64::MAX);
                if set.insert(k) {
                    keys.push(k);
                }
            }
            keys
        }
        KeyDist::DenseShuffled => {
            let mut keys: Vec<Key> = (1..=n as u64).collect();
            keys.shuffle(&mut rng);
            keys
        }
    }
}

/// One operation of a mixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert `key → value_for(key)`.
    Insert(Key),
    /// Point lookup.
    Search(Key),
    /// Delete.
    Delete(Key),
}

/// Builds the Fig. 7(c) mixed sequence over a preloaded key set: each round
/// is four inserts of fresh keys, sixteen searches of known keys, and one
/// delete of a previously inserted key (16 : 4 : 1).
pub fn mixed_ops(preloaded: &[Key], fresh: &[Key], rounds: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(rounds * 21);
    let mut fresh_iter = fresh.iter().copied().cycle();
    let mut deletable: Vec<Key> = Vec::new();
    for _ in 0..rounds {
        for _ in 0..4 {
            let k = fresh_iter.next().expect("fresh keys nonempty");
            deletable.push(k);
            ops.push(Op::Insert(k));
        }
        for _ in 0..16 {
            let k = preloaded[rng.gen_range(0..preloaded.len())];
            ops.push(Op::Search(k));
        }
        let idx = rng.gen_range(0..deletable.len());
        ops.push(Op::Delete(deletable.swap_remove(idx)));
    }
    ops
}

/// Splits `items` into `n_threads` contiguous chunks of near-equal size
/// (the paper "distributes the workload across a number of threads").
pub fn partition<T: Clone>(items: &[T], n_threads: usize) -> Vec<Vec<T>> {
    assert!(n_threads > 0);
    let chunk = items.len().div_ceil(n_threads);
    items
        .chunks(chunk.max(1))
        .map(<[T]>::to_vec)
        .chain(std::iter::repeat_with(Vec::new))
        .take(n_threads)
        .collect()
}

/// Runs `f` on its own thread and returns its result, or `None` if it
/// panicked or has not returned within 30 s — so a test step that hangs (a
/// writer spinning on a latch a crash image kept, say) fails instead of
/// stalling the suite. A hung thread is left running.
pub fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(30)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_keys_distinct_and_in_range() {
        let keys = generate_keys(10_000, KeyDist::Uniform, 42);
        assert_eq!(keys.len(), 10_000);
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        assert!(keys.iter().all(|&k| k != 0 && k != u64::MAX));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            generate_keys(100, KeyDist::Uniform, 7),
            generate_keys(100, KeyDist::Uniform, 7)
        );
        assert_ne!(
            generate_keys(100, KeyDist::Uniform, 7),
            generate_keys(100, KeyDist::Uniform, 8)
        );
    }

    #[test]
    fn dense_shuffled_is_permutation() {
        let mut keys = generate_keys(1000, KeyDist::DenseShuffled, 1);
        keys.sort_unstable();
        assert_eq!(keys, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn values_unique_and_legal() {
        let keys = generate_keys(10_000, KeyDist::Uniform, 11);
        let vals: std::collections::HashSet<_> = keys.iter().map(|&k| value_for(k)).collect();
        assert_eq!(vals.len(), keys.len());
        assert!(!vals.contains(&0) && !vals.contains(&u64::MAX));
    }

    #[test]
    fn mixed_ops_ratio() {
        let pre = generate_keys(100, KeyDist::Uniform, 1);
        let fresh = generate_keys(100, KeyDist::Uniform, 2);
        let ops = mixed_ops(&pre, &fresh, 10, 3);
        assert_eq!(ops.len(), 210);
        let ins = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count();
        let se = ops.iter().filter(|o| matches!(o, Op::Search(_))).count();
        let de = ops.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        assert_eq!((ins, se, de), (40, 160, 10));
    }

    #[test]
    fn mixed_ops_never_deletes_undeleted_twice() {
        let pre = generate_keys(50, KeyDist::Uniform, 1);
        let fresh = generate_keys(200, KeyDist::Uniform, 2);
        let ops = mixed_ops(&pre, &fresh, 20, 3);
        let mut live = std::collections::HashSet::new();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    live.insert(k);
                }
                Op::Delete(k) => assert!(live.remove(&k), "deleted key that was not live"),
                Op::Search(_) => {}
            }
        }
    }

    #[test]
    fn partition_covers_all_items() {
        let items: Vec<u32> = (0..103).collect();
        let parts = partition(&items, 8);
        assert_eq!(parts.len(), 8);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 103);
        let rebuilt: Vec<u32> = parts.into_iter().flatten().collect();
        assert_eq!(rebuilt, items);
    }

    #[test]
    fn partition_more_threads_than_items() {
        let items = [1, 2];
        let parts = partition(&items, 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 2);
    }
}

//! Workload generator: seed → op streams **and** their expected results.
//!
//! Everything the layers ever see comes out of this module, and nothing in
//! it depends on the program under test (own RNG, own Zipfian), so a later
//! change to the program cannot change the inputs. Expected results are
//! computed here, in setup, from a slot-indexed in-memory model; the timed
//! path only compares. `tests` replays every stream against a `BTreeMap`.
//!
//! Keys are `mix64(base + counter)`: `mix64` is a bijection on `u64`, so
//! keys drawn from disjoint counter ranges (preloaded, fresh, guaranteed
//! misses) can never collide. A *slot* names a key: slots `0..preload` are
//! the preloaded keys in ascending key order, later slots are fresh keys in
//! insertion order. A value encodes `(slot, version)`, so every value is
//! unique, never 0 and never `u64::MAX` (both are reserved by the tree).

/// SplitMix64 finalizer — a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix64(seed ^ 0x5EED_5EED_5EED_5EED))
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }
    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// YCSB Zipfian over `n` ranks (rank 0 hottest), scattered over slots by a
/// seeded permutation so hot keys do not share leaves.
pub struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64, rng: &mut Rng) -> Zipf {
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            perm,
        }
    }
    pub fn slot(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize)
                .min(self.n - 1)
        };
        self.perm[rank] as usize
    }
}

/// Model marker: the slot's key is not in the store.
pub const ABSENT: u32 = u32::MAX;

/// The value stored under `slot` at `version`.
pub fn value_of(slot: usize, version: u32) -> u64 {
    debug_assert!(version < 1 << 24);
    ((slot as u64 + 1) << 24) | u64::from(version)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    /// `get(key)`; expect = value, 0 for a miss.
    Get,
    /// Upsert `key → value`; expect = replaced value, 0 if the key was new.
    Insert,
    /// In-place `update(key, value)`; expect = replaced value.
    Update,
    /// `remove(key)`; expect = 1 if present.
    Remove,
    /// Four upserts committed together; `key` indexes [`Plan::batches`].
    Batch,
    /// `cursor().seek(key)` then `value` × `next`; expect = slot of the
    /// first row (read-only workloads only: rows are the preloaded slots).
    Scan,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    pub kind: Kind,
    pub key: u64,
    pub value: u64,
    pub expect: u64,
}

impl Op {
    pub fn is_write(&self) -> bool {
        !matches!(self.kind, Kind::Get | Kind::Scan)
    }
}

pub const BATCH_PUTS: usize = 4;
pub const SCAN_ROWS: u64 = 100;

/// One workload instance: what to preload, what to run, what to expect.
pub struct Plan {
    /// `keys[..preload]` ascending, bulk-loaded at version 0.
    pub preload: usize,
    /// Slot → key.
    pub keys: Vec<u64>,
    pub ops: Vec<Op>,
    pub batches: Vec<[(u64, u64); BATCH_PUTS]>,
    /// Model state after the last op: slot → version, or [`ABSENT`].
    pub ver: Vec<u32>,
}

impl Plan {
    pub fn preload_items(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.preload).map(|s| (self.keys[s], value_of(s, 0)))
    }

    /// Model state after the first `done` ops, ascending by key — what a
    /// full scan of the store must return.
    pub fn state_after(&self, done: usize) -> Vec<(u64, u64)> {
        let mut ver = vec![ABSENT; self.keys.len()];
        ver[..self.preload].fill(0);
        if done == self.ops.len() {
            ver.copy_from_slice(&self.ver);
        } else {
            let slot_of: std::collections::HashMap<u64, usize> =
                self.keys.iter().enumerate().map(|(s, &k)| (k, s)).collect();
            let version = |value: u64| (value & 0xFF_FFFF) as u32;
            for op in &self.ops[..done] {
                match op.kind {
                    Kind::Insert | Kind::Update => ver[slot_of[&op.key]] = version(op.value),
                    Kind::Remove => ver[slot_of[&op.key]] = ABSENT,
                    Kind::Batch => {
                        for &(k, v) in &self.batches[op.key as usize] {
                            ver[slot_of[&k]] = version(v);
                        }
                    }
                    Kind::Get | Kind::Scan => {}
                }
            }
        }
        let mut out: Vec<(u64, u64)> = ver
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != ABSENT)
            .map(|(s, &v)| (self.keys[s], value_of(s, v)))
            .collect();
        out.sort_unstable();
        out
    }

    /// FNV-1a over every generated word: two plans with the same digest
    /// gave the layers the same inputs.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.preload as u64);
        self.keys.iter().for_each(|&k| eat(k));
        for op in &self.ops {
            eat(op.kind as u64);
            eat(op.key);
            eat(op.value);
            eat(op.expect);
        }
        for b in &self.batches {
            b.iter().for_each(|&(k, v)| {
                eat(k);
                eat(v);
            });
        }
        h
    }
}

/// Slot-indexed model the generators run the stream against.
struct Builder {
    rng: Rng,
    base: u64,
    preload: usize,
    keys: Vec<u64>,
    ver: Vec<u32>,
    /// Fresh slots currently present (removal candidates).
    live_fresh: Vec<usize>,
    ops: Vec<Op>,
    batches: Vec<[(u64, u64); BATCH_PUTS]>,
}

impl Builder {
    fn new(seed: u64, preload: usize, n_ops: usize) -> Builder {
        let base = mix64(seed);
        let mut keys: Vec<u64> = (0..preload as u64)
            .map(|i| mix64(base.wrapping_add(i)))
            .collect();
        keys.sort_unstable();
        Builder {
            rng: Rng::new(seed),
            base,
            preload,
            keys,
            ver: vec![0; preload],
            live_fresh: Vec::new(),
            ops: Vec::with_capacity(n_ops),
            batches: Vec::new(),
        }
    }

    fn current(&self, slot: usize) -> u64 {
        match self.ver[slot] {
            ABSENT => 0,
            v => value_of(slot, v),
        }
    }

    /// Bumps `slot` to its next version; returns `(replaced, new)` values.
    fn bump(&mut self, slot: usize) -> (u64, u64) {
        let old = self.current(slot);
        let next = match self.ver[slot] {
            ABSENT => 1,
            v => v + 1,
        };
        self.ver[slot] = next;
        (old, value_of(slot, next))
    }

    fn push(&mut self, kind: Kind, key: u64, value: u64, expect: u64) {
        self.ops.push(Op {
            kind,
            key,
            value,
            expect,
        });
    }

    fn get(&mut self, slot: usize) {
        self.push(Kind::Get, self.keys[slot], 0, self.current(slot));
    }

    /// A key from the counter range above every preloaded and fresh key.
    fn get_miss(&mut self) {
        let i = (1u64 << 62) + self.ops.len() as u64;
        self.push(Kind::Get, mix64(self.base.wrapping_add(i)), 0, 0);
    }

    fn upsert(&mut self, slot: usize) {
        let (old, new) = self.bump(slot);
        self.push(Kind::Insert, self.keys[slot], new, old);
    }

    fn update(&mut self, slot: usize) {
        let (old, new) = self.bump(slot);
        self.push(Kind::Update, self.keys[slot], new, old);
    }

    fn insert_fresh(&mut self) {
        let slot = self.keys.len();
        self.keys.push(mix64(self.base.wrapping_add(slot as u64)));
        self.ver.push(ABSENT);
        self.live_fresh.push(slot);
        self.upsert(slot);
    }

    /// Removes a random earlier-inserted fresh key (inserts one instead
    /// while none is live).
    fn remove_fresh(&mut self) {
        if self.live_fresh.is_empty() {
            return self.insert_fresh();
        }
        let at = self.rng.below(self.live_fresh.len());
        let slot = self.live_fresh.swap_remove(at);
        self.ver[slot] = ABSENT;
        self.push(Kind::Remove, self.keys[slot], 0, 1);
    }

    fn batch(&mut self, slots: [usize; BATCH_PUTS]) {
        let puts = slots.map(|s| (self.keys[s], self.bump(s).1));
        self.push(Kind::Batch, self.batches.len() as u64, 0, 0);
        self.batches.push(puts);
    }

    fn scan(&mut self) {
        let target = self.rng.next_u64();
        let start = self.keys[..self.preload].partition_point(|&k| k < target);
        self.push(Kind::Scan, target, SCAN_ROWS, start as u64);
    }

    fn finish(self) -> Plan {
        Plan {
            preload: self.preload,
            keys: self.keys,
            ops: self.ops,
            batches: self.batches,
            ver: self.ver,
        }
    }
}

/// 90 % `get` hit, 5 % `get` miss, 5 % `seek` + 100 × `next`; uniform keys.
pub fn tree_read(seed: u64, preload: usize, n_ops: usize) -> Plan {
    let mut b = Builder::new(seed, preload, n_ops);
    for _ in 0..n_ops {
        match b.rng.below(100) {
            0..=89 => {
                let slot = b.rng.below(preload);
                b.get(slot);
            }
            90..=94 => b.get_miss(),
            _ => b.scan(),
        }
    }
    b.finish()
}

/// 50 % insert of a fresh uniform key, 25 % in-place update of a preloaded
/// key, 25 % remove of an earlier-inserted key.
pub fn tree_write(seed: u64, preload: usize, n_ops: usize) -> Plan {
    let mut b = Builder::new(seed, preload, n_ops);
    for _ in 0..n_ops {
        match b.rng.below(100) {
            0..=49 => b.insert_fresh(),
            50..=74 => {
                let slot = b.rng.below(preload);
                b.update(slot);
            }
            _ => b.remove_fresh(),
        }
    }
    b.finish()
}

pub const ZIPF_THETA: f64 = 0.99;

/// 60 % upsert of an existing Zipfian key, 20 % insert fresh, 10 % delete
/// of an earlier-inserted key, 10 % four-put batch on Zipfian keys.
pub fn svc_write(seed: u64, preload: usize, n_ops: usize) -> Plan {
    let mut b = Builder::new(seed, preload, n_ops);
    let zipf = Zipf::new(preload, ZIPF_THETA, &mut b.rng);
    for _ in 0..n_ops {
        match b.rng.below(100) {
            0..=59 => {
                let slot = zipf.slot(&mut b.rng);
                b.upsert(slot);
            }
            60..=79 => b.insert_fresh(),
            80..=89 => b.remove_fresh(),
            _ => {
                let slots = [(); BATCH_PUTS].map(|_| zipf.slot(&mut b.rng));
                b.batch(slots);
            }
        }
    }
    b.finish()
}

/// YCSB-B: 95 % `get` / 5 % `update`, Zipfian keys.
pub fn svc_read_mostly(seed: u64, preload: usize, n_ops: usize) -> Plan {
    let mut b = Builder::new(seed, preload, n_ops);
    let zipf = Zipf::new(preload, ZIPF_THETA, &mut b.rng);
    for _ in 0..n_ops {
        let slot = zipf.slot(&mut b.rng);
        if b.rng.below(100) < 95 {
            b.get(slot);
        } else {
            b.update(slot);
        }
    }
    b.finish()
}

/// The `restart` workload's history: a preload, then two-put commits. Put
/// one inserts a fresh key, put two rewrites a preloaded key no other
/// commit touches — so after a crash "commit `i` happened" can be read off
/// either key, and the two must agree.
pub struct RestartPlan {
    pub preload: Vec<(u64, u64)>,
    /// `(fresh key, its value, preloaded key, its old value, its new value)`.
    pub commits: Vec<Commit>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    pub fresh: (u64, u64),
    pub existing: (u64, u64),
    pub existing_before: u64,
}

pub fn restart(seed: u64, preload: usize, n_commits: usize) -> RestartPlan {
    assert!(n_commits <= preload);
    let mut b = Builder::new(seed, preload, 0);
    let mut untouched: Vec<u32> = (0..preload as u32).collect();
    let commits = (0..n_commits)
        .map(|_| {
            let at = b.rng.below(untouched.len());
            let slot = untouched.swap_remove(at) as usize;
            let fresh_slot = b.keys.len();
            b.keys.push(mix64(b.base.wrapping_add(fresh_slot as u64)));
            Commit {
                fresh: (b.keys[fresh_slot], value_of(fresh_slot, 1)),
                existing: (b.keys[slot], value_of(slot, 1)),
                existing_before: value_of(slot, 0),
            }
        })
        .collect();
    RestartPlan {
        preload: (0..preload).map(|s| (b.keys[s], value_of(s, 0))).collect(),
        commits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type Generator = fn(u64, usize, usize) -> Plan;
    const GENERATORS: [(&str, Generator); 4] = [
        ("tree_read", tree_read),
        ("tree_write", tree_write),
        ("svc_write", svc_write),
        ("svc_read_mostly", svc_read_mostly),
    ];

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for (name, gen) in GENERATORS {
            let (a, b, c) = (gen(7, 2000, 5000), gen(7, 2000, 5000), gen(8, 2000, 5000));
            assert!(
                a.keys == b.keys && a.ops == b.ops && a.batches == b.batches,
                "{name}"
            );
            assert_eq!(a.digest(), b.digest(), "{name}");
            assert_ne!(a.ops, c.ops, "{name}");
            assert_ne!(a.digest(), c.digest(), "{name}");
        }
    }

    #[test]
    fn keys_are_distinct_and_preload_is_sorted() {
        for (name, gen) in GENERATORS {
            let p = gen(3, 3000, 6000);
            assert!(
                p.keys[..p.preload].windows(2).all(|w| w[0] < w[1]),
                "{name}"
            );
            let mut all = p.keys.clone();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), p.keys.len(), "{name}");
        }
    }

    /// Every expectation the generator precomputed is what a `BTreeMap`
    /// with the index semantics returns, and the final states agree.
    #[test]
    fn expectations_match_a_btreemap_replay() {
        for (name, gen) in GENERATORS {
            let p = gen(11, 4000, 20_000);
            let mut map: BTreeMap<u64, u64> = p.preload_items().collect();
            for (i, op) in p.ops.iter().enumerate() {
                let got = match op.kind {
                    Kind::Get => map.get(&op.key).copied().unwrap_or(0),
                    Kind::Insert => map.insert(op.key, op.value).unwrap_or(0),
                    Kind::Update => match map.get_mut(&op.key) {
                        Some(v) => std::mem::replace(v, op.value),
                        None => 0,
                    },
                    Kind::Remove => u64::from(map.remove(&op.key).is_some()),
                    Kind::Batch => {
                        for &(k, v) in &p.batches[op.key as usize] {
                            map.insert(k, v);
                        }
                        0
                    }
                    Kind::Scan => {
                        let rows: Vec<(u64, u64)> = map
                            .range(op.key..)
                            .take(op.value as usize)
                            .map(|(&k, &v)| (k, v))
                            .collect();
                        let start = op.expect as usize;
                        let want: Vec<(u64, u64)> = (start..p.preload.min(start + rows.len()))
                            .map(|s| (p.keys[s], value_of(s, 0)))
                            .collect();
                        assert_eq!(rows, want, "{name} op {i}");
                        assert!(
                            rows.len() == op.value as usize || start + rows.len() == p.preload,
                            "{name} op {i}"
                        );
                        op.expect
                    }
                };
                assert_eq!(got, op.expect, "{name} op {i} {op:?}");
                assert!(
                    op.kind != Kind::Update || op.expect != 0,
                    "{name}: update missed"
                );
            }
            let model: Vec<(u64, u64)> = map.into_iter().collect();
            assert_eq!(p.state_after(p.ops.len()), model, "{name}");
            // A truncated run's state is the replayed prefix.
            let half = p.ops.len() / 2;
            let q = gen(11, 4000, half);
            assert_eq!(p.state_after(half), q.state_after(half), "{name}");
        }
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let share = |p: &Plan, k: Kind| {
            p.ops.iter().filter(|o| o.kind == k).count() as f64 / p.ops.len() as f64
        };
        let near = |x: f64, want: f64| (x - want).abs() < 0.01;
        let p = tree_read(1, 5000, 100_000);
        assert!(near(share(&p, Kind::Scan), 0.05) && near(share(&p, Kind::Get), 0.95));
        let misses = p
            .ops
            .iter()
            .filter(|o| o.kind == Kind::Get && o.expect == 0);
        assert!(near(misses.count() as f64 / 1e5, 0.05));
        let p = tree_write(1, 5000, 100_000);
        assert!(near(share(&p, Kind::Insert), 0.5) && near(share(&p, Kind::Remove), 0.25));
        let p = svc_write(1, 5000, 100_000);
        assert!(near(share(&p, Kind::Insert), 0.8) && near(share(&p, Kind::Batch), 0.1));
        let p = svc_read_mostly(1, 5000, 100_000);
        assert!(near(share(&p, Kind::Get), 0.95) && near(share(&p, Kind::Update), 0.05));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(5);
        let z = Zipf::new(1000, ZIPF_THETA, &mut rng);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.slot(&mut rng)] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        assert!(hits[0] > 10 * hits[500].max(1));
    }

    #[test]
    fn restart_commits_touch_disjoint_keys() {
        let a = restart(9, 1000, 200);
        let b = restart(9, 1000, 200);
        assert_eq!(a.commits, b.commits);
        let mut keys: Vec<u64> = a
            .commits
            .iter()
            .flat_map(|c| [c.fresh.0, c.existing.0])
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 400);
        let preloaded: BTreeMap<u64, u64> = a.preload.iter().copied().collect();
        for c in &a.commits {
            assert!(!preloaded.contains_key(&c.fresh.0));
            assert_eq!(preloaded[&c.existing.0], c.existing_before);
        }
    }
}

//! The spin-then-park schedule both hand-off shims wait by — one source
//! file, compiled into `crossbeam_channel` and `oneshot` alike with
//! `#[path]`, so the two crates share one bound without a third package
//! in every lockfile. `shard`'s apply helper waits by it too.
//!
//! A waiter whose peer is mid-request does not sleep: a futex wake-up
//! costs the waker a syscall and the sleeper 20–50 µs of vCPU wake-up
//! latency, which is longer than the peer needed. It probes an atomic
//! instead — busily for a few dozen `spin_loop`s (the peer finishes
//! within a microsecond or not soon), then giving its core away between
//! probes with `yield_now` — and parks only once [`SPIN_BOUND`] has
//! passed, so a peer that is really gone costs a bounded burn and no more.

use std::sync::{Condvar, MutexGuard};
use std::time::{Duration, Instant};

/// Why a hand-off lock can be taken with `expect`: nothing that can panic
/// runs under one, bar a queued message's own `Drop` when its receiver
/// goes.
pub const POISONED: &str = "a thread panicked holding a hand-off lock";

/// How long a waiter probes before it parks: about two full write groups
/// of the service at 300 ns PM (a group of 16 commits in ≈ 90 µs), so a
/// client waiting on a reply, a worker waiting for the client's next
/// window and a submitter waiting for room in a full queue all out-wait
/// one group of the peer's work. A bound shorter than a group parks in
/// the middle of every group (10 µs measured *slower* than 50 µs on both
/// service workloads); a longer one only burns more of an idle peer's
/// core before giving up. It is sized to the slower workload and is the
/// same for every wait, hence a constant and not a configuration field.
pub const SPIN_BOUND: Duration = Duration::from_micros(200);

/// Probes that stay on the core (`spin_loop` between them) before the
/// waiter starts yielding it.
const BUSY_PROBES: u32 = 32;

/// Probes `ready` until it holds, or until [`SPIN_BOUND`] — cut short at
/// `deadline`, which the spin counts against — has passed. Returns
/// whether `ready` held; on `false` the caller takes its blocking path.
pub fn spin_until(deadline: Option<Instant>, mut ready: impl FnMut() -> bool) -> bool {
    for _ in 0..BUSY_PROBES {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    let bound = Instant::now() + SPIN_BOUND;
    let end = deadline.map_or(bound, |d| d.min(bound));
    loop {
        if ready() {
            return true;
        }
        if Instant::now() >= end {
            return false;
        }
        std::thread::yield_now();
    }
}

/// The blocking path: sleeps on `parked` until it is notified, or until
/// `deadline`. Hands the guard back with whether the deadline had already
/// passed — in which case it did not sleep. Wake-ups may be spurious; the
/// caller re-checks what it waits for.
pub fn park_until<'a, S>(
    parked: &Condvar,
    state: MutexGuard<'a, S>,
    deadline: Option<Instant>,
) -> (MutexGuard<'a, S>, bool) {
    let Some(deadline) = deadline else {
        return (parked.wait(state).expect(POISONED), false);
    };
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return (state, true);
    }
    (parked.wait_timeout(state, left).expect(POISONED).0, false)
}

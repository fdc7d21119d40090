//! Hand-offs between threads, and the one way they wait.
//!
//! Three hand-offs cross a thread boundary on the serving path: a
//! client's request into a lane's queue ([`queue`]), the worker's answer
//! into the request's reply slot ([`slot`]), and half of a split batch
//! apply into a sharded store's helper thread ([`Bell`]). All three follow
//! two rules.
//!
//! **A waiter parks only after a bounded spin.** A waiter whose peer is
//! mid-request does not sleep: a futex wake-up costs the waker a syscall
//! and the sleeper 20–50 µs of vCPU wake-up latency, which is longer than
//! the peer needed. It probes an atomic instead — busily for a few dozen
//! `spin_loop`s (the peer finishes within a microsecond or not soon), then
//! giving its core away between probes with `yield_now` — and parks on a
//! condvar only once [`SPIN_BOUND`] has passed, so a peer that is really
//! gone costs a bounded burn and no more.
//!
//! **A waker makes a syscall only when its peer is parked.** Whoever is
//! about to sleep says so under the lock it sleeps on, and a waker
//! notifies the condvar only when that is set, so a hand-off between two
//! running threads is plain stores and one lock.

pub mod queue;
pub mod slot;

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// Takes a hand-off lock. Nothing that can panic runs under one, bar a
/// queued message's own `Drop` when its receiver goes, which leaves the
/// queue whole; so a poisoned lock is taken like any other, as the
/// workspace's `parking_lot` locks are.
fn lock<S>(mutex: &Mutex<S>) -> MutexGuard<'_, S> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The message a failed send hands back: the other side is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Probes `ready` until it holds, or until [`SPIN_BOUND`] — cut short at
/// `deadline`, which the spin counts against — has passed. Returns
/// whether `ready` held; on `false` the caller takes its blocking path.
fn spin_until(deadline: Option<Instant>, mut ready: impl FnMut() -> bool) -> bool {
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
fn park_until<'a, S>(
    parked: &Condvar,
    state: MutexGuard<'a, S>,
    deadline: Option<Instant>,
) -> (MutexGuard<'a, S>, bool) {
    let Some(deadline) = deadline else {
        return (
            parked.wait(state).unwrap_or_else(PoisonError::into_inner),
            false,
        );
    };
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return (state, true);
    }
    let (state, _) = parked
        .wait_timeout(state, left)
        .unwrap_or_else(PoisonError::into_inner);
    (state, false)
}

/// Two threads taking turns on lock-free state: one [`Bell::wait`]s for a
/// condition, the other changes it through [`Bell::publish`]. At most one
/// thread may be asleep on a bell at a time.
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let bell = pmem::handoff::Bell::default();
/// let flag = AtomicBool::new(false);
/// std::thread::scope(|s| {
///     s.spawn(|| bell.wait(|| flag.load(Ordering::Acquire)));
///     bell.publish(|| flag.store(true, Ordering::Release));
/// });
/// ```
#[derive(Debug, Default)]
pub struct Bell {
    /// Whether a thread is asleep on `wake`: set by it just before it
    /// waits, cleared by whoever wakes it.
    parked: Mutex<bool>,
    wake: Condvar,
}

impl Bell {
    /// Runs `change` under the bell's lock and wakes the waiter if it is
    /// asleep. A waiter re-checks its condition with that lock held before
    /// it parks, so it cannot miss the change. Returns whether a waiter
    /// was woken, i.e. whether a wake-up syscall was made.
    pub fn publish(&self, change: impl FnOnce()) -> bool {
        let mut parked = lock(&self.parked);
        change();
        let wake = std::mem::take(&mut *parked);
        drop(parked);
        if wake {
            self.wake.notify_one();
        }
        wake
    }

    /// Spins, then parks, until `ready` holds. Returns whether it parked.
    pub fn wait(&self, ready: impl Fn() -> bool) -> bool {
        if spin_until(None, &ready) {
            return false;
        }
        let mut parked = lock(&self.parked);
        let mut slept = false;
        while !ready() {
            *parked = true;
            slept = true;
            (parked, _) = park_until(&self.wake, parked, None);
        }
        slept
    }

    /// Whether a thread is asleep on the bell.
    pub fn parked(&self) -> bool {
        *lock(&self.parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::thread;

    /// 100 k turns between two threads, each waiting on the bell for the
    /// other's: every interleaving of a publish with the waiter's probes,
    /// its last look under the lock and its park gets its turn, and a lost
    /// wake-up would hang the test.
    #[test]
    fn bell_turns_lose_no_wake_up() {
        const TURNS: u32 = 100_000;
        let bell = Bell::default();
        let turn = AtomicU32::new(0);
        thread::scope(|s| {
            s.spawn(|| {
                for t in (1..TURNS).step_by(2) {
                    bell.wait(|| turn.load(Ordering::Acquire) == t);
                    bell.publish(|| turn.store(t + 1, Ordering::Release));
                }
            });
            for t in (0..TURNS).step_by(2) {
                bell.wait(|| turn.load(Ordering::Acquire) == t);
                bell.publish(|| turn.store(t + 1, Ordering::Release));
            }
        });
        assert_eq!(turn.load(Ordering::Relaxed), TURNS);
    }

    #[test]
    fn a_publish_wakes_only_a_parked_waiter() {
        let bell = Bell::default();
        let flag = AtomicU32::new(0);
        // Nobody waits: no wake-up.
        assert!(!bell.publish(|| flag.store(1, Ordering::Release)));
        // A ready condition returns at once, without parking.
        assert!(!bell.wait(|| flag.load(Ordering::Acquire) == 1));
        thread::scope(|s| {
            let waiter = s.spawn(|| bell.wait(|| flag.load(Ordering::Acquire) == 2));
            while !bell.parked() {
                thread::yield_now();
            }
            assert!(bell.publish(|| flag.store(2, Ordering::Release)));
            assert!(waiter.join().unwrap(), "the waiter parked");
        });
        assert!(!bell.parked());
    }
}

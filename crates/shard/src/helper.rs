//! The store's apply helper: one thread, owned by one
//! [`ShardedStore`](crate::ShardedStore), that runs the half of a split
//! batch apply the calling thread posts to it.
//!
//! [`Helper::join`] is a two-way fork-join with one slot. The caller
//! *posts* a job, runs its own half, then *settles* the job: if the
//! helper has not claimed it yet, the caller steals it back and runs it
//! itself, so a helper that is busy, parked or descheduled costs the
//! caller only the post. Both threads wait and wake through one
//! [`pmem::handoff::Bell`] — the service's hand-offs' spin-then-park
//! wait — the helper for work, the caller for its claimed job. The helper
//! catches a panic in the job and hands it back, and hands back its
//! `pmem::stats` counters too, which the caller absorbs into its own. A
//! second caller that finds the slot taken runs both halves itself.
//!
//! The slot moves through five states:
//!
//! ```text
//!            caller: reserve        caller: publish
//!   IDLE ─────────────────▶ FILLING ──────────────▶ POSTED
//!    ▲  ▲                                            │   │
//!    │  └──────────── caller: steal back ────────────┘   │ helper: claim
//!    │                                                   ▼
//!    └─────── caller: take the outcome ─── DONE ◀──── CLAIMED
//!                                            helper: finish
//! ```

use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pmem::handoff::Bell;

const IDLE: u8 = 0;
const FILLING: u8 = 1;
const POSTED: u8 = 2;
const CLAIMED: u8 = 3;
const DONE: u8 = 4;

/// A posted job with its lifetime erased: a pointer to a closure on the
/// posting caller's stack (`Helper::post` argues why that is sound).
type Job = *mut (dyn FnMut() + Send + 'static);

/// What the helper hands back for a job it ran.
struct Outcome {
    panic: Option<Box<dyn Any + Send>>,
    stats: pmem::stats::Snapshot,
}

struct Shared {
    state: AtomicU8,
    stop: AtomicBool,
    /// Written by the caller that moved the slot IDLE → FILLING, read by
    /// the helper that moved it POSTED → CLAIMED.
    job: UnsafeCell<Option<Job>>,
    /// Written by the helper while CLAIMED, taken by the caller once it
    /// sees DONE.
    outcome: UnsafeCell<Option<Outcome>>,
    /// What both threads wait on. At most one is asleep on it: the helper
    /// waits for work only while no job is claimed, and the caller waits
    /// for its job only while the helper holds it.
    bell: Bell,
    /// Wake-up syscalls the bell made, and waits that parked.
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicUsize,
    #[cfg(test)]
    parks: std::sync::atomic::AtomicUsize,
}

// SAFETY: `state`, `stop` and `bell` are `Send + Sync`
// already. The two `UnsafeCell`s are only touched by the thread the state
// machine makes their owner — `job` by the caller in FILLING and by the
// helper in CLAIMED, `outcome` by the helper in CLAIMED and by the caller
// in DONE — and every change of owner is a Release store or CAS paired
// with the next owner's Acquire. What they hold may move threads: the
// closure the job pointer names is `Send` and is only ever called by one
// thread at a time (see `Helper::post`), and an `Outcome` is `Send`.
unsafe impl Send for Shared {}
// SAFETY: as for `Send`.
unsafe impl Sync for Shared {}

impl Shared {
    /// Makes `change` through the bell, waking the other thread if it
    /// sleeps.
    fn publish(&self, change: impl FnOnce()) {
        let _woke = self.bell.publish(change);
        #[cfg(test)]
        self.wakes.fetch_add(usize::from(_woke), Ordering::Relaxed);
    }

    /// Spins, then parks, until `ready` holds.
    fn wait(&self, ready: impl Fn() -> bool) {
        let _parked = self.bell.wait(ready);
        #[cfg(test)]
        self.parks
            .fetch_add(usize::from(_parked), Ordering::Relaxed);
    }

    /// The helper thread's life: wait for a posted job, claim it, run it,
    /// hand back the outcome; until the owner stops it.
    fn serve(&self) {
        loop {
            self.wait(|| {
                self.state.load(Ordering::Acquire) == POSTED || self.stop.load(Ordering::Acquire)
            });
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if self
                .state
                .compare_exchange(POSTED, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // the caller stole it back first
            }
            // SAFETY: CLAIMED makes this thread the slot's owner, and the
            // Acquire CAS saw the caller's write of the job.
            let job = unsafe { (*self.job.get()).take() }.expect("a posted slot holds a job");
            // SAFETY: the caller that posted `job` is blocked in its
            // settle until DONE, so the closure is alive and nothing else
            // calls it (`Helper::join`).
            let panic = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (&mut *job)() })).err();
            let stats = pmem::stats::take();
            // SAFETY: still CLAIMED: this thread owns the slot.
            unsafe { *self.outcome.get() = Some(Outcome { panic, stats }) };
            self.publish(|| self.state.store(DONE, Ordering::Release));
        }
    }
}

/// A posted job, until the caller settles it. Borrows the job closure for
/// `'a`, so the closure outlives every use the helper can make of it.
struct Ticket<'a> {
    shared: &'a Shared,
    job: Job,
    settled: bool,
    _job: PhantomData<&'a mut (dyn FnMut() + Send + 'a)>,
}

impl Ticket<'_> {
    /// Takes the job back from the slot: steals it if the helper has not
    /// claimed it (and runs it here if `run_if_stolen`), otherwise waits
    /// for the helper to finish it and absorbs its counters. Returns the
    /// panic the helper caught, if any.
    fn settle(&mut self, run_if_stolen: bool) -> Option<Box<dyn Any + Send>> {
        self.settled = true;
        let shared = self.shared;
        if shared
            .state
            .compare_exchange(POSTED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            if run_if_stolen {
                // SAFETY: the steal took the job out of the helper's reach
                // before it was claimed; this thread is its only caller.
                unsafe { (&mut *self.job)() };
            }
            return None;
        }
        shared.wait(|| shared.state.load(Ordering::Acquire) == DONE);
        // SAFETY: DONE makes this thread the slot's owner, and the Acquire
        // load saw the helper's write of the outcome.
        let outcome =
            unsafe { (*shared.outcome.get()).take() }.expect("a done slot holds an outcome");
        shared.state.store(IDLE, Ordering::Release);
        pmem::stats::absorb(outcome.stats);
        outcome.panic
    }
}

impl Drop for Ticket<'_> {
    /// Unwinding out of the caller's own half still settles the job, so
    /// the closure the helper may be running outlives that run.
    fn drop(&mut self) {
        if !self.settled {
            drop(self.settle(false));
        }
    }
}

/// The helper thread and its one-job slot. Dropping it stops and joins
/// the thread.
pub(crate) struct Helper {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    /// Starts the helper thread.
    pub(crate) fn spawn() -> std::io::Result<Helper> {
        let shared = Arc::new(Shared {
            state: AtomicU8::new(IDLE),
            stop: AtomicBool::new(false),
            job: UnsafeCell::new(None),
            outcome: UnsafeCell::new(None),
            bell: Bell::default(),
            #[cfg(test)]
            wakes: Default::default(),
            #[cfg(test)]
            parks: Default::default(),
        });
        let serving = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("shard-apply".into())
            .spawn(move || serving.serve())?;
        Ok(Helper {
            shared,
            thread: Some(thread),
        })
    }

    /// Runs `theirs` on the helper and `mine` on the calling thread, and
    /// returns both results once both have run. `theirs` runs here instead
    /// when the helper has not claimed it by the time `mine` returns, or
    /// when another caller's job holds the slot. A panic in `theirs`
    /// re-raises here after `mine` has run; counters `theirs` moved on the
    /// helper are added to this thread's.
    pub(crate) fn join<A, B: Send>(
        &self,
        theirs: impl FnOnce() -> B + Send,
        mine: impl FnOnce() -> A,
    ) -> (A, B) {
        let reserved = self
            .shared
            .state
            .compare_exchange(IDLE, FILLING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if !reserved {
            let b = theirs();
            return (mine(), b);
        }
        let mut theirs = Some(theirs);
        let mut out = None;
        let mut job = || out = Some(theirs.take().expect("a job runs once")());
        // SAFETY: the CAS above reserved the slot, and the ticket is
        // settled below or dropped by unwinding, never leaked.
        let mut ticket = unsafe { self.post(&mut job) };
        let a = mine();
        if let Some(panic) = ticket.settle(true) {
            panic::resume_unwind(panic);
        }
        drop(ticket);
        (a, out.expect("the job ran"))
    }

    /// Fills the slot this caller reserved (IDLE → FILLING) with `job` and
    /// publishes it.
    ///
    /// Why the lifetime erasure is sound: the slot gets a `'static`
    /// pointer to a closure that lives only for `'a`. The returned ticket
    /// borrows the closure for `'a` and is the only way back to it, and
    /// neither settling it nor dropping it returns until the helper can no
    /// longer reach the pointer: either the caller's CAS POSTED → IDLE
    /// wins, after which the helper's own CAS POSTED → CLAIMED — the only
    /// way it reads the slot — fails for this job; or the helper's claim
    /// won, and the caller waits for DONE, which the helper stores only
    /// after the job has returned or unwound.
    ///
    /// # Safety
    ///
    /// The caller must have moved the slot IDLE → FILLING itself, and must
    /// settle or drop the returned ticket: leaking it would let `'a` end
    /// while the helper may still run the job.
    unsafe fn post<'a>(&'a self, job: &'a mut (dyn FnMut() + Send + 'a)) -> Ticket<'a> {
        let shared = &*self.shared;
        let job: *mut (dyn FnMut() + Send + 'a) = job;
        // SAFETY: only the trait object's lifetime bound changes; see the
        // argument above for why the pointer is never used after `'a`.
        let job: Job = unsafe { std::mem::transmute(job) };
        // SAFETY: FILLING, which the caller holds, makes this thread the
        // slot's owner.
        unsafe { *shared.job.get() = Some(job) };
        shared.publish(|| shared.state.store(POSTED, Ordering::Release));
        Ticket {
            shared,
            job,
            settled: false,
            _job: PhantomData,
        }
    }

    /// Whether the helper thread is asleep waiting for work.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> bool {
        self.shared.bell.parked()
    }

    /// A handle that stays upgradable only while the helper thread (or
    /// this owner) holds the shared slot.
    #[cfg(test)]
    pub(crate) fn watch(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        let shared = &*self.shared;
        shared.publish(|| shared.stop.store(true, Ordering::Release));
        if let Some(thread) = self.thread.take() {
            // The helper catches every job's panic; a join error here could
            // only come from the wait itself, and there is nothing to undo.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;
    use std::thread;
    use std::time::{Duration, Instant};

    /// Spins until `cond` holds, failing the test after 10 s.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            thread::yield_now();
        }
    }

    #[test]
    fn both_halves_run_and_return() {
        let helper = Helper::spawn().unwrap();
        for i in 0..1000u64 {
            let (a, b) = helper.join(|| i * 2, || i + 1);
            assert_eq!((a, b), (i + 1, i * 2));
        }
    }

    #[test]
    fn a_claimed_job_runs_on_the_helper() {
        let helper = Helper::spawn().unwrap();
        let began = AtomicBool::new(false);
        let here = thread::current().id();
        let (_, there) = helper.join(
            || {
                began.store(true, Ordering::SeqCst);
                thread::current().id()
            },
            // Only the helper can start `theirs` while this half runs.
            || eventually("the helper claims the job", || began.load(Ordering::SeqCst)),
        );
        assert_ne!(there, here);
    }

    /// A job the helper claims while the caller runs its own half, with
    /// neither thread asleep, makes no wake-up syscall: the post, the claim
    /// and the finish are stores the other thread's spin sees. A run in
    /// which a thread did park — a peer preempted past `SPIN_BOUND` — is
    /// retried; every such run must still make no more wake-ups than
    /// parks.
    #[test]
    fn a_claimed_job_with_nobody_asleep_wakes_nobody() {
        let helper = Helper::spawn().unwrap();
        let count = |c: &AtomicUsize| c.load(Ordering::SeqCst);
        for _ in 0..100 {
            // The helper comes out of a job spinning for the next one.
            helper.join(|| (), || ());
            let (wakes, parks) = (count(&helper.shared.wakes), count(&helper.shared.parks));
            let began = AtomicBool::new(false);
            helper.join(
                || began.store(true, Ordering::SeqCst),
                || eventually("the helper claims", || began.load(Ordering::SeqCst)),
            );
            let woke = count(&helper.shared.wakes) - wakes;
            let parked = count(&helper.shared.parks) - parks;
            assert!(woke <= parked, "{woke} wake-ups for {parked} parks");
            if parked == 0 {
                assert_eq!(woke, 0);
                return;
            }
        }
        panic!("every run parked a thread");
    }

    #[test]
    fn a_busy_slot_runs_both_halves_on_the_caller() {
        let helper = Helper::spawn().unwrap();
        let inner_ran_on = Mutex::new(None);
        let release = AtomicBool::new(false);
        let began = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                helper.join(
                    || {
                        began.store(true, Ordering::SeqCst);
                        eventually("release", || release.load(Ordering::SeqCst));
                    },
                    || eventually("the helper claims", || began.load(Ordering::SeqCst)),
                )
            });
            eventually("the first job is claimed", || began.load(Ordering::SeqCst));
            // The slot is held: this caller's `theirs` runs on its own thread.
            let me = thread::current().id();
            helper.join(
                || *inner_ran_on.lock().unwrap() = Some(thread::current().id()),
                || (),
            );
            assert_eq!(*inner_ran_on.lock().unwrap(), Some(me));
            release.store(true, Ordering::SeqCst);
        });
    }

    #[test]
    fn a_panic_in_the_helper_reraises_on_the_caller() {
        let helper = Helper::spawn().unwrap();
        let began = AtomicBool::new(false);
        let mine_ran = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            helper.join(
                || {
                    began.store(true, Ordering::SeqCst);
                    panic!("boom in the helper");
                },
                || {
                    eventually("the helper claims", || began.load(Ordering::SeqCst));
                    mine_ran.fetch_add(1, Ordering::SeqCst);
                },
            )
        }))
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom in the helper"));
        assert_eq!(mine_ran.load(Ordering::SeqCst), 1);
        // The helper survived and the slot is free again.
        assert_eq!(helper.join(|| 7, || 8), (8, 7));
    }

    #[test]
    fn a_panic_in_the_callers_half_waits_for_the_helper() {
        let helper = Helper::spawn().unwrap();
        let began = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            helper.join(
                || {
                    began.store(true, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(20));
                    finished.store(true, Ordering::SeqCst);
                },
                || {
                    eventually("the helper claims", || began.load(Ordering::SeqCst));
                    panic!("boom in the caller");
                },
            )
        }));
        assert!(caught.is_err());
        // Unwinding did not leave the helper running on a dead frame.
        assert!(finished.load(Ordering::SeqCst));
        assert_eq!(helper.join(|| 1, || 2), (2, 1));
    }

    #[test]
    fn counters_of_a_claimed_job_come_back_to_the_caller() {
        let pool = pmem::Pool::new(pmem::PoolConfig::new().size(1 << 16)).unwrap();
        let off = pool.alloc(64, 64).unwrap();
        let helper = Helper::spawn().unwrap();
        let began = AtomicBool::new(false);
        pmem::stats::reset();
        helper.join(
            || {
                began.store(true, Ordering::SeqCst);
                pool.store_u64(off, 1);
                pool.persist(off, 8);
            },
            || eventually("the helper claims", || began.load(Ordering::SeqCst)),
        );
        let s = pmem::stats::take();
        assert_eq!((s.flushes, s.fences), (1, 1));
    }

    #[test]
    fn drop_joins_a_spinning_helper() {
        let helper = Helper::spawn().unwrap();
        helper.join(|| (), || ());
        let watch = helper.watch();
        drop(helper);
        assert!(
            watch.upgrade().is_none(),
            "helper thread outlived its owner"
        );
    }

    #[test]
    fn drop_joins_a_parked_helper() {
        let helper = Helper::spawn().unwrap();
        eventually("the helper parks", || helper.parked());
        let watch = helper.watch();
        drop(helper);
        assert!(
            watch.upgrade().is_none(),
            "helper thread outlived its owner"
        );
    }
}

//! A lane's request queue: a bounded multi-producer, single-consumer
//! queue over a `Mutex<VecDeque>` and two condvars.
//!
//! A receiver (and a sender facing a full queue) spins on lock-free
//! mirrors of the queue's length and the peer counts before it parks —
//! the receiver only while its previous wait ended within [`SPIN_BOUND`],
//! so an idle consumer costs nothing — and a send, a pop and a disconnect
//! notify a condvar only when the peer said, under the queue's lock, that
//! it is asleep.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::{lock, park_until, spin_until, SendError, SPIN_BOUND};

/// Why [`Sender::try_send`] handed its message back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The receiver has been dropped.
    Disconnected(T),
}

/// Why [`Receiver::recv_timeout`] came back empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// Every sender has been dropped and the queue is empty.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    /// The receiver is asleep on `not_empty`: set by it just before it
    /// waits, cleared by whoever wakes it (so one sleep is one wake-up).
    receiver_parked: bool,
    /// Senders asleep on `not_full`.
    senders_parked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    // What spinners and gauges read without the lock. `len` and
    // `receiver_alive` are written only under it, and `senders` only
    // falls under it, so a waiter that re-checks them with the lock held
    // and then parks cannot miss the change it is waiting for. The
    // `Release` stores pair with the lock-free `Acquire` loads, which
    // only decide when to stop spinning: whoever then acts takes the
    // lock, and the lock orders the queue itself.
    len: AtomicUsize,
    senders: AtomicUsize,
    receiver_alive: AtomicBool,
    /// Condvar notifications issued, i.e. wake-up syscalls.
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        lock(&self.state)
    }

    fn receiver_alive(&self) -> bool {
        self.receiver_alive.load(Ordering::Acquire)
    }

    fn disconnected(&self) -> bool {
        self.senders.load(Ordering::Acquire) == 0
    }

    /// The receiver is asleep: wake it.
    fn wake_receiver(&self) {
        #[cfg(test)]
        self.wakes.fetch_add(1, Ordering::Relaxed);
        self.not_empty.notify_one();
    }

    /// Enqueues `msg` (the caller saw room) and wakes the receiver if it
    /// is asleep.
    fn push(&self, mut state: MutexGuard<'_, State<T>>, msg: T) {
        state.queue.push_back(msg);
        self.len.store(state.queue.len(), Ordering::Release);
        let parked = std::mem::take(&mut state.receiver_parked);
        drop(state);
        if parked {
            self.wake_receiver();
        }
    }

    /// After `state.queue` shrank: republishes its length and, if senders
    /// are asleep on a full queue, wakes one (`one_slot`: a single
    /// message left) or all of them.
    fn popped(&self, state: &State<T>, one_slot: bool) {
        self.len.store(state.queue.len(), Ordering::Release);
        if state.senders_parked > 0 {
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::Relaxed);
            if one_slot {
                self.not_full.notify_one();
            } else {
                self.not_full.notify_all();
            }
        }
    }
}

/// Creates a queue holding at most `capacity` messages. `capacity` must be
/// at least 1.
///
/// ```
/// use std::time::Duration;
///
/// let (tx, rx) = pmem::handoff::queue::bounded(2);
/// tx.send(7).unwrap();
/// assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(7));
/// ```
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "a queue holds at least one message");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            receiver_parked: false,
            senders_parked: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
        len: AtomicUsize::new(0),
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicBool::new(true),
        #[cfg(test)]
        wakes: AtomicUsize::new(0),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver {
            shared,
            spin: AtomicBool::new(false),
        },
    )
}

/// The producing half; each clone is another producer feeding the same
/// queue.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Enqueues `msg`, waiting while the queue is full: a bounded spin
    /// for room first, then asleep until the receiver makes some.
    ///
    /// # Errors
    ///
    /// [`SendError`] (with the message) if the receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let shared = &*self.shared;
        let mut state = shared.lock();
        let mut spun = false;
        loop {
            if !shared.receiver_alive() {
                return Err(SendError(msg));
            }
            if state.queue.len() < shared.capacity {
                shared.push(state, msg);
                return Ok(());
            }
            if spun {
                state.senders_parked += 1;
                state = park_until(&shared.not_full, state, None).0;
                state.senders_parked -= 1;
            } else {
                drop(state);
                spin_until(None, || {
                    shared.len.load(Ordering::Acquire) < shared.capacity || !shared.receiver_alive()
                });
                spun = true;
                state = shared.lock();
            }
        }
    }

    /// Enqueues `msg` if there is room, without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] at capacity, [`TrySendError::Disconnected`]
    /// if the receiver is gone; both hand the message back.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let state = self.shared.lock();
        if !self.shared.receiver_alive() {
            return Err(TrySendError::Disconnected(msg));
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(TrySendError::Full(msg));
        }
        self.shared.push(state, msg);
        Ok(())
    }

    /// Messages currently queued: exact when read, stale as soon as the
    /// other side moves.
    pub fn depth(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        // Cannot race the fall to zero: `self` is a live sender.
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // A receiver asleep in a receive has to observe the disconnect.
            let parked = std::mem::take(&mut state.receiver_parked);
            drop(state);
            if parked {
                self.shared.wake_receiver();
            }
        }
    }
}

/// The consuming half (single consumer — not cloneable).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
    /// Whether the next wait spins before it parks: only while the
    /// previous one ended within [`SPIN_BOUND`], i.e. while the producers
    /// keep pace. A consumer that has never received, or that last slept
    /// longer than the bound, goes straight to sleep.
    spin: AtomicBool,
}

impl<T> Receiver<T> {
    fn pop(&self, state: &mut State<T>) -> Option<T> {
        let msg = state.queue.pop_front()?;
        self.shared.popped(state, true);
        Some(msg)
    }

    /// Waits up to `timeout` for a message: a bounded spin while the
    /// producers keep pace, then asleep. The spin counts against the
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] once the queue is empty and all
    /// senders are gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Some(Instant::now() + timeout);
        let shared = &*self.shared;
        let ready = || shared.len.load(Ordering::Acquire) > 0 || shared.disconnected();
        // When the wait began, if there is one.
        let began = (!ready()).then(Instant::now);
        if began.is_some() && self.spin.load(Ordering::Relaxed) {
            spin_until(deadline, ready);
        }
        let mut state = shared.lock();
        let out = loop {
            if let Some(msg) = self.pop(&mut state) {
                break Ok(msg);
            }
            if shared.disconnected() {
                break Err(RecvTimeoutError::Disconnected);
            }
            state.receiver_parked = true;
            let expired;
            (state, expired) = park_until(&shared.not_empty, state, deadline);
            state.receiver_parked = false;
            if expired {
                break Err(RecvTimeoutError::Timeout);
            }
        };
        drop(state);
        let spin = began.is_none_or(|began| began.elapsed() < SPIN_BOUND);
        self.spin.store(spin, Ordering::Relaxed);
        out
    }

    /// Dequeues a message if one is ready, without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.pop(&mut self.shared.lock())
    }

    /// Dequeues up to `max` ready messages, never blocking for more — all
    /// under **one** acquisition of the queue's lock, and with one wake-up
    /// of the senders a full queue had parked, however many are taken.
    /// The iterator holds that lock until it is dropped: collect from it,
    /// do not work inside the loop.
    ///
    /// ```
    /// let (tx, rx) = pmem::handoff::queue::bounded(4);
    /// for i in 0..4 {
    ///     tx.send(i).unwrap();
    /// }
    /// let firsts: Vec<i32> = rx.drain(3).collect();
    /// assert_eq!((firsts, rx.depth()), (vec![0, 1, 2], 1));
    /// ```
    pub fn drain(&self, max: usize) -> Drain<'_, T> {
        Drain {
            shared: &self.shared,
            state: self.shared.lock(),
            left: max,
            taken: false,
        }
    }

    /// Messages currently queued: exact when read, stale as soon as the
    /// other side moves.
    pub fn depth(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        self.shared.receiver_alive.store(false, Ordering::Release);
        // Undelivered messages drop here; every sender asleep on a full
        // queue has to observe the disconnect.
        state.queue.clear();
        self.shared.popped(&state, false);
    }
}

/// The draining iterator [`Receiver::drain`] returns.
pub struct Drain<'a, T> {
    shared: &'a Shared<T>,
    state: MutexGuard<'a, State<T>>,
    left: usize,
    taken: bool,
}

impl<T> Iterator for Drain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.left = self.left.checked_sub(1)?;
        let msg = self.state.queue.pop_front()?;
        self.taken = true;
        Some(msg)
    }
}

impl<T> Drop for Drain<'_, T> {
    fn drop(&mut self) {
        if self.taken {
            self.shared.popped(&self.state, false);
        }
    }
}

/// A test's view of a queue's insides, through a handle that outlives
/// both halves.
#[cfg(test)]
pub(crate) struct Probe<T>(Arc<Shared<T>>);

#[cfg(test)]
impl<T> Probe<T> {
    /// Condvar notifications issued, i.e. wake-up syscalls.
    pub(crate) fn wakes(&self) -> usize {
        self.0.wakes.load(Ordering::Relaxed)
    }

    /// Whether the receiver is asleep: it sets the flag with the lock
    /// held and releases the lock only by waiting.
    pub(crate) fn receiver_parked(&self) -> bool {
        self.0.lock().receiver_parked
    }

    /// Senders asleep on the full queue.
    pub(crate) fn senders_parked(&self) -> usize {
        self.0.lock().senders_parked
    }
}

#[cfg(test)]
impl<T> Sender<T> {
    pub(crate) fn probe(&self) -> Probe<T> {
        Probe(Arc::clone(&self.shared))
    }
}

#[cfg(test)]
impl<T> Receiver<T> {
    /// Whether the next wait spins before it parks.
    pub(crate) fn spins(&self) -> bool {
        self.spin.load(Ordering::Relaxed)
    }
}

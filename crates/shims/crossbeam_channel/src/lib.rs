//! Offline stand-in for the `crossbeam-channel` crate (see
//! `crates/shims/README.md`).
//!
//! Implements the bounded multi-producer single-consumer surface the
//! `service` crate uses — [`bounded`], blocking/non-blocking sends,
//! blocking/timed/non-blocking receives, and queue introspection
//! ([`Sender::len`] / [`Receiver::len`]) — over a `Mutex<VecDeque>` and
//! two condvars. No `select!`, no zero-capacity rendezvous channels.
//!
//! The hand-off follows two rules. **A waker makes a syscall only when
//! its peer is parked**: whoever is about to sleep says so under the
//! queue's lock, and `send`, a pop and a disconnect notify a condvar only
//! when that is set. **A waiter parks only after a bounded spin**
//! ([`SPIN_BOUND`]) on lock-free mirrors of the queue's length and the
//! peer counts — which the receiver skips while its previous wait
//! outlasted the bound, so an idle consumer costs nothing.

#[path = "../../spin_wait.rs"]
mod spin_wait;

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use spin_wait::SPIN_BOUND;
use spin_wait::{park_until, spin_until, POISONED};

/// Error returned by [`Sender::send`] when the receiver has been dropped;
/// carries the unsent message back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Sender::try_send`].
#[derive(PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity; the message is handed back.
    Full(T),
    /// The receiver has been dropped; the message is handed back.
    Disconnected(T),
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

/// Error returned by [`Receiver::recv`]: every sender has been dropped
/// and the queue is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// Every sender has been dropped and the queue is empty.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty.
    Empty,
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
        self.state.lock().expect(POISONED)
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

/// Creates a bounded channel holding at most `capacity` queued messages.
/// `capacity` must be at least 1 (no rendezvous channels).
///
/// ```
/// let (tx, rx) = crossbeam_channel::bounded(2);
/// tx.send(7).unwrap();
/// assert_eq!(rx.recv(), Ok(7));
/// ```
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded(0) rendezvous channels not supported");
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

/// The producing half of a channel; cloneable — each clone is another
/// producer feeding the same queue.
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
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    /// True if no messages are queued (as [`Sender::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The queue's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
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
            // A receiver asleep in recv has to observe the disconnect.
            let parked = std::mem::take(&mut state.receiver_parked);
            drop(state);
            if parked {
                self.shared.wake_receiver();
            }
        }
    }
}

/// The consuming half of a channel (single consumer — not cloneable).
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

    /// The one wait behind `recv` and `recv_timeout`.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
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

    /// Waits until a message arrives or every sender is dropped: a
    /// bounded spin while the producers keep pace, then asleep.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the queue is empty and all senders are gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Waits up to `timeout` for a message, as [`Receiver::recv`]; the
    /// spin counts against the timeout.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] once the queue is empty and all
    /// senders are gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Dequeues a message if one is ready, without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued,
    /// [`TryRecvError::Disconnected`] once the queue is empty and all
    /// senders are gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        if let Some(msg) = self.pop(&mut state) {
            return Ok(msg);
        }
        if self.shared.disconnected() {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Dequeues what is ready, never blocking for more — all under
    /// **one** acquisition of the queue's lock, and with one wake-up of
    /// the senders a full queue had parked, however many messages are
    /// taken. Unlike upstream's, the iterator holds that lock until it
    /// is dropped: collect from it, do not work inside the loop.
    ///
    /// ```
    /// let (tx, rx) = crossbeam_channel::bounded(4);
    /// for i in 0..4 {
    ///     tx.send(i).unwrap();
    /// }
    /// let firsts: Vec<i32> = rx.try_iter().take(3).collect();
    /// assert_eq!((firsts, rx.len()), (vec![0, 1, 2], 1));
    /// ```
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter {
            shared: &self.shared,
            state: self.shared.lock(),
            taken: false,
        }
    }

    /// Messages currently queued: exact when read, stale as soon as the
    /// other side moves.
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    /// True if no messages are queued (as [`Receiver::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

/// Draining iterator returned by [`Receiver::try_iter`].
pub struct TryIter<'a, T> {
    shared: &'a Shared<T>,
    state: MutexGuard<'a, State<T>>,
    taken: bool,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let msg = self.state.queue.pop_front()?;
        self.taken = true;
        Some(msg)
    }
}

impl<T> Drop for TryIter<'_, T> {
    fn drop(&mut self) {
        if self.taken {
            self.shared.popped(&self.state, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    fn wakes<T>(shared: &Shared<T>) -> usize {
        shared.wakes.load(Ordering::Relaxed)
    }

    /// Returns once the receiver is asleep: it sets the flag with the
    /// lock held and releases the lock only by waiting.
    fn until_receiver_parked<T>(shared: &Shared<T>) {
        while !shared.lock().receiver_parked {
            thread::yield_now();
        }
    }

    /// Returns once `n` senders are asleep on the full queue.
    fn until_senders_parked<T>(shared: &Shared<T>, n: usize) {
        while shared.lock().senders_parked != n {
            thread::yield_now();
        }
    }

    /// Leaves `rx` in the state where its next wait spins: its last one
    /// found a message already queued.
    fn warm<T>(tx: &Sender<T>, rx: &Receiver<T>, msg: T) {
        tx.send(msg).unwrap();
        rx.recv().unwrap();
        assert!(rx.spin.load(Ordering::Relaxed));
    }

    #[test]
    fn fifo_order_across_producers() {
        let (tx, rx) = bounded(8);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        tx.send(3).unwrap();
        assert_eq!((tx.len(), rx.len()), (3, 3));
        assert_eq!((rx.recv(), rx.recv(), rx.recv()), (Ok(1), Ok(2), Ok(3)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert!(tx.is_empty() && rx.is_empty());
    }

    #[test]
    fn try_send_observes_capacity() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!((rx.recv(), rx.recv()), (Ok(2), Ok(3)));
    }

    #[test]
    fn try_iter_drains_in_order_and_stops_when_asked() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        let firsts: Vec<i32> = rx.try_iter().take(3).collect();
        assert_eq!((firsts, rx.len()), (vec![0, 1, 2], 1));
        tx.try_send(4).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!((rx.len(), rx.try_iter().next()), (0, None));
    }

    #[test]
    fn blocking_send_resumes_when_room_appears() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        let h = thread::spawn(move || tx2.send(2));
        until_senders_parked(&tx.shared, 1);
        assert_eq!(rx.recv(), Ok(1));
        h.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        // One sleeper, one wake-up — and none for the pop nobody waited on.
        assert_eq!(wakes(&tx.shared), 1);
    }

    #[test]
    fn one_drain_wakes_every_parked_sender_once() {
        let (tx, rx) = bounded(2);
        tx.send(0).unwrap();
        tx.send(0).unwrap();
        let parked: Vec<_> = (1..=2)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(i))
            })
            .collect();
        until_senders_parked(&tx.shared, 2);
        assert_eq!(rx.try_iter().count(), 2);
        for h in parked {
            h.join().unwrap().unwrap();
        }
        assert_eq!(wakes(&tx.shared), 1);
        let mut rest: Vec<i32> = rx.try_iter().collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn nobody_asleep_nobody_woken() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!((rx.recv(), rx.try_recv()), (Ok(1), Ok(2)));
        tx.send(3).unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        let shared = Arc::clone(&tx.shared);
        drop(tx);
        drop(rx);
        assert_eq!(wakes(&shared), 0);
    }

    #[test]
    fn send_to_a_provably_parked_receiver_wakes_it_exactly_once() {
        let (tx, rx) = bounded(4);
        let shared = Arc::clone(&tx.shared);
        let h = thread::spawn(move || rx.recv());
        until_receiver_parked(&shared);
        tx.send(7).unwrap();
        assert_eq!(h.join().unwrap(), Ok(7));
        assert_eq!(wakes(&shared), 1);
    }

    /// 100 k round trips over two channels: every interleaving of a send
    /// with the waiter's probes, its last look under the lock and its
    /// park gets its turn, and a lost wake-up would hang the test.
    #[test]
    fn ping_pong_loses_no_wake_up() {
        const ROUNDS: u32 = 100_000;
        let (ping_tx, ping_rx) = bounded(1);
        let (pong_tx, pong_rx) = bounded(1);
        let echo = thread::spawn(move || {
            for msg in std::iter::from_fn(|| ping_rx.recv().ok()) {
                pong_tx.send(msg).unwrap();
            }
        });
        for i in 0..ROUNDS {
            ping_tx.send(i).unwrap();
            assert_eq!(pong_rx.recv(), Ok(i));
        }
        drop(ping_tx);
        echo.join().unwrap();
        assert_eq!(pong_rx.recv(), Err(RecvError));
    }

    /// The same through a full queue: the sender's wait for room races
    /// the receiver's pops.
    #[test]
    fn full_queue_hand_off_loses_no_wake_up() {
        const MESSAGES: u32 = 100_000;
        let (tx, rx) = bounded(1);
        let producer = thread::spawn(move || {
            for i in 0..MESSAGES {
                tx.send(i).unwrap();
            }
        });
        for i in 0..MESSAGES {
            assert_eq!(rx.recv(), Ok(i));
        }
        producer.join().unwrap();
    }

    #[test]
    fn disconnects_propagate_both_ways() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(matches!(tx.send(1), Err(SendError(1))));
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));

        let (tx, rx) = bounded::<u32>(1);
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn last_sender_dropping_wakes_a_parked_receiver() {
        let (tx, rx) = bounded::<u32>(1);
        let tx2 = tx.clone();
        let shared = Arc::clone(&tx.shared);
        let h = thread::spawn(move || rx.recv());
        until_receiver_parked(&shared);
        drop(tx2); // not the last: nobody to tell
        assert_eq!(wakes(&shared), 0);
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
        assert_eq!(wakes(&shared), 1);
    }

    #[test]
    fn last_sender_dropping_ends_a_spinning_receivers_wait() {
        for _ in 0..200 {
            let (tx, rx) = bounded(1);
            warm(&tx, &rx, 0u32);
            let start = Arc::new(Barrier::new(2));
            let go = Arc::clone(&start);
            let h = thread::spawn(move || {
                go.wait();
                rx.recv()
            });
            start.wait();
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvError));
        }
    }

    #[test]
    fn receiver_dropping_fails_a_parked_sender() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let shared = Arc::clone(&tx.shared);
        let h = thread::spawn(move || tx.send(2));
        until_senders_parked(&shared, 1);
        drop(rx);
        assert!(matches!(h.join().unwrap(), Err(SendError(2))));
        assert_eq!(wakes(&shared), 1);
    }

    #[test]
    fn receiver_dropping_fails_a_spinning_sender() {
        for _ in 0..200 {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let start = Arc::new(Barrier::new(2));
            let go = Arc::clone(&start);
            let h = thread::spawn(move || {
                go.wait();
                tx.send(2)
            });
            start.wait();
            drop(rx);
            assert!(matches!(h.join().unwrap(), Err(SendError(2))));
        }
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded(1);
        let timeout = Duration::from_millis(5);
        let began = Instant::now();
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        assert!(began.elapsed() >= timeout);
        tx.send(4).unwrap();
        assert_eq!(rx.recv_timeout(timeout), Ok(4));
    }

    /// The spin counts against the deadline: a timeout shorter than the
    /// bound ends a spinning wait when it expires, not when the bound does.
    #[test]
    fn recv_timeout_cuts_the_spin_short() {
        let timeout = SPIN_BOUND / 4;
        let (tx, rx) = bounded(1);
        let quickest = (0..50)
            .map(|_| {
                warm(&tx, &rx, 0u32);
                let began = Instant::now();
                assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
                began.elapsed()
            })
            .min()
            .unwrap();
        assert!(quickest >= timeout);
        assert!(
            quickest < SPIN_BOUND,
            "{quickest:?}: the spin ran to its bound"
        );
    }

    /// A receiver spins only while its producers keep pace.
    #[test]
    fn receiver_spins_only_after_a_short_wait() {
        let (tx, rx) = bounded(1);
        assert!(!rx.spin.load(Ordering::Relaxed), "fresh: parks at once");
        warm(&tx, &rx, 0u32);
        let long = SPIN_BOUND * 2;
        assert_eq!(rx.recv_timeout(long), Err(RecvTimeoutError::Timeout));
        assert!(!rx.spin.load(Ordering::Relaxed), "outlasted the bound");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert!(!rx.spin.load(Ordering::Relaxed), "try_recv is not a wait");
    }
}

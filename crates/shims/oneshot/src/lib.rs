//! Offline stand-in for the `oneshot` crate (see
//! `crates/shims/README.md`).
//!
//! A single-message, single-use channel: the `service` crate's reply
//! slot. The sender moves exactly one value in; the receiver blocks
//! until that value (or the sender's drop) arrives. Built on a
//! `Mutex<Option<T>>` and one condvar — no async integration.
//!
//! The hand-off follows the same two rules as the `crossbeam_channel`
//! shim. **The sender makes a syscall only when the receiver is
//! parked**: it visits the slot once — [`Sender::send`] leaves nothing
//! for its `Drop` to do — and notifies the condvar only if the receiver
//! said, under the slot's lock, that it was going to sleep. **The
//! receiver parks only after a bounded spin** ([`SPIN_BOUND`]) on an
//! atomic the sender sets when it is done with the slot.

#[path = "../../spin_wait.rs"]
mod spin_wait;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use spin_wait::SPIN_BOUND;
use spin_wait::{park_until, spin_until, POISONED};

/// Error returned by [`Receiver::recv`]: the sender was dropped without
/// sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No value arrived within the timeout.
    Timeout,
    /// The sender was dropped without sending.
    Disconnected,
}

/// Error returned by [`Sender::send`] when the receiver has been
/// dropped; carries the unsent value back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

struct State<T> {
    value: Option<T>,
    receiver_alive: bool,
    /// The receiver is asleep on `ready`: set by it just before it
    /// waits, cleared by the sender when it wakes it.
    receiver_parked: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// The sender is done with the slot — it sent, or was dropped. Set
    /// under the lock, so a receiver that re-checks it with the lock held
    /// and then parks cannot miss it; read without the lock by a
    /// spinning one (`Release` store, `Acquire` load — though the value
    /// itself is only ever taken under the lock).
    done: AtomicBool,
    /// Condvar notifications issued, i.e. wake-up syscalls.
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicUsize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect(POISONED)
    }

    /// The sender's one visit to the slot: leaves `value` (or nothing:
    /// the sender was dropped) and wakes the receiver if it is asleep.
    /// Hands `value` back if the receiver is gone.
    fn complete(&self, value: Option<T>) -> Option<T> {
        let mut state = self.lock();
        if !state.receiver_alive {
            return value;
        }
        state.value = value;
        self.done.store(true, Ordering::Release);
        let parked = std::mem::take(&mut state.receiver_parked);
        drop(state);
        if parked {
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::Relaxed);
            self.ready.notify_one();
        }
        None
    }
}

/// Creates a fresh oneshot channel.
///
/// ```
/// let (tx, rx) = oneshot::channel();
/// tx.send(42).unwrap();
/// assert_eq!(rx.recv(), Ok(42));
/// ```
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            value: None,
            receiver_alive: true,
            receiver_parked: false,
        }),
        ready: Condvar::new(),
        done: AtomicBool::new(false),
        #[cfg(test)]
        wakes: Default::default(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
            sent: false,
        },
        Receiver { shared },
    )
}

/// The sending half; consumed by [`Sender::send`].
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
    sent: bool,
}

impl<T> Sender<T> {
    /// Moves `value` to the receiver and consumes the sender.
    ///
    /// # Errors
    ///
    /// [`SendError`] (with the value) if the receiver is gone.
    pub fn send(mut self, value: T) -> Result<(), SendError<T>> {
        self.sent = true;
        match self.shared.complete(Some(value)) {
            None => Ok(()),
            Some(value) => Err(SendError(value)),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if !self.sent {
            self.shared.complete(None);
        }
    }
}

/// The receiving half; consumed by [`Receiver::recv`] /
/// [`Receiver::recv_timeout`].
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// The one wait behind `recv` and `recv_timeout`.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let shared = &*self.shared;
        let done = || shared.done.load(Ordering::Acquire);
        spin_until(deadline, done);
        let mut state = shared.lock();
        loop {
            if done() {
                return state.value.take().ok_or(RecvTimeoutError::Disconnected);
            }
            state.receiver_parked = true;
            let expired;
            (state, expired) = park_until(&shared.ready, state, deadline);
            if expired {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Waits until the value arrives: a bounded spin, then asleep.
    ///
    /// # Errors
    ///
    /// [`RecvError`] if the sender was dropped without sending.
    pub fn recv(self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Waits up to `timeout` for the value, as [`Receiver::recv`]; the
    /// spin counts against the timeout.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] if the sender was dropped
    /// without sending.
    pub fn recv_timeout(self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Returns the value if it has already arrived, without blocking;
    /// `None` leaves the receiver usable.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.lock().value.take()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};
    use std::thread;

    fn wakes<T>(shared: &Shared<T>) -> usize {
        shared.wakes.load(Ordering::Relaxed)
    }

    /// Returns once the receiver is asleep: it sets the flag with the
    /// lock held and releases the lock only by waiting.
    fn until_parked<T>(shared: &Shared<T>) {
        while !shared.lock().receiver_parked {
            thread::yield_now();
        }
    }

    #[test]
    fn send_to_a_provably_parked_receiver_wakes_it_exactly_once() {
        let (tx, rx) = channel();
        let shared = Arc::clone(&tx.shared);
        let h = thread::spawn(move || rx.recv());
        until_parked(&shared);
        tx.send("hi").unwrap();
        assert_eq!(h.join().unwrap(), Ok("hi"));
        // `send` completed the slot; its `Drop` had nothing left to do.
        assert_eq!(wakes(&shared), 1);
    }

    #[test]
    fn nobody_asleep_nobody_woken() {
        let (tx, rx) = channel();
        let shared = Arc::clone(&tx.shared);
        tx.send(1).unwrap();
        assert_eq!(rx.recv(), Ok(1));

        let (tx, rx) = channel::<u32>();
        let dropped = Arc::clone(&tx.shared);
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!((wakes(&shared), wakes(&dropped)), (0, 0));
    }

    /// 100 k replies, each through a fresh slot, to a waiter that is
    /// somewhere between its first probe and its park when the reply
    /// lands: a lost wake-up would hang the test.
    #[test]
    fn replies_lose_no_wake_up() {
        const ROUNDS: u32 = 100_000;
        let (requests, inbox) = mpsc::channel::<(u32, Sender<u32>)>();
        let echo = thread::spawn(move || loop {
            // Polled, so that what a round waits for is the reply slot
            // and not this inbox's own park and wake-up.
            match inbox.try_recv() {
                Ok((i, reply)) => reply.send(i).unwrap(),
                Err(mpsc::TryRecvError::Empty) => thread::yield_now(),
                Err(mpsc::TryRecvError::Disconnected) => break,
            }
        });
        for i in 0..ROUNDS {
            let (tx, rx) = channel();
            requests.send((i, tx)).unwrap();
            assert_eq!(rx.recv(), Ok(i));
        }
        drop(requests);
        echo.join().unwrap();
    }

    #[test]
    fn try_recv_takes_the_value_once_it_is_there() {
        let (tx, rx) = channel();
        assert_eq!(rx.try_recv(), None);
        tx.send(5).unwrap();
        assert_eq!(rx.try_recv(), Some(5));
    }

    #[test]
    fn dropped_sender_disconnects_a_parked_receiver() {
        let (tx, rx) = channel::<u32>();
        let shared = Arc::clone(&tx.shared);
        let h = thread::spawn(move || rx.recv());
        until_parked(&shared);
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
        assert_eq!(wakes(&shared), 1);
    }

    #[test]
    fn dropped_sender_disconnects_a_spinning_receiver() {
        for _ in 0..200 {
            let (tx, rx) = channel::<u32>();
            let start = Arc::new(Barrier::new(2));
            let go = Arc::clone(&start);
            let h = thread::spawn(move || {
                go.wait();
                rx.recv_timeout(Duration::from_secs(60))
            });
            start.wait();
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
        }
    }

    #[test]
    fn dropped_receiver_rejects_send() {
        let (tx, rx) = channel();
        drop(rx);
        assert!(matches!(tx.send(1), Err(SendError(1))));
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = channel::<u32>();
        let timeout = Duration::from_millis(5);
        let began = Instant::now();
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        assert!(began.elapsed() >= timeout);
        drop(tx);
    }

    /// The spin counts against the deadline: a timeout shorter than the
    /// bound ends the wait when it expires, not when the bound does.
    #[test]
    fn recv_timeout_cuts_the_spin_short() {
        let timeout = SPIN_BOUND / 4;
        let quickest = (0..50)
            .map(|_| {
                let (_tx, rx) = channel::<u32>();
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
}

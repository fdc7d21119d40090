//! A request's reply slot: one value, sent once, over a
//! `Mutex<Option<T>>` and one condvar.
//!
//! The sender visits the slot once — [`Sender::send`] leaves nothing for
//! its `Drop` to do — and notifies the condvar only if the receiver said,
//! under the slot's lock, that it was going to sleep. The receiver parks
//! only after a bounded spin ([`SPIN_BOUND`](super::SPIN_BOUND)) on an
//! atomic the sender sets when it is done with the slot.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use super::{lock, park_until, spin_until, SendError};

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
        lock(&self.state)
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

/// Creates a fresh reply slot.
///
/// ```
/// let (tx, rx) = pmem::handoff::slot::channel();
/// tx.send(42).unwrap();
/// assert_eq!(rx.recv(), Some(42));
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

/// The sending half; consumed by [`Sender::send`]. Dropping it unsent
/// disconnects the receiver.
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

/// The receiving half; consumed by [`Receiver::recv`].
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Waits until the value arrives: a bounded spin, then asleep. `None`
    /// if the sender was dropped without sending.
    pub fn recv(self) -> Option<T> {
        let shared = &*self.shared;
        let done = || shared.done.load(Ordering::Acquire);
        spin_until(None, done);
        let mut state = shared.lock();
        while !done() {
            state.receiver_parked = true;
            state = park_until(&shared.ready, state, None).0;
        }
        state.value.take()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_alive = false;
    }
}

/// A test's view of a slot's insides, through a handle that outlives
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
}

#[cfg(test)]
impl<T> Sender<T> {
    pub(crate) fn probe(&self) -> Probe<T> {
        Probe(Arc::clone(&self.shared))
    }
}

//! Unit tests of [`crate::handoff`]'s lane queue and reply slot: order and
//! backpressure, disconnects both ways, the lost-wake-up races, and wake
//! counts (condvar notifications, read through each primitive's
//! test-only `Probe`).

use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use crate::handoff::queue::{self, RecvTimeoutError, TrySendError};
use crate::handoff::{slot, SendError, SPIN_BOUND};

/// Longer than any test waits for a message that is on its way.
const LONG: Duration = Duration::from_secs(60);

/// Returns once `cond` holds; for states another thread enters and stays
/// in, such as asleep on a condvar.
fn until(cond: impl Fn() -> bool) {
    while !cond() {
        thread::yield_now();
    }
}

/// Leaves `rx` in the state where its next wait spins: its last one
/// found a message already queued.
fn warm(tx: &queue::Sender<u32>, rx: &queue::Receiver<u32>) {
    tx.send(0).unwrap();
    assert!(rx.recv_timeout(LONG).is_ok());
    assert!(rx.spins());
}

#[test]
fn fifo_order_across_producers() {
    let (tx, rx) = queue::bounded(8);
    let tx2 = tx.clone();
    tx.send(1).unwrap();
    tx2.send(2).unwrap();
    tx.send(3).unwrap();
    assert_eq!((tx.depth(), rx.depth()), (3, 3));
    let got: Vec<_> = (0..3).map(|_| rx.recv_timeout(LONG)).collect();
    assert_eq!(got, [Ok(1), Ok(2), Ok(3)]);
    assert_eq!(rx.try_recv(), None);
    assert_eq!((tx.depth(), rx.depth()), (0, 0));
}

#[test]
fn try_send_observes_capacity() {
    let (tx, rx) = queue::bounded(2);
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();
    assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
    assert_eq!(rx.try_recv(), Some(1));
    tx.try_send(3).unwrap();
    assert_eq!((rx.try_recv(), rx.try_recv()), (Some(2), Some(3)));
}

#[test]
fn try_recv_takes_the_value_once_it_is_there() {
    let (tx, rx) = queue::bounded(1);
    assert_eq!(rx.try_recv(), None);
    tx.send(5).unwrap();
    assert_eq!((rx.try_recv(), rx.try_recv()), (Some(5), None));
}

/// The group drain, `drain(n)` (what `try_iter().take(n)` was).
#[test]
fn try_iter_drains_in_order_and_stops_when_asked() {
    let (tx, rx) = queue::bounded(4);
    for i in 0..4 {
        tx.send(i).unwrap();
    }
    let firsts: Vec<i32> = rx.drain(3).collect();
    assert_eq!((firsts, rx.depth()), (vec![0, 1, 2], 1));
    tx.try_send(4).unwrap();
    assert_eq!(rx.drain(8).collect::<Vec<_>>(), vec![3, 4]);
    assert_eq!((rx.depth(), rx.drain(8).next()), (0, None));
    tx.send(5).unwrap();
    assert_eq!((rx.drain(0).next(), rx.depth()), (None, 1));
}

#[test]
fn blocking_send_resumes_when_room_appears() {
    let (tx, rx) = queue::bounded(1);
    let probe = tx.probe();
    tx.send(1).unwrap();
    let tx2 = tx.clone();
    let h = thread::spawn(move || tx2.send(2));
    until(|| probe.senders_parked() == 1);
    assert_eq!(rx.try_recv(), Some(1));
    h.join().unwrap().unwrap();
    assert_eq!(rx.try_recv(), Some(2));
    // One sleeper, one wake-up — and none for the pop nobody waited on.
    assert_eq!(probe.wakes(), 1);
}

#[test]
fn one_drain_wakes_every_parked_sender_once() {
    let (tx, rx) = queue::bounded(2);
    let probe = tx.probe();
    tx.send(0).unwrap();
    tx.send(0).unwrap();
    let parked: Vec<_> = (1..=2)
        .map(|i| {
            let tx = tx.clone();
            thread::spawn(move || tx.send(i))
        })
        .collect();
    until(|| probe.senders_parked() == 2);
    assert_eq!(rx.drain(2).count(), 2);
    for h in parked {
        h.join().unwrap().unwrap();
    }
    assert_eq!(probe.wakes(), 1);
    let mut rest: Vec<i32> = rx.drain(2).collect();
    rest.sort_unstable();
    assert_eq!(rest, vec![1, 2]);
}

/// For the queue and for the reply slot.
#[test]
fn nobody_asleep_nobody_woken() {
    let (tx, rx) = queue::bounded(4);
    let probe = tx.probe();
    tx.send(1).unwrap();
    tx.try_send(2).unwrap();
    assert_eq!((rx.recv_timeout(LONG), rx.try_recv()), (Ok(1), Some(2)));
    tx.send(3).unwrap();
    assert_eq!(rx.drain(4).count(), 1);
    drop(tx);
    drop(rx);
    assert_eq!(probe.wakes(), 0);

    let (tx, rx) = slot::channel();
    let sent = tx.probe();
    tx.send(1).unwrap();
    assert_eq!(rx.recv(), Some(1));
    let (tx, rx) = slot::channel::<u32>();
    let dropped = tx.probe();
    drop(tx);
    assert_eq!(rx.recv(), None);
    assert_eq!((sent.wakes(), dropped.wakes()), (0, 0));
}

/// For the queue and for the reply slot.
#[test]
fn send_to_a_provably_parked_receiver_wakes_it_exactly_once() {
    let (tx, rx) = queue::bounded(4);
    let probe = tx.probe();
    let h = thread::spawn(move || rx.recv_timeout(LONG));
    until(|| probe.receiver_parked());
    tx.send(7).unwrap();
    assert_eq!(h.join().unwrap(), Ok(7));
    assert_eq!(probe.wakes(), 1);

    let (tx, rx) = slot::channel();
    let probe = tx.probe();
    let h = thread::spawn(move || rx.recv());
    until(|| probe.receiver_parked());
    tx.send("hi").unwrap();
    assert_eq!(h.join().unwrap(), Some("hi"));
    // `send` completed the slot; its `Drop` had nothing left to do.
    assert_eq!(probe.wakes(), 1);
}

/// 100 k round trips over two queues: every interleaving of a send
/// with the waiter's probes, its last look under the lock and its
/// park gets its turn, and a lost wake-up would hang the test.
#[test]
fn ping_pong_loses_no_wake_up() {
    const ROUNDS: u32 = 100_000;
    let (ping_tx, ping_rx) = queue::bounded(1);
    let (pong_tx, pong_rx) = queue::bounded(1);
    let echo = thread::spawn(move || {
        for msg in std::iter::from_fn(|| ping_rx.recv_timeout(LONG).ok()) {
            pong_tx.send(msg).unwrap();
        }
    });
    for i in 0..ROUNDS {
        ping_tx.send(i).unwrap();
        assert_eq!(pong_rx.recv_timeout(LONG), Ok(i));
    }
    drop(ping_tx);
    echo.join().unwrap();
    assert_eq!(
        pong_rx.recv_timeout(LONG),
        Err(RecvTimeoutError::Disconnected)
    );
}

/// The same through a full queue: the sender's wait for room races
/// the receiver's pops.
#[test]
fn full_queue_hand_off_loses_no_wake_up() {
    const MESSAGES: u32 = 100_000;
    let (tx, rx) = queue::bounded(1);
    let producer = thread::spawn(move || {
        for i in 0..MESSAGES {
            tx.send(i).unwrap();
        }
    });
    for i in 0..MESSAGES {
        assert_eq!(rx.recv_timeout(LONG), Ok(i));
    }
    producer.join().unwrap();
}

/// 100 k replies, each through a fresh slot, to a waiter that is
/// somewhere between its first probe and its park when the reply
/// lands: a lost wake-up would hang the test.
#[test]
fn replies_lose_no_wake_up() {
    const ROUNDS: u32 = 100_000;
    let (requests, inbox) = mpsc::channel::<(u32, slot::Sender<u32>)>();
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
        let (tx, rx) = slot::channel();
        requests.send((i, tx)).unwrap();
        assert_eq!(rx.recv(), Some(i));
    }
    drop(requests);
    echo.join().unwrap();
}

#[test]
fn disconnects_propagate_both_ways() {
    let (tx, rx) = queue::bounded::<u32>(1);
    drop(rx);
    assert_eq!(tx.send(1), Err(SendError(1)));
    assert_eq!(tx.try_send(2), Err(TrySendError::Disconnected(2)));

    let (tx, rx) = queue::bounded::<u32>(1);
    tx.send(9).unwrap();
    drop(tx);
    assert_eq!(rx.recv_timeout(LONG), Ok(9));
    assert_eq!(rx.try_recv(), None);
    assert_eq!(rx.recv_timeout(LONG), Err(RecvTimeoutError::Disconnected));
}

#[test]
fn last_sender_dropping_wakes_a_parked_receiver() {
    let (tx, rx) = queue::bounded::<u32>(1);
    let tx2 = tx.clone();
    let probe = tx.probe();
    let h = thread::spawn(move || rx.recv_timeout(LONG));
    until(|| probe.receiver_parked());
    drop(tx2); // not the last: nobody to tell
    assert_eq!(probe.wakes(), 0);
    drop(tx);
    assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    assert_eq!(probe.wakes(), 1);
}

#[test]
fn last_sender_dropping_ends_a_spinning_receivers_wait() {
    for _ in 0..200 {
        let (tx, rx) = queue::bounded(1);
        warm(&tx, &rx);
        let start = Arc::new(Barrier::new(2));
        let go = Arc::clone(&start);
        let h = thread::spawn(move || {
            go.wait();
            rx.recv_timeout(LONG)
        });
        start.wait();
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }
}

#[test]
fn receiver_dropping_fails_a_parked_sender() {
    let (tx, rx) = queue::bounded(1);
    tx.send(1).unwrap();
    let probe = tx.probe();
    let h = thread::spawn(move || tx.send(2));
    until(|| probe.senders_parked() == 1);
    drop(rx);
    assert_eq!(h.join().unwrap(), Err(SendError(2)));
    assert_eq!(probe.wakes(), 1);
}

#[test]
fn receiver_dropping_fails_a_spinning_sender() {
    for _ in 0..200 {
        let (tx, rx) = queue::bounded(1);
        tx.send(1).unwrap();
        let start = Arc::new(Barrier::new(2));
        let go = Arc::clone(&start);
        let h = thread::spawn(move || {
            go.wait();
            tx.send(2)
        });
        start.wait();
        drop(rx);
        assert_eq!(h.join().unwrap(), Err(SendError(2)));
    }
}

#[test]
fn dropped_sender_disconnects_a_parked_receiver() {
    let (tx, rx) = slot::channel::<u32>();
    let probe = tx.probe();
    let h = thread::spawn(move || rx.recv());
    until(|| probe.receiver_parked());
    drop(tx);
    assert_eq!(h.join().unwrap(), None);
    assert_eq!(probe.wakes(), 1);
}

#[test]
fn dropped_sender_disconnects_a_spinning_receiver() {
    for _ in 0..200 {
        let (tx, rx) = slot::channel::<u32>();
        let start = Arc::new(Barrier::new(2));
        let go = Arc::clone(&start);
        let h = thread::spawn(move || {
            go.wait();
            rx.recv()
        });
        start.wait();
        drop(tx);
        assert_eq!(h.join().unwrap(), None);
    }
}

#[test]
fn dropped_receiver_rejects_send() {
    let (tx, rx) = slot::channel();
    drop(rx);
    assert_eq!(tx.send(1), Err(SendError(1)));
}

#[test]
fn recv_timeout_times_out_then_delivers() {
    let (tx, rx) = queue::bounded(1);
    let timeout = Duration::from_millis(5);
    let began = Instant::now();
    assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
    assert!(began.elapsed() >= timeout);
    tx.send(4).unwrap();
    assert_eq!(rx.recv_timeout(timeout), Ok(4));
}

/// A wait that spins and then parks keeps its deadline across the two:
/// a timeout longer than the spin expires no sooner than asked.
#[test]
fn recv_timeout_expires() {
    let (tx, rx) = queue::bounded(1);
    let timeout = SPIN_BOUND * 3;
    for _ in 0..5 {
        warm(&tx, &rx);
        let began = Instant::now();
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        assert!(began.elapsed() >= timeout);
    }
}

/// The spin counts against the deadline: a timeout shorter than the
/// bound ends a spinning wait when it expires, not when the bound does.
#[test]
fn recv_timeout_cuts_the_spin_short() {
    let timeout = SPIN_BOUND / 4;
    let (tx, rx) = queue::bounded(1);
    let quickest = (0..50)
        .map(|_| {
            warm(&tx, &rx);
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
    let (tx, rx) = queue::bounded(1);
    assert!(!rx.spins(), "fresh: parks at once");
    warm(&tx, &rx);
    let long = SPIN_BOUND * 2;
    assert_eq!(rx.recv_timeout(long), Err(RecvTimeoutError::Timeout));
    assert!(!rx.spins(), "outlasted the bound");
    assert_eq!(rx.try_recv(), None);
    assert!(!rx.spins(), "try_recv is not a wait");
}

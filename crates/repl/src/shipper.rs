//! The primary-side fan-out: retained ring + subscriber transports.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use pmindex::{BatchOp, IndexError};

use crate::{LogRecord, Transport};

struct Subscriber {
    id: u64,
    transport: Arc<dyn Transport>,
}

struct Inner {
    subs: Vec<Subscriber>,
    next_id: u64,
    /// Recent records, oldest first — the retransmit window.
    retained: VecDeque<LogRecord>,
    retain_cap: usize,
    last: u64,
}

/// The primary side of log shipping: registered as a
/// [`txn::CommitTap`], it hears every committed group, appends it to a
/// bounded retained ring (the retransmit window) and fans it out to
/// every subscribed [`Transport`].
///
/// Retention is volatile by design — a restarted primary starts with an
/// empty window, and a replica whose gap predates the window
/// re-bootstraps (the same contract as a real WAL-shipping system whose
/// archived segments were recycled).
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use pmindex::BatchOp;
/// use repl::{ChannelTransport, LogShipper, Transport};
/// use txn::CommitTap;
///
/// let shipper = LogShipper::new(8);
/// let t = ChannelTransport::new();
/// let sub = shipper.subscribe(Arc::clone(&t) as _);
/// shipper.on_commit(1, &[(0, BatchOp::Put(1, 10))]);
/// assert_eq!(shipper.last_shipped(), 1);
/// assert_eq!(t.poll(Duration::ZERO).unwrap().seq, 1);
/// assert_eq!(shipper.retransmit(sub, 1)?, 1); // still in the window
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct LogShipper {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for LogShipper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("LogShipper")
            .field("subscribers", &inner.subs.len())
            .field("retained", &inner.retained.len())
            .field("last", &inner.last)
            .finish()
    }
}

impl LogShipper {
    /// A shipper retaining up to `retain_cap` recent groups for
    /// retransmission (older groups fall out of the window).
    pub fn new(retain_cap: usize) -> Arc<LogShipper> {
        Arc::new(LogShipper {
            inner: Mutex::new(Inner {
                subs: Vec::new(),
                next_id: 1,
                retained: VecDeque::new(),
                retain_cap: retain_cap.max(1),
                last: 0,
            }),
        })
    }

    /// Adds a subscriber; every subsequently shipped group is offered to
    /// `transport`. Returns the subscription id used for
    /// [`LogShipper::retransmit`] / [`LogShipper::unsubscribe`].
    ///
    /// Subscribe **before** snapshotting the primary for bootstrap, so
    /// no group can fall between snapshot and tail.
    pub fn subscribe(&self, transport: Arc<dyn Transport>) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.subs.push(Subscriber { id, transport });
        id
    }

    /// Removes a subscriber. Returns `false` if the id is unknown.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use repl::{ChannelTransport, LogShipper};
    ///
    /// let shipper = LogShipper::new(8);
    /// let sub = shipper.subscribe(ChannelTransport::new() as _);
    /// assert!(shipper.unsubscribe(sub));
    /// assert!(!shipper.unsubscribe(sub));
    /// ```
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut inner = self.inner.lock();
        let before = inner.subs.len();
        inner.subs.retain(|s| s.id != id);
        inner.subs.len() != before
    }

    /// Number of live subscribers.
    pub fn subscribers(&self) -> usize {
        self.inner.lock().subs.len()
    }

    /// Sequence number of the most recently shipped group (0 before the
    /// first) — what a replica compares its watermark against to decide
    /// whether it is caught up.
    pub fn last_shipped(&self) -> u64 {
        self.inner.lock().last
    }

    /// Re-ships every retained group with `seq >= from` to subscriber
    /// `id`, returning how many were sent. This is the gap-repair path:
    /// a replica that detects a hole at `watermark + 1` asks for
    /// everything from there.
    ///
    /// # Errors
    ///
    /// [`IndexError::Unsupported`] if `id` is unknown, or if `from` has
    /// already fallen out of the retained window (the replica must
    /// re-bootstrap — see [`crate::Replica::bootstrap`]).
    pub fn retransmit(&self, id: u64, from: u64) -> Result<usize, IndexError> {
        let inner = self.inner.lock();
        let sub = inner
            .subs
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| IndexError::Unsupported(format!("unknown subscriber id {id}")))?;
        if from > inner.last {
            return Ok(0); // already caught up
        }
        let floor = inner.retained.front().map_or(from, |rec| rec.seq);
        if from < floor {
            return Err(IndexError::Unsupported(format!(
                "sequence {from} has left the retransmit window (floor {floor}); re-bootstrap"
            )));
        }
        let mut sent = 0;
        for rec in inner.retained.iter().filter(|rec| rec.seq >= from) {
            sub.transport.ship(rec.clone());
            sent += 1;
        }
        Ok(sent)
    }
}

impl txn::CommitTap for LogShipper {
    fn on_commit(&self, seq: u64, ops: &[(u64, BatchOp)]) {
        let rec = LogRecord {
            seq,
            ops: ops.to_vec(),
        };
        let mut inner = self.inner.lock();
        if seq <= inner.last {
            // A recover() replay of a group we already shipped this
            // process lifetime — subscribers would dedup it anyway, but
            // there is no reason to re-ship or re-retain it.
            return;
        }
        inner.last = seq;
        if inner.retained.len() == inner.retain_cap {
            inner.retained.pop_front();
        }
        inner.retained.push_back(rec.clone());
        for sub in &inner.subs {
            sub.transport.ship(rec.clone());
        }
    }
}

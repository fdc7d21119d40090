//! What the workers have been handed and not yet finished — the two
//! counts [`crate::ClientHandle::submit_get`] reads to decide whether a
//! `get` may run on the calling thread (see the crate docs, "Reads").
//!
//! Everything here is DRAM-only bookkeeping about requests that are alive
//! in this process: a restart begins with every counter at zero because no
//! request survives one, so there is nothing to persist and nothing to
//! recover.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use pmindex::Key;

/// Slots in the in-flight-write table. A slot shared by two keys only ever
/// sends a read down the queue it would have used anyway, so the table is
/// sized for the *false-conflict* rate, not for correctness: with at most
/// `queue_capacity + max_group` (96 by default) writes alive per lane, a
/// read of an untouched key collides with one of them with probability
/// ≤ 96 / 1024 ≈ 9 % on a lane saturated with writes, and ≈ 0.1 % on
/// `svc_read_mostly` (5 % writes in a window of 16; the `conflict_gets`
/// measured there are hot-key conflicts). 1 024 × 4 bytes is one page:
/// `Service::start` zeroes it inside the `Shared` allocation it makes
/// anyway, invisible in `restart`'s reopen time.
const SLOTS: usize = 1024;

/// Unfinished requests a lane must already hold before a `get` for it runs
/// on the caller instead of joining the queue — the line between "the
/// worker is idle or nearly so: hand the read over and keep submitting" and
/// "the read would wait behind work the worker has not done". Measured on
/// `svc_read_mostly` (one client, window 16, seed 51, two runs each; 593 k
/// and 615 k ops/s at the parent): 0, i.e. every conflict-free read inline,
/// → 672 k / 692 k — the worker idles and the client is the one reader
/// again; 1 → 778 k / 784 k; 2 → 866 k / 855 k; 4 → 916 k / 923 k; 8 →
/// 883 k / 890 k; 16 or more can never trigger under that window. 2 to 8 is
/// a plateau and 4 sits on it with room on both sides, for clients whose
/// window is shorter or longer than the benchmark's (three more sweeps,
/// same shape: `docs/results/PR24.md`).
const BACKLOG: usize = 4;

/// One lane's count on its own cache line: every submitter and the lane's
/// worker write it, and two lanes' traffic must not meet on one line.
#[repr(align(64))]
#[derive(Default)]
struct LaneCount(AtomicUsize);

/// Per key slot, the writes between submission and the end of their
/// group's apply; per lane, the requests between submission and their
/// group's replies.
///
/// Both counts rise in [`InFlight::admit`], before the request can reach a
/// queue, and fall in [`InFlight::retire`] — which the worker calls once
/// the group's commit + apply has returned (or failed) and before any of
/// its replies is sent, and a submitter calls for a request admission
/// refused. (A pair of rise-only counters per count, so that submitters
/// and workers never write the same cache line, was built and measured:
/// indistinguishable on `svc_write` and `svc_read_mostly`, twice the table
/// — `docs/results/PR24.md`.)
pub(crate) struct InFlight {
    writes: [AtomicU32; SLOTS],
    lanes: Box<[LaneCount]>,
}

impl InFlight {
    pub(crate) fn new(lanes: usize) -> InFlight {
        InFlight {
            writes: [const { AtomicU32::new(0) }; SLOTS],
            lanes: (0..lanes).map(|_| LaneCount::default()).collect(),
        }
    }

    fn slot(&self, key: Key) -> &AtomicU32 {
        // Fibonacci hashing, top bits: adjacent keys land in distant slots.
        &self.writes[(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.ilog2())) as usize]
    }

    /// One request writing `write_keys` is about to be offered to `lane`.
    pub(crate) fn admit(&self, lane: usize, write_keys: impl Iterator<Item = Key>) {
        for key in write_keys {
            self.slot(key).fetch_add(1, Ordering::AcqRel);
        }
        self.lanes[lane].0.fetch_add(1, Ordering::Relaxed);
    }

    /// `requests` requests of `lane`, writing `write_keys` between them,
    /// are finished: applied (or failed, or refused) and not yet answered.
    pub(crate) fn retire(
        &self,
        lane: usize,
        requests: usize,
        write_keys: impl Iterator<Item = Key>,
    ) {
        // Release: a reader that loads the count this leaves also sees the
        // apply that came before it.
        for key in write_keys {
            self.slot(key).fetch_sub(1, Ordering::AcqRel);
        }
        self.lanes[lane].0.fetch_sub(requests, Ordering::Relaxed);
    }

    /// No write to `key` (or to a key sharing its slot) is between its
    /// submission and the end of its apply.
    pub(crate) fn no_write_to(&self, key: Key) -> bool {
        self.slot(key).load(Ordering::Acquire) == 0
    }

    /// A request submitted to `lane` now would wait behind at least
    /// [`BACKLOG`] others.
    pub(crate) fn backlogged(&self, lane: usize) -> bool {
        // A hint about load, never about state: Relaxed.
        self.lanes[lane].0.load(Ordering::Relaxed) >= BACKLOG
    }

    /// Every count is zero: nothing admitted is still unretired.
    #[cfg(test)]
    pub(crate) fn is_zero(&self) -> bool {
        self.writes.iter().all(|s| s.load(Ordering::Acquire) == 0)
            && self.lanes.iter().all(|l| l.0.load(Ordering::Acquire) == 0)
    }

    /// Another key that shares `key`'s slot.
    #[cfg(test)]
    pub(crate) fn slot_mate(&self, key: Key) -> Key {
        (key + 1..)
            .find(|&k| std::ptr::eq(self.slot(k), self.slot(key)))
            .expect("some key collides")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_and_retire_balance_per_slot_and_per_lane() {
        let t = InFlight::new(2);
        assert!(t.is_zero() && t.no_write_to(7) && !t.backlogged(1));
        let mate = t.slot_mate(7);
        t.admit(1, [7].into_iter());
        assert!(!t.no_write_to(7));
        assert!(!t.no_write_to(mate), "a slot mate reads as in flight too");
        t.admit(1, [mate, 9].into_iter());
        for _ in 2..BACKLOG {
            t.admit(1, std::iter::empty());
        }
        assert!(t.backlogged(1) && !t.backlogged(0));
        t.retire(1, 1, [7].into_iter());
        assert!(!t.no_write_to(7), "the mate's write still holds the slot");
        assert!(!t.backlogged(1));
        t.retire(1, BACKLOG - 1, [9, mate].into_iter());
        assert!(t.is_zero());
    }

    #[test]
    fn table_fits_a_page() {
        assert!(std::mem::size_of::<[AtomicU32; SLOTS]>() <= 4096);
        assert!(SLOTS.is_power_of_two());
    }
}

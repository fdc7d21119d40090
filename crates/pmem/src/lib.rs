//! Byte-addressable persistent-memory emulation substrate.
//!
//! This crate stands in for the hardware and the Quartz latency emulator used
//! in the FAST+FAIR paper (Hwang et al., FAST'18). It provides:
//!
//! * [`Pool`] — a single, 64-byte-aligned allocation representing a PM
//!   device. All persistent data lives at byte offsets ([`PmOffset`]) inside
//!   the pool; offset `0` is the NULL pointer. Every 8-byte slot is accessed
//!   through atomic views so stores are genuinely failure-atomic at the
//!   8-byte granularity the paper assumes.
//! * [`LatencyProfile`] — Quartz-style latency injection. Each `clflush`
//!   costs the configured write latency; each *serial* (dependent) cache miss
//!   costs the read latency; adjacent-line scans are charged as *parallel*
//!   misses divided by a memory-level-parallelism factor, mirroring how the
//!   paper explains why linear search beats binary search (§5.2) and why
//!   B+-trees degrade more slowly than radix trees with rising read latency
//!   (§5.4).
//! * [`FenceMode`] — TSO vs. non-TSO store ordering. On TSO (x86) the
//!   store-store fences FAST relies on are free; in [`FenceMode::NonTso`]
//!   each `fence_if_not_tso` costs a configurable `dmb` delay, which is what
//!   Fig. 5(d) measures.
//! * [`stats`] — one thread-local counter record ([`stats::Snapshot`]) of
//!   flushes, fences, serial misses, the model's charged time and
//!   per-phase timings, updated through [`stats::count`]; used to
//!   regenerate the Fig. 5(a) breakdown and the flush-count claims in the
//!   text (e.g. wB+-tree calls 1.7× the flushes of FAST+FAIR).
//! * [`CommitCell`] — the one commit primitive: a persisted 8-byte word
//!   published by one store, flush and fence, read back through a
//!   bounds-checked [`CommitCell::target`].
//! * [`crash`] — a store/flush event log plus replay machinery that can
//!   materialize *every* reachable post-crash PM image: flushed lines are
//!   durable, and each still-dirty line retains an arbitrary prefix of its
//!   unflushed 8-byte stores (exactly the states reachable under TSO with
//!   independent cache-line eviction). This substitutes for the paper's
//!   physical power-off test and is strictly more adversarial.
//!
//! # Example
//!
//! ```
//! use pmem::{Pool, PoolConfig};
//!
//! let pool = Pool::new(PoolConfig::default().size(1 << 20))?;
//! let off = pool.alloc(64, 64)?;
//! pool.store_u64(off, 42);
//! pool.persist(off, 8); // clflush + fence
//! assert_eq!(pool.load_u64(off), 42);
//! # Ok::<(), pmem::PmError>(())
//! ```

#![warn(missing_docs)]

mod commit;
pub mod crash;
mod latency;
mod pool;
pub mod stats;

pub use commit::{fnv1a, CommitCell};
pub use latency::{spin_ns, FenceMode, LatencyProfile};
pub use pool::{PmError, PmOffset, Pool, PoolConfig, CACHE_LINE, NULL_OFFSET, POOL_HEADER_SIZE};

//! # Primary→replica log shipping
//!
//! The transaction journal (`crates/txn`) already reduces every write to
//! a sequenced, idempotently-replayable group of `(table, op)` pairs —
//! exactly the portable unit of durability a replication stream needs.
//! This crate ships that stream:
//!
//! 1. **Capture** — a [`LogShipper`] registers as a
//!    [`txn::CommitTap`] on the primary's engine and hears every
//!    committed group (sequence number + flattened ops), in order,
//!    immediately after the group's failure-atomic commit store.
//! 2. **Transport** — subscribers receive [`LogRecord`]s through the
//!    pluggable [`Transport`] trait. [`ChannelTransport`] is the
//!    in-process implementation; [`FaultTransport`] wraps any transport
//!    and injects seeded drops, duplicates, reordering and delays, so
//!    every test and bench runs against a hostile network without any
//!    network dependency.
//! 3. **Apply** — a [`Replica`] owns its *own* pool fleet and
//!    [`catalog::Catalog`] and applies records strictly in sequence
//!    order through the same idempotent redo path the primary uses
//!    ([`txn::apply_grouped`]). Duplicates are no-ops by sequence
//!    check; gaps park out-of-order records and trigger a retransmit
//!    from the shipper's retained ring.
//! 4. **Watermark** — the replica publishes its applied sequence
//!    through a [`pmem::CommitCell`] after each group, so a crashed
//!    replica reopens and resumes exactly where it left off: a crash
//!    between a group's apply and its watermark store merely re-applies
//!    that group (idempotent redo absorbs it).
//! 5. **Bootstrap / promote** — [`Replica::bootstrap`] streams a cursor
//!    snapshot from the primary at a pinned sequence before switching
//!    to live tail; [`Replica::promote`] turns the replica into a
//!    standalone primary (fresh or replayed journal, catalog intact).
//!
//! ```
//! use std::sync::Arc;
//! use pmindex::PersistentIndex;
//! use repl::{ChannelTransport, LogShipper, Replica};
//! use txn::{TxnEngine, WriteBatch};
//!
//! // Primary: one pool, one table, one engine, one shipper.
//! let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?);
//! let tree = fastfair::FastFairTree::create_in(Arc::clone(&pool))?;
//! let engine = TxnEngine::create(Arc::clone(&pool))?;
//! let shipper = LogShipper::new(1024);
//! engine.add_tap(Arc::clone(&shipper) as _);
//!
//! // Replica: its own fleet + catalog, subscribed over a channel.
//! let transport = ChannelTransport::new();
//! let sub = shipper.subscribe(Arc::clone(&transport) as _);
//! let replica: Replica<fastfair::FastFairTree> = Replica::create(
//!     &mut |_slot: usize| {
//!         Ok(Arc::new(pmem::Pool::new(pmem::PoolConfig::default().size(1 << 20))?))
//!     },
//!     1,
//!     &["kv"],
//! )?;
//!
//! let mut batch = WriteBatch::new();
//! batch.put(0, 7, 70);
//! engine.commit(batch, &[&tree])?;
//! replica.catch_up(transport.as_ref(), &shipper, sub)?;
//! assert_eq!(replica.read_stale(0, 7), Some(70));
//! assert_eq!(replica.watermark(), engine.last_committed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Consistency model
//!
//! Replication is **asynchronous**: the primary never waits for a
//! replica, so a replica's contents equal the primary's contents *as of
//! the replica's watermark* — a prefix of the committed history, never
//! a torn group. Reads served from a replica are therefore stale-read
//! consistent (see `service::ClientHandle::get_stale`). Because the tap
//! fires after the commit store but before the primary's own apply, a
//! replica can briefly apply a group the primary has not finished
//! applying; both sides converge because apply is idempotent redo.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod replica;
mod shipper;
mod transport;

pub use replica::{Applied, Promoted, ReadReplica, Replica, PROMOTED_ENGINE_NAME, WATERMARK_NAME};
pub use shipper::LogShipper;
pub use transport::{ChannelTransport, FaultConfig, FaultStats, FaultTransport, Transport};

use pmindex::BatchOp;

/// One shipped unit of replication: a committed group's sequence number
/// plus its flattened `(table id, op)` list, exactly as the primary's
/// [`txn::CommitTap`] observed it.
///
/// Records are self-describing and idempotent to apply, so a transport
/// is free to drop, duplicate, reorder or delay them — the replica's
/// sequence check sorts it out.
///
/// ```
/// use pmindex::BatchOp;
/// use repl::LogRecord;
///
/// let rec = LogRecord { seq: 3, ops: vec![(0, BatchOp::Put(1, 10))] };
/// assert_eq!(rec.clone(), rec);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The group's journal sequence number (strictly increasing, one
    /// per commit group; see [`txn::TxnEngine::commit_grouped`]).
    pub seq: u64,
    /// The group's ops in staging order: `(table id, op)` where the
    /// table id indexes the table slice both sides agreed on.
    pub ops: Vec<(u64, BatchOp)>,
}

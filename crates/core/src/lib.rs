//! # FAST+FAIR: a failure-atomic persistent B+-tree
//!
//! Reproduction of *"Endurable Transient Inconsistency in Byte-Addressable
//! Persistent B+-Trees"* (Hwang, Kim, Won, Nam — FAST'18; thesis version
//! Hwang 2019).
//!
//! The tree keeps its classic B+-tree layout — sorted records, high
//! fan-out, sibling-linked leaves — on byte-addressable persistent memory
//! without logging, copy-on-write or read latches:
//!
//! * **FAST** (Failure-Atomic ShifT) performs in-node insertion and
//!   deletion as a sequence of dependent 8-byte stores ordered by TSO (or
//!   explicit barriers), flushing cache lines in shift order. Every store
//!   leaves the node either consistent or *transiently inconsistent* in a
//!   way readers detect (duplicate adjacent pointers) and skip.
//! * **FAIR** (Failure-Atomic In-place Rebalance) splits nodes B-link
//!   style: build sibling → link sibling → truncate — each commit point a
//!   single persisted 8-byte store, with the parent updated afterwards and
//!   repaired lazily if a crash intervenes.
//! * **Lock-free search**: readers scan nodes in the direction of the last
//!   writer's shift (a per-node switch counter), so they never block and
//!   never miss an entry.
//!
//! See [`FastFairTree`] for the API, [`TreeOptions`] for the variants
//! benchmarked in the paper (`FAST+Logging`, `FAST+FAIR+LeafLock`, binary
//! in-node search), and the `pmem` crate for the persistence, latency and
//! crash-simulation substrate.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use pmem::{Pool, PoolConfig};
//! use fastfair::{FastFairTree, TreeOptions};
//! use pmindex::{Cursor, PmIndex};
//!
//! let pool = Arc::new(Pool::new(PoolConfig::default().size(8 << 20))?);
//! let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new())?;
//! // Bottom-up bulk load from a sorted stream: one flush per cache line.
//! let fresh = tree.bulk_load(&mut (1..=1000u64).map(|k| (k, k + 1_000_000)))?;
//! assert_eq!(fresh, 1000);
//! assert_eq!(tree.get(500), Some(1_000_500));
//! // Upserts report the value they replaced.
//! assert_eq!(tree.insert(500, 77)?, Some(1_000_500));
//! assert_eq!(tree.update(500, 78)?, Some(77));
//! // Streaming lock-free scan over the sibling-linked leaves.
//! let mut cur = tree.cursor();
//! cur.seek(100);
//! assert_eq!(cur.next(), Some((100, 1_000_100)));
//! assert!(tree.remove(500));
//! assert_eq!(tree.get(500), None);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod bulk;
mod delete;
mod hint;
mod insert;
pub mod layout;
mod lock;
mod merge;
mod recovery;
mod scan;
mod search;
mod split;
mod tree;

pub use layout::{capacity, NodeRef, INVALID_PTR, LEAF_ANCHOR};
pub use recovery::{ConsistencyError, ConsistencyReport, RecoveryReport};
pub use scan::TreeCursor;
pub use tree::{FastFairTree, InNodeSearch, SplitStrategy, TreeOptions};

#[cfg(test)]
mod tests;

//! Workspace-level umbrella crate for the FAST+FAIR reproduction.
//!
//! Re-exports the member crates so the examples and integration tests in
//! this repository can use a single dependency root. Library users should
//! depend on the individual crates ([`fastfair`], [`pmem`], ...) directly.

pub use catalog;
pub use epoch;
pub use fastfair;
pub use fptree;
pub use pmem;
pub use pmindex;
pub use pskiplist;
pub use service;
pub use shard;
pub use tpcc;
pub use txn;
pub use varkey;
pub use wbtree;
pub use wort;

//! Empty on purpose. This crate held variable-length byte keys over any
//! `u64`-keyed index (an order-preserving chunk codec, overflow-record
//! chains and a byte cursor); no product or benchmark path built it, and
//! the paper indexes 8-byte keys only, so it was deleted (ROADMAP item
//! 15). The package stays, with its dependencies unchanged, only because
//! the benchmark's frozen `perf/Cargo.lock` records `catalog`'s dependency
//! on it; the next change that may edit that lock file removes the crate
//! and the edge.

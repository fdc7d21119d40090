//! Empty on purpose. This package was an offline stand-in for
//! `crossbeam-channel`, the service's lane queue; that queue is now
//! `pmem::handoff::queue`, beside the reply slot and the shard helper's
//! wait, which share its spin-then-park rule. The package stays, with its
//! manifest unchanged, only because the benchmark's frozen
//! `perf/Cargo.lock` records it and the `service` and `repl` dependencies
//! on it; the next change that may edit that lock file removes the package
//! and the edges.

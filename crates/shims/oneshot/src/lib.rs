//! Empty on purpose. This package was an offline stand-in for `oneshot`,
//! the service's reply slot; that slot is now `pmem::handoff::slot`,
//! beside the lane queue and the shard helper's wait, which share its
//! spin-then-park rule. The package stays, with its manifest unchanged,
//! only because the benchmark's frozen `perf/Cargo.lock` records it and
//! the `service` dependency on it; the next change that may edit that lock
//! file removes the package and the edge.

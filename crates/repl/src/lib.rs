//! Empty on purpose. This crate held primary→replica log shipping (a
//! commit tap, transports and read replicas); no product or benchmark
//! path built it, so it was deleted (ROADMAP item 14). The package stays,
//! with its manifest unchanged, only because the benchmark's frozen
//! `perf/Cargo.lock` records `service`'s dependency on it; the next change
//! that may edit that lock file removes the crate and the edge.

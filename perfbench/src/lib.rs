//! The benchmark of the Linebacker reproduction.
//!
//! Four workloads drive the simulator crates through their public APIs:
//! `quick-suite`, `full-16sm`, `replay` and `event-trace` (see
//! `perfbench/README.md` for why each was chosen and what every metric
//! means). A plain run prints the end-to-end metrics; a span run times each
//! layer boundary from this crate's own code and prints per-layer metrics.
//! Every simulation's architectural digest is checked against the
//! reference recorded at the seed commit.

pub mod digest;
pub mod report;
pub mod serial;
pub mod sim;
pub mod span;
pub mod suite;
pub mod timed;
pub mod util;
pub mod workload;

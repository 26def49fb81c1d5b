//! # lb-bench — the experiment harness of the Linebacker reproduction
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | id | paper artifact |
//! |---|---|
//! | `table2` | Table 2 (suite + cache-sensitivity classification) |
//! | `fig01`..`fig05` | the motivational studies (§2) |
//! | `overhead` | §4.2 storage overhead |
//! | `fig09`..`fig18` | the evaluation (§5) |
//!
//! Use the `lb-experiments` binary:
//!
//! ```text
//! lb-experiments --scale default all
//! lb-experiments --jobs 8 fig12 fig13
//! ```
//!
//! The harness is layered: experiments *plan* their simulations as typed
//! [`RunKey`]s ([`experiments::plan`]), the [`engine`] executes the
//! deduplicated union across a worker pool with single-flight semantics,
//! and rendering reads from the warm memo. Figures that share run sets
//! (12/13/16/17/18) therefore cost one set of simulations, executed in
//! parallel (`--jobs`/`LB_JOBS`, default: all cores) with bit-identical
//! results at any worker count.

#![warn(missing_docs)]

pub mod arch;
pub mod cli;
pub mod engine;
pub mod experiments;
pub mod profile;
pub mod runkey;
pub mod runner;
pub mod scale;
pub mod table;

pub use arch::Arch;
pub use engine::Engine;
pub use profile::Profile;
pub use runkey::{ArchSpec, RunKey};
pub use runner::{simulate, Runner, SimRun, Workload};
pub use scale::Scale;
pub use table::Table;

/// A process-wide runner at [`Scale::Quick`], shared by the test suite so
/// memoized simulations are reused across test functions.
pub fn shared_quick_runner() -> &'static Runner {
    use std::sync::OnceLock;
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(|| Runner::new(Scale::Quick))
}

/// Test support: a private quick-scale runner whose memo holds `keys`,
/// with the results taken from [`shared_quick_runner`] (which simulates
/// any it lacks). Its [`Runner::sims_run`] counts only its own
/// simulations, so a check that rendering simulates nothing cannot be
/// disturbed by other tests simulating on the shared runner meanwhile.
#[cfg(test)]
pub(crate) fn private_quick_runner(keys: &[RunKey]) -> Runner {
    let r = Runner::new(Scale::Quick);
    r.seed_from(shared_quick_runner(), keys);
    r
}

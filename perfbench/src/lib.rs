//! End-to-end benchmark of the mapqn front doors — `PlanningSession`,
//! `PopulationSweep` and `solve()` — with a traced per-layer breakdown.
//!
//! Each workload runs a closed loop from one client thread, checks every
//! answer, and reports the metrics named in `BENCHMARK.json`. See
//! `README.md` in this directory for how to run it.

pub mod ctmc_exact;
pub mod harness;
pub mod lp_sweep;
pub mod planning_stream;
pub mod spans;

use harness::{Config, Outcome, Workload};

/// Runs one workload as configured.
///
/// # Errors
/// A set-up failure; no result exists then.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::PlanningStream => planning_stream::run(cfg),
        Workload::LpSweep => lp_sweep::run(cfg),
        Workload::CtmcExact => ctmc_exact::run(cfg),
    }
}

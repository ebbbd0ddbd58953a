//! Performance bounds for closed queueing networks.
//!
//! * [`marginal`] — the paper's contribution: upper and lower bounds on any
//!   linear performance functional obtained by optimizing over the exact
//!   *marginal cut balance* relations of the MAP network with a linear
//!   program.
//! * [`aba`] — the classical asymptotic (ABA) and balanced-job bounds, the
//!   baseline shown in Figure 4 that "cannot approximate performance well,
//!   except at very low or very high utilization".
//! * [`sweep`] — population sweeps: the same network solved across a whole
//!   range of populations, each population dual-warm-started from the
//!   previous one's per-objective optimal bases.
//! * [`ensemble`] — scenario ensembles: many independent sweeps (burstiness
//!   grids, random-model batches, capacity what-ifs) sharded across every
//!   core with deterministic, worker-count-independent results.
//! * [`ladder`] — the one degradation-ladder executor every front door
//!   walks its plan on: per-rung wall-clock slices and one attempt record.
//! * [`robust`] — the LP rungs the always-answer front doors share:
//!   budgeted solves that fall back from the certified LP through a salted
//!   re-solve and a self-seeded bootstrap to the asymptotic floor, tagging
//!   every answer with its [`robust::Quality`].

pub mod aba;
pub mod ensemble;
pub mod ladder;
pub mod marginal;
pub mod robust;
pub mod sweep;

pub use aba::{aba_bounds, balanced_job_bounds, AsymptoticBounds};
pub use ensemble::{
    EnsembleReport, EnsembleRunner, EnsembleStats, PartialEnsembleReport, Scenario,
    ScenarioFailure, ScenarioResult,
};
pub use ladder::Attempt;
pub use marginal::{BoundOptions, MarginalBoundSolver, NetworkBounds, SolverStats, SolverTimings};
pub use robust::{LadderAttempt, Quality, Rung, SolveDiagnostics};
pub use sweep::{PopulationSweep, SweepStats};

/// A two-sided bound on a scalar performance index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundInterval {
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
}

impl BoundInterval {
    /// Creates an interval, swapping the endpoints if needed so that
    /// `lower <= upper`.
    #[must_use]
    pub fn new(lower: f64, upper: f64) -> Self {
        if lower <= upper {
            Self { lower, upper }
        } else {
            Self {
                lower: upper,
                upper: lower,
            }
        }
    }

    /// Width of the interval.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Midpoint of the interval (a convenient point estimate).
    #[must_use]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Whether `value` lies inside the interval, inflated by `tol` on both
    /// sides.
    #[must_use]
    pub fn contains(&self, value: f64, tol: f64) -> bool {
        value >= self.lower - tol && value <= self.upper + tol
    }

    /// Maximal relative error of using either endpoint as an estimate of
    /// `exact` — the quantity reported in Table 1 of the paper.
    #[must_use]
    pub fn max_relative_error(&self, exact: f64) -> f64 {
        if exact == 0.0 {
            return self.width();
        }
        let lower_err = (self.lower - exact).abs() / exact.abs();
        let upper_err = (self.upper - exact).abs() / exact.abs();
        lower_err.max(upper_err)
    }
}

/// The linear performance functionals the bound solver can optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerformanceIndex {
    /// Throughput (completions per unit time) of the given station.
    Throughput(usize),
    /// Utilization (probability the server is busy) of the given station.
    Utilization(usize),
    /// Mean number of jobs at the given station.
    MeanQueueLength(usize),
    /// Throughput of the reference station 0, used with Little's law to
    /// derive system response-time bounds.
    SystemThroughput,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_accessors() {
        let i = BoundInterval::new(1.0, 3.0);
        assert_eq!(i.width(), 2.0);
        assert_eq!(i.midpoint(), 2.0);
        assert!(i.contains(2.5, 0.0));
        assert!(!i.contains(3.5, 0.1));
        assert!(i.contains(3.05, 0.1));
        // Swapped endpoints are fixed up.
        let j = BoundInterval::new(5.0, 4.0);
        assert_eq!(j.lower, 4.0);
        assert_eq!(j.upper, 5.0);
    }

    #[test]
    fn max_relative_error_matches_hand_computation() {
        let i = BoundInterval::new(0.9, 1.2);
        let err = i.max_relative_error(1.0);
        assert!((err - 0.2).abs() < 1e-12);
        // Zero exact value falls back to the width.
        assert_eq!(BoundInterval::new(0.0, 0.3).max_relative_error(0.0), 0.3);
    }

    #[test]
    fn performance_index_is_copy_and_comparable() {
        let a = PerformanceIndex::Throughput(1);
        let b = a;
        assert_eq!(a, b);
        assert_ne!(a, PerformanceIndex::Utilization(1));
    }
}

//! # mapqn-core
//!
//! Closed queueing networks with MAP service and linear-programming
//! performance bounds — the primary contribution of
//! *"Versatile Models of Systems Using MAP Queueing Networks"*
//! (Casale, Mi, Smirni, 2008).
//!
//! ## What the library does
//!
//! A [`ClosedNetwork`] describes a closed, single-class queueing network:
//! a fixed population of `N` jobs circulates among `M` stations according to
//! a routing probability matrix. Each station is either
//!
//! * a **single-server FCFS queue** with exponential or MAP service
//!   ([`Service::Exponential`], [`Service::Map`]) — MAP service is the key
//!   extension: consecutive service times can be non-exponential *and*
//!   autocorrelated, which is how burstiness enters the model; or
//! * an **infinite-server (delay) station** with exponential think times
//!   ([`StationKind::Delay`]), used to model the client population of
//!   multi-tier systems such as the paper's TPC-W testbed.
//!
//! Four solution techniques are provided, behind one population-aware
//! front door ([`solve()`](solve())) that picks the cheapest engine meeting the
//! requested accuracy at the requested population and degrades — never
//! errors — when an engine fails or a [`mapqn_linalg::SolveBudget`] runs
//! out:
//!
//! 1. **Exact global balance** ([`exact::solve_exact`]): the underlying CTMC
//!    is enumerated in rank order (its transposed generator assembled
//!    directly into sparse CSR) and
//!    solved — by dense GTH elimination for small chains, by the sparse
//!    parallel preconditioned engine of `mapqn-markov` up to the
//!    `10^6`–`10^7`-state regime. Still exponential in the model size, but
//!    the reference ("Exact") curves now extend to the populations the
//!    bounds are actually used at.
//! 2. **LP bounds from marginal cut balances**
//!    ([`bounds::MarginalBoundSolver`]): the paper's contribution. The global
//!    balance equations are aggregated into exact linear relations over
//!    *marginal* probabilities (queue-length level crossing flows, phase
//!    balances, population constraints). Minimizing / maximizing a linear
//!    performance functional subject to these relations yields provable
//!    lower / upper bounds at polynomial cost.
//! 3. **Classical baselines**: exact and approximate MVA for the
//!    exponential (product-form) case ([`mva`]), asymptotic and balanced
//!    job bounds ([`bounds::aba`]), and a Courtois-style
//!    decomposition–aggregation approximation ([`decomposition`]) — the
//!    techniques whose failure on autocorrelated workloads motivates the
//!    paper (Figure 4).
//! 4. **Mean-field (fluid) limit** ([`fluid::solve_fluid`]): each station
//!    collapsed to its drift equation (MAP service enters through the
//!    stationary phase-mix rate), whose fixed point is closed form and
//!    costs microseconds *independent of the population* — the
//!    millions-of-users tier, with its approximation error measured
//!    against the exact engine at feasible populations, never assumed.
//!
//! The [`templates`] module builds the concrete networks used in the paper's
//! figures (the three-queue example of Figure 5, the tandem of Figure 4 and
//! the TPC-W model of Figure 2), and [`random_models`] generates the random
//! three-queue models of Table 1.


pub mod bounds;
pub mod decomposition;
pub mod exact;
pub mod factored;
pub mod fluid;
pub mod metrics;
pub mod mva;
pub mod network;
pub mod planning;
pub mod random_models;
pub mod service;
pub mod solve;
pub mod statespace;
pub mod templates;

pub use bounds::{
    BoundInterval, EnsembleRunner, MarginalBoundSolver, NetworkBounds, PerformanceIndex,
    PopulationSweep, Quality, Scenario, SolveDiagnostics,
};
pub use exact::{solve_exact, ExactOptions, GeneratorRepresentation};
pub use factored::FactoredGenerator;
pub use fluid::{solve_fluid, solve_fluid_with, FluidOptions, FluidSolution};
pub use metrics::NetworkMetrics;
pub use network::{ClosedNetwork, Station, StationKind};
pub use planning::{
    AnswerSource, PlanningAnswer, PlanningRequest, PlanningSession, SessionOptions, SessionStats,
    WhatIf,
};
pub use service::Service;
pub use solve::{
    fluid_error_estimate, solve, solve_with, Accuracy, Engine, EngineAttempt, Solution,
    SolveOptions, FLUID_BAND_FLOOR, FLUID_BAND_REFERENCE_POPULATION, FLUID_MQL_BAND,
};

/// Error type for network construction and solution.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The network description is invalid (routing not stochastic, no
    /// stations, zero population where one is required, …).
    InvalidNetwork(String),
    /// The requested solver does not support this network (e.g. LP bounds on
    /// a network with delay stations, MVA on a network with MAP service).
    Unsupported(String),
    /// An underlying stochastic-process operation failed.
    Stochastic(mapqn_stochastic::StochasticError),
    /// An underlying Markov-chain operation failed.
    Markov(mapqn_markov::MarkovError),
    /// An underlying linear-program solve failed.
    Lp(mapqn_lp::LpError),
    /// The LP reported an unexpected status (infeasible / unbounded), which
    /// indicates an internal error in the constraint generation.
    BoundLpFailed(String),
    /// One objective of a `bound_all` failed, with the population and
    /// objective it failed at. This is the structured context the
    /// degradation ladder and its diagnostics work from.
    ObjectiveSolve {
        /// Population of the solve that failed.
        population: usize,
        /// The performance index whose LP failed.
        objective: bounds::PerformanceIndex,
        /// The underlying failure.
        source: Box<CoreError>,
    },
    /// One scenario of an ensemble run failed; carries the scenario's label
    /// and job index so a batch failure is attributable without re-running.
    Scenario {
        /// Label of the failing scenario.
        label: String,
        /// Job index of the failing scenario in the submitted batch.
        job: usize,
        /// The underlying failure.
        source: Box<CoreError>,
    },
    /// A deterministic fault-injection hook fired (`mapqn-faults`; testing
    /// only — never produced in production configurations).
    Injected {
        /// Name of the fault site that fired.
        site: &'static str,
    },
    /// A solver job panicked and was contained by the per-request isolation
    /// boundary of the planning session (the panic message is preserved;
    /// the request was answered by a degraded rung instead of aborting the
    /// process).
    Panicked(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidNetwork(msg) => write!(f, "invalid network: {msg}"),
            CoreError::Unsupported(msg) => write!(f, "unsupported model for this solver: {msg}"),
            CoreError::Stochastic(e) => write!(f, "stochastic process error: {e}"),
            CoreError::Markov(e) => write!(f, "Markov chain error: {e}"),
            CoreError::Lp(e) => write!(f, "linear programming error: {e}"),
            CoreError::BoundLpFailed(msg) => write!(f, "bound LP failed: {msg}"),
            CoreError::ObjectiveSolve {
                population,
                objective,
                source,
            } => write!(
                f,
                "solving {objective:?} at population {population} failed: {source}"
            ),
            CoreError::Scenario { label, job, source } => {
                write!(f, "scenario '{label}' (job {job}) failed: {source}")
            }
            CoreError::Injected { site } => {
                write!(f, "injected fault at site '{site}'")
            }
            CoreError::Panicked(msg) => {
                write!(f, "contained solver panic: {msg}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Stochastic(e) => Some(e),
            CoreError::Markov(e) => Some(e),
            CoreError::Lp(e) => Some(e),
            CoreError::ObjectiveSolve { source, .. } | CoreError::Scenario { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

impl From<mapqn_stochastic::StochasticError> for CoreError {
    fn from(e: mapqn_stochastic::StochasticError) -> Self {
        CoreError::Stochastic(e)
    }
}

impl From<mapqn_markov::MarkovError> for CoreError {
    fn from(e: mapqn_markov::MarkovError) -> Self {
        CoreError::Markov(e)
    }
}

impl From<mapqn_lp::LpError> for CoreError {
    fn from(e: mapqn_lp::LpError) -> Self {
        CoreError::Lp(e)
    }
}

impl From<mapqn_linalg::LinalgError> for CoreError {
    fn from(e: mapqn_linalg::LinalgError) -> Self {
        CoreError::Markov(mapqn_markov::MarkovError::Linalg(e))
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_covers_all_variants() {
        assert!(CoreError::InvalidNetwork("x".into()).to_string().contains('x'));
        assert!(CoreError::Unsupported("y".into()).to_string().contains('y'));
        assert!(CoreError::BoundLpFailed("z".into()).to_string().contains('z'));
        let e: CoreError =
            mapqn_stochastic::StochasticError::InvalidMap("m".into()).into();
        assert!(e.to_string().contains("stochastic"));
        let e: CoreError = mapqn_markov::MarkovError::InvalidChain("c".into()).into();
        assert!(e.to_string().contains("Markov"));
        let e: CoreError = mapqn_lp::LpError::NonFiniteCoefficient.into();
        assert!(e.to_string().contains("linear programming"));
        let e: CoreError = mapqn_linalg::LinalgError::InvalidArgument("a").into();
        assert!(e.to_string().contains("Markov"));
    }
}

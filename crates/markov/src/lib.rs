//! # mapqn-markov
//!
//! Continuous- and discrete-time Markov chain machinery for the `mapqn`
//! workspace.
//!
//! The paper's reference ("exact") solution of a MAP queueing network is the
//! stationary distribution of the *global balance* equations of the
//! underlying continuous-time Markov chain (CTMC). That chain is assembled
//! by `mapqn-core` from the network description; this crate provides the
//! generic pieces:
//!
//! * [`statespace::StateSpace`] — an enumerated state space (sorted states
//!   plus the CTMC on them) with a state index;
//! * [`ctmc::Ctmc`] — a validated CTMC with its generator in CSR form;
//! * [`steady`] — stationary distribution solvers: dense GTH elimination
//!   (numerically robust, `O(n^3)`, used up to a few thousand states) plus
//!   the automatic dense/sparse selection of [`steady::stationary_auto`];
//! * [`sparse_steady`] — the large-chain engine: Gauss–Seidel /
//!   Jacobi-preconditioned iterations with adaptive uniformization on the
//!   CSR generator or any other [`mapqn_linalg::GeneratorOp`], parallel over
//!   row blocks via `mapqn-par`, with a residual-based (`‖πQ‖_∞`) stopping
//!   criterion — this is what carries exact validation references into the
//!   `10^5`–`10^7`-state regime;
//! * [`dtmc::Dtmc`] — small discrete-time chains (the routing chain whose
//!   stationary vector gives a network's visit ratios).


pub mod ctmc;
pub mod dtmc;
pub mod sparse_steady;
pub mod statespace;
pub mod steady;

pub use ctmc::Ctmc;
pub use dtmc::Dtmc;
pub use sparse_steady::{
    stationary_sparse, stationary_sparse_op, SparsePreconditioner, SparseSteadyOptions,
    SparseSteadyReport,
};
pub use statespace::StateSpace;
pub use steady::{stationary_auto, stationary_dense_gth, stationary_residual, SteadyStateOptions};

/// Error type for Markov-chain construction and solution.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// The generator (or transition matrix) failed validation.
    InvalidChain(String),
    /// An iterative solver failed to converge.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual at the last iterate.
        residual: f64,
    },
    /// The state space grew beyond the configured limit.
    StateSpaceTooLarge {
        /// Limit that was exceeded.
        limit: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(mapqn_linalg::LinalgError),
    /// The cooperative solve budget (wall-clock deadline or sweep-work cap)
    /// was exhausted mid-solve; the caller decides whether to degrade or
    /// propagate.
    Budget(mapqn_linalg::BudgetExhausted),
}

impl std::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkovError::InvalidChain(msg) => write!(f, "invalid Markov chain: {msg}"),
            MarkovError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "steady-state solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            MarkovError::StateSpaceTooLarge { limit } => {
                write!(f, "state space exceeds the configured limit of {limit} states")
            }
            MarkovError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            MarkovError::Budget(e) => write!(f, "solve budget exhausted: {e}"),
        }
    }
}

impl std::error::Error for MarkovError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MarkovError::Linalg(e) => Some(e),
            MarkovError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mapqn_linalg::LinalgError> for MarkovError {
    fn from(e: mapqn_linalg::LinalgError) -> Self {
        MarkovError::Linalg(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MarkovError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(MarkovError::InvalidChain("x".into()).to_string().contains('x'));
        assert!(MarkovError::NoConvergence {
            iterations: 5,
            residual: 0.1
        }
        .to_string()
        .contains('5'));
        assert!(MarkovError::StateSpaceTooLarge { limit: 10 }
            .to_string()
            .contains("10"));
        let e: MarkovError = mapqn_linalg::LinalgError::InvalidArgument("y").into();
        assert!(e.to_string().contains("linear algebra"));
    }
}

//! # mapqn-lp
//!
//! A self-contained linear-programming solver.
//!
//! The bound methodology of the paper computes upper and lower bounds on a
//! performance index by solving
//!
//! ```text
//! min / max   f(pi)        subject to   A pi = b,   pi >= 0,
//! ```
//!
//! where the constraints are the *marginal cut balance equations* of the MAP
//! queueing network and `f` is a linear functional (throughput, utilization,
//! queue-length moments). The allowed offline crate set contains no LP
//! solver, so this crate implements the simplex method from scratch. Two
//! engines share the same problem description ([`LpProblem`]) and solution
//! type ([`LpSolution`]):
//!
//! * **Revised simplex** ([`revised::RevisedSimplex`], the default): the
//!   constraint matrix is stored column-wise in CSC form, the basis is kept
//!   as a sparse LU factorization plus a product-form eta file (refactorized
//!   periodically for stability), and pricing works on sparse columns. A
//!   refactorization eliminates the basis column by column over non-zeros
//!   only (left-looking, Gilbert–Peierls) and never builds the `m × m`
//!   matrix; the LU factors keep only their non-zeros, so refactorization,
//!   FTRAN and BTRAN cost time in proportion to the flops and the fill
//!   rather than `m²` or `m³`. Factors and solves are bitwise equal to the
//!   dense partial-pivoting LU and its triangular solves (see [`basis`]).
//!   Crucially it supports **warm starts**: a feasible region is phase-1'd
//!   once ([`revised::RevisedSimplex::find_feasible_basis`]) and every
//!   subsequent objective — both senses of every performance index of a
//!   `bound_all()` sweep — re-prices from the previously optimal basis via
//!   [`revised::RevisedSimplex::solve_from_basis`], typically finishing in a
//!   handful of pivots.
//! * **Dense tableau** ([`simplex`]): the original two-phase dense
//!   implementation, retained as a correctness oracle. Select it with
//!   [`SimplexOptions { engine: SimplexEngine::DenseTableau, .. }`](SimplexEngine);
//!   every solve is cold (phase 1 runs from scratch).
//!
//! Both engines accept non-negative structural variables and `<=` / `>=` /
//! `=` rows with arbitrary right-hand sides, use Dantzig pricing with an
//! automatic switch to Bland's rule when progress stalls, and report
//! infeasibility / unboundedness through [`LpStatus`]. Their agreement on
//! the paper's bound LPs is asserted by `tests/lp_engine_equivalence.rs` at
//! the workspace level.
//!
//! ```
//! use mapqn_lp::{LpProblem, Sense};
//!
//! // maximize 3x + 2y subject to x + y <= 4, x <= 2, x,y >= 0.
//! let mut lp = LpProblem::new(2, Sense::Maximize);
//! lp.set_objective(&[(0, 3.0), (1, 2.0)]);
//! lp.add_le(&[(0, 1.0), (1, 1.0)], 4.0);
//! lp.add_le(&[(0, 1.0)], 2.0);
//! let solution = lp.solve().unwrap();
//! assert!((solution.objective - 10.0).abs() < 1e-9);
//! ```
//!
//! Warm-start semantics in brief: a [`revised::Basis`] returned by the
//! engine is a token for "the optimal basis of the last objective". Feeding
//! it back into `solve_from_basis` over the *same* constraint set skips
//! phase 1 entirely. Feeding a stale or foreign basis (for instance one
//! mapped from a related problem, as the population sweeps in `mapqn-bench`
//! do) is safe: the engine repairs it into a nonsingular basis, checks
//! primal feasibility at the true right-hand side, and silently falls back
//! to a cold phase 1 when the check fails.
//!
//! When the basis comes from a *related* problem whose right-hand side (not
//! objective) differs — the same network at a neighbouring population — use
//! [`revised::RevisedSimplex::solve_dual_from_basis`] instead: the carried
//! basis is usually still **dual** feasible even though it is rarely primal
//! feasible, and the [`dual`] engine repairs primal feasibility in a few
//! dual pivots instead of re-running phase 1. It returns `Ok(None)` for
//! unusable seeds, so callers chain it with the primal path as a pure fast
//! path.


pub mod basis;
pub mod dual;
pub mod problem;
pub mod revised;
pub mod simplex;

pub use dual::{DualOutcome, SeedFactor};
pub use problem::{Constraint, ConstraintOp, LpProblem, Sense};
pub use revised::{Basis, BasisVerification, RevisedSimplex};
pub use simplex::{LpSolution, LpStatus, SimplexEngine, SimplexOptions};

/// Error type for LP construction and solution.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A constraint or objective referenced a variable index that does not
    /// exist in the problem.
    VariableOutOfRange {
        /// Offending variable index.
        index: usize,
        /// Number of variables in the problem.
        num_vars: usize,
    },
    /// A coefficient or right-hand side is NaN or infinite.
    NonFiniteCoefficient,
    /// The simplex iteration limit was exceeded.
    IterationLimit {
        /// Limit that was hit.
        limit: usize,
    },
    /// The revised engine hit an unrecoverable numerical problem (for
    /// example a basis that stays singular after refactorization).
    Numerical(String),
    /// The cooperative solve budget (wall-clock deadline or pivot cap) was
    /// exhausted mid-solve. Unlike [`LpError::IterationLimit`] this is not a
    /// property of the problem but of the caller's patience; the degradation
    /// ladder in `mapqn-core` catches it and falls back instead of failing.
    BudgetExhausted(mapqn_linalg::BudgetExhausted),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::VariableOutOfRange { index, num_vars } => write!(
                f,
                "variable index {index} out of range (problem has {num_vars} variables)"
            ),
            LpError::NonFiniteCoefficient => {
                write!(f, "constraint or objective contains a NaN or infinite coefficient")
            }
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} exceeded")
            }
            LpError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            LpError::BudgetExhausted(e) => write!(f, "solve budget exhausted: {e}"),
        }
    }
}

impl std::error::Error for LpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LpError::BudgetExhausted(e) => Some(e),
            _ => None,
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, LpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = LpError::VariableOutOfRange {
            index: 7,
            num_vars: 3,
        };
        assert!(e.to_string().contains('7'));
        assert!(LpError::NonFiniteCoefficient.to_string().contains("NaN"));
        assert!(LpError::IterationLimit { limit: 10 }.to_string().contains("10"));
    }
}

//! # mapqn-linalg
//!
//! Self-contained dense and sparse linear algebra substrate for the `mapqn`
//! workspace.
//!
//! The MAP queueing-network analysis in `mapqn-core` needs a small but
//! reliable set of numerical kernels:
//!
//! * dense matrices and vectors with the usual arithmetic ([`DMatrix`],
//!   [`DVector`]),
//! * LU factorization with partial pivoting for linear solves, inverses and
//!   determinants ([`lu::Lu`]),
//! * sparse CSR matrices with matrix-vector products for large
//!   continuous-time Markov chain generators ([`sparse::CsrMatrix`]),
//!   built from triplets or from arrays a producer filled in place
//!   ([`sparse::CsrMatrix::from_parts`]), row-block kernels for
//!   parallel drivers ([`sparse::CsrMatrix::matvec_rows_into`]), and the
//!   column-oriented CSC dual used by the revised simplex engine in
//!   `mapqn-lp` ([`csc::CscMatrix`]),
//! * the operator trait through which the sparse stationary engine of
//!   `mapqn-markov` sees a CTMC generator ([`op::GeneratorOp`]), with its
//!   materialized implementation ([`op::CsrGenerator`]) and the generator
//!   residual ([`norms::left_residual_sparse`]),
//! * cooperative solve budgets shared by the LP and CTMC engines
//!   ([`budget::SolveBudget`]).
//!
//! The crate deliberately avoids external dependencies: the allowed offline
//! crate set for this reproduction does not include `nalgebra`/`ndarray`, so
//! the kernels are implemented from scratch and tested heavily (unit tests in
//! every module plus property tests at the workspace level).
//!
//! All numeric code is `f64`; the problems solved by the workspace (CTMCs
//! up to the `10^6`–`10^7`-state regime of the sparse exact engine, LPs with
//! a few thousand variables) are comfortably within double precision.


pub mod budget;
pub mod csc;
pub mod dense;
pub mod lu;
pub mod norms;
pub mod op;
pub mod sparse;
pub mod vector;

pub use budget::{BudgetExhausted, EngineBudget, SolveBudget};
pub use csc::CscMatrix;
pub use dense::DMatrix;
pub use lu::Lu;
pub use op::{CsrGenerator, GeneratorOp, LevelFlows};
pub use sparse::CsrMatrix;
pub use vector::DVector;

/// Numerical tolerance used throughout the workspace when comparing floating
/// point quantities that should be equal up to round-off (e.g. row sums of a
/// stochastic matrix, probabilities that must be non-negative).
pub const EPS: f64 = 1e-10;

/// Looser tolerance used when comparing quantities that accumulate error over
/// long iterative computations (stationary distributions, LP optima).
pub const SOFT_EPS: f64 = 1e-7;

/// Returns `true` when `a` and `b` are equal within `tol` in the combined
/// absolute/relative sense used by the test-suites of this workspace.
///
/// For small magnitudes the comparison is absolute, for large magnitudes it is
/// relative; this is the usual "close enough for iterative numerics" check.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

/// Error type for the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human readable description of the operation that failed.
        context: &'static str,
        /// Dimensions of the left operand (rows, cols).
        left: (usize, usize),
        /// Dimensions of the right operand (rows, cols).
        right: (usize, usize),
    },
    /// The matrix is singular (or numerically singular) and cannot be
    /// factorized / inverted.
    Singular {
        /// Pivot index at which singularity was detected.
        pivot: usize,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
    /// A matrix that was required to be square is not.
    NotSquare {
        /// Actual dimensions.
        dims: (usize, usize),
    },
    /// Generic invalid-argument error with a description.
    InvalidArgument(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                context,
                left,
                right,
            } => write!(
                f,
                "dimension mismatch in {context}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at position {pivot})")
            }
            LinalgError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "iterative method did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::NotSquare { dims } => {
                write!(f, "matrix must be square, got {}x{}", dims.0, dims.1)
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_for_small_values() {
        assert!(approx_eq(1e-12, 0.0, 1e-10));
        assert!(!approx_eq(1e-8, 0.0, 1e-10));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e6, 1e6 * (1.0 + 1e-12), 1e-10));
        assert!(!approx_eq(1e6, 1e6 * 1.01, 1e-10));
    }

    #[test]
    fn error_display_is_informative() {
        let err = LinalgError::DimensionMismatch {
            context: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        let s = err.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));

        let err = LinalgError::Singular { pivot: 3 };
        assert!(err.to_string().contains('3'));

        let err = LinalgError::NoConvergence {
            iterations: 100,
            residual: 1e-3,
        };
        assert!(err.to_string().contains("100"));

        let err = LinalgError::NotSquare { dims: (2, 3) };
        assert!(err.to_string().contains("2x3"));

        let err = LinalgError::InvalidArgument("bad");
        assert!(err.to_string().contains("bad"));
    }
}

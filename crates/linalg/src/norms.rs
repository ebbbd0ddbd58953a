//! Residuals shared by the solvers.
//!
//! The steady-state solvers of `mapqn-markov` and the accuracy checks in
//! the test-suites measure a candidate stationary vector by its generator
//! residual.

use crate::sparse::CsrMatrix;
use crate::vector::DVector;
use crate::Result;

/// Residual `‖x^T A‖_inf` of a left null-vector candidate `x` for the sparse
/// matrix `A` (used to check stationary distributions of generators:
/// `π Q ≈ 0`).
///
/// # Errors
/// Propagates dimension mismatches from the underlying product.
pub fn left_residual_sparse(a: &CsrMatrix, x: &DVector) -> Result<f64> {
    Ok(a.vecmat(x)?.norm_inf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_vanishes_at_the_stationary_vector() {
        let q = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, -2.0)],
        )
        .unwrap();
        // Stationary distribution of this generator is (2/3, 1/3).
        let pi = DVector::from_vec(vec![2.0 / 3.0, 1.0 / 3.0]);
        assert!(left_residual_sparse(&q, &pi).unwrap() < 1e-12);
        let off = DVector::from_vec(vec![0.5, 0.5]);
        assert!((left_residual_sparse(&q, &off).unwrap() - 0.5).abs() < 1e-15);
    }
}

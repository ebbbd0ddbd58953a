//! LU factorization with partial pivoting.
//!
//! Used for:
//! * solving the small dense linear systems that arise in MAP moment
//!   computations (`(-D0)^{-1}`, stationary vectors of small generators),
//! * computing inverses and determinants of MAP blocks during fitting,
//! * the dense steady-state solver in `mapqn-markov` (GTH is preferred for
//!   generators, LU is the general-purpose fallback).

use crate::dense::DMatrix;
use crate::vector::DVector;
use crate::{LinalgError, Result};

/// An LU factorization `P * A = L * U` with partial (row) pivoting.
///
/// `L` is unit lower triangular, `U` upper triangular, and `P` a permutation
/// recorded as a pivot vector. The factors are stored packed in a single
/// matrix as is conventional.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors: strictly-lower part stores L (unit diagonal
    /// implicit), upper part stores U.
    lu: DMatrix,
    /// Row permutation: row `i` of the factorization corresponds to row
    /// `perm[i]` of the original matrix.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), used for determinants.
    perm_sign: f64,
}

/// Pivot threshold below which a matrix is reported as singular.
const SINGULARITY_TOL: f64 = 1e-13;

impl Lu {
    /// Factorizes the square matrix `a`.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] when `a` is not square.
    /// * [`LinalgError::Singular`] when a pivot smaller than the internal
    ///   threshold is encountered.
    pub fn new(a: &DMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.shape() });
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut pivot_cols: Vec<usize> = Vec::with_capacity(n);

        for k in 0..n {
            // Find the pivot: the largest |entry| in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < SINGULARITY_TOL {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                // Swap rows k and pivot_row in the packed storage.
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            // The rows below are updated only where the pivot row is
            // non-zero: skipping `factor * 0` leaves every entry bitwise as
            // the full-row update would (up to the sign of a zero entry when
            // the input itself holds -0.0), so sparse matrices factor in
            // time proportional to their fill rather than `n^3`.
            pivot_cols.clear();
            pivot_cols.extend(((k + 1)..n).filter(|&j| lu[(k, j)] != 0.0));
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for &j in &pivot_cols {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= factor * ukj;
                    }
                }
            }
        }

        Ok(Self {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Consumes the factorization, returning the packed factors (strictly
    /// lower part `L` with implicit unit diagonal, upper part `U`) and the
    /// row permutation (`perm[i]` is the original row of factor row `i`).
    /// Lets callers re-store the factors in another layout.
    #[must_use]
    pub fn into_parts(self) -> (DMatrix, Vec<usize>) {
        (self.lu, self.perm)
    }

    /// Order of the factorized matrix.
    #[must_use]
    pub fn order(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &DVector) -> Result<DVector> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x: Vec<f64> = b.as_slice().to_vec();
        self.solve_in_place(&mut x);
        Ok(DVector::from_vec(x))
    }

    /// Solves `A x = b` overwriting `b` with the solution.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.order();
        assert_eq!(b.len(), n, "lu solve_in_place: wrong rhs length");
        // Apply permutation: x = P b.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit lower-triangular L (row-contiguous).
        for i in 1..n {
            let row = self.lu.row(i);
            let mut s = x[i];
            for (lij, xj) in row[..i].iter().zip(x[..i].iter()) {
                s -= lij * xj;
            }
            x[i] = s;
        }
        // Back substitution with U (row-contiguous).
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut s = x[i];
            for (uij, xj) in row[i + 1..].iter().zip(x[i + 1..].iter()) {
                s -= uij * xj;
            }
            x[i] = s / row[i];
        }
        b.copy_from_slice(&x);
    }

    /// Solves `A^T x = b` overwriting `b` with the solution: with
    /// `P A = L U`, solve `U^T z = b`, `L^T w = z`, then undo the row
    /// permutation.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve_transpose_in_place(&self, b: &mut [f64]) {
        let n = self.order();
        assert_eq!(b.len(), n, "lu solve_transpose_in_place: wrong rhs length");
        let data = self.lu.as_slice();
        // Forward substitution with U^T (lower triangular, diagonal of U).
        // Row `i` of U^T is column `i` of the packed storage (stride n).
        for i in 0..n {
            let mut s = b[i];
            for (j, bj) in b[..i].iter().enumerate() {
                s -= data[j * n + i] * bj;
            }
            b[i] = s / data[i * n + i];
        }
        // Back substitution with L^T (unit upper triangular).
        for i in (0..n).rev() {
            let mut s = b[i];
            for (off, bj) in b[i + 1..].iter().enumerate() {
                let j = i + 1 + off;
                s -= data[j * n + i] * bj;
            }
            b[i] = s;
        }
        // x = P^T w, i.e. x[perm[i]] = w[i].
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = b[i];
        }
        b.copy_from_slice(&x);
    }

    /// Solves `A^T x = b` for a single right-hand side.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve_transpose(&self, b: &DVector) -> Result<DVector> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "lu solve_transpose",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x: Vec<f64> = b.as_slice().to_vec();
        self.solve_transpose_in_place(&mut x);
        Ok(DVector::from_vec(x))
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `B` has the wrong number
    /// of rows.
    pub fn solve_matrix(&self, b: &DMatrix) -> Result<DMatrix> {
        let n = self.order();
        if b.nrows() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "lu solve_matrix",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut out = DMatrix::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Computes the inverse of the factorized matrix.
    ///
    /// # Errors
    /// Propagates errors from the underlying solves (should not occur once
    /// the factorization has succeeded).
    pub fn inverse(&self) -> Result<DMatrix> {
        self.solve_matrix(&DMatrix::identity(self.order()))
    }

    /// Determinant of the factorized matrix.
    #[must_use]
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.order() {
            det *= self.lu[(i, i)];
        }
        det
    }
}

/// Convenience function: solve `A x = b` with a fresh LU factorization.
///
/// # Errors
/// Propagates factorization and dimension errors.
pub fn solve(a: &DMatrix, b: &DVector) -> Result<DVector> {
    Lu::new(a)?.solve(b)
}

/// Convenience function: invert `A` with a fresh LU factorization.
///
/// # Errors
/// Propagates factorization errors.
pub fn invert(a: &DMatrix) -> Result<DMatrix> {
    Lu::new(a)?.inverse()
}

/// Convenience function: determinant of `A`.
///
/// Returns zero when the factorization reports (numerical) singularity, which
/// is the natural value for the use-sites in this workspace.
#[must_use]
pub fn determinant(a: &DMatrix) -> f64 {
    match Lu::new(a) {
        Ok(lu) => lu.determinant(),
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn solve_2x2_system() {
        // 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
        let a = DMatrix::from_row_slice(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let b = DVector::from_vec(vec![5.0, 10.0]);
        let x = solve(&a, &b).unwrap();
        assert!(approx_eq(x[0], 1.0, 1e-12));
        assert!(approx_eq(x[1], 3.0, 1e-12));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let b = DVector::from_vec(vec![2.0, 3.0]);
        let x = solve(&a, &b).unwrap();
        assert!(approx_eq(x[0], 3.0, 1e-12));
        assert!(approx_eq(x[1], 2.0, 1e-12));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DMatrix::from_row_slice(3, 3, &[4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0]);
        let inv = invert(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&DMatrix::identity(3)).unwrap() < 1e-12);
    }

    #[test]
    fn determinant_of_known_matrix() {
        let a = DMatrix::from_row_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert!(approx_eq(determinant(&a), -2.0, 1e-12));
        // Permutation matrix has determinant -1 after one swap.
        let p = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert!(approx_eq(determinant(&p), -1.0, 1e-12));
        // Identity determinant is 1.
        assert!(approx_eq(determinant(&DMatrix::identity(4)), 1.0, 1e-12));
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DMatrix::from_row_slice(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
        assert_eq!(determinant(&a), 0.0);
    }

    #[test]
    fn non_square_is_rejected() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(Lu::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn dimension_mismatch_on_solve() {
        let a = DMatrix::identity(2);
        let lu = Lu::new(&a).unwrap();
        assert!(lu.solve(&DVector::zeros(3)).is_err());
        assert!(lu.solve_matrix(&DMatrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn solve_matrix_matches_columnwise_solves() {
        let a = DMatrix::from_row_slice(2, 2, &[3.0, 1.0, 1.0, 2.0]);
        let b = DMatrix::from_row_slice(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve_matrix(&b).unwrap();
        // x should be the inverse of a.
        let prod = a.matmul(&x).unwrap();
        assert!(prod.max_abs_diff(&DMatrix::identity(2)).unwrap() < 1e-12);
    }

    #[test]
    fn transpose_solve_matches_explicit_transpose() {
        let a = DMatrix::from_row_slice(3, 3, &[0.0, 2.0, 1.0, 3.0, 5.0, 2.0, 1.0, 3.0, 6.0]);
        let b = DVector::from_vec(vec![1.0, -2.0, 4.0]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve_transpose(&b).unwrap();
        // Check A^T x = b directly.
        for j in 0..3 {
            let mut s = 0.0;
            for i in 0..3 {
                s += a[(i, j)] * x[i];
            }
            assert!(approx_eq(s, b[j], 1e-12), "col {j}: {s} != {}", b[j]);
        }
        assert!(lu.solve_transpose(&DVector::zeros(2)).is_err());
    }

    #[test]
    fn in_place_solves_match_allocating_solves() {
        let a = DMatrix::from_row_slice(3, 3, &[4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0]);
        let b = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let lu = Lu::new(&a).unwrap();
        let mut x = b.as_slice().to_vec();
        lu.solve_in_place(&mut x);
        let reference = lu.solve(&b).unwrap();
        for i in 0..3 {
            assert!(approx_eq(x[i], reference[i], 1e-14));
        }
        let mut y = b.as_slice().to_vec();
        lu.solve_transpose_in_place(&mut y);
        let reference_t = lu.solve_transpose(&b).unwrap();
        for i in 0..3 {
            assert!(approx_eq(y[i], reference_t[i], 1e-14));
        }
    }

    /// Reference elimination updating every column right of the pivot,
    /// zeros included: same pivot rule, swaps and operation order as
    /// [`Lu::new`] before it learned to skip the pivot row's zeros.
    fn full_row_reference(a: &DMatrix) -> (DMatrix, Vec<usize>) {
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                if lu[(i, k)].abs() > pivot_val {
                    pivot_val = lu[(i, k)].abs();
                    pivot_row = i;
                }
            }
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            perm.swap(k, pivot_row);
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= factor * ukj;
                    }
                }
            }
        }
        (lu, perm)
    }

    fn assert_factors_bitwise_equal(a: &DMatrix) {
        let (packed, perm) = Lu::new(a).unwrap().into_parts();
        let (reference, reference_perm) = full_row_reference(a);
        assert_eq!(perm, reference_perm);
        let pairs = packed.as_slice().iter().zip(reference.as_slice());
        for (i, (got, want)) in pairs.enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "entry {i}: {got} vs {want}");
        }
    }

    #[test]
    fn skip_zero_elimination_is_bitwise_equal_to_full_row_updates() {
        // Dense: every entry non-zero and irrational-looking.
        let n = 9;
        let dense = DMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 7.0 + 0.1);
        assert_factors_bitwise_equal(&dense);

        // Sparse: a permuted diagonal plus a scattering of off-diagonal
        // entries, so the pivot rows are mostly zeros and rows swap.
        let n = 24;
        let sparse = DMatrix::from_fn(n, n, |i, j| {
            if j == (i * 5 + 3) % n {
                1.0 + i as f64 / 3.0
            } else if (i * 7 + j * 11) % 9 == 0 {
                -((i + 2 * j) as f64) / 5.0
            } else {
                0.0
            }
        });
        assert_factors_bitwise_equal(&sparse);

        // Ties in pivot magnitude: column 0 offers 2 and -2, later columns
        // offer equal-magnitude candidates after elimination too.
        let ties = DMatrix::from_row_slice(
            4,
            4,
            &[
                2.0, 1.0, 0.0, 3.0, //
                -2.0, 0.0, 1.0, 0.0, //
                1.0, 1.0, 1.0, 0.0, //
                0.0, -1.0, 0.0, 1.0,
            ],
        );
        assert_factors_bitwise_equal(&ties);
    }

    #[test]
    fn random_like_larger_system_residual_is_small() {
        // Deterministic but non-trivial 6x6 system.
        let n = 6;
        let a = DMatrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0 + i as f64
            } else {
                ((i * 7 + j * 3) % 5) as f64 / 5.0
            }
        });
        let x_true: DVector = (0..n).map(|i| (i as f64) - 2.5).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-10);
    }
}

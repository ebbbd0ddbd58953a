//! Dense row-major matrices of `f64`.
//!
//! [`DMatrix`] is the workhorse type for the small dense matrices that appear
//! everywhere in MAP analysis: MAP generator blocks `D0`/`D1` (typically
//! 2×2 – 16×16), embedded transition matrices, routing matrices, and the
//! moderately sized dense systems solved during fitting and bound
//! computation.

use crate::vector::DVector;
use crate::{LinalgError, Result};

/// Dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a matrix of zeros with the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    #[must_use]
    pub fn constant(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the identity matrix of order `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major flat slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_row_slice(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_row_slice: expected {} entries, got {}",
            rows * cols,
            data.len()
        );
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows are not allowed");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable flat row-major view of the data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of range");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j` as a vector.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn col(&self, j: usize) -> DVector {
        assert!(j < self.cols, "column index {j} out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Sum of the entries of row `i`.
    #[must_use]
    pub fn row_sum(&self, i: usize) -> f64 {
        self.row(i).iter().sum()
    }

    /// Vector of all row sums.
    #[must_use]
    pub fn row_sums(&self) -> DVector {
        (0..self.rows).map(|i| self.row_sum(i)).collect()
    }

    /// Sum of all entries.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when the inner dimensions
    /// differ.
    pub fn matmul(&self, other: &DMatrix) -> Result<DMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = DMatrix::zeros(self.rows, other.cols);
        // Standard ikj loop order: streams over `other` rows contiguously,
        // which is the cache-friendly order for row-major storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(other_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != ncols`.
    pub fn matvec(&self, x: &DVector) -> Result<DVector> {
        if self.cols != x.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "matvec",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        let xs = x.as_slice();
        Ok((0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(xs.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .collect())
    }

    /// Row-vector times matrix product `x^T * self`, returned as a vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != nrows`.
    pub fn vecmat(&self, x: &DVector) -> Result<DVector> {
        if self.rows != x.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "vecmat",
                left: (1, x.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i).iter()) {
                *o += xi * a;
            }
        }
        Ok(DVector::from_vec(out))
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when shapes differ.
    pub fn add(&self, other: &DMatrix) -> Result<DMatrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                context: "add",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(DMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when shapes differ.
    pub fn sub(&self, other: &DMatrix) -> Result<DMatrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                context: "sub",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(DMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scaled copy `alpha * self`.
    #[must_use]
    pub fn scaled(&self, alpha: f64) -> DMatrix {
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| alpha * x).collect(),
        }
    }

    /// Matrix power `self^k` by repeated squaring.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn pow(&self, mut k: u32) -> Result<DMatrix> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { dims: self.shape() });
        }
        let mut result = DMatrix::identity(self.rows);
        let mut base = self.clone();
        while k > 0 {
            if k & 1 == 1 {
                result = result.matmul(&base)?;
            }
            k >>= 1;
            if k > 0 {
                base = base.matmul(&base)?;
            }
        }
        Ok(result)
    }

    /// Largest absolute difference between corresponding entries.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &DMatrix) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                context: "max_abs_diff",
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())))
    }

    /// Checks whether every off-diagonal entry is non-negative and every row
    /// sums to `target` within `tol` — the validity check shared by
    /// stochastic matrices (`target = 1`) and CTMC generators (`target = 0`).
    #[must_use]
    pub fn rows_sum_to(&self, target: f64, tol: f64) -> bool {
        (0..self.rows).all(|i| (self.row_sum(i) - target).abs() <= tol)
    }

    /// Returns `true` if all entries are non-negative within `-tol`.
    #[must_use]
    pub fn is_nonnegative(&self, tol: f64) -> bool {
        self.data.iter().all(|&x| x >= -tol)
    }

    /// Returns `true` if the matrix is a valid stochastic matrix: square,
    /// non-negative entries and unit row sums (within `tol`).
    #[must_use]
    pub fn is_stochastic(&self, tol: f64) -> bool {
        self.is_square() && self.is_nonnegative(tol) && self.rows_sum_to(1.0, tol)
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of range");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for DMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>10.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DMatrix {
        DMatrix::from_row_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn constructors_and_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1).as_slice(), &[2.0, 5.0]);
        assert!(!m.is_square());
        assert_eq!(DMatrix::identity(2)[(0, 0)], 1.0);
        assert_eq!(DMatrix::identity(2)[(0, 1)], 0.0);
        assert_eq!(DMatrix::constant(2, 2, 7.0).sum(), 28.0);
    }

    #[test]
    fn from_rows_and_from_fn_agree() {
        let a = DMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DMatrix::from_fn(2, 2, |i, j| (2 * i + j + 1) as f64);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        let _ = DMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DMatrix::from_row_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = DMatrix::from_row_slice(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DMatrix::from_row_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = DMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = DMatrix::from_row_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let x = DVector::from_vec(vec![1.0, 1.0]);
        assert_eq!(a.matvec(&x).unwrap().as_slice(), &[3.0, 7.0]);
        assert_eq!(a.vecmat(&x).unwrap().as_slice(), &[4.0, 6.0]);
        assert!(a.matvec(&DVector::zeros(3)).is_err());
        assert!(a.vecmat(&DVector::zeros(3)).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = DMatrix::from_row_slice(1, 2, &[1.0, 2.0]);
        let b = DMatrix::from_row_slice(1, 2, &[3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0]);
        assert!(a.add(&DMatrix::zeros(2, 2)).is_err());
        assert!(a.sub(&DMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = DMatrix::from_row_slice(2, 2, &[0.5, 0.5, 0.25, 0.75]);
        let a3 = a.matmul(&a).unwrap().matmul(&a).unwrap();
        assert!(a.pow(3).unwrap().max_abs_diff(&a3).unwrap() < 1e-14);
        assert_eq!(a.pow(0).unwrap(), DMatrix::identity(2));
        assert!(DMatrix::zeros(2, 3).pow(2).is_err());
    }

    #[test]
    fn row_sums_of_a_diagonal_matrix() {
        let m = DMatrix::from_row_slice(2, 2, &[3.0, 0.0, 0.0, -4.0]);
        assert_eq!(m.row_sums().as_slice(), &[3.0, -4.0]);
    }

    #[test]
    fn stochastic_checks() {
        let p = DMatrix::from_row_slice(2, 2, &[0.3, 0.7, 0.5, 0.5]);
        assert!(p.is_stochastic(1e-12));
        let q = DMatrix::from_row_slice(2, 2, &[-1.0, 1.0, 0.5, -0.5]);
        assert!(q.rows_sum_to(0.0, 1e-12));
        assert!(!q.is_stochastic(1e-12));
        let r = DMatrix::from_row_slice(1, 2, &[0.5, 0.5]);
        assert!(!r.is_stochastic(1e-12));
    }

    #[test]
    fn display_renders_all_rows() {
        let m = DMatrix::identity(2);
        let s = format!("{m}");
        assert_eq!(s.lines().count(), 2);
    }
}

//! Sparse matrices in compressed sparse row (CSR) format.
//!
//! The underlying Markov process of a MAP queueing network has a state space
//! that grows combinatorially with the number of stations and the job
//! population, but each state has only a handful of outgoing transitions
//! (one per busy station per phase transition). The generator is therefore
//! extremely sparse and the steady-state solvers in `mapqn-markov` operate on
//! this CSR representation.

use crate::vector::DVector;
use crate::{LinalgError, Result};

/// A coordinate-format triplet `(row, col, value)` used to assemble sparse
/// matrices incrementally.
pub type Triplet = (usize, usize, f64);

/// Sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices of the stored entries, grouped by row.
    col_idx: Vec<usize>,
    /// Stored values, aligned with `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from coordinate triplets. Duplicate `(row, col)`
    /// entries are summed and explicit zeros are kept.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] when a triplet is out of
    /// bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[Triplet]) -> Result<Self> {
        if triplets.iter().any(|&(r, c, _)| r >= rows || c >= cols) {
            return Err(LinalgError::InvalidArgument("triplet index out of bounds"));
        }
        let (mut m, mut next) = Self::layout(rows, cols, triplets.iter().map(|t| t.0));
        for &(r, c, v) in triplets {
            m.place(&mut next, r, c, v);
        }
        m.sort_rows_and_merge_duplicates();
        Ok(m)
    }

    /// A zero-filled matrix with one slot per entry of `entry_rows` (the
    /// row of every entry to come), plus the fill cursor of each row for
    /// [`CsrMatrix::place`].
    fn layout(
        rows: usize,
        cols: usize,
        entry_rows: impl Iterator<Item = usize>,
    ) -> (Self, Vec<usize>) {
        let mut row_ptr = vec![0usize; rows + 1];
        for r in entry_rows {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[rows];
        let next = row_ptr[..rows].to_vec();
        let m = Self {
            rows,
            cols,
            row_ptr,
            col_idx: vec![0; nnz],
            values: vec![0.0; nnz],
        };
        (m, next)
    }

    /// Writes an entry into the next free slot of row `r`.
    fn place(&mut self, next: &mut [usize], r: usize, c: usize, v: f64) {
        self.col_idx[next[r]] = c;
        self.values[next[r]] = v;
        next[r] += 1;
    }

    /// Creates an empty (all-zero) sparse matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Takes ownership of CSR arrays a producer filled directly: `row_ptr`
    /// of length `rows + 1` from 0 to the entry count, and each row's
    /// columns strictly ascending and below `cols`.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] when the arrays break that
    /// layout.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let laid_out = row_ptr.len() == rows + 1
            && row_ptr[0] == 0
            && row_ptr[rows] == col_idx.len()
            && values.len() == col_idx.len()
            && row_ptr.windows(2).all(|w| {
                w[0] <= w[1]
                    && w[1] <= col_idx.len()
                    && col_idx[w[0]..w[1]].windows(2).all(|c| c[0] < c[1])
                    && col_idx[w[0]..w[1]].last().is_none_or(|&c| c < cols)
            });
        if !laid_out {
            return Err(LinalgError::InvalidArgument("malformed CSR arrays"));
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Sorts the column indices within each row and merges duplicates by
    /// summation. Called automatically by [`CsrMatrix::from_triplets`].
    fn sort_rows_and_merge_duplicates(&mut self) {
        let mut new_col_idx = Vec::with_capacity(self.col_idx.len());
        let mut new_values = Vec::with_capacity(self.values.len());
        let mut new_row_ptr = vec![0usize; self.rows + 1];
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.rows {
            scratch.clear();
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                scratch.push((self.col_idx[k], self.values[k]));
            }
            scratch.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let col = scratch[i].0;
                let mut val = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == col {
                    val += scratch[j].1;
                    j += 1;
                }
                new_col_idx.push(col);
                new_values.push(val);
                i = j;
            }
            new_row_ptr[r + 1] = new_col_idx.len();
        }
        self.col_idx = new_col_idx;
        self.values = new_values;
        self.row_ptr = new_row_ptr;
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

    /// Number of stored (structurally non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row pointer array (`rows + 1` entries): row `r` occupies positions
    /// `row_ptr()[r]..row_ptr()[r + 1]` of [`CsrMatrix::col_indices`] and
    /// [`CsrMatrix::values`]. Exposed so that solvers can write row-block
    /// kernels (parallel matvec, Gauss–Seidel sweeps) without per-entry
    /// iterator overhead.
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices of the stored entries, grouped by row and sorted within
    /// each row (see [`CsrMatrix::row_ptr`]).
    #[must_use]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values, aligned with [`CsrMatrix::col_indices`].
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Heap bytes of the row pointers plus one column/value pair per entry.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.rows + 1) * size_of::<usize>() + self.nnz() * (size_of::<usize>() + size_of::<f64>())
    }

    /// Computes `out[i] = (A x)[start_row + i]` for a contiguous block of
    /// rows — the serial kernel that row-block-parallel drivers (one disjoint
    /// output block per worker) are built from. The block length is
    /// `out.len()`.
    ///
    /// # Panics
    /// Panics when the block extends past the last row or `x` is shorter
    /// than the column count.
    pub fn matvec_rows_into(&self, start_row: usize, x: &[f64], out: &mut [f64]) {
        assert!(
            start_row + out.len() <= self.rows,
            "row block {}..{} out of range for {} rows",
            start_row,
            start_row + out.len(),
            self.rows
        );
        assert!(x.len() >= self.cols, "input vector too short");
        for (i, yr) in out.iter_mut().enumerate() {
            let row = self.row_ptr[start_row + i]..self.row_ptr[start_row + i + 1];
            let mut s = 0.0;
            for (&c, &v) in self.col_idx[row.clone()].iter().zip(&self.values[row]) {
                s += v * x[c];
            }
            *yr = s;
        }
    }

    /// Iterator over the stored entries of row `r` as `(col, value)` pairs.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row index {r} out of range");
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Value at `(r, c)`; zero when the entry is not stored.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        if r >= self.rows || c >= self.cols {
            return 0.0;
        }
        for k in self.row_ptr[r]..self.row_ptr[r + 1] {
            if self.col_idx[k] == c {
                return self.values[k];
            }
        }
        0.0
    }

    /// Sum of the stored entries of row `r`.
    #[must_use]
    pub fn row_sum(&self, r: usize) -> f64 {
        self.row_iter(r).map(|(_, v)| v).sum()
    }

    /// Matrix-vector product `y = A x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != ncols`.
    pub fn matvec(&self, x: &DVector) -> Result<DVector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "csr matvec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        let xs = x.as_slice();
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                s += self.values[k] * xs[self.col_idx[k]];
            }
            *yr = s;
        }
        Ok(DVector::from_vec(y))
    }

    /// Row-vector times matrix product `y^T = x^T A`.
    ///
    /// This is the operation needed by stationary-distribution iterations,
    /// where probability vectors multiply generators / transition matrices
    /// from the left.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != nrows`.
    pub fn vecmat(&self, x: &DVector) -> Result<DVector> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "csr vecmat",
                left: (1, x.len()),
                right: (self.rows, self.cols),
            });
        }
        let xs = x.as_slice();
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in xs.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                y[self.col_idx[k]] += xr * self.values[k];
            }
        }
        Ok(DVector::from_vec(y))
    }

    /// Transposed copy (also in CSR format). Source rows are placed in
    /// order, so every transposed row comes out with its columns ascending.
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        let (mut t, mut next) = Self::layout(self.cols, self.rows, self.col_idx.iter().copied());
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                t.place(&mut next, self.col_idx[k], r, self.values[k]);
            }
        }
        t
    }

    /// Converts to a dense matrix (only sensible for small matrices; used by
    /// tests and by the dense steady-state path).
    #[must_use]
    pub fn to_dense(&self) -> crate::dense::DMatrix {
        let mut m = crate::dense::DMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                m[(r, c)] += v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::dense::DMatrix;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap()
    }

    #[test]
    fn from_triplets_and_get() {
        let m = sample();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(5, 5), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn out_of_bounds_triplet_is_rejected() {
        assert!(CsrMatrix::from_triplets(1, 1, &[(1, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(1, 1, &[(0, 1, 1.0)]).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let y = m.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[7.0, 6.0]);
        assert!(m.matvec(&DVector::zeros(2)).is_err());
    }

    #[test]
    fn vecmat_matches_dense() {
        let m = sample();
        let x = DVector::from_vec(vec![1.0, 2.0]);
        let y = m.vecmat(&x).unwrap();
        let dense_y = m.to_dense().vecmat(&x).unwrap();
        assert_eq!(y.as_slice(), dense_y.as_slice());
        assert!(m.vecmat(&DVector::zeros(3)).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), 2.0);
        let tt = t.transpose();
        assert_eq!(tt.to_dense(), m.to_dense());
        assert_eq!(tt, m);
    }

    #[test]
    fn transpose_is_the_sorted_triplet_transpose() {
        // Rectangular, with an explicit zero, empty rows and columns: the
        // same arrays as assembling the swapped triplets.
        let triplets = [
            (0, 3, 1.5),
            (0, 1, 0.0),
            (2, 0, -2.0),
            (2, 3, 4.0),
            (3, 1, 7.0),
            (3, 4, 0.25),
        ];
        let m = CsrMatrix::from_triplets(5, 6, &triplets).unwrap();
        let swapped: Vec<Triplet> = triplets.iter().map(|&(r, c, v)| (c, r, v)).collect();
        let expected = CsrMatrix::from_triplets(6, 5, &swapped).unwrap();
        let t = m.transpose();
        assert_eq!(t, expected);
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t), bits(&expected));
    }

    #[test]
    fn to_dense_matches_manual_matrix() {
        let m = sample().to_dense();
        let expected = DMatrix::from_row_slice(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        assert_eq!(m, expected);
    }

    #[test]
    fn row_iteration_is_sorted_by_column() {
        let m = CsrMatrix::from_triplets(1, 4, &[(0, 3, 3.0), (0, 1, 1.0), (0, 2, 2.0)]).unwrap();
        let cols: Vec<usize> = m.row_iter(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 2, 3]);
    }

    #[test]
    fn from_parts_keeps_valid_arrays_and_rejects_malformed_ones() {
        let m = CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]);
        assert_eq!(m.unwrap(), sample());
        for (row_ptr, col_idx) in [
            (vec![0, 2], vec![0, 2, 1]),       // too few row pointers
            (vec![1, 2, 3], vec![0, 2, 1]),    // does not start at 0
            (vec![0, 2, 2], vec![0, 2, 1]),    // does not end at the entry count
            (vec![0, 4, 3], vec![0, 2, 1]),    // past the entries, then back
            (vec![0, 2, 3], vec![2, 0, 1]),    // unsorted row
            (vec![0, 2, 3], vec![0, 0, 1]),    // repeated column
            (vec![0, 2, 3], vec![0, 3, 1]),    // column out of range
        ] {
            let values = vec![1.0; col_idx.len()];
            assert!(CsrMatrix::from_parts(2, 3, row_ptr, col_idx, values).is_err());
        }
    }

    #[test]
    fn matvec_rows_into_matches_full_matvec() {
        let m = CsrMatrix::from_triplets(
            4,
            3,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (3, 0, -1.0), (3, 2, 4.0)],
        )
        .unwrap();
        let x = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let full = m.matvec(&x).unwrap();
        let mut out = vec![0.0; 2];
        m.matvec_rows_into(1, x.as_slice(), &mut out);
        assert_eq!(out, &full.as_slice()[1..3]);
        let mut all = vec![0.0; 4];
        m.matvec_rows_into(0, x.as_slice(), &mut all);
        assert_eq!(all, full.as_slice());
    }

    #[test]
    fn raw_accessors_describe_the_layout() {
        let m = sample();
        assert_eq!(m.row_ptr(), &[0, 2, 3]);
        assert_eq!(m.col_indices(), &[0, 2, 1]);
        assert_eq!(m.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_sums_and_empty_matrix() {
        let m = sample();
        assert!(approx_eq(m.row_sum(0), 3.0, 1e-12));
        assert!(approx_eq(m.row_sum(1), 3.0, 1e-12));
        assert_eq!(CsrMatrix::zeros(3, 3).nnz(), 0);
    }
}

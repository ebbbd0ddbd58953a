//! Basis bookkeeping for the revised simplex engine.
//!
//! The revised simplex never forms `B^{-1}` explicitly. This module keeps an
//! LU factorization `P B = L U` of the basis matrix together with a
//! *product-form* eta file recording the pivots performed since the last
//! refactorization:
//!
//! ```text
//! B_k = B_0 · E_1 · E_2 · … · E_k
//! ```
//!
//! where each `E_i` is the identity with one column replaced by the FTRAN
//! result `d = B_{i-1}^{-1} a_q` of the entering column.
//!
//! The bases of the marginal-balance LPs are mostly unit slack columns plus
//! structural columns with a handful of non-zeros, and their LU factors are
//! ~90% zeros. So a refactorization eliminates with the skip-zero
//! [`mapqn_linalg::Lu`] and then keeps only the non-zeros of `L` and `U`:
//! each triangle by rows (what FTRAN reads) and by columns (what BTRAN
//! reads), and no dense `m × m` array stays resident. FTRAN and BTRAN cost
//! `O(nnz(L) + nnz(U) + m)` for the triangular solves plus the stored
//! non-zeros of each eta. Each solve subtracts the same products in the same
//! order as the dense triangular solves of `Lu::solve_in_place` and
//! `Lu::solve_transpose_in_place` and only skips `0 · x` terms, so every
//! non-zero result is bitwise the dense one. Skipping can change only the
//! sign of an exact zero: `-0.0 - (-0.0)` is `+0.0`. FTRAN of a right-hand
//! side without `-0.0` entries is bitwise equal outright; BTRAN divides by
//! `U`'s diagonal before its second triangle, so one of its zeros may come
//! out with the other sign. The two zeros compare equal and vanish from
//! every sum that has a non-zero term or starts from `+0.0`.
//!
//! The module also provides `complete_basis`, a "crash" routine that turns
//! an arbitrary candidate column set (for instance a basis carried over from
//! a related problem) into a nonsingular basis by Gaussian elimination,
//! filling uncovered pivot rows with artificial columns.

use mapqn_linalg::{DMatrix, Lu};

/// Abstract access to the columns of the standard-form constraint matrix
/// (structural + slack columns stored sparse, artificial columns implicit).
pub(crate) trait ColumnSource {
    /// Number of constraint rows.
    fn num_rows(&self) -> usize;

    /// Adds column `j` into the dense buffer `out` (callers pass a zeroed
    /// buffer of length `num_rows()`).
    fn scatter_column(&self, j: usize, out: &mut [f64]);
}

/// One product-form update: the entering column's FTRAN image `d` and the
/// basis position it pivoted on, stored sparsely — the `d` vectors of the
/// heavily degenerate bound LPs are mostly zeros, and the eta file is
/// applied twice per pivot (FTRAN + BTRAN), so the sparse form is where the
/// engine's per-iteration time goes from `O(etas · m)` to `O(etas · nnz)`.
struct Eta {
    position: usize,
    /// `d[position]`, the pivot element.
    pivot: f64,
    /// Non-zero entries of `d` excluding the pivot position.
    entries: Vec<(u32, f64)>,
}

/// Minimum number of etas accumulated before the basis is refactorized; the
/// effective interval is `max(REFACTOR_INTERVAL, m)`. Each eta adds its
/// non-zeros to every later FTRAN and BTRAN and lets the product form
/// drift; a refactorization clears both at the price of one `m × m`
/// elimination. The interval was tuned when the factors were dense (then
/// refactorizing every 64 pivots made the elimination dominate the solve
/// for `m` in the hundreds). It is left unchanged because the eta count at
/// which a refactorization happens decides the pivot path.
pub(crate) const REFACTOR_INTERVAL: usize = 64;

/// A triangular factor stored as compressed lists: list `i` holds the
/// off-diagonal non-zeros of row (or column) `i` with indices ascending, the
/// order in which the dense solves visit them.
struct SparseTriangle {
    /// List `i` occupies `index[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    index: Vec<u32>,
    value: Vec<f64>,
}

impl SparseTriangle {
    /// Collects the non-zeros `packed[(i, j)]` with `keep(i, j)`, list by
    /// row.
    fn rows_of(packed: &DMatrix, keep: impl Fn(usize, usize) -> bool) -> Self {
        let m = packed.nrows();
        let mut start = Vec::with_capacity(m + 1);
        let (mut index, mut value) = (Vec::new(), Vec::new());
        start.push(0);
        for i in 0..m {
            for (j, &v) in packed.row(i).iter().enumerate() {
                if v != 0.0 && keep(i, j) {
                    index.push(j as u32);
                    value.push(v);
                }
            }
            start.push(index.len());
        }
        Self {
            start,
            index,
            value,
        }
    }

    /// The same entries listed by column. Rows are visited in ascending
    /// order, so every column list comes out ascending too.
    fn transpose(&self) -> Self {
        let m = self.start.len() - 1;
        let mut start = vec![0usize; m + 1];
        for &j in &self.index {
            start[j as usize + 1] += 1;
        }
        for j in 0..m {
            start[j + 1] += start[j];
        }
        let mut next = start[..m].to_vec();
        let mut index = vec![0u32; self.index.len()];
        let mut value = vec![0.0; self.value.len()];
        for i in 0..m {
            for k in self.start[i]..self.start[i + 1] {
                let slot = &mut next[self.index[k] as usize];
                index[*slot] = i as u32;
                value[*slot] = self.value[k];
                *slot += 1;
            }
        }
        Self {
            start,
            index,
            value,
        }
    }

    /// `s - Σ v · x[index]` over list `i`, subtracting in list order.
    #[inline]
    fn eliminate(&self, i: usize, mut s: f64, x: &[f64]) -> f64 {
        let range = self.start[i]..self.start[i + 1];
        for (&j, &v) in self.index[range.clone()].iter().zip(&self.value[range]) {
            s -= v * x[j as usize];
        }
        s
    }
}

/// The basis matrix whose columns are `basis` (in position order), dense.
fn basis_matrix(src: &dyn ColumnSource, basis: &[usize]) -> DMatrix {
    let m = src.num_rows();
    debug_assert_eq!(basis.len(), m);
    let mut dense = DMatrix::zeros(m, m);
    let mut buf = vec![0.0; m];
    for (position, &col) in basis.iter().enumerate() {
        buf.fill(0.0);
        src.scatter_column(col, &mut buf);
        for (i, &v) in buf.iter().enumerate() {
            dense[(i, position)] = v;
        }
    }
    dense
}

/// Sparse LU-factored basis with a product-form eta file.
pub(crate) struct BasisFactor {
    /// Row permutation of `P B = L U`: factor row `i` is basis row `perm[i]`.
    perm: Vec<usize>,
    /// Strictly lower `L` (unit diagonal implicit) by rows, for FTRAN.
    l_rows: SparseTriangle,
    /// Strictly upper `U` by rows, for FTRAN.
    u_rows: SparseTriangle,
    /// `L` by columns, for BTRAN.
    l_cols: SparseTriangle,
    /// `U` by columns, for BTRAN.
    u_cols: SparseTriangle,
    /// Diagonal of `U`.
    u_diag: Vec<f64>,
    etas: Vec<Eta>,
    /// Buffer for the permuted right-hand side (FTRAN/BTRAN run thousands
    /// of times per solve; allocating per call is measurable).
    scratch: Vec<f64>,
}

impl BasisFactor {
    /// Factorizes the basis matrix whose columns are `basis` (in position
    /// order). Returns `None` when the matrix is (numerically) singular.
    pub(crate) fn factorize(src: &dyn ColumnSource, basis: &[usize]) -> Option<Self> {
        let m = src.num_rows();
        let (packed, perm) = Lu::new(&basis_matrix(src, basis)).ok()?.into_parts();
        let l_rows = SparseTriangle::rows_of(&packed, |i, j| j < i);
        let u_rows = SparseTriangle::rows_of(&packed, |i, j| j > i);
        Some(Self {
            perm,
            l_cols: l_rows.transpose(),
            u_cols: u_rows.transpose(),
            l_rows,
            u_rows,
            u_diag: (0..m).map(|i| packed[(i, i)]).collect(),
            etas: Vec::new(),
            scratch: vec![0.0; m],
        })
    }

    /// Number of etas accumulated since the last refactorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Whether the eta file is long enough that the caller should
    /// refactorize.
    pub(crate) fn should_refactorize(&self) -> bool {
        self.etas.len() >= REFACTOR_INTERVAL.max(self.u_diag.len())
    }

    /// FTRAN: overwrites `x` with `B^{-1} x`.
    pub(crate) fn ftran(&mut self, x: &mut [f64]) {
        let m = self.u_diag.len();
        assert_eq!(x.len(), m, "ftran: wrong rhs length");
        let z = &mut self.scratch;
        for (zi, &p) in z.iter_mut().zip(&self.perm) {
            *zi = x[p];
        }
        for i in 1..m {
            z[i] = self.l_rows.eliminate(i, z[i], z);
        }
        for i in (0..m).rev() {
            z[i] = self.u_rows.eliminate(i, z[i], z) / self.u_diag[i];
        }
        x.copy_from_slice(z);
        for eta in &self.etas {
            let r = eta.position;
            let xr = x[r] / eta.pivot;
            if xr != 0.0 {
                for &(i, di) in &eta.entries {
                    x[i as usize] -= di * xr;
                }
            }
            x[r] = xr;
        }
    }

    /// BTRAN: overwrites `y` with `B^{-T} y`.
    pub(crate) fn btran(&mut self, y: &mut [f64]) {
        let m = self.u_diag.len();
        assert_eq!(y.len(), m, "btran: wrong rhs length");
        for eta in self.etas.iter().rev() {
            let r = eta.position;
            let mut s = y[r];
            for &(i, di) in &eta.entries {
                s -= di * y[i as usize];
            }
            y[r] = s / eta.pivot;
        }
        for i in 0..m {
            y[i] = self.u_cols.eliminate(i, y[i], y) / self.u_diag[i];
        }
        for i in (0..m).rev() {
            y[i] = self.l_cols.eliminate(i, y[i], y);
        }
        for (&yi, &p) in y.iter().zip(&self.perm) {
            self.scratch[p] = yi;
        }
        y.copy_from_slice(&self.scratch);
    }

    /// Records the pivot `basis[position] <- entering column` whose FTRAN
    /// image was `d` (`d[position]` is the pivot element).
    pub(crate) fn push_eta(&mut self, position: usize, d: &[f64]) {
        debug_assert!(d[position] != 0.0, "eta pivot must be non-zero");
        let entries = d
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != position && v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        self.etas.push(Eta {
            position,
            pivot: d[position],
            entries,
        });
    }
}

/// Pivot threshold for accepting a candidate column during basis completion.
/// Deliberately conservative: a candidate whose eliminated image is this
/// small is treated as dependent and replaced by an artificial, so that the
/// repaired basis factorizes robustly.
const CRASH_PIVOT_TOL: f64 = 1e-7;

/// Builds a nonsingular basis from `candidates` (tried in order), filling
/// rows no candidate can cover with the artificial column of that row
/// (`artificial_base + row`). The returned basis always has exactly `m`
/// linearly independent columns.
pub(crate) fn complete_basis(
    src: &dyn ColumnSource,
    candidates: &[usize],
    artificial_base: usize,
) -> Vec<usize> {
    let m = src.num_rows();
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    // For every accepted column: its pivot row and its eliminated image.
    let mut pivots: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut row_used = vec![false; m];
    let mut seen = std::collections::HashSet::new();
    let mut buf = vec![0.0; m];

    for &c in candidates {
        if chosen.len() == m {
            break;
        }
        if c >= artificial_base + m || !seen.insert(c) {
            continue;
        }
        buf.fill(0.0);
        src.scatter_column(c, &mut buf);
        // Eliminate against the columns accepted so far (in order).
        for (pr, pcol) in &pivots {
            let f = buf[*pr] / pcol[*pr];
            if f != 0.0 {
                for (i, &pv) in pcol.iter().enumerate() {
                    if pv != 0.0 {
                        buf[i] -= f * pv;
                    }
                }
                buf[*pr] = 0.0;
            }
        }
        // Pick the largest remaining entry in an unused row as the pivot.
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in buf.iter().enumerate() {
            if !row_used[i] && v.abs() > best.map_or(CRASH_PIVOT_TOL, |(_, bv)| bv) {
                best = Some((i, v.abs()));
            }
        }
        if let Some((r, _)) = best {
            row_used[r] = true;
            pivots.push((r, buf.clone()));
            chosen.push(c);
        }
    }
    for (r, used) in row_used.iter().enumerate() {
        if !used {
            chosen.push(artificial_base + r);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapqn_linalg::CscMatrix;
    use proptest::prelude::*;

    struct CscSource {
        csc: CscMatrix,
        artificial_base: usize,
    }

    impl ColumnSource for CscSource {
        fn num_rows(&self) -> usize {
            self.csc.nrows()
        }

        fn scatter_column(&self, j: usize, out: &mut [f64]) {
            if j >= self.artificial_base {
                out[j - self.artificial_base] += 1.0;
            } else {
                for (r, v) in self.csc.col_iter(j) {
                    out[r] += v;
                }
            }
        }
    }

    fn sample_source() -> CscSource {
        // Columns: [1 0; 2 1], [0; 3], [2 0; 4 2]^T laid out as 2x3:
        // col0 = (1, 2), col1 = (0, 3), col2 = (2, 4).
        let csc = CscMatrix::from_triplets(
            2,
            3,
            &[(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0), (0, 2, 2.0), (1, 2, 4.0)],
        )
        .unwrap();
        CscSource {
            csc,
            artificial_base: 3,
        }
    }

    #[test]
    fn ftran_and_btran_match_direct_solves() {
        let src = sample_source();
        let basis = vec![0usize, 1];
        let mut factor = BasisFactor::factorize(&src, &basis).unwrap();
        // B = [[1, 0], [2, 3]].
        let mut x = vec![5.0, 4.0];
        factor.ftran(&mut x);
        // Solve [[1,0],[2,3]] x = (5, 4): x0 = 5, x1 = (4 - 10)/3 = -2.
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
        let mut y = vec![1.0, 1.0];
        factor.btran(&mut y);
        // Solve B^T y = (1, 1): [[1,2],[0,3]] y = (1,1): y1 = 1/3, y0 = 1/3.
        assert!((y[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((y[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn eta_updates_track_a_basis_change() {
        let src = sample_source();
        let mut factor = BasisFactor::factorize(&src, &[0, 1]).unwrap();
        // Pivot column 2 into position 0: d = B^{-1} a_2.
        let mut d = vec![0.0; 2];
        src.scatter_column(2, &mut d);
        factor.ftran(&mut d);
        factor.push_eta(0, &d);
        assert_eq!(factor.eta_count(), 1);
        // The updated factor must act like B' = [a_2, a_1] = [[2,0],[4,3]].
        let mut fresh = BasisFactor::factorize(&src, &[2, 1]).unwrap();
        let mut via_eta = vec![3.0, -1.0];
        let mut via_fresh = via_eta.clone();
        factor.ftran(&mut via_eta);
        fresh.ftran(&mut via_fresh);
        for (a, b) in via_eta.iter().zip(&via_fresh) {
            assert!((a - b).abs() < 1e-12, "{a} != {b}");
        }
        let mut yt_eta = vec![-2.0, 0.5];
        let mut yt_fresh = yt_eta.clone();
        factor.btran(&mut yt_eta);
        fresh.btran(&mut yt_fresh);
        for (a, b) in yt_eta.iter().zip(&yt_fresh) {
            assert!((a - b).abs() < 1e-12, "{a} != {b}");
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        let src = sample_source();
        // Columns 0 and 2 are proportional? col0 = (1,2), col2 = (2,4): yes.
        assert!(BasisFactor::factorize(&src, &[0, 2]).is_none());
    }

    /// Deterministic xorshift stream in `[0, 1)`.
    fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `m` rows; `structural` columns of 2–6 non-zeros each, then the `m`
    /// unit slack columns (artificials are implicit past those).
    fn random_source(m: usize, structural: usize, next: &mut impl FnMut() -> f64) -> CscSource {
        let mut triplets = Vec::new();
        for c in 0..structural {
            let nnz = (2 + (next() * 5.0) as usize).min(m);
            let mut rows: Vec<usize> = Vec::with_capacity(nnz);
            while rows.len() < nnz {
                let r = (next() * m as f64) as usize;
                if !rows.contains(&r) {
                    rows.push(r);
                }
            }
            for r in rows {
                let v = (next() - 0.5) * 4.0;
                triplets.push((r, c, if v.abs() < 0.05 { 0.5 } else { v }));
            }
        }
        for r in 0..m {
            triplets.push((r, structural + r, 1.0));
        }
        CscSource {
            csc: CscMatrix::from_triplets(m, structural + m, &triplets).unwrap(),
            artificial_base: structural + m,
        }
    }

    /// Right-hand sides the engine solves with: a dense vector, a unit
    /// vector and a scattered sparse column. No entry is `-0.0`.
    fn right_hand_sides(m: usize, next: &mut impl FnMut() -> f64) -> Vec<Vec<f64>> {
        let dense: Vec<f64> = (0..m).map(|_| next() - 0.5).collect();
        let mut unit = vec![0.0; m];
        unit[(next() * m as f64) as usize] = 1.0;
        let mut sparse = vec![0.0; m];
        for v in &mut sparse {
            if next() < 0.1 {
                *v = next() * 3.0 + 0.1;
            }
        }
        vec![dense, unit, sparse]
    }

    /// Bitwise equality; with `signed_zero_free`, an exact zero on one side
    /// may be the other sign of zero on the other (`v + 0.0` folds `-0.0`
    /// into `+0.0` and leaves every other value unchanged).
    fn assert_bitwise(got: &[f64], want: &[f64], what: &str, signed_zero_free: bool) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let (gb, wb) = if signed_zero_free {
                ((g + 0.0).to_bits(), (w + 0.0).to_bits())
            } else {
                (g.to_bits(), w.to_bits())
            };
            assert_eq!(gb, wb, "{what} entry {i}: {g:e} vs {w:e}");
        }
    }

    /// Checks FTRAN and BTRAN of `factor` against the dense `Lu` of the
    /// starting basis `b0`, with the eta file applied the same way.
    fn assert_solves_match_dense(factor: &mut BasisFactor, b0: &Lu, rhs: &[Vec<f64>]) {
        for b in rhs {
            let mut sparse = b.clone();
            factor.ftran(&mut sparse);
            let mut dense = b.clone();
            b0.solve_in_place(&mut dense);
            for eta in &factor.etas {
                let xr = dense[eta.position] / eta.pivot;
                if xr != 0.0 {
                    for &(i, di) in &eta.entries {
                        dense[i as usize] -= di * xr;
                    }
                }
                dense[eta.position] = xr;
            }
            assert_bitwise(&sparse, &dense, "ftran", false);

            let mut sparse = b.clone();
            factor.btran(&mut sparse);
            let mut dense = b.clone();
            for eta in factor.etas.iter().rev() {
                let mut s = dense[eta.position];
                for &(i, di) in &eta.entries {
                    s -= di * dense[i as usize];
                }
                dense[eta.position] = s / eta.pivot;
            }
            b0.solve_transpose_in_place(&mut dense);
            assert_bitwise(&sparse, &dense, "btran", true);
        }
    }

    #[cfg(miri)]
    const CASES: u32 = 3;
    #[cfg(not(miri))]
    const CASES: u32 = 48;
    #[cfg(miri)]
    const MAX_ROWS: usize = 12;
    #[cfg(not(miri))]
    const MAX_ROWS: usize = 200;

    proptest! {
        #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

        /// Sparse FTRAN and BTRAN equal the dense `Lu` solves under
        /// `to_bits()` on random bases mixing unit slack columns with
        /// 2–6-non-zero structural columns, before and after etas. BTRAN
        /// may flip the sign of an exact zero (see the module doc).
        #[test]
        fn sparse_solves_are_bitwise_equal_to_dense_lu(
            m in 2usize..MAX_ROWS + 1,
            slack_share in 0.0f64..0.9,
            etas in 0usize..9,
            seed in 0u64..1_000_000_000,
        ) {
            let mut next = unit_stream(seed);
            let src = random_source(m, m, &mut next);
            // Candidates: structural columns, with a share of them swapped
            // for slacks; the crash fills whatever stays uncovered.
            let candidates: Vec<usize> = (0..m)
                .map(|c| if next() < slack_share { m + (next() * m as f64) as usize } else { c })
                .collect();
            let basis = complete_basis(&src, &candidates, 2 * m);
            let Some(mut factor) = BasisFactor::factorize(&src, &basis) else {
                return;
            };
            let b0 = Lu::new(&basis_matrix(&src, &basis)).unwrap();
            let rhs = right_hand_sides(m, &mut next);
            assert_solves_match_dense(&mut factor, &b0, &rhs);

            let mut d = vec![0.0; m];
            for _ in 0..etas {
                let q = (next() * (2 * m) as f64) as usize;
                d.fill(0.0);
                src.scatter_column(q, &mut d);
                factor.ftran(&mut d);
                let (r, pivot) = d
                    .iter()
                    .enumerate()
                    .fold((0, 0.0f64), |best, (i, &v)| if v.abs() > best.1.abs() { (i, v) } else { best });
                if pivot.abs() > 1e-3 {
                    factor.push_eta(r, &d);
                }
            }
            assert_solves_match_dense(&mut factor, &b0, &rhs);
        }
    }

    #[test]
    fn complete_basis_selects_independent_columns() {
        let src = sample_source();
        // Candidates contain a dependent pair; completion must skip one.
        let basis = complete_basis(&src, &[0, 2, 1], 3);
        assert_eq!(basis.len(), 2);
        assert!(BasisFactor::factorize(&src, &basis).is_some());
        assert!(basis.contains(&0) && basis.contains(&1));
    }

    #[test]
    fn complete_basis_fills_uncovered_rows_with_artificials() {
        let src = sample_source();
        // Only column 1 = (0, 3) offered: row 0 stays uncovered.
        let basis = complete_basis(&src, &[1], 3);
        assert_eq!(basis.len(), 2);
        assert!(basis.contains(&1));
        assert!(basis.contains(&3), "artificial of row 0 expected: {basis:?}");
        assert!(BasisFactor::factorize(&src, &basis).is_some());
    }

    #[test]
    fn complete_basis_ignores_duplicates_and_out_of_range() {
        let src = sample_source();
        let basis = complete_basis(&src, &[0, 0, 99, 1], 3);
        assert_eq!(basis.len(), 2);
        assert!(BasisFactor::factorize(&src, &basis).is_some());
    }
}

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
//! ~90% zeros. A refactorization therefore never builds the basis matrix.
//! It eliminates left-looking, one column at a time, in the manner of
//! Gilbert & Peierls (SIAM J. Sci. Stat. Comput. 1988). Each basis column is
//! scattered into a work column and updated by the multiplier columns of the
//! positions it touches, in ascending position order, before it picks its
//! pivot. The column order, the update order, the skipped zero products and
//! the pivot rule (largest magnitude among unpivoted rows, ties to the
//! lowest current position, singular below `1e-13`) are those of the dense
//! right-looking [`mapqn_linalg::Lu`], so every factor entry is bitwise the
//! dense one at a cost proportional to the flops and the fill.
//!
//! The factors keep only their non-zeros: each triangle by rows (what FTRAN
//! reads) and by columns (what BTRAN reads). FTRAN and BTRAN cost
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
//! a related problem) into a nonsingular basis by the same kind of sparse
//! elimination, filling uncovered pivot rows with artificial columns.

/// Abstract access to the columns of the standard-form constraint matrix
/// (structural + slack columns stored sparse, artificial columns implicit).
pub(crate) trait ColumnSource {
    /// Number of constraint rows.
    fn num_rows(&self) -> usize;

    /// Calls `visit(row, value)` for each stored entry of column `j`.
    fn for_each_entry(&self, j: usize, visit: &mut dyn FnMut(usize, f64));

    /// Adds column `j` into the dense buffer `out` (callers pass a zeroed
    /// buffer of length `num_rows()`).
    fn scatter_column(&self, j: usize, out: &mut [f64]) {
        self.for_each_entry(j, &mut |r, v| out[r] += v);
    }
}

/// One product-form update: the entering column's FTRAN image `d` and the
/// basis position it pivoted on, stored sparsely — the `d` vectors of the
/// heavily degenerate bound LPs are mostly zeros, and the eta file is
/// applied twice per pivot (FTRAN + BTRAN), so the sparse form is where the
/// engine's per-iteration time goes from `O(etas · m)` to `O(etas · nnz)`.
#[derive(Clone)]
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
/// drift; a refactorization clears both at the price of one sparse
/// elimination, whose cost follows the fill of the factors. The interval was
/// tuned when the factors were dense (then refactorizing every 64 pivots
/// made the elimination dominate the solve for `m` in the hundreds). It is
/// left unchanged because the eta count at which a refactorization happens
/// decides the pivot path.
pub(crate) const REFACTOR_INTERVAL: usize = 64;

/// Pivot magnitude below which the basis is reported singular (the dense
/// `Lu`'s threshold).
const SINGULARITY_TOL: f64 = 1e-13;

/// A triangular factor stored as compressed lists: list `i` holds the
/// off-diagonal non-zeros of row (or column) `i` with indices ascending, the
/// order in which the dense solves visit them. The eliminations also build
/// their multiplier columns and crash images in this layout, unsorted.
#[derive(Clone)]
struct SparseTriangle {
    /// List `i` occupies `index[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    index: Vec<u32>,
    value: Vec<f64>,
}

impl SparseTriangle {
    fn new() -> Self {
        Self {
            start: vec![0],
            index: Vec::new(),
            value: Vec::new(),
        }
    }

    /// Closes the list being filled; the next `push` starts a new one.
    fn end_list(&mut self) {
        self.start.push(self.index.len());
    }

    fn push(&mut self, index: usize, value: f64) {
        self.push_if(index, value, true);
    }

    /// Appends the entry when `keep`; writing it either way and then
    /// keeping or dropping it spares a data-dependent branch.
    #[inline]
    fn push_if(&mut self, index: usize, value: f64, keep: bool) {
        let len = self.index.len() + usize::from(keep);
        self.index.push(index as u32);
        self.value.push(value);
        self.index.truncate(len);
        self.value.truncate(len);
    }

    fn list(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.start[i]..self.start[i + 1];
        self.index[range.clone()]
            .iter()
            .zip(&self.value[range])
            .map(|(&j, &v)| (j as usize, v))
    }

    /// The same entries listed by their index. Lists are visited in
    /// ascending order, so every transposed list comes out ascending too.
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

/// A dense work column that remembers which rows it touched, so reading its
/// non-zeros and clearing it cost `O(touched)` rather than `O(m)`.
struct WorkColumn {
    x: Vec<f64>,
    touched: Vec<bool>,
    /// The touched rows are `pattern[..len]`; the slot past them takes a
    /// speculative write, which keeps `touch` free of branches.
    pattern: Vec<usize>,
    len: usize,
}

impl WorkColumn {
    fn new(m: usize) -> Self {
        Self {
            x: vec![0.0; m],
            touched: vec![false; m],
            pattern: vec![0; m + 1],
            len: 0,
        }
    }

    fn touched_rows(&self) -> &[usize] {
        &self.pattern[..self.len]
    }

    #[inline]
    fn touch(&mut self, r: usize) {
        self.pattern[self.len] = r;
        self.len += usize::from(!self.touched[r]);
        self.touched[r] = true;
    }

    /// `x[r] += v`, as [`ColumnSource::scatter_column`] adds an entry.
    #[inline]
    fn add(&mut self, r: usize, v: f64) {
        self.touch(r);
        self.x[r] += v;
    }

    /// `x[r] -= f · v`; an untouched `x[r]` is `+0.0`, so fill is
    /// `0.0 - f · v` exactly as in a dense array.
    #[inline]
    fn subtract(&mut self, r: usize, f: f64, v: f64) {
        self.touch(r);
        self.x[r] -= f * v;
    }

    /// Hands `(row, x[row])` of every touched row to `visit` and clears
    /// the column.
    fn drain(&mut self, mut visit: impl FnMut(usize, f64)) {
        for &r in &self.pattern[..self.len] {
            visit(r, self.x[r]);
            self.x[r] = 0.0;
            self.touched[r] = false;
        }
        self.len = 0;
    }
}

/// A set of indices drained in ascending order while the drain adds larger
/// ones: an update at index `k` only ever schedules indices above `k`.
struct Pending {
    words: Vec<u64>,
    /// First word that may still hold a member.
    cursor: usize,
}

impl Pending {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            cursor: 0,
        }
    }

    /// Inserts `i` when `keep`, without a branch (`i` must be in range
    /// either way).
    #[inline]
    fn insert_if(&mut self, i: usize, keep: bool) {
        debug_assert!(!keep || i / 64 >= self.cursor, "inserted below the drain");
        self.words[i / 64] |= u64::from(keep) << (i % 64);
    }

    /// Removes and returns the smallest member; at the end of a drain the
    /// set is empty and ready for the next one.
    fn pop(&mut self) -> Option<usize> {
        while let Some(w) = self.words.get_mut(self.cursor) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.cursor * 64 + bit);
            }
            self.cursor += 1;
        }
        self.cursor = 0;
        None
    }
}

/// Sparse LU-factored basis with a product-form eta file.
#[derive(Clone)]
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
        if basis.len() != m {
            return None;
        }
        // `perm[p]` is the basis row at position `p`, `pos` its inverse;
        // both follow the dense elimination's row swaps step by step.
        let mut perm: Vec<usize> = (0..m).collect();
        let mut pos = perm.clone();
        // Multiplier column `k` lists `(basis row, l)`: a row's position is
        // final only once it is pivoted.
        let mut l_by_row_id = SparseTriangle::new();
        let mut u_cols = SparseTriangle::new();
        let mut u_diag = Vec::with_capacity(m);
        let mut work = WorkColumn::new(m);
        let mut pending = Pending::new(m);
        for (j, &col) in basis.iter().enumerate() {
            src.for_each_entry(col, &mut |r, v| {
                work.add(r, v);
                pending.insert_if(pos[r], pos[r] < j);
            });
            // Left-looking update: position `k` ascending is the order in
            // which the dense right-looking steps reach this column.
            while let Some(k) = pending.pop() {
                let u = work.x[perm[k]];
                if u == 0.0 {
                    continue;
                }
                u_cols.push(k, u);
                for (r, l) in l_by_row_id.list(k) {
                    work.subtract(r, l, u);
                    pending.insert_if(pos[r], pos[r] < j);
                }
            }
            u_cols.end_list();
            // Largest magnitude among unpivoted rows; ties go to the lowest
            // current position, as in the dense scan from position `j` down.
            let (mut best, mut best_abs) = (j, work.x[perm[j]].abs());
            for &r in work.touched_rows() {
                let (p, v) = (pos[r], work.x[r].abs());
                let wins = p > j && (v > best_abs || (v == best_abs && p < best));
                best = if wins { p } else { best };
                best_abs = if wins { v } else { best_abs };
            }
            if best_abs < SINGULARITY_TOL {
                return None;
            }
            let (a, b) = (perm[j], perm[best]);
            perm.swap(j, best);
            pos[a] = best;
            pos[b] = j;
            let pivot = work.x[b];
            u_diag.push(pivot);
            work.drain(|r, x| {
                let l = x / pivot;
                l_by_row_id.push_if(r, l, pos[r] > j && l != 0.0);
            });
            l_by_row_id.end_list();
        }
        // Rename rows to their final positions; transposing twice sorts
        // both layouts.
        for r in &mut l_by_row_id.index {
            *r = pos[*r as usize] as u32;
        }
        let l_rows = l_by_row_id.transpose();
        Some(Self {
            perm,
            l_cols: l_rows.transpose(),
            u_rows: u_cols.transpose(),
            l_rows,
            u_cols,
            u_diag,
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

/// `complete_basis`'s mark for a row no accepted column pivots on.
const UNPIVOTED: usize = usize::MAX;

/// Builds a nonsingular basis from `candidates` (tried in order), filling
/// rows no candidate can cover with the artificial column of that row
/// (`artificial_base + row`). The returned basis always has exactly `m`
/// linearly independent columns.
///
/// Each candidate is eliminated against the images of the columns accepted
/// before it, in acceptance order, and is accepted on the largest remaining
/// entry above `CRASH_PIVOT_TOL` in an unused row (ties to the lowest row).
/// Only the accepted images whose pivot row the candidate reaches are
/// applied, so the cost follows the fill rather than `m` per candidate.
pub(crate) fn complete_basis(
    src: &dyn ColumnSource,
    candidates: &[usize],
    artificial_base: usize,
) -> Vec<usize> {
    let m = src.num_rows();
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    // Accepted image `t` (list `t`, its pivot row's entry included), its
    // pivot row and pivot value.
    let mut images = SparseTriangle::new();
    let mut pivots: Vec<(usize, f64)> = Vec::new();
    // The acceptance index of the image pivoting on each row.
    let mut pivot_of_row = vec![UNPIVOTED; m];
    let mut seen = vec![false; artificial_base + m];
    let mut work = WorkColumn::new(m);
    let mut pending = Pending::new(m);

    for &c in candidates {
        if chosen.len() == m {
            break;
        }
        if c >= artificial_base + m || std::mem::replace(&mut seen[c], true) {
            continue;
        }
        src.for_each_entry(c, &mut |r, v| {
            work.add(r, v);
            let t = pivot_of_row[r];
            // An unpivoted row clamps to an index it does not insert.
            pending.insert_if(t.min(m - 1), t != UNPIVOTED);
        });
        while let Some(t) = pending.pop() {
            let (pr, pv) = pivots[t];
            let f = work.x[pr] / pv;
            if f != 0.0 {
                for (i, v) in images.list(t) {
                    work.subtract(i, f, v);
                    let s = pivot_of_row[i];
                    let later = s > t && s != UNPIVOTED;
                    pending.insert_if(if later { s } else { t }, later);
                }
                work.x[pr] = 0.0;
            }
        }
        // Above the tolerance, the largest magnitude in an unused row, ties
        // to the lowest row (as a scan in row order finds it).
        let (mut best, mut best_abs) = (0, CRASH_PIVOT_TOL);
        for &r in work.touched_rows() {
            let v = work.x[r].abs();
            let wins =
                pivot_of_row[r] == UNPIVOTED && (v > best_abs || (v == best_abs && r < best));
            best = if wins { r } else { best };
            best_abs = if wins { v } else { best_abs };
        }
        let accepted = best_abs > CRASH_PIVOT_TOL;
        if accepted {
            pivot_of_row[best] = pivots.len();
            pivots.push((best, work.x[best]));
            chosen.push(c);
        }
        work.drain(|i, x| images.push_if(i, x, accepted && x != 0.0));
        if accepted {
            images.end_list();
        }
    }
    for (r, &pivot) in pivot_of_row.iter().enumerate() {
        if pivot == UNPIVOTED {
            chosen.push(artificial_base + r);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapqn_linalg::{CscMatrix, DMatrix, Lu};
    use proptest::prelude::*;

    struct CscSource {
        csc: CscMatrix,
        artificial_base: usize,
    }

    impl ColumnSource for CscSource {
        fn num_rows(&self) -> usize {
            self.csc.nrows()
        }

        fn for_each_entry(&self, j: usize, visit: &mut dyn FnMut(usize, f64)) {
            if j >= self.artificial_base {
                visit(j - self.artificial_base, 1.0);
            } else {
                for (r, v) in self.csc.col_iter(j) {
                    visit(r, v);
                }
            }
        }
    }

    /// The basis matrix whose columns are `basis` (in position order),
    /// dense: the input of the dense oracle.
    fn basis_matrix(src: &dyn ColumnSource, basis: &[usize]) -> DMatrix {
        let m = src.num_rows();
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

    /// The non-zeros `entry(i, j)` with `keep(i, j)`, listed by `i` with
    /// `j` ascending.
    fn lists_of(
        m: usize,
        entry: impl Fn(usize, usize) -> f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> SparseTriangle {
        let mut lists = SparseTriangle::new();
        for i in 0..m {
            for j in 0..m {
                let v = entry(i, j);
                if v != 0.0 && keep(i, j) {
                    lists.push(j, v);
                }
            }
            lists.end_list();
        }
        lists
    }

    fn assert_lists_bitwise(got: &SparseTriangle, want: &SparseTriangle, what: &str) {
        assert_eq!(got.start, want.start, "{what}: list lengths");
        assert_eq!(got.index, want.index, "{what}: indices");
        for (k, (g, w)) in got.value.iter().zip(&want.value).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} entry {k}: {g:e} vs {w:e}");
        }
    }

    /// Checks the sparse factorization of `basis` against the dense oracle
    /// `Lu::new(&basis_matrix(..)).into_parts()`: the same singular
    /// verdict, and otherwise the same permutation and every `L`/`U` index
    /// and value under `to_bits()`. Returns whether the basis factorized.
    fn assert_factor_matches_dense(src: &dyn ColumnSource, basis: &[usize]) -> bool {
        let sparse = BasisFactor::factorize(src, basis);
        let dense = Lu::new(&basis_matrix(src, basis)).ok().map(Lu::into_parts);
        let (factor, (packed, perm)) = match (sparse, dense) {
            (None, None) => return false,
            (Some(factor), Some(dense)) => (factor, dense),
            (sparse, _) => panic!(
                "singular verdicts differ: sparse factorized = {}",
                sparse.is_some()
            ),
        };
        let m = src.num_rows();
        assert_eq!(factor.perm, perm, "row permutation");
        let by_row = |i: usize, j: usize| packed[(i, j)];
        let by_col = |i: usize, j: usize| packed[(j, i)];
        assert_lists_bitwise(&factor.l_rows, &lists_of(m, by_row, |i, j| j < i), "L rows");
        assert_lists_bitwise(&factor.u_rows, &lists_of(m, by_row, |i, j| j > i), "U rows");
        assert_lists_bitwise(
            &factor.l_cols,
            &lists_of(m, by_col, |i, j| j > i),
            "L columns",
        );
        assert_lists_bitwise(
            &factor.u_cols,
            &lists_of(m, by_col, |i, j| j < i),
            "U columns",
        );
        let diag: Vec<f64> = (0..m).map(|i| packed[(i, i)]).collect();
        assert_bitwise(&factor.u_diag, &diag, "U diagonal", false);
        true
    }

    /// The dense crash the sparse [`complete_basis`] replaced: every
    /// candidate is scattered into a length-`m` buffer and eliminated
    /// against every accepted image in acceptance order.
    fn complete_basis_dense(
        src: &dyn ColumnSource,
        candidates: &[usize],
        artificial_base: usize,
    ) -> Vec<usize> {
        let m = src.num_rows();
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
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

    /// `m` rows; `structural` columns of 1–5 non-zeros drawn from a short
    /// list of values, so that magnitudes tie within and across columns;
    /// every third structural column from the fourth on is the exact sum
    /// of two earlier ones, so bases that hold all three are dependent.
    /// Then the `m` slack columns, `+1` or `-1` (artificials are implicit
    /// past those).
    fn tied_source(m: usize, structural: usize, next: &mut impl FnMut() -> f64) -> CscSource {
        const VALUES: [f64; 8] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, 0.25];
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(structural);
        for c in 0..structural {
            let pick = |next: &mut dyn FnMut() -> f64, n: usize| (next() * n as f64) as usize;
            let mut column = vec![0.0; m];
            if c >= 3 && c % 3 == 0 {
                let (a, b) = (pick(next, c), pick(next, c));
                for (v, (x, y)) in column.iter_mut().zip(columns[a].iter().zip(&columns[b])) {
                    *v = x + y;
                }
            } else {
                for _ in 0..1 + pick(next, 5) {
                    column[pick(next, m)] = VALUES[pick(next, VALUES.len())];
                }
            }
            columns.push(column);
        }
        let mut triplets = Vec::new();
        for (c, column) in columns.iter().enumerate() {
            triplets.extend(
                column
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v != 0.0)
                    .map(|(r, &v)| (r, c, v)),
            );
        }
        for r in 0..m {
            triplets.push((r, structural + r, if next() < 0.5 { 1.0 } else { -1.0 }));
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

        /// The sparse factorization equals the dense `Lu` on tied, partly
        /// dependent bases: a random column draw (mostly singular), its
        /// crash completion in a shuffled order (nonsingular), and that
        /// order with its last column replaced by a copy of another, which
        /// is singular only at the last step.
        #[test]
        fn sparse_factorize_is_bitwise_equal_to_dense_lu(
            m in 1usize..MAX_ROWS + 1,
            structural_share in 0.2f64..2.0,
            seed in 0u64..1_000_000_000,
        ) {
            let mut next = unit_stream(seed);
            let structural = ((m as f64 * structural_share) as usize).max(1);
            let src = tied_source(m, structural, &mut next);
            let all = structural + 2 * m;
            let mut pick = |n: usize| (next() * n as f64) as usize;
            let draw: Vec<usize> = (0..m).map(|_| pick(all)).collect();
            assert_factor_matches_dense(&src, &draw);
            let mut basis = complete_basis(&src, &draw, structural + m);
            for i in (1..m).rev() {
                basis.swap(i, pick(i + 1));
            }
            prop_assert!(assert_factor_matches_dense(&src, &basis));
            if m > 1 {
                basis[m - 1] = basis[pick(m - 1)];
                prop_assert!(!assert_factor_matches_dense(&src, &basis));
            }
        }

        /// The sparse crash returns exactly the dense crash's columns, for
        /// candidate lists with duplicates, artificials and out-of-range
        /// columns.
        #[test]
        fn sparse_complete_basis_matches_dense_crash(
            m in 1usize..MAX_ROWS + 1,
            structural_share in 0.2f64..2.0,
            length_share in 0.0f64..2.0,
            seed in 0u64..1_000_000_000,
        ) {
            let mut next = unit_stream(seed);
            let structural = ((m as f64 * structural_share) as usize).max(1);
            let src = tied_source(m, structural, &mut next);
            let past_end = structural + 2 * m + 3;
            let candidates: Vec<usize> = (0..(m as f64 * length_share) as usize)
                .map(|_| (next() * past_end as f64) as usize)
                .collect();
            prop_assert_eq!(
                complete_basis(&src, &candidates, structural + m),
                complete_basis_dense(&src, &candidates, structural + m)
            );
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

//! Implicit-operator abstraction over CTMC generators.
//!
//! The sparse stationary engine in `mapqn-markov` only ever touches the
//! generator through these operations: row-block left products (`π ↦ πQ`
//! computed as row scans of `Qᵀ`, with the level flows of the same scan
//! when the operator has levels), row-block Gauss–Seidel relaxations,
//! diagonal extraction (per-state exit rates), and nnz/memory accounting
//! for its worker-count and routing decisions. [`GeneratorOp`] captures
//! exactly that contract, so every rung of the engine's ladder runs over
//! *any* representation of `Q`:
//!
//! * the materialized [`CsrGenerator`]: `Qᵀ` stored as a [`CsrMatrix`]
//!   (the access pattern of every left operation), with each row's
//!   diagonal position recorded so that a relaxation walks the row as
//!   three contiguous column ranges instead of testing every entry;
//! * the factored network generator in `mapqn-core`, which *never forms
//!   `Q`*: it synthesizes each row of `Qᵀ` on the fly from per-station
//!   blocks. Its memory falls from `O(nnz(Q))` for the flat CSR to the
//!   blocks plus the state-length vectors — the difference between the
//!   `10^5`-state regime and the `10^6`–`10^7`-state regime the exact
//!   engine is specified for.
//!
//! Gauss–Seidel needs nothing beyond rows of `Qᵀ` visited in index order
//! (Ciardo & Miner, PNPM 1999), so an implicit representation implements
//! [`GeneratorOp::relax_rows_into`] with the same row synthesis as its
//! apply.
//!
//! A representation may also partition its states into *aggregation
//! levels* for the engine's coarse aggregation/disaggregation step. Handed
//! a [`LevelFlows`], [`GeneratorOp::left_apply_rows_into`] also reports each
//! row's level and the flows between levels from the same scan, so a
//! residual check and the coarse step share one pass; a [`CsrGenerator`]
//! built with a level array reads them off its stored rows, and the
//! factored network generator off its row walk.

use crate::sparse::CsrMatrix;
use crate::{LinalgError, Result};

/// A CTMC generator `Q` seen through the operations the sparse stationary
/// engine needs, independent of how `Q` is represented.
///
/// All row indexing below refers to rows of the **transposed** generator
/// `Qᵀ`: row `i` of `Qᵀ` lists the inflow rates `Q[j, i]` plus the diagonal,
/// which is the access pattern of every left operation (`π ↦ πQ`).
///
/// Implementations must be [`Sync`]: the engine fans row blocks out across
/// the persistent worker pool, with disjoint output slices per chunk.
pub trait GeneratorOp: Sync {
    /// Number of states `n` (the operator is `n × n`).
    fn num_states(&self) -> usize;

    /// Computes `out[k] = (x Q)[start + k]` for `k < out.len()` — the
    /// row block `start .. start + out.len()` of `Qᵀ x`. When `flows` is
    /// given and the operator carries aggregation levels, the same scan
    /// also overwrites `flows` with each row's level and the level-to-level
    /// flows `x_i · Q[i, j]` of every transition `i → j` into those rows
    /// (see [`LevelFlows`]). Returns whether the operator carries levels;
    /// without them `flows` is left untouched.
    ///
    /// Each output element must depend only on `x` and its own row, so
    /// chunked evaluation is bitwise identical at any chunk assignment, and
    /// each block adds its flows in row order, so a fixed block partition
    /// gives the same sums at any worker count.
    fn left_apply_rows_into(
        &self,
        start: usize,
        x: &[f64],
        out: &mut [f64],
        flows: Option<&mut LevelFlows>,
    ) -> bool;

    /// Extracts the diagonal block `out[k] = Q[start + k, start + k]`
    /// (state `i`'s exit rate is `-Q[i, i]`).
    fn diagonal_rows_into(&self, start: usize, out: &mut [f64]);

    /// Number of structural nonzeros a left apply touches — the per-sweep
    /// work unit the engine's parallel cut-in keys on. For implicit
    /// representations this is the *operation count* of one apply (an upper
    /// bound on `nnz(Q)`), not stored entries.
    fn nnz(&self) -> usize;

    /// Approximate heap bytes held by this representation of the generator
    /// (the quantity the memory-aware representation routing compares
    /// against the flat-CSR footprint).
    fn memory_bytes(&self) -> usize;

    /// One block Gauss–Seidel relaxation of `πQ = 0` over the rows
    /// `start .. start + out.len()`: row `i` reads `out`'s new values for
    /// `start ≤ j < i` and `x_old[j]` otherwise, then writes
    /// `out[i - start] = Σ_{j≠i} Qᵀ[i, j]·x̃_j / exit[i]`.
    ///
    /// `exit` holds every state's exit rate `-Q[i, i]`, indexed like
    /// `x_old`. Each block reads only `x_old` and its own output, so
    /// chunked evaluation is bitwise identical at any chunk assignment.
    fn relax_rows_into(&self, start: usize, x_old: &[f64], exit: &[f64], out: &mut [f64]);
}

/// One row block's coarse scan: the level of each row, and the
/// level-to-level flows `F[L][L']` into those rows of a generator whose
/// states are partitioned into `count` levels, with no transition spanning
/// more than `half_band` levels — a banded `count × count` matrix stored
/// row by row, `2·half_band + 1` entries per row. The diagonal slot
/// `F[L][L]` is scratch: a scan may add the flows inside a level there (so
/// that it needs no per-entry test), and the coarse solve never reads it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelFlows {
    count: usize,
    half_band: usize,
    band: Vec<f64>,
    /// The level of each scanned row, in row order.
    pub levels: Vec<u32>,
}

impl LevelFlows {
    /// Resizes to `count` levels of half-bandwidth `half_band` for a scan
    /// of `rows` rows, and zeroes every flow and row level, reusing the
    /// allocations.
    pub fn reset(&mut self, count: usize, half_band: usize, rows: usize) {
        self.count = count;
        self.half_band = half_band;
        self.band.clear();
        self.band.resize(count * (2 * half_band + 1), 0.0);
        self.levels.clear();
        self.levels.resize(rows, 0);
    }

    /// Number of levels.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Largest level distance a stored flow may span.
    #[must_use]
    pub fn half_band(&self) -> usize {
        self.half_band
    }

    /// Position of `F[from][to]` in the band; `|from − to| ≤ half_band`.
    #[inline]
    fn slot(&self, from: usize, to: usize) -> usize {
        debug_assert!(from.abs_diff(to) <= self.half_band && from.max(to) < self.count);
        from * (2 * self.half_band + 1) + self.half_band + to - from
    }

    /// Adds `flow` to `F[from][to]`.
    #[inline]
    pub fn add(&mut self, from: usize, to: usize, flow: f64) {
        let k = self.slot(from, to);
        self.band[k] += flow;
    }

    /// `F[from][to]`, zero outside the band.
    #[must_use]
    pub fn get(&self, from: usize, to: usize) -> f64 {
        if from.abs_diff(to) > self.half_band || from.max(to) >= self.count {
            0.0
        } else {
            self.band[self.slot(from, to)]
        }
    }

    /// Sets `F[from][to]`; `|from − to| ≤ half_band`.
    pub fn set(&mut self, from: usize, to: usize, flow: f64) {
        let k = self.slot(from, to);
        self.band[k] = flow;
    }

    /// Adds `other`'s flows entry by entry (not its row levels); both must
    /// have the same shape.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &LevelFlows) {
        assert!(
            self.count == other.count && self.half_band == other.half_band,
            "LevelFlows: shape mismatch"
        );
        for (a, b) in self.band.iter_mut().zip(&other.band) {
            *a += b;
        }
    }
}

/// The materialized generator: `Qᵀ` stored as a [`CsrMatrix`] (row `i`
/// lists the inflow rates `Q[j, i]` plus the diagonal, columns ascending),
/// optionally with one aggregation level per state.
///
/// Construction records each row's diagonal position, so a Gauss–Seidel
/// relaxation walks every row as three contiguous column ranges with no
/// per-entry test: columns below the row block read the previous sweep,
/// columns inside the block before the row read this sweep's values, and
/// columns after the diagonal read the previous sweep. The summation order
/// is ascending column order either way.
#[derive(Debug, Clone)]
pub struct CsrGenerator<'a> {
    qt: &'a CsrMatrix,
    /// Per row, the position of its first stored entry with column at or
    /// past the row: the diagonal when one is stored.
    diag: Vec<usize>,
    levels: Option<&'a [u32]>,
    /// Per stored entry `Qᵀ[j, i]`, the band slot of its flow
    /// `F[level i][level j]` (empty without levels).
    slots: Vec<u32>,
    count: usize,
    half_band: usize,
}

impl<'a> CsrGenerator<'a> {
    /// Wraps the transposed generator `qt`, with one level per state when
    /// `levels` is given; the level count and the widest level distance any
    /// transition spans are read off the stored entries in the same pass
    /// that records the diagonal positions.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] when `levels` does not hold
    /// one entry per state, or their band has more slots than `u32` counts.
    pub fn new(qt: &'a CsrMatrix, levels: Option<&'a [u32]>) -> Result<Self> {
        let n = qt.nrows();
        if levels.is_some_and(|levels| levels.len() != n) {
            return Err(LinalgError::InvalidArgument(
                "CsrGenerator: one level per state is required",
            ));
        }
        let rp = qt.row_ptr();
        let ci = qt.col_indices();
        let mut half_band = 0usize;
        let diag = (0..n)
            .map(|i| {
                let row = &ci[rp[i]..rp[i + 1]];
                if let Some(levels) = levels {
                    for &j in row {
                        half_band = half_band.max(levels[j].abs_diff(levels[i]) as usize);
                    }
                }
                rp[i] + row.partition_point(|&j| j < i)
            })
            .collect();
        let count = levels
            .and_then(|l| l.iter().max())
            .map_or(0, |&l| l as usize + 1);
        // Each stored entry's band slot, so that a scan with flows looks up
        // no level.
        let shape = LevelFlows { count, half_band, ..LevelFlows::default() };
        let slots = match levels {
            Some(levels) => (0..n)
                .flat_map(|j| ci[rp[j]..rp[j + 1]].iter().map(move |&i| (i, j)))
                .map(|(i, j)| u32::try_from(shape.slot(levels[i] as usize, levels[j] as usize)))
                .collect::<std::result::Result<_, _>>()
                .map_err(|_| LinalgError::InvalidArgument("CsrGenerator: level band too wide"))?,
            None => Vec::new(),
        };
        Ok(Self {
            qt,
            diag,
            levels,
            slots,
            count,
            half_band,
        })
    }

    /// Position of row `i`'s first stored entry past its diagonal.
    #[inline]
    fn upper_start(&self, i: usize) -> usize {
        let d = self.diag[i];
        let stored = d < self.qt.row_ptr()[i + 1] && self.qt.col_indices()[d] == i;
        d + usize::from(stored)
    }
}

impl GeneratorOp for CsrGenerator<'_> {
    fn num_states(&self) -> usize {
        self.qt.nrows()
    }

    fn left_apply_rows_into(
        &self,
        start: usize,
        x: &[f64],
        out: &mut [f64],
        flows: Option<&mut LevelFlows>,
    ) -> bool {
        let Some((state_levels, flows)) = self.levels.zip(flows) else {
            self.qt.matvec_rows_into(start, x, out);
            return self.levels.is_some();
        };
        flows.reset(self.count, self.half_band, out.len());
        let rp = self.qt.row_ptr();
        let ci = self.qt.col_indices();
        let vals = self.qt.values();
        for (bi, y) in out.iter_mut().enumerate() {
            let j = start + bi;
            flows.levels[bi] = state_levels[j];
            let row = rp[j]..rp[j + 1];
            let entries = ci[row.clone()].iter().zip(&vals[row.clone()]).zip(&self.slots[row]);
            let mut s = 0.0;
            for ((&i, &v), &slot) in entries {
                let flow = v * x[i];
                s += flow;
                flows.band[slot as usize] += flow;
            }
            *y = s;
        }
        true
    }

    fn diagonal_rows_into(&self, start: usize, out: &mut [f64]) {
        for (k, d) in out.iter_mut().enumerate() {
            let i = start + k;
            let pos = self.diag[i];
            *d = if self.upper_start(i) > pos {
                self.qt.values()[pos]
            } else {
                0.0
            };
        }
    }

    fn nnz(&self) -> usize {
        self.qt.nnz()
    }

    fn memory_bytes(&self) -> usize {
        self.qt.memory_bytes()
            + std::mem::size_of_val(self.diag.as_slice())
            + std::mem::size_of_val(self.slots.as_slice())
            + self.levels.map_or(0, std::mem::size_of_val)
    }

    fn relax_rows_into(&self, start: usize, x_old: &[f64], exit: &[f64], out: &mut [f64]) {
        let rp = self.qt.row_ptr();
        let ci = self.qt.col_indices();
        let vals = self.qt.values();
        for bi in 0..out.len() {
            let i = start + bi;
            let (d, upper) = (self.diag[i], self.upper_start(i));
            let mut k = rp[i];
            let mut s = 0.0;
            while k < d && ci[k] < start {
                s += vals[k] * x_old[ci[k]];
                k += 1;
            }
            for (&j, &v) in ci[k..d].iter().zip(&vals[k..d]) {
                s += v * out[j - start];
            }
            let end = rp[i + 1];
            for (&j, &v) in ci[upper..end].iter().zip(&vals[upper..end]) {
                s += v * x_old[j];
            }
            out[bi] = s / exit[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0xd134_2543_de82_ef95).wrapping_add(7);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// Transposed generator `Qᵀ` of an `n`-state chain in which every state
    /// has three outgoing transitions with pseudo-random rates.
    fn ring_generator_transpose(n: usize, seed: u64) -> CsrMatrix {
        let w = probe_vector(3 * n, seed);
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, (i + 1) % n, 1.0 + w[i]));
            triplets.push((i, (i + 7) % n, 0.75 + w[n + i]));
            triplets.push((i, (i * 5 + 3) % n, 0.6 + w[2 * n + i]));
        }
        let offdiag: Vec<_> = triplets.iter().copied().filter(|&(i, j, _)| i != j).collect();
        let mut full = offdiag.clone();
        for i in 0..n {
            let out: f64 = offdiag.iter().filter(|t| t.0 == i).map(|t| t.2).sum();
            full.push((i, i, -out));
        }
        CsrMatrix::from_triplets(n, n, &full).unwrap().transpose()
    }

    /// The chunked parallel matvec (the exact kernel the sparse engine
    /// drives through `WorkPool::for_each_chunk`) is bitwise invariant in
    /// the worker count, because chunk boundaries derive from the chunk
    /// length alone and every output element is written once.
    #[test]
    fn chunked_parallel_matvec_is_bitwise_worker_invariant() {
        let n = 36;
        let qt = ring_generator_transpose(n, 11);
        let levels: Vec<u32> = (0..n as u32).map(|i| i / 6).collect();
        let x = probe_vector(n, 99);
        for op in [
            CsrGenerator::new(&qt, None).unwrap(),
            CsrGenerator::new(&qt, Some(&levels)).unwrap(),
        ] {
            let mut serial = vec![0.0; n];
            op.left_apply_rows_into(0, &x, &mut serial, None);

            for workers in [1usize, 2, 4, 7] {
                for chunk_len in [1usize, 5, 16] {
                    let mut out = vec![0.0; n];
                    mapqn_par::WorkPool::new(workers).for_each_chunk(
                        &mut out,
                        chunk_len,
                        |start, chunk| {
                            op.left_apply_rows_into(start, &x, chunk, None);
                        },
                    );
                    assert_eq!(
                        serial, out,
                        "workers={workers} chunk_len={chunk_len} must reproduce the serial bits"
                    );
                }
            }
        }
    }

    #[test]
    fn csr_generator_matches_its_matvec_and_diagonal() {
        // The stored matrix is Qᵀ; state 2 has no stored diagonal entry (it
        // has no outflow), which the diagonal reads as zero.
        let q = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, -2.0),
                (0, 1, 2.0),
                (1, 0, 1.0),
                (1, 1, -1.5),
                (1, 2, 0.5),
            ],
        )
        .unwrap();
        let qt = q.transpose();
        let op = CsrGenerator::new(&qt, None).unwrap();
        assert_eq!(op.num_states(), 3);

        let x = [0.2, 0.3, 0.5];
        let mut via_op = vec![0.0; 3];
        assert!(!op.left_apply_rows_into(0, &x, &mut via_op, None));
        let mut direct = vec![0.0; 3];
        qt.matvec_rows_into(0, &x, &mut direct);
        assert_eq!(via_op, direct);

        let mut diag = vec![9.0; 3];
        op.diagonal_rows_into(0, &mut diag);
        assert_eq!(diag, vec![-2.0, -1.5, 0.0]);

        assert_eq!(op.nnz(), qt.nnz());
        assert!(op.memory_bytes() > qt.memory_bytes());
    }

    // Interpreted sizes for Miri: the same block cuts, fewer rows.
    #[cfg(miri)]
    const KERNEL_CHAIN: usize = 23;
    #[cfg(not(miri))]
    const KERNEL_CHAIN: usize = 211;

    /// The branchy block Gauss–Seidel loop the materialized operator ran
    /// before it recorded diagonal positions — a test per entry for the
    /// diagonal and for the block — kept here as the bitwise reference.
    fn branchy_relax(qt: &CsrMatrix, start: usize, x_old: &[f64], exit: &[f64], chunk: &mut [f64]) {
        let rp = qt.row_ptr();
        let ci = qt.col_indices();
        let vals = qt.values();
        for bi in 0..chunk.len() {
            let i = start + bi;
            let mut s = 0.0;
            for k in rp[i]..rp[i + 1] {
                let j = ci[k];
                if j == i {
                    continue;
                }
                let xj = if j >= start && j < i {
                    chunk[j - start]
                } else {
                    x_old[j]
                };
                s += vals[k] * xj;
            }
            chunk[bi] = s / exit[i];
        }
    }

    #[test]
    fn relaxation_is_bitwise_the_branchy_reference() {
        // A random sparse `Qᵀ` whose rows reach columns anywhere in the
        // chain, so rows straddle every block boundary below; row 3 has no
        // stored diagonal entry. The relaxation divides by the `exit` it is
        // handed, never by the stored diagonal.
        let n = KERNEL_CHAIN;
        let w = probe_vector(8 * n, 41);
        let mut triplets = Vec::new();
        for i in 0..n {
            for r in 0..6 {
                let j = ((w[6 * i + r] + 0.5) * n as f64) as usize % n;
                if j != i {
                    triplets.push((i, j, 0.75 + w[(6 * i + r + 5) % (8 * n)]));
                }
            }
            if i != 3 {
                triplets.push((i, i, -3.0));
            }
        }
        let qt = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        assert_eq!(qt.get(3, 3), 0.0);
        let exit: Vec<f64> = probe_vector(n, 5).iter().map(|v| v + 2.0).collect();
        let x_old: Vec<f64> = probe_vector(n, 17).iter().map(|v| v + 0.75).collect();
        let op = CsrGenerator::new(&qt, None).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // 5 and 11 do not divide n: the last block is short.
        for block_len in [1usize, 5, 11, n] {
            let mut reference = vec![0.0; n];
            let mut got = vec![0.0; n];
            for (b, (r, g)) in reference
                .chunks_mut(block_len)
                .zip(got.chunks_mut(block_len))
                .enumerate()
            {
                branchy_relax(&qt, b * block_len, &x_old, &exit, r);
                op.relax_rows_into(b * block_len, &x_old, &exit, g);
            }
            assert_eq!(bits(&reference), bits(&got), "block_len {block_len}");
        }
    }

    #[test]
    fn leveled_generator_scans_level_flows_and_keeps_the_rest() {
        // A 6-state chain with three levels of two states each.
        let n = 6;
        let w = probe_vector(2 * n, 3);
        let mut full = Vec::new();
        for i in 0..n {
            let out = [(i + 1) % n, (i + 2) % n];
            for (k, &j) in out.iter().enumerate() {
                full.push((i, j, 1.0 + w[2 * i + k]));
            }
            full.push((i, i, -(2.0 + w[2 * i] + w[2 * i + 1])));
        }
        let qt = CsrMatrix::from_triplets(n, n, &full).unwrap().transpose();
        let levels = [0u32, 0, 1, 1, 2, 2];
        let op = CsrGenerator::new(&qt, Some(&levels)).unwrap();
        let plain = CsrGenerator::new(&qt, None).unwrap();

        // The scan with flows writes the plain matvec's bits and, in row
        // order, the flows a per-entry walk of the stored rows adds.
        let x: Vec<f64> = probe_vector(n, 8).iter().map(|v| v + 1.0).collect();
        let mut fused = vec![0.0; 4];
        let mut flows = LevelFlows::default();
        assert!(op.left_apply_rows_into(2, &x, &mut fused, Some(&mut flows)));
        let mut product = vec![0.0; 4];
        assert!(!plain.left_apply_rows_into(2, &x, &mut product, None));
        assert_eq!(fused, product);
        assert_eq!(flows.levels, [1, 1, 2, 2]);
        // Level 2 → 0 wraps around the ring: the band spans every level.
        assert_eq!((flows.count(), flows.half_band()), (3, 2));
        let mut expected = LevelFlows::default();
        expected.reset(3, 2, 0);
        for j in 2..6 {
            for (i, q) in qt.row_iter(j) {
                let (from, to) = (levels[i] as usize, levels[j] as usize);
                if from != to {
                    expected.add(from, to, q * x[i]);
                }
            }
        }
        for from in 0..3 {
            for to in (0..3).filter(|&to| to != from) {
                assert_eq!(
                    flows.get(from, to).to_bits(),
                    expected.get(from, to).to_bits(),
                    "{from} -> {to}"
                );
            }
        }

        // Every other operation is the level-less operator's, bit for bit.
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        assert!(op.left_apply_rows_into(0, &x, &mut a, None));
        plain.left_apply_rows_into(0, &x, &mut b, None);
        assert_eq!(a, b);
        let mut exit = vec![0.0; n];
        plain.diagonal_rows_into(0, &mut exit);
        exit.iter_mut().for_each(|e| *e = -*e);
        op.relax_rows_into(0, &x, &exit, &mut a);
        plain.relax_rows_into(0, &x, &exit, &mut b);
        assert_eq!(a, b);
        assert_eq!(op.nnz(), plain.nnz());

        // Without levels the operator says so and leaves the flows alone.
        let mut untouched = LevelFlows::default();
        assert!(!plain.left_apply_rows_into(0, &x, &mut b, Some(&mut untouched)));
        assert_eq!(untouched, LevelFlows::default());
    }

    #[test]
    fn level_flows_band_storage() {
        let mut f = LevelFlows::default();
        f.reset(5, 1, 3);
        f.levels[2] = 4;
        assert_eq!(f.levels, [0, 0, 4]);
        f.add(0, 1, 2.0);
        f.add(4, 3, 0.5);
        f.add(4, 3, 0.25);
        f.set(2, 2, 7.0);
        assert_eq!((f.get(0, 1), f.get(4, 3), f.get(2, 2)), (2.0, 0.75, 7.0));
        // Outside the band or the level range reads as zero.
        assert_eq!((f.get(0, 2), f.get(4, 5), f.get(5, 4)), (0.0, 0.0, 0.0));
        let mut g = f.clone();
        g.add_assign(&f);
        assert_eq!(g.get(4, 3), 1.5);
        f.reset(5, 1, 0);
        assert_eq!((f.get(0, 1), f.levels.len()), (0.0, 0));
    }

    #[test]
    fn invalid_constructions_are_rejected() {
        let qt = ring_generator_transpose(6, 2);
        let levels = [0u32, 0, 1, 1, 2, 2, 3];
        assert!(CsrGenerator::new(&qt, Some(&levels[..5])).is_err());
        assert!(CsrGenerator::new(&qt, Some(&levels)).is_err());
        assert!(CsrGenerator::new(&qt, Some(&levels[..6])).is_ok());
        // Neighbouring states two billion levels apart: the band has more
        // slots than `u32` counts.
        let wide = [0u32, 1 << 31, 0, 0, 0, 0];
        assert!(CsrGenerator::new(&qt, Some(&wide)).is_err());
    }
}

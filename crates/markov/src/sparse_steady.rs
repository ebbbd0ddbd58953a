//! Sparse stationary-distribution engine for large CTMCs.
//!
//! The dense GTH solver in [`crate::steady`] is the right tool up to a few
//! thousand states; beyond that its `O(n^2)` dense copy and `O(n^3)` work
//! are unaffordable, and the paper's exact ("global balance") validation
//! references stop exactly where they become interesting — the LP bounds
//! run to populations whose CTMCs have `10^5`–`10^6` states. This module
//! scales the exact path into that regime without ever densifying the
//! generator:
//!
//! * the engine sees the generator only through the
//!   [`mapqn_linalg::GeneratorOp`] operator trait — row-block left products
//!   (every left operation `π ↦ πQ` is a row scan of `Q^T`, which can also
//!   accumulate level flows), row-block Gauss–Seidel relaxations, diagonal
//!   extraction and nnz accounting. Two representations drive it:
//!   the **materialized** [`mapqn_linalg::CsrGenerator`] over a transposed
//!   CSR (the network chain's `Qᵀ`, which `mapqn-core` assembles directly
//!   and hands to [`stationary_sparse_op`]; [`stationary_sparse`]
//!   transposes a [`Ctmc`]'s `Q` once on entry), whose relaxation walks
//!   each row as three contiguous column ranges split at the row block and
//!   the recorded diagonal, and the **implicit** factored network generator
//!   of `mapqn-core`, which synthesizes its rows from per-station blocks
//!   and never forms `Q` at all;
//! * iterations are **preconditioned**: the default is a block-hybrid
//!   Gauss–Seidel sweep (exact Gauss–Seidel inside fixed row blocks,
//!   Jacobi across blocks), with a Jacobi-preconditioned power iteration —
//!   power iteration under *adaptive uniformization*, where each state is
//!   uniformized at its own exit rate instead of the global maximum — and
//!   plain globally-uniformized power iteration as progressively more
//!   conservative fallbacks. Every rung runs on every representation: a
//!   Gauss–Seidel sweep is one
//!   [`mapqn_linalg::GeneratorOp::relax_rows_into`] call per row block,
//!   which an implicit operator answers by synthesizing its rows of `Q^T`
//!   in index order, exactly as its matvec does;
//! * on an operator whose states carry **aggregation levels** (a
//!   [`Ctmc::with_levels`] chain, or the factored network generator in
//!   `mapqn-core`), every unconverged residual check of the Gauss–Seidel
//!   rung runs one two-level aggregation/disaggregation step (Koury,
//!   McAllister & Stewart 1984): the check's residual scan also yields the
//!   iterate's level-to-level flows, a GTH elimination inside the band
//!   solves the coarse chain, and each level is rescaled to its coarse
//!   probability. Network levels are `n_b · P + c` (bottleneck queue
//!   length, joint phase code), so the coarse chain is banded with
//!   half-bandwidth below `2P` and costs `O(K · P²)` for `K` levels. This
//!   restores the probability the bursty MAP phases trap between nearly
//!   decoupled levels, which plain sweeps move only slowly — or, on the
//!   figure-5 SCV = 4 family, not at all;
//! * on every operator, leveled or not, the Gauss–Seidel rung also runs
//!   gated Aitken extrapolation: once three consecutive checks decay at a
//!   consistent ratio it jumps along the slow direction, keeps the jump
//!   only if the residual improves, and stops for the attempt after a
//!   jump that the next check doubles. Beside the coarse step it shortens
//!   the steady decay left inside the levels;
//! * convergence is decided by the **residual** `‖πQ‖_∞ <= tol * q_max`
//!   (with `q_max` the largest exit rate, so the tolerance is
//!   dimensionless), not by the change between iterates — a stalled
//!   iteration can have a tiny step and a large residual;
//! * sweeps, matvecs and residuals are parallelized over **row blocks**
//!   on a *persistent* `mapqn-par` pool: one `WorkPool::scoped` is hoisted
//!   around the whole solve, so the workers are spawned once and every
//!   sweep is a parked-worker wake/quiesce round (nanosecond-to-microsecond
//!   handshake) instead of a thread spawn — which is what lets chains far
//!   below the old 100k-state spawn-amortization gate profit from cores.
//!   Block boundaries derive from [`SparseSteadyOptions::block_len`], never
//!   from the worker count, and each output element is written exactly
//!   once, so results are bitwise identical at any worker count (the same
//!   determinism contract as the ensemble layer in `mapqn-core`).
//!
//! The materialized footprint is the transposed generator (plus `Q` itself
//! when a [`Ctmc`] is transposed on entry) and a handful of state-length
//! vectors — about 16 bytes per transition per copy plus 32 bytes per
//! state, which holds `10^7`-state chains in a few GB where the dense path
//! would need petabytes. An implicit operator drops the generator and keeps
//! only the state-length vectors.

use crate::ctmc::Ctmc;
use crate::{MarkovError, Result};
use mapqn_linalg::{CsrGenerator, DVector, GeneratorOp, LevelFlows};
use mapqn_par::{ScopedPool, WorkPool};

/// Whether `MAPQN_SPARSE_DEBUG` residual tracing is on — read once per
/// process. Prints every residual check (rung, sweep, residual, best) to
/// stderr; the data behind the divergence-predictor and extrapolation
/// tuning in this module.
fn sparse_debug() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("MAPQN_SPARSE_DEBUG").is_some())
}

/// Which preconditioner drives the sparse stationary iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparsePreconditioner {
    /// Block-hybrid Gauss–Seidel: exact Gauss–Seidel ordering inside each
    /// fixed row block, Jacobi (previous-sweep values) across blocks. The
    /// fastest option on the network CTMCs; with one block it is exact
    /// Gauss–Seidel. On an operator with aggregation levels every
    /// unconverged residual check adds the coarse aggregation/disaggregation
    /// step (see the module docs).
    GaussSeidel,
    /// Jacobi-preconditioned power iteration with adaptive uniformization:
    /// power iteration on `P = I + D^{-1} Q` where `D` holds each state's
    /// own exit rate (times a damping margin) instead of the global maximum.
    /// States with small exit rates take correspondingly larger steps, which
    /// is what plain uniformization loses on chains with heterogeneous rates
    /// (a delay station at full occupancy dominates `q_max` while most
    /// states sit far below it). Fully parallel.
    Jacobi,
    /// Power iteration on the globally uniformized chain `P = I + Q/q` —
    /// the most conservative option (it never divides by a per-state rate),
    /// used as the last fallback and for reducible chains.
    Power,
}

/// Options for [`stationary_sparse`].
#[derive(Debug, Clone, Copy)]
pub struct SparseSteadyOptions {
    /// Dimensionless residual tolerance: the iteration stops when
    /// `‖πQ‖_∞ <= tolerance * q_max`.
    pub tolerance: f64,
    /// Maximum number of sweeps per preconditioner attempt.
    pub max_sweeps: usize,
    /// How many sweeps between residual evaluations. A check scans the
    /// generator once for the residual and, on the Gauss–Seidel rung of a
    /// leveled operator, the coarse step's flows (about 1.4 sweeps' cost on
    /// TPC-W N = 60), then solves and rescales the coarse chain.
    pub check_every: usize,
    /// Row-block length for the parallel sweeps. Fixed independently of the
    /// worker count so results are worker-count invariant.
    pub block_len: usize,
    /// Worker threads (0 = one per available core, or the
    /// `MAPQN_POOL_THREADS` override).
    pub workers: usize,
    /// Minimum **per-sweep work** — measured in generator nonzeros, the
    /// unit every sweep/matvec round scans once — before worker threads
    /// engage; below it every operation runs serially on the caller's
    /// thread. The engine holds one persistent pool for the whole solve,
    /// so the per-round cost is a parked-worker wake/quiesce handshake
    /// (~1–2 µs worst case, sub-microsecond when rounds are back-to-back),
    /// not a thread spawn: the default keeps that handshake a small
    /// fraction of the round (at ~6–7 generator entries per row it puts
    /// the parallel cut-in near 1–2k states — the figure-5 and TPC-W
    /// validation sizes). Set to 0 to force the threaded path regardless
    /// of size (the determinism gates do this).
    pub parallel_threshold: usize,
    /// First preconditioner to try; on divergence or stall the engine falls
    /// back along [`SparsePreconditioner::GaussSeidel`] →
    /// [`SparsePreconditioner::Jacobi`] → [`SparsePreconditioner::Power`].
    pub preconditioner: SparsePreconditioner,
    /// Cooperative solve budget checked once per sweep (the work unit is
    /// one state relaxation, so a sweep charges `n` units). The default
    /// ([`mapqn_linalg::EngineBudget::none`]) imposes nothing.
    pub budget: mapqn_linalg::EngineBudget,
}

impl Default for SparseSteadyOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-14,
            max_sweeps: 200_000,
            check_every: 16,
            block_len: 4096,
            workers: 0,
            parallel_threshold: 8_192,
            preconditioner: SparsePreconditioner::GaussSeidel,
            budget: mapqn_linalg::EngineBudget::none(),
        }
    }
}

/// Result of a sparse stationary solve: the distribution plus convergence
/// diagnostics (the rung and sweep count are what the release gates check).
#[derive(Debug, Clone)]
pub struct SparseSteadyReport {
    /// The stationary distribution.
    pub pi: DVector,
    /// Total sweeps performed (across fallback attempts).
    pub sweeps: usize,
    /// Final residual `‖πQ‖_∞`.
    pub residual: f64,
    /// The preconditioner that produced the returned vector.
    pub used: SparsePreconditioner,
}

/// The worker count a solve should use, from the requested width and the
/// per-round work: rounds below the work threshold stay serial (the
/// handshake would be a measurable fraction of the round), everything else
/// fans out to `workers` (0 = [`mapqn_par::default_threads`]).
fn effective_workers(per_round_work: usize, threshold: usize, workers: usize) -> usize {
    if per_round_work < threshold {
        1
    } else if workers == 0 {
        mapqn_par::default_threads()
    } else {
        workers
    }
}

/// Shared per-solve context: the generator operator, the per-state exit
/// rates and the persistent pool every parallel round runs on.
struct Kernel<'a, O: GeneratorOp + ?Sized> {
    /// The generator, seen through the operator trait. For the materialized
    /// representation this is the transposed CSR (row `i` lists the inflow
    /// rates `Q[j, i]` plus the diagonal — the access pattern of every left
    /// operation); implicit representations gather the same rows on the fly.
    op: &'a O,
    /// Exit rate of each state, `-Q[i, i]`.
    exit: Vec<f64>,
    /// Largest exit rate (the residual/tolerance scale).
    q_max: f64,
    /// The solve's pool; every round cuts its data at the same `block_len`
    /// boundaries, so every worker count is bitwise identical.
    pool: &'a ScopedPool<'a>,
    block_len: usize,
}

impl<O: GeneratorOp + ?Sized> Kernel<'_, O> {
    /// `out = x^T Q` computed as row scans of `Q^T`, parallel over row
    /// blocks of the operator. Every output element is written by exactly
    /// one block, so the result is bitwise independent of the worker count —
    /// for materialized *and* implicit representations alike, because each
    /// output entry of a [`GeneratorOp::left_apply_rows_into`] block depends
    /// only on `x` and its own row.
    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.pool.for_each_chunk(out, self.block_len, |start, chunk| {
            self.op.left_apply_rows_into(start, x, chunk, None);
        });
    }

    /// Residual `‖xQ‖_∞` of a candidate vector, using `scratch` as the
    /// product buffer; with `coarse` the scan also records `x`'s flows.
    fn residual(&self, x: &[f64], scratch: &mut [f64], coarse: Option<&mut Coarse>) -> f64 {
        match coarse {
            Some(coarse) => coarse.scan(self, x, scratch),
            None => self.apply(x, scratch),
        }
        scratch.iter().fold(0.0_f64, |m, r| m.max(r.abs()))
    }

    /// One block-hybrid Gauss–Seidel sweep on `πQ = 0`: inside a block,
    /// row `i` uses the already-updated values of rows `start..i`; across
    /// blocks it uses the previous sweep (see
    /// [`GeneratorOp::relax_rows_into`]). All coefficients are non-negative
    /// (inflow rates over the exit rate), so a positive iterate stays
    /// positive.
    fn gauss_seidel_sweep(&self, x_old: &[f64], x_new: &mut [f64]) {
        let exit = &self.exit;
        self.pool.for_each_chunk(x_new, self.block_len, |start, chunk| {
            self.op.relax_rows_into(start, x_old, exit, chunk);
        });
    }

    /// One Jacobi-preconditioned power step in `w`-space: `w ← w P` with
    /// `P = I + D^{-1} Q`, `D = diag(exit * (1 + margin))`. The stationary
    /// vector of `P` is `w = π D` (up to scale), so candidates are read back
    /// through [`Kernel::jacobi_candidate`]. `z` is scratch for `w D^{-1}`.
    fn jacobi_power_step(&self, margin: f64, w_old: &[f64], z: &mut [f64], w_new: &mut [f64]) {
        let exit = &self.exit;
        self.pool.for_each_chunk(z, self.block_len, |start, chunk| {
            for (bi, zi) in chunk.iter_mut().enumerate() {
                let i = start + bi;
                *zi = w_old[i] / (exit[i] * (1.0 + margin));
            }
        });
        self.apply(z, w_new);
        self.pool.for_each_chunk(w_new, self.block_len, |start, chunk| {
            for (bi, wi) in chunk.iter_mut().enumerate() {
                *wi += w_old[start + bi];
            }
        });
    }

    /// Converts a `w`-space iterate back to a probability candidate
    /// `π ∝ w D^{-1}` (the margin cancels in the normalization).
    fn jacobi_candidate(&self, w: &[f64], pi: &mut [f64]) {
        let exit = &self.exit;
        self.pool.for_each_chunk(pi, self.block_len, |start, chunk| {
            for (bi, p) in chunk.iter_mut().enumerate() {
                let i = start + bi;
                *p = w[i] / exit[i];
            }
        });
        normalize(pi);
    }

    /// One globally uniformized power step `x ← x (I + Q/q)`.
    fn uniformized_power_step(&self, q: f64, x_old: &[f64], x_new: &mut [f64]) {
        self.apply(x_old, x_new);
        self.pool.for_each_chunk(x_new, self.block_len, |start, chunk| {
            for (bi, xi) in chunk.iter_mut().enumerate() {
                *xi = x_old[start + bi] + *xi / q;
            }
        });
    }
}

/// Most row blocks a coarse scan is cut into: each block keeps its own
/// level-flow band until the blocks are summed in order, so the cap bounds
/// that scratch on very large chains.
const MAX_COARSE_BLOCKS: usize = 64;

/// Checks in a row without a new best residual, once the best has dropped
/// below the first check's residual, after which an attempt stops
/// aggregating (the coarse correction has stopped paying for itself).
const COARSE_STALL_CHECKS: usize = 8;

/// The same stop while the residual has never dropped below the first
/// check's: the longest start-up hump on the network corpus ran 10 checks,
/// while a partition that does not separate the weakly coupled states can
/// lock the coarse step and the smoother into a cycle that never improves
/// on the first check at all.
const COARSE_CYCLE_CHECKS: usize = 4 * COARSE_STALL_CHECKS;

/// The two-level aggregation/disaggregation step of the Gauss–Seidel rung
/// (Koury, McAllister & Stewart 1984): aggregate the iterate over the
/// operator's levels into a banded coarse generator, solve it exactly, and
/// rescale every level to the coarse solution. Gauss–Seidel smooths the
/// error inside levels fast; what it cannot move is probability *between*
/// nearly decoupled levels — the bursty MAP phases of a network chain — and
/// that is exactly what one coarse solve restores.
struct Coarse {
    /// Rows per coarse block, fixed by the chain size and the sweep block
    /// length — never by the worker count.
    block_len: usize,
    /// Each block's row levels and level flows from the last scan.
    blocks: Vec<LevelFlows>,
    /// Per-level rescaling factors `ξ_L / π(L)` of the last step.
    factors: Vec<f64>,
}

impl Coarse {
    /// The coarse step for the kernel's operator, or `None` when the
    /// operator has no levels.
    fn new<O: GeneratorOp + ?Sized>(kernel: &Kernel<'_, O>) -> Option<Self> {
        let (n, mut probe) = (kernel.exit.len(), LevelFlows::default());
        // An empty row block only asks the operator whether it has levels.
        if !kernel.op.left_apply_rows_into(0, &kernel.exit, &mut [], Some(&mut probe)) {
            return None;
        }
        let block_len = kernel.block_len.max(n.div_ceil(MAX_COARSE_BLOCKS));
        Some(Self {
            block_len,
            blocks: vec![LevelFlows::default(); n.div_ceil(block_len)],
            factors: Vec::new(),
        })
    }

    /// Writes `xq = xQ`, cut at the coarse blocks, and records each
    /// block's level flows of `x`.
    fn scan<O: GeneratorOp + ?Sized>(&mut self, kernel: &Kernel<'_, O>, x: &[f64], xq: &mut [f64]) {
        let block_len = self.block_len;
        let mut jobs: Vec<_> = xq.chunks_mut(block_len).zip(&mut self.blocks).collect();
        kernel.pool.for_each_chunk(&mut jobs, 1, |b, job| {
            let (out, flows) = &mut job[0];
            kernel.op.left_apply_rows_into(b * block_len, x, out, Some(flows));
        });
    }

    /// Solves the coarse chain of the last scan's flows and rescales `x`
    /// (the scanned iterate) level by level, then renormalizes it. Leaves
    /// `x` as it is when the coarse chain has no usable solution (a live
    /// level that cannot reach the rest).
    fn step(&mut self, pool: &ScopedPool<'_>, x: &mut [f64]) {
        // Summed serially in block order: the same bits at any worker count.
        let Some((total, rest)) = self.blocks.split_first_mut() else {
            return;
        };
        for block in rest.iter() {
            total.add_assign(block);
        }
        if !banded_gth(total, &mut self.factors) {
            return;
        }
        let block_len = self.block_len;
        let blocks = &self.blocks;
        let factors = &self.factors;
        pool.for_each_chunk(x, block_len, |start, chunk| {
            for (v, &level) in chunk.iter_mut().zip(&blocks[start / block_len].levels) {
                *v *= factors[level as usize];
            }
        });
        normalize(x);
    }
}

/// Solves the coarse chain whose off-diagonal rates are the level flows
/// `F[L][L'] = Σ x_i Q[i, j]` by GTH elimination inside the band, writing
/// `z` with `z F̃ = 0` (`F̃` = `F` with the diagonal set to minus the row
/// sums). Since `F = diag(x(L)) · C` for the coarse generator `C`, `z_L` is
/// `ξ_L / x(L)` up to one constant: the factor that rescales level `L`.
/// Elimination only ever fills inside the band, so the cost is
/// `O(K · half_band²)`.
///
/// A level with no flow out holds no probability (or only underflow): it is
/// *dead*, its factor is 0 and every flow into it is dropped; the lowest
/// live level anchors the elimination. Returns `false` when a live level
/// cannot reach a lower one (the live coarse chain is reducible) or a flow
/// is not finite. `flows` is overwritten.
fn banded_gth(flows: &mut LevelFlows, z: &mut Vec<f64>) -> bool {
    let k_count = flows.count();
    let w = flows.half_band();
    z.clear();
    z.resize(k_count, 0.0);
    let band = |l: usize| l.saturating_sub(w)..(l + w + 1).min(k_count);
    let mut live = vec![false; k_count];
    for (l, alive) in live.iter_mut().enumerate() {
        let out: f64 = band(l).filter(|&j| j != l).map(|j| flows.get(l, j)).sum();
        if !out.is_finite() {
            return false;
        }
        *alive = out > 0.0;
    }
    let Some(anchor) = live.iter().position(|&alive| alive) else {
        return false;
    };
    for (l, _) in live.iter().enumerate().filter(|(_, &alive)| !alive) {
        for i in band(l) {
            flows.set(i, l, 0.0);
        }
    }
    // Elimination from the top level down to the anchor: `pivots[k]` is the
    // censored outflow of level k towards the levels below it.
    let mut pivots = vec![0.0_f64; k_count];
    for k in (anchor + 1..k_count).rev() {
        if !live[k] {
            continue;
        }
        let lower = k.saturating_sub(w)..k;
        let s: f64 = lower.clone().map(|j| flows.get(k, j)).sum();
        if s <= 0.0 {
            return false;
        }
        pivots[k] = s;
        for j in lower.clone() {
            let v = flows.get(k, j) / s;
            flows.set(k, j, v);
        }
        for i in lower.clone() {
            let fik = flows.get(i, k);
            if fik == 0.0 {
                continue;
            }
            for j in lower.clone().filter(|&j| j != i) {
                let v = flows.get(i, j) + fik * flows.get(k, j);
                flows.set(i, j, v);
            }
        }
    }
    z[anchor] = 1.0;
    for k in anchor + 1..k_count {
        if live[k] {
            let s: f64 = (k.saturating_sub(w).max(anchor)..k)
                .map(|i| z[i] * flows.get(i, k))
                .sum();
            z[k] = s / pivots[k];
        }
    }
    z.iter().all(|v| v.is_finite())
}

/// Normalizes a non-negative vector to unit sum in place (serial: the sum
/// must be accumulated in a fixed order for bitwise reproducibility).
fn normalize(x: &mut [f64]) {
    let s: f64 = x.iter().sum();
    if s > 0.0 && s.is_finite() {
        let inv = 1.0 / s;
        for xi in x.iter_mut() {
            *xi *= inv;
        }
    }
}

/// Computes the stationary distribution of a large sparse CTMC with
/// preconditioned, row-block-parallel iterations and a residual-based
/// stopping rule. See the module docs for the algorithm; in short the
/// requested preconditioner runs until `‖πQ‖_∞ <= tolerance * q_max`, and
/// on divergence or stall the engine falls back Gauss–Seidel → Jacobi →
/// uniformized power before giving up. When the chain carries aggregation
/// levels ([`Ctmc::levels`]) the Gauss–Seidel rung runs its coarse step
/// over them.
///
/// # Errors
/// Returns [`MarkovError::NoConvergence`] when no preconditioner reaches the
/// tolerance within its sweep budget.
pub fn stationary_sparse(ctmc: &Ctmc, options: &SparseSteadyOptions) -> Result<SparseSteadyReport> {
    // Materialize the transpose once: every left operation is a row scan of
    // `Q^T`.
    let qt = ctmc.generator().transpose();
    stationary_sparse_op(&CsrGenerator::new(&qt, ctmc.levels())?, options)
}

/// Computes the stationary distribution of a CTMC presented as a
/// [`GeneratorOp`] — the representation-agnostic entry behind
/// [`stationary_sparse`]. Every representation runs the same fallback
/// ladder: a materialized operator (a [`CsrGenerator`] over the transposed
/// CSR) is bit-for-bit identical to [`stationary_sparse`] on the same
/// chain, and an implicit operator (the factored network generator in
/// `mapqn-core`) relaxes and applies its synthesized rows on the same rungs.
///
/// # Errors
/// Returns [`MarkovError::NoConvergence`] when no preconditioner reaches the
/// tolerance within its sweep budget.
pub fn stationary_sparse_op<O: GeneratorOp + ?Sized>(
    op: &O,
    options: &SparseSteadyOptions,
) -> Result<SparseSteadyReport> {
    let n = op.num_states();
    if n == 1 {
        return Ok(SparseSteadyReport {
            pi: DVector::from_vec(vec![1.0]),
            sweeps: 0,
            residual: 0.0,
            used: options.preconditioner,
        });
    }
    // Per-state exit rates from the operator's diagonal (serial: this is a
    // one-time O(n) extraction, not a per-sweep round).
    let mut exit = vec![0.0_f64; n];
    op.diagonal_rows_into(0, &mut exit);
    for e in exit.iter_mut() {
        *e = -*e;
    }
    let q_max = exit.iter().fold(0.0_f64, |m, &e| m.max(e));
    if q_max == 0.0 {
        // All-zero generator: every distribution is stationary; return the
        // uniform one (matching the dense path's behaviour on such chains).
        return Ok(SparseSteadyReport {
            pi: DVector::constant(n, 1.0 / n as f64),
            sweeps: 0,
            residual: 0.0,
            used: options.preconditioner,
        });
    }
    // Per-round work of this chain is one scan of the generator (every
    // sweep, matvec and residual touches each nonzero once); the worker
    // decision therefore keys on the nonzero count — for implicit operators
    // the equivalent apply operation count — not the state count.
    // Clamped to the number of row blocks a round actually has — a worker
    // beyond that could never claim a chunk, yet every round's quiesce
    // would still wait for it to wake and decrement.
    let row_blocks = n.div_ceil(options.block_len.max(1));
    let workers = effective_workers(op.nnz(), options.parallel_threshold, options.workers)
        .min(row_blocks.max(1));
    // One pool spans the whole solve, so every one of the (often thousands
    // of) sweep rounds reuses the same parked workers instead of spawning
    // fresh threads.
    WorkPool::new(workers).scoped(|pool| {
        let block_len = options.block_len.max(1);
        solve_on(
            Kernel {
                op,
                exit,
                q_max,
                pool,
                block_len,
            },
            options,
        )
    })
}

/// The solve body, generic over the operator: the
/// fallback ladder of preconditioned sweep loops described in the module
/// docs.
fn solve_on<O: GeneratorOp + ?Sized>(
    kernel: Kernel<'_, O>,
    options: &SparseSteadyOptions,
) -> Result<SparseSteadyReport> {
    let n = kernel.exit.len();
    let target = options.tolerance * kernel.q_max;
    let check_every = options.check_every.max(1);
    // Gauss–Seidel and Jacobi divide by per-state exit rates; a state with
    // no outflow (reducible chain) restricts the menu to the power path.
    let rates_ok = kernel.exit.iter().all(|&e| e > 0.0);

    // Fallback ladder: the requested preconditioner first, then Jacobi and
    // finally globally uniformized power.
    use SparsePreconditioner::{GaussSeidel, Jacobi, Power};
    let attempts: &[SparsePreconditioner] = match options.preconditioner {
        GaussSeidel => &[GaussSeidel, Jacobi, Power],
        Jacobi => &[Jacobi, Power],
        Power => &[Power],
    };

    let mut coarse = Coarse::new(&kernel);
    let mut total_sweeps = 0usize;
    let mut last_residual = f64::INFINITY;
    // Budget work counter: one unit per state relaxation, i.e. `n` per sweep.
    let mut sweep_work = 0u64;
    for (attempt_idx, &engine) in attempts.iter().enumerate() {
        if engine != SparsePreconditioner::Power && !rates_ok {
            continue;
        }
        // A non-final rung that neither converges nor trips the divergence
        // bail (a creeping, not-quite-diverging iteration) must not starve
        // the more robust rungs below it: it gets a quarter of the sweep
        // budget, while the last rung may use all of it.
        let attempt_budget = if attempt_idx + 1 == attempts.len() {
            options.max_sweeps
        } else {
            (options.max_sweeps / 4).max(1)
        };
        let mut x = vec![1.0 / n as f64; n];
        let mut x_next = vec![0.0_f64; n];
        let mut scratch = vec![0.0_f64; n];
        let mut candidate = vec![0.0_f64; n];
        let mut x_prev = vec![0.0_f64; n];
        // Damping margin for the adaptive-uniformization (Jacobi) path; it
        // doubles whenever the residual history oscillates, trading step
        // size for aperiodicity. The power path keeps a fixed 1% margin.
        let mut margin = 0.01_f64;
        let q_uniform = kernel.q_max * 1.01;
        let mut best_residual = f64::INFINITY;
        let mut prev_residual = f64::INFINITY;
        // The Gauss–Seidel rung has one acceleration policy: on an operator
        // with levels every unconverged check runs the coarse
        // aggregation/disaggregation step, and Aitken extrapolation runs
        // under its gates below on every operator. The coarse step moves
        // probability between levels; the error left inside them still
        // decays at a steady ratio per check (0.57 on figure 5), which is
        // Aitken's trigger. Measured on the network corpus: 17% fewer
        // sweeps, no case more than one check more. The Jacobi and power
        // rungs are the conservative fallbacks and stay pure.
        //
        // Aitken gating: the decay ratio is only trustworthy once several
        // consecutive checks have decreased with a *consistent* ratio. If
        // an adopted jump is followed by a residual regression (transient
        // growth off the extrapolated vector), Aitken is switched off for
        // the rest of the attempt rather than allowed to cycle.
        let gauss_seidel = engine == SparsePreconditioner::GaussSeidel;
        let mut aggregate = gauss_seidel && coarse.is_some();
        let mut rho_prev = f64::NAN;
        let mut decreasing_streak = 0usize;
        let mut aitken_enabled = gauss_seidel;
        let mut adopted_residual = f64::NAN;
        // Coarse stall stop: the first check's residual, and the checks
        // since the attempt's best residual last improved.
        let mut first_residual = f64::NAN;
        let mut checks_since_best = 0usize;
        // Divergence-predictor state: the length of the current run of
        // consecutive residual-*growth* checks and the residual at the
        // start of that run (see the bail commentary below).
        let mut growth_streak = 0usize;
        let mut streak_start = f64::NAN;

        for sweep in 1..=attempt_budget {
            match engine {
                SparsePreconditioner::GaussSeidel => {
                    kernel.gauss_seidel_sweep(&x, &mut x_next);
                }
                SparsePreconditioner::Jacobi => {
                    kernel.jacobi_power_step(margin, &x, &mut scratch, &mut x_next);
                }
                SparsePreconditioner::Power => {
                    kernel.uniformized_power_step(q_uniform, &x, &mut x_next);
                }
            }
            std::mem::swap(&mut x, &mut x_next);
            total_sweeps += 1;
            sweep_work = sweep_work.saturating_add(n as u64);
            options.budget.check(sweep_work).map_err(MarkovError::Budget)?;

            if sweep % check_every == 0 || sweep == attempt_budget {
                // A residual check is a coarse round boundary: force the
                // wall-clock check regardless of the work-counter cadence.
                options
                    .budget
                    .check_deadline()
                    .map_err(MarkovError::Budget)?;
                if mapqn_faults::fire(mapqn_faults::FaultSite::GsDivergence) {
                    break; // injected divergence: fall back to the next rung
                }
                // Sweeps are linear in the iterate, so its scale only needs
                // fixing where a check, Aitken or the coarse step reads it.
                normalize(&mut x);
                // The Jacobi rung iterates in `w = π D` space; the others'
                // iterate is the candidate, whose scan also yields the flows.
                let mut residual = if engine == SparsePreconditioner::Jacobi {
                    kernel.jacobi_candidate(&x, &mut candidate);
                    kernel.residual(&candidate, &mut scratch, None)
                } else {
                    kernel.residual(&x, &mut scratch, coarse.as_mut().filter(|_| aggregate))
                };
                last_residual = residual;
                if sparse_debug() {
                    eprintln!(
                        "[sparse] rung {attempt_idx} {engine:?} sweep {sweep}: residual {residual:.3e} best {best_residual:.3e}"
                    );
                }
                if !residual.is_finite() {
                    break; // numerical blow-up: fall back to the next engine
                }

                // Aitken / Lyusternik extrapolation: once the residual decays
                // geometrically (ratio rho per check), the error is dominated
                // by one slow eigendirection and `x + rho/(1-rho) (x - x_prev)`
                // jumps most of the remaining way. The generator is far from
                // normal, so an *instantaneous* ratio is not evidence — early
                // in the run the residual moves through a transient hump, and
                // a vector extrapolated off the hump's turning point has a
                // lower residual but huge components along transient-growth
                // directions that the next sweeps amplify. Extrapolate only
                // after three consecutive decreasing checks whose ratios
                // agree within 10% (asymptotic regime), and even then adopt
                // the result only if its measured residual improves.
                if adopted_residual.is_finite() {
                    // A benign wiggle after a jump is normal; a residual that
                    // doubles means the extrapolated vector excited transient
                    // growth — stop extrapolating for this attempt.
                    if residual > 2.0 * adopted_residual {
                        aitken_enabled = false;
                    }
                    adopted_residual = f64::NAN;
                }
                if residual < prev_residual {
                    let rho = residual / prev_residual;
                    decreasing_streak += 1;
                    let rho_stable = rho_prev.is_finite() && (rho / rho_prev - 1.0).abs() < 0.1;
                    if aitken_enabled
                        && residual > target
                        && decreasing_streak >= 3
                        && rho_stable
                        && rho > 0.2
                        && rho < 0.99995
                    {
                        let factor = (rho / (1.0 - rho)).min(2e4);
                        kernel
                            .pool
                            .for_each_chunk(&mut x_next, kernel.block_len, |start, chunk| {
                                for (bi, v) in chunk.iter_mut().enumerate() {
                                    let i = start + bi;
                                    *v = x[i] + factor * (x[i] - x_prev[i]);
                                }
                            });
                        normalize(&mut x_next);
                        // Most jumps are kept, so the try's scan records
                        // the flows the coarse step will need.
                        let flows = coarse.as_mut().filter(|_| aggregate);
                        let residual_try = kernel.residual(&x_next, &mut scratch, flows);
                        if residual_try.is_finite() && residual_try < residual {
                            std::mem::swap(&mut x, &mut x_next);
                            residual = residual_try;
                            last_residual = residual;
                            // The jump invalidates the ratio history; watch
                            // the next check for a post-adoption regression.
                            decreasing_streak = 0;
                            rho_prev = f64::NAN;
                            adopted_residual = residual;
                        } else {
                            // The rejected jump's scan replaced `x`'s flows.
                            if let (true, Some(coarse)) = (aggregate, coarse.as_mut()) {
                                coarse.scan(&kernel, &x, &mut scratch);
                            }
                            rho_prev = rho;
                        }
                    } else {
                        rho_prev = rho;
                    }
                } else {
                    decreasing_streak = 0;
                    rho_prev = f64::NAN;
                }

                if residual <= target {
                    let jacobi = engine == SparsePreconditioner::Jacobi;
                    let mut pi = DVector::from_vec(if jacobi { candidate } else { x });
                    // Over-relaxed sweeps can leave deep-tail entries a hair
                    // below zero; anything larger than round-off stays
                    // visible as a genuine sign error.
                    pi.clamp_small_negatives(1e-12);
                    let _ = pi.normalize_sum();
                    return Ok(SparseSteadyReport {
                        pi,
                        sweeps: total_sweeps,
                        residual,
                        used: engine,
                    });
                }
                // Divergence handling. Only a runaway residual aborts an
                // attempt early: these generators are far from normal, and
                // the residual legitimately rides through *hump* phases —
                // rising for thousands of sweeps while the distribution
                // reorganizes from the uniform start — that no windowed
                // stall heuristic reliably distinguishes from oscillation
                // (several attempts at one taught us that). Slow progress
                // and bounded oscillation are left to the sweep budget. The
                // factor sits an order of magnitude above the largest
                // benign hump observed on the validation models (~300x its
                // preceding best, TPC-W) while catching the genuinely
                // divergent sweeps (e.g. plain Gauss–Seidel on the
                // level-less SCV=4 case-study family) long before they
                // waste the budget.
                if residual > 1e3 * best_residual {
                    break;
                }
                // Divergence *predictor*: bail a rung before the 1e3x line
                // when the residual has grown for many consecutive checks
                // AND the cumulative growth of that one monotone run is far
                // beyond what any benign transient can produce. Calibration
                // (MAPQN_SPARSE_DEBUG traces on the validation models,
                // solved level-less — no coarse step): the largest
                // *monotone* growth run of any converging rung is 31 checks
                // x 13.3x total (the TPC-W hump — the documented
                // ~300x-above-best excursions accumulate through interrupted
                // runs, which reset the streak, never through one monotone
                // climb); genuinely divergent Gauss-Seidel on the level-less
                // figure-5 SCV=4 family (N >= ~80) rides a single
                // accelerating run through 1,700x-27,000x (with levels the
                // coarse step keeps that family converging). Requiring a
                // sustained run (>= 8 checks) at >= 32x its own start —
                // 2.4x above the benign ceiling — and >= 32x the attempt's
                // best is therefore already *on* the 1e3x-bail trajectory,
                // just earlier on it; this is a trajectory test, not the
                // windowed stall detector the module history warns about
                // (slow progress, plateaus and bounded oscillation all
                // reset or cap the streak and are still left to the sweep
                // budget).
                if residual > prev_residual {
                    if growth_streak == 0 {
                        streak_start = prev_residual;
                    }
                    growth_streak += 1;
                    if growth_streak >= 8
                        && residual >= 32.0 * streak_start
                        && residual >= 32.0 * best_residual
                    {
                        if sparse_debug() {
                            eprintln!(
                                "[sparse] rung {attempt_idx} {engine:?}: predicted divergence at sweep {sweep} (streak {growth_streak}, {:.0}x start, {:.0}x best)",
                                residual / streak_start,
                                residual / best_residual
                            );
                        }
                        break;
                    }
                } else {
                    growth_streak = 0;
                }
                if engine == SparsePreconditioner::Jacobi
                    && residual > 0.999 * best_residual
                    && margin < 1.0
                {
                    margin *= 2.0; // oscillation/stall: damp harder
                }
                if residual < best_residual {
                    checks_since_best = 0;
                } else {
                    checks_since_best += 1;
                }
                best_residual = best_residual.min(residual);
                prev_residual = residual;
                if first_residual.is_nan() {
                    first_residual = residual;
                }
                if aitken_enabled {
                    x_prev.copy_from_slice(&x);
                }
                // Stall stop: a best residual that no longer improves means
                // the coarse correction is fighting the smoother; plain
                // Gauss–Seidel finishes the attempt. Before the residual
                // first drops below the first check's, a longer window
                // leaves room for the start-up hump.
                let stall_window = if best_residual < first_residual {
                    COARSE_STALL_CHECKS
                } else {
                    COARSE_CYCLE_CHECKS
                };
                if aggregate && checks_since_best >= stall_window {
                    aggregate = false;
                    if sparse_debug() {
                        eprintln!("[sparse] rung {attempt_idx} {engine:?}: coarse step stalled at sweep {sweep}, stopped");
                    }
                }
                if let (true, Some(coarse)) = (aggregate, coarse.as_mut()) {
                    coarse.step(kernel.pool, &mut x);
                }
            }
        }
    }
    Err(MarkovError::NoConvergence {
        iterations: total_sweeps,
        residual: last_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steady::stationary_dense_gth;

    // Scaled-down problem sizes for Miri (interpreted execution): the same
    // engines and forced-parallel paths, far fewer states and sweeps.
    #[cfg(miri)]
    const CHAIN: usize = 40;
    #[cfg(not(miri))]
    const CHAIN: usize = 200;
    #[cfg(miri)]
    const WIDE_CHAIN: usize = 80;
    #[cfg(not(miri))]
    const WIDE_CHAIN: usize = 500;
    #[cfg(miri)]
    const NESTED_CHAIN: usize = 30;
    #[cfg(not(miri))]
    const NESTED_CHAIN: usize = 120;
    /// Bridge rate of the near-reducible chain: sweeps scale like
    /// 1/bridge, so Miri gets a wider bridge (still two decades below the
    /// intra-cluster rates — the stall regime is preserved).
    #[cfg(miri)]
    const BRIDGE: f64 = 1e-2;
    #[cfg(not(miri))]
    const BRIDGE: f64 = 1e-4;

    fn birth_death(n: usize, birth: f64, death: f64) -> Ctmc {
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, birth));
            transitions.push((i + 1, i, death));
        }
        Ctmc::from_transitions(n, &transitions).unwrap()
    }

    #[test]
    fn all_preconditioners_match_gth() {
        let ctmc = birth_death(CHAIN, 2.0, 3.0);
        let dense = stationary_dense_gth(&ctmc).unwrap();
        for pre in [
            SparsePreconditioner::GaussSeidel,
            SparsePreconditioner::Jacobi,
            SparsePreconditioner::Power,
        ] {
            let opts = SparseSteadyOptions {
                preconditioner: pre,
                ..SparseSteadyOptions::default()
            };
            let report = stationary_sparse(&ctmc, &opts).unwrap();
            assert!(
                report.pi.max_abs_diff(&dense).unwrap() < 1e-10,
                "{pre:?}: diff {}",
                report.pi.max_abs_diff(&dense).unwrap()
            );
            assert!(report.residual <= opts.tolerance * ctmc.max_exit_rate());
        }
    }

    #[test]
    fn results_are_bitwise_worker_count_invariant() {
        let ctmc = birth_death(WIDE_CHAIN, 1.0, 1.3);
        // Small blocks so multiple chunks exist even at this size, and a
        // zero threshold so the threaded path really runs.
        let base = SparseSteadyOptions {
            block_len: 64,
            parallel_threshold: 0,
            ..SparseSteadyOptions::default()
        };
        let serial = stationary_sparse(
            &ctmc,
            &SparseSteadyOptions { workers: 1, ..base },
        )
        .unwrap();
        for workers in [2, 4, 7] {
            let parallel =
                stationary_sparse(&ctmc, &SparseSteadyOptions { workers, ..base }).unwrap();
            assert_eq!(
                serial.pi.as_slice(),
                parallel.pi.as_slice(),
                "workers = {workers} must reproduce the serial bits"
            );
            assert_eq!(serial.sweeps, parallel.sweeps);
        }
    }

    #[test]
    fn tiny_chains_are_bitwise_invariant_on_the_forced_parallel_path() {
        // With the work threshold at 0 even a 40-state chain runs its
        // rounds through real parked workers (block_len 8 → 5 chunks per
        // round). The persistent handshake must not perturb a single bit
        // relative to the serial loop at any worker count — this is the
        // regime the old 100k-state spawn gate never let near a thread.
        let ctmc = birth_death(40, 2.0, 2.5);
        let base = SparseSteadyOptions {
            block_len: 8,
            parallel_threshold: 0,
            ..SparseSteadyOptions::default()
        };
        let serial =
            stationary_sparse(&ctmc, &SparseSteadyOptions { workers: 1, ..base }).unwrap();
        for workers in [2, 3, 8] {
            let parallel =
                stationary_sparse(&ctmc, &SparseSteadyOptions { workers, ..base }).unwrap();
            assert_eq!(
                serial.pi.as_slice(),
                parallel.pi.as_slice(),
                "workers = {workers} must reproduce the serial bits on a tiny chain"
            );
            assert_eq!(serial.sweeps, parallel.sweeps);
        }
    }

    #[test]
    fn nested_ensemble_shaped_outer_pool_over_sparse_solves() {
        // The ensemble layer maps coarse jobs across one pool while each
        // job drives the sparse engine's own persistent pool inside it.
        // Reproduce that nesting with the real engine: an outer scoped map
        // whose every job runs a forced-parallel sparse solve. Must not
        // deadlock, and every job must reproduce the serial bits.
        let ctmc = birth_death(NESTED_CHAIN, 1.5, 2.0);
        let opts = SparseSteadyOptions {
            block_len: 16,
            parallel_threshold: 0,
            workers: 2,
            ..SparseSteadyOptions::default()
        };
        let reference = stationary_sparse(
            &ctmc,
            &SparseSteadyOptions {
                workers: 1,
                ..opts
            },
        )
        .unwrap();
        let jobs = [0usize, 1, 2];
        let results = mapqn_par::WorkPool::new(3).scoped(|pool| {
            pool.map(&jobs, |_, _| stationary_sparse(&ctmc, &opts).unwrap().pi)
        });
        for pi in results {
            assert_eq!(reference.pi.as_slice(), pi.as_slice());
        }
    }

    #[test]
    fn gauss_seidel_needs_fewer_sweeps_than_power() {
        // An asymmetric, fast-mixing chain: the regime where Gauss–Seidel's
        // immediate-update propagation visibly beats global uniformization.
        // (Near-critical birth-death chains are different — their slow
        // spectrum is dense and neither preconditioner has an edge there.)
        let ctmc = birth_death(CHAIN, 2.0, 3.0);
        let base = SparseSteadyOptions::default();
        let gs = stationary_sparse(
            &ctmc,
            &SparseSteadyOptions {
                preconditioner: SparsePreconditioner::GaussSeidel,
                ..base
            },
        )
        .unwrap();
        let power = stationary_sparse(
            &ctmc,
            &SparseSteadyOptions {
                preconditioner: SparsePreconditioner::Power,
                ..base
            },
        )
        .unwrap();
        assert!(
            gs.sweeps < power.sweeps,
            "GS {} sweeps vs power {}",
            gs.sweeps,
            power.sweeps
        );
    }

    #[test]
    fn op_entry_is_bitwise_identical_to_the_ctmc_entry() {
        // `stationary_sparse` routes through `stationary_sparse_op` on the
        // transposed CSR; pin that calling the op entry directly is the
        // same solve, bit for bit, including the diagnostics.
        let ctmc = birth_death(CHAIN, 2.0, 3.0);
        let qt = ctmc.generator().transpose();
        let op = CsrGenerator::new(&qt, None).unwrap();
        for pre in [
            SparsePreconditioner::GaussSeidel,
            SparsePreconditioner::Jacobi,
            SparsePreconditioner::Power,
        ] {
            let opts = SparseSteadyOptions {
                preconditioner: pre,
                ..SparseSteadyOptions::default()
            };
            let via_ctmc = stationary_sparse(&ctmc, &opts).unwrap();
            let via_op = stationary_sparse_op(&op, &opts).unwrap();
            assert_eq!(via_ctmc.pi.as_slice(), via_op.pi.as_slice());
            assert_eq!(via_ctmc.sweeps, via_op.sweeps);
            assert_eq!(via_ctmc.used, via_op.used);
        }
    }

    #[test]
    fn single_state_and_zero_generator() {
        let one = Ctmc::from_transitions(1, &[]).unwrap();
        let r = stationary_sparse(&one, &SparseSteadyOptions::default()).unwrap();
        assert_eq!(r.pi.as_slice(), &[1.0]);

        let zero2 = Ctmc::from_transitions(2, &[]).unwrap();
        let r = stationary_sparse(&zero2, &SparseSteadyOptions::default()).unwrap();
        assert_eq!(r.pi.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn sweep_budget_is_enforced() {
        let ctmc = birth_death(50, 1.0, 1.01);
        let opts = SparseSteadyOptions {
            tolerance: 1e-15,
            max_sweeps: 2,
            check_every: 1,
            ..SparseSteadyOptions::default()
        };
        assert!(matches!(
            stationary_sparse(&ctmc, &opts),
            Err(MarkovError::NoConvergence { .. })
        ));
    }

    /// Deterministic xorshift stream of uniforms in `[0, 1)`.
    fn uniforms(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random generator whose transitions span at most `w` states: a
    /// line of neighbour edges (`i ↔ i + 1`) keeps it irreducible, and
    /// random edges inside the band give it generic structure.
    fn random_banded(n: usize, w: usize, seed: u64) -> Ctmc {
        let mut u = uniforms(seed);
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, 0.5 + 5.0 * u()));
            transitions.push((i + 1, i, 0.5 + 5.0 * u()));
        }
        for i in 0..n {
            for _ in 0..2 {
                let j = (i + 1 + (u() * w as f64) as usize).min(n - 1);
                if j != i && u() < 0.5 {
                    transitions.push((j, i, 0.5 + 5.0 * u()));
                } else if j != i {
                    transitions.push((i, j, 0.5 + 5.0 * u()));
                }
            }
        }
        Ctmc::from_transitions(n, &transitions).unwrap()
    }

    /// The flows `x_i · Q[i, j]` of `ctmc` with one level per state.
    fn state_flows(ctmc: &Ctmc, x: &[f64], w: usize) -> LevelFlows {
        let n = ctmc.num_states();
        let mut flows = LevelFlows::default();
        flows.reset(n, w, 0);
        for (i, &xi) in x.iter().enumerate() {
            for (j, q) in ctmc.generator().row_iter(i) {
                if j != i {
                    flows.add(i, j, xi * q);
                }
            }
        }
        flows
    }

    #[test]
    fn banded_gth_matches_dense_gth() {
        for (seed, w) in [(1u64, 1usize), (2, 3), (3, 7)] {
            let ctmc = random_banded(CHAIN, w, seed);
            let dense = stationary_dense_gth(&ctmc).unwrap();
            // A non-uniform weighting: the factors are π / x.
            let mut u = uniforms(seed ^ 0xabc);
            let x: Vec<f64> = (0..CHAIN).map(|_| 0.5 + u()).collect();
            let mut flows = state_flows(&ctmc, &x, w);
            let mut z = Vec::new();
            assert!(banded_gth(&mut flows, &mut z), "half band {w}");
            let mut pi: Vec<f64> = z.iter().zip(&x).map(|(z, x)| z * x).collect();
            normalize(&mut pi);
            for (k, (a, b)) in pi.iter().zip(dense.as_slice()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-13,
                    "half band {w}, level {k}: {a} vs GTH {b}"
                );
            }
        }
    }

    #[test]
    fn banded_gth_drops_dead_levels() {
        // The end levels carry no probability, so no flow leaves them: they
        // get factor 0, the lowest live level anchors the elimination, and
        // the live levels solve the chain without the dead ones.
        let w = 3;
        let ctmc = random_banded(CHAIN, w, 9);
        let mut x = vec![1.0; CHAIN];
        x[0] = 0.0;
        x[CHAIN - 1] = 0.0;
        let mut flows = state_flows(&ctmc, &x, w);
        let mut z = Vec::new();
        assert!(banded_gth(&mut flows, &mut z));
        assert_eq!((z[0], z[CHAIN - 1]), (0.0, 0.0));

        let live: Vec<(usize, usize, f64)> = (1..CHAIN - 1)
            .flat_map(|i| {
                ctmc.generator()
                    .row_iter(i)
                    .filter(|&(j, _)| j != i && j > 0 && j < CHAIN - 1)
                    .map(move |(j, q)| (i - 1, j - 1, q))
                    .collect::<Vec<_>>()
            })
            .collect();
        let reference =
            stationary_dense_gth(&Ctmc::from_transitions(CHAIN - 2, &live).unwrap()).unwrap();
        let mut pi = z[1..CHAIN - 1].to_vec();
        normalize(&mut pi);
        for (a, b) in pi.iter().zip(reference.as_slice()) {
            assert!((a - b).abs() <= 1e-13, "{a} vs GTH {b}");
        }

        // No live level at all: nothing to solve.
        let mut none = state_flows(&ctmc, &vec![0.0; CHAIN], w);
        assert!(!banded_gth(&mut none, &mut z));
    }

    #[test]
    fn garbage_partitions_change_the_speed_never_the_answer() {
        // A fast-mixing random chain: a directed cycle keeps it
        // irreducible, random edges anywhere give the partitions below
        // wide bands.
        let mut u = uniforms(21);
        let mut transitions: Vec<(usize, usize, f64)> = (0..CHAIN)
            .map(|i| ((i + 1) % CHAIN, i, 0.5 + 5.0 * u()))
            .collect();
        for _ in 0..2 * CHAIN {
            let (i, j) = ((u() * CHAIN as f64) as usize, (u() * CHAIN as f64) as usize);
            if i != j {
                transitions.push((i, j, 0.5 + 5.0 * u()));
            }
        }
        let ctmc = Ctmc::from_transitions(CHAIN, &transitions).unwrap();
        let dense = stationary_dense_gth(&ctmc).unwrap();
        let partitions: [Vec<u32>; 4] = [
            vec![0; CHAIN],
            (0..CHAIN).map(|_| (u() * 7.0) as u32).collect(),
            (0..CHAIN).map(|_| (u() * CHAIN as f64) as u32).collect(),
            (0..CHAIN as u32).rev().collect(),
        ];
        for levels in partitions {
            let leveled = ctmc.clone().with_levels(levels).unwrap();
            let report = stationary_sparse(&leveled, &SparseSteadyOptions::default()).unwrap();
            let diff = report.pi.max_abs_diff(&dense).unwrap();
            assert!(diff <= 1e-10, "{:?}: diff {diff:.2e}", report.used);
        }
    }

    /// A bursty single queue: queue length `0..=cap` times a two-phase
    /// arrival process that switches phase slowly, state `2n + p`, with
    /// the aggregation level `level(n, p)`.
    fn bursty_queue(cap: usize, level: impl Fn(usize, usize) -> u32) -> Ctmc {
        let index = |n: usize, p: usize| 2 * n + p;
        let mut transitions = Vec::new();
        let mut levels = Vec::new();
        for n in 0..=cap {
            levels.extend([level(n, 0), level(n, 1)]);
            transitions.push((index(n, 0), index(n, 1), 0.01));
            transitions.push((index(n, 1), index(n, 0), 0.02));
            if n < cap {
                transitions.push((index(n, 0), index(n + 1, 0), 1.8));
                transitions.push((index(n, 1), index(n + 1, 1), 0.3));
            }
            if n > 0 {
                transitions.push((index(n, 0), index(n - 1, 0), 1.0));
                transitions.push((index(n, 1), index(n - 1, 1), 1.0));
            }
        }
        Ctmc::from_transitions(2 * (cap + 1), &transitions)
            .unwrap()
            .with_levels(levels)
            .unwrap()
    }

    #[test]
    fn leveled_solves_are_bitwise_worker_count_invariant() {
        // Levels by phase: the coarse step runs at every check and never
        // stalls. Small blocks so the coarse scan runs several blocks, and
        // a zero threshold so the threaded path really runs.
        let ctmc = bursty_queue(CHAIN / 2, |_, p| p as u32);
        let base = SparseSteadyOptions {
            block_len: 16,
            parallel_threshold: 0,
            ..SparseSteadyOptions::default()
        };
        let serial = stationary_sparse(&ctmc, &SparseSteadyOptions { workers: 1, ..base }).unwrap();
        assert_eq!(serial.used, SparsePreconditioner::GaussSeidel);
        let dense = stationary_dense_gth(&ctmc).unwrap();
        assert!(serial.pi.max_abs_diff(&dense).unwrap() <= 1e-10);
        for workers in [2, 4] {
            let parallel =
                stationary_sparse(&ctmc, &SparseSteadyOptions { workers, ..base }).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(serial.pi.as_slice()),
                bits(parallel.pi.as_slice()),
                "workers = {workers} must reproduce the serial bits"
            );
            assert_eq!(serial.sweeps, parallel.sweeps);
        }
    }

    #[test]
    fn a_cycling_coarse_step_stops_and_gauss_seidel_finishes() {
        // Levels by queue length split the strongly coupled states: the
        // coarse step and the smoother lock into a cycle that never beats
        // the first check's residual. The stall stop ends the coarse step
        // and plain Gauss–Seidel still answers.
        let ctmc = bursty_queue(CHAIN / 2, |n, _| n as u32);
        let report = stationary_sparse(&ctmc, &SparseSteadyOptions::default()).unwrap();
        assert_eq!(report.used, SparsePreconditioner::GaussSeidel);
        let dense = stationary_dense_gth(&ctmc).unwrap();
        assert!(report.pi.max_abs_diff(&dense).unwrap() <= 1e-10);
    }

    #[test]
    fn near_reducible_chain_converges() {
        // Two strongly-coupled clusters joined by a 1e-4 bridge: the regime
        // where naive iterations stall. A small residual does not imply a
        // small error here (the error is roughly residual over the bridge
        // rate), so the tolerance is pushed near machine precision.
        let mut transitions = vec![(0, 1, 5.0), (1, 0, 4.0), (2, 3, 3.0), (3, 2, 6.0)];
        transitions.push((1, 2, BRIDGE));
        transitions.push((2, 1, 2.0 * BRIDGE));
        let ctmc = Ctmc::from_transitions(4, &transitions).unwrap();
        let dense = stationary_dense_gth(&ctmc).unwrap();
        // Convergence is geometric at rate ~ 1 - O(bridge), so the sweep
        // count scales like 1/bridge; sweeps on 4 states are nanoseconds.
        let opts = SparseSteadyOptions {
            tolerance: 1e-14,
            max_sweeps: 8_000_000, // first-rung slice is a quarter of this
            ..SparseSteadyOptions::default()
        };
        let report = stationary_sparse(&ctmc, &opts).unwrap();
        assert!(
            report.pi.max_abs_diff(&dense).unwrap() < 1e-9,
            "diff {}",
            report.pi.max_abs_diff(&dense).unwrap()
        );
    }
}

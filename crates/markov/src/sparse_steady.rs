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
//!   (every left operation `π ↦ πQ` is a row scan of `Q^T`), diagonal
//!   extraction and nnz accounting. Two representations drive it:
//!   a **materialized** transposed CSR (assembled row-by-row by
//!   [`crate::statespace::StateSpaceBuilder`], transposed once on entry —
//!   the classic path, via [`stationary_sparse`]) and the **implicit**
//!   build-nothing representations behind [`stationary_sparse_op`] (e.g.
//!   [`mapqn_linalg::KronGenerator`]), whose matvec gathers entries from
//!   per-station factor blocks and never forms `Q` at all;
//! * iterations are **preconditioned**: the default is a block-hybrid
//!   Gauss–Seidel sweep (exact Gauss–Seidel inside fixed row blocks,
//!   Jacobi across blocks), with a Jacobi-preconditioned power iteration —
//!   power iteration under *adaptive uniformization*, where each state is
//!   uniformized at its own exit rate instead of the global maximum — and
//!   plain globally-uniformized power iteration as progressively more
//!   conservative fallbacks. The Gauss–Seidel/SOR rungs need concrete row
//!   access to `Q^T` and run only when
//!   [`mapqn_linalg::GeneratorOp::csr_transpose`] exposes it; on implicit
//!   operators the ladder starts at the (fully matvec-based) Jacobi rung;
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
//! The memory footprint is two copies of the generator (CSR plus its
//! transpose) and a handful of state-length vectors — about 20 bytes per
//! transition plus 32 bytes per state, which holds `10^7`-state chains in a
//! few GB where the dense path would need petabytes.

use crate::ctmc::Ctmc;
use crate::{MarkovError, Result};
use mapqn_linalg::{DVector, GeneratorOp};
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
    /// Gauss–Seidel.
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
    /// How many sweeps between residual evaluations (each check costs one
    /// extra sparse matvec).
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
    /// Successive over-relaxation factor for the Gauss–Seidel sweeps
    /// (`1.0` = plain Gauss–Seidel, the robust default). Mild
    /// over-relaxation (`~1.2`) speeds the bursty case-study chains by
    /// another ~30%, but slows near-symmetric slow-mixing chains, and past
    /// `~1.6` the sweeps oscillate; the engine automatically retreats to
    /// plain sweeps when an over-relaxed iteration diverges or stalls.
    pub sor_omega: f64,
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
            sor_omega: 1.0,
            budget: mapqn_linalg::EngineBudget::none(),
        }
    }
}

/// Result of a sparse stationary solve: the distribution plus convergence
/// diagnostics (which the `bench_exact` harness records as its perf gates).
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

/// `out = x^T A` computed as row scans of `A^T`, parallel over row blocks of
/// the operator. Every output element is written by exactly one block, so
/// the result is bitwise independent of the worker count — for materialized
/// *and* implicit representations alike, because each output entry of a
/// [`GeneratorOp::left_apply_rows_into`] block depends only on `x` and its
/// own row.
pub(crate) fn par_left_apply<O: GeneratorOp + ?Sized>(
    pool: &ScopedPool<'_>,
    op: &O,
    block_len: usize,
    x: &[f64],
    out: &mut [f64],
) {
    pool.for_each_chunk(out, block_len, |start, chunk| {
        op.left_apply_rows_into(start, x, chunk);
    });
}

/// The worker count a solve should use, from the requested width and the
/// per-round work: rounds below the work threshold stay serial (the
/// handshake would be a measurable fraction of the round), everything else
/// fans out to `workers` (0 = [`mapqn_par::default_threads`]). Shared by
/// the stationary engine and the transient uniformization path so the
/// policy cannot drift between them.
pub(crate) fn effective_workers(per_round_work: usize, threshold: usize, workers: usize) -> usize {
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

impl<'a, O: GeneratorOp + ?Sized> Kernel<'a, O> {
    fn new(
        op: &'a O,
        exit: Vec<f64>,
        q_max: f64,
        pool: &'a ScopedPool<'a>,
        options: &SparseSteadyOptions,
    ) -> Self {
        Self {
            op,
            exit,
            q_max,
            pool,
            block_len: options.block_len.max(1),
        }
    }

    /// Residual `‖xQ‖_∞` of a candidate vector, using `scratch` as the
    /// product buffer.
    fn residual(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        par_left_apply(self.pool, self.op, self.block_len, x, scratch);
        scratch.iter().fold(0.0_f64, |m, r| m.max(r.abs()))
    }

    /// One block-hybrid Gauss–Seidel / SOR sweep on `πQ = 0`: inside a
    /// block, row `i` uses the already-updated values of rows `start..i`;
    /// across blocks it uses the previous sweep. With `omega = 1` all
    /// coefficients are non-negative (inflow rates over the exit rate), so
    /// a positive iterate stays positive; over-relaxed sweeps may overshoot
    /// below zero transiently, which the residual monitoring catches if it
    /// turns into divergence.
    fn gauss_seidel_sweep(&self, omega: f64, x_old: &[f64], x_new: &mut [f64]) {
        let qt = self
            .op
            .csr_transpose()
            // INFALLIBLE: the fallback ladder schedules Gauss-Seidel rungs
            // only when `csr_transpose()` returned Some (materialized).
            .expect("gauss_seidel_sweep requires a materialized operator");
        let rp = qt.row_ptr();
        let ci = qt.col_indices();
        let vals = qt.values();
        let exit = &self.exit;
        self.pool.for_each_chunk(x_new, self.block_len, |start, chunk| {
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
                chunk[bi] = (1.0 - omega) * x_old[i] + omega * s / exit[i];
            }
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
        par_left_apply(self.pool, self.op, self.block_len, z, w_new);
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
        par_left_apply(self.pool, self.op, self.block_len, x_old, x_new);
        self.pool.for_each_chunk(x_new, self.block_len, |start, chunk| {
            for (bi, xi) in chunk.iter_mut().enumerate() {
                *xi = x_old[start + bi] + *xi / q;
            }
        });
    }
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
/// uniformized power before giving up.
///
/// # Errors
/// Returns [`MarkovError::NoConvergence`] when no preconditioner reaches the
/// tolerance within its sweep budget.
pub fn stationary_sparse(ctmc: &Ctmc, options: &SparseSteadyOptions) -> Result<SparseSteadyReport> {
    let n = ctmc.num_states();
    if n == 1 {
        return Ok(SparseSteadyReport {
            pi: DVector::from_vec(vec![1.0]),
            sweeps: 0,
            residual: 0.0,
            used: options.preconditioner,
        });
    }
    if ctmc.max_exit_rate() == 0.0 {
        // All-zero generator: every distribution is stationary; return the
        // uniform one (matching the dense path's behaviour on such chains).
        return Ok(SparseSteadyReport {
            pi: DVector::constant(n, 1.0 / n as f64),
            sweeps: 0,
            residual: 0.0,
            used: options.preconditioner,
        });
    }
    // Materialize the transpose once: every left operation is a row scan of
    // `Q^T`, and a `CsrMatrix` used as a `GeneratorOp` *is* `Q^T`.
    let qt = ctmc.generator().transpose();
    stationary_sparse_op(&qt, options)
}

/// Computes the stationary distribution of a CTMC presented as a
/// [`GeneratorOp`] — the representation-agnostic entry behind
/// [`stationary_sparse`]. Materialized operators (a transposed-CSR
/// generator) run the full fallback ladder and are bit-for-bit identical to
/// [`stationary_sparse`] on the same chain; implicit operators (e.g.
/// [`mapqn_linalg::KronGenerator`] or the factored network generator in
/// `mapqn-core`) skip the Gauss–Seidel/SOR rungs — which need concrete row
/// access — and start the ladder at the Jacobi rung.
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
    WorkPool::new(workers)
        .scoped(|pool| solve_on(Kernel::new(op, exit, q_max, pool, options), options))
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
    // Gauss–Seidel/SOR sweeps walk concrete rows of `Q^T`; implicit
    // operators cannot supply them, so those rungs are left off the ladder.
    let materialized = kernel.op.csr_transpose().is_some();

    // Fallback ladder: the requested preconditioner first; an over-relaxed
    // Gauss–Seidel that diverges retreats to the plain sweep before the
    // ladder moves on to Jacobi and finally globally uniformized power.
    let mut attempts: Vec<(SparsePreconditioner, f64)> = Vec::new();
    match options.preconditioner {
        SparsePreconditioner::GaussSeidel => {
            if materialized {
                attempts.push((SparsePreconditioner::GaussSeidel, options.sor_omega));
                if (options.sor_omega - 1.0).abs() > 1e-12 {
                    attempts.push((SparsePreconditioner::GaussSeidel, 1.0));
                }
            }
            attempts.push((SparsePreconditioner::Jacobi, 1.0));
            attempts.push((SparsePreconditioner::Power, 1.0));
        }
        SparsePreconditioner::Jacobi => {
            attempts.push((SparsePreconditioner::Jacobi, 1.0));
            attempts.push((SparsePreconditioner::Power, 1.0));
        }
        SparsePreconditioner::Power => attempts.push((SparsePreconditioner::Power, 1.0)),
    }

    let mut total_sweeps = 0usize;
    let mut last_residual = f64::INFINITY;
    // Budget work counter: one unit per state relaxation, i.e. `n` per sweep.
    let mut sweep_work = 0u64;
    for (attempt_idx, &(engine, omega)) in attempts.iter().enumerate() {
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
        let mut candidate_try = vec![0.0_f64; n];
        let mut x_prev = vec![0.0_f64; n];
        // Damping margin for the adaptive-uniformization (Jacobi) path; it
        // doubles whenever the residual history oscillates, trading step
        // size for aperiodicity. The power path keeps a fixed 1% margin.
        let mut margin = 0.01_f64;
        let q_uniform = kernel.q_max * 1.01;
        let mut best_residual = f64::INFINITY;
        let mut prev_residual = f64::INFINITY;
        // Aitken gating: the decay ratio is only trustworthy once several
        // consecutive checks have decreased with a *consistent* ratio, and
        // only the Gauss–Seidel workhorse extrapolates at all — the Jacobi
        // and power rungs are the conservative fallbacks and stay pure. If
        // an adopted jump is followed by a residual regression (transient
        // growth off the extrapolated vector), Aitken is switched off for
        // the rest of the attempt rather than allowed to cycle.
        let mut rho_prev = f64::NAN;
        let mut decreasing_streak = 0usize;
        let mut aitken_enabled = engine == SparsePreconditioner::GaussSeidel;
        let mut adopted_residual = f64::NAN;
        // Divergence-predictor state: the length of the current run of
        // consecutive residual-*growth* checks and the residual at the
        // start of that run (see the bail commentary below).
        let mut growth_streak = 0usize;
        let mut streak_start = f64::NAN;

        // Converts an iterate into a probability candidate and measures its
        // residual (the Jacobi path iterates in `w = π D` space).
        let measure = |x_vec: &[f64], cand: &mut [f64], scratch: &mut [f64]| -> f64 {
            if engine == SparsePreconditioner::Jacobi {
                kernel.jacobi_candidate(x_vec, cand);
            } else {
                cand.copy_from_slice(x_vec);
                normalize(cand);
            }
            kernel.residual(cand, scratch)
        };

        for sweep in 1..=attempt_budget {
            match engine {
                SparsePreconditioner::GaussSeidel => {
                    kernel.gauss_seidel_sweep(omega, &x, &mut x_next);
                }
                SparsePreconditioner::Jacobi => {
                    kernel.jacobi_power_step(margin, &x, &mut scratch, &mut x_next);
                }
                SparsePreconditioner::Power => {
                    kernel.uniformized_power_step(q_uniform, &x, &mut x_next);
                }
            }
            std::mem::swap(&mut x, &mut x_next);
            normalize(&mut x);
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
                let mut residual = measure(&x, &mut candidate, &mut scratch);
                last_residual = residual;
                if sparse_debug() {
                    eprintln!(
                        "[sparse] rung {attempt_idx} {engine:?} omega {omega:.2} sweep {sweep}: residual {residual:.3e} best {best_residual:.3e}"
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
                        let residual_try =
                            measure(&x_next, &mut candidate_try, &mut scratch);
                        if residual_try.is_finite() && residual_try < residual {
                            std::mem::swap(&mut x, &mut x_next);
                            candidate.copy_from_slice(&candidate_try);
                            residual = residual_try;
                            last_residual = residual;
                            // The jump invalidates the ratio history; watch
                            // the next check for a post-adoption regression.
                            decreasing_streak = 0;
                            rho_prev = f64::NAN;
                            adopted_residual = residual;
                        } else {
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
                    let mut pi = DVector::from_vec(candidate);
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
                // divergent sweeps (e.g. plain Gauss–Seidel on the SCV=4
                // case-study family) long before they waste the budget.
                if residual > 1e3 * best_residual {
                    break;
                }
                // Divergence *predictor*: bail a rung before the 1e3x line
                // when the residual has grown for many consecutive checks
                // AND the cumulative growth of that one monotone run is far
                // beyond what any benign transient can produce. Calibration
                // (MAPQN_SPARSE_DEBUG traces on the validation models): the
                // largest *monotone* growth run of any converging rung is
                // 31 checks x 13.3x total (the TPC-W hump — the documented
                // ~300x-above-best excursions accumulate through interrupted
                // runs, which reset the streak, never through one monotone
                // climb); genuinely divergent Gauss-Seidel on the figure-5
                // SCV=4 family (N >= ~80) rides a single accelerating run
                // through 1,700x-27,000x. Requiring a sustained run (>= 8
                // checks) at >= 32x its own start — 2.4x above the benign
                // ceiling — and >= 32x the attempt's best is therefore
                // already *on* the 1e3x-bail trajectory, just earlier on
                // it; this is a trajectory test, not the windowed stall
                // detector the module history warns about (slow progress,
                // plateaus and bounded oscillation all reset or cap the
                // streak and are still left to the sweep budget).
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
                best_residual = best_residual.min(residual);
                prev_residual = residual;
                x_prev.copy_from_slice(&x);
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
        // `stationary_sparse` now routes through `stationary_sparse_op` on
        // the transposed CSR; pin that calling the op entry directly is the
        // same solve, bit for bit, including the diagnostics.
        let ctmc = birth_death(CHAIN, 2.0, 3.0);
        let qt = ctmc.generator().transpose();
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
            let via_op = stationary_sparse_op(&qt, &opts).unwrap();
            assert_eq!(via_ctmc.pi.as_slice(), via_op.pi.as_slice());
            assert_eq!(via_ctmc.sweeps, via_op.sweeps);
            assert_eq!(via_ctmc.used, via_op.used);
        }
    }

    #[test]
    fn implicit_kron_operator_solves_and_skips_the_gs_rungs() {
        // Two independent birth-death processes: the joint generator is the
        // Kronecker sum of the factors. Solve it twice — materialized (the
        // dense kron_sum, assembled into a CTMC) and implicit (the
        // KronGenerator, which never forms Q) — and check the implicit
        // ladder skipped Gauss–Seidel (it needs concrete rows) yet landed
        // on the same distribution.
        use mapqn_linalg::kron::kron_sum;
        use mapqn_linalg::{DMatrix, KronGenerator};

        let block = |n: usize, birth: f64, death: f64| {
            let mut m = DMatrix::zeros(n, n);
            for i in 0..n - 1 {
                m[(i, i + 1)] = birth;
                m[(i, i)] -= birth;
                m[(i + 1, i)] = death;
                m[(i + 1, i + 1)] -= death;
            }
            m
        };
        let a = block(4, 2.0, 3.0);
        let b = block(3, 1.0, 1.7);
        let dense = kron_sum(&a, &b);
        let n = dense.nrows();
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if dense[(i, j)] != 0.0 {
                    triplets.push((i, j, dense[(i, j)]));
                }
            }
        }
        let ctmc = Ctmc::from_transitions(
            n,
            &triplets
                .iter()
                .filter(|(i, j, _)| i != j)
                .copied()
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let reference = stationary_dense_gth(&ctmc).unwrap();

        let op = KronGenerator::kron_sum(&[a, b]).unwrap();
        let opts = SparseSteadyOptions::default();
        let report = stationary_sparse_op(&op, &opts).unwrap();
        assert_ne!(
            report.used,
            SparsePreconditioner::GaussSeidel,
            "implicit operators must not run the Gauss-Seidel rung"
        );
        assert!(
            report.residual <= opts.tolerance * ctmc.max_exit_rate() * 1.01,
            "residual {}",
            report.residual
        );
        for (p, r) in report.pi.as_slice().iter().zip(reference.as_slice()) {
            assert!((p - r).abs() < 1e-10, "pi entry {p} vs GTH {r}");
        }

        // The chunked implicit matvec path is bitwise worker-invariant
        // through the whole solve.
        let base = SparseSteadyOptions {
            block_len: 4,
            parallel_threshold: 0,
            ..SparseSteadyOptions::default()
        };
        let serial =
            stationary_sparse_op(&op, &SparseSteadyOptions { workers: 1, ..base }).unwrap();
        for workers in [2, 4] {
            let parallel =
                stationary_sparse_op(&op, &SparseSteadyOptions { workers, ..base }).unwrap();
            assert_eq!(serial.pi.as_slice(), parallel.pi.as_slice());
            assert_eq!(serial.sweeps, parallel.sweeps);
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

//! Revised simplex over a sparse CSC constraint matrix.
//!
//! The dense tableau in [`crate::simplex`] recomputes the whole `m × n`
//! tableau at every pivot and restarts phase 1 from scratch on every solve.
//! This engine implements the *revised* simplex method instead:
//!
//! * the standard-form constraint matrix is stored column-wise
//!   ([`CscMatrix`]), so pricing touches only stored non-zeros;
//! * the basis is kept as an LU factorization plus a product-form eta file
//!   ([`crate::basis`]), refactorized periodically for stability;
//! * a solved basis can be handed back in via [`RevisedSimplex::solve_from_basis`]
//!   to **warm start** the next objective over the same feasible region —
//!   phase 1 then runs once per constraint set instead of once per solve,
//!   which is what makes `bound_all()` style index sweeps cheap.
//!
//! The engine solves the same problem class as the dense tableau
//! (non-negative variables, `<=` / `>=` / `=` rows) and is validated against
//! it by the equivalence tests in `tests/lp_engine_equivalence.rs`.

use crate::basis::{complete_basis, BasisFactor, ColumnSource};
use crate::dual::SeedFactor;
use crate::problem::{ConstraintOp, LpProblem, Sense};
use crate::simplex::{LpSolution, LpStatus, SimplexOptions, STALL_THRESHOLD};
use crate::{LpError, Result};
use mapqn_linalg::CscMatrix;

/// Whether `MAPQN_LP_DEBUG` tracing is on — read once per process. Prints
/// the pivot, repair and phase-1 give-up events to stderr.
fn lp_debug() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("MAPQN_LP_DEBUG").is_some())
}

/// Entries below this magnitude are treated as zero in the ratio test. Kept
/// small so that every row that meaningfully bounds the step participates;
/// numerical stability comes from the second ratio-test pass preferring the
/// largest pivot and from the suspect-pivot refactorization guard.
pub(crate) const PIVOT_TOL: f64 = 1e-9;

/// Primal feasibility tolerance for accepting a warm-start basis and for the
/// phase-1 infeasibility verdict.
pub(crate) const FEAS_TOL: f64 = 1e-7;

/// Pivot magnitude below which the engine refactorizes and re-prices before
/// committing to the pivot: with a stale eta file a small computed pivot may
/// be pure numerical drift over a true zero, and pivoting on it drives the
/// basis towards singularity.
pub(crate) const SUSPECT_PIVOT: f64 = 1e-5;

/// Hard floor on the pivot magnitude. A primal pivot below it, confirmed
/// from a fresh factorization, is a numerical failure of the solve
/// ([`LpError::Numerical`]): the step `x_B / d` would be so large that rows
/// excluded from the ratio test (entries treated as zero) pick up
/// macroscopic infeasibility. The engine's own recovery (a local repair,
/// then a cold restart under a new perturbation salt) and the caller's
/// degradation ladder take it from there.
pub(crate) const MIN_PIVOT: f64 = 1e-7;

/// Longest step the solid-pivot pass of the ratio test may take. That pass
/// considers only rows whose pivot entry exceeds [`MIN_PIVOT`]; the rows it
/// ignores carry entries of at most `MIN_PIVOT`, so a step of at most this
/// length moves their basic values by at most `MIN_PIVOT` — inside the
/// feasibility tolerance. A longer step could push an ignored row
/// macroscopically negative, so it is re-chosen by the strict pass over
/// every row above [`PIVOT_TOL`].
const MAX_SOLID_PASS_STEP: f64 = 1.0;

/// Eta-file length up to which an apparent-optimality verdict is trusted
/// without a confirming refactorization. The product form drifts with the
/// *length* of the eta chain (each suspect pivot already forces a refresh,
/// so the chain never contains a near-singular eta); a short chain on top
/// of a fresh LU prices to far better than the optimality tolerance. The
/// unconditional refresh cost one full refactorization per objective,
/// which dominated short solves — exactly the solves a dual-warm
/// population sweep produces (its repairs are capped well under this
/// threshold, so a transferred basis finishes without any refactorization
/// at all).
const TRUSTED_ETA_COUNT: usize = 64;

/// Magnitude of the anti-degeneracy right-hand-side perturbation. Every
/// solve runs against `b + delta` with `delta_i` a deterministic,
/// index-hashed value in `[PERT_SCALE, 2 PERT_SCALE)`: basic values are then
/// (generically) never exactly zero, so the massively degenerate bound LPs
/// stop producing zero-length pivot cycles, and rows with near-zero pivot
/// entries stop being ratio-binding (their ratio is huge instead of `0/0`).
/// The perturbation is removed once the basis is optimal — optimality of a
/// basis does not depend on the right-hand side.
const PERT_SCALE: f64 = 1e-8;

/// Harris ratio-test slack: how far a step may push a basic value negative
/// before its row must leave instead. Must stay well below [`PERT_SCALE`] —
/// a slack at or above the perturbation scale erases the perturbation within
/// a few pivots and the degeneracy (and with it, cycling) returns.
const RATIO_DELTA: f64 = 1e-10;

/// Infeasibility threshold at refactorization time before the solve is
/// declared numerically lost (accumulated Harris debts stay well below it).
const REFRESH_FEAS_TOL: f64 = 1e-6;

/// In-place feasibility repairs allowed per solve before the engine takes
/// the error path (the local repair and salted cold restart of
/// `finish_phase2`, then the caller's degradation ladder). One repair fixes
/// a transient drift; a solve that needs one after every refactorization
/// is walking an ill-conditioned region it will not leave, and repairing
/// forever just burns the iteration budget.
const MAX_IN_PLACE_REPAIRS: usize = 3;

/// A simplex basis: the column basic in each of the `m` row positions.
///
/// Obtained from [`RevisedSimplex::find_feasible_basis`] or returned by
/// [`RevisedSimplex::solve_from_basis`]; treat it as an opaque token that can
/// be fed back into the engine (or into a different engine instance over a
/// *related* constraint set, where it is repaired into a valid basis first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    columns: Vec<usize>,
}

impl Basis {
    /// Creates a basis from raw standard-form column indices. Intended for
    /// callers that map a basis between related problems; indices are
    /// sanitized (deduplicated, completed) when the basis is used.
    #[must_use]
    pub fn from_columns(columns: Vec<usize>) -> Self {
        Self { columns }
    }

    /// The standard-form column indices of the basic variables.
    #[must_use]
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }
}

/// Outcome of [`RevisedSimplex::verify_basis`]: whether a stored basis is
/// still a faithful witness for the engine's constraint set, and how it
/// failed if not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasisVerification {
    /// Candidate columns that were rejected (out of range, duplicated, or
    /// linearly dependent) and had to be repaired away. A pristine basis
    /// has zero.
    pub repaired_columns: usize,
    /// Whether the (repaired) basis matrix admitted an LU factorization.
    pub factorizable: bool,
    /// Largest negative excursion of the basic values at the **true**
    /// right-hand side beyond the verification tolerance, as a
    /// non-negative magnitude (exactly 0 when feasible within tolerance).
    pub infeasibility: f64,
}

impl BasisVerification {
    /// `true` when the basis passed every check: no column needed repair,
    /// the matrix factorized, and the basic solution at the true
    /// right-hand side is feasible within `tol` of the verification call.
    #[must_use]
    pub fn is_intact(&self) -> bool {
        self.repaired_columns == 0 && self.factorizable && self.infeasibility == 0.0
    }
}

/// Outcome of a phase-1 run.
enum Phase1Outcome {
    Feasible(Box<Work>),
    Infeasible,
}

/// Mutable per-solve state: basis, basic values and factorization. Shared
/// with the dual engine in [`crate::dual`], which drives the same state with
/// a dual pivoting rule before handing it back to the primal machinery.
#[derive(Clone)]
pub(crate) struct Work {
    pub(crate) basis: Vec<usize>,
    pub(crate) in_basis: Vec<bool>,
    pub(crate) xb: Vec<f64>,
    /// Right-hand side the current solve runs against (the perturbed `b`
    /// during pivoting, the true `b` after the perturbation is removed).
    pub(crate) rhs: Vec<f64>,
    pub(crate) factor: BasisFactor,
    pub(crate) iterations: usize,
    /// In-place feasibility repairs performed this solve (see
    /// [`RevisedSimplex::repair_rows_in_place`]): a drift-prone solve that
    /// keeps re-breaking feasibility after each repair must eventually take
    /// the error path instead of thrashing to the iteration limit.
    pub(crate) repairs: usize,
}

/// Revised simplex engine bound to one constraint set.
///
/// Construction converts the constraints of an [`LpProblem`] to standard
/// form once; every subsequent solve only changes the objective. The engine
/// caches its last basis internally, so repeated [`RevisedSimplex::solve_from_basis`]
/// calls with the basis it returned skip refactorization. A clone copies
/// that cache and the perturbation salt, so the clone and the original
/// answer the same calls bitwise alike.
#[derive(Clone)]
pub struct RevisedSimplex {
    pub(crate) m: usize,
    pub(crate) n_struct: usize,
    /// Structural + slack column count; artificial column `i` (one per row)
    /// is the implicit identity column `total_real + i`.
    pub(crate) total_real: usize,
    pub(crate) cols: CscMatrix,
    pub(crate) b: Vec<f64>,
    /// Initial basic column of each row for a cold phase-1 start: the slack
    /// column for `<=` rows, the artificial otherwise.
    phase1_basis: Vec<usize>,
    /// Salt of the anti-degeneracy perturbation draw. Set per solve from
    /// [`SimplexOptions::perturbation_salt`] and stepped by 1 for each
    /// re-draw: a phase-1 gray-zone retry and a cold restart after a
    /// numerical failure (see `finish_phase2`).
    pert_salt: std::cell::Cell<u64>,
    /// Cached state of the last successful solve (keyed by its basis).
    pub(crate) cache: Option<Work>,
}

impl ColumnSource for RevisedSimplex {
    fn num_rows(&self) -> usize {
        self.m
    }

    fn for_each_entry(&self, j: usize, visit: &mut dyn FnMut(usize, f64)) {
        if j >= self.total_real {
            visit(j - self.total_real, 1.0);
        } else {
            for (r, v) in self.cols.col_iter(j) {
                visit(r, v);
            }
        }
    }
}

impl RevisedSimplex {
    /// Builds the standard form of `problem`'s constraint set (the objective
    /// stored in `problem` is only used by [`RevisedSimplex::solve`]).
    ///
    /// # Errors
    /// Propagates validation errors from the problem.
    pub fn new(problem: &LpProblem) -> Result<Self> {
        problem.validate()?;
        let m = problem.num_constraints();
        let n = problem.num_vars();

        // Normalize right-hand sides to be non-negative, then append one
        // slack/surplus column per inequality row.
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut b = Vec::with_capacity(m);
        let mut phase1_basis = Vec::with_capacity(m);
        let mut slack_cursor = n;
        // First pass to know the slack count (artificial indices come after
        // every real column).
        let num_slack = problem
            .constraints()
            .iter()
            .filter(|c| c.op != ConstraintOp::Eq)
            .count();
        let total_real = n + num_slack;

        for (i, constraint) in problem.constraints().iter().enumerate() {
            let flip = constraint.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            // Power-of-two row equilibration: multiply the row (including
            // its slack and right-hand side) by 2^e so the largest
            // structural coefficient lands in [1/sqrt(2), sqrt(2)). The
            // bound LPs mix rate-scale rows (cut/phase balances with
            // coefficients of order 1e2) with probability-scale rows
            // (normalization, structural inequalities, coefficients of
            // order 1), and the unequilibrated mix is what made
            // refactorizations on near-redundant rows drift past the
            // feasibility tolerance (the TPC-W SCV=8 dense-fallback
            // corner). Scaling by exact powers of two changes no mantissa,
            // and the transformation is invisible to callers: the solution
            // vector `x` and the certified objective `y^T b` of the scaled
            // system equal those of the original exactly.
            let row_max = constraint
                .coefficients
                .iter()
                .fold(0.0f64, |acc, &(_, v)| acc.max(v.abs()));
            let scale = if row_max > 0.0 {
                (-row_max.log2().round()).exp2()
            } else {
                1.0
            };
            for &(idx, v) in &constraint.coefficients {
                triplets.push((i, idx, sign * v * scale));
            }
            b.push(sign * constraint.rhs * scale);
            let op = match (constraint.op, flip) {
                (ConstraintOp::Eq, _) => ConstraintOp::Eq,
                (ConstraintOp::Le, false) | (ConstraintOp::Ge, true) => ConstraintOp::Le,
                (ConstraintOp::Le, true) | (ConstraintOp::Ge, false) => ConstraintOp::Ge,
            };
            // Slack columns stay at ±1 (not scaled with the row): the
            // phase-1 starting basis is then still a ±1 diagonal whose
            // basic values are exactly the right-hand sides, and a unit
            // entry is already at the magnitude the scaled rows target.
            match op {
                ConstraintOp::Le => {
                    triplets.push((i, slack_cursor, 1.0));
                    phase1_basis.push(slack_cursor);
                    slack_cursor += 1;
                }
                ConstraintOp::Ge => {
                    triplets.push((i, slack_cursor, -1.0));
                    phase1_basis.push(total_real + i);
                    slack_cursor += 1;
                }
                ConstraintOp::Eq => {
                    phase1_basis.push(total_real + i);
                }
            }
        }
        // INFALLIBLE: rows index `0..m` and columns index structural,
        // slack and artificial variables, all counted into `total_real`.
        let cols = CscMatrix::from_triplets(m, total_real.max(1), &triplets)
            .expect("standard-form indices are in range by construction");

        Ok(Self {
            m,
            n_struct: n,
            total_real,
            cols,
            b,
            phase1_basis,
            pert_salt: std::cell::Cell::new(0),
            cache: None,
        })
    }

    /// Number of constraint rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Sets the base salt of the anti-degeneracy RHS-perturbation draw (see
    /// [`SimplexOptions::perturbation_salt`]). The engine steps the salt by
    /// 1 for each re-draw it makes (phase-1 gray-zone retries, cold
    /// restarts after a numerical failure); the base only moves the whole
    /// sequence, so two engines with the same salt walk identical pivot
    /// paths on identical inputs.
    pub fn set_perturbation_salt(&self, salt: u64) {
        self.pert_salt.set(salt);
    }

    /// Number of standard-form columns excluding artificials (structural
    /// variables followed by slacks).
    #[must_use]
    pub fn num_real_columns(&self) -> usize {
        self.total_real
    }

    /// Verifies that a stored [`Basis`] is still a faithful witness for
    /// this engine's constraint set: every column valid and independent,
    /// the basis matrix factorizable, and the basic solution at the
    /// **true** (unperturbed) right-hand side primal-feasible within
    /// `tol`. This is the integrity recheck the planning-session cache
    /// runs on every hit before trusting a cached basis — a corrupted or
    /// stale basis fails here instead of deep inside a pivot loop.
    ///
    /// Read-only: the engine's cached solve state is not touched, so a
    /// verification never perturbs a later warm start.
    #[must_use]
    pub fn verify_basis(&self, basis: &Basis, tol: f64) -> BasisVerification {
        let completed = complete_basis(self, basis.columns(), self.total_real);
        // `complete_basis` keeps accepted candidates in order and appends
        // artificial fill for uncovered rows, so any column of the result
        // that was not proposed by the caller marks a repair.
        let proposed: std::collections::HashSet<usize> =
            basis.columns().iter().copied().collect();
        let repaired_columns = completed
            .iter()
            .filter(|c| !proposed.contains(c))
            .count()
            + basis.columns().len().saturating_sub(
                completed.iter().filter(|c| proposed.contains(c)).count(),
            );
        let Some(mut factor) = BasisFactor::factorize(self, &completed) else {
            return BasisVerification {
                repaired_columns,
                factorizable: false,
                infeasibility: f64::INFINITY,
            };
        };
        let mut xb = self.b.clone();
        factor.ftran(&mut xb);
        let worst = xb.iter().fold(0.0f64, |acc, &v| acc.max(-v));
        let infeasibility = if worst <= tol { 0.0 } else { worst };
        BasisVerification {
            repaired_columns,
            factorizable: true,
            infeasibility,
        }
    }

    /// The deterministically perturbed right-hand side of this solve (see
    /// [`PERT_SCALE`]). The draw is keyed by the current salt, so a
    /// restarted solve can move to a *different* generic perturbation
    /// without losing determinism.
    fn perturbed_rhs(&self) -> Vec<f64> {
        let salt = self.pert_salt.get();
        self.b
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let h = (i as u64)
                    .wrapping_add(salt.wrapping_mul(0x2545_f491_4f6c_dd1d))
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                v + PERT_SCALE * (1.0 + u)
            })
            .collect()
    }

    /// Installs the anti-degeneracy perturbation: the basic values become
    /// `B^{-1}(b + delta)`. When that recompute dips below `-FEAS_TOL` —
    /// an ill-conditioned basis amplifies the 1e-8 draw well past the
    /// tolerance — the clamped true-rhs values `max(B^{-1} b, 0)` are
    /// installed instead and the solve runs unperturbed from this basis.
    ///
    /// Returns whether `B^{-1} b` is within `-FEAS_TOL` when the fallback
    /// ran (always `true` otherwise): `false` means the basis is infeasible
    /// for the true right-hand side, not just for the draw.
    pub(crate) fn perturb_or_clamp(&self, work: &mut Work) -> bool {
        work.rhs = self.perturbed_rhs();
        let mut xb = work.rhs.clone();
        work.factor.ftran(&mut xb);
        let mut feasible = xb.iter().all(|&v| v >= -FEAS_TOL);
        if !feasible {
            work.rhs.copy_from_slice(&self.b);
            xb.copy_from_slice(&self.b);
            work.factor.ftran(&mut xb);
            feasible = xb.iter().all(|&v| v >= -FEAS_TOL);
        }
        for v in &mut xb {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        work.xb = xb;
        feasible
    }

    /// Tries to remove the perturbation from an optimal basis by recomputing
    /// the basic values against the true right-hand side (the factor is
    /// eta-free at this point, see the optimality refresh in `run_pivots`).
    ///
    /// When the true-rhs values come back meaningfully negative the
    /// *perturbed* solution is kept instead: it satisfies `A x = b + delta`
    /// exactly, so its residual against the true `b` is bounded by `delta`
    /// itself (2·[`PERT_SCALE`]) — whereas clamping the true-rhs values
    /// would introduce an error amplified by the basis conditioning (an
    /// alternative "conservative candidate" scheme based on those clamped
    /// values was tried and rejected: its conditioning-scale noise degraded
    /// well-conditioned throughput/utilization bounds by ~1e-2).
    ///
    /// The retained perturbation no longer shifts the *reported objective*:
    /// [`RevisedSimplex::certified_objective`] evaluates the optimum through
    /// the dual vector of the final basis against the **true** right-hand
    /// side, which removes the `y^T delta` shift exactly (this closed the
    /// ROADMAP open numerical item — the shift reached ~1e-2 on the
    /// ill-conditioned mean-queue-length LPs whose dual prices are ~1e5).
    /// Only the reported *solution vector* can still carry the
    /// perturbation-scale residual described above.
    fn restore_true_rhs(&self, work: &mut Work) -> bool {
        let mut xb = self.b.clone();
        work.factor.ftran(&mut xb);
        if xb.iter().all(|&v| v >= -RATIO_DELTA) {
            for v in &mut xb {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            work.rhs.copy_from_slice(&self.b);
            work.xb = xb;
            return true;
        }
        false
    }

    /// Cost-aware dual pivots onto a basis that is optimal **for the true
    /// right-hand side**, starting from a basis that is optimal for the
    /// perturbed one.
    ///
    /// The two problems share columns and costs, so the final basis of a
    /// perturbed solve is dual feasible for the true problem — but it can
    /// be primal *infeasible* for the true `b` (the anti-degeneracy
    /// perturbation shifts which of the many degenerate optimal bases the
    /// pivoting lands on, and [`RevisedSimplex::restore_true_rhs`] then has
    /// to keep the perturbed state). The certified objective `y^T b` of
    /// such a basis is a valid-direction but *loose* bound — its true-rhs
    /// vertex sits outside the feasible set, overshooting the optimum by
    /// the violation times the dual prices (measured at ~2e-5 on
    /// mean-queue-length maximizations, vs the dense oracle's exact
    /// vertex). A handful of dual pivots — the classical dual ratio test,
    /// which preserves dual feasibility — walks to an adjacent basis that
    /// is feasible for the true `b`, where primal feasibility plus dual
    /// feasibility certifies the exact optimum.
    ///
    /// Returns `false` (leaving the perturbed state in place — the
    /// conservative answer the engine has always reported) when no usable
    /// dual pivot exists or the budget runs out.
    fn dual_polish_true_rhs(&self, work: &mut Work, costs: &[f64]) -> Result<bool> {
        // Switch to the true right-hand side.
        work.rhs.copy_from_slice(&self.b);
        let mut xb = self.b.clone();
        work.factor.ftran(&mut xb);
        work.xb = xb;

        let mut rho = vec![0.0; self.m];
        let mut y = vec![0.0; self.m];
        let mut d = vec![0.0; self.m];
        // The violation the polish must clear is the *amplified
        // perturbation* `||B^{-1} delta||`, which reaches 1e-1 on the worst
        // conditioned bases; walking that down can take a fair number of
        // dual pivots, and an exhausted budget falls back to a loose bound,
        // so the budget is sized like the dual engine's own pivot cap.
        let mut budget = 256usize;
        loop {
            let mut leaving: Option<usize> = None;
            let mut worst = RATIO_DELTA;
            for (p, &v) in work.xb.iter().enumerate() {
                let viol = if work.basis[p] >= self.total_real {
                    v.abs()
                } else {
                    -v
                };
                if viol > worst {
                    worst = viol;
                    leaving = Some(p);
                }
            }
            let Some(r) = leaving else {
                for v in &mut work.xb {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                return Ok(true);
            };
            // A violation within an order of magnitude of the ratio slack
            // is numerical noise, not a vertex off the feasible set: if no
            // solid pivot exists for it (checked below), clearing it is
            // neither possible nor necessary. Remember the scale so the
            // give-up paths can distinguish "stuck at noise" (accept) from
            // "stuck while macroscopically infeasible" (reject).
            let noise_level = worst <= 10.0 * RATIO_DELTA;
            if budget == 0 {
                if lp_debug() {
                    eprintln!("dual-polish: budget exhausted (worst {worst:.3e})");
                }
                return Ok(false);
            }
            budget -= 1;

            // Dual prices of the current basis (recomputed per pivot — the
            // polish runs a handful of pivots, so incremental updates are
            // not worth their drift).
            for (p, &c) in work.basis.iter().enumerate() {
                y[p] = costs[c];
            }
            work.factor.btran(&mut y);
            rho.fill(0.0);
            rho[r] = 1.0;
            work.factor.btran(&mut rho);
            let s = if work.xb[r] < 0.0 { 1.0 } else { -1.0 };

            // Classical dual ratio test: smallest reduced-cost ratio among
            // the columns that absorb this row's violation, largest pivot
            // among near-ties (Harris-style relaxation at the ratio-slack
            // scale). Keeping the ratio minimal is what preserves dual
            // feasibility, i.e. optimality.
            let mut best_ratio = f64::INFINITY;
            for (j, &cost) in costs.iter().enumerate().take(self.total_real) {
                if work.in_basis[j] {
                    continue;
                }
                let alpha = self.cols.col_dot(j, &rho);
                if s * alpha < -PIVOT_TOL {
                    let rc = (cost - self.cols.col_dot(j, &y)).max(0.0);
                    best_ratio = best_ratio.min((rc + RATIO_DELTA) / -(s * alpha));
                }
            }
            if best_ratio == f64::INFINITY {
                if noise_level {
                    for v in &mut work.xb {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                    return Ok(true);
                }
                if lp_debug() {
                    eprintln!("dual-polish: no entering candidate (worst {worst:.3e})");
                }
                return Ok(false);
            }
            let mut entering: Option<usize> = None;
            let mut best_pivot = 0.0f64;
            for (j, &cost) in costs.iter().enumerate().take(self.total_real) {
                if work.in_basis[j] {
                    continue;
                }
                let alpha = self.cols.col_dot(j, &rho);
                if s * alpha >= -PIVOT_TOL {
                    continue;
                }
                let rc = (cost - self.cols.col_dot(j, &y)).max(0.0);
                if rc / -(s * alpha) <= best_ratio && alpha.abs() > best_pivot.abs() {
                    best_pivot = alpha;
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                return Ok(false);
            };
            if best_pivot.abs() < MIN_PIVOT {
                if noise_level {
                    for v in &mut work.xb {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                    return Ok(true);
                }
                if lp_debug() {
                    eprintln!("dual-polish: tiny pivot {best_pivot:.3e} (worst {worst:.3e})");
                }
                return Ok(false);
            }
            d.fill(0.0);
            self.scatter_column(q, &mut d);
            work.factor.ftran(&mut d);
            if (d[r] - best_pivot).abs() > 1e-3 * best_pivot.abs()
                || d[r].abs() < MIN_PIVOT
                || d[r].signum() != best_pivot.signum()
            {
                if lp_debug() {
                    eprintln!(
                        "dual-polish: cross-check failed (ftran {:.3e} btran {best_pivot:.3e})",
                        d[r]
                    );
                }
                return Ok(false);
            }
            let theta = work.xb[r] / d[r];
            self.apply_pivot(work, r, q, theta, &d, true)?;
        }
    }

    /// Runs phase 1 from the slack/artificial starting basis and returns a
    /// primal feasible basis, or `None` when the constraints are infeasible.
    ///
    /// # Errors
    /// Returns [`LpError::IterationLimit`] or [`LpError::Numerical`] from
    /// the underlying pivoting.
    pub fn find_feasible_basis(&mut self, options: &SimplexOptions) -> Result<Option<Basis>> {
        match self.phase1(options)? {
            Phase1Outcome::Feasible(work) => {
                let basis = Basis {
                    columns: work.basis.clone(),
                };
                self.cache = Some(*work);
                Ok(Some(basis))
            }
            Phase1Outcome::Infeasible => Ok(None),
        }
    }

    /// Solves `minimize/maximize objective` over the constraint set, warm
    /// starting from `basis`. Returns the solution and the optimal basis for
    /// reuse in the next call.
    ///
    /// The basis is repaired (completed with artificials) when it does not
    /// form a nonsingular matrix, and the engine transparently falls back to
    /// a fresh phase 1 when the basis is not primal feasible for the true
    /// right-hand side — so a stale or approximate basis degrades to a cold
    /// solve instead of failing. A basis feasible at the true right-hand
    /// side enters phase 2 directly, even when the anti-degeneracy
    /// perturbation would push its basic values negative.
    ///
    /// # Errors
    /// Returns [`LpError::IterationLimit`] or [`LpError::Numerical`] from
    /// the underlying pivoting.
    pub fn solve_from_basis(
        &mut self,
        objective: &[f64],
        sense: Sense,
        basis: &Basis,
        options: &SimplexOptions,
    ) -> Result<(LpSolution, Basis)> {
        let work = match self.prepare_work(basis, options)? {
            Some(work) => work,
            None => {
                return Ok((
                    LpSolution {
                        status: LpStatus::Infeasible,
                        objective: 0.0,
                        x: vec![0.0; self.n_struct],
                        iterations: 0,
                    },
                    basis.clone(),
                ))
            }
        };

        let maximize = sense == Sense::Maximize;
        let costs = self.phase2_costs(objective, maximize);
        self.finish_phase2(work, &costs, maximize, basis, options)
    }

    /// Phase-2 cost vector: structural costs (negated for maximization so
    /// the pivoting loops always minimize), zero on slacks and artificials.
    pub(crate) fn phase2_costs(&self, objective: &[f64], maximize: bool) -> Vec<f64> {
        let mut costs = vec![0.0; self.total_real + self.m];
        for (j, c) in objective.iter().take(self.n_struct).enumerate() {
            costs[j] = if maximize { -c } else { *c };
        }
        costs
    }

    /// Drives a primal-feasible `work` state to optimality and extracts the
    /// solution. Shared tail of the primal [`RevisedSimplex::solve_from_basis`]
    /// and the dual re-solve in [`crate::dual`] (which produces the
    /// primal-feasible state with dual pivots instead of phase 1).
    pub(crate) fn finish_phase2(
        &mut self,
        mut work: Work,
        costs: &[f64],
        maximize: bool,
        fallback_basis: &Basis,
        options: &SimplexOptions,
    ) -> Result<(LpSolution, Basis)> {
        // A numerical breakdown mid-solve (singular repair, lost
        // feasibility) is recovered from twice before giving up — the
        // warm-start state or the pivot path, not the problem, is usually
        // what went bad. The first recovery is *local*: a zero-objective
        // dual repair of the very basis that broke re-establishes primal
        // feasibility a few pivots from where the solve stopped (product-
        // form drift loses feasibility by ~1e-5, not by a restart's worth
        // of distance). Only when that fails does the solve restart from a
        // cold phase 1, under a fresh perturbation draw — the failed
        // attempt was deterministic, so restarting under the same draw
        // would walk the same pivot path into the same breakdown.
        let mut recovery_attempts = 0usize;
        let optimal = loop {
            let attempt = self.run_pivots(&mut work, costs, options, false);
            if let Ok(true) = attempt {
                if !self.restore_true_rhs(&mut work) {
                    // The perturbed-optimal basis is infeasible for the
                    // true right-hand side: dual-polish onto an adjacent
                    // true-rhs-optimal basis so the certified objective is
                    // exact instead of valid-but-loose. On failure the
                    // polish may have left a half-walked basis that is
                    // feasible for *neither* right-hand side, so the
                    // perturbed-optimal basis it started from is restored
                    // outright — that is the state the engine has always
                    // reported (solution residual bounded by the retained
                    // perturbation).
                    let saved = work.basis.clone();
                    match self.dual_polish_true_rhs(&mut work, costs) {
                        Ok(true) => {}
                        Ok(false) | Err(_) => {
                            if work.basis != saved {
                                if let Some(factor) = BasisFactor::factorize(self, &saved) {
                                    work.basis = saved;
                                    work.in_basis.fill(false);
                                    for &c in &work.basis {
                                        work.in_basis[c] = true;
                                    }
                                    work.factor = factor;
                                }
                            }
                            self.perturb_or_clamp(&mut work);
                        }
                    }
                }
            }
            match attempt {
                Ok(optimal) => break optimal,
                Err(LpError::Numerical(_)) if recovery_attempts < 2 => {
                    recovery_attempts += 1;
                    self.pert_salt.set(self.pert_salt.get().wrapping_add(1));
                    if recovery_attempts == 1 {
                        let failed = Basis::from_columns(work.basis.clone());
                        let repaired = self
                            .repair_primal_feasible(&failed, SeedFactor::default(), options)
                            .ok()
                            .flatten()
                            .and_then(|basis| self.prepare_work(&basis, options).ok().flatten());
                        if let Some(mut fresh) = repaired {
                            fresh.iterations += work.iterations;
                            work = fresh;
                            continue;
                        }
                    }
                    match self.phase1_into_option(options)? {
                        Some(mut fresh) => {
                            fresh.iterations += work.iterations;
                            work = fresh;
                        }
                        None => {
                            return Ok((
                                LpSolution {
                                    status: LpStatus::Infeasible,
                                    objective: 0.0,
                                    x: vec![0.0; self.n_struct],
                                    iterations: work.iterations,
                                },
                                fallback_basis.clone(),
                            ))
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        };
        if !optimal {
            self.cache = None;
            return Ok((
                LpSolution {
                    status: LpStatus::Unbounded,
                    objective: 0.0,
                    x: vec![0.0; self.n_struct],
                    iterations: work.iterations,
                },
                fallback_basis.clone(),
            ));
        }

        let mut x = vec![0.0; self.n_struct];
        for (position, &col) in work.basis.iter().enumerate() {
            if col < self.n_struct {
                let v = work.xb[position];
                x[col] = if v.abs() < options.tolerance { 0.0 } else { v };
            }
        }
        let min_objective = self.certified_objective(&mut work, costs);
        let solution = LpSolution {
            status: LpStatus::Optimal,
            objective: if maximize {
                -min_objective
            } else {
                min_objective
            },
            x,
            iterations: work.iterations,
        };
        let out_basis = Basis {
            columns: work.basis.clone(),
        };
        self.cache = Some(work);
        Ok((solution, out_basis))
    }

    /// Evaluates the optimal objective of the final basis against the
    /// **true** right-hand side: `c_B^T B^{-1} b`, which equals `y^T b` for
    /// the dual vector `y = B^{-T} c_B` of the optimal basis.
    ///
    /// This is the dual-feasibility-based correction for the anti-degeneracy
    /// perturbation. When the perturbation cannot be removed cleanly at
    /// optimality ([`RevisedSimplex::restore_true_rhs`] keeps the perturbed
    /// basic values for the *solution vector*), the objective evaluated at
    /// that vector would carry a `y^T delta` shift — up to ~1e-2 on LPs with
    /// dual prices of order 1e5 (the mean-queue-length bounds). Evaluating
    /// through the basis against `b` removes the shift exactly, and by weak
    /// duality `y^T b` is a *certified* bound on the true optimum whenever
    /// the final basis is dual feasible (which optimality guarantees up to
    /// the reduced-cost tolerance): for a minimization it can only
    /// undershoot the true minimum, never overshoot it.
    ///
    /// The factorization carries at most [`TRUSTED_ETA_COUNT`] etas here —
    /// `run_pivots` refactorizes before certifying optimality whenever the
    /// chain is longer, and every suspect (near-singular) eta forces an
    /// immediate refresh earlier — so the evaluation is a short product-form
    /// solve on top of a fresh LU, accurate far beyond the optimality
    /// tolerance on the instances the equivalence tests gate at 1e-6.
    fn certified_objective(&self, work: &mut Work, costs: &[f64]) -> f64 {
        let mut xb_true = self.b.clone();
        work.factor.ftran(&mut xb_true);
        work.basis
            .iter()
            .zip(xb_true.iter())
            .map(|(&c, &v)| costs[c] * v)
            .sum()
    }

    /// Cold solve of `problem`'s own objective: phase 1 followed by phase 2.
    ///
    /// # Errors
    /// Returns [`LpError::IterationLimit`] or [`LpError::Numerical`] from
    /// the underlying pivoting.
    pub fn solve(&mut self, problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution> {
        self.cache = None;
        self.pert_salt.set(options.perturbation_salt);
        let objective: Vec<f64> = problem.objective().to_vec();
        let sense = problem.sense();
        match self.find_feasible_basis(options)? {
            Some(basis) => {
                let (solution, _) = self.solve_from_basis(&objective, sense, &basis, options)?;
                Ok(solution)
            }
            None => Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: 0.0,
                x: vec![0.0; self.n_struct],
                iterations: 0,
            }),
        }
    }

    /// Turns a caller-supplied basis into ready-to-pivot state: reuse the
    /// cached factorization when the basis matches, otherwise repair /
    /// refactorize. Phase 1 runs only when the basis is infeasible for the
    /// **true** right-hand side; a basis that is merely infeasible for the
    /// perturbed one (see [`RevisedSimplex::perturb_or_clamp`]) enters
    /// phase 2 on the clamped true-rhs values. Returns `None` when the
    /// constraint set itself is infeasible.
    fn prepare_work(&mut self, basis: &Basis, options: &SimplexOptions) -> Result<Option<Work>> {
        let mut work = match self.cache.take().filter(|c| c.basis == basis.columns) {
            Some(mut cached) => {
                cached.iterations = 0;
                cached
            }
            None => {
                let total_cols = self.total_real + self.m;
                let mut columns: Vec<usize> = basis
                    .columns
                    .iter()
                    .copied()
                    .filter(|&c| c < total_cols)
                    .collect();
                columns.sort_unstable();
                columns.dedup();
                let mut factor = if columns.len() == self.m {
                    BasisFactor::factorize(self, &columns)
                } else {
                    None
                };
                if factor.is_none() {
                    columns = complete_basis(self, &basis.columns, self.total_real);
                    factor = BasisFactor::factorize(self, &columns);
                }
                let Some(factor) = factor else {
                    // Even the completed basis failed to factorize; start cold.
                    return self.phase1_into_option(options);
                };
                let mut in_basis = vec![false; total_cols];
                for &c in &columns {
                    in_basis[c] = true;
                }
                Work {
                    basis: columns,
                    in_basis,
                    xb: Vec::new(),
                    rhs: Vec::new(),
                    factor,
                    iterations: 0,
                    repairs: 0,
                }
            }
        };
        if self.perturb_or_clamp(&mut work) {
            Ok(Some(work))
        } else {
            self.phase1_into_option(options)
        }
    }

    /// Cold phase 1 prepared for phase-2 pivoting: the anti-degeneracy
    /// perturbation is (re)installed on the feasible work state, or the
    /// clamped true-rhs state kept (see [`RevisedSimplex::perturb_or_clamp`]).
    pub(crate) fn phase1_into_option(&mut self, options: &SimplexOptions) -> Result<Option<Work>> {
        match self.phase1(options)? {
            Phase1Outcome::Feasible(work) => {
                let mut work = *work;
                self.perturb_or_clamp(&mut work);
                Ok(Some(work))
            }
            Phase1Outcome::Infeasible => Ok(None),
        }
    }

    /// Phase 1: minimize the sum of artificial variables from the
    /// slack/artificial starting basis.
    fn phase1(&mut self, options: &SimplexOptions) -> Result<Phase1Outcome> {
        let total_cols = self.total_real + self.m;
        let basis = self.phase1_basis.clone();
        if mapqn_faults::fire(mapqn_faults::FaultSite::LpFactorization) {
            return Err(LpError::Numerical(
                "injected basis factorization fault".into(),
            ));
        }
        let factor = BasisFactor::factorize(self, &basis)
            .ok_or_else(|| LpError::Numerical("phase-1 starting basis is singular".into()))?;
        let mut in_basis = vec![false; total_cols];
        for &c in &basis {
            in_basis[c] = true;
        }
        let rhs = self.perturbed_rhs();
        let mut work = Work {
            basis,
            in_basis,
            // The starting basis is diagonal with +1 entries, so the basic
            // values are exactly the (perturbed) right-hand sides.
            xb: rhs.clone(),
            rhs,
            factor,
            iterations: 0,
            repairs: 0,
        };
        let mut costs = vec![0.0; total_cols];
        for c in costs.iter_mut().skip(self.total_real) {
            *c = 1.0;
        }
        let rhs_scale = 1.0 + self.b.iter().map(|v| v.abs()).sum::<f64>();
        let mut gray_zone_attempts = 0usize;
        let mut phase1_options = *options;
        loop {
            let optimal = self.run_pivots(&mut work, &costs, &phase1_options, true)?;
            if !optimal {
                // Phase 1 is bounded below by zero, so an "unbounded"
                // verdict can only be numerical (a drift-priced column with
                // no real pivot); report it as such (the callers' recovery
                // and the degradation ladder retry) instead of classifying
                // feasibility from a non-converged basis.
                return Err(LpError::Numerical(
                    "phase 1 failed to converge (no usable pivot for an improving column)"
                        .into(),
                ));
            }
            // Measure the verdict on the **true** right-hand side through a
            // clean factorization. The pivoting ran against the perturbed
            // rhs, where a redundant (or near-redundant) row is generically
            // *inconsistent* with the rows it depends on by the amplified
            // perturbation scale `||B^{-1} delta||` — the artificial
            // covering it then legitimately parks that inconsistency as a
            // positive basic value even at the exact perturbed optimum, so
            // the maintained values overstate true infeasibility (observed
            // at ~7e-7 with every reduced cost clean down to 1e-13). The
            // true system has no such inconsistency; what remains there is
            // genuine artificial mass plus at most tolerance-scale negative
            // transients, which phase 2's refactorization clamp handles
            // routinely.
            if work.factor.eta_count() > 0 {
                self.refresh_factor(&mut work, true)?;
            }
            let mut xb_true = self.b.clone();
            work.factor.ftran(&mut xb_true);
            let infeasibility: f64 = work
                .basis
                .iter()
                .zip(xb_true.iter())
                .filter(|(&c, _)| c >= self.total_real)
                .map(|(_, &v)| v.abs())
                .sum();
            let worst_negative = xb_true.iter().cloned().fold(0.0f64, f64::min);
            if infeasibility <= FEAS_TOL * rhs_scale && worst_negative >= -REFRESH_FEAS_TOL {
                // Adopt the (clamped) true-rhs state: the caller either
                // re-perturbs for phase 2 or keeps exactly this state.
                for v in &mut xb_true {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                work.rhs.copy_from_slice(&self.b);
                work.xb = xb_true;
                break;
            }
            let infeasibility = infeasibility + (-worst_negative).max(0.0);
            // A residual orders of magnitude above tolerance is genuine
            // infeasibility; one barely above it is a *premature stop*: the
            // vertex prices optimal within the reduced-cost tolerance, but
            // the true optimum of a feasible phase 1 is exactly zero, so
            // the leftover artificial mass is reachable through columns
            // whose reduced costs sit below the tolerance's radar.
            // Accepting such a residual is NOT an option — a start that is
            // infeasible by `r` shifts downstream objectives by up to
            // `|y| * r`, which on the mean-queue-length LPs (dual prices
            // ~1e5) turns a 1e-5 residual into a ~1e0 error in a reported
            // bound. Instead, *tighten the pricing tolerance* and resume
            // from a fresh factorization: the sub-tolerance improving
            // columns become visible and a handful of extra pivots drives
            // the residual to genuine zero. (Re-drawing the perturbation
            // alone does not help here: pricing is independent of the
            // right-hand side, so the same vertex immediately re-certifies
            // "optimal" under any draw.)
            if infeasibility > 1e-3 * rhs_scale {
                if lp_debug() {
                    eprintln!(
                        "phase1-infeasible-verdict: residual {infeasibility:.3e} after {} its",
                        work.iterations
                    );
                }
                return Ok(Phase1Outcome::Infeasible);
            }
            if gray_zone_attempts >= 3 {
                // Cannot certify feasibility or infeasibility at this
                // residual: a numerical failure, not an infeasible verdict.
                return Err(LpError::Numerical(
                    "phase 1 stalled with an ambiguous infeasibility residual".into(),
                ));
            }
            gray_zone_attempts += 1;
            phase1_options.tolerance = (phase1_options.tolerance / 100.0).max(1e-13);
            if lp_debug() {
                eprintln!(
                    "phase1-gray-zone: residual {infeasibility:.3e} after {} its, retightening to {:.0e}",
                    work.iterations, phase1_options.tolerance
                );
            }
            self.pert_salt.set(self.pert_salt.get().wrapping_add(1));
            self.refresh_factor(&mut work, true)?;
            self.perturb_or_clamp(&mut work);
        }
        self.drive_out_artificials(&mut work, options)?;
        Ok(Phase1Outcome::Feasible(Box::new(work)))
    }

    /// Pivots basic artificials out of the basis where a real column with a
    /// usable pivot exists; rows where none exists are redundant and keep
    /// their artificial basic at value zero (the phase-2 ratio test prevents
    /// it from ever becoming positive).
    fn drive_out_artificials(&self, work: &mut Work, options: &SimplexOptions) -> Result<()> {
        for position in 0..self.m {
            if work.basis[position] < self.total_real {
                continue;
            }
            // Row `position` of B^{-1}: rho = B^{-T} e_position.
            let mut rho = vec![0.0; self.m];
            rho[position] = 1.0;
            work.factor.btran(&mut rho);
            // Pivot on the non-basic column with the *largest* entry in
            // this row (mirroring the dense engine's drive-out fix): the
            // first qualifying column can have a near-tolerance pivot whose
            // eta would amplify round-off in every later FTRAN/BTRAN.
            let mut entering = None;
            let mut best = options.tolerance;
            for j in 0..self.total_real {
                if work.in_basis[j] {
                    continue;
                }
                let a = self.cols.col_dot(j, &rho).abs();
                if a > best {
                    best = a;
                    entering = Some(j);
                }
            }
            let Some(q) = entering else { continue };
            let mut d = vec![0.0; self.m];
            self.scatter_column(q, &mut d);
            work.factor.ftran(&mut d);
            if d[position].abs() <= PIVOT_TOL {
                continue;
            }
            // Still part of the phase-1 regime: artificials may remain basic
            // and feasibility is re-established by the caller's checks.
            self.apply_pivot(work, position, q, 0.0, &d, true)?;
        }
        Ok(())
    }

    /// Executes one basis exchange at `position` with entering column `q`,
    /// step length `theta` and FTRAN image `d`; refactorizes when the eta
    /// file is full.
    pub(crate) fn apply_pivot(
        &self,
        work: &mut Work,
        position: usize,
        q: usize,
        theta: f64,
        d: &[f64],
        phase1: bool,
    ) -> Result<()> {
        if theta != 0.0 {
            for (p, &dp) in d.iter().enumerate() {
                if dp != 0.0 {
                    let v = work.xb[p] - theta * dp;
                    // Clamp only Harris-slack-sized debts; a wider window
                    // would erase the anti-degeneracy perturbation.
                    work.xb[p] = if v < 0.0 && v > -RATIO_DELTA { 0.0 } else { v };
                }
            }
        }
        work.xb[position] = theta;
        work.in_basis[work.basis[position]] = false;
        work.in_basis[q] = true;
        work.basis[position] = q;
        work.factor.push_eta(position, d);
        work.iterations += 1;

        if work.factor.should_refactorize() {
            self.refresh_factor(work, phase1)?;
        }
        Ok(())
    }

    /// Rebuilds the factorization from the current basis columns and
    /// recomputes the basic values. When numerical drift has let a dependent
    /// column into the basis the basis is *repaired*: dependent columns are
    /// replaced with artificials via [`complete_basis`]. In phase 2 a repair
    /// (or recompute) that breaks primal feasibility is repaired in place
    /// when a column can fix it and clamped when none can (orphaned drift);
    /// a fixable violation the in-place repair cannot clear aborts the
    /// solve with a numerical error instead of silently continuing from an
    /// infeasible point.
    pub(crate) fn refresh_factor(&self, work: &mut Work, phase1: bool) -> Result<()> {
        if mapqn_faults::fire(mapqn_faults::FaultSite::LpFactorization) {
            return Err(LpError::Numerical(
                "injected basis factorization fault".into(),
            ));
        }
        let mut repaired = false;
        let factor = match BasisFactor::factorize(self, &work.basis) {
            Some(factor) => factor,
            None => {
                let columns = complete_basis(self, &work.basis, self.total_real);
                let factor = BasisFactor::factorize(self, &columns).ok_or_else(|| {
                    LpError::Numerical("basis is singular even after repair".into())
                })?;
                work.basis = columns;
                work.in_basis = vec![false; self.total_real + self.m];
                for &c in &work.basis {
                    work.in_basis[c] = true;
                }
                repaired = true;
                factor
            }
        };
        work.factor = factor;
        let mut xb = work.rhs.clone();
        work.factor.ftran(&mut xb);
        for v in &mut xb {
            if *v < 0.0 && *v > -REFRESH_FEAS_TOL {
                *v = 0.0;
            }
        }
        work.xb = xb;
        if !phase1 {
            let artificial_infeasible = repaired
                && work
                    .basis
                    .iter()
                    .zip(work.xb.iter())
                    .any(|(&c, &v)| c >= self.total_real && v > FEAS_TOL);
            let infeasible =
                work.xb.iter().any(|&v| v < -REFRESH_FEAS_TOL) || artificial_infeasible;
            if infeasible {
                // Distinguish *fixable* infeasibility from orphaned drift.
                // On near-redundant rows the exact basic value can sit a
                // few 1e-5 below zero while no non-basic column has a
                // usable entry in that row — no pivoting (primal, dual, or
                // a restart, which deterministically rebuilds the same
                // vertex) can repair it, so clamp the orphaned rows and
                // continue: the reported *objective* is certified
                // through the dual vector (`certified_objective`), which
                // never depended on primal exactness, and the residual in
                // the solution vector is bounded by the clamped amount.
                // Rows that a column *could* fix still abort the solve.
                let mut fixable = false;
                for (p, &v) in work.xb.iter().enumerate() {
                    if v >= -REFRESH_FEAS_TOL {
                        continue;
                    }
                    let mut rho = vec![0.0; self.m];
                    rho[p] = 1.0;
                    work.factor.btran(&mut rho);
                    for j in 0..self.total_real {
                        if !work.in_basis[j] && self.cols.col_dot(j, &rho) < -MIN_PIVOT {
                            fixable = true;
                            break;
                        }
                    }
                    if fixable {
                        break;
                    }
                }
                if fixable || artificial_infeasible {
                    if lp_debug() {
                        let worst = work.xb.iter().cloned().fold(0.0f64, f64::min);
                        eprintln!(
                            "refresh-lost-feasibility: worst xb {worst:.3e}, repaired {repaired}, m {}",
                            self.m
                        );
                    }
                    // Repair the rows **in place** on the fresh factor
                    // before giving up: a zero-objective dual pivot per
                    // violated row re-establishes primal feasibility a few
                    // exchanges from the current vertex, and the primal
                    // loop resumes from there (it only needs primal
                    // feasibility — the reduced costs are re-priced every
                    // iteration anyway). A cold restart would, on
                    // drift-prone instances, walk the same path into the
                    // same breakdown.
                    if work.repairs < MAX_IN_PLACE_REPAIRS
                        && self.repair_rows_in_place(work)?
                    {
                        work.repairs += 1;
                        for v in &mut work.xb {
                            if *v < 0.0 && *v > -REFRESH_FEAS_TOL {
                                *v = 0.0;
                            }
                        }
                        if work.xb.iter().all(|&v| v >= 0.0) {
                            return Ok(());
                        }
                    }
                    return Err(LpError::Numerical(
                        "refactorization lost primal feasibility".into(),
                    ));
                }
                for v in &mut work.xb {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }
        Ok(())
    }

    /// Zero-objective dual repair **in place**: exchanges the basic
    /// variable of every primally violated row (negative basic value, or a
    /// basic artificial away from zero) for the non-basic real column with
    /// the largest usable pivot in that row, until the basic values are
    /// non-negative or the pivot budget runs out.
    ///
    /// With zero costs every reduced cost stays zero, so any entering
    /// column is dual-legal and the choice is free — the numerically best
    /// (largest) pivot wins, exactly like the zero-objective lane of
    /// [`RevisedSimplex::repair_primal_feasible`], but operating on the
    /// *current* work state (perturbed right-hand side, fresh factor)
    /// instead of re-seeding from scratch. Returns `Ok(false)` when a row
    /// cannot be repaired within the budget; the caller then falls back to
    /// the error path.
    fn repair_rows_in_place(&self, work: &mut Work) -> Result<bool> {
        let mut rho = vec![0.0; self.m];
        let mut d = vec![0.0; self.m];
        // A violated row normally needs one exchange; the budget covers
        // every row once plus slack for freshly exposed violations.
        let mut budget = 2 * self.m + 16;
        loop {
            let mut leaving: Option<usize> = None;
            let mut worst = REFRESH_FEAS_TOL;
            for (p, &v) in work.xb.iter().enumerate() {
                let viol = if work.basis[p] >= self.total_real {
                    v.abs()
                } else {
                    -v
                };
                if viol > worst {
                    worst = viol;
                    leaving = Some(p);
                }
            }
            let Some(r) = leaving else {
                // Clamp the sub-threshold residue and report success.
                for v in &mut work.xb {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                return Ok(true);
            };
            if budget == 0 {
                if lp_debug() {
                    eprintln!("inplace-repair: budget exhausted (worst {worst:.3e})");
                }
                return Ok(false);
            }
            budget -= 1;

            // Row r of B^{-1}: candidate pivots are rho^T a_j. The sign
            // orients the exchange so the leaving value moves towards zero
            // (up for a negative basic, down for a positive artificial).
            rho.fill(0.0);
            rho[r] = 1.0;
            work.factor.btran(&mut rho);
            let s = if work.xb[r] < 0.0 { 1.0 } else { -1.0 };
            let mut entering: Option<usize> = None;
            let mut best_pivot = 0.0f64;
            for j in 0..self.total_real {
                if work.in_basis[j] {
                    continue;
                }
                let alpha = self.cols.col_dot(j, &rho);
                if s * alpha < -MIN_PIVOT && alpha.abs() > best_pivot.abs() {
                    best_pivot = alpha;
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                if lp_debug() {
                    eprintln!("inplace-repair: no entering for row {r} (viol {worst:.3e})");
                }
                return Ok(false);
            };
            d.fill(0.0);
            self.scatter_column(q, &mut d);
            work.factor.ftran(&mut d);
            // Cross-check the FTRAN pivot against the BTRAN row value: the
            // step is taken with the FTRAN image, so what matters is that
            // the two solves see the *same usable pivot* — same sign, solid
            // magnitude, agreeing to well under the pivot's own scale. On
            // these ill-conditioned bases the two directions legitimately
            // disagree at round-off-amplified (~1e-6) absolute levels even
            // from a fresh factor, so the agreement tolerance is relative
            // and loose; a sign flip or order-of-magnitude gap still means
            // the factor is unreliable and the repair cannot be trusted.
            if (d[r] - best_pivot).abs() > 1e-3 * best_pivot.abs()
                || d[r].abs() < MIN_PIVOT
                || d[r].signum() != best_pivot.signum()
            {
                if lp_debug() {
                    eprintln!(
                        "inplace-repair: pivot cross-check failed row {r}: ftran {:.3e} vs btran {:.3e}",
                        d[r], best_pivot
                    );
                }
                return Ok(false);
            }
            let theta = work.xb[r] / d[r];
            self.apply_pivot(work, r, q, theta, &d, true)?;
        }
    }

    /// Harris two-pass ratio test over rows whose pivot entry exceeds
    /// `pivot_floor`. Pass 1 computes the step bound *relaxed by the
    /// feasibility tolerance in the numerator* — `(x_B + delta) / d` — over
    /// every participating row; the slack is what makes the test
    /// numerically sound: if the strictly binding row has a near-zero
    /// pivot, a row with a solid pivot and an only-delta-worse ratio can
    /// leave instead, at the cost of a transient infeasibility of at most
    /// `delta` (clamped away by the update). Rows holding a basic
    /// artificial that the step would increase (`d < 0`) bound the step in
    /// phase 2 through the same slack, since artificials must stay at ~zero
    /// once feasibility is reached.
    ///
    /// Pass 2 picks the leaving row among those whose *strict* ratio fits
    /// under the relaxed bound: largest pivot magnitude for stability, or
    /// smallest basic index in Bland mode (anti-cycling; callers pass
    /// `delta = 0` there, because Harris's slack re-admits the degenerate
    /// pivots Bland's rule exists to order, and the combination can cycle).
    ///
    /// Returns `(position, theta, pivot)` of the chosen row, or `None` when
    /// no participating row bounds the step.
    fn ratio_test(
        &self,
        work: &Work,
        d: &[f64],
        delta: f64,
        pivot_floor: f64,
        phase1: bool,
        bland_mode: bool,
    ) -> Option<(usize, f64, f64)> {
        let mut theta_relaxed = f64::INFINITY;
        for (p, &dp) in d.iter().enumerate() {
            if dp > pivot_floor {
                theta_relaxed = theta_relaxed.min((work.xb[p].max(0.0) + delta) / dp);
            } else if !phase1 && dp < -PIVOT_TOL && work.basis[p] >= self.total_real {
                theta_relaxed = theta_relaxed.min(delta / -dp);
            }
        }
        if theta_relaxed == f64::INFINITY {
            return None;
        }
        let mut leaving: Option<usize> = None;
        let mut best_pivot = 0.0f64;
        let mut theta = 0.0f64;
        for (p, &dp) in d.iter().enumerate() {
            let strict_ratio = if dp > pivot_floor {
                work.xb[p].max(0.0) / dp
            } else if !phase1 && dp < -PIVOT_TOL && work.basis[p] >= self.total_real {
                0.0
            } else {
                continue;
            };
            if strict_ratio > theta_relaxed {
                continue;
            }
            let better = match leaving {
                None => true,
                Some(lp) => {
                    if bland_mode {
                        work.basis[p] < work.basis[lp]
                    } else {
                        dp.abs() > best_pivot.abs()
                    }
                }
            };
            if better {
                best_pivot = dp;
                theta = strict_ratio;
                leaving = Some(p);
            }
        }
        leaving.map(|p| (p, theta, best_pivot))
    }

    /// Core pivoting loop minimizing `costs` over the real (non-artificial)
    /// columns, or over all columns in phase 1. Returns `Ok(true)` on
    /// optimality, `Ok(false)` on unboundedness.
    fn run_pivots(
        &self,
        work: &mut Work,
        costs: &[f64],
        options: &SimplexOptions,
        phase1: bool,
    ) -> Result<bool> {
        let tol = options.tolerance;
        let mut stall_counter = 0usize;
        let mut best_objective = f64::INFINITY;
        let mut bland_mode = false;
        let mut y = vec![0.0; self.m];
        let mut d = vec![0.0; self.m];

        loop {
            if work.iterations >= options.max_iterations
                || mapqn_faults::fire(mapqn_faults::FaultSite::LpIterations)
            {
                return Err(LpError::IterationLimit {
                    limit: options.max_iterations,
                });
            }
            options
                .budget
                .check(work.iterations as u64)
                .map_err(LpError::BudgetExhausted)?;
            if stall_counter >= STALL_THRESHOLD {
                bland_mode = true;
            }

            // BTRAN: y = B^{-T} c_B, then price the non-basic real columns.
            for (p, &c) in work.basis.iter().enumerate() {
                y[p] = costs[c];
            }
            work.factor.btran(&mut y);

            let mut entering: Option<usize> = None;
            let mut most_negative = -tol;
            for (j, &cost) in costs.iter().enumerate().take(self.total_real) {
                if work.in_basis[j] {
                    continue;
                }
                let rc = cost - self.cols.col_dot(j, &y);
                if rc < -tol {
                    if bland_mode {
                        entering = Some(j);
                        break;
                    }
                    if rc < most_negative {
                        most_negative = rc;
                        entering = Some(j);
                    }
                }
            }
            let Some(q) = entering else {
                // Apparent optimality after a long pivot chain is only
                // trusted from a fresh factorization: the eta product form
                // drifts away from the true basis, and reduced costs
                // computed from a drifted factor can declare a far-from
                // optimal (or even infeasible) point "optimal". Refactorize
                // from the actual basis columns and re-price; a clean factor
                // either confirms optimality or surfaces the remaining work.
                // A short chain (TRUSTED_ETA_COUNT) is accepted as is —
                // paying a full factorization to confirm a five-pivot solve
                // costs more than the solve.
                if work.factor.eta_count() > TRUSTED_ETA_COUNT {
                    self.refresh_factor(work, phase1)?;
                    continue;
                }
                return Ok(true);
            };

            // FTRAN: d = B^{-1} a_q.
            d.fill(0.0);
            self.scatter_column(q, &mut d);
            work.factor.ftran(&mut d);

            // Harris ratio test (see `ratio_test`), without the slack in
            // Bland mode: Harris's slack re-admits the degenerate pivots
            // Bland's rule exists to order, and the combination can cycle.
            let delta = if bland_mode { 0.0 } else { RATIO_DELTA };
            // The test runs twice when needed. The first attempt considers
            // only rows with a *solid* pivot entry (`> MIN_PIVOT`): on the
            // ill-conditioned bound LPs, rows with noise-level entries
            // (1e-9..1e-7, mostly drift over true zeros) and ~zero basic
            // values otherwise capture the minimum ratio and force the
            // engine onto near-singular pivots. A step longer than
            // MAX_SOLID_PASS_STEP is re-chosen by the strict test over
            // every row.
            let mut choice = self.ratio_test(work, &d, delta, MIN_PIVOT, phase1, bland_mode);
            match choice {
                Some((_, theta, _)) if theta <= MAX_SOLID_PASS_STEP => {}
                _ => choice = self.ratio_test(work, &d, delta, PIVOT_TOL, phase1, bland_mode),
            }
            let Some((position, theta, best_pivot)) = choice else {
                // An unbounded verdict on the bound LPs (whose feasible set
                // is inside the probability simplex) is always numerical:
                // the entering column's computed image is drift over true
                // zeros. Trusted only from a fresh factorization.
                if work.factor.eta_count() > 0 {
                    self.refresh_factor(work, phase1)?;
                    continue;
                }
                if lp_debug() {
                    let dmax = d.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
                    eprintln!(
                        "unbounded-verdict: col {q}, max |d| {dmax:.3e}, iterations {}",
                        work.iterations
                    );
                }
                return Ok(false);
            };

            // A tiny pivot under a stale factorization is suspect: the true
            // entry may be zero and the computed value pure eta drift.
            // Refactorize and re-price instead of poisoning the basis. One
            // still below MIN_PIVOT from a fresh factorization fails the
            // solve.
            if best_pivot.abs() < SUSPECT_PIVOT && work.factor.eta_count() > 0 {
                self.refresh_factor(work, phase1)?;
                continue;
            }
            if best_pivot.abs() < MIN_PIVOT {
                if lp_debug() {
                    eprintln!(
                        "tiny-pivot: col {q} pivot {best_pivot:.3e} theta {theta:.3e} at iteration {}",
                        work.iterations
                    );
                }
                return Err(LpError::Numerical(format!(
                    "no usable pivot for improving column {q} (best {best_pivot:.3e})"
                )));
            }
            self.apply_pivot(work, position, q, theta, &d, phase1)?;

            let current_objective: f64 = work
                .basis
                .iter()
                .zip(work.xb.iter())
                .map(|(&c, &v)| costs[c] * v)
                .sum();
            if current_objective < best_objective - tol {
                best_objective = current_objective;
                stall_counter = 0;
            } else {
                stall_counter += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    fn revised_solve(lp: &LpProblem) -> LpSolution {
        let mut engine = RevisedSimplex::new(lp).unwrap();
        engine.solve(lp, &SimplexOptions::default()).unwrap()
    }

    #[test]
    fn maximization_with_le_constraints() {
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 3.0), (1, 2.0)]);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 4.0);
        lp.add_le(&[(0, 1.0)], 2.0);
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 10.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        let mut lp = LpProblem::new(2, Sense::Minimize);
        lp.set_objective(&[(0, 2.0), (1, 3.0)]);
        lp.add_ge(&[(0, 1.0), (1, 1.0)], 10.0);
        lp.add_ge(&[(0, 1.0)], 3.0);
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 20.0);
    }

    #[test]
    fn equality_probability_style_and_warm_restart_between_senses() {
        let mut lp = LpProblem::new(3, Sense::Maximize);
        lp.set_objective(&[(2, 1.0)]);
        lp.add_eq(&[(0, 1.0), (1, 1.0), (2, 1.0)], 1.0);
        lp.add_le(&[(1, 1.0), (2, 2.0)], 1.2);

        let mut engine = RevisedSimplex::new(&lp).unwrap();
        let options = SimplexOptions::default();
        let basis = engine
            .find_feasible_basis(&options)
            .unwrap()
            .expect("feasible");
        let objective = vec![0.0, 0.0, 1.0];
        let (max_sol, basis) = engine
            .solve_from_basis(&objective, Sense::Maximize, &basis, &options)
            .unwrap();
        assert_eq!(max_sol.status, LpStatus::Optimal);
        assert_close(max_sol.objective, 0.6);
        let (min_sol, _) = engine
            .solve_from_basis(&objective, Sense::Minimize, &basis, &options)
            .unwrap();
        assert_eq!(min_sol.status, LpStatus::Optimal);
        assert_close(min_sol.objective, 0.0);
    }

    #[test]
    fn verify_basis_accepts_solved_and_rejects_corrupted() {
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 3.0), (1, 2.0)]);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 4.0);
        lp.add_le(&[(0, 1.0)], 2.0);
        let mut engine = RevisedSimplex::new(&lp).unwrap();
        let options = SimplexOptions::default();
        let basis = engine
            .find_feasible_basis(&options)
            .unwrap()
            .expect("feasible");
        let (_, basis) = engine
            .solve_from_basis(&[3.0, 2.0], Sense::Maximize, &basis, &options)
            .unwrap();

        let report = engine.verify_basis(&basis, 1e-7);
        assert!(report.is_intact(), "{report:?}");

        // Duplicate a column: the repair count must flag it.
        let cols = basis.columns().to_vec();
        let mut corrupted = cols.clone();
        corrupted[0] = corrupted[cols.len() - 1];
        let report = engine.verify_basis(&Basis::from_columns(corrupted), 1e-7);
        assert!(!report.is_intact());
        assert!(report.repaired_columns > 0);

        // Out-of-range garbage likewise.
        let mut garbage = cols;
        garbage[0] = usize::MAX / 2;
        let report = engine.verify_basis(&Basis::from_columns(garbage), 1e-7);
        assert!(!report.is_intact());
    }

    #[test]
    fn infeasible_problem_is_detected() {
        let mut lp = LpProblem::new(1, Sense::Minimize);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_le(&[(0, 1.0)], 1.0);
        lp.add_ge(&[(0, 1.0)], 2.0);
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Infeasible);
        let mut engine = RevisedSimplex::new(&lp).unwrap();
        assert!(engine
            .find_feasible_basis(&SimplexOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn unbounded_problem_is_detected() {
        let mut lp = LpProblem::new(1, Sense::Maximize);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_ge(&[(0, 1.0)], 1.0);
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        let mut lp = LpProblem::new(2, Sense::Minimize);
        lp.set_objective(&[(1, 1.0)]);
        lp.add_le(&[(0, 1.0), (1, -1.0)], -2.0);
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_eq(&[(0, 1.0), (1, 1.0)], 1.0);
        lp.add_eq(&[(0, 2.0), (1, 2.0)], 2.0);
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 1.0), (1, 1.0)]);
        lp.add_le(&[(0, 1.0)], 1.0);
        lp.add_le(&[(1, 1.0)], 1.0);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 2.0);
        lp.add_le(&[(0, 2.0), (1, 2.0)], 4.0);
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn warm_start_with_stale_basis_degrades_to_cold_solve() {
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 3.0), (1, 2.0)]);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 4.0);
        lp.add_le(&[(0, 1.0)], 2.0);
        let mut engine = RevisedSimplex::new(&lp).unwrap();
        let options = SimplexOptions::default();
        // A nonsense basis (out-of-range and duplicate entries).
        let stale = Basis::from_columns(vec![999, 0, 0]);
        let (solution, _) = engine
            .solve_from_basis(&[3.0, 2.0], Sense::Maximize, &stale, &options)
            .unwrap();
        assert_eq!(solution.status, LpStatus::Optimal);
        assert_close(solution.objective, 10.0);
    }

    /// `max x2 s.t. x1 + c x2 <= 1`: the only improving column pivots on
    /// `c` from a fresh factorization, so `c` below [`MIN_PIVOT`] must fail
    /// the solve as numerical, never report an optimum, and `c` above it
    /// must pivot to the dense tableau's optimum `1 / c`.
    #[test]
    fn tiny_pivot_from_a_fresh_factor_is_a_numerical_failure() {
        let problem = |c: f64| {
            let mut lp = LpProblem::new(2, Sense::Maximize);
            lp.set_objective(&[(1, 1.0)]);
            lp.add_le(&[(0, 1.0), (1, c)], 1.0);
            lp
        };
        for c in [1e-8, 5e-8] {
            let lp = problem(c);
            let mut engine = RevisedSimplex::new(&lp).unwrap();
            let result = engine.solve(&lp, &SimplexOptions::default());
            assert!(
                matches!(result, Err(LpError::Numerical(_))),
                "c = {c}: {result:?}"
            );
        }
        let lp = problem(2e-7);
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 5e6).abs() <= 1e-9 * 5e6, "{}", s.objective);
        let dense = lp
            .solve_with(&SimplexOptions {
                engine: crate::simplex::SimplexEngine::DenseTableau,
                ..SimplexOptions::default()
            })
            .unwrap();
        assert_eq!(dense.status, LpStatus::Optimal);
        assert!((s.objective - dense.objective).abs() <= 1e-9 * 5e6);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 1.0), (1, 1.0)]);
        lp.add_le(&[(0, 1.0), (1, 2.0)], 10.0);
        let options = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        let mut engine = RevisedSimplex::new(&lp).unwrap();
        assert!(matches!(
            engine.solve(&lp, &options),
            Err(LpError::IterationLimit { limit: 0 })
        ));
    }

    #[test]
    fn many_pivots_cross_the_refactorization_interval() {
        // A staircase problem that needs well over REFACTOR_INTERVAL pivots,
        // exercising the eta-file refactorization path.
        let n = 150;
        let mut lp = LpProblem::new(n, Sense::Maximize);
        let obj: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0 + (j % 3) as f64)).collect();
        lp.set_objective(&obj);
        for j in 0..n {
            lp.add_le(&[(j, 1.0)], 1.0 + (j % 7) as f64);
        }
        let s = revised_solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        let expected: f64 = (0..n)
            .map(|j| (1.0 + (j % 3) as f64) * (1.0 + (j % 7) as f64))
            .sum();
        assert_close(s.objective, expected);
        assert!(s.iterations >= n);
    }
}

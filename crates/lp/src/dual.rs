//! Dual simplex re-solves over the standard form of [`crate::revised`].
//!
//! ## Why a dual engine
//!
//! The primal warm start of [`RevisedSimplex::solve_from_basis`] is the
//! right tool when the **objective** changes over a fixed feasible region:
//! the previous optimal basis stays primal feasible and re-pricing walks to
//! the new optimum in a handful of pivots. It is the wrong tool when the
//! **constraint set** changes — a basis carried from the same network at a
//! neighbouring population is rarely primal feasible for the new right-hand
//! side, so the engine falls back to a cold phase 1 (measured in PR 1:
//! cross-population seeding bought ~nothing).
//!
//! What that carried basis *does* retain is **dual feasibility**: it was
//! optimal for the *same objective* on the neighbouring problem, so its
//! reduced costs — which depend on the columns and costs, not on the
//! right-hand side — are still (near-)non-negative. The dual simplex
//! exploits exactly this: starting from a dual-feasible basis it repairs
//! primal infeasibility row by row (each pivot exchanges an infeasible
//! basic variable for a column chosen by the *dual ratio test*, which keeps
//! the reduced costs non-negative), terminating as soon as the basic values
//! are non-negative — at which point the basis is primal *and* dual
//! feasible, i.e. optimal.
//!
//! [`RevisedSimplex::solve_dual_from_basis`] packages this as a fallible
//! fast path: it checks dual feasibility of the seeded basis, runs the dual
//! pivoting loop on the true right-hand side, and hands the resulting
//! primal-feasible state to the shared phase-2 machinery (which certifies
//! optimality and the objective). Whenever the seed is unusable — not dual
//! feasible, no usable dual pivot, budget exhausted — it returns `Ok(None)`
//! and the caller falls back to the primal path, so a bad seed degrades to
//! exactly the behaviour the engine had before.
//!
//! ## Bound flipping
//!
//! The classical "bound-flipping" (long-step) dual ratio test passes over
//! columns whose reduced cost crosses zero by flipping them to their
//! *opposite finite bound* instead of entering them. Every variable in this
//! standard form is non-negative with **no finite upper bound**, so there is
//! no bound to flip to: a reduced cost driven negative would make the seed
//! dual infeasible outright. The ratio test below therefore implements the
//! bounded-step (Harris two-pass) variant, and the long-step machinery
//! degenerates away; if upper-bounded variables are ever added to
//! [`crate::problem::LpProblem`], this is the place to extend.
//!
//! The LU/eta machinery is shared with the primal engine
//! (`crate::basis::BasisFactor`): dual pivots push the same product-form
//! updates and trigger the same periodic refactorization.

use crate::basis::{complete_basis, BasisFactor, ColumnSource};
use crate::problem::Sense;
use crate::revised::{Basis, RevisedSimplex, Work, FEAS_TOL, MIN_PIVOT, PIVOT_TOL, SUSPECT_PIVOT};
use crate::simplex::{LpSolution, SimplexOptions};
use crate::{LpError, Result};

/// Whether `MAPQN_DUAL_DEBUG` tracing is on — read once per process. Prints
/// why a dual warm start was rejected and how an accepted one went.
fn dual_debug() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("MAPQN_DUAL_DEBUG").is_some())
}

/// Dual-feasibility tolerance for accepting a seeded basis, scaled by the
/// magnitude of the dual prices (like the primal engine's scale-aware
/// optimality verdict): a reduced cost negative within the pricing noise
/// floor does not disqualify a seed.
const DUAL_SEED_TOL: f64 = 1e-7;

/// Harris-style relaxation of the dual ratio test: how far a reduced cost
/// may be driven negative by a pivot chosen for numerical stability. Kept at
/// the primal engine's ratio-slack scale.
const DUAL_RATIO_DELTA: f64 = 1e-9;

/// Rounds of dual pivots with *no sign of progress* before the solve is
/// abandoned. Progress is measured on two signals, either of which resets
/// the counter: an increase of the dual objective `c_B^T x_B = y^T b` (the
/// quantity dual pivots improve monotonically), or a decrease of the worst
/// primal violation. Neither alone suffices on these massively degenerate
/// LPs — the dual objective plateaus across long stretches of legitimate
/// degenerate pivots, while the worst violation legitimately *rises* when
/// repairing one row exposes another — but a stretch where both stand
/// still is a repair going nowhere; the caller's primal fallback is always
/// available, so bailing out early is cheap insurance against cycling.
const DUAL_STALL_LIMIT: usize = 24;

/// Hard cap on dual pivots per re-solve. A *good* seed — the optimal basis
/// of the same objective at a neighbouring population — repairs in roughly
/// the number of rows the population step added (~a dozen per step on the
/// bound LPs); the cap is an order of magnitude above that, leaving the
/// stall detector as the primary bad-seed rejector. Measured on the SCV=16
/// case study, repairs that ran past this point produced *worse* end-to-end
/// times than the primal fallback (the repaired-but-far vertex then needs a
/// long primal walk on top), so the cap keeps a pathological seed's cost at
/// one factorization plus a bounded pivot count.
const DUAL_PIVOT_BUDGET: usize = 192;

/// Eta-chain length beyond which the loop's primal-feasibility verdict is
/// confirmed from a fresh factorization before the repaired state is handed
/// to phase 2. A long chain of dual pivots on the ill-conditioned bound LPs
/// can drift far enough that the *maintained* basic values read feasible
/// while the true vertex is macroscopically infeasible — the downstream
/// primal run then "loses" feasibility at its first refactorization and
/// dies chasing a fiction (observed at chain length ~60 on salted random
/// models: maintained `xb` clean, true worst value `-0.36`). Short chains —
/// the dual-warm fast path of a population sweep repairs in a handful of
/// pivots — are trusted as is, keeping that path refactorization-free.
const DUAL_VERIFY_ETA_COUNT: usize = 16;

/// How the dual engine disposed of a seeded re-solve; returned alongside the
/// solution so sweep drivers can report warm-start effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualOutcome {
    /// The seed was dual feasible and the dual pivoting loop reached primal
    /// feasibility; the field counts the dual pivots spent.
    Warm {
        /// Number of dual pivots performed before primal feasibility.
        dual_pivots: usize,
    },
}

impl RevisedSimplex {
    /// Re-solves `minimize/maximize objective` starting from `seed`, a basis
    /// carried over from a *related* problem (same constraint structure,
    /// different right-hand side — typically the same network at a
    /// neighbouring population), using the dual simplex.
    ///
    /// Returns `Ok(None)` when the seed is unusable — it cannot be repaired
    /// into a nonsingular basis, it is not dual feasible for this objective,
    /// or the dual pivoting loop stalls or finds no usable pivot. The caller
    /// should then fall back to [`RevisedSimplex::solve_from_basis`], which
    /// handles every remaining case (including cold starts); this method
    /// never makes a seed *worse* than not having one.
    ///
    /// # Errors
    /// Propagates [`crate::LpError`] from the shared phase-2 finishing run
    /// (iteration limit, unrecoverable numerical failure).
    pub fn solve_dual_from_basis(
        &mut self,
        objective: &[f64],
        sense: Sense,
        seed: &Basis,
        options: &SimplexOptions,
    ) -> Result<Option<(LpSolution, Basis, DualOutcome)>> {
        let maximize = sense == Sense::Maximize;
        let costs = self.phase2_costs(objective, maximize);

        let debug = dual_debug();
        let t_start = mapqn_linalg::budget::now();
        let Some(mut work) = self.seed_work(seed) else {
            if debug { eprintln!("dual-reject: seed factorization failed"); }
            return Ok(None);
        };
        let t_seed = t_start.elapsed().as_secs_f64() * 1e3;
        let Some((mut reduced, mut excluded)) =
            self.dual_feasible_reduced_costs(&mut work, &costs)
        else {
            if debug { eprintln!("dual-reject: seed not dual feasible"); }
            return Ok(None);
        };

        // Dual pivoting loop on the TRUE right-hand side (the anti-
        // degeneracy perturbation fights *primal* degeneracy during primal
        // pivoting; here negative basic values are the working signal, and
        // the stall guard below covers dual degeneracy).
        let mut dual_pivots = 0usize;
        let mut best_dual_objective = f64::NEG_INFINITY;
        let mut best_infeasibility = f64::INFINITY;
        let mut stall = 0usize;
        let mut rho = vec![0.0; self.m];
        let mut alpha = vec![0.0; self.total_real];
        let mut dcol = vec![0.0; self.m];
        let pivot_budget = DUAL_PIVOT_BUDGET;

        loop {
            // Leaving row: the most primally infeasible basic value. Basic
            // artificials are infeasible at *any* nonzero value (they stand
            // in for a violated row), so they are targeted from both sides.
            let mut leaving: Option<usize> = None;
            let mut worst = FEAS_TOL;
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
                // Primal feasible — but only as measured through the eta
                // chain. Confirm a non-trivial chain's verdict from a fresh
                // factorization: if true violations surface, the loop
                // continues from clean numbers (and the next apparent
                // feasibility, at zero etas, is final).
                if work.factor.eta_count() > DUAL_VERIFY_ETA_COUNT {
                    if self
                        .refresh_dual(&mut work, &costs, &mut reduced, &mut excluded)
                        .is_none()
                    {
                        if debug {
                            eprintln!("dual-reject: verification refresh failed");
                        }
                        return Ok(None);
                    }
                    let worst_true = work
                        .xb
                        .iter()
                        .enumerate()
                        .map(|(p, &v)| {
                            if work.basis[p] >= self.total_real {
                                v.abs()
                            } else {
                                -v
                            }
                        })
                        .fold(0.0f64, f64::max);
                    if worst_true > FEAS_TOL {
                        if debug {
                            eprintln!(
                                "dual-verify: eta-chain feasibility was fiction (true worst {worst_true:.3e}), resuming from fresh factor"
                            );
                        }
                        continue;
                    }
                }
                break; // primal feasible: the seed basis is optimal.
            };
            // The solve budget is a hard error (not a soft rejection): a
            // rejection would silently re-run the cold primal path, spending
            // the very time the budget is supposed to cap.
            options
                .budget
                .check(work.iterations as u64)
                .map_err(LpError::BudgetExhausted)?;
            if dual_pivots >= pivot_budget
                || work.iterations >= options.max_iterations
                || mapqn_faults::fire(mapqn_faults::FaultSite::LpIterations)
            {
                if debug { eprintln!("dual-reject: pivot budget exhausted ({dual_pivots})"); }
                return Ok(None);
            }
            let dual_objective: f64 = work
                .basis
                .iter()
                .zip(work.xb.iter())
                .map(|(&c, &v)| costs[c] * v)
                .sum();
            let mut progressed = false;
            if dual_objective > best_dual_objective + FEAS_TOL * (1.0 + dual_objective.abs()) {
                best_dual_objective = dual_objective;
                progressed = true;
            }
            if worst < best_infeasibility - FEAS_TOL {
                best_infeasibility = worst;
                progressed = true;
            }
            if progressed {
                stall = 0;
            } else {
                stall += 1;
                if stall >= DUAL_STALL_LIMIT {
                    if debug { eprintln!("dual-reject: stalled after {dual_pivots} pivots (worst viol {worst:.2e})"); }
                    return Ok(None);
                }
            }

            // Row r of B^{-1} A: rho = B^{-T} e_r, alpha_j = rho^T a_j.
            // The sign `s` orients the test so the leaving variable moves
            // towards zero: upwards for an ordinary basic below its bound
            // (x_r < 0), downwards for a positive basic artificial.
            rho.fill(0.0);
            rho[r] = 1.0;
            work.factor.btran(&mut rho);
            let s = if work.xb[r] < 0.0 { 1.0 } else { -1.0 };

            // Harris two-pass dual ratio test over the non-basic real
            // columns. Pass 1 finds the smallest reduced-cost ratio with the
            // costs relaxed by DUAL_RATIO_DELTA; pass 2 picks, among the
            // columns whose strict ratio fits under that bound, the one with
            // the largest pivot magnitude (stability). Artificial columns
            // never re-enter.
            let mut t_relaxed = f64::INFINITY;
            for j in 0..self.total_real {
                if work.in_basis[j] || excluded[j] {
                    alpha[j] = 0.0;
                    continue;
                }
                let a = self.cols.col_dot(j, &rho);
                alpha[j] = a;
                let directional = s * a;
                if directional < -PIVOT_TOL {
                    let t = (reduced[j].max(0.0) + DUAL_RATIO_DELTA) / -directional;
                    t_relaxed = t_relaxed.min(t);
                }
            }
            if t_relaxed == f64::INFINITY {
                // No column can absorb this row's infeasibility: the problem
                // is primal infeasible along this row, or (on the LPs this
                // workspace solves, which are always feasible) the carried
                // basis is numerically hopeless. Either way: fall back.
                if debug { eprintln!("dual-reject: no entering candidate (pivots {dual_pivots})"); }
                return Ok(None);
            }
            let mut entering: Option<usize> = None;
            let mut best_pivot = 0.0f64;
            for j in 0..self.total_real {
                if work.in_basis[j] || excluded[j] {
                    continue;
                }
                let directional = s * alpha[j];
                if directional >= -PIVOT_TOL {
                    continue;
                }
                let strict = reduced[j].max(0.0) / -directional;
                if strict <= t_relaxed && alpha[j].abs() > best_pivot.abs() {
                    best_pivot = alpha[j];
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                if debug { eprintln!("dual-reject: no pivot under relaxed bound (pivots {dual_pivots})"); }
                return Ok(None);
            };

            // A suspect pivot under a stale eta file: refactorize, recompute
            // the state, and retry the row from clean numbers.
            if best_pivot.abs() < SUSPECT_PIVOT && work.factor.eta_count() > 0 {
                if self
                    .refresh_dual(&mut work, &costs, &mut reduced, &mut excluded)
                    .is_none()
                {
                    return Ok(None);
                }
                continue;
            }
            if best_pivot.abs() < MIN_PIVOT {
                if debug { eprintln!("dual-reject: tiny dual pivot (pivots {dual_pivots})"); }
                return Ok(None);
            }

            // FTRAN the entering column and cross-check the pivot the row
            // computation promised: a meaningful mismatch means the factor
            // has drifted, so refresh and retry (or give up without etas).
            dcol.fill(0.0);
            self.scatter_column(q, &mut dcol);
            work.factor.ftran(&mut dcol);
            let pivot = dcol[r];
            if (pivot - alpha[q]).abs() > 1e-6 * (1.0 + alpha[q].abs())
                || pivot.abs() < MIN_PIVOT
                || pivot.signum() != alpha[q].signum()
            {
                if work.factor.eta_count() > 0 {
                    if self
                        .refresh_dual(&mut work, &costs, &mut reduced, &mut excluded)
                        .is_none()
                    {
                        return Ok(None);
                    }
                    continue;
                }
                return Ok(None);
            }

            // Dual price update from the row already in hand:
            // d_j <- d_j - tau * alpha_j with tau = d_q / alpha_q; the
            // leaving column re-enters the non-basic set at d = -tau.
            let tau = reduced[q] / pivot;
            let leaving_col = work.basis[r];
            for j in 0..self.total_real {
                if !work.in_basis[j] {
                    reduced[j] -= tau * alpha[j];
                }
            }
            reduced[q] = 0.0;
            if leaving_col < self.total_real {
                reduced[leaving_col] = -tau;
            }

            // Basis exchange through the shared eta machinery (phase1 mode:
            // the interval refactorization must not enforce primal
            // feasibility mid-repair).
            let theta = work.xb[r] / pivot;
            self.apply_pivot(&mut work, r, q, theta, &dcol, true)?;
            dual_pivots += 1;
        }

        // Primal feasible (to FEAS_TOL) and dual feasible: hand the state to
        // the shared phase-2 machinery, which installs the anti-degeneracy
        // perturbation, polishes any tolerance-scale residue, certifies
        // optimality from a fresh factorization and extracts the solution.
        for v in &mut work.xb {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        if !self.apply_perturbation(&mut work) {
            // The perturbed recompute can come back infeasible on an
            // ill-conditioned basis (B^{-1} delta amplifies the 1e-8 draw
            // well past the feasibility tolerance). The dual repair itself
            // succeeded, so keep the true-rhs state instead of discarding
            // the work — exactly what `phase1_into_option` does when the
            // same recompute fails after phase 1.
            work.rhs = self.b.clone();
            let mut xb = work.rhs.clone();
            work.factor.ftran(&mut xb);
            for v in &mut xb {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            work.xb = xb;
        }
        let t_dual = t_start.elapsed().as_secs_f64() * 1e3 - t_seed;
        let etas = work.factor.eta_count();
        let t_fin = mapqn_linalg::budget::now();
        let (solution, out_basis) =
            self.finish_phase2(work, &costs, maximize, seed, options)?;
        if debug {
            eprintln!(
                "dual-warm: seed {t_seed:.1}ms, {dual_pivots} pivots {t_dual:.1}ms (etas {etas}), finish {:.1}ms ({} primal its)",
                t_fin.elapsed().as_secs_f64() * 1e3,
                solution.iterations - dual_pivots
            );
        }
        Ok(Some((solution, out_basis, DualOutcome::Warm { dual_pivots })))
    }

    /// Repairs `seed` into a **primal feasible** basis using dual pivots
    /// under the zero objective, without solving anything.
    ///
    /// With all-zero costs every basis is dual feasible and every reduced
    /// cost stays zero, so the dual ratio test degenerates into a pure
    /// feasibility repair with a free choice of entering column (largest
    /// pivot wins — the numerically best option). This succeeds on seeds
    /// whose *objective-specific* dual repair stalls in degeneracy, and the
    /// result is what phase 1 would produce, only a few pivots away from
    /// the carried vertex instead of a whole cold solve away from the
    /// slack basis: feed it to [`RevisedSimplex::solve_from_basis`] as a
    /// warm start. Returns `Ok(None)` when the seed cannot be repaired
    /// (fall back to a real phase 1).
    ///
    /// # Errors
    /// Propagates factorization errors from the pivoting machinery.
    pub fn repair_primal_feasible(
        &mut self,
        seed: &Basis,
        options: &SimplexOptions,
    ) -> Result<Option<Basis>> {
        let zero = vec![0.0; self.n_struct];
        Ok(self
            .solve_dual_from_basis(&zero, Sense::Minimize, seed, options)?
            .map(|(_, basis, _)| basis))
    }

    /// Repairs `seed` into a nonsingular starting basis for a dual solve and
    /// computes its basic values against the true right-hand side.
    ///
    /// A seed with exactly one column per row (a fully translated basis —
    /// the population-sweep path) is factorized directly; only incomplete
    /// or singular seeds go through the `O(m^3)` crash completion, where
    /// uncovered rows are filled from the *slack* columns before
    /// artificials ([`complete_basis`] tries candidates in order): slacks
    /// carry zero cost, so they preserve dual feasibility of the seed,
    /// whereas artificial fills stand in for violated rows that only the
    /// dual loop's both-sided rule can clear.
    fn seed_work(&mut self, seed: &Basis) -> Option<Work> {
        let total_cols = self.total_real + self.m;
        let direct: Vec<usize> = seed
            .columns()
            .iter()
            .copied()
            .filter(|&c| c < total_cols)
            .collect();
        let directly_factored = if direct.len() == self.m {
            BasisFactor::factorize(self, &direct).map(|factor| (direct.clone(), factor))
        } else {
            None
        };
        let (columns, factor) = match directly_factored {
            Some(pair) => pair,
            None => {
                let mut candidates = direct;
                candidates.extend(self.n_struct..self.total_real);
                let columns = complete_basis(self, &candidates, self.total_real);
                let factor = BasisFactor::factorize(self, &columns)?;
                (columns, factor)
            }
        };
        let mut in_basis = vec![false; total_cols];
        for &c in &columns {
            in_basis[c] = true;
        }
        let rhs = self.b.clone();
        let mut xb = rhs.clone();
        let mut work = Work {
            basis: columns,
            in_basis,
            xb: Vec::new(),
            rhs,
            factor,
            iterations: 0,
            repairs: 0,
        };
        work.factor.ftran(&mut xb);
        work.xb = xb;
        self.cache = None;
        Some(work)
    }

    /// Reduced costs of every non-basic real column under `costs`, together
    /// with the set of columns *excluded* from the dual run, or `None` when
    /// the seed is too dual-infeasible to be worth repairing.
    ///
    /// A basis carried across a population change is dual feasible for the
    /// columns both problems share, but the larger problem also contains
    /// **new** columns (the marginal terms of the new top population level)
    /// whose reduced costs at the carried dual point can be negative. The
    /// classical answer would be to flip such columns to their opposite
    /// bound; without finite upper bounds, the *restricted* dual simplex
    /// does the next best thing — it bars them from entering, runs the dual
    /// repair on the dual-feasible remainder, and leaves them to the primal
    /// polish of `finish_phase2`, which prices every column and pulls the
    /// barred ones in with ordinary primal pivots. Only when a large share
    /// of columns would be barred (the seed does not resemble an optimal
    /// basis for this objective at all) is the seed rejected outright.
    fn dual_feasible_reduced_costs(
        &self,
        work: &mut Work,
        costs: &[f64],
    ) -> Option<(Vec<f64>, Vec<bool>)> {
        let mut y = vec![0.0; self.m];
        for (p, &c) in work.basis.iter().enumerate() {
            y[p] = costs[c];
        }
        work.factor.btran(&mut y);
        let dual_scale = 1.0 + y.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let mut reduced = vec![0.0; self.total_real];
        let mut excluded = vec![false; self.total_real];
        let mut nonbasic = 0usize;
        let mut barred = 0usize;
        for j in 0..self.total_real {
            if work.in_basis[j] {
                continue;
            }
            nonbasic += 1;
            let rc = costs[j] - self.cols.col_dot(j, &y);
            if rc < -DUAL_SEED_TOL * dual_scale {
                excluded[j] = true;
                barred += 1;
            }
            reduced[j] = rc;
        }
        // More than a quarter of the columns dual infeasible: this is not a
        // near-optimal seed, it is a different vertex altogether — the dual
        // repair would hand most of the work to the primal polish anyway.
        if 4 * barred > nonbasic {
            if dual_debug() {
                eprintln!("dual-reject: {barred}/{nonbasic} columns dual infeasible");
            }
            return None;
        }
        Some((reduced, excluded))
    }

    /// Refactorizes from the current basis columns and recomputes the basic
    /// values, reduced costs and exclusion set from clean numbers. Returns
    /// `None` when the basis went singular or lost dual feasibility beyond
    /// repair (drift accumulated in the incremental price updates) — the
    /// caller falls back to primal.
    fn refresh_dual(
        &self,
        work: &mut Work,
        costs: &[f64],
        reduced: &mut Vec<f64>,
        excluded: &mut Vec<bool>,
    ) -> Option<()> {
        let factor = BasisFactor::factorize(self, &work.basis)?;
        work.factor = factor;
        let mut xb = work.rhs.clone();
        work.factor.ftran(&mut xb);
        work.xb = xb;
        let (fresh_reduced, fresh_excluded) = self.dual_feasible_reduced_costs(work, costs)?;
        *reduced = fresh_reduced;
        *excluded = fresh_excluded;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Sense};
    use crate::simplex::LpStatus;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// The optimal basis of a problem stays dual feasible when only the
    /// right-hand side changes, so the dual engine re-solves the modified
    /// problem from it without a phase 1.
    #[test]
    fn dual_resolve_after_rhs_change() {
        // maximize 3x + 2y s.t. x + y <= c1, x <= c2.
        let build = |c1: f64, c2: f64| {
            let mut lp = LpProblem::new(2, Sense::Maximize);
            lp.set_objective(&[(0, 3.0), (1, 2.0)]);
            lp.add_le(&[(0, 1.0), (1, 1.0)], c1);
            lp.add_le(&[(0, 1.0)], c2);
            lp
        };
        let options = SimplexOptions::default();
        let lp_a = build(4.0, 2.0);
        let mut engine_a = RevisedSimplex::new(&lp_a).unwrap();
        let feasible = engine_a.find_feasible_basis(&options).unwrap().unwrap();
        let (sol_a, basis) = engine_a
            .solve_from_basis(&[3.0, 2.0], Sense::Maximize, &feasible, &options)
            .unwrap();
        assert_eq!(sol_a.status, LpStatus::Optimal);
        assert_close(sol_a.objective, 10.0);

        // Tighten both capacities: the old vertex (2, 2) is infeasible for
        // the new rhs, but the old basis is still dual feasible.
        let lp_b = build(3.0, 1.0);
        let mut engine_b = RevisedSimplex::new(&lp_b).unwrap();
        let (sol_b, _, outcome) = engine_b
            .solve_dual_from_basis(&[3.0, 2.0], Sense::Maximize, &basis, &options)
            .unwrap()
            .expect("optimal basis carried across an rhs change is dual feasible");
        assert_eq!(sol_b.status, LpStatus::Optimal);
        // max 3x + 2y, x + y <= 3, x <= 1: x = 1, y = 2.
        assert_close(sol_b.objective, 7.0);
        let DualOutcome::Warm { dual_pivots } = outcome;
        assert!(dual_pivots <= 2, "expected a short dual repair, got {dual_pivots}");
    }

    /// A seed that is not dual feasible for the objective is rejected with
    /// `Ok(None)` rather than mis-solved.
    #[test]
    fn dual_rejects_dual_infeasible_seed() {
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 3.0), (1, 2.0)]);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 4.0);
        lp.add_le(&[(0, 1.0)], 2.0);
        let mut engine = RevisedSimplex::new(&lp).unwrap();
        let options = SimplexOptions::default();
        // The all-slack basis prices x and y at reduced cost -3 / -2 for the
        // maximization: dual infeasible.
        let seed = Basis::from_columns(vec![2, 3]);
        let out = engine
            .solve_dual_from_basis(&[3.0, 2.0], Sense::Maximize, &seed, &options)
            .unwrap();
        assert!(out.is_none());
    }

    /// For a *minimization* with non-negative costs the all-slack basis is
    /// dual feasible, and the dual engine solves ge-constrained problems
    /// end to end (the slack basis is primal infeasible).
    #[test]
    fn dual_solves_ge_problem_from_slack_basis() {
        let mut lp = LpProblem::new(2, Sense::Minimize);
        lp.set_objective(&[(0, 2.0), (1, 3.0)]);
        lp.add_ge(&[(0, 1.0), (1, 1.0)], 10.0);
        lp.add_ge(&[(0, 1.0)], 3.0);
        let mut engine = RevisedSimplex::new(&lp).unwrap();
        let options = SimplexOptions::default();
        // Seed with the (surplus) slack columns: dual feasible, primal
        // infeasible by the full right-hand side.
        let seed = Basis::from_columns(vec![2, 3]);
        let (sol, _, DualOutcome::Warm { dual_pivots }) = engine
            .solve_dual_from_basis(&[2.0, 3.0], Sense::Minimize, &seed, &options)
            .unwrap()
            .expect("slack basis is dual feasible for non-negative min costs");
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 20.0);
        assert!(dual_pivots >= 1);
    }

    /// An empty seed still works for minimizations with non-negative costs:
    /// completion fills the basis with slacks, and equality rows (covered by
    /// artificials) are cleared by the both-sided leaving rule.
    #[test]
    fn dual_clears_artificial_covers_on_equality_rows() {
        let mut lp = LpProblem::new(3, Sense::Minimize);
        lp.set_objective(&[(0, 1.0), (1, 2.0), (2, 4.0)]);
        lp.add_eq(&[(0, 1.0), (1, 1.0), (2, 1.0)], 1.0);
        lp.add_le(&[(1, 1.0), (2, 2.0)], 1.2);
        let mut engine = RevisedSimplex::new(&lp).unwrap();
        let options = SimplexOptions::default();
        let out = engine
            .solve_dual_from_basis(
                &[1.0, 2.0, 4.0],
                Sense::Minimize,
                &Basis::from_columns(vec![]),
                &options,
            )
            .unwrap();
        let (sol, _, _) = out.expect("slack/artificial completion is dual feasible here");
        assert_eq!(sol.status, LpStatus::Optimal);
        // Put everything on the cheapest variable: x0 = 1.
        assert_close(sol.objective, 1.0);
        assert_close(sol.x[0], 1.0);
    }

    /// The dual solution agrees with a cold primal solve across senses on a
    /// small degenerate problem.
    #[test]
    fn dual_matches_primal_on_degenerate_problem() {
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 1.0), (1, 1.0)]);
        lp.add_le(&[(0, 1.0)], 1.0);
        lp.add_le(&[(1, 1.0)], 1.0);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 2.0);
        lp.add_le(&[(0, 2.0), (1, 2.0)], 4.0);
        let options = SimplexOptions::default();
        let mut primal = RevisedSimplex::new(&lp).unwrap();
        let cold = primal.solve(&lp, &options).unwrap();
        let feasible = primal.find_feasible_basis(&options).unwrap().unwrap();
        let basis = primal
            .solve_from_basis(&[1.0, 1.0], Sense::Maximize, &feasible, &options)
            .unwrap()
            .1;
        let mut dual = RevisedSimplex::new(&lp).unwrap();
        if let Some((sol, _, _)) = dual
            .solve_dual_from_basis(&[1.0, 1.0], Sense::Maximize, &basis, &options)
            .unwrap()
        {
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.objective, cold.objective);
        }
    }
}

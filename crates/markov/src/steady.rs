//! Stationary distribution solvers for CTMCs.
//!
//! Two complementary algorithms are provided:
//!
//! * **GTH elimination** (Grassmann–Taksar–Heyman) on a dense copy of the
//!   generator. GTH performs Gaussian elimination using only additions of
//!   non-negative quantities, so it is backward stable for Markov chains and
//!   has no convergence parameters. Cost is `O(n^3)` time and `O(n^2)`
//!   memory, which is fine up to a few thousand states.
//! * The **sparse preconditioned engine** of [`crate::sparse_steady`]:
//!   row-block-parallel Gauss–Seidel / Jacobi-preconditioned iterations on
//!   the CSR generator with a residual-based (`‖πQ‖_∞`) stopping rule —
//!   the path that carries the paper's exact ("global balance") validation
//!   references into the `10^5`–`10^7`-state regime.
//!
//! [`stationary_auto`] picks GTH below
//! [`SteadyStateOptions::dense_threshold`] states and the sparse engine
//! above it.

use crate::ctmc::Ctmc;
use crate::sparse_steady::{stationary_sparse, SparseSteadyOptions};
use crate::{MarkovError, Result};
use mapqn_linalg::{norms, DVector};

/// Options controlling the automatic dense/sparse selection.
#[derive(Debug, Clone, Copy)]
pub struct SteadyStateOptions {
    /// State-count threshold below which the dense GTH solver is used by
    /// [`stationary_auto`].
    pub dense_threshold: usize,
    /// Options for the sparse preconditioned engine used above the
    /// threshold (tolerance, preconditioner, worker count, block length).
    pub sparse: SparseSteadyOptions,
}

impl Default for SteadyStateOptions {
    fn default() -> Self {
        Self {
            dense_threshold: 2_000,
            sparse: SparseSteadyOptions::default(),
        }
    }
}

/// Computes the stationary distribution with the GTH algorithm on a dense
/// copy of the generator.
///
/// # Errors
/// Returns [`MarkovError::InvalidChain`] when the chain is reducible in a way
/// that produces a zero pivot (states that cannot reach the rest of the
/// chain).
pub fn stationary_dense_gth(ctmc: &Ctmc) -> Result<DVector> {
    let n = ctmc.num_states();
    let mut q = ctmc.generator().to_dense();

    if n == 1 {
        return Ok(DVector::from_vec(vec![1.0]));
    }

    // GTH elimination: process states from the last to the second, folding
    // each eliminated state's behaviour into the remaining ones using only
    // non-negative quantities. `pivots[k]` stores the total outflow of state
    // `k` towards lower-numbered states at the moment it was eliminated; it
    // is needed again during back-substitution.
    let mut pivots = vec![0.0_f64; n];
    for k in (1..n).rev() {
        // Total outflow of state k towards states 0..k.
        let mut s = 0.0;
        for j in 0..k {
            s += q[(k, j)];
        }
        if s <= 0.0 {
            return Err(MarkovError::InvalidChain(format!(
                "GTH pivot for state {k} is non-positive: the chain is reducible"
            )));
        }
        pivots[k] = s;
        for j in 0..k {
            q[(k, j)] /= s;
        }
        for i in 0..k {
            let qik = q[(i, k)];
            if qik != 0.0 {
                for j in 0..k {
                    if i != j {
                        let add = qik * q[(k, j)];
                        q[(i, j)] += add;
                    }
                }
            }
        }
    }

    // Back-substitution on the censored chains:
    // pi[0] = 1, pi[k] = (sum_{i<k} pi[i] * q[i,k]) / pivot_k.
    let mut pi = vec![0.0_f64; n];
    pi[0] = 1.0;
    for k in 1..n {
        let mut s = 0.0;
        for (i, &pi_i) in pi.iter().enumerate().take(k) {
            s += pi_i * q[(i, k)];
        }
        pi[k] = s / pivots[k];
    }
    let total: f64 = pi.iter().sum();
    let mut result = DVector::from_vec(pi);
    result.scale(1.0 / total);
    Ok(result)
}

/// Computes the stationary distribution, choosing the dense GTH solver for
/// small chains and the sparse preconditioned engine
/// ([`crate::sparse_steady::stationary_sparse`]) for large ones.
///
/// # Errors
/// Propagates the error of whichever solver was selected; if GTH fails due
/// to reducibility the sparse engine is tried as a fallback (its internal
/// power path handles reducible generators).
pub fn stationary_auto(ctmc: &Ctmc, options: &SteadyStateOptions) -> Result<DVector> {
    if ctmc.num_states() <= options.dense_threshold {
        match stationary_dense_gth(ctmc) {
            Err(MarkovError::InvalidChain(_)) => {}
            done => return done,
        }
    }
    Ok(stationary_sparse(ctmc, &options.sparse)?.pi)
}

/// Residual `‖pi Q‖_inf` of a candidate stationary vector — used by tests and
/// by callers that want to double-check a solution.
///
/// # Errors
/// Propagates dimension mismatches.
pub fn stationary_residual(ctmc: &Ctmc, pi: &DVector) -> Result<f64> {
    Ok(norms::left_residual_sparse(ctmc.generator(), pi)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapqn_linalg::approx_eq;

    fn birth_death(n: usize, birth: f64, death: f64) -> Ctmc {
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, birth));
            transitions.push((i + 1, i, death));
        }
        Ctmc::from_transitions(n, &transitions).unwrap()
    }

    /// Closed-form stationary distribution of an M/M/1/K-style birth-death
    /// chain with constant rates.
    fn birth_death_exact(n: usize, birth: f64, death: f64) -> Vec<f64> {
        let rho = birth / death;
        let weights: Vec<f64> = (0..n).map(|i| rho.powi(i as i32)).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    #[test]
    fn gth_matches_birth_death_closed_form() {
        let ctmc = birth_death(6, 1.0, 2.0);
        let pi = stationary_dense_gth(&ctmc).unwrap();
        let exact = birth_death_exact(6, 1.0, 2.0);
        for i in 0..6 {
            assert!(approx_eq(pi[i], exact[i], 1e-12), "state {i}: {} vs {}", pi[i], exact[i]);
        }
        assert!(stationary_residual(&ctmc, &pi).unwrap() < 1e-12);
    }

    #[test]
    fn auto_picks_a_working_solver() {
        let ctmc = birth_death(4, 1.0, 1.0);
        let opts = SteadyStateOptions {
            dense_threshold: 2, // force the iterative path
            ..SteadyStateOptions::default()
        };
        let pi_iter = stationary_auto(&ctmc, &opts).unwrap();
        let pi_dense = stationary_auto(&ctmc, &SteadyStateOptions::default()).unwrap();
        assert!(pi_iter.max_abs_diff(&pi_dense).unwrap() < 1e-8);
        // Uniform for symmetric rates.
        for i in 0..4 {
            assert!(approx_eq(pi_dense[i], 0.25, 1e-10));
        }
    }

    #[test]
    fn single_state_chain() {
        let ctmc = Ctmc::from_transitions(1, &[]).unwrap();
        let pi = stationary_dense_gth(&ctmc).unwrap();
        assert_eq!(pi.as_slice(), &[1.0]);
    }

    #[test]
    fn reducible_chain_is_reported_by_gth() {
        // Two disconnected states (no transitions at all): GTH pivot is zero.
        let ctmc = Ctmc::from_transitions(2, &[]).unwrap();
        assert!(matches!(
            stationary_dense_gth(&ctmc),
            Err(MarkovError::InvalidChain(_))
        ));
    }

    #[test]
    fn no_convergence_is_reported_by_iterative_solver() {
        let ctmc = birth_death(20, 1.0, 1.1);
        let opts = SteadyStateOptions {
            dense_threshold: 0,
            sparse: SparseSteadyOptions {
                tolerance: 1e-15,
                max_sweeps: 2,
                ..SparseSteadyOptions::default()
            },
        };
        assert!(matches!(
            stationary_auto(&ctmc, &opts),
            Err(MarkovError::NoConvergence { .. })
        ));
    }

    #[test]
    fn three_state_cycle_with_asymmetric_rates() {
        // 0 -> 1 -> 2 -> 0 with different rates; stationary probabilities are
        // inversely proportional to the exit rates.
        let ctmc =
            Ctmc::from_transitions(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 4.0)]).unwrap();
        let pi = stationary_dense_gth(&ctmc).unwrap();
        // pi_i proportional to 1/rate_i: (1, 0.5, 0.25) normalized.
        let total = 1.75;
        assert!(approx_eq(pi[0], 1.0 / total, 1e-12));
        assert!(approx_eq(pi[1], 0.5 / total, 1e-12));
        assert!(approx_eq(pi[2], 0.25 / total, 1e-12));
    }
}

//! Transient analysis by uniformization.
//!
//! The paper only needs steady-state quantities, but transient probabilities
//! are a natural extension of the library (e.g. warm-up analysis of the
//! simulated TPC-W system, or time-dependent utilization after a burst). The
//! implementation is the standard uniformization / randomization method:
//!
//! `p(t) = sum_{k >= 0} Poisson(k; q t) * p(0) P^k`,
//!
//! where `P = I + Q / q` is the uniformized chain, truncated when the
//! cumulative Poisson weight is close enough to one.

use crate::ctmc::Ctmc;
use crate::sparse_steady::{effective_workers, par_left_apply};
use crate::{MarkovError, Result};
use mapqn_linalg::DVector;
use mapqn_par::WorkPool;

/// Options for the uniformization algorithm.
#[derive(Debug, Clone, Copy)]
pub struct TransientOptions {
    /// Truncation error bound on the Poisson tail (default `1e-10`).
    pub truncation_error: f64,
    /// Hard cap on the number of accumulated terms (default `1_000_000`).
    pub max_terms: usize,
    /// Worker threads for the per-term sparse matvec (0 = one per available
    /// core, or the `MAPQN_POOL_THREADS` override). The workers are spawned
    /// once for the whole accumulation (persistent pool, parked between
    /// terms) and every product is row-block parallel with fixed block
    /// boundaries, so results are bitwise worker-count invariant.
    pub workers: usize,
    /// Row-block length of the parallel matvec.
    pub block_len: usize,
    /// Minimum per-term work (transition-matrix nonzeros) before worker
    /// threads are spawned at all; small chains run serially on the
    /// caller's thread. Same unit and default as
    /// [`crate::sparse_steady::SparseSteadyOptions::parallel_threshold`].
    pub parallel_threshold: usize,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            truncation_error: 1e-10,
            max_terms: 1_000_000,
            workers: 0,
            block_len: 4096,
            parallel_threshold: 8_192,
        }
    }
}

/// Computes the state distribution at time `t` starting from `initial`.
///
/// # Errors
/// * [`MarkovError::InvalidChain`] when `initial` has the wrong length, is
///   not a distribution, or `t` is negative.
/// * [`MarkovError::NoConvergence`] when the Poisson series needs more than
///   `max_terms` terms.
pub fn transient_distribution(
    ctmc: &Ctmc,
    initial: &DVector,
    t: f64,
    options: &TransientOptions,
) -> Result<DVector> {
    let n = ctmc.num_states();
    if initial.len() != n {
        return Err(MarkovError::InvalidChain(format!(
            "initial distribution has {} entries, chain has {} states",
            initial.len(),
            n
        )));
    }
    if (initial.sum() - 1.0).abs() > 1e-8 || !initial.is_nonnegative(1e-12) {
        return Err(MarkovError::InvalidChain(
            "initial vector is not a probability distribution".into(),
        ));
    }
    if t < 0.0 || !t.is_finite() {
        return Err(MarkovError::InvalidChain(format!(
            "time must be non-negative and finite, got {t}"
        )));
    }
    if t == 0.0 {
        return Ok(initial.clone());
    }

    let (p, q) = ctmc.uniformized(1e-6);
    let lambda = q * t;
    // Every Poisson term is a left product `term ← term P`, i.e. a plain
    // matvec with `P^T` — transpose once, then run each term's product
    // row-block parallel (same kernel as the sparse steady-state engine).
    // P itself is dead after the transpose; dropping it halves the peak
    // matrix memory, which matters at the 10^6+-state scale.
    let pt = p.transpose();
    drop(p);
    let block_len = options.block_len.max(1);
    // Same clamp as the stationary engine: never hold workers a round's
    // chunk count cannot feed.
    let workers = effective_workers(pt.nnz(), options.parallel_threshold, options.workers)
        .min(n.div_ceil(block_len).max(1));

    // One persistent pool spans the whole Poisson accumulation: the series
    // runs hundreds-to-thousands of matvec terms, each far too short to
    // amortize a per-term thread spawn (the pre-persistent design), but
    // trivially amortizing a parked-worker wake/quiesce round.
    WorkPool::new(workers).scoped(|pool| {
        let mut term_next = vec![0.0_f64; n];

        let mut weight = (-lambda).exp();
        // For large lambda, exp(-lambda) underflows; start accumulating at the
        // mode instead by scaling in log space. A simple and robust alternative
        // used here: if the starting weight underflows, renormalize the weights
        // on the fly (steady accumulation of the Poisson pmf via recurrence is
        // stable once started from a representable value).
        let mut accumulated = DVector::zeros(n);
        let mut term_vec = initial.clone();
        let mut cumulative = 0.0;

        if weight > 0.0 {
            accumulated.axpy(weight, &term_vec)?;
            cumulative += weight;
        }

        let mut k = 0usize;
        while cumulative < 1.0 - options.truncation_error {
            k += 1;
            if k > options.max_terms {
                return Err(MarkovError::NoConvergence {
                    iterations: k,
                    residual: 1.0 - cumulative,
                });
            }
            par_left_apply(pool, &pt, block_len, term_vec.as_slice(), &mut term_next);
            term_vec.as_mut_slice().copy_from_slice(&term_next);
            if weight > 0.0 {
                weight *= lambda / k as f64;
            } else {
                // Underflow start-up: once k reaches the neighbourhood of the
                // mode, approximate the pmf with the (stable) normal kernel and
                // switch to the recurrence from there.
                if (k as f64) >= lambda - 5.0 * lambda.sqrt() {
                    let kf = k as f64;
                    // Stirling-based log pmf.
                    let log_pmf = -lambda + kf * lambda.ln()
                        - (kf * kf.ln() - kf + 0.5 * (2.0 * std::f64::consts::PI * kf).ln());
                    weight = log_pmf.exp();
                }
            }
            if weight > 0.0 {
                accumulated.axpy(weight, &term_vec)?;
                cumulative += weight;
            }
        }

        // Guard against the tiny mass lost to truncation / underflow.
        let mut result = accumulated;
        result.clamp_small_negatives(1e-15);
        let _ = result.normalize_sum();
        Ok(result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steady::stationary_dense_gth;
    use mapqn_linalg::approx_eq;

    fn two_state(rate01: f64, rate10: f64) -> Ctmc {
        Ctmc::from_transitions(2, &[(0, 1, rate01), (1, 0, rate10)]).unwrap()
    }

    #[test]
    fn transient_matches_closed_form_for_two_states() {
        // For a two-state chain with rates a (0->1) and b (1->0), starting in
        // state 0: p_0(t) = b/(a+b) + a/(a+b) * exp(-(a+b) t).
        let a = 1.5;
        let b = 0.5;
        let ctmc = two_state(a, b);
        let initial = DVector::from_vec(vec![1.0, 0.0]);
        for &t in &[0.0, 0.1, 0.5, 1.0, 3.0] {
            let p = transient_distribution(&ctmc, &initial, t, &TransientOptions::default())
                .unwrap();
            let expected0 = b / (a + b) + a / (a + b) * (-(a + b) * t).exp();
            assert!(
                approx_eq(p[0], expected0, 1e-7),
                "t = {t}: {} vs {expected0}",
                p[0]
            );
            assert!(approx_eq(p.sum(), 1.0, 1e-9));
        }
    }

    #[test]
    fn long_horizon_converges_to_stationary() {
        let ctmc = two_state(2.0, 1.0);
        let initial = DVector::from_vec(vec![1.0, 0.0]);
        let p = transient_distribution(&ctmc, &initial, 200.0, &TransientOptions::default())
            .unwrap();
        let pi = stationary_dense_gth(&ctmc).unwrap();
        assert!(p.max_abs_diff(&pi).unwrap() < 1e-8);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let ctmc = two_state(1.0, 1.0);
        let initial = DVector::from_vec(vec![1.0, 0.0]);
        assert!(transient_distribution(&ctmc, &DVector::zeros(3), 1.0, &TransientOptions::default()).is_err());
        assert!(transient_distribution(
            &ctmc,
            &DVector::from_vec(vec![0.6, 0.6]),
            1.0,
            &TransientOptions::default()
        )
        .is_err());
        assert!(transient_distribution(&ctmc, &initial, -1.0, &TransientOptions::default()).is_err());
        assert!(transient_distribution(&ctmc, &initial, f64::NAN, &TransientOptions::default()).is_err());
    }

    #[test]
    fn max_terms_budget_is_enforced() {
        let ctmc = two_state(100.0, 100.0);
        let initial = DVector::from_vec(vec![1.0, 0.0]);
        let opts = TransientOptions {
            truncation_error: 1e-12,
            max_terms: 3,
            ..TransientOptions::default()
        };
        assert!(matches!(
            transient_distribution(&ctmc, &initial, 10.0, &opts),
            Err(MarkovError::NoConvergence { .. })
        ));
    }

    #[test]
    fn zero_time_returns_initial() {
        let ctmc = two_state(1.0, 2.0);
        let initial = DVector::from_vec(vec![0.3, 0.7]);
        let p = transient_distribution(&ctmc, &initial, 0.0, &TransientOptions::default()).unwrap();
        assert_eq!(p.as_slice(), initial.as_slice());
    }
}

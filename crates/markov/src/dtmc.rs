//! Discrete-time Markov chains.
//!
//! Used for the routing chain of a closed network, whose stationary vector
//! gives the visit ratios. These chains have one state per station, so they
//! are solved densely.

use crate::{MarkovError, Result};
use mapqn_linalg::{lu, DMatrix, DVector};

/// A discrete-time Markov chain with a dense transition matrix.
#[derive(Debug, Clone)]
pub struct Dtmc {
    p: DMatrix,
}

impl Dtmc {
    /// Creates a DTMC from a transition matrix, validating stochasticity.
    ///
    /// # Errors
    /// Returns [`MarkovError::InvalidChain`] when the matrix is not square,
    /// has negative entries or rows that do not sum to one.
    pub fn new(p: DMatrix) -> Result<Self> {
        if p.nrows() == 0 {
            return Err(MarkovError::InvalidChain("empty transition matrix".into()));
        }
        if !p.is_square() {
            return Err(MarkovError::InvalidChain(format!(
                "transition matrix must be square, got {}x{}",
                p.nrows(),
                p.ncols()
            )));
        }
        if !p.is_nonnegative(1e-12) {
            return Err(MarkovError::InvalidChain(
                "transition matrix has negative entries".into(),
            ));
        }
        if !p.rows_sum_to(1.0, 1e-8) {
            return Err(MarkovError::InvalidChain(
                "transition matrix rows must sum to one".into(),
            ));
        }
        Ok(Self { p })
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.p.nrows()
    }

    /// The transition matrix.
    #[must_use]
    pub fn transition_matrix(&self) -> &DMatrix {
        &self.p
    }

    /// Stationary distribution `pi P = pi`, `pi 1 = 1`, computed by a dense
    /// linear solve (suitable for the small chains this type is used for).
    ///
    /// # Errors
    /// Returns [`MarkovError::InvalidChain`] when the chain is periodic /
    /// reducible in a way that makes the linear system singular.
    pub fn stationary(&self) -> Result<DVector> {
        let n = self.num_states();
        if n == 1 {
            return Ok(DVector::from_vec(vec![1.0]));
        }
        // Solve pi (P - I) = 0 with normalization: replace last column of
        // (P - I)^T with ones.
        let mut a = self.p.sub(&DMatrix::identity(n))?.transpose();
        for j in 0..n {
            a[(n - 1, j)] = 1.0;
        }
        let mut b = DVector::zeros(n);
        b[n - 1] = 1.0;
        let mut pi = lu::solve(&a, &b).map_err(|e| {
            MarkovError::InvalidChain(format!("stationary system is singular: {e}"))
        })?;
        pi.clamp_small_negatives(1e-9);
        let _ = pi.normalize_sum();
        Ok(pi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapqn_linalg::approx_eq;

    fn weather_chain() -> Dtmc {
        // Classic 2-state chain: stationary (0.8333…, 0.1666…) for these
        // probabilities.
        Dtmc::new(DMatrix::from_row_slice(2, 2, &[0.9, 0.1, 0.5, 0.5])).unwrap()
    }

    #[test]
    fn stationary_of_two_state_chain() {
        let chain = weather_chain();
        let pi = chain.stationary().unwrap();
        assert!(approx_eq(pi[0], 5.0 / 6.0, 1e-12));
        assert!(approx_eq(pi[1], 1.0 / 6.0, 1e-12));
        // pi is invariant under P.
        let next = chain.transition_matrix().vecmat(&pi).unwrap();
        assert!(pi.max_abs_diff(&next).unwrap() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_matrices() {
        assert!(Dtmc::new(DMatrix::zeros(0, 0)).is_err());
        assert!(Dtmc::new(DMatrix::zeros(2, 3)).is_err());
        assert!(Dtmc::new(DMatrix::from_row_slice(2, 2, &[0.5, 0.4, 0.5, 0.5])).is_err());
        assert!(Dtmc::new(DMatrix::from_row_slice(2, 2, &[1.5, -0.5, 0.5, 0.5])).is_err());
    }

    #[test]
    fn single_state_chain_is_trivial() {
        let chain = Dtmc::new(DMatrix::from_row_slice(1, 1, &[1.0])).unwrap();
        assert_eq!(chain.stationary().unwrap().as_slice(), &[1.0]);
        assert_eq!(chain.num_states(), 1);
    }
}

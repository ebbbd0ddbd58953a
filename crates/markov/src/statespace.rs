//! An enumerated state space: the states in index order and the CTMC on
//! them.
//!
//! A MAP queueing network's CTMC is defined implicitly: a state is a vector
//! of queue lengths plus the phase of every MAP server. `mapqn-core`
//! enumerates the reachable states in its rank order and assembles the
//! generator; [`StateSpace`] pairs the two, so that the solvers in
//! [`crate::steady`] can be applied and performance metrics read off the
//! stationary vector state by state.

use crate::ctmc::Ctmc;
use crate::{MarkovError, Result};

/// An enumerated state space together with the CTMC defined on it. The
/// states are sorted, so a state's index is its position in that order.
#[derive(Debug, Clone)]
pub struct StateSpace<S> {
    /// All states, ascending; state `i` is row `i` of the generator.
    states: Vec<S>,
    /// The CTMC on the enumerated states.
    ctmc: Ctmc,
}

impl<S: Ord> StateSpace<S> {
    /// Pairs the states, in ascending order, with the CTMC whose state `i`
    /// is `states[i]`.
    ///
    /// # Errors
    /// Returns [`MarkovError::InvalidChain`] when the counts differ or the
    /// states are not strictly ascending.
    pub fn from_parts(states: Vec<S>, ctmc: Ctmc) -> Result<Self> {
        if states.len() != ctmc.num_states() {
            return Err(MarkovError::InvalidChain(format!(
                "{} states for a {}-state chain",
                states.len(),
                ctmc.num_states()
            )));
        }
        if !states.windows(2).all(|w| w[0] < w[1]) {
            return Err(MarkovError::InvalidChain(
                "states must be strictly ascending".into(),
            ));
        }
        Ok(Self { states, ctmc })
    }

    /// All states in index (ascending) order.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when there are no states (a [`Ctmc`] always has one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Index of a state, if it is in the space (a binary search).
    #[must_use]
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.states.binary_search(state).ok()
    }

    /// State stored at `index`.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    #[must_use]
    pub fn state_at(&self, index: usize) -> &S {
        &self.states[index]
    }

    /// The CTMC over the enumerated state space.
    #[must_use]
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// Bytes held by the materialized flat-CSR generator (row pointers plus
    /// column/value pairs). This is what the implicit Kronecker
    /// representation avoids; benchmarks record the ratio between the two.
    #[must_use]
    pub fn generator_memory_bytes(&self) -> usize {
        self.ctmc.generator().memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(n: usize) -> Ctmc {
        let transitions: Vec<_> =
            (0..n - 1).flat_map(|i| [(i, i + 1, 1.0), (i + 1, i, 2.0)]).collect();
        Ctmc::from_transitions(n, &transitions).unwrap()
    }

    #[test]
    fn sorted_states_index_by_position() {
        let space = StateSpace::from_parts(vec![2, 5, 9], walk(3)).unwrap();
        assert_eq!(space.len(), 3);
        assert!(!space.is_empty());
        assert_eq!(space.index_of(&5), Some(1));
        assert_eq!(space.index_of(&4), None);
        assert_eq!(*space.state_at(2), 9);
        assert_eq!(space.states(), &[2, 5, 9]);
    }

    #[test]
    fn unsorted_or_miscounted_states_are_rejected() {
        for states in [vec![2, 9, 5], vec![2, 2, 5], vec![2, 5]] {
            assert!(matches!(
                StateSpace::from_parts(states, walk(3)),
                Err(MarkovError::InvalidChain(_))
            ));
        }
    }
}

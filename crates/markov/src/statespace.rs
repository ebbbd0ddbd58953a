//! Breadth-first state-space enumeration.
//!
//! A MAP queueing network's CTMC is defined implicitly: a state is a vector
//! of queue lengths plus the phase of every MAP server, and the transition
//! function enumerates service completions, routing choices and hidden phase
//! changes. [`StateSpaceBuilder`] turns such an implicit description into an
//! explicit sparse generator plus a bidirectional state index, so that the
//! solvers in [`crate::steady`] can be applied and so that performance
//! metrics can be read off the stationary vector state by state.

use crate::ctmc::Ctmc;
use crate::{MarkovError, Result};
use mapqn_linalg::CsrAssembler;
use std::collections::HashMap;
use std::hash::Hash;

/// An enumerated state space together with the CTMC defined on it.
#[derive(Debug, Clone)]
pub struct StateSpace<S> {
    /// All reachable states, indexed by their position.
    states: Vec<S>,
    /// Reverse index from state to position.
    index: HashMap<S, usize>,
    /// The CTMC on the enumerated states.
    ctmc: Ctmc,
}

impl<S: Clone + Eq + Hash> StateSpace<S> {
    /// All reachable states in enumeration (BFS) order.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Number of reachable states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no states were enumerated (never happens for a valid
    /// initial state).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Index of a state, if reachable.
    #[must_use]
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.index.get(state).copied()
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

    /// Gives the CTMC one aggregation level per state, `level(state)` in
    /// index order (see [`Ctmc::with_levels`]).
    #[must_use]
    pub fn with_levels(mut self, level: impl Fn(&S) -> u32) -> Self {
        let levels = self.states.iter().map(level).collect();
        // INFALLIBLE: one level per enumerated state, and the CTMC has
        // exactly one row per enumerated state.
        self.ctmc = self.ctmc.with_levels(levels).expect("one level per state");
        self
    }

    /// Bytes held by the materialized flat-CSR generator (row pointers plus
    /// column/value pairs). This is what the implicit Kronecker
    /// representation avoids; benchmarks record the ratio between the two.
    #[must_use]
    pub fn generator_memory_bytes(&self) -> usize {
        use mapqn_linalg::GeneratorOp;
        self.ctmc.generator().memory_bytes()
    }
}

/// Builder that explores the reachable state space from an initial state.
pub struct StateSpaceBuilder {
    max_states: usize,
}

impl Default for StateSpaceBuilder {
    fn default() -> Self {
        Self {
            max_states: 5_000_000,
        }
    }
}

impl StateSpaceBuilder {
    /// Creates a builder with the default state-count limit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum number of states to enumerate before giving up with
    /// [`MarkovError::StateSpaceTooLarge`].
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Explores the state space reachable from `initial` under the given
    /// transition function and assembles the CTMC.
    ///
    /// `transitions(state)` must return every outgoing transition as a
    /// `(next_state, rate)` pair with a strictly positive rate. Transitions
    /// back to the same state are allowed and ignored (they do not affect
    /// the CTMC).
    ///
    /// The generator is assembled **directly into CSR** while the breadth-
    /// first exploration runs: states are processed in index order, so each
    /// state's outgoing edges form exactly one CSR row (diagonal included),
    /// which is streamed into a [`mapqn_linalg::CsrAssembler`]. No
    /// coordinate-triplet list — let alone a dense copy — of the generator
    /// ever exists, which is what keeps `10^6`–`10^7`-state enumerations
    /// within memory reach of the sparse steady-state engine.
    ///
    /// # Errors
    /// * [`MarkovError::StateSpaceTooLarge`] when the reachable set exceeds
    ///   the configured limit.
    /// * [`MarkovError::InvalidChain`] when a transition has a negative or
    ///   non-finite rate.
    pub fn build<S, F>(&self, initial: S, mut transitions: F) -> Result<StateSpace<S>>
    where
        S: Clone + Eq + Hash,
        F: FnMut(&S) -> Vec<(S, f64)>,
    {
        let mut states: Vec<S> = Vec::new();
        let mut index: HashMap<S, usize> = HashMap::new();
        let mut assembler = CsrAssembler::new();
        let mut row: Vec<(usize, f64)> = Vec::new();

        states.push(initial.clone());
        index.insert(initial, 0);
        let mut frontier = 0usize;

        while frontier < states.len() {
            if states.len() > self.max_states {
                return Err(MarkovError::StateSpaceTooLarge {
                    limit: self.max_states,
                });
            }
            let current = states[frontier].clone();
            row.clear();
            let mut diagonal = 0.0_f64;
            for (next, rate) in transitions(&current) {
                if rate < 0.0 || !rate.is_finite() {
                    return Err(MarkovError::InvalidChain(format!(
                        "transition with invalid rate {rate}"
                    )));
                }
                if rate == 0.0 {
                    continue;
                }
                let next_idx = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        let i = states.len();
                        states.push(next.clone());
                        index.insert(next, i);
                        i
                    }
                };
                if next_idx != frontier {
                    row.push((next_idx, rate));
                    diagonal -= rate;
                }
            }
            if diagonal != 0.0 {
                row.push((frontier, diagonal));
            }
            assembler.push_row(&mut row);
            frontier += 1;
        }

        if states.len() > self.max_states {
            return Err(MarkovError::StateSpaceTooLarge {
                limit: self.max_states,
            });
        }

        let n = states.len();
        let generator = assembler.finish(n).map_err(MarkovError::from)?;
        let ctmc = Ctmc::new(generator)?;
        Ok(StateSpace {
            states,
            index,
            ctmc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steady::{stationary_dense_gth, stationary_residual};
    use mapqn_linalg::approx_eq;

    /// A random walk on 0..n with reflecting boundaries, described
    /// implicitly.
    fn walk_transitions(n: usize, up: f64, down: f64) -> impl FnMut(&usize) -> Vec<(usize, f64)> {
        move |&s: &usize| {
            let mut out = Vec::new();
            if s + 1 < n {
                out.push((s + 1, up));
            }
            if s > 0 {
                out.push((s - 1, down));
            }
            out
        }
    }

    #[test]
    fn enumerates_reachable_chain_and_solves_it() {
        let builder = StateSpaceBuilder::new();
        let space = builder.build(0usize, walk_transitions(5, 1.0, 2.0)).unwrap();
        assert_eq!(space.len(), 5);
        assert!(!space.is_empty());
        assert_eq!(space.index_of(&3), Some(3));
        assert_eq!(space.index_of(&9), None);
        assert_eq!(*space.state_at(2), 2);

        let pi = stationary_dense_gth(space.ctmc()).unwrap();
        assert!(stationary_residual(space.ctmc(), &pi).unwrap() < 1e-12);
        // Geometric distribution with ratio 0.5.
        let rho = 0.5_f64;
        let total: f64 = (0..5).map(|i| rho.powi(i)).sum();
        for i in 0..5 {
            assert!(approx_eq(pi[i], rho.powi(i as i32) / total, 1e-12));
        }
    }

    #[test]
    fn bfs_order_is_stable_and_deterministic() {
        let builder = StateSpaceBuilder::new();
        let a = builder.build(0usize, walk_transitions(4, 1.0, 1.0)).unwrap();
        let b = builder.build(0usize, walk_transitions(4, 1.0, 1.0)).unwrap();
        assert_eq!(a.states(), b.states());
        assert_eq!(a.states(), &[0, 1, 2, 3]);
    }

    #[test]
    fn state_limit_is_enforced() {
        let builder = StateSpaceBuilder::new().with_max_states(3);
        let result = builder.build(0usize, walk_transitions(100, 1.0, 1.0));
        assert!(matches!(
            result,
            Err(MarkovError::StateSpaceTooLarge { limit: 3 })
        ));
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let builder = StateSpaceBuilder::new();
        let result = builder.build(0usize, |&s: &usize| vec![((s + 1) % 2, -1.0)]);
        assert!(matches!(result, Err(MarkovError::InvalidChain(_))));
        let result = builder.build(0usize, |&s: &usize| vec![((s + 1) % 2, f64::INFINITY)]);
        assert!(matches!(result, Err(MarkovError::InvalidChain(_))));
    }

    #[test]
    fn self_loops_and_zero_rates_are_ignored() {
        let builder = StateSpaceBuilder::new();
        let space = builder
            .build(0usize, |&s: &usize| {
                vec![(s, 5.0), ((s + 1) % 2, 1.0), ((s + 1) % 2, 0.0)]
            })
            .unwrap();
        assert_eq!(space.len(), 2);
        // Generator only has the 1.0-rate transitions.
        assert!(approx_eq(space.ctmc().generator().get(0, 1), 1.0, 1e-12));
        assert!(approx_eq(space.ctmc().generator().get(0, 0), -1.0, 1e-12));
    }

    #[test]
    fn tuple_states_work_as_keys() {
        // Two independent on/off components, state = (bool, bool).
        let builder = StateSpaceBuilder::new();
        let space = builder
            .build((false, false), |&(a, b): &(bool, bool)| {
                vec![((!a, b), 1.0), ((a, !b), 2.0)]
            })
            .unwrap();
        assert_eq!(space.len(), 4);
        let pi = stationary_dense_gth(space.ctmc()).unwrap();
        // Symmetric flip rates => uniform distribution.
        for i in 0..4 {
            assert!(approx_eq(pi[i], 0.25, 1e-10));
        }
    }
}

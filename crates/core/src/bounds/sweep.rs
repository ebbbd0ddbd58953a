//! Population sweeps: solving the same network's bound LPs at a whole range
//! of populations, the workload shape of the paper's own evaluation (Table 1
//! and Figure 8 run every model at N = 1..60) and of hierarchical capacity
//! planning studies ("how does the response time grow as we add users?").
//!
//! A cold solve per population wastes almost everything the previous
//! population computed: the constraint set at population `N + 1` contains a
//! copy of every marginal term of population `N`, and the optimal basis of a
//! given objective moves only slightly as `N` grows. The catch, measured in
//! PR 1, is that the carried basis is rarely *primal* feasible for the new
//! right-hand side, so a primal warm start degrades to a cold phase 1. What
//! the carried basis keeps is **dual** feasibility — it was optimal for the
//! same objective — which is exactly the starting condition of the dual
//! simplex (`mapqn_lp::dual`).
//!
//! [`PopulationSweep`] packages the loop: it remembers the optimal basis of
//! *every* objective at the previous population, translates each one into
//! the next population's variable numbering
//! ([`MarginalBoundSolver::translate_solved_bases_to`]), and re-solves each
//! objective with the dual engine from its own seed; unusable seeds fall
//! back to the ordinary primal warm-start path, so a sweep is never slower
//! than solving each population independently by more than the (cheap)
//! translation.
//!
//! ```
//! use mapqn_core::bounds::PopulationSweep;
//! use mapqn_core::templates::figure5_network;
//!
//! let network = figure5_network(1, 4.0, 0.5).unwrap();
//! let mut sweep = PopulationSweep::new(&network).unwrap();
//! for population in 1..=6 {
//!     let bounds = sweep.bounds_at(population).unwrap();
//!     assert!(bounds.system_throughput.lower <= bounds.system_throughput.upper);
//! }
//! // Most objectives after the first population were re-solved by the
//! // dual engine from the previous population's bases.
//! assert!(sweep.stats().dual_warm_objectives > 0);
//! ```

use super::marginal::{BoundOptions, MarginalBoundSolver, NetworkBounds, SlotOutcome};
use super::robust::{self, Rung};
use crate::network::ClosedNetwork;
use crate::Result;
use mapqn_linalg::SolveBudget;
use mapqn_lp::Basis;

/// Populations a canonical objective slot sits out after every seed
/// variant was rejected back to back: the rejections already cost a
/// factorization and a bounded pivot count each, and a vertex that failed
/// to transfer at population `N` rarely transfers at `N + 1`. Re-offering a
/// seed after a few populations lets the slot recover once its optimum
/// stabilizes again.
const REJECTION_COOLDOWN: usize = 3;

/// Which cross-population translation a slot currently uses (see
/// [`MarginalBoundSolver::translate_basis`] and
/// [`MarginalBoundSolver::translate_basis_shifted`]). Upper-bound
/// throughput-style optima are bottom-anchored (absolute levels transfer),
/// lower-bound throughput / upper-bound queue-length optima are
/// top-anchored (levels ride the population). Rather than hard-coding which
/// objective is which, each slot flips variant after a rejection and keeps
/// whatever warms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedVariant {
    Absolute,
    Shifted,
    Proportional,
}

impl SeedVariant {
    /// The next variant to try after a rejection (a 3-cycle).
    fn next(self) -> Self {
        match self {
            SeedVariant::Absolute => SeedVariant::Shifted,
            SeedVariant::Shifted => SeedVariant::Proportional,
            SeedVariant::Proportional => SeedVariant::Absolute,
        }
    }
}

/// Per-slot adaptive seeding state.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    variant: SeedVariant,
    /// Populations left to sit out before offering a seed again.
    cooldown: usize,
    /// Rejections since the last successful dual warm start.
    consecutive_rejections: usize,
}

impl Default for SlotState {
    fn default() -> Self {
        Self {
            variant: SeedVariant::Absolute,
            cooldown: 0,
            consecutive_rejections: 0,
        }
    }
}

/// Aggregate counters of a sweep's warm-start effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Populations solved so far.
    pub populations: usize,
    /// Objectives (LP solves) answered by the dual engine from a
    /// cross-population seed.
    pub dual_warm_objectives: usize,
    /// Objectives whose seed was salvaged by the zero-objective feasibility
    /// repair (primal solve from the repaired carried vertex, no phase 1).
    pub repair_warm_objectives: usize,
    /// Seeded objectives whose seed was rejected and that fell back to the
    /// primal warm-start path.
    pub dual_seed_rejections: usize,
    /// Objectives answered by a dense-tableau fallback. Always 0: the
    /// revised engine no longer falls back at run time (a failed objective
    /// fails the ladder's direct rung instead). Kept because `perfbench`
    /// reports it as `sweep.dense_fallbacks`.
    pub dense_fallbacks: usize,
}

/// Drives [`MarginalBoundSolver`] across a family of populations of one
/// network, carrying per-objective optimal bases from each population to the
/// next and re-solving them with the dual simplex.
///
/// Populations may be visited in any order, but consecutive (or at least
/// monotonically close) populations transfer best: the further apart two
/// populations are, the more dual pivots the repair needs.
pub struct PopulationSweep {
    network: ClosedNetwork,
    options: BoundOptions,
    /// Solver of the most recently completed population, kept alive for its
    /// recorded per-objective bases.
    previous: Option<MarginalBoundSolver>,
    /// Per-slot adaptive seeding state (translation variant, cooldown).
    slots: Vec<SlotState>,
    stats: SweepStats,
}

impl PopulationSweep {
    /// Creates a sweep over `network` (whose own population is irrelevant —
    /// each [`PopulationSweep::bounds_at`] call re-instantiates it at the
    /// requested population) with default bound options.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::Unsupported`] for networks the bound
    /// solver does not handle (delay stations).
    pub fn new(network: &ClosedNetwork) -> Result<Self> {
        Self::with_options(network, BoundOptions::default())
    }

    /// Creates a sweep with explicit bound options.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::Unsupported`] for networks the bound
    /// solver does not handle (delay stations).
    pub fn with_options(network: &ClosedNetwork, options: BoundOptions) -> Result<Self> {
        // Validate support eagerly so the error surfaces at construction,
        // not at the first bounds_at() call.
        MarginalBoundSolver::with_options(network, options)?;
        Ok(Self {
            network: network.clone(),
            options,
            previous: None,
            slots: Vec::new(),
            stats: SweepStats::default(),
        })
    }

    /// Bounds on every standard performance index at `population`,
    /// dual-warm-started from the previously solved population when one
    /// exists.
    ///
    /// Solve-level failures (budget exhaustion, numerical breakdown) do
    /// not surface as errors: this warm solve is the direct rung of the
    /// degradation ladder (see [`super::robust`]), and the returned
    /// [`NetworkBounds::quality`] records which rung produced the
    /// intervals.
    ///
    /// # Errors
    /// Propagates network-construction failures (the ladder cannot answer
    /// those either).
    pub fn bounds_at(&mut self, population: usize) -> Result<NetworkBounds> {
        let start = mapqn_linalg::budget::now();
        let network = self.network.with_population(population)?;
        let full = self.options.budget;
        robust::walk_bounds(&network, self.options, start, &[Rung::Floor], |slice| {
            self.options.budget = slice;
            let direct = self.warm_solve(&network);
            self.options.budget = full;
            direct
        })
    }

    /// Replaces the sweep's solve budget for subsequent populations (the
    /// bootstrap rung uses this to hand its steps a shared remaining-time
    /// allowance).
    pub(super) fn set_budget(&mut self, budget: SolveBudget) {
        self.options.budget = budget;
    }

    /// The ladder-free warm solve behind [`PopulationSweep::bounds_at`]
    /// of `network` (the sweep's network at the target population): one
    /// certified attempt that propagates failures to the caller. The
    /// bootstrap rung calls this directly — routing it through the
    /// laddered front door would recurse.
    pub(super) fn warm_solve(&mut self, network: &ClosedNetwork) -> Result<NetworkBounds> {
        let mut solver = MarginalBoundSolver::with_options(network, self.options)?;
        // Only the slots with real pivot work are worth seeding; everything
        // else re-prices in ~zero pivots off the rolling chain the
        // family-grouped solve order sets up, and a dual seed there pays a
        // factorization to save nothing. Measured on the case-study sweeps
        // the expensive solves are: the very first minimization (it carries
        // phase 1 — a successful seed removes the only cold start of the
        // population step) and the mean-queue-length family in both senses
        // (each MQL objective is a genuinely different functional, so the
        // chain cannot hand one's optimum to the next).
        let m = network.num_stations();
        let num_indices = 3 * m + 1;
        let is_seed_slot = |slot: usize| {
            let within = slot % num_indices;
            within == 0 || (2 * m + 1..=3 * m).contains(&within)
        };
        // Structure-informed starting variants (the 3-cycle still adapts
        // when the guess is wrong): the throughput lower bound piles the
        // population onto the bottleneck — a top-anchored vertex, Shifted;
        // queue-length lower bounds split the population in
        // demand-determined ratios — fractional positions, Proportional;
        // everything else starts Absolute.
        let initial_variant = |slot: usize| {
            if slot == 0 {
                SeedVariant::Shifted
            } else if slot < num_indices {
                SeedVariant::Proportional
            } else {
                SeedVariant::Absolute
            }
        };
        if self.slots.len() < 2 * num_indices {
            let start = self.slots.len();
            self.slots.extend((start..2 * num_indices).map(|slot| SlotState {
                variant: initial_variant(slot),
                ..SlotState::default()
            }));
        }
        let seeds: Vec<Option<Basis>> = match self.previous.as_ref() {
            Some(prev) => {
                let bases = prev.solved_bases();
                bases
                    .iter()
                    .enumerate()
                    .map(|(slot, basis)| {
                        if !is_seed_slot(slot) {
                            return None;
                        }
                        let state = self.slots[slot];
                        if state.cooldown > 0 {
                            return None;
                        }
                        Some(match state.variant {
                            SeedVariant::Absolute => prev.translate_basis(basis, &solver),
                            SeedVariant::Shifted => {
                                prev.translate_basis_shifted(basis, &solver)
                            }
                            SeedVariant::Proportional => {
                                prev.translate_basis_proportional(basis, &solver)
                            }
                        })
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let bounds = solver.bound_all_seeded(&seeds)?;

        // Adapt: a rejected slot flips its translation variant (its optimum
        // is anchored to the other end of the level grid) and, after both
        // variants failed back to back, sits out a few populations instead
        // of paying the rejection overhead every time.
        let outcomes = solver.solve_outcomes();
        for (slot, outcome) in outcomes.iter().enumerate().take(self.slots.len()) {
            let offered = seeds.get(slot).map(Option::is_some).unwrap_or(false);
            let state = &mut self.slots[slot];
            match outcome {
                SlotOutcome::DualWarm | SlotOutcome::RepairWarm => {
                    state.cooldown = 0;
                    state.consecutive_rejections = 0;
                }
                _ if offered => {
                    state.variant = state.variant.next();
                    state.consecutive_rejections += 1;
                    if state.consecutive_rejections >= 3 {
                        state.cooldown = REJECTION_COOLDOWN;
                    }
                }
                _ => state.cooldown = state.cooldown.saturating_sub(1),
            }
        }

        let solver_stats = solver.stats();
        self.stats.populations += 1;
        self.stats.repair_warm_objectives += solver_stats.feasibility_repairs;
        self.stats.dual_warm_objectives += solver_stats.dual_warm_solves;
        self.stats.dual_seed_rejections += solver_stats.dual_seed_rejections;

        self.previous = Some(solver);
        Ok(bounds)
    }

    /// The solver of the most recently completed population (for inspection
    /// or additional per-index [`MarginalBoundSolver::bound`] queries at
    /// that population).
    #[must_use]
    pub fn last_solver(&self) -> Option<&MarginalBoundSolver> {
        self.previous.as_ref()
    }

    /// Aggregate warm-start counters across every population solved so far.
    #[must_use]
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::templates::figure5_network;

    #[test]
    fn sweep_matches_independent_solves_and_uses_dual_warm_starts() {
        let network = figure5_network(1, 4.0, 0.5).unwrap();
        let mut sweep = PopulationSweep::new(&network).unwrap();
        for n in 1..=6 {
            let swept = sweep.bounds_at(n).unwrap();
            let mut cold_solver =
                MarginalBoundSolver::new(&network.with_population(n).unwrap()).unwrap();
            let cold = cold_solver.bound_all().unwrap();
            let exact = solve_exact(&network.with_population(n).unwrap()).unwrap();
            for k in 0..3 {
                assert!(
                    (swept.throughput[k].lower - cold.throughput[k].lower).abs() < 1e-6,
                    "N={n} station {k} throughput lower: sweep {} vs cold {}",
                    swept.throughput[k].lower,
                    cold.throughput[k].lower
                );
                assert!(
                    (swept.throughput[k].upper - cold.throughput[k].upper).abs() < 1e-6,
                    "N={n} station {k} throughput upper"
                );
                assert!(swept.utilization[k].contains(exact.utilization[k], 1e-6));
                assert!(swept
                    .mean_queue_length[k]
                    .contains(exact.mean_queue_length[k], 1e-6));
            }
            assert!(swept
                .system_throughput
                .contains(exact.system_throughput, 1e-6));
        }
        let stats = sweep.stats();
        assert_eq!(stats.populations, 6);
        assert_eq!(stats.dense_fallbacks, 0, "oracle fallback in a sweep");
        assert!(
            stats.dual_warm_objectives > 0,
            "expected at least some dual warm starts, got {stats:?}"
        );
    }

    #[test]
    fn sweep_rejects_unsupported_networks_at_construction() {
        use crate::network::Station;
        use crate::service::Service;
        use mapqn_linalg::DMatrix;
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let net = ClosedNetwork::new(
            vec![
                Station::delay("clients", 1.0).unwrap(),
                Station::queue("server", Service::exponential(1.0).unwrap()),
            ],
            routing,
            3,
        )
        .unwrap();
        assert!(PopulationSweep::new(&net).is_err());
    }
}

//! Linear-programming bounds from marginal cut balances — the paper's core
//! contribution.
//!
//! ## Idea
//!
//! The stationary distribution of the network's CTMC satisfies the global
//! balance equations, whose size explodes combinatorially. The paper's
//! observation is that those equations can be *aggregated exactly* into
//! relations that involve only **marginal probabilities**:
//!
//! * `p_k(n, h)   = P[n_k = n, phase_k = h]` — the queue-length/phase
//!   marginal of station `k`;
//! * `b_{j,k}(n, h_j) = P[n_j >= 1, phase_j = h_j, n_k = n]` — the joint
//!   "station j busy in phase h_j while station k holds n jobs" terms that
//!   appear in the level-crossing flows.
//!
//! The number of such terms is `O(M^2 (N+1) K)`, polynomial in the model
//! size, versus the combinatorial number of global states.
//!
//! ## Constraint families
//!
//! Every family below is an *exact* property of the true stationary
//! distribution, so any linear functional optimized over them brackets the
//! true value (the LP relaxation can only enlarge the feasible set):
//!
//! 1. **Normalization** — each station's marginal sums to one.
//! 2. **Population** — the mean queue lengths sum to `N`.
//! 3. **Marginal cut balance** (per station, per level `n`): the probability
//!    flux from states with `n_k = n` to states with `n_k = n + 1` (arrivals
//!    routed from busy stations `j != k`) equals the flux back (departures
//!    from `k` that leave the station). This is the grid of "marginal cuts"
//!    of Figure 7 in the paper.
//! 4. **Phase balance** (per MAP station): flux balance of the service-phase
//!    process, which only moves while the station is busy (the phase is
//!    frozen when the station idles).
//! 5. **Consistency** — `sum_n b_{j,k}(n, h_j) = P[n_j >= 1, phase_j = h_j]`.
//! 6. **Structural (in)equalities** — `b_{j,k}(n, h_j) <= P[n_k = n]`,
//!    `b_{j,k}(N, h_j) = 0`, and "some other station is busy whenever
//!    `n_k < N`", i.e. `sum_{j != k} P[n_j >= 1, n_k = n] >= P[n_k = n]`.
//!
//! Families 3, 4 and 6 can be toggled through [`BoundOptions`] for the
//! ablation study in `mapqn-bench`; families 1, 2 and 5 are always present.
//!
//! The solver only supports networks of single-server queues: delay stations
//! would require occupancy-weighted marginal terms (a straightforward but
//! larger extension noted in docs/ARCHITECTURE.md).

use super::robust::{self, Quality, Rung, SolveDiagnostics};
use super::{BoundInterval, PerformanceIndex};
use crate::network::ClosedNetwork;
use crate::{CoreError, Result};
use mapqn_linalg::SolveBudget;
use mapqn_lp::{
    Basis, LpProblem, LpSolution, LpStatus, RevisedSimplex, Sense, SimplexEngine,
    SimplexOptions,
};

/// Which optional constraint families to include (the mandatory ones —
/// normalization, population, consistency — are always added).
#[derive(Debug, Clone, Copy)]
pub struct BoundOptions {
    /// Include the marginal cut balance equations (family 3).
    pub include_cut_balance: bool,
    /// Include the phase balance equations of MAP stations (family 4).
    pub include_phase_balance: bool,
    /// Include the structural inequalities (family 6).
    pub include_structural: bool,
    /// Options forwarded to the simplex solver.
    pub simplex: SimplexOptions,
    /// Cooperative solve budget for a whole `bound_all` (all objectives,
    /// both senses). Anchored at solve entry and threaded into the simplex
    /// engines; on exhaustion the degradation ladder takes over instead of
    /// surfacing an error. The default is unlimited.
    pub budget: SolveBudget,
}

impl Default for BoundOptions {
    fn default() -> Self {
        Self {
            include_cut_balance: true,
            include_phase_balance: true,
            include_structural: true,
            simplex: SimplexOptions::default(),
            budget: SolveBudget::unlimited(),
        }
    }
}

/// Bounds on all the standard performance indexes of a network.
#[derive(Debug, Clone)]
pub struct NetworkBounds {
    /// Per-station throughput bounds.
    pub throughput: Vec<BoundInterval>,
    /// Per-station utilization bounds.
    pub utilization: Vec<BoundInterval>,
    /// Per-station mean queue-length bounds.
    pub mean_queue_length: Vec<BoundInterval>,
    /// System throughput bounds (station 0).
    pub system_throughput: BoundInterval,
    /// System response-time bounds derived from Little's law:
    /// `R_min = N / X_max`, `R_max = N / X_min`.
    pub system_response_time: BoundInterval,
    /// Population the bounds refer to.
    pub population: usize,
    /// Provenance of these bounds: which rung of the degradation ladder
    /// produced them (see [`Quality`]).
    pub quality: Quality,
    /// Structured record of how the solve went: ladder attempts, the budget
    /// that governed them and the wall clock consumed.
    pub diagnostics: SolveDiagnostics,
}

/// Variable indexing of the bound LP.
struct VariableLayout {
    m: usize,
    population: usize,
    phases: Vec<usize>,
    /// `p_offsets[k] + n * phases[k] + h` indexes `p_k(n, h)`.
    p_offsets: Vec<usize>,
    /// `b_offsets[j][k] + n * phases[j] + h_j` indexes `b_{j,k}(n, h_j)`
    /// (only for `j != k`; the diagonal entries are unused).
    b_offsets: Vec<Vec<usize>>,
    total: usize,
}

impl VariableLayout {
    fn new(network: &ClosedNetwork) -> Self {
        let m = network.num_stations();
        let population = network.population();
        let phases: Vec<usize> = network
            .stations()
            .iter()
            .map(|s| s.service.phases())
            .collect();
        let levels = population + 1;
        let mut cursor = 0usize;
        let mut p_offsets = Vec::with_capacity(m);
        for &ph in &phases {
            p_offsets.push(cursor);
            cursor += levels * ph;
        }
        let mut b_offsets = vec![vec![0usize; m]; m];
        for (j, row) in b_offsets.iter_mut().enumerate() {
            for (k, slot) in row.iter_mut().enumerate() {
                if j == k {
                    continue;
                }
                *slot = cursor;
                cursor += levels * phases[j];
            }
        }
        Self {
            m,
            population,
            phases,
            p_offsets,
            b_offsets,
            total: cursor,
        }
    }

    #[inline]
    fn p(&self, k: usize, n: usize, h: usize) -> usize {
        self.p_offsets[k] + n * self.phases[k] + h
    }

    #[inline]
    fn b(&self, j: usize, k: usize, n: usize, h_j: usize) -> usize {
        debug_assert_ne!(j, k);
        self.b_offsets[j][k] + n * self.phases[j] + h_j
    }

    /// Reverse lookup: which marginal term does structural variable `idx`
    /// represent? Used to translate a basis between solvers of the same
    /// network at different populations.
    fn decode(&self, idx: usize) -> Option<MarginalVar> {
        let levels = self.population + 1;
        for k in 0..self.m {
            let start = self.p_offsets[k];
            let len = levels * self.phases[k];
            if idx >= start && idx < start + len {
                let rel = idx - start;
                return Some(MarginalVar::P {
                    k,
                    n: rel / self.phases[k],
                    h: rel % self.phases[k],
                });
            }
        }
        for j in 0..self.m {
            for k in 0..self.m {
                if j == k {
                    continue;
                }
                let start = self.b_offsets[j][k];
                let len = levels * self.phases[j];
                if idx >= start && idx < start + len {
                    let rel = idx - start;
                    return Some(MarginalVar::B {
                        j,
                        k,
                        n: rel / self.phases[j],
                        h: rel % self.phases[j],
                    });
                }
            }
        }
        None
    }
}

/// Semantic identity of a structural LP variable (see [`VariableLayout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MarginalVar {
    /// `p_k(n, h)`.
    P { k: usize, n: usize, h: usize },
    /// `b_{j,k}(n, h_j)`.
    B { j: usize, k: usize, n: usize, h: usize },
}

/// Semantic identity of a constraint row, stable across populations of the
/// same network: the row "cut balance of station `k` at level `n`" means the
/// same thing in every population that has level `n`. Basis translation uses
/// these keys to carry *slack and artificial* basic columns across a
/// population change — structural columns alone lose the inequality-row
/// state of the vertex, which costs the dual engine dozens of repair pivots
/// and a full crash-completion pass per objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RowKey {
    /// Family 1: normalization of station `k`'s marginal.
    Norm(usize),
    /// Family 2: the population constraint.
    Pop,
    /// Family 5: consistency of `b_{j,k}(., h)` with `p_j(., h)`.
    Cons { j: usize, k: usize, h: usize },
    /// Family 3: marginal cut balance of station `k` at level `n`.
    Cut { k: usize, n: usize },
    /// Family 4: phase balance of station `k`, phase `h`.
    Phase { k: usize, h: usize },
    /// Family 6: `b_{j,k}(n, h) <= P[n_k = n]`.
    StructLe { j: usize, k: usize, h: usize, n: usize },
    /// Family 6: "someone else is busy" at `n_k = n`.
    Busy { k: usize, n: usize },
}

impl RowKey {
    /// The same row with its level remapped through `map` (level-free rows
    /// are unchanged); `None` when the map drops the level.
    fn map_level(self, map: &dyn Fn(usize) -> Option<usize>) -> Option<RowKey> {
        Some(match self {
            RowKey::Cut { k, n } => RowKey::Cut { k, n: map(n)? },
            RowKey::StructLe { j, k, h, n } => RowKey::StructLe { j, k, h, n: map(n)? },
            RowKey::Busy { k, n } => RowKey::Busy { k, n: map(n)? },
            other => other,
        })
    }
}

/// Warm-start state of the revised LP engine: the engine bound to this
/// solver's constraint set plus the most recent optimal basis (which seeds
/// the next solve, making phase 1 a once-per-network cost). The basis is
/// absent until the first solve — dual-seeded solves create the engine
/// without ever running phase 1.
struct WarmState {
    engine: RevisedSimplex,
    basis: Option<Basis>,
}

/// The solver's owned mutable state: the warm-started LP engine, the
/// per-slot bases and engine paths of the last full solve, and the usage
/// counters.
///
/// This used to live behind `RefCell`/`Cell` interior mutability so the
/// solve methods could take `&self`; it is now a plain owned struct (and the
/// solve methods take `&mut self`) so that a `MarginalBoundSolver` is
/// `Send` by construction — an ensemble worker thread owns its solver
/// instances outright, mutates them without any runtime borrow machinery,
/// and its stats are merged with the other workers' at join
/// (`crate::bounds::ensemble`).
#[derive(Default)]
struct SolverContext {
    warm: Option<WarmState>,
    timings: SolverTimings,
    /// Optimal bases of the objectives solved by the last
    /// [`MarginalBoundSolver::bound_all`]-style call, in canonical order
    /// (see `MarginalBoundSolver::canonical_indices`); the raw material a
    /// population sweep translates into the next population's dual seeds.
    solved_bases: Vec<Basis>,
    /// Per-slot engine path of the last full solve, aligned with
    /// `solved_bases`.
    solve_outcomes: Vec<SlotOutcome>,
    stats: SolverStats,
}

/// A cross-population warm start only counts as a *successful transfer*
/// when the whole solve finished within this many pivots: a seed can be
/// technically usable (dual feasible, repairable) yet land far from the new
/// optimum, and a long walk from a carried vertex is no better than the
/// rolling path it displaced. The sweep uses the classification to stop
/// offering seeds to slots whose optima reorganize with the population.
const TRANSFER_ACCEPT_ITERATIONS: usize = 100;

/// Which engine path answered one canonical objective slot of a
/// [`MarginalBoundSolver::bound_all_seeded`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// The dual engine re-solved from the provided cross-population seed.
    DualWarm,
    /// The seed's objective-specific dual re-solve was rejected, but the
    /// zero-objective repair turned it into a primal feasible warm start
    /// and the primal engine finished from there — still a successful
    /// cross-population transfer, just through the fallback lane.
    RepairWarm,
    /// The primal path (rolling warm start or phase 1) answered — either no
    /// seed was provided or the seed was unusable in every form.
    Primal,
}

/// Counters describing how the solver's LP engines were exercised, exposed
/// through [`MarginalBoundSolver::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Objectives solved by the revised engine (primal or dual path).
    pub revised_solves: usize,
    /// Objectives re-solved by the dual engine from a cross-population seed.
    pub dual_warm_solves: usize,
    /// Dual seeds that were rejected (not dual feasible / numerically
    /// unusable), falling back to the primal warm-start path.
    pub dual_seed_rejections: usize,
    /// Rejected or left-over seeds that were still converted into a primal
    /// feasible warm start by the zero-objective dual repair (standing in
    /// for a cold phase 1).
    pub feasibility_repairs: usize,
}

/// Per-phase wall-clock profile of a solver's lifetime, exposed through
/// [`MarginalBoundSolver::timings`]. Deliberately separate from
/// [`SolverStats`]: the counters are schedule-independent and compared
/// bitwise by the determinism tests, while wall-clock numbers differ on
/// every run — they exist for performance forensics (the `bench_lp`
/// large-N cold profile that located the cold-`bound_all` hotspot, see
/// ROADMAP.md).
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverTimings {
    /// Constraint-set construction plus revised-engine setup (first
    /// factorization of the standard form).
    pub setup_ns: u64,
    /// Cold phase-1 runs (`find_feasible_basis`) of the revised engine.
    pub phase1_ns: u64,
    /// Dual-simplex re-solves from cross-population seeds.
    pub dual_ns: u64,
    /// Zero-objective dual repairs of rejected/carried seeds.
    pub repair_ns: u64,
    /// Primal warm-started objective solves (the `bound_all` workhorse).
    pub primal_ns: u64,
    /// Dense-tableau solves (only when [`SimplexEngine::DenseTableau`] is
    /// selected as the oracle; the revised engine never falls back to it).
    pub dense_ns: u64,
    /// Simplex iterations of the primal solves (pivots + re-pricings).
    pub primal_pivots: u64,
    /// Simplex iterations of the dual re-solves.
    pub dual_pivots: u64,
}

impl SolverTimings {
    /// Total time across all phases, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.setup_ns
            + self.phase1_ns
            + self.dual_ns
            + self.repair_ns
            + self.primal_ns
            + self.dense_ns
    }
}

/// The bound solver: builds the constraint set once and solves a pair of
/// LPs (min / max) per requested performance index.
///
/// With the default [`SimplexEngine::Revised`] the solver runs phase 1
/// **once** per network, caches the resulting basis, and warm starts every
/// subsequent objective (both senses of every index queried by
/// [`MarginalBoundSolver::bound_all`]) from the previous optimum. Selecting
/// [`SimplexEngine::DenseTableau`] through
/// [`BoundOptions::simplex`] reproduces the original cold dense-tableau
/// behaviour, which is kept as a correctness oracle.
///
/// The polynomial-size LP is the whole point: bounds stay tractable on
/// models whose exact state space explodes. Solve methods take `&mut self`
/// (warm-start state is owned, making the solver `Send` for the ensemble
/// layer):
///
/// ```
/// use mapqn_core::templates::figure5_network;
/// use mapqn_core::{MarginalBoundSolver, PerformanceIndex};
///
/// let network = figure5_network(20, 16.0, 0.5).unwrap(); // SCV=16 case study
/// let mut solver = MarginalBoundSolver::new(&network).unwrap();
/// // Polynomially many marginal variables, not the combinatorial CTMC.
/// assert!(solver.num_variables() < 2_000);
///
/// let throughput = solver.bound(PerformanceIndex::SystemThroughput).unwrap();
/// assert!(throughput.lower > 0.0 && throughput.lower <= throughput.upper);
///
/// // bound_all() solves every standard index, grouped so consecutive
/// // objectives warm start off each other's optimal bases.
/// let all = solver.bound_all().unwrap();
/// assert_eq!(all.mean_queue_length.len(), 3);
/// ```
pub struct MarginalBoundSolver {
    network: ClosedNetwork,
    options: BoundOptions,
    layout: VariableLayout,
    base: LpProblem,
    /// Visit ratios relative to station 0, used by the dedicated
    /// system-throughput objective.
    visit_ratios: Vec<f64>,
    /// Semantic key of every constraint row, in row order.
    row_keys: Vec<RowKey>,
    /// Reverse lookup of `row_keys`.
    row_index: std::collections::HashMap<RowKey, usize>,
    /// Standard-form slack column of each row (`None` for equality rows),
    /// mirroring the numbering `RevisedSimplex` assigns: slacks follow the
    /// structural variables in row order.
    row_slack: Vec<Option<usize>>,
    /// Row of each slack column (index = slack column − `num_vars`).
    slack_rows: Vec<usize>,
    /// First artificial column in standard form (structural + slack count),
    /// mirroring `RevisedSimplex::num_real_columns`.
    total_real: usize,
    /// All mutable solve state (warm engine, recorded bases/outcomes,
    /// counters), owned and `Send` — see [`SolverContext`].
    context: SolverContext,
}

impl MarginalBoundSolver {
    /// Creates a solver for the given network with default options.
    ///
    /// # Errors
    /// Returns [`CoreError::Unsupported`] for networks containing delay
    /// stations.
    pub fn new(network: &ClosedNetwork) -> Result<Self> {
        Self::with_options(network, BoundOptions::default())
    }

    /// Creates a solver with explicit options.
    ///
    /// # Errors
    /// Returns [`CoreError::Unsupported`] for networks containing delay
    /// stations.
    pub fn with_options(network: &ClosedNetwork, options: BoundOptions) -> Result<Self> {
        if !network.is_queue_only() {
            return Err(CoreError::Unsupported(
                "marginal-balance LP bounds support networks of single-server queues only"
                    .into(),
            ));
        }
        let t_setup = mapqn_linalg::budget::now();
        let layout = VariableLayout::new(network);
        let (base, row_keys) = build_constraints(network, &layout, &options);
        let visit_ratios = network.visit_ratios()?;
        let mut row_slack = Vec::with_capacity(base.num_constraints());
        let mut slack_rows = Vec::new();
        let mut cursor = base.num_vars();
        for (row, constraint) in base.constraints().iter().enumerate() {
            if constraint.op == mapqn_lp::ConstraintOp::Eq {
                row_slack.push(None);
            } else {
                row_slack.push(Some(cursor));
                slack_rows.push(row);
                cursor += 1;
            }
        }
        let row_index = row_keys
            .iter()
            .enumerate()
            .map(|(row, &key)| (key, row))
            .collect();
        let mut context = SolverContext::default();
        context.timings.setup_ns = t_setup.elapsed().as_nanos() as u64;
        Ok(Self {
            network: network.clone(),
            options,
            layout,
            base,
            visit_ratios,
            row_keys,
            row_index,
            row_slack,
            slack_rows,
            total_real: cursor,
            context,
        })
    }

    /// Engine-usage counters since this solver was created.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.context.stats
    }

    /// Per-phase wall-clock profile (constraint build, phase 1, dual /
    /// repair / primal / oracle solve time, pivot counts) accumulated since
    /// this solver was created. See [`SolverTimings`].
    #[must_use]
    pub fn timings(&self) -> SolverTimings {
        self.context.timings
    }

    /// Number of LP variables (the `M^2 (N+1) K`-style count the paper
    /// contrasts with the global state-space size).
    #[must_use]
    pub fn num_variables(&self) -> usize {
        self.layout.total
    }

    /// Number of LP constraints generated.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.base.num_constraints()
    }

    /// The underlying LP over the marginal probability terms (constraints
    /// only; the objective is installed per performance index). Exposed for
    /// the engine-equivalence tests and the benchmark harnesses.
    #[must_use]
    pub fn lp_problem(&self) -> &LpProblem {
        &self.base
    }

    /// Sparse objective coefficients of a performance index over the LP's
    /// variable numbering.
    #[must_use]
    pub fn objective_for(&self, index: PerformanceIndex) -> Vec<(usize, f64)> {
        self.objective_terms(index)
    }

    /// Objective terms of a performance index.
    fn objective_terms(&self, index: PerformanceIndex) -> Vec<(usize, f64)> {
        let layout = &self.layout;
        let network = &self.network;
        let mut terms = Vec::new();
        match index {
            PerformanceIndex::SystemThroughput => {
                // Dedicated system-level functional: the average of the
                // per-station throughputs normalized by their visit ratios,
                // `(1/M) sum_k X_k / v_k`. The forced-flow law makes every
                // term equal to the station-0 throughput for the true
                // distribution (X_k = v_k X_0), so the functional is exact;
                // under the LP relaxation it can only *tighten* the
                // interval relative to the single-station `X_0` objective —
                // the two coincide when the cut-balance family (which
                // implies the traffic equations) is enabled, and the
                // averaged form stays correctly system-level when it is
                // ablated away or when visit ratios are non-unit.
                // Stations the routing chain never visits have v_k = 0 and
                // X_k = 0; the k-th term is a 0/0 that must be dropped, not
                // divided (the functional stays exact — every *included*
                // term equals X_0 for the true distribution).
                let visited: Vec<usize> = (0..layout.m)
                    .filter(|&k| self.visit_ratios[k] > 0.0)
                    .collect();
                let count = visited.len() as f64;
                for &k in &visited {
                    let station = network.station(k);
                    let weight = 1.0 / (self.visit_ratios[k] * count);
                    for n in 1..=layout.population {
                        for h in 0..layout.phases[k] {
                            terms.push((
                                layout.p(k, n, h),
                                station.service.completion_rate(h) * weight,
                            ));
                        }
                    }
                }
            }
            PerformanceIndex::Throughput(k) => {
                let station = network.station(k);
                for n in 1..=layout.population {
                    for h in 0..layout.phases[k] {
                        terms.push((layout.p(k, n, h), station.service.completion_rate(h)));
                    }
                }
            }
            PerformanceIndex::Utilization(k) => {
                for n in 1..=layout.population {
                    for h in 0..layout.phases[k] {
                        terms.push((layout.p(k, n, h), 1.0));
                    }
                }
            }
            PerformanceIndex::MeanQueueLength(k) => {
                for n in 1..=layout.population {
                    for h in 0..layout.phases[k] {
                        terms.push((layout.p(k, n, h), n as f64));
                    }
                }
            }
        }
        terms
    }

    /// Computes lower and upper bounds on a performance index.
    ///
    /// # Errors
    /// Returns [`CoreError::BoundLpFailed`] when the LP solver reports an
    /// infeasible or unbounded program (which would indicate a bug in the
    /// constraint generation, since the true distribution is feasible and
    /// every supported functional is bounded).
    pub fn bound(&mut self, index: PerformanceIndex) -> Result<BoundInterval> {
        let terms = self.objective_terms(index);
        let lower = self.solve_checked(&terms, Sense::Minimize)?;
        let upper = self.solve_checked(&terms, Sense::Maximize)?;
        Ok(self.widen(&lower, &upper))
    }

    /// Solves one objective and insists on an optimal termination.
    fn solve_checked(&mut self, terms: &[(usize, f64)], sense: Sense) -> Result<LpSolution> {
        let solution = self.solve_objective(terms, sense)?;
        if solution.status != LpStatus::Optimal {
            return Err(CoreError::BoundLpFailed(format!(
                "{} LP terminated with status {:?}",
                match sense {
                    Sense::Minimize => "lower-bound",
                    Sense::Maximize => "upper-bound",
                },
                solution.status
            )));
        }
        Ok(solution)
    }

    /// Assembles a valid interval from the two optima.
    ///
    /// The simplex terminates when every reduced cost is within its
    /// optimality tolerance, so the reported optima can fall short of the
    /// true LP optima by a small multiple of that tolerance (tolerance
    /// times the number of variables, conservatively). Widen the interval
    /// by that amount so the returned values remain valid bounds; the
    /// widening is orders of magnitude below the bound widths reported in
    /// the experiments.
    fn widen(&self, lower: &LpSolution, upper: &LpSolution) -> BoundInterval {
        let numeric_margin = self.options.simplex.tolerance * 10.0 * self.layout.total as f64;
        let slack = |value: f64| numeric_margin * (1.0 + value.abs());
        BoundInterval::new(
            lower.objective - slack(lower.objective),
            upper.objective + slack(upper.objective),
        )
    }

    /// The objectives a full-network solve covers, **grouped by family**:
    /// all throughputs (including the system throughput), then all
    /// utilizations, then all mean queue lengths. Consecutive same-family
    /// objectives share optimal faces — every throughput functional is
    /// proportional to every other on a feasible set satisfying the traffic
    /// equations, so after the first throughput solve the rest re-price in
    /// ~zero pivots — which makes the family grouping markedly cheaper than
    /// interleaving per-station triples. A population sweep relies on this
    /// order staying fixed across populations of the same network, so
    /// per-objective bases can be carried by slot position.
    pub(crate) fn canonical_indices(&self) -> Vec<PerformanceIndex> {
        let m = self.layout.m;
        let mut indices: Vec<PerformanceIndex> =
            (0..m).map(PerformanceIndex::Throughput).collect();
        indices.push(PerformanceIndex::SystemThroughput);
        indices.extend((0..m).map(PerformanceIndex::Utilization));
        indices.extend((0..m).map(PerformanceIndex::MeanQueueLength));
        indices
    }

    /// Computes bounds on every standard index of the network.
    ///
    /// All lower bounds are solved before all upper bounds: with the warm
    /// started revised engine, consecutive same-sense objectives stop at
    /// nearby vertices and re-price in a handful of pivots, while
    /// alternating min/max would walk across the whole feasible polytope
    /// once per index (measured at roughly twice the total pivot count).
    ///
    /// The system-throughput interval comes from solving the dedicated
    /// [`PerformanceIndex::SystemThroughput`] objective — the same one
    /// [`MarginalBoundSolver::response_time_bounds`] solves — not from
    /// copying station 0's throughput interval, so the two APIs agree by
    /// construction (they previously could not disagree only in networks
    /// where the two functionals coincide).
    ///
    /// # Errors
    /// Only construction-grade failures surface: solve failures (budget
    /// exhaustion, numerical breakdown) are absorbed by the degradation
    /// ladder (see [`super::robust`]): this cold solve is its direct rung,
    /// followed by a salted re-solve, a self-seeded population bootstrap and
    /// finally the algebraic asymptotic floor — the returned
    /// [`NetworkBounds::quality`] records which rung answered.
    pub fn bound_all(&mut self) -> Result<NetworkBounds> {
        let start = mapqn_linalg::budget::now();
        let full = self.options.budget;
        let network = self.network.clone();
        robust::walk_bounds(&network, self.options, start, &[Rung::Floor], |slice| {
            self.options.budget = slice;
            let direct = self.bound_all_seeded(&[]);
            self.options.budget = full;
            direct
        })
    }

    /// [`MarginalBoundSolver::bound_all`] with optional cross-population
    /// warm starts: `seeds[slot]` is tried as a **dual-simplex** starting
    /// basis for the canonical slot (all minimizations of
    /// `MarginalBoundSolver::canonical_indices` at slots `0..len`, then
    /// all maximizations at `len..2*len`); pass an empty slice (or `None`
    /// entries) to leave slots unseeded. Seeds are typically produced by
    /// [`MarginalBoundSolver::translate_solved_bases_to`] on the same
    /// network at a neighbouring population; unusable seeds fall back to the
    /// primal warm-start path, so seeding can only help.
    ///
    /// Both blocks are solved in the same order with and without seeds —
    /// all minimizations (family-grouped), then all maximizations — so a
    /// seeded solve drops into the same rolling chain a cold solve uses.
    /// When slot 0 (the first minimization) carries a usable seed, its
    /// dual re-solve or zero-objective repair stands in for phase 1 and
    /// the population step never runs a cold start.
    ///
    /// After the call, [`MarginalBoundSolver::solved_bases`] holds this
    /// solve's optimal bases and [`MarginalBoundSolver::solve_outcomes`]
    /// the per-slot engine paths, both in canonical slot order.
    ///
    /// # Errors
    /// Propagates LP failures.
    pub fn bound_all_seeded(&mut self, seeds: &[Option<Basis>]) -> Result<NetworkBounds> {
        // Anchor the declarative budget for this whole solve: every engine
        // call below shares one absolute deadline through the simplex
        // options. Re-anchored on every entry, so repeated solves each get
        // the full allowance.
        if !self.options.budget.is_unlimited() {
            self.options.simplex.budget = self
                .options
                .budget
                .engine_budget(mapqn_linalg::budget::now());
        }
        let m = self.layout.m;
        let n = self.layout.population;
        let indices = self.canonical_indices();
        let num_indices = indices.len();
        {
            let empty = Basis::from_columns(Vec::new());
            self.context.solved_bases.clear();
            self.context.solved_bases.resize(2 * num_indices, empty);
            self.context.solve_outcomes.clear();
            self.context
                .solve_outcomes
                .resize(2 * num_indices, SlotOutcome::Primal);
        }

        let mut lowers: Vec<Option<LpSolution>> = vec![None; num_indices];
        let mut uppers: Vec<Option<LpSolution>> = vec![None; num_indices];

        // Minimizations first — the phase-1 vertex (everything on the
        // slacks) is closer to the lower-bound optima — each block in
        // family order. The order is the same with and without seeds: the
        // rolling chain this order sets up resolves most objectives in
        // ~zero pivots (same-family neighbours share optimal faces, and
        // the min-block end vertex prices out optimal for most of the max
        // block), and a seeded solve drops into the chain without
        // disturbing the objectives around it. When slot 0 is seeded and
        // its dual re-solve succeeds, it also stands in for phase 1 — a
        // seeded sweep step never goes cold at all.
        for (i, slot) in lowers.iter_mut().enumerate() {
            *slot = Some(self.solve_slot(&indices, i, Sense::Minimize, seeds)?);
        }
        for (i, slot) in uppers.iter_mut().enumerate() {
            *slot = Some(self.solve_slot(&indices, i, Sense::Maximize, seeds)?);
        }

        // INFALLIBLE: the loops above filled every slot (or returned `Err`).
        let lower_at = |i: usize| lowers[i].as_ref().expect("solved above");
        let upper_at = |i: usize| uppers[i].as_ref().expect("solved above");
        // Canonical layout: throughputs at 0..m, system throughput at m,
        // utilizations at m+1.., mean queue lengths at 2m+1...
        let throughput: Vec<BoundInterval> = (0..m)
            .map(|k| self.widen(lower_at(k), upper_at(k)))
            .collect();
        let utilization: Vec<BoundInterval> = (0..m)
            .map(|k| self.widen(lower_at(m + 1 + k), upper_at(m + 1 + k)))
            .collect();
        let mean_queue_length: Vec<BoundInterval> = (0..m)
            .map(|k| self.widen(lower_at(2 * m + 1 + k), upper_at(2 * m + 1 + k)))
            .collect();
        let system_throughput = self.widen(lower_at(m), upper_at(m));
        let system_response_time = response_time_from_throughput(system_throughput, n);
        Ok(NetworkBounds {
            throughput,
            utilization,
            mean_queue_length,
            system_throughput,
            system_response_time,
            population: n,
            quality: Quality::Certified,
            diagnostics: SolveDiagnostics::default(),
        })
    }

    /// Solves one canonical slot (objective `indices[i]` in `sense`) with
    /// its optional seed, recording the optimal basis and engine path at the
    /// slot.
    fn solve_slot(
        &mut self,
        indices: &[PerformanceIndex],
        i: usize,
        sense: Sense,
        seeds: &[Option<Basis>],
    ) -> Result<LpSolution> {
        let slot = if sense == Sense::Maximize {
            indices.len() + i
        } else {
            i
        };
        let seed = seeds.get(slot).and_then(Option::as_ref);
        let terms = self.objective_terms(indices[i]);
        let (solution, basis, outcome) = self
            .solve_checked_seeded(&terms, sense, seed)
            .map_err(|e| CoreError::ObjectiveSolve {
                population: self.layout.population,
                objective: indices[i],
                source: Box::new(e),
            })?;
        self.context.solved_bases[slot] = basis;
        self.context.solve_outcomes[slot] = outcome;
        Ok(solution)
    }

    /// Convenience: bounds on the system response time only (one pair of
    /// LPs), the quantity evaluated in Table 1 of the paper.
    ///
    /// # Errors
    /// Propagates LP failures.
    pub fn response_time_bounds(&mut self) -> Result<BoundInterval> {
        let x = self.bound(PerformanceIndex::SystemThroughput)?;
        Ok(response_time_from_throughput(x, self.layout.population))
    }

    /// Like [`MarginalBoundSolver::solve_checked`], but optionally trying a
    /// dual-simplex seed first and returning the optimal basis alongside
    /// the solution (an empty basis when the dense oracle answered — it
    /// carries no reusable basis) plus the engine path taken.
    fn solve_checked_seeded(
        &mut self,
        terms: &[(usize, f64)],
        sense: Sense,
        seed: Option<&Basis>,
    ) -> Result<(LpSolution, Basis, SlotOutcome)> {
        let (solution, basis, outcome) = self.solve_objective_seeded(terms, sense, seed)?;
        if solution.status != LpStatus::Optimal {
            return Err(CoreError::BoundLpFailed(format!(
                "{} LP terminated with status {:?}",
                match sense {
                    Sense::Minimize => "lower-bound",
                    Sense::Maximize => "upper-bound",
                },
                solution.status
            )));
        }
        Ok((
            solution,
            basis.unwrap_or_else(|| Basis::from_columns(Vec::new())),
            outcome,
        ))
    }

    /// Solves one objective over the cached constraint set, dispatching on
    /// the configured engine. The revised path warm starts from the basis of
    /// the previous solve; when it cannot reach an optimal vertex the solve
    /// fails, and the degradation ladder's salted re-solve is the recovery
    /// path.
    fn solve_objective(&mut self, terms: &[(usize, f64)], sense: Sense) -> Result<LpSolution> {
        self.solve_objective_seeded(terms, sense, None)
            .map(|(solution, _, _)| solution)
    }

    /// Engine dispatch with an optional dual seed: the dense-tableau oracle
    /// when it is the selected engine, the revised engine otherwise.
    fn solve_objective_seeded(
        &mut self,
        terms: &[(usize, f64)],
        sense: Sense,
        seed: Option<&Basis>,
    ) -> Result<(LpSolution, Option<Basis>, SlotOutcome)> {
        if self.options.simplex.engine == SimplexEngine::DenseTableau {
            let t_dense = mapqn_linalg::budget::now();
            let solution = self.solve_dense(terms, sense);
            self.context.timings.dense_ns += t_dense.elapsed().as_nanos() as u64;
            return Ok((solution?, None, SlotOutcome::Primal));
        }
        let (solution, basis, outcome) = self.solve_revised(terms, sense, seed)?;
        Ok((solution, Some(basis), outcome))
    }

    /// Revised-engine solve to an optimal vertex; anything short of one is
    /// an error.
    ///
    /// When a `dual_seed` is supplied (a basis translated from the same
    /// network at a neighbouring population), the dual engine is tried
    /// first: the seed is usually still dual feasible for the objective it
    /// was optimal for, and a few dual pivots repair primal feasibility —
    /// no phase 1 at all. A rejected seed silently degrades to the primal
    /// warm-start path (and is counted in the stats).
    fn solve_revised(
        &mut self,
        terms: &[(usize, f64)],
        sense: Sense,
        dual_seed: Option<&Basis>,
    ) -> Result<(LpSolution, Basis, SlotOutcome)> {
        if self.context.warm.is_none() {
            let t_setup = mapqn_linalg::budget::now();
            let engine = RevisedSimplex::new(&self.base).map_err(CoreError::Lp)?;
            engine.set_perturbation_salt(self.options.simplex.perturbation_salt);
            self.context.warm = Some(WarmState {
                engine,
                basis: None,
            });
            self.context.timings.setup_ns += t_setup.elapsed().as_nanos() as u64;
        }
        let stats = &mut self.context.stats;
        let timings = &mut self.context.timings;
        // INFALLIBLE: the `if self.context.warm.is_none()` block above
        // just populated the slot.
        let warm = self.context.warm.as_mut().expect("initialized above");

        let mut objective = vec![0.0; self.layout.total];
        for &(idx, c) in terms {
            objective[idx] += c;
        }

        if let Some(seed) = dual_seed {
            let t_dual = mapqn_linalg::budget::now();
            let attempt =
                warm.engine
                    .solve_dual_from_basis(&objective, sense, seed, &self.options.simplex);
            timings.dual_ns += t_dual.elapsed().as_nanos() as u64;
            match attempt {
                Ok(Some((solution, basis, _outcome)))
                    if solution.status == LpStatus::Optimal =>
                {
                    warm.basis = Some(basis.clone());
                    timings.dual_pivots += solution.iterations as u64;
                    let outcome = if solution.iterations <= TRANSFER_ACCEPT_ITERATIONS {
                        SlotOutcome::DualWarm
                    } else {
                        // Solved, but the carried vertex was far: classify
                        // as a non-transfer so sweep adaptivity reacts.
                        SlotOutcome::Primal
                    };
                    stats.revised_solves += 1;
                    // Count only solves *classified* as transfers, so the
                    // stats agree with the sweep's adaptation.
                    if outcome == SlotOutcome::DualWarm {
                        stats.dual_warm_solves += 1;
                    }
                    return Ok((solution, basis, outcome));
                }
                // Unusable seed (dual infeasible, stalled, or a numerical
                // error): degrade to the primal path below.
                Ok(_) | Err(_) => {
                    stats.dual_seed_rejections += 1;
                }
            }
        }

        // A rejected seed is still worth a *zero-objective* dual repair: it
        // yields a primal feasible basis a few pivots from the carried
        // vertex — a better primal starting point for this objective than
        // the rolling basis (which sits at the previous objective's
        // optimum), and, on the first solve of a population, a stand-in for
        // the whole cold phase 1.
        let mut repaired = false;
        if let Some(seed) = dual_seed {
            let t_repair = mapqn_linalg::budget::now();
            let attempt = warm
                .engine
                .repair_primal_feasible(seed, &self.options.simplex);
            timings.repair_ns += t_repair.elapsed().as_nanos() as u64;
            if let Ok(Some(basis)) = attempt {
                warm.basis = Some(basis);
                repaired = true;
            }
        }
        if warm.basis.is_none() {
            // Timing accumulates before the error check on purpose: the
            // failure path is exactly where the profile matters (the cold
            // breakdown at large N burns its minutes *inside* failing
            // solves, which a success-only profile would report as zero).
            let t_phase1 = mapqn_linalg::budget::now();
            let found = warm.engine.find_feasible_basis(&self.options.simplex);
            timings.phase1_ns += t_phase1.elapsed().as_nanos() as u64;
            let Some(basis) = found.map_err(CoreError::Lp)? else {
                return Err(CoreError::BoundLpFailed(
                    "phase 1 found no feasible basis".into(),
                ));
            };
            warm.basis = Some(basis);
        }
        // INFALLIBLE: both branches above either stored a basis or
        // returned early.
        let start = warm.basis.clone().expect("ensured above");
        let t_primal = mapqn_linalg::budget::now();
        let attempt =
            warm.engine
                .solve_from_basis(&objective, sense, &start, &self.options.simplex);
        timings.primal_ns += t_primal.elapsed().as_nanos() as u64;
        let (solution, next_basis) = attempt.map_err(CoreError::Lp)?;
        timings.primal_pivots += solution.iterations as u64;
        if solution.status != LpStatus::Optimal {
            return Err(CoreError::BoundLpFailed(format!(
                "revised simplex stopped with status {:?}",
                solution.status
            )));
        }
        warm.basis = Some(next_basis.clone());
        let outcome = if repaired && solution.iterations <= TRANSFER_ACCEPT_ITERATIONS {
            SlotOutcome::RepairWarm
        } else {
            SlotOutcome::Primal
        };
        stats.revised_solves += 1;
        // Count only repairs whose follow-up solve was short enough to
        // classify as a transfer, so the stats agree with the sweep's
        // adaptation (and with what the counter's name promises).
        if outcome == SlotOutcome::RepairWarm {
            stats.feasibility_repairs += 1;
        }
        Ok((solution, next_basis, outcome))
    }

    /// Cold dense-tableau solve (the original code path, kept as oracle).
    fn solve_dense(&self, terms: &[(usize, f64)], sense: Sense) -> Result<LpSolution> {
        let mut problem = self.base.clone();
        problem.set_objective(terms);
        problem.set_sense(sense);
        let options = SimplexOptions {
            engine: SimplexEngine::DenseTableau,
            ..self.options.simplex
        };
        Ok(problem.solve_with(&options)?)
    }

    /// The basis cached from the most recent revised-engine solve, if any.
    /// Together with [`MarginalBoundSolver::translate_basis_to`] this lets a
    /// population sweep seed the next population's solver.
    #[must_use]
    pub fn warm_basis(&self) -> Option<Basis> {
        self.context.warm.as_ref().and_then(|w| w.basis.clone())
    }

    /// The optimal bases recorded by the last
    /// [`MarginalBoundSolver::bound_all`]-style call, in canonical slot
    /// order (minimizations of `MarginalBoundSolver::canonical_indices`
    /// at slots `0..len`, then maximizations). Empty before the first such
    /// call.
    #[must_use]
    pub fn solved_bases(&self) -> Vec<Basis> {
        self.context.solved_bases.clone()
    }

    /// The engine path taken for each canonical slot of the last
    /// [`MarginalBoundSolver::bound_all`]-style call (aligned with
    /// [`MarginalBoundSolver::solved_bases`]). Empty before the first such
    /// call. A population sweep uses this to stop offering seeds to slots
    /// that keep rejecting them.
    #[must_use]
    pub fn solve_outcomes(&self) -> Vec<SlotOutcome> {
        self.context.solve_outcomes.clone()
    }

    /// True-rhs integrity recheck of a stored basis against this solver's
    /// constraint set: factorizability plus primal feasibility of the basic
    /// solution at the **unperturbed** right-hand side, within `tol`. The
    /// planning-session cache runs this on every hit before trusting a
    /// cached basis as a witness for memoized bounds; a basis that fails is
    /// quarantined rather than retried.
    ///
    /// # Errors
    /// Propagates LP-construction failures; the verification verdict itself
    /// is returned in the [`mapqn_lp::BasisVerification`], never as an error.
    pub fn verify_basis(&self, basis: &Basis, tol: f64) -> Result<mapqn_lp::BasisVerification> {
        let engine = RevisedSimplex::new(&self.base).map_err(CoreError::Lp)?;
        Ok(engine.verify_basis(basis, tol))
    }

    /// Translates one basis of this solver into the variable numbering of
    /// `target` (the same network at a different population), preserving the
    /// *whole* vertex, not just its structural part:
    ///
    /// * structural columns keep their marginal-term identity
    ///   (`p_k(n, h)` / `b_{j,k}(n, h)`) via `VariableLayout::decode`;
    /// * slack and artificial columns keep their *row* identity via
    ///   `RowKey` — the slack of "cut balance of station 2 at level 5"
    ///   maps to the slack of the same row in the target;
    /// * target rows with no counterpart in this solver (the levels the
    ///   population grew by) are covered by their own slack or artificial,
    ///   completing the basis to exactly the target's row count.
    ///
    /// For a population increase the result is a complete, directly
    /// factorizable basis, which is what lets the dual engine skip its
    /// crash-completion pass. It is still only a *candidate* — the engine
    /// verifies it and falls back gracefully when it is unusable.
    #[must_use]
    pub fn translate_basis(&self, basis: &Basis, target: &MarginalBoundSolver) -> Basis {
        let cap = target.layout.population;
        self.translate_basis_mapped(basis, target, &|n| (n <= cap).then_some(n))
    }

    /// Like [`MarginalBoundSolver::translate_basis`], but **split-anchored**
    /// for a population increase: source levels in the lower half keep
    /// their absolute position, levels in the upper half move up by the
    /// population difference (both for variables and for level-indexed
    /// rows; the gap opened in the middle is covered by each row's slack or
    /// artificial).
    ///
    /// This is the right translation for vertices anchored at the *top* of
    /// the level grid — "the bottleneck holds (almost) all `N` jobs", which
    /// is what the lower-bound throughput and upper-bound queue-length
    /// optima look like. Their basic variables live at levels `N`, `N-1`, …
    /// while the other stations' live at `0, 1, …`; an absolute translation
    /// misses the top-anchored half by exactly the population step and
    /// costs the dual engine a repair proportional to `N` (measured as
    /// stalls and rejections on every throughput-minimization seed), while
    /// the split translation preserves both anchors. For a population
    /// *decrease* it degenerates to the absolute translation.
    #[must_use]
    pub fn translate_basis_shifted(&self, basis: &Basis, target: &MarginalBoundSolver) -> Basis {
        let shift = target
            .layout
            .population
            .saturating_sub(self.layout.population);
        if shift == 0 {
            return self.translate_basis(basis, target);
        }
        let split = self.layout.population / 2;
        self.translate_basis_mapped(basis, target, &move |n| {
            Some(if n <= split { n } else { n + shift })
        })
    }

    /// Like [`MarginalBoundSolver::translate_basis`], but with every level
    /// mapped **proportionally**: `n -> round(n * N_t / N_s)`. This fits
    /// vertices whose probability mass sits at *fractional* positions of
    /// the level grid — e.g. a queue-length lower bound that splits the
    /// population between two stations in a demand-determined ratio — where
    /// neither the absolute nor the edge-anchored translation matches. For
    /// a population increase the map is strictly increasing (injective);
    /// the levels it skips are covered by their rows' slacks/artificials.
    #[must_use]
    pub fn translate_basis_proportional(
        &self,
        basis: &Basis,
        target: &MarginalBoundSolver,
    ) -> Basis {
        let n_s = self.layout.population.max(1);
        let n_t = target.layout.population;
        if n_t <= n_s {
            return self.translate_basis(basis, target);
        }
        self.translate_basis_mapped(basis, target, &move |n| {
            Some(((n * n_t + n_s / 2) / n_s).min(n_t))
        })
    }

    /// Shared implementation of the basis translations: carries structural
    /// columns by marginal-term identity and slack/artificial columns by
    /// [`RowKey`] identity, with every queue-length level routed through
    /// `level_map` (`None` drops the column); target rows that no source
    /// row maps onto are covered by their own slack or artificial, so a
    /// population-increase translation returns a complete, directly
    /// factorizable candidate basis.
    fn translate_basis_mapped(
        &self,
        basis: &Basis,
        target: &MarginalBoundSolver,
        level_map: &dyn Fn(usize) -> Option<usize>,
    ) -> Basis {
        let num_vars = self.base.num_vars();
        let mut columns = Vec::with_capacity(basis.columns().len());
        for &col in basis.columns() {
            if col < num_vars {
                let Some(var) = self.layout.decode(col) else {
                    continue;
                };
                match var {
                    MarginalVar::P { k, n, h } => {
                        if k < target.layout.m && h < target.layout.phases[k] {
                            if let Some(n2) = level_map(n) {
                                if n2 <= target.layout.population {
                                    columns.push(target.layout.p(k, n2, h));
                                }
                            }
                        }
                    }
                    MarginalVar::B { j, k, n, h } => {
                        if j < target.layout.m
                            && k < target.layout.m
                            && h < target.layout.phases[j]
                        {
                            if let Some(n2) = level_map(n) {
                                // b_{j,k}(N, h) is structurally zero (an
                                // empty column can never be basic).
                                if n2 < target.layout.population {
                                    columns.push(target.layout.b(j, k, n2, h));
                                }
                            }
                        }
                    }
                }
            } else if col < self.total_real {
                // Slack column: carry by (level-mapped) row identity.
                let row = self.slack_rows[col - num_vars];
                if let Some(key) = self.row_keys[row].map_level(level_map) {
                    if let Some(&target_row) = target.row_index.get(&key) {
                        if let Some(slack) = target.row_slack[target_row] {
                            columns.push(slack);
                        }
                    }
                }
            } else {
                // Artificial column: carry by (level-mapped) row identity.
                let row = col - self.total_real;
                if let Some(&src_key) = self.row_keys.get(row) {
                    if let Some(key) = src_key.map_level(level_map) {
                        if let Some(&target_row) = target.row_index.get(&key) {
                            columns.push(target.total_real + target_row);
                        }
                    }
                }
            }
        }
        // Cover the target rows no source row maps onto (new levels for the
        // absolute translation, the mid-grid gap for the split one).
        let covered: std::collections::HashSet<RowKey> = self
            .row_keys
            .iter()
            .filter_map(|&key| key.map_level(level_map))
            .collect();
        for (target_row, key) in target.row_keys.iter().enumerate() {
            if !covered.contains(key) {
                columns.push(
                    target.row_slack[target_row].unwrap_or(target.total_real + target_row),
                );
            }
        }
        Basis::from_columns(columns)
    }

    /// Translates this solver's cached warm basis into `target`'s numbering
    /// (see [`MarginalBoundSolver::translate_basis`]).
    #[must_use]
    pub fn translate_basis_to(&self, target: &MarginalBoundSolver) -> Option<Basis> {
        let basis = self.context.warm.as_ref()?.basis.as_ref()?;
        Some(self.translate_basis(basis, target))
    }

    /// Translates every basis recorded by the last full solve (see
    /// [`MarginalBoundSolver::solved_bases`]) into `target`'s variable
    /// numbering, preserving the canonical objective order — the seed
    /// vector for [`MarginalBoundSolver::bound_all_seeded`] on the same
    /// network at a different population. Returns `None` when no full solve
    /// has run yet.
    #[must_use]
    pub fn translate_solved_bases_to(&self, target: &MarginalBoundSolver) -> Option<Vec<Basis>> {
        if self.context.solved_bases.is_empty() {
            return None;
        }
        Some(
            self.context
                .solved_bases
                .iter()
                .map(|basis| self.translate_basis(basis, target))
                .collect(),
        )
    }

    /// Seeds the revised engine with a starting basis (typically obtained
    /// from [`MarginalBoundSolver::translate_basis_to`] on a neighbouring
    /// population's solver). Invalid or infeasible seeds are repaired or
    /// ignored by the engine, so this can only help.
    ///
    /// # Errors
    /// Propagates LP construction failures.
    pub fn seed_basis(&mut self, basis: Basis) -> Result<()> {
        match self.context.warm.as_mut() {
            Some(warm) => warm.basis = Some(basis),
            None => {
                let engine = RevisedSimplex::new(&self.base).map_err(CoreError::Lp)?;
                engine.set_perturbation_salt(self.options.simplex.perturbation_salt);
                self.context.warm = Some(WarmState {
                    engine,
                    basis: Some(basis),
                });
            }
        }
        Ok(())
    }
}

// Compile-time guarantee the ensemble layer relies on: a solver, together
// with its owned `SolverContext`, moves across threads. (This is what the
// old `RefCell`/`Cell` fields were refactored away for — they were `Send`
// too, but the owned context makes the solver's thread story explicit and
// keeps it from regressing into shared-interior-mutability designs that
// would not be.)
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MarginalBoundSolver>();
};

/// Little's-law conversion used by the paper: `R_min = N / X_max`,
/// `R_max = N / X_min`.
pub(crate) fn response_time_from_throughput(x: BoundInterval, population: usize) -> BoundInterval {
    let n = population as f64;
    let upper = if x.lower > 0.0 { n / x.lower } else { f64::INFINITY };
    let lower = if x.upper > 0.0 { n / x.upper } else { 0.0 };
    BoundInterval::new(lower, upper)
}

/// Builds the LP constraint set (families 1–6) for the given network,
/// together with the semantic [`RowKey`] of every row (in row order) for
/// cross-population basis translation.
fn build_constraints(
    network: &ClosedNetwork,
    layout: &VariableLayout,
    options: &BoundOptions,
) -> (LpProblem, Vec<RowKey>) {
    let m = layout.m;
    let n_pop = layout.population;
    let mut lp = LpProblem::new(layout.total, Sense::Minimize);
    let mut keys = Vec::new();

    // Family 1: normalization of each station's marginal.
    for k in 0..m {
        let mut terms = Vec::new();
        for n in 0..=n_pop {
            for h in 0..layout.phases[k] {
                terms.push((layout.p(k, n, h), 1.0));
            }
        }
        lp.add_eq(&terms, 1.0);
        keys.push(RowKey::Norm(k));
    }

    // Family 2: population constraint.
    {
        let mut terms = Vec::new();
        for k in 0..m {
            for n in 1..=n_pop {
                for h in 0..layout.phases[k] {
                    terms.push((layout.p(k, n, h), n as f64));
                }
            }
        }
        lp.add_eq(&terms, n_pop as f64);
        keys.push(RowKey::Pop);
    }

    // Family 5: consistency between the joint terms and the busy marginals:
    // sum_n b_{j,k}(n, h_j) = sum_{n >= 1} p_j(n, h_j). The n = N term is
    // omitted because b_{j,k}(N, h_j) = 0 exactly (station k holding the
    // whole population leaves no job for station j); dropping the variable
    // from every constraint enforces this without an extra degenerate row.
    for j in 0..m {
        for k in 0..m {
            if j == k {
                continue;
            }
            for h_j in 0..layout.phases[j] {
                let mut terms = Vec::new();
                for n in 0..n_pop {
                    terms.push((layout.b(j, k, n, h_j), 1.0));
                }
                for n in 1..=n_pop {
                    terms.push((layout.p(j, n, h_j), -1.0));
                }
                lp.add_eq(&terms, 0.0);
                keys.push(RowKey::Cons { j, k, h: h_j });
            }
        }
    }

    // Family 3: marginal cut balance per station and level.
    if options.include_cut_balance {
        for k in 0..m {
            let station_k = network.station(k);
            let stay_prob = network.routing(k, k);
            for n in 0..n_pop {
                let mut terms = Vec::new();
                // Upward flux: arrivals into k from busy stations j != k.
                for j in 0..m {
                    if j == k {
                        continue;
                    }
                    let p_jk = network.routing(j, k);
                    if p_jk <= 0.0 {
                        continue;
                    }
                    let station_j = network.station(j);
                    for h_j in 0..layout.phases[j] {
                        let rate = station_j.service.completion_rate(h_j) * p_jk;
                        if rate > 0.0 {
                            terms.push((layout.b(j, k, n, h_j), rate));
                        }
                    }
                }
                // Downward flux: departures from k at level n + 1 that leave
                // the station (self-routed completions do not cross the cut).
                for h_k in 0..layout.phases[k] {
                    let rate =
                        station_k.service.completion_rate(h_k) * (1.0 - stay_prob);
                    if rate > 0.0 {
                        terms.push((layout.p(k, n + 1, h_k), -rate));
                    }
                }
                lp.add_eq(&terms, 0.0);
                keys.push(RowKey::Cut { k, n });
            }
        }
    }

    // Family 4: phase balance of MAP stations (phase moves only while busy).
    if options.include_phase_balance {
        for k in 0..m {
            let phases = layout.phases[k];
            if phases < 2 {
                continue;
            }
            let station = network.station(k);
            // One equation per phase; the set is redundant by one equation,
            // which the LP handles (redundant equalities are tolerated).
            for h in 0..phases {
                let mut terms = Vec::new();
                for h2 in 0..phases {
                    if h2 == h {
                        continue;
                    }
                    // Influx into phase h from phase h2.
                    let influx = station.service.hidden_rate(h2, h)
                        + station.service.completion_rate_to(h2, h);
                    if influx > 0.0 {
                        for n in 1..=n_pop {
                            terms.push((layout.p(k, n, h2), influx));
                        }
                    }
                    // Outflux from phase h towards phase h2.
                    let outflux = station.service.hidden_rate(h, h2)
                        + station.service.completion_rate_to(h, h2);
                    if outflux > 0.0 {
                        for n in 1..=n_pop {
                            terms.push((layout.p(k, n, h), -outflux));
                        }
                    }
                }
                if !terms.is_empty() {
                    lp.add_eq(&terms, 0.0);
                    keys.push(RowKey::Phase { k, h });
                }
            }
        }
    }

    // Family 6: structural (in)equalities.
    if options.include_structural {
        for j in 0..m {
            for k in 0..m {
                if j == k {
                    continue;
                }
                for h_j in 0..layout.phases[j] {
                    // b_{j,k}(N, h_j) = 0 is enforced structurally: the
                    // variable never appears in any constraint or objective.
                    // b_{j,k}(n, h_j) <= P[n_k = n].
                    for n in 0..n_pop {
                        let mut terms = vec![(layout.b(j, k, n, h_j), 1.0)];
                        for h_k in 0..layout.phases[k] {
                            terms.push((layout.p(k, n, h_k), -1.0));
                        }
                        lp.add_le(&terms, 0.0);
                        keys.push(RowKey::StructLe { j, k, h: h_j, n });
                    }
                }
            }
        }
        // "Someone else is busy" whenever station k does not hold all jobs.
        for k in 0..m {
            for n in 0..n_pop {
                let mut terms = Vec::new();
                for j in 0..m {
                    if j == k {
                        continue;
                    }
                    for h_j in 0..layout.phases[j] {
                        terms.push((layout.b(j, k, n, h_j), 1.0));
                    }
                }
                for h_k in 0..layout.phases[k] {
                    terms.push((layout.p(k, n, h_k), -1.0));
                }
                lp.add_ge(&terms, 0.0);
                keys.push(RowKey::Busy { k, n });
            }
        }
    }

    debug_assert_eq!(keys.len(), lp.num_constraints());
    (lp, keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::network::Station;
    use crate::service::Service;
    use crate::templates;
    use mapqn_linalg::DMatrix;
    use mapqn_stochastic::map2_correlated;

    fn map_tandem(n: usize) -> ClosedNetwork {
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let map = map2_correlated(0.3, 4.0, 0.4, 0.5).unwrap();
        ClosedNetwork::new(
            vec![
                Station::queue("exp", Service::exponential(1.5).unwrap()),
                Station::queue("map", Service::map(map)),
            ],
            routing,
            n,
        )
        .unwrap()
    }

    #[test]
    fn bounds_bracket_exact_for_exponential_tandem() {
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let net = ClosedNetwork::new(
            vec![
                Station::queue("q1", Service::exponential(2.0).unwrap()),
                Station::queue("q2", Service::exponential(3.0).unwrap()),
            ],
            routing,
            5,
        )
        .unwrap();
        let exact = solve_exact(&net).unwrap();
        let mut solver = MarginalBoundSolver::new(&net).unwrap();
        let bounds = solver.bound_all().unwrap();
        for k in 0..2 {
            assert!(
                bounds.throughput[k].contains(exact.throughput[k], 1e-6),
                "throughput {k}: {} not in [{}, {}]",
                exact.throughput[k],
                bounds.throughput[k].lower,
                bounds.throughput[k].upper
            );
            assert!(bounds.utilization[k].contains(exact.utilization[k], 1e-6));
            assert!(bounds.mean_queue_length[k].contains(exact.mean_queue_length[k], 1e-6));
        }
        assert!(bounds
            .system_response_time
            .contains(exact.system_response_time, 1e-6));
    }

    #[test]
    fn bounds_bracket_exact_for_map_tandem_across_populations() {
        for &n in &[1usize, 3, 6, 10] {
            let net = map_tandem(n);
            let exact = solve_exact(&net).unwrap();
            let mut solver = MarginalBoundSolver::new(&net).unwrap();
            let x = solver.bound(PerformanceIndex::SystemThroughput).unwrap();
            assert!(
                x.contains(exact.system_throughput, 1e-6),
                "N = {n}: X = {} not in [{}, {}]",
                exact.system_throughput,
                x.lower,
                x.upper
            );
            let u = solver.bound(PerformanceIndex::Utilization(1)).unwrap();
            assert!(u.contains(exact.utilization[1], 1e-6), "N = {n}");
            let r = solver.response_time_bounds().unwrap();
            assert!(r.contains(exact.system_response_time, 1e-6), "N = {n}");
        }
    }

    #[test]
    fn bounds_bracket_exact_for_figure5_network() {
        let net = templates::figure5_network(6, 4.0, 0.5).unwrap();
        let exact = solve_exact(&net).unwrap();
        let mut solver = MarginalBoundSolver::new(&net).unwrap();
        let bounds = solver.bound_all().unwrap();
        for k in 0..3 {
            assert!(
                bounds.utilization[k].contains(exact.utilization[k], 1e-6),
                "utilization {k}"
            );
            assert!(
                bounds.throughput[k].contains(exact.throughput[k], 1e-6),
                "throughput {k}"
            );
        }
        assert!(bounds
            .system_response_time
            .contains(exact.system_response_time, 1e-6));
        // The bounds should be informative: utilization interval narrower
        // than the trivial [0, 1].
        assert!(bounds.utilization[2].width() < 0.9);
    }

    #[test]
    fn bounds_are_reasonably_tight_for_the_case_study() {
        // Mirrors the Figure 8 setting at a moderate population; the paper
        // reports errors of a few percent. We allow a looser threshold but
        // still require genuinely informative bounds.
        let net = templates::figure5_network(20, 4.0, 0.5).unwrap();
        let exact = solve_exact(&net).unwrap();
        let mut solver = MarginalBoundSolver::new(&net).unwrap();
        let r = solver.response_time_bounds().unwrap();
        assert!(r.contains(exact.system_response_time, 1e-6));
        assert!(
            r.max_relative_error(exact.system_response_time) < 0.5,
            "relative error {} too large",
            r.max_relative_error(exact.system_response_time)
        );
    }

    #[test]
    fn dropping_constraint_families_loosens_but_never_invalidates_bounds() {
        let net = map_tandem(5);
        let exact = solve_exact(&net).unwrap();
        let mut full = MarginalBoundSolver::new(&net).unwrap();
        let full_interval = full.bound(PerformanceIndex::Utilization(1)).unwrap();

        let ablated_options = BoundOptions {
            include_cut_balance: false,
            ..BoundOptions::default()
        };
        let mut ablated = MarginalBoundSolver::with_options(&net, ablated_options).unwrap();
        let ablated_interval = ablated.bound(PerformanceIndex::Utilization(1)).unwrap();

        assert!(full_interval.contains(exact.utilization[1], 1e-6));
        assert!(ablated_interval.contains(exact.utilization[1], 1e-6));
        assert!(ablated_interval.width() >= full_interval.width() - 1e-9);
    }

    #[test]
    fn variable_count_matches_the_papers_scaling() {
        let net = map_tandem(10);
        let solver = MarginalBoundSolver::new(&net).unwrap();
        // p terms: (N+1) * (1 + 2) phases; b terms: (N+1) * (1 + 2).
        let expected = 11 * 3 + 11 * 3;
        assert_eq!(solver.num_variables(), expected);
        assert!(solver.num_constraints() > 0);
    }

    #[test]
    fn delay_stations_are_rejected() {
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
        assert!(matches!(
            MarginalBoundSolver::new(&net),
            Err(CoreError::Unsupported(_))
        ));
    }
}

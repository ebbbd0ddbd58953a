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
    Basis, LpError, LpProblem, LpSolution, LpStatus, RevisedSimplex, SeedFactor, Sense,
    SimplexEngine, SimplexOptions,
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
    /// Threads a `bound_all`-style solve runs its two objective chains on
    /// (see [`MarginalBoundSolver::bound_all_seeded`]): `0` is
    /// [`mapqn_par::default_threads`], `1` runs both chains on the caller.
    /// The caller that owns the threads sets it; it never changes an
    /// answer.
    pub workers: usize,
}

impl Default for BoundOptions {
    fn default() -> Self {
        Self {
            include_cut_balance: true,
            include_phase_balance: true,
            include_structural: true,
            simplex: SimplexOptions::default(),
            budget: SolveBudget::unlimited(),
            workers: 0,
        }
    }
}

impl BoundOptions {
    /// The chain width [`BoundOptions::workers`] resolves to.
    fn width(&self) -> usize {
        match self.workers {
            0 => mapqn_par::default_threads(),
            w => w,
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
#[derive(Clone)]
struct WarmState {
    engine: RevisedSimplex,
    basis: Option<Basis>,
}

/// One warm-start chain of objective solves: the revised engine with its
/// rolling basis, and the counters and phase times the chain accrued. A
/// [`MarginalBoundSolver::bound_all_seeded`] call runs two of them (the
/// minimizations and the maximizations); single-index queries run on the
/// solver's own chain.
#[derive(Default)]
struct Chain {
    warm: Option<WarmState>,
    /// The basis the chains of a `bound_all_seeded` call forked from, if
    /// any: a primal solve that breaks down numerically from the rolling
    /// basis restarts from it once.
    anchor: Option<Basis>,
    stats: SolverStats,
    timings: SolverTimings,
}

/// What a chain reads of its solver: the constraint set and the engine
/// options. Shared, read-only and `Sync`, so the two chains of a
/// `bound_all_seeded` call can run on two threads.
#[derive(Clone, Copy)]
struct LpInputs<'a> {
    base: &'a LpProblem,
    simplex: &'a SimplexOptions,
}

/// The solver's owned mutable state: its own warm-start chain (which also
/// holds the lifetime counters and phase times), and the per-slot bases
/// and engine paths of the last full solve.
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
    chain: Chain,
    /// Optimal bases of the objectives solved by the last
    /// [`MarginalBoundSolver::bound_all`]-style call, in canonical order
    /// (see `MarginalBoundSolver::canonical_indices`); the raw material a
    /// population sweep translates into the next population's dual seeds.
    solved_bases: Vec<Basis>,
    /// Per-slot engine path of the last full solve, aligned with
    /// `solved_bases`.
    solve_outcomes: Vec<SlotOutcome>,
}

/// A cross-population warm start only counts as a *successful transfer*
/// when the whole solve finished within this many pivots: a seed can be
/// technically usable (dual feasible, repairable) yet land far from the new
/// optimum, and a long walk from a carried vertex is no better than the
/// rolling path it displaced. The sweep flips the translation variant of
/// any slot whose offered seed ends up classified as a non-transfer.
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

impl SolverStats {
    fn add(&mut self, other: &Self) {
        self.revised_solves += other.revised_solves;
        self.dual_warm_solves += other.dual_warm_solves;
        self.dual_seed_rejections += other.dual_seed_rejections;
        self.feasibility_repairs += other.feasibility_repairs;
    }
}

/// Per-phase wall-clock profile of a solver's lifetime, exposed through
/// [`MarginalBoundSolver::timings`]. Deliberately separate from
/// [`SolverStats`]: the counters are schedule-independent and compared
/// bitwise by the determinism tests, while wall-clock numbers differ on
/// every run — they exist for performance forensics (the large-N cold
/// profile that located the cold-`bound_all` hotspot, see ROADMAP.md, and
/// perfbench's `lp.*` per-phase metrics).
///
/// Every field is summed over the two objective chains of a
/// [`MarginalBoundSolver::bound_all_seeded`] call. When the chains run on
/// two threads the phase times add up CPU time, which can exceed the wall
/// clock the call took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverTimings {
    /// Constraint-set construction plus revised-engine setup (first
    /// factorization of the standard form), including the copy of the
    /// engine the maximization chain starts from.
    pub setup_ns: u64,
    /// Cold phase-1 runs (`find_feasible_basis`) of the revised engine.
    /// Phase-1 restarts inside a warm solve (a basis infeasible at the
    /// true right-hand side, a recovery restart) are billed to
    /// `primal_ns`.
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

    fn add(&mut self, other: &Self) {
        self.setup_ns += other.setup_ns;
        self.phase1_ns += other.phase1_ns;
        self.dual_ns += other.dual_ns;
        self.repair_ns += other.repair_ns;
        self.primal_ns += other.primal_ns;
        self.dense_ns += other.dense_ns;
        self.primal_pivots += other.primal_pivots;
        self.dual_pivots += other.dual_pivots;
    }
}

/// The bound solver: builds the constraint set once and solves a pair of
/// LPs (min / max) per requested performance index.
///
/// With the default [`SimplexEngine::Revised`] the solver runs phase 1
/// **once** per network, caches the resulting basis, and warm starts every
/// subsequent objective from the previous optimum of its chain:
/// [`MarginalBoundSolver::bound_all`] runs its objectives as fixed
/// schedules from that one phase-1 basis. Selecting
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
/// // same-sense objectives warm start off each other's optimal bases.
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
        context.chain.timings.setup_ns = t_setup.elapsed().as_nanos() as u64;
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
        self.context.chain.stats
    }

    /// Per-phase wall-clock profile (constraint build, phase 1, dual /
    /// repair / primal / oracle solve time, pivot counts) accumulated since
    /// this solver was created. See [`SolverTimings`].
    #[must_use]
    pub fn timings(&self) -> SolverTimings {
        self.context.chain.timings
    }

    /// Drops the warm-started engine (the next solve on this solver builds
    /// a fresh one and runs phase 1 again); the recorded bases, outcomes,
    /// counters and timings stay.
    pub(crate) fn release_engine(&mut self) {
        self.context.chain.warm = None;
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
    /// the engine-equivalence and population-sweep tests.
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
        let lp = LpInputs {
            base: &self.base,
            simplex: &self.options.simplex,
        };
        let chain = &mut self.context.chain;
        let (lower, ..) = chain.solve(lp, &terms, Sense::Minimize, None)?;
        let (upper, ..) = chain.solve(lp, &terms, Sense::Maximize, None)?;
        Ok(self.widen(&lower, &upper))
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
    /// interleaving per-station triples. The schedules of
    /// [`MarginalBoundSolver::bound_all_seeded`] keep each family together
    /// (`ChainJob::schedules`). A population sweep relies on this order
    /// staying fixed across populations of the same network, so
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
    /// The objectives run as fixed warm-start schedules over one shared
    /// phase 1 (see [`MarginalBoundSolver::bound_all_seeded`]). With three
    /// or more stations all lower bounds run in one chain and all upper
    /// bounds in the other: same-sense objectives stop at nearby vertices,
    /// while alternating min/max would walk across the polytope once per
    /// index (roughly twice the pivots). On two stations `Q0 + Q1 = N`, so
    /// one serial schedule solves each twin queue-length objective right
    /// after the partner whose vertex it shares. [`BoundOptions::workers`]
    /// sets how many threads the chains use; the answer is bitwise the
    /// same at any width.
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
    /// entries) to leave slots unseeded. [`super::PopulationSweep`] builds
    /// its seeds by translating the previous population's
    /// [`MarginalBoundSolver::solved_bases`] with
    /// [`MarginalBoundSolver::translate_basis`] or one of its variants;
    /// unusable seeds fall back to the primal warm-start path.
    ///
    /// The objectives run as two fixed chains, each with its own engine,
    /// rolling basis, counters and phase times, and each an ordered
    /// schedule of (objective, sense) steps built from the station count
    /// and the seeds only (`ChainJob::schedules`):
    /// * three or more stations: **chain A** solves the minimizations and
    ///   **chain B** the maximizations, in family order;
    /// * two stations: chain A alone runs one serial mixed-sense schedule.
    ///
    /// Results are assembled by slot, so the bases, outcomes and seeds
    /// keep the canonical numbering whatever the order of the solves.
    ///
    /// When slot 0 is unseeded, chain A runs phase 1 once and solves slot
    /// 0, and chain B starts from a copy of chain A's engine at that first
    /// minimum. When slot 0 carries a seed, its dual re-solve or
    /// zero-objective repair stands in for phase 1 and the population step
    /// never runs a cold start; chain B then starts from a copy of the
    /// engine before any solve, and its own seeds (or its own phase 1)
    /// start it. (On the 41 `lp_sweep` models at N = 4–8, starting the
    /// maximizations from the last minimum instead bought nothing.)
    ///
    /// The chain structure never depends on the thread count. At width 1
    /// ([`BoundOptions::workers`]) chain A and then chain B run on the
    /// caller; at width 2 the longer chain B runs on the caller while
    /// chain A runs on a second thread. Every answer,
    /// basis and counter is bitwise the same at either width. While a
    /// fault is armed (`mapqn_faults::current()`) the chains run serially,
    /// A first, and B is skipped when A failed: the LP fault sites count
    /// occurrences on process-wide counters, which concurrent chains would
    /// race for.
    ///
    /// Two recoveries run before a numerical breakdown fails the solve,
    /// both deterministic and width-independent: a primal solve that the
    /// engine's own recoveries could not save restarts once from the
    /// basis the chains forked from, and when chain B still breaks down
    /// where chain A held, chain B is walked again from chain A's end, as
    /// the maximizations were when they followed the minimization block.
    /// With both, cold `bound_all` answers all 160 Table 1 solves (40
    /// two-MAP models, generator seed 1, N = 4, 8, 16, 24) and the SCV 16
    /// case study at N = 54 and 56 on the direct rung, against 158 and
    /// N = 54 alone for the single chain.
    ///
    /// After a successful call, [`MarginalBoundSolver::solved_bases`]
    /// holds this solve's optimal bases and
    /// [`MarginalBoundSolver::solve_outcomes`] the per-slot engine paths,
    /// both in canonical slot order; after a failed call both are empty.
    ///
    /// # Errors
    /// Propagates LP failures as [`CoreError::ObjectiveSolve`] naming the
    /// scheduled step that failed; when both chains fail, chain A's.
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
        let terms: Vec<Vec<(usize, f64)>> =
            indices.iter().map(|&i| self.objective_terms(i)).collect();
        self.context.solved_bases.clear();
        self.context.solve_outcomes.clear();

        let job = ChainJob {
            lp: LpInputs {
                base: &self.base,
                simplex: &self.options.simplex,
            },
            indices: &indices,
            terms: &terms,
            seeds,
            population: n,
            stations: m,
        };
        let runs = job.run(self.context.chain.warm.take(), self.options.width());

        let own = &mut self.context.chain;
        let mut by_slot: Vec<Option<Solved>> = (0..2 * indices.len()).map(|_| None).collect();
        // Chain A's failure first: a chain stops at its first failing step.
        let mut error = None;
        for run in runs {
            own.stats.add(&run.chain.stats);
            own.timings.add(&run.chain.timings);
            // The next solve on this solver's own chain starts from chain
            // B's end, or chain A's when chain B never got an engine.
            own.warm = run.chain.warm.or(own.warm.take());
            error = error.or(run.error);
            for (&step, solved) in run.schedule.iter().zip(run.solved) {
                by_slot[job.slot(step)] = Some(solved);
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        let mut optima = Vec::with_capacity(by_slot.len());
        for solved in by_slot {
            // INFALLIBLE: the two schedules cover every slot once, and
            // every scheduled step solved when no chain failed.
            let (solution, basis, outcome) = solved.expect("every slot solved");
            optima.push(solution);
            self.context.solved_bases.push(basis);
            self.context.solve_outcomes.push(outcome);
        }
        let interval = |i: usize| self.widen(&optima[i], &optima[indices.len() + i]);
        // Canonical layout: throughputs at 0..m, system throughput at m,
        // utilizations at m+1.., mean queue lengths at 2m+1...
        let throughput: Vec<BoundInterval> = (0..m).map(interval).collect();
        let utilization: Vec<BoundInterval> = (0..m).map(|k| interval(m + 1 + k)).collect();
        let mean_queue_length: Vec<BoundInterval> =
            (0..m).map(|k| interval(2 * m + 1 + k)).collect();
        let system_throughput = interval(m);
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

    /// Convenience: bounds on the system response time only (one pair of
    /// LPs), the quantity evaluated in Table 1 of the paper.
    ///
    /// # Errors
    /// Propagates LP failures.
    pub fn response_time_bounds(&mut self) -> Result<BoundInterval> {
        let x = self.bound(PerformanceIndex::SystemThroughput)?;
        Ok(response_time_from_throughput(x, self.layout.population))
    }

    /// The optimal bases recorded by the last
    /// [`MarginalBoundSolver::bound_all`]-style call, in canonical slot
    /// order (minimizations of `MarginalBoundSolver::canonical_indices`
    /// at slots `0..len`, then maximizations). Empty before the first such
    /// call.
    #[must_use]
    pub fn solved_bases(&self) -> &[Basis] {
        &self.context.solved_bases
    }

    /// The engine path taken for each canonical slot of the last
    /// [`MarginalBoundSolver::bound_all`]-style call (aligned with
    /// [`MarginalBoundSolver::solved_bases`]). Empty before the first such
    /// call. A population sweep uses this to pick each slot's next seed
    /// translation.
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
    ///
    /// Unlike the absolute and split maps, it is only a reliable candidate
    /// one population up, the step a sweep takes. Three populations up
    /// (solved bases of the fig5 SCV 16 case study and of a Table 1 model
    /// at N = 2, 4, 6), 1–12 of the 20 translated bases have columns the
    /// engine must repair away before they factorize.
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
}

/// One solved objective: the optimum, its optimal basis (empty when the
/// dense oracle answered — it carries no reusable basis) and the engine
/// path that answered.
type Solved = (LpSolution, Basis, SlotOutcome);

/// One step of a chain's schedule: a canonical objective (its position in
/// `MarginalBoundSolver::canonical_indices`) and the sense to solve it in.
type Step = (usize, Sense);

/// The shared, read-only inputs of one
/// [`MarginalBoundSolver::bound_all_seeded`] call's two chains.
struct ChainJob<'a> {
    lp: LpInputs<'a>,
    indices: &'a [PerformanceIndex],
    /// Objective terms of each of `indices`.
    terms: &'a [Vec<(usize, f64)>],
    seeds: &'a [Option<Basis>],
    population: usize,
    stations: usize,
}

/// One chain of a `bound_all_seeded` call and what it solved.
struct ChainRun {
    /// The chain's solves, in the order it runs them.
    schedule: Vec<Step>,
    chain: Chain,
    /// The solves so far, one per leading entry of `schedule`.
    solved: Vec<Solved>,
    /// The failure that stopped the chain.
    error: Option<CoreError>,
}

impl ChainJob<'_> {
    /// The canonical slot of `step`: its objective's position, plus `len`
    /// for a maximization.
    fn slot(&self, (i, sense): Step) -> usize {
        i + self.indices.len() * usize::from(sense == Sense::Maximize)
    }

    /// The two chains' schedules, and how many of chain A's steps run
    /// before chain B forks from it: slot 0 when it is unseeded, none
    /// otherwise. Built from the station count and the seeds only, so
    /// every answer is the same at any width.
    ///
    /// * Other station counts: chain A runs the minimizations and chain B
    ///   the maximizations, each in family order.
    /// * Two stations: `Q0 + Q1 = N` in every state, so min Q0 and max Q1
    ///   share an optimal vertex, as do max Q0 and min Q1. One serial
    ///   schedule (chain B empty) solves each twin right after its partner:
    ///   min X/U family, min Q0, max Q1, max X/U family, max Q0, min Q1.
    ///   Both twins re-price in 0 pivots, and cold `bound_all` on the TPC-W
    ///   server tier (three parameter sets, N = 3–12, 20, 30, 40) takes
    ///   3,286 pivots against 5,667 with all minimizations first.
    fn schedules(&self) -> ([Vec<Step>; 2], usize) {
        let fork_after = usize::from(self.seeds.first().is_none_or(Option::is_none));
        let len = self.indices.len();
        let family = |end, sense| (0..end).map(move |i| (i, sense));
        if self.stations != 2 {
            let all = |sense| family(len, sense).collect();
            return ([all(Sense::Minimize), all(Sense::Maximize)], fork_after);
        }
        let (q0, q1) = (len - 2, len - 1);
        let serial = family(q0, Sense::Minimize)
            .chain([(q0, Sense::Minimize), (q1, Sense::Maximize)])
            .chain(family(q0, Sense::Maximize))
            .chain([(q0, Sense::Maximize), (q1, Sense::Minimize)])
            .collect();
        ([serial, Vec::new()], fork_after)
    }

    /// Runs chain A and chain B of [`ChainJob::schedules`], chain A
    /// starting from `warm`: serially on the caller at `width` 1, while a
    /// fault is armed or when chain B is empty, on two threads otherwise.
    /// A chain B that breaks down numerically where chain A held is walked
    /// again from chain A's end.
    fn run(&self, warm: Option<WarmState>, width: usize) -> [ChainRun; 2] {
        let ([a_steps, b_steps], fork_after) = self.schedules();
        let mut a = ChainRun::new(a_steps, warm);
        let mut b = ChainRun::new(b_steps, None);
        self.fork(&mut a, &mut b, fork_after);
        if a.error.is_some() {
            return [a, b];
        }
        let armed = mapqn_faults::current().is_some();
        if width < 2 || armed || b.schedule.is_empty() {
            a.run(self);
            if !(armed && a.error.is_some()) {
                b.run(self);
            }
        } else {
            // The caller claims the first job while the second thread
            // starts, so it takes the longer chain.
            let mut runs = [b, a];
            mapqn_par::WorkPool::new(2).for_each_chunk(&mut runs, 1, |_, run| run[0].run(self));
            [b, a] = runs;
        }
        // A numerical breakdown of the maximizations where the
        // minimizations held: walk them again from chain A's end, the
        // start they had when they followed the minimization block.
        if a.error.is_none() && b.error.as_ref().is_some_and(broke_down) {
            let t_copy = mapqn_linalg::budget::now();
            b.chain.warm.clone_from(&a.chain.warm);
            b.chain.timings.setup_ns += t_copy.elapsed().as_nanos() as u64;
            b.solved.clear();
            b.error = None;
            b.run(self);
        }
        [a, b]
    }

    /// The chains' shared start on the revised engine: chain A builds its
    /// engine on first use and solves its first `fork_after` steps (after
    /// phase 1 when it has no basis yet); a non-empty chain B starts from
    /// a copy of chain A's engine and basis there, both chains' anchor.
    /// Forking after slot 0 rather than right after phase 1 matters: from
    /// the phase-1 vertex the maximizations reach degenerate optimal bases
    /// that the split translation carries one population up only with
    /// repairs (eight max slots of the SCV 16 case study at N = 4).
    fn fork(&self, a: &mut ChainRun, b: &mut ChainRun, fork_after: usize) {
        if self.lp.simplex.engine == SimplexEngine::DenseTableau {
            return;
        }
        if let Err(e) = a.chain.ensure_engine(self.lp) {
            a.error = Some(self.slot_error(a.schedule[0], e));
            return;
        }
        while a.solved.len() < fork_after {
            a.step(self);
            if a.error.is_some() {
                return;
            }
        }
        let anchor = a.chain.warm.as_ref().and_then(|warm| warm.basis.clone());
        if !b.schedule.is_empty() {
            let t_copy = mapqn_linalg::budget::now();
            b.chain.warm = a.chain.warm.clone();
            b.chain.timings.setup_ns += t_copy.elapsed().as_nanos() as u64;
            b.chain.anchor.clone_from(&anchor);
        }
        a.chain.anchor = anchor;
    }

    /// `error` as the failure of scheduled step `step`.
    fn slot_error(&self, (i, sense): Step, error: CoreError) -> CoreError {
        CoreError::ObjectiveSolve {
            population: self.population,
            objective: self.indices[i],
            sense,
            source: Box::new(error),
        }
    }
}

/// Whether a chain stopped on a numerical breakdown of the engine (not on
/// its budget or iteration cap).
fn broke_down(error: &CoreError) -> bool {
    matches!(
        error,
        CoreError::ObjectiveSolve { source, .. }
            if matches!(**source, CoreError::Lp(LpError::Numerical(_)))
    )
}

impl ChainRun {
    fn new(schedule: Vec<Step>, warm: Option<WarmState>) -> Self {
        Self {
            schedule,
            chain: Chain {
                warm,
                ..Chain::default()
            },
            solved: Vec::new(),
            error: None,
        }
    }

    /// Solves the chain's next scheduled step with its slot's seed,
    /// recording the solve or the failure.
    fn step(&mut self, job: &ChainJob<'_>) {
        let step = self.schedule[self.solved.len()];
        let seed = job.seeds.get(job.slot(step)).and_then(Option::as_ref);
        match self.chain.solve(job.lp, &job.terms[step.0], step.1, seed) {
            Ok(solved) => self.solved.push(solved),
            Err(e) => self.error = Some(job.slot_error(step, e)),
        }
    }

    /// Solves the chain's remaining steps in order, stopping at the first
    /// failure.
    fn run(&mut self, job: &ChainJob<'_>) {
        while self.error.is_none() && self.solved.len() < self.schedule.len() {
            self.step(job);
        }
    }
}

impl WarmState {
    /// Runs phase 1 when the chain has no basis yet, billing it to
    /// `timings.phase1_ns`.
    fn ensure_basis(
        &mut self,
        options: &SimplexOptions,
        timings: &mut SolverTimings,
    ) -> Result<()> {
        if self.basis.is_some() {
            return Ok(());
        }
        // Timing accumulates before the error check on purpose: the
        // failure path is exactly where the profile matters (the cold
        // breakdown at large N burns its minutes *inside* failing solves,
        // which a success-only profile would report as zero).
        let t_phase1 = mapqn_linalg::budget::now();
        let found = self.engine.find_feasible_basis(options);
        timings.phase1_ns += t_phase1.elapsed().as_nanos() as u64;
        let Some(basis) = found.map_err(CoreError::Lp)? else {
            return Err(CoreError::BoundLpFailed(
                "phase 1 found no feasible basis".into(),
            ));
        };
        self.basis = Some(basis);
        Ok(())
    }
}

impl Chain {
    /// Builds the chain's revised engine on first use.
    fn ensure_engine(&mut self, lp: LpInputs<'_>) -> Result<()> {
        if self.warm.is_none() {
            let t_setup = mapqn_linalg::budget::now();
            let engine = RevisedSimplex::new(lp.base).map_err(CoreError::Lp)?;
            engine.set_perturbation_salt(lp.simplex.perturbation_salt);
            self.warm = Some(WarmState {
                engine,
                basis: None,
            });
            self.timings.setup_ns += t_setup.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// Solves one objective on the configured engine, optionally trying a
    /// dual-simplex seed first, and insists on an optimal termination.
    fn solve(
        &mut self,
        lp: LpInputs<'_>,
        terms: &[(usize, f64)],
        sense: Sense,
        seed: Option<&Basis>,
    ) -> Result<Solved> {
        let solved = if lp.simplex.engine == SimplexEngine::DenseTableau {
            let t_dense = mapqn_linalg::budget::now();
            let solution = solve_dense(lp, terms, sense);
            self.timings.dense_ns += t_dense.elapsed().as_nanos() as u64;
            (
                solution?,
                Basis::from_columns(Vec::new()),
                SlotOutcome::Primal,
            )
        } else {
            self.solve_revised(lp, terms, sense, seed)?
        };
        if solved.0.status != LpStatus::Optimal {
            return Err(CoreError::BoundLpFailed(format!(
                "{} LP terminated with status {:?}",
                match sense {
                    Sense::Minimize => "lower-bound",
                    Sense::Maximize => "upper-bound",
                },
                solved.0.status
            )));
        }
        Ok(solved)
    }

    /// Revised-engine solve to an optimal vertex; anything short of one is
    /// an error. The primal path warm starts from the chain's rolling
    /// basis; when it cannot reach an optimal vertex the solve fails, and
    /// the degradation ladder's salted re-solve is the recovery path.
    ///
    /// When a `dual_seed` is supplied (a basis translated from the same
    /// network at a neighbouring population), the dual engine is tried
    /// first: the seed is usually still dual feasible for the objective it
    /// was optimal for, and a few dual pivots repair primal feasibility —
    /// no phase 1 at all. A rejected seed silently degrades to the primal
    /// warm-start path (and is counted in the stats).
    fn solve_revised(
        &mut self,
        lp: LpInputs<'_>,
        terms: &[(usize, f64)],
        sense: Sense,
        dual_seed: Option<&Basis>,
    ) -> Result<Solved> {
        self.ensure_engine(lp)?;
        let Chain {
            warm,
            anchor,
            stats,
            timings,
        } = self;
        // INFALLIBLE: `ensure_engine` just populated the slot.
        let warm = warm.as_mut().expect("initialized above");
        let options = lp.simplex;

        let mut objective = vec![0.0; lp.base.num_vars()];
        for &(idx, c) in terms {
            objective[idx] += c;
        }

        // A seed rejected at pricing keeps its factorization for the
        // repair below.
        let mut kept = SeedFactor::default();
        if let Some(seed) = dual_seed {
            let t_dual = mapqn_linalg::budget::now();
            let attempt = warm
                .engine
                .solve_dual_keeping_seed(&objective, sense, seed, &mut kept, options);
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
            let attempt = warm.engine.repair_primal_feasible(seed, kept, options);
            timings.repair_ns += t_repair.elapsed().as_nanos() as u64;
            if let Ok(Some(basis)) = attempt {
                warm.basis = Some(basis);
                repaired = true;
            }
        }
        warm.ensure_basis(options, timings)?;
        // INFALLIBLE: `ensure_basis` either stored a basis or returned
        // early.
        let start = warm.basis.clone().expect("ensured above");
        let t_primal = mapqn_linalg::budget::now();
        let mut attempt = warm
            .engine
            .solve_from_basis(&objective, sense, &start, options);
        if let (Err(LpError::Numerical(_)), Some(anchor)) = (&attempt, anchor.as_ref()) {
            // The engine's own recoveries (a local repair, then a cold
            // restart under a fresh salt) already failed; the walk from
            // the fork basis is a different path to the same optimum.
            if *anchor != start {
                attempt = warm
                    .engine
                    .solve_from_basis(&objective, sense, anchor, options);
            }
        }
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
}

/// Cold dense-tableau solve (the original code path, kept as oracle).
fn solve_dense(lp: LpInputs<'_>, terms: &[(usize, f64)], sense: Sense) -> Result<LpSolution> {
    let mut problem = lp.base.clone();
    problem.set_objective(terms);
    problem.set_sense(sense);
    let options = SimplexOptions {
        engine: SimplexEngine::DenseTableau,
        ..*lp.simplex
    };
    Ok(problem.solve_with(&options)?)
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

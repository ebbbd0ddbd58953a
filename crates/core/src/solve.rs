//! Population-aware solver routing: one `solve()` front door over every
//! engine in the workspace.
//!
//! The engines cover disjoint regimes. Exact MVA answers exponential
//! (product-form) networks in `O(M N)`. The sparse-exact CTMC engine is
//! the MAP-service reference but combinatorial in `N`. The marginal-LP
//! bounds are polynomial yet their cold solves get expensive past the
//! `N ≈ 50` sweep range. The mean-field [`crate::fluid`] engine answers in
//! microseconds independent of `N` but is asymptotic. [`solve`] picks the
//! cheapest engine that can meet the requested [`Accuracy`] at the given
//! population and budget, and **degrades instead of erroring**: any engine
//! failure (budget exhaustion, non-convergence, an injected fault) falls
//! through to the next rung of the plan, ending at the fluid tier and — if
//! even that fails — the pure-arithmetic asymptotic floor of the PR-6
//! degradation ladder. The fluid rung and the floor are exempt from the
//! wall-clock deadline: they are the always-answer contract.
//!
//! ## Engine-selection matrix
//!
//! | condition | engine |
//! |---|---|
//! | exponential network, `N ≤ mva_population_cap` | [`Engine::Mva`] |
//! | `Accuracy::Exact`, state count ≤ `exact_state_cap` | [`Engine::SparseExact`] |
//! | `Accuracy::Certified`, queue-only, `N ≤ lp_population_cap` | [`Engine::LpBounds`] (then sparse exact as certified fallback) |
//! | `Accuracy::Target(eps)` with `fluid_error_estimate(N) > eps` | [`Engine::SparseExact`] if feasible, else [`Engine::LpBounds`] |
//! | otherwise / any failure above | [`Engine::Fluid`], then [`Engine::AsymptoticFloor`] |
//!
//! ## The fluid error model is measured, not assumed
//!
//! The router quotes the fluid tier's error from the **feasible-N
//! validation band**: `tests/cross_solver_consistency.rs` and the
//! release-scale gates in `crates/bench/tests/release_gates.rs` measure the
//! population-normalized mean-queue-length gap
//! `max_k |q_fluid_k - q_exact_k| / N` against the sparse-exact
//! reference on the fig-5, fig-8/SCV=16 and TPC-W families at every
//! population the exact engine can reach, and check the gap shrinks
//! monotonically in `N` (the `1/N` decay of the mean-field limit past the
//! bottleneck knee). [`fluid_error_estimate`] extrapolates the measured
//! band from its reference population by that `1/N` law, floored at
//! [`FLUID_BAND_FLOOR`] so the quote never pretends to more accuracy than
//! was ever measured.

use crate::bounds::ladder::{self, Attempt};
use crate::bounds::robust;
use crate::bounds::{
    BoundInterval, BoundOptions, MarginalBoundSolver, NetworkBounds, Quality,
};
use crate::exact::{solve_exact_with, ExactOptions};
use crate::fluid::{solve_fluid_with, FluidOptions};
use crate::metrics::NetworkMetrics;
use crate::mva::mva_exact;
use crate::network::ClosedNetwork;
use crate::{CoreError, Result};
use mapqn_linalg::{budget, SolveBudget};
use std::time::Duration;

/// Maximum population-normalized mean-queue-length error of the fluid
/// engine at [`FLUID_BAND_REFERENCE_POPULATION`], as measured against the
/// sparse-exact reference across the fig-5, fig-8/SCV=16 and TPC-W
/// validation families (re-checked in `tests/cross_solver_consistency.rs`
/// and, for the fig-5/SCV=4 family, in the release-scale gates). The recorded
/// constant includes headroom over the measured maximum so platform-level
/// numeric jitter cannot move an answer outside its quoted band.
pub const FLUID_MQL_BAND: f64 = 0.075;

/// Population at which [`FLUID_MQL_BAND`] was measured — the largest
/// population the sparse-exact reference reaches on the widest validation
/// family.
pub const FLUID_BAND_REFERENCE_POPULATION: usize = 96;

/// Floor of the quoted fluid error: extrapolating the measured band by the
/// `1/N` mean-field decay is validated only inside the feasible range, so
/// the router never quotes below this regardless of how large `N` grows.
pub const FLUID_BAND_FLOOR: f64 = 1e-4;

/// The quoted relative error of the fluid tier at `population`: the
/// measured validation band extrapolated by the `1/N` mean-field decay
/// law, clamped to `[`[`FLUID_BAND_FLOOR`]`, 1]`.
#[must_use]
pub fn fluid_error_estimate(population: usize) -> f64 {
    let n = population.max(1) as f64;
    let extrapolated = FLUID_MQL_BAND * FLUID_BAND_REFERENCE_POPULATION as f64 / n;
    extrapolated.clamp(FLUID_BAND_FLOOR, 1.0)
}

/// What the caller needs from the answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accuracy {
    /// A numerically exact stationary solution (MVA or the sparse-exact
    /// CTMC engine). Degrades to the fluid tier — flagged via
    /// [`Solution::accuracy_met`] — when no exact engine is feasible.
    Exact,
    /// Two-sided certified bounds (or an exact answer, which is trivially
    /// certified); the point estimate is the interval midpoint.
    Certified,
    /// A point estimate whose quoted relative error is at most this value;
    /// the router picks the cheapest engine whose error model meets it.
    Target(f64),
}

/// The engines the router can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Exact mean-value analysis (exponential networks only).
    Mva,
    /// Sparse-exact CTMC global balance.
    SparseExact,
    /// Marginal-LP bounds behind the PR-6 degradation ladder.
    LpBounds,
    /// Mean-field fixed point ([`crate::fluid`]).
    Fluid,
    /// Pure-arithmetic ABA / balanced-job floor of the degradation ladder.
    AsymptoticFloor,
}

impl Engine {
    /// Short stable name for logs and JSON artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Mva => "mva",
            Engine::SparseExact => "sparse-exact",
            Engine::LpBounds => "lp-bounds",
            Engine::Fluid => "fluid",
            Engine::AsymptoticFloor => "asymptotic-floor",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs of the router.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Largest population routed to exact MVA on exponential networks
    /// (`O(M N)` time and negligible memory; above it the fluid tier is
    /// both faster and within its band).
    pub mva_population_cap: usize,
    /// Largest CTMC state count routed to the sparse-exact engine.
    pub exact_state_cap: u128,
    /// Largest population routed to the LP bounds (the cold-solve sweep
    /// range; past it cold `bound_all` hits the `N ≈ 50` pivoting cliff).
    pub lp_population_cap: usize,
    /// Options of the fluid rung.
    pub fluid: FluidOptions,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            mva_population_cap: 100_000,
            exact_state_cap: 200_000,
            lp_population_cap: 48,
            fluid: FluidOptions::default(),
        }
    }
}

/// The record of one engine attempt of a [`solve`] run (see [`Attempt`]).
pub type EngineAttempt = Attempt<Engine>;

/// The answer of the [`solve`] front door.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Point metrics (interval midpoints when the engine produced bounds).
    pub metrics: NetworkMetrics,
    /// The certified intervals, when the answering engine produced them
    /// ([`Engine::LpBounds`] and [`Engine::AsymptoticFloor`]).
    pub bounds: Option<NetworkBounds>,
    /// The engine that produced the answer.
    pub engine: Engine,
    /// Provenance of the answer, in the PR-6 degradation-ladder scale:
    /// exact engines and optimal LP solves are [`Quality::Certified`] (or
    /// [`Quality::SelfSeeded`]); the fluid tier and the floor are
    /// [`Quality::Asymptotic`].
    ///
    /// On an exact answer the tag and the `0` quote cover the index
    /// metrics (throughputs, utilizations, mean queue lengths, response
    /// times). The sparse-exact solve stops on `‖πQ‖∞ ≤ 1e-14 · q_max`,
    /// which bounds absolute error only: `queue_length_distribution`
    /// entries far below about 1e-12 carry no relative accuracy.
    pub quality: Quality,
    /// Quoted relative error of the point estimate: `0` for exact engines,
    /// the measured relative half-width for interval engines, the measured
    /// validation band extrapolated by [`fluid_error_estimate`] for the
    /// fluid tier.
    pub error_estimate: f64,
    /// Whether the answer meets the requested [`Accuracy`]. `false` means
    /// the router degraded (budget, feasibility or failures) and the
    /// caller should read [`Solution::error_estimate`] and
    /// [`Solution::quality`] before trusting the numbers at the requested
    /// accuracy.
    pub accuracy_met: bool,
    /// Every engine attempt in order, the answering one last (its `error`
    /// is `None`).
    pub attempts: Vec<EngineAttempt>,
    /// Total wall clock from entry to answer.
    pub elapsed: Duration,
}

/// The attempt order the router would run for this request, cheapest
/// adequate engine first, always ending `… → Fluid → AsymptoticFloor`.
/// Exposed (and regression-pinned in `crates/core/tests/solve_router.rs`)
/// so the selection matrix is testable without running the heavy engines.
#[must_use]
pub fn route(
    network: &ClosedNetwork,
    population: usize,
    accuracy: Accuracy,
    options: &SolveOptions,
) -> Vec<Engine> {
    let states = network
        .with_population(population)
        .map_or(u128::MAX, |net| net.global_state_count());
    let exact_feasible = states <= options.exact_state_cap;
    let lp_feasible = network.is_queue_only() && population <= options.lp_population_cap;

    let mut plan = Vec::new();
    if network.is_exponential() && population <= options.mva_population_cap {
        plan.push(Engine::Mva);
    } else {
        match accuracy {
            Accuracy::Exact => {
                if exact_feasible {
                    plan.push(Engine::SparseExact);
                }
            }
            Accuracy::Certified => {
                if lp_feasible {
                    plan.push(Engine::LpBounds);
                }
                if exact_feasible {
                    plan.push(Engine::SparseExact);
                }
            }
            Accuracy::Target(eps) => {
                if fluid_error_estimate(population) > eps {
                    if exact_feasible {
                        plan.push(Engine::SparseExact);
                    } else if lp_feasible {
                        plan.push(Engine::LpBounds);
                    }
                }
            }
        }
    }
    plan.push(Engine::Fluid);
    plan.push(Engine::AsymptoticFloor);
    plan
}

/// Solves `network` at `population` with the default router options.
///
/// This is the population-aware front door over every engine in the
/// workspace — see the module docs for the selection matrix. It answers a
/// TPC-W-sized model at `N = 10^6` in well under a millisecond through the
/// fluid tier, with the quoted error band measured in-repo against the
/// sparse-exact reference ([`FLUID_MQL_BAND`]).
///
/// ```
/// use mapqn_core::templates::{tpcw_network, TpcwParameters};
/// use mapqn_core::{solve, Accuracy, Engine};
/// use mapqn_linalg::SolveBudget;
///
/// let network = tpcw_network(&TpcwParameters::default()).unwrap();
/// let answer = solve(&network, 1_000_000, Accuracy::Target(0.01), SolveBudget::unlimited())
///     .unwrap();
/// assert_eq!(answer.engine, Engine::Fluid);
/// assert!(answer.accuracy_met);
/// assert!(answer.error_estimate <= 0.01);
/// // Population is conserved and the bottleneck saturates.
/// let total: f64 = answer.metrics.mean_queue_length.iter().sum();
/// assert!((total - 1.0e6).abs() < 1e-6 * 1.0e6);
/// assert!(answer.metrics.system_throughput > 0.0);
/// ```
///
/// # Errors
/// Only construction-grade failures surface ([`CoreError::InvalidNetwork`],
/// [`CoreError::Unsupported`] — e.g. a delay-only network no engine
/// handles): every solve-level failure degrades through the plan instead,
/// ending at an always-available asymptotic rung.
pub fn solve(
    network: &ClosedNetwork,
    population: usize,
    accuracy: Accuracy,
    budget: SolveBudget,
) -> Result<Solution> {
    solve_with(network, population, accuracy, budget, &SolveOptions::default())
}

/// [`solve`] with explicit router options.
///
/// # Errors
/// See [`solve`].
pub fn solve_with(
    network: &ClosedNetwork,
    population: usize,
    accuracy: Accuracy,
    budget: SolveBudget,
    options: &SolveOptions,
) -> Result<Solution> {
    let start = budget::now();
    let net = if population == network.population() {
        network.clone()
    } else {
        network.with_population(population)?
    };
    // Every engine may use all of the wall clock its predecessors left.
    let plan: Vec<(Engine, f64)> = route(network, population, accuracy, options)
        .into_iter()
        .map(|engine| (engine, 1.0))
        .collect();
    let walk = ladder::run(&plan, budget, start, population, |engine, remaining| {
        run_engine(&net, engine, &remaining, options)
    });
    // An exhausted plan means the floor itself failed: the network is one
    // no engine supports (e.g. delay-only).
    let (engine, (metrics, bounds, quality, error_estimate)) = walk.answer?;
    Ok(Solution {
        metrics,
        bounds,
        engine,
        quality,
        error_estimate,
        accuracy_met: meets(accuracy, engine, quality, error_estimate),
        attempts: walk.attempts,
        elapsed: budget::now().duration_since(start),
    })
}

fn meets(accuracy: Accuracy, engine: Engine, quality: Quality, error_estimate: f64) -> bool {
    match accuracy {
        Accuracy::Exact => matches!(engine, Engine::Mva | Engine::SparseExact),
        Accuracy::Certified => {
            quality != Quality::Asymptotic
                && !matches!(engine, Engine::Fluid | Engine::AsymptoticFloor)
        }
        Accuracy::Target(eps) => error_estimate <= eps,
    }
}

/// Largest relative half-width over the system-level indices — the quoted
/// error of an interval answer. Shared with the planning session, which
/// quotes the same figure for its certified answers.
pub(crate) fn interval_error(bounds: &NetworkBounds) -> f64 {
    let rel = |interval: &BoundInterval| {
        let mid = interval.midpoint().abs();
        if mid > f64::MIN_POSITIVE {
            (interval.width() / 2.0) / mid
        } else {
            0.0
        }
    };
    rel(&bounds.system_throughput).max(rel(&bounds.system_response_time))
}

/// Point metrics from interval midpoints (LP bounds and the floor). Shared
/// with the planning session's answer assembly.
pub(crate) fn midpoint_metrics(net: &ClosedNetwork, bounds: &NetworkBounds) -> NetworkMetrics {
    let m = bounds.throughput.len();
    let mut throughput = Vec::with_capacity(m);
    let mut utilization = Vec::with_capacity(m);
    let mut mean_queue_length = Vec::with_capacity(m);
    let mut response_time = Vec::with_capacity(m);
    for k in 0..m {
        let x = bounds.throughput[k].midpoint();
        let q = bounds.mean_queue_length[k].midpoint();
        throughput.push(x);
        utilization.push(bounds.utilization[k].midpoint());
        mean_queue_length.push(q);
        response_time.push(if x > 0.0 { q / x } else { 0.0 });
    }
    NetworkMetrics {
        throughput,
        utilization,
        mean_queue_length,
        response_time,
        queue_length_distribution: vec![Vec::new(); m],
        system_throughput: bounds.system_throughput.midpoint(),
        system_response_time: bounds.system_response_time.midpoint(),
        population: net.population(),
    }
}

type EngineOutcome = (NetworkMetrics, Option<NetworkBounds>, Quality, f64);

fn run_engine(
    net: &ClosedNetwork,
    engine: Engine,
    remaining: &SolveBudget,
    options: &SolveOptions,
) -> Result<EngineOutcome> {
    let attempt_start = budget::now();
    match engine {
        Engine::Mva => {
            remaining
                .engine_budget(attempt_start)
                .check_deadline()
                .map_err(mapqn_markov::MarkovError::Budget)
                .map_err(CoreError::Markov)?;
            let sweep = mva_exact(net)?;
            Ok((sweep.metrics, None, Quality::Certified, 0.0))
        }
        Engine::SparseExact => {
            remaining
                .engine_budget(attempt_start)
                .check_deadline()
                .map_err(mapqn_markov::MarkovError::Budget)
                .map_err(CoreError::Markov)?;
            let steady_state = {
                let mut steady = mapqn_markov::SteadyStateOptions::default();
                steady.sparse.budget = remaining.sweep_budget(attempt_start);
                steady
            };
            let exact_options = ExactOptions {
                max_states: usize::try_from(options.exact_state_cap).unwrap_or(usize::MAX),
                steady_state,
                ..ExactOptions::default()
            };
            let metrics = solve_exact_with(net, &exact_options)?;
            Ok((metrics, None, Quality::Certified, 0.0))
        }
        Engine::LpBounds => {
            // The LP rungs only: when all of them fail, the router's own
            // plan walks on to the fluid tier.
            let bound_options = BoundOptions {
                budget: *remaining,
                ..BoundOptions::default()
            };
            let bounds = robust::walk_bounds(net, bound_options, attempt_start, &[], |slice| {
                MarginalBoundSolver::with_options(
                    net,
                    BoundOptions {
                        budget: slice,
                        ..bound_options
                    },
                )?
                .bound_all_seeded(&[])
            })?;
            let metrics = midpoint_metrics(net, &bounds);
            let error = interval_error(&bounds);
            let quality = bounds.quality;
            Ok((metrics, Some(bounds), quality, error))
        }
        Engine::Fluid => {
            // Deliberately not budget-gated: the fluid rung is the
            // always-answer tier and completes in microseconds.
            let fluid = solve_fluid_with(net, &options.fluid)?;
            let error = fluid_error_estimate(net.population());
            Ok((fluid.metrics, None, Quality::Asymptotic, error))
        }
        Engine::AsymptoticFloor => {
            let bounds = robust::asymptotic_floor(net)?;
            let metrics = midpoint_metrics(net, &bounds);
            let error = interval_error(&bounds);
            Ok((metrics, Some(bounds), Quality::Asymptotic, error))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::figure5_network;

    #[test]
    fn error_estimate_decays_like_one_over_n_with_a_floor() {
        let at_ref = fluid_error_estimate(FLUID_BAND_REFERENCE_POPULATION);
        assert!((at_ref - FLUID_MQL_BAND).abs() < 1e-12);
        let at_2ref = fluid_error_estimate(2 * FLUID_BAND_REFERENCE_POPULATION);
        assert!((at_2ref - FLUID_MQL_BAND / 2.0).abs() < 1e-12);
        assert!((fluid_error_estimate(usize::MAX) - FLUID_BAND_FLOOR).abs() < 1e-15);
        // Below the reference the quote grows (never shrinks): the band was
        // not measured there.
        assert!(fluid_error_estimate(FLUID_BAND_REFERENCE_POPULATION / 4) > FLUID_MQL_BAND);
        assert!(fluid_error_estimate(1) <= 1.0);
    }

    #[test]
    fn plan_always_ends_with_the_asymptotic_rungs() {
        let network = figure5_network(4, 4.0, 0.5).unwrap();
        for accuracy in [Accuracy::Exact, Accuracy::Certified, Accuracy::Target(1e-3)] {
            for population in [1usize, 50, 1_000_000] {
                let plan = route(&network, population, accuracy, &SolveOptions::default());
                let tail = &plan[plan.len() - 2..];
                assert_eq!(tail, &[Engine::Fluid, Engine::AsymptoticFloor]);
            }
        }
    }
}

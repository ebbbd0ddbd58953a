//! Regression tests for the TPC-W server-tier bound solves — most
//! importantly the ROADMAP numerical corner closed in PR 3: the SCV=8 /
//! ACF-decay-0.6 tier model used to lose primal feasibility at a
//! refactorization during the population sweep at `N = 7` (near-redundant
//! marginal-balance rows drifting past the feasibility tolerance), fail
//! both recovery lanes, and fall back to the dense-tableau oracle. The LP
//! row equilibration (power-of-two row scaling in `RevisedSimplex::new`)
//! plus the in-place feasibility repair and the dual-chain verification
//! refresh fixed it; these tests pin that every answer comes from the
//! ladder's direct rung (no degradation) so the corner stays closed.

use mapqn::core::bounds::{BoundOptions, PopulationSweep, Quality};
use mapqn::core::templates::{tpcw_server_tier, TpcwParameters};
use mapqn::core::MarginalBoundSolver;
use mapqn::sim::CacheServerParameters;

/// The exact parametrization the ROADMAP open item recorded: front-server
/// mean from the cache-server testbed, SCV = 8, ACF decay 0.6.
fn corner_parameters() -> TpcwParameters {
    TpcwParameters {
        front_mean: CacheServerParameters::default().mean_service_time(),
        front_scv: 8.0,
        front_acf_decay: 0.6,
        ..TpcwParameters::default()
    }
}

/// The historical failure was a *sweep* reaching population 7: the carried
/// basis walked the refactorization into fixable-row infeasibility. The
/// sweep must now run through the corner with zero dense fallbacks.
#[test]
fn scv8_decay06_sweep_crosses_population_7_without_dense_fallbacks() {
    let tier = tpcw_server_tier(&corner_parameters()).unwrap();
    let mut sweep = PopulationSweep::new(&tier).unwrap();
    for n in 1..=9 {
        let bounds = sweep.bounds_at(n).unwrap();
        assert_eq!(bounds.population, n);
        assert!(
            !bounds.diagnostics.degraded(),
            "N={n}: {}",
            bounds.diagnostics
        );
        assert!(
            bounds.system_throughput.lower <= bounds.system_throughput.upper,
            "N={n}: malformed interval"
        );
    }
    let stats = sweep.stats();
    assert_eq!(
        stats.dense_fallbacks, 0,
        "the SCV=8/decay-0.6 corner regressed to the dense oracle: {stats:?}"
    );
    assert!(stats.dual_warm_objectives > 0, "sweep never warm-started: {stats:?}");
}

/// The corner must also stay closed under non-default perturbation salts —
/// the ensemble runs every scenario under a job-index-derived salt, so a
/// salt-sensitive regression would surface as a parallel-only failure.
#[test]
fn scv8_decay06_sweep_stays_clean_under_ensemble_salts() {
    let tier = tpcw_server_tier(&corner_parameters()).unwrap();
    for salt in [1u64 << 32, 5u64 << 32] {
        let mut options = BoundOptions::default();
        options.simplex.perturbation_salt = salt;
        let mut sweep = PopulationSweep::with_options(&tier, options).unwrap();
        for n in 1..=8 {
            let bounds = sweep.bounds_at(n).unwrap();
            assert!(!bounds.diagnostics.degraded(), "salt {salt:#x} N={n}");
        }
        assert_eq!(
            sweep.stats().dense_fallbacks,
            0,
            "salt {salt:#x}: dense fallback in the corner sweep"
        );
    }
}

/// A cold solve exactly at the corner population.
#[test]
fn scv8_decay06_cold_solve_at_population_7_uses_the_revised_engine() {
    let tier = tpcw_server_tier(&corner_parameters())
        .unwrap()
        .with_population(7)
        .unwrap();
    let mut solver = MarginalBoundSolver::new(&tier).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert!(bounds.system_throughput.lower > 0.0);
    assert!(bounds.system_throughput.lower <= bounds.system_throughput.upper);
    assert!(!bounds.diagnostics.degraded(), "cold corner solve degraded: {}", bounds.diagnostics);
    assert!(solver.stats().revised_solves > 0);
}

/// On two stations `Q0 + Q1 = N` in every state, so min Q0 / max Q1 and
/// max Q0 / min Q1 share their optimal vertices. Cold `bound_all` solves
/// each twin right after its partner, which pins three things on the
/// default server tier at N = 3..=12: the total pivot count (830 when all
/// minimizations ran before all maximizations, 447 with the twins
/// adjacent), direct-rung `Certified` answers, and twin endpoints that are
/// complementary up to their widening slacks.
#[test]
fn cold_bound_all_solves_each_twin_queue_objective_next_to_its_partner() {
    let tier = tpcw_server_tier(&TpcwParameters::default()).unwrap();
    let tolerance = BoundOptions::default().simplex.tolerance;
    let mut pivots = 0;
    for n in 3..=12 {
        let network = tier.with_population(n).unwrap();
        let mut solver = MarginalBoundSolver::new(&network).unwrap();
        let bounds = solver.bound_all().unwrap();
        assert_eq!(bounds.quality, Quality::Certified, "N={n}");
        assert!(
            !bounds.diagnostics.degraded(),
            "N={n}: {}",
            bounds.diagnostics
        );
        let timings = solver.timings();
        pivots += timings.primal_pivots + timings.dual_pivots;

        // The slack `bound_all` widens an endpoint by.
        let margin = tolerance * 10.0 * solver.num_variables() as f64;
        let slack = |value: f64| margin * (1.0 + value.abs());
        let [q0, q1] = [bounds.mean_queue_length[0], bounds.mean_queue_length[1]];
        let population = n as f64;
        for (residual, first, second) in [
            (q0.upper + q1.lower - population, q0.upper, q1.lower),
            (population - q0.lower - q1.upper, q0.lower, q1.upper),
        ] {
            assert!(
                residual.abs() <= slack(first) + slack(second),
                "N={n}: twin residual {residual:.3e} beyond the slacks {q0:?} {q1:?}"
            );
        }
    }
    assert!(pivots <= 500, "{pivots} pivots over N = 3..=12");
}

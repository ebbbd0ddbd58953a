//! Router regressions for the population-aware `solve()` front door: the
//! (family, N, accuracy) → engine selection matrix is pinned exactly (via
//! [`mapqn_core::solve::route`], which costs nothing to evaluate), the
//! cheap end-to-end paths are driven for real, and the degradation
//! contract is held to: an exhausted budget or an injected fluid
//! non-convergence must degrade the answer — to the fluid tier with
//! [`Quality::Asymptotic`] metadata, then to the algebraic floor — never
//! error.

use mapqn_core::solve::route;
use mapqn_core::templates::{figure5_network, tpcw_network, TpcwParameters};
use mapqn_core::{
    solve, solve_with, Accuracy, ClosedNetwork, Engine, Quality, SolveOptions,
    FLUID_BAND_FLOOR,
};
use mapqn_faults::FaultSite;
use mapqn_linalg::SolveBudget;
use std::time::Duration;

/// Arms a window that never fires, overriding any `MAPQN_FAULT`
/// environment selection for the guard's lifetime.
fn quiet() -> mapqn_faults::FaultGuard {
    mapqn_faults::arm(FaultSite::LpIterations, 0, 0)
}

fn fig5() -> ClosedNetwork {
    figure5_network(1, 4.0, 0.5).unwrap()
}

fn tpcw() -> ClosedNetwork {
    tpcw_network(&TpcwParameters::default()).unwrap()
}

/// The TPC-W model with exponential front service — a product-form network
/// the MVA tier owns.
fn exponential_tpcw() -> ClosedNetwork {
    tpcw_network(&TpcwParameters {
        front_scv: 1.0,
        front_acf_decay: 0.0,
        ..TpcwParameters::default()
    })
    .unwrap()
}

fn plan(network: &ClosedNetwork, n: usize, accuracy: Accuracy) -> Vec<Engine> {
    route(network, n, accuracy, &SolveOptions::default())
}

/// The engine-selection matrix of ARCHITECTURE.md, pinned case by case.
#[test]
fn selection_matrix_is_pinned() {
    use Engine::{AsymptoticFloor, Fluid, LpBounds, Mva, SparseExact};

    // Exponential network inside the MVA population cap: MVA first, at any
    // accuracy.
    for accuracy in [Accuracy::Exact, Accuracy::Certified, Accuracy::Target(1e-3)] {
        assert_eq!(
            plan(&exponential_tpcw(), 1_000, accuracy),
            vec![Mva, Fluid, AsymptoticFloor]
        );
    }
    // Past the MVA cap the exponential network is asymptotic territory.
    assert_eq!(
        plan(&exponential_tpcw(), 1_000_000, Accuracy::Target(0.01)),
        vec![Fluid, AsymptoticFloor]
    );

    // MAP network, exactly solvable state space.
    assert_eq!(
        plan(&fig5(), 8, Accuracy::Exact),
        vec![SparseExact, Fluid, AsymptoticFloor]
    );
    // Certified inside the LP sweep range: bounds first, sparse exact as
    // the certified fallback.
    assert_eq!(
        plan(&fig5(), 24, Accuracy::Certified),
        vec![LpBounds, SparseExact, Fluid, AsymptoticFloor]
    );
    // Certified past the LP range (N > 48): straight to sparse exact.
    assert_eq!(
        plan(&fig5(), 64, Accuracy::Certified),
        vec![SparseExact, Fluid, AsymptoticFloor]
    );
    // The TPC-W model has a delay station, which the LP formulation does
    // not cover: certified requests go to the exact reference.
    assert_eq!(
        plan(&tpcw(), 24, Accuracy::Certified),
        vec![SparseExact, Fluid, AsymptoticFloor]
    );

    // A target the fluid band cannot meet at this population routes to the
    // exact reference first …
    assert_eq!(
        plan(&fig5(), 96, Accuracy::Target(1e-3)),
        vec![SparseExact, Fluid, AsymptoticFloor]
    );
    // … while at a huge population the 1/N extrapolation meets the target
    // and no exact engine is consulted at all.
    assert_eq!(
        plan(&fig5(), 1_000_000, Accuracy::Target(0.01)),
        vec![Fluid, AsymptoticFloor]
    );
    // Tight target, exact infeasible, LP feasible: the bounds stand in.
    let tight_cap = SolveOptions {
        exact_state_cap: 100,
        ..SolveOptions::default()
    };
    assert_eq!(
        route(&fig5(), 24, Accuracy::Target(1e-3), &tight_cap),
        vec![LpBounds, Fluid, AsymptoticFloor]
    );
    // No target is ever quoted below the measured floor: even "exact-like"
    // targets keep an exact engine in the plan at feasible populations.
    assert_eq!(
        plan(&fig5(), 24, Accuracy::Target(FLUID_BAND_FLOOR / 2.0)),
        vec![SparseExact, Fluid, AsymptoticFloor]
    );
}

/// The cheap end-to-end paths answer through the pinned engine with the
/// right quality metadata.
#[test]
fn solve_answers_through_the_pinned_engine() {
    let _guard = quiet();

    // Exponential TPC-W at N = 200: exact MVA, certified, error 0.
    let answer = solve(
        &exponential_tpcw(),
        200,
        Accuracy::Exact,
        SolveBudget::unlimited(),
    )
    .unwrap();
    assert_eq!(answer.engine, Engine::Mva);
    assert_eq!(answer.quality, Quality::Certified);
    assert!(answer.accuracy_met);
    assert_eq!(answer.error_estimate, 0.0);

    // fig-5 at N = 6: the sparse-exact reference.
    let answer = solve(&fig5(), 6, Accuracy::Exact, SolveBudget::unlimited()).unwrap();
    assert_eq!(answer.engine, Engine::SparseExact);
    assert!(answer.accuracy_met);
    let total: f64 = answer.metrics.mean_queue_length.iter().sum();
    assert!((total - 6.0).abs() < 1e-6);

    // fig-5 at N = 6, certified: the LP bounds answer with intervals.
    let answer = solve(&fig5(), 6, Accuracy::Certified, SolveBudget::unlimited()).unwrap();
    assert_eq!(answer.engine, Engine::LpBounds);
    assert_eq!(answer.quality, Quality::Certified);
    assert!(answer.accuracy_met);
    assert!(answer.bounds.is_some());

    // TPC-W (MAP front) at N = 10^6: the fluid tier, inside its quoted
    // band, flagged asymptotic.
    let answer = solve(&tpcw(), 1_000_000, Accuracy::Target(0.01), SolveBudget::unlimited())
        .unwrap();
    assert_eq!(answer.engine, Engine::Fluid);
    assert_eq!(answer.quality, Quality::Asymptotic);
    assert!(answer.accuracy_met);
    assert!(answer.error_estimate <= 0.01);
}

/// The budget-exhausted path: a zero wall-clock budget starves every
/// budget-gated engine, and `solve()` degrades to the fluid tier — tagged
/// [`Quality::Asymptotic`], `accuracy_met == false` — instead of erroring.
/// The always-answer contract of the PR-6 ladder, now population-aware.
#[test]
fn exhausted_budget_degrades_to_fluid_not_error() {
    let _guard = quiet();
    let budget = SolveBudget::wall_clock(Duration::ZERO);
    for accuracy in [Accuracy::Exact, Accuracy::Certified] {
        let answer = solve(&fig5(), 24, accuracy, budget).unwrap();
        assert_eq!(answer.engine, Engine::Fluid, "accuracy {accuracy:?}");
        assert_eq!(answer.quality, Quality::Asymptotic);
        assert!(!answer.accuracy_met);
        // Every starved attempt is on the record, the answering one last.
        let last = answer.attempts.last().unwrap();
        assert_eq!(last.step, Engine::Fluid);
        assert!(last.error.is_none());
        assert!(answer.attempts.len() >= 2);
        for starved in &answer.attempts[..answer.attempts.len() - 1] {
            assert!(
                starved.error.is_some(),
                "{:?} should have been starved",
                starved.step
            );
        }
        // Conservation survives degradation.
        let total: f64 = answer.metrics.mean_queue_length.iter().sum();
        assert!((total - 24.0).abs() < 1e-6);
    }
}

/// Injected fluid non-convergence walks the ladder one rung further: the
/// router lands on the algebraic asymptotic floor and still answers.
#[test]
fn fluid_nonconvergence_degrades_to_the_floor() {
    let _guard = mapqn_faults::arm(FaultSite::FluidFixedPoint, 0, u64::MAX);
    let answer = solve(&fig5(), 1_000_000, Accuracy::Target(0.01), SolveBudget::unlimited())
        .unwrap();
    assert_eq!(answer.engine, Engine::AsymptoticFloor);
    assert_eq!(answer.quality, Quality::Asymptotic);
    assert!(!answer.accuracy_met);
    assert!(answer.bounds.is_some());
    assert_eq!(answer.attempts.len(), 2);
    assert_eq!(answer.attempts[0].step, Engine::Fluid);
    assert!(answer.attempts[0].error.is_some());
    assert!(answer.metrics.system_throughput > 0.0);
}

/// A one-shot fluid fault is consumed by the first solve; the next request
/// gets the fluid tier back.
#[test]
fn transient_fluid_fault_is_transient() {
    let network = fig5();
    let faulted = {
        let _guard = mapqn_faults::arm(FaultSite::FluidFixedPoint, 0, 1);
        solve(&network, 1_000_000, Accuracy::Target(0.01), SolveBudget::unlimited()).unwrap()
    };
    assert_eq!(faulted.engine, Engine::AsymptoticFloor);
    let _guard = quiet();
    let healthy =
        solve(&network, 1_000_000, Accuracy::Target(0.01), SolveBudget::unlimited()).unwrap();
    assert_eq!(healthy.engine, Engine::Fluid);
    assert!(healthy.accuracy_met);
}

/// Even a degenerate delay-only network answers — through the MVA tier,
/// where the fixed point is the closed-form `X = N / Z`.
#[test]
fn delay_only_network_still_answers() {
    let _guard = quiet();
    let network = ClosedNetwork::new(
        vec![mapqn_core::Station::delay("think", 1.0).unwrap()],
        mapqn_linalg::DMatrix::from_row_slice(1, 1, &[1.0]),
        3,
    )
    .unwrap();
    let answer = solve(&network, 3, Accuracy::Target(0.5), SolveBudget::unlimited()).unwrap();
    assert_eq!(answer.engine, Engine::Mva);
    assert!((answer.metrics.system_throughput - 3.0).abs() < 1e-9);
}

/// `solve_with` honors custom caps: squeezing the exact state cap reroutes
/// a previously exact request onto the asymptotic rungs.
#[test]
fn custom_caps_reroute() {
    let _guard = quiet();
    let options = SolveOptions {
        exact_state_cap: 10,
        lp_population_cap: 0,
        ..SolveOptions::default()
    };
    let answer = solve_with(
        &fig5(),
        24,
        Accuracy::Exact,
        SolveBudget::unlimited(),
        &options,
    )
    .unwrap();
    assert_eq!(answer.engine, Engine::Fluid);
    assert!(!answer.accuracy_met);
}

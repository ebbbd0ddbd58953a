//! Containment and regression guarantees of the degradation ladder.
//!
//! The central soundness property: a degraded answer is *looser*, never
//! *wrong* — every degraded interval must contain the certified interval
//! it stands in for. Plus the ROADMAP regression the ladder was built to
//! close: cold `bound_all` on the Figure 8 case study at N = 50 (the
//! population where the cold solve historically cycled for minutes)
//! answers within a 30 s budget instead of erroring.

use mapqn_core::bounds::{BoundOptions, Quality, Rung};
use mapqn_core::templates::figure5_network;
use mapqn_core::MarginalBoundSolver;
use mapqn_faults::FaultSite;
use mapqn_linalg::SolveBudget;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Arms a window that never fires, overriding any `MAPQN_FAULT`
/// environment selection for the guard's lifetime.
fn quiet() -> mapqn_faults::FaultGuard {
    mapqn_faults::arm(FaultSite::LpIterations, 0, 0)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// For random Figure 5 instances, the fully degraded (asymptotic
    /// floor) answer contains the certified LP answer on every index.
    #[test]
    fn degraded_intervals_contain_certified(scv in 1.0f64..16.0, n in 2usize..7) {
        let network = figure5_network(n, scv, 0.5).unwrap();
        let certified = {
            let _guard = quiet();
            MarginalBoundSolver::new(&network)
                .unwrap()
                .bound_all()
                .unwrap()
        };
        prop_assert_eq!(certified.quality, Quality::Certified);

        // Permanent LP iteration exhaustion forces the floor.
        let degraded = {
            let _guard = mapqn_faults::arm(FaultSite::LpIterations, 0, u64::MAX);
            MarginalBoundSolver::new(&network)
                .unwrap()
                .bound_all()
                .unwrap()
        };
        prop_assert_eq!(degraded.quality, Quality::Asymptotic);
        prop_assert!(degraded.diagnostics.degraded());

        // Two valid bounding families need not nest *exactly*: the LP
        // retains O(1e-5) of anti-degeneracy perturbation slack, so its
        // certified upper bound can overshoot the algebraically sharp ABA
        // cap (1/D_max) by that much. The containment property therefore
        // holds up to relative solver tolerance; a floor construction bug
        // (wrong demands, wrong visit ratios) violates it by orders of
        // magnitude, which this still catches.
        let contains = |outer: &mapqn_core::BoundInterval,
                        inner: &mapqn_core::BoundInterval| {
            let tol = |v: f64| 1e-3 * (1.0 + v.abs());
            outer.lower <= inner.lower + tol(inner.lower)
                && outer.upper >= inner.upper - tol(inner.upper)
        };
        prop_assert!(
            contains(&degraded.system_throughput, &certified.system_throughput),
            "scv={} n={}: X degraded [{}, {}] vs certified [{}, {}]",
            scv, n,
            degraded.system_throughput.lower, degraded.system_throughput.upper,
            certified.system_throughput.lower, certified.system_throughput.upper
        );
        prop_assert!(contains(
            &degraded.system_response_time,
            &certified.system_response_time
        ));
        for k in 0..network.num_stations() {
            prop_assert!(contains(&degraded.throughput[k], &certified.throughput[k]));
            prop_assert!(contains(&degraded.utilization[k], &certified.utilization[k]));
            prop_assert!(contains(
                &degraded.mean_queue_length[k],
                &certified.mean_queue_length[k]
            ));
        }
    }
}

/// An unbudgeted, fault-free solve reports certified provenance with a
/// one-attempt history: the successful direct rung.
#[test]
fn undegraded_solves_report_certified_quality() {
    let _guard = quiet();
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let bounds = MarginalBoundSolver::new(&network)
        .unwrap()
        .bound_all()
        .unwrap();
    assert_eq!(bounds.quality, Quality::Certified);
    assert!(!bounds.diagnostics.degraded());
    let history: Vec<(Rung, bool)> = bounds
        .diagnostics
        .attempts
        .iter()
        .map(|a| (a.step, a.error.is_none()))
        .collect();
    assert_eq!(history, vec![(Rung::Direct, true)]);
    assert!(bounds.diagnostics.budget.is_unlimited());
    assert!(bounds.diagnostics.consumed > Duration::ZERO);
}

/// A zero wall-clock budget — the real deadline path, no fault hooks —
/// still answers, through the floor.
#[test]
fn zero_wall_clock_budget_still_answers_via_the_floor() {
    let _guard = quiet();
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let options = BoundOptions {
        budget: SolveBudget::wall_clock(Duration::ZERO),
        ..BoundOptions::default()
    };
    let bounds = MarginalBoundSolver::with_options(&network, options)
        .unwrap()
        .bound_all()
        .unwrap();
    assert_eq!(bounds.quality, Quality::Asymptotic);
    assert!(bounds.diagnostics.degraded());
    assert_eq!(bounds.diagnostics.budget.wall_clock, Some(Duration::ZERO));
}

/// A one-pivot work cap trips every LP rung through the real work-counter
/// path and lands on the floor.
#[test]
fn pivot_cap_exhaustion_degrades_to_the_floor() {
    let _guard = quiet();
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let options = BoundOptions {
        budget: SolveBudget {
            max_pivots: Some(1),
            ..SolveBudget::unlimited()
        },
        ..BoundOptions::default()
    };
    let bounds = MarginalBoundSolver::with_options(&network, options)
        .unwrap()
        .bound_all()
        .unwrap();
    assert_eq!(bounds.quality, Quality::Asymptotic);
    assert!(bounds.diagnostics.degraded());
}

/// The ROADMAP "N = 50 cliff" regression: cold `bound_all` on the Figure 8
/// case study (SCV = 16) at N = 50 under a 30 s budget returns valid,
/// quality-tagged bounds — never an error, never an unbounded run.
#[test]
fn cold_fig8_cliff_population_answers_within_budget() {
    let _guard = quiet();
    let budget = Duration::from_secs(30);
    let network = figure5_network(50, 16.0, 0.5).unwrap();
    let options = BoundOptions {
        budget: SolveBudget::wall_clock(budget),
        ..BoundOptions::default()
    };
    let start = Instant::now();
    let bounds = MarginalBoundSolver::with_options(&network, options)
        .unwrap()
        .bound_all()
        .expect("N=50 must produce an answer, not an error");
    let elapsed = start.elapsed();
    assert!(
        elapsed < budget + Duration::from_secs(15),
        "answer took {elapsed:?} against a {budget:?} budget"
    );
    assert_eq!(bounds.population, 50);
    assert!(bounds.system_throughput.lower.is_finite());
    assert!(bounds.system_throughput.upper.is_finite());
    assert!(bounds.system_throughput.lower <= bounds.system_throughput.upper);
    assert!(bounds.system_throughput.upper > 0.0);
    assert_eq!(bounds.diagnostics.budget.wall_clock, Some(budget));
    // Provenance is stamped whichever rung answered.
    assert!(matches!(
        bounds.quality,
        Quality::Certified | Quality::SelfSeeded | Quality::Asymptotic
    ));
}

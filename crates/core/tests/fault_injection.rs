//! End-to-end fault injection: every `mapqn-faults` site, armed either
//! programmatically or through `MAPQN_FAULT`, must push the front doors
//! (`bound_all`, the ensemble runner) onto the degradation ladder — never
//! into an error and never into a hang.
//!
//! The CI fault matrix runs this binary once per site
//! (`MAPQN_FAULT=<site>:<seed> cargo test -q --test fault_injection`); the
//! `env_*` tests exercise whatever the leg armed, while the programmatic
//! tests override the environment through `mapqn_faults::arm`, so they are
//! deterministic under every leg.

use mapqn_core::bounds::{BoundOptions, NetworkBounds, Quality, Rung};
use mapqn_core::templates::figure5_network;
use mapqn_core::{
    solve, solve_fluid, Accuracy, AnswerSource, CoreError, Engine, EnsembleRunner,
    MarginalBoundSolver, PlanningRequest, PlanningSession, Scenario, WhatIf,
};
use mapqn_faults::FaultSite;
use mapqn_linalg::SolveBudget;
use std::time::Duration;

fn budgeted_options() -> BoundOptions {
    BoundOptions {
        budget: SolveBudget::wall_clock(Duration::from_secs(10)),
        ..BoundOptions::default()
    }
}

/// Arms a window that never fires: it overrides any `MAPQN_FAULT`
/// environment selection (count 0 matches no occurrence), giving tests a
/// guaranteed fault-free section under every CI matrix leg.
fn quiet() -> mapqn_faults::FaultGuard {
    mapqn_faults::arm(FaultSite::LpIterations, 0, 0)
}

fn assert_valid(bounds: &NetworkBounds) {
    assert!(bounds.system_throughput.lower.is_finite());
    assert!(bounds.system_throughput.upper.is_finite());
    assert!(bounds.system_throughput.lower <= bounds.system_throughput.upper);
    assert!(bounds.system_throughput.upper > 0.0);
    for k in 0..bounds.throughput.len() {
        assert!(bounds.throughput[k].lower <= bounds.throughput[k].upper);
        assert!(bounds.utilization[k].lower <= bounds.utilization[k].upper);
        assert!(bounds.mean_queue_length[k].lower <= bounds.mean_queue_length[k].upper);
    }
}

fn assert_bounds_bitwise_equal(a: &NetworkBounds, b: &NetworkBounds) {
    for k in 0..a.throughput.len() {
        for (ia, ib) in [
            (&a.throughput[k], &b.throughput[k]),
            (&a.utilization[k], &b.utilization[k]),
            (&a.mean_queue_length[k], &b.mean_queue_length[k]),
        ] {
            assert_eq!(ia.lower.to_bits(), ib.lower.to_bits());
            assert_eq!(ia.upper.to_bits(), ib.upper.to_bits());
        }
    }
    assert_eq!(
        a.system_throughput.lower.to_bits(),
        b.system_throughput.lower.to_bits()
    );
    assert_eq!(
        a.system_throughput.upper.to_bits(),
        b.system_throughput.upper.to_bits()
    );
}

fn small_scenarios() -> Vec<Scenario> {
    let network = figure5_network(1, 4.0, 0.5).unwrap();
    (0..4)
        .map(|i| Scenario::new(format!("s{i}"), network.clone(), 1..=3))
        .collect()
}

/// Whatever fault the CI leg armed through `MAPQN_FAULT`, the budgeted
/// front door answers with valid, quality-tagged bounds.
#[test]
fn env_selected_fault_still_answers() {
    let _guard = mapqn_faults::exclusive();
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
    let bounds = solver
        .bound_all()
        .expect("the budgeted front door must answer under any armed fault");
    assert_valid(&bounds);
    if mapqn_faults::current().is_none() {
        assert_eq!(bounds.quality, Quality::Certified);
        assert!(!bounds.diagnostics.degraded());
    }
}

/// Whatever the CI leg armed, a partial ensemble run returns one outcome
/// per scenario and only injected failures.
#[test]
fn env_selected_fault_keeps_ensembles_partial() {
    let _guard = mapqn_faults::exclusive();
    let scenarios = small_scenarios();
    let partial = EnsembleRunner::new().run_partial(&scenarios);
    assert_eq!(partial.outcomes.len(), scenarios.len());
    for outcome in &partial.outcomes {
        match outcome {
            Ok(result) => assert_eq!(result.bounds.len(), 3),
            Err(failure) => {
                assert!(matches!(failure.error, CoreError::Injected { .. }));
            }
        }
    }
}

/// Whatever the CI leg armed, the population-aware `solve()` front door
/// answers on a fluid-only plan (a population far past every exact cap).
/// No engine on that plan is budget-gated, so even the `budget-expiry` leg
/// leaves it standing; the `fluid-nonconvergence` leg pushes it one rung
/// down to the algebraic floor — still an answer, tagged asymptotic.
#[test]
fn env_selected_fault_keeps_the_solve_front_door_answering() {
    let _guard = mapqn_faults::exclusive();
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let answer = solve(
        &network,
        1_000_000,
        Accuracy::Target(0.01),
        SolveBudget::unlimited(),
    )
    .expect("the population-aware front door must answer under any armed fault");
    assert!(answer.metrics.system_throughput > 0.0);
    match answer.engine {
        // The fluid tier conserves the population exactly; the floor only
        // quotes interval midpoints, so it certifies bounds instead.
        Engine::Fluid => {
            let total: f64 = answer.metrics.mean_queue_length.iter().sum();
            assert!((total - 1e6).abs() <= 1e-3);
        }
        Engine::AsymptoticFloor => assert!(answer.bounds.is_some()),
        other => panic!("unexpected engine on a fluid-only plan: {other:?}"),
    }
    if mapqn_faults::current().is_none() {
        assert_eq!(answer.engine, Engine::Fluid);
        assert!(answer.accuracy_met);
    }
}

/// Injected fluid non-convergence surfaces from the raw engine as the real
/// non-convergence error shape, and the router walks past it: the plan's
/// floor rung answers with interval metadata instead of erroring.
#[test]
fn fluid_nonconvergence_is_degraded_past_by_the_router() {
    let _guard = mapqn_faults::arm(FaultSite::FluidFixedPoint, 0, u64::MAX);
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let raw = solve_fluid(&network).unwrap_err();
    assert!(matches!(
        raw,
        CoreError::Markov(mapqn_markov::MarkovError::NoConvergence { .. })
    ));

    let answer = solve(
        &network,
        1_000_000,
        Accuracy::Target(0.01),
        SolveBudget::unlimited(),
    )
    .unwrap();
    assert_eq!(answer.engine, Engine::AsymptoticFloor);
    assert!(!answer.accuracy_met);
    assert!(answer.bounds.is_some());
    assert!(answer.attempts.iter().any(|a| a.step == Engine::Fluid && a.error.is_some()));
}

/// Permanent LP iteration exhaustion, and permanent basis-factorization
/// breakdown, each walk the whole ladder down to the algebraic floor: the
/// revised engine has no runtime fallback underneath the direct rung, so
/// the direct and salted rungs both fail (the bootstrap sits out at N = 4).
#[test]
fn lp_iteration_exhaustion_degrades_to_the_floor() {
    for site in [FaultSite::LpIterations, FaultSite::LpFactorization] {
        let _guard = mapqn_faults::arm(site, 0, u64::MAX);
        let network = figure5_network(4, 4.0, 0.5).unwrap();
        let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
        let bounds = solver.bound_all().unwrap();
        assert_valid(&bounds);
        assert_eq!(bounds.quality, Quality::Asymptotic, "{site:?}");
        assert!(bounds.diagnostics.degraded());
        let rungs: Vec<Rung> = bounds.diagnostics.attempts.iter().map(|a| a.step).collect();
        assert_eq!(
            rungs,
            vec![Rung::Direct, Rung::Salted, Rung::Floor],
            "{site:?}"
        );
        assert!(bounds.diagnostics.attempts[0].error.is_some());
        assert!(bounds.diagnostics.attempts[1].error.is_some());
        assert!(bounds.diagnostics.attempts[2].error.is_none());
    }
}

/// A transient fault (one injected iteration-limit) fails only the direct
/// rung: the salted re-solve answers and the result stays certified.
#[test]
fn transient_lp_fault_is_absorbed_by_the_engine() {
    let _guard = mapqn_faults::arm(FaultSite::LpIterations, 0, 1);
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert_valid(&bounds);
    assert_eq!(bounds.quality, Quality::Certified);
    let history: Vec<(Rung, bool)> = bounds
        .diagnostics
        .attempts
        .iter()
        .map(|a| (a.step, a.error.is_none()))
        .collect();
    assert_eq!(history, vec![(Rung::Direct, false), (Rung::Salted, true)]);
}

/// Every front door walks the same LP rung list. Two injected
/// iteration-limit faults fail the direct and the salted rung once each,
/// so `bound_all`, a planning session and the `solve()` router all answer
/// from the self-seeded bootstrap — the session no longer drops to its
/// fluid rung, and the router stays on the LP engine.
#[test]
fn every_front_door_walks_the_shared_lp_rungs() {
    let network = figure5_network(10, 4.0, 0.5).unwrap();
    let two_faults = || mapqn_faults::arm(FaultSite::LpIterations, 0, 2);

    let bounds = {
        let _guard = two_faults();
        MarginalBoundSolver::new(&network)
            .unwrap()
            .bound_all()
            .unwrap()
    };
    assert_valid(&bounds);
    assert_eq!(
        bounds.quality,
        Quality::SelfSeeded,
        "{}",
        bounds.diagnostics
    );
    let rungs: Vec<Rung> = bounds.diagnostics.attempts.iter().map(|a| a.step).collect();
    assert_eq!(rungs, vec![Rung::Direct, Rung::Salted, Rung::Bootstrap]);

    let answer = {
        let _guard = two_faults();
        PlanningSession::new(network.clone())
            .ask(&PlanningRequest::new("N=10", vec![]))
            .unwrap()
    };
    assert!(answer.is_valid());
    assert_eq!(
        answer.rung,
        Rung::Bootstrap,
        "{}",
        answer.bounds.diagnostics
    );
    assert_eq!(answer.bounds.quality, Quality::SelfSeeded);

    let solution = {
        let _guard = two_faults();
        solve(&network, 10, Accuracy::Certified, SolveBudget::unlimited()).unwrap()
    };
    assert_eq!(solution.engine, Engine::LpBounds);
    assert!(solution.accuracy_met);
    assert_eq!(solution.quality, Quality::SelfSeeded);
}

/// Forced budget expiry (the `budget-expiry` hook makes every deadline
/// check report wall-clock exhaustion) leaves only the floor standing.
#[test]
fn forced_budget_expiry_degrades_to_the_floor() {
    let _guard = mapqn_faults::arm(FaultSite::BudgetExpiry, 0, u64::MAX);
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert_valid(&bounds);
    assert_eq!(bounds.quality, Quality::Asymptotic);
    assert!(bounds.diagnostics.degraded());
}

/// The acceptance criterion for partial ensembles: a batch with one
/// injected failing scenario returns every other scenario's results
/// bitwise identical to a fault-free run of the same batch.
#[test]
fn injected_scenario_failure_leaves_neighbours_bitwise_identical() {
    let scenarios = small_scenarios();
    let runner = EnsembleRunner::new();
    let clean = {
        let _guard = quiet();
        runner.run_partial(&scenarios)
    };
    assert_eq!(clean.failures().count(), 0);

    let faulted = {
        let _guard = mapqn_faults::arm(FaultSite::EnsembleScenario, 1, 1);
        runner.run_partial(&scenarios)
    };
    assert_eq!(faulted.outcomes.len(), scenarios.len());
    for job in 0..scenarios.len() {
        match (&clean.outcomes[job], &faulted.outcomes[job]) {
            (Ok(c), Ok(f)) => {
                assert_ne!(job, 1);
                assert_eq!(c.label, f.label);
                for (cb, fb) in c.bounds.iter().zip(&f.bounds) {
                    assert_bounds_bitwise_equal(cb, fb);
                }
            }
            (Ok(_), Err(failure)) => {
                assert_eq!(job, 1);
                assert_eq!(failure.job, 1);
                assert_eq!(failure.label, "s1");
                assert!(matches!(
                    failure.error,
                    CoreError::Injected {
                        site: "ensemble-scenario"
                    }
                ));
            }
            (clean, faulted) => {
                panic!("unexpected outcome pair at job {job}: {clean:?} / {faulted:?}")
            }
        }
    }
}

/// Whatever the CI leg armed — including the session-level sites
/// `cache-poison`, `request-timeout` and `session-breaker` — a planning
/// session answers every request of a batch with valid, quality-tagged
/// answers and never aborts.
#[test]
fn env_selected_fault_keeps_planning_sessions_answering() {
    let _guard = mapqn_faults::exclusive();
    let mut session = PlanningSession::new(figure5_network(3, 4.0, 0.5).unwrap());
    let requests: Vec<PlanningRequest> = (2..=5)
        .map(|n| PlanningRequest::new(format!("N={n}"), vec![WhatIf::Population(n)]))
        .collect();
    // Two rounds, so cache-hit consultations exist for `cache-poison` to
    // target under its leg.
    for _ in 0..2 {
        for answer in session.run_batch(&requests) {
            let answer = answer.expect("sessions must answer under any armed fault");
            assert!(answer.is_valid(), "invalid answer for '{}'", answer.label);
        }
    }
    if mapqn_faults::current().is_none() {
        assert_eq!(session.stats().certified_answers, 8);
        assert_eq!(session.stats().cache_hits, 4);
        assert_eq!(session.stats().quarantines, 0);
    }
}

/// A permanently armed `request-timeout` expires every request's certified
/// budget at admission: every answer degrades to the fluid rung, valid and
/// tagged, with the injected fault recorded in the diagnostics.
#[test]
fn permanent_request_timeout_degrades_every_request_to_fluid() {
    let _guard = mapqn_faults::arm(FaultSite::RequestTimeout, 0, u64::MAX);
    let mut session = PlanningSession::new(figure5_network(4, 4.0, 0.5).unwrap());
    let answer = session
        .ask(&PlanningRequest::new("timed-out", vec![]))
        .unwrap();
    assert!(answer.is_valid());
    assert_eq!(answer.bounds.quality, Quality::Asymptotic);
    assert_eq!(answer.rung, Rung::Fluid);
    assert!(answer.bounds.diagnostics.attempts.iter().any(|a| matches!(
        a.error,
        Some(CoreError::Injected {
            site: "request-timeout"
        })
    )));
}

/// A one-shot `session-breaker` forces exactly one request onto the
/// degraded rung without moving the real breaker state machine: the next
/// request runs the full certified ladder again.
#[test]
fn one_shot_session_breaker_is_contained_to_its_request() {
    let mut session = PlanningSession::new(figure5_network(4, 4.0, 0.5).unwrap());
    let request = PlanningRequest::new("r", vec![]);
    let forced = {
        let _guard = mapqn_faults::arm(FaultSite::SessionBreaker, 0, 1);
        session.ask(&request).unwrap()
    };
    assert_eq!(forced.source, AnswerSource::BreakerOpen);
    assert_eq!(forced.bounds.quality, Quality::Asymptotic);
    let after = {
        let _guard = quiet();
        session.ask(&request).unwrap()
    };
    assert_ne!(after.source, AnswerSource::BreakerOpen);
    assert_eq!(after.bounds.quality, Quality::Certified);
    assert_eq!(session.stats().breaker_trips, 0);
}

/// The all-or-nothing `run` front door names the failing scenario: label
/// and job index ride on the error, wrapped around the underlying cause.
#[test]
fn batch_error_names_the_failing_scenario() {
    let _guard = mapqn_faults::arm(FaultSite::EnsembleScenario, 2, 1);
    let scenarios = small_scenarios();
    let err = EnsembleRunner::new().run(&scenarios).unwrap_err();
    match &err {
        CoreError::Scenario { label, job, source } => {
            assert_eq!(label, "s2");
            assert_eq!(*job, 2);
            assert!(matches!(**source, CoreError::Injected { .. }));
        }
        other => panic!("expected CoreError::Scenario, got {other:?}"),
    }
    let rendered = err.to_string();
    assert!(rendered.contains("s2"), "{rendered}");
    assert!(rendered.contains("job 2"), "{rendered}");
    // The wrapped cause is reachable through the std error chain.
    let source = std::error::Error::source(&err).expect("Scenario must expose its source");
    assert!(source.to_string().contains("ensemble-scenario"));
}

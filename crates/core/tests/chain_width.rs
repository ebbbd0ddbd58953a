//! Width invariance of the bound solve's two objective chains.
//!
//! `bound_all_seeded` runs its objectives as two fixed warm-start chains,
//! each a schedule of (objective, sense) steps (on two stations one serial
//! schedule); `BoundOptions::workers` only decides whether the second
//! chain runs on a second thread. Every test passes the width
//! explicitly, so the two-thread path runs on single-core machines too,
//! and compares the answers bit for bit.

use mapqn_core::bounds::{BoundOptions, PopulationSweep};
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::templates::{figure5_network, tpcw_server_tier, TpcwParameters};
use mapqn_core::{
    ClosedNetwork, CoreError, MarginalBoundSolver, NetworkBounds, PerformanceIndex, PlanningAnswer,
    PlanningRequest, PlanningSession, SessionOptions, WhatIf,
};
use mapqn_faults::FaultSite;
use mapqn_lp::Sense;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn options(workers: usize) -> BoundOptions {
    BoundOptions {
        workers,
        ..BoundOptions::default()
    }
}

/// Every interval endpoint of a bound set as raw bits, plus its quality.
fn bits(b: &NetworkBounds) -> (Vec<u64>, String) {
    let endpoints = b
        .throughput
        .iter()
        .chain(&b.utilization)
        .chain(&b.mean_queue_length)
        .chain([&b.system_throughput, &b.system_response_time])
        .flat_map(|i| [i.lower.to_bits(), i.upper.to_bits()])
        .collect();
    (endpoints, format!("{:?}", b.quality))
}

/// Everything a cold `bound_all` leaves behind that must not depend on
/// the width: the bounds, the recorded bases and engine paths, and the
/// engine counters.
fn cold_solve(network: &ClosedNetwork, workers: usize) -> String {
    let mut solver = MarginalBoundSolver::with_options(network, options(workers)).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert!(!bounds.diagnostics.degraded(), "{}", bounds.diagnostics);
    format!(
        "{:?} {:?} {:?} {:?}",
        bits(&bounds),
        solver.solved_bases(),
        solver.solve_outcomes(),
        solver.stats()
    )
}

#[test]
fn bound_all_is_bitwise_equal_at_width_1_and_2() {
    let _guard = mapqn_faults::exclusive();
    let mut networks = vec![
        figure5_network(4, 16.0, 0.5).unwrap(),
        figure5_network(20, 16.0, 0.5).unwrap(),
        tpcw_server_tier(&TpcwParameters {
            browsers: 12,
            ..TpcwParameters::default()
        })
        .unwrap(),
    ];
    let spec = RandomModelSpec {
        num_map_queues: 2,
        ..RandomModelSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..3 {
        let model = random_model(&spec, &mut rng).unwrap().network;
        for n in [4, 8] {
            networks.push(model.with_population(n).unwrap());
        }
    }
    for (i, network) in networks.iter().enumerate() {
        assert_eq!(
            cold_solve(network, 1),
            cold_solve(network, 2),
            "network {i} at N = {}",
            network.population()
        );
    }
}

#[test]
fn population_sweep_is_bitwise_equal_at_width_1_and_2() {
    let _guard = mapqn_faults::exclusive();
    let network = figure5_network(1, 16.0, 0.5).unwrap();
    let sweep = |workers: usize| {
        let mut sweep = PopulationSweep::with_options(&network, options(workers)).unwrap();
        let mut record = Vec::new();
        for n in 1..=6 {
            let bounds = sweep.bounds_at(n).unwrap();
            let solver = sweep.last_solver().unwrap();
            record.push(format!(
                "{:?} {:?} {:?}",
                bits(&bounds),
                solver.solved_bases(),
                solver.solve_outcomes()
            ));
        }
        (record, sweep.stats())
    };
    let (serial, serial_stats) = sweep(1);
    let (parallel, parallel_stats) = sweep(2);
    assert_eq!(serial_stats, parallel_stats);
    assert!(serial_stats.dual_warm_objectives > 0, "{serial_stats:?}");
    for (n, (a, b)) in (1..).zip(serial.iter().zip(&parallel)) {
        assert_eq!(a, b, "N = {n}");
    }
}

fn planning_answer(answer: &PlanningAnswer) -> String {
    format!(
        "{:?} {:?} {:?} {:?}",
        bits(&answer.bounds),
        answer.metrics,
        answer.rung,
        answer.source
    )
}

/// A `[cold, cold]` batch gives each solve one thread and a `[hit, cold]`
/// batch gives its lone solve both; the answers must not notice.
#[test]
fn planning_batches_are_bitwise_equal_at_1_and_2_threads() {
    let _guard = mapqn_faults::exclusive();
    let request = |n: usize| PlanningRequest::new(format!("N={n}"), vec![WhatIf::Population(n)]);
    let run = |threads: usize| {
        let mut session = PlanningSession::with_options(
            figure5_network(4, 16.0, 0.5).unwrap(),
            SessionOptions {
                threads,
                ..SessionOptions::default()
            },
        );
        let mut answers = Vec::new();
        for batch in [[request(4), request(5)], [request(4), request(6)]] {
            for answer in session.run_batch(&batch) {
                answers.push(planning_answer(&answer.unwrap()));
            }
        }
        assert_eq!(session.stats().cache_hits, 1);
        answers
    };
    assert_eq!(run(1), run(2));
}

/// While a fault is armed the chains run serially, chain A first: the
/// occurrence counter of the LP fault site then numbers every pivot-loop
/// consultation of chain A before any of chain B. A single injected
/// failure at a growing ordinal therefore first fails chain A (and chain B
/// is skipped: fewer than one chain's worth of solves succeed), then fails
/// chain B after all of chain A's solves, then misses the solve entirely —
/// at either width.
#[test]
fn an_armed_fault_runs_the_chains_serially_chain_a_first() {
    let network = figure5_network(4, 16.0, 0.5).unwrap();
    let per_chain = 3 * network.num_stations() + 1;
    let faulted = |ordinal: u64, workers: usize| {
        let _guard = mapqn_faults::arm(FaultSite::LpIterations, ordinal, 1);
        let mut solver = MarginalBoundSolver::with_options(&network, options(workers)).unwrap();
        let result = solver.bound_all_seeded(&[]);
        let record = format!(
            "{:?} {:?} {:?}",
            result.as_ref().map(bits).map_err(ToString::to_string),
            solver.solved_bases(),
            solver.solve_outcomes()
        );
        (result.is_ok(), solver.stats().revised_solves, record)
    };
    let mut last_solves = 0;
    let (mut a_failed, mut b_failed, mut clean) = (false, false, false);
    for ordinal in (0..=400).step_by(4) {
        let serial = faulted(ordinal, 1);
        assert_eq!(serial, faulted(ordinal, 2), "fault at occurrence {ordinal}");
        let (ok, solves, _) = serial;
        assert!(solves >= last_solves, "fault at occurrence {ordinal}");
        last_solves = solves;
        match (ok, solves < per_chain) {
            (false, true) => a_failed = true,
            (false, false) => {
                assert!(!clean, "chain B failed after a clean solve at {ordinal}");
                b_failed = true;
            }
            (true, _) => {
                assert_eq!(solves, 2 * per_chain);
                clean = true;
            }
        }
    }
    assert!(
        a_failed && b_failed && clean,
        "{a_failed} {b_failed} {clean}"
    );
}

/// Two stations run one serial schedule that mixes senses: each twin
/// queue-length objective (min Q0 / max Q1, max Q0 / min Q1) right after
/// its partner. A single injected failure at a growing ordinal then fails
/// the scheduled steps one after the other, and the error names the step
/// that failed: objective and sense, not the canonical slot order.
#[test]
fn an_armed_fault_fails_the_two_station_schedule_at_its_scheduled_slot() {
    use PerformanceIndex::{MeanQueueLength, SystemThroughput, Throughput, Utilization};
    let network = tpcw_server_tier(&TpcwParameters {
        browsers: 4,
        ..TpcwParameters::default()
    })
    .unwrap();
    let (min, max) = (Sense::Minimize, Sense::Maximize);
    let family = [
        Throughput(0),
        Throughput(1),
        SystemThroughput,
        Utilization(0),
        Utilization(1),
    ];
    let schedule: Vec<(PerformanceIndex, Sense)> = family
        .map(|index| (index, min))
        .into_iter()
        .chain([(MeanQueueLength(0), min), (MeanQueueLength(1), max)])
        .chain(family.map(|index| (index, max)))
        .chain([(MeanQueueLength(0), max), (MeanQueueLength(1), min)])
        .collect();
    let faulted = |ordinal: u64, workers: usize| {
        let _guard = mapqn_faults::arm(FaultSite::LpIterations, ordinal, 1);
        let mut solver = MarginalBoundSolver::with_options(&network, options(workers)).unwrap();
        let result = solver.bound_all_seeded(&[]);
        let failed = match &result {
            Ok(_) => None,
            Err(CoreError::ObjectiveSolve {
                objective, sense, ..
            }) => Some((*objective, *sense)),
            Err(e) => panic!("fault at occurrence {ordinal}: unexpected error {e}"),
        };
        let record = format!(
            "{:?} {:?} {:?}",
            result.as_ref().map(bits).map_err(ToString::to_string),
            solver.solved_bases(),
            solver.solve_outcomes()
        );
        (failed, solver.stats().revised_solves, record)
    };
    let mut last_solves = 0;
    let mut failed_steps = vec![false; schedule.len()];
    let mut clean = false;
    for ordinal in 0..=300 {
        let serial = faulted(ordinal, 1);
        assert_eq!(serial, faulted(ordinal, 2), "fault at occurrence {ordinal}");
        let (failed, solves, _) = serial;
        assert!(solves >= last_solves, "fault at occurrence {ordinal}");
        last_solves = solves;
        match failed {
            Some(step) => {
                assert!(!clean, "a failure after a clean solve at {ordinal}");
                assert_eq!(step, schedule[solves], "fault at occurrence {ordinal}");
                failed_steps[solves] = true;
            }
            None => {
                assert_eq!(solves, schedule.len());
                clean = true;
            }
        }
    }
    assert!(
        clean && failed_steps.iter().all(|&f| f),
        "{clean} {failed_steps:?}"
    );
}

//! Population-sweep and dual-engine integration tests.
//!
//! * Property test: on random Table-1 models, the dual engine re-solving
//!   from a carried basis agrees with the primal revised engine and with
//!   the dense-tableau oracle.
//! * Sweep behaviour: bound intervals evolve consistently as the population
//!   grows (throughput upper bounds are non-decreasing in `N` — adding jobs
//!   to a closed network cannot lower the attainable flow), the sweep's
//!   intervals match independent per-population solves, and no solve ever
//!   falls back to the dense oracle.
//! * Regression: `bound_all()` solves the dedicated
//!   [`PerformanceIndex::SystemThroughput`] objective — the same one
//!   `response_time_bounds()` uses — instead of copying station 0's
//!   interval, exercised on a network whose station 0 has a self-loop and
//!   whose visit ratios are non-unit.

use mapqn::core::bounds::{EnsembleRunner, NetworkBounds, PopulationSweep, Scenario};
use mapqn::core::random_models::{random_model, RandomModelSpec};
use mapqn::core::templates::figure5_network;
use mapqn::core::{solve_exact, MarginalBoundSolver, PerformanceIndex};
use mapqn::lp::{LpStatus, RevisedSimplex, Sense, SimplexEngine, SimplexOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;

fn dense_options() -> SimplexOptions {
    SimplexOptions {
        engine: SimplexEngine::DenseTableau,
        ..SimplexOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The dual engine, re-solving each objective of a random Table-1 model
    /// at population N+1 from the translated optimal basis at population N,
    /// matches the primal revised engine and the dense oracle.
    #[test]
    fn dual_engine_matches_primal_and_oracle_on_random_models(
        seed in 0u64..1000,
        population in 2usize..4,
    ) {
        let spec = RandomModelSpec {
            num_map_queues: 2,
            ..RandomModelSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(&spec, &mut rng).unwrap();
        let source_net = model.network.with_population(population).unwrap();
        let target_net = model.network.with_population(population + 1).unwrap();

        // Solve everything at the source population to obtain bases.
        let mut source = MarginalBoundSolver::new(&source_net).unwrap();
        source.bound_all().unwrap();
        let target = MarginalBoundSolver::new(&target_net).unwrap();
        let base = target.lp_problem();
        let options = SimplexOptions::default();

        let bases = source.solved_bases();
        prop_assert!(!bases.is_empty());
        // Try the dual re-solve of a few objectives from their own carried
        // bases; wherever the dual engine accepts the seed, its optimum
        // must match a cold primal solve and the dense oracle.
        let indices = [
            PerformanceIndex::Throughput(0),
            PerformanceIndex::Utilization(1),
            PerformanceIndex::MeanQueueLength(2),
            PerformanceIndex::SystemThroughput,
        ];
        for (slot, index) in indices.iter().enumerate() {
            let terms = target.objective_for(*index);
            let mut objective = vec![0.0; base.num_vars()];
            for &(idx, c) in &terms {
                objective[idx] += c;
            }
            for (half, sense) in [(0usize, Sense::Minimize), (1, Sense::Maximize)] {
                // Canonical slot layout: minimizations first. The exact
                // slot of `index` in the canonical order is irrelevant for
                // correctness — any basis is a legal seed — but using the
                // matching half keeps the seed meaningful.
                let seed_basis = &bases[half * (bases.len() / 2) + slot % (bases.len() / 2)];
                let translated = source.translate_basis(seed_basis, &target);

                let mut dual_engine = RevisedSimplex::new(base).unwrap();
                let dual_out = dual_engine
                    .solve_dual_from_basis(&objective, sense, &translated, &options)
                    .unwrap();

                let mut primal_engine = RevisedSimplex::new(base).unwrap();
                let feasible = primal_engine
                    .find_feasible_basis(&options)
                    .unwrap()
                    .expect("bound LPs are feasible");
                let (primal, _) = primal_engine
                    .solve_from_basis(&objective, sense, &feasible, &options)
                    .unwrap();
                prop_assert_eq!(primal.status, LpStatus::Optimal);

                let mut dense_problem = base.clone();
                dense_problem.set_objective(&terms);
                dense_problem.set_sense(sense);
                let dense = dense_problem.solve_with(&dense_options()).unwrap();
                prop_assert_eq!(dense.status, LpStatus::Optimal);

                let tol = 1e-6 * (1.0 + dense.objective.abs());
                prop_assert!(
                    (primal.objective - dense.objective).abs() <= tol,
                    "primal {} vs oracle {} ({index:?} {sense:?})",
                    primal.objective,
                    dense.objective
                );
                if let Some((dual, _, _)) = dual_out {
                    prop_assert_eq!(dual.status, LpStatus::Optimal);
                    prop_assert!(
                        (dual.objective - dense.objective).abs() <= tol,
                        "dual {} vs oracle {} ({index:?} {sense:?})",
                        dual.objective,
                        dense.objective
                    );
                }
            }
        }
    }
}

/// Every interval endpoint of two bound sets, bit-compared.
fn assert_bounds_bitwise_equal(a: &NetworkBounds, b: &NetworkBounds, context: &str) {
    let eq = |x: f64, y: f64, what: &str| {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: {what} differs ({x} vs {y})"
        );
    };
    for k in 0..a.throughput.len() {
        for (ia, ib, what) in [
            (&a.throughput[k], &b.throughput[k], "throughput"),
            (&a.utilization[k], &b.utilization[k], "utilization"),
            (&a.mean_queue_length[k], &b.mean_queue_length[k], "mql"),
        ] {
            eq(ia.lower, ib.lower, &format!("{what}[{k}].lower"));
            eq(ia.upper, ib.upper, &format!("{what}[{k}].upper"));
        }
    }
    eq(a.system_throughput.lower, b.system_throughput.lower, "X.lower");
    eq(a.system_throughput.upper, b.system_throughput.upper, "X.upper");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The same random-model batch through the serial path and through the
    /// parallel ensemble: intervals must be identical (bitwise) and nothing
    /// may fall back to the dense oracle.
    ///
    /// Two serial references are compared. Single-population scenarios are
    /// checked against plain serial `bound_all()` — a one-population sweep
    /// carries no cross-population seeds, so the ensemble must reproduce
    /// the plain solver exactly under the job's documented options
    /// ([`EnsembleRunner::scenario_options`]). Multi-population scenarios
    /// are checked against a serial [`PopulationSweep`] replay of the same
    /// job, plus a 1-worker ensemble run (the worker-count-determinism
    /// regression from the PR's bugfix list).
    #[test]
    fn ensemble_matches_serial_bound_all_on_random_batches(
        seed in 0u64..500,
        population in 2usize..5,
    ) {
        let spec = RandomModelSpec {
            num_map_queues: 2,
            ..RandomModelSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let models: Vec<_> = (0..3)
            .map(|_| random_model(&spec, &mut rng).unwrap())
            .collect();

        // Batch A: one population per scenario (ensemble == plain solver).
        let single: Vec<Scenario> = models
            .iter()
            .enumerate()
            .map(|(i, m)| Scenario::new(format!("single{i}"), m.network.clone(), [population]))
            .collect();
        let runner = EnsembleRunner::new().with_threads(3);
        let report = runner.run(&single).unwrap();
        prop_assert!(
            report.results.iter().flat_map(|r| &r.bounds).all(|b| !b.diagnostics.degraded()),
            "single-pop ensemble degraded"
        );
        for (job, model) in models.iter().enumerate() {
            let net = model.network.with_population(population).unwrap();
            let mut serial = MarginalBoundSolver::with_options(
                &net,
                runner.scenario_options(job),
            )
            .unwrap();
            let serial_bounds = serial.bound_all().unwrap();
            prop_assert!(!serial_bounds.diagnostics.degraded());
            assert_bounds_bitwise_equal(
                &serial_bounds,
                &report.results[job].bounds[0],
                &format!("seed {seed} job {job}"),
            );
        }

        // Batch B: population ranges; the ensemble must reproduce a serial
        // sweep replay of each job, and a 1-worker run of the whole batch.
        let ranged: Vec<Scenario> = models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                Scenario::new(format!("range{i}"), m.network.clone(), 1..=population + 1)
            })
            .collect();
        let ranged_report = runner.run(&ranged).unwrap();
        prop_assert!(
            ranged_report.results.iter().flat_map(|r| &r.bounds).all(|b| !b.diagnostics.degraded()),
            "ranged ensemble degraded"
        );
        let one_worker = EnsembleRunner::new().with_threads(1).run(&ranged).unwrap();
        prop_assert_eq!(one_worker.stats, ranged_report.stats);
        for (job, scenario) in ranged.iter().enumerate() {
            let mut replay =
                PopulationSweep::with_options(&scenario.network, runner.scenario_options(job))
                    .unwrap();
            for (j, &n) in scenario.populations.iter().enumerate() {
                let serial_bounds = replay.bounds_at(n).unwrap();
                assert_bounds_bitwise_equal(
                    &serial_bounds,
                    &ranged_report.results[job].bounds[j],
                    &format!("seed {seed} ranged job {job} N={n}"),
                );
                assert_bounds_bitwise_equal(
                    &one_worker.results[job].bounds[j],
                    &ranged_report.results[job].bounds[j],
                    &format!("seed {seed} worker-count job {job} N={n}"),
                );
            }
            prop_assert_eq!(replay.stats().dense_fallbacks, 0);
        }
    }
}

/// Sweeping the SCV=16 case study upwards: intervals must match independent
/// solves, the throughput upper bound must be non-decreasing in the
/// population, and nothing may fall back to the dense oracle.
#[test]
fn sweep_bounds_are_monotone_and_match_independent_solves() {
    let network = figure5_network(1, 16.0, 0.5).unwrap();
    let mut sweep = PopulationSweep::new(&network).unwrap();
    let mut previous_upper: Option<f64> = None;
    for n in 1..=12 {
        let swept = sweep.bounds_at(n).unwrap();
        assert_eq!(swept.population, n);

        // Throughput upper bounds cannot shrink as jobs are added.
        let upper = swept.system_throughput.upper;
        if let Some(prev) = previous_upper {
            assert!(
                upper >= prev - 1e-9,
                "N={n}: system throughput upper bound {upper} < previous {prev}"
            );
        }
        previous_upper = Some(upper);

        // Intervals match an independent (unseeded) solve of the same
        // population.
        let independent = MarginalBoundSolver::new(&network.with_population(n).unwrap())
            .unwrap()
            .bound_all()
            .unwrap();
        for k in 0..3 {
            for (a, b) in [
                (&swept.throughput[k], &independent.throughput[k]),
                (&swept.utilization[k], &independent.utilization[k]),
                (&swept.mean_queue_length[k], &independent.mean_queue_length[k]),
            ] {
                assert!(
                    (a.lower - b.lower).abs() <= 1e-6 * (1.0 + b.lower.abs())
                        && (a.upper - b.upper).abs() <= 1e-6 * (1.0 + b.upper.abs()),
                    "N={n} station {k}: sweep [{}, {}] vs independent [{}, {}]",
                    a.lower,
                    a.upper,
                    b.lower,
                    b.upper
                );
            }
        }
    }
    let stats = sweep.stats();
    assert_eq!(stats.dense_fallbacks, 0, "sweep fell back to the dense oracle");
    assert!(
        stats.dual_warm_objectives > 0,
        "sweep never used a dual warm start: {stats:?}"
    );
}

/// `bound_all()` must solve the dedicated system-throughput objective (the
/// one `response_time_bounds()` solves), not reuse station 0's throughput
/// interval. The Figure 5 network pins this down: station 0 has a self-loop
/// (`p00 = 0.2`) and the visit ratios are `(1, 0.7, 0.1)`.
#[test]
fn bound_all_solves_the_dedicated_system_throughput_objective() {
    let network = figure5_network(6, 4.0, 0.5).unwrap();
    let visits = network.visit_ratios().unwrap();
    assert!((visits[1] - 0.7).abs() < 1e-9, "premise: non-unit visit ratios");

    let exact = solve_exact(&network).unwrap();
    let mut solver = MarginalBoundSolver::new(&network).unwrap();
    let all = solver.bound_all().unwrap();
    let dedicated = solver.bound(PerformanceIndex::SystemThroughput).unwrap();

    // Identical objective => identical interval (same solver, same warm
    // path tolerances).
    assert!(
        (all.system_throughput.lower - dedicated.lower).abs() <= 1e-6
            && (all.system_throughput.upper - dedicated.upper).abs() <= 1e-6,
        "bound_all system throughput [{}, {}] != dedicated objective [{}, {}]",
        all.system_throughput.lower,
        all.system_throughput.upper,
        dedicated.lower,
        dedicated.upper
    );
    // And it must of course still bracket the exact value.
    assert!(all.system_throughput.contains(exact.system_throughput, 1e-6));
    // The dedicated system-level functional can only tighten relative to
    // station 0's single-station objective.
    assert!(
        all.system_throughput.width() <= all.throughput[0].width() + 1e-9,
        "system interval wider than station 0's: {} > {}",
        all.system_throughput.width(),
        all.throughput[0].width()
    );
    // Consistency with the response-time API, which solves the same
    // objective.
    let r = solver.response_time_bounds().unwrap();
    assert!(r.contains(exact.system_response_time, 1e-6));
    assert!(!all.diagnostics.degraded());
}

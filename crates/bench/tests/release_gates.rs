//! Release-scale gates of the solver stack: the correctness checks too
//! slow for a debug build, and the timing floors that only mean something
//! with optimizations on. Every test is ignored in debug builds; run them
//! with
//!
//! ```text
//! cargo test --release -p mapqn-bench --test release_gates -- --test-threads=1
//! ```
//!
//! One test thread keeps a timing gate from sharing the cores with another
//! test while it measures. Each timing gate fails only below a floor well
//! under what a 2-core machine measures, so a noisy runner stays green and
//! a regression does not.

use mapqn_core::bounds::{BoundOptions, EnsembleReport, EnsembleRunner, PopulationSweep, Scenario};
use mapqn_core::exact::{solve_exact_with, ExactOptions};
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::solve::{solve, Accuracy, Engine, FLUID_BAND_REFERENCE_POPULATION, FLUID_MQL_BAND};
use mapqn_core::statespace::{build_state_space, NetworkState};
use mapqn_core::templates::{figure5_network, tpcw_network, tpcw_server_tier, TpcwParameters};
use mapqn_core::{
    solve_exact, solve_fluid, ClosedNetwork, FactoredGenerator, MarginalBoundSolver, NetworkBounds,
};
use mapqn_linalg::{CsrGenerator, GeneratorOp, SolveBudget};
use mapqn_lp::{SimplexEngine, SimplexOptions};
use mapqn_markov::{
    stationary_dense_gth, stationary_sparse, stationary_sparse_op, SparsePreconditioner,
    SparseSteadyOptions, StateSpace, SteadyStateOptions,
};
use mapqn_sim::CacheServerParameters;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Runs `f` once and returns its value with the wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

fn fig5(population: usize, scv: f64) -> ClosedNetwork {
    figure5_network(population, scv, 0.5).unwrap()
}

fn tpcw(browsers: usize) -> ClosedNetwork {
    tpcw_network(&TpcwParameters {
        browsers,
        ..TpcwParameters::default()
    })
    .unwrap()
}

/// The Table 1 random-model kernel: three queues, two of them MAP.
fn table1_models(seed: u64, count: usize) -> Vec<ClosedNetwork> {
    let spec = RandomModelSpec {
        num_map_queues: 2,
        ..RandomModelSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| random_model(&spec, &mut rng).unwrap().network)
        .collect()
}

fn dense_bound_options() -> BoundOptions {
    BoundOptions {
        simplex: SimplexOptions {
            engine: SimplexEngine::DenseTableau,
            ..SimplexOptions::default()
        },
        ..BoundOptions::default()
    }
}

/// Every interval endpoint of a bound set, system throughput included.
fn endpoints(b: &NetworkBounds) -> Vec<f64> {
    b.throughput
        .iter()
        .chain(&b.utilization)
        .chain(&b.mean_queue_length)
        .chain([&b.system_throughput])
        .flat_map(|i| [i.lower, i.upper])
        .collect()
}

/// Worst difference between two bound sets, scaled by `1 + |value|`.
fn max_interval_diff(a: &NetworkBounds, b: &NetworkBounds) -> f64 {
    endpoints(a)
        .iter()
        .zip(endpoints(b))
        .map(|(x, y)| (x - y).abs() / (1.0 + x.abs().max(y.abs())))
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------- LP ----

/// Warm-started revised `bound_all` against the cold dense tableau on the
/// Table 1 kernel (3 models × N ∈ {4, 6}): intervals within 1e-6, and a
/// geometric-mean speedup of at least 1.5x (about 10x on 2 cores).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn revised_bound_all_beats_the_cold_dense_tableau_by_1_5x() {
    let mut speedups = Vec::new();
    for (model, network) in table1_models(1, 3).iter().enumerate() {
        for n in [4, 6] {
            let network = network.with_population(n).unwrap();
            let (dense, dense_s) = timed(|| {
                MarginalBoundSolver::with_options(&network, dense_bound_options())
                    .unwrap()
                    .bound_all()
                    .unwrap()
            });
            let (revised, revised_s) = timed(|| {
                MarginalBoundSolver::new(&network)
                    .unwrap()
                    .bound_all()
                    .unwrap()
            });
            let diff = max_interval_diff(&dense, &revised);
            assert!(
                diff <= 1e-6,
                "model {model} N={n}: intervals differ by {diff:.2e}"
            );
            speedups.push(dense_s / revised_s);
        }
    }
    let speedup = geomean(&speedups);
    assert!(
        speedup >= 1.5,
        "geometric-mean speedup {speedup:.2}x < 1.5x ({speedups:.2?})"
    );
}

/// Cold `bound_all` on the Figure 8 case study (SCV = 16) around the
/// N = 50 cliff answers on the direct rung at every profiled population,
/// with a system-throughput lower bound that says something: on these
/// ill-conditioned LPs a pivot-path change once certified vacuous lower
/// bounds of about `-N * 1.5e-5`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn cold_fig8_profile_populations_never_degrade() {
    for n in [40, 44, 48, 52, 54, 58] {
        let bounds = MarginalBoundSolver::new(&fig5(n, 16.0))
            .unwrap()
            .bound_all()
            .unwrap();
        assert!(
            !bounds.diagnostics.degraded(),
            "fig8 N={n}: {}",
            bounds.diagnostics
        );
        assert!(
            bounds.system_throughput.lower > 0.0,
            "fig8 N={n}: vacuous lower bound {}",
            bounds.system_throughput.lower
        );
    }
}

// ------------------------------------------------------------ Sweeps ----

/// Cold-per-N `bound_all` against one [`PopulationSweep`] over
/// `1..=max_n`. Every swept interval must match the cold revised solve
/// within 5e-6 and the dense oracle within 1e-6 up to `oracle_limit`, and
/// no answer may degrade. Returns the cold / swept wall-time ratio.
fn sweep_speedup(name: &str, network: &ClosedNetwork, max_n: usize, oracle_limit: usize) -> f64 {
    let (cold, cold_s) = timed(|| {
        (1..=max_n)
            .map(|n| {
                let net = network.with_population(n).unwrap();
                MarginalBoundSolver::new(&net).unwrap().bound_all().unwrap()
            })
            .collect::<Vec<_>>()
    });
    let mut sweep = PopulationSweep::new(network).unwrap();
    let (swept, sweep_s) = timed(|| {
        (1..=max_n)
            .map(|n| sweep.bounds_at(n).unwrap())
            .collect::<Vec<_>>()
    });
    for (n, (s, c)) in (1..).zip(swept.iter().zip(&cold)) {
        assert!(
            !s.diagnostics.degraded() && !c.diagnostics.degraded(),
            "{name} N={n} degraded"
        );
        let diff = max_interval_diff(s, c);
        assert!(
            diff <= 5e-6,
            "{name} N={n}: sweep vs cold revised {diff:.2e}"
        );
        if n <= oracle_limit {
            let net = network.with_population(n).unwrap();
            let oracle = MarginalBoundSolver::with_options(&net, dense_bound_options())
                .unwrap()
                .bound_all()
                .unwrap();
            let diff = max_interval_diff(s, &oracle);
            assert!(
                diff <= 1e-6,
                "{name} N={n}: sweep vs dense oracle {diff:.2e}"
            );
        }
    }
    cold_s / sweep_s
}

/// Dual-warm population sweeps on the Table 1 kernel (2 models, N ≤ 24)
/// and the Figure 8 case study (N ≤ 32) match the oracle and the cold
/// solves, and beat cold-per-N by a geometric mean of at least 1.2x
/// (about 2.4x on 2 cores).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn population_sweeps_match_the_oracle_and_beat_cold_solves_by_1_2x() {
    let mut speedups: Vec<f64> = table1_models(7, 2)
        .iter()
        .enumerate()
        .map(|(i, net)| sweep_speedup(&format!("table1 model {i}"), net, 24, 5))
        .collect();
    speedups.push(sweep_speedup("fig8", &fig5(1, 16.0), 32, 10));
    let speedup = geomean(&speedups);
    assert!(
        speedup >= 1.2,
        "geometric-mean sweep speedup {speedup:.2}x < 1.2x ({speedups:.2?})"
    );
}

// --------------------------------------------------------- Ensembles ----

fn report_bits(report: &EnsembleReport) -> Vec<u64> {
    report
        .results
        .iter()
        .flat_map(|r| &r.bounds)
        .flat_map(endpoints)
        .map(f64::to_bits)
        .collect()
}

/// Runs `scenarios` on one worker and on `threads`, asserts the reports
/// are bitwise equal and never degraded, and returns both wall times.
fn ensemble_times(name: &str, scenarios: &[Scenario], threads: usize) -> (f64, f64) {
    let (serial, serial_s) = timed(|| {
        EnsembleRunner::new()
            .with_threads(1)
            .run(scenarios)
            .unwrap()
    });
    let (parallel, parallel_s) = timed(|| {
        EnsembleRunner::new()
            .with_threads(threads)
            .run(scenarios)
            .unwrap()
    });
    assert!(
        report_bits(&serial) == report_bits(&parallel),
        "{name}: serial and parallel differ"
    );
    for report in [&serial, &parallel] {
        let degraded = report
            .results
            .iter()
            .flat_map(|r| &r.bounds)
            .filter(|b| b.diagnostics.degraded())
            .count();
        assert_eq!(degraded, 0, "{name}: degraded answers");
    }
    (serial_s, parallel_s)
}

/// Scenario ensembles over the Table 1 kernel (10 models, N ≤ 10) and the
/// 3×3 SCV×ACF grid over the TPC-W server tier (N ≤ 10): bitwise equal at
/// one worker and at every core, no degraded answer, and at least 1.5x
/// end to end on a runner with two or more cores (skipped below that).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn ensembles_match_serial_bitwise_and_scale_1_5x() {
    let threads = mapqn_par::available_parallelism();
    let random: Vec<Scenario> = table1_models(7, 10)
        .into_iter()
        .enumerate()
        .map(|(i, net)| Scenario::new(format!("random_{i}"), net, 1..=10))
        .collect();
    let mut grid = Vec::new();
    for scv in [4.0, 8.0, 16.0] {
        for decay in [0.3, 0.6, 0.85] {
            let params = TpcwParameters {
                front_mean: CacheServerParameters::default().mean_service_time(),
                front_scv: scv,
                front_acf_decay: decay,
                ..TpcwParameters::default()
            };
            let tier = tpcw_server_tier(&params).unwrap();
            grid.push(Scenario::new(
                format!("tpcw_scv{scv}_decay{decay}"),
                tier,
                1..=10,
            ));
        }
    }
    let (s1, p1) = ensemble_times("table1 batch", &random, threads);
    let (s2, p2) = ensemble_times("tpcw grid", &grid, threads);
    let speedup = (s1 + s2) / (p1 + p2);
    if threads >= 2 {
        assert!(
            speedup >= 1.5,
            "ensemble speedup {speedup:.2}x < 1.5x on {threads} workers"
        );
    }
}

// ------------------------------------------------------ Exact (CTMC) ----

fn space(network: &ClosedNetwork) -> StateSpace<NetworkState> {
    build_state_space(network, 10_000_000).unwrap()
}

/// Every validation family at a size dense GTH still solves. The first,
/// 1,980 states, is the dense ceiling the at-scale models are measured
/// against.
fn overlap_models() -> [(&'static str, ClosedNetwork); 3] {
    [
        ("fig5_scv16_N43", fig5(43, 16.0)),
        ("fig5_scv4_N8", fig5(8, 4.0)),
        ("tpcw_B40", tpcw(40)),
    ]
}

/// Exact options that force one steady-state path at any size:
/// `usize::MAX` always takes dense GTH, `0` always the sparse engine.
fn exact_with_dense_threshold(dense_threshold: usize) -> ExactOptions {
    ExactOptions {
        steady_state: SteadyStateOptions {
            dense_threshold,
            ..SteadyStateOptions::default()
        },
        ..ExactOptions::default()
    }
}

fn metrics_vector(m: &mapqn_core::NetworkMetrics) -> Vec<f64> {
    let mut v = vec![m.system_throughput];
    v.extend(
        m.throughput
            .iter()
            .chain(&m.utilization)
            .chain(&m.mean_queue_length),
    );
    v
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Sparse engine vs dense GTH on the overlap models: stationary vector and
/// metrics within 1e-8.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn sparse_engine_matches_dense_gth_within_1e8_on_the_overlap_models() {
    for (name, network) in overlap_models() {
        let space = space(&network);
        let dense = stationary_dense_gth(space.ctmc()).unwrap();
        let sparse = stationary_sparse(space.ctmc(), &SparseSteadyOptions::default()).unwrap();
        let pi_diff = dense.max_abs_diff(&sparse.pi).unwrap();
        assert!(pi_diff <= 1e-8, "{name}: pi diff {pi_diff:.2e}");
        let dense = solve_exact_with(&network, &exact_with_dense_threshold(usize::MAX)).unwrap();
        let sparse = solve_exact_with(&network, &exact_with_dense_threshold(0)).unwrap();
        let diff = max_abs_diff(&metrics_vector(&dense), &metrics_vector(&sparse));
        assert!(diff <= 1e-8, "{name}: metric diff {diff:.2e}");
    }
}

/// The sparse engine solves the dense ceiling model at least 2x faster
/// than dense GTH: the median ratio of 7 interleaved (dense, sparse) pairs,
/// so one slow round on a shared runner cannot move it (about 6.5x on 2
/// cores).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn sparse_engine_beats_dense_gth_2x_at_the_ceiling() {
    let [(_, ceiling), ..] = overlap_models();
    let space = space(&ceiling);
    let mut ratios: Vec<f64> = (0..7)
        .map(|_| {
            let (_, dense_s) = timed(|| stationary_dense_gth(space.ctmc()).unwrap());
            let (_, sparse_s) =
                timed(|| stationary_sparse(space.ctmc(), &SparseSteadyOptions::default()).unwrap());
            dense_s / sparse_s
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        median >= 2.0,
        "sparse only {median:.2}x dense GTH at the ceiling ({ratios:.2?})"
    );
}

/// The sparse engine solves models of at least 10x the dense ceiling's
/// states, bitwise equal at 1 and 4 workers (threaded path forced), with a
/// factored generator at least 5x smaller than the flat CSR.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn at_scale_solves_reach_10x_the_dense_ceiling_and_are_worker_count_invariant() {
    let ceiling = overlap_models()
        .iter()
        .map(|(_, net)| space(net).len())
        .max()
        .unwrap();
    for (name, network) in [
        ("fig5_scv16_N150", fig5(150, 16.0)),
        ("tpcw_B150", tpcw(150)),
    ] {
        let space = space(&network);
        assert!(
            space.len() >= 10 * ceiling,
            "{name}: {} states vs ceiling {ceiling}",
            space.len()
        );
        let pi_bits = |workers| {
            let options = SparseSteadyOptions {
                workers,
                parallel_threshold: 0,
                ..SparseSteadyOptions::default()
            };
            let pi = stationary_sparse(space.ctmc(), &options).unwrap().pi;
            pi.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert!(pi_bits(1) == pi_bits(4), "{name}: 1 and 4 workers differ");
        let factored = FactoredGenerator::new(&network, 10_000_000)
            .unwrap()
            .memory_bytes();
        let flat = space.generator_memory_bytes();
        assert!(
            flat >= 5 * factored,
            "{name}: flat {flat} B vs factored {factored} B"
        );
    }
}

/// One model solved through the materialized and the factored generator.
struct BothWays {
    /// Worst |π| difference, compared under the state-index mapping.
    pi_diff: f64,
    materialized_sweeps: usize,
    implicit_rung: SparsePreconditioner,
    implicit_sweeps: usize,
    flat_bytes: usize,
    factored_bytes: usize,
}

fn solve_both_ways(network: &ClosedNetwork) -> BothWays {
    let space = space(network);
    let op = FactoredGenerator::new(network, 10_000_000).unwrap();
    let materialized = stationary_sparse(space.ctmc(), &SparseSteadyOptions::default()).unwrap();
    let implicit = stationary_sparse_op(&op, &SparseSteadyOptions::default()).unwrap();
    let pi_diff = space
        .states()
        .iter()
        .enumerate()
        .map(|(mat, state)| (materialized.pi[mat] - implicit.pi[op.index_of(state).unwrap()]).abs())
        .fold(0.0, f64::max);
    BothWays {
        pi_diff,
        materialized_sweeps: materialized.sweeps,
        implicit_rung: implicit.used,
        implicit_sweeps: implicit.sweeps,
        flat_bytes: space.generator_memory_bytes(),
        factored_bytes: op.memory_bytes(),
    }
}

/// The implicit (factored) tier: π within 1e-8 of the materialized engine
/// and a generator at least 5x smaller on fig5_scv16_N30 and tpcw_B25; then
/// tpcw_B80, whose estimated flat CSR exceeds the larger of their two flat
/// footprints, solves through the factored operator alone, and
/// `solve_exact_with` under that ceiling conserves the population within
/// 1e-8.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn implicit_only_solve_past_the_materialized_ceiling_conserves_population() {
    let mut ceiling = 0;
    for (name, network) in [("fig5_scv16_N30", fig5(30, 16.0)), ("tpcw_B25", tpcw(25))] {
        let r = solve_both_ways(&network);
        assert!(r.pi_diff <= 1e-8, "{name}: pi diff {:.2e}", r.pi_diff);
        assert!(
            r.flat_bytes >= 5 * r.factored_bytes,
            "{name}: flat {} B vs factored {} B",
            r.flat_bytes,
            r.factored_bytes
        );
        ceiling = ceiling.max(r.flat_bytes);
    }
    let network = tpcw(80);
    let op = FactoredGenerator::new(&network, 10_000_000).unwrap();
    let estimate = op.flat_csr_bytes_estimate();
    assert!(
        estimate > ceiling,
        "tpcw_B80 estimate {estimate} B within the ceiling {ceiling} B"
    );
    assert!(estimate >= 5 * op.memory_bytes());
    stationary_sparse_op(&op, &SparseSteadyOptions::default()).unwrap();
    let options = ExactOptions {
        materialize_bytes_ceiling: ceiling,
        ..ExactOptions::default()
    };
    let jobs = solve_exact_with(&network, &options).unwrap().total_jobs();
    assert!(
        (jobs - 80.0).abs() <= 1e-8,
        "tpcw_B80 holds {jobs} jobs, not 80"
    );
}

/// tpcw_B80 and fig5_scv16_N60 solved through the factored operator are
/// answered by the Gauss–Seidel rung within one residual check (16 sweeps)
/// of the materialized solve, and the two representations agree within
/// 1e-8: both number the states in the same rank order and give them the
/// same levels, so only rounding separates the two chains, and the coarse
/// step and Aitken extrapolation act alike on both (measured: 336 and 544
/// sweeps on each representation).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn tpcw_b80_implicit_gauss_seidel_sweeps_match_the_materialized_within_one_check() {
    let check = SparseSteadyOptions::default().check_every;
    for (name, network) in [("tpcw_B80", tpcw(80)), ("fig5_scv16_N60", fig5(60, 16.0))] {
        let r = solve_both_ways(&network);
        assert!(r.pi_diff <= 1e-8, "{name}: pi diff {:.2e}", r.pi_diff);
        assert_eq!(r.implicit_rung, SparsePreconditioner::GaussSeidel, "{name}");
        assert!(
            r.implicit_sweeps.abs_diff(r.materialized_sweeps) <= check,
            "{name}: {} implicit sweeps vs {} materialized",
            r.implicit_sweeps,
            r.materialized_sweeps
        );
    }
}

/// The factored operator's Gauss–Seidel solve costs at most 2x the
/// materialized operator's per sweep on fig5_scv16_N60 and tpcw_B80: the
/// median of 7 interleaved pairs of whole solves, one worker each, so the
/// ratio is the two representations' own (measured 1.2–1.6x on a 2-core
/// x86-64 box).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn factored_gauss_seidel_costs_at_most_2x_the_materialized_per_sweep() {
    let options = SparseSteadyOptions {
        workers: 1,
        ..SparseSteadyOptions::default()
    };
    for (name, network) in [("fig5_scv16_N60", fig5(60, 16.0)), ("tpcw_B80", tpcw(80))] {
        let space = space(&network);
        let qt = space.ctmc().generator().transpose();
        let materialized = CsrGenerator::new(&qt, space.ctmc().levels()).unwrap();
        let factored = FactoredGenerator::new(&network, 10_000_000).unwrap();
        let mut ratios: Vec<f64> = (0..7)
            .map(|_| {
                let (f, f_s) = timed(|| stationary_sparse_op(&factored, &options).unwrap());
                let (m, m_s) = timed(|| stationary_sparse_op(&materialized, &options).unwrap());
                assert_eq!(f.used, SparsePreconditioner::GaussSeidel, "{name}");
                assert_eq!(m.used, SparsePreconditioner::GaussSeidel, "{name}");
                (f_s / f.sweeps as f64) / (m_s / m.sweeps as f64)
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        eprintln!("{name}: factored / materialized per sweep {median:.2}x");
        assert!(median <= 2.0, "{name}: factored costs {median:.2}x per sweep");
    }
}

// ------------------------------------------------------------- Fluid ----

/// The fluid mean-queue-length gap `max_k |q_fluid - q_exact| / N` is at
/// most 5% at each family's largest gridded population (fig8 needs
/// N = 144 for it) and inside the quoted `FLUID_MQL_BAND` at the
/// reference population.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn fluid_gap_is_within_5_percent_at_each_familys_largest_population() {
    let reference = FLUID_BAND_REFERENCE_POPULATION;
    for (name, network) in [
        ("fig5_scv4", fig5(reference, 4.0)),
        ("fig8_scv16", fig5(144, 16.0)),
        ("tpcw", tpcw(reference)),
    ] {
        let n = network.population();
        let exact = solve_exact(&network).unwrap();
        let fluid = solve_fluid(&network).unwrap();
        let gap =
            max_abs_diff(&exact.mean_queue_length, &fluid.metrics.mean_queue_length) / n as f64;
        assert!(gap <= 0.05, "{name} N={n}: fluid gap {gap:.4} > 5%");
        if n == reference {
            assert!(
                gap <= FLUID_MQL_BAND,
                "{name}: gap {gap:.4} outside the quoted band"
            );
        }
    }
}

/// `solve_fluid` on TPC-W costs the same within 2x at N = 10³ and
/// N = 10⁶ (mean of 200 solves after one warm-up each; about 1.0x on 2
/// cores).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn fluid_solve_time_is_population_independent() {
    let mean_solve_s = |network: &ClosedNetwork| {
        solve_fluid(network).unwrap();
        let reps = || {
            for _ in 0..200 {
                solve_fluid(network).unwrap();
            }
        };
        timed(reps).1 / 200.0
    };
    let small = mean_solve_s(&tpcw(1_000));
    let large = mean_solve_s(&tpcw(1_000_000));
    let ratio = (large / small).max(small / large);
    assert!(
        ratio <= 2.0,
        "fluid solve {small:.2e} s at 10^3 vs {large:.2e} s at 10^6"
    );
}

/// `solve()` on TPC-W at a million users answers through the fluid tier,
/// meets the 1% target, and takes under 1 ms (mean of 100 calls; about
/// 25 µs on 2 cores).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-scale gate: CI runs it with --release"
)]
fn front_door_answers_a_million_tpcw_users_through_fluid_in_under_1ms() {
    let network = tpcw(1_000_000);
    let ask = || {
        solve(
            &network,
            1_000_000,
            Accuracy::Target(0.01),
            SolveBudget::unlimited(),
        )
        .unwrap()
    };
    let answer = ask();
    assert_eq!(answer.engine, Engine::Fluid);
    assert!(answer.accuracy_met);
    let reps = || {
        for _ in 0..100 {
            ask();
        }
    };
    let mean_s = timed(reps).1 / 100.0;
    assert!(mean_s < 1e-3, "solve() took {:.1} us", mean_s * 1e6);
}

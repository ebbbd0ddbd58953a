//! Criterion micro-benchmarks of the computational kernels the experiments
//! are built from: CTMC steady-state solvers, the simplex solver, MAP
//! descriptor computations and the simulation engine.

use criterion::{criterion_group, criterion_main, Criterion};
use mapqn_core::bounds::BoundOptions;
use mapqn_core::statespace::build_state_space;
use mapqn_core::templates::{figure5_network, tpcw_network, tpcw_server_tier, TpcwParameters};
use mapqn_core::{FactoredGenerator, MarginalBoundSolver};
use mapqn_linalg::{CsrGenerator, GeneratorOp, LevelFlows};
use mapqn_lp::{LpProblem, RevisedSimplex, Sense, SimplexEngine, SimplexOptions};
use mapqn_markov::{stationary_dense_gth, stationary_sparse, SparseSteadyOptions};
use mapqn_stochastic::{fit_map2, Map2FitSpec};
use std::hint::black_box;

fn staircase_lp(n: usize, m: usize) -> LpProblem {
    let mut lp = LpProblem::new(n, Sense::Maximize);
    let obj: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0 + (j % 5) as f64)).collect();
    lp.set_objective(&obj);
    for i in 0..m {
        let terms: Vec<(usize, f64)> = (0..n)
            .map(|j| (j, 0.1 + (((i * 13 + j * 7) % 11) as f64) / 11.0))
            .collect();
        lp.add_le(&terms, 50.0);
    }
    lp
}

fn bench_kernels(c: &mut Criterion) {
    let network = figure5_network(15, 16.0, 0.5).unwrap();
    let space = build_state_space(&network, 1_000_000).unwrap();

    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    group.bench_function("state_space_construction_n15", |b| {
        b.iter(|| build_state_space(black_box(&network), 1_000_000).unwrap())
    });
    group.bench_function("gth_steady_state", |b| {
        b.iter(|| stationary_dense_gth(black_box(space.ctmc())).unwrap())
    });
    group.bench_function("sparse_steady_state", |b| {
        b.iter(|| {
            stationary_sparse(black_box(space.ctmc()), &SparseSteadyOptions::default()).unwrap()
        })
    });
    // One Gauss–Seidel relaxation sweep of the materialized operator over
    // TPC-W's `Qᵀ` at N = 60 (3,782 states, one row block at the engine's
    // default block length): the kernel behind the `ctmc_exact` median.
    let tpcw = tpcw_network(&TpcwParameters {
        browsers: 60,
        ..TpcwParameters::default()
    })
    .unwrap();
    let tpcw_space = build_state_space(&tpcw, 1_000_000).unwrap();
    let tpcw_qt = tpcw_space.ctmc().generator().transpose();
    let tpcw_op = CsrGenerator::new(&tpcw_qt, tpcw_space.ctmc().levels()).unwrap();
    let tpcw_factored = FactoredGenerator::new(&tpcw, 1_000_000).unwrap();
    let states = tpcw_op.num_states();
    let mut exit = vec![0.0; states];
    tpcw_op.diagonal_rows_into(0, &mut exit);
    exit.iter_mut().for_each(|e| *e = -*e);
    let x_old = vec![1.0 / states as f64; states];
    let mut x_new = vec![0.0; states];
    let block_len = SparseSteadyOptions::default().block_len;
    // A sweep takes tens of µs: enough samples for a steady minimum.
    group.sample_size(200);
    group.bench_function("gauss_seidel_sweep", |b| {
        b.iter(|| {
            for (c, chunk) in x_new.chunks_mut(block_len).enumerate() {
                tpcw_op.relax_rows_into(c * block_len, black_box(&x_old), &exit, chunk);
            }
            black_box(&x_new);
        })
    });
    // The same sweep over rows the factored operator synthesizes from its
    // per-phase-rank tables (the same chain in the same order).
    group.bench_function("factored_relax_sweep", |b| {
        b.iter(|| {
            for (c, chunk) in x_new.chunks_mut(block_len).enumerate() {
                tpcw_factored.relax_rows_into(c * block_len, black_box(&x_old), &exit, chunk);
            }
            black_box(&x_new);
        })
    });
    // One residual check's scan: the products `xQ` and, in the same pass,
    // the level flows of the coarse step (one coarse block at this size).
    let mut flows = LevelFlows::default();
    for (name, op) in [
        ("check_scan_csr", &tpcw_op as &dyn GeneratorOp),
        ("check_scan_factored", &tpcw_factored),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                op.left_apply_rows_into(0, black_box(&x_old), &mut x_new, Some(&mut flows));
                black_box((&x_new, &flows));
            })
        });
    }
    group.sample_size(10);
    group.bench_function("map2_fit", |b| {
        b.iter(|| fit_map2(black_box(&Map2FitSpec::new(1.0, 8.0, 0.6).with_skewness(6.0))).unwrap())
    });
    group.bench_function("simplex_dense_200x100", |b| {
        let options = SimplexOptions {
            engine: SimplexEngine::DenseTableau,
            ..SimplexOptions::default()
        };
        b.iter(|| {
            let lp = staircase_lp(100, 200);
            lp.solve_with(black_box(&options)).unwrap()
        })
    });
    group.bench_function("simplex_revised_200x100", |b| {
        b.iter(|| {
            let lp = staircase_lp(100, 200);
            let mut engine = RevisedSimplex::new(&lp).unwrap();
            engine.solve(&lp, &SimplexOptions::default()).unwrap()
        })
    });
    // The headline comparison of the revised-engine PR: all bound LPs of a
    // Figure 5 network, cold dense tableau vs warm-started revised simplex
    // (the release-scale speedup gate is in `tests/release_gates.rs`).
    let bounds_network = figure5_network(6, 4.0, 0.5).unwrap();
    group.bench_function("marginal_bound_all_dense_cold_n6", |b| {
        let options = BoundOptions {
            simplex: SimplexOptions {
                engine: SimplexEngine::DenseTableau,
                ..SimplexOptions::default()
            },
            ..BoundOptions::default()
        };
        b.iter(|| {
            MarginalBoundSolver::with_options(black_box(&bounds_network), options)
                .unwrap()
                .bound_all()
                .unwrap()
        })
    });
    group.bench_function("marginal_bound_all_revised_warm_n6", |b| {
        b.iter(|| {
            MarginalBoundSolver::new(black_box(&bounds_network))
                .unwrap()
                .bound_all()
                .unwrap()
        })
    });
    // Cold `bound_all` on the two-station TPC-W server tier at N = 12:
    // one serial schedule that solves each twin queue-length objective
    // right after its partner.
    let tier = tpcw_server_tier(&TpcwParameters {
        browsers: 12,
        ..TpcwParameters::default()
    })
    .unwrap();
    group.bench_function("marginal_bound_all_tpcw_server_tier_n12", |b| {
        b.iter(|| {
            MarginalBoundSolver::new(black_box(&tier))
                .unwrap()
                .bound_all()
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);

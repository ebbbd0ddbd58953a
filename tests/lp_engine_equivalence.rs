//! Engine-equivalence tests: the revised simplex (sparse CSC + LU basis +
//! warm starts) must agree with the dense-tableau oracle on the LPs this
//! workspace actually solves — the marginal-bound programs of the paper.
//!
//! Agreement is asserted in three layers, for every performance index, both
//! senses, across the Figure 5 template and a batch of random central-server
//! models:
//!
//! 1. identical [`LpStatus`];
//! 2. objectives within `1e-6` (the bound-interval acceptance threshold);
//! 3. a *directional* check: the revised solution must be primal feasible
//!    to `5e-7` (the engine's `1e-8`-scale anti-degeneracy RHS perturbation
//!    may be retained in the reported solution, and bounds the residual by
//!    itself, un-amplified) and its objective at least as good as the
//!    oracle's minus `1e-6`. When the two engines differ beyond these
//!    margins, the feasibility certificate shows it is the *oracle* that
//!    stopped short of the optimum, never the revised engine.
//!
//! Mean-queue-length objectives are part of the sweep at the same `1e-6`
//! tolerance as everything else. They used to be excluded: those LPs carry
//! dual prices of order `1e5`, so the engine's retained RHS perturbation
//! shifted the reported optimum by `y^T delta ~ 1e-2`. The certified
//! objective (`y^T b`, evaluated through the dual vector of the final basis
//! against the *true* right-hand side) removes that shift exactly —
//! measured agreement on these same instances is now below `5e-9` — which
//! closed the ROADMAP open numerical item and is what the tightened
//! tolerance here locks in.
//!
//! The end-to-end interval test also asserts the revised answer came from
//! the degradation ladder's direct rung: a revised-engine failure rescued
//! by a later rung would otherwise pass as a slower certified answer.

use mapqn::core::random_models::{random_model, RandomModelSpec};
use mapqn::core::templates::figure5_network;
use mapqn::core::{ClosedNetwork, MarginalBoundSolver, PerformanceIndex};
use mapqn::lp::{
    ConstraintOp, LpProblem, LpStatus, RevisedSimplex, Sense, SimplexEngine, SimplexOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Revised engine runs well below the 1e-9 directional threshold so its
/// stopping rule is not what the test measures.
fn tight() -> SimplexOptions {
    SimplexOptions {
        tolerance: 1e-11,
        ..SimplexOptions::default()
    }
}

/// Oracle configuration: the dense tableau exactly as the rest of the
/// workspace has always run it (default tolerance and pivoting).
fn dense_options() -> SimplexOptions {
    SimplexOptions {
        engine: SimplexEngine::DenseTableau,
        ..SimplexOptions::default()
    }
}

/// Worst primal constraint violation of `x` over the problem's rows.
fn max_violation(problem: &LpProblem, x: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for c in problem.constraints() {
        let lhs: f64 = c.coefficients.iter().map(|&(j, v)| v * x[j]).sum();
        let viol = match c.op {
            ConstraintOp::Le => (lhs - c.rhs).max(0.0),
            ConstraintOp::Ge => (c.rhs - lhs).max(0.0),
            ConstraintOp::Eq => (lhs - c.rhs).abs(),
        };
        worst = worst.max(viol);
    }
    worst
}

fn assert_close(a: f64, b: f64, tol: f64, context: &str) {
    let diff = (a - b).abs();
    let scale = 1.0 + a.abs().max(b.abs());
    assert!(
        diff <= tol * scale,
        "{context}: {a} vs {b} (diff {diff:.3e}, tol {tol:.0e})"
    );
}

/// Solves every (index, sense) objective of `network`'s bound LP with both
/// engines — dense cold, revised warm started from the previous basis — and
/// asserts the layered agreement described in the module docs.
fn assert_engines_agree_on(network: &ClosedNetwork, context: &str) {
    let solver = MarginalBoundSolver::new(network).unwrap();
    let base = solver.lp_problem();

    let mut engine = RevisedSimplex::new(base).unwrap();
    let mut basis = engine
        .find_feasible_basis(&tight())
        .unwrap()
        .expect("bound LPs are feasible (the true distribution satisfies them)");

    let mut indices = vec![PerformanceIndex::SystemThroughput];
    for k in 0..network.num_stations() {
        indices.push(PerformanceIndex::Throughput(k));
        indices.push(PerformanceIndex::Utilization(k));
        indices.push(PerformanceIndex::MeanQueueLength(k));
    }

    for index in indices {
        let terms = solver.objective_for(index);
        let mut objective = vec![0.0; base.num_vars()];
        for &(idx, c) in &terms {
            objective[idx] += c;
        }
        let tol = 1e-6;
        for sense in [Sense::Minimize, Sense::Maximize] {
            let ctx = format!("{context}, {index:?} {sense:?}");
            let mut dense_problem = base.clone();
            dense_problem.set_objective(&terms);
            dense_problem.set_sense(sense);
            let dense = dense_problem.solve_with(&dense_options()).unwrap();

            let (revised, next_basis) = engine
                .solve_from_basis(&objective, sense, &basis, &tight())
                .unwrap();
            basis = next_basis;

            assert_eq!(dense.status, revised.status, "{ctx}: status mismatch");
            assert_eq!(dense.status, LpStatus::Optimal);

            // Layer 2: both engines see the same optimum.
            assert_close(dense.objective, revised.objective, tol, &ctx);

            // Layer 3: the revised solution is a certificate — feasible to
            // the perturbation scale and never worse than the oracle beyond
            // the per-index tolerance.
            let viol = max_violation(base, &revised.x);
            assert!(viol <= 5e-7, "{ctx}: revised solution violates constraints by {viol:.3e}");
            let slack = tol * (1.0 + dense.objective.abs());
            match sense {
                Sense::Minimize => assert!(
                    revised.objective <= dense.objective + slack,
                    "{ctx}: revised minimum {} worse than oracle {}",
                    revised.objective,
                    dense.objective
                ),
                Sense::Maximize => assert!(
                    revised.objective >= dense.objective - slack,
                    "{ctx}: revised maximum {} worse than oracle {}",
                    revised.objective,
                    dense.objective
                ),
            }
        }
    }
}

#[test]
fn engines_agree_on_figure5_template() {
    for &n in &[2usize, 4, 6] {
        let network = figure5_network(n, 4.0, 0.5).unwrap();
        assert_engines_agree_on(&network, &format!("figure5 N={n}"));
    }
}

#[test]
fn engines_agree_on_random_models() {
    let spec = RandomModelSpec {
        num_map_queues: 2,
        ..RandomModelSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(2024);
    for instance in 0..5 {
        let model = random_model(&spec, &mut rng).unwrap();
        for &n in &[2usize, 4] {
            let network = model.network.with_population(n).unwrap();
            assert_engines_agree_on(&network, &format!("random model {instance} N={n}"));
        }
    }
}

#[test]
fn bound_intervals_match_between_engines() {
    // End-to-end: the public bound API must produce matching intervals
    // whichever engine backs it. Both solvers run at the same (default)
    // tolerance — the interval-widening margin is proportional to it, so
    // differing tolerances would shift the intervals even with identical
    // optima.
    let network = figure5_network(5, 4.0, 0.5).unwrap();
    let mut revised_solver = MarginalBoundSolver::new(&network).unwrap();
    let mut dense_solver = MarginalBoundSolver::with_options(
        &network,
        mapqn::core::bounds::BoundOptions {
            simplex: dense_options(),
            ..mapqn::core::bounds::BoundOptions::default()
        },
    )
    .unwrap();
    let revised_bounds = revised_solver.bound_all().unwrap();
    let dense_bounds = dense_solver.bound_all().unwrap();
    assert!(
        !revised_bounds.diagnostics.degraded(),
        "the revised engine needed the degradation ladder: {}",
        revised_bounds.diagnostics
    );
    for k in 0..network.num_stations() {
        for (a, b) in [
            (&revised_bounds.throughput[k], &dense_bounds.throughput[k]),
            (&revised_bounds.utilization[k], &dense_bounds.utilization[k]),
            (
                &revised_bounds.mean_queue_length[k],
                &dense_bounds.mean_queue_length[k],
            ),
        ] {
            assert_close(a.lower, b.lower, 1e-6, &format!("station {k} lower"));
            assert_close(a.upper, b.upper, 1e-6, &format!("station {k} upper"));
        }
    }
}

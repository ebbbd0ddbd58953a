//! Workspace-level integration tests: the LP bounds must bracket the exact
//! solution for arbitrary (small) MAP networks — the central soundness
//! property the whole paper rests on.

use mapqn::core::random_models::{random_model, RandomModelSpec};
use mapqn::core::{
    solve_exact, ClosedNetwork, MarginalBoundSolver, PerformanceIndex, Service, Station,
};
use mapqn::linalg::DMatrix;
use mapqn::stochastic::{fit_map2, Map2FitSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic sweep: random central-server models, several populations,
/// every standard index.
#[test]
fn bounds_bracket_exact_on_random_models_all_indices() {
    let spec = RandomModelSpec {
        num_map_queues: 2,
        ..RandomModelSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..4 {
        let model = random_model(&spec, &mut rng).unwrap();
        for &n in &[2usize, 5] {
            let network = model.network.with_population(n).unwrap();
            let exact = solve_exact(&network).unwrap();
            let mut solver = MarginalBoundSolver::new(&network).unwrap();
            for k in 0..network.num_stations() {
                let x = solver.bound(PerformanceIndex::Throughput(k)).unwrap();
                assert!(x.contains(exact.throughput[k], 1e-5), "throughput station {k}");
                let u = solver.bound(PerformanceIndex::Utilization(k)).unwrap();
                assert!(u.contains(exact.utilization[k], 1e-5), "utilization station {k}");
                let q = solver.bound(PerformanceIndex::MeanQueueLength(k)).unwrap();
                assert!(
                    q.contains(exact.mean_queue_length[k], 1e-5),
                    "mean queue length station {k}, N = {n}: {q:?} vs exact {}",
                    exact.mean_queue_length[k]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Property: for a two-queue tandem with an arbitrary fitted MAP(2)
    /// service process and arbitrary exponential partner, the response-time
    /// bounds always contain the exact value and are ordered.
    #[test]
    fn tandem_bounds_always_bracket_exact(
        scv in 1.0f64..12.0,
        gamma in 0.0f64..0.85,
        exp_rate in 0.6f64..3.0,
        population in 2usize..7,
    ) {
        let map = fit_map2(&Map2FitSpec::new(1.0, scv, gamma)).unwrap().map;
        let network = ClosedNetwork::new(
            vec![
                Station::queue("map", Service::map(map)),
                Station::queue("exp", Service::exponential(exp_rate).unwrap()),
            ],
            DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]),
            population,
        )
        .unwrap();
        let exact = solve_exact(&network).unwrap();
        let mut solver = MarginalBoundSolver::new(&network).unwrap();
        let bounds = solver.response_time_bounds().unwrap();
        prop_assert!(bounds.lower <= bounds.upper + 1e-9);
        prop_assert!(
            bounds.contains(exact.system_response_time, 1e-5),
            "exact R {} outside [{}, {}] (scv {scv}, gamma {gamma}, rate {exp_rate}, N {population})",
            exact.system_response_time, bounds.lower, bounds.upper
        );
        // The utilization bound of the MAP queue must stay within [0, 1].
        let util = solver.bound(PerformanceIndex::Utilization(0)).unwrap();
        prop_assert!(util.lower >= -1e-6);
        // The interval is widened by the solver's numerical margin, so it can
        // exceed the physical limit of 1 by that margin.
        prop_assert!(util.upper <= 1.0 + 1e-2);
        prop_assert!(util.contains(exact.utilization[0], 1e-5));
    }

    /// Property: fitted MAP(2) processes hit their requested descriptors.
    #[test]
    fn map_fit_round_trips_descriptors(
        mean in 0.1f64..5.0,
        scv in 1.0f64..20.0,
        gamma in 0.0f64..0.9,
    ) {
        let fit = fit_map2(&Map2FitSpec::new(mean, scv, gamma)).unwrap();
        let map = fit.map;
        prop_assert!((map.mean().unwrap() - mean).abs() / mean < 1e-6);
        prop_assert!((map.scv().unwrap() - scv).abs() / scv < 1e-5);
        if map.autocorrelation(1).unwrap().abs() > 1e-9 {
            prop_assert!((map.acf_decay_rate().unwrap() - gamma).abs() < 1e-6);
        }
        // The generator must be a valid CTMC generator.
        prop_assert!(map.generator().rows_sum_to(0.0, 1e-8));
    }
}

//! Property suite of the fluid mean-field engine: the structural
//! invariants that must hold on *any* ergodic model, not just the paper's
//! case studies — exact population conservation, the asymptotic-bound
//! ceiling on throughput, monotonicity in the population, bitwise
//! population-independence of the asymptotic fractions, and the residual
//! contract of the closed-form fixed point.

use mapqn_core::bounds::aba_bounds;
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::{solve_fluid, solve_fluid_with, ClosedNetwork, FluidOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One random ergodic three-queue model (the Table 1 generator) at the
/// requested population.
fn random_network(seed: u64, population: usize) -> ClosedNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = random_model(&RandomModelSpec::default(), &mut rng).unwrap();
    model.network.with_population(population).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// The reported mean queue lengths sum to the population to 1e-9
    /// (relative): the drift conserves mass, the clamp/renormalization
    /// repairs round-off, and the variance redistribution is mass-neutral.
    #[test]
    fn population_is_conserved(seed in 0u64..1024, n in 1usize..100_000) {
        let network = random_network(seed, n);
        let fluid = solve_fluid(&network).unwrap();
        let total: f64 = fluid.metrics.mean_queue_length.iter().sum();
        prop_assert!(
            (total - n as f64).abs() <= 1e-9 * n as f64,
            "sum q = {total} vs N = {n}"
        );
    }

    /// Fluid throughput never exceeds the ABA bottleneck bound
    /// `min(1 / D_max, N / (Z + sum D))` — the fixed point sits exactly on
    /// it, so anything above is a conservation or rate bug.
    #[test]
    fn throughput_respects_the_asymptotic_bound(seed in 0u64..1024, n in 1usize..10_000) {
        let network = random_network(seed, n);
        let fluid = solve_fluid(&network).unwrap();
        let aba = aba_bounds(&network).unwrap();
        prop_assert!(
            fluid.metrics.system_throughput <= aba.throughput.upper * (1.0 + 1e-9),
            "fluid X {} above the ABA bound {}",
            fluid.metrics.system_throughput,
            aba.throughput.upper
        );
    }

    /// Throughput is monotone non-decreasing in the population (strictly
    /// increasing below the knee, saturated at `1 / D_max` above it).
    #[test]
    fn throughput_is_monotone_in_population(seed in 0u64..1024, n in 1usize..5_000) {
        let small = solve_fluid(&random_network(seed, n)).unwrap();
        let large = solve_fluid(&random_network(seed, 2 * n)).unwrap();
        prop_assert!(
            large.metrics.system_throughput
                >= small.metrics.system_throughput * (1.0 - 1e-9),
            "X({}) = {} fell below X({}) = {}",
            2 * n,
            large.metrics.system_throughput,
            n,
            small.metrics.system_throughput
        );
    }

    /// The asymptotic fractions are computed from the demand vector alone:
    /// two populations three orders of magnitude apart must produce
    /// **bitwise-identical** fractions — the engine's N-independence,
    /// checked at the strongest possible equality.
    #[test]
    fn fractions_are_bitwise_population_independent(seed in 0u64..1024) {
        let at_1k = solve_fluid(&random_network(seed, 1_000)).unwrap();
        let at_1m = solve_fluid(&random_network(seed, 1_000_000)).unwrap();
        prop_assert_eq!(at_1k.fractions.len(), at_1m.fractions.len());
        for (k, (a, b)) in at_1k.fractions.iter().zip(&at_1m.fractions).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "station {} fraction differs between N = 10^3 ({}) and N = 10^6 ({})",
                k,
                a,
                b
            );
        }
        prop_assert_eq!(at_1k.bottleneck, at_1m.bottleneck);
    }

    /// The solver's convergence report is honest: on any random ergodic
    /// model the final drift residual is at or below the requested
    /// tolerance (or the solve errors — it never returns a silently
    /// unconverged answer).
    #[test]
    fn residual_honors_the_tolerance(seed in 0u64..1024, n in 1usize..1_000) {
        let network = random_network(seed, n);
        let options = FluidOptions { tolerance: 1e-8 };
        let fluid = solve_fluid_with(&network, &options).unwrap();
        prop_assert!(
            fluid.residual <= 1e-8,
            "residual {} above the requested tolerance",
            fluid.residual
        );
    }
}

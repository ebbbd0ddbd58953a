//! Steady-state solver equivalence: GTH elimination (backward-stable direct
//! elimination) and the sparse preconditioned iterative engine must agree on
//! random ergodic generators — including near-reducible chains, the regime
//! where iterative solvers traditionally lose accuracy and the regime the
//! Gauss–Seidel/Jacobi preconditioning must not break.

use mapqn::markov::{
    stationary_dense_gth, stationary_residual, stationary_sparse, Ctmc, SparsePreconditioner,
    SparseSteadyOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random ergodic generator: a directed Hamiltonian cycle keeps the
/// chain irreducible, and extra random edges give it generic structure. All
/// rates are drawn from `rate_range`.
fn random_ergodic(
    rng: &mut StdRng,
    n: usize,
    extra_edges: usize,
    rate_range: (f64, f64),
) -> Ctmc {
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
    let (lo, hi) = rate_range;
    for i in 0..n {
        transitions.push(((i + 1) % n, i, rng.gen_range(lo..hi)));
    }
    for _ in 0..extra_edges {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        if from != to {
            transitions.push((from, to, rng.gen_range(lo..hi)));
        }
    }
    Ctmc::from_transitions(n, &transitions).unwrap()
}

/// Two internally fast clusters joined by a weak bridge: the near-reducible
/// shape whose stationary distribution is ill-conditioned in the bridge
/// rate.
fn near_reducible(rng: &mut StdRng, half: usize, bridge: f64) -> Ctmc {
    let n = 2 * half;
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
    for cluster in 0..2 {
        let base = cluster * half;
        for i in 0..half {
            transitions.push((base + (i + 1) % half, base + i, rng.gen_range(1.0..10.0)));
            let j = rng.gen_range(0..half);
            if j != i {
                transitions.push((base + i, base + j, rng.gen_range(1.0..10.0)));
            }
        }
    }
    transitions.push((half - 1, half, bridge * rng.gen_range(0.5..2.0)));
    transitions.push((n - 1, 0, bridge * rng.gen_range(0.5..2.0)));
    Ctmc::from_transitions(n, &transitions).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// GTH and the sparse engine agree to 1e-9 on random ergodic chains,
    /// under both the Gauss–Seidel and the Jacobi preconditioner.
    #[test]
    fn gth_and_sparse_engine_agree_on_random_ergodic_chains(
        seed in 0u64..10_000,
        n in 5usize..60,
        extra in 0usize..80,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctmc = random_ergodic(&mut rng, n, extra, (0.1, 20.0));
        let dense = stationary_dense_gth(&ctmc).unwrap();
        prop_assert!(stationary_residual(&ctmc, &dense).unwrap() < 1e-10);
        for preconditioner in [SparsePreconditioner::GaussSeidel, SparsePreconditioner::Jacobi] {
            let report = stationary_sparse(
                &ctmc,
                &SparseSteadyOptions { preconditioner, ..SparseSteadyOptions::default() },
            )
            .unwrap();
            let diff = report.pi.max_abs_diff(&dense).unwrap();
            prop_assert!(diff < 1e-9, "{preconditioner:?}: diff {diff:.2e}");
        }
    }

    /// The agreement holds on near-reducible chains, where the error is
    /// amplified by the inverse bridge rate; the residual-based stopping
    /// rule (not an iterate-change rule) is what keeps the iterative answer
    /// honest here.
    #[test]
    fn gth_and_sparse_engine_agree_on_near_reducible_chains(
        seed in 0u64..10_000,
        half in 3usize..20,
        bridge_exp in 1u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let bridge = 10.0_f64.powi(-(bridge_exp as i32));
        let ctmc = near_reducible(&mut rng, half, bridge);
        let dense = stationary_dense_gth(&ctmc).unwrap();
        let report = stationary_sparse(
            &ctmc,
            &SparseSteadyOptions {
                // The stationary error is roughly residual / bridge, so the
                // 1e-9 agreement bar needs a residual near the round-off
                // floor. Sweeps are cheap at this size and the regime
                // converges geometrically at rate ~ 1 - O(bridge).
                tolerance: 1e-15,
                max_sweeps: 2_000_000,
                ..SparseSteadyOptions::default()
            },
        )
        .unwrap();
        let diff = report.pi.max_abs_diff(&dense).unwrap();
        prop_assert!(diff < 1e-9, "bridge {bridge:.0e}: diff {diff:.2e}");
    }
}

/// Fallback-ladder regression on the figure-5 SCV=4 family at N = 80, in
/// two halves.
///
/// Level-less (the bare generator through `Ctmc::new`, so the engine has
/// no coarse step): the documented plain-Gauss–Seidel divergence case
/// (ROADMAP). The GS rung diverges, and the divergence *predictor*
/// (sustained consecutive-growth checks far beyond any benign transient
/// hump) must abandon it within a bounded number of sweeps instead of
/// creeping through the rung's quarter-budget slice. Under this budget the
/// Jacobi rung exhausts its slice too, so the test pins the whole ladder
/// walk: the solve lands on the uniformized-power rung, within a total
/// sweep bound. Measured (release): GS bails at ~3.1k sweeps (predicted
/// divergence at 555× the attempt's best), Jacobi burns its 15k slice,
/// power converges — 48,104 sweeps total. A regressed GS bail that creeps
/// to its full 15k slice would push the total past 60k, well beyond the
/// asserted bound.
///
/// Leveled (the chain as `build_state_space` returns it, one aggregation
/// level per bottleneck queue length and joint phase): the coarse
/// aggregation/disaggregation step at every residual check restores the
/// probability the bursty MAP phases trap, Aitken extrapolation shortens
/// the steady decay that remains inside the levels, and Gauss–Seidel
/// answers in a few hundred sweeps (336 measured, bound one residual check
/// above).
#[test]
fn scv4_ladder_reaches_power_rung_in_bounded_sweeps() {
    use mapqn::core::statespace::build_state_space;
    use mapqn::core::templates::figure5_network;

    let network = figure5_network(80, 4.0, 0.5).unwrap();
    let space = build_state_space(&network, 10_000_000).unwrap();
    let options = SparseSteadyOptions {
        max_sweeps: 60_000,
        ..SparseSteadyOptions::default()
    };
    let target = options.tolerance * space.ctmc().max_exit_rate();

    let level_less = Ctmc::new(space.ctmc().generator().clone()).unwrap();
    assert!(level_less.levels().is_none());
    let report = stationary_sparse(&level_less, &options).unwrap();
    assert_eq!(
        report.used,
        SparsePreconditioner::Power,
        "expected the level-less ladder to retreat to the power rung, got {:?}",
        report.used
    );
    assert!(
        report.sweeps <= 52_000,
        "ladder took {} sweeps (bound 52,000): the GS divergence bail has regressed",
        report.sweeps
    );
    assert!(report.residual <= target);

    assert!(space.ctmc().levels().is_some());
    let leveled = stationary_sparse(space.ctmc(), &options).unwrap();
    assert_eq!(
        leveled.used,
        SparsePreconditioner::GaussSeidel,
        "the leveled chain must be answered by Gauss–Seidel"
    );
    assert!(
        leveled.sweeps <= 352,
        "leveled Gauss–Seidel took {} sweeps (bound 352): the coarse step or Aitken has regressed",
        leveled.sweeps
    );
    assert!(leveled.residual <= target);
    let diff = leveled.pi.max_abs_diff(&report.pi).unwrap();
    assert!(
        diff <= 1e-10,
        "leveled and level-less answers differ by {diff:.2e}"
    );
}

/// Table 1 two-MAP model 8 (generator seed 1) at N = 40: a residual that
/// decays at a steady ratio per check, a mode inside the aggregation levels
/// that the coarse step cannot reach. Aitken extrapolation runs alongside
/// the coarse step and shortens it, so the leveled solve takes no more
/// sweeps than the level-less one did before levels existed (960; 784
/// measured, against 1,008 with Aitken off whenever levels exist).
#[test]
fn aitken_alongside_the_coarse_step_shortens_a_steady_decay() {
    use mapqn::core::random_models::{random_model, RandomModelSpec};
    use mapqn::core::statespace::build_state_space;

    let spec = RandomModelSpec {
        num_map_queues: 2,
        ..RandomModelSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let model = (0..=8)
        .map(|_| random_model(&spec, &mut rng).unwrap())
        .last()
        .unwrap();
    let network = model.network.with_population(40).unwrap();
    let space = build_state_space(&network, 1_000_000).unwrap();
    assert!(space.ctmc().levels().is_some());
    let options = SparseSteadyOptions::default();
    let report = stationary_sparse(space.ctmc(), &options).unwrap();
    assert_eq!(report.used, SparsePreconditioner::GaussSeidel);
    assert!(
        report.sweeps <= 960,
        "leveled Gauss–Seidel took {} sweeps (bound 960)",
        report.sweeps
    );
    assert!(report.residual <= options.tolerance * space.ctmc().max_exit_rate());
}

/// The sparse engine's stationary vector satisfies the residual bound it
/// reports, measured independently.
#[test]
fn reported_residual_is_honest() {
    let mut rng = StdRng::seed_from_u64(42);
    let ctmc = random_ergodic(&mut rng, 200, 400, (0.5, 50.0));
    let report = stationary_sparse(&ctmc, &SparseSteadyOptions::default()).unwrap();
    let measured = stationary_residual(&ctmc, &report.pi).unwrap();
    // The report's residual was measured pre-normalization-cleanup; allow
    // round-off slack.
    assert!(
        measured <= report.residual * 2.0 + 1e-14,
        "measured {measured:.2e} vs reported {:.2e}",
        report.residual
    );
}

//! Cross-solver consistency: the independent solution techniques of the
//! workspace (exact global balance, MVA, decomposition, LP bounds, fluid
//! mean-field, discrete-event simulation) must agree with each other on the
//! models where their assumptions overlap.

use mapqn::core::decomposition::solve_decomposition;
use mapqn::core::mva::{mva_exact, mva_schweitzer};
use mapqn::core::templates::{figure4_tandem, figure5_network, tpcw_network, TpcwParameters};
use mapqn::core::{
    fluid_error_estimate, solve_exact, solve_fluid, ClosedNetwork, MarginalBoundSolver, Service,
    Station, FLUID_BAND_REFERENCE_POPULATION, FLUID_MQL_BAND,
};
use mapqn::linalg::DMatrix;
use mapqn::sim::{simulate, SimulationConfig};

fn exponential_central_server(population: usize) -> ClosedNetwork {
    let routing = DMatrix::from_row_slice(
        3,
        3,
        &[0.1, 0.5, 0.4, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    );
    ClosedNetwork::new(
        vec![
            Station::queue("cpu", Service::exponential(4.0).unwrap()),
            Station::queue("disk-a", Service::exponential(1.8).unwrap()),
            Station::queue("disk-b", Service::exponential(2.2).unwrap()),
        ],
        routing,
        population,
    )
    .unwrap()
}

/// On product-form networks, exact CTMC, MVA and decomposition must coincide
/// and the LP bounds must enclose them.
#[test]
fn exponential_network_all_solvers_agree() {
    let network = exponential_central_server(6);
    let exact = solve_exact(&network).unwrap();
    let mva = mva_exact(&network).unwrap().metrics;
    let decomposed = solve_decomposition(&network).unwrap();
    let approx = mva_schweitzer(&network, 1e-10, 10_000).unwrap();
    let bounds = MarginalBoundSolver::new(&network).unwrap().bound_all().unwrap();

    assert!((exact.system_throughput - mva.system_throughput).abs() < 1e-7);
    assert!((exact.system_throughput - decomposed.system_throughput).abs() < 1e-7);
    assert!(
        (approx.system_throughput - exact.system_throughput).abs() / exact.system_throughput
            < 0.05
    );
    for k in 0..3 {
        assert!((exact.utilization[k] - mva.utilization[k]).abs() < 1e-7);
        assert!(bounds.utilization[k].contains(exact.utilization[k], 1e-5));
        assert!(bounds.throughput[k].contains(exact.throughput[k], 1e-5));
    }
    assert!(bounds
        .system_response_time
        .contains(exact.system_response_time, 1e-5));
}

/// Simulation agrees with the exact solver on a MAP network (statistical
/// tolerance), and the LP bounds contain both.
#[test]
fn simulation_exact_and_bounds_agree_on_map_network() {
    let network = figure5_network(6, 4.0, 0.5).unwrap();
    let exact = solve_exact(&network).unwrap();
    let sim = simulate(
        &network,
        &SimulationConfig {
            total_completions: 400_000,
            warmup_fraction: 0.1,
            seed: 77,
            collect_traces: false,
            max_trace_events: 0,
            cache_overrides: Vec::new(),
        },
    )
    .unwrap();
    let bounds = MarginalBoundSolver::new(&network).unwrap().bound_all().unwrap();

    assert!(
        (sim.metrics.system_throughput - exact.system_throughput).abs()
            / exact.system_throughput
            < 0.03
    );
    for k in 0..3 {
        assert!(
            (sim.metrics.utilization[k] - exact.utilization[k]).abs() < 0.03,
            "station {k}: sim {} vs exact {}",
            sim.metrics.utilization[k],
            exact.utilization[k]
        );
        assert!(bounds.utilization[k].contains(exact.utilization[k], 1e-5));
    }
}

/// Burstiness degrades performance: the autocorrelated tandem has strictly
/// lower throughput than the same tandem with renewal (uncorrelated) service
/// of identical marginal distribution — the effect the paper's whole
/// methodology is about.
#[test]
fn autocorrelation_degrades_throughput_at_fixed_marginal() {
    let population = 12;
    let correlated = figure4_tandem(population, 1.0, 8.0, 0.7, 1.25).unwrap();
    let renewal = figure4_tandem(population, 1.0, 8.0, 0.0, 1.25).unwrap();
    let x_corr = solve_exact(&correlated).unwrap().system_throughput;
    let x_renewal = solve_exact(&renewal).unwrap().system_throughput;
    assert!(
        x_corr < x_renewal * 0.98,
        "correlated {x_corr} should be visibly below renewal {x_renewal}"
    );
}

/// Exact references at populations the dense path never reached: the
/// figure-5 model at `N = 50` has a 2,652-state CTMC — beyond the dense
/// GTH threshold, where the old unpreconditioned power path was the only
/// (impractical) option. The sparse preconditioned engine solves it
/// directly (on this SCV=4 instance via its fallback ladder: plain
/// Gauss–Seidel diverges and the engine retreats to the uniformized power
/// rung), and the LP bounds must bracket every index of the result — the
/// first exact cross-check at populations the bounds have handled since
/// the sweep PRs with nothing to validate against. (Populations of 100+
/// solve exactly in seconds too — the release-scale gates solve two — but
/// *cold* `bound_all` past N≈50 is its own LP-scaling frontier, noted in
/// ROADMAP.md, so this test stays at the largest population both sides
/// handle briskly.)
#[test]
fn lp_bounds_contain_sparse_exact_reference_at_large_population() {
    let population = 50;
    let network = figure5_network(population, 4.0, 0.5).unwrap();
    // 2.6k states: the default options route this to the sparse engine.
    let exact = solve_exact(&network).unwrap();
    assert!((exact.total_jobs() - population as f64).abs() < 1e-6);

    let mut solver = MarginalBoundSolver::new(&network).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert!(
        bounds
            .system_throughput
            .contains(exact.system_throughput, 1e-6),
        "throughput {} outside [{}, {}]",
        exact.system_throughput,
        bounds.system_throughput.lower,
        bounds.system_throughput.upper
    );
    for k in 0..3 {
        assert!(
            bounds.utilization[k].contains(exact.utilization[k], 1e-6),
            "station {k} utilization"
        );
        assert!(
            bounds.throughput[k].contains(exact.throughput[k], 1e-6),
            "station {k} throughput"
        );
        assert!(
            bounds.mean_queue_length[k].contains(exact.mean_queue_length[k], 1e-6),
            "station {k} mean queue length"
        );
    }
    assert!(bounds
        .system_response_time
        .contains(exact.system_response_time, 1e-6));
    assert!(!bounds.diagnostics.degraded());
}

/// The fluid tier against the exact reference at every feasible population
/// (debug-build budget: state spaces up to ~10^4). Three families, three
/// claims:
///
/// * on the post-knee families (fig-5/SCV=4 and fig-8/SCV=16, whose knee
///   `N* = sum D / D_max` sits at ~2 jobs) the population-normalized
///   mean-queue-length gap `max_k |q_fluid - q_exact| / N` shrinks
///   **strictly monotonically** in `N` — the 1/N decay of the mean-field
///   limit, measured rather than assumed;
/// * on every family — including TPC-W, which is still *below* its knee
///   (`N* ≈ 224` at the default think time) in the exactly-solvable range,
///   so its gap legitimately grows toward the knee — the measured gap stays
///   inside the band the [`mapqn::core::solve`] router would quote for that
///   population ([`fluid_error_estimate`]);
/// * at the reference population the binding family's gap sits inside the
///   documented band constant [`FLUID_MQL_BAND`] the router extrapolates
///   from — the same measurement the release-scale gates in
///   `crates/bench/tests/release_gates.rs` take on the fig-5/SCV=4 family.
#[test]
fn fluid_band_shrinks_post_knee_and_stays_inside_the_quoted_band() {
    fn fig5_scv4(n: usize) -> ClosedNetwork {
        figure5_network(n, 4.0, 0.5).unwrap()
    }
    fn fig8_scv16(n: usize) -> ClosedNetwork {
        figure5_network(n, 16.0, 0.5).unwrap()
    }
    fn tpcw(n: usize) -> ClosedNetwork {
        tpcw_network(&TpcwParameters {
            browsers: n,
            ..TpcwParameters::default()
        })
        .unwrap()
    }
    struct FamilyCase {
        name: &'static str,
        build: fn(usize) -> ClosedNetwork,
        grid: &'static [usize],
        post_knee: bool,
    }
    // Grids stop where the debug-build exact reference stays brisk; the
    // release-scale continuation (fig-8 out to N = 144 where its band
    // crosses 5%) lives in `crates/bench/tests/release_gates.rs`.
    let families = [
        FamilyCase {
            name: "fig5_scv4",
            build: fig5_scv4,
            grid: &[12, 24, 48],
            post_knee: true,
        },
        FamilyCase {
            name: "fig8_scv16",
            build: fig8_scv16,
            grid: &[12, 24, 48, FLUID_BAND_REFERENCE_POPULATION],
            post_knee: true,
        },
        FamilyCase {
            name: "tpcw",
            build: tpcw,
            grid: &[12, 24, 48, FLUID_BAND_REFERENCE_POPULATION],
            post_knee: false,
        },
    ];

    for family in &families {
        let mut errors = Vec::new();
        for &n in family.grid {
            let network = (family.build)(n);
            let exact = solve_exact(&network).unwrap();
            let fluid = solve_fluid(&network).unwrap();
            let err = exact
                .mean_queue_length
                .iter()
                .zip(&fluid.metrics.mean_queue_length)
                .map(|(qe, qf)| (qe - qf).abs() / n as f64)
                .fold(0.0f64, f64::max);
            // The gap must sit inside the band the router quotes at this
            // population.
            let quoted = fluid_error_estimate(n);
            assert!(
                err <= quoted,
                "{} at N = {n}: measured fluid gap {err:.4} outside the quoted band {quoted:.4}",
                family.name
            );
            errors.push(err);
        }
        if family.post_knee {
            for pair in errors.windows(2) {
                assert!(
                    pair[1] < pair[0],
                    "{}: fluid gap must shrink monotonically past the knee, got {errors:?}",
                    family.name
                );
            }
        }
        if *family.grid.last().unwrap() == FLUID_BAND_REFERENCE_POPULATION {
            let at_ref = *errors.last().unwrap();
            assert!(
                at_ref <= FLUID_MQL_BAND,
                "{} at the reference population: gap {at_ref:.4} outside the documented band {FLUID_MQL_BAND}",
                family.name
            );
        }
    }
}

/// The TPC-W template is solvable end to end by simulation and by MVA when
/// the front server is exponential, and the two agree.
#[test]
fn tpcw_exponential_model_simulation_matches_mva() {
    let params = TpcwParameters {
        browsers: 24,
        front_scv: 1.0,
        front_acf_decay: 0.0,
        ..TpcwParameters::default()
    };
    let network = tpcw_network(&params).unwrap();
    let mva = mva_exact(&network).unwrap().metrics;
    let sim = simulate(
        &network,
        &SimulationConfig {
            total_completions: 300_000,
            warmup_fraction: 0.1,
            seed: 5,
            collect_traces: false,
            max_trace_events: 0,
            cache_overrides: Vec::new(),
        },
    )
    .unwrap();
    assert!(
        (sim.metrics.system_throughput - mva.system_throughput).abs() / mva.system_throughput
            < 0.03
    );
    assert!((sim.metrics.utilization[1] - mva.utilization[1]).abs() < 0.03);
    assert!((sim.metrics.utilization[2] - mva.utilization[2]).abs() < 0.03);
}

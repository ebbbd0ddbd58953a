//! Quickstart: build a small MAP queueing network, solve it exactly and
//! bracket its performance with the LP bounds.
//!
//! Run with `cargo run --release --example quickstart`.

use mapqn::core::{
    solve_exact, ClosedNetwork, MarginalBoundSolver, PerformanceIndex, PopulationSweep, Service,
    Station,
};
use mapqn::linalg::DMatrix;
use mapqn::stochastic::{fit_map2, Map2FitSpec};

fn main() {
    // 1. Describe the service processes. The disk has a bursty service
    //    process: mean 1.0, squared coefficient of variation 4, and an
    //    autocorrelation function that decays geometrically at rate 0.5 —
    //    consecutive slow requests tend to come in runs.
    let disk_service = fit_map2(&Map2FitSpec::new(1.0, 4.0, 0.5))
        .expect("feasible MAP(2) fit")
        .map;
    println!(
        "Fitted disk MAP(2): mean = {:.3}, SCV = {:.3}, lag-1 ACF = {:.3}",
        disk_service.mean().unwrap(),
        disk_service.scv().unwrap(),
        disk_service.autocorrelation(1).unwrap()
    );

    // 2. Build a closed network: 8 jobs circulate between a CPU queue and
    //    the bursty disk queue.
    let network = ClosedNetwork::new(
        vec![
            Station::queue("cpu", Service::exponential(1.5).unwrap()),
            Station::queue("disk", Service::map(disk_service)),
        ],
        DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]),
        8,
    )
    .expect("valid network");

    // 3. Solve the underlying Markov chain exactly (feasible here because
    //    the model is small) ...
    let exact = solve_exact(&network).expect("exact solution");
    println!("\nExact solution (global balance):");
    println!("  system throughput = {:.4} jobs/s", exact.system_throughput);
    println!("  system response   = {:.4} s", exact.system_response_time);
    for (k, station) in network.stations().iter().enumerate() {
        println!(
            "  {:<5} utilization = {:.3}, mean queue length = {:.3}",
            station.name, exact.utilization[k], exact.mean_queue_length[k]
        );
    }

    // 4. ... and bracket the same quantities with the paper's LP bounds,
    //    which stay tractable when the exact solution does not.
    let mut solver = MarginalBoundSolver::new(&network).expect("bound solver");
    println!(
        "\nLP bound problem size: {} variables, {} constraints",
        solver.num_variables(),
        solver.num_constraints()
    );
    let throughput = solver.bound(PerformanceIndex::SystemThroughput).unwrap();
    let disk_util = solver.bound(PerformanceIndex::Utilization(1)).unwrap();
    let response = solver.response_time_bounds().unwrap();
    println!(
        "  throughput  in [{:.4}, {:.4}]  (exact {:.4})",
        throughput.lower, throughput.upper, exact.system_throughput
    );
    println!(
        "  disk util.  in [{:.4}, {:.4}]  (exact {:.4})",
        disk_util.lower, disk_util.upper, exact.utilization[1]
    );
    println!(
        "  response    in [{:.4}, {:.4}]  (exact {:.4})",
        response.lower, response.upper, exact.system_response_time
    );

    assert!(throughput.contains(exact.system_throughput, 1e-6));
    assert!(disk_util.contains(exact.utilization[1], 1e-6));
    assert!(response.contains(exact.system_response_time, 1e-6));
    println!("\nAll exact values fall inside the bounds, as the theory guarantees.");

    // 5. Scenario families: the same model across a whole range of
    //    populations ("what if we admit more jobs?"). A PopulationSweep
    //    carries each objective's optimal basis from one population to the
    //    next and re-solves it with the dual simplex, instead of starting
    //    every population from scratch.
    println!("\nPopulation sweep (dual-simplex warm starts across N):");
    let mut sweep = PopulationSweep::new(&network).expect("sweep");
    for population in [2usize, 4, 8, 12, 16] {
        let bounds = sweep.bounds_at(population).expect("sweep bounds");
        println!(
            "  N = {population:>2}: throughput in [{:.4}, {:.4}], response in [{:.4}, {:.4}] s",
            bounds.system_throughput.lower,
            bounds.system_throughput.upper,
            bounds.system_response_time.lower,
            bounds.system_response_time.upper
        );
    }
    let stats = sweep.stats();
    println!(
        "  warm starts: {} dual, {} repaired",
        stats.dual_warm_objectives, stats.repair_warm_objectives
    );
}

//! The paper's Section 3.2 case study: LP bounds versus the exact solution
//! for the three-queue network of Figure 5 as the population grows — driven
//! by a [`PopulationSweep`], which dual-warm-starts every population's bound
//! LPs from the previous population's optimal bases instead of solving each
//! one cold.
//!
//! Run with `cargo run --release --example case_study_bounds`.

use mapqn::core::bounds::PopulationSweep;
use mapqn::core::solve_exact;
use mapqn::core::templates::figure5_network;

fn main() {
    // CV = 4 (SCV = 16), geometric ACF decay rate 0.5, routing (0.2, 0.7, 0.1).
    let scv = 16.0;
    let gamma2 = 0.5;

    println!("Case study (paper Figure 8): bottleneck utilization and response-time bounds");
    println!(
        "{:>4}  {:>10} {:>10} {:>10}   {:>10} {:>10} {:>10}",
        "N", "U3 lower", "U3 exact", "U3 upper", "R lower", "R exact", "R upper"
    );

    let network = figure5_network(1, scv, gamma2).expect("network");
    let mut sweep = PopulationSweep::new(&network).expect("bound sweep");
    for population in [5usize, 10, 20, 30] {
        let exact = solve_exact(&network.with_population(population).expect("population"))
            .expect("exact solution");
        let bounds = sweep.bounds_at(population).expect("sweep bounds");
        let u3 = bounds.utilization[2];
        let r = bounds.system_response_time;

        println!(
            "{:>4}  {:>10.4} {:>10.4} {:>10.4}   {:>10.3} {:>10.3} {:>10.3}",
            population,
            u3.lower,
            exact.utilization[2],
            u3.upper,
            r.lower,
            exact.system_response_time,
            r.upper
        );
        assert!(u3.contains(exact.utilization[2], 1e-6));
        assert!(r.contains(exact.system_response_time, 1e-6));
    }

    let stats = sweep.stats();
    println!();
    println!(
        "sweep warm starts: {} dual, {} repaired, {} rejections",
        stats.dual_warm_objectives, stats.repair_warm_objectives, stats.dual_seed_rejections
    );
    println!("The exact values always fall between the bounds, and the bounds tighten towards the");
    println!("asymptotic regime as the population grows — the behaviour shown in Figure 8 of the paper.");
}

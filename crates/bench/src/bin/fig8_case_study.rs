//! Figure 8: case-study accuracy of the LP bounds.
//!
//! Reproduces the two panels of the paper's Figure 8 for the three-queue
//! example of Figure 5 (routing p11 = 0.2, p12 = 0.7, p13 = 0.1, MAP queue 3
//! with CV = 4 and geometric autocorrelation decay rate 0.5): utilization of
//! the bottleneck queue 3 and system response time, exact versus the LP
//! lower/upper bounds, as the job population grows.
//!
//! The population axis is exactly the workload [`PopulationSweep`] exists
//! for, so the whole figure is produced by one sweep: each population's
//! bound LPs are dual-warm-started from the previous population's optimal
//! bases instead of being solved cold.

use mapqn_bench::{Scale, Table};
use mapqn_core::bounds::PopulationSweep;
use mapqn_core::templates::figure5_network;
use mapqn_core::solve_exact;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    // CV = 4 means SCV = 16.
    let scv = 16.0;
    let gamma2 = 0.5;
    let populations: Vec<usize> = scale.pick(
        vec![5, 10, 20, 30, 40, 60],
        vec![5, 10, 20, 40, 60, 80, 100, 120, 140, 160, 180, 200],
    );

    println!("Figure 8 reproduction: case study of the Figure 5 network");
    println!("MAP queue 3: CV = 4 (SCV = {scv}), gamma2 = {gamma2}; routing p = (0.2, 0.7, 0.1)");
    println!();

    let mut util_table = Table::new(&["N", "exact U3", "LP lower U3", "LP upper U3", "max rel err"]);
    let mut resp_table = Table::new(&["N", "exact R", "LP lower R", "LP upper R", "max rel err"]);

    let network = figure5_network(1, scv, gamma2).expect("network construction");
    let mut sweep = PopulationSweep::new(&network).expect("bound sweep");
    let start = Instant::now();
    for &n in &populations {
        let exact = solve_exact(&network.with_population(n).expect("population"))
            .expect("exact solution");
        let bounds = sweep.bounds_at(n).expect("population-sweep bounds");

        let u3 = bounds.utilization[2];
        let r = bounds.system_response_time;
        util_table.add_row(vec![
            n.to_string(),
            format!("{:.6}", exact.utilization[2]),
            format!("{:.6}", u3.lower),
            format!("{:.6}", u3.upper),
            format!("{:.4}", u3.max_relative_error(exact.utilization[2])),
        ]);
        resp_table.add_row(vec![
            n.to_string(),
            format!("{:.6}", exact.system_response_time),
            format!("{:.6}", r.lower),
            format!("{:.6}", r.upper),
            format!("{:.4}", r.max_relative_error(exact.system_response_time)),
        ]);
        assert!(
            u3.contains(exact.utilization[2], 1e-6),
            "N={n}: exact bottleneck utilization escaped the bounds"
        );
        assert!(
            r.contains(exact.system_response_time, 1e-6),
            "N={n}: exact response time escaped the bounds"
        );
    }
    let sweep_ms = start.elapsed().as_secs_f64() * 1e3;

    println!("(a) Bottleneck queue 3 utilization");
    util_table.print();
    println!();
    println!("(b) System response time");
    resp_table.print();
    println!();
    let stats = sweep.stats();
    println!(
        "sweep: {} populations in {sweep_ms:.0}ms (LP solves incl. exact reference), {} dual-warm + {} repair-warm objectives",
        stats.populations, stats.dual_warm_objectives, stats.repair_warm_objectives
    );
    println!(
        "Expected shape (paper, Figure 8): both bounds hug the exact curve over the whole population range"
    );
    println!("and converge to the exact asymptote as N grows.");
}

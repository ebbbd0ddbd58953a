//! LP-engine speedup harness: times `bound_all()` on the Table 1
//! random-model kernel with the cold dense tableau vs the warm-started
//! revised simplex, verifies both engines produce the same bound intervals,
//! and records the measurements in `BENCH_lp.json` so future PRs have a
//! perf trajectory.
//!
//! Also sweeps the Figure 5 template across populations twice — from
//! scratch, and seeding each population's solver with the previous
//! population's translated basis — to measure what cross-`N` basis reuse
//! buys.
//!
//! A **large-N cold profile** section times cold `bound_all()` on the
//! Figure 8 case study (SCV=16) near the top of the range the cold path
//! can still finish, split by solver phase (`SolverTimings`: constraint
//! build, phase 1, primal pivoting, …). This is the instrumentation the
//! ROADMAP's "profile cold `bound_all` at N > 50" item asked for; the
//! recorded numbers locate the hotspot (see ROADMAP.md) — the *fix* is
//! deliberately out of scope here.
//!
//! Run with `cargo run --release -p mapqn-bench --bin bench_lp`.
//! `MAPQN_SCALE=full` enlarges the experiment.

use mapqn_bench::{Scale, Table};
use mapqn_core::bounds::{BoundOptions, NetworkBounds, SolverTimings};
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::templates::figure5_network;
use mapqn_core::MarginalBoundSolver;
use mapqn_linalg::SolveBudget;
use mapqn_lp::{SimplexEngine, SimplexOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn dense_options() -> BoundOptions {
    BoundOptions {
        simplex: SimplexOptions {
            engine: SimplexEngine::DenseTableau,
            ..SimplexOptions::default()
        },
        ..BoundOptions::default()
    }
}

/// Worst scaled differences between the two engines' bound intervals,
/// split into (throughput+utilization, mean-queue-length). The split is
/// historical: the MQL gate used to be 1e-2 because the engine's retained
/// RHS perturbation shifted MQL optima by `y^T delta` with dual prices
/// ~1e5. The certified objective (evaluated through the dual vector
/// against the true right-hand side) removed that shift, so both gates now
/// sit at 1e-6; the split is kept so a regression report names the family.
fn max_interval_diffs(a: &NetworkBounds, b: &NetworkBounds) -> (f64, f64) {
    let scaled = |x: f64, y: f64| (x - y).abs() / (1.0 + x.abs().max(y.abs()));
    let mut worst_tu = 0.0f64;
    let mut worst_mql = 0.0f64;
    for k in 0..a.throughput.len() {
        worst_tu = worst_tu
            .max(scaled(a.throughput[k].lower, b.throughput[k].lower))
            .max(scaled(a.throughput[k].upper, b.throughput[k].upper))
            .max(scaled(a.utilization[k].lower, b.utilization[k].lower))
            .max(scaled(a.utilization[k].upper, b.utilization[k].upper));
        worst_mql = worst_mql
            .max(scaled(a.mean_queue_length[k].lower, b.mean_queue_length[k].lower))
            .max(scaled(a.mean_queue_length[k].upper, b.mean_queue_length[k].upper));
    }
    (worst_tu, worst_mql)
}

/// Wall time per simplex iteration of the primal and dual solves, in µs —
/// the same definition as the benchmark's `lp.us_per_pivot`, so the
/// LU/eta solve kernel shows up per pivot rather than per answer.
fn us_per_pivot(timings: &SolverTimings) -> f64 {
    let pivots = timings.primal_pivots + timings.dual_pivots;
    if pivots == 0 {
        return 0.0;
    }
    (timings.primal_ns + timings.dual_ns) as f64 / 1e3 / pivots as f64
}

struct Case {
    model: usize,
    population: usize,
    cold_dense_ms: f64,
    warm_revised_ms: f64,
    us_per_pivot: f64,
    speedup: f64,
    max_diff_thr_util: f64,
    max_diff_mql: f64,
}

fn main() {
    let scale = Scale::from_env();
    let num_models = scale.pick(3, 10);
    let populations: &[usize] = scale.pick(&[4usize, 6][..], &[4usize, 6, 8][..]);

    let spec = RandomModelSpec {
        num_map_queues: 2,
        ..RandomModelSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(1);

    println!("LP engine comparison on the Table 1 random-model kernel");
    println!("(cold dense tableau vs warm-started revised simplex)\n");
    let mut table = Table::new(&[
        "model", "N", "dense ms", "revised ms", "us/pivot", "speedup", "diff t/u", "diff mql",
    ]);
    let mut cases: Vec<Case> = Vec::new();

    for model_idx in 0..num_models {
        let model = random_model(&spec, &mut rng).expect("random model");
        for &n in populations {
            let network = model.network.with_population(n).expect("population");

            let start = Instant::now();
            let mut dense_solver =
                MarginalBoundSolver::with_options(&network, dense_options()).expect("solver");
            let dense_bounds = dense_solver.bound_all().expect("dense bound_all");
            let cold_dense_ms = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let mut revised_solver = MarginalBoundSolver::new(&network).expect("solver");
            let revised_bounds = revised_solver.bound_all().expect("revised bound_all");
            let warm_revised_ms = start.elapsed().as_secs_f64() * 1e3;
            let us_per_pivot = us_per_pivot(&revised_solver.timings());

            let (diff_tu, diff_mql) = max_interval_diffs(&dense_bounds, &revised_bounds);
            let speedup = cold_dense_ms / warm_revised_ms;
            table.add_row(vec![
                model_idx.to_string(),
                n.to_string(),
                format!("{cold_dense_ms:.2}"),
                format!("{warm_revised_ms:.2}"),
                format!("{us_per_pivot:.1}"),
                format!("{speedup:.1}x"),
                format!("{diff_tu:.2e}"),
                format!("{diff_mql:.2e}"),
            ]);
            cases.push(Case {
                model: model_idx,
                population: n,
                cold_dense_ms,
                warm_revised_ms,
                us_per_pivot,
                speedup,
                max_diff_thr_util: diff_tu,
                max_diff_mql: diff_mql,
            });
        }
    }
    table.print();

    let geomean_speedup = (cases.iter().map(|c| c.speedup.ln()).sum::<f64>()
        / cases.len() as f64)
        .exp();
    let worst_diff_tu = cases
        .iter()
        .map(|c| c.max_diff_thr_util)
        .fold(0.0f64, f64::max);
    let worst_diff_mql = cases.iter().map(|c| c.max_diff_mql).fold(0.0f64, f64::max);
    let all_match = worst_diff_tu <= 1e-6 && worst_diff_mql <= 1e-6;
    println!("\ngeometric-mean speedup: {geomean_speedup:.1}x");
    println!(
        "worst interval difference: thr/util {worst_diff_tu:.2e}, mql {worst_diff_mql:.2e} (gate 1e-6 for both): {all_match}"
    );
    println!(
        "speedup >= 3x on every case: {}",
        cases.iter().all(|c| c.speedup >= 3.0)
    );

    // Population sweep on the Figure 5 template: cold every N vs seeding
    // each solver with the previous population's translated basis.
    let sweep_populations: Vec<usize> = scale.pick((2..=8).collect(), (2..=16).collect());
    let mut sweep_cold_ms = Vec::new();
    let mut sweep_seeded_ms = Vec::new();
    let mut previous: Option<MarginalBoundSolver> = None;
    for &n in &sweep_populations {
        let network = figure5_network(n, 4.0, 0.5).expect("figure5 network");

        let start = Instant::now();
        let mut cold = MarginalBoundSolver::new(&network).expect("solver");
        cold.bound_all().expect("bound_all");
        sweep_cold_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let mut seeded = MarginalBoundSolver::new(&network).expect("solver");
        if let Some(prev) = previous.as_ref() {
            if let Some(basis) = prev.translate_basis_to(&seeded) {
                seeded.seed_basis(basis).expect("seed basis");
            }
        }
        seeded.bound_all().expect("bound_all");
        sweep_seeded_ms.push(start.elapsed().as_secs_f64() * 1e3);
        previous = Some(seeded);
    }
    println!("\nFigure 5 population sweep (revised engine, ms per bound_all):");
    let mut sweep_table = Table::new(&["N", "cold", "seeded from N-1"]);
    for (i, &n) in sweep_populations.iter().enumerate() {
        sweep_table.add_row(vec![
            n.to_string(),
            format!("{:.2}", sweep_cold_ms[i]),
            format!("{:.2}", sweep_seeded_ms[i]),
        ]);
    }
    sweep_table.print();

    // Large-N cold profile on the Figure 8 case study (SCV=16): per-phase
    // wall-clock of a cold bound_all near the top of the cold-solvable
    // range. The cold path breaks down sharply just above it — at N = 50
    // the revised engine historically gave up and the dense oracle cycled
    // into its 500k-iteration limit — so the profiled points stay below
    // the cliff; the cliff itself is exercised by the always-answer gate
    // below, which budgets the solve and lets the degradation ladder
    // answer it.
    let profile_populations = [40usize, 44, 48];
    struct ColdProfile {
        population: usize,
        total_ms: f64,
        setup_ms: f64,
        phase1_ms: f64,
        primal_ms: f64,
        primal_pivots: u64,
        us_per_pivot: f64,
        /// Whether the cold solve needed the degradation ladder.
        degraded: bool,
    }
    let mut profiles: Vec<ColdProfile> = Vec::new();
    println!("\nFigure 8 case study (SCV=16): cold bound_all per-phase profile:");
    let mut profile_table = Table::new(&[
        "N", "total ms", "setup ms", "phase1 ms", "primal ms", "pivots", "us/pivot", "degraded",
    ]);
    for &n in &profile_populations {
        let network = figure5_network(n, 16.0, 0.5).expect("figure8 network");
        let start = Instant::now();
        let mut solver = MarginalBoundSolver::new(&network).expect("solver");
        let bounds = solver.bound_all().expect("cold bound_all");
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let timings = solver.timings();
        let profile = ColdProfile {
            population: n,
            total_ms,
            setup_ms: timings.setup_ns as f64 / 1e6,
            phase1_ms: timings.phase1_ns as f64 / 1e6,
            primal_ms: timings.primal_ns as f64 / 1e6,
            primal_pivots: timings.primal_pivots,
            us_per_pivot: us_per_pivot(&timings),
            degraded: bounds.diagnostics.degraded(),
        };
        profile_table.add_row(vec![
            n.to_string(),
            format!("{:.1}", profile.total_ms),
            format!("{:.1}", profile.setup_ms),
            format!("{:.1}", profile.phase1_ms),
            format!("{:.1}", profile.primal_ms),
            profile.primal_pivots.to_string(),
            format!("{:.1}", profile.us_per_pivot),
            profile.degraded.to_string(),
        ]);
        profiles.push(profile);
    }
    profile_table.print();
    let profile_degraded = profiles.iter().filter(|p| p.degraded).count();

    // Always-answer gate at the breakdown cliff: cold bound_all at N = 50 —
    // the population where the revised engine historically gave up and the
    // dense oracle cycled for minutes — must now come back within a 30 s
    // budget with valid, quality-tagged bounds (degradation ladder), never
    // an error. This is the acceptance gate for the robustness layer.
    let cliff_population = 50;
    let cliff_budget = std::time::Duration::from_secs(30);
    let network = figure5_network(cliff_population, 16.0, 0.5).expect("figure8 network");
    let options = BoundOptions {
        budget: SolveBudget::wall_clock(cliff_budget),
        ..BoundOptions::default()
    };
    let start = Instant::now();
    let cliff_outcome =
        MarginalBoundSolver::with_options(&network, options).and_then(|mut s| s.bound_all());
    let cliff_ms = start.elapsed().as_secs_f64() * 1e3;
    let (cliff_ok, cliff_quality, cliff_degraded) = match &cliff_outcome {
        Ok(bounds) => {
            let finite = bounds.system_throughput.lower.is_finite()
                && bounds.system_throughput.upper.is_finite()
                && bounds.system_throughput.lower <= bounds.system_throughput.upper
                && bounds.system_throughput.upper > 0.0;
            (
                finite,
                bounds.quality.to_string(),
                bounds.diagnostics.degraded(),
            )
        }
        Err(e) => {
            eprintln!("fig8 N={cliff_population} cold bound_all errored: {e}");
            (false, "error".to_string(), false)
        }
    };
    println!(
        "\nFigure 8 N={cliff_population} always-answer gate: {} in {:.1} ms \
         (quality: {cliff_quality}, degraded: {cliff_degraded}, budget {:.0} s)",
        if cliff_ok { "answered" } else { "FAILED" },
        cliff_ms,
        cliff_budget.as_secs_f64()
    );

    // Emit BENCH_lp.json (hand-rolled JSON; no serde in the offline set).
    let mut json = String::from("{\n");
    json.push_str("  \"kernel\": \"table1_random_models_bound_all\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": {}, \"population\": {}, \"cold_dense_ms\": {:.3}, \"warm_revised_ms\": {:.3}, \"us_per_pivot\": {:.2}, \"speedup\": {:.2}, \"max_diff_thr_util\": {:.3e}, \"max_diff_mql\": {:.3e}}}{}\n",
            c.model,
            c.population,
            c.cold_dense_ms,
            c.warm_revised_ms,
            c.us_per_pivot,
            c.speedup,
            c.max_diff_thr_util,
            c.max_diff_mql,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"geomean_speedup\": {geomean_speedup:.2},\n  \"worst_diff_thr_util\": {worst_diff_tu:.3e},\n  \"worst_diff_mql\": {worst_diff_mql:.3e},\n  \"intervals_match\": {all_match},\n"
    ));
    json.push_str("  \"figure5_sweep\": {\n    \"populations\": [");
    json.push_str(
        &sweep_populations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("],\n    \"cold_ms\": [");
    json.push_str(
        &sweep_cold_ms
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("],\n    \"seeded_ms\": [");
    json.push_str(
        &sweep_seeded_ms
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("]\n  },\n");
    json.push_str("  \"fig8_cold_profile\": [\n");
    for (i, p) in profiles.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"population\": {}, \"total_ms\": {:.3}, \"setup_ms\": {:.3}, \"phase1_ms\": {:.3}, \"primal_ms\": {:.3}, \"primal_pivots\": {}, \"us_per_pivot\": {:.2}, \"degraded\": {}}}{}\n",
            p.population,
            p.total_ms,
            p.setup_ms,
            p.phase1_ms,
            p.primal_ms,
            p.primal_pivots,
            p.us_per_pivot,
            p.degraded,
            if i + 1 < profiles.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"fig8_always_answer\": {{\"population\": {cliff_population}, \"budget_s\": {:.0}, \"elapsed_ms\": {cliff_ms:.3}, \"quality\": \"{cliff_quality}\", \"degraded\": {cliff_degraded}, \"answered\": {cliff_ok}}}\n",
        cliff_budget.as_secs_f64()
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_lp.json", &json).expect("write BENCH_lp.json");
    println!("\nwrote BENCH_lp.json");

    // Make the acceptance gates real: CI runs this binary, and a silent
    // regression of the interval-equivalence or the headline speedup must
    // turn the build red, not just print `false`.
    if !all_match {
        eprintln!("FAIL: bound intervals diverge from the dense oracle (gate 1e-6)");
        std::process::exit(1);
    }
    // Wall-clock ratios wobble on shared CI runners, so the timing gate
    // only hard-fails on a catastrophic regression; the 3x acceptance bar
    // itself is reported above and recorded in BENCH_lp.json.
    if geomean_speedup < 1.5 {
        eprintln!("FAIL: geometric-mean speedup {geomean_speedup:.2}x collapsed (< 1.5x)");
        std::process::exit(1);
    }
    if geomean_speedup < 3.0 {
        eprintln!("WARN: geometric-mean speedup {geomean_speedup:.2}x below the 3x acceptance bar (noisy runner?)");
    }
    // The large-N cold profile is instrumentation, not a perf gate — but a
    // degraded answer inside it would mean the cold path's breakdown cliff
    // moved below the profiled range, which must turn the build red.
    if profile_degraded > 0 {
        eprintln!(
            "FAIL: {profile_degraded} degraded cold solves in the fig8 profile (cold breakdown moved below the profiled N range)"
        );
        std::process::exit(1);
    }
    // Always-answer acceptance gate: N = 50 answers within the budget with
    // a tagged quality — never an error, never a hang.
    if !cliff_ok {
        eprintln!(
            "FAIL: fig8 N={cliff_population} cold bound_all did not produce valid bounds within the {:.0} s budget",
            cliff_budget.as_secs_f64()
        );
        std::process::exit(1);
    }
    if cliff_ms > cliff_budget.as_secs_f64() * 1e3 * 1.5 {
        eprintln!(
            "FAIL: fig8 N={cliff_population} cold bound_all overran its budget ({cliff_ms:.0} ms against {:.0} s + slack)",
            cliff_budget.as_secs_f64()
        );
        std::process::exit(1);
    }
}

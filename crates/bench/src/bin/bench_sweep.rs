//! Population-sweep harness: times `bound_all()` across a growing
//! population — cold per `N` (a fresh solver every population, the natural
//! baseline) versus [`PopulationSweep`] (dual-simplex warm starts carrying
//! each objective's basis across populations) — on the two workloads the
//! paper evaluates this way: the Table 1 random-model kernel and the SCV=16
//! case study of Figure 8. Records the measurements in `BENCH_sweep.json`
//! so future PRs have a perf trajectory.
//!
//! Correctness gates travel with the timing gates: on populations small
//! enough for the dense tableau to finish, every sweep interval must match
//! the dense oracle within 1e-6 — including the mean-queue-length bounds,
//! whose certified objective closed the old ~1e-2 perturbation shift — and
//! on every population the sweep must match an independent revised-engine
//! solve. The sweep must also never fall back to the dense oracle.
//!
//! Run with `cargo run --release -p mapqn-bench --bin bench_sweep`.
//! `MAPQN_SCALE=full` enlarges the experiment.

use mapqn_bench::{Scale, Table};
use mapqn_core::bounds::{BoundOptions, NetworkBounds, PopulationSweep};
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::templates::figure5_network;
use mapqn_core::{ClosedNetwork, MarginalBoundSolver};
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

/// Worst scaled difference between two interval sets, across every index
/// and both endpoints (one gate now covers mean queue lengths too).
fn max_interval_diff(a: &NetworkBounds, b: &NetworkBounds) -> f64 {
    let scaled = |x: f64, y: f64| (x - y).abs() / (1.0 + x.abs().max(y.abs()));
    let mut worst = 0.0f64;
    for k in 0..a.throughput.len() {
        for (ia, ib) in [
            (&a.throughput[k], &b.throughput[k]),
            (&a.utilization[k], &b.utilization[k]),
            (&a.mean_queue_length[k], &b.mean_queue_length[k]),
        ] {
            worst = worst
                .max(scaled(ia.lower, ib.lower))
                .max(scaled(ia.upper, ib.upper));
        }
    }
    worst
        .max(scaled(a.system_throughput.lower, b.system_throughput.lower))
        .max(scaled(a.system_throughput.upper, b.system_throughput.upper))
}

struct KernelResult {
    name: String,
    populations: Vec<usize>,
    cold_ms: f64,
    sweep_ms: f64,
    speedup: f64,
    worst_diff_oracle: f64,
    oracle_checked_up_to: usize,
    worst_diff_revised: f64,
    dual_warm_objectives: usize,
    dual_seed_rejections: usize,
    /// Cold and swept answers that needed a ladder rung past direct.
    degraded_answers: usize,
}

/// Runs one sweep kernel: `network` instantiated at every population in
/// `populations`, cold versus swept, with interval validation against an
/// independent revised solve everywhere and against the dense oracle up to
/// `oracle_limit`.
fn run_kernel(
    name: &str,
    network: &ClosedNetwork,
    populations: &[usize],
    oracle_limit: usize,
) -> KernelResult {
    // Cold per N: fresh solver + bound_all, nothing carried. Also keep the
    // per-population results for the sweep's validation below.
    let mut cold_results = Vec::with_capacity(populations.len());
    let start = Instant::now();
    for &n in populations {
        let net = network.with_population(n).expect("population");
        let mut solver = MarginalBoundSolver::new(&net).expect("solver");
        cold_results.push(solver.bound_all().expect("cold bound_all"));
    }
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut sweep = PopulationSweep::new(network).expect("sweep");
    let mut sweep_results = Vec::with_capacity(populations.len());
    let start = Instant::now();
    for &n in populations {
        sweep_results.push(sweep.bounds_at(n).expect("sweep bound_all"));
    }
    let sweep_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut worst_diff_revised = 0.0f64;
    for (swept, cold) in sweep_results.iter().zip(cold_results.iter()) {
        worst_diff_revised = worst_diff_revised.max(max_interval_diff(swept, cold));
    }

    let mut worst_diff_oracle = 0.0f64;
    let mut oracle_checked_up_to = 0usize;
    for (swept, &n) in sweep_results.iter().zip(populations.iter()) {
        if n > oracle_limit {
            continue;
        }
        let net = network.with_population(n).expect("population");
        let oracle = MarginalBoundSolver::with_options(&net, dense_options())
            .expect("oracle solver")
            .bound_all()
            .expect("oracle bound_all");
        worst_diff_oracle = worst_diff_oracle.max(max_interval_diff(swept, &oracle));
        oracle_checked_up_to = oracle_checked_up_to.max(n);
    }

    let stats = sweep.stats();
    KernelResult {
        name: name.to_string(),
        populations: populations.to_vec(),
        cold_ms,
        sweep_ms,
        speedup: cold_ms / sweep_ms,
        worst_diff_oracle,
        oracle_checked_up_to,
        worst_diff_revised,
        dual_warm_objectives: stats.dual_warm_objectives,
        dual_seed_rejections: stats.dual_seed_rejections,
        degraded_answers: sweep_results
            .iter()
            .chain(&cold_results)
            .filter(|b| b.diagnostics.degraded())
            .count(),
    }
}

fn main() {
    let scale = Scale::from_env();

    println!("Population-sweep benchmark: cold-per-N bound_all vs dual-warm PopulationSweep\n");

    let mut kernels: Vec<KernelResult> = Vec::new();

    // Kernel 1: the Table 1 random-model generator (three queues, two of
    // them MAP), swept across populations. The dense oracle handles these
    // models up to N ~ 6 (it cycles beyond), so oracle validation stops
    // there.
    {
        let spec = RandomModelSpec {
            num_map_queues: 2,
            ..RandomModelSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let num_models = scale.pick(2, 5);
        let max_n = scale.pick(24, 40);
        let populations: Vec<usize> = (1..=max_n).collect();
        for model_idx in 0..num_models {
            let model = random_model(&spec, &mut rng).expect("random model");
            kernels.push(run_kernel(
                &format!("table1_random_{model_idx}"),
                &model.network,
                &populations,
                5,
            ));
        }
    }

    // Kernel 2: the SCV=16 case study of Figure 8 (CV = 4, gamma2 = 0.5) —
    // the population sweep the paper itself reports, and the instance whose
    // ill-conditioned mean-queue-length LPs motivated the certified
    // objective. The dense oracle stays reliable to N ~ 10 here.
    {
        let network = figure5_network(1, 16.0, 0.5).expect("figure5 network");
        let max_n = scale.pick(32, 60);
        let populations: Vec<usize> = (1..=max_n).collect();
        kernels.push(run_kernel("case_study_scv16", &network, &populations, 10));
    }

    let mut table = Table::new(&[
        "kernel",
        "N range",
        "cold ms",
        "sweep ms",
        "speedup",
        "diff oracle",
        "diff revised",
        "dual warm",
        "rejects",
    ]);
    for k in &kernels {
        table.add_row(vec![
            k.name.clone(),
            format!(
                "1..={}",
                k.populations.last().copied().unwrap_or_default()
            ),
            format!("{:.1}", k.cold_ms),
            format!("{:.1}", k.sweep_ms),
            format!("{:.2}x", k.speedup),
            format!("{:.2e}", k.worst_diff_oracle),
            format!("{:.2e}", k.worst_diff_revised),
            k.dual_warm_objectives.to_string(),
            k.dual_seed_rejections.to_string(),
        ]);
    }
    table.print();

    let geomean_speedup = (kernels.iter().map(|k| k.speedup.ln()).sum::<f64>()
        / kernels.len() as f64)
        .exp();
    let min_speedup = kernels.iter().map(|k| k.speedup).fold(f64::INFINITY, f64::min);
    let worst_oracle = kernels
        .iter()
        .map(|k| k.worst_diff_oracle)
        .fold(0.0f64, f64::max);
    let worst_revised = kernels
        .iter()
        .map(|k| k.worst_diff_revised)
        .fold(0.0f64, f64::max);
    let total_degraded: usize = kernels.iter().map(|k| k.degraded_answers).sum();
    println!("\ngeometric-mean speedup: {geomean_speedup:.2}x (min {min_speedup:.2}x)");
    println!(
        "worst interval difference: vs dense oracle {worst_oracle:.2e} (gate 1e-6), vs independent revised {worst_revised:.2e} (gate 5e-6)"
    );
    println!("degraded answers (cold + swept): {total_degraded} (gate 0)");

    // Emit BENCH_sweep.json (hand-rolled JSON; no serde in the offline set).
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"population_sweep_bound_all\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"max_population\": {}, \"cold_ms\": {:.3}, \"sweep_ms\": {:.3}, \"speedup\": {:.3}, \"worst_diff_oracle\": {:.3e}, \"oracle_checked_up_to\": {}, \"worst_diff_revised\": {:.3e}, \"dual_warm_objectives\": {}, \"dual_seed_rejections\": {}, \"degraded_answers\": {}}}{}\n",
            k.name,
            k.populations.last().copied().unwrap_or_default(),
            k.cold_ms,
            k.sweep_ms,
            k.speedup,
            k.worst_diff_oracle,
            k.oracle_checked_up_to,
            k.worst_diff_revised,
            k.dual_warm_objectives,
            k.dual_seed_rejections,
            k.degraded_answers,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"geomean_speedup\": {geomean_speedup:.3},\n  \"min_speedup\": {min_speedup:.3},\n  \"worst_diff_oracle\": {worst_oracle:.3e},\n  \"worst_diff_revised\": {worst_revised:.3e},\n  \"degraded_answers\": {total_degraded}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("\nwrote BENCH_sweep.json");

    // Acceptance gates, mirroring bench_lp: correctness hard-fails at the
    // acceptance threshold; the timing gate hard-fails only below a
    // conservative floor (shared CI runners wobble) and warns under the
    // 1.5x acceptance bar.
    // The oracle gate is the acceptance criterion (1e-6). The
    // revised-consistency gate is slightly looser: the sweep and the
    // independent solve are two warm paths of the same engine, each
    // stopping within its own reduced-cost tolerance of the optimum, so
    // their *difference* can legitimately reach a small multiple of 1e-6
    // even when both match the oracle.
    if worst_oracle > 1e-6 || worst_revised > 5e-6 {
        eprintln!("FAIL: sweep intervals diverge (oracle {worst_oracle:.2e} gate 1e-6, revised {worst_revised:.2e} gate 5e-6)");
        std::process::exit(1);
    }
    if total_degraded > 0 {
        eprintln!("FAIL: {total_degraded} degraded answers during sweeps (gate 0)");
        std::process::exit(1);
    }
    if geomean_speedup < 1.2 {
        eprintln!("FAIL: geometric-mean sweep speedup {geomean_speedup:.2}x collapsed (< 1.2x)");
        std::process::exit(1);
    }
    if min_speedup < 1.5 {
        eprintln!(
            "WARN: some kernel below the 1.5x acceptance bar (min {min_speedup:.2}x; noisy runner?)"
        );
    }
}

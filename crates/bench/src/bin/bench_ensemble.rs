//! Scenario-ensemble harness: times the same scenario batch end-to-end on
//! one worker ([`EnsembleRunner::with_threads`]`(1)`, the serial reference)
//! versus one worker per core, on the two ensemble workloads the paper's
//! versatility argument produces:
//!
//! * the **Table 1 random-model kernel** — a batch of random three-queue
//!   MAP models, each swept across populations;
//! * a **3×3 SCV×ACF grid** over the TPC-W server-tier model — the
//!   burstiness what-if study of the capacity-planning example, including
//!   the SCV=8 / decay-0.6 cell that used to break the revised engine at
//!   `N = 7` (the ROADMAP numerical corner, fixed by LP row equilibration
//!   and gated at zero degraded answers here).
//!
//! Correctness gates travel with the timing gates: the parallel report must
//! be **bit-for-bit identical** to the serial one (the ensemble's
//! determinism contract — per-job solver instances, job-index-derived
//! perturbation salts, index-ordered assembly), and every answer must come
//! from the degradation ladder's direct rung. The ≥1.5x multi-core speedup gate applies only when
//! the runner reports at least 2 cores; on smaller runners it is skipped
//! (and recorded as skipped in `BENCH_ensemble.json`).
//!
//! Run with `cargo run --release -p mapqn-bench --bin bench_ensemble`.
//! `MAPQN_SCALE=full` enlarges the experiment.

use mapqn_bench::{Scale, Table};
use mapqn_core::bounds::{EnsembleReport, EnsembleRunner, Scenario};
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::templates::{tpcw_server_tier, TpcwParameters};
use mapqn_sim::CacheServerParameters;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Worst-case bitwise comparison of two reports; returns the number of
/// differing interval endpoints (0 means bit-identical).
fn bitwise_mismatches(a: &EnsembleReport, b: &EnsembleReport) -> usize {
    let mut mismatches = 0usize;
    let differs = |x: f64, y: f64| usize::from(x.to_bits() != y.to_bits());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        for (ba, bb) in ra.bounds.iter().zip(&rb.bounds) {
            for k in 0..ba.throughput.len() {
                for (ia, ib) in [
                    (&ba.throughput[k], &bb.throughput[k]),
                    (&ba.utilization[k], &bb.utilization[k]),
                    (&ba.mean_queue_length[k], &bb.mean_queue_length[k]),
                ] {
                    mismatches += differs(ia.lower, ib.lower) + differs(ia.upper, ib.upper);
                }
            }
            mismatches += differs(ba.system_throughput.lower, bb.system_throughput.lower)
                + differs(ba.system_throughput.upper, bb.system_throughput.upper);
        }
    }
    mismatches
}

struct KernelResult {
    name: String,
    scenarios: usize,
    populations: usize,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    bitwise_mismatches: usize,
    dual_warm_objectives: usize,
    /// Answers (serial + parallel) that needed a ladder rung past direct.
    degraded_answers: usize,
}

/// Runs one scenario batch serial (1 worker) and parallel (all cores) and
/// cross-checks the reports bitwise.
fn run_kernel(name: &str, scenarios: &[Scenario], threads: usize) -> KernelResult {
    let serial_runner = EnsembleRunner::new().with_threads(1);
    let start = Instant::now();
    let serial = serial_runner.run(scenarios).expect("serial ensemble");
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;

    let parallel_runner = EnsembleRunner::new().with_threads(threads);
    let start = Instant::now();
    let parallel = parallel_runner.run(scenarios).expect("parallel ensemble");
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

    KernelResult {
        name: name.to_string(),
        scenarios: scenarios.len(),
        populations: parallel.stats.populations,
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms,
        bitwise_mismatches: bitwise_mismatches(&serial, &parallel),
        dual_warm_objectives: parallel.stats.dual_warm_objectives
            + serial.stats.dual_warm_objectives,
        degraded_answers: degraded_answers(&serial) + degraded_answers(&parallel),
    }
}

/// Answers of a report that needed a ladder rung past the direct solve.
fn degraded_answers(report: &EnsembleReport) -> usize {
    report
        .results
        .iter()
        .flat_map(|r| &r.bounds)
        .filter(|b| b.diagnostics.degraded())
        .count()
}

fn main() {
    let scale = Scale::from_env();
    let threads = mapqn_par::available_parallelism();

    println!(
        "Scenario-ensemble benchmark: serial (1 worker) vs parallel ({threads} workers)\n"
    );

    let mut kernels: Vec<KernelResult> = Vec::new();

    // Kernel 1: the Table 1 random-model batch — one scenario per random
    // model, each swept across populations.
    {
        let spec = RandomModelSpec {
            num_map_queues: 2,
            ..RandomModelSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        // Enough jobs that no single scenario dominates the batch: with
        // ~20 jobs total across both kernels, the largest job's share of
        // serial time stays well under the level where a 2-worker runner's
        // best-case speedup could mathematically fall below the 1.5x gate
        // (parallel wall-clock is bounded below by the largest single job).
        let num_models = scale.pick(10, 16);
        let max_n = scale.pick(10, 24);
        let scenarios: Vec<Scenario> = (0..num_models)
            .map(|i| {
                let model = random_model(&spec, &mut rng).expect("random model");
                Scenario::new(format!("random_{i}"), model.network, 1..=max_n)
            })
            .collect();
        kernels.push(run_kernel("table1_random_batch", &scenarios, threads));
    }

    // Kernel 2: the 3×3 SCV×ACF grid over the TPC-W server tier — the
    // burstiness what-if study, with the front-server mean taken from the
    // cache-server testbed parameters like the capacity-planning example.
    // The (SCV=8, decay=0.6) cell at N=7 is the ROADMAP corner instance.
    {
        let front_mean = CacheServerParameters::default().mean_service_time();
        let max_n = scale.pick(10, 16);
        let mut scenarios = Vec::new();
        for &scv in &[4.0f64, 8.0, 16.0] {
            for &decay in &[0.3f64, 0.6, 0.85] {
                let params = TpcwParameters {
                    front_mean,
                    front_scv: scv,
                    front_acf_decay: decay,
                    ..TpcwParameters::default()
                };
                let tier = tpcw_server_tier(&params).expect("server-tier network");
                scenarios.push(Scenario::new(
                    format!("tpcw_scv{scv}_decay{decay}"),
                    tier,
                    1..=max_n,
                ));
            }
        }
        kernels.push(run_kernel("tpcw_scv_acf_grid", &scenarios, threads));
    }

    let mut table = Table::new(&[
        "kernel",
        "scenarios",
        "pops",
        "serial ms",
        "parallel ms",
        "speedup",
        "bit diffs",
        "degraded",
    ]);
    for k in &kernels {
        table.add_row(vec![
            k.name.clone(),
            k.scenarios.to_string(),
            k.populations.to_string(),
            format!("{:.1}", k.serial_ms),
            format!("{:.1}", k.parallel_ms),
            format!("{:.2}x", k.speedup),
            k.bitwise_mismatches.to_string(),
            k.degraded_answers.to_string(),
        ]);
    }
    table.print();

    let total_serial: f64 = kernels.iter().map(|k| k.serial_ms).sum();
    let total_parallel: f64 = kernels.iter().map(|k| k.parallel_ms).sum();
    let end_to_end_speedup = total_serial / total_parallel;
    let total_mismatches: usize = kernels.iter().map(|k| k.bitwise_mismatches).sum();
    let total_degraded: usize = kernels.iter().map(|k| k.degraded_answers).sum();
    let gate_applies = threads >= 2;

    println!("\nend-to-end speedup: {end_to_end_speedup:.2}x on {threads} workers");
    println!("bitwise interval mismatches serial vs parallel: {total_mismatches} (gate 0)");
    println!("degraded answers (serial + parallel runs): {total_degraded} (gate 0)");
    if !gate_applies {
        println!("speedup gate SKIPPED: runner reports {threads} core(s), need >= 2");
    }

    // Emit BENCH_ensemble.json (hand-rolled JSON; no serde in the offline
    // set).
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"scenario_ensemble_bound_all\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"scenarios\": {}, \"populations\": {}, \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \"bitwise_mismatches\": {}, \"dual_warm_objectives\": {}, \"degraded_answers\": {}}}{}\n",
            k.name,
            k.scenarios,
            k.populations,
            k.serial_ms,
            k.parallel_ms,
            k.speedup,
            k.bitwise_mismatches,
            k.dual_warm_objectives,
            k.degraded_answers,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"end_to_end_speedup\": {end_to_end_speedup:.3},\n  \"bitwise_mismatches\": {total_mismatches},\n  \"degraded_answers\": {total_degraded},\n  \"speedup_gate_applied\": {gate_applies}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_ensemble.json", &json).expect("write BENCH_ensemble.json");
    println!("\nwrote BENCH_ensemble.json");

    // Acceptance gates: determinism and zero degradation hard-fail everywhere;
    // the ≥1.5x speedup gate applies only on multi-core runners (a 1-core
    // runner cannot demonstrate parallel speedup, and the pool degenerates
    // to the serial loop there by design).
    if total_mismatches > 0 {
        eprintln!(
            "FAIL: parallel ensemble differs bitwise from the serial reference ({total_mismatches} endpoints)"
        );
        std::process::exit(1);
    }
    if total_degraded > 0 {
        eprintln!("FAIL: {total_degraded} degraded answers in the ensembles (gate 0)");
        std::process::exit(1);
    }
    if gate_applies && end_to_end_speedup < 1.5 {
        eprintln!(
            "FAIL: end-to-end ensemble speedup {end_to_end_speedup:.2}x below the 1.5x gate on {threads} workers"
        );
        std::process::exit(1);
    }
}

//! Exact-engine harness: measures the sparse parallel CTMC engine against
//! the dense GTH ceiling on the paper's validation models and records the
//! results in `BENCH_exact.json` so future PRs have a perf trajectory.
//!
//! Four families of gates travel together:
//!
//! * **Agreement** — on every model small enough for dense GTH (the
//!   "overlap" models) the sparse engine's stationary metrics must match the
//!   dense ones within `1e-8`;
//! * **Scale** — the sparse engine must solve a validation model at least
//!   10× larger (in states) than the dense ceiling it is replacing, on both
//!   the figure-5 case-study family and the TPC-W model;
//! * **Determinism** — the sparse stationary vector must be bitwise
//!   identical at 1 and N workers (same contract as the ensemble layer);
//! * **Kronecker tier** (below).
//!
//! Two figures are recorded without a gate: on the `10^3`–`10^5`-state
//! mid-scale models, the persistent pool's end-to-end time against one
//! worker; and a pool-overhead microbench of the raw per-round cost of a
//! serial loop against a persistent-pool round, so the
//! `parallel_threshold` default stays justified by numbers.
//!
//! A **Kronecker tier** gates the implicit generator representation: on the
//! overlap models the factored operator's stationary vector must agree with
//! the materialized engine within `1e-8` under the state-index mapping, on
//! every at-scale model the factor blocks must undercut the flat CSR by
//! ≥ 5× in bytes, and an implicit-tier model whose estimated flat CSR
//! exceeds the tier's materialized ceiling must solve successfully without
//! the generator ever being built. Its implicit-vs-materialized leg records
//! the rung, sweeps and wall-time ratio of both representations on
//! tpcw_B80 and fig5_scv16_N60, and gates (on sweep counts, not time) that
//! tpcw_B80 implicit is answered by the Gauss–Seidel rung within 1.1× the
//! materialized sweeps.
//!
//! Run with `cargo run --release -p mapqn-bench --bin bench_exact`.
//! `MAPQN_SCALE=full` enlarges the experiment.

use mapqn_bench::{Scale, Table};
use mapqn_core::exact::{solve_exact_with, ExactOptions};
use mapqn_core::metrics::NetworkMetrics;
use mapqn_core::statespace::build_state_space;
use mapqn_core::templates::{figure5_network, tpcw_network, TpcwParameters};
use mapqn_core::{ClosedNetwork, FactoredGenerator};
use mapqn_linalg::GeneratorOp;
use mapqn_markov::{
    stationary_dense_gth, stationary_sparse, stationary_sparse_op, SparseSteadyOptions,
    SteadyStateOptions,
};
use mapqn_par::WorkPool;
use std::time::Instant;

/// Exact options forcing the dense GTH path.
fn dense_exact_options() -> ExactOptions {
    ExactOptions {
        steady_state: SteadyStateOptions {
            dense_threshold: usize::MAX,
            ..SteadyStateOptions::default()
        },
        ..ExactOptions::default()
    }
}

/// Exact options forcing the sparse engine at any size.
fn sparse_exact_options() -> ExactOptions {
    ExactOptions {
        steady_state: SteadyStateOptions {
            dense_threshold: 0,
            ..SteadyStateOptions::default()
        },
        ..ExactOptions::default()
    }
}

/// Worst per-station difference across the headline metric vectors of two
/// exact solutions.
fn max_metric_diff(a: &NetworkMetrics, b: &NetworkMetrics) -> f64 {
    let mut worst = (a.system_throughput - b.system_throughput).abs();
    for k in 0..a.throughput.len() {
        worst = worst
            .max((a.throughput[k] - b.throughput[k]).abs())
            .max((a.utilization[k] - b.utilization[k]).abs())
            .max((a.mean_queue_length[k] - b.mean_queue_length[k]).abs());
    }
    worst
}

struct OverlapResult {
    name: String,
    states: usize,
    dense_ms: f64,
    sparse_ms: f64,
    speedup: f64,
    pi_diff: f64,
    metric_diff: f64,
}

/// Median of a non-empty sample (the upper middle one for even lengths).
fn median(mut sample: Vec<f64>) -> f64 {
    sample.sort_by(f64::total_cmp);
    sample[sample.len() / 2]
}

/// Milliseconds one call of `f` takes.
fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Interleaved timing pairs per comparison: enough for a median that one
/// slow round on a shared runner cannot move.
const TIMING_PAIRS: usize = 7;

/// Runs `a` and `b` back to back `TIMING_PAIRS` times and returns the
/// median time of each and the median of the per-pair ratios `a / b`.
/// Adjacent runs share the runner's load, so the per-pair ratio cancels
/// most of the drift that best-of-k timings leave in a ratio.
fn interleaved_medians(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64, f64) {
    let (mut a_ms, mut b_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TIMING_PAIRS {
        let ta = time_ms(&mut a);
        let tb = time_ms(&mut b);
        a_ms.push(ta);
        b_ms.push(tb);
        ratios.push(ta / tb);
    }
    (median(a_ms), median(b_ms), median(ratios))
}

/// Solves one overlap model (small enough for GTH) both ways and compares.
fn run_overlap(name: &str, network: &ClosedNetwork) -> OverlapResult {
    let space = build_state_space(network, 10_000_000).expect("state space");
    let states = space.len();

    let dense_pi = stationary_dense_gth(space.ctmc()).expect("dense GTH");
    let sparse = stationary_sparse(space.ctmc(), &SparseSteadyOptions::default())
        .expect("sparse engine");
    let (dense_ms, sparse_ms, speedup) = interleaved_medians(
        || {
            stationary_dense_gth(space.ctmc()).expect("dense GTH");
        },
        || {
            stationary_sparse(space.ctmc(), &SparseSteadyOptions::default())
                .expect("sparse engine");
        },
    );

    let pi_diff = dense_pi.max_abs_diff(&sparse.pi).expect("same length");
    let dense_metrics = solve_exact_with(network, &dense_exact_options()).expect("dense metrics");
    let sparse_metrics =
        solve_exact_with(network, &sparse_exact_options()).expect("sparse metrics");
    let metric_diff = max_metric_diff(&dense_metrics, &sparse_metrics);

    OverlapResult {
        name: name.to_string(),
        states,
        dense_ms,
        sparse_ms,
        speedup,
        pi_diff,
        metric_diff,
    }
}

struct ScaleResult {
    name: String,
    states: usize,
    transitions: usize,
    build_ms: f64,
    solve_ms: f64,
    states_per_sec: f64,
    sweeps: usize,
    residual: f64,
    engine: String,
    deterministic: bool,
    /// One-worker solve time (best of 3).
    serial_ms: f64,
    /// Bytes held by the materialized flat-CSR generator.
    flat_bytes: usize,
    /// Bytes the factored (Kronecker-block) representation needs instead.
    factored_bytes: usize,
}

/// Times one solve (best of `reps` to damp shared-runner noise).
fn time_solve(ctmc: &mapqn_markov::Ctmc, options: &SparseSteadyOptions, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        stationary_sparse(ctmc, options).expect("sparse solve");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Solves one at-scale model with the sparse engine, checks worker-count
/// determinism (1 worker vs 4 workers, bitwise), and measures the forced
/// one-worker solve time.
fn run_scale(name: &str, network: &ClosedNetwork) -> ScaleResult {
    let start = Instant::now();
    let space = build_state_space(network, 10_000_000).expect("state space");
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let states = space.len();
    let transitions = space.ctmc().generator().nnz();
    let flat_bytes = space.generator_memory_bytes();
    let factored_bytes = FactoredGenerator::new(network, 10_000_000)
        .expect("factored generator")
        .memory_bytes();

    let options = SparseSteadyOptions::default();
    let start = Instant::now();
    let report = stationary_sparse(space.ctmc(), &options).expect("sparse solve");
    let solve_ms = start.elapsed().as_secs_f64() * 1e3;

    // parallel_threshold 0 forces the threaded path even when the model is
    // below the engine's spawn-amortization cutoff, so the bitwise gate
    // exercises real worker threads.
    let serial = stationary_sparse(
        space.ctmc(),
        &SparseSteadyOptions {
            workers: 1,
            parallel_threshold: 0,
            ..options
        },
    )
    .expect("serial solve");
    let parallel = stationary_sparse(
        space.ctmc(),
        &SparseSteadyOptions {
            workers: 4,
            parallel_threshold: 0,
            ..options
        },
    )
    .expect("parallel solve");
    let deterministic = serial.pi.as_slice() == parallel.pi.as_slice();

    let serial_ms = time_solve(
        space.ctmc(),
        &SparseSteadyOptions {
            workers: 1,
            ..options
        },
        3,
    );

    ScaleResult {
        name: name.to_string(),
        states,
        transitions,
        build_ms,
        solve_ms,
        states_per_sec: states as f64 / (solve_ms / 1e3),
        sweeps: report.sweeps,
        residual: report.residual,
        engine: format!("{:?}", report.used),
        deterministic,
        serial_ms,
        flat_bytes,
        factored_bytes,
    }
}

struct MidScaleResult {
    name: String,
    states: usize,
    transitions: usize,
    serial_ms: f64,
    persistent_ms: f64,
    /// persistent vs one worker — what the cores actually buy end-to-end.
    speedup_vs_serial: f64,
    sweeps: usize,
    engine: String,
}

/// Solves one mid-scale model (the `10^3`–`10^5`-state regime) two ways:
/// one worker and the persistent pool, both at `parallel_threshold: 0` so
/// the parallel path engages regardless of the default cut-in — and with
/// `block_len` shrunk below the smallest model, because a round whose data
/// fits one default 4096-row block runs inline-serial and would pin its
/// "speedup" at 1.0. The block length is identical across both runs of a
/// model, so the comparison stays exact (and bitwise identical).
fn run_midscale(name: &str, network: &ClosedNetwork, workers: usize) -> MidScaleResult {
    let space = build_state_space(network, 10_000_000).expect("state space");
    let states = space.len();
    let transitions = space.ctmc().generator().nnz();

    let base = SparseSteadyOptions {
        parallel_threshold: 0,
        block_len: 1024,
        ..SparseSteadyOptions::default()
    };
    let report = stationary_sparse(space.ctmc(), &base).expect("sparse solve");

    let serial_ms = time_solve(
        space.ctmc(),
        &SparseSteadyOptions { workers: 1, ..base },
        2,
    );
    let persistent_ms = time_solve(
        space.ctmc(),
        &SparseSteadyOptions { workers, ..base },
        2,
    );

    MidScaleResult {
        name: name.to_string(),
        states,
        transitions,
        serial_ms,
        persistent_ms,
        speedup_vs_serial: serial_ms / persistent_ms,
        sweeps: report.sweeps,
        engine: format!("{:?}", report.used),
    }
}

struct KronOverlap {
    name: String,
    states: usize,
    flat_bytes: usize,
    factored_bytes: usize,
    memory_ratio: f64,
    pi_diff: f64,
    implicit_engine: String,
    implicit_solve_ms: f64,
}

/// Solves one overlap model through the materialized engine and the
/// implicit factored operator, compares π under the state-index mapping,
/// and records the generator-memory footprint of both representations.
fn run_kron_overlap(name: &str, network: &ClosedNetwork) -> KronOverlap {
    let space = build_state_space(network, 10_000_000).expect("state space");
    let op = FactoredGenerator::new(network, 10_000_000).expect("factored generator");
    let options = SparseSteadyOptions::default();
    let materialized = stationary_sparse(space.ctmc(), &options).expect("materialized solve");

    let start = Instant::now();
    let implicit = stationary_sparse_op(&op, &options).expect("implicit solve");
    let implicit_solve_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut pi_diff = 0.0f64;
    for (bfs, state) in space.states().iter().enumerate() {
        let fac = op.index_of(state).expect("reachable state ranks");
        pi_diff = pi_diff.max((materialized.pi[bfs] - implicit.pi[fac]).abs());
    }

    let flat_bytes = space.generator_memory_bytes();
    let factored_bytes = op.memory_bytes();
    KronOverlap {
        name: name.to_string(),
        states: space.len(),
        flat_bytes,
        factored_bytes,
        memory_ratio: flat_bytes as f64 / factored_bytes as f64,
        pi_diff,
        implicit_engine: format!("{:?}", implicit.used),
        implicit_solve_ms,
    }
}

struct KronImplicit {
    name: String,
    states: usize,
    est_flat_bytes: usize,
    factored_bytes: usize,
    memory_ratio: f64,
    ceiling_bytes: usize,
    solve_ms: f64,
    sweeps: usize,
    residual: f64,
    engine: String,
    exact_ms: f64,
    jobs_err: f64,
}

/// The implicit tier: a model whose estimated materialized footprint
/// exceeds `ceiling_bytes` is solved entirely through the factored
/// operator — once directly (to record engine/sweeps/residual) and once
/// end-to-end through `solve_exact_with` with the Auto representation and
/// that ceiling, which must route implicit and produce conserving metrics.
fn run_kron_implicit(name: &str, network: &ClosedNetwork, ceiling_bytes: usize) -> KronImplicit {
    let op = FactoredGenerator::new(network, 10_000_000).expect("factored generator");
    let est_flat_bytes = op.flat_csr_bytes_estimate();
    assert!(
        est_flat_bytes > ceiling_bytes,
        "implicit-tier model must exceed the materialized ceiling ({est_flat_bytes} <= {ceiling_bytes})"
    );

    let start = Instant::now();
    let report = stationary_sparse_op(&op, &SparseSteadyOptions::default()).expect("implicit solve");
    let solve_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let metrics = solve_exact_with(
        network,
        &ExactOptions {
            materialize_bytes_ceiling: ceiling_bytes,
            ..ExactOptions::default()
        },
    )
    .expect("auto-routed implicit exact solve");
    let exact_ms = start.elapsed().as_secs_f64() * 1e3;
    let jobs_err = (metrics.total_jobs() - network.population() as f64).abs();

    let factored_bytes = op.memory_bytes();
    KronImplicit {
        name: name.to_string(),
        states: op.num_states(),
        est_flat_bytes,
        factored_bytes,
        memory_ratio: est_flat_bytes as f64 / factored_bytes as f64,
        ceiling_bytes,
        solve_ms,
        sweeps: report.sweeps,
        residual: report.residual,
        engine: format!("{:?}", report.used),
        exact_ms,
        jobs_err,
    }
}

struct ImplicitRatio {
    name: String,
    states: usize,
    materialized_ms: f64,
    materialized_sweeps: usize,
    implicit_ms: f64,
    implicit_sweeps: usize,
    implicit_engine: String,
    /// Median of the interleaved implicit ÷ materialized wall-time ratios.
    time_ratio: f64,
    pi_diff: f64,
}

/// Solves one model through both representations with default options
/// (the materialized time includes the engine's transpose) and records
/// each one's rung, sweeps and wall time.
fn run_implicit_ratio(name: &str, network: &ClosedNetwork) -> ImplicitRatio {
    let space = build_state_space(network, 10_000_000).expect("state space");
    let op = FactoredGenerator::new(network, 10_000_000).expect("factored generator");
    let options = SparseSteadyOptions::default();
    let materialized = stationary_sparse(space.ctmc(), &options).expect("materialized solve");
    let implicit = stationary_sparse_op(&op, &options).expect("implicit solve");
    let (implicit_ms, materialized_ms, time_ratio) = interleaved_medians(
        || {
            stationary_sparse_op(&op, &options).expect("implicit solve");
        },
        || {
            stationary_sparse(space.ctmc(), &options).expect("materialized solve");
        },
    );
    let mut pi_diff = 0.0f64;
    for (bfs, state) in space.states().iter().enumerate() {
        let fac = op.index_of(state).expect("reachable state ranks");
        pi_diff = pi_diff.max((materialized.pi[bfs] - implicit.pi[fac]).abs());
    }
    ImplicitRatio {
        name: name.to_string(),
        states: space.len(),
        materialized_ms,
        materialized_sweeps: materialized.sweeps,
        implicit_ms,
        implicit_sweeps: implicit.sweeps,
        implicit_engine: format!("{:?}", implicit.used),
        time_ratio,
        pi_diff,
    }
}

struct PoolOverhead {
    threads: usize,
    rounds: usize,
    serial_ns_per_round: f64,
    persistent_ns_per_round: f64,
}

/// Measures the raw per-round cost on a tiny fixed round (4096 f64 adds in
/// 8 chunks) of a serial loop (the floor) and a persistent-pool round
/// (wake + quiesce of parked workers). The difference persistent − serial
/// is the handshake the `parallel_threshold` default must amortize.
fn pool_overhead(threads: usize) -> PoolOverhead {
    const LEN: usize = 4096;
    const CHUNK: usize = 512;
    let rounds = 2_000usize;
    let work = |_start: usize, chunk: &mut [f64]| {
        for x in chunk.iter_mut() {
            *x += 1.0;
        }
    };

    let mut data = vec![0.0f64; LEN];
    let serial_pool = WorkPool::new(1);
    let start = Instant::now();
    serial_pool.scoped(|pool| {
        for _ in 0..rounds {
            pool.for_each_chunk(&mut data, CHUNK, work);
        }
    });
    let serial_ns_per_round = start.elapsed().as_nanos() as f64 / rounds as f64;

    let start = Instant::now();
    WorkPool::new(threads).scoped(|pool| {
        for _ in 0..rounds {
            pool.for_each_chunk(&mut data, CHUNK, work);
        }
    });
    let persistent_ns_per_round = start.elapsed().as_nanos() as f64 / rounds as f64;

    std::hint::black_box(&data);
    PoolOverhead {
        threads,
        rounds,
        serial_ns_per_round,
        persistent_ns_per_round,
    }
}

fn main() {
    let scale = Scale::from_env();

    println!("Exact-engine benchmark: sparse preconditioned CTMC solver vs the dense GTH ceiling\n");

    // The dense ceiling: the largest figure-5 case-study instance we are
    // willing to put through O(n^3) GTH. Populations are chosen so the state
    // count lands just under it (states = (N+1)(N+2) for this 3-queue,
    // MAP(2) model).
    let dense_ceiling_states = scale.pick(2_000, 4_200);

    // Overlap models: every validation family at sizes both engines handle.
    let mut overlaps: Vec<OverlapResult> = Vec::new();
    {
        let mut n = 1usize;
        while (n + 2) * (n + 3) <= dense_ceiling_states {
            n += 1;
        }
        let net = figure5_network(n, 16.0, 0.5).expect("figure5");
        overlaps.push(run_overlap(&format!("fig5_scv16_N{n}"), &net));
        let small = figure5_network(8, 4.0, 0.5).expect("figure5 small");
        overlaps.push(run_overlap("fig5_scv4_N8", &small));
    }
    {
        let browsers = scale.pick(40, 60);
        let params = TpcwParameters {
            browsers,
            ..TpcwParameters::default()
        };
        let net = tpcw_network(&params).expect("tpcw");
        overlaps.push(run_overlap(&format!("tpcw_B{browsers}"), &net));
    }

    // At-scale models: >= 10x the dense ceiling in states.
    let mut scales: Vec<ScaleResult> = Vec::new();
    {
        let n = scale.pick(150, 450);
        let net = figure5_network(n, 16.0, 0.5).expect("figure5 large");
        scales.push(run_scale(&format!("fig5_scv16_N{n}"), &net));
    }
    {
        let browsers = scale.pick(150, 384);
        let params = TpcwParameters {
            browsers,
            ..TpcwParameters::default()
        };
        let net = tpcw_network(&params).expect("tpcw large");
        scales.push(run_scale(&format!("tpcw_B{browsers}"), &net));
    }

    // Mid-scale tier: the 10^3–10^5-state validation models (the figure-5 /
    // TPC-W sizes behind the paper's own experiments), persistent pool vs
    // one worker: what the cores buy end-to-end.
    // Models are the burst-robust figure-5 SCV=16 and TPC-W families: the
    // tier shrinks block_len to 1024 (see run_midscale), and the SCV=4
    // family's Gauss–Seidel is sensitive to the block coupling (smaller
    // blocks push it onto the fallback ladder — measured, ~20x the
    // sweeps), which would swamp the pool-overhead signal this tier
    // exists to gate.
    let workers = mapqn_par::default_threads();
    let mut mids: Vec<MidScaleResult> = Vec::new();
    {
        let n_list: &[usize] = scale.pick(&[60usize, 100][..], &[60usize, 100, 150][..]);
        for &n in n_list {
            let net = figure5_network(n, 16.0, 0.5).expect("figure5 scv16");
            mids.push(run_midscale(&format!("fig5_scv16_N{n}"), &net, workers));
        }
        let b_list: &[usize] = scale.pick(&[50usize, 80][..], &[50usize, 80, 120][..]);
        for &browsers in b_list {
            let params = TpcwParameters {
                browsers,
                ..TpcwParameters::default()
            };
            let net = tpcw_network(&params).expect("tpcw mid");
            mids.push(run_midscale(&format!("tpcw_B{browsers}"), &net, workers));
        }
    }

    // Kronecker tier: implicit-operator agreement on the overlap sizes, and
    // an implicit-only solve of a model whose estimated flat CSR exceeds
    // the tier's materialized ceiling. The ceiling is set to the measured
    // flat-CSR footprint of the largest kron overlap model, so "would not
    // fit materialized" is demonstrated against a byte count this very run
    // produced, not a magic constant.
    let mut kron_overlaps: Vec<KronOverlap> = Vec::new();
    {
        let n = scale.pick(30, 45);
        let net = figure5_network(n, 16.0, 0.5).expect("figure5 kron");
        kron_overlaps.push(run_kron_overlap(&format!("fig5_scv16_N{n}"), &net));
        let browsers = scale.pick(25, 40);
        let params = TpcwParameters {
            browsers,
            ..TpcwParameters::default()
        };
        let net = tpcw_network(&params).expect("tpcw kron");
        kron_overlaps.push(run_kron_overlap(&format!("tpcw_B{browsers}"), &net));
    }
    let kron_ceiling_bytes = kron_overlaps.iter().map(|k| k.flat_bytes).max().unwrap_or(0);
    let kron_implicit = {
        // TPC-W rather than figure-5 for the implicit headline: it needs far
        // fewer sweeps on every rung, so the tier demonstrates the memory
        // win without turning the bench into a convergence stress test.
        let browsers = scale.pick(80, 160);
        let params = TpcwParameters {
            browsers,
            ..TpcwParameters::default()
        };
        let net = tpcw_network(&params).expect("tpcw implicit");
        run_kron_implicit(&format!("tpcw_B{browsers}"), &net, kron_ceiling_bytes)
    };

    // Implicit vs materialized on the same chains: the mid-scale tier's
    // tpcw_B80 (the sweep-count gate) and fig5_scv16_N60 (the stiffer
    // family).
    let implicit_ratios = vec![
        run_implicit_ratio(
            "tpcw_B80",
            &tpcw_network(&TpcwParameters {
                browsers: 80,
                ..TpcwParameters::default()
            })
            .expect("tpcw implicit ratio"),
        ),
        run_implicit_ratio(
            "fig5_scv16_N60",
            &figure5_network(60, 16.0, 0.5).expect("figure5 implicit ratio"),
        ),
    ];

    let overhead = pool_overhead(workers.max(2));

    let mut table = Table::new(&[
        "overlap model",
        "states",
        "dense ms",
        "sparse ms",
        "speedup",
        "pi diff",
        "metric diff",
    ]);
    for o in &overlaps {
        table.add_row(vec![
            o.name.clone(),
            o.states.to_string(),
            format!("{:.1}", o.dense_ms),
            format!("{:.1}", o.sparse_ms),
            format!("{:.1}x", o.speedup),
            format!("{:.2e}", o.pi_diff),
            format!("{:.2e}", o.metric_diff),
        ]);
    }
    table.print();
    println!();

    let mut table = Table::new(&[
        "scale model",
        "states",
        "transitions",
        "build ms",
        "solve ms",
        "states/s",
        "sweeps",
        "residual",
        "engine",
        "det.",
        "1w ms",
        "flat MiB",
        "factored KiB",
    ]);
    for s in &scales {
        table.add_row(vec![
            s.name.clone(),
            s.states.to_string(),
            s.transitions.to_string(),
            format!("{:.1}", s.build_ms),
            format!("{:.1}", s.solve_ms),
            format!("{:.0}", s.states_per_sec),
            s.sweeps.to_string(),
            format!("{:.2e}", s.residual),
            s.engine.clone(),
            s.deterministic.to_string(),
            format!("{:.1}", s.serial_ms),
            format!("{:.1}", s.flat_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", s.factored_bytes as f64 / 1024.0),
        ]);
    }
    table.print();
    println!();

    let mut table = Table::new(&[
        "kron overlap model",
        "states",
        "flat bytes",
        "factored bytes",
        "mem ratio",
        "pi diff",
        "implicit engine",
        "implicit ms",
    ]);
    for k in &kron_overlaps {
        table.add_row(vec![
            k.name.clone(),
            k.states.to_string(),
            k.flat_bytes.to_string(),
            k.factored_bytes.to_string(),
            format!("{:.0}x", k.memory_ratio),
            format!("{:.2e}", k.pi_diff),
            k.implicit_engine.clone(),
            format!("{:.1}", k.implicit_solve_ms),
        ]);
    }
    table.print();
    println!(
        "kron implicit tier: {} ({} states) est. flat CSR {:.1} MiB > ceiling {:.1} MiB; factored {:.1} KiB ({:.0}x less); solved {} in {:.1} ms ({} sweeps, residual {:.2e}); auto-routed exact solve {:.1} ms, jobs err {:.2e}\n",
        kron_implicit.name,
        kron_implicit.states,
        kron_implicit.est_flat_bytes as f64 / (1 << 20) as f64,
        kron_implicit.ceiling_bytes as f64 / (1 << 20) as f64,
        kron_implicit.factored_bytes as f64 / 1024.0,
        kron_implicit.memory_ratio,
        kron_implicit.engine,
        kron_implicit.solve_ms,
        kron_implicit.sweeps,
        kron_implicit.residual,
        kron_implicit.exact_ms,
        kron_implicit.jobs_err,
    );

    let mut table = Table::new(&[
        "implicit vs materialized",
        "states",
        "mat ms",
        "mat sweeps",
        "implicit ms",
        "implicit sweeps",
        "implicit engine",
        "time ratio",
        "pi diff",
    ]);
    for r in &implicit_ratios {
        table.add_row(vec![
            r.name.clone(),
            r.states.to_string(),
            format!("{:.1}", r.materialized_ms),
            r.materialized_sweeps.to_string(),
            format!("{:.1}", r.implicit_ms),
            r.implicit_sweeps.to_string(),
            r.implicit_engine.clone(),
            format!("{:.2}x", r.time_ratio),
            format!("{:.2e}", r.pi_diff),
        ]);
    }
    table.print();
    println!();

    let mut table = Table::new(&[
        "mid-scale model",
        "states",
        "transitions",
        "serial ms",
        "persist ms",
        "vs serial",
        "sweeps",
        "engine",
    ]);
    for m in &mids {
        table.add_row(vec![
            m.name.clone(),
            m.states.to_string(),
            m.transitions.to_string(),
            format!("{:.1}", m.serial_ms),
            format!("{:.1}", m.persistent_ms),
            format!("{:.2}x", m.speedup_vs_serial),
            m.sweeps.to_string(),
            m.engine.clone(),
        ]);
    }
    table.print();

    println!(
        "\npool overhead ({} threads, {} rounds of 4096 adds in 8 chunks): serial {:.2} us/round, persistent {:.2} us/round (handshake {:.2} us)",
        overhead.threads,
        overhead.rounds,
        overhead.serial_ns_per_round / 1e3,
        overhead.persistent_ns_per_round / 1e3,
        (overhead.persistent_ns_per_round - overhead.serial_ns_per_round) / 1e3,
    );

    let worst_pi_diff = overlaps.iter().map(|o| o.pi_diff).fold(0.0f64, f64::max);
    let worst_metric_diff = overlaps
        .iter()
        .map(|o| o.metric_diff)
        .fold(0.0f64, f64::max);
    let ceiling_states = overlaps.iter().map(|o| o.states).max().unwrap_or(0);
    let min_scale_states = scales.iter().map(|s| s.states).min().unwrap_or(0);
    let scale_ratio = min_scale_states as f64 / ceiling_states as f64;
    let ceiling_speedup = overlaps
        .iter()
        .max_by_key(|o| o.states)
        .map_or(0.0, |o| o.speedup);
    let all_deterministic = scales.iter().all(|s| s.deterministic);
    let midscale_geomean = (mids
        .iter()
        .map(|m| m.speedup_vs_serial.ln())
        .sum::<f64>()
        / mids.len() as f64)
        .exp();
    let worst_kron_pi_diff = kron_overlaps
        .iter()
        .map(|k| k.pi_diff)
        .chain(implicit_ratios.iter().map(|r| r.pi_diff))
        .fold(0.0f64, f64::max);
    // The one implicit gate, on sweep counts: tpcw_B80 runs the
    // Gauss–Seidel rung in no more than 1.1x the materialized sweeps.
    let tpcw_ratio = &implicit_ratios[0];
    let implicit_gs_ok = tpcw_ratio.implicit_engine == "GaussSeidel"
        && tpcw_ratio.implicit_sweeps as f64 <= 1.1 * tpcw_ratio.materialized_sweeps as f64;
    let min_kron_memory_ratio = kron_overlaps
        .iter()
        .map(|k| k.memory_ratio)
        .chain(
            scales
                .iter()
                .map(|s| s.flat_bytes as f64 / s.factored_bytes as f64),
        )
        .chain(std::iter::once(kron_implicit.memory_ratio))
        .fold(f64::INFINITY, f64::min);

    println!(
        "\ndense ceiling: {ceiling_states} states; smallest at-scale model: {min_scale_states} states ({scale_ratio:.1}x the ceiling, gate >= 10x)"
    );
    println!(
        "worst dense-vs-sparse agreement: pi {worst_pi_diff:.2e}, metrics {worst_metric_diff:.2e} (gate 1e-8)"
    );
    println!(
        "sparse-vs-dense speedup at the ceiling: {ceiling_speedup:.1}x (median of {TIMING_PAIRS} interleaved pairs, gate >= 2x)"
    );
    println!("worker-count determinism (1 vs 4 workers, bitwise): {all_deterministic}");
    println!(
        "mid-scale persistent pool vs one worker: geomean {midscale_geomean:.2}x on {workers} workers (recorded, not gated)"
    );
    println!(
        "kron tier: worst materialized-vs-implicit pi diff {worst_kron_pi_diff:.2e} (gate 1e-8); smallest generator-memory reduction {min_kron_memory_ratio:.0}x (gate >= 5x)"
    );
    println!(
        "implicit {}: {} rung, {} sweeps vs {} materialized (gate: GaussSeidel, <= 1.1x)",
        tpcw_ratio.name,
        tpcw_ratio.implicit_engine,
        tpcw_ratio.implicit_sweeps,
        tpcw_ratio.materialized_sweeps
    );

    // Emit BENCH_exact.json (hand-rolled JSON; no serde in the offline set).
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"sparse_exact_ctmc_engine\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str("  \"overlap_models\": [\n");
    for (i, o) in overlaps.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"dense_ms\": {:.3}, \"sparse_ms\": {:.3}, \"speedup\": {:.3}, \"pi_diff\": {:.3e}, \"metric_diff\": {:.3e}}}{}\n",
            o.name,
            o.states,
            o.dense_ms,
            o.sparse_ms,
            o.speedup,
            o.pi_diff,
            o.metric_diff,
            if i + 1 < overlaps.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scale_models\": [\n");
    for (i, s) in scales.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"transitions\": {}, \"build_ms\": {:.3}, \"solve_ms\": {:.3}, \"states_per_sec\": {:.0}, \"sweeps\": {}, \"residual\": {:.3e}, \"engine\": \"{}\", \"deterministic\": {}, \"flat_generator_bytes\": {}, \"factored_generator_bytes\": {}}}{}\n",
            s.name,
            s.states,
            s.transitions,
            s.build_ms,
            s.solve_ms,
            s.states_per_sec,
            s.sweeps,
            s.residual,
            s.engine,
            s.deterministic,
            s.flat_bytes,
            s.factored_bytes,
            if i + 1 < scales.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"kron_overlap_models\": [\n");
    for (i, k) in kron_overlaps.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"flat_bytes\": {}, \"factored_bytes\": {}, \"memory_ratio\": {:.2}, \"pi_diff\": {:.3e}, \"implicit_engine\": \"{}\", \"implicit_solve_ms\": {:.3}}}{}\n",
            k.name,
            k.states,
            k.flat_bytes,
            k.factored_bytes,
            k.memory_ratio,
            k.pi_diff,
            k.implicit_engine,
            k.implicit_solve_ms,
            if i + 1 < kron_overlaps.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"kron_implicit\": {{\"name\": \"{}\", \"states\": {}, \"est_flat_bytes\": {}, \"factored_bytes\": {}, \"memory_ratio\": {:.2}, \"ceiling_bytes\": {}, \"solve_ms\": {:.3}, \"sweeps\": {}, \"residual\": {:.3e}, \"engine\": \"{}\", \"exact_ms\": {:.3}, \"jobs_err\": {:.3e}}},\n",
        kron_implicit.name,
        kron_implicit.states,
        kron_implicit.est_flat_bytes,
        kron_implicit.factored_bytes,
        kron_implicit.memory_ratio,
        kron_implicit.ceiling_bytes,
        kron_implicit.solve_ms,
        kron_implicit.sweeps,
        kron_implicit.residual,
        kron_implicit.engine,
        kron_implicit.exact_ms,
        kron_implicit.jobs_err,
    ));
    json.push_str("  \"implicit_vs_materialized\": [\n");
    for (i, r) in implicit_ratios.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"materialized_ms\": {:.3}, \"materialized_sweeps\": {}, \"implicit_ms\": {:.3}, \"implicit_sweeps\": {}, \"implicit_engine\": \"{}\", \"time_ratio\": {:.3}, \"pi_diff\": {:.3e}}}{}\n",
            r.name,
            r.states,
            r.materialized_ms,
            r.materialized_sweeps,
            r.implicit_ms,
            r.implicit_sweeps,
            r.implicit_engine,
            r.time_ratio,
            r.pi_diff,
            if i + 1 < implicit_ratios.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"midscale_models\": [\n");
    for (i, m) in mids.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"transitions\": {}, \"serial_ms\": {:.3}, \"persistent_ms\": {:.3}, \"speedup_vs_serial\": {:.3}, \"sweeps\": {}, \"engine\": \"{}\"}}{}\n",
            m.name,
            m.states,
            m.transitions,
            m.serial_ms,
            m.persistent_ms,
            m.speedup_vs_serial,
            m.sweeps,
            m.engine,
            if i + 1 < mids.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"pool_overhead\": {{\"threads\": {}, \"rounds\": {}, \"serial_ns_per_round\": {:.0}, \"persistent_ns_per_round\": {:.0}}},\n",
        overhead.threads,
        overhead.rounds,
        overhead.serial_ns_per_round,
        overhead.persistent_ns_per_round
    ));
    json.push_str(&format!(
        "  \"dense_ceiling_states\": {ceiling_states},\n  \"min_scale_states\": {min_scale_states},\n  \"scale_ratio\": {scale_ratio:.2},\n  \"worst_pi_diff\": {worst_pi_diff:.3e},\n  \"worst_metric_diff\": {worst_metric_diff:.3e},\n  \"ceiling_speedup\": {ceiling_speedup:.3},\n  \"deterministic\": {all_deterministic},\n  \"workers\": {workers},\n  \"midscale_speedup_vs_serial\": {midscale_geomean:.3},\n  \"worst_kron_pi_diff\": {worst_kron_pi_diff:.3e},\n  \"min_kron_memory_ratio\": {min_kron_memory_ratio:.2}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_exact.json", &json).expect("write BENCH_exact.json");
    println!("\nwrote BENCH_exact.json");

    // Acceptance gates (same philosophy as bench_lp / bench_sweep:
    // correctness hard-fails at the acceptance threshold, timing hard-fails
    // only below a conservative floor).
    if worst_pi_diff > 1e-8 || worst_metric_diff > 1e-8 {
        eprintln!(
            "FAIL: dense-vs-sparse disagreement (pi {worst_pi_diff:.2e}, metrics {worst_metric_diff:.2e}, gate 1e-8)"
        );
        std::process::exit(1);
    }
    if scale_ratio < 10.0 {
        eprintln!(
            "FAIL: at-scale models only {scale_ratio:.1}x the dense ceiling (gate >= 10x)"
        );
        std::process::exit(1);
    }
    if !all_deterministic {
        eprintln!("FAIL: sparse engine not bitwise worker-count invariant");
        std::process::exit(1);
    }
    if ceiling_speedup < 2.0 {
        eprintln!(
            "FAIL: sparse engine only {ceiling_speedup:.1}x the dense path at the ceiling (gate >= 2x)"
        );
        std::process::exit(1);
    }
    if ceiling_speedup < 5.0 {
        eprintln!("WARN: ceiling speedup {ceiling_speedup:.1}x below the expected ~10x+ (noisy runner?)");
    }
    // Kronecker-tier gates: the implicit representation must agree with
    // the materialized engine (1e-8, same bar as dense-vs-sparse) and must
    // actually deliver its memory claim on every recorded model.
    if worst_kron_pi_diff > 1e-8 {
        eprintln!(
            "FAIL: materialized-vs-implicit pi disagreement {worst_kron_pi_diff:.2e} (gate 1e-8)"
        );
        std::process::exit(1);
    }
    if min_kron_memory_ratio < 5.0 {
        eprintln!(
            "FAIL: generator-memory reduction only {min_kron_memory_ratio:.1}x (gate >= 5x)"
        );
        std::process::exit(1);
    }
    if !implicit_gs_ok {
        eprintln!(
            "FAIL: implicit {} answered by {} in {} sweeps vs {} materialized (gate: GaussSeidel, <= 1.1x)",
            tpcw_ratio.name,
            tpcw_ratio.implicit_engine,
            tpcw_ratio.implicit_sweeps,
            tpcw_ratio.materialized_sweeps
        );
        std::process::exit(1);
    }
    if kron_implicit.jobs_err > 1e-8 {
        eprintln!(
            "FAIL: auto-routed implicit solve does not conserve the population (err {:.2e})",
            kron_implicit.jobs_err
        );
        std::process::exit(1);
    }
}

//! `ctmc_exact`: exact answers from the CTMC engines. Most come from
//! `solve(…, Accuracy::Exact, …)` on fig5 (SCV 16 and 4) and TPC-W models
//! of 2k–5k states, above the dense threshold, so they take the
//! materialized sparse Gauss–Seidel path. About one in five comes from
//! `solve_exact_with` on the factored (implicit Kronecker) generator of a
//! smaller TPC-W model, which is still the slowest kind of answer.
//!
//! The request grid is fixed; the seed draws the order of each pass.
//! Neighbouring fig5 SCV 4 populations stall Gauss–Seidel and take seconds
//! each, so only the two that converge normally are asked.

use crate::harness::{
    close_rel, conserves_jobs, end_to_end_faster_half, exact_error, per_layer, repeat_setup,
    same_metrics, shuffle, trace_metrics, Config, Outcome, Pass, Tally,
};
use crate::spans::Recorder;
use mapqn_core::exact::solve_exact_with;
use mapqn_core::statespace::build_state_space;
use mapqn_core::templates::{figure5_network, tpcw_network, TpcwParameters};
use mapqn_core::{
    solve, Accuracy, ClosedNetwork, Engine, ExactOptions, FactoredGenerator,
    GeneratorRepresentation, NetworkMetrics, SolveOptions,
};
use mapqn_linalg::SolveBudget;
use mapqn_markov::{
    stationary_sparse, stationary_sparse_op, SparseSteadyOptions, SparseSteadyReport,
    SteadyStateOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Tpcw,
    Fig5Scv16,
    Fig5Scv4,
}

/// Materialized requests: family and populations, 2k–5k states. The TPC-W
/// populations step evenly so that answer times spread without gaps, and
/// the grid holds an odd number of requests so that the nearest-rank p50
/// and p90 fall inside one request's cluster of times, not on the edge
/// between two.
const MATERIALIZED: &[(Family, &[usize])] = &[
    (
        Family::Tpcw,
        &[44, 46, 48, 50, 52, 54, 56, 58, 60, 62, 64, 66, 68],
    ),
    (Family::Fig5Scv16, &[44, 46, 48, 52]),
    (Family::Fig5Scv4, &[48, 50]),
];
/// Factored requests: TPC-W populations of 1.0k–1.2k states, the slowest
/// answers of a pass.
const FACTORED: &[usize] = &[30, 31, 32, 33];

const TINY_MATERIALIZED: &[(Family, &[usize])] = &[(Family::Tpcw, &[44])];
const TINY_FACTORED: &[usize] = &[10];

/// Agreement required between the factored and materialized solutions.
const AGREE_TOL: f64 = 1e-8;

struct Request {
    network: ClosedNetwork,
    factored: bool,
    /// Materialized solution of a factored request's model.
    reference: Option<NetworkMetrics>,
    /// First answer seen; later passes must repeat it bitwise.
    first: Option<NetworkMetrics>,
}

/// Builds the models (MAP fits included), solves every factored model
/// materialized for reference, and answers one request of each kind
/// untimed.
fn set_up(cfg: &Config) -> Result<Vec<Request>, String> {
    let (materialized, factored) = if cfg.tiny {
        (TINY_MATERIALIZED, TINY_FACTORED)
    } else {
        (MATERIALIZED, FACTORED)
    };
    let err = |e: mapqn_core::CoreError| e.to_string();
    let tpcw = tpcw_network(&TpcwParameters::default()).map_err(err)?;
    let base = |family| -> Result<ClosedNetwork, String> {
        Ok(match family {
            Family::Tpcw => tpcw.clone(),
            Family::Fig5Scv16 => figure5_network(1, 16.0, 0.5).map_err(err)?,
            Family::Fig5Scv4 => figure5_network(1, 4.0, 0.5).map_err(err)?,
        })
    };
    let mut requests = Vec::new();
    for &(family, populations) in materialized {
        let model = base(family)?;
        for &n in populations {
            requests.push(Request {
                network: model.with_population(n).map_err(err)?,
                factored: false,
                reference: None,
                first: None,
            });
        }
    }
    for &n in factored {
        let network = tpcw.with_population(n).map_err(err)?;
        // Sparse rather than dense GTH, so the reference does not set the
        // run's peak memory.
        let options = ExactOptions {
            representation: GeneratorRepresentation::Materialized,
            steady_state: SteadyStateOptions {
                dense_threshold: 0,
                ..SteadyStateOptions::default()
            },
            ..ExactOptions::default()
        };
        let reference = solve_exact_with(&network, &options).map_err(err)?;
        requests.push(Request {
            network,
            factored: true,
            reference: Some(reference),
            first: None,
        });
    }
    // Warm up on the first request of each kind in grid order, so set-up
    // does the same work whatever the seed.
    let warm_up = Config {
        corrupt_answer: None,
        ..cfg.clone()
    };
    let mut tally = Tally::default();
    for factored in [false, true] {
        if let Some(request) = requests.iter_mut().find(|r| r.factored == factored) {
            answer(&warm_up, request, 0, &mut tally, &mut 0);
        }
    }
    shuffle(&mut requests, &mut StdRng::seed_from_u64(cfg.seed));
    Ok(requests)
}

/// Answers one request through the front door and checks it; `ordinal`
/// counts the run's answers before this one.
fn answer(
    cfg: &Config,
    request: &mut Request,
    ordinal: usize,
    tally: &mut Tally,
    attempts: &mut usize,
) {
    let n = request.network.population();
    let start = Instant::now();
    let result = if request.factored {
        let options = ExactOptions {
            representation: GeneratorRepresentation::Factored,
            ..ExactOptions::default()
        };
        solve_exact_with(&request.network, &options).map(|m| (m, true, 1))
    } else {
        solve(
            &request.network,
            n,
            Accuracy::Exact,
            SolveBudget::unlimited(),
        )
        .map(|s| {
            let met = s.accuracy_met && s.engine == Engine::SparseExact;
            (s.metrics, met, s.attempts.len())
        })
    };
    let latency = start.elapsed();
    tally.call_time += latency;
    let Ok((mut metrics, met, tries)) = result else {
        *attempts += 1;
        tally.answer(latency, None, false);
        return;
    };
    *attempts += tries;
    cfg.maybe_corrupt(ordinal, &mut metrics.system_throughput);
    let agrees = request.reference.as_ref().is_none_or(|r| {
        close_rel(r.system_throughput, metrics.system_throughput, AGREE_TOL)
            && r.mean_queue_length
                .iter()
                .zip(&metrics.mean_queue_length)
                .all(|(a, b)| close_rel(*a, *b, AGREE_TOL))
    });
    let repeats = match &request.first {
        Some(first) => same_metrics(first, &metrics),
        None => {
            request.first = Some(metrics.clone());
            true
        }
    };
    let ok = met && conserves_jobs(&metrics, n) && agrees && repeats;
    tally.answer(latency, Some(exact_error()), ok);
}

/// Layer figures of a traced pass.
#[derive(Default)]
struct Layers {
    build: Duration,
    materialized: usize,
    states: usize,
    sparse: Duration,
    sparse_sweeps: usize,
    residual_max: f64,
    factored_build: Duration,
    factored: usize,
    factored_solve: Duration,
    factored_sweeps: usize,
}

/// The π of a traced solve is a distribution with a finite residual.
fn report_ok(report: &SparseSteadyReport) -> bool {
    let total: f64 = report.pi.as_slice().iter().sum();
    report.residual.is_finite() && (total - 1.0).abs() <= 1e-9
}

/// Answers one request by calling its layers directly, each in a span.
fn answer_traced(
    request: &Request,
    id: u64,
    rec: &mut Recorder,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let options = SparseSteadyOptions::default();
    let root = rec.open("bench.answer", None, id);
    let start = Instant::now();
    let report = if request.factored {
        let t = Instant::now();
        let op = rec.time("factored.build", Some(root), id, || {
            FactoredGenerator::new(&request.network, ExactOptions::default().max_states)
        });
        layers.factored_build += t.elapsed();
        let t = Instant::now();
        let report = op.ok().map(|op| {
            rec.time("factored.solve", Some(root), id, || {
                stationary_sparse_op(&op, &options)
            })
        });
        layers.factored_solve += t.elapsed();
        layers.factored += 1;
        report
            .and_then(Result::ok)
            .inspect(|r| layers.factored_sweeps += r.sweeps)
    } else {
        let cap = usize::try_from(SolveOptions::default().exact_state_cap).unwrap_or(usize::MAX);
        let t = Instant::now();
        let space = rec.time("statespace.build", Some(root), id, || {
            build_state_space(&request.network, cap)
        });
        layers.build += t.elapsed();
        layers.materialized += 1;
        let t = Instant::now();
        let report = space.ok().map(|space| {
            layers.states += space.len();
            rec.time("sparse_steady.solve", Some(root), id, || {
                stationary_sparse(space.ctmc(), &options)
            })
        });
        layers.sparse += t.elapsed();
        report.and_then(Result::ok).inspect(|r| {
            layers.sparse_sweeps += r.sweeps;
            layers.residual_max = layers.residual_max.max(r.residual);
        })
    };
    rec.close(root);
    let ok = report.as_ref().is_some_and(report_ok);
    tally.answer(start.elapsed(), Some(exact_error()), ok);
}

/// Runs the workload.
///
/// # Errors
/// A set-up failure (no result is printed then).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        return run_traced(cfg);
    }
    let (mut requests, setup_times) = repeat_setup(|| set_up(cfg))?;
    let mut tally = Tally::default();
    let mut passes = Vec::new();
    let mut attempts = 0;
    let start = Instant::now();
    while passes.is_empty() || !cfg.done(start, tally.answers()) {
        let mut pass = Tally::default();
        let pass_start = Instant::now();
        for request in &mut requests {
            let ordinal = tally.answers() + pass.answers();
            answer(cfg, request, ordinal, &mut pass, &mut attempts);
        }
        tally.absorb(&pass);
        passes.push(Pass {
            wall: pass_start.elapsed(),
            tally: pass,
        });
    }
    let run_passes = passes.len();
    let (metrics, timed, timed_passes) =
        end_to_end_faster_half(passes, &tally, &setup_times, crate::harness::peak_rss_mb()?);
    let mut stamp = vec![("answers", tally.answers().to_string())];
    stamp.extend(
        timed
            .sample_stamp()
            .into_iter()
            .filter(|(key, _)| *key != "answers"),
    );
    stamp.push(("pool_width", cfg.workload.pool_width().to_string()));
    stamp.push(("requests_per_pass", requests.len().to_string()));
    stamp.push(("passes", run_passes.to_string()));
    stamp.push(("timed_passes", timed_passes.to_string()));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        stamp,
        spans: None,
    })
}

/// The traced run: untraced passes through the front doors for half the
/// run, then as many passes with every layer called directly inside its own
/// span.
fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let mut requests = set_up(cfg)?;
    let mut untraced = Tally::default();
    let mut attempts = 0;
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < cfg.seconds / 2.0 {
        for request in &mut requests {
            let ordinal = untraced.answers();
            answer(cfg, request, ordinal, &mut untraced, &mut attempts);
        }
        passes += 1;
    }
    let untraced_aps = untraced.answers() as f64 / start.elapsed().as_secs_f64();

    let mut rec = Recorder::new();
    let mut layers = Layers::default();
    let mut traced = Tally::default();
    let start = Instant::now();
    for _ in 0..passes {
        for request in &requests {
            let id = traced.answers() as u64;
            answer_traced(request, id, &mut rec, &mut layers, &mut traced);
        }
    }
    let traced_aps = traced.answers() as f64 / start.elapsed().as_secs_f64();

    let ms_per = |d: Duration, n: usize| d.as_secs_f64() * 1e3 / n.max(1) as f64;
    let us_per = |d: Duration, n: usize| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    let mut values = BTreeMap::new();
    values.insert(
        "statespace.build_ms",
        ms_per(layers.build, layers.materialized),
    );
    values.insert("statespace.states", (layers.states / passes) as f64);
    values.insert(
        "statespace.states_per_s",
        layers.states as f64 / layers.build.as_secs_f64().max(f64::MIN_POSITIVE),
    );
    values.insert(
        "sparse_steady.solve_ms",
        ms_per(layers.sparse, layers.materialized),
    );
    values.insert(
        "sparse_steady.sweeps",
        (layers.sparse_sweeps / passes) as f64,
    );
    values.insert(
        "sparse_steady.us_per_sweep",
        us_per(layers.sparse, layers.sparse_sweeps),
    );
    values.insert("sparse_steady.residual_max", layers.residual_max);
    values.insert(
        "factored.build_ms",
        ms_per(layers.factored_build, layers.factored),
    );
    values.insert(
        "factored.solve_ms",
        ms_per(layers.factored_solve, layers.factored),
    );
    values.insert("factored.sweeps", (layers.factored_sweeps / passes) as f64);
    values.insert(
        "factored.us_per_sweep",
        us_per(layers.factored_solve, layers.factored_sweeps),
    );
    values.insert(
        "solve.attempts_per_answer",
        attempts as f64 / untraced.answers().max(1) as f64,
    );
    trace_metrics(
        &mut values,
        &rec,
        untraced.call_time,
        untraced_aps,
        traced_aps,
    );

    let mut stamp = traced.sample_stamp();
    stamp.push(("pool_width", cfg.workload.pool_width().to_string()));
    stamp.push(("requests_per_pass", requests.len().to_string()));
    stamp.push(("passes", passes.to_string()));
    stamp.push((
        "layer_base",
        "\"times are ms per answer of the layer's kind; sweeps and states are totals per pass\""
            .into(),
    ));
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: per_layer(&values),
        stamp,
        spans: Some(rec),
    })
}

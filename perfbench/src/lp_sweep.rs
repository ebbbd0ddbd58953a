//! `lp_sweep`: serial `PopulationSweep::bounds_at` over increasing N on
//! the fig8 case study and on seeded Table 1 random models, with one cold
//! `solve(…, Accuracy::Certified, …)` per model at a mid-range N.
//!
//! A pass sweeps every model once. The Table 1 models come from a fixed
//! generator seed: their bounds differ so much in tightness that a
//! seed-drawn set would move `quoted_error_rel` by more than any sensible
//! bound. The run seed draws the order of the pass and each model's cold
//! population.

use crate::harness::{
    close_rel, interval_error, intervals_valid, per_layer, repeat_setup, same_bounds, shuffle,
    trace_metrics, Config, LpTotals, Outcome, Tally,
};
use crate::spans::Recorder;
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::templates::figure5_network;
use mapqn_core::{
    solve, solve_exact, Accuracy, ClosedNetwork, Engine, MarginalBoundSolver, NetworkBounds,
    PopulationSweep, Quality,
};
use mapqn_linalg::SolveBudget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Table 1 models per pass, besides the fig8 case study.
const RANDOM_MODELS: usize = 40;

/// Generator seed of the Table 1 models.
const MODEL_SEED: u64 = 0x7AB1E1;
const TINY_RANDOM_MODELS: usize = 1;

/// Each sweep runs N = 1..=N_MAX.
const N_MAX: usize = 8;
const TINY_N_MAX: usize = 3;

/// Population whose sweep answer must bracket the sparse-exact reference.
const EXACT_N: usize = 3;

/// Cold solves run at a mid-range N drawn from here.
const COLD_N: std::ops::Range<usize> = 4..7;
const TINY_COLD_N: usize = 2;

/// Relative agreement required between a sweep answer and a cold solve.
const AGREE_TOL: f64 = 1e-6;

struct Model {
    network: ClosedNetwork,
    cold_n: usize,
    /// Exact system throughput at [`EXACT_N`].
    exact_x: f64,
}

/// Which answer of a model a reference belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Sweep(usize),
    Cold,
}

struct Setup {
    models: Vec<Model>,
    n_max: usize,
    /// First answer seen for every (model, slot); later passes must repeat
    /// it bitwise.
    references: HashMap<(usize, Slot), NetworkBounds>,
}

/// Builds the models (MAP fits included), their exact references, and
/// sweeps the case study once untimed.
fn set_up(cfg: &Config) -> Result<Setup, String> {
    let mut model_rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (count, n_max) = if cfg.tiny {
        (TINY_RANDOM_MODELS, TINY_N_MAX)
    } else {
        (RANDOM_MODELS, N_MAX)
    };
    let mut networks = vec![figure5_network(1, 16.0, 0.5).map_err(|e| e.to_string())?];
    for _ in 0..count {
        let model =
            random_model(&RandomModelSpec::default(), &mut model_rng).map_err(|e| e.to_string())?;
        networks.push(model.network);
    }
    let mut models = Vec::with_capacity(networks.len());
    for network in networks {
        let at_exact = network
            .with_population(EXACT_N)
            .map_err(|e| e.to_string())?;
        let exact_x = solve_exact(&at_exact)
            .map_err(|e| e.to_string())?
            .system_throughput;
        let cold_n = if cfg.tiny {
            TINY_COLD_N
        } else {
            rng.gen_range(COLD_N)
        };
        models.push(Model {
            network,
            cold_n,
            exact_x,
        });
    }
    // Case study first, then the random models in seeded order.
    shuffle(&mut models[1..], &mut rng);
    let mut setup = Setup {
        models,
        n_max,
        references: HashMap::new(),
    };
    let warm_up = Config {
        corrupt_answer: None,
        ..cfg.clone()
    };
    run_model(
        &warm_up,
        &mut setup,
        0,
        &mut Tally::default(),
        &mut Pass::default(),
        None,
    );
    Ok(setup)
}

/// Layer figures one pass collected.
#[derive(Default)]
struct Pass {
    lp: LpTotals,
    dual_warm: usize,
    seed_rejections: usize,
    dense_fallbacks: usize,
    attempts: usize,
}

/// Checks an answer against the first answer seen for its slot.
fn repeats(setup: &mut Setup, model: usize, slot: Slot, bounds: &NetworkBounds) -> bool {
    match setup.references.get(&(model, slot)) {
        Some(reference) => same_bounds(reference, bounds),
        None => {
            setup.references.insert((model, slot), bounds.clone());
            true
        }
    }
}

/// Sweeps one model and answers its cold solve.
fn run_model(
    cfg: &Config,
    setup: &mut Setup,
    index: usize,
    tally: &mut Tally,
    pass: &mut Pass,
    mut rec: Option<&mut Recorder>,
) {
    let network = setup.models[index].network.clone();
    let (cold_n, exact_x) = (setup.models[index].cold_n, setup.models[index].exact_x);
    let mut sweep: Option<PopulationSweep> = None;
    let mut swept: Vec<NetworkBounds> = Vec::with_capacity(setup.n_max);
    for n in 1..=setup.n_max {
        let answer_id = tally.answers() as u64;
        let span = rec
            .as_deref_mut()
            .map(|r| r.open("sweep.bounds_at", None, answer_id));
        let start = Instant::now();
        // The first answer of a model includes opening its sweep.
        let result = (|| {
            if sweep.is_none() {
                sweep = Some(PopulationSweep::new(&network)?);
            }
            sweep.as_mut().expect("opened above").bounds_at(n)
        })();
        let latency = start.elapsed();
        tally.call_time += latency;
        let timings = sweep
            .as_ref()
            .and_then(|s| s.last_solver())
            .map(|s| s.timings());
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
            r.close(id);
            if let Some(t) = &timings {
                r.phases(id, &LpTotals::phases_of(t));
            }
        }
        let Ok(mut bounds) = result else {
            // A failed sweep answer fails the rest of this model's pass.
            tally.answer(latency, None, false);
            return;
        };
        if let Some(t) = &timings {
            pass.lp.add(t);
        }
        pass.attempts += bounds.diagnostics.attempts.len().max(1);
        cfg.maybe_corrupt(tally.answers(), &mut bounds.system_throughput.lower);
        let ok = bounds.quality != Quality::Asymptotic
            && intervals_valid(&bounds)
            && (n != EXACT_N
                || bounds
                    .system_throughput
                    .contains(exact_x, AGREE_TOL * exact_x))
            && repeats(setup, index, Slot::Sweep(n), &bounds);
        tally.answer(latency, Some(interval_error(&bounds)), ok);
        swept.push(bounds);
    }
    if let Some(s) = &sweep {
        let stats = s.stats();
        pass.dual_warm += stats.dual_warm_objectives;
        pass.seed_rejections += stats.dual_seed_rejections;
        pass.dense_fallbacks += stats.dense_fallbacks;
    }

    // Untraced, the cold answer goes through the `solve()` front door.
    // Traced, it calls the bounds layer `solve()` routes to directly — the
    // same solver and options, so the answer must repeat bitwise — to read
    // its phase profile.
    let answer_id = tally.answers() as u64;
    let span = rec
        .as_deref_mut()
        .map(|r| r.open("solve.certified", None, answer_id));
    let start = Instant::now();
    let result = if span.is_some() {
        network
            .with_population(cold_n)
            .and_then(|net| MarginalBoundSolver::new(&net))
            .and_then(|mut solver| {
                let bounds = solver.bound_all()?;
                let met = bounds.quality != Quality::Asymptotic;
                Ok((Some(bounds), met, 1, Some(solver.timings())))
            })
    } else {
        solve(
            &network,
            cold_n,
            Accuracy::Certified,
            SolveBudget::unlimited(),
        )
        .map(|s| {
            let bounds = s.bounds.filter(|_| s.engine == Engine::LpBounds);
            (bounds, s.accuracy_met, s.attempts.len(), None)
        })
    };
    let latency = start.elapsed();
    tally.call_time += latency;
    if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
        r.close(id);
    }
    let Ok((bounds, met, tries, timings)) = result else {
        tally.answer(latency, None, false);
        return;
    };
    if let (Some(r), Some(id), Some(t)) = (rec, span, &timings) {
        r.phases(id, &LpTotals::phases_of(t));
    }
    if let Some(t) = &timings {
        pass.lp.add(t);
    }
    pass.attempts += tries;
    let Some(mut bounds) = bounds else {
        tally.answer(latency, None, false);
        return;
    };
    cfg.maybe_corrupt(tally.answers(), &mut bounds.system_throughput.lower);
    let warm = &swept[cold_n - 1];
    let agrees = |a: f64, b: f64| close_rel(a, b, AGREE_TOL);
    let ok = met
        && intervals_valid(&bounds)
        && agrees(bounds.system_throughput.lower, warm.system_throughput.lower)
        && agrees(bounds.system_throughput.upper, warm.system_throughput.upper)
        && repeats(setup, index, Slot::Cold, &bounds);
    tally.answer(latency, Some(interval_error(&bounds)), ok);
}

/// One pass: every model once.
fn run_pass(
    cfg: &Config,
    setup: &mut Setup,
    tally: &mut Tally,
    pass: &mut Pass,
    mut rec: Option<&mut Recorder>,
) {
    for index in 0..setup.models.len() {
        run_model(cfg, setup, index, tally, pass, rec.as_deref_mut());
    }
}

/// Runs the workload.
///
/// # Errors
/// A set-up failure (no result is printed then).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        return run_traced(cfg);
    }
    let (mut setup, setup_times) = repeat_setup(|| set_up(cfg))?;
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || !cfg.done(start, tally.answers()) {
        run_pass(cfg, &mut setup, &mut tally, &mut Pass::default(), None);
        passes += 1;
    }
    let wall = start.elapsed();
    let mut stamp = tally.sample_stamp();
    stamp.push(("pool_width", "1".into()));
    stamp.push(("models", setup.models.len().to_string()));
    stamp.push(("passes", passes.to_string()));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: tally.end_to_end(&setup_times, wall, crate::harness::peak_rss_mb()?),
        stamp,
        spans: None,
    })
}

/// The traced run: one untraced pass, then the same pass traced.
fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let mut setup = set_up(cfg)?;
    let mut untraced = Tally::default();
    let start = Instant::now();
    run_pass(cfg, &mut setup, &mut untraced, &mut Pass::default(), None);
    let untraced_aps = untraced.answers() as f64 / start.elapsed().as_secs_f64();

    let mut rec = Recorder::new();
    let mut traced = Tally::default();
    let mut pass = Pass::default();
    let start = Instant::now();
    run_pass(cfg, &mut setup, &mut traced, &mut pass, Some(&mut rec));
    let traced_aps = traced.answers() as f64 / start.elapsed().as_secs_f64();

    let mut values = BTreeMap::new();
    pass.lp.insert_metrics(&mut values);
    let seeded = pass.dual_warm + pass.seed_rejections;
    if seeded > 0 {
        values.insert(
            "sweep.dual_warm_frac",
            pass.dual_warm as f64 / seeded as f64,
        );
    }
    values.insert("sweep.dense_fallbacks", pass.dense_fallbacks as f64);
    values.insert(
        "solve.attempts_per_answer",
        pass.attempts as f64 / traced.answers().max(1) as f64,
    );
    trace_metrics(
        &mut values,
        &rec,
        untraced.call_time,
        untraced_aps,
        traced_aps,
    );

    let mut stamp = traced.sample_stamp();
    stamp.push(("pool_width", "1".into()));
    stamp.push(("models", setup.models.len().to_string()));
    stamp.push((
        "lp_base",
        pass.lp.base("bound_all solves of one traced pass"),
    ));
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: per_layer(&values),
        stamp,
        spans: Some(rec),
    })
}

//! `planning_stream`: one `PlanningSession` over the TPC-W server tier
//! answers a seeded stream of `Population` and `ScaleDemand` what-ifs in
//! batches of two on a two-worker pool.
//!
//! A round asks every key of a fixed grid twice: the first time is a cold
//! LP solve, the second a verified cache hit, in a fixed pattern of batch
//! kinds. The seed draws the order of the round. Between rounds an identity
//! delta bumps the session's topology version, which evicts the cache, so
//! every round does the same work and about half its answers are hits.

use crate::harness::{
    interval_error, per_layer, percentile, repeat_setup, same_bounds, shuffle, trace_metrics,
    Config, LpTotals, Outcome, Tally, POOL_WIDTH,
};
use crate::spans::Recorder;
use mapqn_core::bounds::{MarginalBoundSolver, Rung};
use mapqn_core::templates::{tpcw_server_tier, TpcwParameters};
use mapqn_core::{
    AnswerSource, ClosedNetwork, NetworkBounds, PlanningAnswer, PlanningRequest, PlanningSession,
    Service, SessionOptions, Station, WhatIf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Multiprogramming levels asked about: small cold LPs (well under 50 ms).
const POPULATIONS: std::ops::RangeInclusive<usize> = 3..=12;
const TINY_POPULATIONS: std::ops::RangeInclusive<usize> = 3..=4;

/// Database demand multipliers asked about.
const DB_FACTORS: [f64; 6] = [0.8, 0.9, 1.0, 1.1, 1.2, 1.3];
const TINY_DB_FACTORS: usize = 2;

/// The database station of the server tier (exponential service).
const DB_STATION: usize = 1;

/// Questions per `run_batch` call.
const BATCH: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    population: usize,
    factor: usize,
}

impl Key {
    fn request(self) -> PlanningRequest {
        PlanningRequest::new(
            format!("N={} db x{}", self.population, DB_FACTORS[self.factor]),
            vec![
                WhatIf::ScaleDemand {
                    station: DB_STATION,
                    factor: DB_FACTORS[self.factor],
                },
                WhatIf::Population(self.population),
            ],
        )
    }

    /// The model the session resolves this key to, built the same way:
    /// the database rate divided by the factor.
    fn model(self, base: &ClosedNetwork) -> Result<ClosedNetwork, String> {
        let mut stations: Vec<Station> = base.stations().to_vec();
        let db = &mut stations[DB_STATION];
        db.service = match db.service {
            Service::Exponential { rate } => {
                Service::exponential(rate / DB_FACTORS[self.factor]).map_err(|e| e.to_string())?
            }
            _ => return Err("server-tier database is not exponential".into()),
        };
        ClosedNetwork::new(stations, base.routing_matrix().clone(), self.population)
            .map_err(|e| e.to_string())
    }
}

/// The batches of one cycle, by slot: `true` repeats a key asked earlier
/// in the cycle (a cache hit), `false` asks a new key (a cold solve). A
/// cycle asks four keys cold and then once more each: a quarter of the
/// answers share a batch with another cold solve, half share one with a
/// hit, and a quarter are hit pairs.
const CYCLE: [[bool; BATCH]; 4] = [[false, false], [true, false], [false, true], [true, true]];

/// Seed of the fixed split of the key grid into cycles. Which keys share a
/// cold batch decides the latency mix, so the split does not vary with the
/// run seed.
const LAYOUT_SEED: u64 = 0x5E55_1011;

/// One round: every key of the grid asked twice. The run seed draws the
/// order of the cycles and which earlier key each hit repeats.
fn round(cfg: &Config) -> Vec<Vec<Key>> {
    let (populations, factors) = if cfg.tiny {
        (TINY_POPULATIONS, TINY_DB_FACTORS)
    } else {
        (POPULATIONS, DB_FACTORS.len())
    };
    let mut keys: Vec<Key> = populations
        .flat_map(|population| (0..factors).map(move |factor| Key { population, factor }))
        .collect();
    assert_eq!(
        keys.len() % CYCLE.len(),
        0,
        "the key grid fills whole cycles"
    );
    shuffle(&mut keys, &mut StdRng::seed_from_u64(LAYOUT_SEED));
    let mut cycles: Vec<&[Key]> = keys.chunks(CYCLE.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    shuffle(&mut cycles, &mut rng);
    let mut batches = Vec::new();
    for cycle in cycles {
        let mut cold = cycle.iter().copied();
        let mut pending: Vec<Key> = Vec::new();
        for slots in CYCLE {
            let mut fresh = Vec::new();
            let batch = slots
                .iter()
                .map(|&repeat| {
                    if repeat {
                        pending.swap_remove(rng.gen_range(0..pending.len()))
                    } else {
                        let key = cold.next().expect("a cycle holds four keys");
                        fresh.push(key);
                        key
                    }
                })
                .collect();
            pending.extend(fresh);
            batches.push(batch);
        }
    }
    batches
}

/// Evicts every cached entry: an identity delta still bumps the topology
/// version, and the scaled rate is bitwise unchanged.
fn invalidate(session: &mut PlanningSession) -> Result<(), String> {
    session
        .apply(&[WhatIf::ScaleDemand {
            station: DB_STATION,
            factor: 1.0,
        }])
        .map_err(|e| e.to_string())
}

struct Setup {
    session: PlanningSession,
    batches: Vec<(Vec<Key>, Vec<PlanningRequest>)>,
    /// The cold answer of every key, from the warm-up round.
    references: HashMap<Key, NetworkBounds>,
}

/// Builds the tier (MAP fit included), opens the session on `threads`
/// workers and answers one untimed round, whose cold answers become the
/// references.
fn set_up(cfg: &Config, threads: usize) -> Result<Setup, String> {
    let model = tpcw_server_tier(&TpcwParameters::default()).map_err(|e| e.to_string())?;
    let mut session = PlanningSession::with_options(
        model,
        SessionOptions {
            threads,
            ..SessionOptions::default()
        },
    );
    let batches: Vec<(Vec<Key>, Vec<PlanningRequest>)> = round(cfg)
        .into_iter()
        .map(|keys| {
            let requests = keys.iter().map(|k| k.request()).collect();
            (keys, requests)
        })
        .collect();
    let mut references = HashMap::new();
    for (keys, requests) in &batches {
        for (key, answer) in keys.iter().zip(session.run_batch(requests)) {
            let answer = answer.map_err(|e| format!("warm-up {key:?}: {e}"))?;
            references.entry(*key).or_insert(answer.bounds);
        }
    }
    invalidate(&mut session)?;
    Ok(Setup {
        session,
        batches,
        references,
    })
}

/// Checks one answer against its key's cold reference.
fn check(answer: &PlanningAnswer, reference: &NetworkBounds) -> bool {
    answer.is_valid()
        && !matches!(answer.rung, Rung::Fluid | Rung::Floor)
        && same_bounds(&answer.bounds, reference)
}

/// What one pass over a set of rounds saw, beyond the tally.
#[derive(Default)]
struct Seen {
    hit_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    /// Σ elapsed of answers that ran a solve job on the pool.
    solve_busy: Duration,
    attempts: usize,
}

/// Answers rounds until `stop` says so, checking every answer.
fn run_rounds(
    cfg: &Config,
    setup: &mut Setup,
    tally: &mut Tally,
    seen: &mut Seen,
    mut rec: Option<&mut Recorder>,
    mut stop: impl FnMut(usize, &Tally) -> bool,
) -> Result<usize, String> {
    let mut rounds = 0;
    loop {
        for (keys, requests) in &setup.batches {
            let first = tally.answers() as u64;
            let span = rec
                .as_deref_mut()
                .map(|r| r.open("planning.run_batch", None, first));
            let start = Instant::now();
            let answers = setup.session.run_batch(requests);
            let latency = start.elapsed();
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                r.close(id);
            }
            tally.call_time += latency;
            for (key, answer) in keys.iter().zip(answers) {
                let ordinal = tally.answers();
                match answer {
                    Ok(mut answer) => {
                        cfg.maybe_corrupt(ordinal, &mut answer.bounds.system_throughput.lower);
                        let ok = check(&answer, &setup.references[key]);
                        tally.answer(latency, Some(interval_error(&answer.bounds)), ok);
                        let ms = answer.elapsed.as_secs_f64() * 1e3;
                        match answer.source {
                            AnswerSource::CacheHit => seen.hit_ms.push(ms),
                            _ => {
                                seen.solve_ms.push(ms);
                                seen.solve_busy += answer.elapsed;
                            }
                        }
                        seen.attempts += answer.bounds.diagnostics.attempts.len().max(1);
                    }
                    Err(_) => tally.answer(latency, None, false),
                }
            }
        }
        invalidate(&mut setup.session)?;
        rounds += 1;
        if stop(rounds, tally) {
            return Ok(rounds);
        }
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
    let (mut setup, setup_times) = repeat_setup(|| set_up(cfg, POOL_WIDTH))?;
    let mut tally = Tally::default();
    let start = Instant::now();
    run_rounds(
        cfg,
        &mut setup,
        &mut tally,
        &mut Seen::default(),
        None,
        |_, t| cfg.done(start, t.answers()),
    )?;
    let wall = start.elapsed();
    let mut stamp = tally.sample_stamp();
    stamp.push(("pool_width", POOL_WIDTH.to_string()));
    stamp.push(("batch", BATCH.to_string()));
    stamp.push(("keys_per_round", setup.references.len().to_string()));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: tally.end_to_end(&setup_times, wall, crate::harness::peak_rss_mb()?),
        stamp,
        spans: None,
    })
}

/// The traced run: an untraced pass, the same rounds traced, the same
/// rounds again on a one-worker session (whose answers must match bitwise),
/// and one shadow `bound_all` per key for the LP phase profile the session
/// does not expose.
fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let mut setup = set_up(cfg, POOL_WIDTH)?;
    let share = cfg.seconds / 3.0;

    let mut untraced = Tally::default();
    let start = Instant::now();
    let rounds = run_rounds(
        cfg,
        &mut setup,
        &mut untraced,
        &mut Seen::default(),
        None,
        |_, t| start.elapsed().as_secs_f64() >= share && t.answers() >= cfg.min_answers(),
    )?;
    let untraced_aps = untraced.answers() as f64 / start.elapsed().as_secs_f64();

    let stats_before = setup.session.stats();
    let mut rec = Recorder::new();
    let mut traced = Tally::default();
    let mut seen = Seen::default();
    let start = Instant::now();
    run_rounds(
        cfg,
        &mut setup,
        &mut traced,
        &mut seen,
        Some(&mut rec),
        |r, _| r >= rounds,
    )?;
    let traced_aps = traced.answers() as f64 / start.elapsed().as_secs_f64();
    let stats = setup.session.stats();

    let mut serial = set_up(cfg, 1)?;
    let mut serial_tally = Tally::default();
    let start = Instant::now();
    run_rounds(
        cfg,
        &mut serial,
        &mut serial_tally,
        &mut Seen::default(),
        None,
        |r, _| r >= rounds,
    )?;
    let serial_aps = serial_tally.answers() as f64 / start.elapsed().as_secs_f64();
    // Worker count must not change an answer: the one-worker session's cold
    // answers repeat the two-worker ones bitwise.
    let worker_mismatches = setup
        .references
        .iter()
        .filter(|(key, bounds)| !same_bounds(bounds, &serial.references[key]))
        .count();

    let base = serial.session.base().clone();
    let mut lp = LpTotals::default();
    let mut keys: Vec<Key> = setup.references.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let mut solver = MarginalBoundSolver::new(&key.model(&base)?).map_err(|e| e.to_string())?;
        solver
            .bound_all()
            .map_err(|e| format!("shadow solve {key:?}: {e}"))?;
        lp.add(&solver.timings());
    }

    let answers = traced.answers().max(1) as f64;
    let requests = (stats.requests - stats_before.requests).max(1) as f64;
    let mut values = BTreeMap::new();
    values.insert(
        "planning.cache_hit_frac",
        seen.hit_ms.len() as f64 / answers,
    );
    values.insert("planning.hit_ms_p50", percentile(&seen.hit_ms, 0.5));
    values.insert("planning.solve_ms_p50", percentile(&seen.solve_ms, 0.5));
    values.insert(
        "planning.certified_frac",
        (stats.certified_answers - stats_before.certified_answers) as f64 / requests,
    );
    values.insert("planning.quarantines", stats.quarantines as f64);
    values.insert(
        "par.busy_frac",
        seen.solve_busy.as_secs_f64() / (POOL_WIDTH as f64 * traced.call_time.as_secs_f64()),
    );
    values.insert("par.speedup", untraced_aps / serial_aps);
    lp.insert_metrics(&mut values);
    values.insert("solve.attempts_per_answer", seen.attempts as f64 / answers);
    trace_metrics(
        &mut values,
        &rec,
        untraced.call_time,
        untraced_aps,
        traced_aps,
    );

    let mut stamp = traced.sample_stamp();
    stamp.push(("pool_width", POOL_WIDTH.to_string()));
    stamp.push(("rounds_per_pass", rounds.to_string()));
    stamp.push(("lp_base", lp.base("shadow bound_all solves, one per key")));
    stamp.push((
        "planning_base",
        "\"latencies are PlanningAnswer.elapsed; fractions are over the traced pass\"".into(),
    ));
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted + serial_tally.attempted,
        failed: untraced.failed + traced.failed + serial_tally.failed + worker_mismatches,
        metrics: per_layer(&values),
        stamp,
        spans: Some(rec),
    })
}

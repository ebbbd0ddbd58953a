//! Capacity-planning *service* benchmark: a long-lived [`PlanningSession`]
//! replaying the TPC-W server-tier what-if stream a planning service
//! actually receives, plus a fault storm over every `mapqn-faults` site.
//!
//! Two legs, both over the bursty TPC-W server tier (SCV 16, ACF decay
//! 0.85 — Figure 3's fitted parameters):
//!
//! 1. **Sustained QPS replay** — the multiprogramming-level sweep asked
//!    over and over, the way dashboards poll a planning service. Round 1
//!    cold-solves and populates the warm-basis cache; every later round
//!    must be answered entirely from verified cache hits, **bitwise
//!    identical** to the cold answers (the determinism contract).
//! 2. **Fault storm** — every fault site armed round-robin (window
//!    `0:all`, one site per request) across a replay with repeating keys.
//!    Gates: ≥ 99% of requests return a valid quality-tagged answer, zero
//!    process aborts, and every answer served as a cache hit stays bitwise
//!    identical to its cold reference.
//!
//! Run with `cargo run --release -p mapqn-bench --bin bench_service`.
//! `MAPQN_SCALE=full` enlarges the experiment. Writes `BENCH_service.json`
//! and exits non-zero on any gate failure.

use mapqn_bench::{Scale, Table};
use mapqn_core::templates::{tpcw_server_tier, TpcwParameters};
use mapqn_core::{
    AnswerSource, NetworkBounds, PlanningAnswer, PlanningRequest, PlanningSession, WhatIf,
};
use mapqn_sim::CacheServerParameters;
use std::collections::HashMap;
use std::time::Instant;

/// Number of differing interval-endpoint bits between two bound sets
/// (0 means bit-identical).
fn bitwise_mismatches(a: &NetworkBounds, b: &NetworkBounds) -> usize {
    let differs = |x: f64, y: f64| usize::from(x.to_bits() != y.to_bits());
    let mut mismatches = 0usize;
    for k in 0..a.throughput.len() {
        for (ia, ib) in [
            (&a.throughput[k], &b.throughput[k]),
            (&a.utilization[k], &b.utilization[k]),
            (&a.mean_queue_length[k], &b.mean_queue_length[k]),
        ] {
            mismatches += differs(ia.lower, ib.lower) + differs(ia.upper, ib.upper);
        }
    }
    mismatches
        + differs(a.system_throughput.lower, b.system_throughput.lower)
        + differs(a.system_throughput.upper, b.system_throughput.upper)
        + differs(a.system_response_time.lower, b.system_response_time.lower)
        + differs(a.system_response_time.upper, b.system_response_time.upper)
}

fn tier_model() -> mapqn_core::ClosedNetwork {
    let params = TpcwParameters {
        front_mean: CacheServerParameters::default().mean_service_time(),
        ..TpcwParameters::default()
    };
    tpcw_server_tier(&params).expect("server-tier network")
}

fn sweep_requests(max_level: usize) -> Vec<PlanningRequest> {
    (1..=max_level)
        .map(|n| PlanningRequest::new(format!("mpl={n}"), vec![WhatIf::Population(n)]))
        .collect()
}

struct QpsLeg {
    answers: usize,
    cold_ms: f64,
    warm_ms: f64,
    sustained_qps: f64,
    cache_hits: u64,
    expected_hits: u64,
    bitwise_mismatches: usize,
    invalid: usize,
}

/// Leg 1: the sustained what-if replay — cold round, then hit-only rounds
/// checked bitwise against the cold answers.
fn run_qps_leg(max_level: usize, rounds: usize) -> QpsLeg {
    let _guard = mapqn_faults::exclusive();
    let requests = sweep_requests(max_level);
    let mut session = PlanningSession::new(tier_model());

    let start = Instant::now();
    let cold: Vec<PlanningAnswer> = session
        .run_batch(&requests)
        .into_iter()
        .map(|a| a.expect("cold solve of the tier sweep"))
        .collect();
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut mismatches = 0usize;
    let mut invalid = cold.iter().filter(|a| !a.is_valid()).count();
    let mut answers = cold.len();
    let start = Instant::now();
    for _ in 1..rounds {
        for (reference, answer) in cold.iter().zip(session.run_batch(&requests)) {
            let answer = answer.expect("warm replay of the tier sweep");
            answers += 1;
            if !answer.is_valid() {
                invalid += 1;
            }
            if answer.source != AnswerSource::CacheHit {
                // A warm round that misses the cache is a determinism bug;
                // surface it through the bitwise counter path below.
                eprintln!("warm round missed the cache for '{}'", answer.label);
            }
            mismatches += bitwise_mismatches(&reference.bounds, &answer.bounds);
        }
    }
    let warm_ms = start.elapsed().as_secs_f64() * 1e3;
    let warm_answers = answers - cold.len();

    QpsLeg {
        answers,
        cold_ms,
        warm_ms,
        sustained_qps: warm_answers as f64 / (warm_ms / 1e3).max(1e-9),
        cache_hits: session.stats().cache_hits,
        expected_hits: warm_answers as u64,
        bitwise_mismatches: mismatches,
        invalid,
    }
}

struct StormLeg {
    requests: usize,
    valid: usize,
    valid_fraction: f64,
    cache_hits_checked: usize,
    bitwise_mismatches: usize,
    quarantines: u64,
    breaker_short_circuits: u64,
    contained_panics: u64,
    degraded_answers: u64,
}

/// Leg 2: the fault storm. Every site of [`mapqn_faults::FaultSite::ALL`]
/// is armed round-robin with a fire-always window while a replay with
/// repeating keys runs; the session must keep answering.
fn run_storm_leg(span: usize, storm_requests: usize) -> StormLeg {
    let mut session = PlanningSession::new(tier_model());

    // Clean warm round: the cold references the bitwise gate compares
    // cache hits against, and the entries the storm's `cache-poison`
    // rounds will corrupt.
    let mut cold: HashMap<usize, PlanningAnswer> = HashMap::new();
    {
        let _guard = mapqn_faults::exclusive();
        for answer in session.run_batch(&sweep_requests(span)) {
            let answer = answer.expect("clean warm round");
            cold.insert(answer.population, answer);
        }
    }

    let sites = mapqn_faults::FaultSite::ALL;
    let mut valid = 0usize;
    let mut hits_checked = 0usize;
    let mut mismatches = 0usize;
    for i in 0..storm_requests {
        let level = 1 + (i % span);
        let site = sites[i % sites.len()];
        let request = PlanningRequest::new(
            format!("storm {i}: mpl={level} under {}", site.name()),
            vec![WhatIf::Population(level)],
        );
        let answer = {
            let _guard = mapqn_faults::arm(site, 0, u64::MAX);
            session.ask(&request)
        };
        match answer {
            Ok(answer) => {
                if answer.is_valid() {
                    valid += 1;
                }
                if answer.source == AnswerSource::CacheHit {
                    hits_checked += 1;
                    // INFALLIBLE: every storm level was answered in the clean warm round.
                    let reference = cold.get(&answer.population).expect("cold reference");
                    mismatches += bitwise_mismatches(&reference.bounds, &answer.bounds);
                }
            }
            Err(e) => {
                eprintln!("storm request {i} errored (gate counts it invalid): {e}");
            }
        }
    }

    let stats = session.stats();
    StormLeg {
        requests: storm_requests,
        valid,
        valid_fraction: valid as f64 / storm_requests as f64,
        cache_hits_checked: hits_checked,
        bitwise_mismatches: mismatches,
        quarantines: stats.quarantines,
        breaker_short_circuits: stats.breaker_short_circuits,
        contained_panics: stats.contained_panics,
        degraded_answers: stats.degraded_answers,
    }
}

fn main() {
    let scale = Scale::from_env();
    let max_level = scale.pick(8, 12);
    let rounds = scale.pick(4, 8);
    let storm_span = scale.pick(5, 8);
    let storm_requests = scale.pick(36, 90);

    println!("Planning-service benchmark: TPC-W server-tier what-if stream\n");

    let qps = run_qps_leg(max_level, rounds);
    let storm = run_storm_leg(storm_span, storm_requests);

    let mut table = Table::new(&["leg", "answers", "metric", "hits", "bit diffs", "invalid"]);
    table.add_row(vec![
        "qps_replay".into(),
        qps.answers.to_string(),
        format!("{:.0} qps warm", qps.sustained_qps),
        format!("{}/{}", qps.cache_hits, qps.expected_hits),
        qps.bitwise_mismatches.to_string(),
        qps.invalid.to_string(),
    ]);
    table.add_row(vec![
        "fault_storm".into(),
        storm.requests.to_string(),
        format!("{:.1}% valid", storm.valid_fraction * 100.0),
        storm.cache_hits_checked.to_string(),
        storm.bitwise_mismatches.to_string(),
        (storm.requests - storm.valid).to_string(),
    ]);
    table.print();

    println!(
        "\ncold sweep: {:.1} ms, warm replay: {:.1} ms ({:.0} answers/s sustained)",
        qps.cold_ms, qps.warm_ms, qps.sustained_qps
    );
    println!(
        "storm: {} quarantines, {} breaker short-circuits, {} contained panics, {} degraded answers",
        storm.quarantines, storm.breaker_short_circuits, storm.contained_panics,
        storm.degraded_answers
    );

    // Emit BENCH_service.json (hand-rolled JSON; no serde in the offline
    // set). The benchmark reaching this line IS the zero-abort evidence:
    // every fault and panic was contained in-process.
    let json = format!(
        "{{\n  \"benchmark\": \"planning_service_session\",\n  \"scale\": \"{scale:?}\",\n  \"qps_replay\": {{\"answers\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"sustained_qps\": {:.1}, \"cache_hits\": {}, \"expected_hits\": {}, \"bitwise_mismatches\": {}, \"invalid\": {}}},\n  \"fault_storm\": {{\"requests\": {}, \"valid\": {}, \"valid_fraction\": {:.4}, \"cache_hits_checked\": {}, \"bitwise_mismatches\": {}, \"quarantines\": {}, \"breaker_short_circuits\": {}, \"contained_panics\": {}, \"degraded_answers\": {}}},\n  \"process_aborts\": 0\n}}\n",
        qps.answers,
        qps.cold_ms,
        qps.warm_ms,
        qps.sustained_qps,
        qps.cache_hits,
        qps.expected_hits,
        qps.bitwise_mismatches,
        qps.invalid,
        storm.requests,
        storm.valid,
        storm.valid_fraction,
        storm.cache_hits_checked,
        storm.bitwise_mismatches,
        storm.quarantines,
        storm.breaker_short_circuits,
        storm.contained_panics,
        storm.degraded_answers,
    );
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    println!("\nwrote BENCH_service.json");

    // Acceptance gates.
    if qps.invalid > 0 {
        eprintln!(
            "FAIL: {} invalid answers on the fault-free leg (gate 0)",
            qps.invalid
        );
        std::process::exit(1);
    }
    if qps.cache_hits != qps.expected_hits {
        eprintln!(
            "FAIL: warm replay served {} cache hits, expected {}",
            qps.cache_hits, qps.expected_hits
        );
        std::process::exit(1);
    }
    if qps.bitwise_mismatches > 0 {
        eprintln!(
            "FAIL: {} interval endpoints differ between cache hits and cold solves",
            qps.bitwise_mismatches
        );
        std::process::exit(1);
    }
    if storm.valid_fraction < 0.99 {
        eprintln!(
            "FAIL: only {:.2}% of fault-storm requests produced valid answers (gate 99%)",
            storm.valid_fraction * 100.0
        );
        std::process::exit(1);
    }
    if storm.bitwise_mismatches > 0 {
        eprintln!(
            "FAIL: {} storm cache-hit endpoints differ from their cold references",
            storm.bitwise_mismatches
        );
        std::process::exit(1);
    }
    if storm.quarantines == 0 {
        eprintln!("FAIL: the storm's cache-poison rounds never exercised quarantine");
        std::process::exit(1);
    }
}

//! Cache-correctness properties of the fault-tolerant planning session.
//!
//! The contract under test: a request's answer is a pure function of the resolved model, so
//!
//! 1. a warm cache hit returns the memoized cold answer **bitwise**;
//! 2. a poisoned entry quarantines its key and the transparent fallback
//!    re-runs exactly the cold path — again bitwise identical;
//! 3. poisoning one key leaves every neighboring request untouched;
//! 4. two independent sessions under the same base salt agree bit for bit;
//! 5. a fault storm over every fault site leaves the session answering.

use mapqn_core::templates::{figure5_network, tpcw_server_tier, TpcwParameters};
use mapqn_core::{
    AnswerSource, NetworkBounds, PlanningRequest, PlanningSession, Quality, SessionOptions,
    WhatIf,
};
use mapqn_faults::FaultSite;
use proptest::prelude::*;

/// Arms a window that never fires, overriding any `MAPQN_FAULT`
/// environment selection for the guard's lifetime.
fn quiet() -> mapqn_faults::FaultGuard {
    mapqn_faults::arm(FaultSite::LpIterations, 0, 0)
}

/// Bit-exact equality of every interval in two bound sets.
fn bitwise_eq(a: &NetworkBounds, b: &NetworkBounds) -> bool {
    let iv = |x: &mapqn_core::BoundInterval, y: &mapqn_core::BoundInterval| {
        x.lower.to_bits() == y.lower.to_bits() && x.upper.to_bits() == y.upper.to_bits()
    };
    a.throughput.len() == b.throughput.len()
        && a.throughput.iter().zip(&b.throughput).all(|(x, y)| iv(x, y))
        && a.utilization.iter().zip(&b.utilization).all(|(x, y)| iv(x, y))
        && a.mean_queue_length
            .iter()
            .zip(&b.mean_queue_length)
            .all(|(x, y)| iv(x, y))
        && iv(&a.system_throughput, &b.system_throughput)
        && iv(&a.system_response_time, &b.system_response_time)
}

fn request(n: usize) -> PlanningRequest {
    PlanningRequest::new(format!("N={n}"), vec![WhatIf::Population(n)])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Warm hits return the memoized cold answer verbatim, for random
    /// models and populations.
    #[test]
    fn warm_hit_is_bitwise_identical_to_the_cold_solve(
        scv in 1.0f64..16.0,
        n in 2usize..7,
    ) {
        let _guard = quiet();
        let mut session = PlanningSession::new(figure5_network(n, scv, 0.5).unwrap());
        let cold = session.ask(&request(n)).unwrap();
        prop_assert_eq!(cold.source, AnswerSource::Solve);
        prop_assert_eq!(cold.bounds.quality, Quality::Certified);
        let warm = session.ask(&request(n)).unwrap();
        prop_assert_eq!(warm.source, AnswerSource::CacheHit);
        prop_assert!(bitwise_eq(&cold.bounds, &warm.bounds));
        prop_assert_eq!(session.stats().cache_hits, 1);
    }

    /// A poisoned entry is quarantined and the transparent fallback
    /// re-runs exactly the cold path — bitwise identical — and the key is
    /// never cached again.
    #[test]
    fn quarantined_fallback_agrees_bitwise_with_the_cold_solve(
        scv in 1.0f64..16.0,
        n in 2usize..7,
    ) {
        let mut session = PlanningSession::new(figure5_network(n, scv, 0.5).unwrap());
        let cold = {
            let _guard = quiet();
            session.ask(&request(n)).unwrap()
        };
        let fallback = {
            let _guard = mapqn_faults::arm(FaultSite::CachePoison, 0, 1);
            session.ask(&request(n)).unwrap()
        };
        prop_assert_eq!(fallback.source, AnswerSource::QuarantineFallback);
        prop_assert_eq!(fallback.bounds.quality, Quality::Certified);
        prop_assert!(bitwise_eq(&cold.bounds, &fallback.bounds));
        prop_assert_eq!(session.stats().quarantines, 1);
        // Quarantine is permanent for the key: later asks cold-solve
        // (still bitwise identical) and the cache stays empty.
        let after = {
            let _guard = quiet();
            session.ask(&request(n)).unwrap()
        };
        prop_assert_eq!(after.source, AnswerSource::Solve);
        prop_assert!(bitwise_eq(&cold.bounds, &after.bounds));
        prop_assert_eq!(session.cache_len(), 0);
    }

    /// Poisoning one cached key leaves the answers of every neighboring
    /// key untouched (bitwise).
    #[test]
    fn cache_poison_does_not_leak_into_neighboring_requests(
        scv in 1.0f64..16.0,
        victim in 0usize..3,
    ) {
        let populations = [3usize, 4, 5];
        let requests: Vec<PlanningRequest> =
            populations.iter().map(|&n| request(n)).collect();
        let mut session = PlanningSession::new(figure5_network(3, scv, 0.5).unwrap());
        // Round 1: cold solves populate the cache.
        let cold = {
            let _guard = quiet();
            session.run_batch(&requests)
        };
        // Round 2: poison exactly the victim's cache-hit consultation
        // (hit ordinals are assigned serially in request order).
        let replay = {
            let _guard = mapqn_faults::arm(FaultSite::CachePoison, victim as u64, 1);
            session.run_batch(&requests)
        };
        for (i, (c, r)) in cold.iter().zip(&replay).enumerate() {
            let c = c.as_ref().unwrap();
            let r = r.as_ref().unwrap();
            if i == victim {
                prop_assert_eq!(r.source, AnswerSource::QuarantineFallback);
            } else {
                prop_assert_eq!(r.source, AnswerSource::CacheHit);
            }
            // Poisoned or not, every answer stays bitwise faithful to its
            // cold solve.
            prop_assert!(bitwise_eq(&c.bounds, &r.bounds), "request {} diverged", i);
            prop_assert_eq!(r.bounds.quality, Quality::Certified);
        }
        prop_assert_eq!(session.stats().quarantines, 1);
    }

    /// Two independent sessions under the same base salt produce bitwise
    /// identical answers for the same request stream.
    #[test]
    fn independent_sessions_with_equal_salts_agree_bitwise(
        scv in 1.0f64..16.0,
        n in 2usize..7,
        salt in 0u64..u64::MAX,
    ) {
        let _guard = quiet();
        let options = SessionOptions {
            base_salt: salt,
            ..SessionOptions::default()
        };
        let network = figure5_network(n, scv, 0.5).unwrap();
        let mut a = PlanningSession::with_options(network.clone(), options.clone());
        let mut b = PlanningSession::with_options(network, options);
        let x = a.ask(&request(n)).unwrap();
        let y = b.ask(&request(n)).unwrap();
        prop_assert!(bitwise_eq(&x.bounds, &y.bounds));
    }
}

/// Topology-changing commits invalidate cached entries (versioned
/// invalidation), so a what-if stream can never be answered by bases of a
/// structurally different model.
#[test]
fn topology_commit_forces_fresh_solves() {
    let _guard = quiet();
    let mut session = PlanningSession::new(figure5_network(4, 4.0, 0.5).unwrap());
    session.ask(&request(4)).unwrap();
    assert_eq!(session.cache_len(), 1);
    session
        .apply(&[WhatIf::ScaleDemand {
            station: 0,
            factor: 2.0,
        }])
        .unwrap();
    let after = session.ask(&request(4)).unwrap();
    assert_eq!(after.source, AnswerSource::Solve);
    assert_eq!(after.bounds.quality, Quality::Certified);
}

/// The fault storm: on the bursty TPC-W server tier, a clean cold round
/// and a clean replay (every answer a cache hit, bitwise equal to the cold
/// one), then 36 requests over the same five keys with every fault site
/// armed round-robin, one site per request. At least 99% of the storm's
/// answers are valid, nothing aborts, the cache-poison requests reach
/// quarantine, and every storm answer served from the cache is bitwise
/// equal to its clean cold answer.
#[test]
fn fault_storm_over_every_site_keeps_answering() {
    let requests: Vec<PlanningRequest> = (1..=5).map(request).collect();
    let mut session = PlanningSession::new(tpcw_server_tier(&TpcwParameters::default()).unwrap());
    let cold: Vec<_> = {
        let _guard = quiet();
        let cold: Vec<_> = session
            .run_batch(&requests)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        for (c, warm) in cold.iter().zip(session.run_batch(&requests)) {
            let warm = warm.unwrap();
            assert_eq!(warm.source, AnswerSource::CacheHit);
            assert!(c.is_valid() && bitwise_eq(&c.bounds, &warm.bounds));
        }
        cold
    };
    let storm = 36;
    let mut valid = 0;
    for i in 0..storm {
        let site = FaultSite::ALL[i % FaultSite::ALL.len()];
        let reference = &cold[i % requests.len()];
        let answer = {
            let _guard = mapqn_faults::arm(site, 0, u64::MAX);
            session.ask(&requests[i % requests.len()])
        };
        let Ok(answer) = answer else { continue };
        valid += usize::from(answer.is_valid());
        if answer.source == AnswerSource::CacheHit {
            assert!(
                bitwise_eq(&reference.bounds, &answer.bounds),
                "storm request {i} under {} diverged from its cold answer",
                site.name()
            );
        }
    }
    assert!(
        valid * 100 >= storm * 99,
        "{valid}/{storm} valid storm answers"
    );
    assert!(
        session.stats().quarantines > 0,
        "the storm never reached quarantine"
    );
}

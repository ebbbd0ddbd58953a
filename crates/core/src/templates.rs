//! The concrete networks used by the paper's figures.
//!
//! * [`figure5_network`] — the running example of Section 2: a shared link
//!   (queue 1) feeding two application servers, one of which has MAP
//!   service; routing probabilities as in the Section 3.2 case study.
//! * [`figure4_tandem`] — the two-queue tandem used to demonstrate the
//!   failure of decomposition and ABA bounds on autocorrelated service.
//! * [`tpcw_network`] — the closed three-station model of the TPC-W testbed
//!   (Figure 2): a client think station, the front/application server and
//!   the database server.

use crate::network::{ClosedNetwork, Station};
use crate::service::Service;
use crate::Result;
use mapqn_linalg::DMatrix;
use mapqn_stochastic::{fit_map2, Map2FitSpec};

/// Builds the example network of Figure 5 with the case-study parameters of
/// Section 3.2: routing probabilities `p11 = 0.2`, `p12 = 0.7`, `p13 = 0.1`,
/// exponential queues 1 and 2, and a MAP(2) queue 3 whose squared
/// coefficient of variation is `cv^2 = scv` and whose autocorrelation decays
/// geometrically at rate `gamma2`.
///
/// Rates are chosen so that queue 3 is the bottleneck ("Bottleneck Queue 3"
/// in Figure 8): the MAP queue has unit mean service time while the other
/// queues are faster.
///
/// # Errors
/// Propagates network-construction and MAP-fitting failures.
pub fn figure5_network(population: usize, scv: f64, gamma2: f64) -> Result<ClosedNetwork> {
    let routing = DMatrix::from_row_slice(
        3,
        3,
        &[
            0.2, 0.7, 0.1, // queue 1: self-loop, to queue 2, to queue 3
            1.0, 0.0, 0.0, // queue 2 returns to queue 1
            1.0, 0.0, 0.0, // queue 3 returns to queue 1
        ],
    );
    // Visit ratios are v = (1, 0.7, 0.1); choosing service rates so that the
    // MAP queue's demand dominates (0.1 * 4.0 = 0.4 versus 0.25 and 0.175)
    // makes queue 3 the bottleneck as in the paper's case study.
    let map = fit_map2(&Map2FitSpec::new(4.0, scv, gamma2))?.map;
    ClosedNetwork::new(
        vec![
            Station::queue("link", Service::exponential(4.0)?),
            Station::queue("app-server-1", Service::exponential(4.0)?),
            Station::queue("app-server-2 (MAP)", Service::map(map)),
        ],
        routing,
        population,
    )
}

/// Builds the two-queue closed tandem of Figure 4: queue 1 has MAP service
/// with the given descriptors, queue 2 is exponential. Both queues have unit
/// visit ratios.
///
/// # Errors
/// Propagates network-construction and MAP-fitting failures.
pub fn figure4_tandem(
    population: usize,
    map_mean: f64,
    map_scv: f64,
    map_gamma: f64,
    exp_rate: f64,
) -> Result<ClosedNetwork> {
    let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
    let map = fit_map2(&Map2FitSpec::new(map_mean, map_scv, map_gamma))?.map;
    ClosedNetwork::new(
        vec![
            Station::queue("queue-1 (MAP)", Service::map(map)),
            Station::queue("queue-2", Service::exponential(exp_rate)?),
        ],
        routing,
        population,
    )
}

/// Parameters of the TPC-W model of Figure 2.
#[derive(Debug, Clone, Copy)]
pub struct TpcwParameters {
    /// Number of emulated browsers (the closed population).
    pub browsers: usize,
    /// Mean client think time (TPC-W specifies exponential think times).
    pub think_time: f64,
    /// Mean service time of the front/application server.
    pub front_mean: f64,
    /// Squared coefficient of variation of the front-server service process.
    pub front_scv: f64,
    /// Autocorrelation decay rate of the front-server service process
    /// (set to zero for the "no ACF" model of Figure 3, row II).
    pub front_acf_decay: f64,
    /// Mean service time of the database server.
    pub db_mean: f64,
    /// Probability that a front-server completion issues a database query
    /// (the `p` branch in Figure 2); with probability `1 - p` the reply goes
    /// back to the client.
    pub db_query_probability: f64,
}

impl Default for TpcwParameters {
    fn default() -> Self {
        Self {
            browsers: 384,
            think_time: 7.0,
            front_mean: 0.011,
            front_scv: 16.0,
            front_acf_decay: 0.85,
            db_mean: 0.0045,
            db_query_probability: 0.65,
        }
    }
}

/// Builds the closed TPC-W model of Figure 2: clients (delay station) →
/// front server → {database with probability `p`, client with `1 - p`};
/// database replies return to the front server.
///
/// Station order: 0 = clients, 1 = front server, 2 = database server.
///
/// When `front_acf_decay > 0` the front server gets a fitted MAP(2) service
/// process (the "ACF model" of Figure 3); with `front_acf_decay == 0` and
/// `front_scv == 1` it degenerates to the exponential, no-ACF model.
///
/// # Errors
/// Propagates network-construction and MAP-fitting failures.
pub fn tpcw_network(params: &TpcwParameters) -> Result<ClosedNetwork> {
    let p = params.db_query_probability;
    let routing = DMatrix::from_row_slice(
        3,
        3,
        &[
            0.0, 1.0, 0.0, // client requests go to the front server
            1.0 - p, 0.0, p, // front: reply to client or query the DB
            0.0, 1.0, 0.0, // DB replies return to the front server
        ],
    );
    let front_service = if params.front_scv > 1.0 || params.front_acf_decay > 0.0 {
        let scv = params.front_scv.max(1.0);
        let map = fit_map2(&Map2FitSpec::new(
            params.front_mean,
            scv,
            params.front_acf_decay,
        ))?
        .map;
        Service::map(map)
    } else {
        Service::exponential(1.0 / params.front_mean)?
    };
    ClosedNetwork::new(
        vec![
            Station::delay("clients", params.think_time)?,
            Station::queue("front-server", front_service),
            Station::queue("database", Service::exponential(1.0 / params.db_mean)?),
        ],
        routing,
        params.browsers,
    )
}

/// Builds the closed **server-tier** subnetwork of the TPC-W model: front
/// server (bursty MAP service per `front_scv` / `front_acf_decay`) and
/// database, with the client/think stage removed — the queue-only closed
/// network a hierarchical think-time decomposition yields when the
/// multiprogramming level is fixed. A front completion issues a database
/// query with probability `db_query_probability`; with the complementary
/// probability the reply leaves the tier and is immediately replaced by the
/// next admitted request (the front self-loop).
///
/// The population is the multiprogramming level (in-flight requests); the
/// returned network carries `params.browsers` as a default and is meant to
/// be re-instantiated per level by a sweep or ensemble. This is the model
/// family behind the capacity-planning example and the SCV×ACF grid of
/// `bench_ensemble` — including the SCV=8 / decay-0.6 instance that
/// historically broke the revised engine at `N = 7` (fixed by the LP row
/// equilibration; `tests/tpcw_server_tier.rs` keeps every answer there on
/// the ladder's direct rung).
///
/// # Errors
/// Propagates network-construction and MAP-fitting failures.
pub fn tpcw_server_tier(params: &TpcwParameters) -> Result<ClosedNetwork> {
    let p = params.db_query_probability;
    let routing = DMatrix::from_row_slice(2, 2, &[1.0 - p, p, 1.0, 0.0]);
    let front = fit_map2(&Map2FitSpec::new(
        params.front_mean,
        params.front_scv,
        params.front_acf_decay,
    ))?
    .map;
    ClosedNetwork::new(
        vec![
            Station::queue("front-server", Service::map(front)),
            Station::queue("database", Service::exponential(1.0 / params.db_mean)?),
        ],
        routing,
        params.browsers.max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapqn_linalg::approx_eq;

    #[test]
    fn figure5_network_structure() {
        let net = figure5_network(10, 4.0, 0.5).unwrap();
        assert_eq!(net.num_stations(), 3);
        assert_eq!(net.population(), 10);
        assert!(net.is_queue_only());
        assert!(!net.is_exponential());
        // Visit ratios (1, 0.7, 0.1).
        let v = net.visit_ratios().unwrap();
        assert!(approx_eq(v[0], 1.0, 1e-9));
        assert!(approx_eq(v[1], 0.7, 1e-9));
        assert!(approx_eq(v[2], 0.1, 1e-9));
        // Queue 3 is the bottleneck by demand.
        let d = net.service_demands().unwrap();
        assert!(d[2] > d[0] && d[2] > d[1]);
        // The MAP queue has the requested SCV and decay rate.
        let service = &net.station(2).service;
        assert!(approx_eq(service.scv().unwrap(), 4.0, 1e-6));
    }

    #[test]
    fn figure4_tandem_structure() {
        let net = figure4_tandem(50, 1.0, 8.0, 0.6, 1.25).unwrap();
        assert_eq!(net.num_stations(), 2);
        assert_eq!(net.population(), 50);
        let d = net.service_demands().unwrap();
        assert!(approx_eq(d[0], 1.0, 1e-9));
        assert!(approx_eq(d[1], 0.8, 1e-9));
        assert!(net.station(0).service.lag1_autocorrelation().unwrap() > 0.0);
    }

    #[test]
    fn tpcw_network_structure() {
        let params = TpcwParameters {
            browsers: 64,
            ..TpcwParameters::default()
        };
        let net = tpcw_network(&params).unwrap();
        assert_eq!(net.num_stations(), 3);
        assert_eq!(net.population(), 64);
        assert!(!net.is_queue_only());
        // Visit ratios relative to the clients: each client request visits
        // the front server 1/(1-p) times and the DB p/(1-p) times.
        let v = net.visit_ratios().unwrap();
        let p = params.db_query_probability;
        assert!(approx_eq(v[1], 1.0 / (1.0 - p), 1e-9));
        assert!(approx_eq(v[2], p / (1.0 - p), 1e-9));
        // The front server carries autocorrelated service.
        assert!(net.station(1).service.lag1_autocorrelation().unwrap() > 0.0);
    }

    #[test]
    fn tpcw_server_tier_structure() {
        let params = TpcwParameters {
            browsers: 8,
            front_scv: 8.0,
            front_acf_decay: 0.6,
            ..TpcwParameters::default()
        };
        let tier = tpcw_server_tier(&params).unwrap();
        assert_eq!(tier.num_stations(), 2);
        assert_eq!(tier.population(), 8);
        assert!(tier.is_queue_only(), "the tier model must be LP-boundable");
        // Visit ratios relative to the front: the DB sees p visits per
        // front visit.
        let v = tier.visit_ratios().unwrap();
        assert!(approx_eq(v[1] / v[0], params.db_query_probability, 1e-9));
        assert!(tier.station(0).service.lag1_autocorrelation().unwrap() > 0.0);
    }

    #[test]
    fn tpcw_without_acf_is_exponential() {
        let params = TpcwParameters {
            browsers: 16,
            front_scv: 1.0,
            front_acf_decay: 0.0,
            ..TpcwParameters::default()
        };
        let net = tpcw_network(&params).unwrap();
        assert!(net.is_exponential());
    }
}

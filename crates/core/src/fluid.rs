//! Mean-field (fluid) engine for the millions-of-users regime.
//!
//! No exact or LP engine in this workspace reaches `N = 10^6` jobs: the
//! CTMC state space is combinatorial in `N` and the LP column count grows
//! with it. The fluid engine takes the opposite limit. Each station is
//! collapsed to its **drift equation**: with `x_k` the (now continuous)
//! number of jobs at station `k` and `r_k(x)` its instantaneous completion
//! rate, the mean-field dynamics are
//!
//! ```text
//! dx_k/dt = sum_j r_j(x) P[j -> k]  -  r_k(x)
//! ```
//!
//! where, writing `mu_k` for the station's long-run per-server completion
//! rate,
//!
//! * a single-server FCFS queue completes at `r_k = mu_k * min(x_k, 1)`
//!   (the server is busy a fraction `min(x_k, 1)` of the time), and
//! * a delay (infinite-server) station completes at `r_k = mu_k * x_k`
//!   (every job thinks in parallel).
//!
//! For MAP service, `mu_k` is the **effective rate of the stationary phase
//! mix** ([`mapqn_stochastic::Map::phase_mix`], `theta D1 1 = 1 / mean`):
//! in the mean-field limit the phase process of a busy server mixes on a
//! faster time scale than the queue contents, so only its long-run rate
//! survives. This collapse is what makes the solve `O(M · phases)` — the
//! phase structure enters once, through `mu_k`, independent of `N`.
//!
//! The fixed point `dx/dt = 0` is **closed form**: every station holds its
//! demand-proportional share at the asymptotic throughput, and the surplus
//! population parks on the highest-demand queues (see `fixed_point`). The
//! engine checks that allocation's drift residual against the tolerance,
//! then reports queue lengths, utilizations and throughput. The
//! reported queue lengths additionally carry a **finite-N variance
//! redistribution**: each sub-saturated queue is granted the
//! Pollaczek-Khinchine backlog `rho^2 (c_a^2 + c_s^2) / (2 (1 - rho))`
//! that service and arrival variability park behind it (a saturated MAP
//! bottleneck's index of dispersion sets the arrival term for the whole
//! circulation), and the vector is renormalized so `sum q = N` stays
//! exact — without it, every high-SCV model would need populations in the
//! hundreds before the pure drift answer is usable. The
//! fixed-point throughput equals the asymptotic-bound value
//! `min(1 / D_max, N / (Z + sum_k D_k))` — the fluid limit is exact where
//! the ABA bound is tight, and the approximation error at finite `N`
//! decays like `1/N` past the knee `N* = (Z + sum_k D_k) / D_max`. The
//! error is *measured*, never assumed: `tests/cross_solver_consistency.rs`
//! and the release-scale gates in `crates/bench/tests/release_gates.rs`
//! validate it against the sparse-exact reference, and the
//! [`mod@crate::solve`] router quotes the band recorded there.

use crate::metrics::NetworkMetrics;
use crate::network::{ClosedNetwork, StationKind};
use crate::service::Service;
use crate::{CoreError, Result};

/// Options of the fluid fixed-point solve.
#[derive(Debug, Clone, Copy)]
pub struct FluidOptions {
    /// Acceptance tolerance on the drift residual of the closed-form fixed
    /// point, relative to the largest station completion rate: the solve
    /// succeeds when `max_k |dx_k/dt| <= tolerance * max_k r_k`.
    pub tolerance: f64,
}

impl Default for FluidOptions {
    fn default() -> Self {
        Self { tolerance: 1e-10 }
    }
}

/// Fixed point of the mean-field dynamics, with solver diagnostics.
#[derive(Debug, Clone)]
pub struct FluidSolution {
    /// Point metrics at the fixed point. Mean queue lengths sum to the
    /// population exactly; `queue_length_distribution` is empty (the fluid
    /// limit carries means, not marginal distributions).
    pub metrics: NetworkMetrics,
    /// Asymptotic (`N -> infinity`) per-station population *fractions*:
    /// `1 / |B|` on the bottleneck set `B` (the queues of maximal service
    /// demand), `0` elsewhere. Computed from the demand vector alone —
    /// never from `N` — so two populations of the same network produce
    /// bitwise-identical fractions.
    pub fractions: Vec<f64>,
    /// Index of (one of) the bottleneck queue(s): the queue of maximal
    /// service demand `D_k = v_k / mu_k`.
    pub bottleneck: usize,
    /// Drift residual `max_k |dx_k/dt|` of the fixed point, relative to
    /// the largest station completion rate.
    pub residual: f64,
}

/// Per-station rate/demand profile shared by the fixed point, its residual
/// check and the asymptotic fractions.
struct Profile {
    /// Per-server long-run completion rate `mu_k` (phase-mix effective
    /// rate for MAP service).
    mu: Vec<f64>,
    /// Visit ratios `v_k` (station 0 = 1).
    visits: Vec<f64>,
    /// Service demands `D_k = v_k / mu_k` (delay stations contribute think
    /// demand).
    demands: Vec<f64>,
    /// Total queue demand `sum_{queues} D_k`.
    queue_demand: f64,
    /// Total think demand `Z = sum_{delays} D_k`.
    think_demand: f64,
    /// Maximal queue demand `D_max`.
    max_demand: f64,
    /// Queue stations within relative tolerance of `D_max`.
    bottlenecks: Vec<usize>,
}

/// Relative tie tolerance for the bottleneck set: queues within this
/// factor of `D_max` share the asymptotic surplus.
const BOTTLENECK_TIE: f64 = 1e-12;

fn profile(network: &ClosedNetwork) -> Result<Profile> {
    let m = network.num_stations();
    let visits = network.visit_ratios()?;
    let mut mu = Vec::with_capacity(m);
    for station in network.stations() {
        let rate = match &station.service {
            Service::Exponential { rate } => *rate,
            Service::Map(map) => map.phase_mix()?.effective_rate,
        };
        if !(rate.is_finite() && rate > 0.0) {
            return Err(CoreError::InvalidNetwork(format!(
                "station '{}' has non-positive effective service rate {rate}",
                station.name
            )));
        }
        mu.push(rate);
    }
    let mut demands = vec![0.0; m];
    let mut queue_demand = 0.0;
    let mut think_demand = 0.0;
    let mut max_demand = 0.0_f64;
    for k in 0..m {
        demands[k] = visits[k] / mu[k];
        match network.station(k).kind {
            StationKind::Queue => {
                queue_demand += demands[k];
                max_demand = max_demand.max(demands[k]);
            }
            StationKind::Delay => think_demand += demands[k],
        }
    }
    if max_demand <= 0.0 {
        return Err(CoreError::Unsupported(
            "the fluid engine needs at least one queue station (a delay-only \
             network has no bottleneck to saturate)"
                .into(),
        ));
    }
    let bottlenecks: Vec<usize> = (0..m)
        .filter(|&k| {
            matches!(network.station(k).kind, StationKind::Queue)
                && demands[k] >= max_demand * (1.0 - BOTTLENECK_TIE)
        })
        .collect();
    Ok(Profile {
        mu,
        visits,
        demands,
        queue_demand,
        think_demand,
        max_demand,
        bottlenecks,
    })
}

/// Closed-form fixed point of the drift: every station holds its
/// demand-proportional share `lambda_0 D_k` at the asymptotic throughput
/// `lambda_0 = min(1 / D_max, N / (Z + sum D))`; whatever population that
/// leaves over is parked, in equal parts, on the bottleneck queue(s).
///
/// Before the knee every queue holds `lambda_0 D_k <= 1` job and completes
/// at `lambda_0 v_k`; past it the bottlenecks hold at least one job and
/// run at `mu_k = v_k / D_max = lambda_0 v_k`; delay stations complete at
/// `lambda_0 v_k` either way. Every station's rate is thus proportional to
/// its visit ratio, which is exactly `dx/dt = 0`.
fn fixed_point(p: &Profile, population: f64) -> Vec<f64> {
    let lambda0 = (1.0 / p.max_demand).min(population / (p.think_demand + p.queue_demand));
    let mut x: Vec<f64> = p.demands.iter().map(|d| lambda0 * d).collect();
    let assigned: f64 = x.iter().sum();
    let surplus = (population - assigned).max(0.0);
    let share = surplus / p.bottlenecks.len() as f64;
    for &k in &p.bottlenecks {
        x[k] += share;
    }
    // Exact population conservation.
    let total: f64 = x.iter().sum();
    if total > 0.0 {
        let scale = population / total;
        for v in &mut x {
            *v *= scale;
        }
    }
    x
}

/// Lags summed for the asymptotic index of dispersion; geometric MAP ACFs
/// have decayed far below float precision by then.
const DISPERSION_LAGS: usize = 256;

/// Asymptotic index of dispersion for intervals of a service process,
/// `SCV * (1 + 2 sum_j acf_j)`: the variability (correlations included)
/// that a saturated server's departure stream carries into the rest of the
/// network. `1` for exponential service.
fn service_dispersion(service: &Service) -> Result<f64> {
    match service {
        Service::Exponential { .. } => Ok(1.0),
        Service::Map(map) => {
            let scv = map.scv()?;
            let acf_sum: f64 = map.autocorrelation_function(DISPERSION_LAGS)?.iter().sum();
            Ok((scv * (1.0 + 2.0 * acf_sum)).max(0.0))
        }
    }
}

/// Station completion rates `r_k(x)` of the mean-field dynamics.
fn completion_rates(network: &ClosedNetwork, p: &Profile, x: &[f64], r: &mut [f64]) {
    for k in 0..x.len() {
        r[k] = match network.station(k).kind {
            StationKind::Queue => p.mu[k] * x[k].min(1.0),
            StationKind::Delay => p.mu[k] * x[k],
        };
    }
}

/// Solves the mean-field fixed point with default options.
///
/// # Errors
/// See [`solve_fluid_with`].
pub fn solve_fluid(network: &ClosedNetwork) -> Result<FluidSolution> {
    solve_fluid_with(network, &FluidOptions::default())
}

/// Solves the mean-field fixed point of `network` at its configured
/// population.
///
/// The fixed point is closed form; checking its drift residual costs
/// `O(M^2)` in the station count (one routing-matrix transpose
/// application). Neither step depends on the population, which enters
/// only as the conserved mass of the drift system.
///
/// # Errors
/// * [`CoreError::Unsupported`] for delay-only networks (no queue to
///   saturate);
/// * [`CoreError::InvalidNetwork`] for zero population or non-positive
///   effective rates;
/// * [`mapqn_markov::MarkovError::NoConvergence`] (wrapped in
///   [`CoreError::Markov`]) when the fixed point's drift residual exceeds
///   [`FluidOptions::tolerance`] — also the failure injected by the
///   `fluid-nonconvergence` fault site, which the [`mod@crate::solve`] router
///   degrades past (down to the algebraic asymptotic floor) instead of
///   surfacing.
pub fn solve_fluid_with(network: &ClosedNetwork, options: &FluidOptions) -> Result<FluidSolution> {
    let m = network.num_stations();
    let n = network.population();
    if n == 0 {
        return Err(CoreError::InvalidNetwork(
            "the fluid engine needs a positive population".into(),
        ));
    }
    let p = profile(network)?;
    let population = n as f64;

    // The injected fluid failure: the engine abandons the solve exactly as
    // it would after a residual check that fails, so the callers'
    // degradation paths see the real error shape.
    if mapqn_faults::fire(mapqn_faults::FaultSite::FluidFixedPoint) {
        return Err(CoreError::Markov(mapqn_markov::MarkovError::NoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
        }));
    }

    let mut x = fixed_point(&p, population);
    let mut r = vec![0.0; m];
    completion_rates(network, &p, &x, &mut r);

    // Check the closed form against the drift equations:
    // drift_k = inflow_k - r_k, inflow through the routing transpose.
    let mut r_max = 0.0_f64;
    let mut residual = 0.0_f64;
    for k in 0..m {
        let mut inflow = 0.0;
        for (j, &rate) in r.iter().enumerate() {
            inflow += rate * network.routing(j, k);
        }
        residual = residual.max((inflow - r[k]).abs());
        r_max = r_max.max(r[k]);
    }
    residual /= if r_max > 0.0 { r_max } else { 1.0 };
    if residual > options.tolerance {
        return Err(CoreError::Markov(mapqn_markov::MarkovError::NoConvergence {
            iterations: 0,
            residual,
        }));
    }

    // `fixed_point` already conserves `N`; this second pass moves only the
    // last bit of some entries, and is kept so that answers stay bitwise
    // stable.
    let total: f64 = x.iter().sum();
    if total > 0.0 {
        let scale = population / total;
        for v in &mut x {
            *v *= scale;
        }
    }

    completion_rates(network, &p, &x, &mut r);
    // At the fixed point r_k = lambda v_k for every k; the visit-weighted
    // quotient is the least-squares lambda under residual noise.
    let visit_total: f64 = p.visits.iter().sum();
    let rate_total: f64 = r.iter().sum();
    let lambda = rate_total / visit_total;

    let mut throughput = vec![0.0; m];
    let mut utilization = vec![0.0; m];
    for k in 0..m {
        throughput[k] = lambda * p.visits[k];
        utilization[k] = match network.station(k).kind {
            StationKind::Queue => x[k].min(1.0),
            StationKind::Delay => x[k] / population,
        };
    }

    // Finite-N variance redistribution. The drift fixed point leaves a
    // sub-saturated queue (`rho_k = x_k < 1`) with exactly its utilization
    // in jobs, but the exact chain also holds the jobs queued behind
    // variability — to leading order the Pollaczek-Khinchine backlog
    // `rho^2 (c_a^2 + c_s^2) / (2 (1 - rho))`, with `c_s^2` the station's
    // own service SCV and `c_a^2` the variability of its arrival stream.
    // In a closed network the arrival term is set by whoever saturates:
    // a saturated bottleneck's departure process is its service counting
    // process, whose asymptotic index of dispersion
    // `SCV * (1 + 2 sum_j acf_j)` — correlations included — modulates
    // every queue in the circulation (no open-network flow thinning
    // applies to a closed loop). Below the knee nothing saturates and the
    // arrival streams stay exponential-like (`c_a^2 = 1`). Each backlog is
    // capped at `N / 2` so a near-saturated queue cannot claim the whole
    // population, and the vector is renormalized back to `N`, moving the
    // mass off the saturated/delay stations exactly as finite-N congestion
    // does. The throughput keeps its fixed-point (asymptotic-bound) value;
    // only the queue-length split — and with it the per-station response
    // times — is refined. This is where the MAP matters beyond its mean
    // rate: an SCV-16 bottleneck with geometric ACF parks an order of
    // magnitude more jobs behind the other queues than an exponential one
    // at the same utilizations.
    let mut arrival_variability = 1.0_f64;
    for (k, &xk) in x.iter().enumerate() {
        if matches!(network.station(k).kind, StationKind::Queue) && xk >= 1.0 {
            arrival_variability =
                arrival_variability.max(service_dispersion(&network.station(k).service)?);
        }
    }
    let mut q = x.clone();
    for (k, qk) in q.iter_mut().enumerate() {
        if matches!(network.station(k).kind, StationKind::Queue) && *qk < 1.0 {
            let rho = *qk;
            let scv = network.station(k).service.scv()?;
            let extra = rho * rho * (arrival_variability + scv) / (2.0 * (1.0 - rho));
            *qk += extra.min(population / 2.0);
        }
    }
    let total: f64 = q.iter().sum();
    if total > 0.0 {
        let scale = population / total;
        for v in &mut q {
            *v *= scale;
        }
    }

    let mut response_time = vec![0.0; m];
    for k in 0..m {
        response_time[k] = if throughput[k] > 0.0 {
            q[k] / throughput[k]
        } else {
            0.0
        };
    }

    // Asymptotic fractions: in the N -> infinity limit every non-bottleneck
    // station holds O(1) jobs, so the population fraction concentrates in
    // equal parts on the bottleneck set. Demands only — no N anywhere.
    let mut fractions = vec![0.0; m];
    let share = 1.0 / p.bottlenecks.len() as f64;
    for &k in &p.bottlenecks {
        fractions[k] = share;
    }
    // INFALLIBLE: `profile` rejects networks without a queue station, so
    // the bottleneck set is non-empty.
    let bottleneck = *p.bottlenecks.first().expect("non-empty bottleneck set");

    let system_response_time = population / lambda;
    Ok(FluidSolution {
        metrics: NetworkMetrics {
            throughput,
            utilization,
            mean_queue_length: q,
            response_time,
            queue_length_distribution: vec![Vec::new(); m],
            system_throughput: lambda,
            system_response_time,
            population: n,
        },
        fractions,
        bottleneck,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::aba_bounds;
    use crate::mva::mva_exact;
    use crate::templates::{figure5_network, tpcw_network, TpcwParameters};

    #[test]
    fn fluid_matches_mva_asymptotics_on_the_exponential_tpcw() {
        // Exponentialized TPC-W far past the knee: the fluid fixed point
        // and exact MVA must agree to the 1/N correction.
        let params = TpcwParameters::default();
        let network = tpcw_network(&params)
            .unwrap()
            .with_population(2_000)
            .unwrap();
        let exponential = ClosedNetwork::new(
            network
                .stations()
                .iter()
                .map(|s| crate::network::Station {
                    name: s.name.clone(),
                    kind: s.kind,
                    service: s.service.exponentialized().unwrap(),
                })
                .collect(),
            network.routing_matrix().clone(),
            network.population(),
        )
        .unwrap();
        let fluid = solve_fluid(&exponential).unwrap();
        let mva = mva_exact(&exponential).unwrap();
        let x_exact = mva.metrics.system_throughput;
        assert!(
            (fluid.metrics.system_throughput - x_exact).abs() / x_exact < 5e-3,
            "fluid {} vs MVA {}",
            fluid.metrics.system_throughput,
            x_exact
        );
    }

    #[test]
    fn fixed_point_is_the_asymptotic_bound() {
        let network = figure5_network(200, 16.0, 0.5).unwrap();
        let fluid = solve_fluid(&network).unwrap();
        let aba = aba_bounds(&network).unwrap();
        let upper = aba.throughput.upper;
        assert!(
            (fluid.metrics.system_throughput - upper).abs() <= 1e-9 * upper.max(1.0),
            "fluid X {} should sit on the ABA upper bound {}",
            fluid.metrics.system_throughput,
            upper
        );
        // Bottleneck is the MAP queue (demand 0.4 vs 0.25 / 0.175).
        assert_eq!(fluid.bottleneck, 2);
        assert!((fluid.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_only_network_is_rejected() {
        let network = ClosedNetwork::new(
            vec![crate::network::Station::delay("think", 1.0).unwrap()],
            mapqn_linalg::DMatrix::from_row_slice(1, 1, &[1.0]),
            3,
        )
        .unwrap();
        assert!(matches!(
            solve_fluid(&network),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn armed_fault_reports_nonconvergence() {
        let _guard = mapqn_faults::arm(mapqn_faults::FaultSite::FluidFixedPoint, 0, 1);
        let network = figure5_network(10, 4.0, 0.5).unwrap();
        let err = solve_fluid(&network).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Markov(mapqn_markov::MarkovError::NoConvergence { .. })
        ));
        // The window was one occurrence wide: the next solve succeeds.
        assert!(solve_fluid(&network).is_ok());
    }
}

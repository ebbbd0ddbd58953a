//! Exact ("global balance") solution of MAP queueing networks.
//!
//! This is the reference solution the paper compares every bound against:
//! enumerate the underlying CTMC, solve for its stationary distribution and
//! read the performance indexes off the state probabilities. The cost grows
//! combinatorially with the population and the number of stations — the very
//! limitation the LP bound methodology removes — but the reachable regime is
//! set by the steady-state engine: `mapqn-markov`'s dense GTH elimination
//! below a few thousand states, and its sparse preconditioned engine
//! (row-block-parallel Gauss–Seidel / Jacobi iterations with a `‖πQ‖_∞`
//! stopping rule) up to the `10^6`–`10^7`-state range, so exact references
//! cover the same populations the LP bounds and sweeps are run at (e.g. the
//! SCV=16 case study at `N = 60+`, or the TPC-W model at its full
//! 384-browser population).
//!
//! ## One state order, two generator representations
//!
//! Every solve first builds the [`crate::FactoredGenerator`], which ranks
//! the product space `compositions × phases` in closed form. The generator
//! is then held one of two ways, selected by
//! [`ExactOptions::representation`]:
//!
//! * **Materialized** — the states reachable from the initial state,
//!   numbered in rank order, with `Qᵀ` assembled directly from the forward
//!   transition closure (a dense rank array marks the reached states; no
//!   state hash, no transpose). Dense GTH solves it at or below
//!   [`SteadyStateOptions::dense_threshold`] states; above, the sparse
//!   engine iterates on `Qᵀ` itself. Memory is `O(nnz)`.
//! * **Factored** — rows of `Qᵀ` are synthesized on demand from the
//!   per-station blocks and the sparse engine iterates without the
//!   generator ever existing. Memory is `O(Σ station blocks)`; the solve
//!   runs the same ladder, Gauss–Seidel first, over the synthesized rows.
//!
//! Either way the metric pass walks the ranks in order with the factored
//! operator's cursor. The default, [`GeneratorRepresentation::Auto`],
//! estimates the bytes a materialized solve would hold and goes implicit
//! only above [`ExactOptions::materialize_bytes_ceiling`].
//!
//! Rank order is also the better order for Gauss–Seidel: on the `ctmc_exact`
//! grid of the benchmark it needs fewer sweeps than the breadth-first order
//! this path used before (TPC-W at `N = 44…68`: 256–304 sweeps against
//! 304–416).
//!
//! Both representations hand the sparse engine the same aggregation level
//! per state — bottleneck queue length times the joint phase count, plus
//! the joint phase code — so its Gauss–Seidel rung runs the coarse
//! aggregation/disaggregation step either way. That step is what keeps the
//! bursty-MAP chains (figure 5 at SCV = 4 and beyond) on Gauss–Seidel
//! instead of stalling into the slower fallback rungs.

use crate::factored::FactoredGenerator;
use crate::metrics::NetworkMetrics;
use crate::network::{ClosedNetwork, StationKind};
use crate::statespace::RankedChain;
use crate::Result;
use mapqn_markov::{stationary_sparse_op, SteadyStateOptions};

/// How the exact solver represents the CTMC generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GeneratorRepresentation {
    /// Estimate the materialized footprint and pick: flat CSR below
    /// [`ExactOptions::materialize_bytes_ceiling`], implicit Kronecker above.
    #[default]
    Auto,
    /// Always enumerate and materialize the flat CSR generator.
    Materialized,
    /// Always solve through the implicit [`FactoredGenerator`] — no
    /// generator in memory.
    Factored,
}

/// Options for the exact solver.
#[derive(Debug, Clone, Copy)]
pub struct ExactOptions {
    /// Maximum number of product-space states (`compositions × phases`,
    /// reachable or not) before giving up. What that ceiling costs depends
    /// on the representation: a *materialized* solve holds the flat CSR of
    /// `Qᵀ`, rank arrays and the iteration vectors — roughly 100 bytes per
    /// state plus 16 bytes per transition, i.e. a few GiB at `10^7` states —
    /// so in practice it tops out around the `10^6`-state regime; a
    /// *factored* solve stores only the per-station blocks (kilobytes) plus the
    /// iteration vectors (`O(n)` floats), so the full `10^7` default is
    /// reachable and the binding constraint becomes sweep time, not memory.
    pub max_states: usize,
    /// Steady-state solver options: the dense/sparse threshold of a
    /// materialized solve, and the sparse engine's options (tolerance,
    /// sweep budget, preconditioner, worker count), which a factored solve
    /// uses as they are.
    pub steady_state: SteadyStateOptions,
    /// Which generator representation to solve through.
    pub representation: GeneratorRepresentation,
    /// Memory ceiling (bytes) for [`GeneratorRepresentation::Auto`]: when
    /// the estimated materialized footprint
    /// ([`crate::FactoredGenerator::flat_csr_bytes_estimate`]) exceeds this,
    /// the solver goes implicit. Default 8 GiB.
    pub materialize_bytes_ceiling: usize,
}

impl Default for ExactOptions {
    fn default() -> Self {
        Self {
            max_states: 10_000_000,
            steady_state: SteadyStateOptions::default(),
            representation: GeneratorRepresentation::default(),
            materialize_bytes_ceiling: 8 << 30,
        }
    }
}

/// Solves the network exactly with default options.
///
/// The exact solution is the validation reference for every other technique
/// in the workspace — here checking that the LP bounds really bracket it:
///
/// ```
/// use mapqn_core::templates::figure5_network;
/// use mapqn_core::{solve_exact, MarginalBoundSolver};
///
/// // The paper's three-queue example (SCV = 4, geometric ACF decay 0.5).
/// let network = figure5_network(8, 4.0, 0.5).unwrap();
/// let exact = solve_exact(&network).unwrap();
///
/// let bounds = MarginalBoundSolver::new(&network).unwrap().bound_all().unwrap();
/// assert!(bounds.system_throughput.contains(exact.system_throughput, 1e-6));
/// assert!((exact.total_jobs() - 8.0).abs() < 1e-8); // jobs are conserved
/// ```
///
/// # Errors
/// Propagates state-space and steady-state solver failures.
pub fn solve_exact(network: &ClosedNetwork) -> Result<NetworkMetrics> {
    solve_exact_with(network, &ExactOptions::default())
}

/// Solves the network exactly with explicit options.
///
/// # Errors
/// Propagates state-space and steady-state solver failures.
pub fn solve_exact_with(
    network: &ClosedNetwork,
    options: &ExactOptions,
) -> Result<NetworkMetrics> {
    // Building the factored operator is cheap (kilobytes). Both
    // representations rank states by it, and `Auto` routes on its footprint
    // estimate.
    let op = FactoredGenerator::new(network, options.max_states)?;
    let implicit = match options.representation {
        GeneratorRepresentation::Materialized => false,
        GeneratorRepresentation::Factored => true,
        GeneratorRepresentation::Auto => {
            op.flat_csr_bytes_estimate() > options.materialize_bytes_ceiling
        }
    };
    let mut acc = MetricAccumulators::new(network);
    if implicit {
        // No enumeration, no generator in memory: the sparse engine
        // iterates through the factored operator.
        let pi = stationary_sparse_op(&op, &options.steady_state.sparse)?.pi;
        op.for_each_state(|index, queues, phases| {
            acc.accumulate(network, queues, phases, pi[index]);
        });
    } else {
        let chain = RankedChain::new(network, &op)?;
        let pi = chain.stationary(&options.steady_state)?;
        op.for_each_state(|rank, queues, phases| {
            if let Some(index) = chain.index_of_rank(rank) {
                acc.accumulate(network, queues, phases, pi[index]);
            }
        });
    }
    Ok(acc.finish(network))
}

/// Running per-station metric sums, fed one state at a time and finished
/// into [`NetworkMetrics`]. Both generator representations drive it from
/// the same rank cursor, so the reductions cannot drift apart.
struct MetricAccumulators {
    throughput: Vec<f64>,
    busy: Vec<f64>,
    mean_queue_length: Vec<f64>,
    queue_length_distribution: Vec<Vec<f64>>,
}

impl MetricAccumulators {
    fn new(network: &ClosedNetwork) -> Self {
        let m = network.num_stations();
        let n = network.population();
        Self {
            throughput: vec![0.0; m],
            busy: vec![0.0; m],
            mean_queue_length: vec![0.0; m],
            queue_length_distribution: vec![vec![0.0; n + 1]; m],
        }
    }

    /// Adds one state's contribution, weighted by its probability (states
    /// of probability 0 add nothing).
    fn accumulate(
        &mut self,
        network: &ClosedNetwork,
        queue_lengths: &[usize],
        phases: &[usize],
        probability: f64,
    ) {
        if probability == 0.0 {
            return;
        }
        for k in 0..network.num_stations() {
            let n_k = queue_lengths[k];
            let station = network.station(k);
            self.queue_length_distribution[k][n_k] += probability;
            self.mean_queue_length[k] += probability * n_k as f64;
            if n_k > 0 {
                self.busy[k] += probability;
                let completion_rate = station.service.completion_rate(phases[k]);
                let multiplier = match station.kind {
                    StationKind::Queue => 1.0,
                    StationKind::Delay => n_k as f64,
                };
                self.throughput[k] += probability * completion_rate * multiplier;
            }
        }
    }

    /// Derives the remaining performance indexes from the accumulated sums.
    fn finish(self, network: &ClosedNetwork) -> NetworkMetrics {
        let m = network.num_stations();
        let n = network.population();
        let utilization: Vec<f64> = (0..m)
            .map(|k| match network.station(k).kind {
                StationKind::Queue => self.busy[k],
                StationKind::Delay => self.mean_queue_length[k] / n as f64,
            })
            .collect();
        let response_time: Vec<f64> = (0..m)
            .map(|k| {
                if self.throughput[k] > 0.0 {
                    self.mean_queue_length[k] / self.throughput[k]
                } else {
                    0.0
                }
            })
            .collect();
        let system_throughput = self.throughput[0];
        let system_response_time = if system_throughput > 0.0 {
            n as f64 / system_throughput
        } else {
            f64::INFINITY
        };

        NetworkMetrics {
            throughput: self.throughput,
            utilization,
            mean_queue_length: self.mean_queue_length,
            response_time,
            queue_length_distribution: self.queue_length_distribution,
            system_throughput,
            system_response_time,
            population: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Station;
    use crate::service::Service;
    use mapqn_linalg::{approx_eq, DMatrix};
    use mapqn_stochastic::map2_correlated;

    fn tandem_exponential(rate1: f64, rate2: f64, n: usize) -> ClosedNetwork {
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        ClosedNetwork::new(
            vec![
                Station::queue("q1", Service::exponential(rate1).unwrap()),
                Station::queue("q2", Service::exponential(rate2).unwrap()),
            ],
            routing,
            n,
        )
        .unwrap()
    }

    /// Closed two-queue exponential network has a known product-form
    /// solution: P[n_1 = i] proportional to rho^i with rho = mu2/mu1.
    #[test]
    fn exact_matches_product_form_for_exponential_tandem() {
        let mu1 = 2.0;
        let mu2 = 3.0;
        let n = 6;
        let metrics = solve_exact(&tandem_exponential(mu1, mu2, n)).unwrap();

        let rho: f64 = mu2 / mu1; // ratio governing the geometric marginal at q1...
        // Product form: pi(n1) ∝ (1/mu1)^{n1} (1/mu2)^{n-n1} ∝ (mu2/mu1)^{n1}.
        let weights: Vec<f64> = (0..=n).map(|i| rho.powi(i as i32)).collect();
        let total: f64 = weights.iter().sum();
        for (i, w) in weights.iter().enumerate() {
            assert!(
                approx_eq(metrics.queue_length_distribution[0][i], w / total, 1e-9),
                "P[n1 = {i}]"
            );
        }
        // Throughput equality around the cycle.
        assert!(approx_eq(metrics.throughput[0], metrics.throughput[1], 1e-9));
        // Utilization law: U_k = X_k / mu_k.
        assert!(approx_eq(metrics.utilization[0], metrics.throughput[0] / mu1, 1e-9));
        assert!(approx_eq(metrics.utilization[1], metrics.throughput[1] / mu2, 1e-9));
        // Jobs are conserved.
        assert!(approx_eq(metrics.total_jobs(), n as f64, 1e-9));
        // Little's law at the system level.
        assert!(approx_eq(
            metrics.system_response_time,
            n as f64 / metrics.system_throughput,
            1e-12
        ));
    }

    #[test]
    fn machine_repairman_with_delay_station_matches_closed_form() {
        // N machines with exponential up-times (delay station, mean 1/lambda)
        // and a single repairman (queue, rate mu). The stationary
        // distribution of the number at the repair queue is the classic
        // machine-repairman formula.
        let lambda = 0.5;
        let mu = 2.0;
        let n = 4;
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let net = ClosedNetwork::new(
            vec![
                Station::delay("machines", 1.0 / lambda).unwrap(),
                Station::queue("repair", Service::exponential(mu).unwrap()),
            ],
            routing,
            n,
        )
        .unwrap();
        let metrics = solve_exact(&net).unwrap();

        // pi(k at repair) ∝ N!/(N-k)! (lambda/mu)^k
        let r = lambda / mu;
        let mut weights = Vec::new();
        for k in 0..=n {
            let mut w = 1.0;
            for i in 0..k {
                w *= (n - i) as f64 * r;
            }
            weights.push(w);
        }
        let total: f64 = weights.iter().sum();
        for (k, w) in weights.iter().enumerate() {
            assert!(
                approx_eq(metrics.queue_length_distribution[1][k], w / total, 1e-9),
                "P[repair queue = {k}]: {} vs {}",
                metrics.queue_length_distribution[1][k],
                w / total
            );
        }
        // Flow balance: repair throughput equals machine failure throughput.
        assert!(approx_eq(metrics.throughput[0], metrics.throughput[1], 1e-9));
    }

    #[test]
    fn map_service_changes_performance_versus_exponential() {
        // Same mean everywhere, but the MAP queue has high variability and
        // positive autocorrelation: its mean queue length must be larger than
        // in the exponential network (burstiness hurts).
        let n = 8;
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let map = map2_correlated(0.3, 5.0, 0.5 / 0.7, 0.6).unwrap();
        let map = map.scaled_to_mean(1.0).unwrap();
        let bursty = ClosedNetwork::new(
            vec![
                Station::queue("exp", Service::exponential(1.25).unwrap()),
                Station::queue("map", Service::map(map)),
            ],
            routing.clone(),
            n,
        )
        .unwrap();
        let exponential = ClosedNetwork::new(
            vec![
                Station::queue("exp", Service::exponential(1.25).unwrap()),
                Station::queue("exp2", Service::exponential(1.0).unwrap()),
            ],
            routing,
            n,
        )
        .unwrap();
        let bursty_metrics = solve_exact(&bursty).unwrap();
        let exp_metrics = solve_exact(&exponential).unwrap();
        // Burstiness lowers throughput for the same mean demands (the key
        // performance-degradation effect the paper models).
        assert!(
            bursty_metrics.system_throughput < exp_metrics.system_throughput * 0.995,
            "bursty X = {} vs exponential X = {}",
            bursty_metrics.system_throughput,
            exp_metrics.system_throughput
        );
        // And it makes the bottleneck queue-length distribution more
        // variable: jobs pile up during slow service phases.
        let variance = |dist: &[f64]| {
            let mean: f64 = dist.iter().enumerate().map(|(i, p)| i as f64 * p).sum();
            dist.iter()
                .enumerate()
                .map(|(i, p)| (i as f64 - mean).powi(2) * p)
                .sum::<f64>()
        };
        assert!(
            variance(&bursty_metrics.queue_length_distribution[1])
                > variance(&exp_metrics.queue_length_distribution[1]),
            "burstiness should increase queue-length variability"
        );
        // Population is still conserved.
        assert!(approx_eq(bursty_metrics.total_jobs(), n as f64, 1e-8));
    }

    #[test]
    fn exact_options_limit_state_space() {
        let net = tandem_exponential(1.0, 1.0, 50);
        let opts = ExactOptions {
            max_states: 5,
            ..ExactOptions::default()
        };
        assert!(solve_exact_with(&net, &opts).is_err());
        // The limit binds the factored representation too — before any
        // solve work starts.
        let opts = ExactOptions {
            max_states: 5,
            representation: GeneratorRepresentation::Factored,
            ..ExactOptions::default()
        };
        assert!(solve_exact_with(&net, &opts).is_err());
    }

    #[test]
    fn factored_representation_matches_materialized_metrics() {
        // The same model solved through both generator representations must
        // report the same performance indexes (1e-8 — the bench gate's
        // agreement level) even though one path never builds the generator.
        let net = crate::templates::figure5_network(6, 16.0, 0.5).unwrap();
        let materialized = solve_exact_with(
            &net,
            &ExactOptions {
                representation: GeneratorRepresentation::Materialized,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        let implicit = solve_exact_with(
            &net,
            &ExactOptions {
                representation: GeneratorRepresentation::Factored,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        for k in 0..net.num_stations() {
            assert!(approx_eq(materialized.throughput[k], implicit.throughput[k], 1e-8));
            assert!(approx_eq(materialized.utilization[k], implicit.utilization[k], 1e-8));
            assert!(approx_eq(
                materialized.mean_queue_length[k],
                implicit.mean_queue_length[k],
                1e-8
            ));
            for level in 0..=net.population() {
                assert!(approx_eq(
                    materialized.queue_length_distribution[k][level],
                    implicit.queue_length_distribution[k][level],
                    1e-8
                ));
            }
        }
        assert!(approx_eq(
            materialized.system_response_time,
            implicit.system_response_time,
            1e-8
        ));
        assert!(approx_eq(implicit.total_jobs(), 6.0, 1e-8));
    }

    #[test]
    fn auto_representation_routes_on_the_memory_ceiling() {
        // With a 1-byte ceiling Auto must take the implicit path (and still
        // produce the right answer); with the default 8 GiB ceiling it
        // stays materialized on a small model (pinned by bitwise equality
        // with the explicit materialized solve — same engine, same path).
        let net = tandem_exponential(2.0, 3.0, 5);
        let forced_implicit = solve_exact_with(
            &net,
            &ExactOptions {
                materialize_bytes_ceiling: 1,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        let materialized = solve_exact_with(
            &net,
            &ExactOptions {
                representation: GeneratorRepresentation::Materialized,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        let default_auto = solve_exact_with(&net, &ExactOptions::default()).unwrap();
        assert_eq!(default_auto.throughput, materialized.throughput);
        assert_eq!(default_auto.mean_queue_length, materialized.mean_queue_length);
        assert!(approx_eq(
            forced_implicit.system_throughput,
            materialized.system_throughput,
            1e-8
        ));
    }
}

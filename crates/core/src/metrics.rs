//! Performance metrics of a solved network.

/// Steady-state performance metrics of a closed network, as produced by the
/// exact solver, the simulator (in `mapqn-sim`) and — in interval form — by
/// the bound solver.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkMetrics {
    /// Per-station throughput: expected service completions per unit time.
    pub throughput: Vec<f64>,
    /// Per-station utilization. For single-server queues this is the
    /// probability that the server is busy; for delay (infinite-server)
    /// stations it is the mean number of busy servers divided by the
    /// population.
    pub utilization: Vec<f64>,
    /// Per-station mean number of jobs (queued plus in service).
    pub mean_queue_length: Vec<f64>,
    /// Per-station mean response time per visit, from Little's law
    /// `R_k = E[n_k] / X_k`.
    pub response_time: Vec<f64>,
    /// Per-station marginal queue-length distribution: entry `k` is the
    /// vector `P[n_k = 0 ..= N]`. From the exact CTMC engines its error is
    /// absolute: the residual rule `‖πQ‖∞ ≤ 1e-14 · q_max` that stops the
    /// solve bounds absolute error, so entries far below about 1e-12 carry
    /// no relative accuracy (two equally converged solves in different
    /// state orders differed by 3.5e-4 relative on entries of 3e-13).
    pub queue_length_distribution: Vec<Vec<f64>>,
    /// System throughput measured at station 0 (the reference station).
    pub system_throughput: f64,
    /// System response time `N / X` from Little's law applied to the whole
    /// network with station 0 as the reference.
    pub system_response_time: f64,
    /// Job population the metrics refer to.
    pub population: usize,
}

impl NetworkMetrics {
    /// Number of stations the metrics cover.
    #[must_use]
    pub fn num_stations(&self) -> usize {
        self.throughput.len()
    }

    /// Index of the bottleneck station: the one with the highest
    /// utilization.
    #[must_use]
    pub fn bottleneck(&self) -> usize {
        self.utilization
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i)
    }

    /// Total mean number of jobs across all stations (should equal the
    /// population; the deviation is a useful internal consistency check).
    #[must_use]
    pub fn total_jobs(&self) -> f64 {
        self.mean_queue_length.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NetworkMetrics {
        NetworkMetrics {
            throughput: vec![1.0, 2.0],
            utilization: vec![0.4, 0.9],
            mean_queue_length: vec![1.5, 3.5],
            response_time: vec![1.5, 1.75],
            queue_length_distribution: vec![vec![0.5, 0.5], vec![0.1, 0.9]],
            system_throughput: 1.0,
            system_response_time: 5.0,
            population: 5,
        }
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.num_stations(), 2);
        assert_eq!(m.bottleneck(), 1);
        assert!((m.total_jobs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_of_empty_metrics_defaults_to_zero() {
        let m = NetworkMetrics {
            throughput: vec![],
            utilization: vec![],
            mean_queue_length: vec![],
            response_time: vec![],
            queue_length_distribution: vec![],
            system_throughput: 0.0,
            system_response_time: 0.0,
            population: 0,
        };
        assert_eq!(m.bottleneck(), 0);
        assert_eq!(m.num_stations(), 0);
    }
}

//! Construction of the CTMC underlying a MAP queueing network.
//!
//! A global state records the number of jobs at every station plus the
//! current phase of every MAP service process (Figure 6 of the paper shows
//! this chain for the three-queue example with an MMPP(2) server and `N = 2`
//! jobs). The phase of a MAP station is *frozen* while the station is idle —
//! "the phase left active by the last served job", in the wording of the
//! paper — and resumes when the next job arrives.

use crate::network::{ClosedNetwork, StationKind};
use crate::{CoreError, Result};
use mapqn_markov::{StateSpace, StateSpaceBuilder};

/// A global state of the network CTMC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetworkState {
    /// Number of jobs at each station.
    pub queue_lengths: Vec<u16>,
    /// Current phase of each station's service process (0 for exponential
    /// stations, frozen at its last value while the station is idle).
    pub phases: Vec<u8>,
}

impl NetworkState {
    /// The initial state used by the exact solver: all jobs at station 0 and
    /// every service process in phase 0.
    #[must_use]
    pub fn initial(network: &ClosedNetwork) -> Self {
        let m = network.num_stations();
        let mut queue_lengths = vec![0u16; m];
        queue_lengths[0] = network.population() as u16;
        NetworkState {
            queue_lengths,
            phases: vec![0u8; m],
        }
    }
}

/// The station whose queue length sets the aggregation levels of the
/// network's CTMC: the queue station with the largest service demand (ties
/// go to the lower index). A state's level is `n_b · P + c`, with `n_b` that
/// station's queue length, `P` the joint phase count and `c` the joint phase
/// code (mixed radix, station 0 most significant). A transition moves at
/// most one job, so it spans fewer than `2P` levels.
///
/// `None` — no levels — when the network has no queue station, its demands
/// are undefined, or the `(N + 1) · P` levels overflow the `u32` encoding.
pub(crate) fn level_station(network: &ClosedNetwork) -> Option<usize> {
    let demands = network.service_demands().ok()?;
    let count = (network.population() + 1).checked_mul(network.joint_phase_count())?;
    u32::try_from(count).ok()?;
    (0..network.num_stations())
        .filter(|&k| network.station(k).kind == StationKind::Queue)
        .fold(None, |best: Option<usize>, k| match best {
            Some(b) if demands[b] >= demands[k] => Some(b),
            _ => Some(k),
        })
}

/// Enumerates the reachable state space of the network and assembles its
/// CTMC generator. The CTMC carries aggregation levels `n_b · P + c` when
/// the network has them: `n_b` is the queue length of the queue station
/// with the largest service demand, `P` the joint phase count and `c` the
/// joint phase code.
///
/// # Errors
/// * [`CoreError::InvalidNetwork`] when the population does not fit in the
///   state encoding (more than `u16::MAX` jobs).
/// * Markov-chain errors when the state space exceeds `max_states`.
pub fn build_state_space(
    network: &ClosedNetwork,
    max_states: usize,
) -> Result<StateSpace<NetworkState>> {
    if network.population() > usize::from(u16::MAX) {
        return Err(CoreError::InvalidNetwork(format!(
            "population {} does not fit the state encoding",
            network.population()
        )));
    }
    let m = network.num_stations();

    // Pre-extract per-station rate tables so the transition closure does not
    // repeatedly traverse matrices.
    struct StationRates {
        kind: StationKind,
        phases: usize,
        /// `hidden[h][h']` — phase change without completion.
        hidden: Vec<Vec<f64>>,
        /// `completion[h][h']` — completion moving the phase `h -> h'`.
        completion: Vec<Vec<f64>>,
    }
    let mut tables = Vec::with_capacity(m);
    for station in network.stations() {
        let phases = station.service.phases();
        let mut hidden = vec![vec![0.0; phases]; phases];
        let mut completion = vec![vec![0.0; phases]; phases];
        for h in 0..phases {
            for h2 in 0..phases {
                hidden[h][h2] = station.service.hidden_rate(h, h2);
                completion[h][h2] = station.service.completion_rate_to(h, h2);
            }
        }
        tables.push(StationRates {
            kind: station.kind,
            phases,
            hidden,
            completion,
        });
    }
    let routing: Vec<Vec<f64>> = (0..m)
        .map(|j| (0..m).map(|k| network.routing(j, k)).collect())
        .collect();

    let mut phase_strides = vec![1usize; m];
    for s in (0..m.saturating_sub(1)).rev() {
        phase_strides[s] = phase_strides[s + 1] * tables[s + 1].phases;
    }
    let phase_prod = phase_strides[0] * tables[0].phases;
    let leveled = level_station(network);

    let builder = StateSpaceBuilder::new().with_max_states(max_states);
    let space = builder.build(NetworkState::initial(network), move |state| {
        let mut transitions: Vec<(NetworkState, f64)> = Vec::new();
        for j in 0..m {
            let n_j = state.queue_lengths[j];
            if n_j == 0 {
                continue;
            }
            let table = &tables[j];
            let h_j = state.phases[j] as usize;
            // Delay stations serve every job in parallel; queues serve one.
            let multiplier = match table.kind {
                StationKind::Queue => 1.0,
                StationKind::Delay => f64::from(n_j),
            };
            // Hidden phase changes (MAP only; the table is zero otherwise).
            for h2 in 0..table.phases {
                let rate = table.hidden[h_j][h2];
                if rate > 0.0 {
                    let mut next = state.clone();
                    next.phases[j] = h2 as u8;
                    transitions.push((next, rate * multiplier));
                }
            }
            // Service completions with routing.
            for h2 in 0..table.phases {
                let completion_rate = table.completion[h_j][h2];
                if completion_rate <= 0.0 {
                    continue;
                }
                for (k, &p_jk) in routing[j].iter().enumerate() {
                    if p_jk <= 0.0 {
                        continue;
                    }
                    let mut next = state.clone();
                    next.phases[j] = h2 as u8;
                    if k != j {
                        next.queue_lengths[j] -= 1;
                        next.queue_lengths[k] += 1;
                    }
                    transitions.push((next, completion_rate * p_jk * multiplier));
                }
            }
        }
        transitions
    })?;
    let Some(b) = leveled else {
        return Ok(space);
    };
    Ok(space.with_levels(|state| {
        let code: usize = state
            .phases
            .iter()
            .zip(&phase_strides)
            .map(|(&h, &stride)| usize::from(h) * stride)
            .sum();
        // Fits: `level_station` checked `(N + 1) · P` against `u32`.
        (usize::from(state.queue_lengths[b]) * phase_prod + code) as u32
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Station;
    use crate::service::Service;
    use mapqn_linalg::DMatrix;
    use mapqn_stochastic::mmpp2;

    /// The example of Figures 5–7: two exponential queues and an MMPP(2)
    /// queue, population 2 — the paper states this chain has 12 states
    /// (6 job placements times 2 phases).
    fn figure5_network(n: usize) -> ClosedNetwork {
        let routing = DMatrix::from_row_slice(
            3,
            3,
            &[
                0.2, 0.7, 0.1, // queue 1 routes to itself, 2 and 3
                1.0, 0.0, 0.0, // queue 2 returns to queue 1
                1.0, 0.0, 0.0, // queue 3 returns to queue 1
            ],
        );
        ClosedNetwork::new(
            vec![
                Station::queue("link", Service::exponential(2.0).unwrap()),
                Station::queue("app1", Service::exponential(1.5).unwrap()),
                Station::queue("app2", Service::map(mmpp2(4.0, 0.5, 0.3, 0.2).unwrap())),
            ],
            routing,
            n,
        )
        .unwrap()
    }

    #[test]
    fn figure6_state_count_matches_the_paper() {
        // N = 2, M = 3, one MAP(2) queue: C(4,2) * 2 = 12 states, exactly the
        // chain drawn in Figure 6 of the paper.
        let net = figure5_network(2);
        let space = build_state_space(&net, 100_000).unwrap();
        assert_eq!(space.len(), 12);
        assert_eq!(net.global_state_count(), 12);
    }

    #[test]
    fn job_conservation_in_every_state() {
        let net = figure5_network(3);
        let space = build_state_space(&net, 100_000).unwrap();
        for s in space.states() {
            let total: u16 = s.queue_lengths.iter().sum();
            assert_eq!(total, 3);
            assert!(s.phases[0] == 0 && s.phases[1] == 0);
            assert!(s.phases[2] <= 1);
        }
    }

    #[test]
    fn state_count_grows_combinatorially() {
        for n in 1..=5 {
            let net = figure5_network(n);
            let space = build_state_space(&net, 100_000).unwrap();
            assert_eq!(space.len() as u128, net.global_state_count());
        }
    }

    #[test]
    fn delay_station_scales_rates_with_occupancy() {
        // Two stations: a delay (think) station and a queue. With all jobs
        // thinking, the total transition rate out of that state must be
        // n * think_rate.
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let net = ClosedNetwork::new(
            vec![
                Station::delay("clients", 2.0).unwrap(), // rate 0.5 each
                Station::queue("server", Service::exponential(1.0).unwrap()),
            ],
            routing,
            4,
        )
        .unwrap();
        let space = build_state_space(&net, 10_000).unwrap();
        // Initial state: all 4 jobs at the delay station.
        let idx = space
            .index_of(&NetworkState {
                queue_lengths: vec![4, 0],
                phases: vec![0, 0],
            })
            .unwrap();
        let total_rate = -space.ctmc().generator().get(idx, idx);
        assert!((total_rate - 4.0 * 0.5).abs() < 1e-10);
    }

    #[test]
    fn state_limit_is_propagated() {
        let net = figure5_network(30);
        assert!(build_state_space(&net, 10).is_err());
    }
}

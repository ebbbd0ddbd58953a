//! Construction of the CTMC underlying a MAP queueing network.
//!
//! A global state records the number of jobs at every station plus the
//! current phase of every MAP service process (Figure 6 of the paper shows
//! this chain for the three-queue example with an MMPP(2) server and `N = 2`
//! jobs). The phase of a MAP station is *frozen* while the station is idle —
//! "the phase left active by the last served job", in the wording of the
//! paper — and resumes when the next job arrives.

use crate::factored::FactoredGenerator;
use crate::network::{ClosedNetwork, StationKind};
use crate::{CoreError, Result};
use mapqn_linalg::{CsrGenerator, CsrMatrix, DVector, GeneratorOp};
use mapqn_markov::{
    stationary_auto, stationary_sparse_op, Ctmc, MarkovError, StateSpace, SteadyStateOptions,
};

/// A global state of the network CTMC.
///
/// States order by queue lengths, then phases, both lexicographically with
/// station 0 most significant: the order of the combinatorial rank that
/// [`FactoredGenerator`] indexes states by, and the order
/// [`build_state_space`] numbers them in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

    /// The state with queue lengths `q` and phase digits `phs`, narrowed to
    /// the `u16`/`u8` encoding (the population was checked against `u16`).
    pub(crate) fn from_digits(q: &[usize], phs: &[usize]) -> Self {
        NetworkState {
            queue_lengths: q.iter().map(|&n| n as u16).collect(),
            phases: phs.iter().map(|&h| h as u8).collect(),
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

/// One station's rate tables, pre-extracted so the transition closure does
/// not repeatedly traverse matrices.
struct StationRates {
    kind: StationKind,
    phases: usize,
    /// `hidden[h][h']` — phase change without completion.
    hidden: Vec<Vec<f64>>,
    /// `completion[h][h']` — completion moving the phase `h -> h'`.
    completion: Vec<Vec<f64>>,
}

/// The forward transition closure of the network CTMC: every transition out
/// of a state, with its rate. It is the one source of the materialized
/// chain's rates. [`FactoredGenerator`] synthesizes its rows of `Qᵀ` from
/// its own blocks; the two share only the state rank.
struct Transitions<'a> {
    op: &'a FactoredGenerator,
    tables: Vec<StationRates>,
    routing: Vec<Vec<f64>>,
}

impl<'a> Transitions<'a> {
    /// # Errors
    /// [`MarkovError::InvalidChain`] when a service or routing rate is not
    /// finite.
    fn new(network: &ClosedNetwork, op: &'a FactoredGenerator) -> Result<Self> {
        let m = network.num_stations();
        let mut tables = Vec::with_capacity(m);
        for station in network.stations() {
            let phases = station.service.phases();
            let table = |rate: &dyn Fn(usize, usize) -> f64| -> Vec<Vec<f64>> {
                (0..phases).map(|h| (0..phases).map(|h2| rate(h, h2)).collect()).collect()
            };
            tables.push(StationRates {
                kind: station.kind,
                phases,
                hidden: table(&|h, h2| station.service.hidden_rate(h, h2)),
                completion: table(&|h, h2| station.service.completion_rate_to(h, h2)),
            });
        }
        let routing: Vec<Vec<f64>> = (0..m)
            .map(|j| (0..m).map(|k| network.routing(j, k)).collect())
            .collect();
        // The closure skips rates at or below 0; the rest must be finite.
        let rates = tables.iter().flat_map(|t| t.hidden.iter().chain(&t.completion).flatten());
        if let Some(rate) = rates.chain(routing.iter().flatten()).find(|r| !r.is_finite()) {
            return Err(CoreError::Markov(MarkovError::InvalidChain(format!(
                "transition with invalid rate {rate}"
            ))));
        }
        Ok(Self { op, tables, routing })
    }

    /// Writes every transition out of the state of rank `rank` (queue
    /// lengths `q`, phase digits `phs`) into `row` as `(target rank, rate)`,
    /// sorted by target with duplicate targets summed and self-loops
    /// dropped, and returns the diagonal `Q[rank, rank]`.
    fn row_into(
        &self,
        rank: usize,
        q: &[usize],
        phs: &[usize],
        row: &mut Vec<(usize, f64)>,
    ) -> f64 {
        row.clear();
        let mut diagonal = 0.0_f64;
        let mut push = |target: usize, rate: f64| {
            if rate != 0.0 && target != rank {
                row.push((target, rate));
                diagonal -= rate;
            }
        };
        let block = rank - rank % self.op.phase_prod();
        for (j, table) in self.tables.iter().enumerate() {
            let n_j = q[j];
            if n_j == 0 {
                continue;
            }
            let h_j = phs[j];
            let stride = self.op.phase_stride(j);
            // `rank` with station j's phase digit cleared, and its offset
            // inside the composition's block.
            let here = rank - h_j * stride;
            let phase_offset = here - block;
            // Delay stations serve every job in parallel; queues serve one.
            let multiplier = match table.kind {
                StationKind::Queue => 1.0,
                StationKind::Delay => n_j as f64,
            };
            // Hidden phase changes (MAP only; the table is zero otherwise).
            for h2 in 0..table.phases {
                let rate = table.hidden[h_j][h2];
                if rate > 0.0 {
                    push(here + h2 * stride, rate * multiplier);
                }
            }
            // Service completions with routing.
            for h2 in 0..table.phases {
                let completion_rate = table.completion[h_j][h2];
                if completion_rate <= 0.0 {
                    continue;
                }
                for (k, &p_jk) in self.routing[j].iter().enumerate() {
                    if p_jk <= 0.0 {
                        continue;
                    }
                    let target_block = if k == j {
                        block
                    } else {
                        self.op.comp_rank(q, k, j) * self.op.phase_prod()
                    };
                    push(
                        target_block + phase_offset + h2 * stride,
                        completion_rate * p_jk * multiplier,
                    );
                }
            }
        }
        row.sort_unstable_by_key(|&(target, _)| target);
        row.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        diagonal
    }
}

/// Marks a product-space rank no transition reaches.
const UNREACHED: u32 = u32::MAX;

/// The states reachable from [`NetworkState::initial`], numbered in rank
/// order, with the transposed generator `Qᵀ` on them and their aggregation
/// levels.
///
/// Built in two walks over the forward closure, with no state hash and no
/// transpose:
/// 1. depth first from the initial state over ranks, marking each
///    reached rank in a dense array and counting the entries of each row of
///    `Qᵀ` (the transitions into it, plus its diagonal);
/// 2. the reached ranks are numbered in order, which gives the row pointers,
///    and one walk in rank order scatters each state's row of `Q` into the
///    rows of `Qᵀ`. Sources arrive in ascending order, so every row of `Qᵀ`
///    fills with its columns sorted.
pub(crate) struct RankedChain {
    /// `number[rank]`: the index of the state with that rank, or
    /// [`UNREACHED`].
    number: Vec<u32>,
    /// `Qᵀ`: row `j` holds `Q[i, j]` for every state `i`, diagonal included.
    qt: CsrMatrix,
    /// The level of every state (see [`level_station`]), if the network has
    /// levels.
    levels: Option<Vec<u32>>,
}

impl RankedChain {
    /// Enumerates the reachable chain of `network`, ranked by `op` (the
    /// factored generator of the same network).
    ///
    /// # Errors
    /// * [`MarkovError::StateSpaceTooLarge`] when the product space has
    ///   `u32::MAX` ranks or more.
    /// * [`MarkovError::InvalidChain`] for a non-finite rate.
    pub(crate) fn new(network: &ClosedNetwork, op: &FactoredGenerator) -> Result<Self> {
        let n = op.num_states();
        if n >= UNREACHED as usize {
            return Err(CoreError::Markov(MarkovError::StateSpaceTooLarge {
                limit: UNREACHED as usize - 1,
            }));
        }
        let closure = Transitions::new(network, op)?;
        let m = network.num_stations();
        let mut row = Vec::new();

        let mut number = vec![UNREACHED; n];
        let mut count = vec![0u32; n];
        // The initial state: every job at station 0, every phase 0.
        let (mut q, mut phs) = (vec![0usize; m], vec![0usize; m]);
        q[0] = network.population();
        let initial = op.comp_rank(&q, 0, 0) * op.phase_prod();
        number[initial] = 0;
        let mut stack = vec![initial];
        while let Some(rank) = stack.pop() {
            op.digits_into(rank, &mut q, &mut phs);
            let diagonal = closure.row_into(rank, &q, &phs, &mut row);
            count[rank] += u32::from(diagonal != 0.0);
            for &(target, _) in &row {
                count[target] += 1;
                if number[target] == UNREACHED {
                    number[target] = 0;
                    stack.push(target);
                }
            }
        }

        let mut row_ptr = vec![0usize];
        for (slot, &entries) in number.iter_mut().zip(&count) {
            if *slot != UNREACHED {
                // Fits: there are fewer states than ranks.
                *slot = (row_ptr.len() - 1) as u32;
                row_ptr.push(row_ptr[row_ptr.len() - 1] + entries as usize);
            }
        }
        drop(count);
        let states = row_ptr.len() - 1;
        let nnz = row_ptr[states];
        let mut next = row_ptr[..states].to_vec();
        let mut cols = vec![0usize; nnz];
        let mut values = vec![0.0_f64; nnz];
        let leveled = level_station(network);
        let mut levels = leveled.map(|_| Vec::with_capacity(states));
        let phase_prod = op.phase_prod();
        op.for_each_state(|rank, q, phs| {
            let i = number[rank];
            if i == UNREACHED {
                return;
            }
            let diagonal = closure.row_into(rank, q, phs, &mut row);
            let mut put = |j: usize, value: f64| {
                cols[next[j]] = i as usize;
                values[next[j]] = value;
                next[j] += 1;
            };
            for &(target, rate) in &row {
                put(number[target] as usize, rate);
            }
            if diagonal != 0.0 {
                put(i as usize, diagonal);
            }
            if let (Some(b), Some(levels)) = (leveled, levels.as_mut()) {
                // Fits: `level_station` checked `(N + 1) · P` against `u32`.
                levels.push((q[b] * phase_prod + rank % phase_prod) as u32);
            }
        });
        let qt = CsrMatrix::from_parts(states, states, row_ptr, cols, values)?;
        Ok(Self { number, qt, levels })
    }

    /// Number of reachable states.
    pub(crate) fn len(&self) -> usize {
        self.qt.nrows()
    }

    /// The index of the state with product-space rank `rank`, if reachable.
    pub(crate) fn index_of_rank(&self, rank: usize) -> Option<usize> {
        let i = self.number[rank];
        (i != UNREACHED).then_some(i as usize)
    }

    /// The CTMC `Q` on the reachable states, with their levels.
    fn ctmc(&self) -> Result<Ctmc> {
        let ctmc = Ctmc::new(self.qt.transpose())?;
        Ok(match &self.levels {
            Some(levels) => ctmc.with_levels(levels.clone())?,
            None => ctmc,
        })
    }

    /// The stationary distribution: dense GTH on `Q` at or below
    /// `options.dense_threshold` states (through [`stationary_auto`]), else
    /// the sparse engine straight on `Qᵀ` with the chain's levels.
    pub(crate) fn stationary(&self, options: &SteadyStateOptions) -> Result<DVector> {
        if self.len() <= options.dense_threshold {
            return Ok(stationary_auto(&self.ctmc()?, options)?);
        }
        let op = CsrGenerator::new(&self.qt, self.levels.as_deref())?;
        Ok(stationary_sparse_op(&op, &options.sparse)?.pi)
    }
}

/// Enumerates the reachable state space of the network and assembles its
/// CTMC generator, states numbered in rank order (the [`NetworkState`]
/// order). The CTMC carries aggregation levels `n_b · P + c` when the
/// network has them: `n_b` is the queue length of the queue station with
/// the largest service demand, `P` the joint phase count and `c` the joint
/// phase code.
///
/// # Errors
/// * [`CoreError::InvalidNetwork`] when the population does not fit in the
///   state encoding (more than `u16::MAX` jobs).
/// * Markov-chain errors when the product state space exceeds
///   `max_states`.
pub fn build_state_space(
    network: &ClosedNetwork,
    max_states: usize,
) -> Result<StateSpace<NetworkState>> {
    let op = FactoredGenerator::new(network, max_states)?;
    let chain = RankedChain::new(network, &op)?;
    let mut states = Vec::with_capacity(chain.len());
    op.for_each_state(|rank, q, phs| {
        if chain.index_of_rank(rank).is_some() {
            states.push(NetworkState::from_digits(q, phs));
        }
    });
    Ok(StateSpace::from_parts(states, chain.ctmc()?)?)
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
        figure5_routing(Service::map(mmpp2(4.0, 0.5, 0.3, 0.2).unwrap()), n)
    }

    /// The routing of Figures 5–7 with `service` at the third queue.
    fn figure5_routing(service: Service, n: usize) -> ClosedNetwork {
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
                Station::queue("app2", service),
            ],
            routing,
            n,
        )
        .unwrap()
    }

    #[test]
    fn an_idle_erlang_queue_is_reachable_only_in_its_first_phase() {
        use crate::exact::{solve_exact_with, ExactOptions, GeneratorRepresentation};
        use mapqn_linalg::approx_eq;
        use mapqn_stochastic::erlang_map;

        // Every Erlang-2 completion leaves phase 1 for phase 0, so no state
        // with the third queue idle in phase 1 is reachable: the product
        // space holds N + 1 more states than the chain.
        let erlang = Service::map(erlang_map(2, 0.8).unwrap());
        for (n, reachable, product) in [(3, 16, 20), (10, 121, 132), (40, 1_681, 1_722)] {
            let net = figure5_routing(erlang.clone(), n);
            assert_eq!(net.global_state_count(), product);
            let space = build_state_space(&net, 100_000).unwrap();
            assert_eq!(space.len(), reachable, "N = {n}");
            assert!(space
                .states()
                .iter()
                .all(|s| s.queue_lengths[2] > 0 || s.phases[2] == 0));

            // The materialized chain on dense GTH at N = 3, on the sparse
            // engine over `Qᵀ` above; the factored solve iterates the
            // unreachable states down to zero.
            let materialized = solve_exact_with(
                &net,
                &ExactOptions {
                    representation: GeneratorRepresentation::Materialized,
                    steady_state: SteadyStateOptions {
                        dense_threshold: if n == 3 { usize::MAX } else { 0 },
                        ..SteadyStateOptions::default()
                    },
                    ..ExactOptions::default()
                },
            )
            .unwrap();
            let factored = solve_exact_with(
                &net,
                &ExactOptions {
                    representation: GeneratorRepresentation::Factored,
                    ..ExactOptions::default()
                },
            )
            .unwrap();
            let indexes = |m: &crate::NetworkMetrics| {
                let mut v = vec![m.system_throughput, m.system_response_time];
                for per_station in [
                    &m.throughput,
                    &m.utilization,
                    &m.mean_queue_length,
                    &m.response_time,
                ] {
                    v.extend(per_station);
                }
                v.extend(m.queue_length_distribution.iter().flatten());
                v
            };
            for (a, b) in indexes(&materialized).into_iter().zip(indexes(&factored)) {
                assert!(approx_eq(a, b, 1e-8), "N = {n}: materialized {a} vs factored {b}");
            }
        }
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

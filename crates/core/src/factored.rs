//! Build-nothing ("factored") representation of the network CTMC generator.
//!
//! The materialized exact path enumerates the reachable states and
//! assembles `Qᵀ` as a flat CSR — `O(nnz)` memory, the single obstacle
//! between the sparse exact engine and the `10^6`–`10^7`-state regime.
//! This module exploits what the paper's §3 construction
//! makes explicit: the generator of a MAP queueing network is assembled
//! from *small per-station blocks* (hidden-transition and completion rates
//! of each service process, one routing row per station) combined over a
//! product-structured state space. [`FactoredGenerator`] stores exactly
//! those blocks — `O(Σ station blocks)` memory, a few kilobytes — and
//! synthesizes any row of `Qᵀ` on demand, so the sparse engine
//! ([`mapqn_markov::stationary_sparse_op`]) can iterate `π ↦ πQ` without
//! the generator ever existing in memory.
//!
//! ## State indexing
//!
//! A global state is `(queue_lengths, phases)` exactly as in
//! [`crate::statespace::NetworkState`]. The factored index space is the
//! full product
//!
//! ```text
//! { compositions of N into M non-negative parts } × Π_k phases_k
//! ```
//!
//! indexed as `index = comp_rank(queues) · Π phases + phase_rank(phases)`,
//! with compositions ranked lexicographically (closed-form rank/unrank via
//! a binomial table — the "hockey-stick" telescope makes ranking `O(M)`)
//! and phases in mixed radix with station 0 most significant.
//!
//! ## Row synthesis
//!
//! Rows are synthesized in index order by a streaming cursor: one
//! `comp_unrank` per row block, then the mixed-radix phase digits step
//! forward and, when they wrap, the composition steps to its lexicographic
//! successor. The cursor carries the first index of every job-move
//! predecessor `q + e_a − e_b`; in the common successor step (one job from
//! the last station to the one before) each predecessor steps to its own
//! successor, so those indexes advance without a rank. The apply, the
//! Gauss–Seidel relaxation and the coarse scan share that one row gather.
//!
//! ## Aggregation levels
//!
//! The cursor also gives every index its aggregation level, `q[b] · Π
//! phases + phase rank` with `b` the bottleneck queue of
//! [`crate::statespace::build_state_space`] — the same level the
//! materialized chain gives the same state. Each gathered in-transition
//! knows its predecessor's level from the digits and the job move, so
//! [`GeneratorOp::aggregate_rows_into`] accumulates the level flows in the
//! one row walk and the sparse engine's Gauss–Seidel rung runs its coarse
//! step on the factored path too.
//!
//! ## Relation to the materialized chain
//!
//! Both representations number states by this rank. The materialized
//! chain ([`crate::statespace::build_state_space`]) keeps only the ranks
//! reachable from the initial state, in rank order, with rates from its
//! own forward transition closure; the rank is all the two share. On a
//! chain where every rank is reachable (the paper's template networks: the
//! state-space tests pin `space.len() == global_state_count()`) the two
//! are the same chain in the same order, so the Gauss–Seidel rung walks the
//! same rows and only rounding separates their sweep counts.
//!
//! The factored space is a *superset* of the reachable space whenever
//! idle-station phase freezing makes some phase combinations unreachable
//! (an idle Erlang queue is never in its last phase). The extra states are
//! transient — every rung of the sparse engine's ladder (Gauss–Seidel,
//! Jacobi, uniformized power) drives their probability to zero, so the
//! computed `π` matches the materialized solve on the reachable states.
//! The factored path does assume the product-space chain has a **single
//! recurrent class** (true for irreducible routing and irreducible MAPs);
//! on a decomposable model the materialized path remains the reference.

use crate::network::{ClosedNetwork, StationKind};
use crate::statespace::{level_station, NetworkState};
use crate::{CoreError, Result};
use mapqn_linalg::{GeneratorOp, LevelFlows};
use mapqn_markov::MarkovError;

/// Nonzero in-rates into one phase: `(source phase, rate)` in source order.
type InRates = Vec<(usize, f64)>;

/// Per-station rate blocks — the only model data the factored generator
/// keeps (built from the same service and routing tables as the
/// materialized chain's transition closure),
/// stored by target phase, the order a row of `Qᵀ` reads them in.
struct StationBlock {
    kind: StationKind,
    phases: usize,
    /// `phase_in[h']` — in-rates into phase `h'` from `h != h'` that keep the
    /// queues: a hidden transition, or a completion routed back to this
    /// station (`hidden[h][h'] + completion[h][h'] · p_ss`).
    phase_in: Vec<InRates>,
    /// `completion_in[h']` — completion rates moving the phase `h -> h'`.
    completion_in: Vec<InRates>,
    /// Row sums of the hidden block (total hidden out-rate per phase).
    hidden_out: Vec<f64>,
    /// Row sums of the completion block (total completion rate per phase).
    completion_out: Vec<f64>,
    /// `completion[h][h] · p_ss` — the self-loop the materialized chain drops.
    self_loop: Vec<f64>,
}

/// A position in the factored index space, stepped forward in index order.
struct RowCursor {
    /// Rank of the phase digits inside the current composition's block.
    prank: usize,
    /// Queue lengths (the composition).
    q: Vec<usize>,
    /// Phase digits, station 0 most significant.
    phs: Vec<usize>,
    /// Per route `(a, b)`: the first index of the predecessor composition
    /// `q + e_a − e_b`, i.e. `comp_rank(q + e_a − e_b) · Π phases`. Valid
    /// while `q[b] > 0`.
    preds: Vec<usize>,
}

/// The network generator `Q` stored as per-station factor blocks plus a
/// combinatorial state ranking — never materialized. Implements
/// [`GeneratorOp`], so it plugs straight into
/// [`mapqn_markov::stationary_sparse_op`] and runs every rung of its ladder,
/// Gauss–Seidel included, over rows synthesized in index order.
pub struct FactoredGenerator {
    blocks: Vec<StationBlock>,
    /// `routing[j][k]` — routing probability station `j` → `k`.
    routing: Vec<Vec<f64>>,
    /// Row sums of `routing` (1 for a stochastic matrix; kept exact).
    routing_out: Vec<f64>,
    /// The job-moving routes `(a, b, p_ab)`: `a != b`, `p_ab > 0`, in
    /// `(a, b)` order.
    routes: Vec<(usize, usize, f64)>,
    /// Stations with more than one phase, the only ones with phase-only
    /// in-transitions.
    multi_phase: Vec<usize>,
    population: usize,
    m: usize,
    /// `Π_k phases_k` — size of the phase block per composition.
    phase_prod: usize,
    /// Mixed-radix strides of the phase digits (station 0 most significant).
    phase_strides: Vec<usize>,
    /// Pascal table `binom[n][k]` for `n <= N + M`, `k <= M`.
    binom: Vec<Vec<usize>>,
    n_states: usize,
    /// The station whose queue length sets the aggregation levels
    /// (`level = q[b] · Π phases + phase rank`, as in
    /// [`crate::statespace::build_state_space`]), if the network has levels.
    level_station: Option<usize>,
}

impl FactoredGenerator {
    /// Builds the factored generator of `network`.
    ///
    /// # Errors
    /// * [`CoreError::InvalidNetwork`] when the population does not fit the
    ///   state encoding (mirrors [`crate::statespace::build_state_space`]).
    /// * [`MarkovError::StateSpaceTooLarge`] (wrapped in
    ///   [`CoreError::Markov`]) when the product space exceeds `max_states`.
    pub fn new(network: &ClosedNetwork, max_states: usize) -> Result<Self> {
        if network.population() > usize::from(u16::MAX) {
            return Err(CoreError::InvalidNetwork(format!(
                "population {} does not fit the state encoding",
                network.population()
            )));
        }
        let total = network.global_state_count();
        if total > max_states as u128 {
            return Err(CoreError::Markov(MarkovError::StateSpaceTooLarge {
                limit: max_states,
            }));
        }
        let m = network.num_stations();
        let population = network.population();

        let routing: Vec<Vec<f64>> = (0..m)
            .map(|j| (0..m).map(|k| network.routing(j, k)).collect())
            .collect();
        let routing_out = routing.iter().map(|r| r.iter().sum()).collect();
        let mut routes = Vec::new();
        for (a, row) in routing.iter().enumerate() {
            for (b, &p_ab) in row.iter().enumerate() {
                if b != a && p_ab > 0.0 {
                    routes.push((a, b, p_ab));
                }
            }
        }

        let mut blocks = Vec::with_capacity(m);
        for (s, station) in network.stations().iter().enumerate() {
            let phases = station.service.phases();
            let mut hidden = vec![vec![0.0; phases]; phases];
            let mut completion = vec![vec![0.0; phases]; phases];
            for h in 0..phases {
                for h2 in 0..phases {
                    hidden[h][h2] = station.service.hidden_rate(h, h2);
                    completion[h][h2] = station.service.completion_rate_to(h, h2);
                }
            }
            let p_ss = routing[s][s];
            let phase_in = (0..phases)
                .map(|to| {
                    (0..phases)
                        .filter(|&h| h != to)
                        .map(|h| (h, hidden[h][to] + completion[h][to] * p_ss))
                        .filter(|&(_, rate)| rate > 0.0)
                        .collect()
                })
                .collect();
            let completion_in = (0..phases)
                .map(|to| {
                    (0..phases)
                        .map(|h| (h, completion[h][to]))
                        .filter(|&(_, rate)| rate > 0.0)
                        .collect()
                })
                .collect();
            blocks.push(StationBlock {
                kind: station.kind,
                phases,
                phase_in,
                completion_in,
                hidden_out: hidden.iter().map(|r| r.iter().sum()).collect(),
                completion_out: completion.iter().map(|r| r.iter().sum()).collect(),
                self_loop: (0..phases).map(|h| completion[h][h] * p_ss).collect(),
            });
        }

        let multi_phase = (0..m).filter(|&s| blocks[s].phases > 1).collect();

        let mut phase_strides = vec![1usize; m];
        for s in (0..m.saturating_sub(1)).rev() {
            phase_strides[s] = phase_strides[s + 1] * blocks[s + 1].phases;
        }
        let phase_prod = phase_strides[0] * blocks[0].phases;

        // Pascal table up to n = N + M, k = M. Every rank the indexing uses
        // is below the validated total state count, so these adds cannot
        // saturate on any input that passed the `max_states` check; the
        // saturating form only guards pathological direct constructions.
        let mut binom = vec![vec![0usize; m + 1]; population + m + 1];
        for row in binom.iter_mut() {
            row[0] = 1;
        }
        for n in 1..=population + m {
            for k in 1..=m.min(n) {
                let below = binom[n - 1][k - 1];
                let carry = if k < n { binom[n - 1][k] } else { 0 };
                binom[n][k] = below.saturating_add(carry);
            }
        }

        // INFALLIBLE: total <= max_states <= usize::MAX was checked above.
        let n_states = usize::try_from(total).expect("validated state count fits usize");

        Ok(Self {
            blocks,
            routing,
            routing_out,
            routes,
            multi_phase,
            population,
            m,
            phase_prod,
            phase_strides,
            binom,
            n_states,
            level_station: level_station(network),
        })
    }

    /// Lexicographic rank of the composition `q + e_a − e_b` — of `q`
    /// itself when `a == b`; otherwise `q[b] > 0` (`O(M)` via the
    /// hockey-stick telescope: `Σ_{v < q} C(R - v + c - 1, c - 1) =
    /// C(R + c, c) - C(R - q + c, c)`).
    pub(crate) fn comp_rank(&self, q: &[usize], a: usize, b: usize) -> usize {
        let mut rank = 0usize;
        let mut remaining = self.population;
        for (s, &q_s) in q.iter().take(self.m - 1).enumerate() {
            let q_s = q_s + usize::from(s == a) - usize::from(s == b);
            let c = self.m - 1 - s;
            rank += self.binom[remaining + c][c] - self.binom[remaining - q_s + c][c];
            remaining -= q_s;
        }
        rank
    }

    /// Inverse of [`FactoredGenerator::comp_rank`]. Digit `s` is the
    /// largest `v` with `C(R + c, c) - C(R - v + c, c) <= rank`, found by
    /// binary search over the Pascal column `c` (`O(M log N)` in all).
    fn comp_unrank(&self, mut rank: usize, q: &mut [usize]) {
        let mut remaining = self.population;
        let leading = self.m.saturating_sub(1);
        for (s, slot) in q.iter_mut().take(leading).enumerate() {
            let c = self.m - 1 - s;
            let total = self.binom[remaining + c][c];
            // The smallest `x` with `C(x, c) >= total - rank`; `x = c`
            // qualifies once `v` reaches `remaining`.
            let (mut lo, mut hi) = (c, remaining + c);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.binom[mid][c] >= total - rank {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            rank -= total - self.binom[lo][c];
            *slot = remaining + c - lo;
            remaining = lo - c;
        }
        q[self.m - 1] = remaining;
    }

    /// Recomputes every valid predecessor base of `c` from scratch.
    fn fill_preds(&self, c: &mut RowCursor) {
        for (pred, &(a, b, _)) in c.preds.iter_mut().zip(&self.routes) {
            if c.q[b] > 0 {
                *pred = self.comp_rank(&c.q, a, b) * self.phase_prod;
            }
        }
    }

    /// `Π_k phases_k`, the number of indexes per composition.
    pub(crate) fn phase_prod(&self) -> usize {
        self.phase_prod
    }

    /// Index distance between two phases of station `s` one apart.
    pub(crate) fn phase_stride(&self, s: usize) -> usize {
        self.phase_strides[s]
    }

    /// Decodes `index` into queue lengths `q` and phase digits `phs` (one
    /// `comp_unrank`).
    pub(crate) fn digits_into(&self, index: usize, q: &mut [usize], phs: &mut [usize]) {
        self.comp_unrank(index / self.phase_prod, q);
        let prank = index % self.phase_prod;
        for (s, h) in phs.iter_mut().enumerate() {
            *h = (prank / self.phase_strides[s]) % self.blocks[s].phases;
        }
    }

    /// A cursor positioned at `index`.
    fn cursor_at(&self, index: usize) -> RowCursor {
        let mut q = vec![0usize; self.m];
        let mut phs = vec![0usize; self.m];
        self.digits_into(index, &mut q, &mut phs);
        let mut c = RowCursor {
            prank: index % self.phase_prod,
            q,
            phs,
            preds: vec![0; self.routes.len()],
        };
        self.fill_preds(&mut c);
        c
    }

    /// Steps `c` to the next index. Stepping past the last index leaves the
    /// composition as is.
    fn step(&self, c: &mut RowCursor) {
        c.prank += 1;
        if c.prank < self.phase_prod {
            for s in (0..self.m).rev() {
                c.phs[s] += 1;
                if c.phs[s] < self.blocks[s].phases {
                    break;
                }
                c.phs[s] = 0;
            }
            return;
        }
        c.prank = 0;
        c.phs.fill(0);
        // Lexicographic successor: move one job from the last non-empty
        // station `t >= 1` to `t - 1`, and the rest of `t`'s jobs to the
        // last station.
        let m = self.m;
        let Some(t) = (1..m).rev().find(|&t| c.q[t] > 0) else {
            return;
        };
        let rest = c.q[t] - 1;
        c.q[t - 1] += 1;
        c.q[t] = 0;
        c.q[m - 1] = rest;
        if t + 1 < m {
            self.fill_preds(c);
            return;
        }
        // The common step moves one job from station M-1 to M-2, and so
        // does every predecessor that stays valid: each one also steps to
        // its successor. Only a route into M-2 that just became valid
        // needs a rank.
        for (pred, &(a, b, _)) in c.preds.iter_mut().zip(&self.routes) {
            if b == m - 2 && c.q[b] == 1 {
                *pred = self.comp_rank(&c.q, a, b) * self.phase_prod;
            } else {
                *pred += self.phase_prod;
            }
        }
    }

    /// Walks the rows `start .. start + len` in index order, handing `row`
    /// each index with its cursor.
    fn for_each_row(&self, start: usize, len: usize, mut row: impl FnMut(usize, &RowCursor)) {
        if len == 0 {
            return;
        }
        let mut c = self.cursor_at(start);
        for k in 0..len {
            if k > 0 {
                self.step(&mut c);
            }
            row(start + k, &c);
        }
    }

    /// Aggregation level of the cursor's state: `q[b] · Π phases + phase
    /// rank` (the phase rank alone when the network has no levels).
    fn level_of(&self, c: &RowCursor) -> usize {
        c.prank + self.level_station.map_or(0, |b| c.q[b] * self.phase_prod)
    }

    /// Visits the off-diagonal part of row `j` of `Qᵀ` in a fixed order —
    /// phase-only in-transitions station by station, then job moves route
    /// by route — as `visit(i, Q[i, j], level of i)`. The one row gather
    /// behind the apply, the relaxation and the coarse scan.
    fn for_each_inflow(&self, j: usize, c: &RowCursor, mut visit: impl FnMut(usize, f64, usize)) {
        let level = self.level_of(c);
        // A hidden transition at busy station s, or a completion at s
        // routed back to s: the predecessor differs in digit s only.
        for &s in &self.multi_phase {
            if c.q[s] == 0 {
                continue;
            }
            let mult = self.multiplier(s, c.q[s]);
            let h_j = c.phs[s];
            let stride = self.phase_strides[s];
            let base = j - h_j * stride;
            let base_level = level - h_j * stride;
            for &(h, rate) in &self.blocks[s].phase_in[h_j] {
                visit(base + h * stride, rate * mult, base_level + h * stride);
            }
        }
        // A completion at a routed to b != a: the predecessor holds one
        // more job at a and one fewer at b, with an arbitrary
        // pre-completion phase h at a (all other digits equal).
        let bottleneck = self.level_station.unwrap_or(usize::MAX);
        for (&(a, b, p_ab), &pred) in self.routes.iter().zip(&c.preds) {
            if c.q[b] == 0 {
                continue;
            }
            let mult = self.multiplier(a, c.q[a] + 1);
            let h_a = c.phs[a];
            let stride = self.phase_strides[a];
            let base = pred + (c.prank - h_a * stride);
            let base_level = (level + usize::from(a == bottleneck) * self.phase_prod)
                - usize::from(b == bottleneck) * self.phase_prod
                - h_a * stride;
            for &(h, cpl) in &self.blocks[a].completion_in[h_a] {
                visit(
                    base + h * stride,
                    cpl * p_ab * mult,
                    base_level + h * stride,
                );
            }
        }
    }

    /// Off-diagonal part of row `j` of `Qᵀ` applied to `read`, added to
    /// `acc` in [`FactoredGenerator::for_each_inflow`] order.
    fn gather_inflow(
        &self,
        j: usize,
        c: &RowCursor,
        mut acc: f64,
        read: impl Fn(usize) -> f64,
    ) -> f64 {
        self.for_each_inflow(j, c, |i, rate, _| acc += read(i) * rate);
        acc
    }

    /// Visits every index in order with its queue lengths and phase digits
    /// — the sequential counterpart of [`FactoredGenerator::state_at`],
    /// stepping one cursor instead of unranking each index.
    pub(crate) fn for_each_state(&self, mut visit: impl FnMut(usize, &[usize], &[usize])) {
        self.for_each_row(0, self.n_states, |index, c| visit(index, &c.q, &c.phs));
    }

    /// Decodes `index` into queue lengths and phases (slices of length `M`).
    ///
    /// # Panics
    /// Panics if `index >= num_states()` or a slice has the wrong length.
    pub fn state_into(&self, index: usize, queues: &mut [u16], phases: &mut [u8]) {
        let state = self.state_at(index);
        queues.copy_from_slice(&state.queue_lengths);
        phases.copy_from_slice(&state.phases);
    }

    /// The [`NetworkState`] at `index`.
    ///
    /// # Panics
    /// Panics if `index >= num_states()`.
    #[must_use]
    pub fn state_at(&self, index: usize) -> NetworkState {
        assert!(index < self.n_states, "state index out of range");
        let mut q = vec![0usize; self.m];
        let mut phs = vec![0usize; self.m];
        self.digits_into(index, &mut q, &mut phs);
        NetworkState::from_digits(&q, &phs)
    }

    /// The factored index of `state`, or `None` if the state does not
    /// belong to this network's product space (wrong dimensions, population
    /// mismatch, phase out of range).
    #[must_use]
    pub fn index_of(&self, state: &NetworkState) -> Option<usize> {
        if state.queue_lengths.len() != self.m || state.phases.len() != self.m {
            return None;
        }
        let total: usize = state.queue_lengths.iter().map(|&v| usize::from(v)).sum();
        if total != self.population {
            return None;
        }
        let mut prank = 0usize;
        for s in 0..self.m {
            let h = usize::from(state.phases[s]);
            if h >= self.blocks[s].phases {
                return None;
            }
            prank += h * self.phase_strides[s];
        }
        let q: Vec<usize> = state.queue_lengths.iter().map(|&v| usize::from(v)).collect();
        Some(self.comp_rank(&q, 0, 0) * self.phase_prod + prank)
    }

    /// Occupancy-dependent service multiplier of station `s` holding `n_s`
    /// jobs (queues serve one job, delay stations serve all in parallel).
    fn multiplier(&self, s: usize, n_s: usize) -> f64 {
        match self.blocks[s].kind {
            StationKind::Queue => 1.0,
            StationKind::Delay => n_s as f64,
        }
    }

    /// Diagonal entry `Q[j, j]` of the state with queues `q` and phase
    /// digits `phs`: minus the total rate of all transitions the
    /// materialized chain keeps (self-loops — completion back into the same
    /// phase routed to the same station — are dropped there and contribute
    /// nothing here either).
    fn diagonal_of(&self, q: &[usize], phs: &[usize]) -> f64 {
        let mut out_rate = 0.0;
        for s in 0..self.m {
            if q[s] == 0 {
                continue;
            }
            let block = &self.blocks[s];
            let h = phs[s];
            let mult = self.multiplier(s, q[s]);
            out_rate += (block.hidden_out[h]
                + block.completion_out[h] * self.routing_out[s]
                - block.self_loop[h])
                * mult;
        }
        -out_rate
    }
}

impl GeneratorOp for FactoredGenerator {
    fn num_states(&self) -> usize {
        self.n_states
    }

    fn left_apply_rows_into(&self, start: usize, x: &[f64], out: &mut [f64]) {
        assert!(
            start + out.len() <= self.n_states,
            "FactoredGenerator: row block out of range"
        );
        assert!(
            x.len() >= self.n_states,
            "FactoredGenerator: input vector shorter than the state space"
        );
        self.for_each_row(start, out.len(), |j, c| {
            let own = x[j] * self.diagonal_of(&c.q, &c.phs);
            out[j - start] = self.gather_inflow(j, c, own, |i| x[i]);
        });
    }

    fn relax_rows_into(&self, start: usize, x_old: &[f64], exit: &[f64], out: &mut [f64]) {
        assert!(
            start + out.len() <= self.n_states,
            "FactoredGenerator: row block out of range"
        );
        // No in-transition of row i comes from i itself, so the gather is
        // exactly the off-diagonal sum.
        self.for_each_row(start, out.len(), |i, c| {
            let s = self.gather_inflow(i, c, 0.0, |j| {
                if j >= start && j < i {
                    out[j - start]
                } else {
                    x_old[j]
                }
            });
            out[i - start] = s / exit[i];
        });
    }

    fn diagonal_rows_into(&self, start: usize, out: &mut [f64]) {
        assert!(
            start + out.len() <= self.n_states,
            "FactoredGenerator: row block out of range"
        );
        self.for_each_row(start, out.len(), |j, c| {
            out[j - start] = self.diagonal_of(&c.q, &c.phs);
        });
    }

    fn aggregate_rows_into(
        &self,
        start: usize,
        x: &[f64],
        levels: &mut [u32],
        flows: &mut LevelFlows,
    ) -> bool {
        if self.level_station.is_none() {
            return false;
        }
        assert!(
            start + levels.len() <= self.n_states,
            "FactoredGenerator: row block out of range"
        );
        flows.reset(
            (self.population + 1) * self.phase_prod,
            2 * self.phase_prod - 1,
        );
        self.for_each_row(start, levels.len(), |j, c| {
            let to = self.level_of(c);
            // Fits: `level_station` checked `(N + 1) · Π phases` against `u32`.
            levels[j - start] = to as u32;
            self.for_each_inflow(j, c, |i, rate, from| {
                if from != to {
                    flows.add(from, to, x[i] * rate);
                }
            });
        });
        true
    }

    fn nnz(&self) -> usize {
        // Per-state upper bound on the entries one apply gathers: for each
        // station, the phase-change fan-in plus the job-movement fan-in,
        // plus the diagonal. An overestimate only moves the engine's
        // parallel cut-in earlier; it is never used as an exact count.
        let mut per_state = 1usize;
        for (s, block) in self.blocks.iter().enumerate() {
            let routing_nnz = self.routing[s].iter().filter(|&&p| p > 0.0).count();
            per_state = per_state.saturating_add(
                block.phases.saturating_mul(1 + routing_nnz),
            );
        }
        self.n_states.saturating_mul(per_state)
    }

    fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        let mut bytes = self.phase_strides.len() * u;
        for block in &self.blocks {
            let in_rates = block.phase_in.iter().chain(&block.completion_in);
            bytes += in_rates.map(|r| r.len() * (u + f)).sum::<usize>();
            bytes += 3 * block.phases * f; // row sums + self-loops
        }
        bytes += self.m * self.m * f + self.m * f; // routing + row sums
        bytes += self.routes.len() * (2 * u + f);
        bytes += self.binom.iter().map(|r| r.len() * u).sum::<usize>();
        bytes
    }
}

impl FactoredGenerator {
    /// Conservative estimate of the bytes a *materialized* solve of this
    /// chain would hold: twice a flat CSR generator (values, column indices
    /// and row pointers) — the `Qᵀ` the solve iterates on, and as much again
    /// for its assembly arrays and for callers that also hold `Q`
    /// ([`crate::statespace::build_state_space`]). The memory-aware
    /// representation routing in [`crate::exact::ExactOptions`] compares
    /// this against its ceiling.
    #[must_use]
    pub fn flat_csr_bytes_estimate(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        let one_csr = self
            .nnz()
            .saturating_mul(f + u)
            .saturating_add((self.n_states + 1) * u);
        one_csr.saturating_mul(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statespace::build_state_space;
    use crate::templates::{figure5_network, tpcw_network, TpcwParameters};
    use mapqn_markov::{
        stationary_sparse, stationary_sparse_op, SparsePreconditioner, SparseSteadyOptions,
    };

    /// The factored generator must agree row-for-row with the CSR built
    /// from the forward transition closure, under the index mapping — same
    /// off-diagonals, same diagonal (self-loop dropping included).
    fn assert_matches_materialized(network: &crate::ClosedNetwork) {
        let space = build_state_space(network, 1_000_000).unwrap();
        let op = FactoredGenerator::new(network, 1_000_000).unwrap();
        assert_eq!(
            space.len(),
            op.num_states(),
            "template networks reach the full product space"
        );
        let n = op.num_states();

        // Map materialized index -> factored index (the identity on a
        // fully reachable space; computed, not assumed).
        let to_factored: Vec<usize> = space
            .states()
            .iter()
            .map(|s| op.index_of(s).expect("reachable state must rank"))
            .collect();

        // Compare x^T Q through both representations on a generic probe.
        let x_mat: Vec<f64> = (0..n).map(|i| 1.0 / (to_factored[i] as f64 + 2.0)).collect();
        let mut x_fac = vec![0.0; n];
        for (mat, &fac) in to_factored.iter().enumerate() {
            x_fac[fac] = x_mat[mat];
        }
        let qt = space.ctmc().generator().transpose();
        let mut y_mat = vec![0.0; n];
        qt.matvec_rows_into(0, &x_mat, &mut y_mat);
        let mut y_fac = vec![0.0; n];
        op.left_apply_rows_into(0, &x_fac, &mut y_fac);
        for (mat, &fac) in to_factored.iter().enumerate() {
            assert!(
                (y_mat[mat] - y_fac[fac]).abs() < 1e-10,
                "row {mat}: materialized {} vs factored {}",
                y_mat[mat],
                y_fac[fac]
            );
        }

        // Diagonals agree too (exit rates drive the Jacobi rung).
        let mut diag = vec![0.0; n];
        op.diagonal_rows_into(0, &mut diag);
        for (mat, &fac) in to_factored.iter().enumerate() {
            let d = space.ctmc().generator().get(mat, mat);
            assert!((d - diag[fac]).abs() < 1e-10, "diagonal at {mat}");
        }
    }

    #[test]
    fn matches_materialized_generator_on_figure5() {
        // SCV=16 exercises MAP phases; SCV=4 a different correlation mix.
        assert_matches_materialized(&figure5_network(4, 16.0, 0.5).unwrap());
        assert_matches_materialized(&figure5_network(3, 4.0, 0.2).unwrap());
    }

    #[test]
    fn matches_materialized_generator_on_tpcw() {
        // Delay station + MAP queues: the occupancy-dependent multiplier
        // and the frozen-phase conventions all in one model.
        let net = tpcw_network(&TpcwParameters {
            browsers: 4,
            ..TpcwParameters::default()
        })
        .unwrap();
        assert_matches_materialized(&net);
    }

    /// The per-row synthesis the operator used before the row cursor —
    /// one `comp_unrank` per composition change, one `comp_rank` per job
    /// move per row, rates read from the dense per-station blocks — frozen
    /// here as the bitwise reference for the apply.
    fn frozen_left_apply(
        net: &crate::ClosedNetwork,
        op: &FactoredGenerator,
        start: usize,
        x: &[f64],
        out: &mut [f64],
    ) {
        let m = op.m;
        let block = |s: usize, rate: &dyn Fn(usize, usize) -> f64| -> Vec<Vec<f64>> {
            let p = net.station(s).service.phases();
            (0..p).map(|h| (0..p).map(|h2| rate(h, h2)).collect()).collect()
        };
        let hidden: Vec<_> = (0..m)
            .map(|s| block(s, &|h, h2| net.station(s).service.hidden_rate(h, h2)))
            .collect();
        let completion: Vec<_> = (0..m)
            .map(|s| block(s, &|h, h2| net.station(s).service.completion_rate_to(h, h2)))
            .collect();
        let routing: Vec<Vec<f64>> = (0..m)
            .map(|a| (0..m).map(|b| net.routing(a, b)).collect())
            .collect();
        let mult = |s: usize, n_s: usize| match net.station(s).kind {
            StationKind::Queue => 1.0,
            StationKind::Delay => n_s as f64,
        };
        let mut q = vec![0usize; m];
        let mut phs = vec![0usize; m];
        let mut q_pred = vec![0usize; m];
        let mut cached_crank = usize::MAX;
        for (row, o) in out.iter_mut().enumerate() {
            let j = start + row;
            let crank = j / op.phase_prod;
            let prank = j % op.phase_prod;
            if crank != cached_crank {
                op.comp_unrank(crank, &mut q);
                cached_crank = crank;
            }
            for (s, ph) in phs.iter_mut().enumerate() {
                *ph = (prank / op.phase_strides[s]) % hidden[s].len();
            }
            let mut out_rate = 0.0;
            for s in 0..m {
                if q[s] == 0 {
                    continue;
                }
                let h = phs[s];
                let hidden_out: f64 = hidden[s][h].iter().sum();
                let completion_out: f64 = completion[s][h].iter().sum();
                let routing_out: f64 = routing[s].iter().sum();
                let self_loop = completion[s][h][h] * routing[s][s];
                out_rate += (hidden_out + completion_out * routing_out - self_loop) * mult(s, q[s]);
            }
            let mut acc = x[j] * -out_rate;
            for s in 0..m {
                if q[s] == 0 {
                    continue;
                }
                let h_j = phs[s];
                let p_ss = routing[s][s];
                let stride = op.phase_strides[s];
                let base = j - h_j * stride;
                for h in 0..hidden[s].len() {
                    if h == h_j {
                        continue;
                    }
                    let rate = hidden[s][h][h_j] + completion[s][h][h_j] * p_ss;
                    if rate > 0.0 {
                        acc += x[base + h * stride] * (rate * mult(s, q[s]));
                    }
                }
            }
            for a in 0..m {
                let h_a = phs[a];
                let stride = op.phase_strides[a];
                for b in 0..m {
                    if b == a || q[b] == 0 {
                        continue;
                    }
                    let p_ab = routing[a][b];
                    if p_ab <= 0.0 {
                        continue;
                    }
                    q_pred.copy_from_slice(&q);
                    q_pred[a] += 1;
                    q_pred[b] -= 1;
                    let base = op.comp_rank(&q_pred, 0, 0) * op.phase_prod + (prank - h_a * stride);
                    for h in 0..hidden[a].len() {
                        let cpl = completion[a][h][h_a];
                        if cpl > 0.0 {
                            acc += x[base + h * stride] * (cpl * p_ab * mult(a, q[a] + 1));
                        }
                    }
                }
            }
            *o = acc;
        }
    }

    /// Deterministic positive probe vector in `[0.25, 1.25)`.
    fn probe(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                0.25 + (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// The models of the cross-representation tests, plus a delay station
    /// routing with fractional probabilities: its job-move rates
    /// `(cpl · p_ab) · mult` round differently from `cpl · (p_ab · mult)`.
    fn cross_models() -> Vec<crate::ClosedNetwork> {
        use crate::network::Station;
        use crate::service::Service;
        use mapqn_linalg::DMatrix;
        use mapqn_stochastic::{fit_map2, Map2FitSpec};
        let map = fit_map2(&Map2FitSpec::new(0.7, 9.0, 0.4)).unwrap().map;
        let split_delay = crate::ClosedNetwork::new(
            vec![
                Station::delay("think", 1.7).unwrap(),
                Station::queue("front", Service::map(map)),
                Station::queue("db", Service::exponential(2.3).unwrap()),
            ],
            DMatrix::from_row_slice(3, 3, &[0.0, 0.35, 0.65, 0.6, 0.0, 0.4, 0.9, 0.1, 0.0]),
            7,
        )
        .unwrap();
        vec![
            figure5_network(5, 16.0, 0.5).unwrap(),
            figure5_network(6, 16.0, 0.5).unwrap(),
            tpcw_network(&TpcwParameters {
                browsers: 6,
                ..TpcwParameters::default()
            })
            .unwrap(),
            split_delay,
        ]
    }

    #[test]
    fn cursor_apply_is_bitwise_the_frozen_per_row_synthesis() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for net in cross_models() {
            let op = FactoredGenerator::new(&net, 100_000).unwrap();
            let n = op.num_states();
            let x = probe(n, n as u64);
            // Odd block lengths start blocks mid-composition.
            for block_len in [1usize, 3, 7, n] {
                let mut frozen = vec![0.0; n];
                let mut cursor = vec![0.0; n];
                for (b, (f, c)) in frozen
                    .chunks_mut(block_len)
                    .zip(cursor.chunks_mut(block_len))
                    .enumerate()
                {
                    frozen_left_apply(&net, &op, b * block_len, &x, f);
                    op.left_apply_rows_into(b * block_len, &x, c);
                }
                assert_eq!(bits(&frozen), bits(&cursor), "n {n} block_len {block_len}");
            }
        }
    }

    #[test]
    fn relaxation_matches_reference_gauss_seidel_over_synthesized_rows() {
        for net in cross_models() {
            let op = FactoredGenerator::new(&net, 100_000).unwrap();
            let n = op.num_states();
            // Rows of Qᵀ, assembled column by column from unit vectors.
            let mut qt = vec![vec![0.0; n]; n];
            let mut unit = vec![0.0; n];
            let mut col = vec![0.0; n];
            for k in 0..n {
                unit[k] = 1.0;
                op.left_apply_rows_into(0, &unit, &mut col);
                unit[k] = 0.0;
                for i in 0..n {
                    qt[i][k] = col[i];
                }
            }
            let mut exit = vec![0.0; n];
            op.diagonal_rows_into(0, &mut exit);
            exit.iter_mut().for_each(|e| *e = -*e);
            let x_old = probe(n, 3 * n as u64);
            // 5 and 11 cut compositions mid-block and do not divide n.
            for block_len in [1usize, 5, 11, n] {
                let mut expected = vec![0.0; n];
                for start in (0..n).step_by(block_len) {
                    for i in start..(start + block_len).min(n) {
                        let mut s = 0.0;
                        for (j, &v) in qt[i].iter().enumerate() {
                            if j != i {
                                s += v * if j >= start && j < i { expected[j] } else { x_old[j] };
                            }
                        }
                        expected[i] = s / exit[i];
                    }
                }
                let mut got = vec![0.0; n];
                for (b, chunk) in got.chunks_mut(block_len).enumerate() {
                    op.relax_rows_into(b * block_len, &x_old, &exit, chunk);
                }
                for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                    assert!(
                        (g - e).abs() <= 1e-13 * e.abs(),
                        "n {n} block_len {block_len} row {i}: {g} vs {e}"
                    );
                }
            }
        }
    }

    /// The factored level of every state equals its materialized level,
    /// and both coarse scans give the same level flows under the index
    /// mapping.
    fn assert_levels_match_materialized(network: &crate::ClosedNetwork) {
        use mapqn_linalg::CsrGenerator;
        let space = build_state_space(network, 1_000_000).unwrap();
        let op = FactoredGenerator::new(network, 1_000_000).unwrap();
        let levels = space.ctmc().levels().expect("the network has levels");
        let to_factored: Vec<usize> = space
            .states()
            .iter()
            .map(|s| op.index_of(s).expect("reachable state must rank"))
            .collect();

        let x_mat = probe(space.len(), 5);
        let mut x_fac = vec![0.0; op.num_states()];
        for (&fac, &x) in to_factored.iter().zip(&x_mat) {
            x_fac[fac] = x;
        }
        let mut fac_levels = vec![0u32; op.num_states()];
        let mut fac_flows = LevelFlows::default();
        assert!(op.aggregate_rows_into(0, &x_fac, &mut fac_levels, &mut fac_flows));
        for (mat, &fac) in to_factored.iter().enumerate() {
            assert_eq!(fac_levels[fac], levels[mat], "level of state {mat}");
        }

        let qt = space.ctmc().generator().transpose();
        let materialized = CsrGenerator::new(&qt, Some(levels)).unwrap();
        let mut mat_levels = vec![0u32; space.len()];
        let mut mat_flows = LevelFlows::default();
        assert!(materialized.aggregate_rows_into(0, &x_mat, &mut mat_levels, &mut mat_flows));
        assert_eq!(mat_levels, levels);
        assert_eq!(mat_flows.count(), fac_flows.count());
        assert!(mat_flows.half_band() <= fac_flows.half_band());
        let w = fac_flows.half_band();
        for from in 0..fac_flows.count() {
            for to in from.saturating_sub(w)..(from + w + 1).min(fac_flows.count()) {
                let (m, f) = (mat_flows.get(from, to), fac_flows.get(from, to));
                assert!(
                    (m - f).abs() <= 1e-12 * m.abs().max(f.abs()),
                    "flow {from} -> {to}: materialized {m} vs factored {f}"
                );
            }
        }
    }

    #[test]
    fn levels_match_materialized_levels() {
        use crate::random_models::{random_model, RandomModelSpec};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        assert_levels_match_materialized(&figure5_network(6, 16.0, 0.5).unwrap());
        assert_levels_match_materialized(
            &tpcw_network(&TpcwParameters {
                browsers: 7,
                ..TpcwParameters::default()
            })
            .unwrap(),
        );
        let three_maps = random_model(&RandomModelSpec::default(), &mut StdRng::seed_from_u64(1))
            .unwrap()
            .network
            .with_population(5)
            .unwrap();
        assert_eq!(three_maps.joint_phase_count(), 8);
        assert_levels_match_materialized(&three_maps);
    }

    #[test]
    fn state_walk_matches_random_access_decoding() {
        let net = figure5_network(5, 16.0, 0.5).unwrap();
        let op = FactoredGenerator::new(&net, 1_000_000).unwrap();
        let mut visited = 0;
        op.for_each_state(|idx, queues, phases| {
            assert_eq!(op.state_at(idx), NetworkState::from_digits(queues, phases), "state {idx}");
            visited += 1;
        });
        assert_eq!(visited, op.num_states());
    }

    #[test]
    fn rank_unrank_roundtrip_covers_the_space() {
        let net = figure5_network(5, 16.0, 0.5).unwrap();
        let op = FactoredGenerator::new(&net, 1_000_000).unwrap();
        for idx in 0..op.num_states() {
            let state = op.state_at(idx);
            assert_eq!(op.index_of(&state), Some(idx));
            let total: u16 = state.queue_lengths.iter().sum();
            assert_eq!(usize::from(total), net.population());
        }
    }

    #[test]
    fn implicit_solve_matches_materialized_on_the_jacobi_rung() {
        // The cross-representation regression: force the same ladder rung
        // (Jacobi — the first one both representations can run) on both
        // paths and require pi agreement at 1e-10 under the index mapping.
        let net = figure5_network(6, 16.0, 0.5).unwrap();
        let space = build_state_space(&net, 100_000).unwrap();
        let op = FactoredGenerator::new(&net, 100_000).unwrap();
        let opts = SparseSteadyOptions {
            preconditioner: SparsePreconditioner::Jacobi,
            ..SparseSteadyOptions::default()
        };
        let materialized = stationary_sparse(space.ctmc(), &opts).unwrap();
        let implicit = stationary_sparse_op(&op, &opts).unwrap();
        assert_eq!(
            materialized.used, implicit.used,
            "both paths must report the same ladder rung"
        );
        for (mat, state) in space.states().iter().enumerate() {
            let fac = op.index_of(state).unwrap();
            let diff = (materialized.pi[mat] - implicit.pi[fac]).abs();
            assert!(diff <= 1e-10, "pi diff {diff} at state {mat}");
        }
    }

    #[test]
    fn memory_accounting_is_block_sized() {
        let net = figure5_network(40, 16.0, 0.5).unwrap();
        let space = build_state_space(&net, 100_000).unwrap();
        let op = FactoredGenerator::new(&net, 100_000).unwrap();
        let flat = space.generator_memory_bytes();
        let factored = op.memory_bytes();
        assert!(
            factored * 5 <= flat,
            "factored {factored} bytes should be >=5x below flat {flat} bytes"
        );
        // The flat estimate is an upper bound on the real CSR, twice over.
        assert!(op.flat_csr_bytes_estimate() >= 2 * flat);
    }

    #[test]
    fn limits_and_invalid_states_are_rejected() {
        let net = figure5_network(30, 16.0, 0.5).unwrap();
        assert!(matches!(
            FactoredGenerator::new(&net, 10),
            Err(CoreError::Markov(MarkovError::StateSpaceTooLarge { limit: 10 }))
        ));
        let op = FactoredGenerator::new(&net, 1_000_000).unwrap();
        // Wrong population.
        assert_eq!(
            op.index_of(&NetworkState {
                queue_lengths: vec![1, 0, 0],
                phases: vec![0, 0, 0],
            }),
            None
        );
        // Phase out of range.
        assert_eq!(
            op.index_of(&NetworkState {
                queue_lengths: vec![30, 0, 0],
                phases: vec![7, 0, 0],
            }),
            None
        );
        // Wrong dimension.
        assert_eq!(
            op.index_of(&NetworkState {
                queue_lengths: vec![30],
                phases: vec![0],
            }),
            None
        );
    }
}

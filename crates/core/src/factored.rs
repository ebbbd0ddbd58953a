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
//! Construction turns the station blocks into per-phase-rank tables. A
//! *segment* is one source of in-transitions: the phase-only moves of a
//! multi-phase station, or one job-moving route `a → b`, whose
//! predecessors hold one more job at `a` and one fewer at `b`. For each
//! phase rank `p` the table lists the in-transitions into `p` segment by
//! segment as `(source phase rank, segment, rate)`, with rates `rate` and
//! `cpl · p_ab` before the occupancy multiplier, plus each station's kept
//! out-rate at `p` for the diagonal: `O((M + routes) · Π phases · max
//! phases)` entries, none indexed by which stations are busy.
//!
//! Rows are synthesized in index order. A cursor walks the compositions in
//! lexicographic order and knows, per segment, whether it is live
//! (`q[b] > 0`), its multiplier and the first index of its predecessor
//! composition `q + e_a − e_b`. In the common successor step (one job from
//! the last station to the one before) every predecessor steps to its own
//! successor, so those indexes advance without a rank, and while both of
//! the last two stations stay busy and neither is a delay station no
//! segment changes liveness or multiplier. Such a *span* of compositions
//! shares one stencil: each rank's live table entries, resolved once to a
//! source offset from the row and a rate with its multiplier applied
//! (`rate · mult`, and `(cpl · p_ab) · mult` on job moves). A row then
//! gathers its rank's stencil taps with no digit arithmetic, in the same
//! order and with the same products as a per-row synthesis (pinned bitwise
//! by the tests). The apply, the Gauss–Seidel relaxation and the level
//! flows share that one gather. On TPC-W at N = 60 (3,782 states, two
//! phases, x86-64) a relaxed row costs about 11 ns against about 7 ns for
//! a CSR row of the same chain (`cargo bench -p mapqn-bench --bench
//! kernels`, `factored_relax_sweep` and `gauss_seidel_sweep`).
//!
//! ## Aggregation levels
//!
//! The walk also gives every index its aggregation level, `q[b] · Π
//! phases + phase rank` with `b` the bottleneck queue of
//! [`crate::statespace::build_state_space`] — the same level the
//! materialized chain gives the same state. Each stencil tap knows its
//! source's level offset from the row's, so
//! [`GeneratorOp::left_apply_rows_into`] accumulates the level flows in
//! the scan that applies the operator, and the sparse engine's
//! Gauss–Seidel rung runs its coarse step on the factored path too.
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

/// One in-transition into a phase rank: from phase rank `src` of segment
/// `seg`'s predecessor composition, at `rate` before the occupancy
/// multiplier, from a level `level_delta` away from the target row's.
#[derive(Clone, Copy)]
struct InEntry {
    src: usize,
    seg: usize,
    rate: f64,
    level_delta: isize,
}

/// The in-transitions from the compositions `q + e_a − e_b`: the
/// phase-only moves at a multi-phase station `a` when `a == b`, the
/// completions at `a` routed to `b` otherwise.
#[derive(Clone, Copy)]
struct Segment {
    a: usize,
    b: usize,
    /// Whether `a` is a delay station, whose multiplier is its job count.
    delay: bool,
}

/// One segment as seen from the current composition `q`.
#[derive(Clone, Copy, Default)]
struct SegState {
    /// First index of the predecessor composition `q + e_a − e_b`; valid
    /// while `q[b] > 0`.
    base: usize,
    /// `q[b] > 0`: the segment's transitions exist in this composition.
    live: bool,
    /// Occupancy multiplier of the station the transitions fire at.
    mult: f64,
}

/// A position in the factored index space: one composition, stepped
/// forward in index order, with its view of every segment.
struct RowBlock {
    /// Index of the composition's phase rank 0.
    first: usize,
    /// Queue lengths (the composition).
    q: Vec<usize>,
    /// Per segment, in segment order.
    segs: Vec<SegState>,
    /// Aggregation level of the composition's phase rank 0.
    level_base: usize,
}

/// One in-transition of a stencil row `j`: from row `j + delta` at `rate`
/// (multiplier applied), whose level is `j`'s plus `level_delta`.
#[derive(Clone, Copy)]
struct Tap {
    delta: isize,
    rate: f64,
    level_delta: isize,
}

/// The rows of a span of compositions — consecutive compositions over
/// which every segment keeps its liveness and multiplier — as a stencil
/// that repeats every `Π phases` rows.
#[derive(Default)]
struct Stencil {
    /// `taps[ptr[p] .. ptr[p + 1]]` — the live in-transitions into phase
    /// rank `p`, in gather order.
    ptr: Vec<usize>,
    taps: Vec<Tap>,
    /// `diagonal[p]` — `Q[j, j]` of a row at phase rank `p`: minus the
    /// total rate of all transitions the materialized chain keeps
    /// (self-loops — completion back into the same phase routed to the same
    /// station — are dropped there and contribute nothing here either).
    diagonal: Vec<f64>,
}

impl Stencil {
    /// The in-transitions of a row at phase rank `p`.
    #[inline]
    fn taps(&self, p: usize) -> &[Tap] {
        &self.taps[self.ptr[p]..self.ptr[p + 1]]
    }
}

/// The network generator `Q` stored as per-phase-rank tables of the
/// station blocks plus a combinatorial state ranking — never materialized.
/// Implements [`GeneratorOp`], so it plugs straight into
/// [`mapqn_markov::stationary_sparse_op`] and runs every rung of its ladder,
/// Gauss–Seidel included, over rows synthesized in index order.
pub struct FactoredGenerator {
    /// Per station: its kind and phase count.
    stations: Vec<(StationKind, usize)>,
    /// The phase-only moves of each multi-phase station, then the
    /// job-moving routes `a → b` (`p_ab > 0`, `a != b`) in `(a, b)` order —
    /// the gather order of a row.
    segments: Vec<Segment>,
    /// `in_entries[in_ptr[p] .. in_ptr[p + 1]]` — the in-transitions into
    /// phase rank `p`, segment by segment, source phase ascending.
    in_ptr: Vec<usize>,
    in_entries: Vec<InEntry>,
    /// `out_rates[p · M + s]` — station `s`'s total kept out-rate at phase
    /// rank `p` before its multiplier (self-loops excluded).
    out_rates: Vec<f64>,
    /// `phase_digits[p · M + s]` — the phase of station `s` at rank `p`.
    phase_digits: Vec<usize>,
    /// Per-state upper bound on the entries one apply gathers.
    per_state_nnz: usize,
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
        let stations: Vec<(StationKind, usize)> = network
            .stations()
            .iter()
            .map(|station| (station.kind, station.service.phases()))
            .collect();

        let mut phase_strides = vec![1usize; m];
        for s in (0..m.saturating_sub(1)).rev() {
            phase_strides[s] = phase_strides[s + 1] * stations[s + 1].1;
        }
        let phase_prod = phase_strides[0] * stations[0].1;
        let phase_digits: Vec<usize> = (0..phase_prod)
            .flat_map(|p| (0..m).map(move |s| (p, s)))
            .map(|(p, s)| (p / phase_strides[s]) % stations[s].1)
            .collect();

        // The station blocks: hidden-transition and completion rates.
        let block = |s: usize, rate: &dyn Fn(usize, usize) -> f64| -> Vec<Vec<f64>> {
            let phases = stations[s].1;
            (0..phases)
                .map(|h| (0..phases).map(|h2| rate(h, h2)).collect())
                .collect()
        };
        let service = |s: usize| &network.station(s).service;
        let hidden: Vec<_> = (0..m)
            .map(|s| block(s, &|h, h2| service(s).hidden_rate(h, h2)))
            .collect();
        let completion: Vec<_> = (0..m)
            .map(|s| block(s, &|h, h2| service(s).completion_rate_to(h, h2)))
            .collect();
        let routing = |a: usize, b: usize| network.routing(a, b);
        let level_station = level_station(network);

        let routes = (0..m).flat_map(|a| {
            (0..m)
                .filter(move |&b| b != a && routing(a, b) > 0.0)
                .map(move |b| (a, b))
        });
        let segments: Vec<Segment> = (0..m)
            .filter(|&s| stations[s].1 > 1)
            .map(|s| (s, s))
            .chain(routes)
            .map(|(a, b)| Segment {
                a,
                b,
                delay: stations[a].0 == StationKind::Delay,
            })
            .collect();

        // Row `p` gathers, segment by segment, the source phases `h` of
        // station `a` (all other digits as in `p`): a hidden transition or
        // a completion routed back to `a` for `(a, a)`, `h != h_a`; a
        // completion at `a` routed to `b` otherwise.
        let mut in_ptr = Vec::with_capacity(phase_prod + 1);
        let mut in_entries = Vec::new();
        for p in 0..phase_prod {
            in_ptr.push(in_entries.len());
            for (seg, &Segment { a, b, .. }) in segments.iter().enumerate() {
                let h_a = phase_digits[p * m + a];
                let p_ab = routing(a, b);
                for h in 0..stations[a].1 {
                    let (rate, kept) = if a == b {
                        if h == h_a {
                            continue;
                        }
                        let rate = hidden[a][h][h_a] + completion[a][h][h_a] * p_ab;
                        (rate, rate > 0.0)
                    } else {
                        let cpl = completion[a][h][h_a];
                        (cpl * p_ab, cpl > 0.0)
                    };
                    if kept {
                        let src = p - h_a * phase_strides[a] + h * phase_strides[a];
                        // The predecessor holds one more job at `a` and one
                        // fewer at `b`.
                        let jobs = level_station
                            .map_or(0, |bn| isize::from(a == bn) - isize::from(b == bn));
                        in_entries.push(InEntry {
                            src,
                            seg,
                            rate,
                            level_delta: jobs * phase_prod as isize + src as isize - p as isize,
                        });
                    }
                }
            }
        }
        in_ptr.push(in_entries.len());

        let out_rates = phase_digits
            .iter()
            .enumerate()
            .map(|(k, &h)| {
                let s = k % m;
                let hidden_out: f64 = hidden[s][h].iter().sum();
                let completion_out: f64 = completion[s][h].iter().sum();
                let routing_out: f64 = (0..m).map(|b| routing(s, b)).sum();
                hidden_out + completion_out * routing_out - completion[s][h][h] * routing(s, s)
            })
            .collect();

        // Per station, the phase-change fan-in plus the job-movement
        // fan-in, plus the diagonal.
        let per_state_nnz = (0..m).fold(1usize, |acc, s| {
            let routing_nnz = (0..m).filter(|&b| routing(s, b) > 0.0).count();
            acc.saturating_add(stations[s].1.saturating_mul(1 + routing_nnz))
        });

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
            stations,
            segments,
            in_ptr,
            in_entries,
            out_rates,
            phase_digits,
            per_state_nnz,
            population,
            m,
            phase_prod,
            phase_strides,
            binom,
            n_states,
            level_station,
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

    /// `Π_k phases_k`, the number of indexes per composition.
    pub(crate) fn phase_prod(&self) -> usize {
        self.phase_prod
    }

    /// Index distance between two phases of station `s` one apart.
    pub(crate) fn phase_stride(&self, s: usize) -> usize {
        self.phase_strides[s]
    }

    /// The phase digits at phase rank `p`, station 0 first.
    fn digits(&self, p: usize) -> &[usize] {
        &self.phase_digits[p * self.m..(p + 1) * self.m]
    }

    /// Decodes `index` into queue lengths `q` and phase digits `phs` (one
    /// `comp_unrank`).
    pub(crate) fn digits_into(&self, index: usize, q: &mut [usize], phs: &mut [usize]) {
        self.comp_unrank(index / self.phase_prod, q);
        phs.copy_from_slice(self.digits(index % self.phase_prod));
    }

    /// The composition of rank `rank`, settled.
    fn block_at(&self, rank: usize) -> RowBlock {
        let mut c = RowBlock {
            first: rank * self.phase_prod,
            q: vec![0; self.m],
            segs: vec![SegState::default(); self.segments.len()],
            level_base: 0,
        };
        self.comp_unrank(rank, &mut c.q);
        self.settle(&mut c);
        c
    }

    /// Sets what every row of `c`'s composition shares from scratch: which
    /// segments are live, the first index of each live one's predecessor
    /// composition, the multipliers and the level base.
    fn settle(&self, c: &mut RowBlock) {
        for (seg, s) in c.segs.iter_mut().zip(&self.segments) {
            seg.live = c.q[s.b] > 0;
            if seg.live {
                seg.base = self.comp_rank(&c.q, s.a, s.b) * self.phase_prod;
            }
            seg.mult = self.multiplier(s.a, c.q[s.a] + usize::from(s.a != s.b));
        }
        c.level_base = self.level_station.map_or(0, |bn| c.q[bn] * self.phase_prod);
    }

    /// Steps `c` to the next composition. Stepping past the last
    /// composition leaves it as is.
    fn step(&self, c: &mut RowBlock) {
        // Lexicographic successor: move one job from the last non-empty
        // station `t >= 1` to `t - 1`, and the rest of `t`'s jobs to the
        // last station.
        let m = self.m;
        let Some(t) = (1..m).rev().find(|&t| c.q[t] > 0) else {
            return;
        };
        c.first += self.phase_prod;
        let rest = c.q[t] - 1;
        c.q[t - 1] += 1;
        c.q[t] = 0;
        c.q[m - 1] = rest;
        if t + 1 < m {
            self.settle(c);
            return;
        }
        // The common step moves one job from station M-1 to M-2, and so
        // does every predecessor that stays valid: each one also steps to
        // its successor. Only the multipliers at a delay station and the
        // level base follow the queue lengths.
        for (seg, s) in c.segs.iter_mut().zip(&self.segments) {
            seg.base += self.phase_prod;
            if s.delay {
                seg.mult = (c.q[s.a] + usize::from(s.a != s.b)) as f64;
            }
        }
        c.level_base = self.level_station.map_or(0, |bn| c.q[bn] * self.phase_prod);
        if c.q[m - 2] == 1 || rest == 0 {
            // A segment into M-2 just became valid (its predecessor needs a
            // rank), or one into M-1 died.
            for (seg, s) in c.segs.iter_mut().zip(&self.segments) {
                let live = c.q[s.b] > 0;
                if live && !seg.live {
                    seg.base = self.comp_rank(&c.q, s.a, s.b) * self.phase_prod;
                }
                seg.live = live;
            }
        }
    }

    /// Number of compositions from `c` on that share its stencil: while
    /// stations M-2 and M-1 both stay busy and neither is a delay station,
    /// the common step keeps every segment's liveness and multiplier.
    fn span_len(&self, c: &RowBlock) -> usize {
        let m = self.m;
        let varies = |s: usize| self.stations[s].0 == StationKind::Delay;
        if m < 2 || c.q[m - 2] == 0 || varies(m - 2) || varies(m - 1) {
            1
        } else {
            c.q[m - 1].max(1)
        }
    }

    /// Resolves `c`'s composition into `stencil`: the live in-transitions
    /// of each phase rank, in gather order, with their multipliers applied
    /// and their sources relative to the row, and each rank's diagonal.
    fn resolve(&self, c: &RowBlock, stencil: &mut Stencil) {
        stencil.ptr.clear();
        stencil.taps.clear();
        stencil.diagonal.clear();
        for p in 0..self.phase_prod {
            stencil.ptr.push(stencil.taps.len());
            let row = (c.first + p) as isize;
            for e in &self.in_entries[self.in_ptr[p]..self.in_ptr[p + 1]] {
                let seg = &c.segs[e.seg];
                if seg.live {
                    stencil.taps.push(Tap {
                        delta: (seg.base + e.src) as isize - row,
                        rate: e.rate * seg.mult,
                        level_delta: e.level_delta,
                    });
                }
            }
            let rates = &self.out_rates[p * self.m..(p + 1) * self.m];
            let mut out_rate = 0.0;
            for (s, (&rate, &q_s)) in rates.iter().zip(&c.q).enumerate() {
                if q_s > 0 {
                    out_rate += rate * self.multiplier(s, q_s);
                }
            }
            stencil.diagonal.push(-out_rate);
        }
        stencil.ptr.push(stencil.taps.len());
    }

    /// Walks the rows `start .. start + len` in index order, handing `row`
    /// each row's stencil, index, phase rank and aggregation level. One
    /// stencil serves a whole span of compositions, which the walk then
    /// crosses in one jump.
    fn for_each_row(
        &self,
        start: usize,
        len: usize,
        mut row: impl FnMut(&Stencil, usize, usize, usize),
    ) {
        if len == 0 {
            return;
        }
        let (end, phases) = (start + len, self.phase_prod);
        let m = self.m;
        // Per common step, the level base moves with the jobs at the
        // bottleneck.
        let level_step = match self.level_station {
            Some(bn) if bn + 2 == m => phases as isize,
            Some(bn) if bn + 1 == m => -(phases as isize),
            _ => 0,
        };
        let mut c = self.block_at(start / phases);
        let mut stencil = Stencil::default();
        loop {
            let span = self.span_len(&c);
            self.resolve(&c, &mut stencil);
            let span_end = end.min(c.first + span * phases);
            let mut j = start.max(c.first);
            let (mut p, mut level_base) = (j - c.first, c.level_base);
            while j < span_end {
                row(&stencil, j, p, level_base + p);
                j += 1;
                p += 1;
                if p == phases {
                    p = 0;
                    level_base = level_base.wrapping_add_signed(level_step);
                }
            }
            if span_end == end {
                return;
            }
            // Cross the span's common steps at once, then take the step
            // that leaves it.
            let shift = (span - 1) * phases;
            c.first += shift;
            c.q[m - 2] += span - 1;
            c.q[m - 1] -= span - 1;
            for seg in &mut c.segs {
                seg.base += shift;
            }
            self.step(&mut c);
        }
    }

    /// Visits every index in order with its queue lengths and phase digits
    /// — the sequential counterpart of [`FactoredGenerator::state_at`],
    /// stepping one composition at a time instead of unranking each index.
    pub(crate) fn for_each_state(&self, mut visit: impl FnMut(usize, &[usize], &[usize])) {
        let mut c = self.block_at(0);
        for _ in 0..self.n_states / self.phase_prod {
            for p in 0..self.phase_prod {
                visit(c.first + p, &c.q, self.digits(p));
            }
            self.step(&mut c);
        }
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
            if h >= self.stations[s].1 {
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
        match self.stations[s].0 {
            StationKind::Queue => 1.0,
            StationKind::Delay => n_s as f64,
        }
    }
}

impl GeneratorOp for FactoredGenerator {
    fn num_states(&self) -> usize {
        self.n_states
    }

    fn left_apply_rows_into(
        &self,
        start: usize,
        x: &[f64],
        out: &mut [f64],
        flows: Option<&mut LevelFlows>,
    ) -> bool {
        assert!(
            start + out.len() <= self.n_states,
            "FactoredGenerator: row block out of range"
        );
        let leveled = self.level_station.is_some();
        if out.is_empty() {
            return leveled;
        }
        assert!(
            x.len() >= self.n_states,
            "FactoredGenerator: input vector shorter than the state space"
        );
        let read = |j: usize, tap: &Tap| x[j.wrapping_add_signed(tap.delta)] * tap.rate;
        match flows.filter(|_| leveled) {
            Some(flows) => {
                flows.reset(
                    (self.population + 1) * self.phase_prod,
                    2 * self.phase_prod - 1,
                    out.len(),
                );
                self.for_each_row(start, out.len(), |stencil, j, p, to| {
                    // Fits: `level_station` checked `(N + 1) · Π phases`
                    // against `u32`.
                    flows.levels[j - start] = to as u32;
                    let mut acc = x[j] * stencil.diagonal[p];
                    for tap in stencil.taps(p) {
                        let flow = read(j, tap);
                        acc += flow;
                        flows.add(to.wrapping_add_signed(tap.level_delta), to, flow);
                    }
                    out[j - start] = acc;
                });
            }
            None => self.for_each_row(start, out.len(), |stencil, j, p, _| {
                let mut acc = x[j] * stencil.diagonal[p];
                for tap in stencil.taps(p) {
                    acc += read(j, tap);
                }
                out[j - start] = acc;
            }),
        }
        leveled
    }

    fn relax_rows_into(&self, start: usize, x_old: &[f64], exit: &[f64], out: &mut [f64]) {
        assert!(
            start + out.len() <= self.n_states,
            "FactoredGenerator: row block out of range"
        );
        // Relaxed in place over a copy of the block's old values: a row
        // inside the block reads its new value once it has been relaxed and
        // its old one before, so one range test picks the source. No
        // in-transition of row i comes from i itself, so the gather is
        // exactly the off-diagonal sum.
        let len = out.len();
        out.copy_from_slice(&x_old[start..start + len]);
        self.for_each_row(start, len, |stencil, i, p, _| {
            let mut s = 0.0;
            for tap in stencil.taps(p) {
                let j = i.wrapping_add_signed(tap.delta);
                let v = out.get(j.wrapping_sub(start)).copied();
                s += v.unwrap_or_else(|| x_old[j]) * tap.rate;
            }
            out[i - start] = s / exit[i];
        });
    }

    fn diagonal_rows_into(&self, start: usize, out: &mut [f64]) {
        assert!(
            start + out.len() <= self.n_states,
            "FactoredGenerator: row block out of range"
        );
        self.for_each_row(start, out.len(), |stencil, j, p, _| {
            out[j - start] = stencil.diagonal[p];
        });
    }

    fn nnz(&self) -> usize {
        // An overestimate only moves the engine's parallel cut-in earlier;
        // it is never used as an exact count.
        self.n_states.saturating_mul(self.per_state_nnz)
    }

    fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        let mut bytes = (self.phase_strides.len() + self.stations.len()) * u;
        bytes += self.segments.len() * std::mem::size_of::<Segment>();
        bytes += self.in_ptr.len() * u;
        bytes += self.in_entries.len() * std::mem::size_of::<InEntry>();
        bytes += self.out_rates.len() * f + self.phase_digits.len() * u;
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
        op.left_apply_rows_into(0, &x_fac, &mut y_fac, None);
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

    /// The per-row synthesis the operator used before its row walk — one
    /// `comp_unrank` and digit decoding per row, one `comp_rank` per job
    /// move per row, phase-only in-transitions station by station and then
    /// job moves route by route, rates read from the dense per-station
    /// blocks — frozen here as the bitwise reference for the apply, the
    /// relaxation and the level flows.
    struct Frozen<'a> {
        net: &'a crate::ClosedNetwork,
        op: &'a FactoredGenerator,
        hidden: Vec<Vec<Vec<f64>>>,
        completion: Vec<Vec<Vec<f64>>>,
        routing: Vec<Vec<f64>>,
    }

    impl<'a> Frozen<'a> {
        fn new(net: &'a crate::ClosedNetwork, op: &'a FactoredGenerator) -> Self {
            let m = op.m;
            let block = |s: usize, rate: &dyn Fn(usize, usize) -> f64| -> Vec<Vec<f64>> {
                let p = net.station(s).service.phases();
                (0..p)
                    .map(|h| (0..p).map(|h2| rate(h, h2)).collect())
                    .collect()
            };
            Self {
                net,
                op,
                hidden: (0..m)
                    .map(|s| block(s, &|h, h2| net.station(s).service.hidden_rate(h, h2)))
                    .collect(),
                completion: (0..m)
                    .map(|s| block(s, &|h, h2| net.station(s).service.completion_rate_to(h, h2)))
                    .collect(),
                routing: (0..m)
                    .map(|a| (0..m).map(|b| net.routing(a, b)).collect())
                    .collect(),
            }
        }

        fn mult(&self, s: usize, n_s: usize) -> f64 {
            match self.net.station(s).kind {
                StationKind::Queue => 1.0,
                StationKind::Delay => n_s as f64,
            }
        }

        /// Queue lengths and phase digits of row `j`.
        fn state(&self, j: usize) -> (Vec<usize>, Vec<usize>) {
            let op = self.op;
            let mut q = vec![0usize; op.m];
            op.comp_unrank(j / op.phase_prod, &mut q);
            let prank = j % op.phase_prod;
            let phs = (0..op.m)
                .map(|s| (prank / op.phase_strides[s]) % self.hidden[s].len())
                .collect();
            (q, phs)
        }

        /// Aggregation level of the state with queues `q` at phase rank
        /// `prank`.
        fn level(&self, q: &[usize], prank: usize) -> usize {
            prank
                + self
                    .op
                    .level_station
                    .map_or(0, |b| q[b] * self.op.phase_prod)
        }

        fn diagonal(&self, j: usize) -> f64 {
            let (q, phs) = self.state(j);
            let mut out_rate = 0.0;
            for s in 0..self.op.m {
                if q[s] == 0 {
                    continue;
                }
                let h = phs[s];
                let hidden_out: f64 = self.hidden[s][h].iter().sum();
                let completion_out: f64 = self.completion[s][h].iter().sum();
                let routing_out: f64 = self.routing[s].iter().sum();
                let self_loop = self.completion[s][h][h] * self.routing[s][s];
                out_rate +=
                    (hidden_out + completion_out * routing_out - self_loop) * self.mult(s, q[s]);
            }
            -out_rate
        }

        /// Visits the off-diagonal part of row `j` of `Qᵀ` as
        /// `visit(i, Q[i, j], level of i)`.
        fn inflow(&self, j: usize, mut visit: impl FnMut(usize, f64, usize)) {
            let op = self.op;
            let (q, phs) = self.state(j);
            let prank = j % op.phase_prod;
            for s in 0..op.m {
                if q[s] == 0 {
                    continue;
                }
                let h_j = phs[s];
                let p_ss = self.routing[s][s];
                let stride = op.phase_strides[s];
                for h in 0..self.hidden[s].len() {
                    if h == h_j {
                        continue;
                    }
                    let rate = self.hidden[s][h][h_j] + self.completion[s][h][h_j] * p_ss;
                    if rate > 0.0 {
                        let src = prank - h_j * stride + h * stride;
                        visit(
                            j - prank + src,
                            rate * self.mult(s, q[s]),
                            self.level(&q, src),
                        );
                    }
                }
            }
            let mut q_pred = vec![0usize; op.m];
            for a in 0..op.m {
                let h_a = phs[a];
                let stride = op.phase_strides[a];
                for b in 0..op.m {
                    if b == a || q[b] == 0 {
                        continue;
                    }
                    let p_ab = self.routing[a][b];
                    if p_ab <= 0.0 {
                        continue;
                    }
                    q_pred.copy_from_slice(&q);
                    q_pred[a] += 1;
                    q_pred[b] -= 1;
                    let base = op.comp_rank(&q_pred, 0, 0) * op.phase_prod;
                    for h in 0..self.hidden[a].len() {
                        let cpl = self.completion[a][h][h_a];
                        if cpl > 0.0 {
                            let src = prank - h_a * stride + h * stride;
                            visit(
                                base + src,
                                cpl * p_ab * self.mult(a, q[a] + 1),
                                self.level(&q_pred, src),
                            );
                        }
                    }
                }
            }
        }

        fn left_apply(&self, start: usize, x: &[f64], out: &mut [f64]) {
            for (k, o) in out.iter_mut().enumerate() {
                let j = start + k;
                let mut acc = x[j] * self.diagonal(j);
                self.inflow(j, |i, rate, _| acc += x[i] * rate);
                *o = acc;
            }
        }

        fn relax(&self, start: usize, x_old: &[f64], exit: &[f64], out: &mut [f64]) {
            for k in 0..out.len() {
                let i = start + k;
                let mut s = 0.0;
                self.inflow(i, |j, rate, _| {
                    let v = if j >= start && j < i {
                        out[j - start]
                    } else {
                        x_old[j]
                    };
                    s += v * rate;
                });
                out[k] = s / exit[i];
            }
        }

        /// The level flows between different levels into the rows
        /// `start .. start + len`, added in row order.
        fn flows(&self, start: usize, len: usize, x: &[f64]) -> LevelFlows {
            let p = self.op.phase_prod;
            let mut flows = LevelFlows::default();
            flows.reset((self.op.population + 1) * p, 2 * p - 1, len);
            for k in 0..len {
                let j = start + k;
                let (q, _) = self.state(j);
                let to = self.level(&q, j % p);
                flows.levels[k] = to as u32;
                self.inflow(j, |i, rate, from| {
                    if from != to {
                        flows.add(from, to, x[i] * rate);
                    }
                });
            }
            flows
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

    /// The models of the cross-representation tests; a delay station
    /// routing with fractional probabilities, whose job-move rates
    /// `(cpl · p_ab) · mult` round differently from `cpl · (p_ab · mult)`;
    /// and four stations with two MAP queues (one routing back to itself)
    /// and the delay station last, where the common composition step moves
    /// its multiplier.
    fn cross_models() -> Vec<crate::ClosedNetwork> {
        use crate::network::Station;
        use crate::service::Service;
        use mapqn_linalg::DMatrix;
        use mapqn_stochastic::{fit_map2, Map2FitSpec};
        let map = |mean, scv, decay| {
            Service::map(fit_map2(&Map2FitSpec::new(mean, scv, decay)).unwrap().map)
        };
        let split_delay = crate::ClosedNetwork::new(
            vec![
                Station::delay("think", 1.7).unwrap(),
                Station::queue("front", map(0.7, 9.0, 0.4)),
                Station::queue("db", Service::exponential(2.3).unwrap()),
            ],
            DMatrix::from_row_slice(3, 3, &[0.0, 0.35, 0.65, 0.6, 0.0, 0.4, 0.9, 0.1, 0.0]),
            7,
        )
        .unwrap();
        let four_stations = crate::ClosedNetwork::new(
            vec![
                Station::queue("front", map(0.7, 9.0, 0.4)),
                Station::queue("db", Service::exponential(2.3).unwrap()),
                Station::queue("app", map(0.5, 4.0, 0.3)),
                Station::delay("think", 1.7).unwrap(),
            ],
            DMatrix::from_row_slice(
                4,
                4,
                &[
                    0.1, 0.15, 0.45, 0.3, //
                    0.7, 0.0, 0.3, 0.0, //
                    0.5, 0.3, 0.0, 0.2, //
                    0.8, 0.0, 0.2, 0.0,
                ],
            ),
            6,
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
            four_stations,
        ]
    }

    /// The apply (with and without level flows), the relaxation, the level
    /// flows and the diagonal of the table-driven row walk are bitwise the
    /// frozen per-row gather's, on row blocks that start and end
    /// mid-composition.
    #[test]
    fn rows_are_bitwise_the_frozen_per_row_gather() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for net in cross_models() {
            let op = FactoredGenerator::new(&net, 100_000).unwrap();
            let frozen = Frozen::new(&net, &op);
            let n = op.num_states();
            let x = probe(n, n as u64);
            let mut exit = vec![0.0; n];
            op.diagonal_rows_into(0, &mut exit);
            let diagonal: Vec<f64> = (0..n).map(|j| frozen.diagonal(j)).collect();
            assert_eq!(bits(&exit), bits(&diagonal), "diagonal, n {n}");
            exit.iter_mut().for_each(|e| *e = -*e);
            let x_old = probe(n, 3 * n as u64);
            // 3, 5, 7 and 11 cut compositions mid-block and do not divide n.
            for block_len in [1usize, 3, 5, 7, 11, n] {
                for start in (0..n).step_by(block_len) {
                    let len = block_len.min(n - start);
                    let at = format!("n {n} rows {start}..{}", start + len);
                    let (mut want, mut got) = (vec![0.0; len], vec![0.0; len]);
                    frozen.left_apply(start, &x, &mut want);
                    assert!(op.left_apply_rows_into(start, &x, &mut got, None));
                    assert_eq!(bits(&want), bits(&got), "apply, {at}");
                    let mut flows = LevelFlows::default();
                    assert!(op.left_apply_rows_into(start, &x, &mut got, Some(&mut flows)));
                    assert_eq!(bits(&want), bits(&got), "apply with flows, {at}");
                    let expected = frozen.flows(start, len, &x);
                    assert_eq!(flows.levels, expected.levels, "levels, {at}");
                    let (count, w) = (expected.count(), expected.half_band());
                    assert_eq!((flows.count(), flows.half_band()), (count, w), "{at}");
                    for from in 0..count {
                        for to in from.saturating_sub(w)..(from + w + 1).min(count) {
                            if to != from {
                                let (f, e) = (flows.get(from, to), expected.get(from, to));
                                assert_eq!(f.to_bits(), e.to_bits(), "{from} -> {to}, {at}");
                            }
                        }
                    }
                    frozen.relax(start, &x_old, &exit, &mut want);
                    op.relax_rows_into(start, &x_old, &exit, &mut got);
                    assert_eq!(bits(&want), bits(&got), "relax, {at}");
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
        let mut product = vec![0.0; op.num_states()];
        let mut fac_flows = LevelFlows::default();
        assert!(op.left_apply_rows_into(0, &x_fac, &mut product, Some(&mut fac_flows)));
        for (mat, &fac) in to_factored.iter().enumerate() {
            assert_eq!(fac_flows.levels[fac], levels[mat], "level of state {mat}");
        }

        let qt = space.ctmc().generator().transpose();
        let materialized = CsrGenerator::new(&qt, Some(levels)).unwrap();
        let mut product = vec![0.0; space.len()];
        let mut mat_flows = LevelFlows::default();
        assert!(materialized.left_apply_rows_into(0, &x_mat, &mut product, Some(&mut mat_flows)));
        assert_eq!(mat_flows.levels, levels);
        assert_eq!(mat_flows.count(), fac_flows.count());
        assert!(mat_flows.half_band() <= fac_flows.half_band());
        let w = fac_flows.half_band();
        for from in 0..fac_flows.count() {
            for to in from.saturating_sub(w)..(from + w + 1).min(fac_flows.count()) {
                if to == from {
                    continue; // scratch
                }
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

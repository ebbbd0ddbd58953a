//! Long-lived, fault-tolerant capacity-planning sessions.
//!
//! A [`PlanningSession`] is the front end a capacity-planning service keeps
//! open across a *stream* of what-if questions about one base model: "the
//! same TPC-W tier at 60 browsers", "the disk 20% slower", "the front
//! server replaced by a burstier MAP". Each question is answered by the
//! existing solver stack ([`MarginalBoundSolver`] behind a budgeted
//! retry/backoff ladder, the mean-field fluid engine, the asymptotic
//! floor), but the session adds the state that only exists at stream
//! level — and with it, the failure modes no per-solve layer handles:
//!
//! * **A memoized warm cache** keyed by `(topology fingerprint, MAP
//!   fingerprint, population)`. A hit is *never trusted blindly*: the
//!   cached optimal basis is re-verified against the freshly built LP at
//!   the true right-hand side ([`MarginalBoundSolver::verify_basis`]); a
//!   basis that fails the recheck **quarantines** its key (the entry is
//!   dropped and the key is never cached again this session) and the
//!   request transparently falls back to a cold solve. Committing a
//!   topology-changing delta ([`PlanningSession::apply`]) bumps the
//!   session's topology version, invalidating every cached entry.
//! * **A per-request degradation ladder**: the LP rungs every bound front
//!   door shares (direct solve, salted re-solve, self-seeded bootstrap —
//!   see [`crate::bounds::robust`]), then the fluid engine and the
//!   algebraic floor. Every answer carries its [`Quality`] tag and full
//!   [`SolveDiagnostics`].
//! * **A per-key circuit breaker**: a key whose certified rungs fail
//!   repeatedly is routed straight to the fluid/asymptotic rung for a
//!   cool-down window of requests, so one pathological model (the N≥50
//!   cold cliff) cannot stall the stream. After the cool-down, one probe
//!   request re-attempts the certified path and closes the breaker on
//!   success.
//! * **Per-request panic isolation**: batches run on the `mapqn-par` pool
//!   through [`mapqn_par::WorkPool::map_isolated`]; a panicking request is
//!   contained to its own slot ([`CoreError::Panicked`]) and answered by
//!   the floor, with the rest of the batch untouched.
//!
//! Every recovery path is deterministic and testable through the
//! `mapqn-faults` sites `cache-poison` (corrupt a cached basis just before
//! its recheck, keyed by cache-hit ordinal), `request-timeout` (expire a
//! request's certified budget at admission, keyed by request ordinal) and
//! `session-breaker` (force the breaker open for a request, keyed by
//! request ordinal).
//!
//! ## Determinism contract
//!
//! A request's answer is a pure function of the resolved model: cold solves
//! of the same key are bitwise identical, cache hits return the memoized
//! cold answer verbatim, and a quarantined fallback re-runs exactly the cold
//! path — so hit, fallback and cold answers agree bit for bit (the property
//! the cache proptests pin).
//!
//! ```
//! use mapqn_core::{PlanningRequest, PlanningSession, Service, Station, WhatIf};
//! use mapqn_core::ClosedNetwork;
//! use mapqn_linalg::DMatrix;
//!
//! let base = ClosedNetwork::new(
//!     vec![
//!         Station::queue("cpu", Service::exponential(2.0).unwrap()),
//!         Station::queue("disk", Service::exponential(1.0).unwrap()),
//!     ],
//!     DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]),
//!     4,
//! )
//! .unwrap();
//! let mut session = PlanningSession::new(base);
//! // What if the population doubles?
//! let answer = session
//!     .ask(&PlanningRequest::new("N=8", vec![WhatIf::Population(8)]))
//!     .unwrap();
//! assert!(answer.bounds.system_throughput.lower > 0.0);
//! // Asking again is a verified cache hit with the identical answer.
//! let again = session
//!     .ask(&PlanningRequest::new("N=8 again", vec![WhatIf::Population(8)]))
//!     .unwrap();
//! assert_eq!(
//!     answer.bounds.system_throughput.lower.to_bits(),
//!     again.bounds.system_throughput.lower.to_bits(),
//! );
//! ```

use crate::bounds::marginal::{BoundOptions, MarginalBoundSolver, NetworkBounds};
use crate::bounds::ladder;
use crate::bounds::robust::{self, Quality, Rung, SolveDiagnostics};
use crate::fluid::{solve_fluid_with, FluidOptions};
use crate::metrics::NetworkMetrics;
use crate::network::ClosedNetwork;
use crate::service::Service;
use crate::solve::midpoint_metrics;
use crate::{CoreError, Result};
use mapqn_faults::FaultSite;
use mapqn_linalg::{budget, DMatrix, SolveBudget};
use mapqn_lp::Basis;
use mapqn_par::WorkPool;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// One what-if delta applied on top of the session's current model.
#[derive(Debug, Clone)]
pub enum WhatIf {
    /// Change the closed population to this many jobs.
    Population(usize),
    /// Scale the service *demand* of one station by `factor` (`> 1` slows
    /// the station down). Exponential rates divide by the factor; MAP
    /// stations have both rate matrices scaled, which preserves SCV and
    /// autocorrelation while scaling the mean.
    ScaleDemand {
        /// Station index.
        station: usize,
        /// Demand multiplier; must be positive and finite.
        factor: f64,
    },
    /// Replace one station's service process outright.
    ReplaceService {
        /// Station index.
        station: usize,
        /// The new service process.
        service: Service,
    },
}

impl WhatIf {
    /// Whether committing this delta changes the cache-topology — anything
    /// beyond the population (the population is part of the cache key, so
    /// it never invalidates entries at other populations).
    #[must_use]
    fn changes_topology(&self) -> bool {
        !matches!(self, WhatIf::Population(_))
    }
}

/// One question to the session: a label and the deltas applied to the
/// session's current model to form it.
#[derive(Debug, Clone)]
pub struct PlanningRequest {
    /// Human-readable label echoed into the answer.
    pub label: String,
    /// Deltas applied (in order) to the session's current model.
    pub deltas: Vec<WhatIf>,
}

impl PlanningRequest {
    /// Creates a request.
    #[must_use]
    pub fn new(label: impl Into<String>, deltas: Vec<WhatIf>) -> Self {
        Self {
            label: label.into(),
            deltas,
        }
    }
}

/// How the session produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// Memoized bounds returned after the cached basis passed its
    /// integrity recheck.
    CacheHit,
    /// A fresh solve (no usable cache entry for the key).
    Solve,
    /// The cached basis failed the true-rhs recheck: the key was
    /// quarantined and this answer came from the transparent cold solve.
    QuarantineFallback,
    /// The circuit breaker (or the `session-breaker` fault) routed the
    /// request straight to the fluid/asymptotic rung.
    BreakerOpen,
}

impl std::fmt::Display for AnswerSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            AnswerSource::CacheHit => "cache-hit",
            AnswerSource::Solve => "solve",
            AnswerSource::QuarantineFallback => "quarantine-fallback",
            AnswerSource::BreakerOpen => "breaker-open",
        };
        write!(f, "{name}")
    }
}

/// A quality-tagged answer to one planning request.
#[derive(Debug, Clone)]
pub struct PlanningAnswer {
    /// Label copied from the request.
    pub label: String,
    /// Population of the resolved model.
    pub population: usize,
    /// Point metrics: interval midpoints for certified/floor answers, the
    /// fluid point estimate for the fluid rung.
    pub metrics: NetworkMetrics,
    /// The guaranteed intervals backing the answer (for the fluid rung
    /// these are the algebraic floor's intervals — the fluid point is a
    /// tighter estimate, the intervals stay sound). Carries the
    /// [`Quality`] tag and the full [`SolveDiagnostics`].
    pub bounds: NetworkBounds,
    /// The ladder rung that produced the returned numbers.
    pub rung: Rung,
    /// How the session produced the answer (cache, solve, fallback,
    /// breaker).
    pub source: AnswerSource,
    /// Wall clock from admission to answer.
    pub elapsed: Duration,
    /// Ordinal of this request within the session.
    pub request: u64,
}

impl PlanningAnswer {
    /// Structural sanity of the answer: every interval ordered and finite,
    /// every point metric finite, and a quality tag consistent with the
    /// rung. The fault-storm test in `crates/core/tests/planning_session.rs`
    /// counts an answer valid only when this holds.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let interval_ok = |i: &crate::bounds::BoundInterval| {
            i.lower.is_finite() && i.upper.is_finite() && i.lower <= i.upper
        };
        let intervals = self
            .bounds
            .throughput
            .iter()
            .chain(&self.bounds.utilization)
            .chain(&self.bounds.mean_queue_length)
            .all(interval_ok)
            && interval_ok(&self.bounds.system_throughput)
            && interval_ok(&self.bounds.system_response_time);
        let points = self
            .metrics
            .throughput
            .iter()
            .chain(&self.metrics.utilization)
            .chain(&self.metrics.mean_queue_length)
            .all(|v| v.is_finite())
            && self.metrics.system_throughput.is_finite();
        let quality_consistent = match self.rung {
            Rung::Fluid | Rung::Floor => self.bounds.quality == Quality::Asymptotic,
            _ => self.bounds.quality != Quality::Asymptotic,
        };
        intervals && points && quality_consistent
    }
}

/// Tuning knobs of a [`PlanningSession`].
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Per-request solve budget (anchored at each request's admission);
    /// the certified rungs share it, the fluid/floor rungs are exempt —
    /// they are the always-answer contract.
    pub budget: SolveBudget,
    /// Consecutive certified-rung failures of one key that trip its
    /// circuit breaker.
    pub breaker_threshold: u32,
    /// How many subsequent requests a tripped breaker stays open for
    /// before a probe request may re-attempt the certified path.
    pub breaker_cooldown: u64,
    /// Base perturbation salt of every solve in the session. Identical
    /// models always solve under identical salts, so replays are bitwise.
    pub base_salt: u64,
    /// Feasibility tolerance of the cached-basis integrity recheck.
    pub verify_tolerance: f64,
    /// Worker threads for batched requests (`0` = one per available core).
    pub threads: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self {
            budget: SolveBudget::unlimited(),
            breaker_threshold: 2,
            breaker_cooldown: 16,
            base_salt: 0,
            verify_tolerance: 1e-6,
            threads: 0,
        }
    }
}

/// Counters of a session's lifetime, for logs and the service bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests admitted.
    pub requests: u64,
    /// Answers served from the verified cache.
    pub cache_hits: u64,
    /// Cached bases that failed their integrity recheck (each quarantines
    /// its key).
    pub quarantines: u64,
    /// Circuit-breaker trips (closed → open transitions).
    pub breaker_trips: u64,
    /// Requests short-circuited to the degraded rung by an open breaker.
    pub breaker_short_circuits: u64,
    /// Request jobs whose panic was contained by the isolation boundary.
    pub contained_panics: u64,
    /// Answers tagged [`Quality::Asymptotic`] (fluid or floor).
    pub degraded_answers: u64,
    /// Answers tagged certified (direct, salted or bootstrap).
    pub certified_answers: u64,
}

/// Cache key: topology fingerprint, MAP (service) fingerprint, population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    topology: u64,
    service: u64,
    population: usize,
}

/// One memoized answer plus its integrity witness.
struct CacheEntry {
    bounds: NetworkBounds,
    metrics: NetworkMetrics,
    /// The slot-0 optimal basis — the phase-1 stand-in the integrity
    /// recheck verifies on every hit.
    witness: Basis,
    /// Topology version the entry was created under; entries from older
    /// versions are evicted on lookup.
    version: u64,
}

/// Per-key circuit-breaker state.
#[derive(Debug, Clone, Copy, Default)]
struct Breaker {
    consecutive_failures: u32,
    /// `Some(seq)`: open until the session's request ordinal reaches
    /// `seq`; the first request at or past it runs as a half-open probe.
    open_until: Option<u64>,
}

/// What phase 2 runs for one admitted request: a ladder plan, and whether
/// its direct rung is doomed.
struct Job {
    /// The rungs to walk, each with its share of the remaining wall clock.
    plan: Vec<(Rung, f64)>,
    /// When set, the direct rung fails with this cause without solving.
    doomed: Option<CoreError>,
}

impl Job {
    /// The full session ladder: the shared LP rungs, then fluid and floor.
    fn full(population: usize) -> Self {
        Self {
            plan: robust::plan(population, &[Rung::Fluid, Rung::Floor]),
            doomed: None,
        }
    }

    /// `request-timeout`: the certified budget expired at admission, so the
    /// direct rung fails with the injected fault and fluid/floor answer.
    fn timed_out() -> Self {
        Self {
            plan: vec![(Rung::Direct, 1.0), (Rung::Fluid, 1.0), (Rung::Floor, 1.0)],
            doomed: Some(CoreError::Injected {
                site: FaultSite::RequestTimeout.name(),
            }),
        }
    }

    /// Breaker open: straight to the fluid/asymptotic rungs.
    fn breaker_open() -> Self {
        Self {
            plan: vec![(Rung::Fluid, 1.0), (Rung::Floor, 1.0)],
            doomed: None,
        }
    }

    /// A contained panic: the direct rung records it and the floor answers.
    fn panicked(message: String) -> Self {
        Self {
            plan: vec![(Rung::Direct, 1.0), (Rung::Floor, 1.0)],
            doomed: Some(CoreError::Panicked(message)),
        }
    }
}

/// How an admitted request gets its answer.
enum Pending {
    /// Answered at admission by a verified cache hit: the memoized bounds
    /// and metrics.
    Memo(Box<(NetworkBounds, NetworkMetrics)>),
    /// A solve job runs in phase 2.
    Solve(Job),
}

/// Everything a solve job returns to the serial assembly phase.
struct SolveOutcome {
    bounds: NetworkBounds,
    metrics: NetworkMetrics,
    /// The slot-0 optimal basis of an LP answer (the cache witness);
    /// `None` for the fluid and floor rungs.
    witness: Option<Basis>,
    rung: Rung,
}

/// Phase-1 admission record for one request of a batch.
struct Admission {
    label: String,
    network: ClosedNetwork,
    key: CacheKey,
    seq: u64,
    started: std::time::Instant,
    pending: Pending,
    source: AnswerSource,
}

/// A long-lived, fault-tolerant front end over the solver stack for
/// batched what-if streams. See the module docs for the full contract.
pub struct PlanningSession {
    base: ClosedNetwork,
    current: ClosedNetwork,
    options: SessionOptions,
    pool: WorkPool,
    cache: HashMap<CacheKey, CacheEntry>,
    quarantined: HashSet<CacheKey>,
    breakers: HashMap<CacheKey, Breaker>,
    topology_version: u64,
    request_seq: u64,
    /// Ordinal of cache-hit consultations — the deterministic key of the
    /// `cache-poison` fault site (hits are admitted serially, so the
    /// ordinal is schedule-independent).
    admission_seq: u64,
    stats: SessionStats,
}

impl PlanningSession {
    /// Opens a session over `base` with default options.
    #[must_use]
    pub fn new(base: ClosedNetwork) -> Self {
        Self::with_options(base, SessionOptions::default())
    }

    /// Opens a session with explicit options.
    #[must_use]
    pub fn with_options(base: ClosedNetwork, options: SessionOptions) -> Self {
        let pool = if options.threads == 0 {
            WorkPool::default()
        } else {
            WorkPool::new(options.threads)
        };
        Self {
            current: base.clone(),
            base,
            options,
            pool,
            cache: HashMap::new(),
            quarantined: HashSet::new(),
            breakers: HashMap::new(),
            topology_version: 0,
            request_seq: 0,
            admission_seq: 0,
            stats: SessionStats::default(),
        }
    }

    /// The base model the session was opened over.
    #[must_use]
    pub fn base(&self) -> &ClosedNetwork {
        &self.base
    }

    /// The current model (base plus every committed [`PlanningSession::apply`]).
    #[must_use]
    pub fn current(&self) -> &ClosedNetwork {
        &self.current
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Number of live (non-quarantined) cache entries.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Commits deltas to the session's current model. A topology-changing
    /// delta (anything but a population change) bumps the topology version,
    /// invalidating every cached entry — versioned invalidation, so stale
    /// bases can never answer a structurally different model.
    ///
    /// # Errors
    /// Construction-grade failures of the resulting model
    /// ([`CoreError::InvalidNetwork`], bad station index, …). The session
    /// state is unchanged on error.
    pub fn apply(&mut self, deltas: &[WhatIf]) -> Result<()> {
        let next = resolve(&self.current, deltas)?;
        if deltas.iter().any(WhatIf::changes_topology) {
            self.topology_version += 1;
        }
        self.current = next;
        Ok(())
    }

    /// Answers a single request. Equivalent to a one-element
    /// [`PlanningSession::run_batch`].
    ///
    /// # Errors
    /// Only construction-grade failures of the resolved model surface;
    /// every solve-level failure degrades through the ladder instead.
    pub fn ask(&mut self, request: &PlanningRequest) -> Result<PlanningAnswer> {
        let mut answers = self.run_batch(std::slice::from_ref(request));
        // INFALLIBLE: run_batch returns exactly one outcome per request.
        answers.pop().expect("one answer per request")
    }

    /// Answers a batch of requests, in request order. Admission (cache,
    /// breaker, fault hooks) is serial and deterministic; the solves fan
    /// out over the session's pool with per-request panic isolation; cache
    /// and breaker updates are applied serially afterwards, in request
    /// order.
    ///
    /// Each outcome is `Err` only for construction-grade failures of that
    /// request's resolved model; solve-level failures always degrade to a
    /// quality-tagged answer.
    pub fn run_batch(
        &mut self,
        requests: &[PlanningRequest],
    ) -> Vec<Result<PlanningAnswer>> {
        // Phase 1: serial admission.
        let mut slots: Vec<std::result::Result<Admission, CoreError>> =
            Vec::with_capacity(requests.len());
        for request in requests {
            slots.push(self.admit(request));
        }

        // Phase 2: parallel solves with per-request panic isolation. Only
        // requests that were not answered at admission carry a job.
        let jobs: Vec<(usize, &ClosedNetwork, &Job)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Ok(Admission {
                    network,
                    pending: Pending::Solve(job),
                    ..
                }) => Some((i, network, job)),
                _ => None,
            })
            .collect();
        // Each solve job's bound chains get an equal share of the pool: a
        // lone cold solve overlaps its two chains, a batch of cold solves
        // keeps one thread per job.
        let options = &self.options;
        let workers = (self.pool.threads() / jobs.len().max(1)).max(1);
        let raw = self.pool.map_isolated(&jobs, |_, &(_, network, job)| {
            solve_request(network, options, workers, job)
        });
        let mut outcomes: HashMap<usize, std::result::Result<Result<SolveOutcome>, String>> =
            HashMap::new();
        for ((slot_index, _, _), outcome) in jobs.iter().zip(raw) {
            let entry = match outcome {
                Ok(result) => Ok(result),
                Err(panic) => Err(panic.message),
            };
            outcomes.insert(*slot_index, entry);
        }

        // Phase 3: serial assembly, cache/breaker updates in request order.
        let mut answers = Vec::with_capacity(requests.len());
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Err(e) => answers.push(Err(e)),
                Ok(adm) => answers.push(self.assemble(adm, outcomes.remove(&i))),
            }
        }
        answers
    }

    /// Serial admission of one request: resolve the model, consult the
    /// breaker and the fault hooks, and try the verified cache.
    fn admit(&mut self, request: &PlanningRequest) -> std::result::Result<Admission, CoreError> {
        let started = budget::now();
        let network = resolve(&self.current, &request.deltas)?;
        let seq = self.request_seq;
        self.request_seq += 1;
        self.stats.requests += 1;
        let key = CacheKey {
            topology: topology_fingerprint(&network),
            service: service_fingerprint(&network),
            population: network.population(),
        };

        // Circuit breaker (the `session-breaker` fault forces it open for
        // this request without touching the real state machine).
        let forced_open = mapqn_faults::fire_keyed(FaultSite::SessionBreaker, seq);
        let breaker_open = match self.breakers.get(&key) {
            Some(b) => b.open_until.is_some_and(|until| seq < until),
            None => false,
        };
        if forced_open || breaker_open {
            self.stats.breaker_short_circuits += 1;
            return Ok(Admission {
                label: request.label.clone(),
                network,
                key,
                seq,
                started,
                pending: Pending::Solve(Job::breaker_open()),
                source: AnswerSource::BreakerOpen,
            });
        }

        // `request-timeout`: the certified budget is treated as already
        // expired at admission; the direct rung fails at once, fluid
        // answers, and the breaker still records the certified failure.
        let timed_out = mapqn_faults::fire_keyed(FaultSite::RequestTimeout, seq);

        // Verified cache lookup (skipped for quarantined keys — those cold
        // solve forever).
        let mut source = AnswerSource::Solve;
        if !self.quarantined.contains(&key) && !timed_out {
            let stale = self
                .cache
                .get(&key)
                .is_some_and(|e| e.version != self.topology_version);
            if stale {
                self.cache.remove(&key);
            }
            if let Some(entry) = self.cache.get(&key) {
                let hit_ordinal = self.admission_seq;
                self.admission_seq += 1;
                let poisoned =
                    mapqn_faults::fire_keyed(FaultSite::CachePoison, hit_ordinal);
                let witness = if poisoned {
                    // Deterministic corruption: an out-of-range column can
                    // never complete into the proposed basis, so the
                    // recheck must flag it.
                    Basis::from_columns(vec![usize::MAX >> 1])
                } else {
                    entry.witness.clone()
                };
                let intact = MarginalBoundSolver::with_options(
                    &network,
                    bound_options(&self.options),
                )
                .and_then(|solver| {
                    solver.verify_basis(&witness, self.options.verify_tolerance)
                })
                .map(|report| report.is_intact())
                .unwrap_or(false);
                if intact {
                    let memo =
                        Pending::Memo(Box::new((entry.bounds.clone(), entry.metrics.clone())));
                    self.stats.cache_hits += 1;
                    self.record_result(key, seq, false);
                    return Ok(Admission {
                        label: request.label.clone(),
                        network,
                        key,
                        seq,
                        started,
                        pending: memo,
                        source: AnswerSource::CacheHit,
                    });
                }
                // Integrity recheck failed: quarantine the key — it is
                // never cached (or retried from cache) again — and fall
                // back to a cold solve.
                self.stats.quarantines += 1;
                self.cache.remove(&key);
                self.quarantined.insert(key);
                source = AnswerSource::QuarantineFallback;
            }
        }

        let job = if timed_out {
            Job::timed_out()
        } else {
            Job::full(key.population)
        };

        Ok(Admission {
            label: request.label.clone(),
            network,
            key,
            seq,
            started,
            pending: Pending::Solve(job),
            source,
        })
    }

    /// Serial assembly of one request's answer, applying cache and breaker
    /// updates.
    fn assemble(
        &mut self,
        adm: Admission,
        outcome: Option<std::result::Result<Result<SolveOutcome>, String>>,
    ) -> Result<PlanningAnswer> {
        // Verified cache hit: the memoized answer, verbatim.
        if let Pending::Memo(memo) = adm.pending {
            let (bounds, metrics) = *memo;
            self.stats.certified_answers += 1;
            return Ok(PlanningAnswer {
                label: adm.label,
                population: adm.network.population(),
                rung: Rung::Direct,
                metrics,
                bounds,
                source: adm.source,
                elapsed: adm.started.elapsed(),
                request: adm.seq,
            });
        }

        let outcome = match outcome {
            Some(Ok(result)) => result,
            Some(Err(panic_message)) => {
                // Contained panic: answer from the floor, recording the
                // panic in the diagnostics.
                self.stats.contained_panics += 1;
                solve_request(
                    &adm.network,
                    &self.options,
                    1,
                    &Job::panicked(panic_message),
                )
            }
            // INFALLIBLE: every non-memo admission slot had a job queued.
            None => unreachable!("solve job missing for admitted request"),
        };

        match outcome {
            Ok(solved) => {
                let certified = solved.bounds.quality != Quality::Asymptotic;
                if certified {
                    self.stats.certified_answers += 1;
                    // Memoize (bounds + witness basis) unless quarantined.
                    if let Some(witness) = solved.witness {
                        if !self.quarantined.contains(&adm.key) {
                            self.cache.insert(
                                adm.key,
                                CacheEntry {
                                    bounds: solved.bounds.clone(),
                                    metrics: solved.metrics.clone(),
                                    witness,
                                    version: self.topology_version,
                                },
                            );
                        }
                    }
                } else {
                    self.stats.degraded_answers += 1;
                }
                // A short-circuited (breaker-open) answer is not a new
                // certified failure: only real attempts move the breaker.
                if adm.source != AnswerSource::BreakerOpen {
                    self.record_result(adm.key, adm.seq, !certified);
                }
                Ok(PlanningAnswer {
                    label: adm.label,
                    population: adm.network.population(),
                    metrics: solved.metrics,
                    bounds: solved.bounds,
                    rung: solved.rung,
                    source: adm.source,
                    elapsed: adm.started.elapsed(),
                    request: adm.seq,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Breaker bookkeeping after a request resolved. A short-circuited
    /// (breaker-open) answer does not count as a new failure — only real
    /// certified attempts move the state machine.
    fn record_result(&mut self, key: CacheKey, seq: u64, degraded: bool) {
        let threshold = self.options.breaker_threshold;
        let cooldown = self.options.breaker_cooldown;
        let breaker = self.breakers.entry(key).or_default();
        if degraded {
            breaker.consecutive_failures += 1;
            if breaker.consecutive_failures >= threshold {
                let newly_tripped = breaker.open_until.is_none_or(|until| seq >= until);
                breaker.open_until = Some(seq + 1 + cooldown);
                if newly_tripped {
                    self.stats.breaker_trips += 1;
                }
            }
        } else {
            *breaker = Breaker::default();
        }
    }
}

/// Applies deltas to a model, producing the resolved request network.
fn resolve(current: &ClosedNetwork, deltas: &[WhatIf]) -> Result<ClosedNetwork> {
    let mut stations = current.stations().to_vec();
    let mut population = current.population();
    for delta in deltas {
        match delta {
            WhatIf::Population(n) => population = *n,
            WhatIf::ScaleDemand { station, factor } => {
                let s = stations.get_mut(*station).ok_or_else(|| {
                    CoreError::InvalidNetwork(format!(
                        "what-if names station {station}, but the model has {}",
                        current.num_stations()
                    ))
                })?;
                if !factor.is_finite() || *factor <= 0.0 {
                    return Err(CoreError::InvalidNetwork(format!(
                        "demand scale factor must be positive and finite, got {factor}"
                    )));
                }
                s.service = scale_service(&s.service, *factor)?;
            }
            WhatIf::ReplaceService { station, service } => {
                let s = stations.get_mut(*station).ok_or_else(|| {
                    CoreError::InvalidNetwork(format!(
                        "what-if names station {station}, but the model has {}",
                        current.num_stations()
                    ))
                })?;
                s.service = service.clone();
            }
        }
    }
    ClosedNetwork::new(stations, current.routing_matrix().clone(), population)
}

/// Scales a service process's demand by `factor` (time stretches, rates
/// divide), preserving SCV and autocorrelation for MAP service.
fn scale_service(service: &Service, factor: f64) -> Result<Service> {
    match service {
        Service::Exponential { rate } => Service::exponential(rate / factor),
        Service::Map(map) => {
            let scale = 1.0 / factor;
            let n = map.d0().nrows();
            let scaled = |m: &DMatrix| {
                let data: Vec<f64> = m.as_slice().iter().map(|v| v * scale).collect();
                DMatrix::from_row_slice(n, n, &data)
            };
            let map = mapqn_stochastic::Map::new(scaled(map.d0()), scaled(map.d1()))?;
            Ok(Service::Map(map))
        }
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Fingerprint of everything structural except the service processes:
/// station count, kinds, names and the routing matrix bits.
fn topology_fingerprint(network: &ClosedNetwork) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, &(network.num_stations() as u64).to_le_bytes());
    for station in network.stations() {
        fnv1a(&mut h, station.name.as_bytes());
        fnv1a(&mut h, &[matches!(station.kind, crate::network::StationKind::Delay) as u8]);
    }
    for v in network.routing_matrix().as_slice() {
        fnv1a(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Fingerprint of the service (MAP) processes: per station, the process
/// kind and the exact bits of its rates.
fn service_fingerprint(network: &ClosedNetwork) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for station in network.stations() {
        match &station.service {
            Service::Exponential { rate } => {
                fnv1a(&mut h, &[1u8]);
                fnv1a(&mut h, &rate.to_bits().to_le_bytes());
            }
            Service::Map(map) => {
                fnv1a(&mut h, &[2u8]);
                fnv1a(&mut h, &(map.phases() as u64).to_le_bytes());
                for v in map.d0().as_slice().iter().chain(map.d1().as_slice()) {
                    fnv1a(&mut h, &v.to_bits().to_le_bytes());
                }
            }
        }
    }
    h
}

/// The bound options of the session's LP rungs: the session's base salt
/// and no budget (each rung gets its slice from the ladder).
fn bound_options(options: &SessionOptions) -> BoundOptions {
    let mut bound = BoundOptions::default();
    bound.simplex.perturbation_salt = options.base_salt;
    bound
}

/// Walks one request's ladder plan, running its bound solves' chains on
/// `workers` threads. Pure function of its inputs (model, options, job;
/// the width never changes an answer), so it is safe to fan out and its
/// answers are schedule-independent.
fn solve_request(
    network: &ClosedNetwork,
    options: &SessionOptions,
    workers: usize,
    job: &Job,
) -> Result<SolveOutcome> {
    let start = budget::now();
    let base = BoundOptions {
        workers,
        ..bound_options(options)
    };
    let walk = ladder::run(
        &job.plan,
        options.budget,
        start,
        network.population(),
        |rung, slice| {
            let (bounds, witness) = match rung {
                Rung::Direct => match &job.doomed {
                    Some(cause) => return Err(cause.clone()),
                    None => robust::fresh_solve(
                        network,
                        BoundOptions {
                            budget: slice,
                            ..base
                        },
                    )?,
                },
                // Point metrics from the fluid engine, inside the floor's
                // guaranteed intervals.
                Rung::Fluid => {
                    let fluid = solve_fluid_with(network, &FluidOptions::default())?;
                    return Ok(SolveOutcome {
                        bounds: robust::asymptotic_floor(network)?,
                        metrics: fluid.metrics,
                        witness: None,
                        rung,
                    });
                }
                rung => robust::fallback(network, base, rung, slice)?,
            };
            Ok(SolveOutcome {
                metrics: midpoint_metrics(network, &bounds),
                bounds,
                witness,
                rung,
            })
        },
    );
    let (rung, mut solved) = walk.answer?;
    solved.bounds.quality = rung.quality();
    solved.bounds.diagnostics = SolveDiagnostics {
        attempts: walk.attempts,
        budget: options.budget,
        consumed: budget::now().duration_since(start),
    };
    Ok(solved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::figure5_network;

    fn session() -> PlanningSession {
        PlanningSession::new(figure5_network(4, 4.0, 0.5).unwrap())
    }

    fn populations(range: std::ops::RangeInclusive<usize>) -> Vec<PlanningRequest> {
        range
            .map(|n| PlanningRequest::new(format!("N={n}"), vec![WhatIf::Population(n)]))
            .collect()
    }

    #[test]
    fn certified_answer_then_verified_cache_hit() {
        let _guard = mapqn_faults::exclusive();
        let mut s = session();
        let req = PlanningRequest::new("base", vec![]);
        let first = s.ask(&req).unwrap();
        assert_eq!(first.source, AnswerSource::Solve);
        assert_eq!(first.bounds.quality, Quality::Certified);
        assert!(first.is_valid());
        let second = s.ask(&req).unwrap();
        assert_eq!(second.source, AnswerSource::CacheHit);
        assert_eq!(
            first.bounds.system_throughput.lower.to_bits(),
            second.bounds.system_throughput.lower.to_bits()
        );
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn batch_answers_are_in_request_order_and_valid() {
        let _guard = mapqn_faults::exclusive();
        let mut s = session();
        let requests = populations(1..=5);
        let answers = s.run_batch(&requests);
        assert_eq!(answers.len(), 5);
        for (i, a) in answers.iter().enumerate() {
            let a = a.as_ref().unwrap();
            assert_eq!(a.population, i + 1);
            assert!(a.is_valid());
            assert_eq!(a.bounds.quality, Quality::Certified);
        }
    }

    #[test]
    fn topology_delta_invalidates_cache_population_delta_does_not() {
        let _guard = mapqn_faults::exclusive();
        let mut s = session();
        let req = PlanningRequest::new("base", vec![]);
        s.ask(&req).unwrap();
        assert_eq!(s.cache_len(), 1);
        // Population-only commit: entry survives.
        s.apply(&[WhatIf::Population(5)]).unwrap();
        assert_eq!(s.cache_len(), 1);
        // Topology commit: version bump; the old entry is evicted on the
        // next lookup of its key.
        s.apply(&[WhatIf::ScaleDemand { station: 0, factor: 1.5 }]).unwrap();
        s.apply(&[WhatIf::Population(4), WhatIf::ScaleDemand { station: 0, factor: 1.0 / 1.5 }])
            .unwrap();
        let again = s.ask(&req).unwrap();
        // Same fingerprints as the original model, but the stale-version
        // entry must not answer: it was evicted and re-solved.
        assert_eq!(again.source, AnswerSource::Solve);
    }

    #[test]
    fn poisoned_cache_entry_is_quarantined_with_bitwise_fallback() {
        let mut s = session();
        let req = PlanningRequest::new("base", vec![]);
        let cold = {
            let _guard = mapqn_faults::exclusive();
            s.ask(&req).unwrap()
        };
        // Poison the first cache-hit consultation.
        let fallback = {
            let _guard = mapqn_faults::arm(FaultSite::CachePoison, 0, 1);
            s.ask(&req).unwrap()
        };
        assert_eq!(fallback.source, AnswerSource::QuarantineFallback);
        assert_eq!(fallback.bounds.quality, Quality::Certified);
        assert_eq!(
            cold.bounds.system_throughput.lower.to_bits(),
            fallback.bounds.system_throughput.lower.to_bits()
        );
        assert_eq!(s.stats().quarantines, 1);
        // The key is never cached again: the next ask is a plain solve.
        let after = {
            let _guard = mapqn_faults::exclusive();
            s.ask(&req).unwrap()
        };
        assert_eq!(after.source, AnswerSource::Solve);
        assert_eq!(s.cache_len(), 0);
    }

    #[test]
    fn request_timeout_fault_degrades_one_request_only() {
        let mut s = session();
        let answers = {
            let _guard = mapqn_faults::arm(FaultSite::RequestTimeout, 1, 1);
            s.run_batch(&populations(3..=5))
        };
        let a: Vec<&PlanningAnswer> = answers.iter().map(|a| a.as_ref().unwrap()).collect();
        assert_eq!(a[0].bounds.quality, Quality::Certified);
        assert_eq!(a[1].bounds.quality, Quality::Asymptotic);
        assert_eq!(a[1].rung, Rung::Fluid);
        assert!(a[1].is_valid());
        assert_eq!(a[2].bounds.quality, Quality::Certified);
    }

    #[test]
    fn session_breaker_fault_short_circuits_to_fluid() {
        let mut s = session();
        let answer = {
            let _guard = mapqn_faults::arm(FaultSite::SessionBreaker, 0, 1);
            s.ask(&PlanningRequest::new("forced", vec![])).unwrap()
        };
        assert_eq!(answer.source, AnswerSource::BreakerOpen);
        assert_eq!(answer.rung, Rung::Fluid);
        assert!(answer.is_valid());
        assert_eq!(s.stats().breaker_short_circuits, 1);
    }

    #[test]
    fn breaker_trips_after_repeated_failures_and_recovers_after_cooldown() {
        // request-timeout on every request forces every certified attempt
        // to fail, so the breaker must trip at the threshold.
        let mut s = PlanningSession::with_options(
            figure5_network(4, 4.0, 0.5).unwrap(),
            SessionOptions {
                breaker_threshold: 2,
                breaker_cooldown: 2,
                ..SessionOptions::default()
            },
        );
        let req = PlanningRequest::new("r", vec![]);
        {
            let _guard = mapqn_faults::arm(FaultSite::RequestTimeout, 0, 2);
            for _ in 0..2 {
                let a = s.ask(&req).unwrap();
                assert_eq!(a.bounds.quality, Quality::Asymptotic);
            }
        }
        assert_eq!(s.stats().breaker_trips, 1);
        // Requests 2 and 3 short-circuit (open window = cooldown + 1).
        {
            let _guard = mapqn_faults::exclusive();
            for _ in 0..2 {
                let a = s.ask(&req).unwrap();
                assert_eq!(a.source, AnswerSource::BreakerOpen);
                assert_eq!(a.rung, Rung::Fluid);
            }
            // The probe request runs the full ladder again and closes the
            // breaker on success.
            let probe = s.ask(&req).unwrap();
            assert_ne!(probe.source, AnswerSource::BreakerOpen);
            assert_eq!(probe.bounds.quality, Quality::Certified);
            let after = s.ask(&req).unwrap();
            assert_eq!(after.source, AnswerSource::CacheHit);
        }
    }

    #[test]
    fn what_if_deltas_resolve_and_validate() {
        let _guard = mapqn_faults::exclusive();
        let mut s = session();
        // Slowing the bottleneck lowers the throughput upper bound.
        let base = s.ask(&PlanningRequest::new("base", vec![])).unwrap();
        let slowed = s
            .ask(&PlanningRequest::new(
                "disk 2x slower",
                vec![WhatIf::ScaleDemand { station: 1, factor: 2.0 }],
            ))
            .unwrap();
        assert!(
            slowed.bounds.system_throughput.upper < base.bounds.system_throughput.upper
        );
        // Bad station index is a construction-grade error.
        assert!(s
            .ask(&PlanningRequest::new(
                "bad",
                vec![WhatIf::ScaleDemand { station: 9, factor: 2.0 }],
            ))
            .is_err());
        // Bad factor likewise.
        assert!(s
            .ask(&PlanningRequest::new(
                "bad",
                vec![WhatIf::ScaleDemand { station: 0, factor: f64::NAN }],
            ))
            .is_err());
    }

    #[test]
    fn scale_demand_preserves_map_variability() {
        let network = figure5_network(3, 16.0, 0.5).unwrap();
        let station = &network.stations()[1];
        let scaled = scale_service(&station.service, 2.0).unwrap();
        let m0 = station.service.mean().unwrap();
        let m1 = scaled.mean().unwrap();
        assert!((m1 - 2.0 * m0).abs() < 1e-12 * m0);
        let scv0 = station.service.scv().unwrap();
        let scv1 = scaled.scv().unwrap();
        assert!((scv0 - scv1).abs() < 1e-9, "{scv0} vs {scv1}");
    }

    #[test]
    fn fingerprints_distinguish_models_and_populations() {
        let n4 = figure5_network(4, 4.0, 0.5).unwrap();
        let n5 = n4.with_population(5).unwrap();
        assert_eq!(topology_fingerprint(&n4), topology_fingerprint(&n5));
        assert_eq!(service_fingerprint(&n4), service_fingerprint(&n5));
        let other = figure5_network(4, 16.0, 0.5).unwrap();
        assert_ne!(service_fingerprint(&n4), service_fingerprint(&other));
    }
}

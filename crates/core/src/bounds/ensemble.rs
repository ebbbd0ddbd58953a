//! Scenario ensembles: many independent bound studies — random-model
//! batches, SCV×ACF burstiness grids, capacity-planning what-ifs — sharded
//! across every core.
//!
//! This is the workload the paper's versatility argument produces in
//! practice: once a single sweep is cheap (PR 2), an analyst immediately
//! asks for *families* of them — "rerun the capacity plan at every
//! burstiness level we measured", "Table 1 over ten thousand random
//! models", "the Figure 8 study for each candidate server" (cf. the
//! hierarchical studies of Thomasian and the what-if grids in Perez &
//! Casale's work). Every scenario is independent of every other, so the
//! ensemble is embarrassingly parallel; what the parallel layer has to
//! guarantee is that the *answers* are independent of how the work was
//! scheduled.
//!
//! ## Determinism contract
//!
//! [`EnsembleRunner::run`] returns, for every scenario, bit-for-bit the
//! same bounds regardless of the worker count (1 thread, 4 threads, 64
//! threads) and of scheduling order:
//!
//! * each **job** (scenario) owns its solver instances outright — the
//!   [`MarginalBoundSolver`](super::MarginalBoundSolver) refactor that
//!   hoisted all interior mutability into an owned, `Send`
//!   `SolverContext` is what lets whole sweeps move onto worker threads
//!   with no shared state;
//! * anything pseudo-random is seeded from the **job index**, never from a
//!   worker or thread id: the effective RHS-perturbation salt of job `i`
//!   is [`EnsembleRunner::scenario_options`]`(i)`, a pure function of the
//!   configured base options and `i`;
//! * results and stats are assembled **by job index** (the pool writes
//!   each result at its slot), and per-job counters are merged in job
//!   order at join, so even the merged stats are schedule-independent.
//!
//! A serial reference run is therefore just `with_threads(1)` — or a plain
//! loop of [`PopulationSweep`]s built from `scenario_options(i)` — and the
//! regression tests compare the two bitwise.
//!
//! ```
//! use mapqn_core::bounds::{EnsembleRunner, Scenario};
//! use mapqn_core::templates::figure5_network;
//!
//! let network = figure5_network(1, 4.0, 0.5).unwrap();
//! let scenarios: Vec<Scenario> = (0..3)
//!     .map(|i| Scenario::new(format!("what-if {i}"), network.clone(), 1..=3))
//!     .collect();
//! let report = EnsembleRunner::new().run(&scenarios).unwrap();
//! assert_eq!(report.results.len(), 3);
//! ```

use super::marginal::{BoundOptions, NetworkBounds};
use super::sweep::{PopulationSweep, SweepStats};
use crate::network::ClosedNetwork;
use crate::{CoreError, Result};
use mapqn_faults::FaultSite;
use mapqn_par::WorkPool;

/// One independent bound study: a network solved at a list of populations
/// (a [`PopulationSweep`] when there are several, a single `bound_all`
/// when there is one).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Free-form name carried through to the matching [`ScenarioResult`].
    pub label: String,
    /// The network template; its own population is irrelevant — each entry
    /// of `populations` re-instantiates it.
    pub network: ClosedNetwork,
    /// Populations to solve, in order. Consecutive populations warm-start
    /// each other through the sweep machinery, so monotone lists are
    /// fastest, but any order is valid.
    pub populations: Vec<usize>,
}

impl Scenario {
    /// Creates a scenario from anything iterable over populations
    /// (`1..=20`, a `Vec`, an array).
    pub fn new(
        label: impl Into<String>,
        network: ClosedNetwork,
        populations: impl IntoIterator<Item = usize>,
    ) -> Self {
        Self {
            label: label.into(),
            network,
            populations: populations.into_iter().collect(),
        }
    }
}

/// The bounds of one scenario, in the order of its population list, plus
/// the sweep's warm-start counters.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Label copied from the [`Scenario`].
    pub label: String,
    /// `bounds[j]` corresponds to `populations[j]` of the scenario.
    pub bounds: Vec<NetworkBounds>,
    /// Warm-start effectiveness counters of this scenario's sweep.
    pub sweep_stats: SweepStats,
}

/// Ensemble-wide counters: the per-job [`SweepStats`] merged in job order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnsembleStats {
    /// Scenarios solved.
    pub scenarios: usize,
    /// Total populations solved across all scenarios.
    pub populations: usize,
    /// Objectives answered by the dual engine from a cross-population seed.
    pub dual_warm_objectives: usize,
    /// Objectives whose seed was salvaged by the zero-objective repair.
    pub repair_warm_objectives: usize,
    /// Seeded objectives whose seed was rejected.
    pub dual_seed_rejections: usize,
}

impl EnsembleStats {
    fn absorb(&mut self, stats: SweepStats) {
        self.scenarios += 1;
        self.populations += stats.populations;
        self.dual_warm_objectives += stats.dual_warm_objectives;
        self.repair_warm_objectives += stats.repair_warm_objectives;
        self.dual_seed_rejections += stats.dual_seed_rejections;
    }
}

/// Everything an ensemble run produces: per-scenario results in scenario
/// order and the merged counters.
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    /// `results[i]` corresponds to `scenarios[i]` of the
    /// [`EnsembleRunner::run`] call, independent of scheduling.
    pub results: Vec<ScenarioResult>,
    /// Per-job counters merged in job order.
    pub stats: EnsembleStats,
}

/// One scenario's failure in a partial ensemble run: the scenario's label
/// and job index plus the structured error, so batch post-mortems never
/// have to guess which input broke.
#[derive(Debug, Clone)]
pub struct ScenarioFailure {
    /// Label copied from the failing [`Scenario`].
    pub label: String,
    /// Job index of the failing scenario in the submitted batch.
    pub job: usize,
    /// What went wrong.
    pub error: CoreError,
    /// Wall clock the scenario consumed before failing — a scenario that
    /// dies instantly (bad model) and one that burns its whole budget first
    /// need different fixes, and the report should tell them apart.
    pub elapsed: std::time::Duration,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario '{}' (job {}) failed after {:.2?}: {}",
            self.label, self.job, self.elapsed, self.error
        )
    }
}

/// The outcome of [`EnsembleRunner::run_partial`]: per-scenario results
/// *or* failures, in scenario order, plus the merged counters of the
/// scenarios that succeeded. A failing scenario never disturbs the others
/// — their results are bitwise identical to a fault-free run's.
#[derive(Debug, Clone)]
pub struct PartialEnsembleReport {
    /// `outcomes[i]` corresponds to `scenarios[i]` of the submitted batch,
    /// independent of scheduling.
    pub outcomes: Vec<std::result::Result<ScenarioResult, ScenarioFailure>>,
    /// Counters merged, in job order, over the successful scenarios only.
    pub stats: EnsembleStats,
}

impl PartialEnsembleReport {
    /// The successful scenarios' results, in job order.
    pub fn successes(&self) -> impl Iterator<Item = &ScenarioResult> {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok())
    }

    /// The failed scenarios, in job order.
    pub fn failures(&self) -> impl Iterator<Item = &ScenarioFailure> {
        self.outcomes.iter().filter_map(|o| o.as_ref().err())
    }
}

/// Runs independent scenarios across a scoped-thread work pool
/// (`mapqn_par`), one [`PopulationSweep`] per job, with per-job solver
/// instances and deterministic, order-independent result assembly (see the
/// module docs for the full contract).
#[derive(Debug, Clone)]
pub struct EnsembleRunner {
    options: BoundOptions,
    pool: WorkPool,
}

impl Default for EnsembleRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl EnsembleRunner {
    /// A runner with default bound options and one worker per available
    /// core.
    #[must_use]
    pub fn new() -> Self {
        Self::with_options(BoundOptions::default())
    }

    /// A runner with explicit bound options (applied to every scenario,
    /// modulo the per-job salt of [`EnsembleRunner::scenario_options`]) and
    /// one worker per available core.
    #[must_use]
    pub fn with_options(options: BoundOptions) -> Self {
        Self {
            options,
            pool: WorkPool::default(),
        }
    }

    /// Overrides the worker count. `with_threads(1)` is the serial
    /// reference: it runs the exact same per-job computations on the
    /// calling thread, so its results are bitwise identical to any other
    /// worker count's.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = WorkPool::new(threads);
        self
    }

    /// The number of worker threads this runner fans out to.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The exact bound options job `job` runs under: the runner's options
    /// with the RHS-perturbation salt derived from the **job index** —
    /// `base_salt + (job << 32)` — never from the worker id (a
    /// schedule-dependent salt would make results depend on the worker
    /// count). Public so serial baselines (benches, tests) can reproduce
    /// any single job bit-for-bit outside the pool; the shift leaves the
    /// low 32 bits of salt space to the engine's own deterministic
    /// dead-end re-draws, so neighbouring jobs' streams never collide.
    #[must_use]
    pub fn scenario_options(&self, job: usize) -> BoundOptions {
        let mut options = self.options;
        options.simplex.perturbation_salt = options
            .simplex
            .perturbation_salt
            .wrapping_add((job as u64) << 32);
        options
    }

    /// Solves every scenario and assembles the results in scenario order.
    ///
    /// All scenarios always run to completion (the pool has no
    /// cancellation — jobs are too coarse for it to pay off). If any
    /// failed, the error returned is the **lowest-job-index** failure —
    /// not the first by completion order, so even the error behaviour is
    /// deterministic — wrapped as [`CoreError::Scenario`] with the failing
    /// scenario's label and job index. Callers that want the surviving
    /// scenarios' results alongside the failures should use
    /// [`EnsembleRunner::run_partial`] instead.
    ///
    /// # Errors
    /// [`CoreError::Scenario`] for the lowest-job-index failing scenario.
    pub fn run(&self, scenarios: &[Scenario]) -> Result<EnsembleReport> {
        let partial = self.run_partial(scenarios);
        let mut results = Vec::with_capacity(partial.outcomes.len());
        for outcome in partial.outcomes {
            match outcome {
                Ok(result) => results.push(result),
                Err(failure) => {
                    return Err(CoreError::Scenario {
                        label: failure.label,
                        job: failure.job,
                        source: Box::new(failure.error),
                    })
                }
            }
        }
        Ok(EnsembleReport {
            results,
            stats: partial.stats,
        })
    }

    /// Like [`EnsembleRunner::run`], but failures are returned **per
    /// scenario** instead of killing the whole batch: `outcomes[i]` is
    /// job `i`'s result or its [`ScenarioFailure`], in job order.
    ///
    /// The determinism contract extends to partial results: which
    /// scenarios fail, and every surviving scenario's bounds, are
    /// bit-for-bit independent of the worker count and scheduling order —
    /// a failing scenario's job index salts only its own solve, so its
    /// neighbours' results are bitwise identical to a fully fault-free
    /// run's.
    pub fn run_partial(&self, scenarios: &[Scenario]) -> PartialEnsembleReport {
        // One pool for the whole batch: `WorkPool::map` clamps the width
        // to the job count and runs the batch as a single round of a
        // scoped (spawn-once) pool — the right shape for coarse jobs.
        let raw: Vec<(Result<ScenarioResult>, std::time::Duration)> =
            self.pool.map(scenarios, |job, scenario| {
                let t = mapqn_linalg::budget::now();
                (self.run_one(job, scenario), t.elapsed())
            });
        let mut outcomes = Vec::with_capacity(raw.len());
        let mut stats = EnsembleStats::default();
        for (job, (outcome, elapsed)) in raw.into_iter().enumerate() {
            match outcome {
                Ok(result) => {
                    stats.absorb(result.sweep_stats);
                    outcomes.push(Ok(result));
                }
                Err(error) => outcomes.push(Err(ScenarioFailure {
                    label: scenarios[job].label.clone(),
                    job,
                    error,
                    elapsed,
                })),
            }
        }
        PartialEnsembleReport { outcomes, stats }
    }

    /// One job: a fresh sweep over the scenario's populations, entirely
    /// owned by the calling worker. The `ensemble-scenario` fault site is
    /// keyed by the **job index** (not an occurrence counter), so an
    /// injected failure hits the same scenario at any worker count.
    fn run_one(&self, job: usize, scenario: &Scenario) -> Result<ScenarioResult> {
        if mapqn_faults::fire_keyed(FaultSite::EnsembleScenario, job as u64) {
            return Err(CoreError::Injected {
                site: FaultSite::EnsembleScenario.name(),
            });
        }
        let mut sweep =
            PopulationSweep::with_options(&scenario.network, self.scenario_options(job))?;
        let mut bounds = Vec::with_capacity(scenario.populations.len());
        for &population in &scenario.populations {
            bounds.push(sweep.bounds_at(population)?);
        }
        Ok(ScenarioResult {
            label: scenario.label.clone(),
            bounds,
            sweep_stats: sweep.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::figure5_network;

    fn small_scenarios() -> Vec<Scenario> {
        let network = figure5_network(1, 4.0, 0.5).unwrap();
        (0..4)
            .map(|i| Scenario::new(format!("s{i}"), network.clone(), 1..=4))
            .collect()
    }

    fn assert_reports_bitwise_equal(a: &EnsembleReport, b: &EnsembleReport) {
        assert_eq!(a.results.len(), b.results.len());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.label, rb.label);
            assert_eq!(ra.bounds.len(), rb.bounds.len());
            for (ba, bb) in ra.bounds.iter().zip(&rb.bounds) {
                for k in 0..ba.throughput.len() {
                    for (ia, ib) in [
                        (&ba.throughput[k], &bb.throughput[k]),
                        (&ba.utilization[k], &bb.utilization[k]),
                        (&ba.mean_queue_length[k], &bb.mean_queue_length[k]),
                    ] {
                        assert_eq!(ia.lower.to_bits(), ib.lower.to_bits());
                        assert_eq!(ia.upper.to_bits(), ib.upper.to_bits());
                    }
                }
                assert_eq!(
                    ba.system_throughput.lower.to_bits(),
                    bb.system_throughput.lower.to_bits()
                );
                assert_eq!(
                    ba.system_throughput.upper.to_bits(),
                    bb.system_throughput.upper.to_bits()
                );
            }
        }
        assert_eq!(a.stats, b.stats);
    }

    /// The tentpole determinism regression: 1 worker vs several workers
    /// produce bit-identical reports (satellite: worker-count independence
    /// comes from seeding per-job state by job index, not worker id).
    #[test]
    fn reports_are_bitwise_identical_across_worker_counts() {
        let scenarios = small_scenarios();
        let serial = EnsembleRunner::new()
            .with_threads(1)
            .run(&scenarios)
            .unwrap();
        for threads in [2, 4, 7] {
            let parallel = EnsembleRunner::new()
                .with_threads(threads)
                .run(&scenarios)
                .unwrap();
            assert_reports_bitwise_equal(&serial, &parallel);
        }
        assert_eq!(serial.stats.scenarios, 4);
        assert_eq!(serial.stats.populations, 16);
    }

    /// Each job reproduces bit-for-bit outside the pool from
    /// `scenario_options(job)` — the public serial-reference contract.
    #[test]
    fn scenario_options_reproduce_jobs_outside_the_pool() {
        let scenarios = small_scenarios();
        let runner = EnsembleRunner::new().with_threads(3);
        let report = runner.run(&scenarios).unwrap();
        for (job, scenario) in scenarios.iter().enumerate() {
            let mut sweep =
                PopulationSweep::with_options(&scenario.network, runner.scenario_options(job))
                    .unwrap();
            for (j, &n) in scenario.populations.iter().enumerate() {
                let serial = sweep.bounds_at(n).unwrap();
                let ensemble = &report.results[job].bounds[j];
                assert_eq!(
                    serial.system_throughput.lower.to_bits(),
                    ensemble.system_throughput.lower.to_bits()
                );
                assert_eq!(
                    serial.system_throughput.upper.to_bits(),
                    ensemble.system_throughput.upper.to_bits()
                );
            }
        }
    }

    /// Salts are a pure function of the job index and never collide across
    /// neighbouring jobs.
    #[test]
    fn job_salts_are_index_derived() {
        let runner = EnsembleRunner::new();
        let s0 = runner.scenario_options(0).simplex.perturbation_salt;
        let s1 = runner.scenario_options(1).simplex.perturbation_salt;
        let s2 = runner.scenario_options(2).simplex.perturbation_salt;
        assert_eq!(s0, BoundOptions::default().simplex.perturbation_salt);
        assert_ne!(s1, s2);
        assert!(s1.wrapping_sub(s0) >= 1 << 32);
    }

    #[test]
    fn unsupported_scenarios_fail_deterministically() {
        use crate::network::Station;
        use crate::service::Service;
        use mapqn_linalg::DMatrix;
        let routing = DMatrix::from_row_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let delay_net = ClosedNetwork::new(
            vec![
                Station::delay("clients", 1.0).unwrap(),
                Station::queue("server", Service::exponential(1.0).unwrap()),
            ],
            routing,
            3,
        )
        .unwrap();
        let mut scenarios = small_scenarios();
        scenarios.insert(1, Scenario::new("bad", delay_net, [1, 2]));
        // The batch error is attributable: it names the failing scenario's
        // label and job index, wrapped around the underlying cause.
        let err = EnsembleRunner::new().run(&scenarios).unwrap_err();
        match &err {
            CoreError::Scenario { label, job, source } => {
                assert_eq!(label, "bad");
                assert_eq!(*job, 1);
                assert!(matches!(**source, CoreError::Unsupported(_)));
            }
            other => panic!("expected CoreError::Scenario, got {other:?}"),
        }
        // run_partial keeps the other scenarios' results.
        let partial = EnsembleRunner::new().run_partial(&scenarios);
        assert_eq!(partial.outcomes.len(), 5);
        assert_eq!(partial.successes().count(), 4);
        let failure = partial.failures().next().unwrap();
        assert_eq!(failure.job, 1);
        assert_eq!(failure.label, "bad");
    }
}

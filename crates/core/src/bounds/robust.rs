//! The LP degradation ladder: always-answer semantics for the bound
//! front doors.
//!
//! ## Failure taxonomy
//!
//! A `bound_all` can fail for two fundamentally different reasons:
//!
//! * **Budget exhaustion** — the caller set a [`SolveBudget`] and the
//!   engines ran out of wall clock or pivots. This says nothing about the
//!   model; it says the caller wants *an* answer now.
//! * **Numerical breakdown** — a basis that stays singular after repair, a
//!   phase 1 that cannot converge, a pivot loop that runs out of
//!   iterations. The cold solve at figure-8 populations around N≈50 is the
//!   canonical case (the "N=50 cliff" in ROADMAP.md).
//!
//! Either way the caller asked a question the network *does* have an
//! answer to — the true performance sits in some interval — so returning
//! an error is a policy choice, not a necessity. The ladder replaces that
//! policy with provenance-tagged degradation.
//!
//! ## One ladder
//!
//! Every front door walks the same LP rungs on the [`super::ladder`]
//! executor, each rung under a share of the wall clock still remaining:
//!
//! 1. **Direct** (35%): the front door's own certified solve — a cold
//!    solve for `bound_all` and `solve()`, the warm re-solve for
//!    `PopulationSweep::bounds_at`, the (optionally neighbor-seeded) solve
//!    for `PlanningSession`. A revised-engine failure fails the rung; there
//!    is no dense-tableau fallback underneath it.
//! 2. **Salted** (30%): a fresh solver whose anti-degeneracy perturbation
//!    stream is re-drawn under a different salt. Degenerate pivot dead ends
//!    are salt-dependent; a re-draw routinely escapes them. Succeeds →
//!    still [`Quality::Certified`] (it is the same LP).
//! 3. **Bootstrap** (the rest; skipped at N ≤ 8, where it would repeat the
//!    direct solve): the population is approached through a doubling
//!    schedule (8, 16, 32, …, N), each step dual-warm seeded from the
//!    previous one's optimal bases exactly like a population sweep. Warm
//!    bases steer the solver onto the optimal face directly, skipping the
//!    degenerate cold phase-1 walk that breaks at large N. Succeeds →
//!    [`Quality::SelfSeeded`]: the intervals are still LP-certified, but
//!    the path that produced them was not the default one.
//!
//! Each front door then adds its own always-answer tail, exempt from the
//! deadline: `bound_all` and `bounds_at` end at the **floor** — ABA
//! throughput bounds (balanced-job refined when every station is
//! exponential), per-station intervals from visit ratios and demands,
//! `[0, N]` queue lengths, tagged [`Quality::Asymptotic`];
//! `PlanningSession` runs the **fluid** engine before the floor; `solve()`
//! has no tail here because its own engine plan continues past the LP.
//!
//! Every attempt, the answering one included, is recorded in
//! [`SolveDiagnostics`], so a caller can see exactly what was tried, what
//! failed, and how much of the budget each attempt consumed.

use super::aba::{aba_bounds, balanced_job_bounds};
use super::ladder::{self, Attempt};
use super::marginal::{
    response_time_from_throughput, BoundOptions, MarginalBoundSolver, NetworkBounds,
};
use super::sweep::PopulationSweep;
use super::BoundInterval;
use crate::network::ClosedNetwork;
use crate::{CoreError, Result};
use mapqn_linalg::{budget, BudgetExhausted, SolveBudget};
use mapqn_lp::Basis;
use std::time::{Duration, Instant};

/// The LP rungs every front door shares, with each rung's share of the
/// wall clock still remaining when it starts. The direct share leaves the
/// fallbacks meaningful time even when the direct solve burns its whole
/// slice.
const LP_RUNGS: [(Rung, f64); 3] = [
    (Rung::Direct, 0.35),
    (Rung::Salted, 0.3),
    (Rung::Bootstrap, 1.0),
];

/// Smallest population worth bootstrapping: at or below this the direct
/// solve and the bootstrap are the same computation, so the rung is
/// skipped.
const BOOTSTRAP_MIN: usize = 8;

/// Salt offset of the salted re-solve (the 64-bit golden ratio, the same
/// constant the engine's own dead-end re-draws step by — any odd constant
/// works, this one keeps the streams well spread).
const SALTED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Salt offset of the bootstrap rung, distinct from both the original
/// stream and the salted stream.
const BOOTSTRAP_SALT: u64 = 0x3C6E_F372_FE94_F82A;

/// Provenance of a [`NetworkBounds`]: which rung of the degradation ladder
/// produced the intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// The full marginal-balance LP solved to optimality — either directly
    /// or after a salted re-solve. The paper-grade result.
    Certified,
    /// The full LP solved to optimality, but only after the self-seeded
    /// population bootstrap; the intervals are LP-certified, the provenance
    /// is non-default.
    SelfSeeded,
    /// The algebraic asymptotic floor (ABA / balanced-job bounds): valid but
    /// loose, oblivious to service distributions and autocorrelation.
    Asymptotic,
}

impl std::fmt::Display for Quality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Quality::Certified => write!(f, "certified"),
            Quality::SelfSeeded => write!(f, "self-seeded"),
            Quality::Asymptotic => write!(f, "asymptotic"),
        }
    }
}

/// One rung of the degradation ladder: the shared LP rungs plus the
/// always-answer tails the front doors append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The ordinary certified solve.
    Direct,
    /// Fresh solver under a re-drawn perturbation salt.
    Salted,
    /// Self-seeded doubling-population bootstrap.
    Bootstrap,
    /// Mean-field fluid engine standing in for the LP (session ladder).
    Fluid,
    /// Algebraic asymptotic floor.
    Floor,
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Rung::Direct => "direct",
            Rung::Salted => "salted",
            Rung::Bootstrap => "bootstrap",
            Rung::Fluid => "fluid",
            Rung::Floor => "floor",
        };
        write!(f, "{name}")
    }
}

impl Rung {
    /// Provenance of an answer this rung produced (the planning session
    /// re-tags a neighbor-seeded direct answer [`Quality::SelfSeeded`]).
    #[must_use]
    pub fn quality(self) -> Quality {
        match self {
            Rung::Direct | Rung::Salted => Quality::Certified,
            Rung::Bootstrap => Quality::SelfSeeded,
            Rung::Fluid | Rung::Floor => Quality::Asymptotic,
        }
    }
}

/// The record of one rung of a bounds ladder (see [`Attempt`]).
pub type LadderAttempt = Attempt<Rung>;

/// Structured record of how a solve went: the ladder attempts in order,
/// the budget that governed them and the total wall clock consumed. An
/// undegraded solve records its one successful direct attempt.
#[derive(Debug, Clone, Default)]
pub struct SolveDiagnostics {
    /// Ladder attempts in the order they ran, the answering one last
    /// (empty only for the raw `bound_all_seeded` path, which runs no
    /// ladder).
    pub attempts: Vec<LadderAttempt>,
    /// The budget the solve ran under.
    pub budget: SolveBudget,
    /// Total wall clock from solve entry to the returned answer.
    pub consumed: Duration,
}

impl SolveDiagnostics {
    /// Whether any ladder rung beyond the direct solve ran.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.attempts.iter().any(|a| a.step != Rung::Direct)
    }
}

/// Compact single-line log form, e.g.
/// `consumed=1.24ms attempts=[direct@N=50 err 0.80ms; salted@N=50 ok 0.44ms]`
/// — the form session logs and `ScenarioFailure` reports are grepped by.
impl std::fmt::Display for SolveDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "consumed={:.2?} attempts=[", self.consumed)?;
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            let outcome = if a.error.is_some() { "err" } else { "ok" };
            write!(
                f,
                "{}@N={} {} {:.2?}",
                a.step, a.population, outcome, a.elapsed
            )?;
        }
        write!(f, "]")
    }
}

/// The shared LP rungs for `population` (the bootstrap only past
/// [`BOOTSTRAP_MIN`]) followed by `tail`, whose rungs each get the whole
/// remainder.
pub(crate) fn plan(population: usize, tail: &[Rung]) -> Vec<(Rung, f64)> {
    LP_RUNGS
        .iter()
        .copied()
        .filter(|&(rung, _)| rung != Rung::Bootstrap || population > BOOTSTRAP_MIN)
        .chain(tail.iter().map(|&rung| (rung, 1.0)))
        .collect()
}

/// Walks [`plan`]`(N, tail)` for a bounds front door: `direct` answers the
/// direct rung under its budget slice, [`fallback`] every other rung. The
/// answer carries the answering rung's [`Quality`] and the full
/// [`SolveDiagnostics`]; when no rung answers (possible only with an empty
/// `tail`) the last failure is returned.
pub(crate) fn walk_bounds(
    network: &ClosedNetwork,
    options: BoundOptions,
    start: Instant,
    tail: &[Rung],
    mut direct: impl FnMut(SolveBudget) -> Result<NetworkBounds>,
) -> Result<NetworkBounds> {
    let population = network.population();
    let walk = ladder::run(
        &plan(population, tail),
        options.budget,
        start,
        population,
        |rung, slice| match rung {
            Rung::Direct => direct(slice),
            rung => fallback(network, options, rung, slice).map(|(bounds, _)| bounds),
        },
    );
    let (rung, mut bounds) = walk.answer?;
    bounds.quality = rung.quality();
    bounds.diagnostics = SolveDiagnostics {
        attempts: walk.attempts,
        budget: options.budget,
        consumed: budget::now().duration_since(start),
    };
    Ok(bounds)
}

/// The rungs every front door shares — salted re-solve, bootstrap and
/// floor — under `slice`, returning the bounds and the solved bases (empty
/// for the floor). The direct and fluid rungs belong to the front doors.
///
/// # Errors
/// The rung's solve failure; [`CoreError::Unsupported`] for a rung the
/// front door must answer itself.
pub(crate) fn fallback(
    network: &ClosedNetwork,
    mut options: BoundOptions,
    rung: Rung,
    slice: SolveBudget,
) -> Result<(NetworkBounds, Vec<Basis>)> {
    options.budget = slice;
    match rung {
        Rung::Salted => {
            options.simplex.perturbation_salt =
                options.simplex.perturbation_salt.wrapping_add(SALTED_SALT);
            let mut solver = MarginalBoundSolver::with_options(network, options)?;
            let bounds = solver.bound_all_seeded(&[])?;
            Ok((bounds, solver.solved_bases()))
        }
        Rung::Bootstrap => bootstrap(network, options),
        Rung::Floor => Ok((asymptotic_floor(network)?, Vec::new())),
        Rung::Direct | Rung::Fluid => Err(CoreError::Unsupported(format!(
            "the {rung} rung is answered by the front door"
        ))),
    }
}

/// Approaches the target population through a doubling schedule,
/// dual-warm seeding every step from the previous one — the ROADMAP
/// candidate fix for the cold-solve cliff, packaged as a rung.
fn bootstrap(
    network: &ClosedNetwork,
    mut options: BoundOptions,
) -> Result<(NetworkBounds, Vec<Basis>)> {
    let target = network.population();
    let mut schedule = Vec::new();
    let mut p = BOOTSTRAP_MIN;
    while p < target {
        schedule.push(p);
        p *= 2;
    }
    schedule.push(target);
    let deadline = options
        .budget
        .wall_clock
        .map(|allowance| budget::now() + allowance);
    options.simplex.perturbation_salt =
        options.simplex.perturbation_salt.wrapping_add(BOOTSTRAP_SALT);
    let mut sweep = PopulationSweep::with_options(network, options)?;
    let mut last: Option<NetworkBounds> = None;
    for &population in &schedule {
        if let Some(d) = deadline {
            let left = d.saturating_duration_since(budget::now());
            if left.is_zero() {
                return Err(CoreError::Lp(mapqn_lp::LpError::BudgetExhausted(
                    BudgetExhausted::WallClock,
                )));
            }
            // Each step re-anchors at the rung's deadline, so the whole
            // schedule — not each step — fits the slice.
            sweep.set_budget(SolveBudget {
                wall_clock: Some(left),
                ..options.budget
            });
        }
        last = Some(sweep.warm_solve(&network.with_population(population)?)?);
    }
    // INFALLIBLE: the schedule ends with the target itself, so the loop
    // body ran at least once and set `last`.
    let bounds = last.expect("schedule always contains the target population");
    let bases = sweep
        .last_solver()
        .map(MarginalBoundSolver::solved_bases)
        .unwrap_or_default();
    Ok((bounds, bases))
}

/// The floor rung: the algebraic answer. ABA system-throughput bounds (balanced-job
/// refined when every station is exponential — BJB assumes product form,
/// which MAP service breaks), fanned out per station by the visit ratios;
/// utilizations bounded by `X_max · D_k` and 1; queue lengths by `[0, N]`.
/// Deliberately conservative so a floor interval always contains the
/// certified interval it stands in for.
pub(crate) fn asymptotic_floor(network: &ClosedNetwork) -> Result<NetworkBounds> {
    let aba = aba_bounds(network)?;
    let mut x = aba.throughput;
    let all_exponential = network
        .stations()
        .iter()
        .all(|s| s.service.phases() == 1);
    if all_exponential {
        let bjb = balanced_job_bounds(network)?;
        x = BoundInterval::new(x.lower.max(bjb.lower), x.upper.min(bjb.upper));
    }
    let visit_ratios = network.visit_ratios()?;
    let demands = network.service_demands()?;
    let n = network.population();
    let m = network.num_stations();
    let throughput: Vec<BoundInterval> = (0..m)
        .map(|k| BoundInterval::new(visit_ratios[k] * x.lower, visit_ratios[k] * x.upper))
        .collect();
    let utilization: Vec<BoundInterval> = (0..m)
        .map(|k| BoundInterval::new(0.0, (x.upper * demands[k]).min(1.0)))
        .collect();
    let mean_queue_length: Vec<BoundInterval> = (0..m)
        .map(|_| BoundInterval::new(0.0, n as f64))
        .collect();
    let system_response_time = response_time_from_throughput(x, n);
    Ok(NetworkBounds {
        throughput,
        utilization,
        mean_queue_length,
        system_throughput: x,
        system_response_time,
        population: n,
        quality: Quality::Asymptotic,
        diagnostics: SolveDiagnostics::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::templates::figure5_network;

    #[test]
    fn floor_brackets_the_exact_solution() {
        for &(scv, n) in &[(1.0_f64, 4_usize), (4.0, 6), (16.0, 5)] {
            let network = figure5_network(n, scv, 0.5).unwrap();
            let exact = solve_exact(&network).unwrap();
            let floor = asymptotic_floor(&network).unwrap();
            assert_eq!(floor.quality, Quality::Asymptotic);
            assert!(
                floor
                    .system_throughput
                    .contains(exact.system_throughput, 1e-9),
                "scv={scv} n={n}: X={} not in [{}, {}]",
                exact.system_throughput,
                floor.system_throughput.lower,
                floor.system_throughput.upper
            );
            for k in 0..network.num_stations() {
                assert!(floor.throughput[k].contains(exact.throughput[k], 1e-9));
                assert!(floor.utilization[k].contains(exact.utilization[k], 1e-9));
                assert!(floor
                    .mean_queue_length[k]
                    .contains(exact.mean_queue_length[k], 1e-9));
            }
            assert!(floor
                .system_response_time
                .contains(exact.system_response_time, 1e-9));
        }
    }

    #[test]
    fn quality_display_names() {
        assert_eq!(Quality::Certified.to_string(), "certified");
        assert_eq!(Quality::SelfSeeded.to_string(), "self-seeded");
        assert_eq!(Quality::Asymptotic.to_string(), "asymptotic");
    }

    #[test]
    fn diagnostics_display_is_one_greppable_line() {
        let mut diag = SolveDiagnostics::default();
        assert_eq!(diag.to_string(), "consumed=0.00ns attempts=[]");
        diag.attempts.push(LadderAttempt {
            step: Rung::Direct,
            population: 50,
            error: Some(CoreError::BoundLpFailed("x".into())),
            elapsed: Duration::from_millis(3),
        });
        diag.attempts.push(LadderAttempt {
            step: Rung::Salted,
            population: 50,
            error: None,
            elapsed: Duration::from_millis(1),
        });
        let line = diag.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("direct@N=50 err"), "{line}");
        assert!(line.contains("salted@N=50 ok"), "{line}");
    }

    #[test]
    fn diagnostics_degraded_flag() {
        let mut diag = SolveDiagnostics::default();
        assert!(!diag.degraded());
        diag.attempts.push(LadderAttempt {
            step: Rung::Direct,
            population: 5,
            error: None,
            elapsed: Duration::ZERO,
        });
        assert!(!diag.degraded());
        diag.attempts.push(LadderAttempt {
            step: Rung::Floor,
            population: 5,
            error: None,
            elapsed: Duration::ZERO,
        });
        assert!(diag.degraded());
    }
}

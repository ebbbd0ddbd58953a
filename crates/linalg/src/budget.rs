//! Cooperative solve budgets: wall-clock deadlines and work caps that the
//! iterative engines (simplex pivot loops, sparse steady-state sweeps)
//! check from inside their hot loops, so no solve in the workspace can run
//! unbounded.
//!
//! Two layers:
//!
//! * [`SolveBudget`] is the **user-facing** description — "at most 30
//!   seconds and 2 million pivots for this whole `bound_all`". It is made
//!   of durations and counts, carries no running state, and lives in the
//!   front-door option structs (`BoundOptions`, and sliced per rung by the
//!   degradation-ladder executor in `mapqn-core`).
//! * [`EngineBudget`] is the **engine-facing** form: an absolute deadline
//!   [`std::time::Instant`] plus a work cap, anchored by the front door at
//!   solve entry ([`SolveBudget::engine_budget`]) and embedded in the
//!   engine option structs (`SimplexOptions`, `SparseSteadyOptions`). The
//!   engines call [`EngineBudget::check`] with their running work counter;
//!   the clock is only consulted every [`CLOCK_CHECK_MASK`]` + 1` units of
//!   work, keeping the common case a couple of integer compares.
//!
//! Budget exhaustion is an *error by design* ([`BudgetExhausted`], wrapped
//! into each engine's error enum): the caller that set the budget decides
//! what "degraded but still valid" means — in `mapqn-core` that caller is
//! the degradation ladder, which falls back to cheaper engines instead of
//! propagating the error to the user.

use std::time::{Duration, Instant};

/// The engine checks its wall-clock deadline when `work & CLOCK_CHECK_MASK
/// == 0`: reading the monotonic clock costs a vDSO call, which at simplex
/// pivot granularity would dominate the check itself.
pub const CLOCK_CHECK_MASK: u64 = 127;

/// The workspace's single sanctioned wall-clock read.
///
/// Every timing measurement outside this module (budget anchoring in the
/// bound sweeps, per-phase diagnostics in the LP engines) routes through
/// here instead of calling [`Instant::now`] directly; the `bare-clock`
/// rule in `mapqn-check` enforces it. Funneling the clock through one
/// spelling keeps deadline anchors and diagnostics on the same monotonic
/// source and gives any future virtual-clock hook (fault injection,
/// deterministic replay) exactly one seam to intercept.
#[inline]
#[must_use]
pub fn now() -> Instant {
    Instant::now()
}

/// Why a budgeted solve was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExhausted {
    /// The wall-clock deadline passed.
    WallClock,
    /// The work cap (pivots for the LP engines, row relaxations for the
    /// sparse sweeps) was reached.
    Work {
        /// The cap that was hit.
        limit: u64,
    },
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExhausted::WallClock => write!(f, "wall-clock budget exhausted"),
            BudgetExhausted::Work { limit } => {
                write!(f, "work budget of {limit} units exhausted")
            }
        }
    }
}

impl std::error::Error for BudgetExhausted {}

/// A declarative solve budget: how much wall-clock time and engine work a
/// front-door solve may consume. `Default` is unlimited, preserving the
/// historical behaviour of every caller that does not opt in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Wall-clock allowance, measured from solve entry.
    pub wall_clock: Option<Duration>,
    /// Cap on LP simplex pivots per engine call.
    pub max_pivots: Option<u64>,
    /// Cap on sparse-solver sweep work (row relaxations) per engine call.
    pub max_sweep_work: Option<u64>,
}

impl SolveBudget {
    /// The do-nothing budget (no deadline, no caps).
    #[must_use]
    pub const fn unlimited() -> Self {
        Self {
            wall_clock: None,
            max_pivots: None,
            max_sweep_work: None,
        }
    }

    /// A budget with only a wall-clock allowance.
    #[must_use]
    pub const fn wall_clock(allowance: Duration) -> Self {
        Self {
            wall_clock: Some(allowance),
            max_pivots: None,
            max_sweep_work: None,
        }
    }

    /// Whether this budget constrains anything at all.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.wall_clock.is_none() && self.max_pivots.is_none() && self.max_sweep_work.is_none()
    }

    /// Anchors this budget at `start`, producing the engine-facing form
    /// with the LP pivot cap as its work cap.
    #[must_use]
    pub fn engine_budget(&self, start: Instant) -> EngineBudget {
        EngineBudget {
            deadline: self.wall_clock.map(|d| start + d),
            max_work: self.max_pivots,
        }
    }

    /// Like [`SolveBudget::engine_budget`] but with the sweep-work cap,
    /// for the sparse steady-state engines.
    #[must_use]
    pub fn sweep_budget(&self, start: Instant) -> EngineBudget {
        EngineBudget {
            deadline: self.wall_clock.map(|d| start + d),
            max_work: self.max_sweep_work,
        }
    }
}

/// The anchored, engine-facing budget embedded in engine option structs.
/// `Default` (no deadline, no cap) makes every existing call site
/// budget-free without code changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineBudget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Cap on the engine's work counter (pivots / row relaxations).
    pub max_work: Option<u64>,
}

impl EngineBudget {
    /// The unconstrained budget.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            deadline: None,
            max_work: None,
        }
    }

    /// Cooperative check called from engine hot loops with the running
    /// work counter. The work cap is compared on every call; the
    /// wall-clock deadline only every [`CLOCK_CHECK_MASK`]` + 1` units
    /// (callers that finish a coarse round — e.g. one full sparse sweep —
    /// should use [`EngineBudget::check_deadline`] to force the clock).
    ///
    /// # Errors
    /// [`BudgetExhausted`] when a constraint is violated. The
    /// `budget-expiry` fault site reports wall-clock expiry on demand, so
    /// tests can exercise budget-exhaustion paths without waiting.
    #[inline]
    pub fn check(&self, work: u64) -> Result<(), BudgetExhausted> {
        if let Some(limit) = self.max_work {
            if work >= limit {
                return Err(BudgetExhausted::Work { limit });
            }
        }
        if self.deadline.is_some() && work & CLOCK_CHECK_MASK == 0 {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Forces a wall-clock check (and consults the `budget-expiry` fault
    /// hook), regardless of the work counter.
    ///
    /// # Errors
    /// [`BudgetExhausted::WallClock`] when the deadline passed (or the
    /// fault fired).
    #[inline]
    pub fn check_deadline(&self) -> Result<(), BudgetExhausted> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        if mapqn_faults::fire(mapqn_faults::FaultSite::BudgetExpiry)
            || Instant::now() >= deadline
        {
            return Err(BudgetExhausted::WallClock);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = EngineBudget::none();
        for work in [0u64, 1, 128, u64::MAX - 1] {
            assert_eq!(budget.check(work), Ok(()));
        }
        assert_eq!(budget.check_deadline(), Ok(()));
    }

    #[test]
    fn work_cap_trips_exactly_at_the_limit() {
        let budget = EngineBudget {
            deadline: None,
            max_work: Some(10),
        };
        assert_eq!(budget.check(9), Ok(()));
        assert_eq!(budget.check(10), Err(BudgetExhausted::Work { limit: 10 }));
    }

    #[test]
    fn expired_deadline_trips_on_the_clock_check_cadence() {
        let budget = EngineBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            max_work: None,
        };
        // Off-cadence work counters skip the clock.
        assert_eq!(budget.check(3), Ok(()));
        assert_eq!(budget.check(0), Err(BudgetExhausted::WallClock));
        assert_eq!(budget.check(128), Err(BudgetExhausted::WallClock));
        assert_eq!(budget.check_deadline(), Err(BudgetExhausted::WallClock));
    }

    #[test]
    fn solve_budget_anchors_and_scales() {
        let budget = SolveBudget {
            wall_clock: Some(Duration::from_secs(10)),
            max_pivots: Some(1_000),
            max_sweep_work: Some(2_000),
        };
        assert!(!budget.is_unlimited());
        let start = Instant::now();
        let lp = budget.engine_budget(start);
        assert_eq!(lp.max_work, Some(1_000));
        assert_eq!(lp.deadline, Some(start + Duration::from_secs(10)));
        let sweep = budget.sweep_budget(start);
        assert_eq!(sweep.max_work, Some(2_000));
        assert!(SolveBudget::unlimited().is_unlimited());
        assert!(SolveBudget::default().is_unlimited());
    }

    #[test]
    fn display_is_informative() {
        assert!(BudgetExhausted::WallClock.to_string().contains("wall-clock"));
        assert!(BudgetExhausted::Work { limit: 7 }.to_string().contains('7'));
    }
}

//! The degradation-ladder executor every front door runs on.
//!
//! A ladder is a *plan*: an ordered list of `(step, share)` pairs. The
//! executor walks it, hands each step `share` of the wall clock still
//! remaining when that step starts (work caps pass through unchanged, and
//! an unlimited budget stays unlimited), records every attempt in order and
//! stops at the first step that answers. The steps themselves live with
//! the front doors: [`super::robust`] holds the LP rungs the bound front
//! doors share, and [`crate::planning`] and [`crate::solve()`] run their own
//! plans through the same executor.

use crate::{CoreError, Result};
use mapqn_linalg::{budget, SolveBudget};
use std::time::{Duration, Instant};

/// The record of one ladder attempt: which step ran, at which population,
/// whether it failed (and how), and how long it took.
#[derive(Debug, Clone)]
pub struct Attempt<S> {
    /// The step that was attempted (a [`super::Rung`] or a
    /// [`crate::Engine`]).
    pub step: S,
    /// Population the attempt solved.
    pub population: usize,
    /// `None` when the attempt produced the answer; the failure that moved
    /// the walk to the next step otherwise.
    pub error: Option<CoreError>,
    /// Wall clock the attempt consumed.
    pub elapsed: Duration,
}

/// The outcome of [`run`]: every attempt in order (the answering one last)
/// and the answer tagged with the step that produced it, or the last
/// failure when no step answered.
#[derive(Debug)]
pub(crate) struct Walk<S, T> {
    /// Attempts in the order they ran.
    pub(crate) attempts: Vec<Attempt<S>>,
    /// The answering step and its answer, or the last step's error.
    pub(crate) answer: Result<(S, T)>,
}

/// `share` of the wall clock `budget` has left after `start`; work caps
/// are kept and an unlimited wall clock stays unlimited.
fn slice(budget: SolveBudget, start: Instant, share: f64) -> SolveBudget {
    match budget.wall_clock {
        None => budget,
        Some(allowance) => {
            let spent = budget::now().duration_since(start);
            SolveBudget {
                wall_clock: Some(allowance.saturating_sub(spent).mul_f64(share)),
                ..budget
            }
        }
    }
}

/// Walks `plan` under `budget` (anchored at `start`), calling `step` with
/// each step's slice until one answers. `population` is stamped on every
/// attempt record.
pub(crate) fn run<S: Copy, T>(
    plan: &[(S, f64)],
    budget: SolveBudget,
    start: Instant,
    population: usize,
    mut step: impl FnMut(S, SolveBudget) -> Result<T>,
) -> Walk<S, T> {
    let mut attempts = Vec::with_capacity(plan.len());
    let mut last_error = None;
    for &(s, share) in plan {
        let began = budget::now();
        let outcome = step(s, slice(budget, start, share));
        let elapsed = budget::now().duration_since(began);
        let error = outcome.as_ref().err().cloned();
        attempts.push(Attempt {
            step: s,
            population,
            error,
            elapsed,
        });
        match outcome {
            Ok(answer) => {
                return Walk {
                    attempts,
                    answer: Ok((s, answer)),
                }
            }
            Err(error) => last_error = Some(error),
        }
    }
    Walk {
        attempts,
        answer: Err(
            last_error.unwrap_or_else(|| CoreError::Unsupported("the ladder plan is empty".into()))
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failing(step: u8) -> CoreError {
        CoreError::BoundLpFailed(format!("step {step}"))
    }

    #[test]
    fn each_step_gets_its_share_of_the_remaining_wall_clock() {
        // Four of ten seconds are already spent at entry, so the walk has
        // six left; the steps fail instantly and leave it at six.
        let start = budget::now()
            .checked_sub(Duration::from_secs(4))
            .expect("the monotonic clock is past its first four seconds");
        let request = SolveBudget::wall_clock(Duration::from_secs(10));
        let mut seen = Vec::new();
        let walk = run::<u8, ()>(
            &[(0, 0.35), (1, 0.3), (2, 1.0)],
            request,
            start,
            7,
            |s, b| {
                seen.push(b);
                Err(failing(s))
            },
        );
        assert!(walk.answer.is_err());
        let tolerance = 0.05;
        for (budget, expected) in seen.iter().zip([0.35 * 6.0, 0.3 * 6.0, 6.0]) {
            let got = budget.wall_clock.expect("a wall clock stays a wall clock");
            assert!(
                (got.as_secs_f64() - expected).abs() < tolerance,
                "got {got:?}, expected {expected} s"
            );
        }
    }

    #[test]
    fn an_unlimited_budget_passes_through_unchanged() {
        let request = SolveBudget {
            max_pivots: Some(7),
            ..SolveBudget::unlimited()
        };
        let mut seen = Vec::new();
        let _ = run::<u8, ()>(&[(0, 0.35), (1, 0.0)], request, budget::now(), 3, |s, b| {
            seen.push(b);
            Err(failing(s))
        });
        assert_eq!(seen, vec![request, request]);
    }

    #[test]
    fn the_first_success_ends_the_walk_and_every_attempt_is_recorded() {
        let mut called = Vec::new();
        let walk = run(
            &[(0u8, 0.35), (1, 0.3), (2, 1.0)],
            SolveBudget::unlimited(),
            budget::now(),
            5,
            |s, _| {
                called.push(s);
                if s == 1 {
                    Ok("answer")
                } else {
                    Err(failing(s))
                }
            },
        );
        assert_eq!(called, vec![0, 1], "step 2 must never run");
        let (step, answer) = walk.answer.expect("step 1 answers");
        assert_eq!((step, answer), (1, "answer"));
        let steps: Vec<u8> = walk.attempts.iter().map(|a| a.step).collect();
        assert_eq!(steps, vec![0, 1]);
        assert_eq!(walk.attempts[0].error, Some(failing(0)));
        assert!(walk.attempts[1].error.is_none());
        assert!(walk.attempts.iter().all(|a| a.population == 5));
    }

    #[test]
    fn an_exhausted_plan_returns_the_last_failure() {
        let walk = run::<u8, ()>(
            &[(0, 0.5), (1, 1.0)],
            SolveBudget::unlimited(),
            budget::now(),
            2,
            |s, _| Err(failing(s)),
        );
        assert_eq!(walk.answer.unwrap_err(), failing(1));
        assert_eq!(walk.attempts.len(), 2);
        assert!(walk.attempts.iter().all(|a| a.error.is_some()));
    }
}

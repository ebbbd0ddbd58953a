//! # mapqn-faults
//!
//! Deterministic fault injection for the workspace's always-answer
//! robustness layer.
//!
//! The one degradation ladder every `mapqn-core` front door walks (direct
//! solve → salted re-solve → self-seeded bootstrap, then the front door's
//! fluid and/or asymptotic-floor tail) only matters on the failure paths, and waiting for a degenerate model to wander onto each of
//! them makes the ladder untestable. This crate plants **hooks** at the
//! interesting failure sites — LP pivot-loop exhaustion, basis-factorization
//! breakdown, Gauss–Seidel divergence, budget expiry, a failing ensemble
//! scenario, fluid fixed-point non-convergence, and the planning-session
//! sites (cache poisoning, request-deadline expiry, a forced-open circuit
//! breaker) — and lets a test (or a CI matrix leg) force exactly one of
//! them, deterministically, without touching the solver code.
//!
//! ## Selecting a fault
//!
//! Two equivalent ways:
//!
//! * **Environment** — `MAPQN_FAULT=<site>:<seed>[:<count>]`, e.g.
//!   `MAPQN_FAULT=lp-iterations:0` (the first time the LP pivot loop
//!   consults the hook, it fails) or `MAPQN_FAULT=gs-divergence:2:all`
//!   (every consultation from the third on). This is how the CI
//!   fault-injection matrix drives the dedicated integration tests.
//! * **Programmatic** — [`arm`] from a test. Arming takes a global lock so
//!   concurrently running tests serialize instead of observing each other's
//!   faults, resets the occurrence counters, and overrides any environment
//!   selection until the returned [`FaultGuard`] drops.
//!
//! For occurrence-counted sites ([`fire`]) the `seed` is the 0-based
//! occurrence ordinal at which the fault starts firing and `count` (default
//! 1, `all` = unbounded) how many consecutive occurrences fire. For keyed
//! sites ([`fire_keyed`] — the ensemble uses the **job index** as the key so
//! the failing scenario is schedule-independent) the same window applies to
//! the caller-provided key instead of an occurrence counter.
//!
//! Hooks are compiled to constant `false` when the crate's `injection`
//! feature (default-on) is disabled, so production builds can opt the
//! branches out entirely.


use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The failure sites the workspace's solvers consult. Each maps to one
/// `<site>` token of the `MAPQN_FAULT` environment selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The revised/dual simplex pivot loop reports iteration exhaustion
    /// (`lp-iterations`).
    LpIterations,
    /// Basis (re)factorization reports an unrecoverable singular basis
    /// (`lp-factorization`).
    LpFactorization,
    /// A sparse steady-state rung abandons its sweep as diverged
    /// (`gs-divergence`).
    GsDivergence,
    /// A cooperative budget check reports wall-clock expiry
    /// (`budget-expiry`).
    BudgetExpiry,
    /// An ensemble scenario fails outright; keyed by **job index**
    /// (`ensemble-scenario`).
    EnsembleScenario,
    /// The mean-field (fluid) engine abandons its damped fixed-point
    /// iteration as non-convergent (`fluid-nonconvergence`).
    FluidFixedPoint,
    /// A planning-session cache entry is corrupted before its integrity
    /// recheck, forcing the quarantine path; keyed by **cache-admission
    /// ordinal** within the session (`cache-poison`).
    CachePoison,
    /// A planning-session request's certified budget is treated as already
    /// expired at admission, forcing the degraded rungs; keyed by
    /// **request ordinal** (`request-timeout`).
    RequestTimeout,
    /// A planning-session circuit breaker is forced open for a request,
    /// routing it straight to the fluid/asymptotic rung; keyed by
    /// **request ordinal** (`session-breaker`).
    SessionBreaker,
}

impl FaultSite {
    /// Every site, for enumeration in tests and CI matrix generation.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::LpIterations,
        FaultSite::LpFactorization,
        FaultSite::GsDivergence,
        FaultSite::BudgetExpiry,
        FaultSite::EnsembleScenario,
        FaultSite::FluidFixedPoint,
        FaultSite::CachePoison,
        FaultSite::RequestTimeout,
        FaultSite::SessionBreaker,
    ];

    /// The `MAPQN_FAULT` token naming this site.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::LpIterations => "lp-iterations",
            FaultSite::LpFactorization => "lp-factorization",
            FaultSite::GsDivergence => "gs-divergence",
            FaultSite::BudgetExpiry => "budget-expiry",
            FaultSite::EnsembleScenario => "ensemble-scenario",
            FaultSite::FluidFixedPoint => "fluid-nonconvergence",
            FaultSite::CachePoison => "cache-poison",
            FaultSite::RequestTimeout => "request-timeout",
            FaultSite::SessionBreaker => "session-breaker",
        }
    }

    /// Parses a `MAPQN_FAULT` site token.
    #[must_use]
    pub fn parse(token: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.name() == token)
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            FaultSite::LpIterations => 0,
            FaultSite::LpFactorization => 1,
            FaultSite::GsDivergence => 2,
            FaultSite::BudgetExpiry => 3,
            FaultSite::EnsembleScenario => 4,
            FaultSite::FluidFixedPoint => 5,
            FaultSite::CachePoison => 6,
            FaultSite::RequestTimeout => 7,
            FaultSite::SessionBreaker => 8,
        }
    }
}

/// One armed fault: fire at `site` for occurrences (or keys) in
/// `[seed, seed + count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which hook fires.
    pub site: FaultSite,
    /// First occurrence ordinal (or key) that fires.
    pub seed: u64,
    /// How many consecutive occurrences (or keys) fire; `u64::MAX` = all.
    pub count: u64,
}

impl FaultSpec {
    #[inline]
    fn fires_at(&self, site: FaultSite, key: u64) -> bool {
        self.site == site && key >= self.seed && key - self.seed < self.count
    }

    /// Parses the `MAPQN_FAULT` selector `<site>:<seed>[:<count>]`
    /// (`count` accepts `all`). Returns `None` for malformed selectors;
    /// [`FaultSpec::parse_checked`] reports *which* token was bad.
    #[must_use]
    pub fn parse(selector: &str) -> Option<FaultSpec> {
        FaultSpec::parse_checked(selector).ok()
    }

    /// Parses the `MAPQN_FAULT` selector `<site>:<seed>[:<count>]`
    /// (`count` accepts `all`), naming the offending token on failure so a
    /// typo'd CI matrix leg dies loudly instead of silently disarming.
    pub fn parse_checked(selector: &str) -> std::result::Result<FaultSpec, ParseFaultError> {
        let bad = |token: &str, expected: &'static str| ParseFaultError {
            selector: selector.to_string(),
            token: token.to_string(),
            expected,
        };
        let mut parts = selector.split(':');
        let site_token = parts.next().unwrap_or_default();
        let site = FaultSite::parse(site_token)
            .ok_or_else(|| bad(site_token, "a fault-site name (e.g. `lp-iterations`)"))?;
        let seed_token = parts
            .next()
            .ok_or_else(|| bad(selector, "`<site>:<seed>[:<count>]`"))?;
        let seed = seed_token
            .trim()
            .parse::<u64>()
            .map_err(|_| bad(seed_token, "an unsigned integer seed"))?;
        let count = match parts.next() {
            None => 1,
            Some("all") => u64::MAX,
            Some(raw) => raw
                .trim()
                .parse::<u64>()
                .map_err(|_| bad(raw, "an unsigned integer count or `all`"))?,
        };
        if let Some(extra) = parts.next() {
            return Err(bad(extra, "no further `:`-separated fields"));
        }
        Ok(FaultSpec { site, seed, count })
    }
}

/// A malformed `MAPQN_FAULT` selector, carrying the exact token that failed
/// to parse and what was expected in its place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError {
    /// The full selector string as supplied.
    pub selector: String,
    /// The token within the selector that failed to parse.
    pub token: String,
    /// What the parser expected the token to be.
    pub expected: &'static str,
}

impl std::fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed MAPQN_FAULT selector {:?}: bad token {:?}, expected {}",
            self.selector, self.token, self.expected
        )
    }
}

impl std::error::Error for ParseFaultError {}

/// Activation state, kept in one byte so the disabled fast path of
/// [`fire`] is a single relaxed load: 0 = environment not yet consulted,
/// 1 = nothing armed, 2 = armed (environment or programmatic override).
static STATE: AtomicU8 = AtomicU8::new(0);

/// Programmatic override installed by [`arm`]; `None` falls through to the
/// environment selection.
static OVERRIDE: Mutex<Option<FaultSpec>> = Mutex::new(None);

/// Per-site occurrence counters for [`fire`]. Reset whenever a guard arms
/// or disarms, so each armed window counts occurrences from zero.
static COUNTERS: [AtomicU64; 9] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Serializes tests that arm faults (and tests that rely on no fault being
/// armed while they observe the environment selection).
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn env_spec() -> Option<FaultSpec> {
    static ENV: OnceLock<Option<FaultSpec>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("MAPQN_FAULT").ok()?;
        match FaultSpec::parse_checked(&raw) {
            Ok(spec) => Some(spec),
            // A malformed selector means the operator *intended* to arm a
            // fault and a CI leg would otherwise run green while testing
            // nothing — die loudly, naming the bad token.
            Err(e) => panic!("mapqn-faults: {e}"),
        }
    })
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn active_spec() -> Option<FaultSpec> {
    if let Some(spec) = *lock_unpoisoned(&OVERRIDE) {
        return Some(spec);
    }
    env_spec()
}

fn refresh_state() {
    let armed = active_spec().is_some();
    STATE.store(if armed { 2 } else { 1 }, Ordering::Release);
}

#[inline]
fn armed() -> bool {
    match STATE.load(Ordering::Acquire) {
        0 => {
            refresh_state();
            STATE.load(Ordering::Acquire) == 2
        }
        2 => true,
        _ => false,
    }
}

fn reset_counters() {
    for counter in &COUNTERS {
        counter.store(0, Ordering::SeqCst);
    }
}

/// Consults the occurrence-counted hook at `site`: `true` means the caller
/// must take its injected failure path. Counting is per site and only
/// advances while a fault is armed, so the `seed`-th consultation after
/// arming is the first to fire.
///
/// Disabled (nothing armed, or the `injection` feature off) this is a
/// single relaxed atomic load — cheap enough for the simplex pivot loop.
#[cfg(feature = "injection")]
#[inline]
#[must_use]
pub fn fire(site: FaultSite) -> bool {
    if !armed() {
        return false;
    }
    fire_counted(site)
}

/// Feature-disabled stub: always `false`, no global state touched.
#[cfg(not(feature = "injection"))]
#[inline]
#[must_use]
pub fn fire(_site: FaultSite) -> bool {
    false
}

#[cfg(feature = "injection")]
fn fire_counted(site: FaultSite) -> bool {
    let Some(spec) = active_spec() else {
        return false;
    };
    if spec.site != site {
        return false;
    }
    let occurrence = COUNTERS[site.index()].fetch_add(1, Ordering::SeqCst);
    spec.fires_at(site, occurrence)
}

/// Consults the **keyed** hook at `site` with a caller-chosen key (the
/// ensemble layer passes the job index, making the failing scenario
/// independent of worker count and scheduling). No occurrence counter is
/// involved: the fault fires whenever `key` falls in the armed window.
#[cfg(feature = "injection")]
#[inline]
#[must_use]
pub fn fire_keyed(site: FaultSite, key: u64) -> bool {
    if !armed() {
        return false;
    }
    active_spec().is_some_and(|spec| spec.fires_at(site, key))
}

/// Feature-disabled stub: always `false`, no global state touched.
#[cfg(not(feature = "injection"))]
#[inline]
#[must_use]
pub fn fire_keyed(_site: FaultSite, _key: u64) -> bool {
    false
}

/// Exclusive access to the fault machinery, returned by [`arm`] and
/// [`exclusive`]. Dropping it disarms the programmatic override, resets
/// the occurrence counters and releases the serialization lock.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *lock_unpoisoned(&OVERRIDE) = None;
        reset_counters();
        refresh_state();
    }
}

/// Arms `site` to fire for occurrences (or keys) in `[seed, seed + count)`,
/// overriding any `MAPQN_FAULT` environment selection until the guard
/// drops. Occurrence counters restart at zero. Holding the guard
/// serializes against every other armed (or [`exclusive`]) section, so
/// concurrently running tests cannot observe each other's faults.
#[must_use]
pub fn arm(site: FaultSite, seed: u64, count: u64) -> FaultGuard {
    let lock = lock_unpoisoned(&TEST_LOCK);
    *lock_unpoisoned(&OVERRIDE) = Some(FaultSpec { site, seed, count });
    reset_counters();
    refresh_state();
    FaultGuard { _lock: lock }
}

/// Takes the serialization lock and resets the occurrence counters
/// *without* overriding the environment selection — for tests that
/// exercise the `MAPQN_FAULT`-driven path end to end (the CI fault matrix)
/// and still need isolation from programmatically arming tests.
#[must_use]
pub fn exclusive() -> FaultGuard {
    let lock = lock_unpoisoned(&TEST_LOCK);
    *lock_unpoisoned(&OVERRIDE) = None;
    reset_counters();
    refresh_state();
    FaultGuard { _lock: lock }
}

/// The currently armed fault, if any (programmatic override first, then
/// the environment selection). Exposed so tests can branch on what the CI
/// matrix armed for their process.
#[must_use]
pub fn current() -> Option<FaultSpec> {
    active_spec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_selectors() {
        assert_eq!(
            FaultSpec::parse("lp-iterations:3"),
            Some(FaultSpec { site: FaultSite::LpIterations, seed: 3, count: 1 })
        );
        assert_eq!(
            FaultSpec::parse("gs-divergence:0:all"),
            Some(FaultSpec { site: FaultSite::GsDivergence, seed: 0, count: u64::MAX })
        );
        assert_eq!(
            FaultSpec::parse("budget-expiry:2:5"),
            Some(FaultSpec { site: FaultSite::BudgetExpiry, seed: 2, count: 5 })
        );
        assert_eq!(
            FaultSpec::parse("cache-poison:1"),
            Some(FaultSpec { site: FaultSite::CachePoison, seed: 1, count: 1 })
        );
        assert_eq!(FaultSpec::parse("nonsense:0"), None);
        assert_eq!(FaultSpec::parse("lp-iterations"), None);
        assert_eq!(FaultSpec::parse("lp-iterations:x"), None);
        assert_eq!(FaultSpec::parse("lp-iterations:0:1:2"), None);
    }

    #[test]
    fn checked_parse_names_the_bad_token() {
        let err = FaultSpec::parse_checked("nonsense:0").unwrap_err();
        assert_eq!(err.token, "nonsense");
        assert!(err.to_string().contains("nonsense"));

        let err = FaultSpec::parse_checked("lp-iterations:x").unwrap_err();
        assert_eq!(err.token, "x");
        assert!(err.to_string().contains("seed"));

        let err = FaultSpec::parse_checked("lp-iterations:0:sometimes").unwrap_err();
        assert_eq!(err.token, "sometimes");

        let err = FaultSpec::parse_checked("lp-iterations:0:1:2").unwrap_err();
        assert_eq!(err.token, "2");

        let err = FaultSpec::parse_checked("session-breaker").unwrap_err();
        assert!(err.to_string().contains("session-breaker"));
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
    }

    #[test]
    fn occurrence_window_fires_deterministically() {
        let _guard = arm(FaultSite::LpFactorization, 1, 2);
        assert!(!fire(FaultSite::LpFactorization)); // occurrence 0
        assert!(fire(FaultSite::LpFactorization)); // 1
        assert!(fire(FaultSite::LpFactorization)); // 2
        assert!(!fire(FaultSite::LpFactorization)); // 3
        // Other sites never fire.
        assert!(!fire(FaultSite::LpIterations));
    }

    #[test]
    fn keyed_window_ignores_occurrence_order() {
        let _guard = arm(FaultSite::EnsembleScenario, 2, 1);
        assert!(!fire_keyed(FaultSite::EnsembleScenario, 0));
        assert!(fire_keyed(FaultSite::EnsembleScenario, 2));
        assert!(fire_keyed(FaultSite::EnsembleScenario, 2)); // keys re-fire
        assert!(!fire_keyed(FaultSite::EnsembleScenario, 3));
        assert!(!fire_keyed(FaultSite::GsDivergence, 2));
    }

    #[test]
    fn disarming_restores_quiet_operation() {
        {
            let _guard = arm(FaultSite::BudgetExpiry, 0, u64::MAX);
            assert!(fire(FaultSite::BudgetExpiry));
        }
        let _guard = exclusive();
        if current().is_none() {
            assert!(!fire(FaultSite::BudgetExpiry));
        }
    }
}

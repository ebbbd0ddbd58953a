//! What every workload shares: configuration, the closed-loop tally, the
//! metric tables and the checks on answers.

use crate::spans::Recorder;
use mapqn_core::bounds::SolverTimings;
use mapqn_core::{BoundInterval, NetworkBounds, NetworkMetrics};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Threads the benchmark may use in total, pool included, on the workloads
/// whose library pools run in parallel.
pub const POOL_WIDTH: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Answers a run needs at least: nearest-rank p90 of 100 samples leaves
/// ten beyond it.
pub const MIN_ANSWERS: usize = 100;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("quoted_error_rel", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("planning.cache_hit_frac", "ratio"),
    ("planning.hit_ms_p50", "ms"),
    ("planning.solve_ms_p50", "ms"),
    ("planning.certified_frac", "ratio"),
    ("planning.quarantines", "count"),
    ("par.busy_frac", "ratio"),
    ("par.speedup", "x"),
    ("bounds.setup_ms", "ms"),
    ("sweep.dual_warm_frac", "ratio"),
    ("sweep.dense_fallbacks", "count"),
    ("lp.phase1_ms", "ms"),
    ("lp.dual_ms", "ms"),
    ("lp.repair_ms", "ms"),
    ("lp.primal_ms", "ms"),
    ("lp.primal_pivots", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.us_per_pivot", "us"),
    ("statespace.build_ms", "ms"),
    ("statespace.states", "count"),
    ("statespace.states_per_s", "1/s"),
    ("sparse_steady.solve_ms", "ms"),
    ("sparse_steady.sweeps", "count"),
    ("sparse_steady.us_per_sweep", "us"),
    ("sparse_steady.residual_max", "abs"),
    ("factored.build_ms", "ms"),
    ("factored.solve_ms", "ms"),
    ("factored.sweeps", "count"),
    ("factored.us_per_sweep", "us"),
    ("solve.attempts_per_answer", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, by the name the command takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batched what-ifs through one `PlanningSession`.
    PlanningStream,
    /// `PopulationSweep::bounds_at` sweeps plus cold certified solves.
    LpSweep,
    /// Exact CTMC answers, materialized and factored.
    CtmcExact,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PlanningStream,
        Workload::LpSweep,
        Workload::CtmcExact,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanningStream => "planning_stream",
            Workload::LpSweep => "lp_sweep",
            Workload::CtmcExact => "ctmc_exact",
        }
    }

    /// Width of every library pool the workload opens. `ctmc_exact` runs
    /// one thread: its sweep rounds meet at a barrier, so with two threads
    /// an answer waits for whichever vCPU of a shared host runs slow at the
    /// time, and the sparse engine is no faster with two at these sizes.
    #[must_use]
    pub fn pool_width(self) -> usize {
        match self {
            Workload::CtmcExact => 1,
            Workload::PlanningStream | Workload::LpSweep => POOL_WIDTH,
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload runs.
    pub workload: Workload,
    /// Seed the inputs are drawn from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Shrink every input to a smoke-test size.
    pub tiny: bool,
    /// Corrupt the answer with this ordinal before it is checked, to prove
    /// the checks catch it.
    pub corrupt_answer: Option<usize>,
}

impl Config {
    /// Answers a run must reach before it may stop.
    #[must_use]
    pub fn min_answers(&self) -> usize {
        if self.tiny {
            1
        } else {
            MIN_ANSWERS
        }
    }

    /// Whether a run that started at `start` and has `answers` answers is
    /// done. Runs stop only between whole passes over their request list.
    #[must_use]
    pub fn done(&self, start: Instant, answers: usize) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds && answers >= self.min_answers()
    }

    /// Flips the last bit of `value` when `ordinal` is the answer chosen to
    /// be corrupted.
    pub fn maybe_corrupt(&self, ordinal: usize, value: &mut f64) {
        if self.corrupt_answer == Some(ordinal) {
            *value = f64::from_bits(value.to_bits() ^ 1);
        }
    }
}

/// A metric as printed: name, value and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    /// Answers attempted.
    pub attempted: usize,
    /// Answers that failed: an error, a failed check, or below the
    /// requested accuracy.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Workload-specific environment entries: key and JSON value.
    pub stamp: Vec<(&'static str, String)>,
    /// The spans of a traced run.
    pub spans: Option<Recorder>,
}

impl Outcome {
    /// Whether every answer passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result as the command's last line: one JSON object with
    /// `correct`, `attempted`, `failed` and every metric with its unit.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Per-answer record of a closed loop.
#[derive(Default)]
pub struct Tally {
    latencies_ms: Vec<f64>,
    quoted_error_sum: f64,
    quoted: usize,
    /// Answers attempted.
    pub attempted: usize,
    /// Answers that failed.
    pub failed: usize,
    /// Sum of the caller-visible time of every library call (a batch call
    /// counts once, however many answers it returns).
    pub call_time: Duration,
}

impl Tally {
    /// Records one answer: the latency the caller saw, the relative error
    /// the answer quotes (`None` when no answer came back), and whether it
    /// passed every check.
    pub fn answer(&mut self, latency: Duration, quoted_error: Option<f64>, ok: bool) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        if let Some(e) = quoted_error {
            self.quoted_error_sum += e;
            self.quoted += 1;
        }
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Answers recorded so far.
    #[must_use]
    pub fn answers(&self) -> usize {
        self.attempted
    }

    /// The end-to-end metrics of an untraced run that measured for `wall`
    /// after set-ups that took `setup`.
    #[must_use]
    pub fn end_to_end(&self, setup: &[Duration], wall: Duration, peak_rss_mb: f64) -> Vec<Metric> {
        let setup_s: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
        let n = self.attempted.max(1) as f64;
        let values = [
            median(&setup_s),
            self.attempted as f64 / wall.as_secs_f64(),
            percentile(&self.latencies_ms, 0.5),
            percentile(&self.latencies_ms, 0.9),
            peak_rss_mb,
            self.quoted_error_sum / self.quoted.max(1) as f64,
            (self.attempted - self.failed) as f64 / n,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// Appends the answers of `other`.
    pub fn absorb(&mut self, other: &Tally) {
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.quoted_error_sum += other.quoted_error_sum;
        self.quoted += other.quoted;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.call_time += other.call_time;
    }

    /// Stamp entries describing the latency sample.
    #[must_use]
    pub fn sample_stamp(&self) -> Vec<(&'static str, String)> {
        let n = self.latencies_ms.len();
        vec![
            ("answers", n.to_string()),
            ("latency_samples", n.to_string()),
            ("samples_beyond_p90", (n - nearest_rank(n, 0.9)).to_string()),
        ]
    }
}

/// One whole pass over a request list: its wall time and its answers.
pub struct Pass {
    /// Wall time of the pass.
    pub wall: Duration,
    /// The pass's answers.
    pub tally: Tally,
}

/// The end-to-end metrics of a run made of whole passes over a fixed
/// request list, with every answer of the run in `all`. The timing metrics
/// come from the faster half of the passes (at least
/// [`MIN_ANSWERS`] answers): on a shared host a slow period only ever adds
/// time, so the faster passes measure the program and the slower ones
/// measure the neighbours. `ok_frac` still counts every answer. Returns the
/// metrics, the timed answers and the number of passes timed.
#[must_use]
pub fn end_to_end_faster_half(
    mut passes: Vec<Pass>,
    all: &Tally,
    setup: &[Duration],
    peak_rss_mb: f64,
) -> (Vec<Metric>, Tally, usize) {
    passes.sort_by_key(|p| p.wall);
    let mut timed = Tally::default();
    let mut wall = Duration::ZERO;
    let mut kept = 0;
    for pass in &passes {
        if kept >= passes.len().div_ceil(2) && timed.answers() >= MIN_ANSWERS {
            break;
        }
        timed.absorb(&pass.tally);
        wall += pass.wall;
        kept += 1;
    }
    let mut metrics = timed.end_to_end(setup, wall, peak_rss_mb);
    if let Some(ok) = metrics.iter_mut().find(|m| m.name == "ok_frac") {
        ok.value = (all.attempted - all.failed) as f64 / all.attempted.max(1) as f64;
    }
    (metrics, timed, kept)
}

/// Fills the per-layer table from `values`; layers without a value report 0.
#[must_use]
pub fn per_layer(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The trace metrics: the layers' self time over the untraced answers'
/// wall time, and how much slower answering ran with tracing on.
pub fn trace_metrics(
    values: &mut BTreeMap<&'static str, f64>,
    rec: &Recorder,
    untraced: Duration,
    untraced_aps: f64,
    traced_aps: f64,
) {
    let layer_ns: u64 = rec.self_time_by_layer().values().sum();
    values.insert(
        "trace.coverage",
        layer_ns as f64 / 1e9 / untraced.as_secs_f64(),
    );
    values.insert("trace.overhead_frac", 1.0 - traced_aps / untraced_aps);
}

/// 1-based nearest rank of quantile `q` among `n` samples.
#[must_use]
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile; 0 for an empty sample.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Median (the lower middle value for an even count); 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Runs `set_up` [`SETUP_REPEATS`] times, keeping the last result and every
/// duration.
///
/// # Errors
/// The first set-up error.
pub fn repeat_setup<S>(
    mut set_up: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<Duration>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(set_up()?);
        times.push(start.elapsed());
    }
    Ok((last.expect("SETUP_REPEATS is positive"), times))
}

/// Peak resident memory of this process, in MiB.
///
/// # Errors
/// When `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Relative half-width of the system-throughput interval: the error an
/// interval answer quotes.
#[must_use]
pub fn interval_error(bounds: &NetworkBounds) -> f64 {
    let x = &bounds.system_throughput;
    let mid = x.midpoint().abs();
    if mid > f64::MIN_POSITIVE {
        x.width() / 2.0 / mid
    } else {
        1.0
    }
}

/// The error an exact answer quotes: the sparse engine's stopping
/// tolerance, so that a loosened tolerance shows and the metric is never 0.
#[must_use]
pub fn exact_error() -> f64 {
    mapqn_markov::SparseSteadyOptions::default().tolerance
}

/// Every interval of `bounds` is finite and ordered.
#[must_use]
pub fn intervals_valid(bounds: &NetworkBounds) -> bool {
    let ok = |i: &BoundInterval| i.lower.is_finite() && i.upper.is_finite() && i.lower <= i.upper;
    bounds
        .throughput
        .iter()
        .chain(&bounds.utilization)
        .chain(&bounds.mean_queue_length)
        .all(ok)
        && ok(&bounds.system_throughput)
        && ok(&bounds.system_response_time)
}

/// Whether two bound sets are bitwise identical.
#[must_use]
pub fn same_bounds(a: &NetworkBounds, b: &NetworkBounds) -> bool {
    let same = |x: &BoundInterval, y: &BoundInterval| {
        x.lower.to_bits() == y.lower.to_bits() && x.upper.to_bits() == y.upper.to_bits()
    };
    let all = |xs: &[BoundInterval], ys: &[BoundInterval]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
    };
    all(&a.throughput, &b.throughput)
        && all(&a.utilization, &b.utilization)
        && all(&a.mean_queue_length, &b.mean_queue_length)
        && same(&a.system_throughput, &b.system_throughput)
        && same(&a.system_response_time, &b.system_response_time)
}

/// Whether two exact solutions are bitwise identical.
#[must_use]
pub fn same_metrics(a: &NetworkMetrics, b: &NetworkMetrics) -> bool {
    let bits = |m: &NetworkMetrics| {
        let mut v: Vec<u64> = m.mean_queue_length.iter().map(|x| x.to_bits()).collect();
        v.extend(m.throughput.iter().map(|x| x.to_bits()));
        v.push(m.system_throughput.to_bits());
        v
    };
    bits(a) == bits(b)
}

/// `|a - b| <= tol * max(|a|, |b|)`.
#[must_use]
pub fn close_rel(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// Jobs are conserved: the mean queue lengths sum to the population.
#[must_use]
pub fn conserves_jobs(metrics: &NetworkMetrics, population: usize) -> bool {
    close_rel(metrics.total_jobs(), population as f64, 1e-8)
}

/// Sums of `SolverTimings` over the LP solves a layer measurement covers.
#[derive(Default)]
pub struct LpTotals {
    solves: usize,
    setup_ns: u64,
    phase1_ns: u64,
    dual_ns: u64,
    repair_ns: u64,
    primal_ns: u64,
    primal_pivots: u64,
    dual_pivots: u64,
}

impl LpTotals {
    /// Adds one solver's lifetime profile.
    pub fn add(&mut self, t: &SolverTimings) {
        self.solves += 1;
        self.setup_ns += t.setup_ns;
        self.phase1_ns += t.phase1_ns;
        self.dual_ns += t.dual_ns;
        self.repair_ns += t.repair_ns;
        self.primal_ns += t.primal_ns;
        self.primal_pivots += t.primal_pivots;
        self.dual_pivots += t.dual_pivots;
    }

    /// `bounds.setup_ms` and the `lp.*` metrics: times are ms per solve,
    /// pivots are totals over the measured solves.
    pub fn insert_metrics(&self, values: &mut BTreeMap<&'static str, f64>) {
        let per_solve_ms = |ns: u64| ns as f64 / 1e6 / self.solves.max(1) as f64;
        values.insert("bounds.setup_ms", per_solve_ms(self.setup_ns));
        values.insert("lp.phase1_ms", per_solve_ms(self.phase1_ns));
        values.insert("lp.dual_ms", per_solve_ms(self.dual_ns));
        values.insert("lp.repair_ms", per_solve_ms(self.repair_ns));
        values.insert("lp.primal_ms", per_solve_ms(self.primal_ns));
        values.insert("lp.primal_pivots", self.primal_pivots as f64);
        values.insert("lp.dual_pivots", self.dual_pivots as f64);
        let pivots = self.primal_pivots + self.dual_pivots;
        if pivots > 0 {
            values.insert(
                "lp.us_per_pivot",
                (self.primal_ns + self.dual_ns) as f64 / 1e3 / pivots as f64,
            );
        }
    }

    /// The phases as child spans for [`Recorder::phases`].
    #[must_use]
    pub fn phases_of(t: &SolverTimings) -> [(&'static str, u64); 6] {
        [
            ("bounds.setup", t.setup_ns),
            ("lp.phase1", t.phase1_ns),
            ("lp.dual", t.dual_ns),
            ("lp.repair", t.repair_ns),
            ("lp.primal", t.primal_ns),
            ("lp.dense", t.dense_ns),
        ]
    }

    /// Stamp entry stating what the LP figures are measured over.
    #[must_use]
    pub fn base(&self, over: &str) -> String {
        format!(
            "\"lp times are ms per solve over {} {over}; pivots are totals\"",
            self.solves
        )
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// A JSON string literal for `s` (quotes and backslashes escaped).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust keeps; non-finite values become
/// `null`.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

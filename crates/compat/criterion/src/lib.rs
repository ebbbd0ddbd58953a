//! Offline stand-in for the subset of the `criterion` crate API used by the
//! `mapqn` workspace.
//!
//! Implements a small wall-clock benchmark harness behind `criterion`'s
//! call-site syntax: `Criterion::benchmark_group`, `sample_size`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Bencher::iter` and
//! the `criterion_group!` / `criterion_main!` macros. Each benchmark runs one
//! warm-up iteration followed by `sample_size` timed samples; a sample
//! repeats the routine until it has run for at least [`MIN_SAMPLE_TIME`] and
//! records the time per iteration, so µs-scale kernels are not dominated by
//! timer overhead. Min / mean / max per iteration go to stdout. A positional
//! argument (`cargo bench --bench kernels -- <name>`) runs only the
//! benchmarks whose `group/id` contains it. Statistical analysis, plots and
//! baselines of the real crate are out of scope.


use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Shortest wall time one sample runs its routine for.
pub const MIN_SAMPLE_TIME: Duration = Duration::from_millis(1);

/// Entry point handed to the functions registered via [`criterion_group!`].
#[derive(Debug, Default)]
pub struct Criterion {
    /// Substring a benchmark's `group/id` must contain to run.
    filter: Option<String>,
}

impl Criterion {
    /// Takes the name filter from the first positional command-line
    /// argument, as `criterion` does (flags such as `--bench` are ignored).
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|arg| !arg.starts_with('-'));
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("benchmark group: {name}");
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: 10,
        }
    }
}

/// Identifier combining a function name and an input parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    rendered: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            rendered: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a benchmark with no explicit input.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(mut bencher) = self.bencher(&id.to_string()) {
            f(&mut bencher);
            bencher.report();
        }
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        if let Some(mut bencher) = self.bencher(&id.to_string()) {
            f(&mut bencher, input);
            bencher.report();
        }
        self
    }

    /// A timer for benchmark `id`, or `None` when the name filter skips it.
    fn bencher(&self, id: &str) -> Option<Bencher> {
        let name = format!("{}/{id}", self.name);
        if let Some(filter) = &self.criterion.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        Some(Bencher {
            name,
            sample_size: self.sample_size,
            samples: Vec::new(),
            iterations: 0,
        })
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Timer handed to the benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    /// `group/id` of the benchmark.
    name: String,
    sample_size: usize,
    /// Time per iteration of each sample.
    samples: Vec<Duration>,
    /// Iterations summed over all samples.
    iterations: u64,
}

impl Bencher {
    /// Times `f`: one warm-up call, then `sample_size` samples, each
    /// calling `f` until it has run for [`MIN_SAMPLE_TIME`].
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        self.samples.clear();
        self.iterations = 0;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            let mut runs = 0u32;
            let elapsed = loop {
                black_box(f());
                runs += 1;
                let elapsed = start.elapsed();
                if elapsed >= MIN_SAMPLE_TIME {
                    break elapsed;
                }
            };
            self.samples.push(elapsed / runs);
            self.iterations += u64::from(runs);
        }
    }

    fn report(&self) {
        let name = &self.name;
        if self.samples.is_empty() {
            println!("  {name}: no samples recorded");
            return;
        }
        let min = self.samples.iter().min().expect("non-empty");
        let max = self.samples.iter().max().expect("non-empty");
        let total: Duration = self.samples.iter().sum();
        let mean = total / self.samples.len() as u32;
        println!(
            "  {name}: min {min:?}  mean {mean:?}  max {max:?}  ({} samples, {} iterations)",
            self.samples.len(),
            self.iterations
        );
    }
}

/// Registers benchmark functions under a group name, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the given groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            // `cargo test`/`cargo bench` pass harness flags like `--bench`,
            // which the name filter skips.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_to", 50u64), &50u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn harness_runs_and_reports() {
        criterion_group!(benches, sample_bench);
        benches();
    }

    #[test]
    fn a_sample_runs_for_the_minimum_time_and_reports_per_iteration() {
        let mut bencher = Bencher {
            name: "shim/count".into(),
            sample_size: 2,
            samples: Vec::new(),
            iterations: 0,
        };
        let mut calls = 0u64;
        bencher.iter(|| calls += 1);
        // One warm-up call, then at least two per sample: a call takes far
        // less than the minimum sample time.
        assert_eq!(calls, 1 + bencher.iterations);
        assert!(bencher.iterations >= 4, "{}", bencher.iterations);
        assert_eq!(bencher.samples.len(), 2);
        assert!(bencher.samples.iter().all(|&s| s < MIN_SAMPLE_TIME));
    }

    #[test]
    fn the_name_filter_skips_other_benchmarks() {
        let mut criterion = Criterion {
            filter: Some("sum_to".into()),
        };
        let mut group = criterion.benchmark_group("shim");
        group.sample_size(1);
        let mut ran = Vec::new();
        group.bench_function("sum", |b| b.iter(|| ran.push("sum")));
        group.bench_with_input(BenchmarkId::new("sum_to", 5u64), &5u64, |b, _| {
            b.iter(|| ran.push("sum_to"));
        });
        assert!(!ran.is_empty() && ran.iter().all(|&name| name == "sum_to"));
    }

    #[test]
    fn benchmark_id_renders_name_and_parameter() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
    }
}

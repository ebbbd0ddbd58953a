//! # mapqn-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation. Each artifact has a runnable binary that prints the same
//! rows/series the paper reports, plus a Criterion benchmark that measures
//! the computational cost of the corresponding pipeline on a reduced
//! configuration:
//!
//! | Paper artifact | Binary | Criterion bench |
//! |----------------|--------|-----------------|
//! | Figure 1 (flow ACFs in TPC-W) | `fig1_tpcw_acf` | `fig1_acf` |
//! | Figure 3 (model vs measurement bars) | `fig3_tpcw_match` | `fig3_tpcw` |
//! | Figure 4 (exact vs decomposition vs ABA) | `fig4_decomposition` | `fig4_tandem` |
//! | Table 1 (random-model error statistics) | `table1_random_models` | `table1_random` |
//! | Figure 8 (case-study bounds) | `fig8_case_study` | `fig8_case_study` |
//! | Ablation (constraint families) | `ablation_constraints` | `ablation_constraints` |
//!
//! The release-scale correctness and timing gates of the solver stack
//! (revised vs dense simplex, dual-warm population sweeps, parallel
//! ensembles, the sparse and implicit CTMC engines, the fluid tier) are
//! tests in `tests/release_gates.rs`, ignored in debug builds; CI runs them
//! with `cargo test --release -p mapqn-bench --test release_gates --
//! --test-threads=1`.
//!
//! All binaries accept the `MAPQN_SCALE` environment variable:
//! `quick` (default, finishes in seconds/minutes on a laptop) or `full`
//! (closer to the paper's original experiment sizes; hours of compute).

/// Experiment scale selected through the `MAPQN_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced configuration for CI / laptop runs (default).
    Quick,
    /// Configuration close to the paper's original experiment sizes.
    Full,
}

impl Scale {
    /// Reads the scale from the environment (`MAPQN_SCALE=quick|full`).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MAPQN_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks between the quick and full value of a parameter.
    #[must_use]
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Simple fixed-width table printer used by all experiment binaries so that
/// their output can be diffed / pasted next to the paper's tables.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must have as many cells as there are headers).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table as a string.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Descriptive statistics used by the Table 1 harness (mean, standard
/// deviation, median, maximum), matching the columns of the paper's table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Mean of the sample.
    pub mean: f64,
    /// Standard deviation (unbiased).
    pub std_dev: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl ErrorStats {
    /// Computes the statistics of a sample (returns zeros for an empty
    /// sample).
    #[must_use]
    pub fn from_sample(sample: &[f64]) -> Self {
        if sample.is_empty() {
            return Self {
                mean: 0.0,
                std_dev: 0.0,
                median: 0.0,
                max: 0.0,
            };
        }
        let n = sample.len() as f64;
        let mean = sample.iter().sum::<f64>() / n;
        let var = if sample.len() > 1 {
            sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            0.5 * (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2])
        };
        let max = sorted.last().copied().unwrap_or(0.0);
        Self {
            mean,
            std_dev: var.sqrt(),
            median,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 10), 1);
        assert_eq!(Scale::Full.pick(1, 10), 10);
    }

    #[test]
    fn table_renders_all_rows_aligned() {
        let mut t = Table::new(&["N", "exact", "bound"]);
        t.add_row(vec!["1".into(), "0.5".into(), "0.6".into()]);
        t.add_row(vec!["2".into(), "0.25".into(), "0.333333".into()]);
        let s = t.render();
        assert!(s.contains("exact"));
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("0.333333"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn error_stats_match_hand_computation() {
        let stats = ErrorStats::from_sample(&[1.0, 2.0, 3.0, 4.0]);
        assert!((stats.mean - 2.5).abs() < 1e-12);
        assert!((stats.median - 2.5).abs() < 1e-12);
        assert!((stats.max - 4.0).abs() < 1e-12);
        assert!((stats.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let empty = ErrorStats::from_sample(&[]);
        assert_eq!(empty.mean, 0.0);
        let single = ErrorStats::from_sample(&[7.0]);
        assert_eq!(single.median, 7.0);
        assert_eq!(single.std_dev, 0.0);
    }
}

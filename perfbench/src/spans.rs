//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each library call: a
//! span holds its name, start, end, parent and the answer it belongs to.
//! Where the library already times its own phases (`SolverTimings`), those
//! phases become child spans laid end to end from the parent's start, so a
//! layer's self time can be read the same way for both kinds.
//!
//! The layer of a span is its name up to the first `.`; spans named
//! `bench.*` are the benchmark's own bookkeeping and belong to no layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The answer this span worked on.
    pub answer: u64,
}

/// Collects spans in memory until the traced run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, answer: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            answer,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        answer: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, answer);
        let out = f();
        self.close(id);
        out
    }

    /// Adds child spans of `parent` for phases the library timed itself,
    /// laid end to end from the parent's start and clipped to its end.
    pub fn phases(&mut self, parent: usize, phases: &[(&'static str, u64)]) {
        let (mut at, end, answer) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.answer)
        };
        for &(name, ns) in phases {
            if ns == 0 {
                continue;
            }
            let stop = at.saturating_add(ns).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                answer,
            });
            at = stop;
        }
    }

    /// Recorded spans, in the order they were opened.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in ns: each span's duration minus the part of
    /// its interval that its children cover. `bench.*` spans are left out.
    #[must_use]
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let layer = layer_of(span.name);
            if layer == "bench" {
                continue;
            }
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry(layer).or_insert(0) += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"answer\":{}}}",
                s.name, s.start_ns, s.end_ns, s.answer
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            Span {
                name: "sweep.bounds_at",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                answer: 0,
            },
            Span {
                name: "lp.primal",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                answer: 0,
            },
            Span {
                name: "lp.dual",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                answer: 0,
            },
            Span {
                name: "bench.answer",
                start_ns: 0,
                end_ns: 500,
                parent: None,
                answer: 1,
            },
        ];
        let by_layer = rec.self_time_by_layer();
        assert_eq!(by_layer["sweep"], 50);
        assert_eq!(by_layer["lp"], 60);
        assert!(!by_layer.contains_key("bench"));
    }
}

//! The benchmark's own checks, at a tiny size: every metric `BENCHMARK.json`
//! names is printed with its unit, and a corrupted answer is caught.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use mapqn_perfbench::harness::{Config, Outcome, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool, corrupt_answer: Option<usize>) -> Outcome {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        tiny: true,
        corrupt_answer,
    };
    mapqn_perfbench::run(&cfg).expect("tiny set-up succeeds")
}

/// `(name, unit)` of every metric listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let list = &body[..body.find(']').expect("section is a list")];
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The string value of `key` in one flat JSON object body.
fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &entry[at..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("closed string");
    rest[open..close].to_string()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_reports() {
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = tiny(workload, trace, None);
            assert!(
                outcome.correct(),
                "{} trace={trace} failed a check",
                workload.name()
            );
            let line = outcome.result_line();
            let wanted = listed(section);
            assert_eq!(outcome.metrics.len(), wanted.len());
            for (name, unit) in wanted {
                let printed = format!("\"{name}\":{{\"value\":");
                let at = line.find(&printed).unwrap_or_else(|| {
                    panic!("{} trace={trace} does not print {name}", workload.name())
                });
                let value_and_unit = &line[at + printed.len()..];
                let close = value_and_unit.find('}').expect("metric object closes");
                assert!(
                    value_and_unit[..close].ends_with(&format!("\"unit\":\"{unit}\"")),
                    "{name} printed without unit {unit}: {line}"
                );
                assert!(!value_and_unit.starts_with("null"), "{name} is not finite");
            }
        }
    }
}

#[test]
fn a_corrupted_answer_fails_its_check() {
    for workload in Workload::ALL {
        let clean = tiny(workload, false, None);
        let corrupted = tiny(workload, false, Some(0));
        assert!(clean.correct());
        assert!(
            !corrupted.correct(),
            "{} missed the corruption",
            workload.name()
        );
        assert!(corrupted.failed >= 1);
        let ok = |o: &Outcome| o.metric("ok_frac").expect("ok_frac is reported").value;
        assert!(ok(&corrupted) < ok(&clean));
    }
}

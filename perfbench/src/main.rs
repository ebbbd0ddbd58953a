//! `mapqn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints an environment stamp, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an answer
//! failed its checks, 2 on bad arguments or a set-up failure.

use mapqn_perfbench::harness::{json_num, json_str, Config, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!("usage: mapqn-perfbench --workload <planning_stream|lp_sweep|ctmc_exact> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad("expected 0 to 3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny: false,
        corrupt_answer: None,
    })
}

/// First `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn stamp_line(cfg: &Config, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut fields = vec![
        ("workload", json_str(cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", json_num(cfg.seconds)),
        ("trace", cfg.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", json_str(&cpu_model())),
        ("commit", json_str(&commit())),
        (
            "setup_runs",
            mapqn_perfbench::harness::SETUP_REPEATS.to_string(),
        ),
    ];
    fields.extend(outcome.stamp.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"stamp\":{{{}}}}}", body.join(","))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    // Every pool the library opens (session batches, sparse sweeps) takes
    // its width from here, so the run uses at most POOL_WIDTH threads.
    std::env::set_var("MAPQN_POOL_THREADS", cfg.workload.pool_width().to_string());
    let outcome = match mapqn_perfbench::run(&cfg) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("{} set-up failed: {msg}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    if let Some(rec) = &outcome.spans {
        let path = PathBuf::from(".bench_out").join(format!(
            "spans-{}-{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {} spans to {}", rec.spans().len(), path.display());
    }
    println!("{}", stamp_line(&cfg, &outcome));
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

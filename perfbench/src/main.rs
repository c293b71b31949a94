//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-tail|serve-patch|plan-fleet> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --print-spec
//! ```
//!
//! Run from the repository root. Prints every metric with its unit and
//! direction and the operations of every phase, writes a snapshot (and,
//! traced, the spans) under `.bench_build/perfbench-runs/`, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits non-zero when any output is wrong or any call
//! into the system fails. See `perfbench/README.md`.

mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use run::{Outcome, Size};
use spec::{Metric, Workload, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = value("--workload")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Output of a command, or `unknown` when it cannot be run.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        // Only the working directory's own repository, if any.
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metrics of `registry` in registry order, as a JSON object of
/// `{"value", "unit"}`; `None` when one was not measured.
fn metrics_json(outcome: &Outcome, registry: &[Metric], with_better: bool) -> Option<String> {
    let mut parts = Vec::with_capacity(registry.len());
    for m in registry {
        let value = outcome.metrics.iter().find(|(n, _)| *n == m.name)?.1;
        if !value.is_finite() {
            return None;
        }
        let better = if with_better {
            format!(", \"better\": \"{}\"", m.better.as_str())
        } else {
            String::new()
        };
        parts.push(format!(
            "{}: {{\"value\": {value}, \"unit\": \"{}\"{better}}}",
            json_str(m.name),
            m.unit
        ));
    }
    Some(format!("{{{}}}", parts.join(", ")))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-spec") {
        print!("{}", spec::render());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    let tracer = Tracer::new(args.trace);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    let outcome = run::run(args.workload, args.seed, args.seconds, &Size::FULL, &tracer);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, 1, 1, "{}"));
            return ExitCode::FAILURE;
        }
    };

    let mut facts: Vec<(String, String)> = [
        ("host_cores", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("default_workers", quantmcu::default_workers().to_string()),
        ("rustc", command_output("rustc", &["-V"])),
        ("commit", command_output("git", &["rev-parse", "HEAD"])),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    facts.extend(outcome.facts.iter().cloned());
    for (k, v) in &facts {
        println!("fact {k}: {v}");
    }
    for (name, ops) in &outcome.phases {
        println!(
            "phase {name}: sent {} ok {} failed {} (mismatched {}, errors {})",
            ops.sent, ops.ok, ops.failed, ops.mismatched, ops.errors
        );
    }
    for m in registry {
        if let Some((_, v)) = outcome.metrics.iter().find(|(n, _)| *n == m.name) {
            println!("metric {} = {v} {} ({} is better)", m.name, m.unit, m.better.as_str());
        }
    }

    let total = outcome.total();
    let metrics = metrics_json(&outcome, registry, false);
    let correct = total.is_clean() && metrics.is_some();
    if total.mismatched > 0 {
        eprintln!("perfbench: {} output(s) differ from their reference", total.mismatched);
    }
    if total.errors > 0 {
        eprintln!("perfbench: {} call(s) into the system returned an error", total.errors);
    }
    let snapshot = format!(
        "{{\"workload\": {}, \"trace\": {}, \"facts\": {{{}}}, \"phases\": {{{}}}, \"metrics\": {}}}\n",
        json_str(args.workload.name),
        args.trace,
        facts.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect::<Vec<_>>().join(", "),
        outcome
            .phases
            .iter()
            .map(|(n, o)| format!(
                "{}: {{\"sent\": {}, \"ok\": {}, \"failed\": {}, \"mismatched\": {}, \"errors\": {}}}",
                json_str(n),
                o.sent,
                o.ok,
                o.failed,
                o.mismatched,
                o.errors
            ))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&outcome, registry, true).unwrap_or_else(|| "null".into())
    );
    let dir = Path::new(".bench_build").join("perfbench-runs");
    let stem = format!("{}-seed{}-trace{}", args.workload.name, args.seed, args.trace as u8);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), snapshot))
        .and_then(|()| {
            if args.trace {
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), tracer.to_jsonl())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the snapshot: {e}");
    }
    println!(
        "{}",
        result_line(correct, total.sent, total.failed, &metrics.unwrap_or_else(|| "{}".into()))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;

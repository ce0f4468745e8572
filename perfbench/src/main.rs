//! The VGBL benchmark.
//!
//! ```text
//! vgbl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates the workload's inputs from the seed, drives them through
//! the public `vgbl` entry points for the given seconds, checks every
//! output, and prints a table of metrics followed, as the last line, by
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced
//! runs (`--trace 1`) report the per-layer metrics and write their
//! spans and layer table under `--out` (default `.bench_out`).
//! See `README.md` beside this file for what each metric means.

mod catalog;
mod heap;
mod inputs;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{END_TO_END, PER_LAYER};
use inputs::Size;
use spans::Spans;
use workloads::{Ctx, Outcome, Workload};

const USAGE: &str = "usage: vgbl-perfbench --workload <learner_churn|fleet_e2e> \
--seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.0..=600.0).contains(&s)) {
                    return Err("--seconds must be within 0..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Runs one workload and returns its outcome, with the metric list of
/// the run's mode checked complete and finite.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> (Outcome, Spans) {
    let mut ctx = Ctx {
        seed,
        seconds,
        trace,
        size,
        spans: Spans::new(trace, "workload"),
    };
    let mut out = workloads::run(workload, &mut ctx);
    ctx.spans.finish();
    if trace {
        let rows: u64 = ctx.spans.layer_table().iter().map(|r| r.1).sum();
        if rows != ctx.spans.wall_ns() {
            out.problems.push(format!(
                "layer rows sum to {rows} ns, wall is {} ns",
                ctx.spans.wall_ns()
            ));
        }
    }
    for (name, _) in declared(trace) {
        match out.metrics.iter().find(|(n, _)| n == name) {
            None => out.problems.push(format!("metric {name} was not measured")),
            Some((_, v)) if !v.is_finite() => out.problems.push(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    out.correct = out.problems.is_empty();
    (out, ctx.spans)
}

/// The metrics a run of this mode reports.
fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn value_of(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| if v.is_finite() { *v } else { 0.0 })
}

/// The human-readable table: every measured metric, its unit and base.
fn table(out: &Outcome) -> String {
    let mut s = format!("{:<30} {:>16} {:<6} base\n", "metric", "value", "unit");
    for (name, value) in &out.metrics {
        let unit = catalog::unit_of(name).unwrap_or("");
        let base: Vec<&str> = out
            .bases
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, b)| b.as_str())
            .collect();
        let _ = writeln!(s, "{name:<30} {value:>16.6} {unit:<6} {}", base.join("; "));
    }
    s
}

/// The result line.
fn json(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = declared(trace)
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value_of(out, name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    heap::keep_freed();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut out, spans) = measure(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::full(),
    );
    if args.trace {
        let dir = args
            .out
            .join(format!("{}-seed{}", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("spans.jsonl"), spans.to_jsonl()))
            .and_then(|()| std::fs::write(dir.join("layers.txt"), spans.layer_table_text()));
        match written {
            Ok(()) => println!("spans and layer table written to {}", dir.display()),
            Err(e) => {
                out.problems.push(format!("writing {}: {e}", dir.display()));
                out.correct = false;
            }
        }
        println!(
            "\nlayer table ({}, seed {}):\n{}",
            args.workload.name(),
            args.seed,
            spans.layer_table_text()
        );
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{} seed {} ({}): {} attempted, {} failed\n{}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed,
        table(&out)
    );
    println!("{}", json(&out, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(
                doc.contains(&format!("\"name\": \"{}\"", w.name())),
                "{} undeclared",
                w.name()
            );
        }
        let declared = doc.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "fleet_e2e",
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .expect("valid args");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::FleetE2e, 7, 10.0, true)
        );
        assert!(parse_args(["--workload", "nope"].map(String::from)).is_err());
        assert!(parse_args(["--seed", "1"].map(String::from)).is_err());
    }

    /// Every workload, traced and untraced, at smoke size: all checks
    /// pass, every declared metric is emitted with its unit, and every
    /// ratio prints its numerator and denominator.
    #[test]
    fn every_workload_emits_every_metric_at_smoke_size() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let (out, spans) = measure(w, 11, 0.0, trace, Size::smoke());
                assert!(
                    out.correct,
                    "{} trace={trace}: {:?}",
                    w.name(),
                    out.problems
                );
                assert!(out.attempted > 0);
                let line = json(&out, trace);
                for (name, unit) in declared(trace) {
                    let entry = format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        value_of(&out, name)
                    );
                    assert!(line.contains(&entry), "{} lacks {entry}", w.name());
                }
                let printed = table(&out);
                for (ratio, num, den) in catalog::RATIOS {
                    if !trace && !out.metrics.iter().any(|(n, _)| n == ratio) {
                        continue;
                    }
                    let (r, n, d) = (
                        value_of(&out, ratio),
                        value_of(&out, num),
                        value_of(&out, den),
                    );
                    assert_eq!(r, stats::ratio(n, d), "{} {ratio}", w.name());
                    assert!(
                        printed.contains(&format!("= {n} / {d}")),
                        "{ratio} base not printed"
                    );
                }
                if trace {
                    let rows: u64 = spans.layer_table().iter().map(|r| r.1).sum();
                    assert_eq!(rows, spans.wall_ns());
                    assert!(spans
                        .layer_table()
                        .iter()
                        .any(|r| r.0 == spans::UNATTRIBUTED));
                }
            }
        }
    }

    /// Counts are functions of the seed alone: two traced runs of one
    /// seed report every count, and every ratio of counts, identically.
    #[test]
    fn counts_repeat_exactly_across_runs() {
        let counted = |out: &Outcome| -> Vec<(&'static str, f64)> {
            let mut v: Vec<_> = out
                .metrics
                .iter()
                .filter(|(n, _)| {
                    catalog::unit_of(n) == Some("count")
                        || catalog::RATIOS.iter().any(|r| r.0 == *n)
                })
                .filter(|(n, _)| !n.starts_with("sessions.") && *n != "failed_share")
                .copied()
                .collect();
            v.sort_by(|a, b| a.0.cmp(b.0));
            v
        };
        for w in Workload::ALL {
            let (a, _) = measure(w, 5, 0.0, true, Size::smoke());
            let (b, _) = measure(w, 5, 0.0, true, Size::smoke());
            assert!(a.correct && b.correct);
            assert_eq!(counted(&a), counted(&b), "{}", w.name());
        }
    }
}

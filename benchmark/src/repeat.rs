//! `--check-repeat`: holds two sets of plain runs of the same code and
//! seed against the bounds in `BENCHMARK.json`, and a third set from
//! another seed against the output checks. `check_repeat.sh` drives it.

use crate::catalog::Catalog;
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The record of `workload`'s plain run in `dir`.
fn record(dir: &Path, workload: &str) -> Result<Value, String> {
    let prefix = format!("{workload}-plain-");
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            return load(&entry.path());
        }
    }
    Err(format!("no {prefix}*.json in {}", dir.display()))
}

fn check(args: &[String], catalog: &Catalog) -> Result<bool, String> {
    let [first, second, rest @ ..] = args else {
        return Err("--check-repeat <first dir> <second dir> [<other-seed dir>...]".into());
    };
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for name in &catalog.workloads {
        let (a, b) = (
            record(Path::new(first), name)?,
            record(Path::new(second), name)?,
        );
        for run in [&a, &b] {
            if run["result"]["correct"].as_bool() != Some(true) {
                println!("{name}: output checks failed: {}", run["errors"]);
                ok = false;
            }
        }
        for metric in &catalog.end_to_end {
            let metric_name = metric.name.as_str();
            let bound = metric.bound.ok_or("end-to-end metric without a bound")?;
            let value = |run: &Value| {
                run["result"]["metrics"][metric_name]["value"]
                    .as_f64()
                    .ok_or_else(|| format!("{name}: no {metric_name}"))
            };
            let (x, y) = (value(&a)?, value(&b)?);
            let spread = (x - y).abs() / ((x + y) / 2.0);
            let verdict = if spread > bound {
                ok = false;
                "  DISAGREE"
            } else {
                ""
            };
            println!(
                "{name:<14} {metric_name:<18} {x:>14.4} {y:>14.4} {:>7.1}% {:>6.0}%{verdict}",
                spread * 100.0,
                bound * 100.0
            );
        }
        for other in rest {
            let run = record(Path::new(other), name)?;
            let correct = run["result"]["correct"].as_bool() == Some(true);
            println!(
                "{name:<14} seed {} output checks {}",
                run["seed"].as_u64().unwrap_or(0),
                if correct { "pass" } else { "FAIL" }
            );
            if !correct {
                println!("{name}: {}", run["errors"]);
                ok = false;
            }
        }
    }
    Ok(ok)
}

pub fn main(args: &[String], catalog: &Catalog) -> ExitCode {
    match check(args, catalog) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

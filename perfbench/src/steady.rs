//! Steadiness mode: runs workloads repeatedly with different seeds and
//! prints each end-to-end metric's median, quartiles and spread against
//! the bound `BENCHMARK.json` gives it.

use std::process::Command;

use serde::Value;

use crate::gen::Workload;
use crate::stats::quartiles;
use crate::Args;

/// End-to-end metric bounds from `BENCHMARK.json` at the checkout root.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect())
}

/// One child run's `metrics` object (its last stdout line).
fn one_run(args: &Args, workload: Workload, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--engine")
        .arg(&args.engine)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{} seed {seed}: no result ({e})", workload.name()))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed} failed its checks:\n{stdout}",
            workload.name()
        ));
    }
    result
        .get("metrics")
        .cloned()
        .ok_or_else(|| "result without metrics".to_owned())
}

/// Runs each workload `runs` times (seeds 1..=runs) and prints the
/// spread table.  Spread is `(q3 - q1) / median`; a metric is outside
/// when it exceeds its bound.
pub fn run(args: &Args, runs: usize) -> Result<(), String> {
    let bounds = bounds()?;
    let workloads: Vec<Workload> = args
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut outside = 0;
    for workload in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
        for seed in 1..=runs as u64 {
            let metrics = one_run(args, workload, seed)?;
            for ((name, _), column) in bounds.iter().zip(&mut values) {
                let value = metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{} lacks {name}", workload.name()))?;
                column.push(value);
            }
            eprintln!("{} seed {seed} done", workload.name());
        }
        println!("{} ({runs} runs, seeds 1..={runs})", workload.name());
        println!(
            "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for ((name, bound), column) in bounds.iter().zip(&values) {
            let [q1, q2, q3] = quartiles(column).ok_or("steadiness needs two runs or more")?;
            let spread = (q3 - q1) / q2;
            let mark = if spread > *bound {
                outside += 1;
                "OUTSIDE"
            } else if spread > bound / 3.0 {
                "over a third"
            } else {
                ""
            };
            println!(
                "  {name:<18} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6} {mark}"
            );
        }
    }
    if outside > 0 {
        return Err(format!("{outside} metric(s) outside their bound"));
    }
    Ok(())
}

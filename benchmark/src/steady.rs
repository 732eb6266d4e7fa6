//! Steadiness mode: runs one workload in `runs` child processes (seeds
//! 1..=runs, one process each so every run's peak RSS is its own) and
//! prints each metric's quartiles and spread, the figures the bounds in
//! `BENCHMARK.json` and the README's reference numbers come from.

use std::process::{Command, ExitCode, Stdio};

use ddsc_util::Json;

use crate::stats;

pub fn run(workload: &str, runs: usize, seconds: f64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ddsc-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failed_shares = Vec::new();
    for seed in 1..=runs {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output();
        let line = match &out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .unwrap_or("")
                .to_string(),
            Ok(o) => {
                eprintln!("ddsc-benchmark: seed {seed} exited with {}", o.status);
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("ddsc-benchmark: seed {seed} did not start: {e}");
                return ExitCode::from(2);
            }
        };
        let Ok(doc) = Json::parse(&line) else {
            eprintln!("ddsc-benchmark: seed {seed} printed no result line");
            return ExitCode::from(1);
        };
        println!("seed {seed}: {line}");
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        failed_shares.push(num("failed") / num("attempted").max(1.0));
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap_or(&[]);
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            match series.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, v)) => v.push(value),
                None => series.push((name.clone(), unit, vec![value])),
            }
        }
    }
    println!("{workload}: {runs} runs of {seconds} s, failed share per run {failed_shares:?}");
    println!(
        "{:<26} {:>6} {:>12} {:>12} {:>12} {:>8}",
        "metric", "unit", "q1", "median", "q3", "spread"
    );
    for (name, unit, values) in &series {
        let (q1, med, q3) = stats::quartiles(values);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("{name:<26} {unit:>6} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4}");
    }
    ExitCode::SUCCESS
}

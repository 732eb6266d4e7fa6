//! The ddsc benchmark: runs one named workload against the repo's
//! crates, checks its outputs against oracles computed apart from the
//! timed path, and prints one JSON line of metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload grid|stream|serve|dist --seed N --seconds S --trace 0|1
//!     [--steady RUNS]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md`). `--steady RUNS` re-runs the workload in RUNS
//! child processes with seeds 1..=RUNS and prints each metric's
//! quartiles.

mod dist;
mod grid;
mod oracle;
mod serve;
mod spans;
mod stats;
mod steady;
mod stream;

use std::process::ExitCode;
use std::time::Instant;

use spans::Tracer;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_mips", "MIPS"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run prints, with units. A layer
/// a workload never calls reads 0 on that workload (see README.md for
/// which workload sets which metric).
pub const PER_LAYER: [(&str, &str); 31] = [
    ("vm.trace_s", "s"),
    ("vm.fill_s", "s"),
    ("prepass.build_s", "s"),
    ("prepass.verdict_s", "s"),
    ("prepass.stream_push_s", "s"),
    ("sim.loop_s.A", "s"),
    ("sim.loop_s.B", "s"),
    ("sim.loop_s.C", "s"),
    ("sim.loop_s.D", "s"),
    ("sim.loop_s.E", "s"),
    ("sim.ns_per_inst", "ns"),
    ("sim.collapse_cost_ratio", "ratio"),
    ("stream.loop_s", "s"),
    ("stream.whole_ratio", "ratio"),
    ("lab.efficiency", "ratio"),
    ("lab.render_s", "s"),
    ("lab.traces_rss_mib", "MiB"),
    ("lab.prepared_rss_mib", "MiB"),
    ("store.install_ms", "ms"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.stats_rtt_ms", "ms"),
    ("serve.simulated", "count"),
    ("serve.deduped", "count"),
    ("serve.front_share", "ratio"),
    ("dist.compute_s", "s"),
    ("dist.idle_s", "s"),
    ("dist.efficiency", "ratio"),
    ("dist.spot_checked", "count"),
    ("dist.redispatched", "count"),
    ("trace.overhead", "ratio"),
];

/// Host threads the workloads compute on (the host has two cores).
pub const THREADS: usize = 2;

/// What one run of a workload is asked to do.
pub struct Ctx {
    /// The workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Corrupt one output before the oracles check it (the tests use
    /// this to show that every oracle can fail a run).
    pub perturb: bool,
    /// Scratch directory inside the checkout for run dirs and spans.
    pub scratch: std::path::PathBuf,
    /// Span recorder for traced rounds.
    pub tracer: Tracer,
    /// Disabled recorder for untraced rounds.
    pub off: Tracer,
}

impl Ctx {
    /// The recorder for round `i`: a traced run alternates untraced
    /// (even) and traced (odd) rounds so the difference between the two
    /// is the tracing overhead.
    pub fn tracer_for(&self, i: usize) -> &Tracer {
        if self.traced && i % 2 == 1 {
            &self.tracer
        } else {
            &self.off
        }
    }

    /// Whether round `i`, starting `elapsed` seconds into the measured
    /// phase, should run: at least one round (two in a traced run, so
    /// both kinds occur), then until time is up.
    pub fn more_rounds(&self, i: usize, elapsed: f64) -> bool {
        i < 1 + usize::from(self.traced) || elapsed < self.seconds
    }
}

/// A workload's result: operations attempted and failed, plus metrics
/// by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["grid", "stream", "serve", "dist"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be grid, stream, serve or dist (got `{}`)",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    match workload {
        "grid" => grid::run(ctx, &grid::Scale::default()),
        "stream" => stream::run(ctx, &stream::Scale::default()),
        "serve" => serve::run(ctx, &serve::Scale::default()),
        "dist" => dist::run(ctx, &dist::Scale::default()),
        _ => unreachable!("validated in parse_args"),
    }
}

/// Renders the result line of a run whose oracles passed: the metrics
/// of the requested kind, each with its unit.
fn render(report: &Report, traced: bool) -> String {
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = report.get(name).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ddsc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady::run(&args.workload, runs, args.seconds, args.trace);
    }
    // Both compute paths that read it (the Lab's pool) stay within the
    // host's two cores; the serve and dist workloads size their own
    // pools to THREADS.
    std::env::set_var("DDSC_THREADS", THREADS.to_string());
    let scratch = std::path::PathBuf::from(".bench_run").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("ddsc-benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let t0 = Instant::now();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        perturb: false,
        scratch: scratch.clone(),
        tracer: Tracer::new(true),
        off: Tracer::new(false),
    };
    let outcome = run_workload(&ctx, &args.workload);
    if args.trace {
        let path = scratch.with_extension("spans.jsonl");
        if let Err(e) = ctx.tracer.write(&path) {
            eprintln!(
                "ddsc-benchmark: cannot write spans to {}: {e}",
                path.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!(
        "ddsc-benchmark: {} seed {} finished in {:.1} s",
        args.workload,
        args.seed,
        t0.elapsed().as_secs_f64()
    );
    match outcome {
        Ok(report) => {
            println!("{}", render(&report, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            // No result line: a run whose outputs are wrong has no
            // metrics worth reading.
            eprintln!("ddsc-benchmark: oracle failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// Current resident set (`VmRSS`) in MiB; 0 where unavailable.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    ddsc_util::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A context for in-process workload tests, with its own scratch
    /// directory under the package's `target/`.
    pub fn ctx(seconds: f64, traced: bool, perturb: bool) -> Ctx {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let scratch = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-scratch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        Ctx {
            seed: 11,
            seconds,
            traced,
            perturb,
            scratch,
            tracer: Tracer::new(true),
            off: Tracer::new(false),
        }
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let mut r = Report::default();
        r.attempted = 3;
        r.set("sim_mips", 1.5);
        let line = render(&r, false);
        let doc = ddsc_util::Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.keys().len(), END_TO_END.len());
        let m = metrics.get("sim_mips").unwrap();
        assert_eq!(m.get("value").and_then(ddsc_util::Json::as_f64), Some(1.5));
        assert_eq!(
            m.get("unit").and_then(ddsc_util::Json::as_str),
            Some("MIPS")
        );
        let traced = ddsc_util::Json::parse(&render(&r, true)).unwrap();
        assert_eq!(traced.get("metrics").unwrap().keys().len(), PER_LAYER.len());
    }
}

//! `stream`: the paper-scale convergence cell (li, configuration D,
//! width 8) streamed from the workload VM through `simulate_stream`,
//! with no whole-trace prepass and no `Lab`.
//!
//! Each round builds the VM (the set-up) and streams the cell once. An
//! operation is one chunk pulled from the VM; its latency is the time
//! between successive pulls, i.e. generating and simulating one chunk.
//! Every round streams the same instructions, so each chunk is timed
//! once per round and the metrics use its fastest time: the host
//! switches between a fast and a ~1.8x slower mode every few seconds,
//! which moves any median, while the fastest repeat of the same work
//! stays put.

use std::time::Instant;

use ddsc_core::{
    simulate_prepared, simulate_stream, PaperConfig, PreparedTrace, SimConfig, SimResult,
    StreamingPrepass, DEFAULT_CHUNK_SIZE,
};
use ddsc_trace::{SourceError, TraceInst, TraceSource};
use ddsc_workloads::Benchmark;

use crate::spans::{SpanId, Tracer, ROOT};
use crate::{oracle, stats, Ctx, Report};

pub struct Scale {
    /// Instructions streamed per round.
    pub len: usize,
    /// Length of the oracle and whole-trace comparison runs: short
    /// enough for the whole trace and the reference simulator to hold.
    pub check_len: usize,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            len: 5_000_000,
            check_len: 300_000,
        }
    }
}

const BENCH: Benchmark = Benchmark::Li;
const CONFIG: PaperConfig = PaperConfig::D;
const WIDTH: u32 = 8;
/// A second chunk size for the chunk-invariance oracle: prime, so chunk
/// boundaries fall elsewhere than with the default.
const ODD_CHUNK: usize = 997;

/// A source wrapper that records when each chunk is pulled and, in a
/// traced round, spans each pull.
struct Pulls<'a, S> {
    src: S,
    tr: &'a Tracer,
    parent: SpanId,
    starts: Vec<Instant>,
}

impl<S: TraceSource> TraceSource for Pulls<'_, S> {
    fn name(&self) -> &str {
        self.src.name()
    }

    fn fill(&mut self, out: &mut Vec<TraceInst>, max: usize) -> Result<usize, SourceError> {
        self.starts.push(Instant::now());
        self.tr
            .time("vm.fill", self.parent, |_| self.src.fill(out, max))
    }
}

fn streamed(seed: u64, len: usize, config: &SimConfig, chunk: usize) -> Result<SimResult, String> {
    simulate_stream(&mut BENCH.source(seed, len), config, chunk).map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx, scale: &Scale) -> Result<Report, String> {
    let config = SimConfig::paper(CONFIG, WIDTH);
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Fastest time of each chunk (same instructions every round) over
    // the untraced rounds.
    let mut chunk_s: Vec<f64> = Vec::new();
    let mut first: Option<SimResult> = None;
    let mut push_s = Vec::new();
    let t_run = Instant::now();
    let mut round = 0;
    while ctx.more_rounds(round, t_run.elapsed().as_secs_f64()) {
        let tr = ctx.tracer_for(round);
        let t0 = Instant::now();
        let src = BENCH.source(ctx.seed, scale.len);
        setups.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let run = tr.begin("stream.run", ROOT, None);
        let mut pulls = Pulls {
            src,
            tr,
            parent: run,
            starts: Vec::new(),
        };
        let result = simulate_stream(&mut pulls, &config, DEFAULT_CHUNK_SIZE);
        tr.end(run);
        let wall = t1.elapsed().as_secs_f64();
        let result = result.map_err(|e| format!("round {round}: {e}"))?;
        walls[usize::from(tr.is_on())].push(wall);
        if !tr.is_on() {
            let end = std::iter::once(Instant::now());
            let starts: Vec<Instant> = pulls.starts.iter().copied().chain(end).collect();
            let gaps = starts.windows(2).map(|w| (w[1] - w[0]).as_secs_f64());
            if chunk_s.is_empty() {
                chunk_s = gaps.collect();
            } else {
                for (best, g) in chunk_s.iter_mut().zip(gaps) {
                    *best = best.min(g);
                }
            }
        }
        report.attempted += scale.len as u64;

        oracle::counts(&format!("round {round}"), &result, scale.len as u64)?;
        match &first {
            None => first = Some(result),
            Some(r0) => oracle::same(&format!("round {round} vs round 0"), &result, r0)?,
        }
        if tr.is_on() {
            push_s.push(push_only(ctx.seed, scale.len, &config));
        }
        round += 1;
    }
    let peak = crate::peak_rss_mib();
    report.attempted += 2 * scale.check_len as u64;
    check(ctx, scale, &config)?;

    let best_s: f64 = chunk_s.iter().sum();
    let chunk_ms: Vec<f64> = chunk_s.iter().map(|s| s * 1e3).collect();
    report.set("sim_mips", scale.len as f64 / best_s / 1e6);
    report.set("req_per_s", chunk_s.len() as f64 / best_s);
    report.set("latency_p50_ms", stats::median(&chunk_ms));
    report.set("latency_tail_ms", stats::tail(&chunk_ms).0);
    report.set("setup_s", stats::median(&setups));
    report.set("peak_rss_mib", peak);

    if ctx.traced {
        let tr = &ctx.tracer;
        let rounds = walls[1].len() as f64;
        report.set("vm.fill_s", tr.total("vm.fill") / rounds);
        report.set("stream.loop_s", tr.self_total("stream.run") / rounds);
        report.set("prepass.stream_push_s", stats::median(&push_s));
        report.set(
            "stream.whole_ratio",
            whole_ratio(ctx.seed, scale.check_len * 4, &config),
        );
        let overhead = stats::median(&walls[1]) / stats::median(&walls[0]) - 1.0;
        report.set("trace.overhead", overhead);
    }
    Ok(report)
}

/// The stream layers, measured for another workload's traced run: one
/// streamed round of `len` instructions with a span per pull, the
/// streaming prepass alone over the same instructions, and the
/// streamed-over-whole-trace ratio.
pub fn layers(seed: u64, len: usize, tr: &Tracer, report: &mut Report) -> Result<(), String> {
    let config = SimConfig::paper(CONFIG, WIDTH);
    let run = tr.begin("stream.run", ROOT, None);
    let mut pulls = Pulls {
        src: BENCH.source(seed, len),
        tr,
        parent: run,
        starts: Vec::new(),
    };
    let result = simulate_stream(&mut pulls, &config, DEFAULT_CHUNK_SIZE);
    tr.end(run);
    let result = result.map_err(|e| format!("traced stream round: {e}"))?;
    oracle::counts("traced stream round", &result, len as u64)?;
    report.set("vm.fill_s", tr.total("vm.fill"));
    report.set("stream.loop_s", tr.self_total("stream.run"));
    report.set("prepass.stream_push_s", push_only(seed, len, &config));
    report.set(
        "stream.whole_ratio",
        whole_ratio(seed, len.min(1_200_000), &config),
    );
    Ok(())
}

/// The stream oracles at a length the whole trace can hold: the
/// streamed result equals the frozen reference simulator's, and is
/// unchanged under a second chunk size.
fn check(ctx: &Ctx, scale: &Scale, config: &SimConfig) -> Result<(), String> {
    let trace = BENCH
        .trace(ctx.seed, scale.check_len)
        .map_err(|e| format!("workload faulted: {e}"))?;
    // A perturbed run hands the oracle a result streamed from the wrong cell.
    let streamed_config = if ctx.perturb {
        SimConfig::paper(CONFIG, WIDTH * 2)
    } else {
        *config
    };
    let by_default = streamed(
        ctx.seed,
        scale.check_len,
        &streamed_config,
        DEFAULT_CHUNK_SIZE,
    )?;
    oracle::counts("streamed check cell", &by_default, scale.check_len as u64)?;
    oracle::matches_reference("streamed check cell", &by_default, &trace, config)?;
    let by_odd = streamed(ctx.seed, scale.check_len, config, ODD_CHUNK)?;
    oracle::same("chunk 997 vs default chunk", &by_odd, &by_default)
}

/// Seconds the streaming prepass spends analysing and evicting one
/// round's instructions, pulled from the VM outside the timer.
fn push_only(seed: u64, len: usize, config: &SimConfig) -> f64 {
    let mut src = BENCH.source(seed, len);
    let mut prep = StreamingPrepass::new(config);
    let mut buf = Vec::with_capacity(DEFAULT_CHUNK_SIZE);
    let mut seconds = 0.0;
    loop {
        buf.clear();
        match src.fill(&mut buf, DEFAULT_CHUNK_SIZE) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let t = Instant::now();
        // Keep one chunk of columns behind the newest, as the timing
        // loop's window would.
        prep.evict_to(prep.len().saturating_sub(DEFAULT_CHUNK_SIZE));
        for inst in &buf {
            prep.push(inst);
        }
        seconds += t.elapsed().as_secs_f64();
    }
    seconds
}

/// Host time of the streamed cell over the whole-trace path (trace,
/// prepass, timing loop) at a length both can hold, fastest of three
/// each.
fn whole_ratio(seed: u64, len: usize, config: &SimConfig) -> f64 {
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let stream_s = best(&|| {
        streamed(seed, len, config, DEFAULT_CHUNK_SIZE).expect("checked above");
    });
    let whole_s = best(&|| {
        let trace = BENCH.trace(seed, len).expect("checked above");
        simulate_prepared(&PreparedTrace::build(&trace), config);
    });
    stream_s / whole_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scale {
        Scale {
            len: 20_000,
            check_len: 5_000,
        }
    }

    #[test]
    fn a_short_stream_passes_its_oracles() {
        let ctx = crate::tests::ctx(0.0, true, false);
        let report = run(&ctx, &small()).unwrap();
        assert!(report.get("sim_mips").unwrap() > 0.0);
        assert!(report.get("vm.fill_s").unwrap() > 0.0);
    }

    #[test]
    fn a_result_streamed_from_the_wrong_cell_fails_the_run() {
        let ctx = crate::tests::ctx(0.0, false, true);
        let err = run(&ctx, &small()).unwrap_err();
        assert!(err.contains("simulate_reference"), "{err}");
    }
}

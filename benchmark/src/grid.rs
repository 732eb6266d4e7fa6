//! `grid`: the paper's `repro all` grid through the `Lab` at two
//! threads, rendering included.
//!
//! Each round sets up from nothing (six traces, prepass, verdict
//! streams), then times one full pass: prewarm of every cell and the
//! rendering of every paper artifact. Traced rounds drive the same
//! cells through `Lab::result` from two threads so each cell gets its
//! own span.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ddsc_core::{analyze_dataflow, PaperConfig, SimConfig, SimResult};
use ddsc_experiments::parallel::par_map;
use ddsc_experiments::{render_all, Cell, Lab, Suite, SuiteConfig};
use ddsc_workloads::Benchmark;

use crate::spans::{SpanId, Tracer, ROOT};
use crate::{oracle, stats, Ctx, Report, THREADS};

pub struct Scale {
    /// Instructions per benchmark trace.
    pub len: usize,
    pub widths: Vec<u32>,
    /// Cells compared with the frozen reference simulator per run.
    pub reference_cells: usize,
    /// Instructions of the traced run's streamed li D/8 round.
    pub stream_len: usize,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            len: 300_000,
            widths: SimConfig::PAPER_WIDTHS.to_vec(),
            reference_cells: 3,
            stream_len: 2_000_000,
        }
    }
}

/// Span name of one cell's timing loop, per configuration.
pub fn loop_span(c: PaperConfig) -> &'static str {
    match c {
        PaperConfig::A => "sim.loop.A",
        PaperConfig::B => "sim.loop.B",
        PaperConfig::C => "sim.loop.C",
        PaperConfig::D => "sim.loop.D",
        PaperConfig::E => "sim.loop.E",
    }
}

/// Per-layer metric name of a configuration's summed loop time.
pub fn loop_metric(c: PaperConfig) -> &'static str {
    match c {
        PaperConfig::A => "sim.loop_s.A",
        PaperConfig::B => "sim.loop_s.B",
        PaperConfig::C => "sim.loop_s.C",
        PaperConfig::D => "sim.loop_s.D",
        PaperConfig::E => "sim.loop_s.E",
    }
}

pub fn run(ctx: &Ctx, scale: &Scale) -> Result<Report, String> {
    let suite_config = SuiteConfig {
        seed: ctx.seed,
        trace_len: scale.len,
        widths: scale.widths.clone(),
    };
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut cell_ms = Vec::new();
    let mut rss_growth = (0.0, 0.0);
    let mut peak = 0.0;
    let mut first: Option<(Vec<(Cell, SimResult)>, String)> = None;
    let t_run = Instant::now();
    let mut round = 0;
    while ctx.more_rounds(round, t_run.elapsed().as_secs_f64()) {
        let tr = ctx.tracer_for(round);

        // Set-up: everything before the first cell.
        let t0 = Instant::now();
        let rss0 = crate::rss_mib();
        let suite = tr.time("vm.trace", ROOT, |_| Suite::generate(suite_config.clone()));
        let rss1 = crate::rss_mib();
        let lab = Lab::from_suite(suite);
        par_map(&Benchmark::ALL, THREADS, |&b| {
            tr.time("prepass.build", ROOT, |_| lab.prepared(b));
        });
        let rss2 = crate::rss_mib();
        par_map(&Benchmark::ALL, THREADS, |&b| {
            tr.time("prepass.verdict", ROOT, |_| {
                let p = lab.prepared(b);
                p.default_branch_stream();
                p.default_addr_stream();
            });
        });
        setups.push(t0.elapsed().as_secs_f64());
        if round == 0 {
            rss_growth = (rss1 - rss0, rss2 - rss1);
        }

        // The timed pass.
        let t1 = Instant::now();
        let text = if tr.is_on() {
            traced_pass(&lab, tr)
        } else {
            render_all(&lab)
        };
        walls[usize::from(tr.is_on())].push(t1.elapsed().as_secs_f64());
        if !tr.is_on() {
            cell_ms.extend(lab.timings().iter().map(|t| t.seconds * 1e3));
        }

        if round == 0 {
            peak = crate::peak_rss_mib();
        }

        // Every round must reproduce the first bit for bit.
        let grid = lab.grid();
        report.attempted += grid.len() as u64;
        let mut results: Vec<(Cell, SimResult)> = grid
            .iter()
            .map(|&(b, c, w)| ((b, c, w), (*lab.result(b, c, w)).clone()))
            .collect();
        if ctx.perturb && round == 0 {
            let i = oracle::sample(ctx.seed, results.len(), scale.reference_cells)[0];
            results[i].1.cycles += 1;
        }
        match &first {
            None => first = Some((results, text)),
            Some((r0, t0)) => {
                for ((cell, a), (_, b)) in results.iter().zip(r0) {
                    oracle::same(&format!("round {round} cell {}", name(*cell)), a, b)?;
                }
                if text != *t0 {
                    return Err(format!(
                        "round {round}: rendered artifacts differ from round 0"
                    ));
                }
            }
        }
        round += 1;
    }
    let (results, _) = first.expect("at least one round ran");
    check(ctx.seed, scale, &results)?;

    let instructions = results.iter().map(|(_, r)| r.instructions).sum::<u64>() as f64;
    let pass_s = stats::median(&walls[0]);
    report.set("sim_mips", instructions / pass_s / 1e6);
    report.set("req_per_s", results.len() as f64 / pass_s);
    report.set("latency_p50_ms", stats::median(&cell_ms));
    report.set("latency_tail_ms", stats::tail(&cell_ms).0);
    report.set("setup_s", stats::median(&setups));
    report.set("peak_rss_mib", peak);

    if ctx.traced {
        let tr = &ctx.tracer;
        let rounds = walls[1].len() as f64;
        let mut loop_total = 0.0;
        let mut per_cell = [0.0; 5];
        for (k, c) in PaperConfig::ALL.into_iter().enumerate() {
            let s = tr.total(loop_span(c));
            loop_total += s;
            per_cell[k] = s;
            report.set(loop_metric(c), s / rounds);
        }
        let base = (per_cell[0] + per_cell[1]) / 2.0;
        let collapsing = (per_cell[2] + per_cell[3] + per_cell[4]) / 3.0;
        report.set("sim.collapse_cost_ratio", collapsing / base);
        report.set(
            "sim.ns_per_inst",
            loop_total / (instructions * rounds) * 1e9,
        );
        report.set(
            "lab.efficiency",
            loop_total / (THREADS as f64 * walls[1].iter().sum::<f64>()),
        );
        report.set("lab.render_s", tr.total("lab.render") / rounds);
        report.set("vm.trace_s", tr.total("vm.trace") / rounds);
        report.set("prepass.build_s", tr.total("prepass.build") / rounds);
        report.set("prepass.verdict_s", tr.total("prepass.verdict") / rounds);
        report.set("lab.traces_rss_mib", rss_growth.0);
        report.set("lab.prepared_rss_mib", rss_growth.1);
        report.set("trace.overhead", stats::median(&walls[1]) / pass_s - 1.0);
        // The streaming path's layers ride along here: the `stream`
        // workload itself is too unsteady on a shared host to gate on.
        crate::stream::layers(ctx.seed, scale.stream_len, tr, &mut report)?;
    }
    Ok(report)
}

/// One pass with a span per cell: two threads pull cells in grid order
/// and ask the lab for each, then every artifact renders from the
/// cache.
fn traced_pass(lab: &Lab, tr: &Tracer) -> String {
    let pass = tr.begin("grid.pass", ROOT, None);
    let cells = lab.grid();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                while let Some(&(b, c, w)) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    tr.time(loop_span(c), pass, |_: SpanId| lab.result(b, c, w));
                }
            });
        }
    });
    let text = tr.time("lab.render", pass, |_| render_all(lab));
    tr.end(pass);
    text
}

fn name((b, c, w): Cell) -> String {
    format!("{} {}/{w}", b.name(), c.label())
}

/// The grid oracles, on traces regenerated apart from the timed path:
/// instruction and width bounds on every cell, the dataflow floor on
/// every configuration A cell, and the frozen reference on a seeded
/// sample.
fn check(seed: u64, scale: &Scale, results: &[(Cell, SimResult)]) -> Result<(), String> {
    let sampled = oracle::sample(seed, results.len(), scale.reference_cells);
    for b in Benchmark::ALL {
        let trace = b
            .trace(seed, scale.len)
            .map_err(|e| format!("{b}: workload faulted: {e}"))?;
        let critical_path = analyze_dataflow(&trace, &SimConfig::base(4).latencies).critical_path;
        for (i, &(cell, ref r)) in results.iter().enumerate() {
            if cell.0 != b {
                continue;
            }
            oracle::counts(&name(cell), r, scale.len as u64)?;
            if cell.1 == PaperConfig::A {
                oracle::dataflow_floor(&name(cell), r, critical_path)?;
            }
            if sampled.contains(&i) {
                oracle::matches_reference(
                    &name(cell),
                    r,
                    &trace,
                    &SimConfig::paper(cell.1, cell.2),
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scale {
        Scale {
            len: 3_000,
            widths: vec![4, 8],
            reference_cells: 2,
            stream_len: 20_000,
        }
    }

    #[test]
    fn a_small_grid_passes_its_oracles() {
        let ctx = crate::tests::ctx(0.0, false, false);
        let report = run(&ctx, &small()).unwrap();
        assert_eq!(report.attempted, 60);
        assert!(report.get("sim_mips").unwrap() > 0.0);
    }

    #[test]
    fn a_perturbed_cell_fails_the_run() {
        let ctx = crate::tests::ctx(0.0, false, true);
        let err = run(&ctx, &small()).unwrap_err();
        assert!(err.contains("simulate_reference"), "{err}");
    }

    #[test]
    fn a_traced_run_reports_every_grid_layer() {
        let ctx = crate::tests::ctx(0.0, true, false);
        let report = run(&ctx, &small()).unwrap();
        for m in [
            "sim.loop_s.D",
            "lab.render_s",
            "prepass.verdict_s",
            "sim.ns_per_inst",
        ] {
            assert!(report.get(m).unwrap() > 0.0, "{m}");
        }
    }
}

//! `dist`: the paper grid through a coordinator and two workers over
//! loopback, with the default 10% spot checks, merged into a supervised
//! `Lab` (journal + cell store) and rendered.
//!
//! Each round sets up a fresh run directory, suite, supervised lab and
//! coordinator, then times the pass: two worker threads pull every cell
//! until the coordinator reports the grid complete, and the artifacts
//! render from the merged lab. An operation is one merged cell; its
//! latency is the compute time the worker reported for it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ddsc_core::{SimConfig, SimResult};
use ddsc_dist::{
    run_worker, CellSpec, Coordinator, DistReport, DistSinks, SchedOptions, WorkerOptions,
};
use ddsc_experiments::{render_all, Cell, CellStore, Lab, Suite, SuiteConfig};
use ddsc_util::Journal;

use crate::spans::{Tracer, ROOT};
use crate::{oracle, stats, Ctx, Report, THREADS};

pub struct Scale {
    pub len: usize,
    pub widths: Vec<u32>,
    pub reference_cells: usize,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            len: 300_000,
            widths: SimConfig::PAPER_WIDTHS.to_vec(),
            reference_cells: 2,
        }
    }
}

/// What one pass produced.
struct Pass {
    report: DistReport,
    results: Vec<(Cell, SimResult)>,
    cell_ms: Vec<f64>,
    text: String,
    workers_done: bool,
}

/// One round's supervised lab, bound coordinator and cells by digest.
type Setup = (Lab, Coordinator, Vec<(u64, Cell)>);

/// Sets up one round.
fn setup(ctx: &Ctx, scale: &Scale, round: usize, tr: &Tracer) -> Result<Setup, String> {
    let dir = ctx.scratch.join(format!("dist-{round}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let suite = tr.time("vm.trace", ROOT, |_| {
        Suite::generate(SuiteConfig {
            seed: ctx.seed,
            trace_len: scale.len,
            widths: scale.widths.clone(),
        })
    });
    let (journal, _) = Journal::open(&dir.join("run_journal.bin")).map_err(|e| e.to_string())?;
    let lab = Lab::from_suite(suite)
        .with_supervision(Arc::new(journal), CellStore::new(dir.join("cells")));
    let cells: Vec<(u64, Cell)> = lab
        .grid()
        .into_iter()
        .map(|c| (lab.cell_digest(c), c))
        .collect();
    let specs = cells
        .iter()
        .map(|&(digest, (b, c, width))| CellSpec {
            bench: b.name().to_string(),
            config: c.label().to_string(),
            width,
            trace_len: scale.len as u64,
            seed: ctx.seed,
            digest,
        })
        .collect();
    let opts = SchedOptions {
        spot_check_percent: 10,
        ..SchedOptions::default()
    };
    let coord = Coordinator::bind("127.0.0.1:0", specs, opts).map_err(|e| format!("bind: {e}"))?;
    Ok((lab, coord, cells))
}

/// Runs the grid through the coordinator and two worker threads.
fn pass(lab: &Lab, coord: Coordinator, cells: &[(u64, Cell)], tr: &Tracer) -> Pass {
    let span = tr.begin("dist.pass", ROOT, None);
    let addr = coord.local_addr().to_string();
    let cell_ms = Mutex::new(Vec::new());
    let cell_of = |spec: &CellSpec| {
        cells
            .iter()
            .find(|(d, _)| *d == spec.digest)
            .map(|&(_, c)| c)
            .expect("coordinator only returns cells it was given")
    };
    let on_result = |spec: &CellSpec, result: &SimResult, seconds: f64| {
        let cell = cell_of(spec);
        tr.time("store.install", span, |_| {
            lab.install_result(cell, result.clone(), seconds)
        });
        cell_ms.lock().unwrap().push(seconds * 1e3);
    };
    // Quarantines show in the report's `cells_quarantined`.
    let on_quarantine = |_: &CellSpec, _: &str| {};
    let (report, workers_done) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| run_worker(&WorkerOptions::new(addr.clone()))))
            .collect();
        let report = coord.run(&DistSinks {
            on_result: &on_result,
            on_quarantine: &on_quarantine,
        });
        let done = workers
            .into_iter()
            .all(|w| matches!(w.join(), Ok(Ok(summary)) if summary.all_done));
        (report, done)
    });
    let text = tr.time("lab.render", span, |_| render_all(lab));
    tr.end(span);
    let results = cells
        .iter()
        .map(|&(_, (b, c, w))| ((b, c, w), (*lab.result(b, c, w)).clone()))
        .collect();
    Pass {
        report,
        results,
        cell_ms: cell_ms.into_inner().unwrap(),
        text,
        workers_done,
    }
}

pub fn run(ctx: &Ctx, scale: &Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut cell_ms = Vec::new();
    let mut peak = 0.0;
    let mut traced_reports = Vec::new();
    let mut first: Option<(Vec<(Cell, SimResult)>, String)> = None;
    let t_run = Instant::now();
    let mut round = 0;
    while ctx.more_rounds(round, t_run.elapsed().as_secs_f64()) {
        let tr = ctx.tracer_for(round);
        let t0 = Instant::now();
        let (lab, coord, cells) = setup(ctx, scale, round, tr)?;
        setups.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let mut p = pass(&lab, coord, &cells, tr);
        walls[usize::from(tr.is_on())].push(t1.elapsed().as_secs_f64());
        report.attempted += cells.len() as u64;
        if round == 0 {
            peak = crate::peak_rss_mib();
        }

        let r = &p.report;
        if r.cells_completed != cells.len() || r.cells_quarantined != 0 || !p.workers_done {
            return Err(format!(
                "round {round}: merged {}/{} cells, {} quarantined, workers finished: {}",
                r.cells_completed,
                cells.len(),
                r.cells_quarantined,
                p.workers_done
            ));
        }
        if r.mismatches != 0 || r.corrupt_results != 0 || !r.byzantine_workers.is_empty() {
            return Err(format!(
                "round {round}: {} spot-check mismatches, {} corrupt results",
                r.mismatches, r.corrupt_results
            ));
        }
        if !lab.uncached_cells(&lab.grid()).is_empty() {
            return Err(format!("round {round}: the lab is missing merged cells"));
        }
        if tr.is_on() {
            traced_reports.push(p.report.clone());
        } else {
            cell_ms.extend(p.cell_ms.iter().copied());
        }
        if ctx.perturb && round == 0 {
            let i = oracle::sample(ctx.seed, p.results.len(), scale.reference_cells)[0];
            p.results[i].1.cycles += 1;
        }
        match &first {
            None => first = Some((p.results, p.text)),
            Some((r0, t0)) => {
                for (((b, c, w), a), (_, x)) in p.results.iter().zip(r0) {
                    oracle::same(&format!("round {round} cell {b} {}/{w}", c.label()), a, x)?;
                }
                if p.text != *t0 {
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
        let compute: f64 = traced_reports.iter().map(|r| r.compute_seconds).sum();
        let capacity = THREADS as f64 * walls[1].iter().sum::<f64>();
        report.set("dist.compute_s", compute / rounds);
        report.set("dist.idle_s", (capacity - compute) / rounds);
        report.set("dist.efficiency", compute / capacity);
        let per_round =
            |f: fn(&DistReport) -> u64| traced_reports.iter().map(f).sum::<u64>() as f64 / rounds;
        report.set("dist.spot_checked", per_round(|r| r.spot_checked));
        report.set("dist.redispatched", per_round(|r| r.redispatched));
        let installs = tr
            .spans()
            .iter()
            .filter(|s| s.name == "store.install")
            .count();
        report.set(
            "store.install_ms",
            tr.total("store.install") / installs as f64 * 1e3,
        );
        report.set("vm.trace_s", tr.total("vm.trace") / rounds);
        report.set("lab.render_s", tr.total("lab.render") / rounds);
        report.set("trace.overhead", stats::median(&walls[1]) / pass_s - 1.0);
    }
    Ok(report)
}

/// The merged cells against traces regenerated apart from the run:
/// counts on every cell, the frozen reference on a seeded sample.
fn check(seed: u64, scale: &Scale, results: &[(Cell, SimResult)]) -> Result<(), String> {
    for &((b, c, w), ref r) in results {
        oracle::counts(&format!("{b} {}/{w}", c.label()), r, scale.len as u64)?;
    }
    for i in oracle::sample(seed, results.len(), scale.reference_cells) {
        let ((b, c, w), ref r) = results[i];
        let trace: ddsc_trace::Trace = b
            .trace(seed, scale.len)
            .map_err(|e| format!("{b}: workload faulted: {e}"))?;
        oracle::matches_reference(
            &format!("merged {b} {}/{w}", c.label()),
            r,
            &trace,
            &SimConfig::paper(c, w),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scale {
        Scale {
            len: 3_000,
            widths: vec![4],
            reference_cells: 1,
        }
    }

    #[test]
    fn a_small_distributed_grid_passes_its_oracles() {
        let ctx = crate::tests::ctx(0.0, true, false);
        let report = run(&ctx, &small()).unwrap();
        assert_eq!(report.attempted % 30, 0);
        assert!(report.get("dist.compute_s").unwrap() > 0.0);
    }

    #[test]
    fn a_perturbed_merged_cell_fails_the_run() {
        let ctx = crate::tests::ctx(0.0, false, true);
        let err = run(&ctx, &small()).unwrap_err();
        assert!(err.contains("simulate_reference"), "{err}");
    }
}

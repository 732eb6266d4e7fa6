//! `serve`: the `ddsc serve` daemon with a durable run directory and two
//! workers, driven closed-loop from two client connections.
//!
//! The plan comes in rounds of grid cells at a short trace length: each
//! round has `fresh` cells no earlier round asked for, plus `repeats`
//! requests for cells of the same round, each placed after the request
//! it repeats. A client sends its next request only after the previous
//! one reached its terminal frame; latency runs from the `Submit` write
//! to that frame.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ddsc_core::{simulate_prepared, PaperConfig, PreparedTrace, SimConfig, SimResult};
use ddsc_serve::proto::{
    read_response, write_request, Request, Response, StatsSnapshot, SubmitRequest,
};
use ddsc_serve::{EngineConfig, ServeSummary, Server};
use ddsc_util::SplitMix64;
use ddsc_workloads::Benchmark;

use crate::spans::{Tracer, ROOT};
use crate::{oracle, stats, Ctx, Report, THREADS};

pub struct Scale {
    /// Instructions per requested cell.
    pub len: u64,
    /// Requests for new cells per round.
    pub fresh: usize,
    /// Requests repeating a cell of the same round, per round.
    pub repeats: usize,
    /// Daemon starts whose set-up time is measured (the last serves).
    pub starts: usize,
    /// Served bodies compared with the frozen reference simulator.
    pub reference_cells: usize,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            len: 100_000,
            fresh: 30,
            repeats: 10,
            starts: 21,
            reference_cells: 2,
        }
    }
}

/// One planned request: the cell and the index of its unique cell.
struct Planned {
    req: SubmitRequest,
    cell: usize,
}

/// The plan of one round. Unique cells are numbered from `first_cell`.
fn plan(rng: &mut SplitMix64, scale: &Scale, first_cell: usize) -> Vec<Planned> {
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut reqs: Vec<Planned> = (0..scale.fresh)
        .map(|k| Planned {
            req: SubmitRequest {
                bench: Benchmark::ALL[pick(6)].name().to_string(),
                config: PaperConfig::ALL[pick(5)].label().to_string(),
                width: SimConfig::PAPER_WIDTHS[pick(5)],
                trace_len: scale.len,
                // A data seed of its own makes the cell new to the daemon.
                seed: pick(usize::MAX) as u64,
            },
            cell: first_cell + k,
        })
        .collect();
    for _ in 0..scale.repeats {
        let k = pick(scale.fresh);
        let at = reqs
            .iter()
            .position(|r| r.cell == first_cell + k)
            .expect("planned");
        let pos = at + 1 + pick(reqs.len() - at);
        let req = reqs[at].req.clone();
        reqs.insert(
            pos,
            Planned {
                req,
                cell: first_cell + k,
            },
        );
    }
    reqs
}

/// What one request got back.
struct Answer {
    cell: usize,
    fresh: bool,
    traced: bool,
    ms: f64,
    body: Option<Vec<u8>>,
    error: Option<String>,
}

/// Sends one request and reads frames up to its terminal one.
fn call(conn: &mut (TcpStream, BufReader<TcpStream>), req: &Request) -> Result<Response, String> {
    write_request(&mut conn.0, req).map_err(|e| format!("write: {e}"))?;
    loop {
        match read_response(&mut conn.1) {
            Ok(Some(r)) if r.is_terminal() => return Ok(r),
            Ok(Some(_)) => {}
            Ok(None) => return Err("connection closed".into()),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = s.set_nodelay(true);
    let r = s.try_clone().map_err(|e| e.to_string())?;
    Ok((s, BufReader::new(r)))
}

/// A running daemon and the thread its accept loop runs on.
struct Daemon {
    addr: std::net::SocketAddr,
    thread: std::thread::JoinHandle<ServeSummary>,
}

/// Starts a daemon on `dir` and waits for its first answer.
fn start(dir: std::path::PathBuf) -> Result<Daemon, String> {
    let config = EngineConfig {
        workers: THREADS,
        run_dir: Some(dir),
        ..EngineConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config, None).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    let mut conn = connect(addr)?;
    match call(&mut conn, &Request::Ping)? {
        Response::Pong => Ok(Daemon { addr, thread }),
        other => Err(format!("ping answered with {other:?}")),
    }
}

fn stop(d: Daemon) -> Result<ServeSummary, String> {
    let mut conn = connect(d.addr)?;
    call(&mut conn, &Request::Shutdown)?;
    d.thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())
}

fn stats_of(conn: &mut (TcpStream, BufReader<TcpStream>)) -> Result<StatsSnapshot, String> {
    match call(conn, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("stats answered with {other:?}")),
    }
}

pub fn run(ctx: &Ctx, scale: &Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..scale.starts.max(1) {
        let t0 = Instant::now();
        let d = start(ctx.scratch.join(format!("serve-{i}")))?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace(d) {
            stop(old)?;
        }
    }
    let daemon = daemon.expect("started at least once");
    let mut conns = vec![connect(daemon.addr)?, connect(daemon.addr)?];

    let mut rng = SplitMix64::new(ctx.seed);
    let mut cells: Vec<SubmitRequest> = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut done: [usize; 2] = [0, 0];
    let mut stats_ms = Vec::new();
    let t_run = Instant::now();
    let mut round = 0;
    while ctx.more_rounds(round, t_run.elapsed().as_secs_f64()) {
        let tr = ctx.tracer_for(round);
        let planned = plan(&mut rng, scale, cells.len());
        for p in &planned {
            // New cells appear in order; repeats point back.
            if p.cell == cells.len() {
                cells.push(p.req.clone());
            }
        }
        let seen = Mutex::new(vec![false; cells.len()]);
        let next = AtomicUsize::new(0);
        let got = Mutex::new(Vec::new());
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for conn in conns.iter_mut() {
                let (planned, next, got, seen) = (&planned, &next, &got, &seen);
                s.spawn(move || {
                    while let Some(p) = planned.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let fresh = !std::mem::replace(&mut seen.lock().unwrap()[p.cell], true);
                        let id = tr.begin("serve.request", ROOT, Some(p.cell as u64));
                        let t = Instant::now();
                        let answer = call(conn, &Request::Submit(p.req.clone()));
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        tr.end(id);
                        let (body, error) = match answer {
                            Ok(Response::Result { body, .. }) => (Some(body), None),
                            Ok(other) => (None, Some(format!("{other:?}"))),
                            Err(e) => (None, Some(e)),
                        };
                        got.lock().unwrap().push(Answer {
                            cell: p.cell,
                            fresh,
                            traced: tr.is_on(),
                            ms,
                            body,
                            error,
                        });
                    }
                });
            }
        });
        walls[usize::from(tr.is_on())].push(t0.elapsed().as_secs_f64());
        done[usize::from(tr.is_on())] += planned.len();
        report.attempted += planned.len() as u64;
        answers.extend(got.into_inner().unwrap());
        let t = Instant::now();
        tr.time("serve.stats", ROOT, |_| stats_of(&mut conns[0]))?;
        if tr.is_on() {
            stats_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        round += 1;
    }
    let peak = crate::peak_rss_mib();
    drop(conns);
    let summary = stop(daemon)?;

    if ctx.perturb {
        if let Some(a) = answers.iter_mut().rev().find(|a| !a.fresh) {
            if let Some(b) = a.body.as_mut() {
                b[0] ^= 1;
            }
        }
    }
    report.failed = answers.iter().filter(|a| a.error.is_some()).count() as u64;
    check(ctx, scale, &cells, &answers, &summary.stats)?;

    let latencies: Vec<f64> = answers.iter().filter(|a| !a.traced).map(|a| a.ms).collect();
    let wall: f64 = walls[0].iter().sum();
    let fresh = answers.iter().filter(|a| !a.traced && a.fresh).count();
    report.set("sim_mips", (fresh as u64 * scale.len) as f64 / wall / 1e6);
    report.set("req_per_s", done[0] as f64 / wall);
    report.set("latency_p50_ms", stats::median(&latencies));
    report.set("latency_tail_ms", stats::tail(&latencies).0);
    report.set("setup_s", stats::median(&setups));
    report.set("peak_rss_mib", peak);

    if ctx.traced {
        let ms = |fresh: bool| {
            let v: Vec<f64> = answers
                .iter()
                .filter(|a| a.traced && a.fresh == fresh)
                .map(|a| a.ms)
                .collect();
            stats::median(&v)
        };
        report.set("serve.fresh_p50_ms", ms(true));
        report.set("serve.repeat_p50_ms", ms(false));
        report.set("serve.stats_rtt_ms", stats::median(&stats_ms));
        report.set("serve.simulated", summary.stats.completed as f64);
        report.set(
            "serve.deduped",
            (summary.stats.coalesced + summary.stats.cache_hits) as f64,
        );
        front_share(ctx.seed, &cells, &mut report)?;
        let traced_rate = done[1] as f64 / walls[1].iter().sum::<f64>();
        report.set(
            "trace.overhead",
            (done[0] as f64 / wall) / traced_rate - 1.0,
        );
    }
    Ok(report)
}

fn parse_cell(req: &SubmitRequest) -> (Benchmark, SimConfig) {
    let b = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == req.bench)
        .expect("planned");
    let c = PaperConfig::ALL
        .into_iter()
        .find(|c| c.label() == req.config)
        .expect("planned");
    (b, SimConfig::paper(c, req.width))
}

/// The serve oracles: no request rejected, failed or timed out; every
/// answer for a cell carries the same body; the daemon simulated each
/// unique cell exactly once; sampled bodies equal the frozen reference
/// simulator's result.
fn check(
    ctx: &Ctx,
    scale: &Scale,
    cells: &[SubmitRequest],
    answers: &[Answer],
    stats: &StatsSnapshot,
) -> Result<(), String> {
    if let Some(a) = answers.iter().find(|a| a.error.is_some()) {
        return Err(format!(
            "cell {}: {}",
            a.cell,
            a.error.as_deref().unwrap_or("")
        ));
    }
    if stats.rejected_busy + stats.rejected_invalid + stats.failed + stats.timed_out != 0 {
        return Err(format!(
            "daemon counted rejected, failed or timed-out requests: {stats:?}"
        ));
    }
    if stats.completed != cells.len() as u64 {
        return Err(format!(
            "daemon simulated {} cells, the plan has {} unique cells",
            stats.completed,
            cells.len()
        ));
    }
    let mut by_cell: Vec<Vec<Option<&[u8]>>> = vec![Vec::new(); cells.len()];
    for a in answers {
        by_cell[a.cell].push(a.body.as_deref());
    }
    for (i, bodies) in by_cell.iter().enumerate() {
        oracle::served_bodies(&format!("cell {i}"), bodies)?;
    }
    for i in oracle::sample(ctx.seed, cells.len(), scale.reference_cells) {
        let (b, config) = parse_cell(&cells[i]);
        let body = by_cell[i][0].expect("checked above");
        let got = SimResult::decode(body, &mut 0, config)
            .ok_or(format!("cell {i}: body does not decode"))?;
        let trace = b
            .trace(cells[i].seed, scale.len as usize)
            .map_err(|e| format!("cell {i}: workload faulted: {e}"))?;
        oracle::counts(&format!("served cell {i}"), &got, scale.len)?;
        oracle::matches_reference(&format!("served cell {i}"), &got, &trace, &config)?;
    }
    Ok(())
}

/// Recomputes three sampled cells in this process with a span per
/// stage, as the daemon's workers compute them, and reports trace
/// generation plus prepass as a share of the whole, with its parts.
fn front_share(seed: u64, cells: &[SubmitRequest], report: &mut Report) -> Result<(), String> {
    let tr = Tracer::new(true);
    let picked = oracle::sample(seed ^ 1, cells.len(), 3);
    let mut instructions = 0;
    for &i in &picked {
        let (b, config) = parse_cell(&cells[i]);
        let trace = tr
            .time("vm.trace", ROOT, |_| {
                b.trace(cells[i].seed, cells[i].trace_len as usize)
            })
            .map_err(|e| format!("cell {i}: {e}"))?;
        let prepared = tr.time("prepass.build", ROOT, |_| PreparedTrace::build(&trace));
        tr.time("sim.loop", ROOT, |_| simulate_prepared(&prepared, &config));
        instructions += trace.len();
    }
    let n = picked.len() as f64;
    let (t, p, s) = (
        tr.total("vm.trace"),
        tr.total("prepass.build"),
        tr.total("sim.loop"),
    );
    report.set("vm.trace_s", t / n);
    report.set("prepass.build_s", p / n);
    report.set("sim.ns_per_inst", s / instructions as f64 * 1e9);
    report.set("serve.front_share", (t + p) / (t + p + s));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scale {
        Scale {
            len: 2_000,
            fresh: 6,
            repeats: 2,
            starts: 2,
            reference_cells: 1,
        }
    }

    #[test]
    fn plans_repeat_only_earlier_cells_of_their_round() {
        let mut rng = SplitMix64::new(3);
        let p = plan(&mut rng, &Scale::default(), 100);
        assert_eq!(p.len(), 40);
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        for r in &p {
            assert!((100..130).contains(&r.cell));
            if !seen.insert(r.cell) {
                repeats += 1;
            }
        }
        assert_eq!(repeats, 10);
        assert_eq!(seen.len(), 30);
    }

    #[test]
    fn a_small_plan_passes_its_oracles() {
        let ctx = crate::tests::ctx(0.0, true, false);
        let report = run(&ctx, &small()).unwrap();
        assert_eq!(report.failed, 0);
        assert_eq!(report.get("serve.simulated"), Some(12.0));
        assert_eq!(report.get("serve.deduped"), Some(4.0));
    }

    #[test]
    fn an_altered_repeat_fails_the_run() {
        let ctx = crate::tests::ctx(0.0, false, true);
        let err = run(&ctx, &small()).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }
}

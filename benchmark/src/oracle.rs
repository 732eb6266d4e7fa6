//! Output oracles. Each compares what a workload's timed path produced
//! with something computed apart from it: the trace length, the issue
//! width, the dataflow critical path of the trace, the frozen
//! pre-overhaul simulator (`simulate_reference`), or another copy of
//! the same output. Every check returns `Err` naming what disagreed.

use ddsc_core::{simulate_reference, SimConfig, SimResult};
use ddsc_trace::Trace;
use ddsc_util::SplitMix64;

/// A result must account for exactly the instructions of its trace and
/// cannot have retired more than `width` of them per cycle.
pub fn counts(what: &str, r: &SimResult, len: u64) -> Result<(), String> {
    if r.instructions != len {
        return Err(format!(
            "{what}: {} instructions simulated, trace has {len}",
            r.instructions
        ));
    }
    let width = u64::from(r.config.issue_width);
    if width * r.cycles < r.instructions {
        return Err(format!(
            "{what}: {} instructions in {} cycles exceeds width {width}",
            r.instructions, r.cycles
        ));
    }
    Ok(())
}

/// A machine without speculation or collapsing (configuration A) cannot
/// beat the latency-weighted critical path of its trace.
pub fn dataflow_floor(what: &str, r: &SimResult, critical_path: u64) -> Result<(), String> {
    if r.cycles < critical_path {
        return Err(format!(
            "{what}: {} cycles is below the dataflow critical path {critical_path}",
            r.cycles
        ));
    }
    Ok(())
}

/// `got` must be bit-identical to `expected`.
pub fn same(what: &str, got: &SimResult, expected: &SimResult) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    Err(format!(
        "{what}: result differs ({} instructions / {} cycles, expected {} / {})",
        got.instructions, got.cycles, expected.instructions, expected.cycles
    ))
}

/// `got` must equal the frozen reference simulator's result for the
/// same trace and configuration.
pub fn matches_reference(
    what: &str,
    got: &SimResult,
    trace: &Trace,
    config: &SimConfig,
) -> Result<(), String> {
    same(
        &format!("{what} vs simulate_reference"),
        got,
        &simulate_reference(trace, config),
    )
}

/// `k` distinct indices below `n`, drawn from `seed`.
pub fn sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x0bac_1e5e_ed00_0000);
    let mut picked = Vec::new();
    while picked.len() < k.min(n) {
        let i = (rng.next_u64() % n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Every served response of one cell, in arrival order: `None` for a
/// request that got no result body.
pub fn served_bodies(what: &str, bodies: &[Option<&[u8]>]) -> Result<(), String> {
    let first = bodies
        .first()
        .copied()
        .flatten()
        .ok_or(format!("{what}: no result body"))?;
    for (i, body) in bodies.iter().enumerate().skip(1) {
        match body {
            None => return Err(format!("{what}: request {i} got no result body")),
            Some(b) if *b != first => {
                return Err(format!("{what}: repeat {i} body differs from the first"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_core::{analyze_dataflow, simulate_prepared, PaperConfig, PreparedTrace};
    use ddsc_workloads::Benchmark;

    fn cell(width: u32) -> (Trace, SimConfig, SimResult) {
        let trace = Benchmark::Li.trace(7, 4_000).unwrap();
        let config = SimConfig::paper(PaperConfig::A, width);
        let r = simulate_prepared(&PreparedTrace::build(&trace), &config);
        (trace, config, r)
    }

    #[test]
    fn honest_results_pass_every_oracle() {
        let (trace, config, r) = cell(4);
        let cp = analyze_dataflow(&trace, &config.latencies).critical_path;
        counts("li A/4", &r, 4_000).unwrap();
        dataflow_floor("li A/4", &r, cp).unwrap();
        matches_reference("li A/4", &r, &trace, &config).unwrap();
    }

    #[test]
    fn perturbed_cycles_fail_the_reference_check() {
        let (trace, config, mut r) = cell(4);
        r.cycles += 1;
        assert!(matches_reference("li A/4", &r, &trace, &config).is_err());
    }

    #[test]
    fn impossible_counts_fail() {
        let (trace, config, r) = cell(4);
        assert!(counts("short", &r, 4_001).is_err());
        let mut fast = r.clone();
        fast.cycles = fast.instructions / 5;
        assert!(counts("too fast", &fast, 4_000).is_err());
        let cp = analyze_dataflow(&trace, &config.latencies).critical_path;
        fast.cycles = cp - 1;
        assert!(dataflow_floor("below floor", &fast, cp).is_err());
    }

    #[test]
    fn a_result_from_the_wrong_cell_fails() {
        let (trace, config, _) = cell(4);
        let (_, _, wide) = cell(8);
        assert!(matches_reference("wrong width", &wide, &trace, &config).is_err());
    }

    #[test]
    fn missing_or_altered_served_bodies_fail() {
        let body: &[u8] = &[1, 2, 3];
        served_bodies("ok", &[Some(body), Some(body)]).unwrap();
        assert!(served_bodies("missing", &[Some(body), None]).is_err());
        assert!(served_bodies("none", &[None]).is_err());
        assert!(served_bodies("altered", &[Some(body), Some(&[1, 2, 4])]).is_err());
    }

    #[test]
    fn samples_are_distinct_and_seeded() {
        let a = sample(5, 150, 3);
        assert_eq!(a, sample(5, 150, 3));
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&i| i < 150));
        assert_ne!(a[0], a[1]);
    }
}

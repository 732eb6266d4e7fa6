//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer of
//! ddsc: name, start, end, the enclosing span and, on `serve`, the
//! request id. Spans stay in memory and are written out as JSON lines
//! when the run ends. A disabled recorder does nothing but run the
//! closure, so untraced rounds pay one branch per call.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A handle on an open span (or on nothing, when disabled or at the
/// root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// The parent of top-level spans.
pub const ROOT: SpanId = SpanId(None);

/// One recorded span; times are seconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span under `parent`.
    pub fn begin(&self, name: &'static str, parent: SpanId, req: Option<u64>) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.0,
            req,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end = self.now();
            self.spans.lock().expect("span list poisoned")[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span as
    /// the parent for nested spans.
    pub fn time<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.begin(name, parent, None);
        let r = f(id);
        self.end(id);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Summed self time of every span named `name`: each span's
    /// duration minus the part of it its child spans cover.
    pub fn self_total(&self, name: &str) -> f64 {
        let spans = self.spans();
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: Vec<(f64, f64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| (c.start, c.end))
                    .collect();
                s.duration() - covered(children)
            })
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}, \"req\": {req}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`.
fn covered(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        {
            let mut spans = t.spans.lock().unwrap();
            let mk = |name, start, end, parent| Span {
                name,
                start,
                end,
                parent,
                req: None,
            };
            spans.push(mk("outer", 0.0, 10.0, None));
            spans.push(mk("inner", 1.0, 4.0, Some(0)));
            spans.push(mk("inner", 3.0, 5.0, Some(0)));
            spans.push(mk("inner", 7.0, 8.0, Some(0)));
        }
        assert!((t.self_total("outer") - 5.0).abs() < 1e-12);
        assert!((t.total("inner") - 6.0).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.time("x", ROOT, |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}

//! In-memory span recording around the benchmark's calls into each layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// One thread's span log. When off, `begin`/`end` only branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    /// Sets the op id that the next spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(index);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(index) = self.open.pop() {
            self.spans[index as usize].end_ns = now;
        }
    }

    /// Total duration (ns) and count of the spans with each name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            let t = totals.entry(s.name).or_insert((0, 0));
            t.0 += s.end_ns - s.start_ns;
            t.1 += 1;
        }
        totals
    }
}

/// Per span name, the median over `rounds` of its total duration (ns),
/// with the span count of the first round.
pub fn median_totals(rounds: &[Tracer]) -> BTreeMap<&'static str, (f64, u64)> {
    let totals: Vec<_> = rounds.iter().map(Tracer::totals).collect();
    let mut out = BTreeMap::new();
    for (name, (_, n)) in totals.first().cloned().unwrap_or_default() {
        let ns: Vec<f64> = totals
            .iter()
            .map(|t| t.get(name).map_or(0.0, |t| t.0 as f64))
            .collect();
        out.insert(name, (crate::stats::median(&ns), n));
    }
    out
}

/// Chrome trace-event JSON of the given threads' spans (one `tid` each,
/// named by a metadata event).
pub fn chrome_json(threads: &[(&str, &Tracer)]) -> String {
    let mut out = String::from("[\n");
    for (tid, (label, _)) in threads.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{label}\"}}}},"
        );
    }
    for (tid, (_, tr)) in threads.iter().enumerate() {
        for (i, s) in tr.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"i\":{i},\"parent\":{parent},\"op\":{}}}}},",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
    }
    // Drop the last separator; a trace of no spans still names its threads.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_totals() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.set_op(3);
        tr.begin("outer");
        tr.begin("inner");
        tr.end();
        tr.end();
        assert_eq!(tr.spans[1].parent, 0);
        assert_eq!(tr.spans[1].op, 3);
        assert_eq!(tr.totals()["inner"].1, 1);
        let json = chrome_json(&[("t", &tr)]);
        assert!(json.contains("\"parent\":0"), "{json}");
        assert!(json.ends_with("}\n]\n"), "{json}");
        let mut off = Tracer::off();
        off.begin("x");
        off.end();
        assert!(off.spans.is_empty());
    }
}

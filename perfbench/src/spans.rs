//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public entry point. Nothing is recorded inside the program.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), a parent, the id of the operation it belongs to, and the
//! counter deltas its call caused. Spans stay in memory until the run
//! ends, then go to a JSON-lines file.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

/// Op ids carry the client number above this bit and the client's own
/// op sequence below it.
const CLIENT_SHIFT: u32 = 48;

/// Ops per client whose spans go to the span file; every span counts in
/// the per-layer figures. Keeps the file to tens of megabytes.
const FILE_OPS: u64 = 10_000;

/// The id of a client's `seq`-th op.
pub fn op_id(client: u64, seq: u64) -> u64 {
    (client << CLIENT_SHIFT) | seq
}

/// Whether the op's spans go to the span file.
pub fn in_file(op: u64) -> bool {
    op & ((1 << CLIENT_SHIFT) - 1) < FILE_OPS
}

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the recorder, `None` for an op root.
    pub parent: Option<usize>,
    pub counters: Vec<(&'static str, u64)>,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span and return its result and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            op,
            start,
            end,
            parent,
            counters: Vec::new(),
        });
        (out, self.spans.len() - 1)
    }

    /// Open a span whose end is set later with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            start,
            end: start,
            parent,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Merge another recorder's spans (e.g. one per client thread),
    /// re-basing their parent indexes.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Per span: its duration minus the part of it its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        Samples::new(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end - s.start)
                .collect(),
        )
    }

    /// Mean self time (µs) per span name.
    pub fn mean_self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut acc: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = acc.entry(s.name).or_default();
            e.0 += t as f64;
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(k, (sum, n))| (k, sum / n as f64 / 1e3))
            .collect()
    }

    /// Write the spans of the first [`FILE_OPS`] ops of each client, one
    /// JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.iter().enumerate().zip(self.self_times());
        for ((i, s), self_ns) in spans.filter(|((_, s), _)| in_file(s.op)) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{self_ns},\"counters\":{{{}}}}}",
                s.op,
                s.name,
                s.start,
                s.end,
                counters.join(",")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut r = Recorder::new(Instant::now());
        let span = |name, start, end, parent| Span {
            name,
            op: 0,
            start,
            end,
            parent,
            counters: Vec::new(),
        };
        r.spans.push(span("op", 0, 100, None));
        r.spans.push(span("a", 10, 40, Some(0)));
        r.spans.push(span("b", 30, 60, Some(0)));
        r.spans.push(span("c", 90, 120, Some(0)));
        assert_eq!(r.self_times(), vec![40, 30, 30, 30]);
    }
}

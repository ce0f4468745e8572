//! Wall-clock spans recorded by the benchmark around each call it makes
//! into a layer, and the per-layer table built from them.
//!
//! Spans live in memory and are written out when the run ends. A
//! disabled recorder (untraced runs) records nothing, so end-to-end
//! timings never pay for tracing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The module the call enters, e.g. `media::codec`.
    pub layer: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The learner, probe or iteration the span belongs to.
    pub session: Option<u64>,
}

/// An in-memory span recorder on the host clock.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Layer of the root span: whatever the root covers that no child span
/// covers is the benchmark's own unattributed time.
pub const UNATTRIBUTED: &str = "unattributed";

impl Spans {
    /// A recorder that records when `enabled`, with the root span
    /// `name` already open.
    pub fn new(enabled: bool, name: &'static str) -> Spans {
        let mut s = Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        s.enter(name, UNATTRIBUTED, None);
        s
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, session: Option<u64>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            session,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        session: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, layer, session);
        let out = f();
        self.exit();
        out
    }

    /// Closes every open span, the root last.
    pub fn finish(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Self time per layer, in ns, sorted by time descending. A span's
    /// self time is its duration minus its children's durations, so the
    /// rows, with the root's self time as [`UNATTRIBUTED`], sum exactly
    /// to the root span's duration.
    pub fn layer_table(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            match rows.iter_mut().find(|(l, _)| *l == s.layer) {
                Some(row) => row.1 += own,
                None => rows.push((s.layer, own)),
            }
        }
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// The root span's duration, in ns: the workload's wall time.
    pub fn wall_ns(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// The layer table as aligned text, with the wall-time total.
    pub fn layer_table_text(&self) -> String {
        let wall = self.wall_ns().max(1) as f64;
        let mut out = format!("{:<20} {:>12} {:>8}\n", "layer", "self_ms", "share");
        for (layer, ns) in self.layer_table() {
            let _ = writeln!(
                out,
                "{layer:<20} {:>12.3} {:>7.2}%",
                ns as f64 / 1e6,
                ns as f64 / wall * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{:<20} {:>12.3} {:>7.2}%",
            "total (wall)",
            wall / 1e6,
            100.0
        );
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let session = s.session.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{session}}}",
                s.name, s.layer, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_rows_sum_to_wall_time() {
        let mut s = Spans::new(true, "run");
        s.time("a", "media::codec", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        s.enter("outer", "runtime::server", None);
        s.time("inner", "media::codec", None, || std::hint::black_box(7));
        s.exit();
        std::thread::sleep(std::time::Duration::from_millis(1));
        s.finish();
        let total: u64 = s.layer_table().iter().map(|r| r.1).sum();
        assert_eq!(total, s.wall_ns());
        assert!(s.layer_table().iter().any(|r| r.0 == UNATTRIBUTED));
        assert_eq!(s.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, "run");
        s.time("a", "media::codec", None, || ());
        s.finish();
        assert!(s.to_jsonl().is_empty());
        assert!(s.layer_table().is_empty());
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! No crate under test is instrumented: a span opens before the
//! benchmark calls a layer's public entry point and closes when the
//! call returns. Spans stay in memory until the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One timed call. `parent == 0` marks an op's root span; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Append-only span store; spans are kept in the order they opened.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Room for `capacity` spans, so recording does not reallocate
    /// inside a timed op.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span and return its id.
    pub fn open(&mut self, parent: u32, op: u32, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close the span `id`.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Time `f` as a child of `parent`.
    pub fn run<R>(&mut self, parent: u32, op: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(parent, op, name);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span with given times.
    #[cfg(test)]
    fn push(&mut self, parent: u32, op: u32, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.open(parent, op, name);
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`, in op order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time of span `id`: its duration minus the part of that
    /// interval its direct children cover. Overlapping children count
    /// once; a child reaching outside the parent counts only inside it.
    pub fn self_ns(&self, id: u32) -> u64 {
        let parent = &self.spans[id as usize - 1];
        let mut covered = 0;
        let mut cursor = parent.start_ns;
        // Spans are stored in opening order, so children are sorted by
        // start and all follow their parent.
        for child in self.spans[id as usize..].iter().filter(|s| s.parent == id) {
            let start = child.start_ns.clamp(cursor, parent.end_ns);
            let end = child.end_ns.clamp(cursor, parent.end_ns);
            covered += end - start;
            cursor = cursor.max(end);
        }
        (parent.end_ns - parent.start_ns) - covered
    }

    /// Self times in µs of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_ns(s.id) as f64 / 1e3)
            .collect()
    }

    /// One JSON object per span and line.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let mut rec = Recorder::with_capacity(8);
        rec.push(0, 1, "op", 100, 200); // id 1
        rec.push(1, 1, "a", 110, 130); // 20 covered
        rec.push(1, 1, "b", 120, 150); // overlaps a: 20 more
        rec.push(1, 1, "c", 190, 260); // sticks out: 10 inside
        rec.push(2, 1, "grandchild", 111, 129); // not a direct child
        assert_eq!(rec.self_ns(1), 100 - 20 - 20 - 10);
        assert_eq!(rec.self_ns(2), 20 - 18);
        assert_eq!(rec.self_ns(4), 70);
    }

    #[test]
    fn run_nests_and_reports_by_name() {
        let mut rec = Recorder::with_capacity(4);
        let root = rec.open(0, 7, "op");
        let got = rec.run(root, 7, "layer", || 5);
        rec.close(root);
        assert_eq!(got, 5);
        let [op, layer] = rec.spans() else {
            panic!("two spans")
        };
        assert_eq!((op.id, op.parent, op.op), (1, 0, 7));
        assert_eq!((layer.id, layer.parent, layer.name), (2, 1, "layer"));
        assert!(op.start_ns <= layer.start_ns && layer.end_ns <= op.end_ns);
        assert_eq!(rec.durations_us("layer").len(), 1);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut rec = Recorder::with_capacity(2);
        rec.push(0, 1, "op", 5, 9);
        rec.push(1, 1, "core.kernel", 6, 8);
        let mut text = Vec::new();
        rec.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(
            text.lines().nth(1).unwrap(),
            r#"{"id":2,"parent":1,"op":1,"name":"core.kernel","start_ns":6,"end_ns":8}"#
        );
    }
}

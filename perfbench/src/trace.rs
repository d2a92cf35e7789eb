//! Benchmark-side spans: the benchmark wraps each public call it makes
//! into a layer in a named span (start, end, parent, operation id) and
//! keeps the spans in memory until the run ends. A layer's self time is
//! its span's duration minus the part its child spans cover.
//!
//! A disabled tracer takes no timestamps and records nothing, so the
//! untraced run pays one branch per call site.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps (`engine.collect`, ...).
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to (one triage, one scan session,
    /// one snapshot).
    pub op: u64,
}

/// A single-thread span recorder, owned by the thread that drives the
/// workload. Timings taken elsewhere enter through [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records when `on`, timestamping from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records an already-measured interval (seconds since the epoch) as
    /// a top-level span — for timings taken on another thread.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        if self.on {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: None,
                op: self.op,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total self seconds, total seconds)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += self_time(s.start, s.end, &children[i]);
            e.2 += s.end - s.start;
        }
        out
    }

    /// Mean self time of the spans named `name`, in microseconds (0 when
    /// none were recorded).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        self.by_name()
            .get(name)
            .map(|&(n, self_s, _)| self_s / n as f64 * 1e6)
            .unwrap_or(0.0)
    }

    /// The spans as CSV (`name,op,parent,start_s,end_s`), for writing
    /// out when the run ends.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,op,parent,start_s,end_s\n");
        for s in &self.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{:.9},{:.9}\n",
                s.name, s.op, parent, s.start, s.end
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_report_self_time() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_op(7);
        t.enter("op");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let by = t.by_name();
        let (n, op_self, op_total) = by["op"];
        let (_, child_self, child_total) = by["child"];
        assert_eq!(n, 1);
        assert!(child_total >= 0.002);
        assert_eq!(child_self, child_total, "a leaf's self time is its span");
        assert!((op_self - (op_total - child_total)).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.enter("op");
        t.time("child", || ());
        t.exit();
        t.record("x", 0.0, 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.mean_self_us("op"), 0.0);
    }
}

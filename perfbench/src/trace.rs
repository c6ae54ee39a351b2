//! In-memory spans around the benchmark's calls into each layer, written
//! out when the repetition ends. A span's self time is its duration minus
//! the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Span id (index into the recorder).
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    program: String,
    site: Option<usize>,
}

/// Span recorder shared by the repetition and the campaign hooks.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    workload: String,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(workload: &str) -> Trace {
        Trace {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished interval.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        program: &str,
        site: Option<usize>,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            program: program.to_string(),
            site,
        };
        let mut spans = self.spans.lock().expect("span recorder poisoned by a panicking thread");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a span now; close it with [`Trace::close`]. Children recorded in
    /// between may name it as their parent.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, program: &str) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, program, None)
    }

    /// Set an open span's end to now.
    pub fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span recorder poisoned by a panicking thread")[id].end_ns = end;
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        program: &str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, start, end, parent, program, None);
        (r, end.duration_since(start).as_secs_f64())
    }

    /// Self time in seconds per span name: each span's duration minus the
    /// union of its children's intervals clipped to it.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span recorder poisoned by a panicking thread");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let own = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            *out.entry(s.name).or_insert(0.0) += own.saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// All spans as tab-separated text, one per line.
    pub fn render(&self) -> String {
        let spans = self.spans.lock().expect("span recorder poisoned by a panicking thread");
        let mut out =
            String::from("# id\tparent\tname\tstart_us\tend_us\tworkload\tprogram\tsite\n");
        for (id, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{:.3}\t{:.3}\t{}\t{}\t{}",
                s.parent.map_or_else(|| "-".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self.workload,
                if s.program.is_empty() { "-" } else { &s.program },
                s.site.map_or_else(|| "-".to_string(), |i| i.to_string()),
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn union_of_overlapping_children() {
        let mut v = vec![(10, 20), (15, 30), (40, 50), (0, 5)];
        assert_eq!(covered_ns(&mut v, 0, 45), 5 + 20 + 5);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Trace::new("w");
        let e = t.epoch;
        let at = |ms| e + Duration::from_millis(ms);
        let root = t.record("root", at(0), at(100), None, "", None);
        t.record("child", at(10), at(40), Some(root), "p", Some(1));
        t.record("child", at(30), at(60), Some(root), "p", Some(2));
        let st = t.self_times();
        assert!((st["root"] - 0.050).abs() < 1e-9);
        assert!((st["child"] - 0.060).abs() < 1e-9);
        assert_eq!(t.render().lines().count(), 4);
    }
}

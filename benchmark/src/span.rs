//! Spans recorded from outside the program: the benchmark brackets each
//! call it makes into a layer. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The operation id of spans recorded while setting up.
pub const SETUP_OP: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the operation this span belongs to; spans of one operation
    /// share it.
    pub op: u32,
    /// Index (into the tracer's span list) of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls this span stands for: 1, except where many short calls are
    /// recorded as one span (`core.estimate` inside one enumeration).
    pub calls: u32,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u32, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns, calls: 1 });
        id
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Time one call into a layer as a child span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span whose duration was measured elsewhere (summed short
    /// calls, or a stage replayed on a twin after its parent ended).
    pub fn add(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start_ns: u64,
        duration_ns: u64,
        calls: u32,
    ) {
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns + duration_ns, calls });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    pub calls: u64,
    /// Self time: duration minus the duration of direct child spans.
    pub busy_ns: u64,
    /// Self time of the spans recorded while setting up.
    pub setup_busy_ns: u64,
    pub total_ns: u64,
}

pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c)).collect()
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let stat = out.entry(s.name).or_default();
        stat.calls += u64::from(s.calls);
        stat.busy_ns += own;
        stat.total_ns += s.end_ns - s.start_ns;
        if s.op == SETUP_OP {
            stat.setup_busy_ns += own;
        }
    }
    out
}

/// The spans as a JSON document, one object per span.
pub fn to_json(header: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + header.len() + 32);
    let _ = write!(out, "{{\"stamp\": {header}, \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let op = if s.op == SETUP_OP { "\"setup\"".to_string() } else { s.op.to_string() };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"parent\":{parent},\"op\":{op},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
            s.name, s.start_ns, s.end_ns, s.calls
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { name, op, parent, start_ns: start, end_ns: end, calls: 1 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 ─ a 10..60 ─ b 20..50 (child of a) ; c 70..90 (child of root)
        let spans = vec![
            span("root", 0, None, 0, 100),
            span("a", 0, Some(0), 10, 60),
            span("b", 0, Some(1), 20, 50),
            span("c", 0, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let agg = aggregate(&spans);
        assert_eq!(agg["root"].busy_ns, 30);
        assert_eq!(agg["a"].total_ns, 50);
        // Self times partition the root's duration.
        let total: u64 = agg.values().map(|s| s.busy_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn summed_spans_carry_their_call_count_and_setup_is_kept_apart() {
        let mut spans = vec![span("enumerate", 3, None, 0, 1_000)];
        spans.push(Span { calls: 40, ..span("estimate", 3, Some(0), 0, 250) });
        spans.push(span("register", SETUP_OP, None, 0, 500));
        spans.push(span("register", 9, None, 2_000, 2_100));
        let agg = aggregate(&spans);
        assert_eq!(agg["estimate"].calls, 40);
        assert_eq!(agg["enumerate"].busy_ns, 750);
        assert_eq!((agg["register"].busy_ns, agg["register"].setup_busy_ns), (600, 500));
    }

    #[test]
    fn children_longer_than_their_parent_clamp_to_zero() {
        let spans = vec![span("p", 0, None, 0, 10), span("c", 0, Some(0), 0, 25)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_scopes() {
        let mut t = Tracer::new(8);
        let root = t.begin("root", 1, None);
        let v = t.scope("child", 1, Some(root), || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(to_json("{}", s).contains("\"name\":\"child\""));
    }
}

//! Benchmark-owned spans: recorded around each call into a layer's public
//! functions during the traced pass, kept in memory, written out at exit.
//! The product is not touched; spans inside it are a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. Disabled, `enter`/`exit` do nothing:
/// running the same calls both ways is how `trace_overhead_pct` is measured.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request_id: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request_id,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval its
/// children cover (children clipped to the parent, overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Total {
    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

/// Count, total and self time of every span called `name`.
pub fn total(spans: &[Span], self_ns: &[u64], name: &str) -> Total {
    let mut t = Total::default();
    for (span, own) in spans.iter().zip(self_ns) {
        if span.name == name {
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += own;
        }
    }
    t
}

/// The span dump: one JSON object per line inside an array.
pub fn dump_json(spans: &[Span], self_ns: &[u64]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 16);
    out.push_str("[\n");
    for (i, (span, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\
             \"parent\":{parent},\"request_id\":{}}}",
            span.name, span.start_ns, span.end_ns, span.request_id
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_disjoint_children() {
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)), // disjoint from b
            span("b", 50, 90, Some(0)), // has a nested child
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("request", 100, 200, None),
            span("a", 120, 160, Some(0)),
            span("b", 150, 180, Some(0)), // overlaps a by 10
            span("c", 190, 230, Some(0)), // overhangs the parent by 30
            span("d", 125, 130, Some(0)), // inside a
        ];
        // Covered: [120,180) ∪ [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_by_call_order_and_can_be_switched_off() {
        let mut rec = Recorder::new(true);
        rec.enter("request", 7);
        rec.enter("core.recommend", 7);
        rec.exit();
        rec.enter("serve.http_roundtrip", 7);
        rec.exit();
        rec.exit();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns && spans[1].end_ns <= spans[2].start_ns);
        let own = self_times(spans);
        let t = total(spans, &own, "request");
        assert_eq!(t.count, 1);
        assert_eq!(
            t.self_ns,
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert!(dump_json(spans, &own).contains("\"name\":\"core.recommend\""));

        let mut off = Recorder::new(false);
        off.enter("request", 1);
        off.exit();
        assert!(off.spans().is_empty());
    }
}

//! Debug introspection over recent query traces.
//!
//! Every traced `/recommend` request serialises its [`QueryTrace`] into a
//! fixed-capacity lock-free ring ([`viderec_trace::TraceRing`]) on the way
//! out. Two endpoints read it back:
//!
//! * `GET /debug/queries` — the most recent and the slowest recorded traces,
//!   as JSON with full stage breakdowns;
//! * `GET /debug/trace/<id>` — one trace by its hex id (the id every traced
//!   response echoes in its `trace` field and `X-Trace-Id` header).
//!
//! The ring is best-effort by design: writers never block a worker (a push
//! colliding with an in-flight write is dropped and counted), records are
//! overwritten oldest-first, and a reader observing a torn slot simply skips
//! it. A trace id therefore resolves *while the record is still in the ring*
//! — after `capacity` further queries it is gone, which is the intended
//! semantics for a debugging window, not an audit log.

use std::fmt::Write as _;
use viderec_core::{QueryTrace, Stage};
use viderec_trace::TraceRing;

/// The server's ring of recent [`QueryTrace`] records.
pub struct TraceStore {
    ring: TraceRing<{ QueryTrace::WORDS }>,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceStore {
    /// A store keeping the most recent `capacity` traces (`capacity >= 1`;
    /// 0 is clamped to 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: TraceRing::new(capacity.max(1)),
        }
    }

    /// Number of ring slots.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total traces pushed (successful or dropped).
    pub fn recorded(&self) -> u64 {
        self.ring.pushes()
    }

    /// Traces dropped on a ring-slot collision.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Publishes one trace (lock-free; `false` on a slot collision).
    pub fn record(&self, trace: &QueryTrace) -> bool {
        self.ring.push(&trace.to_words())
    }

    /// The trace with the given id, while it is still in the ring.
    pub fn find(&self, id: u64) -> Option<QueryTrace> {
        self.ring
            .find(|w| w[0] == id)
            .and_then(|w| QueryTrace::from_words(&w))
    }

    fn all(&self) -> Vec<QueryTrace> {
        self.ring
            .snapshot()
            .iter()
            .filter_map(QueryTrace::from_words)
            .collect()
    }

    /// The most recent `n` traces, newest first (ids are assigned from a
    /// monotone counter, so id order is arrival order).
    pub fn recent(&self, n: usize) -> Vec<QueryTrace> {
        let mut traces = self.all();
        traces.sort_by_key(|t| std::cmp::Reverse(t.id));
        traces.truncate(n);
        traces
    }

    /// The `n` slowest traces in the ring, slowest first (ties broken
    /// newest-first).
    pub fn slowest(&self, n: usize) -> Vec<QueryTrace> {
        let mut traces = self.all();
        traces.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(b.id.cmp(&a.id)));
        traces.truncate(n);
        traces
    }

    /// The `GET /debug/queries` document.
    pub fn queries_page(&self, recent_n: usize, slowest_n: usize, enabled: bool) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"enabled\":{enabled},\"capacity\":{},\"recorded\":{},\"dropped\":{},\"recent\":[",
            self.capacity(),
            self.recorded(),
            self.dropped(),
        );
        for (i, t) in self.recent(recent_n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&trace_json(t));
        }
        out.push_str("],\"slowest\":[");
        for (i, t) in self.slowest(slowest_n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&trace_json(t));
        }
        out.push_str("]}");
        out
    }
}

/// Renders one trace as the JSON document both debug endpoints use: totals,
/// pruning counters and the per-stage
/// `{micros, count, alloc_count, alloc_bytes}` breakdown. A stage's `count`
/// is the items its spans were credited with — `bound`: score ceilings,
/// `emd`: exact evaluations, `social` under SR: candidates — so
/// `micros / count` is a per-item cost; it is not the number of clock reads,
/// which follow scoring events. Alloc fields are zero unless the binary
/// installs the counting allocator.
pub fn trace_json(t: &QueryTrace) -> String {
    let scanned = t.stats.scanned;
    let prune_rate = if scanned == 0 {
        0.0
    } else {
        t.stats.pruned as f64 / scanned as f64
    };
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"trace\":\"{:016x}\",\"epoch\":{},\"strategy\":\"{}\",\"k\":{},\
         \"total_micros\":{},\"stage_sum_micros\":{},\"gathered\":{},\"excluded\":{},\
         \"scanned\":{scanned},\"pruned\":{},\"exact_evals\":{},\"prune_rate\":{prune_rate:.4},\
         \"pruned_embed\":{},\"cap_aborted\":{},\"full_sweeps\":{},\
         \"corpus\":{},\"promoted\":{},\"gate\":{},\
         \"stages\":{{",
        t.id,
        t.epoch,
        t.strategy.label(),
        t.k,
        t.total_ns / 1_000,
        t.stage_sum_ns() / 1_000,
        t.gathered,
        t.excluded,
        t.stats.pruned,
        t.stats.exact_evals,
        t.stats.pruned_embed,
        t.stats.cap_aborted,
        t.stats.full_sweeps,
        t.corpus,
        t.promoted,
        t.gate,
    );
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cell = t.stage(stage);
        let alloc = t.alloc(stage);
        let _ = write!(
            out,
            "\"{}\":{{\"micros\":{},\"count\":{},\"alloc_count\":{},\"alloc_bytes\":{}}}",
            stage.label(),
            cell.ns / 1_000,
            cell.count,
            alloc.count,
            alloc.bytes
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use viderec_core::{PruneStats, Strategy};

    fn trace(id: u64, total_ns: u64) -> QueryTrace {
        let mut t = QueryTrace::new(Strategy::CsfSarH, 10);
        t.id = id;
        t.epoch = 3;
        t.total_ns = total_ns;
        t.gathered = 100;
        t.excluded = 1;
        t.stats = PruneStats {
            scanned: 99,
            pruned: 80,
            exact_evals: 19,
            pruned_embed: 7,
            cap_aborted: 30,
            full_sweeps: 200,
        };
        t.cell_mut(Stage::Emd).add(total_ns / 2);
        *t.cells_mut(Stage::Emd).1 = viderec_core::trace::AllocCell {
            count: 2,
            bytes: 512,
        };
        t.corpus = 120;
        t.promoted = 5;
        t.gate = 2;
        t
    }

    #[test]
    fn record_find_and_eviction() {
        let store = TraceStore::new(4);
        for i in 1..=6u64 {
            assert!(store.record(&trace(i, i * 1000)));
        }
        assert_eq!(store.recorded(), 6);
        assert_eq!(store.dropped(), 0);
        // The oldest two were overwritten.
        assert!(store.find(1).is_none());
        assert!(store.find(2).is_none());
        let found = store.find(5).expect("still in the ring");
        assert_eq!(found.id, 5);
        assert_eq!(found.stats.pruned, 80);
        assert!(store.find(77).is_none());
    }

    #[test]
    fn recent_is_newest_first_and_slowest_is_by_total() {
        let store = TraceStore::new(8);
        // Arrival order 1..=5, but id 2 is the slowest.
        for (id, ns) in [
            (1u64, 10_000u64),
            (2, 90_000),
            (3, 5_000),
            (4, 50_000),
            (5, 1_000),
        ] {
            store.record(&trace(id, ns));
        }
        let recent: Vec<u64> = store.recent(3).iter().map(|t| t.id).collect();
        assert_eq!(recent, vec![5, 4, 3]);
        let slowest: Vec<u64> = store.slowest(2).iter().map(|t| t.id).collect();
        assert_eq!(slowest, vec![2, 4]);
        // Asking for more than recorded returns everything.
        assert_eq!(store.recent(100).len(), 5);
    }

    #[test]
    fn trace_json_has_the_full_breakdown() {
        let t = trace(0xAB, 2_000_000);
        let json = trace_json(&t);
        assert!(json.contains("\"trace\":\"00000000000000ab\""), "{json}");
        assert!(json.contains("\"strategy\":\"CSF-SAR-H\""), "{json}");
        assert!(json.contains("\"total_micros\":2000"), "{json}");
        assert!(json.contains("\"stage_sum_micros\":1000"), "{json}");
        assert!(
            json.contains(
                "\"emd\":{\"micros\":1000,\"count\":1,\"alloc_count\":2,\"alloc_bytes\":512}"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"queue\":{\"micros\":0,\"count\":0,\"alloc_count\":0,\"alloc_bytes\":0}"
            ),
            "{json}"
        );
        assert!(json.contains("\"prune_rate\":0.8081"), "{json}");
        assert!(
            json.contains("\"pruned_embed\":7,\"cap_aborted\":30,\"full_sweeps\":200"),
            "{json}"
        );
        assert!(
            json.contains("\"corpus\":120,\"promoted\":5,\"gate\":2"),
            "{json}"
        );
        assert!(!json.contains("shard"), "{json}");
        assert!(json.ends_with("\"alloc_bytes\":0}}}"), "{json}");
    }

    #[test]
    fn queries_page_reports_ring_state() {
        let store = TraceStore::new(4);
        assert_eq!(
            store.queries_page(8, 8, true),
            "{\"enabled\":true,\"capacity\":4,\"recorded\":0,\"dropped\":0,\
             \"recent\":[],\"slowest\":[]}"
        );
        store.record(&trace(9, 500));
        let page = store.queries_page(8, 8, true);
        assert!(page.contains("\"recorded\":1"), "{page}");
        assert!(page.contains("\"trace\":\"0000000000000009\""), "{page}");
    }
}

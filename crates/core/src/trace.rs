//! The per-query trace model: which pipeline stage a microsecond went to.
//!
//! Built on the generic machinery of `viderec-trace` (spans, stage cells,
//! the lock-free trace ring); this module pins down what a *stage* means for
//! the recommender pipeline and how a whole [`QueryTrace`] serialises to the
//! fixed-width `[u64; QueryTrace::WORDS]` records the ring stores.
//!
//! Tracing never changes results: the traced paths run the exact arithmetic
//! of the untraced ones and only read the monotonic clock around it, and a
//! disabled [`Tracer`] collapses every stage to a single branch (asserted by
//! the bit-identity tests).

use crate::prune::PruneStats;
use crate::relevance::Strategy;
pub use viderec_trace::{next_trace_id, AllocCell, Span, StageCell, StageSet, Tracer};

/// Number of pipeline stages a [`QueryTrace`] distinguishes.
pub const NUM_STAGES: usize = 9;

/// The stages of the query pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission-queue wait before a worker picked the request up (serving
    /// layer only; zero for direct library calls).
    Queue,
    /// Query preparation: social vectorisation (SAR scan / chained hash) and
    /// the query-side scoring cache.
    Prepare,
    /// Candidate gathering: full range, or inverted files + LSB forest.
    Gather,
    /// Exclusion filtering.
    Filter,
    /// Social similarity (exact `sJ` or SAR) over the candidates: one span
    /// per first-rung fill, and one over the whole SR scan; `count` is the
    /// `sJ` evaluations (SR: the candidates it scored).
    Social,
    /// Admissible score ceilings (EMD lower bounds) over the candidates: the
    /// ladder's refine runs — first-tier pops, the `κJ` ceilings and their
    /// floor tests, re-queues — and the certificate sweep. One span per run;
    /// `count` is the ceilings the runs computed (plus one per certificate
    /// sweep), so `ns / count` is the per-ceiling cost, not clock reads.
    Bound,
    /// Ordering the ladder's first rung, which is what enables one-step tail
    /// pruning: all of it — the tie group's bitset, the sort of the few
    /// candidates with a social score, the merged write-out. One span per
    /// first-rung fill.
    Sort,
    /// Exact EMD evaluations (`κJ` refinement), one span each.
    Emd,
    /// Top-k heap pushes (one span per scored candidate; for SR the pushes
    /// are inside the `Social` span), the wholesale prune that ends a ladder
    /// and the final ranked sort.
    TopK,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Queue,
        Stage::Prepare,
        Stage::Gather,
        Stage::Filter,
        Stage::Social,
        Stage::Bound,
        Stage::Sort,
        Stage::Emd,
        Stage::TopK,
    ];

    /// The stage's slot in a [`StageSet<NUM_STAGES>`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Stage::Queue => 0,
            Stage::Prepare => 1,
            Stage::Gather => 2,
            Stage::Filter => 3,
            Stage::Social => 4,
            Stage::Bound => 5,
            Stage::Sort => 6,
            Stage::Emd => 7,
            Stage::TopK => 8,
        }
    }

    /// The metric/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Prepare => "prepare",
            Stage::Gather => "gather",
            Stage::Filter => "filter",
            Stage::Social => "social",
            Stage::Bound => "bound",
            Stage::Sort => "sort",
            Stage::Emd => "emd",
            Stage::TopK => "topk",
        }
    }
}

/// Everything one query left behind: stage timings and pruning counters, in
/// a fixed-width record the serving layer's trace ring can store without
/// allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryTrace {
    /// Trace id (0 until the serving layer assigns one).
    pub id: u64,
    /// Snapshot epoch the query ran against (0 for direct library calls).
    pub epoch: u64,
    /// Strategy the query ran under.
    pub strategy: Strategy,
    /// Requested `k`.
    pub k: u64,
    /// End-to-end wall time: the scan for library calls, overwritten with
    /// admission-to-scored time by the serving layer. Always ≥ the sum of
    /// the stage times (stages tile disjoint sub-intervals).
    pub total_ns: u64,
    /// Candidates gathered before exclusion filtering.
    pub gathered: u64,
    /// Candidates dropped by exclusion filtering.
    pub excluded: u64,
    /// Scan counters (`scanned` = gathered − excluded; `pruned` +
    /// `exact_evals` = `scanned` for content strategies).
    pub stats: PruneStats,
    /// Per-stage `{ns, count}` accumulators.
    pub stages: StageSet<NUM_STAGES>,
    /// Per-stage `{alloc_count, alloc_bytes}` accumulators, recorded by the
    /// same spans that fill `stages`. All zeros unless the binary installs
    /// `viderec-prof`'s counting allocator (library callers see zeros, not
    /// errors).
    pub allocs: [AllocCell; NUM_STAGES],
    /// Corpus size at query time — the denominator of the retrieved-vs-corpus
    /// ratio the gather stage reports (`stats.scanned / corpus`).
    pub corpus: u64,
    /// Certificate-sweep promotions: videos the index gather missed whose
    /// admissible score ceiling reached the top-k floor, so they were scored
    /// exactly after all (index-gated retrieval only).
    pub promoted: u64,
    /// Retrieval-gate outcome: 0 = no gate (paper-mode full universe),
    /// 1 = gated approximate, 2 = gated with a certified-exact result.
    pub gate: u64,
}

impl QueryTrace {
    /// Words of the fixed-width ring record: 16 scalars, then `{ns, count,
    /// alloc_count, alloc_bytes}` per stage.
    pub const WORDS: usize = 16 + 4 * NUM_STAGES;

    /// A fresh trace for one query.
    pub fn new(strategy: Strategy, k: usize) -> Self {
        Self {
            id: 0,
            epoch: 0,
            strategy,
            k: k as u64,
            total_ns: 0,
            gathered: 0,
            excluded: 0,
            stats: PruneStats::default(),
            stages: StageSet::default(),
            allocs: [AllocCell::default(); NUM_STAGES],
            corpus: 0,
            promoted: 0,
            gate: 0,
        }
    }

    /// The accumulated cell of one stage.
    pub fn stage(&self, stage: Stage) -> StageCell {
        self.stages.get(stage.index())
    }

    /// Mutable cell of one stage (span recording).
    #[inline]
    pub fn cell_mut(&mut self, stage: Stage) -> &mut StageCell {
        self.stages.cell_mut(stage.index())
    }

    /// The accumulated allocation cell of one stage.
    pub fn alloc(&self, stage: Stage) -> AllocCell {
        self.allocs[stage.index()]
    }

    /// Split borrow of one stage's time and allocation cells, for
    /// [`Span::lap_n`] (the two cells
    /// live in different fields, so both `&mut`s coexist).
    #[inline]
    pub fn cells_mut(&mut self, stage: Stage) -> (&mut StageCell, &mut AllocCell) {
        let i = stage.index();
        (self.stages.cell_mut(i), &mut self.allocs[i])
    }

    /// Ends `span` into `stage`'s time and allocation cells.
    #[inline]
    pub fn stop_span(&mut self, mut span: Span, stage: Stage) {
        self.lap_span(&mut span, stage);
    }

    /// Laps `span` into `stage`'s time and allocation cells.
    #[inline]
    pub fn lap_span(&mut self, span: &mut Span, stage: Stage) {
        self.lap_span_n(span, stage, 1);
    }

    /// Laps `span` into `stage`'s cells as one span over `n` items — a run
    /// of candidates closed by a single clock read ([`Span::lap_n`]).
    #[inline]
    pub fn lap_span_n(&mut self, span: &mut Span, stage: Stage, n: u64) {
        #[cfg(test)]
        SPAN_CLOSES.set(SPAN_CLOSES.get() + 1);
        let (cell, alloc) = self.cells_mut(stage);
        span.lap_n(cell, alloc, n);
    }

    /// Sum of all stage times — by construction ≤ [`Self::total_ns`].
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.total_ns()
    }

    /// Serialises to the fixed-width ring record.
    pub fn to_words(&self) -> [u64; Self::WORDS] {
        let mut w = [0u64; Self::WORDS];
        w[0] = self.id;
        w[1] = self.epoch;
        w[2] = strategy_index(self.strategy);
        w[3] = self.k;
        w[4] = self.total_ns;
        w[5] = self.gathered;
        w[6] = self.excluded;
        w[7] = self.stats.scanned;
        w[8] = self.stats.pruned;
        w[9] = self.stats.exact_evals;
        w[10] = self.corpus;
        w[11] = self.promoted;
        w[12] = self.gate;
        w[13] = self.stats.pruned_embed;
        w[14] = self.stats.cap_aborted;
        w[15] = self.stats.full_sweeps;
        let mut at = 16;
        for (i, cell) in self.stages.iter() {
            w[at] = cell.ns;
            w[at + 1] = cell.count;
            w[at + 2] = self.allocs[i].count;
            w[at + 3] = self.allocs[i].bytes;
            at += 4;
        }
        w
    }

    /// Deserialises a ring record; `None` if the strategy word is invalid
    /// (a record from a different build, or a torn slot the ring failed to
    /// detect — both answered by dropping the record).
    pub fn from_words(w: &[u64; Self::WORDS]) -> Option<Self> {
        let mut t = QueryTrace::new(strategy_from_index(w[2])?, w[3] as usize);
        t.id = w[0];
        t.epoch = w[1];
        t.total_ns = w[4];
        t.gathered = w[5];
        t.excluded = w[6];
        t.stats = PruneStats {
            scanned: w[7],
            pruned: w[8],
            exact_evals: w[9],
            pruned_embed: w[13],
            cap_aborted: w[14],
            full_sweeps: w[15],
        };
        t.corpus = w[10];
        t.promoted = w[11];
        t.gate = w[12];
        let mut at = 16;
        for i in 0..NUM_STAGES {
            *t.stages.cell_mut(i) = StageCell {
                ns: w[at],
                count: w[at + 1],
            };
            t.allocs[i] = AllocCell {
                count: w[at + 2],
                bytes: w[at + 3],
            };
            at += 4;
        }
        Some(t)
    }
}

#[cfg(test)]
thread_local! {
    /// Spans this thread closed into a [`QueryTrace`] (`stop_span`,
    /// `lap_span`, `lap_span_n`), tracer on or off: each is one clock read
    /// when tracing, so the tests bound a query's reads by counting them.
    pub(crate) static SPAN_CLOSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn strategy_index(s: Strategy) -> u64 {
    match s {
        Strategy::Cr => 0,
        Strategy::Sr => 1,
        Strategy::Csf => 2,
        Strategy::CsfSar => 3,
        Strategy::CsfSarH => 4,
    }
}

fn strategy_from_index(i: u64) -> Option<Strategy> {
    Some(match i {
        0 => Strategy::Cr,
        1 => Strategy::Sr,
        2 => Strategy::Csf,
        3 => Strategy::CsfSar,
        4 => Strategy::CsfSarH,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = assert!(QueryTrace::WORDS == 52);

    #[test]
    fn stage_indices_are_a_permutation() {
        let mut seen = [false; NUM_STAGES];
        for s in Stage::ALL {
            assert!(!seen[s.index()], "{} double-indexed", s.label());
            seen[s.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn words_roundtrip_preserves_everything() {
        let mut t = QueryTrace::new(Strategy::CsfSarH, 17);
        t.id = 0xdead_beef;
        t.epoch = 42;
        t.total_ns = 1_000_000;
        t.gathered = 900;
        t.excluded = 3;
        t.stats = PruneStats {
            scanned: 897,
            pruned: 500,
            exact_evals: 397,
            pruned_embed: 41,
            cap_aborted: 120,
            full_sweeps: 980,
        };
        t.cell_mut(Stage::Emd).add(123_456);
        t.cell_mut(Stage::Queue).add(7);
        t.allocs[Stage::Prepare.index()] = AllocCell {
            count: 12,
            bytes: 4096,
        };
        t.allocs[Stage::Emd.index()] = AllocCell {
            count: 1,
            bytes: 64,
        };
        t.corpus = 1_000;
        t.promoted = 5;
        t.gate = 2;
        let back = QueryTrace::from_words(&t.to_words()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn invalid_strategy_word_is_rejected() {
        let mut w = QueryTrace::new(Strategy::Cr, 1).to_words();
        w[2] = 99;
        assert!(QueryTrace::from_words(&w).is_none());
    }

    #[test]
    fn every_strategy_roundtrips_through_its_index() {
        for s in [
            Strategy::Cr,
            Strategy::Sr,
            Strategy::Csf,
            Strategy::CsfSar,
            Strategy::CsfSarH,
        ] {
            assert_eq!(strategy_from_index(strategy_index(s)), Some(s));
        }
    }

    #[test]
    fn stage_sum_tracks_cells() {
        let mut t = QueryTrace::new(Strategy::Csf, 5);
        t.cell_mut(Stage::Social).add(10);
        t.cell_mut(Stage::Emd).add(30);
        assert_eq!(t.stage_sum_ns(), 40);
        assert_eq!(t.stage(Stage::Emd), StageCell { ns: 30, count: 1 });
    }
}

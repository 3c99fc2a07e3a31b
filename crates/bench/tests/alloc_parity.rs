//! With the counting global allocator installed — the configuration the
//! serve binaries ship — tracing must stay a pure observer: traced and
//! untraced queries return bit-identical results, while the traced path's
//! per-stage `AllocCell`s actually populate. Without a counting allocator
//! those cells read zero by design (see `viderec_trace::alloc`), so this is
//! the only place the "populated when counted" half of the contract can be
//! exercised.

use std::sync::{Mutex, MutexGuard, PoisonError};
use viderec_core::{
    CorpusVideo, QueryVideo, Recommender, RecommenderConfig, RetrievalMode, Stage, Strategy, Tracer,
};
use viderec_eval::community::{Community, CommunityConfig};
use viderec_eval::{StreamConfig, StreamingCommunity};
use viderec_serve::wire::encode_ingest_into;
use viderec_signature::SignatureSeries;
use viderec_trace::alloc::AllocSnapshot;
use viderec_video::VideoId;

#[global_allocator]
static ALLOC: viderec_prof::CountingAlloc = viderec_prof::CountingAlloc::system();

/// The tests here run on parallel threads of one process, and one of them
/// reads the process-global counters: each holds this lock for its whole
/// body, so no other test's allocations land in that reading.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn strategies() -> [Strategy; 3] {
    [Strategy::Csf, Strategy::CsfSar, Strategy::CsfSarH]
}

#[test]
fn tracing_is_a_pure_observer_under_the_counting_allocator() {
    let _serial = serial();
    assert!(viderec_prof::counting_installed());

    let community = Community::generate(CommunityConfig::tiny(41));
    let recommender = Recommender::build(RecommenderConfig::default(), community.source_corpus())
        .expect("tiny corpus builds");
    let queries: Vec<QueryVideo> = community
        .source_corpus()
        .iter()
        .take(4)
        .map(QueryVideo::from_corpus)
        .collect();

    for strategy in strategies() {
        for q in &queries {
            let (off, _) = recommender.recommend_traced(strategy, q, 5, &[], Tracer::OFF);
            let (on, trace) = recommender.recommend_traced(strategy, q, 5, &[], Tracer::ON);

            assert_eq!(off.len(), on.len(), "{}", strategy.label());
            for (a, b) in off.iter().zip(&on) {
                assert_eq!(a.video, b.video, "{}", strategy.label());
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "traced and untraced scores must be bit-identical ({})",
                    strategy.label()
                );
            }

            // The counting allocator is live, so a traced query's stage
            // cells must carry real deltas somewhere: every strategy at
            // least sorts its candidates into a fresh top-k vector.
            let total: u64 = Stage::ALL.iter().map(|s| trace.alloc(*s).bytes).sum();
            assert!(
                total > 0,
                "traced query recorded no allocations under the counting \
                 allocator ({})",
                strategy.label()
            );
        }
    }
}

#[test]
fn untraced_queries_record_no_alloc_cells() {
    let _serial = serial();
    let community = Community::generate(CommunityConfig::tiny(43));
    let recommender = Recommender::build(RecommenderConfig::default(), community.source_corpus())
        .expect("tiny corpus builds");
    let q = QueryVideo::from_corpus(&community.source_corpus()[0]);

    let (_, trace) = recommender.recommend_traced(Strategy::CsfSarH, &q, 5, &[], Tracer::OFF);
    for stage in Stage::ALL {
        assert_eq!(
            trace.alloc(stage),
            viderec_trace::AllocCell::default(),
            "Tracer::OFF must not touch the alloc cells"
        );
    }
}

/// Building the ladder's first rung — the social side list under `Social`,
/// the tie-group bitset and the ordered queue under `Sort` — runs on this
/// thread's scratch: once a query has sized it, no later query allocates in
/// either stage, in the paper universe or gated (where the certificate's
/// survivors are enqueued a second time).
#[test]
fn first_rung_allocates_nothing_once_warm() {
    let _serial = serial();
    let community = Community::generate(CommunityConfig::tiny(47));
    let corpus = community.source_corpus();
    let queries: Vec<QueryVideo> = corpus.iter().map(QueryVideo::from_corpus).collect();
    for mode in [RetrievalMode::Paper, RetrievalMode::GatedCertified] {
        let cfg = RecommenderConfig::default().with_retrieval(mode);
        let recommender = Recommender::build(cfg, corpus.clone()).expect("tiny corpus builds");
        for strategy in [Strategy::Cr, Strategy::Csf, Strategy::CsfSarH] {
            // The widest first rung there is sizes the scratch.
            for q in &queries {
                recommender.recommend_traced(strategy, q, 5, &[], Tracer::OFF);
            }
            for q in &queries {
                let (_, trace) = recommender.recommend_traced(strategy, q, 5, &[], Tracer::ON);
                for stage in [Stage::Social, Stage::Sort] {
                    assert_eq!(
                        trace.alloc(stage),
                        viderec_trace::AllocCell::default(),
                        "{mode:?} {} allocated in {}",
                        strategy.label(),
                        stage.label()
                    );
                }
                assert!(trace.stage(Stage::Sort).count >= 1);
            }
        }
    }
}

/// `n` signatures taken in turn from the corpus' series, so every one of
/// them matches something in the corpus.
fn long_series(corpus: &[CorpusVideo], n: usize) -> SignatureSeries {
    let sigs = corpus.iter().flat_map(|v| v.series.signatures()).cycle();
    SignatureSeries::new(sigs.take(n).cloned().collect())
}

/// The bound ladder's ceilings, its refined tier and the exact `κJ` matcher
/// run on this thread's scratch too, and a query series longer than any
/// fixed buffer grows it once: on a corpus holding series of 40 signatures,
/// queried with them, no warm query allocates in `Bound` or `Emd`, in the
/// paper universe or gated — the gated certificate sweep, timed under
/// `Bound`, counts the query's distinct names on the same scratch.
#[test]
fn ceilings_and_exact_matching_allocate_nothing_once_warm() {
    let _serial = serial();
    let community = Community::generate(CommunityConfig::tiny(53));
    let mut corpus = community.source_corpus();
    let next_id = corpus.iter().map(|v| v.id.0).max().unwrap_or(0) + 1;
    let long: Vec<CorpusVideo> = (0..2)
        .map(|n| CorpusVideo {
            id: VideoId(next_id + n as u64),
            series: long_series(&corpus[n..], 40),
            users: corpus[n].users.clone(),
        })
        .collect();
    corpus.extend(long.iter().cloned());
    let queries: Vec<QueryVideo> = long
        .iter()
        .chain(&corpus[..4])
        .map(QueryVideo::from_corpus)
        .collect();
    assert!(queries[0].series.len() > 32);
    for mode in [RetrievalMode::Paper, RetrievalMode::GatedCertified] {
        let cfg = RecommenderConfig::default().with_retrieval(mode);
        let recommender = Recommender::build(cfg, corpus.clone()).expect("tiny corpus builds");
        for strategy in [Strategy::Cr, Strategy::Csf, Strategy::CsfSarH] {
            for q in &queries {
                recommender.recommend_traced(strategy, q, 5, &[], Tracer::OFF);
            }
            for q in &queries {
                let (_, trace) = recommender.recommend_traced(strategy, q, 5, &[], Tracer::ON);
                for stage in [Stage::Bound, Stage::Emd] {
                    assert_eq!(
                        trace.alloc(stage),
                        viderec_trace::AllocCell::default(),
                        "{mode:?} {} allocated in {} ({} signatures)",
                        strategy.label(),
                        stage.label(),
                        q.series.len()
                    );
                }
                assert!(trace.stage(Stage::Emd).count >= 1);
            }
        }
    }
}

/// Encodes `corpus` as a boot snapshot's `ingest` lines into `out`; returns
/// the allocations this thread made doing it.
fn encode_lines(corpus: &[CorpusVideo], out: &mut String) -> viderec_trace::AllocCell {
    let before = AllocSnapshot::take();
    for video in corpus {
        encode_ingest_into(video, out);
        out.push('\n');
    }
    before.delta()
}

/// The wire encoder writes a whole corpus into the caller's buffer: no
/// per-video, per-field or per-`f64` string. Into a buffer already big
/// enough, a 1 000-video corpus allocates nothing; into an empty one, only
/// the buffer's own growth — at most one allocation per doubling.
#[test]
fn encoding_a_corpus_allocates_only_its_buffer() {
    let _serial = serial();
    let corpus = StreamingCommunity::new(StreamConfig::at_scale(1_000, 0x5CA1E)).materialize();
    assert_eq!(corpus.len(), 1_000);

    let mut grown = String::new();
    let spent = encode_lines(&corpus, &mut grown);
    let doublings = u64::from(usize::BITS - grown.capacity().leading_zeros());
    assert!(spent.count >= 1, "the buffer must have grown");
    assert!(
        spent.count <= doublings,
        "{} allocations for a {}-byte buffer ({doublings} doublings)",
        spent.count,
        grown.capacity()
    );

    let mut sized = String::with_capacity(grown.len());
    let spent = encode_lines(&corpus, &mut sized);
    assert_eq!(spent, viderec_trace::AllocCell::default());
    assert_eq!(sized, grown);
}

/// `build`'s allocations per signature on a streamed corpus. The content
/// half runs on a thread of its own, which this thread's cells do not see,
/// so the count comes off the global counters; that thread has exited by
/// the time `build` returns and its unflushed batch — fewer than 64 events —
/// never reaches them, so the bound is checked with 63 added back. Sorting
/// and embedding each signature in reused buffers, into arena columns
/// allocated once from the corpus totals, measures 5.9 per signature here;
/// three temporary `Vec`s a signature, or columns grown by doubling, read
/// over 10.
#[test]
fn build_allocates_a_bounded_count_per_signature() {
    let _serial = serial();
    let corpus = StreamingCommunity::new(StreamConfig::at_scale(2_000, 0xB1D)).materialize();
    let signatures: usize = corpus.iter().map(|v| v.series.len()).sum();
    let videos = corpus.len() as u64;

    let before = viderec_prof::heap_stats();
    let recommender = Recommender::build(RecommenderConfig::default(), corpus);
    let after = viderec_prof::heap_stats();
    assert_eq!(recommender.map(|r| r.num_videos()).ok(), Some(2_000));

    let counted = after.total_allocs - before.total_allocs;
    let bound = signatures as f64 * 6.25;
    assert!(
        counted >= videos,
        "{counted} allocations for {videos} videos"
    );
    assert!(
        (counted + 63) as f64 <= bound,
        "{counted} allocations (+63 unflushed) for {signatures} signatures: bound {bound}"
    );
}

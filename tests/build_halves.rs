//! `Recommender::build` runs its content half (ids, scoring arena, reach
//! index, LSB forest) on a spawned thread beside its social half (registry, UIG,
//! sub-communities, chained hash, rows, inverted files, engagement lists).
//! Each half is sequential in corpus order, so however the two interleave
//! the built index is the same, part by part and bit for bit, and answers
//! exactly as its reference scans do.

use viderec::core::{CorpusVideo, QueryVideo, RecError, Recommender, RecommenderConfig};
use viderec::core::{RetrievalMode, Strategy};
use viderec::eval::{StreamConfig, StreamingCommunity};
use viderec::video::VideoId;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Cr,
    Strategy::Sr,
    Strategy::Csf,
    Strategy::CsfSar,
    Strategy::CsfSarH,
];

fn streamed(videos: usize, seed: u64) -> (StreamingCommunity, Vec<CorpusVideo>) {
    let stream = StreamingCommunity::new(StreamConfig::at_scale(videos, seed));
    let corpus = stream.materialize();
    (stream, corpus)
}

fn cfg(retrieval: RetrievalMode) -> RecommenderConfig {
    RecommenderConfig {
        retrieval,
        ..Default::default()
    }
}

/// `(id, score bits)` of a ranking.
fn bits(ranking: &[viderec::core::Scored]) -> Vec<(VideoId, u64)> {
    ranking
        .iter()
        .map(|s| (s.video, s.score.to_bits()))
        .collect()
}

#[test]
fn two_builds_of_a_streamed_corpus_are_equal_part_by_part() {
    let (_, corpus) = streamed(2_000, 0xB0075);
    let first = Recommender::build(cfg(RetrievalMode::Paper), corpus.clone()).unwrap();
    for _ in 0..3 {
        let again = Recommender::build(cfg(RetrievalMode::Paper), corpus.clone()).unwrap();
        assert_eq!(first.differing_part(&again), None);
    }
    assert_eq!(first.num_videos(), 2_000);

    // The probe sees a change in either half.
    let mut swapped = corpus.clone();
    swapped.swap(0, 1);
    let other = Recommender::build(cfg(RetrievalMode::Paper), swapped).unwrap();
    assert_eq!(first.differing_part(&other), Some("ids"));
    let mut renamed = corpus;
    renamed[7].users[0].push('\'');
    let other = Recommender::build(cfg(RetrievalMode::Paper), renamed).unwrap();
    assert_eq!(first.differing_part(&other), Some("registry"));
}

/// Ingest extends the content half — ids, series, arena, reach index, LSB
/// forest — to what a build over the whole corpus makes, part by part:
/// whatever part the probe names first, it is a social one.
#[test]
fn ingest_leaves_the_content_half_a_build_makes() {
    let (_, corpus) = streamed(2_000, 0xB0078);
    let whole = Recommender::build(cfg(RetrievalMode::Paper), corpus.clone()).unwrap();
    let mut grown =
        Recommender::build(cfg(RetrievalMode::Paper), corpus[..1_500].to_vec()).unwrap();
    for batch in [1_500..1_501, 1_501..1_800, 1_800..2_000] {
        grown.add_videos(corpus[batch].to_vec()).unwrap();
    }
    let content = ["ids", "series", "arena", "reach", "lsb"];
    let first = grown.differing_part(&whole);
    assert!(
        first.is_none_or(|part| !content.contains(&part)),
        "{first:?}"
    );
}

/// The engine against its reference scan for every strategy: the unpruned
/// scan over the paper's candidate universe, and the true full-corpus scan
/// under the certified gate, by `(id, score bits)`.
#[test]
fn every_strategy_answers_as_its_reference_scan() {
    let (stream, corpus) = streamed(2_000, 0xB0076);
    let queries: Vec<QueryVideo> = stream
        .query_ids(4)
        .iter()
        .map(|id| corpus.iter().find(|video| video.id == *id).unwrap())
        .map(QueryVideo::from_corpus)
        .collect();
    for retrieval in [RetrievalMode::Paper, RetrievalMode::GatedCertified] {
        let rec = Recommender::build(cfg(retrieval), corpus.clone()).unwrap();
        for strategy in STRATEGIES {
            for query in &queries {
                let got = rec.recommend_excluding(strategy, query, 10, &[]);
                let want = match retrieval {
                    RetrievalMode::Paper => {
                        rec.recommend_unpruned_excluding(strategy, query, 10, &[])
                    }
                    _ => rec.recommend_naive_excluding(strategy, query, 10, &[]),
                };
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} {retrieval:?}",
                    strategy.label()
                );
            }
        }
    }
}

/// Duplicates near both ends of the corpus: the content half stops at the
/// first id it sees twice, as the sequential build did.
#[test]
fn duplicate_ids_near_both_ends_name_the_earlier_pair() {
    let (_, mut corpus) = streamed(300, 0xB0077);
    let n = corpus.len();
    let (early, late) = (corpus[1].id, corpus[n - 2].id);
    corpus[3].id = early;
    corpus[n - 1].id = late;
    let err = Recommender::build(cfg(RetrievalMode::Paper), corpus).err();
    assert_eq!(err, Some(RecError::DuplicateVideo(early.0)));
}

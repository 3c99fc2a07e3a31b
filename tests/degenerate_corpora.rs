//! Degenerate corpora as fixtures: the smallest and strangest inputs the
//! recommender accepts, each answered by the engine exactly as by its
//! reference scan.
//!
//! Every case runs the five strategies under both exact retrieval modes and
//! two sub-community counts (1, and the paper's 60, far more than these
//! corpora have users), at `k` of 1, 3 and past the corpus, and compares the
//! engine (`recommend_excluding`) with `recommend_unpruned_excluding` in
//! paper mode and with `recommend_naive_excluding` under the certified gate,
//! by `(id, score bits)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viderec::core::{
    CorpusVideo, QueryVideo, Recommender, RecommenderConfig, RetrievalMode, Strategy,
};
use viderec::signature::cuboid::{Cuboid, CuboidSignature};
use viderec::signature::SignatureSeries;
use viderec::video::VideoId;

const STRATEGIES: [Strategy; 5] = [
    Strategy::Cr,
    Strategy::Sr,
    Strategy::Csf,
    Strategy::CsfSar,
    Strategy::CsfSarH,
];

/// A signature of `(value, weight)` cuboids.
fn sig(cuboids: &[(f64, f64)]) -> CuboidSignature {
    let cuboids = cuboids
        .iter()
        .map(|&(value, weight)| Cuboid { value, weight });
    CuboidSignature::new(cuboids.collect())
}

/// A series of one-cuboid-per-value signatures, equal weights.
fn series(sigs: &[&[f64]]) -> SignatureSeries {
    let sigs = sigs.iter().map(|values| {
        let w = 1.0 / values.len() as f64;
        sig(&values.iter().map(|&v| (v, w)).collect::<Vec<_>>())
    });
    SignatureSeries::new(sigs.collect())
}

/// A random series of 1..=4 signatures of 1..=3 cuboids, values in ±8.
fn random_series(rng: &mut StdRng) -> SignatureSeries {
    let sigs = (0..rng.gen_range(1..=4)).map(|_| {
        let mut ws: Vec<f64> = (0..rng.gen_range(1..=3))
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let total: f64 = ws.iter().sum();
        ws.iter_mut().for_each(|w| *w /= total);
        let cuboids: Vec<(f64, f64)> = ws.iter().map(|&w| (rng.gen_range(-8.0..8.0), w)).collect();
        sig(&cuboids)
    });
    SignatureSeries::new(sigs.collect())
}

fn video(id: u64, series: SignatureSeries, users: &[&str]) -> CorpusVideo {
    CorpusVideo {
        id: VideoId(id),
        series,
        users: users.iter().map(|u| u.to_string()).collect(),
    }
}

/// `n` ordinary videos: random series, two or three users from a pool of
/// eight, ids from `first`.
fn ordinary(first: u64, n: usize, seed: u64) -> Vec<CorpusVideo> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|i| {
            let users: Vec<String> = (0..rng.gen_range(2..=3))
                .map(|_| format!("u{}", rng.gen_range(0..8)))
                .collect();
            let users: Vec<&str> = users.iter().map(String::as_str).collect();
            video(first + i, random_series(&mut rng), &users)
        })
        .collect()
}

/// The query a click on `video` sends.
fn click(v: &CorpusVideo) -> QueryVideo {
    QueryVideo {
        series: v.series.clone(),
        users: v.users.clone(),
    }
}

/// Runs every strategy, both exact modes, `k_subcommunities` ∈ {1, 60} and
/// `k` ∈ {1, 3, corpus + 5} over each `(query, exclusions)` and compares the
/// engine with its reference scan by `(id, score bits)`.
fn check(label: &str, corpus: &[CorpusVideo], queries: &[(QueryVideo, Vec<VideoId>)]) {
    let build = |cfg| Recommender::build(cfg, corpus.to_vec()).expect("build");
    check_built(label, build, corpus.len(), queries);
}

/// [`check`] over the recommender `build` makes from each configuration,
/// for a corpus of `videos` videos.
fn check_built(
    label: &str,
    build: impl Fn(RecommenderConfig) -> Recommender,
    videos: usize,
    queries: &[(QueryVideo, Vec<VideoId>)],
) {
    for k_sub in [1, 60] {
        for mode in [RetrievalMode::Paper, RetrievalMode::GatedCertified] {
            let cfg = RecommenderConfig {
                k_subcommunities: k_sub,
                ..Default::default()
            }
            .with_retrieval(mode);
            let rec = build(cfg);
            for strategy in STRATEGIES {
                for (qi, (q, exclude)) in queries.iter().enumerate() {
                    for k in [1, 3, videos + 5] {
                        let got = rec.recommend_excluding(strategy, q, k, exclude);
                        let want = match mode {
                            RetrievalMode::Paper => {
                                rec.recommend_unpruned_excluding(strategy, q, k, exclude)
                            }
                            _ => rec.recommend_naive_excluding(strategy, q, k, exclude),
                        };
                        let bits = |s: &[viderec::core::Scored]| -> Vec<(VideoId, u64)> {
                            s.iter().map(|s| (s.video, s.score.to_bits())).collect()
                        };
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{label}: {} {mode:?} k_sub={k_sub} query={qi} k={k}",
                            strategy.label()
                        );
                        assert!(got.iter().all(|s| !exclude.contains(&s.video)));
                    }
                }
            }
        }
    }
}

#[test]
fn a_one_video_corpus_answers_itself_or_nothing() {
    let corpus = vec![video(7, series(&[&[1.0], &[2.0, 3.0]]), &["ann", "bob"])];
    let q = click(&corpus[0]);
    check(
        "one video",
        &corpus,
        &[(q.clone(), vec![]), (q, vec![VideoId(7)])],
    );
    let rec = Recommender::build(RecommenderConfig::default(), corpus.clone()).expect("build");
    let q = click(&corpus[0]);
    assert_eq!(rec.recommend(Strategy::Csf, &q, 3).len(), 1);
    assert!(rec
        .recommend_excluding(Strategy::Csf, &q, 3, &[VideoId(7)])
        .is_empty());
}

#[test]
fn videos_without_a_series_or_users_score_like_the_reference() {
    let mut corpus = ordinary(0, 12, 0xD1);
    corpus.push(video(100, SignatureSeries::default(), &["u1", "u2"]));
    corpus.push(video(101, series(&[&[0.5], &[-1.0]]), &[]));
    corpus.push(video(102, SignatureSeries::default(), &[]));
    corpus.push(video(103, SignatureSeries::default(), &[]));
    let queries: Vec<_> = [0, 12, 13, 14]
        .iter()
        .map(|&i| (click(&corpus[i]), vec![corpus[i].id]))
        .collect();
    check("empty series / no users", &corpus, &queries);
}

#[test]
fn a_query_with_no_users_and_no_series_matches_the_reference() {
    let corpus = ordinary(0, 16, 0xD2);
    let blank = QueryVideo {
        series: SignatureSeries::default(),
        users: Vec::new(),
    };
    check(
        "blank query",
        &corpus,
        &[(blank.clone(), vec![]), (blank, vec![VideoId(3)])],
    );
}

#[test]
fn k_at_or_past_the_corpus_returns_every_video_the_reference_does() {
    let corpus = ordinary(0, 9, 0xD3);
    let q = click(&corpus[4]);
    check(
        "k >= corpus",
        &corpus,
        &[(q.clone(), vec![]), (q, vec![VideoId(4)])],
    );
    let rec = Recommender::build(RecommenderConfig::default(), corpus.clone()).expect("build");
    let q = click(&corpus[4]);
    for k in [9, 10, 100] {
        assert_eq!(rec.recommend(Strategy::CsfSarH, &q, k).len(), 9);
    }
}

#[test]
fn thirty_identical_signatures_tie_and_break_by_id() {
    let same = series(&[&[1.0, 2.0], &[0.25]]);
    let corpus: Vec<_> = (0..30u64)
        .map(|i| video(30 - i, same.clone(), &[["a", "b", "c"][i as usize % 3]]))
        .collect();
    let q = click(&corpus[0]);
    check(
        "identical",
        &corpus,
        &[(q.clone(), vec![]), (q, vec![VideoId(30)])],
    );
    let rec = Recommender::build(RecommenderConfig::default(), corpus).expect("build");
    let q = rec.query_for(VideoId(1)).expect("indexed");
    let top = rec.recommend(Strategy::Cr, &q, 30);
    let ids: Vec<u64> = top.iter().map(|s| s.video.0).collect();
    assert_eq!(
        ids,
        (1..=30).collect::<Vec<_>>(),
        "CR ties break by ascending id"
    );
}

#[test]
fn one_user_on_every_video_twice_over_matches_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xD4);
    let corpus: Vec<_> = (0..14u64)
        .map(|i| video(i, random_series(&mut rng), &["solo", "solo"]))
        .collect();
    let queries: Vec<_> = [0, 5]
        .iter()
        .map(|&i| (click(&corpus[i]), vec![corpus[i].id]))
        .collect();
    check("one repeated user", &corpus, &queries);
}

#[test]
fn a_corpus_with_zero_comments_matches_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xD5);
    let corpus: Vec<_> = (0..14u64)
        .map(|i| video(i, random_series(&mut rng), &[]))
        .collect();
    let queries: Vec<_> = [0, 9]
        .iter()
        .map(|&i| (click(&corpus[i]), vec![corpus[i].id]))
        .collect();
    check("zero comments", &corpus, &queries);
}

/// A corpus with no users, then a batch of comments from users it never
/// saw: the UIG starts empty, so the first user interned is admitted like
/// every later one — the chained hash gives each user the slot the raw
/// assignment (and so every row's SAR vector) does — and every strategy
/// still answers as its reference scan.
#[test]
fn comments_from_new_users_on_a_user_less_corpus_hash_every_user_to_its_raw_slot() {
    use viderec::core::SocialUpdate;
    let mut rng = StdRng::seed_from_u64(0xD7);
    let corpus: Vec<_> = (0..10u64)
        .map(|i| video(i, random_series(&mut rng), &[]))
        .collect();
    let comments = [
        (0, "ann"),
        (0, "bob"),
        (1, "cal"),
        (1, "ann"),
        (3, "bob"),
        (3, "eve"),
        (3, "ann"),
        (2, "dee"),
    ];
    let updates: Vec<SocialUpdate> = comments
        .iter()
        .map(|&(video, user)| SocialUpdate {
            video: VideoId(video),
            user: user.to_string(),
        })
        .collect();
    let build = |cfg| {
        let mut rec = Recommender::build(cfg, corpus.clone()).expect("build");
        rec.apply_social_updates(&updates);
        for name in ["ann", "bob", "cal", "dee", "eve"] {
            let (chained, raw) = rec.slots_of_user(name);
            assert_eq!(chained, raw, "{name}: chained hash against raw assignment");
        }
        // Co-commenters are in the UIG; a lone commenter interned last is
        // not yet.
        assert!(rec.slots_of_user("ann").1.is_some());
        assert_eq!(rec.slots_of_user("dee"), (None, None));
        rec
    };
    let rec = build(RecommenderConfig::default());
    let mut queries: Vec<_> = [0, 1, 3, 5]
        .iter()
        .map(|&i| (rec.query_for(VideoId(i)).expect("indexed"), vec![]))
        .collect();
    queries.push((
        QueryVideo {
            series: corpus[4].series.clone(),
            users: vec!["ann".into(), "eve".into(), "zed".into()],
        },
        vec![VideoId(4)],
    ));
    check_built(
        "comments on a user-less corpus",
        build,
        corpus.len(),
        &queries,
    );
}

/// Cuboid values at the edge of Definition 1 (`±f64::MAX / 4`): every EMD
/// and every bound stays finite, so the pruned engine and the gate answer
/// bit for bit as the reference scans do.
#[test]
fn values_at_a_quarter_of_f64_max_answer_like_the_naive_scan() {
    let edge = f64::MAX / 4.0;
    let mut corpus = ordinary(0, 20, 0xD6);
    corpus.push(video(100, series(&[&[edge, -edge]]), &["u1"]));
    corpus.push(video(101, series(&[&[edge], &[0.5]]), &["u2", "u3"]));
    corpus.push(video(102, series(&[&[-edge]]), &[]));
    let queries: Vec<_> = [20, 21, 22, 0]
        .iter()
        .map(|&i| (click(&corpus[i]), vec![]))
        .collect();
    check("±f64::MAX/4", &corpus, &queries);
    let rec = Recommender::build(RecommenderConfig::default(), corpus.clone()).expect("build");
    let top = rec.recommend(Strategy::Cr, &click(&corpus[20]), 1);
    assert_eq!((top[0].video, top[0].score), (VideoId(100), 1.0));
}

//! Copy-on-write snapshots: a `Recommender` clone shares every component
//! with the handle it came from, and stays what it was whatever the master
//! goes on to write.
//!
//! Seeded streams of comment batches, ingests and aging run against a master
//! with a snapshot retained at every round. Checked throughout:
//!
//! * every retained snapshot still answers every strategy bit-identically to
//!   what it answered when it was taken;
//! * the master ends equal to a from-scratch `build` + replay of the stream;
//! * sharing is what the write sets say: boot shares everything, a comment
//!   or aging round leaves content shared and copies exactly the rows it
//!   changed, `reprivatise` unshares the written components and nothing
//!   else. An ingest may unshare anything.

use viderec::core::recommender::part;
use viderec::core::{
    CorpusVideo, Recommender, RecommenderConfig, RetrievalMode, SocialUpdate, Strategy, UpdateEvent,
};
use viderec::eval::{StreamConfig, StreamingCommunity};
use viderec::video::VideoId;

const BOOT: usize = 96;
const POOL: usize = 24;
const ROUNDS: usize = 28;
const ALL_PARTS: u8 = part::CONTENT
    | part::REGISTRY
    | part::VIDEOS_OF_USER
    | part::MAINTENANCE
    | part::CHAINED
    | part::INVERTED;
const STRATEGIES: [Strategy; 5] = [
    Strategy::Cr,
    Strategy::Sr,
    Strategy::Csf,
    Strategy::CsfSar,
    Strategy::CsfSarH,
];

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Everything observable about one handle: sizes, and the top-5 of three
/// clicks under every strategy as `(video, score bits)`.
type Answers = (Vec<usize>, Vec<Vec<(u64, u64)>>);

fn answers(rec: &Recommender, clicks: &[VideoId]) -> Answers {
    let sizes = vec![
        rec.num_videos(),
        rec.num_users(),
        rec.live_communities(),
        rec.community_slots(),
    ];
    let mut tops = Vec::new();
    for &click in clicks {
        let query = rec.query_for(click).expect("clicks are boot videos");
        for strategy in STRATEGIES {
            let top = rec.recommend_excluding(strategy, &query, 5, &[click]);
            tops.push(top.iter().map(|s| (s.video.0, s.score.to_bits())).collect());
        }
    }
    (sizes, tops)
}

/// Videos whose social row reads differently in `a` and `b`.
fn rows_changed(a: &Recommender, b: &Recommender, ids: &[VideoId]) -> usize {
    let differs = |&id: &VideoId| {
        a.users_of(id) != b.users_of(id) || a.sparse_vector_of(id) != b.sparse_vector_of(id)
    };
    ids.iter().filter(|id| differs(id)).count()
}

fn next_event(
    rng: &mut Rng,
    round: usize,
    ids: &[VideoId],
    known_users: &[String],
    pool: &mut Vec<CorpusVideo>,
) -> UpdateEvent {
    match rng.below(10) {
        0 => UpdateEvent::Age(1 + rng.below(2) as u32),
        1 | 2 if !pool.is_empty() => {
            let take = (1 + rng.below(2)).min(pool.len());
            UpdateEvent::Ingest(pool.drain(..take).collect())
        }
        _ => {
            let comments = (0..1 + rng.below(6)).map(|j| SocialUpdate {
                // One comment in sixteen names a video outside the corpus.
                video: match rng.below(16) {
                    0 => VideoId(9_000_000),
                    _ => ids[rng.below(ids.len())],
                },
                user: match rng.below(4) {
                    0 => format!("newcomer-{round}-{j}"),
                    _ => known_users[rng.below(known_users.len())].clone(),
                },
            });
            UpdateEvent::Comments(comments.collect())
        }
    }
}

fn run(seed: u64, retrieval: RetrievalMode) {
    let stream = StreamingCommunity::new(StreamConfig::at_scale(BOOT + POOL, seed));
    let mut boot = stream.materialize();
    let mut pool = boot.split_off(BOOT);
    let cfg = RecommenderConfig {
        k_subcommunities: 12,
        ..Default::default()
    }
    .with_retrieval(retrieval);
    let known_users: Vec<String> = boot.iter().flat_map(|v| v.users.clone()).collect();
    let mut ids: Vec<VideoId> = boot.iter().map(|v| v.id).collect();
    let clicks = [ids[0], ids[BOOT / 2], ids[BOOT - 1]];

    let mut master = Recommender::build(cfg.clone(), boot.clone()).expect("valid corpus");
    let first = master.clone();
    assert_eq!(
        master.shared_with(&first),
        (ALL_PARTS, BOOT),
        "boot shares every component and every row"
    );
    let mut retained = vec![(answers(&first, &clicks), first)];
    let mut replay = Vec::new();
    let mut rng = Rng(seed);

    for round in 0..ROUNDS {
        let event = next_event(&mut rng, round, &ids, &known_users, &mut pool);
        if let UpdateEvent::Ingest(videos) = &event {
            ids.extend(videos.iter().map(|v| v.id));
        }
        replay.push(event.clone());
        let ingest = matches!(event, UpdateEvent::Ingest(_));
        // The last snapshot shares every row, and whatever the previous
        // round did not write (content, unless that round was an ingest).
        let (_, previous) = retained.last().expect("the boot snapshot");
        let (parts_before, _) = master.shared_with(previous);
        master
            .apply_event(event)
            .expect("the stream never repeats an id");

        let (parts, rows) = master.shared_with(previous);
        if !ingest {
            assert_eq!(master.written() & part::CONTENT, 0, "round {round}");
            assert_eq!(
                parts & part::CONTENT,
                parts_before & part::CONTENT,
                "round {round}: content copied"
            );
            assert_eq!(
                rows,
                ids.len() - rows_changed(&master, previous, &ids),
                "round {round}: a row is copied exactly when it changes"
            );
        }
        assert_eq!(
            parts & master.written(),
            0,
            "round {round}: a written component is still shared"
        );

        // Publish, then take the copies for what this round wrote.
        let snapshot = master.clone();
        let written = master.written();
        master.reprivatise();
        assert_eq!(master.written(), 0);
        assert_eq!(
            master.shared_with(&snapshot),
            (ALL_PARTS & !written, ids.len()),
            "round {round}: reprivatise unshares what was written, nothing else"
        );
        retained.push((answers(&snapshot, &clicks), snapshot));

        for (taken, (then, snapshot)) in retained.iter().enumerate() {
            assert_eq!(
                &answers(snapshot, &clicks),
                then,
                "snapshot {taken} changed under round {round}"
            );
        }
    }

    let mut oracle = Recommender::build(cfg, boot).expect("valid corpus");
    for event in replay {
        oracle
            .apply_event(event)
            .expect("replay of an applied stream");
    }
    assert_eq!(answers(&master, &clicks), answers(&oracle, &clicks));
    for &id in &ids {
        assert_eq!(master.users_of(id), oracle.users_of(id), "video {id}");
        assert_eq!(
            master.sparse_vector_of(id),
            oracle.sparse_vector_of(id),
            "video {id}"
        );
    }
}

#[test]
fn retained_snapshots_never_move_under_the_paper_scan() {
    run(0x5EED_0001, RetrievalMode::Paper);
    run(0x5EED_0002, RetrievalMode::Paper);
}

#[test]
fn retained_snapshots_never_move_under_gated_retrieval() {
    run(0x5EED_0003, RetrievalMode::GatedCertified);
    run(0x5EED_0004, RetrievalMode::GatedCertified);
}

//! The sharing-community simulator.
//!
//! Stands in for the paper's 200-hour YouTube crawl (§5.1). The generator is
//! built around three latent layers whose interplay produces exactly the
//! phenomena the paper's evaluation probes:
//!
//! * **topics** — the five popular queries of Table 2. Videos of one topic
//!   share the synthesizer's topic palette (moderate content similarity).
//! * **stories** — each topic splits into stories; each story has one master
//!   video and several *derived* uploads (sub-clips + edit pipelines +
//!   codec transcode), the near-duplicate structure content relevance
//!   detects.
//! * **themes** — cross-cutting interest clusters tying stories together
//!   *across* topics (the "relevant but unmatched in content" videos of §1
//!   that only the social signal can find).
//!
//! Users belong to one of `true_groups` groups; each group follows a random
//! subset of its theme's stories plus a few *noise* stories anywhere — the
//! multi-interest behaviour that §5.3.2 blames for the effectiveness drop at
//! `ω → 1`. Comments are stamped with a month on a 16-month timeline so the
//! social-update experiments (Figs. 11, 12c) can replay them
//! incrementally.
//!
//! Ground-truth relevance of a candidate to a query video:
//!
//! | relation | relevance |
//! |---|---|
//! | same video | 1.00 |
//! | same story (near-duplicate family) | 0.90 |
//! | same theme, different story | 0.70 |
//! | same topic, different theme | 0.45 |
//! | unrelated | 0.05 |
//!
//! ## Content ingest in two stages
//!
//! Each upload goes through the paper's content pipeline (§4.1): edit (for
//! a derived upload), the `VRC1` codec round trip, then shots, keyframes,
//! q-grams and cuboid signatures. [`Community::generate`] splits that work
//! in two:
//!
//! * **Draw stage, on the calling thread, in one fixed order.** Every random
//!   draw happens here: a master's duration and each derived upload's edit
//!   pipeline and AFFRF features from the generator's RNG, a master's pixels
//!   from the synthesizer's own RNG. The comment section after it reads the
//!   RNG in the state this order leaves.
//! * **Extraction stage, on every core.** Edit → transcode → signatures draws
//!   nothing: its result depends on the master and the pipeline alone. Each
//!   upload is one job, handed to a scoped helper thread (one per spare core)
//!   if one is waiting for work, else run inline on the calling thread, which
//!   keeps at most one job per thread in flight. A story's jobs share one
//!   master.
//!
//! Each job's result lands in its upload's slot, so the corpus is the same
//! bit for bit whatever the thread count or the order jobs finish in — on one
//! core every job simply runs inline. `tests/generator_digest.rs` pins it
//! against digests taken from the one-thread generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use viderec_core::baselines::MultimodalFeatures;
use viderec_core::{CorpusVideo, SocialUpdate};
use viderec_signature::{SignatureBuilder, SignatureSeries};
use viderec_video::codec::transcode;
use viderec_video::{SynthConfig, Transform, Video, VideoId, VideoSynthesizer};

/// Table 2's five query topics.
pub const TABLE2_TOPICS: [&str; 5] = [
    "youtube",
    "mariah carey",
    "miley cyrus",
    "american idol",
    "wwe",
];

/// Generator configuration. The `hours` knob is the dataset-scale axis of
/// Fig. 12; one paper hour maps to 12 synthetic videos (≈ the paper's clip
/// density with its ≤10-minute clips), each clip time-compressed 60× so the
/// pixel volume stays laptop-sized while clip *counts* match.
#[derive(Debug, Clone)]
pub struct CommunityConfig {
    /// Dataset scale in paper-hours (50–200 in §5.4).
    pub hours: f64,
    /// Number of topics (Table 2 has 5).
    pub num_topics: usize,
    /// Cross-cutting interest themes.
    pub themes: usize,
    /// Latent user groups (the "true" sub-community count; §5.3.3 saturates
    /// at k = 60).
    pub true_groups: usize,
    /// Registered users.
    pub users: usize,
    /// Comments per video (min, max).
    pub comments_per_video: (usize, usize),
    /// Timeline length in months.
    pub months: usize,
    /// Months belonging to the build-time source set (the rest are the
    /// update test set, §5.3.5).
    pub source_months: usize,
    /// Probability a random per-video comment comes from the story's
    /// *primary* group; the remainder are random passers-by (social noise).
    pub primary_comment_prob: f64,
    /// Videos per story every primary-group member is guaranteed to comment
    /// on ("anchor" engagement). This keeps each member firmly attached to
    /// their group in the UIG: the group forms a clique of weight ≥
    /// `anchor_videos × stories-per-group`, while all cross-group edges stay
    /// near weight 1 — the separation `SubgraphExtraction` cuts along.
    pub anchor_videos: usize,
    /// Ambassadors per group: members who also comment (once per story) on
    /// the sibling stories of their theme — the cross-story social glue that
    /// makes theme-relevant videos discoverable through `sJ`.
    pub ambassadors: usize,
    /// Random out-of-theme stories each ambassador also engages.
    pub noise_stories: usize,
    /// Drifting users: randomly chosen users who binge across unrelated
    /// stories in small *cohorts* (everybody in a cohort hits the same
    /// stories). A shared cohort makes two truly irrelevant videos look
    /// socially related — the pollution that degrades pure-social ranking at
    /// `ω → 1`, which only the content side of the fusion can veto.
    pub drifters: usize,
    /// Users per drifting cohort.
    pub drift_cohort: usize,
    /// Stories each cohort binges.
    pub drift_stories: usize,
    /// Derived (edited near-duplicate) uploads per story, on top of the
    /// master.
    pub derived_per_story: usize,
    /// Master clip duration range in simulated seconds.
    pub master_secs: (f64, f64),
    /// Random seed; every artefact is deterministic in it.
    pub seed: u64,
}

impl Default for CommunityConfig {
    fn default() -> Self {
        Self {
            hours: 50.0,
            num_topics: TABLE2_TOPICS.len(),
            themes: 10,
            true_groups: 60,
            users: 900,
            comments_per_video: (40, 90),
            months: 16,
            source_months: 12,
            primary_comment_prob: 0.9,
            anchor_videos: 4,
            ambassadors: 1,
            noise_stories: 2,
            drifters: 240,
            drift_cohort: 12,
            drift_stories: 4,
            derived_per_story: 3,
            master_secs: (14.0, 30.0),
            seed: 0xC0FFEE,
        }
    }
}

impl CommunityConfig {
    /// A deliberately tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            hours: 2.5,
            themes: 5,
            true_groups: 10,
            users: 60,
            comments_per_video: (5, 10),
            derived_per_story: 2,
            drifters: 10,
            seed,
            ..Default::default()
        }
    }

    /// Number of videos this configuration generates.
    pub fn num_videos(&self) -> usize {
        ((self.hours * 12.0).round() as usize).max(self.num_topics)
    }
}

/// One simulated upload.
#[derive(Debug, Clone)]
pub struct SimVideo {
    /// Community-wide id.
    pub id: VideoId,
    /// Topic index (Table 2 row).
    pub topic: usize,
    /// Story index (global).
    pub story: usize,
    /// Whether this upload is an edited derivation of the story master.
    pub derived: bool,
    /// Extracted cuboid signature series (pixels are dropped after
    /// extraction to keep memory flat).
    pub series: SignatureSeries,
    /// Synthetic global multimodal features for the AFFRF baseline.
    pub features: MultimodalFeatures,
}

/// One time-stamped comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimComment {
    /// Commented video.
    pub video: VideoId,
    /// Commenting user's name.
    pub user: String,
    /// Month on the timeline (0-based).
    pub month: usize,
}

/// A fully generated community.
#[derive(Debug, Clone)]
pub struct Community {
    cfg: CommunityConfig,
    /// All uploads.
    pub videos: Vec<SimVideo>,
    /// All comments, sorted by month.
    pub comments: Vec<SimComment>,
    /// story → theme.
    story_theme: Vec<usize>,
    /// story → topic.
    story_topic: Vec<usize>,
    /// user → group.
    user_group: Vec<usize>,
    /// group → theme.
    group_theme: Vec<usize>,
}

impl Community {
    /// Generates a community from the configuration (deterministic).
    pub fn generate(cfg: CommunityConfig) -> Self {
        assert!(cfg.num_topics >= 1 && cfg.num_topics <= TABLE2_TOPICS.len());
        assert!(
            cfg.themes >= cfg.num_topics && cfg.themes.is_multiple_of(cfg.num_topics),
            "themes must be a positive multiple of num_topics"
        );
        assert!(
            cfg.true_groups >= cfg.themes,
            "need at least one group per theme"
        );
        assert!(
            cfg.users >= cfg.true_groups,
            "need at least one user per group"
        );
        assert!(
            cfg.source_months <= cfg.months,
            "source window exceeds timeline"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.primary_comment_prob),
            "primary_comment_prob must be a probability"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // --- latent story structure ---
        let num_videos = cfg.num_videos();
        let videos_per_story = 1 + cfg.derived_per_story;
        let num_stories = (num_videos / videos_per_story).max(cfg.num_topics);
        // Small datasets cannot sustain the configured group count: a group
        // without a story would have members with no anchor engagement,
        // leaving them as pure noise in the UIG. Clamp groups (and themes,
        // kept a multiple of the topic count) to the story supply.
        let mut cfg = cfg;
        cfg.true_groups = cfg.true_groups.min(num_stories);
        if cfg.themes > cfg.true_groups {
            cfg.themes = (cfg.true_groups / cfg.num_topics).max(1) * cfg.num_topics;
        }
        // Every story has a *primary* user group; the story inherits that
        // group's theme. Topic and group cycle at different strides, so one
        // theme's stories span several topics — the cross-topic social
        // structure that makes theme-relevant videos content-unmatched.
        let story_group: Vec<usize> = (0..num_stories).map(|s| s % cfg.true_groups).collect();
        // Themes nest inside topics (`themes % num_topics == 0` is enforced
        // above): a group's topic is `g % topics` and its theme one of the
        // `themes/topics` interest clusters of that topic. Theme-relevant
        // videos are therefore also topically (content-)coherent — which is
        // what lets the content share of the fusion veto spurious social
        // links in the ω sweep.
        let themes_per_topic = cfg.themes / cfg.num_topics;
        let group_theme: Vec<usize> = (0..cfg.true_groups)
            .map(|g| {
                (g % cfg.num_topics) * themes_per_topic + (g / cfg.num_topics) % themes_per_topic
            })
            .collect();
        let story_topic: Vec<usize> = (0..num_stories)
            .map(|s| story_group[s] % cfg.num_topics)
            .collect();
        let story_theme: Vec<usize> = (0..num_stories)
            .map(|s| group_theme[story_group[s]])
            .collect();

        // --- user groups ---
        // Deliberately *uneven* group sizes: real fan bases are skewed, and
        // this is where SubgraphExtraction's variable-size communities earn
        // their silhouette edge over spectral clustering's balance-seeking
        // k-means (§4.2.2: "we permit the sub-communities to be of different
        // sizes").
        let weights: Vec<usize> = (0..cfg.true_groups).map(|g| 2 + (g * 13) % 23).collect();
        let total_weight: usize = weights.iter().sum();
        let mut sizes: Vec<usize> = weights
            .iter()
            .map(|&w| (w * cfg.users / total_weight).max(3))
            .collect();
        // Trim/pad to exactly `users` members, never below 3 per group.
        let mut assigned: usize = sizes.iter().sum();
        let mut cursor = 0;
        while assigned > cfg.users {
            if sizes[cursor % cfg.true_groups] > 3 {
                sizes[cursor % cfg.true_groups] -= 1;
                assigned -= 1;
            }
            cursor += 1;
        }
        while assigned < cfg.users {
            sizes[cursor % cfg.true_groups] += 1;
            assigned += 1;
            cursor += 1;
        }
        let mut user_group = Vec::with_capacity(cfg.users);
        for (g, &size) in sizes.iter().enumerate() {
            user_group.extend(std::iter::repeat_n(g, size));
        }
        let mut group_users: Vec<Vec<usize>> = vec![Vec::new(); cfg.true_groups];
        for (u, &g) in user_group.iter().enumerate() {
            group_users[g].push(u);
        }
        // theme → member groups, for sibling sampling.
        let mut theme_groups: Vec<Vec<usize>> = vec![Vec::new(); cfg.themes];
        for (g, &t) in group_theme.iter().enumerate() {
            theme_groups[t].push(g);
        }

        // --- content: masters + derived uploads, through the codec ---
        // Every random draw happens here, on the calling thread, in one fixed
        // order; extraction (edit → transcode → signatures) draws nothing and
        // runs on whichever core is free (see the module doc).
        let mut synth =
            VideoSynthesizer::new(SynthConfig::default(), cfg.num_topics, cfg.seed ^ 0xf00d);
        let mut videos: Vec<SimVideo> = Vec::with_capacity(num_videos);
        let series: Vec<OnceLock<SignatureSeries>> = std::iter::repeat_with(OnceLock::new)
            .take(num_videos)
            .collect();
        let feature_seeds: Vec<u64> = (0..num_stories).map(|_| rng.gen()).collect();
        extract_while_drawing(&series, spare_cores(), |extract| {
            'outer: for story in 0..num_stories {
                let topic = story_topic[story];
                let secs = rng.gen_range(cfg.master_secs.0..=cfg.master_secs.1);
                let id = VideoId(videos.len() as u64);
                let master = Arc::new(synth.generate(id, topic, secs));
                let frames = master.len();
                extract(Job {
                    slot: videos.len(),
                    master: Arc::clone(&master),
                    edits: Vec::new(),
                });
                videos.push(SimVideo {
                    id,
                    topic,
                    story,
                    derived: false,
                    series: SignatureSeries::default(),
                    features: story_features(feature_seeds[story], topic, false, &mut rng),
                });
                if videos.len() >= num_videos {
                    break 'outer;
                }
                for _ in 0..cfg.derived_per_story {
                    extract(Job {
                        slot: videos.len(),
                        master: Arc::clone(&master),
                        edits: Transform::random_edit_pipeline(&mut rng, frames),
                    });
                    videos.push(SimVideo {
                        id: VideoId(videos.len() as u64),
                        topic,
                        story,
                        derived: true,
                        series: SignatureSeries::default(),
                        features: story_features(feature_seeds[story], topic, true, &mut rng),
                    });
                    if videos.len() >= num_videos {
                        break 'outer;
                    }
                }
            }
        });
        for (video, slot) in videos.iter_mut().zip(series) {
            video.series = slot.into_inner().expect("every upload was extracted");
        }

        // --- comments ---
        let mut comments = Vec::new();
        // story → its videos (indices).
        let mut story_videos: Vec<Vec<usize>> = vec![Vec::new(); num_stories];
        for (i, video) in videos.iter().enumerate() {
            story_videos[video.story].push(i);
        }

        // (1) Random per-video engagement: mostly the primary audience, the
        // rest random passers-by (noise).
        for video in &videos {
            let n = rng.gen_range(cfg.comments_per_video.0..=cfg.comments_per_video.1);
            let primary = story_group[video.story];
            for _ in 0..n {
                let user = if rng.gen_bool(cfg.primary_comment_prob) {
                    group_users[primary][rng.gen_range(0..group_users[primary].len())]
                } else {
                    rng.gen_range(0..cfg.users)
                };
                comments.push(SimComment {
                    video: video.id,
                    user: user_name(user),
                    month: rng.gen_range(0..cfg.months),
                });
            }
        }

        // (2) Anchor engagement: every member comments the first
        // `anchor_videos` uploads of each of their group's stories, stamped
        // inside the source window (fans engage new uploads promptly).
        for (story, vids) in story_videos.iter().enumerate() {
            let g = story_group[story];
            for &vi in vids.iter().take(cfg.anchor_videos) {
                for &u in &group_users[g] {
                    comments.push(SimComment {
                        video: videos[vi].id,
                        user: user_name(u),
                        month: rng.gen_range(0..cfg.source_months.max(1)),
                    });
                }
            }
        }

        // (3) Ambassadors: the first `ambassadors` members of each group
        // also comment on their theme's sibling stories — exactly ONE
        // comment per foreign group, so every cross-group UIG edge an
        // ambassador creates has weight 1 (single-linkage then separates
        // groups cleanly) while the theme stays socially discoverable —
        // plus a few random noise stories.
        for g in 0..cfg.true_groups {
            let amb_count = cfg.ambassadors.min(group_users[g].len());
            for (a, &amb) in group_users[g][..amb_count].iter().enumerate() {
                let mut targets: Vec<usize> = Vec::new();
                for sibling in theme_groups[group_theme[g]].iter().copied() {
                    if sibling == g {
                        continue;
                    }
                    let sibling_stories: Vec<usize> = (0..num_stories)
                        .filter(|&s| story_group[s] == sibling)
                        .collect();
                    if !sibling_stories.is_empty() {
                        // Rotate the picked story across ambassadors.
                        targets.push(sibling_stories[a % sibling_stories.len()]);
                    }
                }
                for _ in 0..cfg.noise_stories {
                    targets.push(rng.gen_range(0..num_stories));
                }
                for s in targets {
                    let vids = &story_videos[s];
                    if vids.is_empty() {
                        continue;
                    }
                    let vi = vids[rng.gen_range(0..vids.len())];
                    comments.push(SimComment {
                        video: videos[vi].id,
                        user: user_name(amb),
                        month: rng.gen_range(0..cfg.months),
                    });
                }
            }
        }

        // (4) Drifting cohorts: small random user sets binging the same
        // unrelated stories (one comment per user per story). Videos sharing
        // a cohort look socially related while being truly irrelevant — the
        // pollution that caps pure-social ranking at ω → 1.
        // Each member binges only half the cohort's stories, so two members
        // rarely share more than one video — the spurious *video* links stay
        // (several members per video pair) while spurious *user* edges stay
        // near weight 1 and remain separable by the extraction.
        let cohorts = cfg.drifters / cfg.drift_cohort.max(1);
        for _ in 0..cohorts {
            let members: Vec<usize> = (0..cfg.drift_cohort)
                .map(|_| rng.gen_range(0..cfg.users))
                .collect();
            let picks: Vec<usize> = (0..cfg.drift_stories)
                .map(|_| {
                    let s = rng.gen_range(0..num_stories);
                    let vids = &story_videos[s];
                    vids[rng.gen_range(0..vids.len())]
                })
                .collect();
            // Round-robin arc assignment: member m binges the two picks at
            // circular offset m % |picks|. Every adjacent video pair is then
            // shared by `cohort / picks` members (the social pollution),
            // while any two members overlap in at most two videos (weight-2
            // UIG edges — cuttable, since intra-group weights are ≥ 4).
            for (m, &u) in members.iter().enumerate() {
                let offset = m % picks.len();
                for i in 0..2usize.min(picks.len()) {
                    let vi = picks[(offset + i) % picks.len()];
                    comments.push(SimComment {
                        video: videos[vi].id,
                        user: user_name(u),
                        month: rng.gen_range(0..cfg.months),
                    });
                }
            }
        }
        comments.sort_by_key(|c| c.month);

        Self {
            cfg,
            videos,
            comments,
            story_theme,
            story_topic,
            user_group,
            group_theme,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &CommunityConfig {
        &self.cfg
    }

    /// Ground-truth relevance of candidate `b` to query `a` (see the module
    /// table).
    pub fn relevance(&self, a: VideoId, b: VideoId) -> f64 {
        if a == b {
            return 1.0;
        }
        let va = &self.videos[a.0 as usize];
        let vb = &self.videos[b.0 as usize];
        if va.story == vb.story {
            0.90
        } else if self.story_theme[va.story] == self.story_theme[vb.story] {
            0.70
        } else if va.topic == vb.topic {
            0.45
        } else {
            0.05
        }
    }

    /// The corpus with every comment of months `0..month_exclusive` folded
    /// into the descriptors.
    pub fn corpus_through(&self, month_exclusive: usize) -> Vec<CorpusVideo> {
        let mut users_of: HashMap<VideoId, Vec<String>> = HashMap::new();
        for c in &self.comments {
            if c.month < month_exclusive {
                let list = users_of.entry(c.video).or_default();
                if !list.contains(&c.user) {
                    list.push(c.user.clone());
                }
            }
        }
        self.videos
            .iter()
            .map(|v| CorpusVideo {
                id: v.id,
                series: v.series.clone(),
                users: users_of.remove(&v.id).unwrap_or_default(),
            })
            .collect()
    }

    /// The source-window corpus (months `0..source_months`) — what the
    /// recommender is built over in §5.3.5 / §5.4.3.
    pub fn source_corpus(&self) -> Vec<CorpusVideo> {
        self.corpus_through(self.cfg.source_months)
    }

    /// The comment stream of one month, as recommender updates.
    pub fn updates_in_month(&self, month: usize) -> Vec<SocialUpdate> {
        self.comments
            .iter()
            .filter(|c| c.month == month)
            .map(|c| SocialUpdate {
                video: c.video,
                user: c.user.clone(),
            })
            .collect()
    }

    /// The §5.1 query workload: the two most-commented (source-window)
    /// videos per topic — "for each query, we select the top two videos as
    /// the source videos and get 10 in total".
    pub fn query_videos(&self) -> Vec<VideoId> {
        let mut counts: HashMap<VideoId, usize> = HashMap::new();
        for c in &self.comments {
            if c.month < self.cfg.source_months {
                *counts.entry(c.video).or_insert(0) += 1;
            }
        }
        let mut out = Vec::new();
        for topic in 0..self.cfg.num_topics {
            let mut topic_videos: Vec<&SimVideo> =
                self.videos.iter().filter(|v| v.topic == topic).collect();
            topic_videos.sort_by_key(|v| {
                (
                    std::cmp::Reverse(counts.get(&v.id).copied().unwrap_or(0)),
                    v.id,
                )
            });
            for v in topic_videos.iter().take(2) {
                out.push(v.id);
            }
        }
        out
    }

    /// Per-video AFFRF features.
    pub fn affrf_features(&self) -> Vec<(VideoId, MultimodalFeatures)> {
        self.videos
            .iter()
            .map(|v| (v.id, v.features.clone()))
            .collect()
    }

    /// The latent group of a user id (ground truth for clustering quality).
    pub fn group_of_user(&self, user_index: usize) -> usize {
        self.user_group[user_index]
    }

    /// The theme of a group.
    pub fn theme_of_group(&self, group: usize) -> usize {
        self.group_theme[group]
    }

    /// The topic label of a video (Table 2 row).
    pub fn topic_label(&self, video: VideoId) -> &'static str {
        TABLE2_TOPICS[self.videos[video.0 as usize].topic]
    }

    /// The story and theme of a video (test support).
    pub fn story_of(&self, video: VideoId) -> (usize, usize) {
        let v = &self.videos[video.0 as usize];
        (v.story, self.story_theme[v.story])
    }

    /// Story → topic mapping (test support).
    pub fn story_topic(&self, story: usize) -> usize {
        self.story_topic[story]
    }
}

/// One upload's extraction: the story master it starts from (shared with
/// the story's other jobs) and the edit pipeline that derives it from the
/// master (empty for the master itself).
#[derive(Clone)]
struct Job {
    slot: usize,
    master: Arc<Video>,
    edits: Vec<Transform>,
}

impl Job {
    /// Edit → transcode → cuboid signatures. Draws nothing, so the result
    /// depends on the job alone, not on the thread that runs it or when.
    fn extract(self, builder: &SignatureBuilder) -> SignatureSeries {
        let decoded = if self.edits.is_empty() {
            transcode(&self.master)
        } else {
            // Ids are dense: an upload's id is its slot.
            let edited =
                Transform::apply_all(&self.edits, &self.master).with_id(VideoId(self.slot as u64));
            transcode(&edited)
        };
        // The edited copy is already gone; release the master too before
        // the signature pass, so the story's last job frees its pixels.
        drop(self.master);
        builder.build(&decoded)
    }
}

/// Cores beyond the calling thread's: one extraction helper each.
fn spare_cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get) - 1
}

/// Runs `draw` on the calling thread and extracts every job it hands over:
/// on one of `helpers` scoped threads if one is waiting for work, otherwise
/// inline on the calling thread before it draws on. The hand-off is a
/// rendezvous, so at most one job per thread is in flight. Each result
/// lands in its upload's slot of `series`, whoever ran it.
fn extract_while_drawing(
    series: &[OnceLock<SignatureSeries>],
    helpers: usize,
    draw: impl FnOnce(&mut dyn FnMut(Job)),
) {
    let builder = SignatureBuilder::default();
    let run = |job: Job| {
        let slot = job.slot;
        let out = job.extract(&builder);
        assert!(series[slot].set(out).is_ok(), "slot {slot} extracted twice");
    };
    let (handoff, jobs) = mpsc::sync_channel::<Job>(0);
    let jobs = Mutex::new(jobs);
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(|| loop {
                let next = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
                match next {
                    Ok(job) => run(job),
                    // Drawing is over and the hand-off is dropped.
                    Err(_) => break,
                }
            });
        }
        let handoff = handoff;
        draw(&mut |job| match handoff.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => run(job),
        });
    });
}

/// Canonical registered user name for a user index.
pub fn user_name(index: usize) -> String {
    format!("user_{index:05}")
}

/// Synthetic global features: a per-story latent vector; *derived* (edited)
/// uploads get heavy visual/aural corruption — the fragility of global
/// features under editing that §5.3.4 blames for AFFRF's deficit.
fn story_features(
    story_seed: u64,
    topic: usize,
    derived: bool,
    rng: &mut StdRng,
) -> MultimodalFeatures {
    let mut srng = StdRng::seed_from_u64(story_seed);
    let base = |dims: usize, srng: &mut StdRng| -> Vec<f64> {
        (0..dims)
            .map(|d| {
                // Topic component + story component.
                let topic_part = ((topic * 31 + d * 7) % 13) as f64 / 13.0;
                topic_part + srng.gen_range(-0.35..0.35)
            })
            .collect()
    };
    let mut text = base(24, &mut srng);
    let mut visual = base(16, &mut srng);
    let mut aural = base(12, &mut srng);
    if derived {
        // Editing wrecks global visual/aural descriptors and blurs text.
        for v in visual.iter_mut() {
            *v += rng.gen_range(-1.2..1.2);
        }
        for a in aural.iter_mut() {
            *a += rng.gen_range(-1.2..1.2);
        }
        for t in text.iter_mut() {
            *t += rng.gen_range(-0.8..0.8);
        }
    } else {
        for v in visual
            .iter_mut()
            .chain(aural.iter_mut())
            .chain(text.iter_mut())
        {
            *v += rng.gen_range(-0.05..0.05);
        }
    }
    MultimodalFeatures {
        text,
        visual,
        aural,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Community {
        Community::generate(CommunityConfig::tiny(7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Community::generate(CommunityConfig::tiny(9));
        let b = Community::generate(CommunityConfig::tiny(9));
        assert_eq!(a.videos.len(), b.videos.len());
        assert_eq!(a.comments, b.comments);
        assert_eq!(a.videos[3].series, b.videos[3].series);
    }

    #[test]
    fn video_count_follows_hours() {
        let c = tiny();
        assert_eq!(c.videos.len(), c.config().num_videos());
        assert_eq!(c.videos.len(), 30); // 2.5 h × 12
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let c = tiny();
        for (i, v) in c.videos.iter().enumerate() {
            assert_eq!(v.id, VideoId(i as u64));
        }
    }

    #[test]
    fn relevance_hierarchy() {
        let c = tiny();
        // Find a derived/master pair (same story).
        let derived = c.videos.iter().find(|v| v.derived).expect("derived exists");
        let master = c
            .videos
            .iter()
            .find(|v| v.story == derived.story && !v.derived)
            .expect("master exists");
        assert_eq!(c.relevance(master.id, derived.id), 0.90);
        assert_eq!(c.relevance(master.id, master.id), 1.0);
        // Symmetry.
        for a in [0u64, 3, 7] {
            for b in [1u64, 5, 9] {
                assert_eq!(
                    c.relevance(VideoId(a), VideoId(b)),
                    c.relevance(VideoId(b), VideoId(a))
                );
            }
        }
    }

    #[test]
    fn same_story_videos_share_content_on_average() {
        // Individual edited copies can be mangled past recognition (heavy
        // pipelines are part of the workload); the content signal the system
        // relies on is the *mean* separation.
        let c = tiny();
        let mut near = (0.0, 0usize);
        let mut far = (0.0, 0usize);
        for a in &c.videos {
            for b in &c.videos {
                if a.id >= b.id {
                    continue;
                }
                let k = a.series.kappa_j(&b.series);
                if a.story == b.story {
                    near.0 += k;
                    near.1 += 1;
                } else if a.topic != b.topic {
                    far.0 += k;
                    far.1 += 1;
                }
            }
        }
        let near = near.0 / near.1.max(1) as f64;
        let far = far.0 / far.1.max(1) as f64;
        assert!(
            near > far + 0.05,
            "mean same-story κJ {near} not clearly above cross-topic {far}"
        );
    }

    #[test]
    fn comments_cover_source_and_test_windows() {
        let c = tiny();
        let source = c.comments.iter().filter(|x| x.month < 12).count();
        let test = c.comments.iter().filter(|x| x.month >= 12).count();
        assert!(source > 0 && test > 0);
        // Sorted by month.
        for w in c.comments.windows(2) {
            assert!(w[0].month <= w[1].month);
        }
    }

    #[test]
    fn corpus_through_respects_window() {
        let c = tiny();
        let full = c.corpus_through(16);
        let half = c.corpus_through(8);
        let total_full: usize = full.iter().map(|v| v.users.len()).sum();
        let total_half: usize = half.iter().map(|v| v.users.len()).sum();
        assert!(total_half < total_full);
        assert_eq!(full.len(), c.videos.len());
    }

    #[test]
    fn updates_partition_the_timeline() {
        let c = tiny();
        let per_month: usize = (0..16).map(|m| c.updates_in_month(m).len()).sum();
        assert_eq!(per_month, c.comments.len());
    }

    #[test]
    fn query_workload_is_two_per_topic() {
        let c = tiny();
        let q = c.query_videos();
        assert_eq!(q.len(), 10);
        for (i, &id) in q.iter().enumerate() {
            assert_eq!(c.videos[id.0 as usize].topic, i / 2);
        }
        assert_eq!(c.topic_label(q[0]), "youtube");
    }

    #[test]
    fn social_links_follow_themes() {
        // Videos of the same theme should share more commenters than
        // cross-theme videos, on average.
        let c = tiny();
        let corpus = c.corpus_through(16);
        let users: Vec<&Vec<String>> = corpus.iter().map(|v| &v.users).collect();
        let overlap =
            |a: &[String], b: &[String]| a.iter().filter(|u| b.contains(u)).count() as f64;
        let mut same_theme = (0.0, 0usize);
        let mut cross_theme = (0.0, 0usize);
        for i in 0..corpus.len() {
            for j in i + 1..corpus.len() {
                let (si, ti) = c.story_of(corpus[i].id);
                let (sj, tj) = c.story_of(corpus[j].id);
                if si == sj {
                    continue;
                }
                let o = overlap(users[i], users[j]);
                if ti == tj {
                    same_theme.0 += o;
                    same_theme.1 += 1;
                } else {
                    cross_theme.0 += o;
                    cross_theme.1 += 1;
                }
            }
        }
        let same = same_theme.0 / same_theme.1.max(1) as f64;
        let cross = cross_theme.0 / cross_theme.1.max(1) as f64;
        assert!(same > cross, "same-theme overlap {same} vs cross {cross}");
    }

    #[test]
    fn affrf_features_cover_all_videos() {
        let c = tiny();
        let f = c.affrf_features();
        assert_eq!(f.len(), c.videos.len());
        assert_eq!(f[0].1.text.len(), 24);
    }

    #[test]
    fn extraction_does_not_depend_on_the_helper_count() {
        let mut synth = VideoSynthesizer::new(SynthConfig::default(), 2, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let masters: Vec<Arc<Video>> = (0..3)
            .map(|s| Arc::new(synth.generate(VideoId(s), s as usize % 2, 6.0)))
            .collect();
        // Per master: itself, then three edited copies.
        let jobs: Vec<Job> = masters
            .iter()
            .flat_map(|m| {
                let edits: Vec<Vec<Transform>> = std::iter::once(Vec::new())
                    .chain((0..3).map(|_| Transform::random_edit_pipeline(&mut rng, m.len())))
                    .collect();
                edits.into_iter().map(move |edits| (Arc::clone(m), edits))
            })
            .enumerate()
            .map(|(slot, (master, edits))| Job {
                slot,
                master,
                edits,
            })
            .collect();
        let builder = SignatureBuilder::default();
        let expected: Vec<SignatureSeries> =
            jobs.iter().map(|j| j.clone().extract(&builder)).collect();
        assert!(expected.iter().all(|s| !s.is_empty()));
        for helpers in [0, 1, 3] {
            let series: Vec<OnceLock<SignatureSeries>> = std::iter::repeat_with(OnceLock::new)
                .take(jobs.len())
                .collect();
            extract_while_drawing(&series, helpers, |extract| {
                for j in &jobs {
                    extract(j.clone());
                }
            });
            let got: Vec<SignatureSeries> = series
                .into_iter()
                .map(|s| s.into_inner().expect("every slot filled"))
                .collect();
            assert_eq!(got, expected, "{helpers} helpers");
        }
    }

    #[test]
    fn user_names_are_stable() {
        assert_eq!(user_name(7), "user_00007");
        assert_eq!(user_name(12345), "user_12345");
    }

    #[test]
    fn group_accessors() {
        let c = tiny();
        let g = c.group_of_user(3);
        assert!(g < c.config().true_groups);
        assert!(c.theme_of_group(g) < c.config().themes);
        assert!(c.story_topic(0) < c.config().num_topics);
    }
}

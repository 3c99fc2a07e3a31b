//! Social-updates wiring: Fig. 5 applied to the recommender's live indexes.
//!
//! A [`SocialUpdate`] is one new comment `(video, user)`. Applying a batch:
//!
//! 1. new users are interned; a comment by user `u` on video `v` adds a `+1`
//!    UIG connection between `u` and every user already on `v` (the edge
//!    weight *is* the common-video count);
//! 2. [`viderec_social::SocialUpdatesMaintenance`] merges/splits
//!    sub-communities per Fig. 5;
//! 3. only the *affected* structures are rewritten: descriptor vectors of
//!    videos that got comments or contain reassigned users, their inverted
//!    postings, and the chained-hash entries of reassigned users — the
//!    incremental strategy §4.2.5 credits for the controlled update cost.
//!    Vectors are sparse `(slot, count)` pairs, so the rewrite is a
//!    two-pointer diff against the fresh vectorisation: postings change only
//!    for slots entering or leaving the support, and community *splits* cost
//!    nothing at all (absent slots are implicit zeros — there is no
//!    zero-extension pass);
//! 4. the Eq. 8 cost model prices the run from the measured counters.
//!
//! The recommender's components are shared with every published snapshot
//! (see [`Recommender`]'s `Clone`), so each write below first unshares what
//! it is about to change: components through [`write`], which also records
//! them in the round's write set, and social rows — only the ones that
//! actually change — through [`Arc::make_mut`]. "Only the affected
//! structures" is therefore also what a snapshot costs.
//!
//! [`Recommender::add_videos`] is the corpus-growth counterpart: new videos
//! enter every index incrementally — including the scoring arena, which is
//! *extended* per video ([`crate::arena::ScoringArena::push_series`]), never
//! rebuilt.

use crate::arena::Totals;
use crate::corpus::CorpusVideo;
use crate::errors::RecError;
use crate::recommender::{intern_users, part, vectorize_sparse, write, Recommender, SocialRow};
use std::sync::Arc;
use viderec_social::cost::CostModel;
use viderec_social::update::MaintenanceReport;
use viderec_social::UserId;
use viderec_video::VideoId;

/// One new comment event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocialUpdate {
    /// The commented video.
    pub video: VideoId,
    /// The commenting user's registered name.
    pub user: String,
}

/// One corpus mutation, as carried by the serving layer's update queue: the
/// three maintenance paths ([`Recommender::apply_social_updates`],
/// [`Recommender::add_videos`], [`Recommender::age_social_connections`])
/// behind a single enum so a writer thread can drain heterogeneous batches
/// through [`Recommender::apply_event`].
#[derive(Debug, Clone)]
pub enum UpdateEvent {
    /// New comment events (Fig. 5 social updates).
    Comments(Vec<SocialUpdate>),
    /// New videos entering the corpus.
    Ingest(Vec<CorpusVideo>),
    /// Age every UIG connection by the amount (§4.2.4 invalidation).
    Age(u32),
}

/// Outcome of one maintenance batch.
#[derive(Debug, Clone)]
pub struct UpdateSummary {
    /// What the Fig. 5 algorithm did.
    pub report: MaintenanceReport,
    /// Videos whose descriptor vectors were rewritten.
    pub videos_rewritten: usize,
    /// New comment events actually applied (unknown videos are skipped).
    pub comments_applied: usize,
    /// Eq. 8 estimate of the run, in model seconds.
    pub estimated_seconds: f64,
    /// Live sub-communities after the run.
    pub communities: usize,
}

impl Recommender {
    /// Applies one [`UpdateEvent`] through its maintenance path. The only
    /// fallible arm is ingest (duplicate video ids); comment batches and
    /// aging always succeed.
    pub fn apply_event(&mut self, event: UpdateEvent) -> Result<UpdateSummary, RecError> {
        match event {
            UpdateEvent::Comments(updates) => Ok(self.apply_social_updates(&updates)),
            UpdateEvent::Ingest(videos) => self.add_videos(videos),
            UpdateEvent::Age(amount) => Ok(self.age_social_connections(amount)),
        }
    }

    /// Applies one period of social updates (Fig. 5) incrementally.
    pub fn apply_social_updates(&mut self, updates: &[SocialUpdate]) -> UpdateSummary {
        // --- 1. ingest comments: descriptors + UIG connections ---
        let mut connections: Vec<(UserId, UserId, u32)> = Vec::new();
        let mut commented_videos: Vec<u32> = Vec::new();
        let mut comments_applied = 0usize;
        for update in updates {
            let Some(&vidx) = self.content.by_id.get(&update.video) else {
                continue; // comment on a video outside the corpus
            };
            // Only a never-seen name writes the registry.
            let user = match self.registry.get(&update.user) {
                Some(user) => user,
                None => write(&mut self.registry, &mut self.written, part::REGISTRY)
                    .intern(&update.user),
            };
            let Err(at) = self.videos[vidx].users.binary_search(&user) else {
                continue; // repeat comment: no new interest connection
            };
            let video = Arc::make_mut(&mut self.videos[vidx]);
            let (before, after) = video.users.split_at(at);
            let users = [before, std::slice::from_ref(&user), after].concat();
            video.users = users.into_boxed_slice();
            comments_applied += 1;
            for &other in video.users.iter() {
                if other != user {
                    connections.push((user, other, 1));
                }
            }
            write(
                &mut self.videos_of_user,
                &mut self.written,
                part::VIDEOS_OF_USER,
            )
            .entry(user)
            .or_default()
            .push(vidx as u32);
            commented_videos.push(vidx as u32);
        }

        // --- 2. Fig. 5 merge/split maintenance ---
        let report = write(&mut self.maintenance, &mut self.written, part::MAINTENANCE)
            .apply_connections(&connections);

        // --- 3 + 4. incremental index sync, priced by Eq. 8 ---
        let (videos_rewritten, estimated_seconds) =
            self.sync_after_maintenance(&report, commented_videos);

        UpdateSummary {
            report,
            videos_rewritten,
            comments_applied,
            estimated_seconds,
            communities: self.maintenance.live_communities(),
        }
    }

    /// Ages every social connection by `amount` (§4.2.4's "connections may
    /// become invalid"): UIG weights decay, communities that fall apart
    /// split, and — like [`Self::apply_social_updates`] — only the affected
    /// index structures are rewritten.
    pub fn age_social_connections(&mut self, amount: u32) -> UpdateSummary {
        let report = write(&mut self.maintenance, &mut self.written, part::MAINTENANCE)
            .age_connections(amount);
        let (videos_rewritten, estimated_seconds) =
            self.sync_after_maintenance(&report, Vec::new());
        UpdateSummary {
            report,
            videos_rewritten,
            comments_applied: 0,
            estimated_seconds,
            communities: self.maintenance.live_communities(),
        }
    }

    /// Grows the corpus in place: interns the new videos' users, feeds their
    /// pairwise interest connections through the Fig. 5 maintenance, and
    /// extends every index — inverted files, LSB forest, chained hash,
    /// engagement lists and the scoring arena — incrementally. Existing
    /// videos are rewritten only if the new connections reassigned one of
    /// their users, exactly like a comment batch.
    ///
    /// A new user engaging only alone (a single-user video) stays outside
    /// the UIG until their first co-engagement, mirroring
    /// `apply_connections`' admission rule; their count simply does not
    /// surface in any descriptor vector yet.
    ///
    /// Duplicate ids (against the corpus or within the batch), and a batch
    /// that would take the corpus past the `u32` columns' counts
    /// ([`Totals::check`]), are rejected before any state changes.
    pub fn add_videos(&mut self, additions: Vec<CorpusVideo>) -> Result<UpdateSummary, RecError> {
        {
            let mut seen = std::collections::HashSet::new();
            for v in &additions {
                if self.content.by_id.contains_key(&v.id) || !seen.insert(v.id) {
                    return Err(RecError::DuplicateVideo(v.id.0));
                }
            }
        }
        let added = Totals::of(additions.iter().map(|video| &video.series));
        self.content.arena.totals().plus(added).check()?;

        // Intern users, build descriptors, collect the pairwise connections
        // the new engagements imply (the UIG edge weight is the common-video
        // count, so each co-engagement pair contributes +1).
        let registry = write(&mut self.registry, &mut self.written, part::REGISTRY);
        let mut socials = Vec::with_capacity(additions.len());
        let mut connections: Vec<(UserId, UserId, u32)> = Vec::new();
        let mut comments_applied = 0usize;
        for video in &additions {
            let users = intern_users(registry, &video.users);
            comments_applied += users.len();
            for (i, &a) in users.iter().enumerate() {
                for &b in &users[i + 1..] {
                    connections.push((a, b, 1));
                }
            }
            socials.push(users);
        }

        let maintenance = write(&mut self.maintenance, &mut self.written, part::MAINTENANCE);
        let report = maintenance.apply_connections(&connections);

        // Index the new videos. Their vectors are computed against the
        // *post-maintenance* assignment, so they need no later rewrite — but
        // the inverted files must cover any slots that maintenance appended.
        let assignment = maintenance.assignment_raw();
        let content = write(&mut self.content, &mut self.written, part::CONTENT);
        let videos_of_user = write(
            &mut self.videos_of_user,
            &mut self.written,
            part::VIDEOS_OF_USER,
        );
        let chained = write(&mut self.chained, &mut self.written, part::CHAINED);
        let inverted = write(&mut self.inverted, &mut self.written, part::INVERTED);
        while inverted.k() < maintenance.num_slots() {
            inverted.push_community();
        }
        let mut fresh = Vec::with_capacity(additions.len());
        for (video, users) in additions.into_iter().zip(socials) {
            let idx = self.videos.len() as u32;
            let vector = vectorize_sparse(assignment, &users);
            for &(slot, _) in &vector {
                inverted.add_posting(slot as usize, video.id);
            }
            for &user in &users {
                videos_of_user.entry(user).or_default().push(idx);
                if let Some(&slot) = assignment.get(user.index()) {
                    chained.insert(registry.name(user), slot);
                }
            }
            fresh.push((video.id, video.series));
            self.videos.push(Arc::new(SocialRow { users, vector }));
        }
        let appended = content.extend(fresh);
        debug_assert!(appended.is_ok(), "duplicate ids were rejected above");

        // Existing videos touched by reassignments sync like any other
        // maintenance run (the fresh videos diff to zero changes).
        let (videos_rewritten, estimated_seconds) =
            self.sync_after_maintenance(&report, Vec::new());

        Ok(UpdateSummary {
            report,
            videos_rewritten,
            comments_applied,
            estimated_seconds,
            communities: self.maintenance.live_communities(),
        })
    }

    /// Incremental index sync after a maintenance run: grows the inverted
    /// files to any fresh community slots, re-hashes reassigned users, and
    /// re-vectorises affected videos (the `touched` set plus every video of a
    /// reassigned user) with a sparse two-pointer diff — postings change only
    /// where the support changed, and a row whose vector comes out unchanged
    /// is not written at all. Returns the rewritten-video count and the
    /// Eq. 8 cost estimate.
    fn sync_after_maintenance(
        &mut self,
        report: &MaintenanceReport,
        touched: Vec<u32>,
    ) -> (usize, f64) {
        // Splits may have appended community slots: grow the inverted files.
        // Sparse vectors need no zero-extension — absent slots are zeros.
        let slots = self.maintenance.num_slots();
        if self.inverted.k() < slots {
            let inverted = write(&mut self.inverted, &mut self.written, part::INVERTED);
            while inverted.k() < slots {
                inverted.push_community();
            }
        }

        let assignment = self.maintenance.assignment_raw();
        let mut affected: Vec<u32> = touched;
        if !report.reassigned_users.is_empty() {
            let chained = write(&mut self.chained, &mut self.written, part::CHAINED);
            for user in &report.reassigned_users {
                if let Some(list) = self.videos_of_user.get(user) {
                    affected.extend_from_slice(list);
                }
                // Chained hash follows the reassignment.
                if user.index() < self.registry.len() {
                    chained.insert(self.registry.name(*user), assignment[user.index()]);
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();

        let mut descriptor_dim_updates = 0usize;
        for &vidx in &affected {
            let row = &self.videos[vidx as usize];
            let fresh = vectorize_sparse(assignment, &row.users);
            if fresh == row.vector {
                continue;
            }
            let id = self.content.ids[vidx as usize];
            let inverted = write(&mut self.inverted, &mut self.written, part::INVERTED);
            // Two-pointer diff of the sorted supports: a slot entering or
            // leaving the support moves a posting; a count change in a shared
            // slot only counts as a dimension update.
            let (old, new) = (&row.vector, &fresh);
            let (mut i, mut j) = (0usize, 0usize);
            while i < old.len() && j < new.len() {
                match old[i].0.cmp(&new[j].0) {
                    std::cmp::Ordering::Less => {
                        descriptor_dim_updates += 1;
                        inverted.remove_posting(old[i].0 as usize, id);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        descriptor_dim_updates += 1;
                        inverted.add_posting(new[j].0 as usize, id);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        if old[i].1 != new[j].1 {
                            descriptor_dim_updates += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            for &(slot, _) in &old[i..] {
                descriptor_dim_updates += 1;
                inverted.remove_posting(slot as usize, id);
            }
            for &(slot, _) in &new[j..] {
                descriptor_dim_updates += 1;
                inverted.add_posting(slot as usize, id);
            }
            Arc::make_mut(&mut self.videos[vidx as usize]).vector = fresh;
        }

        debug_assert!(
            self.chained_matches_assignment(),
            "the chained hash and the raw assignment disagree"
        );
        let estimated_seconds =
            CostModel::default().estimate(&report.counters, descriptor_dim_updates);
        (affected.len(), estimated_seconds)
    }

    /// Whether the chained hash gives every user the UIG holds its raw
    /// slot, and no other user any: what the gather and the certificate
    /// read of a name is what the rows were vectorised against.
    fn chained_matches_assignment(&self) -> bool {
        let assignment = self.maintenance.assignment_raw();
        self.registry
            .iter()
            .all(|(id, name)| self.chained.get(name) == assignment.get(id.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecommenderConfig;
    use crate::corpus::{CorpusVideo, QueryVideo};
    use crate::relevance::Strategy;
    use viderec_signature::SignatureBuilder;
    use viderec_video::{SynthConfig, VideoSynthesizer};

    fn corpus() -> Vec<CorpusVideo> {
        let mut synth = VideoSynthesizer::new(SynthConfig::default(), 2, 600);
        let builder = SignatureBuilder::default();
        let users: Vec<Vec<&str>> = vec![
            vec!["ann", "bob", "cal"],
            vec!["ann", "bob", "dee"],
            vec!["eve", "fay", "gus"],
            vec!["eve", "fay", "hal"],
        ];
        (0..4)
            .map(|i| {
                let v = synth.generate(VideoId(i as u64), i / 2, 12.0);
                CorpusVideo {
                    id: v.id(),
                    series: builder.build(&v),
                    users: users[i].iter().map(|s| s.to_string()).collect(),
                }
            })
            .collect()
    }

    fn cfg() -> RecommenderConfig {
        RecommenderConfig {
            k_subcommunities: 2,
            ..Default::default()
        }
    }

    /// Every sparse vector must equal the from-scratch vectorisation of its
    /// descriptor, and the inverted postings must match the supports.
    fn assert_indexes_consistent(r: &Recommender) {
        for (video, id) in r.videos.iter().zip(&r.content.ids) {
            let fresh = vectorize_sparse(r.maintenance.assignment_raw(), &video.users);
            assert_eq!(video.vector, fresh, "video {id} vector stale");
            for &(slot, _) in &video.vector {
                assert!(
                    r.inverted.postings(slot as usize).contains(id),
                    "video {id} missing from posting list {slot}"
                );
            }
        }
        for slot in 0..r.inverted.k() {
            for &vid in r.inverted.postings(slot) {
                let sparse = r.sparse_vector_of(vid).unwrap();
                assert!(
                    sparse.iter().any(|&(s, _)| s as usize == slot),
                    "stale posting {vid} in list {slot}"
                );
            }
        }
    }

    #[test]
    fn comment_updates_descriptor_vector_and_inverted_index() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let before: Vec<u32> = r.vector_of(VideoId(0)).unwrap().to_vec();
        let summary = r.apply_social_updates(&[SocialUpdate {
            video: VideoId(0),
            user: "eve".into(),
        }]);
        assert_eq!(summary.comments_applied, 1);
        assert!(summary.videos_rewritten >= 1);
        let after = r.vector_of(VideoId(0)).unwrap();
        assert_eq!(
            after.iter().sum::<u32>(),
            before.iter().sum::<u32>() + 1,
            "one more counted user"
        );
        assert_indexes_consistent(&r);
    }

    #[test]
    fn repeat_comments_are_idempotent() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let u = SocialUpdate {
            video: VideoId(0),
            user: "ann".into(),
        };
        let summary = r.apply_social_updates(&[u.clone(), u]);
        assert_eq!(summary.comments_applied, 0, "ann already engaged video 0");
    }

    #[test]
    fn unknown_video_is_skipped() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let summary = r.apply_social_updates(&[SocialUpdate {
            video: VideoId(999),
            user: "ann".into(),
        }]);
        assert_eq!(summary.comments_applied, 0);
        assert_eq!(summary.videos_rewritten, 0);
    }

    #[test]
    fn new_user_is_admitted_and_hashable() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let users_before = r.num_users();
        r.apply_social_updates(&[SocialUpdate {
            video: VideoId(2),
            user: "newbie".into(),
        }]);
        assert_eq!(r.num_users(), users_before + 1);
        // The new user must be mapped by the SAR-H path.
        let v = r.vectorize_by_hash(&["newbie".into()]);
        assert_eq!(v.iter().map(|&(_, c)| c).sum::<u32>(), 1);
    }

    #[test]
    fn heavy_cross_comments_merge_then_split_restores_k() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        // Cross-community engagement heavy enough to beat the intra weight.
        let mut batch = Vec::new();
        for user in ["ann", "bob", "cal", "dee"] {
            batch.push(SocialUpdate {
                video: VideoId(2),
                user: user.into(),
            });
            batch.push(SocialUpdate {
                video: VideoId(3),
                user: user.into(),
            });
        }
        let summary = r.apply_social_updates(&batch);
        assert!(summary.communities >= 2, "k must be restored");
        assert!(summary.estimated_seconds >= 0.0);
        // Vectors stay consistent with descriptors after the churn.
        for id in 0..4u64 {
            let vec_sum: u32 = r.vector_of(VideoId(id)).unwrap().iter().sum();
            let desc_len = r.users_of(VideoId(id)).unwrap().len();
            assert_eq!(vec_sum as usize, desc_len, "video {id}");
        }
        assert_indexes_consistent(&r);
    }

    #[test]
    fn aging_connections_keeps_indexes_consistent() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let summary = r.age_social_connections(1);
        assert_eq!(summary.comments_applied, 0);
        // Vectors must always sum to descriptor sizes, aged or not.
        for id in 0..4u64 {
            let vec_sum: u32 = r.vector_of(VideoId(id)).unwrap().iter().sum();
            let users = r.users_of(VideoId(id)).unwrap().len();
            assert_eq!(vec_sum as usize, users);
        }
        // Aging hard enough isolates everyone; structures must survive.
        let summary = r.age_social_connections(1000);
        assert!(summary.communities >= 2);
        assert_indexes_consistent(&r);
        let q = QueryVideo {
            series: r.series_of(VideoId(0)).unwrap().clone(),
            users: r.users_of(VideoId(0)).unwrap(),
        };
        let recs = r.recommend(Strategy::CsfSarH, &q, 3);
        assert!(!recs.is_empty());
    }

    #[test]
    fn recommendations_stay_sane_after_updates() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let q_users: Vec<String> = r.users_of(VideoId(1)).unwrap();
        let q = QueryVideo {
            series: r.series_of(VideoId(1)).unwrap().clone(),
            users: q_users,
        };
        for round in 0..5 {
            let user = format!("late_user_{round}");
            r.apply_social_updates(&[
                SocialUpdate {
                    video: VideoId(0),
                    user: user.clone(),
                },
                SocialUpdate {
                    video: VideoId(1),
                    user,
                },
            ]);
            let recs = r.recommend_excluding(Strategy::CsfSarH, &q, 2, &[VideoId(1)]);
            assert!(!recs.is_empty());
            assert_eq!(
                recs[0].video,
                VideoId(0),
                "round {round}: social twin must stay on top"
            );
        }
    }

    #[test]
    fn add_videos_extends_every_index_incrementally() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let mut synth = VideoSynthesizer::new(SynthConfig::default(), 2, 601);
        let builder = SignatureBuilder::default();
        let fresh: Vec<CorpusVideo> = (4..6u64)
            .map(|i| {
                let v = synth.generate(VideoId(i), 0, 12.0);
                CorpusVideo {
                    id: v.id(),
                    series: builder.build(&v),
                    users: vec!["ann".into(), format!("late{i}")],
                }
            })
            .collect();
        let summary = r.add_videos(fresh).unwrap();
        assert_eq!(summary.comments_applied, 4);
        assert_eq!(r.num_videos(), 6);
        assert_eq!(r.content.arena.len(), 6, "arena extended, not rebuilt");
        assert_indexes_consistent(&r);
        // The new videos are reachable through every query path.
        let q = QueryVideo {
            series: r.series_of(VideoId(4)).unwrap().clone(),
            users: r.users_of(VideoId(4)).unwrap(),
        };
        for strategy in [Strategy::Csf, Strategy::CsfSar, Strategy::CsfSarH] {
            let recs = r.recommend(strategy, &q, 6);
            assert_eq!(
                recs[0].video,
                VideoId(4),
                "{}: new video must match itself",
                strategy.label()
            );
        }
        // And the pruned path still agrees with the unpruned reference over
        // the same candidate universe.
        for strategy in [Strategy::Csf, Strategy::CsfSarH] {
            assert_eq!(
                r.recommend(strategy, &q, 3),
                r.recommend_unpruned_excluding(strategy, &q, 3, &[]),
            );
        }
    }

    #[test]
    fn clone_for_publish_is_independent_and_bit_identical() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let snapshot = r.clone();
        let q = QueryVideo {
            series: r.series_of(VideoId(0)).unwrap().clone(),
            users: r.users_of(VideoId(0)).unwrap(),
        };
        // The clone answers bit-identically...
        for strategy in [Strategy::Csf, Strategy::CsfSarH] {
            assert_eq!(
                r.recommend(strategy, &q, 4),
                snapshot.recommend(strategy, &q, 4)
            );
        }
        // ...and mutating the original does not leak into the clone.
        r.apply_event(UpdateEvent::Comments(vec![SocialUpdate {
            video: VideoId(0),
            user: "eve".into(),
        }]))
        .unwrap();
        assert_eq!(r.users_of(VideoId(0)).unwrap().len(), 4);
        assert_eq!(snapshot.users_of(VideoId(0)).unwrap().len(), 3);
        assert_eq!(snapshot.query_for(VideoId(0)).unwrap().users.len(), 3);
    }

    #[test]
    fn apply_event_routes_every_arm() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let s = r
            .apply_event(UpdateEvent::Comments(vec![SocialUpdate {
                video: VideoId(1),
                user: "gus".into(),
            }]))
            .unwrap();
        assert_eq!(s.comments_applied, 1);
        let mut synth = VideoSynthesizer::new(SynthConfig::default(), 2, 777);
        let v = synth.generate(VideoId(9), 1, 12.0);
        let fresh = CorpusVideo {
            id: v.id(),
            series: SignatureBuilder::default().build(&v),
            users: vec!["ann".into()],
        };
        r.apply_event(UpdateEvent::Ingest(vec![fresh.clone()]))
            .unwrap();
        assert_eq!(r.num_videos(), 5);
        assert!(matches!(
            r.apply_event(UpdateEvent::Ingest(vec![fresh])),
            Err(RecError::DuplicateVideo(9))
        ));
        let s = r.apply_event(UpdateEvent::Age(1)).unwrap();
        assert_eq!(s.comments_applied, 0);
        assert_indexes_consistent(&r);
    }

    #[test]
    fn add_videos_rejects_duplicates_without_side_effects() {
        let mut r = Recommender::build(cfg(), corpus()).unwrap();
        let dup = CorpusVideo {
            id: VideoId(0),
            series: r.series_of(VideoId(1)).unwrap().clone(),
            users: vec!["zed".into()],
        };
        assert_eq!(
            r.add_videos(vec![dup]).err(),
            Some(RecError::DuplicateVideo(0))
        );
        assert_eq!(r.num_videos(), 4);
        assert_eq!(r.num_users(), 8, "no user interned before the reject");
    }
}

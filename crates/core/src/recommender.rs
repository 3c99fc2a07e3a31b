//! The recommender: corpus ingestion, the five strategies, and the Fig. 6
//! index-backed KNN search.
//!
//! Cost-model fidelity matters here because Fig. 12 measures wall time:
//!
//! * **CSF** computes exact `sJ` over the raw user sets plus a full `κJ`
//!   scan. §4.2.1 calls exact `sJ` "prohibitively expensive" for the
//!   paper's descriptors of thousands of users; here it is a linear
//!   two-pointer merge over interned ids (each row's users are a sorted id
//!   slice, the query's names are resolved once per query), so the SAR
//!   strategies' edge over it is whatever a merge of ≈ 70 ids leaves;
//! * **CSF-SAR** replaces `sJ` with the linear `s̃J` over vectors, but maps
//!   each query user to its sub-community by scanning the user dictionary;
//! * **CSF-SAR-H** maps user names through the chained hash table and pulls
//!   candidates from the inverted files and the LSB forest instead of
//!   scanning, exactly as in Fig. 6;
//! * **CR** is content-only with the same LSB candidate retrieval (the
//!   optimisation of [35]), which is why Fig. 12b finds CSF-SAR-H ≈ CR.
//!
//! Descriptor vectors are dimensioned by the maintenance state's *community
//! slots* (stable indices; merges empty a slot, splits append one) and stored
//! *sparse* — sorted `(slot, count)` pairs — because a video engages a
//! handful of users while `k` is 60+. The Fig. 5 update wiring in
//! [`crate::maintenance`] rewrites only affected entries.
//!
//! There is one query engine ([`Recommender::engine`]) and it is pruned:
//! every content scan runs the lazy best-first bound ladder (see
//! [`crate::prune::Ladder`] and the corpus-owned caches in [`crate::arena`]),
//! with results bit-identical to the unpruned reference over the same
//! candidate universe ([`Recommender::recommend_unpruned_excluding`]).
//!
//! # Index-gated retrieval
//!
//! Under [`RetrievalMode::Paper`] (the default) the candidate universe is the
//! paper's evaluation setup: full enumeration for SR/CSF/CSF-SAR, truncated
//! Fig. 6 indices for CR/CSF-SAR-H. [`RetrievalMode::GatedCertified`]
//! instead makes the *untruncated* inverted-file posting union plus the
//! reach set `R` — every video holding a signature pair within the match
//! radius plus the rounding give, found exactly off the corpus's mean-sorted
//! reach index ([`crate::prune::reach_set`], whose pass also leaves each
//! member's row minima, the ladder's `κJ` ceilings) — the candidate universe
//! for every strategy, so `scanned << corpus`, and bolts an exactness
//! certificate on top (see [`Recommender::engine`] and DESIGN.md §11): after
//! scoring the gathered candidates, a flat O(1) ceiling sweep over the
//! *non*-candidates — whose `κJ` ceiling is 0, being outside `R` — queues
//! any video that could still reach the top-k floor onto the same ladder.
//! The certified result is bit-identical to
//! [`Recommender::recommend_naive_excluding`], the true full-corpus scan.

use crate::arena::{ReachIndex, ScoringArena, Totals};
use crate::config::{RecommenderConfig, RetrievalMode};
use crate::corpus::{CorpusVideo, QueryVideo};
use crate::errors::RecError;
use crate::prune::{reach_set, rounding_give, Ladder, LadderQueue, PruneStats, Queued, ReachRows};
use crate::relevance::{strategy_score, Strategy};
use crate::topk::{floor_of, push_top_k, sort_ranked, top_k_heap, WorstFirst};
use crate::trace::{QueryTrace, Stage, Tracer};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use viderec_emd::CdfEmbedder;
use viderec_index::{ChainedHashTable, InvertedIndex, LsbForest};
use viderec_signature::{kappa_j_series_pruned as kappa_j_series, SignatureSeries};
use viderec_social::{
    sar_similarity_sparse, SocialUpdatesMaintenance, UserId, UserInterestGraph, UserRegistry,
};
use viderec_video::VideoId;

/// A recommendation: a video and its relevance score.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// The recommended video.
    pub video: VideoId,
    /// Its strategy-specific relevance to the query.
    pub score: f64,
}

/// Per-query state precomputed once and shared by every per-video scoring
/// call, in the engine and in the reference scans alike.
pub(crate) struct PreparedQuery {
    /// Sparse SAR vector of the query users (sorted `(slot, count)` pairs);
    /// empty for strategies without a SAR social side.
    pub(crate) qvec: Vec<(u32, u32)>,
    /// The query users as exact `sJ` sees them; empty for strategies
    /// without an exact social side.
    pub(crate) users: QueryUsers,
}

/// A query's user names resolved against the registry, once per query:
/// what exact `sJ` (Eq. 5) and the certificate's social ceiling need.
#[derive(Default)]
pub(crate) struct QueryUsers {
    /// The names the registry knows, as distinct ids, ascending.
    known: Vec<UserId>,
    /// `|A|`: how many distinct names the query holds. A name the registry
    /// has never seen counts here and matches no video.
    distinct: usize,
    /// How many of those distinct names have no live community slot,
    /// unknown names included: the only names a video outside the posting
    /// union can share with the query.
    unassigned: usize,
}

impl QueryUsers {
    /// Exact `sJ = |A ∩ B| / |A ∪ B|` against a row's users (distinct ids,
    /// ascending): a two-pointer merge counts `|A ∩ B|`, and the union is
    /// `|A| + |B| − |A ∩ B|`. Two empty sets score 0.
    fn jaccard(&self, row: &[UserId]) -> f64 {
        let sizes = self.distinct + row.len();
        if sizes == 0 {
            return 0.0;
        }
        let (a, b) = (&self.known[..], row);
        let (mut i, mut j, mut inter) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            inter += usize::from(x == y);
        }
        inter as f64 / (sizes - inter) as f64
    }
}

/// What only an ingest writes: identity, content signatures and everything
/// derived from them. A comment or aging round never touches it, so every
/// snapshot published between two ingests shares one copy.
#[derive(Clone)]
pub(crate) struct Content {
    /// Video ids by corpus index.
    pub(crate) ids: Vec<VideoId>,
    pub(crate) by_id: HashMap<VideoId, usize>,
    /// Signature series by corpus index.
    pub(crate) series: Vec<SignatureSeries>,
    /// Corpus-owned scoring caches (see [`crate::arena`]): built at ingest,
    /// extended by [`crate::maintenance`], borrowed by every query.
    pub(crate) arena: ScoringArena,
    /// Every signature of the corpus by mean, beside its slice features
    /// and video: what a gated query computes its reach set `R` from.
    /// Merged into, never rebuilt, on ingest. Its chunks are shared, so a
    /// copy of `Content` bumps their counts instead of copying 76 bytes a
    /// signature, and an ingest writes only the chunks it lands in.
    pub(crate) reach: ReachIndex,
    /// The Fig. 6 content index, held by a [`RetrievalMode::Paper`] build
    /// only: no gated query reads it.
    pub(crate) forest: Option<Forest>,
}

/// Paper mode's LSB forest over every signature's CDF embedding: what the
/// paper's CR / CSF-SAR-H gather probes (Fig. 6 lines 5–6).
#[derive(Clone)]
pub(crate) struct Forest {
    pub(crate) lsb: LsbForest<u32>,
    pub(crate) embedder: CdfEmbedder,
}

/// One video's social side. Rows are shared one by one, so a round copies
/// only the rows it writes: those that got a comment or hold a reassigned
/// user.
#[derive(Clone)]
pub(crate) struct SocialRow {
    /// The social descriptor (owner and commenters): distinct ids,
    /// ascending. A name is resolved only at the edges — when a query or an
    /// update arrives, and when [`Recommender::users_of`] hands names out.
    pub(crate) users: Box<[UserId]>,
    /// Sparse SAR histogram over the community slots: sorted `(slot, count)`
    /// pairs, zero slots omitted. Slots beyond the last entry are implicit
    /// zeros, so community splits never need to touch it.
    pub(crate) vector: Vec<(u32, u32)>,
}

/// Write-set bits, one per shared component of a [`Recommender`] (the
/// per-video rows are shared row by row and need none).
#[doc(hidden)]
pub mod part {
    /// Ids, series, scoring arena, reach index, and a paper-mode build's
    /// LSB forest.
    pub const CONTENT: u8 = 1 << 0;
    /// The user registry.
    pub const REGISTRY: u8 = 1 << 1;
    /// The user → videos engagement lists.
    pub const VIDEOS_OF_USER: u8 = 1 << 2;
    /// UIG and sub-community state.
    pub const MAINTENANCE: u8 = 1 << 3;
    /// The chained hash table.
    pub const CHAINED: u8 = 1 << 4;
    /// The inverted files.
    pub const INVERTED: u8 = 1 << 5;
}

/// The `&mut` accessor every maintenance write goes through: records `bit`
/// in the write set and unshares `slot` — a copy only while a snapshot still
/// holds it. Borrows the component alone, so several can be open at once.
pub(crate) fn write<'a, T: Clone>(slot: &'a mut Arc<T>, written: &mut u8, bit: u8) -> &'a mut T {
    *written |= bit;
    Arc::make_mut(slot)
}

/// The content-social video recommender.
///
/// A handle over `Arc`-shared components grouped by which event writes them:
/// content (ingest only), one social row per video (comments on it,
/// reassignments of its users) and the five social structures. `Clone` is
/// the serving layer's *publish* path and copies no corpus data: it bumps
/// one reference count per component and per row. The clone is a snapshot —
/// every later write to either handle goes through [`Arc::make_mut`] and so
/// copies what it is about to change unless the writer is the only holder —
/// and answers queries bit-identically to the original at the moment of the
/// clone (see `viderec-serve` and [`Self::reprivatise`]).
pub struct Recommender {
    cfg: RecommenderConfig,
    pub(crate) content: Arc<Content>,
    /// The social rows by corpus index.
    pub(crate) videos: Vec<Arc<SocialRow>>,
    pub(crate) registry: Arc<UserRegistry>,
    /// Inverse engagement index: user → indices of videos they engaged with.
    pub(crate) videos_of_user: Arc<HashMap<UserId, Vec<u32>>>,
    pub(crate) maintenance: Arc<SocialUpdatesMaintenance>,
    pub(crate) chained: Arc<ChainedHashTable<usize>>,
    pub(crate) inverted: Arc<InvertedIndex>,
    /// Components written since the last [`Self::reprivatise`] ([`part`]
    /// bits).
    pub(crate) written: u8,
}

impl Clone for Recommender {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            content: Arc::clone(&self.content),
            videos: self.videos.clone(),
            registry: Arc::clone(&self.registry),
            videos_of_user: Arc::clone(&self.videos_of_user),
            maintenance: Arc::clone(&self.maintenance),
            chained: Arc::clone(&self.chained),
            inverted: Arc::clone(&self.inverted),
            // The clone has written nothing yet.
            written: 0,
        }
    }
}

impl Recommender {
    /// Builds the recommender over a corpus in two halves that share no
    /// input, side by side on two threads (DESIGN.md §5):
    ///
    /// * the **content half**, on a spawned thread, appends every video in
    ///   corpus order to the ids, the scoring arena (its columns sized once
    ///   from the corpus totals) and, in [`RetrievalMode::Paper`] only, the
    ///   LSB forest, then sorts every signature into the reach index;
    /// * the **social half**, on the calling thread, interns users, builds
    ///   the UIG in one counting pass, extracts `k` sub-communities, populates the chained hash
    ///   table, and vectorises every descriptor into its row, the inverted
    ///   files and the engagement lists.
    ///
    /// Each half is sequential in corpus order, so the result does not
    /// depend on how the two interleave. A repeated id is a
    /// [`RecError::DuplicateVideo`] naming the first id seen twice, and a
    /// corpus whose counts overflow the `u32` columns a
    /// [`RecError::BadConfig`].
    pub fn build(cfg: RecommenderConfig, mut corpus: Vec<CorpusVideo>) -> Result<Self, RecError> {
        cfg.validate().map_err(RecError::BadConfig)?;
        if corpus.is_empty() {
            return Err(RecError::EmptyCorpus);
        }
        let totals = Totals::of(corpus.iter().map(|video| &video.series));
        totals.check()?;

        let ids: Vec<VideoId> = corpus.iter().map(|video| video.id).collect();
        let users: Vec<Vec<String>> = corpus
            .iter_mut()
            .map(|video| std::mem::take(&mut video.users))
            .collect();
        let (content, social) = std::thread::scope(|scope| {
            let content = scope.spawn(|| Content::build(&cfg, totals, corpus));
            let social = Social::build(&cfg, &ids, users);
            (content.join(), social)
        });
        let content = content
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            .map_err(|id| RecError::DuplicateVideo(id.0))?;
        Ok(Self::from_halves(cfg, content, social))
    }

    /// A recommender over the two halves [`Self::build`] built.
    fn from_halves(cfg: RecommenderConfig, content: Content, social: Social) -> Self {
        Self {
            cfg,
            content: Arc::new(content),
            videos: social.videos,
            registry: Arc::new(social.registry),
            videos_of_user: Arc::new(social.videos_of_user),
            maintenance: Arc::new(social.maintenance),
            chained: Arc::new(social.chained),
            inverted: Arc::new(social.inverted),
            written: 0,
        }
    }

    /// Copies, now, every component written since the last call that a
    /// snapshot still shares, and empties the write set. A writer that
    /// publishes clones calls this *after* each publish: what one round
    /// wrote the next round mostly writes again, so the copy-on-write copies
    /// land here instead of inside the next [`Self::apply_event`]. A no-op
    /// for a handle nobody shares.
    pub fn reprivatise(&mut self) {
        fn unshare<T: Clone>(slot: &mut Arc<T>, written: u8, bit: u8) {
            if written & bit != 0 {
                Arc::make_mut(slot);
            }
        }
        let written = std::mem::take(&mut self.written);
        unshare(&mut self.content, written, part::CONTENT);
        unshare(&mut self.registry, written, part::REGISTRY);
        unshare(&mut self.videos_of_user, written, part::VIDEOS_OF_USER);
        unshare(&mut self.maintenance, written, part::MAINTENANCE);
        unshare(&mut self.chained, written, part::CHAINED);
        unshare(&mut self.inverted, written, part::INVERTED);
    }

    /// Test probe: the write set ([`part`] bits) since the last
    /// [`Self::reprivatise`].
    #[doc(hidden)]
    pub fn written(&self) -> u8 {
        self.written
    }

    /// Test probe: which components ([`part`] bits) `self` and `other` hold
    /// the same allocation of, and how many social rows.
    #[doc(hidden)]
    pub fn shared_with(&self, other: &Self) -> (u8, usize) {
        fn same<T>(a: &Arc<T>, b: &Arc<T>, bit: u8) -> u8 {
            if Arc::ptr_eq(a, b) {
                bit
            } else {
                0
            }
        }
        let parts = same(&self.content, &other.content, part::CONTENT)
            | same(&self.registry, &other.registry, part::REGISTRY)
            | same(
                &self.videos_of_user,
                &other.videos_of_user,
                part::VIDEOS_OF_USER,
            )
            | same(&self.maintenance, &other.maintenance, part::MAINTENANCE)
            | same(&self.chained, &other.chained, part::CHAINED)
            | same(&self.inverted, &other.inverted, part::INVERTED);
        let rows = self.videos.iter().zip(&other.videos);
        (parts, rows.filter(|(a, b)| Arc::ptr_eq(a, b)).count())
    }

    /// Test probe: the first component in which `self` and `other` differ,
    /// compared part by part and bit for bit in build order — ids, series,
    /// arena columns, reach index, LSB forest entries, registry, UIG,
    /// partition, chained
    /// hash, rows, engagement lists, inverted files — or `None` when they
    /// hold the same index.
    #[doc(hidden)]
    pub fn differing_part(&self, other: &Self) -> Option<&'static str> {
        fn eq<T: PartialEq>(
            a: &Recommender,
            b: &Recommender,
            part: impl Fn(&Recommender) -> T,
        ) -> bool {
            part(a) == part(b)
        }
        let (a, b) = (self, other);
        let checks = [
            (
                "ids",
                eq(a, b, |r| (r.content.ids.clone(), r.content.by_id.clone())),
            ),
            ("series", eq(a, b, |r| r.content.series.clone())),
            ("arena", a.content.arena.same_bits(&b.content.arena)),
            ("reach", a.content.reach.same_bits(&b.content.reach)),
            (
                "lsb",
                eq(a, b, |r| {
                    r.content.forest.as_ref().map(|Forest { lsb, .. }| {
                        let trees = lsb.listings().map(|tree| {
                            tree.map(|(key, bag)| (key, bag.to_vec()))
                                .collect::<Vec<_>>()
                        });
                        (
                            lsb.len(),
                            lsb.distinct_keys(),
                            lsb.stored_pairs(),
                            trees.collect::<Vec<_>>(),
                        )
                    })
                }),
            ),
            (
                "registry",
                eq(a, b, |r| {
                    r.registry
                        .iter()
                        .map(|(id, name)| (id, name.to_owned()))
                        .collect::<Vec<_>>()
                }),
            ),
            (
                "graph",
                eq(a, b, |r| {
                    let graph = r.maintenance.graph();
                    (graph.num_users(), graph.edges().collect::<Vec<_>>())
                }),
            ),
            (
                "partition",
                eq(a, b, |r| {
                    let m = &r.maintenance;
                    (m.partition(), m.assignment_raw().to_vec(), m.num_slots())
                }),
            ),
            (
                "chained",
                eq(a, b, |r| {
                    let entries = r
                        .chained
                        .iter()
                        .map(|(name, &slot)| (name.to_owned(), slot));
                    let lookups = r
                        .registry
                        .iter()
                        .map(|(_, name)| r.chained.get(name).copied());
                    (entries.collect::<Vec<_>>(), lookups.collect::<Vec<_>>())
                }),
            ),
            (
                "rows",
                eq(a, b, |r| {
                    let row = |v: &Arc<SocialRow>| (v.users.clone(), v.vector.clone());
                    r.videos.iter().map(row).collect::<Vec<_>>()
                }),
            ),
            ("videos_of_user", a.videos_of_user == b.videos_of_user),
            (
                "inverted",
                eq(a, b, |r| {
                    let postings = (0..r.inverted.k()).map(|c| r.inverted.postings(c).to_vec());
                    postings.collect::<Vec<_>>()
                }),
            ),
        ];
        checks
            .into_iter()
            .find(|&(_, same)| !same)
            .map(|(part, _)| part)
    }

    /// Configuration in force.
    pub fn config(&self) -> &RecommenderConfig {
        &self.cfg
    }

    /// Number of indexed videos.
    pub fn num_videos(&self) -> usize {
        // viderec-lint: allow(corpus-enumeration) — size accessor; no video
        // is visited.
        self.videos.len()
    }

    /// Number of live sub-communities (may differ from the configured `k`
    /// when the UIG cannot support it).
    pub fn live_communities(&self) -> usize {
        self.maintenance.live_communities()
    }

    /// Number of community slots = descriptor vector dimensionality.
    pub fn community_slots(&self) -> usize {
        self.maintenance.num_slots()
    }

    /// What the LSB forest holds: distinct Z-values and stored
    /// `(Z-value, video)` pairs, each summed over its trees.
    /// Seed-deterministic, so a change to hashing or to the forest's dedup
    /// shows in them. `(0, 0)` under [`RetrievalMode::GatedCertified`],
    /// which builds no forest.
    pub fn lsb_entries(&self) -> (usize, usize) {
        self.content
            .forest
            .as_ref()
            .map_or((0, 0), |f| (f.lsb.distinct_keys(), f.lsb.stored_pairs()))
    }

    /// Number of registered users.
    pub fn num_users(&self) -> usize {
        self.registry.len()
    }

    /// Corpus index of a video id.
    fn index_of(&self, id: VideoId) -> Option<usize> {
        self.content.by_id.get(&id).copied()
    }

    /// The signature series of an indexed video (test/eval support).
    pub fn series_of(&self, id: VideoId) -> Option<&SignatureSeries> {
        self.index_of(id).map(|i| &self.content.series[i])
    }

    /// The *dense* SAR vector of an indexed video over the current community
    /// slots (test/eval support; storage is sparse).
    pub fn vector_of(&self, id: VideoId) -> Option<Vec<u32>> {
        self.index_of(id).map(|i| {
            let mut dense = vec![0u32; self.community_slots()];
            for &(slot, count) in &self.videos[i].vector {
                if (slot as usize) < dense.len() {
                    dense[slot as usize] = count;
                }
            }
            dense
        })
    }

    /// The sparse SAR vector of an indexed video (test/eval support).
    pub fn sparse_vector_of(&self, id: VideoId) -> Option<&[(u32, u32)]> {
        self.index_of(id).map(|i| self.videos[i].vector.as_slice())
    }

    /// The query "click" on an indexed video: its signature series and
    /// engaged users, as [`Self::users_of`] lists them. This is what a
    /// served `GET /recommend?video=<id>` resolves to.
    pub fn query_for(&self, id: VideoId) -> Option<QueryVideo> {
        self.index_of(id).map(|i| QueryVideo {
            series: self.content.series[i].clone(),
            users: self.names_at(i),
        })
    }

    /// A user name's community slot as the chained hash gives it and as the
    /// raw assignment does (`None`: not in the hash; not in the UIG). The two
    /// agree after every build and maintenance round (test support).
    #[doc(hidden)]
    pub fn slots_of_user(&self, name: &str) -> (Option<usize>, Option<usize>) {
        let raw = self.registry.get(name).and_then(|id| {
            let assignment = self.maintenance.assignment_raw();
            assignment.get(id.index()).copied()
        });
        (self.chained.get(name).copied(), raw)
    }

    /// The engaged user names of an indexed video: each distinct user
    /// once, in user-id order (the order the registry first saw them), not
    /// in engagement order (test/eval support).
    pub fn users_of(&self, id: VideoId) -> Option<Vec<String>> {
        self.index_of(id).map(|i| self.names_at(i))
    }

    fn names_at(&self, idx: usize) -> Vec<String> {
        let users = self.videos[idx].users.iter();
        users.map(|&id| self.registry.name(id).to_owned()).collect()
    }

    /// Top-`top_k` recommendations for a clicked video under `strategy`.
    pub fn recommend(&self, strategy: Strategy, query: &QueryVideo, top_k: usize) -> Vec<Scored> {
        self.recommend_excluding(strategy, query, top_k, &[])
    }

    /// Like [`Self::recommend`] but never returns the listed videos
    /// (typically the clicked video itself).
    pub fn recommend_excluding(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        top_k: usize,
        exclude: &[VideoId],
    ) -> Vec<Scored> {
        self.recommend_with_stats(strategy, query, top_k, exclude).0
    }

    /// [`Self::recommend_excluding`], also returning the query's
    /// [`PruneStats`]: a single click pays `κJ` only for candidates whose
    /// admissible score ceiling can still enter the top-k. Results are
    /// bit-identical to [`Self::recommend_unpruned_excluding`] (and, in the
    /// certified gated retrieval mode, to the full-corpus
    /// [`Self::recommend_naive_excluding`]).
    pub fn recommend_with_stats(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        top_k: usize,
        exclude: &[VideoId],
    ) -> (Vec<Scored>, PruneStats) {
        let (top, trace) = self.recommend_traced(strategy, query, top_k, exclude, Tracer::OFF);
        (top, trace.stats)
    }

    /// The query with stage-level tracing: [`Self::engine`] over this
    /// thread's scratch, with `tracer`-gated monotonic-clock spans
    /// accumulated into a [`QueryTrace`] around every pipeline stage. A
    /// disabled tracer collapses each span to a single branch — no clock
    /// read, no store — so results are bit-identical with tracing on or off.
    pub fn recommend_traced(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        top_k: usize,
        exclude: &[VideoId],
        tracer: Tracer,
    ) -> (Vec<Scored>, QueryTrace) {
        SCRATCH.with_borrow_mut(|scratch| {
            self.engine(strategy, query, top_k, exclude, tracer, scratch)
        })
    }

    /// The bound ladder for one query over this corpus (see [`Ladder`]);
    /// `query_cache` is the query's single-series arena.
    pub(crate) fn ladder<'a>(
        &'a self,
        strategy: Strategy,
        query_cache: &'a ScoringArena,
        top_k: usize,
    ) -> Ladder<'a> {
        let (lo, hi) = query_cache.mean_ranges();
        let give = rounding_give(query_cache.rounding(), self.content.arena.rounding());
        Ladder {
            cfg: &self.cfg,
            content: &self.content,
            strategy,
            qv: query_cache.view(0),
            q_range: (lo[0], hi[0]),
            reach: self.cfg.matching.radius() + give,
            in_reach: None,
            top_k,
        }
    }

    /// Puts `candidates` on the ladder's first rung: exact social score (the
    /// `Social` stage, credited per `sJ` evaluation) and the O(1) ceiling
    /// `FJ(κ=1, s)` — `FJ(0, s)`, the exact score, for a gated candidate
    /// outside the reach set `in_reach` — then the queue's order (the `Sort`
    /// stage; that order is what makes the first prune a wholesale one) — by
    /// construction, see [`FirstRung::order_into`]. Only the first
    /// `with_social` candidates can score socially; the caller knows the
    /// rest score exactly 0 and lie in `R`.
    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &self,
        strategy: Strategy,
        prep: &PreparedQuery,
        candidates: &[u32],
        with_social: usize,
        in_reach: Option<&ReachRows>,
        rung: &mut FirstRung,
        tracer: Tracer,
        trace: &mut QueryTrace,
    ) -> LadderQueue {
        let mut sp = tracer.start();
        let omega = self.cfg.omega;
        let tie_key = strategy_score(strategy, omega, 1.0, 0.0);
        rung.social.clear();
        for &idx in &candidates[..with_social] {
            let sj = self.social_score(strategy, prep, idx as usize);
            let kappa_ub = match in_reach {
                Some(reach_set) if !reach_set.contains(idx) => 0.0,
                _ => 1.0,
            };
            let key = strategy_score(strategy, omega, kappa_ub, sj);
            rung.offer(Queued { key, sj, idx }, tie_key);
        }
        trace.lap_span_n(&mut sp, Stage::Social, with_social as u64);
        let mut entries = std::mem::take(&mut rung.queue);
        rung.order_into(tie_key, candidates, self.num_videos(), &mut entries);
        let queue = LadderQueue::new(entries, std::mem::take(&mut rung.refined));
        trace.lap_span(&mut sp, Stage::Sort);
        queue
    }

    /// The ground-truth reference: score **every** corpus video — no index
    /// truncation, no pruning — sort fully, truncate to `top_k`. This is what
    /// the certified gated mode must reproduce bit-identically.
    pub fn recommend_naive_excluding(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        top_k: usize,
        exclude: &[VideoId],
    ) -> Vec<Scored> {
        let prep = self.prepare_query(strategy, query);
        // viderec-lint: allow(corpus-enumeration) — the naive reference is a
        // sanctioned full scan: it defines ground truth for the gated mode.
        let universe = self.all_video_indices();
        self.reference_scan(universe, strategy, query, &prep, top_k, exclude)
    }

    /// The unpruned reference over the *paper-mode candidate universe* —
    /// score every candidate [`Self::candidate_indices`] yields, sort fully,
    /// truncate — exactly the pre-arena behaviour of [`Self::recommend`].
    /// Kept public for the equivalence suite and the single-query benchmark;
    /// the pruned paper-mode path must return bit-identical results. (For
    /// SR/CSF/CSF-SAR this coincides with the full scan of
    /// [`Self::recommend_naive_excluding`]; for CR/CSF-SAR-H it keeps the
    /// Fig. 6 index truncation.)
    pub fn recommend_unpruned_excluding(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        top_k: usize,
        exclude: &[VideoId],
    ) -> Vec<Scored> {
        let prep = self.prepare_query(strategy, query);
        let universe = SCRATCH.with_borrow_mut(|scratch| {
            self.candidate_indices(strategy, query, &prep, &[], scratch);
            std::mem::take(&mut scratch.candidates)
        });
        self.reference_scan(universe.into_iter(), strategy, query, &prep, top_k, exclude)
    }

    /// The body of both references: score every video of `universe` with the
    /// unscreened measures, drop the exclusions, sort fully, truncate.
    fn reference_scan(
        &self,
        universe: impl Iterator<Item = u32>,
        strategy: Strategy,
        query: &QueryVideo,
        prep: &PreparedQuery,
        top_k: usize,
        exclude: &[VideoId],
    ) -> Vec<Scored> {
        if top_k == 0 {
            return Vec::new();
        }
        let excluded: HashSet<VideoId> = exclude.iter().copied().collect();
        let mut scored: Vec<Scored> = universe
            .map(|idx| Scored {
                video: self.content.ids[idx as usize],
                score: self.score_video(strategy, query, prep, idx as usize),
            })
            .collect();
        scored.retain(|s| !excluded.contains(&s.video));
        sort_ranked(&mut scored);
        scored.truncate(top_k);
        scored
    }
}

/// One bit per corpus video: gathered, excluded, or queued as a certificate
/// survivor — everything the certificate sweep and the zero fill must skip.
#[derive(Default)]
pub(crate) struct Seen(Vec<u64>);

impl Seen {
    /// Clears the set and sizes it for `n` videos.
    pub(crate) fn reset(&mut self, n: usize) {
        self.0.clear();
        self.0.resize(n.div_ceil(64), 0);
    }

    /// Marks `idx`; `true` when it was not marked before.
    pub(crate) fn insert(&mut self, idx: u32) -> bool {
        let (word, bit) = (idx as usize / 64, 1u64 << (idx % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Unmarks `idx`.
    fn unmark(&mut self, idx: u32) {
        self.0[idx as usize / 64] &= !(1u64 << (idx % 64));
    }

    /// The marked indices, descending.
    fn marked_descending(&self) -> impl Iterator<Item = u32> + '_ {
        let words = self.0.iter().enumerate().rev();
        words.flat_map(|(w, &word)| {
            let mut left = word;
            std::iter::from_fn(move || {
                let bit = (left != 0).then(|| 63 - left.leading_zeros())?;
                left ^= 1 << bit;
                Some(w as u32 * 64 + bit)
            })
        })
    }

    /// The unmarked indices below `n`, ascending.
    fn unseen(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        let words = self.0.iter().enumerate();
        words
            .flat_map(|(w, &word)| {
                let mut free = !word;
                std::iter::from_fn(move || {
                    let bit = (free != 0).then(|| free.trailing_zeros())?;
                    free &= free - 1;
                    Some(w as u32 * 64 + bit)
                })
            })
            .take_while(move |&idx| idx < n)
    }
}

/// What builds the ladder's first rung in queue order without sorting it.
/// Nearly every candidate has no social signal: `sJ = 0`, so its key is
/// `FJ(κ=1, s=0)` to the bit and the queue's order *within* that tie group is
/// index order — which a bitset yields for one pass over its words. Only the
/// candidates with a social score, or a key of their own, are sorted.
#[derive(Default)]
struct FirstRung {
    /// The tie group: candidates whose `sJ` is `+0.0` and whose key is the
    /// tie key, both to the bit.
    ties: Seen,
    /// Every other candidate, each with its own key.
    social: Vec<Queued>,
    /// The queue's first-tier storage, between queries.
    queue: Vec<Queued>,
    /// The queue's refined-tier storage, between queries.
    refined: BinaryHeap<Queued>,
}

impl FirstRung {
    /// Files a socially scored candidate: on the side list unless its `sJ`
    /// is `+0.0` and its key `tie_key` — by bits, not by value, so whatever
    /// `sJ` and key a candidate has reach the ladder with it.
    fn offer(&mut self, e: Queued, tie_key: f64) {
        if e.sj.to_bits() != 0 || e.key.to_bits() != tie_key.to_bits() {
            self.social.push(e);
        }
    }

    /// Writes the first rung of `candidates` (duplicate-free, below `n`)
    /// into `fresh`, ascending in [`Queued`]'s order — element for element
    /// what `sort_unstable` makes of the same entries. The side list is
    /// sorted; everyone else enters at `tie_key` by descending index. Ties
    /// go by key bits, so a side entry whose `sJ > 0` rounds away in
    /// `FJ(1, sJ)` (or that ties on every key, as under CR) is merged into
    /// the group where its index puts it, carrying its own `sJ`.
    fn order_into(&mut self, tie_key: f64, candidates: &[u32], n: usize, fresh: &mut Vec<Queued>) {
        let Self { ties, social, .. } = self;
        ties.reset(n);
        for &idx in candidates {
            ties.insert(idx);
        }
        for e in social.iter() {
            ties.unmark(e.idx);
        }
        social.sort_unstable();
        let above = social.partition_point(|e| e.key.total_cmp(&tie_key).is_le());
        let (level, above) = social.split_at(above);
        let mut level = level.iter().peekable();
        fresh.clear();
        ties.marked_descending().for_each(|idx| {
            let tie = Queued {
                key: tie_key,
                sj: 0.0,
                idx,
            };
            while let Some(e) = level.next_if(|e| **e < tie) {
                fresh.push(*e);
            }
            fresh.push(tie);
        });
        fresh.extend(level);
        fresh.extend_from_slice(above);
    }
}

/// Per-query scratch of the engine, reused across queries on a thread so a
/// query allocates nothing once warm.
#[derive(Default)]
struct Scratch {
    seen: Seen,
    /// A gated query's reach set `R` and its row minima ([`reach_set`]).
    reach: ReachRows,
    /// The gathered candidates, exclusions already dropped.
    candidates: Vec<u32>,
    /// How many gathered videos the exclusion list kept out of `candidates`.
    dropped: u64,
    rung: FirstRung,
}

impl Scratch {
    /// Starts a gather over a corpus of `n` videos.
    fn begin(&mut self, n: usize) {
        self.seen.reset(n);
        self.candidates.clear();
        self.dropped = 0;
    }

    /// Offers a gathered video: a candidate unless it was offered before or
    /// is listed in `excluded` (sorted). Exclusions drop out *before* any
    /// scoring: an excluded video never pays for `κJ` and never occupies the
    /// pruning floor.
    fn offer(&mut self, idx: u32, excluded: &[u32]) {
        if self.seen.insert(idx) {
            if excluded.binary_search(&idx).is_ok() {
                self.dropped += 1;
            } else {
                self.candidates.push(idx);
            }
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl Recommender {
    /// The one sanctioned full-corpus enumeration. Only the naive reference
    /// and the paper-mode universe of the unindexed strategies may call it:
    /// the `corpus-enumeration` lint rule flags every other use inside the
    /// recommend paths.
    pub(crate) fn all_video_indices(&self) -> std::ops::Range<u32> {
        // viderec-lint: allow(corpus-enumeration) — this *is* the sanctioned
        // enumeration helper; the rule polices its call sites.
        0..self.videos.len() as u32
    }

    /// The paper-mode gather, into `scratch.candidates`: every corpus video
    /// for the full-scan strategies; for CR and CSF-SAR-H, the union of the
    /// top-`candidate_limit` ranked inverted-file candidates (Fig. 6 line 3 —
    /// the truncation happens inside the index) and, per query signature,
    /// the longest-common-prefix LSB-forest entries (lines 5–6). In no
    /// particular order: the ladder's queue and the ranked sort are total
    /// orders. Returns how many leading candidates can score socially — here,
    /// all of them.
    fn candidate_indices(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        prep: &PreparedQuery,
        excluded: &[u32],
        scratch: &mut Scratch,
    ) -> usize {
        scratch.begin(self.num_videos());
        match strategy {
            Strategy::Sr | Strategy::Csf | Strategy::CsfSar => {
                // viderec-lint: allow(corpus-enumeration) — the paper-mode
                // universe for the unindexed strategies is the corpus by design.
                for idx in self.all_video_indices() {
                    scratch.offer(idx, excluded);
                }
            }
            Strategy::Cr | Strategy::CsfSarH => {
                let (content, limit) = (&*self.content, self.cfg.candidate_limit);
                if strategy.uses_social() {
                    for video in self.inverted.candidates_topn(&prep.qvec, limit) {
                        if let Some(&idx) = content.by_id.get(&video) {
                            scratch.offer(idx as u32, excluded);
                        }
                    }
                }
                // A paper build always holds the forest.
                if let Some(Forest { lsb, embedder }) = &content.forest {
                    for sig in query.series.signatures() {
                        let point = embedder.embed(&sig.as_pairs());
                        for cand in lsb.query(&point, limit) {
                            scratch.offer(cand.payload, excluded);
                        }
                    }
                }
            }
        }
        scratch.candidates.len()
    }

    /// The index-gated gather, into `scratch.candidates`: the **untruncated**
    /// posting union of the query's sub-community histogram (every video
    /// sharing a nonzero slot — exactly the set whose SAR similarity or
    /// shared-assigned-user count can be nonzero) and then the reach set `R`
    /// (into `scratch.reach`, [`reach_set`]: every video holding a signature
    /// pair within `ladder.reach` of the query — a superset of those whose
    /// `κJ` ceiling is not 0). Returns how many leading candidates can score
    /// socially.
    fn gated_candidates(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        prep: &PreparedQuery,
        ladder: &Ladder<'_>,
        excluded: &[u32],
        scratch: &mut Scratch,
    ) -> usize {
        scratch.begin(self.num_videos());
        let content = &*self.content;
        if strategy.uses_social() {
            // SAR strategies gather through their own query vector; SR/CSF
            // score socially via exact sJ but *gather* through the
            // hash-mapped histogram, which covers every video sharing an
            // assigned user with the query (the certificate bounds the rest).
            let hashed;
            let histogram = match strategy {
                Strategy::Sr | Strategy::Csf => {
                    hashed = self.vectorize_by_hash(&query.users);
                    &hashed
                }
                _ => &prep.qvec,
            };
            for video in self.inverted.posting_union(histogram) {
                if let Some(&idx) = content.by_id.get(&video) {
                    scratch.offer(idx as u32, excluded);
                }
            }
        }
        let social = scratch.candidates.len();
        if strategy.uses_content() {
            let mut reach = std::mem::take(&mut scratch.reach);
            reach_set(
                &content.reach,
                ladder.qv,
                ladder.reach,
                self.num_videos(),
                &mut reach,
            );
            for &idx in reach.members() {
                scratch.offer(idx, excluded);
            }
            scratch.reach = reach;
        }
        // Whether gathered or not, an excluded video is never a certificate
        // survivor and never zero-filled.
        for &idx in excluded {
            scratch.seen.insert(idx);
        }
        if is_sar(strategy) {
            // A SAR candidate the posting union did not deliver shares no
            // slot with the query: its social score is exactly 0.
            social
        } else {
            scratch.candidates.len()
        }
    }

    /// The exactness certificate, flat: sweep every video the gather missed
    /// (the unmarked bits of `seen`) and append to `out` those whose O(1)
    /// score ceiling reaches the top-k `floor` (`0.0` while the heap is not
    /// full). Survivors go onto the ladder, whose slice-bound rung decides
    /// whether any of them is actually scored.
    ///
    /// The social ceiling of a non-candidate is where the gather earns its
    /// keep. Any user shared between the query and a video that the chained
    /// hash maps to a live community slot puts the video into the posting
    /// union (`crate::maintenance` keeps every hashed slot equal to the raw
    /// assignment the descriptor vectors and posting lists are built from),
    /// so a non-candidate can share only *unassigned* names, counted once
    /// per query by [`Self::resolve_users`]:
    ///
    /// * SAR strategies: the histograms have disjoint support, so `s̃J` is
    ///   exactly 0 ([`sar_similarity_sparse`] returns 0.0 for disjoint
    ///   support — no epsilon needed).
    /// * SR/CSF: `|inter| ≤ q_unassigned` and `|union| ≥ max(|q|, |v|)`
    ///   (distinct names), so `sJ ≤ q_unassigned / max(|q|, |v|)`.
    /// * CR has no social side.
    ///
    /// The content ceiling of a non-candidate is `κJ = 0`: the gather took
    /// every video of the reach set `R` ([`reach_set`]), and a video outside
    /// it has a `κJ` ceiling of 0. The ceiling under the largest social
    /// score *any* non-candidate can have is loop-invariant and tested
    /// first: a SAR or CR query, whose non-candidates all score 0, skips the
    /// sweep in O(1).
    ///
    /// A ceiling reaches a positive floor non-strictly (`ceiling ≥ floor`)
    /// so ties get evaluated — required for bit-identity with the naive
    /// scan. Against a floor of `0.0` only ceilings that *clear* zero
    /// survive: a ceiling of exactly `0.0` is a certificate that the true
    /// score is `0.0` (scores are non-negative and the bound is admissible),
    /// and the naive scan ranks zero-score videos purely by id — a tail
    /// [`Self::zero_fill_into`] synthesizes without scoring anything.
    fn certificate_survivors(
        &self,
        strategy: Strategy,
        prep: &PreparedQuery,
        floor: f64,
        seen: &Seen,
        out: &mut Vec<u32>,
    ) {
        let omega = self.cfg.omega;
        // Zero for the strategies without an exact social side.
        let (qn, q_unassigned) = (prep.users.distinct, prep.users.unassigned);
        let s_ub = |vn: usize| q_unassigned as f64 / qn.max(vn).max(1) as f64;
        let reaches = |s_ub: f64| {
            let ceiling = strategy_score(strategy, omega, 0.0, s_ub);
            ceiling >= floor && ceiling > 0.0
        };
        if !reaches(s_ub(0)) {
            return;
        }
        // viderec-lint: allow(corpus-enumeration) — the certificate sweep is
        // bound-only: it never scores, and its cost is not counted as scanned.
        for idx in seen.unseen(self.videos.len() as u32) {
            if reaches(s_ub(self.videos[idx as usize].users.len())) {
                out.push(idx);
            }
        }
    }

    /// Completes a gated result with the certified-zero id-order tail the
    /// naive scan would produce. Every video left unmarked in `seen` was
    /// left unscored *because* its admissible ceiling is exactly 0, so its
    /// true score is 0 and the naive ranking orders it purely by id — the
    /// tail needs no scoring, and offering the `top_k` smallest unmarked ids
    /// suffices (later ids lose every zero-score tie).
    fn zero_fill_into(&self, heap: &mut BinaryHeap<WorstFirst>, top_k: usize, seen: &Seen) {
        if floor_of(heap, top_k).is_some_and(|floor| floor > 0.0) {
            return;
        }
        // viderec-lint: allow(corpus-enumeration) — the zero-fill walks ids
        // only until `top_k` certified-zero entries are offered; it never
        // scores a video.
        for idx in seen.unseen(self.videos.len() as u32).take(top_k) {
            let video = self.content.ids[idx as usize];
            push_top_k(heap, WorstFirst(Scored { video, score: 0.0 }), top_k);
        }
    }

    /// The query engine. One line for every retrieval mode — prepare, resolve
    /// the exclusions, gather, put the candidates on the ladder's first rung,
    /// run the ladder (or, for SR, the plain social scan), ranked sort — in
    /// which the mode decides two things: which gather fills
    /// `scratch.candidates` ([`Self::candidate_indices`] for the paper
    /// universe, [`Self::gated_candidates`] otherwise), and whether the
    /// result is then certified: the certificate sweep, its survivors on the
    /// same ladder, and the certified-zero tail. `gate` in the returned trace
    /// records which: 0 paper, 2 gated certified exact (1 was the retired
    /// uncertified gated mode).
    fn engine(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        top_k: usize,
        exclude: &[VideoId],
        tracer: Tracer,
        scratch: &mut Scratch,
    ) -> (Vec<Scored>, QueryTrace) {
        let total = tracer.start();
        let mut trace = QueryTrace::new(strategy, top_k);
        // viderec-lint: allow(corpus-enumeration) — corpus-size trace
        // metadata; no video is visited.
        trace.corpus = self.videos.len() as u64;
        if top_k == 0 {
            return (Vec::new(), trace);
        }
        let gated = self.cfg.retrieval == RetrievalMode::GatedCertified;
        trace.gate = if gated { 2 } else { 0 };

        let sp = tracer.start();
        let prep = self.prepare_query(strategy, query);
        // The query-side scoring cache doubles as the certificate's mean
        // range source, so it is built for every strategy.
        let query_cache = ScoringArena::for_series(&query.series);
        let ladder = self.ladder(strategy, &query_cache, top_k);
        trace.stop_span(sp, Stage::Prepare);

        let sp = tracer.start();
        let mut excluded: Vec<u32> = exclude
            .iter()
            .filter_map(|&id| self.index_of(id).map(|i| i as u32))
            .collect();
        excluded.sort_unstable();
        trace.stop_span(sp, Stage::Filter);

        let sp = tracer.start();
        let with_social = if gated {
            self.gated_candidates(strategy, query, &prep, &ladder, &excluded, scratch)
        } else {
            self.candidate_indices(strategy, query, &prep, &excluded, scratch)
        };
        trace.stop_span(sp, Stage::Gather);
        let Scratch {
            seen,
            reach,
            candidates,
            dropped,
            rung,
        } = scratch;
        // Gated, the zero rung is `R` and the ceilings its row minima, which
        // the gather just computed.
        let in_reach = (gated && strategy.uses_content()).then_some(&*reach);
        let ladder = Ladder { in_reach, ..ladder };
        trace.gathered = candidates.len() as u64 + *dropped;
        trace.excluded = *dropped;
        trace.stats.scanned = candidates.len() as u64;

        let mut heap = top_k_heap(top_k, candidates.len());
        let mut pending = LadderQueue::default();
        if strategy.uses_content() {
            pending = self.enqueue(
                strategy,
                &prep,
                candidates,
                with_social,
                in_reach,
                rung,
                tracer,
                &mut trace,
            );
            ladder.drain(&mut pending, &mut heap, false, &mut trace, tracer);
        } else {
            // SR: the social score is cheap and exact, so a plain bounded
            // heap scan is already optimal — nothing to prune.
            self.scan_social_into(
                strategy, query, &prep, candidates, top_k, &mut heap, tracer, &mut trace,
            );
        }
        if gated {
            let sp = tracer.start();
            let floor = floor_of(&heap, top_k).unwrap_or(0.0);
            candidates.clear();
            self.certificate_survivors(strategy, &prep, floor, seen, candidates);
            for &idx in candidates.iter() {
                seen.insert(idx);
            }
            trace.stop_span(sp, Stage::Bound);
            if strategy.uses_content() {
                // A SAR survivor is a video the posting union missed.
                let with_social = if is_sar(strategy) {
                    0
                } else {
                    candidates.len()
                };
                (rung.queue, rung.refined) = pending.into_storage();
                pending = self.enqueue(
                    strategy,
                    &prep,
                    candidates,
                    with_social,
                    in_reach,
                    rung,
                    tracer,
                    &mut trace,
                );
                ladder.drain(&mut pending, &mut heap, true, &mut trace, tracer);
            } else {
                trace.promoted = candidates.len() as u64;
                trace.stats.scanned += trace.promoted;
                self.scan_social_into(
                    strategy, query, &prep, candidates, top_k, &mut heap, tracer, &mut trace,
                );
            }
            self.zero_fill_into(&mut heap, top_k, seen);
        }
        (rung.queue, rung.refined) = pending.into_storage();

        let mut top: Vec<Scored> = heap.into_iter().map(|e| e.0).collect();
        let sp = tracer.start();
        sort_ranked(&mut top);
        trace.stop_span(sp, Stage::TopK);
        if let Some(ns) = total.elapsed_ns() {
            trace.total_ns = ns;
        }
        (top, trace)
    }

    /// The SR-style plain heap scan (social score only, nothing to prune)
    /// against a caller-owned heap: one `Social` span over the whole scan,
    /// credited with the candidates it scored.
    #[allow(clippy::too_many_arguments)]
    fn scan_social_into(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        prep: &PreparedQuery,
        candidates: &[u32],
        top_k: usize,
        heap: &mut BinaryHeap<WorstFirst>,
        tracer: Tracer,
        trace: &mut QueryTrace,
    ) {
        let mut sp = tracer.start();
        let ids = &self.content.ids;
        for &idx in candidates {
            let score = self.score_video(strategy, query, prep, idx as usize);
            let video = ids[idx as usize];
            push_top_k(heap, WorstFirst(Scored { video, score }), top_k);
        }
        trace.stats.exact_evals += candidates.len() as u64;
        trace.lap_span_n(&mut sp, Stage::Social, candidates.len() as u64);
    }

    /// Full-scan `(video, κJ, exact sJ)` components for every corpus video —
    /// evaluation support for the ω sweep (Fig. 8) and the strategy
    /// comparison (Fig. 10), which refuse all strategies from one component
    /// table.
    pub fn score_components(&self, query: &QueryVideo) -> Vec<(VideoId, f64, f64)> {
        let users = self.resolve_users(&query.users);
        self.components(query, |row| users.jaccard(&row.users))
    }

    /// `(video, κJ, social(row))` for every corpus video.
    fn components(
        &self,
        query: &QueryVideo,
        social: impl Fn(&SocialRow) -> f64,
    ) -> Vec<(VideoId, f64, f64)> {
        let content = &*self.content;
        let rows = content.ids.iter().zip(&content.series).zip(&self.videos);
        rows.map(|((&id, series), row)| {
            let kappa = kappa_j_series(&query.series, series, self.cfg.matching);
            (id, kappa, social(row))
        })
        .collect()
    }

    /// Like [`Self::score_components`] but with the SAR social similarity —
    /// evaluation support for the k sweep (Fig. 9).
    pub fn score_components_sar(&self, query: &QueryVideo) -> Vec<(VideoId, f64, f64)> {
        let qvec = self.vectorize_by_hash(&query.users);
        self.components(query, |row| sar_similarity_sparse(&qvec, &row.vector))
    }

    // ---------- scoring kernel ----------
    //
    // The engine and both reference scans go through `prepare_query` and the
    // per-video scores below. The cost model of each strategy (see the module
    // docs) lives entirely in how the query is prepared and how
    // `social_score` resolves users.

    /// Prepares the query socially the way the strategy prescribes: SR and
    /// CSF resolve the names to ids once, CSF-SAR vectorises by registry
    /// *scan* (the cost the hash removes), CSF-SAR-H via the chained hash
    /// table (Fig. 6 lines 1–2); CR needs nothing.
    fn prepare_query(&self, strategy: Strategy, query: &QueryVideo) -> PreparedQuery {
        let (mut qvec, mut users) = (Vec::new(), QueryUsers::default());
        match strategy {
            Strategy::Sr | Strategy::Csf => users = self.resolve_users(&query.users),
            Strategy::CsfSar => qvec = self.vectorize_by_scan(&query.users),
            Strategy::CsfSarH => qvec = self.vectorize_by_hash(&query.users),
            Strategy::Cr => {}
        }
        PreparedQuery { qvec, users }
    }

    /// Resolves query names through the registry: the distinct known ids,
    /// ascending, and the distinct-name counts. Unknown names are told apart
    /// by string, among themselves only. A known name is assigned when the
    /// chained hash — what the gated gather maps names through — gives it a
    /// live slot. The raw assignment is not asked: after a build over a
    /// corpus with no users it also places the first user interned later,
    /// whom the hash never sees.
    fn resolve_users(&self, names: &[String]) -> QueryUsers {
        let (registry, chained) = (&*self.registry, &*self.chained);
        let mut known = Vec::with_capacity(names.len());
        let mut unknown: Vec<&str> = Vec::new();
        for name in names {
            match registry.get(name) {
                Some(id) => known.push(id),
                None => unknown.push(name),
            }
        }
        known.sort_unstable();
        known.dedup();
        unknown.sort_unstable();
        unknown.dedup();
        let slots = self.community_slots();
        let assigned =
            |&&id: &&UserId| matches!(chained.get(registry.name(id)), Some(&c) if c < slots);
        QueryUsers {
            distinct: known.len() + unknown.len(),
            unassigned: known.iter().filter(|id| !assigned(id)).count() + unknown.len(),
            known,
        }
    }

    /// The content side of the score: `κJ` for content strategies, 0 for SR.
    pub(crate) fn content_score(&self, strategy: Strategy, query: &QueryVideo, idx: usize) -> f64 {
        if strategy.uses_content() {
            kappa_j_series(&query.series, &self.content.series[idx], self.cfg.matching)
        } else {
            0.0
        }
    }

    /// The social side of the score: exact `sJ` for SR/CSF — §4.2.1's
    /// "prohibitively expensive" measure, here one linear merge of the
    /// query's resolved ids against the row's ([`QueryUsers::jaccard`]) —
    /// sparse SAR vector similarity for the SAR strategies, 0 for CR.
    pub(crate) fn social_score(&self, strategy: Strategy, prep: &PreparedQuery, idx: usize) -> f64 {
        match strategy {
            Strategy::Cr => 0.0,
            Strategy::Sr | Strategy::Csf => prep.users.jaccard(&self.videos[idx].users),
            Strategy::CsfSar | Strategy::CsfSarH => {
                sar_similarity_sparse(&prep.qvec, &self.videos[idx].vector)
            }
        }
    }

    /// FJ refinement of one candidate (Fig. 6 lines 7–10).
    pub(crate) fn score_video(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        prep: &PreparedQuery,
        idx: usize,
    ) -> f64 {
        strategy_score(
            strategy,
            self.cfg.omega,
            self.content_score(strategy, query, idx),
            self.social_score(strategy, prep, idx),
        )
    }

    // ---------- query vectorisation paths ----------

    /// SAR without hashing: find each user by scanning the registry, then
    /// look up its community slot. Deliberately linear in the user count —
    /// this is the cost the chained hash removes.
    fn vectorize_by_scan(&self, users: &[String]) -> Vec<(u32, u32)> {
        let (registry, assignment) = (&*self.registry, self.maintenance.assignment_raw());
        let slot_of = |name: &String| {
            let (id, _) = registry.iter().find(|(_, n)| *n == name.as_str())?;
            assignment.get(id.index()).map(|&c| c as u32)
        };
        run_lengths(users.iter().filter_map(slot_of).collect())
    }

    /// SAR-H: O(1 + η) chained-hash mapping per user name (§4.2.3).
    pub(crate) fn vectorize_by_hash(&self, users: &[String]) -> Vec<(u32, u32)> {
        let (chained, slots) = (&*self.chained, self.community_slots());
        let slot_of = |name: &String| chained.get(name).copied().filter(|&c| c < slots);
        run_lengths(users.iter().filter_map(slot_of).map(|c| c as u32).collect())
    }
}

impl Content {
    /// The content half of [`Recommender::build`]: every video of `corpus`
    /// in order, into columns sized from its `totals`. `Err` carries the
    /// first id seen twice.
    fn build(
        cfg: &RecommenderConfig,
        totals: Totals,
        corpus: Vec<CorpusVideo>,
    ) -> Result<Self, VideoId> {
        let mut content = Self {
            ids: Vec::with_capacity(totals.videos),
            by_id: HashMap::with_capacity(totals.videos),
            series: Vec::with_capacity(totals.videos),
            arena: ScoringArena::new(),
            reach: ReachIndex::default(),
            forest: (cfg.retrieval == RetrievalMode::Paper).then(|| Forest {
                lsb: LsbForest::new(cfg.lsb, cfg.embed_dims),
                embedder: CdfEmbedder::for_intensity_deltas(cfg.embed_dims),
            }),
        };
        content.arena.reserve(totals);
        content.extend(corpus.into_iter().map(|video| (video.id, video.series)))?;
        Ok(content)
    }

    /// Appends videos, in order, to every content structure. Stops at the
    /// first id already indexed — before it or earlier in `videos` — and
    /// returns it, with nothing of that video appended.
    ///
    /// With a forest, each signature is embedded for it off the
    /// value-ascending lanes the arena has just written, into one point
    /// buffer reused for the whole run. The appended signatures are then
    /// merged into the reach index in one step ([`ReachIndex::extend`]).
    pub(crate) fn extend(
        &mut self,
        videos: impl IntoIterator<Item = (VideoId, SignatureSeries)>,
    ) -> Result<(), VideoId> {
        let dims = self.forest.as_ref().map_or(0, |f| f.embedder.dims());
        let (mut pairs, mut point) = (Vec::new(), Vec::with_capacity(dims));
        let (from, mut appended) = (self.ids.len(), Ok(()));
        for (id, series) in videos {
            let idx = self.ids.len();
            match self.by_id.entry(id) {
                Entry::Occupied(_) => {
                    appended = Err(id);
                    break;
                }
                Entry::Vacant(slot) => slot.insert(idx),
            };
            self.arena.push_series(&series, &mut pairs);
            debug_assert_eq!(self.arena.len(), idx + 1, "arena tracks the corpus 1:1");
            if let Some(Forest { lsb, embedder }) = &mut self.forest {
                let view = self.arena.view(idx);
                for sig in 0..view.len() {
                    let (values, weights) = view.lanes(sig);
                    embedder.embed_sorted_into(values, weights, &mut point);
                    lsb.insert(&point, idx as u32);
                }
            }
            self.ids.push(id);
            self.series.push(series);
        }
        self.reach.extend(&self.arena, from);
        appended
    }
}

/// The social half of [`Recommender::build`]: everything derived from who
/// engaged with which video.
struct Social {
    registry: UserRegistry,
    videos: Vec<Arc<SocialRow>>,
    videos_of_user: HashMap<UserId, Vec<u32>>,
    maintenance: SocialUpdatesMaintenance,
    chained: ChainedHashTable<usize>,
    inverted: InvertedIndex,
}

impl Social {
    /// Builds the social half over each video's id and user names, in
    /// corpus order: intern → UIG → sub-community extraction (Fig. 3) →
    /// chained hash (Fig. 4) → per-video rows, inverted postings and
    /// engagement lists.
    fn build(cfg: &RecommenderConfig, ids: &[VideoId], users: Vec<Vec<String>>) -> Self {
        let mut registry = UserRegistry::new();
        let socials: Vec<_> = users
            .iter()
            .map(|names| intern_users(&mut registry, names))
            .collect();
        drop(users);
        let graph = UserInterestGraph::from_videos(registry.len(), &socials);
        let maintenance = SocialUpdatesMaintenance::new(graph, cfg.k_subcommunities);

        // Chained hash table: user name → community slot (Fig. 4).
        let mut chained = ChainedHashTable::new(cfg.hash_buckets);
        for (id, name) in registry.iter() {
            if let Some(&c) = maintenance.assignment_raw().get(id.index()) {
                chained.insert(name, c);
            }
        }

        let mut inverted = InvertedIndex::new(maintenance.num_slots());
        let mut videos_of_user: HashMap<UserId, Vec<u32>> = HashMap::new();
        let mut videos = Vec::with_capacity(ids.len());
        for (idx, (&id, users)) in ids.iter().zip(socials).enumerate() {
            let vector = vectorize_sparse(maintenance.assignment_raw(), &users);
            for &(slot, _) in &vector {
                inverted.add_posting(slot as usize, id);
            }
            for &user in &users {
                videos_of_user.entry(user).or_default().push(idx as u32);
            }
            videos.push(Arc::new(SocialRow { users, vector }));
        }
        Self {
            registry,
            videos,
            videos_of_user,
            maintenance,
            chained,
            inverted,
        }
    }
}

/// Interns a video's user names into its social descriptor: distinct ids,
/// ascending.
pub(crate) fn intern_users(registry: &mut UserRegistry, names: &[String]) -> Box<[UserId]> {
    let mut ids: Vec<UserId> = names.iter().map(|name| registry.intern(name)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_boxed_slice()
}

/// Vectorises a descriptor against a raw slot assignment into the sparse
/// sorted `(slot, count)` form.
pub(crate) fn vectorize_sparse(assignment: &[usize], users: &[UserId]) -> Vec<(u32, u32)> {
    let slot_of = |user: &UserId| assignment.get(user.index()).map(|&c| c as u32);
    run_lengths(users.iter().filter_map(slot_of).collect())
}

/// Whether `strategy` scores socially through SAR vectors.
fn is_sar(strategy: Strategy) -> bool {
    matches!(strategy, Strategy::CsfSar | Strategy::CsfSarH)
}

/// Sorts community slots and run-length encodes them into the sparse
/// `(slot, count)` histogram.
fn run_lengths(mut slots: Vec<u32>) -> Vec<(u32, u32)> {
    slots.sort_unstable();
    let mut sparse: Vec<(u32, u32)> = Vec::with_capacity(slots.len());
    for slot in slots {
        match sparse.last_mut() {
            Some((s, count)) if *s == slot => *count += 1,
            _ => sparse.push((slot, 1)),
        }
    }
    sparse
}

/// Exact `sJ` over raw user-name sets with nested string comparison: the
/// test oracle of [`QueryUsers::jaccard`]. Duplicate names in either list
/// are counted once (set semantics).
#[cfg(test)]
pub(crate) fn exact_sj_strings(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    fn holds(list: &[String], name: &str) -> bool {
        list.iter().any(|other| other == name)
    }
    // Set-ify by skipping earlier duplicates.
    let mut size_a = 0usize;
    let mut inter = 0usize;
    for (i, name) in a.iter().enumerate() {
        if holds(&a[..i], name) {
            continue;
        }
        size_a += 1;
        if holds(b, name) {
            inter += 1;
        }
    }
    let first_in_b = |(j, name): (usize, &String)| !holds(&b[..j], name);
    let size_b = b.iter().enumerate().filter(|&e| first_in_b(e)).count();
    let union = size_a + size_b - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viderec_signature::SignatureBuilder;
    use viderec_video::{SynthConfig, Transform, Video, VideoSynthesizer};

    fn small_corpus() -> (Vec<CorpusVideo>, Vec<Video>) {
        // Topic 0: videos 0,1; topic 1: videos 2,3. User groups mirror the
        // topics.
        let mut synth = VideoSynthesizer::new(SynthConfig::default(), 5, 500);
        let builder = SignatureBuilder::default();
        // Topics 0 and 3 sit in clearly separated motion bands.
        let raw: Vec<Video> = vec![
            synth.generate(VideoId(0), 0, 15.0),
            synth.generate(VideoId(1), 0, 15.0),
            synth.generate(VideoId(2), 3, 15.0),
            synth.generate(VideoId(3), 3, 15.0),
        ];
        let users: Vec<Vec<String>> = vec![
            vec!["ann".into(), "bob".into(), "cal".into()],
            vec!["ann".into(), "bob".into(), "dee".into()],
            vec!["eve".into(), "fay".into(), "gus".into()],
            vec!["eve".into(), "fay".into(), "hal".into()],
        ];
        let corpus = raw
            .iter()
            .zip(users)
            .map(|(v, u)| CorpusVideo {
                id: v.id(),
                series: builder.build(v),
                users: u,
            })
            .collect();
        (corpus, raw)
    }

    fn test_cfg() -> RecommenderConfig {
        RecommenderConfig {
            k_subcommunities: 2,
            ..Default::default()
        }
    }

    const ALL: [Strategy; 5] = [
        Strategy::Cr,
        Strategy::Sr,
        Strategy::Csf,
        Strategy::CsfSar,
        Strategy::CsfSarH,
    ];

    #[test]
    fn build_validates() {
        assert_eq!(
            Recommender::build(test_cfg(), vec![]).err(),
            Some(RecError::EmptyCorpus)
        );
        let (corpus, _) = small_corpus();
        let mut dup = corpus.clone();
        dup[1].id = VideoId(0);
        assert_eq!(
            Recommender::build(test_cfg(), dup).err(),
            Some(RecError::DuplicateVideo(0))
        );
        let bad = test_cfg().with_omega(2.0);
        assert!(matches!(
            Recommender::build(bad, corpus.clone()).err(),
            Some(RecError::BadConfig(_))
        ));
        // An LSB grid the forest cannot hash on is refused before the build
        // starts, not by a panic halfway through it.
        for bits in [1, 64] {
            let mut bad = test_cfg();
            bad.lsb.bits = bits;
            bad.lsb.hashes_per_tree = 1;
            assert!(matches!(
                Recommender::build(bad, corpus.clone()).err(),
                Some(RecError::BadConfig(why)) if why.starts_with("lsb: ")
            ));
        }
    }

    /// A seeded corpus that stresses both halves' orders: signatures of
    /// 1..=12 cuboids on a coarse value grid reaching past the embedder's
    /// ±255 (tied values, repeated and identical signatures), and 0–5 users
    /// a video named `u0`..`u87`, small numbers likelier (shared names,
    /// repeats within a video, user-less videos).
    fn tangled_corpus(videos: usize, seed: u64) -> Vec<CorpusVideo> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use viderec_signature::cuboid::{Cuboid, CuboidSignature};
        let mut rng = StdRng::seed_from_u64(seed);
        let signature = |rng: &mut StdRng| {
            let n = rng.gen_range(1..=12usize);
            let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let total: u32 = counts.iter().sum();
            let cuboids = counts.iter().map(|&c| Cuboid {
                value: rng.gen_range(-12..=12i32) as f64 * 25.0,
                weight: c as f64 / total as f64,
            });
            CuboidSignature::new(cuboids.collect())
        };
        (0..videos as u64)
            .map(|id| {
                let first = signature(&mut rng);
                let mut sigs = vec![first.clone()];
                for _ in 0..rng.gen_range(0..4usize) {
                    let next = if rng.gen_bool(0.3) {
                        first.clone()
                    } else {
                        signature(&mut rng)
                    };
                    sigs.push(next);
                }
                let users = (0..rng.gen_range(0..6usize))
                    .map(|_| format!("u{}", rng.gen_range(0..30u32) * rng.gen_range(1..=3u32)))
                    .collect();
                CorpusVideo {
                    id: VideoId(id * 7 + 3),
                    series: SignatureSeries::new(sigs),
                    users,
                }
            })
            .collect()
    }

    /// [`Recommender::build`]'s two halves run one after the other on this
    /// thread, social first: the order of the sequential build.
    fn build_on_one_thread(cfg: RecommenderConfig, mut corpus: Vec<CorpusVideo>) -> Recommender {
        let totals = Totals::of(corpus.iter().map(|video| &video.series));
        let ids: Vec<VideoId> = corpus.iter().map(|video| video.id).collect();
        let users = corpus
            .iter_mut()
            .map(|video| std::mem::take(&mut video.users));
        let social = Social::build(&cfg, &ids, users.collect());
        let content = Content::build(&cfg, totals, corpus).unwrap();
        Recommender::from_halves(cfg, content, social)
    }

    #[test]
    fn the_threaded_build_equals_its_halves_run_on_one_thread() {
        let cfg = RecommenderConfig {
            k_subcommunities: 12,
            ..Default::default()
        };
        for seed in [1, 2, 3] {
            let corpus = tangled_corpus(400, seed);
            let threaded = Recommender::build(cfg.clone(), corpus.clone()).unwrap();
            let one_thread = build_on_one_thread(cfg.clone(), corpus);
            assert_eq!(threaded.differing_part(&one_thread), None, "seed {seed}");
            let (keys, pairs) = threaded.lsb_entries();
            assert!(keys > 0 && keys < pairs, "{keys} {pairs}");
        }
        // Each half alone moves the probe.
        let corpus = tangled_corpus(400, 1);
        let threaded = Recommender::build(cfg.clone(), corpus.clone()).unwrap();
        let mut lsb = cfg.clone();
        lsb.lsb.seed += 1;
        let other = build_on_one_thread(lsb, corpus.clone());
        assert_eq!(threaded.differing_part(&other), Some("lsb"));
        let k = RecommenderConfig {
            k_subcommunities: 5,
            ..cfg
        };
        let other = build_on_one_thread(k, corpus);
        assert_eq!(threaded.differing_part(&other), Some("partition"));
    }

    /// Only a paper build embeds signatures: a gated build holds no LSB
    /// forest, before and after an ingest, and differs from the paper build
    /// of the same corpus in the forest alone. The paper build's forest is
    /// the one every build held before gated builds dropped it (the counts
    /// were read off a gated build of this corpus then).
    #[test]
    fn a_gated_build_and_its_ingests_hold_no_forest() {
        let cfg = RecommenderConfig {
            k_subcommunities: 12,
            ..Default::default()
        };
        let corpus = tangled_corpus(400, 1);
        let paper = Recommender::build(cfg.clone(), corpus.clone()).unwrap();
        assert_eq!(paper.lsb_entries(), (3108, 3268));
        let gated = cfg.with_retrieval(RetrievalMode::GatedCertified);
        let whole = Recommender::build(gated.clone(), corpus.clone()).unwrap();
        assert_eq!(whole.lsb_entries(), (0, 0));
        assert_eq!(whole.differing_part(&paper), Some("lsb"));
        let mut grown = Recommender::build(gated, corpus[..300].to_vec()).unwrap();
        assert_eq!(grown.lsb_entries(), (0, 0));
        grown.add_videos(corpus[300..].to_vec()).unwrap();
        assert_eq!(grown.lsb_entries(), (0, 0));
        let content = ["ids", "series", "arena", "reach", "lsb"];
        let first = grown.differing_part(&whole);
        assert!(
            first.is_none_or(|part| !content.contains(&part)),
            "{first:?}"
        );
    }

    /// The reach index merged batch by batch on ingest equals, bit for bit,
    /// the one a build over the whole corpus makes. The tangled corpus's
    /// coarse value grid and repeated signatures put new means between held
    /// ones and exactly on them; one ingested video repeats a held video's
    /// series, and one batch is a single empty series.
    #[test]
    fn the_reach_index_after_ingest_equals_one_built_from_scratch() {
        let mut corpus = tangled_corpus(300, 11);
        corpus[210].series = corpus[3].series.clone();
        corpus[250].series = SignatureSeries::new(Vec::new());
        let mut r = Recommender::build(test_cfg(), corpus[..150].to_vec()).unwrap();
        for batch in [150..151, 151..250, 250..251, 251..300] {
            r.add_videos(corpus[batch].to_vec()).unwrap();
        }
        let whole = Recommender::build(test_cfg(), corpus).unwrap();
        assert!(r.content.reach.same_bits(&whole.content.reach));
        let entries = r.content.reach.entries();
        assert_eq!(entries.len(), r.content.arena.totals().signatures);
        // The merge moved held entries: a new signature sits below a held
        // one, and a tied mean has held and new entries on both sides.
        let held = |e: usize| entries[e].2 < 150;
        let tied = |e: usize| entries[e - 1].0 == entries[e].0;
        assert!((1..entries.len()).any(|e| !held(e - 1) && held(e)));
        assert!((1..entries.len()).any(|e| tied(e) && held(e - 1) && !held(e)));
    }

    /// `build` sizes each arena column once, to what pushing the corpus
    /// video by video would have doubled it to; an ingest then grows it as
    /// before.
    #[test]
    fn the_built_arena_is_sized_as_doubling_would_leave_it() {
        let corpus = tangled_corpus(300, 9);
        let mut r = Recommender::build(test_cfg(), corpus[..200].to_vec()).unwrap();
        let mut pushed = ScoringArena::new();
        for video in &corpus[..200] {
            pushed.push_series(&video.series, &mut Vec::new());
        }
        assert_eq!(r.content.arena.column_sizes(), pushed.column_sizes());
        r.add_videos(corpus[200..].to_vec()).unwrap();
        for video in &corpus[200..] {
            pushed.push_series(&video.series, &mut Vec::new());
        }
        assert_eq!(r.content.arena.column_sizes(), pushed.column_sizes());
    }

    #[test]
    fn build_populates_structures() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus).unwrap();
        assert_eq!(r.num_videos(), 4);
        assert_eq!(r.num_users(), 8);
        assert_eq!(r.live_communities(), 2);
        assert!(r.series_of(VideoId(0)).is_some());
        let v0 = r.vector_of(VideoId(0)).unwrap();
        assert_eq!(v0.iter().sum::<u32>(), 3);
        let sparse = r.sparse_vector_of(VideoId(0)).unwrap();
        assert_eq!(sparse.iter().map(|&(_, c)| c).sum::<u32>(), 3);
        assert_eq!(r.users_of(VideoId(0)).unwrap().len(), 3);
        assert_eq!(r.content.arena.len(), 4, "arena holds one entry per video");
        // Every video is in every tree at least once, under some key.
        let (keys, pairs) = r.lsb_entries();
        let trees = test_cfg().lsb.trees;
        assert!(
            keys > 0 && keys <= pairs && pairs >= 4 * trees,
            "{keys} {pairs}"
        );
    }

    #[test]
    fn sr_recommends_social_neighbours() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let q = QueryVideo::from_corpus(&corpus[0]);
        let recs = r.recommend_excluding(Strategy::Sr, &q, 2, &[VideoId(0)]);
        assert_eq!(recs[0].video, VideoId(1), "shared commenters should win");
        assert!(recs[0].score > recs[1].score);
    }

    #[test]
    fn cr_recommends_content_neighbours() {
        let (corpus, raw) = small_corpus();
        // Edited copy of video 2 as the query — content matches topic 1.
        let edited = Transform::BrightnessShift(8).apply(&raw[2]);
        let series = SignatureBuilder::default().build(&edited);
        let q = QueryVideo {
            series,
            users: vec![],
        };
        let r = Recommender::build(test_cfg(), corpus).unwrap();
        let recs = r.recommend(Strategy::Cr, &q, 4);
        // Both topic-1 videos share the query's motion band; they must beat
        // the topic-0 pair, with the edited source among them.
        let top2: Vec<VideoId> = recs[..2].iter().map(|s| s.video).collect();
        assert!(
            top2.contains(&VideoId(2)) && top2.contains(&VideoId(3)),
            "topic-1 videos not on top: {top2:?}"
        );
    }

    #[test]
    fn all_strategies_agree_query_is_its_own_best_match() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let q = QueryVideo::from_corpus(&corpus[3]);
        for strategy in ALL {
            let recs = r.recommend(strategy, &q, 4);
            assert_eq!(
                recs[0].video,
                VideoId(3),
                "{} should rank the clicked video first",
                strategy.label()
            );
        }
    }

    #[test]
    fn pruned_path_matches_unpruned_on_the_small_corpus() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        for strategy in ALL {
            for k in [1, 2, 4, 10] {
                for (query_idx, source) in corpus.iter().enumerate() {
                    let q = QueryVideo::from_corpus(source);
                    let (pruned, stats) = r.recommend_with_stats(strategy, &q, k, &[]);
                    let unpruned = r.recommend_unpruned_excluding(strategy, &q, k, &[]);
                    assert_eq!(pruned, unpruned, "{} k={k} q={query_idx}", strategy.label());
                    assert_eq!(stats.pruned + stats.exact_evals, stats.scanned);
                }
            }
        }
    }

    #[test]
    fn certified_gated_mode_matches_the_full_scan_on_the_small_corpus() {
        let (corpus, _) = small_corpus();
        let cfg = test_cfg().with_retrieval(RetrievalMode::GatedCertified);
        let r = Recommender::build(cfg, corpus.clone()).unwrap();
        for strategy in ALL {
            for k in [1, 2, 4, 10] {
                for (query_idx, source) in corpus.iter().enumerate() {
                    let q = QueryVideo::from_corpus(source);
                    let (gated, trace) = r.recommend_traced(strategy, &q, k, &[], Tracer::OFF);
                    let naive = r.recommend_naive_excluding(strategy, &q, k, &[]);
                    assert_eq!(gated, naive, "{} k={k} q={query_idx}", strategy.label());
                    assert_eq!(trace.gate, 2, "result must be certified exact");
                    assert_eq!(trace.corpus, 4);
                    assert_eq!(
                        trace.stats.scanned,
                        trace.gathered - trace.excluded + trace.promoted,
                        "scanned = surviving candidates + promotions"
                    );
                    assert_eq!(
                        trace.stats.pruned + trace.stats.exact_evals,
                        trace.stats.scanned
                    );
                }
            }
        }
    }

    /// The certificate as it was before the flat sweep — one walk over every
    /// video, two hash probes each, the separation test and the slice-bound
    /// ceiling inline — kept as the oracle for
    /// [`Recommender::certificate_survivors`] plus the ladder's slice-bound
    /// rung.
    fn certificate_oracle(
        rec: &Recommender,
        strategy: Strategy,
        query: &QueryVideo,
        skip: &HashSet<u32>,
        floor: f64,
    ) -> Vec<u32> {
        let (omega, matching) = (rec.cfg.omega, rec.cfg.matching);
        let arena = &rec.content.arena;
        let names: HashSet<&str> = query.users.iter().map(String::as_str).collect();
        let assigned =
            |n: &str| matches!(rec.chained.get(n), Some(&c) if c < rec.community_slots());
        let q_unassigned = names.iter().filter(|n| !assigned(n)).count();
        let cache = ScoringArena::for_series(&query.series);
        let qv = cache.view(0);
        let reach = rec.ladder(strategy, &cache, 1).reach;
        let range = |v: crate::arena::SeriesView<'_>| {
            let means = v.means.iter().copied();
            match (
                means.clone().min_by(f64::total_cmp),
                means.max_by(f64::total_cmp),
            ) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (0.0, 0.0),
            }
        };
        let mut out = Vec::new();
        // viderec-lint: allow(corpus-enumeration) — test oracle: the
        // per-video walk the flat sweep replaced.
        for idx in rec.all_video_indices() {
            let vv = arena.view(idx as usize);
            let s_ub = match strategy {
                Strategy::Cr | Strategy::CsfSar | Strategy::CsfSarH => 0.0,
                Strategy::Sr | Strategy::Csf => {
                    let vn = rec.videos[idx as usize].users.len();
                    q_unassigned as f64 / names.len().max(vn).max(1) as f64
                }
            };
            let separated = crate::prune::separated(range(qv), range(vv), reach);
            let kappa_ub = if !strategy.uses_content() || separated {
                0.0
            } else {
                crate::prune::kappa_upper_bound(qv, vv, matching)
            };
            let ceiling = strategy_score(strategy, omega, kappa_ub, s_ub);
            if !skip.contains(&idx) && ceiling > 0.0 && ceiling >= floor {
                out.push(idx);
            }
        }
        out
    }

    /// The certificate's `(qn, q_unassigned)` and the resolved ids against
    /// a `HashSet` of the names and the chained hash the gather maps them
    /// through.
    fn assert_counts_agree_with_a_set(r: &Recommender, users: &[String]) -> (usize, usize) {
        let assigned = |n: &str| matches!(r.chained.get(n), Some(&c) if c < r.community_slots());
        let set: HashSet<&str> = users.iter().map(String::as_str).collect();
        let want = (set.len(), set.iter().filter(|n| !assigned(n)).count());
        let got = r.resolve_users(users);
        assert_eq!((got.distinct, got.unassigned), want, "{users:?}");
        let mut known: Vec<UserId> = set.iter().filter_map(|n| r.registry.get(n)).collect();
        known.sort_unstable();
        assert_eq!(got.known, known, "{users:?}");
        want
    }

    #[test]
    fn distinct_name_counts_agree_with_a_set() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let mut some_assigned = false;
        for source in &corpus {
            // Every name twice, in both orders, plus a repeated stranger.
            let mut users = source.users.clone();
            users.extend(source.users.iter().rev().cloned());
            users.extend(["stranger".to_string(), "stranger".to_string()]);
            let want = assert_counts_agree_with_a_set(&r, &users);
            some_assigned |= want.1 < want.0;
        }
        assert!(
            some_assigned,
            "no query name is assigned: the test is vacuous"
        );
    }

    #[test]
    fn flat_certificate_agrees_with_the_per_video_oracle() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let omega = r.cfg.omega;
        for strategy in ALL {
            for source in &corpus {
                let mut q = QueryVideo::from_corpus(source);
                q.users.push("stranger".into());
                let cache = ScoringArena::for_series(&q.series);
                let ladder = r.ladder(strategy, &cache, 1);
                // A content query's gather holds all of `R`: the sweep sees
                // only the videos outside it.
                let mut reach = ReachRows::default();
                reach_set(&r.content.reach, ladder.qv, ladder.reach, 4, &mut reach);
                let gathered: Vec<u32> = match strategy.uses_content() {
                    true => reach.members().to_vec(),
                    false => Vec::new(),
                };
                for skip in [vec![], vec![1u32], vec![0, 3]] {
                    let mut seen = Seen::default();
                    seen.reset(r.num_videos());
                    let skip: HashSet<u32> = skip.into_iter().chain(gathered.clone()).collect();
                    skip.iter().for_each(|&i| {
                        seen.insert(i);
                    });
                    for floor in [0.0, 0.05, 1.0 - omega, 1.0 - omega + 1e-9, 0.9] {
                        let mut survivors = Vec::new();
                        r.certificate_survivors(
                            strategy,
                            &r.prepare_query(strategy, &q),
                            floor,
                            &seen,
                            &mut survivors,
                        );
                        let want = certificate_oracle(&r, strategy, &q, &skip, floor);
                        // The sweep's O(1) ceilings only ever over-estimate
                        // the oracle's, and narrowing its survivors by the
                        // oracle itself (unskipped this time) loses nothing.
                        let all = certificate_oracle(&r, strategy, &q, &HashSet::new(), floor);
                        survivors.retain(|i| all.contains(i));
                        assert_eq!(survivors, want, "{} floor {floor}", strategy.label());
                    }
                }
            }
        }
    }

    #[test]
    fn gated_modes_respect_exclusions() {
        let (corpus, _) = small_corpus();
        let cfg = test_cfg().with_retrieval(RetrievalMode::GatedCertified);
        let r = Recommender::build(cfg, corpus.clone()).unwrap();
        let q = QueryVideo::from_corpus(&corpus[0]);
        for strategy in ALL {
            let exclude = [VideoId(0), VideoId(2)];
            let got = r.recommend_excluding(strategy, &q, 10, &exclude);
            let want = r.recommend_naive_excluding(strategy, &q, 10, &exclude);
            assert_eq!(got, want, "{}", strategy.label());
            assert!(got.iter().all(|s| !exclude.contains(&s.video)));
        }
    }

    /// Each retrieval mode with the `gate` its traces must carry.
    const MODES: [(RetrievalMode, u64); 2] = [
        (RetrievalMode::Paper, 0),
        (RetrievalMode::GatedCertified, 2),
    ];

    /// What `mode` must reproduce bit for bit: the unpruned scan of the
    /// paper universe, the naive full scan once certified.
    fn reference(
        r: &Recommender,
        mode: RetrievalMode,
        strategy: Strategy,
        q: &QueryVideo,
        k: usize,
        exclude: &[VideoId],
    ) -> Vec<Scored> {
        match mode {
            RetrievalMode::Paper => r.recommend_unpruned_excluding(strategy, q, k, exclude),
            RetrievalMode::GatedCertified => r.recommend_naive_excluding(strategy, q, k, exclude),
        }
    }

    /// Runs `check(recommender, mode, gate, strategy, query, exclusions)` for
    /// every retrieval mode × strategy × clicked video × {no exclusion, the
    /// full scan's top two}.
    fn for_each_case(
        mut check: impl FnMut(&Recommender, RetrievalMode, u64, Strategy, &QueryVideo, &[VideoId]),
    ) {
        let (corpus, _) = small_corpus();
        for (mode, gate) in MODES {
            let r = Recommender::build(test_cfg().with_retrieval(mode), corpus.clone()).unwrap();
            for strategy in ALL {
                for source in &corpus {
                    let q = QueryVideo::from_corpus(source);
                    let top2 = r.recommend_naive_excluding(strategy, &q, 2, &[]);
                    let top2: Vec<VideoId> = top2.iter().map(|s| s.video).collect();
                    check(&r, mode, gate, strategy, &q, &[]);
                    check(&r, mode, gate, strategy, &q, &top2);
                }
            }
        }
    }

    #[test]
    fn tracing_never_changes_results() {
        for_each_case(|r, mode, _, strategy, q, exclude| {
            let label = format!("{mode:?} {} excluding {exclude:?}", strategy.label());
            let (off, off_trace) = r.recommend_traced(strategy, q, 3, exclude, Tracer::OFF);
            let (on, on_trace) = r.recommend_traced(strategy, q, 3, exclude, Tracer::ON);
            assert_eq!(off.len(), on.len(), "{label}");
            for (a, b) in off.iter().zip(&on) {
                assert_eq!(a.video, b.video, "{label}");
                // Bit-identical scores, not just approximately equal.
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{label}");
            }
            assert_eq!(off_trace.stats, on_trace.stats, "{label}");
            assert_eq!(on, reference(r, mode, strategy, q, 3, exclude), "{label}");
        });
    }

    #[test]
    fn traces_account_for_the_scan() {
        for_each_case(|r, mode, gate, strategy, q, exclude| {
            let label = format!("{mode:?} {} excluding {exclude:?}", strategy.label());
            let (_, off) = r.recommend_traced(strategy, q, 2, exclude, Tracer::OFF);
            // A disabled tracer records no time at all — the zero-cost path.
            assert_eq!(off.total_ns, 0);
            assert_eq!(off.stage_sum_ns(), 0);

            let closes = crate::trace::SPAN_CLOSES.get();
            let (top, on) = r.recommend_traced(strategy, q, 2, exclude, Tracer::ON);
            let closes = crate::trace::SPAN_CLOSES.get() - closes;
            assert!(on.total_ns > 0, "{label}");
            // Stages tile disjoint sub-intervals of the scan.
            assert!(on.stage_sum_ns() <= on.total_ns, "{label}");
            assert_eq!(on.gate, gate, "{label}");
            assert_eq!(on.corpus, 4);
            assert_eq!(top, reference(r, mode, strategy, q, 2, exclude), "{label}");
            assert!(top.iter().all(|s| !exclude.contains(&s.video)), "{label}");

            // The gather is the same with or without exclusions, which only
            // ever keep gathered videos out of the scan.
            let (_, base) = r.recommend_traced(strategy, q, 2, &[], Tracer::OFF);
            assert_eq!((base.gathered, base.excluded), (on.gathered, 0), "{label}");
            assert!(on.excluded <= exclude.len() as u64, "{label}");
            if gate == 0 && !matches!(strategy, Strategy::Cr | Strategy::CsfSarH) {
                // The paper universe of the unindexed strategies is the corpus.
                assert_eq!((on.gathered, on.excluded), (4, exclude.len() as u64));
            }
            if gate != 2 {
                assert_eq!(on.promoted, 0, "{label}");
            }
            let scanned = on.gathered - on.excluded + on.promoted;
            assert_eq!(on.stats.scanned, scanned, "{label}");
            assert_eq!(on.stats.pruned + on.stats.exact_evals, scanned, "{label}");
            assert_eq!(on.stats.pruned_embed, 0, "the embedding tier is retired");
            // A span closes per pipeline stage and per scoring event — an
            // exact evaluation (SR has none: its scan is one span), or a push
            // that needed none and is in the results unless a later one
            // displaced it — never per scanned candidate.
            let events = on.stage(Stage::Emd).count + top.len() as u64;
            assert!(closes <= 3 * (events + 1) + 16, "{label}: {closes} closes");
            if strategy.uses_content() {
                // One `Emd` lap per sweep; one ordering per `enqueue` — the
                // gathered candidates, then the certificate's survivors —
                // and `Social` credited per `sJ` evaluation: in the paper
                // universe every candidate has one, gated only those that
                // can score socially.
                assert_eq!(on.stage(Stage::Emd).count, on.stats.exact_evals);
                assert_eq!(on.stage(Stage::Sort).count, 1 + u64::from(gate == 2));
                let evaluated = on.stage(Stage::Social).count;
                assert!(evaluated <= on.corpus, "{label}");
                if gate == 0 {
                    assert_eq!(evaluated, scanned, "{label}");
                }
                // `Bound` is credited per ceiling: at most one per scanned
                // candidate, plus — certified — one per survivor the ladder
                // dropped unscored and one for the sweep that found them.
                let bounded = if gate == 2 { on.corpus + 1 } else { scanned };
                assert!(on.stage(Stage::Bound).count <= bounded, "{label}");
            } else {
                // SR: one span over each social scan, credited per candidate.
                assert_eq!(on.stage(Stage::Social).count, scanned, "{label}");
                assert_eq!(closes, 5 + 2 * u64::from(gate == 2), "{label}");
            }
            // The library path never sees an admission queue.
            assert_eq!(on.stage(Stage::Queue), viderec_trace::StageCell::default());
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The first rung as [`FirstRung`] builds it against `sort_unstable`
        /// of the same entries, element for element — key bits, `sJ` bits
        /// and index. Social scores come from a menu made to tie by key bits
        /// without being zero: subnormals and values that round away in
        /// `FJ(1, sJ)`, strategies whose every key ties (CR, or ω = 0), and
        /// `−0.0`, which under SR is a key *below* the tie key. A third of
        /// the social candidates lie outside a gated query's reach set and
        /// enter at `FJ(0, sJ)`, `sJ = 0` included. `survivors` is the second
        /// enqueue: ascending indices, no social side. Each case runs twice
        /// on one `FirstRung`, as queries do.
        #[test]
        fn first_rung_comes_out_as_sort_unstable_would_leave_it(
            strategy in 0..5usize,
            omega in 0..4usize,
            picks in proptest::prelude::prop::collection::vec((0..400u32, 0..10usize), 0..80),
            social_share in 0..5usize,
            survivors in 0..2u32,
        ) {
            let (strategy, omega) = (ALL[strategy], [0.0, 0.3, 0.7, 1.0][omega]);
            let menu = [
                0.0, -0.0, f64::from_bits(1), 1e-310, 1e-300, 1e-17, 1e-3, 0.25, 0.5, 1.0,
            ];
            let mut seen = HashSet::new();
            let mut picks: Vec<(u32, f64)> = picks
                .into_iter()
                .filter(|&(idx, _)| seen.insert(idx))
                .map(|(idx, sj)| (idx, menu[sj]))
                .collect();
            let mut with_social = picks.len() * social_share / 4;
            if survivors == 1 {
                picks.sort_by_key(|&(idx, _)| idx);
                with_social = 0;
            }
            let key = |sj: f64| strategy_score(strategy, omega, 1.0, sj);
            let outside = |idx: u32| idx.is_multiple_of(3);
            let social_key = |idx: u32, sj: f64| match outside(idx) {
                true => strategy_score(strategy, omega, 0.0, sj),
                false => key(sj),
            };
            let entries = picks.iter().enumerate().map(|(pos, &(idx, sj))| match pos < with_social {
                true => Queued { key: social_key(idx, sj), sj, idx },
                false => Queued { key: key(0.0), sj: 0.0, idx },
            });
            let mut want: Vec<Queued> = entries.collect();
            want.sort_unstable();

            let candidates: Vec<u32> = picks.iter().map(|&(idx, _)| idx).collect();
            let mut rung = FirstRung::default();
            for round in 0..2 {
                rung.social.clear();
                for &(idx, sj) in &picks[..with_social] {
                    rung.offer(Queued { key: social_key(idx, sj), sj, idx }, key(0.0));
                }
                let mut got = std::mem::take(&mut rung.queue);
                rung.order_into(key(0.0), &candidates, 400, &mut got);
                let bits = |e: &Queued| (e.key.to_bits(), e.sj.to_bits(), e.idx);
                proptest::prop_assert!(
                    got.iter().map(bits).eq(want.iter().map(bits)),
                    "round {round}: {got:?} != {want:?}"
                );
                rung.queue = got;
            }
        }
    }

    #[test]
    fn excluded_videos_are_never_scored() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let q = QueryVideo::from_corpus(&corpus[0]);
        let (recs, stats) =
            r.recommend_with_stats(Strategy::Csf, &q, 10, &[VideoId(0), VideoId(2)]);
        assert!(recs
            .iter()
            .all(|s| s.video != VideoId(0) && s.video != VideoId(2)));
        // The exclusions left the candidate set before scoring, so they are
        // not even *scanned*.
        assert_eq!(stats.scanned, 2);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn excluding_removes_videos() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let q = QueryVideo::from_corpus(&corpus[0]);
        let recs = r.recommend_excluding(Strategy::Csf, &q, 10, &[VideoId(0)]);
        assert!(recs.iter().all(|s| s.video != VideoId(0)));
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn sar_vectorisation_paths_agree() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let users = corpus[1].users.clone();
        assert_eq!(r.vectorize_by_scan(&users), r.vectorize_by_hash(&users));
    }

    #[test]
    fn csf_sar_tracks_csf_ranking() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let q = QueryVideo::from_corpus(&corpus[2]);
        let exact: Vec<VideoId> = r
            .recommend(Strategy::Csf, &q, 4)
            .into_iter()
            .map(|s| s.video)
            .collect();
        let sar: Vec<VideoId> = r
            .recommend(Strategy::CsfSar, &q, 4)
            .into_iter()
            .map(|s| s.video)
            .collect();
        assert_eq!(
            exact[0], sar[0],
            "top choice must survive the approximation"
        );
    }

    #[test]
    fn top_k_zero_and_oversized() {
        let (corpus, _) = small_corpus();
        for mode in [RetrievalMode::Paper, RetrievalMode::GatedCertified] {
            let r = Recommender::build(test_cfg().with_retrieval(mode), corpus.clone()).unwrap();
            let q = QueryVideo::from_corpus(&corpus[0]);
            assert!(r.recommend(Strategy::Csf, &q, 0).is_empty());
            for strategy in ALL {
                // Heaps are sized by the candidates in hand, never by `k`.
                let want = r.recommend(strategy, &q, corpus.len());
                assert_eq!(want.len(), 4, "{mode:?} {}", strategy.label());
                for k in [100, 1 << 40, usize::MAX - 1, usize::MAX] {
                    let label = format!("{mode:?} {} k={k}", strategy.label());
                    assert_eq!(r.recommend(strategy, &q, k), want, "{label}");
                }
            }
        }
    }

    /// A name of the proptest's pools: `u0..u29` may be registered (by the
    /// corpus or by a comment), `x…` never is.
    fn pool_name(n: u32) -> String {
        if n < 30 {
            format!("u{n}")
        } else {
            format!("x{n}")
        }
    }

    use proptest::prelude::prop::collection::vec as vec_of;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Exact `sJ` by merging resolved ids equals the string oracle bit
        /// for bit, and the certificate's `(qn, q_unassigned)` equals a
        /// `HashSet`'s count. The registry is whatever a random corpus
        /// (duplicate names, user-less videos) and then a random comment
        /// batch (repeats, new users) intern; each row's oracle is its raw
        /// names, corpus list then comments. Every row is checked against
        /// the drawn query, the empty query, an all-unknown query, the
        /// drawn query with every name repeated, and each row's own names.
        /// The last row is never commented on, so one row is always empty.
        #[test]
        fn sj_merge_equals_the_string_oracle_bit_for_bit(
            rows in vec_of(vec_of(0..24u32, 0..8), 1..10),
            comments in vec_of((0..10usize, 0..30u32), 0..12),
            query in vec_of(0..34u32, 0..10),
        ) {
            use viderec_signature::cuboid::{Cuboid, CuboidSignature};
            let mut raw: Vec<Vec<String>> = rows
                .iter()
                .map(|row| row.iter().map(|&n| pool_name(n)).collect())
                .collect();
            raw.push(Vec::new());
            let corpus = raw.iter().enumerate().map(|(i, users)| {
                let cuboid = Cuboid { value: i as f64, weight: 1.0 };
                CorpusVideo {
                    id: VideoId(i as u64),
                    series: SignatureSeries::new(vec![CuboidSignature::new(vec![cuboid])]),
                    users: users.clone(),
                }
            });
            let mut r = Recommender::build(test_cfg(), corpus.collect()).unwrap();
            let updates: Vec<_> = comments
                .iter()
                .map(|&(video, n)| crate::maintenance::SocialUpdate {
                    video: VideoId((video % rows.len()) as u64),
                    user: pool_name(n),
                })
                .collect();
            r.apply_social_updates(&updates);
            for update in &updates {
                raw[update.video.0 as usize].push(update.user.clone());
            }

            let query: Vec<String> = query.iter().map(|&n| pool_name(n)).collect();
            let doubled: Vec<String> = query.iter().chain(query.iter().rev()).cloned().collect();
            let strangers = vec!["x30".to_string(), "x31".into(), "x30".into()];
            let mut queries = vec![query, doubled, Vec::new(), strangers];
            queries.extend(raw.iter().cloned());
            for q in &queries {
                assert_counts_agree_with_a_set(&r, q);
                let users = r.resolve_users(q);
                for (idx, names) in raw.iter().enumerate() {
                    let (got, want) = (users.jaccard(&r.videos[idx].users), exact_sj_strings(q, names));
                    proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} vs {:?}", q, names);
                }
            }
        }
    }

    #[test]
    fn exact_sj_strings_behaviour() {
        let a = vec!["x".to_string(), "y".into(), "x".into()];
        let b = vec!["y".to_string(), "z".into()];
        // sets {x, y} and {y, z}: 1 / 3.
        assert!((exact_sj_strings(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(exact_sj_strings(&[], &[]), 0.0);
        assert_eq!(exact_sj_strings(&a, &[]), 0.0);
        assert_eq!(exact_sj_strings(&a, &a), 1.0);
    }

    #[test]
    fn unknown_query_users_do_not_crash_any_path() {
        let (corpus, _) = small_corpus();
        let r = Recommender::build(test_cfg(), corpus.clone()).unwrap();
        let q = QueryVideo {
            series: corpus[0].series.clone(),
            users: vec!["stranger1".into(), "stranger2".into()],
        };
        for strategy in [
            Strategy::Sr,
            Strategy::Csf,
            Strategy::CsfSar,
            Strategy::CsfSarH,
        ] {
            let _ = r.recommend(strategy, &q, 3);
        }
    }
}

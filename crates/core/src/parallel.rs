//! Parallel sharded query engine with query-level pruning.
//!
//! [`ParallelRecommender`] answers batches of queries by sharding the
//! candidate universe of each query across a scoped worker pool
//! (`crossbeam::thread::scope`): every worker refines its shard into a
//! bounded top-k heap, skipping candidates whose admissible score ceiling
//! (see [`crate::prune`]) cannot strictly beat its running k-th score, and
//! the per-shard heaps merge under the same total order the sequential path
//! sorts with (score descending, then `VideoId` ascending). Pruning and
//! sharding are both exact, so `recommend_batch` returns *identical* results
//! to calling [`Recommender::recommend`] per query, for every strategy and
//! any worker count.
//!
//! The per-video scoring caches are **not** built here: the engine borrows
//! the corpus-owned [`crate::arena::ScoringArena`] the recommender filled at
//! ingest, and prunes against the bound that arena was built for
//! ([`crate::RecommenderConfig::prune_bound`]).

use crate::arena::ScoringArena;
use crate::config::RetrievalMode;
use crate::corpus::QueryVideo;
use crate::prune::{Ladder, LadderQueue, PruneStats};
use crate::recommender::{PreparedQuery, Recommender, Scored};
use crate::relevance::Strategy;
use crate::topk::{floor_of, top_k_heap};
use crate::trace::{QueryTrace, ShardTrace, Stage, Tracer, MAX_SHARD_TRACES};
use std::sync::atomic::AtomicU64;

/// What one shard worker hands back: its top-k and a trace of its own —
/// counters, stage timings, per-stage allocation cells (from the worker's
/// own thread-local counters — exact because a shard never migrates threads
/// mid-scan) and, in `total_ns`, its wall time.
type ShardResult = (Vec<Scored>, QueryTrace);

/// Configuration of the sharded engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Logical shards per query (≥ 1). `1` runs the pruned scan inline.
    pub workers: usize,
    /// OS-thread cap for executing shards. `None` (the default) clamps to
    /// the host's available parallelism: the scan is CPU-bound, so threads
    /// beyond the hardware supply only add context-switch and cache-thrash
    /// overhead — excess logical shards are then drained by the threads that
    /// exist (down to a plain serial drain on a single-core host). `Some(n)`
    /// forces up to `n` threads regardless; tests use it to exercise the
    /// threaded merge paths even where `available_parallelism` is 1.
    pub max_threads: Option<usize>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_threads: None,
        }
    }
}

/// A batch-query façade over a built [`Recommender`].
///
/// Borrows the recommender's scoring arena rather than deriving caches of its
/// own, so construction is O(1). The arena is maintained by the recommender
/// itself — including through [`crate::maintenance`] ingests — so the engine
/// never goes stale with it.
pub struct ParallelRecommender<'a> {
    rec: &'a Recommender,
    cfg: ParallelConfig,
}

impl<'a> ParallelRecommender<'a> {
    /// Wraps a recommender with the default configuration.
    pub fn new(rec: &'a Recommender) -> Self {
        Self::with_config(rec, ParallelConfig::default())
    }

    /// Wraps a recommender with an explicit configuration.
    ///
    /// # Panics
    /// Panics if `cfg.workers == 0`.
    pub fn with_config(rec: &'a Recommender, cfg: ParallelConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        Self { rec, cfg }
    }

    /// The wrapped recommender.
    pub fn recommender(&self) -> &Recommender {
        self.rec
    }

    /// The engine configuration.
    pub fn config(&self) -> &ParallelConfig {
        &self.cfg
    }

    /// Top-`k` recommendations for each query, identical to calling
    /// [`Recommender::recommend`] per query.
    pub fn recommend_batch(
        &self,
        strategy: Strategy,
        queries: &[QueryVideo],
        k: usize,
    ) -> Vec<Vec<Scored>> {
        self.recommend_batch_with_stats(strategy, queries, k)
            .into_iter()
            .map(|(recs, _)| recs)
            .collect()
    }

    /// Like [`Self::recommend_batch`], also returning the per-query pruning
    /// counters the bench harness reports.
    ///
    /// Scheduling policy: a batch at least as wide as the worker pool shards
    /// whole *queries* across one scope (one spawn/join round per batch
    /// instead of one per query), and every query runs the single-worker
    /// pruned scan — whose heap fills exactly as fast as the sequential
    /// path's, so the per-query prune rate does not degrade with the worker
    /// count. Narrower batches fall back to sharding each query's
    /// *candidates* across the pool. Both paths execute the same per-shard
    /// scan and the same merge order, so the results are identical either
    /// way (and identical to [`Recommender::recommend`]).
    pub fn recommend_batch_with_stats(
        &self,
        strategy: Strategy,
        queries: &[QueryVideo],
        k: usize,
    ) -> Vec<(Vec<Scored>, PruneStats)> {
        self.recommend_batch_traced(strategy, queries, k, Tracer::OFF)
            .into_iter()
            .map(|(recs, trace)| (recs, trace.stats))
            .collect()
    }

    /// [`Self::recommend_batch_with_stats`] with stage-level tracing: one
    /// [`QueryTrace`] per query, including the per-shard breakdown when the
    /// query's candidates were sharded. `recommend_batch_with_stats` *is*
    /// this path under [`Tracer::OFF`], so results are bit-identical with
    /// tracing on or off.
    pub fn recommend_batch_traced(
        &self,
        strategy: Strategy,
        queries: &[QueryVideo],
        k: usize,
        tracer: Tracer,
    ) -> Vec<(Vec<Scored>, QueryTrace)> {
        let workers = self.cfg.workers;
        if workers > 1 && queries.len() >= workers {
            let threads = self.threads_for(workers);
            if threads == 1 {
                return queries
                    .iter()
                    .map(|q| self.recommend_one_traced(strategy, q, k, 1, tracer))
                    .collect();
            }
            let chunk = queries.len().div_ceil(threads);
            return crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = queries
                    .chunks(chunk)
                    .map(|qs| {
                        scope.spawn(move |_| {
                            qs.iter()
                                .map(|q| self.recommend_one_traced(strategy, q, k, 1, tracer))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("query worker panicked"))
                    .collect()
            })
            .expect("crossbeam scope");
        }
        queries
            .iter()
            .map(|q| self.recommend_one_traced(strategy, q, k, workers, tracer))
            .collect()
    }

    /// One traced query under the engine's configured worker count.
    pub fn recommend_traced(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        k: usize,
        tracer: Tracer,
    ) -> (Vec<Scored>, QueryTrace) {
        self.recommend_one_traced(strategy, query, k, self.cfg.workers, tracer)
    }

    /// OS threads to drain `shards` logical shards: never more than the
    /// shards themselves, never more than the cap (see
    /// [`ParallelConfig::max_threads`]).
    fn threads_for(&self, shards: usize) -> usize {
        let cap = self.cfg.max_threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        shards.min(cap).max(1)
    }

    fn recommend_one_traced(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        k: usize,
        workers: usize,
        tracer: Tracer,
    ) -> (Vec<Scored>, QueryTrace) {
        if self.rec.config().retrieval != RetrievalMode::Paper {
            // Index-gated retrieval: the candidate set is a small fraction of
            // the corpus, so within-query sharding is not worth its merge
            // cost — the whole query runs through the shared gated engine.
            // Batch-level whole-query parallelism in `recommend_batch*`
            // still applies.
            return self.rec.gated_engine(strategy, query, k, &[], tracer);
        }
        let total = tracer.start();
        let mut trace = QueryTrace::new(strategy, k);
        trace.corpus = self.rec.num_videos() as u64;
        if k == 0 {
            return (Vec::new(), trace);
        }
        let sp = tracer.start();
        let prep = self.rec.prepare_query(strategy, query);
        trace.stop_span(sp, Stage::Prepare);

        let sp = tracer.start();
        let candidates = self.rec.candidate_indices(strategy, query, &prep);
        trace.stop_span(sp, Stage::Gather);
        trace.gathered = candidates.len() as u64;
        trace.stats.scanned = candidates.len() as u64;

        let workers = workers.min(candidates.len()).max(1);
        trace.shards = workers as u64;

        let mut merged = if strategy.uses_content() {
            // The query-side scoring cache is query preparation too.
            let sp = tracer.start();
            let query_cache = ScoringArena::for_series(&query.series, self.rec.arena().bound());
            trace.stop_span(sp, Stage::Prepare);
            let ladder = self.rec.ladder(strategy, &query_cache, k);
            let queue = self.rec.enqueue(
                strategy,
                query,
                &prep,
                &candidates,
                candidates.len(),
                Vec::new(),
                tracer,
                &mut trace,
            );
            self.run_pruned(ladder, queue, workers, tracer, &mut trace)
        } else {
            self.run_plain(
                strategy,
                query,
                &prep,
                &candidates,
                k,
                workers,
                tracer,
                &mut trace,
            )
        };

        // Same total order as the sequential sort — per-shard tops are exact
        // for their shard, so the merged top-k is the global top-k.
        let sp = tracer.start();
        merged.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.video.cmp(&b.video)));
        merged.truncate(k);
        trace.stop_span(sp, Stage::TopK);
        if let Some(ns) = total.elapsed_ns() {
            trace.total_ns = ns;
        }
        (merged, trace)
    }

    /// SR's path: shard the candidate list into contiguous chunks and
    /// heap-scan each (the social score is cheap and exact already — nothing
    /// to prune).
    #[allow(clippy::too_many_arguments)]
    fn run_plain(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        prep: &PreparedQuery,
        candidates: &[u32],
        k: usize,
        workers: usize,
        tracer: Tracer,
        trace: &mut QueryTrace,
    ) -> Vec<Scored> {
        if workers == 1 {
            let results =
                vec![self.score_plain_shard(strategy, query, prep, candidates, k, tracer)];
            return merge_shards(results, trace);
        }
        let chunk = candidates.len().div_ceil(workers);
        let shards: Vec<&[u32]> = candidates.chunks(chunk).collect();
        let threads = self.threads_for(shards.len());
        let results = if threads == 1 {
            shards
                .iter()
                .map(|shard| self.score_plain_shard(strategy, query, prep, shard, k, tracer))
                .collect()
        } else {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .chunks(shards.len().div_ceil(threads))
                    .map(|mine| {
                        scope.spawn(move |_| {
                            mine.iter()
                                .map(|shard| {
                                    self.score_plain_shard(strategy, query, prep, shard, k, tracer)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // viderec-lint: allow(serve-no-panic) — `join` errs only when the
                    // worker panicked; re-raising continues that unwind.
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect::<Vec<_>>()
            })
            // viderec-lint: allow(serve-no-panic) — `scope` errs only when a
            // worker panicked; re-raising continues that unwind, it does not
            // introduce one.
            .expect("crossbeam scope")
        };
        merge_shards(results, trace)
    }

    /// Pruned path: the bound ladder over the queued candidates. On one
    /// worker that is the sequential engine's scan verbatim — identical
    /// results *and* identical [`PruneStats`] to
    /// [`Recommender::recommend_with_stats`]. Otherwise the ladder first runs
    /// inline until `k` candidates are scored: their k-th score is a *global*
    /// pruning floor that every shard can test against from its very first
    /// candidate — a shard smaller than `k` (whose own heap can never fill)
    /// prunes exactly as well as the sequential scan, so prune rates do not
    /// collapse as the worker count grows. What is left of the queue is dealt
    /// to the workers round-robin, each running the same ladder over its own
    /// queue and heap against the shared floor.
    ///
    /// Soundness of the floor: the inline pass holds `k` candidates whose
    /// exact scores are all ≥ the floor, so a candidate whose ceiling is
    /// *strictly* below it loses to all of them regardless of tie-breaking.
    fn run_pruned(
        &self,
        ladder: Ladder<'_>,
        mut queue: LadderQueue,
        workers: usize,
        tracer: Tracer,
        trace: &mut QueryTrace,
    ) -> Vec<Scored> {
        let k = ladder.top_k;
        let mut heap = top_k_heap(k, queue.len());
        if workers == 1 {
            ladder.run(&mut queue, &mut heap, trace, tracer);
            return heap.into_iter().map(|e| e.0).collect();
        }
        let mut sp = tracer.start();
        while heap.len() < k && ladder.step(&mut queue, &mut heap, false, trace, &mut sp) {}
        // Workers share the floor through an atomic and publish their own
        // k-th scores as they rise, so every shard prunes against the best
        // threshold discovered anywhere, not just its own. A short heap means
        // the queue ran dry, and `0.0` is no floor at all.
        let shared_floor = AtomicU64::new(floor_of(&heap, k).unwrap_or(0.0).to_bits());
        let ladder = Ladder {
            shared_floor: Some(&shared_floor),
            ..ladder
        };
        let shards = queue.deal(workers);
        let scan = |shard: &LadderQueue| -> ShardResult {
            let wall = tracer.start();
            let mut shard_trace = QueryTrace::new(ladder.strategy, k);
            let mut own = top_k_heap(k, shard.len());
            let mut pending = shard.clone();
            ladder.run(&mut pending, &mut own, &mut shard_trace, tracer);
            shard_trace.total_ns = wall.elapsed_ns().unwrap_or(0);
            (own.into_iter().map(|e| e.0).collect(), shard_trace)
        };
        let threads = self.threads_for(shards.len());
        let results = if threads == 1 {
            // Serial drain of the logical shards: the shared floor still
            // carries each shard's k-th score into the next, like the
            // threaded drain's atomic does across cores.
            shards.iter().map(scan).collect()
        } else {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .chunks(shards.len().div_ceil(threads))
                    .map(|mine| {
                        let scan = &scan;
                        scope.spawn(move |_| mine.iter().map(scan).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    // viderec-lint: allow(serve-no-panic) — `join` errs only when the
                    // worker panicked; re-raising continues that unwind.
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect::<Vec<_>>()
            })
            // viderec-lint: allow(serve-no-panic) — `scope` errs only when a
            // worker panicked; re-raising continues that unwind, it does not
            // introduce one.
            .expect("crossbeam scope")
        };
        let mut merged = merge_shards(results, trace);
        merged.extend(heap.into_iter().map(|e| e.0));
        merged
    }

    /// Plain heap scan of a shard of candidate indices; exact social scores
    /// only. Returns the shard's top-k, counters, stage set and wall time.
    fn score_plain_shard(
        &self,
        strategy: Strategy,
        query: &QueryVideo,
        prep: &PreparedQuery,
        shard: &[u32],
        k: usize,
        tracer: Tracer,
    ) -> ShardResult {
        let wall = tracer.start();
        let mut trace = QueryTrace::new(strategy, k);
        let mut heap = top_k_heap(k, shard.len());
        self.rec.scan_social_into(
            strategy, query, prep, shard, k, &mut heap, tracer, &mut trace,
        );
        trace.total_ns = wall.elapsed_ns().unwrap_or(0);
        (heap.into_iter().map(|e| e.0).collect(), trace)
    }
}

/// Concatenates per-shard tops into one candidate list while folding each
/// shard's counters, stage set and wall time into the query's trace (the
/// first [`MAX_SHARD_TRACES`] shards get individual breakdown entries).
fn merge_shards(results: Vec<ShardResult>, trace: &mut QueryTrace) -> Vec<Scored> {
    let mut merged = Vec::new();
    for (s, (shard_top, shard)) in results.into_iter().enumerate() {
        merged.extend(shard_top);
        trace.stats.absorb(shard.stats);
        trace.stages.merge(&shard.stages);
        for (mine, theirs) in trace.allocs.iter_mut().zip(shard.allocs.iter()) {
            mine.merge(*theirs);
        }
        if s < MAX_SHARD_TRACES {
            trace.shard[s] = ShardTrace {
                ns: shard.total_ns,
                exact_evals: shard.stats.exact_evals,
                pruned: shard.stats.pruned,
            };
            trace.shards_recorded = (s + 1) as u64;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecommenderConfig;
    use crate::corpus::CorpusVideo;
    use viderec_signature::SignatureBuilder;
    use viderec_video::{SynthConfig, VideoId, VideoSynthesizer};

    fn corpus(n: usize) -> Vec<CorpusVideo> {
        let mut synth = VideoSynthesizer::new(SynthConfig::default(), 4, 900);
        let builder = SignatureBuilder::default();
        (0..n)
            .map(|i| {
                let v = synth.generate(VideoId(i as u64), i % 4, 10.0);
                CorpusVideo {
                    id: v.id(),
                    series: builder.build(&v),
                    users: vec![format!("user{}", i % 5), format!("user{}", (i + 1) % 7)],
                }
            })
            .collect()
    }

    fn build() -> Recommender {
        let cfg = RecommenderConfig {
            k_subcommunities: 3,
            ..Default::default()
        };
        Recommender::build(cfg, corpus(24)).unwrap()
    }

    #[test]
    fn batch_matches_sequential_for_every_strategy() {
        let rec = build();
        let queries: Vec<QueryVideo> = (0..3)
            .map(|i| QueryVideo {
                series: rec.series_of(VideoId(i)).unwrap().clone(),
                users: rec.users_of(VideoId(i)).unwrap(),
            })
            .collect();
        let par = ParallelRecommender::new(&rec);
        for strategy in [
            Strategy::Cr,
            Strategy::Sr,
            Strategy::Csf,
            Strategy::CsfSar,
            Strategy::CsfSarH,
        ] {
            let batch = par.recommend_batch(strategy, &queries, 5);
            for (q, got) in queries.iter().zip(&batch) {
                let want = rec.recommend(strategy, q, 5);
                assert_eq!(&want, got, "{} diverged", strategy.label());
            }
        }
    }

    #[test]
    fn gated_batch_matches_the_naive_full_scan() {
        let cfg = RecommenderConfig {
            k_subcommunities: 3,
            ..Default::default()
        }
        .with_retrieval(RetrievalMode::GatedCertified);
        let rec = Recommender::build(cfg, corpus(24)).unwrap();
        let queries: Vec<QueryVideo> = (0..3)
            .map(|i| QueryVideo {
                series: rec.series_of(VideoId(i)).unwrap().clone(),
                users: rec.users_of(VideoId(i)).unwrap(),
            })
            .collect();
        let par = ParallelRecommender::new(&rec);
        for strategy in [
            Strategy::Cr,
            Strategy::Sr,
            Strategy::Csf,
            Strategy::CsfSar,
            Strategy::CsfSarH,
        ] {
            let batch = par.recommend_batch_traced(strategy, &queries, 5, Tracer::OFF);
            for (q, (got, trace)) in queries.iter().zip(&batch) {
                let want = rec.recommend_naive_excluding(strategy, q, 5, &[]);
                assert_eq!(&want, got, "{} diverged", strategy.label());
                assert_eq!(trace.gate, 2, "{} must certify", strategy.label());
                assert_eq!(trace.corpus, 24);
                assert_eq!(trace.shards, 1, "gated queries are not sharded within");
            }
        }
    }

    #[test]
    fn pruning_counters_are_consistent() {
        let rec = build();
        let q = QueryVideo {
            series: rec.series_of(VideoId(0)).unwrap().clone(),
            users: rec.users_of(VideoId(0)).unwrap(),
        };
        let par = ParallelRecommender::with_config(
            &rec,
            ParallelConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let results = par.recommend_batch_with_stats(Strategy::CsfSar, &[q], 3);
        let (recs, stats) = &results[0];
        assert_eq!(recs.len(), 3);
        assert_eq!(stats.scanned, rec.num_videos() as u64);
        assert_eq!(stats.pruned + stats.exact_evals, stats.scanned);
    }

    #[test]
    fn one_worker_counters_match_the_sequential_engine() {
        let rec = build();
        let queries: Vec<QueryVideo> = (0..4)
            .map(|i| QueryVideo {
                series: rec.series_of(VideoId(i)).unwrap().clone(),
                users: rec.users_of(VideoId(i)).unwrap(),
            })
            .collect();
        let par = ParallelRecommender::with_config(
            &rec,
            ParallelConfig {
                workers: 1,
                ..Default::default()
            },
        );
        for strategy in [
            Strategy::Cr,
            Strategy::Sr,
            Strategy::Csf,
            Strategy::CsfSar,
            Strategy::CsfSarH,
        ] {
            let batch = par.recommend_batch_with_stats(strategy, &queries, 5);
            for (q, got) in queries.iter().zip(&batch) {
                // On one worker the engine runs the sequential single-heap
                // scan verbatim, so the counters match the sequential
                // engine's exactly — not just the invariants.
                let want = rec.recommend_with_stats(strategy, q, 5, &[]);
                assert_eq!(&want, got, "{} diverged", strategy.label());
                assert_eq!(got.1.pruned + got.1.exact_evals, got.1.scanned);
            }
        }
    }

    #[test]
    fn traced_batch_is_bit_identical_and_accounts_shards() {
        let rec = build();
        let q = QueryVideo {
            series: rec.series_of(VideoId(2)).unwrap().clone(),
            users: rec.users_of(VideoId(2)).unwrap(),
        };
        let par = ParallelRecommender::with_config(
            &rec,
            ParallelConfig {
                workers: 3,
                max_threads: Some(2),
            },
        );
        for strategy in [Strategy::Sr, Strategy::CsfSar] {
            let off =
                par.recommend_batch_traced(strategy, std::slice::from_ref(&q), 4, Tracer::OFF);
            let on = par.recommend_batch_traced(strategy, std::slice::from_ref(&q), 4, Tracer::ON);
            assert_eq!(
                off[0].0,
                on[0].0,
                "{} diverged under tracing",
                strategy.label()
            );
            assert_eq!(off[0].1.stats, on[0].1.stats);
            let t = &on[0].1;
            assert!(t.total_ns > 0);
            assert_eq!(t.stats.scanned, rec.num_videos() as u64);
            assert_eq!(t.stats.pruned + t.stats.exact_evals, t.stats.scanned);
            assert_eq!(t.shards, 3);
            assert!(t.shards_recorded <= t.shards);
            // The per-shard breakdown re-partitions the sharded part of the
            // scan: shard counters never exceed the query totals.
            let shard_evals: u64 = t.shard.iter().map(|s| s.exact_evals).sum();
            let shard_pruned: u64 = t.shard.iter().map(|s| s.pruned).sum();
            assert!(shard_evals <= t.stats.exact_evals);
            assert!(shard_pruned <= t.stats.pruned);
        }
    }

    #[test]
    fn zero_k_yields_empty_results() {
        let rec = build();
        let q = QueryVideo {
            series: rec.series_of(VideoId(0)).unwrap().clone(),
            users: vec![],
        };
        let par = ParallelRecommender::new(&rec);
        let out = par.recommend_batch(Strategy::Csf, &[q], 0);
        assert_eq!(out, vec![Vec::new()]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let rec = build();
        ParallelRecommender::with_config(
            &rec,
            ParallelConfig {
                workers: 0,
                ..Default::default()
            },
        );
    }
}

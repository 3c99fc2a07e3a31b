//! The sharded + pruned batch engine (DESIGN.md "Concurrency model &
//! pruning"): worker sweep 1/2/4/8, pruning counters, and the sequential vs
//! batch top-20 CSF-SAR-H throughput comparison.
//!
//! On a single hardware thread the speedup comes from query-level pruning —
//! candidates whose admissible score ceiling cannot beat the running 20th
//! score skip the exact `κJ` entirely — so the report prints the prune rate
//! next to each timing.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use viderec_core::{
    ParallelConfig, ParallelRecommender, QueryVideo, Recommender, RecommenderConfig, Strategy,
};
use viderec_eval::community::{Community, CommunityConfig};

const TOP_K: usize = 20;

fn setup() -> (Recommender, Vec<QueryVideo>) {
    let community = Community::generate(CommunityConfig {
        hours: 10.0,
        ..Default::default()
    });
    let recommender =
        Recommender::build(RecommenderConfig::default(), community.source_corpus()).unwrap();
    let queries: Vec<QueryVideo> = community
        .query_videos()
        .into_iter()
        .take(8)
        .map(|id| QueryVideo {
            series: recommender.series_of(id).unwrap().clone(),
            users: recommender.users_of(id).unwrap().to_vec(),
        })
        .collect();
    (recommender, queries)
}

/// Batch wall time in seconds per batch: best of three measurement rounds of
/// `reps` repetitions each, so a single scheduler hiccup on a small container
/// cannot distort one configuration's line relative to the others.
fn time_batch(mut run: impl FnMut(), reps: usize) -> f64 {
    run(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            run();
        }
        best = best.min(start.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

fn report(recommender: &Recommender, queries: &[QueryVideo]) {
    println!("\n== batch top-{TOP_K} CSF-SAR-H: sequential vs sharded+pruned ==");
    println!(
        "corpus: {} videos, {} users, {} queries",
        recommender.num_videos(),
        recommender.num_users(),
        queries.len()
    );

    let reps = 5;
    let seq = time_batch(
        || {
            for q in queries {
                std::hint::black_box(recommender.recommend(Strategy::CsfSarH, q, TOP_K));
            }
        },
        reps,
    );
    println!(
        "sequential: {:>9.3} ms/batch  ({:.1} queries/s)",
        seq * 1e3,
        queries.len() as f64 / seq
    );

    // The unpruned reference over the same candidate universe: what every
    // candidate costs when each pays for its exact `κJ`.
    let unpruned = time_batch(
        || {
            for q in queries {
                std::hint::black_box(recommender.recommend_unpruned_excluding(
                    Strategy::CsfSarH,
                    q,
                    TOP_K,
                    &[],
                ));
            }
        },
        reps,
    );
    println!(
        "unpruned:   {:>9.3} ms/batch  ({:.2}x the pruned sequential scan)",
        unpruned * 1e3,
        unpruned / seq
    );

    for workers in [1usize, 2, 4, 8] {
        let par = ParallelRecommender::with_config(
            recommender,
            ParallelConfig {
                workers,
                max_threads: None,
            },
        );
        let t = time_batch(
            || {
                std::hint::black_box(par.recommend_batch(Strategy::CsfSarH, queries, TOP_K));
            },
            reps,
        );
        // Counters from one extra run (identical work: the engine is
        // deterministic).
        let stats = par
            .recommend_batch_with_stats(Strategy::CsfSarH, queries, TOP_K)
            .into_iter()
            .fold(viderec_core::PruneStats::default(), |mut acc, (_, s)| {
                acc.absorb(s);
                acc
            });
        println!(
            "workers={workers}: {:>9.3} ms/batch  speedup {:>5.2}x  vs unpruned {:>5.2}x  \
             scanned {:>6}  pruned {:>6}  exact {:>6}  prune-rate {:>5.1}%",
            t * 1e3,
            seq / t,
            unpruned / t,
            stats.scanned,
            stats.pruned,
            stats.exact_evals,
            100.0 * stats.prune_rate()
        );
    }

    // Full-scan strategy for contrast: pruning has the whole corpus to cut.
    let par = ParallelRecommender::with_config(
        recommender,
        ParallelConfig {
            workers: 4,
            max_threads: None,
        },
    );
    let seq_sar = time_batch(
        || {
            for q in queries {
                std::hint::black_box(recommender.recommend(Strategy::CsfSar, q, TOP_K));
            }
        },
        reps,
    );
    let par_sar = time_batch(
        || {
            std::hint::black_box(par.recommend_batch(Strategy::CsfSar, queries, TOP_K));
        },
        reps,
    );
    println!(
        "CSF-SAR full scan: sequential {:.3} ms/batch, workers=4 pruned {:.3} ms/batch \
         (speedup {:.2}x)\n",
        seq_sar * 1e3,
        par_sar * 1e3,
        seq_sar / par_sar
    );
}

fn bench_parallel(c: &mut Criterion) {
    let (recommender, queries) = setup();
    report(&recommender, &queries);

    let mut group = c.benchmark_group("batch_top20_csf_sar_h");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            for q in &queries {
                std::hint::black_box(recommender.recommend(Strategy::CsfSarH, q, TOP_K));
            }
        })
    });
    for workers in [1usize, 2, 4, 8] {
        let par = ParallelRecommender::with_config(
            &recommender,
            ParallelConfig {
                workers,
                max_threads: None,
            },
        );
        group.bench_function(format!("workers_{workers}_pruned"), |b| {
            b.iter(|| std::hint::black_box(par.recommend_batch(Strategy::CsfSarH, &queries, TOP_K)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);

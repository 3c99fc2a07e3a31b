//! Single-query latency: the pruned sequential path (lazy bound ladder
//! over the corpus-owned scoring arena, DESIGN.md "Corpus-owned scoring
//! arena") against the unpruned reference scan that scores every candidate.
//!
//! CSF-SAR-H is the paper's headline online path (candidate retrieval +
//! refinement); CSF is the full-scan contrast where pruning has the whole
//! corpus to cut. Both paths return bit-identical rankings — the equivalence
//! suite (`tests/sequential_prune_equiv.rs`) pins that — so the only
//! difference a click sees is latency, reported here with the prune-rate
//! counters that explain it.
//!
//! Besides the criterion groups, the warm-up report runs one traced pass per
//! strategy (`recommend_traced` with the tracer on) and writes the full
//! result — latency, prune counters, and the per-stage time shares — to
//! `BENCH_single_query.json` (override with `SINGLE_QUERY_OUT`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use viderec_bench::diff::today_utc;
use viderec_core::{
    PruneStats, QueryVideo, Recommender, RecommenderConfig, Stage, Strategy, Tracer, NUM_STAGES,
};
use viderec_eval::community::{Community, CommunityConfig};

const TOP_K: usize = 20;

/// Escapes a symbolized stack for embedding in a JSON string.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Samples the headline pruned path with the in-process CPU profiler: a
/// worker thread loops the queries while `capture` owns the SIGPROF window.
/// Answers the question the wall-clock stage shares cannot: *which
/// functions* own the EMD stage's time.
fn profile_headline(
    recommender: &Recommender,
    queries: &[QueryVideo],
) -> Option<viderec_prof::Profile> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for q in queries {
                    std::hint::black_box(recommender.recommend(Strategy::CsfSarH, q, TOP_K));
                }
            }
        });
        let profile = viderec_prof::capture(Duration::from_secs(2), 199);
        stop.store(true, Ordering::Relaxed);
        profile.ok()
    })
}

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

/// Per-query wall time in seconds: best of three measurement rounds of
/// `reps` repetitions each, so a single scheduler hiccup on a small container
/// cannot distort one configuration's line relative to the others.
fn time_queries(mut run: impl FnMut(), reps: usize, queries: usize) -> f64 {
    run(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            run();
        }
        best = best.min(start.elapsed().as_secs_f64() / (reps * queries) as f64);
    }
    best
}

struct Row {
    strategy: Strategy,
    naive_s: f64,
    pruned_s: f64,
    stats: PruneStats,
    /// Per-stage nanoseconds summed over one traced pass of every query.
    stage_sums_ns: [u64; NUM_STAGES],
}

fn report(recommender: &Recommender, queries: &[QueryVideo]) {
    println!("\n== single-query top-{TOP_K}: pruned sequential vs naive scan ==");
    println!(
        "corpus: {} videos, {} users, {} queries, arena bound {:?}",
        recommender.num_videos(),
        recommender.num_users(),
        queries.len(),
        recommender.config().prune_bound,
    );

    let reps = 5;
    let mut rows = Vec::new();
    for strategy in [Strategy::CsfSarH, Strategy::Csf] {
        let naive = time_queries(
            || {
                for q in queries {
                    std::hint::black_box(recommender.recommend_unpruned_excluding(
                        strategy,
                        q,
                        TOP_K,
                        &[],
                    ));
                }
            },
            reps,
            queries.len(),
        );
        let pruned = time_queries(
            || {
                for q in queries {
                    std::hint::black_box(recommender.recommend(strategy, q, TOP_K));
                }
            },
            reps,
            queries.len(),
        );
        // Counters and stage times from one traced pass (identical work: the
        // scan is deterministic, and tracing only adds clock reads).
        let mut stats = PruneStats::default();
        let mut stage_sums_ns = [0u64; NUM_STAGES];
        for q in queries {
            let (_, trace) = recommender.recommend_traced(strategy, q, TOP_K, &[], Tracer::ON);
            stats.absorb(trace.stats);
            for stage in Stage::ALL {
                stage_sums_ns[stage.index()] += trace.stage(stage).ns;
            }
        }
        let stage_total = stage_sums_ns.iter().sum::<u64>().max(1);
        println!(
            "{:<9} naive {:>9.3} ms/query | pruned {:>9.3} ms/query | speedup {:>5.2}x | \
             scanned {:>6} pruned {:>6} exact {:>6} prune-rate {:>5.1}%",
            strategy.label(),
            naive * 1e3,
            pruned * 1e3,
            naive / pruned,
            stats.scanned,
            stats.pruned,
            stats.exact_evals,
            100.0 * stats.prune_rate(),
        );
        println!(
            "          ladder: pruned {} | exact {} | \
             cap-aborted sweeps {} | full exact sweeps {}",
            stats.pruned, stats.exact_evals, stats.cap_aborted, stats.full_sweeps,
        );
        let shares: Vec<String> = Stage::ALL
            .iter()
            .filter(|s| stage_sums_ns[s.index()] > 0)
            .map(|s| {
                format!(
                    "{} {:.1}%",
                    s.label(),
                    100.0 * stage_sums_ns[s.index()] as f64 / stage_total as f64
                )
            })
            .collect();
        println!("          stage shares (traced pass): {}", shares.join(" "));
        rows.push(Row {
            strategy,
            naive_s: naive,
            pruned_s: pruned,
            stats,
            stage_sums_ns,
        });
    }
    // Function-level attribution of the same workload: 2 s of SIGPROF
    // samples over a thread looping the headline pruned path.
    let profile = profile_headline(recommender, queries);
    match &profile {
        Some(p) => {
            let kernel = p.share_containing("emd_1d_soa_capped");
            println!(
                "profiler: {} samples @ {} Hz, emd_1d_soa_capped in {:.1}% of them",
                p.samples,
                p.hz,
                100.0 * kernel
            );
            for f in p.top(5) {
                println!("  {:>6}  {}", f.count, f.stack);
            }
        }
        None => println!("profiler: capture unavailable on this platform"),
    }
    println!();
    write_json(recommender, queries.len(), &rows, profile.as_ref());
}

fn write_json(
    recommender: &Recommender,
    queries: usize,
    rows: &[Row],
    profile: Option<&viderec_prof::Profile>,
) {
    // `cargo bench` runs with the package dir as cwd; anchor the default to
    // the workspace root so the artifact lands next to BENCH_scale.json.
    let out_path = std::env::var("SINGLE_QUERY_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_single_query.json").into()
    });
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"single_query\",\n");
    json.push_str(
        "  \"description\": \"Pruned sequential recommend (lazy best-first bound ladder over the \
         corpus-owned scoring arena) vs the unpruned reference scan over the same \
         candidate universe (recommend_unpruned_excluding). Bit-identical results \
         (tests/sequential_prune_equiv.rs); latency only. Stage shares come from one \
         traced pass per query (recommend_traced, tracer on).\",\n",
    );
    json.push_str(&format!("  \"date\": \"{}\",\n", today_utc()));
    json.push_str(&format!(
        "  \"host\": {{ \"cpus\": {}, \"arch\": \"{}\" }},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::ARCH
    ));
    json.push_str("  \"command\": \"cargo bench -p viderec-bench --bench single_query\",\n");
    json.push_str(&format!(
        "  \"setup\": {{\n    \"community_hours\": 10.0,\n    \"corpus_videos\": {},\n    \
         \"users\": {},\n    \"queries\": {queries},\n    \"top_k\": {TOP_K},\n    \
         \"arena_bound\": \"{:?}\",\n    \"timing\": \"best of 3 rounds x 5 reps, per-query \
         wall time\"\n  }},\n",
        recommender.num_videos(),
        recommender.num_users(),
        recommender.config().prune_bound,
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let stage_total = r.stage_sums_ns.iter().sum::<u64>().max(1);
        json.push_str(&format!(
            "    {{\n      \"strategy\": \"{}\",\n      \"naive_ms_per_query\": {:.3},\n      \
             \"pruned_ms_per_query\": {:.3},\n      \"speedup\": {:.2},\n      \
             \"scanned\": {},\n      \"pruned\": {},\n      \"exact_evals\": {},\n      \
             \"prune_rate\": {:.3},\n      \"tier_breakdown\": {{\n        \
             \"ladder_pruned\": {},\n        \"embedding_pruned\": 0,\n        \
             \"cap_aborted_sweeps\": {},\n        \"full_exact_sweeps\": {}\n      }},\n      \
             \"stage_breakdown\": {{\n        \
             \"source\": \"one traced pass per query; shares of the stage sum\",\n        \
             \"stages\": [\n",
            r.strategy.label(),
            r.naive_s * 1e3,
            r.pruned_s * 1e3,
            r.naive_s / r.pruned_s,
            r.stats.scanned,
            r.stats.pruned,
            r.stats.exact_evals,
            r.stats.prune_rate(),
            r.stats.pruned,
            r.stats.cap_aborted,
            r.stats.full_sweeps,
        ));
        for (j, stage) in Stage::ALL.iter().enumerate() {
            let ns = r.stage_sums_ns[stage.index()];
            json.push_str(&format!(
                "          {{ \"stage\": \"{}\", \"micros_per_query\": {}, \
                 \"share\": {:.4} }}{}\n",
                stage.label(),
                ns / 1_000 / queries.max(1) as u64,
                ns as f64 / stage_total as f64,
                if j + 1 < NUM_STAGES { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "        ]\n      }}\n    }}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Sampling-profiler attribution of the headline path: which functions
    // the EMD stage's wall time actually belongs to (see the acceptance
    // notes — the stage share alone cannot distinguish kernel time from
    // eligibility work around it).
    if let Some(p) = profile {
        let kernel_share = p.share_containing("emd_1d_soa_capped");
        json.push_str(&format!(
            "  \"profile\": {{\n    \"source\": \"in-process SIGPROF sampler over a thread \
             looping the pruned CSF-SAR-H path; collapsed stacks, hottest first\",\n    \
             \"hz\": {},\n    \"window_ms\": {},\n    \"samples\": {},\n    \
             \"dropped\": {},\n    \"emd_kernel_sample_share\": {:.4},\n    \
             \"top_stacks\": [\n",
            p.hz, p.window_ms, p.samples, p.dropped, kernel_share,
        ));
        let top = p.top(10);
        for (i, f) in top.iter().enumerate() {
            json.push_str(&format!(
                "      {{ \"count\": {}, \"stack\": \"{}\" }}{}\n",
                f.count,
                json_escape(&f.stack),
                if i + 1 < top.len() { "," } else { "" }
            ));
        }
        json.push_str("    ]\n  },\n");
    }
    let headline = &rows[0];
    let speedup = headline.naive_s / headline.pruned_s;
    let headline_ms = headline.pruned_s * 1e3;
    // The PR 2 seed of this file measured the pre-SoA pruned path at
    // 8.432 ms/query on this fixture; the kernel rework must at least halve
    // that.
    let baseline_pr2_ms = 8.432;
    let pass = speedup >= 1.3 && headline_ms <= baseline_pr2_ms / 2.0;
    let kernel_share = profile
        .map(|p| format!("{:.4}", p.share_containing("emd_1d_soa_capped")))
        .unwrap_or_else(|| "null".to_string());
    json.push_str(&format!(
        "  \"acceptance\": {{\n    \"required_speedup_csf_sar_h_top20\": 1.3,\n    \
         \"measured_speedup_csf_sar_h_top20\": {speedup:.2},\n    \
         \"baseline_pr2_pruned_ms_per_query\": {baseline_pr2_ms},\n    \
         \"required_pruned_ms_per_query_max\": {:.3},\n    \
         \"measured_pruned_ms_per_query\": {headline_ms:.3},\n    \
         \"profiler_emd_kernel_sample_share\": {kernel_share},\n    \
         \"pass\": {pass}\n  }},\n",
        baseline_pr2_ms / 2.0,
    ));
    json.push_str(
        "  \"notes\": \"Speedup exceeds the raw prune rate because the pruned path also \
         reads the arena's ingest-time caches (presorted EMD pairs, signature means, \
         slice features) while the naive reference re-derives per-signature state inside \
         every exact kappa_J evaluation, as the pre-change sequential path did. \
         The exact kappa_J matcher is lazy (DESIGN.md 12.2): it keys every pair within \
         the match radius by its slice-bound SimC ceiling and sweeps a pair only when it \
         reaches it best-first with its row and column still free, so full_exact_sweeps \
         counts the distances the matching actually needed (the eager matcher swept \
         every pair in reach, 68k per 8 CSF-SAR-H queries). Sweeps run at the merge \
         sweep's serial-dependency floor (~3-4 ns/step; interleaved multi-lane executors \
         measured 0.2-1.1x scalar, see DESIGN.md 12), so the EMD stage's time is pair \
         keying, ordering and matching, not kernel overhead. The profile \
         section above attributes this at function level: the \
         kernel proper (emd_1d_soa_capped) is profiler_emd_kernel_sample_share of all \
         on-CPU samples, the rest of the emd stage being pair screens and sweep \
         bookkeeping — see EXPERIMENTS.md, PR 7 follow-up and the PR 14 tier ledger.\"\n}\n",
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}

fn bench_single_query(c: &mut Criterion) {
    let (recommender, queries) = setup();
    report(&recommender, &queries);

    let mut group = c.benchmark_group("single_query_top20");
    group.sample_size(10);
    for strategy in [Strategy::CsfSarH, Strategy::Csf] {
        group.bench_function(format!("{}_naive", strategy.label()), |b| {
            b.iter(|| {
                for q in &queries {
                    std::hint::black_box(recommender.recommend_unpruned_excluding(
                        strategy,
                        q,
                        TOP_K,
                        &[],
                    ));
                }
            })
        });
        group.bench_function(format!("{}_pruned", strategy.label()), |b| {
            b.iter(|| {
                for q in &queries {
                    std::hint::black_box(recommender.recommend(strategy, q, TOP_K));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_query);
criterion_main!(benches);

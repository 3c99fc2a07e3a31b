//! EMD kernel smoke bench with hard gates (exit 1 on regression), CI-sized
//! in `--quick` mode (`cargo bench -p viderec-bench --bench emd_kernel --
//! --quick`), mirroring the scale bench's quick-gate pattern.
//!
//! Two gates pin the PR's perf claims so they cannot silently rot:
//!
//! 1. **Kernel**: the flat-lane SoA sweep ([`viderec_emd::emd_1d_soa_capped`])
//!    must be at least 1.5x the throughput of the pair-slice reference sweep
//!    ([`viderec_emd::emd_1d_presorted_capped`]) on 64-point signatures — the
//!    shape where the branchless merge and lane loads pay for themselves.
//! 2. **Bound ladder**: a traced pass over a small community must show the
//!    ladder actually pruning (`pruned > 0`); a wiring regression that
//!    silently sends every candidate to exact evaluation keeps results
//!    correct, so only a counter gate catches it.
//!
//! Both sweeps are bit-identical by construction (pinned by unit tests in
//! `viderec-emd`), so timing is the only thing measured here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use viderec_core::{PruneStats, QueryVideo, Recommender, RecommenderConfig, Strategy, Tracer};
use viderec_emd::{emd_1d_presorted_capped, emd_1d_soa_capped};
use viderec_eval::community::{Community, CommunityConfig};

/// One presorted signature in both layouts, built from the same draw.
struct Sig {
    pairs: Vec<(f64, f64)>,
    values: Vec<f64>,
    weights: Vec<f64>,
}

fn random_signatures(n_points: usize, count: usize, seed: u64) -> Vec<Sig> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut pairs: Vec<(f64, f64)> = (0..n_points)
                .map(|_| (rng.gen_range(-16.0..16.0), rng.gen_range(0.05..1.0)))
                .collect();
            let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
            for (_, w) in &mut pairs {
                *w /= total;
            }
            pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
            let values = pairs.iter().map(|&(v, _)| v).collect();
            let weights = pairs.iter().map(|&(_, w)| w).collect();
            Sig {
                pairs,
                values,
                weights,
            }
        })
        .collect()
}

/// Best-of-3 wall time for `reps` repetitions of `run`, in seconds, so one
/// scheduler hiccup on a small CI container cannot fail a ratio gate.
fn best_of_3(mut run: impl FnMut() -> f64, reps: usize) -> f64 {
    std::hint::black_box(run()); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += run();
        }
        std::hint::black_box(acc);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Pair-slice vs SoA sweep over every ordered pair of `sigs`; returns
/// `(pair_slice_s, soa_s)`; no `cap` is the uncapped sweep (`f64::INFINITY`).
fn time_kernels(sigs: &[Sig], reps: usize, cap: Option<f64>) -> (f64, f64) {
    let cap = cap.unwrap_or(f64::INFINITY);
    let sweep_pairs = |a: &Sig, b: &Sig| emd_1d_presorted_capped(&a.pairs, &b.pairs, cap);
    let sweep_soa =
        |a: &Sig, b: &Sig| emd_1d_soa_capped(&a.values, &a.weights, &b.values, &b.weights, cap);
    let all = |sweep: &dyn Fn(&Sig, &Sig) -> f64| {
        let mut acc = 0.0;
        for a in sigs {
            for b in sigs {
                let d = sweep(a, b);
                if d.is_finite() {
                    acc += d;
                }
            }
        }
        acc
    };
    let pair_s = best_of_3(|| all(&sweep_pairs), reps);
    let soa_s = best_of_3(|| all(&sweep_soa), reps);
    (pair_s, soa_s)
}

/// Traced pass over a community: prune counters for the default sequential
/// path.
fn tier_counters(hours: f64, queries: usize) -> (PruneStats, usize) {
    let community = Community::generate(CommunityConfig {
        hours,
        ..Default::default()
    });
    let rec = Recommender::build(RecommenderConfig::default(), community.source_corpus())
        .expect("community corpus is valid");
    let mut stats = PruneStats::default();
    for id in community.query_videos().into_iter().take(queries) {
        let q = QueryVideo {
            series: rec.series_of(id).expect("indexed").clone(),
            users: rec.users_of(id).expect("indexed").to_vec(),
        };
        for strategy in [Strategy::CsfSarH, Strategy::Csf] {
            let (_, trace) = rec.recommend_traced(strategy, &q, 20, &[], Tracer::ON);
            stats.absorb(trace.stats);
        }
    }
    (stats, rec.num_videos())
}

fn main() {
    // `cargo bench` appends its own flags (e.g. `--bench`); only `--quick`
    // is ours, everything else is ignored.
    let quick = std::env::args().any(|a| a == "--quick");
    // Quick mode shrinks the kernel pool and reps but keeps the full-size
    // community: the ladder only prunes once the top-k floor is high, and
    // a toy corpus never fills the heap with good-enough scores to give the
    // ceilings anything to cut.
    let (pool, reps, hours, queries) = if quick {
        (48, 40, 10.0, 8)
    } else {
        (96, 120, 10.0, 8)
    };

    println!(
        "== emd-kernel smoke ({} mode) ==",
        if quick { "quick" } else { "full" }
    );
    let mut failures = Vec::new();

    // Gate 1: SoA kernel throughput on 64-point signatures, plus the
    // informational small sizes and the capped variant.
    for n_points in [8usize, 16, 64] {
        let sigs = random_signatures(n_points, pool, 0x5EED_0000 + n_points as u64);
        let (pair_s, soa_s) = time_kernels(&sigs, reps, None);
        let (pair_cap_s, soa_cap_s) = time_kernels(&sigs, reps, Some(2.0));
        let sweeps = (pool * pool * reps) as f64;
        let ratio = pair_s / soa_s;
        println!(
            "{n_points:>3}-point: pair-slice {:>7.1} ns/sweep | soa {:>7.1} ns/sweep | \
             soa speedup {ratio:>5.2}x | capped {:>5.2}x",
            pair_s * 1e9 / sweeps,
            soa_s * 1e9 / sweeps,
            pair_cap_s / soa_cap_s,
        );
        if n_points == 64 && ratio < 1.5 {
            failures.push(format!(
                "SoA sweep only {ratio:.2}x the pair-slice reference on 64-point \
                 signatures (gate: >= 1.5x)"
            ));
        }
    }

    // Gate 2: the bound ladder prunes on a real scan.
    let (stats, corpus) = tier_counters(hours, queries);
    println!(
        "ladder counters over {corpus}-video corpus: scanned {} | pruned {} | exact {} \
         (cap-aborted {} / full {})",
        stats.scanned, stats.pruned, stats.exact_evals, stats.cap_aborted, stats.full_sweeps,
    );
    assert_eq!(
        stats.pruned + stats.exact_evals,
        stats.scanned,
        "prune counters must partition the scanned set"
    );
    if stats.pruned == 0 {
        failures.push(
            "the bound ladder pruned nothing (gate: pruned > 0) — its rungs are \
             miswired or vacuous"
                .into(),
        );
    }

    if failures.is_empty() {
        println!("emd-kernel smoke: all gates passed");
    } else {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}

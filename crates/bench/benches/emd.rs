//! EMD microbenchmarks: the 1-D closed form, the κJ matcher and the CDF
//! embedding.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viderec_emd::{emd_1d, extended_jaccard, CdfEmbedder, MatchingConfig};

fn random_sig(rng: &mut StdRng, n: usize) -> Vec<(f64, f64)> {
    let mut ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    let t: f64 = ws.iter().sum();
    ws.iter_mut().for_each(|w| *w /= t);
    ws.into_iter()
        .map(|w| (rng.gen_range(-50.0..50.0), w))
        .collect()
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("emd_solvers");
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[4usize, 8, 16] {
        let a = random_sig(&mut rng, n);
        let b = random_sig(&mut rng, n);
        group.bench_with_input(BenchmarkId::new("one_dimensional", n), &n, |bench, _| {
            bench.iter(|| emd_1d(&a, &b))
        });
    }
    group.finish();
}

fn bench_kappa_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("kappa_j");
    let mut rng = StdRng::seed_from_u64(2);
    let n = 30usize;
    let sims: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    group.bench_function("greedy_matching", |bench| {
        bench.iter(|| extended_jaccard(n, n, |i, j| sims[i][j], MatchingConfig::default()))
    });
    group.finish();
}

fn bench_embedding(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let sig = random_sig(&mut rng, 12);
    let embedder = CdfEmbedder::for_intensity_deltas(32);
    c.bench_function("cdf_embed_32d", |bench| bench.iter(|| embedder.embed(&sig)));
}

fn bench_kappa_pruning(c: &mut Criterion) {
    // The centroid-LB filter ablation: exact κJ vs the pruned hot path on
    // real signature series from the synthetic pipeline.
    use viderec_signature::{kappa_j_series, kappa_j_series_pruned, SignatureBuilder};
    use viderec_video::{SynthConfig, VideoId, VideoSynthesizer};
    let mut synth = VideoSynthesizer::new(SynthConfig::default(), 5, 77);
    let b = SignatureBuilder::default();
    let s1 = b.build(&synth.generate(VideoId(1), 1, 25.0));
    let s2 = b.build(&synth.generate(VideoId(2), 4, 25.0));
    let cfg = MatchingConfig::default();
    let mut group = c.benchmark_group("kappa_pruning");
    group.bench_function("exact", |bench| {
        bench.iter(|| kappa_j_series(&s1, &s2, cfg))
    });
    group.bench_function("centroid_pruned", |bench| {
        bench.iter(|| kappa_j_series_pruned(&s1, &s2, cfg))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solvers,
    bench_kappa_variants,
    bench_embedding,
    bench_kappa_pruning
);
criterion_main!(benches);

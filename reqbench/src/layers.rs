//! The traced pass (`--trace 1`): per-layer metrics, layer = crate.
//!
//! Four kinds of number come out of it, the first three taken from the
//! benchmark's side of each crate's public functions:
//!
//! * **spans** around the calls a request or an update batch makes
//!   (`serve.http_roundtrip`, `core.recommend`, `wal.append_batch`,
//!   `core.apply_*`, `serve.snapshot_clone`, …), replayed on one thread
//!   against an idle server — self time is a span minus its children;
//! * **unit costs** of the leaf operations (`emd_1d_soa_capped`, an LSB
//!   probe, a posting union, a chained-hash lookup, `sJ`, SAR) timed on
//!   inputs sampled from the workload's own corpus, multiplied by the
//!   **counts** the public API already returns (`PruneStats`, `QueryTrace`,
//!   `UpdateSummary`, `/metrics`);
//! * the server's own counters, scraped over HTTP;
//! * the end-to-end numbers that carry no bound (`query_capacity_rps`,
//!   `query_p95_ms`, the write path): a closed loop and an open-loop step on
//!   the idle server, and the live write phase of `write` with its restarts,
//!   on every workload.

use crate::endtoend::Step;
use crate::inputs::{self, Request, UpdateBatch};
use crate::live::{boot, healthz_epoch, query, scrape, serve_cfg, Scratch, QUERY_TIMEOUT};
use crate::loadgen::{closed_loop, open_loop, Schedule};
use crate::spans::{self, Recorder};
use crate::spec::{Workload, CONNECTIONS, TRACED_MIX};
use crate::steal::{median_quiet, StealSampler};
use crate::write::{expected_after, verify_and_restart, write_phase, write_phase_beside_reader};
use crate::Outcome;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use viderec_core::{
    CorpusVideo, QueryTrace, Recommender, RecommenderConfig, RetrievalMode, Stage, Strategy,
    Tracer, UpdateEvent,
};
use viderec_emd::{emd_1d_soa_capped, CdfEmbedder};
use viderec_index::{ChainedHashTable, InvertedIndex, LsbForest};
use viderec_serve::client::get;
use viderec_serve::durability::{encode_event, recover};
use viderec_serve::wire::parse_update_body;
use viderec_serve::{start, DurabilityConfig, FsyncPolicy, Metrics, SnapshotCell};
use viderec_signature::{CuboidSignature, SignatureBuilder};
use viderec_social::{
    extract_subcommunities, sar_similarity_sparse, SocialDescriptor, SocialUpdatesMaintenance,
    UserId, UserInterestGraph, UserRegistry,
};
use viderec_video::{detect_cuts, SynthConfig, VideoId, VideoSynthesizer};

/// Runs `op` over `inputs` again and again until 20 ms have passed and
/// returns nanoseconds per call.
fn unit_cost_ns<T>(inputs: &[T], mut op: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut calls = 0u64;
    while started.elapsed().as_millis() < 20 {
        for input in inputs {
            op(input);
        }
        calls += inputs.len() as u64;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// The social and index structures `Recommender::build` assembles, rebuilt
/// from the same public constructors so their operations can be timed one by
/// one (the recommender keeps its own private).
struct Shadow {
    registry: UserRegistry,
    descriptors: Vec<SocialDescriptor>,
    vectors: Vec<Vec<(u32, u32)>>,
    maintenance: SocialUpdatesMaintenance,
    chained: ChainedHashTable<usize>,
    inverted: InvertedIndex,
    lsb: LsbForest<u32>,
    embedder: CdfEmbedder,
    index_of: HashMap<VideoId, usize>,
    extract_ms: f64,
}

fn vectorize(assignment: &[usize], descriptor: &SocialDescriptor) -> Vec<(u32, u32)> {
    let mut slots: Vec<u32> = descriptor
        .iter()
        .filter_map(|user| assignment.get(user.index()).map(|&c| c as u32))
        .collect();
    slots.sort_unstable();
    let mut sparse: Vec<(u32, u32)> = Vec::new();
    for slot in slots {
        match sparse.last_mut() {
            Some((s, count)) if *s == slot => *count += 1,
            _ => sparse.push((slot, 1)),
        }
    }
    sparse
}

impl Shadow {
    fn build(cfg: &RecommenderConfig, corpus: &[CorpusVideo]) -> Self {
        let mut registry = UserRegistry::new();
        let descriptors: Vec<SocialDescriptor> = corpus
            .iter()
            .map(|v| v.users.iter().map(|name| registry.intern(name)).collect())
            .collect();
        let mut graph = UserInterestGraph::new(registry.len().max(1));
        for desc in &descriptors {
            let ids: Vec<UserId> = desc.iter().collect();
            graph.add_video(&ids);
        }
        let started = Instant::now();
        black_box(extract_subcommunities(&graph, cfg.k_subcommunities));
        let extract_ms = started.elapsed().as_secs_f64() * 1e3;
        let maintenance = SocialUpdatesMaintenance::new(graph, cfg.k_subcommunities);

        let mut chained = ChainedHashTable::new(cfg.hash_buckets);
        for (id, name) in registry.iter() {
            if let Some(&c) = maintenance.assignment_raw().get(id.index()) {
                chained.insert(name, c);
            }
        }
        let mut inverted = InvertedIndex::new(maintenance.num_slots());
        let embedder = CdfEmbedder::for_intensity_deltas(cfg.embed_dims);
        let mut lsb = LsbForest::new(cfg.lsb, cfg.embed_dims);
        let mut vectors = Vec::with_capacity(corpus.len());
        let mut index_of = HashMap::with_capacity(corpus.len());
        for (idx, (video, desc)) in corpus.iter().zip(&descriptors).enumerate() {
            let vector = vectorize(maintenance.assignment_raw(), desc);
            for &(slot, _) in &vector {
                inverted.add_posting(slot as usize, video.id);
            }
            for sig in video.series.signatures() {
                lsb.insert(&embedder.embed(&sig.as_pairs()), idx as u32);
            }
            vectors.push(vector);
            index_of.insert(video.id, idx);
        }
        Self {
            registry,
            descriptors,
            vectors,
            maintenance,
            chained,
            inverted,
            lsb,
            embedder,
            index_of,
            extract_ms,
        }
    }
}

/// A signature as the two ascending lanes the SoA kernel sweeps.
fn lanes(sig: &CuboidSignature) -> (Vec<f64>, Vec<f64>) {
    let mut pairs = sig.as_pairs();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs.into_iter().unzip()
}

/// Unit costs of the leaf operations, on inputs sampled from the corpus.
struct UnitCosts {
    sweep_ns: f64,
    inverted_us: f64,
    postings_per_query: f64,
    lsb_probe_us: f64,
    chained_ns: f64,
    jaccard_ns: f64,
    sar_ns: f64,
}

fn unit_costs(
    cfg: &RecommenderConfig,
    corpus: &[CorpusVideo],
    shadow: &Shadow,
    rotation: &[u64],
    seed: u64,
) -> UnitCosts {
    let mut rng = inputs::Rng::new(seed, 0x1A7E);
    let queries: Vec<usize> = rotation
        .iter()
        .map(|id| shadow.index_of[&VideoId(*id)])
        .collect();
    // Every query video paired with 16 seeded corpus videos.
    let partners: Vec<(usize, usize)> = queries
        .iter()
        .flat_map(|&q| (0..16).map(move |_| q))
        .map(|q| (q, rng.below(corpus.len() as u64) as usize))
        .collect();

    // `κJ` matches a pair when SimC = 1/(1+EMD) reaches the threshold, so
    // the sweep is capped at the EMD that corresponds to it.
    let cap = 1.0 / cfg.matching.min_similarity - 1.0;
    let sweeps: Vec<_> = partners
        .iter()
        .filter_map(|&(q, v)| {
            let a = corpus[q].series.signatures().first()?;
            let b = corpus[v].series.signatures().last()?;
            Some((lanes(a), lanes(b)))
        })
        .collect();
    let sweep_ns = unit_cost_ns(&sweeps, |((av, aw), (bv, bw))| {
        black_box(emd_1d_soa_capped(av, aw, bv, bw, cap));
    });

    let gated = cfg.retrieval != RetrievalMode::Paper;
    let mut postings = 0usize;
    let mut gathers = 0usize;
    let inverted_ns = unit_cost_ns(&queries, |&q| {
        let found = if gated {
            shadow.inverted.posting_union(&shadow.vectors[q])
        } else {
            shadow
                .inverted
                .candidates_topn(&shadow.vectors[q], cfg.candidate_limit)
        };
        postings += found.len();
        gathers += 1;
        black_box(found);
    });

    let points: Vec<Vec<f64>> = queries
        .iter()
        .flat_map(|&q| corpus[q].series.signatures())
        .map(|sig| shadow.embedder.embed(&sig.as_pairs()))
        .collect();
    let lsb_ns = unit_cost_ns(&points, |p| {
        black_box(shadow.lsb.query_monotone(p, cfg.candidate_limit));
    });

    let names: Vec<&String> = queries.iter().flat_map(|&q| &corpus[q].users).collect();
    let chained_ns = unit_cost_ns(&names, |name| {
        black_box(shadow.chained.get(name));
    });
    let jaccard_ns = unit_cost_ns(&partners, |&(q, v)| {
        black_box(shadow.descriptors[q].jaccard(&shadow.descriptors[v]));
    });
    let sar_ns = unit_cost_ns(&partners, |&(q, v)| {
        black_box(sar_similarity_sparse(
            &shadow.vectors[q],
            &shadow.vectors[v],
        ));
    });

    UnitCosts {
        sweep_ns,
        inverted_us: inverted_ns / 1e3,
        postings_per_query: postings as f64 / gathers.max(1) as f64,
        lsb_probe_us: lsb_ns / 1e3,
        chained_ns,
        jaccard_ns,
        sar_ns,
    }
}

/// Fig. 5 maintenance alone: the traced comment batches as UIG connections
/// (commenter ↔ each engaged user of the video), applied to the shadow's
/// sub-community state. Microseconds per comment.
fn maintain_us_per_comment(shadow: &mut Shadow, batches: &[UpdateBatch]) -> f64 {
    let mut comments = 0u64;
    let mut spent_ns = 0u128;
    for batch in batches {
        for event in parse_update_body(&batch.body).expect("generated body parses") {
            let UpdateEvent::Comments(updates) = event else {
                continue;
            };
            let mut connections = Vec::new();
            for update in &updates {
                let Some(&idx) = shadow.index_of.get(&update.video) else {
                    continue;
                };
                let user = shadow.registry.intern(&update.user);
                connections.extend(shadow.descriptors[idx].iter().map(|other| (user, other, 1)));
            }
            comments += updates.len() as u64;
            let started = Instant::now();
            black_box(shadow.maintenance.apply_connections(&connections));
            spent_ns += started.elapsed().as_nanos();
        }
    }
    spent_ns as f64 / comments.max(1) as f64 / 1e3
}

/// Shot detection and signature extraction on four synthesized videos.
fn pixel_pipeline_us(seed: u64) -> (f64, f64) {
    let mut synth = VideoSynthesizer::new(SynthConfig::default(), 5, seed);
    let videos: Vec<_> = (0..4u64)
        .map(|i| synth.generate(VideoId(i), i as usize % 5, 20.0))
        .collect();
    let builder = SignatureBuilder::default();
    let shots = unit_cost_ns(&videos, |v| {
        black_box(detect_cuts(v));
    });
    let signatures = unit_cost_ns(&videos, |v| {
        black_box(builder.build(v));
    });
    (shots / 1e3, signatures / 1e3)
}

/// Counts summed over the traced queries.
#[derive(Default)]
struct QueryCounts {
    queries: u64,
    stage_ns: [u64; 6],
    scanned: u64,
    corpus: u64,
    pruned: u64,
    pruned_embed: u64,
    exact_evals: u64,
    cap_aborted: u64,
    full_sweeps: u64,
    /// Leaf work the unit costs account for, in nanoseconds.
    attributed_ns: f64,
}

const CORE_STAGES: [(Stage, &str); 6] = [
    (Stage::Prepare, "core.stage.prepare_us"),
    (Stage::Gather, "core.stage.gather_us"),
    (Stage::Social, "core.stage.social_us"),
    (Stage::Bound, "core.stage.bound_us"),
    (Stage::Emd, "core.stage.emd_us"),
    (Stage::TopK, "core.stage.topk_us"),
];

impl QueryCounts {
    fn absorb(
        &mut self,
        trace: &QueryTrace,
        request: &Request,
        video: &CorpusVideo,
        unit: &UnitCosts,
    ) {
        self.queries += 1;
        for (slot, (stage, _)) in self.stage_ns.iter_mut().zip(CORE_STAGES) {
            *slot += trace.stage(stage).ns;
        }
        let s = &trace.stats;
        self.scanned += s.scanned;
        self.corpus += trace.corpus;
        self.pruned += s.pruned;
        self.pruned_embed += s.pruned_embed;
        self.exact_evals += s.exact_evals;
        self.cap_aborted += s.cap_aborted;
        self.full_sweeps += s.full_sweeps;

        let social = request.strategy.uses_social();
        let indexed =
            trace.gate != 0 || matches!(request.strategy, Strategy::Cr | Strategy::CsfSarH);
        let mut ns = (s.cap_aborted + s.full_sweeps) as f64 * unit.sweep_ns;
        if indexed {
            if request.strategy.uses_content() {
                ns += video.series.len() as f64 * unit.lsb_probe_us * 1e3;
            }
            if social {
                ns += unit.inverted_us * 1e3 + video.users.len() as f64 * unit.chained_ns;
            }
        }
        if social {
            let per_candidate = match request.strategy {
                Strategy::CsfSar | Strategy::CsfSarH => unit.sar_ns,
                _ => unit.jaccard_ns,
            };
            ns += s.scanned as f64 * per_candidate;
        }
        self.attributed_ns += ns;
    }
}

/// Replays the traced queries on one thread against the idle server and the
/// replica: per request a `request` span with `serve.http_roundtrip`,
/// `core.query_for` and `core.recommend` children. Returns the wall time.
fn query_pass(
    recorder: &mut Recorder,
    addr: std::net::SocketAddr,
    replica: &Recommender,
    requests: &[Request],
    k: usize,
    mut each: impl FnMut(&Request, &QueryTrace),
) -> (f64, u64) {
    let started = Instant::now();
    let mut failed = 0u64;
    for (i, request) in requests.iter().enumerate() {
        let id = VideoId(request.video);
        recorder.enter("request", i as u64);
        recorder.enter("serve.http_roundtrip", i as u64);
        let served = get(addr, &request.target, QUERY_TIMEOUT);
        recorder.exit();
        recorder.enter("core.query_for", i as u64);
        let click = replica.query_for(id).expect("rotation video");
        recorder.exit();
        recorder.enter("core.recommend", i as u64);
        let (top, trace) = replica.recommend_traced(request.strategy, &click, k, &[id], Tracer::ON);
        recorder.exit();
        recorder.exit();
        // Same query, same snapshot: the served answer is the direct one.
        let direct: Vec<(u64, u64)> = top.iter().map(|s| (s.video.0, s.score.to_bits())).collect();
        let same = served
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| crate::oracle::parse_results(&r.body))
            == Some(direct);
        failed += u64::from(!same);
        each(request, &trace);
    }
    (started.elapsed().as_secs_f64(), failed)
}

pub fn run(w: &Workload, seed: u64, seconds: f64, trace_out: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut scratch = Scratch::new(w.name);
    let sampler = StealSampler::start();
    let run_started = Instant::now();

    let (corpus, pool) = inputs::materialize(w);
    let rec_cfg = w.rec_cfg(corpus.len());
    let rotation = inputs::rotation(w, &corpus);
    let requests = inputs::requests(w, &rotation, seed);
    let traced: Vec<Request> = requests.iter().take(w.traced_queries).cloned().collect();
    let batches = inputs::updates(&TRACED_MIX, &corpus, &pool, seed, 1, w.traced_batches);

    // --- build, whole and in parts ---
    let started = Instant::now();
    let replica = Recommender::build(rec_cfg.clone(), corpus.clone()).expect("valid corpus");
    out.metric("core.build_s", started.elapsed().as_secs_f64());
    let mut shadow = Shadow::build(&rec_cfg, &corpus);
    out.metric("social.extract_ms", shadow.extract_ms);
    let unit = unit_costs(&rec_cfg, &corpus, &shadow, &rotation, seed);
    out.metric("emd.sweep_ns", unit.sweep_ns);
    out.metric("index.inverted_topn_us", unit.inverted_us);
    out.metric("index.postings_per_query", unit.postings_per_query);
    out.metric("index.lsb_probe_us", unit.lsb_probe_us);
    out.metric("index.chained_lookup_ns", unit.chained_ns);
    out.metric("social.jaccard_ns", unit.jaccard_ns);
    out.metric("social.sar_sparse_ns", unit.sar_ns);
    out.metric(
        "social.maintain_us_per_comment",
        maintain_us_per_comment(&mut shadow, &batches),
    );
    let (shot_us, signature_us) = pixel_pipeline_us(seed);
    out.metric("video.shot_detect_us_per_video", shot_us);
    out.metric("signature.build_us_per_video", signature_us);

    // --- the read path: spans on, then the same calls with spans off ---
    let handle = start(serve_cfg(true), replica.clone()).expect("server starts");
    let addr = handle.addr();
    let mut counts = QueryCounts::default();
    let mut recorder = Recorder::new(true);
    let mut silent = Recorder::new(false);
    let warm = &traced[..traced.len() / 4];
    query_pass(&mut silent, addr, &replica, warm, w.k, |_, _| {});
    let (traced_s, wrong) = query_pass(
        &mut recorder,
        addr,
        &replica,
        &traced,
        w.k,
        |request, trace| {
            let video = &corpus[shadow.index_of[&VideoId(request.video)]];
            counts.absorb(trace, request, video, &unit);
        },
    );
    let (silent_s, _) = query_pass(&mut silent, addr, &replica, &traced, w.k, |_, _| {});
    out.count(traced.len() as u64, wrong);
    out.metric(
        "trace_overhead_pct",
        100.0 * (traced_s - silent_s) / silent_s,
    );

    out.metric(
        "serve.healthz_us",
        unit_cost_ns(&[(); 200], |_| {
            black_box(healthz_epoch(addr));
        }) / 1e3,
    );

    // --- an open-loop step at the first frozen rate: queue wait as the
    // server counts it, and how late the generator ran ---
    let oracle_free = |seq: usize| query(addr, &requests[seq % requests.len()], |_| true);
    let page = |addr| get(addr, "/metrics", QUERY_TIMEOUT).map_or(String::new(), |r| r.body);
    let queue = |p: &str, part: &str| {
        scrape(
            p,
            &format!("serve_query_stage_micros_{part}{{stage=\"queue\"}}"),
        )
    };
    let before = page(addr);
    let rate = w.first_rate_rps();
    let step = open_loop(
        CONNECTIONS,
        Schedule::at_rate(rate, seconds * 0.2),
        &|| false,
        &oracle_free,
    );
    let after = page(addr);
    out.metric(
        "serve.queue_wait_us",
        (queue(&after, "sum") - queue(&before, "sum"))
            / (queue(&after, "count") - queue(&before, "count")).max(1.0),
    );
    out.metric(
        "serve.rejected",
        scrape(&after, "serve_requests_rejected_total"),
    );
    out.metric(
        "serve.deadline_expired",
        scrape(&after, "serve_requests_deadline_expired_total"),
    );

    // --- capacity and tracer tax: the same closed loop against the server
    // with its own tracer on (the default: `query_capacity_rps`) and off ---
    let rps = |addr| {
        let send = |seq: usize| query(addr, &requests[seq % requests.len()], |_| true);
        let phase = closed_loop(CONNECTIONS, seconds * 0.15, &send);
        phase.samples.iter().filter(|s| s.ok).count() as f64 / phase.wall_s
    };
    let traced_rps = rps(addr);
    out.metric("query_capacity_rps", traced_rps);
    handle.shutdown();
    let untraced = start(serve_cfg(false), replica.clone()).expect("server starts");
    let untraced_rps = rps(untraced.addr());
    untraced.shutdown();
    out.metric(
        "serve.tracer_tax_pct",
        100.0 * (untraced_rps - traced_rps) / untraced_rps,
    );

    // --- the live write phase: the same server the measured run boots on
    // `update_churn`, the same closed-loop writer (beside the reader there),
    // then the bit-identity check and the timed restarts ---
    let live_dir = scratch.fresh_dir();
    let (live, _) = boot(&live_dir, rec_cfg.clone(), corpus.clone());
    let live_batches = inputs::updates(&w.write, &corpus, &pool, seed, 0, w.write_batches(seconds));
    let (written, read) = match w.churn_reader_rps {
        Some(reader_rps) => {
            let (written, read) =
                write_phase_beside_reader(&live, &live_batches, &requests, w.k, reader_rps);
            (written, Some((read, reader_rps)))
        }
        None => (write_phase(&live, &live_batches), None),
    };
    out.count(live_batches.len() as u64, written.failed);
    let expected = expected_after(w, replica, &rotation, &live_batches);
    let restarts = verify_and_restart(
        &mut out,
        live,
        &live_dir,
        &rec_cfg,
        &expected,
        written.max_lsn,
    );

    // --- the write path, as the maintenance thread walks it: parse → WAL
    // append (+fsync) → apply → clone → publish, one span each ---
    let dir = scratch.fresh_dir();
    let mut dur = DurabilityConfig::new(&dir);
    dur.fsync = FsyncPolicy::Batch;
    let (mut master, mut log, _) =
        recover(&dur, rec_cfg.clone(), corpus).expect("fresh data dir bootstraps");
    let cell = SnapshotCell::new(Arc::new(master.clone()));
    let wal_metrics = Metrics::default();
    let (mut events_n, mut wal_bytes, mut rewritten, mut last_lsn) = (0u64, 0u64, 0u64, 0u64);
    for (i, batch) in batches.iter().enumerate() {
        let rid = (traced.len() + i) as u64;
        recorder.enter("update", rid);
        recorder.enter("serve.parse_update", rid);
        let events = parse_update_body(&batch.body).expect("generated body parses");
        recorder.exit();
        wal_bytes += events
            .iter()
            .map(|e| encode_event(e).len() as u64)
            .sum::<u64>();
        events_n += events.len() as u64;
        recorder.enter("wal.append_batch", rid);
        last_lsn = log.append_batch(&events, &wal_metrics).expect("WAL append");
        recorder.exit();
        for event in events {
            recorder.enter(
                match event {
                    UpdateEvent::Comments(_) => "core.apply_comments",
                    UpdateEvent::Ingest(_) => "core.apply_ingest",
                    UpdateEvent::Age(_) => "core.apply_age",
                },
                rid,
            );
            let summary = master.apply_event(event);
            recorder.exit();
            rewritten += summary.map_or(0, |s| s.videos_rewritten as u64);
        }
        log.mark_acked(last_lsn);
        recorder.enter("serve.snapshot_clone", rid);
        let next = Arc::new(master.clone());
        recorder.exit();
        recorder.enter("serve.snapshot_publish", rid);
        cell.publish(next);
        recorder.exit();
        recorder.exit();
    }
    log.finalize(last_lsn, &wal_metrics);
    drop((log, master, cell));
    let started = Instant::now();
    let (mut recovered, _, report) = recover(&dur, rec_cfg, Vec::new()).expect("data dir recovers");
    out.metric("wal.recover_ms", started.elapsed().as_secs_f64() * 1e3);
    out.count(1, u64::from(report.recovered_lsn != last_lsn));
    // One ingest and one aging, applied where no log has to replay them.
    let rid = (traced.len() + batches.len()) as u64;
    let apart = [
        ("core.apply_ingest", UpdateEvent::Ingest(pool[..1].to_vec())),
        ("core.apply_age", UpdateEvent::Age(1)),
    ];
    for (name, event) in apart {
        recorder.enter("update", rid);
        recorder.enter(name, rid);
        let summary = recovered.apply_event(event);
        recorder.exit();
        recorder.exit();
        rewritten += summary.map_or(0, |s| s.videos_rewritten as u64);
        events_n += 1;
    }
    drop(recovered);

    // --- what the host took, and the phases it disturbed ---
    let steal = sampler.finish();
    out.metric(
        "host.steal_pct",
        100.0 * steal.stolen_share(run_started, Instant::now()),
    );
    let sent = step.samples.len() as u64;
    let step = Step::of(&step, rate, CONNECTIONS, &steal);
    out.count(sent, step.failed);
    out.note(step.note);
    out.metric("query_p95_ms", step.p95_ms);
    out.metric("loadgen.late_p95_ms", step.late_p95_ms);
    out.metric("loadgen.backlog_max", step.backlog_max as f64);
    if let Some((read, reader_rps)) = read {
        out.note(format!(
            "reader beside the writer, {}",
            Step::of(&read, reader_rps, 1, &steal).note
        ));
    }
    let report = written.report(&steal);
    out.note(report.note);
    out.metric("update_ack_p50_ms", report.ack_p50_ms);
    out.metric("update_ack_p95_ms", report.ack_p95_ms);
    out.metric("update_visible_p50_ms", report.visible_p50_ms);
    out.metric("update_events_per_s", report.events_per_s);
    let (recover_s, recover_note) = median_quiet("recover_s", &restarts, &steal);
    out.note(recover_note);
    out.metric("recover_s", recover_s);

    // --- spans → metrics ---
    let all = recorder.spans();
    let own = spans::self_times(all);
    let span = |name: &str| spans::total(all, &own, name);
    let n = counts.queries.max(1) as f64;
    let recommend_us = span("core.recommend").mean_us();
    out.metric(
        "serve.http_roundtrip_us",
        span("serve.http_roundtrip").mean_us(),
    );
    out.metric(
        "serve.overhead_us",
        span("serve.http_roundtrip").mean_us() - recommend_us,
    );
    out.metric("core.recommend_us", recommend_us);
    // The leaf work attributed to a query may not exceed the query.
    let self_us = recommend_us - counts.attributed_ns / n / 1e3;
    out.count(1, u64::from(self_us < 0.0));
    out.metric("core.self_us", self_us);
    for (ns, (_, name)) in counts.stage_ns.iter().zip(CORE_STAGES) {
        out.metric(name, *ns as f64 / n / 1e3);
    }
    out.metric("core.scanned_per_query", counts.scanned as f64 / n);
    out.metric(
        "core.scanned_ratio",
        counts.scanned as f64 / counts.corpus.max(1) as f64,
    );
    out.metric(
        "core.prune_rate",
        counts.pruned as f64 / counts.scanned.max(1) as f64,
    );
    out.metric(
        "core.anchor_pruned_per_query",
        (counts.pruned - counts.pruned_embed) as f64 / n,
    );
    out.metric(
        "core.embed_pruned_per_query",
        counts.pruned_embed as f64 / n,
    );
    out.metric("core.exact_evals_per_query", counts.exact_evals as f64 / n);
    let sweeps = counts.cap_aborted + counts.full_sweeps;
    out.metric("emd.sweeps_per_query", sweeps as f64 / n);
    out.metric(
        "emd.cap_abort_share",
        counts.cap_aborted as f64 / sweeps.max(1) as f64,
    );
    out.metric(
        "serve.parse_update_us",
        span("serve.parse_update").mean_us(),
    );
    out.metric(
        "serve.snapshot_clone_ms",
        span("serve.snapshot_clone").mean_us() / 1e3,
    );
    out.metric(
        "serve.snapshot_publish_us",
        span("serve.snapshot_publish").mean_us(),
    );
    out.metric(
        "core.apply_comments_us",
        span("core.apply_comments").mean_us(),
    );
    out.metric("core.apply_ingest_us", span("core.apply_ingest").mean_us());
    out.metric("core.apply_age_ms", span("core.apply_age").mean_us() / 1e3);
    out.metric(
        "core.videos_rewritten_per_event",
        rewritten as f64 / events_n.max(1) as f64,
    );
    out.metric(
        "wal.append_us_per_batch",
        span("wal.append_batch").mean_us(),
    );
    out.metric(
        "wal.fsync_us",
        wal_metrics.wal_fsync_micros.mean_micros() as f64,
    );
    out.metric(
        "wal.fsyncs_per_ack",
        wal_metrics.wal_fsync_micros.count() as f64 / batches.len().max(1) as f64,
    );
    out.metric(
        "wal.bytes_per_event",
        wal_bytes as f64 / events_n.max(1) as f64,
    );
    out.note(format!(
        "traced pass: {} queries, {} update batches, {} spans; dark time (request self) {:.1} us/query, \
         update self {:.1} us/batch",
        traced.len(),
        batches.len(),
        all.len(),
        span("request").self_ns as f64 / n / 1e3,
        span("update").self_ns as f64 / batches.len().max(1) as f64 / 1e3,
    ));

    if let Some(parent) = trace_out.parent() {
        // viderec-lint: allow(durable-writes) — benchmark artifact directory.
        let _ = std::fs::create_dir_all(parent);
    }
    // viderec-lint: allow(durable-writes) — the span dump is a benchmark
    // artifact, not serving state; losing it means re-running the pass.
    match std::fs::write(trace_out, spans::dump_json(all, &own)) {
        Ok(()) => out.note(format!("span dump: {}", trace_out.display())),
        Err(e) => out.note(format!("span dump not written ({e})")),
    }
    out
}

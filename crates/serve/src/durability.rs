//! Durability glue between the serving layer and [`viderec_wal`].
//!
//! The WAL stores opaque payloads; this module fixes what they mean for the
//! recommender:
//!
//! * **Record payload** — one [`UpdateEvent`] in the [`crate::wire`] text
//!   format (bit-exact `f64` hex), one record per event, so replay preserves
//!   the exact event boundaries the live maintainer applied (batch
//!   boundaries change Fig. 5 maintenance outcomes).
//! * **Snapshot corpus section** — the boot corpus as `ingest` lines, in
//!   boot order.
//! * **Snapshot event section** — the framed WAL records `1..=covered_lsn`,
//!   byte-copied from the log at checkpoint time, never re-serialized from
//!   live state.
//!
//! Recovery therefore re-runs the deterministic pipeline the live server
//! ran — `Recommender::build(cfg, corpus)` then `apply_event` in LSN order —
//! which is what makes the recovered state *bit-identical* to an
//! uninterrupted run over the same acknowledged events (the kill-and-restart
//! e2e asserts this across every strategy). The price is replay time linear
//! in the covered history; the benefit is that no hand-written
//! serializer of path-dependent UIG/MSF state can ever drift from the live
//! structs. DESIGN.md §13 documents the trade and the full protocol.

use crate::metrics::Metrics;
use crate::wire;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use viderec_core::{CorpusVideo, Recommender, RecommenderConfig, UpdateEvent};
use viderec_wal::{
    iter_records, DurabilityGate, FsyncPolicy, Snapshot, SnapshotStore, Wal, WalError, WalOptions,
};

/// Durability knobs for a served recommender.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and snapshots.
    pub data_dir: PathBuf,
    /// When appended records reach stable storage (DESIGN.md §13 matrix).
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Write a fresh snapshot once this many events accumulated beyond the
    /// last one (a checkpoint also always runs on graceful shutdown).
    pub snapshot_every_events: u64,
}

impl DurabilityConfig {
    /// Defaults over `data_dir`: per-batch fsync, 8 MiB segments, snapshot
    /// every 512 events.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Batch,
            segment_bytes: 8 << 20,
            snapshot_every_events: 512,
        }
    }
}

/// Appends one event's WAL record payload to `out` (wire lines, `\n`
/// between them; one event may span several lines — e.g. a comments batch
/// — but one record is one event).
fn encode_event_into(event: &UpdateEvent, out: &mut String) {
    match event {
        UpdateEvent::Comments(batch) => {
            for (i, u) in batch.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                wire::encode_comment_into(u.video, &u.user, out);
            }
        }
        UpdateEvent::Ingest(videos) => {
            for (i, video) in videos.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                wire::encode_ingest_into(video, out);
            }
        }
        UpdateEvent::Age(amount) => wire::encode_age_into(*amount, out),
    }
}

/// Encodes one event as a WAL record payload (see [`encode_event_into`]).
pub fn encode_event(event: &UpdateEvent) -> String {
    let mut out = String::new();
    encode_event_into(event, &mut out);
    out
}

/// Decodes a WAL record payload back into the single event it framed.
///
/// `parse_update_body` re-collapses consecutive comment lines; consecutive
/// ingest lines parse as one event per line, so a multi-video ingest event
/// is re-merged here to preserve the original event boundary.
pub fn decode_event(payload: &[u8]) -> Result<UpdateEvent, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let mut events = wire::parse_update_body(text)?;
    match events.len() {
        0 => Err("payload encodes no event".to_string()),
        1 => Ok(events.remove(0)),
        _ => {
            let mut videos = Vec::new();
            for event in events {
                match event {
                    UpdateEvent::Ingest(mut v) => videos.append(&mut v),
                    other => {
                        return Err(format!(
                            "payload mixes event kinds ({} after ingest lines)",
                            wire::event_kind_label(&other)
                        ))
                    }
                }
            }
            Ok(UpdateEvent::Ingest(videos))
        }
    }
}

/// First line of a snapshot's corpus section.
const CORPUS_HEADER: &str = "# viderec boot corpus\n";

/// An upper bound on the corpus section's bytes: the header, and each
/// video's `ingest` line with its newline.
fn corpus_bound(corpus: &[CorpusVideo]) -> usize {
    let lines: usize = corpus.iter().map(|v| wire::ingest_line_bound(v) + 1).sum();
    CORPUS_HEADER.len() + lines
}

/// Encodes the boot corpus as the snapshot's corpus section, into one
/// buffer sized before the first line is written.
fn encode_corpus(corpus: &[CorpusVideo]) -> Vec<u8> {
    let bound = corpus_bound(corpus);
    let mut out = String::with_capacity(bound);
    out.push_str(CORPUS_HEADER);
    for video in corpus {
        wire::encode_ingest_into(video, &mut out);
        out.push('\n');
    }
    debug_assert!(out.len() <= bound, "ingest_line_bound is not a bound");
    out.into_bytes()
}

/// Parses a snapshot's corpus section back into boot order.
fn decode_corpus(bytes: &[u8]) -> Result<Vec<CorpusVideo>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "corpus section is not UTF-8".to_string())?;
    let events = wire::parse_update_body(text)?;
    let mut corpus = Vec::with_capacity(events.len());
    for event in events {
        match event {
            UpdateEvent::Ingest(mut videos) => corpus.append(&mut videos),
            other => {
                return Err(format!(
                    "corpus section holds a non-ingest event ({})",
                    wire::event_kind_label(&other)
                ))
            }
        }
    }
    Ok(corpus)
}

/// What recovery found and did, surfaced on `/debug/durability` and by the
/// durable entry points.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// True when the data dir was empty and this boot seeded it.
    pub bootstrapped: bool,
    /// LSN covered by the snapshot recovery started from.
    pub snapshot_lsn: u64,
    /// Events replayed out of the snapshot's event section.
    pub snapshot_events: u64,
    /// Events replayed from the log tail beyond the snapshot.
    pub tail_events: u64,
    /// Highest LSN reflected in the recovered recommender.
    pub recovered_lsn: u64,
    /// Torn-tail bytes truncated from the final segment.
    pub truncated_bytes: u64,
    /// Description of the torn tail, if one was found.
    pub torn: Option<String>,
    /// Set when the newest snapshot was unreadable and an older one was used.
    pub snapshot_fallback: Option<String>,
}

/// Scrape-visible durability state, shared between the maintenance writer
/// (sole mutator) and the workers answering `/metrics` and
/// `/debug/durability`. All counters are monitoring-only except the gate,
/// whose Release/Acquire ordering carries the crash-safety invariant.
#[derive(Debug)]
pub struct DurabilityStatus {
    /// The append-before-apply gate (also the source of the lag gauge).
    pub gate: DurabilityGate,
    /// Highest LSN known fsynced to stable storage.
    pub synced_lsn: AtomicU64,
    /// LSN covered by the newest published snapshot.
    pub snapshot_lsn: AtomicU64,
    /// Live WAL segment files.
    pub segment_count: AtomicU64,
    /// 1 once a WAL write failed and durable acks stopped.
    pub failed: AtomicU64,
    /// Fsync policy label (static after boot).
    pub fsync_label: String,
    /// What recovery found at boot (static after boot).
    pub recovery: RecoveryReport,
}

impl DurabilityStatus {
    /// The `/debug/durability` JSON body.
    pub fn debug_json(&self) -> String {
        let r = &self.recovery;
        format!(
            "{{\"enabled\":true,\"fsync\":\"{}\",\"appended_lsn\":{},\"acked_lsn\":{},\
             \"synced_lsn\":{},\"snapshot_lsn\":{},\"segments\":{},\"failed\":{},\
             \"recovery\":{{\"bootstrapped\":{},\"snapshot_lsn\":{},\"snapshot_events\":{},\
             \"tail_events\":{},\"recovered_lsn\":{},\"truncated_bytes\":{},\"torn\":{}}}}}",
            crate::http::escape_json(&self.fsync_label),
            self.gate.appended(),
            self.gate.acked(),
            self.synced_lsn.load(Ordering::Relaxed),
            self.snapshot_lsn.load(Ordering::Relaxed),
            self.segment_count.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            r.bootstrapped,
            r.snapshot_lsn,
            r.snapshot_events,
            r.tail_events,
            r.recovered_lsn,
            r.truncated_bytes,
            match &r.torn {
                Some(t) => format!("\"{}\"", crate::http::escape_json(t)),
                None => "null".to_string(),
            },
        )
    }
}

/// The maintenance thread's durable log: WAL + snapshot store + the shared
/// status block. Single-writer — only the maintainer touches the mutable
/// parts.
pub struct DurableLog {
    wal: Wal,
    store: SnapshotStore,
    cfg: DurabilityConfig,
    status: Arc<DurabilityStatus>,
    snapshot_lsn: u64,
    /// The record payload being encoded, reused from event to event.
    payload: String,
}

impl DurableLog {
    /// The shared scrape-side view.
    pub fn status(&self) -> Arc<DurabilityStatus> {
        Arc::clone(&self.status)
    }

    /// Appends and commits one batch of events (append-before-apply: the
    /// caller must not apply or acknowledge them until this returns). Returns
    /// the batch's last LSN.
    pub fn append_batch(
        &mut self,
        events: &[UpdateEvent],
        metrics: &Metrics,
    ) -> Result<u64, WalError> {
        let mut last = self.wal.last_lsn();
        for event in events {
            self.payload.clear();
            encode_event_into(event, &mut self.payload);
            let start = Instant::now();
            last = self.wal.append(self.payload.as_bytes())?;
            metrics
                .wal_append_micros
                .record(start.elapsed().as_micros() as u64);
            metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
            metrics
                .wal_bytes
                .fetch_add(self.payload.len() as u64, Ordering::Relaxed);
        }
        let start = Instant::now();
        if self.wal.commit()? {
            metrics
                .wal_fsync_micros
                .record(start.elapsed().as_micros() as u64);
            metrics.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        // Publish `appended` only after the batch is framed (and fsynced per
        // policy): the ordering `crates/check` model-checks.
        self.status.gate.record_appended(last);
        Ok(last)
    }

    /// Declares every event up to `lsn` applied and acknowledged.
    pub fn mark_acked(&self, lsn: u64) {
        self.status.gate.record_acked(lsn);
    }

    /// Writes a checkpoint if `acked_lsn` ran far enough ahead of the last
    /// snapshot (or unconditionally with `force`). Protocol order: fsync the
    /// WAL tail, byte-copy the new records onto the previous snapshot's
    /// event stream, publish atomically, only then retire covered segments.
    pub fn maybe_checkpoint(
        &mut self,
        acked_lsn: u64,
        force: bool,
        metrics: &Metrics,
    ) -> Result<bool, WalError> {
        if acked_lsn <= self.snapshot_lsn {
            return Ok(false);
        }
        if !force && acked_lsn - self.snapshot_lsn < self.cfg.snapshot_every_events {
            return Ok(false);
        }
        let start = Instant::now();
        // The WAL tail must be durable before a snapshot claims to cover it.
        self.wal.sync()?;
        let Some((prev, _)) = self.store.load_latest()? else {
            return Err(WalError::Corrupt(
                "checkpoint found no previous snapshot (bootstrap writes one)".to_string(),
            ));
        };
        let mut events = prev.events;
        self.wal
            .copy_records(prev.covered_lsn, acked_lsn, &mut events)?;
        self.store.write(&Snapshot {
            covered_lsn: acked_lsn,
            corpus: prev.corpus,
            events,
        })?;
        let retired = self.wal.retire_through(acked_lsn)?;
        self.snapshot_lsn = acked_lsn;
        metrics
            .wal_checkpoint_micros
            .record(start.elapsed().as_micros() as u64);
        metrics.wal_checkpoints.fetch_add(1, Ordering::Relaxed);
        metrics
            .wal_segments_retired
            .fetch_add(retired as u64, Ordering::Relaxed);
        Ok(true)
    }

    /// Graceful-shutdown ordering: flush + fsync the WAL tail *first*, then
    /// publish the final checkpoint. Errors are recorded, not propagated —
    /// shutdown must complete.
    pub fn finalize(&mut self, acked_lsn: u64, metrics: &Metrics) {
        if self.wal.sync().is_err() {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.publish_status();
        if self.maybe_checkpoint(acked_lsn, true, metrics).is_err() {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.publish_status();
    }

    /// Pushes the writer-side gauges into the shared status block.
    pub fn publish_status(&self) {
        self.status
            .synced_lsn
            .store(self.wal.synced_lsn(), Ordering::Relaxed);
        self.status
            .snapshot_lsn
            .store(self.snapshot_lsn, Ordering::Relaxed);
        self.status
            .segment_count
            .store(self.wal.segment_count() as u64, Ordering::Relaxed);
    }

    /// Marks the log failed (WAL write error): durable acks stop, serving
    /// continues non-durably.
    pub fn mark_failed(&self) {
        self.status.failed.store(1, Ordering::Relaxed);
    }
}

/// Recovers (or bootstraps) a recommender from `cfg.data_dir`.
///
/// * Fresh directory — builds from `boot_corpus`, publishes the LSN-0
///   snapshot seed, opens an empty log.
/// * Existing directory — **ignores** `boot_corpus`, rebuilds from the
///   newest valid snapshot's corpus section, replays its event section, then
///   replays the log tail beyond the snapshot (truncating a torn final
///   record). `rec_cfg` must match the original boot — it is not persisted.
pub fn recover(
    cfg: &DurabilityConfig,
    rec_cfg: RecommenderConfig,
    boot_corpus: Vec<CorpusVideo>,
) -> Result<(Recommender, DurableLog, RecoveryReport), String> {
    let store = SnapshotStore::open(&cfg.data_dir).map_err(|e| e.to_string())?;
    let options = WalOptions {
        segment_bytes: cfg.segment_bytes,
        fsync: cfg.fsync,
    };
    let mut report = RecoveryReport::default();

    let (mut master, covered) = match store.load_latest().map_err(|e| e.to_string())? {
        None => {
            // Encode while the corpus is borrowed, then move it into the
            // build: no copy of it is ever made. The seed snapshot is
            // published only once the build accepted the corpus.
            let corpus = encode_corpus(&boot_corpus);
            let master = Recommender::build(rec_cfg, boot_corpus)
                .map_err(|e| format!("boot corpus rejected: {e:?}"))?;
            store
                .write(&Snapshot {
                    covered_lsn: 0,
                    corpus,
                    events: Vec::new(),
                })
                .map_err(|e| e.to_string())?;
            report.bootstrapped = true;
            (master, 0)
        }
        Some((snap, fallback)) => {
            report.snapshot_fallback = fallback;
            report.snapshot_lsn = snap.covered_lsn;
            let corpus = decode_corpus(&snap.corpus)?;
            let mut master = Recommender::build(rec_cfg, corpus)
                .map_err(|e| format!("snapshot corpus rejected: {e:?}"))?;
            let records = iter_records(&snap.events).map_err(|e| e.to_string())?;
            for record in &records {
                let event = decode_event(&record.payload)
                    .map_err(|e| format!("snapshot lsn {}: {e}", record.lsn))?;
                // Failures (e.g. duplicate ingest) are deterministic and were
                // also failures live; replay must take the identical path.
                let _ = master.apply_event(event);
            }
            report.snapshot_events = records.len() as u64;
            (master, snap.covered_lsn)
        }
    };

    let recovery = Wal::open(&cfg.data_dir, options, covered).map_err(|e| e.to_string())?;
    report.truncated_bytes = recovery.truncated_bytes;
    report.torn = recovery.torn;
    let mut expect = covered + 1;
    for record in &recovery.records {
        if record.lsn <= covered {
            continue; // still on disk, already reflected in the snapshot
        }
        if record.lsn != expect {
            return Err(format!(
                "log tail gap: expected lsn {expect}, found {}",
                record.lsn
            ));
        }
        let event =
            decode_event(&record.payload).map_err(|e| format!("log lsn {}: {e}", record.lsn))?;
        let _ = master.apply_event(event);
        report.tail_events += 1;
        expect += 1;
    }

    let mut wal = recovery.wal;
    // Everything replayed is exactly as durable as it was before the
    // restart; re-fsync so `synced_lsn` is truthful going forward.
    wal.sync().map_err(|e| e.to_string())?;
    report.recovered_lsn = wal.last_lsn();

    let status = Arc::new(DurabilityStatus {
        gate: DurabilityGate::new(wal.last_lsn()),
        synced_lsn: AtomicU64::new(wal.synced_lsn()),
        snapshot_lsn: AtomicU64::new(covered),
        segment_count: AtomicU64::new(wal.segment_count() as u64),
        failed: AtomicU64::new(0),
        fsync_label: cfg.fsync.label(),
        recovery: report.clone(),
    });
    let log = DurableLog {
        wal,
        store,
        cfg: cfg.clone(),
        status,
        snapshot_lsn: covered,
        payload: String::new(),
    };
    Ok((master, log, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use viderec_core::SocialUpdate;
    use viderec_signature::{Cuboid, CuboidSignature, SignatureSeries};
    use viderec_video::VideoId;

    fn series() -> SignatureSeries {
        SignatureSeries::new(vec![CuboidSignature::new(vec![
            Cuboid {
                value: 0.25,
                weight: 0.5,
            },
            Cuboid {
                value: -0.0,
                weight: 0.5,
            },
        ])])
    }

    #[test]
    fn event_payloads_roundtrip() {
        let events = [
            UpdateEvent::Comments(vec![
                SocialUpdate {
                    video: VideoId(3),
                    user: "ann lee".into(),
                },
                SocialUpdate {
                    video: VideoId(4),
                    user: "bob".into(),
                },
            ]),
            UpdateEvent::Ingest(vec![
                CorpusVideo {
                    id: VideoId(10),
                    series: series(),
                    users: vec!["carol".into()],
                },
                CorpusVideo {
                    id: VideoId(11),
                    series: SignatureSeries::default(),
                    users: Vec::new(),
                },
            ]),
            UpdateEvent::Age(7),
        ];
        for event in &events {
            let decoded = decode_event(encode_event(event).as_bytes()).unwrap();
            assert_eq!(format!("{decoded:?}"), format!("{event:?}"));
        }
    }

    #[test]
    fn corpus_section_roundtrips_in_order() {
        let corpus = vec![
            CorpusVideo {
                id: VideoId(2),
                series: series(),
                users: vec!["x".into(), "y".into()],
            },
            CorpusVideo {
                id: VideoId(1),
                series: SignatureSeries::default(),
                users: Vec::new(),
            },
        ];
        let decoded = decode_corpus(&encode_corpus(&corpus)).unwrap();
        assert_eq!(format!("{decoded:?}"), format!("{corpus:?}"));
    }

    #[test]
    fn corpus_section_bound_holds_and_sizes_the_buffer_once() {
        let videos = [
            CorpusVideo {
                id: VideoId(u64::MAX),
                series: series(),
                users: vec!["a".into(), "bc".into()],
            },
            CorpusVideo {
                id: VideoId(0),
                series: SignatureSeries::default(),
                users: Vec::new(),
            },
        ];
        for video in &videos {
            let line = wire::encode_ingest(video);
            assert!(line.len() <= wire::ingest_line_bound(video), "{line}");
        }
        let bytes = encode_corpus(&videos);
        assert!(bytes.len() <= corpus_bound(&videos));
        assert_eq!(bytes.capacity(), corpus_bound(&videos));
    }

    #[test]
    fn a_rejected_boot_corpus_publishes_no_snapshot() {
        let dir = std::env::temp_dir().join(format!("viderec-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let video = CorpusVideo {
            id: VideoId(4),
            series: series(),
            users: vec!["x".into()],
        };
        let cfg = DurabilityConfig::new(&dir);
        let rec_cfg = RecommenderConfig {
            k_subcommunities: 1,
            ..Default::default()
        };
        let twice = vec![video.clone(), video.clone()];
        let err = recover(&cfg, rec_cfg.clone(), twice).err().unwrap();
        assert!(err.contains("boot corpus rejected"), "{err}");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        // The directory is still fresh: a valid corpus bootstraps it.
        let (_, _, report) = recover(&cfg, rec_cfg, vec![video]).unwrap();
        assert!(report.bootstrapped);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_event_rejects_junk() {
        assert!(decode_event(b"").is_err());
        assert!(decode_event(b"# only a comment\n").is_err());
        assert!(decode_event(&[0xFF, 0xFE]).is_err());
        // One record never mixes kinds.
        assert!(decode_event(b"age 1\nage 2").is_err());
        let mixed = format!(
            "{}\n{}",
            wire::encode_ingest(&CorpusVideo {
                id: VideoId(1),
                series: SignatureSeries::default(),
                users: Vec::new(),
            }),
            wire::encode_age(1)
        );
        assert!(decode_event(mixed.as_bytes()).is_err());
    }
}

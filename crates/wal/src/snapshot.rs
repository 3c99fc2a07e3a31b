//! LSN-stamped snapshot store with atomic publication.
//!
//! A snapshot file is `snap-<covered_lsn:020>.snap`:
//!
//! ```text
//! magic "VRECSNP1" (8) | covered_lsn u64 | corpus_len u64 | events_len u64
//! | crc u32 over (corpus ‖ events) | corpus bytes | events bytes
//! ```
//!
//! The corpus section is the serving layer's boot corpus in its text wire
//! format; the events section is a *WAL record stream* — the exact framed
//! bytes of records 1..=covered_lsn, so a checkpoint extends the previous
//! snapshot by literal byte-copy of the log tail and recovery replays the
//! same event boundaries the live server applied (batch boundaries change
//! maintenance outcomes, so they must be preserved bit-for-bit).
//!
//! Publication is crash-atomic: write to `.tmp`, fsync the file, `rename`
//! into place, fsync the directory. Only then may the covered segments be
//! retired. Readers therefore never observe a partial snapshot; a snapshot
//! that fails its CRC can only mean media corruption, and
//! [`SnapshotStore::load_latest`] falls back to the previous retained one.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::crc::Crc32;
use crate::log::WalError;

const MAGIC: &[u8; 8] = b"VRECSNP1";
const HEADER_LEN: usize = 8 + 8 + 8 + 8 + 4;
const PREFIX: &str = "snap-";
const SUFFIX: &str = ".snap";
/// How many published snapshots to retain (the newest plus one fallback).
const RETAIN: usize = 2;

/// A decoded snapshot: the boot corpus plus the framed event records
/// 1..=covered_lsn, both as opaque bytes the serving layer interprets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Every record with `lsn <= covered_lsn` is reflected in this snapshot.
    pub covered_lsn: u64,
    /// Boot corpus section (text wire format).
    pub corpus: Vec<u8>,
    /// Event section: a WAL record stream (see [`crate::log::iter_records`]).
    pub events: Vec<u8>,
}

/// Directory-backed snapshot store.
pub struct SnapshotStore {
    dir: PathBuf,
}

fn snap_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("{PREFIX}{lsn:020}{SUFFIX}"))
}

fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The next `len` bytes of `f`, in a buffer of exactly that size.
fn read_section(f: &mut File, len: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    f.read_exact(&mut buf)?;
    Ok(buf)
}

impl SnapshotStore {
    /// A store over `dir` (created if missing).
    pub fn open(dir: &Path) -> Result<Self, WalError> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// Encodes and crash-atomically publishes `snapshot`, then prunes all
    /// but the newest [`RETAIN`] snapshots. Returns the published path. The
    /// header goes out first and the two sections after it straight from
    /// `snapshot`'s buffers: nothing is concatenated.
    pub fn write(&self, snapshot: &Snapshot) -> Result<PathBuf, WalError> {
        let mut crc = Crc32::new();
        crc.update(&snapshot.corpus);
        crc.update(&snapshot.events);
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(MAGIC);
        header[8..16].copy_from_slice(&snapshot.covered_lsn.to_le_bytes());
        header[16..24].copy_from_slice(&(snapshot.corpus.len() as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(snapshot.events.len() as u64).to_le_bytes());
        header[32..36].copy_from_slice(&crc.finish().to_le_bytes());

        let final_path = snap_path(&self.dir, snapshot.covered_lsn);
        let tmp_path = final_path.with_extension("tmp");
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(&header)?;
        f.write_all(&snapshot.corpus)?;
        f.write_all(&snapshot.events)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp_path, &final_path)?;
        fsync_dir(&self.dir)?;
        self.prune()?;
        Ok(final_path)
    }

    /// LSNs of every published snapshot, ascending.
    fn published(&self) -> Result<Vec<u64>, WalError> {
        let mut lsns = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(digits) = name
                .strip_prefix(PREFIX)
                .and_then(|r| r.strip_suffix(SUFFIX))
            {
                if let Ok(lsn) = digits.parse::<u64>() {
                    lsns.push(lsn);
                }
            }
        }
        lsns.sort_unstable();
        Ok(lsns)
    }

    /// Deletes everything but the newest [`RETAIN`] snapshots, plus any
    /// stale `.tmp` leftovers from a crashed publication.
    fn prune(&self) -> Result<(), WalError> {
        let lsns = self.published()?;
        if lsns.len() > RETAIN {
            for &lsn in &lsns[..lsns.len() - RETAIN] {
                fs::remove_file(snap_path(&self.dir, lsn))?;
            }
        }
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp")
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(PREFIX))
            {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Reads and verifies one snapshot. The header is checked against the
    /// file's size before anything else is read, then each section is read
    /// straight into the buffer the returned [`Snapshot`] owns: every byte
    /// is read once and neither section is copied.
    fn load_at(&self, lsn: u64) -> Result<Snapshot, WalError> {
        let path = snap_path(&self.dir, lsn);
        let mut f = File::open(&path)?;
        let file_len = f.metadata()?.len();
        let fail = |msg: &str| WalError::Corrupt(format!("snapshot {}: {msg}", path.display()));
        if file_len < HEADER_LEN as u64 {
            return Err(fail("shorter than its header"));
        }
        let mut header = [0u8; HEADER_LEN];
        f.read_exact(&mut header)?;
        if &header[0..8] != MAGIC {
            return Err(fail("bad magic"));
        }
        let field = |at: usize| {
            let mut le = [0u8; 8];
            le.copy_from_slice(&header[at..at + 8]);
            u64::from_le_bytes(le)
        };
        let (covered_lsn, corpus_len, events_len) = (field(8), field(16), field(24));
        let want_crc = u32::from_le_bytes([header[32], header[33], header[34], header[35]]);
        if covered_lsn != lsn {
            return Err(fail("stamped lsn disagrees with the file name"));
        }
        let Some(total) = corpus_len
            .checked_add(events_len)
            .and_then(|n| n.checked_add(HEADER_LEN as u64))
        else {
            return Err(fail("section lengths overflow"));
        };
        if file_len != total {
            return Err(fail("section lengths disagree with the file size"));
        }
        let corpus = read_section(&mut f, corpus_len as usize)?;
        let events = read_section(&mut f, events_len as usize)?;
        let mut crc = Crc32::new();
        crc.update(&corpus);
        crc.update(&events);
        if crc.finish() != want_crc {
            return Err(fail("crc mismatch"));
        }
        Ok(Snapshot {
            covered_lsn,
            corpus,
            events,
        })
    }

    /// Loads the newest valid snapshot. Returns `Ok(None)` for a fresh
    /// directory; if the newest snapshot is unreadable (media corruption —
    /// publication is atomic) it falls back to an older retained one and
    /// reports why in the second slot. Errors only if every snapshot on disk
    /// is invalid.
    #[allow(clippy::type_complexity)]
    pub fn load_latest(&self) -> Result<Option<(Snapshot, Option<String>)>, WalError> {
        let lsns = self.published()?;
        if lsns.is_empty() {
            return Ok(None);
        }
        let mut note: Option<String> = None;
        let mut last_err: Option<WalError> = None;
        for &lsn in lsns.iter().rev() {
            match self.load_at(lsn) {
                Ok(snapshot) => return Ok(Some((snapshot, note))),
                Err(e) => {
                    if note.is_none() {
                        note = Some(format!("fell back past snapshot {lsn}: {e}"));
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| WalError::Corrupt("no loadable snapshot".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "viderec-snap-{}-{name}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(lsn: u64) -> Snapshot {
        Snapshot {
            covered_lsn: lsn,
            corpus: format!("ingest {lsn} - -\n").into_bytes(),
            events: vec![lsn as u8; lsn as usize],
        }
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = scratch("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        store.write(&sample(7)).unwrap();
        let (snap, note) = store.load_latest().unwrap().unwrap();
        assert_eq!(snap, sample(7));
        assert!(note.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_wins_and_pruning_retains_two() {
        let dir = scratch("prune");
        let store = SnapshotStore::open(&dir).unwrap();
        for lsn in [3, 9, 21, 40] {
            store.write(&sample(lsn)).unwrap();
        }
        let (snap, _) = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.covered_lsn, 40);
        assert_eq!(store.published().unwrap(), vec![21, 40]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_with_a_note() {
        let dir = scratch("fallback");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(&sample(5)).unwrap();
        store.write(&sample(11)).unwrap();
        let newest = snap_path(&dir, 11);
        let mut bytes = fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let (snap, note) = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.covered_lsn, 5);
        assert!(note.unwrap().contains("crc mismatch"));

        // Corrupt the fallback too: now loading must fail.
        let older = snap_path(&dir, 5);
        let mut bytes = fs::read(&older).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&older, &bytes).unwrap();
        assert!(store.load_latest().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_ignored_and_cleaned() {
        let dir = scratch("tmp");
        let store = SnapshotStore::open(&dir).unwrap();
        fs::write(dir.join("snap-00000000000000000099.tmp"), b"half written").unwrap();
        assert!(store.load_latest().unwrap().is_none());
        store.write(&sample(3)).unwrap();
        assert!(!dir.join("snap-00000000000000000099.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_detected() {
        let dir = scratch("trunc");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(&sample(4)).unwrap();
        let path = snap_path(&dir, 4);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert!(store.load_latest().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}

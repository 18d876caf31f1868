//! Logical durability: one checksummed operation log plus a snapshot.
//!
//! The EM structures of this workspace keep their nodes as plain Rust values
//! in simulated `BlockFile`s and are rebuilt in RAM on every open, so no
//! index page ever needs to reach the disk. Durability is therefore
//! *logical*: a [`DurableStore`] records the validated operation stream
//! (insert/delete, each with the version stamp its commit received) and
//! recovery replays it into an empty index. The format is independent of
//! the block size `B` (DESIGN.md §10).
//!
//! A data directory is flat and holds three files (all integers are
//! little-endian `u64` words; `crc` is FNV-1a-64 over the words before it):
//!
//! ```text
//! log.topk       frames, one per durable commit, each fdatasync'ed:
//!                [FRAME_TAG, n, (op, x, score, stamp) × n, crc]
//! snapshot.topk  the live set at one stamp:
//!                [SNAPSHOT_TAG, stamp, n, (x, score) × n, crc]
//! lock.topk      empty; held under an exclusive advisory lock
//! ```
//!
//! One checksum covers a whole frame, so a commit — a 64-op `UpdateBatch`
//! included — survives whole or not at all. Compaction writes the live set
//! to `snapshot.tmp`, fsyncs it, renames it over `snapshot.topk`, fsyncs the
//! directory, and only then resets the log. Recovery loads the snapshot,
//! replays the log records whose stamps exceed the snapshot's (a crash
//! between the rename and the log reset leaves frames the snapshot already
//! holds), truncates the log at its first torn or corrupt frame, and removes
//! a stale `snapshot.tmp`.
//!
//! Locking: all store state sits behind the `wal` mutex (DESIGN.md §8, class
//! `wal`), held for a whole commit so frames reach the log in commit order.
//! Rule B forbids device I/O under it except the log writer itself — the one
//! pragma-sanctioned append-and-sync in [`DurableStore::commit`]; the
//! snapshot rotation and the scripted torn write live in [`LogState`]
//! helpers. Writers are serialized by the serving topology anyway (the
//! builder rejects durable sharding).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use epst::Point;

use crate::error::{Result, TopKError};

/// Log record op code: the point was inserted.
pub(crate) const OP_INSERT: u64 = 1;
/// Log record op code: the point was deleted.
pub(crate) const OP_DELETE: u64 = 2;

const FRAME_TAG: u64 = 0x746f_706b_6672_616d;
const SNAPSHOT_TAG: u64 = 0x746f_706b_736e_6170;
const LOG: &str = "log.topk";
const SNAPSHOT: &str = "snapshot.topk";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const LOCK: &str = "lock.topk";

/// Where in the commit protocol an armed [`FaultPlan`] kills the store.
///
/// A compacting commit writes `snapshot.tmp` instead of a log frame; each
/// phase names the same point of that protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPhase {
    /// Write the first half of the commit's frame (or of `snapshot.tmp`),
    /// skip the fsync, and die: recovery loses exactly the doomed commit.
    BeforeFsync,
    /// Die once the commit is durable — its frame synced, or its snapshot
    /// renamed into place: recovery keeps the doomed commit.
    AfterFsync,
    /// Die after the commit's fsync; on a compacting commit, after the
    /// snapshot rename and before the log reset, so recovery must skip the
    /// log frames the snapshot already holds.
    MidCompaction,
}

/// A scripted crash: kill the store at `phase` of its commit numbered
/// `commit` (0-based, counting the store's durable commits since open). A
/// killed store stays dead — every later commit fails the same way — which
/// models a crashed process without exiting: the crash-recovery testkit
/// reopens the directory and checks what survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Ordinal of the doomed commit.
    pub commit: u64,
    /// Which phase of it dies.
    pub phase: KillPhase,
}

impl FaultPlan {
    /// Kill the `n`-th commit (0-based) at `phase`.
    pub fn kill_at_commit(n: u64, phase: KillPhase) -> Self {
        Self { commit: n, phase }
    }
}

/// Counters of a durable index's store, since it was opened (all zero for
/// an in-RAM index).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Durable commits: log frames appended plus snapshots rotated in.
    pub commits: u64,
    /// Snapshots rotated in by compaction.
    pub snapshots: u64,
    /// Bytes appended to the log.
    pub log_bytes_written: u64,
    /// Bytes of the log read back (at open only).
    pub log_bytes_read: u64,
    /// Bytes of the snapshot read back (at open only).
    pub snapshot_bytes_read: u64,
    /// Log frames replayed at open.
    pub recovered_frames: u64,
}

fn storage(what: impl std::fmt::Display) -> TopKError {
    TopKError::Storage {
        what: what.to_string(),
    }
}

/// FNV-1a-64 over the little-endian bytes of words.
fn fnv<'a>(words: impl IntoIterator<Item = &'a u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Close `words` with its checksum and lay it out as bytes.
fn seal(mut words: Vec<u64>) -> Vec<u8> {
    words.push(fnv(&words));
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Bytes → words, dropping a trailing partial word (a torn tail).
fn to_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .filter_map(|c| c.try_into().ok().map(u64::from_le_bytes))
        .collect()
}

/// One logged operation: `op` applied to `(x, score)` by the commit that
/// received version stamp `stamp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub op: u64,
    pub x: u64,
    pub score: u64,
    pub stamp: u64,
}

fn encode_frame(records: &[Record]) -> Vec<u8> {
    let mut words = Vec::with_capacity(3 + 4 * records.len());
    words.extend([FRAME_TAG, records.len() as u64]);
    for r in records {
        words.extend([r.op, r.x, r.score, r.stamp]);
    }
    seal(words)
}

/// The intact frames at the head of `words`, and how many words they span;
/// everything after is a torn or corrupt tail.
fn decode_frames(words: &[u64]) -> (Vec<Vec<Record>>, usize) {
    let mut frames = Vec::new();
    let mut rest = words;
    while let [FRAME_TAG, n, tail @ ..] = rest {
        let Some(len) = usize::try_from(*n).ok().and_then(|n| n.checked_mul(4)) else {
            break;
        };
        let Some((body, [crc, after @ ..])) = tail.split_at_checked(len) else {
            break;
        };
        if *crc != fnv([FRAME_TAG, *n].iter().chain(body)) {
            break;
        }
        let (records, _) = body.as_chunks::<4>();
        frames.push(
            records
                .iter()
                .map(|&[op, x, score, stamp]| Record {
                    op,
                    x,
                    score,
                    stamp,
                })
                .collect(),
        );
        rest = after;
    }
    (frames, words.len() - rest.len())
}

fn encode_snapshot(points: &[Point], stamp: u64) -> Vec<u8> {
    let mut words = Vec::with_capacity(4 + 2 * points.len());
    words.extend([SNAPSHOT_TAG, stamp, points.len() as u64]);
    for p in points {
        words.extend([p.x, p.score]);
    }
    seal(words)
}

/// A snapshot image's points and stamp; `None` if it fails validation.
fn decode_snapshot(words: &[u64]) -> Option<(Vec<Point>, u64)> {
    let (&crc, body) = words.split_last()?;
    let [SNAPSHOT_TAG, stamp, n, pairs @ ..] = body else {
        return None;
    };
    let (points, []) = pairs.as_chunks::<2>() else {
        return None;
    };
    if crc != fnv(body) || u64::try_from(points.len()).ok() != Some(*n) {
        return None;
    }
    let points = points
        .iter()
        .map(|&[x, score]| Point::new(x, score))
        .collect();
    Some((points, *stamp))
}

/// Write `image` as `snapshot.tmp`, fsync it, rename it over
/// `snapshot.topk`, and fsync the directory so the rename is durable.
fn install_snapshot(dir: &Path, image: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut f = File::create(&tmp)?;
    f.write_all(image)?;
    f.sync_all()?;
    std::fs::rename(&tmp, dir.join(SNAPSHOT))?;
    File::open(dir)?.sync_all()
}

/// The store's state, guarded by the `wal` mutex.
#[derive(Debug)]
struct LogState {
    dir: PathBuf,
    /// Held (via `File::try_lock`) for the store's lifetime: one directory,
    /// one live store. Released when the state drops.
    _lock: File,
    log: File,
    /// Append offset into the log.
    log_len: u64,
    /// Points in the snapshot plus records in the log: the journal size
    /// compaction bounds.
    records: u64,
    /// Appended records awaiting the next commit's frame.
    pending: Vec<Record>,
    /// A compaction staged for the next commit: the live set and its stamp.
    staged: Option<(Vec<Point>, u64)>,
    stats: DurableStats,
    fault: Option<FaultPlan>,
    /// Once set, every commit fails with this message (a crashed process).
    dead: Option<String>,
}

impl LogState {
    /// The phase at which the commit about to run dies, if it is doomed.
    fn doomed(&self) -> Option<KillPhase> {
        self.fault
            .filter(|plan| self.stats.commits >= plan.commit)
            .map(|plan| plan.phase)
    }

    /// Mark the store dead with `what`; later commits repeat it.
    fn die(&mut self, what: String) -> TopKError {
        let e = storage(&what);
        self.dead = Some(what);
        e
    }

    /// The `BeforeFsync` fault on a frame: write its first half unsynced.
    fn tear(&mut self, frame: &[u8]) -> TopKError {
        let (half, _) = frame.split_at(frame.len() / 2);
        let _ = self.log.write_all_at(half, self.log_len);
        self.die("injected fault: killed before the log fsync".into())
    }

    /// Make a staged compaction durable: install the snapshot, then reset
    /// the log it supersedes.
    fn rotate(&mut self, points: &[Point], stamp: u64, doomed: Option<KillPhase>) -> Result<()> {
        let image = encode_snapshot(points, stamp);
        if doomed == Some(KillPhase::BeforeFsync) {
            let (half, _) = image.split_at(image.len() / 2);
            let _ = std::fs::write(self.dir.join(SNAPSHOT_TMP), half);
            return Err(self.die("injected fault: killed before the snapshot fsync".into()));
        }
        if let Err(e) = install_snapshot(&self.dir, &image) {
            return Err(self.die(format!("snapshot write failed: {e}")));
        }
        self.stats.snapshots += 1;
        if doomed.is_some() {
            return Err(self.die(
                "injected fault: killed after the snapshot rename, before the log reset".into(),
            ));
        }
        if let Err(e) = self.log.set_len(0).and_then(|()| self.log.sync_data()) {
            return Err(self.die(format!("log reset failed: {e}")));
        }
        self.log_len = 0;
        Ok(())
    }
}

/// The durable store of a [`TopKIndex`](crate::TopKIndex): appends validated
/// operations, makes them durable once per public operation, replays them at
/// open, and compacts to a snapshot when the log outgrows the live set.
#[derive(Debug)]
pub(crate) struct DurableStore {
    wal: Mutex<LogState>,
}

impl DurableStore {
    /// Open (or create) the store in `dir` and recover it: returns the
    /// store, the recovered live point set, and the recovered version stamp.
    pub(crate) fn open(dir: &Path) -> Result<(Self, Vec<Point>, u64)> {
        std::fs::create_dir_all(dir)
            .map_err(|e| storage(format!("create {}: {e}", dir.display())))?;
        let open_rw = |name: &str| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(dir.join(name))
                .map_err(|e| storage(format!("open {name}: {e}")))
        };
        // One directory, one live store: two stores replaying, truncating
        // and appending to the same log would corrupt committed state. The
        // lock is per open file description, so it also turns away a second
        // open within this process, and the kernel drops it when the holder
        // dies — a crash never bricks the directory.
        let lock = open_rw(LOCK)?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(storage(format!(
                    "directory {} is already open as a durable index ({LOCK} is held)",
                    dir.display()
                )));
            }
            Err(std::fs::TryLockError::Error(e)) => {
                return Err(storage(format!("lock {LOCK}: {e}")))
            }
        }
        // A crash before the rename leaves a partial snapshot.tmp behind; the
        // snapshot it was meant to replace is still in place.
        match std::fs::remove_file(dir.join(SNAPSHOT_TMP)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(storage(format!("remove {SNAPSHOT_TMP}: {e}")));
            }
            _ => {}
        }
        let mut stats = DurableStats::default();
        let (mut live, snap_stamp): (HashMap<u64, Point>, u64) =
            match std::fs::read(dir.join(SNAPSHOT)) {
                Ok(bytes) => {
                    stats.snapshot_bytes_read = bytes.len() as u64;
                    let (points, stamp) = decode_snapshot(&to_words(&bytes))
                        .ok_or_else(|| storage(format!("{SNAPSHOT} failed validation")))?;
                    (points.into_iter().map(|p| (p.x, p)).collect(), stamp)
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => (HashMap::new(), 0),
                Err(e) => return Err(storage(format!("read {SNAPSHOT}: {e}"))),
            };
        let mut records = live.len() as u64;

        let mut log = open_rw(LOG)?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)
            .map_err(|e| storage(format!("read {LOG}: {e}")))?;
        stats.log_bytes_read = bytes.len() as u64;
        let (frames, intact) = decode_frames(&to_words(&bytes));
        let mut stamp = snap_stamp;
        for frame in &frames {
            records += frame.len() as u64;
            // Records at or below the snapshot's stamp are already in it.
            let fresh: Vec<&Record> = frame.iter().filter(|r| r.stamp > snap_stamp).collect();
            if !fresh.is_empty() {
                stats.recovered_frames += 1;
            }
            for r in fresh {
                stamp = stamp.max(r.stamp);
                match r.op {
                    OP_INSERT => live.insert(r.x, Point::new(r.x, r.score)),
                    OP_DELETE => live.remove(&r.x),
                    other => return Err(storage(format!("{LOG}: unknown op code {other}"))),
                };
            }
        }
        let log_len = (intact * 8) as u64;
        if log_len < bytes.len() as u64 {
            log.set_len(log_len)
                .and_then(|()| log.sync_data())
                .map_err(|e| storage(format!("truncate the torn tail of {LOG}: {e}")))?;
        }
        // New files must survive a crash too: persist their directory entries.
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| storage(format!("sync {}: {e}", dir.display())))?;

        let store = Self {
            wal: Mutex::new(LogState {
                dir: dir.to_path_buf(),
                _lock: lock,
                log,
                log_len,
                records,
                pending: Vec::new(),
                staged: None,
                stats,
                fault: None,
                dead: None,
            }),
        };
        Ok((store, live.into_values().collect(), stamp))
    }

    /// Buffer one operation record for the next [`commit`](Self::commit).
    /// Callers are serialized by the topology's write-side locking. Costs
    /// no I/O.
    pub(crate) fn append(&self, op: u64, p: Point, stamp: u64) {
        self.wal.lock().unwrap().pending.push(Record {
            op,
            x: p.x,
            score: p.score,
            stamp,
        });
    }

    /// Whether the journal (buffered appends included) has outgrown the
    /// live set it describes and should be compacted.
    pub(crate) fn needs_compact(&self, live: u64) -> bool {
        let st = self.wal.lock().unwrap();
        st.records + st.pending.len() as u64 > (4 * live).max(256)
    }

    /// Stage a compaction to the snapshot `points` at `stamp`, made durable
    /// by the next commit. Buffered appends are dropped — their effects are
    /// part of `points`.
    pub(crate) fn compact(&self, points: &[Point], stamp: u64) {
        let mut st = self.wal.lock().unwrap();
        st.pending.clear();
        st.records = points.len() as u64;
        st.staged = Some((points.to_vec(), stamp));
    }

    /// Make everything since the last commit durable: a staged compaction
    /// rotates the snapshot in, buffered records go out as one fsynced
    /// frame. A no-op when nothing is pending.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if the disk fails or an armed fault fires. The
    /// store is dead from then on: every later commit repeats the error.
    pub(crate) fn commit(&self) -> Result<()> {
        let mut st = self.wal.lock().unwrap();
        if let Some(what) = &st.dead {
            return Err(storage(what));
        }
        let staged = st.staged.take();
        if staged.is_none() && st.pending.is_empty() {
            return Ok(());
        }
        let doomed = st.doomed();
        if let Some((points, stamp)) = staged {
            st.rotate(&points, stamp, doomed)?;
        }
        if !st.pending.is_empty() {
            let frame = encode_frame(&st.pending);
            if doomed == Some(KillPhase::BeforeFsync) {
                return Err(st.tear(&frame));
            }
            let (log, off) = (&st.log, st.log_len);
            // audit: allow(lock_order, reason = "the log writer itself: appending and syncing the commit's frame is the one sanctioned device write under the wal mutex (DESIGN.md section 10)")
            let wrote = log.write_all_at(&frame, off).and_then(|()| log.sync_data());
            if let Err(e) = wrote {
                return Err(st.die(format!("log append failed: {e}")));
            }
            st.log_len += frame.len() as u64;
            st.records += st.pending.len() as u64;
            st.stats.log_bytes_written += frame.len() as u64;
            st.pending.clear();
            if doomed.is_some() {
                return Err(st.die("injected fault: killed after the log fsync".into()));
            }
        }
        st.stats.commits += 1;
        Ok(())
    }

    /// The store's counters since open.
    pub(crate) fn stats(&self) -> DurableStats {
        self.wal.lock().unwrap().stats
    }

    /// Arm a scripted crash.
    #[cfg(any(test, feature = "testkit-hooks"))]
    pub(crate) fn arm(&self, plan: FaultPlan) {
        self.wal.lock().unwrap().fault = Some(plan);
    }

    /// Journal size in records, buffered appends included (test support).
    #[cfg(test)]
    pub(crate) fn record_count(&self) -> u64 {
        let st = self.wal.lock().unwrap();
        st.records + st.pending.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("topk-persist-{tag}-{}-{n}", std::process::id()))
    }

    fn sorted(mut points: Vec<Point>) -> Vec<Point> {
        points.sort_by_key(|p| p.x);
        points
    }

    fn log_bytes(dir: &Path) -> u64 {
        std::fs::metadata(dir.join(LOG)).unwrap().len()
    }

    #[test]
    fn log_frames_round_trip() {
        let recs = [
            Record {
                op: OP_INSERT,
                x: 7,
                score: 42,
                stamp: 1,
            },
            Record {
                op: OP_DELETE,
                x: 7,
                score: 42,
                stamp: 2,
            },
        ];
        let mut log = encode_frame(&recs);
        log.extend(encode_frame(&[]));
        log.extend(encode_frame(&recs[..1]));
        let words = to_words(&log);
        let (frames, intact) = decode_frames(&words);
        assert_eq!(frames, vec![recs.to_vec(), vec![], recs[..1].to_vec()]);
        assert_eq!(intact, words.len());
        // Any cut through the last frame loses that frame whole.
        for cut in 1..8 * 7 {
            let (frames, _) = decode_frames(&to_words(&log[..log.len() - cut]));
            assert_eq!(frames.len(), 2, "cut {cut}");
        }
        // A flipped bit fails the checksum; an absurd count cannot decode.
        let mut bad = words.clone();
        bad[3] ^= 1;
        assert_eq!(decode_frames(&bad), (vec![], 0));
        assert_eq!(decode_frames(&[FRAME_TAG, u64::MAX, 0]), (vec![], 0));

        let points = vec![Point::new(1, 10), Point::new(5, 3)];
        let snap = to_words(&encode_snapshot(&points, 99));
        assert_eq!(decode_snapshot(&snap), Some((points, 99)));
        assert_eq!(decode_snapshot(&snap[..snap.len() - 1]), None);
        assert_eq!(decode_snapshot(&[]), None);
        assert_eq!(decode_snapshot(&[SNAPSHOT_TAG, 1, u64::MAX, 0]), None);
    }

    #[test]
    fn journal_replays_its_operation_stream_across_reopen() {
        let dir = scratch_dir("replay");
        {
            let (store, points, stamp) = DurableStore::open(&dir).unwrap();
            assert!(points.is_empty());
            assert_eq!(stamp, 0);
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.append(OP_INSERT, Point::new(2, 20), 2);
            store.commit().unwrap();
            store.append(OP_INSERT, Point::new(3, 30), 3);
            store.append(OP_DELETE, Point::new(2, 20), 4);
            store.commit().unwrap();
            assert_eq!(store.stats().commits, 2);
        }
        let (store, points, stamp) = DurableStore::open(&dir).unwrap();
        assert_eq!(sorted(points), vec![Point::new(1, 10), Point::new(3, 30)]);
        assert_eq!(stamp, 4);
        assert_eq!(store.stats().recovered_frames, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_appends_do_not_survive_reopen() {
        let dir = scratch_dir("uncommitted");
        {
            let (store, _, _) = DurableStore::open(&dir).unwrap();
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.commit().unwrap();
            // Appended but never committed: must vanish.
            store.append(OP_INSERT, Point::new(2, 20), 2);
        }
        let (_store, points, stamp) = DurableStore::open(&dir).unwrap();
        assert_eq!(points, vec![Point::new(1, 10)]);
        assert_eq!(stamp, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unflushed_appends_stay_buffered() {
        let dir = scratch_dir("buffered");
        let (store, _, _) = DurableStore::open(&dir).unwrap();
        store.append(OP_INSERT, Point::new(1, 10), 1);
        store.append(OP_INSERT, Point::new(2, 20), 2);
        assert_eq!(store.record_count(), 2, "pending records are counted");
        assert_eq!(
            store.stats().log_bytes_written,
            0,
            "append alone must not touch the log"
        );
        assert_eq!(log_bytes(&dir), 0);
        store.commit().unwrap();
        // One frame: tag, count, two 4-word records, checksum.
        assert_eq!(store.stats().log_bytes_written, 8 * 11);
        assert_eq!(log_bytes(&dir), 8 * 11);
        assert_eq!(store.record_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_rewrites_the_stream_as_a_snapshot() {
        let dir = scratch_dir("compact");
        let points: Vec<Point> = (0..200u64).map(|i| Point::new(i, i + 1000)).collect();
        {
            let (store, _, _) = DurableStore::open(&dir).unwrap();
            // Churn: insert everything twice via delete+reinsert.
            let mut stamp = 0;
            for p in &points {
                stamp += 1;
                store.append(OP_INSERT, *p, stamp);
            }
            store.commit().unwrap();
            for p in &points {
                stamp += 1;
                store.append(OP_DELETE, *p, stamp);
                stamp += 1;
                store.append(OP_INSERT, *p, stamp);
            }
            store.commit().unwrap();
            assert_eq!(store.record_count(), 600);
            assert!(store.needs_compact(100));
            store.compact(&points, stamp);
            assert_eq!(store.record_count(), points.len() as u64);
            store.commit().unwrap();
            assert_eq!(log_bytes(&dir), 0, "the snapshot supersedes the log");
            assert_eq!(store.stats().snapshots, 1);
        }
        let (store, got, stamp) = DurableStore::open(&dir).unwrap();
        assert_eq!(sorted(got), points);
        assert_eq!(stamp, 600);
        assert!(!store.needs_compact(points.len() as u64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A larger stream through compaction and two reopens: the snapshot
    /// and the log after it must both carry their share.
    #[test]
    fn two_thousand_records_survive_compaction_and_two_reopens() {
        let dir = scratch_dir("two-reopens");
        let points: Vec<Point> = (0..2000u64).map(|i| Point::new(i, i + 10_000)).collect();
        {
            let (store, _, _) = DurableStore::open(&dir).unwrap();
            for (i, p) in points.iter().enumerate() {
                store.append(OP_INSERT, *p, i as u64 + 1);
            }
            store.commit().unwrap();
        }
        {
            let (store, got, stamp) = DurableStore::open(&dir).unwrap();
            assert_eq!(sorted(got), points);
            assert_eq!(stamp, 2000);
            store.compact(&points, 2000);
            store.commit().unwrap();
            store.append(OP_DELETE, points[0], 2001);
            store.commit().unwrap();
        }
        let (store, got, stamp) = DurableStore::open(&dir).unwrap();
        assert_eq!(sorted(got), points[1..].to_vec());
        assert_eq!(stamp, 2001);
        assert_eq!(store.record_count(), points.len() as u64 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_before_fsync_loses_only_the_doomed_frame() {
        let dir = scratch_dir("kill-before");
        {
            let (store, _, _) = DurableStore::open(&dir).unwrap();
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.commit().unwrap();
            store.arm(FaultPlan::kill_at_commit(1, KillPhase::BeforeFsync));
            store.append(OP_INSERT, Point::new(2, 20), 2);
            store.append(OP_INSERT, Point::new(3, 30), 3);
            assert!(matches!(store.commit(), Err(TopKError::Storage { .. })));
            assert!(
                log_bytes(&dir) > 8 * 7,
                "half the doomed frame reached the log"
            );
            // Dead: everything after the kill fails the same way.
            store.append(OP_INSERT, Point::new(4, 40), 4);
            assert!(matches!(store.commit(), Err(TopKError::Storage { .. })));
        }
        let (_store, points, stamp) = DurableStore::open(&dir).unwrap();
        assert_eq!(points, vec![Point::new(1, 10)], "doomed frame resurrected");
        assert_eq!(stamp, 1);
        assert_eq!(log_bytes(&dir), 8 * 7, "the torn frame is truncated away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_after_fsync_replays_the_frame() {
        for phase in [KillPhase::AfterFsync, KillPhase::MidCompaction] {
            let dir = scratch_dir("kill-after");
            {
                let (store, _, _) = DurableStore::open(&dir).unwrap();
                store.arm(FaultPlan::kill_at_commit(0, phase));
                for x in 0..6 {
                    store.append(OP_INSERT, Point::new(x, x + 10), x + 1);
                }
                assert!(matches!(store.commit(), Err(TopKError::Storage { .. })));
            }
            let (store, points, stamp) = DurableStore::open(&dir).unwrap();
            assert_eq!(points.len(), 6, "{phase:?}: committed records lost");
            assert_eq!(stamp, 6);
            assert_eq!(store.stats().recovered_frames, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_log_tail_is_discarded() {
        let dir = scratch_dir("torn");
        {
            let (store, _, _) = DurableStore::open(&dir).unwrap();
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.commit().unwrap();
        }
        // A torn frame plus a stray partial word after the intact one.
        let mut f = OpenOptions::new().append(true).open(dir.join(LOG)).unwrap();
        let frame = encode_frame(&[Record {
            op: OP_INSERT,
            x: 2,
            score: 20,
            stamp: 2,
        }]);
        f.write_all(&frame[..frame.len() - 5]).unwrap();
        drop(f);
        {
            let (store, points, stamp) = DurableStore::open(&dir).unwrap();
            assert_eq!(points, vec![Point::new(1, 10)]);
            assert_eq!(stamp, 1);
            // Appends after recovery land right behind the intact prefix.
            store.append(OP_INSERT, Point::new(3, 30), 2);
            store.commit().unwrap();
        }
        let (_store, points, stamp) = DurableStore::open(&dir).unwrap();
        assert_eq!(sorted(points), vec![Point::new(1, 10), Point::new(3, 30)]);
        assert_eq!(stamp, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_open_of_a_live_directory_is_refused() {
        let dir = scratch_dir("lock");
        let first = DurableStore::open(&dir).unwrap();
        // Held lock: a concurrent store (same process or another — the
        // advisory lock is per open file description) must be turned away.
        match DurableStore::open(&dir) {
            Err(TopKError::Storage { what }) => assert!(what.contains(LOCK), "{what}"),
            other => panic!("second open must fail with Storage, got {other:?}"),
        }
        drop(first);
        // Released on drop: reopening afterwards works.
        drop(DurableStore::open(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash after the snapshot rename and before the log reset leaves
    /// the old frames next to a snapshot that already holds them. Replaying
    /// them on top of it would re-apply the delete of `x`, undoing the
    /// re-insert the snapshot recorded.
    #[test]
    fn frames_the_snapshot_holds_are_skipped_after_a_mid_compaction_kill() {
        let dir = scratch_dir("mid-compaction");
        {
            let (store, _, _) = DurableStore::open(&dir).unwrap();
            store.append(OP_INSERT, Point::new(5, 50), 1);
            store.commit().unwrap();
            store.append(OP_DELETE, Point::new(5, 50), 2);
            store.commit().unwrap();
            store.arm(FaultPlan::kill_at_commit(2, KillPhase::MidCompaction));
            store.append(OP_INSERT, Point::new(5, 51), 3);
            store.compact(&[Point::new(5, 51)], 3);
            assert!(matches!(store.commit(), Err(TopKError::Storage { .. })));
            assert!(log_bytes(&dir) > 0, "the kill landed before the log reset");
        }
        let (_store, points, stamp) = DurableStore::open(&dir).unwrap();
        assert_eq!(points, vec![Point::new(5, 51)]);
        assert_eq!(stamp, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_snapshot_tmp_is_removed_on_open() {
        let dir = scratch_dir("stale-tmp");
        {
            let (store, _, _) = DurableStore::open(&dir).unwrap();
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.commit().unwrap();
            store.arm(FaultPlan::kill_at_commit(1, KillPhase::BeforeFsync));
            store.compact(&[Point::new(1, 10), Point::new(2, 20)], 2);
            assert!(store.commit().is_err());
            assert!(
                dir.join(SNAPSHOT_TMP).exists(),
                "the kill tore snapshot.tmp"
            );
        }
        let (_store, points, stamp) = DurableStore::open(&dir).unwrap();
        assert_eq!(points, vec![Point::new(1, 10)]);
        assert_eq!(stamp, 1);
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Crash-recovery topology: seeded write streams against a durable index's
//! op log, scripted kills, reopen, and differential verification.
//!
//! The check is the acceptance criterion of DESIGN.md §10 made executable:
//! after a crash at any [`KillPhase`] of any commit, reopening the index
//! directory must recover a state `S` with
//!
//! ```text
//! S_lastOk  <=  S_recovered  <=  S_wedged
//! ```
//!
//! where `S_lastOk` is the commit stamp of the last operation the writer saw
//! succeed and `S_wedged` is the in-RAM stamp at the moment the store
//! died. In words: **zero lost committed operations** (everything
//! acknowledged before the crash survives) and **zero resurrected
//! uncommitted operations** (nothing from after the kill point appears from
//! thin air). The recovered index is then compared point-for-point and
//! query-for-query against [`baselines::NaiveTopK`] replayed to the
//! recovered stamp.
//!
//! A failing case is fully described by `(distribution, seed, kill_after,
//! phase)` — the same repro-line philosophy as the trace harnesses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use baselines::NaiveTopK;
use emsim::{Device, EmConfig};
use epst::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::{FaultPlan, KillPhase, TopKError, TopKIndex};
use workload::{PointDistribution, PointGen};

use crate::trace::TraceOp;

/// Everything that determines one crash-recovery run.
#[derive(Debug, Clone, Copy)]
pub struct CrashSpec {
    /// Coordinate/score distribution of the point universe.
    pub distribution: PointDistribution,
    /// The seed (op mix and point universe both derive from it).
    pub seed: u64,
    /// Write operations generated for the run (each is one commit).
    pub ops: usize,
    /// How many operations succeed before the store is killed. Must be
    /// `< ops` for the kill to actually land.
    pub kill_after: u64,
    /// Which phase of the doomed commit dies.
    pub phase: KillPhase,
}

impl CrashSpec {
    /// The harness default: 96 uniform write ops, killed after `kill_after`.
    pub fn new(seed: u64, kill_after: u64, phase: KillPhase) -> Self {
        Self {
            distribution: PointDistribution::Uniform,
            seed,
            ops: 96,
            kill_after,
            phase,
        }
    }
}

/// What one [`crash_recovery_check`] run observed (all assertions already
/// passed if this is returned — the fields are for logging and for
/// asserting run-shape in tests, e.g. that the kill actually landed).
#[derive(Debug, Clone, Copy)]
pub struct CrashReport {
    /// Ops the writer saw succeed before the crash.
    pub applied_ok: usize,
    /// 0-based index of the op that hit the dead store, if the kill
    /// landed inside the generated stream.
    pub failed_at: Option<usize>,
    /// Commit stamp of the last acknowledged op.
    pub last_ok_stamp: u64,
    /// In-RAM stamp at the moment the store died (upper recovery bound).
    pub wedged_stamp: u64,
    /// Stamp the reopened index recovered to.
    pub recovered_stamp: u64,
    /// Cardinality of the recovered index.
    pub recovered_len: u64,
}

/// A fresh scratch directory under the system temp dir, unique per process
/// and per call. The caller owns cleanup (tests usually leave it to the OS;
/// CI tmpdirs are per-job).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("topk-crash-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// Generate the deterministic write-only op stream for `spec`: ~70%
/// inserts of fresh points, ~30% deletes of live points. Only write verbs
/// appear — every op is exactly one durable commit, so `kill_after`
/// directly names a commit ordinal.
pub fn write_ops(spec: &CrashSpec) -> Vec<TraceOp> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let universe = PointGen {
        distribution: spec.distribution,
        seed: spec.seed ^ 0x9E37_79B9,
    }
    .generate(spec.ops);
    let mut live: Vec<Point> = Vec::new();
    let mut fresh = universe.into_iter();
    let mut ops = Vec::with_capacity(spec.ops);
    while ops.len() < spec.ops {
        if live.len() > 1 && rng.gen_bool(0.3) {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(TraceOp::Delete(victim));
        } else if let Some(p) = fresh.next() {
            live.push(p);
            ops.push(TraceOp::Insert(p));
        } else if live.is_empty() {
            break;
        } else {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(TraceOp::Delete(victim));
        }
    }
    ops
}

fn open(dir: &Path, expected_n: usize) -> TopKIndex {
    TopKIndex::builder()
        .durable(dir)
        .expected_n(expected_n.max(64))
        .crossover_l(64)
        .build()
        .expect("durable build parameters are valid")
}

/// Run one scripted crash against a durable index in `dir` (which must be
/// fresh) and verify recovery. Panics with a descriptive message on any
/// violation of the recovery contract; returns the run's [`CrashReport`]
/// otherwise.
pub fn crash_recovery_check(spec: &CrashSpec, dir: &Path) -> CrashReport {
    let ops = write_ops(spec);

    // Phase 1: apply ops against a durable index with a scripted kill.
    let index = open(dir, spec.ops);
    let base = index.durable_stats().commits;
    index.arm_fault(FaultPlan::kill_at_commit(
        base.saturating_add(spec.kill_after),
        spec.phase,
    ));

    // Per-op post-stamps: the version after each op, including the op that
    // died mid-commit (its in-RAM effects may or may not be durable
    // depending on the kill phase — recovery decides, the stamp filter
    // below follows).
    let mut stamped: Vec<(u64, TraceOp)> = Vec::with_capacity(ops.len());
    let mut last_ok_stamp = index.version();
    let mut applied_ok = 0usize;
    let mut failed_at = None;
    for (i, op) in ops.iter().enumerate() {
        let outcome = match op {
            TraceOp::Insert(p) => index.insert(*p),
            TraceOp::Delete(p) => index.delete(*p).map(|_| ()),
            _ => continue,
        };
        match outcome {
            Ok(()) => {
                applied_ok += 1;
                last_ok_stamp = index.version();
                stamped.push((last_ok_stamp, op.clone()));
            }
            Err(TopKError::Storage { .. }) => {
                stamped.push((index.version(), op.clone()));
                failed_at = Some(i);
                break;
            }
            Err(other) => panic!("unexpected non-storage failure at op {i}: {other}"),
        }
    }
    let wedged_stamp = index.version();
    if failed_at.is_some() {
        // The dead-store contract: after the kill, every further write
        // must keep failing (no silent resurrection inside one process).
        let probe = Point::new(u64::MAX - 1, u64::MAX - 1);
        assert!(
            matches!(index.insert(probe), Err(TopKError::Storage { .. })),
            "a killed store must stay dead until reopen"
        );
    }
    drop(index);

    // Phase 2: reopen and check the recovery window.
    let recovered = open(dir, spec.ops);
    let s_rec = recovered
        .recovered_stamp()
        .expect("a durable index reports its recovery stamp");
    assert!(
        last_ok_stamp <= s_rec,
        "lost committed ops: recovered to stamp {s_rec} but op stamp {last_ok_stamp} was acknowledged ({spec:?})"
    );
    assert!(
        s_rec <= wedged_stamp,
        "resurrected uncommitted state: recovered to stamp {s_rec} past the crash point {wedged_stamp} ({spec:?})"
    );

    // Phase 3: differential against the scan spec at the recovered stamp.
    let spec_device = Device::new(EmConfig::new(256, 256 * 128));
    let naive = NaiveTopK::new(&spec_device, "crash-spec");
    for (stamp, op) in &stamped {
        if *stamp > s_rec {
            continue;
        }
        match op {
            TraceOp::Insert(p) => naive.insert(*p).expect("spec replay insert"),
            TraceOp::Delete(p) => {
                naive.delete(*p).expect("spec replay delete");
            }
            _ => {}
        }
    }
    assert_eq!(
        recovered.len(),
        naive.len(),
        "recovered cardinality diverges from the spec at stamp {s_rec} ({spec:?})"
    );
    let mut got = recovered.all_points();
    got.sort_by_key(|p| p.x);
    let mut want = naive
        .query(0, u64::MAX, (naive.len().max(1)) as usize)
        .expect("spec scan");
    want.sort_by_key(|p| p.x);
    assert_eq!(
        got, want,
        "recovered point set diverges from the spec at stamp {s_rec} ({spec:?})"
    );
    let x_max = got.iter().map(|p| p.x).max().unwrap_or(1) + 2;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC4A5_C4A5);
    for _ in 0..16 {
        let a = rng.gen_range(0..x_max);
        let b = rng.gen_range(a..=x_max);
        let k = [1usize, 3, 16, 64, 200][rng.gen_range(0usize..5)];
        assert_eq!(
            recovered.query(a, b, k).expect("recovered query"),
            naive.query(a, b, k).expect("spec query"),
            "top-{k} over [{a}, {b}] diverges after recovery ({spec:?})"
        );
    }

    CrashReport {
        applied_ok,
        failed_at,
        last_ok_stamp,
        wedged_stamp,
        recovered_stamp: s_rec,
        recovered_len: recovered.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_before_wal_fsync_recovers_the_acked_prefix_exactly() {
        let spec = CrashSpec::new(11, 24, KillPhase::BeforeFsync);
        let dir = scratch_dir("before-fsync");
        let report = crash_recovery_check(&spec, &dir);
        assert_eq!(report.applied_ok as u64, spec.kill_after);
        assert!(report.failed_at.is_some(), "the kill must land");
        // Without a synced frame the doomed op vanishes entirely.
        assert_eq!(report.recovered_stamp, report.last_ok_stamp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_after_wal_fsync_recovers_the_doomed_op_too() {
        let spec = CrashSpec::new(12, 24, KillPhase::AfterFsync);
        let dir = scratch_dir("after-fsync");
        let report = crash_recovery_check(&spec, &dir);
        assert!(report.failed_at.is_some(), "the kill must land");
        // The frame reached the log, so recovery replays it.
        assert_eq!(report.recovered_stamp, report.wedged_stamp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_mid_apply_completes_the_batch_from_the_wal() {
        let spec = CrashSpec::new(13, 31, KillPhase::MidCompaction);
        let dir = scratch_dir("mid-apply");
        let report = crash_recovery_check(&spec, &dir);
        assert!(report.failed_at.is_some(), "the kill must land");
        assert_eq!(report.recovered_stamp, report.wedged_stamp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_kill_means_clean_recovery_of_everything() {
        let mut spec = CrashSpec::new(14, u64::MAX, KillPhase::BeforeFsync);
        spec.ops = 48;
        let dir = scratch_dir("no-kill");
        let report = crash_recovery_check(&spec, &dir);
        assert_eq!(report.failed_at, None);
        assert_eq!(report.recovered_stamp, report.last_ok_stamp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn op_streams_are_deterministic_per_seed() {
        let spec = CrashSpec::new(7, 10, KillPhase::BeforeFsync);
        assert_eq!(write_ops(&spec), write_ops(&spec));
        let other = CrashSpec { seed: 8, ..spec };
        assert_ne!(write_ops(&spec), write_ops(&other));
    }
}

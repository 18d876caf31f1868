//! The kill-after-op-N crash-recovery matrix (ISSUE 10 acceptance
//! criterion): ≥ 3 seeds × both commit-boundary kill phases, each run
//! verified by the testkit crash topology — zero lost committed ops, zero
//! resurrected uncommitted ops, and point-for-point agreement with
//! `NaiveTopK` at the recovered stamp. Plus the flush/drop-cache ordering
//! regression under the fault hook (satellite 3).

use std::collections::HashMap;

use topk_core::{FaultPlan, KillPhase, Point, TopKError, TopKIndex, UpdateBatch};
use topk_testkit::{crash_recovery_check, scratch_dir, CrashSpec, Seed};

#[test]
fn kill_matrix_seeds_by_phases() {
    for seed in [101u64, 202, 303] {
        for phase in [KillPhase::BeforeFsync, KillPhase::AfterFsync] {
            for kill_after in [5u64, 37] {
                let spec = CrashSpec::new(seed, kill_after, phase);
                let dir = scratch_dir(&format!("matrix-{seed}-{kill_after}"));
                let report = crash_recovery_check(&spec, &dir);
                assert!(
                    report.failed_at.is_some(),
                    "the scripted kill must land inside the stream ({spec:?})"
                );
                assert_eq!(report.applied_ok as u64, kill_after, "{spec:?}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// The CI matrix hook: `TOPK_SEED` (one seed per matrix leg) drives a full
/// phase × kill-point sweep, so every CI run covers fresh op streams while
/// any failure reproduces from the printed seed line.
#[test]
fn kill_matrix_env_seeded_phase_sweep() {
    let seed = Seed::from_env(77);
    eprintln!("{}", seed.repro("crash_recovery"));
    for (salt, phase) in [
        (1u64, KillPhase::BeforeFsync),
        (2, KillPhase::AfterFsync),
        (3, KillPhase::MidCompaction),
    ] {
        for kill_after in [3u64, 29, 61] {
            let spec = CrashSpec::new(seed.derive(salt ^ (kill_after << 8)), kill_after, phase);
            let dir = scratch_dir(&format!("env-{salt}-{kill_after}"));
            let report = crash_recovery_check(&spec, &dir);
            assert!(report.failed_at.is_some(), "{spec:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn mid_apply_kills_recover_the_full_batch() {
    for seed in [404u64, 505, 606] {
        let spec = CrashSpec::new(seed, 19, KillPhase::MidCompaction);
        let dir = scratch_dir(&format!("midapply-{seed}"));
        let report = crash_recovery_check(&spec, &dir);
        assert!(report.failed_at.is_some(), "{spec:?}");
        // The commit record was durable before the apply tore: recovery
        // completes the batch, landing exactly on the wedged stamp.
        assert_eq!(report.recovered_stamp, report.wedged_stamp, "{spec:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn flush_and_drop_cache_interleave_safely_under_faults() {
    let dir = scratch_dir("interleave");
    let index = TopKIndex::builder()
        .durable(&dir)
        .expected_n(200)
        .build()
        .unwrap();
    // Interleave cache maintenance with committed writes: neither verb may
    // discard a logged write or reorder around the op log.
    for i in 1..=40u64 {
        index.insert(Point::new(i, i * 3)).unwrap();
        if i % 10 == 0 {
            index.device().drop_cache();
        }
        if i % 16 == 0 {
            index.device().flush();
        }
    }
    let committed_len = index.len();

    // Kill the store at the next commit: cache maintenance must not lose
    // committed state or get around the kill, and the error must surface on
    // the next index write rather than vanish.
    let device = index.device().clone();
    let base = index.durable_stats().commits;
    index.arm_fault(FaultPlan::kill_at_commit(base, KillPhase::BeforeFsync));
    device.drop_cache();
    device.flush();
    assert!(
        matches!(
            index.insert(Point::new(1000, 1000)),
            Err(TopKError::Storage { .. })
        ),
        "the swallowed maintenance failure must resurface on the next write"
    );
    // Reads keep serving from the pool above the dead medium.
    assert_eq!(index.query(0, 100, 1).unwrap(), vec![Point::new(40, 120)]);
    // The index owns the store and its directory lock — release both
    // handles before reopening.
    drop(index);
    drop(device);

    let recovered = TopKIndex::builder()
        .durable(&dir)
        .expected_n(200)
        .build()
        .unwrap();
    assert_eq!(recovered.len(), committed_len, "committed ops were lost");
    for i in 1..=40u64 {
        assert_eq!(recovered.get(i), Some(Point::new(i, i * 3)));
    }
    assert_eq!(recovered.get(1000), None, "uncommitted insert resurrected");
    std::fs::remove_dir_all(&dir).ok();
}

fn open_durable(dir: &std::path::Path) -> TopKIndex {
    TopKIndex::builder()
        .durable(dir)
        .expected_n(200)
        .build()
        .unwrap()
}

fn sorted_points(index: &TopKIndex) -> Vec<Point> {
    let mut points = index.all_points();
    points.sort_by_key(|p| p.x);
    points
}

/// A churn stream that deletes and re-inserts the same `x` until the log
/// outgrows the live set, killed after the compacting commit's snapshot
/// rename and before its log reset. The log still holds the frames the
/// snapshot covers — among them the delete of `x` that the compacting
/// re-insert overrode; recovery must skip them by stamp, not re-apply them.
#[test]
fn mid_compaction_kill_on_a_churn_stream_skips_the_snapshotted_frames() {
    let dir = scratch_dir("churn-compaction");
    let index = open_durable(&dir);
    // With 11 live points the log compacts at its 257th record, which this
    // stream makes a re-insert (asserted below, so a changed compaction
    // trigger fails loudly instead of testing nothing).
    const COMPACTING_OP: u64 = 256;
    let base = index.durable_stats().commits;
    index.arm_fault(FaultPlan::kill_at_commit(
        base + COMPACTING_OP,
        KillPhase::MidCompaction,
    ));
    let mut want: HashMap<u64, Point> = HashMap::new();
    let mut next_score = 1_000u64;
    let mut ops: Vec<(bool, Point)> = (0..11u64).map(|x| (true, Point::new(x, x + 1))).collect();
    let mut churned = Point::new(3, 4);
    while ops.len() < 300 {
        ops.push((false, churned));
        next_score += 1;
        churned = Point::new(3, next_score);
        ops.push((true, churned));
    }
    let mut failed_at = None;
    for (i, &(insert, p)) in ops.iter().enumerate() {
        let outcome = if insert {
            index.insert(p)
        } else {
            index.delete(p).map(|_| ())
        };
        // The doomed op's in-RAM effect is part of S_wedged.
        if insert {
            want.insert(p.x, p);
        } else {
            want.remove(&p.x);
        }
        match outcome {
            Ok(()) => {}
            Err(TopKError::Storage { .. }) => {
                failed_at = Some(i);
                break;
            }
            Err(other) => panic!("unexpected failure at op {i}: {other}"),
        }
    }
    assert_eq!(
        failed_at,
        Some(COMPACTING_OP as usize),
        "the kill must land"
    );
    let (insert, p) = ops[COMPACTING_OP as usize];
    assert!(insert && ops[COMPACTING_OP as usize - 1] == (false, Point::new(p.x, p.score - 1)));
    assert!(
        dir.join("snapshot.topk").exists(),
        "the compaction renamed its snapshot"
    );
    assert!(
        std::fs::metadata(dir.join("log.topk")).unwrap().len() > 0,
        "the kill landed before the log reset"
    );
    let wedged = index.version();
    drop(index);

    let recovered = open_durable(&dir);
    assert_eq!(recovered.recovered_stamp(), Some(wedged));
    let mut want: Vec<Point> = want.into_values().collect();
    want.sort_by_key(|p| p.x);
    assert_eq!(sorted_points(&recovered), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// One frame carries one commit: a 64-op batch torn halfway through its
/// frame vanishes whole, not record by record.
#[test]
fn a_torn_frame_of_a_64_op_batch_vanishes_whole() {
    let dir = scratch_dir("torn-batch");
    let index = open_durable(&dir);
    let preload: Vec<Point> = (0..2048u64).map(|x| Point::new(2 * x, x + 1)).collect();
    index.bulk_build(&preload).unwrap();
    let last_ok = index.version();
    let log_before = std::fs::metadata(dir.join("log.topk")).unwrap().len();
    let batch = (0..64u64).fold(UpdateBatch::new(), |b, i| {
        b.insert(Point::new(2 * i + 1, 10_000 + i))
    });
    index.arm_fault(FaultPlan::kill_at_commit(
        index.durable_stats().commits,
        KillPhase::BeforeFsync,
    ));
    assert!(matches!(
        index.apply(&batch),
        Err(TopKError::Storage { .. })
    ));
    assert!(
        std::fs::metadata(dir.join("log.topk")).unwrap().len() > log_before + 8 * 4 * 16,
        "half the batch's frame reached the log"
    );
    drop(index);

    let recovered = open_durable(&dir);
    assert_eq!(recovered.recovered_stamp(), Some(last_ok));
    assert_eq!(sorted_points(&recovered), preload);
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill before a compaction's snapshot is synced leaves a partial
/// `snapshot.tmp`; reopening ignores it, removes it, and recovers the
/// acknowledged prefix.
#[test]
fn a_stale_snapshot_tmp_is_removed_on_open() {
    let dir = scratch_dir("stale-tmp");
    let index = open_durable(&dir);
    for x in 0..20u64 {
        index.insert(Point::new(x, x + 1)).unwrap();
    }
    let last_ok = index.version();
    let before = sorted_points(&index);
    index.arm_fault(FaultPlan::kill_at_commit(
        index.durable_stats().commits,
        KillPhase::BeforeFsync,
    ));
    let rebuilt: Vec<Point> = (100..400u64).map(|x| Point::new(x, x)).collect();
    assert!(matches!(
        index.bulk_build(&rebuilt),
        Err(TopKError::Storage { .. })
    ));
    assert!(
        dir.join("snapshot.tmp").exists(),
        "the kill tore snapshot.tmp"
    );
    drop(index);

    let recovered = open_durable(&dir);
    assert!(
        !dir.join("snapshot.tmp").exists(),
        "open removes the stale snapshot.tmp"
    );
    assert_eq!(recovered.recovered_stamp(), Some(last_ok));
    assert_eq!(sorted_points(&recovered), before);
    // The directory keeps working: a compaction and another reopen.
    recovered.bulk_build(&rebuilt).unwrap();
    drop(recovered);
    assert_eq!(sorted_points(&open_durable(&dir)), rebuilt);
    std::fs::remove_dir_all(&dir).ok();
}

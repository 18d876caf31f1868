//! Commit-contract tests of the file backend: a [`TopKIndex`] opened on a
//! directory. Each test writes through the index's public update API, drops
//! the handle, reopens the directory and checks that recovery returns
//! exactly what was committed — no more (a write whose commit never made it
//! to the log is gone) and no less (deletes and same-coordinate rewrites
//! survive as committed). The frame-level checks of the log itself live in
//! `persist`.

mod tests {
    use crate::{FaultPlan, KillPhase, Point, TopKIndex, UpdateBatch};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("topk-backend-{tag}-{}-{n}", std::process::id()))
    }

    fn open(dir: &Path) -> TopKIndex {
        TopKIndex::builder()
            .durable(dir)
            .expected_n(256)
            .build()
            .expect("a scratch directory opens as a durable index")
    }

    #[test]
    fn file_backend_commit_survives_reopen() {
        let dir = scratch("roundtrip");
        let stamp = {
            let index = open(&dir);
            index.insert(Point::new(0, 3)).unwrap();
            index.insert(Point::new(7, 9)).unwrap();
            assert_eq!(index.durable_stats().commits, 2);
            index.version()
        };
        let index = open(&dir);
        assert_eq!(index.recovered_stamp(), Some(stamp));
        assert_eq!(index.get(0), Some(Point::new(0, 3)));
        assert_eq!(index.get(7), Some(Point::new(7, 9)));
        assert_eq!(index.get(3), None);
        assert_eq!(
            index.query(0, u64::MAX, 10).unwrap(),
            vec![Point::new(7, 9), Point::new(0, 3)]
        );
        drop(index);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_pages_vanish_on_reopen() {
        let dir = scratch("uncommitted");
        {
            let index = open(&dir);
            index.insert(Point::new(0, 1)).unwrap();
            // The next commit tears its frame and skips the fsync: the
            // insert fails and must not survive.
            let next = index.durable_stats().commits;
            index.arm_fault(FaultPlan::kill_at_commit(next, KillPhase::BeforeFsync));
            assert!(index.insert(Point::new(1, 2)).is_err());
        }
        let index = open(&dir);
        assert_eq!(index.len(), 1);
        assert_eq!(index.get(0), Some(Point::new(0, 1)));
        assert_eq!(index.get(1), None);
        drop(index);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_and_overwrite_commit_correctly() {
        let dir = scratch("dropwrite");
        {
            let index = open(&dir);
            // Enough points that the batch below commits point-wise (as a
            // log frame) rather than as a global rebuild.
            for x in 0..100u64 {
                index.insert(Point::new(x, x + 1)).unwrap();
            }
            let before = index.durable_stats();
            let batch = UpdateBatch::new()
                .delete(Point::new(0, 1))
                .delete(Point::new(1, 2))
                .insert(Point::new(1, 1_000));
            index.apply(&batch).unwrap();
            let after = index.durable_stats();
            assert_eq!(after.commits, before.commits + 1, "one batch, one commit");
            assert_eq!(after.snapshots, before.snapshots);
        }
        let index = open(&dir);
        assert_eq!(index.len(), 99);
        assert_eq!(index.get(0), None);
        assert_eq!(index.get(1), Some(Point::new(1, 1_000)));
        assert_eq!(index.query(0, 1, 1).unwrap(), vec![Point::new(1, 1_000)]);
        drop(index);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

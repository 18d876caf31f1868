//! RAM-versus-durable contract tests.
//!
//! Durability is below the cost model: an identical logical operation
//! sequence must produce identical answers on an in-RAM index and on one
//! that logs to a directory, the simulated I/O counters must stay within a
//! constant factor of each other, and during serving the store is
//! write-only — it reads its snapshot and log once, at open. The on-disk
//! format does not depend on the block size. Plus the snapshot/restore
//! round-trip across all five workload distributions.

use emsim::{Device, EmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::{Point, TopK, TopKIndex};
use topk_testkit::{
    generate, replay, replay_durable, scratch_dir, Topology, TraceSpec, DISTRIBUTIONS,
};
use workload::{PointDistribution, PointGen};

fn build_ram(device: &Device, expected_n: usize) -> TopKIndex {
    TopKIndex::builder()
        .device(device)
        .expected_n(expected_n)
        .build()
        .unwrap()
}

fn build_file(dir: &std::path::Path, expected_n: usize) -> TopKIndex {
    TopKIndex::builder()
        .durable(dir)
        .expected_n(expected_n)
        .build()
        .unwrap()
}

#[test]
fn ram_and_file_backends_agree_on_every_answer() {
    let ram_device = Device::new(EmConfig::new(256, 256 * 64));
    let ram = build_ram(&ram_device, 600);
    let dir = scratch_dir("contract");
    let file = build_file(&dir, 600);

    let points = PointGen {
        distribution: PointDistribution::Uniform,
        seed: 0xBACC_0001,
    }
    .generate(600);
    for (i, p) in points.iter().enumerate() {
        ram.insert(*p).unwrap();
        file.insert(*p).unwrap();
        if i % 3 == 2 {
            let victim = points[i - 2];
            assert!(ram.delete(victim).unwrap());
            assert!(file.delete(victim).unwrap());
        }
    }
    assert_eq!(ram.len(), file.len());

    let x_max = points.iter().map(|p| p.x).max().unwrap() + 2;
    let mut rng = StdRng::seed_from_u64(0xBACC_0002);
    for _ in 0..32 {
        let a = rng.gen_range(0..x_max);
        let b = rng.gen_range(a..=x_max);
        let k = [1usize, 4, 17, 64, 300][rng.gen_range(0usize..5)];
        assert_eq!(
            ram.query(a, b, k).unwrap(),
            file.query(a, b, k).unwrap(),
            "top-{k} over [{a}, {b}] depends on the backend"
        );
    }

    // The cost model must not drift with durability: the store never
    // touches the simulated pool, so the counters stay within a constant
    // factor of the RAM baseline.
    let sim_ram = ram_device.stats();
    let sim_file = file.device().stats();
    assert!(
        sim_file.reads <= 4 * sim_ram.reads + 64,
        "file-backend simulated reads blew past the RAM baseline: {} vs {}",
        sim_file.reads,
        sim_ram.reads
    );
    // During serving the store is write-only — every read is served from
    // the typed pool, none from the log.
    let ds = file.durable_stats();
    assert_eq!(ds.log_bytes_read, 0, "serving must not read the log");
    assert!(ds.commits > 0 && ds.log_bytes_written > 0);
    drop(file);

    // Recovery reads the snapshot and the log exactly once each.
    let on_disk = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    let (snapshot_bytes, log_bytes) = (on_disk("snapshot.topk"), on_disk("log.topk"));
    assert!(log_bytes > 0, "the stream must have left frames to replay");
    let reopened = build_file(&dir, 600);
    let ds = reopened.durable_stats();
    assert_eq!(ds.snapshot_bytes_read, snapshot_bytes);
    assert_eq!(ds.log_bytes_read, log_bytes);
    assert_eq!(reopened.len(), ram.len());
    for _ in 0..8 {
        let a = rng.gen_range(0..x_max);
        let b = rng.gen_range(a..=x_max);
        assert_eq!(
            ram.query(a, b, 25).unwrap(),
            reopened.query(a, b, 25).unwrap()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generated_traces_replay_clean_over_the_file_backend() {
    // The same spec-checked differential replay CI runs on the RAM
    // topologies, over a journaling index: every answer (queries, cursor
    // pages, batch commits) checked against the sequential spec.
    let spec = TraceSpec {
        preload: 256,
        ops: 160,
        ..TraceSpec::new(PointDistribution::Clustered, 29)
    };
    let trace = generate(&spec);
    let ram = replay(&trace, Topology::Concurrent).unwrap_or_else(|d| panic!("{d}"));
    let dir = scratch_dir("replay");
    let file = replay_durable(&trace, &dir).unwrap_or_else(|d| panic!("{d}"));
    // Identical logical sequence: both replays apply and check the same ops.
    assert_eq!(ram.applied, file.applied);
    assert_eq!(ram.skipped, file.skipped);
    assert_eq!(ram.checked_answers, file.checked_answers);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopen_with_a_different_block_size_recovers_the_same_points() {
    let dir = scratch_dir("block-size");
    let points = PointGen {
        distribution: PointDistribution::Uniform,
        seed: 0xB10C,
    }
    .generate(500);
    let build = |block_words: usize| {
        TopKIndex::builder()
            .durable(&dir)
            .block_words(block_words)
            .pool_bytes(block_words * 8 * 64)
            .expected_n(600)
            .build()
            .unwrap()
    };
    let want = {
        let index = build(64);
        for p in &points {
            index.insert(*p).unwrap();
        }
        for p in points.iter().step_by(3) {
            assert!(index.delete(*p).unwrap());
        }
        let mut want = index.all_points();
        want.sort_by_key(|p| p.x);
        want
    };
    for block_words in [512, 32] {
        let index = build(block_words);
        assert_eq!(index.device().block_words(), block_words);
        let mut got = index.all_points();
        got.sort_by_key(|p| p.x);
        assert_eq!(got, want, "B = {block_words}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_restore_round_trips_across_every_distribution() {
    for (i, distribution) in DISTRIBUTIONS.into_iter().enumerate() {
        let source = TopK::builder().expected_n(300).build_auto().unwrap();
        let points = PointGen {
            distribution,
            seed: 0x5AAB + i as u64,
        }
        .generate(240);
        for p in &points {
            source.insert(*p).unwrap();
        }
        // Age the set a little so the snapshot is not just the insert log.
        for p in points.iter().step_by(4) {
            assert!(source.delete(*p).unwrap());
        }

        let dir = scratch_dir(&format!("snap-{i}"));
        let snapped = source.snapshot_to(&dir).unwrap();
        assert_eq!(snapped, source.len());

        let restored = TopK::builder()
            .durable(&dir)
            .expected_n(300)
            .build_auto()
            .unwrap();
        assert_eq!(restored.len(), source.len(), "{distribution:?}");
        let mut got = restored.all_points();
        got.sort_by_key(|p| p.x);
        let mut want = source.all_points();
        want.sort_by_key(|p| p.x);
        assert_eq!(got, want, "{distribution:?} point set mutated in transit");

        let x_max = points.iter().map(|p| p.x).max().unwrap() + 2;
        let mut rng = StdRng::seed_from_u64(0x5AAB ^ i as u64);
        for _ in 0..12 {
            let a = rng.gen_range(0..x_max);
            let b = rng.gen_range(a..=x_max);
            let k = [1usize, 8, 40, 240][rng.gen_range(0usize..4)];
            assert_eq!(
                source.query(a, b, k).unwrap(),
                restored.query(a, b, k).unwrap(),
                "{distribution:?}: top-{k} over [{a}, {b}] diverges after restore"
            );
        }
        // A restored index keeps journaling: one more durable write survives
        // another reopen.
        let extra = Point::new(x_max + 10, u64::MAX - 3);
        restored.insert(extra).unwrap();
        drop(restored);
        let again = TopK::builder()
            .durable(&dir)
            .expected_n(300)
            .build_auto()
            .unwrap();
        assert_eq!(again.len(), source.len() + 1, "{distribution:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn snapshot_stamp_never_goes_backwards() {
    // A directory that already lived through many commits holds a high
    // version stamp; snapshotting a young index into it must not rewind the
    // stamp (strict-cursor and crash-window comparisons rely on monotony).
    let dir = scratch_dir("snap-stamp");
    {
        let old = TopK::builder()
            .durable(&dir)
            .expected_n(300)
            .build_auto()
            .unwrap();
        for i in 0..60u64 {
            old.insert(Point::new(i, i + 1)).unwrap();
        }
    }
    let prior = {
        let reopened = TopK::builder()
            .durable(&dir)
            .expected_n(300)
            .build_auto()
            .unwrap();
        reopened.recovered_stamp().unwrap()
    };
    assert!(prior >= 60, "60 committed inserts must stamp at least 60");

    let young = TopK::builder().expected_n(64).build_auto().unwrap();
    for i in 0..3u64 {
        young.insert(Point::new(1000 + i, i + 1)).unwrap();
    }
    assert_eq!(young.snapshot_to(&dir).unwrap(), 3);

    let restored = TopK::builder()
        .durable(&dir)
        .expected_n(300)
        .build_auto()
        .unwrap();
    assert_eq!(restored.len(), 3, "the snapshot replaces the old contents");
    assert!(
        restored.recovered_stamp().unwrap() >= prior,
        "snapshot rewound the version stamp: {} < {prior}",
        restored.recovered_stamp().unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_into_own_directory_is_refused() {
    // The index's own directory is locked while the handle is alive, so the
    // self-snapshot footgun (recovery + log reset racing the live store)
    // fails fast instead of corrupting committed state.
    let dir = scratch_dir("snap-self");
    let index = TopK::builder()
        .durable(&dir)
        .expected_n(64)
        .build_auto()
        .unwrap();
    index.insert(Point::new(7, 7)).unwrap();
    let err = index.snapshot_to(&dir).unwrap_err();
    assert!(
        err.to_string().contains("lock.topk"),
        "self-snapshot must trip the directory lock, got: {err}"
    );
    // The live handle is unharmed.
    index.insert(Point::new(8, 8)).unwrap();
    assert_eq!(index.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

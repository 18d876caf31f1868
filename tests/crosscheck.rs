//! Randomized cross-checks, generic over engines: every [`RankedIndex`]
//! implementation — the served index in every topology, the paper's
//! Theorem 1 dispatch with both small-k engines, and both baselines — must
//! agree with the in-memory oracle on every query, for arbitrary point sets
//! and query parameters.
//! (Formerly proptest-based; now seeded random cases with the same shape,
//! reproducible by construction.) Seeds come from `topk_testkit::Seed`:
//! set `TOPK_SEED=<n>` to pin every case to one base seed, and every
//! assertion context carries the repro line.

use emsim::{Device, EmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk::{
    ConcurrentTopK, Oracle, Point, QueryRequest, RankedIndex, ShardedTopK, TopK, TopKConfig,
    TopKError, TopKIndex,
};
use topk_bench::{PaperIndex, SmallKEngine};
use topk_testkit::Seed;

fn distinct_points(raw: Vec<(u64, u64)>) -> Vec<Point> {
    // Make coordinates and scores distinct while preserving the rough shape of
    // the random input.
    let mut pts = Vec::with_capacity(raw.len());
    for (i, (x, s)) in raw.into_iter().enumerate() {
        pts.push(Point::new(x * 1024 + i as u64, s * 1024 + i as u64));
    }
    pts
}

/// Every engine in the workspace, as trait objects on one shared device.
fn engines(device: &Device) -> Vec<(&'static str, Box<dyn RankedIndex>)> {
    let built = TopKIndex::builder()
        .device(device)
        .expected_n(1 << 10)
        .build()
        .unwrap();
    vec![
        ("topk", Box::new(built)),
        (
            "paper-polylog",
            Box::new(PaperIndex::new(device, SmallKEngine::Polylog, 64, 1 << 10)),
        ),
        (
            "paper-st12",
            Box::new(PaperIndex::new(device, SmallKEngine::St12, 64, 1 << 10)),
        ),
        (
            "concurrent",
            Box::new(ConcurrentTopK::new(device, TopKConfig::default())),
        ),
        (
            "sharded",
            Box::new(ShardedTopK::new(device, TopKConfig::default(), 4)),
        ),
        (
            "naive",
            Box::new(baselines::NaiveTopK::new(device, "naive")),
        ),
        ("ram-pst", Box::new(baselines::RamPst::new(device))),
        (
            "facade-single",
            Box::new(TopK::single(TopKIndex::new(device, TopKConfig::default()))),
        ),
        (
            "facade-sharded",
            Box::new(TopK::sharded(ShardedTopK::new(
                device,
                TopKConfig::default(),
                4,
            ))),
        ),
    ]
}

#[test]
fn every_engine_agrees_with_the_oracle() {
    let seed = Seed::from_env(0xC05C);
    let repro = seed.repro("crosscheck");
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed.derive(case));
        let n = rng.gen_range(1usize..600);
        let raw: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..50_000), rng.gen_range(0u64..50_000)))
            .collect();
        let pts = distinct_points(raw);
        let device = Device::new(EmConfig::new(128, 128 * 128));
        let engines = engines(&device);
        let mut oracle = Oracle::new();
        for (_, engine) in &engines {
            engine.bulk_build(&pts).unwrap();
        }
        for &p in &pts {
            oracle.insert(p);
        }
        let queries = rng.gen_range(1usize..12);
        for _ in 0..queries {
            let a = rng.gen_range(0u64..4_000_000);
            let b = rng.gen_range(0u64..4_000_000);
            let k = rng.gen_range(1usize..300);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let expect = oracle.query(lo, hi, k);
            for (name, engine) in &engines {
                assert_eq!(
                    engine.query(lo, hi, k).unwrap(),
                    expect,
                    "{name}: case {case} [{lo},{hi}] k={k}; {repro}"
                );
                assert_eq!(
                    engine.count_in_range(lo, hi).unwrap(),
                    oracle.count(lo, hi) as u64,
                    "{name}: case {case} count [{lo},{hi}]; {repro}"
                );
            }
        }
    }
}

#[test]
fn every_engine_rejects_misuse_identically() {
    // Regression for the count_in_range / k = 0 API inconsistency: every
    // RankedIndex engine must report the *same* typed error for the same
    // misuse — an inverted range on query and count_in_range, and k = 0 on
    // query — whether the index is empty or populated, and whether the
    // request was assembled eagerly (poisoned setters) or passed directly.
    let device = Device::new(EmConfig::new(128, 128 * 128));
    let engines = engines(&device);
    let pts = distinct_points(vec![(5, 9), (100, 3), (42, 77)]);
    for populate in [false, true] {
        for (name, engine) in &engines {
            if populate {
                engine.bulk_build(&pts).unwrap();
            }
            assert_eq!(
                engine.query(9, 3, 5).unwrap_err(),
                TopKError::InvertedRange { x1: 9, x2: 3 },
                "{name} (populated: {populate}): query inverted range"
            );
            assert_eq!(
                engine.query(3, 9, 0).unwrap_err(),
                TopKError::ZeroK,
                "{name} (populated: {populate}): query k = 0"
            );
            assert_eq!(
                engine.count_in_range(9, 3).unwrap_err(),
                TopKError::InvertedRange { x1: 9, x2: 3 },
                "{name} (populated: {populate}): count_in_range inverted range"
            );
            // The eager setter path reports the identical errors through
            // cursors (engines without cursor support report InvalidConfig,
            // never a panic or a silent empty answer).
            match engine.cursor(QueryRequest::range(9, 3).top(5)) {
                Err(TopKError::InvertedRange { x1: 9, x2: 3 })
                | Err(TopKError::InvalidConfig { .. }) => {}
                other => panic!("{name}: unexpected cursor outcome {other:?}"),
            }
            match engine.cursor(QueryRequest::range(3, 9).top(0)) {
                Err(TopKError::ZeroK) | Err(TopKError::InvalidConfig { .. }) => {}
                other => panic!("{name}: unexpected cursor outcome {other:?}"),
            }
        }
    }
}

#[test]
fn point_wise_updates_agree_with_the_oracle() {
    // The same shape through the update path instead of bulk_build (the RAM
    // PST takes an O(n) rebuild per update, so this pass uses fewer points).
    let seed = Seed::from_env(0xA9);
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed.derive(0xA0 ^ case));
        let n = rng.gen_range(2usize..150);
        let raw: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..10_000), rng.gen_range(0u64..10_000)))
            .collect();
        let pts = distinct_points(raw);
        let device = Device::new(EmConfig::new(128, 128 * 128));
        let engines = engines(&device);
        let mut oracle = Oracle::new();
        for &p in &pts {
            for (_, engine) in &engines {
                engine.insert(p).unwrap();
            }
            oracle.insert(p);
        }
        // Duplicates are rejected by every engine (scores differ per engine:
        // the naive baseline only detects coordinate collisions).
        for (name, engine) in &engines {
            assert!(engine.insert(pts[0]).is_err(), "{name}: duplicate accepted");
        }
        for (i, &p) in pts.iter().enumerate() {
            if i % 3 == 0 {
                for (name, engine) in &engines {
                    assert!(engine.delete(p).unwrap(), "{name}: case {case}");
                }
                oracle.delete(p);
            }
        }
        let expect = oracle.query(0, u64::MAX, pts.len());
        for (name, engine) in &engines {
            assert_eq!(
                engine.query(0, u64::MAX, pts.len()).unwrap(),
                expect,
                "{name}: case {case}"
            );
            assert_eq!(engine.len(), oracle.len() as u64, "{name}: case {case}");
        }
    }
}

#[test]
fn deletions_never_leave_ghosts() {
    let seed = Seed::from_env(0xDE1);
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed.derive(0xDE ^ case));
        let n = rng.gen_range(2usize..200);
        let raw: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..10_000), rng.gen_range(0u64..10_000)))
            .collect();
        let delete_every = rng.gen_range(2usize..5);
        let pts = distinct_points(raw);
        let device = Device::new(EmConfig::new(128, 128 * 128));
        let index = TopKIndex::new(&device, TopKConfig::default());
        let mut oracle = Oracle::new();
        for &p in &pts {
            index.insert(p).unwrap();
            oracle.insert(p);
        }
        for (i, &p) in pts.iter().enumerate() {
            if i % delete_every == 0 {
                assert!(index.delete(p).unwrap(), "case {case}");
                oracle.delete(p);
            }
        }
        let all = index.query(0, u64::MAX, pts.len()).unwrap();
        let expect = oracle.query(0, u64::MAX, pts.len());
        assert_eq!(all, expect, "case {case}");
    }
}

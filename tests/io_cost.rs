//! Regression guard on the paper's query bound: a cold-cache `query(x1, x2,
//! k)` must stay within a generous constant of `log_B n + k/B` physical
//! reads. The constant absorbs the implementation's real overheads (boundary
//! leaves, the pilot drain's fringe, the §3.3 select-retry loop of the
//! paper's dispatch); what it must *not* absorb is a regression to
//! range-scan behaviour, which at these parameters costs thousands of reads.

use emsim::{Device, EmConfig};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use topk_bench::{PaperIndex, SmallKEngine};
use topk_core::{Point, RankedIndex, ShardedTopK, TopKConfig, TopKIndex};

fn random_points(seed: u64, n: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
    let mut scores: Vec<u64> = (0..n as u64).map(|i| i * 13 + 7).collect();
    xs.shuffle(&mut rng);
    scores.shuffle(&mut rng);
    xs.into_iter()
        .zip(scores)
        .map(|(x, score)| Point { x, score })
        .collect()
}

/// 64-frame pool, exact LRU: cold reads dominate and the replacement policy
/// is the deterministic one the bound constants were tuned against (the
/// default sharded CLOCK approximates it; see tests/pool_shards.rs for the
/// cross-policy miss-rate bound).
fn cold_machine() -> EmConfig {
    EmConfig::new(512, 512 * 64).exact_lru()
}

/// Cold-cache reads of `index` (holding `n` points on `device`) against the
/// bound of Theorem 1's dispatch: `C · (log_B n + k/B + 1)` reads for k
/// below the crossover `l = 256`, and `C' · (lg n + k/B + 1)` beyond it (the
/// pilot structure's regime, where the paper's own bound is `lg n`, not
/// `log_B n`, and its constant carries the factor φ = 16 plus the
/// sibling/child expansion). The served index answers every k from the
/// pilot drain and is held to the same, tighter, small-k bound below 256.
/// points_per_block reflects that a block of B words holds B/2 points.
/// Measured worst cases sit at roughly half of each bound, so a regression
/// to scan behaviour (thousands of reads even at k = 1) trips the assert
/// while normal constant-factor noise does not.
fn assert_cold_reads_within_bound(device: &Device, index: &dyn RankedIndex, n: usize) {
    let em = device.config();
    let points_per_block = (em.block_words / Point::WORDS) as f64;
    let log_b_n = emsim::log_b(em.block_words, n);
    let lg_n = emsim::lg(n) as f64;
    let crossover = 256;
    const C_SMALL: f64 = 60.0;
    const C_LARGE: f64 = 140.0;

    // k = 4096 exercises the pilot drain's bulk pull specifically: its
    // threshold-gated expansion must stop at the same `O(lg n + k/B)` page
    // set the per-point merge reads — a stale-threshold regression that
    // over-expands toward a range scan trips the bound.
    let mut rng = StdRng::seed_from_u64(9);
    for &k in &[1usize, 10, 100, 1_000, 4_000, 4_096] {
        let bound = if k < crossover {
            (C_SMALL * (log_b_n + k as f64 / points_per_block + 1.0)).ceil() as u64
        } else {
            (C_LARGE * (lg_n + k as f64 / points_per_block + 1.0)).ceil() as u64
        };
        for _ in 0..5 {
            let a = rng.gen_range(0..60_000u64);
            let b = rng.gen_range(a..=120_000u64);
            device.drop_cache();
            let (res, cost) = device.measure(|| index.query(a, b, k).unwrap());
            assert!(res.len() <= k);
            assert!(
                cost.reads <= bound,
                "{}: query([{a},{b}], k={k}) took {} cold reads, bound {bound} \
                 (log_B n = {log_b_n:.2}, k/B = {:.2})",
                index.engine_name(),
                cost.reads,
                k as f64 / points_per_block
            );
        }
    }
}

#[test]
fn cold_query_reads_stay_within_log_plus_output_bound() {
    let n = 40_000usize;
    let device = Device::new(cold_machine());
    let index = TopKIndex::new(&device, TopKConfig::default());
    index.bulk_build(&random_points(3, n)).unwrap();
    assert_cold_reads_within_bound(&device, &index, n);
}

#[test]
fn paper_dispatch_cold_query_reads_stay_within_log_plus_output_bound() {
    // The §3.3 path (approximate k-selection, then a 3-sided report) keeps
    // its guard for k < 256 through the experiment harness's PaperIndex.
    let n = 40_000usize;
    let device = Device::new(cold_machine());
    let index = PaperIndex::new(&device, SmallKEngine::Polylog, 256, n);
    index.bulk_build(&random_points(3, n)).unwrap();
    assert_cold_reads_within_bound(&device, &index, n);
}

#[test]
fn sharded_fan_out_reads_stay_within_per_shard_bound() {
    // The sharded-path regression guard: a fan-out query over a
    // range-sharded index must cost at most `overlapping_shards ×
    // C · (log_B(n/S) + k/B + 1)` cold reads — each overlapping shard pays
    // one shard-sized query bound, nothing more. A routing or merge
    // regression that touches non-overlapping shards (or re-runs escalation
    // rounds per merged element) blows the bound immediately; a narrow
    // range must stay at the one-to-two-shard cost no matter how many
    // shards exist.
    let n = 40_000usize;
    let shards = 8usize;
    let em = cold_machine();
    let device = Device::new(em);
    let index = ShardedTopK::builder()
        .device(&device)
        .shards(shards)
        .expected_n(n)
        .build_sharded()
        .unwrap();
    let pts = random_points(3, n);
    index.bulk_build(&pts).unwrap();

    let points_per_block = (em.block_words / Point::WORDS) as f64;
    let shard_n = n / shards;
    let log_b_shard_n = emsim::log_b(em.block_words, shard_n);
    let lg_shard_n = emsim::lg(shard_n) as f64;
    let crossover = 256;
    const C_SMALL: f64 = 60.0;
    const C_LARGE: f64 = 140.0;

    let mut rng = StdRng::seed_from_u64(29);
    for &k in &[1usize, 10, 100, 1_000, 4_096] {
        let per_shard_bound = if k < crossover {
            (C_SMALL * (log_b_shard_n + k as f64 / points_per_block + 1.0)).ceil() as u64
        } else {
            (C_LARGE * (lg_shard_n + k as f64 / points_per_block + 1.0)).ceil() as u64
        };
        for narrow in [false, true] {
            for _ in 0..4 {
                let a = rng.gen_range(0..60_000u64);
                let b = if narrow {
                    a + rng.gen_range(0..2_000u64) // ≤ ~2 shards
                } else {
                    rng.gen_range(a..=120_000u64)
                };
                let overlap = index.overlapping_shards(a, b) as u64;
                assert!((1..=shards as u64).contains(&overlap));
                let bound = overlap * per_shard_bound;
                device.drop_cache();
                let (res, cost) = device.measure(|| index.query(a, b, k).unwrap());
                assert!(res.len() <= k);
                assert!(
                    cost.reads <= bound,
                    "sharded query([{a},{b}], k={k}) over {overlap} shard(s) took {} \
                     cold reads, bound {bound} (= {overlap} × {per_shard_bound}; \
                     log_B(n/S) = {log_b_shard_n:.2}, k/B = {:.2})",
                    cost.reads,
                    k as f64 / points_per_block
                );
            }
        }
    }
}

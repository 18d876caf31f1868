//! # topk-core — dynamic I/O-efficient top-k range reporting
//!
//! This crate is the public API of the reproduction of **Yufei Tao, "A Dynamic
//! I/O-Efficient Structure for One-Dimensional Top-k Range Reporting" (PODS
//! 2014)**. A [`TopKIndex`] stores a set of points `(x, score)` with distinct
//! coordinates and distinct scores on a simulated external-memory machine
//! ([`emsim::Device`]) and supports:
//!
//! * `insert` / `delete` in `O(log_B n)` amortized I/Os (Theorem 1 — the
//!   paper's headline improvement over the `O(log_B² n)` of Sheng & Tao 2012),
//! * `query(x1, x2, k)`: the `k` highest-scoring points with `x ∈ [x1, x2]`,
//!   in `O(log_B n + k/B)` I/Os for small `k` and `O(lg n + k/B) = O(k/B)`
//!   I/Os once `k = Ω(B·lg n)`,
//! * linear space (`O(n/B)` blocks).
//!
//! The API is builder-first, fallible, batched and streaming:
//!
//! * [`IndexBuilder`] (via [`TopKIndex::builder`]) owns device construction
//!   and engine resolution — no hand-built [`emsim::Device`] required;
//! * every operation returns [`Result`], turning model-precondition misuse
//!   (duplicate coordinates or scores, inverted ranges, `k == 0`) and
//!   component inconsistency into typed [`TopKError`]s instead of panics or
//!   silent empty answers;
//! * [`UpdateBatch`]es commit atomically — under [`ConcurrentTopK`] with one
//!   write-lock acquisition and one deferred rebuild check;
//! * [`TopKIndex::stream`] returns a lazy [`TopKResults`] iterator that
//!   fetches in escalating rounds, so consuming a short prefix of a large
//!   `k` never materializes the whole answer;
//! * the read plane is served by **owned cursors**: [`TopK`] (from
//!   [`IndexBuilder::build_auto`]) is the topology-agnostic handle, and
//!   [`TopK::cursor`] opens a [`QueryCursor`] that acquires the read lock
//!   only per fetch round — long-lived paginating readers cost writers
//!   nothing, positions serialize into [`ResumeToken`]s, and
//!   [`Consistency`] picks the exact contract when writes interleave
//!   between rounds (DESIGN.md §6).
//!
//! Internally the index combines the three components of the paper exactly as
//! Theorem 1 prescribes:
//!
//! 1. the pilot-set priority search tree of §2 ([`epst::PilotPst`]) for large
//!    `k`,
//! 2. an approximate range k-selection structure for small `k` — either the
//!    paper's new §3.3 structure ([`kselect::PolylogKSelect`]) or, when
//!    `lg n ≤ B^(1/6)`, the Sheng–Tao-style structure
//!    ([`kselect::St12KSelect`]) — combined with
//! 3. a 3-sided reporting structure ([`epst::ThreeSidedPst`]) through the
//!    standard reduction (find an approximate rank-`k` score threshold, report
//!    everything above it, keep the exact top `k`).
//!
//! [`TopKIndex`] is `Send + Sync`; for serving concurrent traffic, wrap it in
//! [`ConcurrentTopK`] (one coarse reader–writer lock: parallel queries,
//! serialized updates) or, once concurrent *writers* are the bottleneck,
//! [`ShardedTopK`] (range-sharded: writers on disjoint shards proceed in
//! parallel, queries fan out and merge lazily — see DESIGN.md §4 for when to
//! pick which). The [`RankedIndex`] trait abstracts over this crate's
//! engines and the `baselines` comparison structures for generic harness
//! code.
//!
//! ```
//! use topk_core::{Point, QueryRequest, TopKIndex, UpdateBatch};
//!
//! let index = TopKIndex::builder()
//!     .block_words(512)          // 4 KiB blocks
//!     .pool_bytes(8 << 20)       // 8 MiB buffer pool
//!     .expected_n(1 << 20)
//!     .build()?;
//! for i in 0..1000u64 {
//!     index.insert(Point::new(i, (i * 2654435761) % 1_000_003))?;
//! }
//! let top = index.query(100, 900, 5)?;
//! assert_eq!(top.len(), 5);
//! assert!(top[0].score >= top[4].score);
//!
//! // Stream lazily: only the consumed prefix is fetched.
//! let best = index
//!     .stream(QueryRequest::range(100, 900).top(500))?
//!     .next();
//! assert_eq!(best, top.first().copied());
//!
//! // Batch updates validate and commit as one unit.
//! index.apply(&UpdateBatch::new()
//!     .delete(top[0])
//!     .insert(Point::new(2_000, 3_000)))?;
//! # Ok::<(), topk_core::TopKError>(())
//! ```

#[cfg(test)]
mod backend;
mod batch;
mod builder;
mod concurrent;
mod config;
mod cursor;
mod error;
mod facade;
#[cfg(feature = "testkit-hooks")]
pub mod hooks;
mod index;
mod oracle;
mod persist;
mod query;
mod ranked;
mod sharded;
mod stripe;

pub use batch::{BatchSummary, UpdateBatch, UpdateOp};
pub use builder::IndexBuilder;
pub use concurrent::{ConcurrentTopK, ReadPin, WritePin};
pub use config::{SmallKEngine, TopKConfig};
pub use cursor::{QueryCursor, ResumeToken};
pub use epst::Point;
pub use error::{Result, TopKError};
pub use facade::TopK;
pub use index::TopKIndex;
pub use oracle::Oracle;
pub use persist::{DurableStats, FaultPlan, KillPhase};
pub use query::{Consistency, QueryRequest, TopKResults};
pub use ranked::RankedIndex;
pub use sharded::{ShardedReadGuard, ShardedResults, ShardedTopK};

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::{Device, EmConfig};
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(EmConfig::new(256, 256 * 256))
    }

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

    fn check_queries(index: &TopKIndex, oracle: &Oracle, rng: &mut StdRng, rounds: usize) {
        for _ in 0..rounds {
            let a = rng.gen_range(0..20_000u64);
            let b = rng.gen_range(a..=20_000u64);
            let k = *[1usize, 2, 5, 10, 50, 200, 2000].choose(rng).unwrap();
            let got = index.query(a, b, k).unwrap();
            let expect = oracle.query(a, b, k);
            assert_eq!(got, expect, "range [{a},{b}] k={k}");
        }
    }

    #[test]
    fn insert_only_index_matches_oracle() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        let mut oracle = Oracle::new();
        let pts = random_points(1, 4000);
        for &p in &pts {
            index.insert(p).unwrap();
            oracle.insert(p);
        }
        assert_eq!(index.len(), 4000);
        let mut rng = StdRng::seed_from_u64(2);
        check_queries(&index, &oracle, &mut rng, 40);
    }

    #[test]
    fn mixed_updates_match_oracle() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        let mut oracle = Oracle::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut live: Vec<Point> = Vec::new();
        let mut next = 1u64;
        for _ in 0..4000 {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let idx = rng.gen_range(0..live.len());
                let victim = live.swap_remove(idx);
                assert!(index.delete(victim).unwrap());
                oracle.delete(victim);
            } else {
                let p = Point {
                    x: (next * 7919) % 1_000_003,
                    score: next * 11 + 1,
                };
                next += 1;
                live.push(p);
                index.insert(p).unwrap();
                oracle.insert(p);
            }
        }
        assert!(!index.delete(Point::new(2_000_000, 5)).unwrap());
        assert_eq!(index.len(), live.len() as u64);
        let mut rng2 = StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let a = rng2.gen_range(0..1_000_003u64);
            let b = rng2.gen_range(a..=1_000_003u64);
            let k = rng2.gen_range(1..=300usize);
            assert_eq!(index.query(a, b, k).unwrap(), oracle.query(a, b, k));
        }
    }

    #[test]
    fn both_small_k_engines_agree() {
        let pts = random_points(9, 2500);
        for engine in [SmallKEngine::Polylog, SmallKEngine::St12] {
            let dev = device();
            let cfg = TopKConfig {
                small_k_engine: engine,
                ..TopKConfig::default()
            };
            let index = TopKIndex::new(&dev, cfg);
            let mut oracle = Oracle::new();
            for &p in &pts {
                index.insert(p).unwrap();
                oracle.insert(p);
            }
            let mut rng = StdRng::seed_from_u64(5);
            check_queries(&index, &oracle, &mut rng, 20);
        }
    }

    #[test]
    fn bulk_build_and_space_is_linear() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        let pts = random_points(11, 6000);
        index.bulk_build(&pts).unwrap();
        assert_eq!(index.len(), 6000);
        let oracle = Oracle::from_points(&pts);
        let mut rng = StdRng::seed_from_u64(6);
        check_queries(&index, &oracle, &mut rng, 20);
        // Linear space: a generous constant times n/B blocks.
        let points_per_block = dev.block_words() / 2;
        let n_over_b = 6000 / points_per_block + 1;
        assert!(
            index.space_blocks() < 200 * n_over_b as u64,
            "space {} blocks is not O(n/B) (n/B = {})",
            index.space_blocks(),
            n_over_b
        );
    }

    #[test]
    fn query_edge_cases() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        assert!(index.query(0, 100, 5).unwrap().is_empty());
        index.insert(Point::new(10, 7)).unwrap();
        assert_eq!(index.query(0, 100, 0).unwrap_err(), TopKError::ZeroK);
        assert_eq!(index.query(0, 100, 3).unwrap(), vec![Point::new(10, 7)]);
        assert!(index.query(20, 30, 3).unwrap().is_empty());
        assert_eq!(
            index.query(30, 20, 3).unwrap_err(),
            TopKError::InvertedRange { x1: 30, x2: 20 }
        );
    }
}

//! The paper's Theorem 1 dispatch, kept for the experiments.
//!
//! Theorem 1 answers `k < l` through the §3.3 reduction — an approximate
//! rank-`k` selection ([`PolylogKSelect`] or [`St12KSelect`]), then a
//! 3-sided report above the selected score — and larger `k` from the §2
//! pilot structure. The served `topk_core::TopKIndex` answers every `k`
//! from the pilot structure instead, which measured faster at every scale
//! this repository runs (DESIGN.md §3.6). [`PaperIndex`] keeps the full
//! dispatch so the `exp_*` binaries, the `update_amortized` and
//! `query_scaling` benches and `tests/io_cost.rs` go on measuring the
//! paper's update, space and query claims. It has no stream, cursor or
//! durability.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use emsim::Device;
use epst::{top_k_by_score, PilotPst, Point, ThreeSidedPst};
use kselect::{PolylogConfig, PolylogKSelect, RangeKSelect, St12Config, St12KSelect};
use topk_core::{RankedIndex, Result, TopKError};

/// Which approximate range k-selection structure backs the small-`k` path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallKEngine {
    /// Follow the paper's Theorem 1 dispatch: use the Sheng–Tao-style
    /// structure when `lg n ≤ B^(1/6)` (very large blocks), and the new §3.3
    /// structure otherwise.
    Auto,
    /// Always use the paper's new §3.3 structure (Lemma 4).
    Polylog,
    /// Always use the Sheng–Tao 2012-style baseline.
    St12,
}

impl SmallKEngine {
    /// Resolve [`SmallKEngine::Auto`] for a machine with the given block
    /// size (in words) and an expected input size `n`: the paper uses the
    /// Sheng–Tao structure exactly when `lg n ≤ B^(1/6)`.
    pub fn resolve(self, block_words: usize, n: usize) -> SmallKEngine {
        match self {
            SmallKEngine::Auto => {
                let lg_n = emsim::lg(n.max(2)) as f64;
                let b_sixth = (block_words as f64).powf(1.0 / 6.0);
                if lg_n <= b_sixth {
                    SmallKEngine::St12
                } else {
                    SmallKEngine::Polylog
                }
            }
            forced => forced,
        }
    }
}

/// The index of Theorem 1: a §2 pilot structure for `k ≥ l`, and for
/// `k < l` an approximate range k-selection structure combined with a
/// 3-sided reporter, all on one device.
pub struct PaperIndex {
    device: Device,
    l: usize,
    pilot: PilotPst,
    reporter: ThreeSidedPst,
    select: Box<dyn RangeKSelect + Send + Sync>,
    /// Live scores, to reject duplicate scores as `TopKIndex` does.
    scores: RwLock<HashSet<u64>>,
    len: AtomicU64,
    /// Live size at the last global rebuild.
    size_at_rebuild: AtomicU64,
}

impl PaperIndex {
    /// An empty index on `device` with crossover `l`; [`SmallKEngine::Auto`]
    /// is resolved against `expected_n`.
    pub fn new(device: &Device, engine: SmallKEngine, l: usize, expected_n: usize) -> Self {
        let select: Box<dyn RangeKSelect + Send + Sync> =
            match engine.resolve(device.block_words(), expected_n) {
                SmallKEngine::St12 => Box::new(St12KSelect::new(
                    device,
                    "topk.st12",
                    St12Config::for_device(device),
                )),
                _ => Box::new(PolylogKSelect::new(
                    device,
                    "topk.polylog",
                    PolylogConfig::for_device(device, l),
                )),
            };
        Self {
            device: device.clone(),
            l,
            pilot: PilotPst::new(device, "topk.pilot"),
            reporter: ThreeSidedPst::new(device, "topk.reporter"),
            select,
            scores: RwLock::new(HashSet::new()),
            len: AtomicU64::new(0),
            size_at_rebuild: AtomicU64::new(0),
        }
    }

    /// The device the index lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    fn rebuild(&self, points: &[Point]) {
        self.pilot.rebuild_all(points);
        self.reporter.rebuild_from_points(points);
        self.select.rebuild(points);
        *self.scores.write().expect("score set lock") = points.iter().map(|p| p.score).collect();
        self.len.store(points.len() as u64, Ordering::Relaxed);
        self.size_at_rebuild
            .store(points.len() as u64, Ordering::Relaxed);
    }

    /// The paper's global rebuilding: rebuild every component once the live
    /// size has doubled or halved since the last rebuild.
    fn maybe_rebuild(&self) {
        let n0 = self.size_at_rebuild.load(Ordering::Relaxed).max(64);
        let n = self.len();
        if n > 2 * n0 || (n0 >= 128 && n < n0 / 2) {
            self.rebuild(&self.reporter.all_points());
        }
    }
}

impl RankedIndex for PaperIndex {
    fn engine_name(&self) -> &'static str {
        self.select.name()
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    fn space_blocks(&self) -> u64 {
        (self.pilot.space_blocks() + self.reporter.space_blocks() + self.select.space_blocks())
            as u64
    }

    fn insert(&self, p: Point) -> Result<()> {
        if let Some(&existing) = self.reporter.query(p.x, p.x, 0).first() {
            return Err(TopKError::DuplicateX {
                existing,
                rejected: p,
            });
        }
        if !self.scores.write().expect("score set lock").insert(p.score) {
            return Err(TopKError::DuplicateScore {
                score: p.score,
                rejected: p,
            });
        }
        self.pilot.insert(p);
        self.reporter.insert(p);
        self.select.insert(p);
        self.len.fetch_add(1, Ordering::Relaxed);
        self.maybe_rebuild();
        Ok(())
    }

    fn delete(&self, p: Point) -> Result<bool> {
        if !self.reporter.delete(p) {
            return Ok(false);
        }
        if !self.pilot.delete(p) {
            return Err(TopKError::Inconsistent {
                point: p,
                component: "pilot",
            });
        }
        if !self.select.delete(p) {
            return Err(TopKError::Inconsistent {
                point: p,
                component: "small-k",
            });
        }
        self.scores
            .write()
            .expect("score set lock")
            .remove(&p.score);
        self.len.fetch_sub(1, Ordering::Relaxed);
        self.maybe_rebuild();
        Ok(true)
    }

    fn bulk_build(&self, points: &[Point]) -> Result<()> {
        let mut xs: HashMap<u64, Point> = HashMap::with_capacity(points.len());
        let mut ss: HashSet<u64> = HashSet::with_capacity(points.len());
        for &p in points {
            if let Some(&existing) = xs.get(&p.x) {
                return Err(TopKError::DuplicateX {
                    existing,
                    rejected: p,
                });
            }
            xs.insert(p.x, p);
            if !ss.insert(p.score) {
                return Err(TopKError::DuplicateScore {
                    score: p.score,
                    rejected: p,
                });
            }
        }
        self.rebuild(points);
        Ok(())
    }

    /// Theorem 1's dispatch. For `k < l`: select an approximate rank-`k`
    /// score threshold, report everything above it, keep the exact top `k`.
    /// If the selection under-delivers (possible when the AURS
    /// preconditions are violated, see DESIGN.md §3), the target rank
    /// doubles and the round repeats; the final fallback reports the whole
    /// range.
    fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        if x1 > x2 {
            return Err(TopKError::InvertedRange { x1, x2 });
        }
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        if self.is_empty() {
            return Ok(Vec::new());
        }
        if k >= self.l {
            let mut out = Vec::with_capacity(k.min(self.len() as usize));
            self.pilot.drain(x1, x2).pull(&self.pilot, k, &mut out);
            return Ok(out);
        }
        let total = self.reporter.count_in_range(x1, x2);
        if total <= k as u64 {
            return Ok(top_k_by_score(self.reporter.query(x1, x2, 0), k));
        }
        let mut target = k as u64;
        for _ in 0..8 {
            let tau = self.select.select(x1, x2, target).unwrap_or_default();
            let pts = self.reporter.query(x1, x2, tau);
            if pts.len() >= k || tau == 0 {
                return Ok(top_k_by_score(pts, k));
            }
            target = target.saturating_mul(2);
        }
        Ok(top_k_by_score(self.reporter.query(x1, x2, 0), k))
    }

    fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        if x1 > x2 {
            return Err(TopKError::InvertedRange { x1, x2 });
        }
        Ok(self.reporter.count_in_range(x1, x2))
    }
}

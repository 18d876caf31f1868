//! A classic external priority search tree for 3-sided range reporting:
//! queries `[x1, x2] × [τ, ∞)`.
//!
//! Organization (Arge–Samoladas–Vitter style, adapted to the simulator):
//!
//! * a weight-balanced base tree over the x-coordinates (fan-out `Θ(B)`);
//! * every node `v` owns a *cache page* holding the highest-scoring points of
//!   `v`'s subtree that are **not** stored at an ancestor (leaf pages hold all
//!   remaining points of the leaf), plus the count of points stored strictly
//!   below `v` and, for internal nodes, a per-child summary
//!   `(cache length, min score, max score, below count)`;
//! * invariant: every point cached at `v` has a score at least as large as
//!   every point stored strictly below `v`.
//!
//! A query walks the two boundary paths and descends into a fully covered
//! child only when the parent's summary shows the child may still hold a
//! point above the threshold; every such descent either reports the child's
//! full cache (`Θ(B)` points) or reports every remaining matching point of
//! that subtree, so the cost is `O(log_B n + t/B)` I/Os except for the
//! "partially useful child" case discussed in DESIGN.md §3 (at most one extra
//! I/O per reported block of points, measured in experiment E7).
//!
//! Updates cost `O(log_B n)` amortized: insertions may push one evicted point
//! per level downwards; deletions remove the point where it lives, pull
//! replacements up when a cache gets thin, and trigger a global rebuild after
//! `n/2` weak deletions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use emsim::{BlockFile, Device, Page, PageId};
use wbbtree::{NodeId, WbbChild, WbbConfig, WbbTree};

use crate::point::Point;

/// Parameters of a [`ThreeSidedPst`], derived from the block size by
/// [`ThreeSidedConfig::for_device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeSidedConfig {
    /// Base-tree branching parameter (`Θ(B)` in the paper; bounded so a node
    /// and its child summaries fit in one block).
    pub branching: usize,
    /// Base-tree leaf target (keys per leaf).
    pub leaf_target: usize,
    /// Points per internal cache page.
    pub cache_cap: usize,
}

impl ThreeSidedConfig {
    /// Derive a configuration from the device's block size.
    pub fn for_device(device: &Device) -> Self {
        let b = device.block_words();
        let branching = (b / 64).clamp(2, 32);
        let summary_words = 5 * 4 * branching; // max_children × words per summary
        let cache_cap = ((b.saturating_sub(8 + summary_words)) / Point::WORDS).max(8);
        let leaf_target = ((b.saturating_sub(8)) / (2 * Point::WORDS)).max(4);
        Self {
            branching,
            leaf_target,
            cache_cap,
        }
    }
}

/// Per-child summary stored in the parent's cache page.
#[derive(Debug, Clone, Copy)]
struct ChildSummary {
    child: NodeId,
    cache_len: u32,
    below: u64,
    max_score: u64,
    min_score: u64,
}

/// The page owned by each base-tree node.
#[derive(Debug, Clone, Default)]
struct CachePage {
    /// Points stored at this node (unordered).
    pts: Vec<Point>,
    /// Number of points stored strictly below this node.
    below: u64,
    /// One summary per child (internal nodes only).
    summaries: Vec<ChildSummary>,
}

impl Page for CachePage {
    fn words(&self) -> usize {
        4 + self.pts.len() * Point::WORDS + self.summaries.len() * 5
    }
}

impl CachePage {
    fn min_score(&self) -> Option<u64> {
        self.pts.iter().map(|p| p.score).min()
    }
    fn max_score(&self) -> Option<u64> {
        self.pts.iter().map(|p| p.score).max()
    }
}

/// The 3-sided external priority search tree. See the module docs.
pub struct ThreeSidedPst {
    config: ThreeSidedConfig,
    base: WbbTree<u64>,
    pages: BlockFile<CachePage>,
    /// Directory mapping a base node to its cache page. Conceptually this
    /// pointer lives inside the base-tree node itself; it is kept here because
    /// the base tree is key-generic.
    map: RwLock<HashMap<NodeId, PageId>>,
    len: AtomicU64,
    deletes_since_rebuild: AtomicU64,
}

impl ThreeSidedPst {
    /// Create an empty structure.
    pub fn new(device: &Device, name: &str) -> Self {
        let config = ThreeSidedConfig::for_device(device);
        Self::with_config(device, name, config)
    }

    /// Create an empty structure with explicit parameters.
    pub fn with_config(device: &Device, name: &str, config: ThreeSidedConfig) -> Self {
        let base = WbbTree::new(
            device,
            &format!("{name}.base"),
            WbbConfig::new(config.branching, config.leaf_target, 1),
        );
        let pages = device.open_file::<CachePage>(&format!("{name}.caches"));
        let s = Self {
            config,
            base,
            pages,
            map: RwLock::new(HashMap::new()),
            len: AtomicU64::new(0),
            deletes_since_rebuild: AtomicU64::new(0),
        };
        s.ensure_page(s.base.root());
        s
    }

    /// Number of stored points.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space in blocks (base tree plus cache pages).
    pub fn space_blocks(&self) -> usize {
        self.base.space_blocks() + self.pages.live_pages()
    }

    /// The configuration in use.
    pub fn config(&self) -> ThreeSidedConfig {
        self.config
    }

    // ----- page plumbing -----

    fn page_of(&self, node: NodeId) -> PageId {
        *self
            .map
            .read()
            .unwrap()
            .get(&node)
            // audit: allow(panic_path, reason = "fail-fast on a corrupted node-page map; the node id in the message is the diagnostic")
            .unwrap_or_else(|| panic!("no cache page for base node {node:?}"))
    }

    fn ensure_page(&self, node: NodeId) -> PageId {
        emsim::dir_get_or_insert(&self.map, node, || self.pages.alloc(CachePage::default()))
    }

    #[allow(dead_code)] // kept for symmetry with ensure_page; used by future compaction
    fn drop_page(&self, node: NodeId) {
        if let Some(p) = self.map.write().unwrap().remove(&node) {
            self.pages.free(p);
        }
    }

    /// Recompute the parent-side summary of `child` inside `parent`'s page.
    fn refresh_summary(&self, parent: NodeId, child: NodeId) {
        let child_page = self.page_of(child);
        let (len, below, max_score, min_score) = self.pages.with(child_page, |p| {
            (
                p.pts.len() as u32,
                p.below,
                p.max_score().unwrap_or(0),
                p.min_score().unwrap_or(0),
            )
        });
        let parent_page = self.page_of(parent);
        self.pages.with_mut(parent_page, |p| {
            if let Some(s) = p.summaries.iter_mut().find(|s| s.child == child) {
                s.cache_len = len;
                s.below = below;
                s.max_score = max_score;
                s.min_score = min_score;
            } else {
                p.summaries.push(ChildSummary {
                    child,
                    cache_len: len,
                    below,
                    max_score,
                    min_score,
                });
            }
        });
    }

    /// Rebuild every child summary of `node` from its children's pages.
    fn rebuild_summaries(&self, node: NodeId) {
        let children = self.base.children(node);
        let page = self.page_of(node);
        self.pages.with_mut(page, |p| p.summaries.clear());
        for c in children {
            self.ensure_page(c.id);
            self.refresh_summary(node, c.id);
        }
    }

    fn points_in_subtree(&self, node: NodeId, out: &mut Vec<Point>) {
        let page = self.page_of(node);
        self.pages.with(page, |p| out.extend(p.pts.iter().copied()));
        for c in self.base.children(node) {
            self.points_in_subtree(c.id, out);
        }
    }

    fn count_below(&self, node: NodeId) -> u64 {
        let mut total = 0u64;
        for c in self.base.children(node) {
            let page = self.page_of(c.id);
            total += self.pages.with(page, |p| p.pts.len() as u64);
            total += self.count_below(c.id);
        }
        total
    }

    // ----- construction -----

    /// Rebuild the whole structure from `points` (arbitrary order, distinct
    /// coordinates and scores). Cost `O(n/B + #nodes)` I/Os.
    pub fn rebuild_from_points(&self, points: &[Point]) {
        // Free existing cache pages.
        let old: Vec<PageId> = self.map.read().unwrap().values().copied().collect();
        for p in old {
            self.pages.free(p);
        }
        self.map.write().unwrap().clear();

        let mut xs: Vec<u64> = points.iter().map(|p| p.x).collect();
        xs.sort_unstable();
        xs.dedup();
        self.base.bulk_load(&xs);
        self.len.store(points.len() as u64, Ordering::Relaxed);
        self.deletes_since_rebuild.store(0, Ordering::Relaxed);

        let mut sorted: Vec<Point> = points.to_vec();
        sorted.sort_unstable_by_key(|p| std::cmp::Reverse(p.score));
        self.build_rec(self.base.root(), sorted);
    }

    /// Distribute `pts` (sorted by descending score) over the subtree of
    /// `node`: the top `cache_cap` stay here, the rest are partitioned among
    /// the children.
    fn build_rec(&self, node: NodeId, pts: Vec<Point>) {
        let page = self.ensure_page(node);
        let children = self.base.children(node);
        if children.is_empty() {
            self.pages.with_mut(page, |p| {
                p.pts = pts;
                p.below = 0;
                p.summaries.clear();
            });
            return;
        }
        let keep = pts.len().min(self.config.cache_cap);
        let (here, rest) = pts.split_at(keep);
        self.pages.with_mut(page, |p| {
            p.pts = here.to_vec();
            p.below = rest.len() as u64;
            p.summaries.clear();
        });
        // Partition the remainder by child slab.
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); children.len()];
        for &pt in rest {
            let idx = children
                .partition_point(|c| c.max_key < pt.x)
                .min(children.len() - 1);
            buckets[idx].push(pt);
        }
        for (c, bucket) in children.iter().zip(buckets) {
            self.build_rec(c.id, bucket);
        }
        self.rebuild_summaries(node);
    }

    // ----- updates -----

    /// Insert a point (distinct x and score). `O(log_B n)` amortized I/Os.
    pub fn insert(&self, pt: Point) {
        let report = self.base.insert(pt.x);
        debug_assert!(report.inserted, "coordinates must be distinct");
        self.handle_splits(&report);

        // Cache descent.
        let mut path: Vec<NodeId> = Vec::new();
        let mut cur = self.base.root();
        let mut carry = pt;
        loop {
            path.push(cur);
            let page = self.ensure_page(cur);
            let children = self.base.children(cur);
            if children.is_empty() {
                self.pages.with_mut(page, |p| p.pts.push(carry));
                break;
            }
            let (below, min_score, cache_len) = self
                .pages
                .with(page, |p| (p.below, p.min_score(), p.pts.len()));
            // The carry belongs here if it beats the cache minimum, or if
            // nothing is stored below and the cache still has room. (A full
            // cache with `below == 0` must NOT capture a carry that scores
            // under its minimum: swapping would send the evicted — larger —
            // point below the smaller one and break the heap order.)
            let insert_here = (below == 0 && cache_len < self.config.cache_cap)
                || (cache_len > 0 && carry.score > min_score.unwrap_or(0));
            if insert_here && cache_len < self.config.cache_cap {
                self.pages.with_mut(page, |p| p.pts.push(carry));
                break;
            }
            if insert_here {
                // Swap with the cache minimum and keep descending with it.
                let evicted = self.pages.with_mut(page, |p| {
                    let (idx, _) = p
                        .pts
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, q)| q.score)
                        .expect("cache is full, hence non-empty");
                    let evicted = p.pts.swap_remove(idx);
                    p.pts.push(carry);
                    p.below += 1;
                    evicted
                });
                carry = evicted;
            } else {
                self.pages.with_mut(page, |p| p.below += 1);
            }
            let idx = children
                .partition_point(|c| c.max_key < carry.x)
                .min(children.len() - 1);
            cur = children[idx].id;
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        self.refresh_path_summaries(&path);
    }

    /// Delete a point (exact x and score). Returns `false` if absent.
    /// `O(log_B n)` amortized I/Os.
    pub fn delete(&self, pt: Point) -> bool {
        // Locate the holder along the x-path.
        let mut path: Vec<NodeId> = Vec::new();
        let mut cur = self.base.root();
        let holder = loop {
            path.push(cur);
            let page = self.page_of(cur);
            let found = self.pages.with(page, |p| {
                p.pts.iter().any(|q| q.x == pt.x && q.score == pt.score)
            });
            if found {
                break Some(cur);
            }
            let children = self.base.children(cur);
            if children.is_empty() {
                break None;
            }
            let idx = children
                .partition_point(|c| c.max_key < pt.x)
                .min(children.len() - 1);
            cur = children[idx].id;
        };
        let Some(holder) = holder else {
            return false;
        };

        self.base.delete(pt.x);
        let holder_page = self.page_of(holder);
        self.pages.with_mut(holder_page, |p| {
            p.pts.retain(|q| !(q.x == pt.x && q.score == pt.score));
        });
        // The point was below every strict ancestor on the path.
        for &n in path.iter().take_while(|&&n| n != holder) {
            let page = self.page_of(n);
            self.pages
                .with_mut(page, |p| p.below = p.below.saturating_sub(1));
        }
        // Pull replacements up if the holder's cache got thin.
        let (len_now, below_now) = self.pages.with(holder_page, |p| (p.pts.len(), p.below));
        if !self.base.is_leaf(holder) && below_now > 0 && len_now < self.config.cache_cap / 2 {
            self.refill(holder);
        }
        self.len.fetch_sub(1, Ordering::Relaxed);
        self.refresh_path_summaries(&path);

        // Periodic global rebuild clears the damage of weak deletions.
        self.deletes_since_rebuild.fetch_add(1, Ordering::Relaxed);
        if self.deletes_since_rebuild.load(Ordering::Relaxed) > self.len() / 2 + 16 {
            let mut pts = Vec::with_capacity(self.len() as usize);
            self.points_in_subtree(self.base.root(), &mut pts);
            self.rebuild_from_points(&pts);
        }
        true
    }

    fn refresh_path_summaries(&self, path: &[NodeId]) {
        for w in path.windows(2).rev() {
            self.refresh_summary(w[0], w[1]);
        }
    }

    /// Pull the best points from below into `node`'s cache until it is half
    /// full or the subtree below is exhausted (the pull-up of the paper).
    fn refill(&self, node: NodeId) {
        let page = self.page_of(node);
        loop {
            let (len, below) = self.pages.with(page, |p| (p.pts.len(), p.below));
            if below == 0 || len >= self.config.cache_cap / 2 {
                break;
            }
            // Pick the child whose cache currently holds the best point.
            let children = self.base.children(node);
            let mut best: Option<(NodeId, u64, bool)> = None;
            for c in &children {
                let cp = self.page_of(c.id);
                let (clen, cbelow, _cmax) = self
                    .pages
                    .with(cp, |p| (p.pts.len(), p.below, p.max_score().unwrap_or(0)));
                if clen == 0 && cbelow > 0 && !self.base.is_leaf(c.id) {
                    // The child's own cache is empty but it has points below:
                    // refill it first so we can pull from it — and refresh
                    // our summary of it, which the recursive refill changed
                    // whether or not we end up pulling from this child.
                    self.refill(c.id);
                    self.refresh_summary(node, c.id);
                }
                let (clen, cmax) = self
                    .pages
                    .with(cp, |p| (p.pts.len(), p.max_score().unwrap_or(0)));
                if clen > 0 {
                    let better = best.map(|(_, s, _)| cmax > s).unwrap_or(true);
                    if better {
                        best = Some((c.id, cmax, true));
                    }
                }
            }
            let Some((child, _, _)) = best else { break };
            let child_page = self.page_of(child);
            let pulled = self.pages.with_mut(child_page, |p| {
                let (idx, _) = p
                    .pts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, q)| q.score)
                    .expect("child cache is non-empty");
                p.pts.swap_remove(idx)
            });
            self.pages.with_mut(page, |p| {
                p.pts.push(pulled);
                p.below -= 1;
            });
            self.refresh_summary(node, child);
        }
    }

    /// React to base-tree splits: split the affected cache pages by
    /// coordinate, recount the below counters and rebuild summaries.
    fn handle_splits(&self, report: &wbbtree::InsertReport) {
        if report.splits.is_empty() {
            return;
        }
        for ev in &report.splits {
            let old_page = self.ensure_page(ev.node);
            let sibling_page = self.ensure_page(ev.new_sibling);
            let boundary = self.base.max_key(ev.node).expect("split node is non-empty");
            // Points with x beyond the boundary move to the new sibling.
            let moved: Vec<Point> = self.pages.with_mut(old_page, |p| {
                let moved: Vec<Point> = p.pts.iter().copied().filter(|q| q.x > boundary).collect();
                p.pts.retain(|q| q.x <= boundary);
                moved
            });
            self.pages.with_mut(sibling_page, |p| p.pts.extend(moved));
            // Recount below for both halves (paid for by the Ω(weight) updates
            // between splits of the same region).
            let below_old = self.count_below(ev.node);
            let below_new = self.count_below(ev.new_sibling);
            self.pages.with_mut(old_page, |p| p.below = below_old);
            self.pages.with_mut(sibling_page, |p| p.below = below_new);
            self.rebuild_summaries(ev.node);
            self.rebuild_summaries(ev.new_sibling);
            self.ensure_page(ev.parent);
            self.rebuild_summaries(ev.parent);
        }
        if let Some(new_root) = report.new_root {
            let page = self.ensure_page(new_root);
            let below = self.count_below(new_root);
            self.pages.with_mut(page, |p| p.below = below);
            self.rebuild_summaries(new_root);
            // Saturate the new root so queries keep finding the global top
            // points near the root.
            self.refill(new_root);
            self.rebuild_summaries(new_root);
        }
    }

    // ----- queries -----

    /// Report every point with `x ∈ [x1, x2]` and `score ≥ tau`.
    pub fn query(&self, x1: u64, x2: u64, tau: u64) -> Vec<Point> {
        let mut out = Vec::new();
        if x1 <= x2 && !self.is_empty() {
            self.query_rec(self.base.root(), x1, x2, tau, true, true, &mut out);
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn query_rec(
        &self,
        node: NodeId,
        x1: u64,
        x2: u64,
        tau: u64,
        lo_cut: bool,
        hi_cut: bool,
        out: &mut Vec<Point>,
    ) {
        let page = self.page_of(node);
        self.pages.with(page, |p| {
            out.extend(
                p.pts
                    .iter()
                    .filter(|q| q.x >= x1 && q.x <= x2 && q.score >= tau)
                    .copied(),
            )
        });
        let children = self.base.children(node);
        if children.is_empty() {
            return;
        }
        let il = if lo_cut {
            children.partition_point(|c| c.max_key < x1)
        } else {
            0
        };
        if il == children.len() {
            return;
        }
        let ih = if hi_cut {
            children
                .partition_point(|c| c.max_key < x2)
                .min(children.len() - 1)
        } else {
            children.len() - 1
        };
        if il > ih {
            return;
        }
        let summaries: Vec<ChildSummary> = self.pages.with(page, |p| p.summaries.clone());
        for (i, c) in children.iter().enumerate().take(ih + 1).skip(il) {
            let boundary_lo = lo_cut && i == il;
            let boundary_hi = hi_cut && i == ih;
            if boundary_lo || boundary_hi {
                self.query_rec(c.id, x1, x2, tau, boundary_lo, boundary_hi, out);
                continue;
            }
            let summ = summaries.iter().find(|s| s.child == c.id);
            let visit = match summ {
                Some(s) => {
                    if s.cache_len == 0 {
                        s.below > 0
                    } else {
                        s.max_score >= tau
                    }
                }
                // No summary (stale directory): be safe and visit.
                None => true,
            };
            if visit {
                self.query_rec(c.id, x1, x2, tau, false, false, out);
            }
        }
    }

    /// Number of stored points with `x ∈ [x1, x2]`, in `O(log_B n)` I/Os.
    pub fn count_in_range(&self, x1: u64, x2: u64) -> u64 {
        if x1 > x2 || self.is_empty() {
            return 0;
        }
        let mut total = 0u64;
        for piece in self.base.canonical_decompose(x1, x2) {
            match piece {
                wbbtree::CanonicalPiece::Leaf(leaf) => {
                    total += self
                        .base
                        .leaf_keys(leaf)
                        .into_iter()
                        .filter(|&k| k >= x1 && k <= x2)
                        .count() as u64;
                }
                wbbtree::CanonicalPiece::MultiSlab {
                    node,
                    child_lo,
                    child_hi,
                } => {
                    let children: Vec<WbbChild<u64>> = self.base.children(node);
                    total += children[child_lo..=child_hi]
                        .iter()
                        .map(|c| c.weight)
                        .sum::<u64>();
                }
            }
        }
        total
    }

    /// All stored points (testing / rebuild support).
    pub fn all_points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.len() as usize);
        self.points_in_subtree(self.base.root(), &mut out);
        out
    }

    // ----- invariants -----

    /// Verify the structural invariants (test support): below counts, the
    /// order invariant between a cache and its subtree, and the summaries.
    pub fn check_invariants(&self) {
        let total = self.check_rec(self.base.root(), u64::MAX);
        assert_eq!(total, self.len(), "stored point count disagrees");
    }

    fn check_rec(&self, node: NodeId, ancestor_min: u64) -> u64 {
        let page = self.page_of(node);
        let (pts, below, summaries) = self
            .pages
            .with(page, |p| (p.pts.clone(), p.below, p.summaries.clone()));
        for p in &pts {
            assert!(
                p.score <= ancestor_min,
                "cache point {:?} exceeds an ancestor's minimum {ancestor_min}",
                p
            );
        }
        let my_min = pts.iter().map(|p| p.score).min().unwrap_or(ancestor_min);
        let children = self.base.children(node);
        let mut below_actual = 0;
        for c in &children {
            let cp = self.page_of(c.id);
            let (clen, cbelow, cmax, cmin) = self.pages.with(cp, |p| {
                (
                    p.pts.len() as u32,
                    p.below,
                    p.max_score().unwrap_or(0),
                    p.min_score().unwrap_or(0),
                )
            });
            if let Some(s) = summaries.iter().find(|s| s.child == c.id) {
                assert_eq!(s.cache_len, clen, "stale summary len");
                assert_eq!(s.below, cbelow, "stale summary below");
                assert_eq!(s.max_score, cmax, "stale summary max");
                assert_eq!(s.min_score, cmin, "stale summary min");
            } else {
                // audit: allow(panic_path, reason = "check_rec is the consistency checker; panicking on corruption is its contract")
                panic!("missing summary for child {:?}", c.id);
            }
            // The recursive call returns the child's full subtree point count
            // (its own cache included), which is exactly what lies below us.
            below_actual += self.check_rec(c.id, my_min);
        }
        assert_eq!(below, below_actual, "below counter is stale");
        pts.len() as u64 + below_actual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::EmConfig;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(EmConfig::new(128, 64 * 128))
    }

    fn random_points(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let mut scores: Vec<u64> = (0..n as u64).map(|i| i * 7 + 5).collect();
        xs.shuffle(&mut rng);
        scores.shuffle(&mut rng);
        xs.into_iter()
            .zip(scores)
            .map(|(x, score)| Point { x, score })
            .collect()
    }

    fn oracle_query(pts: &[Point], x1: u64, x2: u64, tau: u64) -> Vec<Point> {
        let mut v: Vec<Point> = pts
            .iter()
            .filter(|p| p.x >= x1 && p.x <= x2 && p.score >= tau)
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    fn sorted(mut v: Vec<Point>) -> Vec<Point> {
        v.sort_unstable();
        v
    }

    #[test]
    fn descending_scores_at_ascending_x_keep_heap_order() {
        // Regression: a node with `below == 0` and a full cache used to
        // capture a carry scoring under its cache minimum, swap-evicting the
        // larger minimum downwards and breaking the heap-order invariant.
        // Anti-correlated insertion order (ascending x, descending score)
        // hits that shape within a few hundred points.
        let dev = device();
        let pst = ThreeSidedPst::new(&dev, "pst");
        let mut pts = Vec::new();
        for i in 0..1200u64 {
            let p = Point {
                x: i * 3 + 1,
                score: 100_000 - i * 7,
            };
            pst.insert(p);
            pts.push(p);
            if i % 50 == 0 {
                pst.check_invariants();
            }
        }
        pst.check_invariants();
        assert_eq!(
            sorted(pst.query(10, 2_000, 96_000)),
            oracle_query(&pts, 10, 2_000, 96_000)
        );
    }

    #[test]
    fn insert_only_matches_oracle() {
        let dev = device();
        let pst = ThreeSidedPst::new(&dev, "pst");
        let pts = random_points(1, 1500);
        for (i, &p) in pts.iter().enumerate() {
            pst.insert(p);
            if i % 500 == 0 {
                pst.check_invariants();
            }
        }
        pst.check_invariants();
        assert_eq!(pst.len(), 1500);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..40 {
            let a = rng.gen_range(0..4500u64);
            let b = rng.gen_range(a..=4500u64);
            let tau = rng.gen_range(0..12000u64);
            let got = sorted(pst.query(a, b, tau));
            assert_eq!(
                got,
                oracle_query(&pts, a, b, tau),
                "range [{a},{b}] tau {tau}"
            );
        }
    }

    #[test]
    fn deletes_match_oracle_and_trigger_rebuild() {
        let dev = device();
        let pst = ThreeSidedPst::new(&dev, "pst");
        let pts = random_points(3, 800);
        for &p in &pts {
            pst.insert(p);
        }
        let mut rng = StdRng::seed_from_u64(4);
        let mut live: Vec<Point> = pts.clone();
        // Delete most points to force at least one global rebuild.
        for _ in 0..600 {
            let idx = rng.gen_range(0..live.len());
            let victim = live.swap_remove(idx);
            assert!(pst.delete(victim));
        }
        assert!(!pst.delete(Point {
            x: 999_999,
            score: 1
        }));
        assert_eq!(pst.len(), live.len() as u64);
        pst.check_invariants();
        for _ in 0..25 {
            let a = rng.gen_range(0..2400u64);
            let b = rng.gen_range(a..=2400u64);
            let tau = rng.gen_range(0..6000u64);
            let got = sorted(pst.query(a, b, tau));
            assert_eq!(got, oracle_query(&live, a, b, tau));
        }
    }

    #[test]
    fn bulk_rebuild_matches_oracle() {
        let dev = device();
        let pst = ThreeSidedPst::new(&dev, "pst");
        let pts = random_points(7, 2000);
        pst.rebuild_from_points(&pts);
        pst.check_invariants();
        assert_eq!(pst.len(), 2000);
        let got = sorted(pst.query(0, u64::MAX, 0));
        assert_eq!(got, sorted(pts.clone()));
        let got = sorted(pst.query(100, 2000, 9000));
        assert_eq!(got, oracle_query(&pts, 100, 2000, 9000));
        assert_eq!(pst.count_in_range(0, u64::MAX), 2000);
        assert_eq!(
            pst.count_in_range(100, 2000),
            pts.iter().filter(|p| p.x >= 100 && p.x <= 2000).count() as u64
        );
    }

    #[test]
    fn mixed_workload_matches_oracle() {
        let dev = device();
        let pst = ThreeSidedPst::new(&dev, "pst");
        let mut rng = StdRng::seed_from_u64(11);
        let mut live: Vec<Point> = Vec::new();
        let mut next = 1u64;
        for step in 0..3000 {
            if !live.is_empty() && rng.gen_bool(0.3) {
                let idx = rng.gen_range(0..live.len());
                let victim = live.swap_remove(idx);
                assert!(pst.delete(victim));
            } else {
                let p = Point {
                    x: next * 13 % 100_003,
                    score: next * 17,
                };
                next += 1;
                live.push(p);
                pst.insert(p);
            }
            if step % 700 == 0 {
                pst.check_invariants();
            }
        }
        pst.check_invariants();
        for _ in 0..30 {
            let a = rng.gen_range(0..100_003u64);
            let b = rng.gen_range(a..=100_003u64);
            let tau = rng.gen_range(0..next * 17);
            assert_eq!(sorted(pst.query(a, b, tau)), oracle_query(&live, a, b, tau));
        }
    }

    #[test]
    fn query_io_is_logarithmic_for_small_output() {
        let dev = Device::new(EmConfig::new(256, 8 * 256));
        let pst = ThreeSidedPst::new(&dev, "pst");
        let pts = random_points(5, 30_000);
        pst.rebuild_from_points(&pts);
        dev.drop_cache();
        // A threshold higher than every score returns nothing and should only
        // walk the two boundary paths.
        let (res, cost) = dev.measure(|| pst.query(10_000, 60_000, u64::MAX));
        assert!(res.is_empty());
        assert!(
            cost.reads <= 40,
            "empty-output query should touch O(log_B n) pages, read {}",
            cost.reads
        );
    }
}

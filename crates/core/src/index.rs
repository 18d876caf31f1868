//! The served index: the §2 pilot structure answers every top-k query, the
//! 3-sided reporter answers counts and point lookups.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use emsim::Device;
use epst::{PilotPst, Point, ThreeSidedPst};

use crate::batch::{BatchSummary, UpdateBatch};
use crate::builder::IndexBuilder;
use crate::config::TopKConfig;
use crate::error::{Result, TopKError};
use crate::persist::{DurableStats, DurableStore, OP_DELETE, OP_INSERT};
use crate::query::{QueryRequest, TopKResults};

/// The dynamic top-k range reporting index. See the crate docs for the
/// guarantees and an example.
///
/// Constructed with [`TopKIndex::builder`]; all operations return
/// [`Result`], rejecting misuse (duplicate coordinates or scores, inverted
/// ranges, `k == 0`) instead of panicking or silently corrupting state.
pub struct TopKIndex {
    device: Device,
    config: TopKConfig,
    /// §2 structure: answers every top-k query, eager or streamed.
    pilot: PilotPst,
    /// 3-sided reporter: range counts, point lookups (and so the
    /// duplicate-coordinate check) and the full point scan of rebuilds.
    reporter: ThreeSidedPst,
    /// Live size at the last global rebuild, for the rebuild policy.
    size_at_rebuild: AtomicU64,
    len: AtomicU64,
    /// Monotone write-version stamp, bumped by every committed mutation
    /// (insert, delete, rebuild). [`Consistency::Strict`](crate::Consistency)
    /// cursors compare it across fetch rounds to detect interleaved writes.
    version: AtomicU64,
    /// The set of live scores, kept RAM-side purely to validate the model's
    /// distinct-scores precondition on insert (DESIGN.md §5: validation
    /// metadata lives outside the EM space accounting; coordinates are
    /// validated structurally through the reporter instead).
    scores: RwLock<HashSet<u64>>,
    /// The durable store when the index was opened on a directory
    /// ([`TopKIndex::open_durable`]); `None` for in-RAM indexes.
    durable: Option<DurableStore>,
    /// The version stamp recovered from the journal at open time (`None`
    /// unless this handle came from [`TopKIndex::open_durable`]).
    recovered: Option<u64>,
}

impl TopKIndex {
    /// Start building an index: `TopKIndex::builder().expected_n(n).build()?`.
    /// See [`IndexBuilder`] for all the knobs.
    pub fn builder() -> IndexBuilder {
        IndexBuilder::new()
    }

    /// Create an empty index on `device`.
    pub fn new(device: &Device, config: TopKConfig) -> Self {
        Self {
            device: device.clone(),
            config,
            pilot: PilotPst::new(device, "topk.pilot"),
            reporter: ThreeSidedPst::new(device, "topk.reporter"),
            size_at_rebuild: AtomicU64::new(0),
            len: AtomicU64::new(0),
            version: AtomicU64::new(0),
            scores: RwLock::new(HashSet::new()),
            durable: None,
            recovered: None,
        }
    }

    /// Open (or create) a **durable** index whose store lives in `dir`:
    /// recover the operation log and snapshot, rebuild the in-RAM structures
    /// on `device` from the recovered point set, and resume stamping from
    /// the recovered version. From then on every committed mutation is
    /// logged and made durable before it returns (DESIGN.md §10) — after a
    /// crash, reopening recovers exactly the operations whose commit
    /// returned `Ok`.
    ///
    /// Prefer the builder: `TopK::builder().durable(dir).build_auto()?`.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if the directory is already open, cannot be
    /// read, or holds a corrupt snapshot.
    pub fn open_durable(device: &Device, config: TopKConfig, dir: &Path) -> Result<Self> {
        let (store, points, stamp) = DurableStore::open(dir)?;
        let index = TopKIndex::new(device, config);
        if !points.is_empty() {
            // `durable` is still `None` here, so the rebuild does not
            // re-journal what the store just told us.
            index.rebuild_unvalidated(&points);
        }
        index.version.store(stamp, Ordering::Release);
        let index = TopKIndex {
            durable: Some(store),
            recovered: Some(stamp),
            ..index
        };
        // Reopen cost stays O(n): a log that outgrew its live set is
        // compacted now instead of being replayed again next time.
        if let Some(d) = &index.durable {
            if d.needs_compact(index.len()) {
                d.compact(&points, stamp);
            }
        }
        index.durable_commit()?;
        Ok(index)
    }

    /// The monotone write-version stamp: strictly increases with every
    /// committed mutation (including internal rebuilds, which relocate
    /// points without changing the answer set). Two equal stamps therefore
    /// guarantee that no write committed in between; the converse does not
    /// hold. Strict cursors use it to detect interleaved writers.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The version stamp recovered from the operation journal when this
    /// handle was created by [`TopKIndex::open_durable`]; `None` for plain
    /// in-RAM indexes. Every operation committed before a crash has a stamp
    /// `≤` this value on reopen; nothing uncommitted survives.
    pub fn recovered_stamp(&self) -> Option<u64> {
        self.recovered
    }

    /// Whether this index journals its operations to a durable store.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Counters of the durable store since open (all zero when in RAM).
    pub fn durable_stats(&self) -> DurableStats {
        self.durable
            .as_ref()
            .map(DurableStore::stats)
            .unwrap_or_default()
    }

    /// The device the index lives on (useful for reading I/O statistics).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configuration in use.
    pub fn config(&self) -> TopKConfig {
        self.config
    }

    /// Number of stored points.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space occupied by all components, in blocks.
    pub fn space_blocks(&self) -> u64 {
        (self.pilot.space_blocks() + self.reporter.space_blocks()) as u64
    }

    /// The point stored at coordinate `x`, if any (`O(log_B n)` I/Os).
    pub fn get(&self, x: u64) -> Option<Point> {
        self.reporter.query(x, x, 0).into_iter().next()
    }

    // ----- updates -----

    /// Insert a point. `O(log_B n)` amortized I/Os: the duplicate-coordinate
    /// check adds one extra reporter probe (`O(log_B n)` itself, so the
    /// bound is unchanged, though the constant is higher than the seed's
    /// unvalidated insert — `UpdateBatch` amortizes it away for bulk work).
    ///
    /// # Errors
    ///
    /// [`TopKError::DuplicateX`] / [`TopKError::DuplicateScore`] if the
    /// model's distinctness preconditions would be violated; the index is
    /// unchanged in that case.
    pub fn insert(&self, p: Point) -> Result<()> {
        if let Some(existing) = self.get(p.x) {
            return Err(TopKError::DuplicateX {
                existing,
                rejected: p,
            });
        }
        if self.score_exists(p.score) {
            return Err(TopKError::DuplicateScore {
                score: p.score,
                rejected: p,
            });
        }
        self.insert_validated(p);
        self.maybe_rebuild();
        self.maybe_compact_journal();
        self.durable_commit()
    }

    /// Delete a point (exact coordinate and score). Returns `Ok(false)` if it
    /// was not present. `O(log_B n)` amortized I/Os.
    ///
    /// # Errors
    ///
    /// [`TopKError::Inconsistent`] if the component structures disagree about
    /// membership — the release-mode promotion of the seed's
    /// `debug_assert!`s. The index must be considered corrupted afterwards.
    pub fn delete(&self, p: Point) -> Result<bool> {
        let deleted = self.delete_validated(p)?;
        if deleted {
            self.maybe_rebuild();
            self.maybe_compact_journal();
            self.durable_commit()?;
        }
        Ok(deleted)
    }

    /// Build the index from scratch out of `points` (`O((n/B)·log_B n)`
    /// I/Os), replacing the current contents.
    ///
    /// # Errors
    ///
    /// [`TopKError::DuplicateX`] / [`TopKError::DuplicateScore`] if `points`
    /// repeats a coordinate or a score; the index is unchanged in that case.
    pub fn bulk_build(&self, points: &[Point]) -> Result<()> {
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
        self.rebuild_unvalidated(points);
        self.durable_commit()
    }

    /// Apply a batch of updates: the whole batch is validated up front
    /// (against the index *and* against earlier operations in the batch), so
    /// either every operation is applied or none is. The global-rebuild check
    /// runs once at commit instead of once per operation.
    ///
    /// On [`ConcurrentTopK`](crate::ConcurrentTopK), prefer
    /// [`ConcurrentTopK::apply`](crate::ConcurrentTopK::apply), which wraps
    /// this in a single write-lock acquisition.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        crate::batch::apply_to(self, batch)
    }

    // ----- internal update plumbing (shared with the batch path) -----

    /// Whether `score` is live. Validation metadata only — costs no I/Os.
    pub(crate) fn score_exists(&self, score: u64) -> bool {
        self.scores.read().unwrap().contains(&score)
    }

    /// Insert into every component without validating or checking the
    /// rebuild policy. The caller has already validated distinctness.
    pub(crate) fn insert_validated(&self, p: Point) {
        self.pilot.insert(p);
        self.reporter.insert(p);
        self.scores.write().unwrap().insert(p.score);
        self.len.fetch_add(1, Ordering::Relaxed);
        let stamp = self.version.fetch_add(1, Ordering::Release) + 1;
        if let Some(d) = &self.durable {
            d.append(OP_INSERT, p, stamp);
        }
    }

    /// Delete from every component without checking the rebuild policy.
    pub(crate) fn delete_validated(&self, p: Point) -> Result<bool> {
        if !self.reporter.delete(p) {
            return Ok(false);
        }
        if !self.pilot.delete(p) {
            return Err(TopKError::Inconsistent {
                point: p,
                component: "pilot",
            });
        }
        self.scores.write().unwrap().remove(&p.score);
        self.len.fetch_sub(1, Ordering::Relaxed);
        let stamp = self.version.fetch_add(1, Ordering::Release) + 1;
        if let Some(d) = &self.durable {
            d.append(OP_DELETE, p, stamp);
        }
        Ok(true)
    }

    /// Rebuild every component from `points` without re-validating
    /// distinctness (used by the global-rebuild path, whose points come out
    /// of the structure itself, and by `bulk_build` after validation).
    pub(crate) fn rebuild_unvalidated(&self, points: &[Point]) {
        self.pilot.rebuild_all(points);
        self.reporter.rebuild_from_points(points);
        *self.scores.write().unwrap() = points.iter().map(|p| p.score).collect();
        self.len.store(points.len() as u64, Ordering::Relaxed);
        self.size_at_rebuild
            .store(points.len() as u64, Ordering::Relaxed);
        let stamp = self.version.fetch_add(1, Ordering::Release) + 1;
        if let Some(d) = &self.durable {
            // A rebuild's content *is* the live set: journal it as a
            // snapshot, which also truncates the accumulated stream.
            d.compact(points, stamp);
        }
    }

    /// The paper's global rebuilding: once the live size has doubled or halved
    /// relative to the last rebuild, rebuild every component. Amortized over
    /// the `Ω(n)` updates in between this costs `O(log_B n)` per update.
    pub(crate) fn maybe_rebuild(&self) {
        let n0 = self.size_at_rebuild.load(Ordering::Relaxed).max(64);
        let n = self.len();
        let factor = self.config.rebuild_factor.max(2);
        if n > factor * n0 || (n0 >= 128 && n < n0 / factor) {
            let pts = self.reporter.all_points();
            self.rebuild_unvalidated(&pts);
        }
    }

    /// Compact the journal once it outgrows the live set. Workloads that
    /// churn around a constant size never trigger the size-drift rebuild, so
    /// this is what keeps their journal at `O(n/B)` blocks.
    pub(crate) fn maybe_compact_journal(&self) {
        if let Some(d) = &self.durable {
            if d.needs_compact(self.len()) {
                let pts = self.reporter.all_points();
                d.compact(&pts, self.version());
            }
        }
    }

    /// Make the journal appends of the operation that just ran durable. No-op
    /// on non-durable indexes.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if the commit fails — the in-RAM index may then
    /// be ahead of the durable state: treat the handle as lost and reopen
    /// from the directory.
    pub(crate) fn durable_commit(&self) -> Result<()> {
        match &self.durable {
            Some(d) => d.commit(),
            None => Ok(()),
        }
    }

    // ----- queries -----

    /// Report the `k` highest-scoring points with `x ∈ [x1, x2]`, sorted by
    /// descending score (fewer if the range holds fewer points).
    ///
    /// Cost: `O(lg n + k/B)` I/Os, one bulk pull from a §2 pilot drain. To
    /// consume the answer incrementally — paying only for the prefix actually
    /// taken — use [`TopKIndex::stream`].
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2`, [`TopKError::ZeroK`] if
    /// `k == 0` (the seed code answered both with a silent empty vector).
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        validate_query(x1, x2, k)?;
        #[allow(unused_mut)]
        let mut out = self.query_unvalidated(x1, x2, k);
        #[cfg(feature = "testkit-hooks")]
        crate::hooks::mutate_answer(&mut out);
        Ok(out)
    }

    /// Stream the answer to `request` lazily, in descending score order: see
    /// [`TopKResults`]. The pilot fetch rounds run only as the caller demands
    /// more points, so taking a short prefix of a large `k` never
    /// materializes the rest.
    ///
    /// The iterator borrows the index; on a
    /// [`ConcurrentTopK`](crate::ConcurrentTopK), stream through a read
    /// guard: `let g = idx.read(); for p in g.stream(req)? { … }` — or, for
    /// long-lived consumers that must not block writers, use the owned
    /// [`QueryCursor`](crate::QueryCursor) instead.
    ///
    /// # Errors
    ///
    /// The same validation as [`TopKIndex::query`], performed up front, plus
    /// [`TopKError::InvalidConfig`] for the cursor-only request extensions
    /// (multiple ranges, a score floor, a resume position).
    pub fn stream(&self, request: QueryRequest) -> Result<TopKResults<'_>> {
        TopKResults::new(self, request)
    }

    /// Open an owned [`QueryCursor`](crate::QueryCursor) over this bare
    /// index (consumes an `Arc` clone: `index.clone().cursor(req)?`). The
    /// bare index has no logical-atomicity lock, so the cursor is only
    /// meaningful without concurrent writers — under concurrency, take the
    /// cursor from [`ConcurrentTopK`](crate::ConcurrentTopK::cursor) or
    /// [`ShardedTopK`](crate::ShardedTopK::cursor) instead.
    pub fn cursor(
        self: std::sync::Arc<Self>,
        request: QueryRequest,
    ) -> Result<crate::cursor::QueryCursor> {
        crate::cursor::QueryCursor::new(crate::facade::TopK::Single(self), request)
    }

    /// The eager query path: one bulk pull from a §2 pilot drain. The
    /// best-first drain stops at the `O(lg n + k/B)` page set that proves
    /// the top `k` (DESIGN.md §6).
    pub(crate) fn query_unvalidated(&self, x1: u64, x2: u64, k: usize) -> Vec<Point> {
        if k == 0 || x1 > x2 || self.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(k.min(self.len() as usize));
        self.pilot.drain(x1, x2).pull(&self.pilot, k, &mut out);
        out
    }

    /// Number of points with `x ∈ [x1, x2]` (`O(log_B n)` I/Os).
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2` — the same validation as
    /// [`TopKIndex::query`] (this used to silently answer 0).
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        if x1 > x2 {
            return Err(TopKError::InvertedRange { x1, x2 });
        }
        Ok(self.reporter.count_in_range(x1, x2))
    }

    /// The unvalidated count, for internal callers that have already
    /// validated (or canonicalized) the range.
    pub(crate) fn count_unvalidated(&self, x1: u64, x2: u64) -> u64 {
        self.reporter.count_in_range(x1, x2)
    }

    /// All stored points (an `O(n/B)` scan; used by rebuilds and tests).
    pub fn all_points(&self) -> Vec<Point> {
        self.reporter.all_points()
    }

    pub(crate) fn pilot(&self) -> &PilotPst {
        &self.pilot
    }

    /// Run the internal consistency checks of every component (test support).
    pub fn check_invariants(&self) {
        self.pilot.check_invariants();
        self.reporter.check_invariants();
        assert_eq!(self.pilot.len(), self.len());
        assert_eq!(self.reporter.len(), self.len());
        assert_eq!(self.scores.read().unwrap().len() as u64, self.len());
    }

    /// Arm a scripted crash on the durable store (no-op when in RAM): the
    /// crash-recovery testkit's kill switch.
    #[cfg(any(test, feature = "testkit-hooks"))]
    pub fn arm_fault(&self, plan: crate::FaultPlan) {
        if let Some(d) = &self.durable {
            d.arm(plan);
        }
    }
}

/// Commit-stamped operations for the `topk-testkit` history recorder: each
/// write reports the exact version stamp its commit received, each query the
/// stamp window it observed. The bare index has no logical-atomicity lock,
/// so these are only meaningful without concurrent writers (exactly the
/// contract of the `Single` topology).
#[cfg(feature = "testkit-hooks")]
impl TopKIndex {
    /// Insert `p` and return the version stamp of the commit.
    pub fn insert_stamped(&self, p: Point) -> Result<u64> {
        self.insert(p)?;
        Ok(self.version())
    }

    /// Delete `p`; `Some(stamp)` if it was present and the commit stamped.
    pub fn delete_stamped(&self, p: Point) -> Result<Option<u64>> {
        let deleted = self.delete(p)?;
        Ok(deleted.then(|| self.version()))
    }

    /// Apply `batch` and return the post-commit version stamp (the batch
    /// may bump the stamp several times on this unlocked topology; the
    /// final stamp is the one history checking needs).
    pub fn apply_stamped(&self, batch: &UpdateBatch) -> Result<(BatchSummary, u64)> {
        let summary = self.apply(batch)?;
        Ok((summary, self.version()))
    }

    /// The eager query answer plus the (degenerate, single-threaded) stamp
    /// window it was computed under.
    pub fn query_stamped(&self, x1: u64, x2: u64, k: usize) -> Result<(Vec<Point>, u64, u64)> {
        let lo = self.version();
        let out = self.query(x1, x2, k)?;
        Ok((out, lo, self.version()))
    }
}

impl std::fmt::Debug for TopKIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKIndex")
            .field("len", &self.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Shared argument validation for the eager and streaming query paths.
pub(crate) fn validate_query(x1: u64, x2: u64, k: usize) -> Result<()> {
    if x1 > x2 {
        return Err(TopKError::InvertedRange { x1, x2 });
    }
    if k == 0 {
        return Err(TopKError::ZeroK);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::EmConfig;

    fn device() -> Device {
        Device::new(EmConfig::new(256, 256 * 256))
    }

    #[test]
    fn insert_rejects_duplicates_and_leaves_index_unchanged() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        index.insert(Point::new(10, 100)).unwrap();
        let err = index.insert(Point::new(10, 200)).unwrap_err();
        assert_eq!(
            err,
            TopKError::DuplicateX {
                existing: Point::new(10, 100),
                rejected: Point::new(10, 200),
            }
        );
        let err = index.insert(Point::new(20, 100)).unwrap_err();
        assert_eq!(
            err,
            TopKError::DuplicateScore {
                score: 100,
                rejected: Point::new(20, 100),
            }
        );
        assert_eq!(index.len(), 1);
        index.check_invariants();
        // Deleting frees both the coordinate and the score for reuse.
        assert!(index.delete(Point::new(10, 100)).unwrap());
        index.insert(Point::new(10, 100)).unwrap();
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn bulk_build_rejects_duplicates_atomically() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        index
            .bulk_build(&[Point::new(1, 10), Point::new(2, 20)])
            .unwrap();
        let err = index
            .bulk_build(&[Point::new(5, 50), Point::new(6, 60), Point::new(5, 70)])
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        let err = index
            .bulk_build(&[Point::new(5, 50), Point::new(6, 50)])
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateScore { .. }));
        // The failed builds left the previous contents intact.
        assert_eq!(index.len(), 2);
        assert_eq!(
            index.query(0, 100, 10).unwrap(),
            vec![Point::new(2, 20), Point::new(1, 10)]
        );
    }

    #[test]
    fn query_validation_reports_misuse() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        index.insert(Point::new(10, 7)).unwrap();
        assert_eq!(
            index.query(30, 20, 3).unwrap_err(),
            TopKError::InvertedRange { x1: 30, x2: 20 }
        );
        assert_eq!(index.query(0, 100, 0).unwrap_err(), TopKError::ZeroK);
        // An empty (but not inverted) range is a legitimate empty answer.
        assert!(index.query(20, 30, 3).unwrap().is_empty());
    }

    #[test]
    fn component_disagreement_is_a_real_error_in_release_builds() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        for i in 1..=50u64 {
            index.insert(Point::new(i, i * 3)).unwrap();
        }
        // Corrupt the index: remove a point from the pilot structure behind
        // the combined index's back.
        let victim = Point::new(7, 21);
        assert!(index.pilot.delete(victim));
        let err = index.delete(victim).unwrap_err();
        assert_eq!(
            err,
            TopKError::Inconsistent {
                point: victim,
                component: "pilot",
            }
        );
    }

    #[test]
    fn get_finds_points_by_coordinate() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        assert_eq!(index.get(5), None);
        index.insert(Point::new(5, 50)).unwrap();
        assert_eq!(index.get(5), Some(Point::new(5, 50)));
        assert_eq!(index.get(6), None);
    }
}

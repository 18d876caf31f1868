//! Atomic update batches.
//!
//! An [`UpdateBatch`] names a sequence of inserts and deletes that is applied
//! as one unit: the whole batch is validated up front (against the index and
//! against earlier operations in the same batch), so either every operation
//! lands or none does, and the global-rebuild policy runs once at commit
//! instead of once per operation. Batching also amortizes real work, not
//! just bookkeeping: a large batch validates against one `O(n/B)` scan
//! instead of one `O(log_B n)` descent per op, and a batch that rewrites a
//! sizable fraction of the set commits as a single global rebuild — the
//! paper's own batched-maintenance tool. Applied through
//! [`ConcurrentTopK::apply`](crate::ConcurrentTopK::apply) the batch
//! additionally costs exactly one write-lock acquisition. The
//! `concurrent_reads` bench measures the combined effect.

use std::collections::HashMap;

use epst::Point;

use crate::error::{Result, TopKError};
use crate::index::TopKIndex;

/// One operation of an [`UpdateBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert the point.
    Insert(Point),
    /// Delete the point (exact coordinate and score).
    Delete(Point),
}

impl UpdateOp {
    /// The point the operation touches (what
    /// [`ShardedTopK`](crate::ShardedTopK) routes on).
    pub fn point(&self) -> Point {
        match *self {
            UpdateOp::Insert(p) | UpdateOp::Delete(p) => p,
        }
    }
}

/// A sequence of updates applied atomically, built fluently:
/// `UpdateBatch::new().insert(p).delete(q)`.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch holding `ops` in order.
    pub fn from_ops(ops: impl IntoIterator<Item = UpdateOp>) -> Self {
        Self {
            ops: ops.into_iter().collect(),
        }
    }

    /// Append an insertion (builder style).
    pub fn insert(mut self, p: Point) -> Self {
        self.ops.push(UpdateOp::Insert(p));
        self
    }

    /// Append a deletion (builder style).
    pub fn delete(mut self, p: Point) -> Self {
        self.ops.push(UpdateOp::Delete(p));
        self
    }

    /// Append an operation in place (loop style).
    pub fn push(&mut self, op: UpdateOp) {
        self.ops.push(op);
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }
}

/// What an applied batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Points inserted.
    pub inserted: usize,
    /// Points deleted.
    pub deleted: usize,
    /// Deletions that found no matching point (a no-op, mirroring the
    /// `Ok(false)` of a point-wise [`TopKIndex::delete`]).
    pub missing_deletes: usize,
}

/// A batch (or, on the sharded path, a per-shard sub-batch) whose size times
/// this factor reaches the post-commit point count commits as one global
/// rebuild instead of point-wise descents. One knob for both paths: tuning
/// the crossover cannot silently diverge between
/// [`TopKIndex::apply`] and [`ShardedTopK::apply`](crate::ShardedTopK::apply).
pub(crate) const REBUILD_CROSSOVER: u64 = 16;

/// How batch validation looks up the pre-batch state of the index. Shared
/// with the per-shard validation pass of
/// [`ShardedTopK::apply`](crate::ShardedTopK::apply).
pub(crate) enum LiveView {
    /// Probe the index per operation: an `O(log_B n)` descent per insert or
    /// delete. Right for small batches.
    Probe,
    /// One `O(n/B)` scan up front, then every membership question is a free
    /// (CPU-side) hash lookup. Right once the batch is large enough that
    /// per-op descents would cost more than reading the whole set — this is
    /// where batching beats point-wise updates on *work*, not just on lock
    /// traffic.
    Scan(HashMap<u64, Point>),
}

impl LiveView {
    pub(crate) fn for_batch(index: &TopKIndex, ops: usize) -> Self {
        let block_words = index.device().block_words() as u64;
        let n = index.len();
        let scan_blocks = (n * Point::WORDS as u64) / block_words.max(1) + 1;
        let descent_blocks =
            emsim::log_b(block_words as usize, n.max(2) as usize).ceil() as u64 + 1;
        if (ops as u64) * descent_blocks >= scan_blocks {
            LiveView::Scan(index.all_points().into_iter().map(|p| (p.x, p)).collect())
        } else {
            LiveView::Probe
        }
    }

    pub(crate) fn get(&self, index: &TopKIndex, x: u64) -> Option<Point> {
        match self {
            LiveView::Probe => index.get(x),
            LiveView::Scan(live) => live.get(&x).copied(),
        }
    }
}

/// Validate `batch` against `index` (plus the batch's own earlier
/// operations), then apply every operation and run the rebuild policy once.
pub(crate) fn apply_to(index: &TopKIndex, batch: &UpdateBatch) -> Result<BatchSummary> {
    // Pass 1: simulate. The overlays track what the batch has (virtually)
    // changed so far, so "insert after in-batch delete of the same x" is
    // legal and "insert colliding with an earlier in-batch insert" is not.
    // Large batches validate against one O(n/B) scan instead of one
    // O(log_B n) descent per op (see [`LiveView`]).
    let view = LiveView::for_batch(index, batch.len());
    let mut x_overlay: HashMap<u64, Option<Point>> = HashMap::new();
    let mut score_overlay: HashMap<u64, bool> = HashMap::new();
    let live_at = |x_overlay: &HashMap<u64, Option<Point>>, x: u64| -> Option<Point> {
        match x_overlay.get(&x) {
            Some(&slot) => slot,
            None => view.get(index, x),
        }
    };
    let score_live = |score_overlay: &HashMap<u64, bool>, s: u64| -> bool {
        match score_overlay.get(&s) {
            Some(&live) => live,
            None => index.score_exists(s),
        }
    };
    let mut summary = BatchSummary::default();
    for op in batch.ops() {
        match *op {
            UpdateOp::Insert(p) => {
                if let Some(existing) = live_at(&x_overlay, p.x) {
                    return Err(TopKError::DuplicateX {
                        existing,
                        rejected: p,
                    });
                }
                if score_live(&score_overlay, p.score) {
                    return Err(TopKError::DuplicateScore {
                        score: p.score,
                        rejected: p,
                    });
                }
                x_overlay.insert(p.x, Some(p));
                score_overlay.insert(p.score, true);
                summary.inserted += 1;
            }
            UpdateOp::Delete(p) => {
                // A non-matching delete is a runtime no-op, not a validation
                // error; it is counted as a miss, exactly like the
                // `Ok(false)` of a point-wise delete.
                if live_at(&x_overlay, p.x) == Some(p) {
                    x_overlay.insert(p.x, None);
                    score_overlay.insert(p.score, false);
                    summary.deleted += 1;
                } else {
                    summary.missing_deletes += 1;
                }
            }
        }
    }
    // Pass 2: apply. A batch that rewrites a sizable fraction of the set is
    // cheapest as one global rebuild — the paper's own batched-maintenance
    // tool, `O((n/B)·log_B n)` I/Os for the whole batch instead of
    // `O(log_B n)` descents across both components per op. The crossover
    // (ops ≥ n/16) is conservative: measured per-op updates cost tens of
    // microseconds against ~1µs per point for a rebuild at bench scales.
    if let LiveView::Scan(mut live) = view {
        let n_after = (index.len() + summary.inserted as u64).max(1);
        if (batch.len() as u64) * REBUILD_CROSSOVER >= n_after {
            for (x, slot) in x_overlay {
                match slot {
                    Some(p) => live.insert(x, p),
                    None => live.remove(&x),
                };
            }
            let points: Vec<Point> = live.into_values().collect();
            index.rebuild_unvalidated(&points);
            index.durable_commit()?;
            return Ok(summary);
        }
    }
    // Otherwise point-wise application, deferring the rebuild check to
    // commit. Pass 1 already proved every op's outcome, so the runtime
    // counts must agree with the simulated summary.
    let mut applied = BatchSummary::default();
    for op in batch.ops() {
        match *op {
            UpdateOp::Insert(p) => {
                index.insert_validated(p);
                applied.inserted += 1;
            }
            UpdateOp::Delete(p) => {
                if index.delete_validated(p)? {
                    applied.deleted += 1;
                } else {
                    applied.missing_deletes += 1;
                }
            }
        }
    }
    debug_assert_eq!(applied, summary, "validation must predict application");
    index.maybe_rebuild();
    index.maybe_compact_journal();
    index.durable_commit()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopKConfig, TopKIndex};
    use emsim::{Device, EmConfig};

    fn index_with(points: &[Point]) -> TopKIndex {
        let device = Device::new(EmConfig::new(128, 128 * 64));
        let index = TopKIndex::new(&device, TopKConfig::default());
        index.bulk_build(points).unwrap();
        index
    }

    #[test]
    fn builder_accumulates_ops_in_order() {
        let mut batch = UpdateBatch::new()
            .insert(Point::new(1, 10))
            .delete(Point::new(2, 20));
        batch.push(UpdateOp::Insert(Point::new(3, 30)));
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.ops()[1], UpdateOp::Delete(Point::new(2, 20)));
        assert!(UpdateBatch::new().is_empty());
    }

    #[test]
    fn apply_mixes_inserts_deletes_and_missing_deletes() {
        let index = index_with(&[Point::new(1, 10), Point::new(2, 20)]);
        let batch = UpdateBatch::new()
            .insert(Point::new(3, 30))
            .delete(Point::new(1, 10))
            .delete(Point::new(9, 99)) // absent
            .delete(Point::new(2, 21)); // score mismatch: also a miss
        let summary = index.apply(&batch).unwrap();
        assert_eq!(
            summary,
            BatchSummary {
                inserted: 1,
                deleted: 1,
                missing_deletes: 2,
            }
        );
        assert_eq!(index.len(), 2);
        assert_eq!(
            index.query(0, 100, 10).unwrap(),
            vec![Point::new(3, 30), Point::new(2, 20)]
        );
    }

    #[test]
    fn batch_local_delete_frees_coordinate_and_score_for_reinsert() {
        let index = index_with(&[Point::new(5, 50)]);
        // Without the preceding delete this insert must be rejected…
        let err = index
            .apply(&UpdateBatch::new().insert(Point::new(5, 51)))
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        // …with it, the batch is legal, including reusing the old score.
        let batch = UpdateBatch::new()
            .delete(Point::new(5, 50))
            .insert(Point::new(5, 51))
            .insert(Point::new(6, 50));
        let summary = index.apply(&batch).unwrap();
        assert_eq!(summary.inserted, 2);
        assert_eq!(summary.deleted, 1);
        assert_eq!(index.get(5), Some(Point::new(5, 51)));
        assert_eq!(index.get(6), Some(Point::new(6, 50)));
    }

    #[test]
    fn in_batch_collisions_are_rejected() {
        let index = index_with(&[]);
        let err = index
            .apply(
                &UpdateBatch::new()
                    .insert(Point::new(1, 10))
                    .insert(Point::new(1, 11)),
            )
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        let err = index
            .apply(
                &UpdateBatch::new()
                    .insert(Point::new(1, 10))
                    .insert(Point::new(2, 10)),
            )
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateScore { .. }));
    }

    #[test]
    fn failed_validation_applies_nothing() {
        let index = index_with(&[Point::new(1, 10), Point::new(2, 20)]);
        let before = index.query(0, u64::MAX, 10).unwrap();
        let batch = UpdateBatch::new()
            .insert(Point::new(3, 30)) // valid…
            .delete(Point::new(1, 10)) // valid…
            .insert(Point::new(2, 99)); // …but this collides: all-or-nothing
        let err = index.apply(&batch).unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        assert_eq!(index.len(), 2);
        assert_eq!(index.query(0, u64::MAX, 10).unwrap(), before);
    }
}

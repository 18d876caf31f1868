//! A thread-safe wrapper around [`TopKIndex`] for concurrent serving.
//!
//! [`TopKIndex`] itself is `Send + Sync`: every piece of interior state — the
//! device's pool and counters, each structure's node pages, directories and
//! length counters — sits behind its own lock or atomic, so data races are
//! impossible. What those fine-grained locks do *not* provide is logical
//! atomicity across pages: an update touches many pages across three component
//! structures, and a query walking the tree mid-update could observe a torn
//! state (or chase a just-freed page and panic).
//!
//! [`ConcurrentTopK`] supplies that atomicity with a **striped** (BRAVO-style)
//! reader–writer lock: the index lives in an `Arc<TopKIndex>`, and logical
//! exclusion is provided by a bank of cache-line-padded `RwLock<()>` stripes.
//! A query — which never modifies structure state — takes the read side of
//! *its own thread's* stripe only, so concurrent readers touch disjoint cache
//! lines and scale with cores instead of all CAS-ing one lock word (the flat
//! `read_scaling` curve of PR 7). An update takes the write side of **every**
//! stripe in ascending order, which still excludes all readers. Mixed
//! workloads should batch their writes: [`ConcurrentTopK::apply`] commits an
//! [`UpdateBatch`] under a *single* all-stripe acquisition with one deferred
//! rebuild check, where point-wise [`ConcurrentTopK::insert`] pays the lock
//! churn once per point (measured in the `concurrent_reads` bench).
//!
//! Snapshot identity comes from the version-stamp machinery (PR 4/5): every
//! commit bumps [`TopKIndex::version`] with `Release` ordering while all
//! stripes are write-held, so a [`ReadPin`] observes one stamp for its whole
//! lifetime — the pinned version that `query()` and cursor `PerRound` rounds
//! read without ever contending with other readers.
//!
//! The striped lock is the right wrapper for read-heavy serving with a single
//! (or occasional) writer: no routing overhead, and [`ConcurrentTopK::read`]
//! pins a whole-index snapshot for the price of one uncontended CAS. Once
//! concurrent **writers** become the bottleneck, use
//! [`ShardedTopK`](crate::ShardedTopK) instead: it range-partitions the
//! coordinate space so writers on disjoint shards commit in parallel, at the
//! price of a routing layer and fan-out queries (DESIGN.md §4 describes the
//! shipped sharded architecture and the crossover between the two).
//!
//! Long-lived reads should not pin the read guard: an owned
//! [`ConcurrentTopK::cursor`] re-acquires the read side once per fetch
//! round, so a slow paginating reader costs writers nothing (DESIGN.md §6;
//! the `concurrent_reads` bench measures the difference).

use std::ops::Deref;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::stripe::{thread_stripe, STRIPES};

use emsim::Device;
use epst::Point;

use crate::batch::{BatchSummary, UpdateBatch};
use crate::builder::IndexBuilder;
use crate::config::TopKConfig;
use crate::cursor::QueryCursor;
use crate::error::Result;
use crate::facade::TopK;
use crate::index::TopKIndex;
use crate::query::QueryRequest;

/// One read stripe on its own cache line (readers on different stripes never
/// share a line). The field is named `inner` so acquisitions audit under the
/// `shard` lock class of DESIGN.md §8 — same-class nesting is sanctioned
/// there under the ascending-order convention the writer follows.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ReadStripe {
    inner: RwLock<()>,
}

/// A pinned read-side view of a [`ConcurrentTopK`]: derefs to the
/// [`TopKIndex`] and excludes writers for as long as it lives. Obtained from
/// [`ConcurrentTopK::read`]; holds the calling thread's stripe only.
pub struct ReadPin<'a> {
    index: &'a TopKIndex,
    _stripe: RwLockReadGuard<'a, ()>,
}

impl Deref for ReadPin<'_> {
    type Target = TopKIndex;

    fn deref(&self) -> &TopKIndex {
        self.index
    }
}

/// An exclusive write-side view of a [`ConcurrentTopK`]: derefs to the
/// [`TopKIndex`] and excludes every reader and other writer for as long as it
/// lives (all stripes are write-held). Obtained from
/// [`ConcurrentTopK::write`]. `TopKIndex`'s mutating operations take `&self`
/// (interior mutability), so `Deref` is sufficient to update through the pin.
pub struct WritePin<'a> {
    index: &'a TopKIndex,
    _stripes: Vec<RwLockWriteGuard<'a, ()>>,
}

impl Deref for WritePin<'_> {
    type Target = TopKIndex;

    fn deref(&self) -> &TopKIndex {
        self.index
    }
}

/// A [`TopKIndex`] behind a striped reader–writer lock: concurrent queries on
/// per-thread stripes, exclusive updates across all stripes. Share it across
/// threads as `Arc<ConcurrentTopK>` (or with scoped threads, as
/// `&ConcurrentTopK`).
pub struct ConcurrentTopK {
    /// Kept outside the lock so monitoring reads never block on updates.
    device: Device,
    index: Arc<TopKIndex>,
    stripes: Box<[ReadStripe]>,
}

impl ConcurrentTopK {
    /// Start building a concurrent index:
    /// `ConcurrentTopK::builder().expected_n(n).build_concurrent()?`.
    pub fn builder() -> IndexBuilder {
        IndexBuilder::new()
    }

    /// Create an empty concurrent index on `device`.
    pub fn new(device: &Device, config: TopKConfig) -> Self {
        Self::from_index(TopKIndex::new(device, config))
    }

    /// Wrap an existing index (e.g. one that was bulk-built single-threaded).
    pub fn from_index(index: TopKIndex) -> Self {
        Self {
            device: index.device().clone(),
            index: Arc::new(index),
            stripes: (0..STRIPES).map(|_| ReadStripe::default()).collect(),
        }
    }

    /// Tear the wrapper down, returning the inner index.
    pub fn into_inner(self) -> TopKIndex {
        let Self { index, stripes, .. } = self;
        drop(stripes);
        Arc::try_unwrap(index)
            .map_err(|_| ())
            .expect("into_inner consumed the only handle; no pin can outlive the wrapper")
    }

    /// Acquire the shared read side directly, for callers that want to issue
    /// several queries — or hold a [`TopKIndex::stream`] iterator — against
    /// one consistent version of the index. Only the calling thread's stripe
    /// is read-locked, so concurrent readers never touch the same lock word.
    /// Writers block for as long as the pin lives; a long-lived or slow
    /// reader should use [`ConcurrentTopK::cursor`] instead, which
    /// re-acquires the read side per fetch round.
    pub fn read(&self) -> ReadPin<'_> {
        let inner = &self
            .stripes
            .get(thread_stripe(self.stripes.len()))
            .expect("thread_stripe is reduced modulo the stripe count")
            .inner;
        ReadPin {
            index: &self.index,
            _stripe: inner.read().unwrap(),
        }
    }

    /// Open an owned, snapshot-consistent [`QueryCursor`]: the read lock is
    /// taken only per fetch round, so a paginating reader that is idle
    /// between pages costs writers nothing (unlike a held
    /// [`ConcurrentTopK::read`] guard, which blocks them for the stream's
    /// whole lifetime). See [`Consistency`](crate::Consistency) for the
    /// exact semantics when writes interleave between rounds.
    pub fn cursor(self: Arc<Self>, request: QueryRequest) -> Result<QueryCursor> {
        QueryCursor::new(TopK::Concurrent(self), request)
    }

    /// Acquire the exclusive write side directly, for callers that want to
    /// compose several operations atomically with respect to readers. For
    /// plain batches prefer [`ConcurrentTopK::apply`].
    ///
    /// Every stripe is write-locked in ascending order: racing writers
    /// acquire in the same order (no deadlock) and every reader stripe is
    /// excluded before the pin is handed out.
    pub fn write(&self) -> WritePin<'_> {
        let guards: Vec<_> = self
            .stripes
            .iter()
            .map(|s| s.inner.write().unwrap())
            .collect();
        WritePin {
            index: &self.index,
            _stripes: guards,
        }
    }

    /// Apply a whole [`UpdateBatch`] atomically: the batch is validated and
    /// committed under **one** write-lock acquisition, and the global-rebuild
    /// policy runs once at commit. Readers observe either the pre-batch or
    /// the post-batch state, never anything in between.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        self.write().apply(batch)
    }

    /// Report the `k` highest-scoring points with `x ∈ [x1, x2]` (shared
    /// lock; runs concurrently with other queries).
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        self.read().query(x1, x2, k)
    }

    /// Number of points with `x ∈ [x1, x2]` (shared lock).
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`](crate::TopKError::InvertedRange) if
    /// `x1 > x2`, the same validation as [`ConcurrentTopK::query`] (this
    /// used to silently answer 0).
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        self.read().count_in_range(x1, x2)
    }

    /// Insert a point (exclusive lock). For more than a handful of points at
    /// a time, [`ConcurrentTopK::apply`] amortizes the lock.
    pub fn insert(&self, p: Point) -> Result<()> {
        self.write().insert(p)
    }

    /// Delete a point; `Ok(false)` if absent (exclusive lock).
    pub fn delete(&self, p: Point) -> Result<bool> {
        self.write().delete(p)
    }

    /// Replace the contents with `points` (exclusive lock).
    pub fn bulk_build(&self, points: &[Point]) -> Result<()> {
        self.write().bulk_build(points)
    }

    /// Number of stored points (shared lock).
    pub fn len(&self) -> u64 {
        self.read().len()
    }

    /// Whether the index is empty (shared lock).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space occupied by all components, in blocks (shared lock).
    pub fn space_blocks(&self) -> u64 {
        self.read().space_blocks()
    }

    /// The device the index lives on. Served from a handle held outside the
    /// lock, so a caller can read I/O statistics without ever blocking on an
    /// in-flight update.
    pub fn device(&self) -> Device {
        self.device.clone()
    }
}

/// Commit-stamped operations for the `topk-testkit` history recorder. Every
/// stamp is read **while the relevant lock is still held**, so under the
/// coarse lock each write's stamp is exact and unique, and each query's
/// window is the single version the read guard pinned.
#[cfg(feature = "testkit-hooks")]
impl ConcurrentTopK {
    /// Insert `p` under one write-lock acquisition and return the exact
    /// version stamp the commit received.
    pub fn insert_stamped(&self, p: Point) -> Result<u64> {
        let guard = self.write();
        guard.insert(p)?;
        Ok(guard.version())
    }

    /// Delete `p` under one write-lock acquisition; `Some(stamp)` if it was
    /// present.
    pub fn delete_stamped(&self, p: Point) -> Result<Option<u64>> {
        let guard = self.write();
        let deleted = guard.delete(p)?;
        Ok(deleted.then(|| guard.version()))
    }

    /// Apply `batch` atomically and return the post-commit version stamp,
    /// read before the write lock is released.
    pub fn apply_stamped(&self, batch: &UpdateBatch) -> Result<(BatchSummary, u64)> {
        let guard = self.write();
        let summary = guard.apply(batch)?;
        let stamp = guard.version();
        Ok((summary, stamp))
    }

    /// The eager query answer plus the version the read pin pinned: the
    /// striped lock excludes writers for the whole query (a writer needs
    /// every stripe), so the window is a single stamp.
    pub fn query_stamped(&self, x1: u64, x2: u64, k: usize) -> Result<(Vec<Point>, u64, u64)> {
        let guard = self.read();
        let v = guard.version();
        let out = guard.query(x1, x2, k)?;
        Ok((out, v, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, QueryRequest};
    use emsim::EmConfig;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn index_and_wrapper_are_send_sync() {
        assert_send_sync::<TopKIndex>();
        assert_send_sync::<ConcurrentTopK>();
    }

    #[test]
    fn sequential_smoke_through_the_wrapper() {
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let index = ConcurrentTopK::new(&device, TopKConfig::default());
        assert!(index.is_empty());
        let pts: Vec<Point> = (0..500u64)
            .map(|i| Point::new(i * 3 + 1, i * 7 + 2))
            .collect();
        index.bulk_build(&pts).unwrap();
        assert_eq!(index.len(), 500);
        let oracle = Oracle::from_points(&pts);
        assert_eq!(index.query(10, 900, 7).unwrap(), oracle.query(10, 900, 7));
        assert_eq!(
            index.count_in_range(10, 900).unwrap(),
            oracle.count(10, 900) as u64
        );
        assert_eq!(
            index.count_in_range(900, 10).unwrap_err(),
            crate::TopKError::InvertedRange { x1: 900, x2: 10 }
        );
        assert!(index.delete(pts[0]).unwrap());
        assert!(!index.delete(pts[0]).unwrap());
        index.insert(pts[0]).unwrap();
        assert_eq!(index.len(), 500);
        assert!(index.space_blocks() > 0);
        // Streaming through a read guard pins one version of the index.
        let guard = index.read();
        let streamed: Vec<Point> = guard
            .stream(QueryRequest::range(10, 900).top(7))
            .unwrap()
            .collect();
        assert_eq!(streamed, oracle.query(10, 900, 7));
        drop(guard);
        let inner = index.into_inner();
        assert_eq!(inner.len(), 500);
    }

    #[test]
    fn apply_commits_batches_atomically_under_one_lock() {
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let index = ConcurrentTopK::new(&device, TopKConfig::default());
        let pts: Vec<Point> = (0..200u64)
            .map(|i| Point::new(i * 3 + 1, i * 7 + 2))
            .collect();
        index.bulk_build(&pts).unwrap();
        let mut batch = UpdateBatch::new();
        for i in 0..50u64 {
            batch.push(crate::UpdateOp::Delete(pts[i as usize]));
            batch.push(crate::UpdateOp::Insert(Point::new(10_000 + i, 20_000 + i)));
        }
        let summary = index.apply(&batch).unwrap();
        assert_eq!((summary.inserted, summary.deleted), (50, 50));
        assert_eq!(index.len(), 200);
    }
}

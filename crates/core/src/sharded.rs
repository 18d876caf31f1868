//! Range-sharded concurrent serving: parallel writers on disjoint shards.
//!
//! [`ConcurrentTopK`](crate::ConcurrentTopK) serialises every update behind
//! one coarse write lock, so write throughput cannot scale with cores.
//! [`ShardedTopK`] removes that ceiling by range-partitioning the coordinate
//! space into `S` shards — each an independent [`TopKIndex`] behind its own
//! reader–writer lock — with a router keeping the split points and per-shard
//! counts:
//!
//! * **updates** route to exactly one shard and take only that shard's write
//!   lock, so writers on different shards proceed in parallel;
//! * **batches** ([`ShardedTopK::apply`]) split by shard, validate once
//!   against the global model preconditions, and commit the per-shard
//!   sub-batches *in parallel*, each with its own deferred rebuild check —
//!   readers observe either the pre-batch or the post-batch state of every
//!   affected shard, never anything in between;
//! * **queries** fan out to the shards overlapping `[x1, x2]` and merge the
//!   per-shard streaming [`TopKResults`] through a k-bounded binary heap
//!   ([`ShardedResults`]), so each shard is only asked for the prefix the
//!   merge actually consumes — the prefix-only cost of the streaming API is
//!   preserved across the fan-out (`tests/io_cost.rs` pins the bound at
//!   `overlapping_shards × O(log_B(n/S) + k/B)` page reads);
//! * **rebalancing** migrates points once a shard exceeds twice the mean
//!   occupancy: the writer that trips the threshold repartitions *after* its
//!   own commit has released every per-operation lock, so the check runs off
//!   the reader path, and the repartition itself holds the router plus all
//!   shard write locks so no reader ever observes a torn migration.
//!
//! Routing is read **lock-free**: the split points live in a copy-on-write
//! [`Router`] snapshot (an `Arc` behind a striped cell, [`RouterCell`]), so
//! neither queries nor point updates ever serialise on a router lock. An
//! operation loads the snapshot, acquires its shard locks, then validates
//! that the router `epoch` is unchanged — a repartition publishes a new
//! snapshot and bumps the epoch while holding **every** shard write lock, so
//! an operation that holds any shard lock and sees its snapshot's epoch knows
//! the routing cannot have moved under it (and retries on the rare miss).
//!
//! Lock order is global and acyclic — shards in ascending id order, then the
//! score registry, then the router cell's stripes (written only by the
//! repartition paths) — so the fan-out, the parallel commit and the rebalance
//! cannot deadlock. The global distinct-scores precondition (which no single
//! shard can check alone) is enforced against a RAM-side score registry, the
//! same validation-metadata device [`TopKIndex`] uses per-index (DESIGN.md
//! §5).
//!
//! When to pick which wrapper: [`ConcurrentTopK`](crate::ConcurrentTopK) for
//! read-heavy serving with a single writer (no routing overhead, whole-index
//! snapshots for free); [`ShardedTopK`] once concurrent writers are the
//! bottleneck (DESIGN.md §4 records the measured crossover).

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

use emsim::Device;
use epst::Point;

use crate::batch::{BatchSummary, LiveView, UpdateBatch, UpdateOp};
use crate::builder::IndexBuilder;
use crate::config::TopKConfig;
use crate::cursor::QueryCursor;
use crate::error::{Result, TopKError};
use crate::facade::TopK;
use crate::index::{validate_query, TopKIndex};
use crate::query::{QueryRequest, TopKResults};
use crate::stripe::{thread_stripe, STRIPES};

/// Rebalance only once the index holds this many points per shard on
/// average; below it, imbalance is noise and repartitioning would thrash.
const REBALANCE_MIN_PER_SHARD: u64 = 64;

/// The range router: `splits[i]` is the smallest coordinate routed to shard
/// `i + 1` (shard `i` covers `[splits[i-1], splits[i])`). Immutable once
/// published — a repartition builds a fresh `Router` with a bumped `epoch`
/// and swaps it into the [`RouterCell`] while holding every shard write
/// lock, so in-flight operations validate their snapshot instead of locking.
#[derive(Debug)]
struct Router {
    splits: Vec<u64>,
    /// Which repartition published this snapshot. An operation that holds a
    /// shard lock and observes [`ShardedTopK::epoch`] equal to this value
    /// knows its routing is current (the module docs give the argument).
    epoch: u64,
}

impl Router {
    /// Even splits over the whole `u64` domain (the empty-index default; the
    /// first bulk build or rebalance replaces them with data quantiles).
    fn even(shards: usize, epoch: u64) -> Self {
        let step = u64::MAX / shards as u64;
        Self {
            splits: (1..shards as u64).map(|i| i * step).collect(),
            epoch,
        }
    }

    /// Equal-count quantile splits over `points`, which must be sorted by
    /// coordinate. Duplicate splits (fewer points than shards) leave some
    /// shards empty, which routing handles fine.
    fn from_sorted(points: &[Point], shards: usize, epoch: u64) -> Self {
        if points.is_empty() {
            return Self::even(shards, epoch);
        }
        let n = points.len();
        Self {
            splits: (1..shards)
                .map(|i| {
                    points
                        .get((i * n / shards).min(n - 1))
                        .expect("index clamped to n-1 of a non-empty slice")
                        .x
                })
                .collect(),
            epoch,
        }
    }

    fn shard_of(&self, x: u64) -> usize {
        self.splits.partition_point(|&s| s <= x)
    }

    /// Inclusive shard-id range overlapping `[x1, x2]` (requires `x1 ≤ x2`).
    fn overlap(&self, x1: u64, x2: u64) -> (usize, usize) {
        (self.shard_of(x1), self.shard_of(x2))
    }
}

/// One stripe of the router cell: a cache-line-padded slot holding the
/// current snapshot. Padding keeps a snapshot load (a read lock plus an
/// `Arc` clone) on the loading thread's own line.
#[derive(Debug)]
#[repr(align(64))]
struct RouterStripe {
    router_stripe: RwLock<Arc<Router>>,
}

/// The copy-on-write cell the current [`Router`] snapshot is published
/// through. Striped like [`ConcurrentTopK`](crate::ConcurrentTopK)'s read
/// lock: a snapshot load touches only the calling thread's stripe, while a
/// publish (repartition only — rare) rewrites every stripe in order. Loads
/// are instantaneous (clone an `Arc` under a read lock held for two
/// instructions), so the cell never becomes the serialisation point the old
/// `RwLock<Router>` was.
struct RouterCell {
    stripes: Box<[RouterStripe]>,
}

impl RouterCell {
    fn new(router: Router) -> Self {
        let router = Arc::new(router);
        Self {
            stripes: (0..STRIPES)
                .map(|_| RouterStripe {
                    router_stripe: RwLock::new(Arc::clone(&router)),
                })
                .collect(),
        }
    }

    /// The current routing snapshot (own-stripe read lock, `Arc` clone).
    fn snapshot(&self) -> Arc<Router> {
        let stripe = self
            .stripes
            .get(thread_stripe(self.stripes.len()))
            .expect("thread_stripe is reduced modulo the stripe count");
        let guard = stripe.router_stripe.read().unwrap();
        Arc::clone(&guard)
    }

    /// Publish a new snapshot to every stripe. Callers must hold every shard
    /// write lock (repartition paths only) so no reader can have validated a
    /// now-stale snapshot against a shard it still holds.
    fn publish(&self, router: &Arc<Router>) {
        for stripe in self.stripes.iter() {
            *stripe.router_stripe.write().unwrap() = Arc::clone(router);
        }
    }
}

/// One shard: an independent [`TopKIndex`] behind its own lock, plus a
/// lock-free occupancy counter feeding the rebalance policy and [`len`]
/// without touching the shard lock.
///
/// [`len`]: ShardedTopK::len
struct Shard {
    index: RwLock<TopKIndex>,
    count: AtomicU64,
}

/// A range-sharded [`TopKIndex`] for concurrent serving with **parallel
/// writers**: updates lock only the shard owning their coordinate, queries
/// fan out to overlapping shards and merge lazily. The module-level docs
/// describe the architecture and locking discipline.
///
/// Built with [`ShardedTopK::builder`]
/// (`…​.shards(s).build_sharded()?`; the default shard count is derived from
/// [`expected_n`](IndexBuilder::expected_n)). Shared across threads as
/// `Arc<ShardedTopK>` or, with scoped threads, as `&ShardedTopK`.
///
/// ```
/// use topk_core::{Point, ShardedTopK};
///
/// let index = ShardedTopK::builder()
///     .expected_n(1 << 20)
///     .shards(4)
///     .build_sharded()?;
/// std::thread::scope(|s| {
///     // Writers on different coordinate ranges lock different shards.
///     s.spawn(|| index.insert(Point::new(1, 10)));
///     s.spawn(|| index.insert(Point::new(u64::MAX / 2, 20)));
/// });
/// assert_eq!(index.len(), 2);
/// # Ok::<(), topk_core::TopKError>(())
/// ```
pub struct ShardedTopK {
    /// Kept outside every lock so monitoring reads never block on updates.
    device: Device,
    config: TopKConfig,
    router: RouterCell,
    /// Epoch of the currently published routing snapshot; bumped (with the
    /// publish) under every shard write lock. Operations validate their
    /// snapshot against it after acquiring shard locks — see module docs.
    epoch: AtomicU64,
    shards: Box<[Shard]>,
    /// The global distinct-scores registry (validation metadata, DESIGN.md
    /// §5): per-shard indexes can only check their own scores, so the model's
    /// global precondition is enforced here. Never acquired while waiting on
    /// the router or a shard lock from a path that already holds it, so it
    /// sits last in the lock order.
    scores: Mutex<HashSet<u64>>,
    /// Collapses concurrent rebalance attempts into one.
    rebalancing: AtomicBool,
    /// Global commit stamp: bumped once per committed write (point op,
    /// batch, bulk build or rebalance) *before* the write's locks are
    /// released. A [`Consistency::Strict`](crate::Consistency) cursor that
    /// observes the same stamp across rounds is therefore guaranteed that no
    /// write committed to its covered shards in between (shard-local stamps
    /// cannot witness that: a rebalance moves points across shard
    /// boundaries, so strictness on a sharded index means "no write
    /// anywhere").
    commits: AtomicU64,
}

impl ShardedTopK {
    /// Start building a sharded index:
    /// `ShardedTopK::builder().expected_n(n).shards(s).build_sharded()?`.
    pub fn builder() -> IndexBuilder {
        IndexBuilder::new()
    }

    /// Create an empty sharded index on `device` with `shards` range
    /// partitions (callers normally go through the builder, which validates
    /// and supplies defaults). Each shard resolves its engine against
    /// `expected_n / shards`.
    pub fn new(device: &Device, config: TopKConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_config = TopKConfig {
            expected_n: (config.expected_n / shards).max(1),
            ..config
        };
        Self {
            device: device.clone(),
            config,
            router: RouterCell::new(Router::even(shards, 0)),
            epoch: AtomicU64::new(0),
            shards: (0..shards)
                .map(|_| Shard {
                    index: RwLock::new(TopKIndex::new(device, shard_config)),
                    count: AtomicU64::new(0),
                })
                .collect(),
            scores: Mutex::new(HashSet::new()),
            rebalancing: AtomicBool::new(false),
            commits: AtomicU64::new(0),
        }
    }

    /// Open an owned, snapshot-consistent [`QueryCursor`] over this index:
    /// the overlapping shards' read locks are taken only per fetch round, so
    /// a paginating reader that is idle between pages blocks no writer. See
    /// [`Consistency`](crate::Consistency) for the write-interleaving
    /// semantics.
    pub fn cursor(self: Arc<Self>, request: QueryRequest) -> Result<QueryCursor> {
        QueryCursor::new(TopK::Sharded(self), request)
    }

    /// The device the index lives on (a handle held outside every lock, so
    /// I/O statistics never block on in-flight updates).
    pub fn device(&self) -> Device {
        self.device.clone()
    }

    /// The configuration shards were derived from.
    pub fn config(&self) -> TopKConfig {
        self.config
    }

    /// Number of shards the coordinate space is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current per-shard occupancy (lock-free; feeds the rebalance policy).
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .collect()
    }

    /// How many shards a query over `[x1, x2]` fans out to (0 for an
    /// inverted range). The I/O cost of a fan-out query is bounded by this
    /// factor times a single shard's query bound.
    pub fn overlapping_shards(&self, x1: u64, x2: u64) -> usize {
        if x1 > x2 {
            return 0;
        }
        let router = self.router.snapshot();
        let (lo, hi) = router.overlap(x1, x2);
        hi - lo + 1
    }

    /// Number of stored points (sum of the lock-free shard counters).
    pub fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space occupied by all shards, in blocks (read-locks each shard in
    /// turn).
    pub fn space_blocks(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.index.read().unwrap().space_blocks())
            .sum()
    }

    // ----- queries -----

    /// Acquire the read side of *every* shard, pinning one consistent
    /// version of the whole index — for callers that want several queries,
    /// or a held [`ShardedReadGuard::stream`] iterator, against an unmoving
    /// state. Targeted one-shot queries should prefer
    /// [`ShardedTopK::query`], which locks only the overlapping shards. No
    /// router lock is taken: the guard carries the routing snapshot,
    /// epoch-validated after the shard locks are held.
    pub fn read(&self) -> ShardedReadGuard<'_> {
        loop {
            let router = self.router.snapshot();
            let guards: Vec<_> = self
                .shards
                .iter()
                .map(|s| s.index.read().unwrap())
                .collect();
            // With every shard read-held, a repartition cannot commit; an
            // unchanged epoch therefore proves the snapshot is current.
            if self.epoch.load(Ordering::Acquire) != router.epoch {
                continue;
            }
            return ShardedReadGuard {
                router,
                base: 0,
                guards,
                // Loaded after every lock is held: commits to the covered
                // shards are ordered before the stamp, so equal stamps
                // witness an unmoved snapshot of them.
                stamp: self.commits.load(Ordering::Acquire),
            };
        }
    }

    /// Read locks for the shards overlapping `[x1, x2]` only (`x1 ≤ x2`).
    /// Used by the fan-out query paths and by the cursor read plane, which
    /// re-acquires it once per fetch round. Lock-free routing: snapshot,
    /// acquire, validate the epoch, retry on the (rare) repartition race.
    pub(crate) fn read_span(&self, x1: u64, x2: u64) -> ShardedReadGuard<'_> {
        loop {
            let router = self.router.snapshot();
            let (lo, hi) = router.overlap(x1, x2);
            let guards: Vec<_> = self
                .shards
                .get(lo..=hi)
                .expect("router overlap yields in-range shard ids")
                .iter()
                .map(|s| s.index.read().unwrap())
                .collect();
            // A repartition publishes under *all* shard write locks; holding
            // any covered shard read lock with an unchanged epoch proves the
            // span still matches the live routing.
            if self.epoch.load(Ordering::Acquire) != router.epoch {
                continue;
            }
            return ShardedReadGuard {
                router,
                base: lo,
                guards,
                stamp: self.commits.load(Ordering::Acquire),
            };
        }
    }

    /// Report the `k` highest-scoring points with `x ∈ [x1, x2]`, descending:
    /// read-lock the overlapping shards, fan the request out as per-shard
    /// streams, merge lazily ([`ShardedResults`]). Shards outside the range
    /// are neither locked nor touched.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] / [`TopKError::ZeroK`], as on
    /// [`TopKIndex::query`].
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        validate_query(x1, x2, k)?;
        let guard = self.read_span(x1, x2);
        #[allow(unused_mut)]
        let mut out: Vec<Point> = guard.stream(QueryRequest::range(x1, x2).top(k))?.collect();
        #[cfg(feature = "testkit-hooks")]
        crate::hooks::mutate_answer(&mut out);
        Ok(out)
    }

    /// Number of points with `x ∈ [x1, x2]`, summed over the overlapping
    /// shards under one consistent set of read locks.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2`, the same validation as
    /// [`ShardedTopK::query`] (this used to silently answer 0).
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        if x1 > x2 {
            return Err(TopKError::InvertedRange { x1, x2 });
        }
        let guard = self.read_span(x1, x2);
        Ok(guard
            .guards
            .iter()
            .map(|g| g.count_unvalidated(x1, x2))
            .sum())
    }

    /// The point stored at coordinate `x`, if any (one shard's read lock).
    pub fn get(&self, x: u64) -> Option<Point> {
        let guard = self.read_span(x, x);
        guard.guards.first().and_then(|g| g.get(x))
    }

    // ----- updates -----

    /// Insert a point: take only the owning shard's write lock, validate the
    /// coordinate structurally there and the score against the global
    /// registry, then commit. Writers for different shards proceed in
    /// parallel.
    ///
    /// The validation, the commit and the occupancy-counter bump all happen
    /// under the owning shard's write lock, and a concurrent
    /// [`ShardedTopK::bulk_build`] or rebalance (which take *every* shard's
    /// write lock to publish) serialises cleanly before or after the whole
    /// insert — it can neither erase an in-flight score registration nor
    /// recount a shard between the commit and its counter update. The insert
    /// validates its routing snapshot's epoch after taking the shard lock
    /// and retries if a repartition slipped in between.
    ///
    /// # Errors
    ///
    /// [`TopKError::DuplicateX`] / [`TopKError::DuplicateScore`], with the
    /// same precedence (coordinate first) as [`TopKIndex::insert`]; the
    /// index is unchanged in that case.
    pub fn insert(&self, p: Point) -> Result<()> {
        self.insert_inner(p).map(|_| ())
    }

    /// The insert path, reporting the exact global commit stamp the write
    /// received (assigned while the shard write lock is held, so stamps
    /// order commits).
    fn insert_inner(&self, p: Point) -> Result<u64> {
        loop {
            let router = self.router.snapshot();
            let si = router.shard_of(p.x);
            let shard = self
                .shards
                .get(si)
                .expect("router routes to an existing shard");
            let guard = shard.index.write().unwrap();
            if self.epoch.load(Ordering::Acquire) != router.epoch {
                continue; // routing moved under us: drop the guard, re-route
            }
            if let Some(existing) = guard.get(p.x) {
                return Err(TopKError::DuplicateX {
                    existing,
                    rejected: p,
                });
            }
            {
                let mut scores = self.scores.lock().unwrap();
                if scores.contains(&p.score) {
                    return Err(TopKError::DuplicateScore {
                        score: p.score,
                        rejected: p,
                    });
                }
                scores.insert(p.score);
            }
            guard.insert_validated(p);
            guard.maybe_rebuild();
            shard.count.fetch_add(1, Ordering::Relaxed);
            let stamp = self.commits.fetch_add(1, Ordering::Release) + 1;
            drop(guard);
            self.maybe_rebalance();
            return Ok(stamp);
        }
    }

    /// Delete a point (exact coordinate and score); `Ok(false)` if absent.
    /// Takes only the owning shard's write lock.
    ///
    /// # Errors
    ///
    /// [`TopKError::Inconsistent`], as on [`TopKIndex::delete`].
    pub fn delete(&self, p: Point) -> Result<bool> {
        self.delete_inner(p).map(|stamp| stamp.is_some())
    }

    /// The delete path, reporting the global commit stamp when the point
    /// was present (no stamp is burned for a miss).
    fn delete_inner(&self, p: Point) -> Result<Option<u64>> {
        loop {
            let router = self.router.snapshot();
            let si = router.shard_of(p.x);
            let shard = self
                .shards
                .get(si)
                .expect("router routes to an existing shard");
            let guard = shard.index.write().unwrap();
            if self.epoch.load(Ordering::Acquire) != router.epoch {
                continue; // routing moved under us: drop the guard, re-route
            }
            let deleted = guard.delete(p)?;
            let stamp = if deleted {
                shard.count.fetch_sub(1, Ordering::Relaxed);
                self.scores.lock().unwrap().remove(&p.score);
                Some(self.commits.fetch_add(1, Ordering::Release) + 1)
            } else {
                None
            };
            drop(guard);
            if deleted {
                self.maybe_rebalance();
            }
            return Ok(stamp);
        }
    }

    /// Replace the contents with `points`: validate global distinctness,
    /// compute equal-count splits, and rebuild every shard **in parallel**
    /// under the full write-side lock set (readers see the old or the new
    /// contents, nothing in between).
    ///
    /// # Errors
    ///
    /// [`TopKError::DuplicateX`] / [`TopKError::DuplicateScore`]; the index
    /// is unchanged in that case.
    pub fn bulk_build(&self, points: &[Point]) -> Result<()> {
        let mut sorted = points.to_vec();
        sorted.sort_unstable_by_key(|p| p.x);
        for (a, b) in sorted.iter().zip(sorted.iter().skip(1)) {
            if a.x == b.x {
                return Err(TopKError::DuplicateX {
                    existing: *a,
                    rejected: *b,
                });
            }
        }
        let mut score_set: HashSet<u64> = HashSet::with_capacity(sorted.len());
        for &p in &sorted {
            if !score_set.insert(p.score) {
                return Err(TopKError::DuplicateScore {
                    score: p.score,
                    rejected: p,
                });
            }
        }
        // Every shard write lock, ascending: excludes all readers, writers
        // and any concurrent repartition for the whole replace-and-publish.
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.index.write().unwrap())
            .collect();
        let next_epoch = self.epoch.load(Ordering::Acquire) + 1;
        let new_router = Arc::new(Router::from_sorted(&sorted, self.shards.len(), next_epoch));
        let slices = partition_sorted(&sorted, &new_router);
        std::thread::scope(|scope| {
            for (guard, slice) in guards.iter().zip(&slices) {
                let index: &TopKIndex = guard;
                scope.spawn(move || index.rebuild_unvalidated(slice));
            }
        });
        for (shard, slice) in self.shards.iter().zip(&slices) {
            shard.count.store(slice.len() as u64, Ordering::Relaxed);
        }
        *self.scores.lock().unwrap() = score_set;
        // Publish before the epoch bump: a snapshot loaded in between
        // carries the *new* epoch and validates once the bump lands.
        self.router.publish(&new_router);
        self.epoch.store(next_epoch, Ordering::Release);
        self.commits.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Apply a whole [`UpdateBatch`] atomically across shards: the batch is
    /// routed, validated once against the global preconditions (and its own
    /// earlier operations), and the per-shard sub-batches are committed **in
    /// parallel**, each running its own deferred rebuild check at commit.
    /// All affected shards stay write-locked until every sub-commit is done,
    /// so readers observe either the pre-batch or the post-batch state.
    ///
    /// # Errors
    ///
    /// Validation errors ([`TopKError::DuplicateX`] /
    /// [`TopKError::DuplicateScore`]) leave the index unchanged.
    /// [`TopKError::Inconsistent`] from a sub-commit is fatal, exactly as on
    /// [`TopKIndex::apply`].
    pub fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        self.apply_inner(batch).map(|(summary, _)| summary)
    }

    /// The batch path, reporting the global commit stamp when the batch
    /// mutated anything (a batch of nothing but missing deletes commits no
    /// data and burns no stamp).
    fn apply_inner(&self, batch: &UpdateBatch) -> Result<(BatchSummary, Option<u64>)> {
        if batch.is_empty() {
            return Ok((BatchSummary::default(), None));
        }
        let (shard_of, affected, guards) = loop {
            let router = self.router.snapshot();
            let shard_of: Vec<usize> = batch
                .ops()
                .iter()
                .map(|op| router.shard_of(op.point().x))
                .collect();
            let mut affected: Vec<usize> = shard_of.clone();
            affected.sort_unstable();
            affected.dedup();
            // Ascending acquisition keeps the global lock order acyclic.
            let guards: Vec<_> = affected
                .iter()
                .map(|&i| {
                    self.shards
                        .get(i)
                        .expect("affected ids come from the router")
                        .index
                        .write()
                        .unwrap()
                })
                .collect();
            // Routing validated under the shard write locks, as on the
            // point-wise paths: retry if a repartition moved the splits
            // between the snapshot and the lock acquisition.
            if self.epoch.load(Ordering::Acquire) == router.epoch {
                break (shard_of, affected, guards);
            }
        };
        let mut per_shard_ops = vec![0usize; affected.len()];
        for (op, &si) in batch.ops().iter().zip(&shard_of) {
            let j = affected
                .binary_search(&si)
                .map_err(|_| TopKError::Inconsistent {
                    point: op.point(),
                    component: "shard router",
                })?;
            *per_shard_ops
                .get_mut(j)
                .expect("binary_search hit is in range") += 1;
        }
        let views: Vec<LiveView> = guards
            .iter()
            .zip(&per_shard_ops)
            .map(|(g, &ops)| LiveView::for_batch(g, ops))
            .collect();

        // Pass 1: simulate the whole batch in order. Coordinate lookups
        // route to the owning shard's view; scores check the global registry
        // (held for the rest of validation so racing point inserts cannot
        // slip a duplicate in between).
        let mut scores = self.scores.lock().unwrap();
        let mut x_overlay: HashMap<u64, Option<Point>> = HashMap::new();
        let mut score_overlay: HashMap<u64, bool> = HashMap::new();
        let mut resolved: Vec<Vec<UpdateOp>> = vec![Vec::new(); affected.len()];
        let mut summary = BatchSummary::default();
        for (op, &si) in batch.ops().iter().zip(&shard_of) {
            let j = affected
                .binary_search(&si)
                .map_err(|_| TopKError::Inconsistent {
                    point: op.point(),
                    component: "shard router",
                })?;
            let live_at = |x_overlay: &HashMap<u64, Option<Point>>, x: u64| match x_overlay.get(&x)
            {
                Some(&slot) => slot,
                None => views
                    .get(j)
                    .zip(guards.get(j))
                    .and_then(|(view, guard)| view.get(guard, x)),
            };
            match *op {
                UpdateOp::Insert(p) => {
                    if let Some(existing) = live_at(&x_overlay, p.x) {
                        return Err(TopKError::DuplicateX {
                            existing,
                            rejected: p,
                        });
                    }
                    let score_live = *score_overlay
                        .get(&p.score)
                        .unwrap_or(&scores.contains(&p.score));
                    if score_live {
                        return Err(TopKError::DuplicateScore {
                            score: p.score,
                            rejected: p,
                        });
                    }
                    x_overlay.insert(p.x, Some(p));
                    score_overlay.insert(p.score, true);
                    resolved
                        .get_mut(j)
                        .expect("binary_search hit is in range")
                        .push(*op);
                    summary.inserted += 1;
                }
                UpdateOp::Delete(p) => {
                    if live_at(&x_overlay, p.x) == Some(p) {
                        x_overlay.insert(p.x, None);
                        score_overlay.insert(p.score, false);
                        resolved
                            .get_mut(j)
                            .expect("binary_search hit is in range")
                            .push(*op);
                        summary.deleted += 1;
                    } else {
                        summary.missing_deletes += 1;
                    }
                }
            }
        }
        // Validation succeeded: commit the score delta and release the
        // registry before the (possibly long) structural commit.
        for (&score, &live) in &score_overlay {
            if live {
                scores.insert(score);
            } else {
                scores.remove(&score);
            }
        }
        drop(scores);

        // Pass 2: commit each shard's sub-batch, in parallel when the batch
        // spans shards. Each commit runs its shard's deferred rebuild check
        // once, and a sub-batch rewriting ≥ 1/16 of its shard commits as one
        // shard rebuild (the same crossover knob as the unsharded batch
        // path, reusing the validation pass's scan of the shard when one
        // was taken).
        let first_error: Mutex<Option<TopKError>> = Mutex::new(None);
        if affected.len() == 1 {
            let view = views.into_iter().next().expect("one affected shard");
            let guard = guards.first().expect("one affected shard");
            let ops = resolved.first().expect("one affected shard");
            commit_shard(guard, ops, view, &first_error);
        } else {
            std::thread::scope(|scope| {
                for ((guard, ops), view) in guards.iter().zip(&resolved).zip(views) {
                    let index: &TopKIndex = guard;
                    let first_error = &first_error;
                    scope.spawn(move || commit_shard(index, ops, view, first_error));
                }
            });
        }
        if let Some(e) = first_error.into_inner().unwrap() {
            return Err(e);
        }
        for (&si, ops) in affected.iter().zip(&resolved) {
            let (mut ins, mut del) = (0u64, 0u64);
            for op in ops {
                match op {
                    UpdateOp::Insert(_) => ins += 1,
                    UpdateOp::Delete(_) => del += 1,
                }
            }
            let count = &self
                .shards
                .get(si)
                .expect("affected ids come from the router")
                .count;
            count.fetch_add(ins, Ordering::Relaxed);
            count.fetch_sub(del, Ordering::Relaxed);
        }
        // A batch of nothing but missing deletes changed no data: bumping
        // the stamp would spuriously invalidate strict cursors for a no-op
        // (the point-wise paths only bump on actual mutations).
        let stamp = if summary.inserted > 0 || summary.deleted > 0 {
            Some(self.commits.fetch_add(1, Ordering::Release) + 1)
        } else {
            None
        };
        drop(guards);
        self.maybe_rebalance();
        Ok((summary, stamp))
    }

    // ----- rebalancing -----

    /// The rebalance trigger, run by the committing writer *after* its
    /// per-operation locks are released (so the check — and the repartition
    /// it may start — never extends an update's critical section). At most
    /// one rebalance runs at a time.
    fn maybe_rebalance(&self) {
        let shards = self.shards.len() as u64;
        if shards <= 1 {
            return;
        }
        let lens = self.shard_lens();
        let total: u64 = lens.iter().sum();
        if total < REBALANCE_MIN_PER_SHARD * shards {
            return;
        }
        let mean = total / shards;
        if lens.iter().max().copied().unwrap_or(0) <= 2 * mean.max(1) {
            return;
        }
        if self.rebalancing.swap(true, Ordering::Acquire) {
            return;
        }
        self.rebalance_now();
        self.rebalancing.store(false, Ordering::Release);
    }

    /// Repartition immediately: recompute equal-count splits from the live
    /// contents and migrate points to their new shards, rebuilding every
    /// shard in parallel. Holds every shard's write lock for the duration
    /// (the new router snapshot and its epoch are published before any lock
    /// is released), so concurrent readers observe the old or the new
    /// partitioning — never a point twice or not at all.
    pub fn rebalance_now(&self) {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.index.write().unwrap())
            .collect();
        let mut all: Vec<Point> = guards.iter().flat_map(|g| g.all_points()).collect();
        all.sort_unstable_by_key(|p| p.x);
        let next_epoch = self.epoch.load(Ordering::Acquire) + 1;
        let new_router = Arc::new(Router::from_sorted(&all, self.shards.len(), next_epoch));
        let slices = partition_sorted(&all, &new_router);
        std::thread::scope(|scope| {
            for (guard, slice) in guards.iter().zip(&slices) {
                let index: &TopKIndex = guard;
                scope.spawn(move || index.rebuild_unvalidated(slice));
            }
        });
        for (shard, slice) in self.shards.iter().zip(&slices) {
            shard.count.store(slice.len() as u64, Ordering::Relaxed);
        }
        self.router.publish(&new_router);
        self.epoch.store(next_epoch, Ordering::Release);
        self.commits.fetch_add(1, Ordering::Release);
    }

    /// Run every shard's internal consistency checks and verify the routing
    /// and occupancy bookkeeping (test support).
    pub fn check_invariants(&self) {
        let pinned = self.read();
        let mut total = 0u64;
        for (i, (index, shard)) in pinned.guards.iter().zip(self.shards.iter()).enumerate() {
            index.check_invariants();
            assert_eq!(
                index.len(),
                shard.count.load(Ordering::Relaxed),
                "shard {i} occupancy counter drifted"
            );
            for p in index.all_points() {
                assert_eq!(
                    pinned.router.shard_of(p.x),
                    i,
                    "point ({}, {}) misrouted",
                    p.x,
                    p.score
                );
            }
            total += index.len();
        }
        assert_eq!(self.scores.lock().unwrap().len() as u64, total);
    }
}

/// Commit-stamped operations for the `topk-testkit` history recorder.
/// Writes report the exact stamp their commit received (assigned under the
/// shard write locks, so stamps totally order commits); queries report the
/// `[before, after]` window of the global stamp around their shard-locked
/// read, inside which a witness version for the answer must exist.
#[cfg(feature = "testkit-hooks")]
impl ShardedTopK {
    /// The current global commit stamp.
    pub fn commit_stamp(&self) -> u64 {
        self.commits.load(Ordering::Acquire)
    }

    /// Insert `p` and return the exact global commit stamp of the write.
    pub fn insert_stamped(&self, p: Point) -> Result<u64> {
        self.insert_inner(p)
    }

    /// Delete `p`; `Some(stamp)` if it was present (a miss burns no stamp).
    pub fn delete_stamped(&self, p: Point) -> Result<Option<u64>> {
        self.delete_inner(p)
    }

    /// Apply `batch` atomically; the stamp is `Some` when the batch mutated
    /// anything.
    pub fn apply_stamped(&self, batch: &UpdateBatch) -> Result<(BatchSummary, Option<u64>)> {
        self.apply_inner(batch)
    }

    /// The eager fan-out answer plus the global-stamp window around the
    /// shard-locked read. Writes to shards outside the span may widen the
    /// window without affecting the answer; writes to covered shards are
    /// either entirely before the read (stamp within or below the window)
    /// or entirely after it (stamp above the window's low end), so a
    /// witness version always exists inside `[lo, hi]`.
    pub fn query_stamped(&self, x1: u64, x2: u64, k: usize) -> Result<(Vec<Point>, u64, u64)> {
        let lo = self.commits.load(Ordering::Acquire);
        let out = self.query(x1, x2, k)?;
        let hi = self.commits.load(Ordering::Acquire);
        Ok((out, lo, hi))
    }
}

impl std::fmt::Debug for ShardedTopK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTopK")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("shard_lens", &self.shard_lens())
            .finish_non_exhaustive()
    }
}

/// Apply a validated per-shard sub-batch: the same commit strategy (and the
/// same [`REBUILD_CROSSOVER`](crate::batch::REBUILD_CROSSOVER) knob) as the
/// unsharded batch path — point-wise below the crossover, one shard rebuild
/// above it (sized on the *resolved* ops, misses already dropped) — recording
/// the first fatal error encountered. `view` is the validation pass's view of
/// this shard; a `Scan` view already holds the full point map, so the rebuild
/// path never re-scans the shard it was just validated against.
fn commit_shard(
    index: &TopKIndex,
    ops: &[UpdateOp],
    view: LiveView,
    first_error: &Mutex<Option<TopKError>>,
) {
    if ops.is_empty() {
        return;
    }
    let inserted = ops
        .iter()
        .filter(|op| matches!(op, UpdateOp::Insert(_)))
        .count() as u64;
    let n_after = (index.len() + inserted).max(1);
    if (ops.len() as u64) * crate::batch::REBUILD_CROSSOVER >= n_after {
        let mut live: HashMap<u64, Point> = match view {
            LiveView::Scan(live) => live,
            LiveView::Probe => index.all_points().into_iter().map(|p| (p.x, p)).collect(),
        };
        for op in ops {
            match *op {
                UpdateOp::Insert(p) => {
                    live.insert(p.x, p);
                }
                UpdateOp::Delete(p) => {
                    live.remove(&p.x);
                }
            }
        }
        let points: Vec<Point> = live.into_values().collect();
        index.rebuild_unvalidated(&points);
        return;
    }
    for op in ops {
        let res = match *op {
            UpdateOp::Insert(p) => {
                index.insert_validated(p);
                Ok(())
            }
            // Validation proved presence under the held write lock, so a
            // miss here means the components disagree — the same fatal
            // condition `delete_validated` itself reports.
            UpdateOp::Delete(p) => match index.delete_validated(p) {
                Ok(true) => Ok(()),
                Ok(false) => Err(TopKError::Inconsistent {
                    point: p,
                    component: "sharded-commit",
                }),
                Err(e) => Err(e),
            },
        };
        if let Err(e) = res {
            first_error.lock().unwrap().get_or_insert(e);
            return;
        }
    }
    index.maybe_rebuild();
}

/// Split `sorted` (ascending by coordinate) into per-shard slices according
/// to `router`'s split points.
fn partition_sorted<'a>(sorted: &'a [Point], router: &Router) -> Vec<&'a [Point]> {
    let mut slices = Vec::with_capacity(router.splits.len() + 1);
    let mut rest = sorted;
    for &split in &router.splits {
        let (head, tail) = rest.split_at(rest.partition_point(|p| p.x < split));
        slices.push(head);
        rest = tail;
    }
    slices.push(rest);
    slices
}

/// The read side of every held shard plus an epoch-validated routing
/// snapshot, pinning one consistent version of a [`ShardedTopK`] — the
/// sharded analogue of
/// [`ConcurrentTopK::read`](crate::ConcurrentTopK::read). Obtained from
/// [`ShardedTopK::read`]; writers to a held shard block until it is dropped.
pub struct ShardedReadGuard<'a> {
    /// The routing snapshot the guard's shard locks were validated against
    /// (no router lock is held — the snapshot is immutable).
    router: Arc<Router>,
    /// Shard id of `guards[0]` (0 for a full [`ShardedTopK::read`] guard).
    base: usize,
    guards: Vec<RwLockReadGuard<'a, TopKIndex>>,
    /// The index's commit stamp, loaded after every lock above was acquired.
    stamp: u64,
}

impl ShardedReadGuard<'_> {
    /// The commit stamp of the pinned view: equal stamps across two guards
    /// witness that no write committed to the index in between (see the
    /// `commits` field docs). Strict cursors compare it across fetch rounds.
    pub fn version(&self) -> u64 {
        self.stamp
    }

    /// Stream the answer to `request` lazily across shards: one
    /// [`TopKIndex::stream`] per overlapping shard, merged in descending
    /// score order by [`ShardedResults`]. Shards outside the range
    /// contribute no I/O.
    ///
    /// # Errors
    ///
    /// The same validation as [`TopKIndex::query`].
    pub fn stream(&self, request: QueryRequest) -> Result<ShardedResults<'_>> {
        request.validate()?;
        let (lo, hi) = self.router.overlap(request.x1(), request.x2());
        let lo = lo.max(self.base);
        let hi = hi.min(self.base + self.guards.len().saturating_sub(1));
        let mut streams = Vec::with_capacity(hi.saturating_sub(lo) + 1);
        for i in lo..=hi {
            let guard = self
                .guards
                .get(i - self.base)
                .expect("span clamped to the held guards");
            streams.push(guard.stream(request.clone())?);
        }
        Ok(ShardedResults::new(streams, request.k()))
    }

    /// The eager fan-out query against this pinned version.
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        Ok(self.stream(QueryRequest::range(x1, x2).top(k))?.collect())
    }

    /// Global ids of the shards overlapping `[x1, x2]`, clamped to the
    /// shards this guard actually holds. Used by the cursor read plane to
    /// lay out one merge lane per `(range, shard)` pair.
    pub(crate) fn overlap_held(&self, x1: u64, x2: u64) -> (usize, usize) {
        let (lo, hi) = self.router.overlap(x1, x2);
        (
            lo.max(self.base),
            hi.min(self.base + self.guards.len().saturating_sub(1)),
        )
    }

    /// The pinned index of global shard `id` (must lie within the span
    /// returned by [`ShardedReadGuard::overlap_held`]).
    pub(crate) fn shard(&self, id: usize) -> &TopKIndex {
        self.guards
            .get(id - self.base)
            .expect("caller stays within the overlap_held span")
    }

    /// Number of points with `x ∈ [x1, x2]` in this pinned version.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2`.
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        if x1 > x2 {
            return Err(TopKError::InvertedRange { x1, x2 });
        }
        let (lo, hi) = self.router.overlap(x1, x2);
        let lo = lo.max(self.base);
        let hi = hi.min(self.base + self.guards.len().saturating_sub(1));
        Ok((lo..=hi)
            .map(|i| {
                self.guards
                    .get(i - self.base)
                    .expect("span clamped to the held guards")
                    .count_unvalidated(x1, x2)
            })
            .sum())
    }
}

/// A merge-heap entry; ordered by score (globally distinct), coordinate as a
/// deterministic tiebreak for defence in depth. Shared with the cursor read
/// plane's per-round merge, so the two k-way merges cannot diverge on
/// ordering.
pub(crate) struct MergeEntry {
    pub(crate) point: Point,
    pub(crate) slot: usize,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.point.score, self.point.x) == (other.point.score, other.point.x)
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.point.score, self.point.x).cmp(&(other.point.score, other.point.x))
    }
}

/// The lazy merged answer of a sharded fan-out query, in strictly descending
/// score order — the sharded analogue of [`TopKResults`].
///
/// Each overlapping shard contributes its own streaming [`TopKResults`]; the
/// merge keeps exactly one candidate per stream in a binary heap (≤ the
/// fan-out width, itself ≤ `k` useful entries) and pulls a stream's next
/// point only after emitting its previous one. Per-shard escalation rounds
/// therefore run only as far as the merge actually consumes that shard —
/// prefix-only cost survives the fan-out.
pub struct ShardedResults<'g> {
    streams: Vec<TopKResults<'g>>,
    heap: BinaryHeap<MergeEntry>,
    emitted: usize,
    k: usize,
}

impl<'g> ShardedResults<'g> {
    fn new(mut streams: Vec<TopKResults<'g>>, k: usize) -> Self {
        let mut heap = BinaryHeap::with_capacity(streams.len());
        for (slot, stream) in streams.iter_mut().enumerate() {
            if let Some(point) = stream.next() {
                heap.push(MergeEntry { point, slot });
            }
        }
        Self {
            streams,
            heap,
            emitted: 0,
            k,
        }
    }

    /// Number of points handed out so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }
}

impl Iterator for ShardedResults<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.emitted >= self.k {
            return None;
        }
        let entry = self.heap.pop()?;
        if let Some(point) = self.streams.get_mut(entry.slot).and_then(|s| s.next()) {
            self.heap.push(MergeEntry {
                point,
                slot: entry.slot,
            });
        }
        self.emitted += 1;
        Some(entry.point)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.k - self.emitted))
    }
}

impl std::iter::FusedIterator for ShardedResults<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oracle;
    use emsim::EmConfig;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(EmConfig::new(256, 256 * 256))
    }

    fn points(seed: u64, n: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<u64> = (0..n).map(|i| i * 3 + 1).collect();
        let mut scores: Vec<u64> = (0..n).map(|i| i * 13 + 7).collect();
        xs.shuffle(&mut rng);
        scores.shuffle(&mut rng);
        xs.into_iter()
            .zip(scores)
            .map(|(x, score)| Point { x, score })
            .collect()
    }

    #[test]
    fn sharded_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedTopK>();
    }

    #[test]
    fn routing_covers_the_domain_and_splits_sort() {
        let router = Router::even(4, 0);
        assert_eq!(router.shard_of(0), 0);
        assert_eq!(router.shard_of(u64::MAX), 3);
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i * 10, i + 1)).collect();
        let router = Router::from_sorted(&pts, 4, 1);
        assert!(router.splits.windows(2).all(|w| w[0] <= w[1]));
        let slices = partition_sorted(&pts, &router);
        assert_eq!(slices.iter().map(|s| s.len()).sum::<usize>(), 100);
        for (i, slice) in slices.iter().enumerate() {
            for p in *slice {
                assert_eq!(router.shard_of(p.x), i);
            }
        }
    }

    #[test]
    fn fan_out_query_matches_oracle_across_shard_counts() {
        let pts = points(11, 3000);
        let oracle = Oracle::from_points(&pts);
        for shards in [1usize, 3, 8] {
            let dev = device();
            let index = ShardedTopK::new(&dev, TopKConfig::default(), shards);
            index.bulk_build(&pts).unwrap();
            assert_eq!(index.len(), 3000);
            assert_eq!(index.shard_count(), shards);
            index.check_invariants();
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..30 {
                let a = rng.gen_range(0..12_000u64);
                let b = rng.gen_range(a..=12_000u64);
                let k = *[1usize, 3, 17, 80, 500].choose(&mut rng).unwrap();
                assert_eq!(
                    index.query(a, b, k).unwrap(),
                    oracle.query(a, b, k),
                    "shards={shards} [{a},{b}] k={k}"
                );
                assert_eq!(
                    index.count_in_range(a, b).unwrap(),
                    oracle.count(a, b) as u64
                );
            }
        }
    }

    #[test]
    fn streaming_through_the_guard_is_lazy_and_exact() {
        let pts = points(13, 2000);
        let oracle = Oracle::from_points(&pts);
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::default(), 4);
        index.bulk_build(&pts).unwrap();
        let guard = index.read();
        let full: Vec<Point> = guard
            .stream(QueryRequest::range(0, u64::MAX).top(300))
            .unwrap()
            .collect();
        assert_eq!(full, oracle.query(0, u64::MAX, 300));
        let mut s = guard
            .stream(QueryRequest::range(0, u64::MAX).top(300))
            .unwrap();
        let prefix: Vec<Point> = s.by_ref().take(7).collect();
        assert_eq!(prefix[..], full[..7]);
        assert_eq!(s.emitted(), 7);
        assert_eq!(guard.count_in_range(0, u64::MAX).unwrap(), 2000);
        assert_eq!(guard.query(0, 500, 5).unwrap(), oracle.query(0, 500, 5));
        drop(guard);
        // A short prefix of a wide query does less work than materializing:
        // the per-shard escalation rounds never run past the consumed
        // prefix. (Counted in logical accesses — at this size the pool
        // caches everything, so physical reads cannot tell them apart.)
        dev.drop_cache();
        let (_, full_cost) = dev.measure(|| index.query(0, u64::MAX, 1500).unwrap());
        dev.drop_cache();
        let (_, prefix_cost) = dev.measure(|| {
            let guard = index.read();
            guard
                .stream(QueryRequest::range(0, u64::MAX).top(1500))
                .unwrap()
                .take(3)
                .count()
        });
        assert!(
            prefix_cost.logical < full_cost.logical / 2,
            "prefix {} logical accesses vs full {}",
            prefix_cost.logical,
            full_cost.logical
        );
    }

    #[test]
    fn point_updates_route_and_validate_globally() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::default(), 4);
        let pts = points(17, 1200);
        index.bulk_build(&pts).unwrap();
        // Duplicate coordinate and duplicate score are rejected even when
        // the duplicate would land in a different shard than the original.
        let someone = pts[700];
        let err = index
            .insert(Point::new(someone.x, 999_999_999))
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        let err = index
            .insert(Point::new(999_999_999, someone.score))
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateScore { .. }));
        // A rejected insert rolls its score reservation back.
        index.insert(Point::new(999_999_999, 999_999_997)).unwrap();
        assert!(index.delete(Point::new(999_999_999, 999_999_997)).unwrap());
        assert!(!index.delete(Point::new(999_999_999, 999_999_997)).unwrap());
        assert_eq!(index.len(), 1200);
        index.check_invariants();
    }

    #[test]
    fn batches_commit_atomically_across_shards() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::default(), 4);
        let pts = points(19, 1000);
        index.bulk_build(&pts).unwrap();
        let mut oracle = Oracle::from_points(&pts);
        // A batch spanning all shards: delete spread-out points, insert
        // fresh ones, including an in-batch coordinate reuse.
        let mut batch = UpdateBatch::new();
        for i in 0..200usize {
            let victim = pts[i * 5];
            batch.push(UpdateOp::Delete(victim));
            oracle.delete(victim);
            let fresh = Point::new(victim.x, 1_000_000 + i as u64);
            batch.push(UpdateOp::Insert(fresh));
            oracle.insert(fresh);
        }
        batch.push(UpdateOp::Delete(Point::new(123_456_789, 1))); // miss
        let summary = index.apply(&batch).unwrap();
        assert_eq!(
            (summary.inserted, summary.deleted, summary.missing_deletes),
            (200, 200, 1)
        );
        assert_eq!(index.len(), 1000);
        index.check_invariants();
        assert_eq!(
            index.query(0, u64::MAX, 50).unwrap(),
            oracle.query(0, u64::MAX, 50)
        );
        // A failing batch changes nothing.
        let before = index.query(0, u64::MAX, 20).unwrap();
        let bad = UpdateBatch::new()
            .insert(Point::new(5_000_000, 5_000_000))
            .insert(Point::new(5_000_001, 5_000_000));
        assert!(matches!(
            index.apply(&bad).unwrap_err(),
            TopKError::DuplicateScore { .. }
        ));
        assert_eq!(index.len(), 1000);
        assert_eq!(index.query(0, u64::MAX, 20).unwrap(), before);
        index.check_invariants();
    }

    #[test]
    fn skewed_growth_triggers_rebalance_and_preserves_answers() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::default(), 4);
        let pts = points(23, 800);
        index.bulk_build(&pts).unwrap();
        let mut oracle = Oracle::from_points(&pts);
        // Hammer one end of the domain so a single shard fills up.
        for i in 0..1200u64 {
            let p = Point::new(100_000 + i * 3, 500_000 + i * 7);
            index.insert(p).unwrap();
            oracle.insert(p);
        }
        let lens = index.shard_lens();
        let mean = index.len() / 4;
        assert!(
            lens.iter()
                .all(|&l| l <= 2 * mean + REBALANCE_MIN_PER_SHARD),
            "rebalance never fired: {lens:?} (mean {mean})"
        );
        index.check_invariants();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = rng.gen_range(0..110_000u64);
            let b = rng.gen_range(a..=110_000u64);
            assert_eq!(index.query(a, b, 25).unwrap(), oracle.query(a, b, 25));
        }
    }

    #[test]
    fn reads_and_writes_stay_exact_across_concurrent_repartitions() {
        // Hammers the epoch-validated routing: a thread republishes the
        // router in a loop while readers fan out and a writer inserts into
        // a fresh coordinate region, so snapshots repeatedly go stale
        // between load and lock acquisition and the retry path must route
        // every operation to the current partitioning.
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::default(), 4);
        let pts = points(29, 2000);
        index.bulk_build(&pts).unwrap();
        let oracle = Oracle::from_points(&pts);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..40 {
                    index.rebalance_now();
                }
            });
            s.spawn(|| {
                for i in 0..400u64 {
                    index
                        .insert(Point::new(10_000_000 + i, 10_000_000 + i))
                        .unwrap();
                }
            });
            for t in 0..3u64 {
                let index = &index;
                let oracle = &oracle;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(31 + t);
                    for _ in 0..200 {
                        // Stay below the writer's region so the oracle
                        // answer is stable regardless of interleaving.
                        let a = rng.gen_range(0..6_000u64);
                        let b = rng.gen_range(a..=6_000u64);
                        assert_eq!(index.query(a, b, 20).unwrap(), oracle.query(a, b, 20));
                    }
                });
            }
        });
        assert_eq!(index.len(), 2400);
        index.check_invariants();
    }

    #[test]
    fn query_validation_matches_the_unsharded_contract() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::default(), 4);
        assert_eq!(
            index.query(9, 3, 5).unwrap_err(),
            TopKError::InvertedRange { x1: 9, x2: 3 }
        );
        assert_eq!(index.query(3, 9, 0).unwrap_err(), TopKError::ZeroK);
        assert!(index.query(3, 9, 5).unwrap().is_empty());
        assert_eq!(
            index.count_in_range(9, 3).unwrap_err(),
            TopKError::InvertedRange { x1: 9, x2: 3 }
        );
        assert_eq!(index.overlapping_shards(9, 3), 0);
        assert!(index.overlapping_shards(0, u64::MAX) == 4);
        assert!(index.is_empty());
        assert_eq!(index.get(7), None);
    }
}

//! The shared simulated machine: configuration, buffer pool and counters.
//!
//! Thread safety: a [`Device`] is a cheap clone of an `Arc`-shared inner
//! state. The I/O counters are per-thread striped atomics folded on read
//! (increments are never lost), the buffer pool is either a set of
//! address-hashed CLOCK shards (the default — a hit touches only its shard's
//! mutex) or one exact-LRU pool behind a single mutex (the deterministic test
//! mode, [`PoolPolicy::ExactLru`](crate::PoolPolicy)), and the file directory
//! sits behind a `RwLock` whose per-file live-page counts are atomics, so the
//! alloc/free hot path only takes the read side. A `Device` — and every
//! [`BlockFile`] opened from it — is therefore `Send + Sync` and may be hit
//! from many threads at once; see DESIGN.md §4/§8 for the locking design.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};

use crate::config::{EmConfig, PoolPolicy};
use crate::file::BlockFile;
use crate::page::Page;
use crate::pool::{AccessOutcome, Pool, ShardedPool};
use crate::stats::{AtomicIoStats, IoDelta, IoSnapshot, IoStats, PaddedCounter};

/// Identifier of a [`BlockFile`] on a device.
pub type FileId = u32;

/// Address of a page on the device: which file, which page within that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// File identifier.
    pub file: FileId,
    /// Page index within the file.
    pub page: u32,
}

/// Per-file bookkeeping: diagnostics name and live page count (the space
/// measure). The vectors only grow under [`Device::open_file`]'s write lock;
/// the counters themselves are atomics, so `record_alloc`/`record_free` bump
/// them under the *read* lock and never contend with each other or with
/// `space_blocks()` readers.
#[derive(Debug, Default)]
struct FileDirectory {
    names: Vec<String>,
    live_pages: Vec<PaddedCounter>,
}

/// The device's buffer pool in one of its two policies.
#[derive(Debug)]
enum PoolKind {
    /// Address-hashed CLOCK shards; locking lives inside [`ShardedPool`].
    Sharded(ShardedPool),
    /// One exact-LRU pool behind a global mutex (deterministic test mode).
    Exact(Mutex<Pool>),
}

impl PoolKind {
    fn access(&self, addr: PageAddr, write: bool) -> AccessOutcome {
        match self {
            PoolKind::Sharded(sharded) => sharded.access(addr, write),
            PoolKind::Exact(pool) => pool.lock().unwrap().access(addr, write),
        }
    }

    fn discard(&self, addr: PageAddr) {
        match self {
            PoolKind::Sharded(sharded) => sharded.discard(addr),
            PoolKind::Exact(pool) => pool.lock().unwrap().discard(addr),
        }
    }

    fn flush(&self) -> u64 {
        match self {
            PoolKind::Sharded(sharded) => sharded.flush(),
            PoolKind::Exact(pool) => pool.lock().unwrap().flush(),
        }
    }

    fn clear(&self) -> u64 {
        match self {
            PoolKind::Sharded(sharded) => sharded.clear(),
            PoolKind::Exact(pool) => pool.lock().unwrap().clear(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            PoolKind::Sharded(sharded) => sharded.capacity(),
            PoolKind::Exact(pool) => pool.lock().unwrap().capacity(),
        }
    }

    fn resident(&self) -> usize {
        match self {
            PoolKind::Sharded(sharded) => sharded.resident(),
            PoolKind::Exact(pool) => pool.lock().unwrap().resident(),
        }
    }

    fn shard_count(&self) -> usize {
        match self {
            PoolKind::Sharded(sharded) => sharded.shard_count(),
            PoolKind::Exact(_) => 1,
        }
    }
}

#[derive(Debug)]
struct DeviceInner {
    config: EmConfig,
    stats: AtomicIoStats,
    pool: PoolKind,
    files: RwLock<FileDirectory>,
}

/// A cheaply clonable handle to the simulated machine. All block files opened
/// from the same device share its buffer pool and I/O counters, which models one
/// machine running one data structure composed of many node files.
#[derive(Debug, Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Create a device with the given machine parameters.
    pub fn new(config: EmConfig) -> Self {
        let pool = match config.pool_policy {
            PoolPolicy::ShardedClock => PoolKind::Sharded(ShardedPool::new(config.frames())),
            PoolPolicy::ExactLru => PoolKind::Exact(Mutex::new(Pool::new(config.frames()))),
        };
        Self {
            inner: Arc::new(DeviceInner {
                config,
                stats: AtomicIoStats::default(),
                pool,
                files: RwLock::new(FileDirectory::default()),
            }),
        }
    }

    /// Create a device with the default disk-like configuration.
    pub fn default_disk() -> Self {
        Self::new(EmConfig::default())
    }

    /// The machine parameters.
    pub fn config(&self) -> EmConfig {
        self.inner.config
    }

    /// Block size `B` in words.
    pub fn block_words(&self) -> usize {
        self.inner.config.block_words
    }

    /// Open a new, empty block file for pages of type `P`. The `name` is only
    /// used for diagnostics and space breakdowns.
    pub fn open_file<P: Page>(&self, name: &str) -> BlockFile<P> {
        BlockFile::new(self.clone(), self.mint_file_id(name))
    }

    fn mint_file_id(&self, name: &str) -> FileId {
        let mut files = self.inner.files.write().unwrap();
        let id = files.names.len() as FileId;
        files.names.push(name.to_string());
        files.live_pages.push(PaddedCounter::default());
        id
    }

    /// Current counter values.
    pub fn stats(&self) -> IoStats {
        self.inner.stats.snapshot()
    }

    /// Take a snapshot to later measure the cost of an operation.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot(self.stats())
    }

    /// I/Os performed since `snap`.
    pub fn since(&self, snap: &IoSnapshot) -> IoDelta {
        snap.delta(&self.stats())
    }

    /// Run `f` and return its result together with the I/Os it performed.
    /// Under concurrency the delta also includes whatever other threads did in
    /// the interval; cost measurements belong in single-threaded phases.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, IoDelta) {
        let snap = self.snapshot();
        let r = f();
        (r, self.since(&snap))
    }

    /// Reset all counters to zero (the buffer-pool contents are kept).
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
    }

    /// Evict every page from the buffer pool, charging write-backs for dirty
    /// pages. Used by experiments that want cold-cache query measurements.
    /// With the sharded pool, shards are cleared one at a time; concurrent
    /// accesses may repopulate earlier shards while later ones drain.
    pub fn drop_cache(&self) {
        let writes = self.inner.pool.clear();
        self.inner.stats.add_writes(writes);
    }

    /// Write back all dirty pages (counted) without evicting them.
    pub fn flush(&self) {
        let writes = self.inner.pool.flush();
        self.inner.stats.add_writes(writes);
    }

    /// Total number of live pages across all files — the structure's space in
    /// blocks, the paper's space measure.
    pub fn space_blocks(&self) -> u64 {
        let files = self.inner.files.read().unwrap();
        files
            .live_pages
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-file `(name, live pages)` breakdown.
    pub fn space_breakdown(&self) -> Vec<(String, u64)> {
        let files = self.inner.files.read().unwrap();
        files
            .names
            .iter()
            .cloned()
            .zip(files.live_pages.iter().map(|c| c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Number of buffer-pool frames (`M/B`).
    pub fn frames(&self) -> usize {
        self.inner.pool.capacity()
    }

    /// Number of pages currently resident in the pool.
    pub fn resident_pages(&self) -> usize {
        self.inner.pool.resident()
    }

    /// Number of buffer-pool shards (1 in the exact-LRU test mode).
    pub fn pool_shards(&self) -> usize {
        self.inner.pool.shard_count()
    }

    // ----- internal hooks used by BlockFile -----

    pub(crate) fn record_access(&self, addr: PageAddr, write: bool) {
        let outcome = self.inner.pool.access(addr, write);
        self.inner
            .stats
            .record_access(outcome.miss, outcome.wrote_back);
    }

    pub(crate) fn record_alloc(&self, file: FileId) {
        self.inner.stats.add_alloc();
        let files = self.inner.files.read().unwrap();
        files
            .live_pages
            .get(file as usize)
            .expect("FileId minted by this device")
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_free(&self, addr: PageAddr) {
        self.inner.pool.discard(addr);
        self.inner.stats.add_free();
        let files = self.inner.files.read().unwrap();
        let live = files
            .live_pages
            .get(addr.file as usize)
            .expect("FileId minted by this device");
        // Saturating decrement: a count that would underflow indicates a
        // caller bug (free without alloc) and pins at zero, matching the old
        // mutex-guarded behaviour.
        let mut cur = live.load(Ordering::Relaxed);
        while cur > 0 {
            match live.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn record_capacity_violation(&self, words: usize) {
        self.inner.stats.add_capacity_violation();
        debug_assert!(
            false,
            "page of {} words exceeds block capacity of {} words",
            words,
            self.block_words()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct P(usize);
    impl Page for P {
        fn words(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn measure_reports_deltas() {
        let dev = Device::new(EmConfig::small());
        let file: BlockFile<P> = dev.open_file("t");
        let id = file.alloc(P(4));
        // Warm access.
        file.with(id, |_| ());
        let (_, d) = dev.measure(|| file.with(id, |_| ()));
        assert_eq!(d.reads, 0, "second access hits the pool");
        assert_eq!(d.logical, 1);
    }

    #[test]
    fn space_accounting_tracks_alloc_and_free() {
        let dev = Device::new(EmConfig::small());
        let f1: BlockFile<P> = dev.open_file("a");
        let f2: BlockFile<P> = dev.open_file("b");
        let a = f1.alloc(P(1));
        let _b = f1.alloc(P(1));
        let _c = f2.alloc(P(1));
        assert_eq!(dev.space_blocks(), 3);
        f1.free(a);
        assert_eq!(dev.space_blocks(), 2);
        let breakdown = dev.space_breakdown();
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown[0], ("a".to_string(), 1));
        assert_eq!(breakdown[1], ("b".to_string(), 1));
    }

    #[test]
    fn small_pool_causes_misses_on_scan() {
        // With only a handful of frames, repeatedly scanning more pages than
        // fit must incur physical reads every round.
        let cfg = EmConfig::new(64, 4 * 64); // 4 frames
        let dev = Device::new(cfg);
        let file: BlockFile<P> = dev.open_file("scan");
        let ids: Vec<_> = (0..16).map(|_| file.alloc(P(8))).collect();
        dev.reset_stats();
        for _ in 0..3 {
            for &id in &ids {
                file.with(id, |_| ());
            }
        }
        let s = dev.stats();
        assert_eq!(s.logical, 48);
        assert!(
            s.reads >= 40,
            "a 4-frame pool cannot cache a 16-page scan (reads={})",
            s.reads
        );
    }

    #[test]
    fn drop_cache_forces_cold_reads() {
        let dev = Device::new(EmConfig::small());
        let file: BlockFile<P> = dev.open_file("t");
        let id = file.alloc(P(1));
        file.with(id, |_| ());
        dev.drop_cache();
        let (_, d) = dev.measure(|| file.with(id, |_| ()));
        assert_eq!(d.reads, 1);
    }

    #[test]
    fn device_and_files_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
        assert_send_sync::<BlockFile<P>>();
    }

    #[test]
    fn concurrent_accesses_never_lose_counter_updates() {
        // The no-lost-updates contract: with T threads each performing A
        // logical accesses and the allocation pattern known, the counters must
        // come out exact — not approximately right.
        const THREADS: usize = 8;
        const ACCESSES: u64 = 2_000;
        let dev = Device::new(EmConfig::new(64, 8 * 64)); // 8 frames: misses guaranteed
        let file: BlockFile<P> = dev.open_file("shared");
        let ids: Vec<_> = (0..64).map(|_| file.alloc(P(4))).collect();
        assert_eq!(dev.stats().allocs, 64);
        dev.reset_stats();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let file = &file;
                let ids = &ids;
                scope.spawn(move || {
                    for i in 0..ACCESSES {
                        let id = ids[((i as usize) * 7 + t * 13) % ids.len()];
                        file.with(id, |_| ());
                    }
                });
            }
        });
        let s = dev.stats();
        assert_eq!(s.logical, THREADS as u64 * ACCESSES);
        assert_eq!(dev.space_blocks(), 64);
        assert!(
            s.reads >= 64,
            "a tiny pool must miss under a 64-page working set"
        );
    }
}

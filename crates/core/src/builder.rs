//! Fluent construction of indexes.
//!
//! The seed API made every caller perform a two-step dance — build an
//! [`emsim::Device`], then pair it with a [`TopKConfig`]. [`IndexBuilder`]
//! owns both steps: machine shape (`block_words`, `pool_bytes`), workload
//! shape (`expected_n`, which sizes the default shard count) and the
//! serving topology, with validation at `build()` time instead of panics
//! later.

use std::path::PathBuf;
use std::sync::Arc;

use emsim::{Device, EmConfig};

use crate::concurrent::ConcurrentTopK;
use crate::config::TopKConfig;
use crate::error::{Result, TopKError};
use crate::facade::TopK;
use crate::index::TopKIndex;
use crate::sharded::ShardedTopK;

/// Builder for [`TopKIndex`] / [`ConcurrentTopK`] / [`ShardedTopK`],
/// obtained from [`TopKIndex::builder`], [`ConcurrentTopK::builder`] or
/// [`ShardedTopK::builder`].
///
/// ```
/// use topk_core::{Point, TopKIndex};
///
/// let index = TopKIndex::builder()
///     .block_words(512)
///     .pool_bytes(8 << 20)
///     .expected_n(100_000)
///     .build()?;
/// index.insert(Point::new(7, 42))?;
/// # Ok::<(), topk_core::TopKError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    device: Option<Device>,
    block_words: usize,
    pool_bytes: usize,
    shards: Option<usize>,
    durable_dir: Option<PathBuf>,
    config: TopKConfig,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexBuilder {
    /// A builder with the default machine (4 KiB blocks, 16 MiB pool) and
    /// the default [`TopKConfig`].
    pub fn new() -> Self {
        Self {
            device: None,
            block_words: 512,
            pool_bytes: 16 << 20,
            shards: None,
            durable_dir: None,
            config: TopKConfig::default(),
        }
    }

    /// Block size `B` of the simulated machine, in 8-byte words.
    pub fn block_words(mut self, words: usize) -> Self {
        self.block_words = words;
        self
    }

    /// Buffer-pool size `M` of the simulated machine, in bytes.
    pub fn pool_bytes(mut self, bytes: usize) -> Self {
        self.pool_bytes = bytes;
        self
    }

    /// Place the index on an existing device instead of constructing one
    /// (several structures sharing one machine, as the experiments do).
    /// Overrides [`IndexBuilder::block_words`] / [`IndexBuilder::pool_bytes`].
    pub fn device(mut self, device: &Device) -> Self {
        self.device = Some(device.clone());
        self
    }

    /// Make the index **durable**: every committed operation is logged to
    /// `dir`, and `build*()` recovers what the directory holds — reopening
    /// the same directory recovers the index to its last committed stamp
    /// (DESIGN.md §10). Mutually exclusive with [`IndexBuilder::device`];
    /// durable indexes serialize writers, so [`IndexBuilder::build_sharded`]
    /// (and `shards > 1`) is rejected.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// The anticipated number of stored points; the default shard count of
    /// [`IndexBuilder::build_sharded`] and [`IndexBuilder::build_auto`] is
    /// derived from it.
    pub fn expected_n(mut self, n: usize) -> Self {
        self.config.expected_n = n;
        self
    }

    /// Rebuild everything after the live size drifts by this factor
    /// (default 2, the paper's doubling/halving policy).
    pub fn rebuild_factor(mut self, factor: u64) -> Self {
        self.config.rebuild_factor = factor;
        self
    }

    /// Number of range shards for [`IndexBuilder::build_sharded`]. Without
    /// an explicit count, one shard per ~64 Ki expected points is used
    /// (rounded to a power of two, capped at 16) so small indexes pay no
    /// routing overhead and large ones scale their writers.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Validate the parameters and construct the index.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvalidConfig`] naming the offending parameter.
    pub fn build(self) -> Result<TopKIndex> {
        if self.shards.is_some() {
            return Err(TopKError::InvalidConfig {
                what: "shards is set: use build_sharded() (build() is unsharded)",
            });
        }
        let (device, config, dir) = self.resolve()?;
        match dir {
            Some(dir) => TopKIndex::open_durable(&device, config, &dir),
            None => Ok(TopKIndex::new(&device, config)),
        }
    }

    /// Like [`IndexBuilder::build`], wrapped for concurrent serving behind
    /// one coarse reader–writer lock.
    pub fn build_concurrent(self) -> Result<ConcurrentTopK> {
        Ok(ConcurrentTopK::from_index(self.build()?))
    }

    /// Build a range-sharded index for parallel writers: the shard count is
    /// [`IndexBuilder::shards`] if set, otherwise derived from
    /// [`IndexBuilder::expected_n`].
    ///
    /// # Errors
    ///
    /// [`TopKError::InvalidConfig`] naming the offending parameter.
    pub fn build_sharded(mut self) -> Result<ShardedTopK> {
        let shards = match self.shards.take() {
            Some(0) => {
                return Err(TopKError::InvalidConfig {
                    what: "shards must be at least 1",
                })
            }
            Some(s) if s > 1024 => {
                return Err(TopKError::InvalidConfig {
                    what: "shards above 1024 would out-shard any realistic machine",
                })
            }
            Some(s) => s,
            None => default_shards(self.config.expected_n),
        };
        let (device, config, dir) = self.resolve()?;
        if dir.is_some() {
            return Err(TopKError::InvalidConfig {
                what: "durable indexes serialize writers through one journal: \
                       the sharded topology is not supported (drop durable() or shards)",
            });
        }
        Ok(ShardedTopK::new(&device, config, shards))
    }

    /// Build a [`TopK`] facade handle, resolving the serving topology from
    /// the workload shape at runtime: range-sharded when an explicit
    /// [`IndexBuilder::shards`] count (or the `expected_n`-derived default)
    /// calls for more than one shard, coarse-locked otherwise. Both choices
    /// are safe under concurrent readers and writers;
    /// [`TopK::Single`](crate::TopK::Single) is never chosen automatically —
    /// wrap a [`TopKIndex`] explicitly for single-threaded embedding.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvalidConfig`] naming the offending parameter.
    pub fn build_auto(mut self) -> Result<TopK> {
        // A durable index journals through one serialized write path, so the
        // only safe concurrent topology is the coarse write lock.
        if self.durable_dir.is_some() {
            match self.shards {
                Some(0) => {
                    return Err(TopKError::InvalidConfig {
                        what: "shards must be at least 1",
                    })
                }
                Some(s) if s > 1 => {
                    return Err(TopKError::InvalidConfig {
                        what: "durable indexes serialize writers through one journal: \
                               the sharded topology is not supported (drop durable() or shards)",
                    });
                }
                _ => {}
            }
            self.shards = None;
            return Ok(TopK::Concurrent(Arc::new(self.build_concurrent()?)));
        }
        let chosen = match self.shards {
            Some(0) => {
                return Err(TopKError::InvalidConfig {
                    what: "shards must be at least 1",
                })
            }
            // > 1024 flows through build_sharded's validation below.
            Some(explicit) => explicit,
            None => default_shards(self.config.expected_n),
        };
        if chosen > 1 {
            self.shards = Some(chosen);
            Ok(TopK::Sharded(Arc::new(self.build_sharded()?)))
        } else {
            // One shard — explicit or derived — means the coarse lock, which
            // serves the same workload without the routing layer.
            self.shards = None;
            Ok(TopK::Concurrent(Arc::new(self.build_concurrent()?)))
        }
    }

    fn resolve(self) -> Result<(Device, TopKConfig, Option<PathBuf>)> {
        if self.config.rebuild_factor < 2 {
            return Err(TopKError::InvalidConfig {
                what: "rebuild_factor must be at least 2",
            });
        }
        if self.config.expected_n == 0 {
            return Err(TopKError::InvalidConfig {
                what: "expected_n must be at least 1",
            });
        }
        let device = match (self.device, &self.durable_dir) {
            (Some(_), Some(_)) => {
                return Err(TopKError::InvalidConfig {
                    what: "device and durable are mutually exclusive: a durable \
                           index owns its machine",
                });
            }
            (Some(device), None) => device,
            (None, _) => {
                if self.block_words < EmConfig::MIN_BLOCK_WORDS {
                    return Err(TopKError::InvalidConfig {
                        what: "block_words below the model minimum of 8",
                    });
                }
                let mem_words = self.pool_bytes / 8;
                if mem_words < 2 * self.block_words {
                    return Err(TopKError::InvalidConfig {
                        what: "pool_bytes must hold at least two blocks",
                    });
                }
                Device::new(EmConfig::new(self.block_words, mem_words))
            }
        };
        Ok((device, self.config, self.durable_dir))
    }
}

/// The default shard count: one shard per ~64 Ki expected points, rounded to
/// a power of two, capped at 16 (beyond that, the device's shared buffer
/// pool — not the shard locks — bounds throughput; see DESIGN.md §4).
fn default_shards(expected_n: usize) -> usize {
    (expected_n >> 16).next_power_of_two().clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epst::Point;

    #[test]
    fn builder_constructs_a_working_index() {
        let index = TopKIndex::builder()
            .block_words(128)
            .pool_bytes(1 << 20)
            .expected_n(1000)
            .build()
            .unwrap();
        assert_eq!(index.device().block_words(), 128);
        assert_eq!(index.config().expected_n, 1000);
        for i in 1..=100u64 {
            index.insert(Point::new(i, i * 7)).unwrap();
        }
        assert_eq!(index.query(1, 50, 3).unwrap().len(), 3);
    }

    #[test]
    fn invalid_parameters_are_rejected_by_name() {
        for (builder, needle) in [
            (TopKIndex::builder().rebuild_factor(1), "rebuild_factor"),
            (TopKIndex::builder().expected_n(0), "expected_n"),
            (TopKIndex::builder().block_words(2), "block_words"),
            (
                TopKIndex::builder().block_words(512).pool_bytes(64),
                "pool_bytes",
            ),
        ] {
            let err = builder.build().unwrap_err();
            let TopKError::InvalidConfig { what } = err else {
                panic!("expected InvalidConfig, got {err:?}");
            };
            assert!(what.contains(needle), "{what} vs {needle}");
        }
    }

    #[test]
    fn sharded_build_defaults_scale_with_expected_n() {
        let small = ShardedTopK::builder()
            .expected_n(1000)
            .build_sharded()
            .unwrap();
        assert_eq!(small.shard_count(), 1);
        let large = ShardedTopK::builder()
            .expected_n(1 << 20)
            .build_sharded()
            .unwrap();
        assert_eq!(large.shard_count(), 16);
        let explicit = ShardedTopK::builder()
            .expected_n(1000)
            .shards(6)
            .build_sharded()
            .unwrap();
        assert_eq!(explicit.shard_count(), 6);
        explicit.insert(Point::new(1, 2)).unwrap();
        assert_eq!(explicit.len(), 1);
    }

    #[test]
    fn sharded_parameters_are_validated() {
        for (builder, needle) in [
            (TopKIndex::builder().shards(0), "shards"),
            (TopKIndex::builder().shards(4096), "shards"),
        ] {
            let TopKError::InvalidConfig { what } = builder.build_sharded().unwrap_err() else {
                panic!("expected InvalidConfig");
            };
            assert!(what.contains(needle), "{what}");
        }
        // A builder with shards set must go through build_sharded().
        let err = TopKIndex::builder().shards(4).build().unwrap_err();
        assert!(matches!(err, TopKError::InvalidConfig { .. }));
    }

    #[test]
    fn shared_device_and_concurrent_build() {
        let device = Device::new(EmConfig::new(256, 256 * 64));
        let index = ConcurrentTopK::builder()
            .device(&device)
            .expected_n(500)
            .build_concurrent()
            .unwrap();
        index.insert(Point::new(1, 2)).unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index.device().block_words(), 256);
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("topk-builder-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_build_recovers_across_reopen() {
        let dir = scratch("reopen");
        {
            let index = TopKIndex::builder()
                .durable(&dir)
                .expected_n(200)
                .build()
                .unwrap();
            assert!(index.is_durable());
            assert_eq!(index.recovered_stamp(), Some(0));
            for i in 1..=50u64 {
                index.insert(Point::new(i, i * 7)).unwrap();
            }
            for i in (1..=50u64).step_by(5) {
                assert!(index.delete(Point::new(i, i * 7)).unwrap());
            }
        }
        let index = TopKIndex::builder()
            .durable(&dir)
            .expected_n(200)
            .build()
            .unwrap();
        assert_eq!(index.len(), 40);
        let stamp = index.recovered_stamp().unwrap();
        assert!(stamp >= 60, "60 committed write ops, got stamp {stamp}");
        assert_eq!(index.get(2), Some(Point::new(2, 14)));
        assert_eq!(index.get(1), None);
        assert_eq!(
            index.query(0, u64::MAX, 1).unwrap(),
            vec![Point::new(50, 350)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_misconfigurations_are_rejected() {
        let dir = scratch("misconfig");
        let device = Device::new(EmConfig::new(256, 256 * 64));
        let cases: Vec<(TopKError, &str)> = vec![
            // Sharding and the single op log don't compose.
            (
                TopKIndex::builder()
                    .durable(&dir)
                    .shards(4)
                    .build_sharded()
                    .unwrap_err(),
                "journal",
            ),
            (
                TopK::builder()
                    .durable(&dir)
                    .shards(4)
                    .build_auto()
                    .unwrap_err(),
                "journal",
            ),
            // An externally-built device and a managed directory conflict.
            (
                TopKIndex::builder()
                    .device(&device)
                    .durable(&dir)
                    .build()
                    .unwrap_err(),
                "exclusive",
            ),
        ];
        for (err, needle) in cases {
            let TopKError::InvalidConfig { what } = err else {
                panic!("expected InvalidConfig, got {err}");
            };
            assert!(what.contains(needle), "{what:?} missing {needle:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_auto_serves_durable_indexes_concurrently() {
        let dir = scratch("auto");
        // A size that would normally auto-shard must still pick the
        // coarse-locked topology when durability is on.
        let handle = TopK::builder()
            .durable(&dir)
            .expected_n(1 << 20)
            .build_auto()
            .unwrap();
        assert!(matches!(handle, TopK::Concurrent(_)));
        handle.insert(Point::new(9, 4)).unwrap();
        assert_eq!(handle.recovered_stamp(), Some(0));
        assert_eq!(handle.query(0, 10, 1).unwrap(), vec![Point::new(9, 4)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

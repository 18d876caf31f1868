//! Configuration of the simulated external-memory machine.

/// Replacement policy of the device's buffer pool.
///
/// The EM cost model only says "`M/B` frames of re-use"; *which* page a full
/// pool evicts is an implementation choice. The default sharded CLOCK pool
/// scales with reader threads (a hit only sets a per-frame reference bit
/// inside one address-hashed shard), while the exact global LRU keeps the
/// textbook eviction order that the I/O-cost bound tests replay against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// Address-hashed shards, each an independent CLOCK (second-chance)
    /// approximate LRU behind its own mutex. The concurrency default.
    #[default]
    ShardedClock,
    /// One global pool with exact LRU eviction behind a single mutex.
    /// Deterministic and oracle-checkable; use for I/O-cost bound tests.
    ExactLru,
}

/// Parameters of the EM machine: block size `B` and memory size `M`, both in
/// words, plus the buffer-pool [`PoolPolicy`].
///
/// The paper requires `M = Ω(B)`; [`EmConfig::new`] enforces `M ≥ 2B` (the
/// minimum of the Aggarwal–Vitter model) and a block of at least 8 words so that
/// even tiny test configurations can hold a handful of entries per page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmConfig {
    /// Block size `B` in words.
    pub block_words: usize,
    /// Memory size `M` in words.
    pub mem_words: usize,
    /// Buffer-pool replacement policy.
    pub pool_policy: PoolPolicy,
}

impl EmConfig {
    /// Minimum supported block size in words.
    pub const MIN_BLOCK_WORDS: usize = 8;

    /// Create a configuration with block size `block_words` and memory
    /// `mem_words`, clamping to the model's minima (`B ≥ 8`, `M ≥ 2B`).
    pub fn new(block_words: usize, mem_words: usize) -> Self {
        let block_words = block_words.max(Self::MIN_BLOCK_WORDS);
        let mem_words = mem_words.max(2 * block_words);
        Self {
            block_words,
            mem_words,
            pool_policy: PoolPolicy::default(),
        }
    }

    /// This configuration with the exact-LRU buffer pool (the deterministic
    /// test mode whose eviction order the I/O-cost bound suites replay).
    pub fn exact_lru(mut self) -> Self {
        self.pool_policy = PoolPolicy::ExactLru;
        self
    }

    /// This configuration with an explicit buffer-pool policy.
    pub fn pool_policy(mut self, policy: PoolPolicy) -> Self {
        self.pool_policy = policy;
        self
    }

    /// A small configuration convenient for unit tests: `B = 64` words,
    /// `M = 16` blocks.
    pub fn small() -> Self {
        Self::new(64, 16 * 64)
    }

    /// A configuration mimicking a 4 KiB page / 64 MiB buffer-pool machine with
    /// 8-byte words: `B = 512` words, `M = 8 Mi` words.
    pub fn default_disk() -> Self {
        Self::new(512, 8 * 1024 * 1024)
    }

    /// Number of buffer-pool frames (`M / B`), at least 2.
    pub fn frames(&self) -> usize {
        (self.mem_words / self.block_words).max(2)
    }

    /// The paper's `lg_B n` for this block size.
    pub fn log_b(&self, n: usize) -> f64 {
        crate::log_b(self.block_words, n)
    }
}

impl Default for EmConfig {
    fn default() -> Self {
        Self::default_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_to_model_minima() {
        let c = EmConfig::new(1, 1);
        assert_eq!(c.block_words, EmConfig::MIN_BLOCK_WORDS);
        assert_eq!(c.mem_words, 2 * EmConfig::MIN_BLOCK_WORDS);
        assert_eq!(c.frames(), 2);
    }

    #[test]
    fn frames_is_m_over_b() {
        let c = EmConfig::new(128, 128 * 37);
        assert_eq!(c.frames(), 37);
    }

    #[test]
    fn default_is_reasonable() {
        let c = EmConfig::default();
        assert_eq!(c.block_words, 512);
        assert!(c.frames() > 1000);
        assert_eq!(c.pool_policy, PoolPolicy::ShardedClock);
    }

    #[test]
    fn exact_lru_flips_only_the_policy() {
        let c = EmConfig::small();
        let e = c.exact_lru();
        assert_eq!(e.pool_policy, PoolPolicy::ExactLru);
        assert_eq!(e.block_words, c.block_words);
        assert_eq!(e.mem_words, c.mem_words);
        assert_eq!(
            e.pool_policy(PoolPolicy::ShardedClock),
            EmConfig::small(),
            "round-trips back to the default policy"
        );
    }
}

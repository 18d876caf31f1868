//! Configuration of the combined index.

/// Parameters of a [`TopKIndex`](crate::TopKIndex). Usually assembled via
/// [`IndexBuilder`](crate::IndexBuilder) rather than by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKConfig {
    /// Rebuild everything after the live size drifts by this factor from the
    /// size at the last rebuild (the paper's global rebuilding).
    pub rebuild_factor: u64,
    /// The anticipated number of stored points, from which
    /// [`IndexBuilder`](crate::IndexBuilder) derives the default shard
    /// count. The answers of the index never depend on this value.
    pub expected_n: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        Self {
            rebuild_factor: 2,
            expected_n: 1 << 20,
        }
    }
}

//! The facade crate of the workspace: one `use topk::…` away from the whole
//! public API. The repository-level integration tests (`tests/`) and the
//! runnable examples (`examples/`) live in this package; the implementation
//! is split across the crates under `crates/` (see README.md for the map).
//!
//! The API is builder-first, fallible, batched and streaming — see
//! [`TopKIndex::builder`], [`TopKError`], [`UpdateBatch`] and
//! [`QueryRequest`], and the migration table in README.md. The read plane is
//! cursor-first: [`TopK`] (from [`IndexBuilder::build_auto`]) is the
//! topology-agnostic handle, and [`QueryCursor`] / [`ResumeToken`] serve
//! long-lived, resumable reads without holding any lock between fetch
//! rounds (DESIGN.md §6).

pub use emsim::{Device, EmConfig, IoDelta, IoSnapshot, IoStats};
pub use topk_core::{
    BatchSummary, ConcurrentTopK, Consistency, IndexBuilder, Oracle, Point, QueryCursor,
    QueryRequest, RankedIndex, Result, ResumeToken, ShardedReadGuard, ShardedResults, ShardedTopK,
    TopK, TopKConfig, TopKError, TopKIndex, TopKResults, UpdateBatch, UpdateOp,
};

//! Testkit instrumentation (compiled only with the `testkit-hooks` feature).
//!
//! Three kinds of hooks live here and in the feature-gated `impl` blocks of
//! the engine modules:
//!
//! * **Commit-stamped operations** (`insert_stamped`, `delete_stamped`,
//!   `apply_stamped`, `query_stamped` on the engines and the
//!   [`TopK`](crate::TopK) facade): each write returns the exact version
//!   stamp its commit was assigned, read *while the write-side locks are
//!   still held*, and each query returns the window of stamps it could have
//!   observed. `topk-testkit`'s history checker replays recorded writes in
//!   stamp order against a reference model and requires every recorded
//!   query answer to match the model at some stamp inside its window — the
//!   version-stamp analogue of linearizability checking over recorded
//!   histories.
//!
//! * **Fault injection** for mutation-testing the checker itself:
//!   [`inject_ordering_bug`] makes every eager query served through the
//!   facade's query paths — [`TopKIndex::query`](crate::TopKIndex::query)
//!   (which `Single` and `Concurrent` dispatch to) and
//!   [`ShardedTopK::query`](crate::ShardedTopK::query) (the fan-out merge)
//!   — transpose its two highest-scoring results, a deliberate ordering
//!   bug that a healthy checker must catch (and that `topk-testkit`'s
//!   shrinker must reduce to a minimal repro trace). The flag is
//!   process-global; tests that enable it run in their own
//!   integration-test binary so no parallel test observes the mutated
//!   answers.
//!
//! * **Scripted crashes** of a durable index:
//!   [`TopKIndex::arm_fault`](crate::TopKIndex::arm_fault) arms a
//!   [`FaultPlan`](crate::FaultPlan) that kills the store at a chosen
//!   [`KillPhase`](crate::KillPhase) of a chosen commit; `topk-testkit`'s
//!   crash topology reopens the directory and checks what survived.
//!
//! Nothing in this module is part of the public API contract; it exists so
//! the verification subsystem can observe commit points without guessing
//! from the outside.

use std::sync::atomic::{AtomicBool, Ordering};

use epst::Point;

static ORDERING_BUG: AtomicBool = AtomicBool::new(false);

/// Enable (or disable) the deliberate ordering bug: while on, every eager
/// query answer with at least two points has its first two entries swapped
/// before being returned. Mutation-testing support only.
pub fn inject_ordering_bug(enabled: bool) {
    ORDERING_BUG.store(enabled, Ordering::Release);
}

/// Whether the ordering bug is currently injected.
pub fn ordering_bug_enabled() -> bool {
    ORDERING_BUG.load(Ordering::Acquire)
}

/// Applied by the eager query path: the injection point the mutation tests
/// drive. A no-op unless [`inject_ordering_bug`] turned the bug on.
pub(crate) fn mutate_answer(out: &mut [Point]) {
    if out.len() >= 2 && ordering_bug_enabled() {
        out.swap(0, 1);
    }
}

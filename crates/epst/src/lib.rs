//! # epst — external priority search trees
//!
//! Two structures over points `(x, score)` in the EM cost model:
//!
//! * [`ThreeSidedPst`] — classic external priority search tree answering
//!   3-sided queries `[x1, x2] × [τ, ∞)` in `O(log_B n + t/B)` I/Os (with the
//!   caveat documented on the type) and supporting `O(log_B n)` amortized
//!   updates. This is the reporting substrate of the approximate
//!   k-selection → top-k reduction of §3.3, and it answers range counts and
//!   point lookups for `topk-core`.
//! * [`PilotPst`] — the paper's §2 structure (Lemma 1): an external priority
//!   search tree over a constant-fan-out *script tree*, with *pilot sets*,
//!   *representative blocks*, push-down / pull-up maintenance and
//!   Frederickson-style heap selection at query time. It answers a top-k query
//!   in `O(lg n + k/B)` I/Os; `topk-core` answers every top-k query with it.
//!
//! [`PilotPst`] also exposes a *resumable drain* ([`PilotDrain`]): an owned
//! best-first frontier that emits a range's points in descending score order
//! across arbitrarily many pulls without ever re-descending from the root —
//! the substrate of the incremental rounds in `topk-core`'s streaming and
//! cursor query paths.

mod drain;
mod pilot;
mod point;
mod three_sided;

pub use pilot::{PilotConfig, PilotDrain, PilotPst};
pub use point::Point;
pub use three_sided::{ThreeSidedConfig, ThreeSidedPst};

/// Select the `k` points with the highest scores from `points` (ties cannot
/// occur because scores are distinct); returns them sorted by descending
/// score. Pure CPU helper shared by the query paths and the test oracles.
pub fn top_k_by_score(mut points: Vec<Point>, k: usize) -> Vec<Point> {
    points.sort_unstable_by_key(|p| std::cmp::Reverse(p.score));
    points.truncate(k);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_helper_sorts_and_truncates() {
        let pts = vec![
            Point { x: 1, score: 10 },
            Point { x: 2, score: 30 },
            Point { x: 3, score: 20 },
        ];
        let top = top_k_by_score(pts, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].score, 30);
        assert_eq!(top[1].score, 20);
    }
}

//! Query requests and streaming results.
//!
//! [`QueryRequest`] names the query parameters once; [`TopKResults`] streams
//! the answer lazily in descending score order. Laziness is the point: the
//! seed's `query()` materialized a full `Vec<Point>` even when the caller
//! consumed three results. The iterator instead pulls from a §2
//! [`PilotDrain`] in doubling rounds, and runs a round only when the caller
//! actually demands more points, so a short prefix of a large `k` never pays
//! for the rest.
//!
//! The drain is *resumable*: it keeps its best-first descent frontier
//! between rounds, so no round re-descends from the root or re-materializes
//! the already-emitted prefix, and consuming `k` points costs
//! `O(lg n + k/B)` I/Os total regardless of round count.
//!
//! Because every round's points form a prefix of the global descending-score
//! order, per-shard [`TopKResults`] streams also compose: a
//! [`ShardedTopK`](crate::ShardedTopK) fan-out merges one stream per
//! overlapping shard through a binary heap
//! ([`ShardedResults`](crate::ShardedResults)) and each shard escalates only
//! as far as the merge consumes it — from its own saved frontier.

use epst::{PilotDrain, Point};

use crate::cursor::ResumeToken;
use crate::error::{Result, TopKError};
use crate::index::TopKIndex;

/// How an owned [`QueryCursor`](crate::QueryCursor) behaves when writes
/// commit between its fetch rounds. Irrelevant to one-shot queries and to
/// borrowing streams, which pin one index state for their whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Every fetch round is a *score-threshold set* of the index state at
    /// that round: the next points strictly below the cursor's low-water
    /// mark, computed against whatever the index holds when the round runs.
    /// Writes interleaved between rounds are therefore visible from the next
    /// round on (below the mark) or invisible (above it) — never torn. This
    /// is the default.
    #[default]
    PerRound,
    /// Every fetch round must observe the exact index version the cursor
    /// pinned at its first round; an interleaved write surfaces as
    /// [`TopKError::SnapshotInvalidated`] instead of a silently moved
    /// snapshot.
    Strict,
}

/// Where a resumed request picks up: everything the cursor had emitted so
/// far is summarized by a count and a low-water mark (the threshold-set
/// property makes that pair a complete position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResumeState {
    /// Points handed out before the token was cut.
    pub(crate) emitted: usize,
    /// `(score, x)` of the last emitted point; `None` if nothing was.
    pub(crate) low_water: Option<(u64, u64)>,
    /// The version stamp a strict cursor pinned, carried across the resume.
    pub(crate) version: Option<u64>,
}

/// A top-k range query, built with a fluent API:
/// `QueryRequest::range(x1, x2).top(k)`, optionally widened to several
/// coordinate ranges ([`QueryRequest::ranges`]), floored at a minimum score
/// ([`QueryRequest::min_score`]) and given cursor semantics
/// ([`QueryRequest::consistency`], [`QueryRequest::page_size`]).
///
/// Misuse (`k = 0`, an inverted range, an empty range list) is recorded by
/// the setter that introduced it and surfaces as a typed error when the
/// request is used — so the error names the first bad call, not a downstream
/// symptom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    ranges: Vec<(u64, u64)>,
    k: usize,
    min_score: u64,
    consistency: Consistency,
    page: Option<usize>,
    pub(crate) resume: Option<ResumeState>,
    /// First validation error captured by a builder-style setter.
    poison: Option<TopKError>,
}

impl QueryRequest {
    /// A request for points with `x ∈ [x1, x2]`, initially asking for the
    /// single best point (`k = 1`); chain [`QueryRequest::top`] to widen it.
    pub fn range(x1: u64, x2: u64) -> Self {
        Self {
            ranges: vec![(x1, x2)],
            k: 1,
            min_score: 0,
            consistency: Consistency::default(),
            page: None,
            resume: None,
            poison: (x1 > x2).then_some(TopKError::InvertedRange { x1, x2 }),
        }
    }

    /// A request over several coordinate ranges, answered in globally
    /// descending score order as if the ranges were one set. Overlapping or
    /// adjacent ranges are coalesced, so each matching point is reported
    /// once. Only owned cursors serve multi-range requests; each inverted
    /// range is rejected eagerly with the same error as [`range`].
    ///
    /// [`range`]: QueryRequest::range
    pub fn ranges(ranges: &[(u64, u64)]) -> Self {
        let poison = if ranges.is_empty() {
            Some(TopKError::InvalidConfig {
                what: "a query needs at least one coordinate range",
            })
        } else {
            ranges
                .iter()
                .find(|&&(x1, x2)| x1 > x2)
                .map(|&(x1, x2)| TopKError::InvertedRange { x1, x2 })
        };
        Self {
            ranges: ranges.to_vec(),
            k: 1,
            min_score: 0,
            consistency: Consistency::default(),
            page: None,
            resume: None,
            poison,
        }
    }

    /// Ask for the `k` highest-scoring points. `k = 0` is captured here —
    /// the request is poisoned eagerly and any use reports
    /// [`TopKError::ZeroK`]. Re-calling with a valid `k` clears that
    /// poison: the request reflects its final state.
    pub fn top(mut self, k: usize) -> Self {
        if k == 0 {
            self.poison.get_or_insert(TopKError::ZeroK);
        } else if self.poison == Some(TopKError::ZeroK) {
            self.poison = None;
        }
        self.k = k;
        self
    }

    /// Only report points with score ≥ `floor`; a cursor that reaches the
    /// floor is exhausted even if fewer than `k` points were emitted.
    pub fn min_score(mut self, floor: u64) -> Self {
        self.min_score = floor;
        self
    }

    /// Select the write-interleaving contract of cursors built from this
    /// request (one-shot queries and borrowing streams ignore it).
    pub fn consistency(mut self, mode: Consistency) -> Self {
        self.consistency = mode;
        self
    }

    /// Pin the cursor's fetch-round size to exactly `points` per round
    /// (pagination). Without it, rounds start small and double, mirroring
    /// the escalating rounds of the borrowing stream. `0` poisons the
    /// request like `top(0)` does; re-calling with a valid size clears
    /// that poison.
    pub fn page_size(mut self, points: usize) -> Self {
        const ZERO_PAGE: TopKError = TopKError::InvalidConfig {
            what: "page_size must be at least 1",
        };
        if points == 0 {
            self.poison.get_or_insert(ZERO_PAGE);
        } else if self.poison == Some(ZERO_PAGE) {
            self.poison = None;
        }
        self.page = Some(points);
        self
    }

    /// Rebuild the request a [`ResumeToken`] was cut from, positioned just
    /// past the last point that cursor emitted. Feed it to any index holding
    /// the same data (`TopK::cursor`, `ConcurrentTopK::cursor`, …) to
    /// continue the pagination — across threads or process boundaries.
    pub fn after(token: &ResumeToken) -> Self {
        token.request()
    }

    /// Lower end of the (first) coordinate range.
    pub fn x1(&self) -> u64 {
        self.ranges.first().map_or(0, |r| r.0)
    }

    /// Upper end of the (first) coordinate range.
    pub fn x2(&self) -> u64 {
        self.ranges.first().map_or(0, |r| r.1)
    }

    /// The requested coordinate ranges, as given.
    pub fn query_ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Number of points requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The score floor ([`QueryRequest::min_score`]; 0 = no floor).
    pub fn score_floor(&self) -> u64 {
        self.min_score
    }

    /// The cursor write-interleaving contract.
    pub fn consistency_mode(&self) -> Consistency {
        self.consistency
    }

    /// The pinned fetch-round size, if any.
    pub(crate) fn page(&self) -> Option<usize> {
        self.page
    }

    /// Surface the first setter-captured error, if any, plus anything only
    /// checkable on the assembled request.
    pub(crate) fn validate(&self) -> Result<()> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        for &(x1, x2) in &self.ranges {
            if x1 > x2 {
                return Err(TopKError::InvertedRange { x1, x2 });
            }
        }
        if self.k == 0 {
            return Err(TopKError::ZeroK);
        }
        Ok(())
    }

    /// Whether the borrowing single-range stream can serve this request.
    /// Extensions that change the *answer* (multiple ranges, a score floor,
    /// a resume position) disqualify it; the cursor-mechanics knobs do not
    /// — a borrowed stream is strictly consistent by construction (the
    /// guard pins the index), so [`QueryRequest::consistency`] is already
    /// honoured, and [`QueryRequest::page_size`] only shapes cursor fetch
    /// rounds, which a lazy point iterator does not have.
    pub(crate) fn is_simple(&self) -> bool {
        self.ranges.len() == 1 && self.min_score == 0 && self.resume.is_none()
    }

    /// The ranges sorted by lower end with overlapping/adjacent ones
    /// coalesced: disjoint by construction, so per-range answers merge
    /// without duplicates.
    pub(crate) fn canonical_ranges(&self) -> Vec<(u64, u64)> {
        let mut sorted = self.ranges.clone();
        sorted.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
        for (x1, x2) in sorted {
            match out.last_mut() {
                // Coalesce overlap and adjacency ([1,5] + [6,9] = [1,9]).
                Some(prev) if x1 <= prev.1.saturating_add(1) => prev.1 = prev.1.max(x2),
                _ => out.push((x1, x2)),
            }
        }
        out
    }
}

/// Points the first pilot round of a stream pulls (fewer if `k` is
/// smaller); each later round pulls twice as many as the one before. Every
/// `k` below it is answered by one pull, while a short prefix of a large `k`
/// pays for at most this many points.
const FIRST_PULL: usize = 256;

/// A lazy stream of query results in strictly descending score order,
/// produced by [`TopKIndex::stream`].
///
/// Every batch is the next run of the range's points in descending score
/// order, pulled from one resumable pilot drain; the pull size doubles only
/// when the caller keeps demanding points.
///
/// The iterator borrows the index; under
/// [`ConcurrentTopK`](crate::ConcurrentTopK), hold a read guard for the
/// stream's lifetime so updates cannot tear the answer mid-iteration — and
/// note that writers block for exactly that long. A long-lived or slow
/// consumer (pagination, dashboards) should use the owned
/// [`QueryCursor`](crate::QueryCursor) instead, which re-acquires the read
/// side per fetch round and holds no lock in between.
pub struct TopKResults<'a> {
    index: &'a TopKIndex,
    k: usize,
    emitted: usize,
    /// Reusable round buffer: each fetch round clears and refills it in
    /// place, so steady-state paging allocates nothing once the buffer has
    /// grown to the round size.
    buf: Vec<Point>,
    pos: usize,
    /// The saved frontier; `None` once every reportable point has been
    /// handed out (or buffered).
    drain: Option<PilotDrain>,
    /// Points the next round pulls.
    next_n: usize,
}

impl<'a> TopKResults<'a> {
    pub(crate) fn new(index: &'a TopKIndex, request: QueryRequest) -> Result<Self> {
        request.validate()?;
        if !request.is_simple() {
            return Err(TopKError::InvalidConfig {
                what: "borrowing streams serve single-range requests without a score \
                       floor or resume point; use an owned cursor for the extensions",
            });
        }
        Ok(Self {
            index,
            k: request.k(),
            emitted: 0,
            buf: Vec::new(),
            pos: 0,
            drain: Some(index.pilot().drain(request.x1(), request.x2())),
            next_n: FIRST_PULL,
        })
    }

    /// Number of points handed out so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// One pilot round: pull the next `next_n` points from the drain's
    /// saved frontier (doubling `next_n` for the next demand). No round
    /// re-descends the script tree or re-fetches emitted points, so
    /// consuming all `k` costs the same I/Os as one bulk extraction.
    /// `None` once the drain is spent.
    fn refill(&mut self) -> Option<()> {
        let drain = self.drain.as_mut()?;
        self.buf.clear();
        self.pos = 0;
        let want = self.next_n.min(self.k - self.emitted);
        let got = drain.pull(self.index.pilot(), want, &mut self.buf);
        if got < want || self.emitted + got >= self.k {
            self.drain = None;
        } else {
            self.next_n = self.next_n.saturating_mul(2);
        }
        Some(())
    }
}

impl Iterator for TopKResults<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        loop {
            if self.emitted >= self.k {
                return None;
            }
            if let Some(&p) = self.buf.get(self.pos) {
                self.pos += 1;
                self.emitted += 1;
                return Some(p);
            }
            self.refill()?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.buf.len() - self.pos, Some(self.k - self.emitted))
    }
}

impl std::iter::FusedIterator for TopKResults<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, TopKConfig};
    use emsim::{Device, EmConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(n: u64) -> (Device, TopKIndex, Oracle) {
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let index = TopKIndex::new(&device, TopKConfig::default());
        let mut pts = Vec::new();
        for i in 0..n {
            let x = (i * 7919) % (8 * n.max(1)) + 1;
            pts.push(Point::new(x, i * 13 + 1));
        }
        index.bulk_build(&pts).unwrap();
        (device, index, Oracle::from_points(&pts))
    }

    #[test]
    fn request_builder_carries_parameters() {
        let req = QueryRequest::range(3, 9).top(17);
        assert_eq!((req.x1(), req.x2(), req.k()), (3, 9, 17));
        assert_eq!(QueryRequest::range(3, 9).k(), 1);
    }

    #[test]
    fn stream_validates_like_query() {
        let (_d, index, _o) = build(100);
        assert!(index.stream(QueryRequest::range(9, 3).top(5)).is_err());
        assert!(index.stream(QueryRequest::range(3, 9).top(0)).is_err());
    }

    #[test]
    fn setter_poison_clears_when_the_offending_setter_is_corrected() {
        // The final state decides: a corrected k or page size un-poisons.
        let req = QueryRequest::range(3, 9).top(0).top(5);
        assert!(req.validate().is_ok());
        assert_eq!(req.k(), 5);
        let req = QueryRequest::range(3, 9).page_size(0).page_size(10);
        assert!(req.validate().is_ok());
        // …but a different poison is not clobbered by an unrelated setter.
        let req = QueryRequest::range(9, 3).top(0).top(5);
        assert_eq!(
            req.validate().unwrap_err(),
            crate::TopKError::InvertedRange { x1: 9, x2: 3 }
        );
    }

    #[test]
    fn full_consumption_matches_eager_query_across_regimes() {
        let (_d, index, oracle) = build(3000);
        let mut rng = StdRng::seed_from_u64(3);
        // k inside one pull, across the first round boundary and beyond
        // several doublings; narrow and wide ranges.
        for &k in &[1usize, 5, 63, 64, 65, 200, 256, 257, 1000, 5000] {
            for _ in 0..6 {
                let a = rng.gen_range(0..24_000u64);
                let b = rng.gen_range(a..=24_000u64);
                let streamed: Vec<Point> = index
                    .stream(QueryRequest::range(a, b).top(k))
                    .unwrap()
                    .collect();
                assert_eq!(streamed, index.query(a, b, k).unwrap(), "[{a},{b}] k={k}");
                assert_eq!(streamed, oracle.query(a, b, k), "[{a},{b}] k={k}");
            }
        }
    }

    #[test]
    fn partial_consumption_yields_the_exact_prefix() {
        let (_d, index, oracle) = build(2000);
        for &(k, take) in &[(50usize, 3usize), (200, 7), (1500, 10), (1500, 1)] {
            let got: Vec<Point> = index
                .stream(QueryRequest::range(0, u64::MAX).top(k))
                .unwrap()
                .take(take)
                .collect();
            let full = oracle.query(0, u64::MAX, k);
            assert_eq!(
                got,
                full[..take.min(full.len())].to_vec(),
                "k={k} take={take}"
            );
        }
    }

    #[test]
    fn short_prefix_of_large_k_costs_fewer_ios_than_materializing() {
        let (device, index, _o) = build(40_000);
        let k = 16_384;
        device.drop_cache();
        let (_, full) = device.measure(|| index.query(0, u64::MAX, k).unwrap());
        device.drop_cache();
        let (_, partial) = device.measure(|| {
            index
                .stream(QueryRequest::range(0, u64::MAX).top(k))
                .unwrap()
                .take(5)
                .count()
        });
        assert!(
            partial.reads < full.reads / 2,
            "streaming 5 of {k} should be far cheaper: {} vs {} reads",
            partial.reads,
            full.reads
        );
    }

    #[test]
    fn stream_is_fused_and_respects_k() {
        let (_d, index, _o) = build(50);
        let mut s = index
            .stream(QueryRequest::range(0, u64::MAX).top(3))
            .unwrap();
        assert_eq!(s.by_ref().count(), 3);
        assert_eq!(s.emitted(), 3);
        assert!(s.next().is_none());
        assert!(s.next().is_none());
        // Asking for more than stored yields everything, exactly once.
        let s = index
            .stream(QueryRequest::range(0, u64::MAX).top(500))
            .unwrap();
        assert_eq!(s.count(), 50);
    }
}

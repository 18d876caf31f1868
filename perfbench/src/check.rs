//! Answer checking.
//!
//! Preloaded points (even `x`, even score) are never deleted, and written
//! points (odd `x`, odd score) come and go under concurrent writers. A
//! sampled answer to a top-`k` query over `[x1, x2]` passes only if:
//!
//! 1. it holds at most `k` points, sorted by strictly descending score, each
//!    inside the range;
//! 2. every even point in it is a preloaded point and every odd point in it
//!    is one some client inserted;
//! 3. every preloaded point in the range that scores above the answer's
//!    `k`-th score (every one in the range, when fewer than `k` came back)
//!    is present;
//! 4. it holds at least `min(k, |preload ∩ range|)` points.
//!
//! These hold whatever writes ran concurrently. Once the load stops, the
//! [`Ledger`]s give the exact live set and [`exact_topk`] the exact answer.

use std::collections::HashSet;

use topk_core::Point;

use crate::rng::Rng;

/// A query `(x1, x2, k)` and the answer it got.
pub type Sample = ((u64, u64, u32), Vec<Point>);

/// A uniform sample of fixed size over every answer offered (reservoir
/// sampling), so the memory kept for checking — and with it the peak RSS —
/// does not grow with throughput.
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: Rng,
    /// The answers kept.
    pub items: Vec<Sample>,
}

impl Reservoir {
    /// An empty reservoir keeping at most `cap` answers.
    pub fn new(cap: usize, stream: u64) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            rng: Rng::new(0x05a3_b1e5, stream),
            items: Vec::new(),
        }
    }

    /// Offer one answer; it is kept with probability `cap / offered`.
    pub fn offer(&mut self, sample: Sample) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(sample);
        } else {
            let slot = self.rng.below(self.seen) as usize;
            if let Some(kept) = self.items.get_mut(slot) {
                *kept = sample;
            }
        }
    }
}

/// The preloaded points, sorted by `x`, with a max-score segment tree for
/// enumerating the points of a range above a score threshold.
pub struct Preload {
    points: Vec<Point>,
    leaves: usize,
    /// `tree[v]` is the index of the highest-scoring point under node `v`
    /// (`u32::MAX` for an empty subtree); leaves start at `leaves`.
    tree: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

impl Preload {
    /// Index `points`, which must be sorted by `x`.
    pub fn new(points: Vec<Point>) -> Preload {
        assert!(
            points.windows(2).all(|w| w[0].x < w[1].x),
            "preload must be sorted by x"
        );
        assert!(
            points.len() < EMPTY as usize,
            "preload too large for u32 slots"
        );
        let leaves = points.len().next_power_of_two();
        let mut tree = vec![EMPTY; 2 * leaves];
        for i in 0..points.len() {
            tree[leaves + i] = i as u32;
        }
        for v in (1..leaves).rev() {
            tree[v] = Self::better(&points, tree[2 * v], tree[2 * v + 1]);
        }
        Preload {
            points,
            leaves,
            tree,
        }
    }

    fn better(points: &[Point], a: u32, b: u32) -> u32 {
        match (a, b) {
            (EMPTY, _) => b,
            (_, EMPTY) => a,
            _ if points[a as usize].score > points[b as usize].score => a,
            _ => b,
        }
    }

    /// The preloaded points, sorted by `x`.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Slot range `[a, b)` of the points with `x ∈ [x1, x2]`.
    fn span(&self, x1: u64, x2: u64) -> (usize, usize) {
        let a = self.points.partition_point(|p| p.x < x1);
        let b = self.points.partition_point(|p| p.x <= x2);
        (a, b.max(a))
    }

    /// Number of preloaded points with `x ∈ [x1, x2]`.
    pub fn count(&self, x1: u64, x2: u64) -> usize {
        let (a, b) = self.span(x1, x2);
        b - a
    }

    /// Whether `p` is a preloaded point.
    pub fn contains(&self, p: Point) -> bool {
        self.points
            .binary_search_by_key(&p.x, |q| q.x)
            .is_ok_and(|i| self.points[i] == p)
    }

    /// Call `f` on every preloaded point with `x ∈ [x1, x2]` and a score
    /// above `above` (every point in the range when `above` is `None`).
    fn for_each_above(&self, x1: u64, x2: u64, above: Option<u64>, f: &mut impl FnMut(Point)) {
        let (a, b) = self.span(x1, x2);
        if a < b {
            self.walk(1, 0, self.leaves, a, b, above, f);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        v: usize,
        lo: usize,
        hi: usize,
        a: usize,
        b: usize,
        above: Option<u64>,
        f: &mut impl FnMut(Point),
    ) {
        let best = self.tree[v];
        if hi <= a || b <= lo || best == EMPTY {
            return;
        }
        if above.is_some_and(|t| self.points[best as usize].score <= t) {
            return;
        }
        if hi - lo == 1 {
            f(self.points[lo]);
            return;
        }
        let mid = (lo + hi) / 2;
        self.walk(2 * v, lo, mid, a, b, above, f);
        self.walk(2 * v + 1, mid, hi, a, b, above, f);
    }
}

/// Check one answer to a top-`k` query over `[x1, x2]` against the four
/// conditions of the module docs. `inserted` holds every point some client
/// inserted (acknowledged or with an unknown outcome).
pub fn check_answer(
    preload: &Preload,
    inserted: &HashSet<Point>,
    (x1, x2, k): (u64, u64, u32),
    answer: &[Point],
) -> Result<(), String> {
    let k = k as usize;
    if answer.len() > k {
        return Err(format!("{} points for k = {k}", answer.len()));
    }
    if let Some(w) = answer.windows(2).find(|w| w[0].score <= w[1].score) {
        return Err(format!("scores out of order: {:?} before {:?}", w[0], w[1]));
    }
    for &p in answer {
        if p.x < x1 || p.x > x2 {
            return Err(format!("{p:?} lies outside [{x1}, {x2}]"));
        }
        let known = if p.x % 2 == 0 {
            preload.contains(p)
        } else {
            inserted.contains(&p)
        };
        if !known {
            return Err(format!("{p:?} was neither preloaded nor inserted"));
        }
    }
    let need = k.min(preload.count(x1, x2));
    if answer.len() < need {
        return Err(format!(
            "{} points where at least {need} are preloaded in range",
            answer.len()
        ));
    }
    let above = (answer.len() == k).then(|| answer[k - 1].score);
    let mut missing = None;
    preload.for_each_above(x1, x2, above, &mut |p| {
        // The answer is sorted by descending score, so search it by score.
        let found = answer
            .binary_search_by(|q| p.score.cmp(&q.score))
            .is_ok_and(|i| answer[i] == p);
        if !found && missing.is_none() {
            missing = Some(p);
        }
    });
    match missing {
        Some(p) => Err(format!(
            "preloaded {p:?} outranks the answer but is missing"
        )),
        None => Ok(()),
    }
}

/// The exact top-`k` over `[x1, x2]` of `live`, which is sorted by `x`.
pub fn exact_topk(live: &[Point], x1: u64, x2: u64, k: u32) -> Vec<Point> {
    let a = live.partition_point(|p| p.x < x1);
    let b = live.partition_point(|p| p.x <= x2).max(a);
    let mut hits = live[a..b].to_vec();
    let k = k as usize;
    if hits.len() > k {
        hits.select_nth_unstable_by(k - 1, |p, q| q.score.cmp(&p.score));
        hits.truncate(k);
    }
    hits.sort_unstable_by_key(|p| std::cmp::Reverse(p.score));
    hits
}

/// One client's account of its writes: what the server acknowledged and
/// what it never answered.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Acknowledged inserts not deleted since.
    pub live: HashSet<Point>,
    /// Writes whose reply never arrived: the point may or may not be live.
    pub unsure: HashSet<Point>,
    /// Every insert acknowledged or left unsure (what answers may contain).
    pub inserted: HashSet<Point>,
}

impl Ledger {
    /// The server acknowledged inserting `p`.
    pub fn inserted_ok(&mut self, p: Point) {
        self.live.insert(p);
        self.inserted.insert(p);
    }

    /// The server acknowledged deleting `p`; `found` is its verdict.
    ///
    /// # Errors
    ///
    /// When an acknowledged insert was not found (a lost write), or a point
    /// whose insert was refused was found.
    pub fn deleted_ok(&mut self, p: Point, found: bool) -> Result<(), String> {
        if self.live.remove(&p) {
            if !found {
                return Err(format!(
                    "lost acknowledged write: delete of {p:?} found nothing"
                ));
            }
        } else if !self.unsure.remove(&p) && found {
            return Err(format!("delete found {p:?}, whose insert was refused"));
        }
        Ok(())
    }

    /// A write of `p` failed in transport: its outcome is unknown.
    pub fn lost_reply(&mut self, insert: bool, p: Point) {
        if insert {
            self.inserted.insert(p);
            self.unsure.insert(p);
        } else if self.live.remove(&p) {
            self.unsure.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Preload: x = 0, 2, …, 38 with scores 2·((7·i) mod 20) (distinct).
    fn fixture() -> (Preload, HashSet<Point>) {
        let points: Vec<Point> = (0..20u64)
            .map(|i| Point::new(2 * i, 2 * ((7 * i) % 20)))
            .collect();
        let inserted: HashSet<Point> = [Point::new(5, 99), Point::new(11, 1)].into();
        (Preload::new(points), inserted)
    }

    fn truth(pre: &Preload, inserted: &HashSet<Point>, x1: u64, x2: u64, k: u32) -> Vec<Point> {
        let mut live: Vec<Point> = pre.points().to_vec();
        live.extend(inserted.iter().copied());
        live.sort_by_key(|p| p.x);
        exact_topk(&live, x1, x2, k)
    }

    #[test]
    fn exact_answers_pass() {
        let (pre, ins) = fixture();
        for (x1, x2, k) in [(0, 38, 5), (3, 13, 3), (4, 4, 1), (0, 38, 30), (39, 40, 2)] {
            let answer = truth(&pre, &ins, x1, x2, k);
            check_answer(&pre, &ins, (x1, x2, k), &answer).unwrap();
            // Answers that omit concurrently written points also pass.
            let preload_only = exact_topk(pre.points(), x1, x2, k);
            check_answer(&pre, &ins, (x1, x2, k), &preload_only).unwrap();
        }
    }

    #[test]
    fn a_dropped_point_is_rejected() {
        let (pre, ins) = fixture();
        let mut answer = truth(&pre, &ins, 0, 38, 5);
        answer.remove(2);
        let err = check_answer(&pre, &ins, (0, 38, 5), &answer).unwrap_err();
        assert!(err.contains("at least") || err.contains("missing"), "{err}");
        // Dropping one and padding with a lower-ranked point is caught too.
        let mut padded = truth(&pre, &ins, 0, 38, 6);
        padded.remove(1);
        let err = check_answer(&pre, &ins, (0, 38, 5), &padded).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn an_out_of_range_point_is_rejected() {
        let (pre, ins) = fixture();
        let mut answer = truth(&pre, &ins, 10, 20, 2);
        answer[1] = Point::new(24, answer[1].score);
        let err = check_answer(&pre, &ins, (10, 20, 2), &answer).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn misordered_scores_are_rejected() {
        let (pre, ins) = fixture();
        let mut answer = truth(&pre, &ins, 0, 38, 4);
        answer.swap(1, 2);
        let err = check_answer(&pre, &ins, (0, 38, 4), &answer).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn invented_and_oversized_answers_are_rejected() {
        let (pre, ins) = fixture();
        let mut answer = truth(&pre, &ins, 0, 38, 3);
        answer[0] = Point::new(7, 1000); // odd, but no client inserted it
        assert!(check_answer(&pre, &ins, (0, 38, 3), &answer).is_err());
        let too_many = truth(&pre, &ins, 0, 38, 4);
        assert!(check_answer(&pre, &ins, (0, 38, 3), &too_many).is_err());
    }

    #[test]
    fn ledger_flags_lost_and_resurrected_writes() {
        let p = Point::new(1, 1);
        let mut ledger = Ledger::default();
        ledger.inserted_ok(p);
        assert!(ledger.deleted_ok(p, false).is_err());
        let mut ledger = Ledger::default();
        assert!(ledger.deleted_ok(p, true).is_err());
        let mut ledger = Ledger::default();
        ledger.lost_reply(true, p);
        ledger.deleted_ok(p, true).unwrap();
        assert!(ledger.live.is_empty() && ledger.unsure.is_empty());
    }
}

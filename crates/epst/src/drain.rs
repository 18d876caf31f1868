//! Frontier machinery for resumable best-first extraction from the pilot PST.
//!
//! The pilot PST is a heap-ordered tree of pages: everything stored at a
//! node scores at least as high as everything stored strictly below it. That makes
//! "give me the next `n` points in descending score order" a best-first
//! search whose entire state is one priority queue — the *frontier* — over
//! two kinds of entries:
//!
//! * **runs** — a visited page's surviving points, sorted and consumed
//!   head-first, keyed by the current head's exact score;
//! * **unvisited nodes**, keyed by an upper bound on every score in their
//!   subtree (a pilot representative).
//!
//! Emitting the maximum is therefore always safe: a run head above every
//! node bound beats every unseen point. A node entry at the top is expanded
//! — its page is read once, its in-window points become one run entry, its
//! overlapping children become node entries — and the search continues.
//! Because the frontier owns all of its state (no borrows into the tree), a
//! drain can be **suspended between pulls and resumed later**, which is what
//! makes the query plane's escalation rounds incremental: a later round
//! picks up exactly where the previous one stopped instead of re-descending
//! from the root and re-materializing the emitted prefix.
//!
//! The steady-state cost per emitted point is kept small by two layout
//! choices. Runs and nodes live in *separate* heaps: a point emission only
//! sifts the run heap (`O(live pages)` entries), never the much larger pool
//! of pending node bounds, which is touched once per page instead of once
//! per point. And every heap entry carries its rank key inline, so
//! comparisons never chase into a run's spill vector.
//!
//! Large pulls skip the per-point merge entirely (*bulk mode*): pages are
//! expanded best-first into one flat unordered pool, a quickselect finds the
//! `n`-th score, only the winning prefix is sorted, and the remainder is
//! stashed loose — re-sorted into a run lazily, and only if a later
//! per-point pull actually needs it. Selection touches each pooled point
//! `O(1)` times instead of paying a heap sift per emission, which is what
//! keeps deep pulls (`k ≫ B`) CPU-cheap on top of being I/O-cheap.
//!
//! A drain is only meaningful against the tree state it was primed on;
//! callers that interleave updates must discard and rebuild it (the cursor
//! layer gates reuse on the index's version stamp).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::point::Point;

/// A run-heap entry: the head's rank key inline, the rest of the run parked
/// in the frontier's spill slab (`slot` indexes it). Keeping the entry a
/// 24-byte `Copy` means heap sifts move small flat data and comparisons
/// never leave the heap's backing array. Ordered by `(score, x)` — scores
/// are distinct system-wide, the coordinate is a deterministic tiebreak for
/// defence in depth.
#[derive(Debug, Clone, Copy)]
struct RunEntry {
    score: u64,
    x: u64,
    slot: u32,
}

impl PartialEq for RunEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.score, self.x) == (other.score, other.x)
    }
}
impl Eq for RunEntry {}
impl PartialOrd for RunEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RunEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.score, self.x).cmp(&(other.score, other.x))
    }
}

/// A node-heap entry: an unvisited node and the inclusive upper bound on
/// every score in its subtree.
#[derive(Debug, Clone, Copy)]
struct NodeEntry<I> {
    bound: u64,
    id: I,
}

impl<I> PartialEq for NodeEntry<I> {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl<I> Eq for NodeEntry<I> {}
impl<I> PartialOrd for NodeEntry<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<I> Ord for NodeEntry<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound.cmp(&other.bound)
    }
}

/// What a frontier hands back per step: the globally next point, or the
/// next node to expand (the caller reads its page and pushes the results).
pub(crate) enum Step<I> {
    Point(Point),
    Expand(I),
}

/// The owned descent frontier of a resumable drain.
#[derive(Debug)]
pub(crate) struct Frontier<I> {
    /// Pending runs, keyed by head score. One entry per visited page that
    /// still has unemitted points — point emissions sift only this heap.
    runs: BinaryHeap<RunEntry>,
    /// Each run's remaining points, sorted ascending by score and consumed
    /// from the back (the head — the highest remaining score — is `last()`).
    /// Indexed by [`RunEntry::slot`]; spent slots are recycled via `free`.
    spill: Vec<Vec<Point>>,
    free: Vec<u32>,
    /// Pending subtrees, keyed by score upper bound. Touched once per
    /// expansion, not once per point.
    nodes: BinaryHeap<NodeEntry<I>>,
    /// Unordered pending points: the unemitted remainder a bulk pull stashed
    /// without sorting (it may never be needed again). `step()` folds them
    /// back into a proper run lazily; bulk pulls reclaim them as-is.
    loose: Vec<Point>,
    /// Candidate buffer of an in-progress bulk pull: every point seen that
    /// is not yet provably outside the requested top `n`. Emptied back into
    /// `out`/`loose` by [`finish_bulk`](Self::finish_bulk).
    bulk_buf: Vec<Point>,
    /// Bulk routing threshold: the running `n`-th best score of the pull.
    /// Points at or below it go straight to `loose` (kept for resumption,
    /// out of this pull); points above it are candidates.
    cut: Option<u64>,
    /// While set, [`push_run`](Self::push_run) routes points through
    /// `bulk_buf`/`loose` instead of building a heap run — expansion during
    /// a bulk pull, where order is recovered once by selection at the end.
    bulk: bool,
    primed: bool,
}

/// Descending score — the emission order. Scores are distinct system-wide;
/// the heap path's `(score, x)` tiebreak exists for defence in depth only,
/// so ordering bulk output by score alone emits the same sequence while
/// keeping comparisons a single `u64`.
fn desc(a: &Point, b: &Point) -> Ordering {
    b.score.cmp(&a.score)
}

const RADIX_BITS: u32 = 11;
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;

/// Sort descending by score. Score universes are often dense (identifiers,
/// counters), so when the observed range fits two radix digits an LSD radix
/// sort does it branchlessly in two scatter passes — ~3× faster than the
/// comparison sort at the few-thousand-point sizes bulk pulls emit. Wide
/// ranges fall back to the comparison sort.
fn sort_desc(pts: &mut [Point]) {
    let len = pts.len();
    if len < 128 {
        pts.sort_unstable_by(desc);
        return;
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for p in pts.iter() {
        lo = lo.min(p.score);
        hi = hi.max(p.score);
    }
    let range = hi - lo;
    let bits = 64 - range.leading_zeros();
    if bits == 0 {
        return; // all scores equal
    }
    let passes = bits.div_ceil(RADIX_BITS);
    if passes > 2 {
        pts.sort_unstable_by(desc);
        return;
    }
    // Ascending radix on the reflected key `range - (score - lo)` sorts
    // descending by score. One pass lands in scratch and is copied back;
    // two passes ping-pong and land in place.
    let mut scratch = pts.to_vec();
    if passes == 1 {
        radix_pass(&scratch, pts, lo, range, 0);
    } else {
        radix_pass(pts, &mut scratch, lo, range, 0);
        radix_pass(&scratch, pts, lo, range, RADIX_BITS);
    }
}

fn radix_pass(from: &[Point], to: &mut [Point], lo: u64, range: u64, shift: u32) {
    let digit = |p: &Point| (((range - (p.score - lo)) >> shift) as usize) & (RADIX_BUCKETS - 1);
    let mut counts = [0u32; RADIX_BUCKETS];
    for p in from {
        counts[digit(p)] += 1;
    }
    let mut sum = 0u32;
    for c in counts.iter_mut() {
        let start = sum;
        sum += *c;
        *c = start;
    }
    for p in from {
        let d = digit(p);
        to[counts[d] as usize] = *p;
        counts[d] += 1;
    }
}

impl<I> Frontier<I> {
    pub fn new() -> Self {
        Self {
            runs: BinaryHeap::new(),
            spill: Vec::new(),
            free: Vec::new(),
            nodes: BinaryHeap::new(),
            loose: Vec::new(),
            bulk_buf: Vec::new(),
            cut: None,
            bulk: false,
            primed: false,
        }
    }

    /// Whether the root has been pushed yet (done lazily on the first pull so
    /// constructing a drain costs no I/Os).
    pub fn primed(&self) -> bool {
        self.primed
    }

    pub fn set_primed(&mut self) {
        self.primed = true;
    }

    /// Push a visited page's surviving points as one run (sorted here;
    /// callers pass them in page order). No-op when empty. During a bulk
    /// pull the points go to the loose pool instead — no per-page sort.
    pub fn push_run(&mut self, mut pts: Vec<Point>) {
        if pts.is_empty() {
            return;
        }
        if self.bulk {
            self.extend_bulk(pts.into_iter());
            return;
        }
        pts.sort_unstable_by_key(|p| p.score);
        let head = *pts.last().expect("non-empty run");
        let slot = match self.free.pop() {
            Some(s) => {
                self.spill[s as usize] = pts;
                s
            }
            None => {
                self.spill.push(pts);
                (self.spill.len() - 1) as u32
            }
        };
        self.runs.push(RunEntry {
            score: head.score,
            x: head.x,
            slot,
        });
    }

    pub fn push_node(&mut self, bound: u64, id: I) {
        self.nodes.push(NodeEntry { bound, id });
    }

    // ----- bulk-pull support -----

    /// Whether a bulk pull is in progress.
    pub fn is_bulk(&self) -> bool {
        self.bulk
    }

    /// Start a bulk pull: every pending point — run heads, spilled tails,
    /// loose stash — becomes a candidate, and expansion routes new points
    /// by the running threshold instead of building sorted runs.
    pub fn begin_bulk(&mut self) {
        self.bulk = true;
        self.cut = None;
        self.runs.clear();
        for run in &mut self.spill {
            self.bulk_buf.append(run);
        }
        self.spill.clear();
        self.free.clear();
        self.bulk_buf.append(&mut self.loose);
    }

    /// Route freshly expanded points: candidates to the bulk buffer, points
    /// at or below the threshold straight to the resumption stash.
    pub fn extend_bulk(&mut self, pts: impl Iterator<Item = Point>) {
        match self.cut {
            None => self.bulk_buf.extend(pts),
            Some(c) => {
                for p in pts {
                    if p.score > c {
                        self.bulk_buf.push(p);
                    } else {
                        self.loose.push(p);
                    }
                }
            }
        }
    }

    /// Tighten the threshold once the candidate buffer outgrows `1.5n`: one
    /// quickselect finds the running `n`-th best — the tightest cut any
    /// strategy could have at this moment — and the overflow moves to the
    /// stash. Amortized `O(1)` selection work per point. Returns the current
    /// threshold.
    pub fn compact_bulk(&mut self, n: usize) -> Option<u64> {
        if self.bulk_buf.len() >= n.saturating_add(n / 2) {
            self.bulk_buf.select_nth_unstable_by(n - 1, desc);
            self.cut = Some(self.bulk_buf[n - 1].score);
            self.loose.extend_from_slice(&self.bulk_buf[n..]);
            self.bulk_buf.truncate(n);
        }
        self.cut
    }

    /// End a bulk pull: sort the winning prefix into `out` (descending) and
    /// stash the unemitted remainder unsorted — it is folded back into a
    /// sorted run only if a later per-point `step()` needs it. Returns how
    /// many points were emitted.
    pub fn finish_bulk(&mut self, n: usize, out: &mut Vec<Point>) -> usize {
        self.bulk = false;
        self.cut = None;
        let take = n.min(self.bulk_buf.len());
        if take > 0 {
            if self.bulk_buf.len() > take {
                self.bulk_buf.select_nth_unstable_by(take - 1, desc);
            }
            sort_desc(&mut self.bulk_buf[..take]);
        }
        let leftover = self.bulk_buf.split_off(take);
        out.append(&mut self.bulk_buf);
        if self.loose.is_empty() {
            self.loose = leftover; // adopt the buffer, no copy
        } else {
            self.loose.extend_from_slice(&leftover);
        }
        take
    }

    /// The largest pending node bound, if any node is pending.
    pub fn top_node_bound(&self) -> Option<u64> {
        self.nodes.peek().map(|n| n.bound)
    }

    /// Pop the node with the largest bound.
    pub fn pop_node(&mut self) -> Option<(I, u64)> {
        self.nodes.pop().map(|n| (n.id, n.bound))
    }

    /// The next event in rank order, consuming run heads in place: the top
    /// run's head is emitted and its entry re-keyed under
    /// [`std::collections::binary_heap::PeekMut`], so a point emission costs
    /// one sift of the run heap (and none at all while the same run stays on
    /// top). A node whose bound ties the best run head is expanded before
    /// the head is emitted — only reachable with non-distinct scores, but
    /// cheap insurance.
    pub fn step(&mut self) -> Option<Step<I>> {
        if !self.loose.is_empty() {
            let stash = std::mem::take(&mut self.loose);
            self.push_run(stash);
        }
        let bound = self.nodes.peek().map(|n| n.bound);
        match self.runs.peek_mut() {
            Some(mut top) if bound.is_none_or(|b| top.score > b) => {
                let slot = top.slot;
                let pts = &mut self.spill[slot as usize];
                let head = pts.pop().expect("runs are never empty");
                match pts.last().copied() {
                    Some(next) => {
                        top.score = next.score;
                        top.x = next.x;
                        // Dropping the guard sifts the re-keyed entry down.
                    }
                    None => {
                        pts.shrink_to_fit(); // return the spent buffer now
                        self.free.push(slot);
                        std::collections::binary_heap::PeekMut::pop(top);
                    }
                }
                Some(Step::Point(head))
            }
            _ => {
                let n = self.nodes.pop()?;
                Some(Step::Expand(n.id))
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
            && self.loose.is_empty()
            && self.bulk_buf.is_empty()
            && self.nodes.is_empty()
    }
}

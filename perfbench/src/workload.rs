//! The workloads: what is preloaded and which requests each client sends.
//!
//! Every coordinate and score lives in `[0, KEY_SPACE)`. Preloaded points
//! have even `x` and even scores; written points have odd ones, so the
//! checker can tell the two apart and the index never sees a duplicate.
//! Odd coordinates and scores are further split by client (`2·(r·CLIENTS +
//! client) + 1`), so writers never collide with each other either, and
//! each writer deletes only its own earlier inserts: every preloaded point
//! stays live for the whole run.

use std::collections::HashSet;

use topk_core::Point;

use crate::rng::Rng;

/// Coordinates and scores are drawn from `[0, KEY_SPACE)`.
pub const KEY_SPACE: u64 = 1 << 40;
/// Closed-loop connections, one per client thread: the load is sized for a
/// two-core host, whose cores the server shares.
pub const CLIENTS: usize = 2;
/// A client's live inserts stay at most this many: above it every write is
/// a delete, so the index size stays within `n + CLIENTS · LIVE_CAP`.
const LIVE_CAP: usize = 256;
/// `k` of the small-`k` queries.
pub const SMALL_K: u32 = 10;
/// The `k` values of the large-`k` queries (all at or above the default
/// small-`k`/pilot crossover `l = 256`).
pub const LARGE_KS: [u32; 3] = [256, 1024, 4096];

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A large sharded index that misses the pool, with large-`k` queries.
    ServeCold,
    /// Write-heavy traffic against a durable (journalled) index.
    IngestDurable,
}

/// The shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Preloaded points.
    pub n: usize,
    /// `expected_n` given to the index builder (it picks the topology).
    pub expected_n: usize,
    /// Whether the index journals to a data directory.
    pub durable: bool,
    /// Percentage of requests that are queries; the rest are writes.
    pub query_pct: u64,
    /// Percentage of queries that use a large `k`.
    pub large_k_pct: u64,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 2] = [Workload::ServeCold, Workload::IngestDurable];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve_cold",
            Workload::IngestDurable => "ingest_durable",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ServeCold => Spec {
                workload: self,
                n: 1 << 20,
                expected_n: 1 << 20,
                durable: false,
                query_pct: 90,
                large_k_pct: 20,
            },
            Workload::IngestDurable => Spec {
                workload: self,
                n: 1 << 18,
                expected_n: 1 << 18,
                durable: true,
                query_pct: 20,
                large_k_pct: 0,
            },
        }
    }
}

/// One request of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Top-`k` over `x ∈ [x1, x2]`.
    Query {
        /// Lower end of the range.
        x1: u64,
        /// Upper end of the range.
        x2: u64,
        /// Results asked for.
        k: u32,
    },
    /// Insert a point this client owns.
    Insert(Point),
    /// Delete one of this client's earlier inserts.
    Delete(Point),
}

/// `n` distinct values below `bound`, in draw order.
fn distinct(rng: &mut Rng, n: usize, bound: u64) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.below(bound);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// The preloaded points of a run: `n` uniform points with distinct even
/// coordinates and distinct even scores, sorted by `x`.
pub fn preload(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed, 0x9e10ad);
    let mut xs = distinct(&mut rng, n, KEY_SPACE / 2);
    xs.sort_unstable();
    let scores = distinct(&mut rng, n, KEY_SPACE / 2);
    xs.into_iter()
        .zip(scores)
        .map(|(x, s)| Point::new(2 * x, 2 * s))
        .collect()
}

/// One query of the workload's mix: top-10 over a range of log-uniform
/// selectivity in `[1e-4, 0.25]`, or, for the large-`k` share, `k` from
/// [`LARGE_KS`] over a selectivity of at least 1%.
pub fn query(rng: &mut Rng, large_k_pct: u64) -> (u64, u64, u32) {
    let (k, min_sel) = if rng.below(100) < large_k_pct {
        (LARGE_KS[rng.below(LARGE_KS.len() as u64) as usize], 0.01)
    } else {
        (SMALL_K, 1e-4)
    };
    let width = ((rng.log_uniform(min_sel, 0.25) * KEY_SPACE as f64) as u64).max(1);
    let x1 = rng.below(KEY_SPACE - width + 1);
    (x1, x1 + width - 1, k)
}

/// The endless request stream of one client. It is a pure function of
/// `(seed, pass, client)`: every op assumes the ops before it succeeded.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    client: u64,
    query_pct: u64,
    large_k_pct: u64,
    live: Vec<Point>,
    live_x: HashSet<u64>,
    live_score: HashSet<u64>,
}

impl Stream {
    /// The stream of `client` in pass `pass` of a run seeded with `seed`.
    pub fn new(spec: &Spec, seed: u64, pass: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::new(seed, 0x57ea_0000 + pass * 64 + client as u64),
            client: client as u64,
            query_pct: spec.query_pct,
            large_k_pct: spec.large_k_pct,
            live: Vec::new(),
            live_x: HashSet::new(),
            live_score: HashSet::new(),
        }
    }

    /// An odd value below [`KEY_SPACE`] in this client's residue class.
    fn owned_odd(&mut self) -> u64 {
        let r = self.rng.below(KEY_SPACE / (2 * CLIENTS as u64));
        2 * (r * CLIENTS as u64 + self.client) + 1
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        if self.rng.below(100) < self.query_pct {
            let (x1, x2, k) = query(&mut self.rng, self.large_k_pct);
            return Op::Query { x1, x2, k };
        }
        let delete = match self.live.len() {
            0 => false,
            len if len >= LIVE_CAP => true,
            _ => self.rng.below(2) == 0,
        };
        if delete {
            let i = self.rng.below(self.live.len() as u64) as usize;
            let p = self.live.swap_remove(i);
            self.live_x.remove(&p.x);
            self.live_score.remove(&p.score);
            return Op::Delete(p);
        }
        // Random x inside the queried key space, not an append at the edge.
        let x = loop {
            let x = self.owned_odd();
            if self.live_x.insert(x) {
                break x;
            }
        };
        let score = loop {
            let s = self.owned_odd();
            if self.live_score.insert(s) {
                break s;
            }
        };
        let p = Point::new(x, score);
        self.live.push(p);
        Op::Insert(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_is_even_distinct_and_sorted() {
        let pts = preload(5000, 7);
        assert_eq!(pts, preload(5000, 7));
        assert!(pts.windows(2).all(|w| w[0].x < w[1].x));
        let scores: HashSet<u64> = pts.iter().map(|p| p.score).collect();
        assert_eq!(scores.len(), pts.len());
        assert!(pts.iter().all(|p| p.x % 2 == 0 && p.score % 2 == 0));
    }

    #[test]
    fn clients_write_disjoint_odd_points_and_delete_only_their_own() {
        let spec = Workload::IngestDurable.spec();
        let mut owned: [HashSet<Point>; CLIENTS] = Default::default();
        for (client, mine) in owned.iter_mut().enumerate() {
            let mut stream = Stream::new(&spec, 3, 0, client);
            for _ in 0..20_000 {
                match stream.next_op() {
                    Op::Insert(p) => {
                        assert!(p.x % 2 == 1 && p.score % 2 == 1);
                        assert_eq!((p.x / 2) % CLIENTS as u64, client as u64);
                        assert!(mine.insert(p));
                    }
                    Op::Delete(p) => assert!(mine.remove(&p)),
                    Op::Query { x1, x2, .. } => assert!(x1 <= x2 && x2 < KEY_SPACE),
                }
                assert!(mine.len() <= LIVE_CAP);
            }
        }
    }
}

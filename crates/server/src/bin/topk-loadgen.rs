//! `topk-loadgen` — a multi-threaded `topkwire v1` load generator.
//!
//! Drives the five workload distributions (uniform, correlated,
//! anti-correlated, sorted-insertions, clustered) at one or more read/write
//! mixes against a `topk-server`, and reports qps plus p50/p95/p99 request
//! latency per scenario. With `--save-json` the results land in
//! `BENCH_serving.json` via the usual bench snapshot format.
//!
//! ```text
//! topk-loadgen [--addr HOST:PORT] [--threads 8] [--millis 2000]
//!              [--preload 20000] [--mixes 90,50] [--save-json]
//! ```
//!
//! Without `--addr` an in-process server is started on an ephemeral
//! localhost port — the traffic still crosses a real socket — and shut down
//! (drained) at the end. Every scenario gets a disjoint coordinate/score
//! region, so one server instance hosts all of them without collisions.
//!
//! Each worker thread alternates fresh inserts with deletes of its own
//! earlier inserts, so the index size stays bounded while the write plane
//! keeps both op kinds in flight. Mean committed batch size is derived from
//! server `Stats` deltas per scenario: under concurrent writers it is the
//! observable proof that the bounded-queue/committer design batches.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_bench::json::{self, JsonRow};
use topk_core::{Point, UpdateOp};
use topk_server::{Server, ServerConfig, TopkClient};
use workload::{PointDistribution, PointGen};

/// Coordinate/score region reserved per scenario (disjoint across the ten
/// scenario × mix combinations sharing one server).
const REGION: u64 = 1 << 32;
/// Offset, inside a region, where worker threads mint fresh points.
const FRESH_BASE: u64 = REGION / 2;
/// Room each worker thread owns inside the fresh band.
const THREAD_BAND: u64 = 1 << 24;

const DISTRIBUTIONS: [(PointDistribution, &str); 5] = [
    (PointDistribution::Uniform, "uniform"),
    (PointDistribution::Correlated, "correlated"),
    (PointDistribution::AntiCorrelated, "anti_correlated"),
    (PointDistribution::SortedInsertions, "sorted_insertions"),
    (PointDistribution::Clustered, "clustered"),
];

struct Options {
    addr: Option<String>,
    threads: usize,
    millis: u64,
    preload: usize,
    /// Read fractions in percent (e.g. `[90, 50]`).
    mixes: Vec<u32>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: None,
            threads: 8,
            millis: 2000,
            preload: 20_000,
            mixes: vec![90, 50],
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: topk-loadgen [--addr HOST:PORT] [--threads N] [--millis MS]\n\
         \x20                  [--preload N] [--mixes PCT,PCT,...] [--save-json]"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            match args.next() {
                Some(v) => v,
                None => {
                    eprintln!("topk-loadgen: {what} requires a value");
                    usage()
                }
            }
        };
        match flag.as_str() {
            "--addr" => opts.addr = Some(value("--addr")),
            "--threads" => match value("--threads").parse() {
                Ok(v) => opts.threads = v,
                Err(_) => usage(),
            },
            "--millis" => match value("--millis").parse() {
                Ok(v) => opts.millis = v,
                Err(_) => usage(),
            },
            "--preload" => match value("--preload").parse() {
                Ok(v) => opts.preload = v,
                Err(_) => usage(),
            },
            "--mixes" => {
                let raw = value("--mixes");
                let parsed: std::result::Result<Vec<u32>, _> =
                    raw.split(',').map(|m| m.trim().parse()).collect();
                match parsed {
                    Ok(mixes) if !mixes.is_empty() && mixes.iter().all(|m| *m <= 100) => {
                        opts.mixes = mixes
                    }
                    _ => usage(),
                }
            }
            "--save-json" => {} // handled by json::save_json_requested()
            "--help" | "-h" => usage(),
            other => {
                eprintln!("topk-loadgen: unknown flag {other}");
                usage()
            }
        }
    }
    opts
}

/// Shift a generated point into a scenario's private region.
fn regionalize(p: Point, region: u64) -> Point {
    Point::new(region * REGION + p.x, region * REGION + p.score)
}

/// Preload one scenario's region over the wire in batched frames.
fn preload(
    client: &mut TopkClient,
    dist: PointDistribution,
    region: u64,
    n: usize,
) -> std::result::Result<(), topk_server::ClientError> {
    let points = PointGen {
        distribution: dist,
        seed: 0x5eed + region,
    }
    .generate(n);
    for chunk in points.chunks(1024) {
        let ops: Vec<UpdateOp> = chunk
            .iter()
            .map(|p| UpdateOp::Insert(regionalize(*p, region)))
            .collect();
        client.batch(ops)?;
    }
    Ok(())
}

/// Latencies (ns) and outcome counters of one worker thread.
#[derive(Default)]
struct WorkerReport {
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    /// Acknowledged requests — the only ones `qps` counts.
    ops: u64,
    /// Requests the server turned away as retryable; not in `ops`.
    retryable: u64,
}

impl WorkerReport {
    /// Account one request: acknowledged after `Some(latency_ns)`, or
    /// turned away retryably (`None`).
    fn note(&mut self, is_read: bool, latency_ns: Option<u64>) {
        match latency_ns {
            Some(ns) if is_read => self.read_ns.push(ns),
            Some(ns) => self.write_ns.push(ns),
            None => {
                self.retryable += 1;
                return;
            }
        }
        self.ops += 1;
    }
}

struct ScenarioSpec {
    addr: std::net::SocketAddr,
    region: u64,
    read_pct: u32,
    preload: usize,
    deadline_ms: u64,
}

/// One worker: lockstep request loop against its own connection until the
/// deadline. Reads are top-10 queries over random subranges of the preload
/// band; writes alternate fresh inserts with deletes of the point inserted
/// two steps earlier (bounded net growth, both op kinds in flight).
fn worker(spec: &ScenarioSpec, thread_id: u64, retries: &AtomicU64) -> WorkerReport {
    let mut report = WorkerReport::default();
    let mut client = match TopkClient::connect(spec.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("topk-loadgen: worker {thread_id} failed to connect: {e}");
            return report;
        }
    };
    let mut rng = StdRng::seed_from_u64(0x10ad_0000 + thread_id);
    let lo = spec.region * REGION;
    let span = (spec.preload as u64).saturating_mul(4).max(16);
    let fresh_lo = lo + FRESH_BASE + thread_id * THREAD_BAND;
    let mut minted: u64 = 0;
    let mut pending_delete: Vec<Point> = Vec::new();
    let deadline = Instant::now() + Duration::from_millis(spec.deadline_ms);
    while Instant::now() < deadline {
        let is_read = rng.gen_range(0u32..100) < spec.read_pct;
        let started = Instant::now();
        if is_read {
            let width = (span / 64).max(8);
            let start = lo + rng.gen_range(0u64..span.saturating_sub(width).max(1));
            match client.query(start, start + width, 10) {
                Ok(_) => report.note(true, Some(started.elapsed().as_nanos() as u64)),
                Err(e) if e.is_retryable() => report.note(true, None),
                Err(e) => {
                    eprintln!("topk-loadgen: worker {thread_id} read failed: {e}");
                    break;
                }
            }
        } else {
            // Delete the point minted two writes ago once two exist;
            // otherwise mint a fresh one.
            let result = if pending_delete.len() >= 2 {
                let p = pending_delete.remove(0);
                client.delete(p).map(|_| ())
            } else {
                let p = Point::new(fresh_lo + minted * 3 + 1, fresh_lo + minted * 7 + 5);
                minted += 1;
                client.insert(p).map(|()| {
                    pending_delete.push(p);
                })
            };
            match result {
                Ok(()) => report.note(false, Some(started.elapsed().as_nanos() as u64)),
                Err(e) if e.is_retryable() => {
                    report.note(false, None);
                    retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => {
                    eprintln!("topk-loadgen: worker {thread_id} write failed: {e}");
                    break;
                }
            }
        }
    }
    report
}

/// The `pct`-th percentile of a sorted latency sample, in microseconds.
/// `None` when the window is empty (a scenario that completed zero
/// requests has no latency, not a 0 ns one) — callers print a placeholder
/// and keep the row out of `BENCH_serving.json`.
fn percentile_us(sorted_ns: &[u64], pct: f64) -> Option<f64> {
    if sorted_ns.is_empty() {
        return None;
    }
    let rank = ((sorted_ns.len() as f64) * pct / 100.0).ceil() as usize;
    let idx = rank.saturating_sub(1).min(sorted_ns.len() - 1);
    Some(sorted_ns.get(idx).copied().unwrap_or_default() as f64 / 1000.0)
}

/// Render a percentile for the console table: `-` for an empty window.
fn fmt_us(p: Option<f64>) -> String {
    match p {
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    }
}

struct ScenarioResult {
    name: String,
    qps: f64,
    p50_us: Option<f64>,
    p95_us: Option<f64>,
    p99_us: Option<f64>,
    mean_commit_batch: f64,
    max_commit_batch: u64,
    retryable: u64,
}

fn run_scenario(
    addr: std::net::SocketAddr,
    name: &str,
    dist: PointDistribution,
    region: u64,
    read_pct: u32,
    opts: &Options,
) -> std::result::Result<ScenarioResult, String> {
    let mut control = TopkClient::connect(addr).map_err(|e| e.to_string())?;
    preload(&mut control, dist, region, opts.preload).map_err(|e| e.to_string())?;
    let before = control.stats().map_err(|e| e.to_string())?;
    let retries = AtomicU64::new(0);
    let spec = ScenarioSpec {
        addr,
        region,
        read_pct,
        preload: opts.preload,
        deadline_ms: opts.millis,
    };
    let started = Instant::now();
    // A panicked worker must fail the scenario, not fold into the aggregate
    // as zero ops (which silently deflates qps and skews every percentile).
    let mut panicked: Vec<String> = Vec::new();
    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let spec = &spec;
        let retries = &retries;
        let handles: Vec<_> = (0..opts.threads as u64)
            .map(|t| scope.spawn(move || worker(spec, t, retries)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .filter_map(|(t, h)| match h.join() {
                Ok(report) => Some(report),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&'static str>().copied())
                        .unwrap_or("non-string panic payload");
                    panicked.push(format!("worker {t} panicked: {msg}"));
                    None
                }
            })
            .collect()
    });
    if let Some(first) = panicked.first() {
        return Err(format!(
            "{} of {} workers panicked ({first})",
            panicked.len(),
            opts.threads
        ));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let after = control.stats().map_err(|e| e.to_string())?;

    let mut all_ns: Vec<u64> = Vec::new();
    let mut total_ops = 0u64;
    let mut retryable = 0u64;
    for r in &reports {
        all_ns.extend_from_slice(&r.read_ns);
        all_ns.extend_from_slice(&r.write_ns);
        total_ops += r.ops;
        retryable += r.retryable;
    }
    all_ns.sort_unstable();
    let commits = after
        .batches_committed
        .saturating_sub(before.batches_committed);
    let committed_ops = after.ops_committed.saturating_sub(before.ops_committed);
    Ok(ScenarioResult {
        name: name.to_string(),
        qps: total_ops as f64 / elapsed.max(1e-9),
        p50_us: percentile_us(&all_ns, 50.0),
        p95_us: percentile_us(&all_ns, 95.0),
        p99_us: percentile_us(&all_ns, 99.0),
        mean_commit_batch: if commits == 0 {
            0.0
        } else {
            committed_ops as f64 / commits as f64
        },
        max_commit_batch: after.max_commit_batch,
        retryable,
    })
}

fn main() {
    let opts = parse_options();
    // In-process mode: a real server on an ephemeral localhost port.
    let local = if opts.addr.is_none() {
        match Server::start(ServerConfig {
            expected_n: (opts.preload * DISTRIBUTIONS.len() * opts.mixes.len()).max(1 << 16),
            ..ServerConfig::default()
        }) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("topk-loadgen: failed to start in-process server: {e}");
                std::process::exit(1)
            }
        }
    } else {
        None
    };
    let addr = match (&opts.addr, &local) {
        (Some(addr), _) => match addr.parse() {
            Ok(parsed) => parsed,
            Err(_) => {
                // Resolve through ToSocketAddrs for hostnames.
                use std::net::ToSocketAddrs;
                match addr.to_socket_addrs().ok().and_then(|mut it| it.next()) {
                    Some(resolved) => resolved,
                    None => {
                        eprintln!("topk-loadgen: cannot resolve {addr}");
                        std::process::exit(1)
                    }
                }
            }
        },
        // An in-process server is always started when --addr is absent; the
        // defensive exit keeps this binary free of panic paths.
        (None, Some(server)) => server.local_addr(),
        (None, None) => {
            eprintln!("topk-loadgen: no target address and no in-process server");
            std::process::exit(1)
        }
    };

    println!(
        "topk-loadgen: {} threads, {} ms/scenario, preload {} pts, mixes {:?} -> {}",
        opts.threads, opts.millis, opts.preload, opts.mixes, addr
    );
    println!(
        "{:<28} {:>6} {:>10} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6}",
        "scenario", "read%", "qps", "p50us", "p95us", "p99us", "batch", "maxb", "retry"
    );

    let mut rows: Vec<JsonRow> = Vec::new();
    let mut region = 0u64;
    let mut failed = false;
    for (dist, dist_name) in DISTRIBUTIONS {
        for &read_pct in &opts.mixes {
            let name = format!("{dist_name}_r{read_pct}");
            match run_scenario(addr, &name, dist, region, read_pct, &opts) {
                Ok(result) => {
                    println!(
                        "{:<28} {:>6} {:>10.0} {:>9} {:>9} {:>9} {:>7.2} {:>6} {:>6}",
                        result.name,
                        read_pct,
                        result.qps,
                        fmt_us(result.p50_us),
                        fmt_us(result.p95_us),
                        fmt_us(result.p99_us),
                        result.mean_commit_batch,
                        result.max_commit_batch,
                        result.retryable,
                    );
                    let tag = |metric: &str, value: f64| {
                        JsonRow::new(&result.name, metric, value)
                            .threads(opts.threads)
                            .topology("served")
                            .param(format!("read_pct={read_pct}"))
                    };
                    rows.push(tag("requests_per_sec", result.qps));
                    // Empty latency windows stay out of the snapshot: a NaN
                    // (or fabricated 0.0) row would poison downstream
                    // comparisons against this baseline.
                    for (metric, value) in [
                        ("p50_latency_us", result.p50_us),
                        ("p95_latency_us", result.p95_us),
                        ("p99_latency_us", result.p99_us),
                    ] {
                        match value {
                            Some(v) => rows.push(tag(metric, v)),
                            None => eprintln!(
                                "topk-loadgen: {}: empty latency window, omitting {metric}",
                                result.name
                            ),
                        }
                    }
                    rows.push(tag("mean_commit_batch", result.mean_commit_batch));
                }
                Err(e) => {
                    eprintln!("topk-loadgen: scenario {name} failed: {e}");
                    failed = true;
                }
            }
            region += 1;
        }
    }

    if let Some(server) = local {
        let stats = server.shutdown();
        println!(
            "server drained: frames={} reads={} writes={} commits={} mean_batch={:.2} max_batch={}",
            stats.frames,
            stats.reads_served,
            stats.writes_enqueued,
            stats.batches_committed,
            if stats.batches_committed == 0 {
                0.0
            } else {
                stats.ops_committed as f64 / stats.batches_committed as f64
            },
            stats.max_commit_batch,
        );
    }
    json::save_if_requested("serving", &rows);
    if failed {
        std::process::exit(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_rejections_are_not_counted_as_ops() {
        let mut report = WorkerReport::default();
        report.note(true, Some(1_000));
        report.note(false, None);
        report.note(true, None);
        report.note(false, Some(2_000));
        assert_eq!(report.ops, 2, "qps counts acknowledged requests only");
        assert_eq!(report.retryable, 2);
        assert_eq!(
            (report.read_ns, report.write_ns),
            (vec![1_000], vec![2_000])
        );
    }
}

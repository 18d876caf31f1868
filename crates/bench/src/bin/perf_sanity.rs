//! CI perf-sanity gate: a quick k-sweep on a small index built from the
//! `IndexBuilder` defaults (the served engine) that fails (exit code 1) if
//! queries/sec changes by more than 4× between adjacent k steps, in either
//! direction.
//!
//! This is a cliff detector, not a benchmark. The resumable pilot drain
//! (persistent descent frontier + bulk pulls, DESIGN.md §6) makes query
//! cost near-linear in k: at a k doubling, cost at most doubles. A
//! regression that reintroduces per-round re-descent shows up as a
//! super-linear drop — 4×+ between neighbours — and a second query path
//! that takes over at some k shows up as a jump, in whichever direction
//! the slower path lies (the old §3.3 dispatch rose ~10× at its crossover).
//! The 4× threshold leaves ~2× of headroom for shared-runner noise, and
//! each step takes the best of three timed repeats so one scheduling stall
//! cannot fake a cliff.
//!
//! A second gate guards the read plane: with the sharded buffer pool and
//! the striped read locks, 4 reader threads must clear at least 2× the
//! single-thread queries/sec (the pre-PR-8 global pool mutex pinned the
//! curve flat at ~1×). The gate needs real parallelism to mean anything,
//! so it only runs when the host has ≥ 4 cores; on smaller runners it is
//! skipped with a note (and a `$GITHUB_STEP_SUMMARY` line when CI).
//!
//! The full sweep (bigger n, JSON export) lives in the `query_scaling`
//! bench; this binary trades coverage for a sub-second runtime so it can
//! gate every CI push.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use topk_bench::{read_qps, small_machine, uniform_points};
use topk_core::{ConcurrentTopK, RankedIndex, TopKIndex};
use workload::{Query, QueryGen};

const REPEATS: usize = 3;
const MIN_WINDOW_MS: u128 = 60;
/// Largest allowed queries/sec ratio between adjacent k steps, either way.
const MAX_ADJACENT_STEP: f64 = 4.0;
/// Minimum 4-thread / 1-thread queries/sec ratio (gate only on ≥ 4 cores;
/// an unserialized read plane has headroom to near-linear there, so 2×
/// leaves room for shared-runner noise without readmitting a global pool
/// mutex, whose signature is a ~1× curve).
const MIN_READ_SCALING: f64 = 2.0;
/// Per-measurement window of the read-scaling gate.
const SCALING_WINDOW: Duration = Duration::from_millis(250);

/// The read-scaling gate: best-of-two fixed-window measurements at 1 and 4
/// reader threads (see [`topk_bench::read_qps`] for the harness
/// discipline). Returns the achieved ratio, or `None` when the host cannot
/// express 4-way parallelism and the gate was skipped.
fn read_scaling_ratio(pts: &[epst::Point]) -> Option<f64> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores < 4 {
        let note = format!(
            "perf_sanity: read-scaling gate skipped — {cores} core(s) < 4, \
             a wall-clock speedup gate cannot mean anything here"
        );
        println!("{note}");
        if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&path) {
                let _ = writeln!(f, "{note}");
            }
        }
        return None;
    }
    let device = emsim::Device::new(small_machine());
    let index = ConcurrentTopK::builder()
        .device(&device)
        .expected_n(pts.len())
        .build_concurrent()
        .expect("gate index parameters are valid");
    index.bulk_build(pts).expect("distinct points");
    let best = |threads: usize| {
        (0..2)
            .map(|_| read_qps(&index, pts, threads, SCALING_WINDOW))
            .fold(0f64, f64::max)
    };
    let one = best(1);
    let four = best(4);
    println!(
        "read scaling: 1 thread {one:.0} q/s, 4 threads {four:.0} q/s \
         ({:.2}x, gate {MIN_READ_SCALING}x)",
        four / one
    );
    Some(four / one)
}

/// Best-of-`REPEATS` queries/sec, each repeat a ≥ `MIN_WINDOW_MS` timed
/// loop over the whole query list (warm-up pass first).
fn queries_per_sec(index: &dyn RankedIndex, queries: &[Query]) -> f64 {
    let run = || {
        for q in queries {
            std::hint::black_box(index.query(q.x1, q.x2, q.k).unwrap());
        }
    };
    run();
    let mut best = 0f64;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let mut passes = 0usize;
        while start.elapsed().as_millis() < MIN_WINDOW_MS {
            run();
            passes += 1;
        }
        let qps = (passes * queries.len()) as f64 / start.elapsed().as_secs_f64();
        best = best.max(qps);
    }
    best
}

fn main() -> ExitCode {
    // The served engine as the builder makes it; smaller n than the
    // query_scaling k sweep, for speed. Selectivity 0.25 puts ~4096 points
    // in a typical window, so the k = 2048 step still does real deep-pull
    // work.
    let n = 1usize << 14;
    let pts = uniform_points(11, n);
    let index = TopKIndex::builder()
        .expected_n(n)
        .build()
        .expect("builder defaults are valid");
    index.bulk_build(&pts).expect("distinct points");

    println!("perf_sanity — k sweep at n = {n}, 25% selectivity");
    println!(
        "{:>8} {:>14} {:>12} {:>10}",
        "k", "queries/sec", "us/query", "step"
    );
    let mut prev: Option<(usize, f64)> = None;
    let mut worst: Option<(usize, usize, f64)> = None;
    for k in (0..=11).map(|e| 1usize << e) {
        let queries = QueryGen::new(0.25, k, 5).generate(&pts, 8);
        let qps = queries_per_sec(&index, &queries);
        let step = prev.map(|(_, p)| p / qps);
        println!(
            "{k:>8} {qps:>14.0} {:>12.1} {:>10}",
            1e6 / qps,
            step.map_or("-".into(), |s| format!("{s:.2}x")),
        );
        if let (Some((pk, _)), Some(s)) = (prev, step) {
            // A rise counts like a drop of the same factor.
            let size = s.max(1.0 / s);
            if worst.is_none_or(|(_, _, w)| size > w) {
                worst = Some((pk, k, size));
            }
        }
        prev = Some((k, qps));
    }

    let (pk, k, s) = worst.expect("sweep has at least two steps");
    if s > MAX_ADJACENT_STEP {
        eprintln!(
            "perf_sanity FAIL: throughput changed {s:.2}x from k = {pk} to k = {k} \
             (gate: {MAX_ADJACENT_STEP}x) — a k-cliff or a second query path is \
             back in the query hot path"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "perf_sanity OK: worst adjacent step {s:.2}x (k = {pk} -> {k}), gate {MAX_ADJACENT_STEP}x"
    );

    match read_scaling_ratio(&pts) {
        Some(ratio) if ratio < MIN_READ_SCALING => {
            eprintln!(
                "perf_sanity FAIL: 4-thread read scaling {ratio:.2}x is below the \
                 {MIN_READ_SCALING}x gate — the read plane has re-serialized \
                 (pool mutex, stats line, or read-lock word)"
            );
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

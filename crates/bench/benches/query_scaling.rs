//! Wall-clock bench backing experiments E1/E2 and the serving decision of
//! DESIGN.md §3.6: latency and throughput of top-k queries as `n`, `k` and
//! the range selectivity grow.
//!
//! Timed explicitly (a handful of samples, mean reported) so every number
//! also lands in `BENCH_query_scaling.json` when `--save-json` is passed —
//! see README "Benchmark JSON export".
//!
//! The `crossover` scenario is the evidence for answering every `k` from the
//! §2 pilot drain: it runs the served index (`product`) and the paper's
//! Theorem 1 dispatch (`paper`: [`PaperIndex`], polylog engine, `l = 256`,
//! so every `k` swept takes its §3.3 path) on the same points and queries,
//! and records queries/sec plus logical and cold physical reads per query,
//! on an exact-LRU pool so the read counts are deterministic.

use std::time::Instant;

use emsim::{Device, EmConfig};
use epst::Point;
use topk_bench::json::JsonRow;
use topk_bench::{build_index, small_machine, uniform_points, SmallKEngine};
use topk_core::{RankedIndex, TopKIndex};
use workload::{Query, QueryGen};

const SAMPLES: usize = 10;

/// Mean queries/sec over `SAMPLES` timed passes of the whole query list
/// (one warm-up pass first, as the criterion shim does).
fn queries_per_sec(index: &dyn RankedIndex, queries: &[Query]) -> f64 {
    let run = || {
        for q in queries {
            std::hint::black_box(index.query(q.x1, q.x2, q.k).unwrap());
        }
    };
    run();
    let start = Instant::now();
    for _ in 0..SAMPLES {
        run();
    }
    (SAMPLES * queries.len()) as f64 / start.elapsed().as_secs_f64()
}

/// Logical page accesses and cold physical reads per query: the pool is
/// dropped before every query, so each first touch of a page is charged.
fn reads_per_query(device: &Device, index: &dyn RankedIndex, queries: &[Query]) -> (f64, f64) {
    let (mut logical, mut reads) = (0u64, 0u64);
    for q in queries {
        device.drop_cache();
        let (_, cost) = device.measure(|| index.query(q.x1, q.x2, q.k).unwrap());
        logical += cost.logical;
        reads += cost.reads;
    }
    let per = queries.len().max(1) as f64;
    (logical as f64 / per, reads as f64 / per)
}

/// The served index, as the builder makes it, over `points` on a new
/// device with `em` parameters.
fn product(em: EmConfig, points: &[Point]) -> TopKIndex {
    let index = TopKIndex::builder()
        .device(&Device::new(em))
        .expected_n(points.len())
        .build()
        .expect("bench index parameters are valid");
    index
        .bulk_build(points)
        .expect("workload points are distinct by construction");
    index
}

fn main() {
    let mut rows: Vec<JsonRow> = Vec::new();

    println!("query_scaling/topk_k10 — n sweep at k = 10, 10% selectivity");
    println!("{:>12} {:>16} {:>16}", "n", "queries/sec", "us/query");
    for &n in &[1usize << 13, 1 << 15, 1 << 17] {
        let pts = uniform_points(7, n);
        let index = product(small_machine(), &pts);
        let queries = QueryGen::new(0.1, 10, 3).generate(&pts, 8);
        let qps = queries_per_sec(&index, &queries);
        println!("{n:>12} {qps:>16.0} {:>16.1}", 1e6 / qps);
        rows.push(
            JsonRow::new("topk_k10", "queries_per_sec", qps)
                .topology("single")
                .threads(1)
                .param(format!("n={n}")),
        );
    }

    // Dense k sweep at fixed n: adjacent steps make a k-cliff visible as a
    // throughput change between neighbours, which is what the CI
    // perf-sanity gate checks.
    println!("\nquery_scaling/topk_by_k — k sweep at n = 32768, 25% selectivity");
    println!("{:>12} {:>16} {:>16}", "k", "queries/sec", "us/query");
    let pts = uniform_points(11, 1 << 15);
    let index = product(small_machine(), &pts);
    for &k in &[1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
        let queries = QueryGen::new(0.25, k, 5).generate(&pts, 8);
        let qps = queries_per_sec(&index, &queries);
        println!("{k:>12} {qps:>16.0} {:>16.1}", 1e6 / qps);
        rows.push(
            JsonRow::new("topk_by_k", "queries_per_sec", qps)
                .topology("single")
                .threads(1)
                .param(format!("k={k}")),
        );
    }

    println!(
        "\nquery_scaling/crossover — served index vs the paper's dispatch (l = 256), \
         200 queries per cell, exact-LRU pool"
    );
    println!(
        "{:>8} {:>8} {:>5} {:>8} {:>12} {:>10} {:>10}",
        "n", "sel", "k", "engine", "queries/sec", "logical/q", "reads/q"
    );
    let em = small_machine().exact_lru();
    for &n in &[1usize << 15, 1 << 17] {
        let pts = uniform_points(13, n);
        let served = product(em, &pts);
        let paper = build_index(em, SmallKEngine::Polylog, 256, &pts);
        let engines: [(&str, &Device, &dyn RankedIndex); 2] = [
            ("product", served.device(), &served),
            ("paper", paper.device(), &paper),
        ];
        for &sel in &[1e-4, 1e-3, 1e-2, 0.25] {
            for &k in &[1usize, 10, 64, 255] {
                let queries = QueryGen::new(sel, k, 17).generate(&pts, 200);
                for &(name, device, index) in &engines {
                    let qps = queries_per_sec(index, &queries);
                    let (logical, reads) = reads_per_query(device, index, &queries);
                    println!(
                        "{n:>8} {sel:>8} {k:>5} {name:>8} {qps:>12.0} {logical:>10.1} {reads:>10.1}"
                    );
                    let param = format!("engine={name},n={n},sel={sel},k={k}");
                    for (metric, value) in [
                        ("queries_per_sec", qps),
                        ("logical_reads_per_query", logical),
                        ("cold_reads_per_query", reads),
                    ] {
                        rows.push(
                            JsonRow::new("crossover", metric, value)
                                .topology("single")
                                .threads(1)
                                .param(&param),
                        );
                    }
                }
            }
        }
    }

    topk_bench::json::save_if_requested("query_scaling", &rows);
}

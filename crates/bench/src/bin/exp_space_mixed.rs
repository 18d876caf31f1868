//! Experiments E5 (space), E6 (mixed-workload throughput) and E7 (ablations:
//! approximation quality and reduction fallback rate).

use emsim::Device;
use topk_bench::{build_index, default_machine, markdown_table, uniform_points, SmallKEngine};
use topk_core::{Oracle, RankedIndex};
use workload::{Op, QueryGen, TraceGen};

fn main() {
    let em = default_machine();

    println!("# E5: space (blocks) vs n\n");
    let mut rows = Vec::new();
    for exp in [14u32, 16, 18] {
        let n = 1usize << exp;
        let pts = uniform_points(4, n);
        let index = build_index(em, SmallKEngine::Polylog, 256, &pts);
        let n_over_b = n as f64 / (em.block_words as f64 / 2.0);
        rows.push(vec![
            format!("2^{exp}"),
            index.space_blocks().to_string(),
            format!("{:.0}", n_over_b),
            format!("{:.1}", index.space_blocks() as f64 / n_over_b),
        ]);
    }
    println!(
        "{}",
        markdown_table(&["n", "space (blocks)", "n/B", "blocks per n/B"], &rows)
    );

    println!("\n# E6: mixed workloads, I/Os per operation (n = 2^16)\n");
    let n = 1usize << 16;
    let pts = uniform_points(6, n);
    let mut rows = Vec::new();
    for (label, ins, del) in [
        ("90% query", 0.05, 0.05),
        ("50% query", 0.25, 0.25),
        ("10% query", 0.45, 0.45),
    ] {
        let index = build_index(em, SmallKEngine::Polylog, 256, &pts);
        let trace = TraceGen::new(ins, del, 10, 0.1, 17).generate(&pts, 4000);
        let device = index.device().clone();
        let before = device.snapshot();
        for op in &trace {
            match op {
                Op::Insert(p) => index.insert(*p).expect("collision-free trace"),
                Op::Delete(p) => {
                    index.delete(*p).expect("consistent index");
                }
                Op::Query(q) => {
                    index.query(q.x1, q.x2, q.k).expect("well-formed query");
                }
            }
        }
        let d = device.since(&before);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", d.total() as f64 / trace.len() as f64),
        ]);
    }
    println!("{}", markdown_table(&["mix", "I/Os per op"], &rows));

    println!("\n# E7: approximation quality and reduction fallback rate (n = 2^16, k = 16)\n");
    let pts = uniform_points(8, n);
    let index = build_index(em, SmallKEngine::Polylog, 256, &pts);
    let oracle = Oracle::from_points(&pts);
    let queries = QueryGen::new(0.2, 16, 23).generate(&pts, 200);
    let device: Device = index.device().clone();
    let mut reported_over_k = Vec::new();
    let mut mismatches = 0;
    for q in &queries {
        let got = index.query(q.x1, q.x2, q.k).expect("well-formed query");
        if got != oracle.query(q.x1, q.x2, q.k) {
            mismatches += 1;
        }
        // Over-report factor: how many points the 3-sided pass returned
        // relative to k (proxy: count of range points above the k-th score).
        if let Some(kth) = got.last() {
            let over = oracle
                .points()
                .iter()
                .filter(|p| p.x >= q.x1 && p.x <= q.x2 && p.score >= kth.score)
                .count();
            reported_over_k.push(over as f64 / q.k as f64);
        }
    }
    let avg_over = reported_over_k.iter().sum::<f64>() / reported_over_k.len().max(1) as f64;
    println!(
        "{}",
        markdown_table(
            &[
                "queries",
                "answer mismatches (must be 0)",
                "avg reported/k",
                "device stats"
            ],
            &[vec![
                queries.len().to_string(),
                mismatches.to_string(),
                format!("{:.2}", avg_over),
                format!("{}", device.stats()),
            ]]
        )
    );
}

//! Experiments E1 and E2: query I/O cost vs n (fixed k) and vs k (fixed n),
//! for the combined index, the naive scan baseline and the RAM-model PST.
//! Prints the markdown tables recorded in EXPERIMENTS.md.
//!
//! The device-measured engines are driven through [`RankedIndex`], so the
//! measurement loop is written once; the RAM PST is priced separately in
//! node accesses (its cost model, see `baselines`).

use baselines::{NaiveTopK, RamPst};
use emsim::Device;
use topk_bench::{
    avg_query_ios, build_index, default_machine, markdown_table, uniform_points, SmallKEngine,
};
use topk_core::RankedIndex;
use workload::QueryGen;

fn main() {
    let em = default_machine();
    println!("# E1: query I/Os vs n (k = 10, selectivity 10%)\n");
    let mut rows = Vec::new();
    for exp in [14u32, 16, 18, 20] {
        let n = 1usize << exp;
        let pts = uniform_points(1, n);
        let queries = QueryGen::new(0.1, 10, 2).generate(&pts, 10);

        let index = build_index(em, SmallKEngine::Polylog, 256, &pts);
        let index_device = index.device().clone();
        let naive_dev = Device::new(em);
        let naive = NaiveTopK::new(&naive_dev, "naive");
        naive.bulk_build(&pts).expect("distinct points");

        // The same generic measurement for every device-priced engine.
        let measured: Vec<f64> = [
            (&index_device, &index as &dyn RankedIndex),
            (&naive_dev, &naive as &dyn RankedIndex),
        ]
        .into_iter()
        .map(|(device, engine)| avg_query_ios(device, engine, &queries))
        .collect();

        let ram = RamPst::new(&naive_dev);
        ram.rebuild(&pts);
        let mut ram_total = 0;
        for q in &queries {
            ram.query(q.x1, q.x2, q.k).expect("well-formed");
            ram_total += ram.last_visited();
        }
        rows.push(vec![
            format!("2^{exp}"),
            format!("{:.1}", measured[0]),
            format!("{:.1}", measured[1]),
            format!("{:.1}", ram_total as f64 / queries.len() as f64),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "TopKIndex I/Os",
                "naive scan I/Os",
                "RAM PST node accesses"
            ],
            &rows
        )
    );

    println!("\n# E2: query I/Os vs k (n = 2^18, selectivity 25%)\n");
    let n = 1usize << 18;
    let pts = uniform_points(5, n);
    let index = build_index(em, SmallKEngine::Polylog, 256, &pts);
    let device = index.device().clone();
    let mut rows = Vec::new();
    for k in [1usize, 8, 64, 256, 1024, 8192, 32768] {
        let queries = QueryGen::new(0.25, k, 7).generate(&pts, 6);
        let ios = avg_query_ios(&device, &index, &queries);
        let regime = if k >= 256 {
            "large-k (pilot, §2)"
        } else {
            "small-k (§3.3)"
        };
        rows.push(vec![
            k.to_string(),
            format!("{:.1}", ios),
            format!("{:.2}", ios / (k as f64 / 256.0).max(1.0)),
            regime.to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(&["k", "I/Os", "I/Os per k/B", "regime"], &rows)
    );
}

//! Experiments E3 (headline) and E4: amortized update I/Os of the paper's
//! structure vs the Sheng–Tao-style baseline, as n and the block size grow.

use emsim::EmConfig;
use topk_bench::{avg_insert_ios, build_index, markdown_table, uniform_points, SmallKEngine};

fn main() {
    println!("# E3: amortized insert I/Os vs n (B = 512 words)\n");
    let em = EmConfig::new(512, 2 * 1024 * 1024);
    let mut rows = Vec::new();
    for exp in [13u32, 15, 17, 19] {
        let n = 1usize << exp;
        // One distinct point set split into preload + collision-free inserts
        // (the fallible API rejects duplicate coordinates).
        let all = uniform_points(2, n + 2000);
        let (preload, batch) = all.split_at(n);
        let mut cols = vec![format!("2^{exp}")];
        for engine in [SmallKEngine::Polylog, SmallKEngine::St12] {
            let index = build_index(em, engine, 256, preload);
            let device = index.device().clone();
            let ios = avg_insert_ios(&device, &index, batch);
            cols.push(format!("{:.2}", ios));
        }
        let lgb = emsim::log_b(512 / 2, n);
        cols.push(format!("{:.2} / {:.2}", lgb, lgb * lgb));
        rows.push(cols);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "this paper (polylog) I/Os",
                "ST12 baseline I/Os",
                "log_B n / log_B^2 n (reference)"
            ],
            &rows
        )
    );

    println!("\n# E4: amortized insert I/Os vs block size (n = 2^16)\n");
    let n = 1usize << 16;
    let all = uniform_points(3, n + 1500);
    let (preload, batch) = all.split_at(n);
    let mut rows = Vec::new();
    for block in [128usize, 256, 512, 1024, 2048] {
        let em = EmConfig::new(block, block * 4096);
        let mut cols = vec![block.to_string()];
        for engine in [SmallKEngine::Polylog, SmallKEngine::St12] {
            let index = build_index(em, engine, 256, preload);
            let device = index.device().clone();
            cols.push(format!("{:.2}", avg_insert_ios(&device, &index, batch)));
        }
        rows.push(cols);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "B (words)",
                "this paper (polylog) I/Os",
                "ST12 baseline I/Os"
            ],
            &rows
        )
    );
}

//! Criterion bench backing experiment E3 (the headline result): amortized
//! update latency of the paper's structure vs the Sheng–Tao-style baseline.
//! The corresponding I/O counts are produced by `exp_update_vs_n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use topk_bench::{build_index, small_machine, uniform_points, SmallKEngine};
use topk_core::RankedIndex;

fn update_amortized(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_amortized");
    group.sample_size(10);
    let n = 1usize << 14;
    // One distinct point set, split into preload and a collision-free
    // insert stream (the fallible API rejects duplicate coordinates).
    let all = uniform_points(3, n + 2048);
    let preload = all[..n].to_vec();
    let batch: Vec<_> = all[n..].to_vec();
    for (label, engine) in [
        ("this_paper_polylog", SmallKEngine::Polylog),
        ("baseline_st12", SmallKEngine::St12),
    ] {
        group.bench_with_input(BenchmarkId::new("insert_batch", label), &label, |b, _| {
            b.iter_batched(
                || build_index(small_machine(), engine, 64, &preload),
                |index| {
                    for &p in &batch {
                        index.insert(p).unwrap();
                    }
                    std::hint::black_box(index.len())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, update_amortized);
criterion_main!(benches);

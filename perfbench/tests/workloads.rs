//! Short runs of every workload, and the metric lists against
//! `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build makes the 2^20-point set-up slow).

use std::path::Path;
use std::time::Duration;

use topk_perfbench::run::{run, Args, Repeats, END_TO_END, PER_LAYER};
use topk_perfbench::workload::Workload;

fn short(workload: Workload, trace: bool) -> Args {
    let once = Repeats {
        min: 1,
        budget_s: 0.0,
    };
    Args {
        workload,
        seed: 11,
        // Long enough for a reportable p90 of the rarer request kind in
        // the one-second slices of two rounds.
        seconds: 4.0,
        trace,
        rounds: 2,
        round: None,
        setup: once,
        recover: once,
        warmup: Duration::from_millis(200),
    }
}

#[test]
fn a_short_run_of_every_workload_has_no_failures() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let exe = Path::new(env!("CARGO_BIN_EXE_topk-perfbench"));
            let outcome = run(&short(workload, trace), exe)
                .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()));
            assert!(
                outcome.attempted > 0,
                "{}: nothing attempted",
                workload.name()
            );
            assert_eq!(
                outcome.fail_frac(),
                0.0,
                "{}: requests failed",
                workload.name()
            );
            assert!(
                outcome.checked > 0,
                "{}: no answer checked",
                workload.name()
            );
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            assert_eq!(names, expected);
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", workload.name())),
            "{}",
            workload.name()
        );
    }
    let listed = |name: &str, unit: &str| {
        json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for (name, unit) in END_TO_END {
        assert!(listed(name, unit), "end-to-end {name} ({unit})");
    }
    for (name, unit, _, _) in PER_LAYER {
        assert!(listed(name, unit), "per-layer {name} ({unit})");
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

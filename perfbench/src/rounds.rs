//! An untraced run is a few rounds, each in a process of its own, one after
//! the other: set up, warm up, measure a share of the window, check, and
//! restart. Every end-to-end metric is a median over the rounds (set-up,
//! restart and memory) or over the kept one-second slices of the rounds
//! (throughput and latency). Slices are taken only from rounds the host
//! left some undisturbed slices in, when there are any.
//!
//! On a shared host the machine's speed drifts by a fifth within seconds,
//! and a process can run at its own speed throughout. Timings taken in one
//! burst, in one process, follow the moment and the process they happened
//! to get; the same timings spread over the run's length and over several
//! processes are steadier.
//!
//! A round process reports to its run as lines of `key value…` on stdout
//! ([`Round::to_text`], [`Round::parse`]).

use std::io::Read as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::measure::{median, percentile_us, reportable};
use crate::run::{Args, Metric, Outcome, Repeats};

/// Longest a round process may take before the run kills it and fails.
const ROUND_TIMEOUT: Duration = Duration::from_secs(120);

/// The per-slice latency percentiles: `(metric, kind, percentile)`.
const SLICE_LATENCIES: [(&str, &str, f64); 4] = [
    ("query_p50_us", "query", 50.0),
    ("query_p90_us", "query", 90.0),
    ("write_p50_us", "write", 50.0),
    ("write_p90_us", "write", 90.0),
];

/// What one round measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Requests attempted in the measured window.
    pub attempted: u64,
    /// Of those, requests that failed or were refused.
    pub failed: u64,
    /// Requests completed in the kept slices.
    pub ok: u64,
    /// Answers checked.
    pub checked: u64,
    /// Seconds of each undisturbed set-up (of all, when none was).
    pub setup_s: Vec<f64>,
    /// Seconds of each undisturbed restart (of all, when none was).
    pub recover_s: Vec<f64>,
    /// The round process's `VmHWM`, in MiB.
    pub peak_rss_mb: f64,
    /// Stored bytes per preloaded point, right after the bulk load.
    pub disk_bytes_per_point: f64,
    /// Seconds of slices kept.
    pub kept_s: f64,
    /// Seconds of slices dropped for host interference.
    pub dropped_s: f64,
    /// Whether the kept slices are undisturbed ones; if not, the host
    /// disturbed every slice and all were kept.
    pub calm: bool,
    /// Completed requests per second of each kept slice.
    pub slice_ops: Vec<f64>,
    /// Per [`SLICE_LATENCIES`] entry, the percentile (µs) of each kept
    /// slice with at least ten samples beyond it.
    pub slice_latency: [Vec<f64>; 4],
    /// Latency samples of the kept slices: queries, writes.
    pub samples: [u64; 2],
    /// Per request kind, each reportable percentile of the round's pooled
    /// samples: `(kind, percentile, µs, samples)`.
    pub percentiles: Vec<(&'static str, f64, f64, u64)>,
    /// Configuration recorded with the result.
    pub config: Vec<(String, String)>,
}

/// `values` as space-separated numbers.
fn join(values: &[f64]) -> String {
    let text: Vec<String> = values.iter().map(f64::to_string).collect();
    text.join(" ")
}

fn numbers(key: &str, rest: &str) -> Result<Vec<f64>, String> {
    rest.split_whitespace()
        .map(|v| v.parse().map_err(|_| format!("bad {key} value {v:?}")))
        .collect()
}

fn one<T: std::str::FromStr>(key: &str, rest: &str) -> Result<T, String> {
    rest.trim()
        .parse()
        .map_err(|_| format!("bad {key} value {rest:?}"))
}

fn kind(name: &str) -> Result<&'static str, String> {
    match name {
        "query" => Ok("query"),
        "write" => Ok("write"),
        _ => Err(format!("unknown request kind {name:?}")),
    }
}

impl Round {
    /// Fill the per-slice figures from the kept slices of a pass.
    pub fn add_slices(&mut self, slices: &[crate::drive::Slice]) {
        for slice in slices {
            self.slice_ops.push(slice.ops_per_s());
            for (i, (_, kind, q)) in SLICE_LATENCIES.iter().enumerate() {
                let ns = if *kind == "query" {
                    &slice.query_ns
                } else {
                    &slice.write_ns
                };
                if reportable(ns.len(), *q) {
                    self.slice_latency[i].push(percentile_us(ns, *q));
                }
            }
        }
    }

    /// The round as lines of `key value…`.
    pub fn to_text(&self) -> String {
        let mut lines = vec![
            format!("attempted {}", self.attempted),
            format!("failed {}", self.failed),
            format!("ok {}", self.ok),
            format!("checked {}", self.checked),
            format!("setup_s {}", join(&self.setup_s)),
            format!("recover_s {}", join(&self.recover_s)),
            format!("peak_rss_mb {}", self.peak_rss_mb),
            format!("disk_bytes_per_point {}", self.disk_bytes_per_point),
            format!("kept_s {}", self.kept_s),
            format!("dropped_s {}", self.dropped_s),
            format!("calm {}", u8::from(self.calm)),
            format!("slice_ops {}", join(&self.slice_ops)),
            format!("samples {} {}", self.samples[0], self.samples[1]),
        ];
        for (i, (name, _, _)) in SLICE_LATENCIES.iter().enumerate() {
            lines.push(format!("slice_{name} {}", join(&self.slice_latency[i])));
        }
        for (kind, q, us, n) in &self.percentiles {
            lines.push(format!("pct {kind} {q} {us} {n}"));
        }
        for (key, value) in &self.config {
            lines.push(format!("config {key} {value}"));
        }
        lines.join("\n") + "\n"
    }

    /// Read back what [`Round::to_text`] wrote.
    pub fn parse(text: &str) -> Result<Round, String> {
        let mut round = Round::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "attempted" => round.attempted = one(key, rest)?,
                "failed" => round.failed = one(key, rest)?,
                "ok" => round.ok = one(key, rest)?,
                "checked" => round.checked = one(key, rest)?,
                "setup_s" => round.setup_s = numbers(key, rest)?,
                "recover_s" => round.recover_s = numbers(key, rest)?,
                "peak_rss_mb" => round.peak_rss_mb = one(key, rest)?,
                "disk_bytes_per_point" => round.disk_bytes_per_point = one(key, rest)?,
                "kept_s" => round.kept_s = one(key, rest)?,
                "dropped_s" => round.dropped_s = one(key, rest)?,
                "calm" => round.calm = one::<u8>(key, rest)? == 1,
                "slice_ops" => round.slice_ops = numbers(key, rest)?,
                "samples" => {
                    let n = numbers(key, rest)?;
                    let [q, w] = n[..] else {
                        return Err(format!("bad samples line {line:?}"));
                    };
                    round.samples = [q as u64, w as u64];
                }
                "pct" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    let [k, q, us, n] = f[..] else {
                        return Err(format!("bad percentile line {line:?}"));
                    };
                    round
                        .percentiles
                        .push((kind(k)?, one(key, q)?, one(key, us)?, one(key, n)?));
                }
                "config" => {
                    let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                    round.config.push((k.to_string(), v.to_string()));
                }
                _ => {
                    let slice = SLICE_LATENCIES
                        .iter()
                        .position(|(name, _, _)| key.strip_prefix("slice_") == Some(name))
                        .ok_or_else(|| format!("unknown round line {line:?}"))?;
                    round.slice_latency[slice] = numbers(key, rest)?;
                }
            }
        }
        Ok(round)
    }
}

fn repeats(r: Repeats) -> String {
    format!("{},{}", r.min, r.budget_s)
}

/// Run round `index` of `args` in a process of its own, from the program
/// at `exe`, and read its report. The process is waited for on every path,
/// and killed first if it overruns [`ROUND_TIMEOUT`].
fn round_process(exe: &Path, args: &Args, index: usize) -> Result<Round, String> {
    let seconds = args.seconds / args.rounds as f64;
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .args(["--round", &index.to_string()])
        .args(["--warmup", &args.warmup.as_secs_f64().to_string()])
        .args(["--setup", &repeats(args.setup)])
        .args(["--recover", &repeats(args.recover)])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("start round {index} ({}): {e}", exe.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + ROUND_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(None) => {
                break Err(format!(
                    "round {index} ran past {} s",
                    ROUND_TIMEOUT.as_secs()
                ))
            }
            Err(e) => break Err(format!("wait for round {index}: {e}")),
        }
    };
    if status.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader
        .join()
        .map_err(|_| "round reader panicked".to_string())?;
    let status = status?;
    if !status.success() {
        return Err(format!("round {index} failed ({status})"));
    }
    let text = text.map_err(|e| format!("read round {index}: {e}"))?;
    Round::parse(&text).map_err(|e| format!("round {index}: {e}"))
}

/// Run every round of `args`, one after the other, each in a process of
/// its own started from `exe`.
pub fn run_rounds(exe: &Path, args: &Args) -> Result<Vec<Round>, String> {
    (0..args.rounds.max(1))
        .map(|i| round_process(exe, args, i))
        .collect()
}

/// Median of the per-round medians of `times`.
fn median_of_medians(rounds: &[Round], times: fn(&Round) -> &Vec<f64>) -> Result<f64, String> {
    let medians: Vec<f64> = rounds
        .iter()
        .map(times)
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    if medians.len() < rounds.len() {
        return Err("a round timed nothing".into());
    }
    Ok(median(&medians))
}

/// The end-to-end result of `rounds`.
pub fn combine(rounds: &[Round]) -> Result<Outcome, String> {
    let first = rounds.first().ok_or("no round ran")?;
    let sum = |f: fn(&Round) -> u64| -> u64 { rounds.iter().map(f).sum() };
    let over_rounds =
        |f: fn(&Round) -> f64| -> f64 { median(&rounds.iter().map(f).collect::<Vec<f64>>()) };
    let count = rounds.len() as u64;
    // Throughput and latency come from the rounds with undisturbed slices,
    // when there are any.
    let calm: Vec<Round> = rounds.iter().filter(|r| r.calm).cloned().collect();
    let measured = if calm.is_empty() { rounds } else { &calm[..] };
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        measured.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let slice_ops = pooled(&|r| &r.slice_ops);
    if slice_ops.is_empty() {
        return Err("no slice was kept".into());
    }
    let mut metrics = vec![Metric {
        name: "ops_per_s",
        unit: "1/s",
        value: median(&slice_ops),
        samples: measured.iter().map(|r| r.ok).sum(),
    }];
    for (i, (name, kind, q)) in SLICE_LATENCIES.iter().enumerate() {
        let values = pooled(&|r| &r.slice_latency[i]);
        if values.is_empty() {
            return Err(format!("{name}: no slice has ten samples beyond p{q}"));
        }
        let k = usize::from(*kind == "write");
        metrics.push(Metric {
            name,
            unit: "us",
            value: median(&values),
            samples: measured.iter().map(|r| r.samples[k]).sum(),
        });
    }
    metrics.extend([
        Metric {
            name: "setup_s",
            unit: "s",
            value: median_of_medians(rounds, |r| &r.setup_s)?,
            samples: rounds.iter().map(|r| r.setup_s.len() as u64).sum(),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: over_rounds(|r| r.peak_rss_mb),
            samples: count,
        },
        Metric {
            name: "recover_s",
            unit: "s",
            value: median_of_medians(rounds, |r| &r.recover_s)?,
            samples: rounds.iter().map(|r| r.recover_s.len() as u64).sum(),
        },
        Metric {
            name: "disk_bytes_per_point",
            unit: "bytes",
            value: over_rounds(|r| r.disk_bytes_per_point),
            samples: count,
        },
    ]);

    // A percentile of the record is the median over rounds of each
    // round's, where every round could report it.
    let mut percentiles = Vec::new();
    for &(kind, q, _, _) in &first.percentiles {
        let found: Vec<(f64, u64)> = rounds
            .iter()
            .filter_map(|r| {
                r.percentiles
                    .iter()
                    .find(|p| p.0 == kind && p.1 == q)
                    .map(|p| (p.2, p.3))
            })
            .collect();
        if found.len() == rounds.len() {
            let us: Vec<f64> = found.iter().map(|f| f.0).collect();
            percentiles.push((kind, q, median(&us), found.iter().map(|f| f.1).sum()));
        }
    }

    let mut config = first.config.clone();
    config.push(("rounds".into(), count.to_string()));
    config.push((
        "window_kept_s".into(),
        rounds.iter().map(|r| r.kept_s).sum::<f64>().to_string(),
    ));
    config.push((
        "window_dropped_s".into(),
        rounds.iter().map(|r| r.dropped_s).sum::<f64>().to_string(),
    ));
    Ok(Outcome {
        attempted: sum(|r| r.attempted),
        failed: sum(|r| r.failed),
        metrics,
        config,
        layers: Vec::new(),
        percentiles,
        checked: sum(|r| r.checked),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(scale: f64) -> Round {
        Round {
            attempted: 100,
            failed: 1,
            ok: 99,
            checked: 7,
            setup_s: vec![0.5 * scale, 0.25 * scale, 0.125],
            recover_s: vec![1.0 / 3.0 * scale],
            peak_rss_mb: 12.5 * scale,
            disk_bytes_per_point: 65.1,
            kept_s: 3.0,
            dropped_s: 1.0,
            calm: true,
            slice_ops: vec![1000.0 * scale, 1100.5],
            slice_latency: [vec![10.0 * scale], vec![20.0], vec![30.0], vec![40.0]],
            samples: [80, 19],
            percentiles: vec![("query", 50.0, 10.0 * scale, 80), ("write", 99.9, 1.5, 19)],
            config: vec![("load".into(), "closed loop, 2 connections".into())],
        }
    }

    #[test]
    fn a_round_survives_its_text_form() {
        let r = round(1.7);
        assert_eq!(Round::parse(&r.to_text()), Ok(r));
        assert!(Round::parse("bogus 1").is_err());
        assert!(Round::parse("slice_ops 1 x").is_err());
    }

    #[test]
    fn rounds_combine_into_medians() {
        let out = combine(&[round(1.0), round(2.0), round(4.0)]).unwrap();
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("ops_per_s"), 1100.5);
        assert_eq!(value("query_p50_us"), 20.0);
        assert_eq!(value("setup_s"), 0.5);
        assert_eq!(value("peak_rss_mb"), 25.0);
        assert_eq!((out.attempted, out.failed, out.checked), (300, 3, 21));
        assert_eq!(out.percentiles[0], ("query", 50.0, 20.0, 240));
        assert!(combine(&[]).is_err());
    }

    #[test]
    fn slices_come_from_undisturbed_rounds_when_there_are_any() {
        let disturbed = |scale| Round {
            calm: false,
            ..round(scale)
        };
        // query_p50_us: 10 µs in the undisturbed round, 1 µs in the others.
        let query_p50 = |out: &Outcome| (out.metrics[1].value, out.metrics[1].samples);
        let out = combine(&[round(1.0), disturbed(0.1), disturbed(0.1)]).unwrap();
        assert_eq!(query_p50(&out), (10.0, 80));
        assert_eq!(out.metrics[0].samples, 99);
        assert_eq!(out.attempted, 300);
        let out = combine(&[disturbed(1.0), disturbed(0.1), disturbed(0.1)]).unwrap();
        assert_eq!(query_p50(&out), (1.0, 240));
    }
}

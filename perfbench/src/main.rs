//! `topk-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against an in-process `topk-server` over loopback,
//! checks the answers, prints a readable report on stderr, writes the full
//! record to `.perfbench/result-<workload>-seed<n>-trace<t>.json`, and
//! prints one JSON object as the last line of stdout. Exits non-zero, with
//! no JSON line, on a wrong answer, a lost acknowledged write, or a run
//! that could not be set up.
//!
//! An untraced run starts this program again once per round, with
//! `--round <i>` and the round's `--seconds`, `--warmup <s>`, and
//! `--setup`/`--recover <min>,<budget s>`; a round process prints its
//! measurements as `key value…` lines instead of a result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use topk_perfbench::run::{self, Args, Outcome, Repeats, PER_LAYER, WORK_DIR};
use topk_perfbench::workload::Workload;

/// Rounds of an untraced run; `--seconds` is split evenly among them.
const ROUNDS: usize = 5;
/// Set-ups timed per round; `setup_s` is the median of the rounds' medians.
const SETUP: Repeats = Repeats {
    min: 1,
    budget_s: 1.0,
};
/// Restarts timed per round; `recover_s` is the median of the rounds'
/// medians.
const RECOVER: Repeats = Repeats {
    min: 1,
    budget_s: 1.0,
};
/// Load before each measured window (lets the buffer pool fill).
const WARMUP: Duration = Duration::from_millis(500);

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: topk-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ServeCold,
        seed: 1,
        seconds: 10.0,
        trace: false,
        rounds: ROUNDS,
        round: None,
        setup: SETUP,
        recover: RECOVER,
        warmup: WARMUP,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(bad)?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--round" => args.round = Some(value.parse().map_err(|_| bad())?),
            "--warmup" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                args.warmup = Duration::try_from_secs_f64(s).map_err(|_| bad())?;
            }
            "--setup" => args.setup = repeats(&value).ok_or_else(bad)?,
            "--recover" => args.recover = repeats(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    args.workload = workload.ok_or_else(usage)?;
    Ok(args)
}

/// `<min>,<budget seconds>`.
fn repeats(value: &str) -> Option<Repeats> {
    let (min, budget) = value.split_once(',')?;
    let budget_s: f64 = budget.parse().ok()?;
    (budget_s >= 0.0 && budget_s.is_finite()).then_some(())?;
    Some(Repeats {
        min: min.parse().ok()?,
        budget_s,
    })
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The full record: configuration, every metric with its sample count, and
/// the layer self times.
fn record(args: &Args, outcome: &Outcome) -> String {
    let config: Vec<String> = outcome
        .config
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit),
                m.samples
            )
        })
        .collect();
    let layers: Vec<String> = outcome
        .layers
        .iter()
        .map(|l| {
            format!(
                "{}: {{\"spans\": {}, \"self_total_ms\": {}, \"self_median_us\": {}}}",
                quote(l.name),
                l.count,
                l.total_ns as f64 / 1e6,
                l.median_ns as f64 / 1e3
            )
        })
        .collect();
    let percentiles: Vec<String> = outcome
        .percentiles
        .iter()
        .map(|(kind, q, us, n)| {
            format!(
                "{}: {{\"us\": {us}, \"samples\": {n}}}",
                quote(&format!("{kind}_p{q}"))
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"config\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"fail_frac\": {}, \"answers_checked\": {}, \"metrics\": {{{}}}, \"percentiles\": {{{}}}, \"layers\": {{{}}}}}\n",
        quote(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        config.join(", "),
        outcome.attempted,
        outcome.failed,
        outcome.fail_frac(),
        outcome.checked,
        metrics.join(", "),
        percentiles.join(", "),
        layers.join(", ")
    )
}

fn report(args: &Args, outcome: &Outcome) {
    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!(
        "perfbench {} seed {} ({mode}, {} s)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for (k, v) in &outcome.config {
        eprintln!("  {k:<14} {v}");
    }
    eprintln!(
        "  {:<36} {:>14} {:<6} {:>9}  moves",
        "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics {
        let target = PER_LAYER
            .iter()
            .find(|l| l.0 == m.name)
            .map_or(String::new(), |l| format!("{} on {}", l.2, l.3));
        eprintln!(
            "  {:<36} {:>14.3} {:<6} {:>9}  {target}",
            m.name, m.value, m.unit, m.samples
        );
    }
    eprintln!(
        "  {:<36} {:>14.6} {:<6} {:>9}  ({} of {} failed or refused)",
        "fail_frac",
        outcome.fail_frac(),
        "frac",
        outcome.attempted,
        outcome.failed,
        outcome.attempted
    );
    for kind in ["query", "write"] {
        let mine: Vec<_> = outcome.percentiles.iter().filter(|p| p.0 == kind).collect();
        if let Some((_, q, us, n)) = mine.last() {
            let all: Vec<String> = mine
                .iter()
                .map(|p| format!("p{} {:.1}", p.1, p.2))
                .collect();
            eprintln!("  {kind} latency (us, {n} samples): {}", all.join(", "));
            eprintln!("  highest {kind} percentile with ten samples beyond it: p{q} = {us:.3} us");
        }
    }
    if !outcome.layers.is_empty() {
        eprintln!(
            "  layer self time: {:<14} {:>9} {:>14} {:>14}",
            "span", "count", "total ms", "median us"
        );
        for l in &outcome.layers {
            eprintln!(
                "  {:<31} {:>9} {:>14.3} {:>14.3}",
                l.name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.median_ns as f64 / 1e3
            );
        }
    }
    eprintln!("  answers checked: {}", outcome.checked);
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("topk-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.round.is_some() {
        return match run::round(&args) {
            Ok(round) => {
                print!("{}", round.to_text());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!(
                    "topk-perfbench: {} seed {} round {} FAILED: {e}",
                    args.workload.name(),
                    args.seed,
                    args.round.unwrap_or(0)
                );
                ExitCode::FAILURE
            }
        };
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("topk-perfbench: cannot find this program to start its rounds: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match run::run(&args, &exe) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!(
                "topk-perfbench: {} seed {} FAILED: {e}",
                args.workload.name(),
                args.seed
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("topk-perfbench: {} is not a finite number", bad.name);
        return ExitCode::FAILURE;
    }
    report(&args, &outcome);
    let file = Path::new(WORK_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, record(&args, &outcome)) {
        eprintln!("topk-perfbench: write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

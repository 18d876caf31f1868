//! One benchmark run: set up, drive, check, measure.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use topk_core::{Point, TopK};
use topk_server::{Server, ServerConfig, TopkClient};

use crate::check::{check_answer, exact_topk, Preload, Sample};
use crate::drive::{clean_up, closed_loop, resolve_unsure, ClientRun, Window, MAX_STRETCH};
use crate::measure::{self, percentile_us, reportable, StealMeter};
use crate::rng::Rng;
use crate::rounds::{self, Round};
use crate::trace::{self, LayerSelf, Span};
use crate::workload::{self, Spec, Workload};

/// Where runs keep their data directories, results and span files,
/// relative to the working directory.
pub const WORK_DIR: &str = ".perfbench";

/// The end-to-end metrics an untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("ops_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("recover_s", "s"),
    ("disk_bytes_per_point", "bytes"),
];

/// The per-layer metrics a traced run reports: `(name, unit, the
/// end-to-end metric it should move, on which workload)`.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str); 24] = [
    ("wire.codec_us", "us", "query_p50_us", "serve_cold"),
    ("wire.reply_bytes", "bytes", "query_p50_us", "serve_cold"),
    ("server.overhead_us", "us", "query_p50_us, ops_per_s", "serve_cold"),
    ("server.frames_per_op", "count", "ops_per_s (reads exactly 1)", "all"),
    ("server.conns_rejected", "count", "fail_frac", "all"),
    ("queue.mean_batch", "count", "write_p90_us, ops_per_s", "ingest_durable"),
    ("queue.rejected_frac", "frac", "fail_frac", "all"),
    ("queue.write_overhead_us", "us", "write_p50_us", "ingest_durable"),
    ("core.query_us", "us", "query_p50_us", "serve_cold"),
    ("core.query_small_k_us", "us", "query_p50_us", "serve_cold"),
    ("core.query_large_k_us", "us", "query_p50_us", "serve_cold"),
    ("core.write_us", "us", "write_p50_us", "serve_cold"),
    ("emsim.logical_per_query", "count", "query_p50_us", "serve_cold"),
    ("emsim.misses_per_query", "count", "query_p50_us", "serve_cold"),
    ("emsim.hit_rate", "frac", "query_p50_us", "serve_cold"),
    ("emsim.logical_per_write", "count", "write_p50_us", "serve_cold, ingest_durable"),
    ("emsim.page_writes_per_write", "count", "write_p50_us", "serve_cold, ingest_durable"),
    ("space.pilot_blocks", "blocks", "peak_rss_mb, disk_bytes_per_point", "serve_cold, ingest_durable"),
    ("space.reporter_blocks", "blocks", "peak_rss_mb, disk_bytes_per_point", "serve_cold, ingest_durable"),
    ("space.kselect_blocks", "blocks", "peak_rss_mb, disk_bytes_per_point", "serve_cold, ingest_durable"),
    ("space.total_blocks", "blocks", "peak_rss_mb, disk_bytes_per_point", "serve_cold, ingest_durable"),
    ("persist.disk_write_bytes_per_write", "bytes", "write_p50_us, ops_per_s", "ingest_durable"),
    ("persist.journal_bytes", "bytes", "recover_s", "ingest_durable"),
    ("trace.overhead_pct", "%", "none: the traced run's own cost", "all"),
];

/// Stream passes: each pass of a run draws its own streams; round `i` of an
/// untraced run is pass `PASS_ROUNDS + i`.
const PASS_UNTRACED: u64 = 1;
const PASS_TRACED: u64 = 2;
const PASS_ROUNDS: u64 = 16;
/// Query answers each client keeps, uniformly sampled, for checking.
const SAMPLES: usize = 4096;
/// Queries checked exactly against the oracle once the load has stopped.
const QUIESCENT_QUERIES: usize = 64;
/// Large-`k` probe queries of traced runs whose stream has none.
const LARGE_K_PROBES: usize = 64;
/// Upper limit of [`Repeats`].
const MAX_REPEATS: usize = 50;

/// How often a timed step is repeated for a median: at least `min` times,
/// then again until `min` repeats the host left undisturbed (see
/// [`measure::MAX_STEAL`]) took `budget_s` seconds in all, while every
/// repeat so far took under [`MAX_STRETCH`] times the budget.
#[derive(Debug, Clone, Copy)]
pub struct Repeats {
    /// Fewest repeats.
    pub min: usize,
    /// Undisturbed time to collect.
    pub budget_s: f64,
}

impl Repeats {
    /// Whether to time another repeat, given `(seconds, undisturbed)` of
    /// the repeats so far.
    fn again(&self, times: &[(f64, bool)]) -> bool {
        let calm = calm_times(times);
        let short = calm.len() < self.min || calm.iter().sum::<f64>() < self.budget_s;
        let spent: f64 = times.iter().map(|t| t.0).sum();
        times.len() < self.min.max(1)
            || (short && spent < self.budget_s * MAX_STRETCH && times.len() < MAX_REPEATS)
    }
}

/// The times of the undisturbed repeats, or of all when none was.
fn calm_times(times: &[(f64, bool)]) -> Vec<f64> {
    let calm: Vec<f64> = times.iter().filter(|t| t.1).map(|t| t.0).collect();
    if calm.is_empty() {
        times.iter().map(|t| t.0).collect()
    } else {
        calm
    }
}

/// Run and time `step`: its result and `(seconds, undisturbed)`.
fn timed<T>(step: impl FnOnce() -> Result<T, String>) -> Result<(T, (f64, bool)), String> {
    let mut steal = StealMeter::start();
    let started = Instant::now();
    let out = step()?;
    let secs = started.elapsed().as_secs_f64();
    Ok((out, (secs, steal.calm())))
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated point and request.
    pub seed: u64,
    /// Length of the measured window, in seconds: of the whole run, or, in
    /// a round process, of the round.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Rounds of an untraced run, each in a process of its own.
    pub rounds: usize,
    /// In a round process: which round it is.
    pub round: Option<usize>,
    /// Set-ups timed per round for the `setup_s` median.
    pub setup: Repeats,
    /// Reopens (durable) or rebuilds (RAM) timed per round for the
    /// `recover_s` median.
    pub recover: Repeats,
    /// Load before the measured window starts.
    pub warmup: Duration,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// How many samples or events it rests on.
    pub samples: u64,
}

/// The result of a run whose every check passed.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests attempted in the measured window(s).
    pub attempted: u64,
    /// Of those, requests that failed or were refused.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Configuration recorded with the result.
    pub config: Vec<(String, String)>,
    /// Self time per layer (traced runs only).
    pub layers: Vec<LayerSelf>,
    /// Per request kind, every percentile of [`measure::PERCENTILES`] with
    /// at least ten samples beyond it: `(kind, percentile, µs, samples)`,
    /// lowest first (untraced runs only).
    pub percentiles: Vec<(&'static str, f64, f64, u64)>,
    /// Answers checked (sampled, quiescent and recovered-state checks).
    pub checked: u64,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A served index.
struct Served {
    server: Server,
    handle: TopK,
}

impl Served {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Drain and stop the server and release the index (and the data
    /// directory's lock).
    fn stop(self) -> topk_server::StatsSnapshot {
        let stats = self.server.shutdown();
        drop(self.handle);
        stats
    }
}

/// The run's private scratch directory; removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: Workload) -> Result<Scratch, String> {
        let dir =
            Path::new(WORK_DIR).join(format!("run-{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn data(&self) -> PathBuf {
        self.0.join("data")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn err(what: &str) -> impl Fn(topk_core::TopKError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Build the index from `points`, serve it, and wait until it answers.
/// Returns it and the seconds the build and bulk load took.
fn serve(spec: &Spec, points: &[Point], dir: Option<&Path>) -> Result<(Served, f64), String> {
    let started = Instant::now();
    let mut builder = TopK::builder().expected_n(spec.expected_n);
    if let Some(dir) = dir {
        builder = builder.durable(dir);
    }
    let handle = builder.build_auto().map_err(err("build"))?;
    handle.bulk_build(points).map_err(err("bulk load"))?;
    let build_s = started.elapsed().as_secs_f64();
    let config = ServerConfig {
        expected_n: spec.expected_n,
        data_dir: dir.map(Path::to_path_buf),
        ..ServerConfig::default()
    };
    let server = Server::start_with(config, handle.clone()).map_err(|e| format!("serve: {e}"))?;
    TopkClient::connect(server.local_addr())
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("first ping: {e}"))?;
    Ok((Served { server, handle }, build_s))
}

/// The last of repeated set-ups, with the times of the undisturbed ones.
struct SetUp {
    served: Served,
    preload: Vec<Point>,
    /// Generate, build, bulk-load, serve-ready, in seconds.
    times: Vec<f64>,
    /// The build-and-bulk-load part of each, in seconds.
    builds: Vec<f64>,
}

/// Set up `repeats` times — generate, build, bulk-load, serve-ready — and
/// keep the last instance.
fn set_up(spec: &Spec, seed: u64, scratch: &Scratch, repeats: Repeats) -> Result<SetUp, String> {
    let dir = spec.durable.then(|| scratch.data());
    let mut times = Vec::new();
    let mut builds = Vec::new();
    let mut kept: Option<(Served, Vec<Point>)> = None;
    while repeats.again(&times) {
        if let Some((served, _)) = kept.take() {
            served.stop();
        }
        if let Some(dir) = &dir {
            if dir.exists() {
                std::fs::remove_dir_all(dir)
                    .map_err(|e| format!("clear {}: {e}", dir.display()))?;
            }
        }
        let ((served, build_s, points), time) = timed(|| {
            let points = workload::preload(spec.n, seed);
            let (served, build_s) = serve(spec, &points, dir.as_deref())?;
            Ok((served, build_s, points))
        })?;
        times.push(time);
        builds.push((build_s, time.1));
        kept = Some((served, points));
    }
    let (served, preload) = kept.expect("at least one set-up ran");
    Ok(SetUp {
        served,
        preload,
        times: calm_times(&times),
        builds: calm_times(&builds),
    })
}

/// Check every sampled answer; returns how many were checked.
fn check_samples<'a>(
    preload: &Preload,
    inserted: &HashSet<Point>,
    samples: impl Iterator<Item = &'a Sample>,
) -> Result<u64, String> {
    let mut checked = 0;
    for (query, answer) in samples {
        check_answer(preload, inserted, *query, answer).map_err(|e| {
            format!(
                "wrong answer to top-{} over [{}, {}]: {e}",
                query.2, query.0, query.1
            )
        })?;
        checked += 1;
    }
    Ok(checked)
}

fn inserted_by(runs: &[ClientRun]) -> HashSet<Point> {
    runs.iter()
        .flat_map(|r| r.ledger.inserted.iter().copied())
        .collect()
}

/// The live set once the load has stopped: the preload plus every
/// acknowledged, undeleted write. Sorted by `x`.
fn live_set(preload: &Preload, runs: &[ClientRun]) -> Vec<Point> {
    let mut live = preload.points().to_vec();
    live.extend(runs.iter().flat_map(|r| r.ledger.live.iter().copied()));
    live.sort_unstable_by_key(|p| p.x);
    live
}

/// Queries over the quiescent server must match the oracle exactly.
fn check_quiescent(
    addr: std::net::SocketAddr,
    live: &[Point],
    spec: &Spec,
    seed: u64,
) -> Result<u64, String> {
    let mut conn = TopkClient::connect(addr).map_err(|e| format!("quiescent connect: {e}"))?;
    let mut rng = Rng::new(seed, 0x9e1e7);
    for _ in 0..QUIESCENT_QUERIES {
        let (x1, x2, k) = workload::query(&mut rng, spec.large_k_pct);
        let got = conn
            .query(x1, x2, k)
            .map_err(|e| format!("quiescent query: {e}"))?;
        if got != exact_topk(live, x1, x2, k) {
            return Err(format!(
                "quiescent top-{k} over [{x1}, {x2}] differs from the oracle"
            ));
        }
    }
    Ok(QUIESCENT_QUERIES as u64)
}

/// The index must hold exactly the acknowledged writes.
fn check_contents(handle: &TopK, live: &[Point], when: &str) -> Result<(), String> {
    let mut held = handle.all_points();
    held.sort_unstable_by_key(|p| p.x);
    if held == live {
        return Ok(());
    }
    let want: HashSet<Point> = live.iter().copied().collect();
    let have: HashSet<Point> = held.iter().copied().collect();
    Err(format!(
        "{when}: the index holds {} points, {} acknowledged ones missing and {} unexpected",
        held.len(),
        want.difference(&have).count(),
        have.difference(&want).count()
    ))
}

fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    if ns.is_empty() {
        0.0
    } else {
        percentile_us(ns, 50.0)
    }
}

fn record_config(
    args: &Args,
    spec: &Spec,
    served: &Served,
    scratch: &Scratch,
) -> Vec<(String, String)> {
    let device = served.handle.device();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("git_rev", measure::git_rev()),
        ("nproc", nproc.to_string()),
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("warmup_s", args.warmup.as_secs_f64().to_string()),
        (
            "load",
            format!("closed loop, {} blocking connections", workload::CLIENTS),
        ),
        ("n", spec.n.to_string()),
        ("expected_n", spec.expected_n.to_string()),
        ("topology", served.handle.topology().to_string()),
        ("block_bytes", (device.block_words() * 8).to_string()),
        ("pool_frames", device.frames().to_string()),
        (
            "flush_policy",
            if spec.durable {
                "fsync per commit"
            } else {
                "none (RAM device)"
            }
            .to_string(),
        ),
        ("data_dir_fs", measure::fs_type(&scratch.0)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Run one workload and check it; an untraced run starts its rounds from
/// the program at `exe` (see [`rounds`]). An `Err` is a failed run: a wrong
/// answer, a lost acknowledged write, or a set-up that did not come up.
pub fn run(args: &Args, exe: &Path) -> Result<Outcome, String> {
    let mut steal = StealMeter::start();
    let mut outcome = if args.trace {
        let spec = args.workload.spec();
        let scratch = Scratch::new(args.workload)?;
        traced(args, &spec, &scratch)?
    } else {
        let mut combined = rounds::combine(&rounds::run_rounds(exe, args)?)?;
        // The rounds recorded their own share of the window as `seconds`.
        for (key, _) in &mut combined.config {
            if key == "seconds" {
                *key = "round_seconds".into();
            }
        }
        combined
            .config
            .insert(0, ("seconds".into(), args.seconds.to_string()));
        combined
    };
    // Host interference during the run: on a shared machine the timings
    // move with it, so it is recorded next to them.
    if let Some(share) = steal.lap() {
        outcome
            .config
            .push(("host_steal_pct".into(), format!("{:.3}", 100.0 * share)));
    }
    Ok(outcome)
}

/// One round of an untraced run, in this process: set up, drive, check,
/// restart. An `Err` is a failed round.
pub fn round(args: &Args) -> Result<Round, String> {
    let spec = args.workload.spec();
    let scratch = Scratch::new(args.workload)?;
    let pass_id = PASS_ROUNDS + args.round.unwrap_or(0) as u64;
    let SetUp {
        served,
        preload,
        times: setup_times,
        builds: build_times,
    } = set_up(&spec, args.seed, &scratch, args.setup)?;
    let config = record_config(args, &spec, &served, &scratch);
    // Measured on the freshly loaded index, so it does not depend on how
    // many writes the window managed.
    let stored_bytes = if spec.durable {
        measure::dir_bytes(&scratch.data()).map_err(|e| format!("size of the data dir: {e}"))?
    } else {
        served.handle.space_blocks() * served.handle.device().block_words() as u64 * 8
    };
    let preload = Preload::new(preload);
    let addr = served.addr();
    let window = Window {
        warmup: args.warmup,
        measure: Duration::from_secs_f64(args.seconds),
        trace: false,
        samples: SAMPLES,
    };
    let mut pass = closed_loop(addr, &spec, args.seed, pass_id, window, Instant::now())?;
    let runs = &mut pass.runs;

    let mut checked = check_samples(
        &preload,
        &inserted_by(runs),
        runs.iter().flat_map(|r| &r.samples.items),
    )?;
    resolve_unsure(addr, runs)?;
    let live = live_set(&preload, runs);
    checked += check_quiescent(addr, &live, &spec, args.seed)?;

    // Restart: a durable index reopens its data directory, replaying the
    // round's journal. A RAM index is rebuilt from its points, which is the
    // build and bulk load of each set-up.
    let recover = if spec.durable {
        served.stop();
        let mut times = Vec::new();
        let data = scratch.data();
        while args.recover.again(&times) {
            let i = times.len();
            // Each reopen gets its own copy, so each replays the same journal.
            let copy = scratch.0.join(format!("reopen-{i}"));
            copy_dir(&data, &copy)?;
            let (handle, time) = timed(|| {
                TopK::builder()
                    .expected_n(spec.expected_n)
                    .durable(&copy)
                    .build_auto()
                    .map_err(err("reopen"))
            })?;
            times.push(time);
            if i == 0 {
                check_contents(&handle, &live, "after reopen")?;
                checked += 1;
            }
            drop(handle);
            let _ = std::fs::remove_dir_all(&copy);
        }
        calm_times(&times)
    } else {
        let handle = served.handle.clone();
        served.stop();
        check_contents(&handle, &live, "after the run")?;
        checked += 1;
        drop(handle);
        build_times
    };

    let mut round = Round {
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        ok: runs.iter().map(|r| r.ok).sum(),
        checked,
        setup_s: setup_times,
        recover_s: recover,
        peak_rss_mb: measure::peak_rss_mb().ok_or("VmHWM is unreadable")?,
        disk_bytes_per_point: stored_bytes as f64 / spec.n as f64,
        kept_s: pass.kept_s,
        dropped_s: pass.dropped_s,
        calm: pass.calm,
        config,
        ..Round::default()
    };
    round.add_slices(&pass.slices);
    for (k, kind) in ["query", "write"].into_iter().enumerate() {
        let mut ns: Vec<u64> = runs
            .iter()
            .flat_map(|r| if k == 0 { &r.query_ns } else { &r.write_ns })
            .copied()
            .collect();
        ns.sort_unstable();
        round.samples[k] = ns.len() as u64;
        for q in measure::PERCENTILES
            .into_iter()
            .filter(|&q| reportable(ns.len(), q))
        {
            round
                .percentiles
                .push((kind, q, percentile_us(&ns, q), ns.len() as u64));
        }
    }
    Ok(round)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("copy {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(fail)?;
    for entry in std::fs::read_dir(from).map_err(fail)? {
        let entry = entry.map_err(fail)?;
        if entry.file_type().map_err(fail)?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(fail)?;
        }
    }
    Ok(())
}

/// Blocks per index component, from the device's per-file breakdown
/// (`topk.<component>[.<part>]` file names): pilot, reporter, kselect.
fn space_by_component(handle: &TopK) -> [u64; 3] {
    let mut blocks = [0; 3];
    for (name, pages) in handle.device().space_breakdown() {
        let component = name.strip_prefix("topk.").and_then(|n| n.split('.').next());
        match component {
            Some("pilot") => blocks[0] += pages,
            Some("reporter") => blocks[1] += pages,
            Some("polylog" | "st12") => blocks[2] += pages,
            _ => {}
        }
    }
    blocks
}

fn traced(args: &Args, spec: &Spec, scratch: &Scratch) -> Result<Outcome, String> {
    let once = Repeats {
        min: 1,
        budget_s: 0.0,
    };
    let SetUp {
        served, preload, ..
    } = set_up(spec, args.seed, scratch, once)?;
    let config = record_config(args, spec, &served, scratch);
    let preload = Preload::new(preload);
    let addr = served.addr();
    let epoch = Instant::now();
    let third = Duration::from_secs_f64(args.seconds / 3.0);

    // The untraced pass the tracing overhead is measured against.
    let untraced_window = Window {
        warmup: args.warmup,
        measure: third,
        trace: false,
        samples: SAMPLES,
    };
    let mut plain = closed_loop(addr, spec, args.seed, PASS_UNTRACED, untraced_window, epoch)?;
    clean_up(addr, &mut plain.runs)?;

    let traced_window = Window {
        warmup: Duration::ZERO,
        trace: true,
        ..untraced_window
    };
    let stats0 = served.server.stats();
    let disk0 = measure::disk_write_bytes().ok_or("/proc/self/io is unreadable")?;
    let mut wire = closed_loop(addr, spec, args.seed, PASS_TRACED, traced_window, epoch)?;
    let disk1 = measure::disk_write_bytes().ok_or("/proc/self/io is unreadable")?;
    let stats1 = served.server.stats();
    let space = space_by_component(&served.handle);
    let total_blocks = served.handle.space_blocks();
    clean_up(addr, &mut wire.runs)?;

    let mut checked = check_samples(
        &preload,
        &inserted_by(&plain.runs),
        plain.runs.iter().flat_map(|r| &r.samples.items),
    )?;
    checked += check_samples(
        &preload,
        &inserted_by(&wire.runs),
        wire.runs.iter().flat_map(|r| &r.samples.items),
    )?;

    // The same stream again, straight into the index, one thread.
    let counts: [u64; workload::CLIENTS] = std::array::from_fn(|c| wire.runs[c].issued);
    let deadline = Instant::now() + 2 * third;
    let mut direct = trace::replay_direct(
        &served.handle,
        spec,
        args.seed,
        PASS_TRACED,
        &counts,
        deadline,
        epoch,
        SAMPLES,
    )?;
    checked += check_samples(
        &preload,
        &direct.ledger.inserted,
        direct.samples.items.iter(),
    )?;
    let mut large_k_ns = if direct.large_k_ns.is_empty() {
        trace::large_k_probe(&served.handle, args.seed, LARGE_K_PROBES)?
    } else {
        std::mem::take(&mut direct.large_k_ns)
    };

    let final_stats = served.stop();
    let journal_bytes = if spec.durable {
        measure::dir_bytes(&scratch.data()).map_err(|e| format!("size of the data dir: {e}"))?
    } else {
        0
    };

    let wire_spans: Vec<Span> = wire
        .runs
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
    let layers = trace::self_times(&wire_spans, &direct.spans);
    let span_file = Path::new(WORK_DIR).join(format!(
        "trace-{}-seed{}.csv",
        args.workload.name(),
        args.seed
    ));
    trace::write_spans(&span_file, &[&wire_spans, &direct.spans])
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;

    let sum = |runs: &[ClientRun], f: fn(&ClientRun) -> u64| -> u64 { runs.iter().map(f).sum() };
    let mut wire_query_ns: Vec<u64> = wire
        .runs
        .iter()
        .flat_map(|r| r.query_ns.iter().copied())
        .collect();
    let mut wire_write_ns: Vec<u64> = wire
        .runs
        .iter()
        .flat_map(|r| r.write_ns.iter().copied())
        .collect();
    let core_query = p50_us(&mut direct.query_ns);
    let core_write = p50_us(&mut direct.write_ns);
    let wire_query = p50_us(&mut wire_query_ns);
    let wire_write = p50_us(&mut wire_write_ns);
    let issued = sum(&wire.runs, |r| r.issued);
    let writes = wire_write_ns.len() as u64;
    let traced_ok = sum(&wire.runs, |r| r.ok);
    let enqueued = stats1.writes_enqueued - stats0.writes_enqueued;
    let rejected = stats1.writes_rejected - stats0.writes_rejected;
    let batches = stats1.batches_committed - stats0.batches_committed;
    let (q, w) = (direct.query_io, direct.write_io);
    let per = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let reply_bytes: u64 = direct.reply_bytes.iter().sum();
    let queries = direct.query_ns.len() as u64;
    let values: [(f64, u64); 24] = [
        (p50_us(&mut direct.codec_query_ns), queries),
        (per(reply_bytes, queries), queries),
        (wire_query - core_query, wire_query_ns.len() as u64),
        (per(stats1.frames - stats0.frames, issued), issued),
        (
            final_stats.conns_rejected as f64,
            final_stats.conns_accepted,
        ),
        (
            per(stats1.ops_committed - stats0.ops_committed, batches),
            batches,
        ),
        (per(rejected, enqueued + rejected), enqueued + rejected),
        (wire_write - core_write, writes),
        (core_query, queries),
        (
            p50_us(&mut direct.small_k_ns),
            direct.small_k_ns.len() as u64,
        ),
        (p50_us(&mut large_k_ns), large_k_ns.len() as u64),
        (core_write, direct.write_ns.len() as u64),
        (per(q.logical, q.ops), q.ops),
        (per(q.misses, q.ops), q.ops),
        (1.0 - per(q.misses, q.logical), q.logical),
        (per(w.logical, w.ops), w.ops),
        (per(w.page_writes, w.ops), w.ops),
        (space[0] as f64, 1),
        (space[1] as f64, 1),
        (space[2] as f64, 1),
        (total_blocks as f64, 1),
        (per(disk1 - disk0, enqueued), enqueued),
        (journal_bytes as f64, 1),
        (
            100.0 * (plain.ops_per_s() - wire.ops_per_s()) / plain.ops_per_s(),
            traced_ok,
        ),
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect();
    let failed = sum(&plain.runs, |r| r.failed) + sum(&wire.runs, |r| r.failed);
    Ok(Outcome {
        attempted: sum(&plain.runs, |r| r.attempted) + sum(&wire.runs, |r| r.attempted),
        failed,
        metrics,
        config,
        layers,
        percentiles: Vec::new(),
        checked,
    })
}

//! The closed-loop load: [`CLIENTS`] threads, each with one blocking
//! `topkwire` connection, each sending its next request only after the
//! previous reply arrived.
//!
//! Failure accounting: a request that fails — a retryable status
//! (`OVERLOADED`, `BUSY`), any other status, or a transport error — counts
//! as attempted and failed. It never counts as a completed op and never
//! gives a latency sample.
//!
//! The measured window is cut into one-second slices. A slice in which the
//! hypervisor took more than [`crate::measure::MAX_STEAL`] of the CPU time
//! is dropped and
//! the window runs on to make up for it, up to [`MAX_STRETCH`] times its
//! length; if every slice was disturbed, all are kept. Each kept slice
//! keeps its own throughput and latencies, so a run can report medians over
//! slices, which a short disturbance the steal count misses does not move.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use topk_core::Point;
use topk_server::{ClientError, TopkClient};

use crate::check::{Ledger, Reservoir};
use crate::measure::StealMeter;
use crate::trace::Span;
use crate::workload::{Op, Spec, Stream, CLIENTS};

/// Length of one measured slice.
const SLICE: Duration = Duration::from_secs(1);
/// Longest a measured window may run, as a multiple of its length, to make
/// up for slices the host disturbed.
pub const MAX_STRETCH: f64 = 1.25;

/// The timing of one closed-loop pass.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Load before measuring starts (lets the buffer pool fill).
    pub warmup: Duration,
    /// Undisturbed time to measure.
    pub measure: Duration,
    /// Record a `request` span per request.
    pub trace: bool,
    /// Query answers each client keeps for checking.
    pub samples: usize,
}

/// A successful reply.
#[derive(Debug)]
pub enum Reply {
    /// Query answer.
    Points(Vec<Point>),
    /// Insert committed.
    Inserted,
    /// Delete committed; whether the point was found.
    Deleted(bool),
}

/// One measured request, packed into eight bytes: this list grows with
/// throughput, and the process's peak RSS is an end-to-end metric.
#[derive(Debug, Clone, Copy)]
struct Measured {
    /// Latency in ns, saturating at about 4.3 s.
    ns: u32,
    /// The slice it started in.
    slice: u16,
    /// [`FAILED`], [`QUERY`] or [`WRITE`].
    kind: u8,
}

const FAILED: u8 = 0;
const QUERY: u8 = 1;
const WRITE: u8 = 2;

/// What one client saw in one pass.
#[derive(Debug)]
pub struct ClientRun {
    /// Latencies of completed queries in the kept slices (ns).
    pub query_ns: Vec<u64>,
    /// Latencies of completed writes in the kept slices (ns).
    pub write_ns: Vec<u64>,
    /// Requests that completed in the kept slices.
    pub ok: u64,
    /// Requests measured, in kept and dropped slices alike.
    pub attempted: u64,
    /// Of those, requests that failed: a dropped slice hides no failure.
    pub failed: u64,
    /// Every measured request, before slices are dropped.
    measured: Vec<Measured>,
    /// Requests issued in the whole pass, warm-up included.
    pub issued: u64,
    /// Sampled query answers.
    pub samples: Reservoir,
    /// The client's writes.
    pub ledger: Ledger,
    /// `request` spans, when tracing.
    pub spans: Vec<Span>,
}

/// Send `op` and wait for its reply.
pub fn send(conn: &mut TopkClient, op: Op) -> Result<Reply, ClientError> {
    Ok(match op {
        Op::Query { x1, x2, k } => Reply::Points(conn.query(x1, x2, k)?),
        Op::Insert(p) => {
            conn.insert(p)?;
            Reply::Inserted
        }
        Op::Delete(p) => Reply::Deleted(conn.delete(p)?),
    })
}

/// Book a write's reply in `ledger`.
pub fn book(ledger: &mut Ledger, op: Op, reply: &Result<Reply, ClientError>) -> Result<(), String> {
    match (op, reply) {
        (Op::Insert(p), Ok(_)) => ledger.inserted_ok(p),
        (Op::Delete(p), Ok(Reply::Deleted(found))) => ledger.deleted_ok(p, *found)?,
        // A status is a verdict: the write was not applied.
        (_, Err(ClientError::Status { .. })) | (Op::Query { .. }, _) => {}
        (Op::Insert(p), Err(_)) => ledger.lost_reply(true, p),
        (Op::Delete(p), Err(_)) => ledger.lost_reply(false, p),
        (Op::Delete(_), Ok(_)) => return Err("delete answered with a non-delete reply".into()),
    }
    Ok(())
}

/// Nanoseconds from `epoch` to `t`.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

impl ClientRun {
    /// Count the measured requests, and fill the latency samples and `ok`
    /// from the requests of the `kept` slices.
    fn keep(&mut self, kept: &[bool]) {
        for m in &self.measured {
            self.attempted += 1;
            if m.kind == FAILED {
                self.failed += 1;
            } else if kept.get(usize::from(m.slice)).copied().unwrap_or(false) {
                self.ok += 1;
                let ns = u64::from(m.ns);
                if m.kind == QUERY {
                    self.query_ns.push(ns);
                } else {
                    self.write_ns.push(ns);
                }
            }
        }
        self.measured = Vec::new();
    }
}

/// What all clients completed in one kept slice.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Completed requests.
    pub ok: u64,
    /// Latencies of completed queries (ns), sorted.
    pub query_ns: Vec<u64>,
    /// Latencies of completed writes (ns), sorted.
    pub write_ns: Vec<u64>,
}

impl Slice {
    /// Completed requests per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ok as f64 / SLICE.as_secs_f64()
    }
}

/// The kept slices of `runs`, from their measured requests.
fn kept_slices(runs: &[ClientRun], kept: &[bool]) -> Vec<Slice> {
    let mut slices = vec![Slice::default(); kept.len()];
    for m in runs.iter().flat_map(|r| &r.measured) {
        let Some(slice) = slices.get_mut(usize::from(m.slice)) else {
            continue;
        };
        match m.kind {
            QUERY => slice.query_ns.push(u64::from(m.ns)),
            WRITE => slice.write_ns.push(u64::from(m.ns)),
            _ => continue,
        }
        slice.ok += 1;
    }
    slices
        .into_iter()
        .zip(kept)
        .filter(|(_, keep)| **keep)
        .map(|(mut slice, _)| {
            slice.query_ns.sort_unstable();
            slice.write_ns.sort_unstable();
            slice
        })
        .collect()
}

/// One closed-loop pass: what each client saw, and how much undisturbed
/// time it rests on.
#[derive(Debug)]
pub struct Pass {
    /// Per client.
    pub runs: Vec<ClientRun>,
    /// The kept slices, in order.
    pub slices: Vec<Slice>,
    /// Whether the kept slices are undisturbed ones (else every slice was
    /// disturbed, and all were kept).
    pub calm: bool,
    /// Seconds of slices kept.
    pub kept_s: f64,
    /// Seconds of slices dropped for host interference.
    pub dropped_s: f64,
}

impl Pass {
    /// Completed requests per kept second.
    pub fn ops_per_s(&self) -> f64 {
        self.runs.iter().map(|r| r.ok).sum::<u64>() as f64 / self.kept_s
    }
}

fn client_loop(
    addr: SocketAddr,
    mut stream: Stream,
    client: usize,
    window: Window,
    (epoch, measure_from): (Instant, Instant),
    stop: &AtomicBool,
) -> Result<ClientRun, String> {
    let connect =
        || TopkClient::connect(addr).map_err(|e| format!("client {client}: connect: {e}"));
    let mut conn = connect()?;
    let mut run = ClientRun {
        query_ns: Vec::new(),
        write_ns: Vec::new(),
        ok: 0,
        attempted: 0,
        failed: 0,
        measured: Vec::new(),
        issued: 0,
        samples: Reservoir::new(window.samples, client as u64),
        ledger: Ledger::default(),
        spans: Vec::new(),
    };
    while !stop.load(Ordering::Acquire) {
        let started = Instant::now();
        let op = stream.next_op();
        let seq = run.issued;
        run.issued += 1;
        let reply = send(&mut conn, op);
        let took = started.elapsed();
        book(&mut run.ledger, op, &reply)?;
        if window.trace {
            run.spans.push(Span {
                id: Span::id(client, seq),
                name: "request",
                start_ns: ns_since(epoch, started),
                end_ns: ns_since(epoch, started + took),
            });
        }
        if started >= measure_from {
            let slice = (started - measure_from).as_nanos() / SLICE.as_nanos();
            let kind = match (&reply, op) {
                (Err(_), _) => FAILED,
                (Ok(_), Op::Query { .. }) => QUERY,
                (Ok(_), _) => WRITE,
            };
            run.measured.push(Measured {
                ns: u32::try_from(took.as_nanos()).unwrap_or(u32::MAX),
                slice: u16::try_from(slice).unwrap_or(u16::MAX),
                kind,
            });
        }
        match reply {
            Ok(reply) => {
                if let (Op::Query { x1, x2, k }, Reply::Points(points)) = (op, reply) {
                    run.samples.offer(((x1, x2, k), points));
                }
            }
            Err(e) => {
                if !matches!(e, ClientError::Status { .. }) {
                    // The connection state is unknown after a transport
                    // error; a server that refuses a new one is down.
                    conn = connect()?;
                }
            }
        }
    }
    Ok(run)
}

/// Watch the host from `measure_from` on, one slice at a time, until
/// `measure` of undisturbed slices are in or the window reached
/// [`MAX_STRETCH`] times its length. Returns which slices to keep, and
/// whether they are undisturbed ones.
fn watch(measure_from: Instant, measure: Duration) -> (Vec<bool>, bool) {
    let wanted = (measure.as_secs_f64() / SLICE.as_secs_f64())
        .ceil()
        .max(1.0) as usize;
    let most = (wanted as f64 * MAX_STRETCH).ceil() as usize;
    std::thread::sleep(measure_from.saturating_duration_since(Instant::now()));
    let mut steal = StealMeter::start();
    let mut kept: Vec<bool> = Vec::new();
    while kept.iter().filter(|k| **k).count() < wanted && kept.len() < most {
        let slice_end = measure_from + SLICE * (kept.len() as u32 + 1);
        std::thread::sleep(slice_end.saturating_duration_since(Instant::now()));
        kept.push(steal.calm());
    }
    let calm = kept.contains(&true);
    if !calm {
        kept.iter_mut().for_each(|k| *k = true);
    }
    (kept, calm)
}

/// Run one closed-loop pass of `spec`'s traffic (streams of `seed`, pass
/// `pass`) against the server at `addr`.
pub fn closed_loop(
    addr: SocketAddr,
    spec: &Spec,
    seed: u64,
    pass: u64,
    window: Window,
    epoch: Instant,
) -> Result<Pass, String> {
    let measure_from = Instant::now() + window.warmup;
    let stop = AtomicBool::new(false);
    let ((kept, calm), runs) = std::thread::scope(|scope| {
        let stop = &stop;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stream = Stream::new(spec, seed, pass, c);
                let times = (epoch, measure_from);
                scope.spawn(move || client_loop(addr, stream, c, window, times, stop))
            })
            .collect();
        let kept = watch(measure_from, window.measure);
        stop.store(true, Ordering::Release);
        let runs: Result<Vec<ClientRun>, String> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect();
        (kept, runs)
    });
    let mut runs = runs?;
    let slices = kept_slices(&runs, &kept);
    for run in &mut runs {
        run.keep(&kept);
    }
    let kept_slices = kept.iter().filter(|k| **k).count();
    Ok(Pass {
        runs,
        slices,
        calm,
        kept_s: (kept_slices as u32 * SLICE).as_secs_f64(),
        dropped_s: ((kept.len() - kept_slices) as u32 * SLICE).as_secs_f64(),
    })
}

/// Delete every point the clients' ledgers still hold (resolving unsure
/// writes), returning the index to its preloaded contents.
pub fn clean_up(addr: SocketAddr, runs: &mut [ClientRun]) -> Result<(), String> {
    let mut conn = TopkClient::connect(addr).map_err(|e| format!("clean-up connect: {e}"))?;
    for run in runs {
        let points: Vec<Point> = run
            .ledger
            .live
            .iter()
            .chain(&run.ledger.unsure)
            .copied()
            .collect();
        for p in points {
            let reply = send(&mut conn, Op::Delete(p));
            if let Err(e) = &reply {
                return Err(format!("clean-up delete of {p:?}: {e}"));
            }
            book(&mut run.ledger, Op::Delete(p), &reply)?;
        }
    }
    Ok(())
}

/// Settle every unsure write by asking the (now quiescent) server whether
/// the point is live.
pub fn resolve_unsure(addr: SocketAddr, runs: &mut [ClientRun]) -> Result<(), String> {
    let mut conn = TopkClient::connect(addr).map_err(|e| format!("resolve connect: {e}"))?;
    for run in runs {
        for p in std::mem::take(&mut run.ledger.unsure) {
            let found = conn
                .query(p.x, p.x, 1)
                .map_err(|e| format!("resolve {p:?}: {e}"))?;
            if found == [p] {
                run.ledger.live.insert(p);
            }
        }
    }
    Ok(())
}

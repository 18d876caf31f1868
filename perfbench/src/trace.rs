//! The traced run's spans and its direct replay.
//!
//! A traced run sends one seeded stream twice: once over `topkwire` (a
//! `request` span per request, from [`crate::drive`]), and once straight
//! into the same [`TopK`], here, with the codec calls the server would make
//! timed beside the index call. Both passes name a request by the same id,
//! so a request's wire-side self time is its `request` span minus the spans
//! the replay recorded for it. Spans live in memory until the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use topk_core::TopK;
use topk_server::{Request, Response};

use crate::check::{Ledger, Reservoir};
use crate::drive::ns_since;
use crate::workload::{Op, Spec, Stream, CLIENTS};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id, shared by every span of one request in both passes.
    pub id: u64,
    /// `request`, `wire.encode`, `wire.decode`, `core.query` or `core.write`.
    pub name: &'static str,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The id of request `seq` of `client`.
    pub fn id(client: usize, seq: u64) -> u64 {
        ((client as u64) << 40) | seq
    }

    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// `Device::stats()` counters summed over one kind of request.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoSum {
    /// Requests counted.
    pub ops: u64,
    /// Logical page accesses.
    pub logical: u64,
    /// Pool misses (physical reads).
    pub misses: u64,
    /// Physical page writes.
    pub page_writes: u64,
}

/// What the direct replay measured.
#[derive(Debug)]
pub struct Direct {
    /// `wire.*` and `core.*` spans.
    pub spans: Vec<Span>,
    /// Per query: request and response encode + decode, in ns.
    pub codec_query_ns: Vec<u64>,
    /// Per query: encoded response bytes.
    pub reply_bytes: Vec<u64>,
    /// `core.query` durations of queries with `k ≤ 64`.
    pub small_k_ns: Vec<u64>,
    /// `core.query` durations of queries with `k ≥ 256`.
    pub large_k_ns: Vec<u64>,
    /// `core.query` durations.
    pub query_ns: Vec<u64>,
    /// `core.write` durations.
    pub write_ns: Vec<u64>,
    /// Device counters over the queries.
    pub query_io: IoSum,
    /// Device counters over the writes.
    pub write_io: IoSum,
    /// Sampled answers.
    pub samples: Reservoir,
    /// The replay's writes.
    pub ledger: Ledger,
}

fn push_span(
    spans: &mut Vec<Span>,
    id: u64,
    name: &'static str,
    epoch: Instant,
    a: Instant,
    b: Instant,
) {
    spans.push(Span {
        id,
        name,
        start_ns: ns_since(epoch, a),
        end_ns: ns_since(epoch, b),
    });
}

/// Replay the first `counts[c]` requests of each client's stream (seed
/// `seed`, pass `pass`) straight into `handle`, one thread, clients
/// interleaved round-robin, stopping early at `deadline`.
#[allow(clippy::too_many_arguments)]
pub fn replay_direct(
    handle: &TopK,
    spec: &Spec,
    seed: u64,
    pass: u64,
    counts: &[u64; CLIENTS],
    deadline: Instant,
    epoch: Instant,
    samples: usize,
) -> Result<Direct, String> {
    let device = handle.device();
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| Stream::new(spec, seed, pass, c))
        .collect();
    let mut out = Direct {
        spans: Vec::new(),
        codec_query_ns: Vec::new(),
        reply_bytes: Vec::new(),
        small_k_ns: Vec::new(),
        large_k_ns: Vec::new(),
        query_ns: Vec::new(),
        write_ns: Vec::new(),
        query_io: IoSum::default(),
        write_io: IoSum::default(),
        samples: Reservoir::new(samples, CLIENTS as u64),
        ledger: Ledger::default(),
    };
    let rounds = counts.iter().copied().max().unwrap_or(0);
    'replay: for seq in 0..rounds {
        for (c, stream) in streams.iter_mut().enumerate() {
            if seq >= counts[c] {
                continue;
            }
            if Instant::now() >= deadline {
                break 'replay;
            }
            let op = stream.next_op();
            let id = Span::id(c, seq);
            let request = match op {
                Op::Query { x1, x2, k } => Request::Query { x1, x2, k },
                Op::Insert(point) => Request::Insert { point },
                Op::Delete(point) => Request::Delete { point },
            };
            let t0 = Instant::now();
            let bytes = std::hint::black_box(request.encode());
            let t1 = Instant::now();
            let decoded = Request::decode(&bytes);
            let t2 = Instant::now();
            if !matches!(&decoded, Ok(r) if *r == request) {
                return Err(format!("request codec round trip changed {request:?}"));
            }
            let io0 = device.stats();
            let t3 = Instant::now();
            let response = match op {
                Op::Query { x1, x2, k } => handle.query(x1, x2, k as usize).map(Response::Points),
                Op::Insert(p) => handle.insert(p).map(|()| Response::Inserted),
                Op::Delete(p) => handle.delete(p).map(Response::Deleted),
            }
            .map_err(|e| format!("direct {op:?} failed: {e}"))?;
            let t4 = Instant::now();
            let io1 = device.stats();
            let t5 = Instant::now();
            let reply = std::hint::black_box(response.encode());
            let t6 = Instant::now();
            let back = Response::decode(&reply);
            let t7 = Instant::now();
            if !matches!(&back, Ok(r) if *r == response) {
                return Err(format!(
                    "response codec round trip changed the reply to {op:?}"
                ));
            }
            push_span(&mut out.spans, id, "wire.encode", epoch, t0, t1);
            push_span(&mut out.spans, id, "wire.decode", epoch, t1, t2);
            let core_ns = (t4 - t3).as_nanos() as u64;
            let io = IoSum {
                ops: 1,
                logical: io1.logical - io0.logical,
                misses: io1.reads - io0.reads,
                page_writes: io1.writes - io0.writes,
            };
            match (op, response) {
                (Op::Query { x1, x2, k }, Response::Points(points)) => {
                    push_span(&mut out.spans, id, "core.query", epoch, t3, t4);
                    out.query_ns.push(core_ns);
                    if k <= 64 {
                        out.small_k_ns.push(core_ns);
                    } else if k >= 256 {
                        out.large_k_ns.push(core_ns);
                    }
                    add(&mut out.query_io, io);
                    out.codec_query_ns
                        .push(((t2 - t0) + (t7 - t5)).as_nanos() as u64);
                    out.reply_bytes.push(reply.len() as u64);
                    out.samples.offer(((x1, x2, k), points));
                }
                (Op::Insert(p), _) => {
                    push_span(&mut out.spans, id, "core.write", epoch, t3, t4);
                    out.write_ns.push(core_ns);
                    add(&mut out.write_io, io);
                    out.ledger.inserted_ok(p);
                }
                (Op::Delete(p), Response::Deleted(found)) => {
                    push_span(&mut out.spans, id, "core.write", epoch, t3, t4);
                    out.write_ns.push(core_ns);
                    add(&mut out.write_io, io);
                    out.ledger.deleted_ok(p, found)?;
                }
                (op, response) => return Err(format!("{op:?} answered with {response:?}")),
            }
            push_span(&mut out.spans, id, "wire.encode", epoch, t5, t6);
            push_span(&mut out.spans, id, "wire.decode", epoch, t6, t7);
        }
    }
    Ok(out)
}

fn add(sum: &mut IoSum, io: IoSum) {
    sum.ops += io.ops;
    sum.logical += io.logical;
    sum.misses += io.misses;
    sum.page_writes += io.page_writes;
}

/// `core.query` durations (ns) of `count` seeded large-`k` queries sent
/// straight to `handle` (`k` from [`crate::workload::LARGE_KS`], at least
/// 1% selectivity): the large-`k` probe of workloads whose stream has none.
pub fn large_k_probe(handle: &TopK, seed: u64, count: usize) -> Result<Vec<u64>, String> {
    let mut rng = crate::rng::Rng::new(seed, 0x9e0be);
    (0..count)
        .map(|_| {
            let (x1, x2, k) = crate::workload::query(&mut rng, 100);
            let t = Instant::now();
            let answer = handle.query(x1, x2, k as usize);
            let ns = t.elapsed().as_nanos() as u64;
            answer
                .map(|_| ns)
                .map_err(|e| format!("probe query failed: {e}"))
        })
        .collect()
}

/// One layer's self time over a traced run.
#[derive(Debug, Clone)]
pub struct LayerSelf {
    /// Span name.
    pub name: &'static str,
    /// Spans counted.
    pub count: u64,
    /// Summed self time, ns.
    pub total_ns: u64,
    /// Median self time per span, ns.
    pub median_ns: u64,
}

/// Self time per layer. Replay spans have no children, so their self time
/// is their duration; a `request` span's self time is its duration minus
/// the replay spans of the same id (requests the replay did not reach are
/// left out).
pub fn self_times(wire: &[Span], direct: &[Span]) -> Vec<LayerSelf> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in direct {
        *children.entry(s.id).or_default() += s.ns();
    }
    let mut by_layer: Vec<(&'static str, Vec<u64>)> = Vec::new();
    let mut record =
        |name: &'static str, ns: u64| match by_layer.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(ns),
            None => by_layer.push((name, vec![ns])),
        };
    for s in wire {
        if let Some(&inner) = children.get(&s.id) {
            record(s.name, s.ns().saturating_sub(inner));
        }
    }
    for s in direct {
        record(s.name, s.ns());
    }
    by_layer
        .into_iter()
        .map(|(name, mut v)| {
            v.sort_unstable();
            LayerSelf {
                name,
                count: v.len() as u64,
                total_ns: v.iter().sum(),
                median_ns: v[v.len() / 2],
            }
        })
        .collect()
}

/// Write every span as `id,name,start_ns,end_ns` CSV.
pub fn write_spans(path: &Path, spans: &[&[Span]]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,name,start_ns,end_ns")?;
    for s in spans.iter().flat_map(|s| s.iter()) {
        writeln!(out, "{},{},{},{}", s.id, s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()
}

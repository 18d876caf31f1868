//! The checked benchmark of the served top-`k` index.
//!
//! One run starts an in-process `topk-server` on a loopback socket, preloads
//! it, drives a closed loop of [`workload::CLIENTS`] blocking connections
//! for a fixed time, checks the answers, and reports end-to-end metrics
//! (untraced runs, split into [`rounds`]) or per-layer metrics (traced
//! runs). See `README.md` for
//! the workloads, the metrics and which layer metric should move which
//! end-to-end metric.

pub mod check;
pub mod drive;
pub mod measure;
pub mod rng;
pub mod rounds;
pub mod run;
pub mod trace;
pub mod workload;

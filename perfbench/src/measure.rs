//! Percentiles and the process / machine facts recorded with each result.

use std::path::Path;

/// Percentiles the record holds when they are reportable, lowest first.
pub const PERCENTILES: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Nearest-rank `q`-th percentile of `sorted` (nanoseconds), in µs.
pub fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64) * q / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

/// Whether at least ten of `count` samples lie beyond the `q`-th percentile,
/// the condition for reporting it.
pub fn reportable(count: usize, q: f64) -> bool {
    let rank = ((count as f64) * q / 100.0).ceil() as usize;
    count >= 1 && count - rank.min(count) >= 10
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// One `key: value kB` field of `/proc/self/status`, in bytes.
fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|b| b as f64 / (1024.0 * 1024.0))
}

/// Bytes this process caused to be sent to the storage layer
/// (`write_bytes` of `/proc/self/io`).
pub fn disk_write_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Filesystem type of the mount holding `path` (from `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Share of CPU time above which the hypervisor is taken to have disturbed
/// a measurement. On a shared host, runs with a few percent of steal were a
/// quarter slower and had several times the tail latency of runs below 1%.
pub const MAX_STEAL: f64 = 0.02;

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Measures the hypervisor's steal share between laps.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Start measuring now.
    pub fn start() -> StealMeter {
        StealMeter(cpu_steal())
    }

    /// The share of CPU time stolen since the last lap (or the start), when
    /// `/proc/stat` is readable and time has passed; starts the next lap.
    pub fn lap(&mut self) -> Option<f64> {
        let now = cpu_steal();
        let share = match (self.0, now) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => None,
        };
        self.0 = now;
        share
    }

    /// Whether the host stayed below [`MAX_STEAL`] since the last lap; an
    /// unreadable or empty lap counts as undisturbed.
    pub fn calm(&mut self) -> bool {
        self.lap().is_none_or(|s| s <= MAX_STEAL)
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(reportable(1000, 99.0));
        assert!(!reportable(999, 99.0));
        assert!(!reportable(9, 50.0));
        assert!(reportable(20, 50.0) && !reportable(19, 50.0));
        assert!(reportable(200, 95.0) && !reportable(200, 99.0));
        assert!(reportable(10_000, 99.9) && !reportable(10_000, 99.99));
        let sorted: Vec<u64> = (1..=1000).map(|v| v * 1000).collect();
        assert_eq!(percentile_us(&sorted, 50.0), 500.0);
        assert_eq!(percentile_us(&sorted, 99.0), 990.0);
    }
}

//! The serving topologies a trace can replay against.

use std::fmt;
use std::str::FromStr;

use emsim::{Device, EmConfig};
use topk_core::{ConcurrentTopK, ShardedTopK, TopK, TopKIndex};

/// One of the serving topologies of the workspace. Every harness sweep runs
/// [`Topology::ALL`] — the five shapes the acceptance criteria name: the
/// bare single-threaded index, the coarse-locked wrapper, and range
/// sharding at 1, 4 and 16 shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A bare [`TopKIndex`] behind the facade (no locking layer).
    Single,
    /// The coarse-locked [`ConcurrentTopK`].
    Concurrent,
    /// A range-sharded [`ShardedTopK`] with this many shards.
    Sharded(usize),
}

impl Topology {
    /// Every topology the harnesses sweep.
    pub const ALL: [Topology; 5] = [
        Topology::Single,
        Topology::Concurrent,
        Topology::Sharded(1),
        Topology::Sharded(4),
        Topology::Sharded(16),
    ];

    /// Build an empty index of this topology on its own device, sized for
    /// `expected_n` points (the harness default machine: 256-word blocks,
    /// 128-block pool).
    pub fn build(&self, expected_n: usize) -> (Device, TopK) {
        let device = Device::new(EmConfig::new(256, 256 * 128));
        let handle = self.build_on(&device, expected_n);
        (device, handle)
    }

    /// Build an empty index of this topology on the given device.
    pub fn build_on(&self, device: &Device, expected_n: usize) -> TopK {
        let expected_n = expected_n.max(64);
        match *self {
            Topology::Single => TopK::single(
                TopKIndex::builder()
                    .device(device)
                    .expected_n(expected_n)
                    .build()
                    .expect("harness build parameters are valid"),
            ),
            Topology::Concurrent => TopK::concurrent(
                ConcurrentTopK::builder()
                    .device(device)
                    .expected_n(expected_n)
                    .build_concurrent()
                    .expect("harness build parameters are valid"),
            ),
            Topology::Sharded(shards) => TopK::sharded(
                ShardedTopK::builder()
                    .device(device)
                    .expected_n(expected_n)
                    .shards(shards)
                    .build_sharded()
                    .expect("harness build parameters are valid"),
            ),
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Single => write!(f, "single"),
            Topology::Concurrent => write!(f, "concurrent"),
            Topology::Sharded(s) => write!(f, "sharded-{s}"),
        }
    }
}

impl FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "single" => Ok(Topology::Single),
            "concurrent" => Ok(Topology::Concurrent),
            _ => match s.strip_prefix("sharded-") {
                Some(n) => n
                    .parse::<usize>()
                    .map_err(|e| format!("bad shard count in '{s}': {e}"))
                    .map(Topology::Sharded),
                None => Err(format!(
                    "unknown topology '{s}' (expected single, concurrent or sharded-<n>)"
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_names_round_trip() {
        for topology in Topology::ALL {
            assert_eq!(topology.to_string().parse::<Topology>(), Ok(topology));
        }
        assert!("sharded".parse::<Topology>().is_err());
        assert!("sharded-x".parse::<Topology>().is_err());
    }

    #[test]
    fn every_topology_builds_and_serves() {
        for topology in Topology::ALL {
            let (_device, handle) = topology.build(128);
            handle.insert(epst::Point::new(5, 9)).unwrap();
            assert_eq!(
                handle.query(0, 10, 1).unwrap(),
                vec![epst::Point::new(5, 9)]
            );
        }
    }
}

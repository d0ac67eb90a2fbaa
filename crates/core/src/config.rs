//! Typed per-algorithm construction configs: the [`PqConfig`] enum.
//!
//! [`crate::PqBuilder`] originally exposed every algorithm-specific knob as
//! a flat method (`hunt_capacity`, `skiplist_seed`, `multiqueue_factor`, …)
//! that silently applied or not depending on the algorithm. That was
//! convenient for sweeps but made it impossible to tell from a type which
//! knobs a given algorithm actually has — and let callers configure
//! contradictions the builder could only ignore. This module replaces the
//! knob soup with one config struct per algorithm, grouped under
//! [`PqConfig`]; the old builder methods spent one release as deprecated
//! shims over these structs and have been removed.
//!
//! Each struct derives [`Default`] with the same defaults the flat knobs
//! had, so `PqConfig::for_algorithm(a)` (or a struct literal with
//! `..Default::default()`) reproduces the old behaviour exactly.
//!
//! ```
//! use funnelpq::{MultiQueueConfig, PqBuilder, PqConfig};
//!
//! let cfg = PqConfig::MultiQueue(MultiQueueConfig {
//!     factor: 4,
//!     ..Default::default()
//! });
//! let q = PqBuilder::from_config(cfg, 16, 2).build::<u64>();
//! q.insert(0, 3, 30);
//! assert_eq!(q.delete_min(1), Some((3, 30)));
//! ```

use crate::adaptive::NumaPolicy;
use crate::algorithm::Algorithm;
use crate::builder::BuildError;
use crate::multiqueue::{DEFAULT_MQ_FACTOR, DEFAULT_MQ_SEED};

/// Config for [`Algorithm::HuntEtAl`]: its heap is pre-allocated, so the
/// capacity is fixed at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuntConfig {
    /// Fixed item capacity of the pre-allocated heap. Must be at least 1.
    pub capacity: usize,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig { capacity: 1 << 16 }
    }
}

/// Config for [`Algorithm::SkipList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipListConfig {
    /// Tower-height RNG seed.
    pub seed: u64,
}

impl Default for SkipListConfig {
    fn default() -> Self {
        SkipListConfig { seed: 0x5EED_CAFE }
    }
}

/// Config for the relaxed [`Algorithm::MultiQueue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiQueueConfig {
    /// Internal-heap ratio `c`: the queue holds `c · max_threads` heaps
    /// (minimum two). Must be at least 1. Default 2, the MultiQueues
    /// paper's baseline; larger values buy less contention at the price of
    /// a larger rank-error envelope.
    pub factor: usize,
    /// Per-thread choice-RNG seed.
    pub seed: u64,
}

impl Default for MultiQueueConfig {
    fn default() -> Self {
        MultiQueueConfig {
            factor: DEFAULT_MQ_FACTOR,
            seed: DEFAULT_MQ_SEED,
        }
    }
}

/// Config for the NUMA-adaptive [`Algorithm::NumaPq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaConfig {
    /// NUMA nodes to partition threads and heaps over. Must be at least 1;
    /// clamped to `max_threads` at build time (an unthreaded node could
    /// never serve a delegated request). Default 2, the smallest topology
    /// with a local/remote distinction.
    pub nodes: usize,
    /// Internal-heap ratio `c` as in the MultiQueue: the queue holds
    /// `max(c · max_threads, 2 · nodes)` heaps. Must be at least 1.
    pub factor: usize,
    /// Per-thread choice-RNG seed.
    pub seed: u64,
    /// Emulated cost of one remote cache-line transfer in nanoseconds,
    /// charged as a calibrated busy-wait (see [`crate::Topology`]). Zero —
    /// the default — disables the emulation; benches raise it to make the
    /// NUMA crossover measurable on UMA hosts, and it stays live through
    /// [`crate::Topology::set_remote_ns`].
    pub remote_ns: u64,
    /// Operations per adaptive-controller epoch. Must be at least 1.
    pub epoch_ops: u32,
    /// Mode policy: adaptive (default) or pinned to one static mode.
    pub policy: NumaPolicy,
}

impl Default for NumaConfig {
    fn default() -> Self {
        NumaConfig {
            nodes: 2,
            factor: DEFAULT_MQ_FACTOR,
            seed: DEFAULT_MQ_SEED,
            remote_ns: 0,
            epoch_ops: 256,
            policy: NumaPolicy::Adaptive,
        }
    }
}

/// Typed construction parameters for every natively-buildable algorithm:
/// one variant per algorithm, carrying exactly the knobs that algorithm
/// has. [`Algorithm::HardwareTree`] has no variant — it exists only on the
/// simulator side, so "not constructible" is a type-level fact here rather
/// than a runtime error.
#[derive(Debug, Clone, PartialEq)]
pub enum PqConfig {
    /// Heap under one MCS lock; no knobs.
    SingleLock,
    /// Hunt et al. concurrent heap.
    HuntEtAl(HuntConfig),
    /// Bounded-range skip list of bins.
    SkipList(SkipListConfig),
    /// Array of MCS-locked bins (LIFO; FIFO through
    /// [`crate::SimpleLinearPq::with_order`]).
    SimpleLinear,
    /// Tree of MCS-locked counters over locked bins (LIFO; FIFO through
    /// [`crate::SimpleTreePq::with_order`]).
    SimpleTree,
    /// Array of combining-funnel stacks.
    LinearFunnels,
    /// Tree with funnel counters at the top
    /// [`crate::DEFAULT_FUNNEL_LEVELS`] levels and funnel-stack bins (other
    /// cutoffs through [`crate::FunnelTreePq::with_config`]).
    FunnelTree,
    /// Relaxed MultiQueue.
    MultiQueue(MultiQueueConfig),
    /// NUMA-adaptive partitioned MultiQueue with a delegation layer.
    NumaPq(NumaConfig),
}

impl PqConfig {
    /// The default config for `algorithm`, or `None` for
    /// [`Algorithm::HardwareTree`] (simulator-only, nothing to configure
    /// natively).
    pub fn for_algorithm(algorithm: Algorithm) -> Option<PqConfig> {
        Some(match algorithm {
            Algorithm::SingleLock => PqConfig::SingleLock,
            Algorithm::HuntEtAl => PqConfig::HuntEtAl(HuntConfig::default()),
            Algorithm::SkipList => PqConfig::SkipList(SkipListConfig::default()),
            Algorithm::SimpleLinear => PqConfig::SimpleLinear,
            Algorithm::SimpleTree => PqConfig::SimpleTree,
            Algorithm::LinearFunnels => PqConfig::LinearFunnels,
            Algorithm::FunnelTree => PqConfig::FunnelTree,
            Algorithm::MultiQueue => PqConfig::MultiQueue(MultiQueueConfig::default()),
            Algorithm::NumaPq => PqConfig::NumaPq(NumaConfig::default()),
            Algorithm::HardwareTree => return None,
        })
    }

    /// Which algorithm this config builds.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            PqConfig::SingleLock => Algorithm::SingleLock,
            PqConfig::HuntEtAl(_) => Algorithm::HuntEtAl,
            PqConfig::SkipList(_) => Algorithm::SkipList,
            PqConfig::SimpleLinear => Algorithm::SimpleLinear,
            PqConfig::SimpleTree => Algorithm::SimpleTree,
            PqConfig::LinearFunnels => Algorithm::LinearFunnels,
            PqConfig::FunnelTree => Algorithm::FunnelTree,
            PqConfig::MultiQueue(_) => Algorithm::MultiQueue,
            PqConfig::NumaPq(_) => Algorithm::NumaPq,
        }
    }

    /// Checks the parameter ranges a queue constructor would otherwise
    /// assert on, so [`crate::PqBuilder::try_build`] reports them as typed
    /// [`BuildError::InvalidConfig`] values instead of panicking.
    pub fn validate(&self) -> Result<(), BuildError> {
        let invalid = |reason| {
            Err(BuildError::InvalidConfig {
                algorithm: self.algorithm(),
                reason,
            })
        };
        match self {
            PqConfig::HuntEtAl(c) if c.capacity == 0 => invalid("capacity must be at least 1"),
            PqConfig::MultiQueue(c) if c.factor == 0 => invalid("factor must be at least 1"),
            PqConfig::NumaPq(c) if c.nodes == 0 => invalid("nodes must be at least 1"),
            PqConfig::NumaPq(c) if c.factor == 0 => invalid("factor must be at least 1"),
            PqConfig::NumaPq(c) if c.epoch_ops == 0 => invalid("epoch_ops must be at least 1"),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_old_flat_knob_defaults() {
        assert_eq!(HuntConfig::default().capacity, 1 << 16);
        assert_eq!(SkipListConfig::default().seed, 0x5EED_CAFE);
        let mq = MultiQueueConfig::default();
        assert_eq!(mq.factor, DEFAULT_MQ_FACTOR);
        assert_eq!(mq.seed, DEFAULT_MQ_SEED);
    }

    #[test]
    fn for_algorithm_round_trips_and_skips_hardware_tree() {
        for a in Algorithm::EVERY {
            match PqConfig::for_algorithm(a) {
                Some(cfg) => {
                    assert_eq!(cfg.algorithm(), a);
                    assert_eq!(cfg.validate(), Ok(()));
                }
                None => assert_eq!(a, Algorithm::HardwareTree),
            }
        }
    }

    #[test]
    fn validate_catches_degenerate_parameters() {
        let bad = PqConfig::MultiQueue(MultiQueueConfig {
            factor: 0,
            ..Default::default()
        });
        assert_eq!(
            bad.validate(),
            Err(BuildError::InvalidConfig {
                algorithm: Algorithm::MultiQueue,
                reason: "factor must be at least 1",
            })
        );
        let bad = PqConfig::HuntEtAl(HuntConfig { capacity: 0 });
        assert!(bad.validate().is_err());
    }
}

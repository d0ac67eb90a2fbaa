//! One construction front door for all nine native queues.

use std::sync::Arc;

use funnelpq_sync::FunnelConfig;

use crate::algorithm::Algorithm;
use crate::config::PqConfig;
use crate::funnel_tree::FunnelTreePq;
use crate::hunt::HuntPq;
use crate::linear_funnels::LinearFunnelsPq;
use crate::multiqueue::MultiQueuePq;
use crate::numa::NumaPq;
use crate::obs::{NoopRecorder, Recorder};
use crate::simple_linear::SimpleLinearPq;
use crate::simple_tree::SimpleTreePq;
use crate::single_lock::SingleLockPq;
use crate::skiplist::SkipListPq;
use crate::traits::BoundedPq;

/// Why [`PqBuilder::try_build`] refused to construct a queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The algorithm has no native implementation (only
    /// [`Algorithm::HardwareTree`], which exists solely on the simulator
    /// side).
    UnsupportedAlgorithm(Algorithm),
    /// `num_priorities` was zero.
    ZeroPriorities,
    /// `max_threads` was zero.
    ZeroThreads,
    /// A per-algorithm parameter was outside the range its queue can be
    /// constructed with (see [`PqConfig::validate`]) — e.g. a MultiQueue
    /// `factor` of 0, which would otherwise panic inside the queue
    /// constructor and let a shard factory bring the whole server down.
    InvalidConfig {
        /// The algorithm whose config was rejected.
        algorithm: Algorithm,
        /// What was out of range.
        reason: &'static str,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnsupportedAlgorithm(a) => {
                write!(f, "{a} has no native implementation")
            }
            BuildError::ZeroPriorities => write!(f, "need at least one priority"),
            BuildError::ZeroThreads => write!(f, "need at least one thread"),
            BuildError::InvalidConfig { algorithm, reason } => {
                write!(f, "invalid {algorithm} config: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder constructing any of the nine native queues behind
/// `Box<dyn BoundedPq<T>>`, from a typed per-algorithm [`PqConfig`] plus
/// the two knobs every queue shares (`num_priorities`, `max_threads`) and
/// an optional metrics recorder.
///
/// Start from an algorithm with per-algorithm defaults
/// ([`PqBuilder::new`]) or from an explicit config
/// ([`PqBuilder::from_config`]). The old flat knob methods
/// (`hunt_capacity`, `skiplist_seed`, …) were deprecated shims over the
/// config and have been removed; every per-algorithm knob now lives on its
/// [`PqConfig`] variant.
///
/// # Examples
///
/// Uniform construction:
///
/// ```
/// use funnelpq::{Algorithm, PqBuilder};
///
/// let q = PqBuilder::new(Algorithm::FunnelTree, 32, 8).build::<u64>();
/// q.insert(0, 7, 700);
/// assert_eq!(q.delete_min(1), Some((7, 700)));
/// assert_eq!(q.algorithm(), Algorithm::FunnelTree);
/// ```
///
/// From a typed config, with metrics:
///
/// ```
/// use std::sync::Arc;
/// use funnelpq::obs::AtomicRecorder;
/// use funnelpq::{BinPqConfig, PqBuilder, PqConfig};
///
/// let rec = Arc::new(AtomicRecorder::new());
/// let q = PqBuilder::from_config(PqConfig::SimpleTree(BinPqConfig::default()), 16, 4)
///     .recorder(Arc::clone(&rec))
///     .build::<&str>();
/// q.insert(0, 3, "x");
/// q.delete_min(0);
/// let snap = rec.snapshot();
/// assert_eq!(snap.insert.count, 1);
/// assert_eq!(snap.delete_min.count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PqBuilder<R: Recorder = NoopRecorder> {
    algorithm: Algorithm,
    num_priorities: usize,
    max_threads: usize,
    // `None` exactly when `algorithm` has no native implementation
    // (HardwareTree), so `try_build` can still report it as a typed error.
    config: Option<PqConfig>,
    recorder: Arc<R>,
}

impl PqBuilder<NoopRecorder> {
    /// Starts a builder for `algorithm` with priorities `0..num_priorities`
    /// and thread ids `0..max_threads`, no metrics, and per-algorithm
    /// defaults for everything else ([`PqConfig::for_algorithm`]).
    pub fn new(algorithm: Algorithm, num_priorities: usize, max_threads: usize) -> Self {
        PqBuilder {
            algorithm,
            num_priorities,
            max_threads,
            config: PqConfig::for_algorithm(algorithm),
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Starts a builder from an explicit per-algorithm config — the typed
    /// replacement for the deprecated flat knob methods. The algorithm is
    /// implied by the config variant.
    pub fn from_config(config: PqConfig, num_priorities: usize, max_threads: usize) -> Self {
        PqBuilder {
            algorithm: config.algorithm(),
            num_priorities,
            max_threads,
            config: Some(config),
            recorder: Arc::new(NoopRecorder),
        }
    }
}

impl<R: Recorder> PqBuilder<R> {
    /// Attaches a metrics recorder; every operation and substrate event of
    /// the built queue flows into it. Replaces any previous recorder (the
    /// default is the zero-cost [`NoopRecorder`]).
    pub fn recorder<R2: Recorder>(self, recorder: Arc<R2>) -> PqBuilder<R2> {
        PqBuilder {
            algorithm: self.algorithm,
            num_priorities: self.num_priorities,
            max_threads: self.max_threads,
            config: self.config,
            recorder,
        }
    }

    /// The algorithm this builder will construct.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The typed per-algorithm config this builder will construct from, or
    /// `None` when the algorithm has no native implementation.
    pub fn config(&self) -> Option<&PqConfig> {
        self.config.as_ref()
    }

    /// Builds the queue, or reports why the parameters cannot produce one:
    /// an unsupported algorithm, a zero `num_priorities`/`max_threads`, or
    /// an out-of-range per-algorithm parameter ([`PqConfig::validate`]).
    /// Never panics — this is the front door for shard factories and other
    /// callers that must survive bad configuration.
    pub fn try_build<T: Send + 'static>(&self) -> Result<Box<dyn BoundedPq<T>>, BuildError> {
        if self.num_priorities == 0 {
            return Err(BuildError::ZeroPriorities);
        }
        if self.max_threads == 0 {
            return Err(BuildError::ZeroThreads);
        }
        let config = match &self.config {
            Some(c) => c,
            None => return Err(BuildError::UnsupportedAlgorithm(self.algorithm)),
        };
        config.validate()?;
        let n = self.num_priorities;
        let t = self.max_threads;
        let rec = Arc::clone(&self.recorder);
        Ok(match config {
            PqConfig::SingleLock => Box::new(SingleLockPq::with_recorder(n, t, rec)),
            PqConfig::HuntEtAl(c) => Box::new(HuntPq::with_recorder(n, t, c.capacity, rec)),
            PqConfig::SkipList(c) => Box::new(SkipListPq::with_recorder(n, t, c.seed, rec)),
            PqConfig::SimpleLinear(c) => {
                Box::new(SimpleLinearPq::with_recorder(n, t, c.order, rec))
            }
            PqConfig::SimpleTree(c) => Box::new(SimpleTreePq::with_recorder(n, t, c.order, rec)),
            PqConfig::LinearFunnels => Box::new(LinearFunnelsPq::with_recorder(
                n,
                FunnelConfig::for_threads(t),
                rec,
            )),
            PqConfig::FunnelTree(c) => Box::new(FunnelTreePq::with_recorder(
                n,
                FunnelConfig::for_threads(t),
                c.funnel_levels,
                rec,
            )),
            PqConfig::MultiQueue(c) => {
                Box::new(MultiQueuePq::with_config(n, t, c.factor, c.seed, rec))
            }
            PqConfig::NumaPq(c) => Box::new(NumaPq::with_config(n, t, c.clone(), rec)),
        })
    }

    /// Builds the queue.
    ///
    /// # Panics
    ///
    /// Panics with the [`BuildError`]'s message exactly where
    /// [`PqBuilder::try_build`] would return it — an unsupported algorithm,
    /// zero `num_priorities`/`max_threads`, or an invalid per-algorithm
    /// config. Every validation goes through `try_build`, so `build` never
    /// reaches a queue constructor's internal assertions; callers that must
    /// not panic (shard factories, servers) use `try_build` directly.
    pub fn build<T: Send + 'static>(&self) -> Box<dyn BoundedPq<T>> {
        match self.try_build() {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HuntConfig, MultiQueueConfig};
    use crate::obs::AtomicRecorder;

    #[test]
    fn builds_all_seven() {
        for a in Algorithm::ALL {
            let q = PqBuilder::new(a, 8, 2).build::<usize>();
            assert_eq!(q.algorithm(), a);
            assert_eq!(q.num_priorities(), 8);
            assert_eq!(q.max_threads(), 2);
            q.insert(0, 5, 50);
            q.insert(1, 2, 20);
            assert_eq!(q.delete_min(0), Some((2, 20)));
            assert_eq!(q.delete_min(1), Some((5, 50)));
            assert_eq!(q.delete_min(0), None);
        }
    }

    #[test]
    fn rejects_hardware_tree_and_zero_params() {
        assert_eq!(
            PqBuilder::new(Algorithm::HardwareTree, 8, 2)
                .try_build::<()>()
                .err(),
            Some(BuildError::UnsupportedAlgorithm(Algorithm::HardwareTree)),
        );
        assert_eq!(
            PqBuilder::new(Algorithm::FunnelTree, 0, 2)
                .try_build::<()>()
                .err(),
            Some(BuildError::ZeroPriorities),
        );
        assert_eq!(
            PqBuilder::new(Algorithm::FunnelTree, 8, 0)
                .try_build::<()>()
                .err(),
            Some(BuildError::ZeroThreads),
        );
    }

    #[test]
    fn try_build_rejects_degenerate_configs_instead_of_panicking() {
        let cfg = PqConfig::MultiQueue(MultiQueueConfig {
            factor: 0,
            ..Default::default()
        });
        assert_eq!(
            PqBuilder::from_config(cfg, 8, 2).try_build::<u64>().err(),
            Some(BuildError::InvalidConfig {
                algorithm: Algorithm::MultiQueue,
                reason: "factor must be at least 1",
            }),
        );
        let cfg = PqConfig::HuntEtAl(HuntConfig { capacity: 0 });
        assert!(PqBuilder::from_config(cfg, 8, 2)
            .try_build::<u64>()
            .is_err());
    }

    #[test]
    fn from_config_builds_with_the_typed_knobs() {
        let q = PqBuilder::from_config(PqConfig::HuntEtAl(HuntConfig { capacity: 2 }), 4, 1)
            .build::<u8>();
        q.insert(0, 0, 0);
        q.insert(0, 1, 1);
        assert!(q.try_insert(0, 2, 2).is_err(), "capacity 2 respected");
        assert_eq!(
            q.algorithm(),
            PqConfig::HuntEtAl(HuntConfig { capacity: 2 }).algorithm()
        );
    }

    #[test]
    fn builds_multiqueue_with_typed_knobs() {
        // Factor 1 on one thread still gets the two-heap minimum; with both
        // heaps in every delete's pair, the sequential drain is strict.
        let cfg = PqConfig::MultiQueue(MultiQueueConfig {
            factor: 1,
            seed: 42,
        });
        let q = PqBuilder::from_config(cfg, 8, 1).build::<usize>();
        assert_eq!(q.algorithm(), Algorithm::MultiQueue);
        assert_eq!(q.consistency(), crate::traits::Consistency::Relaxed);
        q.insert(0, 5, 50);
        q.insert(0, 2, 20);
        assert_eq!(q.delete_min(0), Some((2, 20)));
        assert_eq!(q.delete_min(0), Some((5, 50)));
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn builds_numapq_from_config_and_rejects_degenerates() {
        use crate::config::NumaConfig;
        let q = PqBuilder::new(Algorithm::NumaPq, 8, 2).build::<usize>();
        assert_eq!(q.algorithm(), Algorithm::NumaPq);
        assert!(q.adaptive_stats().is_some(), "controller must be exposed");
        q.insert(0, 5, 50);
        q.insert(1, 2, 20);
        // Relaxed queue: drain order may deviate, conservation may not.
        let mut got = vec![q.delete_min(0).unwrap(), q.delete_min(1).unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![(2, 20), (5, 50)]);
        assert_eq!(q.delete_min(0), None);
        for bad in [
            NumaConfig {
                nodes: 0,
                ..Default::default()
            },
            NumaConfig {
                factor: 0,
                ..Default::default()
            },
            NumaConfig {
                epoch_ops: 0,
                ..Default::default()
            },
        ] {
            assert!(
                PqBuilder::from_config(PqConfig::NumaPq(bad), 8, 2)
                    .try_build::<u64>()
                    .is_err(),
                "degenerate NumaConfig must be a typed error"
            );
        }
    }

    #[test]
    fn recorder_attaches_through_the_builder() {
        let rec = Arc::new(AtomicRecorder::with_shards(4));
        let q = PqBuilder::new(Algorithm::SingleLock, 4, 1)
            .recorder(Arc::clone(&rec))
            .build::<u8>();
        q.insert(0, 1, 1);
        q.insert(0, 2, 2);
        q.delete_min(0);
        let snap = rec.snapshot();
        assert_eq!(snap.insert.count, 2);
        assert_eq!(snap.delete_min.count, 1);
    }
}

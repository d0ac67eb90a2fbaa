//! `FunnelTree` (paper §3.2): the tree-of-counters queue with combining
//! funnels at the hot spots — the paper's headline algorithm.

use std::sync::Arc;

use funnelpq_sync::{
    Bounds, FunnelConfig, FunnelCounter, FunnelStack, LockedCounter, SharedCounter,
};

use crate::bin_pq::BinPq;
use crate::counter_tree::CounterTree;
use crate::obs::{NoopRecorder, Recorder};

/// How many levels from the root use combining-funnel counters; deeper,
/// lower-traffic counters fall back to locked counters (paper: "only for
/// counters at the top four levels of the tree"; its lock is MCS, the
/// native one TTAS).
pub const DEFAULT_FUNNEL_LEVELS: usize = 4;

/// Tree of counters whose top levels are combining funnels (with bounded
/// fetch-and-decrement and elimination) and whose leaf bins are
/// combining-funnel stacks.
///
/// Identical layout to [`crate::SimpleTreePq`]; only the implementation of
/// the potential hot spots changes, which is exactly the paper's design
/// thesis: "massage" the trouble spots with a localized adaptive mechanism
/// instead of replacing the whole structure. Quiescently consistent. The
/// two share one front end; only the counters and bins differ.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use funnelpq::obs::NoopRecorder;
/// use funnelpq::{BoundedPq, FunnelConfig, FunnelTreePq, DEFAULT_FUNNEL_LEVELS};
/// let cfg = FunnelConfig::for_threads(8);
/// let q = FunnelTreePq::with_recorder(16, cfg, DEFAULT_FUNNEL_LEVELS, Arc::new(NoopRecorder));
/// q.insert(0, 12, "l");
/// q.insert(1, 3, "c");
/// assert_eq!(q.delete_min(2), Some((3, "c")));
/// assert_eq!(q.delete_min(3), Some((12, "l")));
/// ```
pub type FunnelTreePq<T, R = NoopRecorder> = BinPq<T, CounterTree<T, FunnelStack<T>>, R>;

impl<T: Send, R: Recorder> FunnelTreePq<T, R> {
    /// Creates a queue with the funnel parameters `cfg` (threads
    /// `0..cfg.max_threads`) and funnel-level cutoff
    /// ([`DEFAULT_FUNNEL_LEVELS`] is the paper's; `funnel_levels = 0`
    /// degrades to per-node locked counters with funnel-stack bins;
    /// `usize::MAX` uses funnels throughout — the ablation of §3.2),
    /// reporting metrics to `recorder` (funnel collisions, eliminations,
    /// CAS retries, adaptions and the deeper counters' lock acquisitions
    /// flow into the recorder's substrate sink).
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` is zero or the config is invalid.
    pub fn with_recorder(
        num_priorities: usize,
        cfg: FunnelConfig,
        funnel_levels: usize,
        recorder: Arc<R>,
    ) -> Self {
        let max_threads = cfg.max_threads;
        let sink = recorder.sink();
        let tree = CounterTree::new(
            num_priorities,
            |depth| -> Box<dyn SharedCounter> {
                if depth < funnel_levels {
                    Box::new(FunnelCounter::with_sink(
                        0,
                        Bounds::non_negative(),
                        cfg.clone(),
                        sink.clone(),
                    ))
                } else {
                    Box::new(LockedCounter::with_sink(
                        0,
                        Bounds::non_negative(),
                        sink.clone(),
                    ))
                }
            },
            || FunnelStack::with_sink(cfg.clone(), sink.clone()),
        );
        BinPq::from_layout(tree, max_threads, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::BoundedPq;

    fn queue<T: Send>(num_priorities: usize, funnel_levels: usize) -> FunnelTreePq<T> {
        let cfg = FunnelConfig::for_threads(2);
        FunnelTreePq::with_recorder(num_priorities, cfg, funnel_levels, Arc::new(NoopRecorder))
    }

    #[test]
    fn sequential_priority_order() {
        let q = queue(8, DEFAULT_FUNNEL_LEVELS);
        for p in [6usize, 1, 4, 1, 7] {
            q.insert(0, p, p);
        }
        let got: Vec<usize> = (0..5).map(|_| q.delete_min(0).unwrap().0).collect();
        assert_eq!(got, vec![1, 1, 4, 6, 7]);
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn funnels_throughout_variant_works() {
        let q = queue(8, usize::MAX);
        q.insert(0, 5, 'x');
        q.insert(1, 2, 'y');
        assert_eq!(q.delete_min(0), Some((2, 'y')));
        assert_eq!(q.delete_min(1), Some((5, 'x')));
    }

    #[test]
    fn zero_funnel_levels_variant_works() {
        let q = queue(4, 0);
        q.insert(0, 3, 3);
        q.insert(0, 0, 0);
        assert_eq!(q.delete_min(0), Some((0, 0)));
        assert_eq!(q.delete_min(0), Some((3, 3)));
    }
}

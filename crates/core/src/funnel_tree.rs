//! `FunnelTree` (paper §3.2): the tree-of-counters queue with combining
//! funnels at the hot spots — the paper's headline algorithm.

use std::sync::Arc;

use funnelpq_sync::{
    Bounds, FunnelConfig, FunnelCounter, FunnelStack, LockedCounter, SharedCounter,
};

use crate::algorithm::Algorithm;
use crate::counter_tree::CounterTree;
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{check_batch, check_insert, BoundedPq, PqBatchError, PqError};

/// How many levels from the root use combining-funnel counters; deeper,
/// lower-traffic counters fall back to MCS locks (paper: "only for counters
/// at the top four levels of the tree").
pub const DEFAULT_FUNNEL_LEVELS: usize = 4;

/// Tree of counters whose top levels are combining funnels (with bounded
/// fetch-and-decrement and elimination) and whose leaf bins are
/// combining-funnel stacks.
///
/// Identical layout to [`crate::SimpleTreePq`]; only the implementation of
/// the potential hot spots changes, which is exactly the paper's design
/// thesis: "massage" the trouble spots with a localized adaptive mechanism
/// instead of replacing the whole structure. Quiescently consistent.
///
/// # Examples
///
/// ```
/// use funnelpq::{BoundedPq, FunnelTreePq};
/// let q = FunnelTreePq::new(16, 8);
/// q.insert(0, 12, "l");
/// q.insert(1, 3, "c");
/// assert_eq!(q.delete_min(2), Some((3, "c")));
/// assert_eq!(q.delete_min(3), Some((12, "l")));
/// ```
#[derive(Debug)]
pub struct FunnelTreePq<T, R: Recorder = NoopRecorder> {
    tree: CounterTree<T, FunnelStack<T>>,
    recorder: Arc<R>,
}

impl<T: Send> FunnelTreePq<T> {
    /// Creates a queue with default funnel parameters and the paper's
    /// four-level funnel cutoff.
    pub fn new(num_priorities: usize, max_threads: usize) -> Self {
        Self::with_config(
            num_priorities,
            FunnelConfig::for_threads(max_threads),
            DEFAULT_FUNNEL_LEVELS,
        )
    }

    /// Creates a queue with explicit funnel parameters and funnel-level
    /// cutoff (`funnel_levels = 0` degrades to per-node locked counters
    /// with funnel-stack bins; `usize::MAX` uses funnels throughout — the
    /// ablation of §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` is zero or the config is invalid.
    pub fn with_config(num_priorities: usize, cfg: FunnelConfig, funnel_levels: usize) -> Self {
        Self::with_recorder(num_priorities, cfg, funnel_levels, Arc::new(NoopRecorder))
    }
}

impl<T: Send, R: Recorder> FunnelTreePq<T, R> {
    /// Like [`FunnelTreePq::with_config`], reporting metrics to `recorder`
    /// (funnel collisions, eliminations, CAS retries, adaptions and the
    /// deeper counters' lock acquisitions flow into the recorder's
    /// substrate sink).
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
        let counter_cfg = cfg.clone();
        let sink = recorder.sink();
        let counter_sink = sink.clone();
        FunnelTreePq {
            tree: CounterTree::new(
                num_priorities,
                max_threads,
                move |depth| -> Box<dyn SharedCounter> {
                    if depth < funnel_levels {
                        Box::new(FunnelCounter::with_sink(
                            0,
                            Bounds::non_negative(),
                            counter_cfg.clone(),
                            counter_sink.clone(),
                        ))
                    } else {
                        Box::new(LockedCounter::with_sink(
                            0,
                            Bounds::non_negative(),
                            counter_sink.clone(),
                        ))
                    }
                },
                move || FunnelStack::with_sink(cfg.clone(), sink.clone()),
            ),
            recorder,
        }
    }

    /// Checks, at quiescence, that every counter of the tree equals the
    /// number of items in its left subtree's bins. For tests.
    ///
    /// # Panics
    ///
    /// Panics naming the first counter that does not.
    #[doc(hidden)]
    pub fn validate(&self) {
        self.tree.validate();
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for FunnelTreePq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::FunnelTree
    }

    fn num_priorities(&self) -> usize {
        self.tree.num_priorities()
    }

    fn max_threads(&self) -> usize {
        self.tree.max_threads()
    }

    // `#[inline]` lets the panicking `insert` wrapper's monomorphization
    // absorb this body, keeping the old direct-insert code shape (no extra
    // call or by-stack `Result` on the hot path).
    #[inline]
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        let item = check_insert(
            tid,
            pri,
            self.tree.max_threads(),
            self.tree.num_priorities(),
            item,
        )?;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.tree.insert(tid, pri, item)
        });
        Ok(())
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.tree.max_threads(), "tid {tid} out of range");
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            self.tree.delete_min(tid)
        });
        if R::ENABLED && out.is_none() {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // The batch enters the tree as one pre-combined operation: each bin
    // and each counter on its paths is touched once (`CounterTree`).
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let batch = check_batch(
            tid,
            batch,
            self.tree.max_threads(),
            self.tree.num_priorities(),
        )?;
        let n = batch.len() as u64;
        obs::timed(&*self.recorder, OpKind::InsertBatch, || {
            self.tree.insert_batch(tid, batch)
        });
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    // One descent carrying `k` claims.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.tree.max_threads(), "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMinBatch, || {
            self.tree.delete_min_batch(tid, k, out)
        });
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_priority_order() {
        let q = FunnelTreePq::new(8, 2);
        for p in [6usize, 1, 4, 1, 7] {
            q.insert(0, p, p);
        }
        let got: Vec<usize> = (0..5).map(|_| q.delete_min(0).unwrap().0).collect();
        assert_eq!(got, vec![1, 1, 4, 6, 7]);
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn funnels_throughout_variant_works() {
        let q = FunnelTreePq::with_config(8, FunnelConfig::for_threads(2), usize::MAX);
        q.insert(0, 5, 'x');
        q.insert(1, 2, 'y');
        assert_eq!(q.delete_min(0), Some((2, 'y')));
        assert_eq!(q.delete_min(1), Some((5, 'x')));
    }

    #[test]
    fn zero_funnel_levels_variant_works() {
        let q = FunnelTreePq::with_config(4, FunnelConfig::for_threads(2), 0);
        q.insert(0, 3, 3);
        q.insert(0, 0, 0);
        assert_eq!(q.delete_min(0), Some((0, 0)));
        assert_eq!(q.delete_min(0), Some((3, 3)));
    }
}

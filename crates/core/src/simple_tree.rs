//! `SimpleTree` (paper Figure 3): tree of MCS-locked counters with
//! lock-based bins at the leaves.

use std::sync::Arc;

use funnelpq_sync::{BinOrder, Bounds, LockBin, LockedCounter};

use crate::algorithm::Algorithm;
use crate::counter_tree::CounterTree;
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{check_batch, check_insert, BoundedPq, PqBatchError, PqError};

/// Binary tree of counters (each an MCS-locked integer) over lock-based
/// bins: `delete_min` costs `O(log N)` counter operations, `insert` half
/// that on average.
///
/// Every operation passes through the root counter, which becomes the
/// serial bottleneck at high concurrency — the behaviour `FunnelTree`
/// removes by swapping the hot counters for combining funnels.
///
/// # Examples
///
/// ```
/// use funnelpq::{BoundedPq, SimpleTreePq};
/// let q = SimpleTreePq::new(16, 4);
/// q.insert(0, 9, "i");
/// q.insert(1, 4, "d");
/// assert_eq!(q.delete_min(2), Some((4, "d")));
/// assert_eq!(q.delete_min(3), Some((9, "i")));
/// ```
#[derive(Debug)]
pub struct SimpleTreePq<T, R: Recorder = NoopRecorder> {
    tree: CounterTree<T, LockBin<T>>,
    recorder: Arc<R>,
}

impl<T: Send> SimpleTreePq<T> {
    /// Creates a queue for priorities `0..num_priorities`.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn new(num_priorities: usize, max_threads: usize) -> Self {
        Self::with_order(num_priorities, max_threads, BinOrder::Lifo)
    }

    /// Creates a queue whose equal-priority items come out in the given
    /// order ([`BinOrder::Fifo`] for fairness).
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn with_order(num_priorities: usize, max_threads: usize, order: BinOrder) -> Self {
        Self::with_recorder(num_priorities, max_threads, order, Arc::new(NoopRecorder))
    }
}

impl<T: Send, R: Recorder> SimpleTreePq<T, R> {
    /// Like [`SimpleTreePq::with_order`], reporting metrics to `recorder`
    /// (counter locks and bin locks flow into the recorder's substrate
    /// sink).
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn with_recorder(
        num_priorities: usize,
        max_threads: usize,
        order: BinOrder,
        recorder: Arc<R>,
    ) -> Self {
        let sink = recorder.sink();
        SimpleTreePq {
            tree: CounterTree::new(
                num_priorities,
                max_threads,
                |_depth| {
                    Box::new(LockedCounter::with_sink(
                        0,
                        Bounds::non_negative(),
                        sink.clone(),
                    ))
                },
                || LockBin::with_order_and_sink(order, sink.clone()),
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

impl<T: Send, R: Recorder> BoundedPq<T> for SimpleTreePq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SimpleTree
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
        let q = SimpleTreePq::new(8, 1);
        for p in [7usize, 0, 3, 3, 5] {
            q.insert(0, p, p * 10);
        }
        let got: Vec<usize> = (0..5).map(|_| q.delete_min(0).unwrap().0).collect();
        assert_eq!(got, vec![0, 3, 3, 5, 7]);
        assert_eq!(q.delete_min(0), None);
        assert!(q.is_empty());
    }

    #[test]
    fn non_power_of_two_range() {
        let q = SimpleTreePq::new(5, 1);
        for p in (0..5).rev() {
            q.insert(0, p, p);
        }
        for p in 0..5 {
            assert_eq!(q.delete_min(0), Some((p, p)));
        }
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn single_priority_range() {
        let q = SimpleTreePq::new(1, 1);
        q.insert(0, 0, 'a');
        q.insert(0, 0, 'b');
        assert_eq!(q.delete_min(0).map(|e| e.0), Some(0));
        assert_eq!(q.delete_min(0).map(|e| e.0), Some(0));
        assert_eq!(q.delete_min(0), None);
    }
}

//! `SimpleTree` (paper Figure 3): tree of locked counters with lock-based
//! bins at the leaves. The paper's locks are MCS; natively they are TTAS
//! (`funnelpq_sync::LockedCounter`, `LockBin`).

use std::sync::Arc;

use funnelpq_sync::{BinOrder, Bounds, LockBin, LockedCounter};

use crate::bin_pq::BinPq;
use crate::counter_tree::CounterTree;
use crate::obs::{NoopRecorder, Recorder};

/// Binary tree of counters (each a locked integer) over lock-based
/// bins: `delete_min` costs `O(log N)` counter operations, `insert` half
/// that on average.
///
/// Every operation passes through the root counter, which becomes the
/// serial bottleneck at high concurrency — the behaviour `FunnelTree`
/// removes by swapping the hot counters for combining funnels.
///
/// The tree layout over `LockBin`s behind the bounded-range front end
/// every one of the paper's four queues shares.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use funnelpq::obs::NoopRecorder;
/// use funnelpq::{BinOrder, BoundedPq, SimpleTreePq};
/// let q = SimpleTreePq::with_recorder(16, 4, BinOrder::Lifo, Arc::new(NoopRecorder));
/// q.insert(0, 9, "i");
/// q.insert(1, 4, "d");
/// assert_eq!(q.delete_min(2), Some((4, "d")));
/// assert_eq!(q.delete_min(3), Some((9, "i")));
/// ```
pub type SimpleTreePq<T, R = NoopRecorder> = BinPq<T, CounterTree<T, LockBin<T>>, R>;

impl<T: Send, R: Recorder> SimpleTreePq<T, R> {
    /// Creates a queue for priorities `0..num_priorities` whose
    /// equal-priority items come out in the given order
    /// ([`BinOrder::Fifo`] for fairness), reporting metrics to `recorder`
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
        let tree = CounterTree::new(
            num_priorities,
            |_depth| {
                Box::new(LockedCounter::with_sink(
                    0,
                    Bounds::non_negative(),
                    sink.clone(),
                ))
            },
            || LockBin::with_order_and_sink(order, sink.clone()),
        );
        BinPq::from_layout(tree, max_threads, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::BoundedPq;

    fn queue<T: Send>(num_priorities: usize) -> SimpleTreePq<T> {
        SimpleTreePq::with_recorder(num_priorities, 1, BinOrder::Lifo, Arc::new(NoopRecorder))
    }

    #[test]
    fn sequential_priority_order() {
        let q = queue(8);
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
        let q = queue(5);
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
        let q = queue(1);
        q.insert(0, 0, 'a');
        q.insert(0, 0, 'b');
        assert_eq!(q.delete_min(0).map(|e| e.0), Some(0));
        assert_eq!(q.delete_min(0).map(|e| e.0), Some(0));
        assert_eq!(q.delete_min(0), None);
    }
}

//! `SimpleLinear` (paper Figure 2): an array of lock-based bins scanned in
//! priority order.

use std::sync::Arc;

use funnelpq_sync::{BinOrder, LockBin};

use crate::bin_pq::{BinPq, Linear};
use crate::obs::{NoopRecorder, Recorder};

/// One MCS-locked bin per priority; `delete_min` scans bins smallest-first,
/// attempting removal from each non-empty bin it meets.
///
/// Inserts touch only their own bin, so they are embarrassingly parallel;
/// the scan is cheap because emptiness is one read per bin. Linearizable
/// when built from lock-based bins (as here). The paper's best performer up
/// to ~32 processors.
///
/// The linear layout over `LockBin`s behind the bounded-range front end
/// every one of the paper's four queues shares.
///
/// # Examples
///
/// ```
/// use funnelpq::{BoundedPq, SimpleLinearPq};
/// let q = SimpleLinearPq::new(8, 2);
/// q.insert(0, 6, 'z');
/// q.insert(1, 2, 'a');
/// assert_eq!(q.delete_min(0), Some((2, 'a')));
/// assert_eq!(q.delete_min(1), Some((6, 'z')));
/// assert_eq!(q.delete_min(0), None);
/// ```
pub type SimpleLinearPq<T, R = NoopRecorder> = BinPq<T, Linear<LockBin<T>>, R>;

impl<T: Send> SimpleLinearPq<T> {
    /// Creates a queue for priorities `0..num_priorities`.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn new(num_priorities: usize, max_threads: usize) -> Self {
        Self::with_order(num_priorities, max_threads, BinOrder::Lifo)
    }

    /// Creates a queue whose equal-priority items come out in the given
    /// order ([`BinOrder::Fifo`] for fairness, as §3.2 of the paper
    /// suggests for applications where LIFO starvation matters).
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn with_order(num_priorities: usize, max_threads: usize, order: BinOrder) -> Self {
        Self::with_recorder(num_priorities, max_threads, order, Arc::new(NoopRecorder))
    }
}

impl<T: Send, R: Recorder> SimpleLinearPq<T, R> {
    /// Like [`SimpleLinearPq::with_order`], reporting metrics to `recorder`
    /// (every bin lock's acquisitions flow into the recorder's substrate
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
        let bins = Linear::new(num_priorities, || {
            LockBin::with_order_and_sink(order, sink.clone())
        });
        BinPq::from_layout(bins, max_threads, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::BoundedPq;

    #[test]
    fn scan_finds_smallest() {
        let q = SimpleLinearPq::new(10, 1);
        q.insert(0, 9, "i");
        q.insert(0, 4, "e");
        q.insert(0, 4, "e2");
        assert_eq!(q.delete_min(0).unwrap().0, 4);
        assert_eq!(q.delete_min(0).unwrap().0, 4);
        assert_eq!(q.delete_min(0), Some((9, "i")));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_order_is_fair_within_a_priority() {
        let q = SimpleLinearPq::with_order(4, 1, BinOrder::Fifo);
        for i in 0..5 {
            q.insert(0, 2, i);
        }
        for i in 0..5 {
            assert_eq!(q.delete_min(0), Some((2, i)));
        }
    }

    #[test]
    fn equal_priority_items_all_retrievable() {
        let q = SimpleLinearPq::new(2, 1);
        for i in 0..5 {
            q.insert(0, 1, i);
        }
        let mut got: Vec<i32> = (0..5).map(|_| q.delete_min(0).unwrap().1).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}

//! `SimpleLinear` (paper Figure 2): an array of lock-based bins scanned in
//! priority order.

use std::sync::Arc;

use funnelpq_sync::{BinOrder, LockBin};

use crate::algorithm::Algorithm;
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{check_batch, check_insert, for_each_run, BoundedPq, PqBatchError, PqError};

/// One MCS-locked bin per priority; `delete_min` scans bins smallest-first,
/// attempting removal from each non-empty bin it meets.
///
/// Inserts touch only their own bin, so they are embarrassingly parallel;
/// the scan is cheap because emptiness is one read per bin. Linearizable
/// when built from lock-based bins (as here). The paper's best performer up
/// to ~32 processors.
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
#[derive(Debug)]
pub struct SimpleLinearPq<T, R: Recorder = NoopRecorder> {
    bins: Vec<LockBin<T>>,
    max_threads: usize,
    recorder: Arc<R>,
}

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
        assert!(num_priorities > 0, "need at least one priority");
        assert!(max_threads > 0, "need at least one thread");
        let sink = recorder.sink();
        SimpleLinearPq {
            bins: (0..num_priorities)
                .map(|_| LockBin::with_order_and_sink(order, sink.clone()))
                .collect(),
            max_threads,
            recorder,
        }
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for SimpleLinearPq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SimpleLinear
    }

    fn num_priorities(&self) -> usize {
        self.bins.len()
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    // `#[inline]` lets the panicking `insert` wrapper's monomorphization
    // absorb this body, keeping the old direct-insert code shape (no extra
    // call or by-stack `Result` on the hot path).
    #[inline]
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        let item = check_insert(tid, pri, self.max_threads, self.bins.len(), item)?;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.bins[pri].insert(item)
        });
        Ok(())
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            for (pri, bin) in self.bins.iter().enumerate() {
                if !bin.is_empty() {
                    if let Some(item) = bin.delete() {
                        return Some((pri, item));
                    }
                }
            }
            None
        });
        if R::ENABLED && out.is_none() {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // One bin episode per run of equal priority instead of one per item.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let batch = check_batch(tid, batch, self.max_threads, self.bins.len())?;
        let n = batch.len() as u64;
        obs::timed(&*self.recorder, OpKind::InsertBatch, || {
            for_each_run(batch, |pri, run| {
                self.bins[pri].insert_many(run.map(|(_, item)| item))
            })
        });
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    // One scan, taking from each non-empty bin everything the batch still
    // wants in one episode. An insert that lands behind the scan is not
    // seen, as it is not by a single already past that bin.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMinBatch, || {
            let mut taken = 0;
            for (pri, bin) in self.bins.iter().enumerate() {
                taken += bin.delete_many(k - taken, |item| out.push((pri, item)));
                if taken == k {
                    break;
                }
            }
            taken
        });
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    fn is_empty(&self) -> bool {
        self.bins.iter().all(|b| b.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

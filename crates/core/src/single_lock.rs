//! `SingleLock`: a heap under one lock — the paper's representative of
//! centralized lock-based algorithms. The paper's lock is MCS, and the
//! simulated twin keeps it; natively the heap sits on the TTAS lock every
//! other native lock uses, which on a few cores hands a short section on
//! faster than a FIFO queue (DESIGN.md, deviation 6).

use std::sync::Arc;

use funnelpq_sync::{SinkRef, TtasMutex};
use funnelpq_util::CachePadded;

use crate::algorithm::Algorithm;
use crate::heap::{sort_into_pop_order, BinaryHeap};
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{check_batch, check_insert, reject, BoundedPq, PqBatchError, PqError};

/// Binary heap protected by a single lock.
///
/// Linearizable, supports arbitrary priorities within the declared range,
/// and is perfectly serial: every operation holds the one lock for its whole
/// duration, so latency grows linearly with the number of contending
/// threads (Figure 6 of the paper).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use funnelpq::obs::NoopRecorder;
/// use funnelpq::{BoundedPq, SingleLockPq};
/// let q = SingleLockPq::with_recorder(16, 4, Arc::new(NoopRecorder));
/// q.insert(0, 3, "c");
/// q.insert(0, 1, "a");
/// assert_eq!(q.delete_min(0), Some((1, "a")));
/// ```
#[derive(Debug)]
pub struct SingleLockPq<T, R: Recorder = NoopRecorder> {
    /// The lock's flag and the heap's header each on a line of their own:
    /// a waiter polling the flag does not pull away the line a holder
    /// writes on every push and pop (a batch drain that pops writes it `k`
    /// times).
    heap: TtasMutex<CachePadded<BinaryHeap<T>>>,
    /// Where the heap lock's acquisitions are reported.
    sink: Option<SinkRef>,
    num_priorities: usize,
    max_threads: usize,
    recorder: Arc<R>,
}

impl<T: Send, R: Recorder> SingleLockPq<T, R> {
    /// Creates a queue for priorities `0..num_priorities`, reporting
    /// metrics to `recorder` (the heap lock's acquisitions flow into the
    /// recorder's substrate sink).
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn with_recorder(num_priorities: usize, max_threads: usize, recorder: Arc<R>) -> Self {
        assert!(num_priorities > 0, "need at least one priority");
        assert!(max_threads > 0, "need at least one thread");
        SingleLockPq {
            heap: TtasMutex::new(CachePadded::new(BinaryHeap::new())),
            sink: recorder.sink(),
            num_priorities,
            max_threads,
            recorder,
        }
    }

    /// `f` on the heap as one critical section, reported to the sink.
    #[inline]
    fn locked<O>(&self, f: impl FnOnce(&mut BinaryHeap<T>) -> O) -> O {
        self.heap.lock_noting(self.sink.as_ref(), |heap| f(heap))
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for SingleLockPq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SingleLock
    }

    fn num_priorities(&self) -> usize {
        self.num_priorities
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    // `#[inline]` lets the panicking `insert` wrapper's monomorphization
    // absorb this body, keeping the old direct-insert code shape (no extra
    // call or by-stack `Result` on the hot path).
    #[inline]
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        let item = check_insert(tid, pri, self.max_threads, self.num_priorities, item)?;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.locked(|heap| heap.push(pri, item))
        });
        Ok(())
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            self.locked(BinaryHeap::pop)
        });
        if R::ENABLED && out.is_none() {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // One lock acquisition amortized over the whole batch. The batch is
    // sorted ascending first so each push lands above everything already
    // appended from the same batch and its sift-up is one comparison long.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut batch = check_batch(tid, batch, self.max_threads, self.num_priorities)?;
        batch.sort_unstable_by_key(|&(pri, _)| pri);
        let n = batch.len() as u64;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.locked(|heap| {
                for (pri, item) in batch {
                    heap.push(pri, item);
                }
            })
        });
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    // One lock acquisition per call, on either of two paths. A batch that
    // empties the heap takes its array whole: `out` and the heap swap
    // storage under the lock, and the array is sorted into pop order after
    // the lock is released. It applies only when `out` is empty (it becomes
    // the heap) and can hold the heap (the heap does not regrow under the
    // lock from a smaller buffer); an empty heap keeps its own buffer.
    // Otherwise up to `k` pops run in the one hold.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            let popped = self.locked(|heap| {
                let n = heap.len();
                if n > 0 && n <= k && out.is_empty() && out.capacity() >= n {
                    heap.take_entries(out);
                    return None;
                }
                let mut taken = 0;
                while taken < k {
                    match heap.pop() {
                        Some(e) => {
                            out.push(e);
                            taken += 1;
                        }
                        None => break,
                    }
                }
                Some(taken)
            });
            popped.unwrap_or_else(|| {
                sort_into_pop_order(out);
                out.len()
            })
        });
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 && k > 0 {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    // Fused swap at the root: one lock hold, one sift, no sift-up.
    fn replace_min(&self, tid: usize, pri: usize, item: T) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if let Err(e) = check_insert(tid, pri, self.max_threads, self.num_priorities, ()) {
            reject(&e);
        }
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            self.locked(|heap| heap.replace_min(pri, item))
        });
        obs::record_batch_op(&*self.recorder, 1);
        if R::ENABLED && out.is_none() {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // Each batch is taken in one lock hold, so it is a sorted prefix of the
    // heap at one instant. The pop loop returns that prefix directly. A
    // whole-heap take moves the entire heap out at one instant, which is
    // exactly what `len` pops in one hold would return, and the sort outside
    // the lock puts it in that pop order.
    fn ordered_batch_drain(&self) -> bool {
        true
    }

    fn is_empty(&self) -> bool {
        self.locked(|heap| heap.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue<T: Send>(num_priorities: usize, max_threads: usize) -> SingleLockPq<T> {
        SingleLockPq::with_recorder(num_priorities, max_threads, Arc::new(NoopRecorder))
    }

    #[test]
    fn ordering() {
        let q = queue(8, 1);
        assert!(q.is_empty());
        q.insert(0, 5, 50);
        q.insert(0, 2, 20);
        q.insert(0, 7, 70);
        assert_eq!(q.delete_min(0), Some((2, 20)));
        assert_eq!(q.delete_min(0), Some((5, 50)));
        assert_eq!(q.delete_min(0), Some((7, 70)));
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    #[should_panic(expected = "priority")]
    fn rejects_out_of_range_priority() {
        let q = queue(4, 1);
        q.insert(0, 4, ());
    }

    #[test]
    fn batch_ops_round_trip() {
        let q = queue(16, 2);
        q.insert_batch(1, vec![(9, 'i'), (3, 'c'), (7, 'g')])
            .unwrap();
        q.insert_batch(0, Vec::new()).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(0, 2, &mut out), 2);
        assert_eq!(out, vec![(3, 'c'), (7, 'g')]);
        assert_eq!(q.replace_min(0, 1, 'a'), Some((9, 'i')));
        assert_eq!(q.replace_min(0, 5, 'e'), Some((1, 'a')));
        out.clear();
        assert_eq!(q.delete_min_batch(0, 8, &mut out), 1);
        assert_eq!(out, vec![(5, 'e')]);
        assert_eq!(q.replace_min(0, 2, 'b'), None, "empty queue still files");
        assert_eq!(q.delete_min(0), Some((2, 'b')));
    }

    /// A queue holding `n` entries over 4 priorities (dense ties), item
    /// `i` the `i`-th inserted.
    fn filled(n: usize) -> SingleLockPq<usize> {
        let q = queue(4, 1);
        for i in 0..n {
            q.insert(0, (i * 7 + i / 3) % 4, i);
        }
        q
    }

    /// Drains `q` with `delete_min_batch(k)` into `out` and reports whether
    /// the call took the heap's array whole (`out` now owns the buffer the
    /// heap held).
    fn drain_took_whole(q: &SingleLockPq<usize>, k: usize, out: &mut Vec<(usize, usize)>) -> bool {
        let held = q.locked(|heap| heap.as_ptr());
        q.delete_min_batch(0, k, out);
        out.as_ptr() == held
    }

    #[test]
    fn a_whole_heap_take_returns_what_the_pop_loop_returns() {
        for n in [1, 2, 3, 7, 16, 33] {
            let (taken, popped) = (filled(n), filled(n));
            let mut roomy = Vec::with_capacity(n);
            let mut bare = Vec::new();
            assert!(drain_took_whole(&taken, n, &mut roomy), "{n}: roomy out");
            assert!(!drain_took_whole(&popped, n, &mut bare), "{n}: bare out");
            assert_eq!(roomy, bare, "{n} entries");
            assert!(roomy.is_sorted_by_key(|e| e.0));
            assert!(taken.is_empty() && popped.is_empty());
        }
        // The heap keeps working on the buffer it was handed.
        let q = filled(10);
        let mut out = Vec::with_capacity(16);
        assert!(drain_took_whole(&q, 16, &mut out));
        q.insert(0, 2, 100);
        q.insert(0, 1, 101);
        assert_eq!(q.delete_min(0), Some((1, 101)));
        assert_eq!(q.delete_min(0), Some((2, 100)));
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn a_batch_that_cannot_take_the_heap_whole_pops() {
        const N: usize = 12;
        // `out` already holds entries: the take would overwrite them.
        let q = filled(N);
        let mut out = Vec::with_capacity(2 * N);
        out.push((9, 9));
        assert!(!drain_took_whole(&q, 2 * N, &mut out));
        assert_eq!(out.len(), N + 1);
        assert_eq!(out[0], (9, 9));
        assert!(out[1..].is_sorted_by_key(|e| e.0));
        // `k` is smaller than the heap: only a prefix leaves.
        let q = filled(N);
        let mut out = Vec::with_capacity(2 * N);
        assert!(!drain_took_whole(&q, N - 1, &mut out));
        assert_eq!(out.len(), N - 1);
        assert_eq!(q.delete_min(0).map(|e| e.0), Some(3));
        // `out` cannot hold the heap: the heap would regrow under the lock.
        let q = filled(N);
        let mut out = Vec::with_capacity(N - 1);
        assert!(!drain_took_whole(&q, N, &mut out));
        assert_eq!(out.len(), N);
        assert!(q.is_empty());
        // An empty heap keeps its buffer.
        let q = filled(N);
        let mut out = Vec::with_capacity(N);
        assert!(drain_took_whole(&q, N, &mut out));
        out.clear();
        assert!(!drain_took_whole(&q, N, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn a_batch_takes_the_lock_once_on_either_path() {
        use crate::obs::AtomicRecorder;
        let rec = Arc::new(AtomicRecorder::new());
        let q = SingleLockPq::with_recorder(4, 1, Arc::clone(&rec));
        let locks = || rec.snapshot().event(CounterEvent::LockAcquire);
        q.insert_batch(0, (0..10).map(|i| (i % 4, i)).collect())
            .unwrap();
        let mut out = Vec::new();
        let before = locks();
        assert_eq!(q.delete_min_batch(0, 4, &mut out), 4, "pop loop");
        assert_eq!(locks() - before, 1);
        let mut whole = Vec::with_capacity(8);
        let before = locks();
        assert_eq!(q.delete_min_batch(0, 8, &mut whole), 6, "whole take");
        assert_eq!(locks() - before, 1);
        let before = locks();
        assert_eq!(q.delete_min_batch(0, 8, &mut Vec::with_capacity(8)), 0);
        assert_eq!(locks() - before, 1, "empty heap");
        let pris: Vec<usize> = out.iter().chain(&whole).map(|e| e.0).collect();
        assert_eq!(pris, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn batch_insert_rejects_bad_priority_without_filing_anything() {
        let q = queue(4, 1);
        let err = q
            .insert_batch(0, vec![(1, 'a'), (4, 'x'), (2, 'b')])
            .unwrap_err();
        assert_eq!(err.failed_pri, 4);
        assert_eq!(err.unconsumed_len(), 3, "nothing may be filed on error");
        assert!(q.is_empty());
    }

    #[test]
    fn try_insert_returns_the_item() {
        let q = queue(4, 1);
        let err = q.try_insert(0, 9, "hot").unwrap_err();
        assert_eq!(err.into_item(), "hot");
        let err = q.try_insert(5, 0, "tid").unwrap_err();
        assert_eq!(err.into_item(), "tid");
        assert!(q.is_empty());
    }
}

//! `MultiQueue`: a *relaxed* priority queue — `c·T` sequential heaps behind
//! try-locks, with two-choice delete-min (Williams, Sanders & Dementiev,
//! *Engineering MultiQueues*).
//!
//! This is the one post-paper algorithm in the crate: instead of diffusing
//! the delete-min hot spot through combining funnels while keeping strict
//! semantics, it abandons strictness. `delete_min` samples two random heaps
//! and pops from the one whose cached top is smaller, so the returned item
//! is only *near* the minimum ([`Consistency::Relaxed`](crate::Consistency::Relaxed)); in exchange,
//! operations touch one uncontended cache line each and throughput scales
//! almost linearly with threads. The simulator's audit layer quantifies the
//! slack as per-operation *rank error* instead of asserting sortedness.

use std::sync::Arc;

use funnelpq_util::{AtomicRng, CachePadded};

use crate::algorithm::Algorithm;
use crate::heap_array::{pop_many, BufferedHeap, HeapArray, Sticky, EMPTY_TOP};
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{check_batch, check_insert, reject, BoundedPq, PqBatchError, PqError};

/// Default ratio of internal heaps to threads (`c` in the MultiQueues
/// papers; `c = 2` is their baseline configuration).
pub const DEFAULT_MQ_FACTOR: usize = 2;

/// Default seed for the per-thread choice RNGs.
pub const DEFAULT_MQ_SEED: u64 = 0x5EED_3141;

/// Per-thread choice state: the RNG and the two sticky caches (one slot for
/// inserts, one pair for deletes), padded so threads never share a line.
#[derive(Debug)]
struct ThreadCtx {
    rng: AtomicRng,
    ins: Sticky,
    del: Sticky,
}

/// The relaxed MultiQueue: `c·T` sequential queues (each a short sorted
/// deletion buffer in front of a binary heap), each under a test-and-set
/// try-lock, with power-of-two-choices delete-min and sticky queue reuse.
///
/// `insert` picks a random heap (re-drawing if its lock is held);
/// `delete_min` reads the published tops of two random heaps and pops from
/// the smaller. Neither guarantee strict ordering — see
/// [`Consistency::Relaxed`](crate::Consistency::Relaxed) — but element conservation is exact, and at
/// quiescence an empty return means the queue really is empty (a full
/// lock-sweep fallback backs the sampled fast path). A thread re-uses one
/// choice for eight consecutive operations before re-drawing, amortizing
/// lock acquisitions and cache misses (the MultiQueues papers' stickiness).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use funnelpq::obs::NoopRecorder;
/// use funnelpq::{BoundedPq, MultiQueuePq, DEFAULT_MQ_FACTOR, DEFAULT_MQ_SEED};
/// let rec = Arc::new(NoopRecorder);
/// let q = MultiQueuePq::with_config(16, 4, DEFAULT_MQ_FACTOR, DEFAULT_MQ_SEED, rec);
/// q.insert(0, 3, "c");
/// q.insert(1, 1, "a");
/// let mut got = vec![q.delete_min(2).unwrap(), q.delete_min(3).unwrap()];
/// got.sort();
/// assert_eq!(got, vec![(1, "a"), (3, "c")]);
/// assert_eq!(q.delete_min(0), None);
/// ```
#[derive(Debug)]
pub struct MultiQueuePq<T, R: Recorder = NoopRecorder> {
    heaps: HeapArray<T>,
    threads: Box<[CachePadded<ThreadCtx>]>,
    num_priorities: usize,
    max_threads: usize,
    recorder: Arc<R>,
}

impl<T: Send, R: Recorder> MultiQueuePq<T, R> {
    /// Creates a queue for priorities `0..num_priorities` with
    /// `factor · max_threads` internal heaps (at least two) and `seed` for
    /// the per-thread choice RNGs ([`DEFAULT_MQ_FACTOR`] and
    /// [`DEFAULT_MQ_SEED`] are what [`crate::PqBuilder`] uses), reporting
    /// metrics to `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities`, `max_threads`, or `factor` is zero, or
    /// if `num_priorities == usize::MAX` (reserved sentinel).
    pub fn with_config(
        num_priorities: usize,
        max_threads: usize,
        factor: usize,
        seed: u64,
        recorder: Arc<R>,
    ) -> Self {
        assert!(num_priorities > 0, "need at least one priority");
        assert!(num_priorities < EMPTY_TOP, "priority range too large");
        assert!(max_threads > 0, "need at least one thread");
        assert!(factor > 0, "need a positive queue factor");
        let threads = (0..max_threads)
            .map(|tid| {
                CachePadded::new(ThreadCtx {
                    rng: AtomicRng::new(seed.wrapping_add(tid as u64)),
                    ins: Sticky::default(),
                    del: Sticky::default(),
                })
            })
            .collect();
        MultiQueuePq {
            heaps: HeapArray::new((factor * max_threads).max(2)),
            threads,
            num_priorities,
            max_threads,
            recorder,
        }
    }

    /// Number of internal heaps (`factor · max_threads`, at least two).
    pub fn num_queues(&self) -> usize {
        self.heaps.len()
    }

    /// The heap array's event hook.
    #[inline]
    fn note(&self) -> impl Fn(CounterEvent) + '_ {
        move |e| {
            if R::ENABLED {
                self.recorder.event(e);
            }
        }
    }

    /// One insert episode: `file` runs on the sticky (or freshly drawn)
    /// heap under one try-lock — one CAS, one top publication, however many
    /// pushes.
    #[inline]
    fn push_with(&self, tid: usize, file: impl FnOnce(&mut BufferedHeap<T>)) {
        let t = &*self.threads[tid];
        self.heaps
            .push(self.heaps.all(), &t.rng, Some(&t.ins), &self.note(), file);
    }

    /// One sampled delete episode: `take` runs on the two-choice winner
    /// (the sticky pair, or a fresh draw). `None` means the pair looked
    /// empty and the caller owes a [`Self::sweep`].
    #[inline]
    fn pop_sampled<O>(
        &self,
        tid: usize,
        mut take: impl FnMut(&mut BufferedHeap<T>) -> Option<O>,
    ) -> Option<O> {
        let t = &*self.threads[tid];
        self.heaps.pop(
            self.heaps.all(),
            &t.rng,
            Some(&t.del),
            &self.note(),
            |_, h| take(h),
        )
    }

    /// The definitive fallback: pops the first non-empty heap in order.
    fn sweep(&self) -> Option<(usize, T)> {
        self.heaps
            .sweep(self.heaps.all(), &self.note(), |_, h| h.pop())
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for MultiQueuePq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MultiQueue
    }

    fn num_priorities(&self) -> usize {
        self.num_priorities
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    #[inline]
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        let item = check_insert(tid, pri, self.max_threads, self.num_priorities, item)?;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.push_with(tid, |h| h.push(pri, item))
        });
        Ok(())
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            self.pop_sampled(tid, BufferedHeap::pop)
                .or_else(|| self.sweep())
        });
        if R::ENABLED && out.is_none() {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // The sticky (or freshly drawn) queue absorbs the whole batch in one
    // try-lock episode, and the whole batch counts as one operation against
    // the stickiness budget.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut batch = check_batch(tid, batch, self.max_threads, self.num_priorities)?;
        batch.sort_unstable_by_key(|&(pri, _)| pri);
        let n = batch.len() as u64;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.push_with(tid, |h| {
                for (pri, item) in batch {
                    h.push(pri, item);
                }
            })
        });
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    // Pops up to `k` items from the two-choice winner under one lock hold,
    // publishing its top once at the end; re-draws only if the winner runs
    // dry early, and takes one item per sweep when a pair looks empty.
    // Relaxation grows with `k` — the winner's items are taken en bloc
    // while other heaps may hold smaller ones — which is exactly what the
    // simulator's rank-error audit quantifies.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            let mut taken = 0;
            while taken < k {
                let drained = self.pop_sampled(tid, |h| pop_many(h, k - taken, out));
                let swept = || {
                    self.sweep().map(|e| {
                        out.push(e);
                        1
                    })
                };
                match drained.or_else(swept) {
                    Some(n) => taken += n,
                    None => break,
                }
            }
            taken
        });
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    // Fused root swap on the two-choice winner: one try-lock episode, one
    // sift, one top publication — versus two full episodes for the unfused
    // delete+insert pair.
    fn replace_min(&self, tid: usize, pri: usize, item: T) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if let Err(e) = check_insert(tid, pri, self.max_threads, self.num_priorities, ()) {
            reject(&e);
        }
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            let mut item = Some(item);
            // A winner that turns out empty under a stale top still gets
            // the new item; the removal is then reported empty.
            let swapped = self.pop_sampled(tid, |h| {
                Some(h.replace_min(pri, item.take().expect("item filed once")))
            });
            swapped.unwrap_or_else(|| {
                // Queue looks empty: definitive sweep for the removal, then
                // file the new item on the ordinary insert path.
                let removed = self.sweep();
                self.push_with(tid, |h| h.push(pri, item.take().expect("item filed once")));
                removed
            })
        });
        obs::record_batch_op(&*self.recorder, 1);
        if R::ENABLED && out.is_none() {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // Batch items are en-bloc pops from whole heaps (plus redraws): every
    // inversion inside one batch is this queue's own two-choice
    // relaxation, which is precisely what an online rank-error sampler
    // should see.
    fn ordered_batch_drain(&self) -> bool {
        true
    }

    fn is_empty(&self) -> bool {
        self.heaps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Consistency;
    use std::collections::BTreeSet;

    fn queue<T: Send>(num_priorities: usize, max_threads: usize) -> MultiQueuePq<T> {
        let (factor, seed, rec) = (DEFAULT_MQ_FACTOR, DEFAULT_MQ_SEED, Arc::new(NoopRecorder));
        MultiQueuePq::with_config(num_priorities, max_threads, factor, seed, rec)
    }

    #[test]
    fn conserves_elements_single_thread() {
        let q = queue(32, 1);
        assert!(q.is_empty());
        for i in 0..100usize {
            q.insert(0, (i * 7) % 32, i);
        }
        assert!(!q.is_empty());
        let mut got = BTreeSet::new();
        while let Some((pri, item)) = q.delete_min(0) {
            assert_eq!(pri, (item * 7) % 32);
            assert!(got.insert(item), "item {item} returned twice");
        }
        assert_eq!(got.len(), 100, "every insert must drain");
        assert!(q.is_empty());
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn drain_is_near_sorted_with_bounded_rank_error() {
        // Sequentially, each delete-min returns the min of two sampled heap
        // tops: the result can skip the global minimum, but never by more
        // than the number of heaps' worth of "stuck" smaller items.
        let q = queue(64, 2);
        for i in 0..200usize {
            q.insert(i % 2, (i * 13) % 64, i);
        }
        let mut drained = Vec::new();
        while let Some((pri, _)) = q.delete_min(0) {
            drained.push(pri);
        }
        assert_eq!(drained.len(), 200);
        // Rank error of each pop: smaller items still in the queue. Far
        // from sorted-strict, but two-choice keeps it well away from the
        // worst case (a fully random drain of this sequence lands near 60).
        let mut worst = 0usize;
        for (i, &p) in drained.iter().enumerate() {
            let rank = drained[i + 1..].iter().filter(|&&x| x < p).count();
            worst = worst.max(rank);
        }
        assert!(worst > 0, "a 4-heap sampled drain is not exactly sorted");
        assert!(worst < 40, "rank error {worst} out of line for 4 queues");
    }

    #[test]
    fn concurrent_conservation() {
        use std::sync::Arc as StdArc;
        const T: usize = 4;
        const N: usize = 500;
        let q = StdArc::new(queue(16, T));
        let handles: Vec<_> = (0..T)
            .map(|tid| {
                let q = StdArc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..N {
                        q.insert(tid, (tid + i) % 16, tid * N + i);
                        if i % 2 == 1 {
                            if let Some((_, item)) = q.delete_min(tid) {
                                got.push(item);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut seen = BTreeSet::new();
        for h in handles {
            for item in h.join().unwrap() {
                assert!(seen.insert(item), "item {item} returned twice");
            }
        }
        while let Some((_, item)) = q.delete_min(0) {
            assert!(seen.insert(item), "item {item} returned twice");
        }
        assert_eq!(seen.len(), T * N, "inserted and drained counts must match");
        assert!(q.is_empty());
    }

    #[test]
    fn batch_ops_conserve_elements() {
        let q = queue(32, 1);
        let batch: Vec<(usize, usize)> = (0..100).map(|i| ((i * 7) % 32, i)).collect();
        q.insert_batch(0, batch).unwrap();
        let swapped = q.replace_min(0, 31, 1000).expect("queue is non-empty");
        let mut got = BTreeSet::new();
        got.insert(swapped.1);
        let mut out = Vec::new();
        loop {
            out.clear();
            let n = q.delete_min_batch(0, 8, &mut out);
            for (_, item) in out.drain(..) {
                assert!(got.insert(item), "item {item} returned twice");
            }
            if n == 0 {
                break;
            }
        }
        assert_eq!(got.len(), 101, "100 batched + 1 via replace_min");
        assert!(q.is_empty());
    }

    #[test]
    fn replace_min_on_empty_queue_still_files() {
        let q = queue(8, 1);
        assert_eq!(q.replace_min(0, 3, "x"), None);
        assert_eq!(q.delete_min(0), Some((3, "x")));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_insert_validates_without_filing() {
        let q = queue(4, 1);
        let err = q.insert_batch(0, vec![(0, 'a'), (9, 'x')]).unwrap_err();
        assert_eq!(err.failed_pri, 9);
        assert_eq!(err.unconsumed_len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn reports_relaxed_consistency() {
        let q: MultiQueuePq<()> = queue(4, 1);
        assert_eq!(q.algorithm(), Algorithm::MultiQueue);
        assert_eq!(q.consistency(), Consistency::Relaxed);
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

//! The one front end of the paper's four bounded-range queues.
//!
//! The paper builds LinearFunnels and FunnelTree by changing only the hot
//! spots of SimpleLinear and SimpleTree, so the four are two layouts over
//! two bins. A [`Layout`] decides where an item goes and how the smallest
//! is found — [`Linear`], one bin per priority scanned smallest-first
//! (paper Figure 2), or [`CounterTree`], a tree of counters over the bins
//! (Figure 3). A [`Bin`] holds one priority's items — `LockBin` or
//! `FunnelStack`. [`BinPq`] wraps a layout in what every queue does around
//! its structure (argument checks, the thread-id bound, the recorder), once
//! for all four; the layout × bin pair names the algorithm.

use std::marker::PhantomData;
use std::sync::Arc;

use funnelpq_sync::{FunnelStack, LockBin};

use crate::algorithm::Algorithm;
use crate::counter_tree::CounterTree;
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{check_batch, check_insert, for_each_run, BoundedPq, PqBatchError, PqError};

/// The items of one priority, in either layout.
pub trait Bin<T>: Send + Sync {
    /// The algorithm a [`Linear`] array of these bins is.
    const LINEAR: Algorithm;
    /// The algorithm a [`CounterTree`] over these bins is.
    const TREE: Algorithm;
    /// Files `item`.
    fn bin_insert(&self, tid: usize, item: T);
    /// Removes an item, or `None` when the bin is (or turns out) empty.
    fn bin_delete(&self, tid: usize) -> Option<T>;
    /// One-read emptiness test; may be stale.
    fn bin_is_empty(&self) -> bool;
    /// Files `items` in one bin episode.
    fn bin_insert_many(&self, tid: usize, items: impl Iterator<Item = T>);
    /// Removes up to `k` items in one bin episode; returns how many.
    fn bin_delete_many(&self, tid: usize, k: usize, take: impl FnMut(T)) -> usize;
    /// Items held, exact at quiescence (for `CounterTree::validate`).
    fn bin_len(&self) -> usize;
}

impl<T: Send> Bin<T> for LockBin<T> {
    const LINEAR: Algorithm = Algorithm::SimpleLinear;
    const TREE: Algorithm = Algorithm::SimpleTree;
    fn bin_insert(&self, _tid: usize, item: T) {
        self.insert(item);
    }
    fn bin_delete(&self, _tid: usize) -> Option<T> {
        self.delete()
    }
    fn bin_is_empty(&self) -> bool {
        self.is_empty()
    }
    fn bin_insert_many(&self, _tid: usize, items: impl Iterator<Item = T>) {
        self.insert_many(items);
    }
    fn bin_delete_many(&self, _tid: usize, k: usize, take: impl FnMut(T)) -> usize {
        self.delete_many(k, take)
    }
    fn bin_len(&self) -> usize {
        self.len()
    }
}

impl<T: Send> Bin<T> for FunnelStack<T> {
    const LINEAR: Algorithm = Algorithm::LinearFunnels;
    const TREE: Algorithm = Algorithm::FunnelTree;
    fn bin_insert(&self, tid: usize, item: T) {
        self.push(tid, item);
    }
    fn bin_delete(&self, tid: usize) -> Option<T> {
        self.pop(tid)
    }
    fn bin_is_empty(&self) -> bool {
        self.is_empty()
    }
    fn bin_insert_many(&self, tid: usize, items: impl Iterator<Item = T>) {
        self.push_many(tid, items);
    }
    fn bin_delete_many(&self, tid: usize, k: usize, take: impl FnMut(T)) -> usize {
        self.pop_many(tid, k, take)
    }
    fn bin_len(&self) -> usize {
        self.len()
    }
}

/// Where a bounded-range queue keeps its items and how it finds the
/// smallest. Callers have checked `tid` and `pri`; a batch arrives checked
/// and non-empty, `k` non-zero.
pub trait Layout<T>: Send + Sync {
    /// The paper's algorithm this layout over its bins is.
    const ALGORITHM: Algorithm;
    /// Priorities `0..num_priorities()`.
    fn num_priorities(&self) -> usize;
    /// Files `item` under `pri`.
    fn insert(&self, tid: usize, pri: usize, item: T);
    /// Removes an item of the smallest priority it can reach.
    fn delete_min(&self, tid: usize) -> Option<(usize, T)>;
    /// Files every entry of `batch`.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>);
    /// Appends up to `k` smallest items to `out`; returns how many.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize;
    /// Every bin empty (exact only at quiescence).
    fn is_empty(&self) -> bool;
}

/// One bin per priority; `delete_min` scans the bins smallest-first,
/// attempting removal from each non-empty bin it meets. Emptiness is one
/// read per bin, so the scan is cheap; inserts touch only their own bin.
#[derive(Debug)]
pub struct Linear<B> {
    bins: Vec<B>,
}

impl<B> Linear<B> {
    /// One `make_bin()` per priority.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` is zero.
    pub(crate) fn new(num_priorities: usize, make_bin: impl FnMut() -> B) -> Self {
        assert!(num_priorities > 0, "need at least one priority");
        Linear {
            bins: std::iter::repeat_with(make_bin)
                .take(num_priorities)
                .collect(),
        }
    }
}

impl<T: Send, B: Bin<T>> Layout<T> for Linear<B> {
    const ALGORITHM: Algorithm = B::LINEAR;

    fn num_priorities(&self) -> usize {
        self.bins.len()
    }

    #[inline]
    fn insert(&self, tid: usize, pri: usize, item: T) {
        self.bins[pri].bin_insert(tid, item);
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        for (pri, bin) in self.bins.iter().enumerate() {
            if !bin.bin_is_empty() {
                if let Some(item) = bin.bin_delete(tid) {
                    return Some((pri, item));
                }
            }
        }
        None
    }

    // One bin episode per run of equal priority instead of one per item:
    // for a funnel stack, the push tree a funnel would have combined,
    // arriving combined.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) {
        for_each_run(batch, |pri, run| {
            self.bins[pri].bin_insert_many(tid, run.map(|(_, item)| item))
        });
    }

    // One scan, taking from each non-empty bin everything the batch still
    // wants in one episode. An insert that lands behind the scan is not
    // seen, as it is not by a single already past that bin.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        let mut taken = 0;
        for (pri, bin) in self.bins.iter().enumerate() {
            taken += bin.bin_delete_many(tid, k - taken, |item| out.push((pri, item)));
            if taken == k {
                break;
            }
        }
        taken
    }

    fn is_empty(&self) -> bool {
        self.bins.iter().all(|b| b.bin_is_empty())
    }
}

/// The one front end of the paper's four bounded-range queues: a layout of
/// bins (an array scanned smallest-first, or a tree of counters) behind the
/// crate's argument checks, thread-id bound and metrics recorder.
///
/// Name it through its four instantiations, [`crate::SimpleLinearPq`],
/// [`crate::LinearFunnelsPq`], [`crate::SimpleTreePq`] and
/// [`crate::FunnelTreePq`], which also carry the constructors. Everything
/// is monomorphised: each runs only its own layout's and bins' code, and
/// [`BoundedPq::algorithm`] is fixed by the layout × bin pair.
#[derive(Debug)]
pub struct BinPq<T, L, R = NoopRecorder> {
    layout: L,
    max_threads: usize,
    recorder: Arc<R>,
    _items: PhantomData<fn() -> T>,
}

impl<T, L, R> BinPq<T, L, R> {
    /// Wraps a built layout.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is zero.
    pub(crate) fn from_layout(layout: L, max_threads: usize, recorder: Arc<R>) -> Self {
        assert!(max_threads > 0, "need at least one thread");
        BinPq {
            layout,
            max_threads,
            recorder,
            _items: PhantomData,
        }
    }
}

impl<T: Send, B: Bin<T>, R> BinPq<T, CounterTree<T, B>, R> {
    /// Checks, at quiescence, that every counter of the tree equals the
    /// number of items in its left subtree's bins. For tests.
    ///
    /// # Panics
    ///
    /// Panics naming the first counter that does not.
    #[doc(hidden)]
    pub fn validate(&self) {
        self.layout.validate();
    }
}

impl<T: Send, L: Layout<T>, R: Recorder> BoundedPq<T> for BinPq<T, L, R> {
    fn algorithm(&self) -> Algorithm {
        L::ALGORITHM
    }

    fn num_priorities(&self) -> usize {
        self.layout.num_priorities()
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    // `#[inline]` lets the panicking `insert` wrapper's monomorphization
    // absorb this body, keeping the old direct-insert code shape (no extra
    // call or by-stack `Result` on the hot path).
    #[inline]
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        let item = check_insert(tid, pri, self.max_threads, self.num_priorities(), item)?;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.layout.insert(tid, pri, item)
        });
        Ok(())
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            self.layout.delete_min(tid)
        });
        if R::ENABLED && out.is_none() {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let batch = check_batch(tid, batch, self.max_threads, self.num_priorities())?;
        let n = batch.len() as u64;
        obs::timed(&*self.recorder, OpKind::InsertBatch, || {
            self.layout.insert_batch(tid, batch)
        });
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMinBatch, || {
            self.layout.delete_min_batch(tid, k, out)
        });
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }
}

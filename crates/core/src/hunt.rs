//! `HuntEtAl`: the concurrent heap of Hunt, Michael, Parthasarathy & Scott
//! (*An Efficient Algorithm for Concurrent Priority Queue Heaps*, IPL 1996).
//!
//! A single short-lived lock protects the heap size; every heap node has its
//! own lock and a *tag* (`Empty`, `Available`, or the inserting thread's
//! id). Insertions place their item at a bit-reversed bottom position and
//! bubble it up with hand-over-hand locking, chasing the item by tag if a
//! concurrent deletion swapped it elsewhere; deletions take the bit-reversed
//! last item, place it at the root, and sift down. Bit-reversing the
//! insertion positions scatters consecutive insertions across disjoint
//! root-to-leaf paths so their lock sets rarely overlap.

use std::sync::Arc;

use funnelpq_sync::{McsMutex, TtasMutex};

use crate::algorithm::Algorithm;
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{
    batch_reject, check_batch, check_insert, reject, BoundedPq, PqBatchError, PqError,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// No item stored.
    Empty,
    /// Item present and at rest.
    Available,
    /// Item present but still being inserted by thread `tid`.
    Owned(usize),
}

#[derive(Debug)]
struct Node<T> {
    tag: Tag,
    entry: Option<(usize, T)>,
}

impl<T> Node<T> {
    fn priority(&self) -> usize {
        self.entry.as_ref().expect("occupied node").0
    }
}

/// Position of the `s`-th item (1-based) in the bit-reversed filling order:
/// within each heap level, offsets are visited in bit-reversed order.
fn bit_reversed_position(s: usize) -> usize {
    debug_assert!(s >= 1);
    let level = (usize::BITS - 1 - s.leading_zeros()) as usize; // floor(log2 s)
    if level == 0 {
        return 1;
    }
    let offset = s - (1usize << level);
    let rev = offset.reverse_bits() >> (usize::BITS as usize - level);
    (1usize << level) + rev
}

/// The concurrent heap priority queue of Hunt et al.
///
/// Quiescently consistent (see [`crate::Algorithm::consistency`] for the
/// sift-down race that rules out linearizability); supports any priority
/// in the declared range; fixed capacity chosen at construction.
///
/// # Examples
///
/// ```
/// use funnelpq::{BoundedPq, HuntPq};
/// let q = HuntPq::with_capacity(16, 2, 64);
/// q.insert(0, 9, "z");
/// q.insert(1, 1, "a");
/// assert_eq!(q.delete_min(0), Some((1, "a")));
/// ```
pub struct HuntPq<T, R: Recorder = NoopRecorder> {
    /// Guards `size`; held only while reserving/releasing a position.
    size: McsMutex<usize>,
    /// Heap nodes, 1-based; `nodes[0]` unused.
    nodes: Vec<TtasMutex<Node<T>>>,
    capacity: usize,
    num_priorities: usize,
    max_threads: usize,
    recorder: Arc<R>,
}

impl<T: Send> HuntPq<T> {
    /// Creates a queue with a default capacity of 2¹⁶ items.
    pub fn new(num_priorities: usize, max_threads: usize) -> Self {
        Self::with_capacity(num_priorities, max_threads, 1 << 16)
    }

    /// Creates a queue holding at most `capacity` simultaneous items.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn with_capacity(num_priorities: usize, max_threads: usize, capacity: usize) -> Self {
        Self::with_recorder(
            num_priorities,
            max_threads,
            capacity,
            Arc::new(NoopRecorder),
        )
    }
}

impl<T: Send, R: Recorder> HuntPq<T, R> {
    /// Like [`HuntPq::with_capacity`], reporting metrics to `recorder` (the
    /// size lock's acquisitions flow into the recorder's substrate sink).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn with_recorder(
        num_priorities: usize,
        max_threads: usize,
        capacity: usize,
        recorder: Arc<R>,
    ) -> Self {
        assert!(num_priorities > 0, "need at least one priority");
        assert!(max_threads > 0, "need at least one thread");
        assert!(capacity > 0, "capacity must be positive");
        let nodes = (0..=capacity)
            .map(|_| {
                TtasMutex::new(Node {
                    tag: Tag::Empty,
                    entry: None,
                })
            })
            .collect();
        let sink = recorder.sink();
        HuntPq {
            size: McsMutex::with_sink(0, sink),
            nodes,
            capacity,
            num_priorities,
            max_threads,
            recorder,
        }
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for HuntPq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::HuntEtAl
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
            self.file(tid, pri, item)
        })
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            self.delete_min_inner()
        });
        if R::ENABLED && out.is_none() {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // Filed one item at a time, each bubbled before the next is placed: a
    // bubble waits for a parent another inserter has pending, so an
    // inserter must never leave a second item pending while it bubbles
    // one — with several pending each, two batch inserters can wait on
    // each other for ever.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut batch = check_batch(tid, batch, self.max_threads, self.num_priorities)?;
        // Ascending order: each bubble stops as soon as it meets an
        // earlier (smaller) item from the same batch.
        batch.sort_unstable_by_key(|&(pri, _)| pri);
        let submitted = batch.len();
        let leftover = obs::timed(&*self.recorder, OpKind::InsertBatch, || {
            let mut it = batch.into_iter();
            while let Some((pri, item)) = it.next() {
                if let Err(e) = self.file(tid, pri, item) {
                    return std::iter::once((pri, e.into_item())).chain(it).collect();
                }
            }
            Vec::new()
        });
        obs::record_batch_op(&*self.recorder, (submitted - leftover.len()) as u64);
        if leftover.is_empty() {
            Ok(())
        } else {
            // Capacity hit mid-batch: the first unfiled entry is the
            // failing one, the tail comes back unconsumed.
            Err(batch_reject(leftover, 0, |_, item| {
                PqError::CapacityExhausted { item }
            }))
        }
    }

    // One size-lock hold detaches up to `k` bit-reversed bottoms; the
    // detached items then settle against the root one result at a time.
    // Each result is exactly min(root, smallest detached item), so a
    // sequential batch returns the same items as `k` single deletes.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMinBatch, || {
            let mut saved: Vec<(usize, T)> = Vec::new();
            {
                let mut size = self.size.lock();
                let m = k.min(*size);
                saved.reserve(m);
                for _ in 0..m {
                    let bottom = bit_reversed_position(*size);
                    *size -= 1;
                    let mut bg = self.nodes[bottom].lock();
                    saved.push(bg.entry.take().expect("bottom node occupied"));
                    bg.tag = Tag::Empty;
                }
            }
            saved.sort_unstable_by_key(|e| e.0);
            let mut dq: std::collections::VecDeque<(usize, T)> = saved.into();
            let mut taken = 0;
            while !dq.is_empty() {
                let root = self.nodes[1].lock();
                let take_saved = match root.tag {
                    Tag::Empty => true,
                    _ => dq.front().expect("nonempty deque").0 <= root.priority(),
                };
                if take_saved {
                    // The smallest detached item beats the root: no heap
                    // structure needs touching at all.
                    drop(root);
                    out.push(dq.pop_front().expect("nonempty deque"));
                } else {
                    // The root is the minimum; refill it with the largest
                    // detached item and sift once.
                    let mut ig = root;
                    let min = ig.entry.take().expect("root occupied");
                    ig.entry = Some(dq.pop_back().expect("nonempty deque"));
                    ig.tag = Tag::Available;
                    self.sift_down(ig);
                    out.push(min);
                }
                taken += 1;
            }
            taken
        });
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    // Fused swap at the root when it is at rest: one node-lock episode, one
    // sift, and — unlike delete+insert — no size-lock traffic at all.
    fn replace_min(&self, tid: usize, pri: usize, item: T) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if let Err(e) = check_insert(tid, pri, self.max_threads, self.num_priorities, ()) {
            reject(&e);
        }
        let out = obs::timed(&*self.recorder, OpKind::ReplaceMin, || {
            let mut root = self.nodes[1].lock();
            if root.tag == Tag::Available {
                let min = root.entry.take().expect("root occupied");
                root.entry = Some((pri, item));
                self.sift_down(root);
                return Some(min);
            }
            drop(root);
            // Root empty or mid-insertion: fall back to the unfused pair.
            let removed = self.delete_min_inner();
            if let Err(e) = self.try_insert(tid, pri, item) {
                if let Some((p, x)) = removed {
                    let _ = self.try_insert(tid, p, x);
                }
                reject(&e);
            }
            removed
        });
        obs::record_batch_op(&*self.recorder, 1);
        if R::ENABLED && out.is_none() {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    fn is_empty(&self) -> bool {
        *self.size.lock() == 0
    }
}

impl<T: Send, R: Recorder> HuntPq<T, R> {
    /// Files `(pri, item)` for a checked `tid`; a full heap hands the item
    /// back in the error.
    #[inline]
    fn file(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        // Reserve a position under the size lock; lock the target node
        // before releasing it so a racing delete of the same position
        // blocks until our item is in place.
        let i;
        {
            let mut size = self.size.lock();
            if *size >= self.capacity {
                return Err(PqError::CapacityExhausted { item });
            }
            *size += 1;
            i = bit_reversed_position(*size);
            let mut node = self.nodes[i].lock();
            drop(size);
            node.entry = Some((pri, item));
            node.tag = Tag::Owned(tid);
        }
        self.bubble_up(tid, i);
        Ok(())
    }

    /// Bubbles the item a thread just placed (tagged `Owned(tid)`) at
    /// position `i` up to its resting place, with hand-over-hand
    /// (parent, child) locking.
    fn bubble_up(&self, tid: usize, mut i: usize) {
        let backoff = funnelpq_util::Backoff::new();
        while i > 1 {
            let parent = i / 2;
            let mut pg = self.nodes[parent].lock();
            let mut ig = self.nodes[i].lock();
            if pg.tag == Tag::Available && ig.tag == Tag::Owned(tid) {
                if ig.priority() < pg.priority() {
                    std::mem::swap(&mut pg.entry, &mut ig.entry);
                    ig.tag = Tag::Available;
                    pg.tag = Tag::Owned(tid);
                    i = parent;
                } else {
                    ig.tag = Tag::Available;
                    i = 0;
                }
            } else if pg.tag == Tag::Empty {
                // The whole path above was consumed; our item went with it.
                i = 0;
            } else if ig.tag != Tag::Owned(tid) {
                // A concurrent delete swapped our item upward; chase it.
                i = parent;
            } else {
                // The parent is mid-insertion by another thread: release
                // both locks and retry at the same position. Back off
                // before retrying — on an oversubscribed host a tight
                // relock loop starves the owner of the CPU it needs.
                drop(ig);
                drop(pg);
                backoff.snooze();
            }
        }
        if i == 1 {
            let mut root = self.nodes[1].lock();
            if root.tag == Tag::Owned(tid) {
                root.tag = Tag::Available;
            }
        }
    }

    /// Sifts the just-installed root entry down to its resting place,
    /// hand-over-hand; consumes (and finally releases) the root's guard.
    fn sift_down<'a>(&'a self, mut ig: funnelpq_sync::TtasGuard<'a, Node<T>>) {
        let mut i = 1;
        loop {
            let l = 2 * i;
            let r = 2 * i + 1;
            if l > self.capacity {
                break;
            }
            let lg = self.nodes[l].lock();
            let rg = if r <= self.capacity {
                Some(self.nodes[r].lock())
            } else {
                None
            };
            // Pick the smallest-priority occupied child, if any. (With
            // bit-reversed filling, a right child can be occupied while the
            // left is empty.)
            let use_right = match (&lg.tag, rg.as_ref().map(|g| g.tag)) {
                (Tag::Empty, Some(Tag::Empty)) | (Tag::Empty, None) => {
                    break;
                }
                (Tag::Empty, Some(_)) => true,
                (_, Some(Tag::Empty)) | (_, None) => false,
                (_, Some(_)) => rg.as_ref().unwrap().priority() < lg.priority(),
            };
            let mut cg = if use_right {
                drop(lg);
                rg.unwrap()
            } else {
                drop(rg);
                lg
            };
            let child = if use_right { r } else { l };
            if cg.priority() < ig.entry.as_ref().expect("node occupied").0 {
                std::mem::swap(&mut ig.entry, &mut cg.entry);
                std::mem::swap(&mut ig.tag, &mut cg.tag);
                drop(ig);
                ig = cg;
                i = child;
            } else {
                break;
            }
        }
        drop(ig);
    }

    fn delete_min_inner(&self) -> Option<(usize, T)> {
        // Detach the bit-reversed last item.
        let saved: (usize, T);
        {
            let mut size = self.size.lock();
            if *size == 0 {
                return None;
            }
            let bottom = bit_reversed_position(*size);
            *size -= 1;
            let mut bg = self.nodes[bottom].lock();
            drop(size);
            saved = bg.entry.take().expect("bottom node occupied");
            bg.tag = Tag::Empty;
        }
        // Replace the root item with the detached one and sift down.
        let mut ig = self.nodes[1].lock();
        if ig.tag == Tag::Empty {
            // The detached bottom *was* the root (or the root was consumed
            // by a concurrent delete that raced us): the saved item is the
            // answer.
            return Some(saved);
        }
        let min = ig.entry.take().expect("root occupied");
        ig.entry = Some(saved);
        ig.tag = Tag::Available;
        self.sift_down(ig);
        Some(min)
    }
}

impl<T: std::fmt::Debug, R: Recorder> std::fmt::Debug for HuntPq<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HuntPq")
            .field("capacity", &self.capacity)
            .field("num_priorities", &self.num_priorities)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reversed_positions_first_levels() {
        // Level 0: position 1. Level 1: 2, 3. Level 2: 4, 6, 5, 7.
        let got: Vec<usize> = (1..=7).map(bit_reversed_position).collect();
        assert_eq!(got[0], 1);
        assert_eq!(&got[1..3], &[2, 3]);
        // Level 2 must be a permutation of 4..8 in bit-reversed order.
        assert_eq!(&got[3..7], &[4, 6, 5, 7]);
    }

    #[test]
    fn bit_reversed_positions_are_a_permutation() {
        let mut got: Vec<usize> = (1..=64).map(bit_reversed_position).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_order() {
        let q = HuntPq::with_capacity(32, 1, 128);
        for p in [17usize, 3, 3, 25, 0, 9] {
            q.insert(0, p, p);
        }
        let got: Vec<usize> = (0..6).map(|_| q.delete_min(0).unwrap().0).collect();
        assert_eq!(got, vec![0, 3, 3, 9, 17, 25]);
        assert_eq!(q.delete_min(0), None);
        assert!(q.is_empty());
    }

    #[test]
    fn refill_after_drain() {
        let q = HuntPq::with_capacity(8, 1, 32);
        for round in 0..4 {
            for p in 0..8 {
                q.insert(0, (p + round) % 8, p);
            }
            let mut last = 0;
            for _ in 0..8 {
                let (p, _) = q.delete_min(0).unwrap();
                assert!(p >= last);
                last = p;
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn capacity_overflow_panics() {
        let q = HuntPq::with_capacity(4, 1, 2);
        q.insert(0, 0, ());
        q.insert(0, 1, ());
        q.insert(0, 2, ());
    }

    #[test]
    fn batch_ops_match_singles() {
        let q = HuntPq::with_capacity(32, 1, 128);
        q.insert_batch(
            0,
            vec![(17, 17u64), (3, 3), (3, 103), (25, 25), (0, 0), (9, 9)],
        )
        .unwrap();
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(0, 4, &mut out), 4);
        let pris: Vec<usize> = out.iter().map(|e| e.0).collect();
        assert_eq!(pris, vec![0, 3, 3, 9]);
        assert_eq!(q.replace_min(0, 2, 99), Some((17, 17)));
        assert_eq!(q.delete_min(0), Some((2, 99)));
        out.clear();
        assert_eq!(q.delete_min_batch(0, 10, &mut out), 1, "stops when dry");
        assert_eq!(out[0].0, 25);
        assert!(q.is_empty());
    }

    #[test]
    fn batch_insert_capacity_hit_returns_unconsumed_tail() {
        use crate::traits::PqBatchError;
        let q = HuntPq::with_capacity(8, 1, 3);
        q.insert(0, 7, 70u64);
        let err: PqBatchError<u64> = q
            .insert_batch(0, vec![(5, 50), (1, 10), (6, 60), (2, 20)])
            .unwrap_err();
        assert!(matches!(err.error, PqError::CapacityExhausted { .. }));
        // Two of four fit (capacity 3, one pre-filled); the batch files in
        // ascending order, so 1 and 2 got in, 5 and 6 come back.
        let mut back: Vec<usize> = err.into_unconsumed().iter().map(|e| e.0).collect();
        back.sort_unstable();
        assert_eq!(back, vec![5, 6]);
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(0, 8, &mut out), 3);
        assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![1, 2, 7]);
    }

    #[test]
    fn batch_delete_settles_detached_items_exactly() {
        // Regression shape: the batch detaches bottoms whose priorities are
        // *smaller* than what the root holds after the first settle; the
        // min(root, saved) rule must still return exact ascending results.
        let q = HuntPq::with_capacity(16, 1, 64);
        q.insert_batch(0, vec![(0, 0u64), (1, 1), (5, 5)]).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(0, 2, &mut out), 2);
        assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.delete_min(0), Some((5, 5)));
    }
}

//! `SkipList` (paper Figure 12): a bounded-range priority queue built on a
//! concurrent skip list of pre-allocated per-priority bins, with Johnson's
//! "delete bin" to reduce deletion contention.
//!
//! One skip-list node is pre-allocated per priority, each holding a bin. An
//! insert adds its item to the bin and, if the node is not currently
//! *threaded* into the list, splices it in with Pugh-style per-node locks.
//! Deletes drain the current *delete bin*; whoever finds it empty unlinks
//! the first (minimal) node and retargets the delete bin to it.
//!
//! Two small deviations from the paper's pseudocode, both documented in
//! DESIGN.md: `delete_min` prefers the list head when its priority beats
//! the delete bin's (one extra shared read), and advancing the delete bin
//! first re-threads a non-empty previous bin — together these restore exact
//! min-ordering at quiescence, which the bare pseudocode lacks.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use funnelpq_sync::{BinOrder, LockBin, TtasMutex};
use funnelpq_util::{CachePadded, XorShift64Star};

use crate::algorithm::Algorithm;
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::traits::{check_batch, check_insert, BoundedPq, PqBatchError, PqError};

const NONE: usize = usize::MAX;
const HEAD: usize = usize::MAX - 1;

const UNTHREADED: u8 = 0;
const THREADING: u8 = 1;
const THREADED: u8 = 2;
const UNLINKING: u8 = 3;

struct Node<T> {
    bin: LockBin<T>,
    height: usize,
    state: AtomicU8,
    /// Next node index per level; NONE terminates. Guarded by `lock` for
    /// writers and for readers that redirect around this node.
    forward: Vec<AtomicUsize>,
    /// Padded: a splice or unlink takes it, and inline it would share a
    /// line with `state` and the bin's size word, which every insert and
    /// delete reads.
    lock: CachePadded<TtasMutex<()>>,
}

/// Bounded-range concurrent skip-list priority queue.
///
/// Quiescently consistent. The paper uses it to represent the family of
/// search-structure-based queues; it performs well at low concurrency and
/// saturates once the delete bin and the head become hot.
///
/// # Examples
///
/// ```
/// use funnelpq::{BoundedPq, SkipListPq};
/// let q = SkipListPq::new(16, 2);
/// q.insert(0, 9, "z");
/// q.insert(1, 4, "a");
/// assert_eq!(q.delete_min(0), Some((4, "a")));
/// assert_eq!(q.delete_min(1), Some((9, "z")));
/// assert_eq!(q.delete_min(0), None);
/// ```
pub struct SkipListPq<T, R: Recorder = NoopRecorder> {
    nodes: Vec<Node<T>>,
    head_forward: Vec<AtomicUsize>,
    /// Both singleton locks padded, off the line of `del_bin`, which every
    /// delete reads.
    head_lock: CachePadded<TtasMutex<()>>,
    del_bin: AtomicUsize,
    del_lock: CachePadded<TtasMutex<()>>,
    max_threads: usize,
    max_level: usize,
    recorder: Arc<R>,
}

impl<T: Send> SkipListPq<T> {
    /// Creates a queue for priorities `0..num_priorities`. Tower heights
    /// are drawn once, deterministically, at construction.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn new(num_priorities: usize, max_threads: usize) -> Self {
        Self::with_seed(num_priorities, max_threads, 0x5EED_CAFE)
    }

    /// Like [`SkipListPq::new`] with an explicit height-RNG seed.
    pub fn with_seed(num_priorities: usize, max_threads: usize, seed: u64) -> Self {
        Self::with_recorder(num_priorities, max_threads, seed, Arc::new(NoopRecorder))
    }
}

impl<T: Send, R: Recorder> SkipListPq<T, R> {
    /// Like [`SkipListPq::with_seed`], reporting metrics to `recorder` (every
    /// bin lock's acquisitions flow into the recorder's substrate sink).
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn with_recorder(
        num_priorities: usize,
        max_threads: usize,
        seed: u64,
        recorder: Arc<R>,
    ) -> Self {
        assert!(num_priorities > 0, "need at least one priority");
        assert!(max_threads > 0, "need at least one thread");
        let max_level = (usize::BITS - num_priorities.leading_zeros()) as usize;
        let max_level = max_level.clamp(1, 20);
        let mut rng = XorShift64Star::new(seed);
        let sink = recorder.sink();
        let nodes = (0..num_priorities)
            .map(|_| {
                let mut h = 1;
                while h < max_level && rng.bool_with(0.5) {
                    h += 1;
                }
                Node {
                    bin: LockBin::with_order_and_sink(BinOrder::Lifo, sink.clone()),
                    height: h,
                    state: AtomicU8::new(UNTHREADED),
                    forward: (0..h).map(|_| AtomicUsize::new(NONE)).collect(),
                    lock: CachePadded::new(TtasMutex::new(())),
                }
            })
            .collect();
        SkipListPq {
            nodes,
            head_forward: (0..max_level).map(|_| AtomicUsize::new(NONE)).collect(),
            head_lock: CachePadded::new(TtasMutex::new(())),
            del_bin: AtomicUsize::new(NONE),
            del_lock: CachePadded::new(TtasMutex::new(())),
            max_threads,
            max_level,
            recorder,
        }
    }

    fn forward_of(&self, idx: usize, level: usize) -> usize {
        // ORDERING: Acquire, pairs with `set_forward`: following a link
        // into a node shows the `forward` its splicer set first.
        if idx == HEAD {
            self.head_forward[level].load(Ordering::Acquire)
        } else {
            self.nodes[idx].forward[level].load(Ordering::Acquire)
        }
    }

    fn set_forward(&self, idx: usize, level: usize, to: usize) {
        // ORDERING: Release, under `idx`'s lock; see `forward_of`.
        if idx == HEAD {
            self.head_forward[level].store(to, Ordering::Release);
        } else {
            self.nodes[idx].forward[level].store(to, Ordering::Release);
        }
    }

    /// Last node at `level` whose priority precedes `pri` (or HEAD).
    fn find_pred(&self, pri: usize, level: usize) -> usize {
        let mut x = HEAD;
        loop {
            let nxt = self.forward_of(x, level);
            if nxt != NONE && nxt < pri {
                x = nxt;
            } else {
                return x;
            }
        }
    }

    fn lock_of(&self, idx: usize) -> &TtasMutex<()> {
        if idx == HEAD {
            &self.head_lock
        } else {
            &self.nodes[idx].lock
        }
    }

    /// Splices node `pri` into every level of the list. Caller must hold
    /// the THREADING state.
    fn splice(&self, pri: usize) {
        let node = &self.nodes[pri];
        for level in 0..node.height {
            loop {
                let pred = self.find_pred(pri, level);
                let _g = self.lock_of(pred).lock();
                // Validate under the lock: pred must still be in the list
                // and still our immediate predecessor at this level.
                // ORDERING: Acquire, pairs with the Release stores of
                // `state`; `pred`'s lock keeps it linked while we write.
                if pred != HEAD && self.nodes[pred].state.load(Ordering::Acquire) != THREADED {
                    continue;
                }
                let succ = self.forward_of(pred, level);
                if succ != NONE && succ < pri {
                    continue; // someone spliced in between; re-search
                }
                debug_assert_ne!(succ, pri, "node already threaded");
                // ORDERING: Release; `set_forward` below publishes it too.
                node.forward[level].store(succ, Ordering::Release);
                self.set_forward(pred, level, pri);
                break;
            }
        }
    }

    /// Ensures node `pri` is threaded (idempotent; races resolved by the
    /// node's state machine).
    fn thread_node(&self, pri: usize) {
        let node = &self.nodes[pri];
        loop {
            // ORDERING: AcqRel; Acquire pairs with `unlink`'s UNTHREADED
            // (its detaching stores precede our splice), and a failed read
            // of THREADED sees the links as the load below does.
            match node.state.compare_exchange(
                UNTHREADED,
                THREADING,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.splice(pri);
                    // ORDERING: Release: whoever reads THREADED sees the
                    // links `splice` stored.
                    node.state.store(THREADED, Ordering::Release);
                    return;
                }
                Err(THREADED) => return,
                Err(_) => {
                    // THREADING or UNLINKING in progress: wait for a stable
                    // state and re-check (the in-flight transition makes or
                    // keeps our item reachable either way). Yield so the
                    // in-flight thread can finish even on a single core.
                    std::thread::yield_now();
                    // ORDERING: Acquire, pairs with the THREADED store.
                    if node.state.load(Ordering::Acquire) == THREADED {
                        return;
                    }
                }
            }
        }
    }

    /// Unlinks node `pri` from every level. Caller holds the delete lock.
    fn unlink(&self, pri: usize) {
        let node = &self.nodes[pri];
        // Wait out a concurrent splice, then claim the node.
        loop {
            // ORDERING: AcqRel; Acquire pairs with the splicer's THREADED,
            // so we detach the links it stored. A failure only retries.
            match node.state.compare_exchange(
                THREADED,
                UNLINKING,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(_) => std::thread::yield_now(),
            }
        }
        // Publish the delete bin *before* detaching from the list: a
        // concurrent delete must never observe both an empty list head and
        // a stale delete bin while this node's items are in flight.
        // ORDERING: Release, pairs with the deleters' Acquire loads;
        // writers are serialised by `del_lock`, which we hold.
        self.del_bin.store(pri, Ordering::Release);
        for level in (0..node.height).rev() {
            loop {
                let pred = self.find_pred(pri, level);
                let _pg = self.lock_of(pred).lock();
                let _ng = node.lock.lock();
                if self.forward_of(pred, level) == pri {
                    // ORDERING: Acquire, pairs with `set_forward`; our lock
                    // makes the value current.
                    let succ = node.forward[level].load(Ordering::Acquire);
                    self.set_forward(pred, level, succ);
                    break;
                }
                // Stale predecessor; retry.
            }
        }
        // ORDERING: Release, pairs with `thread_node`'s claiming CAS: our
        // detaching stores happen before a re-splice.
        node.state.store(UNTHREADED, Ordering::Release);
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for SkipListPq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SkipList
    }

    fn num_priorities(&self) -> usize {
        self.nodes.len()
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    // `#[inline]` lets the panicking `insert` wrapper's monomorphization
    // absorb this body, keeping the old direct-insert code shape (no extra
    // call or by-stack `Result` on the hot path).
    #[inline]
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        let item = check_insert(tid, pri, self.max_threads, self.nodes.len(), item)?;
        obs::timed(&*self.recorder, OpKind::Insert, || {
            // Bin first (paper order): once the item is in the bin, either
            // the node is/becomes threaded or a delete-bin drain can reach
            // it.
            self.nodes[pri].bin.insert(item);
            // ORDERING: Acquire, pairs with the THREADED store. Nothing
            // orders it after the bin's `size` store, so it and an
            // unlinker's UNTHREADED may miss each other; `del_bin` still
            // reaches the item, and the next advance reads the bin under
            // its lock before it moves `del_bin` off it.
            if self.nodes[pri].state.load(Ordering::Acquire) != THREADED {
                self.thread_node(pri);
            }
        });
        Ok(())
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

    // Sorting groups equal priorities into runs, so each run pays one bin
    // episode and one threaded-state check (and at most one splice) instead
    // of one of each per item.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut batch = check_batch(tid, batch, self.max_threads, self.nodes.len())?;
        batch.sort_unstable_by_key(|&(pri, _)| pri);
        let n = batch.len() as u64;
        obs::timed(&*self.recorder, OpKind::InsertBatch, || {
            let mut it = batch.into_iter().peekable();
            while let Some((pri, item)) = it.next() {
                // Bin first (paper order), for the whole equal-priority run.
                let run = std::iter::from_fn(|| it.next_if(|e| e.0 == pri).map(|e| e.1));
                self.nodes[pri]
                    .bin
                    .insert_many(std::iter::once(item).chain(run));
                // ORDERING: as in `try_insert`.
                if self.nodes[pri].state.load(Ordering::Acquire) != THREADED {
                    self.thread_node(pri);
                }
            }
        });
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    // Bin-aware drain: once a minimal bin is chosen it gives up to `k -
    // taken` items in one bin episode (a short take means it ran dry and
    // the drain re-routes), so a batch pays the delete-bin routing (and
    // any unlink) once per *bin*, not once per item.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMinBatch, || {
            let mut taken = 0;
            while taken < k {
                // ORDERING: as in `delete_min_inner`.
                let db = self.del_bin.load(Ordering::Acquire);
                let first = self.head_forward[0].load(Ordering::Acquire);
                let db_ok = db != NONE && !self.nodes[db].bin.is_empty();
                let drain = |want: usize, out: &mut Vec<(usize, T)>| {
                    self.nodes[db]
                        .bin
                        .delete_many(want, |item| out.push((db, item)))
                };
                if db_ok && (first == NONE || db <= first) {
                    taken += drain(k - taken, out);
                    continue;
                }
                if first == NONE {
                    // List empty: drain delete-bin stragglers, then report
                    // however much we got.
                    let n = if db != NONE { drain(k - taken, out) } else { 0 };
                    if n == 0 {
                        break;
                    }
                    taken += n;
                    continue;
                }
                self.advance_delete_bin();
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
        self.nodes.iter().all(|n| n.bin.is_empty())
    }
}

impl<T: Send, R: Recorder> SkipListPq<T, R> {
    fn delete_min_inner(&self) -> Option<(usize, T)> {
        loop {
            // ORDERING: Acquire twice, pairing with `unlink`'s `del_bin`
            // and `set_forward`'s head link. Not a snapshot: `unlink` moves
            // `del_bin` first, so this order can pair a stale `del_bin`
            // with a fresh head (ROADMAP item 2); read the other way round
            // the head would carry its `del_bin` with it.
            let db = self.del_bin.load(Ordering::Acquire);
            let first = self.head_forward[0].load(Ordering::Acquire);
            let db_ok = db != NONE && !self.nodes[db].bin.is_empty();
            if db_ok && (first == NONE || db <= first) {
                if let Some(item) = self.nodes[db].bin.delete() {
                    return Some((db, item));
                }
                continue; // raced away; re-evaluate
            }
            if first == NONE {
                // List empty: one last look at the delete bin for
                // stragglers, then report empty.
                if db != NONE {
                    if let Some(item) = self.nodes[db].bin.delete() {
                        return Some((db, item));
                    }
                }
                return None;
            }
            self.advance_delete_bin();
        }
    }

    /// Moves the delete bin to the list's first node, or yields to the
    /// deleter already doing so; the caller re-reads and retries either way.
    ///
    /// A previous delete bin that still holds items (late inserts) and is
    /// not THREADED is threaded first, under the delete lock, and the move
    /// left to the retry: until its splice has linked it, its items are
    /// reachable only through `del_bin`, so retargeting `del_bin` before
    /// would hide them from every deleter in between. That holds for a node
    /// an insert is still splicing (THREADING) as much as for an UNTHREADED
    /// one; `thread_node` splices the one and waits out the other.
    fn advance_delete_bin(&self) {
        let Some(_g) = self.del_lock.try_lock() else {
            std::thread::yield_now();
            return;
        };
        // ORDERING: Acquire twice, as in `delete_min_inner`; `del_lock`
        // makes `del_bin` current (the head may still gain a splice).
        let first = self.head_forward[0].load(Ordering::Acquire);
        if first == NONE {
            return;
        }
        let old_db = self.del_bin.load(Ordering::Acquire);
        // The bin is read under its lock: an insert's `state` load is not
        // ordered after its bin store, so one that read THREADED just before
        // this node was unlinked into `del_bin` may still have its item in
        // flight to a lock-free read. Through the lock either its hold came
        // first (the item shows) or it comes after, and then its `state`
        // load sees the UNTHREADED of that unlink and it threads the node.
        if old_db != NONE
            && old_db != first
            && !self.nodes[old_db].bin.is_empty_locked()
            // ORDERING: Acquire; `thread_node`'s CAS decides the race.
            && self.nodes[old_db].state.load(Ordering::Acquire) != THREADED
        {
            self.thread_node(old_db);
        } else {
            self.unlink(first);
        }
    }
}

impl<T, R: Recorder> std::fmt::Debug for SkipListPq<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipListPq")
            .field("num_priorities", &self.nodes.len())
            .field("max_level", &self.max_level)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_order() {
        let q = SkipListPq::new(16, 1);
        for p in [9usize, 2, 11, 2, 15, 0] {
            q.insert(0, p, p);
        }
        let got: Vec<usize> = (0..6).map(|_| q.delete_min(0).unwrap().0).collect();
        assert_eq!(got, vec![0, 2, 2, 9, 11, 15]);
        assert_eq!(q.delete_min(0), None);
        assert!(q.is_empty());
    }

    #[test]
    fn smaller_insert_after_delete_bin_is_preferred() {
        // The anomaly case the delete-bin refinement fixes.
        let q = SkipListPq::new(16, 1);
        q.insert(0, 5, 51);
        q.insert(0, 5, 52);
        assert_eq!(q.delete_min(0).unwrap().0, 5); // bin 5 becomes del_bin, 1 item left
        q.insert(0, 3, 30);
        assert_eq!(q.delete_min(0).unwrap().0, 3, "3 beats the delete bin's 5");
        assert_eq!(q.delete_min(0).unwrap().0, 5, "straggler recovered");
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn rethreading_unlinked_priority_works() {
        let q = SkipListPq::new(8, 1);
        for round in 0..5 {
            q.insert(0, 4, round);
            assert_eq!(q.delete_min(0).map(|e| e.0), Some(4));
            assert_eq!(q.delete_min(0), None);
        }
    }

    #[test]
    fn batch_ops_preserve_order() {
        let q = SkipListPq::new(16, 1);
        q.insert_batch(
            0,
            vec![(9, 90), (2, 20), (11, 110), (2, 21), (15, 150), (0, 1)],
        )
        .unwrap();
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(0, 4, &mut out), 4);
        assert_eq!(
            out.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![0, 2, 2, 9]
        );
        out.clear();
        assert_eq!(q.delete_min_batch(0, 10, &mut out), 2, "stops when dry");
        assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![11, 15]);
        assert!(q.is_empty());
        out.clear();
        assert_eq!(q.delete_min_batch(0, 3, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn batch_drain_recovers_delete_bin_stragglers() {
        // Same anomaly shape as the singles test, through the batch path.
        let q = SkipListPq::new(16, 1);
        q.insert_batch(0, vec![(5, 51), (5, 52)]).unwrap();
        assert_eq!(q.delete_min(0).unwrap().0, 5); // bin 5 becomes del_bin
        q.insert(0, 3, 30);
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(0, 8, &mut out), 2);
        assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn full_range_drain() {
        let q = SkipListPq::new(64, 1);
        for p in (0..64).rev() {
            q.insert(0, p, p);
        }
        for p in 0..64 {
            assert_eq!(q.delete_min(0), Some((p, p)));
        }
        assert_eq!(q.delete_min(0), None);
    }
}

//! The paper's "bin" (Figure 1): an unordered pool of elements guarded by a
//! lock, whose emptiness can be tested with a single read.
//!
//! The paper guards its bins with MCS locks, and the simulated twin keeps
//! them. Natively the lock is a padded [`TtasMutex`]: a bin's sections are
//! a few dozen nanoseconds, and on a host with a handful of cores the MCS
//! FIFO hand-off costs more than the section it protects.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use funnelpq_util::CachePadded;

use crate::probe::SinkRef;
use crate::ttas::TtasMutex;

/// Removal order within a bin holding equal-priority items.
///
/// The paper's funnel bins are stacks (LIFO), which enables elimination but
/// "can cause unfairness (and even starvation) among items of equal
/// priority"; it notes FIFO bins as the fair alternative. Lock-based bins
/// support both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BinOrder {
    /// Last in, first out (the paper's default).
    #[default]
    Lifo,
    /// First in, first out — fair among equal priorities.
    Fifo,
}

/// An unordered pool of `T` supporting insert, delete-of-unspecified-element
/// and a lock-free emptiness test.
///
/// `is_empty` reads one shared word without taking the lock — the property
/// the paper's `delete-min` scan depends on ("testing for emptiness is much
/// faster than actually trying to remove an element").
///
/// # Examples
///
/// ```
/// use funnelpq_sync::LockBin;
/// let bin = LockBin::new();
/// assert!(bin.is_empty());
/// bin.insert('x');
/// assert_eq!(bin.len(), 1);
/// assert_eq!(bin.delete(), Some('x'));
/// assert_eq!(bin.delete(), None);
/// ```
#[derive(Debug)]
pub struct LockBin<T> {
    /// Padded as a whole lock: spinners on the flag stay off the line of
    /// `size`, which every emptiness scan reads.
    items: CachePadded<TtasMutex<VecDeque<T>>>,
    /// `items.len()` as of the last critical section, for the lock-free
    /// emptiness test.
    // ORDERING: every store is Release and made while holding the lock
    // (every section runs through `locked`), every load Acquire: a
    // scan that reads a non-zero size was preceded by the section that
    // filed the item. The word is advisory — what a reader does next is
    // take the lock, which is what orders it with the pool itself.
    size: AtomicUsize,
    order: BinOrder,
    /// Where acquisitions are reported ([`TtasMutex::lock_noting`]).
    sink: Option<SinkRef>,
}

impl<T> LockBin<T> {
    /// Creates an empty LIFO bin.
    pub fn new() -> Self {
        Self::with_order(BinOrder::Lifo)
    }

    /// Creates an empty bin with the given removal order.
    pub fn with_order(order: BinOrder) -> Self {
        Self::with_order_and_sink(order, None)
    }

    /// Creates an empty bin whose lock reports acquisitions
    /// ([`crate::probe::CounterEvent::LockAcquire`]) to `sink`.
    pub fn with_order_and_sink(order: BinOrder, sink: Option<SinkRef>) -> Self {
        LockBin {
            items: CachePadded::new(TtasMutex::new(VecDeque::new())),
            size: AtomicUsize::new(0),
            order,
            sink,
        }
    }

    /// Runs `f` on the pool under the lock, then publishes its length.
    #[inline]
    fn locked<R>(&self, f: impl FnOnce(&mut VecDeque<T>) -> R) -> R {
        self.items.lock_noting(self.sink.as_ref(), |g| {
            let out = f(g);
            // ORDERING: Release under the lock; see `size`.
            self.size.store(g.len(), Ordering::Release);
            out
        })
    }

    /// Adds an element to the bin.
    pub fn insert(&self, item: T) {
        self.locked(|g| g.push_back(item))
    }

    /// Removes and returns an element (per the bin's [`BinOrder`]), or
    /// `None` if the bin is empty.
    pub fn delete(&self) -> Option<T> {
        self.locked(|g| match self.order {
            BinOrder::Lifo => g.pop_back(),
            BinOrder::Fifo => g.pop_front(),
        })
    }

    /// Adds every element of `items`, in iteration order, in one critical
    /// section: what `insert` called on each in turn leaves behind, for one
    /// lock hold and one `size` store.
    pub fn insert_many(&self, items: impl IntoIterator<Item = T>) {
        self.locked(|g| g.extend(items))
    }

    /// Removes up to `k` elements in one critical section, handing each to
    /// `take` in the order `k` calls of `delete` would have returned them;
    /// returns how many there were. A bin that reads empty is left alone,
    /// lock included.
    pub fn delete_many(&self, k: usize, take: impl FnMut(T)) -> usize {
        if k == 0 || self.is_empty() {
            return 0;
        }
        self.locked(|g| {
            let n = k.min(g.len());
            match self.order {
                BinOrder::Lifo => {
                    let keep = g.len() - n;
                    g.drain(keep..).rev().for_each(take)
                }
                BinOrder::Fifo => g.drain(..n).for_each(take),
            }
            n
        })
    }

    /// Lock-free emptiness test (a single shared read). May be stale by the
    /// time the caller acts on it, exactly like the paper's `bin-empty`.
    pub fn is_empty(&self) -> bool {
        // ORDERING: Acquire; see `size`.
        self.size.load(Ordering::Acquire) == 0
    }

    /// Lock-free size snapshot.
    pub fn len(&self) -> usize {
        // ORDERING: Acquire; see `size`.
        self.size.load(Ordering::Acquire)
    }

    /// Drains all elements (used when tearing a queue down).
    pub fn drain(&self) -> Vec<T> {
        self.locked(|g| std::mem::take(g).into_iter().collect())
    }
}

impl<T> Default for LockBin<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn insert_delete_lifo() {
        let b = LockBin::new();
        b.insert(1);
        b.insert(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.delete(), Some(2));
        assert_eq!(b.delete(), Some(1));
        assert_eq!(b.delete(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn insert_delete_fifo() {
        let b = LockBin::with_order(BinOrder::Fifo);
        b.insert(1);
        b.insert(2);
        b.insert(3);
        assert_eq!(b.delete(), Some(1));
        assert_eq!(b.delete(), Some(2));
        assert_eq!(b.delete(), Some(3));
        assert_eq!(b.delete(), None);
    }

    #[test]
    fn many_at_once_is_the_singles_in_order() {
        for order in [BinOrder::Lifo, BinOrder::Fifo] {
            let (many, singles) = (LockBin::with_order(order), LockBin::with_order(order));
            many.insert(0);
            singles.insert(0);
            many.insert_many(1..=8);
            (1..=8).for_each(|i| singles.insert(i));
            assert_eq!(many.len(), 9);
            let mut got = Vec::new();
            assert_eq!(many.delete_many(5, |x| got.push(x)), 5);
            assert_eq!(many.len(), 4);
            let want: Vec<i32> = (0..5).map(|_| singles.delete().unwrap()).collect();
            assert_eq!(got, want, "{order:?}");
            // Asking for more than there is takes what there is.
            assert_eq!(many.delete_many(usize::MAX, |x| got.push(x)), 4);
            assert!(many.is_empty());
            assert_eq!(many.delete_many(3, |_| unreachable!()), 0);
            got.sort_unstable();
            assert_eq!(got, (0..=8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_section_is_one_noted_acquisition() {
        use crate::ttas::tests::LockSink;
        let sink = Arc::new(LockSink::default());
        let b = LockBin::with_order_and_sink(BinOrder::Lifo, Some(sink.clone()));
        b.insert(1);
        b.insert_many([2, 3, 4]);
        assert_eq!(b.delete(), Some(4));
        assert_eq!(b.delete_many(2, drop), 2);
        assert_eq!(sink.acquires(), 4);
        // Reading the size takes no lock, nor does a batch that reads empty.
        assert_eq!(b.len(), 1);
        assert_eq!(b.delete(), Some(1));
        assert_eq!(b.delete_many(2, |_| unreachable!()), 0);
        assert_eq!(b.delete(), None);
        assert_eq!(b.drain(), Vec::<i32>::new());
        assert_eq!(sink.acquires(), 7);
    }

    #[test]
    fn drain_empties() {
        let b = LockBin::new();
        for i in 0..5 {
            b.insert(i);
        }
        let mut v = b.drain();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
        assert!(b.is_empty());
    }

    #[test]
    fn concurrent_no_loss_no_dup() {
        const T: usize = 8;
        const N: usize = 500;
        let b = Arc::new(LockBin::new());
        let got = Arc::new(McsMutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..T {
            let b = Arc::clone(&b);
            let got = Arc::clone(&got);
            handles.push(thread::spawn(move || {
                for i in 0..N {
                    b.insert(t * N + i);
                    if i % 2 == 0 {
                        if let Some(x) = b.delete() {
                            got.lock().push(x);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all = got.lock().clone();
        all.extend(b.drain());
        all.sort_unstable();
        let expect: Vec<usize> = (0..T * N).collect();
        assert_eq!(all, expect, "every insert observed exactly once");
    }

    use crate::mcs::McsMutex;
}

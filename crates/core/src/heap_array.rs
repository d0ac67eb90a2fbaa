//! The heap array under both relaxed queues: cache-padded sequential heaps
//! behind try-locks, each publishing its minimum for lockless sampling.
//!
//! [`crate::MultiQueuePq`] and [`crate::NumaPq`] are two front ends over
//! this one structure — the paper's "same layout, swap only the hot spot"
//! applied to the post-paper designs. Everything that is *MultiQueue* lives
//! here exactly once: the slot, the published top, the pair draw, the sticky
//! choice cache and the three episodes an operation is made of —
//!
//! * [`HeapArray::push`]: try-lock a drawn (or sticky) slot, redrawing on
//!   contention, and run a closure on its queue;
//! * [`HeapArray::pop`]: read two tops, try-lock the smaller, run a closure
//!   on its queue; a queue that comes up empty under a stale top is
//!   repaired and the pair redrawn;
//! * [`HeapArray::sweep`]: blocking-lock every slot of a range in order —
//!   the definitive fallback when a sampled pair looks empty.
//!
//! Each takes the slot range to draw from (the whole array, or one NUMA
//! node's partition), the caller's RNG and an optional [`Sticky`] cache, and
//! reports `LockAcquire` / `CasRetry` through one `note` hook. What a front
//! end adds is which range, what the closure does to the locked heap, and —
//! for `NumaPq` — where a winning slot's episode is *routed*
//! ([`HeapArray::pop_routed`]).
//!
//! A slot's queue is a [`BufferedHeap`]: a short sorted deletion buffer in
//! front of a binary heap (*Engineering MultiQueues*). It is an exact
//! sequential priority queue, so the draws, the stickiness and the rank
//! error are the array's alone; what the buffer changes is the cost of an
//! operation on the slot. Under load most inserts are short-lived items
//! below the slot's buffered ones: they cost a few shifted entries in one
//! small array instead of a sift up a deep heap whose path another core
//! wrote last.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use funnelpq_sync::TtasMutex;
use funnelpq_util::{AtomicRng, CachePadded};

use crate::heap::BinaryHeap;
use crate::obs::CounterEvent;

/// Published top of an empty heap. Compares greater than any real priority,
/// so the two-choice `min` needs no special casing.
pub(crate) const EMPTY_TOP: usize = usize::MAX;

/// Operations a thread re-uses one queue choice for before redrawing
/// (Williams, Sanders & Dementiev's stickiness). A constant, not a knob.
/// Swept with the buffered slots on a 2-vCPU host (`native_mixed`, three
/// runs each, EXPERIMENTS.md "Ledger rows: buffered heap-array slots"):
/// `mops.MultiQueue` read 7.2–7.8 at 1, 11.3–12.8 at 8 and 16.3–17.9 at
/// 64, against a drain rank-error mean in the native audit of about 5, 50
/// and — at 64, every run — past the audit's bound of 600 of the 800 items
/// held. A fresh draw every operation gives the buffer's gain back; 64
/// returns nearly arbitrary items.
const STICKINESS: u32 = 8;

/// Most entries a slot's deletion buffer holds. At stickiness 8, with no
/// rank-error or delay mean apart: 8 read `mops.MultiQueue` 10–12 % below
/// 16; 32 read it 4–6 % above (8 of 9 pairs) but `native_mixed`
/// `ops_per_s` level, `mops.NumaPq` 1.6 % and `setup_s` 2.5–4 % worse,
/// for twice the memory.
const BUFFER: usize = 16;

/// A slot's sequential priority queue: a sorted deletion buffer of at most
/// [`BUFFER`] entries in front of a binary heap.
///
/// Every buffered entry is at most every heap entry, and the buffer is
/// empty only when the heap is; so the buffer's front is the minimum, a pop
/// takes it, and the whole is one exact priority queue. An insert below
/// the buffer's largest entry goes into the buffer at its sorted place
/// (after its equals), the largest moving to the heap if the buffer
/// overflows. An insert at or above it goes to the heap — except that while
/// the heap is empty, a buffer with room takes it as its new largest entry.
/// A pop that empties the buffer refills it from the heap. Among equal
/// priorities the order differs from a bare heap's; no priority does.
#[derive(Debug)]
pub(crate) struct BufferedHeap<T> {
    /// Descending by priority: the front (a minimum) is the last entry,
    /// so a pop is `Vec::pop`.
    buf: Vec<(usize, T)>,
    heap: BinaryHeap<T>,
}

impl<T> BufferedHeap<T> {
    fn new() -> Self {
        BufferedHeap {
            buf: Vec::with_capacity(BUFFER),
            heap: BinaryHeap::new(),
        }
    }

    /// Number of stored entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.buf.len() + self.heap.len()
    }

    /// True when no entries are stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Smallest stored priority, if any.
    fn peek_priority(&self) -> Option<usize> {
        self.buf.last().map(|e| e.0)
    }

    /// Inserts an item under a priority.
    #[inline]
    pub(crate) fn push(&mut self, pri: usize, item: T) {
        match self.buf.first() {
            Some(&(largest, _)) if pri < largest => {
                // Below its equals, so it pops after them.
                let at = self.buf.partition_point(|e| e.0 > pri);
                if self.buf.len() == BUFFER {
                    // The largest leaves for the heap; the entries above
                    // `pri` move down into its place.
                    self.buf[..at].rotate_left(1);
                    let (pri, item) = std::mem::replace(&mut self.buf[at - 1], (pri, item));
                    self.heap.push(pri, item);
                } else {
                    self.buf.insert(at, (pri, item));
                }
            }
            _ if self.heap.is_empty() && self.buf.len() < BUFFER => {
                self.buf.insert(0, (pri, item));
            }
            _ => self.heap.push(pri, item),
        }
    }

    /// Removes and returns a smallest-priority entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(usize, T)> {
        let out = self.buf.pop()?;
        if self.buf.is_empty() {
            self.buf
                .extend(std::iter::from_fn(|| self.heap.pop()).take(BUFFER));
            self.buf.reverse();
        }
        Some(out)
    }

    /// Pop then push: returns a smallest entry held before `(pri, item)`
    /// was filed, or `None` when there was none (the new entry is still
    /// filed) — [`BinaryHeap::replace_min`]'s contract.
    pub(crate) fn replace_min(&mut self, pri: usize, item: T) -> Option<(usize, T)> {
        let out = self.pop();
        self.push(pri, item);
        out
    }
}

/// One sequential queue plus its published minimum. Padded by the array so
/// two threads working distinct slots never share a line — the entire point
/// of the algorithm.
#[derive(Debug)]
struct Slot<T> {
    /// Smallest priority in `heap` (its buffer's front), or [`EMPTY_TOP`];
    /// written only while
    /// holding the lock, read locklessly by the sampler.
    top: AtomicUsize,
    heap: TtasMutex<BufferedHeap<T>>,
}

impl<T> Slot<T> {
    /// Publishes `heap`'s minimum for the lockless sampler. `heap` is this
    /// slot's, borrowed out of its guard — so the lock is held.
    fn publish_top(&self, heap: &BufferedHeap<T>) {
        // ORDERING: Release, pairs with the samplers' Acquire loads: a
        // sampler that sees this top sees a value some holder really left
        // behind. Nothing *depends* on it — the heap is read under the lock
        // only, and a stale top costs one redraw (see `pop_routed`).
        self.top
            .store(heap.peek_priority().unwrap_or(EMPTY_TOP), Ordering::Release);
    }
}

/// A thread's cached queue choice: one slot for inserts, a pair for
/// deletes. Owned by one thread (the queues' thread-id contract) but stored
/// in a shared padded array, hence single-owner `Relaxed` atomics — the same
/// pattern as the funnel collision records.
#[derive(Debug, Default)]
pub(crate) struct Sticky {
    a: AtomicUsize,
    b: AtomicUsize,
    /// Operations the cached choice is still good for.
    left: AtomicU32,
}

impl Sticky {
    /// The cached choice, while it has operations left.
    fn cached(&self) -> Option<(usize, usize)> {
        // ORDERING: owner-only words; Relaxed, nobody else reads them.
        (self.left.load(Ordering::Relaxed) > 0).then(|| {
            (
                self.a.load(Ordering::Relaxed),
                self.b.load(Ordering::Relaxed),
            )
        })
    }

    /// Books one successful episode: a cached choice has one use fewer
    /// left, a fresh `choice` is kept for the next `STICKINESS - 1`.
    fn book(&self, was_cached: bool, choice: (usize, usize)) {
        // ORDERING: owner-only words; Relaxed, nobody else reads them.
        if was_cached {
            self.left
                .store(self.left.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
        } else {
            self.a.store(choice.0, Ordering::Relaxed);
            self.b.store(choice.1, Ordering::Relaxed);
            self.left.store(STICKINESS - 1, Ordering::Relaxed);
        }
    }

    /// Drops the cached choice: its slot was contended or came up empty.
    fn forget(&self) {
        // ORDERING: owner-only word; Relaxed, nobody else reads it.
        self.left.store(0, Ordering::Relaxed);
    }
}

/// Pops up to `k` items off `heap` into `out`, smallest first: a batched
/// delete's take from a locked winner. `None` when the heap gave nothing —
/// a stale top, which [`HeapArray::pop_routed`] answers with a redraw.
pub(crate) fn pop_many<T>(
    heap: &mut BufferedHeap<T>,
    k: usize,
    out: &mut Vec<(usize, T)>,
) -> Option<usize> {
    let before = out.len();
    out.extend(std::iter::from_fn(|| heap.pop()).take(k));
    let n = out.len() - before;
    (n > 0).then_some(n)
}

/// Where [`HeapArray::pop_routed`] takes the episode once two-choice has
/// named a winning slot.
pub(crate) enum Route<R> {
    /// Try-lock the winner here and now.
    Lock,
    /// The caller got its result another way (a delegated pop).
    Served(R),
    /// The winner's partition turned out empty; draw a new pair.
    Redraw,
}

/// The slot array. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct HeapArray<T> {
    slots: Box<[CachePadded<Slot<T>>]>,
}

impl<T> HeapArray<T> {
    /// `n` empty heaps.
    pub(crate) fn new(n: usize) -> Self {
        let slots = (0..n)
            .map(|_| {
                CachePadded::new(Slot {
                    top: AtomicUsize::new(EMPTY_TOP),
                    heap: TtasMutex::new(BufferedHeap::new()),
                })
            })
            .collect();
        HeapArray { slots }
    }

    /// Number of heaps.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Every slot: the range a queue that does not partition draws over.
    pub(crate) fn all(&self) -> Range<usize> {
        0..self.slots.len()
    }

    /// Whether every published top reads empty: racy, exact at quiescence.
    pub(crate) fn is_empty(&self) -> bool {
        // ORDERING: Acquire, pairs with `publish_top`.
        self.slots
            .iter()
            .all(|s| s.top.load(Ordering::Acquire) == EMPTY_TOP)
    }

    /// Two distinct slot indices in `range` (the same index twice when the
    /// range holds a single slot, which costs no draw).
    fn draw_pair(range: &Range<usize>, rng: &AtomicRng) -> (usize, usize) {
        let n = range.len() as u64;
        if n < 2 {
            return (range.start, range.start);
        }
        let a = rng.below(n) as usize;
        let mut b = rng.below(n - 1) as usize;
        if b >= a {
            b += 1;
        }
        (range.start + a, range.start + b)
    }

    /// Runs `f` on the heap of one slot of `range` under its try-lock: the
    /// sticky slot while `sticky` has one cached, else a fresh draw; a
    /// contended slot drops the cached choice and is redrawn. Returns the
    /// slot that took it. One successful call is one operation against the
    /// stickiness budget, however much `f` files.
    #[inline]
    pub(crate) fn push(
        &self,
        range: Range<usize>,
        rng: &AtomicRng,
        sticky: Option<&Sticky>,
        note: &impl Fn(CounterEvent),
        f: impl FnOnce(&mut BufferedHeap<T>),
    ) -> usize {
        let (q, was_cached, mut heap) = loop {
            let cached = sticky.and_then(Sticky::cached);
            let q = match cached {
                Some((q, _)) => q,
                None => range.start + rng.below(range.len() as u64) as usize,
            };
            match self.slots[q].heap.try_lock() {
                Some(heap) => break (q, cached.is_some(), heap),
                None => {
                    if let Some(s) = sticky {
                        s.forget();
                    }
                    note(CounterEvent::CasRetry);
                }
            }
        };
        f(&mut heap);
        self.slots[q].publish_top(&heap);
        if let Some(s) = sticky {
            s.book(was_cached, (q, q));
        }
        note(CounterEvent::LockAcquire);
        q
    }

    /// [`HeapArray::pop_routed`] with every winner locked on the spot.
    #[inline]
    pub(crate) fn pop<R>(
        &self,
        range: Range<usize>,
        rng: &AtomicRng,
        sticky: Option<&Sticky>,
        note: &impl Fn(CounterEvent),
        f: impl FnMut(usize, &mut BufferedHeap<T>) -> Option<R>,
    ) -> Option<R> {
        self.pop_routed(range, rng, sticky, note, |_| Route::Lock, f)
    }

    /// The two-choice episode: read the published tops of two slots of
    /// `range` (the sticky pair while `sticky` has one cached, else a fresh
    /// draw), pick the smaller, ask `route` what to do with it and — unless
    /// routed elsewhere — try-lock it and run `f(slot, heap)`. The new top
    /// is published once, after `f`.
    ///
    /// `f` returns what it took, or `None` if the heap gave nothing: a
    /// stale top over an empty heap, repaired by the publication above and
    /// answered with a redraw, like a contended lock. Either drops the
    /// sticky pair; a heap that did hold something keeps (or caches) it.
    ///
    /// Returns `None` only when a sampled pair *looked* empty — the caller
    /// follows with the [`HeapArray::sweep`] that makes the answer
    /// definitive.
    #[inline]
    pub(crate) fn pop_routed<R>(
        &self,
        range: Range<usize>,
        rng: &AtomicRng,
        sticky: Option<&Sticky>,
        note: &impl Fn(CounterEvent),
        mut route: impl FnMut(usize) -> Route<R>,
        mut f: impl FnMut(usize, &mut BufferedHeap<T>) -> Option<R>,
    ) -> Option<R> {
        loop {
            let cached = sticky.and_then(Sticky::cached);
            let (a, b) = cached.unwrap_or_else(|| Self::draw_pair(&range, rng));
            // ORDERING: Acquire, pairs with `publish_top`. The two loads
            // are not a snapshot and need not be: the winner is re-examined
            // under its lock.
            let top_a = self.slots[a].top.load(Ordering::Acquire);
            let top_b = self.slots[b].top.load(Ordering::Acquire);
            if top_a == EMPTY_TOP && top_b == EMPTY_TOP {
                if let Some(s) = sticky {
                    s.forget();
                }
                return None;
            }
            let q = if top_b < top_a { b } else { a };
            match route(q) {
                Route::Lock => {}
                Route::Served(out) => return Some(out),
                Route::Redraw => continue,
            }
            let slot = &*self.slots[q];
            let Some(mut heap) = slot.heap.try_lock() else {
                if let Some(s) = sticky {
                    s.forget();
                }
                note(CounterEvent::CasRetry);
                continue;
            };
            note(CounterEvent::LockAcquire);
            let stale = heap.is_empty();
            let out = f(q, &mut heap);
            slot.publish_top(&heap);
            if let Some(s) = sticky {
                if stale {
                    s.forget();
                } else {
                    s.book(cached.is_some(), (a, b));
                }
            }
            if out.is_some() {
                return out;
            }
        }
    }

    /// Slow path: blocking-lock every slot of `range` in order, run
    /// `f(slot, heap)` and republish the top, stopping at the first `Some`.
    /// Reached only after a sampled pair looked empty, so it is rare under
    /// load; its job is the quiescent-emptiness guarantee — with `f` a pop,
    /// `None` from here means every heap of the range was seen empty.
    #[inline]
    pub(crate) fn sweep<R>(
        &self,
        range: Range<usize>,
        note: &impl Fn(CounterEvent),
        mut f: impl FnMut(usize, &mut BufferedHeap<T>) -> Option<R>,
    ) -> Option<R> {
        for q in range {
            let slot = &*self.slots[q];
            let mut heap = slot.heap.lock();
            note(CounterEvent::LockAcquire);
            let out = f(q, &mut heap);
            slot.publish_top(&heap);
            if out.is_some() {
                return out;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(_: CounterEvent) {}

    /// The container's shape: a sorted buffer of at most [`BUFFER`]
    /// entries, none above any heap entry, empty only with the heap.
    fn assert_shape<T>(h: &BufferedHeap<T>, what: &str) {
        assert!(h.buf.len() <= BUFFER, "{what}: buffer over-full");
        assert!(
            h.buf
                .iter()
                .zip(h.buf.iter().skip(1))
                .all(|(a, b)| a.0 >= b.0),
            "{what}: buffer unsorted"
        );
        match (h.buf.first(), h.heap.peek_priority()) {
            (Some(&(last, _)), Some(root)) => {
                assert!(last <= root, "{what}: buffered {last} above heap {root}")
            }
            (None, Some(_)) => panic!("{what}: empty buffer over a non-empty heap"),
            _ => {}
        }
    }

    /// Random push / pop / `replace_min` / `pop_many` sequences on one
    /// slot against a sorted multiset, in fill and drain phases long enough
    /// to overflow the buffer and refill it many times. Every pop returns a
    /// minimum, and the length, the published top and the shape agree with
    /// the model after every operation.
    #[test]
    fn a_slot_is_an_exact_priority_queue() {
        use funnelpq_util::XorShift64Star;
        use std::collections::BTreeMap;

        /// How the shapes draw a priority: uniform over a range (a range of
        /// one is all-equal), or strictly descending.
        #[derive(Debug, Clone, Copy)]
        enum Pris {
            Below(u64),
            Descending,
        }
        for (shape, seed) in [
            (Pris::Below(1), 1),
            (Pris::Below(3), 2),
            (Pris::Below(32), 3),
            (Pris::Below(1 << 20), 4),
            (Pris::Descending, 5),
        ] {
            let heaps: HeapArray<usize> = HeapArray::new(1);
            let slot = &*heaps.slots[0];
            let mut rng = XorShift64Star::new(seed);
            let mut model: BTreeMap<usize, usize> = BTreeMap::new();
            let mut next_desc = usize::MAX / 2;
            let mut pri = |rng: &mut XorShift64Star| match shape {
                Pris::Below(n) => rng.below(n) as usize,
                Pris::Descending => {
                    next_desc -= 1;
                    next_desc
                }
            };
            // Removes the model's minimum and checks a popped entry
            // against it; items carry their own priority.
            let take = |model: &mut BTreeMap<usize, usize>, got: Option<(usize, usize)>| {
                let want = model.first_key_value().map(|(&p, _)| p);
                assert_eq!(got.map(|e| e.0), want, "{shape:?}: not a minimum");
                if let Some((p, item)) = got {
                    assert_eq!(p, item, "{shape:?}: entry torn");
                    let n = model.get_mut(&p).expect("a held priority");
                    *n -= 1;
                    if *n == 0 {
                        model.remove(&p);
                    }
                }
            };
            let mut out = Vec::new();
            for step in 0..6_000 {
                let filling = (step / 100) % 2 == 0;
                let mut h = slot.heap.lock();
                match (filling, rng.below(10)) {
                    (true, 0..=5) | (false, 0) => {
                        let p = pri(&mut rng);
                        h.push(p, p);
                        *model.entry(p).or_default() += 1;
                    }
                    (true, 6..=7) | (false, 1..=5) => take(&mut model, h.pop()),
                    (_, 8) => {
                        let p = pri(&mut rng);
                        take(&mut model, h.replace_min(p, p));
                        *model.entry(p).or_default() += 1;
                    }
                    _ => {
                        out.clear();
                        let k = 1 + rng.below(2 * BUFFER as u64 + 8) as usize;
                        let held = h.len();
                        let n = pop_many(&mut h, k, &mut out).unwrap_or(0);
                        assert_eq!(n, k.min(held), "{shape:?}: pop_many stopped short");
                        for &e in &out {
                            take(&mut model, Some(e));
                        }
                    }
                }
                slot.publish_top(&h);
                assert_shape(&h, &format!("{shape:?} step {step}"));
                assert_eq!(h.len(), model.values().sum::<usize>(), "{shape:?}: len");
                let top = model.first_key_value().map_or(EMPTY_TOP, |(&p, _)| p);
                assert_eq!(slot.top.load(Ordering::Relaxed), top, "{shape:?}: top");
            }
        }
    }

    #[test]
    fn the_buffer_takes_what_the_heap_cannot_hold_smaller() {
        let mut h = BufferedHeap::new();
        // Ascending into an empty heap: the buffer fills first.
        for p in 0..BUFFER + 2 {
            h.push(p, ());
        }
        assert_eq!((h.buf.len(), h.heap.len()), (BUFFER, 2));
        // At or above the buffer's largest: the heap.
        h.push(BUFFER - 1, ());
        assert_eq!((h.buf.len(), h.heap.len()), (BUFFER, 3));
        // Below it: the buffer, its largest overflowing to the heap.
        h.push(0, ());
        assert_eq!((h.buf.len(), h.heap.len()), (BUFFER, 4));
        assert_eq!(
            h.buf.iter().rev().map(|e| e.0).take(2).collect::<Vec<_>>(),
            [0, 0]
        );
        assert_shape(&h, "after overflow");
        // Draining the buffer refills it from the heap in one go.
        for _ in 0..BUFFER {
            h.pop();
        }
        assert_eq!((h.buf.len(), h.heap.len()), (4, 0));
        assert_shape(&h, "after refill");
    }

    #[test]
    fn two_choice_prefers_the_smaller_top() {
        // With exactly two slots and a fresh draw every operation, a
        // sequential pop always sees both tops and must return the true
        // minimum every time.
        let heaps: HeapArray<usize> = HeapArray::new(2);
        let rng = AtomicRng::new(7);
        for i in 0..64usize {
            heaps.push(0..2, &rng, None, &quiet, |h| h.push((i * 37) % 128, i));
        }
        assert!(!heaps.is_empty());
        let mut pris = Vec::new();
        while let Some((pri, _)) = heaps.pop(0..2, &rng, None, &quiet, |_, h| h.pop()) {
            pris.push(pri);
        }
        assert_eq!(pris.len(), 64);
        let mut sorted = pris.clone();
        sorted.sort_unstable();
        assert_eq!(pris, sorted, "two slots sampled exhaustively = strict");
        assert!(heaps.is_empty());
    }

    #[test]
    fn a_sticky_choice_lasts_eight_operations_and_dies_on_a_miss() {
        let s = Sticky::default();
        assert_eq!(s.cached(), None);
        s.book(false, (3, 5));
        for _ in 1..STICKINESS {
            assert_eq!(s.cached(), Some((3, 5)));
            s.book(true, (3, 5));
        }
        assert_eq!(s.cached(), None, "the budget is spent");
        s.book(false, (1, 2));
        assert_eq!(s.cached(), Some((1, 2)));
        s.forget();
        assert_eq!(s.cached(), None);

        // Through the array: eight pushes land in one slot, the ninth
        // redraws.
        let heaps: HeapArray<u8> = HeapArray::new(64);
        let rng = AtomicRng::new(11);
        let slots: Vec<usize> = (0..9)
            .map(|_| heaps.push(0..64, &rng, Some(&s), &quiet, |h| h.push(0, 0)))
            .collect();
        assert!(slots[..8].iter().all(|&q| q == slots[0]), "{slots:?}");
        assert_ne!(slots[8], slots[0], "{slots:?}");
    }

    #[test]
    fn a_range_confines_draws_and_the_sweep_is_definitive() {
        let heaps: HeapArray<char> = HeapArray::new(6);
        let rng = AtomicRng::new(3);
        let q = heaps.push(4..6, &rng, None, &quiet, |h| h.push(9, 'x'));
        assert!((4..6).contains(&q));
        // Another partition's pair looks empty, and its sweep agrees.
        assert_eq!(heaps.pop(0..4, &rng, None, &quiet, |_, h| h.pop()), None);
        assert_eq!(heaps.sweep(0..4, &quiet, |_, h| h.pop()), None);
        // The whole-array sweep finds it, reports its slot, repairs the top.
        let locks = std::cell::Cell::new(0);
        let count = |e: CounterEvent| {
            assert!(matches!(e, CounterEvent::LockAcquire));
            locks.set(locks.get() + 1);
        };
        let got = heaps.sweep(0..6, &count, |slot, h| h.pop().map(|e| (slot, e)));
        assert_eq!(got, Some((q, (9, 'x'))));
        assert_eq!(locks.get(), q + 1, "one blocking lock per slot visited");
        assert!(heaps.is_empty());
    }

    #[test]
    fn a_routed_winner_is_never_locked_here() {
        let heaps: HeapArray<u8> = HeapArray::new(2);
        let rng = AtomicRng::new(5);
        heaps.push(0..2, &rng, None, &quiet, |h| h.push(4, 40));
        let served = heaps.pop_routed(
            0..2,
            &rng,
            None,
            &|_| panic!("a routed episode takes no lock"),
            |_| Route::Served((0, 0)),
            |_, _| unreachable!("served elsewhere"),
        );
        assert_eq!(served, Some((0, 0)));
        // Redraw until the route relents; the item is still there.
        let mut redraws = 3;
        let got = heaps.pop_routed(
            0..2,
            &rng,
            None,
            &quiet,
            |_| {
                if redraws == 0 {
                    return Route::Lock;
                }
                redraws -= 1;
                Route::Redraw
            },
            |_, h| h.pop(),
        );
        assert_eq!(got, Some((4, 40)));
    }
}

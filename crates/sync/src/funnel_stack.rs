//! Combining-funnel stack: the paper's funnel-based "bin", the second use
//! of the combining-funnel walk ([`crate::walk`]).
//!
//! What flows through the combining trees are *chains of stack nodes*
//! rather than integer deltas:
//!
//! * two colliding pushes splice their chains — a push tree of size `k`
//!   reaches the central stack as one pre-linked chain installed with a
//!   single update;
//! * two colliding pops merge — a pop tree of size `k` detaches `k` nodes
//!   from the central stack in one critical section and distributes them
//!   back down the tree;
//! * a push tree colliding with a pop tree of the same size *eliminates*:
//!   the pushers' chain is handed straight to the poppers and the central
//!   stack is never touched.
//!
//! Emptiness is a single read of the head pointer, which is what makes the
//! `delete-min` scan of `LinearFunnels` cheap. Like the paper's structure,
//! the stack is quiescently consistent.

use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use funnelpq_util::CachePadded;

use crate::probe::{CounterEvent, SinkRef};
use crate::ttas::TtasMutex;
use crate::walk::{Carry, Funnel, FunnelConfig, FunnelObject};

pub(crate) struct Node<T> {
    item: Option<T>,
    next: *mut Node<T>,
}

/// Result word: low 3 bits tag, rest pointer.
const TAG_DONE: u64 = 1; // push completed
const TAG_CHAIN: u64 = 2; // pop completed; high bits = chain head (may be null)

/// Head and tail of the pre-linked chain a push tree carries (null for a
/// pop tree), kept in the tree root's record.
pub(crate) struct Chain<T> {
    head: AtomicPtr<Node<T>>,
    tail: AtomicPtr<Node<T>>,
}

impl<T> Default for Chain<T> {
    fn default() -> Self {
        Chain {
            head: AtomicPtr::new(ptr::null_mut()),
            tail: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

impl<T> Carry for Chain<T> {
    type Tree = (*mut Node<T>, *mut Node<T>);

    fn store(&self, (head, tail): Self::Tree) {
        // ORDERING: Relaxed (both); released by the `location` publish.
        self.head.store(head, Ordering::Relaxed);
        self.tail.store(tail, Ordering::Relaxed);
    }
}

/// A concurrent stack (pool) built from combining funnels with elimination.
///
/// Thread ids must be dense, below the config's `max_threads`, and not used
/// by two threads at once.
///
/// # Examples
///
/// ```
/// use funnelpq_sync::{FunnelConfig, FunnelStack};
/// let s: FunnelStack<u32> = FunnelStack::new(FunnelConfig::for_threads(4));
/// s.push(0, 7);
/// assert!(!s.is_empty());
/// assert_eq!(s.pop(0), Some(7));
/// assert_eq!(s.pop(0), None);
/// ```
pub struct FunnelStack<T> {
    /// Head of the central chain; read without the lock for emptiness.
    head: CachePadded<AtomicPtr<Node<T>>>,
    /// Serializes structural mutation of the central chain. Padded: the
    /// stack's one contended lock, kept off the lines of `head` and the
    /// funnel's read-mostly fields.
    central_lock: CachePadded<TtasMutex<()>>,
    funnel: Funnel<Chain<T>>,
}

// SAFETY: nodes carrying `T` move between threads through the funnel
// protocol; each node's item is consumed by exactly one thread.
unsafe impl<T: Send> Send for FunnelStack<T> {}
unsafe impl<T: Send> Sync for FunnelStack<T> {}

impl<T: Send> FunnelStack<T> {
    /// Creates an empty stack.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: FunnelConfig) -> Self {
        Self::with_sink(cfg, None)
    }

    /// Like [`FunnelStack::new`], reporting funnel micro-events to `sink`,
    /// batched per operation: collisions won, central-lock acquisitions,
    /// operations eliminated / combined-but-applied-centrally (counted once,
    /// by the tree root), and adaption steps.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_sink(cfg: FunnelConfig, sink: Option<SinkRef>) -> Self {
        FunnelStack {
            head: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            central_lock: CachePadded::new(TtasMutex::new(())),
            funnel: Funnel::new(cfg, sink),
        }
    }

    /// True when the central stack holds no items. A single shared read;
    /// may race with concurrent operations (quiescently consistent).
    pub fn is_empty(&self) -> bool {
        // ORDERING: Acquire; pairs with the Release `head` stores of the
        // central section.
        self.head.load(Ordering::Acquire).is_null()
    }

    /// Number of items in the central stack, counted by walking it under
    /// the central lock: O(n), for checks made at quiescence.
    pub fn len(&self) -> usize {
        let _g = self.central_lock.lock();
        let mut n = 0;
        // ORDERING: Relaxed under the lock, which orders it after the
        // previous holder's store.
        let mut p = self.head.load(Ordering::Relaxed);
        while !p.is_null() {
            n += 1;
            // SAFETY: nodes of the central chain are freed only after being
            // detached under the lock we hold.
            p = unsafe { (*p).next };
        }
        n
    }

    /// Pushes `item`, possibly combining with or eliminating against
    /// concurrent operations.
    pub fn push(&self, tid: usize, item: T) {
        let node = Box::into_raw(Box::new(Node {
            item: Some(item),
            next: ptr::null_mut(),
        }));
        let chain = self.funnel.operate(self, tid, 1, (node, node));
        debug_assert!(chain.is_null(), "push produced a pop result");
    }

    /// Pops an item, or returns `None` when the pool appears empty.
    pub fn pop(&self, tid: usize) -> Option<T> {
        let chain = self
            .funnel
            .operate(self, tid, -1, (ptr::null_mut(), ptr::null_mut()));
        if chain.is_null() {
            return None;
        }
        // SAFETY: the protocol hands each popped node to exactly one op,
        // and `distribute` cut ours off the rest of its tree's chain.
        let mut node = unsafe { Box::from_raw(chain) };
        node.item.take()
    }

    /// Pushes every element of `items`, in iteration order, as one tree
    /// that arrives already combined: the nodes are linked privately into
    /// the chain single pushes in that order would have built (last item on
    /// top) and installed in one central section. The layers are not
    /// entered and `location` stays frozen, as on the funnel walk's direct
    /// path.
    pub fn push_many(&self, tid: usize, items: impl IntoIterator<Item = T>) {
        self.funnel.check_tid(tid);
        let mut chead: *mut Node<T> = ptr::null_mut();
        let mut ctail = chead;
        for item in items {
            chead = Box::into_raw(Box::new(Node {
                item: Some(item),
                next: chead,
            }));
            if ctail.is_null() {
                ctail = chead;
            }
        }
        if !chead.is_null() {
            self.central_direct(1, (chead, ctail));
        }
    }

    /// Pops up to `k` items in one central section — a pop tree of size `k`
    /// arriving combined — handing each to `take` in the order `k` single
    /// pops would have returned them; returns how many there were. A stack
    /// that reads empty is left alone, lock included.
    pub fn pop_many(&self, tid: usize, k: usize, take: impl FnMut(T)) -> usize {
        self.funnel.check_tid(tid);
        if k == 0 || self.is_empty() {
            return 0;
        }
        let size = i64::try_from(k).unwrap_or(i64::MAX);
        let chain = self.central_direct(-size, (ptr::null_mut(), ptr::null_mut()));
        let first = (chain & !0b111) as *mut Node<T>;
        // SAFETY: the chain was detached under the lock, so every node of
        // it is ours alone.
        unsafe { consume(first, take) }
    }

    /// The central section, queued on, for a tree that arrived combined;
    /// reports its lock acquisition, as the walk does for its own.
    fn central_direct(&self, sum: i64, tree: (*mut Node<T>, *mut Node<T>)) -> u64 {
        let result = self
            .central(sum, tree, true)
            .expect("a queued section runs");
        if let Some(sink) = &self.funnel.sink {
            sink.event(CounterEvent::LockAcquire);
        }
        result
    }

    /// Pops every remaining item (single-threaded teardown helper).
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        let first = std::mem::replace(self.head.get_mut(), ptr::null_mut());
        // SAFETY: `&mut self` excludes concurrent access.
        unsafe { consume(first, |item| out.push(item)) };
        out
    }
}

impl<T: Send> FunnelObject for FunnelStack<T> {
    type Carry = Chain<T>;
    type Output = *mut Node<T>;
    const LOCKED: bool = true;

    fn meet(
        &self,
        sum: i64,
        qsum: i64,
        (chead, ctail): &mut (*mut Node<T>, *mut Node<T>),
        theirs: &Chain<T>,
    ) -> Option<(u64, u64)> {
        if qsum == -sum {
            // Elimination: the push tree's chain goes to the pop tree; the
            // push tree is done.
            if sum > 0 {
                return Some((TAG_DONE, *chead as u64 | TAG_CHAIN));
            }
            // ORDERING: Relaxed; acquired by the walk's `freeze` of the
            // partner and stable while it is frozen.
            let qc = theirs.head.load(Ordering::Relaxed);
            return Some((qc as u64 | TAG_CHAIN, TAG_DONE));
        }
        // Same kind: merge trees; pushes splice the partner's chain after
        // ours.
        if sum > 0 {
            // ORDERING: Relaxed (both loads), as the head above.
            let qh = theirs.head.load(Ordering::Relaxed);
            let qt = theirs.tail.load(Ordering::Relaxed);
            debug_assert!(!qh.is_null() && !qt.is_null());
            // SAFETY: our tail is exclusively ours until the chain is handed
            // off; the partner's chain is frozen.
            unsafe { (**ctail).next = qh };
            *ctail = qt;
        }
        None
    }

    fn central(
        &self,
        sum: i64,
        (chead, ctail): (*mut Node<T>, *mut Node<T>),
        queue: bool,
    ) -> Option<u64> {
        let _g = if queue {
            self.central_lock.lock()
        } else {
            self.central_lock.try_lock()?
        };
        // ORDERING: Relaxed under the lock, which orders it after the
        // previous holder's store.
        let first = self.head.load(Ordering::Relaxed);
        if sum > 0 {
            // SAFETY: `ctail` is the last node of our private chain; linking
            // it to the current head is the push.
            unsafe { (*ctail).next = first };
            // ORDERING: Release, so the lock-free `is_empty` reader that
            // sees a node sees it linked.
            self.head.store(chead, Ordering::Release);
            return Some(TAG_DONE);
        }
        if !first.is_null() {
            // Detach up to |sum| nodes.
            // SAFETY: the lock gives exclusive structural access; pushers
            // publish fully linked chains before updating head.
            let rest = unsafe { cut(first, sum.unsigned_abs()) };
            // ORDERING: Release, as the push's store.
            self.head.store(rest, Ordering::Release);
        }
        Some(first as u64 | TAG_CHAIN)
    }

    /// A push tree's members are done. A pop tree's root keeps the chain's
    /// first node and cuts one subchain per child (`2^k` nodes for the
    /// child captured at layer `k`), in capture order. Inlined into the
    /// walk: out of line, its call cost a direct push or pop about 1 ns.
    #[inline]
    fn distribute(
        &self,
        result: u64,
        _: i64,
        children: impl Iterator<Item = usize>,
    ) -> *mut Node<T> {
        if result & 0b111 == TAG_DONE {
            for child in children {
                self.funnel.deliver(child, TAG_DONE);
            }
            return ptr::null_mut();
        }
        let mut rest = (result & !0b111) as *mut Node<T>;
        let mut take = |n: u64| {
            let head = rest;
            if !head.is_null() {
                // SAFETY: we exclusively own the detached chain.
                rest = unsafe { cut(head, n) };
            }
            head
        };
        let mine = take(1);
        for (k, child) in children.enumerate() {
            self.funnel.deliver(child, take(1 << k) as u64 | TAG_CHAIN);
        }
        debug_assert!(rest.is_null(), "chain longer than tree");
        mine
    }
}

/// Ends the chain at `first` after at most `n` nodes; returns the rest
/// (null when the chain was no longer).
///
/// # Safety
///
/// `first` is a live node, and the caller owns the chain's links: it holds
/// the central lock, or the chain is detached and its own.
unsafe fn cut<T>(first: *mut Node<T>, n: u64) -> *mut Node<T> {
    let mut last = first;
    for _ in 1..n {
        if (*last).next.is_null() {
            break;
        }
        last = (*last).next;
    }
    std::mem::replace(&mut (*last).next, ptr::null_mut())
}

/// Frees every node of the chain at `p`, handing each item to `take`;
/// returns how many there were.
///
/// # Safety
///
/// The chain is the caller's alone, and no node of it is used again.
unsafe fn consume<T>(mut p: *mut Node<T>, mut take: impl FnMut(T)) -> usize {
    let mut n = 0;
    while !p.is_null() {
        let mut node = Box::from_raw(p);
        p = node.next;
        take(node.item.take().expect("a stacked node holds its item"));
        n += 1;
    }
    n
}

impl<T> Drop for FunnelStack<T> {
    fn drop(&mut self) {
        // SAFETY: drop has exclusive access; every node in the central
        // chain is owned by the stack.
        unsafe { consume(*self.head.get_mut(), drop) };
    }
}

impl<T> std::fmt::Debug for FunnelStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunnelStack")
            // ORDERING: Relaxed; a racy diagnostic snapshot.
            .field("empty", &self.head.load(Ordering::Relaxed).is_null())
            .field("max_threads", &self.funnel.cfg.max_threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::tests::join_within;
    use crate::probe::tests::TestSink;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    fn cfg(t: usize) -> FunnelConfig {
        FunnelConfig::for_threads(t)
    }

    #[test]
    fn sequential_lifo() {
        let s = FunnelStack::new(cfg(1));
        assert!(s.is_empty());
        assert_eq!(s.pop(0), None);
        s.push(0, 1);
        s.push(0, 2);
        s.push(0, 3);
        assert!(!s.is_empty());
        assert_eq!(s.pop(0), Some(3));
        assert_eq!(s.pop(0), Some(2));
        assert_eq!(s.pop(0), Some(1));
        assert_eq!(s.pop(0), None);
        assert!(s.is_empty());
    }

    #[test]
    fn drop_frees_remaining_items() {
        // Items with Drop: leak checking via Arc strong counts.
        let marker = Arc::new(());
        {
            let s = FunnelStack::new(cfg(1));
            for _ in 0..10 {
                s.push(0, Arc::clone(&marker));
            }
            assert_eq!(Arc::strong_count(&marker), 11);
            drop(s);
        }
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn many_at_once_is_the_singles_in_order() {
        let sink = Arc::new(TestSink::default());
        let many = FunnelStack::with_sink(cfg(1), Some(sink.clone()));
        let singles = FunnelStack::new(cfg(1));
        many.push(0, 0);
        singles.push(0, 0);
        many.push_many(0, 1..=8);
        (1..=8).for_each(|i| singles.push(0, i));
        many.push_many(0, std::iter::empty());
        assert_eq!(many.len(), 9);
        assert_eq!(sink.get(CounterEvent::LockAcquire), 2, "one per section");
        let mut got = Vec::new();
        assert_eq!(many.pop_many(0, 5, |x| got.push(x)), 5);
        let want: Vec<i32> = (0..5).map(|_| singles.pop(0).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(many.pop_many(0, usize::MAX, |x| got.push(x)), 4);
        assert!(many.is_empty());
        assert_eq!(got, (0..=8).rev().collect::<Vec<_>>());
        // An empty stack costs a read, not a lock.
        let locks = sink.get(CounterEvent::LockAcquire);
        assert_eq!(many.pop_many(0, 3, |_| unreachable!()), 0);
        assert_eq!(sink.get(CounterEvent::LockAcquire), locks);
    }

    #[test]
    fn chains_pushed_at_once_are_freed_on_drop() {
        let marker = Arc::new(());
        let s = FunnelStack::new(cfg(1));
        s.push_many(0, (0..8).map(|_| Arc::clone(&marker)));
        s.push_many(0, (0..8).map(|_| Arc::clone(&marker)));
        assert_eq!(s.pop_many(0, 3, drop), 3);
        assert_eq!(Arc::strong_count(&marker), 14);
        drop(s);
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn drain_returns_everything() {
        let mut s = FunnelStack::new(cfg(1));
        for i in 0..5 {
            s.push(0, i);
        }
        let mut v = s.drain();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_push_pop_no_loss_no_dup() {
        const T: usize = 8;
        const N: usize = 400;
        let s = Arc::new(FunnelStack::new(cfg(T)));
        let popped = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..T {
            let s = Arc::clone(&s);
            let popped = Arc::clone(&popped);
            handles.push(thread::spawn(move || {
                for i in 0..N {
                    s.push(t, t * N + i);
                    if i % 2 == 1 {
                        if let Some(x) = s.pop(t) {
                            popped.lock().unwrap().push(x);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<usize> = popped.lock().unwrap().clone();
        let mut s = Arc::try_unwrap(s).unwrap_or_else(|_| panic!("stack still shared"));
        all.extend(s.drain());
        assert_eq!(all.len(), T * N, "count preserved");
        let set: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(set.len(), T * N, "no duplicates");
        assert!(set.iter().all(|&x| x < T * N));
    }

    #[test]
    fn the_funnel_still_funnels_when_the_budget_says_so() {
        // Two threads, push + pop, adaption pinned busy before every
        // operation (left alone they go direct on this kind of host):
        // collisions and eliminations happen and no item is lost or
        // duplicated.
        const N: usize = 25_000;
        let sink = Arc::new(TestSink::default());
        let s = Arc::new(FunnelStack::with_sink(cfg(2), Some(sink.clone())));
        let start = Arc::new(Barrier::new(2));
        let popped = Arc::new(std::sync::Mutex::new(Vec::new()));
        let handles = (0..2)
            .map(|t| {
                let (s, start, popped) = (Arc::clone(&s), Arc::clone(&start), Arc::clone(&popped));
                thread::spawn(move || {
                    let pin = || s.funnel.adapt(t).pin(s.funnel.layers.len(), true);
                    let mut got = Vec::new();
                    start.wait();
                    for i in 0..N {
                        pin();
                        s.push(t, t * N + i);
                        pin();
                        got.extend(s.pop(t));
                    }
                    popped.lock().unwrap().extend(got);
                })
            })
            .collect();
        join_within(handles, Duration::from_secs(60));
        let mut all = popped.lock().unwrap().clone();
        let mut s = Arc::try_unwrap(s).unwrap_or_else(|_| panic!("stack still shared"));
        all.extend(s.drain());
        all.sort_unstable();
        assert_eq!(all, (0..2 * N).collect::<Vec<_>>());
        assert!(sink.get(CounterEvent::FunnelCollision) > 0);
        assert!(sink.get(CounterEvent::ElimHit) > 0);
    }

    #[test]
    fn a_direct_push_that_finds_the_lock_held_passes_the_layers_once_then_queues() {
        // One layer of one slot, one attempt per pass: each pass through
        // the layers is exactly one swap into slot 0. Pinned busy at depth
        // 0, the push starts on the direct path with its wait budget open.
        let one_slot = FunnelConfig {
            widths: vec![1],
            attempts: 1,
            max_threads: 2,
        };
        let sink = Arc::new(TestSink::default());
        let s = Arc::new(FunnelStack::with_sink(one_slot, Some(sink.clone())));
        s.funnel.adapt(1).pin(0, true);
        let held = s.central_lock.lock();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pusher = {
            let (s, done) = (Arc::clone(&s), Arc::clone(&done));
            thread::spawn(move || {
                s.push(1, 7u32);
                done.store(true, Ordering::SeqCst);
            })
        };
        // Count the passes by emptying the slot each time the push swaps
        // its id in; a zero read back is no partner, so this changes
        // nothing the push decides.
        let passes = |within: Duration| {
            let start = std::time::Instant::now();
            let mut n = 0;
            while start.elapsed() < within {
                n += usize::from(s.funnel.layers[0].swap(0, 0, Ordering::AcqRel) == 2);
                std::hint::spin_loop();
            }
            n
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let mut seen = 0;
        while seen == 0 && std::time::Instant::now() < deadline {
            seen = passes(Duration::from_millis(1));
        }
        assert_eq!(seen, 1, "the direct push gives the layers a pass");
        assert_eq!(passes(Duration::from_millis(50)), 0, "and only one");
        assert!(!done.load(Ordering::SeqCst) && s.is_empty(), "queued");
        drop(held);
        join_within(vec![pusher], Duration::from_secs(30));
        assert_eq!(s.len(), 1);
        assert_eq!(sink.get(CounterEvent::LockAcquire), 1);
        assert_eq!(sink.get(CounterEvent::FunnelCollision), 0);
        // Company (the held lock) answered as often as the one wait went
        // unanswered: the wait budget holds, depth grows, width shrinks.
        assert_eq!(sink.get(CounterEvent::AdaptGrow), 1);
        assert_eq!(sink.get(CounterEvent::AdaptShrink), 1);
        assert_eq!(s.funnel.adapt(1).depth(1), 1);
    }

    #[test]
    fn heavy_pop_contention_empties_cleanly() {
        const T: usize = 8;
        let s = Arc::new(FunnelStack::new(cfg(T)));
        for i in 0..100 {
            s.push(0, i);
        }
        let counts = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..T {
            let s = Arc::clone(&s);
            let counts = Arc::clone(&counts);
            handles.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(x) = s.pop(t) {
                    got.push(x);
                }
                counts.lock().unwrap().extend(got);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut v = counts.lock().unwrap().clone();
        v.sort_unstable();
        // Poppers may observe transient emptiness while pushes are absent,
        // but here all pushes happened before spawning, so all 100 items
        // must be recovered.
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        assert!(s.is_empty());
    }
}

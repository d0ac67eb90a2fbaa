//! Combining-funnel stack: the paper's funnel-based "bin".
//!
//! Same collision machinery as [`crate::FunnelCounter`], but operations are
//! `push` / `pop` and what flows through the combining trees are *chains of
//! stack nodes* rather than integer deltas:
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
use std::sync::atomic::{AtomicI64, AtomicPtr, AtomicU64, Ordering};

use funnelpq_util::{Backoff, CachePadded};

use crate::adaption::{self, Adaption, Signals, MAX_LAYERS};
use crate::funnel::{freeze, FunnelConfig, LOC_FROZEN};
use crate::probe::{CounterEvent, SinkRef};
use crate::slots::SlotArray;
use crate::ttas::TtasMutex;

struct Node<T> {
    item: Option<T>,
    next: *mut Node<T>,
}

/// Result word: 0 = none yet; low 3 bits tag, rest pointer.
const RES_NONE: u64 = 0;
const TAG_DONE: u64 = 1; // push completed
const TAG_CHAIN: u64 = 2; // pop completed; high bits = chain head (may be null)

struct Record<T> {
    /// Layer index this thread is combinable at, or [`LOC_FROZEN`] (see the
    /// counter's record).
    location: CachePadded<AtomicU64>,
    /// +k for a push tree of k items, -k for a pop tree of k requests.
    sum: AtomicI64,
    /// Head/tail of the pre-linked chain carried by a push tree root.
    /// Written, like `sum`, before `location` is published.
    chain_head: AtomicPtr<Node<T>>,
    chain_tail: AtomicPtr<Node<T>>,
    /// Tagged result delivered by whoever captured us; [`RES_NONE`] between
    /// operations.
    result: AtomicU64,
    /// Owner-only width / depth / wait adaption.
    adapt: Adaption,
}

impl<T> Record<T> {
    fn new(tid: usize) -> Self {
        Record {
            location: CachePadded::new(AtomicU64::new(LOC_FROZEN)),
            sum: AtomicI64::new(0),
            chain_head: AtomicPtr::new(ptr::null_mut()),
            chain_tail: AtomicPtr::new(ptr::null_mut()),
            result: AtomicU64::new(RES_NONE),
            adapt: Adaption::new(tid),
        }
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
    cfg: FunnelConfig,
    /// Head of the central chain; read without the lock for emptiness.
    head: CachePadded<AtomicPtr<Node<T>>>,
    /// Serializes structural mutation of the central chain.
    central_lock: TtasMutex<()>,
    records: Box<[Record<T>]>,
    layers: Vec<SlotArray>,
    sink: Option<SinkRef>,
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
        cfg.validate();
        let records = (0..cfg.max_threads).map(Record::new).collect();
        let layers = cfg.widths.iter().map(|&w| SlotArray::new(w)).collect();
        FunnelStack {
            cfg,
            head: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            central_lock: TtasMutex::new(()),
            records,
            layers,
            sink,
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
        let chain = self.operate(tid, 1, node);
        debug_assert!(chain.is_null(), "push produced a pop result");
    }

    /// Pops an item, or returns `None` when the pool appears empty.
    pub fn pop(&self, tid: usize) -> Option<T> {
        let chain = self.operate(tid, -1, ptr::null_mut());
        if chain.is_null() {
            return None;
        }
        // SAFETY: the protocol hands each popped node to exactly one op,
        // and `operate` cut ours off the rest of its tree's chain.
        let mut node = unsafe { Box::from_raw(chain) };
        node.item.take()
    }

    /// Pushes every element of `items`, in iteration order, as one tree
    /// that arrives already combined: the nodes are linked privately into
    /// the chain single pushes in that order would have built (last item on
    /// top) and installed in one central section. The layers are not
    /// entered and `location` stays frozen, as on the direct path of
    /// `operate`.
    pub fn push_many(&self, tid: usize, items: impl IntoIterator<Item = T>) {
        assert!(tid < self.cfg.max_threads, "tid {tid} out of range");
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
        if chead.is_null() {
            return;
        }
        {
            let _g = self.central_lock.lock();
            // ORDERING: Relaxed under the lock, which orders it after the
            // previous holder's store.
            let first = self.head.load(Ordering::Relaxed);
            // SAFETY: `ctail` is the last node of a chain nobody else has
            // seen; linking it to the current head is the push.
            unsafe { (*ctail).next = first };
            // ORDERING: Release, so the lock-free `is_empty` reader that
            // sees a node sees it linked.
            self.head.store(chead, Ordering::Release);
        }
        self.note_central_lock();
    }

    /// Pops up to `k` items in one central section — a pop tree of size `k`
    /// arriving combined — handing each to `take` in the order `k` single
    /// pops would have returned them; returns how many there were. A stack
    /// that reads empty is left alone, lock included.
    pub fn pop_many(&self, tid: usize, k: usize, mut take: impl FnMut(T)) -> usize {
        assert!(tid < self.cfg.max_threads, "tid {tid} out of range");
        if k == 0 || self.is_empty() {
            return 0;
        }
        let first = {
            let _g = self.central_lock.lock();
            // ORDERING: Relaxed under the lock, as in `push_many`.
            let first = self.head.load(Ordering::Relaxed);
            if !first.is_null() {
                let mut last = first;
                // SAFETY: the lock gives exclusive structural access, and
                // pushers publish fully linked chains before updating head.
                unsafe {
                    for _ in 1..k {
                        if (*last).next.is_null() {
                            break;
                        }
                        last = (*last).next;
                    }
                    // ORDERING: Release, as the push's store.
                    self.head.store((*last).next, Ordering::Release);
                    (*last).next = ptr::null_mut();
                }
            }
            first
        };
        self.note_central_lock();
        let mut n = 0;
        let mut p = first;
        while !p.is_null() {
            // SAFETY: the chain was detached under the lock, so every node
            // of it is ours alone; each is freed here exactly once.
            let mut node = unsafe { Box::from_raw(p) };
            p = node.next;
            take(node.item.take().expect("a stacked node holds its item"));
            n += 1;
        }
        n
    }

    /// One central-lock acquisition outside `operate`, which reports its own.
    fn note_central_lock(&self) {
        if let Some(sink) = &self.sink {
            sink.event(CounterEvent::LockAcquire);
        }
    }

    /// Core funnel traversal. A push (`delta` = 1) brings its one-node
    /// chain `chead` and returns null; a pop (`delta` = -1) brings null and
    /// returns its node, or null when the pool was empty.
    fn operate(&self, tid: usize, delta: i64, chead: *mut Node<T>) -> *mut Node<T> {
        assert!(tid < self.cfg.max_threads, "tid {tid} out of range");
        let me = &self.records[tid];
        let levels = self.layers.len();
        let mut sum = delta;
        let mut ctail = chead;
        // Layers advanced through so far, each by capturing one child:
        // `children[k]` is the tid captured at layer `k`, whose tree — like
        // ours at the time — held `2^k` operations of our kind.
        let mut d = 0usize;
        let mut children = [0usize; MAX_LAYERS];
        let mut max_d = me.adapt.depth(levels);
        let mut sig = Signals::default();
        // Operations eliminated by this op acting as the colliding root
        // (covers both trees), and central-lock acquisitions (0 or 1).
        let mut elim_count = 0u64;
        let mut central_locks = 0u64;

        // Tag + chain pointer describing our tree's outcome.
        let (tag, my_chain) = 'mainloop: loop {
            // The layers, when the adaption wants them and the wait budget
            // is worth a collision attempt. Otherwise `location` stays
            // frozen and the central section below is the whole operation.
            if d < max_d && me.adapt.wait(d) > 0 {
                self.publish(me, d, sum, chead, ctail);
                let mut n = 0;
                while n < self.cfg.attempts && d < max_d {
                    n += 1;
                    sig.attempts += 1;
                    let layer = &self.layers[d];
                    // ORDERING: AcqRel; the release half orders my publish
                    // before my id becomes readable, the acquire half pairs
                    // with the release half of the swap that wrote `q`.
                    let q = layer.swap(me.adapt.slot(layer.len()), tid + 1, Ordering::AcqRel);
                    if q != 0 && q - 1 != tid {
                        let qr = &self.records[q - 1];
                        if !freeze(&me.location, d) {
                            sig.captured = true;
                            break 'mainloop self.await_result(tid);
                        }
                        if freeze(&qr.location, d) {
                            sig.collisions_won += 1;
                            // ORDERING: Relaxed; acquired by `freeze` and
                            // stable while q is frozen.
                            let qsum = qr.sum.load(Ordering::Relaxed);
                            debug_assert_eq!(qsum.abs(), sum.abs());
                            if qsum == -sum {
                                // Elimination: the push tree's chain goes to
                                // the pop tree; the push tree is done.
                                elim_count = sum.unsigned_abs() * 2;
                                if sum > 0 {
                                    self.deliver(q - 1, chead as u64 | TAG_CHAIN);
                                    break 'mainloop (TAG_DONE, ptr::null_mut());
                                }
                                // ORDERING: Relaxed, as `qsum`.
                                let qc = qr.chain_head.load(Ordering::Relaxed);
                                self.deliver(q - 1, TAG_DONE);
                                break 'mainloop (TAG_CHAIN, qc);
                            }
                            // Same kind: merge trees.
                            if sum > 0 {
                                // Splice q's chain after ours.
                                // ORDERING: Relaxed, as `qsum` (both loads).
                                let qh = qr.chain_head.load(Ordering::Relaxed);
                                let qt = qr.chain_tail.load(Ordering::Relaxed);
                                debug_assert!(!qh.is_null() && !qt.is_null());
                                // SAFETY: our tail is exclusively ours until
                                // the chain is handed off; q's chain is
                                // frozen.
                                unsafe { (*ctail).next = qh };
                                ctail = qt;
                            }
                            sum += qsum;
                            children[d] = q - 1;
                            d += 1;
                            n = 0;
                        }
                        // Captured q or not, (re)publish at the layer we are
                        // now at; having advanced, collide there before
                        // waiting.
                        self.publish(me, d, sum, chead, ctail);
                        if n == 0 {
                            continue;
                        }
                    }
                    // Delay, watching for someone to capture us.
                    for _ in 0..me.adapt.wait(d) {
                        // ORDERING: SeqCst read of the word partners CAS; a
                        // change only sends me to `await_result`, whose swap
                        // does the synchronising.
                        if me.location.load(Ordering::SeqCst) != d as u64 {
                            sig.captured = true;
                            break 'mainloop self.await_result(tid);
                        }
                        std::hint::spin_loop();
                    }
                    sig.waits_expired += 1;
                }
                // Leave the layers, unless a partner got there first.
                if !freeze(&me.location, d) {
                    sig.captured = true;
                    break 'mainloop self.await_result(tid);
                }
            }
            // Frozen: apply the tree to the central stack.
            let _g = match self.central_lock.try_lock() {
                Some(g) => g,
                None => {
                    // Central contention: an operation that came straight
                    // here gives the layers one pass before it queues.
                    sig.central_fails = 1;
                    max_d = (max_d + 1).min(levels);
                    if sig.attempts == 0 && d < max_d && me.adapt.wait(d) > 0 {
                        continue;
                    }
                    self.central_lock.lock()
                }
            };
            central_locks = 1;
            // ORDERING: Relaxed under the lock, which orders it after the
            // previous holder's store.
            let first = self.head.load(Ordering::Relaxed);
            if sum > 0 {
                // SAFETY: `ctail` is the last node of our private chain;
                // linking it to the current head is the push.
                unsafe { (*ctail).next = first };
                // ORDERING: Release, so the lock-free `is_empty` reader
                // that sees a node sees it linked.
                self.head.store(chead, Ordering::Release);
                break 'mainloop (TAG_DONE, ptr::null_mut());
            }
            if !first.is_null() {
                // Detach up to |sum| nodes.
                let mut last = first;
                // SAFETY: the lock gives exclusive structural access;
                // pushers publish fully linked chains before updating head.
                unsafe {
                    for _ in 1..-sum {
                        if (*last).next.is_null() {
                            break;
                        }
                        last = (*last).next;
                    }
                    // ORDERING: Release, as the push's store.
                    self.head.store((*last).next, Ordering::Release);
                    (*last).next = ptr::null_mut();
                }
            }
            break 'mainloop (TAG_CHAIN, first);
        };

        let (grows, shrinks) = me.adapt.update(levels, &sig);
        // One batched report per operation (roots report tree-wide totals,
        // so each operation is seen exactly once; see the counter funnel).
        if let Some(sink) = &self.sink {
            let applied = !sig.captured && central_locks > 0 && d > 0;
            adaption::report(
                sink,
                [
                    (CounterEvent::FunnelCollision, sig.collisions_won.into()),
                    (CounterEvent::LockAcquire, central_locks),
                    (CounterEvent::ElimHit, elim_count),
                    (
                        CounterEvent::ElimMiss,
                        if applied { sum.unsigned_abs() } else { 0 },
                    ),
                    (CounterEvent::AdaptGrow, grows),
                    (CounterEvent::AdaptShrink, shrinks),
                ],
            );
        }

        // Distribute results down the tree.
        if tag == TAG_DONE {
            for &child in &children[..d] {
                self.deliver(child, TAG_DONE);
            }
            return ptr::null_mut();
        }
        // Keep the first node for ourselves, then cut one subchain per child
        // (`2^k` nodes for the child captured at layer `k`), in capture order.
        let mut rest = my_chain;
        let mut cut = |need: u64| {
            let head = rest;
            if !rest.is_null() {
                // SAFETY: we exclusively own the detached chain.
                unsafe {
                    let mut last = rest;
                    for _ in 1..need {
                        if (*last).next.is_null() {
                            break;
                        }
                        last = (*last).next;
                    }
                    rest = (*last).next;
                    (*last).next = ptr::null_mut();
                }
            }
            head
        };
        let mine = cut(1);
        for (k, &child) in children[..d].iter().enumerate() {
            self.deliver(child, cut(1 << k) as u64 | TAG_CHAIN);
        }
        debug_assert!(rest.is_null(), "chain longer than tree");
        mine
    }

    /// Makes `me` capturable at layer `d` with the given tree.
    fn publish(
        &self,
        me: &Record<T>,
        d: usize,
        sum: i64,
        chead: *mut Node<T>,
        ctail: *mut Node<T>,
    ) {
        // ORDERING: Relaxed (all three); published by the `location` store
        // below, which a capturer's successful CAS acquires.
        me.sum.store(sum, Ordering::Relaxed);
        me.chain_head.store(chead, Ordering::Relaxed);
        me.chain_tail.store(ctail, Ordering::Relaxed);
        // ORDERING: SeqCst publish, the first leg of the Dekker-style trio
        // (my `location` store → slot swap → partner's CAS on my `location`):
        // whoever reads my id out of a slot must find me at `d`, and the
        // store releases the tree above (and the nodes' links) to that CAS.
        me.location.store(d as u64, Ordering::SeqCst);
    }

    /// Hands a captured (frozen, waiting) thread its result.
    fn deliver(&self, child: usize, tagged: u64) {
        // ORDERING: Release (the chain's links go with it); pairs with the
        // Acquire swap in `await_result`.
        self.records[child].result.store(tagged, Ordering::Release);
    }

    fn await_result(&self, tid: usize) -> (u64, *mut Node<T>) {
        let me = &self.records[tid];
        let backoff = Backoff::new();
        loop {
            // ORDERING: Acquire swap; pairs with `deliver`'s Release store
            // and leaves the word `RES_NONE` for the next operation.
            let r = me.result.swap(RES_NONE, Ordering::Acquire);
            if r != RES_NONE {
                return (r & 0b111, (r & !0b111) as *mut Node<T>);
            }
            backoff.snooze();
        }
    }

    /// Pops every remaining item (single-threaded teardown helper).
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        let mut p = std::mem::replace(self.head.get_mut(), ptr::null_mut());
        while !p.is_null() {
            // SAFETY: `&mut self` excludes concurrent access.
            let mut node = unsafe { Box::from_raw(p) };
            if let Some(item) = node.item.take() {
                out.push(item);
            }
            p = node.next;
        }
        out
    }
}

impl<T> Drop for FunnelStack<T> {
    fn drop(&mut self) {
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            // SAFETY: drop has exclusive access; every node in the central
            // chain is owned by the stack.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
        }
    }
}

impl<T> std::fmt::Debug for FunnelStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunnelStack")
            // ORDERING: Relaxed; a racy diagnostic snapshot.
            .field("empty", &self.head.load(Ordering::Relaxed).is_null())
            .field("max_threads", &self.cfg.max_threads)
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
                    let pin = || s.records[t].adapt.pin(s.layers.len(), true);
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

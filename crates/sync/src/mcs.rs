//! The list-based queue lock of Mellor-Crummey and Scott (TOCS 1991), with
//! a combining hand-off.
//!
//! Each acquiring thread appends a queue node to a tail pointer with an
//! atomic swap and then spins on a word *in its own node*, so under
//! contention every waiter spins on a distinct cache line and lock handoff
//! causes a single remote write. This is the lock the paper uses for every
//! "bin" and for the non-funnel counters.
//!
//! The queue of an MCS lock already is the list of pending critical
//! sections, so [`McsMutex::run`] lets the holder execute them: a waiter
//! that finds the lock taken publishes its section in its own node before
//! it links in, and a releasing `run` holder runs up to [`COMBINE_BOUND`]
//! queued sections on the data it already has in its cache, in queue
//! order, before it passes the lock on. Each waiter's word has three
//! states — [`WAIT`], [`GO`] (the lock is yours) and [`DONE`] (your section
//! has been run; the result is in your slot). Guard-style waiters
//! ([`McsLock::lock`]) carry no section and share the same queue: they are
//! never served, only handed the lock. An uncontended `run` is the same
//! swap + CAS as an uncontended `lock` and publishes nothing.
//!
//! Queue nodes are recycled through a small per-thread cache: a node is
//! always retired by *its own* thread, after the holder's last touch of it,
//! so taking and returning a node is thread-local and the steady state
//! allocates nothing.

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use funnelpq_util::{mono_ns, CachePadded};

use crate::probe::{CounterEvent, SinkRef};

/// Queue nodes a thread keeps for reuse — the number of MCS locks it can
/// hold at once without allocating. No queue in this workspace holds more
/// than one; the depth leaves room for callers that nest.
const CACHE_DEPTH: usize = 4;

/// Polls a waiter makes, one `spin_loop` hint apart, before it yields the
/// processor between polls. With a core per thread a hand-off lands within
/// one critical section and the waiter should never yield through it; with
/// more threads than cores the FIFO order hands the lock to waiters that
/// are not running, and every further poll only keeps the core from the
/// thread being waited on. 64 is the measured balance on a 2-core host
/// (sweep in EXPERIMENTS.md, "Ledger rows: MCS hand-off").
const SPIN_BOUND: u32 = 64;

/// Sections one [`McsMutex::run`] holder executes in one hold, its own
/// included, before it hands the lock to the next waiter. A fairness and
/// liveness bound — how long a caller can be kept working for others —
/// taken from the prototype, not a measured optimum: a 2-core host never
/// queues enough waiters to spend it.
const COMBINE_BOUND: u32 = 16;

/// [`QNode::state`]: queued, neither served nor handed the lock yet.
const WAIT: u32 = 0;
/// [`QNode::state`]: the lock is this node's; its owner runs its own
/// section (if any) and releases.
const GO: u32 = 1;
/// [`QNode::state`]: a holder ran this node's section and took the node
/// off the queue; the result is in the owner's slot.
const DONE: u32 = 2;

/// A type-erased critical section: `ctx` is the owner's slot, `data` the
/// mutex's protected value.
type Section = unsafe fn(ctx: *mut (), data: *mut ());

// Aligned like `CachePadded`: a waiter spins on `state` in its own node,
// so two nodes must never share a line (or a prefetched line pair).
#[repr(align(128))]
struct QNode {
    state: AtomicU32,
    next: AtomicPtr<QNode>,
    /// The owner's section and its slot, for a `run` waiter; `None` for a
    /// guard waiter and in every cached node. Plain: written by the owner
    /// before it links in, read by the holder after it has seen the link.
    section: Cell<Option<Section>>,
    ctx: Cell<*mut ()>,
    /// `(start, end)` of a served section on the serving thread's clock,
    /// for a span sink. Written before `DONE`.
    ran_ns: Cell<(u64, u64)>,
}

/// Spare queue nodes of one thread, freed when the thread exits.
struct NodeCache {
    nodes: [Cell<*mut QNode>; CACHE_DEPTH],
    len: Cell<usize>,
}

impl NodeCache {
    const fn new() -> Self {
        NodeCache {
            nodes: [const { Cell::new(ptr::null_mut()) }; CACHE_DEPTH],
            len: Cell::new(0),
        }
    }

    fn take(&self) -> Option<*mut QNode> {
        let n = self.len.get().checked_sub(1)?;
        self.len.set(n);
        Some(self.nodes[n].get())
    }

    /// Keeps `node` unless the cache is full.
    fn give(&self, node: *mut QNode) -> bool {
        let n = self.len.get();
        if n == CACHE_DEPTH {
            return false;
        }
        self.nodes[n].set(node);
        self.len.set(n + 1);
        true
    }
}

impl Drop for NodeCache {
    fn drop(&mut self) {
        while let Some(node) = self.take() {
            // SAFETY: every cached pointer came from `Box::into_raw` in
            // `take_node` and was retired by `retire_node`, which runs only
            // once no other thread can reach the node.
            drop(unsafe { Box::from_raw(node) });
        }
    }
}

thread_local! {
    static NODE_CACHE: NodeCache = const { NodeCache::new() };
}

/// A queue node in state [`WAIT`] with no successor and no section, owned
/// by the caller until it passes it to [`retire_node`].
#[inline]
fn take_node() -> *mut QNode {
    // `try_with` fails once this thread's cache has been destroyed (a lock
    // taken from another thread-local's destructor); allocate then too.
    if let Ok(Some(node)) = NODE_CACHE.try_with(NodeCache::take) {
        // SAFETY: a cached node is reachable from this thread's cache only.
        // ORDERING: Relaxed twice — nobody else can see the node until the
        // tail swap (AcqRel) in `enqueue` publishes it.
        unsafe {
            (*node).state.store(WAIT, Ordering::Relaxed);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        return node;
    }
    alloc_node()
}

/// The cache-miss path of [`take_node`], kept out of its callers' code.
#[cold]
#[inline(never)]
fn alloc_node() -> *mut QNode {
    #[cfg(test)]
    tests::NODE_ALLOCS.with(|c| c.set(c.get() + 1));
    Box::into_raw(Box::new(QNode {
        state: AtomicU32::new(WAIT),
        next: AtomicPtr::new(ptr::null_mut()),
        section: Cell::new(None),
        ctx: Cell::new(ptr::null_mut()),
        ran_ns: Cell::new((0, 0)),
    }))
}

/// Returns a node to this thread's cache, or frees it when the cache is
/// full or gone.
///
/// # Safety
///
/// `node` must come from [`take_node`], carry no section, and no other
/// thread may still hold a pointer to it: it is off every lock's queue and
/// the holder that took it off has made its last store to it.
#[inline]
unsafe fn retire_node(node: *mut QNode) {
    if !matches!(NODE_CACHE.try_with(|c| c.give(node)), Ok(true)) {
        // SAFETY: `take_node` nodes are `Box` allocations, and by the
        // caller's contract this is the only pointer left.
        drop(unsafe { Box::from_raw(node) });
    }
}

/// Waits out `blocked`, which another thread clears with one store to a
/// word only this thread polls: poll on every iteration, with no growing
/// gaps to sleep through the hand-off, and past [`SPIN_BOUND`] yield
/// between polls so an oversubscribed host still makes progress.
#[inline]
fn spin_while(mut blocked: impl FnMut() -> bool) {
    let mut polls = 0u32;
    while blocked() {
        if polls < SPIN_BOUND {
            polls += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

// The sink rides inside the padded block: acquirers must touch the tail's
// cache line anyway, so keeping the (read-only) sink there costs no extra
// line on the lock fast path while the padding still isolates neighbours.
struct LockInner {
    tail: AtomicPtr<QNode>,
    sink: Option<SinkRef>,
    /// `sink.wants_lock_spans()`, asked once: only then does an
    /// acquisition read the clock.
    spans: bool,
}

/// A raw MCS queue lock (no data). See [`McsMutex`] for the RAII wrapper
/// most callers want.
///
/// # Examples
///
/// ```
/// use funnelpq_sync::McsLock;
/// let lock = McsLock::new();
/// let g = lock.lock();
/// drop(g); // releases
/// ```
pub struct McsLock {
    inner: CachePadded<LockInner>,
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

impl McsLock {
    /// Creates an unlocked MCS lock.
    pub fn new() -> Self {
        Self::with_sink(None)
    }

    /// Creates an unlocked MCS lock reporting each acquisition as a
    /// [`CounterEvent::LockAcquire`] to `sink` (when present), and as a
    /// timed span too if the sink
    /// [wants them](crate::probe::EventSink::wants_lock_spans).
    pub fn with_sink(sink: Option<SinkRef>) -> Self {
        let spans = sink.as_ref().is_some_and(|s| s.wants_lock_spans());
        McsLock {
            inner: CachePadded::new(LockInner {
                tail: AtomicPtr::new(ptr::null_mut()),
                sink,
                spans,
            }),
        }
    }

    // Out-of-line so the sink-absent fast path of `lock`/`try_lock`/`run`
    // pays only a predictable not-taken branch, not the inlined dyn-call
    // code (measurable on the cheapest queues' ns/op). Returns the clock
    // when the sink takes spans, so a counting sink never reads it.
    #[cold]
    #[inline(never)]
    fn note_acquire(&self) -> Option<u64> {
        if let Some(s) = &self.inner.sink {
            s.event(CounterEvent::LockAcquire);
        }
        self.inner.spans.then(mono_ns)
    }

    // Span reporting happens after the handoff in `release`, so the
    // sink call itself never extends the critical section.
    #[cold]
    #[inline(never)]
    fn note_span(&self, wait_start_ns: u64, acquired_ns: u64, released_ns: u64) {
        if let Some(s) = &self.inner.sink {
            s.lock_span(wait_start_ns, acquired_ns, released_ns);
        }
    }

    /// Counts the acquisition, takes a node and swaps it onto the tail:
    /// `(wait stamp for a span sink, node, predecessor or null)`. With a
    /// null predecessor the caller holds the lock.
    #[inline]
    fn enqueue(&self) -> (Option<u64>, *mut QNode, *mut QNode) {
        let wait_start = if self.inner.sink.is_some() {
            self.note_acquire()
        } else {
            None
        };
        let node = take_node();
        // ORDERING: AcqRel. Acquire pairs with the Release half of the
        // previous holder's tail CAS `node → null` in `successor` (its
        // critical sections happen before ours when we find the lock
        // free); Release publishes the node's reset `state`/`next` to the
        // thread that will swap in behind us and to the holder.
        let pred = self.inner.tail.swap(node, Ordering::AcqRel);
        (wait_start, node, pred)
    }

    /// Links `node` in behind `pred` and waits for the holder's verdict:
    /// [`GO`], or [`DONE`] if `node` carries a section and a holder ran it.
    #[inline]
    fn wait_behind(pred: *mut QNode, node: *mut QNode) -> u32 {
        // SAFETY: `pred` was the tail before our swap, so whoever performs
        // its release (its owner, or a holder serving it) cannot finish —
        // and so cannot let the node be retired — before it has read this
        // link: with the tail no longer `pred`, that release waits for it.
        // ORDERING: Release, pairs with the Acquire load of `next` in
        // `successor`; publishes this node's plain `section`/`ctx` and the
        // owner's slot behind them.
        unsafe { (*pred).next.store(node, Ordering::Release) };
        let mut state = WAIT;
        spin_while(|| {
            // SAFETY: `node` is ours until we retire it, which is after
            // this wait.
            // ORDERING: Acquire, pairs with the holder's Release store of
            // `GO` (the protected data, everything earlier holders did to
            // it) or `DONE` (our slot's result and `ran_ns`).
            state = unsafe { (*node).state.load(Ordering::Acquire) };
            state == WAIT
        });
        state
    }

    /// Performs the MCS release of `cur`, a node at the head of the queue
    /// whose section (if any) is over: returns its successor, or null once
    /// the tail has been swung from `cur` back to null. Afterwards nothing
    /// but the caller's pointer leads to `cur`.
    ///
    /// # Safety
    ///
    /// The calling thread holds the lock, and `cur` is either its own node
    /// or a waiter's node it is serving (state still [`WAIT`], so the
    /// owner is parked in `wait_behind` and the node is alive).
    #[inline]
    unsafe fn successor(&self, cur: *mut QNode) -> *mut QNode {
        // SAFETY (this function's derefs of `cur`): alive by the contract
        // above — an own node is retired only by this thread, a served one
        // only after the `DONE` this thread has not stored yet.
        // ORDERING: Acquire, pairs with the successor's Release link store
        // in `wait_behind`: its `section`, `ctx` and slot are visible.
        let mut next = unsafe { (*cur).next.load(Ordering::Acquire) };
        // For a served node the CAS is a foreign thread's, on the owner's
        // behalf: the owner still spins on `state`, so `cur` cannot be back
        // on the queue under the same address.
        // ORDERING: AcqRel on success — Release hands every section run in
        // this hold to the next thread whose tail swap finds null; Acquire
        // on both outcomes orders the `next` re-reads after it.
        if next.is_null()
            && self
                .inner
                .tail
                .compare_exchange(cur, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            // A successor swapped the tail but has not linked in yet; it
            // is between two instructions, so this wait is short.
            spin_while(|| {
                // ORDERING: Acquire, as for the first load of `next`.
                next = unsafe { (*cur).next.load(Ordering::Acquire) };
                next.is_null()
            });
        }
        next
    }

    /// Releases the lock held through `node`: the holder's own MCS
    /// release, then `pass_on(successor)` if somebody is queued — a guard
    /// [hands over](Self::hand_over), a `run` holder [serves](Self::serve)
    /// — and the span, if `stamps` carries one.
    ///
    /// # Safety
    ///
    /// The calling thread holds the lock through `node`, its own
    /// [`take_node`] node; `pass_on` gets the first queued node with the
    /// lock still held.
    #[inline]
    unsafe fn release(
        &self,
        node: *mut QNode,
        stamps: Option<(u64, u64)>,
        pass_on: impl FnOnce(*mut QNode),
    ) {
        // Hold time ends here: the hand-off, and the sections run for
        // waiters, are the lock's cost, not this holder's.
        let released = if stamps.is_some() { mono_ns() } else { 0 };
        // SAFETY: by this function's contract. Once `successor` returns
        // nothing leads to `node` any more: the tail is off it and a
        // linked successor never reads its predecessor.
        unsafe {
            let next = self.successor(node);
            if !next.is_null() {
                pass_on(next);
            }
            retire_node(node);
        }
        if let Some((wait, acq)) = stamps {
            self.note_span(wait, acq, released);
        }
    }

    /// Gives the lock to `next`, the waiter at the head of the queue.
    ///
    /// # Safety
    ///
    /// The calling thread holds the lock and `next` is queued in state
    /// [`WAIT`], so its owner is parked until this store.
    #[inline]
    unsafe fn hand_over(next: *mut QNode) {
        // ORDERING: Release, pairs with the owner's Acquire poll: every
        // section run so far happens before its own. The caller's last
        // touch of `next`: it is the new holder's from here.
        unsafe { (*next).state.store(GO, Ordering::Release) };
    }

    /// Passes the lock on from a `run` holder whose own node is already off
    /// the queue: runs up to `budget` queued sections on `data`, in queue
    /// order, starting at `next`, the waiter at the head; the first waiter
    /// it does not serve — budget spent, or a guard-style waiter, which
    /// carries no section — gets the lock.
    ///
    /// # Safety
    ///
    /// The calling thread holds the lock, `next` is the first queued node,
    /// and `data` is what the sections queued on this lock expect.
    unsafe fn serve(&self, mut next: *mut QNode, data: *mut (), mut budget: u32) {
        loop {
            // SAFETY: `next` is queued at the head in state `WAIT`, so its
            // owner is parked — node and slot alive — until we store to
            // `state`, and its plain fields were published by the link
            // that led us here. `ctx` is the slot `section` was
            // instantiated for (`McsMutex::run_queued` sets both), `data`
            // by this function's contract, exclusive because we hold the
            // lock. The section catches its own panics.
            unsafe {
                let section = (*next).section.get().filter(|_| budget > 0);
                let Some(section) = section else {
                    Self::hand_over(next);
                    return;
                };
                budget -= 1;
                let start = if self.inner.spans { mono_ns() } else { 0 };
                section((*next).ctx.get(), data);
                if self.inner.spans {
                    (*next).ran_ns.set((start, mono_ns()));
                }
                // The served node's MCS release, on its owner's behalf,
                // and only then the verdict: the owner may recycle the
                // node the moment it reads `DONE` — our last touch of it.
                let after = self.successor(next);
                // ORDERING: Release, pairs with the owner's Acquire poll:
                // publishes the result in its slot and `ran_ns`.
                (*next).state.store(DONE, Ordering::Release);
                if after.is_null() {
                    return;
                }
                next = after;
            }
        }
    }

    /// Acquires the lock, spinning in FIFO order behind current holders.
    #[inline]
    pub fn lock(&self) -> McsGuard<'_> {
        let (wait_start, node, pred) = self.enqueue();
        if !pred.is_null() {
            // A node without a section is never served, only handed `GO`.
            Self::wait_behind(pred, node);
        }
        McsGuard {
            lock: self,
            node,
            stamps: wait_start.map(|wait| (wait, mono_ns())),
        }
    }

    /// Attempts to acquire the lock without waiting. Succeeds only when the
    /// queue is empty.
    #[inline]
    pub fn try_lock(&self) -> Option<McsGuard<'_>> {
        // ORDERING: Relaxed — a hint; the CAS below decides.
        if !self.inner.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = take_node();
        // ORDERING: AcqRel on success, as the tail swap in `enqueue`;
        // Relaxed on failure, which publishes and reads nothing.
        match self.inner.tail.compare_exchange(
            ptr::null_mut(),
            node,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                let stamps = if self.inner.sink.is_some() {
                    // No queueing on the try path: wait == acquire instant.
                    self.note_acquire().map(|now| (now, now))
                } else {
                    None
                };
                Some(McsGuard {
                    lock: self,
                    node,
                    stamps,
                })
            }
            Err(_) => {
                // SAFETY: `node` never became visible to other threads.
                unsafe { retire_node(node) };
                None
            }
        }
    }

    /// Whether some thread currently holds or waits for the lock. Racy by
    /// nature; useful for heuristics only.
    pub fn is_locked(&self) -> bool {
        // ORDERING: Relaxed — a racy snapshot by contract.
        !self.inner.tail.load(Ordering::Relaxed).is_null()
    }
}

// SAFETY: the lock protocol only shares heap-allocated queue nodes through
// atomics (their plain fields are handed over by the link / `DONE`
// release-acquire pairs), the sink is `Send + Sync`, and the lock holds no
// interior data.
unsafe impl Send for McsLock {}
// SAFETY: as for `Send`; every `&self` method goes through the atomics.
unsafe impl Sync for McsLock {}

impl std::fmt::Debug for McsLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McsLock")
            .field("locked", &self.is_locked())
            .finish()
    }
}

/// RAII guard for [`McsLock`]; releasing hands the lock to the next queued
/// thread.
pub struct McsGuard<'a> {
    lock: &'a McsLock,
    node: *mut QNode,
    /// `(wait_start_ns, acquired_ns)` when the lock's sink takes spans;
    /// the release stamp completes the span in `drop`.
    stamps: Option<(u64, u64)>,
}

impl Drop for McsGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: the guard is the proof that this thread holds the lock
        // through `node`.
        unsafe {
            self.lock
                .release(self.node, self.stamps, |next| McsLock::hand_over(next));
        }
    }
}

/// The hold of a [`McsMutex::run`] caller running its own section: like a
/// guard, but on release it serves the queue. A type of its own so that
/// [`McsGuard`], which every guard user's hot path carries, stays small.
struct RunHold<'a> {
    lock: &'a McsLock,
    node: *mut QNode,
    stamps: Option<(u64, u64)>,
    /// What queued sections run on.
    data: *mut (),
    /// Sections to run for waiters on release: 0 until the holder's own
    /// section has returned, so a holder that unwinds only passes the lock
    /// on.
    budget: u32,
}

impl Drop for RunHold<'_> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: as for `McsGuard`; `data` is the mutex's value, which is
        // what every section queued on its lock was instantiated for.
        unsafe {
            self.lock.release(self.node, self.stamps, |next| {
                self.lock.serve(next, self.data, self.budget);
            });
        }
    }
}

/// A value protected by an [`McsLock`], in the style of `std::sync::Mutex`.
///
/// # Examples
///
/// ```
/// use funnelpq_sync::McsMutex;
/// let m = McsMutex::new(vec![1, 2]);
/// m.lock().push(3);
/// assert_eq!(m.run(|v| v.len()), 3);
/// ```
pub struct McsMutex<T> {
    lock: McsLock,
    data: UnsafeCell<T>,
}

/// What a queued [`McsMutex::run`] caller leaves on its stack for the
/// thread that runs its section: the section going in, the result (or the
/// panic it raised) coming out.
struct Slot<F, R> {
    f: Option<F>,
    out: Option<std::thread::Result<R>>,
}

/// The [`Section`] of a `Slot<F, R>` on an `McsMutex<T>`: runs the slot's
/// closure on the data and leaves the outcome in the slot. A panic is
/// caught here, where it happened, so the thread serving the queue goes on.
///
/// # Safety
///
/// `ctx` must point to a live `Slot<F, R>` whose `f` is still there and
/// `data` to the `T` of the mutex, both exclusively the caller's.
unsafe fn run_slot<T, F: FnOnce(&mut T) -> R, R>(ctx: *mut (), data: *mut ()) {
    // SAFETY: by this function's contract.
    let (slot, data) = unsafe { (&mut *ctx.cast::<Slot<F, R>>(), &mut *data.cast::<T>()) };
    if let Some(f) = slot.f.take() {
        slot.out = Some(catch_unwind(AssertUnwindSafe(|| f(data))));
    }
}

impl<T> McsMutex<T> {
    /// Wraps `data` in a new mutex.
    pub fn new(data: T) -> Self {
        Self::with_sink(data, None)
    }

    /// Wraps `data` in a mutex whose lock reports acquisitions to `sink`.
    pub fn with_sink(data: T, sink: Option<SinkRef>) -> Self {
        McsMutex {
            lock: McsLock::with_sink(sink),
            data: UnsafeCell::new(data),
        }
    }

    /// Acquires the lock and returns a guard dereferencing to the data.
    pub fn lock(&self) -> McsMutexGuard<'_, T> {
        McsMutexGuard {
            _guard: self.lock.lock(),
            data: self.data.get(),
        }
    }

    /// Attempts to acquire without waiting (fails if any thread is queued).
    pub fn try_lock(&self) -> Option<McsMutexGuard<'_, T>> {
        self.lock.try_lock().map(|g| McsMutexGuard {
            _guard: g,
            data: self.data.get(),
        })
    }

    /// Runs `f` on the data as one critical section and returns its result
    /// — `{ let mut g = m.lock(); f(&mut g) }`, except that under
    /// contention the section may be run **by the thread that holds the
    /// lock** instead of by the caller: a caller that has to queue leaves
    /// `f` in its queue node, and a holder that came in through `run`
    /// executes the sections queued behind it (a bounded number, in queue
    /// order) before it passes the lock on, so the data stays in one cache
    /// and only a request and a result cross between threads. The caller
    /// blocks either way until its section has run, and an uncontended
    /// call runs `f` inline at the cost of `lock()`.
    ///
    /// Because `f` may execute on another thread it must not depend on
    /// which thread that is: no thread-locals, no state indexed by a dense
    /// thread id, and — as with any lock here — no re-entry on the same
    /// mutex. The sink sees exactly one
    /// [`LockAcquire`](CounterEvent::LockAcquire) per call, from the
    /// caller, whoever runs the section; a span sink gets the caller's
    /// queueing instant with the section's start and end.
    ///
    /// # Panics
    ///
    /// A panic in `f` unwinds out of the caller's `run`, also when another
    /// thread ran `f` (that thread carries on); the lock is released
    /// either way. There is no poisoning.
    #[inline]
    pub fn run<R: Send>(&self, f: impl FnOnce(&mut T) -> R + Send) -> R {
        let (wait_start, node, pred) = self.lock.enqueue();
        if pred.is_null() {
            self.run_holding(node, f, wait_start)
        } else {
            self.run_queued(pred, node, f, wait_start)
        }
    }

    /// Runs `f` as the holder of the lock through `node`, then releases,
    /// serving the queue. A panic in `f` drops the hold with no budget:
    /// it only passes the lock on.
    #[inline]
    fn run_holding<R>(
        &self,
        node: *mut QNode,
        f: impl FnOnce(&mut T) -> R,
        wait_start: Option<u64>,
    ) -> R {
        let mut hold = RunHold {
            lock: &self.lock,
            node,
            stamps: wait_start.map(|wait| (wait, mono_ns())),
            data: self.data.get().cast(),
            budget: 0,
        };
        // SAFETY: `hold` holds the lock, so the access is exclusive.
        let out = f(unsafe { &mut *self.data.get() });
        hold.budget = COMBINE_BOUND - 1;
        out
    }

    /// The queued half of [`run`](Self::run): publishes `f` in `node`,
    /// links in behind `pred` and waits — for the result of `f` as a
    /// holder ran it, or for the lock, to run `f` itself.
    #[inline(never)]
    fn run_queued<F: FnOnce(&mut T) -> R + Send, R: Send>(
        &self,
        pred: *mut QNode,
        node: *mut QNode,
        f: F,
        wait_start: Option<u64>,
    ) -> R {
        let mut slot = Slot {
            f: Some(f),
            out: None,
        };
        // SAFETY: `node` is ours and not linked in yet, so nobody reads
        // these fields before `wait_behind` publishes them; `slot` outlives
        // the wait, during which it belongs to whoever holds the lock.
        unsafe {
            (*node).section.set(Some(run_slot::<T, F, R>));
            (*node).ctx.set(ptr::from_mut(&mut slot).cast());
        }
        let state = McsLock::wait_behind(pred, node);
        // SAFETY: `GO` and `DONE` are each the holder's last touch of the
        // node, so it is ours alone again.
        unsafe { (*node).section.set(None) };
        if state == GO {
            let f = slot.f.take().expect("handed the lock with the section run");
            return self.run_holding(node, f, wait_start);
        }
        // SAFETY: as above, and after `DONE` the node is off the queue.
        let (start, end) = unsafe {
            let ran = (*node).ran_ns.get();
            retire_node(node);
            ran
        };
        if let Some(wait) = wait_start {
            self.lock.note_span(wait, start, end);
        }
        match slot.out.take().expect("served without a result") {
            Ok(out) => out,
            Err(panic) => resume_unwind(panic),
        }
    }

    /// Returns a mutable reference without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

// SAFETY: standard mutex reasoning — the guard provides exclusive access,
// and so does holding the lock while running a queued section; `run` moves
// sections and results between threads only under its own `Send` bounds.
unsafe impl<T: Send> Send for McsMutex<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send> Sync for McsMutex<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for McsMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McsMutex")
            .field("locked", &self.lock.is_locked())
            .finish_non_exhaustive()
    }
}

/// Guard for [`McsMutex`].
pub struct McsMutexGuard<'a, T> {
    _guard: McsGuard<'a>,
    data: *mut T,
}

impl<T> std::ops::Deref for McsMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the MCS guard guarantees exclusive access.
        unsafe { &*self.data }
    }
}

impl<T> std::ops::DerefMut for McsMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the MCS guard guarantees exclusive access.
        unsafe { &mut *self.data }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    thread_local! {
        /// `QNode`s this thread has heap-allocated (the cache-miss path).
        pub(super) static NODE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    fn node_allocs() -> usize {
        NODE_ALLOCS.with(Cell::get)
    }

    /// Joins `handles`, failing loudly if they are not all done within
    /// `limit`: a spin bound that starves a preempted holder, or a funnel
    /// thread waiting on a partner that never delivers, shows up as a run
    /// hundreds of times longer than the work, not as a wrong result.
    pub(crate) fn join_within(handles: Vec<thread::JoinHandle<()>>, limit: Duration) {
        let deadline = Instant::now() + limit;
        while !handles.iter().all(|h| h.is_finished()) {
            assert!(
                Instant::now() < deadline,
                "starved: workers still running after {limit:?}"
            );
            thread::sleep(Duration::from_millis(1));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn uncontended_lock_unlock() {
        let l = McsLock::new();
        assert!(!l.is_locked());
        let g = l.lock();
        assert!(l.is_locked());
        drop(g);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_conflicts() {
        let l = McsLock::new();
        let g = l.lock();
        assert!(l.try_lock().is_none());
        drop(g);
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn mutex_counter_stress() {
        const T: usize = 8;
        const N: usize = 2_000;
        let m = Arc::new(McsMutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..T {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..N {
                    *m.lock() += 1;
                }
            }));
        }
        // Four threads per core here; about 50 ms of work.
        join_within(handles, Duration::from_secs(20));
        assert_eq!(*m.lock(), (T * N) as u64);
    }

    /// Keeps a holder inside its section until the test raises `go`.
    fn park_until(go: &AtomicBool) {
        while !go.load(Ordering::Acquire) {
            thread::yield_now();
        }
    }

    /// Waits until some thread has swapped a node onto `m`'s tail since
    /// `before` was read — i.e. the thread just spawned is in the queue.
    fn wait_for_new_tail<T>(m: &McsMutex<T>, before: *mut QNode) -> *mut QNode {
        loop {
            let tail = m.lock.inner.tail.load(Ordering::Acquire);
            if tail != before {
                return tail;
            }
            thread::yield_now();
        }
    }

    #[test]
    fn run_is_a_critical_section() {
        let m = McsMutex::new(vec![1, 2]);
        assert_eq!(m.run(|v| v.len()), 2);
        let pushed = m.run(|v| {
            v.push(3);
            v.len()
        });
        assert_eq!(pushed, 3);
        assert!(!m.lock.is_locked());
        assert_eq!(*m.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn run_counter_stress_oversubscribed() {
        const T: usize = 8;
        const N: usize = 20_000;
        let m = Arc::new(McsMutex::new(0u64));
        let handles = (0..T)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..N {
                        m.run(|v| *v += 1);
                    }
                })
            })
            .collect();
        // Four threads per core here: a waiter that is not running gets
        // its section run for it instead of being handed the lock.
        join_within(handles, Duration::from_secs(20));
        assert_eq!(m.run(|v| *v), (T * N) as u64);
    }

    #[test]
    fn mixed_waiters_share_one_queue() {
        use crate::probe::tests::TestSink;

        const N: u64 = 50_000;
        let sink = Arc::new(TestSink::default());
        let m = Arc::new(McsMutex::with_sink(0u64, Some(sink.clone())));
        let tried = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..N {
                    m.run(|v| *v += 1);
                }
            }));
        }
        for _ in 0..2 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..N {
                    *m.lock() += 1;
                }
            }));
        }
        {
            let (m, tried) = (Arc::clone(&m), Arc::clone(&tried));
            handles.push(thread::spawn(move || {
                for _ in 0..N {
                    if let Some(mut g) = m.try_lock() {
                        *g += 1;
                        tried.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        join_within(handles, Duration::from_secs(60));
        let acquired = 6 * N + tried.load(Ordering::Relaxed);
        assert_eq!(*m.lock(), acquired);
        // The read just above is one more acquisition.
        assert_eq!(sink.get(CounterEvent::LockAcquire), acquired + 1);
    }

    #[test]
    fn holder_runs_queued_sections_in_order_up_to_the_bound() {
        const WAITERS: usize = COMBINE_BOUND as usize + 3;
        // The data is the log of which thread ran each section, in the
        // order they ran; a section returns its position in it.
        let m = Arc::new(McsMutex::new(Vec::<thread::ThreadId>::new()));
        let go = Arc::new(AtomicBool::new(false));
        let section = |log: &mut Vec<thread::ThreadId>| {
            log.push(thread::current().id());
            log.len() - 1
        };
        let holder = {
            let (m, go) = (Arc::clone(&m), Arc::clone(&go));
            thread::spawn(move || {
                let rank = m.run(|log| {
                    let rank = section(log);
                    park_until(&go);
                    rank
                });
                assert_eq!(rank, 0);
            })
        };
        let mut tail = wait_for_new_tail(&m, ptr::null_mut());
        let mut handles = vec![holder];
        for arrival in 1..=WAITERS {
            let waiter = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                let rank = waiter.run(section);
                assert_eq!(rank, arrival, "result went to the wrong caller");
            }));
            // The next waiter is spawned only once this one is queued, so
            // arrival order is queue order.
            tail = wait_for_new_tail(&m, tail);
        }
        go.store(true, Ordering::Release);
        join_within(handles, Duration::from_secs(20));
        let log = m.lock();
        assert_eq!(log.len(), WAITERS + 1);
        let mut runners = log.clone();
        runners.dedup();
        assert!(
            (2..=3).contains(&runners.len()),
            "sections ran on {} threads in turn",
            runners.len()
        );
        assert_eq!(runners[0], log[0], "the parked holder serves first");
        for id in &runners {
            let ran = log.iter().filter(|r| *r == id).count();
            assert!(ran <= COMBINE_BOUND as usize, "one hold ran {ran} sections");
        }
        assert_eq!(
            log.iter().filter(|r| **r == log[0]).count(),
            COMBINE_BOUND as usize,
            "a holder with a full queue behind it spends its whole budget"
        );
    }

    #[test]
    fn a_delegated_panic_unwinds_on_the_owner() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let m = Arc::new(McsMutex::new(Vec::<thread::ThreadId>::new()));
        let go = Arc::new(AtomicBool::new(false));
        let holder = {
            let (m, go) = (Arc::clone(&m), Arc::clone(&go));
            thread::spawn(move || {
                let own = m.run(|log| {
                    log.push(thread::current().id());
                    park_until(&go);
                    "intact"
                });
                assert_eq!(own, "intact");
                thread::current().id()
            })
        };
        let tail = wait_for_new_tail(&m, ptr::null_mut());
        let owner = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    m.run(|log| {
                        log.push(thread::current().id());
                        panic!("boom in a section");
                    })
                }));
                let payload = caught.expect_err("the panic must reach the owner");
                assert_eq!(
                    payload.downcast_ref::<&str>().copied(),
                    Some("boom in a section")
                );
            })
        };
        wait_for_new_tail(&m, tail);
        go.store(true, Ordering::Release);
        let holder_id = holder.join().expect("the combiner must not see the panic");
        owner.join().unwrap();
        // Both sections ran, both on the holder's thread; the lock is free.
        assert_eq!(m.run(|log| log.clone()), vec![holder_id, holder_id]);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn a_panicking_own_section_releases_the_lock() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let m = McsMutex::new(0u32);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            m.run(|v| {
                *v += 1;
                panic!("own section");
            })
        }));
        assert!(caught.is_err());
        assert!(!m.lock.is_locked());
        assert_eq!(m.run(|v| *v), 1);
    }

    #[test]
    fn a_delegated_section_reports_its_span_on_the_owner() {
        use crate::probe::EventSink;
        use std::sync::Mutex;

        #[derive(Default)]
        struct Spans {
            acquires: AtomicU64,
            spans: Mutex<Vec<(thread::ThreadId, u64, u64, u64)>>,
        }
        impl EventSink for Spans {
            fn event_n(&self, event: CounterEvent, n: u64) {
                assert_eq!(event, CounterEvent::LockAcquire);
                self.acquires.fetch_add(n, Ordering::Relaxed);
            }
            fn wants_lock_spans(&self) -> bool {
                true
            }
            fn lock_span(&self, wait: u64, acquired: u64, released: u64) {
                let id = thread::current().id();
                self.spans
                    .lock()
                    .unwrap()
                    .push((id, wait, acquired, released));
            }
        }

        let sink = Arc::new(Spans::default());
        let m = Arc::new(McsMutex::with_sink(
            Vec::<thread::ThreadId>::new(),
            Some(sink.clone()),
        ));
        let go = Arc::new(AtomicBool::new(false));
        let holder = {
            let (m, go) = (Arc::clone(&m), Arc::clone(&go));
            thread::spawn(move || {
                m.run(|log| {
                    log.push(thread::current().id());
                    park_until(&go);
                });
                thread::current().id()
            })
        };
        let tail = wait_for_new_tail(&m, ptr::null_mut());
        let owner = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                m.run(|log| log.push(thread::current().id()));
                thread::current().id()
            })
        };
        wait_for_new_tail(&m, tail);
        go.store(true, Ordering::Release);
        let (holder_id, owner_id) = (holder.join().unwrap(), owner.join().unwrap());
        let spans = sink.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        assert_eq!(sink.acquires.load(Ordering::Relaxed), 2);
        for &(_, wait, acquired, released) in spans.iter() {
            assert!(
                wait <= acquired && acquired <= released,
                "span out of order"
            );
        }
        let of = |id| {
            spans
                .iter()
                .find(|s| s.0 == id)
                .expect("one span per owner")
        };
        // The delegated section ran after the holder's own, on its clock.
        assert!(of(holder_id).3 <= of(owner_id).2);
        assert_eq!(*m.lock(), vec![holder_id, holder_id]);
    }

    #[test]
    fn contended_runs_allocate_nothing() {
        const T: usize = 4;
        let m = Arc::new(McsMutex::new(0u64));
        let handles = (0..T)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..100 {
                        m.run(|v| *v += 1);
                    }
                    let warm = node_allocs();
                    for _ in 0..10_000 {
                        m.run(|v| *v += 1);
                    }
                    assert_eq!(node_allocs(), warm, "a contended run allocated a node");
                })
            })
            .collect();
        join_within(handles, Duration::from_secs(20));
        assert_eq!(m.run(|v| *v), (T * 10_100) as u64);
    }

    #[test]
    fn mutex_into_inner_and_get_mut() {
        let mut m = McsMutex::new(5);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn sink_counts_acquisitions() {
        use crate::probe::{CounterEvent, EventSink};
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Count(AtomicU64);
        impl EventSink for Count {
            fn event_n(&self, event: CounterEvent, n: u64) {
                assert_eq!(event, CounterEvent::LockAcquire);
                self.0.fetch_add(n, Ordering::Relaxed);
            }
        }

        let sink = Arc::new(Count::default());
        let m = McsMutex::with_sink(0u32, Some(sink.clone()));
        *m.lock() += 1;
        *m.lock() += 1;
        assert!(m.try_lock().is_some());
        assert_eq!(sink.0.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn counting_sink_is_never_timed() {
        use crate::probe::{CounterEvent, EventSink};
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct CountOnly(AtomicU64);
        impl EventSink for CountOnly {
            fn event_n(&self, _: CounterEvent, n: u64) {
                self.0.fetch_add(n, Ordering::Relaxed);
            }
            fn lock_span(&self, _: u64, _: u64, _: u64) {
                panic!("lock_span reached a sink that did not ask for spans");
            }
        }

        let sink = Arc::new(CountOnly::default());
        let l = McsLock::with_sink(Some(sink.clone()));
        let g = l.lock();
        assert!(
            g.stamps.is_none(),
            "counting sink made lock() read the clock"
        );
        drop(g);
        let g = l.try_lock().expect("uncontended try_lock");
        assert!(
            g.stamps.is_none(),
            "counting sink made try_lock() read the clock"
        );
        drop(g);
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn sink_sees_ordered_lock_spans() {
        use crate::probe::{CounterEvent, EventSink};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Spans {
            acquires: AtomicU64,
            spans: Mutex<Vec<(u64, u64, u64)>>,
        }
        impl EventSink for Spans {
            fn event_n(&self, event: CounterEvent, n: u64) {
                assert_eq!(event, CounterEvent::LockAcquire);
                self.acquires.fetch_add(n, Ordering::Relaxed);
            }
            fn wants_lock_spans(&self) -> bool {
                true
            }
            fn lock_span(&self, wait_start_ns: u64, acquired_ns: u64, released_ns: u64) {
                self.spans
                    .lock()
                    .unwrap()
                    .push((wait_start_ns, acquired_ns, released_ns));
            }
        }

        let sink = Arc::new(Spans::default());
        let l = McsLock::with_sink(Some(sink.clone()));
        drop(l.lock());
        let g = l.try_lock().expect("uncontended try_lock");
        std::hint::black_box(&g);
        drop(g);
        let spans = sink.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.len() as u64, sink.acquires.load(Ordering::Relaxed));
        for &(wait, acq, rel) in spans.iter() {
            assert!(wait <= acq && acq <= rel, "span out of order");
        }
        // Spans from one thread lie on one monotonic timeline.
        assert!(spans[0].2 <= spans[1].1);
    }

    #[test]
    fn guards_are_exclusive_across_threads() {
        // Two threads alternate appending; both observe a consistent Vec.
        let m = Arc::new(McsMutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..2 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for i in 0..500 {
                    let mut v = m.lock();
                    let len = v.len();
                    v.push((t, i, len));
                }
            }));
        }
        join_within(handles, Duration::from_secs(20));
        let v = m.lock();
        assert_eq!(v.len(), 1000);
        for (k, &(_, _, len)) in v.iter().enumerate() {
            assert_eq!(k, len, "no two pushes observed the same length");
        }
    }

    #[test]
    fn cached_nodes_are_reused_not_shared() {
        // Three locks held at once and released first-acquired first,
        // rotating which is first: the three live nodes are always
        // distinct, and after the first round the thread allocates nothing.
        let locks = [McsLock::new(), McsLock::new(), McsLock::new()];
        let round = |r: usize| {
            let mut guards: Vec<Option<McsGuard<'_>>> =
                locks.iter().map(|l| Some(l.lock())).collect();
            let nodes: Vec<*mut QNode> = guards.iter().flatten().map(|g| g.node).collect();
            assert!(nodes[0] != nodes[1] && nodes[1] != nodes[2] && nodes[0] != nodes[2]);
            for k in 0..3 {
                guards[(r + k) % 3] = None;
            }
            assert!(locks.iter().all(|l| !l.is_locked()));
        };
        let before = node_allocs();
        round(0);
        let warm = node_allocs();
        assert!(warm - before <= CACHE_DEPTH);
        for r in 1..10_000 {
            round(r);
            assert_eq!(node_allocs(), warm, "round {r} allocated a node");
        }
    }

    #[test]
    fn nesting_past_the_cache_falls_back_to_box() {
        let locks: Vec<McsLock> = (0..=CACHE_DEPTH).map(|_| McsLock::new()).collect();
        // First pass fills the cache on release (one node is freed); the
        // second finds CACHE_DEPTH nodes cached and boxes the last.
        for pass in 0..2 {
            let before = node_allocs();
            let guards: Vec<McsGuard<'_>> = locks.iter().map(McsLock::lock).collect();
            let boxed = node_allocs() - before;
            assert!(locks.iter().all(McsLock::is_locked));
            assert!(locks.iter().all(|l| l.try_lock().is_none()));
            drop(guards);
            assert!(locks.iter().all(|l| !l.is_locked()));
            if pass == 1 {
                assert_eq!(boxed, 1, "only the node past the cache depth is boxed");
            }
        }
    }

    #[test]
    fn short_lived_threads_and_tls_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // 64 threads that each lock once and exit: each frees its cached
        // node at exit (Miri's leak check is what watches this).
        let m = Arc::new(McsMutex::new(0u32));
        let handles: Vec<_> = (0..64)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || *m.lock() += 1)
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 64);

        // A lock taken from another thread-local's destructor, with the
        // node cache initialised before and after that thread-local so
        // that, whatever order the platform destroys them in, one of the
        // two runs locks after the cache is gone (`try_with` fails) and
        // has to allocate a second node; the other reuses its first.
        struct LocksOnDrop(Arc<McsMutex<u32>>, Arc<AtomicUsize>);
        impl Drop for LocksOnDrop {
            fn drop(&mut self) {
                *self.0.lock() += 1;
                self.1.fetch_add(node_allocs(), Ordering::Relaxed);
            }
        }
        thread_local! {
            static PROBE: Cell<Option<LocksOnDrop>> = const { Cell::new(None) };
        }
        let allocs = Arc::new(AtomicUsize::new(0));
        for cache_first in [true, false] {
            let (m, allocs) = (Arc::clone(&m), Arc::clone(&allocs));
            thread::spawn(move || {
                if cache_first {
                    drop(m.lock());
                }
                PROBE.with(|p| p.set(Some(LocksOnDrop(Arc::clone(&m), allocs))));
                drop(m.lock());
            })
            .join()
            .unwrap();
        }
        assert_eq!(*m.lock(), 66, "both destructors took the lock");
        assert_eq!(allocs.load(Ordering::Relaxed), 1 + 2);
    }
}

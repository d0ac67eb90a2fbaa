//! The list-based queue lock of Mellor-Crummey and Scott (TOCS 1991).
//!
//! Each acquiring thread appends a queue node to a tail pointer with an
//! atomic swap and then spins on a word *in its own node*, so under
//! contention every waiter spins on a distinct cache line and lock handoff
//! causes a single remote write. This is the lock the paper uses for every
//! "bin" and for the non-funnel counters. The simulated queues keep it
//! (`SimMcsLock`); natively every queue sits on [`crate::TtasMutex`], which
//! on a few cores hands a short section on faster than a FIFO queue, and
//! this lock stays for the ledger's `sync.mcs.*` rows and as the hand-off
//! those rows compare against.
//!
//! Queue nodes are recycled through a small per-thread cache: a node is
//! always retired by *its own* thread, after the holder's last touch of it,
//! so taking and returning a node is thread-local and the steady state
//! allocates nothing.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use funnelpq_util::CachePadded;

/// Queue nodes a thread keeps for reuse — the number of MCS locks it can
/// hold at once without allocating. The depth leaves room for callers that
/// nest.
const CACHE_DEPTH: usize = 4;

/// Polls a waiter makes, one `spin_loop` hint apart, before it yields the
/// processor between polls. With a core per thread a hand-off lands within
/// one critical section and the waiter should never yield through it; with
/// more threads than cores the FIFO order hands the lock to waiters that
/// are not running, and every further poll only keeps the core from the
/// thread being waited on. 64 is the measured balance on a 2-core host
/// (sweep in EXPERIMENTS.md, "Ledger rows: MCS hand-off").
const SPIN_BOUND: u32 = 64;

/// [`QNode::state`]: queued, not handed the lock yet.
const WAIT: u32 = 0;
/// [`QNode::state`]: the lock is this node's.
const GO: u32 = 1;

// Aligned like `CachePadded`: a waiter spins on `state` in its own node,
// so two nodes must never share a line (or a prefetched line pair).
#[repr(align(128))]
struct QNode {
    state: AtomicU32,
    next: AtomicPtr<QNode>,
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

/// A queue node in state [`WAIT`] with no successor, owned by the caller
/// until it passes it to [`retire_node`].
#[inline]
fn take_node() -> *mut QNode {
    // `try_with` fails once this thread's cache has been destroyed (a lock
    // taken from another thread-local's destructor); allocate then too.
    if let Ok(Some(node)) = NODE_CACHE.try_with(NodeCache::take) {
        // SAFETY: a cached node is reachable from this thread's cache only.
        // ORDERING: Relaxed twice — nobody else can see the node until the
        // tail swap (AcqRel) in `lock` publishes it.
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
    }))
}

/// Returns a node to this thread's cache, or frees it when the cache is
/// full or gone.
///
/// # Safety
///
/// `node` must come from [`take_node`] and no other thread may still hold
/// a pointer to it: it is off every lock's queue and the holder that
/// handed it the lock has made its last store to it.
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

/// A raw MCS queue lock (no data): [`McsLock::lock`] returns an RAII
/// guard.
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
    tail: CachePadded<AtomicPtr<QNode>>,
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

impl McsLock {
    /// Creates an unlocked MCS lock.
    pub fn new() -> Self {
        McsLock {
            tail: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
        }
    }

    /// Acquires the lock, spinning in FIFO order behind current holders.
    #[inline]
    pub fn lock(&self) -> McsGuard<'_> {
        let node = take_node();
        // ORDERING: AcqRel. Acquire pairs with the Release half of the
        // previous holder's tail CAS `node → null` in `unlock` (its
        // critical sections happen before ours when we find the lock
        // free); Release publishes the node's reset `state`/`next` to the
        // thread that will swap in behind us and to the holder.
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` was the tail before our swap, so its owner
            // cannot finish its release — and so cannot retire the node —
            // before it has read this link: with the tail no longer
            // `pred`, that release waits for it.
            // ORDERING: Release, pairs with the Acquire load of `next` in
            // `unlock`.
            unsafe { (*pred).next.store(node, Ordering::Release) };
            spin_while(|| {
                // SAFETY: `node` is ours until we retire it, which is
                // after we hold and release the lock.
                // ORDERING: Acquire, pairs with the holder's Release store
                // of `GO`: everything earlier holders did happens before.
                unsafe { (*node).state.load(Ordering::Acquire) == WAIT }
            });
        }
        McsGuard { lock: self, node }
    }

    /// Attempts to acquire the lock without waiting. Succeeds only when the
    /// queue is empty.
    #[inline]
    pub fn try_lock(&self) -> Option<McsGuard<'_>> {
        // ORDERING: Relaxed — a hint; the CAS below decides.
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = take_node();
        // ORDERING: AcqRel on success, as the tail swap in `lock`;
        // Relaxed on failure, which publishes and reads nothing.
        match self
            .tail
            .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => Some(McsGuard { lock: self, node }),
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
        !self.tail.load(Ordering::Relaxed).is_null()
    }

    /// Releases the lock held through `node`: swings the tail back to null
    /// if nobody is queued, else hands the lock to the successor, and
    /// retires `node`.
    ///
    /// # Safety
    ///
    /// The calling thread holds the lock through `node`, its own
    /// [`take_node`] node.
    #[inline]
    unsafe fn unlock(&self, node: *mut QNode) {
        // SAFETY (this function's derefs): `node` is ours by the contract
        // above; `next` is parked in `lock` until our `GO` store.
        unsafe {
            // ORDERING: Acquire, pairs with the successor's Release link
            // store in `lock`.
            let mut next = (*node).next.load(Ordering::Acquire);
            // ORDERING: AcqRel on success — Release hands our critical
            // section to the next thread whose tail swap finds null;
            // Acquire on both outcomes orders the `next` re-reads after it.
            if next.is_null()
                && self
                    .tail
                    .compare_exchange(node, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
            {
                // A successor swapped the tail but has not linked in yet;
                // it is between two instructions, so this wait is short.
                spin_while(|| {
                    // ORDERING: Acquire, as for the first load of `next`.
                    next = (*node).next.load(Ordering::Acquire);
                    next.is_null()
                });
            }
            if !next.is_null() {
                // ORDERING: Release, pairs with the owner's Acquire poll:
                // our critical section happens before its own. Our last
                // touch of `next`: it is the new holder's from here.
                (*next).state.store(GO, Ordering::Release);
            }
            // Nothing leads to `node` any more: the tail is off it and a
            // linked successor never reads its predecessor.
            retire_node(node);
        }
    }
}

// SAFETY: the lock protocol only shares heap-allocated queue nodes through
// atomics, and the lock holds no interior data.
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
}

impl Drop for McsGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: the guard is the proof that this thread holds the lock
        // through `node`.
        unsafe { self.lock.unlock(self.node) }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
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

    /// A count kept under an [`McsLock`] by a relaxed load and a separate
    /// store: two holders at once lose an update, so a short count is
    /// broken exclusion.
    #[derive(Default)]
    struct Counter {
        lock: McsLock,
        n: AtomicU64,
    }

    impl Counter {
        fn bump(&self) {
            let _g = self.lock.lock();
            self.bump_held();
        }

        fn try_bump(&self) -> bool {
            self.lock.try_lock().map(|_g| self.bump_held()).is_some()
        }

        /// The count before this bump; the caller holds the lock.
        fn bump_held(&self) -> u64 {
            let n = self.n.load(Ordering::Relaxed);
            self.n.store(n + 1, Ordering::Relaxed);
            n
        }

        fn get(&self) -> u64 {
            let _g = self.lock.lock();
            self.n.load(Ordering::Relaxed)
        }
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
        let c = Arc::new(Counter::default());
        let mut handles = Vec::new();
        for _ in 0..T {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..N {
                    c.bump();
                }
            }));
        }
        // Four threads per core here; about 50 ms of work.
        join_within(handles, Duration::from_secs(20));
        assert_eq!(c.get(), (T * N) as u64);
    }

    #[test]
    fn mixed_waiters_share_one_queue() {
        const N: u64 = 50_000;
        let c = Arc::new(Counter::default());
        let tried = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..N {
                    c.bump();
                }
            }));
        }
        {
            let (c, tried) = (Arc::clone(&c), Arc::clone(&tried));
            handles.push(thread::spawn(move || {
                for _ in 0..N {
                    if c.try_bump() {
                        tried.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        join_within(handles, Duration::from_secs(60));
        assert_eq!(c.get(), 4 * N + tried.load(Ordering::Relaxed));
    }

    #[test]
    fn a_panicking_own_section_releases_the_lock() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let c = Counter::default();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _g = c.lock.lock();
            c.bump_held();
            panic!("own section");
        }));
        assert!(caught.is_err());
        assert!(!c.lock.is_locked());
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn contended_locks_allocate_nothing() {
        const T: usize = 4;
        let c = Arc::new(Counter::default());
        let handles = (0..T)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..100 {
                        c.bump();
                    }
                    let warm = node_allocs();
                    for _ in 0..10_000 {
                        c.bump();
                    }
                    assert_eq!(node_allocs(), warm, "a contended lock allocated a node");
                })
            })
            .collect();
        join_within(handles, Duration::from_secs(20));
        assert_eq!(c.get(), (T * 10_100) as u64);
    }

    #[test]
    fn mutex_into_inner_and_get_mut() {
        // A lock nobody holds keeps no pointer into itself: the lock and
        // the count beside it move, and the count comes back out through
        // `&mut` and by value.
        let mut c = Counter::default();
        c.bump();
        *c.n.get_mut() += 1;
        let moved = c;
        moved.bump();
        assert!(!moved.lock.is_locked());
        assert_eq!(moved.n.into_inner(), 3);
    }

    #[test]
    fn guards_are_exclusive_across_threads() {
        // Two threads alternate bumping; every bump sees a count no other
        // bump saw.
        let c = Arc::new(Counter::default());
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let handles = (0..2)
            .map(|_| {
                let (c, seen) = (Arc::clone(&c), Arc::clone(&seen));
                thread::spawn(move || {
                    let mine: Vec<u64> = (0..500)
                        .map(|_| {
                            let _g = c.lock.lock();
                            c.bump_held()
                        })
                        .collect();
                    seen.lock().unwrap().extend(mine);
                })
            })
            .collect();
        join_within(handles, Duration::from_secs(20));
        let mut all = std::mem::take(&mut *seen.lock().unwrap());
        all.sort_unstable();
        assert_eq!(
            all,
            (0..1000).collect::<Vec<u64>>(),
            "two bumps saw one count"
        );
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
        let c = Arc::new(Counter::default());
        let handles: Vec<_> = (0..64)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || c.bump())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 64);

        // A lock taken from another thread-local's destructor, with the
        // node cache initialised before and after that thread-local so
        // that, whatever order the platform destroys them in, one of the
        // two runs locks after the cache is gone (`try_with` fails) and
        // has to allocate a second node; the other reuses its first.
        struct LocksOnDrop(Arc<Counter>, Arc<AtomicUsize>);
        impl Drop for LocksOnDrop {
            fn drop(&mut self) {
                self.0.bump();
                self.1.fetch_add(node_allocs(), Ordering::Relaxed);
            }
        }
        thread_local! {
            static PROBE: Cell<Option<LocksOnDrop>> = const { Cell::new(None) };
        }
        let allocs = Arc::new(AtomicUsize::new(0));
        for cache_first in [true, false] {
            let (c, allocs) = (Arc::clone(&c), Arc::clone(&allocs));
            thread::spawn(move || {
                if cache_first {
                    drop(c.lock.lock());
                }
                PROBE.with(|p| p.set(Some(LocksOnDrop(Arc::clone(&c), allocs))));
                drop(c.lock.lock());
            })
            .join()
            .unwrap();
        }
        assert_eq!(c.get(), 66, "both destructors took the lock");
        assert_eq!(allocs.load(Ordering::Relaxed), 1 + 2);
    }
}

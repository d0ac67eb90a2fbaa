//! `NumaPq`: a NUMA-adaptive relaxed priority queue — node-local
//! MultiQueues fronted by a delegation layer, with a live mode switch
//! (SmartPQ, arXiv 2406.06900).
//!
//! The structure is the [`crate::MultiQueuePq`] slot array partitioned over
//! a [`Topology`]: each NUMA node owns a contiguous block of heaps, and the
//! node's threads are co-located with them. Two serving disciplines share
//! that structure:
//!
//! * **Oblivious** ([`NumaMode::Oblivious`]): the plain MultiQueue, less
//!   its sticky choice. Every thread inserts into and deletes from any
//!   slot directly; an episode that locks a remote slot is charged three
//!   remote cache-line transfers (lock word, published top, heap data)
//!   against [`Topology::charge`], once however many items it moves.
//!   Cheapest when remote transfers are cheap.
//! * **Delegation** ([`NumaMode::Delegation`]): inserts stay in the
//!   caller's own node partition (zero remote traffic), and a delete-min
//!   whose two-choice winner is homed remotely is *delegated*: the caller
//!   publishes a request in its per-thread slot and spins locally while a
//!   thread co-located with the winning partition pops on its behalf and
//!   writes the response back — two transfers (request read, response
//!   write) instead of three, paid by the server that already owns the hot
//!   lines. Wins when remote transfers are expensive; loses at low
//!   contention, where the request/response round trip is pure overhead.
//!
//! The [`AdaptiveCtl`] flips between the two per epoch from live signals
//! (see [`crate::adaptive`]); every switch-over fires
//! [`CounterEvent::ModeSwitch`]. Delegated service is driven by
//! `serve_pending`, which every thread runs after each of its own
//! operations and periodically while spinning on a response, so requests
//! drain without dedicated server threads; a requester that spins out its
//! budget cancels and self-serves, so no thread ever blocks on an idle
//! peer.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use funnelpq::obs::NoopRecorder;
//! use funnelpq::{BoundedPq, NumaConfig, NumaPq};
//! let q = NumaPq::with_config(16, 4, NumaConfig::default(), Arc::new(NoopRecorder));
//! q.insert(0, 3, "c");
//! q.insert(3, 1, "a");
//! let mut got = vec![q.delete_min(1).unwrap(), q.delete_min(2).unwrap()];
//! got.sort();
//! assert_eq!(got, vec![(1, "a"), (3, "c")]);
//! assert_eq!(q.delete_min(0), None);
//! ```

use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use funnelpq_util::{AtomicRng, CachePadded};

use crate::adaptive::{AdaptiveCtl, AdaptiveStats, NumaMode, Tally};
use crate::algorithm::Algorithm;
use crate::config::NumaConfig;
use crate::heap_array::{pop_many, BufferedHeap, HeapArray, Route, EMPTY_TOP};
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::topology::Topology;
use crate::traits::{check_batch, check_insert, reject, BoundedPq, PqBatchError, PqError};

/// Request-slot state: no request outstanding.
const IDLE: usize = 0;
/// Request published; any thread on the home node may claim it.
const REQ: usize = 1;
/// A server claimed the request and is popping; the response is in flight.
const CLAIMED: usize = 2;
/// Response written; only the requester may consume it and return to IDLE.
const DONE: usize = 3;

/// Spin iterations a requester waits on its response slot before cancelling
/// and self-serving. Deliberately small: on an oversubscribed host the
/// server may not be scheduled, and self-serving (three charged transfers)
/// is always available.
const SPIN_BUDGET: u32 = 512;
/// While spinning, serve the requester's *own* node every this many
/// iterations, so two threads that delegated into each other's nodes
/// unblock each other instead of deadlocking on mutual requests.
const SERVE_EVERY: u32 = 32;
/// While spinning, yield the OS thread every this many iterations — on a
/// host with fewer cores than threads the server needs the CPU.
const YIELD_EVERY: u32 = 64;

/// The response cell of a delegation request slot. Ownership is handed by
/// the `state` machine: the server writes between CLAIMED and DONE, the
/// requester reads after acquiring DONE — never both at once.
struct RespCell<T>(UnsafeCell<Option<(usize, T)>>);

// SAFETY: access is serialized by the request-slot state machine (see
// `RespCell` docs); the cell only ever moves `T: Send` values across
// threads, never shares a `&T`.
unsafe impl<T: Send> Sync for RespCell<T> {}

impl<T> std::fmt::Debug for RespCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RespCell(..)")
    }
}

/// Per-thread state: the choice RNG, the controller tally and this thread's
/// delegation request slot. Padded so a spinning requester and its server
/// never false-share, and no two threads' tallies share a line.
#[derive(Debug)]
struct ThreadCtx<T> {
    rng: AtomicRng,
    /// This thread's controller counts since its last flush.
    tally: Tally,
    /// IDLE → REQ (requester) → CLAIMED (server) → DONE (server) → IDLE
    /// (requester); cancellation is a requester CAS of REQ → IDLE racing
    /// the server's claim.
    state: AtomicUsize,
    /// Which node's partition the delegated delete-min should pop from.
    /// Written before REQ is published, read by the claiming server.
    node: AtomicUsize,
    resp: RespCell<T>,
}

/// The ninth algorithm: the MultiQueue's heap array partitioned over NUMA
/// nodes, with a delegation layer and an adaptive mode switch. See the
/// module docs of `crates/core/src/numa.rs` for the protocol and
/// `docs/ALGORITHMS.md` §9 for the design discussion. Unlike
/// [`crate::MultiQueuePq`] it draws fresh every operation — no sticky
/// choice cache.
#[derive(Debug)]
pub struct NumaPq<T, R: Recorder = NoopRecorder> {
    heaps: HeapArray<T>,
    threads: Box<[CachePadded<ThreadCtx<T>>]>,
    /// Outstanding-request hint per node: bumped on publish, dropped by
    /// whoever wins the claim/cancel race. Purely an optimization — servers
    /// skip the O(threads) scan while their node's count reads zero.
    pending: Box<[CachePadded<AtomicUsize>]>,
    topo: Topology,
    ctl: AdaptiveCtl,
    num_priorities: usize,
    max_threads: usize,
    recorder: Arc<R>,
}

impl<T: Send, R: Recorder> NumaPq<T, R> {
    /// Fully parameterized constructor; see [`NumaConfig`] for the knobs.
    /// The node count is clamped to `max_threads` (an unthreaded node could
    /// never serve), and the queue holds
    /// `max(factor · max_threads, 2 · nodes)` internal heaps so every node
    /// owns at least a two-choice pair.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities`, `max_threads`, `cfg.nodes`, or
    /// `cfg.factor` is zero, or if `num_priorities == usize::MAX`
    /// (reserved sentinel).
    pub fn with_config(
        num_priorities: usize,
        max_threads: usize,
        cfg: NumaConfig,
        recorder: Arc<R>,
    ) -> Self {
        assert!(num_priorities > 0, "need at least one priority");
        assert!(num_priorities < EMPTY_TOP, "priority range too large");
        assert!(max_threads > 0, "need at least one thread");
        assert!(cfg.nodes > 0, "need at least one node");
        assert!(cfg.factor > 0, "need a positive queue factor");
        let nodes = cfg.nodes.min(max_threads);
        let threads = (0..max_threads)
            .map(|tid| {
                CachePadded::new(ThreadCtx {
                    rng: AtomicRng::new(cfg.seed.wrapping_add(tid as u64)),
                    tally: Tally::default(),
                    state: AtomicUsize::new(IDLE),
                    node: AtomicUsize::new(0),
                    resp: RespCell(UnsafeCell::new(None)),
                })
            })
            .collect();
        let pending = (0..nodes)
            .map(|_| CachePadded::new(AtomicUsize::new(0)))
            .collect();
        NumaPq {
            heaps: HeapArray::new((cfg.factor * max_threads).max(2 * nodes).max(2)),
            threads,
            pending,
            topo: Topology::new(nodes, max_threads, cfg.remote_ns),
            ctl: AdaptiveCtl::new(cfg.policy, cfg.epoch_ops, max_threads),
            num_priorities,
            max_threads,
            recorder,
        }
    }

    /// Number of internal heaps.
    pub fn num_queues(&self) -> usize {
        self.heaps.len()
    }

    /// The queue's topology model — benches and chaos harnesses use
    /// [`Topology::set_remote_ns`] to move the emulated remote cost
    /// mid-run.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Serving mode currently in effect.
    pub fn mode(&self) -> NumaMode {
        self.ctl.mode()
    }

    /// Charges `transfers` emulated remote cache-line transfers to thread
    /// `tid`, counting them into its tally.
    #[inline]
    fn charge(&self, tid: usize, transfers: u64) {
        self.threads[tid].tally.note_transfers(transfers);
        self.topo.charge(transfers);
    }

    /// The heap array's event hook for thread `tid`: failed try-locks also
    /// feed the controller's contention signal.
    #[inline]
    fn note(&self, tid: usize) -> impl Fn(CounterEvent) + '_ {
        let tally = &self.threads[tid].tally;
        move |e| {
            if matches!(e, CounterEvent::CasRetry) {
                tally.note_cas_retry();
            }
            if R::ENABLED {
                self.recorder.event(e);
            }
        }
    }

    /// The slots homed on `node`.
    fn partition(&self, node: usize) -> Range<usize> {
        let (lo, hi) = self.topo.slot_range(node, self.heaps.len());
        lo..hi
    }

    /// Whether slot `q` is homed away from `node`.
    fn is_remote(&self, q: usize, node: usize) -> bool {
        self.topo.node_of_slot(q, self.heaps.len()) != node
    }

    /// Passes on what thread `tid` took from a locked heap: taking anything
    /// (not a mere probe) from a remote slot is charged one three-transfer
    /// episode, however many items it took. `remote` is asked only then.
    #[inline]
    fn charged<O>(&self, tid: usize, took: Option<O>, remote: impl FnOnce() -> bool) -> Option<O> {
        if took.is_some() && remote() {
            self.charge(tid, 3);
        }
        took
    }

    /// Closes the bookkeeping for one completed operation (possibly closing
    /// an epoch) and then serves any delegation requests pending on this
    /// thread's node — the whole serving discipline rides piggyback on
    /// ordinary operations.
    fn finish_op(&self, tid: usize, remote_win: Option<bool>) {
        let tally = &self.threads[tid].tally;
        if self.ctl.note_op(tally, remote_win, &self.topo) && R::ENABLED {
            self.recorder.event(CounterEvent::ModeSwitch);
        }
        self.serve_pending(tid, self.topo.node_of_tid(tid));
    }

    /// Pops the best item reachable inside node `node`'s partition: local
    /// two-choice with a definitive blocking sweep of the partition as the
    /// empty fallback. `None` means every slot of the partition was seen
    /// empty. Never charges — the caller is responsible for any remote
    /// accounting.
    fn pop_from_node(&self, tid: usize, node: usize) -> Option<(usize, T)> {
        let rng = &self.threads[tid].rng;
        let note = self.note(tid);
        self.heaps
            .pop(self.partition(node), rng, None, &note, |_, h| h.pop())
            .or_else(|| {
                self.heaps
                    .sweep(self.partition(node), &note, |_, h| h.pop())
            })
    }

    /// Serves every delegation request currently pending on `node` (the
    /// calling thread's home). Each claim pops from the local partition and
    /// hands the response back for two charged transfers — the saving over
    /// the requester's three-transfer direct episode.
    fn serve_pending(&self, tid: usize, node: usize) {
        // ORDERING: Acquire, pairs with the requester's Release bump in
        // `delegate_pop`: a server that sees the count sees the REQ behind
        // it. Only a hint — a missed bump is picked up at the next
        // operation boundary, or self-served by the requester.
        if self.pending[node].load(Ordering::Acquire) == 0 {
            return;
        }
        for ctx in self.threads.iter() {
            let ctx = &**ctx;
            // ORDERING: Acquire on `state`, pairs with the requester's
            // Release store of REQ, which orders its Relaxed `node` store
            // before it; the Relaxed `node` load is a screen only and is
            // re-read under the claim below.
            if ctx.state.load(Ordering::Acquire) != REQ || ctx.node.load(Ordering::Relaxed) != node
            {
                continue;
            }
            // ORDERING: Acquire on success, pairs with the Release store of
            // REQ — the claim is what entitles us to `node` and, later, to
            // the response cell. Failure publishes nothing: Relaxed.
            if ctx
                .state
                .compare_exchange(REQ, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // Lost to the canceller or another server.
            }
            // Re-read the target under the claim's exclusivity: between the
            // screen above and the CAS, the requester may have cancelled
            // and re-published toward a *different* home. Serving whatever
            // was actually claimed keeps the pending counters balanced.
            // ORDERING: Relaxed — ordered after the requester's store by
            // the claiming CAS's Acquire.
            let home = ctx.node.load(Ordering::Relaxed);
            // ORDERING: Release, as every write of the hint; nothing is
            // published by it.
            self.pending[home].fetch_sub(1, Ordering::Release);
            let out = self.pop_from_node(tid, home);
            // Request read + response write: two remote transfers, paid by
            // this server (plus a full remote episode in the rare re-publish
            // race where the claimed home is not the server's own node).
            self.charge(tid, if home == node { 2 } else { 5 });
            // SAFETY: CLAIMED grants this server exclusive access to the
            // cell until it stores DONE: the requester touches it only
            // after acquiring DONE, and no second server can claim a slot
            // that is not in REQ.
            unsafe { *ctx.resp.0.get() = out };
            // ORDERING: Release, pairs with the requester's Acquire load of
            // DONE: publishes the response cell.
            ctx.state.store(DONE, Ordering::Release);
            self.ctl.note_delegated();
        }
    }

    /// Delegates a delete-min against node `home` and spins locally for the
    /// response; cancels and self-serves after [`SPIN_BUDGET`]. `my_node`
    /// is the caller's home (served periodically while spinning).
    fn delegate_pop(&self, tid: usize, home: usize, my_node: usize) -> Option<(usize, T)> {
        let t = &*self.threads[tid];
        // ORDERING: Relaxed, then Release on `state`: a server that
        // acquires REQ sees this `node`. The slot is ours (IDLE) until
        // then.
        t.node.store(home, Ordering::Relaxed);
        t.state.store(REQ, Ordering::Release);
        // ORDERING: Release, pairs with the Acquire load opening
        // `serve_pending`; bumped after REQ so a non-zero count always has
        // a request behind it.
        self.pending[home].fetch_add(1, Ordering::Release);
        let mut spins = 0u32;
        loop {
            // ORDERING: Acquire, pairs with the server's Release store of
            // DONE: the response cell is ours to read.
            if t.state.load(Ordering::Acquire) == DONE {
                break;
            }
            spins += 1;
            if spins >= SPIN_BUDGET {
                // Cancel: the CAS races the server's claim; whoever wins
                // owns the pending decrement.
                // ORDERING: Acquire/Relaxed as the server's claim; taking
                // our own request back publishes nothing.
                if t.state
                    .compare_exchange(REQ, IDLE, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    // ORDERING: Release, as every write of the hint.
                    self.pending[home].fetch_sub(1, Ordering::Release);
                    self.ctl.note_self_served();
                    let out = self.pop_from_node(tid, home);
                    self.charge(tid, 3);
                    return out;
                }
                // A server claimed it concurrently: its response is owed
                // and imminent; keep spinning for it.
                spins = SPIN_BUDGET - YIELD_EVERY;
            }
            if spins.is_multiple_of(SERVE_EVERY) {
                self.serve_pending(tid, my_node);
            }
            if spins.is_multiple_of(YIELD_EVERY) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: DONE grants the requester exclusive access until it
        // stores IDLE: the server is finished with the cell, and no other
        // server can claim a slot that is not in REQ.
        let out = unsafe { (*t.resp.0.get()).take() };
        // ORDERING: Release — keeps the cell read above before the slot
        // reads IDLE; the next reader of `state` is our own next request.
        t.state.store(IDLE, Ordering::Release);
        out
    }

    /// One insert episode under the current mode: `file` runs on a heap
    /// drawn from the caller's own partition in delegation mode (zero
    /// remote traffic), from anywhere — with a remote episode charged — in
    /// oblivious mode.
    fn push_with(&self, tid: usize, file: impl FnOnce(&mut BufferedHeap<T>)) {
        let my_node = self.topo.node_of_tid(tid);
        let oblivious = self.ctl.mode() == NumaMode::Oblivious;
        let range = if oblivious {
            self.heaps.all()
        } else {
            self.partition(my_node)
        };
        let rng = &self.threads[tid].rng;
        let q = self.heaps.push(range, rng, None, &self.note(tid), file);
        if oblivious && self.is_remote(q, my_node) {
            self.charge(tid, 3);
        }
    }

    /// One delete episode under the current mode. `take` runs on a locked
    /// two-choice winner and may take several items, charged as one remote
    /// episode however many; a delegated winner and the empty-pair sweep
    /// yield one item each. Also returns whether the *first* two-choice
    /// draw picked a remote winner — the mode-independent contention signal
    /// the controller feeds on.
    fn delete_episode<O>(
        &self,
        tid: usize,
        mut take: impl FnMut(&mut BufferedHeap<T>) -> Option<O>,
    ) -> (Option<Took<O, T>>, Option<bool>) {
        let my_node = self.topo.node_of_tid(tid);
        let rng = &self.threads[tid].rng;
        let note = self.note(tid);
        let mut first_draw_remote = None;
        // Global two-choice draw in both modes, so the remote-win rate
        // reads the same either way; in delegation mode a remote winner is
        // routed through its home node instead of being locked from here.
        let winner_remote = Cell::new(false);
        let route = |q: usize| {
            let home = self.topo.node_of_slot(q, self.heaps.len());
            let remote = home != my_node;
            winner_remote.set(remote);
            first_draw_remote.get_or_insert(remote);
            if !remote || self.ctl.mode() != NumaMode::Delegation {
                return Route::Lock;
            }
            let out = if self.topo.has_server(tid, home) {
                self.delegate_pop(tid, home, my_node)
            } else {
                // Nobody could ever serve: direct three-transfer pop.
                self.ctl.note_self_served();
                let out = self.pop_from_node(tid, home);
                self.charge(tid, 3);
                out
            };
            // `None`: the partition was empty by service time and its tops
            // are repaired; redraw globally.
            out.map_or(Route::Redraw, |e| Route::Served(Took::One(e)))
        };
        let locked = |_, h: &mut BufferedHeap<T>| {
            self.charged(tid, take(h), || winner_remote.get())
                .map(Took::Locked)
        };
        let swept = |q, h: &mut BufferedHeap<T>| {
            self.charged(tid, h.pop(), || self.is_remote(q, my_node))
                .map(Took::One)
        };
        let out = self
            .heaps
            .pop_routed(self.heaps.all(), rng, None, &note, route, locked)
            .or_else(|| self.heaps.sweep(self.heaps.all(), &note, swept));
        (out, first_draw_remote)
    }
}

/// What one delete episode took: whatever the caller's closure made of a
/// locked winner, or the one item a delegated pop or the sweep yields.
enum Took<O, T> {
    Locked(O),
    One((usize, T)),
}

impl<T> Took<(usize, T), T> {
    /// The item of a single delete, however it was taken.
    fn item(self) -> (usize, T) {
        match self {
            Took::Locked(e) | Took::One(e) => e,
        }
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for NumaPq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::NumaPq
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
        self.finish_op(tid, None);
        Ok(())
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let (out, remote_win) = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            self.delete_episode(tid, BufferedHeap::pop)
        });
        let out = out.map(Took::item);
        self.finish_op(tid, remote_win);
        if R::ENABLED && out.is_none() {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // The whole batch lands in one slot under one lock episode: node-local
    // in delegation mode, anywhere (with the remote episode charged) in
    // oblivious mode.
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
        self.finish_op(tid, None);
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    // A locked two-choice winner gives up to `k - taken` items under one
    // hold, as in `MultiQueuePq` (a remote one charged one episode); a
    // delegated winner and the empty-pair sweep give one item each, so the
    // mailbox carries singles only. One timing span; the whole batch
    // counts as one operation against the adaptive epoch and fires one
    // `BatchOp`.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let mut remote_win = None;
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            let mut taken = 0;
            while taken < k {
                let (took, win) = self.delete_episode(tid, |h| pop_many(h, k - taken, out));
                remote_win = remote_win.or(win);
                match took {
                    Some(Took::Locked(n)) => taken += n,
                    Some(Took::One(e)) => {
                        out.push(e);
                        taken += 1;
                    }
                    None => break,
                }
            }
            taken
        });
        self.finish_op(tid, remote_win);
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    // Fused as delete-then-insert: the delete may be delegated, the insert
    // follows the mode's placement; one timing span, one `BatchOp`, one
    // operation against the adaptive epoch.
    fn replace_min(&self, tid: usize, pri: usize, item: T) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if let Err(e) = check_insert(tid, pri, self.max_threads, self.num_priorities, ()) {
            reject(&e);
        }
        let mut remote_win = None;
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            let (removed, win) = self.delete_episode(tid, BufferedHeap::pop);
            remote_win = win;
            self.push_with(tid, |h| h.push(pri, item));
            removed.map(Took::item)
        });
        self.finish_op(tid, remote_win);
        obs::record_batch_op(&*self.recorder, 1);
        if R::ENABLED && out.is_none() {
            self.recorder.event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // Delegated deletes interleave other threads' service episodes into a
    // drain, so batch-internal order does not isolate this queue's own
    // relaxation; keep the conservative default.
    fn ordered_batch_drain(&self) -> bool {
        false
    }

    fn is_empty(&self) -> bool {
        self.heaps.is_empty()
    }

    fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        Some(self.ctl.stats(self.threads.iter().map(|t| &t.tally)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::NumaPolicy;
    use crate::traits::Consistency;
    use std::collections::BTreeSet;

    fn queue<T: Send>(num_priorities: usize, max_threads: usize, cfg: NumaConfig) -> NumaPq<T> {
        NumaPq::with_config(num_priorities, max_threads, cfg, Arc::new(NoopRecorder))
    }

    fn cfg() -> NumaConfig {
        NumaConfig::default()
    }

    #[test]
    fn conserves_elements_single_thread() {
        let q = queue(32, 1, cfg());
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
    fn conserves_elements_in_pinned_delegation_mode() {
        // Two threads on two nodes, all deletes from thread 0: node 1 does
        // have a would-be server (thread 1), so every remote winner walks
        // the whole mailbox — publish, spin out the budget with nobody
        // scheduled to claim, cancel by CAS, self-serve.
        let q = queue(
            32,
            2,
            NumaConfig {
                policy: NumaPolicy::Pinned(NumaMode::Delegation),
                ..cfg()
            },
        );
        assert_eq!(q.mode(), NumaMode::Delegation);
        assert!(q.topo.has_server(0, 1));
        // Delegation-mode inserts are node-local: odd items sit in node 1's
        // partition, remote to the thread that drains them.
        for i in 0..100usize {
            q.insert(i % 2, (i * 7) % 32, i);
        }
        let self_served = || q.adaptive_stats().unwrap().self_served;
        let mut got = BTreeSet::new();
        let (mut via_mailbox, mut via_sweep) = (0, 0);
        loop {
            let before = self_served();
            let Some((_, item)) = q.delete_min(0) else {
                break;
            };
            assert!(got.insert(item), "item {item} returned twice");
            match (item % 2 == 1, self_served() - before) {
                (true, 1) => via_mailbox += 1,
                // The empty-pair sweep locks directly, remote slots too.
                (true, 0) => via_sweep += 1,
                (false, 0) => {}
                (remote, n) => panic!("{n} cancels for one pop (remote: {remote})"),
            }
        }
        assert_eq!(got.len(), 100);
        assert!(q.is_empty());
        let s = q.adaptive_stats().unwrap();
        assert_eq!(s.mode, NumaMode::Delegation);
        assert_eq!(s.switches, 0);
        assert_eq!(via_mailbox + via_sweep, 50, "every remote item came back");
        assert!(via_mailbox >= 45, "remote pops bypassed the mailbox: {s:?}");
        assert_eq!(s.self_served, via_mailbox, "one cancel per mailbox pop");
        assert_eq!(s.delegated, 0, "nobody ran to claim a request");
        for node in q.pending.iter() {
            assert_eq!(node.load(Ordering::Relaxed), 0, "pending hint leaked");
        }
        for t in q.threads.iter() {
            assert_eq!(t.state.load(Ordering::Relaxed), IDLE, "mailbox not reset");
        }
    }

    #[test]
    fn concurrent_delegation_conserves_and_delegates() {
        // Four threads on two nodes, delegation pinned: remote winners are
        // served cross-thread. Conservation must hold and some requests
        // must actually flow through the protocol.
        use std::sync::Arc as StdArc;
        const T: usize = 4;
        const N: usize = 800;
        let q = StdArc::new(queue(
            16,
            T,
            NumaConfig {
                policy: NumaPolicy::Pinned(NumaMode::Delegation),
                ..cfg()
            },
        ));
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
        let s = q.adaptive_stats().unwrap();
        assert!(
            s.delegated + s.self_served > 0,
            "delegation mode never exercised the protocol: {s:?}"
        );
    }

    #[test]
    fn adaptive_mode_switches_under_emulated_remote_cost() {
        // Sequential workload, tiny epochs: with a huge emulated remote
        // cost the controller must leave oblivious mode, and dropping the
        // cost to zero must bring it back.
        let q = queue(
            16,
            2,
            NumaConfig {
                epoch_ops: 16,
                ..cfg()
            },
        );
        assert_eq!(q.mode(), NumaMode::Oblivious);
        q.topology().set_remote_ns(2_000);
        for i in 0..400usize {
            q.insert(0, i % 16, i);
            q.delete_min(0);
        }
        assert_eq!(q.mode(), NumaMode::Delegation, "{:?}", q.adaptive_stats());
        q.topology().set_remote_ns(0);
        for i in 0..400usize {
            q.insert(0, i % 16, i);
            q.delete_min(0);
        }
        assert_eq!(q.mode(), NumaMode::Oblivious, "{:?}", q.adaptive_stats());
        let s = q.adaptive_stats().unwrap();
        assert!(s.switches >= 2, "expected a there-and-back flip: {s:?}");
        assert!(s.remote_transfers > 0, "remote episodes were never charged");
    }

    #[test]
    fn batch_ops_conserve_elements() {
        let q = queue(32, 1, cfg());
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
    fn a_batched_delete_from_one_heap_is_one_lock_acquisition() {
        use crate::obs::AtomicRecorder;
        // One thread: one node, two heaps. The batch lands in one of them,
        // so every pair names that heap as the winner.
        let rec = Arc::new(AtomicRecorder::new());
        let q = NumaPq::with_config(8, 1, cfg(), Arc::clone(&rec));
        assert_eq!(q.num_queues(), 2);
        q.insert_batch(0, (0..10).map(|i| (i % 8, i)).collect())
            .unwrap();
        let locks = || rec.snapshot().event(CounterEvent::LockAcquire);
        let before = locks();
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(0, 8, &mut out), 8);
        assert_eq!(locks() - before, 1, "one heap episode for the batch");
        let pris: Vec<usize> = out.iter().map(|e| e.0).collect();
        assert_eq!(pris, [0, 0, 1, 1, 2, 3, 4, 5], "one heap pops in order");
    }

    #[test]
    fn batch_insert_validates_without_filing() {
        let q = queue(4, 1, cfg());
        let err = q.insert_batch(0, vec![(0, 'a'), (9, 'x')]).unwrap_err();
        assert_eq!(err.failed_pri, 9);
        assert_eq!(err.unconsumed_len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn replace_min_on_empty_queue_still_files() {
        let q = queue(8, 1, cfg());
        assert_eq!(q.replace_min(0, 3, "x"), None);
        assert_eq!(q.delete_min(0), Some((3, "x")));
        assert!(q.is_empty());
    }

    #[test]
    fn reports_relaxed_consistency_and_stats() {
        let q: NumaPq<()> = queue(4, 1, cfg());
        assert_eq!(q.algorithm(), Algorithm::NumaPq);
        assert_eq!(q.consistency(), Consistency::Relaxed);
        assert!(q.adaptive_stats().is_some());
        assert!(q.num_queues() >= 2);
    }

    #[test]
    fn try_insert_returns_the_item() {
        let q = queue(4, 1, cfg());
        let err = q.try_insert(0, 9, "hot").unwrap_err();
        assert_eq!(err.into_item(), "hot");
        let err = q.try_insert(5, 0, "tid").unwrap_err();
        assert_eq!(err.into_item(), "tid");
        assert!(q.is_empty());
    }

    #[test]
    fn every_node_owns_a_two_choice_pair() {
        // factor 1 on one thread would give a single heap; the 2·nodes
        // floor must kick in.
        let q: NumaPq<u64> = queue(
            8,
            2,
            NumaConfig {
                factor: 1,
                nodes: 2,
                ..cfg()
            },
        );
        assert!(q.num_queues() >= 4);
        // And a node count beyond the thread count is clamped.
        let q: NumaPq<u64> = queue(8, 2, NumaConfig { nodes: 64, ..cfg() });
        assert_eq!(q.topology().nodes(), 2);
    }
}

//! The binary heap the heap-backed twins keep in simulated memory, written
//! once: [`SimHeap`] is one heap of `[pri, item]` words behind whatever
//! lock its owner brings ([`crate::queues::SimSingleLock`]'s MCS lock);
//! [`SimHeapArray`] is many of them, each behind its own try-lock word and
//! publishing its root for lockless sampling
//! ([`crate::queues::SimMultiQueue`], [`crate::queues::SimNumaPq`]).
//!
//! Which queue an operation picks stays with the twins; this module only
//! fixes what touching a queue costs. The order of reads, writes and work
//! in here *is* the twins' cycle count:
//! `sim_conformance::heap_backed_twins_match_their_golden_cycle_counts`
//! pins it.

use std::num::NonZeroUsize;

use funnelpq_sim::{Addr, Machine, ProcCtx};

use crate::costs;

/// Published-top sentinel for an empty queue; orders after every real
/// priority.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Per-queue header words of a [`SimHeapArray`] region, before the heap
/// entries: lock, top, size.
const HDR: usize = 3;

/// A size word and `capacity` `[pri, item]` entries in simulated memory, so
/// the time its owner's lock is held grows with the heap operations' real
/// memory traffic. The caller holds that lock around `push` and `pop`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimHeap {
    size: Addr,
    entries: Addr,
    capacity: usize,
    /// Where to republish the root (or [`EMPTY`]) after every change: a
    /// [`SimHeapArray`] queue's top word. Done in here, not around the
    /// call, so an array queue costs no extra future per heap access. One
    /// word (a top word follows its lock word, so it is never address 0):
    /// two made `SimSingleLock` the largest `SimPq` variant, and the eight
    /// bytes that added to one host allocation per run moved the run's
    /// whole malloc layout (pqbench `sim_p256`: 20 % more page faults).
    top: Option<NonZeroUsize>,
}

impl SimHeap {
    /// Allocates the size word, then the entries, as two regions.
    pub(crate) fn build(m: &mut Machine, capacity: usize) -> Self {
        let size = m.alloc(1);
        let entries = m.alloc(2 * capacity.max(1));
        m.label(size, 1, "heap size word");
        m.label(entries, 2 * capacity.max(1), "heap entries");
        SimHeap {
            size,
            entries,
            capacity,
            top: None,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    fn pri_addr(&self, i: u64) -> Addr {
        self.entries + 2 * i as usize
    }
    fn item_addr(&self, i: u64) -> Addr {
        self.entries + 2 * i as usize + 1
    }

    /// Appends `(pri, item)` and sifts it up. False if the heap is full
    /// (heap and top unchanged).
    pub(crate) async fn push(self, ctx: &ProcCtx, pri: u64, item: u64) -> bool {
        let n = ctx.read(self.size).await;
        if n as usize >= self.capacity {
            return false;
        }
        ctx.write(self.pri_addr(n), pri).await;
        ctx.write(self.item_addr(n), item).await;
        ctx.write(self.size, n + 1).await;
        {
            let _bubble = ctx.span("heap-bubble");
            let mut i = n;
            while i > 0 {
                ctx.work(costs::SIFT_STEP).await;
                let parent = (i - 1) / 2;
                let ppri = ctx.read(self.pri_addr(parent)).await;
                if pri >= ppri {
                    break;
                }
                // Swap child and parent entries.
                let pitem = ctx.read(self.item_addr(parent)).await;
                ctx.write(self.pri_addr(i), ppri).await;
                ctx.write(self.item_addr(i), pitem).await;
                ctx.write(self.pri_addr(parent), pri).await;
                ctx.write(self.item_addr(parent), item).await;
                i = parent;
            }
        }
        if let Some(top) = self.top {
            let root = ctx.read(self.pri_addr(0)).await;
            ctx.write(top.get(), root).await;
        }
        true
    }

    /// Removes the minimum, moving the last entry to the root and sifting
    /// it down. `None` from an empty heap still republishes the top, which
    /// repairs a stale one so later probes skip this queue.
    pub(crate) async fn pop(self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        let n = ctx.read(self.size).await;
        if n == 0 {
            if let Some(top) = self.top {
                ctx.write(top.get(), EMPTY).await;
            }
            return None;
        }
        let min_pri = ctx.read(self.pri_addr(0)).await;
        let min_item = ctx.read(self.item_addr(0)).await;
        let last = n - 1;
        ctx.write(self.size, last).await;
        if last > 0 {
            let _bubble = ctx.span("heap-bubble");
            let pri = ctx.read(self.pri_addr(last)).await;
            let item = ctx.read(self.item_addr(last)).await;
            ctx.write(self.pri_addr(0), pri).await;
            ctx.write(self.item_addr(0), item).await;
            let mut i = 0u64;
            loop {
                ctx.work(costs::SIFT_STEP).await;
                let l = 2 * i + 1;
                let r = 2 * i + 2;
                if l >= last {
                    break;
                }
                let lpri = ctx.read(self.pri_addr(l)).await;
                let (c, cpri) = if r < last {
                    let rpri = ctx.read(self.pri_addr(r)).await;
                    if rpri < lpri {
                        (r, rpri)
                    } else {
                        (l, lpri)
                    }
                } else {
                    (l, lpri)
                };
                if cpri >= pri {
                    break;
                }
                let citem = ctx.read(self.item_addr(c)).await;
                ctx.write(self.pri_addr(i), cpri).await;
                ctx.write(self.item_addr(i), citem).await;
                ctx.write(self.pri_addr(c), pri).await;
                ctx.write(self.item_addr(c), item).await;
                // Our entry's values are unchanged; its position is now c.
                i = c;
            }
            if let Some(top) = self.top {
                let root = ctx.read(self.pri_addr(0)).await;
                ctx.write(top.get(), root).await;
            }
        } else if let Some(top) = self.top {
            ctx.write(top.get(), EMPTY).await;
        }
        Some((min_pri, min_item))
    }

    /// Host-side item count (no simulated cost; meaningful at quiescence).
    pub(crate) fn peek_len(&self, m: &Machine) -> u64 {
        m.peek(self.size)
    }

    /// Host-side root priority; meaningful only while `peek_len > 0`.
    fn peek_root(&self, m: &Machine) -> u64 {
        m.peek(self.pri_addr(0))
    }

    /// Structural validation at quiescence: size within capacity and the
    /// heap property over the live entries. Returns the item count.
    pub(crate) fn validate(&self, m: &Machine) -> Result<u64, String> {
        let n = m.peek(self.size);
        if n as usize > self.capacity {
            return Err(format!("size {n} exceeds capacity {}", self.capacity));
        }
        for i in 1..n {
            let ppri = m.peek(self.pri_addr((i - 1) / 2));
            let cpri = m.peek(self.pri_addr(i));
            if ppri > cpri {
                return Err(format!(
                    "heap violation at entry {i}: parent pri {ppri} > child pri {cpri}"
                ));
            }
        }
        Ok(n)
    }
}

/// Many [`SimHeap`]s, each in its own allocation behind a three-word header
/// (allocations are line-aligned, so distinct queues never share a cache
/// line): a try-lock word, the published `top` priority — the heap's root,
/// or [`EMPTY`]; readable without the lock, which is what makes a
/// two-choice probe cheap — and the size word.
#[derive(Debug, Clone)]
pub(crate) struct SimHeapArray {
    /// Base address of each queue's region (`HDR + 2 * cap_q` words).
    queues: Vec<Addr>,
    /// Per-queue heap capacity.
    cap_q: usize,
}

impl SimHeapArray {
    /// `nqueues` queues whose combined capacity is at least `capacity`.
    /// `alloc(m, qi, words)` places (and labels) queue `qi`'s region — flat,
    /// or homed on a NUMA node.
    pub(crate) fn build(
        m: &mut Machine,
        nqueues: usize,
        capacity: usize,
        mut alloc: impl FnMut(&mut Machine, usize, usize) -> Addr,
    ) -> Self {
        let cap_q = capacity.max(1).div_ceil(nqueues);
        let queues = (0..nqueues)
            .map(|qi| {
                let base = alloc(m, qi, HDR + 2 * cap_q);
                // Fresh memory is zeroed; an all-zero top would read as "a
                // priority-0 item is present".
                m.poke(base + 1, EMPTY);
                base
            })
            .collect();
        SimHeapArray { queues, cap_q }
    }

    /// Number of queues.
    pub(crate) fn len(&self) -> usize {
        self.queues.len()
    }

    /// Combined capacity of all queues.
    pub(crate) fn capacity(&self) -> usize {
        self.cap_q * self.queues.len()
    }

    fn lock_addr(&self, q: usize) -> Addr {
        self.queues[q]
    }

    fn top_addr(&self, q: usize) -> Addr {
        self.queues[q] + 1
    }

    /// Queue `q`'s heap, republishing `q`'s top after every change (a `pop`
    /// that finds it empty repairs a stale top, so later probes skip this
    /// queue). The caller holds `q`'s lock around `push` and `pop`.
    pub(crate) fn heap(&self, q: usize) -> SimHeap {
        SimHeap {
            size: self.queues[q] + 2,
            entries: self.queues[q] + HDR,
            capacity: self.cap_q,
            top: NonZeroUsize::new(self.top_addr(q)),
        }
    }

    /// Queue `q`'s published top: one plain read, no lock.
    pub(crate) async fn read_top(&self, ctx: &ProcCtx, q: usize) -> u64 {
        ctx.read(self.top_addr(q)).await
    }

    /// One CAS on the lock word; true iff we now hold the lock.
    pub(crate) async fn try_lock(&self, ctx: &ProcCtx, q: usize) -> bool {
        ctx.cas(self.lock_addr(q), 0, ctx.pid() as u64 + 1).await == 0
    }

    /// Spins (test-and-set with backoff work) until the lock is ours. Only
    /// fallback paths use this; the fast paths never wait.
    pub(crate) async fn lock_blocking(&self, ctx: &ProcCtx, q: usize) {
        while !self.try_lock(ctx, q).await {
            ctx.work(costs::FUNNEL_SPIN_STEP).await;
        }
    }

    pub(crate) async fn unlock(&self, ctx: &ProcCtx, q: usize) {
        ctx.write(self.lock_addr(q), 0).await;
    }

    /// Slow path when a sampled pair looks empty: scan every published top
    /// lock-free, in order from queue `start`, and pop from the first queue
    /// showing an item. Tops are published under the queue lock, so during
    /// a sequential drain they are exact and a full-EMPTY scan is a true
    /// emptiness proof; during a concurrent phase a racing operation can
    /// make the scan miss — a spurious empty, which relaxed semantics
    /// permits. Locking every queue here instead would turn each near-empty
    /// delete into `O(P)` CAS traffic and convoy concurrent sweepers behind
    /// each other.
    pub(crate) async fn sweep(&self, ctx: &ProcCtx, start: usize) -> Option<(u64, u64)> {
        let nq = self.queues.len();
        for step in 0..nq {
            let q = (start + step) % nq;
            ctx.work(costs::LOOP_ITER).await;
            if self.read_top(ctx, q).await == EMPTY {
                continue;
            }
            if !self.try_lock(ctx, q).await {
                // Whoever holds the lock is mid-operation; move on.
                continue;
            }
            let hold = ctx.span("lock-hold");
            let got = self.heap(q).pop(ctx).await;
            hold.end();
            self.unlock(ctx, q).await;
            if got.is_some() {
                return got;
            }
        }
        None
    }

    /// Host-side item count (no simulated cost; meaningful at quiescence).
    pub(crate) fn peek_len(&self, m: &Machine) -> u64 {
        (0..self.queues.len())
            .map(|q| self.heap(q).peek_len(m))
            .sum()
    }

    /// Structural validation at quiescence: every lock free, every heap
    /// valid, and each published top equal to its heap's root (or
    /// [`EMPTY`]). Errors are prefixed with `what`, the owning twin's name.
    /// Returns the total item count.
    pub(crate) fn validate(&self, m: &Machine, what: &str) -> Result<u64, String> {
        let mut total = 0u64;
        for q in 0..self.queues.len() {
            if m.peek(self.lock_addr(q)) != 0 {
                return Err(format!("{what}: queue {q} lock held at quiescence"));
            }
            let heap = self.heap(q);
            let n = heap
                .validate(m)
                .map_err(|e| format!("{what}: queue {q} {e}"))?;
            let top = m.peek(self.top_addr(q));
            let want = if n == 0 { EMPTY } else { heap.peek_root(m) };
            if top != want {
                return Err(format!(
                    "{what}: queue {q} published top {top} disagrees with heap root {want}"
                ));
            }
            total += n;
        }
        Ok(total)
    }
}

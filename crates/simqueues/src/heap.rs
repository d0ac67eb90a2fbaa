//! The binary heap the heap-backed twins keep in simulated memory, written
//! once: [`SimHeap`] is one heap of `[pri, item]` words behind whatever
//! lock its owner brings ([`crate::queues::SimSingleLock`]'s MCS lock);
//! [`SimHeapArray`] is many queues, each a [`SimSlot`] — a sorted deletion
//! buffer in front of a [`SimHeap`] — behind its own try-lock word and
//! publishing its minimum for lockless sampling
//! ([`crate::queues::SimMultiQueue`], [`crate::queues::SimNumaPq`]).
//!
//! Which queue an operation picks stays with the twins; this module only
//! fixes what touching a queue costs. The order of reads, writes and work
//! in here *is* the twins' cycle count:
//! `sim_conformance::heap_backed_twins_match_their_golden_cycle_counts`
//! pins it.

use funnelpq_sim::{Addr, Machine, ProcCtx};

use crate::costs;

/// Published-top sentinel for an empty queue; orders after every real
/// priority.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Per-queue header words of a [`SimHeapArray`] region, before the buffer
/// and heap entries: lock, top, heap size, buffer length.
const HDR: usize = 4;

/// Most entries a [`SimSlot`]'s deletion buffer holds: the native slot's
/// `heap_array::BUFFER`.
const BUFFER: usize = 16;

/// A size word and `capacity` `[pri, item]` entries in simulated memory, so
/// the time its owner's lock is held grows with the heap operations' real
/// memory traffic. The caller holds that lock around `push` and `pop`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimHeap {
    size: Addr,
    entries: Addr,
    capacity: usize,
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
        true
    }

    /// Removes the minimum, moving the last entry to the root and sifting
    /// it down.
    pub(crate) async fn pop(self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        let n = ctx.read(self.size).await;
        if n == 0 {
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

/// One [`SimHeapArray`] queue: a sorted deletion buffer of at most
/// [`BUFFER`] `[pri, item]` entries in front of a [`SimHeap`] — the native
/// `heap_array::BufferedHeap`, rule for rule, so a twin returns the same
/// items as its native queue, equal priorities included. The buffer is
/// stored largest first, its front (the minimum) at index `len - 1`: a pop
/// costs one entry, and the entries in use always start at the region's
/// first line. Every buffered entry is at most every heap entry, and the
/// buffer is empty only when the heap is: its front is the queue's
/// minimum, which every operation republishes as the queue's top. The
/// caller holds the queue's lock around `push` and `pop`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimSlot {
    /// The queue's region: header words, then the buffer's entries.
    base: Addr,
    heap: SimHeap,
}

impl SimSlot {
    fn top_addr(&self) -> Addr {
        self.base + 1
    }
    fn len_addr(&self) -> Addr {
        self.base + 3
    }
    /// Word of buffered entry `i`, counted from the largest.
    fn buf_addr(&self, i: u64) -> Addr {
        self.base + HDR + 2 * i as usize
    }

    /// Moves buffered entry `from` to `to`: a read and a write per word.
    async fn move_entry(self, ctx: &ProcCtx, from: u64, to: u64) {
        let (from, to) = (self.buf_addr(from), self.buf_addr(to));
        let pri = ctx.read(from).await;
        let item = ctx.read(from + 1).await;
        ctx.write(to, pri).await;
        ctx.write(to + 1, item).await;
    }

    /// Files `(pri, item)`: below the buffer's largest entry into the
    /// buffer at its sorted place (after its equals), the largest moving
    /// to the heap if the buffer is full; else at the buffer's end while
    /// the heap is empty and the buffer has room; else into the heap.
    /// False if the queue holds its capacity already (queue and top
    /// unchanged).
    pub(crate) async fn push(self, ctx: &ProcCtx, pri: u64, item: u64) -> bool {
        let n = ctx.read(self.len_addr()).await;
        let held = ctx.read(self.heap.size).await;
        if (n + held) as usize >= self.heap.capacity {
            return false;
        }
        let largest = if n == 0 {
            None
        } else {
            Some(ctx.read(self.buf_addr(0)).await)
        };
        // Where `(pri, item)` lands, after its arm has made room there,
        // and the buffer's length then.
        let (at, len) = match largest {
            Some(largest) if pri < largest && n as usize == BUFFER => {
                let largest_item = ctx.read(self.buf_addr(0) + 1).await;
                self.heap.push(ctx, largest, largest_item).await;
                // The entries above `pri` move one place towards the
                // freed slot 0.
                let mut i = 0;
                while i + 1 < n {
                    ctx.work(costs::SIFT_STEP).await;
                    if ctx.read(self.buf_addr(i + 1)).await <= pri {
                        break;
                    }
                    self.move_entry(ctx, i + 1, i).await;
                    i += 1;
                }
                (i, n)
            }
            Some(largest) if pri < largest => {
                // The entries at or below `pri` move one place up.
                let mut i = n;
                loop {
                    ctx.work(costs::SIFT_STEP).await;
                    if ctx.read(self.buf_addr(i - 1)).await > pri {
                        break;
                    }
                    self.move_entry(ctx, i - 1, i).await;
                    i -= 1;
                }
                ctx.write(self.len_addr(), n + 1).await;
                (i, n + 1)
            }
            _ if held == 0 && (n as usize) < BUFFER => {
                // The new largest: every entry moves one place up.
                for i in (0..n).rev() {
                    ctx.work(costs::SIFT_STEP).await;
                    self.move_entry(ctx, i, i + 1).await;
                }
                ctx.write(self.len_addr(), n + 1).await;
                (0, n + 1)
            }
            // The buffer is not empty here (an empty one means an empty
            // heap, which the arm above took), and its front stays.
            _ => {
                self.heap.push(ctx, pri, item).await;
                let front = ctx.read(self.buf_addr(n - 1)).await;
                ctx.write(self.top_addr(), front).await;
                return true;
            }
        };
        ctx.write(self.buf_addr(at), pri).await;
        ctx.write(self.buf_addr(at) + 1, item).await;
        let front = ctx.read(self.buf_addr(len - 1)).await;
        ctx.write(self.top_addr(), front).await;
        true
    }

    /// Removes the buffer's front; a buffer that runs dry is refilled from
    /// the heap. `None` from an empty queue still republishes the top,
    /// which repairs a stale one so later probes skip this queue.
    pub(crate) async fn pop(self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        let n = ctx.read(self.len_addr()).await;
        if n == 0 {
            ctx.write(self.top_addr(), EMPTY).await;
            return None;
        }
        let at = self.buf_addr(n - 1);
        let pri = ctx.read(at).await;
        let item = ctx.read(at + 1).await;
        if n > 1 {
            ctx.write(self.len_addr(), n - 1).await;
            let front = ctx.read(self.buf_addr(n - 2)).await;
            ctx.write(self.top_addr(), front).await;
            return Some((pri, item));
        }
        // Refill: the heap's `k` smallest, the first popped (the new
        // front) at index `k - 1`.
        let k = ctx.read(self.heap.size).await.min(BUFFER as u64);
        let mut front = EMPTY;
        for i in (0..k).rev() {
            let (p, x) = self.heap.pop(ctx).await.expect("the heap held k entries");
            ctx.write(self.buf_addr(i), p).await;
            ctx.write(self.buf_addr(i) + 1, x).await;
            front = front.min(p);
        }
        ctx.write(self.len_addr(), k).await;
        ctx.write(self.top_addr(), front).await;
        Some((pri, item))
    }

    /// Host-side item count (no simulated cost; meaningful at quiescence).
    fn peek_len(&self, m: &Machine) -> u64 {
        m.peek(self.len_addr()) + self.heap.peek_len(m)
    }

    /// Structural validation at quiescence: the heap valid, the buffer
    /// sorted, within [`BUFFER`] and empty only with the heap, no buffered
    /// entry above the heap's root, the total within capacity and the
    /// published top the buffer's front (or [`EMPTY`]). Returns the item
    /// count.
    fn validate(&self, m: &Machine) -> Result<u64, String> {
        let held = self.heap.validate(m)?;
        let n = m.peek(self.len_addr());
        if n as usize > BUFFER {
            return Err(format!("buffer length {n} above {BUFFER}"));
        }
        // Front first.
        let pris: Vec<u64> = (0..n).rev().map(|i| m.peek(self.buf_addr(i))).collect();
        if let Some(w) = pris.windows(2).find(|w| w[0] > w[1]) {
            return Err(format!("buffer unsorted: {} before {}", w[0], w[1]));
        }
        match pris.last() {
            None if held > 0 => return Err(format!("empty buffer over {held} heap entries")),
            Some(&last) if held > 0 && last > self.heap.peek_root(m) => {
                return Err(format!(
                    "buffered pri {last} above heap root {}",
                    self.heap.peek_root(m)
                ))
            }
            _ => {}
        }
        if (n + held) as usize > self.heap.capacity {
            return Err(format!(
                "{} items exceed capacity {}",
                n + held,
                self.heap.capacity
            ));
        }
        let top = m.peek(self.top_addr());
        let want = pris.first().copied().unwrap_or(EMPTY);
        if top != want {
            return Err(format!(
                "published top {top} disagrees with buffer front {want}"
            ));
        }
        Ok(n + held)
    }
}

/// Many [`SimSlot`]s, each in its own allocation behind a four-word header
/// (allocations are line-aligned, so distinct queues never share a cache
/// line): a try-lock word, the published `top` priority — the queue's
/// minimum, or [`EMPTY`]; readable without the lock, which is what makes a
/// two-choice probe cheap — the heap's size word and the buffer's length
/// word.
#[derive(Debug, Clone)]
pub(crate) struct SimHeapArray {
    /// Base address of each queue's region (`HDR + 2 * (BUFFER + cap_q)`
    /// words: header, buffer entries, heap entries).
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
                let base = alloc(m, qi, HDR + 2 * (BUFFER + cap_q));
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

    /// Queue `q`, republishing `q`'s top after every change (a `pop` that
    /// finds it empty repairs a stale top, so later probes skip this
    /// queue). The caller holds `q`'s lock around `push` and `pop`.
    pub(crate) fn slot(&self, q: usize) -> SimSlot {
        let base = self.queues[q];
        SimSlot {
            base,
            heap: SimHeap {
                size: base + 2,
                entries: base + HDR + 2 * BUFFER,
                capacity: self.cap_q,
            },
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
            let got = self.slot(q).pop(ctx).await;
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
            .map(|q| self.slot(q).peek_len(m))
            .sum()
    }

    /// Structural validation at quiescence: every lock free and every
    /// queue valid ([`SimSlot`]'s shape, its top included). Errors are
    /// prefixed with `what`, the owning twin's name. Returns the total item
    /// count.
    pub(crate) fn validate(&self, m: &Machine, what: &str) -> Result<u64, String> {
        let mut total = 0u64;
        for q in 0..self.queues.len() {
            if m.peek(self.lock_addr(q)) != 0 {
                return Err(format!("{what}: queue {q} lock held at quiescence"));
            }
            total += self
                .slot(q)
                .validate(m)
                .map_err(|e| format!("{what}: queue {q} {e}"))?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_sim::MachineConfig;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    /// One queue of capacity 64 driven by random fill and drain rounds
    /// (priorities below 4, below 1 000, and strictly descending) against
    /// a sorted multiset: every pop returns a minimum, a full queue refuses
    /// a push, and between rounds the queue validates — the buffer's shape,
    /// its bound against the heap and the published top — and holds what
    /// the model holds.
    #[test]
    fn a_queue_pops_minima_and_keeps_its_shape() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 1);
        let heaps = SimHeapArray::build(&mut m, 1, 64, |m, _, words| m.alloc(words));
        let model: Rc<RefCell<BTreeMap<u64, u64>>> = Rc::default();
        let mut next_desc = 1_000_000u64;
        for round in 0..60u64 {
            let (ctx, slot, seen) = (m.ctx(), heaps.slot(0), Rc::clone(&model));
            let filling = round % 4 < 2;
            let descending = round % 3 == 2;
            let base = next_desc;
            next_desc -= 64;
            m.spawn(async move {
                for i in 0..40u64 {
                    let push = ctx.random_below(10) < if filling { 7 } else { 3 };
                    if push {
                        let pri = match (descending, round % 3) {
                            (true, _) => base - i,
                            (false, 0) => ctx.random_below(4),
                            _ => ctx.random_below(1_000),
                        };
                        let held: u64 = seen.borrow().values().sum();
                        let ok = slot.push(&ctx, pri, pri).await;
                        assert_eq!(ok, held < 64, "a push is refused only when full");
                        if ok {
                            *seen.borrow_mut().entry(pri).or_default() += 1;
                        }
                    } else {
                        let got = slot.pop(&ctx).await;
                        let mut model = seen.borrow_mut();
                        let want = model.first_key_value().map(|(&p, _)| p);
                        assert_eq!(got.map(|e| e.0), want, "round {round}: not a minimum");
                        if let Some((pri, item)) = got {
                            assert_eq!(pri, item);
                            let n = model.get_mut(&pri).expect("held");
                            *n -= 1;
                            if *n == 0 {
                                model.remove(&pri);
                            }
                        }
                    }
                }
            });
            assert!(m.run().is_quiescent());
            let held = heaps
                .validate(&m, "queue")
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(held, model.borrow().values().sum::<u64>(), "round {round}");
        }
    }
}

//! Simulated `HuntEtAl`: the concurrent heap of Hunt, Michael,
//! Parthasarathy & Scott with per-node locks and bit-reversed insertions.

use funnelpq_sim::{Addr, Machine, ProcCtx};

use crate::costs;
use crate::error::SimPqError;
use crate::mcs::SimMcsLock;

const TAG_EMPTY: u64 = 0;
const TAG_AVAIL: u64 = 1;
// tags >= 2 encode Owned(pid = tag - 2)

/// Position of the `s`-th item (1-based) under bit-reversed level filling.
pub(crate) fn bit_reversed_position(s: u64) -> u64 {
    debug_assert!(s >= 1);
    let level = 63 - s.leading_zeros() as u64;
    if level == 0 {
        return 1;
    }
    let offset = s - (1 << level);
    let rev = offset.reverse_bits() >> (64 - level);
    (1 << level) + rev
}

/// Per-node layout: [lock, tag, pri, item], padded to whole cache lines.
#[derive(Debug, Clone, Copy)]
pub struct SimHunt {
    size_lock: SimMcsLock,
    size: Addr,
    nodes: Addr,
    node_stride: usize,
    capacity: u64,
}

impl SimHunt {
    /// Allocates a heap of at most `capacity` items for `procs` processors.
    pub fn build(m: &mut Machine, procs: usize, capacity: usize) -> Self {
        let size_lock = SimMcsLock::build(m, procs);
        let size = m.alloc(1);
        let node_stride = 4usize.next_multiple_of(m.line_words());
        let nodes = m.alloc((capacity + 1) * node_stride);
        m.label(size, 1, "heap size word");
        m.label(nodes, (capacity + 1) * node_stride, "heap nodes");
        SimHunt {
            size_lock,
            size,
            nodes,
            node_stride,
            capacity: capacity as u64,
        }
    }

    fn lock_a(&self, i: u64) -> Addr {
        self.nodes + i as usize * self.node_stride
    }
    fn tag_a(&self, i: u64) -> Addr {
        self.lock_a(i) + 1
    }
    fn pri_a(&self, i: u64) -> Addr {
        self.lock_a(i) + 2
    }
    fn item_a(&self, i: u64) -> Addr {
        self.lock_a(i) + 3
    }

    /// Test-and-test-and-set acquire of a node lock, with randomized
    /// backoff between failed attempts. The jitter matters doubly here: it
    /// models real arbitration noise, and it prevents the deterministic
    /// event ordering of the simulator from phase-locking two retrying
    /// processors into mutual starvation.
    async fn lock_node(&self, ctx: &ProcCtx, i: u64) {
        loop {
            ctx.wait_until(self.lock_a(i), |v| v == 0).await;
            if ctx.cas(self.lock_a(i), 0, 1).await == 0 {
                return;
            }
            ctx.work(ctx.random_below(32)).await;
        }
    }

    async fn unlock_node(&self, ctx: &ProcCtx, i: u64) {
        ctx.write(self.lock_a(i), 0).await;
    }

    /// Inserts `(pri, item)`; bubbles up chasing the item by tag.
    ///
    /// # Panics
    ///
    /// Panics if the heap is full; use [`try_insert`](Self::try_insert)
    /// to handle that case.
    pub async fn insert(&self, ctx: &ProcCtx, pri: u64, item: u64) {
        if let Err(e) = self.try_insert(ctx, pri, item).await {
            panic!("{e}");
        }
    }

    /// Inserts `(pri, item)`, reporting capacity exhaustion (with the
    /// failing processor and simulated time) instead of panicking. On
    /// `Err` the heap is unchanged and the size lock released.
    pub async fn try_insert(&self, ctx: &ProcCtx, pri: u64, item: u64) -> Result<(), SimPqError> {
        ctx.work(costs::OP_SETUP).await;
        let my_tag = ctx.pid() as u64 + 2;
        // Reserve a position and publish the item there.
        self.size_lock.acquire(ctx).await;
        let n = ctx.read(self.size).await + 1;
        if n > self.capacity {
            self.size_lock.release(ctx).await;
            return Err(SimPqError::CapacityExhausted {
                what: "SimHunt",
                capacity: self.capacity as usize,
                proc: ctx.pid(),
                time: ctx.now(),
            });
        }
        ctx.write(self.size, n).await;
        let mut i = bit_reversed_position(n);
        self.lock_node(ctx, i).await;
        self.size_lock.release(ctx).await;
        ctx.write(self.pri_a(i), pri).await;
        ctx.write(self.item_a(i), item).await;
        ctx.write(self.tag_a(i), my_tag).await;
        self.unlock_node(ctx, i).await;

        let _bubble = ctx.span("heap-bubble");
        while i > 1 {
            ctx.work(costs::SIFT_STEP).await;
            let parent = i / 2;
            self.lock_node(ctx, parent).await;
            self.lock_node(ctx, i).await;
            let ptag = ctx.read(self.tag_a(parent)).await;
            let itag = ctx.read(self.tag_a(i)).await;
            let mut next_i = i;
            if ptag == TAG_AVAIL && itag == my_tag {
                let ppri = ctx.read(self.pri_a(parent)).await;
                let ipri = ctx.read(self.pri_a(i)).await;
                if ipri < ppri {
                    // Swap entries and tags.
                    let pitem = ctx.read(self.item_a(parent)).await;
                    let iitem = ctx.read(self.item_a(i)).await;
                    ctx.write(self.pri_a(parent), ipri).await;
                    ctx.write(self.item_a(parent), iitem).await;
                    ctx.write(self.tag_a(parent), my_tag).await;
                    ctx.write(self.pri_a(i), ppri).await;
                    ctx.write(self.item_a(i), pitem).await;
                    ctx.write(self.tag_a(i), TAG_AVAIL).await;
                    next_i = parent;
                } else {
                    ctx.write(self.tag_a(i), TAG_AVAIL).await;
                    next_i = 0;
                }
            } else if ptag == TAG_EMPTY {
                next_i = 0;
            } else if itag != my_tag {
                next_i = parent;
            }
            self.unlock_node(ctx, i).await;
            self.unlock_node(ctx, parent).await;
            if next_i == i {
                // The parent is mid-insertion by another thread: back off a
                // random beat before retrying so the two insertions cannot
                // phase-lock.
                ctx.work(ctx.random_below(64) + 8).await;
            }
            i = next_i;
        }
        if i == 1 {
            self.lock_node(ctx, 1).await;
            if ctx.read(self.tag_a(1)).await == my_tag {
                ctx.write(self.tag_a(1), TAG_AVAIL).await;
            }
            self.unlock_node(ctx, 1).await;
        }
        Ok(())
    }

    /// Removes the minimum: detaches the bit-reversed last item, places it
    /// at the root, and sifts down with hand-over-hand locking.
    pub async fn delete_min(&self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        ctx.work(costs::OP_SETUP).await;
        let detach = ctx.span("heap-detach");
        self.size_lock.acquire(ctx).await;
        let n = ctx.read(self.size).await;
        if n == 0 {
            self.size_lock.release(ctx).await;
            return None;
        }
        let bottom = bit_reversed_position(n);
        ctx.write(self.size, n - 1).await;
        self.lock_node(ctx, bottom).await;
        self.size_lock.release(ctx).await;
        let spri = ctx.read(self.pri_a(bottom)).await;
        let sitem = ctx.read(self.item_a(bottom)).await;
        ctx.write(self.tag_a(bottom), TAG_EMPTY).await;
        self.unlock_node(ctx, bottom).await;
        drop(detach);

        self.lock_node(ctx, 1).await;
        if ctx.read(self.tag_a(1)).await == TAG_EMPTY {
            // The detached bottom was the root (or the root vanished).
            self.unlock_node(ctx, 1).await;
            return Some((spri, sitem));
        }
        let min_pri = ctx.read(self.pri_a(1)).await;
        if spri < min_pri {
            // While this delete held the detached item, another settled
            // a larger one at the root: the detached item is the answer,
            // and the root stays.
            self.unlock_node(ctx, 1).await;
            return Some((spri, sitem));
        }
        let min_item = ctx.read(self.item_a(1)).await;
        ctx.write(self.pri_a(1), spri).await;
        ctx.write(self.item_a(1), sitem).await;
        ctx.write(self.tag_a(1), TAG_AVAIL).await;

        let _sift = ctx.span("heap-sift-down");
        let mut i = 1u64;
        loop {
            ctx.work(costs::SIFT_STEP).await;
            let l = 2 * i;
            let r = 2 * i + 1;
            if l > self.capacity {
                break;
            }
            self.lock_node(ctx, l).await;
            let ltag = ctx.read(self.tag_a(l)).await;
            let (child, ctag) = if r <= self.capacity {
                self.lock_node(ctx, r).await;
                let rtag = ctx.read(self.tag_a(r)).await;
                if ltag == TAG_EMPTY && rtag == TAG_EMPTY {
                    self.unlock_node(ctx, r).await;
                    self.unlock_node(ctx, l).await;
                    break;
                } else if ltag == TAG_EMPTY {
                    self.unlock_node(ctx, l).await;
                    (r, rtag)
                } else if rtag == TAG_EMPTY {
                    self.unlock_node(ctx, r).await;
                    (l, ltag)
                } else {
                    let lpri = ctx.read(self.pri_a(l)).await;
                    let rpri = ctx.read(self.pri_a(r)).await;
                    if rpri < lpri {
                        self.unlock_node(ctx, l).await;
                        (r, rtag)
                    } else {
                        self.unlock_node(ctx, r).await;
                        (l, ltag)
                    }
                }
            } else {
                if ltag == TAG_EMPTY {
                    self.unlock_node(ctx, l).await;
                    break;
                }
                (l, ltag)
            };
            let _ = ctag;
            let cpri = ctx.read(self.pri_a(child)).await;
            let ipri = ctx.read(self.pri_a(i)).await;
            if cpri < ipri {
                // Swap entries and tags; descend holding the child.
                let citem = ctx.read(self.item_a(child)).await;
                let iitem = ctx.read(self.item_a(i)).await;
                let ctag2 = ctx.read(self.tag_a(child)).await;
                let itag2 = ctx.read(self.tag_a(i)).await;
                ctx.write(self.pri_a(i), cpri).await;
                ctx.write(self.item_a(i), citem).await;
                ctx.write(self.tag_a(i), ctag2).await;
                ctx.write(self.pri_a(child), ipri).await;
                ctx.write(self.item_a(child), iitem).await;
                ctx.write(self.tag_a(child), itag2).await;
                self.unlock_node(ctx, i).await;
                i = child;
            } else {
                self.unlock_node(ctx, child).await;
                break;
            }
        }
        self.unlock_node(ctx, i).await;
        Some((min_pri, min_item))
    }

    /// Host-side item count (no simulated cost; meaningful at quiescence).
    pub fn peek_len(&self, m: &Machine) -> u64 {
        m.peek(self.size)
    }

    /// Structural validation at quiescence: every lock free, tags
    /// consistent with the bit-reversed occupancy of the size word, and
    /// the heap property over occupied nodes. Returns the item count.
    pub fn validate(&self, m: &Machine) -> Result<u64, String> {
        if !self.size_lock.peek_free(m) {
            return Err("SimHunt: size lock held at quiescence".into());
        }
        let n = m.peek(self.size);
        if n > self.capacity {
            return Err(format!(
                "SimHunt: size {n} exceeds capacity {}",
                self.capacity
            ));
        }
        let occupied: std::collections::HashSet<u64> = (1..=n).map(bit_reversed_position).collect();
        for i in 1..=self.capacity {
            if m.peek(self.lock_a(i)) != 0 {
                return Err(format!("SimHunt: node {i} lock held at quiescence"));
            }
            let tag = m.peek(self.tag_a(i));
            match (occupied.contains(&i), tag) {
                (true, TAG_AVAIL) | (false, TAG_EMPTY) => {}
                (true, t) => {
                    return Err(format!("SimHunt: node {i} should be AVAIL but has tag {t}"))
                }
                (false, t) => {
                    return Err(format!("SimHunt: node {i} should be EMPTY but has tag {t}"))
                }
            }
        }
        for &i in &occupied {
            let parent = i / 2;
            if parent >= 1 && occupied.contains(&parent) {
                let ppri = m.peek(self.pri_a(parent));
                let ipri = m.peek(self.pri_a(i));
                if ppri > ipri {
                    return Err(format!(
                        "SimHunt: heap violation at node {i}: parent pri {ppri} > child pri {ipri}"
                    ));
                }
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_sim::MachineConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn bit_reversal_matches_reference() {
        let got: Vec<u64> = (1..=7).map(bit_reversed_position).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 6, 5, 7]);
        let mut all: Vec<u64> = (1..=32).map(bit_reversed_position).collect();
        all.sort_unstable();
        assert_eq!(all, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_order() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let q = SimHunt::build(&mut m, 1, 64);
        let ctx = m.ctx();
        m.spawn(async move {
            for p in [8u64, 0, 3, 3, 11, 6] {
                q.insert(&ctx, p, p).await;
            }
            let mut got = Vec::new();
            while let Some((p, _)) = q.delete_min(&ctx).await {
                got.push(p);
            }
            assert_eq!(got, vec![0, 3, 3, 6, 8, 11]);
        });
        assert!(m.run().is_quiescent());
    }

    #[test]
    fn concurrent_conservation_and_progress() {
        const P: usize = 10;
        const N: usize = 20;
        let mut m = Machine::new(MachineConfig::test_tiny(), 13);
        let q = SimHunt::build(&mut m, P + 1, P * N + 1);
        let got = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let got = Rc::clone(&got);
            m.spawn(async move {
                for i in 0..N {
                    q.insert(&ctx, ((p * 3 + i) % 7) as u64, (p * N + i) as u64)
                        .await;
                    if i % 2 == 0 {
                        if let Some((_, x)) = q.delete_min(&ctx).await {
                            got.borrow_mut().push(x);
                        }
                    }
                }
            });
        }
        assert!(m.run().is_quiescent(), "HuntEtAl deadlocked");
        let ctx = m.ctx();
        let got2 = Rc::clone(&got);
        m.spawn(async move {
            while let Some((_, x)) = q.delete_min(&ctx).await {
                got2.borrow_mut().push(x);
            }
        });
        assert!(m.run().is_quiescent());
        let mut all = got.borrow().clone();
        all.sort_unstable();
        assert_eq!(all, (0..(P * N) as u64).collect::<Vec<_>>());
    }
}

//! Combining-funnel stack over simulated memory: the funnel-based bin used
//! by the simulated `LinearFunnels` and `FunnelTree` queues.
//!
//! Push trees carry pre-linked chains of stack nodes; pop trees carry a
//! request count. A push tree reaching the central stack splices its whole
//! chain in one short critical section; a pop tree detaches up to its size
//! in nodes and distributes them back down the tree; reversing trees of
//! equal size eliminate by handing the pushers' chain directly to the
//! poppers. Emptiness is a single read of the head word.

use std::cell::RefCell;
use std::rc::Rc;

use funnelpq_sim::{Addr, Machine, ProcCtx, Word};

use crate::error::SimPqError;
use crate::funnel::SimFunnelConfig;
use crate::mcs::SimMcsLock;
use crate::walk::{FunnelObject, SimFunnel};

const TAG_DONE: Word = 1;
const TAG_CHAIN: Word = 2;

fn pack(tag: Word, node_enc: Word) -> Word {
    (node_enc << 2) | tag
}

fn unpack(x: Word) -> (Word, Word) {
    (x & 0b11, x >> 2)
}

/// A simulated combining-funnel stack of `u64` items: the crate's one
/// funnel walk over trees that carry a chain's head and tail.
///
/// Nodes come from a pre-allocated pool (`max_items`); the pool free list
/// is processor-local bookkeeping and costs no simulated traffic. Each
/// processor's record is location, sum, chain head, chain tail and result,
/// padded to whole lines.
#[derive(Debug, Clone)]
pub struct SimFunnelStack {
    /// Encoded head node (addr+1; 0 = empty).
    head: Addr,
    central_lock: SimMcsLock,
    pool: Rc<RefCell<Vec<Addr>>>,
    /// Pool size: the most items the stack can ever hold, which also
    /// bounds any well-formed head chain walk.
    max_items: usize,
    funnel: SimFunnel<2>,
}

/// Central-lock wait (cycles) above which a stack operation treats the
/// central stack as contended and deepens its funnel traversal.
const CENTRAL_CONTENTION_CYCLES: u64 = 250;

impl SimFunnelStack {
    /// Allocates a stack for `procs` processors holding at most
    /// `max_items` simultaneous items.
    pub fn build(m: &mut Machine, procs: usize, max_items: usize, cfg: SimFunnelConfig) -> Self {
        let head = m.alloc(1);
        let central_lock = SimMcsLock::build(m, procs);
        let stride = 5usize.next_multiple_of(m.line_words());
        let funnel = SimFunnel::build(m, procs, cfg, stride);
        // Node pool: each node is [item, next], one allocation so nodes sit
        // densely (2 words apiece).
        let pool_base = m.alloc(2 * max_items.max(1));
        let pool = (0..max_items.max(1)).map(|i| pool_base + 2 * i).collect();
        m.label(head, 1, "funnel stack head");
        funnel.label(m);
        m.label(pool_base, 2 * max_items.max(1), "stack nodes");
        SimFunnelStack {
            head,
            central_lock,
            pool: Rc::new(RefCell::new(pool)),
            max_items: max_items.max(1),
            funnel,
        }
    }

    /// One-read emptiness test.
    pub async fn is_empty(&self, ctx: &ProcCtx) -> bool {
        ctx.read(self.head).await == 0
    }

    /// Current traversal-depth preference of processor `pid` (diagnostic
    /// view of the adaption state; zero simulated cost).
    pub fn depth_preference(&self, pid: usize) -> usize {
        self.funnel.depth.borrow()[pid]
    }

    /// Host-side item count: walks the head chain without simulated cost.
    /// Meaningful only at quiescence. Errors if the chain is longer than
    /// the node pool (a cycle or corruption).
    pub fn peek_len(&self, m: &Machine) -> Result<u64, String> {
        self.peek_items(m).map(|v| v.len() as u64)
    }

    /// Host-side snapshot of the stored items, top of stack first. Errors
    /// if the head chain is longer than the node pool (a cycle or
    /// corruption).
    pub fn peek_items(&self, m: &Machine) -> Result<Vec<u64>, String> {
        let mut items = Vec::new();
        let mut enc = m.peek(self.head);
        while enc != 0 {
            if items.len() >= self.max_items {
                return Err(format!(
                    "SimFunnelStack: head chain exceeds pool size {} (cycle or corruption)",
                    self.max_items
                ));
            }
            let node = (enc - 1) as Addr;
            items.push(m.peek(node));
            enc = m.peek(node + 1);
        }
        Ok(items)
    }

    /// Host-side check that the central stack lock is free.
    pub fn peek_lock_free(&self, m: &Machine) -> bool {
        self.central_lock.peek_free(m)
    }

    /// Structural validation at quiescence: central lock free and the head
    /// chain well-formed. Returns the item count.
    ///
    /// Combining-layer slots are deliberately *not* checked: a layer slot
    /// retains the last processor id swapped into it, so stale non-zero
    /// slots are normal at quiescence.
    pub fn validate(&self, m: &Machine) -> Result<u64, String> {
        if !self.peek_lock_free(m) {
            return Err("SimFunnelStack: central lock held at quiescence".into());
        }
        self.peek_len(m)
    }

    /// Pushes `item`.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted (the stack holds `max_items`);
    /// use [`try_push`](Self::try_push) to handle that case.
    pub async fn push(&self, ctx: &ProcCtx, item: u64) {
        if let Err(e) = self.try_push(ctx, item).await {
            panic!("{e}");
        }
    }

    /// Pushes `item`, reporting pool exhaustion (with the failing
    /// processor and simulated time) instead of panicking. On `Err` the
    /// stack is unchanged.
    pub async fn try_push(&self, ctx: &ProcCtx, item: u64) -> Result<(), SimPqError> {
        let node = match self.pool.borrow_mut().pop() {
            Some(node) => node,
            None => {
                return Err(SimPqError::PoolExhausted {
                    what: "SimFunnelStack",
                    proc: ctx.pid(),
                    time: ctx.now(),
                })
            }
        };
        ctx.write(node, item).await; // node.item
        ctx.write(node + 1, 0).await; // node.next
        let outcome = self
            .funnel
            .operate(self, ctx, 1, [(node + 1) as Word; 2])
            .await;
        debug_assert_eq!(outcome, None, "push must not yield a chain");
        Ok(())
    }

    /// Pops an item, or `None` when the stack appears empty.
    pub async fn pop(&self, ctx: &ProcCtx) -> Option<u64> {
        let chain = self.funnel.operate(self, ctx, -1, [0; 2]).await;
        match chain {
            Some(0) | None => None,
            Some(enc) => {
                let node = (enc - 1) as Addr;
                let item = ctx.read(node).await;
                self.pool.borrow_mut().push(node);
                Some(item)
            }
        }
    }
}

/// Hooks for the walk: the carry is `[chain head, chain tail]` (encoded
/// nodes, 0 for a pop tree). An operation returns `None` for a completed
/// push and `Some(encoded chain head)` for a pop (0 = empty).
impl FunnelObject<2> for SimFunnelStack {
    type Output = Option<Word>;
    const SPAN: &'static str = "funnel-stack-traverse";

    async fn meet(
        &self,
        ctx: &ProcCtx,
        pid: usize,
        q: usize,
        sum: i64,
        qsum: i64,
        carry: &mut [Word; 2],
    ) -> Option<(Word, Word)> {
        debug_assert_eq!(qsum.abs(), sum.abs());
        if qsum == -sum {
            // Elimination: pushers' chain goes to poppers.
            return Some(if sum > 0 {
                let myh = ctx.read(self.funnel.carry_of(pid)).await;
                (pack(TAG_DONE, 0), pack(TAG_CHAIN, myh))
            } else {
                let qh = ctx.read(self.funnel.carry_of(q)).await;
                (pack(TAG_CHAIN, qh), pack(TAG_DONE, 0))
            });
        }
        // Same kind: merge. Pushes splice chains.
        if sum > 0 {
            let qh = ctx.read(self.funnel.carry_of(q)).await;
            let qt = ctx.read(self.funnel.carry_of(q) + 1).await;
            // our tail.next = q's head
            ctx.write((carry[1] - 1) as Addr + 1, qh).await;
            carry[1] = qt;
            ctx.write(self.funnel.carry_of(pid) + 1, qt).await;
        }
        None
    }

    async fn central(&self, ctx: &ProcCtx, sum: i64, carry: &[Word; 2]) -> (Option<Word>, bool) {
        let t0 = ctx.now();
        self.central_lock.acquire(ctx).await;
        let contended = ctx.now() - t0 > CENTRAL_CONTENTION_CYCLES;
        if sum > 0 {
            let [chead, ctail] = *carry;
            let oldh = ctx.read(self.head).await;
            ctx.write((ctail - 1) as Addr + 1, oldh).await;
            ctx.write(self.head, chead).await;
            self.central_lock.release(ctx).await;
            return (Some(pack(TAG_DONE, 0)), contended);
        }
        let want = (-sum) as u64;
        let first = ctx.read(self.head).await;
        if first == 0 {
            self.central_lock.release(ctx).await;
            return (Some(pack(TAG_CHAIN, 0)), contended);
        }
        let mut last = first;
        let mut got = 1;
        while got < want {
            let nxt = ctx.read((last - 1) as Addr + 1).await;
            if nxt == 0 {
                break;
            }
            last = nxt;
            got += 1;
        }
        let rest = ctx.read((last - 1) as Addr + 1).await;
        ctx.write(self.head, rest).await;
        ctx.write((last - 1) as Addr + 1, 0).await;
        self.central_lock.release(ctx).await;
        (Some(pack(TAG_CHAIN, first)), contended)
    }

    async fn distribute(
        &self,
        ctx: &ProcCtx,
        result: Word,
        _: i64,
        children: &[(usize, i64)],
    ) -> Option<Word> {
        let (tag, my_chain) = unpack(result);
        if tag == TAG_DONE {
            for &(child, _) in children {
                ctx.write(self.funnel.res_of(child), pack(TAG_DONE, 0))
                    .await;
            }
            return None;
        }
        // Keep the first node; cut one subchain per child.
        let mut rest = my_chain;
        let shares = children
            .iter()
            .map(|&(c, csum)| (Some(c), csum.unsigned_abs()));
        for (child, need) in [(None, 1)].into_iter().chain(shares) {
            let chead = rest;
            if rest != 0 {
                let mut last = rest;
                let mut taken = 1;
                while taken < need {
                    let nxt = ctx.read((last - 1) as Addr + 1).await;
                    if nxt == 0 {
                        break;
                    }
                    last = nxt;
                    taken += 1;
                }
                rest = ctx.read((last - 1) as Addr + 1).await;
                ctx.write((last - 1) as Addr + 1, 0).await;
            }
            if let Some(child) = child {
                let res = pack(TAG_CHAIN, chead);
                ctx.write(self.funnel.res_of(child), res).await;
            }
        }
        debug_assert_eq!(rest, 0, "chain longer than tree");
        Some(my_chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_sim::MachineConfig;

    fn cfg(p: usize) -> SimFunnelConfig {
        SimFunnelConfig::for_procs(p)
    }

    #[test]
    fn sequential_lifo() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let s = SimFunnelStack::build(&mut m, 1, 16, cfg(1));
        let ctx = m.ctx();
        let s2 = s.clone();
        m.spawn(async move {
            assert!(s2.is_empty(&ctx).await);
            assert_eq!(s2.pop(&ctx).await, None);
            s2.push(&ctx, 1).await;
            s2.push(&ctx, 2).await;
            s2.push(&ctx, 3).await;
            assert!(!s2.is_empty(&ctx).await);
            assert_eq!(s2.pop(&ctx).await, Some(3));
            assert_eq!(s2.pop(&ctx).await, Some(2));
            assert_eq!(s2.pop(&ctx).await, Some(1));
            assert_eq!(s2.pop(&ctx).await, None);
        });
        assert!(m.run().is_quiescent());
    }

    #[test]
    fn concurrent_no_loss_no_dup() {
        use std::cell::RefCell;
        use std::rc::Rc;
        const P: usize = 24;
        const N: usize = 30;
        let mut m = Machine::new(MachineConfig::alewife_like(), 21);
        let s = SimFunnelStack::build(&mut m, P + 1, P * N + 4, cfg(P));
        let got = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let s = s.clone();
            let got = Rc::clone(&got);
            m.spawn(async move {
                for i in 0..N {
                    s.push(&ctx, (p * N + i) as u64).await;
                    if i % 2 == 1 {
                        if let Some(x) = s.pop(&ctx).await {
                            got.borrow_mut().push(x);
                        }
                    }
                }
            });
        }
        assert!(m.run().is_quiescent());
        // Drain single-threaded.
        let ctx = m.ctx();
        let s2 = s.clone();
        let got2 = Rc::clone(&got);
        m.spawn(async move {
            while let Some(x) = s2.pop(&ctx).await {
                got2.borrow_mut().push(x);
            }
        });
        assert!(m.run().is_quiescent());
        let mut all = got.borrow().clone();
        all.sort_unstable();
        assert_eq!(all, (0..(P * N) as u64).collect::<Vec<_>>());
    }
}

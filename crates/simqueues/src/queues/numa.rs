//! Simulated NUMA-adaptive MultiQueue: node-homed heap partitions with a
//! live oblivious/delegation switch-over.
//!
//! This is the sim mirror of the native `funnelpq::NumaPq` (the SmartPQ
//! design): the `c·P` heaps of a [`super::SimMultiQueue`] are partitioned
//! across the machine's NUMA nodes — each queue's cache lines are homed on
//! one node via [`Machine::alloc_on_node`] — and a per-op mode word selects
//! between two disciplines:
//!
//! * **Oblivious** — classic MultiQueue: inserts and two-choice deletes
//!   draw over *all* queues, paying the machine's `remote_ratio` on every
//!   cross-node line. Best when remote traffic is cheap.
//! * **Delegation** — NUMA-aware: operations stay inside the processor's
//!   own node's partition (the locality the native delegation layer buys
//!   with its request/response mailboxes), falling back to a global sweep
//!   only when the local partition runs dry. Best when remote traffic is
//!   dear.
//!
//! The adaptive controller is *measurement-driven*: in oblivious mode each
//! remote two-choice winner contributes its observed top-read latency
//! excess (over an uncontended local access) to an epoch pressure
//! accumulator; in delegation mode an occasional remote *probe read* keeps
//! measuring what remote traffic currently costs, so the controller can
//! switch back when the interconnect calms down — including spikes injected
//! by the fault layer's `RegionDelay`, which inflate the same measurement.
//! Mode changes follow the native hysteresis: a dead band between the
//! enter/exit thresholds and two consecutive deciding epochs before a flip.
//! The mode word and switch counter live in simulated memory, so every
//! operation pays one real transaction to learn the current discipline and
//! switch-overs are observable in traces.

use std::cell::RefCell;
use std::rc::Rc;

use funnelpq::{NumaMode, NumaPolicy};
use funnelpq_sim::{Addr, Machine, ProcCtx};

use crate::costs;
use crate::error::SimPqError;
use crate::heap::{SimHeapArray, EMPTY};

/// Random try-lock attempts before an insert falls back to a deterministic
/// probe of every reachable queue with blocking locks.
const INSERT_TRIES: usize = 4;

/// Consecutive deciding epochs required before a mode flip (the native
/// controller's hysteresis streak).
const STREAK: u32 = 2;

/// Host-side adaptive controller state. Like the native `AdaptiveCtl` this
/// is bookkeeping the real implementation would keep in thread-local /
/// shared counters; only the mode word and switch counter cost simulated
/// traffic.
#[derive(Debug)]
struct Ctl {
    policy: NumaPolicy,
    mode: NumaMode,
    epoch_ops: u64,
    /// Pressure (average excess remote cycles per op) at or above which an
    /// epoch votes for delegation.
    enter: u64,
    /// Pressure at or below which an epoch votes for oblivious.
    exit: u64,
    ops: u64,
    pressure_accum: u64,
    streak_hi: u32,
    streak_lo: u32,
    epochs: u64,
    /// Per-processor mark of the last epoch whose delegation-mode remote
    /// probe that processor has contributed (`u64::MAX` = never).
    probe_mark: Vec<u64>,
}

impl Ctl {
    /// Counts one completed operation; at an epoch boundary closes the
    /// epoch and returns the new mode if the controller decided to flip.
    fn note_op(&mut self) -> Option<NumaMode> {
        self.ops += 1;
        if !self.ops.is_multiple_of(self.epoch_ops) {
            return None;
        }
        self.epochs += 1;
        let pressure = self.pressure_accum / self.epoch_ops;
        self.pressure_accum = 0;
        if let NumaPolicy::Pinned(_) = self.policy {
            return None;
        }
        if pressure >= self.enter {
            self.streak_hi += 1;
            self.streak_lo = 0;
        } else if pressure <= self.exit {
            self.streak_lo += 1;
            self.streak_hi = 0;
        } else {
            // Dead band: no vote either way.
            self.streak_hi = 0;
            self.streak_lo = 0;
        }
        if self.mode == NumaMode::Oblivious && self.streak_hi >= STREAK {
            self.mode = NumaMode::Delegation;
            self.streak_hi = 0;
            Some(NumaMode::Delegation)
        } else if self.mode == NumaMode::Delegation && self.streak_lo >= STREAK {
            self.mode = NumaMode::Oblivious;
            self.streak_lo = 0;
            Some(NumaMode::Oblivious)
        } else {
            None
        }
    }
}

/// The simulated NUMA-adaptive relaxed priority queue. See the module docs.
#[derive(Debug, Clone)]
pub struct SimNumaPq {
    /// Queue `qi` is homed on node `qi * nodes / nqueues`.
    heaps: SimHeapArray,
    /// Number of NUMA nodes the partitions span (clamped to the machine's).
    nodes: usize,
    /// Mode word in simulated memory: 0 oblivious, 1 delegation.
    mode_addr: Addr,
    /// Switch-over counter in simulated memory.
    switches_addr: Addr,
    /// Uncontended local access latency, from the machine configuration —
    /// the baseline the measured excess is taken against.
    local_ns: u64,
    ctl: Rc<RefCell<Ctl>>,
}

impl SimNumaPq {
    /// Allocates `factor * procs` queues (at least `2 * nodes`) with their
    /// cache lines homed per node. `nodes` is clamped to the machine's
    /// configured node count; pass the same value for a faithful mirror.
    pub fn build(
        m: &mut Machine,
        procs: usize,
        capacity: usize,
        factor: usize,
        nodes: usize,
        epoch_ops: u64,
        policy: NumaPolicy,
    ) -> Self {
        let nodes = nodes.max(1).min(m.nodes().max(1));
        let nqueues = (factor.max(1) * procs.max(1)).max(2 * nodes).max(2);
        let heaps = SimHeapArray::build(m, nqueues, capacity, |m, qi, words| {
            let node = qi * nodes / nqueues;
            let base = m.alloc_on_node(words, node);
            m.label(base, words, format!("numapq heap {qi} (node {node})"));
            base
        });
        let mode_addr = m.alloc_on_node(1, 0);
        m.label(mode_addr, 1, "numapq mode word");
        let switches_addr = m.alloc_on_node(1, 0);
        m.label(switches_addr, 1, "numapq switch counter");
        let start_mode = match policy {
            NumaPolicy::Pinned(mode) => mode,
            NumaPolicy::Adaptive => NumaMode::Oblivious,
        };
        m.poke(mode_addr, mode_word(start_mode));
        let cfg = m.config();
        let local_ns = cfg.uncontended_access();
        SimNumaPq {
            heaps,
            nodes,
            mode_addr,
            switches_addr,
            local_ns,
            ctl: Rc::new(RefCell::new(Ctl {
                policy,
                mode: start_mode,
                epoch_ops: epoch_ops.max(1),
                // Thresholds scale with the machine's latency floor: enter
                // once remote excess dwarfs two local accesses per op, exit
                // once it falls under half of one.
                enter: 2 * local_ns,
                exit: local_ns / 2,
                ops: 0,
                pressure_accum: 0,
                streak_hi: 0,
                streak_lo: 0,
                epochs: 0,
                probe_mark: vec![u64::MAX; procs.max(1)],
            })),
        }
    }

    /// Home node of queue `q` (mirrors the native `Topology::node_of_slot`).
    fn node_of_queue(&self, q: usize) -> usize {
        q * self.nodes / self.heaps.len()
    }

    /// Node of the calling processor (mirrors the machine's `pid % nodes`).
    fn node_of_proc(&self, pid: usize) -> usize {
        pid % self.nodes
    }

    /// Queue index range `[lo, hi)` homed on `node`.
    fn local_range(&self, node: usize) -> (usize, usize) {
        let nq = self.heaps.len();
        let lo = (node * nq).div_ceil(self.nodes);
        let hi = ((node + 1) * nq).div_ceil(self.nodes);
        (lo, hi)
    }

    /// Reads the mode word (one simulated transaction per operation).
    async fn read_mode(&self, ctx: &ProcCtx) -> NumaMode {
        if ctx.read(self.mode_addr).await == 1 {
            NumaMode::Delegation
        } else {
            NumaMode::Oblivious
        }
    }

    /// Counts one completed op against the controller; on an epoch flip,
    /// publishes the new mode and bumps the switch counter in simulated
    /// memory.
    async fn finish_op(&self, ctx: &ProcCtx) {
        let flipped = self.ctl.borrow_mut().note_op();
        if let Some(new_mode) = flipped {
            ctx.write(self.mode_addr, mode_word(new_mode)).await;
            ctx.faa(self.switches_addr, 1).await;
        }
    }

    /// Feeds measured excess remote cycles into the current epoch's
    /// pressure accumulator.
    fn note_pressure(&self, excess: u64) {
        self.ctl.borrow_mut().pressure_accum += excess;
    }

    /// Reads one top word, returning `(top, measured cycles)`.
    async fn timed_top(&self, ctx: &ProcCtx, q: usize) -> (u64, u64) {
        let t0 = ctx.now();
        let top = self.heaps.read_top(ctx, q).await;
        (top, ctx.now() - t0)
    }

    /// Delegation-mode remote probe: each processor's first delete of an
    /// epoch reads one remote top purely to measure what remote traffic
    /// costs that processor right now. This is the sim analogue of the
    /// native controller's structural pressure floor — without it, a
    /// delegated queue never observes the interconnect again and could
    /// not decide to switch back. Every processor contributes once per
    /// epoch (standing for its share of the epoch's ops) so the epoch's
    /// pressure averages the whole machine's view of the interconnect:
    /// a spike on one node's memory keeps the average up even though the
    /// spiked node's own processors measure a healthy remote path.
    async fn maybe_probe(&self, ctx: &ProcCtx, my_node: usize) {
        if self.nodes < 2 {
            return;
        }
        let stands_for = {
            let mut ctl = self.ctl.borrow_mut();
            let epoch = ctl.epochs;
            let slot = ctx.pid() % ctl.probe_mark.len();
            if ctl.probe_mark[slot] == epoch {
                return;
            }
            ctl.probe_mark[slot] = epoch;
            (ctl.epoch_ops / ctl.probe_mark.len() as u64).max(1)
        };
        let (lo, _) = self.local_range((my_node + 1) % self.nodes);
        let (_, elapsed) = self.timed_top(ctx, lo).await;
        let excess = elapsed.saturating_sub(self.local_ns);
        // The probe stands for this processor's share of the epoch at the
        // structural per-op rate: what an oblivious op would pay in remote
        // transfers, scaled by the fraction of queues that are remote.
        let per_op = 3 * excess * (self.nodes as u64 - 1) / self.nodes as u64;
        self.note_pressure(per_op * stands_for);
    }

    /// Inserts `(pri, item)`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; use [`try_insert`](Self::try_insert)
    /// to handle that case.
    pub async fn insert(&self, ctx: &ProcCtx, pri: u64, item: u64) {
        if let Err(e) = self.try_insert(ctx, pri, item).await {
            panic!("{e}");
        }
    }

    /// Inserts into a random queue — drawn over all queues in oblivious
    /// mode, over the processor's own node's partition in delegation mode.
    /// Reports capacity exhaustion only after a deterministic blocking
    /// probe of **every** queue finds no room.
    pub async fn try_insert(&self, ctx: &ProcCtx, pri: u64, item: u64) -> Result<(), SimPqError> {
        ctx.work(costs::OP_SETUP).await;
        let pid = ctx.pid();
        let nq = self.heaps.len();
        let mode = self.read_mode(ctx).await;
        let (lo, hi) = match mode {
            NumaMode::Oblivious => (0, nq),
            NumaMode::Delegation => self.local_range(self.node_of_proc(pid)),
        };
        let span = (hi - lo).max(1);
        for _ in 0..INSERT_TRIES {
            ctx.work(costs::RNG_DRAW).await;
            let q = lo + ctx.random_below(span as u64) as usize;
            if !self.heaps.try_lock(ctx, q).await {
                ctx.work(costs::LOOP_ITER).await;
                continue;
            }
            let hold = ctx.span("lock-hold");
            let ok = self.heaps.slot(q).push(ctx, pri, item).await;
            hold.end();
            self.heaps.unlock(ctx, q).await;
            if ok {
                self.finish_op(ctx).await;
                return Ok(());
            }
            ctx.work(costs::LOOP_ITER).await;
        }
        // Random placement keeps failing (locked or full queues): probe
        // every queue in order, waiting for each lock. Crossing out of the
        // local partition here is deliberate — capacity is a global
        // property, whatever the mode.
        for step in 0..nq {
            let q = (pid + step) % nq;
            ctx.work(costs::LOOP_ITER).await;
            self.heaps.lock_blocking(ctx, q).await;
            let hold = ctx.span("lock-hold");
            let ok = self.heaps.slot(q).push(ctx, pri, item).await;
            hold.end();
            self.heaps.unlock(ctx, q).await;
            if ok {
                self.finish_op(ctx).await;
                return Ok(());
            }
        }
        Err(SimPqError::CapacityExhausted {
            what: "SimNumaPq",
            capacity: self.heaps.capacity(),
            proc: ctx.pid(),
            time: ctx.now(),
        })
    }

    /// Removes an item of *near*-minimal priority.
    ///
    /// Oblivious mode is the classic two-choice over all queues; each
    /// remote winner feeds its measured latency excess to the controller.
    /// Delegation mode runs the two-choice inside the processor's own
    /// node's partition (plus the occasional remote probe) and falls back
    /// to a global sweep when the local partition looks empty, so at
    /// quiescence `None` still means the whole queue is empty.
    pub async fn delete_min(&self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        ctx.work(costs::OP_SETUP).await;
        let pid = ctx.pid();
        let my_node = self.node_of_proc(pid);
        let mode = self.read_mode(ctx).await;
        if mode == NumaMode::Delegation {
            self.maybe_probe(ctx, my_node).await;
        }
        let (lo, hi) = match mode {
            NumaMode::Oblivious => (0, self.heaps.len()),
            NumaMode::Delegation => self.local_range(my_node),
        };
        loop {
            let span = (hi - lo) as u64;
            let (a, b) = if span < 2 {
                (lo, lo)
            } else {
                ctx.work(costs::RNG_DRAW).await;
                let a = ctx.random_below(span);
                ctx.work(costs::RNG_DRAW).await;
                let mut b = ctx.random_below(span - 1);
                if b >= a {
                    b += 1;
                }
                (lo + a as usize, lo + b as usize)
            };
            let (top_a, cyc_a) = self.timed_top(ctx, a).await;
            let (top_b, cyc_b) = if b == a {
                (top_a, 0)
            } else {
                self.timed_top(ctx, b).await
            };
            if top_a == EMPTY && top_b == EMPTY {
                // Scan every published top, local partition first.
                let (local, _) = self.local_range(my_node);
                let got = self.heaps.sweep(ctx, local).await;
                self.finish_op(ctx).await;
                return got;
            }
            let (q, cyc) = if top_b < top_a {
                (b, cyc_b)
            } else {
                (a, cyc_a)
            };
            if mode == NumaMode::Oblivious && self.node_of_queue(q) != my_node {
                // A remote two-choice winner costs ~3 remote transfers in
                // the native queue (lock + top + data); the measured top
                // read stands in for one of them.
                self.note_pressure(3 * cyc.saturating_sub(self.local_ns));
            }
            if !self.heaps.try_lock(ctx, q).await {
                ctx.work(costs::LOOP_ITER).await;
                continue;
            }
            let hold = ctx.span("lock-hold");
            let got = self.heaps.slot(q).pop(ctx).await;
            hold.end();
            self.heaps.unlock(ctx, q).await;
            match got {
                Some(x) => {
                    self.finish_op(ctx).await;
                    return Some(x);
                }
                // Stale published top; it is repaired now.
                None => ctx.work(costs::LOOP_ITER).await,
            }
        }
    }

    /// Current mode, read host-side (meaningful at any time; free).
    pub fn peek_mode(&self, m: &Machine) -> NumaMode {
        if m.peek(self.mode_addr) == 1 {
            NumaMode::Delegation
        } else {
            NumaMode::Oblivious
        }
    }

    /// Mode switch-overs so far, read host-side.
    pub fn peek_switches(&self, m: &Machine) -> u64 {
        m.peek(self.switches_addr)
    }

    /// Epochs the controller has closed so far.
    pub fn epochs(&self) -> u64 {
        self.ctl.borrow().epochs
    }

    /// Host-side item count (no simulated cost; meaningful at quiescence).
    pub fn peek_len(&self, m: &Machine) -> u64 {
        self.heaps.peek_len(m)
    }

    /// Structural validation at quiescence: every lock free, sizes within
    /// capacity, heap property inside each queue, published tops exact,
    /// and the in-memory mode word consistent with the controller's.
    /// Returns the total item count.
    pub fn validate(&self, m: &Machine) -> Result<u64, String> {
        let total = self.heaps.validate(m, "SimNumaPq")?;
        if self.peek_mode(m) != self.ctl.borrow().mode {
            return Err("SimNumaPq: mode word disagrees with controller state".into());
        }
        Ok(total)
    }
}

fn mode_word(mode: NumaMode) -> u64 {
    match mode {
        NumaMode::Oblivious => 0,
        NumaMode::Delegation => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_sim::MachineConfig;
    use std::collections::BTreeSet;

    fn numa_cfg(nodes: usize, ratio: u64) -> MachineConfig {
        MachineConfig::test_tiny().with_topology(nodes, ratio)
    }

    #[test]
    fn sequential_drain_conserves_on_flat_machine() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 7);
        let q = SimNumaPq::build(&mut m, 1, 256, 2, 2, 32, NumaPolicy::Adaptive);
        let ctx = m.ctx();
        let q2 = q.clone();
        m.spawn(async move {
            for i in 0..100u64 {
                q2.insert(&ctx, (i * 37) % 64, i).await;
            }
            let mut items = BTreeSet::new();
            while let Some((_, x)) = q2.delete_min(&ctx).await {
                items.insert(x);
            }
            assert_eq!(items.len(), 100, "every item must come back exactly once");
        });
        assert!(m.run().is_quiescent());
        assert_eq!(q.validate(&m).unwrap(), 0);
    }

    #[test]
    fn pinned_delegation_stays_local_until_the_partition_drains() {
        let mut m = Machine::new(numa_cfg(2, 4), 11);
        let q = SimNumaPq::build(
            &mut m,
            2,
            128,
            2,
            2,
            32,
            NumaPolicy::Pinned(NumaMode::Delegation),
        );
        let ctx = m.ctx();
        let q2 = q.clone();
        m.spawn(async move {
            for i in 0..40u64 {
                q2.insert(&ctx, i % 16, i).await;
            }
            let mut got = 0;
            while q2.delete_min(&ctx).await.is_some() {
                got += 1;
            }
            assert_eq!(got, 40, "sweep fallback must drain remote partitions too");
        });
        assert!(m.run().is_quiescent());
        assert_eq!(q.peek_switches(&m), 0, "pinned policy must never switch");
        assert_eq!(q.validate(&m).unwrap(), 0);
    }

    #[test]
    fn adaptive_switches_to_delegation_on_expensive_interconnect() {
        // Remote legs cost 16x: oblivious two-choice keeps winning remote
        // tops, pressure crosses the enter threshold, and the controller
        // must flip to delegation within a few epochs.
        let mut m = Machine::new(
            MachineConfig {
                net_latency: 4,
                service: 1,
                line_words: 1,
                nodes: 2,
                remote_ratio: 16,
            },
            13,
        );
        let q = SimNumaPq::build(&mut m, 2, 4096, 2, 2, 16, NumaPolicy::Adaptive);
        for p in 0..2 {
            let ctx = m.ctx();
            let q = q.clone();
            m.spawn(async move {
                for i in 0..600u64 {
                    q.insert(&ctx, (p * 600 + i) % 64, p * 600 + i).await;
                    // Concurrent sweeps may miss racily (relaxed
                    // semantics); conservation is re-checked at the end.
                    q.delete_min(&ctx).await;
                }
            });
        }
        assert!(m.run().is_quiescent());
        assert_eq!(q.peek_mode(&m), NumaMode::Delegation);
        assert!(q.peek_switches(&m) >= 1, "a switch-over must be recorded");
        q.validate(&m).expect("structure intact at quiescence");
    }

    #[test]
    fn adaptive_stays_oblivious_on_flat_interconnect() {
        let mut m = Machine::new(numa_cfg(2, 1), 17);
        let q = SimNumaPq::build(&mut m, 2, 4096, 2, 2, 16, NumaPolicy::Adaptive);
        for p in 0..2 {
            let ctx = m.ctx();
            let q = q.clone();
            m.spawn(async move {
                for i in 0..400u64 {
                    q.insert(&ctx, (p * 400 + i) % 64, p * 400 + i).await;
                    q.delete_min(&ctx).await;
                }
            });
        }
        assert!(m.run().is_quiescent());
        assert_eq!(q.peek_mode(&m), NumaMode::Oblivious);
        assert_eq!(q.peek_switches(&m), 0);
        q.validate(&m).expect("structure intact at quiescence");
    }

    #[test]
    fn concurrent_conservation_across_nodes_with_adaptive_controller() {
        use std::cell::RefCell;
        use std::rc::Rc;
        const P: usize = 8;
        const N: usize = 25;
        let mut m = Machine::new(numa_cfg(4, 8), 19);
        let q = SimNumaPq::build(&mut m, P, P * N, 2, 4, 32, NumaPolicy::Adaptive);
        let got = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let got = Rc::clone(&got);
            let q = q.clone();
            m.spawn(async move {
                for i in 0..N {
                    q.insert(&ctx, ((p + i) % 5) as u64, (p * N + i) as u64)
                        .await;
                    if i % 2 == 0 {
                        if let Some((_, x)) = q.delete_min(&ctx).await {
                            got.borrow_mut().push(x);
                        }
                    }
                }
            });
        }
        assert!(m.run().is_quiescent());
        let inside = q.validate(&m).expect("structure intact at quiescence");
        assert_eq!(inside as usize + got.borrow().len(), P * N);
        let ctx = m.ctx();
        let got2 = Rc::clone(&got);
        let q2 = q.clone();
        m.spawn(async move {
            while let Some((_, x)) = q2.delete_min(&ctx).await {
                got2.borrow_mut().push(x);
            }
        });
        assert!(m.run().is_quiescent());
        assert_eq!(q.validate(&m).unwrap(), 0);
        let mut all = got.borrow().clone();
        all.sort_unstable();
        assert_eq!(all, (0..(P * N) as u64).collect::<Vec<_>>());
    }
}

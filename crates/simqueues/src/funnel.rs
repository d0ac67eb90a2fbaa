//! Combining-funnel counter over simulated memory — the paper's Figure 10,
//! including collision layers, homogeneous same-size trees, elimination of
//! reversing operations, local adaption, and the bounds check folded into
//! the funnel (rather than paying two traversals à la Gottlieb et al.).

use funnelpq_sim::{Addr, Machine, ProcCtx, Word};

use crate::costs;
use crate::error::SimPqError;

/// Tuning parameters for simulated combining funnels (counters and stacks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFunnelConfig {
    /// Width (in slots) of each combining layer, outermost first.
    pub widths: Vec<usize>,
    /// Collision attempts per layer before trying the central object.
    pub attempts: u32,
    /// Number of capture-checks (spaced [`costs::FUNNEL_SPIN_STEP`] cycles
    /// apart) spent waiting after each attempt, per layer.
    pub spin_checks: Vec<u32>,
    /// Whether processors adapt the fraction of the layer width they use to
    /// the collision rate they observe.
    pub adaption: bool,
}

impl SimFunnelConfig {
    /// Parameters scaled to `procs` processors sharing the funnel — the
    /// shape chosen by the preliminary tuning run (`bench/funnel_tuning`,
    /// mirroring the paper's high-concurrency calibration, scored across
    /// several workloads): two layers at widths P/4 and P/16, two
    /// collision attempts per layer, short capture-wait spins. Width and
    /// traversal-depth adaption then specialize each funnel to the load it
    /// actually sees.
    pub fn for_procs(procs: usize) -> Self {
        let levels = if procs <= 8 { 1 } else { 2 };
        let widths = (0..levels).map(|d| (procs >> (2 + 2 * d)).max(1)).collect();
        let spin_checks = (0..levels).map(|d| 3 + 2 * d as u32).collect();
        SimFunnelConfig {
            widths,
            attempts: 2,
            spin_checks,
            adaption: true,
        }
    }

    /// Checks the configuration for internal consistency, reporting what
    /// is wrong instead of panicking. Used by fallible builders
    /// ([`crate::queues::SimPq::try_build`]); the panicking
    /// `validate` delegates here.
    pub fn check(&self) -> Result<(), SimPqError> {
        if self.widths.len() != self.spin_checks.len() {
            return Err(SimPqError::BadConfig {
                what: "SimFunnelConfig",
                detail: format!(
                    "widths has {} layers but spin_checks has {}",
                    self.widths.len(),
                    self.spin_checks.len()
                ),
            });
        }
        if let Some(d) = self.widths.iter().position(|&w| w == 0) {
            return Err(SimPqError::BadConfig {
                what: "SimFunnelConfig",
                detail: format!("layer {d} has width 0"),
            });
        }
        if self.attempts == 0 {
            return Err(SimPqError::BadConfig {
                what: "SimFunnelConfig",
                detail: "attempts must be at least 1".into(),
            });
        }
        Ok(())
    }

    pub(crate) fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Operation mode of a funnel counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterMode {
    /// Classic combining fetch-and-add: any two colliding operations
    /// combine (deltas commute); no elimination, no bounds.
    FetchAdd,
    /// The paper's bounded counter family (§3.3 provides bounded
    /// fetch-and-decrement "and an analogous bounded-fetch-and-increment"):
    /// trees are homogeneous (one operation kind), reversing trees
    /// eliminate, decrements never take the value below `lo`, increments
    /// never above `hi`.
    Bounded {
        /// Lower bound on the counter value (`None` = unbounded below).
        lo: Option<i64>,
        /// Upper bound on the counter value (`None` = unbounded above).
        hi: Option<i64>,
    },
}

impl CounterMode {
    /// The bounded mode the priority-queue trees use: decrements saturate
    /// at zero, increments are unbounded.
    pub const BOUNDED_AT_ZERO: CounterMode = CounterMode::Bounded {
        lo: Some(0),
        hi: None,
    };

    fn clamp(&self, v: i64) -> i64 {
        match *self {
            CounterMode::FetchAdd => v,
            CounterMode::Bounded { lo, hi } => {
                let mut v = v;
                if let Some(lo) = lo {
                    v = v.max(lo);
                }
                if let Some(hi) = hi {
                    v = v.min(hi);
                }
                v
            }
        }
    }
}

const LOC_FROZEN: Word = u64::MAX;
const RES_NONE: Word = 0;
const TAG_COUNT: Word = 1;
const TAG_ELIM: Word = 2;

fn pack(tag: Word, v: i64) -> Word {
    ((v as u64) << 2) | tag
}

fn unpack(x: Word) -> (Word, i64) {
    (x & 0b11, (x as i64) >> 2)
}

/// A combining-funnel shared counter in simulated memory.
///
/// Layout: one central word, one slot word per layer position, and one
/// record (location, sum, result) per processor, records line-padded.
#[derive(Debug, Clone)]
pub struct SimFunnelCounter {
    cfg: std::rc::Rc<SimFunnelConfig>,
    mode: CounterMode,
    central: Addr,
    layers: std::rc::Rc<Vec<(Addr, usize)>>,
    records: Addr,
    rec_stride: usize,
    /// Per-processor adaption factor in 1/256ths (processor-local state:
    /// the paper keeps `Adaption_factor` in the processor's own record, so
    /// it costs no shared-memory traffic).
    frac: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    /// Per-processor depth preference: how many combining layers to
    /// traverse before applying to the central value (the paper's "decide
    /// locally how many combining layers to traverse" adaption; 0 = go
    /// straight to the central compare-and-swap).
    depth: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
}

impl SimFunnelCounter {
    /// Allocates a funnel counter (initial value zero) for `procs`
    /// processors.
    pub fn build(m: &mut Machine, procs: usize, mode: CounterMode, cfg: SimFunnelConfig) -> Self {
        cfg.validate();
        let central = m.alloc(1);
        let layers: Vec<(Addr, usize)> = cfg.widths.iter().map(|&w| (m.alloc(w), w)).collect();
        let rec_stride = m.line_words().max(4);
        let records = m.alloc(procs * rec_stride);
        let levels = cfg.widths.len();
        m.label(central, 1, "funnel counter central");
        for &(base, w) in &layers {
            m.label(base, w, "funnel layers");
        }
        m.label(records, procs * rec_stride, "funnel records");
        SimFunnelCounter {
            cfg: std::rc::Rc::new(cfg),
            mode,
            central,
            layers: std::rc::Rc::new(layers),
            records,
            rec_stride,
            frac: std::rc::Rc::new(std::cell::RefCell::new(vec![256; procs])),
            depth: std::rc::Rc::new(std::cell::RefCell::new(vec![levels; procs])),
        }
    }

    fn loc_of(&self, pid: usize) -> Addr {
        assert!(
            pid < self.frac.borrow().len(),
            "processor {pid} used a funnel built for fewer processors"
        );
        self.records + pid * self.rec_stride
    }
    fn sum_of(&self, pid: usize) -> Addr {
        self.records + pid * self.rec_stride + 1
    }
    fn res_of(&self, pid: usize) -> Addr {
        self.records + pid * self.rec_stride + 2
    }

    /// Fetch-and-increment through the funnel.
    pub async fn fetch_inc(&self, ctx: &ProcCtx) -> i64 {
        self.operate(ctx, 1).await
    }

    /// Fetch-and-decrement through the funnel (bounded below by zero in
    /// the bounded modes).
    pub async fn fetch_dec(&self, ctx: &ProcCtx) -> i64 {
        self.operate(ctx, -1).await
    }

    fn clamp_ret(&self, v: i64) -> i64 {
        self.mode.clamp(v)
    }

    async fn operate(&self, ctx: &ProcCtx, delta: i64) -> i64 {
        let _span = ctx.span("funnel-traverse");
        ctx.work(costs::OP_SETUP).await;
        let pid = ctx.pid();
        let mut sum = delta;
        let mut children: Vec<(usize, i64)> = Vec::new();
        let mut d: usize = 0;
        let levels = self.layers.len();
        let width_frac: u64 = self.frac.borrow()[pid];
        let mut max_d: usize = self.depth.borrow()[pid].min(levels);
        let mut attempts_made = 0u32;
        let mut collisions_won = 0u32;
        let mut central_fails = 0u32;
        let mut was_captured = false;

        ctx.write(self.sum_of(pid), sum as u64).await;
        ctx.write(self.res_of(pid), RES_NONE).await;
        ctx.write(self.loc_of(pid), (d + 1) as u64).await;

        let (tag, base) = 'mainloop: loop {
            let mut n = 0;
            'attempts: while n < self.cfg.attempts && d < max_d {
                n += 1;
                attempts_made += 1;
                let (layer_base, layer_w) = self.layers[d];
                let wid = if self.cfg.adaption {
                    (((layer_w as u64) * width_frac / 256).max(1) as usize).min(layer_w)
                } else {
                    layer_w
                };
                ctx.work(costs::RNG_DRAW).await;
                let slot = layer_base + ctx.random_below(wid as u64) as usize;
                let q = ctx.swap(slot, (pid + 1) as u64).await;
                if q != 0 && (q - 1) as usize != pid {
                    let q = (q - 1) as usize;
                    // Freeze ourselves.
                    let old = ctx.cas(self.loc_of(pid), (d + 1) as u64, LOC_FROZEN).await;
                    if old != (d + 1) as u64 {
                        {
                            was_captured = true;
                            break 'mainloop self.await_result(ctx, pid).await;
                        }
                    }
                    // Try to capture q at our layer.
                    let qold = ctx.cas(self.loc_of(q), (d + 1) as u64, LOC_FROZEN).await;
                    if qold == (d + 1) as u64 {
                        collisions_won += 1;
                        // Marker for tracers and fault plans: this
                        // processor just won a collision and now combines
                        // (or eliminates) on behalf of the captured peer.
                        ctx.span("funnel-combine").end();
                        let qsum = ctx.read(self.sum_of(q)).await as i64;
                        let reversing = self.mode != CounterMode::FetchAdd && qsum == -sum;
                        if reversing {
                            // Elimination: short-cut read of the central
                            // value, no update.
                            let val = ctx.read(self.central).await as i64;
                            let mut dv = val;
                            if let CounterMode::Bounded { lo, hi } = self.mode {
                                if lo == Some(dv) {
                                    dv += 1; // the paper's BOT adjustment
                                }
                                if let Some(hi) = hi {
                                    dv = dv.min(hi);
                                }
                            }
                            let (my_v, q_v) = if sum < 0 { (dv, dv - 1) } else { (dv - 1, dv) };
                            ctx.write(self.res_of(q), pack(TAG_ELIM, q_v)).await;
                            break 'mainloop (TAG_ELIM, my_v);
                        }
                        let compatible = match self.mode {
                            CounterMode::FetchAdd => true,
                            CounterMode::Bounded { .. } => qsum.signum() == sum.signum(),
                        };
                        debug_assert!(
                            compatible,
                            "layer discipline should make same-layer trees compatible"
                        );
                        // Combine: q's tree becomes our child.
                        sum += qsum;
                        ctx.write(self.sum_of(pid), sum as u64).await;
                        children.push((q, qsum));
                        d += 1;
                        ctx.write(self.loc_of(pid), (d + 1) as u64).await;
                        n = 0;
                        continue 'attempts;
                    }
                    // Capture failed: republish ourselves at this layer.
                    ctx.write(self.loc_of(pid), (d + 1) as u64).await;
                }
                // Delay, periodically checking whether we were captured.
                // Delay times adapt to load like widths do: a funnel whose
                // collisions are succeeding (width_frac high) is worth
                // waiting in; a quiet one is not.
                let checks = if self.cfg.adaption {
                    ((self.cfg.spin_checks[d] as usize * max_d) / levels).max(1) as u32
                } else {
                    self.cfg.spin_checks[d]
                };
                for _ in 0..checks {
                    ctx.work(costs::FUNNEL_SPIN_STEP).await;
                    let v = ctx.read(self.loc_of(pid)).await;
                    if v != (d + 1) as u64 {
                        {
                            was_captured = true;
                            break 'mainloop self.await_result(ctx, pid).await;
                        }
                    }
                }
            }
            // Exit the funnel: apply the whole tree to the central counter.
            let old = ctx.cas(self.loc_of(pid), (d + 1) as u64, LOC_FROZEN).await;
            if old != (d + 1) as u64 {
                {
                    was_captured = true;
                    break 'mainloop self.await_result(ctx, pid).await;
                }
            }
            let val = ctx.read(self.central).await as i64;
            let new = self.mode.clamp(val + sum);
            let got = ctx.cas(self.central, val as u64, new as u64).await;
            if got == val as u64 {
                break 'mainloop (TAG_COUNT, val);
            }
            // Central contention: allow deeper combining on the retry.
            central_fails += 1;
            max_d = (max_d + 1).min(levels);
            ctx.write(self.loc_of(pid), (d + 1) as u64).await;
        };

        // Local adaption: grow the slice of the layer we use when collisions
        // are frequent, shrink it when they are rare.
        if self.cfg.adaption {
            if attempts_made > 0 {
                let mut frac = self.frac.borrow_mut();
                if collisions_won * 2 >= attempts_made {
                    frac[pid] = (frac[pid] * 2).min(256);
                } else if collisions_won == 0 {
                    frac[pid] = (frac[pid] / 2).max(16);
                }
            }
            // Depth adaption: combining success, being combined with, or a
            // contended central value all argue for traversing layers; a
            // clean solo pass argues for going straight to the central CAS.
            let mut depth = self.depth.borrow_mut();
            let engaged = collisions_won > 0 || was_captured || central_fails > 0;
            if engaged {
                depth[pid] = (depth[pid] + 1).min(levels);
            } else {
                depth[pid] = depth[pid].saturating_sub(1);
            }
        }

        // Distribute results to captured subtrees.
        let ret = match tag {
            TAG_ELIM => {
                for &(child, _) in &children {
                    ctx.write(self.res_of(child), pack(TAG_ELIM, base)).await;
                }
                self.clamp_ret(base)
            }
            TAG_COUNT => {
                let mut total = delta;
                for &(child, csum) in &children {
                    ctx.write(self.res_of(child), pack(TAG_COUNT, base + total))
                        .await;
                    total += csum;
                }
                self.clamp_ret(base)
            }
            _ => unreachable!("funnel result tag"),
        };
        ret
    }

    async fn await_result(&self, ctx: &ProcCtx, pid: usize) -> (Word, i64) {
        let r = ctx.wait_until(self.res_of(pid), |v| v != RES_NONE).await;
        unpack(r)
    }

    /// Central value (test/assertion helper; zero simulated cost).
    pub fn peek_value(&self, m: &Machine) -> i64 {
        m.peek(self.central) as i64
    }

    /// Sets the central value before a run (setup helper; zero simulated
    /// cost).
    pub fn poke_set(&self, m: &mut Machine, v: i64) {
        m.poke(self.central, v as u64);
    }

    /// Current traversal-depth preference of processor `pid` (diagnostic
    /// view of the adaption state; zero simulated cost).
    pub fn depth_preference(&self, pid: usize) -> usize {
        self.depth.borrow()[pid]
    }

    /// Re-labels this counter's central word for hot-spot reports.
    pub fn label(&self, m: &mut Machine, name: &str) {
        m.label(self.central, 1, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_sim::MachineConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn cfg(p: usize) -> SimFunnelConfig {
        SimFunnelConfig::for_procs(p)
    }

    #[test]
    fn sequential_semantics() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let c = SimFunnelCounter::build(&mut m, 1, CounterMode::BOUNDED_AT_ZERO, cfg(1));
        let ctx = m.ctx();
        let c2 = c.clone();
        m.spawn(async move {
            let c = c2;
            assert_eq!(c.fetch_inc(&ctx).await, 0);
            assert_eq!(c.fetch_inc(&ctx).await, 1);
            assert_eq!(c.fetch_dec(&ctx).await, 2);
            assert_eq!(c.fetch_dec(&ctx).await, 1);
            assert_eq!(c.fetch_dec(&ctx).await, 0); // saturated
        });
        assert!(m.run().is_quiescent());
        assert_eq!(c.peek_value(&m), 0);
    }

    #[test]
    fn concurrent_increments_exact() {
        const P: usize = 32;
        const N: usize = 20;
        let mut m = Machine::new(MachineConfig::alewife_like(), 11);
        let c = SimFunnelCounter::build(&mut m, P, CounterMode::BOUNDED_AT_ZERO, cfg(P));
        for _ in 0..P {
            let ctx = m.ctx();
            let c = c.clone();
            m.spawn(async move {
                for _ in 0..N {
                    c.fetch_inc(&ctx).await;
                }
            });
        }
        assert!(m.run().is_quiescent());
        assert_eq!(c.peek_value(&m), (P * N) as i64);
    }

    #[test]
    fn concurrent_mixed_balances() {
        const P: usize = 16;
        const N: usize = 30;
        let mut m = Machine::new(MachineConfig::alewife_like(), 5);
        let c = SimFunnelCounter::build(&mut m, P, CounterMode::FetchAdd, cfg(P));
        // Seed a large initial value so unbounded arithmetic is exact.
        m.poke(c.central, 1_000);
        for p in 0..P {
            let ctx = m.ctx();
            let c = c.clone();
            m.spawn(async move {
                for _ in 0..N {
                    if p % 2 == 0 {
                        c.fetch_inc(&ctx).await;
                    } else {
                        c.fetch_dec(&ctx).await;
                    }
                }
            });
        }
        assert!(m.run().is_quiescent());
        assert_eq!(c.peek_value(&m), 1_000);
    }

    #[test]
    fn bounded_mixed_never_negative_and_conserves() {
        const P: usize = 24;
        const N: usize = 25;
        let mut m = Machine::new(MachineConfig::alewife_like(), 7);
        let c = SimFunnelCounter::build(&mut m, P, CounterMode::BOUNDED_AT_ZERO, cfg(P));
        let mins = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let c = c.clone();
            let mins = Rc::clone(&mins);
            m.spawn(async move {
                for i in 0..N {
                    let v = if (p + i) % 3 != 0 {
                        c.fetch_inc(&ctx).await
                    } else {
                        c.fetch_dec(&ctx).await
                    };
                    mins.borrow_mut().push(v);
                }
            });
        }
        assert!(m.run().is_quiescent());
        assert!(c.peek_value(&m) >= 0);
        assert!(mins.borrow().iter().all(|&v| v >= 0));
    }

    #[test]
    fn deterministic() {
        fn run(seed: u64) -> (i64, u64) {
            let mut m = Machine::new(MachineConfig::alewife_like(), seed);
            let c = SimFunnelCounter::build(&mut m, 8, CounterMode::BOUNDED_AT_ZERO, cfg(8));
            for p in 0..8 {
                let ctx = m.ctx();
                let c = c.clone();
                m.spawn(async move {
                    for i in 0..20 {
                        if (p + i) % 2 == 0 {
                            c.fetch_inc(&ctx).await;
                        } else {
                            c.fetch_dec(&ctx).await;
                        }
                    }
                });
            }
            assert!(m.run().is_quiescent());
            (c.peek_value(&m), m.now())
        }
        assert_eq!(run(3), run(3));
    }
}

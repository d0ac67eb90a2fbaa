//! Combining-funnel counter over simulated memory — the paper's Figure 10,
//! including collision layers, homogeneous same-size trees, elimination of
//! reversing operations, local adaption, and the bounds check folded into
//! the funnel (rather than paying two traversals à la Gottlieb et al.).

use funnelpq_sim::{Addr, Machine, ProcCtx, Word};

use crate::error::SimPqError;
use crate::walk::{FunnelObject, SimFunnel};

/// Tuning parameters for simulated combining funnels (counters and stacks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFunnelConfig {
    /// Width (in slots) of each combining layer, outermost first.
    pub widths: Vec<usize>,
    /// Collision attempts per layer before trying the central object.
    pub attempts: u32,
    /// Number of capture-checks (spaced
    /// [`crate::costs::FUNNEL_SPIN_STEP`] cycles apart) spent waiting after
    /// each attempt, per layer.
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

const TAG_COUNT: Word = 1;
const TAG_ELIM: Word = 2;

fn pack(tag: Word, v: i64) -> Word {
    ((v as u64) << 2) | tag
}

fn unpack(x: Word) -> (Word, i64) {
    (x & 0b11, (x as i64) >> 2)
}

/// A combining-funnel shared counter in simulated memory: the crate's one
/// funnel walk over trees that carry nothing but their size.
///
/// Layout: one central word, one slot word per layer position, and one
/// record (location, sum, result) per processor, records line-padded.
#[derive(Debug, Clone)]
pub struct SimFunnelCounter {
    mode: CounterMode,
    central: Addr,
    funnel: SimFunnel<0>,
}

impl SimFunnelCounter {
    /// Allocates a funnel counter (initial value zero) for `procs`
    /// processors.
    pub fn build(m: &mut Machine, procs: usize, mode: CounterMode, cfg: SimFunnelConfig) -> Self {
        let central = m.alloc(1);
        let stride = m.line_words().max(4);
        let funnel = SimFunnel::build(m, procs, cfg, stride);
        m.label(central, 1, "funnel counter central");
        funnel.label(m);
        SimFunnelCounter {
            mode,
            central,
            funnel,
        }
    }

    /// Fetch-and-increment through the funnel.
    pub async fn fetch_inc(&self, ctx: &ProcCtx) -> i64 {
        self.funnel.operate(self, ctx, 1, []).await
    }

    /// Fetch-and-decrement through the funnel (bounded below by zero in
    /// the bounded modes).
    pub async fn fetch_dec(&self, ctx: &ProcCtx) -> i64 {
        self.funnel.operate(self, ctx, -1, []).await
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
        self.funnel.depth.borrow()[pid]
    }

    /// Re-labels this counter's central word for hot-spot reports.
    pub fn label(&self, m: &mut Machine, name: &str) {
        m.label(self.central, 1, name);
    }
}

impl FunnelObject<0> for SimFunnelCounter {
    type Output = i64;
    const SPAN: &'static str = "funnel-traverse";

    async fn meet(
        &self,
        ctx: &ProcCtx,
        _: usize,
        _: usize,
        sum: i64,
        qsum: i64,
        _: &mut [Word; 0],
    ) -> Option<(Word, Word)> {
        if self.mode == CounterMode::FetchAdd || qsum != -sum {
            debug_assert!(
                self.mode == CounterMode::FetchAdd || qsum.signum() == sum.signum(),
                "layer discipline should make same-layer trees compatible"
            );
            return None;
        }
        // Elimination: short-cut read of the central value, no update.
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
        Some((pack(TAG_ELIM, my_v), pack(TAG_ELIM, q_v)))
    }

    async fn central(&self, ctx: &ProcCtx, sum: i64, _: &[Word; 0]) -> (Option<Word>, bool) {
        let val = ctx.read(self.central).await as i64;
        let new = self.mode.clamp(val + sum);
        let got = ctx.cas(self.central, val as u64, new as u64).await;
        if got == val as u64 {
            (Some(pack(TAG_COUNT, val)), false)
        } else {
            (None, true)
        }
    }

    async fn distribute(
        &self,
        ctx: &ProcCtx,
        result: Word,
        delta: i64,
        children: &[(usize, i64)],
    ) -> i64 {
        let (tag, base) = unpack(result);
        let mut total = delta;
        for &(child, csum) in children {
            let v = if tag == TAG_ELIM { base } else { base + total };
            ctx.write(self.funnel.res_of(child), pack(tag, v)).await;
            total += csum;
        }
        self.mode.clamp(base)
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

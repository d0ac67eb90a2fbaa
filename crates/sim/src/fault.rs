//! Deterministic fault injection for the simulated machine.
//!
//! A [`FaultPlan`] is a declarative, seeded description of adversity:
//! processor stalls (scheduled, or triggered by a named span so a stall can
//! target a lock holder or funnel combiner mid-operation), per-region
//! latency spikes and jitter (NUMA-asymmetry emulation), and crash-stop of
//! a processor. Attach one with [`crate::Machine::attach_faults`] before
//! running.
//!
//! # Cost model
//!
//! The fault layer follows the tracer's cold-split pattern: with no plan
//! attached (the default) the event-pop and transaction fast paths each pay
//! one pointer-presence test, and the fault machinery lives in `#[cold]`,
//! never-inlined functions. A machine with no plan attached is bit-identical
//! to one built before this module existed, and the differential tests in
//! `tests/chaos_conformance.rs` hold an *empty* attached plan to the same
//! standard.
//!
//! # Determinism
//!
//! Fault randomness (jitter draws) comes from the plan's own
//! [`XorShift64Star`] stream, seeded by [`FaultPlan::new`], so a plan
//! perturbs the schedule identically on every run and independently of the
//! workload's per-processor RNG streams.

use std::fmt;

use funnelpq_util::XorShift64Star;

use crate::machine::{Addr, ProcId};

/// Whether a span-triggered fault fires when the span opens or closes.
///
/// `Begin` of a span that brackets a critical region targets the processor
/// *entering* it (a funnel combiner at its capture point); `End` of an
/// acquire span targets the processor that now *holds* a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPoint {
    /// Fire when the named span opens.
    Begin,
    /// Fire when the named span closes.
    End,
}

impl fmt::Display for SpanPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanPoint::Begin => write!(f, "begin"),
            SpanPoint::End => write!(f, "end"),
        }
    }
}

/// One declarative fault in a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Pause processor `proc` for `cycles` starting at cycle `at`: its
    /// events inside `[at, at + cycles)` are delivered at the window's end,
    /// in their original relative order.
    StallAt {
        /// The processor to pause.
        proc: ProcId,
        /// Window start, in cycles.
        at: u64,
        /// Window length, in cycles.
        cycles: u64,
    },
    /// Pause whichever processor emits the `occurrence`-th machine-wide
    /// `point` event of the span named `name`, for `cycles` cycles starting
    /// at the moment of the span event. This is how a plan targets a
    /// processor *because of what it is doing* — e.g. the holder of an MCS
    /// lock (`"mcs-acquire"` / [`SpanPoint::End`]) or a funnel combiner at
    /// its capture point (`"funnel-combine"` / [`SpanPoint::Begin`]).
    StallOnSpan {
        /// Span label to match (see [`crate::ProcCtx::span`]).
        name: &'static str,
        /// Open or close event.
        point: SpanPoint,
        /// 1-based machine-wide occurrence that triggers the stall.
        occurrence: u32,
        /// Stall length, in cycles.
        cycles: u64,
    },
    /// Add latency to every transaction targeting `addr..addr + words`
    /// issued while `from <= now < until`: `extra_net` cycles per network
    /// leg (paid twice, request and reply) and `extra_service` cycles of
    /// line occupancy. Emulates a far NUMA node or a congested region.
    RegionDelay {
        /// First word of the affected range.
        addr: Addr,
        /// Number of affected words.
        words: usize,
        /// Window start, in cycles.
        from: u64,
        /// Window end (exclusive), in cycles.
        until: u64,
        /// Extra network latency per leg.
        extra_net: u64,
        /// Extra line-service time.
        extra_service: u64,
    },
    /// Add `0..=max_extra` uniformly random cycles of network latency (per
    /// leg) to every transaction issued while `from <= now < until`, drawn
    /// from the plan's own RNG stream.
    Jitter {
        /// Window start, in cycles.
        from: u64,
        /// Window end (exclusive), in cycles.
        until: u64,
        /// Largest extra per-leg latency.
        max_extra: u64,
    },
    /// Crash-stop processor `proc` at cycle `at`: its first event at or
    /// after `at` is discarded, its task is removed, and it never runs
    /// again. Memory effects it completed before `at` remain (crash-stop,
    /// not rollback); whatever operation it was inside is simply lost.
    Crash {
        /// The processor to kill.
        proc: ProcId,
        /// Crash time, in cycles.
        at: u64,
    },
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A fault names a processor the run does not have.
    ProcOutOfRange {
        /// Description of the offending fault.
        fault: String,
        /// The offending processor id.
        proc: ProcId,
        /// Number of processors in the run.
        procs: usize,
    },
    /// A fault's time window is empty or inverted.
    EmptyWindow {
        /// Description of the offending fault.
        fault: String,
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
    },
    /// A stall has zero length, so it could never be observed.
    ZeroCycles {
        /// Description of the offending fault.
        fault: String,
    },
    /// A span-triggered stall matches no possible event.
    BadSpanRule {
        /// Description of the offending fault.
        fault: String,
        /// What is wrong with it.
        detail: &'static str,
    },
    /// A region delay points outside allocated simulated memory.
    AddrOutOfRange {
        /// Description of the offending fault.
        fault: String,
        /// First affected word.
        addr: Addr,
        /// Number of affected words.
        words: usize,
        /// Allocated simulated memory size, in words.
        mem_words: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::ProcOutOfRange { fault, proc, procs } => {
                write!(
                    f,
                    "fault plan: {fault}: processor {proc} out of range (run has {procs})"
                )
            }
            FaultPlanError::EmptyWindow { fault, from, until } => {
                write!(f, "fault plan: {fault}: empty window [{from}, {until})")
            }
            FaultPlanError::ZeroCycles { fault } => {
                write!(f, "fault plan: {fault}: stall length must be positive")
            }
            FaultPlanError::BadSpanRule { fault, detail } => {
                write!(f, "fault plan: {fault}: {detail}")
            }
            FaultPlanError::AddrOutOfRange {
                fault,
                addr,
                words,
                mem_words,
            } => {
                write!(
                    f,
                    "fault plan: {fault}: words {addr}..{} outside allocated memory ({mem_words} words)",
                    addr + words
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

fn describe(fault: &Fault) -> String {
    match fault {
        Fault::StallAt { proc, at, cycles } => {
            format!("stall proc {proc} at {at} for {cycles}")
        }
        Fault::StallOnSpan {
            name,
            point,
            occurrence,
            cycles,
        } => format!("stall on span {name:?} {point} #{occurrence} for {cycles}"),
        Fault::RegionDelay {
            addr, from, until, ..
        } => format!("region delay at word {addr} during [{from}, {until})"),
        Fault::Jitter {
            from,
            until,
            max_extra,
        } => format!("jitter up to {max_extra} during [{from}, {until})"),
        Fault::Crash { proc, at } => format!("crash proc {proc} at {at}"),
    }
}

/// A seeded, declarative set of faults to inject into one run.
///
/// Build one with the chainable constructors, then attach it with
/// [`crate::Machine::attach_faults`]:
///
/// ```
/// use funnelpq_sim::fault::{FaultPlan, SpanPoint};
/// use funnelpq_sim::{Machine, MachineConfig};
///
/// let plan = FaultPlan::new(7)
///     .stall_at(0, 100, 5_000)
///     .stall_on_span("mcs-acquire", SpanPoint::End, 1, 2_000)
///     .jitter(0, 1_000_000, 3)
///     .crash(2, 40_000);
/// let mut m = Machine::new(MachineConfig::test_tiny(), 1);
/// m.attach_faults(&plan).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the plan's private RNG stream (jitter draws).
    pub seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan whose RNG stream is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a [`Fault::StallAt`].
    pub fn stall_at(mut self, proc: ProcId, at: u64, cycles: u64) -> Self {
        self.faults.push(Fault::StallAt { proc, at, cycles });
        self
    }

    /// Adds a [`Fault::StallOnSpan`].
    pub fn stall_on_span(
        mut self,
        name: &'static str,
        point: SpanPoint,
        occurrence: u32,
        cycles: u64,
    ) -> Self {
        self.faults.push(Fault::StallOnSpan {
            name,
            point,
            occurrence,
            cycles,
        });
        self
    }

    /// Adds a [`Fault::RegionDelay`].
    pub fn region_delay(
        mut self,
        addr: Addr,
        words: usize,
        from: u64,
        until: u64,
        extra_net: u64,
        extra_service: u64,
    ) -> Self {
        self.faults.push(Fault::RegionDelay {
            addr,
            words,
            from,
            until,
            extra_net,
            extra_service,
        });
        self
    }

    /// Adds a [`Fault::Jitter`].
    pub fn jitter(mut self, from: u64, until: u64, max_extra: u64) -> Self {
        self.faults.push(Fault::Jitter {
            from,
            until,
            max_extra,
        });
        self
    }

    /// Adds a [`Fault::Crash`].
    pub fn crash(mut self, proc: ProcId, at: u64) -> Self {
        self.faults.push(Fault::Crash { proc, at });
        self
    }

    /// Adds an arbitrary [`Fault`].
    pub fn push(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The plan's faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan injects nothing (attaching it must then be
    /// observationally free: the run stays bit-identical).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Validates the plan against a run of `procs` processors. Shape-only
    /// checks (windows, cycles) are repeated by
    /// [`crate::Machine::attach_faults`], which also checks memory ranges;
    /// call this where the processor count is known.
    pub fn check(&self, procs: usize) -> Result<(), FaultPlanError> {
        self.check_shape()?;
        for f in &self.faults {
            let proc = match *f {
                Fault::StallAt { proc, .. } | Fault::Crash { proc, .. } => proc,
                _ => continue,
            };
            if proc >= procs {
                return Err(FaultPlanError::ProcOutOfRange {
                    fault: describe(f),
                    proc,
                    procs,
                });
            }
        }
        Ok(())
    }

    /// Machine-independent validity: windows, lengths, span rules.
    pub(crate) fn check_shape(&self) -> Result<(), FaultPlanError> {
        for f in &self.faults {
            match *f {
                Fault::StallAt { cycles, .. } => {
                    if cycles == 0 {
                        return Err(FaultPlanError::ZeroCycles { fault: describe(f) });
                    }
                }
                Fault::StallOnSpan {
                    name,
                    occurrence,
                    cycles,
                    ..
                } => {
                    if cycles == 0 {
                        return Err(FaultPlanError::ZeroCycles { fault: describe(f) });
                    }
                    if name.is_empty() {
                        return Err(FaultPlanError::BadSpanRule {
                            fault: describe(f),
                            detail: "span name must not be empty",
                        });
                    }
                    if occurrence == 0 {
                        return Err(FaultPlanError::BadSpanRule {
                            fault: describe(f),
                            detail: "occurrence is 1-based and must be positive",
                        });
                    }
                }
                Fault::RegionDelay {
                    from,
                    until,
                    extra_net,
                    extra_service,
                    ..
                } => {
                    if from >= until {
                        return Err(FaultPlanError::EmptyWindow {
                            fault: describe(f),
                            from,
                            until,
                        });
                    }
                    if extra_net == 0 && extra_service == 0 {
                        return Err(FaultPlanError::ZeroCycles { fault: describe(f) });
                    }
                }
                Fault::Jitter {
                    from,
                    until,
                    max_extra,
                } => {
                    if from >= until {
                        return Err(FaultPlanError::EmptyWindow {
                            fault: describe(f),
                            from,
                            until,
                        });
                    }
                    if max_extra == 0 {
                        return Err(FaultPlanError::ZeroCycles { fault: describe(f) });
                    }
                }
                Fault::Crash { .. } => {}
            }
        }
        Ok(())
    }

    /// Validates memory ranges against an allocation of `mem_words` words.
    pub(crate) fn check_mem(&self, mem_words: usize) -> Result<(), FaultPlanError> {
        for f in &self.faults {
            if let Fault::RegionDelay { addr, words, .. } = *f {
                if words == 0 || addr + words > mem_words {
                    return Err(FaultPlanError::AddrOutOfRange {
                        fault: describe(f),
                        addr,
                        words,
                        mem_words,
                    });
                }
            }
        }
        Ok(())
    }
}

/// What the fault layer actually injected, for reports and tests
/// ([`crate::Machine::fault_summary`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Stall windows opened (scheduled and span-triggered).
    pub stalls: u64,
    /// Events deferred out of stall windows.
    pub events_delayed: u64,
    /// Processors crash-stopped.
    pub crashes: u64,
    /// Extra latency cycles added to transactions (region delays + jitter,
    /// counting both network legs).
    pub extra_latency_cycles: u64,
}

struct SpanRule {
    name: &'static str,
    point: SpanPoint,
    /// Countdown to the triggering occurrence; 0 = already fired.
    remaining: u32,
    cycles: u64,
}

/// What to do with one popped event (returned by
/// [`FaultState::gate`]).
pub(crate) enum FaultGate {
    /// Deliver normally.
    Deliver,
    /// Re-push at the given time (the processor is stalled).
    Delay(u64),
    /// First event at or past the processor's crash time: kill the task.
    Kill,
    /// Event for an already-crashed processor: drop it.
    Swallow,
}

/// Live fault-injection state, compiled from a [`FaultPlan`] by
/// [`crate::Machine::attach_faults`].
pub(crate) struct FaultState {
    rng: XorShift64Star,
    /// Dynamic (span-triggered) stall horizon per processor; grown on use.
    stall_until: Vec<u64>,
    /// Static stall windows `(proc, from, until)`.
    windows: Vec<(ProcId, u64, u64)>,
    /// Crash time per processor (`u64::MAX` = never); grown on use.
    crash_at: Vec<u64>,
    /// Processors killed so far, in kill order.
    crashed: Vec<ProcId>,
    span_rules: Vec<SpanRule>,
    /// `(lo, hi, from, until, extra_net, extra_service)` word ranges.
    region_delays: Vec<(Addr, Addr, u64, u64, u64, u64)>,
    jitters: Vec<(u64, u64, u64)>,
    summary: FaultSummary,
}

impl FaultState {
    pub(crate) fn from_plan(plan: &FaultPlan) -> Self {
        let mut st = FaultState {
            rng: XorShift64Star::new(plan.seed ^ 0xFA_17_FA_17_FA_17_FA_17),
            stall_until: Vec::new(),
            windows: Vec::new(),
            crash_at: Vec::new(),
            crashed: Vec::new(),
            span_rules: Vec::new(),
            region_delays: Vec::new(),
            jitters: Vec::new(),
            summary: FaultSummary::default(),
        };
        for f in plan.faults() {
            match *f {
                Fault::StallAt { proc, at, cycles } => {
                    st.windows.push((proc, at, at.saturating_add(cycles)));
                    st.summary.stalls += 1;
                }
                Fault::StallOnSpan {
                    name,
                    point,
                    occurrence,
                    cycles,
                } => st.span_rules.push(SpanRule {
                    name,
                    point,
                    remaining: occurrence,
                    cycles,
                }),
                Fault::RegionDelay {
                    addr,
                    words,
                    from,
                    until,
                    extra_net,
                    extra_service,
                } => st.region_delays.push((
                    addr,
                    addr + words,
                    from,
                    until,
                    extra_net,
                    extra_service,
                )),
                Fault::Jitter {
                    from,
                    until,
                    max_extra,
                } => st.jitters.push((from, until, max_extra)),
                Fault::Crash { proc, at } => {
                    if st.crash_at.len() <= proc {
                        st.crash_at.resize(proc + 1, u64::MAX);
                    }
                    st.crash_at[proc] = st.crash_at[proc].min(at);
                }
            }
        }
        st
    }

    /// Decides the fate of the event `(t, proc)` at the head of the queue.
    pub(crate) fn gate(&mut self, t: u64, proc: ProcId) -> FaultGate {
        if self.crashed.contains(&proc) {
            return FaultGate::Swallow;
        }
        if self.crash_at.get(proc).is_some_and(|&at| t >= at) {
            self.crashed.push(proc);
            self.summary.crashes += 1;
            return FaultGate::Kill;
        }
        let mut until = self.stall_until.get(proc).copied().unwrap_or(0);
        for &(p, from, to) in &self.windows {
            if p == proc && t >= from && t < to {
                until = until.max(to);
            }
        }
        if until > t {
            self.summary.events_delayed += 1;
            FaultGate::Delay(until)
        } else {
            FaultGate::Deliver
        }
    }

    /// Feeds one span event (from [`crate::ProcCtx::span`] /
    /// [`crate::Span::end`]) to the span-triggered stall rules.
    pub(crate) fn on_span(&mut self, proc: ProcId, name: &str, point: SpanPoint, now: u64) {
        for rule in &mut self.span_rules {
            if rule.remaining == 0 || rule.point != point || rule.name != name {
                continue;
            }
            rule.remaining -= 1;
            if rule.remaining == 0 {
                if self.stall_until.len() <= proc {
                    self.stall_until.resize(proc + 1, 0);
                }
                let until = now.saturating_add(rule.cycles);
                self.stall_until[proc] = self.stall_until[proc].max(until);
                self.summary.stalls += 1;
            }
        }
    }

    /// Extra `(net_per_leg, service)` latency for a transaction on `addr`
    /// issued at `now`.
    pub(crate) fn latency_extras(&mut self, addr: Addr, now: u64) -> (u64, u64) {
        let mut net = 0u64;
        let mut service = 0u64;
        for &(lo, hi, from, until, en, es) in &self.region_delays {
            if addr >= lo && addr < hi && now >= from && now < until {
                net += en;
                service += es;
            }
        }
        for &(from, until, max_extra) in &self.jitters {
            if now >= from && now < until {
                net += self.rng.below(max_extra + 1);
            }
        }
        self.summary.extra_latency_cycles += 2 * net + service;
        (net, service)
    }

    /// True while `proc` sits inside a stall window at time `now` (for the
    /// livelock diagnostic).
    pub(crate) fn stalled_until(&self, proc: ProcId, now: u64) -> Option<u64> {
        let mut until = self.stall_until.get(proc).copied().unwrap_or(0);
        for &(p, from, to) in &self.windows {
            if p == proc && now >= from && now < to {
                until = until.max(to);
            }
        }
        (until > now).then_some(until)
    }

    pub(crate) fn crashed(&self) -> &[ProcId] {
        &self.crashed
    }

    pub(crate) fn summary(&self) -> FaultSummary {
        self.summary.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shape_validation() {
        assert!(FaultPlan::new(1).check(4).is_ok());
        let e = FaultPlan::new(1).stall_at(9, 0, 10).check(4).unwrap_err();
        assert!(matches!(e, FaultPlanError::ProcOutOfRange { proc: 9, .. }));
        let e = FaultPlan::new(1).stall_at(0, 5, 0).check(4).unwrap_err();
        assert!(matches!(e, FaultPlanError::ZeroCycles { .. }));
        let e = FaultPlan::new(1).jitter(10, 10, 3).check(4).unwrap_err();
        assert!(matches!(e, FaultPlanError::EmptyWindow { .. }));
        let e = FaultPlan::new(1)
            .stall_on_span("x", SpanPoint::Begin, 0, 5)
            .check(4)
            .unwrap_err();
        assert!(matches!(e, FaultPlanError::BadSpanRule { .. }));
        assert!(FaultPlanError::ZeroCycles {
            fault: "stall proc 0 at 5 for 0".into()
        }
        .to_string()
        .contains("must be positive"));
    }

    #[test]
    fn plan_mem_validation() {
        let p = FaultPlan::new(1).region_delay(10, 4, 0, 100, 5, 0);
        assert!(p.check_mem(14).is_ok());
        assert!(matches!(
            p.check_mem(13).unwrap_err(),
            FaultPlanError::AddrOutOfRange { .. }
        ));
    }

    #[test]
    fn gate_stall_and_crash() {
        let plan = FaultPlan::new(3).stall_at(1, 100, 50).crash(2, 500);
        let mut st = FaultState::from_plan(&plan);
        assert!(matches!(st.gate(99, 1), FaultGate::Deliver));
        assert!(matches!(st.gate(120, 1), FaultGate::Delay(150)));
        assert!(matches!(st.gate(150, 1), FaultGate::Deliver));
        assert!(matches!(st.gate(120, 0), FaultGate::Deliver));
        assert!(matches!(st.gate(499, 2), FaultGate::Deliver));
        assert!(matches!(st.gate(500, 2), FaultGate::Kill));
        assert!(matches!(st.gate(600, 2), FaultGate::Swallow));
        assert_eq!(st.crashed(), &[2]);
        assert_eq!(st.summary().crashes, 1);
    }

    #[test]
    fn span_rule_counts_occurrences() {
        let plan = FaultPlan::new(3).stall_on_span("lock-hold", SpanPoint::Begin, 2, 40);
        let mut st = FaultState::from_plan(&plan);
        st.on_span(0, "lock-hold", SpanPoint::Begin, 10);
        assert!(matches!(st.gate(20, 0), FaultGate::Deliver));
        st.on_span(3, "lock-hold", SpanPoint::End, 15); // wrong point: ignored
        st.on_span(3, "lock-hold", SpanPoint::Begin, 20);
        assert!(matches!(st.gate(30, 3), FaultGate::Delay(60)));
        assert!(st.stalled_until(3, 30).is_some());
        assert!(st.stalled_until(0, 30).is_none());
    }

    #[test]
    fn latency_extras_window_and_region() {
        let plan = FaultPlan::new(3).region_delay(8, 2, 100, 200, 7, 3);
        let mut st = FaultState::from_plan(&plan);
        assert_eq!(st.latency_extras(8, 150), (7, 3));
        assert_eq!(st.latency_extras(9, 199), (7, 3));
        assert_eq!(st.latency_extras(10, 150), (0, 0)); // outside range
        assert_eq!(st.latency_extras(8, 99), (0, 0)); // outside window
        assert_eq!(st.summary().extra_latency_cycles, 2 * (2 * 7 + 3));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let draws = |seed| {
            let mut st = FaultState::from_plan(&FaultPlan::new(seed).jitter(0, 1000, 9));
            (0..8)
                .map(|i| st.latency_extras(0, i).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
    }
}

//! Chaos harness: the paper's §4 workload run under an attached
//! [`FaultPlan`], with every queue operation recorded into an audit
//! [`History`] and the post-run invariants checked.
//!
//! The harness runs in two phases. Phase one is the standard workload —
//! the same processor loop, RNG draws, and record calls as
//! [`crate::workload::run_queue_workload`], so with an **empty** fault
//! plan the phase-one [`RunResult`] is bit-identical to the fault-free
//! driver's (the differential tests in `tests/chaos_conformance.rs` hold
//! it to that). Phase two, entered only if phase one quiesced, spawns one
//! extra processor that drains the queue through the public `delete_min`
//! API so element conservation can be checked end to end.
//!
//! Between the phases, on crash-free quiescent runs, the queue's own
//! structural invariants (heap shape, counter consistency, lock freedom)
//! are validated host-side via [`SimPq::validate`].

use std::rc::Rc;

use funnelpq_sim::audit::{audit_history, AuditError, AuditReport, AuditScope};
use funnelpq_sim::audit::{History, OpRecord, Order};
use funnelpq_sim::fault::FaultSummary;
use funnelpq_sim::{FaultPlan, FaultPlanError, ProcId, RunOutcome};

use crate::queues::{Algorithm, BuildParams, SimPq};
use crate::workload::{build_machine, RunResult, Workload, MAX_CYCLES};

/// Default livelock-watchdog window (cycles): far above any healthy
/// inter-operation gap, far below the cycle budget.
pub const DEFAULT_WATCHDOG: u64 = 50_000_000;

/// Build parameters the chaos harness uses for `wl`: the fault-free
/// driver's capacity sizing, plus one extra processor slot for the
/// phase-two drainer. Feed the same params to
/// [`crate::workload::run_queue_workload_with`] to produce the baseline a
/// fault-free chaos run must match bit for bit.
pub fn chaos_build_params(wl: &Workload) -> BuildParams {
    let mut p = BuildParams::new(wl.procs + 1, wl.num_priorities);
    p.capacity = (wl.procs * wl.ops_per_proc).max(64) + 8;
    p
}

/// Everything observed in one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Aggregate stats snapshotted at the end of phase one (before the
    /// drain), comparable against the fault-free driver's [`RunResult`].
    pub result: RunResult,
    /// How phase one ended.
    pub outcome: RunOutcome,
    /// How the drain phase ended (`None` if phase one did not quiesce).
    pub drain_outcome: Option<RunOutcome>,
    /// The full operation history, main phase and drain.
    pub history: Vec<OpRecord>,
    /// Audit aggregates (the history passed every invariant check).
    pub report: AuditReport,
    /// Processors actually crash-stopped during the run.
    pub crashed: Vec<ProcId>,
    /// What the fault layer did.
    pub fault_summary: FaultSummary,
    /// Item count from structural validation between the phases
    /// (crash-free quiescent runs only).
    pub structural_items: Option<u64>,
}

impl ChaosRun {
    /// True when the machine wedged: phase one or the drain ended in
    /// deadlock, livelock, or the cycle limit.
    pub fn wedged(&self) -> bool {
        !self.outcome.is_quiescent()
            || self
                .drain_outcome
                .as_ref()
                .is_some_and(|o| !o.is_quiescent())
    }
}

/// A chaos run that failed one of the checks the fault model does not
/// excuse.
#[derive(Debug, Clone)]
pub enum ChaosError {
    /// The fault plan itself was malformed.
    Plan(FaultPlanError),
    /// The machine wedged under an **empty** fault plan — a genuine
    /// algorithm or harness bug, never acceptable.
    Wedged {
        /// The non-quiescent outcome, with diagnostics.
        outcome: RunOutcome,
        /// The operation history up to the wedge.
        history: Vec<OpRecord>,
    },
    /// Structural validation failed on a crash-free quiescent run.
    Structure {
        /// What was inconsistent.
        detail: String,
        /// The operation history.
        history: Vec<OpRecord>,
    },
    /// The operation history violated an audit invariant.
    Audit {
        /// The violation.
        error: AuditError,
        /// The operation history.
        history: Vec<OpRecord>,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Plan(e) => write!(f, "bad fault plan: {e}"),
            ChaosError::Wedged { outcome, .. } => {
                write!(f, "machine wedged under an empty fault plan: {outcome}")
            }
            ChaosError::Structure { detail, .. } => {
                write!(f, "structural validation failed: {detail}")
            }
            ChaosError::Audit { error, .. } => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl ChaosError {
    /// The operation history at the point of failure (empty for plan
    /// errors). Dump this when diagnosing a failing run.
    pub fn history(&self) -> &[OpRecord] {
        match self {
            ChaosError::Plan(_) => &[],
            ChaosError::Wedged { history, .. }
            | ChaosError::Structure { history, .. }
            | ChaosError::Audit { history, .. } => history,
        }
    }
}

/// Runs the standard workload for `algo` under `plan`, with the livelock
/// watchdog armed at `watchdog_window` cycles (0 disarms it), then drains
/// and audits. See the module docs for the two-phase shape.
///
/// The audit scope follows the algorithm's declared consistency: relaxed
/// algorithms get the rank-error distribution, unbounded here — use
/// [`run_chaos_workload_bounded`] to make the audit enforce a ceiling.
pub fn run_chaos_workload(
    algo: Algorithm,
    wl: &Workload,
    plan: &FaultPlan,
    watchdog_window: u64,
) -> Result<ChaosRun, ChaosError> {
    run_chaos_workload_bounded(algo, wl, plan, watchdog_window, None)
}

/// [`run_chaos_workload`] with a hard per-delete drain rank-error bound:
/// the audit fails with [`AuditError::RankErrorExceeded`] if any drain
/// delete returns an item while more than `rank_error_bound` strictly
/// smaller items remain, or an Appendix-B window exceeds it. Strict
/// algorithms are always held to 0.
pub fn run_chaos_workload_bounded(
    algo: Algorithm,
    wl: &Workload,
    plan: &FaultPlan,
    watchdog_window: u64,
    rank_error_bound: Option<u64>,
) -> Result<ChaosRun, ChaosError> {
    assert!(wl.procs > 0 && wl.num_priorities > 0 && wl.ops_per_proc > 0);
    plan.check(wl.procs).map_err(ChaosError::Plan)?;
    let params = chaos_build_params(wl);
    let mut m = build_machine(wl);
    let q = Rc::new(SimPq::build(&mut m, algo, &params));
    // Attach after building so region-targeted faults can see the queue's
    // memory; attach even when the plan is empty so the differential tests
    // exercise the gated event path, not the fast path.
    m.attach_faults(plan).map_err(ChaosError::Plan)?;
    m.set_watchdog(watchdog_window);

    let hist = History::new();
    for _ in 0..wl.procs {
        let ctx = m.ctx();
        let q = Rc::clone(&q);
        let hist = hist.clone();
        let num_pris = wl.num_priorities as u64;
        let ops = wl.ops_per_proc;
        let local = wl.local_work;
        // This loop must stay call-for-call identical to the fault-free
        // driver's (`workload::run_queue_inner`): every `work`, RNG draw,
        // queue call, and `record` in the same order. History calls are
        // host-side and cost nothing, so an empty plan reproduces the
        // fault-free schedule exactly.
        m.spawn(async move {
            for i in 0..ops {
                ctx.work(local).await;
                let t0 = ctx.now();
                if ctx.random_bool(0.5) {
                    let pri = ctx.random_below(num_pris);
                    let item = (ctx.pid() * ops + i) as u64;
                    let tok = hist.begin_insert(ctx.pid(), pri, item, t0);
                    q.insert(&ctx, pri, item).await;
                    hist.complete(tok, ctx.now());
                    let dt = ctx.now() - t0;
                    ctx.record("all", dt);
                    ctx.record("insert", dt);
                } else {
                    let tok = hist.begin_delete(ctx.pid(), t0);
                    let got = q.delete_min(&ctx).await;
                    hist.complete_delete(tok, got, ctx.now());
                    let dt = ctx.now() - t0;
                    ctx.record("all", dt);
                    ctx.record("delete", dt);
                }
            }
        });
    }
    let outcome = m.run_for(MAX_CYCLES);
    let result = RunResult::from_machine(&m);
    let crashed = m.crashed();
    let fault_summary = m.fault_summary().unwrap_or_default();

    // Structural validation: only a crash-free quiescent machine promises
    // consistent structures (a crashed processor legitimately leaves e.g.
    // a tree counter out of sync with its bins).
    let structural_items = if outcome.is_quiescent() && crashed.is_empty() {
        match q.validate(&m) {
            Ok(n) => Some(n),
            Err(detail) => {
                return Err(ChaosError::Structure {
                    detail,
                    history: hist.snapshot(),
                })
            }
        }
    } else {
        None
    };

    // Drain phase: one fresh processor empties the queue through the
    // public API so conservation can be audited.
    let drain_outcome = if outcome.is_quiescent() {
        let ctx = m.ctx();
        let q = Rc::clone(&q);
        let h = hist.clone();
        m.spawn(async move {
            loop {
                let t0 = ctx.now();
                let tok = h.begin_delete(ctx.pid(), t0);
                let got = q.delete_min(&ctx).await;
                h.complete_delete(tok, got, ctx.now());
                h.mark_drain(tok);
                ctx.record("drain", ctx.now() - t0);
                if got.is_none() {
                    break;
                }
            }
        });
        Some(m.run_for(MAX_CYCLES))
    } else {
        None
    };

    let mut wedged =
        !outcome.is_quiescent() || drain_outcome.as_ref().is_some_and(|o| !o.is_quiescent());
    if wedged && plan.is_empty() {
        let bad = if outcome.is_quiescent() {
            drain_outcome.clone().expect("wedge was in the drain")
        } else {
            outcome.clone()
        };
        return Err(ChaosError::Wedged {
            outcome: bad,
            history: hist.snapshot(),
        });
    }

    // Conservation bookkeeping. A crashed delete can damage routing state
    // (e.g. tree counters) and strand items the drain cannot reach; those
    // items are still physically present, not lost, so count them into the
    // audit allowance. If even the host-side walk fails after a crash,
    // fall back to the lenient wedged audit.
    let mut stranded = 0u64;
    if !wedged {
        match q.peek_len(&m) {
            Ok(n) if crashed.is_empty() => {
                if n != 0 {
                    return Err(ChaosError::Structure {
                        detail: format!("{n} items remain after a crash-free full drain"),
                        history: hist.snapshot(),
                    });
                }
            }
            Ok(n) => stranded = n,
            Err(detail) if crashed.is_empty() => {
                return Err(ChaosError::Structure {
                    detail,
                    history: hist.snapshot(),
                })
            }
            Err(_) => wedged = true,
        }
    }

    let history = hist.snapshot();
    let scope = AuditScope {
        num_priorities: wl.num_priorities as u64,
        crashed: crashed.clone(),
        stranded,
        wedged,
        order: audit_order(algo, rank_error_bound),
    };
    let report = audit_history(&history, &scope).map_err(|error| ChaosError::Audit {
        error,
        history: history.clone(),
    })?;

    Ok(ChaosRun {
        result,
        outcome,
        drain_outcome,
        history,
        report,
        crashed,
        fault_summary,
        structural_items,
    })
}

/// `algo`'s declared consistency as an audit order (`rank_bound` if relaxed).
pub fn audit_order(algo: Algorithm, rank_bound: Option<u64>) -> Order {
    match algo.consistency() {
        funnelpq::Consistency::Linearizable => Order::Linearizable,
        funnelpq::Consistency::QuiescentlyConsistent => Order::Quiescent,
        funnelpq::Consistency::Relaxed => Order::Relaxed { rank_bound },
    }
}

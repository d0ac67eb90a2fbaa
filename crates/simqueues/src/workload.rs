//! The paper's benchmark workload (§4): processors alternate a constant
//! amount of local work with queue accesses; each access inserts a random
//! value or deletes the minimum, by fair coin flip; the queue starts empty;
//! the metric is mean access latency in cycles.

use std::rc::Rc;

use funnelpq_sim::audit::{audit_history, AuditError, AuditReport, AuditScope, History};
use funnelpq_sim::trace::{RegionMap, TraceEvent, TraceLog};
use funnelpq_sim::{Acc, HotSpot, Machine, MachineConfig, RunOutcome, Stats};

use crate::funnel::{CounterMode, SimFunnelConfig, SimFunnelCounter};
use crate::queues::{Algorithm, BuildParams, SimPq};

/// Parameters of one workload run.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of simulated processors.
    pub procs: usize,
    /// Priority range `0..num_priorities`.
    pub num_priorities: usize,
    /// Queue accesses per processor.
    pub ops_per_proc: usize,
    /// Local-work cycles between accesses ("kept at a small constant").
    pub local_work: u64,
    /// Experiment seed (machine + per-processor RNG streams).
    pub seed: u64,
    /// Memory-system parameters.
    pub machine: MachineConfig,
    /// Run on the naive linear-scan event queue instead of the indexed
    /// event wheel. Results are bit-identical; only wall-clock speed
    /// differs. For differential testing (`pqsim --naive-events`) and
    /// pqbench's `sim.naive_over_wheel_ratio` ledger row.
    pub naive_events: bool,
}

impl Workload {
    /// The paper's standard setup for `procs` processors and
    /// `num_priorities` priorities.
    pub fn standard(procs: usize, num_priorities: usize) -> Self {
        Workload {
            procs,
            num_priorities,
            ops_per_proc: 64,
            local_work: 50,
            seed: 0xF00D,
            machine: MachineConfig::alewife_like(),
            naive_events: false,
        }
    }
}

/// Aggregate result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Latency over all queue accesses.
    pub all: Acc,
    /// Latency of inserts only.
    pub insert: Acc,
    /// Latency of delete-mins only.
    pub delete: Acc,
    /// Total simulated cycles until quiescence.
    pub total_cycles: u64,
    /// Raw machine statistics.
    pub stats: Stats,
    /// Labelled memory regions ranked by queueing delay (the hot spots).
    pub hotspots: Vec<HotSpot>,
}

impl RunResult {
    pub(crate) fn from_machine(m: &Machine) -> Self {
        let stats = m.stats();
        RunResult {
            all: stats.acc("all"),
            insert: stats.acc("insert"),
            delete: stats.acc("delete"),
            total_cycles: m.now(),
            hotspots: m.hotspots(12),
            stats,
        }
    }
}

/// A workload run with the machine's tracer attached: the usual aggregate
/// result plus everything the `funnelpq_sim::trace` exporters need.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The aggregate result — bit-identical to the untraced run's.
    pub result: RunResult,
    /// Every trace event, in emission order.
    pub events: Vec<TraceEvent>,
    /// Line-to-region map of the structure under test, resolved after
    /// build (for `TimeSeries::build` and `chrome_trace_json`).
    pub regions: RegionMap,
}

/// Cycle budget guard: experiments that exceed this are treated as hung.
pub(crate) const MAX_CYCLES: u64 = 2_000_000_000;

pub(crate) fn build_machine(wl: &Workload) -> Machine {
    if wl.naive_events {
        Machine::new_reference(wl.machine, wl.seed)
    } else {
        Machine::new(wl.machine, wl.seed)
    }
}

/// Runs the paper's standard queue workload for `algo`.
///
/// # Panics
///
/// Panics if the simulation deadlocks or exceeds the cycle budget —
/// either indicates an algorithm bug.
pub fn run_queue_workload(algo: Algorithm, wl: &Workload) -> RunResult {
    let mut params = BuildParams::new(wl.procs, wl.num_priorities);
    params.capacity = (wl.procs * wl.ops_per_proc).max(64) + 8;
    run_queue_workload_with(algo, wl, &params)
}

/// Like [`run_queue_workload`], but with a [`TraceLog`] attached for the
/// whole run; returns the aggregate result (bit-identical to the untraced
/// run's — tracing is observational) plus the event log and region map.
pub fn run_queue_workload_traced(algo: Algorithm, wl: &Workload) -> TracedRun {
    let mut params = BuildParams::new(wl.procs, wl.num_priorities);
    params.capacity = (wl.procs * wl.ops_per_proc).max(64) + 8;
    let log = TraceLog::new();
    let (result, regions) = run_queue_inner(algo, wl, &params, Some(&log));
    TracedRun {
        result,
        events: log.take(),
        regions: regions.expect("traced run always builds a region map"),
    }
}

/// Like [`run_queue_workload`] with explicit build parameters (funnel
/// tuning sweeps, ablations).
pub fn run_queue_workload_with(algo: Algorithm, wl: &Workload, params: &BuildParams) -> RunResult {
    run_queue_inner(algo, wl, params, None).0
}

fn run_queue_inner(
    algo: Algorithm,
    wl: &Workload,
    params: &BuildParams,
    trace: Option<&TraceLog>,
) -> (RunResult, Option<RegionMap>) {
    assert!(wl.procs > 0 && wl.num_priorities > 0 && wl.ops_per_proc > 0);
    let mut m = build_machine(wl);
    let q = Rc::new(SimPq::build(&mut m, algo, params));
    let regions = trace.map(|log| {
        m.attach_tracer(log.handle());
        m.region_map()
    });
    for _ in 0..wl.procs {
        let ctx = m.ctx();
        let q = Rc::clone(&q);
        let num_pris = wl.num_priorities as u64;
        let ops = wl.ops_per_proc;
        let local = wl.local_work;
        m.spawn(async move {
            for i in 0..ops {
                ctx.work(local).await;
                let t0 = ctx.now();
                if ctx.random_bool(0.5) {
                    let pri = ctx.random_below(num_pris);
                    q.insert(&ctx, pri, (ctx.pid() * ops + i) as u64).await;
                    let dt = ctx.now() - t0;
                    ctx.record("all", dt);
                    ctx.record("insert", dt);
                } else {
                    q.delete_min(&ctx).await;
                    let dt = ctx.now() - t0;
                    ctx.record("all", dt);
                    ctx.record("delete", dt);
                }
            }
        });
    }
    match m.run_for(MAX_CYCLES) {
        RunOutcome::Quiescent => {}
        other => panic!("workload for {algo} did not finish: {other}"),
    }
    (RunResult::from_machine(&m), regions)
}

/// Contended batched churn: every processor alternates `insert_batch(k)`
/// and `delete_min_batch(k)` until it has moved `ops_per_proc` items.
/// Each *batch* is one recorded access; `total_cycles` divided by the
/// total item count is the throughput-side cycles-per-item figure (under
/// lock saturation, per-batch *latency* grows with the hold length even
/// as throughput improves, so makespan is the honest amortization
/// metric). Two fairness knobs keep the sweep over `k` apples-to-apples:
/// the unrecorded prefill is `k.max(64)` items per processor, so the
/// resident heap depth does not scale with `k`, and local work is paced
/// *per item* (`local_work × take` before each batch), so every sweep
/// point performs identical non-queue work.
///
/// # Panics
///
/// Panics if the simulation deadlocks or exceeds the cycle budget —
/// either indicates an algorithm bug.
pub fn run_batched_churn(algo: Algorithm, wl: &Workload, k: usize) -> RunResult {
    assert!(wl.procs > 0 && wl.num_priorities > 0 && wl.ops_per_proc > 0 && k > 0);
    let prefill = k.max(64);
    let mut params = BuildParams::new(wl.procs, wl.num_priorities);
    params.capacity = (wl.procs * (wl.ops_per_proc + 2 * prefill)).max(64) + 8;
    let mut m = build_machine(wl);
    let q = Rc::new(SimPq::build(&mut m, algo, &params));
    for _ in 0..wl.procs {
        let ctx = m.ctx();
        let q = Rc::clone(&q);
        let num_pris = wl.num_priorities as u64;
        let ops = wl.ops_per_proc;
        let local = wl.local_work;
        m.spawn(async move {
            // Per-processor item namespace wide enough for the prefill
            // plus every inserted batch.
            let mut next_item = (ctx.pid() * (ops + 2 * prefill)) as u64;
            let mut batch: Vec<(u64, u64)> = Vec::with_capacity(prefill);
            for _ in 0..prefill {
                batch.push((ctx.random_below(num_pris), next_item));
                next_item += 1;
            }
            q.insert_batch(&ctx, &batch).await.expect("capacity fits");
            let mut out: Vec<(u64, u64)> = Vec::with_capacity(k);
            let mut moved = 0;
            let mut insert_turn = true;
            while moved < ops {
                let take = k.min(ops - moved);
                ctx.work(local * take as u64).await;
                let t0 = ctx.now();
                if insert_turn {
                    batch.clear();
                    for _ in 0..take {
                        batch.push((ctx.random_below(num_pris), next_item));
                        next_item += 1;
                    }
                    q.insert_batch(&ctx, &batch).await.expect("capacity fits");
                    let dt = ctx.now() - t0;
                    ctx.record("all", dt);
                    ctx.record("insert", dt);
                } else {
                    out.clear();
                    q.delete_min_batch(&ctx, take, &mut out).await;
                    let dt = ctx.now() - t0;
                    ctx.record("all", dt);
                    ctx.record("delete", dt);
                }
                insert_turn = !insert_turn;
                moved += take;
            }
        });
    }
    match m.run_for(MAX_CYCLES) {
        RunOutcome::Quiescent => {}
        other => panic!("batched churn for {algo} did not finish: {other}"),
    }
    RunResult::from_machine(&m)
}

/// Result of one batched-quality run ([`run_batched_quality`]): latency
/// aggregates (one `"insert"` sample per submitted batch, one `"delete"`
/// sample per drain grab) plus the audited operation history.
#[derive(Debug, Clone)]
pub struct BatchedQualityRun {
    /// Per-batch latency aggregates and machine statistics.
    pub result: RunResult,
    /// Audit counts and rank-error distributions; every drain delete here
    /// is batched, so [`AuditReport::rank_error_batched`] mirrors
    /// [`AuditReport::rank_error`] and quantifies what the `k`-way drain
    /// costs in ordering quality.
    pub report: AuditReport,
}

/// Runs a two-phase batched workload and audits the full history: phase
/// one has every processor insert its items through `insert_batch` in
/// grabs of `k` (concurrently), phase two drains the queue from one fresh
/// processor through `delete_min_batch(k)`. The audit checks conservation
/// and drain quality: strict algorithms must still produce an exactly
/// sorted drain (rank error pinned to zero), relaxed ones get the
/// rank-error distribution, enforced against `rank_error_bound` when
/// given.
///
/// # Panics
///
/// Panics if the simulation wedges or exceeds the cycle budget — either
/// indicates an algorithm bug.
pub fn run_batched_quality(
    algo: Algorithm,
    wl: &Workload,
    k: usize,
    rank_error_bound: Option<u64>,
) -> Result<BatchedQualityRun, AuditError> {
    assert!(wl.procs > 0 && wl.num_priorities > 0 && wl.ops_per_proc > 0 && k > 0);
    // One extra processor slot for the drain phase (same as the chaos
    // driver's build).
    let mut params = BuildParams::new(wl.procs + 1, wl.num_priorities);
    params.capacity = (wl.procs * wl.ops_per_proc).max(64) + 8;
    let mut m = build_machine(wl);
    let q = Rc::new(SimPq::build(&mut m, algo, &params));
    let hist = History::new();
    for _ in 0..wl.procs {
        let ctx = m.ctx();
        let q = Rc::clone(&q);
        let hist = hist.clone();
        let num_pris = wl.num_priorities as u64;
        let ops = wl.ops_per_proc;
        let local = wl.local_work;
        m.spawn(async move {
            let mut i = 0;
            while i < ops {
                ctx.work(local).await;
                let t0 = ctx.now();
                let take = k.min(ops - i);
                let mut batch = Vec::with_capacity(take);
                let mut toks = Vec::with_capacity(take);
                for _ in 0..take {
                    let pri = ctx.random_below(num_pris);
                    let item = (ctx.pid() * ops + i) as u64;
                    toks.push(hist.begin_insert(ctx.pid(), pri, item, t0));
                    batch.push((pri, item));
                    i += 1;
                }
                q.insert_batch(&ctx, &batch)
                    .await
                    .expect("capacity sized to hold every item");
                let end = ctx.now();
                for tok in toks {
                    hist.complete(tok, end);
                    hist.mark_batched(tok);
                }
                let dt = end - t0;
                ctx.record("all", dt);
                ctx.record("insert", dt);
            }
        });
    }
    match m.run_for(MAX_CYCLES) {
        RunOutcome::Quiescent => {}
        other => panic!("batched insert phase for {algo} did not finish: {other}"),
    }

    // Sequential batched drain from a fresh processor. The per-item
    // history records share the grab's interval; they are opened after the
    // queue call returns (history calls are host-side and free), which is
    // equivalent to opening them before it.
    {
        let ctx = m.ctx();
        let q = Rc::clone(&q);
        let hist = hist.clone();
        m.spawn(async move {
            let mut out: Vec<(u64, u64)> = Vec::with_capacity(k);
            loop {
                out.clear();
                let t0 = ctx.now();
                let n = q.delete_min_batch(&ctx, k, &mut out).await;
                let end = ctx.now();
                for &(pri, item) in &out {
                    let tok = hist.begin_delete(ctx.pid(), t0);
                    hist.complete_delete(tok, Some((pri, item)), end);
                    hist.mark_drain(tok);
                    hist.mark_batched(tok);
                }
                ctx.record("all", end - t0);
                ctx.record("delete", end - t0);
                if n == 0 {
                    break;
                }
            }
        });
        match m.run_for(MAX_CYCLES) {
            RunOutcome::Quiescent => {}
            other => panic!("batched drain for {algo} did not finish: {other}"),
        }
    }

    let scope = AuditScope {
        num_priorities: wl.num_priorities as u64,
        linearizable: algo.consistency() == funnelpq::Consistency::Linearizable,
        relaxed: algo.is_relaxed(),
        rank_error_bound,
        ..AuditScope::default()
    };
    let report = audit_history(&hist.snapshot(), &scope)?;
    Ok(BatchedQualityRun {
        result: RunResult::from_machine(&m),
        report,
    })
}

/// Fraction-of-decrements counter workload for Figure 5: `procs`
/// processors apply `ops_per_proc` operations to one shared funnel counter;
/// each operation is a decrement with probability `pct_dec/100`, else an
/// increment. In [`CounterMode::BOUNDED_AT_ZERO`] the decrement is the
/// paper's bounded fetch-and-decrement with elimination; in
/// [`CounterMode::FetchAdd`] both directions are plain combining
/// fetch-and-add.
pub fn run_counter_workload(
    mode: CounterMode,
    pct_dec: u32,
    cfg: SimFunnelConfig,
    wl: &Workload,
) -> RunResult {
    run_counter_inner(mode, pct_dec, cfg, wl, None).0
}

/// Traced variant of [`run_counter_workload`]; see
/// [`run_queue_workload_traced`].
pub fn run_counter_workload_traced(
    mode: CounterMode,
    pct_dec: u32,
    cfg: SimFunnelConfig,
    wl: &Workload,
) -> TracedRun {
    let log = TraceLog::new();
    let (result, regions) = run_counter_inner(mode, pct_dec, cfg, wl, Some(&log));
    TracedRun {
        result,
        events: log.take(),
        regions: regions.expect("traced run always builds a region map"),
    }
}

fn run_counter_inner(
    mode: CounterMode,
    pct_dec: u32,
    cfg: SimFunnelConfig,
    wl: &Workload,
    trace: Option<&TraceLog>,
) -> (RunResult, Option<RegionMap>) {
    assert!(pct_dec <= 100);
    let mut m = build_machine(wl);
    let c = SimFunnelCounter::build(&mut m, wl.procs, mode, cfg);
    // Seed the counter high enough that unbounded modes never wrap.
    c.poke_set(&mut m, (wl.procs * wl.ops_per_proc) as i64);
    let regions = trace.map(|log| {
        m.attach_tracer(log.handle());
        m.region_map()
    });
    for _ in 0..wl.procs {
        let ctx = m.ctx();
        let c = c.clone();
        let ops = wl.ops_per_proc;
        let local = wl.local_work;
        let p = f64::from(pct_dec) / 100.0;
        m.spawn(async move {
            for _ in 0..ops {
                ctx.work(local).await;
                let t0 = ctx.now();
                if ctx.random_bool(p) {
                    c.fetch_dec(&ctx).await;
                } else {
                    c.fetch_inc(&ctx).await;
                }
                ctx.record("all", ctx.now() - t0);
            }
        });
    }
    match m.run_for(MAX_CYCLES) {
        RunOutcome::Quiescent => {}
        other => panic!("counter workload did not finish: {other}"),
    }
    (RunResult::from_machine(&m), regions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_survives_the_standard_workload() {
        for algo in Algorithm::ALL {
            let mut wl = Workload::standard(8, 16);
            wl.ops_per_proc = 12;
            let r = run_queue_workload(algo, &wl);
            assert_eq!(
                r.all.count(),
                8 * 12,
                "{algo}: every access must be recorded"
            );
            assert!(r.all.mean() > 0.0, "{algo}: latency must be positive");
            assert_eq!(r.insert.count() + r.delete.count(), r.all.count());
        }
    }

    #[test]
    fn batched_quality_strict_algorithms_have_zero_rank_error() {
        // insert_batch + delete_min_batch conserve every item, and the
        // strict algorithms' batched drains are exactly sorted (rank error
        // pinned to zero) at every batch size.
        for algo in Algorithm::ALL {
            for k in [1usize, 8] {
                let mut wl = Workload::standard(4, 16);
                wl.ops_per_proc = 16;
                let run = run_batched_quality(algo, &wl, k, None)
                    .unwrap_or_else(|e| panic!("{algo} k={k}: {e}"));
                assert_eq!(run.report.inserts, 4 * 16, "{algo} k={k}");
                assert_eq!(run.report.deletes, 4 * 16, "{algo} k={k}");
                assert_eq!(run.report.leaked, 0, "{algo} k={k}");
                assert_eq!(run.report.rank_error.max(), 0, "{algo} k={k}");
                assert_eq!(
                    run.report.rank_error_batched.count(),
                    run.report.rank_error.count(),
                    "{algo} k={k}: every drain delete was batched"
                );
            }
        }
    }

    #[test]
    fn batched_quality_multiqueue_rank_error_within_bound() {
        // The relaxed MultiQueue conserves items at every k; its rank
        // error grows with k (a drained queue's tail is served without
        // re-probing) but stays within the obvious ceiling: the other
        // queues can hide at most the items they hold.
        for k in [1usize, 8, 64] {
            let mut wl = Workload::standard(4, 32);
            wl.ops_per_proc = 64;
            let total = (wl.procs * wl.ops_per_proc) as u64;
            let run = run_batched_quality(Algorithm::MultiQueue, &wl, k, Some(total))
                .unwrap_or_else(|e| panic!("MultiQueue k={k}: {e}"));
            assert_eq!(run.report.deletes, total, "k={k}");
            assert_eq!(run.report.leaked, 0, "k={k}");
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let wl = {
            let mut w = Workload::standard(6, 8);
            w.ops_per_proc = 10;
            w
        };
        let a = run_queue_workload(Algorithm::FunnelTree, &wl);
        let b = run_queue_workload(Algorithm::FunnelTree, &wl);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.all.sum(), b.all.sum());
    }

    #[test]
    fn naive_events_machine_is_bit_identical() {
        let mut wl = Workload::standard(12, 16);
        wl.ops_per_proc = 14;
        let fast = run_queue_workload(Algorithm::FunnelTree, &wl);
        wl.naive_events = true;
        let slow = run_queue_workload(Algorithm::FunnelTree, &wl);
        assert_eq!(fast.total_cycles, slow.total_cycles);
        assert_eq!(fast.all.sum(), slow.all.sum());
        assert_eq!(fast.stats.mem_accesses, slow.stats.mem_accesses);
        assert_eq!(fast.stats.queue_delay_cycles, slow.stats.queue_delay_cycles);
    }

    #[test]
    fn counter_workload_both_modes() {
        let mut wl = Workload::standard(8, 2);
        wl.ops_per_proc = 16;
        let cfg = SimFunnelConfig::for_procs(8);
        let a = run_counter_workload(CounterMode::FetchAdd, 50, cfg.clone(), &wl);
        let b = run_counter_workload(CounterMode::BOUNDED_AT_ZERO, 50, cfg, &wl);
        assert_eq!(a.all.count(), 8 * 16);
        assert_eq!(b.all.count(), 8 * 16);
    }

    #[test]
    fn more_processors_do_not_reduce_singlelock_throughput_shape() {
        // Sanity for the contention model: SingleLock latency grows with P.
        let lat = |p: usize| {
            let mut wl = Workload::standard(p, 16);
            wl.ops_per_proc = 16;
            run_queue_workload(Algorithm::SingleLock, &wl).all.mean()
        };
        let l2 = lat(2);
        let l16 = lat(16);
        assert!(
            l16 > 2.0 * l2,
            "SingleLock should serialize: lat(16)={l16:.0} vs lat(2)={l2:.0}"
        );
    }
}

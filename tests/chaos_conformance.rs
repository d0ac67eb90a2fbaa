//! Chaos conformance: the fault layer must be invisible when off, and the
//! seven algorithms must keep their invariants under every fault plan the
//! model can express.
//!
//! - Differential: a chaos run with an **empty attached plan** (gated
//!   event path exercised, watchdog armed) is bit-identical to the plain
//!   workload driver for every algorithm.
//! - Sweep: combiner-stall, lock-holder-stall, region-latency-spike, and
//!   one-processor crash-stop plans across all algorithms and several
//!   seeds, each run audited for conservation, ordering, and structure.
//! - Watchdog: fires with a diagnostic naming the stalled processor on an
//!   intentionally wedged run, and never on healthy runs.
//! - Quality: every strict algorithm's audited drain has exactly zero rank
//!   error on quiescent runs; the relaxed `MultiQueue` keeps conservation
//!   and causality strict while its drain sortedness is replaced by a
//!   rank-error bound enforced inside the audit.

use funnelpq_sim::fault::FaultSummary;
use funnelpq_sim::{FaultPlan, RunOutcome, SpanPoint};
use funnelpq_simqueues::chaos::{
    chaos_build_params, run_chaos_workload, run_chaos_workload_bounded, DEFAULT_WATCHDOG,
};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::{run_queue_workload_with, Workload};

fn small_workload(seed: u64) -> Workload {
    let mut wl = Workload::standard(8, 8);
    wl.ops_per_proc = 12;
    wl.seed = seed;
    wl
}

/// With an empty plan attached (so every event still flows through the
/// fault gate) and the watchdog armed tight, the phase-one result must be
/// bit-identical to the fault-free driver's, and nothing may wedge.
#[test]
fn empty_plan_is_bit_identical_for_all_algorithms() {
    let wl = small_workload(0xF00D);
    let plan = FaultPlan::new(1);
    assert!(plan.is_empty());
    for algo in Algorithm::ALL {
        let baseline = run_queue_workload_with(algo, &wl, &chaos_build_params(&wl));
        let run = run_chaos_workload(algo, &wl, &plan, 1_000_000)
            .unwrap_or_else(|e| panic!("{algo}: fault-free chaos run failed: {e}"));
        assert!(!run.wedged(), "{algo}: healthy run tripped the watchdog");
        assert_eq!(run.outcome, RunOutcome::Quiescent, "{algo}");
        assert_eq!(run.drain_outcome, Some(RunOutcome::Quiescent), "{algo}");
        assert_eq!(run.fault_summary, FaultSummary::default(), "{algo}");
        assert_eq!(
            run.result.total_cycles, baseline.total_cycles,
            "{algo}: total_cycles diverged with the fault layer attached-but-empty"
        );
        assert_eq!(run.result.all, baseline.all, "{algo}: 'all' acc diverged");
        assert_eq!(
            run.result.insert, baseline.insert,
            "{algo}: insert acc diverged"
        );
        assert_eq!(
            run.result.delete, baseline.delete,
            "{algo}: delete acc diverged"
        );
        assert_eq!(
            run.result.stats.mem_accesses, baseline.stats.mem_accesses,
            "{algo}: memory access count diverged"
        );
        assert_eq!(
            run.result.stats.queue_delay_cycles, baseline.stats.queue_delay_cycles,
            "{algo}: queueing delay diverged"
        );
        assert_eq!(
            run.result.hotspots, baseline.hotspots,
            "{algo}: hotspots diverged"
        );
        // Fault-free run: every insert drained, nothing in flight, and a
        // strict queue's drain has exactly zero rank error.
        assert_eq!(run.report.in_flight, 0, "{algo}");
        assert_eq!(run.report.leaked, 0, "{algo}");
        assert!(run.structural_items.is_some(), "{algo}");
        assert_eq!(
            run.report.rank_error.max(),
            0,
            "{algo}: a strict algorithm's drain must have zero rank error"
        );
    }
}

const SEEDS: [u64; 3] = [0xF00D, 0xBEEF, 0xCAFE];

/// Stalls the processor that just won a funnel collision (it now holds a
/// captured peer). Vacuous for non-funnel algorithms — the span never
/// opens — which is itself part of the contract.
fn combiner_stall_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x5EED)
        .stall_on_span("funnel-combine", SpanPoint::Begin, 1, 200_000)
        .stall_on_span("funnel-combine", SpanPoint::Begin, 7, 150_000)
}

/// Stalls a processor right after it acquires an MCS lock, i.e. while it
/// holds the lock with others queued behind it.
fn lock_holder_stall_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x5EED)
        .stall_on_span("mcs-acquire", SpanPoint::End, 3, 200_000)
        .stall_on_span("mcs-acquire", SpanPoint::End, 11, 120_000)
}

/// NUMA-asymmetry emulation: the first memory lines (locks, size words,
/// roots — the hottest structures) get slower for a window, plus global
/// jitter early in the run.
fn region_spike_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x5EED)
        .region_delay(0, 64, 0, 1_500_000, 40, 10)
        .jitter(0, 400_000, 16)
}

/// Crash-stops processor 1 early in the run, mid-operation with high
/// probability.
fn crash_plan(seed: u64, idx: usize) -> FaultPlan {
    FaultPlan::new(seed ^ 0x5EED).crash(1, 2_000 + 1_500 * idx as u64)
}

#[test]
fn chaos_sweep_combiner_stall() {
    for &seed in &SEEDS {
        let wl = small_workload(seed);
        let plan = combiner_stall_plan(seed);
        for algo in Algorithm::ALL {
            let run = run_chaos_workload(algo, &wl, &plan, DEFAULT_WATCHDOG)
                .unwrap_or_else(|e| panic!("{algo} seed {seed:#x}: {e}"));
            assert!(
                !run.wedged(),
                "{algo} seed {seed:#x}: stall plan wedged the run"
            );
            assert_eq!(run.report.leaked, 0, "{algo} seed {seed:#x}");
            assert_eq!(run.report.rank_error.max(), 0, "{algo} seed {seed:#x}");
        }
    }
}

#[test]
fn chaos_sweep_lock_holder_stall() {
    for &seed in &SEEDS {
        let wl = small_workload(seed);
        let plan = lock_holder_stall_plan(seed);
        for algo in Algorithm::ALL {
            let run = run_chaos_workload(algo, &wl, &plan, DEFAULT_WATCHDOG)
                .unwrap_or_else(|e| panic!("{algo} seed {seed:#x}: {e}"));
            assert!(
                !run.wedged(),
                "{algo} seed {seed:#x}: stall plan wedged the run"
            );
            assert!(
                run.fault_summary.stalls >= 1,
                "{algo} seed {seed:#x}: no MCS acquire ever stalled"
            );
            assert_eq!(run.report.leaked, 0, "{algo} seed {seed:#x}");
            assert_eq!(run.report.rank_error.max(), 0, "{algo} seed {seed:#x}");
        }
    }
}

#[test]
fn chaos_sweep_region_latency_spike() {
    for &seed in &SEEDS {
        let wl = small_workload(seed);
        let plan = region_spike_plan(seed);
        for algo in Algorithm::ALL {
            let run = run_chaos_workload(algo, &wl, &plan, DEFAULT_WATCHDOG)
                .unwrap_or_else(|e| panic!("{algo} seed {seed:#x}: {e}"));
            assert!(
                !run.wedged(),
                "{algo} seed {seed:#x}: latency plan wedged the run"
            );
            assert!(
                run.fault_summary.extra_latency_cycles > 0,
                "{algo} seed {seed:#x}: the spike never added latency"
            );
            assert_eq!(run.report.leaked, 0, "{algo} seed {seed:#x}");
            assert_eq!(run.report.rank_error.max(), 0, "{algo} seed {seed:#x}");
        }
    }
}

#[test]
fn chaos_sweep_crash_stop() {
    for (idx, &seed) in SEEDS.iter().enumerate() {
        let wl = small_workload(seed);
        let plan = crash_plan(seed, idx);
        for algo in Algorithm::ALL {
            let run = run_chaos_workload(algo, &wl, &plan, DEFAULT_WATCHDOG)
                .unwrap_or_else(|e| panic!("{algo} seed {seed:#x}: {e}"));
            assert_eq!(
                run.crashed,
                vec![1],
                "{algo} seed {seed:#x}: processor 1 should have crash-stopped"
            );
            // A crashed lock holder may legitimately wedge the rest of the
            // machine; quiescent crash runs must still conserve elements up
            // to the crash allowance — both are checked inside the audit.
        }
    }
}

/// An MCS lock holder stalled for ~100M cycles with a 1M-cycle watchdog:
/// the machine makes no progress, the watchdog must fire, and the
/// diagnostic must name the stalled processor.
#[test]
fn watchdog_fires_on_wedged_run_and_names_the_stalled_proc() {
    let wl = small_workload(0xF00D);
    let plan = FaultPlan::new(7).stall_on_span("mcs-acquire", SpanPoint::End, 1, 100_000_000);
    let run = run_chaos_workload(Algorithm::SingleLock, &wl, &plan, 1_000_000)
        .expect("a wedged run under a non-empty plan is tolerated, not an error");
    assert!(run.wedged());
    match &run.outcome {
        RunOutcome::Livelock { diag } => {
            let text = diag.to_string();
            assert!(
                text.contains("stalled"),
                "diagnostic does not name a stalled processor: {text}"
            );
        }
        other => panic!("expected a livelock, got {other}"),
    }
    assert_eq!(run.fault_summary.stalls, 1);
    assert!(run.drain_outcome.is_none(), "a wedged run must not drain");
}

/// Per-delete drain rank error the MultiQueue sweeps tolerate. Generous —
/// the real distributions at this size sit far below it —
/// but far below the ~50 items a run holds, so a queue that degenerated
/// into returning arbitrary elements would trip it.
const MQ_RANK_BOUND: u64 = 40;

/// The MultiQueue guards its heaps with raw CAS try-locks, not MCS locks,
/// so the `mcs-acquire` plans are vacuous for it; stall it inside its own
/// critical section instead.
fn mq_lock_holder_stall_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x5EED)
        .stall_on_span("lock-hold", SpanPoint::Begin, 3, 200_000)
        .stall_on_span("lock-hold", SpanPoint::Begin, 11, 120_000)
}

/// The shared `crash_plan` times target the strict algorithms' pace; the
/// MultiQueue finishes this workload in ~6k cycles, so crash earlier to
/// stay inside the run.
fn mq_crash_plan(seed: u64, idx: usize) -> FaultPlan {
    FaultPlan::new(seed ^ 0x5EED).crash(1, 1_500 + 600 * idx as u64)
}

/// With the fault layer attached-but-empty the relaxed queue is held to
/// the same bit-identity bar as the paper's seven, and its audit keeps
/// conservation and causality fully strict — only sortedness is relaxed,
/// into the rank-error bound.
#[test]
fn multiqueue_empty_plan_is_bit_identical_and_audits_clean() {
    let wl = small_workload(0xF00D);
    let plan = FaultPlan::new(1);
    let algo = Algorithm::MultiQueue;
    let baseline = run_queue_workload_with(algo, &wl, &chaos_build_params(&wl));
    let run = run_chaos_workload_bounded(algo, &wl, &plan, 1_000_000, Some(MQ_RANK_BOUND)).unwrap();
    assert!(!run.wedged());
    assert_eq!(run.result.total_cycles, baseline.total_cycles);
    assert_eq!(run.result.all, baseline.all);
    assert_eq!(run.result.stats.mem_accesses, baseline.stats.mem_accesses);
    assert_eq!(run.result.hotspots, baseline.hotspots);
    assert_eq!(run.report.in_flight, 0);
    assert_eq!(run.report.leaked, 0);
    assert!(run.structural_items.is_some());
    assert!(
        run.report.rank_error.count() > 0,
        "the drain must have produced rank-error samples"
    );
}

/// The full fault matrix (lock-holder stall, latency spike, crash-stop)
/// over the relaxed queue: conservation and causality are checked strictly
/// by the audit; drain quality is held to the rank-error bound.
#[test]
fn multiqueue_chaos_sweep_with_rank_bound() {
    let algo = Algorithm::MultiQueue;
    for (idx, &seed) in SEEDS.iter().enumerate() {
        let wl = small_workload(seed);
        for (name, plan) in [
            ("lock-stall", mq_lock_holder_stall_plan(seed)),
            ("latency-spike", region_spike_plan(seed)),
            ("crash", mq_crash_plan(seed, idx)),
        ] {
            let run =
                run_chaos_workload_bounded(algo, &wl, &plan, DEFAULT_WATCHDOG, Some(MQ_RANK_BOUND))
                    .unwrap_or_else(|e| panic!("{algo} {name} seed {seed:#x}: {e}"));
            if name == "crash" {
                assert_eq!(run.crashed, vec![1], "{name} seed {seed:#x}");
            } else {
                assert!(!run.wedged(), "{name} seed {seed:#x}: plan wedged the run");
                assert_eq!(run.report.leaked, 0, "{name} seed {seed:#x}");
            }
            if name == "lock-stall" {
                assert!(
                    run.fault_summary.stalls >= 1,
                    "{name} seed {seed:#x}: no lock holder ever stalled"
                );
            }
        }
    }
}

/// Satellite: the fault layer's regional-latency spikes are wired to the
/// topology model. On a *flat* two-node machine (`remote_ratio` 1) the
/// adaptive `SimNumaPq` controller never leaves oblivious mode — but
/// injecting a `region_delay` over exactly node 1's memory (the ranges
/// come from [`Machine::node_regions`]) makes every remote top expensive
/// enough that the measured-pressure controller must switch to
/// delegation, and the switch must land in the simulated switch counter.
///
/// The workload runs on a single node-0 processor so the spiked node
/// stays *remote* for the whole run: a node-1 processor measures a
/// healthy remote path (node 0 is not spiked) and would correctly vote
/// to stay oblivious once it is the only one left running.
#[test]
fn numa_controller_switches_modes_under_injected_remote_latency_spike() {
    use funnelpq::{NumaMode, NumaPolicy};
    use funnelpq_sim::{Machine, MachineConfig};
    use funnelpq_simqueues::queues::SimNumaPq;

    fn run(spike: bool) -> (u64, NumaMode) {
        let cfg = MachineConfig::test_tiny().with_topology(2, 1);
        let mut m = Machine::new(cfg, 0x5311);
        let q = SimNumaPq::build(&mut m, 1, 4096, 4, 2, 16, NumaPolicy::Adaptive);
        if spike {
            // Spike only node 1's memory, for the whole run: +64 cycles
            // per network leg dwarfs the flat 3-cycle access.
            let mut plan = FaultPlan::new(0x51C);
            for (addr, words) in m.node_regions(1) {
                plan = plan.region_delay(addr, words, 0, u64::MAX, 64, 0);
            }
            assert!(!plan.is_empty(), "topology must yield node-1 regions");
            m.attach_faults(&plan).expect("regions lie inside memory");
        }
        let ctx = m.ctx();
        let q2 = q.clone();
        m.spawn(async move {
            for i in 0..800u64 {
                q2.insert(&ctx, i % 64, i).await;
                q2.delete_min(&ctx).await;
            }
        });
        assert!(m.run().is_quiescent());
        q.validate(&m).expect("structure intact under the spike");
        (q.peek_switches(&m), q.peek_mode(&m))
    }

    let (healthy_switches, healthy_mode) = run(false);
    assert_eq!(healthy_mode, NumaMode::Oblivious);
    assert_eq!(healthy_switches, 0, "flat interconnect must never switch");

    let (switches, mode) = run(true);
    assert_eq!(mode, NumaMode::Delegation, "spike must flip the mode");
    assert!(switches >= 1, "the switch-over must be counted");
}

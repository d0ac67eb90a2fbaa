//! Small-scale guards on the paper's headline *shapes* — cheap versions of
//! the figures `pqsim --figure N` prints, failing loudly if the contention
//! model or an algorithm regresses. Absolute cycle counts are not asserted,
//! only orderings and ratios with generous margins.

use funnelpq_simqueues::funnel::{CounterMode, SimFunnelConfig};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::{
    run_batched_churn, run_counter_workload, run_queue_workload, Workload,
};

fn wl(procs: usize, pris: usize, ops: usize) -> Workload {
    let mut w = Workload::standard(procs, pris);
    w.ops_per_proc = ops;
    w
}

fn mean(algo: Algorithm, procs: usize, pris: usize, ops: usize) -> f64 {
    run_queue_workload(algo, &wl(procs, pris, ops)).all.mean()
}

/// Figure 6 shape: at low concurrency the centralized heap methods are the
/// slowest and SimpleLinear leads.
#[test]
fn low_concurrency_ordering() {
    let p = 16;
    let simple_linear = mean(Algorithm::SimpleLinear, p, 16, 24);
    let single_lock = mean(Algorithm::SingleLock, p, 16, 24);
    let hunt = mean(Algorithm::HuntEtAl, p, 16, 24);
    assert!(
        single_lock > 2.0 * simple_linear,
        "SingleLock ({single_lock:.0}) should be far slower than SimpleLinear ({simple_linear:.0}) at P={p}"
    );
    assert!(
        hunt > 1.5 * simple_linear,
        "HuntEtAl ({hunt:.0}) should be well above SimpleLinear ({simple_linear:.0}) at P={p}"
    );
}

/// Figure 7 shape: by high concurrency FunnelTree beats SimpleTree by a
/// wide margin (paper: ~8x at 256; we require >2x at 128 with small runs).
#[test]
fn funnel_tree_beats_simple_tree_at_high_concurrency() {
    let p = 128;
    let simple_tree = mean(Algorithm::SimpleTree, p, 16, 16);
    let funnel_tree = mean(Algorithm::FunnelTree, p, 16, 16);
    assert!(
        simple_tree > 2.0 * funnel_tree,
        "SimpleTree ({simple_tree:.0}) should trail FunnelTree ({funnel_tree:.0}) at P={p}"
    );
}

/// Figure 7 shape: SimpleLinear wins at low concurrency, loses to
/// FunnelTree at high concurrency (the crossover).
#[test]
fn simple_linear_funnel_tree_crossover() {
    let low_sl = mean(Algorithm::SimpleLinear, 8, 16, 24);
    let low_ft = mean(Algorithm::FunnelTree, 8, 16, 24);
    assert!(
        low_sl < low_ft,
        "SimpleLinear ({low_sl:.0}) should beat FunnelTree ({low_ft:.0}) at P=8"
    );
    let high_sl = mean(Algorithm::SimpleLinear, 256, 16, 16);
    let high_ft = mean(Algorithm::FunnelTree, 256, 16, 16);
    assert!(
        high_ft < high_sl,
        "FunnelTree ({high_ft:.0}) should beat SimpleLinear ({high_sl:.0}) at P=256"
    );
}

/// Figure 5 shape: with a 50/50 inc/dec mix at high concurrency,
/// elimination makes the bounded counter at least as fast as plain
/// combining fetch-and-add.
#[test]
fn elimination_helps_balanced_counter_traffic() {
    let w = wl(128, 1, 24);
    let cfg = SimFunnelConfig::for_procs(128);
    let faa = run_counter_workload(CounterMode::FetchAdd, 50, cfg.clone(), &w);
    let bfad = run_counter_workload(CounterMode::BOUNDED_AT_ZERO, 50, cfg, &w);
    assert!(
        bfad.all.mean() < faa.all.mean() * 1.05,
        "BFaD+elim ({:.0}) should not lose to FaA ({:.0}) at a balanced mix",
        bfad.all.mean(),
        faa.all.mean()
    );
}

/// The tree methods' insert is cheaper than their delete-min (Figure 8
/// observation: inserts update half as many counters on average).
#[test]
fn tree_insert_cheaper_than_delete() {
    for algo in [Algorithm::SimpleTree, Algorithm::FunnelTree] {
        let r = run_queue_workload(algo, &wl(32, 64, 24));
        assert!(
            r.insert.mean() < r.delete.mean(),
            "{algo}: insert ({:.0}) should be cheaper than delete ({:.0})",
            r.insert.mean(),
            r.delete.mean()
        );
    }
}

/// Beyond the paper (EXPERIMENTS.md, "relaxed MultiQueue vs. FunnelTree"):
/// with no hot spot left to combine, the relaxed MultiQueue's mean access
/// latency is below FunnelTree's at P=64 (this run: 1203 vs 2508 cycles).
#[test]
fn multiqueue_beats_funnel_tree_at_p64() {
    let p = 64;
    let multiqueue = mean(Algorithm::MultiQueue, p, 16, 16);
    let funnel_tree = mean(Algorithm::FunnelTree, p, 16, 16);
    assert!(
        multiqueue < funnel_tree,
        "MultiQueue ({multiqueue:.0}) should beat FunnelTree ({funnel_tree:.0}) at P={p}"
    );
}

/// Batched operations (docs/ALGORITHMS.md §8): under 16 contending
/// processors SkipList's batch removes per-item coherence traffic, so a
/// run moving the same items costs fewer makespan cycles per item at k=64
/// than at k=1 (committed run: 88 vs 267).
#[test]
fn skiplist_batching_amortizes_under_contention() {
    let w = wl(16, 32, 256);
    let per_item = |k: usize| {
        let r = run_batched_churn(Algorithm::SkipList, &w, k);
        r.total_cycles as f64 / (w.procs * w.ops_per_proc) as f64
    };
    let (k1, k64) = (per_item(1), per_item(64));
    assert!(
        k64 < k1,
        "SkipList k=64 ({k64:.0} cycles/item) should beat k=1 ({k1:.0})"
    );
}

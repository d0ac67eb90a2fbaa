//! Appendix-B specification check for the *simulated* queues: a
//! pre-filled, bursty workload with exact virtual-time operation
//! intervals, recorded into an audit `History` and checked by
//! `audit_history`, whose window pass is the Appendix-B check
//! (`tests/quiescent_history.rs` runs the same audit on native threads).

use std::rc::Rc;

use funnelpq_sim::audit::{audit_history, AuditError, AuditReport, AuditScope, History};
use funnelpq_sim::{FaultPlan, Machine, MachineConfig};
use funnelpq_simqueues::chaos::audit_order;
use funnelpq_simqueues::queues::{Algorithm, BuildParams, SimPq};

/// Fills the queue with 400 items from one processor, runs `procs`
/// processors of `ops` operations each with irregular local work between
/// them (so quiescent gaps open), drains, and audits the whole history.
/// `jitter` attaches a fault plan adding up to 32 cycles to every network
/// leg.
fn audited_run(algo: Algorithm, seed: u64, jitter: bool) -> Result<AuditReport, AuditError> {
    let (procs, ops, pris) = (12, 30, 24u64);
    let mut m = Machine::new(MachineConfig::alewife_like(), seed);
    let mut params = BuildParams::new(procs + 2, pris as usize);
    params.capacity = procs * ops + 512;
    let q = Rc::new(SimPq::build(&mut m, algo, &params));
    if jitter {
        m.attach_faults(&FaultPlan::new(seed).jitter(0, u64::MAX, 32))
            .expect("a jitter plan needs no regions");
    }
    let hist = History::new();
    let (ctx, fill, h) = (m.ctx(), Rc::clone(&q), hist.clone());
    m.spawn(async move {
        for item in 1_000_000..1_000_400 {
            let pri = ctx.random_below(pris);
            let tok = h.begin_insert(ctx.pid(), pri, item, ctx.now());
            fill.insert(&ctx, pri, item).await;
            h.complete(tok, ctx.now());
        }
    });
    assert!(m.run().is_quiescent(), "{algo}: fill did not quiesce");
    for p in 0..procs {
        let (ctx, q, h) = (m.ctx(), Rc::clone(&q), hist.clone());
        m.spawn(async move {
            for i in 0..ops {
                ctx.work(20 + ctx.random_below(300)).await;
                if ctx.random_bool(0.5) {
                    let (pri, item) = (ctx.random_below(pris), (p * ops + i) as u64);
                    let tok = h.begin_insert(ctx.pid(), pri, item, ctx.now());
                    q.insert(&ctx, pri, item).await;
                    h.complete(tok, ctx.now());
                } else {
                    let tok = h.begin_delete(ctx.pid(), ctx.now());
                    let got = q.delete_min(&ctx).await;
                    h.complete_delete(tok, got, ctx.now());
                }
            }
        });
    }
    assert!(m.run().is_quiescent(), "{algo} did not quiesce");
    let (ctx, h) = (m.ctx(), hist.clone());
    m.spawn(async move {
        // A cycle apart from the last operation, so the drain is a window
        // of its own.
        ctx.work(1).await;
        loop {
            let tok = h.begin_delete(ctx.pid(), ctx.now());
            let got = q.delete_min(&ctx).await;
            h.complete_delete(tok, got, ctx.now());
            h.mark_drain(tok);
            if got.is_none() {
                break;
            }
        }
    });
    assert!(m.run().is_quiescent(), "{algo}: drain did not quiesce");
    let scope = AuditScope {
        num_priorities: pris,
        order: audit_order(algo, None),
        ..AuditScope::default()
    };
    audit_history(&hist.snapshot(), &scope)
}

#[test]
fn all_simulated_queues_satisfy_appendix_b() {
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::HardwareTree]) {
        let mut checked = 0;
        for seed in [11u64, 222, 3333] {
            let report = audited_run(algo, seed, false)
                .unwrap_or_else(|e| panic!("{algo} seed {seed}: {e}"));
            checked += report.windows_checked;
        }
        assert!(
            checked > 0,
            "{algo}: the bursty workload should produce checkable windows"
        );
    }
}

/// The Appendix-B audit over the twins of the two queues whose native
/// copies have flaked on it (SkipList, HuntEtAl), for every seed in
/// `seeds`, with and without jitter; fails listing every failing run.
fn flake_search(seeds: std::ops::Range<u64>) {
    let mut failures = Vec::new();
    for seed in seeds {
        for algo in [Algorithm::SkipList, Algorithm::HuntEtAl] {
            for jitter in [false, true] {
                if let Err(e) = audited_run(algo, seed, jitter) {
                    failures.push(format!("{algo} seed {seed} jitter {jitter}: {e}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[ignore = "the full flake search; minutes in release"]
fn flake_search_10k_seeds() {
    flake_search(0..10_000);
}

#[test]
#[ignore = "the flake search's CI slice; run in release"]
fn flake_search_first_200_seeds() {
    flake_search(0..200);
}

/// The smallest of the flake search's old SkipList failures: a window
/// opened with 403 items, the four smallest all at priority 7, and its four
/// deletes returned an 8 among them, because the delete bin moved off a
/// bin of 7s before that bin was re-threaded into the list. The native
/// SkipList flake ("returned priority p > bound p−1") had the same shape.
#[test]
fn skip_list_seed_8042_returns_an_8_over_held_7s() {
    if let Err(e) = audited_run(Algorithm::SkipList, 8042, false) {
        panic!("{e}");
    }
}

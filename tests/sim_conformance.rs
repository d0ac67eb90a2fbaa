//! Cross-crate conformance for the simulated queues: sequential behaviour
//! must match a sorted reference model, concurrent runs must conserve
//! items, and the whole machine must be deterministic.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use funnelpq_sim::{Machine, MachineConfig};
use funnelpq_simqueues::queues::{Algorithm, BuildParams, SimPq};
use funnelpq_simqueues::workload::{run_queue_workload, Workload};

fn build(m: &mut Machine, algo: Algorithm, procs: usize, pris: usize, cap: usize) -> Rc<SimPq> {
    let mut p = BuildParams::new(procs, pris);
    p.capacity = cap;
    Rc::new(SimPq::build(m, algo, &p))
}

/// Deterministic pseudo-random op sequence shared by queue and model.
fn op_sequence(len: usize, pris: u64, seed: u64) -> Vec<Option<u64>> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (x >> 62) & 1 == 0 {
                Some((x >> 33) % pris)
            } else {
                None
            }
        })
        .collect()
}

/// All seven paper algorithms plus our hardware-counter ablation.
fn algorithms_under_test() -> impl Iterator<Item = Algorithm> {
    Algorithm::ALL.into_iter().chain([Algorithm::HardwareTree])
}

#[test]
fn sequential_model_conformance_all_algorithms() {
    for algo in algorithms_under_test() {
        for seed in [1u64, 99, 12345] {
            let mut m = Machine::new(MachineConfig::test_tiny(), seed);
            let q = build(&mut m, algo, 1, 12, 512);
            let ops = op_sequence(150, 12, seed);
            let ctx = m.ctx();
            let q2 = Rc::clone(&q);
            let failures = Rc::new(RefCell::new(Vec::new()));
            let f2 = Rc::clone(&failures);
            m.spawn(async move {
                let mut model: BTreeMap<u64, usize> = BTreeMap::new();
                let mut next_item = 0u64;
                for op in ops {
                    match op {
                        Some(pri) => {
                            q2.insert(&ctx, pri, next_item).await;
                            next_item += 1;
                            *model.entry(pri).or_insert(0) += 1;
                        }
                        None => {
                            let got = q2.delete_min(&ctx).await.map(|e| e.0);
                            let want = model.keys().next().copied();
                            if let Some(w) = want {
                                let c = model.get_mut(&w).unwrap();
                                *c -= 1;
                                if *c == 0 {
                                    model.remove(&w);
                                }
                            }
                            if got != want {
                                f2.borrow_mut().push((got, want));
                            }
                        }
                    }
                }
                // Drain.
                loop {
                    let got = q2.delete_min(&ctx).await.map(|e| e.0);
                    let want = model.keys().next().copied();
                    if let Some(w) = want {
                        let c = model.get_mut(&w).unwrap();
                        *c -= 1;
                        if *c == 0 {
                            model.remove(&w);
                        }
                    }
                    if got != want {
                        f2.borrow_mut().push((got, want));
                    }
                    if got.is_none() && want.is_none() {
                        break;
                    }
                }
            });
            assert!(m.run().is_quiescent(), "{algo} seed {seed} deadlocked");
            assert!(
                failures.borrow().is_empty(),
                "{algo} seed {seed}: mismatches {:?}",
                failures.borrow()
            );
        }
    }
}

#[test]
fn concurrent_conservation_all_algorithms() {
    const P: usize = 10;
    const N: usize = 16;
    for algo in algorithms_under_test() {
        let mut m = Machine::new(MachineConfig::alewife_like(), 77);
        let q = build(&mut m, algo, P + 1, 8, P * N + 8);
        let got = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let q = Rc::clone(&q);
            let got = Rc::clone(&got);
            m.spawn(async move {
                for i in 0..N {
                    q.insert(&ctx, ((p * 3 + i) % 8) as u64, (p * N + i) as u64)
                        .await;
                    if i % 2 == 0 {
                        if let Some((_, x)) = q.delete_min(&ctx).await {
                            got.borrow_mut().push(x);
                        }
                    }
                }
            });
        }
        assert!(m.run().is_quiescent(), "{algo} deadlocked");
        let ctx = m.ctx();
        let q2 = Rc::clone(&q);
        let got2 = Rc::clone(&got);
        m.spawn(async move {
            while let Some((_, x)) = q2.delete_min(&ctx).await {
                got2.borrow_mut().push(x);
            }
        });
        assert!(m.run().is_quiescent());
        let mut all = got.borrow().clone();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..(P * N) as u64).collect::<Vec<_>>(),
            "{algo}: items lost or duplicated"
        );
    }
}

#[test]
fn quiescent_k_smallest_after_insert_phase() {
    // Parallel inserts, quiescent point, then drain: the drain sequence is
    // sorted and equals the inserted multiset.
    const P: usize = 12;
    const N: usize = 10;
    for algo in algorithms_under_test() {
        let mut m = Machine::new(MachineConfig::alewife_like(), 5);
        let q = build(&mut m, algo, P + 1, 16, P * N + 8);
        let inserted = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let q = Rc::clone(&q);
            let inserted = Rc::clone(&inserted);
            m.spawn(async move {
                for i in 0..N {
                    let pri = ((p * 7 + i * 3) % 16) as u64;
                    q.insert(&ctx, pri, (p * N + i) as u64).await;
                    inserted.borrow_mut().push(pri);
                }
            });
        }
        assert!(m.run().is_quiescent(), "{algo} insert phase deadlocked");
        let drained = Rc::new(RefCell::new(Vec::new()));
        let ctx = m.ctx();
        let q2 = Rc::clone(&q);
        let d2 = Rc::clone(&drained);
        m.spawn(async move {
            while let Some((pri, _)) = q2.delete_min(&ctx).await {
                d2.borrow_mut().push(pri);
            }
        });
        assert!(m.run().is_quiescent());
        let drained = drained.borrow().clone();
        assert!(
            drained.windows(2).all(|w| w[0] <= w[1]),
            "{algo}: drain out of order: {drained:?}"
        );
        let mut want = inserted.borrow().clone();
        want.sort_unstable();
        assert_eq!(drained, want, "{algo}: drained multiset mismatch");
    }
}

#[test]
fn workload_results_are_reproducible_across_algorithms() {
    for algo in [Algorithm::SimpleLinear, Algorithm::FunnelTree] {
        let mut wl = Workload::standard(12, 8);
        wl.ops_per_proc = 10;
        let a = run_queue_workload(algo, &wl);
        let b = run_queue_workload(algo, &wl);
        assert_eq!(a.total_cycles, b.total_cycles, "{algo} not deterministic");
        assert_eq!(a.all.sum(), b.all.sum());
        wl.seed ^= 0xABCD;
        let c = run_queue_workload(algo, &wl);
        assert_ne!(
            (a.total_cycles, a.all.sum()),
            (c.total_cycles, c.all.sum()),
            "{algo}: different seeds should differ"
        );
    }
}

/// Golden cycle counts for the three heap-backed twins (`SingleLock`,
/// `MultiQueue`, `NumaPq`), recorded from the code *before* ISSUE 23 moved
/// their word-heap into `simqueues::heap`, and for the bin-per-priority
/// twins (`SimpleLinear`, `LinearFunnels` and the three trees), recorded
/// before ISSUE 25 merged the two linear twins into `SimLinear`. A
/// refactor of either must leave every simulated access — and so every
/// number here — untouched. Do not edit the constants: a mismatch means
/// the access sequence moved.
#[test]
fn heap_backed_twins_match_their_golden_cycle_counts() {
    use funnelpq::{NumaMode, NumaPolicy};
    let adaptive = NumaPolicy::Adaptive;
    let pinned = NumaPolicy::Pinned(NumaMode::Delegation);
    // (algorithm, NumaPq policy, procs, total_cycles, mem_accesses); seed 7,
    // 16 priorities, 64 ops per processor — `pqsim --seed 7` prints every
    // row but NumaPq's. NumaPq runs on a 2-node machine with a
    // 4x remote ratio so both disciplines cross nodes.
    let golden = [
        (Algorithm::SingleLock, adaptive, 16, 553_760u64, 27_842u64),
        (Algorithm::SingleLock, adaptive, 64, 2_443_124, 120_715),
        (Algorithm::MultiQueue, adaptive, 16, 36_942, 19_336),
        (Algorithm::MultiQueue, adaptive, 64, 110_992, 174_637),
        (Algorithm::NumaPq, adaptive, 16, 58_747, 16_188),
        (Algorithm::NumaPq, adaptive, 64, 96_761, 116_341),
        (Algorithm::NumaPq, pinned, 16, 42_583, 15_602),
        (Algorithm::NumaPq, pinned, 64, 104_020, 129_976),
        (Algorithm::SimpleLinear, adaptive, 16, 56_204, 19_723),
        (Algorithm::SimpleLinear, adaptive, 64, 132_358, 94_453),
        (Algorithm::LinearFunnels, adaptive, 16, 120_352, 45_287),
        (Algorithm::LinearFunnels, adaptive, 64, 206_466, 256_816),
        (Algorithm::SimpleTree, adaptive, 16, 90_118, 33_354),
        (Algorithm::SimpleTree, adaptive, 64, 347_066, 132_428),
        (Algorithm::FunnelTree, adaptive, 16, 111_536, 53_948),
        (Algorithm::FunnelTree, adaptive, 64, 152_546, 261_973),
        (Algorithm::HardwareTree, adaptive, 16, 30_156, 14_542),
        (Algorithm::HardwareTree, adaptive, 64, 122_004, 81_119),
    ];
    for (algo, policy, procs, cycles, accesses) in golden {
        let mut wl = Workload::standard(procs, 16);
        wl.seed = 7;
        if algo == Algorithm::NumaPq {
            wl.machine = wl.machine.with_topology(2, 4);
        }
        let mut params = BuildParams::new(procs, 16);
        params.capacity = procs * wl.ops_per_proc + 8;
        params.numa_policy = policy;
        let r = funnelpq_simqueues::workload::run_queue_workload_with(algo, &wl, &params);
        assert_eq!(
            (r.total_cycles, r.stats.mem_accesses),
            (cycles, accesses),
            "{algo} ({policy:?}) at P={procs}: simulated access sequence changed"
        );
    }
    // The batched paths share the same heap: one churn point each; and one
    // for a linear twin, whose batches loop singles.
    let batched = [
        (Algorithm::SingleLock, 1_272_954u64, 52_770u64),
        (Algorithm::MultiQueue, 64_315, 33_804),
        (Algorithm::LinearFunnels, 118_252, 51_331),
    ];
    for (algo, cycles, accesses) in batched {
        let mut wl = Workload::standard(16, 16);
        wl.seed = 7;
        let r = funnelpq_simqueues::workload::run_batched_churn(algo, &wl, 8);
        assert_eq!(
            (r.total_cycles, r.stats.mem_accesses),
            (cycles, accesses),
            "{algo} batched k=8 at P=16: simulated access sequence changed"
        );
    }
}

//! Native ↔ simulator differential for the paper's four bounded-range
//! queues: one seeded single-caller tape of `insert` / `delete_min` /
//! `insert_batch` / `delete_min_batch` runs through the native queue
//! (`PqBuilder`, LIFO defaults) and through its simulated twin
//! (`SimPq::build`), and both must hand back the same `(pri, item)`
//! sequence. One caller, so neither side has a choice to make: a mismatch
//! is drift between the twins — report it in `DESIGN.md`, do not loosen
//! the comparison here.

use std::cell::RefCell;
use std::rc::Rc;

use funnelpq::PqBuilder;
use funnelpq_sim::{Machine, MachineConfig};
use funnelpq_simqueues::queues::{Algorithm, BuildParams, SimPq};
use funnelpq_util::XorShift64Star;

const PRIS: usize = 16;

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, u64),
    DeleteMin,
    InsertBatch(Vec<(usize, u64)>),
    DeleteMinBatch(usize),
}

/// Alternating fill and drain phases of `len` ops; items are numbered in
/// submission order, so every returned item names the insert it came from.
fn tape(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = XorShift64Star::new(seed);
    let mut next_item = 0u64;
    let mut item = || {
        next_item += 1;
        next_item - 1
    };
    (0..len)
        .map(|step| {
            let draining = (step / 250) % 2 == 1;
            let roll = rng.below(10) + if draining { 3 } else { 0 };
            match roll {
                0..=4 => Op::Insert(rng.below(PRIS as u64) as usize, item()),
                5..=6 => Op::InsertBatch(
                    (0..1 + rng.below(8))
                        .map(|_| (rng.below(PRIS as u64) as usize, item()))
                        .collect(),
                ),
                7..=8 => Op::DeleteMin,
                _ => Op::DeleteMinBatch(1 + rng.below(8) as usize),
            }
        })
        .collect()
}

/// What every delete-side op of the tape returned, op by op; a final
/// `delete_min_batch(usize::MAX)` drains what is left.
type Trace = Vec<Vec<(usize, u64)>>;

fn run_native(algo: Algorithm, ops: &[Op]) -> Trace {
    let q = PqBuilder::new(algo, PRIS, 1).build::<u64>();
    let mut trace = Trace::new();
    for op in ops {
        match op {
            Op::Insert(pri, item) => q.insert(0, *pri, *item),
            Op::InsertBatch(batch) => q.insert_batch(0, batch.clone()).expect("in range"),
            Op::DeleteMin => trace.push(q.delete_min(0).into_iter().collect()),
            Op::DeleteMinBatch(k) => {
                let mut out = Vec::new();
                q.delete_min_batch(0, *k, &mut out);
                trace.push(out);
            }
        }
    }
    let mut rest = Vec::new();
    q.delete_min_batch(0, usize::MAX, &mut rest);
    trace.push(rest);
    trace
}

fn run_sim(algo: Algorithm, ops: &[Op]) -> Trace {
    let mut m = Machine::new(MachineConfig::test_tiny(), 0);
    let q = SimPq::build(&mut m, algo, &BuildParams::new(1, PRIS));
    let trace = Rc::new(RefCell::new(Trace::new()));
    let (ctx, ops, t) = (m.ctx(), ops.to_vec(), Rc::clone(&trace));
    let widen = |out: Vec<(u64, u64)>| -> Vec<(usize, u64)> {
        out.into_iter().map(|(p, x)| (p as usize, x)).collect()
    };
    m.spawn(async move {
        for op in ops {
            match op {
                Op::Insert(pri, item) => q.insert(&ctx, pri as u64, item).await,
                Op::InsertBatch(batch) => {
                    let batch: Vec<_> = batch.iter().map(|&(p, x)| (p as u64, x)).collect();
                    q.insert_batch(&ctx, &batch).await.expect("within capacity");
                }
                Op::DeleteMin => {
                    let got = q.delete_min(&ctx).await.into_iter().collect();
                    t.borrow_mut().push(widen(got));
                }
                Op::DeleteMinBatch(k) => {
                    let mut out = Vec::new();
                    q.delete_min_batch(&ctx, k, &mut out).await;
                    t.borrow_mut().push(widen(out));
                }
            }
        }
        let mut rest = Vec::new();
        q.delete_min_batch(&ctx, usize::MAX, &mut rest).await;
        t.borrow_mut().push(widen(rest));
    });
    assert!(
        m.run().is_quiescent(),
        "{algo}: simulated run did not finish"
    );
    trace.take()
}

#[test]
fn native_queues_and_their_simulated_twins_return_the_same_items() {
    let ops = tape(0x25D1_FF00, 2_000);
    for algo in [
        Algorithm::SimpleLinear,
        Algorithm::LinearFunnels,
        Algorithm::SimpleTree,
        Algorithm::FunnelTree,
    ] {
        let native = run_native(algo, &ops);
        let sim = run_sim(algo, &ops);
        assert_eq!(native.len(), sim.len(), "{algo}: op count differs");
        for (at, (n, s)) in native.iter().zip(&sim).enumerate() {
            assert_eq!(n, s, "{algo}: delete op {at} differs (native, sim)");
        }
        assert!(
            native.iter().map(Vec::len).sum::<usize>() > 500,
            "{algo}: the tape must actually move items"
        );
    }
}

//! Native ↔ simulator differential for all nine queues: one seeded
//! single-caller tape of `insert` / `delete_min` / `insert_batch` /
//! `delete_min_batch` runs through the native queue (`PqBuilder`, LIFO
//! defaults) and through its simulated twin (`SimPq::build`). One caller,
//! so a strict queue has no choice to make, and a relaxed one makes its
//! choices from a seeded stream. How two runs are compared follows from
//! what each queue promises that caller:
//!
//! * **SingleLock, SkipList and the four bounded-range queues** — the same
//!   `(pri, item)` sequence, op by op.
//! * **HuntEtAl** — strict, but the two heaps order items of equal
//!   priority differently, which the queue contract leaves open: the same
//!   priorities op by op, and the same items overall.
//! * **MultiQueue and NumaPq** — relaxed, with their draws aligned: both
//!   sides use one xorshift64* stream seeded alike (native `seed + tid`,
//!   simulated `seed ^ pid·φ`, equal for the one caller, tid = pid = 0),
//!   over the same number of heaps. On a tape of singles that is enough
//!   for the same sequence, op by op. On the full tape the twins spend the
//!   stream differently in their batched paths (`DESIGN.md`, "What still
//!   differs"), so there: the same number of items per op, the same items
//!   overall, and every delete within the rank bound.
//!
//! A mismatch is drift between the twins — report it in `DESIGN.md`, do
//! not loosen the comparison here.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use funnelpq::{MultiQueueConfig, NumaConfig, PqBuilder, PqConfig, DEFAULT_MQ_SEED};
use funnelpq_sim::{Machine, MachineConfig};
use funnelpq_simqueues::queues::{Algorithm, BuildParams, SimPq};
use funnelpq_util::XorShift64Star;

const PRIS: usize = 16;
/// Heaps per caller on both sides of the relaxed pairs: four heaps, so a
/// two-choice draw really chooses.
const MQ_FACTOR: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, u64),
    DeleteMin,
    InsertBatch(Vec<(usize, u64)>),
    DeleteMinBatch(usize),
}

/// Alternating fill and drain phases of `len` ops; items are numbered in
/// submission order, so every returned item names the insert it came from.
/// Without `batches` each batch becomes one single of its kind.
fn tape(seed: u64, len: usize, batches: bool) -> Vec<Op> {
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
                5..=6 if batches => Op::InsertBatch(
                    (0..1 + rng.below(8))
                        .map(|_| (rng.below(PRIS as u64) as usize, item()))
                        .collect(),
                ),
                0..=6 => Op::Insert(rng.below(PRIS as u64) as usize, item()),
                7..=8 => Op::DeleteMin,
                _ if batches => Op::DeleteMinBatch(1 + rng.below(8) as usize),
                _ => Op::DeleteMin,
            }
        })
        .collect()
}

/// What every delete-side op of the tape returned, op by op; a final drain
/// — `delete_min_batch(usize::MAX)` after a tape with batches, `delete_min`
/// until empty after one without — takes what is left.
type Trace = Vec<Vec<(usize, u64)>>;

fn has_batches(ops: &[Op]) -> bool {
    ops.iter()
        .any(|op| matches!(op, Op::InsertBatch(_) | Op::DeleteMinBatch(_)))
}

fn run_native(algo: Algorithm, ops: &[Op]) -> Trace {
    let q = match algo {
        Algorithm::MultiQueue => PqBuilder::from_config(
            PqConfig::MultiQueue(MultiQueueConfig {
                factor: MQ_FACTOR,
                seed: DEFAULT_MQ_SEED,
            }),
            PRIS,
            1,
        ),
        Algorithm::NumaPq => PqBuilder::from_config(
            PqConfig::NumaPq(NumaConfig {
                factor: MQ_FACTOR,
                seed: DEFAULT_MQ_SEED,
                ..NumaConfig::default()
            }),
            PRIS,
            1,
        ),
        _ => PqBuilder::new(algo, PRIS, 1),
    }
    .build::<u64>();
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
    if has_batches(ops) {
        q.delete_min_batch(0, usize::MAX, &mut rest);
    } else {
        rest.extend(std::iter::from_fn(|| q.delete_min(0)));
    }
    trace.push(rest);
    trace
}

fn run_sim(algo: Algorithm, ops: &[Op]) -> Trace {
    // The machine seed is the native choice seed: processor 0's stream is
    // the native thread 0's.
    let mut m = Machine::new(MachineConfig::test_tiny(), DEFAULT_MQ_SEED);
    let mut params = BuildParams::new(1, PRIS);
    params.mq_factor = MQ_FACTOR;
    let q = SimPq::build(&mut m, algo, &params);
    let trace = Rc::new(RefCell::new(Trace::new()));
    let batched = has_batches(ops);
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
        if batched {
            q.delete_min_batch(&ctx, usize::MAX, &mut rest).await;
        } else {
            while let Some(e) = q.delete_min(&ctx).await {
                rest.push(e);
            }
        }
        t.borrow_mut().push(widen(rest));
    });
    assert!(
        m.run().is_quiescent(),
        "{algo}: simulated run did not finish"
    );
    trace.take()
}

/// Replays the tape against a count of the items present and returns, per
/// delete-side op, the largest rank error among the items it returned
/// (how many present items of strictly smaller priority it was taken
/// ahead of) together with the number of items the queue held before it.
/// Panics if the trace returns an item twice or never, or one never
/// inserted.
fn rank_errors(ops: &[Op], trace: &Trace) -> Vec<(usize, usize)> {
    let mut present: BTreeMap<usize, usize> = BTreeMap::new();
    let mut deletes = trace.iter();
    let mut out = Vec::new();
    let mut take = |present: &mut BTreeMap<usize, usize>, got: &Vec<(usize, u64)>| {
        let held = present.values().sum();
        let mut worst = 0;
        for &(pri, _) in got {
            worst = worst.max(present.range(..pri).map(|(_, n)| n).sum());
            let n = present.get_mut(&pri).expect("an item never inserted");
            *n = n.checked_sub(1).expect("an item returned twice");
        }
        out.push((worst, held));
    };
    for op in ops {
        match op {
            Op::Insert(pri, _) => *present.entry(*pri).or_default() += 1,
            Op::InsertBatch(batch) => {
                for (pri, _) in batch {
                    *present.entry(*pri).or_default() += 1;
                }
            }
            Op::DeleteMin | Op::DeleteMinBatch(_) => take(&mut present, deletes.next().unwrap()),
        }
    }
    take(&mut present, deletes.next().expect("the final drain"));
    assert!(present.values().all(|&n| n == 0), "the drain left items");
    out
}

fn items(trace: &Trace) -> Vec<(usize, u64)> {
    let mut all: Vec<_> = trace.iter().flatten().copied().collect();
    all.sort_unstable();
    all
}

fn priorities(trace: &Trace) -> Vec<Vec<usize>> {
    trace
        .iter()
        .map(|op| op.iter().map(|&(pri, _)| pri).collect())
        .collect()
}

fn assert_same_sequence(algo: Algorithm, native: &Trace, sim: &Trace) {
    assert_eq!(native.len(), sim.len(), "{algo}: op count differs");
    for (at, (n, s)) in native.iter().zip(sim).enumerate() {
        assert_eq!(n, s, "{algo}: delete op {at} differs (native, sim)");
    }
}

#[test]
fn native_queues_and_their_simulated_twins_return_the_same_items() {
    let ops = tape(0x25D1_FF00, 2_000, true);
    for algo in funnelpq::Algorithm::ALL
        .into_iter()
        .chain([Algorithm::MultiQueue, Algorithm::NumaPq])
    {
        let native = run_native(algo, &ops);
        let sim = run_sim(algo, &ops);
        assert!(
            native.iter().map(Vec::len).sum::<usize>() > 500,
            "{algo}: the tape must actually move items"
        );
        assert_eq!(items(&native), items(&sim), "{algo}: items differ");
        match algo {
            Algorithm::HuntEtAl => {
                assert_eq!(priorities(&native), priorities(&sim), "{algo}");
            }
            Algorithm::MultiQueue | Algorithm::NumaPq => {
                let counts = |t: &Trace| t.iter().map(Vec::len).collect::<Vec<_>>();
                assert_eq!(counts(&native), counts(&sim), "{algo}: items per op");
                // The rank bound of the simulated batched-quality audit:
                // the heaps a delete did not take from hide at most what
                // the queue holds. Both sides keep to it, and the draws
                // really choose.
                for trace in [&native, &sim] {
                    let errors = rank_errors(&ops, trace);
                    assert!(errors.iter().all(|&(e, held)| e < held.max(1)), "{algo}");
                    assert!(errors.iter().any(|&(e, _)| e > 0), "{algo}: strict");
                }
            }
            _ => {
                assert_same_sequence(algo, &native, &sim);
                assert!(rank_errors(&ops, &native).iter().all(|&(e, _)| e == 0));
            }
        }
    }
}

#[test]
fn relaxed_twins_drawing_from_one_seed_return_the_same_singles() {
    let ops = tape(0x25D1_FF00, 2_000, false);
    for algo in [Algorithm::MultiQueue, Algorithm::NumaPq] {
        let native = run_native(algo, &ops);
        let sim = run_sim(algo, &ops);
        assert_same_sequence(algo, &native, &sim);
        assert!(
            rank_errors(&ops, &native).iter().any(|&(e, _)| e > 0),
            "{algo}: the draws must choose"
        );
    }
}

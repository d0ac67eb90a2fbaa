//! Sequential model-conformance for every native queue: any interleaving of
//! inserts and delete-mins, executed single-threaded, must match a sorted
//! reference model on returned priorities (item identity within equal
//! priorities is unspecified — bins are unordered pools). Sequences are
//! generated by the in-repo deterministic PRNG, so every run covers the
//! same cases.

use std::collections::BTreeMap;
use std::sync::Arc;

use funnelpq::{Algorithm, BoundedPq, HuntConfig, PqBuilder, PqConfig};
use funnelpq_util::XorShift64Star;

/// Default typed config for `a`, except HuntEtAl gets an explicit (small)
/// capacity — the migrated form of the old `hunt_capacity` sweep knob.
fn configured(a: Algorithm, hunt_capacity: usize) -> PqConfig {
    match PqConfig::for_algorithm(a).expect("natively buildable") {
        PqConfig::HuntEtAl(_) => PqConfig::HuntEtAl(HuntConfig {
            capacity: hunt_capacity,
        }),
        cfg => cfg,
    }
}

const THREADS: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    DeleteMin,
}

fn random_ops(rng: &mut XorShift64Star, num_pris: usize, max_len: u64) -> Vec<Op> {
    let len = 1 + rng.below(max_len) as usize;
    (0..len)
        .map(|_| {
            // 3:2 insert:delete mix, matching the paper's benchmark bias.
            if rng.below(5) < 3 {
                Op::Insert(rng.below(num_pris as u64) as usize)
            } else {
                Op::DeleteMin
            }
        })
        .collect()
}

/// Reference model: multiset of priorities.
#[derive(Default)]
struct Model {
    counts: BTreeMap<usize, usize>,
}

impl Model {
    fn insert(&mut self, pri: usize) {
        *self.counts.entry(pri).or_insert(0) += 1;
    }
    fn delete_min(&mut self) -> Option<usize> {
        let (&pri, _) = self.counts.iter().next()?;
        let c = self.counts.get_mut(&pri).unwrap();
        *c -= 1;
        if *c == 0 {
            self.counts.remove(&pri);
        }
        Some(pri)
    }
}

fn check_queue(q: &dyn BoundedPq<u64>, ops: &[Op]) {
    let mut model = Model::default();
    let mut next_item = 0u64;
    for op in ops {
        match op {
            Op::Insert(pri) => {
                q.insert(0, *pri, next_item);
                next_item += 1;
                model.insert(*pri);
            }
            Op::DeleteMin => {
                let got = q.delete_min(0).map(|(p, _)| p);
                let want = model.delete_min();
                assert_eq!(got, want, "delete_min priority mismatch");
            }
        }
    }
    // Full drain must also agree.
    loop {
        let got = q.delete_min(0).map(|(p, _)| p);
        let want = model.delete_min();
        assert_eq!(got, want, "drain mismatch");
        if got.is_none() {
            break;
        }
    }
    assert!(q.is_empty());
}

fn all_queues(num_pris: usize) -> Vec<(&'static str, Arc<dyn BoundedPq<u64>>)> {
    Algorithm::ALL
        .into_iter()
        .map(|a| {
            let q = PqBuilder::from_config(configured(a, 4096), num_pris, 1).build::<u64>();
            (a.name(), Arc::from(q))
        })
        .collect()
}

/// Runs `cases` random sequences over every queue at one priority range.
fn conformance_sweep(num_pris: usize, max_len: u64, cases: u64, salt: u64) {
    for case in 0..cases {
        let mut rng = XorShift64Star::new(case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
        let ops = random_ops(&mut rng, num_pris, max_len);
        for (name, q) in all_queues(num_pris) {
            let _ = name;
            check_queue(q.as_ref(), &ops);
        }
    }
}

#[test]
fn all_queues_match_model_16_priorities() {
    conformance_sweep(16, 200, 64, 0x10);
}

#[test]
fn all_queues_match_model_5_priorities() {
    conformance_sweep(5, 120, 64, 0x5);
}

#[test]
fn all_queues_match_model_1_priority() {
    conformance_sweep(1, 60, 64, 0x1);
}

#[test]
fn deep_priority_range() {
    // 512 priorities, reversed insertion, full drain.
    for (name, q) in all_queues(512) {
        for p in (0..512).rev() {
            q.insert(0, p, p as u64);
        }
        for p in 0..512 {
            let got = q.delete_min(0);
            assert_eq!(got.map(|e| e.0), Some(p), "{name} at {p}");
        }
        assert_eq!(q.delete_min(0), None, "{name} should be empty");
    }
}

#[test]
fn items_survive_round_trips() {
    for (name, q) in all_queues(8) {
        for round in 0..10u64 {
            q.insert(0, (round % 8) as usize, round * 1000);
            let (_, item) = q.delete_min(0).unwrap();
            assert_eq!(item, round * 1000, "{name} round {round}");
        }
    }
}

/// Every algorithm's `try_insert` must reject out-of-range arguments with
/// the right error variant, hand the item back intact, and leave the queue
/// untouched.
#[test]
fn try_insert_errors_round_trip_the_item_for_every_algorithm() {
    use funnelpq::PqError;
    for (name, q) in all_queues(8) {
        match q.try_insert(0, 99, 4242) {
            Err(PqError::PriorityOutOfRange { pri: 99, item, .. }) => {
                assert_eq!(item, 4242, "{name}: item lost in the error")
            }
            other => panic!("{name}: expected PriorityOutOfRange, got {other:?}"),
        }
        match q.try_insert(77, 0, 4243) {
            Err(PqError::TidOutOfRange { tid: 77, item, .. }) => {
                assert_eq!(item, 4243, "{name}: item lost in the error")
            }
            other => panic!("{name}: expected TidOutOfRange, got {other:?}"),
        }
        assert_eq!(
            q.delete_min(0),
            None,
            "{name}: rejected insert left residue"
        );
    }
}

/// The nine natively-constructible algorithms: the paper's seven plus the
/// relaxed MultiQueue and NumaPq (HardwareTree is simulator-only).
fn all_batchable_queues(num_pris: usize) -> Vec<(&'static str, Arc<dyn BoundedPq<u64>>)> {
    Algorithm::EVERY
        .into_iter()
        .filter(|&a| a != Algorithm::HardwareTree)
        .map(|a| {
            let q = PqBuilder::from_config(configured(a, 4096), num_pris, 1).build::<u64>();
            (a.name(), Arc::from(q))
        })
        .collect()
}

/// A failed `insert_batch` must conserve every entry: the filed ones drain
/// back out of the queue, the rest ride home in the `PqBatchError`, and
/// together they partition the submitted batch exactly.
#[test]
fn insert_batch_errors_round_trip_every_entry_for_every_algorithm() {
    use funnelpq::PqError;
    for (name, q) in all_batchable_queues(8) {
        // Whole batch rejected on a bad tid: nothing may be filed.
        let e = q
            .insert_batch(77, vec![(0, 10u64), (1, 11), (2, 12)])
            .expect_err("tid 77 must be rejected");
        assert!(
            matches!(e.error, PqError::TidOutOfRange { tid: 77, .. }),
            "{name}: wrong error variant: {:?}",
            e.error
        );
        let mut back: Vec<u64> = e.into_unconsumed().into_iter().map(|(_, x)| x).collect();
        back.sort_unstable();
        assert_eq!(back, vec![10, 11, 12], "{name}: entries lost on tid error");
        assert_eq!(q.delete_min(0), None, "{name}: tid rejection left residue");

        // Bad priority mid-batch: filed + unconsumed must partition the
        // batch (which entries were filed before the stop is unspecified).
        let submitted = vec![(3usize, 20u64), (99, 21), (5, 22), (1, 23)];
        let e = q
            .insert_batch(0, submitted.clone())
            .expect_err("priority 99 must be rejected");
        assert_eq!(e.failed_pri, 99, "{name}: wrong failing entry");
        assert!(
            matches!(e.error, PqError::PriorityOutOfRange { pri: 99, .. }),
            "{name}: wrong error variant: {:?}",
            e.error
        );
        let mut recovered: Vec<u64> = e.into_unconsumed().into_iter().map(|(_, x)| x).collect();
        let mut out = Vec::new();
        q.delete_min_batch(0, usize::MAX, &mut out);
        recovered.extend(out.iter().map(|&(_, x)| x));
        recovered.sort_unstable();
        assert_eq!(
            recovered,
            vec![20, 21, 22, 23],
            "{name}: filed + unconsumed must partition the batch"
        );
        assert!(q.is_empty(), "{name}: drain left residue");
    }
}

/// On an empty queue `delete_min_batch` must stop at the first empty
/// delete — one probe, not `k` — leaving `out` untouched, and the batched
/// entry points must flow through the recorder like any other operation.
#[test]
fn delete_min_batch_on_empty_queue_stops_after_one_probe() {
    use funnelpq::obs::{AtomicRecorder, CounterEvent};
    for a in Algorithm::EVERY {
        if a == Algorithm::HardwareTree {
            continue;
        }
        let rec = Arc::new(AtomicRecorder::new());
        let q = PqBuilder::from_config(configured(a, 64), 8, 1)
            .recorder(Arc::clone(&rec))
            .build::<u64>();
        let mut out = Vec::new();
        assert_eq!(
            q.delete_min_batch(0, 1_000_000, &mut out),
            0,
            "{}: empty queue must yield nothing",
            a.name()
        );
        assert!(out.is_empty(), "{}: out must stay untouched", a.name());
        let snap = rec.snapshot();
        assert_eq!(
            snap.event(CounterEvent::EmptyDeleteMin),
            1,
            "{}: exactly one empty probe, not a million",
            a.name()
        );
    }
}

/// Exact capacity boundary under concurrent fill: `HuntPq` (the one native
/// queue with a construction-time capacity) must admit exactly `capacity`
/// items no matter how many threads race past the boundary, every
/// rejection must be `CapacityExhausted` carrying the item back, and
/// draining must free the space again.
#[test]
fn hunt_capacity_boundary_under_concurrent_fill() {
    use funnelpq::PqError;
    const CAPACITY: usize = 64;
    const PER_THREAD: usize = 24; // THREADS * PER_THREAD = 3 * capacity
    let q: Arc<dyn BoundedPq<u64>> = Arc::from(
        PqBuilder::from_config(
            PqConfig::HuntEtAl(HuntConfig { capacity: CAPACITY }),
            16,
            THREADS,
        )
        .build::<u64>(),
    );
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut admitted = Vec::new();
                for i in 0..PER_THREAD {
                    let item = (tid * PER_THREAD + i) as u64;
                    match q.try_insert(tid, (item % 16) as usize, item) {
                        Ok(()) => admitted.push(item),
                        Err(PqError::CapacityExhausted { item: back }) => {
                            assert_eq!(back, item, "rejected item came back mangled")
                        }
                        Err(other) => panic!("unexpected error at the boundary: {other}"),
                    }
                }
                admitted
            })
        })
        .collect();
    let admitted: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(
        admitted.len(),
        CAPACITY,
        "exactly capacity items must be admitted"
    );
    // Everything admitted drains back out, and nothing else.
    let mut drained = Vec::new();
    while let Some((_, x)) = q.delete_min(0) {
        drained.push(x);
    }
    let mut want = admitted.clone();
    want.sort_unstable();
    drained.sort_unstable();
    assert_eq!(drained, want, "admitted and drained sets differ");
    // The boundary is reusable: freed space admits exactly one more item.
    for i in 0..CAPACITY {
        q.try_insert(0, 0, i as u64).unwrap();
    }
    assert!(matches!(
        q.try_insert(0, 0, 9999),
        Err(PqError::CapacityExhausted { item: 9999 })
    ));
    q.delete_min(0).unwrap();
    q.try_insert(0, 0, 9999)
        .expect("one freed slot must admit one item");
    assert!(matches!(
        q.try_insert(0, 0, 10000),
        Err(PqError::CapacityExhausted { item: 10000 })
    ));
}

/// What one seeded single-threaded tape leaves behind: an FNV-1a digest of
/// every returned `(pri, item)` (and every `None`), then the recorder's
/// `[lock_acquire, cas_retry, empty_delete_min, mode_switch]` totals.
type TapeTrace = (u64, [u64; 4]);

/// Thread ids the tape rotates over, and its priority range.
const TAPE_TIDS: usize = 4;
const TAPE_PRIS: usize = 32;

/// Replays a fixed mixed tape — singles, batches and `replace_min`, the
/// calling tid rotating over four ids — against `q`, whose metrics (if it
/// has a recorder attached) flow into `rec`. One OS thread, so a queue's
/// own RNG draws are the only source of choice and the trace is a pure
/// function of the code.
fn replay_tape(q: &dyn BoundedPq<u64>, rec: &funnelpq::obs::AtomicRecorder) -> TapeTrace {
    use funnelpq::obs::CounterEvent;
    let mut rng = XorShift64Star::new(0x7A9E_0023);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut note = |e: Option<(usize, u64)>| match e {
        Some((pri, item)) => {
            mix(pri as u64);
            mix(item);
        }
        None => mix(u64::MAX),
    };
    let mut next_item = 0u64;
    let mut out = Vec::new();
    for step in 0..3_000usize {
        let tid = step % TAPE_TIDS;
        let pri = rng.below(TAPE_PRIS as u64) as usize;
        // Alternating fill and drain phases, so the empty-pair sweep and
        // the stale-free redraw paths are walked as well as the fast path.
        let draining = (step / 500) % 2 == 1;
        let roll = rng.below(20);
        let kind = match (draining, roll) {
            (false, 0..=8) | (true, 0..=2) => 0,
            (false, 9..=14) | (true, 3..=12) => 1,
            (false, 15..=16) | (true, 13) => 2,
            (false, 17..=18) | (true, 14..=17) => 3,
            _ => 4,
        };
        match kind {
            0 => {
                q.insert(tid, pri, next_item);
                next_item += 1;
            }
            1 => note(q.delete_min(tid)),
            2 => {
                let len = 1 + rng.below(8);
                let batch = (0..len)
                    .map(|i| (rng.below(TAPE_PRIS as u64) as usize, next_item + i))
                    .collect();
                next_item += len;
                q.insert_batch(tid, batch).expect("in-range batch");
            }
            3 => {
                out.clear();
                let k = 1 + rng.below(8) as usize;
                let n = q.delete_min_batch(tid, k, &mut out);
                assert_eq!(n, out.len());
                out.iter().for_each(|&e| note(Some(e)));
                note(None);
            }
            _ => {
                note(q.replace_min(tid, pri, next_item));
                next_item += 1;
            }
        }
    }
    while let Some(e) = q.delete_min(0) {
        note(Some(e));
    }
    let snap = rec.snapshot();
    (
        digest,
        [
            CounterEvent::LockAcquire,
            CounterEvent::CasRetry,
            CounterEvent::EmptyDeleteMin,
            CounterEvent::ModeSwitch,
        ]
        .map(|e| snap.event(e)),
    )
}

/// [`replay_tape`] on the queue `PqBuilder` builds from `cfg`, with an
/// `AtomicRecorder` attached.
fn replay_built(cfg: PqConfig) -> TapeTrace {
    let rec = Arc::new(funnelpq::obs::AtomicRecorder::new());
    let q = PqBuilder::from_config(cfg, TAPE_PRIS, TAPE_TIDS)
        .recorder(Arc::clone(&rec))
        .build::<u64>();
    replay_tape(&*q, &rec)
}

/// Traces recorded from the code *before* the refactor each names: the two
/// relaxed queues before ISSUE 23 gave them one heap array
/// (`core::heap_array`), the paper's four bounded-range queues before
/// ISSUE 25 put them behind one front end (`core::bin_pq`). A refactor
/// there must keep every returned item, every RNG draw and every event
/// count exactly — do not edit the constants.
#[test]
fn seeded_tapes_replay_exactly() {
    use funnelpq::obs::AtomicRecorder;
    use funnelpq::{
        BinOrder, MultiQueueConfig, NumaConfig, NumaMode, NumaPolicy, SimpleLinearPq, SimpleTreePq,
    };
    let numa = NumaConfig {
        epoch_ops: 16,
        remote_ns: 2_000,
        ..NumaConfig::default()
    };
    let built: [(&str, PqConfig, TapeTrace); 8] = [
        (
            "MultiQueue",
            PqConfig::MultiQueue(MultiQueueConfig::default()),
            (1_194_776_149_776_917_748, [9_422, 0, 577, 0]),
        ),
        (
            "MultiQueue factor 4",
            PqConfig::MultiQueue(MultiQueueConfig {
                factor: 4,
                ..MultiQueueConfig::default()
            }),
            (15_500_334_960_384_566_552, [18_749, 0, 577, 0]),
        ),
        (
            "NumaPq adaptive",
            PqConfig::NumaPq(numa.clone()),
            (131_845_616_747_771_228, [10_273, 0, 577, 1]),
        ),
        (
            "NumaPq pinned delegation",
            PqConfig::NumaPq(NumaConfig {
                policy: NumaPolicy::Pinned(NumaMode::Delegation),
                ..numa
            }),
            (379_136_422_475_452_456, [10_282, 0, 577, 0]),
        ),
        (
            "SimpleLinear",
            PqConfig::for_algorithm(Algorithm::SimpleLinear).unwrap(),
            (3_793_526_794_876_077_372, [3_835, 0, 577, 0]),
        ),
        (
            "LinearFunnels",
            PqConfig::for_algorithm(Algorithm::LinearFunnels).unwrap(),
            (3_793_526_794_876_077_372, [3_835, 0, 577, 0]),
        ),
        (
            "SimpleTree",
            PqConfig::for_algorithm(Algorithm::SimpleTree).unwrap(),
            (3_793_526_794_876_077_372, [19_316, 0, 577, 0]),
        ),
        (
            "FunnelTree",
            PqConfig::for_algorithm(Algorithm::FunnelTree).unwrap(),
            (3_793_526_794_876_077_372, [7_596, 0, 577, 0]),
        ),
    ];
    for (name, cfg, want) in built {
        assert_eq!(replay_built(cfg), want, "{name}: tape trace changed");
    }
    // The direct constructors, both bin orders; no recorder attached, so
    // only the digest moves (LIFO must match the builder's rows above).
    let unattached = AtomicRecorder::new();
    let direct: [(&str, Box<dyn BoundedPq<u64>>, u64); 4] = [
        (
            "SimpleLinear LIFO",
            Box::new(SimpleLinearPq::with_order(
                TAPE_PRIS,
                TAPE_TIDS,
                BinOrder::Lifo,
            )),
            3_793_526_794_876_077_372,
        ),
        (
            "SimpleLinear FIFO",
            Box::new(SimpleLinearPq::with_order(
                TAPE_PRIS,
                TAPE_TIDS,
                BinOrder::Fifo,
            )),
            6_178_459_840_227_949_080,
        ),
        (
            "SimpleTree LIFO",
            Box::new(SimpleTreePq::with_order(
                TAPE_PRIS,
                TAPE_TIDS,
                BinOrder::Lifo,
            )),
            3_793_526_794_876_077_372,
        ),
        (
            "SimpleTree FIFO",
            Box::new(SimpleTreePq::with_order(
                TAPE_PRIS,
                TAPE_TIDS,
                BinOrder::Fifo,
            )),
            6_178_459_840_227_949_080,
        ),
    ];
    for (name, q, want) in direct {
        assert_eq!(
            replay_tape(&*q, &unattached),
            (want, [0; 4]),
            "{name}: tape trace changed"
        );
    }
}

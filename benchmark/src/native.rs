//! The three native workloads — `native_mixed`, `native_batch`,
//! `native_observed` — and the slice machinery they share.
//!
//! One slice = a freshly built queue, prefilled to the standing
//! population, driven by two busy worker threads for a fixed time, then
//! drained at quiescence and checked. Slices of different algorithms are
//! interleaved round-robin by the caller ([`crate::stats::interleave`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use funnelpq::obs::AtomicRecorder;
use funnelpq::{Algorithm, BoundedPq, PqBuilder};
use funnelpq_util::XorShift64Star;

use crate::spans::{probed, NoProbe, OpProbe};
use crate::stats::{interleave, stream_seed, Summary};
use crate::{Check, Ctx, E2eOut, Workload};

/// Items resident in the queue when a slice starts (and, the coin being
/// fair, on average throughout it).
pub const POPULATION: usize = 16_384;
/// Priority range of every native workload.
pub const PRIORITIES: usize = 64;
/// Busy threads per slice — the host's `nproc`.
pub const THREADS: usize = 2;
/// Items per batched call on `native_batch`.
pub const BATCH: usize = 8;
/// Length of one slice, seconds: long enough for ~10⁵ operations on the
/// slowest queue, short enough that an interference burst spoils single
/// slices rather than a share of every one.
pub const SLICE_S: f64 = 0.148;

/// The nine natively buildable algorithms, in the paper's order plus the
/// two relaxed queues.
pub const ROSTER: [Algorithm; 9] = [
    Algorithm::SingleLock,
    Algorithm::HuntEtAl,
    Algorithm::SkipList,
    Algorithm::SimpleLinear,
    Algorithm::SimpleTree,
    Algorithm::LinearFunnels,
    Algorithm::FunnelTree,
    Algorithm::MultiQueue,
    Algorithm::NumaPq,
];

/// What `native_batch` runs: the roster without HuntEtAl, whose batched
/// insert livelocks under two concurrent batchers — at this very shape
/// (alternating batches of 8, 16 384 resident) about one 0.15 s slice in a
/// hundred never ends, both workers backing off in `bubble_up` (README,
/// "Hazard"). A workload must be one on which no operation fails, so the
/// queue is out until the product is fixed; its singles path, which
/// `native_mixed` runs, is not affected.
pub const BATCH_ROSTER: [Algorithm; 8] = [
    Algorithm::SingleLock,
    Algorithm::SkipList,
    Algorithm::SimpleLinear,
    Algorithm::SimpleTree,
    Algorithm::LinearFunnels,
    Algorithm::FunnelTree,
    Algorithm::MultiQueue,
    Algorithm::NumaPq,
];

/// The pair `native_observed` runs: the cheapest strict queue and the
/// cheapest relaxed one, where a recorder's fixed cost shows most.
pub const OBSERVED: [Algorithm; 2] = [Algorithm::SingleLock, Algorithm::MultiQueue];

/// How the workers use the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fair coin per call: `insert` at a random priority, or `delete_min`
    /// (the paper's §4 access pattern).
    Mixed,
    /// Strictly alternating `insert_batch(8)` / `delete_min_batch(8)`, so
    /// the population stays put.
    Batch,
}

/// What one worker did in one slice.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// API calls made (a batch is one call).
    pub calls: u64,
    /// Items filed.
    pub inserted: u64,
    /// Items removed.
    pub deleted: u64,
    /// Items a `try_insert`/`insert_batch` refused.
    pub failed: u64,
    /// Wrapping sum of filed item ids.
    pub ins_sum: u64,
    /// Wrapping sum of removed item ids.
    pub del_sum: u64,
    /// The worker's own measure of its busy interval.
    pub elapsed_ns: u64,
}

impl Tally {
    fn merge(&mut self, o: &Tally) {
        self.calls += o.calls;
        self.inserted += o.inserted;
        self.deleted += o.deleted;
        self.failed += o.failed;
        self.ins_sum = self.ins_sum.wrapping_add(o.ins_sum);
        self.del_sum = self.del_sum.wrapping_add(o.del_sum);
        self.elapsed_ns = self.elapsed_ns.max(o.elapsed_ns);
    }

    /// Items moved (filed + removed).
    pub fn items(&self) -> u64 {
        self.inserted + self.deleted
    }

    /// Completed items per second over all threads.
    pub fn ops_per_s(&self) -> f64 {
        self.items() as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Mean wall time of one API call as a worker sees it: every thread is
    /// always inside a call (closed loop, no think time), so it is
    /// threads × interval ÷ calls.
    pub fn call_ns(&self) -> f64 {
        THREADS as f64 * self.elapsed_ns as f64 / self.calls as f64
    }
}

/// A built and prefilled queue, with what the check needs to know.
pub struct Prepared {
    /// The queue under test.
    pub q: Box<dyn BoundedPq<u64>>,
    /// Which algorithm it is.
    pub algo: Algorithm,
    resident: u64,
    resident_sum: u64,
    /// Construct + prefill time.
    pub setup_s: f64,
}

/// Builds `algo` with its default `PqConfig` (optionally observed) and
/// prefills it to [`POPULATION`] from the stream `seed`.
pub fn prepare(algo: Algorithm, recorder: Option<Arc<AtomicRecorder>>, seed: u64) -> Prepared {
    let t0 = Instant::now();
    let builder = PqBuilder::new(algo, PRIORITIES, THREADS);
    let q = match recorder {
        Some(rec) => builder.recorder(rec).build::<u64>(),
        None => builder.build::<u64>(),
    };
    let mut rng = XorShift64Star::new(seed);
    let mut resident_sum = 0u64;
    for i in 0..POPULATION as u64 {
        let item = 0xFF << 48 | i;
        q.insert(0, (rng.next_u64() >> 8) as usize % PRIORITIES, item);
        resident_sum = resident_sum.wrapping_add(item);
    }
    Prepared {
        q,
        algo,
        resident: POPULATION as u64,
        resident_sum,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// One worker's generator state: its RNG stream and its item-id counter.
struct Gen {
    rng: XorShift64Star,
    next_item: u64,
}

impl Gen {
    fn new(tid: usize, seed: u64) -> Self {
        Gen {
            rng: XorShift64Star::new(seed),
            next_item: (tid as u64 + 1) << 48,
        }
    }

    #[inline(always)]
    fn item(&mut self) -> u64 {
        self.next_item += 1;
        self.next_item
    }

    #[inline(always)]
    fn batch(&mut self) -> (Vec<(usize, u64)>, u64) {
        let mut sum = 0u64;
        let batch = (0..BATCH)
            .map(|_| {
                let item = self.item();
                sum = sum.wrapping_add(item);
                ((self.rng.next_u64() >> 8) as usize % PRIORITIES, item)
            })
            .collect();
        (batch, sum)
    }
}

fn work_mixed<P: OpProbe>(
    q: &dyn BoundedPq<u64>,
    tid: usize,
    gen: &mut Gen,
    stop: &AtomicBool,
    probe: &mut P,
) -> Tally {
    let mut t = Tally::default();
    while !stop.load(Ordering::Relaxed) {
        let r = gen.rng.next_u64();
        if r & 1 == 0 {
            let pri = (r >> 8) as usize % PRIORITIES;
            let item = gen.item();
            match probed(probe, "insert", || q.try_insert(tid, pri, item)) {
                Ok(()) => {
                    t.inserted += 1;
                    t.ins_sum = t.ins_sum.wrapping_add(item);
                }
                Err(_) => t.failed += 1,
            }
        } else {
            // An empty `delete_min` is not a failure.
            if let Some((_, item)) = probed(probe, "delete_min", || q.delete_min(tid)) {
                t.deleted += 1;
                t.del_sum = t.del_sum.wrapping_add(item);
            }
        }
        t.calls += 1;
    }
    t
}

fn work_batch<P: OpProbe>(
    q: &dyn BoundedPq<u64>,
    tid: usize,
    gen: &mut Gen,
    stop: &AtomicBool,
    probe: &mut P,
) -> Tally {
    let mut t = Tally::default();
    let mut out: Vec<(usize, u64)> = Vec::with_capacity(BATCH);
    while !stop.load(Ordering::Relaxed) {
        let (batch, sum) = gen.batch();
        match probed(probe, "insert_batch", || q.insert_batch(tid, batch)) {
            Ok(()) => {
                t.inserted += BATCH as u64;
                t.ins_sum = t.ins_sum.wrapping_add(sum);
            }
            Err(e) => {
                let back = e.into_unconsumed();
                t.failed += back.len() as u64;
                t.inserted += (BATCH - back.len()) as u64;
                let back_sum = back.iter().fold(0u64, |a, (_, x)| a.wrapping_add(*x));
                t.ins_sum = t.ins_sum.wrapping_add(sum.wrapping_sub(back_sum));
            }
        }
        out.clear();
        let n = probed(probe, "delete_min_batch", || {
            q.delete_min_batch(tid, BATCH, &mut out)
        });
        t.deleted += n as u64;
        for (_, item) in &out {
            t.del_sum = t.del_sum.wrapping_add(*item);
        }
        t.calls += 2;
    }
    t
}

/// Drives `q` with [`THREADS`] busy workers for `len`, one probe per
/// worker; returns the merged tally and the probes.
pub fn run_slice<P: OpProbe>(
    q: &dyn BoundedPq<u64>,
    shape: Shape,
    seeds: [u64; THREADS],
    len: Duration,
    probes: Vec<P>,
) -> (Tally, Vec<P>) {
    assert_eq!(probes.len(), THREADS);
    let stop = AtomicBool::new(false);
    let start = Barrier::new(THREADS + 1);
    let mut merged = Tally::default();
    let mut back = Vec::with_capacity(THREADS);
    std::thread::scope(|s| {
        let handles: Vec<_> = probes
            .into_iter()
            .enumerate()
            .map(|(tid, mut probe)| {
                let (stop, start) = (&stop, &start);
                let seed = seeds[tid];
                s.spawn(move || {
                    let mut gen = Gen::new(tid, seed);
                    start.wait();
                    let t0 = Instant::now();
                    let mut t = match shape {
                        Shape::Mixed => work_mixed(q, tid, &mut gen, stop, &mut probe),
                        Shape::Batch => work_batch(q, tid, &mut gen, stop, &mut probe),
                    };
                    t.elapsed_ns = t0.elapsed().as_nanos() as u64;
                    (t, probe)
                })
            })
            .collect();
        start.wait();
        std::thread::sleep(len);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (t, probe) = h.join().expect("worker thread panicked");
            merged.merge(&t);
            back.push(probe);
        }
    });
    (merged, back)
}

/// The harness's own per-call cost on `shape`: the worker loop with the
/// queue call replaced by nothing (`bench.gen_ns`).
pub fn generator_ns(shape: Shape, seed: u64, iters: u64) -> f64 {
    let mut gen = Gen::new(0, seed);
    let t0 = Instant::now();
    let mut sink = 0u64;
    for _ in 0..iters {
        match shape {
            Shape::Mixed => {
                let r = gen.rng.next_u64();
                sink = sink.wrapping_add(if r & 1 == 0 {
                    (r >> 8) % PRIORITIES as u64 + gen.item()
                } else {
                    1
                });
            }
            Shape::Batch => {
                let (batch, sum) = gen.batch();
                sink = sink.wrapping_add(sum + std::hint::black_box(batch).len() as u64);
            }
        }
    }
    std::hint::black_box(sink);
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Drains the slice's queue at quiescence and checks it against the
/// tally: conservation by count *and* by id checksum, a sorted drain for
/// strict queues, a structurally bounded one for relaxed queues.
pub fn verify(p: Prepared, t: &Tally, what: &str) -> Check {
    let mut c = Check {
        attempted: t.calls,
        failed: t.failed,
        violations: Vec::new(),
    };
    if t.failed > 0 {
        c.violations
            .push(format!("{what}: {} items refused by insert", t.failed));
    }
    let mut drained: Vec<usize> = Vec::with_capacity(2 * POPULATION);
    let mut drained_sum = 0u64;
    while let Some((pri, item)) = p.q.delete_min(0) {
        drained.push(pri);
        drained_sum = drained_sum.wrapping_add(item);
    }
    c.attempted += drained.len() as u64;
    let expect = p.resident + t.inserted - t.deleted;
    if drained.len() as u64 != expect {
        c.failed += (drained.len() as u64).abs_diff(expect);
        c.violations.push(format!(
            "{what}: conservation: {} resident + {} inserted - {} deleted = {expect}, drained {}",
            p.resident,
            t.inserted,
            t.deleted,
            drained.len()
        ));
    }
    let expect_sum = p
        .resident_sum
        .wrapping_add(t.ins_sum)
        .wrapping_sub(t.del_sum);
    if drained_sum != expect_sum {
        c.failed += 1;
        c.violations.push(format!(
            "{what}: id checksum mismatch (an item was duplicated or swapped)"
        ));
    }
    // Rank error of each drained item: how many strictly more urgent items
    // were still resident when it came out.
    let mut remaining = [0u64; PRIORITIES];
    for &pri in &drained {
        remaining[pri] += 1;
    }
    let mut left = drained.len() as u64;
    let (mut unsorted, mut unbounded) = (0u64, 0u64);
    for &pri in &drained {
        let rank: u64 = remaining[..pri].iter().sum();
        unsorted += u64::from(rank > 0);
        // The only bound a relaxed queue's structure gives a sequential
        // drain: an item is outranked by at most everything else resident.
        unbounded += u64::from(rank >= left);
        remaining[pri] -= 1;
        left -= 1;
    }
    let bad = if p.algo.is_relaxed() {
        unbounded
    } else {
        unsorted
    };
    if bad > 0 {
        c.failed += bad;
        c.violations.push(format!(
            "{what}: quiescent drain out of order at {bad} of {} items",
            drained.len()
        ));
    }
    c
}

/// Which of the three native workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `native_mixed`.
    Mixed,
    /// `native_batch`.
    Batch,
    /// `native_observed`.
    Observed,
}

impl Kind {
    /// The workload this is.
    pub fn workload(self) -> Workload {
        match self {
            Kind::Mixed => Workload::NativeMixed,
            Kind::Batch => Workload::NativeBatch,
            Kind::Observed => Workload::NativeObserved,
        }
    }

    /// The workload's catalogue name.
    pub fn name(self) -> &'static str {
        self.workload().name()
    }

    /// The algorithms it runs.
    pub fn roster(self) -> &'static [Algorithm] {
        match self {
            Kind::Mixed => &ROSTER,
            Kind::Batch => &BATCH_ROSTER,
            Kind::Observed => &OBSERVED,
        }
    }

    /// How its workers use the queue.
    pub fn shape(self) -> Shape {
        match self {
            Kind::Batch => Shape::Batch,
            Kind::Mixed | Kind::Observed => Shape::Mixed,
        }
    }
}

/// Seeds of one slice's streams: the two workers, then the prefill.
pub fn slice_seeds(ctx: &Ctx<'_>, workload: &str, subject: usize, round: usize) -> [u64; 3] {
    [0, 1, 2].map(|stream| stream_seed(ctx.seed, workload, subject, round, stream))
}

/// The end-to-end pass of one native workload: rounds × roster slices,
/// interleaved, no probe, each slice checked.
pub fn e2e(ctx: &Ctx<'_>, kind: Kind) -> E2eOut {
    let roster = kind.roster();
    let rounds = ctx.rounds(roster.len(), SLICE_S);
    let len = Duration::from_secs_f64(SLICE_S);
    let mut out = E2eOut::new(roster.iter().map(|a| a.name()), Summary::Median);
    let mut round_setup = vec![0.0; rounds];
    for (round, subject) in interleave(roster.len(), rounds) {
        let algo = roster[subject];
        let what = format!("{} {} round {round}", kind.name(), algo.name());
        let _armed = ctx.watchdog.arm(what.clone(), len);
        let [s0, s1, fill] = slice_seeds(ctx, kind.name(), subject, round);
        let recorder = (kind == Kind::Observed).then(|| Arc::new(AtomicRecorder::new()));
        let p = prepare(algo, recorder, fill);
        round_setup[round] += p.setup_s;
        let (tally, _) = run_slice(
            p.q.as_ref(),
            kind.shape(),
            [s0, s1],
            len,
            vec![NoProbe, NoProbe],
        );
        out.series[subject].push(tally.ops_per_s(), tally.call_ns());
        out.absorb(verify(p, &tally, &what));
    }
    out.setup_s = round_setup;
    out
}

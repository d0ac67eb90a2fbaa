//! The `sim_p256` workload: the paper's Figure-7 point on the simulated
//! ccNUMA machine, 256 processors × 16 priorities.
//!
//! Two ledgers come out of it and are kept apart: simulated counts
//! (cycles, transactions, rank error), which repeat exactly for a seed,
//! and host time (how fast the simulator itself runs).

use std::time::Instant;

use funnelpq::Algorithm;
use funnelpq_sim::{Acc, FaultPlan, Machine};
use funnelpq_simqueues::queues::{BuildParams, SimPq};
use funnelpq_simqueues::workload::{run_queue_workload, RunResult, Workload};
use funnelpq_simqueues::{run_chaos_workload, ChaosRun};

use crate::report::Sample;
use crate::stats::Summary;
use crate::{Ctx, E2eOut};

/// Simulated processors.
pub const PROCS: usize = 256;
/// Priority range.
pub const PRIORITIES: usize = 16;
/// The Figure-7 roster plus the relaxed MultiQueue.
pub const ROSTER: [Algorithm; 5] = [
    Algorithm::SimpleLinear,
    Algorithm::SimpleTree,
    Algorithm::LinearFunnels,
    Algorithm::FunnelTree,
    Algorithm::MultiQueue,
];
/// Roster passes on the run seed itself; they must agree in every count.
pub const SAME_SEED_REPS: usize = 3;

/// `Workload::standard(256, 16)` (64 ops per processor, Alewife-like
/// machine) under `seed`.
pub fn workload(seed: u64) -> Workload {
    let mut wl = Workload::standard(PROCS, PRIORITIES);
    wl.seed = seed;
    wl
}

/// Every count of one simulated run that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    all: Acc,
    insert: Acc,
    delete: Acc,
    total_cycles: u64,
    mem_accesses: u64,
    remote_accesses: u64,
    queue_delay_cycles: u64,
}

impl Counts {
    /// The exact counts of `r`.
    pub fn of(r: &RunResult) -> Self {
        Counts {
            all: r.all.clone(),
            insert: r.insert.clone(),
            delete: r.delete.clone(),
            total_cycles: r.total_cycles,
            mem_accesses: r.stats.mem_accesses,
            remote_accesses: r.stats.remote_accesses,
            queue_delay_cycles: r.stats.queue_delay_cycles,
        }
    }
}

/// One pass over the roster: results and host time per entry, in roster
/// order.
pub struct RosterPass {
    /// One result per roster entry.
    pub results: Vec<RunResult>,
    /// Host nanoseconds each entry's run took.
    pub host_ns: Vec<u64>,
}

impl RosterPass {
    /// Simulated memory transactions in the pass.
    pub fn tx(&self) -> u64 {
        self.results.iter().map(|r| r.stats.mem_accesses).sum()
    }

    /// Host nanoseconds of the whole pass.
    pub fn total_host_ns(&self) -> u64 {
        self.host_ns.iter().sum()
    }

    /// Simulated transactions per host second, per roster entry.
    pub fn tx_per_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.results
            .iter()
            .zip(&self.host_ns)
            .map(|(r, &ns)| r.stats.mem_accesses as f64 * 1e9 / ns as f64)
    }

    /// The exact counts, roster order.
    pub fn counts(&self) -> Vec<Counts> {
        self.results.iter().map(Counts::of).collect()
    }
}

/// Runs the roster once through `run`, timing each entry.
pub fn roster_pass(
    wl: &Workload,
    mut run: impl FnMut(Algorithm, &Workload) -> RunResult,
) -> RosterPass {
    let mut pass = RosterPass {
        results: Vec::with_capacity(ROSTER.len()),
        host_ns: Vec::with_capacity(ROSTER.len()),
    };
    for &algo in &ROSTER {
        let t0 = Instant::now();
        pass.results.push(run(algo, wl));
        pass.host_ns.push(t0.elapsed().as_nanos() as u64);
    }
    pass
}

/// Machine + queue construction for the whole roster, built and dropped:
/// the set-up a pass pays before its first simulated cycle.
pub fn build_roster_s(wl: &Workload) -> f64 {
    let t0 = Instant::now();
    for &algo in &ROSTER {
        let mut m = Machine::new(wl.machine, wl.seed);
        let mut params = BuildParams::new(wl.procs, wl.num_priorities);
        params.capacity = (wl.procs * wl.ops_per_proc).max(64) + 8;
        std::hint::black_box(SimPq::build(&mut m, algo, &params));
    }
    t0.elapsed().as_secs_f64()
}

/// MultiQueue through the fault-free chaos harness: the standard workload
/// plus a quiescent drain, with the whole history audited (conservation,
/// drain rank error).
pub fn audited_multiqueue(wl: &Workload) -> Result<ChaosRun, String> {
    run_chaos_workload(Algorithm::MultiQueue, wl, &FaultPlan::new(wl.seed), 0)
        .map_err(|e| e.to_string())
}

/// What the audited run contributes to the result.
pub struct Audit {
    /// Mean drain rank error.
    pub rank_error_mean: f64,
    /// p99 drain rank error (log₂ bucket upper edge).
    pub rank_error_p99: u64,
    /// Worst drain rank error.
    pub rank_error_max: u64,
    /// Drain deletes scored.
    pub samples: u64,
}

impl Audit {
    /// Extracts the rank-error summary of `run`.
    pub fn of(run: &ChaosRun) -> Self {
        let r = &run.report.rank_error;
        Audit {
            rank_error_mean: r.mean(),
            rank_error_p99: r.p99(),
            rank_error_max: r.max(),
            samples: r.count(),
        }
    }
}

/// The end-to-end pass: [`SAME_SEED_REPS`] passes on the run seed (checked
/// bit-identical), then passes on `seed+1, seed+2, …` for host-time volume
/// until the budget is spent. The audited MultiQueue run happens twice on
/// the run seed, outside the timed passes.
pub fn e2e(ctx: &Ctx<'_>) -> E2eOut {
    let name = crate::Workload::SimP256.name();
    let mut out = E2eOut::new(ROSTER.iter().map(|a| a.name()), Summary::GoodQuartile);
    let base = workload(ctx.seed);
    let ops_per_pass = (PROCS * base.ops_per_proc * ROSTER.len()) as u64;
    let started = Instant::now();
    let mut first: Option<Vec<Counts>> = None;
    let mut rep = 0usize;
    while rep < SAME_SEED_REPS || started.elapsed().as_secs_f64() < ctx.seconds {
        let extra = rep.saturating_sub(SAME_SEED_REPS - 1) as u64;
        let wl = workload(ctx.seed.wrapping_add(extra));
        let what = format!("{name} rep {rep} (seed +{extra})");
        let _armed = ctx
            .watchdog
            .arm(what.clone(), std::time::Duration::from_secs(4));
        out.setup_s.push(build_roster_s(&wl));
        let pass = roster_pass(&wl, run_queue_workload);
        for (series, rate) in out.series.iter_mut().zip(pass.tx_per_s()) {
            series.push(rate, 1e9 / rate);
        }
        out.attempted += ops_per_pass;
        for (algo, r) in ROSTER.iter().zip(&pass.results) {
            let done = r.all.count();
            let want = (PROCS * wl.ops_per_proc) as u64;
            if done != want {
                out.failed += done.abs_diff(want);
                out.violations
                    .push(format!("{what}: {algo} completed {done} of {want} ops"));
            }
        }
        if extra == 0 {
            let counts = pass.counts();
            match &first {
                None => {
                    let ft = &pass.results[3].all;
                    out.detail.push(Sample::new(
                        "sim_latency_cycles.FunnelTree",
                        ft.mean(),
                        "cycles",
                        ft.count() as usize,
                    ));
                    first = Some(counts);
                }
                Some(f) if *f != counts => {
                    out.failed += 1;
                    out.violations.push(format!(
                        "{what}: simulated counts differ from rep 0 on the same seed"
                    ));
                }
                Some(_) => {}
            }
            out.attempted += 1;
        }
        rep += 1;
    }

    // Audited MultiQueue, twice on the run seed: conservation and rank
    // error from the history audit, and the audit itself must repeat.
    let _armed = ctx.watchdog.arm(
        format!("{name} audited MultiQueue"),
        std::time::Duration::from_secs(4),
    );
    let audits: Vec<_> = (0..2).map(|_| audited_multiqueue(&base)).collect();
    out.attempted += 2;
    match (&audits[0], &audits[1]) {
        (Ok(a), Ok(b)) => {
            if a.report != b.report || Counts::of(&a.result) != Counts::of(&b.result) {
                out.failed += 1;
                out.violations
                    .push(format!("{name}: audited MultiQueue runs differ"));
            }
            let audit = Audit::of(a);
            out.detail.push(Sample::new(
                "sim_rank_error_mean.MultiQueue",
                audit.rank_error_mean,
                "count",
                audit.samples as usize,
            ));
            out.notes.push(format!(
                "{name}: audited MultiQueue drain: {} deletes, rank error mean {:.3} \
                 p99<={} max {}",
                audit.samples, audit.rank_error_mean, audit.rank_error_p99, audit.rank_error_max
            ));
        }
        (a, b) => {
            for e in [a, b].into_iter().filter_map(|r| r.as_ref().err()) {
                out.failed += 1;
                out.violations.push(format!("{name}: audit failed: {e}"));
            }
        }
    }
    out
}

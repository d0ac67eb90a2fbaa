//! `simchaos` — run the simulated priority-queue workload under a matrix
//! of fault plans and audit every run.
//!
//! For each selected algorithm × plan × seed the harness runs the paper's
//! §4 workload with the fault layer attached, then drains the queue and
//! checks the recorded operation history: element conservation, ordering,
//! structural invariants at quiescence, and the livelock watchdog. Under
//! the `none` plan the run is additionally compared against the fault-free
//! driver — the fault layer switched off must be bit-identical.
//!
//! Any failing run dumps its full operation history to
//! `<dump>/chaos-<algo>-<plan>-<seed>.log` for offline diagnosis, and the
//! process exits non-zero.
//!
//! Examples:
//!
//! ```text
//! cargo run --release --example simchaos
//! cargo run --release --example simchaos -- --plan crash --algo FunnelTree --seeds 5
//! cargo run --release --example simchaos -- --procs 64 --ops 48 --dump /tmp/chaos
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use funnelpq_sim::audit::OpRecord;
use funnelpq_sim::{FaultPlan, SpanPoint};
use funnelpq_simqueues::chaos::{chaos_build_params, run_chaos_workload, DEFAULT_WATCHDOG};
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::{run_queue_workload_with, Workload};

const USAGE: &str = "\
simchaos — fault-injection conformance sweep over the simulated priority queues

USAGE:
    cargo run --release --example simchaos -- [OPTIONS]

OPTIONS:
    --algo <NAME>    one algorithm (SingleLock, HuntEtAl, SkipList, SimpleLinear,
                     SimpleTree, LinearFunnels, FunnelTree, HardwareTree,
                     MultiQueue) or 'all' for the paper's seven plus the
                     relaxed MultiQueue                 [default: all]
    --plan <NAME>    fault plan: none, combiner-stall, lock-stall,
                     latency-spike, crash, or 'all'     [default: all]
    --procs <N>      simulated processors               [default: 16]
    --pris <N>       priority range 0..N                [default: 16]
    --ops <N>        queue accesses per processor       [default: 24]
    --seeds <N>      seeds per algorithm × plan cell    [default: 3]
    --seed <N>       base experiment seed               [default: 61453]
    --watchdog <N>   livelock watchdog window, cycles   [default: 50000000]
    --dump <DIR>     where failing histories are written [default: .]
    -h, --help       show this help
";

const PLAN_NAMES: [&str; 5] = [
    "none",
    "combiner-stall",
    "lock-stall",
    "latency-spike",
    "crash",
];

/// Default sweep roster: the paper's seven plus the relaxed MultiQueue
/// (audited with sortedness replaced by the rank-error distribution).
fn default_algos() -> Vec<Algorithm> {
    let mut algos = Algorithm::ALL.to_vec();
    algos.push(Algorithm::MultiQueue);
    algos
}

struct Args {
    algos: Vec<Algorithm>,
    plans: Vec<&'static str>,
    procs: usize,
    pris: usize,
    ops: usize,
    seeds: u64,
    seed: u64,
    watchdog: u64,
    dump: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        algos: default_algos(),
        plans: PLAN_NAMES.to_vec(),
        procs: 16,
        pris: 16,
        ops: 24,
        seeds: 3,
        seed: 61453,
        watchdog: DEFAULT_WATCHDOG,
        dump: ".".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Err(String::new());
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let parse = |what: &str, v: &str| -> Result<u64, String> {
            v.parse().map_err(|_| format!("bad {what}: {v:?}"))
        };
        match flag.as_str() {
            "--algo" if value == "all" => args.algos = default_algos(),
            "--algo" => args.algos = vec![value.parse()?],
            "--plan" if value == "all" => args.plans = PLAN_NAMES.to_vec(),
            "--plan" => {
                let name = PLAN_NAMES
                    .into_iter()
                    .find(|p| *p == value)
                    .ok_or_else(|| format!("unknown plan {value:?} (try {PLAN_NAMES:?})"))?;
                args.plans = vec![name];
            }
            "--procs" => args.procs = parse("--procs", &value)? as usize,
            "--pris" => args.pris = parse("--pris", &value)? as usize,
            "--ops" => args.ops = parse("--ops", &value)? as usize,
            "--seeds" => args.seeds = parse("--seeds", &value)?,
            "--seed" => args.seed = parse("--seed", &value)?,
            "--watchdog" => args.watchdog = parse("--watchdog", &value)?,
            "--dump" => args.dump = value,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if args.procs < 2 || args.pris == 0 || args.ops == 0 || args.seeds == 0 {
        return Err("--procs must be >= 2; --pris, --ops, --seeds must be positive".to_string());
    }
    Ok(args)
}

/// The same plan shapes the `chaos_conformance` tests sweep.
fn build_plan(name: &str, seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed ^ 0x5EED);
    match name {
        "none" => plan,
        "combiner-stall" => plan
            .stall_on_span("funnel-combine", SpanPoint::Begin, 1, 200_000)
            .stall_on_span("funnel-combine", SpanPoint::Begin, 7, 150_000),
        // The third rule reaches lock holders that never touch an MCS
        // lock (the MultiQueue's CAS try-locks, and the plain mutex
        // algorithms' critical sections).
        "lock-stall" => plan
            .stall_on_span("mcs-acquire", SpanPoint::End, 3, 200_000)
            .stall_on_span("mcs-acquire", SpanPoint::End, 11, 120_000)
            .stall_on_span("lock-hold", SpanPoint::Begin, 7, 150_000),
        "latency-spike" => plan
            .region_delay(0, 64, 0, 1_500_000, 40, 10)
            .jitter(0, 400_000, 16),
        "crash" => plan.crash(1, 3_000 + (seed % 5) * 1_000),
        other => unreachable!("unknown plan {other}"),
    }
}

fn dump_history(path: &str, header: &str, ops: &[OpRecord]) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = writeln!(out, "# {header}");
    let _ = writeln!(out, "# proc kind phase pri item start end completed empty");
    for op in ops {
        let _ = writeln!(
            out,
            "{} {:?} {:?} {} {} {} {} {} {}",
            op.proc, op.kind, op.phase, op.pri, op.item, op.start, op.end, op.completed, op.empty
        );
    }
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0usize;
    let mut runs = 0usize;
    for &algo in &args.algos {
        for plan_name in &args.plans {
            for s in 0..args.seeds {
                let seed = args.seed.wrapping_add(s.wrapping_mul(0x9E37_79B9));
                let mut wl = Workload::standard(args.procs, args.pris);
                wl.ops_per_proc = args.ops;
                wl.seed = seed;
                let plan = build_plan(plan_name, seed);
                runs += 1;
                match run_chaos_workload(algo, &wl, &plan, args.watchdog) {
                    Ok(run) => {
                        // With the fault layer attached but empty, the run
                        // must be bit-identical to the fault-free driver.
                        if *plan_name == "none" {
                            let base = run_queue_workload_with(algo, &wl, &chaos_build_params(&wl));
                            if run.result.total_cycles != base.total_cycles
                                || run.result.all != base.all
                                || run.result.stats.mem_accesses != base.stats.mem_accesses
                            {
                                failures += 1;
                                eprintln!(
                                    "FAIL {algo} {plan_name} seed {seed:#x}: fault layer off \
                                     is not bit-identical ({} vs {} cycles)",
                                    run.result.total_cycles, base.total_cycles
                                );
                                continue;
                            }
                        }
                        let f = &run.fault_summary;
                        let r = &run.report;
                        println!(
                            "ok   {algo:13} {plan_name:14} seed {seed:#010x}: {} cycles, \
                             {} ins / {} del / {} empty, drain rank error mean {:.3} / \
                             delay mean {:.3}, {} stalls, {} delayed, {} crashed{}",
                            run.result.total_cycles,
                            r.inserts,
                            r.deletes,
                            r.empty_deletes,
                            r.rank_error.mean(),
                            r.delay.mean(),
                            f.stalls,
                            f.events_delayed,
                            run.crashed.len(),
                            if run.wedged() {
                                ", wedged (tolerated)"
                            } else {
                                ""
                            },
                        );
                    }
                    Err(e) => {
                        failures += 1;
                        let path = format!("{}/chaos-{algo}-{plan_name}-{seed:#x}.log", args.dump);
                        eprintln!("FAIL {algo} {plan_name} seed {seed:#x}: {e}");
                        let header = format!("{algo} {plan_name} seed {seed:#x}: {e}");
                        match dump_history(&path, &header, e.history()) {
                            Ok(()) => eprintln!("     history dumped to {path}"),
                            Err(io) => eprintln!("     could not dump history: {io}"),
                        }
                    }
                }
            }
        }
    }

    println!(
        "{runs} runs, {failures} failures ({} algorithms × {} plans × {} seeds)",
        args.algos.len(),
        args.plans.len(),
        args.seeds,
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `pqsim` — the driver for every simulated priority-queue experiment: a
//! sweep of the paper's standard workload, the tables of its Figures 5–9
//! and of the ablations, one traced run, and the audited fault-injection
//! sweep. All runs are deterministic for a given seed.
//!
//! ```text
//! pqsim --algo all --procs 2,16,64,256 --priorities 16 --csv
//! pqsim --figure 7 --ops 16                 # Figure 7's table, quarter scale
//! pqsim --figure 7 --trace out              # ... plus out/TRACE_fig7.json
//! pqsim --trace out --algo SingleLock --procs 16
//! pqsim --chaos --plan crash --algo FunnelTree --seeds 5
//! ```

use std::fmt::Write as _;
use std::io::{self, Write};
use std::process::ExitCode;

use funnelpq_sim::audit::OpRecord;
use funnelpq_sim::trace::{chrome_trace_json, TimeSeries};
use funnelpq_sim::{FaultPlan, MachineConfig, SpanPoint};
use funnelpq_simqueues::chaos::{chaos_build_params, run_chaos_workload, DEFAULT_WATCHDOG};
use funnelpq_simqueues::funnel::{CounterMode, SimFunnelConfig};
use funnelpq_simqueues::queues::{Algorithm, BuildParams};
use funnelpq_simqueues::workload::{
    run_counter_workload, run_counter_workload_traced, run_queue_workload,
    run_queue_workload_traced, run_queue_workload_with, RunResult, TracedRun, Workload,
};

const USAGE: &str = "\
pqsim — simulated bounded-range priority queue experiments (Shavit & Zemach, PODC 1999)

USAGE:
    pqsim [OPTIONS]                      sweep the standard workload
    pqsim --figure <NAME> [--trace DIR]  print a figure's tables
    pqsim --trace <DIR>                  trace one run
    pqsim --chaos                        audited fault-injection sweep

OPTIONS [defaults: sweep; trace; chaos]:
    --algo <LIST>        algorithms, or 'all' (the paper's seven) / 'scalable'
                         (its Figure 7-9 four): SingleLock, HuntEtAl, SkipList,
                         SimpleLinear, SimpleTree, LinearFunnels, FunnelTree,
                         HardwareTree, MultiQueue, NumaPq — the last three are
                         not the paper's: a fetch-and-add ablation and the two
                         relaxed post-paper designs
                         [scalable; funneltree; all,multiqueue]
    --procs <LIST>       processor counts         [16,64,256; 64; 16]
    --priorities <LIST>  priority ranges          [16]
    --ops <N>            accesses per processor   [64; 32; 24]
    --seed <LIST>        experiment seeds         [61437; 61453; 61453]
    --local-work <N>     cycles of local work between ops     [50]
    --net <N>            one-way network latency, cycles      [10]
    --service <N>        cache-line service time, cycles      [4]
    --line-words <N>     words per cache line (power of 2)    [2]
    --naive-events       use the linear-scan reference event queue
                         (bit-identical results, slower wall-clock)
    -h, --help           show this help
SWEEP:
    --csv                machine-readable CSV output
    --hotspots           print the top contended memory regions per run
FIGURES:
    --figure <NAME>      one of 5, 6, 7, 8, 9, cutoff, memory, tuning. --ops
                         sets the scale (16 is a quarter); --procs,
                         --priorities, --algo and --seed replace the figure's
                         P axis, N axis, roster and seed where it has one
    --trace <DIR>        also write the exemplar run (figures 5-9) to
                         DIR/TRACE_fig<N>.json and DIR/TIMESERIES_fig<N>.json
TRACE (one algorithm, P, N and seed):
    --trace <DIR>        write DIR/trace.json (Chrome Trace Format; open in
                         https://ui.perfetto.dev) and DIR/timeseries.json
CHAOS (one P, N and seed):
    --chaos              run every algorithm x plan x seed, audited
    --plan <NAME>        none, combiner-stall, lock-stall, latency-spike,
                         crash, or 'all'                      [all]
    --seeds <N>          seeds per algorithm x plan cell      [3]
    --dump <DIR>         where failing histories are written  [.]
";

/// What one invocation does.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Sweep,
    Figure(&'static Figure),
    Trace,
    Chaos,
}

/// The parsed command line. The workload lists are `None` when not given,
/// so each mode falls back to its own defaults.
#[derive(Debug)]
struct Args {
    mode: Mode,
    algos: Option<Vec<Algorithm>>,
    procs: Option<Vec<usize>>,
    priorities: Option<Vec<usize>>,
    ops: Option<usize>,
    seeds: Option<Vec<u64>>,
    local_work: u64,
    machine: MachineConfig,
    naive_events: bool,
    csv: bool,
    hotspots: bool,
    /// A trace's directory, or where a figure writes its exemplar.
    trace: Option<String>,
    plans: Option<Vec<&'static str>>,
    chaos_seeds: Option<u64>,
    dump: Option<String>,
}

impl Args {
    /// The workload of one run; the flags that are not per-run fill the rest.
    fn workload(&self, procs: usize, num_priorities: usize, ops: usize, seed: u64) -> Workload {
        Workload {
            procs,
            num_priorities,
            ops_per_proc: ops,
            local_work: self.local_work,
            seed,
            machine: self.machine,
            naive_events: self.naive_events,
        }
    }
}

/// The one value of a list flag outside the sweep, or `default`.
fn one<T: Copy>(list: &Option<Vec<T>>, default: T) -> T {
    list.as_ref().map_or(default, |v| v[0])
}

fn count<T>(list: &Option<Vec<T>>) -> usize {
    list.as_ref().map_or(1, Vec::len)
}

fn parse_algo(name: &str) -> Result<Vec<Algorithm>, String> {
    match name {
        "all" => Ok(Algorithm::ALL.to_vec()),
        "scalable" => Ok(Algorithm::SCALABLE.to_vec()),
        // `FromStr` walks `Algorithm::EVERY`: every name the workspace knows.
        other => other.parse().map(|a| vec![a]),
    }
}

fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, String> {
    let parse = |part: &str| {
        part.trim()
            .parse()
            .map_err(|_| format!("invalid {what}: '{part}'"))
    };
    s.split(',').map(parse).collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Sweep,
        algos: None,
        procs: None,
        priorities: None,
        ops: None,
        seeds: None,
        local_work: 50,
        machine: MachineConfig::alewife_like(),
        naive_events: false,
        csv: false,
        hotspots: false,
        trace: None,
        plans: None,
        chaos_seeds: None,
        dump: None,
    };
    let (mut figure, mut chaos) = (None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--algo" => {
                let algos: Result<Vec<_>, _> =
                    value()?.split(',').map(str::trim).map(parse_algo).collect();
                args.algos = Some(algos?.concat());
            }
            "--procs" => args.procs = Some(parse_list(value()?, "processor count")?),
            "--priorities" => args.priorities = Some(parse_list(value()?, "priority range")?),
            "--ops" => args.ops = Some(parse_list(value()?, "ops")?[0]),
            "--local-work" => args.local_work = parse_list(value()?, "local work")?[0],
            "--seed" => args.seeds = Some(parse_list(value()?, "seed")?),
            "--net" => args.machine.net_latency = parse_list(value()?, "net latency")?[0],
            "--service" => args.machine.service = parse_list(value()?, "service")?[0],
            "--line-words" => args.machine.line_words = parse_list(value()?, "line words")?[0],
            "--naive-events" => args.naive_events = true,
            "--csv" => args.csv = true,
            "--hotspots" => args.hotspots = true,
            "--figure" => {
                let name = value()?;
                let fig = FIGURES.iter().find(|f| f.name == name);
                figure = Some(fig.ok_or(format!("unknown figure '{name}'"))?);
            }
            "--trace" => args.trace = Some(value()?.clone()),
            "--chaos" => chaos = true,
            "--plan" => {
                let name = value()?.as_str();
                let plans: Vec<_> = PLAN_NAMES
                    .into_iter()
                    .filter(|&p| name == "all" || name == p)
                    .collect();
                if plans.is_empty() {
                    return Err(format!("unknown plan '{name}' (try {PLAN_NAMES:?})"));
                }
                args.plans = Some(plans);
            }
            "--seeds" => args.chaos_seeds = Some(parse_list(value()?, "seeds")?[0]),
            "--dump" => args.dump = Some(value()?.clone()),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    args.mode = match (figure, &args.trace, chaos) {
        (None, None, false) => Mode::Sweep,
        (Some(fig), _, false) => Mode::Figure(fig),
        (None, Some(_), false) => Mode::Trace,
        (None, None, true) => Mode::Chaos,
        _ => return Err("--chaos runs alone: not with --figure or --trace".into()),
    };
    check(&args).map(|()| args)
}

/// The checks no single flag can make: values in range, and each flag in a
/// mode that reads it.
fn check(args: &Args) -> Result<(), String> {
    let sweep = matches!(args.mode, Mode::Sweep);
    let chaos = matches!(args.mode, Mode::Chaos);
    let one_run = chaos || matches!(args.mode, Mode::Trace);
    let zero = |v: &Option<Vec<usize>>| v.iter().flatten().any(|&x| x == 0);
    if !args.machine.line_words.is_power_of_two() {
        return Err("--line-words must be a power of two".into());
    }
    if args.ops == Some(0) || zero(&args.procs) || zero(&args.priorities) {
        return Err("--ops, --procs and --priorities must be positive".into());
    }
    if !sweep && (args.csv || args.hotspots) {
        return Err("--csv and --hotspots belong to the plain sweep".into());
    }
    if !chaos && (args.plans.is_some() || args.chaos_seeds.is_some() || args.dump.is_some()) {
        return Err("--plan, --seeds and --dump belong to --chaos".into());
    }
    if chaos && (args.chaos_seeds == Some(0) || one(&args.procs, 16) < 2) {
        return Err("--chaos needs --seeds >= 1 and --procs >= 2".into());
    }
    if let (Mode::Figure(fig), Some(_)) = (args.mode, &args.trace) {
        if fig.exemplar.is_none() {
            return Err(format!("figure {} has no exemplar to trace", fig.name));
        }
    }
    // Every mode but the sweep runs one seed; a trace one algorithm, and a
    // trace or a chaos cell one machine size.
    let single = [
        ("--seed", !sweep, count(&args.seeds)),
        ("--procs", one_run, count(&args.procs)),
        ("--priorities", one_run, count(&args.priorities)),
        ("--algo", one_run && !chaos, count(&args.algos)),
    ];
    match single.iter().find(|(_, single, n)| *single && *n > 1) {
        Some((flag, ..)) => Err(format!("{flag} takes one value here")),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let done = match args.mode {
        Mode::Sweep => sweep(&args, &mut io::stdout()),
        Mode::Figure(fig) => figure(&args, fig),
        Mode::Trace => trace_one(&args),
        Mode::Chaos => return chaos(&args),
    };
    if let Err(e) = done {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// The plain sweep.

const CSV_HEAD: &str = "algo,procs,priorities,ops_per_proc,seed,mean_cycles,insert_mean,\
                        delete_mean,total_cycles,mem_accesses,mean_queue_delay";
const TABLE_HEAD: &str = "          algo  procs   pris    mean(cyc)       insert       delete   \
                          total cycles      mem ops";

/// Every algorithm × processor count × priority range × seed, one row each.
fn sweep(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{}", if args.csv { CSV_HEAD } else { TABLE_HEAD })?;
    let ops = args.ops.unwrap_or(64);
    let procs = args.procs.as_deref().unwrap_or(&[16, 64, 256]);
    let pris = args.priorities.as_deref().unwrap_or(&[16]);
    for &algo in args.algos.as_deref().unwrap_or(&Algorithm::SCALABLE) {
        for (&p, &n) in procs.iter().flat_map(|p| pris.iter().map(move |n| (p, n))) {
            for &seed in args.seeds.as_deref().unwrap_or(&[61437]) {
                let r = run_queue_workload(algo, &args.workload(p, n, ops, seed));
                let (all, ins, del) = (r.all.mean(), r.insert.mean(), r.delete.mean());
                let (name, cycles, mem) = (algo.name(), r.total_cycles, r.stats.mem_accesses);
                if args.csv {
                    let delay = r.stats.mean_queue_delay();
                    write!(
                        out,
                        "{name},{p},{n},{ops},{seed},{all:.1},{ins:.1},{del:.1},"
                    )?;
                    writeln!(out, "{cycles},{mem},{delay:.2}")?;
                } else {
                    write!(out, "{name:>14} {p:>6} {n:>6} {all:>12.0} {ins:>12.0} ")?;
                    writeln!(out, "{del:>12.0} {cycles:>14} {mem:>12}")?;
                }
                if args.hotspots {
                    print_hotspots(&r, out)?;
                }
            }
        }
    }
    Ok(())
}

/// `--hotspots`: the labelled regions that queued, by share of the delay.
fn print_hotspots(r: &RunResult, out: &mut dyn Write) -> io::Result<()> {
    let total = r.stats.queue_delay_cycles.max(1) as f64;
    for h in r.hotspots.iter().filter(|h| h.queue_delay_cycles > 0) {
        let share = 100.0 * h.queue_delay_cycles as f64 / total;
        let hot = format!("{:<28} {share:>6.1}% of queueing delay", h.label);
        writeln!(out, "    hot: {hot} ({} accesses)", h.accesses)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Figures.

/// What each roster entry contributes to a grid row.
#[derive(Debug)]
enum Cells {
    /// Mean latency, whole cycles.
    Mean,
    /// Insert, delete and overall means, then p50 / p99 over all accesses
    /// (log2-histogram upper bounds), in thousands of cycles: the paper's
    /// Figure-8 table plus the tail.
    Split,
}

impl Cells {
    /// The header of `algo`'s columns.
    fn heads(&self, algo: Algorithm) -> Vec<String> {
        let suffixes: &[&str] = match self {
            Cells::Mean => &[""],
            Cells::Split => &[" Ins.", " Del.", " All", " p50", " p99"],
        };
        suffixes.iter().map(|s| format!("{algo}{s}")).collect()
    }

    /// Runs `algo` on `wl`; its cells.
    fn of(&self, algo: Algorithm, wl: &Workload) -> Vec<String> {
        let r = run_queue_workload(algo, wl);
        let (p50, p99) = (r.all.p50() as f64, r.all.p99() as f64);
        match self {
            Cells::Mean => vec![lat(r.all.mean())],
            Cells::Split => [r.insert.mean(), r.delete.mean(), r.all.mean(), p50, p99]
                .map(|v| format!("{:.1}", v / 1000.0))
                .to_vec(),
        }
    }
}

/// One table of a figure: every algorithm of `roster` at every (P, N)
/// point, P outer.
#[derive(Debug)]
struct Grid {
    /// `{P}` and `{N}` stand for the axes ("2..256", "16").
    title: &'static str,
    roster: &'static [Algorithm],
    procs: &'static [usize],
    priorities: &'static [usize],
    cells: Cells,
    /// The memory system, when not the one the flags build.
    machine: Option<MachineConfig>,
}

/// How a figure makes its tables: grids of queue runs, or a function for
/// the figures whose runs are not a grid.
#[derive(Debug)]
enum Body {
    Grids(&'static [Grid]),
    Run(fn(&Args, usize, u64) -> String),
}

/// The run `--trace` records beside a figure's tables, on its workload.
#[derive(Debug)]
enum Exemplar {
    /// An algorithm at (P, N).
    Queue(Algorithm, usize, usize),
    /// Figure 5's bounded counter at P, balanced mix.
    Counter(usize),
}

/// One `--figure`.
#[derive(Debug)]
struct Figure {
    name: &'static str,
    seed: u64,
    body: Body,
    exemplar: Option<Exemplar>,
}

/// The seed of `Workload::standard`, which most figures run.
const STANDARD_SEED: u64 = 0xF00D;
const SCALABLE: &[Algorithm] = &Algorithm::SCALABLE;
const FIG5_PROCS: &[usize] = &[4, 8, 16, 32, 64, 128, 256];
const FIG7_PROCS: &[usize] = &[2, 4, 8, 16, 32, 64, 128, 256];

const fn grid(title: &'static str, roster: &'static [Algorithm], procs: &'static [usize]) -> Grid {
    let (priorities, cells, machine) = (&[16], Cells::Mean, None);
    Grid {
        title,
        roster,
        procs,
        priorities,
        cells,
        machine,
    }
}

const FIG9: &str = "Figure 9 — mean access latency (cycles) vs. priorities, {P} processors";
const fn fig9(roster: &'static [Algorithm], procs: &'static [usize]) -> Grid {
    Grid {
        priorities: &[2, 4, 8, 16, 32, 64, 128, 256, 512],
        ..grid(FIG9, roster, procs)
    }
}

const fn memory(title: &'static str, net_latency: u64, service: u64) -> Grid {
    let (line_words, nodes, remote_ratio) = (2, 1, 1);
    let machine = Some(MachineConfig {
        net_latency,
        service,
        line_words,
        nodes,
        remote_ratio,
    });
    Grid {
        machine,
        ..grid(title, SCALABLE, &[8, 64, 256])
    }
}

/// Every `--figure`, in `--help` order. Expected shapes (paper §4): Fig 5,
/// elimination makes the bounded counter up to ~2.5x cheaper at a 50/50
/// mix, fetch-and-add wins at skewed mixes; Fig 6, SingleLock and HuntEtAl
/// rise steeply, SimpleLinear leads, LinearFunnels ~2–3x it, the trees
/// ~40–50% above it; Fig 7, SimpleLinear fastest until ~32 P, FunnelTree
/// from ~64 P, at 256 ~8x SimpleTree and ~3x SimpleLinear; Fig 8, tree
/// inserts cheaper than deletes; Fig 9, SimpleLinear "U"-shaped at 64 P,
/// FunnelTree sub-logarithmic in N, SimpleTree off the graph at 256 P.
/// `cutoff`: §3.2's funnel-level cutoff and hardware fetch-and-add;
/// `memory`: the orderings under other machine constants; `tuning`: the
/// preliminary run that chose the funnel parameters.
#[rustfmt::skip]
const FIGURES: &[Figure] = &[
    Figure { name: "5", seed: 0xF165, body: Body::Run(fig5), exemplar: Some(Exemplar::Counter(64)) },
    Figure {
        name: "6",
        seed: STANDARD_SEED,
        body: Body::Grids(&[grid(
            "Figure 6 — mean access latency (cycles), {N} priorities, low concurrency",
            &Algorithm::ALL,
            &[2, 4, 6, 8, 10, 12, 14, 16],
        )]),
        exemplar: Some(Exemplar::Queue(Algorithm::SingleLock, 16, 16)),
    },
    Figure {
        name: "7",
        seed: STANDARD_SEED,
        body: Body::Grids(&[grid(
            "Figure 7 — mean access latency (cycles), {N} priorities, {P} processors",
            SCALABLE,
            FIG7_PROCS,
        )]),
        exemplar: Some(Exemplar::Queue(Algorithm::FunnelTree, 64, 16)),
    },
    Figure {
        name: "8",
        seed: STANDARD_SEED,
        body: Body::Grids(&[Grid {
            title: "Figure 8 — insert / delete-min latency (thousands of cycles; p50/p99 are histogram upper bounds)",
            priorities: &[16, 128],
            cells: Cells::Split,
            ..grid("", SCALABLE, &[16, 64, 256])
        }]),
        exemplar: Some(Exemplar::Queue(Algorithm::FunnelTree, 256, 128)),
    },
    Figure {
        name: "9",
        seed: STANDARD_SEED,
        body: Body::Grids(&[
            fig9(SCALABLE, &[64]),
            fig9(&[Algorithm::SimpleLinear, Algorithm::LinearFunnels, Algorithm::FunnelTree], &[256]),
        ]),
        exemplar: Some(Exemplar::Queue(Algorithm::FunnelTree, 64, 256)),
    },
    Figure { name: "cutoff", seed: STANDARD_SEED, body: Body::Run(cutoff), exemplar: None },
    Figure {
        name: "memory",
        seed: 0xAB1A,
        body: Body::Grids(&[
            memory("Memory-model sensitivity — alewife-like (net=10, svc=4)", 10, 4),
            memory("Memory-model sensitivity — fast net (net=4, svc=2)", 4, 2),
            memory("Memory-model sensitivity — slow service (net=10, svc=12)", 10, 12),
        ]),
        exemplar: None,
    },
    Figure { name: "tuning", seed: STANDARD_SEED, body: Body::Run(tuning), exemplar: None },
];

/// Prints the figure's tables, then writes its exemplar trace if asked.
fn figure(args: &Args, fig: &Figure) -> io::Result<()> {
    let (ops, seed) = (args.ops.unwrap_or(64), one(&args.seeds, fig.seed));
    match fig.body {
        Body::Grids(grids) => grids
            .iter()
            .for_each(|g| print!("{}", grid_table(args, g, ops, seed))),
        Body::Run(run) => print!("{}", run(args, ops, seed)),
    }
    let (Some(dir), Some(exemplar)) = (&args.trace, &fig.exemplar) else {
        return Ok(());
    };
    let traced = match *exemplar {
        Exemplar::Queue(algo, p, n) => {
            run_queue_workload_traced(algo, &args.workload(p, n, ops, seed))
        }
        Exemplar::Counter(p) => {
            let (mode, wl) = (CounterMode::BOUNDED_AT_ZERO, args.workload(p, 1, ops, seed));
            run_counter_workload_traced(mode, 50, hot_counter_cfg(p), &wl)
        }
    };
    let paths = ["TRACE", "TIMESERIES"].map(|kind| format!("{dir}/{kind}_fig{}.json", fig.name));
    write_trace(&traced, &paths)?;
    println!("wrote {} and {}", paths[0], paths[1]);
    Ok(())
}

/// Runs one grid into its table; `--procs`, `--priorities` and `--algo`
/// replace its axes and roster. Rows are labelled by the axes with more
/// than one value, by P when neither has.
fn grid_table(args: &Args, g: &Grid, ops: usize, seed: u64) -> String {
    let ps = args.procs.as_deref().unwrap_or(g.procs);
    let ns = args.priorities.as_deref().unwrap_or(g.priorities);
    let roster = args.algos.as_deref().unwrap_or(g.roster);
    let (by_p, by_n) = (ps.len() > 1 || ns.len() == 1, ns.len() > 1);
    let label = |p: String, n: String| by_p.then_some(p).into_iter().chain(by_n.then_some(n));
    let heads = roster.iter().flat_map(|&a| g.cells.heads(a));
    let header: Vec<String> = label("P".into(), "N".into()).chain(heads).collect();
    let row = |(p, n): (usize, usize)| -> Vec<String> {
        let mut wl = args.workload(p, n, ops, seed);
        wl.machine = g.machine.unwrap_or(wl.machine);
        let cells = roster.iter().flat_map(|&a| g.cells.of(a, &wl));
        label(p.to_string(), n.to_string()).chain(cells).collect()
    };
    let axis = |v: &[usize]| match v {
        [one] => one.to_string(),
        _ => format!("{}..{}", v[0], v[v.len() - 1]),
    };
    let title = g.title.replace("{P}", &axis(ps));
    let title = title.replace("{N}", &axis(ns));
    let points = ps.iter().flat_map(|&p| ns.iter().map(move |&n| (p, n)));
    table(&title, &header, points.map(row))
}

/// Figure 5: latency against processors at an equal inc/dec mix, then at
/// 256 processors against the decrement share.
fn fig5(args: &Args, ops: usize, seed: u64) -> String {
    let run = |p: usize, pct: u32| {
        let (wl, cfg) = (args.workload(p, 1, ops, seed), hot_counter_cfg(p));
        let faa = run_counter_workload(CounterMode::FetchAdd, pct, cfg.clone(), &wl);
        let bfad = run_counter_workload(CounterMode::BOUNDED_AT_ZERO, pct, cfg, &wl);
        (faa.all.mean(), bfad.all.mean())
    };
    let left = |&p: &usize| {
        let (faa, bfad) = run(p, 50);
        let ratio = format!("{:.2}", faa / bfad);
        vec![p.to_string(), lat(faa), lat(bfad), ratio]
    };
    let right = |pct: u32| {
        let (faa, bfad) = run(256, pct);
        vec![format!("{pct}%"), lat(faa), lat(bfad)]
    };
    let procs = args.procs.as_deref().unwrap_or(FIG5_PROCS);
    table(
        "Figure 5 (left) — counter latency (cycles), 50% decrements",
        &["P", "Fetch-and-add", "BFaD+elimination", "FaA/BFaD"],
        procs.iter().map(left),
    ) + &table(
        "Figure 5 (right) — counter latency (cycles) vs. decrement share, 256 processors",
        &["dec%", "Fetch-and-add", "BFaD+elimination"],
        (0..=100).step_by(10).map(right),
    )
}

/// Funnel parameters for a *dedicated* counter taking every processor's
/// traffic. The queues use the compromise `SimFunnelConfig::for_procs`
/// (their many funnels each see a fraction of the load); one shared counter
/// combines best with deeper layers and longer capture waits.
fn hot_counter_cfg(procs: usize) -> SimFunnelConfig {
    let levels = if procs <= 4 { 1 } else { 3 };
    SimFunnelConfig {
        widths: (0..levels).map(|d| (procs >> (d + 1)).max(1)).collect(),
        attempts: 3,
        spin_checks: (0..levels).map(|d| 8 + 4 * d as u32).collect(),
        adaption: true,
    }
}

/// The build parameters `run_queue_workload` uses for `wl`.
fn params(wl: &Workload) -> BuildParams {
    let mut params = BuildParams::new(wl.procs, wl.num_priorities);
    params.capacity = (wl.procs * wl.ops_per_proc).max(64) + 8;
    params
}

/// §3.2's claim: funnels at *every* tree level, instead of the four-level
/// cutoff with locked counters below, cost about 5% at high concurrency.
/// Then what hardware fetch-and-add would buy, outside the paper's
/// swap/CAS machine model.
fn cutoff(args: &Args, ops: usize, seed: u64) -> String {
    let procs = args.procs.as_deref().unwrap_or(&[16, 64, 256]);
    let rows = |pris: usize, cells: &dyn Fn(&Workload) -> [f64; 3]| {
        let row = |&p: &usize| -> Vec<String> {
            let wl = args.workload(p, pris, ops, seed);
            std::iter::once(p.to_string())
                .chain(cells(&wl).map(lat))
                .collect()
        };
        procs.iter().map(row).collect::<Vec<_>>()
    };
    let levels = |wl: &Workload| {
        [4, usize::MAX, 0].map(|funnel_levels| {
            let params = BuildParams {
                funnel_levels,
                ..params(wl)
            };
            run_queue_workload_with(Algorithm::FunnelTree, wl, &params)
                .all
                .mean()
        })
    };
    let counters = |wl: &Workload| {
        let algos = [
            Algorithm::SimpleTree,
            Algorithm::HardwareTree,
            Algorithm::FunnelTree,
        ];
        algos.map(|algo| run_queue_workload(algo, wl).all.mean())
    };
    table(
        "FunnelTree ablation — funnel-level cutoff (mean latency, cycles; 128 priorities)",
        &[
            "P",
            "cutoff-4 (paper)",
            "funnels everywhere",
            "locked counters only",
        ],
        rows(128, &levels), // a deep tree: 7 levels
    ) + &table(
        "Counter-implementation ablation — tree queue, 16 priorities",
        &[
            "P",
            "MCS-locked (SimpleTree)",
            "hardware F&A",
            "funnels (FunnelTree)",
        ],
        rows(16, &counters),
    )
}

/// The paper's preliminary tuning run: "a set of preliminary benchmarks
/// using 256 processors and a queue of two priorities to find the set of
/// funnel parameters (layer width, depth of funnel, delay times, etc.)
/// which minimized latency". Each candidate is scored on four scenarios so
/// the one global set (used for every funnel, as in the paper) is not
/// fitted to one workload.
fn tuning(args: &Args, ops: usize, seed: u64) -> String {
    let cfg = |widths: &[usize], attempts, spins: &[u32], adaption| SimFunnelConfig {
        widths: widths.to_vec(),
        attempts,
        spin_checks: spins.to_vec(),
        adaption,
    };
    #[rustfmt::skip]
    let candidates = [
        ("1 layer, w=P/2", cfg(&[128], 2, &[3], true)),
        ("for_procs(256) (current default)", SimFunnelConfig::for_procs(256)),
        ("3 layers, medium spins", cfg(&[128, 32, 8], 2, &[4, 6, 8], true)),
        ("3 layers, medium spins, attempts 3", cfg(&[128, 32, 8], 3, &[4, 6, 8], true)),
        ("3 layers, short spins, attempts 3", cfg(&[128, 32, 8], 3, &[2, 3, 4], true)),
        ("2 layers, w=P/4,P/16", cfg(&[64, 16], 2, &[3, 5], true)),
        ("3 layers, w=P/2,P/8,P/32", cfg(&[128, 32, 8], 2, &[3, 5, 7], true)),
        ("2 layers, long spins", cfg(&[128, 32], 3, &[8, 12], true)),
        ("2 layers, no adaption", cfg(&[128, 32], 2, &[3, 5], false)),
        ("3 layers, long spins", cfg(&[128, 32, 8], 3, &[8, 12, 16], true)),
        ("4 layers, long spins", cfg(&[128, 64, 16, 4], 3, &[8, 10, 12, 16], true)),
        ("2 layers, very long spins", cfg(&[128, 32], 3, &[16, 24], true)),
        ("5 layers, long spins", cfg(&[128, 64, 32, 8, 4], 3, &[8, 10, 12, 14, 16], true)),
    ];
    let scenarios = [
        ("LF 256p/2n", Algorithm::LinearFunnels, 256, 2),
        ("FT 256p/2n", Algorithm::FunnelTree, 256, 2),
        ("FT 256p/16n", Algorithm::FunnelTree, 256, 16),
        ("FT 16p/16n", Algorithm::FunnelTree, 16, 16),
    ];
    // A candidate runs each scenario's algorithm on its funnels; the two
    // non-funnel references run their own algorithm with the defaults.
    let row =
        |label: &str, fixed: Option<Algorithm>, funnel: Option<&SimFunnelConfig>| -> Vec<String> {
            let cell = |&(_, algo, p, n): &(&str, Algorithm, usize, usize)| {
                let wl = args.workload(p, n, ops, seed);
                let mut params = params(&wl);
                params.funnel = funnel.cloned().unwrap_or(params.funnel);
                let r = run_queue_workload_with(fixed.unwrap_or(algo), &wl, &params);
                lat(r.all.mean())
            };
            std::iter::once(label.to_string())
                .chain(scenarios.iter().map(cell))
                .collect()
        };
    let references = [Algorithm::SimpleLinear, Algorithm::SimpleTree]
        .map(|a| row(&format!("(ref) {a}"), Some(a), None));
    let rows = candidates
        .iter()
        .map(|(label, cfg)| row(label, None, Some(cfg)));
    let header = [&["configuration"][..], &scenarios.map(|s| s.0)].concat();
    let title = "Funnel parameter tuning — mean latency (cycles) per scenario";
    table(title, &header, rows.chain(references))
}

/// Formats a mean-latency cell.
fn lat(v: f64) -> String {
    format!("{v:.0}")
}

/// A Markdown table under a `##` title, each cell right-aligned to its
/// column's widest.
fn table(
    title: &str,
    header: &[impl AsRef<str>],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> String {
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    let header: Vec<&str> = header.iter().map(AsRef::as_ref).collect();
    let widest = |i: usize| rows.iter().filter_map(|r| r.get(i)).map(String::len).max();
    let widths: Vec<usize> = (0..header.len())
        .map(|i| widest(i).unwrap_or(0).max(header[i].len()))
        .collect();
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
    let mut out = format!("\n## {title}\n\n{}|{}|\n", line(header), rule.join("|"));
    for r in &rows {
        out += &line(r.iter().map(String::as_str).collect());
    }
    out + "\n"
}

// ---------------------------------------------------------------------------
// Traces.

/// Writes a traced run's Chrome Trace Format file (16 hot-line rows) and
/// its time series to `paths`, windowed at about 1% of the run and never
/// finer than 256 cycles; returns the window.
fn write_trace(traced: &TracedRun, paths: &[String; 2]) -> io::Result<u64> {
    if let Some(dir) = std::path::Path::new(&paths[0]).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let window = (traced.result.total_cycles / 100).max(256);
    let series = TimeSeries::build(&traced.events, &traced.regions, window);
    let chrome = chrome_trace_json(&traced.events, &traced.regions, 16, Some(&series));
    std::fs::write(&paths[0], chrome)?;
    std::fs::write(&paths[1], series.to_json())?;
    Ok(window)
}

/// `--trace DIR`: one run with the tracer attached (bit-identical to the
/// untraced run), its summary, and both artifacts.
fn trace_one(args: &Args) -> io::Result<()> {
    let algo = one(&args.algos, Algorithm::FunnelTree);
    let (p, n) = (one(&args.procs, 64), one(&args.priorities, 16));
    let wl = args.workload(
        p,
        n,
        args.ops.unwrap_or(32),
        one(&args.seeds, STANDARD_SEED),
    );
    let traced = run_queue_workload_traced(algo, &wl);
    let dir = args.trace.as_deref().unwrap_or(".");
    let paths = [
        format!("{dir}/trace.json"),
        format!("{dir}/timeseries.json"),
    ];
    let window = write_trace(&traced, &paths)?;
    let (r, events) = (&traced.result, traced.events.len());
    let (count, cycles, mean) = (r.all.count(), r.total_cycles, r.all.mean());
    println!("{algo} at P={p} N={n}: {count} accesses, {cycles} cycles, {events} trace events");
    println!(
        "mean latency {mean:.0} cycles (p50 ≤ {}, p99 ≤ {})",
        r.all.p50(),
        r.all.p99()
    );
    println!("hot regions (by queueing delay):");
    for h in r.hotspots.iter().take(5) {
        let (label, delay, accesses) = (&h.label, h.queue_delay_cycles, h.accesses);
        println!("  {label:24} {delay:>10} delay cycles over {accesses:>7} accesses");
    }
    println!("wrote {} (load in https://ui.perfetto.dev)", paths[0]);
    println!("wrote {} (window = {window} cycles)", paths[1]);
    Ok(())
}

// ---------------------------------------------------------------------------
// Chaos.

#[rustfmt::skip]
const PLAN_NAMES: [&str; 5] = ["none", "combiner-stall", "lock-stall", "latency-spike", "crash"];

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

fn dump_history(path: &str, header: &str, ops: &[OpRecord]) -> io::Result<()> {
    let mut out = format!("# {header}\n# proc kind phase pri item start end completed empty\n");
    for op in ops {
        let (kind, phase, pri, item) = (&op.kind, &op.phase, op.pri, op.item);
        let _ = write!(out, "{} {kind:?} {phase:?} {pri} {item} ", op.proc);
        let _ = writeln!(out, "{} {} {} {}", op.start, op.end, op.completed, op.empty);
    }
    std::fs::write(path, out)
}

/// `--chaos`: the §4 workload under each fault plan with the fault layer
/// attached, then drained and audited (conservation, ordering, structure at
/// quiescence, the livelock watchdog). A failing run's history goes to
/// `<dump>/chaos-<algo>-<plan>-<seed>.log`, and the exit status is
/// non-zero.
fn chaos(args: &Args) -> ExitCode {
    // The paper's seven plus the relaxed MultiQueue (audited with
    // sortedness replaced by the rank-error distribution).
    let every = [&Algorithm::ALL[..], &[Algorithm::MultiQueue]].concat();
    let algos = args.algos.as_deref().unwrap_or(&every);
    let plans = args.plans.as_deref().unwrap_or(&PLAN_NAMES);
    let seeds = args.chaos_seeds.unwrap_or(3);
    let (mut failures, mut runs) = (0usize, 0usize);
    for &algo in algos {
        for &plan in plans {
            for s in 0..seeds {
                let seed =
                    one(&args.seeds, STANDARD_SEED).wrapping_add(s.wrapping_mul(0x9E37_79B9));
                runs += 1;
                failures += usize::from(!chaos_run(args, algo, plan, seed));
            }
        }
    }
    let (a, pl) = (algos.len(), plans.len());
    println!("{runs} runs, {failures} failures ({a} algorithms × {pl} plans × {seeds} seeds)");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One audited chaos run; prints its line and returns whether it passed.
/// Under the `none` plan the run must also be bit-identical to the
/// fault-free driver.
fn chaos_run(args: &Args, algo: Algorithm, plan: &str, seed: u64) -> bool {
    let (p, n) = (one(&args.procs, 16), one(&args.priorities, 16));
    let wl = args.workload(p, n, args.ops.unwrap_or(24), seed);
    let run = match run_chaos_workload(algo, &wl, &build_plan(plan, seed), DEFAULT_WATCHDOG) {
        Ok(run) => run,
        Err(e) => {
            let (dump, what) = (
                args.dump.as_deref().unwrap_or("."),
                format!("{algo} {plan} seed {seed:#x}: {e}"),
            );
            let path = format!("{dump}/chaos-{algo}-{plan}-{seed:#x}.log");
            eprintln!("FAIL {what}");
            match dump_history(&path, &what, e.history()) {
                Ok(()) => eprintln!("     history dumped to {path}"),
                Err(io) => eprintln!("     could not dump history: {io}"),
            }
            return false;
        }
    };
    let (got, cycles) = (&run.result, run.result.total_cycles);
    if plan == "none" {
        let base = run_queue_workload_with(algo, &wl, &chaos_build_params(&wl));
        let want = base.total_cycles;
        if (cycles, &got.all, got.stats.mem_accesses) != (want, &base.all, base.stats.mem_accesses)
        {
            let what = "fault layer off is not bit-identical";
            eprintln!("FAIL {algo} {plan} seed {seed:#x}: {what} ({cycles} vs {want} cycles)");
            return false;
        }
    }
    let (f, r) = (&run.fault_summary, &run.report);
    let (ins, del, empty) = (r.inserts, r.deletes, r.empty_deletes);
    let (rank, delay) = (r.rank_error.mean(), r.delay.mean());
    let (stalls, delayed, crashed) = (f.stalls, f.events_delayed, run.crashed.len());
    let wedged = if run.wedged() {
        ", wedged (tolerated)"
    } else {
        ""
    };
    println!(
        "ok   {algo:13} {plan:14} seed {seed:#010x}: {cycles} cycles, {ins} ins / {del} del / \
         {empty} empty, drain rank error mean {rank:.3} / delay mean {delay:.3}, \
         {stalls} stalls, {delayed} delayed, {crashed} crashed{wedged}"
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn every_algorithm_name_round_trips_through_parse_algo() {
        for a in Algorithm::EVERY {
            assert_eq!(parse_algo(a.name()), Ok(vec![a]));
            assert_eq!(parse_algo(&a.name().to_lowercase()), Ok(vec![a]));
            assert!(USAGE.contains(a.name()), "--help omits {a}");
        }
        assert_eq!(parse_algo("all"), Ok(Algorithm::ALL.to_vec()));
        assert_eq!(parse_algo("scalable"), Ok(Algorithm::SCALABLE.to_vec()));
        assert!(parse_algo("nope").is_err());
    }

    #[test]
    fn every_figure_parses_and_help_lists_it() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert!(
            USAGE.contains(&format!("one of {}.", names.join(", "))),
            "--help must list the figures {names:?}"
        );
        for name in names {
            match parse(&format!("--figure {name}")).map(|a| a.mode) {
                Ok(Mode::Figure(fig)) => assert_eq!(fig.name, name),
                other => panic!("--figure {name} parsed as {other:?}"),
            }
        }
        assert!(parse("--figure 10")
            .unwrap_err()
            .contains("unknown figure '10'"));
        assert!(parse("--figure").is_err());
    }

    #[test]
    fn modes_do_not_mix() {
        for line in [
            "--figure 6 --chaos",
            "--figure 6 --csv",
            "--chaos --csv",
            "--chaos --hotspots",
            "--trace out --chaos",
            "--trace out --csv",
            "--plan crash",
            "--figure 6 --seeds 2",
            "--dump out",
        ] {
            assert!(parse(line).is_err(), "'{line}' must be a usage error");
        }
        let sweep = parse("--csv").unwrap();
        assert!(matches!(sweep.mode, Mode::Sweep) && sweep.csv);
        assert!(matches!(
            parse("--chaos --plan crash").unwrap().mode,
            Mode::Chaos
        ));
        let fig = parse("--figure 7 --trace out").unwrap();
        assert!(matches!(fig.mode, Mode::Figure(_)) && fig.trace.is_some());
        assert!(matches!(parse("--trace out").unwrap().mode, Mode::Trace));
        // One run per trace and per chaos cell; one seed outside the sweep.
        for line in [
            "--trace out --procs 16,64",
            "--trace out --algo SingleLock,FunnelTree",
            "--chaos --priorities 8,16",
            "--chaos --procs 1",
            "--chaos --seeds 0",
            "--figure 7 --seed 1,2",
            "--figure cutoff --trace out",
        ] {
            assert!(parse(line).is_err(), "'{line}' must be a usage error");
        }
        assert!(parse("--chaos --algo SingleLock,FunnelTree").is_ok());
        assert!(parse("--figure 7 --procs 16,64").is_ok());
    }

    #[test]
    fn procs_replace_a_figures_p_axis() {
        let args = parse("--figure 7 --procs 2,4 --ops 8 --algo SimpleLinear").unwrap();
        let Mode::Figure(fig) = args.mode else {
            panic!("not a figure");
        };
        let Body::Grids([grid]) = fig.body else {
            panic!("figure 7 is one grid");
        };
        let table = grid_table(&args, grid, 8, fig.seed);
        assert!(table.contains("16 priorities, 2..4 processors"), "{table}");
        let rows: Vec<&str> = table.lines().skip_while(|l| !l.starts_with("|-")).collect();
        assert_eq!(rows.len(), 4, "rule, two rows, blank: {table}");
        assert!(
            rows[1].starts_with("| 2 |") && rows[2].starts_with("| 4 |"),
            "{table}"
        );
    }

    #[test]
    fn lat_formats_whole_cycles() {
        assert_eq!(lat(1234.56), "1235");
        assert_eq!(lat(0.4), "0");
    }

    #[test]
    fn print_table_handles_ragged_rows() {
        // Must not panic on short rows; pads to the widest cell.
        let rows = [vec!["1".into()], vec!["22".into(), "333".into()]];
        let t = table("t", &["a", "bb"], rows);
        assert_eq!(
            t,
            "\n## t\n\n|  a |  bb |\n|----|-----|\n|  1 |\n| 22 | 333 |\n\n"
        );
    }

    /// `SIM_golden.csv` at the repository root is this sweep's output: every
    /// algorithm, two machine sizes, two seeds, quarter scale. A change that
    /// moves one simulated access moves a row.
    #[test]
    fn sweep_matches_the_committed_golden_file() {
        let names: Vec<&str> = Algorithm::EVERY.iter().map(|a| a.name()).collect();
        let line = format!(
            "--algo {} --procs 16,64 --ops 16 --seed 61437,7 --csv",
            names.join(",")
        );
        let args = parse(&line).unwrap();
        let mut out = Vec::new();
        sweep(&args, &mut out).unwrap();
        let golden = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../SIM_golden.csv"));
        let got = String::from_utf8(out).unwrap();
        for (g, want) in got.lines().zip(golden.lines()) {
            assert_eq!(g, want, "pqsim {line}");
        }
        assert_eq!(got.lines().count(), golden.lines().count(), "pqsim {line}");
    }
}

//! `pqsim` — command-line driver for the simulated priority-queue
//! experiments.
//!
//! Examples:
//!
//! ```text
//! pqsim --algo FunnelTree --procs 64 --priorities 16
//! pqsim --algo all --procs 2,16,64,256 --priorities 16 --csv
//! pqsim --algo SimpleLinear,FunnelTree --priorities 2,32,512 --procs 256 \
//!       --ops 64 --local-work 50 --seed 7 --net 10 --service 4
//! ```
//!
//! Prints one row per (algorithm, procs, priorities) combination with mean
//! latency (cycles), the insert/delete split, total simulated cycles, and
//! memory-system statistics. All runs are deterministic for a given seed.

use std::process::ExitCode;

use funnelpq_sim::MachineConfig;
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::{run_queue_workload, Workload};

#[derive(Debug)]
struct Args {
    algos: Vec<Algorithm>,
    procs: Vec<usize>,
    priorities: Vec<usize>,
    ops: usize,
    local_work: u64,
    seed: u64,
    machine: MachineConfig,
    csv: bool,
    hotspots: bool,
    naive_events: bool,
}

const USAGE: &str = "\
pqsim — simulated bounded-range priority queue experiments (Shavit & Zemach, PODC 1999)

USAGE:
    pqsim [OPTIONS]

OPTIONS:
    --algo <LIST>        comma-separated algorithms, or 'all' (the paper's
                         seven) / 'scalable' (its Figure 7-9 four)
                         (SingleLock, HuntEtAl, SkipList, SimpleLinear,
                          SimpleTree, LinearFunnels, FunnelTree, HardwareTree,
                          MultiQueue, NumaPq — the last three are not the
                          paper's: a fetch-and-add ablation and the two
                          relaxed post-paper designs)
                         [default: scalable]
    --procs <LIST>       comma-separated processor counts   [default: 16,64,256]
    --priorities <LIST>  comma-separated priority ranges    [default: 16]
    --ops <N>            queue accesses per processor       [default: 64]
    --local-work <N>     cycles of local work between ops   [default: 50]
    --seed <N>           experiment seed                    [default: 61437]
    --net <N>            one-way network latency, cycles    [default: 10]
    --service <N>        cache-line service time, cycles    [default: 4]
    --line-words <N>     words per cache line (power of 2)  [default: 2]
    --csv                machine-readable CSV output
    --hotspots           print the top contended memory regions per run
    --naive-events       use the linear-scan reference event queue
                         (bit-identical results, slower wall-clock)
    -h, --help           show this help
";

fn parse_algo(name: &str) -> Result<Vec<Algorithm>, String> {
    match name {
        "all" => Ok(Algorithm::ALL.to_vec()),
        "scalable" => Ok(Algorithm::SCALABLE.to_vec()),
        // `FromStr` walks `Algorithm::EVERY`: every name the workspace knows.
        other => other.parse().map(|a| vec![a]),
    }
}

fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, String> {
    s.split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("invalid {what}: '{part}'"))
        })
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        algos: Algorithm::SCALABLE.to_vec(),
        procs: vec![16, 64, 256],
        priorities: vec![16],
        ops: 64,
        local_work: 50,
        seed: 61437,
        machine: MachineConfig::alewife_like(),
        csv: false,
        hotspots: false,
        naive_events: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--algo" => {
                let v = value()?;
                let mut algos = Vec::new();
                for part in v.split(',') {
                    algos.extend(parse_algo(part.trim())?);
                }
                args.algos = algos;
            }
            "--procs" => args.procs = parse_list(value()?, "processor count")?,
            "--priorities" => args.priorities = parse_list(value()?, "priority range")?,
            "--ops" => args.ops = parse_list(value()?, "ops")?[0],
            "--local-work" => args.local_work = parse_list(value()?, "local work")?[0],
            "--seed" => args.seed = parse_list(value()?, "seed")?[0],
            "--net" => args.machine.net_latency = parse_list(value()?, "net latency")?[0],
            "--service" => args.machine.service = parse_list(value()?, "service")?[0],
            "--line-words" => args.machine.line_words = parse_list(value()?, "line words")?[0],
            "--csv" => args.csv = true,
            "--hotspots" => args.hotspots = true,
            "--naive-events" => args.naive_events = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if !args.machine.line_words.is_power_of_two() {
        return Err("--line-words must be a power of two".into());
    }
    if args.ops == 0 || args.procs.contains(&0) {
        return Err("--ops and --procs must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
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

    if args.csv {
        println!(
            "algo,procs,priorities,ops_per_proc,seed,mean_cycles,insert_mean,delete_mean,\
             total_cycles,mem_accesses,mean_queue_delay"
        );
    } else {
        println!(
            "{:>14} {:>6} {:>6} {:>12} {:>12} {:>12} {:>14} {:>12}",
            "algo", "procs", "pris", "mean(cyc)", "insert", "delete", "total cycles", "mem ops"
        );
    }
    for &algo in &args.algos {
        for &procs in &args.procs {
            for &pris in &args.priorities {
                let wl = Workload {
                    procs,
                    num_priorities: pris,
                    ops_per_proc: args.ops,
                    local_work: args.local_work,
                    seed: args.seed,
                    machine: args.machine,
                    naive_events: args.naive_events,
                };
                let r = run_queue_workload(algo, &wl);
                if args.csv {
                    println!(
                        "{},{},{},{},{},{:.1},{:.1},{:.1},{},{},{:.2}",
                        algo.name(),
                        procs,
                        pris,
                        args.ops,
                        args.seed,
                        r.all.mean(),
                        r.insert.mean(),
                        r.delete.mean(),
                        r.total_cycles,
                        r.stats.mem_accesses,
                        r.stats.mean_queue_delay()
                    );
                } else {
                    println!(
                        "{:>14} {:>6} {:>6} {:>12.0} {:>12.0} {:>12.0} {:>14} {:>12}",
                        algo.name(),
                        procs,
                        pris,
                        r.all.mean(),
                        r.insert.mean(),
                        r.delete.mean(),
                        r.total_cycles,
                        r.stats.mem_accesses
                    );
                }
                if args.hotspots {
                    let total = r.stats.queue_delay_cycles.max(1);
                    for h in &r.hotspots {
                        if h.queue_delay_cycles == 0 {
                            continue;
                        }
                        println!(
                            "    hot: {:<28} {:>6.1}% of queueing delay ({} accesses)",
                            h.label,
                            100.0 * h.queue_delay_cycles as f64 / total as f64,
                            h.accesses
                        );
                    }
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
